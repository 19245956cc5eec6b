//! Integer ↔ atom-stream decomposition (paper §III-A, Fig 5).
//!
//! The magnitude of a value is split into N-bit atoms; zero atoms are
//! dropped. Each surviving atom carries its shift offset, the sign of the
//! originating value, and a `last` flag on the value's final atom.
//!
//! The worked example of Fig 5 — multiplying −11 by 13 with 2-bit atoms —
//! appears as a doctest on [`multiply_via_atoms`].

use crate::atom::{Atom, AtomBits};
use crate::error::AtomError;

/// Decomposes a *signed* value (a weight) into its non-zero atoms, ordered
/// from least- to most-significant shift. Returns an empty vector for zero.
///
/// # Errors
/// Returns [`AtomError::ValueTooWide`] when `|v|` needs more than
/// `value_bits` bits (the symmetric-quantized range is `±(2^{b-1}-1)`, so
/// magnitudes always fit `value_bits - 1` bits; we accept up to
/// `value_bits` to also cover unsigned inputs routed through here).
pub fn atomize_signed(v: i32, value_bits: u8, atom_bits: AtomBits) -> Result<Vec<Atom>, AtomError> {
    let mag = v.unsigned_abs();
    if value_bits < 32 && mag >= (1u32 << value_bits) {
        return Err(AtomError::ValueTooWide {
            value: v as i64,
            bits: value_bits,
        });
    }
    Ok(atomize_magnitude(mag, v < 0, atom_bits))
}

/// Decomposes an *unsigned* value (a post-ReLU activation) into its
/// non-zero atoms.
///
/// # Errors
/// Returns [`AtomError::NegativeUnsigned`] for negative input and
/// [`AtomError::ValueTooWide`] when the value exceeds `value_bits`.
pub fn atomize_unsigned(
    v: i32,
    value_bits: u8,
    atom_bits: AtomBits,
) -> Result<Vec<Atom>, AtomError> {
    let mag = unsigned_magnitude(v, value_bits)?;
    Ok(atomize_magnitude(mag, false, atom_bits))
}

/// The range check of [`atomize_unsigned`]: `v` as an unsigned magnitude
/// that fits `value_bits`.
pub(crate) fn unsigned_magnitude(v: i32, value_bits: u8) -> Result<u32, AtomError> {
    if v < 0 {
        return Err(AtomError::NegativeUnsigned(v as i64));
    }
    if value_bits < 32 && (v as u32) >= (1u32 << value_bits) {
        return Err(AtomError::ValueTooWide {
            value: v as i64,
            bits: value_bits,
        });
    }
    Ok(v as u32)
}

fn atomize_magnitude(mag: u32, negative: bool, atom_bits: AtomBits) -> Vec<Atom> {
    let mut atoms = Vec::new();
    for_each_atom(mag, negative, atom_bits, |a| atoms.push(a));
    atoms
}

/// Emits the non-zero atoms of `mag` from least- to most-significant
/// shift; the atom with no non-zero bits above it carries the `last` flag.
/// The allocation-free core of every atomization.
pub(crate) fn for_each_atom(
    mut mag: u32,
    negative: bool,
    atom_bits: AtomBits,
    mut emit: impl FnMut(Atom),
) {
    let g = atom_bits.bits();
    let mask = (1u32 << g) - 1;
    let mut shift = 0u8;
    while mag != 0 {
        let a = mag & mask;
        let rest = mag >> g;
        if a != 0 {
            emit(Atom {
                mag: a as u8,
                shift,
                negative,
                last: rest == 0,
            });
        }
        mag = rest;
        shift += g;
    }
}

/// Reassembles a value from its atoms: `Σ ±mag·2^shift`.
pub fn recompose(atoms: &[Atom]) -> i64 {
    atoms.iter().map(Atom::term).sum()
}

/// Multiplies two integers through their atom streams — the 1-D convolution
/// of Fig 5. This is the scalar seed of the full condensed streaming
/// computation; [`crate::intersect`] generalizes it to whole tensors.
///
/// ```
/// use atomstream::atom::AtomBits;
/// use atomstream::decompose::multiply_via_atoms;
/// // Paper Fig 5: a 4-bit activation times an 8-bit weight, 2-bit atoms.
/// assert_eq!(multiply_via_atoms(13, -11, 4, 8, AtomBits::B2).unwrap(), -143);
/// ```
///
/// # Errors
/// Propagates atomization errors; `a` is treated as unsigned (activation)
/// and `w` as signed (weight).
pub fn multiply_via_atoms(
    a: i32,
    w: i32,
    a_bits: u8,
    w_bits: u8,
    atom_bits: AtomBits,
) -> Result<i64, AtomError> {
    let a_atoms = atomize_unsigned(a, a_bits, atom_bits)?;
    let w_atoms = atomize_signed(w, w_bits, atom_bits)?;
    let mut acc = 0i64;
    // Outer product of the two streams with proper shifting — equivalently
    // the sum over all steps of the 1-D convolution's intersection region.
    for wa in &w_atoms {
        for aa in &a_atoms {
            let p = (wa.mag as i64 * aa.mag as i64) << (wa.shift + aa.shift);
            acc += if wa.negative { -p } else { p };
        }
    }
    Ok(acc)
}

/// The number of 1-D convolution steps Fig 5 takes for two atom streams of
/// the given lengths: `len_a + len_w - 1` (each step slides the dynamic
/// stream by one atom).
pub fn conv1d_steps(len_a: usize, len_w: usize) -> usize {
    if len_a == 0 || len_w == 0 {
        0
    } else {
        len_a + len_w - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_29_decomposes_into_three_terms() {
        // §III-A: 29 (01_11_01) = {1·2^4, 3·2^2, 1·2^0}.
        let atoms = atomize_unsigned(29, 8, AtomBits::B2).unwrap();
        let terms: Vec<i64> = atoms.iter().map(Atom::term).collect();
        assert_eq!(terms, vec![1, 3 << 2, 1 << 4]);
        assert!(atoms.last().unwrap().last);
        assert!(atoms[..2].iter().all(|a| !a.last));
        assert_eq!(recompose(&atoms), 29);
    }

    #[test]
    fn fig5_example_minus_11_times_13() {
        // -11 = mag 1011 -> atoms (3, shift 0), (2, shift 2), both negative.
        let w = atomize_signed(-11, 8, AtomBits::B2).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].mag, w[0].shift, w[0].negative), (3, 0, true));
        assert_eq!((w[1].mag, w[1].shift, w[1].negative), (2, 2, true));
        // 13 = 1101 -> atoms (1, shift 0), (3, shift 2).
        let a = atomize_unsigned(13, 4, AtomBits::B2).unwrap();
        assert_eq!((a[0].mag, a[0].shift), (1, 0));
        assert_eq!((a[1].mag, a[1].shift), (3, 2));
        assert_eq!(
            multiply_via_atoms(13, -11, 4, 8, AtomBits::B2).unwrap(),
            -143
        );
        // Fig 5 runs five steps for streams of length 2 and 4 (dense atoms);
        // with zero atoms squeezed out both streams have 2 -> 3 steps.
        assert_eq!(conv1d_steps(2, 4), 5);
        assert_eq!(conv1d_steps(2, 2), 3);
    }

    #[test]
    fn zero_produces_empty_stream() {
        assert!(atomize_signed(0, 8, AtomBits::B2).unwrap().is_empty());
        assert!(atomize_unsigned(0, 8, AtomBits::B2).unwrap().is_empty());
        assert_eq!(recompose(&[]), 0);
        assert_eq!(conv1d_steps(0, 5), 0);
    }

    #[test]
    fn zero_atoms_are_squeezed() {
        // 0b0100_0001 = 65: atoms at shifts 0 and 6 only.
        let atoms = atomize_unsigned(65, 8, AtomBits::B2).unwrap();
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].shift, 0);
        assert_eq!(atoms[1].shift, 6);
    }

    #[test]
    fn roundtrip_all_8bit_values() {
        for gran in [AtomBits::B1, AtomBits::B2, AtomBits::B3, AtomBits::B4] {
            for v in -127i32..=127 {
                let atoms = atomize_signed(v, 8, gran).unwrap();
                assert_eq!(recompose(&atoms), v as i64, "v={v} gran={gran}");
                // Exactly one last flag on non-empty streams.
                assert_eq!(atoms.iter().filter(|a| a.last).count(), usize::from(v != 0));
                // No zero atoms.
                assert!(atoms.iter().all(|a| a.mag > 0));
            }
        }
    }

    #[test]
    fn multiplication_matrix_exhaustive_small() {
        for a in 0i32..=15 {
            for w in -7i32..=7 {
                for gran in [AtomBits::B1, AtomBits::B2, AtomBits::B3] {
                    assert_eq!(
                        multiply_via_atoms(a, w, 4, 4, gran).unwrap(),
                        (a * w) as i64,
                        "a={a} w={w} gran={gran}"
                    );
                }
            }
        }
    }

    #[test]
    fn range_validation() {
        assert!(matches!(
            atomize_unsigned(16, 4, AtomBits::B2),
            Err(AtomError::ValueTooWide { .. })
        ));
        assert!(matches!(
            atomize_unsigned(-1, 4, AtomBits::B2),
            Err(AtomError::NegativeUnsigned(_))
        ));
        assert!(atomize_signed(-8, 4, AtomBits::B2).is_ok());
        assert!(matches!(
            atomize_signed(-17, 4, AtomBits::B2),
            Err(AtomError::ValueTooWide { .. })
        ));
    }

    #[test]
    fn shifts_stay_within_table_iv_range() {
        use crate::atom::shift_range;
        let legal = shift_range(8, AtomBits::B2);
        for v in 0..=255i32 {
            for a in atomize_unsigned(v, 8, AtomBits::B2).unwrap() {
                assert!(legal.contains(&a.shift));
            }
        }
    }
}
