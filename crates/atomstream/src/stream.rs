//! Sparsity-condensed atom streams with metadata.
//!
//! A stream is the unit the Atomputer computes on: a sequence of non-zero
//! atoms, each carrying the coordinate metadata the Atomulator needs to
//! place its partial products (paper §III-B, Fig 6).
//!
//! Weight streams additionally obey the *stream shuffle* restrictions of
//! §IV-C2 / Fig 9 when built with [`WeightStream::shuffled`]:
//!
//! 1. atoms of the same weight *slice* (same shift offset) are grouped
//!    contiguously, enabling the decoupled shift (only the activation shift
//!    is applied per multiplication; the weight-slice shift is applied once
//!    at accumulate-buffer aggregation);
//! 2. within a slice, atoms are ordered channel-first (output channel
//!    varies fastest), eliminating accumulate-buffer coordinate contention.

use crate::atom::{Atom, AtomBits};
use crate::error::AtomError;
use crate::wire::{FNV_OFFSET, FNV_PRIME};
use serde::{Deserialize, Serialize};

/// Folds one byte into a running FNV-1a 64 hash.
#[inline]
fn fnv1a(hash: u64, byte: u8) -> u64 {
    (hash ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// Folds a little-endian `u16` into a running FNV-1a 64 hash.
#[inline]
fn fnv1a_u16(hash: u64, v: u16) -> u64 {
    let [a, b] = v.to_le_bytes();
    fnv1a(fnv1a(hash, a), b)
}

/// Folds one atom (mag, shift, sign, last) into a running FNV-1a 64 hash.
#[inline]
fn fnv1a_atom(hash: u64, atom: &Atom) -> u64 {
    let mut h = fnv1a(hash, atom.mag);
    h = fnv1a(h, atom.shift);
    h = fnv1a(h, atom.negative as u8);
    fnv1a(h, atom.last as u8)
}

/// One entry of an activation stream: a non-zero atom plus its in-tile
/// spatial coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActEntry {
    /// The atom (unsigned for post-ReLU activations).
    pub atom: Atom,
    /// Column within the tile.
    pub x: u16,
    /// Row within the tile.
    pub y: u16,
}

/// One entry of a weight stream: a non-zero atom plus kernel coordinates
/// and the output channel its products belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightEntry {
    /// The atom (sign bit carries the weight's sign).
    pub atom: Atom,
    /// Kernel column.
    pub x: u16,
    /// Kernel row.
    pub y: u16,
    /// Output channel (which kernel this weight belongs to).
    pub out_ch: u16,
}

/// A condensed activation atom stream for one channel of one tile.
#[derive(Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ActivationStream {
    entries: Vec<ActEntry>,
}

// By hand so `clone_from` reuses the entry buffer: the fault path re-copies
// a clean stream into one working copy per tile attempt.
impl Clone for ActivationStream {
    fn clone(&self) -> Self {
        Self {
            entries: self.entries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl ActivationStream {
    /// Wraps pre-built entries.
    pub fn from_entries(entries: Vec<ActEntry>) -> Self {
        Self { entries }
    }

    /// The stream's entries in order.
    pub fn entries(&self) -> &[ActEntry] {
        &self.entries
    }

    /// Mutable view of the entries in order (the fault-injection surface).
    pub fn entries_mut(&mut self) -> &mut [ActEntry] {
        &mut self.entries
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct activation values (counted via last flags).
    pub fn value_count(&self) -> usize {
        self.entries.iter().filter(|e| e.atom.last).count()
    }

    /// Order-sensitive FNV-1a 64 checksum over every entry's atom and
    /// coordinates. Any single-bit corruption of any field — including a
    /// dropped, duplicated or reordered entry — changes the digest, which
    /// is what the online detection layer verifies before intersection.
    pub fn checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for e in &self.entries {
            h = fnv1a_atom(h, &e.atom);
            h = fnv1a_u16(h, e.x);
            h = fnv1a_u16(h, e.y);
        }
        h
    }
}

/// A condensed weight atom stream for one input channel (spanning all the
/// kernels / output channels mapped to a compute tile).
#[derive(Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WeightStream {
    entries: Vec<WeightEntry>,
}

// By hand so `clone_from` reuses the entry buffer: the fault path re-copies
// a clean stream into one working copy per tile attempt.
impl Clone for WeightStream {
    fn clone(&self) -> Self {
        Self {
            entries: self.entries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl WeightStream {
    /// Wraps pre-built entries without reordering (naive order).
    pub fn from_entries(entries: Vec<WeightEntry>) -> Self {
        Self { entries }
    }

    /// Builds the stream in the shuffled order of §IV-C2: grouped by shift
    /// slice (ascending), channel-first within a slice. Shuffling never
    /// changes results (each atom meets every activation atom) but it is
    /// what makes the decoupled shift and contention-free routing work.
    pub fn shuffled(mut entries: Vec<WeightEntry>) -> Self {
        entries.sort_by_key(|e| (e.atom.shift, e.y, e.x, e.out_ch));
        Self { entries }
    }

    /// The stream's entries in order.
    pub fn entries(&self) -> &[WeightEntry] {
        &self.entries
    }

    /// Mutable view of the entries in order (the fault-injection surface).
    pub fn entries_mut(&mut self) -> &mut [WeightEntry] {
        &mut self.entries
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Splits the stream into the contiguous shift-slice groups the
    /// accumulate buffer aggregates between (only meaningful on a
    /// [`WeightStream::shuffled`] stream).
    pub fn slice_groups(&self) -> Vec<&[WeightEntry]> {
        let mut groups = Vec::new();
        let mut start = 0;
        for i in 1..=self.entries.len() {
            if i == self.entries.len()
                || self.entries[i].atom.shift != self.entries[start].atom.shift
            {
                groups.push(&self.entries[start..i]);
                start = i;
            }
        }
        groups
    }

    /// Order-sensitive FNV-1a 64 checksum over every entry's atom,
    /// coordinates and output channel. Computed once at compile time by the
    /// weight-stream compiler and re-verified online before each
    /// intersection, so any bit flip in the static weight side is caught
    /// before it can pollute the accumulate buffer.
    pub fn checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for e in &self.entries {
            h = fnv1a_atom(h, &e.atom);
            h = fnv1a_u16(h, e.x);
            h = fnv1a_u16(h, e.y);
            h = fnv1a_u16(h, e.out_ch);
        }
        h
    }
}

/// Builds weight entries for one kernel 2-D slice (one `(out_ch, in_ch)`
/// plane), atomizing each non-zero weight.
///
/// # Errors
/// Propagates [`AtomError::ValueTooWide`] for weights that exceed `w_bits`.
pub fn weight_entries_for_slice(
    slice: &[i32],
    kh: usize,
    kw: usize,
    out_ch: u16,
    w_bits: u8,
    atom_bits: AtomBits,
) -> Result<Vec<WeightEntry>, AtomError> {
    debug_assert_eq!(slice.len(), kh * kw);
    let mut entries = Vec::new();
    for ky in 0..kh {
        for kx in 0..kw {
            let v = slice[ky * kw + kx];
            if v == 0 {
                continue;
            }
            for atom in crate::decompose::atomize_signed(v, w_bits, atom_bits)? {
                entries.push(WeightEntry {
                    atom,
                    x: kx as u16,
                    y: ky as u16,
                    out_ch,
                });
            }
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::atomize_unsigned;

    fn act_entry(v: i32, x: u16, y: u16) -> Vec<ActEntry> {
        atomize_unsigned(v, 8, AtomBits::B2)
            .unwrap()
            .into_iter()
            .map(|atom| ActEntry { atom, x, y })
            .collect()
    }

    #[test]
    fn activation_stream_value_count() {
        let mut entries = act_entry(29, 0, 0); // 3 atoms
        entries.extend(act_entry(3, 1, 0)); // 1 atom
        let s = ActivationStream::from_entries(entries);
        assert_eq!(s.len(), 4);
        assert_eq!(s.value_count(), 2);
    }

    #[test]
    fn weight_slice_entries_skip_zeros() {
        // 2x2 kernel slice [5, 0, -3, 0]: 5 -> atoms (1@0, 1@2), -3 -> (3@0).
        let e = weight_entries_for_slice(&[5, 0, -3, 0], 2, 2, 7, 4, AtomBits::B2).unwrap();
        assert_eq!(e.len(), 3);
        assert!(e.iter().all(|w| w.out_ch == 7));
        assert_eq!((e[2].x, e[2].y, e[2].atom.negative), (0, 1, true));
    }

    #[test]
    fn shuffled_groups_by_slice_then_channel_first() {
        let mk = |mag, shift, out_ch| WeightEntry {
            atom: Atom {
                mag,
                shift,
                negative: false,
                last: true,
            },
            x: 0,
            y: 0,
            out_ch,
        };
        let s = WeightStream::shuffled(vec![mk(1, 2, 1), mk(2, 0, 1), mk(3, 0, 0), mk(1, 2, 0)]);
        let shifts: Vec<u8> = s.entries().iter().map(|e| e.atom.shift).collect();
        assert_eq!(shifts, vec![0, 0, 2, 2]);
        let chans: Vec<u16> = s.entries().iter().map(|e| e.out_ch).collect();
        assert_eq!(chans, vec![0, 1, 0, 1]);
        let groups = s.slice_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 2);
    }

    #[test]
    fn slice_groups_on_empty_stream() {
        let s = WeightStream::default();
        assert!(s.slice_groups().is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn act_checksum_is_sensitive_to_every_field() {
        let base = ActivationStream::from_entries(act_entry(29, 1, 2));
        let reference = base.checksum();
        assert_eq!(base.checksum(), reference, "checksum must be pure");
        let mut flipped = base.entries().to_vec();
        flipped[0].atom.mag ^= 1;
        assert_ne!(
            ActivationStream::from_entries(flipped).checksum(),
            reference
        );
        let mut moved = base.entries().to_vec();
        moved[0].x ^= 1;
        assert_ne!(ActivationStream::from_entries(moved).checksum(), reference);
        let mut truncated = base.entries().to_vec();
        truncated.pop();
        assert_ne!(
            ActivationStream::from_entries(truncated).checksum(),
            reference
        );
    }

    #[test]
    fn weight_checksum_detects_duplication_and_reorder() {
        let e = weight_entries_for_slice(&[5, 0, -3, 0], 2, 2, 7, 4, AtomBits::B2).unwrap();
        let reference = WeightStream::from_entries(e.clone()).checksum();
        let mut dup = e.clone();
        dup.push(dup[0]);
        assert_ne!(WeightStream::from_entries(dup).checksum(), reference);
        let mut swapped = e.clone();
        swapped.swap(0, 1);
        assert_ne!(WeightStream::from_entries(swapped).checksum(), reference);
        let mut sign = e;
        sign[0].atom.negative = !sign[0].atom.negative;
        assert_ne!(WeightStream::from_entries(sign).checksum(), reference);
    }
}
