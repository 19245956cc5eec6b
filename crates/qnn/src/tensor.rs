//! Integer tensor containers for quantized activations and weights.
//!
//! Activations live in a [`Tensor3`] laid out as `(channel, row, col)` and
//! weights in a [`Tensor4`] laid out as `(out_channel, in_channel, row, col)`.
//! Values are `i32` — wide enough for any quantized precision the paper uses
//! (2..=16 bit) while keeping accumulation overflow analysis simple.

use crate::error::QnnError;
use serde::{Deserialize, Serialize};

/// A 3-D integer tensor holding a (quantized) feature map, laid out
/// `(channels, height, width)` row-major.
///
/// ```
/// use qnn::tensor::Tensor3;
/// let t = Tensor3::from_vec(1, 2, 2, vec![1, 2, 3, 4]).unwrap();
/// assert_eq!(t.get(0, 1, 0), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tensor3 {
    c: usize,
    h: usize,
    w: usize,
    data: Vec<i32>,
}

impl Tensor3 {
    /// Creates a zero-filled tensor of shape `(c, h, w)`.
    ///
    /// # Errors
    /// Returns [`QnnError::EmptyDimension`] if any extent is zero.
    pub fn zeros(c: usize, h: usize, w: usize) -> Result<Self, QnnError> {
        Self::check_dims(c, h, w)?;
        Ok(Self {
            c,
            h,
            w,
            data: vec![0; c * h * w],
        })
    }

    /// Wraps an existing buffer as a tensor of shape `(c, h, w)`.
    ///
    /// # Errors
    /// Returns [`QnnError::ShapeMismatch`] if `data.len() != c * h * w` and
    /// [`QnnError::EmptyDimension`] if any extent is zero.
    pub fn from_vec(c: usize, h: usize, w: usize, data: Vec<i32>) -> Result<Self, QnnError> {
        Self::check_dims(c, h, w)?;
        if data.len() != c * h * w {
            return Err(QnnError::ShapeMismatch {
                expected: c * h * w,
                actual: data.len(),
            });
        }
        Ok(Self { c, h, w, data })
    }

    /// Builds a tensor by evaluating `f(c, y, x)` at every coordinate.
    pub fn from_fn(
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize) -> i32,
    ) -> Result<Self, QnnError> {
        let mut t = Self::zeros(c, h, w)?;
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let v = f(ci, y, x);
                    t.set(ci, y, x, v);
                }
            }
        }
        Ok(t)
    }

    fn check_dims(c: usize, h: usize, w: usize) -> Result<(), QnnError> {
        if c == 0 {
            return Err(QnnError::EmptyDimension("c"));
        }
        if h == 0 {
            return Err(QnnError::EmptyDimension("h"));
        }
        if w == 0 {
            return Err(QnnError::EmptyDimension("w"));
        }
        Ok(())
    }

    /// Shape as `(channels, height, width)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.c, self.h, self.w)
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (never true for a constructed tensor).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn index(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.c && y < self.h && x < self.w);
        (c * self.h + y) * self.w + x
    }

    /// Returns the value at `(c, y, x)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> i32 {
        self.data[self.index(c, y, x)]
    }

    /// Returns the value at `(c, y, x)` treating out-of-bounds spatial
    /// coordinates as zero padding. `y`/`x` are signed to allow padding.
    #[inline]
    pub fn get_padded(&self, c: usize, y: isize, x: isize) -> i32 {
        if y < 0 || x < 0 || y as usize >= self.h || x as usize >= self.w {
            0
        } else {
            self.get(c, y as usize, x as usize)
        }
    }

    /// Sets the value at `(c, y, x)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: i32) {
        let i = self.index(c, y, x);
        self.data[i] = v;
    }

    /// Flat view of the underlying buffer (`(c*h + y)*w + x` order).
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// Mutable flat view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<i32> {
        self.data
    }

    /// Iterates over `(c, y, x, value)` in layout order.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, usize, usize, i32)> + '_ {
        let (h, w) = (self.h, self.w);
        self.data.iter().enumerate().map(move |(i, &v)| {
            let x = i % w;
            let y = (i / w) % h;
            let c = i / (w * h);
            (c, y, x, v)
        })
    }

    /// Borrowed view of one channel plane as a slice of length `h * w`.
    ///
    /// # Panics
    /// Panics if `c` is out of bounds.
    pub fn channel(&self, c: usize) -> &[i32] {
        assert!(
            c < self.c,
            "channel {c} out of bounds ({} channels)",
            self.c
        );
        let plane = self.h * self.w;
        &self.data[c * plane..(c + 1) * plane]
    }

    /// Extracts a spatial tile `[y0, y0+th) x [x0, x0+tw)` of channel `c`,
    /// clamping at the tensor boundary (missing cells are zero-filled).
    pub fn tile(&self, c: usize, y0: usize, x0: usize, th: usize, tw: usize) -> Vec<i32> {
        let mut out = vec![0; th * tw];
        for dy in 0..th {
            for dx in 0..tw {
                let (y, x) = (y0 + dy, x0 + dx);
                if y < self.h && x < self.w {
                    out[dy * tw + dx] = self.get(c, y, x);
                }
            }
        }
        out
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0).count()
    }
}

/// A 4-D integer tensor holding (quantized) convolution kernels, laid out
/// `(out_channels, in_channels, kernel_h, kernel_w)` row-major.
///
/// ```
/// use qnn::tensor::Tensor4;
/// let k = Tensor4::from_vec(1, 1, 2, 2, vec![1, -1, 2, -2]).unwrap();
/// assert_eq!(k.get(0, 0, 1, 1), -2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tensor4 {
    o: usize,
    i: usize,
    kh: usize,
    kw: usize,
    data: Vec<i32>,
}

impl Tensor4 {
    /// Creates a zero-filled kernel tensor of shape `(o, i, kh, kw)`.
    ///
    /// # Errors
    /// Returns [`QnnError::EmptyDimension`] if any extent is zero.
    pub fn zeros(o: usize, i: usize, kh: usize, kw: usize) -> Result<Self, QnnError> {
        Self::check_dims(o, i, kh, kw)?;
        Ok(Self {
            o,
            i,
            kh,
            kw,
            data: vec![0; o * i * kh * kw],
        })
    }

    /// Wraps an existing buffer as a kernel tensor of shape `(o, i, kh, kw)`.
    ///
    /// # Errors
    /// Returns [`QnnError::ShapeMismatch`] on a length mismatch and
    /// [`QnnError::EmptyDimension`] if any extent is zero.
    pub fn from_vec(
        o: usize,
        i: usize,
        kh: usize,
        kw: usize,
        data: Vec<i32>,
    ) -> Result<Self, QnnError> {
        Self::check_dims(o, i, kh, kw)?;
        if data.len() != o * i * kh * kw {
            return Err(QnnError::ShapeMismatch {
                expected: o * i * kh * kw,
                actual: data.len(),
            });
        }
        Ok(Self { o, i, kh, kw, data })
    }

    /// Builds a kernel tensor by evaluating `f(o, i, ky, kx)` everywhere.
    pub fn from_fn(
        o: usize,
        i: usize,
        kh: usize,
        kw: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> i32,
    ) -> Result<Self, QnnError> {
        let mut t = Self::zeros(o, i, kh, kw)?;
        for oi in 0..o {
            for ii in 0..i {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let v = f(oi, ii, ky, kx);
                        t.set(oi, ii, ky, kx, v);
                    }
                }
            }
        }
        Ok(t)
    }

    fn check_dims(o: usize, i: usize, kh: usize, kw: usize) -> Result<(), QnnError> {
        if o == 0 {
            return Err(QnnError::EmptyDimension("o"));
        }
        if i == 0 {
            return Err(QnnError::EmptyDimension("i"));
        }
        if kh == 0 {
            return Err(QnnError::EmptyDimension("kh"));
        }
        if kw == 0 {
            return Err(QnnError::EmptyDimension("kw"));
        }
        Ok(())
    }

    /// Shape as `(out_channels, in_channels, kernel_h, kernel_w)`.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.o, self.i, self.kh, self.kw)
    }

    /// Number of output channels (kernels).
    pub fn out_channels(&self) -> usize {
        self.o
    }

    /// Number of input channels per kernel.
    pub fn in_channels(&self) -> usize {
        self.i
    }

    /// Kernel height.
    pub fn kernel_h(&self) -> usize {
        self.kh
    }

    /// Kernel width.
    pub fn kernel_w(&self) -> usize {
        self.kw
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (never true for a constructed tensor).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn index(&self, o: usize, i: usize, ky: usize, kx: usize) -> usize {
        debug_assert!(o < self.o && i < self.i && ky < self.kh && kx < self.kw);
        ((o * self.i + i) * self.kh + ky) * self.kw + kx
    }

    /// Returns the weight at `(o, i, ky, kx)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, o: usize, i: usize, ky: usize, kx: usize) -> i32 {
        self.data[self.index(o, i, ky, kx)]
    }

    /// Sets the weight at `(o, i, ky, kx)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, o: usize, i: usize, ky: usize, kx: usize, v: i32) {
        let idx = self.index(o, i, ky, kx);
        self.data[idx] = v;
    }

    /// Flat view of the underlying buffer.
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// Mutable flat view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<i32> {
        self.data
    }

    /// Iterates over `(o, i, ky, kx, value)` in layout order.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, usize, usize, usize, i32)> + '_ {
        let (i_c, kh, kw) = (self.i, self.kh, self.kw);
        self.data.iter().enumerate().map(move |(idx, &v)| {
            let kx = idx % kw;
            let ky = (idx / kw) % kh;
            let ii = (idx / (kw * kh)) % i_c;
            let oi = idx / (kw * kh * i_c);
            (oi, ii, ky, kx, v)
        })
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0).count()
    }

    /// The 2-D slice of kernel `o` for input channel `i`, as a `kh*kw` slice.
    ///
    /// # Panics
    /// Panics if `o` or `i` is out of bounds.
    pub fn kernel_slice(&self, o: usize, i: usize) -> &[i32] {
        assert!(
            o < self.o && i < self.i,
            "kernel slice ({o},{i}) out of bounds"
        );
        let plane = self.kh * self.kw;
        let base = (o * self.i + i) * plane;
        &self.data[base..base + plane]
    }
}

/// A 3-D `i64` accumulator tensor used for convolution outputs, laid out like
/// [`Tensor3`]: `(channels, height, width)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccTensor3 {
    c: usize,
    h: usize,
    w: usize,
    data: Vec<i64>,
}

impl AccTensor3 {
    /// Creates a zero-filled accumulator tensor of shape `(c, h, w)`.
    ///
    /// # Errors
    /// Returns [`QnnError::EmptyDimension`] if any extent is zero.
    pub fn zeros(c: usize, h: usize, w: usize) -> Result<Self, QnnError> {
        Tensor3::check_dims(c, h, w)?;
        Ok(Self {
            c,
            h,
            w,
            data: vec![0; c * h * w],
        })
    }

    /// Shape as `(channels, height, width)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.c, self.h, self.w)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (never true for a constructed tensor).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn index(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.c && y < self.h && x < self.w);
        (c * self.h + y) * self.w + x
    }

    /// Returns the accumulated value at `(c, y, x)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> i64 {
        self.data[self.index(c, y, x)]
    }

    /// Sets the value at `(c, y, x)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: i64) {
        let i = self.index(c, y, x);
        self.data[i] = v;
    }

    /// Adds `v` into the accumulator at `(c, y, x)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn add(&mut self, c: usize, y: usize, x: usize, v: i64) {
        let i = self.index(c, y, x);
        self.data[i] += v;
    }

    /// Flat view of the underlying buffer.
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }

    /// Mutable flat view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [i64] {
        &mut self.data
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0).count()
    }

    /// Applies ReLU followed by saturation into `bits`-wide unsigned range
    /// and a right shift (requantization), producing an activation tensor
    /// for the next layer.
    ///
    /// This is the functional model of Ristretto's post-processing unit.
    ///
    /// The shift divides by `2^shift` rounding **toward zero**, matching
    /// `pool2d`'s Average divisor semantics (Rust integer division). A plain
    /// arithmetic right shift would instead round negative accumulators
    /// toward −∞; the distinction is masked by the subsequent ReLU here, but
    /// the convention is pinned so every consumer of the shift helper agrees.
    pub fn requantize_relu(&self, shift: u32, bits: u8) -> Tensor3 {
        let max = (1i64 << bits.min(32)) - 1;
        let data = self
            .data
            .iter()
            .map(|&v| {
                let v = shift_toward_zero(v, shift).max(0).min(max);
                v as i32
            })
            .collect();
        Tensor3 {
            c: self.c,
            h: self.h,
            w: self.w,
            data,
        }
    }
}

/// Divides `v` by `2^shift` rounding toward zero (truncating division, the
/// same convention as `pool2d` Average). An arithmetic right shift alone
/// rounds negative values toward −∞; this compensates by adding one when a
/// negative value had any dropped low bits. Shifts ≥ 64 saturate to 0 / −1
/// semantics-free: every magnitude shifts out, so the result is 0.
#[inline]
fn shift_toward_zero(v: i64, shift: u32) -> i64 {
    if shift == 0 {
        return v;
    }
    if shift >= 64 {
        return 0;
    }
    let q = v >> shift;
    if v < 0 && (v & (((1u64 << shift) - 1) as i64)) != 0 {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor3_roundtrip_and_indexing() {
        let t = Tensor3::from_fn(2, 3, 4, |c, y, x| (c * 100 + y * 10 + x) as i32).unwrap();
        assert_eq!(t.shape(), (2, 3, 4));
        assert_eq!(t.get(1, 2, 3), 123);
        assert_eq!(t.channel(1)[2 * 4 + 3], 123);
        let collected: Vec<_> = t.iter_indexed().collect();
        assert_eq!(collected.len(), 24);
        assert_eq!(collected[0], (0, 0, 0, 0));
        assert_eq!(collected[23], (1, 2, 3, 123));
    }

    #[test]
    fn tensor3_rejects_bad_shapes() {
        assert_eq!(
            Tensor3::zeros(0, 1, 1).unwrap_err(),
            QnnError::EmptyDimension("c")
        );
        assert_eq!(
            Tensor3::from_vec(1, 2, 2, vec![0; 3]).unwrap_err(),
            QnnError::ShapeMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn tensor3_padded_reads() {
        let t = Tensor3::from_vec(1, 2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(t.get_padded(0, -1, 0), 0);
        assert_eq!(t.get_padded(0, 0, 2), 0);
        assert_eq!(t.get_padded(0, 1, 1), 4);
    }

    #[test]
    fn tensor3_tile_clamps_at_boundary() {
        let t = Tensor3::from_fn(1, 3, 3, |_, y, x| (y * 3 + x) as i32 + 1).unwrap();
        let tile = t.tile(0, 2, 2, 2, 2);
        assert_eq!(tile, vec![9, 0, 0, 0]);
    }

    #[test]
    fn tensor4_roundtrip_and_slices() {
        let k = Tensor4::from_fn(2, 3, 2, 2, |o, i, ky, kx| {
            (o * 1000 + i * 100 + ky * 10 + kx) as i32
        })
        .unwrap();
        assert_eq!(k.get(1, 2, 1, 0), 1210);
        assert_eq!(k.kernel_slice(1, 2), &[1200, 1201, 1210, 1211]);
        assert_eq!(k.iter_indexed().count(), 24);
        let last = k.iter_indexed().last().unwrap();
        assert_eq!(last, (1, 2, 1, 1, 1211));
    }

    #[test]
    fn acc_tensor_requantize_relu_saturates() {
        let mut a = AccTensor3::zeros(1, 1, 4).unwrap();
        a.set(0, 0, 0, -5);
        a.set(0, 0, 1, 1024);
        a.set(0, 0, 2, 12);
        a.set(0, 0, 3, 3);
        let q = a.requantize_relu(2, 4);
        assert_eq!(q.as_slice(), &[0, 15, 3, 0]);
    }

    #[test]
    fn shift_toward_zero_matches_truncating_division() {
        // The pinned convention: v / 2^shift with Rust (truncating) division.
        for &v in &[-17i64, -16, -8, -7, -5, -1, 0, 1, 5, 7, 8, 16, 17] {
            for shift in 0..8u32 {
                assert_eq!(
                    shift_toward_zero(v, shift),
                    v / (1i64 << shift),
                    "v={v} shift={shift}"
                );
            }
        }
        // -5 >> 2 == -2 (toward -inf); the convention demands -1.
        assert_eq!(shift_toward_zero(-5, 2), -1);
        // Exact multiples are unaffected by the rounding compensation.
        assert_eq!(shift_toward_zero(-8, 2), -2);
    }

    #[test]
    fn shift_toward_zero_extreme_shifts() {
        assert_eq!(shift_toward_zero(i64::MIN, 63), -1);
        assert_eq!(shift_toward_zero(i64::MIN + 1, 63), 0);
        assert_eq!(shift_toward_zero(i64::MAX, 63), 0);
        assert_eq!(shift_toward_zero(-1, 1), 0);
        assert_eq!(shift_toward_zero(i64::MIN, 64), 0);
        assert_eq!(shift_toward_zero(42, u32::MAX), 0);
    }

    #[test]
    fn requantize_relu_negative_accumulators_clamp_to_zero() {
        // Negative accumulators must hit exactly 0 after the shift+ReLU; the
        // old toward−∞ shift produced the same output only because ReLU
        // masks it — this pins the composed behaviour regardless.
        let mut a = AccTensor3::zeros(1, 1, 3).unwrap();
        a.set(0, 0, 0, -1);
        a.set(0, 0, 1, -1024);
        a.set(0, 0, 2, 7);
        let q = a.requantize_relu(3, 8);
        assert_eq!(q.as_slice(), &[0, 0, 0]);
    }

    #[test]
    fn count_nonzero_matches_manual() {
        let t = Tensor3::from_vec(1, 2, 2, vec![0, 5, 0, -1]).unwrap();
        assert_eq!(t.count_nonzero(), 2);
        let k = Tensor4::from_vec(1, 1, 2, 2, vec![0, 0, 7, 0]).unwrap();
        assert_eq!(k.count_nonzero(), 1);
    }
}
