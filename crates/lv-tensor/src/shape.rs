//! Convolutional layer geometry.

/// Geometry of one 2-D convolutional layer (batch size 1, as in the paper's
/// inference setting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Input channels.
    pub ic: usize,
    /// Input height.
    pub ih: usize,
    /// Input width.
    pub iw: usize,
    /// Output channels (number of filters).
    pub oc: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions, as in Darknet).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvShape {
    /// Construct with Darknet's "same" padding convention for odd kernels
    /// (`pad = k / 2`).
    pub fn same_pad(ic: usize, oc: usize, ihw: usize, k: usize, stride: usize) -> Self {
        Self { ic, ih: ihw, iw: ihw, oc, kh: k, kw: k, stride, pad: k / 2 }
    }

    /// Output height.
    pub fn oh(&self) -> usize {
        (self.ih + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn ow(&self) -> usize {
        (self.iw + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Elements in the input tensor.
    pub fn input_len(&self) -> usize {
        self.ic * self.ih * self.iw
    }

    /// Elements in the output tensor.
    pub fn output_len(&self) -> usize {
        self.oc * self.oh() * self.ow()
    }

    /// Elements in the weight tensor (OIHW).
    pub fn weight_len(&self) -> usize {
        self.oc * self.ic * self.kh * self.kw
    }

    /// Multiply-accumulate count of the direct convolution.
    pub fn macs(&self) -> u64 {
        (self.oc * self.oh() * self.ow()) as u64 * (self.ic * self.kh * self.kw) as u64
    }

    /// GEMM dimensions of the im2col formulation: `M = oc`,
    /// `K = ic*kh*kw`, `N = oh*ow`.
    pub fn gemm_mkn(&self) -> (usize, usize, usize) {
        (self.oc, self.ic * self.kh * self.kw, self.oh() * self.ow())
    }

    /// True when the Winograd F(6x6, 3x3) algorithm applies (3x3 kernel,
    /// stride 1 — the paper restricts Winograd to these layers for
    /// numerical-stability reasons).
    pub fn winograd_applicable(&self) -> bool {
        self.kh == 3 && self.kw == 3 && self.stride == 1
    }

    /// Scale the spatial dimensions by `s` (quick-run mode for the
    /// experiment harness); channels, kernel and stride are preserved and
    /// the result is clamped so the layer stays valid.
    pub fn scaled(&self, s: f64) -> Self {
        let f = |x: usize| ((x as f64 * s).round() as usize).max(self.kh.max(self.stride));
        Self { ih: f(self.ih), iw: f(self.iw), ..*self }
    }

    /// Arithmetic intensity of the im2col+GEMM formulation in FLOPs/byte
    /// (Paper I Table IV): `2MNK / 4(MN + KN + MK)`.
    pub fn arithmetic_intensity(&self) -> f64 {
        let (m, k, n) = self.gemm_mkn();
        let (m, k, n) = (m as f64, k as f64, n as f64);
        2.0 * m * n * k / (4.0 * (m * n + k * n + m * k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_pad_preserves_dims_at_stride_1() {
        let s = ConvShape::same_pad(3, 64, 224, 3, 1);
        assert_eq!(s.oh(), 224);
        assert_eq!(s.ow(), 224);
        assert_eq!(s.pad, 1);
    }

    #[test]
    fn stride_2_halves() {
        let s = ConvShape::same_pad(32, 64, 608, 3, 2);
        assert_eq!(s.oh(), 304);
        assert_eq!(s.ow(), 304);
    }

    #[test]
    fn one_by_one() {
        let s = ConvShape::same_pad(64, 32, 304, 1, 1);
        assert_eq!(s.pad, 0);
        assert_eq!(s.oh(), 304);
    }

    #[test]
    fn macs_match_gemm() {
        let s = ConvShape::same_pad(16, 32, 28, 3, 1);
        let (m, k, n) = s.gemm_mkn();
        assert_eq!(s.macs(), (m * k * n) as u64);
    }

    #[test]
    fn winograd_rules() {
        assert!(ConvShape::same_pad(8, 8, 32, 3, 1).winograd_applicable());
        assert!(!ConvShape::same_pad(8, 8, 32, 3, 2).winograd_applicable());
        assert!(!ConvShape::same_pad(8, 8, 32, 1, 1).winograd_applicable());
    }

    #[test]
    fn scaled_halves_spatial_only() {
        let s = ConvShape::same_pad(32, 64, 100, 3, 1).scaled(0.5);
        assert_eq!(s.ih, 50);
        assert_eq!(s.ic, 32);
        assert_eq!(s.kh, 3);
    }
}
