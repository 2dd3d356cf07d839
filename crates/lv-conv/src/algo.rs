//! Algorithm registry: the four convolution implementations the paper
//! compares, plus weight preparation and dispatch.

use lv_sim::Machine;
use lv_tensor::{AlignedVec, ConvShape};

use crate::direct::{self, DirectVariant};
use crate::gemm6::Gemm6Blocking;
use crate::winograd;
use crate::{gemm3, gemm6};

/// The convolutional algorithms compared in the paper (Paper II §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Manually vectorized direct convolution, NHWC layout.
    Direct,
    /// im2col lowering followed by the optimized 3-loop GEMM.
    Gemm3,
    /// im2col lowering followed by the BLIS-like 6-loop GEMM
    /// (packing, 16x512x128 blocking, software prefetch).
    Gemm6,
    /// Winograd F(6x6, 3x3) with inter-tile parallelism across channels.
    Winograd,
}

/// All algorithms, in the paper's plotting order.
pub const ALL_ALGOS: [Algo; 4] = [Algo::Direct, Algo::Gemm3, Algo::Gemm6, Algo::Winograd];

impl Algo {
    /// Short name used in CSV output and charts.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Direct => "direct",
            Algo::Gemm3 => "im2col+GEMM-3loops",
            Algo::Gemm6 => "im2col+GEMM-6loops",
            Algo::Winograd => "winograd",
        }
    }

    /// Parse a name produced by [`Algo::name`].
    pub fn from_name(s: &str) -> Option<Algo> {
        match s {
            "direct" => Some(Algo::Direct),
            "im2col+GEMM-3loops" => Some(Algo::Gemm3),
            "im2col+GEMM-6loops" => Some(Algo::Gemm6),
            "winograd" => Some(Algo::Winograd),
            _ => None,
        }
    }

    /// Whether the algorithm can implement the layer at all. Winograd is
    /// restricted to 3x3 stride-1 layers (numerical stability: larger tiles
    /// would be needed for other shapes, paper §1); the others are general.
    pub fn applicable(&self, s: &ConvShape) -> bool {
        match self {
            Algo::Winograd => s.winograd_applicable(),
            _ => true,
        }
    }

    /// Numeric id used as the classifier's label encoding.
    pub fn label(&self) -> usize {
        match self {
            Algo::Direct => 0,
            Algo::Gemm3 => 1,
            Algo::Gemm6 => 2,
            Algo::Winograd => 3,
        }
    }

    /// Inverse of [`Algo::label`].
    pub fn from_label(l: usize) -> Algo {
        ALL_ALGOS[l]
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Weights laid out for a specific algorithm.
///
/// Layout conversion happens once, offline (model load time), and is not
/// charged to the simulated inference — matching the paper, which performs
/// the Winograd weight transform offline and keeps Darknet's OIHW weights
/// for the GEMM kernels.
pub struct PreparedWeights {
    /// Algorithm the layout targets.
    pub algo: Algo,
    /// Layer geometry the weights belong to.
    pub shape: ConvShape,
    /// `Gemm3`/`Gemm6`: OIHW row-major (the GEMM `A` matrix, M x K).
    /// `Direct`: HWIO (`[kh][kw][ic][oc]`).
    /// `Winograd`: transformed tuples `[oc][ic][64]` (stored transposed,
    /// see `winograd.rs`).
    pub data: AlignedVec,
}

/// Convert OIHW weights into the layout `algo` wants.
pub fn prepare_weights(algo: Algo, s: &ConvShape, w_oihw: &[f32]) -> PreparedWeights {
    assert_eq!(w_oihw.len(), s.weight_len(), "weight length mismatch");
    let data = match algo {
        Algo::Gemm3 | Algo::Gemm6 => AlignedVec::from_slice(w_oihw),
        Algo::Direct => {
            let mut v = AlignedVec::zeroed(w_oihw.len());
            for oc in 0..s.oc {
                for ic in 0..s.ic {
                    for ky in 0..s.kh {
                        for kx in 0..s.kw {
                            v[((ky * s.kw + kx) * s.ic + ic) * s.oc + oc] =
                                w_oihw[((oc * s.ic + ic) * s.kh + ky) * s.kw + kx];
                        }
                    }
                }
            }
            v
        }
        Algo::Winograd => {
            assert!(algo.applicable(s), "Winograd prepared for a non-3x3/s1 layer");
            winograd::transform_weights(s, w_oihw)
        }
    };
    PreparedWeights { algo, shape: *s, data }
}

/// Run one convolutional layer with `algo` on the simulated machine.
///
/// `input` and `output` are NCHW; `weights` must have been prepared for the
/// same algorithm and shape. Cycles and statistics accumulate in `m`.
pub fn run_conv(
    m: &mut Machine,
    algo: Algo,
    s: &ConvShape,
    input: &[f32],
    weights: &PreparedWeights,
    output: &mut [f32],
) {
    assert_eq!(weights.algo, algo, "weights prepared for a different algorithm");
    assert_eq!(weights.shape, *s, "weights prepared for a different shape");
    assert_eq!(input.len(), s.input_len(), "input length mismatch");
    assert_eq!(output.len(), s.output_len(), "output length mismatch");
    m.region_begin(algo.name());
    match algo {
        Algo::Direct => direct::run(m, s, input, &weights.data, output, DirectVariant::Optimized),
        Algo::Gemm3 => gemm3::run(m, s, input, &weights.data, output),
        Algo::Gemm6 => gemm6::run(m, s, input, &weights.data, output, &Gemm6Blocking::paper()),
        Algo::Winograd => winograd::run(m, s, input, &weights.data, output),
    }
    m.region_end();
}

/// Run a batch of inferences through one layer, reusing the machine (and
/// therefore its caches) across images — the serving-side batching case.
/// Weights prepared once stay cache-resident between images, which shifts
/// the algorithm tradeoff: weight-streaming kernels (Direct on channel-
/// heavy layers) amortize, im2col's per-image lowering does not. Returns
/// per-image cycle counts.
pub fn run_conv_batch(
    m: &mut Machine,
    algo: Algo,
    s: &ConvShape,
    inputs: &[&[f32]],
    weights: &PreparedWeights,
    outputs: &mut [Vec<f32>],
) -> Vec<u64> {
    assert_eq!(inputs.len(), outputs.len());
    let mut per_image = Vec::with_capacity(inputs.len());
    for (input, out) in inputs.iter().zip(outputs.iter_mut()) {
        let before = m.cycles();
        run_conv(m, algo, s, input, weights, out);
        per_image.push(m.cycles() - before);
    }
    per_image
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_sim::{Machine, MachineConfig};
    use lv_tensor::pseudo_buf;

    #[test]
    fn batch_warm_images_not_slower_and_correct() {
        let s = ConvShape::same_pad(8, 24, 14, 3, 1);
        let w = pseudo_buf(s.weight_len(), 1);
        let prepared = prepare_weights(Algo::Direct, &s, &w);
        let in1 = pseudo_buf(s.input_len(), 2);
        let in2 = pseudo_buf(s.input_len(), 3);
        let mut outs = vec![vec![0.0f32; s.output_len()]; 2];
        let mut m = Machine::new(MachineConfig::rvv_integrated(512, 4));
        let inputs: Vec<&[f32]> = vec![&in1, &in2];
        let per = run_conv_batch(&mut m, Algo::Direct, &s, &inputs, &prepared, &mut outs);
        assert_eq!(per.len(), 2);
        // The second image runs with warm weights: never slower.
        assert!(per[1] <= per[0], "warm {} vs cold {}", per[1], per[0]);
        // And both outputs are correct.
        for (input, out) in inputs.iter().zip(&outs) {
            let want = lv_tensor::conv2d_reference(&s, input, &w);
            assert!(lv_tensor::max_rel_error(out, &want) < 1e-3);
        }
    }

    #[test]
    fn names_roundtrip() {
        for a in ALL_ALGOS {
            assert_eq!(Algo::from_name(a.name()), Some(a));
            assert_eq!(Algo::from_label(a.label()), a);
        }
    }

    #[test]
    fn winograd_applicability() {
        let ok = ConvShape::same_pad(8, 8, 24, 3, 1);
        let stride2 = ConvShape::same_pad(8, 8, 24, 3, 2);
        let one = ConvShape::same_pad(8, 8, 24, 1, 1);
        assert!(Algo::Winograd.applicable(&ok));
        assert!(!Algo::Winograd.applicable(&stride2));
        assert!(!Algo::Winograd.applicable(&one));
        assert!(Algo::Direct.applicable(&stride2));
        assert!(Algo::Gemm3.applicable(&one));
    }

    #[test]
    fn direct_weight_layout_is_hwio() {
        let s = ConvShape::same_pad(2, 3, 4, 3, 1);
        let w: Vec<f32> = (0..s.weight_len()).map(|i| i as f32).collect();
        let p = prepare_weights(Algo::Direct, &s, &w);
        // OIHW (oc=1, ic=0, ky=2, kx=1) should land at HWIO (2,1,0,1).
        let oihw = ((1 * s.ic + 0) * s.kh + 2) * s.kw + 1;
        let hwio = ((2 * s.kw + 1) * s.ic + 0) * s.oc + 1;
        assert_eq!(p.data[hwio], w[oihw]);
    }
}
