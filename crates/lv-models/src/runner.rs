//! Network execution on the simulated machine: convolutions through the
//! selected algorithm per layer, plus vectorized implementations of every
//! auxiliary Darknet layer (bias/activation, maxpool, shortcut, route,
//! upsample, avgpool, fully-connected, softmax).

use lv_conv::{prepare_weights, run_conv, Algo};
use lv_sim::{Machine, Stats, VReg};
use lv_tensor::{pseudo_buf, pseudo_weights, AlignedVec, ConvShape};

use crate::model::{Activation, LayerKind, Model};

const V0: VReg = VReg(0);
const V1: VReg = VReg(1);

/// The algorithm the runner actually uses for a conv layer: the requested
/// one, or the paper's `Winograd*` fallback (optimized im2col+GEMM) when
/// Winograd does not apply to the layer.
pub fn effective_algo(requested: Algo, s: &ConvShape) -> Algo {
    if requested == Algo::Winograd && !s.winograd_applicable() {
        Algo::Gemm6
    } else {
        requested
    }
}

/// Deterministic weights for a model.
pub struct NetWeights {
    /// `(OIHW weights, bias)` per conv layer (by conv ordinal).
    pub conv: Vec<(AlignedVec, AlignedVec)>,
    /// `(inputs x outputs weights, bias)` per fully-connected layer.
    pub fc: Vec<(AlignedVec, AlignedVec)>,
}

/// Generate reproducible weights for every parametric layer of `model`.
pub fn generate_weights(model: &Model) -> NetWeights {
    let mut conv = Vec::new();
    let mut fc = Vec::new();
    for (i, l) in model.layers.iter().enumerate() {
        let seed = (i as u64 + 1) * 1000;
        match &l.kind {
            LayerKind::Conv { shape, .. } => {
                let fan_in = shape.ic * shape.kh * shape.kw;
                let w = pseudo_weights(shape.weight_len(), fan_in, seed);
                let mut b = pseudo_buf(shape.oc, seed + 1);
                for x in b.iter_mut() {
                    *x *= 0.1;
                }
                conv.push((w, b));
            }
            LayerKind::FullyConnected { inputs, outputs, .. } => {
                let w = pseudo_weights(inputs * outputs, *inputs, seed);
                let mut b = pseudo_buf(*outputs, seed + 1);
                for x in b.iter_mut() {
                    *x *= 0.1;
                }
                fc.push((w, b));
            }
            _ => {}
        }
    }
    NetWeights { conv, fc }
}

/// Per-layer result of a network run.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer index in the model.
    pub index: usize,
    /// Short kind name ("conv", "maxpool", ...).
    pub kind: String,
    /// Algorithm used (conv layers only; after Winograd* fallback).
    pub algo: Option<Algo>,
    /// Cycles attributed to the layer.
    pub cycles: u64,
    /// Full counter delta for the layer.
    pub stats: Stats,
}

/// Result of a full network inference.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Model name.
    pub model: String,
    /// Per-layer breakdown.
    pub layers: Vec<LayerReport>,
    /// Total cycles.
    pub total_cycles: u64,
    /// Cycles spent in convolutional layers.
    pub conv_cycles: u64,
}

impl NetworkReport {
    /// Fraction of total time spent in conv layers (the paper profiles
    /// ~96% for YOLOv3 and ~64% for VGG-16 including its FC layers).
    pub fn conv_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.conv_cycles as f64 / self.total_cycles as f64
        }
    }
}

/// The deterministic input image every network run starts from.
pub fn network_input(model: &Model) -> AlignedVec {
    pseudo_buf(model.in_c * model.in_h * model.in_w, 7)
}

/// Run a full inference. `assign` gives the requested algorithm per conv
/// layer (by conv ordinal); Winograd falls back per layer as in the paper.
/// Returns the per-layer report; activations are deterministic.
pub fn run_network(
    m: &mut Machine,
    model: &Model,
    assign: &[Algo],
    weights: &NetWeights,
) -> NetworkReport {
    run_network_captured(m, model, assign, weights).0
}

/// [`run_network`], additionally returning every layer's activation
/// tensor (by layer index). The conformance tests use this to compare
/// each layer against the f64 oracle applied to the *captured* previous
/// activation, so a divergence is pinned to the first offending layer
/// instead of compounding through the network.
pub fn run_network_captured(
    m: &mut Machine,
    model: &Model,
    assign: &[Algo],
    weights: &NetWeights,
) -> (NetworkReport, Vec<AlignedVec>) {
    assert_eq!(assign.len(), model.conv_count(), "one algorithm per conv layer required");
    let trace = m.trace_enabled();
    if trace {
        m.region_begin(&format!("network:{}", model.name));
    }
    let mut outputs: Vec<AlignedVec> = Vec::with_capacity(model.layers.len());
    let input = network_input(model);
    let mut reports = Vec::with_capacity(model.layers.len());
    let mut conv_i = 0usize;
    let mut fc_i = 0usize;
    for (idx, layer) in model.layers.iter().enumerate() {
        if trace {
            m.region_begin(&format!("L{idx}:{}", kind_name(&layer.kind)));
        }
        let before = m.stats();
        let prev: &[f32] = if idx == 0 { &input } else { &outputs[idx - 1] };
        let mut out = AlignedVec::zeroed(layer.out_len());
        let mut used_algo = None;
        match &layer.kind {
            LayerKind::Conv { shape, activation } => {
                let algo = effective_algo(assign[conv_i], shape);
                used_algo = Some(algo);
                let (w, b) = &weights.conv[conv_i];
                let prepared = prepare_weights(algo, shape, w);
                run_conv(m, algo, shape, prev, &prepared, &mut out);
                bias_activate(m, shape.oc, shape.oh() * shape.ow(), b, *activation, &mut out);
                conv_i += 1;
            }
            LayerKind::MaxPool { size, stride } => {
                let (c, h, w) = prev_dims(model, idx);
                maxpool(m, c, h, w, *size, *stride, prev, &mut out, layer.out_h, layer.out_w);
            }
            LayerKind::Shortcut { from } => {
                let src = &outputs[model.resolve(idx, *from)];
                shortcut(m, prev, src, &mut out);
            }
            LayerKind::Route { layers } => {
                let mut off = 0;
                for &f in layers {
                    let src = &outputs[model.resolve(idx, f)];
                    copy_block(m, src, &mut out[off..off + src.len()]);
                    off += src.len();
                }
            }
            LayerKind::Upsample { stride } => {
                let (c, h, w) = prev_dims(model, idx);
                upsample(m, c, h, w, *stride, prev, &mut out);
            }
            LayerKind::AvgPool => {
                let (c, h, w) = prev_dims(model, idx);
                avgpool(m, c, h, w, prev, &mut out);
            }
            LayerKind::FullyConnected { inputs, outputs: n_out, activation } => {
                let (w, b) = &weights.fc[fc_i];
                lv_conv::gemm3::gemm3_kernel(m, 1, *inputs, *n_out, prev, w, &mut out);
                bias_activate_flat(m, b, *activation, &mut out);
                fc_i += 1;
            }
            LayerKind::Softmax => softmax(m, prev, &mut out),
            LayerKind::Yolo => copy_block(m, prev, &mut out),
        }
        let delta = m.stats().delta_since(&before);
        if trace {
            use lv_trace::keys;
            let mut args: lv_trace::Args = vec![
                (keys::LAYER.to_string(), idx.into()),
                (keys::KIND.to_string(), kind_name(&layer.kind).into()),
            ];
            if let Some(algo) = used_algo {
                args.push((keys::ALGO.to_string(), algo.name().into()));
            }
            if let LayerKind::Conv { shape, .. } = &layer.kind {
                args.push(("ic".to_string(), shape.ic.into()));
                args.push(("oc".to_string(), shape.oc.into()));
                args.push(("hw".to_string(), shape.ih.into()));
                args.push(("k".to_string(), shape.kh.into()));
                args.push(("stride".to_string(), shape.stride.into()));
            }
            m.region_end_with(args);
        }
        reports.push(LayerReport {
            index: idx,
            kind: kind_name(&layer.kind).to_string(),
            algo: used_algo,
            cycles: delta.cycles,
            stats: delta,
        });
        outputs.push(out);
    }
    if trace {
        m.region_end();
    }
    let total_cycles = reports.iter().map(|r| r.cycles).sum();
    let conv_cycles = reports.iter().filter(|r| r.kind == "conv").map(|r| r.cycles).sum();
    (
        NetworkReport { model: model.name.clone(), layers: reports, total_cycles, conv_cycles },
        outputs,
    )
}

fn kind_name(k: &LayerKind) -> &'static str {
    match k {
        LayerKind::Conv { .. } => "conv",
        LayerKind::MaxPool { .. } => "maxpool",
        LayerKind::Shortcut { .. } => "shortcut",
        LayerKind::Route { .. } => "route",
        LayerKind::Upsample { .. } => "upsample",
        LayerKind::AvgPool => "avgpool",
        LayerKind::FullyConnected { .. } => "fc",
        LayerKind::Softmax => "softmax",
        LayerKind::Yolo => "yolo",
    }
}

fn prev_dims(model: &Model, idx: usize) -> (usize, usize, usize) {
    if idx == 0 {
        (model.in_c, model.in_h, model.in_w)
    } else {
        let l = &model.layers[idx - 1];
        (l.out_c, l.out_h, l.out_w)
    }
}

/// Per-channel bias + activation over NCHW planes, vectorized.
fn bias_activate(
    m: &mut Machine,
    c: usize,
    plane: usize,
    bias: &[f32],
    act: Activation,
    data: &mut [f32],
) {
    for ch in 0..c {
        let b = bias[ch];
        let base = ch * plane;
        let mut i = 0;
        while i < plane {
            let vl = m.vsetvl(plane - i);
            m.vle32(V0, &data[base + i..]);
            m.vfadd_vf(V0, b, V0);
            match act {
                Activation::Linear => {}
                Activation::Relu => m.vleaky(V0, 0.0),
                Activation::Leaky => m.vleaky(V0, 0.1),
            }
            m.vse32(V0, &mut data[base + i..]);
            i += vl;
        }
    }
}

/// Bias + activation for a flat FC output (per-element bias).
fn bias_activate_flat(m: &mut Machine, bias: &[f32], act: Activation, data: &mut [f32]) {
    let n = data.len();
    let mut i = 0;
    while i < n {
        let vl = m.vsetvl(n - i);
        m.vle32(V0, &data[i..]);
        m.vle32(V1, &bias[i..]);
        m.vfadd_vv(V0, V0, V1);
        match act {
            Activation::Linear => {}
            Activation::Relu => m.vleaky(V0, 0.0),
            Activation::Leaky => m.vleaky(V0, 0.1),
        }
        m.vse32(V0, &mut data[i..]);
        i += vl;
    }
}

/// Vectorized max-pooling (NCHW). The vector runs across output columns;
/// edge windows that would read past the input are handled scalar with
/// index clamping, as Darknet does.
#[allow(clippy::too_many_arguments)]
fn maxpool(
    m: &mut Machine,
    c: usize,
    h: usize,
    w: usize,
    size: usize,
    stride: usize,
    src: &[f32],
    dst: &mut [f32],
    oh: usize,
    ow: usize,
) {
    // Columns whose full window stays in bounds.
    let safe_ow = if w >= size { (w - size) / stride + 1 } else { 0 };
    for ch in 0..c {
        for oy in 0..oh {
            let mut ox = 0;
            while ox < safe_ow {
                let vl = m.vsetvl(safe_ow - ox);
                m.vfmv_v_f(V0, f32::NEG_INFINITY);
                for dy in 0..size {
                    let iy = (oy * stride + dy).min(h - 1);
                    for dx in 0..size {
                        let base = (ch * h + iy) * w + ox * stride + dx;
                        if stride == 1 {
                            m.vle32(V1, &src[base..]);
                        } else {
                            m.vlse32(V1, &src[base..], stride);
                        }
                        m.vfmax_vv(V0, V0, V1);
                    }
                }
                m.vse32(V0, &mut dst[(ch * oh + oy) * ow + ox..]);
                ox += vl;
            }
            // Clamped scalar tail (windows crossing the right edge).
            for ox in safe_ow..ow {
                let mut best = f32::NEG_INFINITY;
                for dy in 0..size {
                    let iy = (oy * stride + dy).min(h - 1);
                    for dx in 0..size {
                        let ix = (ox * stride + dx).min(w - 1);
                        best = best.max(m.scalar_load(src, (ch * h + iy) * w + ix));
                    }
                }
                m.scalar_store(dst, (ch * oh + oy) * ow + ox, best);
            }
        }
    }
}

/// Residual add.
fn shortcut(m: &mut Machine, a: &[f32], b: &[f32], dst: &mut [f32]) {
    let n = dst.len();
    let mut i = 0;
    while i < n {
        let vl = m.vsetvl(n - i);
        m.vle32(V0, &a[i..]);
        m.vle32(V1, &b[i..]);
        m.vfadd_vv(V0, V0, V1);
        m.vse32(V0, &mut dst[i..]);
        i += vl;
    }
}

/// Vectorized block copy (route / yolo passthrough).
fn copy_block(m: &mut Machine, src: &[f32], dst: &mut [f32]) {
    let n = dst.len();
    let mut i = 0;
    while i < n {
        let vl = m.vsetvl(n - i);
        m.vle32(V0, &src[i..]);
        m.vse32(V0, &mut dst[i..]);
        i += vl;
    }
}

/// Nearest-neighbour upsample: each input element repeated `stride` times
/// horizontally (register gather), rows duplicated vertically (copies).
fn upsample(
    m: &mut Machine,
    c: usize,
    h: usize,
    w: usize,
    stride: usize,
    src: &[f32],
    dst: &mut [f32],
) {
    let (nh, nw) = (h * stride, w * stride);
    for ch in 0..c {
        for y in 0..h {
            let srow = (ch * h + y) * w;
            let drow = (ch * nh + y * stride) * nw;
            let mut x = 0;
            while x < w {
                let n_in = ((w - x) * stride).min(m.mvl()) / stride;
                let n_in = n_in.max(1);
                let _ = m.vsetvl(n_in * stride);
                m.vgather_repeat(V0, &src[srow + x..], 1, stride);
                m.vse32(V0, &mut dst[drow + x * stride..]);
                x += n_in;
            }
            // Duplicate the expanded row stride-1 more times.
            let (head, tail) = dst.split_at_mut(drow + nw);
            let row = &head[drow..];
            for r in 1..stride {
                let off = r * nw - nw; // offset of copy r within `tail`
                copy_block_from(m, row, &mut tail[off..off + nw]);
            }
            let _ = tail;
        }
    }
}

fn copy_block_from(m: &mut Machine, src: &[f32], dst: &mut [f32]) {
    let n = dst.len();
    let mut i = 0;
    while i < n {
        let vl = m.vsetvl(n - i);
        m.vle32(V0, &src[i..]);
        m.vse32(V0, &mut dst[i..]);
        i += vl;
    }
}

/// Global average pooling.
fn avgpool(m: &mut Machine, c: usize, h: usize, w: usize, src: &[f32], dst: &mut [f32]) {
    let plane = h * w;
    for ch in 0..c {
        let base = ch * plane;
        let mvl = m.mvl();
        let _ = m.vsetvl(mvl.min(plane));
        m.vfmv_v_f(V0, 0.0);
        let mut i = 0;
        let mut total = 0.0f32;
        while i + mvl <= plane {
            m.vle32(V1, &src[base + i..]);
            m.vfadd_vv(V0, V0, V1);
            i += mvl;
        }
        total += m.vredsum(V0);
        while i < plane {
            total += m.scalar_load(src, base + i);
            i += 1;
        }
        m.scalar_store(dst, ch, total / plane as f32);
    }
}

/// Scalar softmax (output layers are tiny; Darknet's is scalar too).
fn softmax(m: &mut Machine, src: &[f32], dst: &mut [f32]) {
    let n = dst.len();
    let mut mx = f32::NEG_INFINITY;
    for i in 0..n {
        mx = mx.max(m.scalar_load(src, i));
    }
    let mut sum = 0.0f32;
    for i in 0..n {
        let e = (src[i] - mx).exp();
        sum += e;
        m.scalar_ops(4); // exp approximation cost
        m.scalar_store(dst, i, e);
    }
    for i in 0..n {
        let v = dst[i] / sum;
        m.scalar_store(dst, i, v);
        m.scalar_ops(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use lv_sim::MachineConfig;

    fn tiny_model() -> Model {
        use crate::model::ModelBuilder;
        ModelBuilder::new("tiny-test", 3, 24, 24)
            .conv(8, 3, 1, Activation::Leaky)
            .maxpool(2, 2)
            .conv(16, 3, 1, Activation::Leaky)
            .conv(8, 1, 1, Activation::Leaky)
            .conv(16, 3, 1, Activation::Leaky)
            .shortcut(-3)
            .route(&[-1, -4])
            .upsample(2)
            .avgpool()
            .fc(10, Activation::Linear)
            .softmax()
            .build()
    }

    #[test]
    fn full_network_runs_and_reports() {
        let model = tiny_model();
        let weights = generate_weights(&model);
        let assign = vec![Algo::Gemm3; model.conv_count()];
        let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1));
        let rep = run_network(&mut m, &model, &assign, &weights);
        assert_eq!(rep.layers.len(), model.layers.len());
        assert_eq!(rep.total_cycles, m.cycles());
        assert!(rep.conv_cycles > 0 && rep.conv_cycles <= rep.total_cycles);
        assert!(rep.conv_fraction() > 0.3, "conv should dominate: {}", rep.conv_fraction());
    }

    #[test]
    fn traced_run_matches_untraced_and_spans_reconcile() {
        use lv_sim::{Tracer, TrackId};
        use lv_trace::{keys, ArgValue};

        let model = tiny_model();
        let weights = generate_weights(&model);
        let assign = vec![Algo::Gemm3; model.conv_count()];

        let mut plain = Machine::new(MachineConfig::rvv_integrated(512, 1));
        let plain_rep = run_network(&mut plain, &model, &assign, &weights);

        let tracer = Tracer::enabled();
        let mut traced = Machine::new(MachineConfig::rvv_integrated(512, 1));
        traced.set_tracer(tracer.clone(), TrackId::new(1, 0));
        let traced_rep = run_network(&mut traced, &model, &assign, &weights);

        // Tracing is invisible to the counted work. (Cycle counts are
        // compared field-wise on the address-independent counters: the
        // cache model keys on host heap addresses, so any allocation —
        // including the tracer's own — can legally shift hit/miss timing
        // between two in-process runs.)
        let (p, t) = (plain.stats(), traced.stats());
        assert_eq!(p.flops, t.flops);
        assert_eq!(p.vector_instrs, t.vector_instrs);
        assert_eq!(p.vector_elems, t.vector_elems);
        assert_eq!(p.vsetvls, t.vsetvls);
        assert_eq!(p.scalar_ops, t.scalar_ops);
        assert_eq!(plain_rep.layers.len(), traced_rep.layers.len());

        let spans = tracer.snapshot_spans();
        let network = spans.iter().find(|s| s.name.starts_with("network:")).expect("network span");
        let layer_spans: Vec<_> = spans.iter().filter(|s| s.depth == 1).collect();
        assert_eq!(layer_spans.len(), model.layers.len());
        // Layer durations sum exactly to the network span (nothing charges
        // cycles between layers) and match the report's per-layer cycles.
        let sum: f64 = layer_spans.iter().map(|s| s.dur_us()).sum();
        assert_eq!(sum, network.dur_us());
        assert_eq!(network.dur_us(), traced_rep.total_cycles as f64);
        for (span, rep) in layer_spans.iter().zip(&traced_rep.layers) {
            assert_eq!(span.dur_us(), rep.cycles as f64, "layer {} span/report", rep.index);
            let layer_idx =
                span.arg(keys::LAYER).and_then(ArgValue::as_f64).expect("layer arg") as usize;
            assert_eq!(layer_idx, rep.index);
            assert_eq!(span.arg(keys::KIND).and_then(ArgValue::as_str), Some(rep.kind.as_str()));
        }
        // Conv layers carry kernel sub-spans named after the algorithm.
        assert!(spans.iter().any(|s| s.depth == 2 && s.name == Algo::Gemm3.name()));
    }

    #[test]
    fn winograd_falls_back_on_non_3x3() {
        let model = tiny_model();
        let weights = generate_weights(&model);
        let assign = vec![Algo::Winograd; model.conv_count()];
        let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1));
        let rep = run_network(&mut m, &model, &assign, &weights);
        let conv_algos: Vec<_> = rep.layers.iter().filter_map(|l| l.algo).collect();
        // Layer 3 (ordinal 2) is 1x1 -> falls back to Gemm6.
        assert_eq!(conv_algos[0], Algo::Winograd);
        assert_eq!(conv_algos[2], Algo::Gemm6);
    }

    #[test]
    fn different_algorithms_same_network_output_shape() {
        // All algorithms should produce numerically close final outputs.
        let model = tiny_model();
        let weights = generate_weights(&model);
        let run_with = |algo: Algo| {
            let assign = vec![algo; model.conv_count()];
            let mut m = Machine::new(MachineConfig::rvv_integrated(1024, 1));
            run_network(&mut m, &model, &assign, &weights).total_cycles
        };
        // Smoke: all run to completion with nonzero cycles.
        for a in [Algo::Direct, Algo::Gemm3, Algo::Gemm6, Algo::Winograd] {
            assert!(run_with(a) > 0);
        }
    }

    #[test]
    fn yolov3_first20_structure_runs() {
        // Scaled-down clone of the 20-layer slice to keep the test fast.
        let full = zoo::yolov3_first20();
        let mut small = full.clone();
        small.in_h = 76;
        small.in_w = 76;
        // Rebuild with scaled spatial dims.
        use crate::model::ModelBuilder;
        let mut b = ModelBuilder::new("y20-small", 3, 76, 76).conv(32, 3, 1, Activation::Leaky);
        b = b.conv(64, 3, 2, Activation::Leaky);
        b = b.conv(32, 1, 1, Activation::Leaky).conv(64, 3, 1, Activation::Leaky).shortcut(-3);
        b = b.conv(128, 3, 2, Activation::Leaky);
        for _ in 0..2 {
            b = b.conv(64, 1, 1, Activation::Leaky).conv(128, 3, 1, Activation::Leaky).shortcut(-3);
        }
        b = b.conv(256, 3, 2, Activation::Leaky);
        b = b.conv(128, 1, 1, Activation::Leaky).conv(256, 3, 1, Activation::Leaky).shortcut(-3);
        b = b.conv(128, 1, 1, Activation::Leaky).conv(256, 3, 1, Activation::Leaky).shortcut(-3);
        b = b.conv(128, 1, 1, Activation::Leaky);
        let small = b.build();
        assert_eq!(small.layers.len(), full.layers.len());
        assert_eq!(small.conv_count(), full.conv_count());
        let weights = generate_weights(&small);
        let assign = vec![Algo::Winograd; small.conv_count()];
        let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1));
        let rep = run_network(&mut m, &small, &assign, &weights);
        // Conv layers dominate YOLOv3 runtime (paper: ~96%).
        assert!(rep.conv_fraction() > 0.8, "conv fraction {}", rep.conv_fraction());
    }
}
