//! The measurement grid: the row type every figure aggregates, the Table-1
//! layer list, CSV serialization, and direct batch simulation helpers for
//! tests/benches. Figure generation itself goes through
//! [`crate::plan::SweepPlan`] and the [`crate::plan::Executor`]'s
//! content-addressed cell cache (`results/cache/cells.jsonl`), which
//! replaced the whole-grid CSV caches that used to live here.

use std::path::PathBuf;

use lv_conv::{Algo, ALL_ALGOS};
use lv_models::{measure_layer, zoo};
use lv_sim::{MachineConfig, VpuStyle};
use lv_tensor::ConvShape;
use rayon::prelude::*;

/// One measured grid point.
#[derive(Debug, Clone)]
pub struct GridRow {
    /// Model the layer comes from ("vgg16" / "yolov3-20").
    pub model: String,
    /// 1-based conv-layer ordinal within the model (paper numbering).
    pub layer: usize,
    /// Layer geometry.
    pub shape: ConvShape,
    /// VPU attachment ("int" = integrated, "dec" = decoupled).
    pub vpu: VpuStyle,
    /// Vector lanes.
    pub lanes: usize,
    /// Vector length in bits.
    pub vlen_bits: usize,
    /// L2 size in MiB.
    pub l2_mib: usize,
    /// Algorithm.
    pub algo: Algo,
    /// Simulated cycles.
    pub cycles: u64,
    /// Average consumed vector length (elements).
    pub avg_vl: f64,
    /// L2 miss rate.
    pub l2_miss_rate: f64,
}

/// The Paper II hardware grid: vector lengths 512-4096 bits x L2 1-64 MiB.
pub const P2_VLENS: [usize; 4] = [512, 1024, 2048, 4096];
/// Paper II L2 sweep (MiB).
pub const P2_L2S: [usize; 4] = [1, 4, 16, 64];
/// Paper I vector-length sweep (bits).
pub const P1_VLENS: [usize; 6] = [512, 1024, 2048, 4096, 8192, 16384];
/// Paper I L2 sweep (MiB).
pub const P1_L2S: [usize; 4] = [1, 16, 64, 256];

/// The layers of Table 1, tagged with model and 1-based ordinal, spatially
/// scaled by `scale` (1.0 = the paper's dimensions).
pub fn table1_layers(scale: f64) -> Vec<(String, usize, ConvShape)> {
    let mut out = Vec::new();
    for (name, model) in [("vgg16", zoo::vgg16()), ("yolov3-20", zoo::yolov3_first20())] {
        for (i, s) in model.conv_shapes().into_iter().enumerate() {
            let s = if (scale - 1.0).abs() < 1e-9 { s } else { s.scaled(scale) };
            out.push((name.to_string(), i + 1, s));
        }
    }
    out
}

/// A simulation request.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// Model name for the output row.
    pub model: String,
    /// 1-based layer ordinal.
    pub layer: usize,
    /// Geometry.
    pub shape: ConvShape,
    /// Machine design point.
    pub cfg: MachineConfig,
    /// Algorithm.
    pub algo: Algo,
}

/// Run a batch of simulation points (in parallel when cores allow),
/// skipping non-applicable (layer, algorithm) pairs.
pub fn run_points(points: Vec<SimPoint>, verbose: bool) -> Vec<GridRow> {
    let total = points.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    points
        .into_par_iter()
        .filter_map(|p| {
            let m = measure_layer(&p.cfg, &p.shape, p.algo)?;
            let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if verbose && n % 32 == 0 {
                eprintln!("  [{n}/{total}] grid points simulated");
            }
            Some(GridRow {
                model: p.model,
                layer: p.layer,
                shape: p.shape,
                vpu: p.cfg.vpu,
                lanes: p.cfg.lanes,
                vlen_bits: p.cfg.vlen_bits,
                l2_mib: p.cfg.l2.size_bytes / lv_sim::MIB,
                algo: p.algo,
                cycles: m.cycles,
                avg_vl: m.avg_vl,
                l2_miss_rate: m.l2_miss_rate,
            })
        })
        .collect()
}

/// Build the Paper II grid requests: all Table 1 layers x 16 hardware
/// configs x 4 algorithms on the integrated-VPU machine.
pub fn paper2_points(scale: f64) -> Vec<SimPoint> {
    let mut pts = Vec::new();
    for (model, layer, shape) in table1_layers(scale) {
        for &vlen in &P2_VLENS {
            for &l2 in &P2_L2S {
                for &algo in &ALL_ALGOS {
                    pts.push(SimPoint {
                        model: model.clone(),
                        layer,
                        shape,
                        cfg: MachineConfig::rvv_integrated(vlen, l2),
                        algo,
                    });
                }
            }
        }
    }
    pts
}

// ------------------------------------------------------------------ CSV

const HEADER: &str = "model,layer,ic,ih,iw,oc,kh,kw,stride,pad,vpu,lanes,vlen_bits,l2_mib,algo,cycles,avg_vl,l2_miss_rate";

/// Serialize rows to CSV.
pub fn to_csv(rows: &[GridRow]) -> String {
    let mut s = String::with_capacity(rows.len() * 96 + HEADER.len() + 1);
    s.push_str(HEADER);
    s.push('\n');
    for r in rows {
        let sh = &r.shape;
        let vpu = match r.vpu {
            VpuStyle::Integrated => "int",
            VpuStyle::Decoupled => "dec",
        };
        s.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.6}\n",
            r.model,
            r.layer,
            sh.ic,
            sh.ih,
            sh.iw,
            sh.oc,
            sh.kh,
            sh.kw,
            sh.stride,
            sh.pad,
            vpu,
            r.lanes,
            r.vlen_bits,
            r.l2_mib,
            r.algo.name(),
            r.cycles,
            r.avg_vl,
            r.l2_miss_rate
        ));
    }
    s
}

/// Parse rows from CSV (inverse of [`to_csv`]).
pub fn from_csv(text: &str) -> Result<Vec<GridRow>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty csv")?;
    if header != HEADER {
        return Err(format!("unexpected header: {header}"));
    }
    let mut rows = Vec::new();
    for (ln, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 18 {
            return Err(format!("line {}: {} fields", ln + 2, f.len()));
        }
        let e = |i: usize| format!("line {}: bad field {i}", ln + 2);
        let pu = |i: usize| f[i].parse::<usize>().map_err(|_| e(i));
        rows.push(GridRow {
            model: f[0].to_string(),
            layer: pu(1)?,
            shape: ConvShape {
                ic: pu(2)?,
                ih: pu(3)?,
                iw: pu(4)?,
                oc: pu(5)?,
                kh: pu(6)?,
                kw: pu(7)?,
                stride: pu(8)?,
                pad: pu(9)?,
            },
            vpu: match f[10] {
                "int" => VpuStyle::Integrated,
                "dec" => VpuStyle::Decoupled,
                other => return Err(format!("line {}: bad vpu {other}", ln + 2)),
            },
            lanes: pu(11)?,
            vlen_bits: pu(12)?,
            l2_mib: pu(13)?,
            algo: Algo::from_name(f[14]).ok_or_else(|| e(14))?,
            cycles: f[15].parse().map_err(|_| e(15))?,
            avg_vl: f[16].parse().map_err(|_| e(16))?,
            l2_miss_rate: f[17].parse().map_err(|_| e(17))?,
        });
    }
    Ok(rows)
}

/// Directory where cached results and generated figures live.
pub fn results_dir() -> PathBuf {
    std::env::var_os("LVCONV_RESULTS").map(PathBuf::from).unwrap_or_else(|| {
        // Walk up from CWD to find the workspace `results/` dir.
        let mut d = std::env::current_dir().expect("cwd");
        loop {
            if d.join("results").is_dir() || d.join("Cargo.toml").is_file() {
                return d.join("results");
            }
            if !d.pop() {
                return PathBuf::from("results");
            }
        }
    })
}

/// Look up one row.
pub fn find<'a>(
    rows: &'a [GridRow],
    model: &str,
    layer: usize,
    vlen: usize,
    l2: usize,
    algo: Algo,
) -> Option<&'a GridRow> {
    rows.iter().find(|r| {
        r.model == model
            && r.layer == layer
            && r.vlen_bits == vlen
            && r.l2_mib == l2
            && r.algo == algo
    })
}

/// Helper for figure code: cycles of the named selection policy for a
/// layer. `policy` is `Some(algo)` for a fixed algorithm (with Winograd
/// falling back to Gemm6 where inapplicable, the paper's `Winograd*`), or
/// `None` for the per-layer Optimal.
pub fn policy_cycles(
    rows: &[GridRow],
    model: &str,
    layer: usize,
    vlen: usize,
    l2: usize,
    policy: Option<Algo>,
) -> Option<u64> {
    match policy {
        Some(Algo::Winograd) => find(rows, model, layer, vlen, l2, Algo::Winograd)
            .or_else(|| find(rows, model, layer, vlen, l2, Algo::Gemm6))
            .map(|r| r.cycles),
        Some(a) => find(rows, model, layer, vlen, l2, a).map(|r| r.cycles),
        None => ALL_ALGOS
            .iter()
            .filter_map(|&a| find(rows, model, layer, vlen, l2, a).map(|r| r.cycles))
            .min(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_28_layers() {
        let t = table1_layers(1.0);
        assert_eq!(t.len(), 28);
        assert_eq!(t.iter().filter(|(m, _, _)| m == "vgg16").count(), 13);
        assert_eq!(t.iter().filter(|(m, _, _)| m == "yolov3-20").count(), 15);
    }

    #[test]
    fn paper2_grid_has_expected_points() {
        // 28 layers x 16 configs x 4 algos (non-applicable filtered later).
        assert_eq!(paper2_points(0.25).len(), 28 * 16 * 4);
    }

    #[test]
    fn csv_roundtrip() {
        let cfg = MachineConfig::rvv_integrated(512, 1);
        let pts = vec![SimPoint {
            model: "vgg16".into(),
            layer: 1,
            shape: ConvShape::same_pad(3, 8, 16, 3, 1),
            cfg,
            algo: Algo::Gemm3,
        }];
        let rows = run_points(pts, false);
        assert_eq!(rows.len(), 1);
        let text = to_csv(&rows);
        let back = from_csv(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].cycles, rows[0].cycles);
        assert_eq!(back[0].shape, rows[0].shape);
        assert_eq!(back[0].algo, rows[0].algo);
    }

    #[test]
    fn winograd_policy_falls_back() {
        // Build a tiny fake grid with only a Gemm6 row for a 1x1 layer.
        let r = GridRow {
            model: "m".into(),
            layer: 1,
            shape: ConvShape::same_pad(4, 4, 8, 1, 1),
            vpu: VpuStyle::Integrated,
            lanes: 8,
            vlen_bits: 512,
            l2_mib: 1,
            algo: Algo::Gemm6,
            cycles: 1234,
            avg_vl: 16.0,
            l2_miss_rate: 0.5,
        };
        let rows = vec![r];
        assert_eq!(policy_cycles(&rows, "m", 1, 512, 1, Some(Algo::Winograd)), Some(1234));
        assert_eq!(policy_cycles(&rows, "m", 1, 512, 1, None), Some(1234));
        assert_eq!(policy_cycles(&rows, "m", 1, 512, 1, Some(Algo::Direct)), None);
    }
}
