//! Exact equivalence of timing-only and computing machines.
//!
//! `measure_layer` runs sweep cells on [`Machine::timing_only`], which
//! skips every f32 lane. This test shows the skipped work never reaches
//! [`Stats`]: for every algorithm × VPU style × vector length × L2 size
//! (plus the prefetching A64FX-like point) it runs each cell three times
//! — computing, timing-only, computing — and asserts whole-struct `Stats`
//! equality.
//!
//! The simulator uses host addresses as physical addresses, so two plain
//! in-process runs of one cell can differ in conflict misses. A bump
//! allocator over a 1 GiB-aligned arena removes that noise: run `k` of a
//! cell allocates from `base + k GiB`, so all three runs see the same
//! addresses modulo 2^30, which covers every cache set bit and line
//! offset. The computing-vs-computing pair is the control that proves it.
//!
//! The same arena makes every cell's `Stats` repeat exactly across
//! processes and build profiles, so they are also pinned whole against
//! `timing_only_exact.golden` beside this file: any change to `lv-sim`'s
//! hot paths that moves a single counter fails here. Regenerate that file
//! only together with a `TIMING_REV`/`KERNEL_REV` bump, by running
//! `LV_GOLDEN_DUMP=1 cargo test -p lv-models --test timing_only_exact`.
//!
//! Runs as a plain binary (`harness = false`), so nothing else allocates
//! while a run is in the arena.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use lv_conv::{prepare_weights, run_conv, Algo, ALL_ALGOS, KERNEL_REV};
use lv_sim::{Machine, MachineConfig, Stats, TIMING_REV};
use lv_tensor::{pseudo_buf, pseudo_weights, ConvShape};

const GIB: usize = 1 << 30;
/// Runs per cell, one arena slot each.
const SLOTS: usize = 3;
/// One line per cell (config, algo, shape, whole `Stats`), under a header
/// naming the revs the pins belong to.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/timing_only_exact.golden");

/// Bump allocator: while `CURSOR` is non-zero every allocation is carved
/// from the arena and never freed; otherwise it defers to `System`.
struct Arena;

static BASE: AtomicUsize = AtomicUsize::new(0);
static CURSOR: AtomicUsize = AtomicUsize::new(0);
static LIMIT: AtomicUsize = AtomicUsize::new(0);

fn in_arena(p: *mut u8) -> bool {
    let (base, p) = (BASE.load(Relaxed), p as usize);
    base != 0 && (base..base + SLOTS * GIB).contains(&p)
}

// SAFETY: arena blocks are disjoint (the cursor only moves forward within
// a run, and each run owns its own slot), suitably aligned, and inside
// the reservation; frees of arena blocks are no-ops and every other block
// goes back to `System`, which allocated it. The test is single-threaded.
unsafe impl GlobalAlloc for Arena {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let cur = CURSOR.load(Relaxed);
        if cur == 0 {
            // SAFETY: forwarded unchanged to the system allocator.
            return unsafe { System.alloc(l) };
        }
        let start = cur.next_multiple_of(l.align());
        let end = start + l.size();
        if end > LIMIT.load(Relaxed) {
            std::process::abort(); // a run outgrew its 1 GiB slot
        }
        CURSOR.store(end, Relaxed);
        start as *mut u8
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        if CURSOR.load(Relaxed) == 0 {
            // SAFETY: forwarded unchanged to the system allocator.
            return unsafe { System.alloc_zeroed(l) };
        }
        // SAFETY: `alloc` returns `l.size()` writable bytes (slots are
        // reused across cells, so they must be cleared).
        unsafe {
            let p = self.alloc(l);
            p.write_bytes(0, l.size());
            p
        }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        if !in_arena(p) {
            // SAFETY: `p` came from `System` with layout `l`.
            unsafe { System.dealloc(p, l) }
        }
    }
}

#[global_allocator]
static ALLOC: Arena = Arena;

/// Reserve `SLOTS` GiB of address space aligned to 1 GiB. Untouched pages
/// are never backed, so the resident cost is what the runs touch.
fn reserve_arena() {
    let layout = Layout::from_size_align((SLOTS + 1) * GIB, 4096).expect("valid layout");
    // SAFETY: non-zero size; the reservation lives for the whole process.
    let p = unsafe { System.alloc(layout) };
    assert!(!p.is_null(), "could not reserve the arena");
    BASE.store((p as usize).next_multiple_of(GIB), Relaxed);
}

/// Run `f` with every allocation bumped from slot `k`.
fn in_slot<T>(k: usize, f: impl FnOnce() -> T) -> T {
    let start = BASE.load(Relaxed) + k * GIB;
    LIMIT.store(start + GIB, Relaxed);
    CURSOR.store(start, Relaxed);
    let out = f();
    CURSOR.store(0, Relaxed);
    out
}

/// The `measure_layer` pipeline with the machine constructor as a
/// parameter: identical buffers, allocated in the same order.
fn run_cell(
    make: fn(MachineConfig) -> Machine,
    cfg: &MachineConfig,
    s: &ConvShape,
    algo: Algo,
) -> Stats {
    let input = pseudo_buf(s.input_len(), 101);
    let w = pseudo_weights(s.weight_len(), s.ic * s.kh * s.kw, 102);
    let prepared = prepare_weights(algo, s, &w);
    let mut out = vec![0.0f32; s.output_len()];
    let mut m = make(*cfg);
    run_conv(&mut m, algo, s, &input, &prepared, &mut out);
    m.stats()
}

fn configs() -> Vec<(String, MachineConfig)> {
    let mut v = Vec::new();
    for (style, make) in [
        ("int", MachineConfig::rvv_integrated as fn(usize, usize) -> MachineConfig),
        ("dec", MachineConfig::rvv_decoupled),
    ] {
        for vlen in [512, 4096, 16384] {
            for l2 in [1, 64] {
                v.push((format!("{style}{vlen}/{l2}M"), make(vlen, l2)));
            }
        }
    }
    v.push(("a64fx".to_string(), MachineConfig::a64fx_like()));
    v
}

fn main() {
    let shapes = [
        // Low-channel, wide rows: Direct's spatial micro-kernel.
        ConvShape::same_pad(3, 8, 20, 3, 1),
        // Channel-heavy: Direct's NHWC micro-kernel.
        ConvShape::same_pad(16, 32, 6, 3, 1),
        // 1x1 and strided: Winograd does not apply.
        ConvShape::same_pad(16, 24, 8, 1, 1),
        ConvShape::same_pad(8, 16, 10, 3, 2),
    ];
    let configs = configs();
    // Warm every kernel once outside the arena, so lazily built statics
    // never live in (and get overwritten by) a reused slot.
    for s in &shapes {
        for algo in ALL_ALGOS.into_iter().filter(|a| a.applicable(s)) {
            run_cell(Machine::new, &configs[0].1, s, algo);
        }
    }
    reserve_arena();

    let mut cells = 0usize;
    let mut failures = Vec::new();
    let mut pins = format!(
        "# Whole-`Stats` pins of timing_only_exact.rs: config algo shape Stats.\n\
         # Regenerate only with a TIMING_REV/KERNEL_REV bump (see the test's doc).\n\
         TIMING_REV={TIMING_REV} KERNEL_REV={KERNEL_REV}\n"
    );
    for s in &shapes {
        for algo in ALL_ALGOS.into_iter().filter(|a| a.applicable(s)) {
            for (name, cfg) in &configs {
                let compute = in_slot(0, || run_cell(Machine::new, cfg, s, algo));
                let timing = in_slot(1, || run_cell(Machine::timing_only, cfg, s, algo));
                let control = in_slot(2, || run_cell(Machine::new, cfg, s, algo));
                if compute != control {
                    failures.push(format!(
                        "control {s:?} {} {name}: {compute:?} vs {control:?}",
                        algo.name()
                    ));
                }
                if compute != timing {
                    failures.push(format!(
                        "timing-only {s:?} {} {name}: {compute:?} vs {timing:?}",
                        algo.name()
                    ));
                }
                pins.push_str(&format!("{name} {} {s:?} {compute:?}\n", algo.name()));
                cells += 1;
            }
        }
    }
    if std::env::var_os("LV_GOLDEN_DUMP").is_some() {
        std::fs::write(GOLDEN, &pins).expect("write the golden Stats list");
        println!("wrote {cells} pins to {GOLDEN}");
    } else {
        let golden = std::fs::read_to_string(GOLDEN).expect("read the golden Stats list");
        let (want, got): (Vec<&str>, Vec<&str>) =
            (golden.lines().collect(), pins.lines().collect());
        if want.len() != got.len() {
            failures.push(format!("golden: {} lines pinned, {} produced", want.len(), got.len()));
        }
        for (w, g) in want.iter().zip(&got).filter(|(w, g)| w != g) {
            failures.push(format!("golden:\n  pinned   {w}\n  produced {g}"));
        }
    }
    for f in &failures {
        eprintln!("{f}");
    }
    assert!(failures.is_empty(), "{} of {cells} cells differ", failures.len());
    println!(
        "timing-only exact: {cells}/{cells} cells identical (compute -> timing-only -> compute)"
    );
}
