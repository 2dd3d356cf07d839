//! # lvconv — co-design of convolutional algorithms and long-vector processors
//!
//! Facade crate for the full reproduction of *"Co-Design of Convolutional
//! Algorithms and Long Vector RISC-V Processors for Efficient CNN Model
//! Serving"* (ICPP '24). Re-exports the public API of every subsystem:
//!
//! * [`sim`] — the long-vector machine timing simulator (gem5 substitute),
//! * [`tensor`] — tensors, layouts, golden references,
//! * [`conv`] — the four vectorized convolution algorithms,
//! * [`models`] — YOLOv3 / VGG-16 and the network runner,
//! * [`forest`] — the random-forest algorithm selector,
//! * [`area`] — the 7 nm area model and Pareto utilities,
//! * [`serving`] — one co-located serving chip: cache partitioning,
//!   admission queue, batching, and the steppable serving node,
//! * [`fleet`] — the serving event loop: chips behind a router, with
//!   admission, autoscaling and fault injection (one chip is a one-node
//!   fleet),
//! * [`bench`] — the experiment harness behind every paper figure,
//! * [`check`] — the differential conformance harness (f64 oracles,
//!   derived tolerances, shape fuzzer) behind `repro check`.
//!
//! ```
//! use lvconv::conv::{prepare_weights, run_conv, Algo};
//! use lvconv::sim::{Machine, MachineConfig};
//! use lvconv::tensor::{pseudo_buf, ConvShape};
//!
//! // Simulate one convolutional layer on a 1024-bit-vector machine.
//! let s = ConvShape::same_pad(3, 8, 16, 3, 1);
//! let input = pseudo_buf(s.input_len(), 1);
//! let w = pseudo_buf(s.weight_len(), 2);
//! let prepared = prepare_weights(Algo::Direct, &s, &w);
//! let mut out = vec![0.0; s.output_len()];
//! let mut machine = Machine::new(MachineConfig::rvv_integrated(1024, 1));
//! run_conv(&mut machine, Algo::Direct, &s, &input, &prepared, &mut out);
//! assert!(machine.cycles() > 0);
//! ```

#![warn(missing_docs)]

pub use lv_area as area;
pub use lv_bench as bench;
pub use lv_check as check;
pub use lv_conv as conv;
pub use lv_fleet as fleet;
pub use lv_forest as forest;
pub use lv_models as models;
pub use lv_serving as serving;
pub use lv_sim as sim;
pub use lv_tensor as tensor;
