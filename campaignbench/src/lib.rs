//! The repository benchmark: probe-campaign workloads measured end to
//! end with tracing off, plus a traced run that splits the same job into
//! its public calls for per-layer numbers. `BENCHMARK.json` gates two of
//! the three workloads (see [`workload::Workload`]).
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path campaignbench/Cargo.toml -- \
//!     --workload sparse-scale-240 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Standard output carries one JSON line per metric (and, traced, per
//! span), then the result object as its last line; standard error
//! carries a human-readable table.

pub mod bench;
pub mod campaign;
pub mod kernels;
pub mod metrics;
pub mod resources;
pub mod spans;
pub mod workload;
