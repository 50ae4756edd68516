//! The FlipTracker campaign benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one seeded workload through the program's public entry points and
//! prints its metrics; see `README.md` for the workloads, the metrics and
//! the entry points the benchmark depends on.

pub mod json;
pub mod machine;
pub mod metrics;
pub mod plans;
pub mod replay;
pub mod setup;
pub mod spans;
pub mod stats;
pub mod workloads;
