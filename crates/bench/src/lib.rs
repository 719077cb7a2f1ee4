//! # tecore-bench
//!
//! Benchmark harness for the TeCoRe reproduction. Every bench under
//! `benches/` has a committed `BENCH_<name>.json` baseline that CI's
//! regression gate compares against: two reproduce a paper figure
//! (`running_example`, `map_footballdb`), the rest time one layer, and
//! three of those carry the `--ratio` rules. The `experiments` binary
//! prints the paper's experiments E1–E6. Shared workload construction
//! lives in [`harness`].

#![forbid(unsafe_code)]

pub mod harness;
