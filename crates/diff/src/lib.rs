//! # diff — "did my fix work?"
//!
//! The paper's payoff loop ends with a student fixing instance A or B
//! and *seeing* the difference — which today means eyeballing two
//! SVGs. This crate closes that loop mechanically: it aligns two
//! loaded `.pslog2` traces, computes per-timeline and per-phase
//! deltas, reruns the `analysis` verdict engine on both sides, and
//! pronounces each detected issue `Fixed`, `Regressed`, or
//! `Unchanged` with the recoverable seconds actually recovered.
//!
//! * [`align`](mod@align) — per-timeline pairing by name then
//!   position, with an LCS similarity score over category sequences;
//!   tolerant of rank-count mismatches and salvaged/`ABORTED` tails.
//! * [`delta`] — per-timeline state-duration, busy/blocked, and
//!   message-count deltas plus trace-level makespan/drawable counts.
//! * [`issue`] — verdict-level diffing ([`DeltaVerdict`]) and
//!   per-phase overlap/busy/blocked measurements.
//! * [`report`] — [`TraceDiff`]: the assembled comparison and its
//!   deterministic `DIFF.json` serialization.
//! * [`render`] — the two-lane side-by-side render: both traces
//!   stacked into one canvas (rows prefixed `A:` / `B:`) through the
//!   existing `jumpshot::Renderer` backends, with delta annotations.
//! * [`bench`](mod@bench) — the same delta/verdict shape applied to
//!   `BENCH_*.json` reports, so CI can fail on perf regressions
//!   (`repro bench-diff`).
//!
//! Everything is deterministic: same input pair, byte-identical
//! output — the contract the `diff-smoke` CI job asserts.

pub mod align;
pub mod bench;
pub mod delta;
pub mod issue;
pub mod render;
pub mod report;

pub use align::{align, AlignedPair, Alignment};
pub use bench::{diff_bench, BenchDiff, Cores, Direction, MetricDiff};
pub use delta::{trace_delta, CategoryDelta, TimelineDelta, TraceDelta};
pub use issue::{diff_issues, measure_phases, DeltaVerdict, IssueDiff, PhaseDelta};
pub use render::{render_side_by_side, stacked};
pub use report::{diff_traces, TraceDiff};
