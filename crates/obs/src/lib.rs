//! # obs — runtime metrics and span tracing for the Pilot reproduction
//!
//! The paper's contribution is *post-hoc* observability: CLOG2 traces
//! rendered in Jumpshot after the run. This crate adds the *runtime*
//! counterpart — live counters, gauges, and histograms plus a scoped-span
//! tracer — so the reproduction itself is no longer a black box. It also
//! serves as a correctness oracle: runtime counters (sends performed by
//! `minimpi`) can be cross-checked against what the converted SLOG2 log
//! claims happened (arrows rendered), see `pilot_vis::analysis`.
//!
//! Design constraints:
//!
//! * **Lock-cheap hot path.** Metric handles are `Arc`-wrapped atomics;
//!   incrementing a pre-registered counter is a single relaxed
//!   `fetch_add`. Name lookup takes a short mutex, so callers register
//!   handles once (per rank / per conversion) and reuse them.
//! * **Per-rank sharding.** Each rank (or pipeline worker) writes to its
//!   own [`Shard`]; [`Registry::snapshot`] merges shards into one
//!   [`Snapshot`]. Merge is associative and commutative (counters and
//!   histogram buckets add, gauge values add, high-water marks max), a
//!   property the property tests pin down.
//! * **No globals.** An [`Obs`] instance is threaded explicitly through
//!   `WorldBuilder::observe`, `PilotConfig::with_observability`, and
//!   `Converter::observability`, so parallel `cargo test` runs never share
//!   state.
//! * **Bounded sinks.** The span tracer writes into one fixed-capacity
//!   ring per worker ([`ring::RingBuffer`], oldest-drop on overflow),
//!   and the request-level [`request::FlightRecorder`] keeps only the
//!   N slowest + N most recent completed request traces — a
//!   long-running server can never grow observability state without
//!   bound.
//! * **No serde.** The Chrome trace-event JSON (`out/trace.json`, loads
//!   in `chrome://tracing` / Perfetto), the JSON exposition
//!   (`out/METRICS.json`), and the Prometheus-style text are emitted by
//!   hand and round-trip through the workspace's own
//!   `pilot_vis::json::Json` parser.

pub mod registry;
pub mod request;
pub mod ring;
pub mod trace;

pub use registry::{
    Counter, Gauge, GaugeSnap, HistSnap, Histogram, Registry, Shard, ShardHandle, Snapshot,
    HIST_BUCKETS,
};
pub use request::{next_trace_id, FlightRecorder, Phase, PhaseSpan, RequestTrace, FLIGHT_CAPACITY};
pub use ring::RingBuffer;
pub use trace::{SpanGuard, TraceEvent, Tracer, SPAN_RING_CAPACITY};

use std::sync::Arc;

/// The metrics registry and the span tracer, bundled so one handle can
/// be threaded through the whole stack.
#[derive(Debug, Default)]
pub struct Obs {
    /// Sharded metrics registry.
    pub registry: Registry,
    /// Scoped-span tracer emitting Chrome trace-event JSON.
    pub tracer: Tracer,
}

/// Shared handle to an [`Obs`] instance; cheap to clone.
pub type ObsHandle = Arc<Obs>;

impl Obs {
    /// Fresh, empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh instance behind an [`Arc`], ready to thread through the
    /// stack.
    pub fn handle() -> ObsHandle {
        Arc::new(Self::new())
    }

    /// Get (or create) the metric shard for rank / worker `idx`.
    pub fn shard(&self, idx: usize) -> ShardHandle {
        self.registry.shard(idx)
    }

    /// Merged snapshot of every shard.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Open a scoped span; the span is recorded when the guard drops.
    pub fn span(&self, name: impl Into<String>, cat: &str, tid: u32) -> SpanGuard<'_> {
        self.tracer.span(name, cat, tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bundles_registry_and_tracer() {
        let obs = Obs::handle();
        obs.shard(0).counter("x").inc();
        {
            let _s = obs.span("work", "test", 0);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counter("x"), 1);
        assert_eq!(obs.tracer.len(), 1);
    }
}
