//! Timeline query service for SLOG-2 traces.
//!
//! The viewer crates (`jumpshot`, `pilot-vis`) render whole documents
//! from a file loaded in-process. This crate turns a loaded `.pslog2`
//! into a *service*: a per-rank interval index answers window queries
//! without rescanning the file, a sharded LRU cache memoises tile
//! responses along a viewer's zoom path, and `pilotd serve` exposes the
//! whole thing over plain HTTP/1.1 with JSON bodies — standard library
//! sockets and threads only.
//!
//! - [`index`] — immutable per-rank interval index ([`TimelineIndex`]),
//!   one frame tree per rank plus a shared arrow tree whose nodes
//!   aggregate their arrows per `(from, to)` pair.
//! - [`cache`] — sharded LRU tile cache ([`TileCache`]) keyed by
//!   (file digest, rank, zoom, tile), two-phase single-flight on
//!   misses (compute happens outside the shard lock).
//! - [`service`] — [`TimelineService`], the unified query/render API;
//!   every HTTP endpoint is a deterministic method here.
//! - [`registry`] — the multi-trace server state: a byte-budgeted
//!   [`TraceRegistry`] (admission, LRU eviction, salvage-tolerant
//!   uploads) plus [`App`], the bundle of registry + obs plane +
//!   [`Limits`] + drain flag that one running server shares.
//! - [`http`] — the `pilotd` HTTP front end ([`serve`], [`Server`]):
//!   bounded accept queue with load shedding, request deadlines, size
//!   caps, slow-loris kill, panic isolation, graceful drain — and a
//!   keep-alive [`Client`] used by tests, `repro serve-bench`, and
//!   `repro serve-chaos`.
//! - [`deadline`] — the per-request soft deadline (thread-local),
//!   checked at phase boundaries; expiry means 503 + `Retry-After`,
//!   never a truncated body.
//! - [`obsplane`] — the request-level observability plane
//!   ([`ObsPlane`]): per-request trace IDs and phase timings, endpoint
//!   latency histograms, and the tail-latency flight recorder behind
//!   `/v1/obs/endpoints` and `/v1/obs/flight`.

pub mod cache;
pub mod deadline;
pub mod http;
pub mod index;
pub mod obsplane;
mod par;
pub mod registry;
pub mod service;

pub use cache::{TileCache, TileKey, CACHE_SHARDS};
pub use http::{
    route, route_request, serve, Client, DrainReport, HttpResponse, Server, DEFAULT_WORKERS,
};
pub use index::TimelineIndex;
pub use obsplane::{endpoint_class, note_phase, ObsPlane, PhaseTimer, ENDPOINTS, WINDOW_CAPACITY};
pub use registry::{
    App, Limits, Occupancy, RemoveError, TraceEntry, TraceRegistry, UploadError, UploadOutcome,
    DEFAULT_TRACE,
};
pub use service::{fnv1a, TimelineService, MAX_ZOOM};
