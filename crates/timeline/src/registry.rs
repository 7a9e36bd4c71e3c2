//! The multi-trace server state: a byte-budgeted trace registry plus
//! the per-server plumbing (`App`) that `pilotd` and the tests share.
//!
//! [`TraceRegistry`] holds every loaded trace behind an ID. The trace
//! named `default` is the one `pilotd serve` was started with: it is
//! pinned — never evicted, never deletable — so a drained registry
//! always has something to serve. Everything else arrives over
//! `POST /v1/traces` and lives under a byte budget:
//!
//! * **Admission.** An upload's cost is its wire size. Uploads larger
//!   than the whole budget (minus the pinned default) are rejected with
//!   413 before any parsing state is kept.
//! * **Eviction.** When an admitted upload doesn't fit, the registry
//!   evicts the least-recently-hit unpinned trace until it does. An
//!   evicted trace's tile cache goes with it — tiles are keyed by file
//!   digest, so a re-upload rebuilds from cold, correctly.
//! * **In-flight safety.** Requests resolve a trace to an
//!   `Arc<TraceEntry>` before touching it; eviction only removes the
//!   registry's reference. A trace being queried while evicted finishes
//!   serving that request from its own `Arc` — eviction never tears a
//!   response.
//!
//! Upload validation goes through the salvage-tolerant readers: a
//! whole-or-torn CLOG2 body is salvaged and converted (torn inputs
//! register as salvaged-with-warnings), a SLOG2 body is parsed and
//! validated strictly. Malformed bodies are a client error (400),
//! never a 500.
//!
//! [`App`] bundles the registry with the request-level [`ObsPlane`],
//! the shared obs registry, the server [`Limits`], and the drain flag.
//! The HTTP layer serves an `Arc<App>`; one-trace embedders (tests,
//! benches) use [`App::single`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mpelog::Clog2File;
use obs::{Counter, Gauge, ObsHandle};
use pilot_vis::json::Json;
use slog2::{Converter, SalvageReport, Slog2File, TornPolicy, TraceSource};

use crate::obsplane::ObsPlane;
use crate::service::{fnv1a, TimelineService};

/// The registry ID of the trace the server was started with.
pub const DEFAULT_TRACE: &str = "default";

/// Every operator-tunable limit of the server, in one place. The
/// defaults suit an interactive viewer behind a handful of clients;
/// `pilotd serve` exposes the load-bearing ones as flags.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Per-request deadline (`--deadline-ms`); a request that can't
    /// finish in time answers 503 + `Retry-After`.
    pub deadline: Duration,
    /// A connection that waited longer than this in the accept queue is
    /// answered 429 + `Retry-After` without reading its request —
    /// load-shedding work that queue wait has already made stale.
    pub queue_shed: Duration,
    /// Accept-queue capacity; connections beyond it are answered 429
    /// straight from the accept thread.
    pub queue_cap: usize,
    /// Longest accepted request line (431 beyond it).
    pub max_request_line: usize,
    /// Most header bytes accepted per request (431 beyond it).
    pub max_header_bytes: usize,
    /// Largest accepted request body / upload (413 beyond it).
    pub max_body_bytes: usize,
    /// How long a client may dawdle mid-request (slow-loris) before the
    /// connection is answered 408 and closed.
    pub header_deadline: Duration,
    /// How long a graceful drain waits for in-flight work.
    pub drain_deadline: Duration,
    /// Registry byte budget (`--budget-mb`): resident traces' wire
    /// bytes stay under this, by LRU eviction.
    pub budget_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            deadline: Duration::from_millis(2000),
            queue_shed: Duration::from_millis(500),
            queue_cap: 256,
            max_request_line: 8 * 1024,
            max_header_bytes: 16 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
            header_deadline: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(5),
            budget_bytes: 256 * 1024 * 1024,
        }
    }
}

/// One resident trace: its service (index + tile cache) plus the
/// registry bookkeeping admission needs.
pub struct TraceEntry {
    /// Registry ID (`default` for the boot trace).
    pub id: String,
    /// The loaded trace behind the full query/render API.
    pub service: TimelineService,
    /// Wire size — the admission cost this entry holds of the budget.
    pub bytes: usize,
    /// Whether the upload was torn and went through salvage.
    pub salvaged: bool,
    /// Pinned entries (the default trace) are never evicted or deleted.
    pub pinned: bool,
    /// Logical-clock value of the last request that resolved this
    /// entry; the LRU eviction key.
    last_hit: AtomicU64,
}

/// Why an upload was refused.
#[derive(Debug)]
pub enum UploadError {
    /// Admitting the upload can never fit the budget (413).
    OverBudget { bytes: usize, budget: usize },
    /// The body is not a loadable trace in any accepted format (400).
    Invalid(String),
}

/// What [`TraceRegistry::upload`] admitted.
#[derive(Debug)]
pub struct UploadOutcome {
    /// Registry ID (supplied or derived from the content digest).
    pub id: String,
    /// Admission cost.
    pub bytes: usize,
    /// Whether the body was torn and recovered by salvage.
    pub salvaged: bool,
    /// Warning count on the loaded file (salvage forensics included).
    pub warnings: usize,
    /// IDs evicted to make room, in eviction order.
    pub evicted: Vec<String>,
    /// Whether an existing trace under this ID was replaced.
    pub replaced: bool,
}

/// Why a delete was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum RemoveError {
    /// No trace under that ID (404).
    NotFound,
    /// The default trace is pinned (409).
    Pinned,
}

/// Registry occupancy, for `/v1/stats` and the chaos invariants.
#[derive(Debug, Clone, Copy)]
pub struct Occupancy {
    /// Resident traces (the pinned default included).
    pub traces: usize,
    /// Bytes of budget in use.
    pub bytes: usize,
    /// The budget.
    pub budget: usize,
    /// Lifetime evictions.
    pub evictions: u64,
}

struct RegistryInner {
    traces: BTreeMap<String, Arc<TraceEntry>>,
    bytes: usize,
    evictions: u64,
}

/// The byte-budgeted trace map. All mutation is behind one mutex —
/// uploads are rare next to queries, and the hot path (resolving a
/// trace ID) holds it only long enough to clone an `Arc` and bump a
/// logical clock.
pub struct TraceRegistry {
    inner: Mutex<RegistryInner>,
    budget: usize,
    clock: AtomicU64,
    obs: ObsHandle,
    uploads: Counter,
    rejects: Counter,
    evictions: Counter,
    bytes_gauge: Gauge,
}

impl TraceRegistry {
    /// A registry holding `default_svc` as the pinned `default` trace.
    pub fn new(default_svc: TimelineService, budget: usize, obs: ObsHandle) -> TraceRegistry {
        let bytes = default_svc.file().to_bytes().len();
        let shard = obs.shard(0);
        let reg = TraceRegistry {
            inner: Mutex::new(RegistryInner {
                traces: BTreeMap::new(),
                bytes: 0,
                evictions: 0,
            }),
            budget,
            clock: AtomicU64::new(0),
            uploads: shard.counter("serve.registry.uploads"),
            rejects: shard.counter("serve.registry.rejects"),
            evictions: shard.counter("serve.registry.evictions"),
            bytes_gauge: shard.gauge("serve.registry.bytes"),
            obs,
        };
        {
            let mut inner = reg.inner.lock().expect("registry poisoned");
            inner.traces.insert(
                DEFAULT_TRACE.into(),
                Arc::new(TraceEntry {
                    id: DEFAULT_TRACE.into(),
                    service: default_svc,
                    bytes,
                    salvaged: false,
                    pinned: true,
                    last_hit: AtomicU64::new(0),
                }),
            );
            inner.bytes = bytes;
        }
        reg.bytes_gauge.set(bytes as i64);
        reg
    }

    /// Resolve a trace ID (`None` means `default`), bumping its LRU
    /// clock. `None` when no such trace is resident — evicted traces
    /// are indistinguishable from never-uploaded ones, by design.
    pub fn get(&self, id: Option<&str>) -> Option<Arc<TraceEntry>> {
        let id = id.unwrap_or(DEFAULT_TRACE);
        let inner = self.inner.lock().expect("registry poisoned");
        let entry = inner.traces.get(id)?;
        entry.last_hit.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        Some(Arc::clone(entry))
    }

    /// The pinned default trace.
    pub fn default_trace(&self) -> Arc<TraceEntry> {
        self.get(None).expect("default trace is pinned")
    }

    /// Validate, convert, and admit an upload. Parsing and index
    /// construction happen outside the registry lock; only admission
    /// (budget check, eviction, insert) holds it.
    pub fn upload(&self, id: Option<&str>, bytes: &[u8]) -> Result<UploadOutcome, UploadError> {
        let digest = fnv1a(bytes);
        let id = match id {
            Some(DEFAULT_TRACE) => {
                return Err(UploadError::Invalid(format!(
                    "trace id {DEFAULT_TRACE:?} is reserved for the boot trace"
                )))
            }
            Some(given) if !given.is_empty() => {
                if !given
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
                {
                    return Err(UploadError::Invalid(format!("bad trace id {given:?}")));
                }
                given.to_string()
            }
            _ => format!("t{digest:016x}"),
        };

        let (file, salvaged) = load_upload(bytes)?;
        let warnings = file.warnings.len();
        let service = TimelineService::with_obs(file, digest, self.obs.clone());
        let cost = bytes.len();

        let mut inner = self.inner.lock().expect("registry poisoned");
        let pinned_bytes: usize = inner
            .traces
            .values()
            .filter(|e| e.pinned)
            .map(|e| e.bytes)
            .sum();
        if cost.saturating_add(pinned_bytes) > self.budget {
            drop(inner);
            self.rejects.inc();
            return Err(UploadError::OverBudget {
                bytes: cost,
                budget: self.budget,
            });
        }
        let replaced = if let Some(old) = inner.traces.remove(&id) {
            inner.bytes -= old.bytes;
            true
        } else {
            false
        };
        let mut evicted = Vec::new();
        while inner.bytes + cost > self.budget {
            let victim = inner
                .traces
                .values()
                .filter(|e| !e.pinned)
                .min_by_key(|e| e.last_hit.load(Ordering::Relaxed))
                .map(|e| e.id.clone())
                .expect("unpinned entry exists while over budget");
            let gone = inner.traces.remove(&victim).expect("victim resident");
            inner.bytes -= gone.bytes;
            inner.evictions += 1;
            evicted.push(victim);
        }
        inner.traces.insert(
            id.clone(),
            Arc::new(TraceEntry {
                id: id.clone(),
                service,
                bytes: cost,
                salvaged,
                pinned: false,
                last_hit: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed) + 1),
            }),
        );
        inner.bytes += cost;
        let bytes_now = inner.bytes;
        drop(inner);

        self.uploads.inc();
        self.evictions.add(evicted.len() as u64);
        self.bytes_gauge.set(bytes_now as i64);
        Ok(UploadOutcome {
            id,
            bytes: cost,
            salvaged,
            warnings,
            evicted,
            replaced,
        })
    }

    /// Delete a trace by ID.
    pub fn remove(&self, id: &str) -> Result<(), RemoveError> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        match inner.traces.get(id) {
            None => return Err(RemoveError::NotFound),
            Some(e) if e.pinned => return Err(RemoveError::Pinned),
            Some(_) => {}
        }
        let gone = inner.traces.remove(id).expect("checked resident");
        inner.bytes -= gone.bytes;
        let bytes_now = inner.bytes;
        drop(inner);
        self.bytes_gauge.set(bytes_now as i64);
        Ok(())
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> Occupancy {
        let inner = self.inner.lock().expect("registry poisoned");
        Occupancy {
            traces: inner.traces.len(),
            bytes: inner.bytes,
            budget: self.budget,
            evictions: inner.evictions,
        }
    }

    /// `GET /v1/traces` — resident traces in ID order plus occupancy.
    pub fn list_json(&self) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let traces: Vec<Json> = inner
            .traces
            .values()
            .map(|e| {
                Json::Obj(vec![
                    ("id".into(), Json::Str(e.id.clone())),
                    ("bytes".into(), Json::Num(e.bytes as f64)),
                    ("pinned".into(), Json::Bool(e.pinned)),
                    ("salvaged".into(), Json::Bool(e.salvaged)),
                    (
                        "warnings".into(),
                        Json::Num(e.service.file().warnings.len() as f64),
                    ),
                    (
                        "ranks".into(),
                        Json::Num(e.service.file().timelines.len() as f64),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("budget_bytes".into(), Json::Num(self.budget as f64)),
            ("bytes".into(), Json::Num(inner.bytes as f64)),
            ("evictions".into(), Json::Num(inner.evictions as f64)),
            ("traces".into(), Json::Arr(traces)),
        ])
        .compact()
    }

    /// Registry occupancy as `/v1/stats` fields.
    pub fn stats_fields(&self) -> Vec<(String, Json)> {
        let o = self.occupancy();
        vec![(
            "registry".into(),
            Json::Obj(vec![
                ("traces".into(), Json::Num(o.traces as f64)),
                ("bytes".into(), Json::Num(o.bytes as f64)),
                ("budget_bytes".into(), Json::Num(o.budget as f64)),
                ("evictions".into(), Json::Num(o.evictions as f64)),
            ]),
        )]
    }
}

/// The most ranks a CLOG2 upload's header may claim.
const MAX_UPLOAD_RANKS: u32 = 1 << 16;

/// Parse an upload through the tolerant readers: strict SLOG2, or
/// salvage-converted CLOG2 (whole or torn). Anything else — and any
/// SLOG2 body that fails strict validation — is a client error.
fn load_upload(bytes: &[u8]) -> Result<(Slog2File, bool), UploadError> {
    if Slog2File::sniff(bytes) {
        let file = Slog2File::from_bytes(bytes)
            .map_err(|e| UploadError::Invalid(format!("bad SLOG2 body: {e}")))?;
        let defects = slog2::validate(&file);
        if !defects.is_empty() {
            return Err(UploadError::Invalid(format!(
                "SLOG2 body fails validation: {} defect(s), first: {:?}",
                defects.len(),
                defects[0]
            )));
        }
        return Ok((file, false));
    }
    if Clog2File::sniff(bytes) {
        // Refuse what cannot become a trace before converting anything:
        // the converter builds one timeline per rank the header claims.
        let probe = Clog2File::salvage_image(bytes, usize::MAX);
        if probe.records_recovered == 0 {
            return Err(UploadError::Invalid(
                "CLOG2 body torn before any complete record".into(),
            ));
        }
        if probe.file.nranks > MAX_UPLOAD_RANKS {
            return Err(UploadError::Invalid(format!(
                "CLOG2 header claims {} ranks (at most {MAX_UPLOAD_RANKS})",
                probe.file.nranks
            )));
        }
        // Salvage scans the body in place; the converter reports what a
        // tear cost.
        let c = Converter::new()
            .on_torn(TornPolicy::Salvage(SalvageReport::default()))
            .convert(TraceSource::Bytes(bytes))
            .expect("salvaging a byte image cannot fail");
        return Ok((c.file, probe.truncated));
    }
    Err(UploadError::Invalid(
        "body is neither SLOG2 nor CLOG2 (unknown magic)".into(),
    ))
}

/// Everything one running server shares: the trace registry, the
/// request observability plane, the obs registry they both report
/// into, the limits, and the drain flag.
pub struct App {
    limits: Limits,
    obs: ObsHandle,
    plane: ObsPlane,
    registry: TraceRegistry,
    draining: AtomicBool,
}

impl App {
    /// Wrap `default_svc` (which becomes the pinned `default` trace)
    /// under `limits`. The service's obs registry becomes the server's:
    /// the plane, the tile caches of every uploaded trace, and the
    /// registry counters all report into it.
    pub fn new(default_svc: TimelineService, limits: Limits) -> App {
        let obs = default_svc.obs_handle().clone();
        App {
            plane: ObsPlane::new(obs.clone()),
            registry: TraceRegistry::new(default_svc, limits.budget_bytes, obs.clone()),
            obs,
            limits,
            draining: AtomicBool::new(false),
        }
    }

    /// The one-trace default-limits wrapper most tests want.
    pub fn single(default_svc: TimelineService) -> Arc<App> {
        Arc::new(App::new(default_svc, Limits::default()))
    }

    /// The trace registry.
    pub fn registry(&self) -> &TraceRegistry {
        &self.registry
    }

    /// The request observability plane.
    pub fn plane(&self) -> &ObsPlane {
        &self.plane
    }

    /// The server limits.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The shared obs registry.
    pub fn obs_handle(&self) -> &ObsHandle {
        &self.obs
    }

    /// Turn on request tracing (trace IDs, phase timings, the flight
    /// recorder). Response bodies are unaffected.
    pub fn enable_tracing(&self) {
        self.plane.set_enabled(true);
    }

    /// Whether the server is draining: still answering, but telling
    /// clients to go away (503 + `Connection: close`).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Enter drain mode. One-way; a drained server is shutting down.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// `/metrics` — Prometheus-style text of the shared registry.
    pub fn metrics_text(&self) -> String {
        self.obs.snapshot().to_prometheus_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpelog::Color;
    use slog2::{
        Category, CategoryId, CategoryKind, Drawable, FrameTree, StateDrawable, TimeWindow,
        TimelineId,
    };

    fn small_file(states: usize) -> Slog2File {
        let mut ds = Vec::new();
        for i in 0..states {
            ds.push(Drawable::State(StateDrawable {
                category: CategoryId(0),
                timeline: TimelineId(0),
                start: i as f64,
                end: i as f64 + 0.5,
                nest_level: 0,
                text: String::new(),
            }));
        }
        let range = TimeWindow::new(0.0, states as f64);
        Slog2File {
            timelines: vec!["PI_MAIN".into()],
            categories: vec![Category {
                index: CategoryId(0),
                name: "Compute".into(),
                color: Color::GRAY,
                kind: CategoryKind::State,
            }],
            range,
            warnings: vec![],
            tree: FrameTree::build(ds, range.t0, range.t1, 16, 8),
        }
    }

    fn registry_with_budget(budget: usize) -> TraceRegistry {
        TraceRegistry::new(
            TimelineService::from_file(small_file(4)),
            budget,
            obs::Obs::handle(),
        )
    }

    #[test]
    fn default_trace_is_pinned_and_undeletable() {
        let reg = registry_with_budget(1 << 20);
        assert!(reg.get(None).unwrap().pinned);
        assert!(reg.get(Some(DEFAULT_TRACE)).unwrap().pinned);
        assert_eq!(reg.remove(DEFAULT_TRACE), Err(RemoveError::Pinned));
        assert_eq!(reg.remove("ghost"), Err(RemoveError::NotFound));
    }

    #[test]
    fn upload_roundtrips_a_valid_slog2_body() {
        let reg = registry_with_budget(1 << 20);
        let body = small_file(6).to_bytes();
        let out = reg.upload(Some("exp1"), &body).unwrap();
        assert_eq!(out.id, "exp1");
        assert!(!out.salvaged);
        assert!(!out.replaced);
        let entry = reg.get(Some("exp1")).unwrap();
        assert_eq!(entry.bytes, body.len());
        assert_eq!(entry.service.file().timelines.len(), 1);
        // Replacement under the same ID is flagged.
        assert!(reg.upload(Some("exp1"), &body).unwrap().replaced);
        reg.remove("exp1").unwrap();
        assert!(reg.get(Some("exp1")).is_none());
    }

    #[test]
    fn garbage_and_reserved_ids_are_client_errors() {
        let reg = registry_with_budget(1 << 20);
        assert!(matches!(
            reg.upload(None, b"not a trace at all"),
            Err(UploadError::Invalid(_))
        ));
        let body = small_file(2).to_bytes();
        assert!(matches!(
            reg.upload(Some(DEFAULT_TRACE), &body),
            Err(UploadError::Invalid(_))
        ));
        assert!(matches!(
            reg.upload(Some("../etc"), &body),
            Err(UploadError::Invalid(_))
        ));
    }

    #[test]
    fn torn_clog2_upload_salvages_with_warnings() {
        let clog = workloads::synthetic_clog(2, 40);
        let whole = clog.to_bytes();
        let torn = &whole[..whole.len() - whole.len() / 4];
        let reg = registry_with_budget(1 << 20);
        let out = reg.upload(Some("torn"), torn).unwrap();
        assert!(out.salvaged);
        assert!(out.warnings > 0, "salvage forensics should leave warnings");
        let entry = reg.get(Some("torn")).unwrap();
        assert!(entry.salvaged);
        assert!(!entry.service.file().warnings.is_empty());
    }

    #[test]
    fn clog2_body_without_a_complete_record_is_a_client_error() {
        let reg = registry_with_budget(1 << 20);
        let empty = mpelog::Clog2File {
            nranks: 2,
            ..Default::default()
        };
        let whole = workloads::synthetic_clog(2, 40).to_bytes();
        // The magic and a header claiming 2^32 - 1 ranks, and nothing
        // more: refused before a timeline is built for any of them.
        let huge = [&whole[..8], &[0xff; 4]].concat();
        for body in [&empty.to_bytes()[..], &whole[..12], &huge] {
            assert!(matches!(
                reg.upload(Some("empty"), body),
                Err(UploadError::Invalid(_))
            ));
        }
    }

    #[test]
    fn clog2_header_claiming_too_many_ranks_is_a_client_error() {
        let reg = registry_with_budget(64 << 20);
        let mut clog = workloads::synthetic_clog(2, 40);
        clog.nranks = u32::MAX;
        assert!(matches!(
            reg.upload(Some("wide"), &clog.to_bytes()),
            Err(UploadError::Invalid(e)) if e.contains("ranks")
        ));
        clog.nranks = MAX_UPLOAD_RANKS;
        assert!(reg.upload(Some("wide"), &clog.to_bytes()).is_ok());
    }

    #[test]
    fn over_budget_uploads_get_413_and_cold_traces_evict() {
        let default_bytes = small_file(4).to_bytes().len();
        let body = small_file(64).to_bytes();
        // Budget fits the default plus ~2 uploads.
        let reg = registry_with_budget(default_bytes + body.len() * 2 + body.len() / 2);
        assert!(matches!(
            reg.upload(Some("huge"), &vec![0u8; 1 << 22]).err().unwrap(),
            UploadError::Invalid(_) // bad magic wins before budget
        ));
        let giant = {
            // Valid but over budget: pad warnings to inflate the body.
            let mut f = small_file(2);
            f.warnings = vec!["x".repeat(1 << 10); 1 << 10];
            f.to_bytes()
        };
        assert!(matches!(
            reg.upload(Some("big"), &giant),
            Err(UploadError::OverBudget { .. })
        ));

        reg.upload(Some("a"), &body).unwrap();
        reg.upload(Some("b"), &body).unwrap();
        // Touch `a` so `b` is the LRU victim.
        reg.get(Some("a")).unwrap();
        let out = reg.upload(Some("c"), &body).unwrap();
        assert_eq!(out.evicted, vec!["b".to_string()]);
        assert!(reg.get(Some("b")).is_none());
        assert!(reg.get(Some("a")).is_some());
        let o = reg.occupancy();
        assert_eq!(o.evictions, 1);
        assert!(o.bytes <= o.budget);
        // The pinned default never evicts no matter how cold.
        assert!(reg.get(None).is_some());
    }

    #[test]
    fn eviction_does_not_tear_in_flight_queries() {
        let reg = registry_with_budget(1 << 20);
        let body = small_file(8).to_bytes();
        reg.upload(Some("live"), &body).unwrap();
        let held = reg.get(Some("live")).unwrap();
        reg.remove("live").unwrap();
        // The Arc keeps the evicted trace fully usable.
        assert!(!held.service.query_json(TimeWindow::ALL, None).is_empty());
        assert!(reg.get(Some("live")).is_none());
    }

    #[test]
    fn list_json_is_deterministic_and_ordered() {
        let reg = registry_with_budget(1 << 20);
        let body = small_file(3).to_bytes();
        reg.upload(Some("zz"), &body).unwrap();
        reg.upload(Some("aa"), &body).unwrap();
        let v = pilot_vis::json::Json::parse(&reg.list_json()).unwrap();
        let ids: Vec<&str> = v
            .get("traces")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|t| t.get("id").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(ids, vec!["aa", "default", "zz"]);
        assert_eq!(reg.list_json(), reg.list_json());
    }
}
