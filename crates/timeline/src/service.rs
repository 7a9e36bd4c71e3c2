//! The timeline query service: one loaded SLOG2 file behind a unified
//! query/render API.
//!
//! Every HTTP endpoint of `pilotd serve` is a thin wrapper over a
//! method here, and every method is a deterministic pure function of
//! the loaded file — which is what makes responses cacheable and lets
//! the `serve-bench` parity oracle compare HTTP bodies byte-for-byte
//! against direct in-process calls.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use analysis::TraceAnalyzer;
use jumpshot::{renderer_by_name, PathOverlay, RenderOptions};
use obs::{ObsHandle, Phase};
use pilot_vis::json::{write_escaped, write_number, Json};
use slog2::{fnv, Drawable, Slog2Error, Slog2File, TimeWindow};

use crate::cache::{TileCache, TileKey};
use crate::index::TimelineIndex;
use crate::obsplane::PhaseTimer;
use crate::par::{self, Task};

/// Deepest zoom level the tile endpoint accepts (`2^24` tiles is far
/// below a second per tile on any real trace).
pub const MAX_ZOOM: u8 = 24;

/// Windows with at most this many drawables of a rank answer that rank
/// in detail; denser windows answer with preview aggregates.
const DETAIL_LIMIT: u64 = 512;

/// FNV-1a 64-bit digest — the cache key's file-version component.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv::fnv1a(fnv::FNV_SEED, bytes)
}

/// One loaded SLOG2 file plus its interval index and tile cache.
pub struct TimelineService {
    file: Slog2File,
    index: TimelineIndex,
    cache: TileCache,
    obs: ObsHandle,
    digest: u64,
    queries: AtomicU64,
    diagnosis: OnceLock<Arc<String>>,
    baseline: Option<Baseline>,
    /// Test-only: stretch every tile compute by this much (under the
    /// `render` phase) so integration tests can force a slow request
    /// into the flight recorder.
    test_tile_delay: Option<std::time::Duration>,
}

/// A registered before-trace for `/v1/diff`: the comparison is a pure
/// function of the two immutable files, so its JSON is computed once
/// and cached like the diagnosis.
struct Baseline {
    file: Slog2File,
    label: String,
    diff: OnceLock<Arc<String>>,
}

/// A decoded and indexed SLOG2 file, with the digest of its bytes.
pub(crate) struct Loaded {
    pub(crate) file: Slog2File,
    pub(crate) index: TimelineIndex,
    pub(crate) digest: u64,
}

/// Decode, validate and index an SLOG2 body: the digest is computed
/// beside the decode, and `validate` runs beside the index build. A
/// body that fails validation is refused, and the index built beside
/// the validation is dropped.
pub(crate) fn load_slog2(bytes: &[u8]) -> Result<Loaded, Slog2Error> {
    let (file, digest) = par::join(
        par::body_helpers(bytes.len()),
        || Slog2File::from_bytes(bytes),
        || fnv1a(bytes),
    );
    let file = file?;
    let mut defects = Vec::new();
    let validate = Task::new(file.total_drawables() as u64, || {
        defects = slog2::validate(&file)
    });
    let index = TimelineIndex::build_beside(&file, vec![validate]);
    if !defects.is_empty() {
        return Err(Slog2Error::Validate(defects));
    }
    Ok(Loaded {
        file,
        index,
        digest,
    })
}

impl TimelineService {
    /// Load and validate a `.pslog2` file from disk.
    pub fn load(path: &Path) -> Result<TimelineService, Slog2Error> {
        let loaded = load_slog2(&std::fs::read(path)?)?;
        Ok(Self::from_loaded(loaded, obs::Obs::handle()))
    }

    /// Serve an already-loaded file (digest computed from its bytes,
    /// which are encoded beside the index build).
    pub fn from_file(file: Slog2File) -> TimelineService {
        let mut digest = 0;
        let encode = Task::new(file.total_drawables() as u64, || {
            digest = fnv1a(&file.to_bytes())
        });
        let index = TimelineIndex::build_beside(&file, vec![encode]);
        Self::from_loaded(
            Loaded {
                file,
                index,
                digest,
            },
            obs::Obs::handle(),
        )
    }

    /// Build a service reporting into an existing obs registry — the
    /// multi-trace path: every trace in one
    /// [`App`](crate::registry::App) shares the server's registry, so
    /// `/metrics` aggregates cache and query counters across tenants.
    pub fn with_obs(file: Slog2File, digest: u64, obs: ObsHandle) -> TimelineService {
        let index = TimelineIndex::build(&file);
        Self::from_loaded(
            Loaded {
                file,
                index,
                digest,
            },
            obs,
        )
    }

    /// Serve `loaded`, reporting into `obs`.
    pub(crate) fn from_loaded(loaded: Loaded, obs: ObsHandle) -> TimelineService {
        let Loaded {
            file,
            index,
            digest,
        } = loaded;
        TimelineService {
            index,
            cache: TileCache::new(4096, &obs),
            obs,
            digest,
            queries: AtomicU64::new(0),
            diagnosis: OnceLock::new(),
            baseline: None,
            test_tile_delay: None,
            file,
        }
    }

    /// The obs registry this service reports into.
    pub fn obs_handle(&self) -> &ObsHandle {
        &self.obs
    }

    /// Test-only hook: make every tile compute sleep for `delay` so a
    /// request is guaranteed to be slow enough to land in the flight
    /// recorder's slowest ring.
    #[doc(hidden)]
    pub fn set_test_tile_delay(&mut self, delay: std::time::Duration) {
        self.test_tile_delay = Some(delay);
    }

    /// Register a baseline trace for `/v1/diff` (call before wrapping
    /// the service in an `Arc`). `label` names the before side in the
    /// report — typically the baseline's file path.
    pub fn set_baseline(&mut self, file: Slog2File, label: impl Into<String>) {
        self.baseline = Some(Baseline {
            file,
            label: label.into(),
            diff: OnceLock::new(),
        });
    }

    /// Whether a baseline is registered.
    pub fn has_baseline(&self) -> bool {
        self.baseline.is_some()
    }

    /// `/v1/diff` — the baseline-vs-served comparison in `DIFF.json`
    /// form. `None` when no baseline is registered; otherwise computed
    /// once and served from cache, as one shared buffer.
    pub fn diff_json(&self) -> Option<Arc<String>> {
        self.count_query();
        let b = self.baseline.as_ref()?;
        let diff = b.diff.get_or_init(|| {
            Arc::new(diff::diff_traces(&b.file, &self.file, (&b.label, "served")).to_json())
        });
        Some(Arc::clone(diff))
    }

    /// The loaded file.
    pub fn file(&self) -> &Slog2File {
        &self.file
    }

    /// FNV-1a digest of the file bytes.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The time window tile `tile` covers at `zoom` (the file range
    /// divides into `2^zoom` equal tiles). `None` when out of range.
    pub fn tile_window(&self, zoom: u8, tile: u32) -> Option<TimeWindow> {
        if zoom > MAX_ZOOM || u64::from(tile) >= 1u64 << zoom {
            return None;
        }
        let n = (1u64 << zoom) as f64;
        let span = self.file.range.span();
        let t0 = self.file.range.t0 + span * tile as f64 / n;
        let t1 = self.file.range.t0 + span * (tile + 1) as f64 / n;
        Some(TimeWindow::new(t0, t1))
    }

    /// `/v1/info` — file identity and shape.
    pub fn info_json(&self) -> String {
        self.count_query();
        Json::Obj(vec![
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
            (
                "ranks".into(),
                Json::Arr(
                    self.file
                        .timelines
                        .iter()
                        .map(|n| Json::Str(n.clone()))
                        .collect(),
                ),
            ),
            ("range".into(), window_json(self.file.range)),
            (
                "drawables".into(),
                Json::Num(self.file.total_drawables() as f64),
            ),
            (
                "categories".into(),
                Json::Num(self.file.categories.len() as f64),
            ),
            ("detail_limit".into(), Json::Num(DETAIL_LIMIT as f64)),
            ("max_zoom".into(), Json::Num(MAX_ZOOM as f64)),
        ])
        .compact()
    }

    /// `/v1/legend` — per-category stats, the legend window's table.
    pub fn legend_json(&self) -> String {
        self.count_query();
        let stats = slog2::legend_stats(&self.file);
        Json::Arr(
            self.file
                .categories
                .iter()
                .map(|c| {
                    let s = stats.get(&c.index).copied().unwrap_or_default();
                    Json::Obj(vec![
                        ("index".into(), Json::Num(f64::from(c.index.as_u32()))),
                        ("name".into(), Json::Str(c.name.clone())),
                        ("color".into(), Json::Str(c.color.to_hex())),
                        ("kind".into(), Json::Str(format!("{:?}", c.kind))),
                        ("count".into(), Json::Num(s.count as f64)),
                        ("inclusive".into(), Json::Num(s.inclusive)),
                        ("exclusive".into(), Json::Num(s.exclusive)),
                    ])
                })
                .collect(),
        )
        .compact()
    }

    /// `/v1/warnings` — converter warnings plus crash-forensics
    /// verdicts (terminal `ABORTED` / `DEADLOCKED` states per rank).
    pub fn warnings_json(&self) -> String {
        self.count_query();
        let mut verdicts = Vec::new();
        for d in self.file.tree.query(TimeWindow::ALL) {
            if let Drawable::State(s) = d {
                let name = self
                    .file
                    .categories
                    .get(s.category.as_usize())
                    .map(|c| c.name.as_str())
                    .unwrap_or("");
                if name == "ABORTED" || name == "DEADLOCKED" {
                    verdicts.push(Json::Obj(vec![
                        ("rank".into(), Json::Num(f64::from(s.timeline.as_u32()))),
                        ("kind".into(), Json::Str(name.to_string())),
                        ("start".into(), Json::Num(s.start)),
                        ("end".into(), Json::Num(s.end)),
                        ("detail".into(), Json::Str(s.text.clone())),
                    ]));
                }
            }
        }
        Json::Obj(vec![
            (
                "warnings".into(),
                Json::Arr(
                    self.file
                        .warnings
                        .iter()
                        .map(|w| Json::Str(w.clone()))
                        .collect(),
                ),
            ),
            ("verdicts".into(), Json::Arr(verdicts)),
        ])
        .compact()
    }

    /// `/v1/query` — the window query: per requested rank, either full
    /// detail (every state/event overlapping the window) or, past the
    /// detail limit (512 drawables), the preview aggregate the frame
    /// tree keeps per node — the zoomed-out colour-stripe data. Arrows
    /// switch on the same limit: every arrow touching the rank, or past
    /// 512 of them one aggregate per peer and direction.
    pub fn query_json(&self, w: TimeWindow, ranks: Option<&[u32]>) -> String {
        self.query_json_impl(w, ranks, false)
            .expect("unbounded query never aborts")
    }

    /// [`query_json`](Self::query_json) with the request deadline
    /// enforced between ranks — the phase boundary of the heaviest
    /// endpoint. Returns `None` when the armed
    /// [`deadline`](crate::deadline) passes mid-query, so the router
    /// can answer 503 without ever emitting a truncated body. Tile
    /// computes must NOT use this: a cached tile has to be complete.
    pub fn query_json_bounded(&self, w: TimeWindow, ranks: Option<&[u32]>) -> Option<String> {
        self.query_json_impl(w, ranks, true)
    }

    fn query_json_impl(
        &self,
        w: TimeWindow,
        ranks: Option<&[u32]>,
        bounded: bool,
    ) -> Option<String> {
        self.count_query();
        // Infinite endpoints (`TimeWindow::ALL`) clamp to the file
        // range in the echo — JSON has no infinity literal.
        let echo = TimeWindow {
            t0: if w.t0.is_finite() {
                w.t0
            } else {
                self.file.range.t0
            },
            t1: if w.t1.is_finite() {
                w.t1
            } else {
                self.file.range.t1
            },
        };
        let all: Vec<u32> = (0..self.index.nranks() as u32).collect();
        let ranks = ranks.unwrap_or(&all);
        // The body is written straight into one buffer through the
        // shared leaf writers — the bytes `compact()` would print for
        // the same `Json` tree, without building the tree.
        let mut out = String::new();
        let render = PhaseTimer::start(Phase::Render);
        num(&mut out, "{\"window\":[", echo.t0);
        num(&mut out, ",", echo.t1);
        out.push_str("],\"ranks\":[");
        drop(render);
        for (i, &r) in ranks.iter().enumerate() {
            if bounded && crate::deadline::expired() {
                return None;
            }
            self.rank_json(&mut out, i == 0, r, w);
        }
        let _render = PhaseTimer::start(Phase::Render);
        out.push_str("]}");
        Some(out)
    }

    /// Append one rank's row over `w` to `out`, preceded by a comma
    /// unless it is the `first` row.
    fn rank_json(&self, out: &mut String, first: bool, rank: u32, w: TimeWindow) {
        // Index phase: every interval-index scan for this rank.
        let index_phase = PhaseTimer::start(Phase::Index);
        // Each count is exactly the number of items a detail query
        // returns, so each list is queried only at or under the limit.
        let arrow_preview = self.index.rank_arrow_preview(rank, w);
        let arrows =
            (arrow_preview.total_count() <= DETAIL_LIMIT).then(|| self.index.rank_arrows(rank, w));
        let preview = self.index.rank_preview(rank, w);
        let count = preview.total_count();
        let detail = (count <= DETAIL_LIMIT).then(|| self.index.rank_drawables(rank, w));
        drop(index_phase);

        // Render phase: writing the row.
        let _render = PhaseTimer::start(Phase::Render);
        let name = self
            .file
            .timelines
            .get(rank as usize)
            .map_or("", String::as_str);
        if !first {
            out.push(',');
        }
        num(out, "{\"rank\":", f64::from(rank));
        out.push_str(",\"name\":");
        write_escaped(out, name);
        num(out, ",\"count\":", count as f64);
        if let Some(drawables) = detail {
            out.push_str(",\"mode\":\"detail\",\"states\":[");
            let mut sep = "";
            for d in &drawables {
                if let Drawable::State(s) = d {
                    out.push_str(sep);
                    sep = ",";
                    num(out, "{\"category\":", f64::from(s.category.as_u32()));
                    num(out, ",\"start\":", s.start.max(w.t0));
                    num(out, ",\"end\":", s.end.min(w.t1));
                    num(out, ",\"nest\":", f64::from(s.nest_level));
                    out.push_str(",\"text\":");
                    write_escaped(out, &s.text);
                    out.push('}');
                }
            }
            out.push_str("],\"events\":[");
            let mut sep = "";
            for d in &drawables {
                if let Drawable::Event(e) = d {
                    out.push_str(sep);
                    sep = ",";
                    num(out, "{\"category\":", f64::from(e.category.as_u32()));
                    num(out, ",\"time\":", e.time);
                    out.push_str(",\"text\":");
                    write_escaped(out, &e.text);
                    out.push('}');
                }
            }
        } else {
            out.push_str(",\"mode\":\"preview\",\"preview\":[");
            let mut sep = "";
            for e in &preview.entries {
                out.push_str(sep);
                sep = ",";
                num(out, "{\"category\":", f64::from(e.category.as_u32()));
                num(out, ",\"count\":", e.count as f64);
                num(out, ",\"coverage\":", e.coverage);
                out.push('}');
            }
        }
        let mut sep = "";
        if let Some(arrows) = arrows {
            out.push_str("],\"arrows\":[");
            for a in &arrows {
                out.push_str(sep);
                sep = ",";
                num(out, "{\"category\":", f64::from(a.category.as_u32()));
                num(out, ",\"from\":", f64::from(a.from_timeline.as_u32()));
                num(out, ",\"to\":", f64::from(a.to_timeline.as_u32()));
                num(out, ",\"start\":", a.start);
                num(out, ",\"end\":", a.end);
                num(out, ",\"tag\":", f64::from(a.tag));
                num(out, ",\"size\":", f64::from(a.size));
                out.push('}');
            }
        } else {
            out.push_str("],\"arrow_mode\":\"preview\",\"arrow_preview\":[");
            for e in &arrow_preview.entries {
                out.push_str(sep);
                sep = ",";
                num(out, "{\"peer\":", f64::from(e.peer));
                out.push_str(",\"dir\":\"");
                out.push_str(e.dir.as_str());
                num(out, "\",\"count\":", e.agg.count as f64);
                num(out, ",\"bytes\":", e.agg.bytes as f64);
                num(out, ",\"start\":", e.agg.start);
                num(out, ",\"end\":", e.agg.end);
                out.push('}');
            }
        }
        out.push_str("]}");
    }

    /// `/v1/tile` — the cached form of [`query_json`](Self::query_json)
    /// for one rank over one tile of the zoom pyramid. `None` when the
    /// zoom or tile number is out of range.
    pub fn tile_json(&self, rank: u32, zoom: u8, tile: u32) -> Option<Arc<String>> {
        let w = self.tile_window(zoom, tile)?;
        let key = TileKey {
            digest: self.digest,
            rank,
            zoom,
            tile,
        };
        Some(self.cache.get_or_compute(key, || {
            if let Some(delay) = self.test_tile_delay {
                let _render = PhaseTimer::start(Phase::Render);
                std::thread::sleep(delay);
            }
            self.query_json(w, Some(&[rank]))
        }))
    }

    /// `/v1/render` — dispatch to a [`jumpshot::Renderer`] backend by
    /// wire name; returns `(content_type, document)`. With `overlay`,
    /// the critical path is highlighted and off-path drawables dimmed.
    pub fn render(
        &self,
        backend: &str,
        window: Option<TimeWindow>,
        width: u32,
        overlay: bool,
    ) -> Option<(&'static str, String)> {
        self.count_query();
        let r = renderer_by_name(backend)?;
        let mut opts = RenderOptions::default().with_width(width.max(1));
        opts.window = window;
        if overlay {
            let _index = PhaseTimer::start(Phase::Index);
            opts.overlay = Some(self.critical_overlay());
        }
        let _render = PhaseTimer::start(Phase::Render);
        Some((r.content_type(), r.render(&self.file, &opts)))
    }

    /// `/v1/diagnose` — the automated bottleneck diagnosis. The file is
    /// immutable for the lifetime of the service, so the verdicts are
    /// computed once and cached, and every answer shares that buffer.
    pub fn diagnose_json(&self) -> Arc<String> {
        self.count_query();
        let diagnosis = self.diagnosis.get_or_init(|| {
            Arc::new(
                TraceAnalyzer::new(&self.file)
                    .diagnose("serve")
                    .to_json(&self.file),
            )
        });
        Arc::clone(diagnosis)
    }

    fn critical_overlay(&self) -> PathOverlay {
        let cp = analysis::critical_path(&self.file);
        PathOverlay {
            segments: cp
                .segments
                .iter()
                .map(|s| (s.timeline, s.start, s.end))
                .collect(),
            hops: cp
                .hops
                .iter()
                .map(|h| (h.from, h.to, h.send, h.recv))
                .collect(),
            dim_others: true,
        }
    }

    /// `/v1/stats` — query and cache counters, including single-flight
    /// waits and per-shard occupancy (current + busiest shard's peak).
    pub fn stats_json(&self) -> String {
        Json::Obj(self.stats_fields()).compact()
    }

    /// The fields of [`stats_json`](Self::stats_json), exposed so the
    /// multi-trace router can append registry occupancy to them.
    pub fn stats_fields(&self) -> Vec<(String, Json)> {
        let (hit, miss, eviction) = self.cache.counters();
        let occupancy = self.cache.shard_occupancy();
        vec![
            (
                "queries".into(),
                Json::Num(self.queries.load(Ordering::Relaxed) as f64),
            ),
            ("cache_hits".into(), Json::Num(hit as f64)),
            ("cache_misses".into(), Json::Num(miss as f64)),
            ("cache_evictions".into(), Json::Num(eviction as f64)),
            (
                "cache_entries".into(),
                Json::Num(occupancy.iter().sum::<usize>() as f64),
            ),
            (
                "cache_singleflight_waits".into(),
                Json::Num(self.cache.singleflight_waits() as f64),
            ),
            (
                "cache_shard_occupancy".into(),
                Json::Arr(occupancy.iter().map(|&n| Json::Num(n as f64)).collect()),
            ),
            (
                "cache_shard_occupancy_high".into(),
                Json::Num(self.cache.shard_occupancy_high() as f64),
            ),
        ]
    }

    /// `/metrics` — the Prometheus-style text of the obs registry.
    pub fn metrics_text(&self) -> String {
        self.obs.snapshot().to_prometheus_text()
    }

    fn count_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }
}

/// Append `prefix` (JSON punctuation and a key, written verbatim) and
/// then the number `n`.
fn num(out: &mut String, prefix: &str, n: f64) {
    out.push_str(prefix);
    write_number(out, n);
}

fn window_json(w: TimeWindow) -> Json {
    Json::Arr(vec![Json::Num(w.t0), Json::Num(w.t1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpelog::Color;
    use slog2::{Category, CategoryId, CategoryKind, FrameTree, StateDrawable, TimelineId};

    fn service(states_per_rank: usize) -> TimelineService {
        let categories = vec![
            Category {
                index: CategoryId(0),
                name: "Compute".into(),
                color: Color::GRAY,
                kind: CategoryKind::State,
            },
            Category {
                index: CategoryId(1),
                name: "ABORTED".into(),
                color: Color::DARK_RED,
                kind: CategoryKind::State,
            },
        ];
        let mut ds = Vec::new();
        for r in 0..2u32 {
            for i in 0..states_per_rank {
                ds.push(Drawable::State(StateDrawable {
                    category: CategoryId(0),
                    timeline: TimelineId(r),
                    start: i as f64,
                    end: i as f64 + 0.5,
                    nest_level: 0,
                    text: String::new(),
                }));
            }
        }
        ds.push(Drawable::State(StateDrawable {
            category: CategoryId(1),
            timeline: TimelineId(1),
            start: states_per_rank as f64,
            end: states_per_rank as f64 + 1.0,
            nest_level: 0,
            text: "aborted mid-read".into(),
        }));
        let range = TimeWindow::new(0.0, states_per_rank as f64 + 1.0);
        TimelineService::from_file(Slog2File {
            timelines: vec!["PI_MAIN".into(), "P1".into()],
            categories,
            range,
            warnings: vec!["Equal Drawables: demo".into()],
            tree: FrameTree::build(ds, range.t0, range.t1, 32, 12),
        })
    }

    #[test]
    fn info_and_legend_are_valid_json() {
        let svc = service(4);
        let info = Json::parse(&svc.info_json()).unwrap();
        assert_eq!(info.get("ranks").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            info.get("digest").unwrap().as_str().unwrap(),
            format!("{:016x}", svc.digest())
        );
        let legend = Json::parse(&svc.legend_json()).unwrap();
        assert_eq!(legend.as_arr().unwrap().len(), 2);
    }

    #[test]
    fn warnings_carry_forensics_verdicts() {
        let svc = service(4);
        let v = Json::parse(&svc.warnings_json()).unwrap();
        assert_eq!(v.get("warnings").unwrap().as_arr().unwrap().len(), 1);
        let verdicts = v.get("verdicts").unwrap().as_arr().unwrap();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(
            verdicts[0].get("kind").unwrap().as_str().unwrap(),
            "ABORTED"
        );
        assert_eq!(verdicts[0].get("rank").unwrap().as_u64().unwrap(), 1);
    }

    #[test]
    fn sparse_window_answers_in_detail() {
        let svc = service(4);
        let v = Json::parse(&svc.query_json(TimeWindow::new(0.0, 2.0), Some(&[0]))).unwrap();
        let rank = &v.get("ranks").unwrap().as_arr().unwrap()[0];
        assert_eq!(rank.get("mode").unwrap().as_str().unwrap(), "detail");
        // States at 0..0.5, 1..1.5, 2..2.5 overlap the closed window.
        assert_eq!(rank.get("states").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn dense_window_answers_with_preview() {
        let n = DETAIL_LIMIT as usize + 1;
        let svc = service(n);
        let v = Json::parse(&svc.query_json(TimeWindow::ALL, Some(&[0]))).unwrap();
        let rank = &v.get("ranks").unwrap().as_arr().unwrap()[0];
        assert_eq!(rank.get("mode").unwrap().as_str().unwrap(), "preview");
        let preview = rank.get("preview").unwrap().as_arr().unwrap();
        assert_eq!(preview[0].get("count").unwrap().as_u64().unwrap(), n as u64);
    }

    /// Two ranks and `n` arrows from rank 0 to rank 1, each 8 bytes.
    fn arrow_service(n: usize) -> TimelineService {
        let ds: Vec<Drawable> = (0..n)
            .map(|i| {
                Drawable::Arrow(slog2::ArrowDrawable {
                    category: CategoryId(0),
                    from_timeline: TimelineId(0),
                    to_timeline: TimelineId(1),
                    start: i as f64,
                    end: i as f64 + 0.5,
                    tag: 0,
                    size: 8,
                })
            })
            .collect();
        let range = TimeWindow::new(0.0, n as f64);
        TimelineService::from_file(Slog2File {
            timelines: vec!["PI_MAIN".into(), "P1".into()],
            categories: vec![Category {
                index: CategoryId(0),
                name: "message".into(),
                color: Color::WHITE,
                kind: CategoryKind::Arrow,
            }],
            range,
            warnings: vec![],
            tree: FrameTree::build(ds, range.t0, range.t1, 32, 12),
        })
    }

    #[test]
    fn arrows_past_the_limit_answer_with_per_peer_aggregates() {
        let limit = DETAIL_LIMIT as usize;
        let svc = arrow_service(limit);
        let v = Json::parse(&svc.query_json(TimeWindow::ALL, Some(&[0]))).unwrap();
        let row = &v.get("ranks").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("arrows").unwrap().as_arr().unwrap().len(), limit);
        assert!(row.get("arrow_mode").is_none());

        let svc = arrow_service(limit + 1);
        let w = TimeWindow::new(0.25, limit as f64);
        let sender = svc.query_json(w, Some(&[0]));
        assert!(
            sender.ends_with(concat!(
                r#""arrow_mode":"preview","arrow_preview":[{"peer":1,"dir":"out","#,
                r#""count":513,"bytes":4104,"start":0.25,"end":512}]}]}"#
            )),
            "{sender}"
        );
        assert!(!sender.contains(r#""arrows""#));
        let receiver = svc.query_json(w, Some(&[1]));
        assert!(
            receiver.contains(r#""arrow_preview":[{"peer":0,"dir":"in","count":513,"#),
            "{receiver}"
        );
    }

    #[test]
    fn tile_windows_partition_the_range() {
        let svc = service(4);
        let full = svc.file().range;
        for zoom in [0u8, 1, 3] {
            let n = 1u32 << zoom;
            let first = svc.tile_window(zoom, 0).unwrap();
            let last = svc.tile_window(zoom, n - 1).unwrap();
            assert!((first.t0 - full.t0).abs() < 1e-12);
            assert!((last.t1 - full.t1).abs() < 1e-9);
            assert!(svc.tile_window(zoom, n).is_none());
        }
        assert!(svc.tile_window(MAX_ZOOM + 1, 0).is_none());
    }

    #[test]
    fn tiles_cache_and_stay_byte_identical() {
        let svc = service(4);
        let cold = svc.tile_json(0, 2, 1).unwrap();
        let warm = svc.tile_json(0, 2, 1).unwrap();
        assert_eq!(cold, warm);
        let stats = Json::parse(&svc.stats_json()).unwrap();
        assert_eq!(stats.get("cache_hits").unwrap().as_u64().unwrap(), 1);
        assert_eq!(stats.get("cache_misses").unwrap().as_u64().unwrap(), 1);
    }

    #[test]
    fn render_dispatches_all_backends() {
        let svc = service(4);
        for (name, ct_prefix) in [
            ("svg", "image/svg"),
            ("ascii", "text/plain"),
            ("html", "text/html"),
            ("hist", "image/svg"),
        ] {
            let (ct, body) = svc.render(name, None, 640, false).unwrap();
            assert!(ct.starts_with(ct_prefix), "{name}");
            assert!(!body.is_empty(), "{name}");
        }
        assert!(svc.render("nope", None, 640, false).is_none());
    }

    #[test]
    fn load_rejects_garbage_and_missing_files() {
        let dir = std::env::temp_dir().join("timeline-svc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.pslog2");
        std::fs::write(&bad, b"not a slog2 file").unwrap();
        assert!(matches!(
            TimelineService::load(&bad),
            Err(Slog2Error::Wire(_))
        ));
        assert!(matches!(
            TimelineService::load(&dir.join("missing.pslog2")),
            Err(Slog2Error::Io(_))
        ));
    }

    #[test]
    fn load_roundtrips_a_written_file() {
        let svc = service(4);
        let dir = std::env::temp_dir().join("timeline-svc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ok.pslog2");
        svc.file().write_to(&path).unwrap();
        let loaded = TimelineService::load(&path).unwrap();
        assert_eq!(loaded.digest(), fnv1a(&svc.file().to_bytes()));
        assert_eq!(loaded.info_json(), svc.info_json());
    }
}
