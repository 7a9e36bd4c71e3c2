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
use std::sync::OnceLock;

use analysis::TraceAnalyzer;
use jumpshot::{renderer_by_name, PathOverlay, RenderOptions};
use obs::{ObsHandle, Phase};
use pilot_vis::json::Json;
use slog2::{fnv, Drawable, Slog2Error, Slog2File, TimeWindow};

use crate::cache::{TileCache, TileKey};
use crate::index::TimelineIndex;
use crate::obsplane::PhaseTimer;

/// Deepest zoom level the tile endpoint accepts (`2^24` tiles is far
/// below a second per tile on any real trace).
pub const MAX_ZOOM: u8 = 24;

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
    /// Windows with at most this many per-rank drawables answer in
    /// detail; denser windows answer with preview aggregates.
    pub detail_limit: usize,
    queries: AtomicU64,
    diagnosis: OnceLock<String>,
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
    diff: OnceLock<String>,
}

impl TimelineService {
    /// Load and validate a `.pslog2` file from disk.
    pub fn load(path: &Path) -> Result<TimelineService, Slog2Error> {
        let bytes = std::fs::read(path)?;
        let digest = fnv1a(&bytes);
        let file = Slog2File::from_bytes(&bytes)?;
        let defects = slog2::validate(&file);
        if !defects.is_empty() {
            return Err(Slog2Error::Validate(defects));
        }
        Ok(Self::with_digest(file, digest))
    }

    /// Serve an already-loaded file (digest computed from its bytes).
    pub fn from_file(file: Slog2File) -> TimelineService {
        let digest = fnv1a(&file.to_bytes());
        Self::with_digest(file, digest)
    }

    fn with_digest(file: Slog2File, digest: u64) -> TimelineService {
        Self::with_obs(file, digest, obs::Obs::handle())
    }

    /// Build a service reporting into an existing obs registry — the
    /// multi-trace path: every trace in one
    /// [`App`](crate::registry::App) shares the server's registry, so
    /// `/metrics` aggregates cache and query counters across tenants.
    pub fn with_obs(file: Slog2File, digest: u64, obs: ObsHandle) -> TimelineService {
        TimelineService {
            index: TimelineIndex::build(&file),
            cache: TileCache::new(4096, obs.clone()),
            obs,
            digest,
            detail_limit: 512,
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
    /// once and served from cache.
    pub fn diff_json(&self) -> Option<&str> {
        self.count_query();
        let b = self.baseline.as_ref()?;
        Some(
            b.diff.get_or_init(|| {
                diff::diff_traces(&b.file, &self.file, (&b.label, "served")).to_json()
            }),
        )
    }

    /// The loaded file.
    pub fn file(&self) -> &Slog2File {
        &self.file
    }

    /// The per-rank interval index.
    pub fn index(&self) -> &TimelineIndex {
        &self.index
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
            ("detail_limit".into(), Json::Num(self.detail_limit as f64)),
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
    /// detail (every state/event/arrow overlapping the window) or, past
    /// [`detail_limit`](Self::detail_limit), the preview aggregate the
    /// frame tree keeps per node — the zoomed-out colour-stripe data.
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
        let mut rows: Vec<Json> = Vec::with_capacity(ranks.len());
        for &r in ranks {
            if bounded && crate::deadline::expired() {
                return None;
            }
            rows.push(self.rank_json(r, w));
        }
        // Serializing the assembled tree is response-building work.
        let _render = PhaseTimer::start(Phase::Render);
        Some(
            Json::Obj(vec![
                ("window".into(), window_json(echo)),
                ("ranks".into(), Json::Arr(rows)),
            ])
            .compact(),
        )
    }

    fn rank_json(&self, rank: u32, w: TimeWindow) -> Json {
        // Index phase: every interval-index scan for this rank.
        let index_phase = PhaseTimer::start(Phase::Index);
        let arrows = self.index.rank_arrows(rank, w);
        let count = self.index.rank_count(rank, w);
        let detail = (count <= self.detail_limit).then(|| self.index.rank_drawables(rank, w));
        let preview = if detail.is_none() {
            Some(self.index.rank_preview(rank, w))
        } else {
            None
        };
        drop(index_phase);

        // Render phase: assembling the JSON tree from the gathered data.
        let _render = PhaseTimer::start(Phase::Render);
        let name = self
            .file
            .timelines
            .get(rank as usize)
            .cloned()
            .unwrap_or_default();
        let arrows: Vec<Json> = arrows
            .into_iter()
            .map(|a| {
                Json::Obj(vec![
                    ("category".into(), Json::Num(f64::from(a.category.as_u32()))),
                    (
                        "from".into(),
                        Json::Num(f64::from(a.from_timeline.as_u32())),
                    ),
                    ("to".into(), Json::Num(f64::from(a.to_timeline.as_u32()))),
                    ("start".into(), Json::Num(a.start)),
                    ("end".into(), Json::Num(a.end)),
                    ("tag".into(), Json::Num(a.tag as f64)),
                    ("size".into(), Json::Num(a.size as f64)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("rank".into(), Json::Num(rank as f64)),
            ("name".into(), Json::Str(name)),
            ("count".into(), Json::Num(count as f64)),
        ];
        if let Some(drawables) = detail {
            let mut states = Vec::new();
            let mut events = Vec::new();
            for d in drawables {
                match d {
                    Drawable::State(s) => states.push(Json::Obj(vec![
                        ("category".into(), Json::Num(f64::from(s.category.as_u32()))),
                        ("start".into(), Json::Num(s.start.max(w.t0))),
                        ("end".into(), Json::Num(s.end.min(w.t1))),
                        ("nest".into(), Json::Num(s.nest_level as f64)),
                        ("text".into(), Json::Str(s.text.clone())),
                    ])),
                    Drawable::Event(e) => events.push(Json::Obj(vec![
                        ("category".into(), Json::Num(f64::from(e.category.as_u32()))),
                        ("time".into(), Json::Num(e.time)),
                        ("text".into(), Json::Str(e.text.clone())),
                    ])),
                    Drawable::Arrow(_) => {}
                }
            }
            fields.push(("mode".into(), Json::Str("detail".into())));
            fields.push(("states".into(), Json::Arr(states)));
            fields.push(("events".into(), Json::Arr(events)));
        } else {
            let preview = preview.expect("preview gathered when not detail");
            fields.push(("mode".into(), Json::Str("preview".into())));
            fields.push((
                "preview".into(),
                Json::Arr(
                    preview
                        .entries
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("category".into(), Json::Num(f64::from(e.category.as_u32()))),
                                ("count".into(), Json::Num(e.count as f64)),
                                ("coverage".into(), Json::Num(e.coverage)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        fields.push(("arrows".into(), Json::Arr(arrows)));
        Json::Obj(fields)
    }

    /// `/v1/tile` — the cached form of [`query_json`](Self::query_json)
    /// for one rank over one tile of the zoom pyramid. `None` when the
    /// zoom or tile number is out of range.
    pub fn tile_json(&self, rank: u32, zoom: u8, tile: u32) -> Option<std::sync::Arc<String>> {
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
    /// computed once and cached.
    pub fn diagnose_json(&self) -> &str {
        self.count_query();
        self.diagnosis.get_or_init(|| {
            TraceAnalyzer::new(&self.file)
                .diagnose("serve")
                .to_json(&self.file)
        })
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
        let mut svc = service(100);
        svc.detail_limit = 10;
        let v = Json::parse(&svc.query_json(TimeWindow::ALL, Some(&[0]))).unwrap();
        let rank = &v.get("ranks").unwrap().as_arr().unwrap()[0];
        assert_eq!(rank.get("mode").unwrap().as_str().unwrap(), "preview");
        let preview = rank.get("preview").unwrap().as_arr().unwrap();
        assert_eq!(preview[0].get("count").unwrap().as_u64().unwrap(), 100);
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
