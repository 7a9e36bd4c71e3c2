//! Property tests for the timeline query service: the per-rank index
//! and the tile cache must be invisible — every answer byte-identical
//! to what a brute-force scan of the raw drawable list produces.

use std::collections::BTreeMap;
use std::sync::Arc;

use mpelog::Color;
use pilot_vis::json::Json;
use proptest::prelude::*;
use slog2::{
    ArrowDrawable, Category, CategoryId, CategoryKind, Drawable, EventDrawable, FrameTree,
    Slog2File, StateDrawable, TimeWindow, TimelineId,
};
use timeline::{TimelineIndex, TimelineService};

const T_MAX: f64 = 100.0;
const NRANKS: u32 = 4;

fn arb_drawable() -> impl Strategy<Value = Drawable> {
    prop_oneof![
        (0u32..3, 0u32..NRANKS, 0f64..90.0, 0f64..8.0).prop_map(|(cat, tl, start, dur)| {
            Drawable::State(StateDrawable {
                category: CategoryId(cat),
                timeline: TimelineId(tl),
                start,
                end: start + dur,
                nest_level: 0,
                text: String::new(),
            })
        }),
        (0u32..NRANKS, 0f64..T_MAX).prop_map(|(tl, t)| {
            Drawable::Event(EventDrawable {
                category: CategoryId(3),
                timeline: TimelineId(tl),
                time: t,
                text: String::new(),
            })
        }),
        (
            (0u32..NRANKS, 0u32..NRANKS),
            0f64..90.0,
            0f64..8.0,
            0u32..100,
            1u32..4096,
            any::<bool>()
        )
            .prop_map(|((from, to), start, dur, tag, size, backward)| {
                // A backward arrow is received before it is sent (the
                // clock skew the converter keeps, not repairs).
                let (start, end) = if backward {
                    (start + dur, start)
                } else {
                    (start, start + dur)
                };
                Drawable::Arrow(ArrowDrawable {
                    category: CategoryId(4),
                    from_timeline: TimelineId(from),
                    to_timeline: TimelineId(to),
                    start,
                    end,
                    tag,
                    size,
                })
            }),
    ]
}

/// `n` arrows touching rank `rank`, spread over the range: to and from
/// every rank in turn (itself included), every third one backward.
fn dense_arrows(rank: u32, n: usize) -> impl Iterator<Item = Drawable> {
    (0..n).map(move |i| {
        let peer = (rank + i as u32) % NRANKS;
        let (from, to) = if i % 2 == 0 {
            (rank, peer)
        } else {
            (peer, rank)
        };
        let t = 90.0 * i as f64 / n as f64;
        let (start, end) = if i % 3 == 0 {
            (t + 0.7, t)
        } else {
            (t, t + 0.7)
        };
        Drawable::Arrow(ArrowDrawable {
            category: CategoryId(4),
            from_timeline: TimelineId(from),
            to_timeline: TimelineId(to),
            start,
            end,
            tag: i as u32,
            size: 7 * i as u32 + 1,
        })
    })
}

fn file(ds: Vec<Drawable>) -> Slog2File {
    named_file(ds, (0..NRANKS).map(|r| format!("P{r}")).collect())
}

fn named_file(ds: Vec<Drawable>, timelines: Vec<String>) -> Slog2File {
    let kinds = [
        ("Compute", CategoryKind::State, Color::GRAY),
        ("PI_Read", CategoryKind::State, Color::GREEN),
        ("PI_Write", CategoryKind::State, Color::STEEL_BLUE),
        ("msg arrival", CategoryKind::Event, Color::YELLOW),
        ("message", CategoryKind::Arrow, Color::WHITE),
    ];
    Slog2File {
        timelines,
        categories: kinds
            .iter()
            .enumerate()
            .map(|(i, (name, kind, color))| Category {
                index: CategoryId(i as u32),
                name: (*name).into(),
                color: *color,
                kind: *kind,
            })
            .collect(),
        range: TimeWindow::new(0.0, T_MAX),
        warnings: vec![],
        tree: FrameTree::build(ds, 0.0, T_MAX, 16, 12),
    }
}

/// Text that needs every kind of JSON escape: quotes, backslashes,
/// `\n\r\t`, other control characters, and multibyte UTF-8.
fn arb_text() -> impl Strategy<Value = String> {
    let c = prop_oneof![
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\r'),
        Just('\t'),
        Just('\u{0}'),
        Just('\u{8}'),
        Just('\u{1f}'),
        Just('\u{7f}'),
        Just('é'),
        Just('\u{2028}'),
        Just('🦀'),
        (b' '..b'{').prop_map(char::from),
    ];
    proptest::collection::vec(c, 0..6).prop_map(|cs| cs.into_iter().collect::<String>())
}

/// A time that is sometimes integral, so both number paths run.
fn arb_time() -> impl Strategy<Value = f64> {
    prop_oneof![0f64..90.0, (0u32..90).prop_map(f64::from)]
}

/// Drawables with escaped texts and full-width arrow tags and sizes.
fn arb_rich_drawable() -> impl Strategy<Value = Drawable> {
    prop_oneof![
        (
            0u32..3,
            0u32..NRANKS,
            arb_time(),
            0f64..8.0,
            0u32..3,
            arb_text()
        )
            .prop_map(|(cat, tl, start, dur, nest, text)| {
                Drawable::State(StateDrawable {
                    category: CategoryId(cat),
                    timeline: TimelineId(tl),
                    start,
                    end: start + dur,
                    nest_level: nest,
                    text,
                })
            }),
        (0u32..NRANKS, arb_time(), arb_text()).prop_map(|(tl, time, text)| {
            Drawable::Event(EventDrawable {
                category: CategoryId(3),
                timeline: TimelineId(tl),
                time,
                text,
            })
        }),
        (
            (0u32..NRANKS, 0u32..NRANKS),
            arb_time(),
            0f64..8.0,
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|((from, to), start, dur, tag, size)| {
                Drawable::Arrow(ArrowDrawable {
                    category: CategoryId(4),
                    from_timeline: TimelineId(from),
                    to_timeline: TimelineId(to),
                    start,
                    end: start + dur,
                    tag,
                    size,
                })
            }),
    ]
}

/// Windows that clip drawables, that cover the whole range, that reach
/// past it, and that are infinite.
fn arb_window() -> impl Strategy<Value = TimeWindow> {
    prop_oneof![
        (0f64..T_MAX, 0f64..60.0).prop_map(|(a, span)| TimeWindow::new(a, a + span)),
        (0u32..100, 0u32..40)
            .prop_map(|(a, span)| TimeWindow::new(f64::from(a), f64::from(a + span))),
        Just(TimeWindow::new(0.0, T_MAX)),
        Just(TimeWindow::new(-50.0, 2.0 * T_MAX)),
        Just(TimeWindow::ALL),
    ]
}

/// The detail limit the reference switches on; checked against
/// `/v1/info`.
const DETAIL_LIMIT: u64 = 512;

/// The `/v1/query` body built as a `Json` tree per rank and printed
/// with `compact()`: the reference the service's hand-written bytes
/// must equal.
fn reference_query(f: &Slog2File, w: TimeWindow, ranks: Option<&[u32]>) -> String {
    let index = TimelineIndex::build(f);
    let echo = TimeWindow {
        t0: if w.t0.is_finite() { w.t0 } else { f.range.t0 },
        t1: if w.t1.is_finite() { w.t1 } else { f.range.t1 },
    };
    let all: Vec<u32> = (0..index.nranks() as u32).collect();
    let rows = ranks
        .unwrap_or(&all)
        .iter()
        .map(|&r| reference_rank(f, &index, r, w))
        .collect();
    Json::Obj(vec![
        (
            "window".into(),
            Json::Arr(vec![Json::Num(echo.t0), Json::Num(echo.t1)]),
        ),
        ("ranks".into(), Json::Arr(rows)),
    ])
    .compact()
}

/// One (peer, direction)'s arrows: count, summed sizes, earliest start
/// and latest end, clipped to the window.
type BruteAgg = (u64, u64, f64, f64);

/// Rank `rank`'s arrows over `w`, aggregated per (peer, direction) by
/// one pass over the file's flat drawable list — no index, no tree.
fn brute_arrow_preview(
    ds: &[&Drawable],
    rank: u32,
    w: TimeWindow,
) -> BTreeMap<(u32, &'static str), BruteAgg> {
    let mut agg: BTreeMap<(u32, &'static str), BruteAgg> = BTreeMap::new();
    for d in ds {
        let Drawable::Arrow(a) = d else { continue };
        if !w.overlaps(d) {
            continue;
        }
        let (from, to) = (a.from_timeline.as_u32(), a.to_timeline.as_u32());
        let key = if from == rank {
            (to, "out")
        } else if to == rank {
            (from, "in")
        } else {
            continue;
        };
        let e = agg
            .entry(key)
            .or_insert((0, 0, f64::INFINITY, f64::NEG_INFINITY));
        e.0 += 1;
        e.1 += u64::from(a.size);
        e.2 = e.2.min(d.start());
        e.3 = e.3.max(d.end());
    }
    for e in agg.values_mut() {
        e.2 = e.2.max(w.t0);
        e.3 = e.3.min(w.t1);
    }
    agg
}

fn reference_rank(f: &Slog2File, index: &TimelineIndex, rank: u32, w: TimeWindow) -> Json {
    let flat = f.tree.query(TimeWindow::ALL);
    let touching = flat
        .iter()
        .filter(|d| w.overlaps(d))
        .filter(|d| {
            matches!(d, Drawable::Arrow(a)
            if a.from_timeline.as_u32() == rank || a.to_timeline.as_u32() == rank)
        })
        .count();
    let aggregate = brute_arrow_preview(&flat, rank, w);
    assert_eq!(
        aggregate.values().map(|e| e.0).sum::<u64>(),
        touching as u64,
        "the aggregate counts the naive endpoint filter"
    );
    let preview = index.rank_preview(rank, w);
    let count = preview.total_count();
    let detail = (count <= DETAIL_LIMIT).then(|| index.rank_drawables(rank, w));
    let name = f.timelines.get(rank as usize).cloned().unwrap_or_default();
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
    if touching as u64 <= DETAIL_LIMIT {
        let arrows = index
            .rank_arrows(rank, w)
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
        fields.push(("arrows".into(), Json::Arr(arrows)));
    } else {
        let entries = aggregate
            .into_iter()
            .map(|((peer, dir), (count, bytes, start, end))| {
                Json::Obj(vec![
                    ("peer".into(), Json::Num(f64::from(peer))),
                    ("dir".into(), Json::Str(dir.into())),
                    ("count".into(), Json::Num(count as f64)),
                    ("bytes".into(), Json::Num(bytes as f64)),
                    ("start".into(), Json::Num(start)),
                    ("end".into(), Json::Num(end)),
                ])
            })
            .collect();
        fields.push(("arrow_mode".into(), Json::Str("preview".into())));
        fields.push(("arrow_preview".into(), Json::Arr(entries)));
    }
    Json::Obj(fields)
}

fn sorted_dbg(ds: &[&Drawable]) -> Vec<String> {
    let mut v: Vec<String> = ds.iter().map(|d| format!("{d:?}")).collect();
    v.sort();
    v
}

proptest! {
    /// The index answers any window exactly like a naive filter over
    /// the flat drawable list — states, events, and arrows alike.
    #[test]
    fn index_query_equals_naive_filter(
        ds in proptest::collection::vec(arb_drawable(), 0..250),
        a in 0f64..T_MAX,
        span in 0f64..60.0,
    ) {
        let f = file(ds.clone());
        let idx = TimelineIndex::build(&f);
        let w = TimeWindow::new(a, a + span);
        let want: Vec<&Drawable> = ds.iter().filter(|d| w.overlaps(d)).collect();
        prop_assert_eq!(sorted_dbg(&idx.drawables_in(w)), sorted_dbg(&want));
        prop_assert_eq!(idx.preview_in(w).entries.iter().map(|e| e.count).sum::<u64>(),
                        want.len() as u64);
    }

    /// Per-rank queries partition the naive filter by timeline; arrow
    /// queries match either endpoint.
    #[test]
    fn rank_queries_equal_naive_rank_filter(
        ds in proptest::collection::vec(arb_drawable(), 0..250),
        a in 0f64..T_MAX,
        span in 0f64..60.0,
        rank in 0u32..NRANKS,
    ) {
        let f = file(ds.clone());
        let idx = TimelineIndex::build(&f);
        let w = TimeWindow::new(a, a + span);
        let want: Vec<&Drawable> = ds
            .iter()
            .filter(|d| w.overlaps(d))
            .filter(|d| match d {
                Drawable::State(s) => s.timeline.as_u32() == rank,
                Drawable::Event(e) => e.timeline.as_u32() == rank,
                Drawable::Arrow(_) => false,
            })
            .collect();
        prop_assert_eq!(sorted_dbg(&idx.rank_drawables(rank, w)), sorted_dbg(&want));
        prop_assert_eq!(idx.rank_preview(rank, w).total_count(), want.len() as u64);
        let want_arrows = ds
            .iter()
            .filter(|d| w.overlaps(d))
            .filter(|d| matches!(d, Drawable::Arrow(x)
                if x.from_timeline.as_u32() == rank || x.to_timeline.as_u32() == rank))
            .count();
        prop_assert_eq!(idx.rank_arrows(rank, w).len(), want_arrows);
    }

    /// A cache hit returns the byte-identical body a cold service
    /// computes for the same tile — the cache is invisible.
    #[test]
    fn cached_tiles_are_byte_identical_to_cold_queries(
        ds in proptest::collection::vec(arb_drawable(), 0..150),
        zoom in 0u8..6,
        tile_seed in 0u32..64,
        rank in 0u32..NRANKS,
    ) {
        let tile = tile_seed % (1u32 << zoom);
        let warm_svc = TimelineService::from_file(file(ds.clone()));
        let cold_svc = TimelineService::from_file(file(ds));
        let first = warm_svc.tile_json(rank, zoom, tile).unwrap();
        let second = warm_svc.tile_json(rank, zoom, tile).unwrap();
        prop_assert_eq!(&*first, &*second);
        // An entirely separate service (its own empty cache) computes
        // the same bytes from scratch.
        let cold = cold_svc.tile_json(rank, zoom, tile).unwrap();
        prop_assert_eq!(&*first, &*cold);
        // And the tile body is exactly the uncached window query.
        let w = warm_svc.tile_window(zoom, tile).unwrap();
        prop_assert_eq!(&*first, &warm_svc.query_json(w, Some(&[rank])));
    }

    /// The HTTP route layer adds nothing: a routed query body equals
    /// the in-process call with the same parameters.
    #[test]
    fn routed_queries_equal_in_process_calls(
        ds in proptest::collection::vec(arb_drawable(), 0..150),
        a in 0f64..T_MAX,
        span in 0f64..60.0,
        rank in 0u32..NRANKS,
    ) {
        let app = timeline::App::single(TimelineService::from_file(file(ds)));
        let svc = app.registry().default_trace();
        let w = TimeWindow::new(a, a + span);
        let (status, _, body) =
            timeline::route(&app, &format!("/v1/query?t0={}&t1={}&ranks={rank}", w.t0, w.t1));
        prop_assert_eq!(status, 200);
        prop_assert_eq!(&*body, &svc.service.query_json(w, Some(&[rank])));
        let (status, _, tile) = timeline::route(&app, "/v1/tile?rank=0&zoom=3&tile=2");
        prop_assert_eq!(status, 200);
        // The route answers with the cached body itself, not a copy.
        prop_assert!(Arc::ptr_eq(&tile, &svc.service.tile_json(0, 3, 2).unwrap()));
    }

    /// `/v1/query` and `/v1/tile` bodies, written straight into one
    /// buffer, equal the `Json` tree the service used to build — for
    /// texts and names that need escaping, full-width integers, windows
    /// that clip and windows that do not, detail and preview ranks,
    /// listed and aggregated arrows, and ranks out of range.
    #[test]
    fn written_bodies_equal_the_json_tree(
        ds in proptest::collection::vec(arb_rich_drawable(), 0..120),
        names in proptest::collection::vec(arb_text(), NRANKS as usize),
        bulk in (0u32..NRANKS, 0usize..1500, arb_text()),
        arrow_bulk in (0u32..NRANKS, 0usize..1500),
        w in arb_window(),
        ranks in proptest::collection::vec(0u32..NRANKS + 2, 0..5),
        zoom in 0u8..4,
        tile_seed in 0u32..8,
    ) {
        // One rank dense in states and one in arrows: more than the
        // detail limit in wide windows.
        let (dense, n, text) = bulk;
        let (arrow_dense, arrow_n) = arrow_bulk;
        let mut ds = ds;
        ds.extend(dense_arrows(arrow_dense, arrow_n));
        ds.extend((0..n).map(|i| {
            Drawable::State(StateDrawable {
                category: CategoryId(i as u32 % 3),
                timeline: TimelineId(dense),
                start: 90.0 * i as f64 / n as f64,
                end: 90.0 * i as f64 / n as f64 + 0.5,
                nest_level: 0,
                text: text.clone(),
            })
        }));
        let svc = TimelineService::from_file(named_file(ds, names));
        let info = Json::parse(&svc.info_json()).unwrap();
        prop_assert_eq!(info.get("detail_limit").unwrap().as_u64(), Some(DETAIL_LIMIT));
        let f = svc.file();
        for ranks in [None, Some(&ranks[..])] {
            prop_assert_eq!(svc.query_json(w, ranks), reference_query(f, w, ranks));
            let bounded = svc.query_json_bounded(w, ranks);
            prop_assert_eq!(bounded, Some(reference_query(f, w, ranks)));
        }
        let tile = tile_seed % (1 << zoom);
        let tw = svc.tile_window(zoom, tile).unwrap();
        for rank in [dense, arrow_dense, NRANKS] {
            let body = svc.tile_json(rank, zoom, tile).unwrap();
            prop_assert_eq!(&*body, &reference_query(f, tw, Some(&[rank])));
        }
    }

    /// A rank's per-peer arrow aggregate over any window equals one
    /// pass over the flat drawable list, and its count equals the
    /// naive endpoint filter — for windows that clip, backward arrows,
    /// self-messages, ranks with several peers, and counts on both
    /// sides of the detail limit.
    #[test]
    fn arrow_preview_equals_brute_force_aggregate(
        ds in proptest::collection::vec(arb_drawable(), 0..250),
        arrow_bulk in (0u32..NRANKS, 0usize..1500),
        w in arb_window(),
        rank in 0u32..NRANKS + 1,
    ) {
        let (dense, n) = arrow_bulk;
        let mut ds = ds;
        ds.extend(dense_arrows(dense, n));
        let f = file(ds.clone());
        let idx = TimelineIndex::build(&f);
        let got = idx.rank_arrow_preview(rank, w);
        let flat: Vec<&Drawable> = ds.iter().collect();
        let want: Vec<(u32, &str, BruteAgg)> = brute_arrow_preview(&flat, rank, w)
            .into_iter()
            .map(|((peer, dir), agg)| (peer, dir, agg))
            .collect();
        let got_entries: Vec<(u32, &str, BruteAgg)> = got
            .entries
            .iter()
            .map(|e| {
                let a = e.agg;
                (e.peer, e.dir.as_str(), (a.count, a.bytes, a.start, a.end))
            })
            .collect();
        prop_assert_eq!(got_entries, want);
        let naive = ds
            .iter()
            .filter(|d| w.overlaps(d))
            .filter(|d| matches!(d, Drawable::Arrow(a)
                if a.from_timeline.as_u32() == rank || a.to_timeline.as_u32() == rank))
            .count();
        prop_assert_eq!(got.total_count(), naive as u64);
        prop_assert_eq!(idx.rank_arrows(rank, w).len(), naive);
    }
}
