//! Property tests for the timeline query service: the per-rank index
//! and the tile cache must be invisible — every answer byte-identical
//! to what a brute-force scan of the raw drawable list produces.

use mpelog::Color;
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
            0u32..NRANKS,
            0u32..NRANKS,
            0f64..90.0,
            0f64..8.0,
            0u32..100,
            1u32..4096
        )
            .prop_map(|(from, to, start, dur, tag, size)| {
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

fn file(ds: Vec<Drawable>) -> Slog2File {
    let kinds = [
        ("Compute", CategoryKind::State, Color::GRAY),
        ("PI_Read", CategoryKind::State, Color::GREEN),
        ("PI_Write", CategoryKind::State, Color::STEEL_BLUE),
        ("msg arrival", CategoryKind::Event, Color::YELLOW),
        ("message", CategoryKind::Arrow, Color::WHITE),
    ];
    Slog2File {
        timelines: (0..NRANKS).map(|r| format!("P{r}")).collect(),
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
        prop_assert_eq!(body, svc.service.query_json(w, Some(&[rank])));
        let (status, _, tile) = timeline::route(&app, "/v1/tile?rank=0&zoom=3&tile=2");
        prop_assert_eq!(status, 200);
        prop_assert_eq!(&tile, &*svc.service.tile_json(0, 3, 2).unwrap());
    }
}
