//! Property tests: frame-tree invariants, container round trips, and
//! conversion against randomized logs.

use mpelog::record::Record;
use mpelog::{Clog2File, Color, Logger};
use proptest::prelude::*;
use slog2::{
    legend_stats, ConvertWarning, Converter, Drawable, FailureKind, FrameTree, RankVerdict,
    SalvageReport, Slog2File, TimeWindow, TornPolicy, TraceSource,
};
use slog2::{Category, CategoryId, CategoryKind, EventDrawable, StateDrawable, TimelineId};

/// One-shot in-memory conversion with default settings.
fn convert_mem(clog: &Clog2File) -> (Slog2File, Vec<ConvertWarning>) {
    let c = Converter::new()
        .convert(TraceSource::InMemory(clog))
        .expect("in-memory source cannot fail");
    (c.file, c.warnings)
}

fn arb_drawable() -> impl Strategy<Value = Drawable> {
    prop_oneof![
        (0u32..4, 0u32..4, 0f64..100.0, 0f64..5.0).prop_map(|(cat, tl, start, dur)| {
            Drawable::State(StateDrawable {
                category: CategoryId(cat),
                timeline: TimelineId(tl),
                start,
                end: start + dur,
                nest_level: 0,
                text: String::new(),
            })
        }),
        (4u32..6, 0u32..4, 0f64..105.0).prop_map(|(cat, tl, t)| {
            Drawable::Event(EventDrawable {
                category: CategoryId(cat),
                timeline: TimelineId(tl),
                time: t,
                text: String::new(),
            })
        }),
    ]
}

proptest! {
    #[test]
    fn tree_holds_every_drawable_exactly_once(
        ds in proptest::collection::vec(arb_drawable(), 0..300),
        capacity in 1usize..64,
    ) {
        let tree = FrameTree::build(ds.clone(), 0.0, 105.0, capacity, 12);
        prop_assert_eq!(tree.total_drawables(), ds.len());
        // Every original drawable is found by a full-range query.
        let hits = tree.query(TimeWindow::ALL);
        prop_assert_eq!(hits.len(), ds.len());
    }

    #[test]
    fn tree_nodes_contain_their_drawables(
        ds in proptest::collection::vec(arb_drawable(), 0..200),
        capacity in 1usize..32,
    ) {
        let tree = FrameTree::build(ds, 0.0, 105.0, capacity, 12);
        tree.visit(&mut |node| {
            for d in &node.drawables {
                assert!(node.t0 <= d.start() && d.end() <= node.t1);
            }
            if let Some(ch) = &node.children {
                assert_eq!(ch.0.t0, node.t0);
                assert_eq!(ch.0.t1, ch.1.t0);
                assert_eq!(ch.1.t1, node.t1);
            }
        });
    }

    #[test]
    fn tree_query_equals_naive_filter(
        ds in proptest::collection::vec(arb_drawable(), 0..200),
        a in 0f64..105.0,
        span in 0f64..50.0,
    ) {
        let w = TimeWindow::new(a, a + span);
        let tree = FrameTree::build(ds.clone(), 0.0, 105.0, 8, 12);
        let mut got: Vec<String> = tree.query(w).iter().map(|d| format!("{d:?}")).collect();
        let mut want: Vec<String> = ds
            .iter()
            .filter(|d| w.overlaps(d))
            .map(|d| format!("{d:?}"))
            .collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// The one boundary-inclusivity rule: a drawable overlaps `[a, b]`
    /// iff `start <= b && end >= a` — closed on both sides. Checked
    /// against the trait path, the window helpers, and the edges.
    #[test]
    fn window_inclusivity_is_closed_on_both_sides(
        ds in proptest::collection::vec(arb_drawable(), 0..100),
        a in 0f64..105.0,
        span in 0f64..50.0,
    ) {
        let w = TimeWindow::new(a, a + span);
        for d in &ds {
            let want = d.start() <= w.t1 && d.end() >= w.t0;
            prop_assert_eq!(w.overlaps(d), want);
            // A zero-span window sitting exactly on a drawable's start
            // or end must hit it (touching counts).
            prop_assert!(TimeWindow::new(d.start(), d.start()).overlaps(d));
            prop_assert!(TimeWindow::new(d.end(), d.end()).overlaps(d));
        }
        // `count_in` agrees with the rule.
        let tree = FrameTree::build(ds.clone(), 0.0, 105.0, 8, 12);
        let want = ds.iter().filter(|d| w.overlaps(d)).count();
        prop_assert_eq!(tree.count_in(w), want);
    }

    /// `window_preview` (which may shortcut through precomputed node
    /// aggregates) counts exactly the drawables the full scan finds, and
    /// its coverage equals the sum of clipped durations.
    #[test]
    fn window_preview_equals_naive_clip(
        ds in proptest::collection::vec(arb_drawable(), 0..150),
        a in 0f64..105.0,
        span in 0f64..105.0,
        capacity in 1usize..32,
    ) {
        let w = TimeWindow::new(a, a + span);
        let tree = FrameTree::build(ds.clone(), 0.0, 105.0, capacity, 12);
        let p = tree.window_preview(w);
        let want_count = ds.iter().filter(|d| w.overlaps(d)).count() as u64;
        prop_assert_eq!(p.total_count(), want_count);
        let want_cov: f64 = ds
            .iter()
            .filter(|d| w.overlaps(d))
            .map(|d| w.clip_span(d.start(), d.end()))
            .sum();
        let got = p.total_coverage();
        prop_assert!((got - want_cov).abs() < 1e-9 * (1.0 + want_cov.abs()),
            "{got} vs {want_cov}");
    }

    #[test]
    fn root_preview_counts_and_coverage_match(
        ds in proptest::collection::vec(arb_drawable(), 0..150),
    ) {
        let tree = FrameTree::build(ds.clone(), 0.0, 105.0, 8, 12);
        prop_assert_eq!(tree.root.preview.total_count(), ds.len() as u64);
        let want: f64 = ds.iter().map(|d| d.duration()).sum();
        let got = tree.root.preview.total_coverage();
        prop_assert!((got - want).abs() < 1e-9 * (1.0 + want.abs()));
    }

    #[test]
    fn slog_file_roundtrips(
        ds in proptest::collection::vec(arb_drawable(), 0..150),
        capacity in 1usize..32,
    ) {
        let categories: Vec<Category> = (0..6)
            .map(|i| Category {
                index: CategoryId(i),
                name: format!("cat{i}"),
                color: Color::GRAY,
                kind: if i < 4 { CategoryKind::State } else { CategoryKind::Event },
            })
            .collect();
        let file = Slog2File {
            timelines: (0..4).map(|r| format!("P{r}")).collect(),
            categories,
            range: TimeWindow::new(0.0, 105.0),
            warnings: vec!["w".into()],
            tree: FrameTree::build(ds, 0.0, 105.0, capacity, 12),
        };
        let back = Slog2File::from_bytes(&file.to_bytes()).unwrap();
        prop_assert_eq!(back, file);
    }

    #[test]
    fn truncated_slog_never_panics(
        ds in proptest::collection::vec(arb_drawable(), 0..40),
        frac in 0f64..1.0,
    ) {
        let file = Slog2File {
            timelines: vec!["P0".into()],
            categories: vec![],
            range: TimeWindow::new(0.0, 105.0),
            warnings: vec![],
            tree: FrameTree::build(ds, 0.0, 105.0, 8, 8),
        };
        let bytes = file.to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let _ = Slog2File::from_bytes(&bytes[..cut]); // must not panic
    }

    #[test]
    fn legend_inclusive_matches_raw_durations(
        ds in proptest::collection::vec(arb_drawable(), 0..150),
    ) {
        let categories: Vec<Category> = (0..6)
            .map(|i| Category {
                index: CategoryId(i),
                name: format!("cat{i}"),
                color: Color::GRAY,
                kind: CategoryKind::State,
            })
            .collect();
        let file = Slog2File {
            timelines: (0..4).map(|r| format!("P{r}")).collect(),
            categories,
            range: TimeWindow::new(0.0, 105.0),
            warnings: vec![],
            tree: FrameTree::build(ds.clone(), 0.0, 105.0, 16, 10),
        };
        let stats = legend_stats(&file);
        for cat in (0..6u32).map(CategoryId) {
            let want: f64 = ds
                .iter()
                .filter(|d| d.category() == cat)
                .map(|d| d.duration())
                .sum();
            let got = stats[&cat].inclusive;
            prop_assert!((got - want).abs() < 1e-9 * (1.0 + want.abs()),
                "cat {cat}: {got} vs {want}");
            // Exclusive never exceeds inclusive and never goes negative
            // by more than rounding.
            prop_assert!(stats[&cat].exclusive <= got + 1e-9);
        }
    }
}

// Build a random-but-well-formed log through the Logger API and check
// the converter pairs everything without warnings.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conversion_of_well_formed_logs_is_warning_free(
        calls_per_rank in proptest::collection::vec(1usize..20, 2..4),
    ) {
        let nranks = calls_per_rank.len();
        let mut blocks = std::collections::BTreeMap::new();
        let mut defs = None;
        for (r, &calls) in calls_per_rank.iter().enumerate() {
            let mut lg = Logger::new(r);
            let (s_id, e_id) = lg.define_state("call", Color::GREEN);
            let solo = lg.define_event("tick", Color::YELLOW);
            let mut t = r as f64 * 0.001;
            for i in 0..calls {
                lg.log_event(t, s_id, "Line: 1");
                t += 0.01;
                if i % 3 == 0 {
                    lg.log_event(t, solo, "");
                    t += 0.001;
                }
                lg.log_event(t, e_id, "");
                t += 0.005;
            }
            if defs.is_none() {
                defs = Some((lg.state_defs().to_vec(), lg.event_defs().to_vec()));
            }
            blocks.insert(r as u32, lg.records().to_vec());
        }
        let (state_defs, event_defs) = defs.unwrap();
        let clog = Clog2File { nranks: nranks as u32, state_defs, event_defs, blocks };
        let (file, warnings) = convert_mem(&clog);
        prop_assert!(warnings.is_empty(), "{warnings:?}");
        let want_states: usize = calls_per_rank.iter().sum();
        let stats = legend_stats(&file);
        let cat = file.category_by_name("call").unwrap().index;
        prop_assert_eq!(stats[&cat].count as usize, want_states);
    }

    #[test]
    fn conversion_of_shuffled_raw_records_never_panics(
        records in proptest::collection::vec(
            prop_oneof![
                (0f64..10.0, 0u32..8).prop_map(|(ts, id)| Record::Event {
                    ts,
                    id: mpelog::ids::EventId(id),
                    text: String::new(),
                }),
                (0f64..10.0, 0u32..3, 0u32..5, 0u32..64).prop_map(|(ts, dst, tag, size)| {
                    Record::Send { ts, dst, tag, size }
                }),
                (0f64..10.0, 0u32..3, 0u32..5, 0u32..64).prop_map(|(ts, src, tag, size)| {
                    Record::Recv { ts, src, tag, size }
                }),
            ],
            0..60,
        ),
    ) {
        // Arbitrary (possibly ill-formed) record streams: the converter
        // must classify problems as warnings, never panic, and its
        // output must still serialize.
        let mut lg = Logger::new(0);
        let _ = lg.define_state("s", Color::RED);
        let _ = lg.define_event("e", Color::YELLOW);
        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert(0u32, records);
        let clog = Clog2File {
            nranks: 3,
            state_defs: lg.state_defs().to_vec(),
            event_defs: lg.event_defs().to_vec(),
            blocks,
        };
        let (file, _warnings) = convert_mem(&clog);
        let back = Slog2File::from_bytes(&file.to_bytes()).unwrap();
        prop_assert_eq!(back.total_drawables(), file.total_drawables());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn converted_files_always_validate(
        records in proptest::collection::vec(
            prop_oneof![
                (0f64..10.0, 0u32..6).prop_map(|(ts, id)| Record::Event {
                    ts,
                    id: mpelog::ids::EventId(id),
                    text: String::new(),
                }),
                (0f64..10.0, 0u32..3, 0u32..5, 0u32..64).prop_map(|(ts, dst, tag, size)| {
                    Record::Send { ts, dst, tag, size }
                }),
                (0f64..10.0, 0u32..3, 0u32..5, 0u32..64).prop_map(|(ts, src, tag, size)| {
                    Record::Recv { ts, src, tag, size }
                }),
            ],
            0..60,
        ),
    ) {
        // Whatever garbage goes in, the converter's output must be a
        // structurally sound SLOG2 file (defects become warnings, never
        // broken geometry) — the "defective file" guarantee.
        let mut lg = Logger::new(0);
        let _ = lg.define_state("s", Color::RED);
        let _ = lg.define_event("e", Color::YELLOW);
        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert(0u32, records);
        let clog = Clog2File {
            nranks: 3,
            state_defs: lg.state_defs().to_vec(),
            event_defs: lg.event_defs().to_vec(),
            blocks,
        };
        let (file, _warnings) = convert_mem(&clog);
        let defects = slog2::validate(&file);
        prop_assert!(defects.is_empty(), "{defects:?}");
    }
}

// Conversion determinism: for any generated log — varying rank counts,
// nesting depth, unmatched sends/recvs, quantized clocks that force
// Equal Drawables — every way of driving the converter must produce a
// file byte-identical to the serial in-memory one: every thread count,
// every `TraceSource` kind, and the out-of-core writer at every memory
// budget. This is the tentpole invariant of the `Converter` API.

/// Unique temp-file suffix per proptest case (cases run concurrently).
fn case_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

fn prop_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("slog2-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn arb_rank_records() -> impl Strategy<Value = Vec<Vec<Record>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![
                // Quantized clock (1 ms grid): repeats collide into
                // bit-identical intervals. Ids 0..8 cover state
                // start/end pairs, the solo event, and undefined ids.
                (0u64..500, 0u32..8).prop_map(|(q, id)| Record::Event {
                    ts: q as f64 * 1e-3,
                    id: mpelog::ids::EventId(id),
                    text: String::new(),
                }),
                (0u64..500, 0u32..6, 0u32..4, 0u32..32).prop_map(|(q, dst, tag, size)| {
                    Record::Send {
                        ts: q as f64 * 1e-3,
                        dst,
                        tag,
                        size,
                    }
                }),
                (0u64..500, 0u32..6, 0u32..4, 0u32..32).prop_map(|(q, src, tag, size)| {
                    Record::Recv {
                        ts: q as f64 * 1e-3,
                        src,
                        tag,
                        size,
                    }
                }),
            ],
            0..80,
        ),
        1..6,
    )
}

fn clog_from(per_rank: Vec<Vec<Record>>) -> Clog2File {
    let mut lg = Logger::new(0);
    let _ = lg.define_state("outer", Color::RED);
    let _ = lg.define_state("inner", Color::GREEN);
    let _ = lg.define_event("tick", Color::YELLOW);
    let nranks = per_rank.len() as u32;
    let mut blocks = std::collections::BTreeMap::new();
    for (r, records) in per_rank.into_iter().enumerate() {
        blocks.insert(r as u32, records);
    }
    Clog2File {
        nranks,
        state_defs: lg.state_defs().to_vec(),
        event_defs: lg.event_defs().to_vec(),
        blocks,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_source_thread_count_and_budget_is_byte_identical(
        per_rank in arb_rank_records(),
    ) {
        let clog = clog_from(per_rank);
        let baseline = Converter::new()
            .parallelism(1)
            .convert(TraceSource::InMemory(&clog))
            .unwrap();
        let want = baseline.file.to_bytes();
        let clog_bytes = clog.to_bytes();
        let dir = prop_dir();
        let case = case_id();
        let clog_path = dir.join(format!("case-{case}.pclog2"));
        std::fs::write(&clog_path, &clog_bytes).unwrap();

        for threads in [1usize, 2, 8] {
            let conv = Converter::new().parallelism(threads);
            let m = conv.convert(TraceSource::InMemory(&clog)).unwrap();
            prop_assert_eq!(&m.warnings, &baseline.warnings, "warnings, {} threads", threads);
            prop_assert_eq!(m.file.to_bytes(), want.clone(), "InMemory, {} threads", threads);
            let b = conv.convert(TraceSource::Bytes(&clog_bytes)).unwrap();
            prop_assert_eq!(b.file.to_bytes(), want.clone(), "Bytes, {} threads", threads);
            let mm = conv
                .convert(TraceSource::mmap(&clog_path).unwrap())
                .unwrap();
            prop_assert_eq!(mm.file.to_bytes(), want.clone(), "Mmap, {} threads", threads);

            // Out-of-core: unbounded, and a 1-byte budget. The budget
            // clamps to 64 KiB per run buffer, which logs this small
            // never fill, so both runs stay resident here; the tiled
            // case below is the one that spills.
            for budget in [None, Some(1usize)] {
                let mut oc = Converter::new().parallelism(threads).spill_dir(dir.clone());
                if let Some(bytes) = budget {
                    oc = oc.memory_budget(bytes);
                }
                let out = dir.join(format!("case-{case}-t{threads}-b{:?}.pslog2", budget));
                let summary = oc
                    .convert_to_path(TraceSource::Bytes(&clog_bytes), &out)
                    .unwrap();
                prop_assert_eq!(&summary.warnings, &baseline.warnings,
                    "oocore warnings, {} threads budget {:?}", threads, budget);
                let got = std::fs::read(&out).unwrap();
                let _ = std::fs::remove_file(&out);
                prop_assert_eq!(got, want.clone(), "oocore, {} threads budget {:?}", threads, budget);
            }
        }
        let _ = std::fs::remove_file(&clog_path);
    }

    /// Salvage is a mode of the same builder, and the invariant holds
    /// there too: a torn byte image converts identically through every
    /// source kind, thread count, and the out-of-core writer.
    #[test]
    fn salvage_mode_is_source_and_budget_independent(
        per_rank in arb_rank_records(),
        keep in 0.2f64..1.0,
    ) {
        let clog = clog_from(per_rank);
        let whole = clog.to_bytes();
        let torn = &whole[..((whole.len() as f64 * keep) as usize).max(16).min(whole.len())];
        let report = SalvageReport {
            verdicts: vec![RankVerdict {
                rank: 0,
                kind: FailureKind::Aborted,
                detail: "proptest tear".into(),
            }],
            truncated: torn.len() < whole.len(),
            ..Default::default()
        };
        let policy = TornPolicy::Salvage(report);
        let baseline = Converter::new()
            .parallelism(1)
            .on_torn(policy.clone())
            .convert(TraceSource::Bytes(torn))
            .unwrap();
        let want = baseline.file.to_bytes();
        let dir = prop_dir();
        let case = case_id();
        let torn_path = dir.join(format!("salvage-{case}.pclog2"));
        std::fs::write(&torn_path, torn).unwrap();

        for threads in [2usize, 8] {
            let conv = Converter::new().parallelism(threads).on_torn(policy.clone());
            let b = conv.convert(TraceSource::Bytes(torn)).unwrap();
            prop_assert_eq!(&b.warnings, &baseline.warnings, "salvage warnings, {} threads", threads);
            prop_assert_eq!(b.file.to_bytes(), want.clone(), "salvage Bytes, {} threads", threads);
            let mm = conv.convert(TraceSource::mmap(&torn_path).unwrap()).unwrap();
            prop_assert_eq!(&mm.warnings, &baseline.warnings, "salvage Mmap warnings, {} threads", threads);
            prop_assert_eq!(mm.file.to_bytes(), want.clone(), "salvage Mmap, {} threads", threads);
            let out = dir.join(format!("salvage-{case}-t{threads}.pslog2"));
            let oc = Converter::new()
                .parallelism(threads)
                .on_torn(policy.clone())
                .memory_budget(1)
                .spill_dir(dir.clone());
            let summary = oc.convert_to_path(TraceSource::Bytes(torn), &out).unwrap();
            prop_assert_eq!(&summary.warnings, &baseline.warnings,
                "salvage oocore warnings, {} threads", threads);
            let got = std::fs::read(&out).unwrap();
            let _ = std::fs::remove_file(&out);
            prop_assert_eq!(got, want.clone(), "salvage oocore, {} threads", threads);
        }
        let _ = std::fs::remove_file(&torn_path);
    }
}

/// The generated per-rank records tiled `k` times, each copy shifted
/// past the generator's 0.5 s clock span. Every tile also carries a
/// well-formed backbone on each rank — nested `outer`/`inner` states,
/// ten `tick` events and a ring of sends and receives on a tag the
/// generator never draws — so the log holds arrows and several
/// categories whatever the generator drew.
fn tiled(per_rank: &[Vec<Record>], k: usize) -> Vec<Vec<Record>> {
    let n = per_rank.len();
    per_rank
        .iter()
        .enumerate()
        .map(|(r, records)| {
            let mut lg = Logger::new(r);
            let (outer_s, outer_e) = lg.define_state("outer", Color::RED);
            let (inner_s, inner_e) = lg.define_state("inner", Color::GREEN);
            let tick = lg.define_event("tick", Color::YELLOW);
            let mut out = Vec::new();
            for j in 0..k {
                let base = j as f64 * 0.5;
                out.extend(records.iter().cloned().map(|mut rec| {
                    match &mut rec {
                        Record::Event { ts, .. }
                        | Record::Send { ts, .. }
                        | Record::Recv { ts, .. } => *ts += base,
                    }
                    rec
                }));
                let seen = lg.records().len();
                let t = |i: u32| base + 0.45 + r as f64 * 1e-4 + f64::from(i) * 1e-3;
                lg.log_event(t(0), outer_s, "Line: 1");
                for i in 1..=10 {
                    lg.log_event(t(i), tick, "Chan: C0");
                }
                lg.log_event(t(11), inner_s, "Line: 2");
                lg.log_send(t(12), (r + 1) % n, 9, 16);
                lg.log_event(t(13), inner_e, "");
                lg.log_receive(t(14), (r + n - 1) % n, 9, 16);
                lg.log_event(t(15), outer_e, "");
                out.extend_from_slice(&lg.records()[seen..]);
            }
            out
        })
        .collect()
}

/// Convert `src` out of core under a 1-byte budget; returns the
/// summary, the file, and how many key and placement runs spilled.
fn spilled_convert(
    conv: Converter,
    src: TraceSource<'_>,
    out: &std::path::Path,
) -> (slog2::ConvertSummary, Vec<u8>, u64, u64) {
    let o = obs::Obs::handle();
    let summary = conv
        .memory_budget(1)
        .spill_dir(prop_dir())
        .observability(o.clone())
        .convert_to_path(src, out)
        .unwrap();
    let bytes = std::fs::read(out).unwrap();
    let _ = std::fs::remove_file(out);
    let snap = o.snapshot();
    (
        summary,
        bytes,
        snap.counter("convert.oocore.key_runs"),
        snap.counter("convert.oocore.row_runs"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Logs large enough to overflow the 64 KiB run clamp: under a
    /// 1-byte budget the Equal-Drawables key sorter and the placement
    /// runs each spill at least three times, strict and under salvage
    /// (whose terminal shard spills as its own segment), and the file
    /// and warnings still equal the in-memory converter's.
    #[test]
    fn spilling_out_of_core_runs_are_byte_identical(
        per_rank in arb_rank_records(),
        keep in 0.9f64..1.0,
    ) {
        let k = 6_000usize.div_ceil(12 * per_rank.len());
        let clog = clog_from(tiled(&per_rank, k));
        let bytes = clog.to_bytes();
        let dir = prop_dir();
        let case = case_id();

        let baseline = Converter::new()
            .parallelism(1)
            .convert(TraceSource::InMemory(&clog))
            .unwrap();
        let want = baseline.file.to_bytes();
        for threads in [1usize, 2] {
            let out = dir.join(format!("tiled-{case}-t{threads}.pslog2"));
            let conv = Converter::new().parallelism(threads);
            let (summary, got, key_runs, row_runs) =
                spilled_convert(conv, TraceSource::Bytes(&bytes), &out);
            prop_assert!(key_runs >= 3 && row_runs >= 3,
                "{} key runs, {} placement runs", key_runs, row_runs);
            prop_assert_eq!(&summary.warnings, &baseline.warnings, "warnings, {} threads", threads);
            prop_assert_eq!(got, want.clone(), "bytes, {} threads", threads);
        }

        let torn = &bytes[..(bytes.len() as f64 * keep) as usize];
        let policy = TornPolicy::Salvage(SalvageReport {
            verdicts: vec![RankVerdict {
                rank: 0,
                kind: FailureKind::Aborted,
                detail: "proptest tear".into(),
            }],
            truncated: true,
            ..Default::default()
        });
        let baseline = Converter::new()
            .parallelism(1)
            .on_torn(policy.clone())
            .convert(TraceSource::Bytes(torn))
            .unwrap();
        let out = dir.join(format!("tiled-salvage-{case}.pslog2"));
        let conv = Converter::new().parallelism(2).on_torn(policy);
        let (summary, got, key_runs, row_runs) = spilled_convert(conv, TraceSource::Bytes(torn), &out);
        prop_assert!(key_runs >= 3 && row_runs >= 3,
            "salvage: {} key runs, {} placement runs", key_runs, row_runs);
        prop_assert_eq!(&summary.warnings, &baseline.warnings, "salvage warnings");
        prop_assert_eq!(got, baseline.file.to_bytes(), "salvage bytes");
    }
}
