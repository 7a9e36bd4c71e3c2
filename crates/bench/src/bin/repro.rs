//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p bench --bin repro --release -- all
//! cargo run -p bench --bin repro --release -- table1 [--files N] [--reps R]
//! cargo run -p bench --bin repro --release -- fig1|fig2|fig3|fig4|fig5
//! cargo run -p bench --bin repro --release -- legend|equal-drawables|clocksync
//! cargo run -p bench --bin repro --release -- convert-bench [--reps R] [--parallel N]
//!     [--drawables N --ranks R --budget-mb M]   # out-of-core scale mode
//! cargo run -p bench --bin repro --release -- metrics [--workload NAME] [--parallel N]
//! cargo run -p bench --bin repro --release -- faults [--seed S] [--runs R]
//! cargo run -p bench --bin repro --release -- diagnose [--workload NAME|instance-a|instance-b]
//! cargo run -p bench --bin repro --release -- diff [<before.pslog2> <after.pslog2>] [--workload instance-a-vs-fixed|instance-b-vs-fixed]
//! cargo run -p bench --bin repro --release -- bench-diff [--baseline DIR] [--current DIR] [--max-regress-pct N] [--warn-only]
//! cargo run -p bench --bin repro --release -- serve-chaos [--seed S] [--runs R] [--ops N]
//! cargo run -p bench --bin repro --release -- list-workloads
//! cargo run -p bench --bin repro --release -- explore [--seeds N]
//! cargo run -p bench --bin repro --release -- sim-bench [--ranks N] [--seed S]
//! ```
//!
//! `--parallel N` sets the CLOG2→SLOG2 converter's worker-thread count
//! for every experiment (0 = one per core); output files are
//! byte-identical at any setting. `convert-bench` times serial vs
//! parallel vs streaming conversion over a ≥100k-drawable synthetic
//! trace and writes `out/BENCH_convert.json` (including the `--metrics`
//! instrumentation overhead). `metrics` runs a workload with the full
//! observability stack attached, prints the merged registry, writes
//! `out/METRICS.json` + `out/trace.json` (load the latter in
//! `chrome://tracing` or <https://ui.perfetto.dev>), and exits 1 if the
//! runtime counters disagree with the rendered log. `faults` runs the
//! seeded crash-forensics matrix (deadlock, mid-run panic, torn spill,
//! held message) and exits 1 unless every faulty run salvages into a
//! valid SLOG2 with the right terminal verdict, deterministically
//! across `--runs` repetitions; artifacts land in `out/FAULT_*`.
//! `diagnose` runs the causal diagnosis engine over a workload trace
//! and writes the machine-checkable verdicts to `out/DIAGNOSIS.json`
//! plus a critical-path overlay SVG; the `instance-a`/`instance-b`
//! workloads are the paper's two student submissions at paper scale
//! (deterministic fixtures — byte-identical output across runs), and
//! it exits 1 if the expected verdict is missing. `diff` compares two
//! traces — either explicit `.pslog2` paths or a built-in
//! before/after workload pair — and writes `out/DIFF.json` plus a
//! stacked side-by-side SVG; the `instance-a-vs-fixed` workload is the
//! acceptance check (exit 1 unless SerializedPhase is pronounced Fixed
//! with recovered seconds). `bench-diff` gates `BENCH_*.json` reports
//! in `--current` against committed baselines in `--baseline`, exiting
//! 1 when any gated metric worsens by more than `--max-regress-pct`
//! (pass `--warn-only` to report without failing, as pushes to main
//! do). `list-workloads` enumerates the registry behind `--workload`.
//! `explore` sweeps virtual-engine schedule seeds over the
//! deadlock-cycle scenario and exits 1 unless every seed reaches the
//! same terminal verdict, reruns are byte-identical, and at least two
//! distinct schedules are observed. `sim-bench` runs the thousand-rank
//! pipeline fixture under `Engine::Virtual`, demands a byte-identical
//! CLOG2 digest across three runs inside a 10 s wall budget, and
//! writes `out/BENCH_sim.json` for the perf gate.
//!
//! Every subcommand prints a one-line `[time] <phase>: <seconds>`
//! summary when it finishes, metrics or not.
//!
//! SVGs and JSON reports land in `out/`. Absolute numbers will differ
//! from the paper (its testbed was a cluster; ours is a rank-per-thread
//! simulator on one host) — what must match is the *shape*: see
//! EXPERIMENTS.md for the paper-vs-measured comparison.

use std::path::Path;

use bench::{measure_overhead_cell, LoggingMode};
use minimpi::{ClockConfig, World};
use pilot::{PilotConfig, Services};
use slog2::{
    ConvertWarning, Converter, FailureKind, RankVerdict, SalvageReport, TimelineId, TornPolicy,
    TraceSource,
};
use workloads::collision::{expected_answers, run_collision, CollisionParams, CollisionVariant};
use workloads::lab2::{expected_total, run_lab2};
use workloads::thumbnail::{expected_result, run_thumbnail, ThumbnailParams};

/// One-shot in-memory conversion through `conv` — the shape most
/// experiments here want.
fn convert(clog: &mpelog::Clog2File, conv: Converter) -> (slog2::Slog2File, Vec<ConvertWarning>) {
    let c = conv
        .convert(TraceSource::InMemory(clog))
        .expect("in-memory source cannot fail");
    (c.file, c.warnings)
}

fn out_dir() -> &'static Path {
    let p = Path::new("out");
    std::fs::create_dir_all(p).expect("create out/");
    p
}

/// Converter worker-thread count, set once from `--parallel` (0 = one
/// per core — the `Converter` default).
static PARALLEL: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

fn parallelism() -> usize {
    *PARALLEL.get().unwrap_or(&0)
}

/// The converter for a run's log: its process names label the
/// timelines, `--parallel` sets the workers.
fn named(outcome: &pilot::PilotOutcome) -> Converter {
    Converter::new()
        .timeline_names(outcome.artifacts.process_names.clone())
        .parallelism(parallelism())
}

fn render_outcome(
    outcome: &pilot::PilotOutcome,
    path: &Path,
    width: u32,
    window: Option<slog2::TimeWindow>,
) -> slog2::Slog2File {
    let clog = outcome.clog().expect("run must have -pisvc=j");
    let (slog, warnings) = convert(clog, named(outcome));
    for w in &warnings {
        println!("  converter warning: {w}");
    }
    let mut opts = jumpshot::RenderOptions::default().with_width(width);
    opts.window = window;
    let svg = jumpshot::Renderer::render(&jumpshot::SvgRenderer, &slog, &opts);
    std::fs::write(path, svg).expect("write svg");
    println!("  wrote {}", path.display());
    slog
}

/// Table 1 (paper §III.E): thumbnail overhead across worker counts,
/// logging modes, and error-check levels.
fn table1(files: usize, reps: usize) {
    // Heavier per-image work than the figure runs, so the pipeline is
    // genuinely compute-bound and the 5->10 worker speedup (the paper's
    // "nice speedup") is observable on a multicore host.
    // Per-image decompression is modelled as 15 ms of node-occupancy
    // (see ThumbnailParams::think_ms: on a single-core host, sleeps —
    // not spins — represent ranks computing on their own cluster nodes,
    // which is what lets the 5->10-worker speedup appear).
    let params = ThumbnailParams {
        n_files: files,
        width: 96,
        height: 96,
        work_factor: 10,
        compress_factor: 3,
        think_ms: 15.0,
    };
    println!("# Table 1 — thumbnail overhead ({files} files, {reps} reps, median [variance])");
    println!(
        "{:<8} {:<15} {:<7} {:>10} {:>12} {:>10} {:>9}",
        "workers", "service", "check", "median(s)", "[variance]", "wrapup(s)", "D-procs"
    );
    for workers in [5usize, 10] {
        for mode in [LoggingMode::None, LoggingMode::Mpe, LoggingMode::Native] {
            let cell = measure_overhead_cell(workers, mode, 3, params, reps);
            println!(
                "{:<8} {:<15} {:<7} {:>10.3} {:>12.5} {:>10} {:>9}",
                workers,
                mode.label(),
                cell.check_level,
                cell.median_s,
                cell.variance,
                cell.wrapup_s
                    .map(|w| format!("{w:.3}"))
                    .unwrap_or_else(|| "-".into()),
                cell.effective_workers - 1, // minus the compressor
            );
        }
    }
    println!("\n# error-check level sweep (5 workers, no logging) — the paper found this inconsequential");
    for level in 0..=3u8 {
        let cell = measure_overhead_cell(5, LoggingMode::None, level, params, reps);
        println!(
            "  level {}: {:.3}s [{:.5}]",
            level, cell.median_s, cell.variance
        );
    }
}

/// Fig. 1: the thumbnail application, full time range, 11 timelines.
fn fig1() -> pilot::PilotOutcome {
    println!("# Fig. 1 — thumbnail application in Jumpshot (full view)");
    // Per-image decompression occupies its node for ~10 ms (see the
    // think_ms note in table1), making the pipeline compute-bound like
    // the paper's: mostly gray timelines with thin red/green slivers.
    let params = ThumbnailParams {
        n_files: 64,
        think_ms: 10.0,
        ..Default::default()
    };
    let cfg = PilotConfig::new(11).with_services(Services::parse("j").unwrap());
    let (outcome, result) = run_thumbnail(cfg, 10, params);
    assert!(outcome.is_clean(), "{outcome:?}");
    assert_eq!(result.unwrap(), expected_result(&params));
    let slog = render_outcome(&outcome, &out_dir().join("fig1_thumbnail.svg"), 1400, None);
    println!(
        "  {} drawables across {} timelines over {:.3}s",
        slog.total_drawables(),
        slog.timelines.len(),
        slog.range.span()
    );
    // The duration-statistics window the paper mentions ("easy detection
    // of load imbalance across processes among timelines").
    let hist = jumpshot::Renderer::render(
        &jumpshot::HistogramRenderer,
        &slog,
        &jumpshot::RenderOptions::default().with_width(1000),
    );
    std::fs::write(out_dir().join("fig1_histogram.svg"), hist).unwrap();
    let compute = slog.category_by_name("Compute").unwrap().index;
    let decompressors: Vec<TimelineId> = (2..slog.timelines.len() as u32).map(TimelineId).collect();
    let imbalance = jumpshot::load_imbalance(&slog, compute, &decompressors, slog.range);
    println!("  decompressor load imbalance (max/min compute): {imbalance:.2}x");
    println!("  wrote out/fig1_histogram.svg");
    outcome
}

/// Fig. 2: the same log zoomed in; verifies the paper's reading that
/// compute (gray) dwarfs the I/O states (red/green).
fn fig2(outcome: &pilot::PilotOutcome) {
    println!("# Fig. 2 — thumbnail zoomed in");
    let clog = outcome.clog().expect("log");
    let (slog, _) = convert(clog, named(outcome));
    let span = slog.range.span();
    let mid = slog.range.t0 + span * 0.5;
    let window = slog2::TimeWindow::new(mid - span * 0.05, mid + span * 0.05);
    let svg = jumpshot::Renderer::render(
        &jumpshot::SvgRenderer,
        &slog,
        &jumpshot::RenderOptions::default()
            .with_window(window)
            .with_width(1400),
    );
    std::fs::write(out_dir().join("fig2_zoom.svg"), svg).unwrap();
    println!("  wrote out/fig2_zoom.svg");

    // Quantify "Pilot I/O functions only take a small proportion of the
    // time" on the decompressor timelines (ranks 2..).
    let stats = slog2::legend_stats(&slog);
    let cat = |name: &str| slog.category_by_name(name).map(|c| c.index).unwrap();
    let compute_excl = stats[&cat("Compute")].exclusive;
    let io: f64 = ["PI_Read", "PI_Write"]
        .iter()
        .map(|n| stats[&cat(n)].inclusive)
        .sum();
    println!(
        "  compute(excl) = {:.3}s, read+write(incl) = {:.3}s, ratio = {:.1}x",
        compute_excl,
        io,
        compute_excl / io.max(1e-9)
    );
}

/// Fig. 3: the lab2 exercise with six processes.
fn fig3() {
    println!("# Fig. 3 — lab2 hands-on exercise (6 processes)");
    let cfg = PilotConfig::new(6).with_services(Services::parse("j").unwrap());
    let (outcome, result) = run_lab2(cfg, 5, 10_000, false);
    assert!(outcome.is_clean(), "{outcome:?}");
    assert_eq!(result.unwrap().grand_total, expected_total(10_000));
    let slog = render_outcome(&outcome, &out_dir().join("fig3_lab2.svg"), 1280, None);
    // Structural check: each worker has 2 reads and 1 write; main has
    // 2W writes and W reads; 3 messages per worker = 3W arrows.
    let stats = slog2::legend_stats(&slog);
    let cat = |name: &str| slog.category_by_name(name).map(|c| c.index).unwrap();
    println!(
        "  PI_Read instances: {} (expected {}), PI_Write: {} (expected {}), arrows: {} (expected {})",
        stats[&cat("PI_Read")].count,
        5 * 2 + 5,
        stats[&cat("PI_Write")].count,
        5 * 2 + 5,
        stats[&cat("message")].count,
        3 * 5
    );
    let legend = jumpshot::Legend::for_file(&slog);
    println!(
        "{}",
        jumpshot::render_legend_text(&legend, jumpshot::LegendSort::Index)
    );
}

fn collision_fig(variant: CollisionVariant, outfile: &str) {
    let params = CollisionParams {
        rows: 20_000,
        queries: 6,
        seed: 316,
        parse_work: 1,
        read_think_ms: 60.0,
        parse_think_ms: 150.0,
        query_think_ms: 40.0,
    };
    let cfg = PilotConfig::new(5).with_services(Services::parse("j").unwrap());
    let (outcome, result) = run_collision(cfg, 4, variant, params);
    assert!(outcome.is_clean(), "{outcome:?}");
    let result = result.unwrap();
    assert_eq!(result.answers, expected_answers(&params));
    let slog = render_outcome(&outcome, &out_dir().join(outfile), 1400, None);
    let workers: Vec<TimelineId> = (1..=4).map(TimelineId).collect();
    let overlap = pilot_vis::parallel_overlap(&slog, &workers, None);
    // The query phase is the tail of the run; restricting the overlap
    // measurement to it isolates the Fig. 4 diagnosis (A's queries are
    // serialized even though its parse phase partially overlaps).
    let qwin = slog2::TimeWindow::new(slog.range.t1 - result.query_seconds, slog.range.t1);
    let q_overlap = pilot_vis::parallel_overlap(&slog, &workers, Some(qwin));
    let idle = pilot_vis::idle_until_first_arrival(&slog);
    let max_idle = idle.values().cloned().fold(0.0f64, f64::max);
    println!(
        "  init {:.3}s / query {:.3}s; worker overlap {:.2} (query phase only: {:.2}); max idle-before-first-msg {:.3}s",
        result.init_seconds, result.query_seconds, overlap, q_overlap, max_idle
    );
}

/// Fig. 4: student instance A — inadvertently serialized queries.
fn fig4() {
    println!("# Fig. 4 — student instance A (serialized query loop)");
    collision_fig(CollisionVariant::InstanceA, "fig4_instance_a.svg");
}

/// Fig. 5: student instance B — master-only initialization.
fn fig5() {
    println!("# Fig. 5 — student instance B (workers idle during master init)");
    collision_fig(CollisionVariant::InstanceB, "fig5_instance_b.svg");
    println!("# reference: the corrected version");
    collision_fig(CollisionVariant::Fixed, "fig_fixed_reference.svg");
}

/// L1: the legend statistics table for lab2.
fn legend() {
    println!("# Legend statistics (lab2 log), sortable like Jumpshot's legend window");
    let cfg = PilotConfig::new(6).with_services(Services::parse("j").unwrap());
    let (outcome, _) = run_lab2(cfg, 5, 10_000, false);
    let clog = outcome.clog().unwrap();
    let (slog, _) = convert(clog, Converter::new());
    let legend = jumpshot::Legend::for_file(&slog);
    for sort in [
        jumpshot::LegendSort::Index,
        jumpshot::LegendSort::Count,
        jumpshot::LegendSort::Inclusive,
    ] {
        println!("-- sorted by {sort:?} --");
        println!("{}", jumpshot::render_legend_text(&legend, sort));
    }
}

/// E1: the Equal Drawables condition and the 1 ms arrow-spread fix.
fn equal_drawables() {
    println!("# Equal Drawables — quantized clock, broadcast fanout");
    for (spread_us, label) in [
        (0u64, "no spread (the bug)"),
        (1000, "1 ms spread (the fix)"),
    ] {
        let cfg = PilotConfig::new(5)
            .with_services(Services::parse("j").unwrap())
            .with_clock(ClockConfig {
                resolution_s: 5e-4, // a coarse MPI_Wtime (finer than the 1 ms spread)
                drift: vec![],
            })
            .with_arrow_spread(std::time::Duration::from_micros(spread_us));
        let outcome = pilot::run(cfg, |pi| {
            use pilot::{BundleUsage, RSlot, WSlot, PI_MAIN};
            let mut chans = Vec::new();
            let mut procs = Vec::new();
            for i in 0..4 {
                let p = pi.create_process(i)?;
                procs.push(p);
                chans.push(pi.create_channel(PI_MAIN, p)?);
            }
            let b = pi.create_bundle(BundleUsage::Broadcast, &chans)?;
            for (i, &p) in procs.iter().enumerate() {
                let c = chans[i];
                pi.assign_work(p, move |pi, _| {
                    for _ in 0..5 {
                        let mut x = 0i64;
                        pi.read(c, "%d", &mut [RSlot::Int(&mut x)]).unwrap();
                    }
                    0
                })?;
            }
            pi.start_all()?;
            for round in 0..5 {
                pi.broadcast(b, "%d", &[WSlot::Int(round)])?;
            }
            pi.stop_main(0)
        });
        assert!(outcome.is_clean(), "{outcome:?}");
        let (_slog, warnings) = convert(outcome.clog().unwrap(), Converter::new());
        let equal = warnings
            .iter()
            .filter(|w| matches!(w, ConvertWarning::EqualDrawables { .. }))
            .count();
        println!("  {label}: {equal} Equal-Drawables warnings");
    }
}

/// E2: clock synchronization against injected drift.
fn clocksync() {
    println!("# Clock sync — Cristian probing vs injected per-rank drift");
    let n = 4;
    let injected = 0.25f64;
    let out = World::builder(n)
        .clock_shape(ClockConfig::with_linear_drift(n, injected, 0.0))
        .run(|rank| {
            let (_, offset) = mpelog::sync_clocks(rank, 8).unwrap();
            let expect = injected * rank.rank() as f64;
            println!(
                "  rank {}: injected offset {:+.4}s, estimated {:+.4}s (error {:+.2e}s)",
                rank.rank(),
                expect,
                offset,
                offset - expect
            );
            0
        });
    assert!(out.all_ok());

    // Pilot-level: with drift + sync, converted arrows must stay causal.
    let cfg = PilotConfig::new(3)
        .with_services(Services::parse("j").unwrap())
        .with_clock(ClockConfig::with_linear_drift(3, 0.2, 0.0));
    let (outcome, _) = run_lab2(cfg, 2, 1000, false);
    assert!(outcome.is_clean());
    let (_, warnings) = convert(outcome.clog().unwrap(), Converter::new());
    let backward = warnings
        .iter()
        .filter(|w| matches!(w, ConvertWarning::BackwardArrow { .. }))
        .count();
    println!("  lab2 with 0.2s/rank injected drift after sync: {backward} backward arrows");
}

/// Time serial vs parallel vs streaming vs mmap conversion over a
/// synthetic trace (≈144k drawables) and write
/// `out/BENCH_convert.json` — the artifact CI uploads so the sharded
/// pipeline's speedup is tracked per-commit. The headline rate is
/// `drawables_per_sec_per_core`, which stays comparable across CI boxes
/// with different core counts.
fn convert_bench(reps: usize, parallel: usize) {
    use pilot_vis::json::Json;

    let threads = Converter::new()
        .parallelism(parallel)
        .effective_parallelism();
    let (ranks, calls) = (6usize, 12_000usize);
    println!(
        "== convert-bench: {ranks} ranks x {calls} calls, {threads} worker threads, {reps} reps =="
    );
    let clog = workloads::synthetic_clog(ranks, calls);
    let bytes = clog.to_bytes();
    let mmap_path = out_dir().join("convert_bench_input.pclog2");
    std::fs::write(&mmap_path, &bytes).expect("write mmap input");

    let median_secs = |f: &dyn Fn() -> usize| -> (f64, usize) {
        let mut samples = Vec::with_capacity(reps.max(1));
        let mut drawables = 0;
        for _ in 0..reps.max(1) {
            let start = std::time::Instant::now();
            drawables = f();
            samples.push(start.elapsed().as_secs_f64());
        }
        (bench::median(samples), drawables)
    };

    let count = |conv: &Converter, src: TraceSource<'_>| -> usize {
        conv.convert(src)
            .expect("valid input")
            .file
            .total_drawables()
    };
    let serial = Converter::new().parallelism(1);
    let sharded = Converter::new().parallelism(threads);
    let (serial_s, drawables) = median_secs(&|| count(&serial, TraceSource::InMemory(&clog)));
    let (parallel_s, _) = median_secs(&|| count(&sharded, TraceSource::InMemory(&clog)));
    let (stream_s, _) = median_secs(&|| count(&serial, TraceSource::reader(&bytes[..])));
    // The zero-copy read path: map the encoded file and scan records in
    // place (parse + convert, where the in-memory rows above pre-paid
    // the parse).
    let (mmap_s, _) = median_secs(&|| {
        count(
            &sharded,
            TraceSource::mmap(&mmap_path).expect("map bench input"),
        )
    });
    // Same parallel conversion with the obs registry + tracer attached:
    // the instrumentation must stay in the noise — asserted by CI's
    // perf gate against this report. Measured as the median of *paired*
    // plain/instrumented ratios in alternating order (the serve-bench
    // trick): a load spike hits both halves of a pair, so the ratio
    // stays honest where two medians taken minutes apart would not.
    // Extra pairs (they are cheap) because this ratio is the one gated
    // metric a noisy container can flip: more samples, tighter median.
    let pairs = reps.max(1) * 3;
    let mut ratios = Vec::with_capacity(pairs);
    let mut metrics_s = 0.0;
    for rep in 0..pairs {
        let timed = |conv: &Converter| {
            let t = std::time::Instant::now();
            count(conv, TraceSource::InMemory(&clog));
            t.elapsed().as_secs_f64()
        };
        let instrumented_conv = Converter::new()
            .parallelism(threads)
            .observability(obs::Obs::handle());
        // Alternate which half of the pair goes first so a warmup or
        // cache effect inside a pair cannot masquerade as overhead.
        let (plain, instrumented) = if rep % 2 == 0 {
            let p = timed(&sharded);
            (p, timed(&instrumented_conv))
        } else {
            let i = timed(&instrumented_conv);
            (timed(&sharded), i)
        };
        ratios.push(instrumented / plain);
        metrics_s = instrumented;
    }
    let speedup = serial_s / parallel_s;
    let metrics_overhead_pct = (bench::median(ratios) - 1.0) * 100.0;
    let per_core = drawables as f64 / (parallel_s * threads as f64);
    println!("  {drawables} drawables");
    println!("  serial    {serial_s:.4}s");
    println!(
        "  parallel  {parallel_s:.4}s  ({speedup:.2}x, {threads} threads, {per_core:.0} drawables/s/core)"
    );
    println!("  streaming {stream_s:.4}s  (serial, incremental decode)");
    println!("  mmap      {mmap_s:.4}s  (zero-copy scan, {threads} threads)");
    println!("  metrics   {metrics_s:.4}s  (parallel + obs attached, {metrics_overhead_pct:+.2}% overhead)");

    let report = Json::Obj(vec![
        ("ranks".into(), Json::Num(ranks as f64)),
        ("calls_per_rank".into(), Json::Num(calls as f64)),
        ("drawables".into(), Json::Num(drawables as f64)),
        ("reps".into(), Json::Num(reps as f64)),
        ("threads".into(), Json::Num(threads as f64)),
        ("serial_s".into(), Json::Num(serial_s)),
        ("parallel_s".into(), Json::Num(parallel_s)),
        ("streaming_s".into(), Json::Num(stream_s)),
        ("mmap_s".into(), Json::Num(mmap_s)),
        ("speedup".into(), Json::Num(speedup)),
        ("drawables_per_sec_per_core".into(), Json::Num(per_core)),
        ("metrics_s".into(), Json::Num(metrics_s)),
        (
            "metrics_overhead_pct".into(),
            Json::Num(metrics_overhead_pct),
        ),
    ]);
    let path = out_dir().join("BENCH_convert.json");
    std::fs::write(&path, report.pretty()).expect("write BENCH_convert.json");
    let _ = std::fs::remove_file(&mmap_path);
    println!("  wrote {}", path.display());
}

/// Out-of-core scale bench: synthesize a trace with ≈`target` drawables
/// (streamed — never materialized), convert it under `budget_mb` with
/// `convert_to_path`, and pin determinism by digest-comparing a second
/// run and a differently-threaded run. Writes
/// `out/BENCH_convert_scale.json`.
fn convert_bench_scale(target: usize, ranks: usize, budget_mb: usize) -> bool {
    use pilot_vis::json::Json;
    use workloads::SyntheticClogReader;

    // ≈ 2 drawables per rank-call (state + bubble-or-arrow).
    let calls = (target / (2 * ranks.max(1))).max(1);
    println!(
        "== convert-bench --drawables {target}: {ranks} ranks x {calls} calls, {budget_mb} MiB budget =="
    );
    let out = out_dir().join("convert_scale.pslog2");
    let run = |threads: usize| {
        let src = TraceSource::reader(SyntheticClogReader::new(ranks, calls));
        let conv = Converter::new()
            .parallelism(threads)
            .memory_budget(budget_mb << 20);
        let start = std::time::Instant::now();
        let summary = conv.convert_to_path(src, &out).expect("scale conversion");
        (start.elapsed().as_secs_f64(), summary)
    };
    let (wall_s, summary) = run(1);
    let (_, second) = run(1);
    let threads = Converter::new().parallelism(0).effective_parallelism();
    let (_, threaded) = run(threads.max(2));
    let ok = summary.digest == second.digest && summary.digest == threaded.digest;
    let per_sec = summary.drawables as f64 / wall_s;
    println!(
        "  {} drawables -> {} nodes, {} bytes in {wall_s:.3}s ({per_sec:.0} drawables/s/core serial)",
        summary.drawables, summary.nodes, summary.bytes_written
    );
    println!(
        "  digest {:016x}: repeat {} threaded({}) {}",
        summary.digest,
        if summary.digest == second.digest {
            "match"
        } else {
            "MISMATCH"
        },
        threads.max(2),
        if summary.digest == threaded.digest {
            "match"
        } else {
            "MISMATCH"
        },
    );
    let report = Json::Obj(vec![
        ("target_drawables".into(), Json::Num(target as f64)),
        ("ranks".into(), Json::Num(ranks as f64)),
        ("calls_per_rank".into(), Json::Num(calls as f64)),
        ("budget_mb".into(), Json::Num(budget_mb as f64)),
        ("drawables".into(), Json::Num(summary.drawables as f64)),
        ("nodes".into(), Json::Num(summary.nodes as f64)),
        (
            "bytes_written".into(),
            Json::Num(summary.bytes_written as f64),
        ),
        ("wall_s".into(), Json::Num(wall_s)),
        ("drawables_per_sec_per_core".into(), Json::Num(per_sec)),
        (
            "digest".into(),
            Json::Str(format!("{:016x}", summary.digest)),
        ),
        ("deterministic".into(), Json::Bool(ok)),
    ]);
    let path = out_dir().join("BENCH_convert_scale.json");
    std::fs::write(&path, report.pretty()).expect("write BENCH_convert_scale.json");
    let _ = std::fs::remove_file(&out);
    println!("  wrote {}", path.display());
    if ok {
        println!("  convert-bench scale PASSED: digests identical across runs and thread counts");
    }
    ok
}

/// One measured serve-bench run: client latencies plus whatever the
/// server itself observed.
struct ServePass {
    /// Client-measured per-request latencies, sorted ascending, ms.
    latencies_ms: Vec<f64>,
    wall_s: f64,
    /// Process CPU (user+sys) consumed by the replay, in clock ticks.
    cpu_ticks: Option<u64>,
    errors: usize,
    mismatches: usize,
    /// 429/503 load-shed rejects the clients retried through.
    rejects: usize,
    /// Rejects missing the `Retry-After` header (always a failure).
    bad_rejects: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    singleflight_waits: u64,
    /// Parsed `/v1/obs/endpoints` body (traced passes only).
    endpoints: Option<pilot_vis::json::Json>,
    /// Raw `/v1/obs/flight` body (traced passes only).
    flight: Option<String>,
}

/// Nearest-index percentile over an ascending-sorted slice.
fn pctile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[(((n - 1) as f64) * p).round() as usize],
    }
}

/// Process CPU time (user + system) in clock ticks from
/// `/proc/self/stat`, `None` off Linux. Tick units cancel in the
/// ratios this feeds, so no `USER_HZ` conversion is needed.
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14 (utime) and 15 (stime), counted after the parenthesised
    // command name (which may itself contain spaces).
    let rest = stat.rsplit(')').next()?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Number of tile requests the server has finished, per
/// `/v1/obs/endpoints`.
fn server_tile_count(endpoints: &pilot_vis::json::Json) -> u64 {
    use pilot_vis::json::Json;
    endpoints
        .get("endpoints")
        .and_then(Json::as_arr)
        .and_then(|eps| {
            eps.iter()
                .find(|e| e.get("endpoint").and_then(Json::as_str) == Some("tile"))
        })
        .and_then(|tile| tile.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Load a fresh (cold-cache) service from `workload`, serve it with 8
/// workers, replay `requests` `rounds` times from `clients` keep-alive
/// connections, and collect client latencies plus server-side stats.
/// With `traced`, the observability plane is enabled and the pass also
/// captures `/v1/obs/endpoints` and `/v1/obs/flight` — the obs probes
/// run before the stats probe so the endpoint counts cover exactly the
/// client replay. `expect_tiles` makes the endpoint probe poll briefly
/// until the server has finished that many tile requests: a worker
/// calls the plane's finish hook just *after* writing the response
/// bytes, so a probe on another connection can otherwise outrun the
/// final request's bookkeeping.
fn run_serve_pass(
    workload: &std::path::Path,
    requests: &std::sync::Arc<Vec<(String, String)>>,
    clients: usize,
    rounds: usize,
    traced: bool,
    expect_tiles: Option<u64>,
) -> ServePass {
    use pilot_vis::json::Json;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    let svc = timeline::TimelineService::load(workload).expect("load serve workload");
    let app = timeline::App::single(svc);
    if traced {
        app.enable_tracing();
    }
    let server = timeline::serve(Arc::clone(&app), "127.0.0.1:0", 8).expect("bind server");
    let addr = format!("127.0.0.1:{}", server.port());
    let errors = Arc::new(AtomicUsize::new(0));
    let mismatches = Arc::new(AtomicUsize::new(0));
    let rejects = Arc::new(AtomicUsize::new(0));
    let bad_rejects = Arc::new(AtomicUsize::new(0));
    let cpu_before = process_cpu_ticks();
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients.max(1))
        .map(|_| {
            let addr = addr.clone();
            let requests = Arc::clone(requests);
            let errors = Arc::clone(&errors);
            let mismatches = Arc::clone(&mismatches);
            let rejects = Arc::clone(&rejects);
            let bad_rejects = Arc::clone(&bad_rejects);
            std::thread::spawn(move || -> Vec<f64> {
                let mut latencies_ms = Vec::with_capacity(rounds * requests.len());
                let mut client = match timeline::Client::connect(&addr) {
                    Ok(c) => c,
                    Err(_) => {
                        errors.fetch_add(rounds * requests.len(), Ordering::SeqCst);
                        return latencies_ms;
                    }
                };
                for _ in 0..rounds.max(1) {
                    for (path, want) in requests.iter() {
                        // A loaded server may shed the request (429 from
                        // the accept queue, 503 past the deadline); a
                        // well-behaved client backs off and retries, and
                        // only admitted (200) requests count as latency
                        // samples. A reject without Retry-After is a
                        // server bug, counted separately.
                        let mut admitted = false;
                        for _attempt in 0..25 {
                            let start = Instant::now();
                            match client.send("GET", path, &[], None) {
                                Ok(resp) if resp.status == 200 => {
                                    latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                                    if resp.body != *want {
                                        mismatches.fetch_add(1, Ordering::SeqCst);
                                    }
                                    admitted = true;
                                    break;
                                }
                                Ok(resp) if matches!(resp.status, 429 | 503) => {
                                    rejects.fetch_add(1, Ordering::SeqCst);
                                    if resp.header("retry-after").is_none() {
                                        bad_rejects.fetch_add(1, Ordering::SeqCst);
                                    }
                                    if resp.closed {
                                        match timeline::Client::connect(&addr) {
                                            Ok(c) => client = c,
                                            Err(_) => break,
                                        }
                                    }
                                    std::thread::sleep(std::time::Duration::from_millis(5));
                                }
                                Ok(_) => break,
                                Err(_) => {
                                    // Connection died (e.g. shed + close
                                    // mid-parse); reconnect and retry.
                                    match timeline::Client::connect(&addr) {
                                        Ok(c) => client = c,
                                        Err(_) => break,
                                    }
                                    std::thread::sleep(std::time::Duration::from_millis(5));
                                }
                            }
                        }
                        if !admitted {
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall_s = wall.elapsed().as_secs_f64();
    let cpu_ticks = process_cpu_ticks().zip(cpu_before).map(|(a, b)| a - b);

    let mut probe = timeline::Client::connect(&addr).expect("stats probe");
    let (endpoints, flight) = if traced {
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        let eps = loop {
            let (_, body) = probe.get("/v1/obs/endpoints").expect("obs endpoints");
            let v = Json::parse(&body).expect("endpoints json");
            let settled = expect_tiles.is_none_or(|e| server_tile_count(&v) >= e);
            if settled || Instant::now() >= deadline {
                break v;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let (_, fl) = probe.get("/v1/obs/flight").expect("obs flight");
        (Some(eps), Some(fl))
    } else {
        (None, None)
    };
    let (_, stats_body) = probe.get("/v1/stats").expect("stats request");
    drop(server);
    let stats = Json::parse(&stats_body).expect("stats json");
    let count = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    ServePass {
        latencies_ms: latencies,
        wall_s,
        cpu_ticks,
        errors: errors.load(Ordering::SeqCst),
        mismatches: mismatches.load(Ordering::SeqCst),
        rejects: rejects.load(Ordering::SeqCst),
        bad_rejects: bad_rejects.load(Ordering::SeqCst),
        hits: count("cache_hits"),
        misses: count("cache_misses"),
        evictions: count("cache_evictions"),
        singleflight_waits: count("cache_singleflight_waits"),
        endpoints,
        flight,
    }
}

/// `repro serve-bench`: start an in-process `pilotd` server over a
/// synthetic trace and replay the same zoom-in tile path from N
/// concurrent keep-alive clients. Every response is checked
/// byte-for-byte against a direct in-process query on a second,
/// independently loaded service (the oracle), so the index, cache, and
/// HTTP layer must all be invisible. Writes `out/BENCH_serve.json`
/// (p50/p99 latency, cache hit rate) — the artifact CI's serve-smoke
/// job uploads and gates on.
///
/// With `obs`, the bench runs twice from a cold cache — first with the
/// observability plane off, then with it on. The report is taken from
/// the traced pass (tracing is `pilotd serve`'s default) and gains the
/// server's own per-phase view of the tile endpoint (queue, parse,
/// cache, index, render, write p50/p99 in µs), `p50_notrace_ms` and
/// `obs_overhead_pct` from the untraced pass, and a server-vs-client
/// request-count cross-check. The flight recorder's Chrome trace-event
/// dump of the slowest requests lands in `out/FLIGHT_serve.json`.
/// Fails (exit 1 upstream) on parity mismatches, errors, a cold hit
/// rate under 0.9, a request-count mismatch, or tracing overhead on
/// client p50 above `max_overhead_pct`.
fn serve_bench(clients: usize, obs_mode: bool, max_overhead_pct: f64) -> bool {
    use pilot_vis::json::Json;
    use std::sync::Arc;

    let path = out_dir().join("serve_workload.pslog2");
    if !path.exists() {
        let clog = workloads::synthetic_clog(8, 4_000);
        let (slog, _) = convert(&clog, Converter::new());
        slog.write_to(&path).expect("write serve workload");
    }
    let oracle = timeline::TimelineService::load(&path).expect("load oracle copy");
    let nranks = oracle.file().timelines.len() as u32;
    println!(
        "== serve-bench: {} drawables, {nranks} ranks, {clients} clients{} ==",
        oracle.file().total_drawables(),
        if obs_mode { ", obs on" } else { "" }
    );

    // The zoom path every client replays: drill from zoom 0 to 6
    // toward 37% of the trace, touching the tile under the cursor and
    // its right neighbour on every rank at each level. All clients
    // replay the identical path, so of `clients` requests for a given
    // tile exactly one is a miss — expected hit rate ≈ 1 - 1/clients.
    let mut requests: Vec<(String, String)> = Vec::new();
    let mut unique = std::collections::HashSet::new();
    for zoom in 0u8..=6 {
        let n = 1u32 << zoom;
        let center = ((0.37 * n as f64) as u32).min(n - 1);
        for rank in 0..nranks {
            for tile in [center, (center + 1).min(n - 1)] {
                unique.insert((rank, zoom, tile));
                let w = oracle.tile_window(zoom, tile).expect("tile in range");
                requests.push((
                    format!("/v1/tile?rank={rank}&zoom={zoom}&tile={tile}"),
                    oracle.query_json(w, Some(&[rank])),
                ));
            }
        }
    }
    let requests = Arc::new(requests);

    let expected_tiles = (clients.max(1) * requests.len()) as u64;
    let pass = run_serve_pass(
        &path,
        &requests,
        clients,
        1,
        obs_mode,
        obs_mode.then_some(expected_tiles),
    );

    let (p50_ms, p99_ms) = (
        pctile(&pass.latencies_ms, 0.50),
        pctile(&pass.latencies_ms, 0.99),
    );
    let hit_rate = pass.hits as f64 / ((pass.hits + pass.misses).max(1)) as f64;
    println!(
        "  {} requests ({} unique tiles) in {:.3}s",
        pass.latencies_ms.len(),
        unique.len(),
        pass.wall_s
    );
    println!("  p50 {p50_ms:.3}ms  p99 {p99_ms:.3}ms");
    println!(
        "  cache: {} hits / {} misses / {} evictions / {} single-flight waits  (hit rate {hit_rate:.4})",
        pass.hits, pass.misses, pass.evictions, pass.singleflight_waits
    );
    println!(
        "  errors {}, parity mismatches {}, shed rejects retried {} (missing Retry-After: {})",
        pass.errors, pass.mismatches, pass.rejects, pass.bad_rejects
    );

    let mut fields: Vec<(String, Json)> = vec![
        ("clients".into(), Json::Num(clients as f64)),
        ("requests".into(), Json::Num(pass.latencies_ms.len() as f64)),
        ("unique_tiles".into(), Json::Num(unique.len() as f64)),
        ("wall_s".into(), Json::Num(pass.wall_s)),
        ("p50_ms".into(), Json::Num(p50_ms)),
        ("p99_ms".into(), Json::Num(p99_ms)),
        ("cache_hits".into(), Json::Num(pass.hits as f64)),
        ("cache_misses".into(), Json::Num(pass.misses as f64)),
        ("cache_evictions".into(), Json::Num(pass.evictions as f64)),
        (
            "singleflight_waits".into(),
            Json::Num(pass.singleflight_waits as f64),
        ),
        ("hit_rate".into(), Json::Num(hit_rate)),
        ("errors".into(), Json::Num(pass.errors as f64)),
        (
            "parity_mismatches".into(),
            Json::Num(pass.mismatches as f64),
        ),
        ("shed_rejects".into(), Json::Num(pass.rejects as f64)),
        ("bad_rejects".into(), Json::Num(pass.bad_rejects as f64)),
    ];

    let mut ok = pass.errors == 0
        && pass.mismatches == 0
        && pass.bad_rejects == 0
        && hit_rate >= 0.9
        && !pass.latencies_ms.is_empty();

    if obs_mode {
        // Tracing overhead: five alternating off/on pass pairs (three
        // replay rounds each), gated on the MEDIAN OF PER-PAIR DELTAS.
        // Two sequential wall-clock passes on a shared or single-core
        // box are scheduler-noise-dominated (client p50 swings ±15%
        // run to run), so the gate runs on process CPU time when the
        // platform can measure it — drift-immune. Each pair's two
        // passes run back-to-back inside the same noise regime, so the
        // within-pair delta cancels slow machine-wide drift, and the
        // median across pairs rejects pairs that straddled a noise
        // burst. Pair order alternates so drift that survives pairing
        // doesn't always tax the same mode.
        const PAIRS: usize = 5;
        let mut p50_pairs: Vec<(f64, f64)> = Vec::new();
        let mut cpu_pairs: Vec<(f64, f64)> = Vec::new();
        for pair in 0..PAIRS {
            let (off, on) = if pair % 2 == 0 {
                let off = run_serve_pass(&path, &requests, clients, 3, false, None);
                let on = run_serve_pass(&path, &requests, clients, 3, true, None);
                (off, on)
            } else {
                let on = run_serve_pass(&path, &requests, clients, 3, true, None);
                let off = run_serve_pass(&path, &requests, clients, 3, false, None);
                (off, on)
            };
            p50_pairs.push((
                pctile(&off.latencies_ms, 0.50),
                pctile(&on.latencies_ms, 0.50),
            ));
            if let (Some(a), Some(b)) = (off.cpu_ticks, on.cpu_ticks) {
                cpu_pairs.push((a as f64, b as f64));
            }
        }
        // The pair whose delta is the median of all pair deltas; its
        // (off, on) readings are reported alongside the delta.
        let median_pair = |pairs: &[(f64, f64)]| -> (f64, f64, f64) {
            let mut deltas: Vec<(f64, f64, f64)> = pairs
                .iter()
                .map(|&(off, on)| ((on - off) / off.max(1e-9) * 100.0, off, on))
                .collect();
            deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            let (d, off, on) = deltas[deltas.len() / 2];
            (off, on, d)
        };
        let (p50_off, p50_on, p50_overhead_pct) = median_pair(&p50_pairs);
        println!(
            "  tracing overhead: p50 {p50_off:.3}ms off -> {p50_on:.3}ms on \
             ({p50_overhead_pct:+.1}%, median pair delta of {PAIRS})"
        );
        fields.push(("p50_notrace_ms".into(), Json::Num(p50_off)));
        fields.push(("p50_overhead_pct".into(), Json::Num(p50_overhead_pct)));
        let gated_overhead_pct = if cpu_pairs.is_empty() {
            fields.push(("obs_overhead_pct".into(), Json::Num(p50_overhead_pct)));
            p50_overhead_pct
        } else {
            let (cpu_off, cpu_on, cpu) = median_pair(&cpu_pairs);
            println!(
                "  tracing overhead: cpu {cpu_off:.0} -> {cpu_on:.0} ticks \
                 ({cpu:+.1}%, median pair delta of {PAIRS})"
            );
            fields.push(("obs_overhead_pct".into(), Json::Num(cpu)));
            cpu
        };
        if gated_overhead_pct > max_overhead_pct {
            eprintln!(
                "serve-bench FAILED: tracing overhead {gated_overhead_pct:.1}% exceeds {max_overhead_pct}% budget"
            );
            ok = false;
        }

        let eps = pass.endpoints.as_ref().expect("traced pass has endpoints");
        let tile = eps
            .get("endpoints")
            .and_then(Json::as_arr)
            .and_then(|eps| {
                eps.iter()
                    .find(|e| e.get("endpoint").and_then(Json::as_str) == Some("tile"))
            })
            .expect("tile endpoint in /v1/obs/endpoints");

        // The count oracle: the server must have finished exactly the
        // requests the clients measured, plus any shed attempts it
        // rejected on the tile endpoint (probes hit other endpoints).
        let server_requests = tile.get("count").and_then(Json::as_u64).unwrap_or(0);
        fields.push(("server_requests".into(), Json::Num(server_requests as f64)));
        let admitted = pass.latencies_ms.len() as u64;
        if server_requests < admitted || server_requests > admitted + pass.rejects as u64 {
            eprintln!(
                "serve-bench FAILED: server finished {server_requests} tile requests, clients measured {admitted} admitted + {} rejects",
                pass.rejects
            );
            ok = false;
        }

        let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        fields.push(("tile_p50_us".into(), Json::Num(num(tile, "p50_us"))));
        fields.push(("tile_p99_us".into(), Json::Num(num(tile, "p99_us"))));
        println!(
            "  server-side tile: p50 {:.0}us  p99 {:.0}us  (window {})",
            num(tile, "p50_us"),
            num(tile, "p99_us"),
            tile.get("window").and_then(Json::as_u64).unwrap_or(0)
        );
        if let Some(Json::Obj(phases)) = tile.get("phases") {
            for (phase, dist) in phases {
                fields.push((
                    format!("tile_{phase}_p50_us"),
                    Json::Num(num(dist, "p50_us")),
                ));
                fields.push((
                    format!("tile_{phase}_p99_us"),
                    Json::Num(num(dist, "p99_us")),
                ));
                println!(
                    "    phase {phase:>6}: p50 {:>8.1}us  p99 {:>8.1}us  (observed in {} requests)",
                    num(dist, "p50_us"),
                    num(dist, "p99_us"),
                    dist.get("observed").and_then(Json::as_u64).unwrap_or(0)
                );
            }
        }
        if let Some(owner) = tile.get("p99_owner").and_then(Json::as_str) {
            println!(
                "  p99 owner: `{owner}` ({:.0}% of the time in requests at the tile p99)",
                num(tile, "p99_owner_share") * 100.0
            );
        }

        let flight_path = out_dir().join("FLIGHT_serve.json");
        std::fs::write(&flight_path, pass.flight.as_ref().expect("traced flight"))
            .expect("write FLIGHT_serve.json");
        println!(
            "  wrote {} (load at chrome://tracing)",
            flight_path.display()
        );
    }

    let report_path = out_dir().join("BENCH_serve.json");
    std::fs::write(&report_path, Json::Obj(fields).pretty()).expect("write BENCH_serve.json");
    println!("  wrote {}", report_path.display());

    if !ok {
        eprintln!(
            "serve-bench FAILED: errors={} mismatches={} hit_rate={hit_rate:.4}",
            pass.errors, pass.mismatches
        );
    }
    ok
}

/// splitmix64 — the chaos harness's only randomness source, so the
/// whole adversarial schedule is a pure function of the seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Everything one chaos run observes. The `transcript` is the
/// deterministic core — a pure function of the seed — and its FNV-1a
/// digest is what must match across `--runs`. Everything else is
/// timing-dependent and reported outside the digest.
#[derive(Default)]
struct ChaosObserved {
    parity_checks: usize,
    malformed: usize,
    status_2xx: usize,
    status_4xx: usize,
    rejects_429: usize,
    rejects_503: usize,
    bad_rejects: usize,
    unexpected_status: usize,
    loris_total: usize,
    loris_408: usize,
    garbage_total: usize,
    garbage_clean: usize,
    reconnects: usize,
}

/// One seeded chaos run against a fresh in-process server. Returns the
/// transcript digest and the observation report, or `None` when an
/// invariant failed (details on stderr).
fn chaos_run(seed: u64, ops: usize) -> Option<(u64, Vec<(String, pilot_vis::json::Json)>)> {
    use pilot_vis::json::Json;
    use std::io::{Read as _, Write as _};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use timeline::{App, Limits};

    // Deterministic workload + upload bodies, all derived in-memory.
    let clog = workloads::synthetic_clog(4, 800);
    let (slog, _) = convert(&clog, Converter::new());
    let oracle = timeline::TimelineService::from_file(slog.clone());
    let workload_digest = timeline::fnv1a(&slog.to_bytes());

    let good_bodies: Vec<Vec<u8>> = (0..3)
        .map(|k| {
            let c = workloads::synthetic_clog(2, 120 + 60 * k);
            convert(&c, Converter::new()).0.to_bytes()
        })
        .collect();
    let torn_bodies: Vec<Vec<u8>> = (0..2)
        .map(|k| {
            let whole = workloads::synthetic_clog(2, 150 + 50 * k).to_bytes();
            whole[..whole.len() - whole.len() / 3].to_vec()
        })
        .collect();
    let max_body = good_bodies.iter().map(Vec::len).max().unwrap_or(0);

    // Budget fits the pinned default plus ~2 uploads: replacement and
    // LRU eviction both happen under the op mix.
    let default_bytes = slog.to_bytes().len();
    let limits = Limits {
        deadline: Duration::from_millis(300),
        queue_shed: Duration::from_millis(100),
        queue_cap: 8,
        max_request_line: 1024,
        max_header_bytes: 2048,
        max_body_bytes: max_body + (64 << 10),
        header_deadline: Duration::from_millis(150),
        drain_deadline: Duration::from_secs(5),
        budget_bytes: default_bytes + max_body * 5 / 2,
    };

    let app = Arc::new(App::new(timeline::TimelineService::from_file(slog), limits));
    app.enable_tracing();
    let mut server = timeline::serve(Arc::clone(&app), "127.0.0.1:0", 4).expect("bind chaos");
    let addr = format!("127.0.0.1:{}", server.port());

    // The deterministic transcript: one line per op, seeded choices
    // only — no timing, no statuses.
    let mut transcript = format!("chaos seed={seed} ops={ops} workload={workload_digest:016x}\n");
    for (i, b) in good_bodies.iter().enumerate() {
        transcript.push_str(&format!("body good{i}={:016x}\n", timeline::fnv1a(b)));
    }
    for (i, b) in torn_bodies.iter().enumerate() {
        transcript.push_str(&format!("body torn{i}={:016x}\n", timeline::fnv1a(b)));
    }

    let mut rng = SplitMix64(seed);
    let mut obs = ChaosObserved::default();
    let mut client = timeline::Client::connect(&addr).expect("chaos client");
    let query_paths = [
        "/v1/info",
        "/v1/legend",
        "/v1/stats",
        "/v1/traces",
        "/v1/query?t0=0&t1=50",
        "/v1/query?t0=10&t1=20&ranks=0,2",
        "/v1/tile?rank=0&zoom=2&tile=1",
        "/v1/tile?rank=1&zoom=3&tile=4",
        "/v1/tile?rank=3&zoom=1&tile=0",
        "/v1/tile?rank=2&zoom=4&tile=9",
    ];
    // Uploaded-trace id pool: small, so replace / delete / evict / race
    // all collide on the same ids.
    let id_pool = ["u0", "u1", "u2", "u3"];

    // Classify a response on the persistent client; reconnects on
    // transport errors (the server closes after caps/shed rejects).
    let roundtrip = |client: &mut timeline::Client,
                     obs: &mut ChaosObserved,
                     method: &str,
                     path: &str,
                     body: Option<&[u8]>|
     -> Option<timeline::HttpResponse> {
        match client.send(method, path, &[], body) {
            Ok(resp) => {
                match resp.status {
                    200 | 201 => obs.status_2xx += 1,
                    429 => obs.rejects_429 += 1,
                    503 => obs.rejects_503 += 1,
                    400..=499 => obs.status_4xx += 1,
                    _ => obs.unexpected_status += 1,
                }
                if matches!(resp.status, 429 | 503) && resp.header("retry-after").is_none() {
                    obs.bad_rejects += 1;
                }
                let closed = resp.closed;
                if closed {
                    obs.reconnects += 1;
                    *client = timeline::Client::connect(&addr).ok()?;
                }
                Some(resp)
            }
            Err(_) => {
                obs.malformed += 1;
                obs.reconnects += 1;
                *client = timeline::Client::connect(&addr).ok()?;
                None
            }
        }
    };

    for op in 0..ops {
        let dice = rng.below(100);
        if dice < 45 {
            // Query: sometimes against an uploaded trace id.
            let path_idx = rng.below(query_paths.len() as u64) as usize;
            let base = query_paths[path_idx];
            let on_upload = rng.below(3) == 0;
            let sel = rng.below(id_pool.len() as u64) as usize;
            let path = if on_upload {
                let sep = if base.contains('?') { '&' } else { '?' };
                format!("{base}{sep}trace={}", id_pool[sel])
            } else {
                base.to_string()
            };
            transcript.push_str(&format!("op{op} query {path}\n"));
            if let Some(resp) = roundtrip(&mut client, &mut obs, "GET", &path, None) {
                // Byte parity against the oracle for default-trace
                // tiles (cache + index + HTTP must all be invisible).
                if !on_upload && base.starts_with("/v1/tile") && resp.status == 200 {
                    let q: Vec<u64> = base
                        .split(['=', '&'])
                        .filter_map(|s| s.parse().ok())
                        .collect();
                    let want = oracle.tile_json(q[0] as u32, q[1] as u8, q[2] as u32);
                    if want.as_deref().map(String::as_str) != Some(resp.body.as_str()) {
                        eprintln!("chaos op{op}: tile parity mismatch on {base}");
                        return None;
                    }
                    obs.parity_checks += 1;
                }
            }
        } else if dice < 58 {
            let b = rng.below(good_bodies.len() as u64) as usize;
            let id = id_pool[rng.below(id_pool.len() as u64) as usize];
            transcript.push_str(&format!("op{op} upload id={id} body=good{b}\n"));
            roundtrip(
                &mut client,
                &mut obs,
                "POST",
                &format!("/v1/traces?id={id}"),
                Some(&good_bodies[b]),
            );
        } else if dice < 68 {
            // Torn upload: must register as salvaged (201) or be a
            // clean client error — never a 500.
            let b = rng.below(torn_bodies.len() as u64) as usize;
            let id = id_pool[rng.below(id_pool.len() as u64) as usize];
            transcript.push_str(&format!("op{op} torn-upload id={id} body=torn{b}\n"));
            if let Some(resp) = roundtrip(
                &mut client,
                &mut obs,
                "POST",
                &format!("/v1/traces?id={id}"),
                Some(&torn_bodies[b]),
            ) {
                if resp.status >= 500 {
                    eprintln!("chaos op{op}: torn upload answered {}", resp.status);
                    return None;
                }
            }
        } else if dice < 76 {
            let ghost = rng.below(4) == 0;
            let id = if ghost {
                "ghost".to_string()
            } else {
                id_pool[rng.below(id_pool.len() as u64) as usize].to_string()
            };
            transcript.push_str(&format!("op{op} delete id={id}\n"));
            roundtrip(
                &mut client,
                &mut obs,
                "DELETE",
                &format!("/v1/traces/{id}"),
                None,
            );
        } else if dice < 84 {
            // Raw byte garbage at the socket: the worker must answer a
            // well-formed 4xx or close cleanly, and survive.
            let len = 1 + rng.below(600) as usize;
            let garbage: Vec<u8> = (0..len).map(|_| (rng.next() & 0xFF) as u8).collect();
            transcript.push_str(&format!(
                "op{op} garbage bytes={len} digest={:016x}\n",
                timeline::fnv1a(&garbage)
            ));
            obs.garbage_total += 1;
            if let Ok(mut s) = std::net::TcpStream::connect(&addr) {
                let _ = s.set_read_timeout(Some(Duration::from_secs(3)));
                let _ = s.write_all(&garbage);
                let _ = s.shutdown(std::net::Shutdown::Write);
                let mut resp = Vec::new();
                let _ = s.read_to_end(&mut resp);
                if resp.is_empty() {
                    obs.garbage_clean += 1;
                } else if resp.starts_with(b"HTTP/1.1 4") || resp.starts_with(b"HTTP/1.1 5") {
                    obs.status_4xx += 1;
                } else {
                    eprintln!(
                        "chaos op{op}: garbage got a non-error response: {:?}",
                        String::from_utf8_lossy(&resp[..resp.len().min(60)])
                    );
                    return None;
                }
            }
        } else if dice < 91 {
            // Slow-loris: a partial request line then silence. The
            // server must cut the connection off promptly — 408 (or a
            // 429 if the connection was shed before reading) — instead
            // of pinning a worker until the client gives up.
            transcript.push_str(&format!("op{op} slow-loris\n"));
            obs.loris_total += 1;
            if let Ok(mut s) = std::net::TcpStream::connect(&addr) {
                let _ = s.set_read_timeout(Some(Duration::from_secs(6)));
                let _ = s.write_all(b"GET /v1/quer");
                let started = Instant::now();
                let mut resp = Vec::new();
                let _ = s.read_to_end(&mut resp);
                let cut = started.elapsed() < Duration::from_secs(4);
                if resp.starts_with(b"HTTP/1.1 408") {
                    obs.loris_408 += 1;
                } else if resp.starts_with(b"HTTP/1.1 4") {
                    obs.status_4xx += 1;
                } else if !resp.is_empty() {
                    eprintln!(
                        "chaos op{op}: slow-loris got {:?}",
                        String::from_utf8_lossy(&resp[..resp.len().min(60)])
                    );
                    return None;
                }
                if !cut {
                    eprintln!("chaos op{op}: slow-loris pinned a worker past the stall deadline");
                    return None;
                }
            }
        } else if dice < 96 {
            // Burst overload: 16 one-shot clients at once against a
            // queue of 8. Every response must be 200, 429, or 503 —
            // rejects with Retry-After — and none may hang.
            let path_idx = rng.below(query_paths.len() as u64) as usize;
            let path = query_paths[path_idx].to_string();
            transcript.push_str(&format!("op{op} burst {path}\n"));
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let addr = addr.clone();
                    let path = path.clone();
                    std::thread::spawn(move || -> Result<(u16, bool), String> {
                        let mut c = timeline::Client::connect(&addr)
                            .map_err(|e| format!("connect: {e}"))?;
                        match c.send("GET", &path, &[], None) {
                            Ok(r) => Ok((r.status, r.header("retry-after").is_some())),
                            Err(e) => Err(format!("send: {e}")),
                        }
                    })
                })
                .collect();
            for h in handles {
                match h.join().expect("burst thread") {
                    Ok((200, _)) => obs.status_2xx += 1,
                    Ok((429, retry)) => {
                        obs.rejects_429 += 1;
                        if !retry {
                            obs.bad_rejects += 1;
                        }
                    }
                    Ok((503, retry)) => {
                        obs.rejects_503 += 1;
                        if !retry {
                            obs.bad_rejects += 1;
                        }
                    }
                    Ok((other, _)) if (400..500).contains(&other) => obs.status_4xx += 1,
                    Ok((other, _)) => {
                        eprintln!("chaos op{op}: burst got status {other}");
                        return None;
                    }
                    // A reject can land while the request is still being
                    // written; the resulting broken pipe is a clean shed.
                    Err(_) => obs.reconnects += 1,
                }
            }
        } else {
            // Evict-while-querying race: hammer one uploaded id from a
            // side thread while re-uploading over the budget so it gets
            // evicted mid-flight. In-flight queries must finish from
            // their own Arc — 200, 404, or a shed, never a tear.
            let victim = id_pool[rng.below(id_pool.len() as u64) as usize];
            let b = rng.below(good_bodies.len() as u64) as usize;
            transcript.push_str(&format!("op{op} evict-race victim={victim} body=good{b}\n"));
            let _ = roundtrip(
                &mut client,
                &mut obs,
                "POST",
                &format!("/v1/traces?id={victim}"),
                Some(&good_bodies[b]),
            );
            let racer = {
                let addr = addr.clone();
                let victim = victim.to_string();
                std::thread::spawn(move || -> Result<Vec<u16>, String> {
                    let mut c = timeline::Client::connect(&addr).map_err(|e| e.to_string())?;
                    let mut statuses = Vec::new();
                    for _ in 0..10 {
                        match c.send(
                            "GET",
                            &format!("/v1/query?t0=0&t1=30&trace={victim}"),
                            &[],
                            None,
                        ) {
                            Ok(r) => {
                                let closed = r.closed;
                                statuses.push(r.status);
                                if closed {
                                    c = timeline::Client::connect(&addr)
                                        .map_err(|e| e.to_string())?;
                                }
                            }
                            Err(e) => return Err(e.to_string()),
                        }
                    }
                    Ok(statuses)
                })
            };
            // Evict the victim by uploading fresh traces under other
            // ids until the budget pushes it out (LRU), then racing on.
            for k in 0..2u64 {
                let other =
                    id_pool[((rng.below(id_pool.len() as u64) + k) as usize + 1) % id_pool.len()];
                let gb = rng.below(good_bodies.len() as u64) as usize;
                let _ = roundtrip(
                    &mut client,
                    &mut obs,
                    "POST",
                    &format!("/v1/traces?id={other}"),
                    Some(&good_bodies[gb]),
                );
            }
            match racer.join().expect("racer thread") {
                Ok(statuses) => {
                    for s in statuses {
                        match s {
                            200 => obs.status_2xx += 1,
                            404 => obs.status_4xx += 1,
                            429 => obs.rejects_429 += 1,
                            503 => obs.rejects_503 += 1,
                            other => {
                                eprintln!("chaos op{op}: evict race got status {other}");
                                return None;
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("chaos op{op}: evict racer transport error: {e}");
                    return None;
                }
            }
        }
    }

    // Liveness probe: after the whole mix, a fresh client gets a 200.
    let mut probe = timeline::Client::connect(&addr).expect("liveness probe");
    let (alive_status, _) = probe.get("/v1/info").expect("liveness request");
    drop(probe);
    drop(client);

    // Graceful drain must converge with nothing abandoned.
    let report = server.drain(std::time::Duration::from_secs(10));

    // Post-drain ledger: every gauge balanced, no worker ever panicked,
    // the registry within budget.
    let snap = app.obs_handle().snapshot();
    let gauge = |name: &str| snap.gauges.get(name).map(|g| g.value).unwrap_or(0);
    let occupancy = app.registry().occupancy();

    let invariants: Vec<(&str, bool)> = vec![
        (
            "no_worker_panics",
            snap.counter("serve.http.worker_panic") == 0,
        ),
        ("no_malformed_responses", obs.malformed == 0),
        ("no_unexpected_statuses", obs.unexpected_status == 0),
        ("rejects_carry_retry_after", obs.bad_rejects == 0),
        ("parity_held", obs.parity_checks > 0),
        ("server_alive_after_mix", alive_status == 200),
        ("drained_cleanly", report.drained),
        ("no_leaked_in_flight", gauge("serve.http.in_flight") == 0),
        (
            "no_leaked_queue_depth",
            gauge("serve.http.queue_depth") == 0,
        ),
        ("no_leaked_connections", gauge("serve.http.open_conns") == 0),
        (
            "registry_within_budget",
            occupancy.bytes <= occupancy.budget,
        ),
    ];
    let mut ok = true;
    for (name, held) in &invariants {
        if !held {
            eprintln!("chaos INVARIANT FAILED: {name}");
            ok = false;
        }
    }
    if !ok {
        return None;
    }

    let digest = timeline::fnv1a(transcript.as_bytes());
    let fields: Vec<(String, Json)> = vec![
        ("status_2xx".into(), Json::Num(obs.status_2xx as f64)),
        ("status_4xx".into(), Json::Num(obs.status_4xx as f64)),
        ("rejects_429".into(), Json::Num(obs.rejects_429 as f64)),
        ("rejects_503".into(), Json::Num(obs.rejects_503 as f64)),
        ("parity_checks".into(), Json::Num(obs.parity_checks as f64)),
        ("loris_cut_off".into(), Json::Num(obs.loris_408 as f64)),
        ("garbage_ops".into(), Json::Num(obs.garbage_total as f64)),
        ("reconnects".into(), Json::Num(obs.reconnects as f64)),
        (
            "registry_evictions".into(),
            Json::Num(occupancy.evictions as f64),
        ),
        ("registry_bytes".into(), Json::Num(occupancy.bytes as f64)),
        (
            "invariants".into(),
            Json::Obj(
                invariants
                    .iter()
                    .map(|(n, h)| ((*n).to_string(), Json::Bool(*h)))
                    .collect(),
            ),
        ),
    ];
    Some((digest, fields))
}

/// `repro serve-chaos`: drive a seeded adversarial client mix —
/// queries with oracle byte-parity, whole and torn uploads, deletes,
/// raw byte garbage, slow-loris stalls, burst overload past the accept
/// queue, and evict-while-querying races — against an in-process
/// `pilotd` with tight limits. Asserts the robustness invariants (no
/// panics, no leaked connections or gauges, every response well-formed,
/// rejects carry `Retry-After`, graceful drain converges) and that the
/// seeded schedule digest is identical across `--runs` repetitions.
/// Writes `out/CHAOS.json`.
fn serve_chaos(seed: u64, runs: usize, ops: usize) -> bool {
    use pilot_vis::json::Json;
    println!("# serve-chaos — seeded adversarial mix, seed {seed}, {ops} ops x {runs} run(s)");
    let mut digests: Vec<u64> = Vec::new();
    let mut last_fields = None;
    for run in 0..runs.max(1) {
        let started = std::time::Instant::now();
        match chaos_run(seed, ops) {
            Some((digest, fields)) => {
                println!(
                    "  run {run}: digest {digest:016x} in {:.2}s",
                    started.elapsed().as_secs_f64()
                );
                digests.push(digest);
                last_fields = Some(fields);
            }
            None => {
                eprintln!("serve-chaos FAILED: invariant violated in run {run} (seed {seed})");
                return false;
            }
        }
    }
    let deterministic = digests.windows(2).all(|w| w[0] == w[1]);
    if !deterministic {
        eprintln!("serve-chaos FAILED: digests differ across runs: {digests:x?}");
    }

    let mut fields: Vec<(String, Json)> = vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("runs".into(), Json::Num(digests.len() as f64)),
        ("ops".into(), Json::Num(ops as f64)),
        (
            "digest".into(),
            Json::Str(format!("{:016x}", digests.first().copied().unwrap_or(0))),
        ),
        ("deterministic".into(), Json::Bool(deterministic)),
    ];
    if let Some(observed) = last_fields {
        fields.push(("observed".into(), Json::Obj(observed)));
    }
    let path = out_dir().join("CHAOS.json");
    std::fs::write(&path, Json::Obj(fields).pretty()).expect("write CHAOS.json");
    println!("  wrote {}", path.display());
    deterministic
}

/// `repro metrics`: run a workload with the observability stack wired
/// through every layer (minimpi ranks, Pilot instrumentation, mpelog,
/// and the conversion pipeline), print the merged registry, write
/// `out/METRICS.json` + `out/trace.json`, and cross-check the runtime
/// counters against the rendered log. Returns whether the cross-check
/// passed.
fn metrics(workload: &str, parallel: usize) -> bool {
    println!("# metrics — {workload} workload with the obs stack attached");
    let o = obs::Obs::handle();
    // Workloads resolve through the registry: every `--workload` name
    // the rest of the CLI understands works here too, each one
    // self-checking its oracle inside `run`.
    let Some(w) = workloads::workload_by_name(workload) else {
        eprintln!(
            "unknown workload '{workload}'; try: {}",
            workloads::workload_names().join(" ")
        );
        std::process::exit(2);
    };
    let ranks = (w.min_capacity() + 1).max(6);
    let cfg = PilotConfig::new(ranks)
        .with_services(Services::parse("j").unwrap())
        .with_observability(o.clone());
    let outcome = w.run(cfg);
    assert!(outcome.is_clean(), "{outcome:?}");

    let clog = outcome.clog().expect("run must have -pisvc=j");
    let conv = Converter::new()
        .timeline_names(outcome.artifacts.process_names.clone())
        .parallelism(parallel)
        .observability(o.clone());
    let (slog, warnings) = convert(clog, conv);
    for w in &warnings {
        println!("  converter warning: {w}");
    }
    let slog_path = out_dir().join(format!("metrics_{workload}.pslog2"));
    {
        let _span = o.span("write", "convert", 0);
        slog.write_to(&slog_path).expect("write slog2");
    }

    let snap = o.snapshot();
    print!("{}", snap.to_prometheus_text());
    let metrics_path = out_dir().join("METRICS.json");
    std::fs::write(&metrics_path, snap.to_json()).expect("write METRICS.json");
    let trace_path = out_dir().join("trace.json");
    std::fs::write(&trace_path, o.tracer.to_chrome_json()).expect("write trace.json");
    println!(
        "  wrote {}, {} ({} spans; open in chrome://tracing or ui.perfetto.dev), {}",
        metrics_path.display(),
        trace_path.display(),
        o.tracer.len(),
        slog_path.display(),
    );

    let cc = pilot_vis::counters_vs_trace(&slog, &snap);
    println!("  {cc}");
    cc.passed()
}

/// What the fault matrix records about one faulty run. `digest` is the
/// determinism contract: with the same seed it must be byte-identical
/// across repeated runs of the same scenario.
struct Forensics {
    digest: String,
    report_text: String,
    truncated: bool,
    slog: slog2::Slog2File,
}

/// Shared post-mortem for every scenario: collect verdicts from the
/// outcome, salvage the spill directory, convert, validate, and build
/// the deterministic digest.
fn forensics(
    name: &str,
    seed: u64,
    outcome: &pilot::PilotOutcome,
    dir: &Path,
) -> Result<Forensics, String> {
    let mut verdicts: Vec<RankVerdict> = outcome
        .world
        .failures
        .iter()
        .map(|f| RankVerdict {
            rank: f.rank as u32,
            kind: FailureKind::Aborted,
            detail: f.to_string(),
        })
        .collect();
    if let Some(dl) = &outcome.artifacts.deadlock {
        verdicts.extend(dl.stuck.iter().map(|(p, desc)| RankVerdict {
            rank: *p as u32,
            kind: FailureKind::Deadlocked,
            detail: desc.clone(),
        }));
    }
    verdicts.sort_by(|a, b| (a.rank, &a.detail).cmp(&(b.rank, &b.detail)));
    if verdicts.is_empty() {
        return Err(format!("{name}: the injected fault produced no verdict"));
    }

    // Per-rank salvage census: what reached disk before the crash.
    let mut records = 0usize;
    let mut bytes = 0usize;
    let mut torn: Vec<usize> = Vec::new();
    for r in 0..outcome.world.exit_codes.len() {
        let p = mpelog::spill::spill_path(dir, r);
        if let Ok(Some(s)) = mpelog::spill::read_spill(&p) {
            records += s.records.len();
            bytes += std::fs::metadata(&p).map(|m| m.len() as usize).unwrap_or(0);
            if s.torn_tail {
                torn.push(r);
            }
        }
    }
    let clog = mpelog::salvage(dir)
        .map_err(|e| format!("{name}: salvage I/O error: {e}"))?
        .ok_or_else(|| format!("{name}: no spill files to salvage"))?;

    let diagnosis = match &outcome.artifacts.deadlock {
        Some(dl) => dl.to_string(),
        None => {
            let who: Vec<String> = outcome
                .world
                .failures
                .iter()
                .map(|f| format!("P{} in {}", f.rank, f.last_op))
                .collect();
            format!("{} rank(s) panicked: {}", who.len(), who.join(", "))
        }
    };
    let report = SalvageReport {
        verdicts: verdicts.clone(),
        diagnosis: Some(diagnosis.clone()),
        records_recovered: records,
        bytes_recovered: bytes,
        truncated: !torn.is_empty(),
    };
    let truncated = report.truncated;
    let c = Converter::new()
        .parallelism(parallelism())
        .on_torn(TornPolicy::Salvage(report))
        .convert(TraceSource::InMemory(&clog))
        .expect("in-memory source cannot fail");
    let (slog, warnings) = (c.file, c.warnings);
    let defects = slog2::validate(&slog);
    if !defects.is_empty() {
        return Err(format!(
            "{name}: salvaged SLOG2 fails validation: {defects:?}"
        ));
    }

    let mut digest = String::new();
    for v in &verdicts {
        digest.push_str(&format!(
            "verdict: rank {} {} — {}\n",
            v.rank, v.kind, v.detail
        ));
    }
    digest.push_str(&format!("diagnosis: {diagnosis}\n"));
    digest.push_str(&format!(
        "salvaged: {records} records, {bytes} bytes, torn ranks {torn:?}\n"
    ));
    digest.push_str(&format!(
        "timeline: {} drawables on {} timelines\n",
        slog.total_drawables(),
        slog.timelines.len()
    ));

    let mut report_text = format!("# {name} (seed {seed})\n{digest}");
    for w in &warnings {
        report_text.push_str(&format!("warning: {w}\n"));
    }
    Ok(Forensics {
        digest,
        report_text,
        truncated,
        slog,
    })
}

/// `repro faults`: the seeded crash-forensics matrix. Each scenario
/// injects a deterministic fault, then proves the wreckage is usable:
/// the spill salvages, the salvaged SLOG2 validates and reloads, the
/// timeline carries the right terminal state, and the whole digest is
/// identical across `runs` repetitions with the same seed.
fn faults(seed: u64, runs: usize) -> bool {
    let runs = runs.max(1);
    println!("# faults — crash-forensics matrix (seed {seed}, {runs} run(s) per scenario)");
    use bench::scenarios::{self, ScenarioCfg, ScenarioFn};
    let scenarios: [(&'static str, ScenarioFn, FailureKind, bool); 4] = [
        (
            "deadlock",
            scenarios::fault_deadlock,
            FailureKind::Deadlocked,
            false,
        ),
        ("panic", scenarios::fault_panic, FailureKind::Aborted, false),
        (
            "torn-spill",
            scenarios::fault_torn_spill,
            FailureKind::Aborted,
            true,
        ),
        (
            "stall",
            scenarios::fault_stall,
            FailureKind::Deadlocked,
            false,
        ),
    ];
    let mut ok = true;
    for (name, run_fn, kind, want_torn) in scenarios {
        println!("== {name} ==");
        let mut first: Option<Forensics> = None;
        for i in 0..runs {
            let (outcome, dir) = run_fn(&ScenarioCfg::wall(seed));
            let f = forensics(name, seed, &outcome, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            let f = match f {
                Ok(f) => f,
                Err(e) => {
                    println!("  FAIL: {e}");
                    ok = false;
                    break;
                }
            };
            match &first {
                Some(f0) => {
                    if f0.digest != f.digest {
                        println!(
                            "  FAIL: run {i} diverged from run 0 under the same seed\n\
                             --- run 0 ---\n{}--- run {i} ---\n{}",
                            f0.digest, f.digest
                        );
                        ok = false;
                    }
                }
                None => {
                    let cat = kind.category_name();
                    if f.slog.category_by_name(cat).is_none() {
                        println!("  FAIL: no terminal {cat} state in the salvaged timeline");
                        ok = false;
                    }
                    if want_torn != f.truncated {
                        println!(
                            "  FAIL: expected truncated={want_torn}, got {}",
                            f.truncated
                        );
                        ok = false;
                    }
                    let slog_path = out_dir().join(format!("FAULT_{name}.pslog2"));
                    f.slog.write_to(&slog_path).expect("write salvaged slog2");
                    let txt_path = out_dir().join(format!("FAULT_{name}.diagnosis.txt"));
                    std::fs::write(&txt_path, &f.report_text).expect("write diagnosis");
                    // The artifact must be loadable by any SLOG2 reader.
                    match slog2::Slog2File::read_from(&slog_path) {
                        Ok(back) if back.total_drawables() == f.slog.total_drawables() => {}
                        other => {
                            println!("  FAIL: written artifact does not load back: {other:?}");
                            ok = false;
                        }
                    }
                    print!(
                        "{}",
                        f.digest.lines().fold(String::new(), |mut s, l| {
                            s.push_str("  ");
                            s.push_str(l);
                            s.push('\n');
                            s
                        })
                    );
                    println!("  wrote {} + {}", slog_path.display(), txt_path.display());
                    first = Some(f);
                }
            }
        }
        if first.is_some() && ok {
            println!("  deterministic across {runs} run(s)");
        }
    }
    ok
}

/// Run one phase and print its wall-clock — every subcommand reports
/// elapsed time whether or not the obs stack is attached.
fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    println!("[time] {label}: {:.3}s", start.elapsed().as_secs_f64());
    out
}

/// `diagnose` — run the causal diagnosis engine over a workload trace.
///
/// Writes `out/DIAGNOSIS.json` (and a per-workload copy for CI
/// artifact uploads) plus `out/diagnosis_<workload>.svg` with the
/// critical path highlighted and off-path drawables dimmed. The
/// `instance-a`/`instance-b` workloads reproduce the paper's Figs. 4-5
/// diagnoses from deterministic paper-scale fixtures; `thumbnail` and
/// `lab2` diagnose a live run. Returns whether the workload's expected
/// verdict (if it has one) was found.
fn diagnose(workload: &str) -> bool {
    use analysis::VerdictKind;
    println!("# diagnose — automated bottleneck verdicts ({workload})");
    let live = |outcome: &pilot::PilotOutcome| {
        convert(
            outcome.clog().expect("run must have -pisvc=j"),
            named(outcome),
        )
        .0
    };
    let slog = match workload {
        "instance-a" => analysis::fixtures::instance_a(),
        "instance-b" => analysis::fixtures::instance_b(),
        // Anything else resolves through the workload registry and
        // diagnoses a live run.
        other => match workloads::workload_by_name(other) {
            Some(w) => {
                let ranks = (w.min_capacity() + 1).max(6);
                let cfg = PilotConfig::new(ranks).with_services(Services::parse("j").unwrap());
                let outcome = w.run(cfg);
                assert!(outcome.is_clean(), "{outcome:?}");
                live(&outcome)
            }
            None => {
                eprintln!(
                    "unknown workload '{other}'; try: instance-a instance-b {}",
                    workloads::workload_names().join(" ")
                );
                std::process::exit(2);
            }
        },
    };

    let az = analysis::TraceAnalyzer::new(&slog);
    let d = az.diagnose(workload);
    let json = d.to_json(&slog);
    let path = out_dir().join("DIAGNOSIS.json");
    std::fs::write(&path, &json).expect("write DIAGNOSIS.json");
    let per_workload = out_dir().join(format!("DIAGNOSIS_{workload}.json"));
    std::fs::write(&per_workload, &json).expect("write per-workload diagnosis");

    let cp = az.critical_path();
    let overlay = jumpshot::PathOverlay {
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
    };
    let opts = jumpshot::RenderOptions::default()
        .with_width(1400)
        .with_overlay(overlay);
    let svg = jumpshot::Renderer::render(&jumpshot::SvgRenderer, &slog, &opts);
    let svg_path = out_dir().join(format!("diagnosis_{workload}.svg"));
    std::fs::write(&svg_path, svg).expect("write overlay svg");

    println!(
        "  makespan {:.3}s; critical path {:.3}s across {} segment(s), {} hop(s)",
        d.makespan,
        d.critical_path_length,
        cp.segments.len(),
        cp.hops.len()
    );
    let name = |tl: slog2::TimelineId| slog.timeline_name(tl).unwrap_or("?").to_string();
    for v in &d.verdicts {
        let blamed = match v.blamed {
            Some(b) => format!(", blames {}", name(b)),
            None => String::new(),
        };
        println!(
            "  verdict {}: [{:.3}s, {:.3}s]{} — ~{:.3}s recoverable ({})",
            v.kind.name(),
            v.window.t0,
            v.window.t1,
            blamed,
            v.recoverable_seconds,
            v.detail
        );
    }
    println!(
        "  wrote {}, {}, {}",
        path.display(),
        per_workload.display(),
        svg_path.display()
    );

    // The smoke check CI runs: each instance workload must reproduce
    // the paper's diagnosis, with the right culprit.
    match workload {
        "instance-a" => {
            let ok = d.has(VerdictKind::SerializedPhase);
            if !ok {
                eprintln!("  FAIL: expected a SerializedPhase verdict for instance A");
            }
            ok
        }
        "instance-b" => match d.verdict(VerdictKind::LateProducer) {
            Some(v) if v.blamed == Some(slog2::TimelineId(0)) && v.recoverable_seconds >= 11.0 => {
                true
            }
            other => {
                eprintln!(
                    "  FAIL: expected LateProducer blaming PI_MAIN with >= 11 s recoverable, got {other:?}"
                );
                false
            }
        },
        _ => true,
    }
}

/// `diff` — compare two traces and pronounce per-issue verdicts.
///
/// With two positional `.pslog2` paths, diffs those files. Otherwise
/// diffs a built-in before/after workload pair (`instance-a-vs-fixed`
/// or `instance-b-vs-fixed`) at paper scale. Writes `out/DIFF.json`
/// (plus a per-slug copy) and `out/diff_<slug>.svg`, prints the ascii
/// side-by-side view and the issue table, and — for the built-in
/// workloads — returns whether the expected verdict came back.
fn diff_cmd(before_path: Option<&str>, after_path: Option<&str>, workload: &str) -> bool {
    use analysis::VerdictKind;
    use diff::DeltaVerdict;

    let stem = |p: &str| {
        Path::new(p)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("trace")
            .to_string()
    };
    let load = |p: &str| match slog2::Slog2File::read_validated(Path::new(p)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot load {p}: {e:?}");
            std::process::exit(2);
        }
    };
    let (before, after, labels, slug, expect) = match (before_path, after_path) {
        (Some(b), Some(a)) => {
            println!("# diff — {b} vs {a}");
            let slug = format!("{}_vs_{}", stem(b), stem(a));
            (load(b), load(a), (b.to_string(), a.to_string()), slug, None)
        }
        _ => {
            println!("# diff — built-in workload {workload}");
            let (before, after, labels, expect) = match workload {
                "instance-a-vs-fixed" => (
                    analysis::fixtures::instance_a(),
                    analysis::fixtures::instance_fixed(),
                    ("instance-a".to_string(), "fixed".to_string()),
                    Some(VerdictKind::SerializedPhase),
                ),
                "instance-b-vs-fixed" => (
                    analysis::fixtures::instance_b(),
                    analysis::fixtures::instance_fixed(),
                    ("instance-b".to_string(), "fixed".to_string()),
                    Some(VerdictKind::LateProducer),
                ),
                other => {
                    eprintln!(
                        "unknown diff workload '{other}'; try: instance-a-vs-fixed instance-b-vs-fixed (or pass two .pslog2 paths)"
                    );
                    std::process::exit(2);
                }
            };
            (before, after, labels, workload.to_string(), expect)
        }
    };

    let d = diff::diff_traces(&before, &after, (&labels.0, &labels.1));
    let json = d.to_json();
    let json_path = out_dir().join("DIFF.json");
    std::fs::write(&json_path, &json).expect("write DIFF.json");
    let slug_path = out_dir().join(format!("DIFF_{slug}.json"));
    std::fs::write(&slug_path, &json).expect("write per-slug diff");
    let (_, svg) = diff::render_side_by_side(&before, &after, &d.delta, "svg", 1400)
        .expect("svg backend exists");
    let svg_path = out_dir().join(format!("diff_{slug}.svg"));
    std::fs::write(&svg_path, svg).expect("write side-by-side svg");

    let (_, ascii) = diff::render_side_by_side(&before, &after, &d.delta, "ascii", 100)
        .expect("ascii backend exists");
    println!("{ascii}");
    println!(
        "  makespan {:.3}s -> {:.3}s ({:+.3}s)",
        d.delta.makespan.0,
        d.delta.makespan.1,
        d.makespan_delta()
    );
    if d.issues.is_empty() {
        println!("  no issues detected on either side");
    }
    for i in &d.issues {
        println!(
            "  {:<20} {:<10} recovered {:+.3}s — {}",
            i.kind.name(),
            i.verdict.name(),
            i.recovered_seconds,
            i.detail
        );
    }
    println!(
        "  summary: {} fixed, {} regressed, {} unchanged",
        d.count(DeltaVerdict::Fixed),
        d.count(DeltaVerdict::Regressed),
        d.count(DeltaVerdict::Unchanged)
    );
    println!(
        "  wrote {}, {}, {}",
        json_path.display(),
        slug_path.display(),
        svg_path.display()
    );

    match expect {
        None => true,
        Some(kind) => match d.issue(kind) {
            Some(i) if i.verdict == DeltaVerdict::Fixed && i.recovered_seconds > 0.0 => true,
            other => {
                eprintln!(
                    "  FAIL: expected {} to be Fixed with recovered seconds > 0, got {other:?}",
                    kind.name()
                );
                false
            }
        },
    }
}

/// `bench-diff` — gate current `BENCH_*.json` reports against
/// committed baselines. Missing baseline dir, unparsable reports, and
/// absent current counterparts all fail loudly; `warn_only` reports
/// the same table but never fails (the mode pushes to main use, so a
/// regressed baseline can land and be refreshed).
fn bench_diff_cmd(
    baseline_dir: &str,
    current_dir: &str,
    max_regress_pct: f64,
    warn_only: bool,
) -> bool {
    use pilot_vis::json::Json;

    println!(
        "# bench-diff — {current_dir} vs baselines in {baseline_dir} (gate: {max_regress_pct}%{})",
        if warn_only { ", warn-only" } else { "" }
    );
    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("bench-diff FAILED: cannot read baseline dir {baseline_dir}: {e}");
            return warn_only;
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("bench-diff FAILED: no BENCH_*.json baselines in {baseline_dir}");
        return warn_only;
    }

    let mut reports = Vec::new();
    let mut missing_current = Vec::new();
    let mut regressed_total = 0usize;
    for name in &names {
        let base_path = Path::new(baseline_dir).join(name);
        let cur_path = Path::new(current_dir).join(name);
        let parse = |p: &Path| -> Option<Json> {
            let text = std::fs::read_to_string(p).ok()?;
            Json::parse(&text).ok()
        };
        let Some(base) = parse(&base_path) else {
            eprintln!("  {name}: baseline unreadable or invalid JSON — counts as failure");
            missing_current.push(name.clone());
            continue;
        };
        let Some(cur) = parse(&cur_path) else {
            eprintln!(
                "  {name}: no current report at {} — counts as failure",
                cur_path.display()
            );
            missing_current.push(name.clone());
            continue;
        };
        let d = diff::diff_bench(name, &base, &cur, max_regress_pct);
        println!("== {name} ==");
        for m in &d.metrics {
            let flag = match m.verdict {
                diff::DeltaVerdict::Regressed => "  <-- REGRESSED",
                diff::DeltaVerdict::Fixed => "  (improved)",
                diff::DeltaVerdict::Unchanged => "",
            };
            println!(
                "  {:<24} {:>12.4} -> {:>12.4}  {:+8.2}%  [{}]{}",
                m.name,
                m.before,
                m.after,
                m.change_pct,
                m.direction.name(),
                flag
            );
        }
        for k in &d.missing_in_current {
            println!("  {k:<24} missing from current report");
        }
        regressed_total += d.regressed().len();
        reports.push(d);
    }

    let ok = regressed_total == 0 && missing_current.is_empty();
    let report = Json::Obj(vec![
        ("max_regress_pct".into(), Json::Num(max_regress_pct)),
        ("warn_only".into(), Json::Bool(warn_only)),
        (
            "reports".into(),
            Json::Arr(reports.iter().map(diff::BenchDiff::to_json_value).collect()),
        ),
        (
            "missing_current".into(),
            Json::Arr(
                missing_current
                    .iter()
                    .map(|s| Json::Str(s.clone()))
                    .collect(),
            ),
        ),
        ("regressed".into(), Json::Num(regressed_total as f64)),
        ("passed".into(), Json::Bool(ok)),
    ]);
    let path = out_dir().join("BENCH_DIFF.json");
    std::fs::write(&path, report.pretty()).expect("write BENCH_DIFF.json");
    println!("  wrote {}", path.display());

    if ok {
        println!(
            "  perf gate PASSED ({} report(s), 0 regressions)",
            reports.len()
        );
    } else if warn_only {
        println!(
            "  perf gate: {regressed_total} regression(s), {} missing — WARN ONLY, not failing",
            missing_current.len()
        );
    } else {
        eprintln!(
            "bench-diff FAILED: {regressed_total} regression(s), {} missing report(s) (gate {max_regress_pct}%)",
            missing_current.len()
        );
    }
    ok || warn_only
}

/// `list-workloads` — enumerate the workload registry, one line per
/// entry, so shell users and CI scripts discover what `--workload`
/// accepts without reading source.
fn list_workloads() {
    println!("# workloads — names accepted by --workload");
    for w in workloads::workloads() {
        println!(
            "  {:<16} min-capacity {:>2}   {}",
            w.name(),
            w.min_capacity(),
            w.summary()
        );
    }
    println!("  (diagnose additionally accepts the fixture traces: instance-a instance-b)");
}

/// `explore` — seeded schedule exploration of the deadlock-cycle
/// scenario under the virtual engine.
///
/// Per-rank virtual timestamps are schedule-invariant by design (each
/// is a pure function of that rank's own op sequence and message wait
/// times), so the observable that distinguishes legal schedules is
/// *arrival order*. We therefore run the scenario with the native call
/// log enabled: the service rank records lines in the exact order the
/// scheduler delivered them, and — unlike MPE buffers — that log
/// survives the abort. Each seed runs twice (the rerun must be
/// byte-identical); the digest covers the native log and the salvaged
/// CLOG2. Passing means: one terminal verdict class across all seeds,
/// every rerun identical, and at least two distinct schedules found.
fn explore(seeds: usize) -> bool {
    use bench::scenarios::{fault_deadlock, ScenarioCfg};
    let seeds = seeds.max(2);
    println!("# explore — deadlock-cycle schedules across {seeds} virtual seed(s)");

    let run_one = |seed: u64, attempt: usize| -> (String, u64) {
        let mut cfg = ScenarioCfg::virtual_(seed);
        cfg.call_log = true;
        cfg.dir_tag = format!("explore-{seed}-{attempt}");
        let (out, dir) = fault_deadlock(&cfg);
        let verdict = match &out.artifacts.deadlock {
            Some(r) => format!("deadlock ({} stuck)", r.stuck.len()),
            None => format!("no conviction (exit codes {:?})", out.world.exit_codes),
        };
        let mut bytes: Vec<u8> = Vec::new();
        for line in &out.artifacts.native_log {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        if let Ok(Some(clog)) = mpelog::salvage(&dir) {
            bytes.extend_from_slice(&clog.to_bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
        (verdict, timeline::fnv1a(&bytes))
    };

    let mut ok = true;
    let mut verdicts: Vec<String> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    for seed in 0..seeds as u64 {
        let (verdict, digest) = run_one(seed, 0);
        let (v2, d2) = run_one(seed, 1);
        if (&verdict, digest) != (&v2, d2) {
            println!("  seed {seed}: FAIL — rerun diverged ({digest:016x} vs {d2:016x})");
            ok = false;
        }
        if !verdict.starts_with("deadlock") {
            println!("  seed {seed}: FAIL — expected a deadlock conviction, got: {verdict}");
            ok = false;
        }
        println!("  seed {seed}: schedule {digest:016x}  verdict: {verdict}");
        verdicts.push(verdict);
        digests.push(digest);
    }
    let distinct = |mut xs: Vec<u64>| {
        xs.sort_unstable();
        xs.dedup();
        xs.len()
    };
    let schedules = distinct(digests);
    let verdict_classes = distinct(
        verdicts
            .iter()
            .map(|v| timeline::fnv1a(v.as_bytes()))
            .collect(),
    );
    println!("  {seeds} seed(s) -> {schedules} distinct schedule(s), {verdict_classes} distinct verdict(s)");
    if schedules < 2 {
        println!("  FAIL: seeds did not explore distinct schedules");
        ok = false;
    }
    if verdict_classes != 1 {
        println!("  FAIL: terminal verdict must not depend on the schedule");
        ok = false;
    }
    if ok {
        println!("  exploration PASSED: same verdict on every schedule, reruns byte-identical");
    }
    ok
}

/// `sim-bench` — the thousand-rank virtual-engine fixture. Runs the
/// registry's `pipeline` workload at `ranks` ranks under
/// `Engine::Virtual`, three times, and demands a byte-identical CLOG2
/// digest each time; writes `out/BENCH_sim.json` (gated by bench-diff
/// via `wall_s`) and the converted `out/SIM_pipeline.pslog2`.
fn sim_bench(ranks: usize, seed: u64) -> bool {
    use pilot_vis::json::Json;
    let ranks = ranks.max(4);
    println!("# sim-bench — {ranks}-rank pipeline under the virtual engine (seed {seed})");

    let w = workloads::workload_by_name("pipeline").expect("pipeline is registered");
    let runs = 3;
    let mut walls: Vec<f64> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    let mut events = 0usize;
    let mut first: Option<pilot::PilotOutcome> = None;
    for i in 0..runs {
        let cfg = PilotConfig::new(ranks)
            .with_services(Services::parse("j").unwrap())
            .with_engine(minimpi::Engine::Virtual { seed });
        let t0 = std::time::Instant::now();
        let outcome = w.run(cfg);
        let wall = t0.elapsed().as_secs_f64();
        assert!(outcome.is_clean(), "{outcome:?}");
        let clog = outcome.clog().expect("run has -pisvc=j");
        events = clog.total_records();
        digests.push(timeline::fnv1a(&clog.to_bytes()));
        walls.push(wall);
        println!("  run {i}: {wall:.3}s wall, digest {:016x}", digests[i]);
        if first.is_none() {
            first = Some(outcome);
        }
    }

    let mut ok = true;
    if digests.windows(2).any(|w| w[0] != w[1]) {
        println!("  FAIL: CLOG2 digest differs across runs: {digests:x?}");
        ok = false;
    }
    let wall_s = bench::median(walls.clone());
    if wall_s >= 10.0 {
        println!("  FAIL: median wall {wall_s:.3}s breaches the 10s budget");
        ok = false;
    }

    let outcome = first.expect("at least one run");
    let (slog, _) = convert(outcome.clog().unwrap(), named(&outcome));
    let slog_path = out_dir().join("SIM_pipeline.pslog2");
    slog.write_to(&slog_path)
        .expect("write SIM_pipeline.pslog2");

    let report = Json::Obj(vec![
        ("ranks".into(), Json::Num(ranks as f64)),
        ("seed".into(), Json::Num(seed as f64)),
        ("wall_s".into(), Json::Num(wall_s)),
        ("ranks_per_sec".into(), Json::Num(ranks as f64 / wall_s)),
        ("events_per_sec".into(), Json::Num(events as f64 / wall_s)),
        ("events".into(), Json::Num(events as f64)),
        ("digest".into(), Json::Str(format!("{:016x}", digests[0]))),
    ]);
    let path = out_dir().join("BENCH_sim.json");
    std::fs::write(&path, report.pretty()).expect("write BENCH_sim.json");
    println!(
        "  {ranks} ranks in {wall_s:.3}s median ({:.0} ranks/s, {:.0} events/s, {events} events)",
        ranks as f64 / wall_s,
        events as f64 / wall_s
    );
    println!("  wrote {} + {}", path.display(), slog_path.display());
    if ok {
        println!("  sim-bench PASSED: digest stable across {runs} runs, wall within budget");
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let get_flag = |name: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let files = get_flag("--files", 48);
    let reps = get_flag("--reps", 5);
    let parallel = get_flag("--parallel", 0);
    let drawables = get_flag("--drawables", 0);
    let bench_ranks = get_flag("--ranks", 8);
    let budget_mb = get_flag("--budget-mb", 256);
    let seed = get_flag("--seed", 42) as u64;
    let runs = get_flag("--runs", 2);
    let workload = args
        .iter()
        .position(|a| a == "--workload")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("thumbnail")
        .to_string();
    PARALLEL.set(parallel).expect("set once");

    match cmd {
        "table1" => timed("table1", || table1(files, reps)),
        "convert-bench" => {
            if drawables > 0 {
                let ok = timed("convert-bench", || {
                    convert_bench_scale(drawables, bench_ranks, budget_mb)
                });
                if !ok {
                    std::process::exit(1);
                }
            } else {
                timed("convert-bench", || convert_bench(reps, parallel));
            }
        }
        "fig1" => {
            timed("fig1", || {
                fig1();
            });
        }
        "fig2" => timed("fig2", || {
            let outcome = fig1();
            fig2(&outcome);
        }),
        "fig3" => timed("fig3", fig3),
        "fig4" => timed("fig4", fig4),
        "fig5" => timed("fig5", fig5),
        "legend" => timed("legend", legend),
        "equal-drawables" => timed("equal-drawables", equal_drawables),
        "clocksync" => timed("clocksync", clocksync),
        "metrics" => {
            let ok = timed("metrics", || metrics(&workload, parallel));
            if !ok {
                std::process::exit(1);
            }
        }
        "faults" => {
            let ok = timed("faults", || faults(seed, runs));
            if !ok {
                std::process::exit(1);
            }
        }
        "list-workloads" => list_workloads(),
        "explore" => {
            let seeds_n = get_flag("--seeds", 8);
            let ok = timed("explore", || explore(seeds_n));
            if !ok {
                std::process::exit(1);
            }
        }
        "sim-bench" => {
            let ranks = get_flag("--ranks", 1024);
            let ok = timed("sim-bench", || sim_bench(ranks, seed));
            if !ok {
                std::process::exit(1);
            }
        }
        "diagnose" => {
            let ok = timed("diagnose", || diagnose(&workload));
            if !ok {
                std::process::exit(1);
            }
        }
        "serve-chaos" => {
            let ops = get_flag("--ops", 120);
            let ok = timed("serve-chaos", || serve_chaos(seed, runs, ops));
            if !ok {
                std::process::exit(1);
            }
        }
        "serve-bench" => {
            let clients = get_flag("--clients", 32);
            let obs_mode = args.iter().any(|a| a == "--obs");
            let max_overhead_pct = args
                .iter()
                .position(|a| a == "--max-obs-overhead-pct")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(5.0);
            let ok = timed("serve-bench", || {
                serve_bench(clients, obs_mode, max_overhead_pct)
            });
            if !ok {
                std::process::exit(1);
            }
        }
        "diff" => {
            // Positional paths come right after the subcommand; flags
            // start with `--`.
            let positional: Vec<&str> = args[1..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .map(String::as_str)
                .collect();
            // Unlike `diagnose`, the default workload here is the
            // acceptance pair, not `thumbnail`.
            let diff_workload = args
                .iter()
                .position(|a| a == "--workload")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
                .unwrap_or("instance-a-vs-fixed")
                .to_string();
            let ok = timed("diff", || {
                diff_cmd(
                    positional.first().copied(),
                    positional.get(1).copied(),
                    &diff_workload,
                )
            });
            if !ok {
                std::process::exit(1);
            }
        }
        "bench-diff" => {
            let get_str = |name: &str, default: &str| -> String {
                args.iter()
                    .position(|a| a == name)
                    .and_then(|i| args.get(i + 1))
                    .map(String::as_str)
                    .unwrap_or(default)
                    .to_string()
            };
            let baseline = get_str("--baseline", "out/baselines");
            let current = get_str("--current", "out");
            let max_regress_pct = args
                .iter()
                .position(|a| a == "--max-regress-pct")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(15.0);
            let warn_only = args.iter().any(|a| a == "--warn-only");
            let ok = timed("bench-diff", || {
                bench_diff_cmd(&baseline, &current, max_regress_pct, warn_only)
            });
            if !ok {
                std::process::exit(1);
            }
        }
        "all" => {
            timed("table1", || table1(files, reps));
            println!();
            let outcome = timed("fig1", fig1);
            timed("fig2", || fig2(&outcome));
            println!();
            timed("fig3", fig3);
            println!();
            timed("fig4", fig4);
            println!();
            timed("fig5", fig5);
            println!();
            timed("legend", legend);
            println!();
            timed("equal-drawables", equal_drawables);
            println!();
            timed("clocksync", clocksync);
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; try: table1 fig1 fig2 fig3 fig4 fig5 legend equal-drawables clocksync convert-bench metrics faults diagnose diff bench-diff serve-bench serve-chaos list-workloads explore sim-bench all"
            );
            std::process::exit(2);
        }
    }
}
