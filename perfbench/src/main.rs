//! `perfbench` — the "Pilot run starts → its trace answers tiles"
//! benchmark. One process drives the real public entry points in the
//! order a user hits them: `pilot::run` (registry programs under the
//! virtual engine), `mpelog` CLOG2 encode/decode, `slog2::Converter`
//! (in memory, mmap, out-of-core), and an in-process pilotd over HTTP
//! (`timeline` uploads, tiles and queries, `jumpshot` renders,
//! `analysis` diagnoses).
//!
//! ```text
//! perfbench --workload classroom|bigtrace|viewers --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it records the host and configuration facts of the run. See
//! `README.md` for what each workload and metric means.

mod bigtrace;
mod classroom;
mod harness;
mod probe;
mod report;
mod spans;
mod stats;
mod viewers;

use std::path::{Path, PathBuf};

use pilot_vis::json::Json;

use harness::{Ctx, Outcome, Run, Scale};

/// End-to-end metrics and units, exactly as `BENCHMARK.json` lists them.
/// `error_rate` is 0 on a correct run, so it is not among them: every
/// run reports it as `failed` / `attempted`, and the traced run also as
/// a per-layer metric.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("ready_p50_ms", "ms"),
    ("ready_p90_ms", "ms"),
    ("sessions_per_s", "1/s"),
    ("convert_drawables_per_s", "1/s"),
    ("oocore_drawables_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("tile_p50_ms", "ms"),
    ("tile_p99_ms", "ms"),
    ("render_p50_ms", "ms"),
    ("requests_per_s", "1/s"),
];

/// Per-layer metrics and units, exactly as `BENCHMARK.json` lists them.
/// A layer a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("pilot.run_ms", "ms"),
    ("pilot.run_unlogged_ms", "ms"),
    ("pilot.messages", "count"),
    ("mpelog.overhead_pct", "%"),
    ("mpelog.wrapup_ms", "ms"),
    ("mpelog.records", "count"),
    ("mpelog.encode_ms", "ms"),
    ("mpelog.decode_ms", "ms"),
    ("mpelog.bytes", "bytes"),
    ("slog2.convert_ms", "ms"),
    ("slog2.convert_serial_ms", "ms"),
    ("slog2.parallel_speedup", "ratio"),
    ("slog2.mmap_ms", "ms"),
    ("slog2.oocore_ms", "ms"),
    ("slog2.encode_ms", "ms"),
    ("slog2.decode_ms", "ms"),
    ("slog2.validate_ms", "ms"),
    ("slog2.scan_ms", "ms"),
    ("slog2.arrow_match_ms", "ms"),
    ("slog2.tree_build_ms", "ms"),
    ("slog2.write_ms", "ms"),
    ("slog2.drawables", "count"),
    ("timeline.upload_ms", "ms"),
    ("timeline.index_build_ms", "ms"),
    ("timeline.evictions", "count"),
    ("timeline.tile_cold_us", "us"),
    ("timeline.tile_warm_us", "us"),
    ("timeline.cache_hit_rate", "ratio"),
    ("timeline.http_overhead_us", "us"),
    ("timeline.queue_p50_us", "us"),
    ("timeline.queue_p99_us", "us"),
    ("timeline.parse_p50_us", "us"),
    ("timeline.parse_p99_us", "us"),
    ("timeline.cache_p50_us", "us"),
    ("timeline.cache_p99_us", "us"),
    ("timeline.index_p50_us", "us"),
    ("timeline.index_p99_us", "us"),
    ("timeline.render_p50_us", "us"),
    ("timeline.render_p99_us", "us"),
    ("timeline.write_p50_us", "us"),
    ("timeline.write_p99_us", "us"),
    ("jumpshot.svg_ms", "ms"),
    ("jumpshot.svg_bytes", "bytes"),
    ("analysis.diagnose_ms", "ms"),
    ("pilot.self_pct", "%"),
    ("mpelog.self_pct", "%"),
    ("slog2.self_pct", "%"),
    ("timeline.self_pct", "%"),
    ("jumpshot.self_pct", "%"),
    ("analysis.self_pct", "%"),
    ("unattributed_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("error_rate", "ratio"),
    ("host.cores", "count"),
];

pub const WORKLOADS: [&str; 3] = ["classroom", "bigtrace", "viewers"];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Run one workload; returns its outcome and the run's tally.
fn execute(ctx: &Ctx, workload: &str) -> (Outcome, Run) {
    let run = Run::default();
    std::fs::create_dir_all(&ctx.work).expect("create the work directory");
    let outcome = match workload {
        "classroom" => classroom::run(ctx, &run),
        "bigtrace" => bigtrace::run(ctx, &run),
        "viewers" => viewers::run(ctx, &run),
        other => unreachable!("workload {other} passed argument validation"),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    (outcome, run)
}

/// The result object: every metric of the run's kind, in declaration
/// order, with its unit.
fn result_json(ctx: &Ctx, outcome: &Outcome, run: &Run) -> Json {
    let attempted = run.tally.attempted().max(1);
    let failed = run.tally.failed();
    let error_rate = failed as f64 / attempted as f64;
    let list: &[(&str, &str)] = if ctx.traced { &PER_LAYER } else { &END_TO_END };
    let metrics = list
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "error_rate" => error_rate,
                "host.cores" => ctx.nproc as f64,
                _ => outcome.metrics.get(name).copied().unwrap_or_else(|| {
                    assert!(ctx.traced, "end-to-end metric {name} was not measured");
                    0.0
                }),
            };
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// The configuration facts printed before the result: numbers may only
/// be compared across runs whose facts match.
fn facts_json(ctx: &Ctx, workload: &str, outcome: &Outcome) -> Json {
    let mut fields = vec![
        ("workload".to_string(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(ctx.seed as f64)),
        ("seconds".into(), Json::Num(ctx.seconds)),
        ("trace".into(), Json::Bool(ctx.traced)),
        ("cores".into(), Json::Num(ctx.nproc as f64)),
        ("converter_threads".into(), Json::Num(ctx.nproc as f64)),
        ("pilotd_workers".into(), Json::Num(ctx.nproc as f64)),
    ];
    fields.extend(
        outcome
            .facts
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
    );
    Json::Obj(vec![("perfbench".into(), Json::Obj(fields))])
}

fn ctx_for(args: &Args, scale: Scale, root: &Path) -> Ctx {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        scale,
        nproc,
        work: root
            .join("work")
            .join(format!("run-{}", std::process::id())),
        trace_out: root
            .join("out")
            .join(format!("trace-{}-{}.json", args.workload, args.seed)),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload classroom|bigtrace|viewers --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let ctx = ctx_for(&args, Scale::Full, &root);
    let (outcome, run) = execute(&ctx, &args.workload);
    println!("{}", facts_json(&ctx, &args.workload, &outcome).compact());
    println!("{}", result_json(&ctx, &outcome, &run).compact());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> (Ctx, Outcome, Run) {
        let args = Args {
            workload: workload.into(),
            seed: 5,
            seconds: 0.3,
            trace,
        };
        let root = std::env::temp_dir().join(format!("perfbench-test-{workload}-{trace}"));
        let mut ctx = ctx_for(&args, Scale::Tiny, &root);
        ctx.work = root.join("work");
        let (outcome, run) = execute(&ctx, workload);
        let _ = std::fs::remove_dir_all(&root);
        (ctx, outcome, run)
    }

    #[test]
    fn every_workload_runs_clean_at_tiny_scale() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let (ctx, outcome, run) = tiny(workload, trace);
                let result = result_json(&ctx, &outcome, &run);
                assert_eq!(
                    run.tally.failed(),
                    0,
                    "{workload} trace={trace}: {}",
                    result.compact()
                );
                assert!(run.tally.attempted() > 0);
                if trace {
                    let rate = result
                        .get("metrics")
                        .and_then(|m| m.get("error_rate"))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64);
                    assert_eq!(rate, Some(0.0));
                } else {
                    for (name, _) in END_TO_END {
                        let v = outcome.metrics[name];
                        assert!(v > 0.0, "{workload}: {name} = {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let listed = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), listed(&END_TO_END));
        assert_eq!(names("per_layer"), listed(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let argv = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--seed", "1"])).is_err());
        assert!(parse_args(&argv(&["--workload", "viewers", "--trace", "2"])).is_err());
        let a = parse_args(&argv(&[
            "--workload",
            "viewers",
            "--seed",
            "9",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((a.seed, a.trace), (9, true));
    }
}
