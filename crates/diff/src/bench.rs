//! Perf-regression gating over `BENCH_*.json` reports.
//!
//! CI has always uploaded `BENCH_convert.json` / `BENCH_serve.json`
//! as artifacts without comparing them to anything, so a perf
//! regression merges silently. This module applies the same
//! delta/verdict shape as the trace diff to a pair of bench reports:
//! each numeric metric is classified by *direction* (lower-is-better
//! timings, higher-is-better ratios, informational configuration
//! counts), its worsening percentage is computed, and anything beyond
//! the gate threshold is pronounced `Regressed` — which `repro
//! bench-diff` turns into exit 1.

use pilot_vis::json::Json;

use crate::issue::DeltaVerdict;

/// Baseline values with magnitude below this are treated as zero when
/// computing percentages.
const ZERO_EPS: f64 = 1e-12;

/// Which way a metric should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Timings, overheads, error counts: growth is a regression.
    LowerIsBetter,
    /// Speedups, hit rates: shrinkage is a regression.
    HigherIsBetter,
    /// Configuration echoes (ranks, reps, request counts): never
    /// gated, reported for context only.
    Informational,
}

impl Direction {
    /// Stable wire name.
    pub const fn name(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower-is-better",
            Direction::HigherIsBetter => "higher-is-better",
            Direction::Informational => "informational",
        }
    }
}

/// Classify a metric key from the `BENCH_*.json` vocabulary: `*_s` /
/// `*_ms` / `*_us` / `*_pct` suffixes and failure counters gate
/// downward, known ratios gate upward, everything else is
/// informational.
///
/// Two serve-obs exceptions stay informational despite their suffixes:
/// the tracing-overhead percentages are already gated *inside*
/// `serve-bench --obs` with paired-pass medians (re-gating one noisy
/// reading against a baseline double-counts), and queue-phase waits
/// measure client concurrency against pool size — a workload shape,
/// not code speed. Cache-phase microseconds get the same treatment:
/// the cache phase's tail is the single-flight wait distribution
/// (how long losers of a cold-tile race block on the winner's render),
/// which swings with thread interleaving run to run — the
/// `singleflight_waits` count is informational for the same reason.
/// A real cache slowdown still gates through `tile_p99_us` / `p99_ms`.
pub fn direction(key: &str) -> Direction {
    match key {
        "speedup" | "hit_rate" => Direction::HigherIsBetter,
        k if k.ends_with("_per_sec") || k.ends_with("_per_sec_per_core") => {
            Direction::HigherIsBetter
        }
        "errors" | "parity_mismatches" | "cache_evictions" | "bad_rejects" => {
            Direction::LowerIsBetter
        }
        // Admission-control outcomes are workload shape, not code speed:
        // how many requests a burst sheds (429/503) and how many cold
        // traces the registry evicts depend on client concurrency and
        // upload mix, so they never gate. Malformed rejects
        // (`bad_rejects`, a 429/503 missing Retry-After) stay a failure
        // counter above.
        "shed_rejects" | "registry_evictions" => Direction::Informational,
        k if k.ends_with("_overhead_pct") && k != "metrics_overhead_pct" => {
            Direction::Informational
        }
        k if k.contains("_queue_") => Direction::Informational,
        k if k.contains("_cache_") && k.ends_with("_us") => Direction::Informational,
        k if k.ends_with("_s")
            || k.ends_with("_ms")
            || k.ends_with("_us")
            || k.ends_with("_pct") =>
        {
            Direction::LowerIsBetter
        }
        _ => Direction::Informational,
    }
}

/// Microsecond metrics need an absolute effect on top of the relative
/// gate: a 3µs → 5µs parse-phase blip is +66%, and even a sub-ms shift
/// in a phase p99 is inside the run-to-run scheduler noise of a loaded
/// worker pool. Regressions that matter at request scale (cold-render
/// p99, total tile p99) move by multiple milliseconds.
const US_EFFECT_FLOOR: f64 = 1_000.0;

/// Percentage-point metrics get the same treatment: an overhead
/// reading like `metrics_overhead_pct` is the ratio of two noisy
/// medians, so its run-to-run jitter is a couple of points even when
/// nothing changed. Gate only moves of at least three absolute
/// percentage points; a real instrumentation regression (a counter in
/// a hot loop) shifts the overhead by far more — the bug this gate
/// exists for moved it from ≈3 % to 12.8 %.
const PCT_EFFECT_FLOOR: f64 = 3.0;

/// One metric's fate between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// The JSON key.
    pub name: String,
    /// Baseline value.
    pub before: f64,
    /// Current value.
    pub after: f64,
    /// Raw percent change `(after-before)/|before|·100` (±100 when
    /// the baseline is zero and the value moved).
    pub change_pct: f64,
    /// Percent change in the *worsening* direction (negative =
    /// improvement; always 0 for informational metrics).
    pub regress_pct: f64,
    /// Metric direction class.
    pub direction: Direction,
    /// The pronouncement, against the gate threshold.
    pub verdict: DeltaVerdict,
}

/// One bench report's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// Report name (e.g. `BENCH_serve.json`).
    pub name: String,
    /// The gate threshold this diff was judged against (percent).
    pub max_regress_pct: f64,
    /// All shared numeric metrics, in baseline key order.
    pub metrics: Vec<MetricDiff>,
    /// Baseline keys absent from the current report.
    pub missing_in_current: Vec<String>,
    /// Current keys absent from the baseline.
    pub missing_in_baseline: Vec<String>,
}

impl BenchDiff {
    /// Metrics that breached the gate.
    pub fn regressed(&self) -> Vec<&MetricDiff> {
        self.metrics
            .iter()
            .filter(|m| m.verdict == DeltaVerdict::Regressed)
            .collect()
    }

    /// Deterministic JSON for `BENCH_DIFF.json`.
    pub fn to_json_value(&self) -> Json {
        let metrics: Vec<Json> = self
            .metrics
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(m.name.clone())),
                    ("before".into(), Json::Num(m.before)),
                    ("after".into(), Json::Num(m.after)),
                    ("change_pct".into(), Json::Num(m.change_pct)),
                    ("regress_pct".into(), Json::Num(m.regress_pct)),
                    (
                        "direction".into(),
                        Json::Str(m.direction.name().to_string()),
                    ),
                    ("verdict".into(), Json::Str(m.verdict.name().to_string())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("max_regress_pct".into(), Json::Num(self.max_regress_pct)),
            ("metrics".into(), Json::Arr(metrics)),
            (
                "missing_in_current".into(),
                Json::Arr(
                    self.missing_in_current
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "missing_in_baseline".into(),
                Json::Arr(
                    self.missing_in_baseline
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            ("regressed".into(), Json::Num(self.regressed().len() as f64)),
        ])
    }
}

/// Whether two reports ran on comparable hardware, by their `cores`
/// fields. Timings from different core counts measure the host, not
/// the code, so such a pair is refused rather than compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cores {
    /// Both reports ran on this many cores.
    Same(u64),
    /// A report does not record `cores` (older baselines): compared
    /// anyway.
    Unknown,
    /// The reports ran on different core counts: not comparable.
    Differ {
        /// The baseline's core count.
        baseline: u64,
        /// The current report's core count.
        current: u64,
    },
}

impl Cores {
    /// Compare the `cores` fields of two parsed reports.
    pub fn of(baseline: &Json, current: &Json) -> Cores {
        let cores = |v: &Json| v.get("cores").and_then(Json::as_u64);
        match (cores(baseline), cores(current)) {
            (Some(b), Some(c)) if b == c => Cores::Same(b),
            (Some(baseline), Some(current)) => Cores::Differ { baseline, current },
            _ => Cores::Unknown,
        }
    }
}

impl std::fmt::Display for Cores {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cores::Same(n) => write!(f, "cores: {n}"),
            Cores::Unknown => write!(f, "cores: unknown"),
            Cores::Differ { baseline, current } => {
                write!(f, "cores: baseline {baseline}, current {current}")
            }
        }
    }
}

fn numeric_fields(v: &Json) -> Vec<(String, f64)> {
    match v {
        Json::Obj(fields) => fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Compare two parsed bench reports against a gate threshold.
pub fn diff_bench(name: &str, baseline: &Json, current: &Json, max_regress_pct: f64) -> BenchDiff {
    let base = numeric_fields(baseline);
    let cur = numeric_fields(current);
    let cur_get = |k: &str| cur.iter().find(|(ck, _)| ck == k).map(|(_, v)| *v);

    let mut metrics = Vec::new();
    let mut missing_in_current = Vec::new();
    for (key, before) in &base {
        let Some(after) = cur_get(key) else {
            missing_in_current.push(key.clone());
            continue;
        };
        let change_pct = if before.abs() < ZERO_EPS {
            if (after - before).abs() < ZERO_EPS {
                0.0
            } else {
                100.0 * (after - before).signum()
            }
        } else {
            (after - before) / before.abs() * 100.0
        };
        let dir = direction(key);
        let regress_pct = match dir {
            Direction::LowerIsBetter => change_pct,
            Direction::HigherIsBetter => -change_pct,
            Direction::Informational => 0.0,
        };
        let meaningful = if key.ends_with("_us") {
            (after - before).abs() >= US_EFFECT_FLOOR
        } else if key.ends_with("_pct") {
            (after - before).abs() >= PCT_EFFECT_FLOOR
        } else {
            true
        };
        let verdict = if dir == Direction::Informational || !meaningful {
            DeltaVerdict::Unchanged
        } else if regress_pct > max_regress_pct {
            DeltaVerdict::Regressed
        } else if regress_pct < -max_regress_pct {
            DeltaVerdict::Fixed
        } else {
            DeltaVerdict::Unchanged
        };
        metrics.push(MetricDiff {
            name: key.clone(),
            before: *before,
            after,
            change_pct,
            regress_pct,
            direction: dir,
            verdict,
        });
    }
    let missing_in_baseline = cur
        .iter()
        .filter(|(k, _)| !base.iter().any(|(bk, _)| bk == k))
        .map(|(k, _)| k.clone())
        .collect();
    BenchDiff {
        name: name.to_string(),
        max_regress_pct,
        metrics,
        missing_in_current,
        missing_in_baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(p99: f64, speedup: f64) -> Json {
        Json::parse(&format!(
            r#"{{"clients": 8, "p50_ms": 1.5, "p99_ms": {p99}, "speedup": {speedup}, "errors": 0}}"#
        ))
        .unwrap()
    }

    #[test]
    fn directions_classify_the_bench_vocabulary() {
        for k in [
            "serial_s",
            "wall_s",
            "p99_ms",
            "tile_p99_us",
            "tile_render_p50_us",
            "metrics_overhead_pct",
            "errors",
            "parity_mismatches",
        ] {
            assert_eq!(direction(k), Direction::LowerIsBetter, "{k}");
        }
        assert_eq!(direction("speedup"), Direction::HigherIsBetter);
        assert_eq!(direction("hit_rate"), Direction::HigherIsBetter);
        assert_eq!(
            direction("drawables_per_sec_per_core"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction("events_per_sec"), Direction::HigherIsBetter);
        assert_eq!(direction("bad_rejects"), Direction::LowerIsBetter);
        for k in [
            "ranks",
            "clients",
            "requests",
            "drawables",
            "threads",
            "shed_rejects",
            "registry_evictions",
        ] {
            assert_eq!(direction(k), Direction::Informational, "{k}");
        }
        // Self-gated / workload-shape metrics are never re-gated here.
        for k in [
            "obs_overhead_pct",
            "p50_overhead_pct",
            "tile_queue_p99_us",
            "tile_cache_p99_us",
        ] {
            assert_eq!(direction(k), Direction::Informational, "{k}");
        }
    }

    #[test]
    fn microsecond_metrics_need_an_absolute_effect() {
        let base =
            Json::parse(r#"{"tile_parse_p99_us": 3.0, "tile_render_p99_us": 6000.0}"#).unwrap();
        let cur =
            Json::parse(r#"{"tile_parse_p99_us": 5.5, "tile_render_p99_us": 9000.0}"#).unwrap();
        let d = diff_bench("BENCH_serve.json", &base, &cur, 15.0);
        let get = |k: &str| d.metrics.iter().find(|m| m.name == k).unwrap();
        // +83% but only 2.5µs: scheduler noise, not a regression.
        assert_eq!(get("tile_parse_p99_us").verdict, DeltaVerdict::Unchanged);
        // +50% and 3ms: a real regression.
        assert_eq!(get("tile_render_p99_us").verdict, DeltaVerdict::Regressed);
    }

    #[test]
    fn pct_metrics_need_an_absolute_effect() {
        // +9% relative but only 1.2 points (< the 3-point floor): jitter.
        let base = Json::parse(r#"{"metrics_overhead_pct": 12.8}"#).unwrap();
        let cur = Json::parse(r#"{"metrics_overhead_pct": 14.0}"#).unwrap();
        let d = diff_bench("BENCH_convert.json", &base, &cur, 5.0);
        assert_eq!(d.metrics[0].verdict, DeltaVerdict::Unchanged);
        // 12.8 -> 16.0 is 3.2 points and +25%: a real regression.
        let bad = Json::parse(r#"{"metrics_overhead_pct": 16.0}"#).unwrap();
        let d = diff_bench("BENCH_convert.json", &base, &bad, 5.0);
        assert_eq!(d.metrics[0].verdict, DeltaVerdict::Regressed);
        // A big drop reads as Fixed once it clears the same floor.
        let good = Json::parse(r#"{"metrics_overhead_pct": 1.0}"#).unwrap();
        let d = diff_bench("BENCH_convert.json", &base, &good, 5.0);
        assert_eq!(d.metrics[0].verdict, DeltaVerdict::Fixed);
    }

    #[test]
    fn per_core_rate_gates_upward() {
        let base = Json::parse(r#"{"drawables_per_sec_per_core": 2000000.0}"#).unwrap();
        let slower = Json::parse(r#"{"drawables_per_sec_per_core": 1200000.0}"#).unwrap();
        let d = diff_bench("BENCH_convert.json", &base, &slower, 15.0);
        assert_eq!(d.metrics[0].verdict, DeltaVerdict::Regressed);
    }

    #[test]
    fn doctored_two_x_p99_regresses() {
        let base = report(4.0, 3.0);
        let doctored = report(8.0, 3.0);
        let d = diff_bench("BENCH_serve.json", &base, &doctored, 15.0);
        let p99 = d.metrics.iter().find(|m| m.name == "p99_ms").unwrap();
        assert_eq!(p99.verdict, DeltaVerdict::Regressed);
        assert!((p99.regress_pct - 100.0).abs() < 1e-9, "{p99:?}");
        assert_eq!(d.regressed().len(), 1);
    }

    #[test]
    fn identical_reports_are_unchanged() {
        let base = report(4.0, 3.0);
        let d = diff_bench("x", &base, &base, 15.0);
        assert!(d.regressed().is_empty());
        assert!(d
            .metrics
            .iter()
            .all(|m| m.verdict == DeltaVerdict::Unchanged));
    }

    #[test]
    fn speedup_gates_upward() {
        let base = report(4.0, 3.0);
        let slower = report(4.0, 1.5); // speedup halved
        let d = diff_bench("x", &base, &slower, 15.0);
        let s = d.metrics.iter().find(|m| m.name == "speedup").unwrap();
        assert_eq!(s.verdict, DeltaVerdict::Regressed);
        // And a big improvement reads as Fixed.
        let faster = report(4.0, 6.0);
        let d = diff_bench("x", &base, &faster, 15.0);
        let s = d.metrics.iter().find(|m| m.name == "speedup").unwrap();
        assert_eq!(s.verdict, DeltaVerdict::Fixed);
    }

    #[test]
    fn zero_baseline_errors_growing_regresses() {
        let base = Json::parse(r#"{"errors": 0}"#).unwrap();
        let bad = Json::parse(r#"{"errors": 3}"#).unwrap();
        let d = diff_bench("x", &base, &bad, 15.0);
        assert_eq!(d.metrics[0].verdict, DeltaVerdict::Regressed);
        let same = diff_bench("x", &base, &base, 15.0);
        assert_eq!(same.metrics[0].verdict, DeltaVerdict::Unchanged);
    }

    #[test]
    fn informational_metrics_never_gate() {
        let base = Json::parse(r#"{"clients": 8}"#).unwrap();
        let cur = Json::parse(r#"{"clients": 64}"#).unwrap();
        let d = diff_bench("x", &base, &cur, 15.0);
        assert_eq!(d.metrics[0].verdict, DeltaVerdict::Unchanged);
        assert_eq!(d.metrics[0].regress_pct, 0.0);
    }

    #[test]
    fn missing_keys_are_surfaced() {
        let base = Json::parse(r#"{"p99_ms": 4.0, "old_s": 1.0}"#).unwrap();
        let cur = Json::parse(r#"{"p99_ms": 4.0, "new_s": 1.0}"#).unwrap();
        let d = diff_bench("x", &base, &cur, 15.0);
        assert_eq!(d.missing_in_current, vec!["old_s".to_string()]);
        assert_eq!(d.missing_in_baseline, vec!["new_s".to_string()]);
    }

    fn with_cores(n: u64) -> Json {
        Json::parse(&format!(r#"{{"cores": {n}, "p99_ms": 4.0}}"#)).unwrap()
    }

    #[test]
    fn equal_cores_compare() {
        let c = Cores::of(&with_cores(2), &with_cores(2));
        assert_eq!(c, Cores::Same(2));
        assert_eq!(c.to_string(), "cores: 2");
    }

    #[test]
    fn baseline_without_cores_compares_as_unknown() {
        // The committed baselines predate `cores`: compared as before.
        let base = Json::parse(r#"{"p99_ms": 4.0}"#).unwrap();
        let c = Cores::of(&base, &with_cores(4));
        assert_eq!(c, Cores::Unknown);
        assert_eq!(c.to_string(), "cores: unknown");
    }

    #[test]
    fn differing_cores_are_refused() {
        let c = Cores::of(&with_cores(1), &with_cores(4));
        assert_eq!(
            c,
            Cores::Differ {
                baseline: 1,
                current: 4
            }
        );
        assert_eq!(c.to_string(), "cores: baseline 1, current 4");
    }

    #[test]
    fn json_round_trips() {
        let base = report(4.0, 3.0);
        let d = diff_bench("BENCH_serve.json", &base, &report(8.0, 3.0), 15.0);
        let v = d.to_json_value();
        assert_eq!(v.get("regressed").and_then(Json::as_u64), Some(1));
        assert!(Json::parse(&v.pretty()).is_ok());
    }
}
