//! The assembled trace comparison and its `DIFF.json` form.
//!
//! [`diff_traces`] is the crate's front door: feed it two loaded
//! files and it returns a [`TraceDiff`] carrying the alignment, the
//! deltas, the phase table, and the issue verdicts. `to_json()` is
//! deterministic — pretty-printed with insertion-ordered keys and
//! shortest-round-trip floats (non-finite values become `null`), so
//! the same input pair yields a byte-identical report, which is what
//! lets CI cache and assert on it.

use analysis::{Diagnosis, TraceAnalyzer, VerdictKind};
use pilot_vis::json::Json;
use slog2::fnv::{fnv1a, FNV_SEED};
use slog2::{Slog2File, TimeWindow};

use crate::align::{align, Alignment};
use crate::delta::{trace_delta, TraceDelta};
use crate::issue::{diff_issues, measure_phases, DeltaVerdict, IssueDiff, PhaseDelta};

/// The complete comparison of two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Labels for the two sides (file paths or workload names).
    pub before_label: String,
    /// After-side label.
    pub after_label: String,
    /// FNV-1a digests of the two serialized files.
    pub digests: (u64, u64),
    /// The before diagnosis.
    pub diag_before: Diagnosis,
    /// The after diagnosis.
    pub diag_after: Diagnosis,
    /// Timeline pairing.
    pub alignment: Alignment,
    /// Per-timeline and trace-level deltas.
    pub delta: TraceDelta,
    /// Whole-run and per-issue-window measurements.
    pub phases: Vec<PhaseDelta>,
    /// Fixed/Regressed/Unchanged per detected issue.
    pub issues: Vec<IssueDiff>,
}

impl TraceDiff {
    /// The issue row for this kind, if either side detected it.
    pub fn issue(&self, kind: VerdictKind) -> Option<&IssueDiff> {
        self.issues.iter().find(|i| i.kind == kind)
    }

    /// How many issues got this verdict.
    pub fn count(&self, v: DeltaVerdict) -> usize {
        self.issues.iter().filter(|i| i.verdict == v).count()
    }

    /// `after - before` makespan (negative = the fix made it faster).
    pub fn makespan_delta(&self) -> f64 {
        self.delta.makespan.1 - self.delta.makespan.0
    }

    /// Deterministic pretty JSON.
    pub fn to_json(&self) -> String {
        let mut s = self.json_value().pretty();
        s.push('\n');
        s
    }

    fn json_value(&self) -> Json {
        let num = |v: f64| {
            if v.is_finite() {
                Json::Num(v)
            } else {
                Json::Null
            }
        };
        let count = |v: u64| Json::Num(v as f64);
        let window = |w: Option<TimeWindow>| match w {
            Some(w) => Json::Obj(vec![("t0".into(), num(w.t0)), ("t1".into(), num(w.t1))]),
            None => Json::Null,
        };
        let pair = |label: &str, b: f64, a: f64| {
            (
                label.to_string(),
                Json::Obj(vec![
                    ("before".into(), num(b)),
                    ("after".into(), num(a)),
                    ("delta".into(), num(a - b)),
                ]),
            )
        };
        let side = |label: &str, digest: u64, diag: &Diagnosis, drawables: usize| {
            Json::Obj(vec![
                ("label".into(), Json::Str(label.to_string())),
                ("digest".into(), Json::Str(format!("{digest:016x}"))),
                ("makespan_seconds".into(), num(diag.makespan)),
                ("verdicts".into(), count(diag.verdicts.len() as u64)),
                ("drawables".into(), count(drawables as u64)),
            ])
        };

        let pairs: Vec<Json> = self
            .alignment
            .pairs
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(p.name.clone())),
                    (
                        "before".into(),
                        p.before
                            .map_or(Json::Null, |t| count(u64::from(t.as_u32()))),
                    ),
                    (
                        "after".into(),
                        p.after.map_or(Json::Null, |t| count(u64::from(t.as_u32()))),
                    ),
                    ("similarity".into(), num(p.similarity)),
                    ("truncated_before".into(), Json::Bool(p.truncated_before)),
                    ("truncated_after".into(), Json::Bool(p.truncated_after)),
                ])
            })
            .collect();

        let timelines: Vec<Json> = self
            .delta
            .timelines
            .iter()
            .map(|td| {
                let states: Vec<Json> = td
                    .states
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("category".into(), Json::Str(c.category.clone())),
                            ("before_s".into(), num(c.before_s)),
                            ("after_s".into(), num(c.after_s)),
                            ("delta_s".into(), num(c.delta_s())),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::Str(td.name.clone())),
                    ("states".into(), Json::Arr(states)),
                    pair("busy_s", td.busy_s.0, td.busy_s.1),
                    pair("blocked_s", td.blocked_s.0, td.blocked_s.1),
                    pair("sent", td.sent.0 as f64, td.sent.1 as f64),
                    pair("received", td.received.0 as f64, td.received.1 as f64),
                ])
            })
            .collect();

        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("label".into(), Json::Str(p.label.clone())),
                    ("window_before".into(), window(p.window_before)),
                    ("window_after".into(), window(p.window_after)),
                    pair("parallel_overlap", p.overlap.0, p.overlap.1),
                    pair("busy_s", p.busy_s.0, p.busy_s.1),
                    pair("blocked_s", p.blocked_s.0, p.blocked_s.1),
                ])
            })
            .collect();

        let issues: Vec<Json> = self
            .issues
            .iter()
            .map(|i| {
                Json::Obj(vec![
                    ("kind".into(), Json::Str(i.kind.name().to_string())),
                    ("verdict".into(), Json::Str(i.verdict.name().to_string())),
                    (
                        "recoverable_before_s".into(),
                        i.recoverable_before.map_or(Json::Null, num),
                    ),
                    (
                        "recoverable_after_s".into(),
                        i.recoverable_after.map_or(Json::Null, num),
                    ),
                    ("recovered_seconds".into(), num(i.recovered_seconds)),
                    ("detail".into(), Json::Str(i.detail.clone())),
                ])
            })
            .collect();

        Json::Obj(vec![
            ("schema".into(), Json::Str("pilot-vis-diff-v1".into())),
            (
                "before".into(),
                side(
                    &self.before_label,
                    self.digests.0,
                    &self.diag_before,
                    self.delta.drawables.0,
                ),
            ),
            (
                "after".into(),
                side(
                    &self.after_label,
                    self.digests.1,
                    &self.diag_after,
                    self.delta.drawables.1,
                ),
            ),
            ("makespan_delta_seconds".into(), num(self.makespan_delta())),
            (
                "messages".into(),
                Json::Obj(vec![
                    ("before".into(), count(self.delta.messages.0)),
                    ("after".into(), count(self.delta.messages.1)),
                ]),
            ),
            (
                "alignment".into(),
                Json::Obj(vec![
                    ("pairs".into(), Json::Arr(pairs)),
                    (
                        "unmatched_before".into(),
                        count(self.alignment.unmatched_before() as u64),
                    ),
                    (
                        "unmatched_after".into(),
                        count(self.alignment.unmatched_after() as u64),
                    ),
                ]),
            ),
            ("timelines".into(), Json::Arr(timelines)),
            ("phases".into(), Json::Arr(phases)),
            ("issues".into(), Json::Arr(issues)),
            (
                "summary".into(),
                Json::Obj(vec![
                    (
                        "fixed".into(),
                        count(self.count(DeltaVerdict::Fixed) as u64),
                    ),
                    (
                        "regressed".into(),
                        count(self.count(DeltaVerdict::Regressed) as u64),
                    ),
                    (
                        "unchanged".into(),
                        count(self.count(DeltaVerdict::Unchanged) as u64),
                    ),
                ]),
            ),
        ])
    }
}

/// Align, measure, diagnose, and judge: the whole comparison.
pub fn diff_traces(before: &Slog2File, after: &Slog2File, labels: (&str, &str)) -> TraceDiff {
    let diag_before = TraceAnalyzer::new(before).diagnose(labels.0);
    let diag_after = TraceAnalyzer::new(after).diagnose(labels.1);
    let alignment = align(before, after);
    let delta = trace_delta(
        before,
        after,
        &alignment,
        (diag_before.makespan, diag_after.makespan),
    );
    let phases = measure_phases(before, after, &diag_before, &diag_after);
    let issues = diff_issues(&diag_before, &diag_after);
    TraceDiff {
        before_label: labels.0.to_string(),
        after_label: labels.1.to_string(),
        digests: (
            fnv1a(FNV_SEED, &before.to_bytes()),
            fnv1a(FNV_SEED, &after.to_bytes()),
        ),
        diag_before,
        diag_after,
        alignment,
        delta,
        phases,
        issues,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::fixtures::{instance_a, instance_fixed};

    #[test]
    fn a_vs_fixed_reports_the_fix() {
        let d = diff_traces(&instance_a(), &instance_fixed(), ("a", "fixed"));
        let sp = d.issue(VerdictKind::SerializedPhase).expect("issue");
        assert_eq!(sp.verdict, DeltaVerdict::Fixed);
        assert!(sp.recovered_seconds > 0.0);
        assert!(d.makespan_delta() < -5.0, "{}", d.makespan_delta());
        assert_eq!(d.count(DeltaVerdict::Regressed), 0);
    }

    #[test]
    fn json_is_deterministic_and_parses_back() {
        let a = instance_a();
        let f = instance_fixed();
        let j1 = diff_traces(&a, &f, ("a", "fixed")).to_json();
        let j2 = diff_traces(&a, &f, ("a", "fixed")).to_json();
        assert_eq!(j1, j2);
        let v = Json::parse(&j1).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("pilot-vis-diff-v1")
        );
        let issues = v.get("issues").and_then(Json::as_arr).unwrap();
        assert!(issues.iter().any(|i| {
            i.get("kind").and_then(Json::as_str) == Some("SerializedPhase")
                && i.get("verdict").and_then(Json::as_str) == Some("Fixed")
        }));
        assert!(v.get("summary").unwrap().get("fixed").unwrap().as_u64() >= Some(1));
    }

    #[test]
    fn digests_differ_between_sides_and_match_self() {
        let a = instance_a();
        let f = instance_fixed();
        let d = diff_traces(&a, &f, ("a", "fixed"));
        assert_ne!(d.digests.0, d.digests.1);
        let s = diff_traces(&a, &a, ("a", "a"));
        assert_eq!(s.digests.0, s.digests.1);
    }
}
