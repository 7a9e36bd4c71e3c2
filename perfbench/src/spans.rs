//! The traced run's span model.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer; nothing inside the program is instrumented. A span has a
//! name (`<layer>.<call>`), a start, an end, a parent, a thread, and the
//! ID of the session or request it belongs to. Spans are kept in memory
//! and written out at the end as Chrome trace-event JSON.
//!
//! A layer's self time is its spans' durations minus their children's.
//! Time inside a unit's root span that no layer span covers is the
//! benchmark's own (`unattributed`), so per unit the layer self times
//! plus `unattributed` equal the root's wall time exactly — unless a
//! span outlives its parent or overlaps a sibling, which [`breakdown`]
//! reports instead of hiding.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers of the program, in pipeline order; a span whose name
/// starts with `<layer>.` belongs to that layer.
pub const LAYERS: [&str; 6] = [
    "pilot", "mpelog", "slog2", "timeline", "jumpshot", "analysis",
];

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The session or request this span belongs to.
    pub trace: u64,
    pub tid: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span's self time is charged to, if any.
    pub fn layer(&self) -> Option<&'static str> {
        let prefix = self.name.split('.').next()?;
        LAYERS.iter().copied().find(|l| *l == prefix)
    }
}

thread_local! {
    /// Open spans on this thread: `(span id, trace id, tid)`, innermost
    /// last.
    static OPEN: RefCell<Vec<(u64, u64, u32)>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span sink shared by every client thread of a run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// Records its span when dropped. Inert when the unit is untraced.
#[must_use = "the span ends when the guard drops"]
pub struct Guard<'t> {
    live: Option<(&'t Tracer, Span)>,
}

impl Tracer {
    /// Open the root span of one unit of work (a session, a visit).
    /// With `traced == false` the root and every span under it are
    /// inert and cost no clock reads.
    pub fn root(&self, name: &'static str, trace: u64, tid: u32, traced: bool) -> Guard<'_> {
        if !traced {
            return Guard { live: None };
        }
        self.open(name, None, trace, tid)
    }

    /// Open a child of this thread's innermost open span; inert when
    /// no traced unit is open on this thread.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        match OPEN.with(|o| o.borrow().last().copied()) {
            Some((parent, trace, tid)) => self.open(name, Some(parent), trace, tid),
            None => Guard { live: None },
        }
    }

    fn open(&self, name: &'static str, parent: Option<u64>, trace: u64, tid: u32) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push((id, trace, tid)));
        let start_ns = self.now_ns();
        Guard {
            live: Some((
                self,
                Span {
                    id,
                    parent,
                    trace,
                    tid,
                    name,
                    start_ns,
                    end_ns: start_ns,
                },
            )),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some((tracer, mut span)) = self.live.take() else {
            return;
        };
        span.end_ns = tracer.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        if let Ok(mut spans) = tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Where a set of traced units spent their wall time.
#[derive(Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Sum of root-span durations.
    pub wall_ns: u64,
    /// Self time per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Root self time plus the self time of non-layer spans.
    pub unattributed_ns: u64,
    /// Spans whose children overrun them or overlap each other.
    pub errors: Vec<String>,
}

impl Breakdown {
    /// Percentage of the traced wall time.
    pub fn pct(&self, ns: u64) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            ns as f64 * 100.0 / self.wall_ns as f64
        }
    }

    /// The layer-sum check: no span has negative self time, and the
    /// layer self times plus `unattributed` equal the wall time.
    pub fn balanced(&self) -> bool {
        self.errors.is_empty()
            && self.self_ns.values().sum::<u64>() + self.unattributed_ns == self.wall_ns
    }
}

/// Self time per layer over every span tree in `spans`.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        children.entry(s.parent.unwrap()).or_default().push(s);
    }
    let mut out = Breakdown::default();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_by_key(|k| k.start_ns);
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for k in &kids {
            if k.start_ns < cursor || k.end_ns > s.end_ns {
                out.errors.push(format!(
                    "span {} ({}) is not nested in its parent {} ({}) without overlap",
                    k.id, k.name, s.id, s.name
                ));
            }
            covered += k.dur_ns();
            cursor = cursor.max(k.end_ns);
        }
        let Some(self_ns) = s.dur_ns().checked_sub(covered) else {
            out.errors
                .push(format!("span {} ({}) has negative self time", s.id, s.name));
            continue;
        };
        if s.parent.is_none() {
            out.wall_ns += s.dur_ns();
        }
        match s.layer() {
            Some(layer) => *out.self_ns.entry(layer).or_default() += self_ns,
            None => out.unattributed_ns += self_ns,
        }
    }
    for (parent, kids) in children {
        out.errors.push(format!(
            "{} span(s) point at missing parent {parent}",
            kids.len()
        ));
    }
    out
}

/// Chrome trace-event JSON ("X" events, microseconds) for `spans`.
pub fn chrome_json(spans: &[Span], metadata: &[(String, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"trace\":{}}}}}",
            s.name,
            s.layer().unwrap_or("bench"),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.trace
        ));
    }
    out.push_str("],\"metadata\":{");
    for (i, (k, v)) in metadata.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{k}\":\"{v}\""));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            tid: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_and_unattributed_on_a_hand_built_tree() {
        // session [0,100): pilot.run [0,40) with child mpelog.finish
        // [30,40); timeline.upload [45,70) with child slog2.convert
        // [50,65); bench.check [70,75); gaps 40..45 and 75..100.
        let spans = vec![
            span(1, None, "session", 0, 100),
            span(2, Some(1), "pilot.run", 0, 40),
            span(3, Some(2), "mpelog.finish", 30, 40),
            span(4, Some(1), "timeline.upload", 45, 70),
            span(5, Some(4), "slog2.convert", 50, 65),
            span(6, Some(1), "bench.check", 70, 75),
        ];
        let b = breakdown(&spans);
        assert!(b.errors.is_empty(), "{:?}", b.errors);
        assert_eq!(b.wall_ns, 100);
        assert_eq!(b.self_ns["pilot"], 30);
        assert_eq!(b.self_ns["mpelog"], 10);
        assert_eq!(b.self_ns["timeline"], 10);
        assert_eq!(b.self_ns["slog2"], 15);
        // Root gaps (5 + 25) plus the non-layer bench.check span (5).
        assert_eq!(b.unattributed_ns, 35);
        assert!(b.balanced());
        assert_eq!(b.pct(b.unattributed_ns), 35.0);
    }

    #[test]
    fn overrunning_and_overlapping_children_fail_the_check() {
        let overrun = vec![
            span(1, None, "session", 0, 10),
            span(2, Some(1), "pilot.run", 5, 20),
        ];
        let b = breakdown(&overrun);
        assert!(!b.balanced());
        assert!(b.errors.iter().any(|e| e.contains("negative self time")));

        let overlap = vec![
            span(1, None, "session", 0, 100),
            span(2, Some(1), "pilot.run", 0, 60),
            span(3, Some(1), "timeline.tile", 50, 70),
        ];
        assert!(!breakdown(&overlap).balanced());

        let orphan = vec![
            span(1, None, "session", 0, 10),
            span(2, Some(9), "pilot.run", 1, 2),
        ];
        assert!(!breakdown(&orphan).balanced());
    }

    #[test]
    fn recorded_spans_nest_under_their_root() {
        let tracer = Tracer::default();
        {
            let _root = tracer.root("session", 7, 3, true);
            let _a = tracer.span("pilot.run");
            drop(tracer.span("mpelog.encode"));
        }
        {
            let _untraced = tracer.root("session", 8, 3, false);
            drop(tracer.span("pilot.run"));
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.trace == 7 && s.tid == 3));
        let root = spans.iter().find(|s| s.name == "session").unwrap();
        let run = spans.iter().find(|s| s.name == "pilot.run").unwrap();
        let enc = spans.iter().find(|s| s.name == "mpelog.encode").unwrap();
        assert_eq!(run.parent, Some(root.id));
        assert_eq!(enc.parent, Some(run.id));
        assert!(breakdown(&spans).balanced());
        let json = chrome_json(&spans, &[("cores".into(), "2".into())]);
        assert!(pilot_vis::json::Json::parse(&json).is_ok(), "{json}");
    }
}
