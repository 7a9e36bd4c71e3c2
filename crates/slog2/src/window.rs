//! Time windows and the query API.
//!
//! Every layer of the stack — the frame tree, the legend stats, the
//! renderers, and the `pilotd` query service — used to pass `(f64, f64)`
//! pairs around with each call site deciding for itself whether the
//! boundaries were open or closed. [`TimeWindow`] gives the window a
//! type and pins the inclusivity down in exactly one place:
//!
//! * A window is the **closed** interval `[t0, t1]`.
//! * A drawable overlaps a window iff `start <= t1 && end >= t0` —
//!   touching at either boundary counts, so an event sitting exactly on
//!   a window edge is drawn, matching Jumpshot's behaviour.
//!
//! The frame tree answers "what is in this window?" with
//! [`FrameTree::query`](crate::FrameTree::query),
//! [`window_preview`](crate::FrameTree::window_preview) and
//! [`count_in`](crate::FrameTree::count_in); a whole file answers
//! through its `tree`.

use crate::drawable::Drawable;

/// A closed time interval `[t0, t1]`, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWindow {
    /// Inclusive start.
    pub t0: f64,
    /// Inclusive end.
    pub t1: f64,
}

impl TimeWindow {
    /// The window covering all of time.
    pub const ALL: TimeWindow = TimeWindow {
        t0: f64::NEG_INFINITY,
        t1: f64::INFINITY,
    };

    /// A window from `t0` to `t1`. Swaps the endpoints if given in
    /// descending order, so a window is always non-inverted.
    pub fn new(t0: f64, t1: f64) -> TimeWindow {
        if t1 < t0 {
            TimeWindow { t0: t1, t1: t0 }
        } else {
            TimeWindow { t0, t1 }
        }
    }

    /// Width of the window (0 for an instant).
    pub fn span(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Does the instant `t` lie inside (boundaries included)?
    pub fn contains(&self, t: f64) -> bool {
        self.t0 <= t && t <= self.t1
    }

    /// Is `other` entirely inside this window?
    pub fn contains_window(&self, other: TimeWindow) -> bool {
        self.t0 <= other.t0 && other.t1 <= self.t1
    }

    /// Do two closed windows share at least one instant?
    pub fn intersects(&self, other: TimeWindow) -> bool {
        self.t0 <= other.t1 && other.t0 <= self.t1
    }

    /// **The** drawable-vs-window overlap rule: closed on both sides, so
    /// touching counts. Every query path in the workspace goes through
    /// here; there is deliberately no second definition.
    pub fn overlaps(&self, d: &Drawable) -> bool {
        d.start() <= self.t1 && d.end() >= self.t0
    }

    /// The intersection of two windows, or `None` if they are disjoint.
    pub fn intersect(&self, other: TimeWindow) -> Option<TimeWindow> {
        let t0 = self.t0.max(other.t0);
        let t1 = self.t1.min(other.t1);
        (t0 <= t1).then_some(TimeWindow { t0, t1 })
    }

    /// How much of `[start, end]` lies inside the window, in seconds.
    pub fn clip_span(&self, start: f64, end: f64) -> f64 {
        (end.min(self.t1) - start.max(self.t0)).max(0.0)
    }

    /// Linear interpolation: the time at fraction `f` across the window.
    pub fn lerp(&self, f: f64) -> f64 {
        self.t0 + self.span() * f
    }
}

impl From<(f64, f64)> for TimeWindow {
    fn from((t0, t1): (f64, f64)) -> TimeWindow {
        TimeWindow::new(t0, t1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drawable::{EventDrawable, StateDrawable};
    use crate::id::{CategoryId, TimelineId};

    fn state(start: f64, end: f64) -> Drawable {
        Drawable::State(StateDrawable {
            category: CategoryId(0),
            timeline: TimelineId(0),
            start,
            end,
            nest_level: 0,
            text: String::new(),
        })
    }

    #[test]
    fn new_normalizes_order() {
        assert_eq!(TimeWindow::new(3.0, 1.0), TimeWindow::new(1.0, 3.0));
        assert_eq!(TimeWindow::new(1.0, 3.0).span(), 2.0);
    }

    #[test]
    fn boundaries_are_closed() {
        let w = TimeWindow::new(1.0, 2.0);
        // Touching at either edge counts.
        assert!(w.overlaps(&state(0.0, 1.0)));
        assert!(w.overlaps(&state(2.0, 3.0)));
        assert!(!w.overlaps(&state(0.0, 0.999)));
        assert!(!w.overlaps(&state(2.001, 3.0)));
        // Instants (events) on the edge count too.
        let e = Drawable::Event(EventDrawable {
            category: CategoryId(0),
            timeline: TimelineId(0),
            time: 2.0,
            text: String::new(),
        });
        assert!(w.overlaps(&e));
    }

    #[test]
    fn contains_and_intersect() {
        let w = TimeWindow::new(0.0, 10.0);
        assert!(w.contains(0.0) && w.contains(10.0) && !w.contains(10.1));
        assert!(w.contains_window(TimeWindow::new(2.0, 3.0)));
        assert!(!w.contains_window(TimeWindow::new(2.0, 11.0)));
        assert_eq!(
            w.intersect(TimeWindow::new(5.0, 15.0)),
            Some(TimeWindow::new(5.0, 10.0))
        );
        assert_eq!(w.intersect(TimeWindow::new(11.0, 12.0)), None);
        // Touching windows intersect in a single instant.
        assert_eq!(
            w.intersect(TimeWindow::new(10.0, 12.0)),
            Some(TimeWindow::new(10.0, 10.0))
        );
    }

    #[test]
    fn clip_span_clamps() {
        let w = TimeWindow::new(1.0, 2.0);
        assert_eq!(w.clip_span(0.0, 3.0), 1.0);
        assert_eq!(w.clip_span(1.5, 3.0), 0.5);
        assert_eq!(w.clip_span(5.0, 6.0), 0.0);
    }

    #[test]
    fn all_window_overlaps_everything() {
        assert!(TimeWindow::ALL.overlaps(&state(-1e300, -1e300)));
        assert!(TimeWindow::ALL.overlaps(&state(1e300, 1e300)));
    }
}
