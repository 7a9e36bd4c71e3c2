//! Legend statistics: the numbers Jumpshot's legend table shows.
//!
//! For each category the paper describes three statistics: a **count**
//! of instances, an **inclusive** duration (sum of all its rectangles'
//! widths), and an **exclusive** duration — inclusive minus any states
//! nested inside, i.e. the time spent *purely* in the state and not in
//! substates. The paper notes these are "potentially useful for
//! performance purposes in the absence of special-purpose profiling
//! tools"; our overhead harness uses them exactly that way.

use std::collections::BTreeMap;

use crate::drawable::Drawable;
use crate::file::Slog2File;
use crate::id::{CategoryId, TimelineId};
use crate::window::TimeWindow;

/// Per-category aggregate statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CategoryStats {
    /// Number of drawable instances.
    pub count: u64,
    /// Summed duration of instances (seconds).
    pub inclusive: f64,
    /// Inclusive minus time spent in nested states (seconds).
    /// Equals `inclusive` for events and arrows.
    pub exclusive: f64,
}

/// Compute legend statistics for every category in the file.
///
/// Returns a map keyed by category index; categories with no instances
/// get a zeroed entry.
pub fn legend_stats(file: &Slog2File) -> BTreeMap<CategoryId, CategoryStats> {
    let mut stats: BTreeMap<CategoryId, CategoryStats> = BTreeMap::new();
    for c in &file.categories {
        stats.insert(c.index, CategoryStats::default());
    }

    let drawables = file.tree.query(TimeWindow::ALL);

    // Group states per timeline for the exclusive-time sweep.
    let mut per_timeline: BTreeMap<TimelineId, Vec<&crate::drawable::StateDrawable>> =
        BTreeMap::new();
    for d in &drawables {
        let entry = stats.entry(d.category()).or_default();
        entry.count += 1;
        entry.inclusive += d.duration();
        match d {
            Drawable::State(s) => per_timeline.entry(s.timeline).or_default().push(s),
            Drawable::Event(_) | Drawable::Arrow(_) => {
                entry.exclusive += d.duration();
            }
        }
    }

    // Exclusive time for states: duration minus the durations of states
    // *directly* nested inside. A stack sweep over (start asc, end desc)
    // order reconstructs the nesting.
    for states in per_timeline.values_mut() {
        states.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then(b.end.total_cmp(&a.end))
                // Equal intervals: deeper nest level is the inner state.
                .then(a.nest_level.cmp(&b.nest_level))
        });
        // (category, end, own_exclusive_so_far)
        let mut stack: Vec<(CategoryId, f64, f64)> = Vec::new();
        for s in states.iter() {
            while let Some(&(cat, end, excl)) = stack.last() {
                if end <= s.start {
                    stack.pop();
                    stats.entry(cat).or_default().exclusive += excl;
                } else {
                    break;
                }
            }
            if let Some(parent) = stack.last_mut() {
                parent.2 -= s.end - s.start;
            }
            stack.push((s.category, s.end, s.end - s.start));
        }
        for (cat, _, excl) in stack {
            stats.entry(cat).or_default().exclusive += excl;
        }
    }

    stats
}

/// Per-timeline totals used by the debugging analyses (Figs. 4 and 5):
/// how much of a timeline's span is covered by states of a given
/// category.
pub fn timeline_category_time(file: &Slog2File, category: CategoryId) -> BTreeMap<TimelineId, f64> {
    let mut out = BTreeMap::new();
    for d in file.tree.query(TimeWindow::ALL) {
        if let Drawable::State(s) = d {
            if s.category == category {
                *out.entry(s.timeline).or_insert(0.0) += s.end - s.start;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drawable::{Category, CategoryKind, EventDrawable, StateDrawable};
    use crate::tree::FrameTree;
    use mpelog::Color;

    fn state(cat: u32, tl: u32, start: f64, end: f64, nest: u32) -> Drawable {
        Drawable::State(StateDrawable {
            category: CategoryId(cat),
            timeline: TimelineId(tl),
            start,
            end,
            nest_level: nest,
            text: String::new(),
        })
    }

    fn file_with(drawables: Vec<Drawable>, ncat: u32) -> Slog2File {
        let categories = (0..ncat)
            .map(|i| Category {
                index: CategoryId(i),
                name: format!("cat{i}"),
                color: Color::GRAY,
                kind: CategoryKind::State,
            })
            .collect();
        let (mut t0, mut t1) = (0.0f64, 0.0f64);
        for d in &drawables {
            t0 = t0.min(d.start());
            t1 = t1.max(d.end());
        }
        Slog2File {
            timelines: vec!["P0".into(), "P1".into()],
            categories,
            range: TimeWindow::new(t0, t1),
            warnings: vec![],
            tree: FrameTree::build(drawables, t0, t1, 16, 8),
        }
    }

    #[test]
    fn flat_states_have_exclusive_equal_inclusive() {
        let f = file_with(vec![state(0, 0, 1.0, 2.0, 0), state(0, 0, 3.0, 5.0, 0)], 1);
        let s = legend_stats(&f)[&CategoryId(0)];
        assert_eq!(s.count, 2);
        assert!((s.inclusive - 3.0).abs() < 1e-12);
        assert!((s.exclusive - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nested_state_subtracts_from_parent_exclusive() {
        // A [0,10] contains B [2,5]: A excl = 7, B excl = 3.
        let f = file_with(vec![state(0, 0, 0.0, 10.0, 0), state(1, 0, 2.0, 5.0, 1)], 2);
        let stats = legend_stats(&f);
        assert!((stats[&CategoryId(0)].inclusive - 10.0).abs() < 1e-12);
        assert!((stats[&CategoryId(0)].exclusive - 7.0).abs() < 1e-12);
        assert!((stats[&CategoryId(1)].inclusive - 3.0).abs() < 1e-12);
        assert!((stats[&CategoryId(1)].exclusive - 3.0).abs() < 1e-12);
    }

    #[test]
    fn doubly_nested_subtracts_only_direct_children() {
        // A [0,10] > B [1,9] > C [2,3]. A excl = 10-8=2, B excl = 8-1=7.
        let f = file_with(
            vec![
                state(0, 0, 0.0, 10.0, 0),
                state(1, 0, 1.0, 9.0, 1),
                state(2, 0, 2.0, 3.0, 2),
            ],
            3,
        );
        let stats = legend_stats(&f);
        assert!((stats[&CategoryId(0)].exclusive - 2.0).abs() < 1e-12);
        assert!((stats[&CategoryId(1)].exclusive - 7.0).abs() < 1e-12);
        assert!((stats[&CategoryId(2)].exclusive - 1.0).abs() < 1e-12);
    }

    #[test]
    fn siblings_both_subtract_from_parent() {
        // A [0,10] contains B [1,3] and B [5,8]: A excl = 10-2-3 = 5.
        let f = file_with(
            vec![
                state(0, 0, 0.0, 10.0, 0),
                state(1, 0, 1.0, 3.0, 1),
                state(1, 0, 5.0, 8.0, 1),
            ],
            2,
        );
        let stats = legend_stats(&f);
        assert!((stats[&CategoryId(0)].exclusive - 5.0).abs() < 1e-12);
        assert!((stats[&CategoryId(1)].exclusive - 5.0).abs() < 1e-12);
    }

    #[test]
    fn timelines_do_not_interfere() {
        // Overlapping intervals on *different* timelines are not nested.
        let f = file_with(vec![state(0, 0, 0.0, 10.0, 0), state(1, 1, 2.0, 5.0, 0)], 2);
        let stats = legend_stats(&f);
        assert!((stats[&CategoryId(0)].exclusive - 10.0).abs() < 1e-12);
        assert!((stats[&CategoryId(1)].exclusive - 3.0).abs() < 1e-12);
    }

    #[test]
    fn events_count_without_duration() {
        let mut ds = vec![state(0, 0, 0.0, 1.0, 0)];
        ds.push(Drawable::Event(EventDrawable {
            category: CategoryId(1),
            timeline: TimelineId(0),
            time: 0.5,
            text: String::new(),
        }));
        let f = file_with(ds, 2);
        let stats = legend_stats(&f);
        assert_eq!(stats[&CategoryId(1)].count, 1);
        assert_eq!(stats[&CategoryId(1)].inclusive, 0.0);
        // A bubble inside a state does NOT reduce the state's exclusive time.
        assert!((stats[&CategoryId(0)].exclusive - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_categories_report_zero() {
        let f = file_with(vec![state(0, 0, 0.0, 1.0, 0)], 3);
        let stats = legend_stats(&f);
        assert_eq!(stats[&CategoryId(2)], CategoryStats::default());
    }

    #[test]
    fn timeline_category_time_sums_per_rank() {
        let f = file_with(
            vec![
                state(0, 0, 0.0, 2.0, 0),
                state(0, 0, 3.0, 4.0, 0),
                state(0, 1, 0.0, 5.0, 0),
            ],
            1,
        );
        let per_tl = timeline_category_time(&f, CategoryId(0));
        assert!((per_tl[&TimelineId(0)] - 3.0).abs() < 1e-12);
        assert!((per_tl[&TimelineId(1)] - 5.0).abs() < 1e-12);
    }
}
