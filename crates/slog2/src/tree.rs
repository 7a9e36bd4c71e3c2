//! The SLOG-2 frame tree.
//!
//! SLOG-2's key idea is a binary tree over the time axis: each drawable
//! is stored in the *shallowest* node whose interval fully contains it,
//! so a viewer can service any zoom window by visiting only the nodes
//! that intersect it. The tunable the paper mentions ("frame size ...
//! the amount of data initially displayed") is our `capacity`: a node
//! splits when it would hold more drawables than that.
//!
//! Every node also carries a [`Preview`] — a per-category count/coverage
//! histogram aggregated over its whole subtree. Previews are what let
//! Jumpshot draw the striped "too dense to show individually" rectangles
//! of the paper's Fig. 1 without touching leaf data.

use std::borrow::Borrow;

use crate::columnar::DrawableColumns;
use crate::drawable::Drawable;
use crate::id::CategoryId;
use crate::window::TimeWindow;

/// The deepest frame tree a file may hold: the reader refuses a deeper
/// one, and every builder clamps its depth limit to this. Each walk of
/// a tree recurses once per level, so this bounds their stack use.
pub const MAX_TREE_DEPTH: u32 = 64;

/// Per-category aggregate used for zoomed-out rendering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Preview {
    /// `(category, instance count, summed duration)` sorted by category.
    pub entries: Vec<PreviewEntry>,
}

/// One category's share of a preview.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreviewEntry {
    /// Category index.
    pub category: CategoryId,
    /// Number of drawable instances.
    pub count: u64,
    /// Summed duration in seconds (0 for instantaneous events).
    pub coverage: f64,
}

impl Preview {
    /// Add one drawable's contribution.
    pub fn add(&mut self, category: CategoryId, duration: f64) {
        match self.entries.binary_search_by_key(&category, |e| e.category) {
            Ok(i) => {
                self.entries[i].count += 1;
                self.entries[i].coverage += duration;
            }
            Err(i) => self.entries.insert(
                i,
                PreviewEntry {
                    category,
                    count: 1,
                    coverage: duration,
                },
            ),
        }
    }

    /// Merge another preview into this one.
    pub fn merge(&mut self, other: &Preview) {
        for e in &other.entries {
            match self
                .entries
                .binary_search_by_key(&e.category, |x| x.category)
            {
                Ok(i) => {
                    self.entries[i].count += e.count;
                    self.entries[i].coverage += e.coverage;
                }
                Err(i) => self.entries.insert(i, *e),
            }
        }
    }

    /// Total instance count.
    pub fn total_count(&self) -> u64 {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Total coverage in seconds.
    pub fn total_coverage(&self) -> f64 {
        self.entries.iter().map(|e| e.coverage).sum()
    }
}

/// One node of the frame tree.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameNode {
    /// Interval start.
    pub t0: f64,
    /// Interval end.
    pub t1: f64,
    /// Depth (root = 0).
    pub depth: u32,
    /// Drawables stored at this node: fully inside `[t0, t1]` but
    /// straddling the midpoint (or the node is a leaf).
    pub drawables: Vec<Drawable>,
    /// Aggregate over this node's whole subtree (own + descendants).
    pub preview: Preview,
    /// Children halves, if split.
    pub children: Option<Box<(FrameNode, FrameNode)>>,
}

impl FrameNode {
    /// Is this a leaf?
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// The tree plus its build parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameTree {
    /// Root node covering the full time range.
    pub root: FrameNode,
    /// Split threshold (max drawables a node may hold before splitting).
    pub capacity: usize,
    /// Depth limit.
    pub max_depth: u32,
}

impl FrameTree {
    /// Build a tree over `[t0, t1]` from `drawables`, owned or borrowed.
    ///
    /// Every drawable must satisfy `t0 <= start && end <= t1`; the
    /// converter guarantees this by using the log's global range. The
    /// drawables are laid out as columns first, so this is the
    /// converter's own build.
    pub fn build<D: Borrow<Drawable>>(
        drawables: impl IntoIterator<Item = D>,
        t0: f64,
        t1: f64,
        capacity: usize,
        max_depth: u32,
    ) -> FrameTree {
        let mut cols = DrawableColumns::new();
        for d in drawables {
            cols.push(d.borrow());
        }
        Self::build_columnar(&cols, t0, t1, capacity, max_depth, 1)
    }

    /// Build a tree from columnar drawable storage, forking the subtree
    /// recursion onto up to `parallelism` scoped threads. `max_depth` is
    /// clamped to [`MAX_TREE_DEPTH`].
    ///
    /// The recursion partitions `u32` row ids instead of moving
    /// 80-byte `Drawable` values, and only materializes a row once, at
    /// the node that finally owns it. The result is bit-identical at
    /// every `parallelism`: each node's preview is accumulated from that
    /// node's own row list in row order, so threads only change *which
    /// thread* runs an independent subtree, never the order of any float
    /// accumulation.
    pub(crate) fn build_columnar(
        cols: &DrawableColumns,
        t0: f64,
        t1: f64,
        capacity: usize,
        max_depth: u32,
        parallelism: usize,
    ) -> FrameTree {
        let split = Split {
            capacity: capacity.max(1),
            max_depth: max_depth.min(MAX_TREE_DEPTH),
        };
        // Each fork level doubles the worker count: budget = ceil(log2 n).
        let forks = parallelism.max(1).next_power_of_two().trailing_zeros();
        let rows = (0..cols.len() as u32).collect();
        FrameTree {
            root: build_node(cols, rows, t0, t1, 0, split, forks),
            capacity: split.capacity,
            max_depth: split.max_depth,
        }
    }

    /// All drawables overlapping the closed window `w` (per
    /// [`TimeWindow::overlaps`]), in deterministic traversal order.
    pub fn query(&self, w: TimeWindow) -> Vec<&Drawable> {
        let mut out = Vec::new();
        query_node(&self.root, w, &mut out);
        out
    }

    /// Exact per-category count/coverage *clipped to* the window `w`,
    /// taken from precomputed node previews wherever a whole subtree
    /// lies inside `w`. Used by the renderer to draw proportional
    /// preview stripes.
    pub fn window_preview(&self, w: TimeWindow) -> Preview {
        let mut p = Preview::default();
        window_preview_node(&self.root, w, &mut p);
        p
    }

    /// Visit every node, parents before children.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a FrameNode)) {
        visit_node(&self.root, f)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Deepest node depth.
    pub fn depth(&self) -> u32 {
        let mut d = 0;
        self.visit(&mut |n| d = d.max(n.depth));
        d
    }

    /// Total drawables stored in the tree.
    pub fn total_drawables(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |node| n += node.drawables.len());
        n
    }
}

/// The split rule's fixed parameters.
#[derive(Clone, Copy)]
struct Split {
    capacity: usize,
    max_depth: u32,
}

fn build_node(
    cols: &DrawableColumns,
    rows: Vec<u32>,
    t0: f64,
    t1: f64,
    depth: u32,
    split: Split,
    forks: u32,
) -> FrameNode {
    // The preview over the whole subtree is accumulated here, top-down,
    // from this node's full row list in row order. Keeping that exact
    // accumulation (instead of merging child previews bottom-up) is what
    // makes the forked build byte-identical to the serial one: f64
    // summation is association-sensitive, so the merge order must not
    // depend on how the recursion is scheduled.
    let mut preview = Preview::default();
    for &row in &rows {
        preview.add(cols.category(row as usize), cols.duration(row as usize));
    }

    let splittable = rows.len() > split.capacity && depth < split.max_depth && t1 > t0;
    if !splittable {
        return FrameNode {
            t0,
            t1,
            depth,
            drawables: materialize(cols, &rows),
            preview,
            children: None,
        };
    }

    let mid = t0 + (t1 - t0) / 2.0;
    let mut here = Vec::new();
    let mut left = Vec::new();
    let mut right = Vec::new();
    for row in rows {
        let (start, end) = (cols.start(row as usize), cols.end(row as usize));
        if end <= mid {
            left.push(row);
        } else if start >= mid {
            right.push(row);
        } else {
            here.push(row);
        }
    }
    // Everything straddling the midpoint stays a leaf: splitting gains
    // nothing.
    let children = (!left.is_empty() || !right.is_empty()).then(|| {
        // Fork the right subtree onto a scoped worker while this thread
        // recurses left; tiny subtrees are not worth a thread spawn.
        const FORK_THRESHOLD: usize = 4096;
        let down = depth + 1;
        if forks > 0 && left.len().min(right.len()) >= FORK_THRESHOLD {
            std::thread::scope(|s| {
                let rh = s.spawn(|| build_node(cols, right, mid, t1, down, split, forks - 1));
                let l = build_node(cols, left, t0, mid, down, split, forks - 1);
                Box::new((l, rh.join().expect("tree build worker panicked")))
            })
        } else {
            // Sequential children: left's forked workers (if any) are
            // joined before right starts, so the budget can pass down
            // unchanged without exceeding the concurrency cap.
            Box::new((
                build_node(cols, left, t0, mid, down, split, forks),
                build_node(cols, right, mid, t1, down, split, forks),
            ))
        }
    });
    FrameNode {
        t0,
        t1,
        depth,
        drawables: materialize(cols, &here),
        preview,
        children,
    }
}

fn materialize(cols: &DrawableColumns, rows: &[u32]) -> Vec<Drawable> {
    rows.iter().map(|&i| cols.to_drawable(i as usize)).collect()
}

fn query_node<'a>(node: &'a FrameNode, w: TimeWindow, out: &mut Vec<&'a Drawable>) {
    if node.t0 > w.t1 || node.t1 < w.t0 {
        return;
    }
    for d in &node.drawables {
        if w.overlaps(d) {
            out.push(d);
        }
    }
    if let Some(ch) = &node.children {
        query_node(&ch.0, w, out);
        query_node(&ch.1, w, out);
    }
}

fn window_preview_node(node: &FrameNode, w: TimeWindow, acc: &mut Preview) {
    if node.t0 > w.t1 || node.t1 < w.t0 {
        return;
    }
    if w.contains_window(TimeWindow::new(node.t0, node.t1)) {
        // Entire subtree inside the window: use the precomputed aggregate.
        acc.merge(&node.preview);
        return;
    }
    for d in &node.drawables {
        if w.overlaps(d) {
            acc.add(d.category(), w.clip_span(d.start(), d.end()));
        }
    }
    if let Some(ch) = &node.children {
        window_preview_node(&ch.0, w, acc);
        window_preview_node(&ch.1, w, acc);
    }
}

fn visit_node<'a>(node: &'a FrameNode, f: &mut impl FnMut(&'a FrameNode)) {
    f(node);
    if let Some(ch) = &node.children {
        visit_node(&ch.0, f);
        visit_node(&ch.1, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drawable::{EventDrawable, StateDrawable};
    use crate::id::TimelineId;

    fn state(cat: u32, start: f64, end: f64) -> Drawable {
        Drawable::State(StateDrawable {
            category: CategoryId(cat),
            timeline: TimelineId(0),
            start,
            end,
            nest_level: 0,
            text: String::new(),
        })
    }

    fn event(cat: u32, t: f64) -> Drawable {
        Drawable::Event(EventDrawable {
            category: CategoryId(cat),
            timeline: TimelineId(0),
            time: t,
            text: String::new(),
        })
    }

    #[test]
    fn small_input_stays_a_leaf() {
        let t = FrameTree::build(vec![state(0, 0.0, 1.0)], 0.0, 10.0, 8, 10);
        assert!(t.root.is_leaf());
        assert_eq!(t.total_drawables(), 1);
    }

    #[test]
    fn large_input_splits() {
        let ds: Vec<_> = (0..100).map(|i| event(0, i as f64 / 10.0)).collect();
        let t = FrameTree::build(ds, 0.0, 10.0, 8, 16);
        assert!(!t.root.is_leaf());
        assert_eq!(t.total_drawables(), 100);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn straddlers_stay_at_parent() {
        // One long state across the midpoint plus many short ones.
        let mut ds = vec![state(0, 1.0, 9.0)];
        ds.extend((0..20).map(|i| event(1, i as f64 / 4.0)));
        let t = FrameTree::build(ds, 0.0, 10.0, 4, 8);
        assert!(t
            .root
            .drawables
            .iter()
            .any(|d| matches!(d, Drawable::State(s) if s.start == 1.0 && s.end == 9.0)));
    }

    #[test]
    fn query_returns_exactly_intersecting() {
        let ds = vec![
            state(0, 0.0, 1.0),
            state(0, 2.0, 3.0),
            state(0, 4.0, 5.0),
            event(1, 2.5),
        ];
        let t = FrameTree::build(ds, 0.0, 5.0, 2, 8);
        let hits = t.query(TimeWindow::new(2.0, 3.0));
        assert_eq!(hits.len(), 2);
        let hits = t.query(TimeWindow::new(1.5, 1.9));
        assert!(hits.is_empty());
        let hits = t.query(TimeWindow::new(0.0, 5.0));
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn node_intervals_contain_their_drawables() {
        let ds: Vec<_> = (0..200)
            .map(|i| state(0, i as f64 * 0.05, i as f64 * 0.05 + 0.04))
            .collect();
        let t = FrameTree::build(ds, 0.0, 10.0, 4, 12);
        t.visit(&mut |n| {
            for d in &n.drawables {
                assert!(
                    n.t0 <= d.start() && d.end() <= n.t1,
                    "node [{}, {}] holds drawable [{}, {}]",
                    n.t0,
                    n.t1,
                    d.start(),
                    d.end()
                );
            }
        });
    }

    #[test]
    fn children_partition_parent_interval() {
        let ds: Vec<_> = (0..100).map(|i| event(0, i as f64 * 0.1)).collect();
        let t = FrameTree::build(ds, 0.0, 10.0, 4, 12);
        t.visit(&mut |n| {
            if let Some(ch) = &n.children {
                assert_eq!(ch.0.t0, n.t0);
                assert_eq!(ch.0.t1, ch.1.t0);
                assert_eq!(ch.1.t1, n.t1);
                assert_eq!(ch.0.depth, n.depth + 1);
            }
        });
    }

    #[test]
    fn preview_counts_match_subtree() {
        let ds: Vec<_> = (0..50)
            .map(|i| state(i % 3, i as f64 * 0.2, i as f64 * 0.2 + 0.1))
            .collect();
        let t = FrameTree::build(ds.clone(), 0.0, 10.1, 4, 10);
        assert_eq!(t.root.preview.total_count(), 50);
        for cat in (0..3u32).map(CategoryId) {
            let want = ds.iter().filter(|d| d.category() == cat).count() as u64;
            let got = t
                .root
                .preview
                .entries
                .iter()
                .find(|e| e.category == cat)
                .map(|e| e.count)
                .unwrap_or(0);
            assert_eq!(got, want, "category {cat}");
        }
    }

    #[test]
    fn window_preview_clips_durations() {
        let ds = vec![state(0, 0.0, 4.0)];
        let t = FrameTree::build(ds, 0.0, 4.0, 8, 4);
        let p = t.window_preview(TimeWindow::new(1.0, 2.0));
        assert_eq!(p.entries.len(), 1);
        assert!((p.entries[0].coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_preview_full_range_equals_root_preview() {
        let ds: Vec<_> = (0..30)
            .map(|i| state(i % 2, i as f64 * 0.3, i as f64 * 0.3 + 0.2))
            .collect();
        let t = FrameTree::build(ds, 0.0, 10.0, 4, 10);
        let p = t.window_preview(TimeWindow::new(0.0, 10.0));
        assert_eq!(p, t.root.preview);
    }

    #[test]
    fn degenerate_range_is_fine() {
        // All drawables at one instant — t0 == t1.
        let ds: Vec<_> = (0..10).map(|_| event(0, 5.0)).collect();
        let t = FrameTree::build(ds, 5.0, 5.0, 2, 8);
        assert_eq!(t.total_drawables(), 10);
        assert_eq!(t.query(TimeWindow::new(5.0, 5.0)).len(), 10);
    }

    #[test]
    fn capacity_zero_clamped_to_one() {
        let ds: Vec<_> = (0..4).map(|i| event(0, i as f64)).collect();
        let t = FrameTree::build(ds, 0.0, 3.0, 0, 8);
        assert_eq!(t.capacity, 1);
        assert_eq!(t.total_drawables(), 4);
    }

    /// A drawable set big enough (> 2 × FORK_THRESHOLD per side) that a
    /// parallel build actually forks at the root.
    fn forking_input() -> Vec<Drawable> {
        (0..20_000)
            .map(|i| state(i % 5, i as f64 * 1e-3, i as f64 * 1e-3 + 7e-4))
            .collect()
    }

    #[test]
    fn parallel_build_is_identical_to_serial() {
        let ds = forking_input();
        let mut cols = DrawableColumns::new();
        for d in &ds {
            cols.push(d);
        }
        let serial = FrameTree::build(&ds, 0.0, 20.1, 64, 16);
        for threads in [2, 3, 4, 8] {
            let par = FrameTree::build_columnar(&cols, 0.0, 20.1, 64, 16, threads);
            assert_eq!(par, serial, "{threads} threads");
        }
    }

    #[test]
    fn build_round_trips_every_kind_of_drawable() {
        let mut ds = crate::columnar::tests::sample();
        ds.extend((0..40).map(|i| state(i % 3, i as f64 * 0.2, i as f64 * 0.2 + 0.1)));
        let t = FrameTree::build(&ds, 0.0, 10.0, 4, 8);
        assert!(!t.root.is_leaf());
        let sorted = |v: Vec<&Drawable>| {
            let mut s: Vec<String> = v.iter().map(|d| format!("{d:?}")).collect();
            s.sort();
            s
        };
        assert_eq!(
            sorted(t.query(TimeWindow::ALL)),
            sorted(ds.iter().collect())
        );
    }
}
