//! The immutable per-rank interval index.
//!
//! A viewer session asks for one rank's row at a time; the container's
//! single global [`FrameTree`] answers that by scanning every rank's
//! drawables in the window. This index is built once at load: each
//! rank's states and events get their own frame tree, and arrows (which
//! belong to two ranks) live in one shared tree filtered per query.
//! The index never mutates after construction, so the query service can
//! share it across worker threads with no locking.

use slog2::{ArrowDrawable, Drawable, FrameTree, Preview, Slog2File, TimeWindow};

/// Frame capacity for the per-rank trees. Per-rank trees hold fewer
/// drawables than the whole file, so a smaller frame keeps the tree
/// deep enough for preview pruning to pay off.
const RANK_FRAME_CAPACITY: usize = 64;
const RANK_MAX_DEPTH: u32 = 16;

/// Per-rank interval index over one loaded SLOG2 file.
#[derive(Debug)]
pub struct TimelineIndex {
    /// The file's global time range.
    pub range: TimeWindow,
    /// `ranks[r]` holds rank r's states and events.
    ranks: Vec<FrameTree>,
    /// All message arrows, shared across ranks.
    arrows: FrameTree,
}

impl TimelineIndex {
    /// Build the index by scanning `file` once.
    pub fn build(file: &Slog2File) -> TimelineIndex {
        let nranks = file.timelines.len();
        let mut per_rank: Vec<Vec<Drawable>> = vec![Vec::new(); nranks];
        let mut arrows: Vec<Drawable> = Vec::new();
        for d in file.tree.query(TimeWindow::ALL) {
            match d {
                Drawable::State(s) => {
                    if let Some(v) = per_rank.get_mut(s.timeline.as_usize()) {
                        v.push(d.clone());
                    }
                }
                Drawable::Event(e) => {
                    if let Some(v) = per_rank.get_mut(e.timeline.as_usize()) {
                        v.push(d.clone());
                    }
                }
                Drawable::Arrow(_) => arrows.push(d.clone()),
            }
        }
        let w = file.range;
        TimelineIndex {
            range: w,
            ranks: per_rank
                .into_iter()
                .map(|ds| FrameTree::build(ds, w.t0, w.t1, RANK_FRAME_CAPACITY, RANK_MAX_DEPTH))
                .collect(),
            arrows: FrameTree::build(arrows, w.t0, w.t1, RANK_FRAME_CAPACITY, RANK_MAX_DEPTH),
        }
    }

    /// Number of indexed ranks.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Rank `r`'s states and events overlapping `w`. Empty for an
    /// unknown rank.
    pub fn rank_drawables(&self, rank: u32, w: TimeWindow) -> Vec<&Drawable> {
        match self.ranks.get(rank as usize) {
            Some(tree) => tree.query(w),
            None => Vec::new(),
        }
    }

    /// How many of rank `r`'s states/events overlap `w` — the detail
    /// vs. preview decision input.
    pub fn rank_count(&self, rank: u32, w: TimeWindow) -> usize {
        match self.ranks.get(rank as usize) {
            Some(tree) => tree.count_in(w),
            None => 0,
        }
    }

    /// Rank `r`'s preview aggregate over `w`, from frame-tree node
    /// previews where the window fully covers a node.
    pub fn rank_preview(&self, rank: u32, w: TimeWindow) -> Preview {
        match self.ranks.get(rank as usize) {
            Some(tree) => tree.window_preview(w),
            None => Preview::default(),
        }
    }

    /// Arrows overlapping `w` that touch rank `r` (as sender or
    /// receiver).
    pub fn rank_arrows(&self, rank: u32, w: TimeWindow) -> Vec<&ArrowDrawable> {
        self.arrows
            .query(w)
            .into_iter()
            .filter_map(|d| match d {
                Drawable::Arrow(a)
                    if a.from_timeline.as_u32() == rank || a.to_timeline.as_u32() == rank =>
                {
                    Some(a)
                }
                _ => None,
            })
            .collect()
    }

    /// All arrows overlapping `w`, regardless of rank.
    pub fn arrows_in(&self, w: TimeWindow) -> Vec<&Drawable> {
        self.arrows.query(w)
    }

    /// Every rank's drawables overlapping `w`, then the arrows.
    pub fn drawables_in(&self, w: TimeWindow) -> Vec<&Drawable> {
        let mut out = Vec::new();
        for tree in &self.ranks {
            out.extend(tree.query(w));
        }
        out.extend(self.arrows.query(w));
        out
    }

    /// The whole index's per-category aggregate over `w`.
    pub fn preview_in(&self, w: TimeWindow) -> Preview {
        let mut p = Preview::default();
        for tree in &self.ranks {
            p.merge(&tree.window_preview(w));
        }
        p.merge(&self.arrows.window_preview(w));
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpelog::Color;
    use slog2::{
        ArrowDrawable, Category, CategoryId, CategoryKind, EventDrawable, StateDrawable, TimelineId,
    };

    fn file() -> Slog2File {
        let categories = vec![
            Category {
                index: CategoryId(0),
                name: "Compute".into(),
                color: Color::GRAY,
                kind: CategoryKind::State,
            },
            Category {
                index: CategoryId(1),
                name: "msg arrival".into(),
                color: Color::YELLOW,
                kind: CategoryKind::Event,
            },
            Category {
                index: CategoryId(2),
                name: "message".into(),
                color: Color::WHITE,
                kind: CategoryKind::Arrow,
            },
        ];
        let mut ds = Vec::new();
        for r in 0..3u32 {
            for i in 0..4 {
                ds.push(Drawable::State(StateDrawable {
                    category: CategoryId(0),
                    timeline: TimelineId(r),
                    start: i as f64,
                    end: i as f64 + 0.75,
                    nest_level: 0,
                    text: String::new(),
                }));
            }
        }
        ds.push(Drawable::Event(EventDrawable {
            category: CategoryId(1),
            timeline: TimelineId(1),
            time: 2.5,
            text: String::new(),
        }));
        ds.push(Drawable::Arrow(ArrowDrawable {
            category: CategoryId(2),
            from_timeline: TimelineId(0),
            to_timeline: TimelineId(2),
            start: 1.0,
            end: 1.5,
            tag: 7,
            size: 8,
        }));
        let range = TimeWindow::new(0.0, 4.0);
        Slog2File {
            timelines: vec!["PI_MAIN".into(), "P1".into(), "P2".into()],
            categories,
            range,
            warnings: vec![],
            tree: FrameTree::build(ds, range.t0, range.t1, 8, 8),
        }
    }

    #[test]
    fn per_rank_queries_are_disjoint_and_complete() {
        let f = file();
        let idx = TimelineIndex::build(&f);
        assert_eq!(idx.nranks(), 3);
        let total: usize = (0..3)
            .map(|r| idx.rank_drawables(r, TimeWindow::ALL).len())
            .sum();
        // 12 states + 1 event; the arrow lives in the shared tree.
        assert_eq!(total, 13);
        assert_eq!(idx.arrows_in(TimeWindow::ALL).len(), 1);
        assert_eq!(idx.drawables_in(TimeWindow::ALL).len(), 14);
    }

    #[test]
    fn index_matches_file_query() {
        let f = file();
        let idx = TimelineIndex::build(&f);
        for w in [
            TimeWindow::new(0.0, 4.0),
            TimeWindow::new(1.2, 1.4),
            TimeWindow::new(2.5, 2.5),
            TimeWindow::new(9.0, 10.0),
        ] {
            let mut a: Vec<String> = idx
                .drawables_in(w)
                .iter()
                .map(|d| format!("{d:?}"))
                .collect();
            let mut b: Vec<String> = f.tree.query(w).iter().map(|d| format!("{d:?}")).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "window {w:?}");
        }
    }

    #[test]
    fn arrows_match_either_endpoint() {
        let f = file();
        let idx = TimelineIndex::build(&f);
        assert_eq!(idx.rank_arrows(0, TimeWindow::ALL).len(), 1);
        assert_eq!(idx.rank_arrows(1, TimeWindow::ALL).len(), 0);
        assert_eq!(idx.rank_arrows(2, TimeWindow::ALL).len(), 1);
        assert!(idx.rank_arrows(0, TimeWindow::new(3.0, 4.0)).is_empty());
    }

    #[test]
    fn unknown_rank_is_empty() {
        let idx = TimelineIndex::build(&file());
        assert!(idx.rank_drawables(99, TimeWindow::ALL).is_empty());
        assert_eq!(idx.rank_count(99, TimeWindow::ALL), 0);
        assert!(idx.rank_preview(99, TimeWindow::ALL).entries.is_empty());
    }

    #[test]
    fn preview_counts_match_detail_counts() {
        let f = file();
        let idx = TimelineIndex::build(&f);
        let w = TimeWindow::new(0.5, 3.5);
        for r in 0..3 {
            let detail = idx.rank_count(r, w);
            let preview: u64 = idx.rank_preview(r, w).entries.iter().map(|e| e.count).sum();
            assert_eq!(detail as u64, preview, "rank {r}");
        }
    }
}
