//! The immutable per-rank interval index.
//!
//! A viewer session asks for one rank's row at a time; the container's
//! single global [`FrameTree`] answers that by scanning every rank's
//! drawables in the window. This index is built once at load: each
//! rank's states and events get their own frame tree, and arrows (which
//! belong to two ranks) live in one shared tree filtered per query.
//! Each node of the arrow tree also gets its subtree's arrows aggregated
//! per `(from, to)` pair, so a rank's arrows over a wide window are
//! counted and aggregated from a few nodes instead of listed.
//! The index never mutates after construction, so the query service can
//! share it across worker threads with no locking.

use slog2::{ArrowDrawable, Drawable, FrameNode, FrameTree, Preview, Slog2File, TimeWindow};

use crate::par::{self, Task};

/// Frame capacity and depth limit of the per-rank trees: the
/// converter's defaults, so a rank's tree splits like the file's.
const RANK_FRAME_CAPACITY: usize = 64;
const RANK_MAX_DEPTH: u32 = 16;

/// Per-rank interval index over one loaded SLOG2 file.
#[derive(Debug)]
pub struct TimelineIndex {
    /// `ranks[r]` holds rank r's states and events.
    ranks: Vec<FrameTree>,
    /// All message arrows, shared across ranks.
    arrows: FrameTree,
    /// Per-pair aggregates of `arrows`, node for node.
    pairs: PairNode,
}

/// Which way an arrow points, seen from the rank whose row it is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArrowDir {
    /// The rank receives.
    In,
    /// The rank sends. A self-message counts once, here.
    Out,
}

impl ArrowDir {
    /// The wire name: `"in"` or `"out"`.
    pub fn as_str(self) -> &'static str {
        match self {
            ArrowDir::In => "in",
            ArrowDir::Out => "out",
        }
    }
}

/// Some arrows, aggregated. Every field is an integer, an integer sum,
/// or a min or max, so an aggregate does not depend on the order its
/// arrows are merged in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrowAgg {
    /// Number of arrows.
    pub count: u64,
    /// Summed message sizes.
    pub bytes: u64,
    /// Earliest start, normalized like [`Drawable::start`].
    pub start: f64,
    /// Latest end, normalized like [`Drawable::end`].
    pub end: f64,
}

impl ArrowAgg {
    fn of(a: &ArrowDrawable) -> ArrowAgg {
        ArrowAgg {
            count: 1,
            bytes: u64::from(a.size),
            start: a.start.min(a.end),
            end: a.end.max(a.start),
        }
    }

    fn merge(&mut self, other: &ArrowAgg) {
        self.count += other.count;
        self.bytes += other.bytes;
        self.start = self.start.min(other.start);
        self.end = self.end.max(other.end);
    }
}

/// One (peer, direction)'s share of a rank's arrows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerArrows {
    /// The rank at the arrows' other end.
    pub peer: u32,
    /// Whether the row's rank sends or receives them.
    pub dir: ArrowDir,
    /// The aggregate, its times clipped to the window.
    pub agg: ArrowAgg,
}

/// A rank's arrows over a window, one aggregate per (peer, direction),
/// sorted by peer, then direction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArrowPreview {
    /// The aggregates.
    pub entries: Vec<PeerArrows>,
}

impl ArrowPreview {
    /// Number of arrows aggregated.
    pub fn total_count(&self) -> u64 {
        self.entries.iter().map(|e| e.agg.count).sum()
    }

    fn add(&mut self, peer: u32, dir: ArrowDir, agg: &ArrowAgg) {
        match self
            .entries
            .binary_search_by_key(&(peer, dir), |e| (e.peer, e.dir))
        {
            Ok(i) => self.entries[i].agg.merge(agg),
            Err(i) => self.entries.insert(
                i,
                PeerArrows {
                    peer,
                    dir,
                    agg: *agg,
                },
            ),
        }
    }

    /// Add one pair's arrows if rank `rank` is an endpoint.
    fn add_pair(&mut self, rank: u32, from: u32, to: u32, agg: &ArrowAgg) {
        if from == rank {
            self.add(to, ArrowDir::Out, agg);
        } else if to == rank {
            self.add(from, ArrowDir::In, agg);
        }
    }
}

/// The arrows from one rank to another, aggregated.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pair {
    from: u32,
    to: u32,
    agg: ArrowAgg,
}

/// One arrow-tree node's `(from, to)` aggregates over its whole
/// subtree, with children shaped like the node's.
#[derive(Debug, PartialEq)]
struct PairNode {
    /// Sorted by `(from, to)`. `None` where the pairs would not
    /// compress the subtree's arrows at least as many times as the tree
    /// has levels: each level's nodes then keep at most `arrows /
    /// levels` pairs between them, so the whole tree keeps at most one
    /// pair per arrow whatever the traffic pattern. A query scans such
    /// a node's own arrows and descends instead.
    pairs: Option<Box<[Pair]>>,
    children: Option<Box<(PairNode, PairNode)>>,
}

impl TimelineIndex {
    /// Build the index by scanning `file` once. The trees are built from
    /// the file's drawables by reference: each rank's tree, and the
    /// arrow tree with its pair aggregates (one bottom-up pass over it),
    /// is an independent task, so past a fixed number of drawables
    /// (131,072) the tasks are shared among the available cores. The
    /// index is the same at every core count.
    pub fn build(file: &Slog2File) -> TimelineIndex {
        Self::build_beside(file, Vec::new())
    }

    /// [`build`](Self::build), with the caller's own independent
    /// `beside` tasks run in the same pool as the trees.
    pub(crate) fn build_beside<'a>(file: &'a Slog2File, beside: Vec<Task<'a>>) -> TimelineIndex {
        let (per_rank, arrows) = by_rank(file);
        let total = per_rank.iter().map(Vec::len).sum::<usize>() + arrows.len();
        Self::build_on(
            file.range,
            per_rank,
            arrows,
            par::helpers(total as u64),
            beside,
        )
    }

    /// Build from each rank's states and events and from the arrows,
    /// over `range`, on the calling thread and up to `helpers` others.
    fn build_on<'a>(
        range: TimeWindow,
        per_rank: Vec<Vec<&'a Drawable>>,
        arrows: Vec<&'a Drawable>,
        helpers: usize,
        beside: Vec<Task<'a>>,
    ) -> TimelineIndex {
        let tree = move |ds: Vec<&Drawable>| {
            FrameTree::build(ds, range.t0, range.t1, RANK_FRAME_CAPACITY, RANK_MAX_DEPTH)
        };
        let mut ranks: Vec<Option<FrameTree>> = per_rank.iter().map(|_| None).collect();
        let mut arrow_index = None;
        // The tree tasks borrow this frame's slots, so the list lives
        // shorter than `'a`.
        let mut tasks: Vec<Task<'_>> = beside;
        for (slot, ds) in ranks.iter_mut().zip(per_rank) {
            tasks.push(Task::new(ds.len() as u64, move || *slot = Some(tree(ds))));
        }
        tasks.push(Task::new(arrows.len() as u64, || {
            let arrows = tree(arrows);
            let levels = u64::from(arrows.depth()) + 1;
            let pairs = pair_node(&arrows.root, levels, &mut Vec::new());
            arrow_index = Some((arrows, pairs));
        }));
        par::run(tasks, helpers);
        let (arrows, pairs) = arrow_index.expect("every task has run");
        TimelineIndex {
            ranks: ranks
                .into_iter()
                .map(|t| t.expect("every task has run"))
                .collect(),
            arrows,
            pairs,
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

    /// Rank `r`'s preview aggregate over `w`, from frame-tree node
    /// previews where the window fully covers a node. Its total count is
    /// the number of drawables [`rank_drawables`](Self::rank_drawables)
    /// returns.
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

    /// Rank `r`'s arrows overlapping `w`, aggregated per (peer,
    /// direction), with times clipped to `w`. Nodes wholly inside `w`
    /// contribute their pair aggregates; only the nodes on the window's
    /// edges are scanned. Its total count is the number of arrows
    /// [`rank_arrows`](Self::rank_arrows) returns.
    pub fn rank_arrow_preview(&self, rank: u32, w: TimeWindow) -> ArrowPreview {
        let mut p = ArrowPreview::default();
        arrow_preview_node(&self.arrows.root, &self.pairs, rank, w, &mut p);
        for e in &mut p.entries {
            e.agg.start = e.agg.start.max(w.t0);
            e.agg.end = e.agg.end.min(w.t1);
        }
        p
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

/// `file`'s drawables by reference, in its tree's order: each rank's
/// states and events, and the arrows. A state or event of a rank past
/// the timeline table is left out.
fn by_rank(file: &Slog2File) -> (Vec<Vec<&Drawable>>, Vec<&Drawable>) {
    let mut per_rank: Vec<Vec<&Drawable>> = vec![Vec::new(); file.timelines.len()];
    let mut arrows = Vec::new();
    for d in file.tree.query(TimeWindow::ALL) {
        let rank = match d {
            Drawable::State(s) => s.timeline,
            Drawable::Event(e) => e.timeline,
            Drawable::Arrow(_) => {
                arrows.push(d);
                continue;
            }
        };
        if let Some(v) = per_rank.get_mut(rank.as_usize()) {
            v.push(d);
        }
    }
    (per_rank, arrows)
}

/// Aggregate `node`'s subtree per `(from, to)`: its children's pairs
/// and its own arrows, appended to `scratch`, sorted and merged in
/// place. On return `scratch` holds the subtree's pairs after what it
/// held on entry.
fn pair_node(node: &FrameNode, levels: u64, scratch: &mut Vec<Pair>) -> PairNode {
    let base = scratch.len();
    let children = node.children.as_ref().map(|ch| {
        let left = pair_node(&ch.0, levels, scratch);
        let right = pair_node(&ch.1, levels, scratch);
        Box::new((left, right))
    });
    scratch.extend(node.drawables.iter().filter_map(|d| match d {
        Drawable::Arrow(a) => Some(Pair {
            from: a.from_timeline.as_u32(),
            to: a.to_timeline.as_u32(),
            agg: ArrowAgg::of(a),
        }),
        _ => None,
    }));
    let subtree = &mut scratch[base..];
    subtree.sort_unstable_by_key(|p| (p.from, p.to));
    let mut len = 0;
    for i in 0..subtree.len() {
        let p = subtree[i];
        if len > 0 && (subtree[len - 1].from, subtree[len - 1].to) == (p.from, p.to) {
            subtree[len - 1].agg.merge(&p.agg);
        } else {
            subtree[len] = p;
            len += 1;
        }
    }
    scratch.truncate(base + len);
    let pairs = &scratch[base..];
    let count: u64 = pairs.iter().map(|p| p.agg.count).sum();
    PairNode {
        pairs: (pairs.len() as u64 * levels <= count).then(|| pairs.into()),
        children,
    }
}

fn arrow_preview_node(
    node: &FrameNode,
    pairs: &PairNode,
    rank: u32,
    w: TimeWindow,
    acc: &mut ArrowPreview,
) {
    if node.t0 > w.t1 || node.t1 < w.t0 {
        return;
    }
    if let Some(kept) = &pairs.pairs {
        if w.contains_window(TimeWindow::new(node.t0, node.t1)) {
            // Entire subtree inside the window: use its pair aggregates.
            for p in kept.iter() {
                acc.add_pair(rank, p.from, p.to, &p.agg);
            }
            return;
        }
    }
    for d in &node.drawables {
        if let Drawable::Arrow(a) = d {
            if w.overlaps(d) {
                let (from, to) = (a.from_timeline.as_u32(), a.to_timeline.as_u32());
                acc.add_pair(rank, from, to, &ArrowAgg::of(a));
            }
        }
    }
    if let (Some(ch), Some(pch)) = (&node.children, &pairs.children) {
        arrow_preview_node(&ch.0, &pch.0, rank, w, acc);
        arrow_preview_node(&ch.1, &pch.1, rank, w, acc);
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
        assert!(idx.rank_preview(99, TimeWindow::ALL).entries.is_empty());
        assert!(idx
            .rank_arrow_preview(99, TimeWindow::ALL)
            .entries
            .is_empty());
    }

    #[test]
    fn arrow_preview_aggregates_per_peer_and_clips() {
        let idx = TimelineIndex::build(&file());
        let one = |peer, dir, start, end| PeerArrows {
            peer,
            dir,
            agg: ArrowAgg {
                count: 1,
                bytes: 8,
                start,
                end,
            },
        };
        // The file's one arrow: 0 → 2 over [1.0, 1.5], 8 bytes.
        let sender = idx.rank_arrow_preview(0, TimeWindow::ALL);
        assert_eq!(sender.entries, [one(2, ArrowDir::Out, 1.0, 1.5)]);
        let receiver = idx.rank_arrow_preview(2, TimeWindow::new(1.2, 4.0));
        assert_eq!(receiver.entries, [one(0, ArrowDir::In, 1.2, 1.5)]);
        assert_eq!(idx.rank_arrow_preview(1, TimeWindow::ALL).total_count(), 0);
        assert_eq!(
            idx.rank_arrow_preview(0, TimeWindow::new(3.0, 4.0))
                .total_count(),
            0
        );
    }

    /// `n` arrows among 64 ranks whose `(from, to)` pairs cycle through
    /// `pairs` distinct values.
    fn arrow_file(n: u32, pairs: u32) -> Slog2File {
        let ds: Vec<Drawable> = (0..n)
            .map(|i| {
                let p = i % pairs;
                Drawable::Arrow(ArrowDrawable {
                    category: CategoryId(0),
                    from_timeline: TimelineId(p % 64),
                    to_timeline: TimelineId(p / 64),
                    start: f64::from(i) / 10.0,
                    end: f64::from(i) / 10.0 + 0.05,
                    tag: 0,
                    size: i,
                })
            })
            .collect();
        let range = TimeWindow::new(0.0, f64::from(n) / 10.0);
        Slog2File {
            timelines: (0..64).map(|r| format!("P{r}")).collect(),
            categories: vec![],
            range,
            warnings: vec![],
            tree: FrameTree::build(ds, range.t0, range.t1, 64, 16),
        }
    }

    fn kept_pairs(node: &PairNode) -> usize {
        node.pairs.as_ref().map_or(0, |p| p.len())
            + node
                .children
                .as_ref()
                .map_or(0, |ch| kept_pairs(&ch.0) + kept_pairs(&ch.1))
    }

    #[test]
    fn kept_pairs_never_outnumber_arrows() {
        for (n, pairs) in [(4000, 4000), (4000, 300), (4000, 3)] {
            let idx = TimelineIndex::build(&arrow_file(n, pairs));
            let kept = kept_pairs(&idx.pairs);
            assert!(kept <= n as usize, "{pairs} pairs: kept {kept}");
            // A few pairs compress the root; all-distinct pairs never do.
            assert_eq!(idx.pairs.pairs.is_some(), pairs < 4000, "{pairs} pairs");
            for rank in [0, 1, 2, 63] {
                for w in [
                    TimeWindow::ALL,
                    TimeWindow::new(10.0, 300.0),
                    TimeWindow::new(12.34, 12.36),
                ] {
                    let p = idx.rank_arrow_preview(rank, w);
                    assert_eq!(p.total_count() as usize, idx.rank_arrows(rank, w).len());
                }
            }
        }
    }

    /// A file of `ranks` ranks, its times from a seeded generator: every
    /// fifth rank logs nothing, rank 1 logs only events, the others
    /// states and events, and the arrows outnumber any rank's drawables.
    fn parity_file(ranks: u32) -> Slog2File {
        let mut x = u64::from(ranks) * 0x9e37_79b9;
        let mut next = move || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 11) as f64 / (1u64 << 53) as f64 * 100.0
        };
        let mut ds = Vec::new();
        let mut most = 0;
        for r in 0..ranks {
            let n = if r % 5 == 4 { 0 } else { 150 + 40 * r as usize };
            most = most.max(n);
            for i in 0..n {
                let t = next();
                ds.push(if r == 1 || i % 3 == 0 {
                    Drawable::Event(EventDrawable {
                        category: CategoryId(1),
                        timeline: TimelineId(r),
                        time: t,
                        text: String::new(),
                    })
                } else {
                    Drawable::State(StateDrawable {
                        category: CategoryId(0),
                        timeline: TimelineId(r),
                        start: t,
                        end: (t + next() / 50.0).min(100.0),
                        nest_level: 0,
                        text: String::new(),
                    })
                });
            }
        }
        for i in 0..most * 2 + 300 {
            let t = next();
            ds.push(Drawable::Arrow(ArrowDrawable {
                category: CategoryId(2),
                from_timeline: TimelineId(i as u32 % ranks),
                to_timeline: TimelineId((i as u32 * 7 + 1) % ranks),
                start: t,
                end: (t + next() / 20.0).min(100.0),
                tag: 0,
                size: i as u32 % 97,
            }));
        }
        let range = TimeWindow::new(0.0, 100.0);
        Slog2File {
            timelines: (0..ranks).map(|r| format!("P{r}")).collect(),
            categories: vec![],
            range,
            warnings: vec![],
            tree: FrameTree::build(ds, range.t0, range.t1, 64, 16),
        }
    }

    /// Build `file`'s index with `workers` threads and assert it equals
    /// the serial build, tree by tree, pair aggregates included.
    fn assert_builds_equal_the_serial_build(file: &Slog2File, workers: &[usize]) {
        let build = |workers: usize| {
            let (per_rank, arrows) = by_rank(file);
            TimelineIndex::build_on(file.range, per_rank, arrows, workers - 1, Vec::new())
        };
        let serial = build(1);
        assert_eq!(serial.nranks(), file.timelines.len());
        for &n in workers {
            let index = build(n);
            for (rank, (tree, want)) in index.ranks.iter().zip(&serial.ranks).enumerate() {
                assert!(tree == want, "{n} workers: rank {rank}'s tree differs");
            }
            assert_eq!(index.nranks(), serial.nranks(), "{n} workers");
            assert!(
                index.arrows == serial.arrows,
                "{n} workers: arrow tree differs"
            );
            assert!(
                index.pairs == serial.pairs,
                "{n} workers: pair aggregates differ"
            );
        }
    }

    #[test]
    fn parallel_builds_equal_the_serial_build() {
        for ranks in [1, 2, 9, 33] {
            let file = parity_file(ranks);
            let (per_rank, arrows) = by_rank(&file);
            let largest = per_rank.iter().map(Vec::len).max().unwrap_or(0);
            assert!(arrows.len() > largest, "{ranks} ranks");
            if ranks >= 5 {
                assert!(per_rank[4].is_empty());
            }
            if ranks >= 2 {
                assert!(per_rank[1].iter().all(|d| matches!(d, Drawable::Event(_))));
            }
            assert_builds_equal_the_serial_build(&file, &[1, 2, 3, 8]);
        }
    }

    /// The same comparison at bigtrace's scale (10⁶ drawables). Slow in
    /// a debug build; CI runs it in release: `cargo test --release -p
    /// timeline --lib -- --ignored bigtrace_scale`.
    #[test]
    #[ignore]
    fn bigtrace_scale_parallel_builds_equal_the_serial_build() {
        let clog = workloads::synthetic_clog(8, 62_500);
        let file = slog2::Converter::new()
            .convert(slog2::TraceSource::InMemory(&clog))
            .expect("synthetic log converts")
            .file;
        assert_eq!(file.total_drawables(), 1_000_000);
        assert_builds_equal_the_serial_build(&file, &[1, 2, 3, 8]);
    }
}
