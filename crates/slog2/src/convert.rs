//! CLOG2 → SLOG2 conversion (the `clog2TOslog2` step).
//!
//! The paper calls converting (rather than logging straight to SLOG-2)
//! the *preferred* route because (a) a "non well-behaved" program can
//! produce a defective file, and (b) the conversion step surfaces
//! diagnostics — most famously the **"Equal Drawables"** warning when
//! two objects with the same event id have identical start and end
//! times, a consequence of `MPI_Wtime`'s limited resolution. We report
//! all of those as typed [`ConvertWarning`]s.
//!
//! ## The `Converter` API
//!
//! All conversion goes through one builder, [`Converter`], driving a
//! [`TraceSource`] — an already-decoded log, a raw byte image, or a
//! memory-mapped file:
//!
//! ```no_run
//! # use slog2::{Converter, TraceSource};
//! let conv = Converter::new()
//!     .frame_capacity(64)
//!     .parallelism(4)
//!     .convert(TraceSource::mmap("run.clog2".as_ref())?)?;
//! # Ok::<(), mpelog::StreamError>(())
//! ```
//!
//! Salvage (converting the torn log of a failed run) is a *mode* of the
//! same builder — [`Converter::on_torn`] with
//! [`TornPolicy::Salvage`] — not a separate entry point. It works on
//! every source: byte sources are scanned tolerantly, and the converter
//! records what the tear cost (see [`TornPolicy::Salvage`]).
//!
//! ## One pipeline
//!
//! [`Converter::convert`] (in memory) and
//! [`Converter::convert_to_path`] (out-of-core, under a memory budget)
//! run the same phases, each sharded across worker threads
//! ([`Converter::parallelism`]) while producing output
//! **byte-identical** to the serial converter (see DESIGN.md §5 and §15
//! for the determinism argument):
//!
//! 1. **Scan** — one front end opens any source under either torn-input
//!    policy; blocks are split into fixed-size record chunks that
//!    workers *steal* from a shared queue (so parallelism is not capped
//!    by the rank count), then stitched back per rank (`scan`).
//! 2. **Merge** — shard outputs concatenate in rank order into columnar
//!    storage (`columnar`); per-rank send/recv lists are key-disjoint.
//! 3. **Arrows** — per-shard key-sorted send/recv runs merge (sends by
//!    concatenation, recvs by k-way merge) and match in key order,
//!    sharded by contiguous key chunks.
//! 4. **Diagnostics** — Equal Drawables are runs of equal fixed-width
//!    keys in one sorted stream: the external sorter, which spills only
//!    out-of-core.
//! 5. **Tree** — in memory, the frame-tree recursion partitions row
//!    *indices* and forks independent subtrees onto workers;
//!    out-of-core, the tree shape comes from streaming passes
//!    ([`crate::oocore`]). Both write through one encoder
//!    ([`crate::file`]).

use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

use mpelog::clog2::StreamError;
use mpelog::ids::EventId;

use crate::columnar::DrawableColumns;
use crate::drawable::{Category, CategoryKind};
use crate::file::Slog2File;
use crate::id::{CategoryId, TimelineId};
use crate::oocore::{ExtSorter, SortedIter};
use crate::scan::{CategoryTable, MsgKey, RankScan};
use crate::source::{Scanned, TraceSource};
use crate::tree::FrameTree;
use crate::window::TimeWindow;
use mpelog::Color;

/// Diagnostics produced during conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum ConvertWarning {
    /// A state was opened but never closed (non well-behaved program);
    /// the converter closes it at the block's last timestamp.
    UnclosedState {
        /// Rank whose log was defective.
        rank: u32,
        /// The state's category name.
        name: String,
        /// When it was opened.
        start: f64,
    },
    /// A state-end event arrived with no matching open state.
    UnmatchedEnd {
        /// Rank whose log was defective.
        rank: u32,
        /// The event id seen.
        id: EventId,
        /// When.
        ts: f64,
    },
    /// An event id that no definition describes.
    UnknownEventId {
        /// Rank.
        rank: u32,
        /// The undefined id.
        id: EventId,
    },
    /// A send record with no matching receive.
    UnmatchedSend {
        /// Sender rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Tag.
        tag: u32,
    },
    /// A receive record with no matching send.
    UnmatchedRecv {
        /// Source rank recorded by the receiver.
        src: u32,
        /// Receiving rank.
        dst: u32,
        /// Tag.
        tag: u32,
    },
    /// Two or more drawables of the same category with bit-identical
    /// start and end times — the paper's "Equal Drawables" condition,
    /// caused by limited clock resolution.
    EqualDrawables {
        /// Category name.
        category: String,
        /// How many coincide.
        count: usize,
        /// The shared start time.
        t0: f64,
        /// The shared end time.
        t1: f64,
    },
    /// A state whose end event carries an earlier timestamp than its
    /// start (out-of-order or clock-anomalous records); the converter
    /// normalizes the interval so the file stays displayable.
    BackwardState {
        /// Rank whose log was anomalous.
        rank: u32,
        /// Category name.
        name: String,
        /// The (earlier) end timestamp seen.
        end: f64,
        /// The (later) start timestamp seen.
        start: f64,
    },
    /// An arrow that goes backwards in time (receive before send) —
    /// clock drift that synchronization failed to remove.
    BackwardArrow {
        /// Sender rank.
        src: u32,
        /// Receiver rank.
        dst: u32,
        /// Tag.
        tag: u32,
        /// Send time.
        start: f64,
        /// Receive time.
        end: f64,
    },
    /// A rank terminated abnormally; the salvage converter drew a
    /// terminal state rectangle on its timeline.
    RankFailure {
        /// The failed rank.
        rank: u32,
        /// How it failed.
        kind: FailureKind,
        /// The failure payload or detector description.
        detail: String,
    },
    /// The run-level failure diagnosis, embedded verbatim so the viewer
    /// can show *why* the timeline ends in a terminal state.
    FailureDiagnosis {
        /// The diagnosis text (may be multi-line).
        text: String,
    },
    /// The input log was torn; only a prefix was recovered.
    SalvagedLog {
        /// Bytes of the CLOG2 input that decoded cleanly.
        bytes_recovered: usize,
        /// Records recovered across all ranks.
        records_recovered: usize,
    },
}

impl std::fmt::Display for ConvertWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvertWarning::UnclosedState { rank, name, start } => {
                write!(
                    f,
                    "rank {rank}: state '{name}' opened at {start:.6}s never closed"
                )
            }
            ConvertWarning::UnmatchedEnd { rank, id, ts } => {
                write!(
                    f,
                    "rank {rank}: end event {id} at {ts:.6}s has no open state"
                )
            }
            ConvertWarning::UnknownEventId { rank, id } => {
                write!(f, "rank {rank}: event id {id} has no definition")
            }
            ConvertWarning::UnmatchedSend { src, dst, tag } => {
                write!(f, "send {src}->{dst} tag {tag} has no matching receive")
            }
            ConvertWarning::UnmatchedRecv { src, dst, tag } => {
                write!(f, "receive {src}->{dst} tag {tag} has no matching send")
            }
            ConvertWarning::EqualDrawables {
                category,
                count,
                t0,
                t1,
            } => {
                write!(
                    f,
                    "Equal Drawables: {count} '{category}' objects share [{t0:.9}, {t1:.9}]"
                )
            }
            ConvertWarning::BackwardState {
                rank,
                name,
                end,
                start,
            } => {
                write!(
                    f,
                    "rank {rank}: state '{name}' ends at {end:.9} before it starts at {start:.9}; normalized"
                )
            }
            ConvertWarning::BackwardArrow {
                src,
                dst,
                tag,
                start,
                end,
            } => {
                write!(
                    f,
                    "arrow {src}->{dst} tag {tag} goes backward in time ({start:.9} -> {end:.9})"
                )
            }
            ConvertWarning::RankFailure { rank, kind, detail } => {
                write!(f, "rank {rank} {kind}: {detail}")
            }
            ConvertWarning::FailureDiagnosis { text } => write!(f, "diagnosis: {text}"),
            ConvertWarning::SalvagedLog {
                bytes_recovered,
                records_recovered,
            } => {
                write!(
                    f,
                    "salvaged torn log: {records_recovered} records ({bytes_recovered} bytes) recovered"
                )
            }
        }
    }
}

/// How a failed rank's run ended, as rendered on its timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The rank panicked or was aborted mid-run.
    Aborted,
    /// The deadlock (or stall) detector convicted the rank.
    Deadlocked,
}

impl FailureKind {
    /// The synthetic terminal category's display name.
    pub fn category_name(self) -> &'static str {
        match self {
            FailureKind::Aborted => "ABORTED",
            FailureKind::Deadlocked => "DEADLOCKED",
        }
    }

    fn color(self) -> Color {
        match self {
            FailureKind::Aborted => Color::DARK_RED,
            FailureKind::Deadlocked => Color::ORANGE,
        }
    }

    fn slot(self) -> usize {
        match self {
            FailureKind::Aborted => 0,
            FailureKind::Deadlocked => 1,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.category_name())
    }
}

/// One failed rank's post-mortem, as established by the supervisor
/// (`minimpi`'s `RankFailure`) or the deadlock detector.
#[derive(Debug, Clone, PartialEq)]
pub struct RankVerdict {
    /// The failed rank.
    pub rank: u32,
    /// How it failed.
    pub kind: FailureKind,
    /// Panic payload or detector description; drawn (clamped) as the
    /// terminal state's info text.
    pub detail: String,
}

/// Everything the salvage converter embeds beyond the log itself: which
/// ranks failed and how, the detector's diagnosis, and how much of a
/// torn input was recovered (the *tear facts*).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SalvageReport {
    /// Per-rank failure verdicts; each yields a terminal state.
    pub verdicts: Vec<RankVerdict>,
    /// The run-level diagnosis (e.g. the deadlock report), embedded
    /// verbatim in the file's warning list.
    pub diagnosis: Option<String>,
    /// Records recovered from a torn input (0 if the log was whole).
    pub records_recovered: usize,
    /// Bytes recovered from a torn input.
    pub bytes_recovered: usize,
    /// Whether the input log was torn (stopped at a partial frame).
    pub truncated: bool,
}

/// Info-text clamp for terminal states: long panic payloads stay
/// readable in a state rectangle; the full text lives in the warnings.
fn clamp_terminal_text(s: &str) -> String {
    const MAX: usize = 96;
    if s.len() <= MAX {
        return s.to_string();
    }
    let mut cut = MAX;
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &s[..cut])
}

/// What to do when the input log is torn or comes from a failed run.
#[derive(Debug, Clone, Default)]
pub enum TornPolicy {
    /// Fail on malformed input (the default). Sources parse strictly;
    /// a truncated stream is an error, not a best-effort file.
    #[default]
    Strict,
    /// Salvage mode: recover what decodes cleanly, draw terminal states
    /// for the failed ranks, and embed the report's forensics as
    /// warnings. An empty report converts byte-identically to strict
    /// mode on a whole log.
    ///
    /// A byte source (`Bytes`, `Mmap`) is scanned tolerantly, and the
    /// converter fills in the report's tear facts itself: records and
    /// bytes recovered, whether the log was torn, and an
    /// [`FailureKind::Aborted`] verdict for a rank torn mid-block (unless
    /// the report already judges that rank). An `InMemory` log keeps the
    /// caller's facts.
    Salvage(SalvageReport),
}

/// A completed conversion: the SLOG2 file plus its typed diagnostics.
#[derive(Debug)]
pub struct Conversion {
    /// The converted file.
    pub file: Slog2File,
    /// Typed diagnostics (also embedded in `file.warnings` as text).
    pub warnings: Vec<ConvertWarning>,
    /// The salvage report the file embeds, tear facts included (`None`
    /// under [`TornPolicy::Strict`]).
    pub salvage: Option<SalvageReport>,
}

/// The unified conversion entry point: a builder over every tuning knob,
/// driving any [`TraceSource`].
///
/// The same builder converts in memory ([`convert`](Self::convert)) or
/// out-of-core to a file under a memory budget
/// ([`convert_to_path`](Self::convert_to_path)); output bytes are
/// identical across source kinds, parallelism settings, and memory
/// budgets.
#[derive(Debug, Clone)]
pub struct Converter {
    pub(crate) frame_capacity: usize,
    pub(crate) max_depth: u32,
    pub(crate) timeline_names: Option<Vec<String>>,
    pub(crate) parallelism: usize,
    pub(crate) obs: Option<Arc<obs::Obs>>,
    pub(crate) torn: TornPolicy,
    pub(crate) memory_budget: Option<usize>,
    pub(crate) spill_dir: Option<std::path::PathBuf>,
}

impl Default for Converter {
    fn default() -> Self {
        Converter {
            frame_capacity: 64,
            max_depth: 16,
            timeline_names: None,
            parallelism: 0,
            obs: None,
            torn: TornPolicy::Strict,
            memory_budget: None,
            spill_dir: None,
        }
    }
}

impl Converter {
    /// A converter with default settings (frame capacity 64, depth 16,
    /// auto parallelism, strict torn-input policy).
    pub fn new() -> Converter {
        Converter::default()
    }

    /// Frame-tree split threshold ("frame size"). Smaller values make a
    /// deeper tree with finer random access; the paper mentions tuning
    /// this to affect the amount of data initially displayed.
    pub fn frame_capacity(mut self, capacity: usize) -> Converter {
        self.frame_capacity = capacity;
        self
    }

    /// Frame-tree depth limit.
    pub fn max_depth(mut self, depth: u32) -> Converter {
        self.max_depth = depth;
        self
    }

    /// Timeline display names (defaults to `PI_MAIN`, `P1`, …, matching
    /// the paper's convention).
    pub fn timeline_names(mut self, names: Vec<String>) -> Converter {
        self.timeline_names = Some(names);
        self
    }

    /// The names set with [`timeline_names`](Self::timeline_names), if
    /// any.
    pub fn custom_timeline_names(&self) -> Option<&[String]> {
        self.timeline_names.as_deref()
    }

    /// Worker threads: `0` = auto, `1` = serial, `n` = cap. Output is
    /// byte-identical at every setting.
    pub fn parallelism(mut self, workers: usize) -> Converter {
        self.parallelism = workers;
        self
    }

    /// Attach a metrics registry + tracer. Per-stage spans (`scan`,
    /// `merge`, `arrow-match`, `diagnose`, `tree-build` — plus per-shard
    /// worker spans when `parallelism > 1`) land in the tracer; the
    /// `convert.*` counters are attributed per rank block, so their
    /// merged totals are identical at every parallelism setting.
    pub fn observability(mut self, obs: Arc<obs::Obs>) -> Converter {
        self.obs = Some(obs);
        self
    }

    /// Torn-input policy; see [`TornPolicy`].
    pub fn on_torn(mut self, policy: TornPolicy) -> Converter {
        self.torn = policy;
        self
    }

    /// Bound the drawable working set of
    /// [`convert_to_path`](Self::convert_to_path) to roughly `bytes`
    /// (sorted runs spill to disk past the budget). Ignored by the
    /// in-memory [`convert`](Self::convert).
    pub fn memory_budget(mut self, bytes: usize) -> Converter {
        self.memory_budget = Some(bytes);
        self
    }

    /// Directory for out-of-core spill files (defaults to the system
    /// temp directory).
    pub fn spill_dir(mut self, dir: std::path::PathBuf) -> Converter {
        self.spill_dir = Some(dir);
        self
    }

    /// The concrete worker count [`convert`](Self::convert) will use:
    /// `0` resolves to the machine's available parallelism.
    pub fn effective_parallelism(&self) -> usize {
        match self.parallelism {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Convert `src` in memory.
    ///
    /// Output bytes are identical for every source kind describing the
    /// same log, at every parallelism setting, with one exception under
    /// [`TornPolicy::Salvage`]: a byte source fills the tear facts into
    /// the report, while an `InMemory` log keeps the caller's, so the
    /// two agree only when the caller's report carries those facts.
    pub fn convert(&self, src: TraceSource<'_>) -> Result<Conversion, StreamError> {
        let workers = self.effective_parallelism();
        let obs = self.obs.as_deref();
        let Scanned {
            table,
            nranks,
            mut shards,
            mut warnings,
            salvage,
        } = self.scan(src, None)?;

        // Merge: concatenation in rank order reproduces the serial
        // scan's drawable sequence; the per-shard send/recv lists are
        // key-disjoint (each key names its own rank), so rank-ordered
        // merging carries every FIFO queue over intact.
        let mut cols = DrawableColumns::new();
        {
            let _span = obs.map(|o| o.span("merge", "convert", 0));
            for s in &mut shards {
                cols.append(&s.cols);
                s.cols = DrawableColumns::new();
            }
        }
        let scan_warnings = warnings.len();
        {
            let _span = obs.map(|o| o.span("arrow-match", "convert", 0));
            match_all_arrows(
                &shards,
                table.arrow_cat,
                workers,
                obs,
                &mut cols,
                &mut warnings,
            );
        }
        {
            let _span = obs.map(|o| o.span("diagnose", "convert", 0));
            let mut keys = ExtSorter::in_memory();
            for i in 0..cols.len() {
                keys.push(cols.equal_key(i))?;
            }
            report_equal_drawables(keys.into_sorted()?, &table.categories, &mut warnings)?;
        }
        note_totals(obs, cols.n_arrows(), warnings.len() - scan_warnings);

        // Global range and tree. The range folds min/max in row order.
        let _tree_span = obs.map(|o| o.span("tree-build", "convert", 0));
        let range = fold_range(&cols);
        let tree = FrameTree::build_columnar(
            &cols,
            range.t0,
            range.t1,
            self.frame_capacity,
            self.max_depth,
            workers,
        );
        let file = Slog2File {
            timelines: self.timelines(nranks),
            categories: table.categories,
            range,
            warnings: warnings.iter().map(ToString::to_string).collect(),
            tree,
        };
        Ok(Conversion {
            file,
            warnings,
            salvage,
        })
    }

    /// The timeline names: the configured ones, else `PI_MAIN`, `P1`, …
    pub(crate) fn timelines(&self, nranks: u32) -> Vec<String> {
        self.timeline_names.clone().unwrap_or_else(|| {
            (0..nranks)
                .map(|r| match r {
                    0 => "PI_MAIN".to_string(),
                    r => format!("P{r}"),
                })
                .collect()
        })
    }
}

/// Post-scan totals. The arrow count and the warning sequence are
/// deterministic at any parallelism, so attributing them to shard 0
/// keeps the merged snapshot thread-count independent.
pub(crate) fn note_totals(obs: Option<&obs::Obs>, arrows: u64, warnings: usize) {
    if let Some(o) = obs {
        let s = o.shard(0);
        s.counter("convert.drawables.arrow").add(arrows);
        s.counter("convert.warnings").add(warnings as u64);
    }
}

/// The drawables' global `[min start, max end]` range, `[0, 0]` when
/// empty, folded in row order.
fn fold_range(cols: &DrawableColumns) -> TimeWindow {
    let mut t0 = f64::INFINITY;
    let mut t1 = f64::NEG_INFINITY;
    for i in 0..cols.len() {
        t0 = t0.min(cols.start(i));
        t1 = t1.max(cols.end(i));
    }
    if t0.is_finite() {
        TimeWindow::new(t0, t1)
    } else {
        TimeWindow::new(0.0, 0.0)
    }
}

/// Append the synthetic terminal categories, in fixed ABORTED-then-
/// DEADLOCKED order and only when some verdict needs them: index
/// assignment stays deterministic and the no-failure file is unchanged.
pub(crate) fn register_terminal_categories(
    table: &mut CategoryTable,
    report: &SalvageReport,
) -> [Option<CategoryId>; 2] {
    let mut terminal_cats: [Option<CategoryId>; 2] = [None, None];
    for kind in [FailureKind::Aborted, FailureKind::Deadlocked] {
        if report.verdicts.iter().any(|v| v.kind == kind) {
            let idx = CategoryId(table.categories.len() as u32);
            table.categories.push(Category {
                index: idx,
                name: kind.category_name().into(),
                color: kind.color(),
                kind: CategoryKind::State,
            });
            terminal_cats[kind.slot()] = Some(idx);
        }
    }
    terminal_cats
}

/// Build the synthetic final shard carrying the terminal drawables and
/// the forensic warnings; concatenating it after the rank `shards` keeps
/// everything the plain pipeline emits in its usual order.
pub(crate) fn terminal_shard(
    shards: &[RankScan],
    nranks: u32,
    report: &SalvageReport,
    terminal_cats: &[Option<CategoryId>; 2],
) -> RankScan {
    // The log's time extent and each rank's last recovered timestamp,
    // from the raw records (drawable endpoints never exceed these, so
    // terminal states keep the file's range intact).
    let t_min = shards.iter().fold(f64::INFINITY, |t, s| t.min(s.ts_min));
    let t_max = shards
        .iter()
        .fold(f64::NEG_INFINITY, |t, s| t.max(s.ts_max));

    let mut terminal = RankScan::empty(u32::MAX);
    if report.truncated {
        terminal.warnings.push(ConvertWarning::SalvagedLog {
            bytes_recovered: report.bytes_recovered,
            records_recovered: report.records_recovered,
        });
    }
    for v in &report.verdicts {
        terminal.warnings.push(ConvertWarning::RankFailure {
            rank: v.rank,
            kind: v.kind,
            detail: v.detail.clone(),
        });
        if v.rank >= nranks {
            // No timeline to draw on; the warning above still records it.
            continue;
        }
        let cat = terminal_cats[v.kind.slot()].expect("terminal category registered above");
        let start = shards
            .iter()
            .find(|s| s.rank == v.rank && s.n_records > 0)
            .map_or(if t_min.is_finite() { t_min } else { 0.0 }, |s| s.ts_max);
        let end = if t_max.is_finite() {
            t_max.max(start)
        } else {
            start
        };
        terminal.cols.push_state(
            cat,
            TimelineId(v.rank),
            start,
            end,
            0,
            &clamp_terminal_text(&v.detail),
        );
    }
    if let Some(diag) = &report.diagnosis {
        terminal
            .warnings
            .push(ConvertWarning::FailureDiagnosis { text: diag.clone() });
    }
    terminal
}

/// Group a key-sorted `(key, ts)` list into contiguous per-key ranges.
fn key_groups(list: &[(MsgKey, f64)]) -> Vec<(MsgKey, Range<usize>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < list.len() {
        let k = list[i].0;
        let mut j = i + 1;
        while j < list.len() && list[j].0 == k {
            j += 1;
        }
        out.push((k, i..j));
        i = j;
    }
    out
}

/// K-way merge the per-shard key-sorted recv lists into one global
/// key-sorted list. Shard keys are disjoint (each key's `dst` is the
/// owning rank), so within a key the timestamps keep one shard's record
/// order — the FIFO queue the matcher expects. Sends need no heap: each
/// send key leads with the owning rank, so rank-ordered concatenation is
/// already key-sorted.
fn kway_merge_recvs(shards: &[RankScan]) -> Vec<(MsgKey, f64)> {
    use std::cmp::Reverse;
    let total: usize = shards.iter().map(|s| s.recvs.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursors = vec![0usize; shards.len()];
    let mut heap: BinaryHeap<Reverse<(MsgKey, usize)>> = BinaryHeap::new();
    for (si, s) in shards.iter().enumerate() {
        if let Some(&(k, _)) = s.recvs.first() {
            heap.push(Reverse((k, si)));
        }
    }
    while let Some(Reverse((_, si))) = heap.pop() {
        let i = cursors[si];
        out.push(shards[si].recvs[i]);
        cursors[si] += 1;
        if let Some(&(k, _)) = shards[si].recvs.get(cursors[si]) {
            heap.push(Reverse((k, si)));
        }
    }
    out
}

/// FIFO-match one key's send timestamps against its receive timestamps.
///
/// Pairing by index is exactly the serial `pop_front` loop: arrow `i`
/// joins `sends[i]` to `recvs[i]`, then surplus sends and surplus
/// receives each warn once, in that order.
fn match_arrows_for_key(
    key: MsgKey,
    send_ts: &[f64],
    recv_ts: &[f64],
    arrow_cat: CategoryId,
    cols: &mut DrawableColumns,
    warnings: &mut Vec<ConvertWarning>,
) {
    let (src, dst, tag, size) = key;
    let matched = send_ts.len().min(recv_ts.len());
    for (&s, &r) in send_ts.iter().zip(recv_ts.iter()) {
        if r < s {
            warnings.push(ConvertWarning::BackwardArrow {
                src,
                dst,
                tag,
                start: s,
                end: r,
            });
        }
        cols.push_arrow(arrow_cat, TimelineId(src), TimelineId(dst), s, r, tag, size);
    }
    for _ in matched..send_ts.len() {
        warnings.push(ConvertWarning::UnmatchedSend { src, dst, tag });
    }
    for _ in matched..recv_ts.len() {
        warnings.push(ConvertWarning::UnmatchedRecv { src, dst, tag });
    }
}

/// Match sends with receives, sharding the (key-ordered) send key
/// groups into contiguous chunks across up to `workers` threads. Chunk
/// outputs concatenate in chunk order, so the drawable and warning
/// sequences equal the serial key-order walk. Receive keys no send key
/// ever touches warn at the end, in key order — exactly the serial
/// leftover drain.
pub(crate) fn match_all_arrows(
    shards: &[RankScan],
    arrow_cat: CategoryId,
    workers: usize,
    obs: Option<&obs::Obs>,
    cols: &mut DrawableColumns,
    warnings: &mut Vec<ConvertWarning>,
) {
    let sends: Vec<(MsgKey, f64)> = shards
        .iter()
        .flat_map(|s| s.sends.iter().copied())
        .collect();
    let recvs = kway_merge_recvs(shards);
    let send_groups = key_groups(&sends);
    let recv_groups = key_groups(&recvs);

    // Pair each send key group with its recv group (if any), walking
    // both key-sorted group lists with two pointers.
    let mut consumed = vec![false; recv_groups.len()];
    let mut pairs: Vec<(MsgKey, Range<usize>, Option<Range<usize>>)> =
        Vec::with_capacity(send_groups.len());
    let mut rp = 0usize;
    for (key, srange) in &send_groups {
        while rp < recv_groups.len() && recv_groups[rp].0 < *key {
            rp += 1;
        }
        let rrange = if rp < recv_groups.len() && recv_groups[rp].0 == *key {
            consumed[rp] = true;
            let r = recv_groups[rp].1.clone();
            rp += 1;
            Some(r)
        } else {
            None
        };
        pairs.push((*key, srange.clone(), rrange));
    }

    let match_one = |(key, srange, rrange): &(MsgKey, Range<usize>, Option<Range<usize>>),
                     cols: &mut DrawableColumns,
                     warnings: &mut Vec<ConvertWarning>| {
        let send_ts: Vec<f64> = sends[srange.clone()].iter().map(|&(_, t)| t).collect();
        let recv_ts: Vec<f64> = rrange
            .clone()
            .map(|r| recvs[r].iter().map(|&(_, t)| t).collect())
            .unwrap_or_default();
        match_arrows_for_key(*key, &send_ts, &recv_ts, arrow_cat, cols, warnings);
    };

    let workers = workers.min(pairs.len().max(1));
    if workers <= 1 {
        for pair in &pairs {
            match_one(pair, cols, warnings);
        }
    } else {
        let chunk = pairs.len().div_ceil(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = pairs
                .chunks(chunk)
                .enumerate()
                .map(|(w, chunk)| {
                    let match_one = &match_one;
                    s.spawn(move || {
                        let _span = obs.map(|o| o.span("arrow-match.shard", "convert", w as u32));
                        let mut local_cols = DrawableColumns::new();
                        let mut local_warns = Vec::new();
                        for pair in chunk {
                            match_one(pair, &mut local_cols, &mut local_warns);
                        }
                        (local_cols, local_warns)
                    })
                })
                .collect();
            for h in handles {
                let (local_cols, local_warns) = h.join().expect("arrow worker panicked");
                cols.append(&local_cols);
                warnings.extend(local_warns);
            }
        });
    }

    // Receives whose key no send ever matched, in key order.
    for (gi, (key, range)) in recv_groups.iter().enumerate() {
        if !consumed[gi] {
            let (src, dst, tag, _) = *key;
            for _ in range.clone() {
                warnings.push(ConvertWarning::UnmatchedRecv { src, dst, tag });
            }
        }
    }
}

/// Equal-Drawables group key: (category, placement, bit-exact interval).
pub(crate) type EqualKey = (u32, u32, u32, u64, u64);

/// Report the Equal-Drawables groups among the `sorted` keys — every
/// run of two or more equal keys, in key order. In memory the sorter
/// never spills; out-of-core it merges its spilled runs.
pub(crate) fn report_equal_drawables(
    mut sorted: SortedIter,
    categories: &[Category],
    warnings: &mut Vec<ConvertWarning>,
) -> std::io::Result<()> {
    let mut run: Option<(EqualKey, usize)> = None;
    loop {
        let next = sorted.next_rec()?;
        if let (Some((key, n)), Some(k)) = (run.as_mut(), next) {
            if *key == k {
                *n += 1;
                continue;
            }
        }
        if let Some(((cat, _, _, t0, t1), count)) = run.filter(|&(_, n)| n > 1) {
            warnings.push(ConvertWarning::EqualDrawables {
                category: categories
                    .get(cat as usize)
                    .map(|c| c.name.clone())
                    .unwrap_or_else(|| format!("cat{cat}")),
                count,
                t0: f64::from_bits(t0),
                t1: f64::from_bits(t1),
            });
        }
        run = next.map(|k| (k, 1));
        if run.is_none() {
            return Ok(());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::drawable::Drawable;
    use mpelog::{Clog2File, Color, Logger};

    /// Convert `clog` in memory with `conv`.
    fn with(conv: Converter, clog: &Clog2File) -> (Slog2File, Vec<ConvertWarning>) {
        let c = conv.convert(TraceSource::InMemory(clog)).unwrap();
        (c.file, c.warnings)
    }

    fn convert(clog: &Clog2File) -> (Slog2File, Vec<ConvertWarning>) {
        with(Converter::new(), clog)
    }

    fn salvage(clog: &Clog2File, report: &SalvageReport) -> (Slog2File, Vec<ConvertWarning>) {
        with(
            Converter::new().on_torn(TornPolicy::Salvage(report.clone())),
            clog,
        )
    }

    /// Build a two-rank CLOG file through the real Logger API.
    fn sample_clog() -> Clog2File {
        let mut lg0 = Logger::new(0);
        let mut lg1 = Logger::new(1);
        // Same definition order on both ranks (MPE rule).
        let (w_s, w_e) = lg0.define_state("PI_Write", Color::GREEN);
        let (r_s, r_e) = lg0.define_state("PI_Read", Color::RED);
        let arr = lg0.define_event("arrival", Color::YELLOW);
        let _ = lg1.define_state("PI_Write", Color::GREEN);
        let _ = lg1.define_state("PI_Read", Color::RED);
        let _ = lg1.define_event("arrival", Color::YELLOW);

        // Rank 0 writes (1.0..1.2), message flies, rank 1 reads (0.9..1.4).
        lg0.log_event(1.0, w_s, "Line: 10");
        lg0.log_send(1.1, 1, 5, 8);
        lg0.log_event(1.2, w_e, "");
        lg1.log_event(0.9, r_s, "Line: 20");
        lg1.log_receive(1.3, 0, 5, 8);
        lg1.log_event(1.3, arr, "Chan: C1");
        lg1.log_event(1.4, r_e, "");

        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert(0u32, lg0.records().to_vec());
        blocks.insert(1u32, lg1.records().to_vec());
        Clog2File {
            nranks: 2,
            state_defs: lg0.state_defs().to_vec(),
            event_defs: lg0.event_defs().to_vec(),
            blocks,
        }
    }

    #[test]
    fn basic_conversion_produces_expected_objects() {
        let (file, warnings) = convert(&sample_clog());
        assert!(warnings.is_empty(), "{warnings:?}");
        let ds = file.tree.query(crate::TimeWindow::ALL);
        let states = ds
            .iter()
            .filter(|d| matches!(d, Drawable::State(_)))
            .count();
        let events = ds
            .iter()
            .filter(|d| matches!(d, Drawable::Event(_)))
            .count();
        let arrows = ds
            .iter()
            .filter(|d| matches!(d, Drawable::Arrow(_)))
            .count();
        assert_eq!((states, events, arrows), (2, 1, 1));
        assert_eq!(file.range, crate::TimeWindow::new(0.9, 1.4));
        assert_eq!(
            file.timelines,
            vec!["PI_MAIN".to_string(), "P1".to_string()]
        );
    }

    #[test]
    fn arrow_connects_send_to_receive() {
        let (file, _) = convert(&sample_clog());
        let ds = file.tree.query(crate::TimeWindow::ALL);
        let arrow = ds
            .iter()
            .find_map(|d| match d {
                Drawable::Arrow(a) => Some(a),
                _ => None,
            })
            .unwrap();
        assert_eq!(arrow.from_timeline, TimelineId(0));
        assert_eq!(arrow.to_timeline, TimelineId(1));
        assert_eq!(arrow.start, 1.1);
        assert_eq!(arrow.end, 1.3);
        assert_eq!(arrow.tag, 5);
        assert_eq!(arrow.size, 8);
    }

    #[test]
    fn nested_states_get_levels() {
        let mut lg = Logger::new(0);
        let (a_s, a_e) = lg.define_state("A", Color::GRAY);
        let (b_s, b_e) = lg.define_state("B", Color::RED);
        lg.log_event(3.0, a_s, "");
        lg.log_event(5.0, b_s, "");
        lg.log_event(8.0, b_e, "");
        lg.log_event(20.0, a_e, "");
        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert(0u32, lg.records().to_vec());
        let clog = Clog2File {
            nranks: 1,
            state_defs: lg.state_defs().to_vec(),
            event_defs: vec![],
            blocks,
        };
        let (file, warnings) = convert(&clog);
        assert!(warnings.is_empty());
        let ds = file.tree.query(crate::TimeWindow::new(0.0, 100.0));
        let mut levels: Vec<(String, u32)> = ds
            .iter()
            .filter_map(|d| match d {
                Drawable::State(s) => Some((
                    file.categories[s.category.as_usize()].name.clone(),
                    s.nest_level,
                )),
                _ => None,
            })
            .collect();
        levels.sort();
        assert_eq!(levels, vec![("A".to_string(), 0), ("B".to_string(), 1)]);
    }

    #[test]
    fn unclosed_state_is_warned_and_closed_at_log_end() {
        let mut lg = Logger::new(0);
        let (a_s, _a_e) = lg.define_state("A", Color::GRAY);
        let ev = lg.define_event("tick", Color::YELLOW);
        lg.log_event(1.0, a_s, "");
        lg.log_event(9.0, ev, "");
        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert(0u32, lg.records().to_vec());
        let clog = Clog2File {
            nranks: 1,
            state_defs: lg.state_defs().to_vec(),
            event_defs: lg.event_defs().to_vec(),
            blocks,
        };
        let (file, warnings) = convert(&clog);
        assert!(matches!(
            warnings[0],
            ConvertWarning::UnclosedState { rank: 0, ref name, start } if name == "A" && start == 1.0
        ));
        let ds = file.tree.query(crate::TimeWindow::new(0.0, 100.0));
        let s = ds
            .iter()
            .find_map(|d| match d {
                Drawable::State(s) => Some(s),
                _ => None,
            })
            .unwrap();
        assert_eq!(s.end, 9.0);
    }

    #[test]
    fn unmatched_end_is_warned() {
        let mut lg = Logger::new(0);
        let (_a_s, a_e) = lg.define_state("A", Color::GRAY);
        lg.log_event(2.0, a_e, "");
        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert(0u32, lg.records().to_vec());
        let clog = Clog2File {
            nranks: 1,
            state_defs: lg.state_defs().to_vec(),
            event_defs: vec![],
            blocks,
        };
        let (_, warnings) = convert(&clog);
        assert!(matches!(warnings[0], ConvertWarning::UnmatchedEnd { .. }));
    }

    #[test]
    fn unmatched_send_and_recv_are_warned() {
        let mut lg0 = Logger::new(0);
        let mut lg1 = Logger::new(1);
        lg0.log_send(1.0, 1, 7, 16); // never received
        lg1.log_receive(2.0, 0, 8, 16); // never sent
        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert(0u32, lg0.records().to_vec());
        blocks.insert(1u32, lg1.records().to_vec());
        let clog = Clog2File {
            nranks: 2,
            state_defs: vec![],
            event_defs: vec![],
            blocks,
        };
        let (_, warnings) = convert(&clog);
        assert!(warnings
            .iter()
            .any(|w| matches!(w, ConvertWarning::UnmatchedSend { tag: 7, .. })));
        assert!(warnings
            .iter()
            .any(|w| matches!(w, ConvertWarning::UnmatchedRecv { tag: 8, .. })));
    }

    #[test]
    fn equal_drawables_detected_for_identical_timestamps() {
        // Two arrows with bit-identical endpoints — the quantized-clock
        // condition from the paper.
        let mut lg0 = Logger::new(0);
        let mut lg1 = Logger::new(1);
        lg0.log_send(1.0, 1, 5, 4);
        lg0.log_send(1.0, 1, 5, 4);
        lg1.log_receive(2.0, 0, 5, 4);
        lg1.log_receive(2.0, 0, 5, 4);
        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert(0u32, lg0.records().to_vec());
        blocks.insert(1u32, lg1.records().to_vec());
        let clog = Clog2File {
            nranks: 2,
            state_defs: vec![],
            event_defs: vec![],
            blocks,
        };
        let (_, warnings) = convert(&clog);
        assert!(
            warnings
                .iter()
                .any(|w| matches!(w, ConvertWarning::EqualDrawables { count: 2, .. })),
            "{warnings:?}"
        );
    }

    #[test]
    fn backward_arrow_is_warned() {
        let mut lg0 = Logger::new(0);
        let mut lg1 = Logger::new(1);
        lg0.log_send(5.0, 1, 1, 0);
        lg1.log_receive(4.0, 0, 1, 0); // drifted clock: recv "before" send
        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert(0u32, lg0.records().to_vec());
        blocks.insert(1u32, lg1.records().to_vec());
        let clog = Clog2File {
            nranks: 2,
            state_defs: vec![],
            event_defs: vec![],
            blocks,
        };
        let (_, warnings) = convert(&clog);
        assert!(warnings
            .iter()
            .any(|w| matches!(w, ConvertWarning::BackwardArrow { .. })));
    }

    #[test]
    fn empty_log_converts_cleanly() {
        let clog = Clog2File {
            nranks: 3,
            ..Default::default()
        };
        let (file, warnings) = convert(&clog);
        assert!(warnings.is_empty());
        assert_eq!(file.range, crate::TimeWindow::new(0.0, 0.0));
        assert_eq!(file.total_drawables(), 0);
        assert_eq!(file.timelines.len(), 3);
    }

    #[test]
    fn custom_timeline_names_pass_through() {
        let clog = Clog2File {
            nranks: 2,
            ..Default::default()
        };
        let names = vec!["master".into(), "compressor".into()];
        let (file, _) = with(Converter::new().timeline_names(names), &clog);
        assert_eq!(
            file.timelines,
            vec!["master".to_string(), "compressor".to_string()]
        );
    }

    #[test]
    fn slog2_roundtrip_of_converted_file() {
        let (file, _) = convert(&sample_clog());
        let back = Slog2File::from_bytes(&file.to_bytes()).unwrap();
        assert_eq!(back, file);
    }

    /// A messy multi-rank log exercising every warning path: nesting,
    /// backward states, unmatched sends/recvs, equal drawables,
    /// unclosed states, unknown ids.
    pub(crate) fn messy_clog(nranks: u32) -> Clog2File {
        let mut loggers: Vec<Logger> = (0..nranks as usize).map(Logger::new).collect();
        let mut ids = Vec::new();
        for lg in &mut loggers {
            let s = lg.define_state("compute", Color::GREEN);
            let t = lg.define_state("io", Color::RED);
            let _ = lg.define_event("mark", Color::YELLOW);
            if ids.is_empty() {
                ids = vec![s.0, s.1, t.0, t.1];
            }
        }
        let n = nranks as usize;
        for (r, lg) in loggers.iter_mut().enumerate() {
            let base = r as f64;
            // Nested states, one backward.
            lg.log_event(base + 0.1, ids[0], "outer");
            lg.log_event(base + 0.2, ids[2], "inner");
            lg.log_event(base + 0.15, ids[3], ""); // backward io
            lg.log_event(base + 0.9, ids[1], "");
            // Ring messages; rank 0 also sends one nobody receives.
            let dst = (r + 1) % n;
            lg.log_send(base + 0.3, dst, 7, 64);
            lg.log_receive(base + 0.35, (r + n - 1) % n, 7, 64);
            if r == 0 {
                lg.log_send(base + 0.4, dst, 9, 8); // unmatched send
                lg.log_receive(base + 0.5, dst, 11, 8); // unmatched recv
                lg.log_event(base + 0.6, ids[0], "never closed"); // unclosed
            }
            // Equal drawables: identical start/end pairs.
            lg.log_event(base + 0.7, ids[2], "");
            lg.log_event(base + 0.72, ids[3], "");
            lg.log_event(base + 0.7, ids[2], "");
            lg.log_event(base + 0.72, ids[3], "");
        }
        let mut blocks = std::collections::BTreeMap::new();
        for (r, lg) in loggers.iter().enumerate() {
            blocks.insert(r as u32, lg.records().to_vec());
        }
        Clog2File {
            nranks,
            state_defs: loggers[0].state_defs().to_vec(),
            event_defs: loggers[0].event_defs().to_vec(),
            blocks,
        }
    }

    #[test]
    fn parallel_convert_is_byte_identical_to_serial() {
        for nranks in [1u32, 2, 5] {
            let clog = messy_clog(nranks);
            let (serial, serial_warn) = with(Converter::new().parallelism(1), &clog);
            let serial_bytes = serial.to_bytes();
            assert!(!serial_warn.is_empty());
            for threads in [2usize, 3, 8] {
                let (par, par_warn) = with(Converter::new().parallelism(threads), &clog);
                assert_eq!(par_warn, serial_warn, "{nranks} ranks, {threads} threads");
                assert_eq!(
                    par.to_bytes(),
                    serial_bytes,
                    "{nranks} ranks, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn metrics_totals_are_parallelism_independent() {
        // Satellite: the merged convert.* snapshot (counters AND
        // histogram buckets) must be identical at every worker count.
        let clog = messy_clog(5);
        let snap_at = |threads: usize| {
            let o = obs::Obs::handle();
            let conv = Converter::new()
                .parallelism(threads)
                .observability(o.clone());
            let _ = with(conv, &clog);
            o.snapshot()
        };
        let base = snap_at(1);
        assert!(base.counter("convert.records_scanned") > 0);
        assert!(base.counter("convert.drawables.arrow") > 0);
        assert!(base.counter("convert.warnings") > 0);
        for threads in [2usize, 8] {
            assert_eq!(snap_at(threads), base, "{threads} threads");
        }
    }

    #[test]
    fn strict_byte_sources_refuse_torn_and_trailing_images() {
        let clog = messy_clog(2);
        let whole = clog.to_bytes();
        let trailing = [&whole[..], b"junk"].concat();
        let dir = std::env::temp_dir().join(format!("slog2-strict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (clog_path, out) = (dir.join("bad.pclog2"), dir.join("bad.pslog2"));
        let sources = |bytes| {
            [
                ("Bytes", TraceSource::Bytes(bytes)),
                ("Mmap", TraceSource::mmap(&clog_path).unwrap()),
            ]
        };
        let oocore = Converter::new().memory_budget(1).spill_dir(dir.clone());
        for (what, bad) in [("torn", &whole[..whole.len() - 6]), ("trailing", &trailing)] {
            std::fs::write(&clog_path, bad).unwrap();
            for (name, src) in sources(bad) {
                assert!(Converter::new().convert(src).is_err(), "{name}, {what}");
            }
            for (name, src) in sources(bad) {
                let r = oocore.convert_to_path(src, &out);
                assert!(r.is_err(), "{name} oocore, {what}");
            }
        }
        // Salvage keeps every block and reports the trailing bytes as a
        // tear.
        let salvage = Converter::new().on_torn(TornPolicy::Salvage(SalvageReport::default()));
        for (name, src) in sources(&trailing) {
            let c = salvage.convert(src).unwrap();
            let want = ConvertWarning::SalvagedLog {
                bytes_recovered: whole.len(),
                records_recovered: clog.total_records(),
            };
            assert!(c.warnings.contains(&want), "{name}: {:?}", c.warnings);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallelism_zero_resolves_to_a_worker_count() {
        let conv = Converter::new();
        assert_eq!(conv.parallelism, 0);
        assert!(conv.effective_parallelism() >= 1);
        assert_eq!(conv.parallelism(3).effective_parallelism(), 3);
    }

    #[test]
    fn empty_salvage_report_converts_byte_identically() {
        let clog = sample_clog();
        let (plain, plain_warn) = convert(&clog);
        let (salvaged, salvage_warn) = salvage(&clog, &SalvageReport::default());
        assert_eq!(salvage_warn, plain_warn);
        assert_eq!(salvaged.to_bytes(), plain.to_bytes());
    }

    #[test]
    fn salvaged_conversion_marks_failed_rank_and_validates() {
        let clog = sample_clog();
        let report = SalvageReport {
            verdicts: vec![RankVerdict {
                rank: 0,
                kind: FailureKind::Aborted,
                detail: "injected fault at send #2".into(),
            }],
            diagnosis: Some("rank 0 panicked (last op: send): injected fault at send #2".into()),
            records_recovered: 7,
            bytes_recovered: 120,
            truncated: true,
        };
        let (file, warnings) = salvage(&clog, &report);
        assert!(
            crate::validate::validate(&file).is_empty(),
            "{:?}",
            crate::validate::validate(&file)
        );
        // The terminal category sits after the normal table, named and
        // typed as a state.
        let term = file.categories.last().unwrap();
        assert_eq!(term.name, "ABORTED");
        assert_eq!(term.kind, CategoryKind::State);
        // The terminal state spans rank 0's last record (1.2) to the
        // global end of the log (1.4).
        let ds = file.tree.query(crate::TimeWindow::ALL);
        let terminal = ds
            .iter()
            .find_map(|d| match d {
                Drawable::State(s) if s.category == term.index => Some(s),
                _ => None,
            })
            .expect("terminal state drawn");
        assert_eq!(terminal.timeline, TimelineId(0));
        assert_eq!(terminal.start, 1.2);
        assert_eq!(terminal.end, 1.4);
        assert_eq!(terminal.text, "injected fault at send #2");
        // Forensic warnings land in the file's warning list verbatim.
        assert!(warnings.iter().any(|w| matches!(
            w,
            ConvertWarning::RankFailure {
                rank: 0,
                kind: FailureKind::Aborted,
                ..
            }
        )));
        assert!(file
            .warnings
            .iter()
            .any(|w| w.contains("diagnosis: rank 0 panicked")));
        assert!(file
            .warnings
            .iter()
            .any(|w| w.contains("salvaged torn log: 7 records (120 bytes) recovered")));
    }

    #[test]
    fn terminal_categories_appended_after_arrow_category() {
        let clog = sample_clog();
        let (plain, _) = convert(&clog);
        let report = SalvageReport {
            verdicts: vec![
                RankVerdict {
                    rank: 0,
                    kind: FailureKind::Deadlocked,
                    detail: "blocked in PI_Read".into(),
                },
                RankVerdict {
                    rank: 1,
                    kind: FailureKind::Aborted,
                    detail: "panicked".into(),
                },
            ],
            ..Default::default()
        };
        let (file, _) = salvage(&clog, &report);
        // Prefix of the category table is exactly the plain table (the
        // arrow category keeps its index)...
        let n = plain.categories.len();
        assert_eq!(&file.categories[..n], &plain.categories[..]);
        // ...and the terminal categories follow in fixed order.
        assert_eq!(file.categories[n].name, "ABORTED");
        assert_eq!(file.categories[n + 1].name, "DEADLOCKED");
        assert!(crate::validate::validate(&file).is_empty());
    }

    #[test]
    fn rank_with_no_recovered_records_gets_full_span_terminal_state() {
        // Rank 1 exists but its block was entirely lost: the terminal
        // state covers the whole recovered time range.
        let mut lg0 = Logger::new(0);
        let ev = lg0.define_event("tick", Color::YELLOW);
        lg0.log_event(2.0, ev, "");
        lg0.log_event(5.0, ev, "");
        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert(0u32, lg0.records().to_vec());
        let clog = Clog2File {
            nranks: 2,
            state_defs: vec![],
            event_defs: lg0.event_defs().to_vec(),
            blocks,
        };
        let report = SalvageReport {
            verdicts: vec![RankVerdict {
                rank: 1,
                kind: FailureKind::Aborted,
                detail: "no records recovered".into(),
            }],
            truncated: true,
            ..Default::default()
        };
        let (file, _) = salvage(&clog, &report);
        assert!(crate::validate::validate(&file).is_empty());
        let ds = file.tree.query(crate::TimeWindow::ALL);
        let term = ds
            .iter()
            .find_map(|d| match d {
                Drawable::State(s) if s.timeline == TimelineId(1) => Some(s),
                _ => None,
            })
            .unwrap();
        assert_eq!((term.start, term.end), (2.0, 5.0));
    }

    #[test]
    fn terminal_text_is_clamped_but_warning_keeps_full_detail() {
        let clog = sample_clog();
        let long = "x".repeat(300);
        let report = SalvageReport {
            verdicts: vec![RankVerdict {
                rank: 1,
                kind: FailureKind::Aborted,
                detail: long.clone(),
            }],
            ..Default::default()
        };
        let (file, warnings) = salvage(&clog, &report);
        let ds = file.tree.query(crate::TimeWindow::ALL);
        let term_cat = file.categories.last().unwrap().index;
        let term = ds
            .iter()
            .find_map(|d| match d {
                Drawable::State(s) if s.category == term_cat => Some(s),
                _ => None,
            })
            .unwrap();
        assert!(term.text.len() < 110, "clamped: {}", term.text.len());
        assert!(term.text.ends_with('…'));
        assert!(warnings
            .iter()
            .any(|w| matches!(w, ConvertWarning::RankFailure { detail, .. } if *detail == long)));
    }

    #[test]
    fn salvaged_file_roundtrips() {
        let report = SalvageReport {
            verdicts: vec![RankVerdict {
                rank: 1,
                kind: FailureKind::Deadlocked,
                detail: "blocked in PI_Read on channel C1".into(),
            }],
            diagnosis: Some("1 process(es) cannot proceed".into()),
            ..Default::default()
        };
        let (file, _) = salvage(&sample_clog(), &report);
        let back = Slog2File::from_bytes(&file.to_bytes()).unwrap();
        assert_eq!(back, file);
    }
}
