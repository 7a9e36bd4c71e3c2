//! Out-of-core conversion: write an SLOG2 file under a memory budget.
//!
//! [`Converter::convert_to_path`] converts a trace whose drawables do
//! not fit in RAM. It shares the in-memory converter's front end, arrow
//! matcher, Equal-Drawables count and encoder; only the frame tree is
//! built differently. The tree never materializes: drawable rows spill
//! to a temporary file as ranks are scanned, the tree *shape* is
//! computed from streaming passes over that file, and the final SLOG2
//! image is written node by node from an externally-sorted row stream.
//! Output bytes are identical to `Converter::convert(..).file.to_bytes()`
//! at every parallelism setting and memory budget — the determinism
//! proptests pin this.
//!
//! ## The three passes
//!
//! 1. **Scan + spill.** The front end scans one rank block at a time
//!    and each rank's rows are appended to the row file as one
//!    *segment*: `[start, end, cat, duration, payload]` per row, where
//!    the payload is the row's exact `Drawable::encode` bytes. Per-rank
//!    send/recv lists, warnings, and per-segment time extrema stay
//!    resident (they are tiny next to the drawables). Arrow rows append
//!    as the final segment after matching. Equal-Drawables keys stream
//!    into an external sorter.
//! 2. **Shape.** A streaming pass counts, for every potential tree node
//!    (addressed by its heap-style path id), how many rows would reach
//!    it if every ancestor split. Since a row's descent path depends
//!    only on the fixed `[t0, t1]` range, reach counts determine the
//!    realized tree exactly: a node splits iff its reach exceeds the
//!    capacity (and the depth/zero-width/empty-children guards pass) —
//!    the same predicate the in-memory recursion evaluates on its item
//!    list.
//! 3. **Place + write.** A second streaming pass walks each row down
//!    the realized tree, accumulating node previews *in row order*
//!    (float summation order is what makes previews bit-identical) and
//!    tagging the row with its owning node's preorder index. Rows
//!    externally sort by `(preorder, sequence)` and stream into the
//!    file behind the header; the node directory is patched in place.
//!
//! The reach map and per-node previews are the only tree state held in
//! memory — `O(nodes)`, not `O(drawables)`. Path ids cap the tree depth
//! at 32 (a 10^9-node shape bound no real file approaches); a converter
//! configured deeper falls back to the in-memory build.

use std::collections::{BinaryHeap, HashMap};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mpelog::clog2::StreamError;
use mpelog::wire::Writer;

use crate::columnar::DrawableColumns;
use crate::convert::{
    match_all_arrows, note_totals, report_equal_drawables, Conversion, ConvertWarning, Converter,
    EqualKey, SalvageReport,
};
use crate::file::{encode_frame, encode_preview, Header};
use crate::fnv::{fnv1a, FnvBuild, FNV_SEED};
use crate::id::CategoryId;
use crate::scan::RankScan;
use crate::source::{Scanned, TraceSource};
use crate::tree::Preview;
use crate::window::TimeWindow;

/// What [`Converter::convert_to_path`] reports: enough to check two
/// runs produced the same file without re-reading either.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertSummary {
    /// Total drawables written.
    pub drawables: u64,
    /// Frame-tree nodes written.
    pub nodes: u64,
    /// Converter diagnostics (also embedded in the file).
    pub warnings: Vec<ConvertWarning>,
    /// Final file size in bytes.
    pub bytes_written: u64,
    /// FNV-1a digest of the file bytes.
    pub digest: u64,
    /// The salvage report the file embeds, tear facts included (`None`
    /// under the strict torn-input policy).
    pub salvage: Option<SalvageReport>,
}

impl Converter {
    /// Convert `src` straight to an SLOG2 file at `dst`, holding only
    /// `memory_budget` bytes (plus scan working set) of drawable data
    /// in RAM. Bytes at `dst` are identical to what
    /// [`convert`](Converter::convert) + `to_bytes` would produce.
    pub fn convert_to_path(
        &self,
        src: TraceSource<'_>,
        dst: &Path,
    ) -> Result<ConvertSummary, StreamError> {
        if self.max_depth > 32 {
            // Path ids don't reach below depth 32; fall back to the
            // in-memory build (identical bytes by construction).
            let Conversion {
                file,
                warnings,
                salvage,
            } = self.convert(src)?;
            let bytes = file.to_bytes();
            std::fs::write(dst, &bytes)?;
            return Ok(ConvertSummary {
                drawables: file.total_drawables() as u64,
                nodes: file.tree.node_count() as u64,
                warnings,
                bytes_written: bytes.len() as u64,
                digest: fnv1a(FNV_SEED, &bytes),
                salvage,
            });
        }
        run_out_of_core(self, src, dst)
    }
}

/// Sequence number for temp-file names (several conversions may run in
/// one process).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp file deleted on drop.
pub(crate) struct TempFile {
    path: PathBuf,
}

impl TempFile {
    fn create(dir: Option<&Path>, tag: &str) -> io::Result<TempFile> {
        let dir = match dir {
            Some(d) => d.to_path_buf(),
            None => std::env::temp_dir(),
        };
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "slog2-oocore-{}-{}-{tag}.tmp",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        Ok(TempFile { path })
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A record the external sorter holds: ordered, and written to and read
/// back from a spill run.
pub(crate) trait RunRecord: Ord + Sized {
    /// Resident bytes charged against the sorter's budget.
    fn weight(&self) -> usize;
    fn write(&self, w: &mut impl Write) -> io::Result<()>;
    /// The run's next record; `None` at its end.
    fn read(r: &mut impl Read) -> io::Result<Option<Self>>;
}

/// Fill `buf`, or report a clean end of input.
fn read_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match r.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Equal-Drawables keys: fixed width.
impl RunRecord for EqualKey {
    fn weight(&self) -> usize {
        std::mem::size_of::<EqualKey>()
    }

    fn write(&self, w: &mut impl Write) -> io::Result<()> {
        let (cat, tl, tl2, t0, t1) = *self;
        for v in [cat, tl, tl2] {
            w.write_all(&v.to_le_bytes())?;
        }
        w.write_all(&t0.to_le_bytes())?;
        w.write_all(&t1.to_le_bytes())
    }

    fn read(r: &mut impl Read) -> io::Result<Option<EqualKey>> {
        let mut cat = [0u8; 4];
        if !read_or_eof(r, &mut cat)? {
            return Ok(None);
        }
        let (tl, tl2) = (read_u32(r)?, read_u32(r)?);
        Ok(Some((
            u32::from_le_bytes(cat),
            tl,
            tl2,
            read_u64(r)?,
            read_u64(r)?,
        )))
    }
}

/// A placed row: owning node (preorder), global row sequence, and the
/// row's encoded drawable.
type Placed = (u32, u64, Vec<u8>);

impl RunRecord for Placed {
    fn weight(&self) -> usize {
        // The payload plus ~48 bytes of key, `Vec` header and padding.
        self.2.len() + 48
    }

    fn write(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.0.to_le_bytes())?;
        w.write_all(&self.1.to_le_bytes())?;
        w.write_all(&(self.2.len() as u32).to_le_bytes())?;
        w.write_all(&self.2)
    }

    fn read(r: &mut impl Read) -> io::Result<Option<Placed>> {
        let mut pre = [0u8; 4];
        if !read_or_eof(r, &mut pre)? {
            return Ok(None);
        }
        let seq = read_u64(r)?;
        let mut payload = vec![0u8; read_u32(r)? as usize];
        r.read_exact(&mut payload)?;
        Ok(Some((u32::from_le_bytes(pre), seq, payload)))
    }
}

/// An external sorter: buffers up to `budget` bytes of records, spills
/// sorted runs to one temp file, and k-way merges the runs on drain.
/// With an unbounded budget it never spills — the in-memory converter's
/// case.
pub(crate) struct ExtSorter<T> {
    recs: Vec<T>,
    buffered: usize,
    budget: usize,
    spill: Option<(BufWriter<File>, TempFile)>,
    spill_dir: Option<PathBuf>,
    tag: &'static str,
    /// Byte ranges of the spilled runs.
    runs: Vec<(u64, u64)>,
}

impl<T: RunRecord> ExtSorter<T> {
    fn new(budget: usize, spill_dir: Option<&Path>, tag: &'static str) -> ExtSorter<T> {
        ExtSorter {
            recs: Vec::new(),
            buffered: 0,
            // Below ~64 KiB the run bookkeeping dominates; clamp.
            budget: budget.max(64 << 10),
            spill: None,
            spill_dir: spill_dir.map(Path::to_path_buf),
            tag,
            runs: Vec::new(),
        }
    }

    /// A sorter that never spills.
    pub(crate) fn in_memory() -> ExtSorter<T> {
        ExtSorter::new(usize::MAX, None, "mem")
    }

    pub(crate) fn push(&mut self, rec: T) -> io::Result<()> {
        self.buffered += rec.weight();
        self.recs.push(rec);
        if self.buffered > self.budget {
            self.spill_run()?;
        }
        Ok(())
    }

    fn spill_run(&mut self) -> io::Result<()> {
        if self.recs.is_empty() {
            return Ok(());
        }
        self.recs.sort_unstable();
        if self.spill.is_none() {
            let tf = TempFile::create(self.spill_dir.as_deref(), self.tag)?;
            let f = File::create(&tf.path)?;
            self.spill = Some((BufWriter::new(f), tf));
        }
        let w = &mut self.spill.as_mut().expect("spill open").0;
        let start = self.runs.last().map_or(0, |r| r.1);
        for rec in self.recs.drain(..) {
            rec.write(w)?;
        }
        self.runs.push((start, w.stream_position()?));
        self.buffered = 0;
        Ok(())
    }

    /// Drain everything in sorted order.
    pub(crate) fn into_sorted(mut self) -> io::Result<SortedIter<T>> {
        if self.runs.is_empty() {
            self.recs.sort_unstable();
            return Ok(SortedIter::Mem(self.recs.into_iter()));
        }
        self.spill_run()?;
        let (w, tf) = self.spill.take().expect("spill open");
        w.into_inner().map_err(io::Error::other)?.sync_data().ok();
        let mut readers = Vec::with_capacity(self.runs.len());
        let mut heap = BinaryHeap::new();
        for (i, &(start, end)) in self.runs.iter().enumerate() {
            let mut f = File::open(&tf.path)?;
            f.seek(SeekFrom::Start(start))?;
            let mut r = BufReader::new(f.take(end - start));
            if let Some(rec) = T::read(&mut r)? {
                heap.push(std::cmp::Reverse((rec, i)));
            }
            readers.push(r);
        }
        Ok(SortedIter::Merge {
            heap,
            readers,
            _guard: tf,
        })
    }
}

pub(crate) enum SortedIter<T> {
    Mem(std::vec::IntoIter<T>),
    Merge {
        heap: BinaryHeap<std::cmp::Reverse<(T, usize)>>,
        readers: Vec<BufReader<io::Take<File>>>,
        _guard: TempFile,
    },
}

impl<T: RunRecord> SortedIter<T> {
    pub(crate) fn next_rec(&mut self) -> io::Result<Option<T>> {
        match self {
            SortedIter::Mem(it) => Ok(it.next()),
            SortedIter::Merge { heap, readers, .. } => {
                let Some(std::cmp::Reverse((rec, i))) = heap.pop() else {
                    return Ok(None);
                };
                if let Some(next) = T::read(&mut readers[i])? {
                    heap.push(std::cmp::Reverse((next, i)));
                }
                Ok(Some(rec))
            }
        }
    }
}

/// One contiguous run of rows in the row file. `order` ranks segments
/// into the global row sequence: `(0, rank)` for scan output (the
/// salvage terminal shard is rank `u32::MAX`), `(1, 0)` for arrows —
/// the same rank-ascending-then-arrows order the in-memory merge uses.
struct Segment {
    order: (u8, u32),
    start: u64,
    rows: u64,
    /// Min row start / max row end, folded in row order.
    t0: f64,
    t1: f64,
}

/// The pass-A row file: sequential segments of
/// `[start f64][end f64][cat u32][dur f64][len u32][payload]` rows.
struct RowFile {
    w: BufWriter<File>,
    guard: TempFile,
    pos: u64,
    segments: Vec<Segment>,
    total_rows: u64,
}

impl RowFile {
    fn create(dir: Option<&Path>) -> io::Result<RowFile> {
        let guard = TempFile::create(dir, "rows")?;
        let f = File::create(&guard.path)?;
        Ok(RowFile {
            w: BufWriter::new(f),
            guard,
            pos: 0,
            segments: Vec::new(),
            total_rows: 0,
        })
    }

    /// Spill one shard's rows as a segment, feeding Equal-Drawables keys
    /// to `eq` along the way.
    fn spill_shard(
        &mut self,
        order: (u8, u32),
        cols: &DrawableColumns,
        eq: &mut ExtSorter<EqualKey>,
    ) -> io::Result<()> {
        let start = self.pos;
        let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
        // Encode the whole segment's payloads in one buffer; per-row
        // lengths delimit it. The segment is already resident as `cols`,
        // so this doubles nothing out of proportion.
        let mut payloads = Writer::with_capacity(cols.len() * 32);
        let mut offsets = Vec::with_capacity(cols.len() + 1);
        for i in 0..cols.len() {
            offsets.push(payloads.len());
            cols.encode(i, &mut payloads);
        }
        offsets.push(payloads.len());
        let payloads = payloads.into_bytes();
        for i in 0..cols.len() {
            let (s, e) = (cols.start(i), cols.end(i));
            t0 = t0.min(s);
            t1 = t1.max(e);
            eq.push(cols.equal_key(i))?;
            let bytes = &payloads[offsets[i]..offsets[i + 1]];
            self.w.write_all(&s.to_le_bytes())?;
            self.w.write_all(&e.to_le_bytes())?;
            self.w.write_all(&cols.category(i).0.to_le_bytes())?;
            self.w.write_all(&cols.duration(i).to_le_bytes())?;
            self.w.write_all(&(bytes.len() as u32).to_le_bytes())?;
            self.w.write_all(bytes)?;
            self.pos += 8 + 8 + 4 + 8 + 4 + bytes.len() as u64;
        }
        self.total_rows += cols.len() as u64;
        self.segments.push(Segment {
            order,
            start,
            rows: cols.len() as u64,
            t0,
            t1,
        });
        Ok(())
    }

    /// Finish writing; returns a re-reader that yields rows in global
    /// sequence order (segments sorted by `order`).
    fn finish(mut self) -> io::Result<RowCursor> {
        self.w.flush()?;
        drop(self.w);
        self.segments.sort_by_key(|s| s.order);
        Ok(RowCursor {
            guard: self.guard,
            segments: self.segments,
            total_rows: self.total_rows,
        })
    }
}

struct RowCursor {
    guard: TempFile,
    segments: Vec<Segment>,
    total_rows: u64,
}

/// One decoded spill row.
struct Row {
    start: f64,
    end: f64,
    cat: u32,
    dur: f64,
    payload: Vec<u8>,
}

impl RowCursor {
    /// The global time range: per-segment extrema folded in segment
    /// order (min/max folds are order-insensitive for non-NaN inputs,
    /// so this equals the in-memory row-order fold).
    fn range(&self) -> (f64, f64) {
        let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.segments {
            t0 = t0.min(s.t0);
            t1 = t1.max(s.t1);
        }
        if t0.is_finite() {
            (t0, t1)
        } else {
            (0.0, 0.0)
        }
    }

    /// Stream every row in global sequence order.
    fn for_each(&self, mut f: impl FnMut(u64, Row) -> io::Result<()>) -> io::Result<()> {
        let mut seq = 0u64;
        let mut file = BufReader::new(File::open(&self.guard.path)?);
        for seg in &self.segments {
            file.seek(SeekFrom::Start(seg.start))?;
            for _ in 0..seg.rows {
                let start = read_f64(&mut file)?;
                let end = read_f64(&mut file)?;
                let cat = read_u32(&mut file)?;
                let dur = read_f64(&mut file)?;
                let len = read_u32(&mut file)? as usize;
                let mut payload = vec![0u8; len];
                file.read_exact(&mut payload)?;
                f(
                    seq,
                    Row {
                        start,
                        end,
                        cat,
                        dur,
                        payload,
                    },
                )?;
                seq += 1;
            }
        }
        Ok(())
    }
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    Ok(f64::from_bits(read_u64(r)?))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// One realized tree node, preorder.
struct NodeMeta {
    t0: f64,
    t1: f64,
    depth: u32,
    split: bool,
    items: u64,
}

/// Walk one row down the potential tree, calling `visit(path_id)` at
/// every node it reaches; returns when the row stops descending.
fn walk_potential(
    row_start: f64,
    row_end: f64,
    t0: f64,
    t1: f64,
    max_depth: u32,
    mut visit: impl FnMut(u64),
) {
    let (mut id, mut a, mut b) = (1u64, t0, t1);
    let mut depth = 0u32;
    loop {
        visit(id);
        if depth >= max_depth || b <= a {
            return;
        }
        let mid = a + (b - a) / 2.0;
        if row_end <= mid {
            id <<= 1;
            b = mid;
        } else if row_start >= mid {
            id = id << 1 | 1;
            a = mid;
        } else {
            return;
        }
        depth += 1;
    }
}

/// Realize the tree shape from reach counts: preorder node list plus a
/// path-id → preorder map.
fn realize_tree(
    reach: &HashMap<u64, u64, FnvBuild>,
    t0: f64,
    t1: f64,
    capacity: u64,
    max_depth: u32,
) -> (Vec<NodeMeta>, HashMap<u64, u32, FnvBuild>) {
    let mut nodes = Vec::new();
    let mut map: HashMap<u64, u32, FnvBuild> = HashMap::default();
    // Explicit stack, preorder: push right before left so left pops
    // first (matching the recursion's self → left → right order).
    let mut stack = vec![(1u64, t0, t1, 0u32)];
    while let Some((id, a, b, depth)) = stack.pop() {
        let n = reach.get(&id).copied().unwrap_or(0);
        let l = reach.get(&(id << 1)).copied().unwrap_or(0);
        let r = reach.get(&(id << 1 | 1)).copied().unwrap_or(0);
        // The same predicate the in-memory recursion evaluates: items
        // over capacity, depth available, splittable interval, and the
        // split actually moves something down.
        let split = n > capacity && depth < max_depth && b > a && (l + r) > 0;
        map.insert(id, nodes.len() as u32);
        nodes.push(NodeMeta {
            t0: a,
            t1: b,
            depth,
            split,
            items: if split { n - l - r } else { n },
        });
        if split {
            let mid = a + (b - a) / 2.0;
            stack.push((id << 1 | 1, mid, b, depth + 1));
            stack.push((id << 1, a, mid, depth + 1));
        }
    }
    // `stack.pop()` visits self, then the whole left subtree, then the
    // right — but interleaved pushes would break preorder numbering if
    // the left subtree pushed before the right sibling popped. It
    // can't: right was pushed below left, and left's entire subtree is
    // pushed (and popped) above it. So `map` holds true preorder.
    (nodes, map)
}

fn run_out_of_core(
    conv: &Converter,
    src: TraceSource<'_>,
    dst: &Path,
) -> Result<ConvertSummary, StreamError> {
    let workers = conv.effective_parallelism();
    let obs = conv.obs.as_deref();
    let budget = conv.memory_budget.unwrap_or(usize::MAX);
    let spill_dir = conv.spill_dir.as_deref();

    // ---- Pass A: scan ranks, spill drawable rows per segment. ----
    let mut rows = RowFile::create(spill_dir)?;
    let mut eq = ExtSorter::new(budget / 4, spill_dir, "eqkeys");
    let Scanned {
        table,
        nranks,
        shards,
        mut warnings,
        salvage,
    } = conv.scan(
        src,
        Some(&mut |scan: &mut RankScan| {
            rows.spill_shard((0, scan.rank), &scan.cols, &mut eq)?;
            scan.cols = DrawableColumns::new();
            Ok(())
        }),
    )?;

    // Arrow matching runs on the resident send/recv lists; its rows
    // spill as the final segment.
    let scan_warnings = warnings.len();
    let mut acols = DrawableColumns::new();
    {
        let _span = obs.map(|o| o.span("arrow-match", "convert", 0));
        match_all_arrows(
            &shards,
            table.arrow_cat,
            workers,
            obs,
            &mut acols,
            &mut warnings,
        );
        rows.spill_shard((1, 0), &acols, &mut eq)?;
    }
    {
        let _span = obs.map(|o| o.span("diagnose", "convert", 0));
        report_equal_drawables(eq, &table.categories, &mut warnings)?;
    }
    note_totals(obs, acols.n_arrows(), warnings.len() - scan_warnings);

    // ---- Pass B: range + reach counts → realized tree shape. ----
    let _tree_span = obs.map(|o| o.span("tree-build", "convert", 0));
    let cursor = rows.finish()?;
    let (t0, t1) = cursor.range();
    let capacity = conv.frame_capacity.max(1);
    let mut reach: HashMap<u64, u64, FnvBuild> = HashMap::default();
    cursor.for_each(|_, row| {
        walk_potential(row.start, row.end, t0, t1, conv.max_depth, |id| {
            *reach.entry(id).or_insert(0) += 1;
        });
        Ok(())
    })?;
    let (nodes, node_of) = realize_tree(&reach, t0, t1, capacity as u64, conv.max_depth);
    drop(reach);

    // ---- Pass C: previews in row order + external sort by placement. ----
    // A row contributes to the preview of every *realized* node on its
    // path (root down to the node that keeps it) — never to the
    // potential nodes below a leaf, which the in-memory recursion never
    // creates. Rows stream in global sequence order, so each node's
    // preview accumulates its items in exactly the order the in-memory
    // build adds them (per-node f64 sums are bit-identical).
    let mut previews: Vec<Preview> = nodes.iter().map(|_| Preview::default()).collect();
    let mut placed = ExtSorter::new(budget / 2, spill_dir, "placed");
    cursor.for_each(|seq, row| {
        let (mut id, mut a, mut b) = (1u64, t0, t1);
        let keep = loop {
            let pre = node_of[&id];
            previews[pre as usize].add(CategoryId(row.cat), row.dur);
            if !nodes[pre as usize].split {
                break pre;
            }
            let mid = a + (b - a) / 2.0;
            if row.end <= mid {
                id <<= 1;
                b = mid;
            } else if row.start >= mid {
                id = id << 1 | 1;
                a = mid;
            } else {
                break pre;
            }
        };
        placed.push((keep, seq, row.payload))
    })?;

    // ---- Write the file. ----
    let warning_text: Vec<String> = warnings.iter().map(ToString::to_string).collect();
    let mut header = Writer::with_capacity(4096);
    let dir_start = Header {
        capacity,
        max_depth: conv.max_depth,
        range: TimeWindow::new(t0, t1),
        timelines: &conv.timelines(nranks),
        categories: &table.categories,
        warnings: &warning_text,
        n_nodes: nodes.len(),
    }
    .encode(&mut header) as u64;
    let header = header.into_bytes();
    let mut out = BufWriter::new(File::create(dst)?);
    out.write_all(&header)?;
    let mut pos = header.len() as u64;
    let mut directory = Vec::with_capacity(nodes.len());
    let mut sorted = placed.into_sorted()?;
    for (pre, node) in nodes.iter().enumerate() {
        directory.push(pos);
        let mut put = |bytes: &[u8]| {
            pos += bytes.len() as u64;
            out.write_all(bytes)
        };
        let mut w = Writer::with_capacity(64);
        encode_frame(
            &mut w,
            node.t0,
            node.t1,
            node.depth,
            node.split,
            node.items as usize,
        );
        put(&w.into_bytes())?;
        // The sorted stream is grouped by preorder index, and the reach
        // arithmetic guarantees each group's length equals the node's
        // item count — check rather than trust.
        for _ in 0..node.items {
            let (rec_pre, _, payload) = sorted
                .next_rec()?
                .ok_or_else(|| io::Error::other("row stream ended before its node count"))?;
            if rec_pre != pre as u32 {
                return Err(StreamError::Io(io::Error::other(
                    "row placed outside its node",
                )));
            }
            put(&payload)?;
        }
        let mut w = Writer::with_capacity(64);
        encode_preview(&mut w, &previews[pre]);
        put(&w.into_bytes())?;
    }
    let mut f = out.into_inner().map_err(io::Error::other)?;
    f.seek(SeekFrom::Start(dir_start))?;
    let mut dir_bytes = Vec::with_capacity(directory.len() * 8);
    for off in &directory {
        dir_bytes.extend_from_slice(&off.to_le_bytes());
    }
    f.write_all(&dir_bytes)?;
    f.flush()?;
    drop(f);

    // Digest the finished file.
    let mut digest = FNV_SEED;
    let mut bytes_written = 0u64;
    let mut r = BufReader::new(File::open(dst)?);
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = r.read(&mut buf)?;
        if n == 0 {
            break;
        }
        digest = fnv1a(digest, &buf[..n]);
        bytes_written += n as u64;
    }

    Ok(ConvertSummary {
        drawables: cursor.total_rows,
        nodes: nodes.len() as u64,
        warnings,
        bytes_written,
        digest,
        salvage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::tests::messy_clog;
    use crate::convert::TornPolicy;
    use mpelog::{Clog2File, Color, Logger};

    fn tmp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!("slog2-oocore-test-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn in_memory_bytes(clog: &Clog2File, threads: usize) -> Vec<u8> {
        Converter::new()
            .parallelism(threads)
            .convert(TraceSource::InMemory(clog))
            .unwrap()
            .file
            .to_bytes()
    }

    #[test]
    fn out_of_core_matches_in_memory_bytes() {
        let clog = messy_clog(3);
        let want = in_memory_bytes(&clog, 1);
        for (threads, budget) in [(1, None), (2, Some(1)), (4, Some(64 << 10))] {
            let mut conv = Converter::new().parallelism(threads).spill_dir(tmp_dir());
            if let Some(b) = budget {
                conv = conv.memory_budget(b);
            }
            let dst = tmp_dir().join(format!("ooc-{threads}-{budget:?}.pslog2"));
            let summary = conv
                .convert_to_path(TraceSource::InMemory(&clog), &dst)
                .unwrap();
            let got = std::fs::read(&dst).unwrap();
            assert_eq!(got, want, "threads={threads} budget={budget:?}");
            assert_eq!(summary.bytes_written, want.len() as u64);
            assert_eq!(summary.digest, fnv1a(FNV_SEED, &want));
            assert!(summary.drawables > 0 && summary.nodes > 0);
        }
    }

    #[test]
    fn out_of_core_source_kinds_agree() {
        let clog = messy_clog(2);
        let bytes = clog.to_bytes();
        let want = in_memory_bytes(&clog, 1);
        let dir = tmp_dir();

        let conv = Converter::new()
            .parallelism(2)
            .memory_budget(1)
            .spill_dir(dir.clone());

        let d1 = dir.join("src-bytes.pslog2");
        conv.convert_to_path(TraceSource::Bytes(&bytes), &d1)
            .unwrap();
        assert_eq!(std::fs::read(&d1).unwrap(), want, "Bytes");

        let clog_path = dir.join("src.clog2");
        std::fs::write(&clog_path, &bytes).unwrap();
        let d2 = dir.join("src-mmap.pslog2");
        conv.convert_to_path(TraceSource::mmap(&clog_path).unwrap(), &d2)
            .unwrap();
        assert_eq!(std::fs::read(&d2).unwrap(), want, "Mmap");

        let d3 = dir.join("src-reader.pslog2");
        conv.convert_to_path(TraceSource::reader(&bytes[..]), &d3)
            .unwrap();
        assert_eq!(std::fs::read(&d3).unwrap(), want, "Reader");
    }

    #[test]
    fn out_of_core_salvage_matches_in_memory() {
        use crate::convert::{FailureKind, RankVerdict};
        let clog = messy_clog(2);
        let report = SalvageReport {
            verdicts: vec![RankVerdict {
                rank: 1,
                kind: FailureKind::Aborted,
                detail: "panicked at 'boom'".into(),
            }],
            diagnosis: Some("rank 1 aborted".into()),
            ..Default::default()
        };
        let want = Converter::new()
            .parallelism(1)
            .on_torn(TornPolicy::Salvage(report.clone()))
            .convert(TraceSource::InMemory(&clog))
            .unwrap()
            .file
            .to_bytes();
        let dst = tmp_dir().join("ooc-salvage.pslog2");
        Converter::new()
            .parallelism(2)
            .memory_budget(1)
            .spill_dir(tmp_dir())
            .on_torn(TornPolicy::Salvage(report))
            .convert_to_path(TraceSource::InMemory(&clog), &dst)
            .unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), want);
    }

    /// A large two-rank log (~`per_rank` drawables each) that overflows
    /// a 64 KiB sorter budget, forcing real spill runs.
    fn bulk_clog(per_rank: usize) -> Clog2File {
        let mut loggers: Vec<Logger> = (0..2).map(Logger::new).collect();
        let mut ids = Vec::new();
        for lg in &mut loggers {
            let s = lg.define_state("work", Color::GREEN);
            if ids.is_empty() {
                ids = vec![s.0, s.1];
            }
        }
        for (r, lg) in loggers.iter_mut().enumerate() {
            for k in 0..per_rank {
                let t = r as f64 * 0.0001 + k as f64 * 0.001;
                lg.log_event(t, ids[0], "");
                lg.log_event(t + 0.0005, ids[1], "");
            }
        }
        let mut blocks = std::collections::BTreeMap::new();
        for (r, lg) in loggers.iter().enumerate() {
            blocks.insert(r as u32, lg.records().to_vec());
        }
        Clog2File {
            nranks: 2,
            state_defs: loggers[0].state_defs().to_vec(),
            event_defs: loggers[0].event_defs().to_vec(),
            blocks,
        }
    }

    #[test]
    fn out_of_core_bulk_spill_matches_in_memory() {
        let clog = bulk_clog(2_000);
        let want = in_memory_bytes(&clog, 1);
        let dst = tmp_dir().join("ooc-bulk.pslog2");
        // Budget 1 clamps to 64 KiB per sorter: 4k rows of ~45 bytes
        // overflow it, so both sorters take the spill-and-merge path.
        let summary = Converter::new()
            .parallelism(4)
            .memory_budget(1)
            .spill_dir(tmp_dir())
            .convert_to_path(TraceSource::InMemory(&clog), &dst)
            .unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), want);
        assert_eq!(summary.drawables, 4_000);
    }

    /// Equal Drawables counted across spilled key runs: 10⁴ groups of
    /// duplicates on a quantized clock overflow the 64 KiB key sorter
    /// many times over, yet the warnings match the in-memory count in
    /// content and order.
    #[test]
    fn equal_drawables_across_spill_runs_match_in_memory() {
        let groups = 10_000;
        let mut lg = Logger::new(0);
        let (s, e) = lg.define_state("tick", Color::GREEN);
        for k in 0..groups {
            // A 1 µs grid; each interval is logged twice, and every
            // third once more.
            let t = k as f64 * 1e-6;
            for _ in 0..2 + usize::from(k % 3 == 0) {
                lg.log_event(t, s, "");
                lg.log_event(t + 5e-7, e, "");
            }
        }
        let clog = Clog2File {
            nranks: 1,
            state_defs: lg.state_defs().to_vec(),
            event_defs: Vec::new(),
            blocks: [(0u32, lg.records().to_vec())].into(),
        };
        let want = Converter::new()
            .parallelism(2)
            .convert(TraceSource::InMemory(&clog))
            .unwrap();
        let equal = |w: &[ConvertWarning]| {
            w.iter()
                .filter(|w| matches!(w, ConvertWarning::EqualDrawables { .. }))
                .count()
        };
        assert_eq!(equal(&want.warnings), groups);
        let dst = tmp_dir().join("ooc-equal.pslog2");
        let summary = Converter::new()
            .parallelism(2)
            .memory_budget(1)
            .spill_dir(tmp_dir())
            .convert_to_path(TraceSource::InMemory(&clog), &dst)
            .unwrap();
        assert_eq!(summary.warnings, want.warnings);
        assert_eq!(std::fs::read(&dst).unwrap(), want.file.to_bytes());
    }

    #[test]
    fn out_of_core_empty_log_matches() {
        let clog = Clog2File {
            nranks: 2,
            state_defs: Vec::new(),
            event_defs: Vec::new(),
            blocks: std::collections::BTreeMap::new(),
        };
        let want = in_memory_bytes(&clog, 1);
        let dst = tmp_dir().join("ooc-empty.pslog2");
        let summary = Converter::new()
            .spill_dir(tmp_dir())
            .convert_to_path(TraceSource::InMemory(&clog), &dst)
            .unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), want);
        assert_eq!(summary.drawables, 0);
    }

    #[test]
    fn deep_tree_falls_back_to_in_memory() {
        let clog = messy_clog(2);
        let want = Converter::new()
            .max_depth(40)
            .parallelism(1)
            .convert(TraceSource::InMemory(&clog))
            .unwrap()
            .file
            .to_bytes();
        let dst = tmp_dir().join("ooc-deep.pslog2");
        let summary = Converter::new()
            .max_depth(40)
            .parallelism(1)
            .convert_to_path(TraceSource::InMemory(&clog), &dst)
            .unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), want);
        assert_eq!(summary.digest, fnv1a(FNV_SEED, &want));
    }

    #[test]
    fn ext_sorter_spills_and_merges_sorted() {
        let mut s = ExtSorter::new(1, Some(&tmp_dir()), "unit");
        // Budget is clamped to 64 KiB; push enough to force several runs.
        let mut want = Vec::new();
        for i in 0..20_000u32 {
            let key = (i.wrapping_mul(2_654_435_761)) ^ 0x5a5a;
            let rec: EqualKey = (key % 7, key, i, u64::from(key) << 20, u64::from(i));
            want.push(rec);
            s.push(rec).unwrap();
        }
        want.sort_unstable();
        let mut it = s.into_sorted().unwrap();
        let mut got = Vec::new();
        while let Some(r) = it.next_rec().unwrap() {
            got.push(r);
        }
        assert_eq!(got, want);
    }
}
