//! Out-of-core conversion: write an SLOG2 file under a memory budget.
//!
//! [`Converter::convert_to_path`] converts a trace whose drawables do
//! not fit in RAM. It shares the in-memory converter's front end, arrow
//! matcher, Equal-Drawables count and encoder; only the frame tree is
//! built differently. The tree never materializes: drawable rows spill
//! to temporary files as ranks are scanned, the tree *shape* is
//! computed from a streaming pass over the rows' keys, and the final
//! SLOG2 image is written once, front to back, from runs of payloads
//! grouped by node. Output bytes are identical to
//! `Converter::convert(..).file.to_bytes()` at every parallelism
//! setting and memory budget — the determinism proptests pin this.
//!
//! ## The three passes
//!
//! 1. **Scan + spill.** The front end scans one rank block at a time
//!    and each rank's rows are appended as one *segment* to two
//!    streams: a fixed-width 32-byte key `[start, end, cat, duration,
//!    payload length]` per row, and the payloads — each row's exact
//!    `Drawable::encode` bytes. A segment is one write per stream,
//!    built off the resident columns. Per-rank send/recv lists,
//!    warnings, and per-segment time extrema stay resident (they are
//!    tiny next to the drawables). Arrow rows append as the final
//!    segment after matching. Equal-Drawables keys stream into an
//!    external sorter.
//! 2. **Shape.** A pass over the keys alone counts each row once, at
//!    the deepest *potential* tree node it reaches (nodes are addressed
//!    by heap-style path id), then folds the counts into ancestors,
//!    largest id first. That yields every node's *reach*: how many rows
//!    would reach it if every ancestor split. Since a row's descent
//!    path depends only on the fixed `[t0, t1]` range, reach counts
//!    determine the realized tree exactly: a node splits iff its reach
//!    exceeds the capacity (and the depth/zero-width/empty-children
//!    guards pass) — the same predicate the in-memory recursion
//!    evaluates on its item list.
//! 3. **Place + write.** A second pass reads keys and payloads together
//!    and walks each row down the realized tree (a preorder table: a
//!    left child is `pre + 1`, a right child is stored), accumulating
//!    node previews *in row order* (float summation order is what makes
//!    previews bit-identical) and each node's payload bytes. Payloads
//!    park in a run buffer of half the budget; a full run is
//!    counting-sorted by node — stably, so rows keep their sequence
//!    order within a node — and spilled. Every node's size is then
//!    known, so the header and the whole node directory go out first,
//!    followed by each node's frame, its rows gathered from every run in
//!    run order, and its preview: one sequential write, digested as it
//!    goes.
//!
//! The reach map and per-node previews and sizes are the only tree state
//! held in memory — `O(nodes)`, not `O(drawables)`. Path ids cap the tree
//! depth at 32 (a 10^9-node shape bound no real file approaches); a
//! converter configured deeper falls back to the in-memory build.

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
use crate::file::{encode_frame, encode_preview, preview_bytes, Header, FRAME_BYTES};
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

/// Below this many bytes a run's bookkeeping dominates: the key
/// sorter's budget and the placement run buffer both clamp up to it.
const MIN_RUN_BYTES: usize = 64 << 10;

/// Fill `buf`, or report a clean end of input.
fn read_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match r.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn le_f64(b: &[u8]) -> f64 {
    f64::from_bits(le_u64(b))
}

/// On-disk width of an Equal-Drawables key: three `u32`s, two `u64`s.
const EQ_KEY_BYTES: usize = 3 * 4 + 2 * 8;

fn encode_eq_key(&(cat, tl, tl2, t0, t1): &EqualKey) -> [u8; EQ_KEY_BYTES] {
    let mut b = [0u8; EQ_KEY_BYTES];
    b[0..4].copy_from_slice(&cat.to_le_bytes());
    b[4..8].copy_from_slice(&tl.to_le_bytes());
    b[8..12].copy_from_slice(&tl2.to_le_bytes());
    b[12..20].copy_from_slice(&t0.to_le_bytes());
    b[20..28].copy_from_slice(&t1.to_le_bytes());
    b
}

/// A spilled run's next Equal-Drawables key; `None` at its end.
fn read_eq_key(r: &mut impl Read) -> io::Result<Option<EqualKey>> {
    let mut b = [0u8; EQ_KEY_BYTES];
    if !read_or_eof(r, &mut b)? {
        return Ok(None);
    }
    Ok(Some((
        le_u32(&b[0..]),
        le_u32(&b[4..]),
        le_u32(&b[8..]),
        le_u64(&b[12..]),
        le_u64(&b[20..]),
    )))
}

/// A reader over one spilled run.
type RunReader = BufReader<io::Take<File>>;

/// Sorted runs spilled back to back into one temp file, created on the
/// first spill and read back run by run.
struct RunFile {
    dir: Option<PathBuf>,
    tag: &'static str,
    file: Option<(BufWriter<File>, TempFile)>,
    /// Byte ranges of the spilled runs, in run order.
    runs: Vec<(u64, u64)>,
}

impl RunFile {
    fn new(dir: Option<&Path>, tag: &'static str) -> RunFile {
        RunFile {
            dir: dir.map(Path::to_path_buf),
            tag,
            file: None,
            runs: Vec::new(),
        }
    }

    /// Append one run; `write` returns how many bytes it wrote.
    fn spill(
        &mut self,
        write: impl FnOnce(&mut BufWriter<File>) -> io::Result<u64>,
    ) -> io::Result<()> {
        if self.file.is_none() {
            let tf = TempFile::create(self.dir.as_deref(), self.tag)?;
            let f = File::create(&tf.path)?;
            self.file = Some((BufWriter::with_capacity(1 << 16, f), tf));
        }
        let w = &mut self.file.as_mut().expect("run file open").0;
        let start = self.runs.last().map_or(0, |r| r.1);
        let len = write(w)?;
        self.runs.push((start, start + len));
        Ok(())
    }

    /// Flush, and open a reader on every run, in run order. The file is
    /// read back in this process and deleted with the returned guard,
    /// so flushing is all it needs — not a sync to disk.
    fn readers(&mut self) -> io::Result<(Vec<RunReader>, Option<TempFile>)> {
        let Some((w, tf)) = self.file.take() else {
            return Ok((Vec::new(), None));
        };
        drop(w.into_inner().map_err(io::Error::other)?);
        let mut readers = Vec::with_capacity(self.runs.len());
        for &(start, end) in &self.runs {
            let mut f = File::open(&tf.path)?;
            f.seek(SeekFrom::Start(start))?;
            readers.push(BufReader::new(f.take(end - start)));
        }
        Ok((readers, Some(tf)))
    }
}

/// An external sorter over Equal-Drawables keys: buffers up to a
/// budget's worth of keys, spills sorted runs, and k-way merges the
/// runs on drain. With an unbounded budget it never spills — the
/// in-memory converter's case.
pub(crate) struct ExtSorter {
    keys: Vec<EqualKey>,
    /// Keys held before a run spills.
    max_keys: usize,
    runs: RunFile,
}

impl ExtSorter {
    fn new(budget: usize, spill_dir: Option<&Path>, tag: &'static str) -> ExtSorter {
        ExtSorter {
            keys: Vec::new(),
            max_keys: budget.max(MIN_RUN_BYTES) / std::mem::size_of::<EqualKey>(),
            runs: RunFile::new(spill_dir, tag),
        }
    }

    /// A sorter that never spills.
    pub(crate) fn in_memory() -> ExtSorter {
        ExtSorter::new(usize::MAX, None, "mem")
    }

    pub(crate) fn push(&mut self, key: EqualKey) -> io::Result<()> {
        self.keys.push(key);
        if self.keys.len() > self.max_keys {
            self.spill_run()?;
        }
        Ok(())
    }

    fn spill_run(&mut self) -> io::Result<()> {
        if self.keys.is_empty() {
            return Ok(());
        }
        self.keys.sort_unstable();
        let keys = &mut self.keys;
        self.runs.spill(|w| {
            let len = (keys.len() * EQ_KEY_BYTES) as u64;
            for key in keys.drain(..) {
                w.write_all(&encode_eq_key(&key))?;
            }
            Ok(len)
        })
    }

    /// Drain everything in sorted order.
    pub(crate) fn into_sorted(mut self) -> io::Result<SortedIter> {
        if self.runs.runs.is_empty() {
            self.keys.sort_unstable();
            return Ok(SortedIter::Mem(self.keys.into_iter()));
        }
        self.spill_run()?;
        let (mut readers, guard) = self.runs.readers()?;
        let mut heap = BinaryHeap::new();
        for (i, r) in readers.iter_mut().enumerate() {
            if let Some(key) = read_eq_key(r)? {
                heap.push(std::cmp::Reverse((key, i)));
            }
        }
        Ok(SortedIter::Merge {
            heap,
            readers,
            _guard: guard,
        })
    }
}

pub(crate) enum SortedIter {
    Mem(std::vec::IntoIter<EqualKey>),
    Merge {
        heap: BinaryHeap<std::cmp::Reverse<(EqualKey, usize)>>,
        readers: Vec<RunReader>,
        _guard: Option<TempFile>,
    },
}

impl SortedIter {
    pub(crate) fn next_rec(&mut self) -> io::Result<Option<EqualKey>> {
        match self {
            SortedIter::Mem(it) => Ok(it.next()),
            SortedIter::Merge { heap, readers, .. } => {
                let Some(std::cmp::Reverse((key, i))) = heap.pop() else {
                    return Ok(None);
                };
                if let Some(next) = read_eq_key(&mut readers[i])? {
                    heap.push(std::cmp::Reverse((next, i)));
                }
                Ok(Some(key))
            }
        }
    }

    /// How many spilled runs the drain merges (0 when it never spilled).
    pub(crate) fn runs(&self) -> usize {
        match self {
            SortedIter::Mem(_) => 0,
            SortedIter::Merge { readers, .. } => readers.len(),
        }
    }
}

/// An append-only spill file.
struct SpillStream {
    file: File,
    guard: TempFile,
    len: u64,
}

impl SpillStream {
    fn create(dir: Option<&Path>, tag: &str) -> io::Result<SpillStream> {
        let guard = TempFile::create(dir, tag)?;
        Ok(SpillStream {
            file: File::create(&guard.path)?,
            guard,
            len: 0,
        })
    }

    /// Append `bytes` in one write; returns where they start.
    fn append(&mut self, bytes: &[u8]) -> io::Result<u64> {
        let at = self.len;
        self.file.write_all(bytes)?;
        self.len += bytes.len() as u64;
        Ok(at)
    }

    fn open(&self) -> io::Result<File> {
        File::open(&self.guard.path)
    }
}

/// A row's key record: everything the shape and place passes need
/// besides the payload.
#[derive(Clone, Copy)]
struct Key {
    start: f64,
    end: f64,
    cat: u32,
    dur: f64,
    /// Length of the row's payload in the payload stream.
    len: u32,
}

/// On-disk width of a [`Key`].
const KEY_BYTES: usize = 8 + 8 + 4 + 8 + 4;

impl Key {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.start.to_le_bytes());
        buf.extend_from_slice(&self.end.to_le_bytes());
        buf.extend_from_slice(&self.cat.to_le_bytes());
        buf.extend_from_slice(&self.dur.to_le_bytes());
        buf.extend_from_slice(&self.len.to_le_bytes());
    }

    fn get(rec: &[u8]) -> Key {
        Key {
            start: le_f64(&rec[0..]),
            end: le_f64(&rec[8..]),
            cat: le_u32(&rec[16..]),
            dur: le_f64(&rec[20..]),
            len: le_u32(&rec[28..]),
        }
    }
}

/// One shard's rows in the spill streams. `order` ranks segments into
/// the global row sequence: `(0, rank)` for scan output (the salvage
/// terminal shard is rank `u32::MAX`), `(1, 0)` for arrows — the same
/// rank-ascending-then-arrows order the in-memory merge uses.
struct Segment {
    order: (u8, u32),
    key_start: u64,
    payload_start: u64,
    rows: u64,
    /// Min row start / max row end, folded in row order.
    t0: f64,
    t1: f64,
}

/// Pass A's output: a key stream and a payload stream, appended one
/// segment at a time.
struct RowSpill {
    keys: SpillStream,
    payloads: SpillStream,
    segments: Vec<Segment>,
    rows: u64,
}

impl RowSpill {
    fn create(dir: Option<&Path>) -> io::Result<RowSpill> {
        Ok(RowSpill {
            keys: SpillStream::create(dir, "keys")?,
            payloads: SpillStream::create(dir, "payloads")?,
            segments: Vec::new(),
            rows: 0,
        })
    }

    /// Spill one shard's rows as a segment, feeding Equal-Drawables keys
    /// to `eq` along the way. Both buffers are built off the resident
    /// columns, so they double nothing out of proportion.
    fn spill_shard(
        &mut self,
        order: (u8, u32),
        cols: &DrawableColumns,
        eq: &mut ExtSorter,
    ) -> io::Result<()> {
        let n = cols.len();
        let mut keys = Vec::with_capacity(n * KEY_BYTES);
        let mut payloads = Writer::with_capacity(n * 32);
        let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in 0..n {
            let (start, end) = (cols.start(i), cols.end(i));
            t0 = t0.min(start);
            t1 = t1.max(end);
            eq.push(cols.equal_key(i))?;
            let at = payloads.len();
            cols.encode(i, &mut payloads);
            Key {
                start,
                end,
                cat: cols.category(i).0,
                dur: cols.duration(i),
                len: (payloads.len() - at) as u32,
            }
            .put(&mut keys);
        }
        let key_start = self.keys.append(&keys)?;
        let payload_start = self.payloads.append(&payloads.into_bytes())?;
        self.rows += n as u64;
        self.segments.push(Segment {
            order,
            key_start,
            payload_start,
            rows: n as u64,
            t0,
            t1,
        });
        Ok(())
    }

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
}

/// Keys read per chunk by the shape and place passes.
const KEY_CHUNK: usize = 2048 * KEY_BYTES;

/// Stream `seg`'s keys from `keys` in row order, a chunk at a time
/// through the reused `buf`.
fn read_keys(
    keys: &mut File,
    seg: &Segment,
    buf: &mut [u8],
    mut f: impl FnMut(Key) -> io::Result<()>,
) -> io::Result<()> {
    keys.seek(SeekFrom::Start(seg.key_start))?;
    let mut left = seg.rows as usize * KEY_BYTES;
    while left > 0 {
        let n = left.min(buf.len());
        keys.read_exact(&mut buf[..n])?;
        for rec in buf[..n].chunks_exact(KEY_BYTES) {
            f(Key::get(rec))?;
        }
        left -= n;
    }
    Ok(())
}

/// The deepest potential node a row reaches: the path id where its
/// descent stops if every node on the way splits.
fn stop_node(row_start: f64, row_end: f64, t0: f64, t1: f64, max_depth: u32) -> u64 {
    let (mut id, mut a, mut b) = (1u64, t0, t1);
    for _ in 0..max_depth {
        if b <= a {
            break;
        }
        let mid = a + (b - a) / 2.0;
        if row_end <= mid {
            id <<= 1;
            b = mid;
        } else if row_start >= mid {
            id = id << 1 | 1;
            a = mid;
        } else {
            break;
        }
    }
    id
}

/// Reach counts from stop-node counts: a node's reach is the number of
/// rows stopping in its subtree. Ids fold largest first, so a node is
/// complete before it adds into its parent; a parent no row stopped at
/// is created on the way and folds in its turn.
fn fold_reach(mut reach: HashMap<u64, u64, FnvBuild>) -> HashMap<u64, u64, FnvBuild> {
    let mut pending: BinaryHeap<u64> = reach.keys().copied().collect();
    while let Some(id) = pending.pop() {
        if id == 1 {
            continue;
        }
        let n = reach[&id];
        *reach.entry(id >> 1).or_insert_with(|| {
            pending.push(id >> 1);
            0
        }) += n;
    }
    reach
}

/// One realized tree node, preorder. A split node's left child is the
/// next node; `right` is its right child's preorder index.
struct NodeMeta {
    t0: f64,
    t1: f64,
    depth: u32,
    split: bool,
    items: u64,
    right: u32,
}

/// Realize the tree shape from reach counts, in preorder.
fn realize_tree(
    reach: &HashMap<u64, u64, FnvBuild>,
    t0: f64,
    t1: f64,
    capacity: u64,
    max_depth: u32,
) -> Vec<NodeMeta> {
    let count = |id: u64| reach.get(&id).copied().unwrap_or(0);
    let mut nodes: Vec<NodeMeta> = Vec::new();
    // Explicit stack, preorder: push right before left so left pops
    // first (matching the recursion's self → left → right order). A
    // right child carries its parent, which learns its index on pop.
    let mut stack = vec![(1u64, t0, t1, 0u32, None::<usize>)];
    while let Some((id, a, b, depth, parent)) = stack.pop() {
        let pre = nodes.len();
        if let Some(p) = parent {
            nodes[p].right = pre as u32;
        }
        let (n, l, r) = (count(id), count(id << 1), count(id << 1 | 1));
        // The same predicate the in-memory recursion evaluates: items
        // over capacity, depth available, splittable interval, and the
        // split actually moves something down.
        let split = n > capacity && depth < max_depth && b > a && (l + r) > 0;
        nodes.push(NodeMeta {
            t0: a,
            t1: b,
            depth,
            split,
            items: if split { n - l - r } else { n },
            right: 0,
        });
        if split {
            let mid = a + (b - a) / 2.0;
            stack.push((id << 1 | 1, mid, b, depth + 1, Some(pre)));
            stack.push((id << 1, a, mid, depth + 1, None));
        }
    }
    nodes
}

/// A row parked in the run buffer: its owning node and its payload's
/// place in the arena.
#[derive(Debug, Clone, Copy)]
struct Parked {
    node: u32,
    len: u32,
    off: usize,
}

/// Resident cost of one parked row: its entry plus its counting-sort
/// slot.
const PARKED_BYTES: usize = std::mem::size_of::<Parked>() + std::mem::size_of::<u32>();

/// Placement runs: payloads parked by owning node until the write. The
/// buffer is reserved once; each full run is counting-sorted by node
/// and spilled as `[node u32][len u32][payload]` records, and the last
/// run stays resident.
struct RunBuffer {
    arena: Vec<u8>,
    parked: Vec<Parked>,
    /// `parked` indices grouped by node (stable counting sort).
    order: Vec<u32>,
    /// Per-node bucket cursors for the counting sort.
    starts: Vec<usize>,
    arena_cap: usize,
    parked_cap: usize,
    runs: RunFile,
}

impl RunBuffer {
    /// A buffer for `rows` payloads totalling `payload_bytes`, holding
    /// at most `budget` bytes: one run if everything fits, else arena
    /// and entries split the budget in proportion to the input.
    fn new(
        budget: usize,
        spill_dir: Option<&Path>,
        rows: u64,
        payload_bytes: u64,
        nodes: usize,
    ) -> RunBuffer {
        let budget = budget.max(MIN_RUN_BYTES) as u128;
        let (rows, payload_bytes) = (u128::from(rows), u128::from(payload_bytes));
        let need = payload_bytes + rows * PARKED_BYTES as u128;
        let (arena_cap, parked_cap) = if need <= budget {
            (payload_bytes, rows)
        } else {
            let arena = budget * payload_bytes / need;
            (arena, (budget - arena) / PARKED_BYTES as u128)
        };
        // Counting-sort indices are `u32`.
        let parked_cap = parked_cap.clamp(1, u128::from(u32::MAX)) as usize;
        let arena_cap = arena_cap as usize;
        RunBuffer {
            arena: Vec::with_capacity(arena_cap),
            parked: Vec::with_capacity(parked_cap),
            order: Vec::with_capacity(parked_cap),
            starts: vec![0; nodes + 1],
            arena_cap,
            parked_cap,
            runs: RunFile::new(spill_dir, "runs"),
        }
    }

    /// Park the next `len` payload bytes of `src` under `node`. A row
    /// larger than the whole arena still parks, alone in its run.
    fn push(&mut self, node: u32, len: usize, src: &mut impl Read) -> io::Result<()> {
        let full = self.arena.len() + len > self.arena_cap || self.parked.len() == self.parked_cap;
        if full && !self.parked.is_empty() {
            self.spill_run()?;
        }
        let off = self.arena.len();
        self.arena.resize(off + len, 0);
        src.read_exact(&mut self.arena[off..])?;
        self.parked.push(Parked {
            node,
            len: len as u32,
            off,
        });
        Ok(())
    }

    /// Group the parked rows by node into `order`, keeping row order
    /// within each node.
    fn sort_run(&mut self) {
        self.starts.fill(0);
        for p in &self.parked {
            self.starts[p.node as usize + 1] += 1;
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        self.order.clear();
        self.order.resize(self.parked.len(), 0);
        for (i, p) in self.parked.iter().enumerate() {
            let slot = &mut self.starts[p.node as usize];
            self.order[*slot] = i as u32;
            *slot += 1;
        }
    }

    fn spill_run(&mut self) -> io::Result<()> {
        self.sort_run();
        let (order, parked, arena) = (&self.order, &self.parked, &self.arena);
        self.runs.spill(|w| {
            let mut len = 0;
            for &i in order {
                let p = parked[i as usize];
                w.write_all(&p.node.to_le_bytes())?;
                w.write_all(&p.len.to_le_bytes())?;
                w.write_all(&arena[p.off..p.off + p.len as usize])?;
                len += 8 + u64::from(p.len);
            }
            Ok(len)
        })?;
        self.arena.clear();
        self.parked.clear();
        Ok(())
    }

    /// Sort the resident run and open every spilled run for reading.
    fn into_gather(mut self) -> io::Result<Gather> {
        self.sort_run();
        let (readers, guard) = self.runs.readers()?;
        let mut spilled = Vec::with_capacity(readers.len());
        for mut r in readers {
            let next = read_run_header(&mut r)?;
            spilled.push(SpilledRun { r, next });
        }
        Ok(Gather {
            spilled,
            resident: self,
            pos: 0,
            scratch: Vec::new(),
            _guard: guard,
        })
    }
}

/// A spilled run's next `(node, payload length)` header; `None` at its
/// end.
fn read_run_header(r: &mut impl Read) -> io::Result<Option<(u32, u32)>> {
    let mut b = [0u8; 8];
    if !read_or_eof(r, &mut b)? {
        return Ok(None);
    }
    Ok(Some((le_u32(&b[0..]), le_u32(&b[4..]))))
}

struct SpilledRun {
    r: RunReader,
    next: Option<(u32, u32)>,
}

/// The write side of the placement runs: hands out each node's rows,
/// node by node in preorder, from every run in run order — spilled runs
/// first, the resident run last. Every read is sequential.
struct Gather {
    spilled: Vec<SpilledRun>,
    resident: RunBuffer,
    /// Next position in the resident run's `order`.
    pos: usize,
    /// Reused payload buffer for spilled rows.
    scratch: Vec<u8>,
    _guard: Option<TempFile>,
}

impl Gather {
    /// Hand node `node`'s rows to `put`, in sequence order; returns how
    /// many there were.
    fn node(
        &mut self,
        node: u32,
        put: &mut impl FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<u64> {
        let mut n = 0;
        for run in &mut self.spilled {
            while let Some((_, len)) = run.next.filter(|&(at, _)| at == node) {
                self.scratch.resize(len as usize, 0);
                run.r.read_exact(&mut self.scratch)?;
                put(&self.scratch)?;
                run.next = read_run_header(&mut run.r)?;
                n += 1;
            }
        }
        let res = &self.resident;
        while let Some(p) = res.order.get(self.pos).map(|&i| res.parked[i as usize]) {
            if p.node != node {
                break;
            }
            put(&res.arena[p.off..p.off + p.len as usize])?;
            self.pos += 1;
            n += 1;
        }
        Ok(n)
    }

    /// Did every parked row get written?
    fn drained(&self) -> bool {
        self.spilled.iter().all(|run| run.next.is_none()) && self.pos == self.resident.order.len()
    }
}

/// The output file, with the FNV-1a digest and byte count folded into
/// the write.
struct DigestOut {
    w: BufWriter<File>,
    digest: u64,
    written: u64,
}

impl DigestOut {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.digest = fnv1a(self.digest, bytes);
        self.written += bytes.len() as u64;
        self.w.write_all(bytes)
    }
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

    // ---- Pass A: scan ranks, spill keys and payloads per segment. ----
    let mut rows = RowSpill::create(spill_dir)?;
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
    let key_runs = {
        let _span = obs.map(|o| o.span("diagnose", "convert", 0));
        let sorted = eq.into_sorted()?;
        let runs = sorted.runs();
        report_equal_drawables(sorted, &table.categories, &mut warnings)?;
        runs
    };
    note_totals(obs, acols.n_arrows(), warnings.len() - scan_warnings);

    let _tree_span = obs.map(|o| o.span("tree-build", "convert", 0));
    rows.segments.sort_by_key(|s| s.order);
    let (t0, t1) = rows.range();
    let capacity = conv.frame_capacity.max(1);
    let mut key_buf = vec![0u8; KEY_CHUNK];

    // ---- Pass B: reach counts from the keys → realized tree shape. ----
    let nodes = {
        let _span = obs.map(|o| o.span("shape", "convert", 0));
        let mut stops: HashMap<u64, u64, FnvBuild> = HashMap::default();
        let mut keys = rows.keys.open()?;
        for seg in &rows.segments {
            read_keys(&mut keys, seg, &mut key_buf, |k| {
                let id = stop_node(k.start, k.end, t0, t1, conv.max_depth);
                *stops.entry(id).or_insert(0) += 1;
                Ok(())
            })?;
        }
        let reach = fold_reach(stops);
        realize_tree(&reach, t0, t1, capacity as u64, conv.max_depth)
    };

    // ---- Pass C: previews in row order; payloads parked by node. ----
    // A row contributes to the preview of every *realized* node on its
    // path (root down to the node that keeps it) — never to the
    // potential nodes below a leaf, which the in-memory recursion never
    // creates. Rows stream in global sequence order, so each node's
    // preview accumulates its items in exactly the order the in-memory
    // build adds them (per-node f64 sums are bit-identical).
    let mut previews: Vec<Preview> = vec![Preview::default(); nodes.len()];
    let mut node_bytes = vec![0u64; nodes.len()];
    let mut gather = {
        let _span = obs.map(|o| o.span("place", "convert", 0));
        let payload_bytes = rows.payloads.len;
        let mut runs = RunBuffer::new(budget / 2, spill_dir, rows.rows, payload_bytes, nodes.len());
        let mut keys = rows.keys.open()?;
        let mut payloads = BufReader::with_capacity(1 << 16, rows.payloads.open()?);
        for seg in &rows.segments {
            payloads.seek(SeekFrom::Start(seg.payload_start))?;
            read_keys(&mut keys, seg, &mut key_buf, |k| {
                let mut pre = 0;
                loop {
                    previews[pre].add(CategoryId(k.cat), k.dur);
                    let node = &nodes[pre];
                    if !node.split {
                        break;
                    }
                    let mid = node.t0 + (node.t1 - node.t0) / 2.0;
                    if k.end <= mid {
                        pre += 1;
                    } else if k.start >= mid {
                        pre = node.right as usize;
                    } else {
                        break;
                    }
                }
                node_bytes[pre] += u64::from(k.len);
                runs.push(pre as u32, k.len as usize, &mut payloads)
            })?;
        }
        runs.into_gather()?
    };
    if let Some(o) = obs {
        let s = o.shard(0);
        s.counter("convert.oocore.key_runs").add(key_runs as u64);
        s.counter("convert.oocore.row_runs")
            .add(gather.spilled.len() as u64);
    }

    // ---- Write the file: header and directory, then every node. ----
    let _span = obs.map(|o| o.span("write", "convert", 0));
    let warning_text: Vec<String> = warnings.iter().map(ToString::to_string).collect();
    let mut header = Writer::with_capacity(4096 + nodes.len() * 8);
    let dir_start = Header {
        capacity,
        max_depth: conv.max_depth,
        range: TimeWindow::new(t0, t1),
        timelines: &conv.timelines(nranks),
        categories: &table.categories,
        warnings: &warning_text,
        n_nodes: nodes.len(),
    }
    .encode(&mut header);
    let mut planned = header.len() as u64;
    for (pre, bytes) in node_bytes.iter().enumerate() {
        header.patch_u64(dir_start + pre * 8, planned);
        planned += FRAME_BYTES + bytes + preview_bytes(&previews[pre]);
    }
    let mut out = DigestOut {
        w: BufWriter::with_capacity(1 << 16, File::create(dst)?),
        digest: FNV_SEED,
        written: 0,
    };
    out.put(&header.into_bytes())?;
    for (pre, node) in nodes.iter().enumerate() {
        let mut w = Writer::with_capacity(FRAME_BYTES as usize);
        encode_frame(
            &mut w,
            node.t0,
            node.t1,
            node.depth,
            node.split,
            node.items as usize,
        );
        out.put(&w.into_bytes())?;
        // The reach arithmetic guarantees each node's row count equals
        // its item count — check rather than trust.
        if gather.node(pre as u32, &mut |b| out.put(b))? != node.items {
            return Err(StreamError::Io(io::Error::other(
                "node row count differs from its reach count",
            )));
        }
        let mut w = Writer::with_capacity(preview_bytes(&previews[pre]) as usize);
        encode_preview(&mut w, &previews[pre]);
        out.put(&w.into_bytes())?;
    }
    if !gather.drained() {
        return Err(StreamError::Io(io::Error::other(
            "row placed outside its node",
        )));
    }
    out.w.flush()?;
    if out.written != planned {
        return Err(StreamError::Io(io::Error::other(format!(
            "wrote {} bytes, planned {planned}",
            out.written
        ))));
    }

    Ok(ConvertSummary {
        drawables: rows.rows,
        nodes: nodes.len() as u64,
        warnings,
        bytes_written: out.written,
        digest: out.digest,
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

    /// The per-level reach count: every node a row passes on its way
    /// down the potential tree, one hash update per level — the oracle
    /// for stop-node counting.
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

    #[test]
    fn stop_node_reach_equals_per_level_counts() {
        // On [0, 64] every midpoint is a multiple of 1/4 down to depth
        // 8, so quarter-grid rows land exactly on midpoints: zero-width
        // rows sitting on one, rows ending or starting at one, and rows
        // straddling one. A lone deep row leaves its ancestors with no
        // row stopping at them — the fold must create them.
        let mut rows = vec![
            (32.0, 32.0),
            (16.0, 32.0),
            (32.0, 48.0),
            (0.0, 64.0),
            (31.0, 33.0),
            (0.25, 0.25),
            (63.75, 64.0),
            (5.0, 5.5),
        ];
        let mut x = 0x2545_f491_u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let start = ((x >> 33) % 257) as f64 / 4.0;
            let width = [0.0, 0.25, 0.5, 1.0, 4.0, 16.0][((x >> 20) % 6) as usize];
            rows.push((start.min(64.0), (start + width).min(64.0)));
        }
        for (t0, t1, max_depth) in [
            (0.0, 64.0, 12),
            (0.0, 64.0, 3),
            (0.0, 64.0, 0),
            (7.0, 7.0, 8),
        ] {
            for n in [1, 2, rows.len()] {
                let mut want: HashMap<u64, u64, FnvBuild> = HashMap::default();
                let mut stops: HashMap<u64, u64, FnvBuild> = HashMap::default();
                for &(a, b) in &rows[..n] {
                    walk_potential(a, b, t0, t1, max_depth, |id| {
                        *want.entry(id).or_insert(0) += 1;
                    });
                    *stops.entry(stop_node(a, b, t0, t1, max_depth)).or_insert(0) += 1;
                }
                assert_eq!(
                    fold_reach(stops),
                    want,
                    "range [{t0}, {t1}], depth {max_depth}, {n} rows"
                );
            }
        }
    }

    #[test]
    fn placement_runs_keep_sequence_order_within_nodes() {
        // 12k rows scattered over 7 nodes; each payload is the row's
        // sequence number. The clamped 64 KiB run buffer spills several
        // runs and keeps the last resident; gathering node by node must
        // give every node its rows in ascending sequence order.
        let (rows, nodes) = (12_000u32, 7usize);
        let node_of = |seq: u32| (seq.wrapping_mul(2_654_435_761) >> 7) % nodes as u32;
        let mut runs = RunBuffer::new(1, Some(&tmp_dir()), rows.into(), 4 * u64::from(rows), nodes);
        for seq in 0..rows {
            runs.push(node_of(seq), 4, &mut &seq.to_le_bytes()[..])
                .unwrap();
        }
        let mut gather = runs.into_gather().unwrap();
        assert!(gather.spilled.len() >= 3, "{} runs", gather.spilled.len());
        for node in 0..nodes as u32 {
            let mut got = Vec::new();
            let n = gather
                .node(node, &mut |b| {
                    got.push(le_u32(b));
                    Ok(())
                })
                .unwrap();
            let want: Vec<u32> = (0..rows).filter(|&s| node_of(s) == node).collect();
            assert_eq!(n, want.len() as u64);
            assert_eq!(got, want, "node {node}");
        }
        assert!(gather.drained());
    }

    #[test]
    fn tree_build_splits_into_shape_place_write_spans() {
        let clog = messy_clog(3);
        let o = obs::Obs::handle();
        let dst = tmp_dir().join("ooc-spans.pslog2");
        Converter::new()
            .parallelism(2)
            .memory_budget(1)
            .spill_dir(tmp_dir())
            .observability(o.clone())
            .convert_to_path(TraceSource::InMemory(&clog), &dst)
            .unwrap();
        let events = o.tracer.events();
        let span = |name: &str| {
            let mut it = events.iter().filter(|e| e.name == name);
            let e = it.next().unwrap_or_else(|| panic!("no {name} span"));
            assert!(it.next().is_none(), "one {name} span");
            assert_eq!(e.tid, 0, "{name} on tid 0");
            (e.ts_us, e.ts_us + e.dur_us)
        };
        // Each pass nests in tree-build and starts after the one before
        // ends; truncating start and duration to µs can move an end by
        // up to 2 µs.
        let tree = span("tree-build");
        let mut at = tree.0;
        for name in ["shape", "place", "write"] {
            let (start, end) = span(name);
            assert!(
                start + 2 >= at && start >= tree.0 && end <= tree.1 + 2,
                "{name} {start}..{end} after {at} in {tree:?}"
            );
            at = end;
        }
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
