//! The sharded CLOG2 scan phase: chunked block scanning with a
//! carry-stack stitch.
//!
//! The old scan sharded by *rank block*, which degenerates at small rank
//! counts (6 ranks cap the parallelism at 6, and the largest block
//! dominates the critical path). This module instead splits every block
//! into fixed-size record chunks and lets workers *steal* chunks from a
//! shared queue, so the load balances regardless of how skewed the
//! per-rank record counts are.
//!
//! Chunking a block breaks the one piece of cross-record state the scan
//! keeps: the open-state stack. A chunk therefore records, instead of
//! resolving, the two boundary cases —
//!
//! * a state-end with no matching open in the chunk becomes a
//!   [`PendingEnd`], and
//! * states still open when the chunk ends are exported bottom-to-top as
//!   leftover [`OpenState`]s.
//!
//! The per-rank **stitch** then walks the chunks in order, maintaining
//! the carry stack of open states flowing across chunk boundaries.
//! Because a chunk's local stack always sits *above* the carry, a local
//! match in the chunk is exactly the match the serial scan would have
//! found (searching top-down), and its true nest level is the local
//! position plus the carry depth at that record — which the stitch
//! applies with [`DrawableColumns::bump_nest`]. A pending end searches
//! the carry top-down, which is exactly the serial search continuing
//! below the (empty of matches) local stack. The result is
//! byte-identical to the serial single-stack scan at every chunk size
//! and worker count; the converter's determinism proptests pin this.
//!
//! The chunk size is a fixed constant — never derived from the worker
//! count — so the chunk decomposition, and therefore every intermediate
//! structure, is identical at every parallelism setting by construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use mpelog::clog2::ImageBlock;
use mpelog::ids::EventId;
use mpelog::record::{EventDef, Record, RecordView, StateDef};
use mpelog::Color;

use crate::columnar::{DrawableColumns, KIND_STATE};
use crate::convert::ConvertWarning;
use crate::drawable::{Category, CategoryKind};
use crate::id::{CategoryId, TimelineId};

/// Records per scan chunk. Fixed (not worker-derived) so the chunk
/// decomposition is identical at every parallelism setting.
pub(crate) const CHUNK_RECORDS: usize = 16_384;

/// Message-queue key: `(src, dst, tag, size)`, mirroring MPE's matching
/// on communicating pair + tag + data length.
pub(crate) type MsgKey = (u32, u32, u32, u32);

pub(crate) enum IdRole {
    StateStart(CategoryId),
    StateEnd(CategoryId),
    Solo(CategoryId),
}

/// The category list plus the event-id → role index shared by every
/// scan worker (read-only during the scan phase).
pub(crate) struct CategoryTable {
    pub(crate) categories: Vec<Category>,
    pub(crate) roles: HashMap<u32, IdRole>,
    pub(crate) arrow_cat: CategoryId,
}

/// Categories from the definitions, plus the synthetic arrow category
/// ("message") the converter introduces.
pub(crate) fn build_categories(state_defs: &[StateDef], event_defs: &[EventDef]) -> CategoryTable {
    let mut categories = Vec::new();
    let mut roles: HashMap<u32, IdRole> = HashMap::new();
    for d in state_defs {
        let idx = CategoryId(categories.len() as u32);
        categories.push(Category {
            index: idx,
            name: d.name.clone(),
            color: d.color,
            kind: CategoryKind::State,
        });
        roles.insert(d.start.0, IdRole::StateStart(idx));
        roles.insert(d.end.0, IdRole::StateEnd(idx));
    }
    for d in event_defs {
        let idx = CategoryId(categories.len() as u32);
        categories.push(Category {
            index: idx,
            name: d.name.clone(),
            color: d.color,
            kind: CategoryKind::Event,
        });
        roles.insert(d.id.0, IdRole::Solo(idx));
    }
    let arrow_cat = CategoryId(categories.len() as u32);
    categories.push(Category {
        index: arrow_cat,
        name: "message".into(),
        color: Color::WHITE,
        kind: CategoryKind::Arrow,
    });
    CategoryTable {
        categories,
        roles,
        arrow_cat,
    }
}

/// A state open at a chunk boundary: `(category, start, start text)`.
struct OpenState {
    cat: CategoryId,
    start: f64,
    text: String,
}

/// A state-end the chunk could not match locally; resolved against the
/// carry stack at stitch time.
struct PendingEnd {
    cat: CategoryId,
    id: EventId,
    ts: f64,
    text: String,
}

/// Ordering token: the stitch walks these to interleave local rows,
/// local warnings, and pending-end resolutions exactly as the serial
/// scan would have emitted them. Indices are implicit (each kind is
/// consumed sequentially).
enum ScanItem {
    Draw,
    Warn,
    Pend,
}

/// One chunk's scan output.
pub(crate) struct ChunkScan {
    items: Vec<ScanItem>,
    cols: DrawableColumns,
    warns: Vec<ConvertWarning>,
    pends: Vec<PendingEnd>,
    /// Local stack left open at chunk end, bottom to top.
    opens: Vec<OpenState>,
    sends: Vec<(MsgKey, f64)>,
    recvs: Vec<(MsgKey, f64)>,
    ts_min: f64,
    ts_max: f64,
    n_records: u64,
}

/// Scan one chunk of records. Pure and independent of every other
/// chunk — this is the unit of work the stealing workers run.
fn scan_chunk<'a>(
    rank: u32,
    recs: impl Iterator<Item = RecordView<'a>>,
    table: &CategoryTable,
) -> ChunkScan {
    let mut c = ChunkScan {
        items: Vec::new(),
        cols: DrawableColumns::new(),
        warns: Vec::new(),
        pends: Vec::new(),
        opens: Vec::new(),
        sends: Vec::new(),
        recvs: Vec::new(),
        ts_min: f64::INFINITY,
        ts_max: f64::NEG_INFINITY,
        n_records: 0,
    };
    let mut stack: Vec<OpenState> = Vec::new();
    for rec in recs {
        c.n_records += 1;
        c.ts_min = c.ts_min.min(rec.ts());
        c.ts_max = c.ts_max.max(rec.ts());
        match rec {
            RecordView::Event { ts, id, text } => match table.roles.get(&id.0) {
                Some(IdRole::StateStart(cat)) => stack.push(OpenState {
                    cat: *cat,
                    start: ts,
                    text: text.to_string(),
                }),
                Some(IdRole::StateEnd(cat)) => {
                    // Normally the innermost open state matches; be
                    // tolerant of interleaving by searching downward.
                    match stack.iter().rposition(|o| o.cat == *cat) {
                        Some(pos) => {
                            let open = stack.remove(pos);
                            let nest = pos as u32;
                            let mut txt = open.text;
                            if !text.is_empty() {
                                if !txt.is_empty() {
                                    txt.push_str(" | ");
                                }
                                txt.push_str(text);
                            }
                            let (mut start, mut end) = (open.start, ts);
                            if end < start {
                                c.warns.push(ConvertWarning::BackwardState {
                                    rank,
                                    name: table.categories[cat.as_usize()].name.clone(),
                                    end,
                                    start,
                                });
                                c.items.push(ScanItem::Warn);
                                std::mem::swap(&mut start, &mut end);
                            }
                            c.cols
                                .push_state(*cat, TimelineId(rank), start, end, nest, &txt);
                            c.items.push(ScanItem::Draw);
                        }
                        None => {
                            c.pends.push(PendingEnd {
                                cat: *cat,
                                id,
                                ts,
                                text: text.to_string(),
                            });
                            c.items.push(ScanItem::Pend);
                        }
                    }
                }
                Some(IdRole::Solo(cat)) => {
                    c.cols.push_event(*cat, TimelineId(rank), ts, text);
                    c.items.push(ScanItem::Draw);
                }
                None => {
                    c.warns.push(ConvertWarning::UnknownEventId { rank, id });
                    c.items.push(ScanItem::Warn);
                }
            },
            RecordView::Send { ts, dst, tag, size } => c.sends.push(((rank, dst, tag, size), ts)),
            RecordView::Recv { ts, src, tag, size } => c.recvs.push(((src, rank, tag, size), ts)),
        }
    }
    c.opens = stack;
    c
}

/// One rank's fully stitched scan output: drawables in the serial
/// scan's order, warnings likewise, and the send/recv records sorted by
/// key (stable, so each key's timestamps keep their FIFO record order).
pub(crate) struct RankScan {
    pub(crate) rank: u32,
    pub(crate) n_records: u64,
    /// The rank's earliest and latest record timestamps (`±inf` when it
    /// has no records).
    pub(crate) ts_min: f64,
    pub(crate) ts_max: f64,
    pub(crate) cols: DrawableColumns,
    pub(crate) warnings: Vec<ConvertWarning>,
    pub(crate) sends: Vec<(MsgKey, f64)>,
    pub(crate) recvs: Vec<(MsgKey, f64)>,
}

impl RankScan {
    /// An empty pseudo-shard (used by the salvage converter for its
    /// terminal drawables).
    pub(crate) fn empty(rank: u32) -> RankScan {
        RankScan {
            rank,
            n_records: 0,
            ts_min: f64::INFINITY,
            ts_max: f64::NEG_INFINITY,
            cols: DrawableColumns::new(),
            warnings: Vec::new(),
            sends: Vec::new(),
            recvs: Vec::new(),
        }
    }
}

/// Stitch one rank's chunk scans (in chunk order) into the serial-scan
/// result, flowing the carry stack of open states across boundaries.
fn stitch_rank(rank: u32, chunks: Vec<ChunkScan>, table: &CategoryTable) -> RankScan {
    let mut out = RankScan::empty(rank);
    let mut carry: Vec<OpenState> = Vec::new();

    let single_clean = chunks.len() == 1 && chunks[0].pends.is_empty();
    if single_clean {
        // Fast path: one chunk and nothing pending means the chunk's
        // local scan *is* the serial scan (the carry never forms).
        let c = chunks.into_iter().next().expect("one chunk");
        out.cols = c.cols;
        out.warnings = c.warns;
        out.sends = c.sends;
        out.recvs = c.recvs;
        out.n_records = c.n_records;
        (out.ts_min, out.ts_max) = (c.ts_min, c.ts_max);
        carry = c.opens;
    } else {
        for c in chunks {
            let ChunkScan {
                items,
                mut cols,
                warns,
                pends,
                opens,
                sends,
                recvs,
                ts_min,
                ts_max,
                n_records,
            } = c;
            let mut warn_it = warns.into_iter();
            let mut pend_it = pends.into_iter();
            let mut draw_cursor = 0usize;
            for item in items {
                match item {
                    ScanItem::Draw => {
                        let i = draw_cursor;
                        draw_cursor += 1;
                        // A local state's nest level was measured against
                        // the chunk-local stack; lift it by the carry
                        // depth at this record to the serial value.
                        if !carry.is_empty() && cols.kind(i) == KIND_STATE {
                            cols.bump_nest(i, carry.len() as u32);
                        }
                        out.cols.push_row(&cols, i);
                    }
                    ScanItem::Warn => out
                        .warnings
                        .push(warn_it.next().expect("warn item has a warning")),
                    ScanItem::Pend => {
                        let p = pend_it.next().expect("pend item has a pending end");
                        match carry.iter().rposition(|o| o.cat == p.cat) {
                            Some(pos) => {
                                let open = carry.remove(pos);
                                let nest = pos as u32;
                                let mut txt = open.text;
                                if !p.text.is_empty() {
                                    if !txt.is_empty() {
                                        txt.push_str(" | ");
                                    }
                                    txt.push_str(&p.text);
                                }
                                let (mut start, mut end) = (open.start, p.ts);
                                if end < start {
                                    out.warnings.push(ConvertWarning::BackwardState {
                                        rank,
                                        name: table.categories[p.cat.as_usize()].name.clone(),
                                        end,
                                        start,
                                    });
                                    std::mem::swap(&mut start, &mut end);
                                }
                                out.cols.push_state(
                                    p.cat,
                                    TimelineId(rank),
                                    start,
                                    end,
                                    nest,
                                    &txt,
                                );
                            }
                            None => out.warnings.push(ConvertWarning::UnmatchedEnd {
                                rank,
                                id: p.id,
                                ts: p.ts,
                            }),
                        }
                    }
                }
            }
            carry.extend(opens);
            out.sends.extend(sends);
            out.recvs.extend(recvs);
            out.ts_min = out.ts_min.min(ts_min);
            out.ts_max = out.ts_max.max(ts_max);
            out.n_records += n_records;
        }
    }

    // Non well-behaved: states still open at end of log. Close them at
    // the block's last timestamp, innermost first, exactly as the
    // serial scan drains its stack.
    for open in carry.into_iter().rev() {
        let name = table.categories[open.cat.as_usize()].name.clone();
        out.warnings.push(ConvertWarning::UnclosedState {
            rank,
            name,
            start: open.start,
        });
        out.cols.push_state(
            open.cat,
            TimelineId(rank),
            open.start,
            out.ts_max.max(open.start),
            0,
            &open.text,
        );
    }

    // Key-sort the message records. The sort is stable, so within a key
    // the timestamps keep their record order — the FIFO queue the
    // matcher expects.
    out.sends.sort_by_key(|&(k, _)| k);
    out.recvs.sort_by_key(|&(k, _)| k);
    out
}

/// A scannable block: either decoded records or a zero-copy byte image
/// (pre-chunked and pre-validated by the image parse).
pub(crate) enum BlockInput<'a> {
    Records(u32, &'a [Record]),
    Image(&'a ImageBlock<'a>),
}

impl BlockInput<'_> {
    fn rank(&self) -> u32 {
        match self {
            BlockInput::Records(rank, _) => *rank,
            BlockInput::Image(b) => b.rank,
        }
    }

    fn n_chunks(&self) -> usize {
        match self {
            BlockInput::Records(_, recs) => recs.len().div_ceil(CHUNK_RECORDS).max(1),
            BlockInput::Image(b) => b.chunks.len().max(1),
        }
    }

    fn scan_chunk(&self, ci: usize, table: &CategoryTable) -> ChunkScan {
        match self {
            BlockInput::Records(rank, recs) => {
                let lo = ci * CHUNK_RECORDS;
                let hi = (lo + CHUNK_RECORDS).min(recs.len());
                scan_chunk(*rank, recs[lo..hi].iter().map(RecordView::from), table)
            }
            BlockInput::Image(b) => match b.chunks.get(ci) {
                Some(ch) => scan_chunk(b.rank, ch.views(), table),
                None => scan_chunk(b.rank, std::iter::empty(), table),
            },
        }
    }
}

/// Attribute one rank's scan metrics to its shard. Every record is
/// scanned exactly once at any parallelism setting, so the merged
/// `convert.*` totals are thread-count independent.
fn note_rank_scan(obs: &obs::Obs, scan: &RankScan) {
    let s = obs.shard(scan.rank as usize);
    s.counter("convert.records_scanned").add(scan.n_records);
    s.counter("convert.drawables.state")
        .add(scan.cols.n_states());
    s.counter("convert.drawables.event")
        .add(scan.cols.n_events());
    s.counter("convert.warnings")
        .add(scan.warnings.len() as u64);
    s.histogram("convert.block_records").record(scan.n_records);
}

/// A stitch work item: one rank's scanned chunks, taken by whichever
/// worker claims the slot.
type StitchTask = std::sync::Mutex<Option<(u32, Vec<ChunkScan>)>>;

/// Scan a set of blocks, work-stealing fixed-size chunks across up to
/// `workers` scoped threads, then stitch per rank (also stolen).
/// Outputs come back in input block order regardless of which thread
/// ran what.
pub(crate) fn scan_sources(
    blocks: &[BlockInput<'_>],
    table: &CategoryTable,
    workers: usize,
    obs: Option<&obs::Obs>,
) -> Vec<RankScan> {
    // Flatten to (block, chunk) work units.
    let mut units: Vec<(usize, usize)> = Vec::new();
    let mut block_chunks: Vec<usize> = Vec::with_capacity(blocks.len());
    for (bi, b) in blocks.iter().enumerate() {
        let n = b.n_chunks();
        block_chunks.push(n);
        for ci in 0..n {
            units.push((bi, ci));
        }
    }

    let workers = workers.min(units.len().max(1));
    let mut chunk_scans: Vec<Option<ChunkScan>> = units.iter().map(|_| None).collect();
    if workers <= 1 {
        for (slot, &(bi, ci)) in units.iter().enumerate() {
            chunk_scans[slot] = Some(blocks[bi].scan_chunk(ci, table));
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let next = &next;
                    let units = &units;
                    s.spawn(move || {
                        let _span = obs.map(|o| o.span("scan.shard", "convert", w as u32));
                        let mut done: Vec<(usize, ChunkScan)> = Vec::new();
                        loop {
                            let u = next.fetch_add(1, Ordering::Relaxed);
                            if u >= units.len() {
                                break;
                            }
                            let (bi, ci) = units[u];
                            done.push((u, blocks[bi].scan_chunk(ci, table)));
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                for (u, cs) in h.join().expect("scan worker panicked") {
                    chunk_scans[u] = Some(cs);
                }
            }
        });
    }

    // Group chunk scans back per block (units were emitted block-major,
    // so each block's chunks are contiguous) and stitch.
    let mut per_block: Vec<Vec<ChunkScan>> = Vec::with_capacity(blocks.len());
    let mut it = chunk_scans.into_iter();
    for &n in &block_chunks {
        per_block.push(
            (0..n)
                .map(|_| it.next().flatten().expect("chunk scanned"))
                .collect(),
        );
    }

    let stitch_workers = workers.min(per_block.len().max(1));
    let scans: Vec<RankScan> = if stitch_workers <= 1 {
        blocks
            .iter()
            .zip(per_block)
            .map(|(b, chunks)| stitch_rank(b.rank(), chunks, table))
            .collect()
    } else {
        let tasks: Vec<StitchTask> = blocks
            .iter()
            .zip(per_block)
            .map(|(b, chunks)| std::sync::Mutex::new(Some((b.rank(), chunks))))
            .collect();
        let mut out: Vec<Option<RankScan>> = (0..tasks.len()).map(|_| None).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..stitch_workers)
                .map(|_| {
                    let next = &next;
                    let tasks = &tasks;
                    s.spawn(move || {
                        let mut done: Vec<(usize, RankScan)> = Vec::new();
                        loop {
                            let u = next.fetch_add(1, Ordering::Relaxed);
                            if u >= tasks.len() {
                                break;
                            }
                            let (rank, chunks) = tasks[u]
                                .lock()
                                .expect("stitch task lock")
                                .take()
                                .expect("stitch task present");
                            done.push((u, stitch_rank(rank, chunks, table)));
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                for (u, scan) in h.join().expect("stitch worker panicked") {
                    out[u] = Some(scan);
                }
            }
        });
        out.into_iter()
            .map(|s| s.expect("every block stitched"))
            .collect()
    };

    if let Some(o) = obs {
        for scan in &scans {
            note_rank_scan(o, scan);
        }
    }
    scans
}
