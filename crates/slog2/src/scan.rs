//! The CLOG2 scan phase: each rank block is scanned in one pass with one
//! open-state stack, and worker threads steal whole blocks.
//!
//! A block's state pairing touches only its own stack, and its send and
//! receive keys carry the rank, so blocks scan independently of each
//! other (DESIGN.md §5.10 (a)). Scans come back in block order whichever
//! thread ran them, so drawables and warnings keep the serial scan's
//! order at every worker count.
//!
//! The scan uses at most one thread per rank block: a log with fewer
//! blocks than workers leaves the rest idle during this phase.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use mpelog::clog2::ImageBlock;
use mpelog::record::{EventDef, Record, RecordView, StateDef};
use mpelog::Color;

use crate::columnar::DrawableColumns;
use crate::convert::ConvertWarning;
use crate::drawable::{Category, CategoryKind};
use crate::id::{CategoryId, TimelineId};

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

/// An open state on the scan's stack: its category, start time and
/// start text.
struct OpenState {
    cat: CategoryId,
    start: f64,
    text: String,
}

/// One rank's scan output: drawables and warnings in record order, and
/// the send/recv records sorted by key (stable, so each key's timestamps
/// keep their FIFO record order).
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
    /// An empty scan of `rank`: where a block scan starts, and the
    /// salvage converter's shard for its terminal drawables.
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

/// Scan one rank block in record order, pairing state ends with their
/// starts on one open-state stack.
fn scan_block<'a>(
    rank: u32,
    recs: impl Iterator<Item = RecordView<'a>>,
    table: &CategoryTable,
) -> RankScan {
    let mut out = RankScan::empty(rank);
    let mut stack: Vec<OpenState> = Vec::new();
    for rec in recs {
        out.n_records += 1;
        out.ts_min = out.ts_min.min(rec.ts());
        out.ts_max = out.ts_max.max(rec.ts());
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
                    let Some(pos) = stack.iter().rposition(|o| o.cat == *cat) else {
                        out.warnings
                            .push(ConvertWarning::UnmatchedEnd { rank, id, ts });
                        continue;
                    };
                    let open = stack.remove(pos);
                    let mut txt = open.text;
                    if !text.is_empty() {
                        if !txt.is_empty() {
                            txt.push_str(" | ");
                        }
                        txt.push_str(text);
                    }
                    let (mut start, mut end) = (open.start, ts);
                    if end < start {
                        out.warnings.push(ConvertWarning::BackwardState {
                            rank,
                            name: table.categories[cat.as_usize()].name.clone(),
                            end,
                            start,
                        });
                        std::mem::swap(&mut start, &mut end);
                    }
                    out.cols
                        .push_state(*cat, TimelineId(rank), start, end, pos as u32, &txt);
                }
                Some(IdRole::Solo(cat)) => out.cols.push_event(*cat, TimelineId(rank), ts, text),
                None => out
                    .warnings
                    .push(ConvertWarning::UnknownEventId { rank, id }),
            },
            RecordView::Send { ts, dst, tag, size } => out.sends.push(((rank, dst, tag, size), ts)),
            RecordView::Recv { ts, src, tag, size } => out.recvs.push(((src, rank, tag, size), ts)),
        }
    }

    // Non well-behaved: states still open at the end of the block. Close
    // them at the block's last timestamp, innermost first.
    for open in stack.into_iter().rev() {
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
/// (pre-validated by the image parse).
pub(crate) enum BlockInput<'a> {
    Records(u32, &'a [Record]),
    Image(&'a ImageBlock<'a>),
}

impl BlockInput<'_> {
    fn scan(&self, table: &CategoryTable) -> RankScan {
        match self {
            BlockInput::Records(rank, recs) => {
                scan_block(*rank, recs.iter().map(RecordView::from), table)
            }
            BlockInput::Image(b) => scan_block(b.rank, b.views(), table),
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

/// Scan `blocks`, work-stealing whole blocks across up to `workers`
/// scoped threads. Scans come back in input block order regardless of
/// which thread ran what.
pub(crate) fn scan_sources(
    blocks: &[BlockInput<'_>],
    table: &CategoryTable,
    workers: usize,
    obs: Option<&obs::Obs>,
) -> Vec<RankScan> {
    let workers = workers.min(blocks.len());
    let scans: Vec<RankScan> = if workers <= 1 {
        blocks.iter().map(|b| b.scan(table)).collect()
    } else {
        let mut out: Vec<Option<RankScan>> = blocks.iter().map(|_| None).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let next = &next;
                    s.spawn(move || {
                        let _span = obs.map(|o| o.span("scan.shard", "convert", w as u32));
                        let mut done: Vec<(usize, RankScan)> = Vec::new();
                        loop {
                            let b = next.fetch_add(1, Ordering::Relaxed);
                            let Some(block) = blocks.get(b) else { break };
                            done.push((b, block.scan(table)));
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                for (b, scan) in h.join().expect("scan worker panicked") {
                    out[b] = Some(scan);
                }
            }
        });
        out.into_iter()
            .map(|s| s.expect("every block scanned"))
            .collect()
    };

    if let Some(o) = obs {
        for scan in &scans {
            note_rank_scan(o, scan);
        }
    }
    scans
}
