//! Synthetic CLOG2 traces for benchmarks and stress tests.
//!
//! The generator produces the kind of log the paper's thumbnail
//! pipeline writes — alternating read/write states with matched
//! messages between neighbouring ranks — at whatever scale a benchmark
//! needs, without running a Pilot program. Two shapes:
//!
//! * [`synthetic_clog`] materializes the whole log in memory, for
//!   workloads that fit.
//! * [`SyntheticClogReader`] streams the *identical* byte image through
//!   `io::Read` while holding only one batch of records at a time, so
//!   the out-of-core scale harness can write a 10⁷–10⁸-drawable input
//!   file without the generator itself blowing the memory budget.

use std::io::Read;
use std::ops::Range;

use mpelog::wire::Writer;
use mpelog::{Clog2File, Color, EventId, Logger};

/// The event-id handles every rank defines, in the same order (the MPE
/// requirement), so ids are identical across ranks.
struct TraceIds {
    w_s: EventId,
    w_e: EventId,
    r_s: EventId,
    r_e: EventId,
    arrival: EventId,
}

fn define_trace(lg: &mut Logger) -> TraceIds {
    let (w_s, w_e) = lg.define_state("PI_Write", Color::GREEN);
    let (r_s, r_e) = lg.define_state("PI_Read", Color::RED);
    let arrival = lg.define_event("msg arrival", Color::YELLOW);
    TraceIds {
        w_s,
        w_e,
        r_s,
        r_e,
        arrival,
    }
}

/// Log rank `r`'s records for the given call range. Both the in-memory
/// generator and the streaming reader go through this one body, so the
/// two can never drift apart.
fn log_calls(lg: &mut Logger, ids: &TraceIds, r: usize, ranks: usize, calls: Range<usize>) {
    let dt = 1e-4;
    for i in calls {
        let t = i as f64 * dt * ranks as f64 + r as f64 * dt;
        if r.is_multiple_of(2) {
            lg.log_event(t, ids.w_s, "Line: 1");
            lg.log_send(t + dt * 0.3, (r + 1) % ranks, 1000 + r as u32, 8);
            lg.log_event(t + dt * 0.5, ids.w_e, "");
        } else {
            lg.log_event(t, ids.r_s, "Line: 2");
            lg.log_receive(
                t + dt * 0.4,
                (r + ranks - 1) % ranks,
                1000 + r as u32 - 1,
                8,
            );
            lg.log_event(t + dt * 0.4, ids.arrival, "Chan: C0");
            lg.log_event(t + dt * 0.5, ids.r_e, "");
        }
    }
}

/// Records rank `r` logs per call: even ranks write 3 (state open,
/// send, state close), odd ranks 4 (state open, receive, arrival
/// bubble, state close).
fn records_per_call(r: usize) -> usize {
    if r.is_multiple_of(2) {
        3
    } else {
        4
    }
}

/// Synthesize a plausible CLOG file: `ranks` timelines, each with
/// `calls` read/write state pairs plus matched messages.
///
/// Drawable budget (what the converter will emit): one state per rank
/// per call, one solo event per odd rank per call, and one arrow per
/// even-rank send per call — about `ranks * calls * 2` drawables
/// total, so `synthetic_clog(6, 12_000)` yields ≈144k drawables.
pub fn synthetic_clog(ranks: usize, calls: usize) -> Clog2File {
    let mut blocks = std::collections::BTreeMap::new();
    let mut defs: Option<(Vec<_>, Vec<_>)> = None;
    for r in 0..ranks {
        let mut lg = Logger::new(r);
        let ids = define_trace(&mut lg);
        log_calls(&mut lg, &ids, r, ranks, 0..calls);
        if defs.is_none() {
            defs = Some((lg.state_defs().to_vec(), lg.event_defs().to_vec()));
        }
        blocks.insert(r as u32, lg.records().to_vec());
    }
    let (state_defs, event_defs) = defs.unwrap();
    Clog2File {
        nranks: ranks as u32,
        state_defs,
        event_defs,
        blocks,
    }
}

/// Calls generated per refill of the streaming reader — the reader's
/// resident set is one batch of records plus their encoding.
const BATCH_CALLS: usize = 4096;

/// Streams the byte image of [`synthetic_clog`]`(ranks, calls)` through
/// `io::Read` without ever materializing the log: records are generated
/// and encoded one `BATCH_CALLS`-sized batch at a time.
///
/// The bytes are pinned identical to
/// `synthetic_clog(ranks, calls).to_bytes()` by test, so a benchmark
/// can copy the reader into a file bigger than RAM, convert it through
/// `TraceSource::mmap`, and compare digests against any other source.
pub struct SyntheticClogReader {
    ranks: usize,
    calls: usize,
    buf: Vec<u8>,
    pos: usize,
    header_done: bool,
    next_rank: usize,
    next_call: usize,
    current: Option<(Logger, TraceIds)>,
}

impl SyntheticClogReader {
    /// A reader over the synthetic trace with `ranks` timelines and
    /// `calls` state pairs per rank.
    pub fn new(ranks: usize, calls: usize) -> SyntheticClogReader {
        SyntheticClogReader {
            ranks,
            calls,
            buf: Vec::new(),
            pos: 0,
            header_done: false,
            next_rank: 0,
            next_call: 0,
            current: None,
        }
    }

    /// Produce the next chunk of the byte image into `self.buf`.
    /// Leaves the buffer empty when the stream is exhausted.
    fn refill(&mut self) {
        self.buf.clear();
        self.pos = 0;
        if !self.header_done {
            self.header_done = true;
            // Borrow the wire header (magic, rank count, definitions)
            // from Clog2File itself: encode a blockless file, then swap
            // its trailing `nblocks = 0` for the real block count. This
            // keeps the magic and definition encodings in one place.
            let mut scratch = Logger::new(0);
            define_trace(&mut scratch);
            let header = Clog2File {
                nranks: self.ranks as u32,
                state_defs: scratch.state_defs().to_vec(),
                event_defs: scratch.event_defs().to_vec(),
                blocks: std::collections::BTreeMap::new(),
            }
            .to_bytes();
            self.buf.extend_from_slice(&header[..header.len() - 4]);
            self.buf
                .extend_from_slice(&(self.ranks as u32).to_le_bytes());
            return;
        }
        if self.next_rank >= self.ranks {
            return; // exhausted
        }
        let r = self.next_rank;
        let mut w = Writer::new();
        if self.current.is_none() {
            let mut lg = Logger::new(r);
            let ids = define_trace(&mut lg);
            self.current = Some((lg, ids));
            w.put_u32(r as u32);
            w.put_u32((self.calls * records_per_call(r)) as u32);
        }
        let (lg, ids) = self.current.as_mut().expect("current rank open");
        let end = (self.next_call + BATCH_CALLS).min(self.calls);
        lg.clear();
        log_calls(lg, ids, r, self.ranks, self.next_call..end);
        for rec in lg.records() {
            rec.encode(&mut w);
        }
        self.next_call = end;
        if self.next_call >= self.calls {
            self.current = None;
            self.next_rank += 1;
            self.next_call = 0;
        }
        self.buf = w.into_bytes();
    }
}

impl Read for SyntheticClogReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.pos >= self.buf.len() {
            let before = (self.next_rank, self.header_done);
            self.refill();
            if self.buf.is_empty() && before == (self.next_rank, self.header_done) {
                return Ok(0); // no progress possible: end of stream
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_scales_and_roundtrips() {
        let clog = synthetic_clog(4, 50);
        assert_eq!(clog.nranks, 4);
        assert_eq!(clog.blocks.len(), 4);
        let back = Clog2File::from_bytes(&clog.to_bytes()).unwrap();
        assert_eq!(back, clog);
    }

    #[test]
    fn sends_and_receives_pair_up() {
        let clog = synthetic_clog(6, 10);
        let mut sends = 0usize;
        let mut recvs = 0usize;
        for records in clog.blocks.values() {
            for rec in records {
                match rec {
                    mpelog::Record::Send { .. } => sends += 1,
                    mpelog::Record::Recv { .. } => recvs += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(sends, 30);
        assert_eq!(recvs, 30);
    }

    #[test]
    fn streaming_reader_matches_in_memory_bytes() {
        for (ranks, calls) in [(1, 5), (3, 7), (4, 100), (6, BATCH_CALLS + 37)] {
            let want = synthetic_clog(ranks, calls).to_bytes();
            let mut got = Vec::new();
            SyntheticClogReader::new(ranks, calls)
                .read_to_end(&mut got)
                .unwrap();
            assert_eq!(got, want, "ranks={ranks} calls={calls}");
        }
    }

    #[test]
    fn streaming_reader_zero_calls_and_tiny_reads() {
        let want = synthetic_clog(3, 0).to_bytes();
        let mut rd = SyntheticClogReader::new(3, 0);
        let mut got = Vec::new();
        let mut chunk = [0u8; 7]; // odd size to cross every boundary
        loop {
            let n = rd.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(got, want);
        assert_eq!(rd.read(&mut chunk).unwrap(), 0, "EOF is sticky");
    }
}
