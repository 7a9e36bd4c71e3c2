//! Corrupted (not just truncated) CLOG2 through every reader: bit
//! flips, inflated count fields, and splices of two valid images. The
//! parse loop (strict and tolerant, image and owned) and the converter
//! on `TraceSource::Bytes` (strict and salvage) must never panic, and a
//! tolerant parse must return a record-aligned prefix. A header that
//! claims more than `MAX_RANKS` ranks gets a typed error from the
//! converter.

use std::sync::OnceLock;

use mpelog::clog2::StreamError;
use mpelog::wire::{Reader, WireError};
use mpelog::{Clog2File, Clog2Image, Color, Logger, Record, RecordView};
use proptest::prelude::*;
use slog2::{Converter, SalvageReport, TornPolicy, TraceSource, MAX_RANKS};

/// A log of `lens.len()` ranks where rank `r` logs `lens[r]` records:
/// nested states, solo events, and sends and receives around a ring.
fn log(lens: &[usize], names: (&str, &str)) -> Clog2File {
    let n = lens.len();
    let mut loggers: Vec<Logger> = (0..n).map(Logger::new).collect();
    let mut ids = Vec::new();
    for lg in &mut loggers {
        let (a, b) = lg.define_state(names.0, Color::GREEN);
        let (c, d) = lg.define_state(names.1, Color::RED);
        let e = lg.define_event("mark", Color::YELLOW);
        ids = vec![a, b, c, d, e];
    }
    for (r, lg) in loggers.iter_mut().enumerate() {
        let mut t = r as f64;
        while lg.records().len() + 6 <= lens[r] {
            t += 1e-3;
            lg.log_event(t, ids[0], "Line: 1");
            lg.log_event(t + 1e-4, ids[2], "");
            lg.log_send(t + 2e-4, (r + 1) % n, 7, 64);
            lg.log_receive(t + 3e-4, (r + n - 1) % n, 7, 64);
            lg.log_event(t + 4e-4, ids[3], "");
            lg.log_event(t + 5e-4, ids[1], "done");
        }
        while lg.records().len() < lens[r] {
            lg.log_event(t + 9e-4, ids[4], "tail");
        }
    }
    Clog2File {
        nranks: n as u32,
        state_defs: loggers[0].state_defs().to_vec(),
        event_defs: loggers[0].event_defs().to_vec(),
        blocks: loggers
            .iter()
            .enumerate()
            .map(|(r, lg)| (r as u32, lg.records().to_vec()))
            .collect(),
    }
}

/// Two valid images: one whose rank 0 logs more than 16,384 records,
/// and a small one with other definitions.
fn images() -> &'static [Vec<u8>; 2] {
    static IMAGES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    IMAGES.get_or_init(|| {
        [
            log(&[17_000, 240, 120], ("compute", "io")).to_bytes(),
            log(&[90, 60], ("PI_Read", "PI_Write")).to_bytes(),
        ]
    })
}

/// Offsets of the big image's count fields: ranks, state and event
/// definitions, blocks, and each block's records.
fn count_offsets() -> &'static [usize] {
    static OFFSETS: OnceLock<Vec<usize>> = OnceLock::new();
    OFFSETS.get_or_init(|| {
        let bytes = &images()[0];
        let file = Clog2File::from_bytes(bytes).unwrap();
        // Without events or blocks the header ends with the event
        // count and the block count.
        let defs_only = Clog2File {
            event_defs: Vec::new(),
            blocks: Default::default(),
            ..file.clone()
        };
        let mut offsets = vec![8, 12, defs_only.to_bytes().len() - 8];
        let image = Clog2File::parse_image(bytes).unwrap();
        for (i, block) in image.blocks.iter().enumerate() {
            let data = offset_in(bytes, block.data);
            if i == 0 {
                offsets.push(data - 12);
            }
            offsets.push(data - 4);
        }
        offsets
    })
}

/// Where `part`, a sub-slice of `whole`, starts.
fn offset_in(whole: &[u8], part: &[u8]) -> usize {
    part.as_ptr() as usize - whole.as_ptr() as usize
}

/// Each block's rank and records, in block order.
fn records<'a>(image: &Clog2Image<'a>) -> Vec<(u32, Vec<RecordView<'a>>)> {
    image
        .blocks
        .iter()
        .map(|b| (b.rank, b.views().collect()))
        .collect()
}

/// Feed `bytes` to every reader; none may panic.
fn check(bytes: &[u8]) {
    let strict = Clog2File::parse_image(bytes);
    let salvaged = Clog2File::salvage_image(bytes);
    // One parse loop: the strict parse accepts exactly what the
    // tolerant one reads to the end.
    assert_eq!(strict.is_ok(), !salvaged.truncated);
    if let Ok(image) = &strict {
        assert_eq!(records(image), records(&salvaged.file));
    }

    // The salvaged blocks are a record-aligned prefix: in file order,
    // inside the recovered bytes, each slice holding exactly its
    // records.
    assert!(salvaged.bytes_recovered <= bytes.len());
    let mut end = 0;
    let mut total = 0;
    for block in salvaged.file.blocks.iter().filter(|b| b.n_records > 0) {
        let start = offset_in(bytes, block.data);
        assert!(start >= end, "blocks overlap");
        end = start + block.data.len();
        assert!(end <= salvaged.bytes_recovered);
        let mut r = Reader::new(block.data);
        for _ in 0..block.n_records {
            Record::decode_view(&mut r).expect("salvaged records decode");
        }
        assert_eq!(
            r.remaining(),
            0,
            "block {} has bytes past its records",
            block.rank
        );
        total += block.n_records as usize;
    }
    assert_eq!(total, salvaged.records_recovered);

    let owned = Clog2File::salvage_bytes(bytes);
    assert_eq!(owned.records_recovered, salvaged.records_recovered);
    assert_eq!(Clog2File::from_bytes(bytes).is_ok(), strict.is_ok());

    let conv = Converter::new().parallelism(2);
    let converted = conv.convert(TraceSource::Bytes(bytes));
    let salvaging = conv
        .on_torn(TornPolicy::Salvage(SalvageReport::default()))
        .convert(TraceSource::Bytes(bytes));
    if salvaged.file.nranks > MAX_RANKS {
        // Strict conversion stops at the first defect, the claim or an
        // earlier one; salvage reads up to the claim and refuses it.
        assert!(converted.is_err());
        assert!(matches!(
            salvaging,
            Err(StreamError::Wire(WireError::Corrupt(_)))
        ));
        return;
    }
    assert_eq!(converted.is_ok(), strict.is_ok());
    let c = salvaging.expect("salvaging a byte image of at most MAX_RANKS ranks cannot fail");
    let report = c.salvage.expect("a salvaging conversion reports");
    assert_eq!(report.records_recovered, salvaged.records_recovered);
    assert_eq!(report.truncated, salvaged.truncated);
}

proptest! {
    #[test]
    fn bit_flipped_clog2_never_panics(
        flips in proptest::collection::vec((0f64..1.0, 0u32..8), 1..9),
        small in any::<bool>(),
    ) {
        let mut bytes = images()[usize::from(small)].clone();
        for (at, bit) in flips {
            let i = ((bytes.len() - 1) as f64 * at) as usize;
            bytes[i] ^= 1 << bit;
        }
        check(&bytes);
    }

    #[test]
    fn inflated_clog2_counts_never_panic(
        field in any::<usize>(),
        anywhere in 0f64..1.0,
        kind in 0u32..5,
        bump in 1u32..64,
    ) {
        let mut bytes = images()[0].clone();
        // A known count field, or any four bytes.
        let offsets = count_offsets();
        let at = match field % (offsets.len() + 1) {
            i if i < offsets.len() => offsets[i],
            _ => ((bytes.len() - 4) as f64 * anywhere) as usize,
        };
        let old = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let new = match kind {
            0 => u32::MAX,
            1 => 1 << 31,
            2 => bytes.len() as u32,
            3 => bytes.len() as u32 / 17 + bump,
            _ => old.saturating_add(bump),
        };
        bytes[at..at + 4].copy_from_slice(&new.to_le_bytes());
        check(&bytes);
    }

    #[test]
    fn spliced_clog2_images_never_panic(
        a in 0f64..1.0,
        b in 0f64..1.0,
        big_first in any::<bool>(),
    ) {
        let [big, small] = images();
        let (head, tail) = if big_first { (big, small) } else { (small, big) };
        let cut = |bytes: &Vec<u8>, at: f64| (bytes.len() as f64 * at) as usize;
        let bytes = [&head[..cut(head, a)], &tail[cut(tail, b)..]].concat();
        check(&bytes);
    }
}

#[test]
fn the_big_image_has_a_block_over_16k_records() {
    let image = Clog2File::parse_image(&images()[0]).unwrap();
    assert!(image.blocks[0].n_records > 16_384);
    // The offsets are count fields: each reads back its count.
    let bytes = &images()[0];
    let read = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let offsets = count_offsets();
    assert_eq!(read(offsets[0]), image.nranks);
    assert_eq!(read(offsets[1]) as usize, image.state_defs.len());
    assert_eq!(read(offsets[2]) as usize, image.event_defs.len());
    assert_eq!(read(offsets[3]) as usize, image.blocks.len());
    for (i, block) in image.blocks.iter().enumerate() {
        assert_eq!(read(offsets[4 + i]), block.n_records);
    }
}
