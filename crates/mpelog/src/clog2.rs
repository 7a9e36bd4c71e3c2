//! The CLOG2-style merged logfile and the `MPE_Finish_log` wrap-up.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      8  b"PCLOG2\x00\x01"   (name + format version)
//! nranks     u32
//! nstatedefs u32, then StateDef...
//! neventdefs u32, then EventDef...
//! nblocks    u32
//! per block: rank u32, nrecords u32, then Record...
//! ```
//!
//! Blocks keep each rank's records in program order — the merge does
//! *not* interleave by time; that is the converter's job (and mirrors
//! real CLOG-2, which is also block-structured per rank).
//!
//! One parse loop reads these bytes: [`Clog2File::from_bytes`] and
//! [`Clog2File::parse_image`] run it strictly, and
//! [`Clog2File::salvage_image`] and [`Clog2File::salvage_bytes`] run it
//! tolerantly, keeping the record-aligned prefix before the first torn
//! or malformed item. The document ends with its last block: a strict
//! parse rejects trailing bytes, a tolerant one reports them as a tear.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

use minimpi::{MpiError, Rank};

use crate::logger::Logger;
use crate::record::{EventDef, Record, RecordView, StateDef};
use crate::wire::{Reader, WireError, Writer};

const MAGIC: &[u8; 8] = b"PCLOG2\x00\x01";

/// A CLOG2 container parsed as a *byte image*: the header is owned,
/// record payloads stay borrowed from the input buffer. Produced by
/// [`Clog2File::parse_image`] and [`Clog2File::salvage_image`]; blocks
/// are sorted by rank.
#[derive(Debug, Default)]
pub struct Clog2Image<'a> {
    /// World size recorded in the header.
    pub nranks: u32,
    /// State definitions from the header.
    pub state_defs: Vec<StateDef>,
    /// Solo-event definitions from the header.
    pub event_defs: Vec<EventDef>,
    /// Per-rank blocks, ascending by rank.
    pub blocks: Vec<ImageBlock<'a>>,
}

/// One rank's record block inside a [`Clog2Image`].
#[derive(Debug)]
pub struct ImageBlock<'a> {
    /// The rank that logged this block.
    pub rank: u32,
    /// Records in the block (the recovered prefix, for a salvaged image).
    pub n_records: u32,
    /// The block's `n_records` encoded records, already validated by
    /// the parse that produced the image.
    pub data: &'a [u8],
}

impl<'a> ImageBlock<'a> {
    /// The block's records as borrowed views.
    pub fn views(&self) -> impl Iterator<Item = RecordView<'a>> {
        let mut r = Reader::new(self.data);
        (0..self.n_records)
            .map(move |_| Record::decode_view(&mut r).expect("records validated at parse"))
    }
}

/// A parsed (or freshly merged) CLOG2 container.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Clog2File {
    /// World size of the run that produced the log.
    pub nranks: u32,
    /// State definitions (id pair, name, colour).
    pub state_defs: Vec<StateDef>,
    /// Solo-event definitions.
    pub event_defs: Vec<EventDef>,
    /// Per-rank record blocks, keyed by rank.
    pub blocks: BTreeMap<u32, Vec<Record>>,
}

impl Clog2File {
    /// Total record count across all blocks.
    pub fn total_records(&self) -> usize {
        self.blocks.values().map(Vec::len).sum()
    }

    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.total_records() * 24);
        w.put_bytes(MAGIC);
        w.put_u32(self.nranks);
        w.put_u32(self.state_defs.len() as u32);
        for d in &self.state_defs {
            d.encode(&mut w);
        }
        w.put_u32(self.event_defs.len() as u32);
        for d in &self.event_defs {
            d.encode(&mut w);
        }
        w.put_u32(self.blocks.len() as u32);
        for (rank, records) in &self.blocks {
            w.put_u32(*rank);
            w.put_u32(records.len() as u32);
            for r in records {
                r.encode(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Whether `bytes` begin with the CLOG2 magic — a cheap format
    /// sniff for upload endpoints that accept several wire formats.
    /// A `true` here promises nothing about the rest of the bytes.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC
    }

    /// The world size a CLOG2 image's header claims, read without
    /// parsing anything else; `None` if the bytes end first. Like
    /// [`Clog2File::sniff`], it promises nothing about the rest of the
    /// bytes.
    pub fn claimed_ranks(bytes: &[u8]) -> Option<u32> {
        Reader::new(bytes.get(MAGIC.len()..)?).get_u32().ok()
    }

    /// Parse from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Clog2File, WireError> {
        let (file, _, parsed) = parse_owned(bytes);
        parsed.map(|()| file)
    }

    /// Parse a CLOG2 byte image without materializing records: the
    /// header is decoded, each block's record payload is located (and
    /// structurally validated, including text UTF-8) but left in place
    /// as one borrowed slice per block.
    ///
    /// This is the zero-copy scan path for memory-mapped inputs: the
    /// converter decodes [`RecordView`]s straight out of each block,
    /// with no intermediate `Vec<Record>`.
    pub fn parse_image(bytes: &[u8]) -> Result<Clog2Image<'_>, WireError> {
        let (image, _, parsed) = parse_prefix(bytes, None);
        parsed.map(|()| image)
    }

    /// Tolerantly parse a possibly-truncated CLOG2 byte image: decode
    /// as far as the bytes allow, stop at the first torn item, and
    /// report what was recovered instead of erroring — the salvage
    /// policy of [`Clog2File::parse_image`], for logs cut short by a
    /// crash, a full disk, or a kill.
    ///
    /// Never panics on any input, and the recovered image is always a
    /// record-aligned prefix of what the untruncated bytes would parse
    /// to (per rank, in block order).
    pub fn salvage_image(bytes: &[u8]) -> Salvaged<Clog2Image<'_>> {
        let (image, at, parsed) = parse_prefix(bytes, None);
        at.salvaged(image, parsed)
    }

    /// [`Clog2File::salvage_image`], decoded into an owned log.
    pub fn salvage_bytes(bytes: &[u8]) -> SalvagedClog {
        let (file, at, parsed) = parse_owned(bytes);
        at.salvaged(file, parsed)
    }

    /// Write to a file.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read from a file. I/O and decode failures are both flattened
    /// into [`StreamError`], so callers get one error to match on.
    pub fn read_from(path: &Path) -> Result<Clog2File, StreamError> {
        Ok(Clog2File::from_bytes(&std::fs::read(path)?)?)
    }
}

/// How far a parse got: bytes and records up to the last fully decoded
/// item, and the rank whose block the parse was inside.
#[derive(Default)]
struct Progress {
    bytes: usize,
    records: usize,
    torn_rank: Option<u32>,
}

impl Progress {
    /// What a tolerant parse that got this far recovered.
    fn salvaged<T>(self, file: T, parsed: Result<(), WireError>) -> Salvaged<T> {
        Salvaged {
            file,
            bytes_recovered: self.bytes,
            records_recovered: self.records,
            truncated: parsed.is_err(),
            torn_rank: self.torn_rank,
        }
    }
}

/// The fewest bytes one encoded record takes (an event with empty text).
const MIN_RECORD_BYTES: usize = 17;

/// Run [`parse`] and sort whatever it decoded by rank.
fn parse_prefix<'a>(
    bytes: &'a [u8],
    owned: Option<&mut Vec<(u32, Vec<Record>)>>,
) -> (Clog2Image<'a>, Progress, Result<(), WireError>) {
    let mut image = Clog2Image::default();
    let mut at = Progress::default();
    let parsed = parse(bytes, &mut image, &mut at, owned);
    image.blocks.sort_by_key(|b| b.rank);
    (image, at, parsed)
}

/// [`parse_prefix`] into an owned log, each record decoded once.
fn parse_owned(bytes: &[u8]) -> (Clog2File, Progress, Result<(), WireError>) {
    let mut blocks = Vec::new();
    let (image, at, parsed) = parse_prefix(bytes, Some(&mut blocks));
    let file = Clog2File {
        nranks: image.nranks,
        state_defs: image.state_defs,
        event_defs: image.event_defs,
        blocks: blocks.into_iter().collect(),
    };
    (file, at, parsed)
}

/// The one CLOG2 parse loop behind [`Clog2File::from_bytes`],
/// [`Clog2File::parse_image`] and [`Clog2File::salvage_image`]. It fills
/// `image` item by item (and `owned`, if given, with every block's
/// records decoded) and advances `at` past every fully decoded item.
/// An `Err` stops it at the first torn or malformed item, or at bytes
/// trailing the last block, with `image` holding the record-aligned
/// prefix decoded so far: the strict callers discard it, salvage keeps
/// it.
fn parse<'a>(
    bytes: &'a [u8],
    image: &mut Clog2Image<'a>,
    at: &mut Progress,
    mut owned: Option<&mut Vec<(u32, Vec<Record>)>>,
) -> Result<(), WireError> {
    let count = |n: u32, what: &str| {
        let n = n as usize;
        if n > bytes.len() {
            return Err(WireError::Corrupt(what.into()));
        }
        Ok(n)
    };
    let mut r = Reader::new(bytes);
    let magic = r.get_bytes(8)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(format!("{magic:02x?}")));
    }
    image.nranks = r.get_u32()?;
    at.bytes = r.position();
    for _ in 0..count(r.get_u32()?, "state def count")? {
        image.state_defs.push(StateDef::decode(&mut r)?);
        at.bytes = r.position();
    }
    for _ in 0..count(r.get_u32()?, "event def count")? {
        image.event_defs.push(EventDef::decode(&mut r)?);
        at.bytes = r.position();
    }
    let mut seen = HashSet::new();
    for _ in 0..count(r.get_u32()?, "block count")? {
        let rank = r.get_u32()?;
        if !seen.insert(rank) {
            return Err(WireError::Corrupt(format!(
                "duplicate block for rank {rank}"
            )));
        }
        // From here on, a tear belongs to this rank's block.
        at.torn_rank = Some(rank);
        let nrec = count(r.get_u32()?, "record count")?;
        image.blocks.push(ImageBlock {
            rank,
            n_records: 0,
            data: &[],
        });
        let block = image.blocks.last_mut().expect("block just pushed");
        let mut records = owned.as_deref_mut().map(|o| {
            let cap = nrec.min(r.remaining() / MIN_RECORD_BYTES);
            o.push((rank, Vec::with_capacity(cap)));
            &mut o.last_mut().expect("block just pushed").1
        });
        let start = r.position();
        for _ in 0..nrec {
            // Full validation (structure + text UTF-8), so scans of the
            // block decode infallibly.
            let view = Record::decode_view(&mut r)?;
            if let Some(records) = &mut records {
                records.push(view.into());
            }
            block.n_records += 1;
            block.data = &bytes[start..r.position()];
            at.records += 1;
            at.bytes = r.position();
        }
        at.torn_rank = None;
        at.bytes = r.position();
    }
    if r.remaining() > 0 {
        return Err(WireError::Corrupt("trailing bytes after last block".into()));
    }
    Ok(())
}

/// What a tolerant parse recovered from a torn byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvaged<T> {
    /// The recovered (possibly partial) log.
    pub file: T,
    /// Bytes up to the last fully-decoded item.
    pub bytes_recovered: usize,
    /// Complete records recovered across all blocks.
    pub records_recovered: usize,
    /// True if parsing stopped before the end of the input.
    pub truncated: bool,
    /// The rank whose block the tear landed in, if it hit inside one.
    pub torn_rank: Option<u32>,
}

/// What [`Clog2File::salvage_bytes`] recovered.
pub type SalvagedClog = Salvaged<Clog2File>;

/// Failure while reading or converting a CLOG2 file: either the I/O
/// failed or the bytes were malformed.
#[derive(Debug)]
pub enum StreamError {
    /// An I/O call failed.
    Io(std::io::Error),
    /// The bytes did not decode as CLOG2.
    Wire(WireError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "read error: {e}"),
            StreamError::Wire(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> StreamError {
        StreamError::Io(e)
    }
}

impl From<WireError> for StreamError {
    fn from(e: WireError) -> StreamError {
        StreamError::Wire(e)
    }
}

/// `MPE_Finish_log`: apply each rank's clock correction, gather every
/// rank's buffer at rank 0 over the message layer, merge, and (on rank 0)
/// return the merged file.
///
/// This is the *wrap-up* step whose cost the paper measures separately,
/// and it is exactly why an `MPI_Abort` loses the MPE log: the gather
/// needs a live world. If the world has been aborted this returns
/// `Err(MpiError::Aborted { .. })` and no file is produced.
pub fn finish_log(rank: &Rank, logger: &Logger) -> Result<Option<Clog2File>, MpiError> {
    let corrected = logger.corrected_records();
    let mut w = Writer::with_capacity(corrected.len() * 24 + 8);
    w.put_u32(corrected.len() as u32);
    for r in &corrected {
        r.encode(&mut w);
    }
    let mine = bytes::Bytes::from(w.into_bytes());

    let gathered = rank.gather(0, mine)?;
    match gathered {
        None => Ok(None),
        Some(parts) => {
            let mut blocks = BTreeMap::new();
            for (r, part) in parts.iter().enumerate() {
                let mut rd = Reader::new(part);
                let n = rd
                    .get_u32()
                    .map_err(|e| MpiError::CollectiveMisuse(format!("bad log block: {e}")))?
                    as usize;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(Record::decode(&mut rd).map_err(|e| {
                        MpiError::CollectiveMisuse(format!("bad record from rank {r}: {e}"))
                    })?);
                }
                blocks.insert(r as u32, records);
            }
            Ok(Some(Clog2File {
                nranks: rank.size() as u32,
                state_defs: logger.state_defs().to_vec(),
                event_defs: logger.event_defs().to_vec(),
                blocks,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::ids::EventId;
    use minimpi::{Src, Tag, World};

    fn sample_file() -> Clog2File {
        let mut blocks = BTreeMap::new();
        blocks.insert(
            0,
            vec![
                Record::Event {
                    ts: 0.5,
                    id: EventId(0),
                    text: "Line: 10".into(),
                },
                Record::Send {
                    ts: 0.6,
                    dst: 1,
                    tag: 3,
                    size: 8,
                },
            ],
        );
        blocks.insert(
            1,
            vec![Record::Recv {
                ts: 0.7,
                src: 0,
                tag: 3,
                size: 8,
            }],
        );
        Clog2File {
            nranks: 2,
            state_defs: vec![StateDef {
                start: EventId(0),
                end: EventId(1),
                name: "PI_Write".into(),
                color: Color::GREEN,
            }],
            event_defs: vec![EventDef {
                id: EventId(2),
                name: "arrival".into(),
                color: Color::YELLOW,
            }],
            blocks,
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let f = sample_file();
        let bytes = f.to_bytes();
        assert_eq!(Clog2File::from_bytes(&bytes).unwrap(), f);
    }

    #[test]
    fn image_parse_matches_from_bytes() {
        let f = sample_file();
        let bytes = f.to_bytes();
        let img = Clog2File::parse_image(&bytes).unwrap();
        assert_eq!(img.nranks, f.nranks);
        assert_eq!(img.state_defs, f.state_defs);
        assert_eq!(img.event_defs, f.event_defs);
        assert_eq!(img.blocks.len(), f.blocks.len());
        for (block, (&rank, records)) in img.blocks.iter().zip(f.blocks.iter()) {
            assert_eq!(block.rank, rank);
            assert_eq!(block.n_records as usize, records.len());
            // The block's slice holds exactly its records, and its views
            // decode them back.
            let mut r = Reader::new(block.data);
            for _ in 0..block.n_records {
                Record::decode_view(&mut r).unwrap();
            }
            assert_eq!(r.remaining(), 0);
            let want: Vec<crate::record::RecordView<'_>> = records.iter().map(Into::into).collect();
            assert_eq!(block.views().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn image_parse_rejects_what_from_bytes_rejects() {
        let f = sample_file();
        let good = f.to_bytes();
        // truncations
        for cut in [0, 4, good.len() / 2, good.len() - 1] {
            assert!(
                Clog2File::parse_image(&good[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // bad magic
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Clog2File::parse_image(&bad),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn claimed_ranks_reads_the_header_alone() {
        let bytes = sample_file().to_bytes();
        assert_eq!(Clog2File::claimed_ranks(&bytes), Some(2));
        assert_eq!(Clog2File::claimed_ranks(&bytes[..12]), Some(2));
        assert_eq!(Clog2File::claimed_ranks(&bytes[..11]), None);
    }

    #[test]
    fn empty_file_roundtrips() {
        let f = Clog2File {
            nranks: 1,
            ..Default::default()
        };
        assert_eq!(Clog2File::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_file().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Clog2File::from_bytes(&bytes),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = sample_file().to_bytes();
        for cut in [5, 12, bytes.len() - 3] {
            assert!(
                Clog2File::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn salvage_of_intact_bytes_matches_strict_parse() {
        let f = sample_file();
        let s = Clog2File::salvage_bytes(&f.to_bytes());
        assert!(!s.truncated);
        assert_eq!(s.torn_rank, None);
        assert_eq!(s.file, f);
        assert_eq!(s.records_recovered, f.total_records());
        assert_eq!(s.bytes_recovered, f.to_bytes().len());
    }

    #[test]
    fn salvage_of_truncation_keeps_record_aligned_prefix() {
        let f = sample_file();
        let bytes = f.to_bytes();
        for cut in 0..bytes.len() {
            let s = Clog2File::salvage_bytes(&bytes[..cut]);
            assert!(s.truncated, "cut at {cut}");
            assert!(s.bytes_recovered <= cut);
            // Every recovered block is a prefix of the true block.
            for (rank, recs) in &s.file.blocks {
                let full = &f.blocks[rank];
                assert!(recs.len() <= full.len());
                assert_eq!(&full[..recs.len()], &recs[..], "cut at {cut}");
            }
            assert_eq!(s.records_recovered, s.file.total_records(), "cut at {cut}");
        }
    }

    #[test]
    fn salvage_mid_block_names_the_torn_rank() {
        let f = sample_file();
        let bytes = f.to_bytes();
        // Cut 3 bytes from the end: the tear lands in rank 1's block.
        let s = Clog2File::salvage_bytes(&bytes[..bytes.len() - 3]);
        assert!(s.truncated);
        assert_eq!(s.torn_rank, Some(1));
        assert_eq!(s.file.blocks[&0].len(), 2, "rank 0's block is intact");
    }

    #[test]
    fn salvage_of_garbage_recovers_nothing_without_panicking() {
        let s = Clog2File::salvage_bytes(b"not a clog2 file at all");
        assert!(s.truncated);
        assert_eq!(s.records_recovered, 0);
        let s = Clog2File::salvage_bytes(&[]);
        assert!(s.truncated);
        assert_eq!(s.bytes_recovered, 0);
    }

    #[test]
    fn trailing_bytes_after_last_block_are_a_tear() {
        let f = sample_file();
        let whole = f.to_bytes();
        let bytes = [&whole[..], b"junk"].concat();
        assert!(matches!(
            Clog2File::from_bytes(&bytes),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            Clog2File::parse_image(&bytes),
            Err(WireError::Corrupt(_))
        ));
        // Salvage keeps every block and stops at the end of the last.
        let s = Clog2File::salvage_bytes(&bytes);
        assert!(s.truncated);
        assert_eq!(s.torn_rank, None);
        assert_eq!(s.file, f);
        assert_eq!(s.records_recovered, f.total_records());
        assert_eq!(s.bytes_recovered, whole.len());
    }

    #[test]
    fn duplicate_rank_block_is_rejected() {
        let mut f = sample_file();
        f.blocks = BTreeMap::from([(0u32, vec![])]);
        let mut bytes = f.to_bytes();
        let one_block = bytes.len();
        // nblocks is the u32 before the only block's rank and nrec: bump
        // it to 2 and append a second rank-0 block (rank=0, nrec=0).
        let nblocks_at = bytes.len() - 12;
        bytes[nblocks_at..nblocks_at + 4].copy_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        for strict in [
            Clog2File::from_bytes(&bytes).map(drop),
            Clog2File::parse_image(&bytes).map(drop),
        ] {
            assert!(
                matches!(&strict, Err(WireError::Corrupt(m)) if m.contains("duplicate block")),
                "{strict:?}"
            );
        }
        let s = Clog2File::salvage_bytes(&bytes);
        assert!(s.truncated);
        assert_eq!(s.torn_rank, None);
        assert_eq!(s.file, f);
        assert_eq!(s.bytes_recovered, one_block);
    }

    #[test]
    fn many_blocks_parse_in_linear_time() {
        // 10^5 empty blocks with distinct ranks: the duplicate check
        // must not rescan the blocks already parsed.
        let n = 100_000u32;
        let f = Clog2File {
            nranks: n,
            blocks: (0..n).map(|rank| (rank, Vec::new())).collect(),
            ..Default::default()
        };
        let mut bytes = f.to_bytes();
        let t = std::time::Instant::now();
        assert_eq!(Clog2File::from_bytes(&bytes).unwrap(), f);
        let image = Clog2File::parse_image(&bytes).unwrap();
        assert_eq!(image.blocks.len(), n as usize);
        // A duplicate of rank 0 after the last block (nblocks follows
        // the magic, nranks and the two empty def counts): salvage
        // keeps everything before it.
        bytes[20..24].copy_from_slice(&(n + 1).to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        let s = Clog2File::salvage_bytes(&bytes);
        assert!(s.truncated);
        assert_eq!(s.file, f);
        assert_eq!(s.bytes_recovered, bytes.len() - 8);
        let elapsed = t.elapsed();
        assert!(elapsed < std::time::Duration::from_secs(5), "{elapsed:?}");
    }

    #[test]
    fn file_io_roundtrip() {
        let dir = std::env::temp_dir().join("mpelog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pclog2");
        let f = sample_file();
        f.write_to(&path).unwrap();
        let back = Clog2File::read_from(&path).unwrap();
        assert_eq!(back, f);
        assert!(matches!(
            Clog2File::read_from(Path::new("/nonexistent/nope.pclog2")),
            Err(StreamError::Io(_))
        ));
    }

    #[test]
    fn finish_log_gathers_all_ranks() {
        let out = World::builder(3).run(|rank| {
            let mut lg = Logger::new(rank.rank());
            let id = lg.define_event("tick", Color::YELLOW);
            for i in 0..rank.rank() + 1 {
                lg.log_event(i as f64, id, &format!("Tick: {i}"));
            }
            let merged = finish_log(rank, &lg).unwrap();
            match merged {
                Some(file) => {
                    assert_eq!(rank.rank(), 0);
                    assert_eq!(file.nranks, 3);
                    assert_eq!(file.blocks[&0].len(), 1);
                    assert_eq!(file.blocks[&1].len(), 2);
                    assert_eq!(file.blocks[&2].len(), 3);
                }
                None => assert_ne!(rank.rank(), 0),
            }
            0
        });
        assert!(out.all_ok(), "{out:?}");
    }

    #[test]
    fn finish_log_fails_after_abort() {
        // The paper's Section III.B problem: MPI_Abort kills the message
        // infrastructure MPE needs to merge the log, so the log is lost.
        let out = World::builder(2).run(|rank| {
            let lg = Logger::new(rank.rank());
            if rank.rank() == 1 {
                let _ = rank.abort(13);
                match finish_log(rank, &lg) {
                    Err(MpiError::Aborted { .. }) => return 0,
                    other => panic!("expected abort, got {other:?}"),
                }
            }
            // Rank 0 also loses the log.
            match finish_log(rank, &lg) {
                Err(MpiError::Aborted { .. }) => 0,
                Ok(_) => panic!("log should be lost after abort"),
                Err(e) => panic!("unexpected {e:?}"),
            }
        });
        assert_eq!(out.aborted, Some((1, 13)));
    }

    #[test]
    fn finish_log_applies_corrections() {
        use crate::sync::ClockCorrection;
        let out = World::builder(2).run(|rank| {
            let mut lg = Logger::new(rank.rank());
            let id = lg.define_event("e", Color::YELLOW);
            lg.log_event(10.0, id, "");
            // Rank 1 pretends its clock is 4s ahead.
            if rank.rank() == 1 {
                lg.set_correction(ClockCorrection::constant(4.0));
            }
            if let Some(file) = finish_log(rank, &lg).unwrap() {
                assert_eq!(file.blocks[&0][0].ts(), 10.0);
                assert_eq!(file.blocks[&1][0].ts(), 6.0);
            }
            0
        });
        assert!(out.all_ok());
    }

    // keep Src/Tag imported for future tests without warnings
    #[allow(dead_code)]
    fn _unused(_: Src, _: Tag) {}
}
