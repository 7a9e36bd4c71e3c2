//! Where conversion input comes from: the [`TraceSource`] seam, and the
//! one front end that turns any source into per-rank scans.
//!
//! * [`TraceSource::InMemory`] — an already-decoded log.
//! * [`TraceSource::Bytes`] — a CLOG2 byte image; records are scanned
//!   in place (borrowed text, no per-record allocation).
//! * [`TraceSource::Mmap`] — a memory-mapped file, same zero-copy scan
//!   as `Bytes` without reading the file into the heap first; the
//!   source for logs bigger than RAM.
//!
//! Both byte sources go through `mpelog`'s one CLOG2 parse loop:
//! strictly by default, and under [`TornPolicy::Salvage`] tolerantly,
//! so the record-aligned prefix is scanned in place and the tear facts
//! land in the report.

use std::io;
use std::path::Path;

use mpelog::clog2::StreamError;
use mpelog::wire::WireError;
use mpelog::Clog2File;

use crate::convert::{
    register_terminal_categories, terminal_shard, ConvertWarning, Converter, FailureKind,
    RankVerdict, SalvageReport, TornPolicy, MAX_RANKS,
};
use crate::scan::{build_categories, scan_sources, BlockInput, CategoryTable, RankScan};

/// A source of CLOG2 trace data for [`Converter::convert`].
pub enum TraceSource<'a> {
    /// An already-decoded log.
    InMemory(&'a Clog2File),
    /// A raw CLOG2 byte image, scanned zero-copy.
    Bytes(&'a [u8]),
    /// A memory-mapped CLOG2 file, scanned zero-copy.
    Mmap(Mmap),
}

impl TraceSource<'_> {
    /// Memory-map `path` as a trace source.
    pub fn mmap(path: &Path) -> std::io::Result<TraceSource<'static>> {
        Ok(TraceSource::Mmap(Mmap::open(path)?))
    }
}

impl std::fmt::Debug for TraceSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSource::InMemory(c) => write!(f, "TraceSource::InMemory({} ranks)", c.nranks),
            TraceSource::Bytes(b) => write!(f, "TraceSource::Bytes({} bytes)", b.len()),
            TraceSource::Mmap(m) => write!(f, "TraceSource::Mmap({} bytes)", m.len()),
        }
    }
}

/// What the front end hands the rest of the pipeline.
pub(crate) struct Scanned {
    pub(crate) table: CategoryTable,
    pub(crate) nranks: u32,
    /// Per-rank scans in ascending rank order, then (salvaging) the
    /// terminal shard.
    pub(crate) shards: Vec<RankScan>,
    /// Every shard's warnings, in shard order.
    pub(crate) warnings: Vec<ConvertWarning>,
    /// The salvage report in effect, tear facts filled in.
    pub(crate) salvage: Option<SalvageReport>,
}

/// Receives each shard as soon as it is scanned.
pub(crate) type Spill<'s> = &'s mut dyn FnMut(&mut RankScan) -> io::Result<()>;

impl Converter {
    /// The front end: open `src` under the torn-input policy and scan it
    /// into per-rank shards. Given a `spill` (the out-of-core writer
    /// moves rows to disk there), ranks are scanned one at a time so
    /// one rank's drawables are resident; otherwise workers steal whole
    /// rank blocks.
    pub(crate) fn scan(
        &self,
        src: TraceSource<'_>,
        mut spill: Option<Spill<'_>>,
    ) -> Result<Scanned, StreamError> {
        let _span = self.obs.as_deref().map(|o| o.span("scan", "convert", 0));
        let workers = self.effective_parallelism();
        let mut salvage = match &self.torn {
            TornPolicy::Strict => None,
            TornPolicy::Salvage(report) => Some(report.clone()),
        };
        let mut shards = Vec::new();
        let (mut table, nranks) = match src {
            TraceSource::InMemory(clog) => {
                check_ranks(clog.nranks)?;
                let table = build_categories(&clog.state_defs, &clog.event_defs);
                let blocks: Vec<_> = clog
                    .blocks
                    .iter()
                    .map(|(&rank, records)| BlockInput::Records(rank, records))
                    .collect();
                self.scan_blocks(&blocks, &table, workers, &mut spill, &mut shards)?;
                (table, clog.nranks)
            }
            TraceSource::Bytes(bytes) => {
                self.scan_image(bytes, workers, &mut salvage, &mut spill, &mut shards)?
            }
            TraceSource::Mmap(map) => {
                self.scan_image(&map, workers, &mut salvage, &mut spill, &mut shards)?
            }
        };
        if let Some(report) = &salvage {
            let cats = register_terminal_categories(&mut table, report);
            let mut terminal = terminal_shard(&shards, nranks, report, &cats);
            if let Some(spill) = spill.as_mut() {
                spill(&mut terminal)?;
            }
            shards.push(terminal);
        }
        let mut warnings = Vec::new();
        for s in &mut shards {
            warnings.append(&mut s.warnings);
        }
        Ok(Scanned {
            table,
            nranks,
            shards,
            warnings,
            salvage,
        })
    }

    /// Parse a byte image — strictly, or under salvage tolerantly, with
    /// the tear facts written into the report — and scan its blocks.
    fn scan_image(
        &self,
        bytes: &[u8],
        workers: usize,
        salvage: &mut Option<SalvageReport>,
        spill: &mut Option<Spill<'_>>,
        shards: &mut Vec<RankScan>,
    ) -> Result<(CategoryTable, u32), StreamError> {
        let image = match salvage {
            None => Clog2File::parse_image(bytes)?,
            Some(report) => {
                let s = Clog2File::salvage_image(bytes);
                report.records_recovered = s.records_recovered;
                report.bytes_recovered = s.bytes_recovered;
                report.truncated = s.truncated;
                if let Some(rank) = s.torn_rank {
                    if !report.verdicts.iter().any(|v| v.rank == rank) {
                        report.verdicts.push(RankVerdict {
                            rank,
                            kind: FailureKind::Aborted,
                            detail: "log truncated mid-block".into(),
                        });
                    }
                }
                s.file
            }
        };
        check_ranks(image.nranks)?;
        let table = build_categories(&image.state_defs, &image.event_defs);
        let blocks: Vec<_> = image.blocks.iter().map(BlockInput::Image).collect();
        self.scan_blocks(&blocks, &table, workers, spill, shards)?;
        Ok((table, image.nranks))
    }

    /// Scan `blocks` onto `shards` over `workers` threads — one rank at
    /// a time, on one thread, when spilling.
    fn scan_blocks(
        &self,
        blocks: &[BlockInput<'_>],
        table: &CategoryTable,
        workers: usize,
        spill: &mut Option<Spill<'_>>,
        shards: &mut Vec<RankScan>,
    ) -> io::Result<()> {
        let batch = if spill.is_some() { 1 } else { blocks.len() };
        for group in blocks.chunks(batch.max(1)) {
            for mut scan in scan_sources(group, table, workers, self.obs.as_deref()) {
                if let Some(spill) = spill.as_mut() {
                    spill(&mut scan)?;
                }
                shards.push(scan);
            }
        }
        Ok(())
    }
}

/// Refuse a log whose header claims more than [`MAX_RANKS`] ranks.
fn check_ranks(nranks: u32) -> Result<(), WireError> {
    if nranks > MAX_RANKS {
        return Err(WireError::Corrupt(format!(
            "header claims {nranks} ranks (at most {MAX_RANKS})"
        )));
    }
    Ok(())
}

/// A read-only memory-mapped file.
///
/// On unix this binds `mmap(2)`/`munmap(2)` directly — one extern
/// declaration keeps the build dependency-free (the same approach
/// `pilotd` takes for `signal(2)`). Elsewhere it degrades to reading
/// the file into a heap buffer, so every platform still converts; only
/// the zero-copy property is unix-specific.
pub struct Mmap {
    #[cfg(unix)]
    ptr: *mut std::ffi::c_void,
    #[cfg(unix)]
    len: usize,
    #[cfg(not(unix))]
    buf: Vec<u8>,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated or
// remapped after construction; sharing &Mmap across threads only ever
// reads the bytes.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

impl Mmap {
    /// Map `path` read-only.
    #[cfg(unix)]
    pub fn open(path: &Path) -> std::io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let f = std::fs::File::open(path)?;
        let len = f.metadata()?.len() as usize;
        if len == 0 {
            // mmap(2) rejects zero-length mappings; an empty file is an
            // empty slice.
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: fd is a freshly-opened readable file, len matches its
        // size, and we request a fresh private read-only mapping.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                f.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    /// Read `path` into a heap buffer (non-unix fallback).
    #[cfg(not(unix))]
    pub fn open(path: &Path) -> std::io::Result<Mmap> {
        Ok(Mmap {
            buf: std::fs::read(path)?,
        })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        #[cfg(unix)]
        {
            if self.ptr.is_null() {
                return &[];
            }
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; the mapping outlives the returned borrow.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
        #[cfg(not(unix))]
        {
            &self.buf
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Is the mapping empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: ptr/len came from a successful mmap and are
            // unmapped exactly once.
            unsafe { sys::munmap(self.ptr, self.len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slog2-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn mmap_reads_file_bytes() {
        let p = tmp("data.bin", b"hello mapping");
        let m = Mmap::open(&p).unwrap();
        assert_eq!(&*m, b"hello mapping");
        assert_eq!(m.len(), 13);
        assert!(!m.is_empty());
    }

    #[test]
    fn mmap_empty_file_is_empty_slice() {
        let p = tmp("empty.bin", b"");
        let m = Mmap::open(&p).unwrap();
        assert!(m.is_empty());
        assert_eq!(&*m, b"");
    }

    #[test]
    fn mmap_missing_file_errors() {
        assert!(Mmap::open(Path::new("/nonexistent/nope.clog2")).is_err());
    }
}
