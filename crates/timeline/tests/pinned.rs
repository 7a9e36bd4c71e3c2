//! Pinned tile and query bytes. The other tile tests compare two runs
//! of the same code, so a change that moves bytes on both sides passes
//! them; these digests were taken from an independent build and change
//! only when a response body does.

use std::sync::OnceLock;

use slog2::{Converter, SalvageReport, TimeWindow, TornPolicy, TraceSource};
use timeline::{fnv1a, TimelineIndex, TimelineService};

/// The arrow count at or under which a row lists its arrows; `/v1/info`
/// reports it as `detail_limit`.
const DETAIL_LIMIT: usize = 512;

/// States in detail, states in preview, arrows listed, arrows
/// aggregated: the row modes, as they appear in a tile body.
const DETAIL: &str = r#""mode":"detail""#;
const PREVIEW: &str = r#""mode":"preview""#;
const ARROWS: &str = r#""arrows":["#;
const ARROW_PREVIEW: &str = r#""arrow_mode":"preview""#;

/// FNV-1a over the FNV-1a digests of every rank × zoom 0..=`max_zoom`
/// × tile body, then of `query_json` over fixed windows. Each body is
/// hashed as it is produced; every mode in `modes` must appear in some
/// tile.
fn digest(svc: &TimelineService, max_zoom: u8, modes: &[&str]) -> String {
    let ranks = svc.file().timelines.len() as u32;
    let mut digests = Vec::new();
    let mut fold = |body: &str| digests.extend(fnv1a(body.as_bytes()).to_le_bytes());
    let mut seen = vec![false; modes.len()];
    for rank in 0..ranks {
        for zoom in 0..=max_zoom {
            for tile in 0..1u32 << zoom {
                let body = svc.tile_json(rank, zoom, tile).expect("in range");
                for (mode, seen) in modes.iter().zip(&mut seen) {
                    *seen |= body.contains(mode);
                }
                fold(&body);
            }
        }
    }
    for (mode, seen) in modes.iter().zip(seen) {
        assert!(seen, "no {mode} tile");
    }
    let at = |f: f64| svc.file().range.lerp(f);
    for (w, ranks) in [
        (TimeWindow::ALL, None),
        (TimeWindow::new(at(0.0), at(1.0 / 3.0)), None),
        (TimeWindow::new(at(0.49), at(0.51)), None),
        (TimeWindow::new(at(0.37), at(0.37)), None),
        (TimeWindow::new(at(0.2), at(0.9)), Some(&[1, ranks - 1][..])),
        (TimeWindow::new(at(0.6), at(0.61)), Some(&[0, 2][..])),
    ] {
        fold(&svc.query_json(w, ranks));
    }
    format!("{:016x}", fnv1a(&digests))
}

/// FNV-1a over the FNV-1a digests of every rank × zoom in `zooms` ×
/// tile body whose rank has at most [`DETAIL_LIMIT`] arrows in the
/// tile's window, counted on an index of its own. Also returns how
/// many tiles were selected and how many were skipped as dense.
fn detail_arrow_digest(
    svc: &TimelineService,
    zooms: std::ops::RangeInclusive<u8>,
) -> (String, usize, usize) {
    let index = TimelineIndex::build(svc.file());
    let mut digests = Vec::new();
    let (mut kept, mut dense) = (0, 0);
    for rank in 0..index.nranks() as u32 {
        for zoom in zooms.clone() {
            for tile in 0..1u32 << zoom {
                let w = svc.tile_window(zoom, tile).expect("in range");
                if index.rank_arrows(rank, w).len() > DETAIL_LIMIT {
                    dense += 1;
                    continue;
                }
                kept += 1;
                let body = svc.tile_json(rank, zoom, tile).expect("in range");
                digests.extend(fnv1a(body.as_bytes()).to_le_bytes());
            }
        }
    }
    (format!("{:016x}", fnv1a(&digests)), kept, dense)
}

/// `synthetic_clog(4, 3000)` converted whole, and a 2/3 torn prefix of
/// it converted under salvage.
fn fixtures() -> [TimelineService; 2] {
    let clog = workloads::synthetic_clog(4, 3000);
    let whole = Converter::new().convert(TraceSource::InMemory(&clog));
    let bytes = clog.to_bytes();
    let torn = Converter::new()
        .on_torn(TornPolicy::Salvage(SalvageReport::default()))
        .convert(TraceSource::Bytes(&bytes[..bytes.len() * 2 / 3]));
    let torn = torn.expect("salvage accepts a torn prefix").file;
    assert!(!torn.warnings.is_empty(), "the prefix is torn");
    let whole = whole.expect("synthetic log converts").file;
    [whole, torn].map(TimelineService::from_file)
}

#[test]
fn tile_and_query_bytes_are_pinned() {
    let [whole, torn] = fixtures();
    let modes = [PREVIEW, DETAIL, ARROWS, ARROW_PREVIEW];
    assert_eq!(
        [digest(&whole, 6, &modes), digest(&torn, 6, &modes)],
        ["21cf07e00f788c8e", "ff8623a36e046c0f"]
    );
}

/// Tiles whose rank has at most 512 arrows in the window keep the
/// bytes they had before dense rows aggregated their arrows.
#[test]
fn detail_arrow_rows_are_pinned() {
    let [whole, torn] = fixtures();
    let (whole, whole_kept, whole_dense) = detail_arrow_digest(&whole, 0..=6);
    let (torn, torn_kept, torn_dense) = detail_arrow_digest(&torn, 0..=6);
    assert!(whole_dense > 0 && torn_dense > 0, "some rows are dense");
    assert_eq!(
        [(whole.as_str(), whole_kept), (torn.as_str(), torn_kept)],
        [("16e7b06c422619e2", 480), ("536f56c263c184d0", 494)]
    );
}

/// bigtrace's input (`synthetic_clog(8, 62_500)`, 10⁶ drawables)
/// converted in memory, served once for every test that reads it.
fn bigtrace() -> &'static TimelineService {
    static SVC: OnceLock<TimelineService> = OnceLock::new();
    SVC.get_or_init(|| synthetic(62_500))
}

/// `synthetic_clog(8, calls)` converted in memory and served: about
/// `16 * calls` drawables, a quarter of them arrows.
fn synthetic(calls: usize) -> TimelineService {
    let clog = workloads::synthetic_clog(8, calls);
    let file = Converter::new()
        .convert(TraceSource::InMemory(&clog))
        .expect("synthetic log converts")
        .file;
    TimelineService::from_file(file)
}

/// The most bytes one zoom-0 tile of `synthetic_clog(8, _)` may take,
/// at any scale: a row of category previews and per-peer arrow
/// aggregates is about 300 bytes.
const FIRST_SCREEN_TILE_BYTES: usize = 512;

/// Every rank's zoom-0 tile stays under [`FIRST_SCREEN_TILE_BYTES`],
/// aggregating its arrows.
fn assert_first_screen_is_bounded(svc: &TimelineService) {
    for rank in 0..svc.file().timelines.len() as u32 {
        let tile = svc.tile_json(rank, 0, 0).expect("zoom 0 exists");
        assert!(
            tile.len() < FIRST_SCREEN_TILE_BYTES,
            "rank {rank}: {} bytes",
            tile.len()
        );
        assert!(tile.contains(ARROW_PREVIEW), "rank {rank}: {tile}");
    }
}

#[test]
fn first_screen_bytes_are_bounded_at_1e5_drawables() {
    assert_first_screen_is_bounded(&synthetic(6_250));
}

/// The same bound at 10⁶ drawables: the constant does not grow with
/// the trace.
#[test]
#[ignore]
fn first_screen_bytes_are_bounded_at_bigtrace_scale() {
    assert_first_screen_is_bounded(bigtrace());
}

/// The same pin at bigtrace's scale. Slow in a debug build; CI runs it
/// in release: `cargo test --release -p timeline --test pinned --
/// --ignored`.
#[test]
#[ignore]
fn bigtrace_scale_tile_and_query_bytes_are_pinned() {
    let modes = [PREVIEW, ARROW_PREVIEW];
    assert_eq!(digest(bigtrace(), 3, &modes), "a9fce294f96413a5");
}

/// Zoom 7 of bigtrace's input, where every rank's tile holds at most
/// 512 arrows: those keep their bytes.
#[test]
#[ignore]
fn bigtrace_scale_detail_arrow_rows_are_pinned() {
    let (digest, kept, _) = detail_arrow_digest(bigtrace(), 7..=7);
    assert_eq!((digest.as_str(), kept), ("08909ee672622542", 1024));
}
