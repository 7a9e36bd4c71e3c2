//! Pinned tile and query bytes. The other tile tests compare two runs
//! of the same code, so a change that moves bytes on both sides passes
//! them; these digests were taken from an independent build and change
//! only when a response body does.

use slog2::{Converter, SalvageReport, Slog2File, TimeWindow, TornPolicy, TraceSource};
use timeline::{fnv1a, TimelineService};

/// FNV-1a over the FNV-1a digests of every rank × zoom 0..=`max_zoom`
/// × tile body, then of `query_json` over fixed windows. Each body is
/// hashed as it is produced; every mode in `modes` must appear in some
/// tile.
fn digest(file: Slog2File, max_zoom: u8, modes: &[&str]) -> String {
    let svc = TimelineService::from_file(file);
    let ranks = svc.file().timelines.len() as u32;
    let mut digests = Vec::new();
    let mut fold = |body: &str| digests.extend(fnv1a(body.as_bytes()).to_le_bytes());
    let mut seen = vec![false; modes.len()];
    for rank in 0..ranks {
        for zoom in 0..=max_zoom {
            for tile in 0..1u32 << zoom {
                let body = svc.tile_json(rank, zoom, tile).expect("in range");
                for (mode, seen) in modes.iter().zip(&mut seen) {
                    *seen |= body.contains(&format!("\"mode\":\"{mode}\""));
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

#[test]
fn tile_and_query_bytes_are_pinned() {
    let clog = workloads::synthetic_clog(4, 3000);
    let whole = Converter::new().convert(TraceSource::InMemory(&clog));
    let bytes = clog.to_bytes();
    let torn = Converter::new()
        .on_torn(TornPolicy::Salvage(SalvageReport::default()))
        .convert(TraceSource::Bytes(&bytes[..bytes.len() * 2 / 3]));
    let torn = torn.expect("salvage accepts a torn prefix").file;
    assert!(!torn.warnings.is_empty(), "the prefix is torn");
    let whole = whole.expect("synthetic log converts").file;
    let modes = ["preview", "detail"];
    assert_eq!(
        [digest(whole, 6, &modes), digest(torn, 6, &modes)],
        ["d0ff160f38abc37a", "ec59be0ff6e6c3f1"]
    );
}

/// The same pin at bigtrace's scale (10⁶ drawables, about 45 MB of
/// JSON per zoom level). Slow in a debug build; CI runs it in release:
/// `cargo test --release -p timeline --test pinned -- --ignored`.
#[test]
#[ignore]
fn bigtrace_scale_tile_and_query_bytes_are_pinned() {
    let clog = workloads::synthetic_clog(8, 62_500);
    let file = Converter::new()
        .convert(TraceSource::InMemory(&clog))
        .expect("synthetic log converts")
        .file;
    drop(clog);
    assert_eq!(digest(file, 3, &["preview"]), "716075c46b4bf098");
}
