//! Pinned tile and query bytes. The other tile tests compare two runs
//! of the same code, so a change that moves bytes on both sides passes
//! them; these digests were taken from an independent build and change
//! only when a response body does.

use slog2::{Converter, SalvageReport, Slog2File, TimeWindow, TornPolicy, TraceSource};
use timeline::{fnv1a, TimelineService};

/// FNV-1a over the FNV-1a digests of every rank × zoom 0..=6 × tile
/// body, then of `query_json` over fixed windows.
fn digest(file: Slog2File) -> String {
    let svc = TimelineService::from_file(file);
    let ranks = svc.file().timelines.len() as u32;
    let mut bodies = Vec::new();
    for rank in 0..ranks {
        for zoom in 0..=6u8 {
            for tile in 0..1u32 << zoom {
                let body = svc.tile_json(rank, zoom, tile).expect("in range");
                bodies.push(body.to_string());
            }
        }
    }
    for mode in ["\"mode\":\"preview\"", "\"mode\":\"detail\""] {
        assert!(bodies.iter().any(|t| t.contains(mode)), "no {mode} tile");
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
        bodies.push(svc.query_json(w, ranks));
    }
    let digests: Vec<u8> = bodies
        .iter()
        .flat_map(|b| fnv1a(b.as_bytes()).to_le_bytes())
        .collect();
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
    let whole = digest(whole.expect("synthetic log converts").file);
    assert_eq!(
        [whole, digest(torn)],
        ["d0ff160f38abc37a", "ec59be0ff6e6c3f1"]
    );
}
