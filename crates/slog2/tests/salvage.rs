//! Salvage through byte sources equals the hand-built salvage route:
//! decode the torn prefix with `Clog2File::salvage_bytes`, build a
//! report from its tear facts plus an `ABORTED` verdict for the rank
//! torn mid-block, and convert the decoded log in memory. Converting
//! the torn bytes directly — as `Bytes` or `Mmap`, in memory or out of
//! core — must give the same file bytes and warnings.

use mpelog::{Clog2File, Color, Logger};
use slog2::{
    ConvertWarning, Converter, FailureKind, RankVerdict, SalvageReport, TornPolicy, TraceSource,
};

/// Three ranks with nesting, a backward state, ring messages, an
/// unmatched send and receive, an unclosed state and equal drawables.
fn messy_log() -> Vec<u8> {
    let mut loggers: Vec<Logger> = (0..3).map(Logger::new).collect();
    let mut ids = Vec::new();
    for lg in &mut loggers {
        let (a, b) = lg.define_state("compute", Color::GREEN);
        let (c, d) = lg.define_state("io", Color::RED);
        lg.define_event("mark", Color::YELLOW);
        ids = vec![a, b, c, d];
    }
    for (r, lg) in loggers.iter_mut().enumerate() {
        let t = r as f64;
        lg.log_event(t + 0.1, ids[0], "outer");
        lg.log_event(t + 0.2, ids[2], "inner");
        lg.log_event(t + 0.15, ids[3], "");
        lg.log_event(t + 0.9, ids[1], "");
        lg.log_send(t + 0.3, (r + 1) % 3, 7, 64);
        lg.log_receive(t + 0.35, (r + 2) % 3, 7, 64);
        if r == 0 {
            lg.log_send(t + 0.4, 1, 9, 8);
            lg.log_receive(t + 0.5, 1, 11, 8);
            lg.log_event(t + 0.6, ids[0], "never closed");
        }
        for _ in 0..2 {
            lg.log_event(t + 0.7, ids[2], "");
            lg.log_event(t + 0.72, ids[3], "");
        }
    }
    Clog2File {
        nranks: 3,
        state_defs: loggers[0].state_defs().to_vec(),
        event_defs: loggers[0].event_defs().to_vec(),
        blocks: loggers
            .iter()
            .enumerate()
            .map(|(r, lg)| (r as u32, lg.records().to_vec()))
            .collect(),
    }
    .to_bytes()
}

/// The hand-built route: decode the torn prefix, build the report from
/// its tear facts plus a verdict for the rank torn mid-block, and
/// convert the decoded log in memory.
fn hand_built(torn: &[u8]) -> (Vec<u8>, Vec<ConvertWarning>, SalvageReport) {
    let s = Clog2File::salvage_bytes(torn);
    let report = SalvageReport {
        verdicts: s
            .torn_rank
            .map(|rank| RankVerdict {
                rank,
                kind: FailureKind::Aborted,
                detail: "log truncated mid-block".into(),
            })
            .into_iter()
            .collect(),
        records_recovered: s.records_recovered,
        bytes_recovered: s.bytes_recovered,
        truncated: s.truncated,
        ..Default::default()
    };
    let c = Converter::new()
        .parallelism(1)
        .on_torn(TornPolicy::Salvage(report.clone()))
        .convert(TraceSource::InMemory(&s.file))
        .unwrap();
    (c.file.to_bytes(), c.warnings, report)
}

#[test]
fn byte_sources_salvage_like_the_hand_built_route() {
    let whole = messy_log();
    let dir = std::env::temp_dir().join(format!("slog2-salvage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clog_path = dir.join("torn.pclog2");
    let out = dir.join("torn.pslog2");
    let conv = Converter::new()
        .parallelism(2)
        .on_torn(TornPolicy::Salvage(SalvageReport::default()));
    let oocore = conv.clone().memory_budget(1).spill_dir(dir.clone());
    let mut torn_mid_block = 0;
    for cut in (0..whole.len()).step_by(5).chain([whole.len()]) {
        let torn = &whole[..cut];
        let (want, want_warnings, report) = hand_built(torn);
        torn_mid_block += usize::from(!report.verdicts.is_empty());
        std::fs::write(&clog_path, torn).unwrap();
        let sources = || {
            [
                ("Bytes", TraceSource::Bytes(torn)),
                ("Mmap", TraceSource::mmap(&clog_path).unwrap()),
            ]
        };
        for (name, src) in sources() {
            let c = conv.convert(src).unwrap();
            assert_eq!(c.file.to_bytes(), want, "{name}, cut {cut}");
            assert_eq!(c.warnings, want_warnings, "{name}, cut {cut}");
            assert_eq!(c.salvage.as_ref(), Some(&report), "{name}, cut {cut}");
        }
        for (name, src) in sources() {
            let summary = oocore.convert_to_path(src, &out).unwrap();
            assert_eq!(
                std::fs::read(&out).unwrap(),
                want,
                "{name} oocore, cut {cut}"
            );
            assert_eq!(summary.warnings, want_warnings, "{name} oocore, cut {cut}");
        }
    }
    assert!(torn_mid_block > 10, "cuts must land inside rank blocks");
    let _ = std::fs::remove_dir_all(&dir);
}
