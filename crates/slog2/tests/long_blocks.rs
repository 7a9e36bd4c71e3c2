//! Pinned conversions of messy logs with long rank blocks.
//!
//! Every rank block here is tens of thousands of records long, and its
//! open-state stack stays several levels deep throughout, so states
//! open across any record boundary a scan might cut at. The logs mix
//! nesting, interleaved and unmatched state ends, backward and unclosed
//! states, unknown event ids, and sends and receives with unmatched
//! partners on both sides.
//!
//! Each log converts from `InMemory` and from `Bytes` at 1 and 2
//! threads, and out of core under a small budget; its 70% byte prefix
//! converts under salvage. The SLOG2 digest and the warning-list digest
//! of every cell are pinned. They were taken from the converter that
//! cut each block into 16,384-record chunks and stitched them back, and
//! they are what the serial single-stack scan produces.

use mpelog::ids::EventId;
use mpelog::record::{EventDef, Record, StateDef};
use mpelog::{Clog2File, Color};
use slog2::fnv::{fnv1a, FNV_SEED};
use slog2::{ConvertWarning, Converter, SalvageReport, TornPolicy, TraceSource};

/// Three states (ids 0–5) and one solo event (id 6); id 99 is never
/// defined.
fn defs() -> (Vec<StateDef>, Vec<EventDef>) {
    let state = |k: u32, name: &str, color| StateDef {
        start: EventId(2 * k),
        end: EventId(2 * k + 1),
        name: name.into(),
        color,
    };
    let states = vec![
        state(0, "compute", Color::GREEN),
        state(1, "io", Color::RED),
        state(2, "wait", Color::GRAY),
    ];
    let events = vec![EventDef {
        id: EventId(6),
        name: "mark".into(),
        color: Color::YELLOW,
    }];
    (states, events)
}

/// A 64-bit LCG: the log's only source of choices.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

/// `len` records for `rank` of an `nranks`-rank world. An outer
/// `compute` state opens first; the rest is a random walk that keeps
/// two to fourteen states open, so every block ends with states open.
fn block(rank: u32, nranks: u32, len: usize) -> Vec<Record> {
    let mut rng = Lcg(0x5eed ^ (u64::from(rank) << 32) ^ u64::from(nranks));
    let mut out = Vec::with_capacity(len);
    // The open states as (category, start time), innermost last.
    let mut open: Vec<(u32, f64)> = Vec::new();
    let mut ts = 0.25 * f64::from(rank);
    let event = |ts: f64, id: u32, text: String| Record::Event {
        ts,
        id: EventId(id),
        text,
    };
    out.push(event(ts, 0, format!("outer {rank}")));
    open.push((0, ts));
    while out.len() + 2 < len {
        ts += 1e-6 * (1 + rng.below(50)) as f64;
        let i = out.len();
        match rng.below(100) {
            0..=29 if open.len() < 14 => {
                let cat = rng.below(3) as u32;
                open.push((cat, ts));
                out.push(event(ts, 2 * cat, format!("Line: {i}")));
            }
            0..=29 => {}
            30..=59 if open.len() > 2 => {
                // Mostly the innermost state ends; sometimes a random
                // category, which may sit lower in the stack or not be
                // open at all.
                let cat = if rng.below(10) < 8 {
                    open.last().expect("open state").0
                } else {
                    rng.below(3) as u32
                };
                let matched = open.iter().rposition(|o| o.0 == cat);
                let mut end = ts;
                if let Some(pos) = matched {
                    let (_, start) = open.remove(pos);
                    if rng.below(20) == 0 {
                        end = start - 1e-6 * (1 + rng.below(9)) as f64;
                    }
                }
                let text = if rng.below(4) == 0 { "done" } else { "" };
                out.push(event(end, 2 * cat + 1, text.into()));
            }
            30..=59 => {}
            60..=61 => out.push(event(ts, 99, String::new())),
            62..=74 => out.push(event(ts, 6, format!("Tick: {i}"))),
            75..=87 => out.push(Record::Send {
                ts,
                dst: (rank + 1) % nranks,
                tag: rng.below(4) as u32,
                size: 8 << rng.below(3),
            }),
            _ => out.push(Record::Recv {
                ts,
                src: (rank + nranks - 1) % nranks,
                tag: rng.below(4) as u32,
                size: 8 << rng.below(3),
            }),
        }
    }
    // A `wait` end, unmatched unless a `wait` state is open, then the
    // innermost `compute` state's end on odd ranks.
    ts += 1e-6;
    out.push(event(ts, 5, "stray".into()));
    match rank % 2 {
        1 => out.push(event(ts + 1e-6, 1, "outer done".into())),
        _ => out.push(event(ts + 1e-6, 6, String::new())),
    }
    out
}

/// An `nranks`-rank log whose rank `r` logs `lens[r]` records.
fn messy_log(lens: &[usize]) -> Clog2File {
    let (state_defs, event_defs) = defs();
    let nranks = lens.len() as u32;
    Clog2File {
        nranks,
        state_defs,
        event_defs,
        blocks: lens
            .iter()
            .enumerate()
            .map(|(r, &len)| (r as u32, block(r as u32, nranks, len)))
            .collect(),
    }
}

fn warnings_digest(warnings: &[ConvertWarning]) -> u64 {
    warnings
        .iter()
        .fold(FNV_SEED, |h, w| fnv1a(h, format!("{w:?}\n").as_bytes()))
}

/// `(SLOG2 digest, warning-list digest)` of an in-memory conversion.
fn digests(conv: &Converter, src: TraceSource<'_>) -> (u64, u64) {
    let c = conv.convert(src).expect("conversion");
    (
        fnv1a(FNV_SEED, &c.file.to_bytes()),
        warnings_digest(&c.warnings),
    )
}

/// Every warning kind the scan and the arrow matcher raise shows up
/// in `warnings`.
fn assert_messy(name: &str, warnings: &[ConvertWarning]) {
    let kinds = [
        "UnmatchedEnd",
        "UnclosedState",
        "BackwardState",
        "UnknownEventId",
        "UnmatchedSend",
        "UnmatchedRecv",
    ];
    for kind in kinds {
        let seen = warnings.iter().any(|w| format!("{w:?}").starts_with(kind));
        assert!(seen, "{name}: no {kind} warning");
    }
}

/// One log shape and its pinned digests: strict file and warnings, then
/// the 70% prefix's salvaged file and warnings.
struct Pin {
    name: &'static str,
    lens: &'static [usize],
    strict: (u64, u64),
    salvaged: (u64, u64),
}

const PINS: [Pin; 3] = [
    Pin {
        name: "1 rank",
        lens: &[40_000],
        strict: (0xbd95_aff3_cd92_6c5e, 0xce7a_e793_5120_c3ec),
        salvaged: (0xe47f_d277_6e58_8927, 0x8174_76fc_6464_1264),
    },
    Pin {
        name: "3 ranks",
        lens: &[20_000, 21_500, 23_000],
        strict: (0xfc61_27ea_8c92_abc2, 0x1a26_7c1f_fd4c_6b05),
        salvaged: (0x1a27_e5c2_166a_1a6f, 0x5359_6a21_dc21_f9a0),
    },
    Pin {
        name: "5 ranks",
        lens: &[20_000, 21_500, 23_000, 24_500, 26_000],
        strict: (0x9ceb_ae90_bc66_4820, 0x4fb0_b3e4_f486_3122),
        salvaged: (0xb45d_fd25_6994_4de2, 0x07de_9f86_359c_13af),
    },
];

#[test]
fn long_block_conversions_are_pinned() {
    let dir = std::env::temp_dir().join(format!("slog2-long-blocks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("out.pslog2");
    for pin in &PINS {
        let clog = messy_log(pin.lens);
        let bytes = clog.to_bytes();
        let name = pin.name;
        for threads in [1, 2] {
            let conv = Converter::new().parallelism(threads);
            let cells = [
                ("InMemory", TraceSource::InMemory(&clog)),
                ("Bytes", TraceSource::Bytes(&bytes)),
            ];
            for (source, src) in cells {
                let got = digests(&conv, src);
                assert_eq!(got, pin.strict, "{name}, {source}, {threads} threads");
            }

            let summary = conv
                .clone()
                .memory_budget(1)
                .spill_dir(dir.clone())
                .convert_to_path(TraceSource::Bytes(&bytes), &out)
                .expect("out-of-core conversion");
            let got = (
                fnv1a(FNV_SEED, &std::fs::read(&out).unwrap()),
                warnings_digest(&summary.warnings),
            );
            assert_eq!(got, pin.strict, "{name}, out of core, {threads} threads");

            let prefix = &bytes[..bytes.len() * 7 / 10];
            let got = digests(
                &conv
                    .clone()
                    .on_torn(TornPolicy::Salvage(SalvageReport::default())),
                TraceSource::Bytes(prefix),
            );
            assert_eq!(got, pin.salvaged, "{name}, 70% prefix, {threads} threads");
        }
        let c = Converter::new()
            .convert(TraceSource::InMemory(&clog))
            .unwrap();
        assert_messy(name, &c.warnings);
        let lens: Vec<usize> = clog.blocks.values().map(Vec::len).collect();
        assert_eq!(lens, pin.lens, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
