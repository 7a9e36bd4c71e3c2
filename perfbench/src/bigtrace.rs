//! `bigtrace`: one synthetic CLOG2 of about a million drawables on
//! disk. A session converts it as `clog2slog2 --mmap` would, writes the
//! SLOG2, uploads it, opens the first screen, browses half a seeded
//! pan/zoom path, converts the same trace out-of-core under a budget,
//! and browses the rest of the path.
//! Conversion, SLOG2 encode/decode and index build do almost all the
//! work; the runtime is bypassed.

use std::collections::HashSet;
use std::time::Instant;

use slog2::TraceSource;

use crate::harness::{
    ask, convert_bytes, first_screen, fnv, ms, timed_setups, Answer, Ask, Conn, Ctx, Oracle,
    Outcome, Pilotd, Rng, Run, Scale,
};
use crate::probe::{self, Metrics};
use crate::report::{self, ServerCounts};

const RANKS: usize = 8;

/// Calls per rank of `workloads::synthetic_clog`; two drawables per
/// rank per call. The seed moves the size by under 0.1%.
fn calls(scale: Scale, seed: u64) -> usize {
    let base = match scale {
        Scale::Full => 62_500,
        Scale::Tiny => 1_000,
    };
    base + (seed % 64) as usize
}

/// The zooms the browse path dives from and to, and how many tiles it
/// opens at the bottom. At zoom 7 a tile holds about a thousand
/// drawables per rank, past pilotd's detail limit, so every tile is
/// answered from the frame-tree previews.
const DIVE_FROM: u8 = 3;
const MAX_ZOOM: u8 = 7;
const JUMPS: u32 = 11;
/// How many times the viewer flips between each new screen and the one
/// before it.
const FLIPS: usize = 4;

/// The browse path after the first screen: dive from zoom [`DIVE_FROM`]
/// to [`MAX_ZOOM`] through seeded children, then open [`JUMPS`] tiles
/// spread evenly across the range from a seeded offset, after each
/// flipping [`FLIPS`] times between it and the screen before to compare
/// the two. The jumps sample alignments with the frame tree alike
/// whatever the seed, so every seed does about the same work.
///
/// The flips set what `tile_p50_ms` measures here. A flip is answered
/// from pilotd's tile cache, and with these counts cached tiles are
/// about seven in ten of the session's tiles, so the run's median is a
/// cached tile. A median over only new tiles measured walks of the
/// million-drawable frame tree, whose cost moves by up to 1.5x between
/// runs of the same code on a shared host (where the process's memory
/// lies relative to the core it runs on): ten-run spreads reached 0.28.
/// The dive starts below zoom 3 because zoom-1 and zoom-2 tiles cost
/// tens of milliseconds each, enough to make pilotd rather than the
/// converter the workload's largest layer.
fn browse_path(rng: &mut Rng) -> Vec<(u8, u32)> {
    let mut tile = rng.below(1 << DIVE_FROM) as u32;
    let mut steps = vec![(DIVE_FROM, tile)];
    for zoom in DIVE_FROM + 1..=MAX_ZOOM {
        tile = tile * 2 + rng.below(2) as u32;
        steps.push((zoom, tile));
    }
    let width = 1u32 << MAX_ZOOM;
    let offset = rng.below(u64::from(width)) as u32;
    let mut before = tile;
    for k in 1..=JUMPS {
        let next = (offset + k * width / JUMPS) % width;
        steps.push((MAX_ZOOM, next));
        steps.extend([(MAX_ZOOM, before), (MAX_ZOOM, next)].repeat(FLIPS / 2));
        before = next;
    }
    steps
}

struct Setup {
    pilotd: Pilotd,
    oracle: Oracle,
    clog: Vec<u8>,
    slog_digest: u64,
    drawables: f64,
    /// The browse path, identical in every session.
    path: Vec<Ask>,
}

fn setup(ctx: &Ctx) -> Setup {
    let clog = workloads::synthetic_clog(RANKS, calls(ctx.scale, ctx.seed)).to_bytes();
    std::fs::write(ctx.work.join("big.pclog2"), &clog).expect("write the CLOG2 input");
    let file = convert_bytes(ctx, &clog);
    let slog = file.to_bytes();
    let drawables = file.total_drawables() as f64;
    let default = convert_bytes(ctx, &workloads::synthetic_clog(2, 16).to_bytes());
    // Room for one big trace: each session's upload evicts the last.
    let budget = default.to_bytes().len() + slog.len() * 3 / 2;
    let mut path = Vec::new();
    let mut seen = HashSet::new();
    for (step, (zoom, tile)) in browse_path(&mut Rng::new(ctx.seed)).into_iter().enumerate() {
        path.extend((0..RANKS as u32).map(|rank| Ask::Tile { rank, zoom, tile }));
        if step % 4 == 3 {
            path.push(Ask::Query {
                zoom,
                tile,
                first: 0,
                count: RANKS as u32,
            });
        }
        // Full-view SVGs of a million drawables run to ~80 MB; the
        // viewer renders the window at zoom 6 and each new one at 7.
        if seen.insert((zoom, tile)) && zoom >= MAX_ZOOM - 1 {
            path.push(Ask::Render { zoom, tile });
        }
    }
    Setup {
        pilotd: Pilotd::start(ctx, default, budget),
        oracle: Oracle::new(vec![file]),
        slog_digest: fnv(&slog),
        clog,
        drawables,
        path,
    }
}

fn session(ctx: &Ctx, run: &Run, conn: &mut Conn, s: &Setup, id: u64, traced: bool) {
    let started = Instant::now();
    let requests = conn.requests;
    let root = run.tracer.root("session", id, 0, traced);
    let input = ctx.work.join("big.pclog2");
    let output = ctx.work.join("big.pslog2");
    let converted = {
        let _s = run.tracer.span("slog2.mmap");
        TraceSource::mmap(&input)
            .ok()
            .and_then(|src| ctx.converter().convert(src).ok())
    };
    let Some(conv) = converted else {
        run.tally.check(false, || "mmap conversion failed".into());
        return;
    };
    let slog = {
        let _s = run.tracer.span("slog2.encode");
        conv.file.to_bytes()
    };
    drop(conv);
    run.tally.check(fnv(&slog) == s.slog_digest, || {
        "mmap SLOG2 digest differs from the in-memory conversion".into()
    });
    {
        let _s = run.tracer.span("slog2.write");
        std::fs::write(&output, &slog).expect("write the SLOG2 output");
    }
    drop(slog);
    run.push_work("convert", s.drawables, started.elapsed().as_secs_f64());

    let trace = format!("big{id}");
    let up = {
        let _s = run.tracer.span("timeline.upload");
        let body = std::fs::read(&output).expect("read the SLOG2 back");
        conn.post(&format!("/v1/traces?id={trace}"), &body)
    };
    if !run.tally.check(up.status == 201, || {
        format!("upload {trace}: {}", up.status)
    }) {
        return;
    }
    if first_screen(conn, run, &s.oracle, (0, &trace), || false) != Answer::Ok {
        return;
    }
    run.push("ready_ms", ms(started));
    // The viewer browses half the path, archives the trace, and browses
    // the rest: tile and render samples fall at two points of every
    // session, which samples the host's speed at twice as many moments
    // as one block of requests would.
    let (before, after) = s.path.split_at(s.path.len() / 2);
    let browse = |conn: &mut Conn, part: &[Ask]| {
        part.iter()
            .all(|&a| ask(conn, run, &s.oracle, (0, &trace), a, || false) == Answer::Ok)
    };
    if !browse(conn, before) {
        return;
    }

    let t = Instant::now();
    let archived = {
        let _s = run.tracer.span("slog2.oocore");
        TraceSource::mmap(&input).ok().and_then(|src| {
            ctx.oocore(s.clog.len())
                .convert_to_path(src, &ctx.work.join("big-oocore.pslog2"))
                .ok()
        })
    };
    run.push_work("oocore", s.drawables, t.elapsed().as_secs_f64());
    run.tally.check(
        matches!(&archived, Some(sum) if sum.digest == s.slog_digest),
        || "out-of-core SLOG2 digest differs from in-memory".into(),
    );
    if !browse(conn, after) {
        return;
    }
    drop(root);
    run.unit_done("session", traced, started, conn.requests - requests);
}

pub fn run(ctx: &Ctx, run: &Run) -> Outcome {
    let (s, setup_s) = timed_setups(|| setup(ctx));
    let mut conn = Conn::new(s.pilotd.port());
    // One unmeasured session first: it fills the oracle's memo of the
    // path's answers, and it leaves a big trace in the registry, so every
    // measured upload evicts one as in steady use.
    session(ctx, run, &mut conn, &s, u64::MAX, false);
    run.discard_measurements();
    if ctx.traced {
        s.pilotd.app.enable_tracing();
    }
    let before = ServerCounts::read(&s.pilotd);
    let start = Instant::now();
    let mut id = 0;
    // The traced run alternates traced and untraced sessions and needs
    // at least one of each.
    while start.elapsed().as_secs_f64() < ctx.seconds || (ctx.traced && id < 2) {
        session(ctx, run, &mut conn, &s, id, ctx.traced && id % 2 == 0);
        id += 1;
    }

    let facts = vec![
        ("ranks_per_program".into(), RANKS.to_string()),
        ("client_connections".into(), "1".into()),
        (
            "trace.synthetic".into(),
            format!("{} drawables, {} CLOG2 bytes", s.drawables, s.clog.len()),
        ),
    ];
    let mut metrics = Metrics::new();
    if ctx.traced {
        report::per_layer(
            run,
            &s.pilotd,
            &mut conn,
            before,
            &ctx.trace_out,
            &facts,
            &mut metrics,
        );
        probe::layers(ctx, run, std::slice::from_ref(&s.clog), 1, &mut metrics);
    } else {
        metrics = report::end_to_end(run, setup_s, start);
    }
    drop(conn);
    s.pilotd.stop();
    Outcome { metrics, facts }
}
