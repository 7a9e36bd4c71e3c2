//! `classroom`: back-to-back student sessions over the registry
//! programs. A session runs a program with MPE logging on, uploads its
//! CLOG2 to pilotd, opens the first screen, renders the full view,
//! asks for the diagnosis, and archives the log as SLOG2 under a memory
//! budget. The runtime and the logging layer do most of the work; the
//! traces stay small, so converter scaling and the tile cache are
//! barely touched.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mpelog::Record;
use pilot::{PilotConfig, PilotOutcome, Services};
use slog2::TraceSource;

use crate::harness::{
    convert_bytes, first_screen, fnv, ms, timed_setups, Answer, Conn, Ctx, Oracle, Outcome, Pilotd,
    Rng, Run, Scale,
};
use crate::probe::{self, Metrics};
use crate::report::{self, ServerCounts};
use crate::stats::median;

/// The registry programs a class runs (`workloads::workload_by_name`).
pub const PROGRAMS: [&str; 5] = [
    "thumbnail",
    "lab2",
    "collision-a",
    "collision-b",
    "pipeline",
];

pub fn ranks(scale: Scale) -> usize {
    match scale {
        Scale::Full => 32,
        Scale::Tiny => 6,
    }
}

/// A Pilot run under the virtual engine, with or without `-pisvc=j`.
pub fn config(ranks: usize, seed: u64, logged: bool) -> PilotConfig {
    let cfg = PilotConfig::new(ranks).with_engine(minimpi::Engine::Virtual { seed });
    if logged {
        cfg.with_services(Services::parse("j").expect("valid service letters"))
    } else {
        cfg
    }
}

/// Run a registry program; its self-check panics are caught and
/// reported as a failed run, not fatal.
pub fn run_program(run: &Run, name: &str, cfg: PilotConfig) -> Option<PilotOutcome> {
    let w = workloads::workload_by_name(name).expect("registered workload");
    let outcome = catch_unwind(AssertUnwindSafe(|| w.run(cfg)));
    let clean = matches!(&outcome, Ok(o) if o.is_clean());
    run.tally
        .check(clean, || format!("{name}: run panicked or was not clean"))
        .then(|| outcome.ok())
        .flatten()
}

/// What a program's reference run produced: the bytes every later
/// session must reproduce, and the oracle's answers for them.
struct Program {
    name: &'static str,
    clog_digest: u64,
    slog_digest: u64,
    drawables: f64,
    svg_digest: u64,
    diagnose_digest: u64,
    clog: Vec<u8>,
}

struct Setup {
    pilotd: Pilotd,
    oracle: Oracle,
    programs: Vec<Program>,
}

fn setup(ctx: &Ctx, run: &Run) -> Setup {
    let ranks = ranks(ctx.scale);
    let mut files = Vec::new();
    let mut programs = Vec::new();
    for name in PROGRAMS {
        let Some(out) = run_program(run, name, config(ranks, ctx.seed, true)) else {
            continue;
        };
        let clog = out.clog().expect("logged run has a CLOG2").to_bytes();
        let file = convert_bytes(ctx, &clog);
        programs.push(Program {
            name,
            clog_digest: fnv(&clog),
            slog_digest: fnv(&file.to_bytes()),
            drawables: file.total_drawables() as f64,
            svg_digest: 0,
            diagnose_digest: 0,
            clog,
        });
        files.push(file);
    }
    let oracle = Oracle::new(files);
    for (i, p) in programs.iter_mut().enumerate() {
        let svc = oracle.service(i);
        p.svg_digest = fnv(svc
            .render("svg", None, 1280, false)
            .expect("svg")
            .1
            .as_bytes());
        p.diagnose_digest = fnv(svc.diagnose_json().as_bytes());
    }
    // The registry holds about four sessions' logs, so uploads evict.
    let largest = programs.iter().map(|p| p.clog.len()).max().unwrap_or(0);
    let default = convert_bytes(ctx, &programs[0].clog);
    let budget = default.to_bytes().len() + 4 * largest;
    Setup {
        pilotd: Pilotd::start(ctx, default, budget),
        oracle,
        programs,
    }
}

/// One student session; `id` names the upload and the session.
fn session(ctx: &Ctx, run: &Run, conn: &mut Conn, s: &Setup, p: usize, id: u64, traced: bool) {
    let prog = &s.programs[p];
    let started = Instant::now();
    let requests = conn.requests;
    let root = run.tracer.root("session", id, 0, traced);
    let outcome = {
        let _s = run.tracer.span("pilot.run");
        run_program(run, prog.name, config(ranks(ctx.scale), ctx.seed, true))
    };
    let Some(clog) = outcome.as_ref().and_then(PilotOutcome::clog) else {
        return;
    };
    let bytes = {
        let _s = run.tracer.span("mpelog.encode");
        clog.to_bytes()
    };
    run.tally.check(fnv(&bytes) == prog.clog_digest, || {
        format!(
            "{}: CLOG2 digest differs from the same seed's reference run",
            prog.name
        )
    });
    let sends = clog.blocks.values().flatten();
    run.push(
        "messages",
        sends.filter(|r| matches!(r, Record::Send { .. })).count() as f64,
    );
    if let Some(w) = outcome.as_ref().and_then(|o| o.artifacts.wrapup_seconds) {
        run.push("wrapup_ms", w * 1e3);
    }

    let trace = format!("s{id}");
    let up = {
        let _s = run.tracer.span("timeline.upload");
        conn.post(&format!("/v1/traces?id={trace}"), &bytes)
    };
    if !run.tally.check(up.status == 201, || {
        format!("upload {trace}: {}", up.status)
    }) {
        return;
    }
    run.push_work("convert", prog.drawables, up.ms / 1e3);
    if first_screen(conn, run, &s.oracle, (p, &trace), || false) != Answer::Ok {
        return;
    }
    run.push("ready_ms", ms(started));

    let svg = {
        let _s = run.tracer.span("jumpshot.render");
        conn.get(&format!("/v1/render?backend=svg&trace={trace}"))
    };
    let ok = svg.status == 200 && fnv(svg.body.as_bytes()) == prog.svg_digest;
    run.push("render_ms", if ok { svg.ms } else { f64::INFINITY });
    run.push("svg_bytes", svg.body.len() as f64);
    run.tally.check(ok, || {
        format!("render {trace}: {} or SVG differs", svg.status)
    });
    let diag = {
        let _s = run.tracer.span("analysis.diagnose");
        conn.get(&format!("/v1/diagnose?trace={trace}"))
    };
    run.tally.check(
        diag.status == 200 && fnv(diag.body.as_bytes()) == prog.diagnose_digest,
        || format!("diagnose {trace}: {} or verdict differs", diag.status),
    );

    let t = Instant::now();
    let archived = {
        let _s = run.tracer.span("slog2.oocore");
        ctx.oocore(bytes.len())
            .convert_to_path(TraceSource::Bytes(&bytes), &ctx.work.join("session.pslog2"))
    };
    run.push_work("oocore", prog.drawables, t.elapsed().as_secs_f64());
    run.tally.check(
        matches!(&archived, Ok(sum) if sum.digest == prog.slog_digest),
        || {
            format!(
                "{}: out-of-core SLOG2 digest differs from in-memory",
                prog.name
            )
        },
    );
    drop(root);
    run.unit_done(prog.name, traced, started, conn.requests - requests);
}

pub fn run(ctx: &Ctx, run: &Run) -> Outcome {
    let (s, setup_s) = timed_setups(|| setup(ctx, run));
    let mut conn = Conn::new(s.pilotd.port());
    if ctx.traced {
        s.pilotd.app.enable_tracing();
    }
    let before = ServerCounts::read(&s.pilotd);
    let mut rng = Rng::new(ctx.seed);
    let mut order: Vec<usize> = (0..s.programs.len()).collect();
    let start = Instant::now();
    let mut id = 0u64;
    // Whole rounds of every program keep the session mix fixed; the
    // traced run alternates traced and untraced rounds.
    for round in 0.. {
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        rng.shuffle(&mut order);
        for &p in &order {
            session(ctx, run, &mut conn, &s, p, id, ctx.traced && round % 2 == 1);
            id += 1;
        }
    }

    let facts = facts(ctx, &s);
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
        paired_runs(ctx, run, &s, &mut metrics);
        let clogs: Vec<Vec<u8>> = s.programs.iter().map(|p| p.clog.clone()).collect();
        probe::layers(ctx, run, &clogs, 3, &mut metrics);
        metrics.insert("pilot.messages", median(&run.samples("messages")));
        metrics.insert("mpelog.wrapup_ms", median(&run.samples("wrapup_ms")));
    } else {
        metrics = report::end_to_end(run, setup_s, start);
    }
    drop(conn);
    s.pilotd.stop();
    Outcome { metrics, facts }
}

/// Logging overhead as the paper measures it (Table 1): the same run
/// with and without `-pisvc=j`, paired and alternated.
fn paired_runs(ctx: &Ctx, run: &Run, s: &Setup, out: &mut Metrics) {
    let ranks = ranks(ctx.scale);
    let mut unlogged = Vec::new();
    let mut overhead = Vec::new();
    for pair in 0..6 {
        for p in &s.programs {
            let time = |logged: bool| {
                let t = Instant::now();
                run_program(run, p.name, config(ranks, ctx.seed, logged));
                ms(t)
            };
            let (on, off) = if pair % 2 == 0 {
                let on = time(true);
                (on, time(false))
            } else {
                let off = time(false);
                (time(true), off)
            };
            unlogged.push(off);
            overhead.push((on / off - 1.0) * 100.0);
        }
    }
    out.insert("pilot.run_unlogged_ms", median(&unlogged));
    out.insert("mpelog.overhead_pct", median(&overhead));
}

fn facts(ctx: &Ctx, s: &Setup) -> Vec<(String, String)> {
    let mut f = vec![
        ("ranks_per_program".into(), ranks(ctx.scale).to_string()),
        ("client_connections".into(), "1".into()),
    ];
    for p in &s.programs {
        f.push((
            format!("trace.{}", p.name),
            format!("{} drawables, {} CLOG2 bytes", p.drawables, p.clog.len()),
        ));
    }
    f
}
