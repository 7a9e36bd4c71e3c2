//! `viewers`: `nproc` keep-alive viewers replay seeded pan/zoom paths
//! over a pilotd preloaded with a ~64k-drawable synthetic trace and the
//! paper's programs; the paths mix in window queries and SVG renders.
//! One viewer also publishes fresh CLOG2 traces — archived out-of-core,
//! then uploaded — which evict older traces under the registry budget;
//! half of all visits open the newest trace, and a visit to an evicted
//! preloaded trace re-opens it. HTTP, the tile cache, the index
//! and jumpshot do most of the work; the runtime is bypassed.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Instant;

use pilot_vis::json::Json;
use slog2::TraceSource;

use crate::classroom::{config, run_program, PROGRAMS};
use crate::harness::{
    ask, browse_path, convert_bytes, first_screen, fnv, ms, timed_setups, Answer, Ask, Conn, Ctx,
    Oracle, Outcome, Pilotd, Rng, Run, Scale,
};
use crate::probe::{self, Metrics};
use crate::report::{self, ServerCounts};

struct Params {
    synthetic_calls: usize,
    preload_ranks: usize,
    fresh_ranks: usize,
    fresh_traces: usize,
    max_zoom: u8,
    pans: usize,
}

fn params(scale: Scale, seed: u64) -> Params {
    match scale {
        // 8 ranks x 4000 calls x 2 drawables: the ~64k-drawable trace.
        Scale::Full => Params {
            synthetic_calls: 4000 + (seed % 16) as usize,
            preload_ranks: 32,
            fresh_ranks: 16,
            fresh_traces: 6,
            max_zoom: 6,
            pans: 2,
        },
        Scale::Tiny => Params {
            synthetic_calls: 100,
            preload_ranks: 6,
            fresh_ranks: 5,
            fresh_traces: 2,
            max_zoom: 2,
            pans: 1,
        },
    }
}

/// Ranks on one screen of the viewer.
const VIEWPORT: u32 = 8;
/// The publishing viewer uploads on every third visit.
const UPLOAD_EVERY: u64 = 3;

/// A CLOG2 trace ready to publish.
struct Fresh {
    clog: Vec<u8>,
    oracle_idx: usize,
    slog_digest: u64,
    drawables: f64,
}

struct Setup {
    pilotd: Pilotd,
    oracle: Oracle,
    /// Registry ID, oracle index and SLOG2 body (none for the pinned
    /// default) of every preloaded trace.
    catalog: Vec<(String, usize, Option<Vec<u8>>)>,
    fresh: Vec<Fresh>,
    probe_clogs: Vec<Vec<u8>>,
    facts: Vec<(String, String)>,
}

fn setup(ctx: &Ctx, run: &Run) -> Setup {
    let p = params(ctx.scale, ctx.seed);
    let synthetic = workloads::synthetic_clog(8, p.synthetic_calls).to_bytes();
    let mut files = vec![convert_bytes(ctx, &synthetic)];
    let mut facts = vec![
        (
            "ranks_per_program".into(),
            format!("{} preloaded, {} published", p.preload_ranks, p.fresh_ranks),
        ),
        ("client_connections".into(), ctx.nproc.to_string()),
        (
            "trace.default".into(),
            format!(
                "{} drawables, {} CLOG2 bytes",
                files[0].total_drawables(),
                synthetic.len()
            ),
        ),
    ];
    let mut probe_clogs = vec![synthetic];
    let mut preload_bodies = Vec::new();
    for name in PROGRAMS {
        let Some(out) = run_program(run, name, config(p.preload_ranks, ctx.seed, true)) else {
            continue;
        };
        let clog = out.clog().expect("logged run has a CLOG2").to_bytes();
        let file = convert_bytes(ctx, &clog);
        facts.push((
            format!("trace.p-{name}"),
            format!(
                "{} drawables, {} CLOG2 bytes",
                file.total_drawables(),
                clog.len()
            ),
        ));
        preload_bodies.push((format!("p-{name}"), files.len(), file.to_bytes()));
        files.push(file);
        probe_clogs.push(clog);
    }
    let mut fresh = Vec::new();
    for k in 0..p.fresh_traces {
        let name = PROGRAMS[k % PROGRAMS.len()];
        let cfg = config(p.fresh_ranks, ctx.seed + 1 + k as u64, true);
        let Some(out) = run_program(run, name, cfg) else {
            continue;
        };
        let clog = out.clog().expect("logged run has a CLOG2").to_bytes();
        let file = convert_bytes(ctx, &clog);
        fresh.push(Fresh {
            slog_digest: fnv(&file.to_bytes()),
            drawables: file.total_drawables() as f64,
            oracle_idx: files.len(),
            clog,
        });
        files.push(file);
    }
    // The preloaded traces plus about four published ones fit; every
    // further upload evicts the least recently viewed trace — mostly an
    // old published one, sometimes a preloaded one that a later visit
    // then re-opens.
    let default = files[0].clone();
    let largest = fresh.iter().map(|f| f.clog.len()).max().unwrap_or(0);
    let preloaded_bytes: usize = preload_bodies.iter().map(|(_, _, b)| b.len()).sum();
    let budget = default.to_bytes().len() + preloaded_bytes + 4 * largest;
    let pilotd = Pilotd::start(ctx, default, budget);
    let mut catalog = vec![("default".to_string(), 0, None)];
    for (id, idx, body) in preload_bodies {
        let ok = pilotd.app.registry().upload(Some(&id), &body).is_ok();
        if run.tally.check(ok, || format!("preload {id}")) {
            catalog.push((id, idx, Some(body)));
        }
    }
    Setup {
        pilotd,
        oracle: Oracle::new(files),
        catalog,
        fresh,
        probe_clogs,
        facts,
    }
}

/// What the viewers know about the registry.
#[derive(Default)]
struct Live {
    /// The latest published trace, which half of all visits open.
    newest: Option<(String, usize)>,
    /// IDs some upload's reply listed as evicted. A re-opened trace
    /// stays listed: another viewer may still be answering the 404 that
    /// sent it to re-open.
    evicted: HashSet<String>,
    published: u64,
}

struct Shared<'a> {
    ctx: &'a Ctx,
    run: &'a Run,
    s: &'a Setup,
    live: Mutex<Live>,
    /// Held by an uploader from sending an upload until its evictions
    /// are recorded in `live`.
    upload_gate: Mutex<()>,
}

impl Shared<'_> {
    /// A 404 is expected only for a trace an upload evicted. Evictions
    /// happen only inside an upload, and the uploader holds the gate
    /// until it has recorded them.
    fn evicted(&self, id: &str) -> bool {
        let _gate = self.upload_gate.lock().expect("upload gate poisoned");
        self.live
            .lock()
            .expect("live set poisoned")
            .evicted
            .contains(id)
    }

    /// Upload `body` as trace `id` and record what it evicted.
    fn upload(&self, conn: &mut Conn, id: &str, body: &[u8]) -> Option<f64> {
        let run = self.run;
        let _gate = self.upload_gate.lock().expect("upload gate poisoned");
        let up = {
            let _s = run.tracer.span("timeline.upload");
            conn.post(&format!("/v1/traces?id={id}"), body)
        };
        if !run
            .tally
            .check(up.status == 201, || format!("upload {id}: {}", up.status))
        {
            return None;
        }
        let evicted = Json::parse(&up.body).ok().and_then(|j| {
            let ids = j.get("evicted")?.as_arr()?;
            Some(
                ids.iter()
                    .filter_map(|e| e.as_str().map(String::from))
                    .collect::<Vec<_>>(),
            )
        });
        let mut live = self.live.lock().expect("live set poisoned");
        live.evicted.extend(evicted.unwrap_or_default());
        Some(up.ms)
    }

    fn publish(&self, conn: &mut Conn, visit: u64, traced: bool) {
        let (run, ctx) = (self.run, self.ctx);
        let started = Instant::now();
        let requests = conn.requests;
        let root = run.tracer.root("visit", visit, 0, traced);
        let k = {
            let mut live = self.live.lock().expect("live set poisoned");
            live.published += 1;
            live.published - 1
        };
        let f = &self.s.fresh[k as usize % self.s.fresh.len()];

        let t = Instant::now();
        let archived = {
            let _s = run.tracer.span("slog2.oocore");
            ctx.oocore(f.clog.len()).convert_to_path(
                TraceSource::Bytes(&f.clog),
                &ctx.work.join("archive.pslog2"),
            )
        };
        run.push_work("oocore", f.drawables, t.elapsed().as_secs_f64());
        run.tally.check(
            matches!(&archived, Ok(sum) if sum.digest == f.slog_digest),
            || "out-of-core SLOG2 digest differs from in-memory".into(),
        );

        let id = format!("f{k}");
        let t0 = Instant::now();
        let Some(upload_ms) = self.upload(conn, &id, &f.clog) else {
            return;
        };
        self.live.lock().expect("live set poisoned").newest = Some((id.clone(), f.oracle_idx));
        run.push_work("convert", f.drawables, upload_ms / 1e3);
        // A concurrent re-open can evict the new trace before its first
        // screen; that visit then has no ready time.
        let screen = (f.oracle_idx, id.as_str());
        if first_screen(conn, run, &self.s.oracle, screen, || self.evicted(&id)) == Answer::Ok {
            run.push("ready_ms", ms(t0));
            drop(root);
            run.unit_done("publish", traced, started, conn.requests - requests);
        }
    }

    /// One visit: the newest published trace half the time, otherwise
    /// one of the preloaded ones — re-opened (uploaded again) if the
    /// registry evicted it, so the mix of traces read stays fixed.
    fn browse(&self, conn: &mut Conn, rng: &mut Rng, visit: u64, traced: bool) {
        let (run, oracle) = (self.run, &self.s.oracle);
        let catalog = &self.s.catalog;
        let newest = self.live.lock().expect("live set poisoned").newest.clone();
        let (id, idx, body) = match newest {
            Some((id, idx)) if rng.below(2) == 0 => (id, idx, None),
            _ => {
                let (id, idx, body) = &catalog[rng.below(catalog.len() as u64) as usize];
                (id.clone(), *idx, body.as_deref())
            }
        };
        let started = Instant::now();
        let requests = conn.requests;
        let root = run.tracer.root("visit", visit, 0, traced);
        let ranks = oracle.ranks(idx);
        let first = rng.below(u64::from(ranks.div_ceil(VIEWPORT))) as u32 * VIEWPORT;
        let count = VIEWPORT.min(ranks - first);
        let p = params(self.ctx.scale, self.ctx.seed);
        let path = std::iter::once((0, 0)).chain(browse_path(rng, p.max_zoom, p.pans));
        for (step, (zoom, tile)) in path.enumerate() {
            let mut asks: Vec<Ask> = (first..first + count)
                .map(|rank| Ask::Tile { rank, zoom, tile })
                .collect();
            if step % 4 == 3 {
                asks.push(Ask::Query {
                    zoom,
                    tile,
                    first,
                    count,
                });
            }
            if step % 6 == 3 {
                // Render windows no wider than a quarter of the range,
                // as a viewer zoomed in far enough to read states would.
                let (zoom, tile) = if zoom >= 2 {
                    (zoom, tile)
                } else {
                    (2, tile << (2 - zoom))
                };
                asks.push(Ask::Render { zoom, tile });
            }
            for a in asks {
                let mut answer = ask(conn, run, oracle, (idx, &id), a, || self.evicted(&id));
                if let (Answer::Gone, Some(body)) = (answer, body) {
                    if self.upload(conn, &id, body).is_none() {
                        return;
                    }
                    answer = ask(conn, run, oracle, (idx, &id), a, || self.evicted(&id));
                }
                if answer != Answer::Ok {
                    return;
                }
            }
        }
        // Odd visits: the traced run traces those, so diagnoses show in it.
        if visit % 4 == 3 {
            let d = {
                let _s = run.tracer.span("analysis.diagnose");
                conn.get(&format!("/v1/diagnose?trace={id}"))
            };
            if d.status == 404 && self.evicted(&id) {
                return;
            }
            run.tally
                .check(d.status == 200, || format!("diagnose {id}: {}", d.status));
        }
        drop(root);
        run.unit_done("browse", traced, started, conn.requests - requests);
    }
}

pub fn run(ctx: &Ctx, run: &Run) -> Outcome {
    let (s, setup_s) = timed_setups(|| setup(ctx, run));
    if ctx.traced {
        s.pilotd.app.enable_tracing();
    }
    let shared = Shared {
        ctx,
        run,
        s: &s,
        live: Mutex::new(Live::default()),
        upload_gate: Mutex::new(()),
    };
    let before = ServerCounts::read(&s.pilotd);
    let port = s.pilotd.port();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..ctx.nproc as u64 {
            let shared = &shared;
            scope.spawn(move || {
                let mut conn = Conn::new(port);
                let mut rng = Rng::new(ctx.seed ^ (client + 1).wrapping_mul(0x9e37_79b9));
                let mut visit = 0u64;
                while start.elapsed().as_secs_f64() < ctx.seconds {
                    let traced = ctx.traced && visit % 2 == 1;
                    let unit = client << 32 | visit;
                    if client == 0 && visit.is_multiple_of(UPLOAD_EVERY) {
                        shared.publish(&mut conn, unit, traced);
                    } else {
                        shared.browse(&mut conn, &mut rng, unit, traced);
                    }
                    visit += 1;
                }
            });
        }
    });

    let mut metrics = Metrics::new();
    let mut conn = Conn::new(s.pilotd.port());
    if ctx.traced {
        report::per_layer(
            run,
            &s.pilotd,
            &mut conn,
            before,
            &ctx.trace_out,
            &s.facts,
            &mut metrics,
        );
        probe::layers(ctx, run, &s.probe_clogs, 3, &mut metrics);
    } else {
        metrics = report::end_to_end(run, setup_s, start);
    }
    drop(conn);
    let Setup { pilotd, facts, .. } = s;
    pilotd.stop();
    Outcome { metrics, facts }
}
