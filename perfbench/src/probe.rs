//! The traced run's per-layer probes: direct calls into each layer's
//! public functions on a workload's own traces, timed from outside,
//! plus the phase timings pilotd and the converter already expose.

use std::collections::BTreeMap;
use std::time::Instant;

use mpelog::clog2::StreamError;
use mpelog::Clog2File;
use pilot_vis::json::Json;
use slog2::{Conversion, Slog2File, TraceSource};
use timeline::TimelineService;

use crate::harness::{fnv, ms, Conn, Ctx, Pilotd, Run};
use crate::stats::median;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Converter stage spans (`Converter::observability`) reported as
/// per-layer metrics.
const STAGES: [(&str, &str); 3] = [
    ("scan", "slog2.scan_ms"),
    ("arrow-match", "slog2.arrow_match_ms"),
    ("tree-build", "slog2.tree_build_ms"),
];

/// Time every layer call of the pipeline on each CLOG2 image in
/// `traces`, `reps` times; times are totals over the set (medians over
/// repetitions), sizes are medians per trace.
pub fn layers(ctx: &Ctx, run: &Run, traces: &[Vec<u8>], reps: usize, out: &mut Metrics) {
    let mut totals: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut cold_us = Vec::new();
    let mut warm_us = Vec::new();
    let (mut records, mut sizes, mut drawables) = (Vec::new(), Vec::new(), Vec::new());
    for rep_idx in 0..reps {
        let mut rep: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut add = |name: &'static str, v: f64| *rep.entry(name).or_default() += v;
        for bytes in traces {
            let t = Instant::now();
            let salvaged = Clog2File::salvage_bytes(bytes);
            add("mpelog.decode_ms", ms(t));
            run.tally
                .check(!salvaged.truncated, || "probe CLOG2 decodes whole".into());
            let clog = salvaged.file;
            let t = Instant::now();
            let encoded = clog.to_bytes();
            add("mpelog.encode_ms", ms(t));
            run.tally.check(encoded == *bytes, || {
                "CLOG2 re-encodes byte-identically".into()
            });

            // Every conversion but the parallel in-memory one is reduced
            // to its digest at once, so only one converted file is live.
            let digest_of = |c: Result<Conversion, _>| c.ok().map(|c| fnv(&c.file.to_bytes()));
            let t = Instant::now();
            let par = ctx.converter().convert(TraceSource::InMemory(&clog));
            add("slog2.convert_ms", ms(t));
            let t = Instant::now();
            let serial = ctx
                .converter()
                .parallelism(1)
                .convert(TraceSource::InMemory(&clog));
            add("slog2.convert_serial_ms", ms(t));
            let serial = digest_of(serial);
            let path = ctx.work.join("probe.pclog2");
            std::fs::write(&path, bytes).expect("write probe CLOG2");
            let t = Instant::now();
            let mapped = TraceSource::mmap(&path)
                .map_err(StreamError::from)
                .and_then(|src| ctx.converter().convert(src));
            add("slog2.mmap_ms", ms(t));
            let mapped = digest_of(mapped);

            let obs = obs::Obs::handle();
            let staged = ctx
                .converter()
                .observability(obs.clone())
                .convert(TraceSource::InMemory(&clog));
            for ev in obs.tracer.events() {
                if let Some((_, name)) = STAGES.iter().find(|(s, _)| *s == ev.name && ev.tid == 0) {
                    add(name, ev.dur_us as f64 / 1e3);
                }
            }
            let staged = digest_of(staged);

            let Ok(par) = par else {
                run.tally.check(false, || "probe conversion failed".into());
                continue;
            };
            if rep_idx == 0 {
                records.push(clog.total_records() as f64);
                sizes.push(bytes.len() as f64);
                drawables.push(par.file.total_drawables() as f64);
            }
            let t = Instant::now();
            let slog = par.file.to_bytes();
            add("slog2.encode_ms", ms(t));
            drop(par);
            let digest = fnv(&slog);
            run.tally.check(
                [serial, mapped, staged].iter().all(|d| *d == Some(digest)),
                || "serial, mmap and parallel SLOG2 digests differ".into(),
            );
            let out_path = ctx.work.join("probe.pslog2");
            let t = Instant::now();
            std::fs::write(&out_path, &slog).expect("write probe SLOG2");
            add("slog2.write_ms", ms(t));
            let t = Instant::now();
            let decoded = Slog2File::from_bytes(&slog).expect("SLOG2 round-trips");
            add("slog2.decode_ms", ms(t));
            let t = Instant::now();
            let defects = slog2::validate(&decoded);
            add("slog2.validate_ms", ms(t));
            run.tally
                .check(defects.is_empty(), || "probe SLOG2 validates".into());

            let t = Instant::now();
            let svc = TimelineService::with_obs(decoded, digest, obs::Obs::handle());
            add("timeline.index_build_ms", ms(t));
            for rank in 0..svc.file().timelines.len() as u32 {
                for sink in [&mut cold_us, &mut warm_us] {
                    let t = Instant::now();
                    let tile = svc.tile_json(rank, 0, 0);
                    sink.push(ms(t) * 1e3);
                    std::hint::black_box(tile);
                }
            }
        }
        for (k, v) in rep {
            totals.entry(k).or_default().push(v);
        }
    }
    for (k, v) in totals {
        out.insert(k, median(&v));
    }
    let par = out["slog2.convert_ms"];
    out.insert(
        "slog2.parallel_speedup",
        if par > 0.0 {
            out["slog2.convert_serial_ms"] / par
        } else {
            0.0
        },
    );
    out.insert("timeline.tile_cold_us", median(&cold_us));
    out.insert("timeline.tile_warm_us", median(&warm_us));
    out.insert("mpelog.records", median(&records));
    out.insert("mpelog.bytes", median(&sizes));
    out.insert("slog2.drawables", median(&drawables));
}

/// Client round trip of a cached tile minus the direct call that
/// answers it: what HTTP and routing add to a cache hit.
pub fn http_overhead_us(run: &Run, pilotd: &Pilotd, conn: &mut Conn, out: &mut Metrics) {
    let svc = &pilotd.app.registry().default_trace().service;
    let mut rtt = Vec::new();
    let mut direct = Vec::new();
    for round in 0..3 {
        for rank in 0..svc.file().timelines.len() as u32 {
            let path = format!("/v1/tile?rank={rank}&zoom=0&tile=0");
            let reply = conn.get(&path);
            run.tally
                .check(reply.status == 200, || format!("{path}: {}", reply.status));
            if round > 0 {
                rtt.push(reply.ms * 1e3);
                let t = Instant::now();
                std::hint::black_box(svc.tile_json(rank, 0, 0));
                direct.push(ms(t) * 1e3);
            }
        }
    }
    out.insert("timeline.http_overhead_us", median(&rtt) - median(&direct));
}

/// Open `n` short-lived connections, one tile request each. pilotd
/// charges accept-queue wait to a connection's first request only, so
/// the keep-alive viewers alone would never sample the `queue` phase.
pub fn fresh_connections(run: &Run, pilotd: &Pilotd, n: usize) {
    for _ in 0..n {
        let mut conn = Conn::new(pilotd.port());
        let reply = conn.get("/v1/tile?rank=0&zoom=0&tile=0");
        run.tally.check(reply.status == 200, || {
            format!("fresh connection: {}", reply.status)
        });
    }
}

/// pilotd's own tile-phase percentiles from `/v1/obs/endpoints`
/// (recorded because the traced run calls `App::enable_tracing`).
pub fn server_phases(run: &Run, conn: &mut Conn, out: &mut Metrics) {
    const PHASES: [[&str; 3]; 6] = [
        ["queue", "timeline.queue_p50_us", "timeline.queue_p99_us"],
        ["parse", "timeline.parse_p50_us", "timeline.parse_p99_us"],
        ["cache", "timeline.cache_p50_us", "timeline.cache_p99_us"],
        ["index", "timeline.index_p50_us", "timeline.index_p99_us"],
        ["render", "timeline.render_p50_us", "timeline.render_p99_us"],
        ["write", "timeline.write_p50_us", "timeline.write_p99_us"],
    ];
    let reply = conn.get("/v1/obs/endpoints");
    let doc = Json::parse(&reply.body).ok();
    run.tally.check(reply.status == 200 && doc.is_some(), || {
        format!("/v1/obs/endpoints: {}", reply.status)
    });
    let tile = doc.as_ref().and_then(|d| {
        d.get("endpoints")?
            .as_arr()?
            .iter()
            .find(|e| e.get("endpoint").and_then(Json::as_str) == Some("tile"))
            .cloned()
    });
    for [phase, p50, p99] in PHASES {
        let get = |q: &str| {
            tile.as_ref()
                .and_then(|t| t.get("phases")?.get(phase)?.get(q)?.as_f64())
                .unwrap_or(0.0)
        };
        out.insert(p50, get("p50_us"));
        out.insert(p99, get("p99_us"));
    }
}
