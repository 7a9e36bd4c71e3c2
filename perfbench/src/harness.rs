//! What every workload shares: run context, failure tally, sample
//! store, the in-process pilotd, a timed HTTP connection, and the
//! byte-equality oracle for tile and query bodies.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use slog2::{Converter, Slog2File, TimeWindow, TraceSource};
use timeline::{App, Client, Limits, Server, TimelineService};

use crate::spans::Tracer;

/// Input sizes. `Full` is what the benchmark measures; `Tiny` is the
/// self-test scale, small enough for `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Command-line settings of one run plus host facts.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The traced run (`--trace 1`): per-layer metrics instead of the
    /// end-to-end ones.
    pub traced: bool,
    pub scale: Scale,
    /// `nproc`: converter threads, pilotd workers, and the cap on
    /// client connections.
    pub nproc: usize,
    /// Scratch directory for trace files and spill runs; removed when
    /// the run ends.
    pub work: PathBuf,
    /// Where the traced run writes its spans (Chrome trace-event JSON).
    pub trace_out: PathBuf,
}

impl Ctx {
    /// Converter with `nproc` threads (the load shape every workload
    /// uses for its own conversions).
    pub fn converter(&self) -> Converter {
        Converter::new().parallelism(self.nproc)
    }

    /// Out-of-core converter: `nproc` threads, spill files in the work
    /// directory, and a budget the size of the CLOG2 image — about a
    /// tenth of the in-memory footprint, so the budgeted path spills.
    pub fn oocore(&self, clog_bytes: usize) -> Converter {
        self.converter()
            .memory_budget(clog_bytes.max(1))
            .spill_dir(self.work.clone())
    }
}

/// What a workload hands back: its metrics and the configuration
/// facts (trace sizes, ranks, connections) printed beside them.
pub struct Outcome {
    pub metrics: crate::probe::Metrics,
    pub facts: Vec<(String, String)>,
}

/// Set-up is repeated at least [`SETUP_MIN_REPS`] times per run and
/// until [`SETUP_MIN_SECS`] have passed, at most [`SETUP_MAX_REPS`]
/// times: a set-up of a fraction of a second then has a median over a
/// dozen samples, steady enough to compare between runs.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_SECS: f64 = 3.0;

/// Build a workload's set-up repeatedly (see [`SETUP_MIN_REPS`]),
/// dropping (and so stopping) each but the last; returns it with
/// `setup_s`, the median set-up time.
pub fn timed_setups<S>(mut make: impl FnMut() -> S) -> (S, f64) {
    let mut secs: Vec<f64> = Vec::new();
    let mut kept = None;
    while secs.len() < SETUP_MIN_REPS
        || (secs.iter().sum::<f64>() < SETUP_MIN_SECS && secs.len() < SETUP_MAX_REPS)
    {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(make());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        kept.expect("at least one set-up"),
        crate::stats::median(&secs),
    )
}

/// Attempted and failed operations; `error_rate` is their ratio.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Count one operation; a failed one is reported on stderr (the
    /// first few only) and makes the run incorrect.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            let n = self.failed.fetch_add(1, Ordering::Relaxed);
            if n < 10 {
                eprintln!("perfbench: FAILED: {}", what());
            }
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// One completed unit of work (a session or a visit): the traced run
/// compares traced and untraced units of the same `key` to measure the
/// tracing overhead.
struct UnitRec {
    key: String,
    traced: bool,
    secs: f64,
    end: Instant,
    requests: u64,
}

/// Everything one run accumulates, shared by its client threads.
#[derive(Default)]
pub struct Run {
    pub tally: Tally,
    pub tracer: Tracer,
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
    /// Work done and seconds spent on it, per throughput.
    work: Mutex<BTreeMap<&'static str, (f64, f64)>>,
    units: Mutex<Vec<UnitRec>>,
}

impl Run {
    pub fn push(&self, name: &'static str, v: f64) {
        self.samples
            .lock()
            .expect("sample store poisoned")
            .entry(name)
            .or_default()
            .push(v);
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples
            .lock()
            .expect("sample store poisoned")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Count `work` units done in `secs` seconds towards throughput
    /// `name`.
    pub fn push_work(&self, name: &'static str, work: f64, secs: f64) {
        let mut all = self.work.lock().expect("work store poisoned");
        let total = all.entry(name).or_default();
        total.0 += work;
        total.1 += secs;
    }

    /// Throughput `name`: all its work over all the seconds spent on
    /// it. With a handful of samples, as `bigtrace` has, this total
    /// moves with the host's average speed, where a median would flip
    /// between its speed modes. `0.0` when nothing was recorded.
    pub fn throughput(&self, name: &str) -> f64 {
        match self.work.lock().expect("work store poisoned").get(name) {
            Some(&(work, secs)) if secs > 0.0 => work / secs,
            _ => 0.0,
        }
    }

    /// Record a completed unit of kind `key` that began at `started`
    /// and made `requests` HTTP requests.
    pub fn unit_done(&self, key: &str, traced: bool, started: Instant, requests: u64) {
        self.units.lock().expect("unit log poisoned").push(UnitRec {
            key: key.to_string(),
            traced,
            secs: started.elapsed().as_secs_f64(),
            end: Instant::now(),
            requests,
        });
    }

    /// Units and the requests they made, per second of the loop that
    /// began at `start` and ended with its last unit.
    ///
    /// Rates and percentiles are read over the whole loop: on a shared
    /// host, keeping only its faster stretches (slices, units) made
    /// run-to-run spreads no smaller, since the noise moves whole runs.
    pub fn rates(&self, start: Instant) -> (f64, f64) {
        let units = self.units.lock().expect("unit log poisoned");
        let Some(end) = units.iter().map(|u| u.end).max() else {
            return (0.0, 0.0);
        };
        let secs = end.duration_since(start).as_secs_f64();
        let requests: u64 = units.iter().map(|u| u.requests).sum();
        (units.len() as f64 / secs, requests as f64 / secs)
    }

    /// Forget samples and units (the failure tally stays): what a warm-up leaves behind is not measured.
    pub fn discard_measurements(&self) {
        self.samples.lock().expect("sample store poisoned").clear();
        self.work.lock().expect("work store poisoned").clear();
        self.units.lock().expect("unit log poisoned").clear();
    }

    /// Tracing overhead in percent: per unit kind, the mean time of
    /// traced units over untraced ones; the median over kinds.
    pub fn trace_overhead_pct(&self) -> f64 {
        let units = self.units.lock().expect("unit log poisoned");
        let mut by_key: BTreeMap<&str, [(f64, f64); 2]> = BTreeMap::new();
        for u in units.iter() {
            let acc = &mut by_key.entry(&u.key).or_default()[usize::from(u.traced)];
            acc.0 += u.secs;
            acc.1 += 1.0;
        }
        let ratios: Vec<f64> = by_key
            .values()
            .filter(|[off, on]| off.1 > 0.0 && on.1 > 0.0)
            .map(|[off, on]| ((on.0 / on.1) / (off.0 / off.1) - 1.0) * 100.0)
            .collect();
        crate::stats::median(&ratios)
    }
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a digest, the same function pilotd and the converter use.
pub fn fnv(bytes: &[u8]) -> u64 {
    timeline::fnv1a(bytes)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Strict in-memory conversion of a CLOG2 image — the reference every
/// oracle compares against.
pub fn convert_bytes(ctx: &Ctx, clog: &[u8]) -> Slog2File {
    ctx.converter()
        .convert(TraceSource::Bytes(clog))
        .expect("generated CLOG2 converts")
        .file
}

/// An in-process pilotd: `nproc` workers over a byte-budgeted registry.
pub struct Pilotd {
    server: Server,
    pub app: Arc<App>,
}

impl Pilotd {
    pub fn start(ctx: &Ctx, default: Slog2File, budget_bytes: usize) -> Pilotd {
        let limits = Limits {
            budget_bytes,
            // The benchmark's uploads and big first screens are large
            // and slow by design; only real failures may answer non-200.
            max_body_bytes: 512 << 20,
            deadline: Duration::from_secs(60),
            queue_shed: Duration::from_secs(60),
            ..Limits::default()
        };
        let app = Arc::new(App::new(TimelineService::from_file(default), limits));
        let server = timeline::serve(Arc::clone(&app), "127.0.0.1:0", ctx.nproc)
            .expect("bind an ephemeral localhost port");
        Pilotd { server, app }
    }

    pub fn port(&self) -> u16 {
        self.server.port()
    }

    /// Obs counter on the server's shared registry.
    pub fn counter(&self, name: &str) -> u64 {
        self.app.obs_handle().snapshot().counter(name)
    }

    /// Stop accepting and join every server thread. Close client
    /// connections first: a worker serves one connection until it ends.
    pub fn stop(mut self) {
        self.server.stop();
    }
}

/// A reply and its client-measured latency.
pub struct Reply {
    pub status: u16,
    pub body: String,
    pub ms: f64,
}

/// One keep-alive client connection. Transport errors become status 0
/// and the next request reconnects.
pub struct Conn {
    port: u16,
    client: Option<Client>,
    /// Requests sent on this connection.
    pub requests: u64,
}

impl Conn {
    pub fn new(port: u16) -> Conn {
        Conn {
            port,
            client: None,
            requests: 0,
        }
    }

    pub fn get(&mut self, path: &str) -> Reply {
        self.send("GET", path, None)
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> Reply {
        self.send("POST", path, Some(body))
    }

    fn send(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> Reply {
        let started = Instant::now();
        self.requests += 1;
        if self.client.is_none() {
            match Client::connect(&format!("127.0.0.1:{}", self.port)) {
                Ok(c) => self.client = Some(c),
                Err(e) => {
                    return Reply {
                        status: 0,
                        body: e.to_string(),
                        ms: ms(started),
                    }
                }
            }
        }
        let result = self
            .client
            .as_mut()
            .expect("connected above")
            .send(method, path, &[], body);
        match result {
            Ok(r) => Reply {
                status: r.status,
                body: r.body,
                ms: ms(started),
            },
            Err(e) => {
                self.client = None;
                Reply {
                    status: 0,
                    body: e.to_string(),
                    ms: ms(started),
                }
            }
        }
    }
}

/// What an oracle entry answers for. `Render` is an SVG of one tile's
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ask {
    Tile {
        rank: u32,
        zoom: u8,
        tile: u32,
    },
    Query {
        zoom: u8,
        tile: u32,
        first: u32,
        count: u32,
    },
    Render {
        zoom: u8,
        tile: u32,
    },
}

/// Independently loaded services for every trace a workload serves,
/// plus a memo of their answers' digests: pilotd's bodies must be
/// byte-equal to these.
pub struct Oracle {
    services: Vec<TimelineService>,
    memo: Mutex<HashMap<(usize, Ask), u64>>,
}

impl Oracle {
    pub fn new(files: Vec<Slog2File>) -> Oracle {
        Oracle {
            services: files.into_iter().map(TimelineService::from_file).collect(),
            memo: Mutex::new(HashMap::new()),
        }
    }

    pub fn service(&self, trace: usize) -> &TimelineService {
        &self.services[trace]
    }

    pub fn ranks(&self, trace: usize) -> u32 {
        self.services[trace].file().timelines.len() as u32
    }

    fn window(&self, trace: usize, zoom: u8, tile: u32) -> TimeWindow {
        self.services[trace]
            .tile_window(zoom, tile)
            .expect("paths stay inside the tile pyramid")
    }

    /// The request path (without the `trace=` selector) for `ask`.
    pub fn path(&self, trace: usize, ask: Ask) -> String {
        match ask {
            Ask::Tile { rank, zoom, tile } => {
                format!("/v1/tile?rank={rank}&zoom={zoom}&tile={tile}")
            }
            Ask::Query {
                zoom,
                tile,
                first,
                count,
            } => {
                let w = self.window(trace, zoom, tile);
                let ranks: Vec<String> = (first..first + count).map(|r| r.to_string()).collect();
                format!(
                    "/v1/query?t0={}&t1={}&ranks={}",
                    w.t0,
                    w.t1,
                    ranks.join(",")
                )
            }
            Ask::Render { zoom, tile } => {
                let w = self.window(trace, zoom, tile);
                format!("/v1/render?backend=svg&t0={}&t1={}", w.t0, w.t1)
            }
        }
    }

    /// Digest of the oracle's answer to `ask`.
    pub fn digest(&self, trace: usize, ask: Ask) -> u64 {
        if let Some(d) = self
            .memo
            .lock()
            .expect("oracle memo poisoned")
            .get(&(trace, ask))
        {
            return *d;
        }
        let svc = &self.services[trace];
        let d = match ask {
            Ask::Tile { rank, zoom, tile } => fnv(svc
                .tile_json(rank, zoom, tile)
                .expect("tile in range")
                .as_bytes()),
            Ask::Query {
                zoom,
                tile,
                first,
                count,
            } => {
                let ranks: Vec<u32> = (first..first + count).collect();
                fnv(svc
                    .query_json(self.window(trace, zoom, tile), Some(&ranks))
                    .as_bytes())
            }
            Ask::Render { zoom, tile } => {
                let w = self.window(trace, zoom, tile);
                let (_, svg) = svc
                    .render("svg", Some(w), 1280, false)
                    .expect("svg backend");
                fnv(svg.as_bytes())
            }
        };
        self.memo
            .lock()
            .expect("oracle memo poisoned")
            .insert((trace, ask), d);
        d
    }
}

/// How pilotd answered an [`ask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// 200 with the oracle's exact bytes.
    Ok,
    /// 404 for a trace the registry evicted — expected under the
    /// registry budget, so neither a success nor a failure.
    Gone,
    Failed,
}

/// Ask pilotd for `ask` on registry trace `id` and check the reply
/// against the oracle. Tile and render latencies go to `tile_ms` and
/// `render_ms`; a failed request counts as infinitely slow. `evicted`
/// decides whether a 404 was an expected eviction.
pub fn ask(
    conn: &mut Conn,
    run: &Run,
    oracle: &Oracle,
    (trace, id): (usize, &str),
    ask: Ask,
    evicted: impl FnOnce() -> bool,
) -> Answer {
    let path = format!("{}&trace={id}", oracle.path(trace, ask));
    let (span, sink) = match ask {
        Ask::Tile { .. } => ("timeline.tile", Some("tile_ms")),
        Ask::Query { .. } => ("timeline.query", None),
        Ask::Render { .. } => ("jumpshot.render", Some("render_ms")),
    };
    let reply = {
        let _s = run.tracer.span(span);
        conn.get(&path)
    };
    if reply.status == 404 && evicted() {
        return Answer::Gone;
    }
    let ok = reply.status == 200 && fnv(reply.body.as_bytes()) == oracle.digest(trace, ask);
    if let Some(sink) = sink {
        run.push(sink, if ok { reply.ms } else { f64::INFINITY });
    }
    if let Ask::Render { .. } = ask {
        run.push("svg_bytes", reply.body.len() as f64);
    }
    let ok = run.tally.check(ok, || {
        format!(
            "{path}: status {} or body differs from the oracle",
            reply.status
        )
    });
    if ok {
        Answer::Ok
    } else {
        Answer::Failed
    }
}

/// Fetch the first screen — the zoom-0 tile of every rank; `evicted`
/// as for [`ask`]. `Ok` only when every tile was.
pub fn first_screen(
    conn: &mut Conn,
    run: &Run,
    oracle: &Oracle,
    (trace, id): (usize, &str),
    evicted: impl Fn() -> bool,
) -> Answer {
    for rank in 0..oracle.ranks(trace) {
        let tile = Ask::Tile {
            rank,
            zoom: 0,
            tile: 0,
        };
        match ask(conn, run, oracle, (trace, id), tile, &evicted) {
            Answer::Ok => {}
            other => return other,
        }
    }
    Answer::Ok
}

/// SplitMix64: the seeded generator behind every input and path.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A viewer's pan/zoom path after the first screen: dive from zoom 1
/// to `max_zoom` through seeded children, pan `pans` times, and climb
/// back out (revisiting tiles, so the cache answers). The seed picks
/// the tiles; the zoom of every step is fixed, so every seed does the
/// same amount of work.
pub fn browse_path(rng: &mut Rng, max_zoom: u8, pans: usize) -> Vec<(u8, u32)> {
    let (mut zoom, mut tile) = (0u8, 0u32);
    let mut steps = Vec::new();
    while zoom < max_zoom {
        zoom += 1;
        tile = tile * 2 + rng.below(2) as u32;
        steps.push((zoom, tile));
    }
    for _ in 0..pans {
        let last = (1u32 << zoom) - 1;
        tile = if rng.below(2) == 0 {
            (tile + 1).min(last)
        } else {
            tile.saturating_sub(1)
        };
        steps.push((zoom, tile));
    }
    while zoom > 1 {
        zoom -= 1;
        tile /= 2;
        steps.push((zoom, tile));
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_have_a_fixed_shape_inside_the_pyramid() {
        for seed in 0..20 {
            let path = browse_path(&mut Rng::new(seed), 6, 2);
            let zooms: Vec<u8> = path.iter().map(|&(z, _)| z).collect();
            assert_eq!(zooms, [1, 2, 3, 4, 5, 6, 6, 6, 5, 4, 3, 2, 1]);
            assert!(path.iter().all(|&(z, t)| t < 1 << z));
        }
    }

    fn unit(run: &Run, key: &str, traced: bool, start: Instant, from: f64, to: f64, requests: u64) {
        run.units.lock().unwrap().push(UnitRec {
            key: key.into(),
            traced,
            secs: to - from,
            end: start + Duration::from_secs_f64(to),
            requests,
        });
    }

    #[test]
    fn overhead_compares_traced_and_untraced_units_of_a_kind() {
        let run = Run::default();
        let t = Instant::now();
        unit(&run, "a", false, t, 0.0, 1.0, 0);
        unit(&run, "a", false, t, 1.0, 2.0, 0);
        unit(&run, "a", true, t, 2.0, 3.1, 0);
        // A kind seen only untraced has nothing to compare against.
        unit(&run, "b", false, t, 3.1, 9.0, 0);
        assert!((run.trace_overhead_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rates_run_to_the_last_unit() {
        let run = Run::default();
        let t = Instant::now();
        assert_eq!(run.rates(t), (0.0, 0.0));
        unit(&run, "a", false, t, 0.0, 0.5, 4);
        unit(&run, "b", false, t, 0.5, 2.0, 6);
        let (units, requests) = run.rates(t);
        assert!((units - 1.0).abs() < 1e-9, "{units}");
        assert!((requests - 5.0).abs() < 1e-9, "{requests}");
    }

    #[test]
    fn throughput_is_total_work_over_total_time() {
        let run = Run::default();
        assert_eq!(run.throughput("convert"), 0.0);
        run.push_work("convert", 100.0, 1.0);
        run.push_work("convert", 500.0, 2.0);
        assert!((run.throughput("convert") - 200.0).abs() < 1e-9);
        run.discard_measurements();
        assert_eq!(run.throughput("convert"), 0.0);
    }
}
