//! End-to-end tests of the request observability plane: a forced-slow
//! request must surface in the flight recorder with its phases
//! accounted for, `/v1/obs/endpoints` must report per-phase
//! percentiles, and — the determinism guard — response bodies must be
//! byte-identical with tracing on or off.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mpelog::Color;
use pilot_vis::json::Json;
use slog2::{
    Category, CategoryId, CategoryKind, Drawable, FrameTree, Slog2File, StateDrawable, TimeWindow,
    TimelineId,
};
use timeline::{serve, App, Client, TimelineService};

fn test_file() -> Slog2File {
    let mut ds = Vec::new();
    for r in 0..3u32 {
        for i in 0..16 {
            ds.push(Drawable::State(StateDrawable {
                category: CategoryId(0),
                timeline: TimelineId(r),
                start: i as f64,
                end: i as f64 + 0.5,
                nest_level: 0,
                text: String::new(),
            }));
        }
    }
    let range = TimeWindow::new(0.0, 16.0);
    Slog2File {
        timelines: vec!["PI_MAIN".into(), "P1".into(), "P2".into()],
        categories: vec![Category {
            index: CategoryId(0),
            name: "Compute".into(),
            color: Color::GRAY,
            kind: CategoryKind::State,
        }],
        range,
        warnings: vec![],
        tree: FrameTree::build(ds, range.t0, range.t1, 32, 12),
    }
}

fn service() -> TimelineService {
    TimelineService::from_file(test_file())
}

/// The tentpole acceptance: a forced-slow tile request shows up in
/// `/v1/obs/flight` under its client-supplied trace ID, with queue,
/// cache, and render phases whose sum is ≈ the request total.
#[test]
fn slow_request_lands_in_flight_with_phases_summing_to_total() {
    let mut svc = service();
    svc.set_test_tile_delay(Duration::from_millis(40));
    let app = App::single(svc);
    app.enable_tracing();
    let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
    let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();

    let (status, _) = client
        .get_traced("/v1/tile?rank=0&zoom=2&tile=1", "slow-tile-req")
        .unwrap();
    assert_eq!(status, 200);
    let (_, flight_body) = client.get("/v1/obs/flight").unwrap();
    server.stop();

    let (total_us, phases) = traced_request(&flight_body, "slow-tile-req");
    assert!(total_us >= 40_000, "forced 40ms delay, got {total_us}us");
    let sum_of = |name: &str| -> u64 {
        phases
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, d)| d)
            .sum()
    };
    // The forced delay runs under `render`, and the serving path adds
    // queue/parse/cache/write.
    for required in ["queue", "parse", "cache", "render", "write"] {
        assert!(sum_of(required) > 0, "missing phase {required}: {phases:?}");
    }
    assert!(
        sum_of("render") >= 40_000,
        "the forced delay is render time: {phases:?}"
    );
    // The cache phase overlaps the computing thread's render phase only
    // on single-flight waits, and this request had none.
    assert_phases_tile(total_us, &phases);
}

/// A connection's first request is timed from the accept queue, and
/// its parse phase from dequeue: a client that connects and waits
/// before sending its request line spends that wait in `parse`, so the
/// phases still tile the request.
#[test]
fn wait_for_the_first_request_line_is_parse_time() {
    let app = App::single(service());
    app.enable_tracing();
    let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
    let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    stream
        .write_all(b"GET /v1/info HTTP/1.1\r\nX-Trace-Id: late-line\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
    let (_, flight_body) = client.get("/v1/obs/flight").unwrap();
    server.stop();

    let (total_us, phases) = traced_request(&flight_body, "late-line");
    assert!(total_us >= 30_000, "waited 30ms, got {total_us}us");
    assert_phases_tile(total_us, &phases);
}

/// The request event with `trace_id` in a flight dump: its total and
/// its phases, in microseconds.
fn traced_request(flight_body: &str, trace_id: &str) -> (u64, Vec<(String, u64)>) {
    // The dump is valid JSON (Chrome trace-event array form).
    let events = Json::parse(flight_body).expect("flight dump parses");
    let events = events.as_arr().expect("array form");
    let traced = |e: &&Json, cat: &str| {
        e.get("args")
            .and_then(|a| a.get("trace_id"))
            .and_then(Json::as_str)
            == Some(trace_id)
            && e.get("cat").and_then(Json::as_str) == Some(cat)
    };
    let request_ev = events
        .iter()
        .find(|e| traced(e, "request"))
        .unwrap_or_else(|| panic!("{trace_id} present in flight dump"));
    assert_eq!(
        request_ev.get("ph").and_then(Json::as_str),
        Some("X"),
        "complete-event phase"
    );
    let total_us = request_ev.get("dur").and_then(Json::as_u64).unwrap();
    let phases = events
        .iter()
        .filter(|e| traced(e, "phase"))
        .map(|e| {
            (
                e.get("name").and_then(Json::as_str).unwrap().to_string(),
                e.get("dur").and_then(Json::as_u64).unwrap(),
            )
        })
        .collect();
    (total_us, phases)
}

/// Instrumented phases must explain (almost) the whole request; the
/// uncovered remainder is routing glue. The phase sum is also bounded
/// above.
fn assert_phases_tile(total_us: u64, phases: &[(String, u64)]) {
    let covered: u64 = phases.iter().map(|(_, d)| d).sum();
    assert!(
        covered >= total_us * 9 / 10,
        "phases {covered}us must cover >=90% of total {total_us}us: {phases:?}"
    );
    assert!(
        covered <= total_us * 11 / 10 + 2_000,
        "phase sum {covered}us cannot exceed total {total_us}us by >10%: {phases:?}"
    );
}

/// `/v1/obs/endpoints` aggregates per-endpoint, per-phase percentiles.
#[test]
fn endpoint_summary_reports_phase_percentiles() {
    let app = App::single(service());
    app.enable_tracing();
    let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
    let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
    for tile in 0..4 {
        let (status, _) = client
            .get(&format!("/v1/tile?rank=0&zoom=3&tile={tile}"))
            .unwrap();
        assert_eq!(status, 200);
    }
    let (_, body) = client.get("/v1/obs/endpoints").unwrap();
    server.stop();

    let v = Json::parse(&body).expect("endpoints json");
    assert_eq!(v.get("enabled").unwrap(), &Json::Bool(true));
    let eps = v.get("endpoints").unwrap().as_arr().unwrap();
    let tile = eps
        .iter()
        .find(|e| e.get("endpoint").and_then(Json::as_str) == Some("tile"))
        .expect("tile endpoint summarized");
    assert_eq!(tile.get("count").unwrap().as_u64().unwrap(), 4);
    assert!(tile.get("p50_us").unwrap().as_f64().unwrap() > 0.0);
    assert!(
        tile.get("p99_us").unwrap().as_f64().unwrap()
            >= tile.get("p50_us").unwrap().as_f64().unwrap()
    );
    let phases = tile.get("phases").unwrap();
    for phase in ["parse", "cache", "index", "render", "write"] {
        let p = phases
            .get(phase)
            .unwrap_or_else(|| panic!("phase {phase} in {body}"));
        assert!(p.get("p99_us").unwrap().as_f64().unwrap() > 0.0, "{phase}");
    }
}

/// The determinism guard: tile and render bodies and the status line
/// are byte-identical with tracing enabled and disabled, and untraced
/// responses carry no `X-Trace-Id`.
#[test]
fn responses_are_byte_identical_with_and_without_tracing() {
    let app_off = App::single(service());
    let app_on = App::single(service());
    app_on.enable_tracing();

    let mut server_off = serve(Arc::clone(&app_off), "127.0.0.1:0", 2).unwrap();
    let mut server_on = serve(Arc::clone(&app_on), "127.0.0.1:0", 2).unwrap();
    let mut off = Client::connect(&format!("127.0.0.1:{}", server_off.port())).unwrap();
    let mut on = Client::connect(&format!("127.0.0.1:{}", server_on.port())).unwrap();

    for path in [
        "/v1/tile?rank=0&zoom=2&tile=1",
        "/v1/tile?rank=1&zoom=4&tile=7",
        "/v1/query?t0=1&t1=9&ranks=0,2",
        "/v1/render?backend=svg&width=640",
        "/v1/render?backend=ascii&width=100",
        "/v1/info",
        "/v1/legend",
    ] {
        let (s_off, b_off) = off.get(path).unwrap();
        let (s_on, b_on) = on.get_traced(path, "determinism-probe").unwrap();
        assert_eq!(s_off, s_on, "{path}");
        assert_eq!(b_off, b_on, "{path}: body must not depend on tracing");
        assert!(
            !b_on.contains("determinism-probe"),
            "{path}: trace id leaked into the body"
        );
    }
    // The status line too: tracing adds one header and changes nothing
    // else in the head.
    let status_line = |port: u16| {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream
            .write_all(b"GET /v1/info HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        line
    };
    let line_off = status_line(server_off.port());
    assert_eq!(line_off, "HTTP/1.1 200 OK\r\n");
    assert_eq!(status_line(server_on.port()), line_off);
    // The traced side really did trace.
    assert!(app_on.plane().flight().recorded() > 0);
    assert_eq!(app_off.plane().flight().recorded(), 0);
    server_off.stop();
    server_on.stop();
}

/// Single-flight waits surface in `/v1/stats` when concurrent clients
/// race for the same cold tile; the cache fields count only the
/// selected trace's cache, while `/metrics` keeps the server's totals.
#[test]
fn stats_expose_singleflight_and_occupancy() {
    let mut svc = service();
    svc.set_test_tile_delay(Duration::from_millis(30));
    let app = App::single(svc);
    let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 4).unwrap();
    let addr = format!("127.0.0.1:{}", server.port());

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.get("/v1/tile?rank=0&zoom=1&tile=0").unwrap()
            })
        })
        .collect();
    let bodies: Vec<String> = handles
        .into_iter()
        .map(|h| {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200);
            body
        })
        .collect();
    assert!(bodies.windows(2).all(|w| w[0] == w[1]));

    let mut probe = Client::connect(&addr).unwrap();
    let upload = probe
        .post("/v1/traces?id=other", &test_file().to_bytes())
        .unwrap();
    assert_eq!(upload.status, 201, "{}", upload.body);
    let (_, stats) = probe.get("/v1/stats").unwrap();
    let (_, other) = probe.get("/v1/stats?trace=other").unwrap();
    let (_, metrics) = probe.get("/metrics").unwrap();
    server.stop();

    let o = Json::parse(&other).unwrap();
    for k in [
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "cache_singleflight_waits",
        "cache_shard_occupancy_high",
    ] {
        assert_eq!(o.get(k).and_then(Json::as_u64), Some(0), "{k}: {other}");
    }
    assert!(metrics.contains("\nserve_cache_miss 1\n"), "{metrics}");

    let v = Json::parse(&stats).unwrap();
    let n = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(n("cache_misses"), 1, "{stats}");
    assert!(
        n("cache_singleflight_waits") >= 1,
        "4 racers on one cold 30ms tile must produce waits: {stats}"
    );
    assert_eq!(n("cache_hits") + 1, 4, "{stats}");
    assert_eq!(n("cache_entries"), 1);
    assert_eq!(n("cache_shard_occupancy_high"), 1);
    let occ = v.get("cache_shard_occupancy").unwrap().as_arr().unwrap();
    assert_eq!(occ.len(), timeline::CACHE_SHARDS);
}
