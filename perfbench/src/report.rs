//! Turning a run's samples, spans and server counters into the metrics
//! the benchmark prints.

use std::path::Path;
use std::time::Instant;

use crate::harness::{peak_rss_mb, Conn, Pilotd, Run};
use crate::probe::{self, Metrics};
use crate::spans::{self, LAYERS};
use crate::stats::{median, percentile, tail_percentile};

/// A failed request counts as missing any latency limit; JSON has no
/// infinity, so such a percentile prints as this many milliseconds.
const MISSED_MS: f64 = 1e9;

fn pct_ms(samples: &[f64], q: f64, name: &str) -> f64 {
    if let Some(best) = tail_percentile(samples.len()) {
        if best < q {
            eprintln!(
                "perfbench: note: {name} from {} samples; the highest percentile with ten beyond it is p{best}",
                samples.len()
            );
        }
    }
    match percentile(samples, q) {
        Some(v) if v.is_finite() => v,
        Some(_) => MISSED_MS,
        None => 0.0,
    }
}

/// The end-to-end metrics of an untraced run whose measured loop began
/// at `start`.
pub fn end_to_end(run: &Run, setup_s: f64, start: Instant) -> Metrics {
    let ready = run.samples("ready_ms");
    let tiles = run.samples("tile_ms");
    let (sessions, requests) = run.rates(start);
    let mut m = Metrics::new();
    m.insert("setup_s", setup_s);
    m.insert("ready_p50_ms", pct_ms(&ready, 50.0, "ready_p50_ms"));
    m.insert("ready_p90_ms", pct_ms(&ready, 90.0, "ready_p90_ms"));
    m.insert("sessions_per_s", sessions);
    m.insert("convert_drawables_per_s", run.throughput("convert"));
    m.insert("oocore_drawables_per_s", run.throughput("oocore"));
    m.insert("peak_rss_mb", peak_rss_mb());
    m.insert("tile_p50_ms", pct_ms(&tiles, 50.0, "tile_p50_ms"));
    m.insert("tile_p99_ms", pct_ms(&tiles, 99.0, "tile_p99_ms"));
    m.insert(
        "render_p50_ms",
        pct_ms(&run.samples("render_ms"), 50.0, "render_p50_ms"),
    );
    m.insert("requests_per_s", requests);
    m
}

/// Server counters sampled before and after the measured loop.
#[derive(Debug, Clone, Copy)]
pub struct ServerCounts {
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ServerCounts {
    pub fn read(pilotd: &Pilotd) -> ServerCounts {
        ServerCounts {
            hits: pilotd.counter("serve.cache.hit"),
            misses: pilotd.counter("serve.cache.miss"),
            evictions: pilotd.counter("serve.registry.evictions"),
        }
    }
}

/// Each layer's share of the traced wall time, in [`LAYERS`] order.
const SELF_PCT: [&str; 6] = [
    "pilot.self_pct",
    "mpelog.self_pct",
    "slog2.self_pct",
    "timeline.self_pct",
    "jumpshot.self_pct",
    "analysis.self_pct",
];

/// Per-layer metrics measured as span durations in the loop.
const SPAN_METRICS: [(&str, &str); 5] = [
    ("pilot.run_ms", "pilot.run"),
    ("timeline.upload_ms", "timeline.upload"),
    ("jumpshot.svg_ms", "jumpshot.render"),
    ("analysis.diagnose_ms", "analysis.diagnose"),
    ("slog2.oocore_ms", "slog2.oocore"),
];

/// The traced run's loop-derived per-layer metrics: span medians, the
/// layer self-time breakdown with its layer-sum check, tracing
/// overhead, server counters and phases. Writes the spans as Chrome
/// trace-event JSON to `trace_path`.
pub fn per_layer(
    run: &Run,
    pilotd: &Pilotd,
    conn: &mut Conn,
    before: ServerCounts,
    trace_path: &Path,
    facts: &[(String, String)],
    out: &mut Metrics,
) {
    let spans = run.tracer.spans();
    for (metric, name) in SPAN_METRICS {
        let durs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        out.insert(metric, median(&durs));
    }
    out.insert("jumpshot.svg_bytes", median(&run.samples("svg_bytes")));

    let b = spans::breakdown(&spans);
    run.tally.check(b.balanced(), || {
        format!(
            "layer-sum check: {:?}",
            b.errors.iter().take(3).collect::<Vec<_>>()
        )
    });
    out.insert("unattributed_pct", b.pct(b.unattributed_ns));
    for (layer, name) in LAYERS.iter().zip(SELF_PCT) {
        out.insert(name, b.pct(b.self_ns.get(layer).copied().unwrap_or(0)));
    }
    out.insert("trace_overhead_pct", run.trace_overhead_pct());

    let after = ServerCounts::read(pilotd);
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    out.insert(
        "timeline.cache_hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.insert(
        "timeline.evictions",
        (after.evictions - before.evictions) as f64,
    );
    probe::fresh_connections(run, pilotd, 32);
    probe::server_phases(run, conn, out);
    probe::http_overhead_us(run, pilotd, conn, out);

    if let Some(dir) = trace_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(trace_path, spans::chrome_json(&spans, facts)) {
        eprintln!("perfbench: could not write {}: {e}", trace_path.display());
    }
}
