//! The collision-query assignment (paper Section IV.B, Figs. 4–5).
//!
//! The assignment: read a large .csv of automotive collision records in
//! parallel (different workers starting at different file offsets), run
//! a series of queries in parallel, merge the results. Two student
//! submissions famously failed to speed up; the visual log made the
//! reasons obvious in moments. All three behaviours are implemented:
//!
//! * [`CollisionVariant::InstanceA`] — the file reading only partially
//!   overlaps (the master ships chunks sequentially), and the query
//!   phase *inadvertently serializes*: pairs of `PI_Write`/`PI_Read`
//!   per worker in a loop, so workers never compute simultaneously
//!   (Fig. 4).
//! * [`CollisionVariant::InstanceB`] — the master does all the file
//!   reading and parsing itself during a long initialization while the
//!   workers sit blocked in `PI_Read` (Fig. 5); the queries afterwards
//!   are fast, so the total run time never improves.
//! * [`CollisionVariant::Fixed`] — workers "read from their own file
//!   offsets" (here: parse their own chunk) in parallel, and each query
//!   issues *all* the writes before *any* of the reads.
//!
//! All variants compute identical answers — these are parallelization
//! bugs, not correctness bugs, exactly as the paper stresses.

use std::sync::Mutex;

use pilot::{PilotConfig, PilotOutcome, RSlot, WSlot, PI_MAIN};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One collision record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Collision year.
    pub year: u16,
    /// Region code 0..13.
    pub region: u8,
    /// Severity 1 (property damage) ..= 4 (fatal).
    pub severity: u8,
    /// Vehicles involved.
    pub vehicles: u8,
    /// Fatalities.
    pub fatalities: u8,
}

/// Generate the synthetic CSV chunk for `rows` records starting at
/// global row `first_row` (deterministic in the row index, so any
/// partitioning yields the same data — our stand-in for "reading from
/// different file offsets").
pub fn generate_csv(first_row: usize, rows: usize, seed: u64) -> String {
    let mut out = String::with_capacity(rows * 24);
    for r in first_row..first_row + rows {
        let rec = record_at(r, seed);
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            rec.year, rec.region, rec.severity, rec.vehicles, rec.fatalities
        ));
    }
    out
}

fn record_at(row: usize, seed: u64) -> Record {
    let mut rng = SmallRng::seed_from_u64(seed ^ (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Record {
        year: rng.gen_range(2000..=2020),
        region: rng.gen_range(0..13),
        severity: rng.gen_range(1..=4),
        vehicles: rng.gen_range(1..=8),
        fatalities: rng.gen_range(0..=3),
    }
}

/// Parse a CSV chunk (the compute-heavy part of "file reading").
pub fn parse_csv(text: &str) -> Vec<Record> {
    text.lines()
        .filter_map(|line| {
            let mut it = line.split(',');
            Some(Record {
                year: it.next()?.parse().ok()?,
                region: it.next()?.parse().ok()?,
                severity: it.next()?.parse().ok()?,
                vehicles: it.next()?.parse().ok()?,
                fatalities: it.next()?.parse().ok()?,
            })
        })
        .collect()
}

/// The query set: query `q` counts records matching a predicate that
/// cycles through severity / year / region / vehicles criteria.
pub fn run_query(q: usize, records: &[Record]) -> u64 {
    records
        .iter()
        .filter(|r| match q % 4 {
            0 => r.severity as usize > q % 3,
            1 => (r.year as usize % 7) == q % 7,
            2 => (r.region as usize % 5) == q % 5,
            _ => r.vehicles as usize > q % 6,
        })
        .count() as u64
}

/// Which implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollisionVariant {
    /// Student instance A: serialized query loop (Fig. 4).
    InstanceA,
    /// Student instance B: non-parallel file read / long master init (Fig. 5).
    InstanceB,
    /// The corrected version.
    Fixed,
}

impl CollisionVariant {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CollisionVariant::InstanceA => "instance A",
            CollisionVariant::InstanceB => "instance B",
            CollisionVariant::Fixed => "fixed",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct CollisionParams {
    /// Number of CSV rows (the paper's file is 316 MB; scale to taste).
    pub rows: usize,
    /// Number of queries.
    pub queries: usize,
    /// Data seed.
    pub seed: u64,
    /// Extra per-row parse repetitions, to scale compute.
    pub parse_work: u32,
    /// Modelled per-chunk file-read time on the reader's node (ms).
    /// Sleeps stand in for node-local work so phase overlap behaves like
    /// a cluster even on a single-core host (see DESIGN.md).
    pub read_think_ms: f64,
    /// Modelled per-chunk parse time on the parsing node (ms).
    pub parse_think_ms: f64,
    /// Modelled per-query compute time per worker (ms).
    pub query_think_ms: f64,
}

impl Default for CollisionParams {
    fn default() -> Self {
        CollisionParams {
            rows: 20_000,
            queries: 8,
            seed: 316,
            parse_work: 1,
            read_think_ms: 0.0,
            parse_think_ms: 0.0,
            query_think_ms: 0.0,
        }
    }
}

/// The merged answers plus phase timings observed by `PI_MAIN`.
#[derive(Debug, Clone, PartialEq)]
pub struct CollisionResult {
    /// One merged count per query.
    pub answers: Vec<u64>,
    /// Seconds from `PI_StartAll` until the data was distributed/parsed.
    pub init_seconds: f64,
    /// Seconds spent in the query phase.
    pub query_seconds: f64,
}

/// Reference answers computed serially.
pub fn expected_answers(params: &CollisionParams) -> Vec<u64> {
    let records = parse_csv(&generate_csv(0, params.rows, params.seed));
    (0..params.queries)
        .map(|q| run_query(q, &records))
        .collect()
}

fn parse_with_work(text: &str, parse_work: u32) -> Vec<Record> {
    let mut records = Vec::new();
    for _ in 0..parse_work.max(1) {
        records = parse_csv(text);
    }
    records
}

fn think(pi: &pilot::Pilot<'_, '_>, ms: f64) {
    if ms > 0.0 {
        pi.sleep(std::time::Duration::from_secs_f64(ms / 1e3));
    }
}

/// Run one variant with `workers` worker processes.
// Index loops over the per-worker channel arrays mirror the Pilot C
// teaching examples this workload reproduces.
#[allow(clippy::needless_range_loop)]
pub fn run_collision(
    config: PilotConfig,
    workers: usize,
    variant: CollisionVariant,
    params: CollisionParams,
) -> (PilotOutcome, Option<CollisionResult>) {
    assert!(workers >= 1);
    assert!(
        config.process_capacity() > workers,
        "world too small for {workers} workers"
    );
    let result: Mutex<Option<CollisionResult>> = Mutex::new(None);

    let outcome = pilot::run(config, |pi| {
        let mut procs = Vec::new();
        let mut to_w = Vec::new(); // MAIN -> worker
        let mut from_w = Vec::new(); // worker -> MAIN
        for i in 0..workers {
            let p = pi.create_process(i as i64)?;
            pi.set_process_name(p, &format!("W{i}"))?;
            procs.push(p);
            to_w.push(pi.create_channel(PI_MAIN, p)?);
            from_w.push(pi.create_channel(p, PI_MAIN)?);
        }
        let rows_of = |i: usize| {
            let base = params.rows / workers;
            if i == workers - 1 {
                base + params.rows % workers
            } else {
                base
            }
        };
        let first_of = |i: usize| i * (params.rows / workers);

        for (i, &p) in procs.iter().enumerate() {
            let (tx, rx) = (from_w[i], to_w[i]);
            let nq = params.queries;
            let (seed, parse_work) = (params.seed, params.parse_work);
            let (first, nrows) = (first_of(i), rows_of(i));
            match variant {
                CollisionVariant::InstanceA | CollisionVariant::InstanceB => {
                    let worker_parses = variant == CollisionVariant::InstanceA;
                    let (pt, qt) = (params.parse_think_ms, params.query_think_ms);
                    pi.assign_work(p, move |pi, _| {
                        // Receive this worker's chunk as CSV text. In A
                        // the worker pays the parse cost; in B the master
                        // already did, so the worker's parse is cheap.
                        let mut text: Vec<u8> = Vec::new();
                        pi.read(rx, "%^b", &mut [RSlot::ByteVec(&mut text)])
                            .unwrap();
                        let text = String::from_utf8(text).unwrap();
                        let records = parse_with_work(&text, parse_work);
                        if worker_parses {
                            think(pi, pt);
                        }
                        // Query phase: one parcel per query, as directed.
                        for _ in 0..nq {
                            let mut q = 0i64;
                            pi.read(rx, "%d", &mut [RSlot::Int(&mut q)]).unwrap();
                            let count = run_query(q as usize, &records);
                            think(pi, qt);
                            pi.write(tx, "%u", &[WSlot::Uint(count)]).unwrap();
                        }
                        0
                    })?;
                }
                CollisionVariant::Fixed => {
                    let (rt, pt, qt) = (
                        params.read_think_ms,
                        params.parse_think_ms,
                        params.query_think_ms,
                    );
                    pi.assign_work(p, move |pi, _| {
                        // "Read from our own file offset": generate and
                        // parse our chunk locally, in parallel with the
                        // other workers.
                        let text = generate_csv(first, nrows, seed);
                        think(pi, rt);
                        let records = parse_with_work(&text, parse_work);
                        think(pi, pt);
                        // Signal readiness, then answer queries.
                        pi.write(tx, "%d", &[WSlot::Int(nrows as i64)]).unwrap();
                        for _ in 0..nq {
                            let mut q = 0i64;
                            pi.read(rx, "%d", &mut [RSlot::Int(&mut q)]).unwrap();
                            let count = run_query(q as usize, &records);
                            think(pi, qt);
                            pi.write(tx, "%u", &[WSlot::Uint(count)]).unwrap();
                        }
                        0
                    })?;
                }
            }
        }

        pi.start_all()?;
        let t_start = pi.start_time();

        // ---- initialization / file-reading phase ----
        match variant {
            CollisionVariant::InstanceA => {
                // Master reads the file and ships raw chunks one worker
                // at a time; each chunk read costs read_think_ms, so the
                // workers' parses start staggered — the partially-
                // overlapping gray bars of Fig. 4.
                for i in 0..workers {
                    let text = generate_csv(first_of(i), rows_of(i), params.seed);
                    think(pi, params.read_think_ms);
                    pi.write(to_w[i], "%^b", &[WSlot::ByteArr(text.as_bytes())])?;
                }
            }
            CollisionVariant::InstanceB => {
                // Master reads AND parses EVERYTHING itself first (the
                // 11 s of Fig. 5), workers blocked in PI_Read all along.
                let all = generate_csv(0, params.rows, params.seed);
                let _parsed = parse_with_work(&all, params.parse_work);
                think(
                    pi,
                    workers as f64 * (params.read_think_ms + params.parse_think_ms),
                );
                for i in 0..workers {
                    let text = generate_csv(first_of(i), rows_of(i), params.seed);
                    pi.write(to_w[i], "%^b", &[WSlot::ByteArr(text.as_bytes())])?;
                }
            }
            CollisionVariant::Fixed => {
                // Workers already reading their own offsets; just wait
                // for all ready signals.
                for i in 0..workers {
                    let mut n = 0i64;
                    pi.read(from_w[i], "%d", &mut [RSlot::Int(&mut n)])?;
                }
            }
        }
        let init_seconds = pi.wtime() - t_start;

        // ---- query phase ----
        let t_q = pi.wtime();
        let mut answers = vec![0u64; params.queries];
        match variant {
            CollisionVariant::InstanceA => {
                // The bug: write + read per worker inside the loop —
                // only one worker computes at a time.
                for (q, slot) in answers.iter_mut().enumerate() {
                    for i in 0..workers {
                        pi.write(to_w[i], "%d", &[WSlot::Int(q as i64)])?;
                        let mut c = 0u64;
                        pi.read(from_w[i], "%u", &mut [RSlot::Uint(&mut c)])?;
                        *slot += c;
                    }
                }
            }
            CollisionVariant::InstanceB | CollisionVariant::Fixed => {
                // All writes first, then all reads: workers overlap.
                for (q, slot) in answers.iter_mut().enumerate() {
                    for i in 0..workers {
                        pi.write(to_w[i], "%d", &[WSlot::Int(q as i64)])?;
                    }
                    for i in 0..workers {
                        let mut c = 0u64;
                        pi.read(from_w[i], "%u", &mut [RSlot::Uint(&mut c)])?;
                        *slot += c;
                    }
                }
            }
        }
        let query_seconds = pi.wtime() - t_q;

        *result.lock().unwrap() = Some(CollisionResult {
            answers,
            init_seconds,
            query_seconds,
        });
        pi.stop_main(0)
    });

    let result = result.into_inner().unwrap();
    (outcome, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CollisionParams {
        CollisionParams {
            rows: 2000,
            queries: 6,
            seed: 316,
            parse_work: 1,
            read_think_ms: 0.0,
            parse_think_ms: 0.0,
            query_think_ms: 0.0,
        }
    }

    #[test]
    fn csv_generation_is_offset_consistent() {
        // Chunked generation must equal whole-file generation: the
        // property that makes "read from different offsets" simulable.
        let whole = generate_csv(0, 100, 7);
        let part1 = generate_csv(0, 40, 7);
        let part2 = generate_csv(40, 60, 7);
        assert_eq!(whole, format!("{part1}{part2}"));
    }

    #[test]
    fn parse_roundtrips_generation() {
        let text = generate_csv(0, 50, 1);
        let records = parse_csv(&text);
        assert_eq!(records.len(), 50);
        assert_eq!(records[0], record_at(0, 1));
        assert_eq!(records[49], record_at(49, 1));
    }

    #[test]
    fn parse_skips_malformed_lines() {
        let records = parse_csv("2005,1,2,3,0\ngarbage\n2006,2,1,1,1\n");
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn all_variants_agree_with_reference() {
        let params = small();
        let expect = expected_answers(&params);
        for variant in [
            CollisionVariant::InstanceA,
            CollisionVariant::InstanceB,
            CollisionVariant::Fixed,
        ] {
            let (out, result) = run_collision(PilotConfig::new(4), 3, variant, params);
            assert!(out.is_clean(), "{variant:?}: {out:?}");
            assert_eq!(result.unwrap().answers, expect, "{variant:?}");
        }
    }

    #[test]
    fn instance_b_has_long_init() {
        // B's master-side init must dwarf the fixed variant's. Under the
        // virtual engine both are modelled: B's master sleeps `workers ×
        // (read + parse)` before distributing, while each fixed worker
        // sleeps only its own share, in parallel with the others.
        let params = CollisionParams {
            read_think_ms: 2.0,
            parse_think_ms: 3.0,
            ..small()
        };
        let config = || PilotConfig::new(4).with_engine(minimpi::Engine::Virtual { seed: 1 });
        let (_, b) = run_collision(config(), 3, CollisionVariant::InstanceB, params);
        let (_, fixed) = run_collision(config(), 3, CollisionVariant::Fixed, params);
        let (b, fixed) = (b.unwrap(), fixed.unwrap());
        assert!(
            b.init_seconds > fixed.init_seconds,
            "B init {} vs fixed init {}",
            b.init_seconds,
            fixed.init_seconds
        );
    }

    #[test]
    fn queries_are_deterministic() {
        let records = parse_csv(&generate_csv(0, 500, 9));
        for q in 0..8 {
            assert_eq!(run_query(q, &records), run_query(q, &records));
        }
    }
}
