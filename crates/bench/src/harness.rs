//! The scaffolding every `repro` bench and oracle shares.
//!
//! Four steps recur across the subcommands, and each lives here once:
//!
//! * [`repeat_and_compare`] runs a job N times and fails on the first
//!   run whose digest differs from run 0 — the byte-determinism oracles;
//! * [`run_pairs`] and [`median_overhead`] measure what an
//!   instrumentation costs as the median per-pair delta of off/on pairs
//!   whose order alternates;
//! * [`CheckedClient`] talks to `pilotd`, classifies every response into
//!   a [`Tally`], counts a 429/503 without `Retry-After` as a failure,
//!   and opens a new connection after the server closes one;
//! * [`Report`] and [`write_artifact`] write every artifact under `out/`;
//!   each JSON report also records the host's core count (`cores`).

use std::fmt;
use std::path::{Path, PathBuf};

use pilot_vis::json::Json;
use timeline::{Client, HttpResponse};

/// Why [`repeat_and_compare`] stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepeatError<D> {
    /// Run `run` itself failed, for the reason given.
    Failed { run: usize, why: String },
    /// Run `run` produced digest `this` where run 0 produced `first`.
    Diverged { run: usize, first: D, this: D },
}

impl<D: fmt::Display> fmt::Display for RepeatError<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepeatError::Failed { run, why } => write!(f, "run {run} failed: {why}"),
            RepeatError::Diverged { run, first, this } => write!(
                f,
                "run {run} diverged from run 0\n--- run 0 ---\n{first}\n--- run {run} ---\n{this}"
            ),
        }
    }
}

/// Run `run(i)` for `i` in `0..runs` (at least once) and compare each
/// run's `digest` with run 0's. Stops at the first run that fails or
/// diverges; otherwise returns run 0's value.
pub fn repeat_and_compare<T, D: PartialEq>(
    runs: usize,
    mut run: impl FnMut(usize) -> Result<T, String>,
    digest: impl Fn(&T) -> D,
) -> Result<T, RepeatError<D>> {
    let first = run(0).map_err(|why| RepeatError::Failed { run: 0, why })?;
    let want = digest(&first);
    for i in 1..runs {
        let this = run(i).map_err(|why| RepeatError::Failed { run: i, why })?;
        let got = digest(&this);
        if got != want {
            return Err(RepeatError::Diverged {
                run: i,
                first: want,
                this: got,
            });
        }
    }
    Ok(first)
}

/// One half of an off/on overhead pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Instrumentation off.
    Off,
    /// Instrumentation on.
    On,
}

/// Run `pairs` off/on pairs and return each as `(off, on)`. A pair's two
/// halves run back to back, inside the same noise regime; even pairs
/// run `Off` first and odd pairs `On` first, so a warmup or drift inside
/// a pair cannot always tax the same side.
pub fn run_pairs<S>(pairs: usize, mut run: impl FnMut(Side) -> S) -> Vec<(S, S)> {
    (0..pairs)
        .map(|pair| {
            if pair % 2 == 0 {
                let off = run(Side::Off);
                (off, run(Side::On))
            } else {
                let on = run(Side::On);
                (run(Side::Off), on)
            }
        })
        .collect()
}

/// What [`median_overhead`] found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// The median of the per-pair deltas `(on - off) / off`, in percent.
    pub pct: f64,
    /// The `off` reading of the pair at the median delta.
    pub off: f64,
    /// The `on` reading of the pair at the median delta.
    pub on: f64,
}

/// The overhead of `on` over `off` across `(off, on)` pairs, or `None`
/// without pairs. Each pair's delta cancels slow machine-wide drift,
/// and the median across pairs rejects pairs that straddled a noise
/// burst — two medians taken minutes apart would do neither.
pub fn median_overhead(pairs: &[(f64, f64)]) -> Option<Overhead> {
    let mut deltas: Vec<(f64, f64, f64)> = pairs
        .iter()
        .map(|&(off, on)| ((on - off) / off.max(1e-9) * 100.0, off, on))
        .collect();
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0));
    let &(_, off, on) = deltas.get(deltas.len() / 2)?;
    let pct = crate::median(deltas.iter().map(|d| d.0).collect());
    Some(Overhead { pct, off, on })
}

/// What a [`CheckedClient`] saw, by response class.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// 200 and 201 responses.
    pub ok: usize,
    /// 4xx responses other than 429.
    pub client_errors: usize,
    /// 429 rejects (accept-queue shedding).
    pub rejects_429: usize,
    /// 503 rejects (deadline shedding).
    pub rejects_503: usize,
    /// 429/503 rejects without `Retry-After` — always a server bug.
    pub bad_rejects: usize,
    /// Any other status.
    pub unexpected: usize,
    /// Requests that got no well-formed response.
    pub transport_errors: usize,
    /// Connections opened: the first, then one after each close or
    /// transport error.
    pub connects: usize,
}

impl Tally {
    /// Classify one response.
    pub fn record(&mut self, resp: &HttpResponse) {
        match resp.status {
            200 | 201 => self.ok += 1,
            429 => self.rejects_429 += 1,
            503 => self.rejects_503 += 1,
            400..=499 => self.client_errors += 1,
            _ => self.unexpected += 1,
        }
        if matches!(resp.status, 429 | 503) && resp.header("retry-after").is_none() {
            self.bad_rejects += 1;
        }
    }

    /// 429 and 503 rejects together.
    pub fn rejects(&self) -> usize {
        self.rejects_429 + self.rejects_503
    }

    /// Add `other`'s counts to these.
    pub fn merge(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.client_errors += other.client_errors;
        self.rejects_429 += other.rejects_429;
        self.rejects_503 += other.rejects_503;
        self.bad_rejects += other.bad_rejects;
        self.unexpected += other.unexpected;
        self.transport_errors += other.transport_errors;
        self.connects += other.connects;
    }
}

/// A keep-alive `pilotd` client that checks every answer: each response
/// is classified into [`tally`](Self::tally). It connects on its first
/// request and again after the server closed the connection (or it
/// failed mid-request); a failed connect counts as a transport error.
pub struct CheckedClient {
    addr: String,
    conn: Option<Client>,
    /// Everything this client has seen.
    pub tally: Tally,
}

impl CheckedClient {
    /// A client for the server at `addr` (e.g. `127.0.0.1:8080`).
    pub fn new(addr: &str) -> CheckedClient {
        CheckedClient {
            addr: addr.to_string(),
            conn: None,
            tally: Tally::default(),
        }
    }

    /// Send one request and classify the answer; `None` when no
    /// well-formed answer came back.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> Option<HttpResponse> {
        if self.conn.is_none() {
            self.tally.connects += 1;
            self.conn = Client::connect(&self.addr).ok();
        }
        match self.conn.as_mut().map(|c| c.send(method, path, &[], body)) {
            Some(Ok(resp)) => {
                self.tally.record(&resp);
                if resp.closed {
                    self.conn = None;
                }
                Some(resp)
            }
            _ => {
                self.tally.transport_errors += 1;
                self.conn = None;
                None
            }
        }
    }
}

/// The directory every artifact lands in: `out/`, created on first use.
pub fn out_dir() -> &'static Path {
    let p = Path::new("out");
    std::fs::create_dir_all(p).expect("create out/");
    p
}

/// Write `bytes` to `out/<name>`, print where, and return the path.
pub fn write_artifact(name: &str, bytes: impl AsRef<[u8]>) -> PathBuf {
    let path = out_dir().join(name);
    std::fs::write(&path, bytes).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  wrote {}", path.display());
    path
}

/// The host's core count, as every report records it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON report: fields in insertion order, written by [`Report::write`].
#[derive(Debug, Default)]
pub struct Report(Vec<(String, Json)>);

impl Report {
    /// Add a numeric field.
    pub fn num(&mut self, key: impl Into<String>, value: f64) -> &mut Report {
        self.put(key, Json::Num(value))
    }

    /// Add a field of any JSON type.
    pub fn put(&mut self, key: impl Into<String>, value: Json) -> &mut Report {
        self.0.push((key.into(), value));
        self
    }

    /// The fields as one JSON object.
    pub fn into_json(self) -> Json {
        Json::Obj(self.0)
    }

    /// Append the host's `cores` and write the report to `out/<name>`.
    pub fn write(mut self, name: &str) {
        self.num("cores", cores() as f64);
        write_artifact(name, self.into_json().pretty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_runs_pass_and_return_run_zero() {
        let mut ran = Vec::new();
        let got = repeat_and_compare(
            3,
            |i| {
                ran.push(i);
                Ok((i, "same"))
            },
            |r| r.1,
        );
        assert_eq!(got, Ok((0, "same")));
        assert_eq!(ran, [0, 1, 2]);
    }

    #[test]
    fn the_first_diverging_or_failing_run_is_named() {
        let digests = ["a", "a", "b", "c"];
        let got = repeat_and_compare(4, |i| Ok(digests[i]), |d| *d);
        let want = RepeatError::Diverged {
            run: 2,
            first: "a",
            this: "b",
        };
        assert_eq!(got, Err(want));
        let failing = |i| if i == 1 { Err("boom".into()) } else { Ok("a") };
        let why = "boom".to_string();
        assert_eq!(
            repeat_and_compare(3, failing, |d| *d),
            Err(RepeatError::Failed { run: 1, why })
        );
    }

    #[test]
    fn pairs_alternate_which_side_runs_first() {
        let mut order = Vec::new();
        let pairs = run_pairs(4, |side| {
            order.push(side);
            order.len()
        });
        use Side::{Off, On};
        assert_eq!(order, [Off, On, On, Off, Off, On, On, Off]);
        // Whichever side ran first, each pair comes back as (off, on).
        assert_eq!(pairs, [(1, 2), (4, 3), (5, 6), (8, 7)]);
    }

    #[test]
    fn overhead_is_the_median_per_pair_delta() {
        // Deltas +10 %, +50 %, -10 %: the median delta is +10 %, where the
        // mean (+16.7 %) and the delta of the medians (-10 %) differ.
        let o = median_overhead(&[(100.0, 110.0), (300.0, 450.0), (200.0, 180.0)]).unwrap();
        assert!((o.pct - 10.0).abs() < 1e-9, "{o:?}");
        assert_eq!((o.off, o.on), (100.0, 110.0));
        assert_eq!(median_overhead(&[]), None);
    }

    #[test]
    fn the_checked_client_flags_rejects_without_retry_after_and_reconnects() {
        use std::io::{BufRead, BufReader, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Connection 1 answers a close-marked 429 without Retry-After;
        // connection 2 a 503 with it, a 200 and a 404, kept alive.
        let script = [
            &["429 Too Many Requests\r\nConnection: close"][..],
            &["503 Busy\r\nRetry-After: 1", "200 OK", "404 Not Found"],
        ];
        let server = std::thread::spawn(move || {
            for replies in script {
                let (mut s, _) = listener.accept().unwrap();
                let mut req = BufReader::new(s.try_clone().unwrap());
                for reply in replies {
                    let mut line = String::new();
                    while req.read_line(&mut line).unwrap() > 2 {
                        line.clear();
                    }
                    write!(s, "HTTP/1.1 {reply}\r\nContent-Length: 0\r\n\r\n").unwrap();
                }
            }
        });
        let mut c = CheckedClient::new(&addr);
        let statuses: Vec<_> = (0..4)
            .map(|_| c.send("GET", "/", None).map(|r| r.status))
            .collect();
        assert_eq!(statuses, [Some(429), Some(503), Some(200), Some(404)]);
        let want = Tally {
            ok: 1,
            client_errors: 1,
            rejects_429: 1,
            rejects_503: 1,
            bad_rejects: 1,
            connects: 2,
            ..Tally::default()
        };
        assert_eq!(c.tally, want);
        server.join().expect("scripted server");
    }
}
