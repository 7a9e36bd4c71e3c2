//! A rank-scalable token-passing pipeline.
//!
//! The paper's workloads top out at a handful of processes; this one is
//! the *scaling* fixture: `PI_MAIN -> P1 -> P2 -> ... -> Pw -> PI_MAIN`,
//! each worker incrementing a token before forwarding it. Communication
//! is a pure chain, so the trace is a long diagonal of arrows — easy to
//! eyeball in a viewer and cheap enough that a thousand-rank world
//! finishes in milliseconds under the virtual engine. Used by
//! `repro sim-bench` (run by the `perf-gate` CI job) as the
//! thousand-rank determinism workload.

use std::sync::Mutex;

use pilot::{PilotConfig, PilotOutcome, RSlot, WSlot, PI_MAIN};

/// What a pipeline run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineResult {
    /// Number of workers in the chain.
    pub workers: usize,
    /// Rounds the token made through the full chain.
    pub rounds: usize,
    /// Sum of the final token of every round. Each round's token starts
    /// at the round index and gains +1 per worker, so this is fully
    /// determined by `(workers, rounds)` — the self-check oracle.
    pub token_sum: i64,
}

/// The oracle for [`PipelineResult::token_sum`].
pub fn expected_token_sum(workers: usize, rounds: usize) -> i64 {
    (0..rounds as i64).map(|r| r + workers as i64).sum()
}

/// Run the chain with every available process as a worker
/// (`config.process_capacity() - 1` of them) for `rounds` rounds.
pub fn run_pipeline(config: PilotConfig, rounds: usize) -> (PilotOutcome, Option<PipelineResult>) {
    let workers = config.process_capacity().saturating_sub(1);
    assert!(workers >= 1, "pipeline needs at least one worker process");
    assert!(rounds >= 1);
    let result: Mutex<Option<PipelineResult>> = Mutex::new(None);

    let outcome = pilot::run(config, |pi| {
        let mut procs = Vec::with_capacity(workers);
        for i in 0..workers {
            let p = pi.create_process(i as i64)?;
            pi.set_process_name(p, &format!("S{i}"))?;
            procs.push(p);
        }
        // The chain: MAIN -> S0 -> S1 -> ... -> S{w-1} -> MAIN.
        let head = pi.create_channel(PI_MAIN, procs[0])?;
        pi.set_channel_name(head, "stage0")?;
        let mut links = Vec::with_capacity(workers - 1);
        for i in 1..workers {
            let c = pi.create_channel(procs[i - 1], procs[i])?;
            pi.set_channel_name(c, &format!("stage{i}"))?;
            links.push(c);
        }
        let tail = pi.create_channel(procs[workers - 1], PI_MAIN)?;
        pi.set_channel_name(tail, "drain")?;

        for (i, &p) in procs.iter().enumerate() {
            let inp = if i == 0 { head } else { links[i - 1] };
            let out = if i == workers - 1 { tail } else { links[i] };
            pi.assign_work(p, move |pi, _| {
                for _ in 0..rounds {
                    let mut tok = 0i64;
                    pi.read(inp, "%d", &mut [RSlot::Int(&mut tok)]).unwrap();
                    pi.write(out, "%d", &[WSlot::Int(tok + 1)]).unwrap();
                }
                0
            })?;
        }
        pi.start_all()?;

        let mut sum = 0i64;
        for round in 0..rounds {
            pi.write(head, "%d", &[WSlot::Int(round as i64)])?;
            let mut tok = 0i64;
            pi.read(tail, "%d", &mut [RSlot::Int(&mut tok)])?;
            sum += tok;
        }
        *result.lock().unwrap() = Some(PipelineResult {
            workers,
            rounds,
            token_sum: sum,
        });
        pi.stop_main(0)
    });

    (outcome, result.into_inner().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_chain_sums_tokens() {
        let (out, res) = run_pipeline(PilotConfig::new(4), 3);
        assert!(out.is_clean(), "{out:?}");
        let res = res.unwrap();
        assert_eq!(res.workers, 3);
        assert_eq!(res.token_sum, expected_token_sum(3, 3));
    }

    #[test]
    fn oracle_matches_run_under_virtual_engine() {
        let cfg = PilotConfig::new(9).with_engine(minimpi::Engine::Virtual { seed: 1 });
        let (out, res) = run_pipeline(cfg, 2);
        assert!(out.is_clean(), "{out:?}");
        assert_eq!(res.unwrap().token_sum, expected_token_sum(8, 2));
    }
}
