//! Shared helpers for the benchmark harness and the `repro` binary.

pub mod harness;
pub mod scenarios;

use pilot::{PilotConfig, Services};
use workloads::thumbnail::{prepare_inputs, run_thumbnail_with_inputs, ThumbnailParams};

/// Which logging configuration a Table-1 cell uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggingMode {
    /// No logging at all.
    None,
    /// MPE (Jumpshot) logging: buffered per rank, merged at the end.
    Mpe,
    /// Pilot's native call log: streamed to a dedicated service rank,
    /// displacing one worker.
    Native,
}

impl LoggingMode {
    /// Display label matching the paper's table.
    pub fn label(self) -> &'static str {
        match self {
            LoggingMode::None => "no logging",
            LoggingMode::Mpe => "MPE logging",
            LoggingMode::Native => "native logging",
        }
    }
}

/// One measured Table-1 cell.
#[derive(Debug, Clone, Copy)]
pub struct OverheadCell {
    /// Requested work processes (before any displacement).
    pub workers: usize,
    /// Logging mode.
    pub mode: LoggingMode,
    /// Error-check level.
    pub check_level: u8,
    /// Median wall seconds over the repetitions.
    pub median_s: f64,
    /// Sample variance of the wall seconds.
    pub variance: f64,
    /// Median wrap-up seconds (MPE only).
    pub wrapup_s: Option<f64>,
    /// Work processes actually running (native logging displaces one).
    pub effective_workers: usize,
}

/// Median of a sample (consumes and sorts it).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Sample variance.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Run one Table-1 cell: the thumbnail pipeline on a fixed "cluster" of
/// `1 + workers` ranks, repeated `reps` times.
///
/// The paper's key structural facts are encoded here: MPE logging adds
/// no rank (buffered locally), while the native log consumes one rank
/// and therefore displaces a worker.
pub fn measure_overhead_cell(
    workers: usize,
    mode: LoggingMode,
    check_level: u8,
    params: ThumbnailParams,
    reps: usize,
) -> OverheadCell {
    let ranks = 1 + workers; // the fixed cluster size
    let (services, effective_workers) = match mode {
        LoggingMode::None => (Services::default(), workers),
        LoggingMode::Mpe => (Services::parse("j").unwrap(), workers),
        LoggingMode::Native => (Services::parse("c").unwrap(), workers - 1),
    };
    // Encode the input "files" once, outside the measured window — the
    // paper's PI_MAIN only reads bytes from disk.
    let inputs = prepare_inputs(&params);
    let mut walls = Vec::with_capacity(reps);
    let mut wrapups = Vec::new();
    for _ in 0..reps.max(1) {
        let cfg = PilotConfig::new(ranks)
            .with_services(services)
            .with_check_level(check_level);
        let t0 = std::time::Instant::now();
        let (outcome, result) = run_thumbnail_with_inputs(cfg, effective_workers, params, &inputs);
        let wall = t0.elapsed().as_secs_f64();
        assert!(outcome.is_clean(), "overhead cell failed: {outcome:?}");
        assert_eq!(result.map(|r| r.produced), Some(params.n_files));
        walls.push(wall);
        if let Some(w) = outcome.artifacts.wrapup_seconds {
            wrapups.push(w);
        }
    }
    OverheadCell {
        workers,
        mode,
        check_level,
        median_s: median(walls.clone()),
        variance: variance(&walls),
        wrapup_s: (!wrapups.is_empty()).then(|| median(wrapups)),
        effective_workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(vec![]).is_nan());
    }

    #[test]
    fn variance_basics() {
        assert_eq!(variance(&[1.0]), 0.0);
        let v = variance(&[1.0, 2.0, 3.0]);
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_cell_runs_each_mode() {
        let params = ThumbnailParams {
            n_files: 6,
            width: 32,
            height: 32,
            work_factor: 2,
            compress_factor: 1,
            think_ms: 0.0,
        };
        for mode in [LoggingMode::None, LoggingMode::Mpe, LoggingMode::Native] {
            let cell = measure_overhead_cell(3, mode, 1, params, 2);
            assert!(cell.median_s > 0.0, "{mode:?}");
            match mode {
                LoggingMode::Mpe => {
                    assert!(cell.wrapup_s.is_some());
                    assert_eq!(cell.effective_workers, 3);
                }
                LoggingMode::Native => {
                    assert_eq!(cell.effective_workers, 2, "one worker displaced");
                }
                LoggingMode::None => assert_eq!(cell.effective_workers, 3),
            }
        }
    }
}
