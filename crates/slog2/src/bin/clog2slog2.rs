//! `clog2slog2` — the standalone converter, mirroring Argonne's
//! `clog2TOslog2` (including the "adjusting conversion parameters"
//! use-case the paper describes: tuning the frame size affects the
//! amount of data initially displayed).
//!
//! ```text
//! clog2slog2 <input.pclog2> [-o out.pslog2] [--frame-size N] [--max-depth D]
//!            [--parallel N] [--mmap] [--budget-mb N]
//!            [--salvage] [--metrics] [-q]
//! ```
//!
//! The binary is a thin shell over [`slog2::Converter`]: each flag maps
//! to one builder knob, and every combination produces byte-identical
//! output for the same input log. `--parallel N` shards the conversion
//! over N worker threads (0 = one per core, 1 = serial). Without
//! `--mmap` the input is read whole; with it the file is memory-mapped
//! and records are scanned zero-copy. `--budget-mb N` converts
//! *out-of-core*: drawables spill to temporary files and the output is
//! written under a ~N MiB drawable working set, which is how a log
//! bigger than RAM gets converted at all. `--metrics` attaches the
//! `obs` registry and prints the merged `convert.*` counters
//! (Prometheus-style text) after the conversion. `--salvage` accepts a
//! *torn* CLOG2 file (e.g. from an aborted run) from either input
//! mode, whole-file or `--mmap`: the tolerant parse recovers the
//! record-aligned prefix, the rank whose block was cut mid-frame gets
//! an `ABORTED` terminal state, and the recovery counts are embedded in
//! the output's warning list. The salvaged file always validates.
//!
//! Exit code 0 on a clean conversion, 1 on warnings (the "non
//! well-behaved program" case), 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use slog2::{Conversion, Converter, SalvageReport, TornPolicy, TraceSource};

struct Args {
    input: PathBuf,
    output: PathBuf,
    frame_size: usize,
    max_depth: u32,
    parallel: usize,
    mmap: bool,
    budget_mb: Option<usize>,
    metrics: bool,
    salvage: bool,
    quiet: bool,
}

const USAGE: &str = "usage: clog2slog2 <input.pclog2> [-o out.pslog2] [--frame-size N] [--max-depth D] [--parallel N] [--mmap] [--budget-mb N] [--salvage] [--metrics] [-q]";

fn parse_args() -> Result<Args, String> {
    let mut input = None;
    let mut output = None;
    let mut frame_size = 64usize;
    let mut max_depth = 16u32;
    let mut parallel = 0usize;
    let mut mmap = false;
    let mut budget_mb = None;
    let mut metrics = false;
    let mut salvage = false;
    let mut quiet = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => {
                output = Some(PathBuf::from(it.next().ok_or("missing value for -o")?))
            }
            "--frame-size" => {
                frame_size = it
                    .next()
                    .ok_or("missing value for --frame-size")?
                    .parse()
                    .map_err(|_| "bad --frame-size value")?
            }
            "--max-depth" => {
                max_depth = it
                    .next()
                    .ok_or("missing value for --max-depth")?
                    .parse()
                    .map_err(|_| "bad --max-depth value")?
            }
            "--parallel" => {
                parallel = it
                    .next()
                    .ok_or("missing value for --parallel")?
                    .parse()
                    .map_err(|_| "bad --parallel value")?
            }
            "--budget-mb" => {
                budget_mb = Some(
                    it.next()
                        .ok_or("missing value for --budget-mb")?
                        .parse()
                        .map_err(|_| "bad --budget-mb value")?,
                )
            }
            "--mmap" => mmap = true,
            "--metrics" => metrics = true,
            "--salvage" => salvage = true,
            "-q" | "--quiet" => quiet = true,
            other if !other.starts_with('-') && input.is_none() => {
                input = Some(PathBuf::from(other))
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let input = input.ok_or(USAGE)?;
    let output = output.unwrap_or_else(|| input.with_extension("pslog2"));
    Ok(Args {
        input,
        output,
        frame_size,
        max_depth,
        parallel,
        mmap,
        budget_mb,
        metrics,
        salvage,
        quiet,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clog2slog2: {e}");
            return ExitCode::from(2);
        }
    };
    let obs = args.metrics.then(obs::Obs::handle);
    let mut conv = Converter::new()
        .frame_capacity(args.frame_size)
        .max_depth(args.max_depth)
        .parallelism(args.parallel);
    if let Some(o) = &obs {
        conv = conv.observability(o.clone());
    }
    if let Some(mb) = args.budget_mb {
        conv = conv.memory_budget(mb << 20);
    }
    if args.salvage {
        // The converter fills in the tear facts itself.
        conv = conv.on_torn(TornPolicy::Salvage(SalvageReport::default()));
    }

    // Pick the trace source; the whole-file bytes outlive the borrow.
    let whole;
    let source = if args.mmap {
        match TraceSource::mmap(&args.input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("clog2slog2: cannot map {}: {e}", args.input.display());
                return ExitCode::from(2);
            }
        }
    } else {
        whole = match std::fs::read(&args.input) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("clog2slog2: cannot read {}: {e}", args.input.display());
                return ExitCode::from(2);
            }
        };
        TraceSource::Bytes(&whole)
    };
    let provenance = format!("{source:?}");

    // Out-of-core: the converter writes the file itself under the
    // memory budget; no Slog2File is ever resident.
    if args.budget_mb.is_some() {
        let summary = match conv.convert_to_path(source, &args.output) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("clog2slog2: {}: {e}", args.input.display());
                return ExitCode::from(2);
            }
        };
        if let Some(o) = &obs {
            print!("{}", o.snapshot().to_prometheus_text());
        }
        if !args.quiet {
            println!(
                "{}: {} -> {} drawables, {} tree nodes, {} bytes (digest {:016x}) -> {}",
                args.input.display(),
                salvaged(provenance, summary.salvage.as_ref()),
                summary.drawables,
                summary.nodes,
                summary.bytes_written,
                summary.digest,
                args.output.display(),
            );
            for w in &summary.warnings {
                eprintln!("warning: {w}");
            }
        }
        return if summary.warnings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let Conversion {
        file: slog,
        warnings,
        salvage,
    } = match conv.convert(source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "clog2slog2: {} is not a valid CLOG2 input: {e}",
                args.input.display()
            );
            return ExitCode::from(2);
        }
    };
    let write_result = {
        let _span = obs.as_deref().map(|o| o.span("write", "convert", 0));
        slog.write_to(&args.output)
    };
    if let Err(e) = write_result {
        eprintln!("clog2slog2: cannot write {}: {e}", args.output.display());
        return ExitCode::from(2);
    }
    if let Some(o) = &obs {
        print!("{}", o.snapshot().to_prometheus_text());
    }
    if !args.quiet {
        println!(
            "{}: {} -> {} drawables, {} tree nodes (depth {}), range [{:.6}s, {:.6}s] -> {}",
            args.input.display(),
            salvaged(provenance, salvage.as_ref()),
            slog.total_drawables(),
            slog.tree.node_count(),
            slog.tree.depth(),
            slog.range.t0,
            slog.range.t1,
            args.output.display(),
        );
        for w in &warnings {
            eprintln!("warning: {w}");
        }
    }
    if warnings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The input's provenance, plus what salvage recovered from it.
fn salvaged(provenance: String, report: Option<&SalvageReport>) -> String {
    match report {
        Some(r) => format!(
            "{provenance}, salvaged {} records ({} bytes)",
            r.records_recovered, r.bytes_recovered
        ),
        None => provenance,
    }
}
