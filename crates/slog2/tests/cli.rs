//! The `clog2slog2` binary: every input mode, thread count and memory
//! budget writes the same file with the same exit code, `--salvage`
//! writes one file from either input mode, and unknown flags exit 2.

use std::path::{Path, PathBuf};
use std::process::Command;

use mpelog::{Clog2File, Color, Logger};

/// Four ranks with nested states, ring messages, an unmatched send and
/// an unclosed state, so every conversion warns (exit 1).
fn log_bytes() -> Vec<u8> {
    let mut loggers: Vec<Logger> = (0..4).map(Logger::new).collect();
    let mut ids = Vec::new();
    for lg in &mut loggers {
        let (a, b) = lg.define_state("compute", Color::GREEN);
        let (c, d) = lg.define_state("io", Color::RED);
        ids = vec![a, b, c, d, lg.define_event("mark", Color::YELLOW)];
    }
    for (r, lg) in loggers.iter_mut().enumerate() {
        for i in 0..50 {
            let t = i as f64 + r as f64 * 0.01;
            lg.log_event(t, ids[0], "Line: 1");
            lg.log_event(t + 0.1, ids[2], "");
            lg.log_send(t + 0.2, (r + 1) % 4, 7, 64);
            lg.log_receive(t + 0.3, (r + 3) % 4, 7, 64);
            lg.log_event(t + 0.4, ids[3], "");
            lg.log_event(t + 0.5, ids[4], "tick");
            lg.log_event(t + 0.6, ids[1], "");
        }
        if r == 0 {
            lg.log_send(60.0, 1, 9, 8);
            lg.log_event(61.0, ids[0], "never closed");
        }
    }
    Clog2File {
        nranks: 4,
        state_defs: loggers[0].state_defs().to_vec(),
        event_defs: loggers[0].event_defs().to_vec(),
        blocks: loggers
            .iter()
            .enumerate()
            .map(|(r, lg)| (r as u32, lg.records().to_vec()))
            .collect(),
    }
    .to_bytes()
}

/// A fresh directory holding `input` as `in.pclog2`.
fn setup(name: &str, input: &[u8]) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("slog2-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("in.pclog2");
    std::fs::write(&path, input).unwrap();
    (dir, path)
}

/// Run `clog2slog2 <input> -o <out> <args>`: its exit code and the
/// bytes it wrote (empty if it wrote none).
fn run(input: &Path, out: &Path, args: &[&str]) -> (Option<i32>, Vec<u8>) {
    let _ = std::fs::remove_file(out);
    let done = Command::new(env!("CARGO_BIN_EXE_clog2slog2"))
        .arg(input)
        .arg("-o")
        .arg(out)
        .args(args)
        .output()
        .expect("run clog2slog2");
    (done.status.code(), std::fs::read(out).unwrap_or_default())
}

#[test]
fn every_input_mode_thread_count_and_budget_writes_one_file() {
    let (dir, input) = setup("modes", &log_bytes());
    let out = dir.join("out.pslog2");
    let (code, want) = run(&input, &out, &[]);
    assert_eq!(code, Some(1), "the log warns");
    assert!(!want.is_empty());
    for args in [
        &["--mmap"][..],
        &["--parallel", "1"],
        &["--budget-mb", "1", "--parallel", "2"],
    ] {
        let (got_code, got) = run(&input, &out, args);
        assert_eq!(got_code, code, "{args:?}");
        assert!(got == want, "{args:?} wrote different bytes");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn salvage_writes_one_file_from_either_input_mode() {
    let whole = log_bytes();
    let (dir, input) = setup("salvage", &whole[..whole.len() * 2 / 3]);
    let out = dir.join("out.pslog2");
    for strict in [&[][..], &["--mmap"]] {
        assert_eq!(
            run(&input, &out, strict),
            (Some(2), Vec::new()),
            "{strict:?}"
        );
    }
    let (code, want) = run(&input, &out, &["--salvage"]);
    assert_eq!(code, Some(1), "a salvaged log warns");
    assert!(!want.is_empty());
    let (mapped_code, mapped) = run(&input, &out, &["--salvage", "--mmap"]);
    assert_eq!(mapped_code, code);
    assert!(mapped == want, "--salvage --mmap wrote different bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_header_claiming_too_many_ranks_exits_2_in_every_mode() {
    // The magic and a claim of 2^32 - 1 ranks: refused before a
    // timeline is built for any of them.
    let (dir, input) = setup("ranks", b"PCLOG2\x00\x01\xff\xff\xff\xff");
    let out = dir.join("out.pslog2");
    for args in [
        &[][..],
        &["--salvage"],
        &["--salvage", "--mmap"],
        &["--salvage", "--budget-mb", "1"],
    ] {
        assert_eq!(run(&input, &out, args), (Some(2), Vec::new()), "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_flag_is_rejected() {
    let (dir, input) = setup("stream", &log_bytes());
    let out = dir.join("out.pslog2");
    assert_eq!(run(&input, &out, &["--stream"]), (Some(2), Vec::new()));
    let _ = std::fs::remove_dir_all(&dir);
}
