//! Corrupted (not just truncated) SLOG2: bit flips, inflated count
//! fields, and splices of two valid images go through the decoder, then
//! `validate`, then the per-rank index when both accept. Nothing may
//! panic.

use std::sync::OnceLock;

use proptest::prelude::*;
use slog2::{Converter, Slog2File, TimeWindow, TraceSource};
use timeline::TimelineIndex;

/// Two valid images of different shapes: converted synthetic logs with
/// small frames, so each has a deep tree of many nodes.
fn images() -> &'static [Vec<u8>; 2] {
    static IMAGES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let image = |ranks, calls, capacity| {
            let clog = workloads::synthetic_clog(ranks, calls);
            Converter::new()
                .frame_capacity(capacity)
                .convert(TraceSource::InMemory(&clog))
                .unwrap()
                .file
                .to_bytes()
        };
        [image(3, 60, 8), image(2, 25, 4)]
    })
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Offsets of the big image's count fields: timelines, categories,
/// warnings, nodes, and each node's drawables.
fn count_offsets() -> &'static [usize] {
    static OFFSETS: OnceLock<Vec<usize>> = OnceLock::new();
    OFFSETS.get_or_init(|| {
        let bytes = &images()[0];
        let string = |at: usize| 4 + read_u32(bytes, at) as usize;
        // Magic, capacity, depth and the time range come first.
        let mut at = 32;
        let mut offsets = vec![at];
        let n = read_u32(bytes, at);
        at += 4;
        (0..n).for_each(|_| at += string(at));
        offsets.push(at);
        let n = read_u32(bytes, at);
        at += 4;
        // A category: index, name, colour, kind.
        (0..n).for_each(|_| at += 4 + string(at + 4) + 4 + 1);
        offsets.push(at);
        let n = read_u32(bytes, at);
        at += 4;
        (0..n).for_each(|_| at += string(at));
        offsets.push(at);
        let nodes = read_u32(bytes, at) as usize;
        at += 4;
        // The directory's node offsets; a node's drawable count follows
        // its two times, depth and split flag.
        for i in 0..nodes {
            let node = u64::from_le_bytes(bytes[at + 8 * i..at + 8 * i + 8].try_into().unwrap());
            offsets.push(node as usize + 21);
        }
        offsets
    })
}

/// Feed `bytes` to the decoder, `validate` and the index; none may
/// panic.
fn check(bytes: &[u8]) {
    for idx in 0..4 {
        let _ = Slog2File::read_node_at(bytes, idx);
    }
    let Ok(file) = Slog2File::from_bytes(bytes) else {
        return;
    };
    if !slog2::validate(&file).is_empty() {
        return;
    }
    let index = TimelineIndex::build(&file);
    for rank in 0..index.nranks() as u32 {
        let _ = index.rank_preview(rank, TimeWindow::ALL);
        let _ = index.rank_arrow_preview(rank, TimeWindow::ALL);
    }
}

proptest! {
    #[test]
    fn bit_flipped_slog2_never_panics(
        flips in proptest::collection::vec((0f64..1.0, 0u32..8), 1..9),
        small in any::<bool>(),
    ) {
        let mut bytes = images()[usize::from(small)].clone();
        for (at, bit) in flips {
            let i = ((bytes.len() - 1) as f64 * at) as usize;
            bytes[i] ^= 1 << bit;
        }
        check(&bytes);
    }

    #[test]
    fn inflated_slog2_counts_never_panic(
        field in any::<usize>(),
        anywhere in 0f64..1.0,
        kind in 0u32..5,
        bump in 1u32..64,
    ) {
        let mut bytes = images()[0].clone();
        // A known count field, or any four bytes.
        let offsets = count_offsets();
        let at = match field % (offsets.len() + 1) {
            i if i < offsets.len() => offsets[i],
            _ => ((bytes.len() - 4) as f64 * anywhere) as usize,
        };
        let new = match kind {
            0 => u32::MAX,
            1 => 1 << 31,
            2 => bytes.len() as u32,
            3 => bytes.len() as u32 / 21 + bump,
            _ => read_u32(&bytes, at).saturating_add(bump),
        };
        bytes[at..at + 4].copy_from_slice(&new.to_le_bytes());
        check(&bytes);
    }

    #[test]
    fn spliced_slog2_images_never_panic(
        a in 0f64..1.0,
        b in 0f64..1.0,
        big_first in any::<bool>(),
    ) {
        let [big, small] = images();
        let (head, tail) = if big_first { (big, small) } else { (small, big) };
        let cut = |bytes: &Vec<u8>, at: f64| (bytes.len() as f64 * at) as usize;
        let bytes = [&head[..cut(head, a)], &tail[cut(tail, b)..]].concat();
        check(&bytes);
    }
}

#[test]
fn count_offsets_read_back_their_counts() {
    let bytes = &images()[0];
    let file = Slog2File::from_bytes(bytes).unwrap();
    let offsets = count_offsets();
    let counts = [
        file.timelines.len(),
        file.categories.len(),
        file.warnings.len(),
        file.tree.node_count(),
    ];
    for (i, want) in counts.into_iter().enumerate() {
        assert_eq!(read_u32(bytes, offsets[i]) as usize, want, "field {i}");
    }
    assert!(
        file.tree.node_count() > 8,
        "the tree should have many nodes"
    );
    let mut drawables = Vec::new();
    file.tree
        .visit(&mut |node| drawables.push(node.drawables.len()));
    let read: Vec<usize> = offsets[4..]
        .iter()
        .map(|&at| read_u32(bytes, at) as usize)
        .collect();
    assert_eq!(read, drawables);
}
