//! Corrupted (not just truncated) SLOG2: bit flips, inflated count
//! fields, and splices of two valid images go through the decoder, then
//! `validate` and the per-rank index whenever the decoder accepts: a
//! load builds the index beside the validation, so it indexes files
//! that validation then refuses. Nothing may panic. A frame tree too
//! deep for the stack is refused by the decoder with a typed error.

use std::sync::OnceLock;

use mpelog::wire::{WireError, Writer};
use proptest::prelude::*;
use slog2::{Converter, Slog2File, TimeWindow, TraceSource, MAX_TREE_DEPTH};
use timeline::{TimelineIndex, TimelineService, TraceRegistry, UploadError};

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
    let _ = slog2::validate(&file);
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

/// An SLOG2 image with one timeline and no drawables whose frame tree
/// is a left chain `levels` deep: each chain node splits into the next
/// one and an empty right leaf, so it has `2 * levels + 1` nodes. The
/// header declares `max_depth`; every node's depth is its parent's
/// plus 1.
fn chain_image(levels: u32, max_depth: u32) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(b"PSLOG2\x00\x01");
    w.put_u32(64);
    w.put_u32(max_depth);
    w.put_f64(0.0);
    w.put_f64(1.0);
    w.put_u32(1);
    w.put_str("PI_MAIN");
    w.put_u32(0);
    w.put_u32(0);
    let nodes = 2 * levels as usize + 1;
    w.put_u32(nodes as u32);
    let directory = w.len();
    (0..nodes).for_each(|_| w.put_u64(0));
    let mut node = 0;
    let mut frame = |w: &mut Writer, depth: u32, t0: f64, t1: f64, split: bool| {
        w.patch_u64(directory + 8 * node, w.len() as u64);
        node += 1;
        w.put_f64(t0);
        w.put_f64(t1);
        w.put_u32(depth);
        w.put_u8(u8::from(split));
        w.put_u32(0);
        w.put_u32(0);
    };
    let half = |depth: u32| 0.5f64.powi(depth as i32);
    for depth in 0..levels {
        frame(&mut w, depth, 0.0, half(depth), true);
    }
    frame(&mut w, levels, 0.0, half(levels), false);
    for depth in (0..levels).rev() {
        frame(&mut w, depth + 1, half(depth + 1), half(depth), false);
    }
    w.into_bytes()
}

/// Run `f` on a thread with a `stack`-byte stack.
fn on_stack<T: Send + 'static>(stack: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(stack)
        .spawn(f)
        .expect("spawn a test thread")
        .join()
        .expect("the test thread returns")
}

#[test]
fn a_chain_deeper_than_the_header_allows_is_refused_on_a_small_stack() {
    for max_depth in [16, MAX_TREE_DEPTH] {
        let bytes = chain_image(100_000, max_depth);
        let refused = on_stack(256 << 10, move || {
            matches!(Slog2File::from_bytes(&bytes), Err(WireError::Corrupt(_)))
        });
        assert!(refused, "header max_depth {max_depth}");
    }
    // A header may not declare more than the constant.
    let bytes = chain_image(1, MAX_TREE_DEPTH + 1);
    assert!(matches!(
        Slog2File::from_bytes(&bytes),
        Err(WireError::Corrupt(_))
    ));
}

#[test]
fn a_chain_at_the_bound_decodes_validates_indexes_and_drops() {
    let bytes = chain_image(MAX_TREE_DEPTH, MAX_TREE_DEPTH);
    let depth = on_stack(2 << 20, move || {
        let file = Slog2File::from_bytes(&bytes).expect("a chain at the bound decodes");
        assert_eq!(file.tree.node_count(), 2 * MAX_TREE_DEPTH as usize + 1);
        assert!(slog2::validate(&file).is_empty());
        assert_eq!(Slog2File::from_bytes(&file.to_bytes()).as_ref(), Ok(&file));
        let index = TimelineIndex::build(&file);
        assert_eq!(index.rank_preview(0, TimeWindow::ALL).total_count(), 0);
        let service = TimelineService::from_file(file);
        let depth = service.file().tree.depth();
        drop((index, service));
        depth
    });
    assert_eq!(depth, MAX_TREE_DEPTH);
}

#[test]
fn uploads_of_a_chain_past_the_bound_are_client_errors() {
    let boot = Slog2File::from_bytes(&images()[1]).expect("a valid image");
    let reg = TraceRegistry::new(
        TimelineService::from_file(boot),
        64 << 20,
        obs::Obs::handle(),
    );
    assert!(reg
        .upload(
            Some("at-bound"),
            &chain_image(MAX_TREE_DEPTH, MAX_TREE_DEPTH)
        )
        .is_ok());
    assert!(matches!(
        reg.upload(Some("deep"), &chain_image(100_000, 16)),
        Err(UploadError::Invalid(_))
    ));
}
