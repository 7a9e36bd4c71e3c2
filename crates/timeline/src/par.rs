//! The helper threads a trace load may start, and the one loop that
//! shares a load's independent passes among them.
//!
//! A load's passes are [`Task`]s: each owns a slot for its own result,
//! so no task waits on another. [`run`] hands them out largest first,
//! and each thread that finishes one takes the largest left, so the
//! results are the serial ones whichever thread computes them. Small
//! loads start no helper at all: the same loop then runs every task on
//! the calling thread.
//!
//! The calling thread takes the largest task before any helper starts,
//! and [`join`] runs its first pass there. A load's decode is that
//! pass, because the decoded file stays resident: decoded on a helper,
//! it was allocated from that thread's malloc arena, and bigtrace's
//! peak RSS read 15–20% above the serial load's; decoded on the calling
//! thread, within 3%.

use std::sync::Mutex;

/// A load indexing fewer drawables than this runs on the calling
/// thread alone. On a 2-core host the index built on two workers was
/// no faster than the serial build up to 32,768 drawables, slower at
/// 65,536 (16.3–16.6 against 13.4–14.6 ms: each worker's trees took
/// longer beside the other's), and faster from 131,072 up (16–18
/// against 20–30 ms). The traces of a class's Pilot programs (at most
/// about 6,000 drawables) stay far below it.
pub(crate) const PARALLEL_DRAWABLES: u64 = 1 << 17;

/// Bytes a drawable is taken to occupy in a body not yet decoded. The
/// CLOG2 and SLOG2 bodies of real traces take 37 to 50 bytes a
/// drawable, so a body counted at this rate holds no fewer drawables
/// than it is counted as.
const BODY_BYTES_PER_DRAWABLE: usize = 64;

/// Helper threads for a load that indexes `drawables`: none below
/// [`PARALLEL_DRAWABLES`], else one fewer than the available cores.
pub(crate) fn helpers(drawables: u64) -> usize {
    if drawables < PARALLEL_DRAWABLES {
        return 0;
    }
    std::thread::available_parallelism().map_or(0, |n| n.get() - 1)
}

/// [`helpers`] for a body of `bytes` bytes, before it is decoded.
pub(crate) fn body_helpers(bytes: usize) -> usize {
    helpers((bytes / BODY_BYTES_PER_DRAWABLE) as u64)
}

/// One independent pass of a load, and its size in drawables (only the
/// order tasks start in depends on it).
pub(crate) struct Task<'a> {
    work: u64,
    run: Box<dyn FnOnce() + Send + 'a>,
}

impl<'a> Task<'a> {
    /// A task of `work` drawables that stores its result through `run`.
    pub(crate) fn new(work: u64, run: impl FnOnce() + Send + 'a) -> Task<'a> {
        Task {
            work,
            run: Box::new(run),
        }
    }
}

/// Run every task: the calling thread takes the largest, then it and up
/// to `helpers` scoped threads each take the largest task left until
/// none is. A helper that cannot be spawned leaves its share to the
/// threads that run, the caller at least. Returns when every task has
/// run; a task's panic reaches the caller once every helper has
/// stopped.
pub(crate) fn run(mut tasks: Vec<Task<'_>>, helpers: usize) {
    // Smallest first, so `pop` takes the largest.
    tasks.sort_by_key(|t| t.work);
    let Some(first) = tasks.pop() else {
        return;
    };
    let helpers = helpers.min(tasks.len());
    let queue = Mutex::new(tasks);
    let work = || loop {
        // A task runs after the guard is dropped, so a panicking task
        // cannot poison the queue.
        let next = queue.lock().expect("task queue poisoned").pop();
        match next {
            Some(task) => (task.run)(),
            None => break,
        }
    };
    std::thread::scope(|s| {
        for _ in 0..helpers {
            if std::thread::Builder::new()
                .name("trace-load".into())
                .spawn_scoped(s, work)
                .is_err()
            {
                break;
            }
        }
        (first.run)();
        work();
    });
}

/// `a` on the calling thread, and `b` beside it on a helper when
/// `helpers` is at least 1 and the helper starts before `a` ends, else
/// after `a`.
pub(crate) fn join<A: Send, B: Send>(
    helpers: usize,
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    let (mut ra, mut rb) = (None, None);
    run(
        vec![
            Task::new(1, || ra = Some(a())),
            Task::new(0, || rb = Some(b())),
        ],
        helpers,
    );
    (
        ra.expect("every task has run"),
        rb.expect("every task has run"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn every_task_runs_once_at_any_helper_count() {
        for helpers in [0, 1, 2, 7, 40] {
            let mut done = vec![0u32; 25];
            let tasks = done
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| Task::new(i as u64 % 7, move || *slot += 1))
                .collect();
            run(tasks, helpers);
            assert_eq!(done, vec![1; 25], "{helpers} helpers");
        }
    }

    #[test]
    fn without_helpers_the_caller_runs_every_task_largest_first() {
        let caller = std::thread::current().id();
        let ran = Mutex::new(Vec::new());
        let tasks = [3u64, 9, 1, 5]
            .into_iter()
            .map(|w| {
                let ran = &ran;
                Task::new(w, move || {
                    ran.lock().unwrap().push((w, std::thread::current().id()))
                })
            })
            .collect();
        run(tasks, 0);
        assert_eq!(ran.into_inner().unwrap(), [9, 5, 3, 1].map(|w| (w, caller)));
    }

    #[test]
    fn join_runs_its_first_pass_on_the_calling_thread() {
        let id = || std::thread::current().id();
        let caller = id();
        assert_eq!(join(0, id, id), (caller, caller));
        // Each pass waits for the other to start, so with a helper `b`
        // must run beside `a`, not after it.
        let started = Barrier::new(2);
        let pass = || {
            started.wait();
            id()
        };
        let (a, b) = join(1, pass, pass);
        assert_eq!(a, caller);
        assert_ne!(b, caller);
    }

    #[test]
    fn small_loads_start_no_helper() {
        assert_eq!(helpers(PARALLEL_DRAWABLES - 1), 0);
        let body_bytes = PARALLEL_DRAWABLES as usize * BODY_BYTES_PER_DRAWABLE;
        assert_eq!(body_helpers(body_bytes - 1), 0);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(helpers(PARALLEL_DRAWABLES), cores - 1);
        assert_eq!(body_helpers(body_bytes), cores - 1);
    }
}
