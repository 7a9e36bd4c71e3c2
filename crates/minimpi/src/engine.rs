//! Engine selection: wallclock threads vs discrete-event simulation.
//!
//! A [`World`](crate::World) runs its ranks under one of two engines:
//!
//! * [`Engine::Wall`] — ranks are freely-scheduled OS threads and
//!   [`Rank::wtime`](crate::Rank::wtime) reads the host clock. This is
//!   the default and preserves the original runtime behavior
//!   bit-for-bit.
//! * [`Engine::Virtual`] — ranks are *cooperatively* scheduled by a
//!   single discrete-event loop (`SimCore`):
//!   exactly one rank executes at a time, blocking operations yield to
//!   an event queue ordered by `(virtual time, seeded tie-break)`, and
//!   `wtime()` reads the simulation clock. Runs are exactly
//!   reproducible across hosts, runs, and thread spawn orders; a
//!   thousand-rank world costs milliseconds of wall time. Different
//!   seeds break virtual-time ties differently and therefore explore
//!   different *legal* message orderings — the schedule-exploration
//!   knob behind `repro explore`.
//!
//! The engine only decides *when ranks run* and *what time they see*;
//! message semantics (tag matching, per-pair FIFO, collectives, fault
//! injection) are identical under both.

use std::sync::Arc;
use std::time::Duration;

use crate::clock::WorldClock;
use crate::mailbox::AbortToken;
use crate::sim::{SimCore, WaitKind};

/// Which execution engine drives a world's scheduling and time. Select
/// with [`WorldBuilder::engine`](crate::WorldBuilder::engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Real OS threads and the host wallclock (the default).
    #[default]
    Wall,
    /// Deterministic discrete-event simulation. `seed` drives the
    /// tie-break between events scheduled at the same virtual time:
    /// the same seed always replays the same schedule; different seeds
    /// explore different legal message orderings.
    Virtual {
        /// Tie-break seed for same-virtual-time events.
        seed: u64,
    },
}

/// The engine a world actually instantiated: either nothing (wall) or
/// the shared simulation scheduler.
#[derive(Debug)]
pub(crate) enum EngineCore {
    Wall,
    Sim(Arc<SimCore>),
}

impl EngineCore {
    /// The simulation core, when running virtual.
    #[inline]
    pub(crate) fn sim(&self) -> Option<&Arc<SimCore>> {
        match self {
            EngineCore::Wall => None,
            EngineCore::Sim(s) => Some(s),
        }
    }

    /// Charge one communication-op's worth of virtual time to `rank`'s
    /// local clock (no-op on the wall engine, where real time passes on
    /// its own).
    #[inline]
    pub(crate) fn charge_op(&self, rank: usize) {
        if let EngineCore::Sim(s) = self {
            s.charge(rank, crate::sim::SIM_OP_COST_NS);
        }
    }

    /// Make `target` runnable (it has a message/ack/abort to observe),
    /// stamped at the acting rank's current virtual time. No-op on wall
    /// (the OS scheduler wakes the blocked thread via its channel).
    #[inline]
    pub(crate) fn wake(&self, from: usize, target: usize) {
        if let EngineCore::Sim(s) = self {
            s.wake(from, target);
        }
    }

    /// Abort-time wake-all: every signal-parked rank gets a wake event
    /// so it observes the tripped token.
    #[inline]
    pub(crate) fn wake_all(&self, from: usize) {
        if let EngineCore::Sim(s) = self {
            s.wake_all(from);
        }
    }

    /// Sleep `d` — real time under wall, virtual time under sim.
    pub(crate) fn sleep(&self, rank: usize, d: Duration, abort: &AbortToken) {
        match self {
            EngineCore::Wall => std::thread::sleep(d),
            EngineCore::Sim(s) => s.sleep(rank, d, abort),
        }
    }

    /// Rank thread entry: wait until the scheduler first dispatches us.
    pub(crate) fn start(&self, rank: usize) {
        if let EngineCore::Sim(s) = self {
            s.wait_for_start(rank);
        }
    }

    /// Rank is done (normal return or unwinding): release the execution
    /// token for good.
    pub(crate) fn finish(&self, rank: usize, abort: &AbortToken) {
        if let EngineCore::Sim(s) = self {
            s.finish(rank, abort);
        }
    }
}

/// Everything a blocking mailbox operation needs to wait correctly
/// under either engine: the world abort token, the engine (to yield
/// to the event queue under sim), the clock (for `recv_timeout`
/// deadlines routed through [`TimeSource::now`](crate::TimeSource::now)),
/// and the waiting rank.
pub(crate) struct WaitCx<'a> {
    pub(crate) abort: &'a AbortToken,
    pub(crate) engine: &'a EngineCore,
    pub(crate) clock: &'a WorldClock,
    pub(crate) rank: usize,
}

impl WaitCx<'_> {
    /// True seconds since world start as observed by the waiting rank —
    /// host time under wall, simulation time under sim. Both
    /// `recv_timeout` and the stall watchdog measure against this, so a
    /// held-message stall is convicted identically in real and virtual
    /// runs.
    #[inline]
    pub(crate) fn now_s(&self) -> f64 {
        self.clock.true_now(self.rank)
    }

    /// Yield until something wakes us: a delivery, an abort, or (when
    /// `deadline_ns` is set) the virtual deadline. Wall waiting happens
    /// in the mailbox's own heartbeat loop instead, so this is sim-only.
    #[inline]
    pub(crate) fn block(&self, deadline_ns: Option<u64>) {
        if let EngineCore::Sim(s) = self.engine {
            s.block(self.rank, WaitKind::Signal, deadline_ns, self.abort);
        }
    }

    /// The rank's local virtual clock in ns (sim only).
    #[inline]
    pub(crate) fn local_ns(&self) -> u64 {
        match self.engine {
            EngineCore::Wall => 0,
            EngineCore::Sim(s) => s.local_ns(self.rank),
        }
    }
}
