//! The sharded LRU tile cache.
//!
//! Tile responses are deterministic functions of (file digest, rank,
//! zoom level, tile number), so they cache perfectly: invalidation is
//! by key — a different file has a different digest and simply never
//! collides. Keys hash to one of 16 shards, each an independently
//! locked LRU map, so concurrent clients replaying the same zoom path
//! rarely contend on the same lock.
//!
//! Misses are *two-phase single-flight*: the shard lock is held only
//! long enough to look up the key and register an in-flight marker;
//! the tile computes **outside** the lock, and racers for the same key
//! wait on the marker's condvar instead of recomputing (or blocking
//! unrelated keys — holding the shard lock across compute was the old
//! design's tail-latency wart: a cold tile stalled every other key in
//! its shard).
//!
//! Hit / miss / eviction / single-flight-wait counts and a per-shard
//! occupancy gauge go to an [`obs`] registry — one metric shard per
//! cache shard, merged at snapshot time. The cache lookup and any
//! single-flight wait are timed as the active request's `cache` phase;
//! the compute itself is timed by the compute path (`index`/`render`).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};

use obs::{ObsHandle, Phase};
use slog2::fnv::{fnv1a, FNV_SEED};

use crate::obsplane::PhaseTimer;

/// Number of independently locked cache shards.
pub const CACHE_SHARDS: usize = 16;

/// Key of one cached tile. The digest pins the file version: a reload
/// of a changed file yields new keys, and stale entries age out of the
/// LRU instead of being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileKey {
    /// FNV-1a digest of the file bytes.
    pub digest: u64,
    /// Rank (timeline) the tile describes.
    pub rank: u32,
    /// Zoom level: the file range divides into `2^zoom` tiles.
    pub zoom: u8,
    /// Tile number within the zoom level, `0 .. 2^zoom`.
    pub tile: u32,
}

impl TileKey {
    fn shard(&self) -> usize {
        // FNV-1a over the key fields; cheap and well-spread for the
        // small dense key space.
        let fields: [&[u8]; 4] = [
            &self.digest.to_le_bytes(),
            &self.rank.to_le_bytes(),
            &[self.zoom],
            &self.tile.to_le_bytes(),
        ];
        let h = fields.iter().fold(FNV_SEED, |h, b| fnv1a(h, b));
        (h % CACHE_SHARDS as u64) as usize
    }
}

/// State of one in-flight tile compute, shared between the computing
/// thread and any single-flight waiters.
#[derive(Default)]
enum FlightState {
    #[default]
    Pending,
    Done(Arc<String>),
    /// The computing thread unwound; waiters retry from scratch.
    Failed,
}

#[derive(Default)]
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn wait(&self) -> Option<Arc<String>> {
        let mut st = self.state.lock().expect("flight poisoned");
        while matches!(*st, FlightState::Pending) {
            st = self.cv.wait(st).expect("flight poisoned");
        }
        match &*st {
            FlightState::Done(body) => Some(Arc::clone(body)),
            _ => None,
        }
    }

    fn resolve(&self, outcome: FlightState) {
        *self.state.lock().expect("flight poisoned") = outcome;
        self.cv.notify_all();
    }
}

#[derive(Default)]
struct ShardState {
    /// key -> (recency stamp, body).
    map: HashMap<TileKey, (u64, Arc<String>)>,
    /// recency stamp -> key; the smallest stamp is the LRU victim.
    order: BTreeMap<u64, TileKey>,
    next_stamp: u64,
    /// Keys currently being computed by some thread.
    in_flight: HashMap<TileKey, Arc<Flight>>,
}

impl ShardState {
    fn stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    /// Move an existing entry to the most-recent end of the order.
    fn touch(&mut self, key: TileKey) {
        let stamp = self.stamp();
        if let Some((old, _)) = self.map.get_mut(&key) {
            let prev = *old;
            *old = stamp;
            self.order.remove(&prev);
            self.order.insert(stamp, key);
        }
    }
}

/// The sharded LRU cache of rendered tile bodies.
pub struct TileCache {
    shards: Vec<Mutex<ShardState>>,
    per_shard_capacity: usize,
    obs: ObsHandle,
}

/// Deregisters an in-flight marker if the compute unwinds, so waiters
/// wake up and retry instead of blocking forever.
struct FlightGuard<'a> {
    shard: &'a Mutex<ShardState>,
    key: TileKey,
    flight: &'a Arc<Flight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Ok(mut shard) = self.shard.lock() {
            shard.in_flight.remove(&self.key);
        }
        self.flight.resolve(FlightState::Failed);
    }
}

impl TileCache {
    /// A cache holding at most `capacity` tiles total (rounded up to a
    /// multiple of [`CACHE_SHARDS`]), reporting to `obs`.
    pub fn new(capacity: usize, obs: ObsHandle) -> TileCache {
        TileCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            per_shard_capacity: capacity.div_ceil(CACHE_SHARDS).max(1),
            obs,
        }
    }

    /// Fetch the tile, computing it with `f` on a miss. Concurrent
    /// requests for the same missing tile compute it exactly once: the
    /// first registers an in-flight marker and computes outside the
    /// shard lock; the rest wait on the marker (counted as
    /// `singleflight_wait` *and* as hits, since they are served a body
    /// someone else computed).
    pub fn get_or_compute(&self, key: TileKey, f: impl FnOnce() -> String) -> Arc<String> {
        let shard_idx = key.shard();
        let metrics = self.obs.shard(shard_idx);
        loop {
            enum Action {
                Hit(Arc<String>),
                Wait(Arc<Flight>),
                Compute(Arc<Flight>),
            }
            let action = {
                let _cache_phase = PhaseTimer::start(Phase::Cache);
                let mut shard = self.shards[shard_idx].lock().expect("cache shard poisoned");
                if let Some((_, body)) = shard.map.get(&key) {
                    let body = Arc::clone(body);
                    shard.touch(key);
                    metrics.counter("serve.cache.hit").inc();
                    Action::Hit(body)
                } else if let Some(flight) = shard.in_flight.get(&key) {
                    metrics.counter("serve.cache.singleflight_wait").inc();
                    Action::Wait(Arc::clone(flight))
                } else {
                    metrics.counter("serve.cache.miss").inc();
                    let flight = Arc::new(Flight::default());
                    shard.in_flight.insert(key, Arc::clone(&flight));
                    Action::Compute(flight)
                }
            };
            match action {
                Action::Hit(body) => return body,
                Action::Wait(flight) => {
                    let waited = {
                        let _cache_phase = PhaseTimer::start(Phase::Cache);
                        flight.wait()
                    };
                    match waited {
                        Some(body) => {
                            metrics.counter("serve.cache.hit").inc();
                            return body;
                        }
                        None => continue, // the computing thread unwound
                    }
                }
                Action::Compute(flight) => {
                    let mut guard = FlightGuard {
                        shard: &self.shards[shard_idx],
                        key,
                        flight: &flight,
                        armed: true,
                    };
                    // Compute outside both the shard lock and the cache
                    // phase: this is where index/render time belongs.
                    let body = Arc::new(f());
                    {
                        let mut shard =
                            self.shards[shard_idx].lock().expect("cache shard poisoned");
                        let stamp = shard.stamp();
                        shard.map.insert(key, (stamp, Arc::clone(&body)));
                        shard.order.insert(stamp, key);
                        while shard.map.len() > self.per_shard_capacity {
                            let (&stamp, &victim) =
                                shard.order.iter().next().expect("order tracks map");
                            shard.order.remove(&stamp);
                            shard.map.remove(&victim);
                            metrics.counter("serve.cache.eviction").inc();
                        }
                        shard.in_flight.remove(&key);
                        metrics
                            .gauge("serve.cache.occupancy")
                            .set(shard.map.len() as i64);
                    }
                    guard.armed = false;
                    flight.resolve(FlightState::Done(Arc::clone(&body)));
                    return body;
                }
            }
        }
    }

    /// Merged (hit, miss, eviction) counts across every shard.
    pub fn counters(&self) -> (u64, u64, u64) {
        let snap = self.obs.snapshot();
        (
            snap.counter("serve.cache.hit"),
            snap.counter("serve.cache.miss"),
            snap.counter("serve.cache.eviction"),
        )
    }

    /// How many lookups waited on another thread's in-flight compute.
    pub fn singleflight_waits(&self) -> u64 {
        self.obs.snapshot().counter("serve.cache.singleflight_wait")
    }

    /// Current per-shard entry counts, in shard order.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .collect()
    }

    /// High-water mark of any single shard's occupancy (gauge highs
    /// max under merge, so the merged snapshot reports the busiest
    /// shard's peak).
    pub fn shard_occupancy_high(&self) -> i64 {
        self.obs
            .snapshot()
            .gauges
            .get("serve.cache.occupancy")
            .map(|g| g.high)
            .unwrap_or(0)
    }

    /// Number of cached tiles right now.
    pub fn len(&self) -> usize {
        self.shard_occupancy().iter().sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tile: u32) -> TileKey {
        TileKey {
            digest: 42,
            rank: 0,
            zoom: 4,
            tile,
        }
    }

    #[test]
    fn hit_after_miss_returns_same_body() {
        let cache = TileCache::new(64, obs::Obs::handle());
        let a = cache.get_or_compute(key(1), || "body".to_string());
        let b = cache.get_or_compute(key(1), || panic!("must not recompute"));
        assert_eq!(a, b);
        let (hit, miss, evict) = cache.counters();
        assert_eq!((hit, miss, evict), (1, 1, 0));
        assert_eq!(cache.singleflight_waits(), 0);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = TileCache::new(1024, obs::Obs::handle());
        for t in 0..100 {
            cache.get_or_compute(key(t), || format!("tile {t}"));
        }
        for t in 0..100 {
            let body = cache.get_or_compute(key(t), || panic!("must be cached"));
            assert_eq!(*body, format!("tile {t}"));
        }
        assert_eq!(cache.len(), 100);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // Capacity 16 total = 1 per shard; keys landing in the same
        // shard evict each other oldest-first.
        let cache = TileCache::new(16, obs::Obs::handle());
        let mut by_shard: HashMap<usize, Vec<u32>> = HashMap::new();
        for t in 0..64 {
            by_shard.entry(key(t).shard()).or_default().push(t);
        }
        let (_, crowded) = by_shard
            .iter()
            .max_by_key(|(_, v)| v.len())
            .expect("some shard");
        let (a, b) = (crowded[0], crowded[1]);
        cache.get_or_compute(key(a), || "a".into());
        cache.get_or_compute(key(b), || "b".into());
        // `a` was evicted to make room for `b`; recomputing it is a miss.
        let again = cache.get_or_compute(key(a), || "a2".into());
        assert_eq!(*again, "a2");
        let (_, _, evictions) = cache.counters();
        assert!(evictions >= 2, "evictions {evictions}");
    }

    #[test]
    fn digest_isolates_file_versions() {
        let cache = TileCache::new(64, obs::Obs::handle());
        let old = TileKey {
            digest: 1,
            ..key(0)
        };
        let new = TileKey {
            digest: 2,
            ..key(0)
        };
        cache.get_or_compute(old, || "old".into());
        let body = cache.get_or_compute(new, || "new".into());
        assert_eq!(*body, "new");
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let cache = Arc::new(TileCache::new(64, obs::Obs::handle()));
        let computes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                cache.get_or_compute(key(7), move || {
                    computes.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    "once".to_string()
                })
            }));
        }
        for h in handles {
            assert_eq!(*h.join().unwrap(), "once");
        }
        assert_eq!(computes.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn waiters_are_counted_and_served_without_recomputing() {
        let cache = Arc::new(TileCache::new(64, obs::Obs::handle()));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let computer = {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                cache.get_or_compute(key(9), move || {
                    gate.wait(); // the waiter is about to look up
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    "slow".to_string()
                })
            })
        };
        gate.wait();
        // Give the computer a beat so the in-flight marker is visible.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let body = cache.get_or_compute(key(9), || panic!("single flight must serve this"));
        assert_eq!(*body, "slow");
        assert_eq!(*computer.join().unwrap(), "slow");
        assert_eq!(cache.singleflight_waits(), 1);
        let (hits, misses, _) = cache.counters();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn unrelated_keys_are_not_blocked_by_a_slow_compute() {
        // The two-phase design's point: a cold tile computing must not
        // stall other keys (even same-shard ones). Start a slow compute,
        // then fetch every other key; total time far below the sleep
        // proves no one queued behind it.
        let cache = Arc::new(TileCache::new(1024, obs::Obs::handle()));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let slow = {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                cache.get_or_compute(key(0), move || {
                    gate.wait();
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    "slow".to_string()
                })
            })
        };
        gate.wait();
        let start = std::time::Instant::now();
        for t in 1..64 {
            cache.get_or_compute(key(t), || format!("tile {t}"));
        }
        assert!(
            start.elapsed() < std::time::Duration::from_millis(150),
            "other keys stalled behind the slow compute: {:?}",
            start.elapsed()
        );
        assert_eq!(*slow.join().unwrap(), "slow");
    }

    #[test]
    fn panicked_compute_releases_waiters_to_retry() {
        let cache = Arc::new(TileCache::new(64, obs::Obs::handle()));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let dead = {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                cache.get_or_compute(key(3), move || {
                    gate.wait();
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    panic!("injected compute failure");
                })
            })
        };
        gate.wait();
        std::thread::sleep(std::time::Duration::from_millis(2));
        // This call waits on the doomed flight, then retries and
        // computes the tile itself.
        let body = cache.get_or_compute(key(3), || "recovered".to_string());
        assert_eq!(*body, "recovered");
        assert!(dead.join().is_err());
    }

    #[test]
    fn occupancy_tracks_entries_per_shard() {
        let cache = TileCache::new(1024, obs::Obs::handle());
        for t in 0..32 {
            cache.get_or_compute(key(t), || "x".into());
        }
        let occ = cache.shard_occupancy();
        assert_eq!(occ.len(), CACHE_SHARDS);
        assert_eq!(occ.iter().sum::<usize>(), 32);
        let high = cache.shard_occupancy_high();
        assert_eq!(high, *occ.iter().max().unwrap() as i64);
    }

    #[test]
    fn key_shards_are_pinned() {
        // The shard of every key in a small grid, one hex digit each:
        // FNV-1a of the key's LE field bytes, mod 16.
        let mut got = String::new();
        for digest in [0, 42, 0xdead_beef_cafe_f00d] {
            for rank in 0..4 {
                for zoom in 0..3 {
                    for tile in 0..4 {
                        let k = TileKey {
                            digest,
                            rank,
                            zoom,
                            tile,
                        };
                        got.push_str(&format!("{:x}", k.shard()));
                    }
                }
            }
        }
        assert_eq!(
            got,
            "fedccdef5476cdeffedc230154762301fedc23015476cdefdcfeab897654ab89\
             dcfe456776544567dcfe45677654ab89ab89dcfe4567dcfeab89765445677654\
             ab8976544567dcfe"
        );
    }
}
