//! Deterministic seeded fault injection for robustness testing.
//!
//! The self-healing claims of the service layer (worker pools that rebuild
//! after panics, budgets that abort instead of OOM-ing, sockets that close
//! cleanly) are only credible if they are *exercised*. This module plants
//! cheap fault points at the places real failures originate —
//!
//! - [`ChaosSite::Alloc`]: fresh scratch/bitmap allocations (a simulated
//!   allocation failure panics, which the engine's per-task isolation
//!   converts into a typed [`crate::EngineError::WorkerPanic`]);
//! - [`ChaosSite::WorkerPanic`]: an engine worker dying on a root. The
//!   scheduler hands workers one root at a time, so the site draws once per
//!   claimed root and the resulting `PartitionFailure.task` names that
//!   single root; a single-worker run draws in ascending root order, which
//!   is what makes its fault schedule reproducible;
//! - [`ChaosSite::SchedWorker`]: a scheduler pool worker dying outside the
//!   engine (exercises the supervisor's pool rebuild);
//! - [`ChaosSite::SocketIo`]: a connection handler dropping a live socket
//!   mid-request (clients see a transport failure, never a hang)
//!
//! — and drives them from one seeded plan. Decisions are pure functions of
//! `(seed, site, draw index)`: for a fixed seed, the multiset of faults
//! injected over the first N draws at a site is exactly reproducible, so a
//! chaos soak that passes once passes every time (which faults land on
//! which query still varies with thread interleaving — that is the point
//! of a soak).
//!
//! The plan is process-global (fault points live deep inside per-worker
//! hot structures where threading a handle through every layer would cost
//! more than it tests). When no plan is installed — the default, and the
//! only supported state outside dedicated chaos tests — every probe is a
//! single relaxed atomic load. Injected panics carry the
//! [`CHAOS_PANIC_PREFIX`] marker so harnesses can tell injected faults
//! from real bugs.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Marker prefixing every chaos-injected panic message.
pub const CHAOS_PANIC_PREFIX: &str = "chaos:";

/// A fault-injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSite {
    /// Fresh heap allocation in the scratch arena / bitmap cache.
    Alloc,
    /// Engine mining worker, per claimed root.
    WorkerPanic,
    /// Scheduler pool worker, per dequeued job.
    SchedWorker,
    /// Server connection handler, per protocol request.
    SocketIo,
}

const SITES: usize = 4;

impl ChaosSite {
    fn index(self) -> usize {
        match self {
            ChaosSite::Alloc => 0,
            ChaosSite::WorkerPanic => 1,
            ChaosSite::SchedWorker => 2,
            ChaosSite::SocketIo => 3,
        }
    }

    /// Human-readable site name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            ChaosSite::Alloc => "alloc",
            ChaosSite::WorkerPanic => "worker-panic",
            ChaosSite::SchedWorker => "sched-worker",
            ChaosSite::SocketIo => "socket-io",
        }
    }
}

/// Per-site fault rates in permille (0 = never, 1000 = every draw), plus
/// the seed that makes the draw sequence reproducible.
///
/// Sites draw at wildly different frequencies — an engine probes the
/// alloc site thousands of times per query but the socket site once per
/// request — so a rate alone cannot shape a survivable storm.
/// [`max_per_site`](Self::max_per_site) bounds the total faults any one
/// site injects: the storm front-loads its faults, then the site goes
/// quiet and recovery can actually be observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Permille of fresh allocations that fail.
    pub alloc_per_mille: u32,
    /// Permille of claimed roots whose worker panics.
    pub worker_panic_per_mille: u32,
    /// Permille of scheduled jobs whose pool worker panics.
    pub sched_worker_per_mille: u32,
    /// Permille of protocol requests whose connection is dropped.
    pub socket_io_per_mille: u32,
    /// Ceiling on faults injected per site (`u64::MAX` = unbounded). The
    /// hit *schedule* stays seed-deterministic; under concurrency the cap
    /// admits the first `max_per_site` scheduled hits in draw order.
    pub max_per_site: u64,
}

impl ChaosPlan {
    /// A plan injecting nothing (rates all zero) under `seed` — a base to
    /// build on with struct update syntax.
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            alloc_per_mille: 0,
            worker_panic_per_mille: 0,
            sched_worker_per_mille: 0,
            socket_io_per_mille: 0,
            max_per_site: u64::MAX,
        }
    }

    fn rate(&self, site: ChaosSite) -> u32 {
        match site {
            ChaosSite::Alloc => self.alloc_per_mille,
            ChaosSite::WorkerPanic => self.worker_panic_per_mille,
            ChaosSite::SchedWorker => self.sched_worker_per_mille,
            ChaosSite::SocketIo => self.socket_io_per_mille,
        }
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);
static CAP: AtomicU64 = AtomicU64::new(u64::MAX);
static RATES: [AtomicU32; SITES] = [
    AtomicU32::new(0),
    AtomicU32::new(0),
    AtomicU32::new(0),
    AtomicU32::new(0),
];
static DRAWS: [AtomicU64; SITES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static INJECTED: [AtomicU64; SITES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Installs `plan` process-wide and resets the draw/injection counters.
/// Intended for dedicated chaos tests and the soak harness only; every
/// other test must run with chaos uninstalled (integration-test binaries
/// are separate processes, so a chaos suite cannot leak into its
/// neighbours).
pub fn install(plan: ChaosPlan) {
    // ord: relaxed(plan fields; the ACTIVE release store below publishes them)
    SEED.store(plan.seed, Ordering::Relaxed);
    // ord: relaxed(plan fields; the ACTIVE release store below publishes them)
    CAP.store(plan.max_per_site, Ordering::Relaxed);
    for site in [
        ChaosSite::Alloc,
        ChaosSite::WorkerPanic,
        ChaosSite::SchedWorker,
        ChaosSite::SocketIo,
    ] {
        let i = site.index();
        // ord: relaxed(plan fields; the ACTIVE release store below publishes them)
        RATES[i].store(plan.rate(site), Ordering::Relaxed);
        // ord: relaxed(plan fields; the ACTIVE release store below publishes them)
        DRAWS[i].store(0, Ordering::Relaxed);
        // ord: relaxed(plan fields; the ACTIVE release store below publishes them)
        INJECTED[i].store(0, Ordering::Relaxed);
    }
    // ord: release(publishes the plan fields stored above to any probe that acquires ACTIVE)
    ACTIVE.store(true, Ordering::Release);
}

/// Uninstalls any active plan; every subsequent probe is a no-op again.
pub fn clear() {
    // ord: release(pairs with the probes' acquire load; uninstall needs no data handoff but stays symmetric)
    ACTIVE.store(false, Ordering::Release);
}

/// Whether a chaos plan is currently installed.
pub fn active() -> bool {
    // ord: acquire(pairs with install's release store so the plan fields are visible)
    ACTIVE.load(Ordering::Acquire)
}

/// Faults injected so far at `site` under the current plan.
pub fn injected(site: ChaosSite) -> u64 {
    // ord: relaxed(test-side counter read after the run being measured has joined)
    INJECTED[site.index()].load(Ordering::Relaxed)
}

/// SplitMix64: the standard 64-bit finalizer, statistically strong enough
/// for fault scheduling (and dependency-free).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws one fault decision at `site`. `false` always when no plan is
/// installed; otherwise `true` on the deterministic per-mille schedule.
pub fn should_fail(site: ChaosSite) -> bool {
    // Upgraded from relaxed: a probe observing ACTIVE=true must also see
    // the seed/rates/cap stored by install before its release store.
    // ord: acquire(pairs with install's release store, which publishes the plan fields)
    if !ACTIVE.load(Ordering::Acquire) {
        return false;
    }
    let i = site.index();
    // ord: relaxed(plan fields are ordered by the ACTIVE acquire/release pair above)
    let rate = RATES[i].load(Ordering::Relaxed);
    if rate == 0 {
        return false;
    }
    // ord: relaxed(independent draw ticket; cross-thread draw order is intentionally unspecified)
    let draw = DRAWS[i].fetch_add(1, Ordering::Relaxed);
    // ord: relaxed(plan fields are ordered by the ACTIVE acquire/release pair above)
    let seed = SEED.load(Ordering::Relaxed);
    // Salt the site index in so sites draw independent streams.
    let hit = splitmix64(seed ^ ((i as u64) << 56) ^ draw) % 1000 < u64::from(rate);
    if !hit {
        return false;
    }
    // A scheduled hit past the per-site ceiling is withheld (and not
    // counted), so `injected()` never exceeds the cap.
    // ord: relaxed(plan fields are ordered by the ACTIVE acquire/release pair above)
    let cap = CAP.load(Ordering::Relaxed);
    // ord: relaxed(counter pair; over-reservation is corrected by the fetch_sub below)
    if INJECTED[i].fetch_add(1, Ordering::Relaxed) >= cap {
        // ord: relaxed(undoes this thread's own reservation)
        INJECTED[i].fetch_sub(1, Ordering::Relaxed);
        return false;
    }
    true
}

/// Probes the allocation site and panics — simulating the allocation
/// failure the real allocator would abort on — when the plan says so.
/// Callers sit under the engine's per-task `catch_unwind`, so the panic
/// surfaces as a typed [`crate::EngineError::WorkerPanic`], never a crash.
pub fn maybe_fail_alloc(what: &str) {
    if should_fail(ChaosSite::Alloc) {
        panic!("{CHAOS_PANIC_PREFIX} injected allocation failure ({what})");
    }
}

/// Probes the engine-worker site and panics when the plan says so.
pub fn maybe_panic_worker() {
    if should_fail(ChaosSite::WorkerPanic) {
        panic!("{CHAOS_PANIC_PREFIX} injected mining-worker panic");
    }
}

/// Probes the scheduler-worker site and panics when the plan says so.
pub fn maybe_panic_sched_worker() {
    if should_fail(ChaosSite::SchedWorker) {
        panic!("{CHAOS_PANIC_PREFIX} injected scheduler-worker panic");
    }
}

/// Whether `message` (a panic payload) is a chaos-injected fault rather
/// than a real bug.
pub fn is_chaos_panic(message: &str) -> bool {
    message.starts_with(CHAOS_PANIC_PREFIX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All chaos unit tests share the process-global plan, so they run
    /// under one lock (and restore the uninstalled state on exit). The
    /// engine's unit tests run in this same process without that lock, so
    /// plans here only arm the scheduler-worker and socket sites, which no
    /// engine run draws from.
    fn with_plan<R>(plan: ChaosPlan, f: impl FnOnce() -> R) -> R {
        let _guard = lock();
        install(plan);
        let r = f();
        clear();
        r
    }

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn uninstalled_chaos_never_fires() {
        let _guard = lock();
        assert!(!active());
        for _ in 0..100 {
            assert!(!should_fail(ChaosSite::SocketIo));
        }
    }

    #[test]
    fn decision_stream_is_seed_deterministic() {
        let plan = ChaosPlan {
            sched_worker_per_mille: 250,
            ..ChaosPlan::quiet(42)
        };
        let first: Vec<bool> = with_plan(plan, || {
            (0..200)
                .map(|_| should_fail(ChaosSite::SchedWorker))
                .collect()
        });
        let second: Vec<bool> = with_plan(plan, || {
            (0..200)
                .map(|_| should_fail(ChaosSite::SchedWorker))
                .collect()
        });
        assert_eq!(first, second);
        let hits = first.iter().filter(|h| **h).count();
        assert!(hits > 10 && hits < 100, "250‰ over 200 draws hit {hits}×");
        assert_eq!(with_plan(plan, || injected(ChaosSite::SchedWorker)), 0);
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = ChaosPlan {
            sched_worker_per_mille: 500,
            socket_io_per_mille: 500,
            ..ChaosPlan::quiet(7)
        };
        let (a, s): (Vec<bool>, Vec<bool>) = with_plan(plan, || {
            (
                (0..64)
                    .map(|_| should_fail(ChaosSite::SchedWorker))
                    .collect(),
                (0..64).map(|_| should_fail(ChaosSite::SocketIo)).collect(),
            )
        });
        assert_ne!(a, s, "same-rate sites must not fire in lockstep");
    }

    #[test]
    fn injected_panics_carry_the_marker() {
        let plan = ChaosPlan {
            sched_worker_per_mille: 1000,
            ..ChaosPlan::quiet(1)
        };
        let message = with_plan(plan, || {
            let payload = std::panic::catch_unwind(maybe_panic_sched_worker)
                .expect_err("1000‰ must fire on every draw");
            crate::error::panic_message(payload)
        });
        assert!(is_chaos_panic(&message), "{message}");
        assert!(!is_chaos_panic("index out of bounds"));
    }

    #[test]
    fn per_site_cap_bounds_injections() {
        let plan = ChaosPlan {
            socket_io_per_mille: 1000,
            max_per_site: 3,
            ..ChaosPlan::quiet(9)
        };
        with_plan(plan, || {
            let hits = (0..50).filter(|_| should_fail(ChaosSite::SocketIo)).count();
            assert_eq!(hits, 3, "cap must stop a 1000‰ site after 3 faults");
            assert_eq!(injected(ChaosSite::SocketIo), 3);
        });
    }

    #[test]
    fn zero_rate_site_never_fires_even_when_active() {
        let plan = ChaosPlan {
            socket_io_per_mille: 1000,
            ..ChaosPlan::quiet(3)
        };
        with_plan(plan, || {
            for _ in 0..50 {
                assert!(!should_fail(ChaosSite::Alloc));
            }
            assert!(should_fail(ChaosSite::SocketIo));
        });
    }
}
