//! Deterministic schedule-perturbation hooks for concurrency tests.
//!
//! Interleaving bugs in the seqlock and migration-epoch protocols depend
//! on *where* threads get preempted, which an OS scheduler chooses
//! arbitrarily. This module gives tests two handles on that choice without
//! adding any cost to production runs:
//!
//! * a **seeded yield injector** — [`enable_seeded`] makes every
//!   instrumented site ([`probe`]) decide from `hash(seed, site, per-site
//!   counter)` whether to spin-yield there, so a seed reproduces the same
//!   *decision sequence* run after run and different seeds explore
//!   different interleavings;
//! * **gates** — [`gate`] blocks a thread at a named site until the test
//!   calls [`open`], letting a test freeze a writer mid-protocol (say,
//!   between evicting a migrating object and re-inserting it) and prove
//!   readers still make progress. This is what turns a race that "usually"
//!   shows up into a named, always-failing-before-the-fix regression test.
//!
//! Instrumented code calls [`probe`] at protocol boundaries (today the
//! migration span). Disabled — the default — a probe is one relaxed atomic
//! load and a predicted branch; no allocation, no lock, nothing on the I/O
//! or lock ledgers. The hooks live in `peb_common` so every crate can
//! share one schedule controller.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// An instrumented protocol boundary. The variants are deliberately
/// coarse — schedules perturb *classes* of sites; precise single-point
/// control uses [`gate`] with a site name instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Inside a migration span: the epoch's `started` edge is bumped and
    /// the re-keyed object is mid-flight (evicted from its old shard,
    /// not yet inserted into its new one). Tests park a writer here to
    /// race scans and cancellations against an in-flight migration.
    MigSpan,
}

/// Global on/off for the yield injector. Relaxed everywhere: schedules
/// only need determinism *per thread*, which the per-thread counters
/// below provide; cross-thread ordering is exactly what is being fuzzed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);

struct Gates {
    /// Gate name → remaining number of threads to block (0 = open).
    closed: Mutex<HashMap<&'static str, usize>>,
    cv: Condvar,
}

fn gates() -> &'static Gates {
    static GATES: OnceLock<Gates> = OnceLock::new();
    GATES.get_or_init(|| Gates { closed: Mutex::new(HashMap::new()), cv: Condvar::new() })
}

thread_local! {
    /// Per-site decision counters: the injector's choice at the n-th
    /// occurrence of a site on this thread depends only on (seed, site, n),
    /// never on wall-clock time or other threads.
    static COUNTS: std::cell::RefCell<HashMap<Site, u64>> =
        std::cell::RefCell::new(HashMap::new());
}

/// Turn the seeded yield injector on. Every [`probe`] call from any
/// thread now consults the deterministic decision stream for `seed`.
/// Tests must pair this with [`disable`] (ideally via a guard) because
/// the switch is process-global.
pub fn enable_seeded(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
    COUNTS.with(|c| c.borrow_mut().clear());
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the yield injector off and open every gate (so a panicking test
/// cannot leave a worker thread blocked forever).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut closed = gates().closed.lock().unwrap();
    closed.clear();
    gates().cv.notify_all();
}

/// SplitMix64 — a tiny, well-distributed mixer; good enough to turn
/// (seed, site, counter) into an unbiased yield decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The instrumented-site hook. Disabled: one relaxed load. Enabled: a
/// deterministic fraction of occurrences yield the thread (between one
/// and four `yield_now`s, also seed-determined) so the OS interleaves
/// the racing threads at protocol boundaries instead of timeslice edges.
#[inline]
pub fn probe(site: Site) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    probe_slow(site);
}

/// The gate name [`probe`] routes `site` through while the injector is
/// enabled, so a test can park threads at a site *class* — "the next
/// migration span", "the second one" — with [`close`] alone,
/// without bespoke [`gate`] calls in the instrumented code.
pub const fn site_name(site: Site) -> &'static str {
    match site {
        Site::MigSpan => "site:mig-span",
    }
}

#[cold]
fn probe_slow(site: Site) {
    gate(site_name(site));
    let n = COUNTS.with(|c| {
        let mut c = c.borrow_mut();
        let e = c.entry(site).or_insert(0);
        *e += 1;
        *e
    });
    let h = mix(SEED.load(Ordering::Relaxed) ^ mix(site as u64) ^ n);
    // Yield at roughly 3 of 8 site occurrences; vary the yield count so
    // the preempted thread sometimes loses more than one slice.
    if h % 8 < 3 {
        for _ in 0..(1 + (h >> 8) % 4) {
            std::thread::yield_now();
        }
    }
}

/// Close `name`: the next [`gate`] arrivals block until [`open`] (each
/// [`open`] releases every currently and subsequently arriving thread).
/// `permits` threads may *pass* before blocking starts — `0` blocks the
/// first arrival, `1` lets one through and blocks the second, and so on;
/// this is how a test stops a writer at its *n*-th arrival rather than
/// its first.
pub fn close(name: &'static str, permits: usize) {
    let mut closed = gates().closed.lock().unwrap();
    closed.insert(name, permits);
}

/// Open `name`, waking every thread blocked on it.
pub fn open(name: &'static str) {
    let mut closed = gates().closed.lock().unwrap();
    closed.remove(name);
    gates().cv.notify_all();
}

/// A named synchronization point. No-op unless a test [`close`]d `name`;
/// then the first arrivals consume the gate's permits and later arrivals
/// block until [`open`]. Instrumented code places these at the exact
/// protocol step a regression test needs to freeze.
pub fn gate(name: &'static str) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let g = gates();
    let mut closed = g.closed.lock().unwrap();
    match closed.get_mut(name) {
        None => {}
        Some(permits) if *permits > 0 => *permits -= 1,
        Some(_) => {
            *waiters().lock().unwrap().entry(name).or_insert(0) += 1;
            while closed.contains_key(name) {
                closed = g.cv.wait(closed).unwrap();
            }
            *waiters().lock().unwrap().get_mut(name).expect("waiter registered") -= 1;
        }
    }
}

/// Whether at least one thread is currently blocked on `name`. Polled by
/// tests to know the frozen thread has actually reached its gate. This is
/// conservative: it returns `true` only once a waiter is inside the wait
/// loop's critical section or parked on the condvar.
pub fn is_blocked(name: &'static str) -> bool {
    // A blocked waiter holds no lock while parked, so the observable
    // signal is "the gate is closed with zero permits and some thread has
    // re-entered the wait loop". We approximate with a flag map updated by
    // the waiters themselves.
    waiters().lock().unwrap().get(name).copied().unwrap_or(0) > 0
}

fn waiters() -> &'static Mutex<HashMap<&'static str, usize>> {
    static WAITERS: OnceLock<Mutex<HashMap<&'static str, usize>>> = OnceLock::new();
    WAITERS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The controller (injector flag, seed, gate table) is process-global, and
/// `cargo test` runs tests on parallel threads: every section serializes
/// here so one test's [`disable`] can never open another test's gates.
/// Poison-tolerant — a test that panicked inside its section must not
/// fail every later one.
fn section_lock() -> MutexGuard<'static, ()> {
    static SECTION: Mutex<()> = Mutex::new(());
    SECTION.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard: enables the seeded injector on construction, disables it
/// (and opens all gates) on drop — including on panic, so one failing
/// seed never wedges the rest of the test binary. Holds the process-wide
/// section lock for its whole lifetime, so sections never overlap.
pub struct SeededSection {
    _serial: MutexGuard<'static, ()>,
}

impl SeededSection {
    /// Enable the injector for this scope (waits for any other live
    /// section in the process to end first).
    pub fn new(seed: u64) -> Self {
        let _serial = section_lock();
        enable_seeded(seed);
        SeededSection { _serial }
    }
}

impl Drop for SeededSection {
    fn drop(&mut self) {
        disable(); // before the lock field drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Spin until some thread is parked on `name` (a yield, not a sleep:
    /// the test proceeds exactly when the condition holds).
    fn wait_until_blocked(name: &'static str) {
        while !is_blocked(name) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn disabled_probe_is_a_noop() {
        let _serial = section_lock();
        disable();
        probe(Site::MigSpan);
        gate("never-closed");
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let stream = |seed: u64| -> Vec<u64> {
            (0..64).map(|n| mix(seed ^ mix(Site::MigSpan as u64) ^ n) % 8).collect()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8), "different seeds must explore differently");
    }

    #[test]
    fn gates_block_and_release() {
        let _s = SeededSection::new(1);
        close("t-gate", 1);
        // First arrival consumes the permit and passes immediately.
        gate("t-gate");
        let th = std::thread::spawn(|| {
            gate("t-gate"); // second arrival blocks until open()
            true
        });
        wait_until_blocked("t-gate");
        assert!(!th.is_finished(), "second arrival must be parked on the gate");
        open("t-gate");
        assert!(th.join().unwrap());
    }

    #[test]
    fn disable_opens_leftover_gates() {
        let _serial = section_lock();
        enable_seeded(2);
        close("leak-gate", 0);
        let th = std::thread::spawn(|| gate("leak-gate"));
        wait_until_blocked("leak-gate");
        disable();
        th.join().unwrap();
    }

    #[test]
    fn seeded_yields_do_not_break_progress() {
        let _s = SeededSection::new(0xC0FFEE);
        let done = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        probe(Site::MigSpan);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::Relaxed), 4);
    }
}
