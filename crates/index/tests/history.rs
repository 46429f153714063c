//! A linearizability-style history checker over the shipping write path:
//! writers with disjoint uid sets refresh, migrate and remove objects
//! through [`ShardedMovingIndex::try_upsert`] / `try_remove` while readers
//! issue point lookups, whole-index scans and two-row scan plans, under a
//! seeded schedule that perturbs the migration span
//! ([`peb_common::sched::Site::MigSpan`]).
//!
//! # History checking model
//!
//! Writers own disjoint uid sets, so each uid's writes are totally
//! ordered in real time, and every report carries a unique position — its
//! value. Each operation is stamped with invocation/response ticks from
//! one global clock. The checker then validates every *observation* (a
//! point get, or one uid's presence/absence in a scan) per uid: uid `u`'s
//! state sequence is `None, v₁, v₂, …` where `vᵢ` came from write `wᵢ`,
//! state `i` is possibly-visible in the window `[inv(wᵢ), resp(wᵢ₊₁)]` (it
//! can take effect any time inside its write, and must be gone once the
//! *next* write has returned), and an observation is legal iff its own
//! `[inv, resp]` window overlaps the window of some state carrying the
//! observed value. Scans stamp one window for the whole walk — a widening
//! that only ever makes the check more permissive, never unsound — and
//! are checked uid by uid.
//!
//! One documented relaxation: a cross-partition migration leaves the
//! object in no shard between its evict and its insert, and a point
//! lookup that lands there answers `None` (the index's concurrency
//! contract). Such a write is stamped `gap`, and a `gap` observation (a
//! get) of `None` is also legal anywhere inside it. Scans get no such
//! allowance: the migration epoch promises they never miss — or double —
//! a migrating object. What one scan *may* do is meet a uid twice across
//! a remove and a re-report in another partition: two operations, each
//! read-committed on its own.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use peb_btree::{ScanPlan, Visit};
use peb_common::{sched, Deadline, MovingPoint, Point, SpaceConfig, UserId, Vec2};
use peb_index::{KeyLayout, ShardedMovingIndex, TimePartitioning};
use peb_storage::BufferPool;

/// Same minimal layout as the unit tests: `[TID]₂ ⊕ [ZV]₂ ⊕ [UID]₂`.
#[derive(Debug, Clone, Copy)]
struct TestLayout;

const ZV_BITS: u32 = 20;
const UID_BITS: u32 = 32;

impl KeyLayout for TestLayout {
    fn zv_bits(&self) -> u32 {
        ZV_BITS
    }

    fn key(&self, tid: u8, zv: u64, uid: u64) -> u128 {
        ((tid as u128) << (ZV_BITS + UID_BITS)) | ((zv as u128) << UID_BITS) | uid as u128
    }

    fn partition_range(&self, tid: u8) -> (u128, u128) {
        (self.key(tid, 0, 0), self.key(tid, (1 << ZV_BITS) - 1, (1 << UID_BITS) - 1))
    }
}

/// SplitMix64 — the tests' only randomness; a seed reproduces the whole
/// workload and decision stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- linearizability-style history checking ----------------------------

#[derive(Clone, Copy, Debug)]
struct Event {
    uid: u64,
    /// `Some(v)` for a report carrying the unique value `v`, `None` for a
    /// remove (writes) / an observed absence (observations).
    val: Option<u64>,
    inv: u64,
    resp: u64,
    /// On a write: a cross-partition migration, during which the uid is
    /// briefly in no shard. On an observation: a point lookup, which may
    /// land in that gap; scans may not.
    gap: bool,
}

/// Check every observation of `uid` against its (totally ordered) write
/// history; panics with the offending observation on a violation.
fn check_key(uid: u64, writes: &mut [Event], obs: &[Event]) {
    writes.sort_by_key(|w| w.inv);
    // Per-uid single-writer: write windows never overlap each other.
    for w in writes.windows(2) {
        assert!(w[0].resp <= w[1].inv, "uid {uid}: overlapping writes {w:?}");
    }
    // states[i] = (value, earliest it can take effect, latest it can
    // still be observed). State i is overwritten at the latest when
    // write i+1 returns.
    let mut states: Vec<(Option<u64>, u64, u64)> =
        vec![(None, 0, writes.first().map_or(u64::MAX, |w| w.resp))];
    for (i, w) in writes.iter().enumerate() {
        let end = writes.get(i + 1).map_or(u64::MAX, |n| n.resp);
        states.push((w.val, w.inv, end));
    }
    for o in obs {
        let overlaps = |start: u64, end: u64| start <= o.resp && o.inv <= end;
        let legal = states.iter().any(|&(v, start, end)| v == o.val && overlaps(start, end))
            || (o.gap
                && o.val.is_none()
                && writes.iter().any(|w| w.gap && overlaps(w.inv, w.resp)));
        assert!(
            legal,
            "uid {uid}: observation {o:?} matches no possibly-visible state\nstates: {states:?}"
        );
    }
    // One scan (ticks are unique, so one `inv`) that met the uid more than
    // once: legal only if a remove lies between the writes it saw.
    let mut sightings: HashMap<u64, Vec<usize>> = HashMap::new();
    for o in obs.iter().filter(|o| !o.gap && o.val.is_some()) {
        let at = writes.iter().position(|w| w.val == o.val).expect("a legal value was written");
        sightings.entry(o.inv).or_default().push(at);
    }
    for (inv, mut at) in sightings {
        at.sort_unstable();
        for pair in at.windows(2) {
            let removed_between = writes
                .get(pair[0] + 1..pair[1])
                .is_some_and(|between| between.iter().any(|w| w.val.is_none()));
            assert!(
                removed_between,
                "uid {uid}: the scan invoked at {inv} met it twice with no remove between\n\
                 {:?}\n{:?}",
                writes[pair[0]], writes[pair[1]]
            );
        }
    }
}

// ---- the workload --------------------------------------------------------

/// Uids at and above this are ballast: reported once before the clock
/// starts and never again, so each shard tree spans several leaves and
/// every whole-index scan has a fixed population to find exactly once.
const BALLAST_BASE: u64 = 10_000;
const BALLAST: u64 = 300;

/// A report in phase `phase` (0..3, one per rotating partition) whose
/// position encodes the unique value `val` — integers below 2²⁴, exact in
/// the record's f32.
fn report(uid: u64, val: u64, phase: u64) -> MovingPoint {
    let pos = Point::new((val % 1_000) as f64, (val / 1_000) as f64);
    MovingPoint::new(UserId(uid), pos, Vec2::ZERO, phase as f64 * 60.0 + 10.0)
}

fn value_of(x: f64, y: f64) -> u64 {
    y as u64 * 1_000 + x as u64
}

/// Writer `w` owns uids `w * 100 .. w * 100 + per`.
fn universe(writers: u64, per: u64) -> Vec<u64> {
    (0..writers).flat_map(|w| (0..per).map(move |i| w * 100 + i)).collect()
}

/// One scan's observations: every sighting of a uid of `keyspace`, or its
/// absence, stamped with the scan's window. Panics if the scan lost or
/// doubled a ballast object.
fn observe_scan(
    what: &str,
    keyspace: &[u64],
    (inv, resp): (u64, u64),
    seen: &[(u64, u64)],
    obs: &mut Vec<Event>,
) {
    let mut ballast: Vec<u64> = seen.iter().map(|s| s.0).filter(|&u| u >= BALLAST_BASE).collect();
    ballast.sort_unstable();
    assert!(
        ballast.iter().copied().eq(BALLAST_BASE..BALLAST_BASE + BALLAST),
        "{what}: ballast objects lost or doubled"
    );
    for &uid in keyspace {
        let before = obs.len();
        obs.extend(seen.iter().filter(|s| s.0 == uid).map(|&(_, val)| Event {
            uid,
            val: Some(val),
            inv,
            resp,
            gap: false,
        }));
        if obs.len() == before {
            obs.push(Event { uid, val: None, inv, resp, gap: false });
        }
    }
}

/// One seeded round of the stress: `writers` threads refresh, migrate and
/// remove their own uids while `readers` threads get and scan; every
/// event lands in a shared history that is checked per uid.
fn run_history_stress(seed: u64, writers: u64, per: u64, rounds: u64, readers: usize) {
    let _sched = sched::SeededSection::new(seed);

    let idx = ShardedMovingIndex::new(
        Arc::new(BufferPool::new(256)),
        TestLayout,
        SpaceConfig::new(1000.0, 10, 1440.0),
        TimePartitioning::new(120.0, 2),
        3.0,
    );
    let clock = Arc::new(AtomicU64::new(1));
    let mut history: Vec<Event> = Vec::new();
    for b in 0..BALLAST {
        idx.upsert(report(BALLAST_BASE + b, 900_000 + b, b % 3));
    }
    // Pre-populate half of each writer's uids; these are writes that
    // completed before the clock started.
    let keyspace = universe(writers, per);
    let mut start_phase: HashMap<u64, u64> = HashMap::new();
    for (n, &uid) in keyspace.iter().enumerate() {
        if n % 2 == 0 {
            let (val, phase) = (800_000 + n as u64, n as u64 % 3);
            idx.upsert(report(uid, val, phase));
            history.push(Event { uid, val: Some(val), inv: 0, resp: 0, gap: false });
            start_phase.insert(uid, phase);
        }
    }
    let idx = Arc::new(idx);
    let done = Arc::new(AtomicBool::new(false));

    let writer_threads: Vec<_> = (0..writers)
        .map(|w| {
            let idx = Arc::clone(&idx);
            let clock = Arc::clone(&clock);
            // uid → phase it currently lives in (absent = removed).
            let mut phase_of: HashMap<u64, u64> =
                start_phase.iter().filter(|(u, _)| **u / 100 == w).map(|(u, p)| (*u, *p)).collect();
            std::thread::spawn(move || {
                let mut events = Vec::with_capacity(rounds as usize);
                let mut val = w * 100_000; // unique values per writer
                for r in 0..rounds {
                    let h = mix(seed ^ (w << 40) ^ r);
                    let uid = w * 100 + h % per;
                    let here = phase_of.get(&uid).copied();
                    let (to, gap) = match (h >> 8) % 5 {
                        // refresh in place (first sighting if removed)
                        0..=2 => (Some(here.unwrap_or((h >> 16) % 3)), false),
                        // cross-partition migration
                        3 => (Some((here.unwrap_or(0) + 1 + (h >> 16) % 2) % 3), here.is_some()),
                        _ => (None, false),
                    };
                    let inv = clock.fetch_add(1, Ordering::SeqCst);
                    let written = match to {
                        Some(phase) => {
                            val += 1;
                            idx.try_upsert(report(uid, val, phase)).unwrap();
                            phase_of.insert(uid, phase);
                            Some(val)
                        }
                        None => {
                            assert_eq!(idx.try_remove(UserId(uid)).unwrap(), here.is_some());
                            phase_of.remove(&uid);
                            None
                        }
                    };
                    let resp = clock.fetch_add(1, Ordering::SeqCst);
                    events.push(Event { uid, val: written, inv, resp, gap });
                }
                events
            })
        })
        .collect();

    let reader_threads: Vec<_> = (0..readers)
        .map(|rid| {
            let idx = Arc::clone(&idx);
            let clock = Arc::clone(&clock);
            let done = Arc::clone(&done);
            let keyspace = keyspace.clone();
            std::thread::spawn(move || {
                // Readers loop as fast as they can while the writers work,
                // so an unbounded log can outgrow memory on a slow box (a
                // scan records every uid). Past the cap the reader keeps
                // reading — the race pressure is the point — but stops
                // logging.
                const OBS_CAP: usize = 200_000;
                let unbounded = Deadline::unbounded(idx.pool().clock());
                let mut obs: Vec<Event> = Vec::new();
                let mut n = 0u64;
                while !done.load(Ordering::Relaxed) {
                    n += 1;
                    let h = mix(seed ^ ((rid as u64) << 48) ^ n);
                    let mut seen: Vec<(u64, u64)> = Vec::new();
                    let mut collect = |rec: peb_index::ObjectRecord| {
                        seen.push((rec.uid, value_of(rec.x as f64, rec.y as f64)));
                    };
                    let inv = clock.fetch_add(1, Ordering::SeqCst);
                    let what = match h % 3 {
                        0 => {
                            let uid = keyspace[(h >> 8) as usize % keyspace.len()];
                            let got = idx.try_get(UserId(uid)).unwrap();
                            let resp = clock.fetch_add(1, Ordering::SeqCst);
                            let val = got.map(|m| value_of(m.pos.x, m.pos.y));
                            obs.push(Event { uid, val, inv, resp, gap: true });
                            continue;
                        }
                        1 => {
                            let done = idx.try_scan_keys(0, u128::MAX, |_, rec| {
                                collect(rec);
                                true
                            });
                            assert!(done.unwrap());
                            "try_scan_keys"
                        }
                        // The whole key space as two rows cut somewhere
                        // inside one partition.
                        _ => {
                            let (lo, hi) = TestLayout.partition_range(((h >> 8) % 3) as u8);
                            let cut = lo + (h >> 16) as u128 % (hi - lo);
                            let rows = vec![(0, cut), (cut + 1, u128::MAX)];
                            let plan = ScanPlan::new(rows.clone(), rows);
                            assert_eq!(plan.rows().len(), 2);
                            let report = idx.try_scan_plan(&plan, &unbounded, |_, rec| {
                                collect(rec);
                                Visit::Next
                            });
                            assert!(report.unwrap().is_complete());
                            "try_scan_plan"
                        }
                    };
                    let resp = clock.fetch_add(1, Ordering::SeqCst);
                    if obs.len() < OBS_CAP {
                        observe_scan(what, &keyspace, (inv, resp), &seen, &mut obs);
                    }
                }
                obs
            })
        })
        .collect();

    for t in writer_threads {
        history.extend(t.join().unwrap());
    }
    done.store(true, Ordering::Relaxed);
    let mut observations: Vec<Event> = Vec::new();
    for t in reader_threads {
        observations.extend(t.join().unwrap());
    }

    // Quiesced checks first: the final state equals the model's replay of
    // the same history, by point lookup and by scan.
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut ordered = history.clone();
    ordered.sort_by_key(|w| w.inv);
    for w in &ordered {
        match w.val {
            Some(v) => model.insert(w.uid, v),
            None => model.remove(&w.uid),
        };
    }
    for &uid in &keyspace {
        let got = idx.try_get(UserId(uid)).unwrap().map(|m| value_of(m.pos.x, m.pos.y));
        assert_eq!(got, model.get(&uid).copied(), "seed {seed}: final state of uid {uid}");
    }
    assert_eq!(idx.len(), model.len() + BALLAST as usize, "seed {seed}");
    let mut scanned: HashMap<u64, u64> = HashMap::new();
    idx.scan_keys(0, u128::MAX, |_, rec| {
        if rec.uid < BALLAST_BASE {
            scanned.insert(rec.uid, value_of(rec.x as f64, rec.y as f64));
        }
        true
    });
    assert_eq!(scanned, model, "seed {seed}: quiesced scan");

    // Per-uid window check of every observation.
    for &uid in &keyspace {
        let mut writes: Vec<Event> = history.iter().filter(|w| w.uid == uid).copied().collect();
        let obs: Vec<Event> = observations.iter().filter(|o| o.uid == uid).copied().collect();
        check_key(uid, &mut writes, &obs);
    }
}

/// The headline suite: 8 fixed seeds, each a different deterministic
/// yield schedule over the same racing workload. `--ignored` runs the
/// long soak below.
#[test]
fn lin_history_stress_eight_seeds() {
    for seed in [3, 7, 0xB0, 0xC4FE, 0xDEAD, 0x5EED, 0x9_1917, 0xAB_CDEF] {
        run_history_stress(seed, 3, 20, 400, 2);
    }
}

/// Long soak (CI `--ignored` lane): 16 fresh seeds, wider uid sets and
/// histories 25 times as deep as the eight-seed suite. The reader
/// observation cap bounds both memory and the window checker's input.
#[test]
#[ignore = "long soak; run explicitly with --ignored"]
fn lin_history_soak() {
    for seed in 0..16u64 {
        run_history_stress(mix(seed), 3, 24, 10_000, 2);
    }
}

// ---- the checker, checked -------------------------------------------------

fn ev(val: Option<u64>, inv: u64, resp: u64, gap: bool) -> Event {
    Event { uid: 1, val, inv, resp, gap }
}

/// v₁ written in [10, 12], migrated to v₂ in [20, 24], removed in [30, 32].
fn sample_writes() -> Vec<Event> {
    vec![ev(Some(1), 10, 12, false), ev(Some(2), 20, 24, true), ev(None, 30, 32, false)]
}

#[test]
fn checker_accepts_every_possibly_visible_state() {
    let obs = [
        ev(None, 1, 2, false),      // before the first write
        ev(None, 11, 11, false),    // inside it: may not have landed yet
        ev(Some(1), 11, 11, false), // … or may have
        ev(Some(1), 21, 23, false), // the old value until the next write returns
        ev(Some(2), 20, 22, false), // the new one from its invocation on
        ev(None, 22, 22, true),     // a get in the migration gap
        ev(Some(2), 31, 31, false), // still visible inside the remove
        ev(None, 40, 41, false),    // gone after it
    ];
    check_key(1, &mut sample_writes(), &obs);
}

#[test]
#[should_panic(expected = "matches no possibly-visible state")]
fn checker_rejects_a_stale_read() {
    // v₁ seen strictly after the write that replaced it had returned.
    check_key(1, &mut sample_writes(), &[ev(Some(1), 25, 26, false)]);
}

#[test]
#[should_panic(expected = "matches no possibly-visible state")]
fn checker_rejects_a_scan_that_misses_a_migrating_object() {
    // The same absence a get may report inside the gap is illegal for a scan.
    check_key(1, &mut sample_writes(), &[ev(None, 22, 22, false)]);
}

#[test]
#[should_panic(expected = "met it twice with no remove between")]
fn checker_rejects_a_scan_that_doubles_a_migrating_object() {
    // Old and new entry of the migration, both inside one scan's window.
    check_key(1, &mut sample_writes(), &[ev(Some(1), 21, 23, false), ev(Some(2), 21, 23, false)]);
}

#[test]
fn checker_accepts_a_resighting_across_a_remove() {
    let mut writes = sample_writes();
    writes.push(ev(Some(3), 40, 42, false)); // re-reported after the remove
    check_key(1, &mut writes, &[ev(Some(2), 29, 43, false), ev(Some(3), 29, 43, false)]);
}
