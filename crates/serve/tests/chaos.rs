//! The deterministic chaos harness for the serving layer.
//!
//! A stratified matrix of overload points — drop policy × deadline budget
//! × fault plan, every point seeded — drives the full pipeline and checks
//! the serving invariants on every single completion:
//!
//! 1. **Typed rejections** — every query the server refuses or sheds gets
//!    a typed [`Rejected`] (queue-full at submit, shed / circuit-open as
//!    a completion); nothing is silently dropped and the stats counters
//!    reconcile exactly with the submission ledger.
//! 2. **Exact or explicitly partial** — every served answer is compared
//!    against an unloaded twin tree: complete answers are byte-equal to
//!    the twin's, partial answers are exact subsets tagged incomplete.
//! 3. **Bounded overshoot** — a Served event never lands more than a
//!    page-visit epsilon past `max(deadline, execution start, last retry
//!    resume)` on the virtual clock (fault plans get a documented larger
//!    allowance for in-flight pool backoff and latency spikes).
//! 4. **Goodput recovers after a burst** — a dedicated scenario overloads
//!    the queue 4x, then shows the next normal phase serves everything
//!    with zero rejections.
//! 5. **Determinism** — every matrix point is rebuilt and re-run from
//!    scratch; the event ledger must be byte-identical across the runs.
//!
//! The sixth ISSUE invariant — the migration epoch always rebalances when
//! a deadline fires mid-multi-shard-scan — lives at the index layer in
//! `crates/index/tests/deadline_migration.rs`, where migration can be
//! driven directly. Here the matrix closes the loop from the outside:
//! after every point the media heals and the served tree must answer a
//! full-space PRQ exactly like the never-faulted twin.

use std::collections::BTreeMap;
use std::sync::Arc;

use peb_common::{MovingPoint, Point, Rect, SpaceConfig, TimeInterval, UserId, Vec2};
use peb_index::TimePartitioning;
use peb_policy::{Policy, PolicyStore, RoleId, SvAssignmentParams};
use peb_serve::{
    BreakerConfig, DropPolicy, Event, Priority, QueryServer, Rejected, Request, Response,
    RetryPolicy, ServeError, ServeStats, ServerConfig,
};
use peb_storage::{BufferPool, PageId};
use pebtree::{PebTree, PrivacyContext};

const WHOLE: Rect = Rect { xl: 0.0, xu: 1000.0, yl: 0.0, yu: 1000.0 };
const ALWAYS: TimeInterval = TimeInterval { start: 0.0, end: 1440.0 };
const USERS: u64 = 80;
const TQ: f64 = 80.0;
const QUEUE_CAP: usize = 8;

/// The identical world every point (and its unloaded twin) is built
/// from: one issuer with `USERS` friends spread over a grid, half the
/// updates in each of two live time partitions so every query is a
/// multi-shard scan.
fn build_world() -> PebTree {
    let space = SpaceConfig::default();
    let mut store = PolicyStore::new();
    for o in 1..=USERS {
        store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
    }
    let ctx = Arc::new(PrivacyContext::build(
        store,
        space,
        USERS as usize + 2,
        SvAssignmentParams::default(),
    ));
    let t =
        PebTree::new(Arc::new(BufferPool::new(64)), space, TimePartitioning::default(), 3.0, ctx);
    for i in 1..=USERS {
        let tu = if i % 2 == 0 { 10.0 } else { 70.0 };
        let x = (i as f64 * 131.0) % 950.0;
        let y = (i as f64 * 67.0) % 950.0;
        t.upsert(MovingPoint::new(UserId(i), Point::new(x, y), Vec2::ZERO, tu));
    }
    t
}

/// SplitMix64, for deriving a deterministic workload from a point seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded request mix: two PRQs then a PkNN, windows and k drawn
/// deterministically from the seed, priorities alternating by hash bit.
fn requests(seed: u64, n: usize) -> Vec<(Request, Priority)> {
    (0..n)
        .map(|i| {
            let h = mix(seed ^ i as u64);
            let x = (h % 700) as f64;
            let y = ((h >> 16) % 700) as f64;
            let side = 120.0 + ((h >> 24) % 180) as f64;
            let prio = if h & 1 == 0 { Priority::High } else { Priority::Low };
            let req = if i % 3 == 2 {
                Request::Pknn {
                    issuer: UserId(0),
                    center: Point::new(x + 50.0, y + 50.0),
                    k: 2 + ((h >> 8) % 5) as usize,
                    tq: TQ,
                }
            } else {
                Request::Prq {
                    issuer: UserId(0),
                    window: Rect::new(x, x + side, y, y + side),
                    tq: TQ,
                }
            };
            (req, prio)
        })
        .collect()
}

/// The chaos a point injects before serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// No faults: the strict-overshoot and exactness baseline.
    Clean,
    /// Seeded read-fault schedule (transient / bit-flip / bad-sector mix)
    /// over a durable pool — retries and repair absorb most of it, the
    /// rest surfaces typed.
    Transient,
    /// Seeded slow-read burst: no errors, just injected ticks that eat
    /// deadline budgets mid-page-visit.
    Latency,
    /// Every sector permanently unreadable on a non-durable pool: hard
    /// typed failures that feed the circuit breaker.
    BadSector,
}

#[derive(Debug, Clone, Copy)]
struct PointCfg {
    policy: DropPolicy,
    budget: u64,
    plan: Plan,
    seed: u64,
}

/// Everything a re-run must reproduce byte-for-byte.
struct PointRun {
    ledger: String,
    stats: ServeStats,
    completions_dbg: String,
}

/// The allowed Served-past-deadline overshoot for a plan: one page-visit
/// epsilon (2 ticks: versioned-read fallback) when clean; fault plans add
/// the pool's worst in-flight transient backoff (2+4+8 ticks) and up to
/// four latency spikes of 6 ticks landing inside the final page visit.
fn overshoot_eps(plan: Plan) -> u64 {
    match plan {
        Plan::Clean => 2,
        _ => 2 + 14 + 4 * 6,
    }
}

fn arm(plan: Plan, seed: u64, pool: &BufferPool) {
    match plan {
        Plan::Clean => {}
        Plan::Transient => {
            pool.with_fault_injector(|f| f.arm_seeded_read_schedule(seed, 64, 48));
        }
        Plan::Latency => {
            pool.with_latency_injector(|l| l.arm_seeded_read_burst(seed, 32, 64, 6));
        }
        Plan::BadSector => {
            pool.with_fault_injector(|f| {
                for p in 0..4096u32 {
                    f.mark_bad_sector(PageId(p));
                }
            });
        }
    }
}

/// Build a fresh world, inject the point's chaos, serve its seeded
/// workload in waves, and (when `verify`) check every invariant against
/// an unloaded twin. Returns the replay-diffable artifacts.
fn run_point(cfg: &PointCfg, verify: bool) -> PointRun {
    let tree = build_world();
    let pool = Arc::clone(tree.pool());
    if cfg.plan == Plan::Transient {
        // Enroll durability while the world's frames are still dirty and
        // resident: adoption logs a full image of every page, which is
        // what read-repair rewrites when a scheduled bit flip rots the
        // medium (the rot persists until rewritten — clearing the
        // injector alone cannot heal it).
        pool.set_durable(true);
    }
    pool.flush_all();
    pool.clear();
    arm(cfg.plan, cfg.seed, &pool);

    let server = QueryServer::new(
        Arc::new(tree),
        ServerConfig {
            queue_capacity: QUEUE_CAP,
            drop_policy: cfg.policy,
            deadline_budget: cfg.budget,
            retry: RetryPolicy::default(),
            breaker: Some(BreakerConfig::default()),
            seed: cfg.seed,
        },
    );

    // Two waves of 12 against a queue of 8: every wave both overflows the
    // queue (typed rejections) and serves (goodput), with fresh deadlines
    // stamped at each wave's submission instant.
    let mut admitted: BTreeMap<u64, Request> = BTreeMap::new();
    let mut queue_full_submits = 0u64;
    for wave in requests(cfg.seed, 24).chunks(12) {
        for (req, prio) in wave {
            match server.submit_with(*req, *prio) {
                Ok(ticket) => {
                    admitted.insert(ticket, *req);
                }
                Err(Rejected::QueueFull { capacity }) => {
                    assert_eq!(capacity, QUEUE_CAP, "typed rejection carries the real capacity");
                    queue_full_submits += 1;
                }
                Err(Rejected::CircuitOpen { .. }) => {
                    assert!(
                        matches!(cfg.plan, Plan::Transient | Plan::BadSector),
                        "breakers only open under injected faults"
                    );
                }
                Err(r) => panic!("submit returned unexpected rejection {r:?}"),
            }
        }
        server.drain();
    }

    let completions = server.take_completions();
    let stats = server.stats();

    // Bookkeeping reconciles exactly: one completion per admitted ticket,
    // none for refused submissions, and the counters agree with both.
    assert_eq!(stats.submitted, 24);
    assert_eq!(stats.admitted as usize, admitted.len());
    assert_eq!(stats.queue_full, queue_full_submits);
    assert_eq!(completions.len(), admitted.len(), "every admitted ticket completes exactly once");
    {
        let mut seen: Vec<u64> = completions.iter().map(|c| c.ticket).collect();
        seen.sort_unstable();
        let expect: Vec<u64> = admitted.keys().copied().collect();
        assert_eq!(seen, expect, "completions cover the admitted tickets, no dupes");
    }

    if verify {
        verify_against_twin(cfg, &server, &admitted, &completions);
    }

    // Heal everything and prove the served tree was never corrupted: the
    // full-space answer must match the never-faulted twin's exactly.
    pool.with_fault_injector(|f| f.clear());
    pool.with_latency_injector(|l| l.clear());
    if verify {
        let twin = build_world();
        let want = twin.try_prq(UserId(0), &WHOLE, TQ).expect("clean twin");
        let got = server.tree().try_prq(UserId(0), &WHOLE, TQ).expect("healed media");
        assert_eq!(got, want, "after healing, the chaos tree answers exactly");
        assert_eq!(want.len() as u64, USERS, "the world must be fully visible");
    }

    PointRun { ledger: server.ledger_text(), stats, completions_dbg: format!("{completions:?}") }
}

fn verify_against_twin(
    cfg: &PointCfg,
    server: &QueryServer,
    admitted: &BTreeMap<u64, Request>,
    completions: &[peb_serve::Completion],
) {
    let twin = build_world();
    let visible = twin.try_prq(UserId(0), &WHOLE, TQ).expect("clean twin");

    let mut shed = 0u64;
    let mut circuit = 0u64;
    let mut failed = 0u64;
    for c in completions {
        match &c.result {
            Ok(resp) => {
                let req = admitted[&c.ticket];
                match (req, resp) {
                    (Request::Prq { issuer, window, tq }, Response::Prq(p)) => {
                        let want = twin.try_prq(issuer, &window, tq).expect("clean twin");
                        if p.is_complete() {
                            assert_eq!(p.value, want, "complete PRQ must equal the twin's");
                        } else {
                            for m in &p.value {
                                assert!(
                                    want.contains(m),
                                    "partial PRQ row {m:?} is not in the twin answer"
                                );
                            }
                        }
                    }
                    (Request::Pknn { issuer, center, k, tq }, Response::Pknn(p)) => {
                        if p.is_complete() {
                            let want = twin.try_pknn(issuer, center, k, tq).expect("clean twin");
                            assert_eq!(p.value, want, "complete PkNN must equal the twin's");
                        } else {
                            assert!(p.value.len() <= k, "degraded PkNN never over-delivers");
                            assert!(
                                p.value.windows(2).all(|w| w[0].1 <= w[1].1),
                                "degraded PkNN stays distance-sorted"
                            );
                            for (m, _) in &p.value {
                                assert!(
                                    visible.contains(m),
                                    "degraded PkNN candidate {m:?} is not policy-visible"
                                );
                            }
                        }
                    }
                    _ => panic!("response kind does not match the request"),
                }
            }
            Err(ServeError::Rejected(Rejected::Shed)) => {
                assert!(
                    !matches!(cfg.policy, DropPolicy::RejectNew),
                    "RejectNew never sheds admitted queries"
                );
                shed += 1;
            }
            Err(ServeError::Rejected(Rejected::CircuitOpen { .. })) => {
                assert!(
                    matches!(cfg.plan, Plan::Transient | Plan::BadSector),
                    "breakers only open under injected faults"
                );
                circuit += 1;
            }
            Err(ServeError::Rejected(r)) => panic!("unexpected rejection completion {r:?}"),
            Err(ServeError::Query(e)) => {
                assert!(
                    matches!(cfg.plan, Plan::Transient | Plan::BadSector),
                    "clean/latency plans must never fail a query, got {e}"
                );
                failed += 1;
            }
            Err(e) => panic!("unexpected completion error {e:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.shed, shed, "every shed victim has a typed completion");
    assert_eq!(stats.failed, failed);
    assert_eq!(
        stats.goodput() + shed + circuit + failed,
        completions.len() as u64,
        "served + shed + circuit-rejected + failed account for every completion"
    );

    // Bounded overshoot: a Served event never lands past
    // max(deadline, start, last retry resume) + epsilon.
    if cfg.budget != u64::MAX {
        let eps = overshoot_eps(cfg.plan);
        let mut deadline: BTreeMap<u64, u64> = BTreeMap::new();
        let mut floor: BTreeMap<u64, u64> = BTreeMap::new();
        for e in server.ledger() {
            match e.event {
                Event::Admitted { ticket, deadline_at, .. } => {
                    deadline.insert(ticket, deadline_at);
                }
                Event::Started { ticket } | Event::Retried { ticket, .. } => {
                    floor.insert(ticket, e.tick);
                }
                Event::Served { ticket, .. } => {
                    let d = deadline[&ticket];
                    let f = floor[&ticket];
                    let allowed = d.max(f) + eps;
                    assert!(
                        e.tick <= allowed,
                        "ticket {ticket} served at {} past deadline {d} (floor {f}, eps {eps})",
                        e.tick
                    );
                }
                _ => {}
            }
        }
    }
}

/// The matrix: 3 drop policies x 3 deadline budgets x 4 fault plans = 36
/// stratified points, each with its own seed, each rebuilt and re-run to
/// prove the ledger is byte-identical.
#[test]
fn chaos_matrix_holds_every_invariant_across_36_points() {
    let policies = [DropPolicy::RejectNew, DropPolicy::ShedOldest, DropPolicy::Priority];
    let budgets = [10u64, 400, u64::MAX];
    let plans = [Plan::Clean, Plan::Transient, Plan::Latency, Plan::BadSector];

    let mut idx = 0u64;
    let mut agg = ServeStats::default();
    for &policy in &policies {
        for &budget in &budgets {
            for &plan in &plans {
                let cfg = PointCfg {
                    policy,
                    budget,
                    plan,
                    seed: 0xC4A0_5EED ^ idx.wrapping_mul(0x9E37_79B9),
                };
                let one = run_point(&cfg, true);
                let two = run_point(&cfg, false);
                assert_eq!(
                    one.ledger, two.ledger,
                    "point {idx} ({policy:?}/{budget}/{plan:?}): ledger must be byte-identical"
                );
                assert_eq!(one.stats, two.stats, "point {idx}: stats must replay exactly");
                assert_eq!(
                    one.completions_dbg, two.completions_dbg,
                    "point {idx}: completions must replay exactly"
                );
                agg.submitted += one.stats.submitted;
                agg.admitted += one.stats.admitted;
                agg.queue_full += one.stats.queue_full;
                agg.shed += one.stats.shed;
                agg.circuit_rejected += one.stats.circuit_rejected;
                agg.served_complete += one.stats.served_complete;
                agg.served_partial += one.stats.served_partial;
                agg.failed += one.stats.failed;
                agg.retries += one.stats.retries;
                idx += 1;
            }
        }
    }
    assert_eq!(idx, 36, "the matrix must cover all 36 stratified points");

    // The matrix must actually exercise every behavior it claims to: full
    // queues, shedding, complete and partial service.
    assert!(agg.served_complete > 0, "some queries must complete ({agg:?})");
    assert!(agg.served_partial > 0, "tiny budgets must force partial answers ({agg:?})");
    assert!(agg.queue_full > 0, "overflowing waves must trip queue-full ({agg:?})");
    assert!(agg.shed > 0, "shed policies must evict under overflow ({agg:?})");
    assert!(agg.failed > 0, "bad sectors must surface typed failures ({agg:?})");
}

/// Seeded soak for the CI `--ignored` lane: 48 extra points with policy,
/// budget, and fault plan drawn deterministically from a soak seed —
/// wider seed diversity than the stratified matrix, every point fully
/// verified against its twin and replayed for ledger identity. Run with
/// `cargo test --release -p peb_serve --test chaos -- --ignored`.
#[test]
#[ignore = "seeded soak: run explicitly in the release --ignored CI lane"]
fn seeded_overload_soak_holds_invariants_on_sampled_points() {
    let policies = [DropPolicy::RejectNew, DropPolicy::ShedOldest, DropPolicy::Priority];
    let budgets = [10u64, 120, 400, u64::MAX];
    let plans = [Plan::Clean, Plan::Transient, Plan::Latency, Plan::BadSector];

    let mut agg = ServeStats::default();
    for i in 0..48u64 {
        let h = mix(0xD05E_50AC ^ i);
        let cfg = PointCfg {
            policy: policies[(h % 3) as usize],
            budget: budgets[((h >> 8) % 4) as usize],
            plan: plans[((h >> 16) % 4) as usize],
            seed: mix(h),
        };
        let one = run_point(&cfg, true);
        let two = run_point(&cfg, false);
        assert_eq!(
            one.ledger, two.ledger,
            "soak point {i} ({cfg:?}): ledger must be byte-identical"
        );
        assert_eq!(one.stats, two.stats, "soak point {i}: stats must replay exactly");
        agg.served_complete += one.stats.served_complete;
        agg.served_partial += one.stats.served_partial;
        agg.queue_full += one.stats.queue_full;
        agg.shed += one.stats.shed;
        agg.failed += one.stats.failed;
    }
    assert!(agg.served_complete > 0, "the soak must serve complete answers ({agg:?})");
    assert!(agg.served_partial > 0, "sampled tiny budgets must force partials ({agg:?})");
    assert!(agg.queue_full > 0, "sampled waves must trip queue-full ({agg:?})");
    assert!(agg.shed > 0, "sampled shed policies must evict ({agg:?})");
    assert!(agg.failed > 0, "sampled bad sectors must surface typed failures ({agg:?})");
}

/// Invariant 4: a 4x burst degrades service only while it lasts — the
/// next normal phase serves everything again with zero rejections.
#[test]
fn goodput_recovers_after_a_burst() {
    let tree = Arc::new(build_world());
    let server = QueryServer::new(
        Arc::clone(&tree),
        ServerConfig {
            queue_capacity: QUEUE_CAP,
            drop_policy: DropPolicy::ShedOldest,
            deadline_budget: u64::MAX,
            retry: RetryPolicy::default(),
            breaker: Some(BreakerConfig::default()),
            seed: 0xB025_7EED,
        },
    );

    let normal: Vec<(Request, Priority)> = requests(0x90_0D, 6);
    let burst: Vec<(Request, Priority)> = requests(0x000B_0257, 32);

    // Normal phase: everything fits, everything serves.
    for (req, prio) in &normal {
        server.submit_with(*req, *prio).expect("normal load is admitted");
    }
    server.drain();
    let s1 = server.stats();
    assert_eq!(s1.goodput(), 6, "normal phase serves everything");
    assert_eq!(s1.queue_full + s1.shed, 0, "normal phase rejects nothing");

    // Burst: 32 arrivals against a queue of 8. ShedOldest admits every
    // arrival, so exactly 32 - 8 admitted queries are shed — all typed.
    for (req, prio) in &burst {
        server.submit_with(*req, *prio).expect("ShedOldest admits every arrival");
    }
    server.drain();
    let s2 = server.stats();
    assert_eq!(s2.shed, 32 - QUEUE_CAP as u64, "the burst sheds the overflow, typed");
    assert_eq!(s2.goodput() - s1.goodput(), QUEUE_CAP as u64, "the queue's worth still serves");
    let shed_completions = server
        .take_completions()
        .into_iter()
        .filter(|c| matches!(c.result, Err(ServeError::Rejected(Rejected::Shed))))
        .count();
    assert_eq!(shed_completions as u64, s2.shed, "every shed victim got its typed completion");

    // Recovery: the same normal load serves in full again, zero rejections.
    for (req, prio) in &normal {
        server.submit_with(*req, *prio).expect("post-burst load is admitted");
    }
    server.drain();
    let s3 = server.stats();
    assert_eq!(s3.goodput() - s2.goodput(), 6, "goodput is back to the pre-burst rate");
    assert_eq!(s3.queue_full, s2.queue_full, "no queue-full after the burst subsides");
    assert_eq!(s3.shed, s2.shed, "no shedding after the burst subsides");
}

/// One query through the front door of an idle server: admitted, drained,
/// completed under its own ticket, served.
fn serve_one(server: &QueryServer, req: Request) -> Response {
    let ticket = server.submit(req).expect("an idle server admits");
    assert_eq!(server.drain_n(1), 1);
    let mut done = server.take_completions();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].ticket, ticket);
    done.remove(0).result.expect("served, not failed")
}

/// The issuer uid arrives from outside the program. One the policy
/// encoding has never seen is an issuer nobody has a policy toward:
/// Definition 2 gives the empty, complete answer at zero I/O — and the
/// server keeps serving (this used to be an index-out-of-bounds panic in
/// the friend lists, inside `drain`).
#[test]
fn a_strangers_query_completes_empty_and_the_server_lives_on() {
    let tree = Arc::new(build_world());
    let pool = Arc::clone(tree.pool());
    let server = QueryServer::new(Arc::clone(&tree), ServerConfig::default());

    let live = tree.live_partitions().len();
    // First uid past the encoded population (`build_world` encodes
    // USERS + 2), and one far beyond any table.
    for stranger in [UserId(USERS + 2), UserId(u64::MAX >> 1)] {
        for req in [
            Request::Prq { issuer: stranger, window: WHOLE, tq: TQ },
            Request::Pknn { issuer: stranger, center: Point::new(500.0, 500.0), k: 3, tq: TQ },
        ] {
            let before = pool.stats();
            let answer = serve_one(&server, req);
            assert_eq!(answer.rows(), 0, "{req:?}");
            assert!(answer.is_complete(), "{req:?}");
            assert_eq!(answer.partitions().len(), live, "every live partition is tagged");
            assert_eq!(pool.stats(), before, "nobody to look for: no page is touched");
        }
    }

    let answer = serve_one(&server, Request::Prq { issuer: UserId(0), window: WHOLE, tq: TQ });
    assert_eq!(answer.rows(), USERS as usize, "the next well-formed query is answered in full");
}

/// So do the window, the centre and the query time: `Rect` has public
/// fields and a `Request` carries raw floats. A window no point can lie
/// in, a NaN query time, a NaN kNN centre have the empty answer by
/// Definitions 2 and 3 — complete, at zero I/O, nothing for the breakers
/// or the retry policy to see — and the worker lives on (each of these
/// used to trip `Rect::new`'s assert inside `drain`).
#[test]
fn a_malformed_query_completes_empty_and_the_server_lives_on() {
    let tree = Arc::new(build_world());
    let pool = Arc::clone(tree.pool());
    let server = QueryServer::new(Arc::clone(&tree), ServerConfig::default());

    let live = tree.live_partitions().len();
    let centre = Point::new(500.0, 500.0);
    for req in [
        Request::Prq { issuer: UserId(0), window: Rect { xl: 5000.0, ..WHOLE }, tq: TQ },
        Request::Prq { issuer: UserId(0), window: Rect { yu: -5000.0, ..WHOLE }, tq: TQ },
        Request::Prq { issuer: UserId(0), window: Rect { xu: f64::NAN, ..WHOLE }, tq: TQ },
        Request::Prq { issuer: UserId(0), window: WHOLE, tq: f64::NAN },
        Request::Pknn { issuer: UserId(0), center: centre, k: 3, tq: f64::NAN },
        Request::Pknn { issuer: UserId(0), center: Point::new(f64::NAN, 500.0), k: 3, tq: TQ },
    ] {
        let before = pool.stats();
        let answer = serve_one(&server, req);
        assert_eq!(answer.rows(), 0, "{req:?}");
        assert!(answer.is_complete(), "{req:?}");
        assert_eq!(answer.partitions().len(), live, "every live partition is tagged");
        assert_eq!(pool.stats(), before, "no such place or time: no page is touched");
    }
    assert_eq!(server.stats().failed, 0);

    let answer = serve_one(&server, Request::Prq { issuer: UserId(0), window: WHOLE, tq: TQ });
    assert_eq!(answer.rows(), USERS as usize, "the next well-formed query is answered in full");
}

/// The breaker lifecycle end to end: hard faults trip it, it fast-fails
/// typed, the cooldown admits one probe, and a healthy probe closes it.
#[test]
fn circuit_breaker_opens_fast_fails_probes_and_closes() {
    let tree = build_world();
    let pool = Arc::clone(tree.pool());
    pool.flush_all();
    pool.clear();
    // Scorch the whole medium: every query fails typed until healed.
    pool.with_fault_injector(|f| {
        for p in 0..4096u32 {
            f.mark_bad_sector(PageId(p));
        }
    });

    let server = QueryServer::new(
        Arc::new(tree),
        ServerConfig {
            queue_capacity: 16,
            drop_policy: DropPolicy::RejectNew,
            deadline_budget: u64::MAX,
            retry: RetryPolicy::default(),
            breaker: Some(BreakerConfig { window: 4, failure_threshold: 0.5, cooldown: 500 }),
            seed: 0xB12E_AC3E,
        },
    );
    let probe_req = Request::Prq { issuer: UserId(0), window: WHOLE, tq: TQ };

    // Six doomed queries: four fill the window and trip the breaker, the
    // remaining two fast-fail typed at execution time.
    for _ in 0..6 {
        server.submit(probe_req).expect("queue has room");
    }
    server.drain();
    let shard = server.tree().partitioning().partition_of_update(TQ);
    let ledger = server.ledger();
    assert!(
        ledger
            .iter()
            .any(|e| matches!(e.event, Event::BreakerOpened { shard: s, .. } if s == shard)),
        "four straight failures must open shard {shard}'s breaker"
    );
    let completions = server.take_completions();
    let failed =
        completions.iter().filter(|c| matches!(c.result, Err(ServeError::Query(_)))).count();
    let fast_failed = completions
        .iter()
        .filter(|c| {
            matches!(c.result, Err(ServeError::Rejected(Rejected::CircuitOpen { shard: s, .. })) if s == shard)
        })
        .count();
    assert_eq!(failed, 4, "exactly the breaker window fails the hard way");
    assert_eq!(fast_failed, 2, "everything after the trip fast-fails typed");

    // While open, submission itself refuses the query.
    match server.submit(probe_req) {
        Err(Rejected::CircuitOpen { shard: s, retry_at }) => {
            assert_eq!(s, shard);
            assert!(retry_at > server.clock().now(), "the rejection says when to come back");
        }
        other => panic!("open breaker must refuse at submit, got {other:?}"),
    }

    // Heal the medium, wait out the cooldown: one probe goes through,
    // serves, and closes the breaker.
    pool.with_fault_injector(|f| f.clear());
    server.clock().advance(600);
    server.submit(probe_req).expect("cooldown elapsed: the probe is admitted");
    server.drain();
    let ledger = server.ledger();
    assert!(
        ledger.iter().any(|e| matches!(e.event, Event::BreakerHalfOpen { shard: s } if s == shard)),
        "the probe must be ledgered half-open"
    );
    assert!(
        ledger.iter().any(|e| matches!(e.event, Event::BreakerClosed { shard: s } if s == shard)),
        "a healthy probe must close the breaker"
    );
    let probe = server.take_completions();
    assert!(
        matches!(&probe[..], [c] if matches!(&c.result, Ok(r) if r.is_complete())),
        "the probe serves a complete answer off the healed medium"
    );

    // Closed again: normal service, no new breaker events.
    server.submit(probe_req).expect("closed breaker admits normally");
    server.drain();
    assert!(matches!(
        &server.take_completions()[..],
        [c] if matches!(&c.result, Ok(r) if r.is_complete())
    ));
}

/// Thread-pool smoke: concurrent workers over the shared queue complete
/// every admitted ticket exactly once with a typed outcome, and served
/// answers still verify against the twin (deadlines may fire at different
/// ticks than the drain path — that only moves answers between complete
/// and partial, never outside the typed contract).
#[test]
fn concurrent_serving_completes_every_ticket_typed() {
    let tree = Arc::new(build_world());
    let server = QueryServer::new(
        Arc::clone(&tree),
        ServerConfig {
            queue_capacity: 32,
            drop_policy: DropPolicy::RejectNew,
            deadline_budget: 400,
            retry: RetryPolicy::default(),
            breaker: Some(BreakerConfig::default()),
            seed: 0xC0C2_27ED,
        },
    );
    let twin = build_world();
    let visible = twin.try_prq(UserId(0), &WHOLE, TQ).expect("clean twin");

    let mut admitted: BTreeMap<u64, Request> = BTreeMap::new();
    for (req, prio) in requests(0xC0_2C, 20) {
        let ticket = server.submit_with(req, prio).expect("capacity 32 fits 20");
        admitted.insert(ticket, req);
    }
    server.serve_concurrently(4);

    let completions = server.take_completions();
    assert_eq!(completions.len(), 20, "every ticket completes exactly once");
    for c in &completions {
        let resp = c.result.as_ref().expect("no faults: nothing may fail");
        match (admitted[&c.ticket], resp) {
            (Request::Prq { issuer, window, tq }, Response::Prq(p)) => {
                let want = twin.try_prq(issuer, &window, tq).expect("clean twin");
                if p.is_complete() {
                    assert_eq!(p.value, want);
                } else {
                    for m in &p.value {
                        assert!(want.contains(m), "partial rows stay exact under concurrency");
                    }
                }
            }
            (Request::Pknn { issuer, center, k, tq }, Response::Pknn(p)) => {
                if p.is_complete() {
                    assert_eq!(p.value, twin.try_pknn(issuer, center, k, tq).expect("clean twin"));
                } else {
                    assert!(p.value.len() <= k);
                    for (m, _) in &p.value {
                        assert!(visible.contains(m));
                    }
                }
            }
            _ => panic!("response kind does not match the request"),
        }
    }
}
