//! Overload experiment: goodput under saturation, with and without the
//! serving layer's defenses, on the frozen 8K-user shape.
//!
//! The model is a server that runs **scheduling rounds**: each round, a
//! burst of `multiplier × quantum` queries arrives, then the server
//! executes a `quantum`-query service slice ([`QueryServer::drain_n`]).
//! At 1× the server keeps up; at 2× and 4× it cannot, and the two
//! configurations part ways:
//!
//! * **Protected** — a bounded queue (`capacity = quantum`) with
//!   [`DropPolicy::ShedOldest`]: overflow sheds the stalest queued query
//!   as a typed [`Rejected::Shed`], so every slot the server actually
//!   spends goes to a query fresh enough to meet its deadline.
//! * **Unprotected** — the same server with an effectively unbounded
//!   queue: every arrival is admitted, the backlog grows by
//!   `(multiplier − 1) × quantum` per round, and queue wait silently eats
//!   the deadline budget stamped at admission. The deadline-checked
//!   engines still degrade cooperatively — stale queries return typed
//!   partial answers within a page visit or two — but a partial answer
//!   to a query whose client deadline passed is not goodput.
//!
//! **Goodput** here is therefore *complete* answers delivered within the
//! service horizon (`rounds` rounds; work still queued when the horizon
//! ends was never served). The deadline budget is calibrated from the
//! measured warm per-query cost — two rounds' worth of service — so the
//! numbers transfer across machines: everything asserted on is a
//! deterministic function of the virtual [`peb_common::TickClock`] the
//! buffer pool advances per page access.
//!
//! Also measured: p99 and max deadline overshoot across every served
//! answer (the cooperative-cancellation bound: a query stops within one
//! page-visit epsilon of expiry), and a byte-identity check of the event
//! ledgers across two from-scratch runs of the whole sweep (the
//! determinism contract of [`QueryServer::drain`]).
//!
//! [`Rejected::Shed`]: peb_serve::Rejected::Shed

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_index::TimePartitioning;
use peb_serve::{DropPolicy, Event, QueryServer, Request, ServeStats, ServerConfig};
use peb_storage::BufferPool;
use peb_workload::{DatasetBuilder, QueryGenerator};
use pebtree::{PebTree, PrivacyContext};

use crate::harness::RunConfig;

/// One page-visit epsilon: how far past its effective deadline a served
/// query may finish (the engines check the deadline at page and entry
/// boundaries, so expiry is detected within a visit or two).
pub const OVERSHOOT_EPSILON: u64 = 2;

/// One (configuration × saturation multiplier) measurement.
#[derive(Debug, Clone, Copy)]
pub struct OverloadPoint {
    /// Offered load as a multiple of the per-round service quantum.
    pub multiplier: usize,
    /// Queries offered over the whole horizon.
    pub offered: u64,
    /// The server's outcome counters for this point.
    pub stats: ServeStats,
    /// p99 of `served_tick − max(deadline, start_tick)` over every served
    /// answer (0 when nothing overshot).
    pub p99_overshoot: u64,
    /// Worst single overshoot.
    pub max_overshoot: u64,
}

/// The whole experiment: both configurations over the multiplier sweep.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Users in the dataset (the frozen seed shape).
    pub users: usize,
    /// Scheduling rounds per point (the service horizon).
    pub rounds: usize,
    /// Service slots per round == the protected queue capacity.
    pub quantum: usize,
    /// Measured warm per-query cost, virtual ticks.
    pub calib_ticks_per_query: f64,
    /// Deadline budget stamped at admission (two rounds of service).
    pub deadline_budget: u64,
    /// Bounded-queue + shed-oldest points, one per multiplier.
    pub protected: Vec<OverloadPoint>,
    /// Unbounded-queue twin points, same multipliers.
    pub unprotected: Vec<OverloadPoint>,
    /// Whether two from-scratch runs of the sweep produced byte-identical
    /// event ledgers (must be true; asserted by callers).
    pub ledger_identical: bool,
}

impl OverloadReport {
    /// Peak goodput: complete answers of the protected 1× point.
    pub fn peak_goodput(&self) -> u64 {
        self.protected.first().map(|p| p.stats.served_complete).unwrap_or(0)
    }

    /// A point's complete answers as a fraction of peak goodput.
    pub fn retention(&self, p: &OverloadPoint) -> f64 {
        p.stats.served_complete as f64 / self.peak_goodput().max(1) as f64
    }

    /// Flat JSON trajectory entry (append-never-edit protocol, see
    /// docs/BENCHMARKS.md). All fields are deterministic virtual-clock
    /// counters — there is no wall-clock weather in this entry.
    pub fn to_json(&self) -> String {
        use crate::report::json_f64 as f;
        let mut rows: Vec<(String, String)> = vec![
            ("users".into(), self.users.to_string()),
            ("rounds".into(), self.rounds.to_string()),
            ("quantum".into(), self.quantum.to_string()),
            ("calib_ticks_per_query".into(), f(self.calib_ticks_per_query)),
            ("deadline_budget".into(), self.deadline_budget.to_string()),
            ("overshoot_epsilon".into(), OVERSHOOT_EPSILON.to_string()),
            ("peak_goodput".into(), self.peak_goodput().to_string()),
            ("ledger_identical".into(), self.ledger_identical.to_string()),
        ];
        for (config, points) in [("prot", &self.protected), ("unprot", &self.unprotected)] {
            for p in points {
                let key = |name: &str| format!("{config}_x{}_{name}", p.multiplier);
                rows.push((key("offered"), p.offered.to_string()));
                rows.push((key("admitted"), p.stats.admitted.to_string()));
                rows.push((key("queue_full"), p.stats.queue_full.to_string()));
                rows.push((key("shed"), p.stats.shed.to_string()));
                rows.push((key("complete"), p.stats.served_complete.to_string()));
                rows.push((key("partial"), p.stats.served_partial.to_string()));
                rows.push((key("failed"), p.stats.failed.to_string()));
                rows.push((key("retention"), f(self.retention(p))));
                rows.push((key("p99_overshoot"), p.p99_overshoot.to_string()));
                rows.push((key("max_overshoot"), p.max_overshoot.to_string()));
            }
        }
        crate::report::json_object(&rows)
    }
}

/// The frozen overload configuration: the `BENCH_seed.json` dataset
/// shape over a resident pool (warm service cost is constant, so the
/// calibrated budget is exact).
pub fn overload_config() -> RunConfig {
    RunConfig {
        num_users: 8_000,
        policies_per_user: 20,
        theta: 0.7,
        queries: 100, // unused: the sweep sizes its own batches
        seed: 0xBA5E,
        buffer_pages: 2_048,
        ..Default::default()
    }
}

/// Run the experiment on the frozen configuration: 16-slot rounds, an
/// 8-round horizon, saturation at 1×/2×/4×.
pub fn measure_overload() -> OverloadReport {
    measure_overload_with(&overload_config(), 16, 8, &[1, 2, 4])
}

/// Run the experiment on an arbitrary configuration. Builds the world,
/// calibrates the deadline budget from warm per-query cost, runs every
/// (configuration × multiplier) point — then does it all again from
/// scratch and byte-compares the two runs' event ledgers.
pub fn measure_overload_with(
    cfg: &RunConfig,
    quantum: usize,
    rounds: usize,
    multipliers: &[usize],
) -> OverloadReport {
    let (first, ledger_a) = sweep(cfg, quantum, rounds, multipliers);
    let (_, ledger_b) = sweep(cfg, quantum, rounds, multipliers);
    let (protected, unprotected, calib, budget) = first;
    OverloadReport {
        users: cfg.num_users,
        rounds,
        quantum,
        calib_ticks_per_query: calib,
        deadline_budget: budget,
        protected,
        unprotected,
        ledger_identical: ledger_a == ledger_b,
    }
}

type SweepOut = (Vec<OverloadPoint>, Vec<OverloadPoint>, f64, u64);

/// One from-scratch run of the whole sweep. Returns the points plus the
/// concatenated event ledgers of every point — the determinism witness.
fn sweep(
    cfg: &RunConfig,
    quantum: usize,
    rounds: usize,
    multipliers: &[usize],
) -> (SweepOut, String) {
    let dataset = DatasetBuilder::default()
        .num_users(cfg.num_users)
        .max_speed(cfg.max_speed)
        .distribution(cfg.distribution)
        .policies_per_user(cfg.policies_per_user)
        .grouping_factor(cfg.theta)
        .seed(cfg.seed)
        .build();
    let space = dataset.space;
    let ctx = Arc::new(PrivacyContext::build(
        dataset.store.clone(),
        space,
        dataset.users.len(),
        cfg.sv_params,
    ));
    let tree = PebTree::new(
        Arc::new(BufferPool::new(cfg.buffer_pages)),
        space,
        TimePartitioning::default(),
        cfg.max_speed,
        Arc::clone(&ctx),
    );
    for m in &dataset.users {
        tree.upsert(*m);
    }
    let tree = Arc::new(tree);

    // One shared request tape, PRQ-heavy with a PkNN every third slot;
    // each point replays its prefix, so a point's workload is a function
    // of (shape, multiplier) only.
    let max_mult = multipliers.iter().copied().max().unwrap_or(1);
    let total = rounds * quantum * max_mult;
    let gen = QueryGenerator::new(space, dataset.users.len());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0CE4);
    let ranges = gen.range_batch(&mut rng, total, cfg.window_side, cfg.tq);
    let knns = gen.knn_batch(&mut rng, total, cfg.k, cfg.tq);
    let reqs: Vec<Request> = (0..total)
        .map(|i| {
            if i % 3 == 2 {
                let q = &knns[i];
                Request::Pknn { issuer: q.issuer, center: q.q, k: q.k, tq: q.tq }
            } else {
                let q = &ranges[i];
                Request::Prq { issuer: q.issuer, window: q.window, tq: q.tq }
            }
        })
        .collect();

    // Warm the pool over the whole tape (the resident pool keeps every
    // touched page, so service cost is constant afterwards), then price
    // one warm query and set the budget to two rounds of service.
    for r in &reqs {
        run_unbounded(&tree, r);
    }
    let clock = tree.pool().clock().clone();
    let t0 = clock.now();
    for r in reqs.iter().take(quantum) {
        run_unbounded(&tree, r);
    }
    let calib = (clock.now() - t0) as f64 / quantum.max(1) as f64;
    let budget = ((2 * quantum) as f64 * calib).ceil().max(1.0) as u64;

    let mut protected = Vec::new();
    let mut unprotected = Vec::new();
    let mut ledgers = String::new();
    for &mult in multipliers {
        for bounded in [true, false] {
            let server = QueryServer::new(
                Arc::clone(&tree),
                ServerConfig {
                    queue_capacity: if bounded { quantum } else { total + 1 },
                    drop_policy: if bounded {
                        DropPolicy::ShedOldest
                    } else {
                        DropPolicy::RejectNew
                    },
                    deadline_budget: budget,
                    breaker: None, // clean media; isolate admission + deadlines
                    ..ServerConfig::default()
                },
            );
            let arrivals = mult * quantum;
            for round in 0..rounds {
                for r in &reqs[round * arrivals..(round + 1) * arrivals] {
                    // ShedOldest and the oversized queue admit everything;
                    // rejections (none expected here) are typed and counted.
                    let _ = server.submit(*r);
                }
                server.drain_n(quantum);
            }
            let (p99, max) = overshoots(&server);
            let point = OverloadPoint {
                multiplier: mult,
                offered: (rounds * arrivals) as u64,
                stats: server.stats(),
                p99_overshoot: p99,
                max_overshoot: max,
            };
            ledgers.push_str(&format!(
                "== {} x{mult}\n",
                if bounded { "protected" } else { "unprotected" }
            ));
            ledgers.push_str(&server.ledger_text());
            if bounded {
                protected.push(point);
            } else {
                unprotected.push(point);
            }
        }
    }
    ((protected, unprotected, calib, budget), ledgers)
}

fn run_unbounded(tree: &PebTree, r: &Request) {
    match *r {
        Request::Prq { issuer, window, tq } => {
            let _ = tree.prq(issuer, &window, tq);
        }
        Request::Pknn { issuer, center, k, tq } => {
            let _ = tree.pknn(issuer, center, k, tq);
        }
    }
}

/// Replay a server's ledger into (p99, max) deadline overshoot over the
/// served answers: `served_tick − max(deadline_at, start_tick)`, clamped
/// at zero. The `start_tick` floor matters for backlogged queries that
/// never *started* before expiry — cooperative cancellation promises
/// they stop within a page visit of starting, not that they time-travel.
fn overshoots(server: &QueryServer) -> (u64, u64) {
    let mut deadline: HashMap<u64, u64> = HashMap::new();
    let mut floor: HashMap<u64, u64> = HashMap::new();
    let mut over: Vec<u64> = Vec::new();
    for e in server.ledger() {
        match e.event {
            Event::Admitted { ticket, deadline_at, .. } => {
                deadline.insert(ticket, deadline_at);
            }
            Event::Started { ticket } | Event::Retried { ticket, .. } => {
                floor.insert(ticket, e.tick);
            }
            Event::Served { ticket, .. } => {
                let d = *deadline.get(&ticket).expect("served ticket was admitted");
                let f = *floor.get(&ticket).expect("served ticket was started");
                over.push(e.tick.saturating_sub(d.max(f)));
            }
            _ => {}
        }
    }
    over.sort_unstable();
    let p99 =
        if over.is_empty() { 0 } else { over[((over.len() - 1) as f64 * 0.99).ceil() as usize] };
    (p99, over.last().copied().unwrap_or(0))
}

/// Figure-mode table.
pub fn print_table(r: &OverloadReport) {
    println!(
        "config\tmult\toffered\tcomplete\tpartial\tshed\tretention\tp99_over\t({} users, {} rounds x {} slots, budget {} ticks)",
        r.users, r.rounds, r.quantum, r.deadline_budget
    );
    for (name, points) in [("protected", &r.protected), ("unprotected", &r.unprotected)] {
        for p in points {
            println!(
                "{name}\tx{}\t{}\t{}\t{}\t{}\t{:.2}\t{}",
                p.multiplier,
                p.offered,
                p.stats.served_complete,
                p.stats.served_partial,
                p.stats.shed,
                r.retention(p),
                p.p99_overshoot,
            );
        }
    }
    println!("ledger_identical\t{}", r.ledger_identical);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shedding_preserves_goodput_where_the_unprotected_twin_collapses() {
        let cfg = RunConfig {
            num_users: 1_200,
            policies_per_user: 8,
            seed: 0x0BAD_10AD,
            buffer_pages: 1_024,
            ..Default::default()
        };
        // 16-slot rounds, like the frozen shape: the two-round budget is
        // priced from the *mean* warm query, and a round has to be long
        // enough that one tail query (a PkNN whose far friend sits across
        // a leaf boundary from its SV row's first page walks every round
        // of the matrix, ~10 mean queries) cannot eat it at 1x.
        let r = measure_overload_with(&cfg, 16, 6, &[1, 4]);

        assert!(r.ledger_identical, "two from-scratch sweeps produced different ledgers");
        assert!(r.calib_ticks_per_query > 0.0);
        assert!(r.peak_goodput() > 0, "the 1x point must serve complete answers");

        // At 1x both configurations keep up: everything offered is served
        // complete within its deadline.
        for p in [&r.protected[0], &r.unprotected[0]] {
            assert_eq!(p.stats.served_complete, p.offered, "1x must be all-complete");
        }

        // The acceptance bars: shedding retains >= 70% of peak goodput at
        // 4x; the unbounded-queue twin collapses below 50% because queue
        // wait eats the deadlines stamped at admission.
        let prot4 = r.protected.last().unwrap();
        let unprot4 = r.unprotected.last().unwrap();
        assert!(
            r.retention(prot4) >= 0.7,
            "protected 4x retention {:.2} below the bar",
            r.retention(prot4)
        );
        assert!(
            r.retention(unprot4) < 0.5,
            "unprotected 4x retention {:.2} did not collapse",
            r.retention(unprot4)
        );
        assert!(prot4.stats.shed > 0, "overload must shed typed victims");
        assert_eq!(unprot4.stats.shed + unprot4.stats.queue_full, 0, "twin must admit everything");

        // Cooperative cancellation: no served answer finished more than a
        // page-visit epsilon past its effective deadline.
        for p in r.protected.iter().chain(r.unprotected.iter()) {
            assert!(
                p.p99_overshoot <= OVERSHOOT_EPSILON,
                "x{} p99 overshoot {} ticks",
                p.multiplier,
                p.p99_overshoot
            );
            assert_eq!(p.stats.failed, 0, "clean media must not fail queries");
        }
    }

    #[test]
    fn json_entry_is_well_formed() {
        let point = |mult: usize, complete: u64| OverloadPoint {
            multiplier: mult,
            offered: 128,
            stats: ServeStats { served_complete: complete, ..Default::default() },
            p99_overshoot: 0,
            max_overshoot: 1,
        };
        let r = OverloadReport {
            users: 8_000,
            rounds: 8,
            quantum: 16,
            calib_ticks_per_query: 12.5,
            deadline_budget: 400,
            protected: vec![point(1, 128), point(4, 128)],
            unprotected: vec![point(1, 128), point(4, 40)],
            ledger_identical: true,
        };
        let j = r.to_json();
        assert!(j.starts_with("{\n") && j.ends_with("}\n"));
        assert!(j.contains("\"prot_x4_retention\": 1.00"));
        assert!(j.contains("\"unprot_x4_retention\": 0.31"));
        assert!(j.contains("\"peak_goodput\": 128"));
        assert!(j.contains("\"ledger_identical\": true"));
        // 8 header keys + 2 configs x 2 points x 10 fields.
        assert_eq!(j.matches(':').count(), 48, "one key per field");
    }
}
