//! Optimistic-read experiment: how much locking the read path avoids.
//!
//! This PR moved the whole B+-tree read path onto the pool's lock-free
//! versioned pages. The wall-clock benefit needs cores (the dev/CI box
//! has one), so — like `hot_lock_share` before it — this experiment
//! reports **deterministic counters**: for each engine and pool
//! configuration it runs the identical warm PRQ batch twice, once over a
//! pool with optimistic reads disabled (every page touch takes a shard
//! mutex — the PR 3 read path) and once with them enabled, and records
//! locks acquired per query plus the optimistic hit/retry/fallback
//! split. The pool is sized to keep the working set resident, so the
//! measurement isolates the buffer-hit fast path the mutexes used to
//! serialize.
//!
//! It also recomputes the hottest-lock concentration counting only
//! **acquired locks**: PR 3's `hot_lock_share` counted every page touch
//! against the lock that *would* serve it; with the read path lock-free
//! the honest metric is the share of the locks actually taken.
//!
//! Both pools of a pair return identical query results and identical
//! physical I/O — the experiment cross-checks this — so the entry isolates
//! locking, not workload drift. (Logical reads legitimately differ: the
//! scan's descent cache validates through the versioned-page mirror, so a
//! locked pool re-reads branch pages an optimistic pool serves from it.)

use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_storage::LockStats;
use peb_workload::queries::RangeQuerySpec;
use peb_workload::QueryGenerator;

use crate::harness::{RunConfig, World};
use crate::scans::SCAN_POOL_SHARDS;

/// One engine × pool-configuration measurement.
#[derive(Debug, Clone, Copy)]
pub struct OptReadPoint {
    /// Pool lock shards (1 = the paper-exact single-mutex layout).
    pub pool_shards: usize,
    /// Shard-mutex acquisitions per query with optimistic reads **off**.
    pub locked_locks_per_query: f64,
    /// Shard-mutex acquisitions per query with optimistic reads **on**.
    pub opt_locks_per_query: f64,
    /// The optimistic run's locking ledger over the whole batch.
    pub opt: LockStats,
    /// Fraction of *acquired* locks taken by the hottest shard in the
    /// optimistic run (1.0 for a single-shard pool by construction; with
    /// no locks acquired at all it reports 0.0 — nothing was hot).
    pub hot_lock_share_acquired: f64,
}

impl OptReadPoint {
    /// Fraction of locked-path lock acquisitions the optimistic path
    /// avoided (the acceptance metric: ≥ 0.5 on the frozen config).
    pub fn lock_reduction(&self) -> f64 {
        if self.locked_locks_per_query <= 0.0 {
            return 0.0;
        }
        1.0 - self.opt_locks_per_query / self.locked_locks_per_query
    }
}

/// The whole experiment: both engines over single-shard and sharded pools.
#[derive(Debug, Clone)]
pub struct OptReadReport {
    /// Users in the dataset (the frozen seed shape).
    pub users: usize,
    /// Queries in the PRQ batch.
    pub queries: usize,
    /// Total frame budget of each pool (working set stays resident).
    pub pool_pages: usize,
    /// PEB-tree points: `[single-shard pool, sharded pool]`.
    pub peb: Vec<OptReadPoint>,
    /// Bx-tree (spatial baseline) points, same order.
    pub bx: Vec<OptReadPoint>,
}

/// The frozen optimistic-read configuration: the `BENCH_scans.json`
/// dataset shape with the same warm 2048-page pool.
pub fn optread_config() -> RunConfig {
    RunConfig {
        num_users: 8_000,
        policies_per_user: 20,
        theta: 0.7,
        queries: 64,
        seed: 0xBA5E,
        buffer_pages: 2_048,
        ..Default::default()
    }
}

/// Run the experiment on the frozen configuration.
pub fn measure_optreads() -> OptReadReport {
    measure_optreads_with(&optread_config(), &[1, SCAN_POOL_SHARDS])
}

/// Run the experiment on an arbitrary configuration (tests use a small
/// one): for every shard count, build each engine over a locked-only pool
/// and an optimistic pool, warm both, cross-check results and I/O, then
/// measure the locking ledgers of one pass over the batch.
pub fn measure_optreads_with(cfg: &RunConfig, shard_counts: &[usize]) -> OptReadReport {
    // The harness always builds datasets over the default space, so the
    // query batch can be generated up front, shared by every pool pair.
    let gen = QueryGenerator::new(peb_common::SpaceConfig::default(), cfg.num_users);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0097);
    let ranges = gen.range_batch(&mut rng, cfg.queries, cfg.window_side, cfg.tq);

    let mut peb = Vec::new();
    let mut bx = Vec::new();
    for &shards in shard_counts {
        let locked = World::build(&RunConfig {
            pool_shards: shards,
            optimistic_reads: false,
            ..cfg.clone()
        });
        let opt =
            World::build(&RunConfig { pool_shards: shards, optimistic_reads: true, ..cfg.clone() });

        // Warm both pools; the warm pass doubles as the result and
        // I/O cross-check between the two read paths.
        for (i, q) in ranges.iter().enumerate() {
            let a: Vec<_> =
                locked.peb.prq(q.issuer, &q.window, q.tq).iter().map(|m| m.uid).collect();
            let b: Vec<_> = opt.peb.prq(q.issuer, &q.window, q.tq).iter().map(|m| m.uid).collect();
            assert_eq!(a, b, "PEB query {i}: optimistic reads changed the result");
            let a: Vec<_> = locked
                .baseline
                .prq(&locked.ctx.store, q.issuer, &q.window, q.tq)
                .iter()
                .map(|m| m.uid)
                .collect();
            let b: Vec<_> = opt
                .baseline
                .prq(&opt.ctx.store, q.issuer, &q.window, q.tq)
                .iter()
                .map(|m| m.uid)
                .collect();
            assert_eq!(a, b, "Bx query {i}: optimistic reads changed the result");
        }

        peb.push(measure_pair(shards, &ranges, |w, q| {
            let _ = w.peb.prq(q.issuer, &q.window, q.tq);
        })(&locked, &opt));
        bx.push(measure_pair(shards, &ranges, |w, q| {
            let _ = w.baseline.prq(&w.ctx.store, q.issuer, &q.window, q.tq);
        })(&locked, &opt));
    }

    OptReadReport {
        users: cfg.num_users,
        queries: cfg.queries,
        pool_pages: cfg.buffer_pages,
        peb,
        bx,
    }
}

/// Measure one engine pair (locked-only world vs optimistic world) on the
/// warm batch and assemble the point.
fn measure_pair<'a>(
    shards: usize,
    ranges: &'a [RangeQuerySpec],
    run: impl Fn(&World, &RangeQuerySpec) + 'a,
) -> impl FnOnce(&World, &World) -> OptReadPoint + 'a {
    move |locked: &World, opt: &World| {
        let locked_pool = locked.peb.pool().num_shards(); // same for both engines
        debug_assert_eq!(locked_pool, opt.peb.pool().num_shards());

        let batch = |w: &World| {
            // Reset both engines' pools; only the engine under `run`
            // accumulates counters, the other stays at zero.
            w.peb.pool().reset_stats();
            w.baseline.pool().reset_stats();
            for q in ranges {
                run(w, q);
            }
            let l = w.peb.pool().lock_stats().merged(&w.baseline.pool().lock_stats());
            let io = w.peb.pool().stats().merged(&w.baseline.pool().stats());
            let per_shard =
                [w.peb.pool().shard_lock_stats(), w.baseline.pool().shard_lock_stats()].concat();
            (l, io, per_shard)
        };
        let (locked_stats, locked_io, _) = batch(locked);
        let (opt_stats, opt_io, opt_shards) = batch(opt);

        assert_eq!(
            (locked_io.physical_reads, locked_io.physical_writes),
            (opt_io.physical_reads, opt_io.physical_writes),
            "optimistic reads must leave the warm physical I/O untouched"
        );

        let acquired_total: u64 = opt_shards.iter().map(|s| s.lock_acquisitions).sum();
        let acquired_max: u64 = opt_shards.iter().map(|s| s.lock_acquisitions).max().unwrap_or(0);
        let n = ranges.len().max(1) as f64;
        OptReadPoint {
            pool_shards: shards,
            locked_locks_per_query: locked_stats.lock_acquisitions as f64 / n,
            opt_locks_per_query: opt_stats.lock_acquisitions as f64 / n,
            opt: opt_stats,
            hot_lock_share_acquired: if acquired_total == 0 {
                0.0
            } else {
                acquired_max as f64 / acquired_total as f64
            },
        }
    }
}

impl OptReadReport {
    /// Flat JSON trajectory entry (append-never-edit protocol, see
    /// docs/BENCHMARKS.md): per engine and pool layout, the locks
    /// acquired per query on each read path, the reduction, the
    /// optimistic hit/retry/fallback rates, and the acquired-lock hot
    /// share. All fields are deterministic counters.
    pub fn to_json(&self) -> String {
        use crate::report::json_f64 as f;
        let mut rows: Vec<(String, String)> = vec![
            ("users".into(), self.users.to_string()),
            ("queries".into(), self.queries.to_string()),
            ("pool_pages".into(), self.pool_pages.to_string()),
        ];
        for (engine, points) in [("peb", &self.peb), ("bx", &self.bx)] {
            for p in points {
                let pool = if p.pool_shards == 1 { "single" } else { "sharded" };
                let key = |name: &str| format!("{engine}_{pool}_{name}");
                let attempts = p.opt.optimistic_attempts().max(1) as f64;
                rows.push((key("locked_locks_per_q"), f(p.locked_locks_per_query)));
                rows.push((key("opt_locks_per_q"), f(p.opt_locks_per_query)));
                rows.push((key("lock_reduction"), f(p.lock_reduction())));
                rows.push((key("opt_hit_rate"), f(p.opt.optimistic_hit_rate())));
                rows.push((key("opt_retry_rate"), f(p.opt.optimistic_retries as f64 / attempts)));
                rows.push((key("opt_fallback_rate"), f(p.opt.locked_fallbacks as f64 / attempts)));
                rows.push((key("hot_lock_share_acquired"), f(p.hot_lock_share_acquired)));
            }
        }
        crate::report::json_object(&rows)
    }
}

/// Print the experiment as a paper-style tab-separated table.
pub fn print_table(r: &OptReadReport) {
    println!(
        "engine\tpool_shards\tlocked_locks/q\topt_locks/q\treduction\thit_rate\t({} users, {}-page pool, warm)",
        r.users, r.pool_pages
    );
    for (engine, points) in [("peb", &r.peb), ("bx", &r.bx)] {
        for p in points {
            println!(
                "{engine}\t{}\t{:.2}\t{:.2}\t{:.0}%\t{:.3}",
                p.pool_shards,
                p.locked_locks_per_query,
                p.opt_locks_per_query,
                p.lock_reduction() * 100.0,
                p.opt.optimistic_hit_rate(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_scans_shed_at_least_half_the_locks() {
        // The acceptance bar of the optimistic-read PR, on a small shape:
        // both engines, both pool layouts, ≥ 50% fewer lock acquisitions
        // per warm query (deterministic counters, result-checked).
        let cfg = RunConfig {
            num_users: 1_000,
            policies_per_user: 8,
            queries: 12,
            seed: 0x0097,
            buffer_pages: 512,
            ..Default::default()
        };
        let r = measure_optreads_with(&cfg, &[1, 4]);
        assert_eq!(r.peb.len(), 2);
        assert_eq!(r.bx.len(), 2);
        for (engine, p) in r.peb.iter().map(|p| ("peb", p)).chain(r.bx.iter().map(|p| ("bx", p))) {
            assert!(p.locked_locks_per_query > 0.0, "{engine}: locked path must take locks");
            assert!(
                p.lock_reduction() >= 0.5,
                "{engine} shards={}: reduction {:.2} below the 50% bar \
                 (locked {:.1} vs optimistic {:.1} locks/query)",
                p.pool_shards,
                p.lock_reduction(),
                p.locked_locks_per_query,
                p.opt_locks_per_query,
            );
            assert!(p.opt.optimistic_hits > 0, "{engine}: no optimistic traffic measured");
            assert!(
                p.opt.optimistic_hit_rate() > 0.5,
                "{engine}: warm hit rate {:.2} suspiciously low",
                p.opt.optimistic_hit_rate()
            );
            // Fallback-rate non-regression: on a warm, quiesced pool every
            // resident page is published in the seqlock mirror, so no read
            // should fall back to the locked path. A nonzero rate here means
            // mirror slots are being lost (e.g. a cross-way eviction clearing
            // the wrong entry) rather than genuine cold misses.
            let attempts =
                p.opt.optimistic_hits + p.opt.optimistic_retries + p.opt.locked_fallbacks;
            assert_eq!(
                p.opt.locked_fallbacks, 0,
                "{engine} shards={}: {} of {attempts} warm reads fell back to locks",
                p.pool_shards, p.opt.locked_fallbacks,
            );
        }
    }

    #[test]
    fn json_entry_is_well_formed() {
        let point = |shards| OptReadPoint {
            pool_shards: shards,
            locked_locks_per_query: 40.0,
            opt_locks_per_query: 2.0,
            opt: LockStats {
                optimistic_hits: 950,
                optimistic_retries: 0,
                locked_fallbacks: 50,
                lock_acquisitions: 50,
                ..LockStats::default()
            },
            hot_lock_share_acquired: 0.5,
        };
        let r = OptReadReport {
            users: 8_000,
            queries: 64,
            pool_pages: 2_048,
            peb: vec![point(1), point(8)],
            bx: vec![point(1), point(8)],
        };
        let j = r.to_json();
        assert!(j.starts_with("{\n") && j.ends_with("}\n"));
        // 3 config keys + 2 engines x 2 points x 7 fields.
        assert_eq!(j.matches(':').count(), 31, "one key per field");
        assert!(j.contains("\"peb_single_lock_reduction\": 0.95"));
        assert!(j.contains("\"bx_sharded_opt_hit_rate\": 0.95"));
    }
}
