//! Update-throughput experiment: the sharded index's batched update path
//! vs the sequential single-object path — the workload behind the paper's
//! Fig 18-style update rounds, measured on the same frozen 8K-user
//! configuration as `BENCH_seed.json`.
//!
//! Two variants apply the **identical** pre-generated update rounds
//! (same seed, same order) to identically bulk-loaded PEB indexes:
//!
//! * `seq`   — one `upsert` per object;
//! * `batch` — one `upsert_batch` per round.
//!
//! Reported per variant: wall-clock upserts/second and the deterministic
//! buffer-pool counters (logical page accesses + physical I/O), which is
//! what the tests assert on — wall clock is machine noise, page touches
//! are not.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_common::MovingPoint;
use peb_storage::BufferPool;
use peb_workload::{Dataset, DatasetBuilder, UpdateStream};
use pebtree::{PebTree, PrivacyContext};

use crate::harness::RunConfig;

/// One variant's measurement.
#[derive(Debug, Clone, Copy)]
pub struct UpdateVariant {
    /// Wall-clock update throughput.
    pub upserts_per_sec: f64,
    /// Buffer-pool page accesses during the updates (hits included) —
    /// deterministic for a fixed seed.
    pub logical_io: u64,
    /// Physical page reads + writes during the updates.
    pub physical_io: u64,
}

/// The whole experiment: two variants over identical update rounds.
#[derive(Debug, Clone, Copy)]
pub struct UpdateBenchReport {
    pub users: usize,
    pub rounds: usize,
    /// Fraction of the population updated per round.
    pub round_fraction: f64,
    /// Total updates applied per variant.
    pub updates_total: usize,
    pub seq: UpdateVariant,
    pub batch: UpdateVariant,
}

impl UpdateBenchReport {
    /// Wall-clock speedup of the batched path over the sequential path.
    pub fn batch_speedup(&self) -> f64 {
        self.batch.upserts_per_sec / self.seq.upserts_per_sec.max(1e-9)
    }

    /// Flat JSON trajectory entry (same style as
    /// [`crate::baseline::BaselineReport::to_json`], assembled by
    /// [`crate::report::json_object`]).
    pub fn to_json(&self) -> String {
        use crate::report::json_f64 as f;
        let rows: Vec<(&str, String)> = vec![
            ("users", self.users.to_string()),
            ("rounds", self.rounds.to_string()),
            ("round_fraction", f(self.round_fraction)),
            ("updates_total", self.updates_total.to_string()),
            ("seq_upserts_per_sec", f(self.seq.upserts_per_sec)),
            ("seq_logical_io", self.seq.logical_io.to_string()),
            ("seq_physical_io", self.seq.physical_io.to_string()),
            ("batch_upserts_per_sec", f(self.batch.upserts_per_sec)),
            ("batch_logical_io", self.batch.logical_io.to_string()),
            ("batch_physical_io", self.batch.physical_io.to_string()),
            ("batch_speedup_over_seq", f(self.batch_speedup())),
        ];
        crate::report::json_object(&rows)
    }
}

/// Run the experiment on the frozen baseline configuration (8K users, the
/// `BENCH_seed.json` shape): four 25%-of-the-population update rounds.
pub fn measure_updates() -> UpdateBenchReport {
    measure_updates_with(&crate::baseline::baseline_config(), 4, 0.25)
}

/// Run the experiment on an arbitrary configuration (tests use a small
/// one). All variants see identical rounds and start from identically
/// bulk-loaded indexes.
pub fn measure_updates_with(cfg: &RunConfig, rounds: usize, fraction: f64) -> UpdateBenchReport {
    let dataset = DatasetBuilder::default()
        .num_users(cfg.num_users)
        .max_speed(cfg.max_speed)
        .distribution(cfg.distribution)
        .policies_per_user(cfg.policies_per_user)
        .grouping_factor(cfg.theta)
        .seed(cfg.seed)
        .build();
    let ctx = Arc::new(PrivacyContext::build(
        dataset.store.clone(),
        dataset.space,
        dataset.users.len(),
        cfg.sv_params,
    ));

    // Pre-generate the rounds once so every variant applies the exact
    // same updates in the exact same order.
    let mut stream = UpdateStream::new(dataset.space, cfg.max_speed, dataset.users.clone(), 30.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0BA7);
    let all_rounds: Vec<Vec<MovingPoint>> =
        (0..rounds).map(|_| stream.next_round(&mut rng, fraction)).collect();
    let updates_total: usize = all_rounds.iter().map(|r| r.len()).sum();

    // Sequential single-object path.
    let seq = {
        let tree = build_peb(cfg, &dataset, &ctx);
        let pool = Arc::clone(tree.pool());
        pool.reset_stats();
        let started = Instant::now();
        for round in &all_rounds {
            for m in round {
                tree.upsert(*m);
            }
        }
        variant(started, updates_total, &pool)
    };

    // Batched path.
    let batch = {
        let tree = build_peb(cfg, &dataset, &ctx);
        let pool = Arc::clone(tree.pool());
        pool.reset_stats();
        let started = Instant::now();
        for round in &all_rounds {
            tree.upsert_batch(round);
        }
        variant(started, updates_total, &pool)
    };

    UpdateBenchReport {
        users: dataset.users.len(),
        rounds,
        round_fraction: fraction,
        updates_total,
        seq,
        batch,
    }
}

fn build_peb(cfg: &RunConfig, dataset: &Dataset, ctx: &Arc<PrivacyContext>) -> PebTree {
    PebTree::bulk_load(
        Arc::new(BufferPool::new(cfg.buffer_pages)),
        dataset.space,
        peb_index::TimePartitioning::default(),
        cfg.max_speed,
        Arc::clone(ctx),
        &dataset.users,
        1.0,
    )
}

fn variant(started: Instant, updates: usize, pool: &Arc<BufferPool>) -> UpdateVariant {
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let s = pool.stats();
    UpdateVariant {
        upserts_per_sec: updates as f64 / wall,
        logical_io: s.logical_reads,
        physical_io: s.total_io(),
    }
}

/// Print the experiment as a paper-style tab-separated table.
pub fn print_table(r: &UpdateBenchReport) {
    println!(
        "variant\tupserts_per_sec\tlogical_page_accesses\tphysical_io\t({} users, {} rounds x {:.0}%)",
        r.users,
        r.rounds,
        r.round_fraction * 100.0
    );
    for (name, v) in [("seq", &r.seq), ("batch", &r.batch)] {
        println!("{name}\t{:.0}\t{}\t{}", v.upserts_per_sec, v.logical_io, v.physical_io);
    }
    println!("batch_speedup_over_seq\t{:.2}x", r.batch_speedup());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_path_touches_fewer_pages_than_sequential() {
        // Wall clock is machine noise; page accesses are deterministic for
        // a fixed seed — and they are what the batched path exists to cut.
        let cfg = RunConfig {
            num_users: 1_200,
            policies_per_user: 8,
            queries: 0,
            seed: 0xBA7C4,
            ..Default::default()
        };
        let r = measure_updates_with(&cfg, 3, 0.25);
        assert_eq!(r.updates_total, 3 * 300);
        assert!(
            r.batch.logical_io < r.seq.logical_io,
            "batch {} vs seq {}: batched merges must touch fewer pages",
            r.batch.logical_io,
            r.seq.logical_io
        );
        assert!(r.seq.upserts_per_sec > 0.0 && r.batch.upserts_per_sec > 0.0);
    }

    #[test]
    fn json_entry_is_well_formed() {
        let v = UpdateVariant { upserts_per_sec: 1000.0, logical_io: 10, physical_io: 2 };
        let r = UpdateBenchReport {
            users: 8000,
            rounds: 4,
            round_fraction: 0.25,
            updates_total: 8000,
            seq: v,
            batch: UpdateVariant { upserts_per_sec: 2000.0, ..v },
        };
        let j = r.to_json();
        assert!(j.starts_with("{\n") && j.ends_with("}\n"));
        assert_eq!(j.matches(':').count(), 11, "one key per field");
        assert!(j.contains("\"batch_speedup_over_seq\": 2.00"));
    }
}
