//! Durability experiment: what the write-ahead log costs while running
//! and how fast a crash recovers, on the frozen 8K-user configuration.
//!
//! One durable PEB-tree ingests the whole population with logging on,
//! checkpoints once, then applies update rounds that stay **after** the
//! checkpoint — the log tail recovery has to replay. The run then
//! simulates a crash at its worst point (nothing flushed since the
//! checkpoint), harvests the two simulated platters, and times the full
//! recovery pipeline: log scan + undo/redo replay
//! ([`peb_storage::recover`]), log resumption ([`peb_storage::Wal::resume`]),
//! and index reattachment ([`pebtree::PebTree::recover`]).
//!
//! Reported: the deterministic log ledgers (records, bytes, log-page
//! writes), **log-write amplification** — log-page writes per data-page
//! write, the price of the log-before-page rule — and the replay counters,
//! plus wall-clock recovery time (reported for the trajectory but machine
//! noise; the tests assert only on the deterministic counters and on the
//! recovered index matching the crashed one object-for-object).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_common::MovingPoint;
use peb_index::TimePartitioning;
use peb_storage::BufferPool;
use peb_workload::{DatasetBuilder, UpdateStream};
use pebtree::{PebTree, PrivacyContext};

use crate::harness::RunConfig;

/// Everything the durable run and its recovery measured.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryBenchReport {
    pub users: usize,
    pub rounds: usize,
    /// Fraction of the population updated per round.
    pub round_fraction: f64,
    /// Updates applied after the checkpoint (the replay tail's work).
    pub updates_total: usize,
    /// Mutations the log proved committed at the crash.
    pub committed_ops: u64,
    /// Log records appended over the whole run.
    pub wal_records: u64,
    /// Log bytes appended over the whole run.
    pub wal_bytes: u64,
    /// Physical log-page writes (the durability overhead).
    pub wal_page_writes: u64,
    /// Physical data-page writes of the same run.
    pub data_page_writes: u64,
    /// Pages flushed by the mid-run checkpoint.
    pub checkpoint_pages: usize,
    /// Valid records the recovery scan walked.
    pub replay_scanned: u64,
    /// Redo records applied to the data disk.
    pub replay_records: u64,
    /// Undo pre-images applied to the data disk.
    pub replay_preimages: u64,
    /// Objects in the recovered index (must equal `users`).
    pub recovered_objects: usize,
    /// Wall-clock seconds for scan + replay + resume + reattach.
    pub recovery_secs: f64,
}

impl RecoveryBenchReport {
    /// Log-page writes per data-page write — how much physical write
    /// traffic the log-before-page rule multiplies in.
    pub fn log_write_amplification(&self) -> f64 {
        self.wal_page_writes as f64 / self.data_page_writes.max(1) as f64
    }

    /// Log bytes appended per committed mutation.
    pub fn log_bytes_per_op(&self) -> f64 {
        self.wal_bytes as f64 / self.committed_ops.max(1) as f64
    }

    /// Flat JSON trajectory entry (same style as
    /// [`crate::updates::UpdateBenchReport::to_json`]).
    pub fn to_json(&self) -> String {
        use crate::report::json_f64 as f;
        let rows: Vec<(&str, String)> = vec![
            ("users", self.users.to_string()),
            ("rounds", self.rounds.to_string()),
            ("round_fraction", f(self.round_fraction)),
            ("updates_total", self.updates_total.to_string()),
            ("committed_ops", self.committed_ops.to_string()),
            ("wal_records", self.wal_records.to_string()),
            ("wal_bytes", self.wal_bytes.to_string()),
            ("wal_page_writes", self.wal_page_writes.to_string()),
            ("data_page_writes", self.data_page_writes.to_string()),
            ("log_write_amplification", f(self.log_write_amplification())),
            ("log_bytes_per_op", f(self.log_bytes_per_op())),
            ("checkpoint_pages", self.checkpoint_pages.to_string()),
            ("replay_scanned", self.replay_scanned.to_string()),
            ("replay_records", self.replay_records.to_string()),
            ("replay_preimages", self.replay_preimages.to_string()),
            ("recovered_objects", self.recovered_objects.to_string()),
            ("recovery_secs", f(self.recovery_secs)),
        ];
        crate::report::json_object(&rows)
    }
}

/// Run the experiment on the frozen baseline configuration (8K users,
/// the `BENCH_seed.json` shape): one checkpoint after load, then two
/// 25%-of-the-population update rounds left unflushed for replay.
pub fn measure_recovery() -> RecoveryBenchReport {
    measure_recovery_with(&crate::baseline::baseline_config(), 2, 0.25)
}

/// Run the experiment on an arbitrary configuration (tests use a small
/// one). The crash is simulated at the run's worst point: every update
/// after the single checkpoint lives only in the log.
pub fn measure_recovery_with(cfg: &RunConfig, rounds: usize, fraction: f64) -> RecoveryBenchReport {
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
    let part = TimePartitioning::default();

    let mut tree = PebTree::new(
        Arc::new(BufferPool::new(cfg.buffer_pages)),
        space,
        part,
        cfg.max_speed,
        Arc::clone(&ctx),
    );
    tree.set_durable(true);
    for m in &dataset.users {
        tree.upsert(*m);
    }
    let checkpoint_pages = tree.checkpoint();

    // Post-checkpoint tail: these updates exist only in the log when the
    // simulated crash hits.
    let mut stream = UpdateStream::new(space, cfg.max_speed, dataset.users.clone(), 30.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9EC0);
    let mut updates_total = 0usize;
    for _ in 0..rounds {
        let round: Vec<MovingPoint> = stream.next_round(&mut rng, fraction);
        updates_total += round.len();
        for m in &round {
            tree.upsert(*m);
        }
    }

    let wal = tree.pool().wal_stats();
    let io = tree.pool().stats();
    let committed_ops = tree.committed_ops();

    // Crash now: clone the platters as they stand (resident frames and
    // the unforced log tail are lost, exactly like a real power cut).
    let (mut data, log) = tree.pool().harvest_crash_state();
    let started = Instant::now();
    let rec = peb_storage::recover(&mut data, &log);
    let resumed = peb_storage::Wal::resume(log, &rec);
    let pool = Arc::new(BufferPool::from_recovered(cfg.buffer_pages, 1, data, resumed));
    let back = PebTree::recover(pool, &rec, space, part, cfg.max_speed, Arc::clone(&ctx));
    let recovery_secs = started.elapsed().as_secs_f64();

    RecoveryBenchReport {
        users: dataset.users.len(),
        rounds,
        round_fraction: fraction,
        updates_total,
        committed_ops,
        wal_records: wal.records,
        wal_bytes: wal.bytes,
        wal_page_writes: wal.page_writes,
        data_page_writes: io.physical_writes,
        checkpoint_pages,
        replay_scanned: rec.records_scanned,
        replay_records: rec.records_replayed,
        replay_preimages: rec.preimages_applied,
        recovered_objects: back.len(),
        recovery_secs,
    }
}

/// Figure-mode table (wall clock last — it is machine noise).
pub fn print_table(r: &RecoveryBenchReport) {
    println!(
        "metric\tvalue\t({} users, {} rounds x {:.0}% after one checkpoint)",
        r.users,
        r.rounds,
        r.round_fraction * 100.0
    );
    println!("committed_ops\t{}", r.committed_ops);
    println!("wal_records\t{}", r.wal_records);
    println!("wal_bytes\t{}", r.wal_bytes);
    println!("wal_page_writes\t{}", r.wal_page_writes);
    println!("data_page_writes\t{}", r.data_page_writes);
    println!("log_write_amplification\t{:.2}", r.log_write_amplification());
    println!("log_bytes_per_op\t{:.1}", r.log_bytes_per_op());
    println!("replay_records\t{}", r.replay_records);
    println!("replay_preimages\t{}", r.replay_preimages);
    println!("recovered_objects\t{}", r.recovered_objects);
    println!("recovery_secs\t{:.4}", r.recovery_secs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_restores_every_object_with_bounded_log_cost() {
        let cfg = RunConfig {
            num_users: 800,
            policies_per_user: 8,
            queries: 0,
            seed: 0x9EC07,
            ..Default::default()
        };
        let r = measure_recovery_with(&cfg, 2, 0.25);
        assert_eq!(r.recovered_objects, r.users, "recovery must restore every live object");
        assert_eq!(r.committed_ops, (r.users + r.updates_total) as u64);
        assert!(r.replay_records > 0, "the post-checkpoint tail must be replayed");
        assert!(r.wal_page_writes > 0 && r.data_page_writes > 0);
        assert!(r.log_write_amplification() > 0.0);
        assert!(r.replay_scanned >= r.replay_records);
        // A committed upsert logs its tree operations and a commit, not
        // page images: well under one 4 KB page per op, checkpoint and
        // undo images included.
        assert!(r.log_bytes_per_op() < 512.0, "{} log bytes per op", r.log_bytes_per_op());
    }

    #[test]
    fn json_entry_is_well_formed() {
        let r = RecoveryBenchReport {
            users: 800,
            rounds: 2,
            round_fraction: 0.25,
            updates_total: 400,
            committed_ops: 1200,
            wal_records: 5000,
            wal_bytes: 1 << 20,
            wal_page_writes: 300,
            data_page_writes: 100,
            checkpoint_pages: 40,
            replay_scanned: 5000,
            replay_records: 900,
            replay_preimages: 30,
            recovered_objects: 800,
            recovery_secs: 0.01,
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        for key in ["log_write_amplification", "recovery_secs", "recovered_objects"] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(r.log_write_amplification(), 3.0);
    }
}
