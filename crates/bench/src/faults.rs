//! Faulty-media experiment: what surviving a bad disk costs, on the
//! frozen 8K-user configuration.
//!
//! One durable PEB-tree ingests the whole population, checkpoints, and
//! answers the same cold PRQ battery twice: once on clean media, once
//! with a seeded [`FaultKind`] mix (transient read errors, bit rot,
//! grown bad sectors) sprayed across the battery's device-read ordinals.
//! The faulted pass must produce **answers identical to the clean pass**
//! — every divergence is an undetected corruption and is reported (and
//! asserted zero in the tests).
//!
//! Reported: the deterministic fault ledger (faults fired by kind,
//! transient retries per 10K device reads, repair success rate,
//! quarantines, surfaced errors) and two wall-clock trajectory numbers —
//! the faulted battery's slowdown over the clean one, and a per-page
//! seal cost from which the checksum share of clean read time is
//! estimated (machine noise; tests assert only on the counters).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_common::MovingPoint;
use peb_index::{IndexError, TimePartitioning};
use peb_storage::{BufferPool, FaultKind, Page, PAGE_WORDS};
use peb_workload::queries::RangeQuerySpec;
use peb_workload::{DatasetBuilder, QueryGenerator};
use pebtree::{PebTree, PrivacyContext};

use crate::harness::RunConfig;

/// Everything the clean and faulted batteries measured.
#[derive(Debug, Clone, Copy)]
pub struct FaultBenchReport {
    pub users: usize,
    pub queries: usize,
    /// Armed points and ordinal window of the seeded schedule.
    pub armed_points: u64,
    pub window: u64,
    /// Physical data-page reads of the clean cold battery.
    pub cold_reads: u64,
    /// Physical data-page reads of the faulted battery (pool ledger —
    /// retry and repair traffic is *excluded* by contract).
    pub faulted_reads: u64,
    /// Faults that actually fired, total and by kind.
    pub faults_injected: u64,
    pub transient_faults: u64,
    pub bitflip_faults: u64,
    pub bad_sector_faults: u64,
    /// The absorption ledger ([`peb_storage::FaultStats`]).
    pub transient_retries: u64,
    pub checksum_mismatches: u64,
    pub repairs_attempted: u64,
    pub repairs_succeeded: u64,
    pub quarantines: u64,
    pub surfaced_errors: u64,
    pub repair_reads: u64,
    pub repair_writes: u64,
    /// Faulted-battery outcomes versus the clean pass.
    pub queries_ok: usize,
    pub queries_err: usize,
    /// Queries that returned `Ok` with a *different* answer than the
    /// clean pass — undetected corruption. Must be zero.
    pub answers_divergent: usize,
    /// Wall clock (trajectory only; machine noise).
    pub clean_ms: f64,
    pub faulted_ms: f64,
    pub seal_ns_per_page: f64,
}

impl FaultBenchReport {
    /// Transient retries per 10K physical reads of the faulted battery.
    pub fn retries_per_10k_reads(&self) -> f64 {
        self.transient_retries as f64 * 10_000.0 / self.faulted_reads.max(1) as f64
    }

    /// Fraction of attempted read-repairs whose rewrite re-verified.
    /// The remainder were quarantined — still served, from a pinned
    /// WAL-backed frame. 1.0 when nothing needed repair.
    pub fn repair_success_rate(&self) -> f64 {
        if self.repairs_attempted == 0 {
            1.0
        } else {
            self.repairs_succeeded as f64 / self.repairs_attempted as f64
        }
    }

    /// Wall-clock ratio of the faulted battery over the clean one.
    pub fn faulted_slowdown(&self) -> f64 {
        self.faulted_ms / self.clean_ms.max(1e-9)
    }

    /// Estimated share of clean-battery time spent sealing/verifying:
    /// one seal per physical read, priced by the microbenchmark.
    pub fn checksum_overhead_pct(&self) -> f64 {
        let seal_ms = self.cold_reads as f64 * self.seal_ns_per_page / 1e6;
        100.0 * seal_ms / self.clean_ms.max(1e-9)
    }

    /// Flat JSON trajectory entry (same style as
    /// [`crate::recovery::RecoveryBenchReport::to_json`]).
    pub fn to_json(&self) -> String {
        use crate::report::json_f64 as f;
        let rows: Vec<(&str, String)> = vec![
            ("users", self.users.to_string()),
            ("queries", self.queries.to_string()),
            ("armed_points", self.armed_points.to_string()),
            ("window", self.window.to_string()),
            ("cold_reads", self.cold_reads.to_string()),
            ("faulted_reads", self.faulted_reads.to_string()),
            ("faults_injected", self.faults_injected.to_string()),
            ("transient_faults", self.transient_faults.to_string()),
            ("bitflip_faults", self.bitflip_faults.to_string()),
            ("bad_sector_faults", self.bad_sector_faults.to_string()),
            ("transient_retries", self.transient_retries.to_string()),
            ("retries_per_10k_reads", f(self.retries_per_10k_reads())),
            ("checksum_mismatches", self.checksum_mismatches.to_string()),
            ("repairs_attempted", self.repairs_attempted.to_string()),
            ("repairs_succeeded", self.repairs_succeeded.to_string()),
            ("repair_success_rate", f(self.repair_success_rate())),
            ("quarantines", self.quarantines.to_string()),
            ("surfaced_errors", self.surfaced_errors.to_string()),
            ("repair_reads", self.repair_reads.to_string()),
            ("repair_writes", self.repair_writes.to_string()),
            ("queries_ok", self.queries_ok.to_string()),
            ("queries_err", self.queries_err.to_string()),
            ("answers_divergent", self.answers_divergent.to_string()),
            ("clean_ms", f(self.clean_ms)),
            ("faulted_ms", f(self.faulted_ms)),
            ("faulted_slowdown", f(self.faulted_slowdown())),
            ("seal_ns_per_page", f(self.seal_ns_per_page)),
            ("checksum_overhead_pct", f(self.checksum_overhead_pct())),
        ];
        crate::report::json_object(&rows)
    }
}

/// Run the experiment on the frozen baseline configuration (8K users,
/// the `BENCH_seed.json` shape): the seeded mix arms one point per
/// eight cold reads across the whole battery window.
pub fn measure_faults() -> FaultBenchReport {
    measure_faults_with(&crate::baseline::baseline_config(), 8)
}

/// Run the experiment on an arbitrary configuration. `read_density`
/// arms one fault point per that many clean cold reads (denser mixes
/// stress the retry/repair path harder).
pub fn measure_faults_with(cfg: &RunConfig, read_density: u64) -> FaultBenchReport {
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

    let mut tree = PebTree::new(
        Arc::new(BufferPool::new(cfg.buffer_pages)),
        space,
        TimePartitioning::default(),
        cfg.max_speed,
        Arc::clone(&ctx),
    );
    tree.set_durable(true);
    for m in &dataset.users {
        tree.upsert(*m);
    }
    tree.checkpoint();

    let gen = QueryGenerator::new(space, dataset.users.len());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xFA17);
    let specs: Vec<RangeQuerySpec> =
        gen.range_batch(&mut rng, cfg.queries, cfg.window_side, cfg.tq);

    let battery = |tree: &PebTree| -> Vec<Result<Vec<MovingPoint>, IndexError>> {
        specs.iter().map(|q| tree.try_prq(q.issuer, &q.window, q.tq)).collect()
    };

    // Clean cold pass: the reference answers and the read footprint the
    // seeded schedule is sized against.
    tree.pool().flush_all();
    tree.pool().clear();
    tree.pool().reset_stats();
    let started = Instant::now();
    let clean = battery(&tree);
    let clean_ms = started.elapsed().as_secs_f64() * 1e3;
    let cold_reads = tree.pool().stats().physical_reads;

    // Faulted cold pass: same specs, same tree, media now lying.
    let armed_points = (cold_reads / read_density.max(1)).max(8);
    let window = cold_reads.max(1);
    tree.pool().clear();
    tree.pool().reset_stats();
    tree.pool().with_fault_injector(|f| {
        f.arm_seeded_read_schedule(cfg.seed ^ 0xFA17_5EED, armed_points, window)
    });
    let started = Instant::now();
    let faulted = battery(&tree);
    let faulted_ms = started.elapsed().as_secs_f64() * 1e3;
    let faulted_reads = tree.pool().stats().physical_reads;
    let stats = tree.pool().fault_stats();
    let trace = tree.pool().with_fault_injector(|f| f.trace().to_vec());
    let by_kind =
        |want: fn(&FaultKind) -> bool| trace.iter().filter(|e| want(&e.kind)).count() as u64;

    let mut queries_ok = 0usize;
    let mut queries_err = 0usize;
    let mut answers_divergent = 0usize;
    for (got, want) in faulted.iter().zip(clean.iter()) {
        match got {
            Err(_) => queries_err += 1,
            Ok(ans) => {
                queries_ok += 1;
                if Some(ans) != want.as_ref().ok() {
                    answers_divergent += 1;
                }
            }
        }
    }

    FaultBenchReport {
        users: dataset.users.len(),
        queries: specs.len(),
        armed_points,
        window,
        cold_reads,
        faulted_reads,
        faults_injected: trace.len() as u64,
        transient_faults: by_kind(|k| matches!(k, FaultKind::TransientRead)),
        bitflip_faults: by_kind(|k| matches!(k, FaultKind::BitFlip { .. })),
        bad_sector_faults: by_kind(|k| matches!(k, FaultKind::BadSector)),
        transient_retries: stats.transient_retries,
        checksum_mismatches: stats.checksum_mismatches,
        repairs_attempted: stats.repairs_attempted,
        repairs_succeeded: stats.repairs_succeeded,
        quarantines: stats.quarantines,
        surfaced_errors: stats.surfaced_errors,
        repair_reads: stats.repair_reads,
        repair_writes: stats.repair_writes,
        queries_ok,
        queries_err,
        answers_divergent,
        clean_ms,
        faulted_ms,
        seal_ns_per_page: seal_ns_per_page(),
    }
}

/// Price one seal: [`Page::seal`] (the `seal64` kernel) over a full
/// page, averaged over enough iterations to rise above timer resolution.
fn seal_ns_per_page() -> f64 {
    let mut page = Page::new();
    for i in 0..PAGE_WORDS {
        page.set_word(i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    const ITERS: u32 = 4096;
    let started = Instant::now();
    let mut acc = 0u64;
    for i in 0..ITERS {
        page.set_word(0, i as u64);
        acc ^= page.seal();
    }
    let ns = started.elapsed().as_nanos() as f64 / ITERS as f64;
    std::hint::black_box(acc);
    ns
}

/// Figure-mode table (wall clock last — it is machine noise).
pub fn print_table(r: &FaultBenchReport) {
    println!(
        "metric\tvalue\t({} users, {} PRQs, {} armed points over {} reads)",
        r.users, r.queries, r.armed_points, r.window
    );
    println!("cold_reads\t{}", r.cold_reads);
    println!("faults_injected\t{}", r.faults_injected);
    println!(
        "fired_by_kind\ttransient={} bitflip={} bad_sector={}",
        r.transient_faults, r.bitflip_faults, r.bad_sector_faults
    );
    println!("transient_retries\t{}", r.transient_retries);
    println!("retries_per_10k_reads\t{:.2}", r.retries_per_10k_reads());
    println!("repairs\t{}/{} attempted", r.repairs_succeeded, r.repairs_attempted);
    println!("repair_success_rate\t{:.3}", r.repair_success_rate());
    println!("quarantines\t{}", r.quarantines);
    println!("surfaced_errors\t{}", r.surfaced_errors);
    println!(
        "queries_ok/err/divergent\t{}/{}/{}",
        r.queries_ok, r.queries_err, r.answers_divergent
    );
    println!("clean_ms\t{:.2}", r.clean_ms);
    println!("faulted_ms\t{:.2}\t(x{:.2})", r.faulted_ms, r.faulted_slowdown());
    println!("seal_ns_per_page\t{:.0}", r.seal_ns_per_page);
    println!("checksum_overhead_pct\t{:.2}", r.checksum_overhead_pct());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_faulted_battery_answers_exactly_like_the_clean_one() {
        let cfg = RunConfig {
            num_users: 800,
            policies_per_user: 8,
            queries: 40,
            seed: 0x000F_A17B,
            ..Default::default()
        };
        // Dense mix: one armed point per four cold reads.
        let r = measure_faults_with(&cfg, 4);
        assert!(r.faults_injected >= 8, "schedule too sparse: {} fired", r.faults_injected);
        assert!(
            r.transient_faults > 0 && r.bitflip_faults > 0 && r.bad_sector_faults > 0,
            "all three read-fault kinds must fire"
        );
        assert_eq!(r.answers_divergent, 0, "an Ok answer diverged — undetected corruption");
        assert_eq!(r.queries_err, 0, "durable mode must absorb the whole mix");
        assert_eq!(r.queries_ok, r.queries);
        assert_eq!(r.surfaced_errors, 0);
        assert!(r.transient_retries > 0 && r.repairs_attempted > 0);
        assert_eq!(r.repairs_attempted, r.repairs_succeeded + r.quarantines);
        assert!(r.retries_per_10k_reads() > 0.0);
        assert!(r.repair_success_rate() > 0.0 && r.repair_success_rate() <= 1.0);
    }

    #[test]
    fn json_entry_is_well_formed() {
        let r = FaultBenchReport {
            users: 800,
            queries: 40,
            armed_points: 32,
            window: 256,
            cold_reads: 256,
            faulted_reads: 256,
            faults_injected: 30,
            transient_faults: 15,
            bitflip_faults: 8,
            bad_sector_faults: 7,
            transient_retries: 15,
            checksum_mismatches: 8,
            repairs_attempted: 15,
            repairs_succeeded: 8,
            quarantines: 7,
            surfaced_errors: 0,
            repair_reads: 22,
            repair_writes: 8,
            queries_ok: 40,
            queries_err: 0,
            answers_divergent: 0,
            clean_ms: 10.0,
            faulted_ms: 12.0,
            seal_ns_per_page: 400.0,
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        for key in [
            "retries_per_10k_reads",
            "repair_success_rate",
            "answers_divergent",
            "checksum_overhead_pct",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!((r.retries_per_10k_reads() - 585.94).abs() < 0.01);
        assert!((r.repair_success_rate() - 8.0 / 15.0).abs() < 1e-12);
        assert!((r.faulted_slowdown() - 1.2).abs() < 1e-12);
    }
}
