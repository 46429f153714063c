//! Run every figure back to back (respects PEB_SCALE / PEB_QUERIES).
//!
//! Flags:
//! * `--baseline-only` — skip the figures; measure the fixed perf baseline
//!   (what CI runs) and every per-feature trajectory entry, and write them
//!   as `BENCH_seed.json`, `BENCH_updates.json`, `BENCH_scans.json`,
//!   `BENCH_optreads.json`, `BENCH_recovery.json`, `BENCH_faults.json`
//!   and `BENCH_overload.json` into the output directory. The committed
//!   `BENCH_*.json` at the repo root are frozen history (protocol:
//!   docs/BENCHMARKS.md) and are never written here.
//! * `--out-dir <dir>` — where `--baseline-only` writes (default
//!   `target/bench/`, created if missing).
use std::path::{Path, PathBuf};

use peb_bench::experiments;
use peb_bench::faults;
use peb_bench::optreads;
use peb_bench::overload;
use peb_bench::recovery;
use peb_bench::report;
use peb_bench::scans;
use peb_bench::updates;

fn write_entry(dir: &Path, file: &str, what: &str, json: String) {
    let path = dir.join(file);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("{what} written to {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--baseline-only") {
        let dir: PathBuf = match args.iter().position(|a| a == "--out-dir") {
            Some(i) => args.get(i + 1).expect("--out-dir needs a directory").into(),
            None => "target/bench".into(),
        };
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));

        write_entry(&dir, "BENCH_seed.json", "baseline", peb_bench::baseline::measure().to_json());
        write_entry(
            &dir,
            "BENCH_updates.json",
            "update-throughput trajectory",
            updates::measure_updates().to_json(),
        );
        write_entry(
            &dir,
            "BENCH_scans.json",
            "concurrent-scan trajectory",
            scans::measure_scans().to_json(),
        );
        write_entry(
            &dir,
            "BENCH_optreads.json",
            "optimistic-read trajectory",
            optreads::measure_optreads().to_json(),
        );
        write_entry(
            &dir,
            "BENCH_recovery.json",
            "durability/recovery trajectory",
            recovery::measure_recovery().to_json(),
        );

        let flt = faults::measure_faults();
        assert_eq!(flt.answers_divergent, 0, "faulted battery diverged from the clean answers");
        write_entry(&dir, "BENCH_faults.json", "faulty-media trajectory", flt.to_json());

        let ov = overload::measure_overload();
        assert!(ov.ledger_identical, "overload sweep ledgers diverged between runs");
        let prot4 = ov.protected.last().expect("sweep has points");
        let unprot4 = ov.unprotected.last().expect("sweep has points");
        assert!(
            ov.retention(prot4) >= 0.7,
            "protected 4x retention {:.2} below the 70% bar",
            ov.retention(prot4)
        );
        assert!(
            ov.retention(unprot4) < 0.5,
            "unprotected 4x retention {:.2} did not collapse",
            ov.retention(unprot4)
        );
        for p in ov.protected.iter().chain(ov.unprotected.iter()) {
            assert!(
                p.p99_overshoot <= overload::OVERSHOOT_EPSILON,
                "x{} p99 deadline overshoot {} ticks",
                p.multiplier,
                p.p99_overshoot
            );
        }
        write_entry(&dir, "BENCH_overload.json", "overload/goodput trajectory", ov.to_json());
        return;
    }

    report::header("Fig 11(a)", "policy-encoding preprocessing time, varying number of users");
    report::time_table("users", &experiments::fig11a_users());
    println!();
    report::header("Fig 11(b)", "policy-encoding preprocessing time, varying policies per user");
    report::time_table("policies_per_user", &experiments::fig11b_policies());
    println!();
    report::header("Fig 12", "query I/O vs total number of users");
    report::io_table("users", &experiments::fig12_users());
    println!();
    report::header("Fig 13", "query I/O vs policies per user");
    report::io_table("policies_per_user", &experiments::fig13_policies());
    println!();
    report::header("Fig 14", "query I/O vs grouping factor");
    report::io_table("theta", &experiments::fig14_theta());
    println!();
    report::header("Fig 15(a)", "PRQ I/O vs query-window side length");
    report::io_table("window_side", &experiments::fig15a_window());
    println!();
    report::header("Fig 15(b)", "PkNN I/O vs k");
    report::io_table("k", &experiments::fig15b_k());
    println!();
    report::header("Fig 16", "query I/O vs number of destinations (network data)");
    report::io_table("destinations", &experiments::fig16_destinations());
    println!();
    report::header("Fig 17", "query I/O vs maximum object speed");
    report::io_table("max_speed", &experiments::fig17_speed());
    println!();
    report::header("Fig 18", "query I/O after each 25% update round");
    report::io_table("percent_updated", &experiments::fig18_updates());
    println!();
    report::header("Fig 19", "cost function estimate vs actual PEB-tree PRQ I/O");
    report::cost_table(&experiments::fig19_cost_model());
    println!();
    report::header("Updates", "update throughput: sequential vs batched");
    updates::print_table(&updates::measure_updates());
    println!();
    report::header(
        "Scans",
        "concurrent read qps: single-shard vs sharded buffer pool, 1-8 threads",
    );
    scans::print_table(&scans::measure_scans());
    println!();
    report::header(
        "OptReads",
        "locks acquired per warm query: locked vs optimistic read path, both engines",
    );
    optreads::print_table(&optreads::measure_optreads());
    println!();
    report::header(
        "Recovery",
        "write-ahead-log cost and crash-recovery replay: one checkpoint, two unflushed rounds",
    );
    recovery::print_table(&recovery::measure_recovery());
    println!();
    report::header(
        "Faults",
        "faulty-media battery: seeded read-fault mix absorbed by retry, read-repair, quarantine",
    );
    faults::print_table(&faults::measure_faults());
    println!();
    report::header(
        "Overload",
        "goodput under 1x/2x/4x saturation: bounded shedding queue vs unbounded twin",
    );
    overload::print_table(&overload::measure_overload());
}
