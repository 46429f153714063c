//! Criterion micro-benchmarks: the building blocks (B+-tree, Z-order,
//! policy encoding) and small-scale end-to-end queries for both engines.
//! Figure-scale sweeps live in the `fig*` binaries, not here.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use peb_bench::harness::{RunConfig, World};
use peb_btree::{BTree, ScanPlan};
use peb_common::{MovingPoint, Point, Rect, SpaceConfig, TimeInterval, UserId, Vec2};
use peb_index::TimePartitioning;
use peb_policy::{Policy, PolicyStore, RoleId, SequenceValues, SvAssignmentParams};
use peb_storage::{seal64, BufferPool, DiskSim, Page, WalRecord, PAGE_SIZE};
use peb_workload::{DatasetBuilder, QueryGenerator};
use peb_zorder::{coarsen, cover, decompose, encode};
use pebtree::{PebTree, PrivacyContext};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    g.sample_size(20);
    g.bench_function("insert_10k_random", |b| {
        b.iter(|| {
            let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(256)));
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..10_000 {
                t.insert(rng.gen::<u64>() as u128, 0);
            }
            black_box(t.len())
        })
    });
    let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(256)));
    for i in 0..100_000u128 {
        t.insert(i * 7, i as u64);
    }
    g.bench_function("get_hit", |b| {
        let mut i = 0u128;
        b.iter(|| {
            i = (i + 1) % 100_000;
            black_box(t.get(i * 7))
        })
    });
    g.bench_function("range_scan_1k", |b| {
        b.iter(|| {
            let mut n = 0usize;
            t.range_scan(7_000, 14_000, |_, _| {
                n += 1;
                true
            });
            black_box(n)
        })
    });
    g.finish();
}

/// The storage constants every miss, write-back and log record is a
/// multiple of: one page seal, one small-record checksum, and one device
/// read (verify in place + copy out).
fn bench_storage(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage");
    let mut page = Page::new();
    for i in 0..PAGE_SIZE {
        page.put_u8(i, (31 * i + 7) as u8);
    }
    g.bench_function("seal_4k", |b| b.iter(|| black_box(black_box(&page).seal())));
    let commit = WalRecord::Commit { ops: 7 }.encode(1);
    let body = &commit[..commit.len() - 8];
    g.bench_function("seal_commit_record", |b| b.iter(|| black_box(seal64(black_box(body)))));
    let mut disk = DiskSim::new();
    let pids: Vec<_> = (0..64).map(|_| disk.allocate()).collect();
    for &pid in &pids {
        disk.write(pid, &page);
    }
    g.bench_function("disk_read_miss", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(disk.read(pids[i % pids.len()]).is_ok())
        })
    });
    g.finish();
}

fn bench_zorder(c: &mut Criterion) {
    let mut g = c.benchmark_group("zorder");
    g.bench_function("encode", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(2_654_435_761);
            black_box(encode(i & 0xFFFF, (i >> 16) & 0xFFFF))
        })
    });
    for side in [50u32, 200, 500] {
        g.bench_with_input(BenchmarkId::new("decompose_1024grid", side), &side, |b, &side| {
            b.iter(|| black_box(decompose(100, 100 + side, 200, 200 + side, 10)))
        });
    }
    g.finish();
}

/// What a PRQ pays before its first page: the window's Z-cover (the
/// reference pipeline beside the budgeted walk that replaced it on the
/// query path), the issuer's friend table, and the scan plan in its
/// listed and product forms.
fn bench_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan");
    // The benchmark's shape: a 320-cell-wide window on the 1024 grid.
    let (x0, y0) = (black_box(101u32), black_box(203u32));
    g.bench_function("decompose_coarsen_320_b20", |b| {
        b.iter(|| black_box(coarsen(decompose(x0, x0 + 319, y0, y0 + 319, 10), 20)))
    });
    g.bench_function("cover_320_b20", |b| {
        b.iter(|| black_box(cover(x0, x0 + 319, y0, y0 + 319, 10, 20)))
    });
    g.bench_function("cover_320_b50", |b| {
        b.iter(|| black_box(cover(x0, x0 + 319, y0, y0 + 319, 10, 50)))
    });

    // An issuer with 50 friends in a handful of SV groups, on a tree with
    // no live partition: the PRQ builds its friend table and has nothing
    // to scan.
    let mut store = PolicyStore::new();
    for owner in 1..=50u64 {
        let reach = 1000.0 - 100.0 * (owner % 7) as f64;
        let policy = Policy::new(
            UserId(owner),
            RoleId::FRIEND,
            Rect::new(0.0, reach, 0.0, 1000.0),
            TimeInterval::new(0.0, 1440.0),
        );
        store.add(UserId(0), policy);
    }
    let space = SpaceConfig::default();
    let ctx = PrivacyContext::build(store, space, 51, SvAssignmentParams::default());
    let empty = PebTree::new(
        Arc::new(BufferPool::new(8)),
        space,
        TimePartitioning::default(),
        3.0,
        Arc::new(ctx),
    );
    let window = Rect::new(100.0, 400.0, 200.0, 500.0);
    g.bench_function("friends_table_50", |b| {
        b.iter(|| black_box(empty.try_prq(UserId(0), black_box(&window), 10.0)))
    });

    // 50 SV rows x 50 Z-ranges, as the factors a PRQ hands over and as the
    // 2 500 listed runs it used to.
    let row = |j: u128| (j << 52, (j << 52) + (1 << 52) - 1);
    let offset = |w: u128| (w << 40, (w << 40) + (1 << 36));
    g.bench_function("scanplan_product_50x50", |b| {
        b.iter(|| {
            let rows = (0..black_box(50u128)).map(row).collect();
            let offsets = (0..black_box(50u128)).map(offset).collect();
            black_box(ScanPlan::product(rows, offsets))
        })
    });
    g.bench_function("scanplan_listed_50x50", |b| {
        b.iter(|| {
            let rows: Vec<(u128, u128)> = (0..black_box(50u128)).map(row).collect();
            let runs = rows
                .iter()
                .flat_map(|&(base, _)| {
                    (0..50u128).map(move |w| (base + offset(w).0, base + offset(w).1))
                })
                .collect();
            black_box(ScanPlan::new(runs, rows))
        })
    });
    g.finish();
}

fn bench_policy_encoding(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_encoding");
    g.sample_size(10);
    for n in [2_000usize, 8_000] {
        let ds = DatasetBuilder::default().num_users(n).policies_per_user(20).seed(3).build();
        g.bench_with_input(BenchmarkId::new("sequence_values", n), &n, |b, _| {
            b.iter(|| {
                black_box(SequenceValues::assign(
                    &ds.store,
                    &SpaceConfig::default(),
                    n,
                    SvAssignmentParams::default(),
                ))
            })
        });
    }
    g.finish();
}

fn bench_queries(c: &mut Criterion) {
    let cfg = RunConfig {
        num_users: 8_000,
        policies_per_user: 20,
        queries: 0,
        seed: 9,
        ..Default::default()
    };
    let world = World::build(&cfg);
    let gen = QueryGenerator::new(world.dataset.space, cfg.num_users);
    let mut rng = StdRng::seed_from_u64(17);
    let ranges = gen.range_batch(&mut rng, 64, 200.0, cfg.tq);
    let knns = gen.knn_batch(&mut rng, 64, 5, cfg.tq);

    let mut g = c.benchmark_group("queries_8k_users");
    g.sample_size(20);
    g.bench_function("peb_prq", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &ranges[i % ranges.len()];
            i += 1;
            black_box(world.peb.prq(q.issuer, &q.window, q.tq).len())
        })
    });
    g.bench_function("spatial_prq", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &ranges[i % ranges.len()];
            i += 1;
            black_box(world.baseline.prq(&world.ctx.store, q.issuer, &q.window, q.tq).len())
        })
    });
    g.bench_function("peb_pknn", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &knns[i % knns.len()];
            i += 1;
            black_box(world.peb.pknn(q.issuer, q.q, q.k, q.tq).len())
        })
    });
    g.bench_function("spatial_pknn", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &knns[i % knns.len()];
            i += 1;
            black_box(world.baseline.pknn(&world.ctx.store, q.issuer, q.q, q.k, q.tq).len())
        })
    });
    g.finish();
}

fn bench_updates(c: &mut Criterion) {
    let cfg = RunConfig {
        num_users: 8_000,
        policies_per_user: 20,
        queries: 0,
        seed: 9,
        ..Default::default()
    };
    let mut world = World::build(&cfg);
    let mut g = c.benchmark_group("updates_8k_users");
    let mut rng = StdRng::seed_from_u64(23);
    g.bench_function("peb_upsert", |b| {
        b.iter(|| {
            let uid = rng.gen_range(0..8_000u64);
            let m = MovingPoint::new(
                UserId(uid),
                Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                Vec2::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)),
                30.0,
            );
            world.peb.upsert(m);
        })
    });
    g.bench_function("baseline_upsert", |b| {
        b.iter(|| {
            let uid = rng.gen_range(0..8_000u64);
            let m = MovingPoint::new(
                UserId(uid),
                Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                Vec2::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)),
                30.0,
            );
            world.baseline.upsert(m);
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_btree,
    bench_storage,
    bench_zorder,
    bench_plan,
    bench_policy_encoding,
    bench_queries,
    bench_updates
);
criterion_main!(benches);
