//! The per-layer ledger: what a traced run records about each layer, and how
//! the per-layer metrics are derived from it.
//!
//! Layers are the engine's crates. Counts are deltas of the engine's public
//! ledgers read at phase boundaries; times are spans the benchmark records
//! around public calls (the engine itself is not instrumented); `probe_*`
//! metrics time a layer's public functions in isolation on scratch
//! instances.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{
    probe_layers, BxFacts, Ledger, ProbeFacts, RecoverTimes, ReplayFacts, SetupTimes, TreeShape,
    World,
};
use crate::stats::{median, Percentiles};
use crate::tape::{Query, QueryTape};
use crate::trace::{totals_by_name, Tracer};
use crate::workloads::{QueryPass, Tally, UpdatePass, WriterReport};

/// Queries of each kind the traced run replays step by step.
const REPLAY_SAMPLE: usize = 200;
/// Sampled requests whose direct calls, front-door calls and replays are
/// made together.
const REPLAY_GROUP: usize = 10;
/// Queries of each kind the Bx-tree baseline answers (a tenth in a smoke
/// run: its kNN search is slowest on a sparse population).
const BX_SAMPLE: usize = 100;
/// Keys in the scratch B+-tree of the layer probes (a twentieth in a smoke
/// run).
const PROBE_KEYS: usize = 100_000;
/// Point lookups of the `index.get_us` probe.
const GET_PROBES: usize = 2_000;

/// Everything a run collects for the per-layer metrics.
#[derive(Default)]
pub struct LayerAcc {
    pub setup: SetupTimes,
    pub shape: Option<TreeShape>,
    prq: Ledger,
    prq_n: usize,
    pknn: Ledger,
    pknn_n: usize,
    upsert: Ledger,
    upsert_n: usize,
    upsert_wall_s: f64,
    upsert_tail_us: Vec<f64>,
    durable: Ledger,
    durable_ops: usize,
    checkpoint_ms: Vec<f64>,
    checkpoint_pages: Vec<f64>,
    pub recoveries: Vec<RecoverTimes>,
    pub writer: Option<WriterReport>,
    /// Seconds the last untraced pass and the traced pass waited for answers.
    untraced_busy_s: f64,
    traced_busy_s: f64,
    replay: ReplayFacts,
    replays: usize,
    /// Per sampled request: the front door's time less the direct call's.
    serve_extra_us: Vec<f64>,
    direct_prq_us: Vec<f64>,
    direct_pknn_us: Vec<f64>,
    probes: ProbeFacts,
    bx: BxFacts,
    permits_ns: f64,
    friends_per_issuer: f64,
    get_us: f64,
}

impl LayerAcc {
    pub fn add_query_pass(&mut self, tape: &QueryTape, pass: &QueryPass) {
        self.prq = self.prq.plus(&pass.prq_ledger);
        self.prq_n += tape.prq.len();
        self.pknn = self.pknn.plus(&pass.pknn_ledger);
        self.pknn_n += tape.pknn.len();
        self.untraced_busy_s = pass.busy_s();
    }

    /// A pass beside the paced writer of `mixed`: its counts only (the
    /// writer's traffic is on the same ledgers).
    pub fn add_contended_pass(&mut self, tape: &QueryTape, pass: &QueryPass) {
        let untraced_busy_s = self.untraced_busy_s;
        self.add_query_pass(tape, pass);
        self.untraced_busy_s = untraced_busy_s;
    }

    pub fn add_update_pass(&mut self, pass: &UpdatePass) {
        self.upsert = self.upsert.plus(&pass.ledger);
        self.upsert_n += pass.ops;
        self.upsert_wall_s += pass.wall_s();
        self.upsert_tail_us.push(pass.upsert_us.tail);
    }

    /// The logged part of a durable pass: its update rounds and checkpoints.
    pub fn add_durable_phase(&mut self, ledger: &Ledger, pass: &UpdatePass) {
        self.durable = self.durable.plus(ledger);
        self.durable_ops += pass.ops;
        self.checkpoint_ms.extend(&pass.checkpoint_ms);
        self.checkpoint_pages.extend(&pass.checkpoint_pages);
    }
}

/// The traced part of a run: one pass of the tape with a root span per
/// request and a child span per front-door call; then, for sampled requests,
/// the direct call and a step-by-step replay, each span a child of the same
/// request's root.
pub fn traced_section(
    world: &World,
    tape: &QueryTape,
    tq: &mut dyn FnMut() -> f64,
    acc: &mut LayerAcc,
    tally: &mut Tally,
) -> Result<Tracer, String> {
    let mut tracer = Tracer::default();
    let queries: Vec<Query> = tape.prq.iter().chain(&tape.pknn).copied().collect();
    let mut roots = Vec::with_capacity(queries.len());
    let mut failed = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let t = tq();
        let started = Instant::now();
        let (answer, root) = world.ask_traced(q, t, &mut tracer, i as u32);
        acc.traced_busy_s += started.elapsed().as_secs_f64();
        roots.push(root);
        failed += usize::from(!answer.is_complete() || !world.privacy_holds(q, t, &answer));
    }
    tally.add(queries.len(), failed);

    // Three calls per sampled request — the tree itself, the front door
    // again, the step-by-step replay — made in groups of [`REPLAY_GROUP`]
    // requests: all the calls of one sort for the group, then all of the
    // next sort. So no call finds the pool warmed by the
    // same request a moment earlier (on `spill` that would halve it: the
    // nine requests in between turn the 50-page pool over several times),
    // and yet the three calls of a request are close enough in time that on
    // `mixed` the index has not moved on between them.
    let sampled = |len: usize| (0..len).step_by((len / REPLAY_SAMPLE).max(1)).take(REPLAY_SAMPLE);
    let picks: Vec<usize> = sampled(tape.prq.len())
        .chain(sampled(tape.pknn.len()).map(|i| tape.prq.len() + i))
        .collect();
    for (g, group) in picks.chunks(REPLAY_GROUP).enumerate() {
        // Whichever of the two goes second finds the processor's caches
        // warmed by the first, so they take turns going first.
        let (mut direct_us, mut ask_us) = (vec![0.0; group.len()], vec![0.0; group.len()]);
        for round in 0..2 {
            let direct_round = (round == 0) == (g % 2 == 0);
            for (k, &i) in group.iter().enumerate() {
                let (q, t) = (&queries[i], tq());
                if direct_round {
                    let span = tracer.begin("core.direct", Some(roots[i]), i as u32);
                    world.direct(q, t)?;
                    tracer.end(span);
                    direct_us[k] = tracer.spans()[span as usize].duration_ns() as f64 / 1e3;
                    match q {
                        Query::Prq { .. } => acc.direct_prq_us.push(direct_us[k]),
                        Query::Pknn { .. } => acc.direct_pknn_us.push(direct_us[k]),
                    }
                } else {
                    let started = Instant::now();
                    let answer = world.ask(q, t);
                    ask_us[k] = started.elapsed().as_secs_f64() * 1e6;
                    tally.add(1, usize::from(!answer.is_complete()));
                }
            }
        }
        // The front door less the direct call of the same request: what the
        // serving layer costs.
        acc.serve_extra_us.extend(ask_us.iter().zip(&direct_us).map(|(a, d)| a - d));
        for &i in group.iter().filter(|&&i| i < tape.prq.len()) {
            let facts = world.replay_prq(&queries[i], tq(), &mut tracer, roots[i], i as u32)?;
            acc.replays += 1;
            let r = &mut acc.replay;
            r.friends += facts.friends;
            r.interval_budget += facts.interval_budget;
            r.windows += facts.windows;
            r.ranges_raw += facts.ranges_raw;
            r.ranges_kept += facts.ranges_kept;
            r.intervals += facts.intervals;
            r.candidates += facts.candidates;
            r.results += facts.results;
        }
    }
    Ok(tracer)
}

/// Probes that need the loaded world (policy checks, point lookups, the
/// Bx-tree baseline) and the ones that do not (scratch-instance timings).
pub fn probe_world(world: &World, tape: &QueryTape, tq: f64, smoke: bool, acc: &mut LayerAcc) {
    let sample = tape.sample(if smoke { BX_SAMPLE / 10 } else { BX_SAMPLE });
    (acc.permits_ns, acc.friends_per_issuer) = world.probe_policy(&sample, tq);
    acc.get_us = world.probe_get_us(GET_PROBES);
    acc.bx = world.bx_baseline(&sample, tq);
    acc.probes = probe_layers(if smoke { PROBE_KEYS / 20 } else { PROBE_KEYS });
}

fn per(total: impl Into<f64>, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total.into() / n as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Every per-layer metric of `BENCHMARK.json`, by name. A layer that did no
/// work on this workload reports 0 (the log on a non-durable workload, the
/// writer outside `mixed`).
pub fn derive(acc: &LayerAcc, tracer: Option<&Tracer>) -> BTreeMap<&'static str, f64> {
    let spans = tracer.map(|t| totals_by_name(t.spans())).unwrap_or_default();
    let span_total_us = |name: &str| spans.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3);
    let span_mean_ns =
        |name: &str| spans.get(name).map_or(0.0, |t| per(t.total_ns as f64, t.count as usize));
    let queries = acc.prq_n + acc.pknn_n;
    let reads = acc.prq.plus(&acc.pknn);
    let all = reads.plus(&acc.upsert);
    let shape = acc.shape;
    let r = &acc.replay;
    let replay_us: f64 =
        ["policy.friend_groups", "zorder.decompose", "core.keys", "index.scan", "core.refine"]
            .iter()
            .map(|n| span_total_us(n))
            .sum();
    let plan_us = span_total_us("policy.friend_groups")
        + span_total_us("zorder.decompose")
        + span_total_us("core.keys");
    let direct_prq_total_us: f64 = acc.direct_prq_us.iter().sum();
    let writer = acc.writer.as_ref();
    let recover_ms = |f: fn(&RecoverTimes) -> f64| {
        median_or_zero(&acc.recoveries.iter().map(|t| f(t) * 1e3).collect::<Vec<_>>())
    };
    let last_recovery = acc.recoveries.last().copied().unwrap_or_default();

    BTreeMap::from([
        // peb_serve
        ("serve.submit_ns", span_mean_ns("serve.submit")),
        ("serve.overhead_us", median_or_zero(&acc.serve_extra_us)),
        ("serve.partial", reads.serve_partial as f64),
        ("serve.rejected", reads.serve_rejected as f64),
        ("serve.failed", reads.serve_failed as f64),
        ("serve.retries", reads.serve_retries as f64),
        // pebtree
        ("core.prq_us", median_or_zero(&acc.direct_prq_us)),
        ("core.pknn_us", median_or_zero(&acc.direct_pknn_us)),
        ("core.plan_us_per_prq", per(plan_us, acc.replays)),
        ("core.plan_intervals_per_prq", per(r.intervals as f64, acc.replays)),
        ("core.refine_us_per_prq", per(span_total_us("core.refine"), acc.replays)),
        ("core.candidates_per_result", per(r.candidates as f64, r.results.max(1))),
        // peb_policy
        ("policy.encode_s", acc.setup.encode_s),
        ("policy.friend_groups_us", span_mean_ns("policy.friend_groups") / 1e3),
        ("policy.permits_ns", acc.permits_ns),
        ("policy.friends_per_issuer", acc.friends_per_issuer),
        // peb_zorder
        ("zorder.decompose_us_per_prq", per(span_total_us("zorder.decompose"), acc.replays)),
        ("zorder.ranges_raw_per_window", per(r.ranges_raw as f64, r.windows)),
        ("zorder.ranges_kept_per_window", per(r.ranges_kept as f64, r.windows)),
        // peb_costmodel
        ("costmodel.interval_budget", per(r.interval_budget as f64, acc.replays)),
        // peb_index
        ("index.scan_us_per_prq", per(span_total_us("index.scan"), acc.replays)),
        ("index.upsert_us", per(acc.upsert_wall_s * 1e6, acc.upsert_n)),
        // The tail of single upserts; on `mixed`, of how late they returned.
        (
            "index.upsert_p99_us",
            match writer.filter(|w| !w.done_late_us.is_empty()) {
                Some(w) => Percentiles::of(&mut w.done_late_us.clone()).tail,
                None => median_or_zero(&acc.upsert_tail_us),
            },
        ),
        ("index.get_us", acc.get_us),
        ("index.live_partitions", shape.map_or(0.0, |s| s.live_partitions as f64)),
        // peb_btree
        ("btree.descents_per_prq", per(acc.prq.descents as f64, acc.prq_n)),
        ("btree.descents_per_pknn", per(acc.pknn.descents as f64, acc.pknn_n)),
        ("btree.cached_branch_pages_per_q", per(reads.cached_branch_pages as f64, queries)),
        (
            "btree.leaf_pages_written_per_upsert",
            per(acc.upsert.leaf_pages_written as f64, acc.upsert_n),
        ),
        ("btree.olc_restarts", all.olc_restarts as f64),
        ("btree.olc_escalations", all.olc_escalations as f64),
        ("btree.height", shape.map_or(0.0, |s| s.height as f64)),
        ("btree.leaf_pages", shape.map_or(0.0, |s| s.leaf_pages as f64)),
        ("btree.probe_get_ns", acc.probes.btree_get_ns),
        ("btree.probe_insert_ns", acc.probes.btree_insert_ns),
        ("btree.probe_multiscan_us", acc.probes.btree_multiscan_us),
        // peb_storage: pool
        ("pool.logical_reads_per_prq", per(acc.prq.logical_reads as f64, acc.prq_n)),
        ("pool.logical_reads_per_pknn", per(acc.pknn.logical_reads as f64, acc.pknn_n)),
        ("pool.logical_reads_per_upsert", per(acc.upsert.logical_reads as f64, acc.upsert_n)),
        (
            "pool.physical_io_per_prq",
            per((acc.prq.physical_reads + acc.prq.physical_writes) as f64, acc.prq_n),
        ),
        (
            "pool.physical_io_per_pknn",
            per((acc.pknn.physical_reads + acc.pknn.physical_writes) as f64, acc.pknn_n),
        ),
        ("pool.physical_reads_per_q", per(reads.physical_reads as f64, queries)),
        ("pool.physical_writes_per_upsert", per(acc.upsert.physical_writes as f64, acc.upsert_n)),
        ("pool.hit_ratio", 1.0 - ratio(all.physical_reads, all.logical_reads)),
        (
            "pool.opt_hit_rate",
            ratio(all.opt_hits, all.opt_hits + all.opt_retries + all.locked_fallbacks),
        ),
        ("pool.opt_retries", all.opt_retries as f64),
        ("pool.locked_fallbacks", all.locked_fallbacks as f64),
        ("pool.lock_acquisitions_per_q", per(reads.lock_acquisitions as f64, queries)),
        ("pool.latch_waits", all.latch_waits as f64),
        ("pool.ticks_per_prq", per(acc.prq.ticks as f64, acc.prq_n)),
        ("pool.ticks_per_pknn", per(acc.pknn.ticks as f64, acc.pknn_n)),
        ("pool.fault_retries", all.fault_retries as f64),
        ("pool.quarantines", all.quarantines as f64),
        ("pool.probe_hit_ns", acc.probes.pool_hit_ns),
        ("pool.probe_miss_us", acc.probes.pool_miss_us),
        // peb_storage: log
        ("wal.records_per_op", per(acc.durable.wal_records as f64, acc.durable_ops)),
        ("wal.bytes_per_op", per(acc.durable.wal_bytes as f64, acc.durable_ops)),
        ("wal.page_writes_per_op", per(acc.durable.wal_page_writes as f64, acc.durable_ops)),
        ("wal.flushes_per_op", per(acc.durable.wal_flushes as f64, acc.durable_ops)),
        ("wal.write_amp", ratio(acc.durable.wal_page_writes, acc.durable.physical_writes)),
        ("wal.checkpoint_ms", median_or_zero(&acc.checkpoint_ms)),
        ("wal.checkpoint_pages", median_or_zero(&acc.checkpoint_pages)),
        ("wal.recover_scan_ms", recover_ms(|t| t.scan_s)),
        ("wal.reattach_ms", recover_ms(|t| t.reattach_s)),
        ("wal.records_scanned", last_recovery.records_scanned as f64),
        ("wal.records_replayed", last_recovery.records_replayed as f64),
        // peb_storage: simulated disk
        ("disk.probe_read_ns", acc.probes.disk_read_ns),
        ("disk.probe_write_ns", acc.probes.disk_write_ns),
        ("disk.seal_ns_per_page", acc.probes.seal_ns_per_page),
        // peb_bx: the paper's comparison
        ("bx.prq_us", acc.bx.prq_us),
        ("bx.pknn_us", acc.bx.pknn_us),
        ("bx.prq_io_per_q", acc.bx.prq_io_per_q),
        ("bx.pknn_io_per_q", acc.bx.pknn_io_per_q),
        // peb_workload and the benchmark's own writer
        ("gen.dataset_s", acc.setup.dataset_s),
        (
            "gen.writer_late_p99_us",
            writer
                .filter(|w| !w.sent_late_us.is_empty())
                .map_or(0.0, |w| Percentiles::of(&mut w.sent_late_us.clone()).tail),
        ),
        ("gen.writer_achieved_per_s", writer.map_or(0.0, |w| per(w.sent as f64, 1) / w.wall_s)),
        // the tracing itself
        ("trace.overhead_pct", 100.0 * (acc.traced_busy_s / acc.untraced_busy_s - 1.0)),
        (
            "trace.coverage_prq",
            if direct_prq_total_us > 0.0 { replay_us / direct_prq_total_us } else { 0.0 },
        ),
    ])
}
