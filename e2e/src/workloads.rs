//! The four workloads: their shapes, why each exists, and how a run of each
//! is measured.
//!
//! All of them drive the default-configured engine through its front door
//! ([`World::ask`] for queries, [`World::upsert`] for position reports) and
//! replay seeded tapes, so a pass is the same work on every commit. Every
//! end-to-end metric is measured on one thread. A second one runs only in
//! the traced run of `mixed`: its paced writer, for the contention counters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{Ledger, RecoverTimes, Update, World, WorldSpec};
use crate::layers::{self, LayerAcc};
use crate::stats::{median, Percentiles};
use crate::tape::{move_tape, Query, QueryTape, QueryTapeSpec};
use crate::trace::Tracer;

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Queries of each kind re-answered by the brute-force reference per gate.
const GATE_SAMPLE: usize = 100;
/// Queries of one kind asked in a row before the other kind takes its turn.
const QUERY_BLOCK: usize = 100;
/// Query passes a run makes at least, however short.
const MIN_PASSES: usize = 3;
/// How often the paced writer of `mixed` wakes to send what came due.
const WRITER_TICK: Duration = Duration::from_millis(2);

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Static load at t = 0 and queries at `tq`; then `passes` update passes of
    /// `rounds` rounds, each reporting `fraction` of the users, `tick` time
    /// units apart. Every world the run sets up gets the update passes; the
    /// last one is asked the queries first.
    Static { tq: f64, query_share: f64, passes: usize, rounds: usize, fraction: f64, tick: f64 },
    /// Every pass on a fresh tree with the log on from the first insert:
    /// `rounds` full rounds with a checkpoint between them, then a crash,
    /// `recoveries` recoveries of the identical image, a read-back and
    /// `tape_replays` replays of the query tape on the recovered tree.
    Durable { passes: usize, rounds: usize, tick: f64, recoveries: usize, tape_replays: usize },
    /// The users are loaded as of `start` and report round-robin, every user
    /// once per `period` time units and once per replay of the query tape:
    /// the client sends the reports that come due before each query, then
    /// asks at the time of the last one. Every replica of that runs on a
    /// fresh world. The traced run adds one pass beside a writer thread
    /// paced at `writer_per_s`.
    Mixed { writer_per_s: f64, period: f64, start: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub users: usize,
    pub policies_per_user: usize,
    pub theta: f64,
    pub pool_pages: usize,
    pub prq: usize,
    pub pknn: usize,
    pub window_side: f64,
    pub k: usize,
    /// Times the set-up is repeated for `setup_s` (on `mixed` every set-up
    /// is a replica, and these are the fewest).
    pub setups: usize,
    pub kind: Kind,
}

/// The shapes. Sizes follow ISSUE 11, cut to what fits a fifteen-second run
/// with three set-ups: tapes of 1 000 + 1 000 queries leave ten samples
/// beyond p99.
pub const SHAPES: [Shape; 4] = [
    // Pool (4 096 pages) far larger than the tree (~320 pages): every page
    // access is a lock-free pool hit, so plan construction and B+-tree CPU
    // do the work and storage almost none.
    Shape {
        name: "resident",
        users: 20_000,
        policies_per_user: 50,
        theta: 0.7,
        pool_pages: 4096,
        prq: 1000,
        pknn: 1000,
        window_side: 200.0,
        k: 5,
        setups: 3,
        kind: Kind::Static {
            tq: 30.0,
            query_share: 0.6,
            passes: 2,
            rounds: 10,
            fraction: 1.0,
            tick: 30.0,
        },
    },
    // The paper's 50 policies per user and 50-page pool, on 40 000 of its
    // 60 000 default users (three set-ups of the full 60 000 take half a
    // minute): the tree (~620 pages) is 12 times the cache, so misses,
    // evictions, write-backs, seals and the simulated disk do the work.
    Shape {
        name: "spill",
        users: 40_000,
        policies_per_user: 50,
        theta: 0.7,
        pool_pages: 50,
        prq: 1000,
        pknn: 1000,
        window_side: 200.0,
        k: 5,
        setups: 3,
        kind: Kind::Static {
            tq: 30.0,
            query_share: 0.7,
            passes: 1,
            rounds: 4,
            fraction: 0.25,
            tick: 15.0,
        },
    },
    // The write path with the log on: append, force-at-commit, checkpoint
    // and undo/redo dominate. Kept small on purpose: the log lives in
    // memory, and a log of hundreds of megabytes makes timing
    // page-fault-bound and unrepeatable.
    Shape {
        name: "ingest_durable",
        users: 4_000,
        policies_per_user: 20,
        theta: 0.7,
        pool_pages: 4096,
        prq: 1000,
        pknn: 1000,
        window_side: 200.0,
        k: 5,
        setups: 1,
        kind: Kind::Durable { passes: 3, rounds: 3, tick: 30.0, recoveries: 3, tape_replays: 2 },
    },
    // Writes between reads on the same shards, all three time partitions
    // live and rotating. Twenty reports per query is about 20 000 a second
    // at the rate the tape plays, and fixed, so that neither a faster writer
    // nor a faster reader changes what a query finds. Writes and reads share
    // one thread: beside a writer thread, on the two shared cores this runs
    // on, the client's numbers followed the scheduler (ten runs spread 36 %
    // of their median), and a bound cannot be put on that. The clock starts
    // at 480 and a replica ends at 600: the middle of the 1 440-unit day,
    // where nearly every generated policy interval (720 to 1 440 long) is
    // open, so a query costs the same early and late in the tape. (Near
    // either end of the day fewer than a fifth of them are.)
    Shape {
        name: "mixed",
        users: 40_000,
        policies_per_user: 20,
        theta: 0.7,
        pool_pages: 4096,
        prq: 1000,
        pknn: 1000,
        window_side: 200.0,
        k: 5,
        setups: 3,
        kind: Kind::Mixed { writer_per_s: 20_000.0, period: 60.0, start: 480.0 },
    },
];

pub fn shape(name: &str) -> Option<Shape> {
    SHAPES.iter().copied().find(|s| s.name == name)
}

impl Shape {
    /// The same code paths on a tenth of the users and tapes, one set-up:
    /// for a quick check that everything runs, not for numbers.
    pub fn smoke(mut self) -> Shape {
        self.users = (self.users / 10).max(400);
        self.policies_per_user = self.policies_per_user.min(10);
        self.pool_pages = if self.pool_pages <= 50 { 12 } else { self.pool_pages };
        self.prq /= 10;
        self.pknn /= 10;
        self.setups = 1;
        self.kind = match self.kind {
            Kind::Static { tq, query_share, fraction, tick, .. } => {
                Kind::Static { tq, query_share, passes: 2, rounds: 2, fraction, tick }
            }
            Kind::Durable { tick, .. } => {
                Kind::Durable { passes: 1, rounds: 2, tick, recoveries: 1, tape_replays: 1 }
            }
            Kind::Mixed { period, start, .. } => {
                Kind::Mixed { writer_per_s: 5_000.0, period, start }
            }
        };
        self
    }

    fn world_spec(&self, seed: u64) -> WorldSpec {
        WorldSpec {
            seed,
            users: self.users,
            policies_per_user: self.policies_per_user,
            theta: self.theta,
            pool_pages: self.pool_pages,
            start_time: match self.kind {
                Kind::Mixed { start, .. } => start,
                _ => 0.0,
            },
            durable: matches!(self.kind, Kind::Durable { .. }),
        }
    }

    fn tape_spec(&self, space_side: f64) -> QueryTapeSpec {
        QueryTapeSpec {
            users: self.users as u64,
            space_side,
            prq: self.prq,
            pknn: self.pknn,
            window_side: self.window_side,
            k: self.k,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    /// How long the measured part runs, in seconds.
    pub seconds: f64,
    /// Record spans and derive the per-layer metrics.
    pub traced: bool,
    pub smoke: bool,
}

/// One end-to-end metric of a run: the value it reports, and its value in
/// every pass (or set-up) for judging how far the passes spread.
#[derive(Debug, Clone)]
pub struct Measured {
    pub value: f64,
    pub passes: Vec<f64>,
}

/// Everything one run of one workload produced.
pub struct RunRecord {
    pub workload: &'static str,
    pub seed: u64,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, Measured>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
    /// Why the numbers of this run should not be compared, if so.
    pub invalid: Option<String>,
    /// The percentile the `*_p99_us` metrics stand for on this run's tapes.
    pub tail_percentile: f64,
}

/// Operations attempted and failed so far. A failed operation is a refused
/// submission, an error or partial completion, an answer that fails the
/// correctness gate or the privacy invariant, a failed upsert, or an
/// acknowledged report missing after recovery.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---- one pass ---------------------------------------------------------------

/// One replay of the query tape through the front door, closed loop, one
/// client.
pub struct QueryPass {
    /// Microseconds from submission to completion, in tape order.
    pub prq_us: Vec<f64>,
    pub pknn_us: Vec<f64>,
    pub failed: usize,
    pub prq_ledger: Ledger,
    pub pknn_ledger: Ledger,
}

impl QueryPass {
    /// Seconds spent waiting for answers.
    pub fn busy_s(&self) -> f64 {
        self.prq_us.iter().chain(&self.pknn_us).sum::<f64>() / 1e6
    }
}

/// The two kinds take turns in blocks of [`QUERY_BLOCK`], with the engine's
/// ledgers read at every block boundary: the counts of a kind stay apart,
/// and on `mixed`, where the cost of a query drifts with the writer's clock,
/// both kinds see the whole of every pass.
pub fn query_pass(world: &World, tape: &QueryTape, tq: &mut dyn FnMut() -> f64) -> QueryPass {
    let mut pass = QueryPass {
        prq_us: Vec::with_capacity(tape.prq.len()),
        pknn_us: Vec::with_capacity(tape.pknn.len()),
        failed: 0,
        prq_ledger: Ledger::default(),
        pknn_ledger: Ledger::default(),
    };
    let mut answers = Vec::with_capacity(QUERY_BLOCK);
    let mut block =
        |queries: &[Query], micros: &mut Vec<f64>, ledger: &mut Ledger, failed: &mut usize| {
            let before = world.ledger();
            answers.clear();
            for q in queries {
                let t = tq();
                let started = Instant::now();
                let answer = world.ask(q, t);
                micros.push(started.elapsed().as_secs_f64() * 1e6);
                answers.push((t, answer));
            }
            *ledger = ledger.plus(&world.ledger().since(&before));
            // Outside the timed loop: every completion must be complete and
            // must not disclose anyone the policies hide.
            for (q, (t, answer)) in queries.iter().zip(&answers) {
                if !answer.is_complete() || !world.privacy_holds(q, *t, answer) {
                    *failed += 1;
                }
            }
        };
    let (mut prq, mut pknn) = (tape.prq.chunks(QUERY_BLOCK), tape.pknn.chunks(QUERY_BLOCK));
    loop {
        let (a, b) = (prq.next(), pknn.next());
        if a.is_none() && b.is_none() {
            break;
        }
        if let Some(queries) = a {
            block(queries, &mut pass.prq_us, &mut pass.prq_ledger, &mut pass.failed);
        }
        if let Some(queries) = b {
            block(queries, &mut pass.pknn_us, &mut pass.pknn_ledger, &mut pass.failed);
        }
    }
    pass
}

/// What sending one batch of rounds measured.
pub struct UpdatePass {
    pub ops: usize,
    /// Seconds each round took (with the checkpoint after it, if any).
    pub round_s: Vec<f64>,
    /// Median and tail of the single upserts, microseconds.
    pub upsert_us: Percentiles,
    pub failed: usize,
    pub ledger: Ledger,
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_pages: Vec<f64>,
}

impl UpdatePass {
    pub fn wall_s(&self) -> f64 {
        self.round_s.iter().sum()
    }
}

/// Send `rounds` of staged reports one by one, timing each; with
/// `checkpoint`, take a checkpoint between rounds (inside the time of the
/// round before it), so that the last round is in the log only.
pub fn update_pass(world: &World, rounds: &[Vec<Update>], checkpoint: bool) -> UpdatePass {
    let ops: usize = rounds.iter().map(Vec::len).sum();
    let mut micros = Vec::with_capacity(ops);
    let mut failed = 0usize;
    let (mut round_s, mut checkpoint_ms, mut checkpoint_pages) =
        (Vec::new(), Vec::new(), Vec::new());
    let before = world.ledger();
    for (i, round) in rounds.iter().enumerate() {
        let round_started = Instant::now();
        for u in round {
            let started = Instant::now();
            let ok = world.upsert(u);
            micros.push(started.elapsed().as_secs_f64() * 1e6);
            failed += usize::from(!ok);
        }
        if checkpoint && i + 1 < rounds.len() {
            let started = Instant::now();
            checkpoint_pages.push(world.checkpoint() as f64);
            checkpoint_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        round_s.push(round_started.elapsed().as_secs_f64());
    }
    let ledger = world.ledger().since(&before);
    let upsert_us = Percentiles::of(&mut micros);
    UpdatePass { ops, round_s, upsert_us, failed, ledger, checkpoint_ms, checkpoint_pages }
}

// ---- what a run accumulates -------------------------------------------------

/// Element-wise minimum: `best[i]` is the fastest that item `i` ever ran.
fn fold_min(best: &mut Vec<f64>, pass: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(pass);
    } else {
        for (b, v) in best.iter_mut().zip(pass) {
            *b = b.min(*v);
        }
    }
}

/// The measurements of one run.
///
/// Interference on a shared box only ever adds time, and it comes in bursts,
/// so a run reports what it measured at its best. Every pass replays the
/// identical tape on an index in the same state (on `mixed`, where the index
/// moves on while the tape plays, every pass starts from a fresh world), so
/// query `i` of one pass is the same work as query `i` of every other, and
/// round `r` of update pass `p` on one world the same work as on every other
/// world: the run keeps, per query and per round (on `mixed` per report),
/// the fastest it ever ran, and reports percentiles and rates over those.
/// The per-pass values are kept beside the reported one, to show how far
/// the passes spread.
#[derive(Default)]
struct Meter {
    passes: BTreeMap<&'static str, Vec<f64>>,
    tally: Tally,
    acc: LayerAcc,
    best_prq_us: Vec<f64>,
    best_pknn_us: Vec<f64>,
    /// Per update pass of a world and per round of it, the fastest it ever
    /// ran; and the reports of each pass.
    best_round_s: Vec<Vec<f64>>,
    pass_ops: Vec<usize>,
    /// `mixed` only: per report of a replica, the fastest it ever ran.
    best_upsert_us: Vec<f64>,
}

impl Meter {
    fn note(&mut self, name: &'static str, value: f64) {
        self.passes.entry(name).or_default().push(value);
    }

    /// One set-up: the whole thing (dataset, policy encoding, load) from the
    /// seed. Without a log, getting an index back after losing the process
    /// means loading the users again, so there the load time is `restart_s`.
    fn set_up_once(&mut self, shape: &Shape, opts: &RunOptions) -> Result<World, String> {
        let spec = shape.world_spec(opts.seed);
        let (world, times) = World::build(&spec)?;
        self.note("setup_s", times.total_s());
        if !spec.durable {
            self.note("restart_s", times.load_s);
        }
        self.acc.setup = times;
        Ok(world)
    }

    fn query_pass(&mut self, world: &World, tape: &QueryTape, tq: &mut dyn FnMut() -> f64) {
        let mut pass = query_pass(world, tape, tq);
        self.tally.add(tape.len(), pass.failed);
        self.acc.add_query_pass(tape, &pass);
        fold_min(&mut self.best_prq_us, &pass.prq_us);
        fold_min(&mut self.best_pknn_us, &pass.pknn_us);
        self.note("query_per_s", tape.len() as f64 / pass.busy_s());
        let (prq, pknn) = (Percentiles::of(&mut pass.prq_us), Percentiles::of(&mut pass.pknn_us));
        self.note("prq_p50_us", prq.p50);
        self.note("prq_p99_us", prq.tail);
        self.note("pknn_p50_us", pknn.p50);
        self.note("pknn_p99_us", pknn.tail);
    }

    /// Replay the tape until `budget` is spent, at least [`MIN_PASSES`]
    /// times (exactly once when `single`).
    fn query_passes(
        &mut self,
        world: &World,
        tape: &QueryTape,
        tq: &mut dyn FnMut() -> f64,
        budget: Duration,
        single: bool,
    ) {
        let started = Instant::now();
        let mut passes = 0usize;
        while passes < 1 || (!single && (passes < MIN_PASSES || started.elapsed() < budget)) {
            self.query_pass(world, tape, tq);
            passes += 1;
        }
    }

    /// The correctness gate: sampled tape queries answered through the front
    /// door must match a linear scan of the ground truth exactly.
    fn gate(&mut self, world: &World, tape: &QueryTape, tq: f64) {
        let sample = tape.sample(GATE_SAMPLE);
        for q in sample.prq.iter().chain(&sample.pknn) {
            let answer = world.ask(q, tq);
            let ok = answer.is_complete()
                && world.privacy_holds(q, tq, &answer)
                && answer.uids() == world.oracle(q, tq);
            self.tally.add(1, usize::from(!ok));
        }
    }

    /// Update pass number `nth` of a world: the same work as pass `nth` of
    /// every other world of the run.
    fn update_pass(
        &mut self,
        nth: usize,
        world: &World,
        rounds: &[Vec<Update>],
        checkpoint: bool,
    ) -> UpdatePass {
        let pass = update_pass(world, rounds, checkpoint);
        self.tally.add(pass.ops, pass.failed);
        self.acc.add_update_pass(&pass);
        if self.best_round_s.len() <= nth {
            self.best_round_s.resize(nth + 1, Vec::new());
            self.pass_ops.resize(nth + 1, 0);
        }
        fold_min(&mut self.best_round_s[nth], &pass.round_s);
        self.pass_ops[nth] = pass.ops;
        self.note("upsert_per_s", pass.ops as f64 / pass.wall_s());
        self.note("upsert_p50_us", pass.upsert_us.p50);
        pass
    }

    /// The reports one replica of `mixed` sent between its queries.
    fn upserts(&mut self, mut service_us: Vec<f64>, failed: usize) {
        self.tally.add(service_us.len(), failed);
        fold_min(&mut self.best_upsert_us, &service_us);
        self.note("upsert_per_s", service_us.len() as f64 / (service_us.iter().sum::<f64>() / 1e6));
        self.note("upsert_p50_us", Percentiles::of(&mut service_us).p50);
    }

    fn finish(
        mut self,
        shape: &Shape,
        opts: &RunOptions,
        tracer: Option<Tracer>,
        invalid: Option<String>,
    ) -> RunRecord {
        self.note("peak_rss_mb", peak_rss_mb());
        let lowest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let busy_s = self.best_prq_us.iter().chain(&self.best_pknn_us).sum::<f64>() / 1e6;
        let prq = Percentiles::of(&mut self.best_prq_us);
        let pknn = Percentiles::of(&mut self.best_pknn_us);
        let fed = !self.best_upsert_us.is_empty();
        let fed_s = self.best_upsert_us.iter().sum::<f64>() / 1e6;
        let fed_ops = self.best_upsert_us.len();
        let fed_p50 = if fed { Percentiles::of(&mut self.best_upsert_us).p50 } else { 0.0 };
        let end_to_end = std::mem::take(&mut self.passes)
            .into_iter()
            .map(|(name, passes)| {
                let value = match name {
                    "prq_p50_us" => prq.p50,
                    "prq_p99_us" => prq.tail,
                    "pknn_p50_us" => pknn.p50,
                    "pknn_p99_us" => pknn.tail,
                    "query_per_s" => (prq.samples + pknn.samples) as f64 / busy_s,
                    "upsert_per_s" if fed => fed_ops as f64 / fed_s,
                    "upsert_p50_us" if fed => fed_p50,
                    "upsert_per_s" => {
                        self.pass_ops.iter().sum::<usize>() as f64
                            / self.best_round_s.iter().flatten().sum::<f64>()
                    }
                    // The best pass; of the run's set-ups, which are the
                    // same work every time, the fastest.
                    _ => lowest(&passes),
                };
                (name, Measured { value, passes })
            })
            .collect();
        let per_layer =
            if opts.traced { layers::derive(&self.acc, tracer.as_ref()) } else { BTreeMap::new() };
        RunRecord {
            workload: shape.name,
            seed: opts.seed,
            smoke: opts.smoke,
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            end_to_end,
            per_layer,
            tracer,
            invalid,
            tail_percentile: crate::stats::tail_percentile(shape.prq.min(shape.pknn).max(1)),
        }
    }
}

// ---- the three kinds of run -------------------------------------------------

pub fn run(shape: &Shape, opts: &RunOptions) -> Result<RunRecord, String> {
    match shape.kind {
        Kind::Static { .. } => run_static(shape, opts),
        Kind::Durable { .. } => run_durable(shape, opts),
        Kind::Mixed { .. } => run_mixed(shape, opts),
    }
}

fn run_static(shape: &Shape, opts: &RunOptions) -> Result<RunRecord, String> {
    let Kind::Static { tq, query_share, passes, rounds, fraction, tick } = shape.kind else {
        unreachable!("run_static is called for static shapes only")
    };
    let mut meter = Meter::default();
    let budget = Duration::from_secs_f64(opts.seconds * query_share);
    // A traced run reports no end-to-end metric: one set-up and one update
    // pass will do.
    let (setups, passes) = if opts.traced { (1, 1) } else { (shape.setups.max(1), passes) };
    let per_round = ((shape.users as f64 * fraction).round() as usize).max(1);
    let mut tracer = None;
    // One world at a time in memory. Every one of them gets the update
    // passes: the same reports onto the same load, so the same work, and
    // spread over the run, so that a busy phase of the host that covers them
    // on one world has passed on the next. The last world is asked the
    // queries first.
    for setup in 1..=setups {
        let mut world = meter.set_up_once(shape, opts)?;
        let tape = QueryTape::generate(opts.seed, &shape.tape_spec(world.space_side()));
        let queried = setup == setups;
        if queried {
            // Untimed, and the warm-up as well: on `spill` its 200 queries
            // turn the 50-page pool over many times, which brings it to its
            // steady state.
            meter.gate(&world, &tape, tq);
            let mut at_tq = move || tq;
            meter.query_passes(&world, &tape, &mut at_tq, budget, opts.traced);
            if opts.traced {
                tracer = Some(layers::traced_section(
                    &world,
                    &tape,
                    &mut at_tq,
                    &mut meter.acc,
                    &mut meter.tally,
                )?);
            }
            meter.acc.shape = Some(world.shape());
        }

        // Update passes: a fixed number, so that pass i is the same work on
        // every world and every run (the tree's partitions rotate as time
        // advances).
        let moves =
            move_tape(opts.seed, world.users(), 0, passes * rounds * per_round, world.max_speed());
        let mut now = 0.0;
        for (nth, pass_moves) in moves.chunks(rounds * per_round).enumerate() {
            let staged: Vec<Vec<Update>> = pass_moves
                .chunks(per_round)
                .map(|round| {
                    now += tick;
                    world.truth.stage(round, |_| now)
                })
                .collect();
            meter.update_pass(nth, &world, &staged, false);
        }
        if queried {
            // The reports must have landed: same gate on the moved population.
            meter.gate(&world, &tape, now + tick);
            if opts.traced {
                layers::probe_world(&world, &tape, now + tick, opts.smoke, &mut meter.acc);
            }
        }
    }
    Ok(meter.finish(shape, opts, tracer, None))
}

fn run_durable(shape: &Shape, opts: &RunOptions) -> Result<RunRecord, String> {
    let Kind::Durable { passes, rounds, tick, recoveries, tape_replays } = shape.kind else {
        unreachable!("run_durable is called for durable shapes only")
    };
    let mut meter = Meter::default();
    let passes = if opts.traced { 1 } else { passes };
    let mut tracer = None;
    for pass_no in 0..passes {
        // A fresh tree per pass; its durable load and first checkpoint are
        // this workload's set-up.
        let mut world = meter.set_up_once(shape, opts)?;

        let moves = move_tape(opts.seed, world.users(), 0, rounds * shape.users, world.max_speed());
        let mut now = 0.0;
        let staged: Vec<Vec<Update>> = moves
            .chunks(shape.users)
            .map(|round| {
                now += tick;
                world.truth.stage(round, |_| now)
            })
            .collect();
        let before = world.ledger();
        let pass = meter.update_pass(0, &world, &staged, true);
        meter.acc.add_durable_phase(&world.ledger().since(&before), &pass);

        // Crash now and recover the identical image several times.
        let crashed = world.crash();
        let mut times: Vec<RecoverTimes> = Vec::new();
        let mut recovered = None;
        for _ in 0..recoveries.max(1) {
            drop(recovered.take());
            let (back, t) = crashed.recover();
            times.push(t);
            recovered = Some(back);
        }
        drop(crashed);
        let back = recovered.expect("at least one recovery");
        let totals: Vec<f64> = times.iter().map(RecoverTimes::total_s).collect();
        meter.note("restart_s", median(&totals));
        meter.acc.recoveries.extend(times);

        // Every acknowledged report must be there.
        meter.tally.add(back.truth.len(), back.read_back_misses());

        // The recovered tree serves the query tape. Its pool starts cold;
        // the read-back and the gate have faulted every page in by then.
        let tq = now + tick;
        let mut at_tq = move || tq;
        let tape = QueryTape::generate(opts.seed, &shape.tape_spec(back.space_side()));
        meter.gate(&back, &tape, tq);
        for _ in 0..if opts.traced { 1 } else { tape_replays } {
            meter.query_pass(&back, &tape, &mut at_tq);
        }
        if opts.traced && pass_no == 0 {
            tracer = Some(layers::traced_section(
                &back,
                &tape,
                &mut at_tq,
                &mut meter.acc,
                &mut meter.tally,
            )?);
            layers::probe_world(&back, &tape, tq, opts.smoke, &mut meter.acc);
        }
        meter.acc.shape = Some(back.shape());
    }
    Ok(meter.finish(shape, opts, tracer, None))
}

/// The position reports of `mixed`, staged ahead of being sent: the same
/// thread that asks the queries sends `per_query` of them before each one,
/// so a replay is the same sequence of calls into the engine every time.
struct Feed<'a> {
    world: &'a World,
    staged: &'a [Update],
    /// When each staged report is made.
    times: &'a [f64],
    per_query: usize,
    sent: usize,
    now: f64,
    /// Microseconds each upsert took.
    service_us: Vec<f64>,
    failed: usize,
}

impl Feed<'_> {
    /// The world moves on before the next query: send the reports that come
    /// due (none once the staged ones run out) and return the time.
    fn advance(&mut self) -> f64 {
        let end = (self.sent + self.per_query).min(self.staged.len());
        for (u, t) in self.staged[self.sent..end].iter().zip(&self.times[self.sent..end]) {
            let started = Instant::now();
            let ok = self.world.upsert(u);
            self.service_us.push(started.elapsed().as_secs_f64() * 1e6);
            self.failed += usize::from(!ok);
            self.now = *t;
        }
        self.sent = end;
        self.now
    }
}

/// What the paced writer did.
#[derive(Default)]
pub struct WriterReport {
    /// Reports sent (a prefix of the staged ones).
    pub sent: usize,
    pub wall_s: f64,
    /// Microseconds from when each report was due to when its upsert
    /// returned.
    pub done_late_us: Vec<f64>,
    /// Microseconds from when each report was due to when it was sent: how
    /// late the generator itself ran.
    pub sent_late_us: Vec<f64>,
    pub failed: usize,
}

/// Open loop: report `i` is due at `i / per_s` seconds, whatever happened to
/// the ones before it, and its lateness is counted from then. Publishes the
/// time of the last report sent.
fn paced_writer(
    world: &World,
    updates: &[Update],
    times: &[f64],
    per_s: f64,
    now_bits: &AtomicU64,
    stop: &AtomicBool,
) -> WriterReport {
    let mut report = WriterReport::default();
    let started = Instant::now();
    for (i, (u, t)) in updates.iter().zip(times).enumerate() {
        let due = Duration::from_secs_f64(i as f64 / per_s);
        // Wake once per tick and send what came due in it (forty reports at
        // the full rate), as a front end that batches arrivals would: spinning
        // up to each due time keeps both cores of a two-core box busy, and
        // sleeping up to each due time is 20 000 wake-ups a second.
        let tick = WRITER_TICK.as_micros() as u64;
        let wake = Duration::from_micros((due.as_micros() as u64 / tick + 1) * tick);
        if let Some(ahead) = wake.checked_sub(started.elapsed()) {
            std::thread::sleep(ahead);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let sent_at = started.elapsed();
        let ok = world.upsert(u);
        let done_at = started.elapsed();
        now_bits.store(t.to_bits(), Ordering::Relaxed);
        report.sent_late_us.push(sent_at.saturating_sub(due).as_secs_f64() * 1e6);
        report.done_late_us.push(done_at.saturating_sub(due).as_secs_f64() * 1e6);
        report.failed += usize::from(!ok);
        report.sent = i + 1;
    }
    report.wall_s = started.elapsed().as_secs_f64();
    report
}

/// The two-thread section of a traced `mixed` run: the query tape once
/// through the front door while a second thread sends `staged` at
/// `writer_per_s`. Only here do the engine's contention counters (optimistic
/// retries, locked fallbacks, latch waits, restarts) have anything to count.
/// Returns the writer's record and the time of its last report.
fn contended_pass(
    world: &World,
    tape: &QueryTape,
    staged: &[Update],
    times: &[f64],
    writer_per_s: f64,
    now: f64,
    meter: &mut Meter,
) -> (WriterReport, f64) {
    let now_bits = AtomicU64::new(now.to_bits());
    let stop = AtomicBool::new(false);
    let mut at_now = || f64::from_bits(now_bits.load(Ordering::Relaxed));
    let (pass, report) = std::thread::scope(|s| {
        let writer = s.spawn(|| paced_writer(world, staged, times, writer_per_s, &now_bits, &stop));
        let pass = query_pass(world, tape, &mut at_now);
        stop.store(true, Ordering::Relaxed);
        (pass, writer.join().expect("the writer thread panicked"))
    });
    meter.tally.add(tape.len(), pass.failed);
    meter.tally.add(report.sent, report.failed);
    meter.acc.add_contended_pass(tape, &pass);
    (report, at_now())
}

fn run_mixed(shape: &Shape, opts: &RunOptions) -> Result<RunRecord, String> {
    let Kind::Mixed { writer_per_s, period, start } = shape.kind else {
        unreachable!("run_mixed is called for mixed shapes only")
    };
    let mut meter = Meter::default();
    let users = shape.users;
    // Every user reports once per `period`, round-robin, and once per replay
    // of the query tape.
    let time_of = |i: usize| start + period * (i + 1) as f64 / users as f64;
    let per_query = (users / (shape.prq + shape.pknn).max(1)).max(1);
    // Periods of reports staged for the single thread, and after them for
    // the paced writer of a traced run (its tape pass takes about one).
    let (fed_periods, paced_periods) = if opts.traced { (3, 2) } else { (1, 0) };

    // Every replica is the same work from a fresh world, so per query and
    // per report the run keeps the fastest it ever ran. A traced run reports
    // no end-to-end metric: one replica will do.
    let (at_least, budget) = match opts.traced {
        true => (1, Duration::ZERO),
        false => (shape.setups.max(1), Duration::from_secs_f64(opts.seconds)),
    };
    let (mut replicas, mut measured) = (0usize, Duration::ZERO);
    let (mut tracer, mut invalid) = (None, None);
    while replicas < at_least || measured < budget {
        replicas += 1;
        let mut world = meter.set_up_once(shape, opts)?;
        if time_of(users * (1 + fed_periods + paced_periods)) > world.time_domain() - period {
            return Err("mixed: the reports run past the time the policies speak about".into());
        }
        let tape = QueryTape::generate(opts.seed, &shape.tape_spec(world.space_side()));
        let moves = move_tape(
            opts.seed,
            world.users(),
            0,
            users * (1 + fed_periods + paced_periods),
            world.max_speed(),
        );

        // Steady state before anything is measured: one full period of
        // reports, so the users are spread over the live time partitions;
        // then the untimed warm-up, as everywhere.
        let warm = world.truth.stage(&moves[..users], time_of);
        let warm = update_pass(&world, &[warm], false);
        meter.tally.add(warm.ops, warm.failed);
        meter.acc.add_update_pass(&warm);
        let mut now = time_of(users - 1);
        let warm_up = tape.sample(GATE_SAMPLE);
        meter.tally.add(warm_up.len(), query_pass(&world, &warm_up, &mut || now).failed);

        let fed = users..users * (1 + fed_periods);
        let times: Vec<f64> = fed.clone().map(time_of).collect();
        let staged = world.truth.clone().stage(&moves[fed.clone()], |i| times[i]);
        let mut feed = Feed {
            world: &world,
            staged: &staged,
            times: &times,
            per_query,
            sent: 0,
            now,
            service_us: Vec::with_capacity(staged.len()),
            failed: 0,
        };
        let started = Instant::now();
        meter.query_pass(&world, &tape, &mut || feed.advance());
        measured += started.elapsed();
        if opts.traced {
            tracer = Some(layers::traced_section(
                &world,
                &tape,
                &mut || feed.advance(),
                &mut meter.acc,
                &mut meter.tally,
            )?);
        }
        let Feed { sent, service_us, failed, .. } = feed;
        now = feed.now;
        world.truth.commit(&staged[..sent]);
        meter.upserts(service_us, failed);

        if opts.traced {
            let paced = fed.start + sent..fed.start + sent + users * paced_periods;
            let times: Vec<f64> = paced.clone().map(time_of).collect();
            let staged = world.truth.clone().stage(&moves[paced], |i| times[i]);
            let report;
            (report, now) =
                contended_pass(&world, &tape, &staged, &times, writer_per_s, now, &mut meter);
            world.truth.commit(&staged[..report.sent]);
            // A generator that ran late makes the run invalid, not slow.
            let achieved = report.sent as f64 / report.wall_s;
            invalid = ((achieved - writer_per_s).abs() > 0.01 * writer_per_s).then(|| {
                format!(
                    "the writer achieved {achieved:.0} reports/s of the {writer_per_s:.0} it was to send"
                )
            });
            meter.acc.writer = Some(report);
        }
        meter.acc.shape = Some(world.shape());

        // Everything has stopped, so the reference comparison is exact now.
        // Every replica is the same calls on the same data: the last one
        // stands for them all.
        if replicas >= at_least && measured >= budget {
            meter.gate(&world, &tape, now);
        }
        if opts.traced {
            layers::probe_world(&world, &tape, now, opts.smoke, &mut meter.acc);
        }
    }
    Ok(meter.finish(shape, opts, tracer, invalid))
}
