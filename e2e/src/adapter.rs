//! The only file of the benchmark that names engine APIs.
//!
//! Everything else works on the plain types of [`crate::tape`] and the
//! handles defined here, so an engine API consolidation needs a mechanical
//! follow-up in this file alone. The surface used is deliberately narrow:
//! constructors, the `try_*` calls, `QueryServer::{new, submit, drain_n,
//! take_completions, stats}`, the durability calls and the public stats
//! getters. No mode knob is ever touched — the benchmark measures whatever
//! the default path is — except `set_durable(true)` on `ingest_durable`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use peb_btree::BTree;
use peb_bx::BxTree;
use peb_common::{Deadline, MovingPoint, Point, Rect, SpaceConfig, UserId, Vec2};
use peb_index::TimePartitioning;
use peb_serve::{Completion, QueryServer, Request, Response, ServerConfig};
use peb_storage::{BufferPool, DiskSim, Page, PageSnapshot, Wal};
use peb_workload::{Dataset, DatasetBuilder};
use pebtree::{oracle, PebTree, PrivacyContext, SpatialBaseline};

use crate::tape::{Move, Query, QueryTape};
use crate::trace::{Counts, Tracer};

/// What a world is built from. Everything not listed is an engine default.
#[derive(Debug, Clone, Copy)]
pub struct WorldSpec {
    pub seed: u64,
    pub users: usize,
    pub policies_per_user: usize,
    pub theta: f64,
    pub pool_pages: usize,
    /// The time the generated positions are as of (the load's `t_update`).
    pub start_time: f64,
    /// Write-ahead logging on from the first insert.
    pub durable: bool,
}

/// Seconds each part of a set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generating users and policies (`peb_workload`).
    pub dataset_s: f64,
    /// Offline policy encoding (`peb_policy`, Fig 11 of the paper).
    pub encode_s: f64,
    /// Creating the tree and inserting every user (plus the first
    /// checkpoint when durable).
    pub load_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.dataset_s + self.encode_s + self.load_s
    }
}

/// The benchmark's own record of where every user is: what a brute-force
/// reference answers from. Values are held as the index stores them (`f32`
/// fields), so a prediction from here and one from a stored record agree to
/// the last bit.
#[derive(Clone)]
pub struct Truth {
    users: Vec<MovingPoint>,
    bounds: Rect,
}

/// One staged position report, ready to be sent.
#[derive(Debug, Clone, Copy)]
pub struct Update(MovingPoint);

fn as_stored(m: MovingPoint) -> MovingPoint {
    let r = |v: f64| v as f32 as f64;
    MovingPoint::new(
        m.uid,
        Point::new(r(m.pos.x), r(m.pos.y)),
        Vec2::new(r(m.vel.x), r(m.vel.y)),
        r(m.t_update),
    )
}

impl Truth {
    /// Turn tape moves into reports made at time `at(i)`: each user reports
    /// from wherever its previous report puts it then, clamped to the space.
    /// The reports are recorded here at once; stage on a clone and
    /// [`Truth::commit`] the sent prefix when some may stay unsent.
    pub fn stage(&mut self, moves: &[Move], at: impl Fn(usize) -> f64) -> Vec<Update> {
        moves
            .iter()
            .enumerate()
            .map(|(i, mv)| {
                let t = at(i);
                let old = self.users[mv.uid as usize];
                let pos = self.bounds.clamp(old.position_at(t));
                let m = as_stored(MovingPoint::new(old.uid, pos, Vec2::new(mv.vx, mv.vy), t));
                self.users[mv.uid as usize] = m;
                Update(m)
            })
            .collect()
    }

    /// Record reports that were sent.
    pub fn commit(&mut self, sent: &[Update]) {
        for u in sent {
            self.users[u.0.uid.as_index()] = u.0;
        }
    }

    pub fn len(&self) -> usize {
        self.users.len()
    }
}

/// The answer to one front-door query: its completion, or `None` when the
/// submission was refused or its completion never appeared.
pub struct Answer(Option<Completion>);

impl Answer {
    /// Admitted, served, and complete (not cut short by a deadline).
    pub fn is_complete(&self) -> bool {
        matches!(&self.0, Some(Completion { result: Ok(resp), .. }) if resp.is_complete())
    }

    fn rows(&self) -> Vec<MovingPoint> {
        match &self.0 {
            Some(Completion { result: Ok(Response::Prq(p)), .. }) => p.value.clone(),
            Some(Completion { result: Ok(Response::Pknn(p)), .. }) => {
                p.value.iter().map(|(m, _)| *m).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Returned user ids, in the order the engine returned them.
    pub fn uids(&self) -> Vec<u64> {
        self.rows().iter().map(|m| m.uid.0).collect()
    }
}

macro_rules! ledger {
    ($($field:ident),* $(,)?) => {
        /// Every public engine counter, read in one go. All are cumulative;
        /// [`Ledger::since`] gives the delta over a phase.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Ledger { $(pub $field: u64),* }

        impl Ledger {
            pub fn since(&self, earlier: &Ledger) -> Ledger {
                Ledger { $($field: self.$field.saturating_sub(earlier.$field)),* }
            }

            pub fn plus(&self, other: &Ledger) -> Ledger {
                Ledger { $($field: self.$field + other.$field),* }
            }
        }
    };
}

ledger! {
    logical_reads, physical_reads, physical_writes,
    opt_hits, opt_retries, locked_fallbacks, lock_acquisitions, latch_acquisitions, latch_waits,
    descents, cached_branch_pages, leaf_pages_written,
    olc_restarts, olc_escalations,
    wal_records, wal_bytes, wal_page_writes, wal_flushes,
    fault_retries, quarantines,
    serve_submitted, serve_rejected, serve_partial, serve_failed, serve_retries,
    ticks,
}

/// Static facts about the loaded index.
#[derive(Debug, Clone, Copy)]
pub struct TreeShape {
    pub height: u32,
    pub leaf_pages: usize,
    pub live_partitions: usize,
}

/// What the decomposition replay of one PRQ saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayFacts {
    pub friends: usize,
    pub interval_budget: usize,
    pub windows: usize,
    pub ranges_raw: usize,
    pub ranges_kept: usize,
    pub intervals: usize,
    pub candidates: usize,
    pub results: usize,
}

/// A crashed world: the durable bytes of its two platters and what a
/// restart is handed from outside.
pub struct Crashed {
    data: DiskSim,
    log: DiskSim,
    spec: WorldSpec,
    space: SpaceConfig,
    ctx: Arc<PrivacyContext>,
    max_speed: f64,
    truth: Truth,
}

impl Crashed {
    /// Recover a copy of the crash image into a serving world (the copy is
    /// made before the clock starts, so the image can be recovered again).
    pub fn recover(&self) -> (World, RecoverTimes) {
        let (mut data, log) = (self.data.clone(), self.log.clone());
        let started = Instant::now();
        let rec = peb_storage::recover(&mut data, &log);
        let scan_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let wal = Wal::resume(log, &rec);
        let pool = Arc::new(BufferPool::from_recovered(self.spec.pool_pages, 1, data, wal));
        let ctx = Arc::clone(&self.ctx);
        let tree = PebTree::recover(pool, &rec, self.space, part(), self.max_speed, ctx);
        let reattach_s = started.elapsed().as_secs_f64();

        let times = RecoverTimes {
            scan_s,
            reattach_s,
            records_scanned: rec.records_scanned,
            records_replayed: rec.records_replayed,
        };
        let world = World::serve(
            self.spec,
            tree,
            Arc::clone(&self.ctx),
            self.max_speed,
            self.truth.clone(),
        );
        (world, times)
    }
}

/// What one recovery cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverTimes {
    /// `peb_storage::recover`: log scan plus undo/redo onto the data disk.
    pub scan_s: f64,
    /// `Wal::resume` → `BufferPool::from_recovered` → `PebTree::recover`.
    pub reattach_s: f64,
    pub records_scanned: u64,
    pub records_replayed: u64,
}

impl RecoverTimes {
    pub fn total_s(&self) -> f64 {
        self.scan_s + self.reattach_s
    }
}

/// The engine under test: one loaded PEB-tree behind its serving layer, and
/// the benchmark's ground truth beside it.
pub struct World {
    spec: WorldSpec,
    tree: Arc<PebTree>,
    server: QueryServer,
    ctx: Arc<PrivacyContext>,
    max_speed: f64,
    pub truth: Truth,
}

fn part() -> TimePartitioning {
    TimePartitioning::default()
}

impl World {
    /// Generate the dataset, encode the policies and load the tree. The
    /// policy store is moved into the privacy context (and read back from
    /// there), so it is never held twice.
    pub fn build(spec: &WorldSpec) -> Result<(World, SetupTimes), String> {
        let started = Instant::now();
        let Dataset { space, users, store, max_speed, .. } = DatasetBuilder::default()
            .num_users(spec.users)
            .policies_per_user(spec.policies_per_user)
            .grouping_factor(spec.theta)
            .seed(spec.seed)
            .build();
        let users: Vec<MovingPoint> = users
            .into_iter()
            .map(|m| as_stored(MovingPoint::new(m.uid, m.pos, m.vel, spec.start_time)))
            .collect();
        let dataset_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let ctx = Arc::new(PrivacyContext::build(store, space, users.len(), Default::default()));
        let encode_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let pool = Arc::new(BufferPool::new(spec.pool_pages));
        let mut tree = PebTree::new(pool, space, part(), max_speed, Arc::clone(&ctx));
        if spec.durable {
            // Before the first insert, so the whole load is logged.
            tree.set_durable(true);
        }
        for m in &users {
            tree.try_upsert(*m).map_err(|e| format!("load: {e}"))?;
        }
        if spec.durable {
            tree.checkpoint();
        }
        let load_s = started.elapsed().as_secs_f64();

        let truth = Truth { users, bounds: space.bounds() };
        let world = World::serve(*spec, tree, ctx, max_speed, truth);
        Ok((world, SetupTimes { dataset_s, encode_s, load_s }))
    }

    fn serve(
        spec: WorldSpec,
        tree: PebTree,
        ctx: Arc<PrivacyContext>,
        max_speed: f64,
        truth: Truth,
    ) -> World {
        let tree = Arc::new(tree);
        let server = QueryServer::new(Arc::clone(&tree), ServerConfig::default());
        World { spec, tree, server, ctx, max_speed, truth }
    }

    pub fn users(&self) -> u64 {
        self.truth.len() as u64
    }

    pub fn space_side(&self) -> f64 {
        self.tree.space().side
    }

    pub fn max_speed(&self) -> f64 {
        self.max_speed
    }

    /// The latest query time the generated policies still speak about.
    pub fn time_domain(&self) -> f64 {
        self.tree.space().time_domain
    }

    fn request(q: &Query, tq: f64) -> Request {
        match *q {
            Query::Prq { issuer, xl, yl, side } => Request::Prq {
                issuer: UserId(issuer),
                window: Rect::new(xl, xl + side, yl, yl + side),
                tq,
            },
            Query::Pknn { issuer, x, y, k } => {
                Request::Pknn { issuer: UserId(issuer), center: Point::new(x, y), k, tq }
            }
        }
    }

    /// One query through the front door, as a closed-loop client sees it:
    /// submit, let the server run it, collect the completion.
    pub fn ask(&self, q: &Query, tq: f64) -> Answer {
        match self.server.submit(Self::request(q, tq)) {
            Err(_) => Answer(None),
            Ok(ticket) => {
                self.server.drain_n(1);
                Answer(self.collect(ticket))
            }
        }
    }

    fn collect(&self, ticket: u64) -> Option<Completion> {
        // One client, one request in flight: the only completion is ours.
        self.server.take_completions().into_iter().find(|c| c.ticket == ticket)
    }

    /// [`World::ask`] with a root span and one child span per front-door call.
    pub fn ask_traced(
        &self,
        q: &Query,
        tq: f64,
        tracer: &mut Tracer,
        request: u32,
    ) -> (Answer, u32) {
        let root = tracer.begin("request", None, request);
        let span = tracer.begin("serve.submit", Some(root), request);
        let submitted = self.server.submit(Self::request(q, tq));
        tracer.end(span);
        let answer = match submitted {
            Err(_) => Answer(None),
            Ok(ticket) => {
                let before = self.counts();
                let span = tracer.begin("serve.drain", Some(root), request);
                self.server.drain_n(1);
                tracer.end_with(span, self.counts().since(&before));
                let span = tracer.begin("serve.take", Some(root), request);
                let done = self.collect(ticket);
                tracer.end(span);
                Answer(done)
            }
        };
        tracer.end(root);
        (answer, root)
    }

    /// The same query straight into the tree, skipping the serving layer.
    /// Returns whether it completed and its rows.
    pub fn direct(&self, q: &Query, tq: f64) -> Result<usize, String> {
        let deadline = Deadline::unbounded(self.tree.pool().clock());
        match Self::request(q, tq) {
            Request::Prq { issuer, window, tq } => self
                .tree
                .try_prq_deadline(issuer, &window, tq, &deadline)
                .map(|p| p.value.len())
                .map_err(|e| e.to_string()),
            Request::Pknn { issuer, center, k, tq } => self
                .tree
                .try_pknn_deadline(issuer, center, k, tq, &deadline)
                .map(|p| p.value.len())
                .map_err(|e| e.to_string()),
        }
    }

    /// Send one position report.
    pub fn upsert(&self, u: &Update) -> bool {
        self.tree.index().try_upsert(u.0).is_ok()
    }

    /// Take a checkpoint; returns the pages it flushed.
    pub fn checkpoint(&self) -> usize {
        self.tree.checkpoint()
    }

    fn counts(&self) -> Counts {
        let io = self.tree.pool().stats();
        Counts {
            logical_reads: io.logical_reads,
            physical_io: io.total_io(),
            ticks: self.tree.pool().clock().now(),
        }
    }

    pub fn ledger(&self) -> Ledger {
        let pool = self.tree.pool();
        let (io, locks, faults, wal) =
            (pool.stats(), pool.lock_stats(), pool.fault_stats(), pool.wal_stats());
        let (scans, writes, olc) =
            (self.tree.scan_stats(), self.tree.write_stats(), self.tree.olc_stats());
        let serve = self.server.stats();
        Ledger {
            logical_reads: io.logical_reads,
            physical_reads: io.physical_reads,
            physical_writes: io.physical_writes,
            opt_hits: locks.optimistic_hits,
            opt_retries: locks.optimistic_retries,
            locked_fallbacks: locks.locked_fallbacks,
            lock_acquisitions: locks.lock_acquisitions,
            latch_acquisitions: locks.latch_acquisitions,
            latch_waits: locks.latch_waits,
            descents: scans.descents,
            cached_branch_pages: scans.cached_branch_pages,
            leaf_pages_written: writes.leaf_pages_written,
            olc_restarts: olc.write_restarts + olc.scan_restarts,
            olc_escalations: olc.write_escalations + olc.scan_escalations,
            wal_records: wal.records,
            wal_bytes: wal.bytes,
            wal_page_writes: wal.page_writes,
            wal_flushes: wal.flushes,
            fault_retries: faults.transient_retries,
            quarantines: faults.quarantines,
            serve_submitted: serve.submitted,
            serve_rejected: serve.queue_full + serve.shed + serve.circuit_rejected,
            serve_partial: serve.served_partial,
            serve_failed: serve.failed,
            serve_retries: serve.retries,
            ticks: pool.clock().now(),
        }
    }

    pub fn shape(&self) -> TreeShape {
        let s = self.tree.stats();
        TreeShape {
            height: s.tree.height,
            leaf_pages: s.tree.leaf_pages,
            live_partitions: s.partitions.len(),
        }
    }

    // ---- correctness gate -------------------------------------------------

    /// What a linear scan of the ground truth answers.
    pub fn oracle(&self, q: &Query, tq: f64) -> Vec<u64> {
        let store = &self.ctx.store;
        let ids = match Self::request(q, tq) {
            Request::Prq { issuer, window, tq } => {
                oracle::oracle_prq(&self.truth.users, store, issuer, &window, tq)
            }
            Request::Pknn { issuer, center, k, tq } => {
                oracle::oracle_pknn(&self.truth.users, store, issuer, center, k, tq)
            }
        };
        ids.into_iter().map(|u| u.0).collect()
    }

    /// The privacy invariant: every returned user's policy lets the issuer
    /// see it where the returned record puts it at the query time.
    pub fn privacy_holds(&self, q: &Query, tq: f64, answer: &Answer) -> bool {
        let issuer = match *q {
            Query::Prq { issuer, .. } | Query::Pknn { issuer, .. } => UserId(issuer),
        };
        answer.rows().iter().all(|m| self.ctx.store.permits(m.uid, issuer, &m.position_at(tq), tq))
    }

    /// How many users the index does not hold exactly as the ground truth
    /// has them (read back one by one).
    pub fn read_back_misses(&self) -> usize {
        self.truth
            .users
            .iter()
            .filter(|want| {
                !matches!(self.tree.try_get(want.uid), Ok(Some(got)) if got.t_update == want.t_update)
            })
            .count()
    }

    // ---- durability -------------------------------------------------------

    /// Lose the process: what survives is what the simulated platters hold
    /// right now (resident frames and the unforced log tail are gone), plus
    /// what a restart is given anyway — the privacy context — and the
    /// benchmark's own ground truth.
    pub fn crash(self) -> Crashed {
        let (data, log) = self.tree.pool().harvest_crash_state();
        Crashed {
            data,
            log,
            spec: self.spec,
            space: *self.tree.space(),
            ctx: self.ctx,
            max_speed: self.max_speed,
            truth: self.truth,
        }
    }

    // ---- decomposition replay ---------------------------------------------

    /// Re-run one PRQ step by step through public functions only, one span
    /// per step, all children of `parent`. The steps are the engine's own
    /// (`pebtree::prq`), minus its early exits: friend groups → per live
    /// partition Z-decomposition → key ranges → multi-interval scan →
    /// refinement.
    pub fn replay_prq(
        &self,
        q: &Query,
        tq: f64,
        tracer: &mut Tracer,
        parent: u32,
        request: u32,
    ) -> Result<ReplayFacts, String> {
        let Request::Prq { issuer, window, tq } = Self::request(q, tq) else {
            return Err("replay_prq needs a PRQ".into());
        };
        let tree = &*self.tree;
        let mut facts = ReplayFacts::default();

        let span = tracer.begin("policy.friend_groups", Some(parent), request);
        let groups = tree.context().friend_sv_groups(issuer);
        tracer.end(span);
        facts.friends = groups.iter().map(|(_, members)| members.len()).sum();
        facts.interval_budget =
            peb_costmodel::interval_budget(facts.friends, tree.leaf_page_count());
        if groups.is_empty() {
            return Ok(facts);
        }

        let keys = *tree.key_layout();
        let mut visited = Vec::new();
        for (tid, t_lab) in tree.live_partitions() {
            let span = tracer.begin("zorder.decompose", Some(parent), request);
            let enlarged = tree.enlarge(&window, t_lab, tq);
            let (x0, x1, y0, y1) = tree.space().to_grid_rect(&enlarged);
            let raw = peb_zorder::decompose(x0, x1, y0, y1, tree.space().grid_bits);
            let raw_len = raw.len();
            let zranges = peb_zorder::coarsen(raw, facts.interval_budget);
            tracer.end(span);
            facts.windows += 1;
            facts.ranges_raw += raw_len;
            facts.ranges_kept += zranges.len();

            let span = tracer.begin("core.keys", Some(parent), request);
            let plan: Vec<Vec<(u128, u128)>> = groups
                .iter()
                .map(|(sv, _)| {
                    zranges
                        .iter()
                        .map(|z| (keys.range_start(tid, *sv, z.lo), keys.range_end(tid, *sv, z.hi)))
                        .collect()
                })
                .collect();
            tracer.end(span);
            facts.intervals += plan.iter().map(Vec::len).sum::<usize>();

            let before = self.counts();
            let span = tracer.begin("index.scan", Some(parent), request);
            visited.clear();
            for intervals in &plan {
                tree.index()
                    .try_scan_keys_multi(intervals, |_, rec| {
                        visited.push(rec);
                        true
                    })
                    .map_err(|e| e.to_string())?;
            }
            tracer.end_with(span, self.counts().since(&before));
            facts.candidates += visited.len();

            let span = tracer.begin("core.refine", Some(parent), request);
            let store = &tree.context().store;
            for rec in &visited {
                let uid = UserId(rec.uid);
                if uid == issuer || store.policy(uid, issuer).is_none() {
                    continue;
                }
                let pos = rec.to_moving_point().position_at(tq);
                if window.contains(&pos) && store.permits(uid, issuer, &pos, tq) {
                    facts.results += 1;
                }
            }
            tracer.end(span);
        }
        Ok(facts)
    }

    /// Mean nanoseconds of one `permits` check, over the friends of the
    /// tape's issuers, and how many friends an issuer has on average.
    pub fn probe_policy(&self, sample: &QueryTape, tq: f64) -> (f64, f64) {
        let store = &self.ctx.store;
        let mut pairs: Vec<(UserId, UserId, Point)> = Vec::new();
        for q in &sample.prq {
            let Query::Prq { issuer, .. } = *q else { continue };
            for f in self.ctx.friends.friends(UserId(issuer)) {
                let pos = self.truth.users[f.uid.as_index()].position_at(tq);
                pairs.push((f.uid, UserId(issuer), pos));
            }
        }
        let friends_per_issuer = pairs.len() as f64 / sample.prq.len().max(1) as f64;
        let started = Instant::now();
        let mut permitted = 0usize;
        for (owner, viewer, pos) in &pairs {
            permitted += usize::from(store.permits(*owner, *viewer, pos, tq));
        }
        black_box(permitted);
        let permits_ns = started.elapsed().as_nanos() as f64 / pairs.len().max(1) as f64;
        (permits_ns, friends_per_issuer)
    }

    /// Mean microseconds of one point lookup by user id.
    pub fn probe_get_us(&self, lookups: usize) -> f64 {
        let n = self.truth.len();
        let step = (n / lookups.max(1)).max(1);
        let started = Instant::now();
        let mut found = 0usize;
        let mut done = 0usize;
        for m in self.truth.users.iter().step_by(step) {
            found += usize::from(matches!(self.tree.try_get(m.uid), Ok(Some(_))));
            done += 1;
        }
        black_box(found);
        started.elapsed().as_secs_f64() * 1e6 / done.max(1) as f64
    }

    /// The paper's comparison: the same sampled queries answered by the
    /// filter-after-search baseline (a Bx-tree over the same users, its own
    /// pool of the same size), cold pool, one query at a time.
    pub fn bx_baseline(&self, sample: &QueryTape, tq: f64) -> BxFacts {
        let space = *self.tree.space();
        let pool = Arc::new(BufferPool::new(self.spec.pool_pages));
        let mut bx = SpatialBaseline::new(BxTree::new(pool, space, part(), self.max_speed));
        for m in &self.truth.users {
            bx.upsert(*m);
        }
        let store = &self.ctx.store;
        let run = |queries: &[Query]| -> (f64, f64) {
            let mut us: Vec<f64> = Vec::with_capacity(queries.len());
            let before = bx.pool().stats().total_io();
            for q in queries {
                let started = Instant::now();
                match Self::request(q, tq) {
                    Request::Prq { issuer, window, tq } => {
                        black_box(bx.prq(store, issuer, &window, tq).len());
                    }
                    Request::Pknn { issuer, center, k, tq } => {
                        black_box(bx.pknn(store, issuer, center, k, tq).len());
                    }
                }
                us.push(started.elapsed().as_secs_f64() * 1e6);
            }
            let io = (bx.pool().stats().total_io() - before) as f64 / queries.len().max(1) as f64;
            (if us.is_empty() { 0.0 } else { crate::stats::median(&us) }, io)
        };
        let (prq_us, prq_io_per_q) = run(&sample.prq);
        let (pknn_us, pknn_io_per_q) = run(&sample.pknn);
        BxFacts { prq_us, pknn_us, prq_io_per_q, pknn_io_per_q }
    }
}

/// Median latency and physical I/O per query of the Bx-tree baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct BxFacts {
    pub prq_us: f64,
    pub pknn_us: f64,
    pub prq_io_per_q: f64,
    pub pknn_io_per_q: f64,
}

/// Single layers timed in isolation on scratch instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeFacts {
    pub btree_get_ns: f64,
    pub btree_insert_ns: f64,
    pub btree_multiscan_us: f64,
    pub pool_hit_ns: f64,
    pub pool_miss_us: f64,
    pub disk_read_ns: f64,
    pub disk_write_ns: f64,
    pub seal_ns_per_page: f64,
}

fn per_op(started: Instant, ops: usize, unit_per_s: f64) -> f64 {
    started.elapsed().as_secs_f64() * unit_per_s / ops.max(1) as f64
}

/// Time the public functions of `peb_btree`, the `peb_storage` pool and the
/// simulated disk on instances of their own (`keys` keys in the tree).
pub fn probe_layers(keys: usize) -> ProbeFacts {
    let mut out = ProbeFacts::default();
    let spread = |i: usize| (i as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u128 << 64) - 1);

    // B+-tree over a pool that holds all of it.
    let mut tree: BTree<u64> = BTree::new(Arc::new(BufferPool::new(4096)));
    let started = Instant::now();
    for i in 0..keys {
        let _ = black_box(tree.try_insert(spread(i), i as u64));
    }
    out.btree_insert_ns = per_op(started, keys, 1e9);
    let started = Instant::now();
    for i in 0..keys {
        let _ = black_box(tree.try_get(spread(i)));
    }
    out.btree_get_ns = per_op(started, keys, 1e9);
    // 64 disjoint intervals per scan, each about 16 keys wide.
    let width = ((1u128 << 64) / keys.max(1) as u128) * 16;
    let scans = 200usize;
    let started = Instant::now();
    for s in 0..scans {
        let mut intervals: Vec<(u128, u128)> =
            (0..64).map(|j| spread(s * 64 + j)).map(|lo| (lo, lo.saturating_add(width))).collect();
        intervals.sort_unstable();
        let mut seen = 0usize;
        let _ = tree.try_multi_range_scan(&intervals, |_, _| {
            seen += 1;
            true
        });
        black_box(seen);
    }
    out.btree_multiscan_us = per_op(started, scans, 1e6);

    // Pool: lock-free hits on a resident page, then an LRU cycle twice the
    // capacity, where every read misses.
    let pool = BufferPool::new(8);
    let pids: Vec<_> = (0..16).map(|_| pool.allocate()).collect();
    for (i, pid) in pids.iter().enumerate() {
        let _ = pool.try_write(*pid, |p| p.put_u64(0, i as u64));
    }
    let mut snap = PageSnapshot::new();
    let hot = pids[15];
    let _ = pool.try_read_snapshot(hot, &mut snap);
    let reads = 200_000usize;
    let started = Instant::now();
    for _ in 0..reads {
        let _ = black_box(pool.try_read_snapshot(hot, &mut snap));
    }
    out.pool_hit_ns = per_op(started, reads, 1e9);
    let reads = 20_000usize;
    let started = Instant::now();
    for i in 0..reads {
        let _ = black_box(pool.try_read(pids[i % pids.len()], |p| p.get_u64(0)));
    }
    out.pool_miss_us = per_op(started, reads, 1e6);

    // Simulated disk and the page seal.
    let mut disk = DiskSim::new();
    let pids: Vec<_> = (0..64).map(|_| disk.allocate()).collect();
    let mut page = Page::new();
    page.put_u64(8, 0xDEAD_BEEF);
    let ops = 20_000usize;
    let started = Instant::now();
    for i in 0..ops {
        disk.write(pids[i % pids.len()], &page);
    }
    out.disk_write_ns = per_op(started, ops, 1e9);
    let started = Instant::now();
    for i in 0..ops {
        let _ = black_box(disk.read(pids[i % pids.len()]));
    }
    out.disk_read_ns = per_op(started, ops, 1e9);
    let started = Instant::now();
    for _ in 0..ops {
        black_box(black_box(&page).seal());
    }
    out.seal_ns_per_page = per_op(started, ops, 1e9);
    out
}
