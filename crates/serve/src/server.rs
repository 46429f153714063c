//! The query executor: bounded admission, deadline stamping, retries,
//! breakers, and a deterministic event ledger.
//!
//! [`QueryServer`] wraps an [`Arc<PebTree>`] and serves PRQ / PkNN
//! requests through the overload pipeline:
//!
//! 1. **Admission** — [`QueryServer::submit`] offers the request to the
//!    bounded [`AdmissionQueue`]; the [`DropPolicy`] decides who loses
//!    when it is full, and every loss is a typed [`Rejected`], never a
//!    silent drop. The query's deadline is stamped **here**: budget ticks
//!    from the submission instant, so time spent queued behind other work
//!    eats the budget exactly like time spent scanning — that is what
//!    makes shedding matter.
//! 2. **Execution** — [`QueryServer::drain`] (deterministic, caller
//!    thread, admission order) or [`QueryServer::serve_concurrently`]
//!    (a thread pool over the same queue) pops queries and runs them
//!    through the deadline-checked engines ([`PebTree::try_prq_deadline`]
//!    / [`PebTree::try_pknn_deadline`]). Expired budgets degrade to
//!    typed [`Partial`] answers; they do not fail.
//! 3. **Retry** — a query that dies on a *transient* fault re-runs after
//!    a deterministic jittered backoff on the virtual clock
//!    ([`RetryPolicy`]); permanent faults fail immediately.
//! 4. **Breakers** — per-shard [`CircuitBreaker`]s fed by query outcomes
//!    and the pool's [`peb_storage::FaultStats`] delta fast-fail queries aimed at a
//!    failing shard ([`Rejected::CircuitOpen`]).
//!
//! Everything observable lands on the [`Ledger`]: admission, shedding,
//! retries, breaker transitions, completions — each stamped with the
//! virtual-clock tick. Under [`QueryServer::drain`] the ledger is
//! **byte-identical across runs** for a fixed seed and workload, which is
//! what the chaos harness diffs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use peb_common::{clock::TickClock, Deadline, MovingPoint, Point, Rect, Timestamp, UserId};
use peb_index::IndexError;
use pebtree::{Partial, PebTree};

use crate::admission::{AdmissionQueue, Admit, DropPolicy, Priority};
use crate::breaker::{Admission, BreakerConfig, CircuitBreaker, Transition};
use crate::error::{Rejected, ServeError};
use crate::retry::RetryPolicy;

/// A query to serve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Privacy-aware range query: who inside `window` at `tq` is visible
    /// to `issuer`?
    Prq {
        /// The querying user.
        issuer: UserId,
        /// The spatial window.
        window: Rect,
        /// The query time.
        tq: Timestamp,
    },
    /// Privacy-aware k-nearest-neighbors: the `k` users nearest `center`
    /// at `tq` visible to `issuer`.
    Pknn {
        /// The querying user.
        issuer: UserId,
        /// The query point.
        center: Point,
        /// How many neighbors.
        k: usize,
        /// The query time.
        tq: Timestamp,
    },
}

impl Request {
    /// The query timestamp (shard attribution and ledger lines).
    pub fn tq(&self) -> Timestamp {
        match self {
            Request::Prq { tq, .. } | Request::Pknn { tq, .. } => *tq,
        }
    }
}

/// A served answer: always typed-complete or typed-partial, never
/// silently truncated.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Range-query answer.
    Prq(Partial<Vec<MovingPoint>>),
    /// kNN answer (candidates with distances).
    Pknn(Partial<Vec<(MovingPoint, f64)>>),
}

impl Response {
    /// Whether the answer is exactly what the unloaded query would return.
    pub fn is_complete(&self) -> bool {
        match self {
            Response::Prq(p) => p.is_complete(),
            Response::Pknn(p) => p.is_complete(),
        }
    }

    /// Result rows delivered.
    pub fn rows(&self) -> usize {
        match self {
            Response::Prq(p) => p.value.len(),
            Response::Pknn(p) => p.value.len(),
        }
    }

    /// Per-partition completeness tags.
    pub fn partitions(&self) -> &[(u8, bool)] {
        match self {
            Response::Prq(p) => &p.partitions,
            Response::Pknn(p) => &p.partitions,
        }
    }
}

/// One finished submission: the ticket [`QueryServer::submit`] returned
/// and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The ticket of the submission.
    pub ticket: u64,
    /// Served answer or typed failure.
    pub result: Result<Response, ServeError>,
}

/// Executor tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Who loses when the queue is full.
    pub drop_policy: DropPolicy,
    /// Deadline budget in virtual-clock ticks stamped at admission
    /// (`u64::MAX` = effectively unbounded).
    pub deadline_budget: u64,
    /// Query-level retry for transient faults.
    pub retry: RetryPolicy,
    /// Per-shard circuit breakers (`None` disables them).
    pub breaker: Option<BreakerConfig>,
    /// Seed for the deterministic retry jitter.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            drop_policy: DropPolicy::RejectNew,
            deadline_budget: u64::MAX,
            retry: RetryPolicy::default(),
            breaker: Some(BreakerConfig::default()),
            seed: 0x5EED,
        }
    }
}

/// Aggregate outcome counters (deterministic for a fixed seed + workload
/// under [`QueryServer::drain`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submissions offered to the queue.
    pub submitted: u64,
    /// Admissions (including ones later shed).
    pub admitted: u64,
    /// New arrivals refused with [`Rejected::QueueFull`].
    pub queue_full: u64,
    /// Admitted queries later evicted with [`Rejected::Shed`].
    pub shed: u64,
    /// Queries fast-failed with [`Rejected::CircuitOpen`].
    pub circuit_rejected: u64,
    /// Queries served with a complete answer.
    pub served_complete: u64,
    /// Queries served with an explicitly partial answer.
    pub served_partial: u64,
    /// Queries that failed on an unresolvable fault (after retries).
    pub failed: u64,
    /// Query-level retry attempts executed.
    pub retries: u64,
}

impl ServeStats {
    /// Completed useful work: complete plus explicitly-partial answers.
    pub fn goodput(&self) -> u64 {
        self.served_complete + self.served_partial
    }
}

/// One ledger line: a typed event at a virtual-clock tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// Virtual-clock tick the event was recorded at.
    pub tick: u64,
    /// What happened.
    pub event: Event,
}

/// Everything the serving layer does that is worth replay-diffing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A submission entered the queue.
    Admitted {
        /// Ticket of the submission.
        ticket: u64,
        /// Its priority class.
        class: Priority,
        /// Its home shard (rotating time partition id).
        shard: u8,
        /// Absolute expiry tick stamped at admission.
        deadline_at: u64,
    },
    /// A submission was refused outright.
    QueueFull {
        /// Ticket of the refused submission.
        ticket: u64,
    },
    /// A queued query was evicted to admit a newer one.
    Shed {
        /// Ticket of the victim.
        ticket: u64,
    },
    /// A query fast-failed on an open breaker.
    CircuitRejected {
        /// Ticket of the fast-failed query.
        ticket: u64,
        /// The open shard.
        shard: u8,
        /// When the next probe becomes admissible.
        retry_at: u64,
    },
    /// Execution began.
    Started {
        /// Ticket now executing.
        ticket: u64,
    },
    /// A transient failure triggered a backed-off re-run.
    Retried {
        /// Ticket being retried.
        ticket: u64,
        /// 0-based retry attempt.
        attempt: u32,
        /// Backoff ticks slept on the virtual clock.
        backoff: u64,
    },
    /// A query completed with an answer.
    Served {
        /// Ticket served.
        ticket: u64,
        /// Whether the answer is complete.
        complete: bool,
        /// Result rows delivered.
        rows: usize,
    },
    /// A query failed after exhausting its options.
    Failed {
        /// Ticket that failed.
        ticket: u64,
        /// The error it failed with.
        error: IndexError,
    },
    /// A shard's breaker opened.
    BreakerOpened {
        /// The tripped shard.
        shard: u8,
        /// When its probe becomes admissible.
        probe_at: u64,
    },
    /// A shard's breaker let its half-open probe through.
    BreakerHalfOpen {
        /// The probing shard.
        shard: u8,
    },
    /// A shard's breaker closed after a successful probe.
    BreakerClosed {
        /// The recovered shard.
        shard: u8,
    },
}

impl std::fmt::Display for LedgerEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>10}] ", self.tick)?;
        match self.event {
            Event::Admitted { ticket, class, shard, deadline_at } => {
                write!(
                    f,
                    "t{ticket:05} admitted class={class:?} shard={shard} deadline={deadline_at}"
                )
            }
            Event::QueueFull { ticket } => write!(f, "t{ticket:05} rejected queue-full"),
            Event::Shed { ticket } => write!(f, "t{ticket:05} shed"),
            Event::CircuitRejected { ticket, shard, retry_at } => {
                write!(f, "t{ticket:05} rejected circuit-open shard={shard} retry-at={retry_at}")
            }
            Event::Started { ticket } => write!(f, "t{ticket:05} started"),
            Event::Retried { ticket, attempt, backoff } => {
                write!(f, "t{ticket:05} retry attempt={attempt} backoff={backoff}")
            }
            Event::Served { ticket, complete, rows } => {
                write!(f, "t{ticket:05} served complete={complete} rows={rows}")
            }
            Event::Failed { ticket, error } => write!(f, "t{ticket:05} failed: {error}"),
            Event::BreakerOpened { shard, probe_at } => {
                write!(f, "breaker shard={shard} opened probe-at={probe_at}")
            }
            Event::BreakerHalfOpen { shard } => write!(f, "breaker shard={shard} half-open"),
            Event::BreakerClosed { shard } => write!(f, "breaker shard={shard} closed"),
        }
    }
}

/// The append-only event history.
pub type Ledger = Vec<LedgerEntry>;

/// One admitted work item.
#[derive(Debug)]
struct Admitted {
    ticket: u64,
    req: Request,
    shard: u8,
    deadline_at: u64,
}

/// The overload-robust query executor. See the module docs for the
/// pipeline.
pub struct QueryServer {
    tree: Arc<PebTree>,
    cfg: ServerConfig,
    clock: TickClock,
    queue: Mutex<AdmissionQueue<Admitted>>,
    breaker: Option<CircuitBreaker>,
    ledger: Mutex<Ledger>,
    completions: Mutex<Vec<Completion>>,
    stats: Mutex<ServeStats>,
    next_ticket: AtomicU64,
}

impl QueryServer {
    /// A server over `tree`, sharing the tree's virtual clock (the one
    /// the buffer pool advances per page access and the latency injector
    /// adds bursts to).
    pub fn new(tree: Arc<PebTree>, cfg: ServerConfig) -> Self {
        let clock = tree.pool().clock().clone();
        QueryServer {
            tree,
            cfg,
            clock,
            queue: Mutex::new(AdmissionQueue::new(cfg.queue_capacity, cfg.drop_policy)),
            breaker: cfg.breaker.map(CircuitBreaker::new),
            ledger: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            stats: Mutex::new(ServeStats::default()),
            next_ticket: AtomicU64::new(0),
        }
    }

    /// The virtual clock deadlines and backoffs run on.
    pub fn clock(&self) -> &TickClock {
        &self.clock
    }

    /// The tree being served.
    pub fn tree(&self) -> &Arc<PebTree> {
        &self.tree
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    fn log(&self, event: Event) {
        self.ledger.lock().unwrap().push(LedgerEntry { tick: self.clock.now(), event });
    }

    /// Submit at default ([`Priority::High`]) priority.
    pub fn submit(&self, req: Request) -> Result<u64, Rejected> {
        self.submit_with(req, Priority::High)
    }

    /// Offer one query. `Ok(ticket)` means admitted — its completion will
    /// eventually appear under that ticket (possibly as a later
    /// [`Rejected::Shed`]). `Err` is immediate typed backpressure; no
    /// completion record is produced for it.
    pub fn submit_with(&self, req: Request, class: Priority) -> Result<u64, Rejected> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now();
        let shard = self.tree.partitioning().partition_of_update(req.tq());
        {
            let mut stats = self.stats.lock().unwrap();
            stats.submitted += 1;
        }

        // Submission-time fast-fail: an open breaker inside its cooldown
        // refuses the query before it occupies a queue slot.
        if let Some(b) = &self.breaker {
            if let Some(retry_at) = b.peek_open(shard, now) {
                self.log(Event::CircuitRejected { ticket, shard, retry_at });
                self.stats.lock().unwrap().circuit_rejected += 1;
                return Err(Rejected::CircuitOpen { shard, retry_at });
            }
        }

        let deadline_at = now.saturating_add(self.cfg.deadline_budget);
        let item = Admitted { ticket, req, shard, deadline_at };
        let verdict = self.queue.lock().unwrap().offer(class, item);
        match verdict {
            Admit::Admitted => {
                self.log(Event::Admitted { ticket, class, shard, deadline_at });
                self.stats.lock().unwrap().admitted += 1;
                Ok(ticket)
            }
            Admit::AdmittedShedding(victim) => {
                self.log(Event::Shed { ticket: victim.ticket });
                self.log(Event::Admitted { ticket, class, shard, deadline_at });
                {
                    let mut stats = self.stats.lock().unwrap();
                    stats.admitted += 1;
                    stats.shed += 1;
                }
                self.completions.lock().unwrap().push(Completion {
                    ticket: victim.ticket,
                    result: Err(ServeError::Rejected(Rejected::Shed)),
                });
                Ok(ticket)
            }
            Admit::Rejected => {
                self.log(Event::QueueFull { ticket });
                self.stats.lock().unwrap().queue_full += 1;
                Err(Rejected::QueueFull { capacity: self.cfg.queue_capacity })
            }
        }
    }

    /// Execute everything queued on the **caller's** thread, in admission
    /// (or priority) order. This is the deterministic mode: for a fixed
    /// seed and submission sequence the resulting ledger is byte-identical
    /// across runs.
    pub fn drain(&self) {
        self.drain_n(usize::MAX);
    }

    /// Execute at most `quantum` queued queries on the caller's thread,
    /// in admission (or priority) order — one scheduling round of a
    /// server that interleaves service with new arrivals. Returns how
    /// many queries actually ran. [`QueryServer::drain`] is
    /// `drain_n(usize::MAX)`; the same determinism guarantee applies.
    pub fn drain_n(&self, quantum: usize) -> usize {
        let mut served = 0usize;
        while served < quantum {
            let next = self.queue.lock().unwrap().pop();
            match next {
                Some(adm) => {
                    self.run_one(adm);
                    served += 1;
                }
                None => break,
            }
        }
        served
    }

    /// Execute everything queued on `workers` pool threads sharing the
    /// queue. Returns when the queue is empty and all in-flight queries
    /// finished. Outcomes are the same set as [`QueryServer::drain`]
    /// would produce query-by-query; only interleaving (and therefore
    /// ledger order) varies.
    pub fn serve_concurrently(&self, workers: usize) {
        let workers = workers.max(1);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let next = self.queue.lock().unwrap().pop();
                    match next {
                        Some(adm) => self.run_one(adm),
                        None => break,
                    }
                });
            }
        });
    }

    fn run_one(&self, adm: Admitted) {
        // Execution-time breaker gate: transitions (probe admission)
        // happen here, where the outcome that resolves them is guaranteed
        // to follow.
        if let Some(b) = &self.breaker {
            match b.admit(adm.shard, self.clock.now()) {
                Admission::FastFail { probe_at } => {
                    self.log(Event::CircuitRejected {
                        ticket: adm.ticket,
                        shard: adm.shard,
                        retry_at: probe_at,
                    });
                    self.stats.lock().unwrap().circuit_rejected += 1;
                    self.completions.lock().unwrap().push(Completion {
                        ticket: adm.ticket,
                        result: Err(ServeError::Rejected(Rejected::CircuitOpen {
                            shard: adm.shard,
                            retry_at: probe_at,
                        })),
                    });
                    return;
                }
                Admission::Probe => self.log(Event::BreakerHalfOpen { shard: adm.shard }),
                Admission::Proceed => {}
            }
        }

        self.log(Event::Started { ticket: adm.ticket });
        let deadline = Deadline::at(&self.clock, adm.deadline_at);
        let mut attempt = 0u32;
        let result = loop {
            let faults_before = self.tree.pool().fault_stats().surfaced_errors;
            let res = match adm.req {
                Request::Prq { issuer, window, tq } => {
                    self.tree.try_prq_deadline(issuer, &window, tq, &deadline).map(Response::Prq)
                }
                Request::Pknn { issuer, center, k, tq } => self
                    .tree
                    .try_pknn_deadline(issuer, center, k, tq, &deadline)
                    .map(Response::Pknn),
            };
            match res {
                Ok(resp) => {
                    // A query that succeeded *after* surfacing faults to
                    // retries still counts against the shard's health.
                    let surfaced = self.tree.pool().fault_stats().surfaced_errors > faults_before;
                    self.record_breaker(adm.shard, surfaced);
                    break Ok(resp);
                }
                Err(e) => {
                    if RetryPolicy::is_transient(&e)
                        && attempt < self.cfg.retry.max_retries
                        && !deadline.expired()
                    {
                        let backoff =
                            self.cfg.retry.backoff_ticks(self.cfg.seed, adm.ticket, attempt);
                        self.clock.advance(backoff);
                        self.log(Event::Retried { ticket: adm.ticket, attempt, backoff });
                        self.stats.lock().unwrap().retries += 1;
                        attempt += 1;
                        continue;
                    }
                    self.record_breaker(adm.shard, true);
                    break Err(e);
                }
            }
        };

        match result {
            Ok(resp) => {
                let complete = resp.is_complete();
                self.log(Event::Served { ticket: adm.ticket, complete, rows: resp.rows() });
                {
                    let mut stats = self.stats.lock().unwrap();
                    if complete {
                        stats.served_complete += 1;
                    } else {
                        stats.served_partial += 1;
                    }
                }
                self.completions
                    .lock()
                    .unwrap()
                    .push(Completion { ticket: adm.ticket, result: Ok(resp) });
            }
            Err(e) => {
                self.log(Event::Failed { ticket: adm.ticket, error: e });
                self.stats.lock().unwrap().failed += 1;
                self.completions
                    .lock()
                    .unwrap()
                    .push(Completion { ticket: adm.ticket, result: Err(ServeError::Query(e)) });
            }
        }
    }

    fn record_breaker(&self, shard: u8, failed: bool) {
        if let Some(b) = &self.breaker {
            if let Some(t) = b.record(shard, self.clock.now(), failed) {
                self.log(match t {
                    Transition::Opened { shard, probe_at } => {
                        Event::BreakerOpened { shard, probe_at }
                    }
                    Transition::HalfOpened { shard } => Event::BreakerHalfOpen { shard },
                    Transition::Closed { shard } => Event::BreakerClosed { shard },
                });
            }
        }
    }

    /// Take (and clear) the accumulated completions.
    pub fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut self.completions.lock().unwrap())
    }

    /// Snapshot the outcome counters.
    pub fn stats(&self) -> ServeStats {
        *self.stats.lock().unwrap()
    }

    /// Snapshot the event ledger.
    pub fn ledger(&self) -> Ledger {
        self.ledger.lock().unwrap().clone()
    }

    /// Render the ledger as text — one line per event, stable format.
    /// Under [`QueryServer::drain`] this is byte-identical across runs
    /// for a fixed seed and submission sequence.
    pub fn ledger_text(&self) -> String {
        let ledger = self.ledger.lock().unwrap();
        let mut out = String::new();
        for entry in ledger.iter() {
            out.push_str(&entry.to_string());
            out.push('\n');
        }
        out
    }

    /// Queued-but-not-yet-executed queries.
    pub fn queued(&self) -> usize {
        self.queue.lock().unwrap().len()
    }
}
