//! Seeded tapes: the queries and position reports a pass replays.
//!
//! A tape is plain data made from the seed alone, by a generator that lives
//! here, so the same seed gives byte-identical tapes whatever the engine
//! does. Every pass of a workload replays the identical tape, which is what
//! makes percentiles comparable across passes and commits.

/// SplitMix64: small, fast, and good enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream of `seed`; tapes of one run use different
    /// `stream` numbers so that lengthening one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        (self.unit() * n as f64) as u64
    }
}

/// One query of a tape. The query time is not part of the tape: a static
/// workload supplies a constant, `mixed` the writer's current time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Who inside the square `[xl, xl+side] × [yl, yl+side]` may `issuer` see?
    Prq { issuer: u64, xl: f64, yl: f64, side: f64 },
    /// The `k` users nearest `(x, y)` that `issuer` may see.
    Pknn { issuer: u64, x: f64, y: f64, k: usize },
}

#[cfg(test)]
impl Query {
    fn push_bytes(&self, out: &mut Vec<u8>) {
        match *self {
            Query::Prq { issuer, xl, yl, side } => {
                out.push(0);
                out.extend_from_slice(&issuer.to_le_bytes());
                for v in [xl, yl, side] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Query::Pknn { issuer, x, y, k } => {
                out.push(1);
                out.extend_from_slice(&issuer.to_le_bytes());
                for v in [x, y] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(&(k as u64).to_le_bytes());
            }
        }
    }
}

/// The shape of a query tape.
#[derive(Debug, Clone, Copy)]
pub struct QueryTapeSpec {
    pub users: u64,
    pub space_side: f64,
    pub prq: usize,
    pub pknn: usize,
    pub window_side: f64,
    pub k: usize,
}

/// A PRQ segment followed by a PkNN segment. The kinds are kept apart so
/// that counter deltas can be attributed to one kind.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTape {
    pub prq: Vec<Query>,
    pub pknn: Vec<Query>,
}

impl QueryTape {
    pub fn generate(seed: u64, spec: &QueryTapeSpec) -> QueryTape {
        let mut rng = Rng::new(seed, 1);
        let side = spec.window_side.min(spec.space_side);
        let prq = (0..spec.prq)
            .map(|_| Query::Prq {
                issuer: rng.below(spec.users),
                xl: rng.unit() * (spec.space_side - side),
                yl: rng.unit() * (spec.space_side - side),
                side,
            })
            .collect();
        let mut rng = Rng::new(seed, 2);
        let pknn = (0..spec.pknn)
            .map(|_| Query::Pknn {
                issuer: rng.below(spec.users),
                x: rng.unit() * spec.space_side,
                y: rng.unit() * spec.space_side,
                k: spec.k,
            })
            .collect();
        QueryTape { prq, pknn }
    }

    pub fn len(&self) -> usize {
        self.prq.len() + self.pknn.len()
    }

    /// Every `step`-th query of each segment: the sample the correctness
    /// gate and the traced replay work on.
    pub fn sample(&self, per_kind: usize) -> QueryTape {
        let pick = |v: &[Query]| -> Vec<Query> {
            let step = (v.len() / per_kind.max(1)).max(1);
            v.iter().step_by(step).take(per_kind).copied().collect()
        };
        QueryTape { prq: pick(&self.prq), pknn: pick(&self.pknn) }
    }

    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for q in self.prq.iter().chain(&self.pknn) {
            q.push_bytes(&mut out);
        }
        out
    }
}

/// One position report of a tape: which user reports and the velocity it
/// reports. Its position is wherever its previous report puts it at the
/// time the report is made, so the tape does not depend on the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    pub uid: u64,
    pub vx: f64,
    pub vy: f64,
}

/// `count` reports, round-robin over the users starting at `first_uid`, each
/// with a fresh velocity of uniform direction and a speed below `max_speed`.
pub fn move_tape(seed: u64, users: u64, first_uid: u64, count: usize, max_speed: f64) -> Vec<Move> {
    let mut rng = Rng::new(seed, 3);
    (0..count as u64)
        .map(|i| {
            let angle = rng.unit() * std::f64::consts::TAU;
            // Strictly below the declared maximum, whatever the rounding.
            let speed = rng.unit() * max_speed * 0.999;
            Move { uid: (first_uid + i) % users, vx: speed * angle.cos(), vy: speed * angle.sin() }
        })
        .collect()
}

#[cfg(test)]
pub fn moves_to_bytes(moves: &[Move]) -> Vec<u8> {
    let mut out = Vec::with_capacity(moves.len() * 24);
    for m in moves {
        out.extend_from_slice(&m.uid.to_le_bytes());
        out.extend_from_slice(&m.vx.to_le_bytes());
        out.extend_from_slice(&m.vy.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: QueryTapeSpec = QueryTapeSpec {
        users: 500,
        space_side: 1000.0,
        prq: 64,
        pknn: 48,
        window_side: 200.0,
        k: 5,
    };

    #[test]
    fn same_seed_gives_byte_identical_tapes() {
        let a = QueryTape::generate(7, &SPEC);
        let b = QueryTape::generate(7, &SPEC);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(
            moves_to_bytes(&move_tape(7, 500, 3, 200, 3.0)),
            moves_to_bytes(&move_tape(7, 500, 3, 200, 3.0))
        );
    }

    #[test]
    fn different_seeds_give_different_tapes() {
        assert_ne!(
            QueryTape::generate(7, &SPEC).to_bytes(),
            QueryTape::generate(8, &SPEC).to_bytes()
        );
        assert_ne!(
            moves_to_bytes(&move_tape(7, 500, 0, 200, 3.0)),
            moves_to_bytes(&move_tape(8, 500, 0, 200, 3.0))
        );
    }

    #[test]
    fn queries_stay_inside_the_space_and_the_user_range() {
        let t = QueryTape::generate(11, &SPEC);
        assert_eq!((t.prq.len(), t.pknn.len(), t.len()), (64, 48, 112));
        for q in t.prq.iter().chain(&t.pknn) {
            match *q {
                Query::Prq { issuer, xl, yl, side } => {
                    assert!(issuer < 500 && side == 200.0);
                    assert!(xl >= 0.0 && xl + side <= 1000.0 && yl >= 0.0 && yl + side <= 1000.0);
                }
                Query::Pknn { issuer, x, y, k } => {
                    assert!(issuer < 500 && k == 5);
                    assert!((0.0..1000.0).contains(&x) && (0.0..1000.0).contains(&y));
                }
            }
        }
    }

    #[test]
    fn a_longer_tape_extends_a_shorter_one() {
        let short = QueryTape::generate(5, &SPEC);
        let long = QueryTape::generate(5, &QueryTapeSpec { prq: 128, pknn: 96, ..SPEC });
        assert_eq!(long.prq[..64], short.prq[..]);
        assert_eq!(long.pknn[..48], short.pknn[..]);
    }

    #[test]
    fn moves_are_round_robin_and_below_the_speed_limit() {
        let moves = move_tape(1, 10, 7, 25, 3.0);
        for (i, m) in moves.iter().enumerate() {
            assert_eq!(m.uid, (7 + i as u64) % 10);
            assert!(m.vx.hypot(m.vy) < 3.0);
        }
    }

    #[test]
    fn sample_takes_evenly_spaced_queries() {
        let t = QueryTape::generate(3, &SPEC);
        let s = t.sample(16);
        assert_eq!((s.prq.len(), s.pknn.len()), (16, 16));
        assert_eq!(s.prq[1], t.prq[4]);
        assert_eq!(s.pknn[1], t.pknn[3]);
        // Asking for more than there is returns everything.
        assert_eq!(t.sample(1000), t);
    }
}
