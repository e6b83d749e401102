//! The four workloads and their seeded input generation.
//!
//! Every input is a pure function of `(workload, seed, index)`: request
//! `i` of a stream and its Poisson arrival gap are drawn from a hash of
//! the seed and `i`, so any phase of a run can take any slice of the
//! stream and two runs with one seed send identical frames. Seeds vary
//! the request order, arrival gaps, payloads and operand values; the
//! signatures, sizes and expressions are fixed, so every seed asks for
//! the same work and runs with different seeds are comparable.

use laab_dense::gen::OperandGen;
use laab_expr::eval::Env;
use laab_expr::{var, Context, Expr};
use laab_serve::workload::{Family, Request};
use laab_serve::Dtype;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `chain` + `solve_residual`, n=256, f64, Poisson: the stackable families.
    VecStream,
    /// All six families at small seeded sizes: more signatures than the cache holds.
    ShapeChurn,
    /// In-process egraph compile and execution of a seeded expression set.
    Optimize,
}

/// Fixed per-workload constants. The offered rate and the p99 limit are
/// part of the benchmark's definition: both commits of a comparison run
/// at the same rate against the same limit.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Offered rate of the fixed-rate windows, requests/s: between a fifth
    /// and two fifths of the `max_rate_rps` the commit that defined the
    /// benchmark reached on a 2-vCPU machine, so the windows neither shed
    /// nor queue deeply when neighbours on a shared host take CPU time.
    pub rate_rps: f64,
    /// Client RTT limit the p99 must stay under for a rate to count
    /// towards `max_rate_rps`, microseconds.
    pub p99_limit_us: f64,
    /// Requests kept outstanding in the saturation windows that measure
    /// `max_rate_rps`: enough to keep both executors busy (and, for the
    /// stackable families, the admission windows full), few enough that
    /// the RTT stays far under the p99 limit at the saturated rate.
    pub saturation_inflight: usize,
    /// Size and dtype of the square GEMM anchor the traced run compares
    /// in-pipeline GEMM throughput against.
    pub anchor: (usize, Dtype),
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::VecStream, Workload::ShapeChurn, Workload::Optimize];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VecStream => "vec-stream",
            Workload::ShapeChurn => "shape-churn",
            Workload::Optimize => "optimize",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed constants.
    pub fn spec(self) -> Spec {
        match self {
            Workload::VecStream => Spec {
                rate_rps: 500.0,
                p99_limit_us: 100_000.0,
                saturation_inflight: 16,
                anchor: (256, Dtype::F64),
            },
            Workload::ShapeChurn => Spec {
                rate_rps: 4000.0,
                p99_limit_us: 50_000.0,
                saturation_inflight: 64,
                anchor: (48, Dtype::F64),
            },
            Workload::Optimize => Spec {
                rate_rps: 0.0,
                p99_limit_us: 0.0,
                saturation_inflight: 0,
                anchor: (96, Dtype::F64),
            },
        }
    }
}

/// SplitMix64 finalizer: a bijective avalanche hash of one word.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small counter-based generator over [`mix`].
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for the stream named by `key`.
    pub fn new(key: u64) -> Rng {
        Rng(mix(key))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// `base` scaled by a uniform factor in `[1 - frac, 1 + frac]`,
    /// rounded, at least 2.
    pub fn jitter(&mut self, base: usize, frac: f64) -> usize {
        let f = 1.0 + frac * (2.0 * self.unit() - 1.0);
        ((base as f64 * f).round() as usize).max(2)
    }
}

const REQUEST_TAG: u64 = 0x5245_5155_4553_5400;
const GAP_TAG: u64 = 0x4741_5053_0000_0000;
const SIZES_TAG: u64 = 0x5349_5a45_5300_0000;
const EXPR_TAG: u64 = 0x4558_5052_0000_0000;

const DTYPES: [Dtype; 2] = [Dtype::F64, Dtype::F32];

/// Distinct operand sizes per band in `shape-churn`.
const CHURN_PER_BAND: usize = 2;
/// `shape-churn` size bands covering 8–64.
const CHURN_BANDS: [(usize, usize); 8] =
    [(8, 14), (15, 21), (22, 28), (29, 35), (36, 42), (43, 49), (50, 56), (57, 64)];

/// The request stream of one socket workload under one seed.
#[derive(Debug, Clone)]
pub struct Stream {
    seed: u64,
    /// `vec-stream`: one block of signatures, repeated
    /// ones weighted; every `block.len()` consecutive requests are the
    /// block in a seeded order.
    block: Vec<(Family, usize, Dtype)>,
    /// `shape-churn`: the seeded signature table, hottest first, and the
    /// cumulative Zipf(1) weights over it.
    churn: Vec<(Family, usize, Dtype)>,
    churn_cdf: Vec<f64>,
}

impl Stream {
    /// The stream of `workload` (a socket workload) under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut stream =
            Stream { seed, block: Vec::new(), churn: Vec::new(), churn_cdf: Vec::new() };
        match workload {
            // Three chains to one solver residual: the p50 then lies inside
            // the chain requests' latency, not in the gap between two
            // equally common kinds of request, where it would jump.
            Workload::VecStream => {
                stream.block = [Family::Chain, Family::Chain, Family::Chain, Family::SolveResidual]
                    .map(|f| (f, 256, Dtype::F64))
                    .to_vec();
            }
            Workload::ShapeChurn => {
                stream.churn = churn_table();
                let mut acc = 0.0;
                for k in 0..stream.churn.len() {
                    acc += 1.0 / (k + 1) as f64;
                    stream.churn_cdf.push(acc);
                }
            }
            Workload::Optimize => panic!("optimize has no request stream"),
        }
        stream
    }

    /// Request `i` of the stream. The payload is unique per request, so
    /// vector payloads differ between requests of one signature.
    ///
    /// Blocked workloads send the same mix under every seed: each block of
    /// requests holds every signature of the block once, so the share of
    /// each kind of request does not drift from seed to seed.
    pub fn request(&self, i: u64) -> Request {
        let payload = mix(self.seed.rotate_left(17) ^ i);
        let (family, n, dtype) = if self.block.is_empty() {
            let mut rng = Rng::new(self.seed ^ mix(i ^ REQUEST_TAG));
            let total = *self.churn_cdf.last().expect("non-empty churn table");
            let u = rng.unit() * total;
            let k = self.churn_cdf.partition_point(|&c| c < u).min(self.churn.len() - 1);
            self.churn[k]
        } else {
            let len = self.block.len() as u64;
            let mut order: Vec<usize> = (0..self.block.len()).collect();
            let mut rng = Rng::new(self.seed ^ mix((i / len) ^ REQUEST_TAG));
            for k in (1..order.len()).rev() {
                order.swap(k, rng.below(k + 1));
            }
            self.block[order[(i % len) as usize]]
        };
        Request { family, n, dtype, payload }
    }

    /// The gap before request `i` of a Poisson stream at `rate` req/s.
    pub fn gap_secs(&self, i: u64, rate: f64) -> f64 {
        -Rng::new(self.seed ^ mix(i ^ GAP_TAG)).unit().ln() / rate
    }

    /// Every distinct `(family, n, dtype)` the stream can produce.
    pub fn signatures(&self) -> Vec<(Family, usize, Dtype)> {
        let mut out: Vec<(Family, usize, Dtype)> = Vec::new();
        for &sig in self.block.iter().chain(&self.churn) {
            if !out.contains(&sig) {
                out.push(sig);
            }
        }
        out
    }
}

/// `shape-churn`'s signature table: two sizes per band, every family and
/// dtype, in a shuffled order (the Zipf rank). The table is part of the
/// workload's definition, drawn once from a fixed key: under another seed
/// the hottest signature would be another, and so would the work.
fn churn_table() -> Vec<(Family, usize, Dtype)> {
    let mut rng = Rng::new(SIZES_TAG);
    let mut sizes = Vec::new();
    for (lo, hi) in CHURN_BANDS {
        let width = hi - lo + 1;
        let first = lo + rng.below(width);
        let second = lo + (first - lo + 1 + rng.below(width - 1)) % width;
        sizes.extend([first, second].into_iter().take(CHURN_PER_BAND));
    }
    let mut table = Vec::new();
    for f in Family::ALL {
        for &n in &sizes {
            for d in DTYPES {
                table.push((f, n, d));
            }
        }
    }
    // Fisher–Yates under the seed.
    for i in (1..table.len()).rev() {
        table.swap(i, rng.below(i + 1));
    }
    table
}

/// One expression of the `optimize` workload.
#[derive(Debug, Clone)]
pub struct OptCase {
    /// A readable label (`family@n` or `chainL.pattern`).
    pub label: String,
    /// The expression as a user writes it (left-associated products).
    pub expr: Expr,
    /// Operand shapes.
    pub ctx: Context,
    /// Operand values.
    pub env: Env<f64>,
}

/// Sizes of the serving families in the optimize set.
const OPT_FAMILY_SIZES: [usize; 3] = [24, 64, 160];
/// Chain lengths in the optimize set.
const OPT_CHAIN_LENGTHS: [usize; 4] = [3, 4, 5, 6];
/// Base size of each chain pattern.
const OPT_CHAIN_SIZES: [usize; 8] = [48, 96, 64, 128, 80, 112, 56, 144];

/// The operand dimensions of chain pattern `p` with `len` factors at base
/// size `s`: `len + 1` dims, factor `i` being `dims[i] × dims[i+1]`.
fn chain_dims(p: usize, len: usize, s: usize) -> Vec<usize> {
    let q = (s / 4).max(2);
    (0..=len)
        .map(|i| match p {
            0 => {
                if i == len {
                    1
                } else {
                    s
                }
            } // ends in a vector
            1 => {
                if i == 0 {
                    1
                } else {
                    s
                }
            } // starts with a row vector
            2 => {
                if i % 2 == 0 {
                    s
                } else {
                    q
                }
            } // wide/narrow alternation
            3 => q + (s - q) * i / len, // widening
            4 => s - (s - q) * i / len, // narrowing
            5 => s,                     // square
            6 => {
                if i == len / 2 {
                    4
                } else {
                    s
                }
            } // low-rank middle
            _ => {
                if i == 0 || i == len {
                    1
                } else {
                    s
                }
            } // scalar result
        })
        .collect()
}

/// The `optimize` expression set: the six serving families at three
/// sizes and 32 matrix chains of length 3–6 whose dimensions are jittered
/// within ±6% of fixed bases. The shapes are part of the workload's
/// definition, drawn once from a fixed key; the seed draws the operand
/// values.
pub fn optimize_set(seed: u64) -> Vec<OptCase> {
    let mut rng = Rng::new(EXPR_TAG);
    let mut out = Vec::new();
    for family in Family::ALL {
        for n in OPT_FAMILY_SIZES {
            out.push(OptCase {
                label: format!("{}@{n}", family.id()),
                expr: family.expr(n),
                ctx: family.ctx(n),
                env: family.env::<f64>(n, seed),
            });
        }
    }
    for len in OPT_CHAIN_LENGTHS {
        for (p, &s) in OPT_CHAIN_SIZES.iter().enumerate() {
            let dims: Vec<usize> = chain_dims(p, len, s)
                .into_iter()
                .map(|d| if d <= 4 { d } else { rng.jitter(d, 0.06) })
                .collect();
            let names: Vec<String> = (0..len).map(|i| format!("M{i}")).collect();
            let mut ctx = Context::new();
            let mut env = Env::new();
            let mut g = OperandGen::new(mix(seed ^ mix(out.len() as u64 ^ EXPR_TAG)));
            for (i, name) in names.iter().enumerate() {
                ctx = ctx.with(name, dims[i], dims[i + 1]);
                env.insert(name, g.matrix(dims[i], dims[i + 1]));
            }
            let factors: Vec<Expr> = names.iter().map(|n| var(n)).collect();
            out.push(OptCase {
                label: format!("chain{len}.p{p}{dims:?}"),
                expr: Expr::chain(&factors),
                ctx,
                env,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_streams_send_the_same_mix_under_every_seed() {
        {
            let w = Workload::VecStream;
            let count = |seed: u64| {
                let s = Stream::new(w, seed);
                let mut c: Vec<((Family, usize, Dtype), usize)> = Vec::new();
                for i in 0..480 {
                    let r = s.request(i);
                    let key = (r.family, r.n, r.dtype);
                    match c.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, n)) => *n += 1,
                        None => c.push((key, 1)),
                    }
                }
                c.sort_by_key(|&((f, n, d), _)| (f.id(), n, d.name()));
                c
            };
            assert_eq!(count(1), count(2), "{}", w.name());
        }
        let vec = Stream::new(Workload::VecStream, 3);
        let chains = (0..400).filter(|&i| vec.request(i).family == Family::Chain).count();
        assert_eq!(chains, 300, "three chains to one solver residual");
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for w in [Workload::VecStream, Workload::ShapeChurn] {
            let (a, b, c) = (Stream::new(w, 7), Stream::new(w, 7), Stream::new(w, 8));
            let ra: Vec<Request> = (0..200).map(|i| a.request(i)).collect();
            let rb: Vec<Request> = (0..200).map(|i| b.request(i)).collect();
            let rc: Vec<Request> = (0..200).map(|i| c.request(i)).collect();
            assert_eq!(ra, rb, "{}: same seed, same requests", w.name());
            assert_ne!(ra, rc, "{}: another seed, other requests", w.name());
            assert_eq!(a.gap_secs(3, 100.0), b.gap_secs(3, 100.0));
            let sigs = a.signatures();
            assert!(ra.iter().all(|r| sigs.contains(&(r.family, r.n, r.dtype))));
        }
    }

    #[test]
    fn poisson_gaps_have_the_offered_mean() {
        let s = Stream::new(Workload::VecStream, 1);
        let mean = (0..20_000).map(|i| s.gap_secs(i, 500.0)).sum::<f64>() / 20_000.0;
        assert!((mean * 500.0 - 1.0).abs() < 0.03, "mean gap {mean}");
    }

    #[test]
    fn signatures_do_not_depend_on_the_seed() {
        for w in [Workload::VecStream, Workload::ShapeChurn] {
            assert_eq!(Stream::new(w, 1).signatures(), Stream::new(w, 2).signatures());
        }
    }

    #[test]
    fn shape_churn_overflows_the_default_cache() {
        let s = Stream::new(Workload::ShapeChurn, 3);
        let sigs = s.signatures();
        assert_eq!(sigs.len(), 6 * 8 * CHURN_PER_BAND * 2);
        assert!(sigs.len() > 64, "more signatures than the 64-entry plan cache");
        assert!(sigs.iter().all(|&(_, n, _)| (8..=64).contains(&n)));
        let distinct: std::collections::HashSet<_> =
            (0..5000).map(|i| s.request(i)).map(|r| (r.family, r.n, r.dtype)).collect();
        assert!(distinct.len() > 64, "{} distinct signatures drawn", distinct.len());
    }

    #[test]
    fn optimize_set_is_deterministic_and_well_typed() {
        let a = optimize_set(5);
        let b = optimize_set(5);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.expr, y.expr);
        }
        let c = optimize_set(6);
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.label, y.label, "the shapes do not depend on the seed");
        }
        let values = |set: &[OptCase]| format!("{:?}", set.last().and_then(|c| c.env.get("M0")));
        assert_eq!(values(&a), values(&b));
        assert_ne!(values(&a), values(&c), "another seed, other operand values");
        for case in &a {
            case.expr.try_shape(&case.ctx).unwrap_or_else(|e| panic!("{}: {e}", case.label));
        }
    }
}
