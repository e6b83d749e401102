//! Correctness of every served response.
//!
//! * A request the server executed on its own — occupancy 1, or a family
//!   whose plan does not stack, which falls back to per-request execution
//!   — must match an in-process solo execution on the same backend
//!   bitwise: the response checksum equals the oracle's.
//! * A request served from a stacked (multi-RHS) batch drifts from its
//!   solo result at FMA-chain level, so its checksum cannot be compared.
//!   The stacked path is checked in-process instead: served requests are
//!   regrouped into batches of their reported occupancy, executed
//!   stacked on the engine, and compared with the `reference` backend
//!   within the batched bounds of `laab-graph`'s property tests
//!   (relative distance 1e-11 for f64, 1e-4 for f32).
//!
//! Operands come from the server's own pool seed, so the oracle binds
//! exactly the values the server bound.

use std::collections::HashMap;

use laab_backend::{registry, BackendScalar, Registration};
use laab_dense::Matrix;
use laab_expr::eval::Env;
use laab_framework::Framework;
use laab_serve::workload::{Family, Request};
use laab_serve::{Dtype, Plan, PlanCache, ServeConfig};

use crate::driver::Served;

/// Most stacked batches regrouped and probed per [`Oracle::verify`] call
/// and per oracle: a probe runs the `reference` backend, which is slow at
/// serving sizes, so it samples the stacked path rather than covering it.
const PROBES_PER_CALL: usize = 4;
const PROBES_PER_ORACLE: usize = 48;

/// The batched-execution bound for dtype `T` (relative distance).
fn stacked_tol<T: BackendScalar>() -> f64 {
    if T::DTYPE == Dtype::F32 {
        1e-4
    } else {
        1e-11
    }
}

/// What the check found.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// Responses compared bitwise with the solo oracle.
    pub bitwise: u64,
    /// Stacked responses covered by the in-process stacked probe.
    pub stacked: u64,
    /// Stacked batches probed against the reference backend.
    pub probes: u64,
    /// Mismatches, with a description of each.
    pub mismatches: Vec<String>,
}

impl Verdict {
    /// Add the verdict of another batch of responses.
    pub fn absorb(&mut self, o: Verdict) {
        self.bitwise += o.bitwise;
        self.stacked += o.stacked;
        self.probes += o.probes;
        self.mismatches.extend(o.mismatches);
    }
}

/// In-process solo and stacked oracles with the server's operand pools.
pub struct Oracle {
    fw: Framework,
    engine: &'static Registration,
    reference: &'static Registration,
    cache: PlanCache,
    pools64: HashMap<(Family, usize), Env<f64>>,
    pools32: HashMap<(Family, usize), Env<f32>>,
    memo: HashMap<(Family, usize, Dtype), u64>,
    pool_seed: u64,
    probes_left: usize,
}

impl Oracle {
    /// An oracle for a server running `cfg`.
    pub fn new(cfg: &ServeConfig) -> Oracle {
        Oracle {
            fw: Framework::flow(),
            engine: registry::default_backend(),
            reference: registry::find("reference").expect("built-in reference backend"),
            cache: PlanCache::with_shards(1024, 8),
            pools64: HashMap::new(),
            pools32: HashMap::new(),
            memo: HashMap::new(),
            pool_seed: cfg.seed,
            probes_left: PROBES_PER_ORACLE,
        }
    }

    fn plan(&self, req: &Request, reg: &'static Registration) -> std::sync::Arc<Plan> {
        self.cache
            .get_or_compile(req.signature(reg.id()), || {
                Plan::compile_with_varying(
                    &self.fw,
                    &req.family.expr(req.n),
                    &req.family.ctx(req.n),
                    reg,
                    req.family.varying_operands(),
                )
            })
            .0
    }

    /// Whether the server's plan for `req` stacks batched executions.
    pub fn stackable(&self, req: &Request) -> bool {
        self.plan(req, self.engine).stackable()
    }

    /// Checksum of `req` executed solo on the engine, as the server
    /// executes an occupancy-1 batch.
    pub fn solo_checksum(&mut self, req: &Request) -> u64 {
        // Only families without payload operands repeat a result; a payload
        // family's request is unique, so memoizing it would only grow.
        let memoize = req.family.payload_operands().is_empty();
        let key = (req.family, req.n, req.dtype);
        if let Some(&c) = self.memo.get(&key).filter(|_| memoize) {
            return c;
        }
        let plan = self.plan(req, self.engine);
        let seed = self.pool_seed;
        let c = match req.dtype {
            Dtype::F64 => {
                let pool = pool(&mut self.pools64, req, seed);
                laab_serve::proto::result_checksum(&plan.execute(&req.env_from_pool(pool, seed)))
            }
            Dtype::F32 => {
                let pool = pool(&mut self.pools32, req, seed);
                laab_serve::proto::result_checksum(&plan.execute(&req.env_from_pool(pool, seed)))
            }
        };
        if memoize {
            self.memo.insert(key, c);
        }
        c
    }

    /// Execute `batch` stacked on the engine and per item on the
    /// reference backend; an error names the first item out of bounds.
    pub fn stacked_probe(&mut self, batch: &[Request]) -> Result<(), String> {
        let req0 = batch[0];
        let (engine, reference) = (self.plan(&req0, self.engine), self.plan(&req0, self.reference));
        let seed = self.pool_seed;
        match req0.dtype {
            Dtype::F64 => {
                let pool = pool(&mut self.pools64, &req0, seed).clone();
                probe(&engine, &reference, &pool, batch, seed)
            }
            Dtype::F32 => {
                let pool = pool(&mut self.pools32, &req0, seed).clone();
                probe(&engine, &reference, &pool, batch, seed)
            }
        }
    }

    /// Check every served response (see the module docs).
    pub fn verify(&mut self, served: &[Served]) -> Verdict {
        let mut v = Verdict::default();
        let mut stacked: Vec<&Served> = Vec::new();
        for s in served {
            if s.occupancy >= 2 && self.stackable(&s.request) {
                stacked.push(s);
                continue;
            }
            v.bitwise += 1;
            let want = self.solo_checksum(&s.request);
            if want != s.checksum {
                v.mismatches.push(format!(
                    "request {} ({} n={} {}): checksum {:#x}, solo oracle {:#x}",
                    s.index,
                    s.request.family.id(),
                    s.request.n,
                    s.request.dtype.name(),
                    s.checksum,
                    want
                ));
            }
        }
        v.stacked = stacked.len() as u64;
        // Regroup stacked responses per signature, in stream order, into
        // batches of the occupancy the server reported.
        stacked.sort_by_key(|s| s.index);
        let mut groups: HashMap<(Family, usize, Dtype), Vec<&Served>> = HashMap::new();
        for s in stacked {
            groups.entry((s.request.family, s.request.n, s.request.dtype)).or_default().push(s);
        }
        let mut keys: Vec<_> = groups.keys().copied().collect();
        keys.sort_by_key(|&(f, n, d)| (f.id(), n, d.name()));
        let budget = PROBES_PER_CALL.min(self.probes_left);
        let per_key = budget.div_ceil(keys.len().max(1));
        for key in keys {
            let items = &groups[&key];
            let mut at = 0;
            for _ in 0..per_key {
                if at >= items.len() || self.probes_left == 0 {
                    break;
                }
                let occ = (items[at].occupancy as usize).min(items.len() - at).max(1);
                let batch: Vec<Request> = items[at..at + occ].iter().map(|s| s.request).collect();
                at += occ;
                if batch.len() < 2 {
                    continue;
                }
                v.probes += 1;
                self.probes_left -= 1;
                if let Err(e) = self.stacked_probe(&batch) {
                    v.mismatches.push(e);
                }
            }
        }
        v
    }
}

fn pool<'a, T: BackendScalar>(
    pools: &'a mut HashMap<(Family, usize), Env<T>>,
    req: &Request,
    seed: u64,
) -> &'a Env<T> {
    pools.entry((req.family, req.n)).or_insert_with(|| req.family.env::<T>(req.n, seed))
}

fn probe<T: BackendScalar>(
    engine: &Plan,
    reference: &Plan,
    pool: &Env<T>,
    batch: &[Request],
    seed: u64,
) -> Result<(), String> {
    let envs: Vec<Env<T>> = batch.iter().map(|r| r.env_from_pool(pool, seed)).collect();
    let refs: Vec<&Env<T>> = envs.iter().collect();
    let got = engine.execute_batched::<T>(&refs);
    let want = reference.execute_batched::<T>(&refs);
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        for (a, b) in g.iter().zip(w) {
            let d = rel(a, b);
            if d > stacked_tol::<T>() {
                let r = batch[k];
                return Err(format!(
                    "stacked {} n={} {} batch of {}: item {k} relative distance {d:e} to the \
                     reference backend exceeds {:e}",
                    r.family.id(),
                    r.n,
                    r.dtype.name(),
                    batch.len(),
                    stacked_tol::<T>()
                ));
            }
        }
    }
    Ok(())
}

/// Relative distance of two results (`NaN`-safe: a shape mismatch or a
/// non-finite value reads as infinitely far).
pub fn rel<T: laab_dense::Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> f64 {
    if a.shape() != b.shape() {
        return f64::INFINITY;
    }
    let d = a.rel_dist(b);
    if d.is_finite() {
        d
    } else {
        f64::INFINITY
    }
}
