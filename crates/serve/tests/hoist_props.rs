//! Property suite for request-invariant hoisting: a plan that memoizes
//! its request-invariant frontier must return, bit for bit, what the
//! plain (un-hoisted) sweep returns — on a memo hit, on a miss, solo and
//! batched — for every request family, both dtypes and the three
//! synchronous backends. The memo must hit only on operands with the
//! same bits (the same storage, or a copy of it) and miss on anything
//! else, including the values float `==` cannot tell apart.

use std::sync::Arc;

use laab_backend::{registry, BackendScalar, Registration};
use laab_dense::gen::OperandGen;
use laab_dense::Matrix;
use laab_expr::eval::Env;
use laab_framework::Framework;
use laab_graph::{execute_batched_on, execute_scheduled_on, OpKind};
use laab_kernels::counters;
use laab_serve::workload::{Family, Request};
use laab_serve::{Dtype, OptLevel, Plan};
use proptest::prelude::*;

const BACKENDS: [&str; 3] = ["engine", "seed", "reference"];

/// NaN construction per element type (a NaN's payload does not survive
/// a round trip through the other precision).
trait Nan: BackendScalar {
    fn nan(payload: u32) -> Self;
}

impl Nan for f64 {
    fn nan(payload: u32) -> f64 {
        f64::from_bits(0x7ff8_0000_0000_0000 | u64::from(payload))
    }
}

impl Nan for f32 {
    fn nan(payload: u32) -> f32 {
        f32::from_bits(0x7fc0_0000 | payload)
    }
}

/// The varying sets a plan is compiled under: the family's own, plus
/// each operand alone — which turns the other operands into model
/// operands and so exercises frontiers the served families never have
/// (`AB` in `AB + AC` with `C` varying, `Hx` in `Hᵀ(y − Hx)` with `y`
/// varying), on stackable and fallback plans alike.
fn varying_sets(family: Family, n: usize) -> Vec<Vec<String>> {
    let mut sets = vec![family.varying_operands().iter().map(|s| s.to_string()).collect()];
    sets.extend(family.ctx(n).names().map(|name| vec![name.to_string()]));
    sets
}

/// The shared operands the plan's hoisted frontier reads.
fn key_names(plan: &Plan) -> Vec<String> {
    let g = plan.graph();
    let mut stack = plan.hoisted_nodes().to_vec();
    let mut seen = vec![false; g.len()];
    let mut names = Vec::new();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut seen[id.idx()], true) {
            continue;
        }
        match &g.node(id).kind {
            OpKind::Input(name) => names.push(name.clone()),
            _ => stack.extend(g.node(id).inputs.iter().copied()),
        }
    }
    names.sort();
    names
}

/// A request env: the pool's operands shared, the varying ones re-drawn.
fn request_env<T: BackendScalar>(
    pool: &Env<T>,
    family: Family,
    n: usize,
    varying: &[String],
    seed: u64,
) -> Env<T> {
    let mut env = pool.clone();
    let ctx = family.ctx(n);
    let mut g = OperandGen::new(seed);
    for name in varying {
        let shape = ctx.expect(name).shape;
        env.insert(name, g.matrix(shape.rows, shape.cols));
    }
    env
}

/// `env` with element `(0, 0)` of operand `name` replaced by `v` (a new
/// allocation; the other bindings stay shared).
fn with_corner<T: BackendScalar>(env: &Env<T>, name: &str, v: T) -> Env<T> {
    let mut m = env.expect(name).clone();
    m[(0, 0)] = v;
    let mut out = env.clone();
    out.insert(name, m);
    out
}

fn bitwise<T: BackendScalar>(a: &[Matrix<T>], b: &[Matrix<T>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bitwise_eq(y))
}

struct Case<'a> {
    plan: Plan,
    reg: &'static Registration,
    family: Family,
    varying: &'a [String],
}

impl Case<'_> {
    /// The plain sweep's result for `env`.
    fn plain<T: BackendScalar>(&self, env: &Env<T>) -> Vec<Matrix<T>> {
        let backend = self.reg.resolve::<T>().expect("built-in backends serve both dtypes");
        execute_scheduled_on(self.plan.graph(), self.plan.schedule(), env, backend)
    }

    /// Execute `env` through the plan, checking the result against the
    /// plain sweep bit for bit, and return whether the memo was hit —
    /// observed as fewer kernel calls than the plain sweep makes (every
    /// frontier here holds a product). `None` on the reference backend,
    /// whose kernels record no calls.
    fn run<T: BackendScalar>(&self, env: &Env<T>) -> Result<Option<bool>, TestCaseError> {
        let (want, plain) = counters::measure(|| self.plain(env));
        let (got, hoisted) = counters::measure(|| self.plan.execute(env));
        prop_assert!(
            bitwise(&got, &want),
            "{} {:?} hoisted != plain",
            self.family.id(),
            self.varying
        );
        if self.reg.name() == "reference" {
            return Ok(None);
        }
        prop_assert!(hoisted.total_calls() <= plain.total_calls());
        Ok(Some(hoisted.total_calls() < plain.total_calls()))
    }
}

fn check_family<T: Nan>(family: Family, n: usize, seed: u64) -> Result<(), TestCaseError> {
    let fw = Framework::flow();
    let (expr, ctx) = (family.expr(n), family.ctx(n));
    let pool = family.env::<T>(n, seed);
    for varying in varying_sets(family, n) {
        let names: Vec<&str> = varying.iter().map(String::as_str).collect();
        for backend in BACKENDS {
            let reg = registry::find(backend).expect("built-in backend");
            let plan = Plan::compile_with_varying(&fw, &expr, &ctx, reg, &names);
            let case = Case { plan, reg, family, varying: &varying };
            let hoists = !case.plan.hoisted_nodes().is_empty();
            let env = |k: u64| request_env(&pool, family, n, &varying, seed ^ (k << 40));

            // First request misses and fills the memo; the next requests
            // share the pool's operands and hit.
            let first = case.run(&env(1))?;
            prop_assert!(first != Some(true), "a cold memo cannot hit");
            for k in 2..4 {
                let hit = case.run(&env(k))?;
                prop_assert!(hit.is_none_or(|hit| hit == hoists), "{} {:?}", family.id(), varying);
            }

            // Batched: every item bit for bit the plain batched sweep, on
            // a memo hit (the pool's operands) and after a fresh miss.
            let owned: Vec<Env<T>> = (10..14).map(env).collect();
            let refs: Vec<&Env<T>> = owned.iter().collect();
            let backend_t = reg.resolve::<T>().expect("built-in backends serve both dtypes");
            let want = execute_batched_on(
                case.plan.graph(),
                case.plan.schedule(),
                case.plan.batch_analysis(),
                &refs,
                backend_t,
            );
            let got = case.plan.execute_batched(&refs);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!(bitwise(g, w), "{} {:?} batched hit", family.id(), varying);
            }

            for key in key_names(&case.plan) {
                let base = env(20);
                // A changed model operand misses and recomputes...
                let bumped = with_corner(&base, &key, base.expect(&key)[(0, 0)] + T::ONE);
                prop_assert!(case.run(&bumped)?.is_none_or(|hit| !hit), "changed `{}` hit", key);
                // ...and a distinct allocation of the same bits hits.
                let copy = with_corner(&bumped, &key, bumped.expect(&key)[(0, 0)]);
                let (a, b) = (copy.get_shared(&key).unwrap(), bumped.get_shared(&key).unwrap());
                prop_assert!(!Arc::ptr_eq(a, b));
                prop_assert!(
                    case.run(&copy)?.is_none_or(|hit| hit),
                    "equal bits of `{}` missed",
                    key
                );

                // Values float `==` equates (or never equates) are told
                // apart by their bits: signed zeros and NaN payloads.
                let pairs = [(T::ZERO, -T::ZERO), (-T::ZERO, T::ZERO), (T::nan(1), T::nan(2))];
                for (first, second) in pairs {
                    case.run(&with_corner(&base, &key, first))?;
                    let again = case.run(&with_corner(&base, &key, first))?;
                    prop_assert!(again.is_none_or(|hit| hit), "same bits of `{}` missed", key);
                    let other = case.run(&with_corner(&base, &key, second))?;
                    prop_assert!(
                        other.is_none_or(|hit| !hit),
                        "`{}`: {:?} hit {:?}",
                        key,
                        second,
                        first
                    );
                }

                // A batch that disagrees on a model operand presets
                // nothing, and still matches the plain batched sweep.
                let mixed = [&base, &bumped];
                let want = execute_batched_on(
                    case.plan.graph(),
                    case.plan.schedule(),
                    case.plan.batch_analysis(),
                    &mixed,
                    backend_t,
                );
                let got = case.plan.execute_batched(&mixed);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(bitwise(g, w), "{} mixed batch", family.id());
                }
            }

            // After a miss the batched path refills and still matches.
            let got = case.plan.execute_batched(&refs);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!(bitwise(g, w), "{} {:?} batched refill", family.id(), varying);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The bitwise contract and the memo's hit/miss rule, for every
    /// family under every varying set, both dtypes, three backends.
    #[test]
    fn hoisting_is_bitwise_and_keyed_on_bits(seed in any::<u64>(), n in 3usize..20) {
        for family in Family::ALL {
            check_family::<f64>(family, n, seed)?;
            check_family::<f32>(family, n, seed)?;
        }
    }

    /// A plan with no varying operand — every `Plan::compile`, and every
    /// plan the optimizer workload compiles — never hoists, at either
    /// optimizer level.
    #[test]
    fn plans_without_varying_operands_never_hoist(seed in any::<u64>(), n in 3usize..20) {
        let fw = Framework::flow();
        for family in Family::ALL {
            let (expr, ctx) = (family.expr(n), family.ctx(n));
            let pool = family.env::<f64>(n, seed);
            for backend in BACKENDS {
                let reg = registry::find(backend).expect("built-in backend");
                for opt in [OptLevel::Passes, OptLevel::Egraph] {
                    let plan = Plan::compile_opt(&fw, &expr, &ctx, reg, &[], opt);
                    prop_assert!(plan.hoisted_nodes().is_empty(), "{} {:?}", family.id(), opt);
                    let backend_t = reg.resolve::<f64>().unwrap();
                    let want = execute_scheduled_on(plan.graph(), plan.schedule(), &pool, backend_t);
                    prop_assert!(bitwise(&plan.execute(&pool), &want));
                }
            }
        }
    }
}

/// The served families hoist exactly where the frontier rule says: the
/// chain's `HᵀH` (a shared GEMM feeding the stacked product) and nothing
/// in the others, whose shared nodes are all inputs.
#[test]
fn served_families_hoist_only_the_chain_gram() {
    let fw = Framework::flow();
    let n = 16;
    for family in Family::ALL {
        let plan = Plan::compile_with_varying(
            &fw,
            &family.expr(n),
            &family.ctx(n),
            registry::default_backend(),
            family.varying_operands(),
        );
        if family == Family::Chain {
            let [id] = plan.hoisted_nodes() else { panic!("chain hoists one node") };
            assert!(matches!(plan.graph().node(*id).kind, OpKind::MatMul { .. }));
            assert_eq!(key_names(&plan), ["H"]);
        } else {
            assert!(plan.hoisted_nodes().is_empty(), "{}", family.id());
        }
    }
}

/// A request stream as the server binds it (`env_from_pool`) hits the
/// memo on every request after the first.
#[test]
fn pooled_requests_hit_after_the_first() {
    let n = 24;
    let fw = Framework::flow();
    let family = Family::Chain;
    let reg = registry::default_backend();
    let plan = Plan::compile_with_varying(
        &fw,
        &family.expr(n),
        &family.ctx(n),
        reg,
        family.varying_operands(),
    );
    let pool = family.env::<f64>(n, 5);
    let case = Case { plan, reg, family, varying: &[] };
    for payload in 0..4 {
        let req = Request { family, n, dtype: Dtype::F64, payload };
        let hit = case.run(&req.env_from_pool(&pool, 5)).expect("bitwise");
        assert_eq!(hit, Some(payload > 0), "payload {payload}");
    }
}

/// The `deferred` backend bypasses the memo: every execution of a
/// stackable chain batch tapes the shared `HᵀH` product again, so its
/// tape, fusion and launch accounting match the counts from before
/// hoisting existed — the second batch included, where a memo hit would
/// have dropped an op.
#[test]
fn deferred_tape_counts_are_untouched_by_hoisting() {
    let reg = laab_deferred::ensure_registered();
    let fw = Framework::flow();
    let (family, n) = (Family::Chain, 48);
    let plan = Plan::compile_with_varying(
        &fw,
        &family.expr(n),
        &family.ctx(n),
        reg,
        family.varying_operands(),
    );
    assert!(plan.stackable());
    let pool = family.env::<f64>(n, 9);
    let envs: Vec<Env<f64>> = (0..4)
        .map(|payload| Request { family, n, dtype: Dtype::F64, payload }.env_from_pool(&pool, 9))
        .collect();
    let refs: Vec<&Env<f64>> = envs.iter().collect();
    let _ = laab_deferred::take_run_stats();
    let counts = |s: laab_deferred::RunStats| {
        (s.tape_ops, s.groups, s.fused_ops, s.unfused_ops, s.flushes())
    };
    for _ in 0..2 {
        let _ = plan.execute_batched(&refs);
        assert_eq!(counts(laab_deferred::take_run_stats()), (5, 2, 4, 1, 0), "batch of 4");
    }
    let _ = plan.execute(refs[0]);
    assert_eq!(counts(laab_deferred::take_run_stats()), (2, 2, 0, 2, 1), "solo");
}
