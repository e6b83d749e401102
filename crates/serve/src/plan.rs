//! The compiled plan: optimized graph + schedule, bound to a backend,
//! with its request-invariant products memoized across requests.

use std::any::Any;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use laab_backend::{Backend, BackendId, BackendScalar, Dtype, Registration};
use laab_dense::Matrix;
use laab_expr::eval::Env;
use laab_expr::{Context, Expr};
use laab_framework::Framework;
use laab_graph::passes::dce;
use laab_graph::{
    execute_batched_preset_on, execute_scheduled_on, execute_scheduled_preset_on, BatchAnalysis,
    BatchStatus, Graph, NodeId, OpKind, PassStats, Schedule,
};
use laab_rewrite::{optimize_egraph, CostModel, EgraphConfig};

use crate::signature::OptLevel;

/// What equality saturation did while compiling one plan — recorded only
/// on [`OptLevel::Egraph`] plans (a Passes plan never enters the e-graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgraphReport {
    /// Modeled cost of the extracted expression.
    pub extracted_cost: u64,
    /// Modeled cost of the input expression, same units.
    pub original_cost: u64,
    /// Whether extraction chose a different tree than the input.
    pub changed: bool,
    /// Whether saturation tripped a budget and the plan fell back to the
    /// input expression (counted by the serving report as
    /// `saturation_budget_hits`).
    pub budget_hit: bool,
    /// Saturation rounds run.
    pub iterations: usize,
    /// E-nodes live when saturation stopped.
    pub enodes: usize,
}

/// The extraction cost model, calibrated once per process from the
/// measured `BENCH_gemm.json` curves when present (see
/// [`CostModel::load_or_default`]); the built-in anchors otherwise.
fn serve_cost_model() -> &'static CostModel {
    static MODEL: OnceLock<CostModel> = OnceLock::new();
    MODEL.get_or_init(|| CostModel::load_or_default(std::path::Path::new("BENCH_gemm.json")))
}

/// The frontier values computed from one binding of the key operands.
#[derive(Debug)]
struct Memo<T: BackendScalar> {
    /// The key operands the values were computed from, in
    /// [`Hoist::keys`] order.
    keys: Vec<Arc<Matrix<T>>>,
    /// The frontier values, in [`Hoist::frontier`] order.
    values: Vec<Matrix<T>>,
}

impl<T: BackendScalar> Memo<T> {
    /// Whether `env` binds the memo's key operands: the same storage, or
    /// the same bits. Float `==` is never used, so `-0.0` against `0.0`,
    /// or NaNs with different payloads, miss.
    fn matches(&self, names: &[String], env: &Env<T>) -> bool {
        names.iter().zip(&self.keys).all(|(name, key)| {
            env.get_shared(name).is_some_and(|m| Arc::ptr_eq(m, key) || m.bitwise_eq(key))
        })
    }
}

/// A plan's request-invariant subgraph, computed once and reused while
/// the operands it reads stay the same.
///
/// The *frontier* is every `Shared` (request-invariant) non-input node
/// that feeds a `Stacked` (per-request) node or is fetched as an output:
/// the outermost values that depend on model operands alone. The *keys*
/// are the shared inputs the frontier reads. Executions preset the
/// frontier from the memo when the request binds the same keys, so the
/// nodes only the frontier reads are skipped; a miss computes the
/// frontier's ancestors once and replaces the memo. One memo per dtype,
/// so a plan holds at most one frontier per element type, dropped with
/// the plan.
#[derive(Debug)]
struct Hoist {
    frontier: Vec<NodeId>,
    keys: Vec<String>,
    /// The frontier's ancestors only, fetching the frontier in order.
    graph: Graph,
    schedule: Schedule,
    f64: Mutex<Option<Arc<Memo<f64>>>>,
    f32: Mutex<Option<Arc<Memo<f32>>>>,
}

impl Hoist {
    /// The hoisted frontier of `g` under `batch`, or `None` when no
    /// shared non-input node feeds per-request work. A graph with no
    /// per-request node at all never hoists: memoizing it would cache
    /// whole results, not hoist shared work out of per-request work.
    fn derive(g: &Graph, batch: &BatchAnalysis) -> Option<Hoist> {
        if (0..g.len() as u32).all(|i| batch.status(NodeId(i)) == BatchStatus::Shared) {
            return None;
        }
        let hoistable = |id: NodeId| {
            batch.status(id) == BatchStatus::Shared && !matches!(g.node(id).kind, OpKind::Input(_))
        };
        let mut on_frontier = vec![false; g.len()];
        for (i, node) in g.nodes.iter().enumerate() {
            if batch.status(NodeId(i as u32)) == BatchStatus::Stacked {
                for &inp in node.inputs.iter().filter(|&&inp| hoistable(inp)) {
                    on_frontier[inp.idx()] = true;
                }
            }
        }
        for &out in g.outputs.iter().filter(|&&out| hoistable(out)) {
            on_frontier[out.idx()] = true;
        }
        let frontier: Vec<NodeId> =
            (0..g.len() as u32).map(NodeId).filter(|id| on_frontier[id.idx()]).collect();
        if frontier.is_empty() {
            return None;
        }
        let mut graph = Graph { nodes: g.nodes.clone(), outputs: frontier.clone() };
        dce(&mut graph);
        let keys = graph
            .nodes
            .iter()
            .filter_map(|n| match &n.kind {
                OpKind::Input(name) => Some(name.clone()),
                _ => None,
            })
            .collect();
        let schedule = Schedule::new(&graph);
        Some(Hoist {
            frontier,
            keys,
            graph,
            schedule,
            f64: Mutex::new(None),
            f32: Mutex::new(None),
        })
    }

    fn slot<T: BackendScalar>(&self) -> &Mutex<Option<Arc<Memo<T>>>> {
        let slot: &dyn Any = match T::DTYPE {
            Dtype::F64 => &self.f64,
            Dtype::F32 => &self.f32,
        };
        slot.downcast_ref().expect("the dtype tag names the element type")
    }

    /// The frontier values for a batch whose environments all bind the
    /// same keys, computing and memoizing them from the first on a miss.
    /// `None` for an empty batch, or when a key is unbound or the
    /// environments disagree on one — the caller then runs the plain
    /// sweep, which reports or handles it exactly as it would without the
    /// memo.
    fn memo<T: BackendScalar>(
        &self,
        envs: &[&Env<T>],
        backend: &dyn Backend<T>,
    ) -> Option<Arc<Memo<T>>> {
        let (first, rest) = envs.split_first()?;
        let slot = self.slot::<T>();
        let cached = slot.lock().expect("a memo holder never panics").clone();
        let memo = match cached.filter(|m| m.matches(&self.keys, first)) {
            Some(m) => m,
            None => {
                let keys: Vec<Arc<Matrix<T>>> = self
                    .keys
                    .iter()
                    .map(|k| first.get_shared(k).cloned())
                    .collect::<Option<_>>()?;
                let values = execute_scheduled_on(&self.graph, &self.schedule, first, backend);
                let m = Arc::new(Memo { keys, values });
                *slot.lock().expect("a memo holder never panics") = Some(m.clone());
                m
            }
        };
        rest.iter().all(|env| memo.matches(&self.keys, env)).then_some(memo)
    }
}

/// A compiled, reusable execution plan — the `ConcreteFunction` of the
/// `tf.function` analogy.
///
/// Built once per [`Signature`](crate::Signature) by tracing the
/// expression through the framework's graph mode, running the full
/// optimizer pipeline, and precomputing the execution [`Schedule`]
/// (reference counts + workspace layout). The plan is bound to the
/// execution [`Backend`](laab_backend::Backend) it was compiled for —
/// tracing and optimization are backend-independent, but the cache keys
/// plans per backend so an A/B run never cross-hits. [`Plan::execute`]
/// re-runs the identical sweep with fresh operand bindings: a cache hit
/// pays no tracing, no optimization, and no schedule derivation, and its
/// result is bitwise-identical to a cold trace on the same backend.
///
/// When some operands are declared request-varying, the plan also
/// memoizes its request-invariant products (see
/// [`Plan::hoisted_nodes`]): a request that binds the same model
/// operands as the last one reuses them instead of recomputing them, bit
/// for bit.
#[derive(Debug)]
pub struct Plan {
    graph: Graph,
    schedule: Schedule,
    batch: BatchAnalysis,
    hoist: Option<Hoist>,
    build_secs: f64,
    stats: PassStats,
    backend: &'static Registration,
    egraph: Option<EgraphReport>,
}

impl Plan {
    /// Trace `expr` over the shapes in `ctx` through `fw`'s graph mode,
    /// optimize, and precompute the schedule, binding the plan to
    /// `backend`. This is the full cold-trace cost a cache hit amortizes
    /// away. No operand is declared request-varying, so the plan never
    /// stacks (see [`Plan::compile_with_varying`]).
    pub fn compile(
        fw: &Framework,
        expr: &Expr,
        ctx: &Context,
        backend: &'static Registration,
    ) -> Plan {
        Self::compile_with_varying(fw, expr, ctx, backend, &[])
    }

    /// [`Plan::compile`], additionally declaring which operand names vary
    /// request to request. The compile step runs the batch-stacking shape
    /// analysis ([`laab_graph::BatchAnalysis`]) over the optimized graph,
    /// so [`Plan::execute_batched`] can decide stacked-vs-fallback without
    /// any per-batch analysis cost.
    pub fn compile_with_varying(
        fw: &Framework,
        expr: &Expr,
        ctx: &Context,
        backend: &'static Registration,
        varying: &[&str],
    ) -> Plan {
        Self::compile_opt(fw, expr, ctx, backend, varying, OptLevel::Passes)
    }

    /// [`Plan::compile_with_varying`] through an explicit optimizer level.
    ///
    /// At [`OptLevel::Egraph`] the expression first goes through equality
    /// saturation + cost-based extraction ([`laab_rewrite::optimize_egraph`])
    /// so the framework traces the *normalized* form — `BatchAnalysis`
    /// therefore analyzes the extracted expression, and a rewrite that
    /// turns a GEMM chain into GEMV form changes what stacks. A saturation
    /// budget hit falls back to the input expression (the plan still
    /// compiles; [`Plan::egraph_report`] records the hit). The graph
    /// passes then run as usual on either form.
    ///
    /// With a non-empty `varying` set the compile also derives the
    /// hoisted frontier from the batch analysis ([`Plan::hoisted_nodes`]).
    pub fn compile_opt(
        fw: &Framework,
        expr: &Expr,
        ctx: &Context,
        backend: &'static Registration,
        varying: &[&str],
        opt: OptLevel,
    ) -> Plan {
        let t0 = Instant::now();
        let (expr, egraph) = match opt {
            OptLevel::Passes => (expr.clone(), None),
            OptLevel::Egraph => {
                let cfg = EgraphConfig { cost: *serve_cost_model(), ..Default::default() };
                let r = optimize_egraph(expr, ctx, &cfg);
                let report = EgraphReport {
                    extracted_cost: r.best_cost,
                    original_cost: r.original_cost,
                    changed: r.changed,
                    budget_hit: r.stats.budget_hit,
                    iterations: r.stats.iterations,
                    enodes: r.stats.enodes,
                };
                (r.best, Some(report))
            }
        };
        let function = fw.function_from_expr(&expr, ctx);
        let (graph, _trace_time, stats) = function.into_plan_parts();
        let schedule = Schedule::new(&graph);
        let batch = BatchAnalysis::analyze(&graph, |name| varying.contains(&name));
        let hoist = if varying.is_empty() { None } else { Hoist::derive(&graph, &batch) };
        Plan {
            build_secs: t0.elapsed().as_secs_f64(),
            graph,
            schedule,
            batch,
            hoist,
            stats,
            backend,
            egraph,
        }
    }

    /// Execute the plan against fresh operand bindings, dispatching every
    /// kernel-backed node through the plan's backend. The hoisted
    /// frontier comes from the memo when `env` binds the memo's model
    /// operands (by storage or bit pattern), and is computed and
    /// memoized otherwise; either way the result is bit for bit the
    /// plain sweep's.
    ///
    /// # Panics
    /// When the plan's backend has no entry point for `T` — the serve
    /// harness validates dtype support against the request stream before
    /// any dispatch, so reaching this panic means a caller skipped that
    /// validation.
    pub fn execute<T: BackendScalar>(&self, env: &Env<T>) -> Vec<Matrix<T>> {
        let backend = self.resolve::<T>();
        // The deferred backend is a whole-plan executor, not a per-node
        // kernel set: route through its tape so ops queue and fuse at
        // flush instead of dispatching node by node. It bypasses the
        // memo, so its tape and launch accounting see every op.
        if self.is_deferred() {
            return laab_deferred::execute_plan(&self.graph, &self.schedule, env);
        }
        let memo = self.memo(&[env], backend);
        let preset = self.preset(memo.as_deref());
        execute_scheduled_preset_on(&self.graph, &self.schedule, env, backend, &preset)
    }

    /// Execute the plan once over a batch of operand environments —
    /// coalesced same-signature requests. When the compile-time analysis
    /// proved the plan RHS-stackable, varying products run as one
    /// multi-RHS execution through the plan's backend
    /// ([`laab_backend::Backend::matmul_batched`]); otherwise each
    /// environment executes sequentially, bitwise-identical to
    /// [`Plan::execute`] per request. The hoisted frontier is preset for
    /// the whole batch when every environment binds the memo's model
    /// operands.
    ///
    /// # Panics
    /// As [`Plan::execute`], plus on an empty batch.
    pub fn execute_batched<T: BackendScalar>(&self, envs: &[&Env<T>]) -> Vec<Vec<Matrix<T>>> {
        let backend = self.resolve::<T>();
        if self.is_deferred() && !self.batch.stackable() {
            // Non-stackable batches fall back per request; for the
            // deferred backend that means per-request tapes (with their
            // within-request fusion) rather than per-node dispatches.
            // Stackable batches stay on the batched sweep: the
            // coalesced multi-RHS product reaches the deferred backend's
            // `matmul_batched`, which charges one launch for the whole
            // window — the cross-request granularity of the same fusion.
            return envs
                .iter()
                .map(|env| laab_deferred::execute_plan(&self.graph, &self.schedule, env))
                .collect();
        }
        let memo = if self.is_deferred() { None } else { self.memo(envs, backend) };
        let preset = self.preset(memo.as_deref());
        execute_batched_preset_on(&self.graph, &self.schedule, &self.batch, envs, backend, &preset)
    }

    fn resolve<T: BackendScalar>(&self) -> &'static dyn Backend<T> {
        self.backend.resolve::<T>().unwrap_or_else(|| {
            panic!(
                "backend `{}` has no {} entry point (validate dtype support before dispatch)",
                self.backend.name(),
                T::DTYPE
            )
        })
    }

    fn is_deferred(&self) -> bool {
        self.backend.name() == laab_deferred::BACKEND_NAME
    }

    /// The memoized frontier values for `envs`, when the plan hoists and
    /// every environment binds the same model operands.
    fn memo<T: BackendScalar>(
        &self,
        envs: &[&Env<T>],
        backend: &dyn Backend<T>,
    ) -> Option<Arc<Memo<T>>> {
        self.hoist.as_ref()?.memo(envs, backend)
    }

    /// The hoisted frontier bound to `memo`'s values (nothing preset
    /// without a memo).
    fn preset<'m, T: BackendScalar>(
        &self,
        memo: Option<&'m Memo<T>>,
    ) -> Vec<(NodeId, &'m Matrix<T>)> {
        memo.map_or_else(Vec::new, |m| {
            self.hoisted_nodes().iter().copied().zip(&m.values).collect()
        })
    }

    /// The request-invariant nodes whose values the plan memoizes across
    /// executions: the `Shared` non-input nodes that feed a `Stacked`
    /// node or are fetched as outputs. Empty when nothing hoists, and
    /// always for a plan with no per-request node (in particular one
    /// compiled with no varying operand): the whole plan reads as
    /// invariant there, and memoizing it would cache results instead of
    /// hoisting shared work.
    pub fn hoisted_nodes(&self) -> &[NodeId] {
        self.hoist.as_ref().map_or(&[], |h| &h.frontier)
    }

    /// Whether the compile-time shape analysis proved batched executions
    /// of this plan can column-stack (`false` means batches take the
    /// bitwise per-request fallback).
    pub fn stackable(&self) -> bool {
        self.batch.stackable()
    }

    /// The compile-time batch-stacking analysis.
    pub fn batch_analysis(&self) -> &BatchAnalysis {
        &self.batch
    }

    /// The backend this plan is bound to.
    pub fn backend(&self) -> BackendId {
        self.backend.id()
    }

    /// The optimized graph (inspection, DOT export).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The precomputed execution schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Wall-clock seconds the compile took (trace + optimize + schedule) —
    /// the per-signature cost the cache amortizes.
    pub fn build_secs(&self) -> f64 {
        self.build_secs
    }

    /// What the optimizer pipeline did during compilation.
    pub fn pass_stats(&self) -> PassStats {
        self.stats
    }

    /// What equality saturation did, for plans compiled at
    /// [`OptLevel::Egraph`]; `None` on Passes-level plans.
    pub fn egraph_report(&self) -> Option<EgraphReport> {
        self.egraph
    }

    /// Peak intermediate workspace one in-flight execution needs, in
    /// bytes, for element type `T` (see
    /// [`Schedule::peak_live_elems`]).
    pub fn workspace_bytes<T: laab_dense::Scalar>(&self) -> usize {
        self.schedule.workspace_bytes::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_backend::registry;
    use laab_dense::gen::OperandGen;
    use laab_expr::var;

    #[test]
    fn plan_matches_function_call_bitwise() {
        let n = 12;
        let fw = Framework::flow();
        let s = var("A").t() * var("B");
        let expr = s.clone().t() * s;
        let ctx = Context::new().with("A", n, n).with("B", n, n);
        let mut g = OperandGen::new(91);
        let env = Env::<f64>::new().with("A", g.matrix(n, n)).with("B", g.matrix(n, n));

        let cold = fw.function_from_expr(&expr, &ctx).call(&env);
        let plan = Plan::compile(&fw, &expr, &ctx, registry::default_backend());
        // Two executions of the same plan, and the cold trace: all equal,
        // bit for bit (the default backend IS the cold-trace engine).
        assert_eq!(plan.execute(&env), cold);
        assert_eq!(plan.execute(&env), cold);
        assert!(plan.build_secs() > 0.0);
        assert_eq!(plan.backend(), laab_backend::BackendId::ENGINE);
        // CSE fired during compilation: one shared AᵀB.
        assert_eq!(plan.graph().matmul_count(), 2);
        assert!(plan.pass_stats().nodes_deduped >= 1);
    }

    #[test]
    fn per_backend_plans_execute_their_backend() {
        let n = 10;
        let fw = Framework::flow();
        let expr = var("A") * var("B");
        let ctx = Context::new().with("A", n, n).with("B", n, n);
        let mut g = OperandGen::new(17);
        let env = Env::<f64>::new().with("A", g.matrix(n, n)).with("B", g.matrix(n, n));
        let engine = Plan::compile(&fw, &expr, &ctx, registry::find("engine").unwrap());
        let reference = Plan::compile(&fw, &expr, &ctx, registry::find("reference").unwrap());
        assert_eq!(engine.backend().name(), "engine");
        assert_eq!(reference.backend().name(), "reference");
        let e = engine.execute(&env);
        let r = reference.execute(&env);
        // Same graph, different kernels: tight approx, FMA-level drift.
        assert!(e[0].approx_eq(&r[0], 1e-13));
    }

    #[test]
    #[should_panic(expected = "no f64 entry point")]
    fn unsupported_dtype_panics_with_a_named_backend() {
        static F32_ONLY: laab_backend::Registration = laab_backend::Registration::new(
            "plan-test-f32-only",
            "f32-only backend for the dtype-support panic test",
            Some(&laab_backend::EngineBackend),
            None,
        );
        // Registration not required for Plan use; the registry is about
        // name lookup, and this plan is handed its backend directly.
        let n = 4;
        let fw = Framework::flow();
        let expr = var("A") * var("B");
        let ctx = Context::new().with("A", n, n).with("B", n, n);
        let plan = Plan::compile(&fw, &expr, &ctx, &F32_ONLY);
        let mut g = OperandGen::new(3);
        let env = Env::<f64>::new().with("A", g.matrix(n, n)).with("B", g.matrix(n, n));
        let _ = plan.execute(&env);
    }

    #[test]
    fn batched_execution_matches_solo_and_respects_varying() {
        let n = 12;
        let fw = Framework::flow();
        let expr = var("H").t() * (var("H") * var("x"));
        let ctx = Context::new().with("H", n, n).with("x", n, 1);
        let plan =
            Plan::compile_with_varying(&fw, &expr, &ctx, registry::default_backend(), &["x"]);
        assert!(plan.stackable(), "chain with varying RHS must stack");
        assert_eq!(plan.batch_analysis().len(), plan.graph().len());

        let mut g = OperandGen::new(5);
        let h = g.matrix::<f64>(n, n);
        let envs: Vec<Env<f64>> = (0..6)
            .map(|i| {
                let mut pg = OperandGen::new(100 + i);
                Env::new().with("H", h.clone()).with("x", pg.matrix(n, 1))
            })
            .collect();
        let refs: Vec<&Env<f64>> = envs.iter().collect();
        let batched = plan.execute_batched(&refs);
        assert_eq!(batched.len(), envs.len());
        for (env, b) in envs.iter().zip(&batched) {
            let solo = plan.execute(env);
            assert!(b[0].approx_eq(&solo[0], 1e-12), "batched drifted from solo");
        }

        // Without a varying declaration the same expression never stacks:
        // batched execution falls back per request, bitwise.
        let plain = Plan::compile(&fw, &expr, &ctx, registry::default_backend());
        assert!(!plain.stackable());
        let fallback = plain.execute_batched(&refs);
        for (env, b) in envs.iter().zip(&fallback) {
            assert_eq!(b, &plain.execute(env));
        }
    }

    #[test]
    fn egraph_opt_normalizes_before_batch_analysis() {
        // The Chain family as the serving loop submits it: (HᵀH)x, with x
        // request-varying. The pass pipeline keeps the association, so the
        // leading HᵀH GEMM survives; the e-graph level extracts Hᵀ(Hx)
        // *before* tracing, so BatchAnalysis sees two stackable GEMVs.
        let n = 32;
        let fw = Framework::flow();
        let expr = (var("H").t() * var("H")) * var("x");
        let ctx = Context::new().with("H", n, n).with("x", n, 1);
        let passes = Plan::compile_opt(
            &fw,
            &expr,
            &ctx,
            registry::default_backend(),
            &["x"],
            OptLevel::Passes,
        );
        let egraph = Plan::compile_opt(
            &fw,
            &expr,
            &ctx,
            registry::default_backend(),
            &["x"],
            OptLevel::Egraph,
        );
        assert!(passes.egraph_report().is_none());
        let report = egraph.egraph_report().expect("egraph plans carry a report");
        assert!(report.changed, "reassociation discovered");
        assert!(!report.budget_hit);
        assert!(report.extracted_cost < report.original_cost);

        // Same math, different plan: both stack, and results agree tightly
        // (the rewrite reorders floating-point accumulation).
        assert!(passes.stackable() && egraph.stackable());
        let mut g = OperandGen::new(23);
        let env = Env::<f64>::new().with("H", g.matrix(n, n)).with("x", g.matrix(n, 1));
        let a = passes.execute(&env);
        let b = egraph.execute(&env);
        assert!(a[0].approx_eq(&b[0], 1e-11), "opt levels must agree numerically");
    }

    #[test]
    fn egraph_opt_is_identity_when_nothing_cheaper_exists() {
        // SolveResidual's Hᵀ(y − Hx) is already optimal: the egraph plan
        // must execute bitwise-identically to the passes plan.
        let n = 16;
        let fw = Framework::flow();
        let expr = var("H").t() * (var("y") - var("H") * var("x"));
        let ctx = Context::new().with("H", n, n).with("x", n, 1).with("y", n, 1);
        let passes = Plan::compile(&fw, &expr, &ctx, registry::default_backend());
        let egraph =
            Plan::compile_opt(&fw, &expr, &ctx, registry::default_backend(), &[], OptLevel::Egraph);
        let report = egraph.egraph_report().unwrap();
        assert!(!report.changed, "ties keep the input form");
        let mut g = OperandGen::new(77);
        let env = Env::<f64>::new()
            .with("H", g.matrix(n, n))
            .with("x", g.matrix(n, 1))
            .with("y", g.matrix(n, 1));
        assert_eq!(passes.execute(&env), egraph.execute(&env), "unchanged extraction is bitwise");
    }

    #[test]
    fn workspace_layout_is_dtype_scaled() {
        let n = 10;
        let fw = Framework::flow();
        let expr = var("A") * var("B");
        let ctx = Context::new().with("A", n, n).with("B", n, n);
        let plan = Plan::compile(&fw, &expr, &ctx, registry::default_backend());
        assert_eq!(plan.workspace_bytes::<f64>(), 2 * plan.workspace_bytes::<f32>());
        assert_eq!(plan.schedule().peak_live_elems(), n * n);
    }
}
