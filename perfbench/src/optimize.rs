//! The `optimize` workload: cold egraph compiles of a seeded expression
//! set through `Plan::compile_opt`, then execution of the chosen plans.
//!
//! The extraction cost model is read from `BENCH_gemm.json` in the
//! working directory when one is there. The benchmark runs from a
//! directory it owns, which holds no such file, so the built-in model is
//! the one measured; which model was loaded is recorded with every run.

use std::time::{Duration, Instant};

use laab_backend::{registry, Registration};
use laab_expr::eval::eval;
use laab_framework::Framework;
use laab_graph::{BatchAnalysis, Schedule};
use laab_rewrite::{egraph_rules, extract_best, saturate, CostModel, EGraph, EgraphConfig};
use laab_serve::{OptLevel, Plan};

use crate::gen::{mix, OptCase, Rng};
use crate::pipeline::Layers;
use crate::stats::{median, spearman, speed_probe_us, speed_scale, Pair, Timed};
use crate::traced;

/// Builds of the expression set per run; the median of the quiet ones is
/// reported as `setup_s`.
pub const SETUP_REPS: usize = 7;
/// Share of each round the closed loop takes; a compile pass and an
/// execution pass over every expression take the rest.
const LOOP_SHARE: f64 = 0.35;
/// Timed executions per plan in the traced run: at least this many...
const MIN_EXEC_REPS: usize = 5;
/// ...and at least this long in total, up to [`MAX_EXEC_REPS`].
const MIN_EXEC_TIME: Duration = Duration::from_millis(3);
const MAX_EXEC_REPS: usize = 200;
/// Relative bound of an engine result against `eval` when extraction
/// rewrote the expression (f64, `egraph_diff_props`).
const EVAL_TOL: f64 = 1e-11;

/// Which extraction cost model the process loaded.
pub fn cost_model() -> (CostModel, &'static str) {
    let path = std::path::Path::new("BENCH_gemm.json");
    let model = CostModel::load_or_default(path);
    let source = if !path.exists() {
        "built-in default (no BENCH_gemm.json in the benchmark's run directory)"
    } else if model == CostModel::default() {
        "built-in default (BENCH_gemm.json present but unparsed)"
    } else {
        "BENCH_gemm.json in the benchmark's run directory"
    };
    (model, source)
}

/// What the untraced run measured; times and rates as measured and at
/// the reference machine's speed.
#[derive(Debug, Default)]
pub struct OptOut {
    /// Median cold compile per expression, µs.
    pub compile_us: Vec<Pair>,
    /// Median execution per compiled plan, µs.
    pub run_us: Vec<Pair>,
    /// Per-call latency of the closed loop over all plans (a uniform
    /// sample of the calls), µs.
    pub call_us: Timed,
    /// Calls per second of those loops: each thread's median over rounds,
    /// summed over threads.
    pub call_rate: Pair,
    /// Speed probes over the run, µs.
    pub probe_us: Vec<f64>,
    /// Expressions whose plan disagreed with `eval`.
    pub mismatches: Vec<String>,
}

fn median_exec(plan: &Plan, case: &OptCase) -> f64 {
    let mut times = Vec::new();
    let t_all = Instant::now();
    while times.len() < MAX_EXEC_REPS
        && (times.len() < MIN_EXEC_REPS || t_all.elapsed() < MIN_EXEC_TIME)
    {
        let t = Instant::now();
        std::hint::black_box(plan.execute::<f64>(&case.env));
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&mut times)
}

fn compile(fw: &Framework, case: &OptCase, reg: &'static Registration, opt: OptLevel) -> Plan {
    Plan::compile_opt(fw, &case.expr, &case.ctx, reg, &[], opt)
}

/// Check a plan's result against the unoptimized `eval` oracle.
fn check(plan: &Plan, case: &OptCase) -> Option<String> {
    let got = plan.execute::<f64>(&case.env);
    let want = eval(&case.expr, &case.env);
    let d = got.first().map_or(f64::INFINITY, |g| crate::check::rel(g, &want));
    (d > EVAL_TOL).then(|| {
        format!("optimize {}: relative distance {d:e} to eval exceeds {EVAL_TOL:e}", case.label)
    })
}

/// One measuring thread's samples.
struct ThreadOut {
    compile_us: Vec<Pair>,
    run_us: Vec<Pair>,
    call_us: Timed,
    /// Calls per second of the closed loop in each round.
    round_rate: Timed,
    /// Speed probe of each round, µs.
    probe_us: Vec<f64>,
    mismatches: Vec<String>,
}

/// Closed-loop call latencies each thread keeps: a uniform sample of all
/// its calls (reservoir sampling), so the benchmark's own memory, and
/// with it `peak_rss_mb`, does not grow with the number of calls a fast
/// machine makes.
const CALL_SAMPLES: usize = 50_000;
/// Probes the speed scale of a round is taken over: the round's own and
/// the ones before it (a probe is a single sample of well under a
/// millisecond).
const PROBE_SPAN: usize = 5;

/// Compile every case cold, check each plan, then run rounds until
/// `seconds` are spent: each round probes the machine's speed, compiles
/// every case cold, executes every plan once, and calls the plans in a
/// seeded closed loop for [`LOOP_SHARE`] of the round. Rounds spread every
/// kind of sample over the whole run, and each round's samples are scaled
/// to the reference machine with the speed of that moment
/// ([`crate::stats::speed_scale`] over the last [`PROBE_SPAN`] probes).
/// All of it runs on one thread per CPU at once (see
/// [`crate::stats::per_cpu`]): an expression's time is the mean over
/// threads of each thread's median, and the call rate is the sum over
/// threads of each thread's median round rate.
pub fn run(cases: &[OptCase], seed: u64, seconds: f64) -> OptOut {
    let outs = crate::stats::per_cpu(|t| run_thread(cases, seed ^ mix(t as u64), seconds, t == 0));
    let threads = outs.len() as f64;
    let mean_of = |pick: &dyn Fn(&ThreadOut) -> &Vec<Pair>, k: usize| Pair {
        measured: outs.iter().map(|o| pick(o)[k].measured).sum::<f64>() / threads,
        scaled: outs.iter().map(|o| pick(o)[k].scaled).sum::<f64>() / threads,
    };
    let rates: Vec<Pair> = outs.iter().map(|o| o.round_rate.median()).collect();
    let mut call_us = Timed::default();
    for o in &outs {
        call_us.append(&o.call_us);
    }
    OptOut {
        compile_us: (0..cases.len()).map(|k| mean_of(&|o| &o.compile_us, k)).collect(),
        run_us: (0..cases.len()).map(|k| mean_of(&|o| &o.run_us, k)).collect(),
        call_us,
        call_rate: Pair {
            measured: rates.iter().map(|r| r.measured).sum(),
            scaled: rates.iter().map(|r| r.scaled).sum(),
        },
        probe_us: outs.iter().flat_map(|o| o.probe_us.iter().copied()).collect(),
        mismatches: outs.iter().flat_map(|o| o.mismatches.iter().cloned()).collect(),
    }
}

fn run_thread(cases: &[OptCase], seed: u64, seconds: f64, check_plans: bool) -> ThreadOut {
    let t_run = Instant::now();
    let fw = Framework::flow();
    let reg = registry::default_backend();
    let mut plans: Vec<Plan> =
        cases.iter().map(|case| compile(&fw, case, reg, OptLevel::Egraph)).collect();
    let mut mismatches = Vec::new();
    if check_plans {
        for (plan, case) in plans.iter().zip(cases) {
            mismatches.extend(check(plan, case));
        }
    }

    let mut rng = Rng::new(mix(seed ^ 0x4c4f_4f50));
    let mut keep = Rng::new(mix(seed ^ 0x4b45_4550));
    let mut calls_made = 0usize;
    let mut compile_us = vec![Timed::default(); cases.len()];
    let mut run_us = vec![Timed::default(); cases.len()];
    let (mut call_us, mut round_rate) = (Timed::default(), Timed::default());
    let mut probe_us = Vec::new();
    while round_rate.measured.is_empty() || t_run.elapsed().as_secs_f64() < seconds {
        probe_us.push(speed_probe_us());
        let scale = speed_scale(&probe_us[probe_us.len().saturating_sub(PROBE_SPAN)..]);
        let t_round = Instant::now();
        for (k, case) in cases.iter().enumerate() {
            let t = Instant::now();
            plans[k] = compile(&fw, case, reg, OptLevel::Egraph);
            compile_us[k].time(t.elapsed().as_secs_f64() * 1e6, scale);
        }
        for (k, (plan, case)) in plans.iter().zip(cases).enumerate() {
            let t = Instant::now();
            std::hint::black_box(plan.execute::<f64>(&case.env));
            run_us[k].time(t.elapsed().as_secs_f64() * 1e6, scale);
        }
        let loop_for = t_round.elapsed().mul_f64(LOOP_SHARE / (1.0 - LOOP_SHARE));
        let (t_loop, mut calls) = (Instant::now(), 0u32);
        while calls == 0 || t_loop.elapsed() < loop_for {
            let k = rng.below(cases.len());
            let t = Instant::now();
            std::hint::black_box(plans[k].execute::<f64>(&cases[k].env));
            let us = t.elapsed().as_secs_f64() * 1e6;
            if calls_made < CALL_SAMPLES {
                call_us.time(us, scale);
            } else {
                let slot = keep.below(calls_made + 1);
                if slot < CALL_SAMPLES {
                    call_us.measured[slot] = us;
                    call_us.scaled[slot] = us * scale;
                }
            }
            calls_made += 1;
            calls += 1;
        }
        round_rate.rate(f64::from(calls) / t_loop.elapsed().as_secs_f64(), scale);
    }
    ThreadOut {
        compile_us: compile_us.iter().map(Timed::median).collect(),
        run_us: run_us.iter().map(Timed::median).collect(),
        call_us,
        round_rate,
        probe_us,
        mismatches,
    }
}

/// What the traced run measured, per expression and in total.
#[derive(Debug, Default)]
pub struct OptTrace {
    /// Execution spans of the egraph plans.
    pub layers: Layers,
    /// `saturate` per expression, µs.
    pub saturate_us: Vec<f64>,
    /// `extract_best` per expression, µs.
    pub extract_us: Vec<f64>,
    /// Saturation rounds and e-nodes per expression.
    pub iterations: Vec<f64>,
    /// See `iterations`.
    pub enodes: Vec<f64>,
    /// Expressions whose saturation hit the budget.
    pub budget_hits: u64,
    /// Expressions extraction rewrote.
    pub changed: u64,
    /// Passes-level run time over egraph-level run time per expression.
    pub gain: Vec<f64>,
    /// Extracted cost and measured run time of each egraph plan.
    pub cost: Vec<f64>,
    /// See `cost`.
    pub run_us: Vec<f64>,
    /// Expressions whose plan disagreed with `eval`.
    pub mismatches: Vec<String>,
}

/// The traced run: every compile stage timed on its own, both optimizer
/// levels executed through the timing backend.
pub fn trace(cases: &[OptCase], model: CostModel) -> OptTrace {
    let fw = Framework::flow();
    let reg = traced::registration();
    let cfg = EgraphConfig { cost: model, ..Default::default() };
    let rules = egraph_rules();
    let mut t = OptTrace::default();
    for case in cases {
        let t0 = Instant::now();
        let mut eg = EGraph::new(&case.ctx);
        let root = eg.add_expr(&case.expr);
        let stats = saturate(&mut eg, &rules, &cfg.saturate);
        t.saturate_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let best = if stats.budget_hit {
            t.budget_hits += 1;
            case.expr.clone()
        } else {
            extract_best(&eg, root, &cfg.cost).expr
        };
        t.extract_us.push(t0.elapsed().as_secs_f64() * 1e6);
        t.iterations.push(stats.iterations as f64);
        t.enodes.push(stats.enodes as f64);
        if best != case.expr {
            t.changed += 1;
        }
        let t0 = Instant::now();
        let (graph, _, _) = fw.function_from_expr(&best, &case.ctx).into_plan_parts();
        t.layers.trace_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        std::hint::black_box(Schedule::new(&graph));
        std::hint::black_box(BatchAnalysis::analyze(&graph, |_| false));
        t.layers.schedule_us.push(t0.elapsed().as_secs_f64() * 1e6);

        let egraph = compile(&fw, case, reg, OptLevel::Egraph);
        let passes = compile(&fw, case, reg, OptLevel::Passes);
        t.mismatches.extend(check(&egraph, case));
        let run_passes = median_exec(&passes, case);
        // One more pass over the egraph plan with its backend calls totalled.
        let run_egraph = median_exec(&egraph, case);
        traced::take();
        let t0 = Instant::now();
        std::hint::black_box(egraph.execute::<f64>(&case.env));
        let exec = t0.elapsed();
        let backend = traced::take();
        t.layers.exec_us.push(run_egraph);
        t.layers.self_us.push((exec.as_nanos() as f64 - backend.ns as f64) / 1e3);
        t.layers.requests += 1;
        t.layers.add_backend(backend);
        t.gain.push(run_passes / run_egraph);
        t.cost.push(egraph.egraph_report().map_or(0, |r| r.extracted_cost) as f64);
        t.run_us.push(run_egraph);
    }
    t
}

/// Spearman correlation of predicted cost with measured run time.
pub fn cost_rank_corr(t: &OptTrace) -> f64 {
    spearman(&t.cost, &t.run_us)
}
