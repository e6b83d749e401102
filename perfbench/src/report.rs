//! Metric names, the result and metadata lines, and per-layer assembly.

use std::fmt::Write as _;
use std::time::Instant;

use laab_dense::gen::OperandGen;
use laab_dense::Scalar;
use laab_kernels::Trans;
use laab_serve::Dtype;

use crate::check::Verdict;
use crate::driver::PhaseResult;
use crate::gen::{Spec, Workload};
use crate::optimize::{self, OptOut, OptTrace};
use crate::pipeline::{Layers, PipelineOut};
use crate::socket::SocketRun;
use crate::stats::{self, geomean, mean, median, quantile, Pair};

/// End-to-end metrics `(name, unit)`, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("max_rate_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("compile_us", "us"),
    ("run_us", "us"),
];

/// Per-layer metrics `(name, unit)`, printed by every `--trace 1` run. A
/// layer a workload does not reach reads 0 and is listed under
/// `not_reached` in the metadata line.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("admission.wait_us", "us"),
    ("admission.wait_p99_us", "us"),
    ("admission.wakeup_lag_us", "us"),
    ("admission.occupancy_mean", "count"),
    ("admission.deadline_flush_share", "ratio"),
    ("admission.shed", "count"),
    ("workload.bind_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.compile_us", "us"),
    ("cache.evictions", "count"),
    ("plan.exec_us", "us"),
    ("plan.stacked_share", "ratio"),
    ("graph.self_us", "us"),
    ("backend.calls_per_request", "count"),
    ("backend.matmul_us", "us"),
    ("kernels.flops_per_request", "flop"),
    ("kernels.gemm_gflops", "GFLOP/s"),
    ("kernels.gemv_gflops", "GFLOP/s"),
    ("kernels.gemm_anchor_ratio", "ratio"),
    ("framework.trace_us", "us"),
    ("graph.schedule_us", "us"),
    ("rewrite.saturate_us", "us"),
    ("rewrite.extract_us", "us"),
    ("rewrite.iterations", "count"),
    ("rewrite.enodes", "count"),
    ("rewrite.budget_hits", "count"),
    ("rewrite.changed_share", "ratio"),
    ("rewrite.gain_vs_passes", "ratio"),
    ("rewrite.cost_rank_corr", "ratio"),
    ("server.residual_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.offered_rps", "1/s"),
    ("trace.overhead", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Named metric values in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name` (a declared metric; the unit is checked against the
    /// declaration).
    pub fn put(&mut self, name: &'static str, value: f64, unit: &str) {
        assert_eq!(unit_of(name), unit, "unit of {name}");
        self.0.push((name, value));
    }

    /// The metrics in declaration order, as JSON.
    pub fn to_json(&self) -> String {
        let rank =
            |name: &str| END_TO_END.iter().chain(PER_LAYER.iter()).position(|(n, _)| *n == name);
        let mut sorted: Vec<&(&str, f64)> = self.0.iter().collect();
        sorted.sort_by_key(|(n, _)| rank(n));
        let body: Vec<String> = sorted
            .into_iter()
            .map(|(n, v)| {
                format!("{}: {{\"value\": {}, \"unit\": {}}}", esc(n), num(*v), esc(unit_of(n)))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The end-to-end metrics of a run from its figures `[rtt_p50_us,
/// rtt_p99_us, max_rate_rps, setup_s, compile_us, run_us]`: at the
/// reference machine's speed when `scaled`, else as measured.
pub fn end_to_end(figures: &[Pair; 6], peak_rss_mb: f64, scaled: bool) -> Metrics {
    let v: Vec<f64> = figures.iter().map(|p| if scaled { p.scaled } else { p.measured }).collect();
    let mut m = Metrics::default();
    m.put("rtt_p50_us", v[0], "us");
    m.put("rtt_p99_us", v[1], "us");
    m.put("max_rate_rps", v[2], "1/s");
    m.put("setup_s", v[3], "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m.put("compile_us", v[4], "us");
    m.put("run_us", v[5], "us");
    m
}

/// The result line.
#[derive(Debug)]
pub struct Outcome {
    /// Every checked output was right.
    pub correct: bool,
    /// Requests (or expressions) attempted.
    pub attempted: u64,
    /// Of those, failed or wrong.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// One JSON object on one line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// GFLOP/s of a square GEMM at `(n, dtype)`: median of 7 after a warm-up.
pub fn anchor_gflops((n, dtype): (usize, Dtype)) -> f64 {
    fn typed<T: Scalar>(n: usize) -> f64 {
        let mut g = OperandGen::new(0xA1C4);
        let (a, b) = (g.matrix::<T>(n, n), g.matrix::<T>(n, n));
        std::hint::black_box(laab_kernels::matmul(&a, Trans::No, &b, Trans::No));
        let mut times: Vec<f64> = (0..7)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(laab_kernels::matmul(&a, Trans::No, &b, Trans::No));
                t.elapsed().as_secs_f64()
            })
            .collect();
        2.0 * (n as f64).powi(3) / median(&mut times) / 1e9
    }
    match dtype {
        Dtype::F64 => typed::<f64>(n),
        Dtype::F32 => typed::<f32>(n),
    }
}

fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(&mut v.to_vec())
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Backend and kernel metrics shared by both traced flavours.
fn put_backend(m: &mut Metrics, l: &Layers, anchor: f64) {
    let b = &l.backend;
    let req = l.requests.max(1) as f64;
    let gemm = ratio(b.gemm_flops as f64, b.gemm_ns as f64);
    m.put("backend.calls_per_request", b.calls as f64 / req, "count");
    m.put("backend.matmul_us", b.matmul_ns as f64 / 1e3 / req, "us");
    m.put("kernels.flops_per_request", b.flops as f64 / req, "flop");
    m.put("kernels.gemm_gflops", gemm, "GFLOP/s");
    m.put("kernels.gemv_gflops", ratio(b.gemv_flops as f64, b.gemv_ns as f64), "GFLOP/s");
    m.put("kernels.gemm_anchor_ratio", ratio(gemm, anchor), "ratio");
}

/// Layers the socket workloads never reach.
const SOCKET_UNREACHED: [&str; 8] = [
    "rewrite.saturate_us",
    "rewrite.extract_us",
    "rewrite.iterations",
    "rewrite.enodes",
    "rewrite.budget_hits",
    "rewrite.changed_share",
    "rewrite.gain_vs_passes",
    "rewrite.cost_rank_corr",
];

/// Per-layer metrics of a socket workload: spans from the traced
/// pipeline, the RTT reference from the untraced socket phase.
pub fn socket_layers(
    sock: &PhaseResult,
    plain: &PipelineOut,
    traced: &PipelineOut,
    anchor: f64,
) -> Metrics {
    let l = &traced.layers;
    let mut m = Metrics::default();
    let (enc, dec) = (med(&l.encode_ns), med(&l.decode_ns));
    let wait = med(&l.wait_us);
    let mut wait_all = l.wait_us.clone();
    m.put("proto.encode_ns", enc, "ns");
    m.put("proto.decode_ns", dec, "ns");
    m.put("admission.wait_us", wait, "us");
    m.put("admission.wait_p99_us", quantile(&mut wait_all, 0.99), "us");
    m.put("admission.wakeup_lag_us", med(&l.wakeup_lag_us), "us");
    m.put("admission.occupancy_mean", mean(&l.occupancy), "count");
    m.put(
        "admission.deadline_flush_share",
        ratio(l.deadline_flushes as f64, l.occupancy.len() as f64),
        "ratio",
    );
    m.put("admission.shed", l.shed as f64, "count");
    m.put("workload.bind_us", med(&l.bind_us), "us");
    m.put("cache.hit_ratio", ratio(l.hits as f64, (l.hits + l.misses) as f64), "ratio");
    m.put("cache.lookup_us", med(&l.lookup_us), "us");
    m.put("cache.compile_us", med(&l.compile_us), "us");
    m.put("cache.evictions", traced.evictions as f64, "count");
    m.put("plan.exec_us", med(&l.exec_us), "us");
    m.put("plan.stacked_share", ratio(l.stacked as f64, l.requests as f64), "ratio");
    m.put("graph.self_us", med(&l.self_us), "us");
    put_backend(&mut m, l, anchor);
    m.put("framework.trace_us", med(&l.trace_us), "us");
    m.put("graph.schedule_us", med(&l.schedule_us), "us");
    for name in SOCKET_UNREACHED {
        m.put(name, 0.0, unit_of(name));
    }
    // Two frames each way: request encode + decode, response encode + decode.
    let layered = 2.0 * (enc + dec) / 1e3
        + wait
        + med(&l.bind_us)
        + med(&l.lookup_us)
        + med(&l.exec_us)
        + med(&l.checksum_us);
    m.put("server.residual_us", med(&sock.rtt_us) - layered, "us");
    m.put("loadgen.late_p99_us", quantile(&mut sock.late_us.clone(), 0.99), "us");
    m.put("loadgen.offered_rps", sock.send_rate(), "1/s");
    m.put("trace.overhead", ratio(med(&traced.rtt_us), med(&plain.rtt_us)) - 1.0, "ratio");
    m
}

/// Layers the optimize workload never reaches (it has no socket, queue
/// or cache).
const OPTIMIZE_UNREACHED: [&str; 17] = [
    "proto.encode_ns",
    "proto.decode_ns",
    "admission.wait_us",
    "admission.wait_p99_us",
    "admission.wakeup_lag_us",
    "admission.occupancy_mean",
    "admission.deadline_flush_share",
    "admission.shed",
    "workload.bind_us",
    "cache.hit_ratio",
    "cache.lookup_us",
    "cache.compile_us",
    "cache.evictions",
    "server.residual_us",
    "loadgen.late_p99_us",
    "loadgen.offered_rps",
    "trace.overhead",
];

/// Per-layer metrics of the optimize workload.
pub fn optimize_layers(t: &OptTrace, anchor: f64) -> Metrics {
    let l = &t.layers;
    let n = t.saturate_us.len().max(1) as f64;
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        if OPTIMIZE_UNREACHED.contains(&name) {
            m.put(name, 0.0, unit);
        }
    }
    m.put("plan.exec_us", med(&l.exec_us), "us");
    m.put("plan.stacked_share", 0.0, "ratio");
    m.put("graph.self_us", med(&l.self_us), "us");
    put_backend(&mut m, l, anchor);
    m.put("framework.trace_us", med(&l.trace_us), "us");
    m.put("graph.schedule_us", med(&l.schedule_us), "us");
    m.put("rewrite.saturate_us", med(&t.saturate_us), "us");
    m.put("rewrite.extract_us", med(&t.extract_us), "us");
    m.put("rewrite.iterations", mean(&t.iterations), "count");
    m.put("rewrite.enodes", mean(&t.enodes), "count");
    m.put("rewrite.budget_hits", t.budget_hits as f64, "count");
    m.put("rewrite.changed_share", t.changed as f64 / n, "ratio");
    m.put("rewrite.gain_vs_passes", geomean(&t.gain), "ratio");
    m.put("rewrite.cost_rank_corr", optimize::cost_rank_corr(t), "ratio");
    m
}

/// The metadata line: provenance, constants and per-phase sample counts.
#[derive(Debug)]
pub struct Meta {
    fields: Vec<(String, String)>,
    /// CPU steal and total jiffies when the run started.
    steal_at_start: Option<(u64, u64)>,
    /// Extraction cost model the process loaded.
    pub cost_model: String,
    /// Correctness and ledger failures.
    pub problems: Vec<String>,
}

/// A percentile summary honouring the ten-beyond rule: a percentile the
/// sample cannot support is `null`, and the highest one it can is named.
fn summary(samples: &[f64]) -> String {
    let mut v = samples.to_vec();
    let n = v.len();
    let p = |v: &mut Vec<f64>, q: f64| {
        if stats::reportable(n, q) {
            num(quantile(v, q))
        } else {
            "null".to_string()
        }
    };
    format!(
        "{{\"samples\": {n}, \"p50\": {}, \"p99\": {}, \"highest_supported\": {}}}",
        p(&mut v, 0.5),
        p(&mut v, 0.99),
        stats::highest_supported(n).map_or("null".to_string(), num)
    )
}

fn phase_json(label: &str, rate: f64, p: &PhaseResult, sustained: bool) -> String {
    format!(
        "{{\"phase\": {}, \"offered_rate\": {}, \"offered\": {}, \"ok\": {}, \"busy\": {}, \
         \"expired\": {}, \"failed\": {}, \"err\": {}, \"lost\": {}, \"rtt_us\": {}, \
         \"late_us\": {}, \"inflight_end\": {}, \"aborted\": {}, \
         \"sustained\": {}}}",
        esc(label),
        num(rate),
        p.offered,
        p.ok,
        p.busy,
        p.expired,
        p.failed,
        p.err,
        p.lost,
        summary(&p.rtt_us),
        summary(&p.late_us),
        p.inflight_end,
        p.aborted,
        sustained
    )
}

fn verdict_json(v: &Verdict) -> String {
    format!(
        "{{\"bitwise_checked\": {}, \"stacked_served\": {}, \"stacked_probes\": {}, \
         \"mismatches\": {}}}",
        v.bitwise,
        v.stacked,
        v.probes,
        v.mismatches.len()
    )
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(c) = std::fs::read_to_string(git.join(reference)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(steal, total)` jiffies over all CPUs, from `/proc/stat`.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2+fma";
        }
        "sse2"
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

impl Meta {
    /// Provenance common to every run.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Meta {
        let spec = workload.spec();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut m = Meta {
            fields: Vec::new(),
            steal_at_start: cpu_steal(),
            cost_model: "not loaded: no egraph compile in this run".to_string(),
            problems: Vec::new(),
        };
        m.raw("workload", esc(workload.name()));
        m.raw("seed", seed.to_string());
        m.raw("seconds", num(seconds));
        m.raw("trace", trace.to_string());
        m.raw("commit", esc(&git_commit()));
        m.raw("nproc", nproc.to_string());
        m.raw("simd", esc(simd_level()));
        if workload != Workload::Optimize {
            m.raw("offered_rate_rps", num(spec.rate_rps));
            m.raw("p99_limit_us", num(spec.p99_limit_us));
        }
        m.raw(
            "anchor",
            format!("{{\"n\": {}, \"dtype\": {}}}", spec.anchor.0, esc(spec.anchor.1.name())),
        );
        m
    }

    fn raw(&mut self, key: &str, json: String) {
        self.fields.push((key.to_string(), json));
    }

    /// Record the speed probes of a run and its end-to-end metrics as
    /// measured, before scaling to the reference machine.
    pub fn speed(&mut self, probe_us: &[f64], measured: &Metrics) {
        self.raw("speed_probe_us", num(median(&mut probe_us.to_vec())));
        self.raw("speed_probe_samples", probe_us.len().to_string());
        self.raw("speed_probe_reference_us", num(stats::PROBE_REF_US));
        self.raw("measured", measured.to_json());
    }

    /// Record an untraced socket run.
    pub fn socket_run(&mut self, run: &SocketRun, spec: &Spec) {
        let fixed_ok = run.fixed.sustains(spec.p99_limit_us, spec.rate_rps);
        let saturated_rate = run.saturated.ok as f64 / run.saturated.send_span_s.max(1e-9);
        let phases = [
            phase_json("fixed", spec.rate_rps, &run.fixed, fixed_ok),
            phase_json("saturation", saturated_rate, &run.saturated, run.saturation_ok),
        ];
        self.raw("phases", format!("[{}]", phases.join(", ")));
        self.raw("fixed_send_rate_rps", num(run.fixed.send_rate()));
        self.raw("saturation_inflight", run.saturation_inflight.to_string());
        let list = |f: &dyn Fn(&crate::socket::Round) -> f64| {
            let v: Vec<String> = run.rounds.iter().map(|r| num(f(r))).collect();
            format!("[{}]", v.join(", "))
        };
        self.raw("window_p50_us", list(&|r| median(&mut r.rtt_us.clone())));
        self.raw("window_steal", list(&|r| r.steal));
        self.raw("saturation_window_rps", list(&|r| r.rate));
        self.raw("saturation_window_steal", list(&|r| r.saturation_steal));
        self.raw("round_probe_us", list(&|r| r.probe_us));
        let quiet: Vec<String> = run.quiet_windows.iter().map(|k| k.to_string()).collect();
        self.raw("quiet_windows", format!("[{}]", quiet.join(", ")));
        self.raw("setup_s", list(&|r| r.setup_s));
        self.raw("setup_steal", list(&|r| r.setup_steal));
        self.raw("fail_ratio", num(ratio(run.fixed.not_ok() as f64, run.fixed.offered as f64)));
        self.raw("verification", verdict_json(&run.verdict));
        self.problems.extend(run.verdict.mismatches.iter().cloned());
        self.problems.extend(run.errors.iter().cloned());
    }

    /// Record an untraced optimize run.
    pub fn optimize_run(&mut self, out: &OptOut, cases: usize) {
        self.raw("expressions", cases.to_string());
        self.raw("calls", summary(&out.call_us.measured));

        self.raw("fail_ratio", num(ratio(out.mismatches.len() as f64, cases as f64)));
        self.problems.extend(out.mismatches.iter().cloned());
    }

    /// Record a traced socket run.
    pub fn trace_socket(
        &mut self,
        sock: &PhaseResult,
        plain: &PipelineOut,
        traced: &PipelineOut,
        verdict: &Verdict,
        spec: &Spec,
    ) {
        let ok = sock.sustains(spec.p99_limit_us, spec.rate_rps);
        self.raw("phases", format!("[{}]", phase_json("socket", spec.rate_rps, sock, ok)));
        self.raw("pipeline_untraced_rtt_us", summary(&plain.rtt_us));
        self.raw("pipeline_traced_rtt_us", summary(&traced.rtt_us));
        self.raw("admission_wait_us", summary(&traced.layers.wait_us));
        self.raw("verification", verdict_json(verdict));
        self.not_reached(&SOCKET_UNREACHED);
    }

    /// Record a traced optimize run.
    pub fn trace_optimize(&mut self, t: &OptTrace, cases: usize) {
        self.raw("expressions", cases.to_string());
        self.raw("rewritten", t.changed.to_string());
        self.raw("budget_hits", t.budget_hits.to_string());
        self.not_reached(&OPTIMIZE_UNREACHED);
    }

    fn not_reached(&mut self, names: &[&str]) {
        let list: Vec<String> = names.iter().map(|n| esc(n)).collect();
        self.raw("not_reached", format!("[{}]", list.join(", ")));
    }

    /// One JSON object on one line.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{}: {v}", esc(k))).collect();
        fields.push(format!("\"cost_model\": {}", esc(&self.cost_model)));
        // The share of CPU time the host took from this machine during the
        // run: runs with a high share were measured on a disturbed host.
        let steal = match (self.steal_at_start, cpu_steal()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => num((s1 - s0) as f64 / (t1 - t0) as f64),
            _ => "null".to_string(),
        };
        fields.push(format!("\"host_steal_share\": {steal}"));
        let problems: Vec<String> = self.problems.iter().take(20).map(|p| esc(p)).collect();
        fields.push(format!("\"problems\": [{}]", problems.join(", ")));
        format!("{{\"meta\": {{{}}}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "<value>"` entries of the array under `key` in BENCHMARK.json.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no `{key}`"));
        let rest = &json[start..];
        let end = rest.find(']').expect("array end");
        rest[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn metric_and_workload_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names_under(json, "end_to_end"), e2e);
        assert_eq!(names_under(json, "per_layer"), layers);
        assert_eq!(names_under(json, "workloads"), workloads);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let at = json.find(&format!("\"name\": \"{name}\"")).expect("declared");
            let line = &json[at..at + json[at..].find('}').expect("entry end")];
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{name}: unit {unit}");
        }
    }

    #[test]
    fn unreached_layers_are_declared() {
        for name in SOCKET_UNREACHED.iter().chain(OPTIMIZE_UNREACHED.iter()) {
            unit_of(name);
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s");
        let line = Outcome { correct: true, attempted: 3, failed: 0, metrics: m }.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
