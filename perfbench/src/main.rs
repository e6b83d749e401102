//! LAAB's benchmark. See `README.md` next to this crate for the
//! workloads, the metrics and why each was chosen.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload vec-stream --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Prints one metadata line (`{"meta": ...}`), then, as the last line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when a response or plan is wrong, 2 on bad arguments.

mod check;
mod driver;
mod gen;
mod optimize;
mod pipeline;
mod report;
mod socket;
mod stats;
mod traced;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use laab_serve::ServeConfig;

use crate::driver::Phase;
use crate::gen::{Stream, Workload};
use crate::report::{Meta, Outcome};
use crate::stats::{geomean, quantile, quiet, speed_scale, Pair, StealMeter, Timed};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Create and enter the benchmark's own run directory (the socket lives
/// there, and the optimizer's cost-model lookup reads from there).
fn enter_run_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::env::set_current_dir(&dir).map_err(|e| format!("enter {}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("laab-perfbench: {e}");
            eprintln!(
                "usage: laab-perfbench --workload <vec-stream|shape-churn|optimize> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = enter_run_dir() {
        eprintln!("laab-perfbench: {e}");
        std::process::exit(1);
    }
    let mut meta = Meta::new(args.workload, args.seed, args.seconds, args.trace);
    let result = match (args.workload, args.trace) {
        (Workload::Optimize, false) => run_optimize(&args, &mut meta),
        (Workload::Optimize, true) => trace_optimize(&args, &mut meta),
        (_, false) => run_socket(&args, &mut meta),
        (_, true) => trace_socket(&args, &mut meta),
    };
    match result {
        Ok(outcome) => {
            let code = if outcome.correct { 0 } else { 1 };
            if !outcome.correct {
                eprintln!("laab-perfbench: correctness check failed: {:?}", meta.problems);
            }
            println!("{}", meta.to_json());
            println!("{}", outcome.to_json());
            std::process::exit(code);
        }
        Err(e) => {
            eprintln!("laab-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn socket_addr() -> PathBuf {
    PathBuf::from(format!("srv-{}.sock", std::process::id()))
}

fn run_socket(args: &Args, meta: &mut Meta) -> Result<Outcome, String> {
    let spec = args.workload.spec();
    let cfg = ServeConfig::default();
    let stream = Stream::new(args.workload, args.seed);
    let run = socket::run(&cfg, &socket_addr(), &stream, &spec, args.seconds)?;
    let figures = [run.rtt_p50, run.rtt_p99, run.max_rate, run.setup, run.compile_us, run.run_us];
    let probes: Vec<f64> = run.rounds.iter().map(|r| r.probe_us).collect();
    meta.speed(&probes, &report::end_to_end(&figures, run.peak_rss_mb, false));
    meta.socket_run(&run, &spec);
    let failed = run.fixed.not_ok() + run.verdict.mismatches.len() as u64 + run.errors.len() as u64;
    Ok(Outcome {
        correct: run.verdict.mismatches.is_empty() && run.errors.is_empty(),
        attempted: run.fixed.offered.max(1),
        failed,
        metrics: report::end_to_end(&figures, run.peak_rss_mb, true),
    })
}

fn run_optimize(args: &Args, meta: &mut Meta) -> Result<Outcome, String> {
    let (mut setup_s, mut setup_steal) = (Vec::new(), Vec::new());
    let mut cases = Vec::new();
    for _ in 0..optimize::SETUP_REPS {
        let (t, steal) = (Instant::now(), StealMeter::start());
        let (_model, source) = optimize::cost_model();
        cases = gen::optimize_set(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_steal.push(steal.share());
        meta.cost_model = source.to_string();
    }
    let out = optimize::run(&cases, args.seed, args.seconds);
    let mut setup = Timed::default();
    for &t in &setup_s {
        setup.time(t, speed_scale(&out.probe_us));
    }
    let figures = [
        out.call_us.median(),
        out.call_us.map(|v| quantile(v, 0.99)),
        out.call_rate,
        setup.pick(&quiet(&setup_steal, &vec![0; setup_steal.len()], 0)).median(),
        Pair::map(&out.compile_us, |v| geomean(v)),
        Pair::map(&out.run_us, |v| geomean(v)),
    ];
    let rss = report::peak_rss_mb();
    meta.speed(&out.probe_us, &report::end_to_end(&figures, rss, false));
    meta.optimize_run(&out, cases.len());
    Ok(Outcome {
        correct: out.mismatches.is_empty(),
        attempted: cases.len() as u64,
        failed: out.mismatches.len() as u64,
        metrics: report::end_to_end(&figures, rss, true),
    })
}

fn trace_socket(args: &Args, meta: &mut Meta) -> Result<Outcome, String> {
    let spec = args.workload.spec();
    let cfg = ServeConfig::default();
    let stream = Stream::new(args.workload, args.seed);
    let addr = socket_addr();
    let phase = |first: u64, share: f64| Phase {
        first,
        rate: spec.rate_rps,
        duration: Duration::from_secs_f64(share * args.seconds),
        abort_inflight: i64::MAX,
    };

    // 1. The untraced socket reference at the fixed rate.
    let mut server = socket::set_up(&cfg, &addr, &stream)?;
    let mut sock = driver::run_phase(&addr, &stream, &phase(0, 0.3));
    server.absorb(&mut sock);
    let mut problems = Vec::new();
    let mut served = match server.stop() {
        Ok((_, s)) => s,
        Err(e) => {
            problems.push(e);
            Vec::new()
        }
    };
    // 2. The in-process pipeline on the same schedule, spans off, then on.
    let engine = laab_backend::registry::default_backend();
    let plain = pipeline::run(&stream, &phase(0, 0.3), &cfg, engine, false);
    let traced = pipeline::run(&stream, &phase(0, 0.4), &cfg, traced::registration(), true);
    served.extend_from_slice(&plain.served);
    served.extend_from_slice(&traced.served);
    let verdict = check::Oracle::new(&cfg).verify(&served);
    problems.extend(verdict.mismatches.iter().cloned());

    let anchor = report::anchor_gflops(spec.anchor);
    let m = report::socket_layers(&sock, &plain, &traced, anchor);
    meta.trace_socket(&sock, &plain, &traced, &verdict, &spec);
    meta.problems.extend(problems.iter().cloned());
    let attempted = sock.offered + plain.offered + traced.offered;
    let answered = sock.ok + plain.ok + traced.ok;
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: attempted.max(1),
        failed: attempted - answered.min(attempted) + verdict.mismatches.len() as u64,
        metrics: m,
    })
}

fn trace_optimize(args: &Args, meta: &mut Meta) -> Result<Outcome, String> {
    let spec = args.workload.spec();
    let (model, source) = optimize::cost_model();
    meta.cost_model = source.to_string();
    let cases = gen::optimize_set(args.seed);
    let t = optimize::trace(&cases, model);
    let anchor = report::anchor_gflops(spec.anchor);
    let m = report::optimize_layers(&t, anchor);
    meta.trace_optimize(&t, cases.len());
    meta.problems.extend(t.mismatches.iter().cloned());
    Ok(Outcome {
        correct: t.mismatches.is_empty(),
        attempted: cases.len() as u64,
        failed: t.mismatches.len() as u64,
        metrics: m,
    })
}
