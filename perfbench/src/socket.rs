//! The socket workloads: an unmodified `laab_serve::Server` with its
//! default configuration, bound to a unix socket in the benchmark's run
//! directory, driven by [`crate::driver`] in open-loop fixed-rate windows
//! and closed-loop saturation windows.
//!
//! A run is rounds of: set-up (bind, warm-up pass over every signature),
//! a fixed-rate window, a saturation window, shutdown with the served +
//! shed + expired + failed = offered check, and in-process plan timing
//! (see [`run`]); every response is checked as its window ends.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use laab_backend::registry;
use laab_expr::eval::Env;
use laab_framework::Framework;
use laab_serve::workload::Request;
use laab_serve::{Dtype, Plan, ServeConfig, ServeError, Server, ServerStats};

use crate::check::{Oracle, Verdict};
use crate::driver::{self, Phase, PhaseResult, Saturation, Served};
use crate::gen::{Spec, Stream};
use crate::stats::{
    geomean, median, quantile, quiet, speed_probe_us, speed_scale, Pair, StealMeter, Timed,
    PROBE_REF_US,
};

/// Stream index of the first warm-up request (far above any phase's).
const WARM_BASE: u64 = 1 << 48;
/// Length of one measuring round, seconds: rounds follow each other
/// until the run's `seconds` are spent (at least [`MIN_ROUNDS`]).
const ROUND_S: f64 = 1.0;
const MIN_ROUNDS: usize = 3;
/// Shares of a round given to the fixed-rate window, the saturation
/// window and in-process plan timing; the rest covers the set-up and
/// draining and checking each window's responses.
const FIXED_SHARE: f64 = 0.55;
const SATURATION_SHARE: f64 = 0.25;
const PLAN_SHARE: f64 = 0.12;
/// Fixed-rate samples the quiet windows must hold: a p99 needs a
/// thousand, and a window can lose a request or two to failures.
const QUIET_MIN_SAMPLES: usize = 1100;

/// Speed probes per thread at the start of each plan-timing slice.
const PROBES_PER_SLICE: usize = 4;

/// A server running on its own thread.
pub struct Running {
    addr: PathBuf,
    handle: JoinHandle<Result<ServerStats, ServeError>>,
    /// Requests sent to it so far.
    pub sent: u64,
    /// Every `Ok` response it gave, for the correctness check.
    pub served: Vec<Served>,
    /// Client-side outcome tallies: ok, busy, expired, failed, err, lost.
    pub tally: [u64; 6],
}

impl Running {
    /// Account one phase's requests, taking its served responses.
    pub fn absorb(&mut self, p: &mut PhaseResult) {
        self.sent += p.offered;
        self.served.append(&mut p.served);
        for (t, v) in self.tally.iter_mut().zip([p.ok, p.busy, p.expired, p.failed, p.err, p.lost])
        {
            *t += v;
        }
    }

    /// Shut the server down and check that every request it was sent got
    /// exactly one terminal answer of the class the client saw.
    pub fn stop(self) -> Result<(ServerStats, Vec<Served>), String> {
        driver::shutdown(&self.addr)?;
        let stats = self
            .handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        let answered = stats.served
            + stats.shed
            + stats.expired
            + stats.failed
            + stats.rejected
            + stats.quarantined;
        let [ok, busy, expired, failed, err, lost] = self.tally;
        if answered != self.sent
            || lost != 0
            || stats.served != ok
            || stats.shed != busy
            || stats.expired != expired
            || stats.failed + stats.quarantined != failed
            || stats.rejected != err
        {
            return Err(format!(
                "request ledger does not balance: sent {}, server served {} shed {} expired {} \
                 failed {} rejected {} quarantined {}; client ok {ok} busy {busy} expired \
                 {expired} failed {failed} err {err} lost {lost}",
                self.sent,
                stats.served,
                stats.shed,
                stats.expired,
                stats.failed,
                stats.rejected,
                stats.quarantined
            ));
        }
        Ok((stats, self.served))
    }
}

/// Bind a server with `cfg` at `addr`, start it, and send every
/// signature of `stream` once (building operand pools and plans).
pub fn set_up(cfg: &ServeConfig, addr: &Path, stream: &Stream) -> Result<Running, String> {
    let _ = std::fs::remove_file(addr);
    let server = Server::bind(&format!("unix:{}", addr.display()), cfg)
        .map_err(|e| format!("bind {}: {e}", addr.display()))?;
    let handle = std::thread::spawn(move || server.run());
    let mut running =
        Running { addr: addr.to_path_buf(), handle, sent: 0, served: Vec::new(), tally: [0; 6] };
    let warm: Vec<(u64, Request)> = stream
        .signatures()
        .into_iter()
        .enumerate()
        .map(|(k, (family, n, dtype))| {
            (WARM_BASE + k as u64, Request { family, n, dtype, payload: WARM_BASE + k as u64 })
        })
        .collect();
    running.sent += warm.len() as u64;
    let served = driver::closed_loop(addr, &warm);
    let served = match served {
        Ok(s) => s,
        Err(e) => {
            let _ = running.stop();
            return Err(format!("warm-up: {e}"));
        }
    };
    running.tally[0] += served.len() as u64;
    running.served.extend(served);
    Ok(running)
}

/// The in-flight count past which a phase at `rate` stops sending.
fn abort_inflight(spec: &Spec, rate: f64) -> i64 {
    (4.0 * (rate * spec.p99_limit_us / 1e6).max(64.0)) as i64
}

/// One round of a socket run: its server's set-up, its two windows and
/// its speed.
#[derive(Debug)]
pub struct Round {
    /// Wall time of the set-up, seconds.
    pub setup_s: f64,
    /// Share of CPU time the host took during the set-up.
    pub setup_steal: f64,
    /// RTT of each fixed-rate request, µs.
    pub rtt_us: Vec<f64>,
    /// Share of CPU time the host took during the fixed-rate window.
    pub steal: f64,
    /// Served requests per second of the saturation window.
    pub rate: f64,
    /// Share of CPU time the host took during the saturation window.
    pub saturation_steal: f64,
    /// Saturation requests offered, failed, and over the p99 limit.
    pub saturation_limits: (u64, u64, u64),
    /// Median speed probe of the round's plan-timing slice, µs.
    pub probe_us: f64,
}

/// Everything an untraced socket run measured.
#[derive(Debug)]
pub struct SocketRun {
    /// The fixed-rate windows, all together.
    pub fixed: PhaseResult,
    /// The saturation windows, all together.
    pub saturated: PhaseResult,
    /// Requests kept outstanding in the saturation windows.
    pub saturation_inflight: usize,
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// Fixed-rate windows the RTT metrics were taken from ([`quiet`]).
    pub quiet_windows: Vec<usize>,
    /// Whether the quiet saturation windows together met the p99 limit
    /// and the failure bound.
    pub saturation_ok: bool,
    /// The end-to-end figures (see [`run`]).
    pub rtt_p50: Pair,
    /// See `rtt_p50`.
    pub rtt_p99: Pair,
    /// See `rtt_p50`.
    pub max_rate: Pair,
    /// See `rtt_p50`.
    pub setup: Pair,
    /// Geometric means over the signatures of the median cold compile
    /// and solo execution, µs.
    pub compile_us: Pair,
    /// See `compile_us`.
    pub run_us: Pair,
    /// `VmHWM` at the end of the run, MB.
    pub peak_rss_mb: f64,
    /// The correctness check.
    pub verdict: Verdict,
    /// Ledger or set-up failures.
    pub errors: Vec<String>,
}

/// Run one untraced socket workload for `seconds`.
///
/// The run is a sequence of rounds of about a second until `seconds` are
/// spent, checking included. Each round sets up a fresh server, runs a
/// fixed-rate window at the workload's offered rate (open loop, RTT from
/// the due time) and a saturation window (`spec.saturation_inflight`
/// requests kept outstanding), stops the server, and spends a slice on
/// in-process plan timing; every metric thus samples the whole run. A
/// saturated server settles into one of several speeds and keeps it
/// (vec-stream: anywhere from 3500 to 8000 req/s, the same code and
/// machine), so a run of one server would draw one of them; a run of a
/// server per round averages over the draws.
///
/// A shared host takes CPU time from this machine (steal) in spells of
/// seconds, and socket latency follows it: a window in which the host
/// took a quarter of the CPU reads two to ten times the RTT of a window
/// in which it took none. The socket metrics are therefore taken from
/// the quiet windows ([`quiet`]): those in which the host took at most
/// [`crate::stats::QUIET_STEAL`] of the CPU time, as `/proc/stat` counts it (or, on a
/// host that hardly lets up, the least stolen few). Every window's
/// figures and steal are in the run's metadata.
///
/// Each round's speed probe scales that round's set-up, windows and
/// plan-timing samples to the reference machine
/// ([`crate::stats::speed_scale`]); every figure is kept as measured too.
///
/// * `setup_s`: the median of the quiet rounds' set-ups.
/// * `rtt_p50_us`: the median over the quiet fixed-rate windows of each
///   window's median RTT.
/// * `rtt_p99_us`: the median p99 over groups of consecutive quiet
///   windows ([`group_p99s`]).
/// * `max_rate_rps`: the mean served rate of the quiet saturation windows
///   (they are all as long) — the rate the server sustains with its
///   executors busy and a backlog bounded by construction — provided
///   those windows together keep at most 1% of their requests over the
///   p99 limit or failed. A mean, not a median: each server keeps the
///   speed it settled into, and a median over a run's servers jumps from
///   one speed to another where a mean moves little.
///   When they do not, the fixed rate's realized send rate is reported
///   instead, the highest rate the run showed sustained.
pub fn run(
    cfg: &ServeConfig,
    addr: &Path,
    stream: &Stream,
    spec: &Spec,
    seconds: f64,
) -> Result<SocketRun, String> {
    let mut errors = Vec::new();
    // Responses are checked as each window ends and then dropped, so the
    // benchmark's own bookkeeping does not grow with the run.
    let mut oracle = Oracle::new(cfg);
    let mut verdict = Verdict::default();
    let round_s = ROUND_S.min(seconds / MIN_ROUNDS as f64);
    let t_measure = Instant::now();
    let mut timer = PlanTimer::new(stream);
    let (mut fixed, mut saturated) = (PhaseResult::default(), PhaseResult::default());
    let mut rounds: Vec<Round> = Vec::new();
    let mut next = 0;
    let settle =
        |r: &mut PhaseResult, server: &mut Running, oracle: &mut Oracle, v: &mut Verdict| {
            server.absorb(r);
            v.absorb(oracle.verify(&std::mem::take(&mut server.served)));
        };
    while rounds.len() < MIN_ROUNDS
        || t_measure.elapsed().as_secs_f64() + (1.0 - PLAN_SHARE) * round_s < seconds
    {
        let (t, steal) = (Instant::now(), StealMeter::start());
        let mut server = set_up(cfg, addr, stream)?;
        let (setup_s, setup_steal) = (t.elapsed().as_secs_f64(), steal.share());

        let phase = Phase {
            first: next,
            rate: spec.rate_rps,
            duration: Duration::from_secs_f64(FIXED_SHARE * round_s),
            abort_inflight: abort_inflight(spec, spec.rate_rps),
        };
        let steal = StealMeter::start();
        let mut r = driver::run_phase(addr, stream, &phase);
        let steal = steal.share();
        settle(&mut r, &mut server, &mut oracle, &mut verdict);
        next = r.next_index;
        let rtt_us = r.rtt_us.clone();
        fixed.absorb(r);

        let sat = Saturation {
            first: next,
            inflight: spec.saturation_inflight,
            duration: Duration::from_secs_f64(SATURATION_SHARE * round_s),
        };
        let saturation_steal = StealMeter::start();
        let mut r = driver::run_saturated(addr, stream, &sat);
        let saturation_steal = saturation_steal.share();
        settle(&mut r, &mut server, &mut oracle, &mut verdict);
        next = r.next_index;
        let rate = r.ok_in_span as f64 / sat.duration.as_secs_f64();
        let saturation_limits = (r.offered, r.not_ok(), r.over_limit(spec.p99_limit_us));
        saturated.absorb(r);
        match server.stop() {
            Ok((_, sv)) => verdict.absorb(oracle.verify(&sv)),
            Err(e) => errors.push(e),
        }

        let probe_us = timer.slice(PLAN_SHARE * round_s);
        rounds.push(Round {
            setup_s,
            setup_steal,
            rtt_us,
            steal,
            rate,
            saturation_steal,
            saturation_limits,
            probe_us,
        });
    }

    let scales: Vec<f64> = rounds.iter().map(|r| PROBE_REF_US / r.probe_us).collect();
    let mut setup = Timed::default();
    for (r, &scale) in rounds.iter().zip(&scales) {
        setup.time(r.setup_s, scale);
    }
    let setup_steal: Vec<f64> = rounds.iter().map(|r| r.setup_steal).collect();
    let steal: Vec<f64> = rounds.iter().map(|r| r.steal).collect();
    let sizes: Vec<usize> = rounds.iter().map(|r| r.rtt_us.len()).collect();
    let quiet_windows = quiet(&steal, &sizes, QUIET_MIN_SAMPLES);
    // Each quiet window's RTT samples, as measured and scaled.
    let windows: Vec<Timed> = quiet_windows
        .iter()
        .map(|&k| {
            let mut w = Timed::default();
            for &v in &rounds[k].rtt_us {
                w.time(v, scales[k]);
            }
            w
        })
        .collect();
    let rtt_p50 = Pair::map(&windows.iter().map(Timed::median).collect::<Vec<_>>(), |v| median(v));
    let p99 = |scaled: bool| {
        let pick = |w: &Timed| if scaled { w.scaled.clone() } else { w.measured.clone() };
        median(&mut group_p99s(&windows.iter().map(pick).collect::<Vec<_>>()))
    };
    let rtt_p99 = Pair { measured: p99(false), scaled: p99(true) };

    // The quiet saturation windows together: at most 1% of requests over
    // the limit or failed.
    let sat_steal: Vec<f64> = rounds.iter().map(|r| r.saturation_steal).collect();
    let quiet_sat = quiet(&sat_steal, &vec![0; rounds.len()], 0);
    let (offered, not_ok, over) = quiet_sat
        .iter()
        .map(|&k| rounds[k].saturation_limits)
        .fold((0, 0, 0), |a, w| (a.0 + w.0, a.1 + w.1, a.2 + w.2));
    let allowed = offered / 100;
    let saturation_ok = offered > 0 && not_ok <= allowed && over <= allowed;
    let max_rate = if saturation_ok {
        let mut rates = Timed::default();
        for &k in &quiet_sat {
            rates.rate(rounds[k].rate, scales[k]);
        }
        rates.map(|v| crate::stats::mean(v))
    } else {
        Pair { measured: fixed.send_rate(), scaled: fixed.send_rate() }
    };
    let (compile_us, run_us) = timer.geomeans();
    Ok(SocketRun {
        setup: setup.pick(&quiet(&setup_steal, &vec![0; setup_steal.len()], 0)).median(),
        fixed,
        saturated,
        saturation_inflight: spec.saturation_inflight,
        rounds,
        quiet_windows,
        saturation_ok,
        rtt_p50,
        rtt_p99,
        max_rate,
        compile_us,
        run_us,
        peak_rss_mb: crate::report::peak_rss_mb(),
        verdict,
        errors,
    })
}

/// The p99 of each group of consecutive windows: as many groups as the
/// samples allow with the thousand samples each that a p99 needs (at
/// least one group, all windows together). A neighbour's burst lasts a
/// second or two; the median over groups keeps one burst from setting
/// the run's p99, as the p99 of all samples together would.
fn group_p99s(windows: &[Vec<f64>]) -> Vec<f64> {
    let total: usize = windows.iter().map(Vec::len).sum();
    // 1100, not 1000: a window can lose a request or two to failures.
    let groups = (total / 1100).clamp(1, windows.len().max(1));
    (0..groups)
        .map(|g| {
            let part = &windows[g * windows.len() / groups..(g + 1) * windows.len() / groups];
            let mut samples: Vec<f64> = part.iter().flatten().copied().collect();
            quantile(&mut samples, 0.99)
        })
        .collect()
}

/// A stream's signatures, their operands, and the plan-timing figures
/// gathered over a run: per signature, each slice's and thread's median.
/// Keeping medians rather than every sample keeps the benchmark's own
/// memory out of `peak_rss_mb`.
struct PlanTimer {
    sigs: Vec<(laab_serve::workload::Family, usize, Dtype)>,
    pools: Vec<(Env<f64>, Env<f32>)>,
    compile: Vec<Timed>,
    run: Vec<Timed>,
}

impl PlanTimer {
    fn new(stream: &Stream) -> PlanTimer {
        let sigs = stream.signatures();
        let seed = ServeConfig::default().seed;
        let pools = sigs
            .iter()
            .map(|&(f, n, d)| match d {
                Dtype::F64 => (f.env::<f64>(n, seed), Env::new()),
                Dtype::F32 => (Env::new(), f.env::<f32>(n, seed)),
            })
            .collect();
        let k = sigs.len();
        PlanTimer {
            sigs,
            pools,
            compile: vec![Timed::default(); k],
            run: vec![Timed::default(); k],
        }
    }

    /// In-process plan timing for `secs`, on one thread per CPU at once
    /// ([`crate::stats::per_cpu`]): a few speed probes, then passes that
    /// compile every signature cold, as the server compiles on a miss,
    /// for half the slice, then passes that execute each signature's plan
    /// once, solo, for the other half (at least one pass of each). Each
    /// thread scales its samples with its own probes. Returns the median
    /// probe of the slice, µs.
    fn slice(&mut self, secs: f64) -> f64 {
        let (sigs, pools) = (&self.sigs, &self.pools);
        let outs = crate::stats::per_cpu(|_| {
            let fw = Framework::flow();
            let reg = registry::default_backend();
            let compile_one = |&(family, n, _): &(laab_serve::workload::Family, usize, Dtype)| {
                Plan::compile_with_varying(
                    &fw,
                    &family.expr(n),
                    &family.ctx(n),
                    reg,
                    family.varying_operands(),
                )
            };
            let probes: Vec<f64> = (0..PROBES_PER_SLICE).map(|_| speed_probe_us()).collect();
            let scale = speed_scale(&probes);
            let mut compile = vec![Timed::default(); sigs.len()];
            let mut run = vec![Timed::default(); sigs.len()];
            let t0 = Instant::now();
            let mut plans = Vec::new();
            while plans.is_empty() || t0.elapsed().as_secs_f64() < secs / 2.0 {
                plans.clear();
                for (k, sig) in sigs.iter().enumerate() {
                    let t = Instant::now();
                    plans.push(compile_one(sig));
                    compile[k].time(t.elapsed().as_secs_f64() * 1e6, scale);
                }
            }
            while run[0].measured.is_empty() || t0.elapsed().as_secs_f64() < secs {
                for (k, plan) in plans.iter().enumerate() {
                    let t = Instant::now();
                    match sigs[k].2 {
                        Dtype::F64 => drop(std::hint::black_box(plan.execute::<f64>(&pools[k].0))),
                        Dtype::F32 => drop(std::hint::black_box(plan.execute::<f32>(&pools[k].1))),
                    }
                    run[k].time(t.elapsed().as_secs_f64() * 1e6, scale);
                }
            }
            let medians = |t: Vec<Timed>| t.iter().map(Timed::median).collect::<Vec<_>>();
            (medians(compile), medians(run), probes)
        });
        let mut probes = Vec::new();
        for (compile, run, p) in outs {
            probes.extend(p);
            for k in 0..self.sigs.len() {
                self.compile[k].push(compile[k]);
                self.run[k].push(run[k]);
            }
        }
        median(&mut probes)
    }

    /// Geometric means over the signatures of each one's median over the
    /// slices and threads of the run: `(compile_us, run_us)`.
    fn geomeans(&self) -> (Pair, Pair) {
        let g = |t: &[Timed]| {
            Pair::map(&t.iter().map(Timed::median).collect::<Vec<_>>(), |v| geomean(v))
        };
        (g(&self.compile), g(&self.run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_disturbed_window_does_not_set_the_p99() {
        let calm: Vec<f64> = (0..1000).map(|k| 100.0 + k as f64 / 100.0).collect();
        let mut windows = vec![calm.clone(); 5];
        windows[2] = vec![50_000.0; 1000];
        let p99 = median(&mut group_p99s(&windows));
        assert!(p99 < 200.0, "median over groups ignores the burst: {p99}");
        // Too few samples for two groups: the p99 of everything.
        let few = vec![vec![1.0; 600], vec![2.0; 600]];
        assert_eq!(group_p99s(&few), vec![2.0]);
    }
}
