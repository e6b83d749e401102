//! The open-loop socket driver.
//!
//! Arrivals follow an absolute schedule: request `k` of a phase is due at
//! `start + Σ gaps`, and its RTT is timed from that due instant, so a
//! stall of the generator or of the server shows up as latency of every
//! request it delays, never as a quietly lowered offered load. How late
//! each send actually went out is recorded separately.
//!
//! Each connection has two threads, a sender that sleeps to each due
//! instant and writes with [`proto::write_message`], and a receiver that
//! blocks in [`proto::read_message`]; `nproc / 2` connections (at least
//! one) keep the driver within `nproc` threads. Sleeping rather than
//! waiting on a socket read timeout matters: the kernel rounds socket
//! timeouts to scheduler ticks, milliseconds, while `nanosleep` wakes
//! within tens of microseconds.
//!
//! [`run_saturated`] is the closed-loop counterpart the max-rate
//! measurement uses: a fixed number of requests kept outstanding, each
//! answer releasing the next send, so the server runs at its capacity
//! with a bounded backlog.

use std::collections::HashMap;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use laab_serve::proto::{self, Outcome};
use laab_serve::workload::Request;
use laab_serve::{Message, RequestMsg};

use crate::gen::Stream;

/// How long a phase waits for its last responses before counting the
/// rest as lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// One served request, kept for the correctness check.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Index of the request in the workload's stream.
    pub index: u64,
    /// The request.
    pub request: Request,
    /// Occupancy of the batch that executed it.
    pub occupancy: u32,
    /// The server's result checksum.
    pub checksum: u64,
}

/// One open-loop phase: a slice of the stream at a fixed Poisson rate.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// First stream index the phase sends.
    pub first: u64,
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Length of the sending window.
    pub duration: Duration,
    /// Stop sending (and fail the phase) once this many requests are in
    /// flight: the backlog is past anything the latency limit allows.
    pub abort_inflight: i64,
}

/// What one phase measured.
#[derive(Debug, Default, Clone)]
pub struct PhaseResult {
    /// Requests sent.
    pub offered: u64,
    /// Terminal outcomes by class.
    pub ok: u64,
    /// `Busy` (shed) responses.
    pub busy: u64,
    /// `Expired` responses.
    pub expired: u64,
    /// `Failed` responses.
    pub failed: u64,
    /// `Err` (rejected) responses.
    pub err: u64,
    /// Requests with no response within the drain limit.
    pub lost: u64,
    /// RTT of each `Ok` response from its due send time, microseconds.
    pub rtt_us: Vec<f64>,
    /// How late each send went out after its due time, microseconds.
    pub late_us: Vec<f64>,
    /// Requests in flight when sending ended.
    pub inflight_end: i64,
    /// Whether sending stopped early on the in-flight cap.
    pub aborted: bool,
    /// Every `Ok` response.
    pub served: Vec<Served>,
    /// From the phase start to the last send, seconds.
    pub send_span_s: f64,
    /// `Ok` responses that arrived before sending ended.
    pub ok_in_span: u64,
    /// The first stream index after this phase.
    pub next_index: u64,
}

impl PhaseResult {
    /// Requests that did not end `Ok`.
    pub fn not_ok(&self) -> u64 {
        self.busy + self.expired + self.failed + self.err + self.lost
    }

    /// Requests that missed `limit_us`: slow ones plus every failure.
    pub fn over_limit(&self, limit_us: f64) -> u64 {
        self.rtt_us.iter().filter(|&&r| r > limit_us).count() as u64 + self.not_ok()
    }

    /// At most 1% of requests over the p99 limit (failures count as over
    /// it) and at most 1% failed.
    pub fn meets_limit(&self, limit_us: f64) -> bool {
        let allowed = (self.offered as f64 * 0.01).floor() as u64;
        self.offered > 0 && self.not_ok() <= allowed && self.over_limit(limit_us) <= allowed
    }

    /// Whether an open-loop phase meets the max-rate conditions:
    /// [`PhaseResult::meets_limit`], and no growing backlog — no more
    /// requests in flight when sending ends than Little's law allows at
    /// the limit (`rate × limit`), and sending never stopped on the
    /// in-flight cap.
    pub fn sustains(&self, limit_us: f64, rate: f64) -> bool {
        let little = (rate * limit_us / 1e6).max(16.0);
        !self.aborted && self.inflight_end as f64 <= little && self.meets_limit(limit_us)
    }

    /// Requests sent per second, as the sends actually went out.
    pub fn send_rate(&self) -> f64 {
        self.offered as f64 / self.send_span_s.max(1e-9)
    }

    /// Add another window of the same phase (in-flight counts are the
    /// latest window's).
    pub fn absorb(&mut self, o: PhaseResult) {
        let span = self.send_span_s + o.send_span_s;
        let (end, next) = (o.inflight_end, o.next_index);
        self.merge(o);
        self.send_span_s = span;
        self.inflight_end = end;
        self.next_index = next;
    }

    /// Add another connection's share of the same phase.
    fn merge(&mut self, o: PhaseResult) {
        self.offered += o.offered;
        self.ok += o.ok;
        self.busy += o.busy;
        self.expired += o.expired;
        self.failed += o.failed;
        self.err += o.err;
        self.lost += o.lost;
        self.rtt_us.extend(o.rtt_us);
        self.late_us.extend(o.late_us);
        self.ok_in_span += o.ok_in_span;
        self.inflight_end += o.inflight_end;
        self.aborted |= o.aborted;
        self.served.extend(o.served);
        self.send_span_s = self.send_span_s.max(o.send_span_s);
    }
}

/// The arrival schedule of a phase: `(stream index, offset from start)`.
///
/// A Poisson stream conditioned on its count: `round(rate × duration)`
/// arrivals, spaced by the stream's seeded exponential gaps rescaled to
/// fill the window. Every phase at one rate and length therefore offers
/// exactly the same number of requests, whatever the seed.
pub fn schedule(stream: &Stream, phase: &Phase) -> Vec<(u64, Duration)> {
    let n = (phase.rate * phase.duration.as_secs_f64()).round().max(1.0) as u64;
    let gaps: Vec<f64> = (0..=n).map(|k| stream.gap_secs(phase.first + k, phase.rate)).collect();
    let scale = phase.duration.as_secs_f64() / gaps.iter().sum::<f64>();
    let mut t = 0.0;
    (0..n)
        .map(|k| {
            t += gaps[k as usize] * scale;
            (phase.first + k, Duration::from_secs_f64(t))
        })
        .collect()
}

/// Connections the driver opens: each costs two threads, and the driver
/// uses at most `nproc`.
pub fn connections() -> usize {
    (std::thread::available_parallelism().map_or(1, |n| n.get()) / 2).max(1)
}

/// Run one phase against the server at `addr` over [`connections`].
pub fn run_phase(addr: &Path, stream: &Stream, phase: &Phase) -> PhaseResult {
    let conns = connections();
    let plan = schedule(stream, phase);
    let next_index = plan.last().map_or(phase.first, |&(i, _)| i + 1);
    let inflight = AtomicI64::new(0);
    let abort = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    let mut out = PhaseResult { next_index, ..Default::default() };
    let results: Vec<PhaseResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<(u64, Duration)> =
                    plan.iter().skip(c).step_by(conns).copied().collect();
                let (inflight, abort) = (&inflight, &abort);
                s.spawn(move || {
                    drive_connection(addr, stream, &mine, start, phase, inflight, abort)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
    });
    for r in results {
        out.merge(r);
    }
    out
}

/// How often the sender looks at the receive count while it drains.
const DRAIN_POLL: Duration = Duration::from_millis(1);

/// One connection: this thread sends its share of the schedule, sleeping
/// to each due instant, while a receiver thread reads the responses.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    addr: &Path,
    stream: &Stream,
    mine: &[(u64, Duration)],
    start: Instant,
    phase: &Phase,
    inflight: &AtomicI64,
    abort: &AtomicBool,
) -> PhaseResult {
    let mut sock = UnixStream::connect(addr).expect("connect to the benchmark's own server");
    let reader = sock.try_clone().expect("clone the connection for its receiver");
    let due_of: HashMap<u64, Instant> = mine.iter().map(|&(i, off)| (i, start + off)).collect();
    let received = AtomicU64::new(0);
    let mut r = PhaseResult::default();
    let got = std::thread::scope(|s| {
        let due = |id: u64| due_of.get(&id).copied();
        let (received, end) = (&received, start + phase.duration);
        let receiver =
            s.spawn(move || receive(reader, stream, &due, &|| {}, received, inflight, end));
        for &(index, offset) in mine {
            let due = start + offset;
            if abort.load(Ordering::Relaxed) {
                r.aborted = true;
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let req = stream.request(index);
            r.late_us.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
            proto::write_message(&mut sock, &wire(index, &req)).expect("write a request frame");
            r.offered += 1;
            r.send_span_s = start.elapsed().as_secs_f64();
            if inflight.fetch_add(1, Ordering::Relaxed) + 1 > phase.abort_inflight {
                abort.store(true, Ordering::Relaxed);
            }
        }
        r.inflight_end = r.offered as i64 - received.load(Ordering::Relaxed) as i64;
        let until = Instant::now() + DRAIN_LIMIT;
        while received.load(Ordering::Relaxed) < r.offered && Instant::now() < until {
            std::thread::sleep(DRAIN_POLL);
        }
        // Unblock the receiver's read, answered or not.
        let _ = sock.shutdown(Shutdown::Both);
        receiver.join().expect("receiver thread panicked")
    });
    r.take_answers(got);
    inflight.fetch_sub(r.lost as i64, Ordering::Relaxed);
    r
}

impl PhaseResult {
    /// Take a receiver's answers into this sender's result and count the
    /// requests it sent that got none.
    fn take_answers(&mut self, got: PhaseResult) {
        self.ok = got.ok;
        self.busy = got.busy;
        self.expired = got.expired;
        self.failed = got.failed;
        self.err = got.err;
        self.rtt_us = got.rtt_us;
        self.served = got.served;
        self.ok_in_span = got.ok_in_span;
        let answered = self.ok + self.busy + self.expired + self.failed + self.err;
        self.lost = self.offered - answered.min(self.offered);
    }
}

/// A closed-loop phase: `inflight` requests kept outstanding for
/// `duration`, starting at stream index `first`.
#[derive(Debug, Clone, Copy)]
pub struct Saturation {
    /// First stream index the phase sends.
    pub first: u64,
    /// Requests outstanding at once, over all connections.
    pub inflight: usize,
    /// Length of the sending window.
    pub duration: Duration,
}

/// Run one closed-loop phase over [`connections`]. Each connection keeps
/// its share of `inflight` requests outstanding, sending the next stream
/// request as each answer arrives, until `duration` has passed; RTT is
/// timed from each actual send. `ok_in_span / duration` is the rate
/// the server served requests at.
pub fn run_saturated(addr: &Path, stream: &Stream, sat: &Saturation) -> PhaseResult {
    let conns = connections();
    let next = AtomicU64::new(sat.first);
    let inflight = AtomicI64::new(0);
    let start = Instant::now();
    let end = start + sat.duration;
    let mut out = PhaseResult::default();
    let results: Vec<PhaseResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let window = (sat.inflight / conns + usize::from(c < sat.inflight % conns)).max(1);
                let (next, inflight) = (&next, &inflight);
                s.spawn(move || saturate_connection(addr, stream, window, next, end, inflight))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
    });
    for r in results {
        out.merge(r);
    }
    out.send_span_s = sat.duration.as_secs_f64();
    out.next_index = next.load(Ordering::Relaxed);
    out
}

/// One closed-loop connection: send `window` requests, then, from the
/// receiver thread, one more per answer until `end`; then drain. Sending
/// from the receiver keeps the closed loop to one thread and no hand-off
/// per request, so the driver takes as little CPU from the server as it
/// can.
fn saturate_connection(
    addr: &Path,
    stream: &Stream,
    window: usize,
    next: &AtomicU64,
    end: Instant,
    inflight: &AtomicI64,
) -> PhaseResult {
    let sock = UnixStream::connect(addr).expect("connect to the benchmark's own server");
    let reader = sock.try_clone().expect("clone the connection for its receiver");
    let closer = sock.try_clone().expect("clone the connection to close it");
    let writer = std::sync::Mutex::new(sock);
    let sent_at: std::sync::Mutex<HashMap<u64, Instant>> = Default::default();
    let (offered, received) = (AtomicU64::new(0), AtomicU64::new(0));
    let send = || {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let req = stream.request(index);
        sent_at.lock().expect("send-time map").insert(index, Instant::now());
        let mut w = writer.lock().expect("request writer");
        proto::write_message(&mut *w, &wire(index, &req)).expect("write a request frame");
        inflight.fetch_add(1, Ordering::Relaxed);
        offered.fetch_add(1, Ordering::Relaxed);
    };
    let mut r = PhaseResult::default();
    let got = std::thread::scope(|s| {
        let due = |id: u64| sent_at.lock().expect("send-time map").get(&id).copied();
        let (received, send) = (&received, &send);
        let receiver = s.spawn(move || {
            let release = || {
                if Instant::now() < end {
                    send();
                }
            };
            receive(reader, stream, &due, &release, received, inflight, end)
        });
        for _ in 0..window {
            send();
        }
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        let sent = || offered.load(Ordering::Relaxed);
        r.inflight_end = sent() as i64 - received.load(Ordering::Relaxed) as i64;
        let until = Instant::now() + DRAIN_LIMIT;
        while received.load(Ordering::Relaxed) < sent() && Instant::now() < until {
            std::thread::sleep(DRAIN_POLL);
        }
        let _ = closer.shutdown(Shutdown::Both);
        receiver.join().expect("receiver thread panicked")
    });
    r.offered = offered.load(Ordering::Relaxed);
    r.take_answers(got);
    inflight.fetch_sub(r.lost as i64, Ordering::Relaxed);
    r
}

/// Read responses until the connection is shut down, timing each from
/// the instant `due` gives for its request and calling `answered` after
/// each terminal answer. `Ok` answers before `end` count in
/// `ok_in_span`.
fn receive(
    mut sock: UnixStream,
    stream: &Stream,
    due: &dyn Fn(u64) -> Option<Instant>,
    answered: &dyn Fn(),
    received: &AtomicU64,
    inflight: &AtomicI64,
    end: Instant,
) -> PhaseResult {
    let mut r = PhaseResult::default();
    let mut seen = std::collections::HashSet::new();
    while let Ok(Some(msg)) = proto::read_message(&mut sock) {
        let arrived = Instant::now();
        let Message::Response(resp) = msg else { continue };
        let Some(due) = due(resp.id) else { continue };
        if !seen.insert(resp.id) {
            continue;
        }
        match resp.outcome {
            Outcome::Ok { occupancy, checksum, .. } => {
                r.ok += 1;
                r.ok_in_span += u64::from(arrived <= end);
                r.rtt_us.push(arrived.duration_since(due).as_secs_f64() * 1e6);
                let request = stream.request(resp.id);
                r.served.push(Served { index: resp.id, request, occupancy, checksum });
            }
            Outcome::Busy { .. } => r.busy += 1,
            Outcome::Expired { .. } => r.expired += 1,
            Outcome::Failed { .. } => r.failed += 1,
            Outcome::Err { .. } => r.err += 1,
        }
        inflight.fetch_sub(1, Ordering::Relaxed);
        received.fetch_add(1, Ordering::Relaxed);
        answered();
    }
    r
}

/// The wire frame of stream request `index` (the index is its id).
pub fn wire(index: u64, req: &Request) -> Message {
    Message::Request(RequestMsg {
        id: index,
        family: req.family.id().to_string(),
        n: req.n as u64,
        dtype: req.dtype,
        backend: "engine".to_string(),
        payload: req.payload,
        deadline_us: 0,
    })
}

/// Send each request once, closed-loop, on one connection, and return
/// the `Ok` responses; any other outcome is an error.
pub fn closed_loop(addr: &Path, reqs: &[(u64, Request)]) -> Result<Vec<Served>, String> {
    let mut sock = UnixStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = Vec::new();
    for &(index, req) in reqs {
        proto::write_message(&mut sock, &wire(index, &req)).map_err(|e| format!("write: {e}"))?;
        match proto::read_message(&mut sock) {
            Ok(Some(Message::Response(resp))) => match resp.outcome {
                Outcome::Ok { occupancy, checksum, .. } if resp.id == index => {
                    out.push(Served { index, request: req, occupancy, checksum })
                }
                other => return Err(format!("request {index}: {other:?}")),
            },
            other => return Err(format!("request {index}: unexpected {other:?}")),
        }
    }
    Ok(out)
}

/// Ask the server to shut down and wait for its acknowledgement.
pub fn shutdown(addr: &Path) -> Result<(), String> {
    let mut sock = UnixStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    proto::write_message(&mut sock, &Message::Shutdown).map_err(|e| format!("write: {e}"))?;
    loop {
        match proto::read_message(&mut sock) {
            Ok(Some(Message::ShutdownAck)) => return Ok(()),
            Ok(Some(_)) => continue,
            other => return Err(format!("no shutdown acknowledgement: {other:?}")),
        }
    }
}
