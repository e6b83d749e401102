//! The server's request pipeline, rebuilt in-process from the public
//! layer entry points, for the traced run.
//!
//! The order is the server's: the generator encodes a request frame and
//! the reader side decodes it (`proto`), submits it to an
//! `AdmissionQueue::bounded` with the server's window, deadline and
//! backlog; executor threads take batches, bind operands
//! (`Request::env_from_pool`), look plans up (`PlanCache::get_or_compile`),
//! execute (`Plan::execute` / `execute_batched`), checksum the results
//! and encode the response frame, which the generator decodes. Spans
//! are recorded by this file around each of those calls; with tracing off
//! the same pipeline records only the RTT, which is how the cost of the
//! spans themselves is measured.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use laab_backend::{BackendScalar, Registration};
use laab_expr::eval::Env;
use laab_framework::Framework;
use laab_graph::{BatchAnalysis, Schedule};
use laab_serve::proto::{self, Outcome};
use laab_serve::workload::{Family, Request};
use laab_serve::{
    AdmissionQueue, Dtype, FlushKind, Lookup, Message, Plan, PlanCache, ResponseMsg, ServeConfig,
    SubmitOutcome,
};

use crate::driver::{self, Phase, Served};
use crate::gen::Stream;
use crate::traced;

/// Span samples and counts of one traced run, merged over threads.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `encode_frame` per frame (requests and responses), ns.
    pub encode_ns: Vec<f64>,
    /// `decode_frame` per frame, ns.
    pub decode_ns: Vec<f64>,
    /// `submit` → `next_batch` hand-out per request, µs.
    pub wait_us: Vec<f64>,
    /// Flush due → batch handed out, per deadline or occupancy flush, µs.
    pub wakeup_lag_us: Vec<f64>,
    /// Occupancy of each batch.
    pub occupancy: Vec<f64>,
    /// Batches released by their deadline.
    pub deadline_flushes: u64,
    /// Requests the bounded queue shed.
    pub shed: u64,
    /// `env_from_pool` per request, µs.
    pub bind_us: Vec<f64>,
    /// `get_or_compile` on a hit, µs.
    pub lookup_us: Vec<f64>,
    /// `Plan::compile*` on a miss, µs.
    pub compile_us: Vec<f64>,
    /// `function_from_expr` + `into_plan_parts`, µs.
    pub trace_us: Vec<f64>,
    /// `Schedule::new` + `BatchAnalysis::analyze`, µs.
    pub schedule_us: Vec<f64>,
    /// `Plan::execute*` per request (a batch's time split evenly), µs.
    pub exec_us: Vec<f64>,
    /// Execution time outside backend calls per request, µs.
    pub self_us: Vec<f64>,
    /// `result_checksum` per request, µs.
    pub checksum_us: Vec<f64>,
    /// Plan executions counted per request.
    pub requests: u64,
    /// Requests executed inside a stacked batch.
    pub stacked: u64,
    /// Cache hits and misses.
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
    /// Backend totals over every execution.
    pub backend: traced::BackendTotals,
}

impl Layers {
    fn merge(&mut self, o: Layers) {
        self.encode_ns.extend(o.encode_ns);
        self.decode_ns.extend(o.decode_ns);
        self.wait_us.extend(o.wait_us);
        self.wakeup_lag_us.extend(o.wakeup_lag_us);
        self.occupancy.extend(o.occupancy);
        self.deadline_flushes += o.deadline_flushes;
        self.shed += o.shed;
        self.bind_us.extend(o.bind_us);
        self.lookup_us.extend(o.lookup_us);
        self.compile_us.extend(o.compile_us);
        self.trace_us.extend(o.trace_us);
        self.schedule_us.extend(o.schedule_us);
        self.exec_us.extend(o.exec_us);
        self.self_us.extend(o.self_us);
        self.checksum_us.extend(o.checksum_us);
        self.requests += o.requests;
        self.stacked += o.stacked;
        self.hits += o.hits;
        self.misses += o.misses;
        self.add_backend(o.backend);
    }

    /// Add one execution's backend totals.
    pub fn add_backend(&mut self, b: traced::BackendTotals) {
        let t = &mut self.backend;
        t.calls += b.calls;
        t.ns += b.ns;
        t.matmul_ns += b.matmul_ns;
        t.flops += b.flops;
        t.gemm_flops += b.gemm_flops;
        t.gemm_ns += b.gemm_ns;
        t.gemv_flops += b.gemv_flops;
        t.gemv_ns += b.gemv_ns;
    }
}

/// What one in-process run measured.
#[derive(Debug, Default)]
pub struct PipelineOut {
    /// RTT of each answered request from its due time, µs.
    pub rtt_us: Vec<f64>,
    /// Generator lateness per send, µs.
    pub late_us: Vec<f64>,
    /// Requests generated.
    pub offered: u64,
    /// Requests answered.
    pub ok: u64,
    /// Every answered request, for the correctness check.
    pub served: Vec<Served>,
    /// Spans (empty when tracing is off).
    pub layers: Layers,
    /// Plan-cache evictions over the timed window.
    pub evictions: u64,
}

type Key = (Family, usize, Dtype);

struct Job {
    index: u64,
    request: Request,
    submitted: Instant,
}

struct PoolPair {
    f64: Env<f64>,
    f32: Env<f32>,
}

/// Everything an executor shares.
struct Ctx<'a> {
    cfg: &'a ServeConfig,
    fw: Framework,
    cache: PlanCache,
    pools: Mutex<HashMap<(Family, usize), Arc<PoolPair>>>,
    reg: &'static Registration,
    traced: bool,
}

impl Ctx<'_> {
    fn pool(&self, family: Family, n: usize) -> Arc<PoolPair> {
        if let Some(p) = self.pools.lock().expect("pool map").get(&(family, n)) {
            return p.clone();
        }
        let seed = self.cfg.seed;
        let built =
            Arc::new(PoolPair { f64: family.env::<f64>(n, seed), f32: family.env::<f32>(n, seed) });
        self.pools.lock().expect("pool map").entry((family, n)).or_insert(built).clone()
    }

    /// Execute one batch; return `(index, response frame)` per job.
    fn process(&self, jobs: &[Job], kind: FlushKind, l: &mut Layers) -> Vec<(u64, Vec<u8>)> {
        let req0 = jobs[0].request;
        let pool = self.pool(req0.family, req0.n);
        let t0 = Instant::now();
        let sums = match req0.dtype {
            Dtype::F64 => self.typed::<f64>(jobs, &pool.f64, l),
            Dtype::F32 => self.typed::<f32>(jobs, &pool.f32, l),
        };
        let share = t0.elapsed().as_nanos() as u64 / jobs.len() as u64;
        let occupancy = jobs.len() as u32;
        jobs.iter()
            .zip(sums)
            .map(|(job, checksum)| {
                let msg = Message::Response(ResponseMsg {
                    id: job.index,
                    outcome: Outcome::Ok {
                        queue_ns: t0.duration_since(job.submitted).as_nanos() as u64,
                        exec_ns: share,
                        occupancy,
                        flush: kind,
                        checksum,
                    },
                });
                let t = Instant::now();
                let frame = proto::encode_frame(&msg);
                if self.traced {
                    l.encode_ns.push(t.elapsed().as_nanos() as f64);
                }
                (job.index, frame)
            })
            .collect()
    }

    fn typed<T: BackendScalar>(&self, jobs: &[Job], pool: &Env<T>, l: &mut Layers) -> Vec<u64> {
        let occ = jobs.len();
        let per = |d: Duration| d.as_secs_f64() * 1e6 / occ as f64;
        let req0 = jobs[0].request;
        let seed = self.cfg.seed;
        let has_payload = !req0.family.payload_operands().is_empty();

        let t = Instant::now();
        let owned: Vec<Env<T>> = if has_payload {
            jobs.iter().map(|j| j.request.env_from_pool(pool, seed)).collect()
        } else {
            Vec::new()
        };
        let refs: Vec<&Env<T>> =
            if has_payload { owned.iter().collect() } else { jobs.iter().map(|_| pool).collect() };
        let bind = per(t.elapsed());

        let t = Instant::now();
        let mut compile_us = None;
        let (plan, lookup) = self.cache.get_or_compile(req0.signature(self.reg.id()), || {
            let (expr, ctx) = (req0.family.expr(req0.n), req0.family.ctx(req0.n));
            let varying = req0.family.varying_operands();
            if self.traced {
                // The compile's two halves, timed apart; the plan itself
                // is compiled below exactly as the server compiles it.
                let t = Instant::now();
                let (graph, _, _) = self.fw.function_from_expr(&expr, &ctx).into_plan_parts();
                l.trace_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                std::hint::black_box(Schedule::new(&graph));
                std::hint::black_box(BatchAnalysis::analyze(&graph, |n| varying.contains(&n)));
                l.schedule_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let t = Instant::now();
            let plan = Plan::compile_with_varying(&self.fw, &expr, &ctx, self.reg, varying);
            compile_us = Some(t.elapsed().as_secs_f64() * 1e6);
            plan
        });
        let lookup_us = t.elapsed().as_secs_f64() * 1e6;

        traced::take();
        let t = Instant::now();
        let results = if occ >= 2 {
            plan.execute_batched::<T>(&refs)
        } else {
            vec![plan.execute::<T>(refs[0])]
        };
        let exec = t.elapsed();
        let backend = traced::take();

        let t = Instant::now();
        let sums: Vec<u64> = results.iter().map(|r| proto::result_checksum(r)).collect();
        let checksum = per(t.elapsed());

        if self.traced {
            match lookup {
                Lookup::Hit => {
                    l.hits += 1;
                    l.lookup_us.push(lookup_us);
                }
                Lookup::Compiled { .. } => {
                    l.misses += 1;
                    l.compile_us.extend(compile_us);
                }
            }
            let exec_us = per(exec);
            let self_us = (exec.as_nanos() as f64 - backend.ns as f64) / 1e3 / occ as f64;
            for _ in 0..occ {
                l.bind_us.push(bind);
                l.exec_us.push(exec_us);
                l.self_us.push(self_us);
                l.checksum_us.push(checksum);
            }
            l.requests += occ as u64;
            if occ >= 2 && plan.stackable() {
                l.stacked += occ as u64;
            }
            l.add_backend(backend);
        }
        sums
    }
}

/// Run the pipeline open-loop for one phase of `stream`, after one
/// untimed pass over every signature (the server's warm-up).
pub fn run(
    stream: &Stream,
    phase: &Phase,
    cfg: &ServeConfig,
    reg: &'static Registration,
    traced: bool,
) -> PipelineOut {
    let ctx = Ctx {
        cfg,
        fw: Framework::flow(),
        cache: PlanCache::with_shards(cfg.cache_capacity.max(1), cfg.shards),
        pools: Mutex::new(HashMap::new()),
        reg,
        traced: false,
    };
    let mut scratch = Layers::default();
    for (k, (family, n, dtype)) in stream.signatures().into_iter().enumerate() {
        let request = Request { family, n, dtype, payload: k as u64 };
        let job = Job { index: u64::MAX, request, submitted: Instant::now() };
        ctx.process(&[job], FlushKind::Drain, &mut scratch);
    }
    let ctx = Ctx { traced, ..ctx };
    let evictions_before = ctx.cache.stats().evictions;

    let queue: AdmissionQueue<Key, Job> =
        AdmissionQueue::bounded(cfg.batch_window, cfg.deadline(), cfg.backlog);
    let merged = Mutex::new(Layers::default());
    let (tx, rx) = mpsc::channel::<(u64, Vec<u8>)>();
    let plan = driver::schedule(stream, phase);
    let mut out = PipelineOut::default();
    let mut gen_layers = Layers::default();
    let deadline = cfg.deadline();

    std::thread::scope(|s| {
        for _ in 0..cfg.resolved_clients() {
            let (queue, ctx, merged, tx) = (&queue, &ctx, &merged, tx.clone());
            s.spawn(move || {
                let mut l = Layers::default();
                while let Some(batch) = queue.next_batch() {
                    let handed = Instant::now();
                    if ctx.traced {
                        for job in &batch.items {
                            l.wait_us
                                .push(handed.duration_since(job.submitted).as_secs_f64() * 1e6);
                        }
                        l.occupancy.push(batch.items.len() as f64);
                        let due = match batch.kind {
                            FlushKind::Deadline => {
                                l.deadline_flushes += 1;
                                deadline.map(|d| batch.enqueued_at + d)
                            }
                            FlushKind::Occupancy => batch.items.iter().map(|j| j.submitted).max(),
                            FlushKind::Drain | FlushKind::Pressure => None,
                        };
                        if let Some(due) = due {
                            l.wakeup_lag_us
                                .push(handed.saturating_duration_since(due).as_secs_f64() * 1e6);
                        }
                    }
                    for resp in ctx.process(&batch.items, batch.kind, &mut l) {
                        if tx.send(resp).is_err() {
                            break;
                        }
                    }
                }
                merged.lock().expect("layer merge").merge(l);
            });
        }
        drop(tx);

        let mut pending: HashMap<u64, (Instant, Request)> = HashMap::new();
        let start = Instant::now() + Duration::from_millis(2);
        let mut next = 0;
        let mut drain_until: Option<Instant> = None;
        loop {
            let now = Instant::now();
            while next < plan.len() && start + plan[next].1 <= now {
                let (index, offset) = plan[next];
                next += 1;
                let due = start + offset;
                out.late_us.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
                let req = stream.request(index);
                let t = Instant::now();
                let frame = proto::encode_frame(&driver::wire(index, &req));
                let t1 = Instant::now();
                let decoded = proto::decode_frame(&frame);
                let t2 = Instant::now();
                if traced {
                    gen_layers.encode_ns.push(t1.duration_since(t).as_nanos() as f64);
                    gen_layers.decode_ns.push(t2.duration_since(t1).as_nanos() as f64);
                }
                let Ok((Message::Request(msg), _)) = decoded else {
                    panic!("request frame {index} does not round-trip");
                };
                let family = Family::from_id(&msg.family).expect("generated family is known");
                let request =
                    Request { family, n: msg.n as usize, dtype: msg.dtype, payload: msg.payload };
                out.offered += 1;
                let job = Job { index, request, submitted: Instant::now() };
                match queue.submit((family, request.n, request.dtype), job) {
                    SubmitOutcome::Queued => {
                        pending.insert(index, (due, request));
                    }
                    _ => gen_layers.shed += 1,
                }
            }
            if next == plan.len() && drain_until.is_none() {
                drain_until = Some(Instant::now() + Duration::from_secs(10));
            }
            if next == plan.len() && pending.is_empty() {
                break;
            }
            let now = Instant::now();
            let until = if next < plan.len() {
                start + plan[next].1
            } else {
                drain_until.expect("set once sending ends")
            };
            if next == plan.len() && now >= until {
                break;
            }
            let Ok((index, frame)) = rx.recv_timeout(until.saturating_duration_since(now)) else {
                continue;
            };
            let arrived = Instant::now();
            let decoded = proto::decode_frame(&frame);
            if traced {
                gen_layers.decode_ns.push(arrived.elapsed().as_nanos() as f64);
            }
            let Ok((Message::Response(ResponseMsg { outcome, .. }), _)) = decoded else {
                panic!("response frame {index} does not round-trip");
            };
            let Outcome::Ok { occupancy, checksum, .. } = outcome else {
                panic!("the in-process pipeline answers every request Ok");
            };
            if let Some((due, request)) = pending.remove(&index) {
                out.ok += 1;
                out.rtt_us.push(arrived.duration_since(due).as_secs_f64() * 1e6);
                out.served.push(Served { index, request, occupancy, checksum });
            }
        }
        queue.close();
    });
    let mut layers = merged.into_inner().expect("layer merge");
    layers.merge(gen_layers);
    out.layers = layers;
    out.evictions = ctx.cache.stats().evictions - evictions_before;
    out
}
