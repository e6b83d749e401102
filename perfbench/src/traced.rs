//! A timing wrapper around the `engine` backend.
//!
//! Registered as `traced-engine` through `laab_backend::registry`, it
//! forwards every [`Backend`] call to the engine unchanged (the batched
//! entry point too, so stacking behaves exactly as on `engine`) and adds
//! the call's wall time and kernel FLOPs, from
//! `laab_kernels::counters::measure`, to thread-local totals. Kernels
//! record on the thread that calls them, so the totals of an executor
//! thread are exactly the backend work of the plans it ran.

use std::cell::Cell;
use std::time::Instant;

use laab_backend::registry::{self, Registration};
use laab_backend::{Backend, BackendId};
use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_kernels::counters::{self, Kernel, Snapshot};
use laab_kernels::Trans;

/// Registry name of the wrapper.
pub const NAME: &str = "traced-engine";

/// Backend work on one thread since the last [`take`].
#[derive(Debug, Default, Clone, Copy)]
pub struct BackendTotals {
    /// Backend calls.
    pub calls: u64,
    /// Wall time inside backend calls, ns.
    pub ns: u64,
    /// Wall time inside `matmul` / `matmul_batched`, ns.
    pub matmul_ns: u64,
    /// FLOPs of every kernel the calls ran.
    pub flops: u64,
    /// GEMM FLOPs and the time of the calls that ran them.
    pub gemm_flops: u64,
    /// See `gemm_flops`.
    pub gemm_ns: u64,
    /// GEMV and DOT FLOPs and the time of the calls that ran them.
    pub gemv_flops: u64,
    /// See `gemv_flops`.
    pub gemv_ns: u64,
}

thread_local! {
    static TOTALS: Cell<BackendTotals> = const { Cell::new(BackendTotals {
        calls: 0, ns: 0, matmul_ns: 0, flops: 0, gemm_flops: 0, gemm_ns: 0, gemv_flops: 0, gemv_ns: 0,
    }) };
}

/// Return this thread's totals and reset them.
pub fn take() -> BackendTotals {
    TOTALS.with(|t| t.replace(BackendTotals::default()))
}

fn timed<R>(matmul: bool, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let (r, snap): (R, Snapshot) = counters::measure(f);
    let ns = t0.elapsed().as_nanos() as u64;
    TOTALS.with(|t| {
        let mut s = t.get();
        s.calls += 1;
        s.ns += ns;
        s.flops += snap.total_flops();
        if matmul {
            s.matmul_ns += ns;
            let gemm = snap.flops(Kernel::Gemm);
            if gemm > 0 {
                s.gemm_flops += gemm;
                s.gemm_ns += ns;
            } else {
                s.gemv_flops += snap.flops(Kernel::Gemv) + snap.flops(Kernel::Dot);
                s.gemv_ns += ns;
            }
        }
        t.set(s);
    });
    r
}

/// The wrapper itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedEngine;

impl<T: Scalar> Backend<T> for TracedEngine {
    fn id(&self) -> BackendId {
        BackendId::of(NAME)
    }

    fn matmul(&self, alpha: T, a: &Matrix<T>, ta: Trans, b: &Matrix<T>, tb: Trans) -> Matrix<T> {
        timed(true, || laab_backend::engine::<T>().matmul(alpha, a, ta, b, tb))
    }

    fn matmul_batched(
        &self,
        alpha: T,
        a: &Matrix<T>,
        ta: Trans,
        bs: &[&Matrix<T>],
    ) -> Vec<Matrix<T>> {
        timed(true, || laab_backend::engine::<T>().matmul_batched(alpha, a, ta, bs))
    }

    fn geadd(&self, alpha: T, a: &Matrix<T>, beta: T, b: &Matrix<T>) -> Matrix<T> {
        timed(false, || laab_backend::engine::<T>().geadd(alpha, a, beta, b))
    }

    fn geadd_assign(&self, alpha: T, a: &mut Matrix<T>, beta: T, b: &Matrix<T>) {
        timed(false, || laab_backend::engine::<T>().geadd_assign(alpha, a, beta, b))
    }

    fn scale(&self, alpha: T, x: &Matrix<T>) -> Matrix<T> {
        timed(false, || laab_backend::engine::<T>().scale(alpha, x))
    }

    fn scale_assign(&self, alpha: T, x: &mut Matrix<T>) {
        timed(false, || laab_backend::engine::<T>().scale_assign(alpha, x))
    }

    fn tridiag_matmul(&self, t: &Tridiagonal<T>, b: &Matrix<T>) -> Matrix<T> {
        timed(false, || laab_backend::engine::<T>().tridiag_matmul(t, b))
    }
}

static TRACED_REG: Registration = Registration::new(
    NAME,
    "engine behind a timing wrapper (benchmark traced runs only)",
    Some(&TracedEngine),
    Some(&TracedEngine),
);

/// Register the wrapper (idempotent) and return its registration.
pub fn registration() -> &'static Registration {
    if registry::find(NAME).is_none() {
        registry::register(&TRACED_REG).expect("the wrapper's name is free");
    }
    registry::find(NAME).expect("just registered")
}
