//! Order statistics with the benchmark's reporting rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 needs 1000 samples. Every timing is a nearest-rank
//! percentile over the raw samples; aggregates over expressions are
//! geometric means.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Whether the `q`-quantile (0 < q < 1) of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    // The epsilon absorbs `1 - q` landing just under its decimal value.
    (n as f64 * (1.0 - q) + 1e-9).floor() as usize >= MIN_BEYOND
}

/// The highest percentile (of 50, 90, 99, 99.9) that `n` samples support,
/// or `None` when even the median lacks [`MIN_BEYOND`] samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5].into_iter().find(|&q| reportable(n, q))
}

/// Nearest-rank `q`-quantile of `samples` (sorted in place). `NaN` on an
/// empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Run `f(thread_index)` on one thread per CPU at once and return the
/// results in thread order.
///
/// Single-threaded timings on a small shared machine depend on which CPU
/// the thread lands on (one vCPU may share its core with a busy
/// neighbour), and a thread tends to stay where it started for a whole
/// run. Running one measuring thread per CPU and averaging their results
/// samples every CPU in every run, instead of one CPU chosen by chance.
pub fn per_cpu<R: Send>(f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                s.spawn({
                    let f = &f;
                    move || f(t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("measuring thread panicked")).collect()
    })
}

/// One run of the machine-speed probe, µs: a fixed piece of work written
/// here, with no code of the repository in it — a naive 64×64 f64 matrix
/// product (arithmetic) and building and walking a 4096-key ordered map
/// (allocation and dependent loads). It measures how fast the machine is
/// at the moment, so a run's timings can be read against it; a change to
/// the repository cannot move it.
pub fn speed_probe_us() -> f64 {
    speed_probe_body()
}

/// The probe time, µs, of the reference machine the end-to-end timings
/// are scaled to (see [`speed_scale`]): about what the probe took, one
/// thread per CPU at once, on the quiet 2-vCPU AVX-512 machine the
/// benchmark was defined on. Part of the benchmark's definition; it never
/// changes.
pub const PROBE_REF_US: f64 = 650.0;

/// The factor that takes a time measured on this machine, at the moment
/// the probes `probe_us` were taken, to the reference machine:
/// [`PROBE_REF_US`] over their median. A machine running 20% slow (a
/// probe of 780 µs) has its times multiplied by 0.83 and its rates
/// divided by it.
pub fn speed_scale(probe_us: &[f64]) -> f64 {
    PROBE_REF_US / median(&mut probe_us.to_vec())
}

/// Samples kept twice: as measured, and scaled to the reference machine
/// with the [`speed_scale`] of the moment each was taken.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// As measured.
    pub measured: Vec<f64>,
    /// At the reference machine's speed.
    pub scaled: Vec<f64>,
}

/// A figure as measured and at the reference machine's speed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pair {
    /// As measured.
    pub measured: f64,
    /// At the reference machine's speed.
    pub scaled: f64,
}

impl Timed {
    /// Add a time taken at speed scale `scale`.
    pub fn time(&mut self, value: f64, scale: f64) {
        self.measured.push(value);
        self.scaled.push(value * scale);
    }

    /// Add a rate taken at speed scale `scale`.
    pub fn rate(&mut self, value: f64, scale: f64) {
        self.measured.push(value);
        self.scaled.push(value / scale);
    }

    /// Add a figure already taken both ways.
    pub fn push(&mut self, p: Pair) {
        self.measured.push(p.measured);
        self.scaled.push(p.scaled);
    }

    /// Add every sample of `other`.
    pub fn append(&mut self, other: &Timed) {
        self.measured.extend_from_slice(&other.measured);
        self.scaled.extend_from_slice(&other.scaled);
    }

    /// The samples at `keep` indices, in that order.
    pub fn pick(&self, keep: &[usize]) -> Timed {
        Timed {
            measured: keep.iter().map(|&k| self.measured[k]).collect(),
            scaled: keep.iter().map(|&k| self.scaled[k]).collect(),
        }
    }

    /// `f` of both sample sets.
    pub fn map(&self, f: impl Fn(&mut Vec<f64>) -> f64) -> Pair {
        Pair { measured: f(&mut self.measured.clone()), scaled: f(&mut self.scaled.clone()) }
    }

    /// The median of both sample sets.
    pub fn median(&self) -> Pair {
        self.map(|v| median(v))
    }
}

impl Pair {
    /// `f` of both figures of `pairs`.
    pub fn map(pairs: &[Pair], f: impl Fn(&mut Vec<f64>) -> f64) -> Pair {
        let mut t = Timed::default();
        for &p in pairs {
            t.push(p);
        }
        t.map(f)
    }
}

fn speed_probe_body() -> f64 {
    const N: usize = 64;
    let t = std::time::Instant::now();
    let a: Vec<f64> = (0..N * N).map(|k| (k % 17) as f64 * 0.125).collect();
    let mut c = vec![0.0f64; N * N];
    for i in 0..N {
        for k in 0..N {
            let x = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += x * a[k * N + j];
            }
        }
    }
    let mut map = std::collections::BTreeMap::new();
    let mut key = 1u64;
    for v in 0..4096u64 {
        key = key.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        map.insert(key >> 20, v);
    }
    let walked: u64 = map.values().sum();
    std::hint::black_box((c, walked));
    t.elapsed().as_secs_f64() * 1e6
}

/// Steal share up to which a window counts as quiet ([`quiet`]): two
/// scheduler ticks in a hundred, the resolution `/proc/stat` gives a
/// window of about half a second on two CPUs.
pub const QUIET_STEAL: f64 = 0.02;
/// Fewest windows [`quiet`] takes, so that a median over them is not one
/// window's figure.
pub const QUIET_MIN_WINDOWS: usize = 3;

/// The quiet windows of a run, in run order: every window in which the
/// host took at most [`QUIET_STEAL`] of the CPU time (`steal`), and when
/// those are fewer than [`QUIET_MIN_WINDOWS`] or hold fewer than
/// `min_samples` of the window sizes `sizes`, the least stolen windows
/// next until they are not.
pub fn quiet(steal: &[f64], sizes: &[usize], min_samples: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    let (mut chosen, mut samples) = (Vec::new(), 0);
    for k in order {
        if steal[k] > QUIET_STEAL && chosen.len() >= QUIET_MIN_WINDOWS && samples >= min_samples {
            break;
        }
        chosen.push(k);
        samples += sizes[k];
    }
    chosen.sort_unstable();
    chosen
}

/// Measures the share of all CPUs' time the host took (steal) between its
/// start and [`StealMeter::share`], from `/proc/stat`; 0 where the kernel
/// does not count it.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    /// Start measuring.
    pub fn start() -> StealMeter {
        StealMeter(crate::report::cpu_steal())
    }

    /// The share stolen since [`StealMeter::start`].
    pub fn share(&self) -> f64 {
        match (self.0, crate::report::cpu_steal()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// Average ranks (1-based, ties share their mean rank).
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation of paired samples; `0` when undefined.
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "spearman: unpaired samples");
    let (rx, ry) = (ranks(x), ranks(y));
    let (mx, my) = (mean(&rx), mean(&ry));
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in rx.iter().zip(&ry) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(!reportable(999, 0.99), "999 samples leave 9 beyond p99");
        assert!(reportable(1000, 0.99));
        assert!(reportable(20, 0.5));
        assert!(!reportable(19, 0.5));
        assert!(reportable(100, 0.9));
        assert!(!reportable(99, 0.9));
        assert_eq!(highest_supported(5000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(500), Some(0.9));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn geomean_and_spearman() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 35.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn quiet_windows_are_the_unstolen_ones_or_the_least_stolen_three() {
        let steal = [0.2, 0.0, 0.1, 0.05, 0.3, 0.01, 0.15, 0.02, 0.25];
        assert_eq!(quiet(&steal, &[500; 9], 0), vec![1, 5, 7]);
        // Too few samples in the quiet windows for a p99: take more.
        assert_eq!(quiet(&steal, &[300; 9], 1100), vec![1, 3, 5, 7]);
        // Hardly a quiet window: the least stolen three.
        let busy = [0.2, 0.1, 0.3, 0.25, 0.15, 0.4, 0.35, 0.5];
        assert_eq!(quiet(&busy, &[500; 8], 0), vec![0, 1, 4]);
        assert_eq!(quiet(&[0.0; 4], &[10; 4], 1100), vec![0, 1, 2, 3]);
    }
}
