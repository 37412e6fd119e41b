//! Sample summaries and process measurements.

use std::time::{Duration, Instant};

/// Latency samples in nanoseconds.
#[derive(Default, Debug, Clone)]
pub struct Lat {
    ns: Vec<u64>,
}

impl Lat {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    pub fn push_ns(&mut self, ns: f64) {
        self.ns.push(ns.max(0.0) as u64);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Keeps every other sample, in arrival order.
    fn halve(&mut self) {
        let mut i = 0;
        self.ns.retain(|_| {
            i += 1;
            i % 2 == 0
        });
    }

    /// Percentile `q` in microseconds; see [`band_quantile`].
    pub fn us(&mut self, q: f64) -> f64 {
        self.ns.sort_unstable();
        band_quantile(&self.ns, q) / 1e3
    }

    /// Percentile `q` in nanoseconds.
    pub fn ns(&mut self, q: f64) -> f64 {
        self.ns.sort_unstable();
        band_quantile(&self.ns, q)
    }
}

/// Quantile `q` of sorted integer samples, taken as the mean of the
/// samples ranked within a narrow band around `q` (±0.5 percentile
/// points at the median, ±0.1 above p90). Timers tick in whole
/// nanoseconds and fast operations cluster on a few ticks, so a plain
/// order statistic would read identically across runs; the band mean
/// keeps the reported value continuous while staying a percentile.
pub fn band_quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let half = if q > 0.9 { 0.001 } else { 0.005 };
    let lo = (((q - half) * n as f64).floor().max(0.0) as usize).min(n - 1);
    let hi = (((q + half) * n as f64).ceil() as usize).clamp(lo + 1, n);
    let band = &sorted[lo..hi];
    band.iter().map(|&v| v as f64).sum::<f64>() / band.len() as f64
}

/// Samples split into equal time windows over a measured phase. A
/// reported percentile is the median over windows of the per-window
/// percentile, so a window hit by a neighbour's burst moves it no more
/// than any other window; a reported rate is every completion over the
/// whole phase, so stalls count in full. Events after the phase's
/// nominal end (the drain) are not counted.
pub struct Windows {
    start: Instant,
    width: Duration,
    lat: Vec<Lat>,
    /// Per window: samples offered, and the stride at which they are
    /// kept (see [`KEEP`]).
    seen: Vec<u64>,
    stride: Vec<u64>,
    count: Vec<u64>,
}

/// Windows per measured phase: many short ones where samples are
/// plentiful, so a stall (a log compaction, a neighbour's burst) lands
/// in few of them; one where a phase holds only hundreds of samples, so
/// its percentiles are taken over all of them.
pub const FINE: usize = 50;
pub const POOLED: usize = 1;

/// Samples kept per window. When a window fills, every other kept
/// sample is dropped and the stride doubles, so memory stays fixed
/// however fast the system runs (the process's own sample buffers
/// would otherwise show up in `peak_rss_mb`) while the kept samples
/// stay an even subsample of the window.
const KEEP: usize = 1 << 14;

impl Windows {
    pub fn new(start: Instant, seconds: f64, windows: usize) -> Windows {
        Windows {
            start,
            width: Duration::from_secs_f64(seconds / windows as f64),
            lat: vec![Lat::default(); windows],
            seen: vec![0; windows],
            stride: vec![1; windows],
            count: vec![0; windows],
        }
    }

    fn index(&self, at: Instant) -> Option<usize> {
        let i = at.saturating_duration_since(self.start).as_nanos() / self.width.as_nanos().max(1);
        (i < self.lat.len() as u128).then_some(i as usize)
    }

    /// One latency sample, filed by the time it was taken.
    pub fn sample(&mut self, at: Instant, latency: Duration) {
        if let Some(i) = self.index(at) {
            self.seen[i] += 1;
            if self.seen[i].is_multiple_of(self.stride[i]) {
                let lat = &mut self.lat[i];
                lat.push(latency);
                if lat.len() >= KEEP {
                    lat.halve();
                    self.stride[i] *= 2;
                }
            }
        }
    }

    /// `n` completed operations at `at`.
    pub fn done(&mut self, at: Instant, n: u64) {
        if let Some(i) = self.index(at) {
            self.count[i] += n;
        }
    }

    /// Completions per second over the whole phase.
    pub fn rate(&self) -> f64 {
        self.count.iter().sum::<u64>() as f64 / (self.width.as_secs_f64() * self.count.len() as f64)
    }

    /// Completion rate of each window, per second.
    pub fn rates(&self) -> Vec<f64> {
        self.count
            .iter()
            .map(|&c| c as f64 / self.width.as_secs_f64())
            .collect()
    }

    /// Median over windows of the per-window percentile `q`, in µs.
    pub fn us(&mut self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .lat
            .iter_mut()
            .filter(|l| l.len() > 0)
            .map(|l| l.us(q))
            .collect();
        median(&per)
    }
}

/// Mean of floats.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of floats (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Runs `f` over `items` in blocks of `block` calls and returns the
/// median per-call time in nanoseconds. Block timing keeps the clock's
/// own cost out of sub-microsecond calls.
pub fn per_call_ns<T>(
    items: &[T],
    block: usize,
    mut f: impl FnMut(&T),
) -> (f64, Vec<(Instant, Instant)>) {
    let mut per_call = Vec::new();
    let mut windows = Vec::new();
    for chunk in items.chunks(block) {
        let start = Instant::now();
        for item in chunk {
            f(item);
        }
        let end = Instant::now();
        per_call.push((end - start).as_nanos() as f64 / chunk.len() as f64);
        windows.push((start, end));
    }
    (median(&per_call), windows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_quantile_tracks_the_percentile() {
        let v: Vec<u64> = (0..10_000).collect();
        let p50 = band_quantile(&v, 0.5);
        assert!((p50 - 5000.0).abs() < 60.0, "{p50}");
        let p99 = band_quantile(&v, 0.99);
        assert!((p99 - 9900.0).abs() < 20.0, "{p99}");
        assert_eq!(band_quantile(&[7], 0.99), 7.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
