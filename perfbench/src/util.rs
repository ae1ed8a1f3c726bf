//! Pure helpers: the seeded generator, arrival schedules, order
//! statistics, the backlog detector, the max-rate search and exact float
//! parsing. Everything here is deterministic and unit-tested.

/// SplitMix64: a small, stable generator, so schedules and scripts do not
/// change when a dependency's generator does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: &str) -> Self {
        Rng(seed ^ crate::inputs::fnv1a(stream.as_bytes()))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Due times (seconds from the phase start) of a Poisson arrival process
/// at `rate` requests per second over `duration_s`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration_s: f64) -> Vec<f64> {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        // 1 - unit() is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The reported tail: the highest percentile that still has at least ten
/// samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Which percentile it is, `100 · (n − 10) / n`.
    pub pct: f64,
}

/// [`Tail`] of the samples, or `None` when fewer than 11 were taken.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    (n >= 11).then(|| Tail { value: s[n - 11], pct: 100.0 * (n - 10) as f64 / n as f64 })
}

/// The tail when the sample supports one; with fewer than 11 samples,
/// the 75th percentile by nearest rank (one slow sample out of a handful
/// says nothing steady about the tail).
pub fn tail_or_upper(samples: &[f64]) -> Option<f64> {
    tail(samples).map(|t| t.value).or_else(|| {
        let s = sorted(samples);
        let rank = (0.75 * s.len() as f64).ceil() as usize;
        s.get(rank.saturating_sub(1)).copied()
    })
}

/// First and third quartile, as Python's `statistics.quantiles(n=4)`
/// (exclusive method) gives them.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return s.first().map(|&v| (v, v));
    }
    let at = |p: f64| {
        let m = (n + 1) as f64 * p;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(0.25), at(0.75)))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Smallest rise of the queueing wait, across a phase, that counts as a
/// growing backlog.
pub const BACKLOG_RISE_MS: f64 = 25.0;

/// Whether requests waited longer and longer to be sent during a phase.
/// `waits_ms` are in due-time order. The median wait of the last third
/// must exceed that of the first third by [`BACKLOG_RISE_MS`]; medians
/// keep one stalled request from reading as a trend.
pub fn backlog_growing(waits_ms: &[f64]) -> bool {
    let third = waits_ms.len() / 3;
    if third == 0 {
        return false;
    }
    let first = median(&waits_ms[..third]).unwrap_or(0.0);
    let last = median(&waits_ms[waits_ms.len() - third..]).unwrap_or(0.0);
    last - first > BACKLOG_RISE_MS
}

/// Highest rung of an ascending `ladder` for which `passes` holds,
/// found by bisection (so at most ⌈log2(len)⌉ + 1 probes), or `None` when
/// even the lowest rung fails. Assumes passing is monotone in the rate; a
/// noisy probe can only move the answer, not stop the search from ending.
pub fn max_passing_rate(ladder: &[f64], mut passes: impl FnMut(f64) -> bool) -> Option<f64> {
    let (mut lo, mut hi) = (0usize, ladder.len());
    let mut best = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if passes(ladder[mid]) {
            best = Some(ladder[mid]);
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    best
}

/// Parses one float printed by the daemon. The daemon prints f32 with
/// Rust's shortest round-trip formatting and `str::parse` rounds
/// correctly, so this recovers the exact bits.
pub fn parse_f32(text: &str) -> Option<f32> {
    text.trim().parse::<f32>().ok()
}

/// Parses a `/predict` answer: `n=K`, `generation=G`, then K floats.
pub fn parse_predict(body: &[u8]) -> Result<Vec<f32>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not utf-8".to_owned())?;
    let mut lines = text.lines();
    let n: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("n="))
        .and_then(|v| v.parse().ok())
        .ok_or("answer lacks n=")?;
    lines.next().filter(|l| l.starts_with("generation=")).ok_or("answer lacks generation=")?;
    let values: Vec<f32> =
        lines.map(|l| parse_f32(l).ok_or(format!("bad float `{l}`"))).collect::<Result<_, _>>()?;
    if values.len() == n {
        Ok(values)
    } else {
        Err(format!("answer says n={n} but holds {} values", values.len()))
    }
}

/// Coefficient of determination of `pred` against `truth`, in f64: 1
/// exactly when every value matches, 0 when nothing was answered.
pub fn r2(pred: &[f32], truth: &[f32]) -> f64 {
    if pred.is_empty() || pred.len() != truth.len() {
        return 0.0;
    }
    let mean = truth.iter().map(|&t| f64::from(t)).sum::<f64>() / truth.len() as f64;
    let ss_res: f64 =
        pred.iter().zip(truth).map(|(&p, &t)| (f64::from(p) - f64::from(t)).powi(2)).sum();
    let ss_tot: f64 = truth.iter().map(|&t| (f64::from(t) - mean).powi(2)).sum();
    if ss_res == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot.max(f64::MIN_POSITIVE)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_reproducible_per_seed() {
        let a = poisson_schedule(&mut Rng::new(7, "serve_read"), 50.0, 20.0);
        let b = poisson_schedule(&mut Rng::new(7, "serve_read"), 50.0, 20.0);
        let c = poisson_schedule(&mut Rng::new(8, "serve_read"), 50.0, 20.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // 1000 arrivals expected; Poisson sd is ~32.
        assert!((850..1150).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&samples).expect("enough samples");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.pct, 99.0);
        assert_eq!(samples.iter().filter(|&&v| v > t.value).count(), 10);

        let t = tail(&(0..200).map(f64::from).collect::<Vec<_>>()).expect("enough samples");
        assert_eq!((t.value, t.pct), (189.0, 95.0));
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail_or_upper(&[3.0, 9.0, 4.0]), Some(9.0));
        let eight = [5.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0];
        assert_eq!(tail_or_upper(&eight), Some(6.0));
        assert_eq!(tail_or_upper(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 8.25)));
        assert_eq!(median(&s), Some(5.5));
    }

    #[test]
    fn shortest_round_trip_floats_parse_to_the_same_bits() {
        let mut rng = Rng::new(1, "f32");
        let specials = [0.0f32, -0.0, f32::MIN_POSITIVE, 1e-45, f32::MAX, f32::MIN, 0.1, 80373.39];
        let randoms = (0..20_000).map(|_| f32::from_bits(rng.next_u64() as u32));
        for v in specials.into_iter().chain(randoms).filter(|v| v.is_finite()) {
            let back = parse_f32(&v.to_string()).expect("parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        let answer = b"n=2\ngeneration=1\n1.5\n-0\n";
        let vals = parse_predict(answer).expect("well formed");
        assert_eq!(vals[1].to_bits(), (-0.0f32).to_bits());
        assert!(parse_predict(b"n=3\ngeneration=1\n1.5\n").is_err());
    }

    #[test]
    fn backlog_detector_sees_growth_not_noise() {
        let mut rng = Rng::new(3, "noise");
        let steady: Vec<f64> = (0..300).map(|_| 5.0 + 20.0 * rng.unit()).collect();
        assert!(!backlog_growing(&steady));
        let mut spiky = steady.clone();
        spiky[290] = 500.0;
        assert!(!backlog_growing(&spiky));
        let growing: Vec<f64> = (0..300).map(|i| f64::from(i) * 0.5 + 10.0 * rng.unit()).collect();
        assert!(backlog_growing(&growing));
        assert!(!backlog_growing(&[100.0, 0.0]));
    }

    #[test]
    fn max_rate_search_terminates_on_a_latency_curve() {
        // M/M/1-like curve: latency = s / (1 - rate/capacity).
        let (service_ms, capacity, slo_ms) = (10.0, 170.0, 100.0);
        let ladder: Vec<f64> = (0..40).map(|i| 40.0 + 5.0 * f64::from(i)).collect();
        let mut probes = 0;
        let best = max_passing_rate(&ladder, |rate| {
            probes += 1;
            rate < capacity && service_ms / (1.0 - rate / capacity) <= slo_ms
        });
        assert_eq!(best, Some(150.0));
        assert!(probes <= 7, "{probes} probes");
        assert_eq!(max_passing_rate(&ladder, |_| false), None);
        assert_eq!(max_passing_rate(&ladder, |_| true), Some(235.0));
        assert_eq!(max_passing_rate(&[], |_| true), None);
    }
}
