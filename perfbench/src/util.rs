//! Small shared helpers: order statistics, Zipf sampling, process memory,
//! and a minimal JSON writer (the benchmark has no third-party deps).

use std::fmt::Write as _;

use vist_datagen::rng::StdRng;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean; `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work reports none).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Zipf(s) over ranks `0..n`, sampled by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Fisher–Yates shuffle driven by the seeded generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// Run `f` on a thread of its own and wait for it. Measured clients run
/// this way, as the server runs each connection: a fresh thread's heap is
/// not shaped by the set-up that ran on the main thread.
pub fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("measured client panicked"))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// A JSON object under construction. Numbers are written with all their
/// digits (Rust's shortest round-trip form); non-finite numbers become
/// `null`.
#[derive(Default)]
pub struct JsonObj {
    body: String,
}

impl JsonObj {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        write_str(&mut self.body, k);
        self.body.push_str(": ");
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        write_num(&mut self.body, v);
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        write!(self.body, "{v}").expect("writing to a String cannot fail");
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        write_str(&mut self.body, v);
        self
    }

    /// Insert already-serialized JSON.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.body.push_str(json);
        self
    }

    pub fn obj(&mut self, k: &str, o: &JsonObj) -> &mut Self {
        self.raw(k, &o.finish())
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(v, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }

    #[test]
    fn json_escapes_and_nulls_non_finite_numbers() {
        let mut o = JsonObj::default();
        o.str("s", "a\"b\\c\n").num("x", f64::NAN).int("n", 3);
        assert_eq!(o.finish(), r#"{"s": "a\"b\\c\n", "x": null, "n": 3}"#);
    }
}
