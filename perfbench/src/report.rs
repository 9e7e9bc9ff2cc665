//! Samples, metrics, correctness checks and the result line.

use plinius_darknet::Network;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Timings or rates of one kind, in the order they were taken.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `i`-th sample taken.
    pub fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank quantile: the smallest sample with at least `q` of the samples
    /// at or below it. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Multiplies the samples from index `first` on by `factor`.
    pub fn scale_from(&mut self, first: usize, factor: f64) {
        for v in self.0.iter_mut().skip(first) {
            *v *= factor;
        }
    }

    pub fn p90(&self) -> f64 {
        self.quantile(0.9)
    }

    /// Quartiles and tails, for the notes under the table.
    pub fn summary(&self) -> String {
        format!(
            "n {} p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} max {:.3}",
            self.len(),
            self.quantile(0.1),
            self.quantile(0.25),
            self.median(),
            self.quantile(0.75),
            self.p90(),
            self.quantile(1.0)
        )
    }
}

impl From<Vec<f64>> for Samples {
    fn from(v: Vec<f64>) -> Self {
        Samples(v)
    }
}

/// One reported metric: its value, unit, and how many samples it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted (closed-loop steps, cycles, batches, probe calls).
    pub ops: u64,
    /// Operations that returned an error.
    pub op_failures: u64,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_owned(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records the outcome of one operation; returns the value on success.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.ops += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.op_failures += 1;
                self.notes.push(format!("{what} failed: {e}"));
                None
            }
        }
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Operations and checks attempted.
    pub fn attempted(&self) -> u64 {
        self.ops + self.checks.len() as u64
    }

    /// Failed operations plus failed checks.
    pub fn failed(&self) -> u64 {
        self.op_failures + self.checks.iter().filter(|c| !c.ok).count() as u64
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// The human-readable table printed before the result line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>16} {:<8} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for (name, m) in &self.metrics {
            let _ = writeln!(
                out,
                "{:<40} {:>16.6} {:<8} {:>8}",
                name, m.value, m.unit, m.samples
            );
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check {:<40} {} {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Everything the report holds, one tab-separated record per line, for a parent
    /// process to [`Report::absorb`]. Values are printed in full (`{}` on `f64`
    /// round-trips exactly).
    pub fn encode(&self) -> String {
        let mut out = format!("ops\t{}\t{}\n", self.ops, self.op_failures);
        for (name, m) in &self.metrics {
            let _ = writeln!(out, "metric\t{name}\t{}\t{}", m.value, m.samples);
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check\t{}\t{}\t{}",
                c.name,
                u8::from(c.ok),
                one_line(&c.detail)
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note\t{}", one_line(n));
        }
        out
    }

    /// Adds a report written by [`Report::encode`] to this one.
    pub fn absorb(&mut self, text: &str) -> Result<(), String> {
        for line in text.lines() {
            let f: Vec<&str> = line.splitn(4, '\t').collect();
            let bad = || format!("malformed record {line:?}");
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or_else(bad);
            match f[0] {
                "ops" => {
                    self.ops += num(1)? as u64;
                    self.op_failures += num(2)? as u64;
                }
                "metric" => {
                    let name = f.get(1).ok_or_else(bad)?;
                    let unit =
                        crate::unit_of(name).ok_or_else(|| format!("unknown metric {name}"))?;
                    self.metric(name, num(2)?, unit, num(3)? as usize);
                }
                "check" if f.len() == 4 => self.check(f[1], f[2] == "1", f[3]),
                "note" if f.len() == 2 => self.note(f[1]),
                _ => return Err(bad()),
            }
        }
        Ok(())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted(),
            self.failed()
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// JSON has no NaN or infinity; such a value is a bug and is printed as -1 so the
/// result line stays parseable (the run also fails its `metrics_finite` check).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_owned()
    }
}

/// `s` with line breaks and tabs replaced by spaces, for one record of
/// [`Report::encode`].
fn one_line(s: &str) -> String {
    s.replace(['\n', '\t'], " ")
}

/// FNV-1a digest over the bit patterns of every learnable parameter.
pub fn weights_digest(net: &Network) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for layer in net.layers() {
        for p in layer.params() {
            for v in p.data {
                h ^= v.to_bits() as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Whether two networks hold bit-identical parameters.
pub fn same_weights(a: &Network, b: &Network) -> bool {
    a.layers().len() == b.layers().len()
        && a.layers().iter().zip(b.layers()).all(|(x, y)| {
            let (px, py) = (x.params(), y.params());
            px.len() == py.len()
                && px.iter().zip(&py).all(|(u, v)| {
                    u.data.len() == v.data.len()
                        && u.data
                            .iter()
                            .zip(v.data)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                })
        })
}

/// The machine's CPU time so far in clock ticks, as the first line of `/proc/stat`
/// counts it: the time its CPUs ran something, and the time the hypervisor kept them
/// from running although they had work (steal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    pub busy: u64,
    pub stolen: u64,
}

impl CpuTicks {
    /// `None` where `/proc/stat` cannot be read.
    pub fn now() -> Option<Self> {
        Self::parse(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    /// Reads the `cpu` line: user, nice, system, idle, iowait, irq, softirq, steal.
    pub fn parse(stat: &str) -> Option<Self> {
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|v| v.parse().ok())
            .collect::<Option<_>>()?;
        let f = fields.get(..8)?;
        Some(CpuTicks {
            busy: f[0] + f[1] + f[2] + f[5] + f[6],
            stolen: f[7],
        })
    }

    /// The ticks from `self` to `later`.
    pub fn until(&self, later: &CpuTicks) -> CpuTicks {
        CpuTicks {
            busy: later.busy.saturating_sub(self.busy),
            stolen: later.stolen.saturating_sub(self.stolen),
        }
    }

    pub fn add(&mut self, o: &CpuTicks) {
        self.busy += o.busy;
        self.stolen += o.stolen;
    }

    /// The share of the CPU time wanted that the hypervisor took: stolen over busy
    /// plus stolen. 0 when nothing was wanted.
    pub fn stolen_share(&self) -> f64 {
        let wanted = self.busy + self.stolen;
        if wanted == 0 {
            0.0
        } else {
            self.stolen as f64 / wanted as f64
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and configuration fingerprint: results with different fingerprints are not
/// comparable.
pub fn fingerprint(workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("aes", std::arch::is_x86_feature_detected!("aes")),
            (
                "pclmulqdq",
                std::arch::is_x86_feature_detected!("pclmulqdq"),
            ),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
        ] {
            flags.push(format!("{name}={}", u8::from(on)));
        }
    }
    // Every run measures all three workloads, so it names all three modes.
    let mode = |t: plinius::TrainerConfig| format!("{:?}", t.pipeline).to_lowercase();
    let train = mode(crate::train::training_setup(&crate::train::cfg(false), seed).trainer);
    let serve = mode(crate::serve::training_setup(&crate::serve::cfg(false), seed).trainer);
    format!(
        "workload={workload} seed={seed} nproc={nproc} {} crypto={} gemm={} threads={} ring={} pipeline=train:{train},checkpoint:none,serve:{serve}",
        flags.join(" "),
        plinius::selected_engine().name(),
        plinius::selected_gemm().name(),
        plinius_parallel::max_threads(),
        plinius::DEFAULT_RING_DEPTH,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Samples = (1..=100).map(f64::from).collect::<Vec<_>>().into();
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.p90(), 90.0);
        assert_eq!(Samples::default().median(), 0.0);
        let mut s = s;
        s.scale_from(50, 0.5);
        assert_eq!((s.get(49), s.get(50), s.get(99)), (50.0, 25.5, 50.0));
    }

    #[test]
    fn steal_share_comes_from_the_cpu_line() {
        let at = |user, steal| {
            CpuTicks::parse(&format!(
                "cpu  {user} 2 30 900 4 1 3 {steal} 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
            ))
            .expect("a cpu line")
        };
        let (a, b) = (at(100, 10), at(166, 40));
        assert_eq!(
            a,
            CpuTicks {
                busy: 136,
                stolen: 10
            }
        );
        let d = a.until(&b);
        assert_eq!(
            d,
            CpuTicks {
                busy: 66,
                stolen: 30
            }
        );
        assert_eq!(d.stolen_share(), 30.0 / 96.0);
        assert_eq!(CpuTicks::default().stolen_share(), 0.0);
        assert_eq!(CpuTicks::parse("cpu  1 2 3"), None);
        assert_eq!(CpuTicks::parse("intr 1 2 3 4 5 6 7 8"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("a_ms", 1.5, "ms", 3);
        r.op::<(), String>("x", Ok(()));
        r.check("c", true, "");
        let line = r.json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
