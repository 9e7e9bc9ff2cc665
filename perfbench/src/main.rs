//! The Plinius benchmark: one command that runs the three closed loops (`train`,
//! `checkpoint` and `serve`) side by side, the named workload (`train` or
//! `checkpoint`) taking the largest share, checks their outputs and prints every
//! metric by name and unit, ending with one JSON result line. `--trace 1` makes the
//! separate traced run that reports the per-layer metrics instead. See
//! `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <train|checkpoint> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod checkpoint;
mod companion;
mod probes;
mod report;
mod serve;
mod trace;
mod train;

use companion::Companion;
use report::{CpuTicks, Report, Samples};
use sim_clock::StatsHandle;
use std::time::Instant;
use trace::Tracer;

/// The end-to-end metrics, with their units. Every untraced run prints all of them,
/// each from the closed loop that measures it.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
    ("train_samples_per_s", "1/s"),
    ("train_step_ms_p50", "ms"),
    ("train_step_ms_p90", "ms"),
    ("train_sim_ms_per_iter", "sim_ms"),
    ("save_ms_p50", "ms"),
    ("save_ms_p90", "ms"),
    ("restore_ms_p50", "ms"),
    ("restore_ms_p90", "ms"),
    ("save_sim_ms", "sim_ms"),
    ("restore_sim_ms", "sim_ms"),
    ("serve_req_per_s", "1/s"),
    ("serve_batch_ms_p50", "ms"),
    ("serve_batch_ms_p90", "ms"),
];

/// The per-layer metrics of the traced run, with their units. A metric of a layer
/// the workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("darknet.train_batch_ms", "ms"),
    ("darknet.gflops", "GFLOP/s"),
    ("darknet.conv.forward_ms", "ms"),
    ("darknet.conv.backward_ms", "ms"),
    ("darknet.connected.forward_ms", "ms"),
    ("darknet.connected.backward_ms", "ms"),
    ("darknet.maxpool.forward_ms", "ms"),
    ("darknet.maxpool.backward_ms", "ms"),
    ("darknet.update_ms", "ms"),
    ("darknet.forward_ms", "ms"),
    ("pmdata.decrypt_batch_ms", "ms"),
    ("pmdata.decrypt_mib_s", "MiB/s"),
    ("crypto.sample_open_us", "us"),
    ("crypto.sample_open_cached_us", "us"),
    ("crypto.seal_mib_s", "MiB/s"),
    ("crypto.open_mib_s", "MiB/s"),
    ("mirror.snapshot_out_ms", "ms"),
    ("mirror.drain_ms", "ms"),
    ("mirror.mirror_out_ms", "ms"),
    ("mirror.open_ms", "ms"),
    ("mirror.mirror_in_ms", "ms"),
    ("mirror.torn_read_retries", "count"),
    ("sim.encrypt_ms", "sim_ms"),
    ("sim.write_ms", "sim_ms"),
    ("sim.read_ms", "sim_ms"),
    ("sim.decrypt_ms", "sim_ms"),
    ("serve.refresh_ms", "ms"),
    ("serve.swaps", "count"),
    ("romulus.publish_region_ms", "ms"),
    ("romulus.flip_tx_ms", "ms"),
    ("romulus.recover_ms", "ms"),
    ("pmem.persist_mib_s", "MiB/s"),
    ("pmem.read_mib_s", "MiB/s"),
    ("pm.bytes_written_per_save", "bytes"),
    ("pm.flushes_per_save", "count"),
    ("pm.fences_per_save", "count"),
    ("pm.write_amplification", "ratio"),
    ("pm.bytes_read_per_restore", "bytes"),
    ("parallel.dispatch_us", "us"),
    ("parallel.overlap_wait_ms", "sim_ms"),
    ("parallel.scaling.train_batch", "ratio"),
    ("parallel.scaling.mirror_out", "ratio"),
    ("parallel.scaling.mirror_in", "ratio"),
    ("parallel.scaling.forward", "ratio"),
    ("sgx.ecalls_per_step", "count"),
    ("sgx.crypto_bytes_per_step", "bytes"),
    ("sgx.epc_page_swaps", "count"),
    ("trainer.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The workloads a run can be named after (the ones in `BENCHMARK.json`).
pub const WORKLOADS: &[&str] = &["train", "checkpoint"];

/// The closed loops every untraced run measures: the named workload's in this
/// process, the others as companions (see `companion.rs`).
pub const LOOPS: &[&str] = &["train", "checkpoint", "serve"];

/// The unit of a named metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Set-up and check sizes of a measurement.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Deployments timed for `setup_s`.
    pub setup_reps: usize,
    /// Operations after which a replay on a fresh deployment must agree.
    pub check_ops: usize,
}

/// One end-to-end measurement in progress: a deployment driven in a closed loop.
pub trait ClosedLoop {
    /// One closed-loop operation; false if it failed, which ends the measurement.
    fn op(&mut self, report: &mut Report) -> bool;
    /// Operations completed so far.
    fn ops(&self) -> usize;
    /// Multiplies the wall-clock times of the operations from index `first` on by
    /// `factor` (see [`Timed::advance`]).
    fn scale_since(&mut self, first: usize, factor: f64);
    /// Records the metrics and checks.
    fn finish(self: Box<Self>, report: &mut Report);
}

/// A closed loop with the wall time spent in its operations and the machine's CPU
/// ticks over them.
pub struct Timed {
    name: String,
    pass: Box<dyn ClosedLoop>,
    spent_s: f64,
    alive: bool,
    ticks: CpuTicks,
}

impl Timed {
    pub fn new(name: &str, pass: Box<dyn ClosedLoop>) -> Self {
        Timed {
            name: name.to_owned(),
            pass,
            spent_s: 0.0,
            alive: true,
            ticks: CpuTicks::default(),
        }
    }

    pub fn ops(&self) -> usize {
        self.pass.ops()
    }

    /// Makes operations until `spent_s` reaches `due_s` and `ops` reaches `min_ops`,
    /// or one fails; returns the operations made so far.
    ///
    /// The machine is a virtual one on a shared host, and the share of the CPU time
    /// it wants that the hypervisor takes away (steal) changes from second to second
    /// with other tenants' load, and across runs the p90s followed it closely.
    /// So the wall-clock times of the operations made here are multiplied by one
    /// minus the steal share of this stretch: they are the times on the machine as
    /// if nothing was stolen. The time budget itself is plain wall-clock.
    pub fn advance(&mut self, due_s: f64, min_ops: usize, report: &mut Report) -> usize {
        let first = self.pass.ops();
        let before = CpuTicks::now();
        while self.alive && (self.spent_s < due_s || self.pass.ops() < min_ops) {
            let t = Instant::now();
            self.alive = self.pass.op(report);
            self.spent_s += t.elapsed().as_secs_f64();
        }
        if let (Some(a), Some(b)) = (before, CpuTicks::now()) {
            let ticks = a.until(&b);
            self.pass.scale_since(first, 1.0 - ticks.stolen_share());
            self.ticks.add(&ticks);
        }
        self.pass.ops()
    }

    /// Records the loop's metrics and checks, and the steal share its times lost.
    pub fn finish(self, report: &mut Report) {
        report.note(format!(
            "{}: the hypervisor stole {:.1}% of the CPU time the machine wanted ({} of {} ticks); its wall-clock times are scaled by one minus each stretch's share",
            self.name,
            100.0 * self.ticks.stolen_share(),
            self.ticks.stolen,
            self.ticks.busy + self.ticks.stolen
        ));
        self.pass.finish(report);
    }
}

/// Whether a closed loop is the named workload's or a companion that supplies the
/// other loops' metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Main,
    Companion,
}

/// Builds `reps` deployments one after another, timing each; returns the last one and
/// records `setup_s` as the median. `make` returns the closure to time, so input
/// cloning stays outside the timed region.
pub fn timed_setups<D, E: std::fmt::Display, F: FnOnce() -> Result<D, E>>(
    reps: usize,
    report: &mut Report,
    what: &str,
    mut make: impl FnMut() -> F,
) -> Option<D> {
    let mut times = Samples::default();
    let mut kept = None;
    for _ in 0..reps.max(1) {
        // One deployment alive at a time, so the peak RSS is that of one.
        drop(kept.take());
        let f = make();
        let t = Instant::now();
        let r = f();
        times.push(t.elapsed().as_secs_f64());
        kept = Some(report.op(what, r)?);
    }
    report.metric("setup_s", times.median(), "s", times.len());
    kept
}

/// Event counters of the simulated substrates, read from a deployment's registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    ecalls: u64,
    crypto_bytes: u64,
    epc_page_swaps: u64,
    pm_written: u64,
    pm_read: u64,
    flushes: u64,
    fences: u64,
}

impl Counters {
    pub fn take(stats: &StatsHandle) -> Self {
        Counters {
            ecalls: stats.value("sgx.ecalls"),
            crypto_bytes: stats.value("sgx.crypto_bytes"),
            epc_page_swaps: stats.value("sgx.epc_page_swaps"),
            pm_written: stats.value("pm.bytes_written"),
            pm_read: stats.value("pm.bytes_read"),
            flushes: stats.value("pm.flushes"),
            fences: stats.value("pm.fences"),
        }
    }

    /// Counts since `self` was taken.
    pub fn delta(&self, stats: &StatsHandle) -> Self {
        let now = Counters::take(stats);
        Counters {
            ecalls: now.ecalls - self.ecalls,
            crypto_bytes: now.crypto_bytes - self.crypto_bytes,
            epc_page_swaps: now.epc_page_swaps - self.epc_page_swaps,
            pm_written: now.pm_written - self.pm_written,
            pm_read: now.pm_read - self.pm_read,
            flushes: now.flushes - self.flushes,
            fences: now.fences - self.fences,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.ecalls += o.ecalls;
        self.crypto_bytes += o.crypto_bytes;
        self.epc_page_swaps += o.epc_page_swaps;
        self.pm_written += o.pm_written;
        self.pm_read += o.pm_read;
        self.flushes += o.flushes;
        self.fences += o.fences;
    }

    /// `sgx.*` per closed-loop operation (step, cycle or batch).
    pub fn step_metrics(&self, ops: usize, report: &mut Report) {
        let per = |v: u64| v as f64 / ops.max(1) as f64;
        report.metric("sgx.ecalls_per_step", per(self.ecalls), "count", ops);
        report.metric(
            "sgx.crypto_bytes_per_step",
            per(self.crypto_bytes),
            "bytes",
            ops,
        );
        report.metric(
            "sgx.epc_page_swaps",
            self.epc_page_swaps as f64,
            "count",
            ops,
        );
    }

    /// `pm.*_per_save` and the write amplification over `model_bytes` per save.
    pub fn save_metrics(&self, saves: usize, model_bytes: usize, report: &mut Report) {
        let per = |v: u64| v as f64 / saves.max(1) as f64;
        report.metric(
            "pm.bytes_written_per_save",
            per(self.pm_written),
            "bytes",
            saves,
        );
        report.metric("pm.flushes_per_save", per(self.flushes), "count", saves);
        report.metric("pm.fences_per_save", per(self.fences), "count", saves);
        report.metric(
            "pm.write_amplification",
            per(self.pm_written) / model_bytes.max(1) as f64,
            "ratio",
            saves,
        );
    }

    pub fn restore_metrics(&self, restores: usize, report: &mut Report) {
        report.metric(
            "pm.bytes_read_per_restore",
            self.pm_read as f64 / restores.max(1) as f64,
            "bytes",
            restores,
        );
    }
}

/// Records whether the traced spans nest properly.
pub fn nesting_check(tracer: &Tracer, report: &mut Report) {
    let r = tracer.check_nesting();
    report.check(
        "trace.spans_nest",
        r.is_ok() && !tracer.spans().is_empty(),
        r.err()
            .unwrap_or_else(|| format!("{} spans", tracer.spans().len())),
    );
    for (name, t) in tracer.totals() {
        report.note(format!(
            "span {name:<28} count {:>6}  mean {:>10.4} ms  self {:>10.4} ms",
            t.count,
            t.mean_ms(),
            t.mean_self_ms()
        ));
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run `workload` as a companion loop driven by the parent process over stdin
    /// (see `companion.rs`).
    pub companion: bool,
    /// The self-test's tiny scale; not comparable with full-scale results and not
    /// reachable from the command line.
    pub tiny: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut companion = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--companion" => {
                workload = Some(value()?.clone());
                companion = true;
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let known = if companion { LOOPS } else { WORKLOADS };
    if !known.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {known:?})"
        ));
    }
    let seed = seed.ok_or("--seed is required")?;
    if companion {
        return Ok(Args {
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            companion,
            tiny: false,
        });
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        companion,
        tiny: false,
    })
}

/// Deploys closed loop `w` for a measurement in `role`.
pub fn start(w: &str, role: Role, args: &Args, report: &mut Report) -> Option<Box<dyn ClosedLoop>> {
    let (seed, tiny) = (args.seed, args.tiny);
    let phase = Phase {
        setup_reps: if tiny { 2 } else { 7 },
        check_ops: if tiny { 3 } else { 8 },
    };
    Some(match w {
        "train" => Box::new(train::TrainLoop::start(
            &train::cfg(tiny),
            seed,
            &phase,
            role,
            report,
        )?),
        "checkpoint" => Box::new(checkpoint::CheckpointLoop::start(
            &checkpoint::cfg(tiny),
            seed,
            &phase,
            role,
            report,
        )?),
        _ => Box::new(serve::ServeLoop::start(
            &serve::cfg(tiny),
            seed,
            &phase,
            report,
        )?),
    })
}

/// The share of a run's measured time that workload `w` gets when the run is named
/// after `named`: half for the named workload; of the rest, `serve` (the cheapest
/// operations) gets 0.2 and the other companion 0.3.
fn share(w: &str, named: &str) -> f64 {
    match w {
        _ if w == named => 0.5,
        "serve" => 0.2,
        _ => 0.3,
    }
}

/// Length of one round, in which every workload gets its share once.
const ROUND_S: f64 = 1.0;

/// Runs one benchmark invocation and returns its report.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if args.trace {
        for (name, unit) in PER_LAYER {
            report.metric(name, 0.0, unit, 0);
        }
        let seed = args.seed;
        match args.workload.as_str() {
            "train" => train::traced(&train::cfg(args.tiny), seed, &mut report),
            _ => {
                checkpoint::traced(&checkpoint::cfg(args.tiny), seed, &mut report);
                // No run is named after `serve`; its layers (the mirror read back into
                // a long-lived network) are traced beside the checkpoint's.
                serve::traced_layer(&serve::cfg(args.tiny), seed, &mut report);
            }
        }
        finite_check(&mut report);
        return report;
    }
    let min_ops = if args.tiny { 6 } else { 100 };
    if let Some(named) = start(&args.workload, Role::Main, args, &mut report) {
        let mut companions: Vec<Companion> = LOOPS
            .iter()
            .filter(|w| **w != args.workload)
            .filter_map(|w| Companion::start(w, args, &mut report))
            .collect();
        // Round-robin: in every round each workload runs until its total time reaches
        // its share of the time so far, so every workload's samples are spread over
        // the whole run and see the same stretches of machine time.
        let rounds = (args.seconds / ROUND_S).ceil() as usize;
        let own = share(&args.workload, &args.workload);
        let mut named = Timed::new(&args.workload, named);
        for r in 1..=rounds {
            let so_far = args.seconds * r as f64 / rounds as f64;
            named.advance(own * so_far, 0, &mut report);
            for c in companions.iter_mut() {
                c.advance(share(c.workload, &args.workload) * so_far, 0, &mut report);
            }
        }
        // Every p90 rests on at least `min_ops` samples, however slow the machine was.
        named.advance(0.0, min_ops, &mut report);
        for c in companions.iter_mut() {
            c.advance(0.0, min_ops, &mut report);
        }
        report.metric("peak_rss_mib", report::peak_rss_mib(), "MiB", 1);
        named.finish(&mut report);
        for c in companions {
            c.finish(&mut report);
        }
    }
    for (name, unit) in END_TO_END {
        if *name != "success_rate" && !report.metrics.contains_key(*name) {
            report.check(format!("metric {name} reported"), false, "missing");
            report.metric(name, 0.0, unit, 0);
        }
    }
    let thin: Vec<String> = report
        .metrics
        .iter()
        .filter(|(name, m)| name.ends_with("_p90") && m.samples < min_ops)
        .map(|(name, m)| format!("{name} ({})", m.samples))
        .collect();
    report.check(
        "p90_sample_counts",
        thin.is_empty(),
        format!("every p90 rests on at least {min_ops} samples; short: {thin:?}"),
    );
    finite_check(&mut report);
    let rate = 1.0 - report.failed() as f64 / report.attempted().max(1) as f64;
    report.metric("success_rate", rate, "ratio", report.attempted() as usize);
    report
}

/// Fails the run if a metric is NaN or infinite (a division by a zero median, say):
/// the result line prints such a value as -1.
fn finite_check(report: &mut Report) {
    let bad: Vec<&str> = report
        .metrics
        .iter()
        .filter(|(_, m)| !m.value.is_finite())
        .map(|(name, _)| name.as_str())
        .collect();
    let detail = format!("not finite: {bad:?}");
    report.check("metrics_finite", bad.is_empty(), detail);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <train|checkpoint> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if args.companion {
        companion::child_main(&args);
        return;
    }
    println!(
        "fingerprint: {}",
        report::fingerprint(&args.workload, args.seed)
    );
    let report = run(&args);
    print!("{}", report.table());
    println!("{}", report.json_line());
}

#[cfg(test)]
mod tests;
