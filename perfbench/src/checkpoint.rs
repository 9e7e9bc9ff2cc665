//! `checkpoint`: the Fig. 7 save/restore path on the ~8.3 MB `sized_model_config(8, ..)`
//! model. Each cycle saves synchronously (`mirror_out`), cuts the power
//! (`PmemPool::crash` dropping unflushed lines), then restarts the way a new process
//! would: `PliniusContext::open` (Romulus recovery), key provisioning,
//! `MirrorModel::open` and `mirror_in` into a freshly built network.
//!
//! Chosen because it is the PM simulator, Romulus and AES-GCM with no darknet work at
//! all, on few large tensors (the intra-tensor CTR fan-out branch of the sealing).
//! Saves and restores are timed separately, so a change that speeds one at the
//! other's cost shows.

use crate::report::{same_weights, Report, Samples};
use crate::trace::Tracer;
use crate::{probes, ClosedLoop, Counters, Phase, Role};
use plinius::{MirrorModel, PliniusContext, PliniusError, PmDataset};
use plinius_crypto::Key;
use plinius_darknet::{build_network, sized_model_config, synthetic_mnist, Dataset, Network};
use plinius_pmem::CrashMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;
use std::time::Instant;

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    model_mb: usize,
    samples: usize,
    pm_bytes: usize,
    trace_cycles: usize,
}

pub fn cfg(tiny: bool) -> Cfg {
    if tiny {
        Cfg {
            model_mb: 1,
            samples: 32,
            pm_bytes: 16 << 20,
            trace_cycles: 4,
        }
    } else {
        Cfg {
            model_mb: 8,
            samples: 256,
            pm_bytes: 72 << 20,
            trace_cycles: 30,
        }
    }
}

/// The inputs a seed determines: the dataset loaded into PM and the model text.
pub struct Inputs {
    data: Dataset,
    model: String,
    seed: u64,
}

pub fn inputs(cfg: &Cfg, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636b_7074);
    Inputs {
        data: synthetic_mnist(cfg.samples, &mut rng),
        model: sized_model_config(cfg.model_mb, 16),
        seed,
    }
}

/// One deployment between two power failures.
pub struct Dep {
    ctx: PliniusContext,
    key: Key,
    mirror: MirrorModel,
    network: Network,
    /// Shape donor for the networks restores go into; holds the initial weights,
    /// never the saved ones.
    template: Network,
    crash_rng: StdRng,
}

/// Deployment (timed as `setup_s`): PM pool, key, `PmDataset::load`, model, mirror
/// allocation and the first committed epoch.
pub fn deploy(cfg: &Cfg, inputs: &Inputs) -> Result<Dep, PliniusError> {
    let ctx = PliniusContext::create(CostModel::sgx_eml_pm(), cfg.pm_bytes)?;
    let key = Key::generate_128(&mut StdRng::seed_from_u64(inputs.seed ^ 0x006b_6579));
    ctx.provision_key_directly(key.clone());
    PmDataset::load(&ctx, &inputs.data)?;
    let network = build_network(&inputs.model, &mut StdRng::seed_from_u64(inputs.seed))?;
    ctx.enclave()
        .alloc_trusted(network.model_bytes() as u64 * 2)?;
    let mirror = MirrorModel::allocate_with_ring(&ctx, &network, plinius::DEFAULT_RING_DEPTH)?;
    mirror.mirror_out(&ctx, &network)?;
    Ok(Dep {
        template: network.clone(),
        ctx,
        key,
        mirror,
        network,
        crash_rng: StdRng::seed_from_u64(inputs.seed),
    })
}

/// Timings and counter deltas of one save/crash/restore cycle.
#[derive(Default)]
struct Cycle {
    save_ms: f64,
    restore_ms: f64,
    save_sim_ms: f64,
    restore_sim_ms: f64,
    encrypt_sim_ms: f64,
    write_sim_ms: f64,
    read_sim_ms: f64,
    decrypt_sim_ms: f64,
    save_counters: Counters,
    restore_counters: Counters,
    matched: bool,
}

/// Changes one weight, so consecutive epochs differ and a restore of a stale epoch
/// cannot pass the bit-identity check.
fn perturb(net: &mut Network, cycle: u64) {
    let layer = &mut net.layers_mut()[0];
    let mut tensors: Vec<Vec<f32>> = layer.params().iter().map(|p| p.data.to_vec()).collect();
    tensors[1][0] = cycle as f32 * 1e-3;
    layer.set_params(&tensors);
}

fn cycle(dep: &mut Dep, i: u64, t: &mut Tracer) -> Result<Cycle, PliniusError> {
    let iteration = 1_000 + 7 * i;
    dep.network.set_iteration(iteration);
    perturb(&mut dep.network, i);
    let stats = dep.ctx.stats();
    let mut c = Cycle::default();

    let before = Counters::take(&stats);
    let start = Instant::now();
    let out = t.span("checkpoint.save", |t| {
        t.span("mirror.mirror_out", |_| {
            dep.mirror.mirror_out(&dep.ctx, &dep.network)
        })
    })?;
    c.save_ms = start.elapsed().as_secs_f64() * 1e3;
    c.save_counters = before.delta(&stats);
    c.save_sim_ms = out.total_ms();
    c.encrypt_sim_ms = out.encrypt.millis();
    c.write_sim_ms = out.write.millis();
    let epoch = dep.mirror.epoch(&dep.ctx)?;

    let pool = dep.ctx.pool().clone();
    let crash_rng = &mut dep.crash_rng;
    t.span("pmem.crash", |_| {
        pool.crash(crash_rng, CrashMode::DropUnflushed)
    });
    // The power failure ends the old process. A new one would start from fresh pages,
    // so the memory the old one freed goes back to the kernel before the restart.
    t.span("process.exit", |_| release_freed_memory());
    let mut fresh = dep.template.clone();
    let model_bytes = fresh.model_bytes() as u64;
    let key = dep.key.clone();

    let before = Counters::take(&stats);
    let start = Instant::now();
    let (ctx, mirror, back) = t.span("checkpoint.restore", |t| {
        let ctx = t.span("plinius.context_open", |_| {
            PliniusContext::open(pool, CostModel::sgx_eml_pm())
        })?;
        ctx.provision_key_directly(key);
        ctx.enclave().alloc_trusted(model_bytes * 2)?;
        let mirror = t.span("mirror.open", |_| MirrorModel::open(&ctx))?;
        let back = t.span("mirror.mirror_in", |_| mirror.mirror_in(&ctx, &mut fresh))?;
        Ok::<_, PliniusError>((ctx, mirror, back))
    })?;
    c.restore_ms = start.elapsed().as_secs_f64() * 1e3;
    c.restore_counters = before.delta(&stats);
    c.restore_sim_ms = back.total_ms();
    c.read_sim_ms = back.read.millis();
    c.decrypt_sim_ms = back.decrypt.millis();
    c.matched =
        back.iteration == iteration && back.epoch == epoch && same_weights(&fresh, &dep.network);
    dep.ctx = ctx;
    dep.mirror = mirror;
    dep.network = fresh;
    Ok(c)
}

/// Runs `n` cycles; returns them and the simulated ns they took.
fn run_cycles(dep: &mut Dep, n: usize, t: &mut Tracer, report: &mut Report) -> (Vec<Cycle>, u64) {
    let clock = dep.ctx.clock();
    let sim0 = clock.now_ns();
    let mut out = Vec::new();
    while out.len() < n {
        match report.op("checkpoint cycle", checked_cycle(dep, out.len() as u64, t)) {
            Some(c) => out.push(c),
            None => break,
        }
    }
    (out, clock.now_ns() - sim0)
}

/// Returns the free memory of every heap to the kernel (`malloc_trim(0)`), as the exit
/// of a process does. Without it, whether a restore's model-sized buffers reuse pages
/// the previous cycle freed or fault in fresh ones depends on whether some live
/// allocation happens to pin the top of the heap: restores then alternate between
/// ~13 and ~24 ms, or settle at ~13 ms after an unrelated allocation, at a point that
/// differs from process to process.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count and only releases memory
        // that is free; it is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One cycle; a restore that does not return what was saved is an error.
fn checked_cycle(dep: &mut Dep, i: u64, t: &mut Tracer) -> Result<Cycle, PliniusError> {
    let c = cycle(dep, i, t)?;
    if c.matched {
        Ok(c)
    } else {
        Err(PliniusError::MirrorMismatch(
            "restore did not return the iteration, epoch and weights just saved".into(),
        ))
    }
}

/// The end-to-end measurement: one save/crash/restore cycle per [`ClosedLoop::op`].
pub struct CheckpointLoop {
    dep: Dep,
    cycles: Vec<Cycle>,
}

impl CheckpointLoop {
    pub fn start(
        cfg: &Cfg,
        seed: u64,
        phase: &Phase,
        role: Role,
        report: &mut Report,
    ) -> Option<Self> {
        let inputs = inputs(cfg, seed);
        let dep = match role {
            Role::Main => {
                crate::timed_setups(phase.setup_reps, report, "checkpoint set-up", || {
                    || deploy(cfg, &inputs)
                })
            }
            Role::Companion => report.op("checkpoint set-up", deploy(cfg, &inputs)),
        }?;
        Some(CheckpointLoop {
            dep,
            cycles: Vec::new(),
        })
    }
}

impl ClosedLoop for CheckpointLoop {
    fn op(&mut self, report: &mut Report) -> bool {
        let i = self.cycles.len() as u64;
        let r = checked_cycle(&mut self.dep, i, &mut Tracer::new(false));
        match report.op("checkpoint cycle", r) {
            Some(c) => {
                self.cycles.push(c);
                true
            }
            None => false,
        }
    }

    fn ops(&self) -> usize {
        self.cycles.len()
    }

    fn scale_since(&mut self, first: usize, factor: f64) {
        for c in self.cycles.iter_mut().skip(first) {
            c.save_ms *= factor;
            c.restore_ms *= factor;
        }
    }

    fn finish(self: Box<Self>, report: &mut Report) {
        let cycles = &self.cycles;
        let n = cycles.len();
        let col = |f: fn(&Cycle) -> f64| Samples::from(cycles.iter().map(f).collect::<Vec<_>>());
        let (save, restore) = (col(|c| c.save_ms), col(|c| c.restore_ms));
        report.note(format!("checkpoint save ms: {}", save.summary()));
        report.note(format!("checkpoint restore ms: {}", restore.summary()));
        report.metric("save_ms_p50", save.median(), "ms", n);
        report.metric("save_ms_p90", save.p90(), "ms", n);
        report.metric("restore_ms_p50", restore.median(), "ms", n);
        report.metric("restore_ms_p90", restore.p90(), "ms", n);
        report.metric("save_sim_ms", col(|c| c.save_sim_ms).median(), "sim_ms", n);
        report.metric(
            "restore_sim_ms",
            col(|c| c.restore_sim_ms).median(),
            "sim_ms",
            n,
        );
        report.check(
            "checkpoint.restores_match_saves",
            n > 0,
            format!(
                "{n} restores returned the iteration, epoch and bit-identical weights just saved"
            ),
        );
    }
}

pub fn traced(cfg: &Cfg, seed: u64, report: &mut Report) {
    let inputs = inputs(cfg, seed);
    let n = cfg.trace_cycles;
    let Some(mut a) = report.op("checkpoint set-up", deploy(cfg, &inputs)) else {
        return;
    };
    let t = Instant::now();
    let (_, untraced_sim) = run_cycles(&mut a, n, &mut Tracer::new(false), report);
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(a);

    let Some(mut b) = report.op("checkpoint set-up", deploy(cfg, &inputs)) else {
        return;
    };
    let mut tracer = Tracer::new(true);
    let t = Instant::now();
    let (cycles, traced_sim) = run_cycles(&mut b, n, &mut tracer, report);
    let traced_ms = t.elapsed().as_secs_f64() * 1e3;
    report.check(
        "checkpoint.trace_sim_reconciles",
        traced_sim == untraced_sim,
        format!("traced {traced_sim} ns vs untraced {untraced_sim} ns over {n} cycles"),
    );
    crate::nesting_check(&tracer, report);
    let totals = tracer.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ms());
    let avg = |f: fn(&Cycle) -> f64| Samples::from(cycles.iter().map(f).collect::<Vec<_>>()).mean();
    report.metric("mirror.mirror_out_ms", mean("mirror.mirror_out"), "ms", n);
    report.metric("mirror.open_ms", mean("mirror.open"), "ms", n);
    report.metric("mirror.mirror_in_ms", mean("mirror.mirror_in"), "ms", n);
    report.metric("sim.encrypt_ms", avg(|c| c.encrypt_sim_ms), "sim_ms", n);
    report.metric("sim.write_ms", avg(|c| c.write_sim_ms), "sim_ms", n);
    report.metric("sim.read_ms", avg(|c| c.read_sim_ms), "sim_ms", n);
    report.metric("sim.decrypt_ms", avg(|c| c.decrypt_sim_ms), "sim_ms", n);
    report.metric(
        "trace.overhead_frac",
        traced_ms / untraced_ms - 1.0,
        "ratio",
        n,
    );
    let mut save = Counters::default();
    let mut restore = Counters::default();
    for c in &cycles {
        save.add(&c.save_counters);
        restore.add(&c.restore_counters);
    }
    let mut all = save;
    all.add(&restore);
    all.step_metrics(n, report);
    save.save_metrics(n, b.network.model_bytes(), report);
    restore.restore_metrics(n, report);

    let sizes = probes::tensor_sizes(&b.network);
    if let Err(e) = probes::storage_and_crypto(&sizes, 10, report) {
        report.op::<(), _>("storage probes", Err(e));
    }
    probes::dispatch(200, report);
    let (ctx, mirror, net) = (&b.ctx, &b.mirror, &b.network);
    probes::scaling("mirror_out", 5, report, || {
        std::hint::black_box(mirror.mirror_out(ctx, net)).is_ok()
    });
    let mut restored = b.template.clone();
    probes::scaling("mirror_in", 5, report, || {
        std::hint::black_box(mirror.mirror_in(ctx, &mut restored)).is_ok()
    });
}
