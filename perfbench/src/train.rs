//! `train`: steady-state Algorithm 2 on the 5-conv, 16-filter MNIST CNN at batch 32,
//! training data encrypted in PM, the model mirrored every iteration through the
//! overlapped pipeline (ring depth 2).
//!
//! Chosen because about 95% of a step is `Network::train_batch`: GEMM and
//! thread-dispatch changes show here and PM changes barely do. It is also the only
//! workload that runs the pipeline's seal worker, and it seals many small tensors
//! (the per-tensor fan-out branch of the mirror's sealing).

use crate::report::{same_weights, weights_digest, Report, Samples};
use crate::trace::Tracer;
use crate::{probes, ClosedLoop, Phase, Role};
use plinius::{
    EnginePolicy, GemmPolicy, PersistenceBackend, PipelineMode, PliniusBuilder, PliniusError,
    PliniusTrainer, PmDataset, TrainerConfig, TrainingSetup,
};
use plinius_darknet::{mnist_cnn_config_with_momentum, synthetic_mnist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;
use std::time::Instant;

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    conv: usize,
    filters: usize,
    batch: usize,
    samples: usize,
    pm_bytes: usize,
    trace_steps: usize,
}

pub fn cfg(tiny: bool) -> Cfg {
    if tiny {
        Cfg {
            conv: 2,
            filters: 4,
            batch: 8,
            samples: 64,
            pm_bytes: 8 << 20,
            trace_steps: 6,
        }
    } else {
        Cfg {
            conv: 5,
            filters: 16,
            batch: 32,
            samples: 2048,
            pm_bytes: 64 << 20,
            trace_steps: 60,
        }
    }
}

/// The deployment description; the seed picks the data, the initial weights and the
/// batch order. Momentum 0: under the default 0.9 this model's loss ends at 0 or
/// blows up, which would make the step cost depend on the seed.
pub fn training_setup(cfg: &Cfg, seed: u64) -> TrainingSetup {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7472_6169_6e00);
    TrainingSetup {
        cost: CostModel::sgx_eml_pm(),
        pm_bytes: cfg.pm_bytes,
        model_config: mnist_cnn_config_with_momentum(cfg.conv, cfg.filters, cfg.batch, 0.0),
        dataset: synthetic_mnist(cfg.samples, &mut rng),
        trainer: TrainerConfig {
            batch: cfg.batch,
            max_iterations: u64::MAX,
            mirror_frequency: 1,
            encrypted_data: true,
            seed,
            pipeline: PipelineMode::Overlapped,
            ring_depth: plinius::DEFAULT_RING_DEPTH,
            crypto: EnginePolicy::from_env(),
            gemm: GemmPolicy::from_env(),
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: seed,
    }
}

/// Deployment (timed as `setup_s`): PM pool, key, `PmDataset::load`, model, mirror
/// allocation, and the first committed epoch.
pub fn deploy(setup: TrainingSetup) -> Result<PliniusTrainer, PliniusError> {
    let mut trainer = PliniusBuilder::new(setup).build()?;
    trainer.step()?;
    trainer.drain()?;
    Ok(trainer)
}

/// Runs `steps` closed-loop steps on a fresh deployment and returns the weights
/// digest and the simulated ns they took.
fn replay(setup: &TrainingSetup, steps: usize) -> Result<(u64, u64), PliniusError> {
    let mut trainer = deploy(setup.clone())?;
    let clock = trainer.context().clock();
    let sim0 = clock.now_ns();
    for _ in 0..steps {
        trainer.step()?;
    }
    Ok((weights_digest(trainer.network()), clock.now_ns() - sim0))
}

/// The end-to-end measurement: one closed-loop training step per [`ClosedLoop::op`].
pub struct TrainLoop {
    setup: TrainingSetup,
    trainer: PliniusTrainer,
    role: Role,
    check_ops: usize,
    sim_start: u64,
    step_ms: Samples,
    step_sim: Samples,
    nonfinite: usize,
    /// Weights digest and simulated ns after `check_ops` steps.
    at_check: Option<(u64, u64)>,
}

impl TrainLoop {
    pub fn start(
        cfg: &Cfg,
        seed: u64,
        phase: &Phase,
        role: Role,
        report: &mut Report,
    ) -> Option<Self> {
        let setup = training_setup(cfg, seed);
        let trainer = match role {
            Role::Main => crate::timed_setups(phase.setup_reps, report, "train set-up", || {
                let s = setup.clone();
                move || deploy(s)
            }),
            Role::Companion => report.op("train set-up", deploy(setup.clone())),
        }?;
        Some(TrainLoop {
            sim_start: trainer.context().clock().now_ns(),
            setup,
            trainer,
            role,
            check_ops: phase.check_ops,
            step_ms: Samples::default(),
            step_sim: Samples::default(),
            nonfinite: 0,
            at_check: None,
        })
    }
}

impl ClosedLoop for TrainLoop {
    fn op(&mut self, report: &mut Report) -> bool {
        let clock = self.trainer.context().clock();
        let sim0 = clock.now_ns();
        let t = Instant::now();
        let r = self.trainer.step();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let Some(loss) = report.op("train step", r) else {
            return false;
        };
        self.nonfinite += usize::from(!loss.is_finite());
        self.step_ms.push(ms);
        self.step_sim.push((clock.now_ns() - sim0) as f64 / 1e6);
        if self.step_ms.len() == self.check_ops {
            self.at_check = Some((
                weights_digest(self.trainer.network()),
                clock.now_ns() - self.sim_start,
            ));
        }
        true
    }

    fn ops(&self) -> usize {
        self.step_ms.len()
    }

    fn scale_since(&mut self, first: usize, factor: f64) {
        self.step_ms.scale_from(first, factor);
    }

    fn finish(mut self: Box<Self>, report: &mut Report) {
        report.op("train drain", self.trainer.drain());
        let (steps, step_ms) = (self.step_ms.len(), &self.step_ms);
        let batch = self.setup.trainer.batch;
        report.metric(
            "train_samples_per_s",
            (steps * batch) as f64 / (step_ms.sum() / 1e3),
            "1/s",
            steps,
        );
        report.metric("train_step_ms_p50", step_ms.median(), "ms", steps);
        report.metric("train_step_ms_p90", step_ms.p90(), "ms", steps);
        report.metric(
            "train_sim_ms_per_iter",
            self.step_sim.median(),
            "sim_ms",
            steps,
        );
        report.note(format!("train step ms: {}", step_ms.summary()));
        report.check(
            "train.loss_finite",
            self.nonfinite == 0,
            format!("{} of {steps} losses not finite", self.nonfinite),
        );
        if self.role == Role::Main {
            let TrainLoop {
                setup,
                trainer,
                check_ops,
                at_check,
                ..
            } = *self;
            drop(trainer);
            // Same seed, fresh deployment: the same weights and simulated time after
            // the same number of steps.
            if let (Some((digest, sim)), Some((d2, s2))) = (
                at_check,
                report.op("train replay", replay(&setup, check_ops)),
            ) {
                report.check(
                    "train.replay_deterministic",
                    digest == d2 && sim == s2,
                    format!(
                        "after {check_ops} steps: digest {digest:#018x} vs {d2:#018x}, sim {sim} vs {s2} ns"
                    ),
                );
            }
        }
    }
}

/// Mixes the run seed and the iteration counter into the batch-sampling seed, as the
/// trainer does, so the traced step draws the trainer's batches.
fn batch_seed(seed: u64, iteration: u64) -> u64 {
    let mut z = seed ^ iteration.wrapping_mul(0xa076_1d64_78bd_642f);
    z = (z ^ (z >> 32)).wrapping_mul(0xe703_7ed1_a0b4_28db);
    z ^ (z >> 29)
}

/// The traced run: the trainer's step re-driven through the public layer calls, one
/// span per call, reconciled against `PliniusTrainer::step` on the simulated clock
/// and on the weights; then the per-layer probes.
pub fn traced(cfg: &Cfg, seed: u64, report: &mut Report) {
    let setup = training_setup(cfg, seed);
    let n = cfg.trace_steps;
    // Untraced reference: the trainer itself.
    let Some(mut a) = report.op("train set-up", deploy(setup.clone())) else {
        return;
    };
    let clock_a = a.context().clock();
    let sim0 = clock_a.now_ns();
    let t = Instant::now();
    for _ in 0..n {
        if report.op("train step", a.step()).is_none() {
            return;
        }
    }
    report.op("train drain", a.drain());
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    let untraced_sim = clock_a.now_ns() - sim0;

    // The traced step over an identical deployment.
    let Some(b) = report.op("train set-up", deploy(setup.clone())) else {
        return;
    };
    let ctx = b.context().clone();
    let Some(mirror) = b.mirror_handle() else {
        report.check(
            "train.mirror_handle",
            false,
            "PM-mirror backend has no mirror",
        );
        return;
    };
    let mut net = b.network().clone();
    let Some(pm) = report.op("pmdata open", PmDataset::open(&ctx)) else {
        return;
    };
    let clock = ctx.clock();
    let stats = ctx.stats();
    let counters = crate::Counters::take(&stats);
    let mut tracer = Tracer::new(true);
    let (mut overlap_wait_ms, mut publishes) = (Samples::default(), 0usize);
    let batch = cfg.batch;
    let sim_start = clock.now_ns();
    let t = Instant::now();
    for _ in 0..n {
        let r: Result<f32, PliniusError> = tracer.span("trainer.step", |t| {
            let mut rng = StdRng::seed_from_u64(batch_seed(seed, net.iteration()));
            let (images, labels) = t.span("pmdata.decrypt_batch", |_| {
                pm.decrypt_batch(&ctx, batch, &mut rng)
            })?;
            ctx.enclave()
                .charge_compute(net.flops_per_sample() * batch as u64);
            let loss = t.span("darknet.train_batch", |_| {
                ctx.enclave().ecall("train_iteration", || {
                    net.train_batch(&images, &labels, batch)
                })
            })??;
            if let Some(p) = t.span("mirror.drain", |_| mirror.drain(&ctx))? {
                overlap_wait_ms.push(p.seal_join.millis());
                publishes += 1;
            }
            t.span("mirror.snapshot_out", |_| mirror.snapshot_out(&ctx, &net))?;
            Ok(loss)
        });
        if report.op("traced train step", r).is_none() {
            return;
        }
    }
    if let Some(Some(p)) = report.op(
        "traced drain",
        tracer.span("mirror.drain", |_| mirror.drain(&ctx)),
    ) {
        overlap_wait_ms.push(p.seal_join.millis());
        publishes += 1;
    }
    let traced_ms = t.elapsed().as_secs_f64() * 1e3;
    let traced_sim = clock.now_ns() - sim_start;
    report.check(
        "train.trace_sim_reconciles",
        traced_sim == untraced_sim,
        format!("traced {traced_sim} ns vs untraced {untraced_sim} ns over {n} steps"),
    );
    report.check(
        "train.trace_weights_match",
        same_weights(&net, a.network()),
        "traced step and PliniusTrainer end on bit-identical weights",
    );
    crate::nesting_check(&tracer, report);
    let delta = counters.delta(&stats);
    let totals = tracer.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ms());
    let decrypt_ms = mean("pmdata.decrypt_batch");
    let sample_sealed = (cfg_inputs_classes(&setup) * 4 + plinius_crypto::SEAL_OVERHEAD) * batch;
    report.metric("pmdata.decrypt_batch_ms", decrypt_ms, "ms", n);
    report.metric(
        "pmdata.decrypt_mib_s",
        sample_sealed as f64 / (1024.0 * 1024.0) / (decrypt_ms / 1e3),
        "MiB/s",
        n,
    );
    report.metric(
        "mirror.snapshot_out_ms",
        mean("mirror.snapshot_out"),
        "ms",
        n,
    );
    report.metric("mirror.drain_ms", mean("mirror.drain"), "ms", n + 1);
    report.metric(
        "parallel.overlap_wait_ms",
        overlap_wait_ms.mean(),
        "sim_ms",
        publishes,
    );
    report.metric(
        "trainer.self_ms",
        totals.get("trainer.step").map_or(0.0, |t| t.mean_self_ms()),
        "ms",
        n,
    );
    report.metric(
        "trace.overhead_frac",
        traced_ms / untraced_ms - 1.0,
        "ratio",
        n,
    );
    delta.step_metrics(n, report);
    delta.save_metrics(publishes, net.model_bytes(), report);

    // Per-layer probes at this workload's sizes.
    let mut rng = StdRng::seed_from_u64(batch_seed(seed, 0));
    let Some((images, labels)) =
        report.op("pmdata decrypt", pm.decrypt_batch(&ctx, batch, &mut rng))
    else {
        return;
    };
    probes::darknet_split(&net, &images, &labels, batch, 10, report);
    let mut fwd = net.clone();
    let fwd_ms = probes::median_ms(20, || {
        std::hint::black_box(fwd.forward(&images, batch));
    });
    report.metric("darknet.forward_ms", fwd_ms, "ms", 20);
    probes::sample_open(cfg_inputs_classes(&setup) * 4, 200, report);
    let sizes = probes::tensor_sizes(&net);
    if let Err(e) = probes::storage_and_crypto(&sizes, 20, report) {
        report.op::<(), _>("storage probes", Err(e));
    }
    probes::dispatch(200, report);
    let mut scaled = net.clone();
    probes::scaling("train_batch", 5, report, || {
        std::hint::black_box(scaled.train_batch(&images, &labels, batch)).is_ok()
    });
    probes::scaling("mirror_out", 10, report, || {
        std::hint::black_box(mirror.mirror_out(&ctx, &net)).is_ok()
    });
    let mut restored = net.clone();
    probes::scaling("mirror_in", 10, report, || {
        std::hint::black_box(mirror.mirror_in(&ctx, &mut restored)).is_ok()
    });
    probes::scaling("forward", 10, report, || {
        std::hint::black_box(fwd.forward(&images, batch));
        true
    });
    drop(b);
}

fn cfg_inputs_classes(setup: &TrainingSetup) -> usize {
    setup.dataset.inputs() + setup.dataset.classes()
}
