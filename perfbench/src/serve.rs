//! `serve`: serve-while-training on the ~4 MB `sized_model_config(4, ..)` model.
//! `ServeSession` answers batches of 16 requests with one synchronous trainer step
//! between every 4 served batches, so 1 batch in 4 carries a hot swap (`mirror_in`
//! into the server's reused spare network). Requests are all due at once
//! (`arrival_ns` 0): the generator is one closed loop, each batch starting when the
//! previous one returned.
//!
//! Chosen because it reads the mirror while the trainer writes it, its darknet work
//! is skinny, memory-bound connected layers rather than `train`'s convolutions, and
//! it is the only path that restores into a long-lived network.
//!
//! It is not a workload a run is named after: every untraced run measures it as a
//! companion, and the `checkpoint` traced run traces it.

use crate::report::{Report, Samples};
use crate::trace::Tracer;
use crate::{probes, ClosedLoop, Phase};
use plinius::{
    EnginePolicy, GemmPolicy, InferenceServer, PersistenceBackend, PipelineMode, PliniusBuilder,
    PliniusError, PliniusTrainer, ServeConfig, ServeSession, TrainerConfig, TrainingSetup,
};
use plinius_darknet::{sized_model_config, synthetic_mnist, Dataset, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;
use std::time::Instant;

/// Served batches per trainer step.
const BATCHES_PER_STEP: usize = 4;

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    model_mb: usize,
    batch: usize,
    samples: usize,
    pm_bytes: usize,
    trace_batches: usize,
}

pub fn cfg(tiny: bool) -> Cfg {
    if tiny {
        Cfg {
            model_mb: 1,
            batch: 4,
            samples: 32,
            pm_bytes: 16 << 20,
            trace_batches: 8,
        }
    } else {
        Cfg {
            model_mb: 4,
            batch: 16,
            samples: 512,
            pm_bytes: 48 << 20,
            trace_batches: 80,
        }
    }
}

pub fn training_setup(cfg: &Cfg, seed: u64) -> TrainingSetup {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0073_6572_7665);
    TrainingSetup {
        cost: CostModel::sgx_eml_pm(),
        pm_bytes: cfg.pm_bytes,
        model_config: sized_model_config(cfg.model_mb, cfg.batch),
        dataset: synthetic_mnist(cfg.samples, &mut rng),
        trainer: TrainerConfig {
            batch: cfg.batch,
            max_iterations: u64::MAX,
            mirror_frequency: 1,
            encrypted_data: true,
            seed,
            pipeline: PipelineMode::Sync,
            ring_depth: plinius::DEFAULT_RING_DEPTH,
            crypto: EnginePolicy::from_env(),
            gemm: GemmPolicy::from_env(),
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: seed,
    }
}

/// A trainer and a serving session over its live mirror.
pub struct Dep {
    trainer: PliniusTrainer,
    session: ServeSession,
    template: Network,
    dataset: Dataset,
}

/// Deployment: the trainer's deployment and first committed epoch, then a server
/// attached to the mirror and a session over it.
pub fn deploy(cfg: &Cfg, seed: u64, setup: TrainingSetup) -> Result<Dep, PliniusError> {
    let template = setup.build_network()?;
    let dataset = setup.dataset.clone();
    let mut trainer = PliniusBuilder::new(setup).build()?;
    trainer.step()?;
    let mirror = trainer.mirror_handle().ok_or(PliniusError::NoMirrorModel)?;
    let server = InferenceServer::new(trainer.context(), mirror, &template)?;
    let session = ServeSession::new(
        server,
        dataset.clone(),
        ServeConfig {
            batch: cfg.batch,
            arrival_ns: 0,
            requests: u64::MAX,
            seed,
        },
    )?;
    Ok(Dep {
        trainer,
        session,
        template,
        dataset,
    })
}

/// A deployment being served, with everything the closed loop saw so far.
struct Serving {
    dep: Dep,
    sim0: u64,
    served0: u64,
    batch_ms: Samples,
    /// Whether each batch carried a hot swap.
    swapped: Vec<bool>,
    steps: usize,
    epochs_backwards: usize,
    check_at: usize,
    /// Predictions hash and simulated ns after `check_at` batches.
    at_check: Option<(u64, u64)>,
}

impl Serving {
    fn new(dep: Dep, check_at: usize) -> Self {
        Serving {
            sim0: dep.trainer.context().clock().now_ns(),
            served0: dep.session.report().served,
            dep,
            batch_ms: Samples::default(),
            swapped: Vec::new(),
            steps: 0,
            epochs_backwards: 0,
            check_at,
            at_check: None,
        }
    }

    fn sim_ns(&self) -> u64 {
        self.dep.trainer.context().clock().now_ns() - self.sim0
    }

    fn requests(&self) -> u64 {
        self.dep.session.report().served - self.served0
    }

    /// One closed-loop batch, preceded by a trainer step on every
    /// `BATCHES_PER_STEP`-th batch. Returns false if an operation failed.
    fn batch(&mut self, t: &mut Tracer, report: &mut Report) -> bool {
        let i = self.batch_ms.len();
        if i > 0 && i.is_multiple_of(BATCHES_PER_STEP) {
            let trainer = &mut self.dep.trainer;
            if report
                .op("trainer step", t.span("trainer.step", |_| trainer.step()))
                .is_none()
            {
                return false;
            }
            self.steps += 1;
        }
        let server = self.dep.session.server();
        let (swaps0, epoch0) = (server.swaps(), server.epoch());
        let session = &mut self.dep.session;
        let started = Instant::now();
        let r = t.span("serve.pump_one_batch", |_| session.pump_one_batch());
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if report.op("serve batch", r).is_none() {
            return false;
        }
        let server = self.dep.session.server();
        self.batch_ms.push(ms);
        self.swapped.push(server.swaps() != swaps0);
        self.epochs_backwards += usize::from(server.epoch() < epoch0);
        if self.batch_ms.len() == self.check_at {
            self.at_check = Some((self.dep.session.report().predictions_hash, self.sim_ns()));
        }
        true
    }

    fn run(&mut self, n: usize, t: &mut Tracer, report: &mut Report) {
        while self.batch_ms.len() < n && self.batch(t, report) {}
    }
}

/// The end-to-end measurement: one served batch (and, every fourth, a trainer step
/// before it) per [`ClosedLoop::op`].
pub struct ServeLoop {
    serving: Serving,
    cfg: Cfg,
    seed: u64,
    setup: TrainingSetup,
}

impl ServeLoop {
    pub fn start(cfg: &Cfg, seed: u64, phase: &Phase, report: &mut Report) -> Option<Self> {
        let setup = training_setup(cfg, seed);
        let dep = report.op("serve set-up", deploy(cfg, seed, setup.clone()))?;
        Some(ServeLoop {
            serving: Serving::new(dep, phase.check_ops),
            cfg: *cfg,
            seed,
            setup,
        })
    }
}

impl ClosedLoop for ServeLoop {
    fn op(&mut self, report: &mut Report) -> bool {
        self.serving.batch(&mut Tracer::new(false), report)
    }

    fn ops(&self) -> usize {
        self.serving.batch_ms.len()
    }

    fn scale_since(&mut self, first: usize, factor: f64) {
        self.serving.batch_ms.scale_from(first, factor);
    }

    fn finish(self: Box<Self>, report: &mut Report) {
        let s = &self.serving;
        let n = s.batch_ms.len();
        report.metric(
            "serve_req_per_s",
            s.requests() as f64 / (s.batch_ms.sum() / 1e3),
            "1/s",
            n,
        );
        report.metric("serve_batch_ms_p50", s.batch_ms.median(), "ms", n);
        report.metric("serve_batch_ms_p90", s.batch_ms.p90(), "ms", n);
        for (what, swap) in [("forward-only", false), ("swap", true)] {
            let ms: Vec<f64> = (0..n)
                .filter(|i| s.swapped[*i] == swap)
                .map(|i| s.batch_ms.get(i))
                .collect();
            report.note(format!(
                "serve {what} batch ms: {}",
                Samples::from(ms).summary()
            ));
        }
        report.check(
            "serve.epochs_monotonic",
            s.epochs_backwards == 0 && s.swapped.contains(&true),
            format!(
                "{} of {n} batches served an older epoch than the one before",
                s.epochs_backwards
            ),
        );
        let torn = s.dep.trainer.torn_read_retries();
        report.check(
            "serve.no_torn_reads",
            torn == 0,
            format!("{torn} torn-read retries"),
        );
        let ServeLoop {
            serving,
            cfg,
            seed,
            setup,
        } = *self;
        let (at_check, check_at) = (serving.at_check, serving.check_at);
        drop(serving);
        // Same seed, fresh deployment: the same predictions and simulated time after
        // the same number of batches.
        let replayed = deploy(&cfg, seed, setup).map(|d| {
            let mut again = Serving::new(d, check_at);
            again.run(check_at, &mut Tracer::new(false), report);
            again.at_check
        });
        if let (Some((h, sim)), Some(Some((h2, s2)))) =
            (at_check, report.op("serve replay", replayed))
        {
            report.check(
                "serve.predictions_deterministic",
                h == h2 && sim == s2,
                format!(
                    "after {check_at} batches: hash {h:#018x} vs {h2:#018x}, sim {sim} vs {s2} ns"
                ),
            );
        }
    }
}

/// The serve layer's part of a traced run: the loop run untraced and traced on two
/// identical deployments, reconciled on the simulated clock; then a second server
/// refreshed after each trainer step, and `Network::forward` of one batch of this
/// model. Records `serve.swaps`, `mirror.torn_read_retries`, `serve.refresh_ms`,
/// `darknet.forward_ms` and `parallel.scaling.forward`.
pub fn traced_layer(cfg: &Cfg, seed: u64, report: &mut Report) {
    let setup = training_setup(cfg, seed);
    let n = cfg.trace_batches;
    let Some(a) = report.op("serve set-up", deploy(cfg, seed, setup.clone())) else {
        return;
    };
    let mut untraced = Serving::new(a, 0);
    untraced.run(n, &mut Tracer::new(false), report);
    let untraced_sim = untraced.sim_ns();
    drop(untraced);

    let Some(b) = report.op("serve set-up", deploy(cfg, seed, setup)) else {
        return;
    };
    let mut traced = Serving::new(b, 0);
    let mut tracer = Tracer::new(true);
    traced.run(n, &mut tracer, report);
    let traced_sim = traced.sim_ns();
    report.check(
        "serve.trace_sim_reconciles",
        traced_sim == untraced_sim,
        format!("traced {traced_sim} ns vs untraced {untraced_sim} ns over {n} batches"),
    );
    crate::nesting_check(&tracer, report);
    let mut b = traced.dep;
    report.metric("serve.swaps", b.session.server().swaps() as f64, "count", n);
    report.metric(
        "mirror.torn_read_retries",
        b.trainer.torn_read_retries() as f64,
        "count",
        n,
    );

    // A second server over the same mirror, refreshed after every trainer step.
    let ctx = b.trainer.context().clone();
    let mut refresh = Samples::default();
    if let Some(mirror) = b.trainer.mirror_handle() {
        if let Some(mut server) = report.op(
            "serve attach",
            InferenceServer::new(&ctx, mirror, &b.template),
        ) {
            for _ in 0..20 {
                if report.op("trainer step", b.trainer.step()).is_none() {
                    break;
                }
                let t = Instant::now();
                let swapped = report.op("serve refresh", server.refresh());
                refresh.push(t.elapsed().as_secs_f64() * 1e3);
                if swapped != Some(true) {
                    report.check(
                        "serve.refresh_swaps",
                        false,
                        "refresh after a step did not swap",
                    );
                    break;
                }
            }
        }
    }
    report.metric("serve.refresh_ms", refresh.median(), "ms", refresh.len());

    let batch = cfg.batch;
    let (images, _) = b
        .dataset
        .random_batch(batch, &mut StdRng::seed_from_u64(seed));
    let mut fwd = b.trainer.network().clone();
    let fwd_ms = probes::median_ms(20, || {
        std::hint::black_box(fwd.forward(&images, batch));
    });
    report.metric("darknet.forward_ms", fwd_ms, "ms", 20);
    probes::scaling("forward", 10, report, || {
        std::hint::black_box(fwd.forward(&images, batch));
        true
    });
}
