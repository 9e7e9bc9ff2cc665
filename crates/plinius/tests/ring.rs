//! Epoch-ring guarantees: crash-atomic ring publishes for arbitrary depths and
//! fail points (property-based), deterministic crash/resume twins at depth > 2,
//! trainer rollback, sealed export/import between deployments, and the
//! torn-read-retry plumbing.

use plinius::{
    train_with_crash_schedule, MirrorModel, MirrorVfs, PliniusBuilder, PliniusContext,
    PliniusError, SealedEpoch, TrainingSetup,
};
use plinius_crypto::Key;
use plinius_darknet::config::{build_network, mnist_cnn_config};
use plinius_darknet::Network;
use plinius_pmem::CrashMode;
use plinius_romulus::FailPoint;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn test_key(seed: u64) -> Key {
    let mut rng = StdRng::seed_from_u64(seed);
    Key::generate_128(&mut rng)
}

fn ring_context(key: &Key) -> PliniusContext {
    let ctx = PliniusContext::small_test(24 * 1024 * 1024);
    ctx.provision_key_directly(key.clone());
    ctx
}

/// A small fixed-shape network; weights are a pure function of `seed`.
fn seeded_network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap()
}

/// Stamps a recognisable per-epoch tag into the first parameter of the first
/// trainable layer, so a restored epoch can be identified cheaply.
fn tag_weights(net: &mut Network, tag: f32) {
    let layer = net
        .layers_mut()
        .iter_mut()
        .find(|l| l.is_trainable())
        .unwrap();
    let mut tensors: Vec<Vec<f32>> = layer.params().iter().map(|p| p.data.to_vec()).collect();
    tensors[0][0] = tag;
    layer.set_params(&tensors);
}

fn first_param(net: &Network) -> f32 {
    net.layers()
        .iter()
        .find(|l| l.is_trainable())
        .unwrap()
        .params()[0]
        .data[0]
}

fn weights(net: &Network) -> Vec<Vec<f32>> {
    net.layers()
        .iter()
        .filter(|l| l.is_trainable())
        .flat_map(|l| {
            l.params()
                .iter()
                .map(|p| p.data.to_vec())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// How the final (crash-armed) publish is interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPlan {
    /// No fail point armed: the publish completes.
    None,
    /// Crash before the (n+1)th direct twin write of the publish (n = 0 is before
    /// the target slot's meta invalidation; larger n land mid-tensor).
    DirectPublishes(usize),
    /// Crash right after the flip transaction enters MUTATING.
    MutatingState,
    /// Crash after the first n logged stores of the flip transaction (1..5 of 5).
    Stores(usize),
    /// Crash right after the flip transaction logically commits (COPYING set).
    CopyingState,
    /// Crash mid back-region copy, after the logical commit.
    BackCopies(usize),
}

impl CrashPlan {
    fn fail_point(self) -> Option<FailPoint> {
        match self {
            CrashPlan::None => None,
            CrashPlan::DirectPublishes(n) => Some(FailPoint::AfterDirectPublishes(n)),
            CrashPlan::MutatingState => Some(FailPoint::AfterMutatingState),
            CrashPlan::Stores(n) => Some(FailPoint::AfterStores(n)),
            CrashPlan::CopyingState => Some(FailPoint::AfterCopyingState),
            CrashPlan::BackCopies(n) => Some(FailPoint::AfterBackCopies(n)),
        }
    }
}

fn crash_plans() -> impl Strategy<Value = CrashPlan> {
    prop_oneof![
        Just(CrashPlan::None),
        (0usize..=12).prop_map(CrashPlan::DirectPublishes),
        Just(CrashPlan::MutatingState),
        (1usize..5).prop_map(CrashPlan::Stores),
        Just(CrashPlan::CopyingState),
        (0usize..=2).prop_map(CrashPlan::BackCopies),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ring's crash contract, against an explicit reference model: for any depth
    /// `R in 2..=8`, any number of committed epochs and any fail point in the next
    /// publish, recovery yields the newest *complete* epoch, the retained listing is
    /// exactly the reference set (min(R, committed) epochs, minus only the evictee
    /// whose slot the interrupted publish had already invalidated), every listed
    /// epoch restores with its own iteration and weights, and every unlisted one is
    /// a clean [`PliniusError::EpochNotRetained`].
    #[test]
    fn ring_crash_recovery_matches_the_reference_model(
        ring in 2usize..=8,
        committed in 0u64..=10,
        plan in crash_plans(),
    ) {
        let key = test_key(0x52 ^ ((ring as u64) << 16) ^ committed);
        let ctx = ring_context(&key);
        let mut net = seeded_network(17);
        let mirror = MirrorModel::allocate_with_ring(&ctx, &net, ring).unwrap();
        // One meta invalidation plus one twin write per tensor.
        let num_tensors: usize = net
            .layers()
            .iter()
            .filter(|l| l.is_trainable())
            .map(|l| l.params().len())
            .sum();
        let publish_calls = 1 + num_tensors;

        for e in 1..=committed {
            tag_weights(&mut net, e as f32);
            net.set_iteration(e);
            mirror.mirror_out(&ctx, &net).unwrap();
        }

        // The crash-armed publish of epoch `committed + 1`.
        let next = committed + 1;
        tag_weights(&mut net, next as f32);
        net.set_iteration(next);
        if let Some(fp) = plan.fail_point() {
            ctx.romulus().inject_failure(fp);
        }
        let result = mirror.mirror_out(&ctx, &net);

        // Reference model: does the armed point actually fire, and if it rolls the
        // flip back, had the publish already invalidated the evictee's slot?
        let (fires, commits_next, invalidated) = match plan {
            CrashPlan::None => (false, true, false),
            CrashPlan::DirectPublishes(n) if n >= publish_calls => (false, true, false),
            CrashPlan::DirectPublishes(n) => (true, false, n >= 1),
            CrashPlan::MutatingState | CrashPlan::Stores(_) => (true, false, true),
            CrashPlan::CopyingState | CrashPlan::BackCopies(_) => (true, true, false),
        };
        prop_assert_eq!(result.is_err(), fires, "plan {:?}", plan);
        let newest = if commits_next { next } else { committed };
        let mut expected: Vec<u64> = (newest.saturating_sub(ring as u64 - 1).max(1)..=newest)
            .collect();
        // A rolled-back publish with the invalidation already written loses the
        // evictee (only a full ring has one: epoch `next - ring >= 1`).
        if !commits_next && invalidated && next > ring as u64 {
            expected.retain(|&e| e != next - ring as u64);
        }

        // Power failure + restart over the surviving pool.
        let pool = ctx.pool().clone();
        drop((ctx, mirror));
        let mut rng = StdRng::seed_from_u64(committed ^ ((ring as u64) << 8));
        pool.crash(&mut rng, CrashMode::DropUnflushed);
        let ctx2 = PliniusContext::open(pool, sim_clock::CostModel::sgx_eml_pm()).unwrap();
        ctx2.provision_key_directly(key);
        let mirror2 = MirrorModel::open(&ctx2).unwrap();

        prop_assert_eq!(mirror2.epoch(&ctx2).unwrap(), newest, "plan {:?}", plan);
        prop_assert_eq!(mirror2.epochs(&ctx2).unwrap(), expected.clone(), "plan {:?}", plan);
        let mut restored = seeded_network(18);
        for &e in &expected {
            let report = mirror2.restore_epoch(&ctx2, &mut restored, e).unwrap();
            prop_assert_eq!(report.epoch, e);
            prop_assert_eq!(report.iteration, e);
            prop_assert_eq!(restored.iteration(), e);
            prop_assert_eq!(first_param(&restored), e as f32);
        }
        for e in 1..=next {
            if !expected.contains(&e) {
                prop_assert!(matches!(
                    mirror2.restore_epoch(&ctx2, &mut restored, e),
                    Err(PliniusError::EpochNotRetained(_))
                ), "epoch {} should be gone (plan {:?})", e, plan);
            }
        }
        if newest > 0 {
            let report = mirror2.mirror_in(&ctx2, &mut restored).unwrap();
            prop_assert_eq!(report.epoch, newest);
            prop_assert_eq!(report.iteration, newest);
        }
    }
}

/// A depth-4 crash/resume twin at the trainer tier: a run crashed twice mid-training
/// must produce exactly the loss stream (and therefore weights) of an uninterrupted
/// twin — the deeper ring changes what is *retained*, never what is *current*.
#[test]
fn crashed_training_at_depth_4_matches_the_uninterrupted_twin() {
    let mut setup = TrainingSetup::small_test();
    // Momentum buffers are volatile by design (Darknet weight-file semantics), so
    // bit-exact twins need momentum 0: then the mirror holds the whole state.
    setup.model_config = plinius_darknet::mnist_cnn_config_with_momentum(2, 4, 8, 0.0);
    setup.trainer.ring_depth = 4;
    let crashed = train_with_crash_schedule(&setup, &[4, 9], true).unwrap();
    let clean = train_with_crash_schedule(&setup, &[], true).unwrap();
    assert_eq!(crashed.crashes, 2);
    assert_eq!(clean.crashes, 0);
    assert_eq!(crashed.completed_iteration, clean.completed_iteration);
    // Bit-exact loss streams: every post-crash iteration resumed from the mirror
    // with the weights (and batch stream) of the uninterrupted run.
    assert_eq!(crashed.losses, clean.losses);
}

/// `rollback_to` is real time travel: after rolling back, the live weights equal a
/// twin that never trained past that epoch, and re-training from there reconverges
/// to the original final weights.
#[test]
fn rollback_to_restores_an_earlier_epoch_bit_exactly() {
    let mut setup = TrainingSetup::small_test();
    // Momentum 0 so the mirrored tensors are the *entire* training state and
    // re-training after a rollback is bit-for-bit reproducible.
    setup.model_config = plinius_darknet::mnist_cnn_config_with_momentum(2, 4, 8, 0.0);
    let mut trainer = PliniusBuilder::new(setup.clone())
        .ring_depth(4)
        .build()
        .unwrap();
    trainer.run().unwrap();
    assert_eq!(trainer.iteration(), 12);
    let final_weights = weights(trainer.network());
    let mirror = trainer.mirror_handle().expect("pm-mirror backend");
    // mirror_frequency 1: epoch n holds iteration n; ring 4 retains 9..=12.
    assert_eq!(
        mirror.epochs(trainer.context()).unwrap(),
        vec![9, 10, 11, 12]
    );

    trainer.rollback_to(10).unwrap();
    assert_eq!(trainer.iteration(), 10);
    // A twin that stopped at iteration 10 has exactly these weights.
    let mut twin = PliniusBuilder::new(setup).ring_depth(4).build().unwrap();
    twin.run_at_most(10).unwrap();
    assert_eq!(weights(trainer.network()), weights(twin.network()));

    // Evicted and future epochs are clean errors.
    assert!(matches!(
        trainer.rollback_to(8),
        Err(PliniusError::EpochNotRetained(8))
    ));
    assert!(matches!(
        trainer.rollback_to(13),
        Err(PliniusError::EpochNotRetained(13))
    ));

    // Re-training from the rolled-back epoch is deterministic: same batches, same
    // final weights as the first pass.
    trainer.run().unwrap();
    assert_eq!(trainer.iteration(), 12);
    assert_eq!(weights(trainer.network()), final_weights);
}

/// Export/import round trip between two deployments: the sealed payload carries an
/// epoch across pools bit-exactly, is serialisable, and is rejected wholesale by a
/// deployment holding a different model key.
#[test]
fn sealed_epochs_move_between_deployments_bit_identically() {
    let key = test_key(41);
    // Source deployment: three tagged epochs on a depth-3 ring.
    let ctx_a = ring_context(&key);
    let mut net = seeded_network(21);
    let mirror_a = MirrorModel::allocate_with_ring(&ctx_a, &net, 3).unwrap();
    for e in 1..=3u64 {
        tag_weights(&mut net, e as f32);
        net.set_iteration(e);
        mirror_a.mirror_out(&ctx_a, &net).unwrap();
    }
    let epoch3_weights = weights(&net);
    let vfs_a = MirrorVfs::new(&ctx_a, &mirror_a);
    let payload = vfs_a.export(3).unwrap();
    assert_eq!(payload.epoch, 3);
    assert_eq!(payload.iteration, 3);
    // The wire format round-trips.
    let payload = SealedEpoch::from_bytes(&payload.to_bytes()).unwrap();

    // Destination deployment: same key, fresh pool, fresh mirror (default depth).
    let ctx_b = ring_context(&key);
    let template = seeded_network(22);
    let mirror_b = MirrorModel::allocate(&ctx_b, &template).unwrap();
    let vfs_b = MirrorVfs::new(&ctx_b, &mirror_b);
    let committed = vfs_b.import(&payload).unwrap();
    assert_eq!(committed, 1, "the import is the destination's first epoch");
    let mut restored = seeded_network(23);
    let report = mirror_b
        .restore_epoch(&ctx_b, &mut restored, committed)
        .unwrap();
    assert_eq!(report.iteration, 3, "the source iteration rides along");
    assert_eq!(weights(&restored), epoch3_weights);
    // The imported sealed bytes are byte-identical to the source's, end to end.
    let reexported = vfs_b.export(committed).unwrap();
    assert_eq!(reexported.arena, payload.arena);

    // A deployment with a different key must reject the payload outright.
    let ctx_c = ring_context(&test_key(42));
    let mirror_c = MirrorModel::allocate(&ctx_c, &seeded_network(21)).unwrap();
    let vfs_c = MirrorVfs::new(&ctx_c, &mirror_c);
    assert!(matches!(
        vfs_c.import(&payload),
        Err(PliniusError::Crypto(_))
    ));
    assert_eq!(mirror_c.epoch(&ctx_c).unwrap(), 0, "nothing was committed");
}

/// The torn-read counter is plumbed from the seqlock retry loop to the trainer
/// accessor that `WorkflowReport` reads: an adversarially interleaved publish must
/// surface as a non-zero `torn_read_retries()`.
#[test]
fn torn_read_retries_surface_through_the_trainer() {
    let mut setup = TrainingSetup::small_test();
    setup.trainer.max_iterations = 3;
    let mut trainer = PliniusBuilder::new(setup).build().unwrap();
    trainer.run().unwrap();
    assert_eq!(
        trainer.torn_read_retries(),
        0,
        "quiescent run never retries"
    );

    // Adversarial schedule: between the reader's header snapshot and its slot
    // reads, a publisher (through a separate cloned handle — publishing through
    // the reader's own handle would deadlock on its state lock) advances the
    // ring twice, republishing the very slot under the reader.
    let reader = trainer.mirror_handle().expect("pm-mirror backend");
    let publisher = reader.clone();
    let hook_ctx = trainer.context().clone();
    let mut nets: Vec<(Network, u64)> = vec![
        (trainer.network().clone(), 100),
        (trainer.network().clone(), 101),
    ];
    reader.set_torn_read_hook(Some(Box::new(move |attempt| {
        if attempt == 0 {
            for (mut net, iteration) in nets.drain(..) {
                net.set_iteration(iteration);
                publisher.mirror_out(&hook_ctx, &net).unwrap();
            }
        }
    })));
    // Shapes must match the trainer's model for mirror_in.
    let mut restored = trainer.network().clone();
    let report = reader.mirror_in(trainer.context(), &mut restored).unwrap();
    reader.set_torn_read_hook(None);
    assert_eq!(report.iteration, 101, "the consistent newest epoch wins");
    assert!(
        trainer.torn_read_retries() >= 1,
        "the interleaved publishes must be visible through the trainer accessor"
    );
}
