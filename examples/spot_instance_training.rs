//! Training on an AWS EC2 spot instance (the Fig. 10 scenario): a market-price trace is
//! compared against a maximum bid every five minutes; the training process is killed
//! whenever it is outbid and resumes from the PM mirror when the instance comes back.
//!
//! Run with: `cargo run --example spot_instance_training [trace.csv]`

use plinius::{
    spot_crash_schedule, train_with_crash_schedule, PersistenceBackend, TrainerConfig,
    TrainingSetup,
};
use plinius_darknet::{mnist_cnn_config_with_momentum, synthetic_mnist};
use plinius_spot::{SpotSimulator, SpotTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(12);
    let trace = match std::env::args().nth(1) {
        Some(path) => SpotTrace::parse_csv(&std::fs::read_to_string(path)?)?,
        None => SpotTrace::synthetic(120, 0.0912, &mut rng),
    };
    let sim = SpotSimulator::new(trace, 0.0955);
    println!(
        "Spot trace: {} points, {} interruptions at max bid {}, availability {:.1}%",
        sim.trace().len(),
        sim.interruptions(),
        sim.max_bid(),
        sim.availability() * 100.0
    );
    let schedule = spot_crash_schedule(&sim, 3);
    let setup = TrainingSetup {
        cost: CostModel::eml_sgx_pm(),
        pm_bytes: 64 * 1024 * 1024,
        // Momentum 0 keeps this small model stable over the long interrupted
        // run (with momentum it can overshoot after converging).
        model_config: mnist_cnn_config_with_momentum(3, 8, 16, 0.0),
        dataset: synthetic_mnist(400, &mut rng),
        trainer: TrainerConfig {
            batch: 16,
            // Far enough to hit the first interruptions of the synthetic trace
            // (the schedule above kills training around iterations 78 and 111).
            max_iterations: 120,
            mirror_frequency: 1,
            encrypted_data: true,
            seed: 21,
            ..TrainerConfig::default()
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: 4,
    };
    let report = train_with_crash_schedule(&setup, &schedule, true)?;
    println!(
        "Training finished at iteration {} after {} executed iterations and {} spot interruptions.",
        report.completed_iteration, report.total_iterations_executed, report.crashes
    );
    if let Some(last) = report.losses.last() {
        println!("Final loss: {last:.4}");
    }
    Ok(())
}
