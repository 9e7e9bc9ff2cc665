//! Quickstart: the complete Plinius workflow on a small synthetic MNIST-like dataset —
//! remote attestation, key provisioning, encrypted data loading into PM, training with
//! per-iteration mirroring, and secure inference.
//!
//! Run with: `cargo run --example quickstart`

use plinius::{run_full_workflow, PersistenceBackend, TrainerConfig, TrainingSetup};
use plinius_darknet::{mnist_cnn_config, synthetic_mnist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(1);
    let setup = TrainingSetup {
        cost: CostModel::sgx_eml_pm(),
        pm_bytes: 64 * 1024 * 1024,
        model_config: mnist_cnn_config(2, 8, 32),
        dataset: synthetic_mnist(600, &mut rng),
        trainer: TrainerConfig {
            batch: 32,
            max_iterations: 60,
            mirror_frequency: 1,
            encrypted_data: true,
            seed: 7,
            ..TrainerConfig::default()
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: 3,
    };
    println!(
        "Running the full Plinius workflow (attest -> provision -> load -> train -> infer)..."
    );
    let report = run_full_workflow(&setup)?;
    println!("  attestation ok:   {}", report.attestation_ok);
    println!("  final iteration:  {}", report.final_iteration);
    println!("  final loss:       {:.4}", report.final_loss);
    println!("  test accuracy:    {:.1}%", report.test_accuracy * 100.0);
    println!(
        "  encrypted data in PM: {} KiB",
        report.pm_dataset_bytes / 1024
    );
    println!(
        "  simulated time:   {:.3} s",
        report.simulated_ns as f64 / 1e9
    );
    Ok(())
}
