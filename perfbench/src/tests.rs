//! Self-test at a tiny scale: every named metric is present with its unit, spans
//! nest, the traced run reconciles with the untraced one on the simulated clock, and
//! a second seed passes every check.

use super::*;
use std::sync::Mutex;

/// Held by every run: the traced runs set `PLINIUS_THREADS` for the whole process
/// while they measure `parallel.scaling.*`, which must not leak into a run on
/// another test thread.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
    let _guard = ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    run(&Args {
        workload: workload.to_owned(),
        seed,
        seconds: 0.0,
        trace,
        companion: false,
        tiny: true,
    })
}

#[test]
fn every_end_to_end_metric_is_reported_and_every_check_passes() {
    for workload in WORKLOADS {
        for seed in [1, 2] {
            let r = tiny(workload, seed, false);
            assert!(r.correct(), "{workload} seed {seed}:\n{}", r.table());
            assert_eq!(r.metrics.len(), END_TO_END.len(), "{}", r.table());
            for (name, unit) in END_TO_END {
                let m = &r.metrics[*name];
                assert_eq!(m.unit, *unit, "{name}");
                assert!(m.value > 0.0 && m.value.is_finite(), "{name} = {}", m.value);
            }
            // The named workload's own replay, and serve's on every run.
            for (check, wanted) in [
                ("train.replay_deterministic", *workload == "train"),
                ("serve.predictions_deterministic", true),
            ] {
                assert_eq!(r.checks.iter().any(|c| c.name == check), wanted, "{check}");
            }
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric_with_nested_spans() {
    for workload in WORKLOADS {
        let r = tiny(workload, 3, true);
        assert!(r.correct(), "{workload}:\n{}", r.table());
        assert_eq!(r.metrics.len(), PER_LAYER.len(), "{}", r.table());
        for (name, unit) in PER_LAYER {
            assert_eq!(r.metrics[*name].unit, *unit, "{name}");
        }
        let names: Vec<&str> = r.checks.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"trace.spans_nest"), "{names:?}");
        assert!(
            names.contains(&format!("{workload}.trace_sim_reconciles").as_str()),
            "{names:?}"
        );
    }
}

#[test]
fn traced_run_measures_the_layers_each_workload_reaches() {
    let train = tiny("train", 4, true);
    for name in [
        "darknet.train_batch_ms",
        "pmdata.decrypt_batch_ms",
        "mirror.snapshot_out_ms",
    ] {
        assert!(train.metrics[name].value > 0.0, "train {name}");
    }
    let ckpt = tiny("checkpoint", 4, true);
    for name in [
        "mirror.mirror_out_ms",
        "mirror.mirror_in_ms",
        "sim.write_ms",
        "pm.bytes_read_per_restore",
    ] {
        assert!(ckpt.metrics[name].value > 0.0, "checkpoint {name}");
    }
    assert_eq!(ckpt.metrics["darknet.train_batch_ms"].value, 0.0);
    // The serve loop is traced in the checkpoint run.
    for name in [
        "serve.refresh_ms",
        "serve.swaps",
        "darknet.forward_ms",
        "parallel.scaling.forward",
    ] {
        assert!(ckpt.metrics[name].value > 0.0, "checkpoint {name}");
    }
    assert_eq!(ckpt.metrics["mirror.torn_read_retries"].value, 0.0);
    assert!(ckpt
        .checks
        .iter()
        .any(|c| c.name == "serve.trace_sim_reconciles" && c.ok));
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
    }
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    let names = json.matches("\"name\": ").count();
    assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
}

#[test]
fn a_companion_report_survives_the_trip_between_processes() {
    let mut child = Report::default();
    child.metric("save_ms_p50", 78.928_761_000_000_01, "ms", 150);
    child.metric("success_rate", 1.0, "ratio", 7);
    child.op::<(), _>("cycle", Err("torn\tread\nagain"));
    child.op::<(), String>("cycle", Ok(()));
    child.check("checkpoint.restores_match_saves", true, "150 restores");
    child.check("serve.no_torn_reads", false, "2 torn-read retries");
    let mut parent = Report::default();
    parent.metric("setup_s", 0.5, "s", 7);
    parent.absorb(&child.encode()).expect("well-formed records");
    assert_eq!((parent.ops, parent.op_failures), (2, 1));
    assert_eq!(parent.metrics.len(), 3);
    let save = &parent.metrics["save_ms_p50"];
    assert_eq!(
        (save.value, save.unit, save.samples),
        (78.928_761_000_000_01, "ms", 150)
    );
    assert_eq!(parent.checks.len(), 2);
    assert!(parent.checks[0].ok && !parent.checks[1].ok);
    assert_eq!(parent.checks[1].detail, "2 torn-read retries");
    assert_eq!(parent.notes, ["cycle failed: torn read again"]);
    assert!(parent.absorb("metric\tno_such_metric\t1\t1").is_err());
    assert!(parent.absorb("garbage").is_err());
}

#[test]
fn a_non_finite_metric_fails_the_run() {
    let mut r = Report::default();
    r.metric("darknet.gflops", f64::NAN, "GFLOP/s", 1);
    finite_check(&mut r);
    assert!(!r.correct());
    assert!(r
        .json_line()
        .contains("{\"value\": -1, \"unit\": \"GFLOP/s\"}"));
}

#[test]
fn bad_arguments_are_rejected() {
    let ok = [
        "--workload",
        "train",
        "--seed",
        "1",
        "--seconds",
        "2",
        "--trace",
        "0",
    ];
    let args: Vec<String> = ok.iter().map(|s| s.to_string()).collect();
    assert!(parse_args(&args).is_ok());
    for (i, bad) in [(1, "nope"), (3, "x"), (5, "-1"), (7, "2")] {
        let mut a = args.clone();
        a[i] = bad.to_owned();
        assert!(parse_args(&a).is_err(), "{a:?}");
    }
    assert!(parse_args(&args[..6]).is_err());
    // `serve` runs in every run as a companion, never as the named workload.
    let mut a = args.clone();
    a[1] = "serve".to_owned();
    assert!(parse_args(&a).is_err());
    let companion: Vec<String> = ["--companion", "serve", "--seed", "4"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let a = parse_args(&companion).expect("companion arguments");
    assert!(a.companion && a.workload == "serve" && a.seed == 4);
}
