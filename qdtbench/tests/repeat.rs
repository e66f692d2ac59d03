//! The benchmark's own checks: for a fixed seed every integer per-layer
//! count repeats exactly, a second seed gives the same class mix, and a
//! run too short for its p90 fails loudly.
//!
//! The workloads simulate circuits of up to 21 qubits; run these tests
//! with `cargo test --release`.

use qdtbench::{run, setup, Options, Report, WORKLOADS};

/// The per-layer metrics that are whole counts read from the library's
/// public return values.
const COUNTS: [&str; 10] = [
    "analysis.to_array",
    "analysis.to_array_fused",
    "analysis.to_dd",
    "analysis.to_mps",
    "analysis.to_stabilizer",
    "analysis.to_tn",
    "dd.peak_nodes",
    "engine.collapses",
    "compile.swaps",
    "verify.wrong_verdicts",
];

fn options(workload: &str, seed: u64, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        // Zero seconds: the shortest run, two rounds when traced.
        seconds: 0.0,
        trace,
    }
}

fn traced(workload: &str, seed: u64) -> Report {
    run(&options(workload, seed, true)).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn integer_counts_repeat_for_a_fixed_seed() {
    for workload in WORKLOADS {
        let (a, b) = (traced(workload, 7), traced(workload, 7));
        for name in COUNTS {
            let x = a.metric(name).expect("every per-layer metric is reported");
            assert_eq!(Some(x), b.metric(name), "{workload}: {name}");
            assert_eq!(
                x.fract(),
                0.0,
                "{workload}: {name} = {x} is not a whole count"
            );
        }
        assert!(
            a.correct,
            "{workload}: failures outside known-defect classes"
        );
        assert_eq!(a.failed, b.failed, "{workload}");
    }
}

#[test]
fn a_second_seed_gives_the_same_class_mix() {
    for workload in WORKLOADS {
        let names = |seed| -> Vec<&'static str> {
            let set = setup(workload, seed).unwrap_or_else(|e| panic!("{workload}: {e}"));
            set.classes.iter().map(|c| c.name()).collect()
        };
        let first = names(1);
        assert_eq!(first, names(2), "{workload}");
        assert_eq!(first.len() % 2, 1, "{workload}: an even number of classes");
    }
}

#[test]
fn a_run_without_ten_jobs_beyond_p90_fails() {
    // One round of twelve jobs leaves one beyond the p90.
    let err = run(&options("verify", 7, false)).expect_err("too short to report a p90");
    assert!(err.contains("beyond the p90"), "{err}");
}
