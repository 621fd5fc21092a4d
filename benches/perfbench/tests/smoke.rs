//! The benchmark's own test: every workload at its smoke size, untraced
//! and traced, through the same checks as a measured run.

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["rank-sampled", "wide-exact", "find-clique"];

const END_TO_END: [&str; 6] = [
    "points_per_s",
    "point_ms.p50",
    "point_ms.p90",
    "resume_s",
    "setup_s",
    "peak_rss_mb",
];

fn run(workload: &str, trace: &str, seed: &str) -> Output {
    let out =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}-{seed}"));
    Command::new(env!("CARGO_BIN_EXE_bcc-perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace, "--size", "smoke"])
        .arg("--out")
        .arg(&out)
        // One thread: the committed references cover it, and no host has
        // fewer cores.
        .env("RAYON_NUM_THREADS", "1")
        .output()
        .expect("benchmark binary runs")
}

/// Checks the run passed and returns its stdout.
fn passed(output: &Output) -> String {
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "benchmark failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\":true,") && last.contains("\"failed\":0,"),
        "run not correct: {last}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        !last.contains("\"attempted\":0,"),
        "nothing attempted: {last}"
    );
    stdout
}

fn metric_value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":{{\"value\":");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {line}"))
        + key.len();
    let tail = &line[at..];
    tail[..tail.find(',').expect("value ends")]
        .parse()
        .expect("numeric value")
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_against_the_reference() {
    for workload in WORKLOADS {
        let stdout = passed(&run(workload, "0", "1"));
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with("reference ") && l.contains(" fingerprint ")),
            "{workload}: the committed smoke reference was not used:\n{stdout}"
        );
        let last = stdout.lines().last().expect("a result line");
        for name in END_TO_END {
            assert!(
                metric_value(last, name) > 0.0,
                "{workload}: {name} is not positive"
            );
        }
        assert!(
            stdout.contains("failed_frac"),
            "{workload}: no failed_frac line"
        );
    }
}

#[test]
fn traced_runs_report_layers_and_match_the_untraced_records() {
    // The layer counters each workload exists to exercise.
    let layers: [(&str, &[&str]); 3] = [
        ("rank-sampled", &["core.sampler.samples_drawn"]),
        ("wide-exact", &["core.walk.nodes", "shard.merge.records"]),
        ("find-clique", &["graphs.ak_samples"]),
    ];
    for (workload, names) in layers {
        let stdout = passed(&run(workload, "1", "1"));
        let last = stdout.lines().last().expect("a result line");
        for layer in names {
            assert!(metric_value(last, layer) > 0.0, "{workload}: {layer} is 0");
        }
        assert!(
            metric_value(last, "lab.store.appends") > 0.0,
            "{workload}: no appends"
        );
        assert_eq!(
            metric_value(last, "lab.store.healed_lines"),
            1.0,
            "{workload}: heal drill"
        );
        assert!(
            last.contains("\"obs.trace_overhead_frac\":"),
            "{workload}: no overhead"
        );
    }
}

#[test]
fn seeds_without_a_reference_still_pass_the_reference_free_checks() {
    let stdout = passed(&run("wide-exact", "0", "7"));
    assert!(stdout.contains("reference none for seed 7"), "{stdout}");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_bcc-perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
