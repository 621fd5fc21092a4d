//! End-to-end tests of the sweep scheduler and the persisted-run
//! lifecycle: spec → scheduler → JSONL → interruption → resume.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use bcc_lab::{run_sweep, Scenario, Workload};

/// A fresh directory under the system temp dir (no tempfile crate in the
/// hermetic workspace); removed by the returned guard.
fn scratch_dir(tag: &str) -> (PathBuf, DirGuard) {
    // bcc-lint: allow(no-global-mutable-state, reason = "scratch-dir uniquifier for parallel test processes; never observed by estimates")
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bcc-lab-test-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    (dir.clone(), DirGuard(dir))
}

struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Rebuilds `half_dir` as the wreckage of a run killed mid-append: the
/// manifest, the first `keep` intact records, and a torn copy of the
/// next line.
fn tear_into(full_dir: &std::path::Path, half_dir: &std::path::Path, keep: usize) {
    std::fs::create_dir_all(half_dir).unwrap();
    std::fs::copy(
        full_dir.join("manifest.json"),
        half_dir.join("manifest.json"),
    )
    .unwrap();
    let log = std::fs::read_to_string(full_dir.join("records.jsonl")).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    let mut torn = lines[..keep].join("\n");
    torn.push('\n');
    torn.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(half_dir.join("records.jsonl"), torn).unwrap();
}

fn distance_scenario(name: &str) -> Scenario {
    Scenario::builder(name)
        .workload(Workload::RankDistance { members: 2 })
        .n(&[1024, 2048])
        .k(&[4])
        .rounds(&[8])
        .seeds(&[1, 2, 3])
        .tolerance(0.35)
        .initial_samples(256)
        .max_samples(1 << 14)
        .build()
}

#[test]
fn ephemeral_sweeps_are_bitwise_deterministic() {
    let scenario = distance_scenario("det");
    let a = scenario.sweep_ephemeral();
    let b = scenario.sweep_ephemeral();
    assert_eq!(a.records.len(), 6);
    assert_eq!(a.computed, 6);
    assert_eq!(a.resumed, 0);
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.point_id, rb.point_id);
        assert_eq!(
            ra.estimate.to_bits(),
            rb.estimate.to_bits(),
            "point {} estimate differs across reruns",
            ra.point_id
        );
        assert_eq!(ra.noise_floor.to_bits(), rb.noise_floor.to_bits());
        assert_eq!(ra.samples, rb.samples);
    }
}

#[test]
fn persisted_runs_resume_without_recomputation() {
    let scenario = distance_scenario("persist");
    let (dir, _guard) = scratch_dir("persist");
    let first = scenario.sweep_in(&dir);
    assert_eq!(first.computed, 6);
    assert!(dir.join("manifest.json").exists());
    let log = std::fs::read_to_string(dir.join("records.jsonl")).unwrap();
    assert_eq!(log.lines().count(), 6);

    let second = scenario.sweep_in(&dir);
    assert_eq!(second.computed, 0, "a complete run recomputes nothing");
    assert_eq!(second.resumed, 6);
    for (a, b) in first.records.iter().zip(&second.records) {
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.samples, b.samples);
    }
}

#[test]
fn interrupted_runs_resume_bit_for_bit() {
    let scenario = distance_scenario("resume");
    let (full_dir, _g1) = scratch_dir("resume-full");
    let full = scenario.sweep_in(&full_dir);

    // Simulate a run killed mid-write: keep the manifest, keep the first
    // three records, and leave a torn final line.
    let (half_dir, _g2) = scratch_dir("resume-half");
    tear_into(&full_dir, &half_dir, 3);

    let resumed = run_sweep(&scenario, Some(&half_dir));
    assert_eq!(resumed.resumed, 3, "three intact records are kept");
    assert_eq!(resumed.computed, 3, "torn + missing points recompute");
    assert_eq!(resumed.records.len(), full.records.len());
    for (a, b) in full.records.iter().zip(&resumed.records) {
        assert_eq!(a.point_id, b.point_id);
        assert_eq!(
            a.estimate.to_bits(),
            b.estimate.to_bits(),
            "point {} diverged across interruption",
            a.point_id
        );
        assert_eq!(a.noise_floor.to_bits(), b.noise_floor.to_bits());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.met_tolerance, b.met_tolerance);
    }
    // The healed log holds every point exactly once.
    let healed = std::fs::read_to_string(half_dir.join("records.jsonl")).unwrap();
    let mut ids: Vec<usize> = healed
        .lines()
        .filter_map(bcc_lab::store::decode_record)
        .map(|r| r.point_id)
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
}

#[test]
fn wide_message_sweeps_persist_and_resume_bit_for_bit() {
    // The exact-engine workload through the full persisted lifecycle:
    // sweep, reopen (nothing recomputes), and a torn-log resume that must
    // reproduce the uninterrupted records exactly.
    let scenario = Scenario::builder("wide-resume")
        .workload(Workload::WideMessages { members: 2 })
        .n(&[1024, 4096])
        .k(&[4])
        .rounds(&[5])
        .bandwidth(&[2])
        .seeds(&[1, 2])
        .build();
    let (full_dir, _g1) = scratch_dir("wide-full");
    let full = scenario.sweep_in(&full_dir);
    assert_eq!(full.computed, 4);
    assert!(full.all_met_tolerance(), "exact points always meet");
    assert_eq!(full.max_noise_floor(), 0.0, "exact points have no noise");

    let again = scenario.sweep_in(&full_dir);
    assert_eq!(again.computed, 0);
    assert_eq!(again.resumed, 4);

    let (half_dir, _g2) = scratch_dir("wide-half");
    tear_into(&full_dir, &half_dir, 2);

    let resumed = run_sweep(&scenario, Some(&half_dir));
    assert_eq!(resumed.resumed, 2);
    assert_eq!(resumed.computed, 2);
    for (a, b) in full.records.iter().zip(&resumed.records) {
        assert_eq!(
            a.estimate.to_bits(),
            b.estimate.to_bits(),
            "wide point {} diverged across interruption",
            a.point_id
        );
        assert_eq!(a.samples, b.samples);
    }
}

#[test]
fn straddling_sampled_wide_sweeps_persist_and_resume_bit_for_bit() {
    // A grid that crosses the exact engine's node budget: rounds 5 routes
    // to the exact walk, rounds 14 (beyond the w = 2 boundary at 12) to
    // the adaptive wide sampler. The whole persisted lifecycle must hold
    // across the routing seam — including a torn-log resume whose
    // recomputed half contains points from *both* routes.
    let scenario = Scenario::builder("wide-sampled-resume")
        .workload(Workload::WideMessagesSampled { members: 2 })
        .n(&[1024])
        .k(&[4])
        .rounds(&[5, 14])
        .bandwidth(&[2])
        .seeds(&[1, 2])
        .tolerance(0.25)
        .initial_samples(256)
        .max_samples(1 << 12)
        .build();
    let (full_dir, _g1) = scratch_dir("wide-sampled-full");
    let full = scenario.sweep_in(&full_dir);
    assert_eq!(full.computed, 4);
    // The exact-routed points are noiseless; the sampled ones are not.
    let exact_records: Vec<_> = full.records.iter().filter(|r| r.rounds == 5).collect();
    let sampled_records: Vec<_> = full.records.iter().filter(|r| r.rounds == 14).collect();
    assert!(exact_records.iter().all(|r| r.noise_floor == 0.0));
    assert!(sampled_records.iter().all(|r| r.noise_floor > 0.0));
    assert!(
        sampled_records.iter().all(|r| r.samples <= 1 << 12),
        "sampled budgets are per-side samples, not node counts"
    );

    let again = scenario.sweep_in(&full_dir);
    assert_eq!(again.computed, 0);
    assert_eq!(again.resumed, 4);

    let (half_dir, _g2) = scratch_dir("wide-sampled-half");
    tear_into(&full_dir, &half_dir, 1);
    let resumed = run_sweep(&scenario, Some(&half_dir));
    assert_eq!(resumed.resumed, 1);
    assert_eq!(resumed.computed, 3);
    for (a, b) in full.records.iter().zip(&resumed.records) {
        assert_eq!(
            a.estimate.to_bits(),
            b.estimate.to_bits(),
            "point {} diverged across interruption",
            a.point_id
        );
        assert_eq!(a.noise_floor.to_bits(), b.noise_floor.to_bits());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.met_tolerance, b.met_tolerance);
    }
}

#[test]
#[should_panic(expected = "different scenario")]
fn sampled_wide_directories_refuse_a_foreign_budget() {
    // The sample cap shapes every sampled record, so it is part of the
    // fingerprint: reopening a run directory with a different budget must
    // refuse rather than mix records computed under different caps.
    let (dir, _guard) = scratch_dir("wide-budget");
    let build = |max_samples: usize| {
        Scenario::builder("wide-budget")
            .workload(Workload::WideMessagesSampled { members: 2 })
            .n(&[1024])
            .k(&[4])
            .rounds(&[13])
            .bandwidth(&[2])
            .tolerance(0.25)
            .initial_samples(128)
            .max_samples(max_samples)
            .build()
    };
    build(1 << 10).sweep_in(&dir);
    build(1 << 11).sweep_in(&dir);
}

#[test]
#[should_panic(expected = "different scenario")]
fn directories_refuse_foreign_scenarios() {
    let (dir, _guard) = scratch_dir("foreign");
    let a = Scenario::builder("same-name")
        .workload(Workload::RankDistance { members: 2 })
        .n(&[1024])
        .k(&[4])
        .rounds(&[8])
        .initial_samples(64)
        .max_samples(256)
        .build();
    a.sweep_in(&dir);
    // Same name, different grid: the manifest must reject it.
    let b = Scenario::builder("same-name")
        .workload(Workload::RankDistance { members: 2 })
        .n(&[1024, 2048])
        .k(&[4])
        .rounds(&[8])
        .initial_samples(64)
        .max_samples(256)
        .build();
    b.sweep_in(&dir);
}

#[test]
fn find_clique_and_throughput_sweeps_run_end_to_end() {
    let clique = Scenario::builder("clique-smoke")
        .workload(Workload::FindClique)
        .n(&[128])
        .k(&[80])
        .tolerance(0.3)
        .initial_samples(4)
        .max_samples(8)
        .build()
        .sweep_ephemeral();
    assert_eq!(clique.records.len(), 1);
    assert!((0.0..=1.0).contains(&clique.records[0].estimate));

    let throughput = Scenario::builder("prg-smoke")
        .workload(Workload::PrgThroughput)
        .n(&[1024])
        .k(&[64])
        .tolerance(0.5)
        .initial_samples(16)
        .max_samples(64)
        .build()
        .sweep_ephemeral();
    assert_eq!(throughput.records.len(), 1);
    assert!(throughput.records[0].estimate > 0.0);
}

/// Worker half of the find-clique kernel matrix: sweeps under whatever
/// kernel `BCC_KERNEL` selected and prints the finder's work counters and
/// the records' fingerprint.
#[test]
#[ignore = "worker spawned by find_clique_work_counters_are_kernel_invariant"]
fn find_clique_work_worker() {
    use bcc_f2::kernel::WordKernel;

    let sweep = Scenario::builder("clique-work")
        .workload(Workload::FindClique)
        .n(&[128, 192])
        .k(&[64, 96])
        .seeds(&[1, 2])
        .tolerance(0.3)
        .initial_samples(2)
        .max_samples(4)
        .build()
        .sweep_ephemeral();
    let branches = sweep.metrics.work_counter("graphs.clique.branches");
    let messages = sweep.metrics.work_counter("congest.messages_logged");
    assert!(
        branches > 0 && messages > 0,
        "the sweep must search and broadcast"
    );
    println!(
        "FIND_WORK {} {branches} {messages} {:016x}",
        bcc_f2::kernel::active().name(),
        bcc_lab::records_fingerprint(&sweep.records)
    );
}

/// Runner half: one worker subprocess per available F2 kernel; the
/// `graphs.clique.branches` and `congest.messages_logged` counters and the
/// records must agree bit for bit.
#[test]
fn find_clique_work_counters_are_kernel_invariant() {
    let mut kernels = vec!["scalar"];
    #[cfg(target_arch = "x86_64")]
    if bcc_f2::kernel::Kernel::avx2().is_some() {
        kernels.push("avx2");
    } else {
        eprintln!("NOTE find-clique kernel matrix: host has no AVX2, one column");
    }
    let exe = std::env::current_exe().expect("test binary path");
    let rows: Vec<String> = kernels
        .iter()
        .map(|kernel| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--exact",
                    "find_clique_work_worker",
                    "--ignored",
                    "--nocapture",
                ])
                .env("BCC_KERNEL", kernel)
                .output()
                .expect("spawn find-clique worker");
            assert!(
                out.status.success(),
                "worker under BCC_KERNEL={kernel} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let at = stdout
                .find("FIND_WORK")
                .unwrap_or_else(|| panic!("no work line in worker output:\n{stdout}"));
            let line = stdout[at..].lines().next().expect("work line");
            let mut parts = line.split_whitespace().skip(1);
            assert_eq!(
                parts.next(),
                Some(*kernel),
                "worker ran the requested kernel"
            );
            parts.collect::<Vec<_>>().join(" ")
        })
        .collect();
    assert!(
        rows.iter().all(|r| *r == rows[0]),
        "find-clique work and records must agree across kernels: {rows:?}"
    );
}
