//! The `bcc-shard` end-to-end driver: one sweep, many processes, one
//! bit-identical answer.
//!
//! ```text
//! cargo run --release --example shard_sweep            # full bench + BENCH_shard.json
//! cargo run --release --example shard_sweep -- --smoke # tiny CI grid, same drills
//! ```
//!
//! The driver runs the same scenario four ways and proves every answer
//! identical under [`bcc::lab::records_fingerprint`] (the deterministic
//! projection of every record — everything except honest wall-clock):
//!
//! 1. **single** — the in-process sweep, the reference answer;
//! 2. **1 worker** — a coordinator leasing shards to one spawned worker
//!    process (pure protocol overhead measurement);
//! 3. **2 workers** — two worker processes racing for leases; shard
//!    placement is decided by scheduling, the merged bits are not;
//! 4. **kill drill** — a worker scripted (`BCC_SHARD_FAULT`) to complete
//!    one point, tear its shard log mid-line, and abort. The coordinator
//!    reclaims the dead worker's lease, a healthy worker heals the torn
//!    store, resumes the flushed record, and the merged result still
//!    fingerprints identically.
//!
//! Worker processes are this same example re-executed with a hidden
//! `--worker <addr>` argument, so the drill runs real process boundaries
//! — real sockets, real `abort(2)`, real torn files — with no second
//! binary to locate. Results land in `BENCH_shard.json` (schema
//! `bcc-bench-shard/v1`) as a throughput-vs-workers scaling table with the
//! measured host (core count, F2 kernel, thread override); at 16 points
//! the interesting column is not the speedup but `fingerprint_match`,
//! which must read `true` in every row.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::Instant;

use bcc::f2::kernel::WordKernel;
use bcc::lab::{run_sweep, Scenario, Workload};
use bcc::shard::{run_worker, FaultPlan, ShardConfig, ShardOutcome, ShardServer, WorkerConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Hidden re-exec mode: this process is a worker, not the driver.
    if let Some(pos) = args.iter().position(|a| a == "--worker") {
        let addr = args.get(pos + 1).expect("--worker requires <addr>");
        let fault = std::env::var("BCC_SHARD_FAULT").ok().map(|v| {
            FaultPlan::from_env_str(&v)
                .unwrap_or_else(|| panic!("unintelligible BCC_SHARD_FAULT: {v:?}"))
        });
        run_worker(addr, WorkerConfig { fault }).expect("worker failed");
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let scenario = if smoke {
        Scenario::builder("shard-bench-smoke")
            .workload(Workload::RankDistance { members: 2 })
            .n(&[128, 256])
            .k(&[4])
            .rounds(&[6])
            .seeds(&[1, 2, 3, 4])
            .tolerance(0.35)
            .initial_samples(128)
            .max_samples(1 << 12)
            .build()
    } else {
        Scenario::builder("shard-bench")
            .workload(Workload::RankDistance { members: 2 })
            .n(&[512, 1024])
            .k(&[4, 6])
            .rounds(&[8])
            .seeds(&[1, 2, 3, 4])
            .tolerance(0.3)
            .initial_samples(1024)
            .max_samples(1 << 14)
            .build()
    };
    let points = scenario.grid().len();
    let root = PathBuf::from("target/lab").join(scenario.name());
    println!(
        "scenario {:?}: {points} points (workload {}, tolerance {})",
        scenario.name(),
        scenario.workload().tag(),
        scenario.precision().tolerance
    );

    // -- 1. the single-process reference ----------------------------------
    let single_dir = root.join("single");
    let _ = std::fs::remove_dir_all(&single_dir);
    let start = Instant::now();
    let reference = run_sweep(&scenario, Some(&single_dir));
    let single_secs = start.elapsed().as_secs_f64();
    let reference_fp = bcc::lab::records_fingerprint(&reference.records);
    println!(
        "single process: {points} points in {single_secs:.2} s (fingerprint {reference_fp:#018x})"
    );

    let mut rows = Vec::new();
    rows.push(Row {
        mode: "single",
        workers: 0,
        shards: 1,
        secs: single_secs,
        points,
        fingerprint_match: true,
        lease_steals: 0,
    });

    // -- 2./3. sharded clean runs at 1 and 2 workers -----------------------
    for workers in [1usize, 2] {
        let base = root.join(format!("w{workers}"));
        let (outcome, secs) = sharded_clean_run(&scenario, &base, workers);
        assert_eq!(
            outcome.fingerprint, reference_fp,
            "{workers}-worker sharded sweep diverged from the single-process reference"
        );
        assert_eq!(outcome.lease_steals, 0, "clean run: no leases stolen");
        assert_eq!(outcome.healed_lines, 0, "clean run: nothing to heal");
        // Work parity: the shards computed exactly the points the single
        // process did — no silent recomputation, none skipped.
        assert_eq!(
            outcome.metrics.work_counter("lab.points_computed"),
            reference.metrics.work_counter("lab.points_computed"),
            "merged work counters must equal the single-process sweep's"
        );
        println!(
            "{workers} worker(s): {points} points in {secs:.2} s over {} shards — fingerprint match",
            outcome.leases_issued
        );
        rows.push(Row {
            mode: "sharded",
            workers,
            shards: outcome.leases_issued,
            secs,
            points,
            fingerprint_match: outcome.fingerprint == reference_fp,
            lease_steals: outcome.lease_steals,
        });

        // The merged directory is an ordinary run directory: resuming it
        // recomputes nothing and reproduces the same bits.
        let rerun = run_sweep(&scenario, Some(&base));
        assert_eq!(rerun.resumed, points, "merged store resumes every point");
        assert_eq!(rerun.computed, 0);
        assert_eq!(bcc::lab::records_fingerprint(&rerun.records), reference_fp);
    }

    // -- 4. the kill drill -------------------------------------------------
    println!("\nkill drill: a worker completes one point, tears its log, aborts...");
    let drill_base = root.join("drill");
    let (outcome, secs) = kill_drill_run(&scenario, &drill_base);
    assert_eq!(
        outcome.fingerprint, reference_fp,
        "the drilled sweep must still match the reference bit for bit"
    );
    assert!(outcome.lease_steals >= 1, "the dead lease must be stolen");
    assert!(outcome.healed_lines >= 1, "the torn line must be healed");
    assert!(
        outcome.resumed_records >= 1,
        "the flushed record must resume, not recompute"
    );
    println!(
        "drill survived: {} lease(s) stolen, {} line(s) healed, {} record(s) resumed — fingerprint match",
        outcome.lease_steals, outcome.healed_lines, outcome.resumed_records
    );
    rows.push(Row {
        mode: "kill-drill",
        workers: 2,
        shards: outcome.leases_issued,
        secs,
        points,
        fingerprint_match: outcome.fingerprint == reference_fp,
        lease_steals: outcome.lease_steals,
    });

    // -- the scaling table -------------------------------------------------
    println!(
        "\n  {:<10} {:>7} {:>7} {:>8} {:>11} {:>12} {:>7}",
        "mode", "workers", "shards", "secs", "points/sec", "fp match", "steals"
    );
    for r in &rows {
        println!(
            "  {:<10} {:>7} {:>7} {:>8.2} {:>11.1} {:>12} {:>7}",
            r.mode,
            r.workers,
            r.shards,
            r.secs,
            r.points_per_sec(),
            r.fingerprint_match,
            r.lease_steals
        );
    }

    let bench_path = Path::new("BENCH_shard.json");
    std::fs::write(bench_path, render_bench(&rows, smoke, points, reference_fp))
        .expect("write BENCH_shard.json");
    println!("\nscaling table written to {}", bench_path.display());
    println!("all {} runs fingerprint-identical: OK", rows.len());
}

/// One scaling-table row.
struct Row {
    mode: &'static str,
    workers: usize,
    shards: usize,
    secs: f64,
    points: usize,
    fingerprint_match: bool,
    lease_steals: usize,
}

impl Row {
    fn points_per_sec(&self) -> f64 {
        self.points as f64 / self.secs.max(1e-9)
    }
}

/// Coordinator + `workers` spawned worker processes, no faults.
fn sharded_clean_run(scenario: &Scenario, base: &Path, workers: usize) -> (ShardOutcome, f64) {
    let _ = std::fs::remove_dir_all(base);
    let server = ShardServer::bind(scenario, base, ShardConfig::default());
    let addr = server.addr();
    let start = Instant::now();
    let children: Vec<Child> = (0..workers).map(|_| spawn_worker(&addr, None)).collect();
    let outcome = server.run();
    let secs = start.elapsed().as_secs_f64();
    for mut child in children {
        let status = child.wait().expect("wait for worker process");
        assert!(status.success(), "clean worker exited with {status}");
    }
    (outcome, secs)
}

/// Coordinator + a scripted-to-die worker, then a healthy one. The two
/// are sequenced — the faulty worker must be the only connection when it
/// takes its lease, so the drill deterministically exercises the steal.
fn kill_drill_run(scenario: &Scenario, base: &Path) -> (ShardOutcome, f64) {
    let _ = std::fs::remove_dir_all(base);
    let config = ShardConfig {
        shards: 2,
        lease_timeout_ms: 1_000,
        ..ShardConfig::default()
    };
    let server = ShardServer::bind(scenario, base, config);
    let addr = server.addr();
    let start = Instant::now();
    let outcome = std::thread::scope(|scope| {
        let coordinator = scope.spawn(move || server.run());
        let status = spawn_worker(&addr, Some("abort-after=1"))
            .wait()
            .expect("wait for faulty worker");
        assert!(!status.success(), "the faulty worker is scripted to abort");
        let mut healthy = spawn_worker(&addr, None);
        let outcome = coordinator.join().expect("coordinator panicked");
        let status = healthy.wait().expect("wait for healthy worker");
        assert!(status.success(), "healthy worker exited with {status}");
        outcome
    });
    (outcome, start.elapsed().as_secs_f64())
}

/// Re-executes this example as a worker process.
fn spawn_worker(addr: &str, fault: Option<&str>) -> Child {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.arg("--worker").arg(addr);
    match fault {
        Some(f) => {
            cmd.env("BCC_SHARD_FAULT", f);
        }
        None => {
            cmd.env_remove("BCC_SHARD_FAULT");
        }
    }
    cmd.spawn().expect("spawn worker process")
}

fn render_bench(rows: &[Row], smoke: bool, points: usize, reference_fp: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"bcc-bench-shard/v1\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"points\": {points},\n"));
    out.push_str(&format!(
        "  \"reference_fingerprint\": \"{reference_fp:#018x}\",\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"workers\": {}, \"shards\": {}, \"secs\": {:.3}, \"points_per_sec\": {:.2}, \"fingerprint_match\": {}, \"lease_steals\": {}}}{}\n",
            r.mode,
            r.workers,
            r.shards,
            r.secs,
            r.points_per_sec(),
            r.fingerprint_match,
            r.lease_steals,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"host\": {},\n", host_json()));
    out.push_str(
        "  \"notes\": {\"parity\": \"every row's records fingerprint equals the single-process reference (wall_ms excluded by construction)\", \"scaling\": \"a 16-point sweep is dominated by process start-up: the rows measure protocol overhead, fingerprint_match measures correctness\"}\n",
    );
    out.push_str("}\n");
    out
}

/// The host the rows were measured on: core count, the active F2 kernel
/// and the thread-count and kernel overrides as set (`unset` if not).
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".into());
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": \"{}\", \"BCC_KERNEL\": \"{}\", \"RAYON_NUM_THREADS\": \"{}\"}}",
        bcc::f2::kernel::active().name(),
        env("BCC_KERNEL"),
        env("RAYON_NUM_THREADS")
    )
}
