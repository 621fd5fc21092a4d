//! `bcc-perfbench`: the repository's end-to-end benchmark.
//!
//! One run sweeps one named workload, persisted (`records.jsonl`,
//! `metrics.json`, `aggregates.json`), for a given number of seconds,
//! checks every sweep against the committed references and prints every
//! metric by name, unit and sample count. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path benches/perfbench/Cargo.toml -- \
//!     --workload rank-sampled --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, in CPU time scaled to a
//! reference host by the speed probe of [`calib`]; `--trace 1` makes a
//! separate traced run that reports the per-layer metrics. The benchmark
//! runs on one worker thread unless `RAYON_NUM_THREADS` says otherwise.
//! `--size smoke` runs the tiny grids the benchmark's own test uses;
//! `--write-refs` (re)writes the committed reference of the default seed.

#![forbid(unsafe_code)]

mod calib;
mod gate;
mod refs;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bcc_lab::{run_sweep, PointRecord, RunStore, Scenario};

use gate::{Gate, Sweep};
use workloads::{Bench, Size};

/// Setup probes per run; `setup_s` is their median.
const SETUP_PROBES: usize = 41;
/// Each completed directory is resumed at least [`MIN_RESUMES`] times and
/// until [`RESUME_BUDGET`] is spent (at most [`MAX_RESUMES`] times);
/// `resume_s` is their CPU time over their count.
const MIN_RESUMES: usize = 3;
const MAX_RESUMES: usize = 50;
const RESUME_BUDGET: Duration = Duration::from_millis(100);
/// Shards the in-process split cuts the grid into.
const SHARDS: usize = 4;
/// Speed probes run between two sweeps; each sweep is scaled by the
/// median of the probes just before and just after it.
const SPEED_PROBES: usize = 4;
/// Worker threads when `RAYON_NUM_THREADS` is unset. One: on a small
/// shared host, a second thread couples every point to the noisier of two
/// virtual CPUs, and its point latencies jump between two levels from one
/// sweep to the next.
const DEFAULT_THREADS: &str = "1";

struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    out: PathBuf,
    write_refs: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bench = None;
    let mut seed = refs::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut size = Size::Full;
    let mut out = PathBuf::from(".perfbench");
    let mut write_refs = false;
    let mut setup_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                bench = Some(Bench::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size takes full or smoke, not {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            "--write-refs" => write_refs = true,
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let bench = bench.ok_or("--workload is required (rank-sampled, wide-exact, find-clique)")?;
    Ok(Args {
        bench,
        seed,
        seconds,
        trace,
        size,
        out,
        write_refs,
        setup_probe,
    })
}

/// The execution configuration every result carries.
struct Host {
    nproc: usize,
    threads: usize,
    rayon_env: String,
    kernel: &'static str,
    kernel_env: String,
    commit: String,
}

impl Host {
    fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: rayon::current_num_threads(),
            rayon_env: std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
            kernel: bcc_f2::kernel::WordKernel::name(&bcc_f2::kernel::active()),
            kernel_env: std::env::var("BCC_KERNEL").unwrap_or_else(|_| "unset".into()),
            commit: commit(),
        }
    }
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if id.is_empty() {
        "unknown".into()
    } else {
        id
    }
}

/// One reported metric: value, unit and what it was measured over.
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
    pub(crate) samples: String,
}

pub(crate) fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: String,
) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

pub(crate) fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in `(0, 1]`); 0 for no values.
pub(crate) fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Removes `dir` if it exists, so the next sweep starts fresh.
pub(crate) fn reset(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot reset {}: {e}", dir.display()));
    }
}

/// Whether another round as long as the one begun at `round` would end
/// past `deadline`: runs stop there instead of overrunning by most of a
/// round.
pub(crate) fn ends_past(deadline: Instant, round: Instant) -> bool {
    Instant::now() + round.elapsed() > deadline
}

/// Summed (steal, all) jiffies of every CPU from `/proc/stat`: on a
/// virtual machine, steal is time the host ran something else, which
/// slows every timing of the run.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The clock the untraced run times sweeps and resumes with.
enum Clock {
    /// Seconds the calling thread has run on a CPU, from
    /// `/proc/thread-self/schedstat`: unlike wall time, it leaves out the
    /// time the thread waited while the virtual machine's host ran
    /// something else (steal) or the guest ran another process. Used when
    /// the sweep runs on the calling thread alone.
    ThreadCpu,
    /// Wall seconds since the given instant, when worker threads share the
    /// sweep and the calling thread's CPU time is not the sweep's.
    Wall(Instant),
}

impl Clock {
    fn for_threads(threads: usize) -> Clock {
        if threads == 1 {
            Clock::ThreadCpu
        } else {
            Clock::Wall(Instant::now())
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Clock::ThreadCpu => "CPU",
            Clock::Wall(_) => "wall",
        }
    }

    fn now(&self) -> f64 {
        match self {
            Clock::ThreadCpu => std::fs::read_to_string("/proc/thread-self/schedstat")
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                .map_or(f64::NAN, |ns| ns as f64 / 1e9),
            Clock::Wall(origin) => origin.elapsed().as_secs_f64(),
        }
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The set-up a sweep does before its first point, run in a fresh
/// process: scenario build and grid enumeration, run-directory reset,
/// first kernel dispatch. Prints the nanoseconds from `main`'s entry to
/// the first point.
fn setup_probe(args: &Args, started: Instant) {
    let scenario = args.bench.scenario(args.seed, args.size);
    std::hint::black_box(scenario.grid().points());
    let dir = args.out.join(args.bench.name()).join("probe");
    reset(&dir);
    std::hint::black_box(RunStore::open(&dir, &scenario));
    std::hint::black_box(bcc_f2::kernel::active());
    println!("ready {}", started.elapsed().as_nanos());
}

/// Seconds from a fresh process's entry to its first point, one per
/// setup process, and the times of the speed probes run between them.
/// Process creation itself is the operating system's cost, not the
/// program's, and is left out.
fn measure_setup(args: &Args) -> Result<(Vec<f64>, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROBES);
    let mut speed = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        speed.extend(calib::probe(1));
        let output = std::process::Command::new(&exe)
            .args(["--setup-probe", "--workload", args.bench.name()])
            .args(["--seed", &args.seed.to_string(), "--size", args.size.name()])
            .arg("--out")
            .arg(&args.out)
            .output()
            .map_err(|e| format!("cannot run a setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let nanos: u64 = text
            .trim()
            .strip_prefix("ready ")
            .and_then(|t| t.parse().ok())
            .filter(|_| output.status.success())
            .ok_or_else(|| format!("setup probe failed: {text}"))?;
        times.push(nanos as f64 / 1e9);
    }
    Ok((times, speed))
}

/// Splits the finished grid into [`SHARDS`] contiguous subsets, runs each
/// with `run_sweep_subset` into its own shard store, merges them with
/// `merge_shards`, and checks the merge against the single-process
/// records. Returns the merge's duration.
pub(crate) fn shard_phase(
    gate: &mut Gate,
    scenario: &Scenario,
    base: &Path,
    fresh: &[PointRecord],
) -> (Duration, bcc_shard::merge::MergeOutput, usize) {
    reset(base);
    let plan = bcc_shard::ShardPlan::cut(scenario.grid().len(), SHARDS);
    let reported: Vec<u64> = plan
        .ranges()
        .iter()
        .enumerate()
        .map(|(id, &(start, end))| {
            let ids: Vec<usize> = (start..end).collect();
            let dir = bcc_shard::ShardPlan::dir(base, id);
            let result = bcc_lab::run_sweep_subset(scenario, Some(&dir), &ids);
            bcc_lab::records_fingerprint(&result.records)
        })
        .collect();
    let start = Instant::now();
    let merged = bcc_shard::merge_shards(scenario, base, &plan, &reported);
    let took = start.elapsed();
    let mut sweep = Sweep::default();
    gate.same_records(&mut sweep, "shard merge", fresh, &merged.records);
    gate.files(&mut sweep, "shard merge", base, &merged.records, None);
    gate.tally(sweep);
    (took, merged, plan.len())
}

/// The untraced run: fresh persisted sweeps, each resumed, until the
/// time is up. Returns the end-to-end metrics and the same figures in
/// unscaled wall time, which are printed only.
///
/// Times are CPU times of the benchmark's one thread (wall times when
/// `RAYON_NUM_THREADS` asks for more threads): a sweep's is read
/// directly, a point's is its wall time times the CPU share (CPU time /
/// wall time) of its sweep, and a resume's is the CPU time of a sweep's
/// resumes over their count, since the CPU clock ticks too coarsely
/// (4 ms) to time one. This leaves out the stretches in which the thread
/// waited for a CPU (host steal, other processes). Each sweep's times are
/// then scaled to the reference host by the speed probes run just before
/// and just after it, which takes out the drift of the host's own speed.
/// The sweep figures are medians over the run's sweeps, so noise in a
/// minority of them does not move them.
fn run_untraced(
    args: &Args,
    scenario: &Scenario,
    threads: usize,
    gate: &mut Gate,
) -> (Vec<Metric>, Vec<Metric>) {
    let clock = Clock::for_threads(threads);
    let dir = args.out.join(args.bench.name()).join("run");
    let n = scenario.grid().len();
    // One probe to fault in the allocator's pages; it is not counted.
    calib::probe(1);
    let mut before = calib::probe(SPEED_PROBES);
    let mut speed = before.clone();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // Per sweep: wall and CPU seconds, the p50 and p90 of its records'
    // wall_ms, the wall and CPU seconds of its resumes, and its scale
    // factor. Per resume: wall seconds.
    let (mut walls, mut cpus, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut resume_cpus, mut resume_walls, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let mut resume = Vec::new();
    let mut last;
    loop {
        let round = Instant::now();
        reset(&dir);
        let (start, cpu) = (Instant::now(), clock.now());
        let fresh = run_sweep(scenario, Some(&dir));
        walls.push(start.elapsed().as_secs_f64());
        cpus.push(clock.now() - cpu);
        let point_ms: Vec<f64> = fresh.records.iter().map(|r| r.wall_ms).collect();
        p50.push(percentile(&point_ms, 0.5));
        p90.push(percentile(&point_ms, 0.9));

        // The fresh sweep's files are checked before a resume rewrites
        // them.
        let mut sweep = Sweep::default();
        gate.records(&mut sweep, "fresh sweep", &fresh.records);
        gate.counters(&mut sweep, "sweep", "fresh sweep", &fresh.metrics, |_| true);
        gate.files(
            &mut sweep,
            "fresh sweep",
            &dir,
            &fresh.records,
            Some(&fresh.metrics),
        );

        // The resumes are checked after the CPU clock is read, so that
        // the checks, the benchmark's own work, stay out of their time.
        let (resuming, cpu) = (Instant::now(), clock.now());
        let mut resumed = Vec::new();
        while resumed.len() < MIN_RESUMES
            || (resumed.len() < MAX_RESUMES && resuming.elapsed() < RESUME_BUDGET)
        {
            let start = Instant::now();
            resumed.push(run_sweep(scenario, Some(&dir)));
            resume.push(start.elapsed().as_secs_f64());
        }
        resume_cpus.push(clock.now() - cpu);
        resume_walls.push(resuming.elapsed().as_secs_f64());

        let after = calib::probe(SPEED_PROBES);
        factors.push(calib::factor(&[before.as_slice(), &after].concat()));
        speed.extend_from_slice(&after);
        before = after;

        for again in &resumed {
            gate.expect(
                &mut sweep,
                again.computed == 0 && again.resumed == n,
                || {
                    format!(
                        "resume computed {} points and resumed {} of {n}",
                        again.computed, again.resumed
                    )
                },
            );
            gate.same_records(&mut sweep, "resume", &fresh.records, &again.records);
        }
        gate.tally(sweep);
        last = fresh.records;
        if ends_past(deadline, round) {
            break;
        }
    }
    if args.bench.shards() {
        shard_phase(
            gate,
            scenario,
            &args.out.join(args.bench.name()).join("shards"),
            &last,
        );
    }
    let sweeps = walls.len();
    let (setup, setup_speed) = measure_setup(args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        (Vec::new(), Vec::new())
    });
    gate.expect(&mut Sweep::default(), setup.len() == SETUP_PROBES, || {
        "setup probes did not all finish".into()
    });

    let times = |values: &[f64], scales: &[&[f64]]| -> Vec<f64> {
        (0..values.len())
            .map(|i| values[i] * scales.iter().map(|s| s[i]).product::<f64>())
            .collect()
    };
    let shares: Vec<f64> = cpus.iter().zip(&walls).map(|(c, w)| c / w).collect();
    let resumes = resume.len() as f64;
    let per_sweep = |what: &str| format!("median over {sweeps} sweeps of {n} points, {what}");
    let figures = |clock: &str,
                   sweep_s: &[f64],
                   p50: &[f64],
                   p90: &[f64],
                   resume_s: f64,
                   setup_s: f64,
                   setup_clock: &str| {
        vec![
            metric(
                "points_per_s",
                n as f64 / median(sweep_s),
                "1/s",
                per_sweep(&format!("points / sweep {clock} time")),
            ),
            metric(
                "point_ms.p50",
                median(p50),
                "ms",
                per_sweep(&format!("p50 of the records' wall_ms, {clock}")),
            ),
            metric(
                "point_ms.p90",
                median(p90),
                "ms",
                per_sweep(&format!("p90 of the records' wall_ms, {clock}")),
            ),
            metric(
                "resume_s",
                resume_s,
                "s",
                format!(
                    "{resumes} resumes of a completed {n}-point directory, {clock} time / count"
                ),
            ),
            metric(
                "setup_s",
                setup_s,
                "s",
                format!(
                    "median of {} fresh processes, entry to first point, {setup_clock}",
                    setup.len()
                ),
            ),
        ]
    };
    let mut reported = figures(
        &format!("scaled {}", clock.name()),
        &times(&cpus, &[&factors]),
        &times(&p50, &[&shares, &factors]),
        &times(&p90, &[&shares, &factors]),
        times(&resume_cpus, &[&factors]).iter().sum::<f64>() / resumes,
        median(&setup) * calib::factor(&setup_speed),
        "scaled wall time",
    );
    reported.push(metric(
        "peak_rss_mb",
        peak_rss_mb(),
        "MiB",
        "VmHWM at exit, 1 process".into(),
    ));
    speed.extend_from_slice(&setup_speed);
    println!(
        "speed probe: median {:.4} ms over {} probes (reference host {} ms); {} share of the thread: median {:.4} over sweeps, {:.4} over resumes",
        median(&speed),
        speed.len(),
        calib::REFERENCE_MS,
        clock.name(),
        median(&shares),
        resume_cpus.iter().sum::<f64>() / resume_walls.iter().sum::<f64>()
    );
    let wall = figures(
        "wall",
        &walls,
        &p50,
        &p90,
        resume.iter().sum::<f64>() / resumes,
        median(&setup),
        "wall time",
    );
    (reported, wall)
}

fn print_table<'a>(metrics: impl Iterator<Item = &'a Metric> + Clone) {
    let width = metrics.clone().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!(
            "  {:<width$}  {:>14.6}  {:<5}  {}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_line(gate: &Gate, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        gate.failed == 0 && gate.failures.is_empty(),
        gate.attempted,
        gate.failed,
        fields.join(",")
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        setup_probe(&args, started);
        return ExitCode::SUCCESS;
    }
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", DEFAULT_THREADS);
    }
    let host = Host::probe();
    if host.threads > host.nproc {
        eprintln!(
            "perfbench: refusing to run {} threads on {} cores: load must come from one process",
            host.threads, host.nproc
        );
        return ExitCode::from(2);
    }
    let scenario = args.bench.scenario(args.seed, args.size);
    let ref_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("refs");
    let ref_file = refs::path(&ref_dir, args.bench.name(), args.size.name());
    let keyed_threads = args.bench.thread_keyed().then_some(host.threads);
    let reference = match refs::load(&ref_file, args.seed, keyed_threads) {
        Ok(reference) => reference,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "perfbench {} seed={} size={} seconds={} trace={}",
        args.bench.name(),
        args.seed,
        args.size.name(),
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host nproc={} threads={} RAYON_NUM_THREADS={} kernel={} BCC_KERNEL={} commit={}",
        host.nproc, host.threads, host.rayon_env, host.kernel, host.kernel_env, host.commit
    );
    match &reference {
        Some(r) => println!(
            "reference {} fingerprint {:016x}",
            ref_file.display(),
            r.fingerprint
        ),
        None => println!(
            "reference none for seed {} (threads {}): reference-free checks only",
            args.seed, host.threads
        ),
    }

    let jiffies = cpu_jiffies();
    let mut gate = Gate::new(scenario.grid().len(), reference);
    let (metrics, wall) = if args.trace {
        let metrics = traced::run(
            &args.out,
            args.bench,
            &scenario,
            args.seconds,
            host.threads,
            &mut gate,
        );
        (metrics, Vec::new())
    } else {
        run_untraced(&args, &scenario, host.threads, &mut gate)
    };

    if args.write_refs {
        if args.seed != refs::DEFAULT_SEED {
            eprintln!(
                "perfbench: references are committed for seed {} only",
                refs::DEFAULT_SEED
            );
            return ExitCode::from(2);
        }
        let dir = args.out.join(args.bench.name()).join("run");
        let records = bcc_lab::read_run_dir(&dir)
            .map(|(_, r)| r.into_values().collect::<Vec<_>>())
            .unwrap_or_default();
        let threads: Vec<usize> = keyed_threads.into_iter().collect();
        let text = refs::render(&records, args.seed, &threads);
        if let Err(e) = std::fs::write(&ref_file, text) {
            eprintln!("perfbench: cannot write {}: {e}", ref_file.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", ref_file.display());
    }

    // failed_frac is `failed / attempted` of the result line; it is 0 on a
    // passing run, so it is printed here rather than reported as a metric.
    let failed_frac = metric(
        "failed_frac",
        gate.failed as f64 / gate.attempted.max(1) as f64,
        "ratio",
        format!(
            "{} of {} points attempted{}",
            gate.failed,
            gate.attempted,
            if gate.has_reference() {
                ""
            } else {
                ", no reference for this seed"
            }
        ),
    );
    if let (Some((steal0, all0)), Some((steal1, all1))) = (jiffies, cpu_jiffies()) {
        let share = (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64;
        println!(
            "host steal {:.1}% of CPU time during the run",
            100.0 * share
        );
    }
    println!(
        "metrics ({} checks, {} failed):",
        gate.checks,
        gate.failures.len()
    );
    print_table(metrics.iter().chain([&failed_frac]));
    if !wall.is_empty() {
        println!("unscaled, in wall time (printed only):");
        print_table(wall.iter());
    }
    println!("{}", json_line(&gate, &metrics));
    ExitCode::SUCCESS
}
