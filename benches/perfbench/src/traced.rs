//! The traced run: the per-layer metrics.
//!
//! Each round of the run makes an untraced sweep (`run_sweep`, as the
//! end-to-end run does) and a traced one the harness drives itself:
//! `RunStore::open`, then `run_point` and `RunStore::append` per point on
//! at most `nproc` threads under the harness's own installed
//! `bcc_obs::Registry`, then `metrics.json` and `write_aggregates`. The
//! harness records its own spans (name, start, end, parent) around those
//! calls, keeps them in memory and writes them to `spans.jsonl` at exit.
//! Both sweeps must produce the same records and the same deterministic
//! work counters. Times of layers the harness cannot wrap come from the
//! program's span totals in the sweep's snapshot, and from one-at-a-time
//! replays of public calls at the grid's sizes.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bcc_congest::FnProtocol;
use bcc_core::{radix_sort_u64, DepthProfile, Estimator, SampledEstimator};
use bcc_lab::{run_point, run_sweep, PointRecord, RunStore, Scenario};
use bcc_obs::{Registry, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gate::{Gate, Sweep};
use crate::workloads::Bench;
use crate::{median, metric, ms, reset, Metric};

/// Replays of each public call; the reported time is their median.
const REPLAYS: usize = 3;

struct SpanRecord {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    thread: usize,
    start: Duration,
    end: Duration,
}

/// The harness's span log: kept in memory, written once at exit.
struct Tracer {
    origin: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span and returns its result and duration.
    fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        thread: usize,
        f: impl FnOnce(usize) -> T,
    ) -> (T, Duration) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let value = f(id);
        let end = self.origin.elapsed();
        self.spans
            .lock()
            .expect("span log poisoned")
            .push(SpanRecord {
                id,
                parent,
                name,
                thread,
                start,
                end,
            });
        (value, end - start)
    }

    /// The summed and the longest duration of the spans named `name`.
    fn total(&self, name: &str) -> (Duration, Duration) {
        let spans = self.spans.lock().expect("span log poisoned");
        let durations: Vec<Duration> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect();
        let max = durations.iter().copied().max().unwrap_or_default();
        (durations.iter().sum(), max)
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        let spans = self.spans.lock().expect("span log poisoned");
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"thread\":{},\"start_us\":{},\"end_us\":{}}}",
                s.id,
                s.name,
                s.thread,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        std::fs::write(path, out)
    }
}

/// One harness-driven sweep.
struct TracedSweep {
    records: Vec<PointRecord>,
    snapshot: Snapshot,
    wall: Duration,
}

fn traced_sweep(tracer: &Tracer, scenario: &Scenario, dir: &Path, threads: usize) -> TracedSweep {
    reset(dir);
    let (sweep, wall) = tracer.span("sweep", None, 0, |root| {
        let registry = Registry::new();
        let ((store, existing), _) = tracer.span("lab.store.open", Some(root), 0, |_| {
            RunStore::open(dir, scenario)
        });
        assert!(existing.is_empty(), "a reset directory has no records");
        let store = Mutex::new(store);
        let points = scenario.grid().points();
        let next = AtomicUsize::new(0);
        let mut records: Vec<PointRecord> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|thread| {
                    let (registry, store, points, next) = (&registry, &store, &points, &next);
                    s.spawn(move || {
                        let _scope = registry.install();
                        let mut done = Vec::new();
                        loop {
                            let id = next.fetch_add(1, Ordering::Relaxed);
                            let Some(point) = points.get(id) else {
                                return done;
                            };
                            let (record, _) = tracer.span("run_point", Some(root), thread, |_| {
                                run_point(scenario, id, point)
                            });
                            tracer.span("lab.store.append", Some(root), thread, |_| {
                                store.lock().expect("store poisoned").append(&record)
                            });
                            done.push(record);
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("sweep worker panicked"))
                .collect()
        });
        records.sort_by_key(|r| r.point_id);
        let snapshot = registry.snapshot();
        tracer.span("obs.metrics_json", Some(root), 0, |_| {
            let path = dir.join("metrics.json");
            std::fs::write(&path, snapshot.to_json())
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        });
        tracer.span("lab.analysis", Some(root), 0, |_| {
            bcc_lab::write_aggregates(dir, scenario, &records)
        });
        (records, snapshot)
    });
    TracedSweep {
        records: sweep.0,
        snapshot: sweep.1,
        wall,
    }
}

/// Counters both the harness-driven and the `run_sweep` path produce:
/// everything below the lab layer.
fn below_lab(name: &str) -> bool {
    !name.starts_with("lab.")
}

/// Appends half of the log's last line, as a run killed mid-write
/// leaves it, so the resume that follows has a torn line to heal.
fn tear_log(dir: &Path) {
    let path = dir.join("records.jsonl");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let last = text.lines().last().unwrap_or_default();
    let torn = &last[..last.len() / 2];
    std::fs::write(&path, format!("{text}{torn}"))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Replay timings of the sampler's public calls at the grid's sizes: one
/// `SampledEstimator::estimate` per `(k, rounds)` cell at the largest
/// budget the sweep settled on, then `radix_sort_u64` over as many keys
/// as that estimate draws, and the depth pass (`noise_floor_at` at every
/// depth, `resolved_horizon`, `smoothed`) over its profile.
fn replay_sampler(bench: Bench, scenario: &Scenario, records: &[PointRecord]) -> (f64, f64) {
    let mut cells: Vec<(u32, u32, u64)> = Vec::new();
    for r in records {
        match cells.iter_mut().find(|c| (c.0, c.1) == (r.k, r.rounds)) {
            Some(c) => c.2 = c.2.max(r.samples),
            None => cells.push((r.k, r.rounds, r.samples)),
        }
    }
    let tolerance = scenario.precision().tolerance;
    let (mut sort, mut depth) = (Vec::new(), Vec::new());
    for _ in 0..REPLAYS {
        let (mut sort_ms, mut depth_ms) = (0.0, 0.0);
        for &(k, rounds, samples) in &cells {
            let turns = rounds * scenario.grid().bandwidth[0];
            let n = turns as usize;
            let protocol = FnProtocol::new(n, k + 1, turns, move |proc, input, tr| {
                let mask = (0x9D ^ tr.as_u64() ^ ((proc as u64) << 1)) & ((1u64 << (k + 1)) - 1);
                (input & mask).count_ones() % 2 == 1
            });
            let family: Vec<_> = (0..bench.sides(k) - 1)
                .map(|b| bcc_prg::toy::pseudo_input(n, k, b))
                .collect();
            let baseline = bcc_prg::toy::uniform_input(n, k);
            let profile = SampledEstimator::new(samples as usize, 7)
                .estimate(&protocol, &family, &baseline, turns);

            let mut rng = StdRng::seed_from_u64(u64::from(k) << 32 | u64::from(rounds));
            let mut keys: Vec<u64> = (0..samples * bench.sides(k)).map(|_| rng.gen()).collect();
            let start = Instant::now();
            radix_sort_u64(&mut keys);
            sort_ms += ms(start.elapsed());
            std::hint::black_box(&keys);

            let start = Instant::now();
            std::hint::black_box(depth_pass(&profile, tolerance));
            depth_ms += ms(start.elapsed());
        }
        sort.push(sort_ms);
        depth.push(depth_ms);
    }
    (median(&sort), median(&depth))
}

fn depth_pass(profile: &DepthProfile, tolerance: f64) -> (f64, u32, DepthProfile) {
    let floors: f64 = (0..=profile.horizon)
        .map(|t| profile.noise_floor_at(t))
        .sum();
    (
        floors,
        profile.resolved_horizon(tolerance),
        profile.smoothed(),
    )
}

/// Replay timings of the graph sampler and the finder at every `(n, k)`
/// cell of the grid: `sample_planted` plus `sample_rand`, then
/// `find_planted_clique` on the planted instance.
fn replay_graphs(scenario: &Scenario) -> (f64, f64) {
    let grid = scenario.grid();
    let (mut sample, mut find) = (Vec::new(), Vec::new());
    for replay in 0..REPLAYS {
        let (mut sample_ms, mut find_ms) = (0.0, 0.0);
        for &n in &grid.n {
            for &k in &grid.k {
                let mut rng = StdRng::seed_from_u64(replay as u64);
                let start = Instant::now();
                let instance = bcc_graphs::planted::sample_planted(&mut rng, n, k as usize);
                std::hint::black_box(bcc_graphs::planted::sample_rand(&mut rng, n));
                sample_ms += ms(start.elapsed());
                let p = bcc_planted::find::activation_probability(n, k as usize);
                let start = Instant::now();
                std::hint::black_box(bcc_planted::find_planted_clique(
                    &instance.graph,
                    p,
                    &mut rng,
                ));
                find_ms += ms(start.elapsed());
            }
        }
        sample.push(sample_ms);
        find.push(find_ms);
    }
    (median(&sample), median(&find))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: rounds of (untraced, traced) sweeps until `seconds`
/// are up, then the shard merge and the replays.
pub(crate) fn run(
    out: &Path,
    bench: Bench,
    scenario: &Scenario,
    seconds: u64,
    threads: usize,
    gate: &mut Gate,
) -> Vec<Metric> {
    let base = out.join(bench.name());
    let (plain_dir, traced_dir) = (base.join("run"), base.join("traced"));
    let n = scenario.grid().len();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let tracer = Tracer::new();
    let mut first: Option<(Snapshot, Vec<PointRecord>)> = None;
    let (mut overhead, mut busy, mut straggler, mut point_sum) = (vec![], vec![], vec![], vec![]);
    let (mut open, mut append, mut json, mut analysis, mut resume) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut resume_counts;
    let mut rounds = 0;
    loop {
        let began = Instant::now();
        rounds += 1;
        let round = if rounds == 1 { &tracer } else { &Tracer::new() };
        let untraced = || {
            reset(&plain_dir);
            let start = Instant::now();
            let plain = run_sweep(scenario, Some(&plain_dir));
            (plain, start.elapsed())
        };
        // Alternate which sweep goes first, so drift within a round does
        // not bias the overhead.
        let ((plain, plain_wall), traced) = if rounds % 2 == 1 {
            let plain = untraced();
            (plain, traced_sweep(round, scenario, &traced_dir, threads))
        } else {
            let traced = traced_sweep(round, scenario, &traced_dir, threads);
            (untraced(), traced)
        };

        let mut sweep = Sweep::default();
        gate.records(&mut sweep, "untraced sweep", &plain.records);
        gate.same_records(&mut sweep, "traced sweep", &plain.records, &traced.records);
        // Each counter class must repeat exactly across rounds; the two
        // sweeps share the class of every counter below the lab layer.
        let every: fn(&str) -> bool = |_| true;
        for (class, what, snapshot, keep) in [
            ("sweep", "untraced sweep", &plain.metrics, every),
            ("below-lab", "untraced sweep", &plain.metrics, below_lab),
            ("below-lab", "traced sweep", &traced.snapshot, below_lab),
            ("traced", "traced sweep", &traced.snapshot, every),
        ] {
            gate.counters(&mut sweep, class, what, snapshot, keep);
        }
        gate.files(
            &mut sweep,
            "traced sweep",
            &traced_dir,
            &traced.records,
            Some(&traced.snapshot),
        );

        tear_log(&traced_dir);
        let (resumed, took) = round.span("lab.store.resume", None, 0, |_| {
            run_sweep(scenario, Some(&traced_dir))
        });
        gate.expect(
            &mut sweep,
            resumed.computed == 0 && resumed.healed == 1,
            || {
                format!(
                    "resume over a torn log computed {} points and healed {} lines",
                    resumed.computed, resumed.healed
                )
            },
        );
        gate.same_records(&mut sweep, "resume", &plain.records, &resumed.records);
        gate.tally(sweep);
        resume_counts = (
            resumed.metrics.work_counter("lab.store.healed_lines"),
            resumed.metrics.work_counter("lab.store.resumed_records"),
        );

        let wall = traced.wall.as_secs_f64();
        let (points, max_point) = round.total("run_point");
        overhead.push(wall / plain_wall.as_secs_f64() - 1.0);
        point_sum.push(ms(points));
        busy.push(points.as_secs_f64() / (wall * threads as f64));
        straggler.push(max_point.as_secs_f64() / wall);
        open.push(ms(round.total("lab.store.open").0));
        append.push(ms(round.total("lab.store.append").0));
        json.push(ms(round.total("obs.metrics_json").0));
        analysis.push(ms(round.total("lab.analysis").0));
        resume.push(ms(took));
        if first.is_none() {
            first = Some((traced.snapshot, traced.records));
        }
        if crate::ends_past(deadline, began) {
            break;
        }
    }
    let (snapshot, records) = first.expect("at least one round ran");

    let (merge_ms, merge_records, merge_shards) = if bench.shards() {
        let (took, merged, shards) =
            crate::shard_phase(gate, scenario, &base.join("shards"), &records);
        (ms(took), merged.records.len(), shards)
    } else {
        (0.0, 0, 0)
    };
    let samples_drawn = snapshot.work_counter("exec.samples_drawn");
    let (sort_ms, depth_ms) = if samples_drawn > 0 {
        replay_sampler(bench, scenario, &records)
    } else {
        (0.0, 0.0)
    };
    let ak_samples = snapshot.work_counter("graphs.planted.ak_samples");
    let (sample_ms, find_ms) = if ak_samples > 0 {
        replay_graphs(scenario)
    } else {
        (0.0, 0.0)
    };
    if let Err(e) = tracer.write(&base.join("spans.jsonl")) {
        eprintln!("perfbench: cannot write the span log: {e}");
    }

    let work = |name: &str| snapshot.work_counter(name) as f64;
    let span_ms = |name: &str| {
        snapshot
            .spans
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, h)| h.total as f64 / 1e3)
    };
    let words: f64 = ["boolean", "bytes", "filter", "reduce", "shift"]
        .iter()
        .map(|f| work(&format!("kernel.words.{f}")))
        .sum();
    let final_samples: f64 = records
        .iter()
        .map(|r| (r.samples * bench.sides(r.k)) as f64)
        .sum();
    let final_trials: f64 = records.iter().map(|r| r.samples as f64).sum();
    let store_bytes = std::fs::metadata(traced_dir.join("records.jsonl")).map_or(0, |m| m.len());
    let cells: BTreeSet<_> = records
        .iter()
        .map(|r| (r.n, r.k, r.rounds, r.bandwidth))
        .collect();

    let once = |what: &str| format!("{what}, first traced sweep of {n} points");
    let med = |what: &str| format!("{what}, median of {rounds} traced sweeps");
    let replayed = |what: &str| format!("{what}, median of {REPLAYS} replays");
    let counter = |name: &'static str, key: &str| metric(name, work(key), "count", once(key));
    vec![
        counter("f2.words.boolean", "kernel.words.boolean"),
        counter("f2.words.bytes", "kernel.words.bytes"),
        counter("f2.words.filter", "kernel.words.filter"),
        counter("f2.words.reduce", "kernel.words.reduce"),
        counter("f2.words.shift", "kernel.words.shift"),
        metric(
            "f2.bytes_computed",
            8.0 * words,
            "B",
            once("8 x kernel words, computed"),
        ),
        counter("core.walk.nodes", "walk.nodes"),
        counter("core.walk.live_points", "walk.live_points"),
        counter("core.walk.children_built", "walk.children_built"),
        counter("core.walk.frontier_tasks", "walk.frontier_tasks"),
        metric(
            "core.walk.exact_ms",
            span_ms("walk.exact"),
            "ms",
            once("walk.exact span total"),
        ),
        metric(
            "core.walk.chunk_ms",
            span_ms("walk.chunk"),
            "ms",
            once("walk.chunk span total"),
        ),
        counter("core.sampler.samples_drawn", "exec.samples_drawn"),
        counter("core.sampler.keys_sorted", "exec.keys_sorted"),
        counter("core.sampler.keys_merged", "exec.keys_merged"),
        counter("core.sampler.batches", "exec.adaptive.batches"),
        counter(
            "core.sampler.budget_growths",
            "exec.adaptive.budget_growths",
        ),
        metric(
            "core.sampler.adaptive_ms",
            span_ms("exec.adaptive"),
            "ms",
            once("exec.adaptive span total"),
        ),
        metric(
            "core.sampler.sort_ms",
            sort_ms,
            "ms",
            replayed("radix_sort_u64"),
        ),
        metric(
            "core.sampler.final_over_drawn",
            ratio(final_samples, samples_drawn as f64),
            "ratio",
            once("final budget x sides / samples drawn"),
        ),
        metric(
            "core.sampler.merged_per_sorted",
            ratio(work("exec.keys_merged"), work("exec.keys_sorted")),
            "ratio",
            once("keys merged / keys sorted"),
        ),
        metric(
            "stats.depth_pass_ms",
            depth_ms,
            "ms",
            replayed("DepthProfile depth pass"),
        ),
        counter("prg.support_points", "prg.support_points"),
        counter("graphs.ac_samples", "graphs.planted.ac_samples"),
        counter("graphs.ak_samples", "graphs.planted.ak_samples"),
        counter("graphs.clique_vertices", "graphs.planted.clique_vertices"),
        metric(
            "graphs.sample_ms",
            sample_ms,
            "ms",
            replayed("sample_planted + sample_rand"),
        ),
        metric(
            "planted.find_ms",
            find_ms,
            "ms",
            replayed("find_planted_clique"),
        ),
        metric(
            "planted.trials_over_final",
            ratio(ak_samples as f64, final_trials),
            "ratio",
            once("trials across doublings / final trials"),
        ),
        metric(
            "lab.sched.point_ms_sum",
            median(&point_sum),
            "ms",
            med("run_point spans"),
        ),
        metric(
            "lab.sched.busy_frac",
            median(&busy),
            "ratio",
            med(&format!("point ms / (wall x {threads} threads)")),
        ),
        metric(
            "lab.sched.max_point_share",
            median(&straggler),
            "ratio",
            med("slowest point / wall"),
        ),
        metric(
            "lab.store.open_ms",
            median(&open),
            "ms",
            med("RunStore::open span"),
        ),
        metric(
            "lab.store.append_ms",
            median(&append),
            "ms",
            med("RunStore::append spans"),
        ),
        metric(
            "lab.store.appends",
            n as f64,
            "count",
            once("RunStore::append calls"),
        ),
        metric(
            "lab.store.bytes",
            store_bytes as f64,
            "B",
            once("records.jsonl size"),
        ),
        metric(
            "lab.store.resume_ms",
            median(&resume),
            "ms",
            med("resume over a torn log"),
        ),
        metric(
            "lab.store.healed_lines",
            resume_counts.0 as f64,
            "count",
            once("resume"),
        ),
        metric(
            "lab.store.resumed_records",
            resume_counts.1 as f64,
            "count",
            once("resume"),
        ),
        metric(
            "lab.analysis.ms",
            median(&analysis),
            "ms",
            med("write_aggregates span"),
        ),
        metric(
            "lab.analysis.rows",
            cells.len() as f64,
            "count",
            once("aggregate rows"),
        ),
        metric(
            "obs.metrics_json_ms",
            median(&json),
            "ms",
            med("snapshot to metrics.json"),
        ),
        metric(
            "shard.merge.ms",
            merge_ms,
            "ms",
            "merge_shards, 1 merge".into(),
        ),
        metric(
            "shard.merge.records",
            merge_records as f64,
            "count",
            "merged records".into(),
        ),
        metric(
            "shard.merge.shards",
            merge_shards as f64,
            "count",
            "shards merged".into(),
        ),
        metric(
            "obs.trace_overhead_frac",
            median(&overhead),
            "ratio",
            med("traced wall / untraced wall - 1"),
        ),
    ]
}
