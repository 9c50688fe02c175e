//! Criterion performance benchmark of the campaign layer's throughput work
//! (not a paper figure): parallel persistent-cache preload, learned-cost
//! dispatch, and cache compaction.
//!
//! Before criterion runs, the bench asserts the layer's contractual
//! properties and writes a machine-readable `BENCH_campaign.json` at the
//! repository root:
//!
//! * **Parallel preload** — the quick ACmin cache replayed [`REPLAYS`] times
//!   (a respawn-churn corpus) is preloaded with 1 worker and with the pooled
//!   worker count; both must seed identical caches, and on a host with >= 4
//!   cores the pooled preload must be >= 4x faster.
//! * **Learned scheduling** — on a simulated mixed grid whose analytic model
//!   misranks the long pole, dispatching by the fitted cost model must give
//!   a list-scheduling makespan no worse than the analytic order's.
//! * **Compaction** — compacting the duplicated corpus must shrink it by
//!   more than 4x and preload the identical trial set afterwards.
//! * **Long-line preload** — a corpus of ACmax records at least
//!   [`LONG_LINE_BYTES`] long (a mixed grid's longest lines) must preload
//!   at >= [`LONG_LINE_FLOOR_MB_PER_S`] MB/s on one worker.

use criterion::{criterion_group, criterion_main, Criterion};
use rowpress_core::engine::{lookup_module, CostModel, Engine, Measurement, PersistentCache, Plan};
use rowpress_core::ExperimentConfig;
use rowpress_dram::Time;
use std::path::PathBuf;
use std::time::Instant;

/// How many times the quick-grid cache body is replicated into the preload
/// corpus — the file a shard respawned this many times would have appended.
const REPLAYS: usize = 32;

/// The shortest record line admitted to the long-line preload corpus.
const LONG_LINE_BYTES: usize = 64 * 1024;

/// Sequential preload floor on the long-line corpus, in MB (10^6 bytes) per
/// second. A string parser that re-validates the rest of its input for each
/// character reads this corpus at ~2 MB/s; a linear one at ~70 MB/s.
const LONG_LINE_FLOOR_MB_PER_S: f64 = 20.0;

fn acmin_plan(cfg: &ExperimentConfig) -> Plan {
    Plan::grid(cfg)
        .modules(&rowpress_bench::engine_bench_modules())
        .measurements(
            [Time::from_ns(36.0), Time::from_us(7.8), Time::from_ms(30.0)]
                .into_iter()
                .map(|t| Measurement::AcMin { t_aggon: t }),
        )
        .build()
}

fn report_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rowpress-bench-{tag}-{}.jsonl", std::process::id()))
}

/// Best-of-N preload wall time at the given worker count, in seconds.
fn preload_seconds(path: &PathBuf, cfg: &ExperimentConfig, workers: usize, expect: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let started = Instant::now();
        let cache = PersistentCache::open_with_workers(path, cfg, workers).expect("open corpus");
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(
            cache.preloaded(),
            expect,
            "preload must be worker-count-invariant"
        );
        drop(cache); // nothing journaled: the drop flush leaves the corpus untouched
        best = best.min(elapsed);
    }
    best
}

/// Writes the long-line preload corpus to `path` and returns its config,
/// its distinct trial count and its size in bytes. The lines are real ACmax
/// records (every flipped cell listed) of the quick preset's most
/// press-vulnerable modules, kept only when at least [`LONG_LINE_BYTES`]
/// long and replicated as a respawned shard would append them.
fn long_line_corpus(path: &PathBuf) -> (ExperimentConfig, usize, usize) {
    let cfg = ExperimentConfig::quick().with_rows_per_module(4);
    let modules: Vec<_> = ["S3", "M3", "M6"]
        .iter()
        .map(|id| lookup_module(id).expect("inventory module"))
        .collect();
    let plan = Plan::grid(&cfg)
        .modules(&modules)
        .measurement(Measurement::AcMax {
            t_aggon: Time::from_ns(36.0),
        })
        .build();
    std::fs::remove_file(path).ok();
    {
        let persistent = PersistentCache::open(path, &cfg).expect("create cache");
        let engine = Engine::new(&cfg).with_persistent_cache(&persistent);
        engine.run_collect(&plan).expect("ACmax grid");
    }
    let text = std::fs::read_to_string(path).expect("read cache");
    let mut lines = text.lines();
    let header = lines.next().expect("header");
    let long: Vec<&str> = lines.filter(|l| l.len() >= LONG_LINE_BYTES).collect();
    assert!(
        long.len() >= 8,
        "the ACmax grid must yield >= 8 lines of >= {LONG_LINE_BYTES} bytes, got {}",
        long.len()
    );
    // Eight replays make a ~6.5 MB corpus: long enough to time, short
    // enough that even a quadratic parser finishes the gate.
    let mut corpus = format!("{header}\n");
    for _ in 0..8 {
        for line in &long {
            corpus.push_str(line);
            corpus.push('\n');
        }
    }
    std::fs::write(path, &corpus).expect("write long-line corpus");
    (cfg, long.len(), corpus.len())
}

/// List-scheduling makespan of dispatching `order` onto `workers` workers.
fn makespan(order: &[usize], true_cost_us: &[u64], workers: usize) -> u64 {
    let mut free = vec![0u64; workers];
    for &index in order {
        let worker = (0..workers).min_by_key(|&w| free[w]).unwrap();
        free[worker] += true_cost_us[index];
    }
    free.into_iter().max().unwrap_or(0)
}

fn bench_campaign(c: &mut Criterion) {
    let cfg = ExperimentConfig::quick();
    let plan = acmin_plan(&cfg);
    let path = temp_path("campaign-corpus");
    std::fs::remove_file(&path).ok();
    {
        let persistent = PersistentCache::open(&path, &cfg).expect("create cache");
        let engine = Engine::new(&cfg).with_persistent_cache(&persistent);
        engine.run_collect(&plan).expect("quick grid");
    }

    // The preload corpus: the flushed quick-grid cache with its record body
    // replicated REPLAYS times, as a shard respawned that often would have
    // appended it.
    let text = std::fs::read_to_string(&path).expect("read cache");
    let header = text.lines().next().expect("header").to_string();
    let body: Vec<&str> = text.lines().skip(1).collect();
    let mut corpus = header.clone();
    corpus.push('\n');
    for _ in 0..REPLAYS {
        for line in &body {
            corpus.push_str(line);
            corpus.push('\n');
        }
    }
    std::fs::write(&path, &corpus).expect("write corpus");
    let corpus_lines = REPLAYS * body.len();

    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let parallel_workers = rowpress_core::campaign::worker_count().max(4);
    let seq = preload_seconds(&path, &cfg, 1, plan.len());
    let par = preload_seconds(&path, &cfg, parallel_workers, plan.len());
    let preload_lines_per_s = corpus_lines as f64 / seq.max(1e-12);
    let preload_speedup_parallel = seq / par.max(1e-12);

    let long_path = temp_path("campaign-long-lines");
    let (long_cfg, long_trials, long_bytes) = long_line_corpus(&long_path);
    let long_seconds = preload_seconds(&long_path, &long_cfg, 1, long_trials);
    let preload_long_line_mb_per_s = long_bytes as f64 / 1e6 / long_seconds.max(1e-12);
    std::fs::remove_file(&long_path).ok();

    // Learned vs analytic dispatch on a mixed grid whose analytic model
    // misranks the long pole: many retention trials with huge modeled
    // durations that are nearly free on the wall clock, plus genuinely
    // expensive press searches.
    let mixed_cfg = ExperimentConfig::quick().with_rows_per_module(1);
    let mixed = Plan::grid(&mixed_cfg)
        .module(&lookup_module("S3").expect("inventory module"))
        .measurements(
            std::iter::once(Measurement::AcMin {
                t_aggon: Time::from_ms(30.0),
            })
            .chain([4.0, 5.0, 6.0, 7.0, 8.0].into_iter().map(|secs| {
                Measurement::Retention {
                    duration: Time::from_secs(secs),
                }
            })),
        )
        .build();
    let true_cost_us: Vec<u64> = mixed
        .trials()
        .iter()
        .map(|t| match t.measurement {
            Measurement::AcMin { .. } => 1_000,
            Measurement::Retention { .. } => 10,
            _ => unreachable!("mixed grid holds only press and retention"),
        })
        .collect();
    let analytic = CostModel::default();
    let fitted = analytic.fit(
        &mixed_cfg,
        mixed
            .trials()
            .iter()
            .zip(&true_cost_us)
            .map(|(t, &w)| (t, w)),
    );
    assert!(
        fitted.is_learned(),
        "wall-time samples must fit a learned model"
    );
    let workers = 4;
    let analytic_makespan = makespan(
        &analytic.dispatch_order(&mixed_cfg, mixed.trials()),
        &true_cost_us,
        workers,
    );
    let learned_makespan = makespan(
        &fitted.dispatch_order(&mixed_cfg, mixed.trials()),
        &true_cost_us,
        workers,
    );
    let makespan_ratio = learned_makespan as f64 / analytic_makespan.max(1) as f64;

    // Compaction of the duplicated corpus: REPLAYS-fold duplication must
    // shrink by more than 4x and preload the identical trial set after.
    let mut compactable =
        PersistentCache::open_with_workers(&path, &cfg, parallel_workers).expect("open corpus");
    let stats = compactable.compact(None).expect("compact corpus");
    drop(compactable);
    let compaction_ratio = stats.bytes_before as f64 / stats.bytes_after.max(1) as f64;
    assert_eq!(stats.records_after, plan.len());
    let recheck = PersistentCache::open(&path, &cfg).expect("reopen compacted");
    assert_eq!(
        recheck.preloaded(),
        plan.len(),
        "compaction must lose no trial"
    );
    drop(recheck);

    println!(
        "perf_campaign: preload {corpus_lines} lines at {preload_lines_per_s:.0} lines/s \
         sequential, {preload_speedup_parallel:.2}x with {parallel_workers} workers \
         ({cores} cores), learned/analytic makespan {makespan_ratio:.3}, \
         compaction {compaction_ratio:.1}x, long-line preload \
         {preload_long_line_mb_per_s:.1} MB/s ({long_bytes} bytes)",
    );
    let report = format!(
        "{{\n  \"bench\": \"perf_campaign\",\n  \
         \"grid\": \"quick-scale ACmin x{REPLAYS} replays\",\n  \
         \"corpus_lines\": {corpus_lines},\n  \"cores\": {cores},\n  \
         \"preload_workers\": {parallel_workers},\n  \
         \"preload_lines_per_s\": {preload_lines_per_s:.0},\n  \
         \"preload_speedup_parallel\": {preload_speedup_parallel:.2},\n  \
         \"makespan_ratio_learned_vs_analytic\": {makespan_ratio:.3},\n  \
         \"compaction_ratio\": {compaction_ratio:.1},\n  \
         \"preload_long_line_mb_per_s\": {preload_long_line_mb_per_s:.1}\n}}\n",
    );
    std::fs::write(report_path(), report).expect("write BENCH_campaign.json");

    assert!(
        makespan_ratio <= 1.0,
        "learned dispatch must not worsen the simulated makespan, got {makespan_ratio:.3}"
    );
    assert!(
        compaction_ratio > 4.0,
        "compacting a {REPLAYS}x-duplicated corpus must shrink it > 4x, \
         got {compaction_ratio:.1}x"
    );
    assert!(
        preload_long_line_mb_per_s >= LONG_LINE_FLOOR_MB_PER_S,
        "long-line preload must reach {LONG_LINE_FLOOR_MB_PER_S} MB/s, \
         got {preload_long_line_mb_per_s:.1} MB/s"
    );
    if cores >= 4 {
        assert!(
            preload_speedup_parallel >= 4.0,
            "parallel preload must be >= 4x on a {cores}-core host, \
             got {preload_speedup_parallel:.2}x"
        );
    }

    // Criterion timings over a freshly duplicated corpus (compaction above
    // rewrote the file, so restore it first).
    std::fs::write(&path, &corpus).expect("restore corpus");
    c.bench_function("campaign_cache_preload_sequential", |b| {
        b.iter(|| {
            let cache = PersistentCache::open_with_workers(&path, &cfg, 1).expect("open corpus");
            std::hint::black_box(cache.preloaded())
        })
    });
    c.bench_function("campaign_cache_preload_parallel", |b| {
        b.iter(|| {
            let cache = PersistentCache::open_with_workers(&path, &cfg, parallel_workers)
                .expect("open corpus");
            std::hint::black_box(cache.preloaded())
        })
    });
    std::fs::remove_file(&path).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_campaign
}
criterion_main!(benches);
