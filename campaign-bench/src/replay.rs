//! The traced run: one campaign replayed from the product's public calls,
//! with a span around each call into a layer.
//!
//! It runs in a fresh process of its own (see `main.rs`), because the
//! kernel's `ProfileStore`, the `scan_word_stats` counters and
//! `Engine::shared` are process-global: a second replay in the same process
//! would start warm and with counts already taken.
//!
//! Three parts, in this order:
//!
//! 1. **Kernel** — `run_trial` on every trial of the plan, in plan order,
//!    with a private `ProfileStore`: the cold-trial percentiles, the
//!    word-skip rate and the profile-store hit rate.
//! 2. **Parent** — what `rowpress-campaign run` does, from its public
//!    calls: spec and plan, `driver::supervise` over the local transport
//!    (real shard processes of the release binary), collect, `Plan::merge`,
//!    and `JsonlSink` over `CrcLineWriter`. Its wall time is the traced
//!    `wall_s`.
//! 3. **Shards** — each shard's pipeline in this process: open the
//!    persistent cache, `Engine::run` into a sink that forwards to a
//!    `JsonlSink` and flushes the cache per record, as `run_shard_on` does.
//! 4. **TCP** (when asked) — the same grid driven cold over `TcpAgent` in
//!    one span, counted as failed or not, and each shard's records sent
//!    through `FramedSink` and fed to `ShardCollector::ingest`.

use crate::trace::{self, Tracer};
use rowpress_cli::driver::{supervise, WatchPolicy};
use rowpress_cli::transport::{
    LocalProcess, ShardCollector, TcpAgent, Transport, PROTOCOL_PREFIX, RECORD_FRAME_PREFIX,
};
use rowpress_core::campaign::{
    shard_cache_path, shard_output_path, CampaignSpec, MERGED_CRC_FILENAME, MERGED_FILENAME,
};
use rowpress_core::engine::{
    run_trial, CrcLineWriter, Engine, FramedSink, JsonlReader, JsonlSink, OpenPolicy,
    PersistentCache, Plan, Sink, TrialRecord,
};
use rowpress_core::TrialScratch;
use rowpress_dram::{reset_scan_word_stats, scan_word_stats, ProfileStore};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a replay reads and writes.
pub struct ReplayArgs {
    pub exe: PathBuf,
    pub spec: PathBuf,
    /// Out-dir of the parent replay (a filled one for the warm workload).
    pub parent_dir: PathBuf,
    /// Out-dir of the in-process shard pipelines (holding copies of the
    /// filled caches for the warm workload).
    pub shard_dir: PathBuf,
    /// Fresh out-dir for the TCP part; `None` skips it.
    pub tcp_dir: Option<PathBuf>,
    /// Receives `spans.jsonl` and `metrics.txt`.
    pub out_dir: PathBuf,
}

/// Forwards every record to the shard's record sink and flushes the
/// persistent cache after it, as `run_shard_on`'s progress sink does.
struct FlushingSink<'a, S: Sink> {
    inner: S,
    persistent: &'a mut PersistentCache,
    tracer: &'a Tracer,
}

impl<S: Sink> Sink for FlushingSink<'_, S> {
    fn accept(&mut self, record: TrialRecord) -> io::Result<()> {
        self.tracer
            .span("sink.accept", || self.inner.accept(record))?;
        self.tracer
            .span("cache.flush", || self.persistent.flush())
            .map(|_| ())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Runs the replay and writes its spans and metrics under `args.out_dir`.
pub fn run(args: &ReplayArgs) -> Result<(), String> {
    reset_scan_word_stats();
    let tracer = Tracer::new();
    let mut metrics: Vec<(&str, f64)> = Vec::new();

    let spec = CampaignSpec::from_path(&args.spec).map_err(|e| e.to_string())?;
    let cfg = spec.config();
    let plan = spec.plan().map_err(|e| e.to_string())?;

    // 1. The kernel, on a private profile store.
    let store = ProfileStore::new();
    let mut scratch = TrialScratch::with_profile_store(store.clone());
    tracer.span("kernel", || -> Result<(), String> {
        for trial in plan.trials() {
            tracer
                .span("kernel.trial", || run_trial(&cfg, trial, &mut scratch))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    // Snapshot now: the engine runs below add to the same global counters.
    metrics.push(("kernel.word_skip_rate", scan_word_stats().skip_rate()));
    metrics.push(("kernel.profile_store_hit_rate", store.hit_rate()));

    // 2. The parent, as `rowpress-campaign run` drives it.
    let parent = Instant::now();
    let parent_result = tracer.span("campaign", || drive(args, &args.parent_dir, false, &tracer));
    metrics.push(("trace.wall_s", parent.elapsed().as_secs_f64()));
    let (shard_file_bytes, merged_ok) = match parent_result {
        Ok(bytes) => (bytes, 1.0),
        Err(e) => {
            eprintln!("campaign-bench: traced campaign failed: {e}");
            (0, 0.0)
        }
    };
    metrics.push(("trace.campaign_ok", merged_ok));

    // 3. Each shard's pipeline, in this process.
    let of = spec.orchestration.shards.min(plan.len().max(1));
    let mut totals = ShardTotals::default();
    for index in 0..of {
        tracer.span("shard", || {
            replay_shard(args, &spec, &plan, index, of, &tracer, &mut totals)
        })?;
    }

    // 4. TCP: one cold campaign (its inner calls untraced, so they do not
    // mix with the local figures) and the framed record path.
    if let Some(tcp_dir) = &args.tcp_dir {
        let started = Instant::now();
        let result = tracer.span("tcp.campaign", || {
            drive(args, tcp_dir, true, &Tracer::new())
        });
        metrics.push(("tcp.wall_s", started.elapsed().as_secs_f64()));
        if let Err(e) = &result {
            eprintln!("campaign-bench: campaign over tcp failed: {e}");
        }
        metrics.push(("tcp.campaign_ok", if result.is_ok() { 1.0 } else { 0.0 }));
    } else {
        metrics.push(("tcp.wall_s", 0.0));
    }

    let spans = tracer.into_spans();
    let trial_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "kernel.trial")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    for (name, p) in [
        ("kernel.cold_trial_us_p50", 50.0),
        ("kernel.cold_trial_us_p99", 99.0),
    ] {
        metrics.push((name, crate::stats::percentile(&trial_us, p).unwrap_or(0.0)));
    }
    let mut out =
        BufWriter::new(File::create(args.out_dir.join("spans.jsonl")).map_err(|e| e.to_string())?);
    trace::write_spans(&spans, &mut out).map_err(|e| e.to_string())?;
    let summary = trace::summarize(&spans);
    let ms = |name: &str| summary.total_ms.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| summary.count.get(name).copied().unwrap_or(0) as f64;
    let per_s = |bytes: u64, ms: f64| {
        if ms > 0.0 {
            bytes as f64 / 1e6 / (ms / 1e3)
        } else {
            0.0
        }
    };
    metrics.extend([
        ("spec.parse_plan_ms", ms("spec.parse_plan")),
        ("cache.open_ms", ms("cache.open")),
        ("cache.preload_lines", totals.preload_lines as f64),
        (
            "cache.preload_mb_per_s",
            per_s(totals.preload_bytes, ms("cache.open")),
        ),
        (
            "cache.bytes_per_line",
            if totals.preload_lines > 0 {
                totals.preload_bytes as f64 / totals.preload_lines as f64
            } else {
                0.0
            },
        ),
        ("cache.flush_ms", ms("cache.flush")),
        ("cache.flush_calls", count("cache.flush")),
        ("cache.flushed_bytes", totals.flushed_bytes as f64),
        ("engine.run_ms", ms("engine.run")),
        ("engine.computed", totals.computed as f64),
        ("engine.replayed", totals.replayed as f64),
        ("engine.pool_busy_ms", totals.busy_us as f64 / 1e3),
        ("engine.pool_idle_ms", totals.idle_us as f64 / 1e3),
        ("engine.queue_peak", totals.queue_peak as f64),
        ("sink.accept_ms", ms("sink.accept")),
        ("sink.bytes", totals.sink_bytes as f64),
        ("merge.read_ms", ms("merge.read")),
        (
            "merge.read_mb_per_s",
            per_s(shard_file_bytes, ms("merge.read")),
        ),
        ("merge.sort_ms", ms("merge.sort")),
        ("merge.write_ms", ms("merge.write")),
        ("collector.ingest_ms", ms("collector.ingest")),
        (
            "collector.ingest_mb_per_s",
            per_s(totals.wire_bytes, ms("collector.ingest")),
        ),
        ("collector.duplicates", totals.duplicates as f64),
        ("driver.supervise_ms", ms("driver.supervise")),
        ("driver.collect_ms", ms("driver.collect")),
        ("trace.spans", spans.len() as f64),
    ]);
    for (layer, name) in crate::LAYERS {
        metrics.push((
            name,
            summary.layer_self_ms.get(layer).copied().unwrap_or(0.0),
        ));
    }
    let mut text = String::new();
    for (name, value) in metrics {
        text.push_str(&format!("{name} {value}\n"));
    }
    std::fs::write(args.out_dir.join("metrics.txt"), text).map_err(|e| e.to_string())
}

/// Spec, supervise, collect, merge, write: `rowpress-campaign run` from its
/// public calls, over the local transport or TCP, in `dir`. Returns the
/// shard-file bytes the collect read.
fn drive(args: &ReplayArgs, dir: &Path, tcp: bool, tracer: &Tracer) -> Result<u64, String> {
    let (spec, of) = tracer.span("spec.parse_plan", || -> Result<_, String> {
        let mut spec = CampaignSpec::from_path(&args.spec).map_err(|e| e.to_string())?;
        spec.orchestration.max_respawns = 0;
        let plan = spec.plan().map_err(|e| e.to_string())?;
        let of = spec.orchestration.shards.min(plan.len().max(1));
        spec.orchestration.shards = of;
        Ok((spec, of))
    })?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let resolved = dir.join("campaign.json");
    std::fs::write(&resolved, spec.canonical_json() + "\n").map_err(|e| e.to_string())?;
    let (exe, dir_buf) = (args.exe.clone(), dir.to_path_buf());
    let mut transport: Box<dyn Transport> = if tcp {
        let agent = TcpAgent::new(
            exe,
            resolved,
            dir_buf,
            of,
            HashMap::new(),
            "127.0.0.1:0",
            &spec,
        )
        .map_err(|e| e.to_string())?;
        Box::new(agent)
    } else {
        Box::new(LocalProcess::new(
            exe,
            resolved,
            dir_buf,
            of,
            HashMap::new(),
        ))
    };
    let policy = WatchPolicy::from_spec(&spec);
    tracer
        .span("driver.supervise", || {
            supervise(transport.as_mut(), of, &policy)
        })
        .map_err(|e| e.to_string())?;
    let mut read_bytes = 0;
    let shards = tracer.span("driver.collect", || -> Result<Vec<_>, String> {
        (0..of)
            .map(|index| {
                if tcp {
                    return transport.collect(index).map_err(|e| e.to_string());
                }
                // The local transport's collect is this read of the shard
                // file; calling it directly times the read on its own.
                let path = shard_output_path(dir, index);
                read_bytes += file_len(&path);
                tracer
                    .span("merge.read", || {
                        JsonlReader::from_path(&path).and_then(JsonlReader::read_all)
                    })
                    .map_err(|e| format!("collect shard {index}: {e}"))
            })
            .collect()
    })?;
    let records = tracer.span("merge.sort", || Plan::merge(shards));
    tracer
        .span("merge.write", || -> io::Result<()> {
            let file = File::create(dir.join(MERGED_FILENAME))?;
            let mut sink = JsonlSink::new(CrcLineWriter::new(BufWriter::new(file)));
            for record in records {
                sink.accept(record)?;
            }
            sink.finish()?;
            std::fs::write(dir.join(MERGED_CRC_FILENAME), sink.into_inner().sidecar())
        })
        .map_err(|e| e.to_string())?;
    Ok(read_bytes)
}

#[derive(Default)]
struct ShardTotals {
    preload_lines: u64,
    preload_bytes: u64,
    flushed_bytes: u64,
    computed: u64,
    replayed: u64,
    busy_us: u64,
    idle_us: u64,
    queue_peak: u64,
    sink_bytes: u64,
    wire_bytes: u64,
    duplicates: u64,
}

/// One shard's pipeline in this process. Its record stream is checked
/// against the parent replay's shard file (local) or must pass the
/// collector complete (TCP).
fn replay_shard(
    args: &ReplayArgs,
    spec: &CampaignSpec,
    plan: &Plan,
    index: usize,
    of: usize,
    tracer: &Tracer,
    totals: &mut ShardTotals,
) -> Result<(), String> {
    let cfg = spec.config();
    let shard = plan.shard(index, of);
    let cache_path = shard_cache_path(&args.shard_dir, index);
    let cache_before = file_len(&cache_path);
    let mut persistent = tracer
        .span("cache.open", || {
            PersistentCache::open_with_policy(&cache_path, &cfg, OpenPolicy::Strict)
        })
        .map_err(|e| format!("shard {index} cache: {e}"))?;
    if persistent.preloaded() > 0 {
        totals.preload_lines += persistent.preloaded() as u64;
        totals.preload_bytes += cache_before;
    }
    let engine = Engine::new(&cfg).with_persistent_cache(&persistent);
    let out_path = shard_output_path(&args.shard_dir, index);
    let file = File::create(&out_path).map_err(|e| e.to_string())?;
    let mut sink = FlushingSink {
        inner: JsonlSink::new(BufWriter::new(file)),
        persistent: &mut persistent,
        tracer,
    };
    tracer
        .span("engine.run", || engine.run(&shard, &mut sink))
        .map_err(|e| format!("shard {index} engine: {e}"))?;
    // Drain outcomes computed ahead of the last record, as run_shard_on's
    // final flush does.
    tracer
        .span("cache.flush", || persistent.flush())
        .map_err(|e| e.to_string())?;
    totals.flushed_bytes += file_len(&cache_path) - cache_before;
    let (computed, replayed) = (engine.cache().misses(), engine.cache().hits());
    totals.computed += computed;
    totals.replayed += replayed;
    let pool = engine.pool_metrics();
    totals.busy_us += pool.busy_us();
    totals.idle_us += pool.idle_us();
    totals.queue_peak = totals.queue_peak.max(pool.queue_peak());

    totals.sink_bytes += file_len(&out_path);
    let expected = shard_output_path(&args.parent_dir, index);
    if expected.exists() && std::fs::read(&out_path).ok() != std::fs::read(&expected).ok() {
        return Err(format!(
            "shard {index}: in-process stream differs from the shard process's"
        ));
    }
    if args.tcp_dir.is_none() {
        return Ok(());
    }

    // The TCP record path: the same records as `record` frames (the engine
    // replays them from its in-memory cache), then the parent's collector.
    let wire = Arc::new(Mutex::new(Vec::<u8>::new()));
    engine
        .run(
            &shard,
            &mut FramedSink::new(Arc::clone(&wire), RECORD_FRAME_PREFIX),
        )
        .map_err(|e| format!("shard {index} framed replay: {e}"))?;
    let mut wire = std::mem::take(&mut *wire.lock().expect("wire lock"));
    writeln!(
        wire,
        "{PROTOCOL_PREFIX} done total={} computed={computed} replayed={replayed} degraded=0",
        shard.len()
    )
    .map_err(|e| e.to_string())?;
    totals.wire_bytes += wire.len() as u64;
    let text = String::from_utf8(wire).map_err(|e| e.to_string())?;
    let mut collector = ShardCollector::new(Arc::new(shard.trials().to_vec()));
    tracer.span("collector.ingest", || {
        for line in text.lines() {
            collector.ingest(line);
        }
    });
    totals.duplicates += collector.duplicates();
    if !collector.is_complete() {
        return Err(format!(
            "shard {index}: collector rejected the framed stream: {}",
            collector.fault().unwrap_or("incomplete")
        ));
    }
    Ok(())
}
