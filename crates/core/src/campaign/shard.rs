//! The shard-process entry point of a multi-process campaign: run one
//! [`Plan::shard`](crate::engine::Plan::shard) of a [`CampaignSpec`] with a
//! crash-safe persistent cache and per-record progress reporting.
//!
//! [`run_shard`] is what a `rowpress-campaign --shard i/n` child process
//! executes: it derives the campaign's plan from the spec (every process
//! derives the identical plan, so strided shard indices agree across
//! processes), opens the shard's private [`PersistentCache`] file, streams
//! the shard's records to a JSONL output file, and reports a
//! [`ShardEvent`] per record. The cache is flushed after *every* record, so
//! a shard killed at any point resumes from its cache file without
//! recomputing a single completed trial — the orchestrator's respawn
//! guarantee. Each incarnation rewrites the output file from the start;
//! already-cached trials replay in microseconds, so a resumed shard
//! reproduces the byte-identical stream almost for free.
//!
//! # Example: two shard "processes" and a merge
//!
//! ```
//! use rowpress_core::campaign::{run_shard, CampaignSpec, ShardEvent};
//! use rowpress_core::engine::JsonlReader;
//!
//! let spec = CampaignSpec::parse(
//!     r#"
//!     [config]
//!     preset = "test"
//!     [grid]
//!     modules = ["S3"]
//!     [[measurement]]
//!     kind = "ac_min"
//!     t_aggon_ns = [36.0, 30000000.0]
//!     "#,
//! )
//! .unwrap();
//! let dir = std::env::temp_dir().join(format!("rowpress-shard-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! for index in 0..2 {
//!     let run = run_shard(
//!         &spec,
//!         index,
//!         2,
//!         &dir.join(format!("shard-{index}.cache.jsonl")),
//!         &dir.join(format!("shard-{index}.jsonl")),
//!         |_event: ShardEvent| {},
//!     )
//!     .unwrap();
//!     assert_eq!(run.preloaded, 0, "first incarnation starts cold");
//! }
//! let merged = JsonlReader::merge_shards(
//!     (0..2).map(|i| JsonlReader::from_path(dir.join(format!("shard-{i}.jsonl"))).unwrap()),
//! )
//! .unwrap();
//! assert_eq!(merged.len(), spec.plan().unwrap().len());
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use super::spec::{CampaignSpec, SpecError};
use crate::engine::{
    CostModel, Engine, EngineError, JsonlSink, OpenPolicy, PersistentCache, PoolMetrics, Sink,
    TrialCache, TrialRecord,
};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// The file a shard streams its records to: `shard-NNNN.jsonl` under the
/// campaign's output directory.
pub fn shard_output_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:04}.jsonl"))
}

/// The shard's private persistent-cache file: `shard-NNNN.cache.jsonl`.
/// One process owns it at a time; a respawned shard preloads it to resume.
pub fn shard_cache_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:04}.cache.jsonl"))
}

/// The merged, plan-ordered record stream the orchestrator writes after all
/// shards finish: byte-identical to a single-process run of the campaign.
pub const MERGED_FILENAME: &str = "merged.jsonl";

/// The integrity sidecar of [`MERGED_FILENAME`]: one CRC-32 (8 hex digits)
/// per merged record line, in stream order. The merged stream itself is a
/// golden, byte-pinned artifact, so its checksums ride alongside instead of
/// inline — `rowpress-campaign fsck` verifies the pair.
pub const MERGED_CRC_FILENAME: &str = "merged.jsonl.crc";

/// Consecutive per-record cache-flush failures a shard tolerates before it
/// stops persisting and degrades to compute-only. Three in a row is a disk
/// that is *staying* broken (ENOSPC, EIO), not a transient hiccup — and the
/// failed entries stay journaled in memory, so a later incarnation with a
/// healthy disk recomputes only what was never persisted.
pub const DEGRADE_AFTER: u32 = 3;

/// A progress report from a running shard, emitted through [`run_shard`]'s
/// callback. The CLI child prints one protocol line per event; the parent's
/// stall detector treats any event as a heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEvent {
    /// The shard opened its cache and is about to execute its sub-plan.
    Started {
        /// Records preloaded from the persistent-cache file (0 when cold).
        preloaded: usize,
        /// Trials in this shard's sub-plan.
        total: usize,
    },
    /// Worker-liveness heartbeat: trials are completing even though no
    /// record has drained (the default longest-pole-first dispatch can hold
    /// the plan-ordered drain behind one long trial while workers finish
    /// many others). Emitted at most twice a second, and only when the live
    /// counters advanced — a wedged shard stops beating, so the
    /// orchestrator's stall detector still fires. The counts are read from
    /// the live cache counters and may run ahead of what is on disk; use
    /// [`ShardEvent::Progress`]'s `computed` for resume accounting.
    Beat {
        /// Live cache-miss count (trials computed, possibly not yet drained).
        computed_live: u64,
        /// Live cache-hit count.
        replayed_live: u64,
        /// Wall-clock microseconds the engine's workers have spent computing
        /// trials so far (see [`PoolMetrics::busy_us`](crate::engine::PoolMetrics::busy_us)).
        busy_us: u64,
        /// Wall-clock microseconds workers have spent idle inside completed
        /// pooled runs.
        idle_us: u64,
        /// High-water mark of outcomes queued behind the plan-ordered drain.
        queue_peak: u64,
        /// True once the shard gave up on persistence after
        /// [`DEGRADE_AFTER`] consecutive flush failures and is running
        /// compute-only. Sticky for the rest of the incarnation.
        degraded: bool,
    },
    /// One record reached the shard's output stream (and the cache file was
    /// flushed past it).
    Progress {
        /// Records streamed so far, in plan order.
        done: usize,
        /// Trials in this shard's sub-plan.
        total: usize,
        /// Fresh outcomes *persisted to the cache file* so far this
        /// incarnation. Measured at the disk boundary (not the live miss
        /// counter, which can run ahead of the flush), so it is exactly
        /// what a respawned successor will preload on top of `preloaded` —
        /// the recovery tests' accounting invariant.
        computed: u64,
        /// Cache hits so far — trials replayed from the preloaded cache.
        replayed: u64,
    },
    /// The shard streamed every record and flushed its output.
    Finished {
        /// Trials in this shard's sub-plan (== records streamed).
        total: usize,
        /// Total fresh outcomes persisted by the incarnation.
        computed: u64,
        /// Total cache hits of the incarnation.
        replayed: u64,
        /// The incarnation finished compute-only (see [`ShardEvent::Beat`]'s
        /// `degraded`): its record stream is complete, but outcomes past
        /// `computed` were never persisted and will be recomputed by the
        /// next incarnation.
        degraded: bool,
    },
}

/// Summary of one completed [`run_shard`] incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRun {
    /// Records streamed to the output file (the shard's sub-plan length).
    pub records: usize,
    /// Records preloaded from the cache file at open.
    pub preloaded: usize,
    /// Fresh trial outcomes computed and persisted this incarnation.
    pub computed: u64,
    /// Trials replayed from the cache (cache hits).
    pub replayed: u64,
    /// The incarnation disabled persistence after [`DEGRADE_AFTER`]
    /// consecutive flush failures and finished compute-only.
    pub degraded: bool,
}

/// A campaign step failed: the spec did not resolve, a file could not be
/// used, or the engine hit a trial/sink error.
#[derive(Debug)]
pub enum CampaignError {
    /// The spec failed to parse, validate, or resolve to a plan.
    Spec(SpecError),
    /// A cache or output file could not be opened, read or written.
    Io(io::Error),
    /// A trial or sink failed inside the engine.
    Engine(EngineError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "{e}"),
            CampaignError::Io(e) => write!(f, "campaign I/O: {e}"),
            CampaignError::Engine(e) => write!(f, "campaign engine: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Spec(e) => Some(e),
            CampaignError::Io(e) => Some(e),
            CampaignError::Engine(e) => Some(e),
        }
    }
}

impl From<SpecError> for CampaignError {
    fn from(e: SpecError) -> Self {
        CampaignError::Spec(e)
    }
}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Io(e)
    }
}

impl From<EngineError> for CampaignError {
    fn from(e: EngineError) -> Self {
        CampaignError::Engine(e)
    }
}

/// A [`Sink`] adapter that flushes the persistent cache after every record
/// and reports a [`ShardEvent::Progress`] — the heartbeat the orchestrator
/// watches. Flushing per record is what makes a kill at any instant
/// resumable: every outcome that reached the output stream (and any the
/// workers computed ahead of the drain) is already on disk.
struct ProgressSink<'a, S: Sink, F: FnMut(ShardEvent)> {
    inner: S,
    persistent: &'a mut PersistentCache,
    counters: TrialCache,
    metrics: PoolMetrics,
    done: usize,
    total: usize,
    /// Fresh outcomes persisted across this incarnation's flushes — the
    /// number reported as `computed` (see [`ShardEvent::Progress`]).
    flushed: u64,
    /// Consecutive flush failures; resets on any successful flush. At
    /// [`DEGRADE_AFTER`] the sink trips `degraded` and stops persisting.
    flush_failures: u32,
    /// Sticky degraded flag, shared with the beat thread so heartbeats
    /// carry it to the orchestrator.
    degraded: &'a AtomicBool,
    /// Shared with the beat thread, which only ever takes it between
    /// events; a callback that blocks (a wedged consumer) therefore also
    /// silences the beats, keeping stall detection honest.
    on_event: &'a Mutex<&'a mut F>,
}

impl<S: Sink, F: FnMut(ShardEvent)> Sink for ProgressSink<'_, S, F> {
    fn accept(&mut self, record: TrialRecord) -> io::Result<()> {
        self.inner.accept(record)?;
        // A failing cache flush must not kill the shard: the record stream
        // (this sink's `inner`) is still advancing, and the unwritten
        // outcomes stay journaled for a retry on the next record. Only
        // after DEGRADE_AFTER *consecutive* failures — a disk that is
        // staying broken — does the shard stop trying and go compute-only,
        // announcing the transition synchronously so the orchestrator
        // learns of it even on a sub-second shard.
        if !self.degraded.load(Ordering::Relaxed) {
            match self.persistent.flush() {
                Ok(written) => {
                    self.flushed += written as u64;
                    self.flush_failures = 0;
                }
                Err(_) => {
                    self.flush_failures += 1;
                    if self.flush_failures >= DEGRADE_AFTER {
                        self.degraded.store(true, Ordering::Relaxed);
                        (self.on_event.lock().expect("event lock"))(ShardEvent::Beat {
                            computed_live: self.counters.misses(),
                            replayed_live: self.counters.hits(),
                            busy_us: self.metrics.busy_us(),
                            idle_us: self.metrics.idle_us(),
                            queue_peak: self.metrics.queue_peak(),
                            degraded: true,
                        });
                    }
                }
            }
        }
        self.done += 1;
        (self.on_event.lock().expect("event lock"))(ShardEvent::Progress {
            done: self.done,
            total: self.total,
            computed: self.flushed,
            replayed: self.counters.hits(),
        });
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

/// Executes shard `index` of `of` of the campaign `spec`: the entry point a
/// `rowpress-campaign` child process runs, also callable in-process (tests,
/// single-machine fallback).
///
/// Opens (or resumes from) the persistent cache at `cache_path`, streams
/// the shard's plan-ordered records to `out_path` (truncated first — a
/// resumed incarnation rewrites the stream, replaying cached trials), and
/// invokes `on_event` for the start, every record, and completion. The
/// cache file is flushed after every record; see the [module docs](self)
/// for the resume guarantee.
///
/// # Errors
///
/// Returns a [`CampaignError`] when the spec does not resolve to a plan,
/// the cache or output file fails, or a trial fails in the engine.
pub fn run_shard(
    spec: &CampaignSpec,
    index: usize,
    of: usize,
    cache_path: &Path,
    out_path: &Path,
    on_event: impl FnMut(ShardEvent) + Send,
) -> Result<ShardRun, CampaignError> {
    let record_sink = JsonlSink::new(BufWriter::new(File::create(out_path)?));
    run_shard_with(spec, index, of, cache_path, record_sink, on_event)
}

/// [`run_shard`] with a caller-supplied record sink instead of a local
/// output file — the transport-agnostic entry point.
///
/// A local shard hands a file-backed [`JsonlSink`] here (that is all
/// [`run_shard`] does); a remote shard hands a network sink (e.g. a
/// [`FramedSink`](crate::engine::FramedSink) multiplexed onto the transport
/// connection, optionally behind a
/// [`ThreadedSink`](crate::engine::ThreadedSink)) so its records stream to
/// the orchestrator's collector instead of the local disk. The persistent
/// cache stays a local file either way: resume must survive the transport
/// being the very thing that failed.
///
/// # Errors
///
/// Returns a [`CampaignError`] when the spec does not resolve to a plan,
/// the cache file or record sink fails, or a trial fails in the engine.
pub fn run_shard_with(
    spec: &CampaignSpec,
    index: usize,
    of: usize,
    cache_path: &Path,
    record_sink: impl Sink,
    on_event: impl FnMut(ShardEvent) + Send,
) -> Result<ShardRun, CampaignError> {
    // `[cache] salvage = true` in the spec trades strictness for survival:
    // a corrupt cache line costs one record (quarantined to the sidecar),
    // not the shard's entire measured history.
    let policy = if spec.cache_salvage {
        OpenPolicy::Salvage
    } else {
        OpenPolicy::Strict
    };
    let persistent = PersistentCache::open_with_policy(cache_path, &spec.config(), policy)?;
    run_shard_on(spec, index, of, persistent, record_sink, on_event)
}

/// [`run_shard_with`] on an already-opened [`PersistentCache`] — the
/// injection seam for fault-harness tests ([`crate::engine::FsFaults`])
/// and callers that open the cache under a custom policy or worker count.
///
/// # Errors
///
/// Returns a [`CampaignError`] when the spec does not resolve to a plan,
/// the record sink fails, or a trial fails in the engine. A *cache* flush
/// failure is not fatal: after [`DEGRADE_AFTER`] consecutive failures the
/// shard degrades to compute-only and still completes its stream.
pub fn run_shard_on(
    spec: &CampaignSpec,
    index: usize,
    of: usize,
    mut persistent: PersistentCache,
    record_sink: impl Sink,
    mut on_event: impl FnMut(ShardEvent) + Send,
) -> Result<ShardRun, CampaignError> {
    let cfg = spec.config();
    let shard = spec.plan()?.shard(index, of);
    let preloaded = persistent.preloaded();
    // Learn per-measurement cost corrections from the wall times a previous
    // incarnation recorded: a respawned shard dispatches its remaining
    // trials by observed cost, not just the analytic model. A cold cache
    // has no samples and `fit` falls back to the analytic model.
    let cost = CostModel::default().fit(
        &cfg,
        persistent.timed_samples().iter().map(|(t, w)| (t, *w)),
    );
    let engine = Engine::new(&cfg)
        .with_persistent_cache(&persistent)
        .with_cost_model(cost);
    let counters = engine.cache().clone();
    let metrics = engine.pool_metrics().clone();
    on_event(ShardEvent::Started {
        preloaded,
        total: shard.len(),
    });
    let degraded_flag = AtomicBool::new(false);
    let flushed = {
        let events = Mutex::new(&mut on_event);
        // Raised when the run ends; the beat thread waits on it rather than
        // sleeping, so teardown never waits out a poll interval.
        let stop = (Mutex::new(false), Condvar::new());
        let mut sink = ProgressSink {
            inner: record_sink,
            persistent: &mut persistent,
            counters: counters.clone(),
            metrics: metrics.clone(),
            done: 0,
            total: shard.len(),
            flushed: 0,
            flush_failures: 0,
            degraded: &degraded_flag,
            on_event: &events,
        };
        std::thread::scope(|scope| {
            // Worker-liveness beats: under longest-pole-first dispatch the
            // plan-ordered drain can sit behind one long trial while the
            // pool completes many others in silence — which would look like
            // a stall to the orchestrator. Beat whenever the live counters
            // advance; a genuinely wedged shard stops advancing (and a
            // wedged event consumer holds the lock), so beats stop too.
            scope.spawn(|| {
                let (raised, wake) = &stop;
                let mut last = (0, 0);
                let mut polls_since_emit = 0u32;
                loop {
                    // Poll every 100 ms, but emit at most every 5th poll —
                    // the documented <= 2 beats/second.
                    let (stopped, _) = wake
                        .wait_timeout_while(
                            raised.lock().expect("stop lock"),
                            std::time::Duration::from_millis(100),
                            |raised| !*raised,
                        )
                        .expect("stop lock");
                    if *stopped {
                        break;
                    }
                    drop(stopped);
                    polls_since_emit += 1;
                    let now = (counters.misses(), counters.hits());
                    if now != last && polls_since_emit >= 5 {
                        last = now;
                        polls_since_emit = 0;
                        (events.lock().expect("event lock"))(ShardEvent::Beat {
                            computed_live: now.0,
                            replayed_live: now.1,
                            busy_us: metrics.busy_us(),
                            idle_us: metrics.idle_us(),
                            queue_peak: metrics.queue_peak(),
                            degraded: degraded_flag.load(Ordering::Relaxed),
                        });
                    }
                }
            });
            let result = engine.run(&shard, &mut sink);
            *stop.0.lock().expect("stop lock") = true;
            stop.1.notify_all();
            result
        })?;
        sink.flushed
    };
    let degraded = degraded_flag.load(Ordering::Relaxed);
    // Every worker has stopped by now, so this final flush drains any
    // outcome computed ahead of the last drained record; `computed` is
    // thereafter an exact on-disk count. A degraded shard skips it (and
    // the compaction): its disk is the thing that is broken, and the
    // journaled outcomes belong to the next, healthy incarnation.
    let computed = if degraded {
        flushed
    } else {
        flushed + persistent.flush()? as u64
    };
    // A finishing shard is the safe moment to compact: no flush is racing
    // the rewrite, and the next incarnation preloads the slimmed file.
    if !degraded {
        if let Some(budget) = spec.cache_max_bytes {
            persistent.compact(Some(budget))?;
        }
    }
    let replayed = counters.hits();
    on_event(ShardEvent::Finished {
        total: shard.len(),
        computed,
        replayed,
        degraded,
    });
    Ok(ShardRun {
        records: shard.len(),
        preloaded,
        computed,
        replayed,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{JsonlReader, JsonlSink, Plan};

    fn spec() -> CampaignSpec {
        CampaignSpec::parse(
            r#"
            name = "shard-tests"
            [config]
            preset = "test"
            [grid]
            modules = ["S3", "S0"]
            [[measurement]]
            kind = "ac_min"
            t_aggon_ns = [36.0, 30000000.0]
            "#,
        )
        .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "rowpress-campaign-{tag}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn single_process_bytes(spec: &CampaignSpec) -> Vec<u8> {
        let cfg = spec.config();
        let plan = spec.plan().unwrap();
        let mut sink = JsonlSink::new(Vec::new());
        Engine::new(&cfg).run(&plan, &mut sink).unwrap();
        sink.into_inner()
    }

    #[test]
    fn sharded_files_merge_to_the_single_process_stream() {
        let spec = spec();
        let dir = temp_dir("merge");
        let of = spec.orchestration.shards;
        let mut events = Vec::new();
        for index in 0..of {
            let run = run_shard(
                &spec,
                index,
                of,
                &shard_cache_path(&dir, index),
                &shard_output_path(&dir, index),
                |e| events.push(e),
            )
            .unwrap();
            assert_eq!(run.preloaded, 0);
            assert_eq!(run.computed, run.records as u64);
            assert_eq!(run.replayed, 0);
        }
        // Events: per shard one Started, one Progress per record, one
        // Finished — and the heartbeats carry monotonically growing `done`.
        let starts = events
            .iter()
            .filter(|e| matches!(e, ShardEvent::Started { .. }))
            .count();
        let finishes = events
            .iter()
            .filter(|e| matches!(e, ShardEvent::Finished { .. }))
            .count();
        assert_eq!((starts, finishes), (of, of));

        let merged = JsonlReader::merge_shards(
            (0..of).map(|i| JsonlReader::from_path(shard_output_path(&dir, i)).unwrap()),
        )
        .unwrap();
        let mut sink = JsonlSink::new(Vec::new());
        for record in merged {
            sink.accept(record).unwrap();
        }
        assert_eq!(
            sink.into_inner(),
            single_process_bytes(&spec),
            "merged shard files must be byte-identical to one process"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_second_incarnation_resumes_without_recomputing() {
        let spec = spec();
        let dir = temp_dir("resume");
        let cache = shard_cache_path(&dir, 0);
        let out = shard_output_path(&dir, 0);
        let first = run_shard(&spec, 0, 2, &cache, &out, |_| {}).unwrap();
        assert!(first.computed > 0);
        let first_bytes = std::fs::read(&out).unwrap();

        // The "respawned" incarnation preloads everything and computes
        // nothing, yet rewrites the identical output stream.
        let second = run_shard(&spec, 0, 2, &cache, &out, |_| {}).unwrap();
        assert_eq!(second.preloaded, first.records);
        assert_eq!(second.computed, 0, "resume must not recompute");
        assert_eq!(second.replayed, first.records as u64);
        assert_eq!(std::fs::read(&out).unwrap(), first_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_is_flushed_per_record_for_mid_run_kills() {
        let spec = spec();
        let dir = temp_dir("midrun");
        let cache = shard_cache_path(&dir, 0);
        let out = shard_output_path(&dir, 0);
        // Observe the cache file's record count at every progress event: by
        // the time record k reaches the stream, at least k outcomes must
        // already be on disk — the property that makes kill-anywhere safe.
        let cfg = spec.config();
        let mut on_disk_counts = Vec::new();
        run_shard(&spec, 0, 2, &cache, &out, |e| {
            if let ShardEvent::Progress { done, .. } = e {
                let persisted = PersistentCache::open(&cache, &cfg).unwrap().preloaded();
                on_disk_counts.push((done, persisted));
            }
        })
        .unwrap();
        for (done, persisted) in on_disk_counts {
            assert!(
                persisted >= done,
                "record {done} streamed but only {persisted} on disk"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finishing_shard_compacts_its_cache_to_the_spec_budget() {
        // Size a budget off an unbudgeted run: half the full cache file.
        let unbudgeted = spec();
        let dir = temp_dir("budget");
        let cache = shard_cache_path(&dir, 0);
        let out = shard_output_path(&dir, 0);
        let full_run = run_shard(&unbudgeted, 0, 1, &cache, &out, |_| {}).unwrap();
        let full = std::fs::metadata(&cache).unwrap().len();

        let mut budgeted = unbudgeted.clone();
        budgeted.cache_max_bytes = Some(full / 2);
        budgeted.validate().unwrap();
        let dir2 = temp_dir("budget2");
        let cache2 = shard_cache_path(&dir2, 0);
        let out2 = shard_output_path(&dir2, 0);
        let run = run_shard(&budgeted, 0, 1, &cache2, &out2, |_| {}).unwrap();
        assert_eq!(run.records, full_run.records);
        assert!(
            std::fs::metadata(&cache2).unwrap().len() <= full / 2,
            "the finishing shard must compact its cache to the budget"
        );
        // The output stream is unaffected by the cache budget.
        assert_eq!(std::fs::read(&out).unwrap(), std::fs::read(&out2).unwrap());

        // The next incarnation preloads the slimmed cache, recomputes only
        // the evicted trials, and still rewrites the identical stream.
        let resumed = run_shard(&budgeted, 0, 1, &cache2, &out2, |_| {}).unwrap();
        assert_eq!(resumed.records, full_run.records);
        assert!(
            resumed.preloaded > 0,
            "some records must survive the budget"
        );
        assert!(
            (resumed.preloaded as u64) < full_run.computed,
            "some records must have been evicted"
        );
        assert_eq!(
            resumed.computed,
            full_run.computed - resumed.preloaded as u64,
            "exactly the evicted trials recompute"
        );
        assert_eq!(std::fs::read(&out).unwrap(), std::fs::read(&out2).unwrap());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn enospc_mid_run_degrades_to_compute_only_with_a_complete_stream() {
        use crate::engine::FsFaults;
        // Size the fault off an unfaulted run: inject ENOSPC once half the
        // full cache file has been appended.
        let spec = spec();
        let scratch = temp_dir("degrade-scratch");
        run_shard(
            &spec,
            0,
            1,
            &shard_cache_path(&scratch, 0),
            &shard_output_path(&scratch, 0),
            |_| {},
        )
        .unwrap();
        let full = std::fs::metadata(shard_cache_path(&scratch, 0))
            .unwrap()
            .len();

        let dir = temp_dir("degrade");
        let cache = shard_cache_path(&dir, 0);
        let out = shard_output_path(&dir, 0);
        let mut persistent = PersistentCache::open(&cache, &spec.config()).unwrap();
        persistent.set_write_fault(FsFaults::new().enospc_at(full / 2));
        let mut events = Vec::new();
        let run = run_shard_on(
            &spec,
            0,
            1,
            persistent,
            JsonlSink::new(BufWriter::new(File::create(&out).unwrap())),
            |e| events.push(e),
        )
        .unwrap();
        assert!(run.degraded, "the shard must trip the degraded flag");
        assert!(run.computed > 0, "records before the fault persisted");
        assert!(
            run.computed < run.records as u64,
            "records after the fault must not claim persistence"
        );
        // The transition is announced synchronously on a beat, and the
        // final event carries the flag too.
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ShardEvent::Beat { degraded: true, .. })),
            "degradation must surface on a heartbeat"
        );
        assert!(matches!(
            events.last(),
            Some(ShardEvent::Finished { degraded: true, .. })
        ));
        // Compute-only still means *complete*: the record stream is
        // byte-identical to a healthy single-process run.
        assert_eq!(std::fs::read(&out).unwrap(), single_process_bytes(&spec));

        // Space returns: a plain incarnation preloads exactly what was
        // persisted and recomputes only the unpersisted suffix.
        let resumed = run_shard(&spec, 0, 1, &cache, &out, |_| {}).unwrap();
        assert!(!resumed.degraded);
        assert_eq!(resumed.preloaded as u64, run.computed);
        assert_eq!(resumed.computed, run.records as u64 - run.computed);
        assert_eq!(std::fs::read(&out).unwrap(), single_process_bytes(&spec));
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_salvage_policy_lets_a_shard_survive_a_corrupt_cache_line() {
        use crate::engine::quarantine_path;
        let spec = spec();
        let dir = temp_dir("salvage");
        let cache = shard_cache_path(&dir, 0);
        let out = shard_output_path(&dir, 0);
        let first = run_shard(&spec, 0, 1, &cache, &out, |_| {}).unwrap();
        let baseline = std::fs::read(&out).unwrap();

        // Flip one byte in the middle of the second record line.
        let mut bytes = std::fs::read(&cache).unwrap();
        let second_line = bytes
            .iter()
            .position(|&b| b == b'\n')
            .map(|header_end| header_end + 1)
            .unwrap();
        bytes[second_line + 10] ^= 0x01;
        std::fs::write(&cache, &bytes).unwrap();

        // Default (strict) spec: the shard refuses to start.
        let err = run_shard(&spec, 0, 1, &cache, &out, |_| {}).unwrap_err();
        assert!(matches!(err, CampaignError::Io(_)), "{err}");

        // `[cache] salvage = true`: one record quarantined, one recomputed,
        // stream identical.
        let mut salvaging = spec.clone();
        salvaging.cache_salvage = true;
        let run = run_shard(&salvaging, 0, 1, &cache, &out, |_| {}).unwrap();
        assert_eq!(run.preloaded, first.records - 1);
        assert_eq!(run.computed, 1, "exactly the quarantined trial recomputes");
        assert!(quarantine_path(&cache).exists());
        assert_eq!(std::fs::read(&out).unwrap(), baseline);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merged_filename_and_paths_are_stable() {
        let dir = Path::new("/campaign/out");
        assert_eq!(
            shard_output_path(dir, 3),
            Path::new("/campaign/out/shard-0003.jsonl")
        );
        assert_eq!(
            shard_cache_path(dir, 12),
            Path::new("/campaign/out/shard-0012.cache.jsonl")
        );
        assert_eq!(MERGED_FILENAME, "merged.jsonl");
    }

    #[test]
    fn shard_errors_are_typed_and_displayed() {
        let spec = spec();
        let dir = temp_dir("errors");
        // An unknown module id fails as a spec error before any I/O.
        let mut bad = spec.clone();
        bad.modules = vec!["Z9".into()];
        let err = run_shard(
            &bad,
            0,
            1,
            &shard_cache_path(&dir, 0),
            &shard_output_path(&dir, 0),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, CampaignError::Spec(_)));
        assert!(err.to_string().contains("Z9"), "{err}");

        // An unwritable output path fails as I/O.
        let err = run_shard(
            &spec,
            0,
            1,
            &shard_cache_path(&dir, 0),
            &dir.join("missing-subdir").join("out.jsonl"),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, CampaignError::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_plans_agree_across_derivations() {
        // Two independent derivations of the same spec produce the same
        // shards — the property that lets processes agree by index alone.
        let a = spec().plan().unwrap();
        let b = spec().plan().unwrap();
        assert_eq!(a, b);
        for i in 0..3 {
            assert_eq!(a.shard(i, 3), b.shard(i, 3));
        }
        let lens: usize = (0..3).map(|i| a.shard(i, 3).len()).sum();
        assert_eq!(lens, Plan::merge(vec![]).len() + a.len());
    }
}
