//! End-to-end benchmark of `rowpress-campaign run`.
//!
//! ```text
//! cargo run --release --manifest-path campaign-bench/Cargo.toml -- \
//!     --workload <acmin-sweep-cold|mixed-grid-warm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the root of a repository checkout. It builds the release
//! `rowpress-campaign` binary there, checks it against the golden quick-grid
//! stream, sets the workload up (untimed), then launches one campaign at a
//! time with 2 shards while the next is expected to end within `--seconds`
//! (at least three campaigns). Each campaign is measured from outside (wall time, arrival
//! time of each stdout line, peak RSS) and its `merged.jsonl` is compared
//! byte for byte with a single-process `Engine::run` of the same spec.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` also runs the
//! traced replay (`replay.rs`) in a fresh process and reports the per-layer
//! metrics. The last stdout line is one JSON object; the lines before it
//! are a readable summary. `README.md` maps each per-layer metric to the
//! end-to-end metric and workload it should move.

mod launch;
mod replay;
mod stats;
mod timeline;
mod trace;
mod workload;

use launch::{launch, Launched};
use rowpress_core::campaign::{CampaignSpec, MERGED_FILENAME};
use rowpress_core::engine::{Engine, JsonlSink};
use rowpress_dram::math::hash_words;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use workload::{Mode, Workload, SHARDS};

/// Fewest campaigns a run times, however short `--seconds` is.
const MIN_CAMPAIGNS: usize = 3;

/// The golden quick-grid stream (`tests/golden.rs`).
const GOLDEN_SPEC: &str = "examples/quick_acmin.toml";
const GOLDEN_CHECKSUM: u64 = 0xAFD9_38D1_B694_2477;
const GOLDEN_BYTES: usize = 52_397;

/// Where traced runs leave their spans, relative to the checkout root.
const SPANS_DIR: &str = "campaign-bench/spans";

/// Layers whose self time the traced run reports, with the metric names.
pub const LAYERS: [(&str, &str); 8] = [
    ("spec", "self_ms.spec"),
    ("driver", "self_ms.driver"),
    ("cache", "self_ms.cache"),
    ("engine", "self_ms.engine"),
    ("sink", "self_ms.sink"),
    ("merge", "self_ms.merge"),
    ("collector", "self_ms.collector"),
    ("kernel", "self_ms.kernel"),
];

/// End-to-end metrics with units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("tail_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with units, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 52] = [
    ("proc.launch_to_first_frame_ms", "ms"),
    ("proc.first_frame_to_start_ms", "ms"),
    ("proc.start_to_first_record_ms", "ms"),
    ("proc.start_to_done_ms", "ms"),
    ("proc.done_to_finished_ms", "ms"),
    ("proc.finished_to_merged_ms", "ms"),
    ("proc.merged_to_exit_ms", "ms"),
    ("spec.parse_plan_ms", "ms"),
    ("cache.open_ms", "ms"),
    ("cache.preload_lines", "count"),
    ("cache.preload_mb_per_s", "MB/s"),
    ("cache.bytes_per_line", "B"),
    ("cache.flush_ms", "ms"),
    ("cache.flush_calls", "count"),
    ("cache.flushed_bytes", "B"),
    ("engine.run_ms", "ms"),
    ("engine.computed", "count"),
    ("engine.replayed", "count"),
    ("engine.pool_busy_ms", "ms"),
    ("engine.pool_idle_ms", "ms"),
    ("engine.queue_peak", "count"),
    ("kernel.cold_trial_us_p50", "us"),
    ("kernel.cold_trial_us_p99", "us"),
    ("kernel.word_skip_rate", "ratio"),
    ("kernel.profile_store_hit_rate", "ratio"),
    ("sink.accept_ms", "ms"),
    ("sink.bytes", "B"),
    ("merge.read_ms", "ms"),
    ("merge.read_mb_per_s", "MB/s"),
    ("merge.max_line_bytes", "B"),
    ("merge.sort_ms", "ms"),
    ("merge.write_ms", "ms"),
    ("collector.ingest_ms", "ms"),
    ("collector.ingest_mb_per_s", "MB/s"),
    ("collector.duplicates", "count"),
    ("driver.supervise_ms", "ms"),
    ("driver.collect_ms", "ms"),
    ("driver.respawns", "count"),
    ("campaign.failed_frac", "ratio"),
    ("self_ms.spec", "ms"),
    ("self_ms.driver", "ms"),
    ("self_ms.cache", "ms"),
    ("self_ms.engine", "ms"),
    ("self_ms.sink", "ms"),
    ("self_ms.merge", "ms"),
    ("self_ms.collector", "ms"),
    ("self_ms.kernel", "ms"),
    ("tcp.failed_frac", "ratio"),
    ("tcp.wall_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("__replay") {
        parse_replay(&args[1..]).and_then(|a| replay::run(&a))
    } else {
        Options::parse(&args).and_then(|o| bench(&o))
    };
    if let Err(e) = result {
        eprintln!("campaign-bench: {e}");
        std::process::exit(1);
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::by_name(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

fn parse_replay(args: &[String]) -> Result<replay::ReplayArgs, String> {
    let (exe, spec, parent_dir, shard_dir, out_dir, tcp_dir) = match args {
        [a, b, c, d, e] => (a, b, c, d, e, None),
        [a, b, c, d, e, f] => (a, b, c, d, e, Some(f)),
        _ => return Err("__replay takes EXE SPEC PARENT_DIR SHARD_DIR OUT_DIR [TCP_DIR]".into()),
    };
    Ok(replay::ReplayArgs {
        exe: exe.into(),
        spec: spec.into(),
        parent_dir: parent_dir.into(),
        shard_dir: shard_dir.into(),
        out_dir: out_dir.into(),
        tcp_dir: tcp_dir.map(PathBuf::from),
    })
}

/// Builds the release `rowpress-campaign` binary of the checkout at `root`
/// and returns its path.
fn build_campaign(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "rowpress-cli"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building rowpress-campaign failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| "target".into());
    let exe = root.join(target).join("release/rowpress-campaign");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("{} was not built", exe.display()))
    }
}

/// The checksum `tests/golden.rs` pins the quick grid with.
fn golden_checksum(bytes: &[u8]) -> u64 {
    let mut words: Vec<u64> = bytes
        .chunks(8)
        .map(|chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(word)
        })
        .collect();
    words.push(bytes.len() as u64);
    hash_words(&words)
}

/// The benchmark's working directory; removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One timed campaign.
struct Campaign {
    launched: Launched,
    /// Exited 0, no respawn, merged bytes equal to the reference.
    ok: bool,
    /// Exited 0 but merged different bytes.
    mismatch: bool,
}

fn run_args(spec: &Path, out_dir: &Path) -> Vec<String> {
    vec![
        "run".into(),
        spec.display().to_string(),
        "--out-dir".into(),
        out_dir.display().to_string(),
        "--max-respawns".into(),
        "0".into(),
    ]
}

/// Launches one campaign and checks it against `reference`.
fn run_campaign(
    exe: &Path,
    args: &[String],
    out_dir: &Path,
    reference: &[u8],
    trials: u64,
) -> Result<Campaign, String> {
    let launched = launch(exe, args).map_err(|e| format!("launching the campaign: {e}"))?;
    let exited_ok = launched.code == Some(0);
    let bytes_ok = exited_ok
        && std::fs::read(out_dir.join(MERGED_FILENAME)).ok().as_deref() == Some(reference);
    let ok = bytes_ok && launched.timeline.respawns() == 0;
    if ok
        && !(launched.timeline.is_complete(SHARDS)
            && launched.timeline.merged_records() == Some(trials)
            && launched.timeline.records() == trials)
    {
        return Err(format!(
            "a successful campaign printed an incomplete timeline: {:?}",
            launched.timeline
        ));
    }
    if !ok {
        eprintln!(
            "campaign-bench: campaign failed (exit {:?}, {} respawn(s), bytes {}): {}",
            launched.code,
            launched.timeline.respawns(),
            if bytes_ok {
                "match"
            } else {
                "differ or missing"
            },
            launched.stderr.trim()
        );
    }
    Ok(Campaign {
        ok,
        mismatch: exited_ok && !bytes_ok,
        launched,
    })
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn bench(options: &Options) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("Cargo.toml").is_file() || !root.join("crates/cli").is_dir() {
        return Err(format!(
            "{} is not the root of a repository checkout",
            root.display()
        ));
    }
    let exe = build_campaign(&root)?;
    let work = WorkDir(root.join("campaign-bench/work").join(format!(
        "{}-{}",
        options.workload.name,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0).map_err(|e| e.to_string())?;

    // Self-check: the quick grid through the binary reproduces the golden
    // stream.
    let golden_dir = work.0.join("golden");
    let golden =
        launch(&exe, &run_args(&root.join(GOLDEN_SPEC), &golden_dir)).map_err(|e| e.to_string())?;
    let golden_bytes = std::fs::read(golden_dir.join(MERGED_FILENAME)).unwrap_or_default();
    if golden.code != Some(0)
        || golden_bytes.len() != GOLDEN_BYTES
        || golden_checksum(&golden_bytes) != GOLDEN_CHECKSUM
    {
        return Err(format!(
            "self-check: {GOLDEN_SPEC} merged {} bytes with checksum {:#018x} \
             (exit {:?}); expected {GOLDEN_BYTES} bytes, {GOLDEN_CHECKSUM:#018x}",
            golden_bytes.len(),
            golden_checksum(&golden_bytes),
            golden.code
        ));
    }

    // Set-up, untimed: the spec, the single-process reference stream (what
    // `--verify` compares against) and, for the warm workload, one filled
    // campaign directory.
    let workload = options.workload;
    let spec_path = work.0.join("campaign.toml");
    std::fs::write(&spec_path, workload.spec_toml(options.seed)).map_err(|e| e.to_string())?;
    let spec = CampaignSpec::from_path(&spec_path).map_err(|e| e.to_string())?;
    let plan = spec.plan().map_err(|e| e.to_string())?;
    let trials = plan.len() as u64;
    let reference = {
        let mut sink = JsonlSink::new(Vec::new());
        Engine::new(&spec.config())
            .run(&plan, &mut sink)
            .map_err(|e| e.to_string())?;
        sink.into_inner()
    };
    let warm_dir = work.0.join("warm");
    if workload.mode == Mode::Warm {
        let fill = run_campaign(
            &exe,
            &run_args(&spec_path, &warm_dir),
            &warm_dir,
            &reference,
            trials,
        )?;
        if !fill.ok {
            return Err("set-up: filling the warm campaign directory failed".into());
        }
    }

    // Timed campaigns, one at a time, while the next one is expected to end
    // within `--seconds`.
    let mut campaigns: Vec<Campaign> = Vec::new();
    let budget = Duration::from_secs(options.seconds);
    let started = Instant::now();
    loop {
        let walls: Vec<f64> = campaigns.iter().map(|c| c.launched.wall_s).collect();
        let next = Duration::from_secs_f64(stats::median(&walls).unwrap_or(0.0));
        if campaigns.len() >= MIN_CAMPAIGNS && started.elapsed() + next > budget {
            break;
        }
        let out_dir = match workload.mode {
            Mode::Warm => {
                let _ = std::fs::remove_file(warm_dir.join(MERGED_FILENAME));
                warm_dir.clone()
            }
            Mode::Cold => {
                let dir = work.0.join("cold");
                let _ = std::fs::remove_dir_all(&dir);
                dir
            }
        };
        let args = run_args(&spec_path, &out_dir);
        campaigns.push(run_campaign(&exe, &args, &out_dir, &reference, trials)?);
    }

    let mut report = end_to_end(&campaigns, trials)?;
    if options.trace {
        let untraced_wall = report.metrics[0].2;
        per_layer(
            options,
            &exe,
            &work.0,
            &spec_path,
            &reference,
            &campaigns,
            untraced_wall,
            &mut report,
        )?;
        report
            .metrics
            .retain(|(name, _, _)| !END_TO_END.iter().any(|(n, _)| n == name));
    }
    print_report(workload, options, &report);
    Ok(())
}

/// The campaigns whose figures are reported: the successful ones, or every
/// attempted one when none succeeded (the time it takes to fail).
fn reported(campaigns: &[Campaign]) -> Vec<&Campaign> {
    let ok: Vec<&Campaign> = campaigns.iter().filter(|c| c.ok).collect();
    if ok.is_empty() {
        campaigns.iter().collect()
    } else {
        ok
    }
}

fn end_to_end(campaigns: &[Campaign], trials: u64) -> Result<Report, String> {
    let reported = reported(campaigns);
    let column = |f: &dyn Fn(&Launched) -> Option<f64>| -> Vec<f64> {
        reported.iter().filter_map(|c| f(&c.launched)).collect()
    };
    let columns: [Vec<f64>; 5] = [
        column(&|l| Some(l.wall_s)),
        column(&|l| Some(trials as f64 / l.wall_s)),
        column(&|l| l.timeline.setup_s()),
        column(&|l| l.timeline.tail_s()),
        column(&|l| Some(l.peak_rss_kb as f64 / 1024.0)),
    ];
    let mut metrics = Vec::new();
    for ((name, unit), values) in END_TO_END.iter().zip(&columns) {
        summarize_column(name, unit, values);
        let median = stats::median(values)
            .ok_or_else(|| format!("no campaign yielded a value for {name}"))?;
        metrics.push((*name, *unit, median));
    }
    Ok(Report {
        correct: !campaigns.iter().any(|c| c.mismatch),
        attempted: campaigns.len(),
        failed: campaigns.iter().filter(|c| !c.ok).count(),
        metrics,
    })
}

/// Prints a metric's median, quartiles, sample count and the highest tail
/// percentile that has ten samples beyond it.
fn summarize_column(name: &str, unit: &str, values: &[f64]) {
    let q = |p| stats::percentile(values, p).unwrap_or(f64::NAN);
    let tail = match stats::tail(values) {
        Some((p, v)) => format!("p{p} {v:.4}"),
        None => "no tail percentile has >= 10 samples beyond it".into(),
    };
    println!(
        "  {name:<14} median {:.4} {unit}  (p25 {:.4}, p75 {:.4}; {tail}; n = {})",
        q(50.0),
        q(25.0),
        q(75.0),
        values.len()
    );
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    options: &Options,
    exe: &Path,
    work: &Path,
    spec_path: &Path,
    reference: &[u8],
    campaigns: &[Campaign],
    untraced_wall: f64,
    report: &mut Report,
) -> Result<(), String> {
    let reported = reported(campaigns);
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    for (i, name) in timeline::PHASES.iter().enumerate() {
        let values: Vec<f64> = reported
            .iter()
            .filter_map(|c| c.launched.timeline.phases_ms()[i])
            .collect();
        metrics.push((name, stats::median(&values).unwrap_or(0.0)));
    }
    let respawns: u32 = campaigns
        .iter()
        .map(|c| c.launched.timeline.respawns())
        .sum();
    metrics.push((
        "driver.respawns",
        f64::from(respawns) / campaigns.len() as f64,
    ));
    let max_line = reference.split(|&b| b == b'\n').map(<[u8]>::len).max();
    metrics.push(("merge.max_line_bytes", max_line.unwrap_or(0) as f64));

    // The traced replay, in a fresh process.
    let parent_dir = work.join("trace-parent");
    let shard_dir = work.join("trace-shards");
    let out_dir = work.join("trace-out");
    for dir in [&shard_dir, &out_dir] {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    if options.workload.mode == Mode::Warm {
        let warm = work.join("warm");
        copy_dir(&warm, &parent_dir)?;
        for index in 0..SHARDS {
            let cache = rowpress_core::campaign::shard_cache_path(&warm, index);
            let copy = rowpress_core::campaign::shard_cache_path(&shard_dir, index);
            std::fs::copy(&cache, &copy).map_err(|e| e.to_string())?;
        }
    }
    let tcp_dir = work.join("trace-tcp");
    let mut replay = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    replay
        .arg("__replay")
        .arg(exe)
        .arg(spec_path)
        .arg(&parent_dir)
        .arg(&shard_dir)
        .arg(&out_dir);
    if options.workload.traces_tcp {
        replay.arg(&tcp_dir);
    }
    let status = replay
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("the traced replay failed ({status})"));
    }
    let text = std::fs::read_to_string(out_dir.join("metrics.txt")).map_err(|e| e.to_string())?;
    let mut traced_ok = false;
    let mut tcp_ok = None;
    for line in text.lines() {
        let (name, value) = line.split_once(' ').ok_or("malformed replay metric")?;
        let value: f64 = value.parse().map_err(|_| "malformed replay metric value")?;
        match name {
            "trace.campaign_ok" => traced_ok = value == 1.0,
            "tcp.campaign_ok" => tcp_ok = Some(value == 1.0),
            _ => {}
        }
        if name.ends_with("campaign_ok") {
            continue;
        }
        let (name, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("replay reported an unknown metric `{name}`"))?;
        metrics.push((name, value));
        if *name == "trace.wall_s" {
            metrics.push(("trace.overhead_frac", value / untraced_wall - 1.0));
        }
    }
    // The traced campaign is one more attempt, checked like the timed ones.
    report.attempted += 1;
    if traced_ok {
        let merged = std::fs::read(parent_dir.join(MERGED_FILENAME)).unwrap_or_default();
        if merged != reference {
            report.correct = false;
            report.failed += 1;
        }
    } else {
        report.failed += 1;
    }
    metrics.push((
        "campaign.failed_frac",
        report.failed as f64 / report.attempted as f64,
    ));
    // The TCP campaign is reported on its own: it is not this workload's.
    let tcp_failed = match tcp_ok {
        None => false,
        Some(false) => true,
        Some(true) => {
            let merged = std::fs::read(tcp_dir.join(MERGED_FILENAME)).unwrap_or_default();
            report.correct &= merged == reference;
            merged != reference
        }
    };
    metrics.push(("tcp.failed_frac", f64::from(u8::from(tcp_failed))));
    let spans = std::fs::read(out_dir.join("spans.jsonl")).map_err(|e| e.to_string())?;
    // Kept after the run, unlike the work directory.
    let keep_dir = Path::new(SPANS_DIR);
    std::fs::create_dir_all(keep_dir).map_err(|e| e.to_string())?;
    let keep = keep_dir.join(format!(
        "{}-seed{}.jsonl",
        options.workload.name, options.seed
    ));
    std::fs::write(&keep, spans).map_err(|e| e.to_string())?;
    println!("  spans written to {}", keep.display());

    for (name, unit) in PER_LAYER.iter() {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        println!("  {name:<32} {value:.4} {unit}");
        report.metrics.push((name, unit, value));
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn print_report(workload: Workload, options: &Options, report: &Report) {
    println!(
        "{} seed {}: {} campaign(s) attempted, {} failed",
        workload.name, options.seed, report.attempted, report.failed
    );
    let metrics = report
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    );
}
