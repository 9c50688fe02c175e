//! The `__shard` child mode: one shard process of a campaign.
//!
//! A child derives the same plan as the parent from the spec file and runs
//! its [`Plan::shard`](rowpress_core::engine::Plan::shard) with the
//! persistent cache flushed after every record. It speaks the line protocol
//! documented in [`crate::transport::Frame`] — the parent's only view of
//! its health — over one of two channels:
//!
//! * **local mode** (`--out FILE`): frames on stdout, records in the output
//!   file ([`run_shard`] unchanged from PR 5);
//! * **agent mode** (`--connect HOST:PORT --incarnation K`): the child
//!   dials the parent's collector (bounded retry with backoff), announces
//!   itself with a `hello` frame, and streams frames *and* `record` frames
//!   over the same connection ([`run_shard_with`] feeding a
//!   [`FramedSink`] behind a [`ThreadedSink`]). The cache stays a local
//!   file either way — resume must survive the transport being the very
//!   thing that failed.
//!
//! Every line doubles as a heartbeat: the parent kills and respawns a shard
//! whose channel goes quiet past the stall timeout. The `--fault` options
//! exist for the orchestrator's own tests: they crash (`exit-after`) or
//! wedge (`hang-after`) the child once it has *computed* (not replayed) N
//! trials, which exercises exactly the crash/stall recovery paths.

use crate::transport::RECORD_FRAME_PREFIX;
use crate::{parse_number, CliError, EXIT_FAULT, EXIT_OK, EXIT_RUN, EXIT_SPEC};
use rowpress_core::campaign::{run_shard, run_shard_with, CampaignError, CampaignSpec, ShardEvent};
use rowpress_core::engine::{FramedSink, ThreadedSink};
use std::fmt;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The line prefix of the child protocol (re-exported from the transport
/// layer's frame grammar); everything else on a child's channel is
/// free-form logging.
pub use crate::transport::PROTOCOL_PREFIX;

/// A test-only fault injected into a shard incarnation, triggered once the
/// incarnation has computed (cache-missed) the given number of trials. A
/// fully resumed incarnation computes nothing, so the fault no longer fires
/// and the shard completes — which is what lets the recovery tests converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Exit with [`EXIT_FAULT`] after computing N trials.
    ExitAfter(u64),
    /// Stop emitting heartbeats (sleep forever) after computing N trials.
    HangAfter(u64),
}

impl Fault {
    /// Parses the `KIND=N` form used by `--fault` (`exit-after=5`,
    /// `hang-after=3`).
    ///
    /// # Errors
    ///
    /// Returns a usage-level [`CliError`] for malformed or unknown faults.
    pub fn parse(text: &str) -> Result<Fault, CliError> {
        let (kind, n) = text
            .split_once('=')
            .ok_or_else(|| CliError::usage(format!("malformed fault `{text}` (want KIND=N)")))?;
        let n: u64 = n
            .parse()
            .map_err(|_| CliError::usage(format!("fault count `{n}` is not an integer")))?;
        if n == 0 {
            return Err(CliError::usage("fault count must be positive"));
        }
        match kind {
            "exit-after" => Ok(Fault::ExitAfter(n)),
            "hang-after" => Ok(Fault::HangAfter(n)),
            other => Err(CliError::usage(format!(
                "unknown fault kind `{other}` (want exit-after or hang-after)"
            ))),
        }
    }

    /// The child argument this fault round-trips through.
    pub fn to_arg(self) -> String {
        match self {
            Fault::ExitAfter(n) => format!("exit-after={n}"),
            Fault::HangAfter(n) => format!("hang-after={n}"),
        }
    }
}

/// Parsed arguments of the hidden `__shard` mode.
#[derive(Debug)]
pub struct ShardArgs {
    /// The spec file (the parent passes its resolved `campaign.json`).
    pub spec: PathBuf,
    /// This shard's index.
    pub index: usize,
    /// Total shard count.
    pub of: usize,
    /// The shard's persistent-cache file.
    pub cache: PathBuf,
    /// The shard's JSONL output file (local mode).
    pub out: Option<PathBuf>,
    /// The parent collector's `HOST:PORT` (agent mode).
    pub connect: Option<String>,
    /// Which incarnation of the shard this is (agent mode routes
    /// connections by it; stale incarnations are ignored).
    pub incarnation: u32,
    /// Injected test fault, if any.
    pub fault: Option<Fault>,
}

impl ShardArgs {
    /// Parses `__shard <SPEC> --index I --of N --cache FILE
    /// (--out FILE | --connect HOST:PORT [--incarnation K]) [--fault KIND=N]`.
    ///
    /// # Errors
    ///
    /// Returns a usage-level [`CliError`] for unknown flags, missing
    /// operands, or when neither/both of `--out` and `--connect` are given.
    pub fn parse(operand: Option<&String>, rest: &[String]) -> Result<ShardArgs, CliError> {
        let spec = operand.ok_or_else(|| CliError::usage("__shard: missing <SPEC>"))?;
        let mut index = None;
        let mut of = None;
        let mut cache = None;
        let mut out = None;
        let mut connect = None;
        let mut incarnation = 0;
        let mut fault = None;
        let mut args = rest.iter();
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .cloned()
                    .ok_or_else(|| CliError::usage(format!("__shard: {name} needs a value")))
            };
            match flag.as_str() {
                "--index" => index = Some(parse_number(&value("--index")?, "--index")?),
                "--of" => of = Some(parse_number(&value("--of")?, "--of")?),
                "--cache" => cache = Some(PathBuf::from(value("--cache")?)),
                "--out" => out = Some(PathBuf::from(value("--out")?)),
                "--connect" => connect = Some(value("--connect")?),
                "--incarnation" => {
                    incarnation = parse_number(&value("--incarnation")?, "--incarnation")?;
                }
                "--fault" => fault = Some(Fault::parse(&value("--fault")?)?),
                other => {
                    return Err(CliError::usage(format!("__shard: unknown flag `{other}`")));
                }
            }
        }
        match (&out, &connect) {
            (None, None) => {
                return Err(CliError::usage(
                    "__shard: need --out FILE or --connect ADDR",
                ));
            }
            (Some(_), Some(_)) => {
                return Err(CliError::usage(
                    "__shard: --out and --connect are mutually exclusive",
                ));
            }
            _ => {}
        }
        let missing = |name: &str| CliError::usage(format!("__shard: missing {name}"));
        Ok(ShardArgs {
            spec: PathBuf::from(spec),
            index: index.ok_or_else(|| missing("--index"))?,
            of: of.ok_or_else(|| missing("--of"))?,
            cache: cache.ok_or_else(|| missing("--cache"))?,
            out,
            connect,
            incarnation,
            fault,
        })
    }
}

/// Where the shard's protocol lines go: the parent reads exactly one of
/// these channels, and every line on it is a heartbeat.
#[derive(Clone)]
enum Emitter {
    /// Local mode: lines on stdout, read by the parent's pipe watcher.
    Stdout,
    /// Agent mode: lines over the collector connection. The same mutex
    /// serializes the record frames ([`FramedSink`] shares the stream), so
    /// lines never interleave mid-frame.
    Wire(Arc<Mutex<TcpStream>>),
}

impl Emitter {
    /// Dials the parent's collector with bounded retry (the parent may
    /// still be binding when the first child launches) and announces this
    /// (shard, incarnation) with the `hello` frame.
    fn connect(addr: &str, index: usize, of: usize, incarnation: u32) -> Result<Emitter, CliError> {
        let mut last_error = String::new();
        for attempt in 0..6 {
            if attempt > 0 {
                std::thread::sleep(dial_backoff(attempt, index, incarnation));
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let wire = Arc::new(Mutex::new(stream));
                    let emitter = Emitter::Wire(wire);
                    emitter.emit(format_args!(
                        "{PROTOCOL_PREFIX} hello index={index} of={of} incarnation={incarnation}"
                    ));
                    return Ok(emitter);
                }
                Err(e) => last_error = e.to_string(),
            }
        }
        Err(CliError::run(format!(
            "shard {index}: failed to reach the collector at {addr}: {last_error}"
        )))
    }

    /// Prints one protocol line and flushes, so the parent sees it
    /// immediately (a buffered heartbeat is no heartbeat).
    fn emit(&self, line: fmt::Arguments<'_>) {
        match self {
            Emitter::Stdout => {
                let mut stdout = std::io::stdout().lock();
                let _ = writeln!(stdout, "{line}");
                let _ = stdout.flush();
            }
            Emitter::Wire(wire) => {
                // Held across the whole writeln: the formatter may write in
                // fragments, and the record sink shares this stream.
                let mut stream = wire.lock().expect("wire lock");
                let _ = writeln!(stream, "{line}");
                let _ = stream.flush();
            }
        }
    }
}

/// Delay before dial attempt `attempt` (attempt 1 is the first retry).
///
/// Exponential from 50 ms but *capped at 2 s*: an orchestrator that takes a
/// while to rebind must see steady retry pressure, not a child whose next
/// attempt is minutes out. On top of the cap rides a deterministic jitter —
/// up to a quarter of the delay, derived from (shard, incarnation, attempt)
/// — so a fleet of children respawned in the same instant does not dial in
/// lockstep, while any single incarnation's schedule stays exactly
/// reproducible.
fn dial_backoff(attempt: u32, index: usize, incarnation: u32) -> Duration {
    const BASE_MS: u64 = 50;
    const CAP_MS: u64 = 2_000;
    let exponential = BASE_MS << (attempt.saturating_sub(1)).min(10);
    let capped = exponential.min(CAP_MS);
    // FNV-1a over the identity tuple: cheap, stable, no RNG state.
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for value in [index as u64, u64::from(incarnation), u64::from(attempt)] {
        hash ^= value;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    Duration::from_millis(capped + hash % (capped / 4 + 1))
}

/// Runs the shard and returns the process exit code.
pub fn run(args: &ShardArgs) -> i32 {
    let emitter = match &args.connect {
        Some(addr) => match Emitter::connect(addr, args.index, args.of, args.incarnation) {
            Ok(emitter) => emitter,
            Err(e) => {
                eprintln!("rowpress-campaign shard {}: {e}", args.index);
                return EXIT_RUN;
            }
        },
        None => Emitter::Stdout,
    };
    // Boot heartbeats: the parent's connect window ends at our first line,
    // and its stall clock starts there — but the first protocol event
    // (`start`) only comes after the spec parse, plan derivation and cache
    // preload, and a paper-scale cache file can take longer to preload than
    // the stall timeout. Beat through the startup window so a healthy
    // preload is never killed as a straggler; real stall detection begins
    // once trials run.
    // The thread waits on the channel between beats, so `start` (or an
    // early exit) ends it at once and the join below never waits out a
    // beat interval.
    let (started, boot_wait) = std::sync::mpsc::channel::<()>();
    let boot = {
        let emitter = emitter.clone();
        let index = args.index;
        std::thread::spawn(move || loop {
            emitter.emit(format_args!("{PROTOCOL_PREFIX} boot index={index}"));
            if boot_wait.recv_timeout(Duration::from_millis(300))
                != Err(std::sync::mpsc::RecvTimeoutError::Timeout)
            {
                break;
            }
        })
    };
    let spec = match CampaignSpec::from_path(&args.spec) {
        Ok(spec) => spec,
        Err(e) => {
            let _ = started.send(());
            let _ = boot.join();
            eprintln!("rowpress-campaign shard {}: {e}", args.index);
            return EXIT_SPEC;
        }
    };
    let fault = args.fault;
    let boot_done = started.clone();
    let events = emitter.clone();
    let on_event = move |event: ShardEvent| {
        match event {
            ShardEvent::Started { preloaded, total } => {
                let _ = boot_done.send(());
                events.emit(format_args!(
                    "{PROTOCOL_PREFIX} start index={} of={} total={total} preloaded={preloaded}",
                    args.index, args.of
                ));
            }
            ShardEvent::Beat {
                computed_live,
                replayed_live,
                busy_us,
                idle_us,
                queue_peak,
                degraded,
            } => events.emit(format_args!(
                "{PROTOCOL_PREFIX} beat computed_live={computed_live} \
                 replayed_live={replayed_live} busy_us={busy_us} \
                 idle_us={idle_us} queue_peak={queue_peak} degraded={}",
                u8::from(degraded)
            )),
            ShardEvent::Progress {
                done,
                total,
                computed,
                replayed,
            } => events.emit(format_args!(
                "{PROTOCOL_PREFIX} progress done={done} total={total} \
                 computed={computed} replayed={replayed}"
            )),
            ShardEvent::Finished {
                total,
                computed,
                replayed,
                degraded,
            } => events.emit(format_args!(
                "{PROTOCOL_PREFIX} done total={total} computed={computed} \
                 replayed={replayed} degraded={}",
                u8::from(degraded)
            )),
        }
        if let ShardEvent::Progress { computed, .. } = event {
            match fault {
                Some(Fault::ExitAfter(n)) if computed >= n => {
                    events.emit(format_args!("{PROTOCOL_PREFIX} fault exit-after={n}"));
                    // The per-record cache flush already persisted every
                    // computed outcome; dying here loses nothing.
                    std::process::exit(EXIT_FAULT);
                }
                Some(Fault::HangAfter(n)) if computed >= n => {
                    events.emit(format_args!("{PROTOCOL_PREFIX} fault hang-after={n}"));
                    // Wedge without exiting: heartbeats stop, the parent's
                    // stall detector must notice and kill us.
                    loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                }
                _ => {}
            }
        }
    };
    let result = match (&args.out, &emitter) {
        (Some(out), _) => run_shard(&spec, args.index, args.of, &args.cache, out, on_event),
        (None, Emitter::Wire(wire)) => {
            // Records ride the connection as `record` frames; ThreadedSink
            // keeps serialization off the trial loop exactly as in local
            // mode, FramedSink makes each record one atomic line.
            let sink = ThreadedSink::new(FramedSink::new(Arc::clone(wire), RECORD_FRAME_PREFIX));
            run_shard_with(&spec, args.index, args.of, &args.cache, sink, on_event)
        }
        (None, Emitter::Stdout) => unreachable!("ShardArgs::parse requires --out or --connect"),
    };
    let _ = started.send(());
    let _ = boot.join();
    match result {
        Ok(_) => EXIT_OK,
        Err(CampaignError::Spec(e)) => {
            eprintln!("rowpress-campaign shard {}: {e}", args.index);
            EXIT_SPEC
        }
        Err(e) => {
            eprintln!("rowpress-campaign shard {}: {e}", args.index);
            EXIT_RUN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dial_backoff_is_capped_and_deterministic() {
        // Exponential until the cap, never past cap + 25% jitter.
        let cap = Duration::from_millis(2_000 + 500);
        for attempt in 1..64 {
            for (index, incarnation) in [(0, 0), (3, 1), (7, 12)] {
                let delay = dial_backoff(attempt, index, incarnation);
                assert!(delay <= cap, "attempt {attempt} waits {delay:?}");
                assert_eq!(
                    delay,
                    dial_backoff(attempt, index, incarnation),
                    "the schedule must be reproducible"
                );
            }
        }
        // Early attempts grow exponentially from the 50 ms base.
        assert!(dial_backoff(1, 0, 0) < dial_backoff(3, 0, 0));
        // Distinct incarnations of the same shard land on distinct delays
        // once the cap flattens the exponential part (the jitter's job).
        let late: Vec<Duration> = (0..8).map(|inc| dial_backoff(6, 2, inc)).collect();
        assert!(
            late.windows(2).any(|w| w[0] != w[1]),
            "jitter must spread a respawned fleet: {late:?}"
        );
    }
}
