//! The TCP agent transport: shards stream frames *and* records over a
//! socket to the parent's collector.
//!
//! The parent binds a listener (`--transport tcp://HOST:PORT`; port 0 picks
//! a free port) and spawns the same `__shard` children as the local
//! transport — but with `--connect ADDR --incarnation K` instead of
//! `--out`, so each child dials back (bounded retry with backoff) and
//! speaks the whole protocol over its connection:
//!
//! 1. `hello index=I of=N incarnation=K` routes the connection to the
//!    (shard, incarnation) registration the parent made at launch — a
//!    reconnecting *stale* incarnation is dropped on the floor;
//! 2. every subsequent line is timestamped as a heartbeat, relayed to the
//!    campaign log as `[shard I] …`, and fed through the shard's
//!    [`ShardCollector`], which accepts in-order records, folds duplicate
//!    deliveries, and flags torn/out-of-order streams as transport faults
//!    (the watch loop then kills and respawns the incarnation);
//! 3. a `done` frame over a complete stream persists the shard's records
//!    to the usual `shard-NNNN.jsonl` (same on-disk layout as the local
//!    transport) and marks the handle done.
//!
//! The persistent cache stays a *local file of the shard* — resume must
//! survive the transport being the very thing that failed.

use super::{Frame, Liveness, ShardCollector, ShardHandle, ShardStatus, Transport};
use crate::child::Fault;
use crate::CliError;
use rowpress_core::campaign::{shard_cache_path, shard_output_path, CampaignSpec};
use rowpress_core::engine::{JsonlSink, Sink, Trial, TrialRecord};
use std::collections::HashMap;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection handler blocks on the socket before re-checking
/// its shutdown flags. Short enough that kills are prompt; long enough to
/// stay off the scheduler.
const READ_SLICE: Duration = Duration::from_millis(250);

/// Parent-side per-connection state for one shard incarnation.
struct ConnSlot {
    /// `None` until the incarnation's first line arrives over TCP — the
    /// transport-acknowledged connect that starts the stall clock.
    beat: Mutex<Option<Instant>>,
    /// Set when a complete stream was persisted.
    done: AtomicBool,
    /// First protocol violation on this connection, if any.
    fault: Mutex<Option<String>>,
    collector: Mutex<ShardCollector>,
    /// Tells the handler thread to stop reading (the incarnation was
    /// killed or superseded).
    dead: AtomicBool,
    /// Set once the connection handler has returned: the stream is fully
    /// ingested, and `done`/`fault` are final.
    closed: AtomicBool,
}

/// Marks the slot's connection closed when the handler returns, whichever
/// way it returns.
struct CloseOnDrop<'a>(&'a ConnSlot);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.closed.store(true, Ordering::Release);
    }
}

impl ConnSlot {
    /// A slot awaiting its incarnation's connection.
    fn new(expected: Arc<Vec<Trial>>) -> Self {
        ConnSlot {
            beat: Mutex::new(None),
            done: AtomicBool::new(false),
            fault: Mutex::new(None),
            collector: Mutex::new(ShardCollector::new(expected)),
            dead: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        }
    }

    fn set_fault(&self, message: String) {
        let mut fault = self.fault.lock().expect("fault lock");
        if fault.is_none() {
            *fault = Some(message);
        }
    }
}

/// Live (shard, incarnation) registrations the acceptor routes
/// connections to; superseded incarnations are deadened and dropped.
type Registry = Arc<Mutex<HashMap<(usize, u32), Arc<ConnSlot>>>>;

/// The TCP agent transport (see the module docs).
pub struct TcpAgent {
    exe: PathBuf,
    spec_file: PathBuf,
    out_dir: PathBuf,
    of: usize,
    faults: HashMap<usize, Fault>,
    /// The bound collector address children dial (resolved, not the
    /// possibly-port-0 operand).
    addr: String,
    /// Live (shard, incarnation) registrations the acceptor routes to.
    registry: Registry,
    /// Per-shard expected trial sequences (plan order).
    expected: Vec<Arc<Vec<Trial>>>,
    /// Per-shard completed record streams, filled by connection handlers.
    finals: Vec<Arc<Mutex<Option<Vec<TrialRecord>>>>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl TcpAgent {
    /// Binds the collector listener on `bind_addr` and prepares to fan out
    /// `of` shards of `exe` over `spec_file`. Fails fast when the address
    /// cannot be bound.
    ///
    /// # Errors
    ///
    /// Returns a run-level [`CliError`] when binding fails or the spec's
    /// plan cannot be derived.
    pub fn new(
        exe: PathBuf,
        spec_file: PathBuf,
        out_dir: PathBuf,
        of: usize,
        faults: HashMap<usize, Fault>,
        bind_addr: &str,
        spec: &CampaignSpec,
    ) -> Result<Self, CliError> {
        let listener = TcpListener::bind(bind_addr)
            .map_err(|e| CliError::run(format!("failed to bind collector on {bind_addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CliError::run(format!("collector address unavailable: {e}")))?
            .to_string();
        let plan = spec.plan()?;
        let expected: Vec<Arc<Vec<Trial>>> = (0..of)
            .map(|i| Arc::new(plan.shard(i, of).trials().to_vec()))
            .collect();
        let finals: Vec<_> = (0..of).map(|_| Arc::new(Mutex::new(None))).collect();
        let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let finals = finals.clone();
            let out_dir = out_dir.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let registry = Arc::clone(&registry);
                    let finals = finals.clone();
                    let out_dir = out_dir.clone();
                    std::thread::spawn(move || {
                        handle_connection(stream, &registry, &finals, &out_dir);
                    });
                }
            })
        };
        Ok(TcpAgent {
            exe,
            spec_file,
            out_dir,
            of,
            faults,
            addr,
            registry,
            expected,
            finals,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The resolved `HOST:PORT` the collector listens on (what children
    /// dial; useful when the operand asked for port 0).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }
}

impl Drop for TcpAgent {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for slot in self.registry.lock().expect("registry lock").values() {
            slot.dead.store(true, Ordering::Relaxed);
        }
        // Wake the blocking accept so the acceptor observes `stop`.
        let _ = TcpStream::connect(&self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Transport for TcpAgent {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn launch(&mut self, index: usize, incarnation: u32) -> Result<Box<dyn ShardHandle>, CliError> {
        let slot = Arc::new(ConnSlot::new(Arc::clone(&self.expected[index])));
        {
            let mut registry = self.registry.lock().expect("registry lock");
            // Supersede any older incarnation of this shard: its handler
            // (if a connection is still draining) must stop ingesting.
            for ((i, _), old) in registry.iter() {
                if *i == index {
                    old.dead.store(true, Ordering::Relaxed);
                }
            }
            registry.retain(|(i, _), _| *i != index);
            registry.insert((index, incarnation), Arc::clone(&slot));
        }
        let mut command = Command::new(&self.exe);
        command
            .arg("__shard")
            .arg(&self.spec_file)
            .args(["--index", &index.to_string()])
            .args(["--of", &self.of.to_string()])
            .arg("--cache")
            .arg(shard_cache_path(&self.out_dir, index))
            .args(["--connect", &self.addr])
            .args(["--incarnation", &incarnation.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit());
        if let Some(fault) = self.faults.get(&index) {
            command.args(["--fault", &fault.to_arg()]);
        }
        let child = command
            .spawn()
            .map_err(|e| CliError::run(format!("failed to spawn shard {index}: {e}")))?;
        Ok(Box::new(TcpHandle {
            child,
            launched: Instant::now(),
            slot,
        }))
    }

    fn collect(&mut self, index: usize) -> Result<Vec<TrialRecord>, CliError> {
        self.finals[index]
            .lock()
            .expect("finals lock")
            .take()
            .ok_or_else(|| {
                CliError::run(format!(
                    "shard {index} never delivered a complete stream over tcp"
                ))
            })
    }
}

/// One TCP shard incarnation: a child process plus its connection slot.
struct TcpHandle {
    child: Child,
    launched: Instant,
    slot: Arc<ConnSlot>,
}

impl ShardHandle for TcpHandle {
    fn poll(&mut self) -> Result<ShardStatus, CliError> {
        let fault = self.slot.fault.lock().expect("fault lock").clone();
        if let Some(fault) = fault {
            // A protocol violation condemns the incarnation even if the
            // process is technically alive: reap it and report unclean.
            println!("campaign: transport fault: {fault}");
            self.kill();
            return Ok(ShardStatus::Exited { clean: false });
        }
        match self.child.try_wait().map_err(CliError::from)? {
            // A clean exit only means the child has written its stream; the
            // handler may still be ingesting and persisting it. Until it
            // returns, `done` is not final, so the shard is still running.
            // (A child that exits clean without ever connecting stays
            // `Connecting` and meets the connect timeout.)
            Some(status) if status.success() && !self.slot.closed.load(Ordering::Acquire) => {
                Ok(ShardStatus::Running)
            }
            Some(status) => Ok(ShardStatus::Exited {
                clean: status.success(),
            }),
            None => Ok(ShardStatus::Running),
        }
    }

    fn liveness(&self) -> Liveness {
        match *self.slot.beat.lock().expect("beat lock") {
            None => Liveness::Connecting {
                waited: self.launched.elapsed(),
            },
            Some(last) => Liveness::Alive {
                quiet: last.elapsed(),
            },
        }
    }

    fn done(&self) -> bool {
        self.slot.done.load(Ordering::Relaxed)
    }

    fn degraded(&self) -> bool {
        // The collector tracks `degraded=1` beat/done frames (sticky).
        self.slot
            .collector
            .lock()
            .expect("collector lock")
            .degraded()
    }

    fn kill(&mut self) {
        self.slot.dead.store(true, Ordering::Relaxed);
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Serves one inbound connection: route by `hello`, then pump lines into
/// the incarnation's collector until EOF, fault, or completion.
fn handle_connection(
    stream: TcpStream,
    registry: &Mutex<HashMap<(usize, u32), Arc<ConnSlot>>>,
    finals: &[Arc<Mutex<Option<Vec<TrialRecord>>>>],
    out_dir: &std::path::Path,
) {
    let _ = stream.set_read_timeout(Some(READ_SLICE));
    let _ = stream.set_nodelay(true);
    let mut lines = SlicedLines::new(stream);
    // The first line must be the hello frame; anything else is not a shard.
    let Some(first) = lines.next_line(|| false) else {
        return;
    };
    let Some(Frame::Hello { index, incarnation }) = Frame::parse(&first) else {
        return;
    };
    let Some(slot) = registry
        .lock()
        .expect("registry lock")
        .get(&(index, incarnation))
        .cloned()
    else {
        // A stale incarnation reconnected after being superseded; ignore it.
        return;
    };
    let _closed = CloseOnDrop(&slot);
    relay(index, &first);
    *slot.beat.lock().expect("beat lock") = Some(Instant::now());
    while let Some(line) = lines.next_line(|| slot.dead.load(Ordering::Relaxed)) {
        *slot.beat.lock().expect("beat lock") = Some(Instant::now());
        if !matches!(Frame::parse(&line), Some(Frame::Record(_))) {
            // Records are data, not log; everything else is relayed like
            // the local transport relays stdout.
            relay(index, &line);
        }
        let mut collector = slot.collector.lock().expect("collector lock");
        collector.ingest(&line);
        if let Some(fault) = collector.fault() {
            slot.set_fault(format!("shard {index}: {fault}"));
            return;
        }
        if collector.is_complete() {
            let records = collector.records().to_vec();
            drop(collector);
            if let Err(e) = persist_shard(out_dir, index, &records) {
                slot.set_fault(format!("shard {index}: failed to persist stream: {e}"));
                return;
            }
            *finals[index].lock().expect("finals lock") = Some(records);
            slot.done.store(true, Ordering::Relaxed);
            return;
        }
    }
}

/// Writes a completed shard stream to `shard-NNNN.jsonl`, keeping the
/// on-disk layout identical across transports.
fn persist_shard(
    out_dir: &std::path::Path,
    index: usize,
    records: &[TrialRecord],
) -> std::io::Result<()> {
    let mut sink = JsonlSink::new(BufWriter::new(std::fs::File::create(shard_output_path(
        out_dir, index,
    ))?));
    for record in records {
        sink.accept(record.clone())?;
    }
    sink.finish()
}

/// Relays a shard's line to the campaign log with the stable prefix the
/// local transport (and the recovery tests) use.
fn relay(index: usize, line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "[shard {index}] {line}");
    let _ = out.flush();
}

/// A line reader over a read-timeout socket: each `next_line` call retries
/// through timeout slices (checking an abort flag between them) and keeps
/// partially received bytes across slices, so a line torn across packets
/// is still assembled — only EOF or abort ends the stream.
struct SlicedLines {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl SlicedLines {
    fn new(stream: TcpStream) -> Self {
        SlicedLines {
            stream,
            buf: Vec::new(),
        }
    }

    fn next_line(&mut self, abort: impl Fn() -> bool) -> Option<String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=end).collect();
                let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                return Some(text.trim_end_matches('\r').to_string());
            }
            if abort() {
                return None;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{PROTOCOL_PREFIX, RECORD_FRAME_PREFIX};
    use rowpress_core::engine::Engine;

    fn records() -> Vec<TrialRecord> {
        let spec = CampaignSpec::parse(
            r#"
            [config]
            preset = "test"
            [grid]
            modules = ["S3"]
            [[measurement]]
            kind = "ac_min"
            t_aggon_ns = [36.0]
            "#,
        )
        .unwrap();
        Engine::new(&spec.config())
            .run_collect(&spec.plan().unwrap())
            .unwrap()
    }

    #[test]
    fn clean_exit_waits_for_the_handler_to_persist_the_stream() {
        let records = records();
        let out_dir =
            std::env::temp_dir().join(format!("rowpress-tcp-exit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out_dir);
        std::fs::create_dir_all(&out_dir).unwrap();
        let slot = Arc::new(ConnSlot::new(Arc::new(
            records.iter().map(|r| r.trial.clone()).collect(),
        )));
        let registry: Registry = Arc::new(Mutex::new(HashMap::from([((0, 0), Arc::clone(&slot))])));
        let finals = vec![Arc::new(Mutex::new(None))];

        // The child's side of the connection: its whole stream, then close.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut wire = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        writeln!(wire, "{PROTOCOL_PREFIX} hello index=0 of=1 incarnation=0").unwrap();
        let mut frames = JsonlSink::new(Vec::new());
        for record in &records {
            frames.accept(record.clone()).unwrap();
        }
        for line in String::from_utf8(frames.into_inner()).unwrap().lines() {
            writeln!(wire, "{RECORD_FRAME_PREFIX} {line}").unwrap();
        }
        writeln!(
            wire,
            "{PROTOCOL_PREFIX} done total={} computed=0 replayed=0",
            records.len()
        )
        .unwrap();
        drop(wire);

        // Hold the collector so the handler cannot ingest the first record.
        let held = slot.collector.lock().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| handle_connection(server, &registry, &finals, &out_dir));
            let mut handle = TcpHandle {
                child: Command::new("true").spawn().unwrap(),
                launched: Instant::now(),
                slot: Arc::clone(&slot),
            };
            assert!(handle.child.wait().unwrap().success());
            for _ in 0..3 {
                assert_eq!(
                    handle.poll().unwrap(),
                    ShardStatus::Running,
                    "a clean exit must not end the shard while its stream is unpersisted"
                );
            }
            assert!(!handle.done());

            drop(held);
            let deadline = Instant::now() + Duration::from_secs(30);
            let status = loop {
                match handle.poll().unwrap() {
                    ShardStatus::Running if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    status => break status,
                }
            };
            assert_eq!(status, ShardStatus::Exited { clean: true });
            assert!(handle.done(), "a clean finish must be a done one");
        });
        assert_eq!(finals[0].lock().unwrap().as_deref(), Some(&records[..]));
        assert!(shard_output_path(&out_dir, 0).exists());
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
