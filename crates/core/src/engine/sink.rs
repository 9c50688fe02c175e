//! Record sinks and readers: where the engine's plan-ordered
//! [`TrialRecord`] stream goes, and how partial JSONL streams come back.
//!
//! * [`MemorySink`] collects records in memory.
//! * [`JsonlSink`] streams records as JSON Lines to any [`Write`] target.
//! * [`ThreadedSink`] decouples any `Send` sink from the engine through a
//!   bounded channel and a background writer thread, so slow I/O never
//!   stalls the worker pool.
//! * [`JsonlReader`] parses a JSONL stream back into records and
//!   merge-sorts shard streams into plan order
//!   ([`JsonlReader::merge_shards`]).
//!
//! # Example: a threaded JSONL sink round-trips the stream
//!
//! [`ThreadedSink`] moves the inner sink to a background writer thread; the
//! engine's pool never blocks on I/O, yet the stream that reaches the inner
//! sink is byte-identical — and [`JsonlReader`] parses it back:
//!
//! ```
//! use rowpress_core::engine::{Engine, JsonlReader, JsonlSink, Measurement, Plan, ThreadedSink};
//! use rowpress_core::{lookup_module, ExperimentConfig};
//! use rowpress_dram::Time;
//! use std::io::BufReader;
//!
//! let cfg = ExperimentConfig::test_scale();
//! let plan = Plan::grid(&cfg)
//!     .module(&lookup_module("S3").unwrap())
//!     .measurement(Measurement::AcMin { t_aggon: Time::from_ms(30.0) })
//!     .build();
//! let engine = Engine::new(&cfg);
//! let mut sink = ThreadedSink::new(JsonlSink::new(Vec::new()));
//! engine.run(&plan, &mut sink).unwrap();
//! let bytes = sink.into_inner().into_inner();
//! let records = JsonlReader::new(BufReader::new(&bytes[..])).read_all().unwrap();
//! assert_eq!(records, engine.run_collect(&plan)?);
//! # Ok::<(), rowpress_dram::DramError>(())
//! ```

use super::integrity::Crc32;
use super::plan::{Plan, TrialRecord};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Receives the record stream of an engine run, in plan order.
pub trait Sink {
    /// Accepts one record (by value — collecting sinks store it without
    /// another copy).
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the underlying writer fails.
    fn accept(&mut self, record: TrialRecord) -> std::io::Result<()>;

    /// Called once after the last record (flush point for buffered sinks).
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the underlying writer fails.
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Collects records in memory.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Vec<TrialRecord>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The records collected so far.
    pub fn records(&self) -> &[TrialRecord] {
        &self.records
    }

    /// Consumes the sink, returning the collected records.
    pub fn into_records(self) -> Vec<TrialRecord> {
        self.records
    }
}

impl Sink for MemorySink {
    fn accept(&mut self, record: TrialRecord) -> std::io::Result<()> {
        self.records.push(record);
        Ok(())
    }
}

/// Streams records as JSON Lines (one serde-serialized record per line) to
/// any [`Write`] target. Each line deserializes back into a [`TrialRecord`]
/// with `serde_json::from_str` — or stream-parse whole files with
/// [`JsonlReader`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn accept(&mut self, record: TrialRecord) -> std::io::Result<()> {
        let line = serde_json::to_string(&record).map_err(std::io::Error::other)?;
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

/// Streams records as *framed* JSON lines — `<prefix> <record-json>\n` — to
/// a writer shared behind an `Arc<Mutex<_>>`, one atomic write per record.
///
/// This is the network-sink half of a remote campaign transport: a shard
/// process multiplexes its record stream and its heartbeat/progress frames
/// over one connection by sharing the writer, and the line-atomic writes
/// guarantee frames never tear each other even when records come from a
/// background [`ThreadedSink`] thread while heartbeats come from the event
/// callback. Each record is flushed immediately (a buffered record is no
/// heartbeat), so the collector on the other end sees progress in real
/// time. The prefix is caller-chosen — core stays agnostic of any
/// particular wire protocol.
///
/// ```
/// use rowpress_core::engine::{FramedSink, Sink};
/// use std::sync::{Arc, Mutex};
///
/// let wire = Arc::new(Mutex::new(Vec::new()));
/// let sink = FramedSink::new(Arc::clone(&wire), "##frame record");
/// drop(sink);
/// assert!(wire.lock().unwrap().is_empty());
/// ```
#[derive(Debug)]
pub struct FramedSink<W: Write> {
    writer: Arc<Mutex<W>>,
    prefix: String,
}

impl<W: Write> FramedSink<W> {
    /// Wraps a shared writer; every record line starts with `prefix` and a
    /// space.
    pub fn new(writer: Arc<Mutex<W>>, prefix: impl Into<String>) -> Self {
        FramedSink {
            writer,
            prefix: prefix.into(),
        }
    }

    /// Another handle to the shared writer (for multiplexing other frames
    /// onto the same connection).
    pub fn writer(&self) -> Arc<Mutex<W>> {
        Arc::clone(&self.writer)
    }
}

impl<W: Write> Sink for FramedSink<W> {
    fn accept(&mut self, record: TrialRecord) -> io::Result<()> {
        let json = serde_json::to_string(&record).map_err(io::Error::other)?;
        let mut line = String::with_capacity(self.prefix.len() + json.len() + 2);
        line.push_str(&self.prefix);
        line.push(' ');
        line.push_str(&json);
        line.push('\n');
        let mut writer = self.writer.lock().expect("framed sink writer lock");
        writer.write_all(line.as_bytes())?;
        writer.flush()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.lock().expect("framed sink writer lock").flush()
    }
}

/// A [`Write`] adapter that passes bytes through *unchanged* while recording
/// the CRC-32 of every newline-terminated line (the newline itself is
/// excluded, matching the cache's per-line checksums) — the producer of the
/// merged output's `.crc` sidecar.
///
/// The wrapped stream is byte-identical to the unwrapped one: the merged
/// JSONL is a golden, byte-pinned artifact, so its integrity data rides in
/// a sidecar file instead of inline suffixes.
///
/// ```
/// use rowpress_core::engine::{crc32, CrcLineWriter};
/// use std::io::Write;
///
/// let mut writer = CrcLineWriter::new(Vec::new());
/// writer.write_all(b"alpha\nbravo\n").unwrap();
/// assert_eq!(writer.crcs(), [crc32(b"alpha"), crc32(b"bravo")]);
/// assert_eq!(writer.into_inner(), b"alpha\nbravo\n");
/// ```
#[derive(Debug)]
pub struct CrcLineWriter<W: Write> {
    inner: W,
    line: Crc32,
    crcs: Vec<u32>,
}

impl<W: Write> CrcLineWriter<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> Self {
        CrcLineWriter {
            inner,
            line: Crc32::new(),
            crcs: Vec::new(),
        }
    }

    /// The CRC of each completed line so far, in stream order.
    pub fn crcs(&self) -> &[u32] {
        &self.crcs
    }

    /// The sidecar text: one 8-digit lowercase-hex CRC per completed line,
    /// in stream order.
    pub fn sidecar(&self) -> String {
        self.crcs.iter().map(|crc| format!("{crc:08x}\n")).collect()
    }

    /// Consumes the adapter, returning the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CrcLineWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        for &byte in &buf[..written] {
            if byte == b'\n' {
                self.crcs.push(self.line.finish());
                self.line = Crc32::new();
            } else {
                self.line.update(&[byte]);
            }
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

enum ThreadedMsg {
    // Boxed so the queued message stays pointer-sized next to `Finish`.
    Record(Box<TrialRecord>),
    Finish,
}

/// Hands records to an inner sink on a background writer thread over a
/// bounded channel, so a slow writer never stalls the engine's worker pool —
/// the pool keeps computing while the writer drains the queue. When the
/// queue is full, `accept` blocks (bounded memory; back-pressure instead of
/// unbounded buffering).
///
/// Record order is preserved: the engine feeds records in plan order and the
/// channel is FIFO, so the inner sink sees the byte-identical stream it
/// would have seen inline.
///
/// Inner-sink errors surface on [`ThreadedSink::finish`] (which waits until
/// the queue is fully drained and the inner sink flushed) — or on a later
/// `accept` once the writer thread has stopped. After an error the writer
/// drops further records.
#[derive(Debug)]
pub struct ThreadedSink<S: Sink + Send + 'static> {
    sender: Option<SyncSender<ThreadedMsg>>,
    acks: Receiver<io::Result<()>>,
    writer: Option<JoinHandle<S>>,
}

impl<S: Sink + Send + 'static> ThreadedSink<S> {
    /// Default bound of the record queue.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Spawns the writer thread with the default queue capacity.
    pub fn new(inner: S) -> Self {
        Self::with_capacity(inner, Self::DEFAULT_CAPACITY)
    }

    /// Spawns the writer thread with an explicit queue capacity (clamped to
    /// at least 1).
    pub fn with_capacity(mut inner: S, capacity: usize) -> Self {
        let (sender, receiver) = std::sync::mpsc::sync_channel(capacity.max(1));
        let (ack_tx, acks) = std::sync::mpsc::sync_channel(1);
        let writer = std::thread::spawn(move || {
            let mut failed: Option<io::ErrorKind> = None;
            while let Ok(msg) = receiver.recv() {
                match msg {
                    ThreadedMsg::Record(record) => {
                        if failed.is_none() {
                            if let Err(e) = inner.accept(*record) {
                                failed = Some(e.kind());
                                let _ = ack_tx.send(Err(e));
                            }
                        }
                    }
                    ThreadedMsg::Finish => {
                        let result = match failed {
                            // The error was already queued by the failing
                            // accept; acknowledge the finish itself.
                            Some(kind) => Err(io::Error::from(kind)),
                            None => inner.finish(),
                        };
                        let _ = ack_tx.send(result);
                    }
                }
            }
            inner
        });
        ThreadedSink {
            sender: Some(sender),
            acks,
            writer: Some(writer),
        }
    }

    fn disconnected() -> io::Error {
        io::Error::new(
            io::ErrorKind::BrokenPipe,
            "threaded sink writer thread stopped",
        )
    }

    /// Stops the writer thread and returns the inner sink. Pending records
    /// are drained first. Call [`Sink::finish`] beforehand to observe flush
    /// errors ([`super::Engine::run`] always does).
    pub fn into_inner(mut self) -> S {
        drop(self.sender.take());
        self.writer
            .take()
            .expect("writer thread present until into_inner")
            .join()
            .expect("threaded sink writer must not panic")
    }
}

impl<S: Sink + Send + 'static> Sink for ThreadedSink<S> {
    /// Queues the record, blocking when the channel is full.
    fn accept(&mut self, record: TrialRecord) -> std::io::Result<()> {
        // A prior inner-sink error parks its report in the ack queue; surface
        // it here instead of silently queueing more records.
        if let Ok(result) = self.acks.try_recv() {
            return result;
        }
        let sender = self.sender.as_ref().ok_or_else(Self::disconnected)?;
        sender
            .send(ThreadedMsg::Record(Box::new(record)))
            .map_err(|_| Self::disconnected())
    }

    /// Waits until every queued record reached the inner sink, then flushes
    /// it, returning the first error the writer hit (if any).
    fn finish(&mut self) -> std::io::Result<()> {
        let sender = self.sender.as_ref().ok_or_else(Self::disconnected)?;
        sender
            .send(ThreadedMsg::Finish)
            .map_err(|_| Self::disconnected())?;
        match self.acks.recv() {
            Ok(result) => result,
            Err(_) => Err(Self::disconnected()),
        }
    }
}

impl<S: Sink + Send + 'static> Drop for ThreadedSink<S> {
    fn drop(&mut self) {
        drop(self.sender.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// Parses a JSON Lines stream of [`TrialRecord`]s — the output of
/// [`JsonlSink`] — skipping blank lines. Iterate it record by record, or
/// reassemble a sharded campaign with [`JsonlReader::merge_shards`].
/// (A [`PersistentCache`](super::PersistentCache) file is *not* a plain
/// record stream: it starts with a config-fingerprint header line; open it
/// through `PersistentCache` instead.)
#[derive(Debug)]
pub struct JsonlReader<R> {
    lines: std::io::Lines<R>,
}

impl JsonlReader<BufReader<File>> {
    /// Opens a JSONL file for reading.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the file cannot be opened.
    pub fn from_path(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufReader::new(File::open(path)?)))
    }
}

impl<R: BufRead> JsonlReader<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> Self {
        JsonlReader {
            lines: reader.lines(),
        }
    }

    /// Reads the remaining records into a vector.
    ///
    /// # Errors
    ///
    /// Returns the first read or parse error.
    pub fn read_all(self) -> io::Result<Vec<TrialRecord>> {
        self.collect()
    }

    /// Reads one record stream per shard and merge-sorts them back into plan
    /// order via [`Plan::merge`]: `readers` must hold the outputs of
    /// `plan.shard(0, n) .. plan.shard(n - 1, n)` in shard-index order.
    ///
    /// # Errors
    ///
    /// Returns the first read or parse error of any shard.
    pub fn merge_shards(readers: impl IntoIterator<Item = Self>) -> io::Result<Vec<TrialRecord>> {
        let shards = readers
            .into_iter()
            .map(Self::read_all)
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Plan::merge(shards))
    }
}

impl<R: BufRead> Iterator for JsonlReader<R> {
    type Item = io::Result<TrialRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.lines.next()? {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => {
                    return Some(serde_json::from_str(&line).map_err(io::Error::other));
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lookup_module, Engine, Measurement, Plan, TrialOutcome};
    use super::*;
    use crate::config::ExperimentConfig;
    use rowpress_dram::Time;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::test_scale()
    }

    fn all_variant_plan(cfg: &ExperimentConfig) -> Plan {
        Plan::grid(cfg)
            .module(&lookup_module("S3").unwrap())
            .measurements([
                Measurement::AcMin {
                    t_aggon: Time::from_ms(30.0),
                },
                Measurement::AcMax {
                    t_aggon: Time::from_us(70.2),
                },
                Measurement::TAggOnMin { ac: 10 },
                Measurement::OnOff {
                    delta_a2a: Time::from_ns(6000.0),
                    on_fraction: 0.5,
                },
                Measurement::Retention {
                    duration: Time::from_secs(4.0),
                },
            ])
            .build()
    }

    #[test]
    fn jsonl_round_trips_every_measurement_variant() {
        let cfg = cfg();
        let plan = all_variant_plan(&cfg);
        let engine = Engine::new(&cfg);
        let records = engine.run_collect(&plan).unwrap();

        let mut sink = JsonlSink::new(Vec::new());
        engine.run(&plan, &mut sink).unwrap();
        let bytes = sink.into_inner();
        let lines = String::from_utf8(bytes.clone()).unwrap();
        assert_eq!(lines.lines().count(), records.len());

        // Every Measurement variant must appear, and every line must parse
        // back to the exact record through the JsonlReader.
        let parsed = JsonlReader::new(BufReader::new(&bytes[..]))
            .read_all()
            .unwrap();
        assert_eq!(parsed, records);
        for variant in ["AcMin", "AcMax", "TAggOnMin", "OnOff", "Retention"] {
            assert!(
                lines.contains(variant),
                "JSONL stream must name the {variant} variant"
            );
        }
    }

    #[test]
    fn jsonl_round_trips_every_outcome_variant_including_edge_cases() {
        let cfg = cfg();
        let trial = all_variant_plan(&cfg).trials()[0].clone();
        // Hand-built outcomes cover the optional-field edge cases a real run
        // might not hit (no-flip AcMin, flip-less TAggOnMin).
        let outcomes = [
            TrialOutcome::AcMin {
                ac_min: None,
                ac_max: 1_173_708,
                flips: Vec::new(),
            },
            TrialOutcome::AcMin {
                ac_min: Some(2),
                ac_max: 2,
                flips: Vec::new(),
            },
            TrialOutcome::AcMax {
                ac: 854,
                flips: Vec::new(),
            },
            TrialOutcome::TAggOnMin { t_aggon_min: None },
            TrialOutcome::TAggOnMin {
                t_aggon_min: Some(Time::from_us(70.2)),
            },
            TrialOutcome::OnOff {
                ac: 9_539,
                flips: Vec::new(),
            },
            TrialOutcome::Retention { flips: Vec::new() },
        ];
        for outcome in outcomes {
            let record = TrialRecord {
                trial: trial.clone(),
                outcome,
                wall_us: None,
            };
            let line = serde_json::to_string(&record).unwrap();
            let parsed: TrialRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(parsed, record);
        }
    }

    #[test]
    fn a_92_kb_acmax_line_round_trips_through_sink_and_reader() {
        use rowpress_dram::{BankId, Bitflip, CellAddr, ColumnId, FlipMechanism, RowId};
        let cfg = cfg();
        let trial = all_variant_plan(&cfg).trials()[1].clone();
        // The long lines of a mixed grid are ACmax records listing every
        // flipped cell; about 1 000 flips make a ~92 KB line.
        let flips = (0..1_000u32)
            .map(|i| Bitflip {
                addr: CellAddr {
                    bank: BankId(1),
                    row: RowId(511 + 2 * (i % 2)),
                    column: ColumnId(i * 7),
                },
                from: i % 3 != 0,
                to: i % 3 == 0,
                mechanism: if i % 5 == 0 {
                    FlipMechanism::Press
                } else {
                    FlipMechanism::Hammer
                },
            })
            .collect();
        let record = TrialRecord {
            trial,
            outcome: TrialOutcome::AcMax {
                ac: 1_176_470,
                flips,
            },
            wall_us: None,
        };
        let mut sink = JsonlSink::new(Vec::new());
        sink.accept(record.clone()).unwrap();
        let bytes = sink.into_inner();
        assert!(
            (88_000..96_000).contains(&bytes.len()),
            "line is {} bytes",
            bytes.len()
        );
        let back = JsonlReader::new(BufReader::new(&bytes[..]))
            .read_all()
            .unwrap();
        assert_eq!(back, vec![record]);
    }

    #[test]
    fn jsonl_reader_skips_blank_lines_and_reports_parse_errors() {
        let text = "\n  \n";
        let none = JsonlReader::new(BufReader::new(text.as_bytes()))
            .read_all()
            .unwrap();
        assert!(none.is_empty());
        let bad = "not json\n";
        assert!(JsonlReader::new(BufReader::new(bad.as_bytes()))
            .read_all()
            .is_err());
    }

    #[test]
    fn crc_line_writer_is_transparent_and_tracks_per_line_crcs() {
        use super::super::integrity::crc32;
        let cfg = cfg();
        let plan = all_variant_plan(&cfg);
        let engine = Engine::new(&cfg);
        let baseline = {
            let mut sink = JsonlSink::new(Vec::new());
            engine.run(&plan, &mut sink).unwrap();
            sink.into_inner()
        };
        let mut sink = JsonlSink::new(CrcLineWriter::new(Vec::new()));
        engine.run(&plan, &mut sink).unwrap();
        let writer = sink.into_inner();
        let crcs = writer.crcs().to_vec();
        let sidecar = writer.sidecar();
        let bytes = writer.into_inner();
        assert_eq!(bytes, baseline, "the wrapper must not change the stream");
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(crcs.len(), text.lines().count(), "one CRC per record line");
        for ((line, &crc), sidecar_line) in text.lines().zip(&crcs).zip(sidecar.lines()) {
            assert_eq!(crc32(line.as_bytes()), crc);
            assert_eq!(sidecar_line, format!("{crc:08x}"));
        }
    }

    #[test]
    fn threaded_sink_preserves_the_stream_and_returns_the_inner_sink() {
        let cfg = cfg();
        let plan = all_variant_plan(&cfg);
        let engine = Engine::new(&cfg);
        let baseline = {
            let mut sink = JsonlSink::new(Vec::new());
            engine.run(&plan, &mut sink).unwrap();
            sink.into_inner()
        };
        // A capacity of 1 forces back-pressure on every record.
        for capacity in [1, 4, 1024] {
            let mut sink = ThreadedSink::with_capacity(JsonlSink::new(Vec::new()), capacity);
            engine.run(&plan, &mut sink).unwrap();
            let bytes = sink.into_inner().into_inner();
            assert_eq!(
                bytes, baseline,
                "threaded sink (capacity {capacity}) must be byte-identical"
            );
        }
    }

    #[test]
    fn threaded_sink_surfaces_writer_errors_on_finish() {
        struct FailingSink;
        impl Sink for FailingSink {
            fn accept(&mut self, _record: TrialRecord) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
        }
        let cfg = cfg();
        let plan = all_variant_plan(&cfg);
        let mut sink = ThreadedSink::new(FailingSink);
        let err = Engine::new(&cfg).run(&plan, &mut sink).unwrap_err();
        assert!(
            matches!(err, super::super::EngineError::Sink(_)),
            "writer failure must surface as a sink error, got {err}"
        );
    }

    #[test]
    fn threaded_sink_supports_multiple_runs() {
        let cfg = cfg();
        let plan = all_variant_plan(&cfg);
        let engine = Engine::new(&cfg);
        let mut sink = ThreadedSink::new(MemorySink::new());
        engine.run(&plan, &mut sink).unwrap();
        engine.run(&plan, &mut sink).unwrap();
        let records = sink.into_inner().into_records();
        assert_eq!(records.len(), 2 * plan.len());
    }
}
