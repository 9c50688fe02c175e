//! A campaign's timeline, read from when the lines of the parent's stdout
//! arrive.
//!
//! The parent echoes every shard frame as `[shard N] ##rowpress-shard WORD
//! ...` (over both transports) and prints its own `campaign: ...` lines.
//! [`Timeline::observe`] takes each line with its arrival time in seconds
//! since the parent was spawned; the phase accessors turn those marks into
//! the `proc.*` intervals, each the maximum over shards.

/// The frame word of a `##rowpress-shard` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Word {
    Start,
    Progress {
        done: u64,
    },
    Done,
    /// `hello`, `boot`, `beat`, `fault` and anything newer: liveness only.
    Other,
}

/// One stdout line of `rowpress-campaign run`, classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Line {
    Frame { shard: usize, word: Word },
    Finished { shard: usize },
    Respawning,
    Merged { records: u64 },
    Other,
}

fn parse(line: &str) -> Line {
    if let Some(rest) = line.strip_prefix("[shard ") {
        let Some((shard, frame)) = rest.split_once("] ##rowpress-shard ") else {
            return Line::Other;
        };
        let Ok(shard) = shard.parse() else {
            return Line::Other;
        };
        let mut fields = frame.split(' ');
        let word = match fields.next() {
            Some("start") => Word::Start,
            Some("done") => Word::Done,
            Some("progress") => {
                let done = fields
                    .find_map(|f| f.strip_prefix("done="))
                    .and_then(|n| n.parse().ok());
                match done {
                    Some(done) => Word::Progress { done },
                    None => Word::Other,
                }
            }
            _ => Word::Other,
        };
        return Line::Frame { shard, word };
    }
    let Some(rest) = line.strip_prefix("campaign: ") else {
        return Line::Other;
    };
    if rest.ends_with("respawning") {
        return Line::Respawning;
    }
    if let Some(rest) = rest.strip_prefix("shard ") {
        if let Some((shard, tail)) = rest.split_once(' ') {
            if tail.starts_with("finished") {
                if let Ok(shard) = shard.parse() {
                    return Line::Finished { shard };
                }
            }
        }
        return Line::Other;
    }
    if let Some(rest) = rest.strip_prefix("merged ") {
        if let Some(records) = rest.split(' ').next().and_then(|n| n.parse().ok()) {
            return Line::Merged { records };
        }
    }
    Line::Other
}

/// The marks of one shard, in seconds since spawn.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ShardMarks {
    first_frame: Option<f64>,
    start: Option<f64>,
    first_record: Option<f64>,
    done: Option<f64>,
    finished: Option<f64>,
    /// `done=` of the latest progress frame: records streamed so far.
    records: u64,
}

/// Everything the stdout of one campaign tells about where its time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    shards: Vec<ShardMarks>,
    last_frame: Option<f64>,
    merged: Option<(f64, u64)>,
    respawns: u32,
    exit: Option<f64>,
}

impl Timeline {
    /// Records one stdout line that arrived `at` seconds after spawn.
    pub fn observe(&mut self, at: f64, line: &str) {
        match parse(line) {
            Line::Frame { shard, word } => {
                if self.shards.len() <= shard {
                    self.shards.resize(shard + 1, ShardMarks::default());
                }
                let marks = &mut self.shards[shard];
                marks.first_frame.get_or_insert(at);
                match word {
                    Word::Start => {
                        marks.start.get_or_insert(at);
                    }
                    Word::Progress { done } => {
                        marks.first_record.get_or_insert(at);
                        marks.records = done;
                    }
                    Word::Done => marks.done = Some(at),
                    Word::Other => {}
                }
                self.last_frame = Some(at);
            }
            Line::Finished { shard } => {
                if self.shards.len() <= shard {
                    self.shards.resize(shard + 1, ShardMarks::default());
                }
                self.shards[shard].finished = Some(at);
            }
            Line::Respawning => self.respawns += 1,
            Line::Merged { records } => self.merged = Some((at, records)),
            Line::Other => {}
        }
    }

    /// Marks the parent's exit, `at` seconds after spawn.
    pub fn exited(&mut self, at: f64) {
        self.exit = Some(at);
    }

    /// `respawning` lines seen: any one makes the campaign a failure.
    pub fn respawns(&self) -> u32 {
        self.respawns
    }

    /// Records the shards reported streamed (the latest `progress` count of
    /// each shard, summed).
    pub fn records(&self) -> u64 {
        self.shards.iter().map(|s| s.records).sum()
    }

    /// Records the parent reported merged, if it got that far.
    pub fn merged_records(&self) -> Option<u64> {
        self.merged.map(|(_, n)| n)
    }

    /// Whether every one of `of` shards went through start, done and
    /// finished, and the parent merged: the complete timeline of a
    /// successful campaign.
    pub fn is_complete(&self, of: usize) -> bool {
        self.shards.len() == of
            && self
                .shards
                .iter()
                .all(|s| s.start.is_some() && s.done.is_some() && s.finished.is_some())
            && self.merged.is_some()
            && self.exit.is_some()
    }

    /// Spawn to the last shard's `start` frame: spawn, spec, plan and
    /// preload. `None` until every observed shard started.
    pub fn setup_s(&self) -> Option<f64> {
        self.max_over_shards(|s| s.start)
    }

    /// The last shard frame to exit: teardown, collect, merge and write
    /// (the last frame of a successful campaign is its last `done`).
    pub fn tail_s(&self) -> Option<f64> {
        Some(self.exit? - self.last_frame?)
    }

    /// The `proc.*` intervals in milliseconds, in a fixed order
    /// (see [`PHASES`]); `None` where the campaign never reached both ends.
    pub fn phases_ms(&self) -> [Option<f64>; 7] {
        let last_finished = self.max_over_shards(|s| s.finished);
        let merged = self.merged.map(|(at, _)| at);
        let ms = |s: Option<f64>| s.map(|s| s * 1e3);
        [
            ms(self.max_over_shards(|s| s.first_frame)),
            ms(self.max_over_shards(|s| Some(s.start? - s.first_frame?))),
            ms(self.max_over_shards(|s| Some(s.first_record? - s.start?))),
            ms(self.max_over_shards(|s| Some(s.done? - s.start?))),
            ms(self.max_over_shards(|s| Some(s.finished? - s.done?))),
            ms(merged.zip(last_finished).map(|(m, f)| m - f)),
            ms(self.exit.zip(merged).map(|(e, m)| e - m)),
        ]
    }

    fn max_over_shards(&self, f: impl Fn(&ShardMarks) -> Option<f64>) -> Option<f64> {
        if self.shards.is_empty() {
            return None;
        }
        self.shards
            .iter()
            .map(f)
            .try_fold(f64::NEG_INFINITY, |acc, v| v.map(|v| acc.max(v)))
    }
}

/// Names of [`Timeline::phases_ms`], in order.
pub const PHASES: [&str; 7] = [
    "proc.launch_to_first_frame_ms",
    "proc.first_frame_to_start_ms",
    "proc.start_to_first_record_ms",
    "proc.start_to_done_ms",
    "proc.done_to_finished_ms",
    "proc.finished_to_merged_ms",
    "proc.merged_to_exit_ms",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(lines: &[(f64, &str)], exit: f64) -> Timeline {
        let mut timeline = Timeline::default();
        for (at, line) in lines {
            timeline.observe(*at, line);
        }
        timeline.exited(exit);
        timeline
    }

    fn close(a: Option<f64>, b: f64) -> bool {
        a.is_some_and(|a| (a - b).abs() < 1e-9)
    }

    #[test]
    fn local_transport_lines_give_every_phase() {
        let t = feed(
            &[
                (0.001, "campaign \"x\": 4 trials across 2 shard(s), out-dir d"),
                (0.010, "[shard 1] ##rowpress-shard boot index=1"),
                (0.012, "[shard 0] ##rowpress-shard boot index=0"),
                (0.050, "[shard 0] ##rowpress-shard start index=0 of=2 total=2 preloaded=0"),
                (0.060, "[shard 1] ##rowpress-shard start index=1 of=2 total=2 preloaded=2"),
                (0.070, "[shard 0] ##rowpress-shard beat computed_live=1 replayed_live=0 busy_us=9 idle_us=0 queue_peak=1 degraded=0"),
                (0.080, "[shard 0] ##rowpress-shard progress done=1 total=2 computed=2 replayed=0"),
                (0.090, "[shard 1] ##rowpress-shard progress done=1 total=2 computed=0 replayed=1"),
                (0.100, "[shard 1] ##rowpress-shard progress done=2 total=2 computed=0 replayed=2"),
                (0.110, "[shard 0] ##rowpress-shard progress done=2 total=2 computed=2 replayed=0"),
                (0.120, "[shard 1] ##rowpress-shard done total=2 computed=0 replayed=2 degraded=0"),
                (0.130, "[shard 0] ##rowpress-shard done total=2 computed=2 replayed=0 degraded=0"),
                (0.400, "campaign: shard 0 finished (0 respawn(s))"),
                (0.410, "campaign: shard 1 finished (0 respawn(s))"),
                (0.450, "campaign: merged 4 records into d/merged.jsonl (+ merged.jsonl.crc sidecar)"),
            ],
            0.460,
        );
        assert!(t.is_complete(2));
        assert_eq!(
            (t.records(), t.merged_records(), t.respawns()),
            (4, Some(4), 0)
        );
        assert!(close(t.setup_s(), 0.060));
        assert!(close(t.tail_s(), 0.330));
        let [launch, boot, first_record, run, drain, merge, exit] = t.phases_ms();
        assert!(close(launch, 12.0));
        assert!(close(boot, 50.0)); // shard 1: boot 0.010 -> start 0.060
        assert!(close(first_record, 30.0));
        assert!(close(run, 80.0));
        assert!(close(drain, 290.0)); // shard 1: done 0.120 -> finished 0.410
        assert!(close(merge, 40.0));
        assert!(close(exit, 10.0));
    }

    #[test]
    fn tcp_transport_lines_count_hello_as_the_first_frame() {
        let t = feed(
            &[
                (0.001, "campaign: collector listening on 127.0.0.1:41673"),
                (
                    0.020,
                    "[shard 0] ##rowpress-shard hello index=0 of=2 incarnation=0",
                ),
                (
                    0.021,
                    "[shard 1] ##rowpress-shard hello index=1 of=2 incarnation=0",
                ),
                (0.022, "[shard 1] ##rowpress-shard boot index=1"),
                (
                    0.030,
                    "[shard 0] ##rowpress-shard start index=0 of=2 total=1 preloaded=0",
                ),
                (
                    0.031,
                    "[shard 1] ##rowpress-shard start index=1 of=2 total=1 preloaded=0",
                ),
                (
                    0.040,
                    "[shard 0] ##rowpress-shard progress done=1 total=1 computed=1 replayed=0",
                ),
                (
                    0.041,
                    "[shard 1] ##rowpress-shard progress done=1 total=1 computed=1 replayed=0",
                ),
                (
                    0.050,
                    "[shard 0] ##rowpress-shard done total=1 computed=1 replayed=0 degraded=0",
                ),
                (
                    0.051,
                    "[shard 1] ##rowpress-shard done total=1 computed=1 replayed=0",
                ),
                (0.060, "campaign: shard 0 finished (0 respawn(s))"),
                (0.061, "campaign: shard 1 finished (0 respawn(s))"),
                (
                    0.070,
                    "campaign: merged 2 records into d/merged.jsonl (+ merged.jsonl.crc sidecar)",
                ),
            ],
            0.080,
        );
        assert!(t.is_complete(2));
        assert!(close(t.phases_ms()[0], 21.0));
        assert!(close(t.phases_ms()[1], 10.0));
        assert!(close(t.tail_s(), 0.029));
    }

    #[test]
    fn a_failed_campaign_counts_respawns_and_leaves_missing_phases_empty() {
        let t = feed(
            &[
                (0.020, "[shard 0] ##rowpress-shard hello index=0 of=2 incarnation=0"),
                (0.021, "[shard 1] ##rowpress-shard hello index=1 of=2 incarnation=0"),
                (0.030, "[shard 0] ##rowpress-shard start index=0 of=2 total=9 preloaded=0"),
                (0.031, "[shard 1] ##rowpress-shard start index=1 of=2 total=9 preloaded=0"),
                (0.040, "[shard 0] ##rowpress-shard progress done=5 total=9 computed=5 replayed=0"),
                (0.500, "campaign: shard 0 died, respawning"),
                (0.510, "campaign: shard 1 stalled (30000 ms without a heartbeat), killing and respawning"),
            ],
            0.600,
        );
        assert!(!t.is_complete(2));
        assert_eq!(
            (t.respawns(), t.records(), t.merged_records()),
            (2, 5, None)
        );
        assert!(close(t.setup_s(), 0.031));
        assert!(close(t.tail_s(), 0.560));
        let phases = t.phases_ms();
        assert!(phases[2].is_none(), "shard 1 never streamed a record");
        assert!(phases[3..].iter().all(Option::is_none));
    }

    #[test]
    fn free_form_lines_are_ignored() {
        for line in [
            "[shard 0] a shard's own log line",
            "[shard x] ##rowpress-shard start index=0",
            "campaign: shard 0 degraded — cache persistence disabled, computing on without it",
            "campaign: verified byte-identical to a single-process run (52397 bytes)",
        ] {
            let t = feed(&[(0.1, line)], 0.2);
            assert_eq!(t.setup_s(), None, "{line}");
            assert_eq!((t.respawns(), t.merged_records()), (0, None), "{line}");
        }
    }
}
