//! Trace sinks the benchmark installs through `Simulation::run_with_sink`.
//!
//! * [`ByteCounter`] — an `io::Write` that keeps only a byte count, so
//!   the Chrome stream costs its serialization, not a file system.
//! * [`ProtocolCounter`] — exact protocol work counts: remote
//!   messages, forced writes, retransmits, losses and commits.
//! * [`SinkBundle`] — the faults-sinks workload's observers: the
//!   Chrome-JSON stream and the fold sink over every transaction, plus
//!   a [`ProtocolCounter`]. In the traced run each inner `record` call
//!   is timed and aggregated per cell (one total per sink, not one span
//!   per call).

use distdb::engine::{ChromeWriter, FoldSink, TraceEvent, TraceSink};
use std::io;
use std::time::Instant;

/// A writer that discards its input and counts the bytes.
#[derive(Debug, Default)]
pub struct ByteCounter {
    pub bytes: u64,
}

impl io::Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Exact protocol work counters, accumulated from trace events.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolCounter {
    pub remote_msgs: u64,
    pub forced_writes: u64,
    pub retransmits: u64,
    pub msgs_lost: u64,
    pub commits: u64,
}

impl ProtocolCounter {
    pub fn add(&mut self, o: &ProtocolCounter) {
        self.remote_msgs += o.remote_msgs;
        self.forced_writes += o.forced_writes;
        self.retransmits += o.retransmits;
        self.msgs_lost += o.msgs_lost;
        self.commits += o.commits;
    }
}

impl TraceSink for ProtocolCounter {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Send { local: false, .. } => self.remote_msgs += 1,
            TraceEvent::ForceLog { .. } => self.forced_writes += 1,
            TraceEvent::Retransmitted { .. } => self.retransmits += 1,
            TraceEvent::MsgLost { .. } => self.msgs_lost += 1,
            TraceEvent::Decided { commit: true, .. } => self.commits += 1,
            _ => {}
        }
    }
}

/// Host time and call count one sink spent in `record`, for one cell.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecordTime {
    pub calls: u64,
    pub ns: u64,
}

impl RecordTime {
    pub fn add(&mut self, o: &RecordTime) {
        self.calls += o.calls;
        self.ns += o.ns;
    }
}

/// The faults-sinks observers, optionally with per-sink timing.
pub struct SinkBundle {
    chrome: Option<ChromeWriter<ByteCounter>>,
    chrome_error: Option<String>,
    fold: FoldSink,
    pub protocol: ProtocolCounter,
    timed: bool,
    pub chrome_time: RecordTime,
    pub fold_time: RecordTime,
    /// Bytes of Chrome JSON emitted, set by `finish`.
    pub chrome_bytes: u64,
}

impl SinkBundle {
    pub fn new(timed: bool) -> Self {
        SinkBundle {
            chrome: Some(ChromeWriter::new(ByteCounter::default()).expect("counting writer")),
            chrome_error: None,
            fold: FoldSink::new("bench"),
            protocol: ProtocolCounter::default(),
            timed,
            chrome_time: RecordTime::default(),
            fold_time: RecordTime::default(),
            chrome_bytes: 0,
        }
    }

    /// Render the fold sink's collapsed stacks (what `distcommit fold`
    /// prints) and return the rendered size, or the first Chrome
    /// serialization error.
    pub fn into_output(self) -> Result<(u64, u64), String> {
        if let Some(e) = self.chrome_error {
            return Err(format!("chrome stream: {e}"));
        }
        Ok((self.chrome_bytes, self.fold.render().len() as u64))
    }

    fn chrome_event(&mut self, event: &TraceEvent) {
        if let Some(w) = self.chrome.as_mut() {
            if let Err(e) = w.event(event) {
                self.chrome_error = Some(e.to_string());
                self.chrome = None;
            }
        }
    }
}

impl TraceSink for SinkBundle {
    fn record(&mut self, event: &TraceEvent) {
        self.protocol.record(event);
        if self.timed {
            let t0 = Instant::now();
            self.chrome_event(event);
            let t1 = Instant::now();
            self.fold.record(event);
            let t2 = Instant::now();
            self.chrome_time.calls += 1;
            self.chrome_time.ns += (t1 - t0).as_nanos() as u64;
            self.fold_time.calls += 1;
            self.fold_time.ns += (t2 - t1).as_nanos() as u64;
        } else {
            self.chrome_event(event);
            self.fold.record(event);
        }
    }

    fn finish(&mut self) {
        self.fold.finish();
        if let Some(w) = self.chrome.take() {
            match w.finish() {
                Ok(out) => self.chrome_bytes = out.bytes,
                Err(e) => self.chrome_error = Some(e.to_string()),
            }
        }
    }
}
