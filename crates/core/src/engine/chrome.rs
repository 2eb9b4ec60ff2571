//! Chrome trace-event export: serializes trace events into the JSON
//! Array Format understood by `chrome://tracing` and Perfetto.
//!
//! Mapping (see the Trace Event Format spec):
//! - `pid` = transaction id (one "process" lane per transaction),
//! - `tid` = site id (one "thread" row per site within the lane),
//! - `ts`  = simulation time in microseconds (`SimTime` is already
//!   microsecond-granular, so the conversion is the identity),
//! - forced-write issue/durable pairs become `ph:"X"` complete events
//!   with a duration (FIFO-matched per txn/label/site, mirroring the
//!   per-station FIFO log-disk queue),
//! - everything else becomes a thread-scoped instant event (`ph:"i"`,
//!   `s:"t"`),
//! - `ph:"M"` metadata events name each transaction lane, emitted the
//!   first time a transaction appears.
//!
//! The heart of the module is [`ChromeWriter`], an *incremental*
//! serializer: it emits each record as the corresponding event arrives,
//! holding back only forced writes still waiting for their durable
//! notification. That makes it usable both after the fact over a
//! buffered [`Trace`] ([`chrome_trace_json`]) and *during* a run as a
//! [`TraceSink`] ([`ChromeStreamSink`]) with memory bounded by the
//! number of in-flight forces plus one bit per traced transaction —
//! not the number of events. Both paths share
//! every byte of serialization code, so they produce identical output
//! for the same event sequence by construction.
//!
//! Records appear in event order (a complete event is written when its
//! durable notification arrives, stamped with its issue `ts`), not
//! sorted by timestamp; the Chrome/Perfetto importers do not require
//! sorted input.
//!
//! The writer is hand-rolled on `std::io::Write` — no serde — because
//! the repo is dependency-free by charter. Records are written straight
//! into one reused byte buffer, with no `fmt` machinery and no heap
//! allocation per event (the buffer, the lane bitset and the open-force
//! list only grow to their high-water marks). That rests on the
//! static-label rule: every string the writer emits is a `&'static str`
//! piece — a fixed field or phrase, or a
//! [`MsgLabel::name`](super::MsgLabel::name) /
//! [`LogLabel::name`] — or a decimal integer, and none of them contains
//! a character JSON must escape (a unit test checks every piece). A
//! label that could carry such a character would have to go through
//! [`crate::output::escape_json`] first.

use super::trace::{LogLabel, Trace, TraceEvent, TraceSink};
use super::types::TxnId;
use crate::workload::SiteId;
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// Transaction ids below this get a bit in [`ChromeWriter`]'s dense
/// named-lane set (2 MiB at most); larger ids, which the engine never
/// traces, fall back to a hash set.
const DENSE_TXNS: TxnId = 1 << 24;

/// Append `n` in decimal.
fn push_u64(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// A forced write whose durable notification has not arrived yet.
struct OpenForce {
    txn: TxnId,
    label: LogLabel,
    site: SiteId,
    ts: u64,
}

/// Incremental Chrome trace-event JSON serializer.
///
/// Feed it events with [`ChromeWriter::event`] and close the stream
/// with [`ChromeWriter::finish`]. State kept between events is bounded
/// by the simulation, not the run length: the list of forced writes
/// still awaiting their durable notification (at most the number of
/// in-flight log records, ~MPL per site) plus one bit per transaction
/// id seen (for lane-naming metadata; the engine traces a dense prefix
/// of ids, so the bitset is as long as the traced prefix).
pub struct ChromeWriter<W: io::Write> {
    out: W,
    first: bool,
    open_forces: Vec<OpenForce>,
    max_open_forces: usize,
    /// Bit `txn` is set once the lane of `txn < DENSE_TXNS` is named.
    named: Vec<u64>,
    /// Named lanes with ids at or past `DENSE_TXNS`.
    named_sparse: HashSet<TxnId>,
    /// Reused serialization buffer for one record.
    buf: Vec<u8>,
}

impl<W: io::Write> ChromeWriter<W> {
    /// Start a trace stream on `out`, writing the JSON preamble.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        Ok(ChromeWriter {
            out,
            first: true,
            open_forces: Vec::new(),
            max_open_forces: 0,
            named: Vec::new(),
            named_sparse: HashSet::new(),
            buf: Vec::new(),
        })
    }

    /// High-water mark of forced writes held awaiting their durable
    /// notification — the only event-derived buffering the writer does.
    pub fn max_open_forces(&self) -> usize {
        self.max_open_forces
    }

    /// Append a static piece (see the module docs for the rule).
    fn s(&mut self, piece: &'static str) {
        self.buf.extend_from_slice(piece.as_bytes());
    }

    /// Append a decimal integer.
    fn n(&mut self, value: impl Into<u64>) {
        push_u64(&mut self.buf, value.into());
    }

    /// Start a record in the buffer: the separator, then the opening
    /// of its `name` string.
    fn open_name(&mut self) {
        self.buf.clear();
        if !self.first {
            self.buf.push(b',');
        }
        self.first = false;
        self.s("{\"name\":\"");
    }

    /// Close the name and write the fields every event record carries.
    fn fields(&mut self, ph: &'static str, ts: u64, pid: TxnId, tid: SiteId) {
        self.s("\",\"ph\":\"");
        self.s(ph);
        self.s("\",\"ts\":");
        self.n(ts);
        self.s(",\"pid\":");
        self.n(pid);
        self.s(",\"tid\":");
        self.n(tid as u64);
    }

    /// Finish the record under construction as a thread-scoped instant
    /// and write it out.
    fn instant(&mut self, ts: u64, pid: TxnId, tid: SiteId) -> io::Result<()> {
        self.fields("i", ts, pid, tid);
        // Thread-scoped instant: renders as a tick on the row.
        self.s(",\"s\":\"t\"}");
        self.out.write_all(&self.buf)
    }

    /// Finish the record under construction as a forced-write complete
    /// event and write it out.
    fn complete(&mut self, ts: u64, dur: u64, pid: TxnId, site: SiteId) -> io::Result<()> {
        self.fields("X", ts, pid, site);
        self.s(",\"dur\":");
        self.n(dur);
        self.s(",\"args\":{\"site\":");
        self.n(site as u64);
        self.s("}}");
        self.out.write_all(&self.buf)
    }

    /// True the first time `txn` is seen.
    fn first_sight(&mut self, txn: TxnId) -> bool {
        if txn >= DENSE_TXNS {
            return self.named_sparse.insert(txn);
        }
        let (word, bit) = ((txn / 64) as usize, 1u64 << (txn % 64));
        if word >= self.named.len() {
            self.named.resize(word + 1, 0);
        }
        let fresh = self.named[word] & bit == 0;
        self.named[word] |= bit;
        fresh
    }

    /// Name the transaction's lane the first time it appears.
    fn ensure_metadata(&mut self, txn: TxnId) -> io::Result<()> {
        if !self.first_sight(txn) {
            return Ok(());
        }
        self.open_name();
        self.s("process_name\",\"ph\":\"M\",\"pid\":");
        self.n(txn);
        self.s(",\"tid\":0,\"args\":{\"name\":\"txn ");
        self.n(txn);
        self.s("\"}}");
        self.out.write_all(&self.buf)
    }

    /// Serialize one trace event.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    pub fn event(&mut self, e: &TraceEvent) -> io::Result<()> {
        let txn = e.txn();
        self.ensure_metadata(txn)?;
        let (at, tid) = match *e {
            TraceEvent::Send {
                at,
                label,
                from,
                to,
                local,
                ..
            } => {
                self.open_name();
                self.s(label.name());
                if local {
                    self.s(" (local)");
                } else {
                    self.s(" ");
                    self.n(from as u64);
                    self.s("\u{2192}");
                    self.n(to as u64);
                }
                self.fields("i", at.0, txn, from);
                self.s(",\"s\":\"t\",\"args\":{\"from\":");
                self.n(from as u64);
                self.s(",\"to\":");
                self.n(to as u64);
                self.s(if local {
                    ",\"local\":true}}"
                } else {
                    ",\"local\":false}}"
                });
                return self.out.write_all(&self.buf);
            }
            TraceEvent::ForceLog {
                at, label, site, ..
            } => {
                // FIFO-match issue with the durable notification per
                // (txn, label, site): the log disk at each site serves
                // records in order, so the first unmatched issue is
                // always the one completing.
                self.open_forces.push(OpenForce {
                    txn,
                    label,
                    site,
                    ts: at.0,
                });
                self.max_open_forces = self.max_open_forces.max(self.open_forces.len());
                return Ok(());
            }
            TraceEvent::LogDone {
                at, label, site, ..
            } => {
                let matched = self
                    .open_forces
                    .iter()
                    .position(|o| o.txn == txn && o.label == label && o.site == site);
                self.open_name();
                self.s("force ");
                self.s(label.name());
                if let Some(p) = matched {
                    let open = self.open_forces.remove(p);
                    return self.complete(open.ts, at.0.saturating_sub(open.ts), txn, site);
                }
                // Durable record with no traced issue (the issue
                // predated the trace window): keep it as an instant so
                // the event is not silently dropped.
                self.s(" durable");
                (at, site)
            }
            TraceEvent::Prepared {
                at, cohort, site, ..
            } => {
                self.open_name();
                self.s("cohort ");
                self.n(cohort);
                self.s(" PREPARED");
                (at, site)
            }
            TraceEvent::Borrowed {
                at,
                cohort,
                lenders,
                ..
            } => {
                self.open_name();
                self.s("cohort ");
                self.n(cohort);
                self.s(" borrowed (");
                self.n(lenders as u64);
                self.s(" lenders)");
                (at, 0)
            }
            TraceEvent::Shelved { at, cohort, .. } => {
                self.open_name();
                self.s("cohort ");
                self.n(cohort);
                self.s(" shelved");
                (at, 0)
            }
            TraceEvent::Unshelved { at, cohort, .. } => {
                self.open_name();
                self.s("cohort ");
                self.n(cohort);
                self.s(" unshelved");
                (at, 0)
            }
            TraceEvent::Decided { at, commit, .. } => {
                self.open_name();
                self.s(if commit {
                    "GLOBAL COMMIT"
                } else {
                    "GLOBAL ABORT"
                });
                (at, 0)
            }
            TraceEvent::Aborted { at, .. } => {
                self.open_name();
                self.s("aborted");
                (at, 0)
            }
            TraceEvent::MasterCrashed { at, .. } => {
                self.open_name();
                self.s("MASTER CRASH");
                (at, 0)
            }
            TraceEvent::CohortCrashed { at, cohort, .. } => {
                self.open_name();
                self.s("COHORT ");
                self.n(cohort);
                self.s(" CRASH");
                (at, 0)
            }
            TraceEvent::CohortRecovered { at, cohort, .. } => {
                self.open_name();
                self.s("cohort ");
                self.n(cohort);
                self.s(" recovered");
                (at, 0)
            }
            TraceEvent::MsgLost { at, label, .. } => {
                self.open_name();
                self.s(label.name());
                self.s(" lost");
                (at, 0)
            }
            TraceEvent::Retransmitted {
                at, label, attempt, ..
            } => {
                self.open_name();
                self.s("retransmit ");
                self.s(label.name());
                self.s(" #");
                self.n(attempt);
                (at, 0)
            }
            TraceEvent::TerminationStarted {
                at, coordinator, ..
            } => {
                self.open_name();
                self.s("termination (coordinator cohort ");
                self.n(coordinator);
                self.s(")");
                (at, 0)
            }
            TraceEvent::FailoverStarted { at, leader, .. } => {
                self.open_name();
                self.s("leader failover (new leader site ");
                self.n(leader as u64);
                self.s(")");
                (at, leader)
            }
        };
        self.instant(at.0, txn, tid)
    }

    /// Close the stream: an unmatched issue at trace end (force still
    /// in the log queue) becomes a zero-length complete event at its
    /// issue time, then the JSON footer is written. Returns the
    /// underlying writer.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        let leftover = std::mem::take(&mut self.open_forces);
        for o in leftover {
            self.open_name();
            self.s("force ");
            self.s(o.label.name());
            self.s(" (incomplete)");
            self.complete(o.ts, 0, o.txn, o.site)?;
        }
        self.out.write_all(b"]}")?;
        Ok(self.out)
    }
}

/// Serialize a buffered trace to Chrome trace-event JSON (object form,
/// with a `traceEvents` array), loadable in `chrome://tracing` or
/// Perfetto. Delegates to [`ChromeWriter`], so the output is
/// byte-identical to what [`ChromeStreamSink`] writes for the same
/// event sequence.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut w = ChromeWriter::new(Vec::new()).expect("writing to a Vec cannot fail");
    for e in &trace.events {
        w.event(e).expect("writing to a Vec cannot fail");
    }
    let bytes = w.finish().expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("the writer emits UTF-8")
}

/// A [`TraceSink`] that streams Chrome trace-event JSON to a file as
/// the run progresses, with memory bounded by the number of in-flight
/// forced writes rather than the run length.
///
/// I/O errors are latched on first occurrence (the sink goes quiet) and
/// surfaced by [`ChromeStreamSink::into_result`]; a sink cannot return
/// errors from inside the engine's event loop without perturbing the
/// simulation it is observing.
pub struct ChromeStreamSink {
    writer: Option<ChromeWriter<io::BufWriter<std::fs::File>>>,
    events: u64,
    max_open_forces: usize,
    error: Option<io::Error>,
}

impl ChromeStreamSink {
    /// Create (truncating) `path` and write the JSON preamble.
    ///
    /// # Errors
    /// Returns the error if the file cannot be created or written.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let writer = ChromeWriter::new(io::BufWriter::new(file))?;
        Ok(ChromeStreamSink {
            writer: Some(writer),
            events: 0,
            max_open_forces: 0,
            error: None,
        })
    }

    /// Events successfully serialized so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Consume the sink: the number of events written, or the first
    /// I/O error encountered.
    ///
    /// # Errors
    /// Returns the first write error hit during the run, if any.
    pub fn into_result(self) -> io::Result<u64> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.events),
        }
    }
}

impl TraceSink for ChromeStreamSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = self.writer.as_mut() {
            match w.event(event) {
                Ok(()) => {
                    self.events += 1;
                    self.max_open_forces = self.max_open_forces.max(w.max_open_forces());
                }
                Err(e) => self.error = Some(e),
            }
        }
    }

    fn finish(&mut self) {
        if let Some(w) = self.writer.take() {
            self.max_open_forces = self.max_open_forces.max(w.max_open_forces());
            let flushed = w.finish().and_then(|mut out| io::Write::flush(&mut out));
            if let (Err(e), None) = (flushed, self.error.as_ref()) {
                self.error = Some(e);
            }
        }
    }
}

impl ChromeStreamSink {
    /// High-water mark of forced writes buffered while streaming — the
    /// sink's only event-derived memory (see [`ChromeWriter`]).
    pub fn max_open_forces(&self) -> usize {
        self.max_open_forces
    }
}

/// The serializer as it was before the allocation-free rewrite: a
/// `Record` per event with a `format!`ed name, escaped on output, and a
/// hashed set of named lanes. Kept as the reference the differential
/// tests hold [`ChromeWriter`] to, byte for byte.
#[cfg(test)]
mod reference {
    use super::super::trace::{LogLabel, TraceEvent};
    use super::super::types::TxnId;
    use crate::output::escape_json;
    use crate::workload::SiteId;
    use std::collections::HashSet;
    use std::fmt::Write as _;

    struct Record {
        ts: u64,
        dur: Option<u64>,
        ph: char,
        pid: TxnId,
        tid: SiteId,
        name: String,
        args: Vec<(&'static str, String)>,
    }

    impl Record {
        fn instant(ts: u64, pid: TxnId, tid: SiteId, name: String) -> Self {
            Record {
                ts,
                dur: None,
                ph: 'i',
                pid,
                tid,
                name,
                args: Vec::new(),
            }
        }

        fn write_json(&self, out: &mut String) {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
                escape_json(&self.name),
                self.ph,
                self.ts,
                self.pid,
                self.tid
            );
            if let Some(dur) = self.dur {
                let _ = write!(out, ",\"dur\":{dur}");
            }
            if self.ph == 'i' {
                out.push_str(",\"s\":\"t\"");
            }
            if !self.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in self.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":{v}");
                }
                out.push('}');
            }
            out.push('}');
        }
    }

    /// Serialize a whole stream, `finish` included.
    pub(super) fn serialize(events: &[TraceEvent]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let separate = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
        };
        let mut seen: HashSet<TxnId> = HashSet::new();
        let mut open: Vec<(TxnId, LogLabel, SiteId, u64)> = Vec::new();
        for e in events {
            let txn = e.txn();
            if seen.insert(txn) {
                let mut meta = String::new();
                let _ = write!(
                    meta,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{txn},\"tid\":0,\
                     \"args\":{{\"name\":\"txn {txn}\"}}}}"
                );
                separate(&mut out, &mut first);
                out.push_str(&meta);
            }
            let record = match e {
                TraceEvent::Send {
                    at,
                    label,
                    from,
                    to,
                    local,
                    ..
                } => {
                    let name = if *local {
                        format!("{label:?} (local)")
                    } else {
                        format!("{label:?} {from}\u{2192}{to}")
                    };
                    let mut r = Record::instant(at.0, txn, *from, name);
                    r.args = vec![
                        ("from", from.to_string()),
                        ("to", to.to_string()),
                        ("local", local.to_string()),
                    ];
                    r
                }
                TraceEvent::ForceLog {
                    at, label, site, ..
                } => {
                    open.push((txn, *label, *site, at.0));
                    continue;
                }
                TraceEvent::LogDone {
                    at, label, site, ..
                } => {
                    let matched = open
                        .iter()
                        .position(|o| o.0 == txn && o.1 == *label && o.2 == *site);
                    if let Some(p) = matched {
                        let (_, _, _, ts) = open.remove(p);
                        Record {
                            ts,
                            dur: Some(at.0.saturating_sub(ts)),
                            ph: 'X',
                            pid: txn,
                            tid: *site,
                            name: format!("force {label:?}"),
                            args: vec![("site", site.to_string())],
                        }
                    } else {
                        Record::instant(at.0, txn, *site, format!("force {label:?} durable"))
                    }
                }
                TraceEvent::Prepared {
                    at, cohort, site, ..
                } => Record::instant(at.0, txn, *site, format!("cohort {cohort} PREPARED")),
                TraceEvent::Borrowed {
                    at,
                    cohort,
                    lenders,
                    ..
                } => Record::instant(
                    at.0,
                    txn,
                    0,
                    format!("cohort {cohort} borrowed ({lenders} lenders)"),
                ),
                TraceEvent::Shelved { at, cohort, .. } => {
                    Record::instant(at.0, txn, 0, format!("cohort {cohort} shelved"))
                }
                TraceEvent::Unshelved { at, cohort, .. } => {
                    Record::instant(at.0, txn, 0, format!("cohort {cohort} unshelved"))
                }
                TraceEvent::Decided { at, commit, .. } => {
                    let name = if *commit {
                        "GLOBAL COMMIT"
                    } else {
                        "GLOBAL ABORT"
                    };
                    Record::instant(at.0, txn, 0, name.to_string())
                }
                TraceEvent::Aborted { at, .. } => {
                    Record::instant(at.0, txn, 0, "aborted".to_string())
                }
                TraceEvent::MasterCrashed { at, .. } => {
                    Record::instant(at.0, txn, 0, "MASTER CRASH".to_string())
                }
                TraceEvent::CohortCrashed { at, cohort, .. } => {
                    Record::instant(at.0, txn, 0, format!("COHORT {cohort} CRASH"))
                }
                TraceEvent::CohortRecovered { at, cohort, .. } => {
                    Record::instant(at.0, txn, 0, format!("cohort {cohort} recovered"))
                }
                TraceEvent::MsgLost { at, label, .. } => {
                    Record::instant(at.0, txn, 0, format!("{label:?} lost"))
                }
                TraceEvent::Retransmitted {
                    at, label, attempt, ..
                } => Record::instant(at.0, txn, 0, format!("retransmit {label:?} #{attempt}")),
                TraceEvent::TerminationStarted {
                    at, coordinator, ..
                } => Record::instant(
                    at.0,
                    txn,
                    0,
                    format!("termination (coordinator cohort {coordinator})"),
                ),
                TraceEvent::FailoverStarted { at, leader, .. } => Record::instant(
                    at.0,
                    txn,
                    *leader,
                    format!("leader failover (new leader site {leader})"),
                ),
            };
            separate(&mut out, &mut first);
            record.write_json(&mut out);
        }
        for (txn, label, site, ts) in open {
            let r = Record {
                ts,
                dur: Some(0),
                ph: 'X',
                pid: txn,
                tid: site,
                name: format!("force {label:?} (incomplete)"),
                args: vec![("site", site.to_string())],
            };
            separate(&mut out, &mut first);
            r.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::trace::{LogLabel, MsgLabel};
    use simkernel::SimTime;

    /// Every static piece [`ChromeWriter`] emits inside a JSON string
    /// needs no escaping — the rule that lets it skip `escape_json`.
    #[test]
    fn static_label_pieces_need_no_escaping() {
        let labels = MsgLabel::ALL
            .iter()
            .map(|l| l.name())
            .chain(LogLabel::ALL.iter().map(|l| l.name()));
        let phrases = [
            " (local)",
            "\u{2192}",
            "force ",
            " durable",
            " (incomplete)",
            "cohort ",
            " PREPARED",
            " borrowed (",
            " lenders)",
            " shelved",
            " unshelved",
            "GLOBAL COMMIT",
            "GLOBAL ABORT",
            "aborted",
            "MASTER CRASH",
            "COHORT ",
            " CRASH",
            " recovered",
            " lost",
            "retransmit ",
            " #",
            "termination (coordinator cohort ",
            "leader failover (new leader site ",
            ")",
            "process_name",
            "txn ",
        ];
        for piece in labels.chain(phrases) {
            assert_eq!(crate::output::escape_json(piece), piece);
        }
    }

    #[test]
    fn integers_format_like_display() {
        for n in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            push_u64(&mut buf, n);
            assert_eq!(String::from_utf8(buf).unwrap(), n.to_string());
        }
    }

    /// Random streams over every variant, with sparse and huge txn
    /// ids, unmatched durable records and forces left open at `finish`:
    /// the writer's bytes equal the pre-rewrite reference serializer's.
    #[test]
    fn writer_matches_reference_serializer_on_random_streams() {
        let mut rng = simkernel::SimRng::new(0xC4_2043);
        let mut kinds = std::collections::HashSet::new();
        let (mut unmatched_durable, mut incomplete) = (0, 0);
        for _ in 0..400 {
            let len = rng.uniform_usize(0, 120);
            let events = crate::engine::trace::random_stream(&mut rng, len);
            kinds.extend(events.iter().map(std::mem::discriminant));
            let mut w = ChromeWriter::new(Vec::new()).unwrap();
            for e in &events {
                w.event(e).unwrap();
            }
            let actual = String::from_utf8(w.finish().unwrap()).unwrap();
            let expected = reference::serialize(&events);
            assert_eq!(actual, expected, "events: {events:?}");
            unmatched_durable += actual.matches(" durable\"").count();
            incomplete += actual.matches("(incomplete)").count();
        }
        assert_eq!(kinds.len(), 16, "every TraceEvent variant generated");
        assert!(unmatched_durable > 0 && incomplete > 0);
    }

    #[test]
    fn force_pairs_become_complete_events() {
        let tr = Trace {
            events: vec![
                TraceEvent::ForceLog {
                    at: SimTime(100),
                    txn: 1,
                    label: LogLabel::Prepare,
                    site: 2,
                },
                TraceEvent::LogDone {
                    at: SimTime(350),
                    txn: 1,
                    label: LogLabel::Prepare,
                    site: 2,
                },
            ],
        };
        let json = chrome_trace_json(&tr);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":100"));
        assert!(json.contains("\"dur\":250"));
    }

    #[test]
    fn unmatched_force_is_kept() {
        let tr = Trace {
            events: vec![TraceEvent::ForceLog {
                at: SimTime(7),
                txn: 4,
                label: LogLabel::MasterCommit,
                site: 0,
            }],
        };
        let json = chrome_trace_json(&tr);
        assert!(json.contains("incomplete"));
        assert!(json.contains("\"dur\":0"));
    }

    #[test]
    fn sends_map_txn_to_pid_and_site_to_tid() {
        let tr = Trace {
            events: vec![TraceEvent::Send {
                at: SimTime(42),
                txn: 9,
                label: MsgLabel::Prepare,
                from: 3,
                to: 5,
                local: false,
            }],
        };
        let json = chrome_trace_json(&tr);
        assert!(json.contains("\"pid\":9"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"ts\":42"));
        assert!(json.contains("\"s\":\"t\""));
        // Metadata names the transaction lane.
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("txn 9"));
    }

    #[test]
    fn metadata_is_emitted_once_per_txn_at_first_sight() {
        let send = |ts: u64, txn: TxnId| TraceEvent::Send {
            at: SimTime(ts),
            txn,
            label: MsgLabel::Prepare,
            from: 0,
            to: 1,
            local: false,
        };
        let tr = Trace {
            events: vec![send(1, 7), send(2, 3), send(3, 7)],
        };
        let json = chrome_trace_json(&tr);
        assert_eq!(json.matches("\"txn 7\"").count(), 1);
        assert_eq!(json.matches("\"txn 3\"").count(), 1);
        // First sight order: txn 7's lane is named before txn 3's.
        assert!(json.find("\"txn 7\"").unwrap() < json.find("\"txn 3\"").unwrap());
    }

    #[test]
    fn incremental_writer_matches_batch_function() {
        let tr = Trace {
            events: vec![
                TraceEvent::ForceLog {
                    at: SimTime(10),
                    txn: 1,
                    label: LogLabel::Prepare,
                    site: 0,
                },
                TraceEvent::Send {
                    at: SimTime(15),
                    txn: 2,
                    label: MsgLabel::VoteYes,
                    from: 1,
                    to: 0,
                    local: false,
                },
                TraceEvent::LogDone {
                    at: SimTime(20),
                    txn: 1,
                    label: LogLabel::Prepare,
                    site: 0,
                },
                TraceEvent::Decided {
                    at: SimTime(25),
                    txn: 1,
                    commit: true,
                },
            ],
        };
        let mut w = ChromeWriter::new(Vec::new()).unwrap();
        for e in &tr.events {
            w.event(e).unwrap();
        }
        let incremental = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(incremental, chrome_trace_json(&tr));
        // The X record for the force is stamped with its issue time
        // even though it is written at durable time.
        assert!(incremental.contains("\"ts\":10"));
        assert!(incremental.contains("\"dur\":10"));
    }

    #[test]
    fn open_force_high_water_mark_is_tracked() {
        let mut w = ChromeWriter::new(Vec::new()).unwrap();
        for site in 0..4 {
            w.event(&TraceEvent::ForceLog {
                at: SimTime(site as u64),
                txn: 1,
                label: LogLabel::Prepare,
                site,
            })
            .unwrap();
        }
        for site in 0..4 {
            w.event(&TraceEvent::LogDone {
                at: SimTime(10 + site as u64),
                txn: 1,
                label: LogLabel::Prepare,
                site,
            })
            .unwrap();
        }
        assert_eq!(w.max_open_forces(), 4);
        w.finish().unwrap();
    }
}
