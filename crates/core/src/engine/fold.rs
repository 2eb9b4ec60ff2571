//! Flamegraph folding: aggregate per-transaction timelines into a
//! weighted phase → station → activity call-tree, rendered in the
//! collapsed-stack format (`frame;frame;frame weight`) consumed by
//! `flamegraph.pl`, inferno, speedscope and friends.
//!
//! [`FoldSink`] is a [`TraceSink`]: instead of buffering events it
//! attributes the interval between each pair of consecutive events of a
//! transaction to the *earlier* event — the activity the transaction
//! was engaged in during that interval — and accumulates the µs into a
//! stack of the form
//!
//! ```text
//! <root>;<phase>;<station>;<activity>
//! ```
//!
//! where `<phase>` is the commit-processing phase the transaction was
//! in (`exec` until its first commit-protocol event, `vote` until the
//! global decision, `ack` afterwards, resetting to `exec` when an abort
//! restarts the transaction) and `<station>` is the site the opening
//! event ran at (`global` for events without a site, such as the
//! decision milestone). Aggregated over thousands of transactions this
//! shows at a glance where commit latency goes — e.g. 3PC's extra
//! forced write and round trip show up as wide `vote` frames that 2PC
//! simply does not have.
//!
//! The hot path allocates nothing: a stack is keyed by a `Copy` tuple
//! of phase, station and activity (labels as enum values), and its
//! frame strings are rendered only by [`FoldSink::stacks`] and
//! [`FoldSink::render`]. Memory is one counter per distinct stack plus
//! one open interval per traced transaction — not the run length. (The
//! interval a transaction's last event opens has no closing event, so
//! it stays open until [`TraceSink::finish`] drops it; that is one
//! entry per transaction, not per event.)

use super::trace::{LogLabel, MsgLabel, TraceEvent, TraceSink};
use super::types::TxnId;
use crate::workload::SiteId;
use simkernel::SimTime;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiply-rotate hashing for the fold's maps. Their keys
/// are small `Copy` tuples and dense transaction ids made by the
/// engine, not outside input, so SipHash's flooding resistance buys
/// nothing; with it, the `sink/FoldSink::record` micro cell takes about
/// 32 ns per event instead of 13.
#[derive(Default)]
struct FastHasher(u64);

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Commit-processing phase of one transaction, in trace order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    Exec,
    Vote,
    Ack,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Exec => "exec",
            Phase::Vote => "vote",
            Phase::Ack => "ack",
        }
    }
}

/// The leaf frame: what the transaction was doing during an interval,
/// named after the event that opened it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Activity {
    Send(MsgLabel),
    Force(LogLabel),
    Forced(LogLabel),
    Prepared,
    Borrowed,
    Shelved,
    Unshelved,
    Decided { commit: bool },
    Aborted,
    MasterCrashed,
    CohortCrashed,
    CohortRecovered,
    Lost(MsgLabel),
    Retransmit(MsgLabel),
    Termination,
    Failover,
}

impl Activity {
    /// Append the frame's text.
    fn render(self, out: &mut String) {
        let (prefix, label, suffix) = match self {
            Activity::Send(l) => ("send ", l.name(), ""),
            Activity::Force(l) => ("force ", l.name(), ""),
            Activity::Forced(l) => ("forced ", l.name(), ""),
            Activity::Prepared => ("", "prepared", ""),
            Activity::Borrowed => ("", "borrowed", ""),
            Activity::Shelved => ("", "shelved", ""),
            Activity::Unshelved => ("", "unshelved", ""),
            Activity::Decided { commit: true } => ("", "decided commit", ""),
            Activity::Decided { commit: false } => ("", "decided abort", ""),
            Activity::Aborted => ("", "aborted", ""),
            Activity::MasterCrashed => ("", "master crashed", ""),
            Activity::CohortCrashed => ("", "cohort crashed", ""),
            Activity::CohortRecovered => ("", "cohort recovered", ""),
            Activity::Lost(l) => ("", l.name(), " lost"),
            Activity::Retransmit(l) => ("retransmit ", l.name(), ""),
            Activity::Termination => ("", "termination", ""),
            Activity::Failover => ("", "leader failover", ""),
        };
        out.push_str(prefix);
        out.push_str(label);
        out.push_str(suffix);
    }
}

/// One stack below the root: `<phase>;<station>;<activity>`, with
/// station `None` rendered as `global`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Stack {
    phase: Phase,
    station: Option<SiteId>,
    activity: Activity,
}

impl Stack {
    /// The stack an event opens in `phase`: the site it ran at and the
    /// activity it names.
    fn opened_by(phase: Phase, e: &TraceEvent) -> Stack {
        let (station, activity) = match *e {
            TraceEvent::Send { label, from, .. } => (Some(from), Activity::Send(label)),
            TraceEvent::ForceLog { label, site, .. } => (Some(site), Activity::Force(label)),
            TraceEvent::LogDone { label, site, .. } => (Some(site), Activity::Forced(label)),
            TraceEvent::Prepared { site, .. } => (Some(site), Activity::Prepared),
            TraceEvent::Borrowed { .. } => (None, Activity::Borrowed),
            TraceEvent::Shelved { .. } => (None, Activity::Shelved),
            TraceEvent::Unshelved { .. } => (None, Activity::Unshelved),
            TraceEvent::Decided { commit, .. } => (None, Activity::Decided { commit }),
            TraceEvent::Aborted { .. } => (None, Activity::Aborted),
            TraceEvent::MasterCrashed { .. } => (None, Activity::MasterCrashed),
            TraceEvent::CohortCrashed { .. } => (None, Activity::CohortCrashed),
            TraceEvent::CohortRecovered { .. } => (None, Activity::CohortRecovered),
            TraceEvent::MsgLost { label, .. } => (None, Activity::Lost(label)),
            TraceEvent::Retransmitted { label, .. } => (None, Activity::Retransmit(label)),
            TraceEvent::TerminationStarted { .. } => (None, Activity::Termination),
            TraceEvent::FailoverStarted { .. } => (None, Activity::Failover),
        };
        Stack {
            phase,
            station,
            activity,
        }
    }

    /// The full `root;phase;station;activity` line key.
    fn render(self, root: &str) -> String {
        let mut out = String::with_capacity(root.len() + 40);
        out.push_str(root);
        out.push(';');
        out.push_str(self.phase.name());
        out.push(';');
        match self.station {
            Some(site) => {
                let _ = write!(out, "site {site}");
            }
            None => out.push_str("global"),
        }
        out.push(';');
        self.activity.render(&mut out);
        out
    }
}

/// The open interval of one transaction: the stack its time is
/// accruing to and when that interval began.
#[derive(Clone, Copy)]
struct OpenInterval {
    since: SimTime,
    stack: Stack,
}

/// A [`TraceSink`] that folds per-transaction timelines into weighted
/// collapsed stacks. See the module docs for the stack shape.
pub struct FoldSink {
    root: String,
    /// stack → accumulated µs; only stacks that accrued time appear.
    stacks: FastMap<Stack, u64>,
    open: FastMap<TxnId, OpenInterval>,
}

impl FoldSink {
    /// A fold rooted at `root` (conventionally the protocol label, so
    /// folds from different runs can be diffed frame by frame).
    pub fn new(root: impl Into<String>) -> Self {
        FoldSink {
            root: root.into(),
            stacks: FastMap::default(),
            open: FastMap::default(),
        }
    }

    /// True when an event belongs to transaction execution rather than
    /// commit processing: cohort setup and the work-done report.
    fn is_exec_event(e: &TraceEvent) -> bool {
        matches!(
            e,
            TraceEvent::Send {
                label: MsgLabel::InitCohort | MsgLabel::WorkDone,
                ..
            }
        )
    }

    /// Accumulated stacks (stack line → µs), rendered and sorted by
    /// stack line.
    pub fn stacks(&self) -> BTreeMap<String, u64> {
        let mut sorted = BTreeMap::new();
        for (stack, weight) in &self.stacks {
            *sorted.entry(stack.render(&self.root)).or_insert(0) += weight;
        }
        sorted
    }

    /// Render the fold in collapsed-stack format: one
    /// `frame;frame;frame weight` line per stack, sorted by stack,
    /// weights in µs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (stack, weight) in self.stacks() {
            let _ = writeln!(out, "{stack} {weight}");
        }
        out
    }
}

impl TraceSink for FoldSink {
    fn record(&mut self, event: &TraceEvent) {
        let at = event.at();
        let open = self.open.entry(event.txn());
        let prev_phase = match &open {
            std::collections::hash_map::Entry::Occupied(o) => {
                let prev = *o.get();
                let weight = at.since(prev.since).as_micros();
                if weight > 0 {
                    *self.stacks.entry(prev.stack).or_insert(0) += weight;
                }
                Some(prev.stack.phase)
            }
            std::collections::hash_map::Entry::Vacant(_) => None,
        };
        let phase = match event {
            // The restart that follows an abort begins a fresh
            // execution phase.
            TraceEvent::Aborted { .. } => Phase::Exec,
            TraceEvent::Decided { .. } => Phase::Ack,
            e => {
                let prev = prev_phase.unwrap_or(Phase::Exec);
                if prev == Phase::Exec && !Self::is_exec_event(e) {
                    Phase::Vote
                } else {
                    prev
                }
            }
        };
        let next = OpenInterval {
            since: at,
            stack: Stack::opened_by(phase, event),
        };
        open.insert_entry(next);
    }

    fn finish(&mut self) {
        // Open tails have no end point; drop them so the fold only
        // contains fully-delimited intervals.
        self.open.clear();
    }
}

/// The fold as it was before stacks were keyed by value: two frame
/// `String`s per event and a `format!`ed key into a `String`-keyed map.
/// Kept as the reference the differential tests hold [`FoldSink`] to.
#[cfg(test)]
mod reference {
    use super::super::trace::{MsgLabel, TraceEvent};
    use super::super::types::TxnId;
    use super::Phase;
    use simkernel::SimTime;
    use std::collections::{BTreeMap, HashMap};

    pub(super) struct StringFold {
        root: String,
        pub(super) stacks: BTreeMap<String, u64>,
        open: HashMap<TxnId, (SimTime, Phase, String, String)>,
    }

    impl StringFold {
        pub(super) fn new(root: &str) -> Self {
            StringFold {
                root: root.to_string(),
                stacks: BTreeMap::new(),
                open: HashMap::new(),
            }
        }

        fn frames(e: &TraceEvent) -> (String, String) {
            let global = |a: &str| ("global".to_string(), a.to_string());
            match e {
                TraceEvent::Send { label, from, .. } => {
                    (format!("site {from}"), format!("send {label:?}"))
                }
                TraceEvent::ForceLog { label, site, .. } => {
                    (format!("site {site}"), format!("force {label:?}"))
                }
                TraceEvent::LogDone { label, site, .. } => {
                    (format!("site {site}"), format!("forced {label:?}"))
                }
                TraceEvent::Prepared { site, .. } => {
                    (format!("site {site}"), "prepared".to_string())
                }
                TraceEvent::Borrowed { .. } => global("borrowed"),
                TraceEvent::Shelved { .. } => global("shelved"),
                TraceEvent::Unshelved { .. } => global("unshelved"),
                TraceEvent::Decided { commit: true, .. } => global("decided commit"),
                TraceEvent::Decided { commit: false, .. } => global("decided abort"),
                TraceEvent::Aborted { .. } => global("aborted"),
                TraceEvent::MasterCrashed { .. } => global("master crashed"),
                TraceEvent::CohortCrashed { .. } => global("cohort crashed"),
                TraceEvent::CohortRecovered { .. } => global("cohort recovered"),
                TraceEvent::MsgLost { label, .. } => global(&format!("{label:?} lost")),
                TraceEvent::Retransmitted { label, .. } => global(&format!("retransmit {label:?}")),
                TraceEvent::TerminationStarted { .. } => global("termination"),
                TraceEvent::FailoverStarted { .. } => global("leader failover"),
            }
        }

        pub(super) fn record(&mut self, event: &TraceEvent) {
            let txn = event.txn();
            let at = event.at();
            let prev_phase = self
                .open
                .remove(&txn)
                .map(|(since, phase, station, activity)| {
                    let weight = at.since(since).as_micros();
                    if weight > 0 {
                        let stack = format!("{};{};{station};{activity}", self.root, phase.name());
                        *self.stacks.entry(stack).or_insert(0) += weight;
                    }
                    phase
                });
            let phase = match event {
                TraceEvent::Aborted { .. } => Phase::Exec,
                TraceEvent::Decided { .. } => Phase::Ack,
                e => {
                    let prev = prev_phase.unwrap_or(Phase::Exec);
                    let exec = matches!(
                        e,
                        TraceEvent::Send {
                            label: MsgLabel::InitCohort | MsgLabel::WorkDone,
                            ..
                        }
                    );
                    if prev == Phase::Exec && !exec {
                        Phase::Vote
                    } else {
                        prev
                    }
                }
            };
            let (station, activity) = Self::frames(event);
            self.open.insert(txn, (at, phase, station, activity));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::trace::LogLabel;

    fn send(ts: u64, txn: TxnId, label: MsgLabel) -> TraceEvent {
        TraceEvent::Send {
            at: SimTime(ts),
            txn,
            label,
            from: 0,
            to: 1,
            local: false,
        }
    }

    #[test]
    fn intervals_attribute_to_the_earlier_event() {
        let mut f = FoldSink::new("2PC");
        f.record(&send(0, 1, MsgLabel::InitCohort));
        f.record(&send(100, 1, MsgLabel::WorkDone));
        f.finish();
        // [0,100) belongs to the InitCohort send, in the exec phase;
        // the WorkDone tail is open and dropped.
        let rendered = f.render();
        assert_eq!(rendered, "2PC;exec;site 0;send InitCohort 100\n");
    }

    #[test]
    fn phases_progress_exec_vote_ack() {
        let mut f = FoldSink::new("p");
        f.record(&send(0, 1, MsgLabel::WorkDone)); // exec
        f.record(&send(10, 1, MsgLabel::Prepare)); // vote starts
        f.record(&TraceEvent::Decided {
            at: SimTime(30),
            txn: 1,
            commit: true,
        }); // ack starts
        f.record(&send(60, 1, MsgLabel::Ack));
        f.record(&send(100, 1, MsgLabel::Ack));
        f.finish();
        let stacks = f.stacks();
        assert_eq!(stacks["p;exec;site 0;send WorkDone"], 10);
        assert_eq!(stacks["p;vote;site 0;send Prepare"], 20);
        assert_eq!(stacks["p;ack;global;decided commit"], 30);
        assert_eq!(stacks["p;ack;site 0;send Ack"], 40);
    }

    #[test]
    fn abort_resets_to_exec_phase() {
        let mut f = FoldSink::new("p");
        f.record(&send(0, 1, MsgLabel::Prepare)); // vote (first commit event)
        f.record(&TraceEvent::Aborted {
            at: SimTime(10),
            txn: 1,
        });
        f.record(&send(30, 1, MsgLabel::InitCohort)); // restart: exec again
        f.record(&send(70, 1, MsgLabel::WorkDone));
        f.finish();
        let stacks = f.stacks();
        assert_eq!(stacks["p;vote;site 0;send Prepare"], 10);
        assert_eq!(stacks["p;exec;global;aborted"], 20);
        assert_eq!(stacks["p;exec;site 0;send InitCohort"], 40);
    }

    #[test]
    fn forced_writes_fold_under_their_site() {
        let mut f = FoldSink::new("p");
        f.record(&TraceEvent::ForceLog {
            at: SimTime(0),
            txn: 1,
            label: LogLabel::Prepare,
            site: 3,
        });
        f.record(&TraceEvent::LogDone {
            at: SimTime(25),
            txn: 1,
            label: LogLabel::Prepare,
            site: 3,
        });
        f.record(&TraceEvent::Decided {
            at: SimTime(40),
            txn: 1,
            commit: true,
        });
        f.finish();
        let stacks = f.stacks();
        assert_eq!(stacks["p;vote;site 3;force Prepare"], 25);
        assert_eq!(stacks["p;vote;site 3;forced Prepare"], 15);
    }

    #[test]
    fn zero_width_intervals_add_no_stack() {
        let mut f = FoldSink::new("p");
        f.record(&send(5, 1, MsgLabel::Prepare));
        f.record(&send(5, 1, MsgLabel::VoteYes));
        f.record(&send(9, 1, MsgLabel::DecisionCommit));
        f.finish();
        // The Prepare interval is zero-width and must not appear.
        assert!(!f.render().contains("send Prepare"));
        assert_eq!(f.stacks()["p;vote;site 0;send VoteYes"], 4);
    }

    /// Random streams over every variant, with sparse and huge txn
    /// ids: stacks and render equal the `String`-keyed reference fold's.
    #[test]
    fn fold_matches_reference_on_random_streams() {
        let mut rng = simkernel::SimRng::new(0xF01D);
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..400 {
            let len = rng.uniform_usize(0, 120);
            let events = crate::engine::trace::random_stream(&mut rng, len);
            kinds.extend(events.iter().map(std::mem::discriminant));
            let mut f = FoldSink::new("root");
            let mut r = reference::StringFold::new("root");
            for e in &events {
                f.record(e);
                r.record(e);
            }
            f.finish();
            assert_eq!(f.stacks(), r.stacks, "events: {events:?}");
            let expected: String = r.stacks.iter().map(|(s, w)| format!("{s} {w}\n")).collect();
            assert_eq!(f.render(), expected);
        }
        assert_eq!(kinds.len(), 16, "every TraceEvent variant generated");
    }

    #[test]
    fn render_is_sorted_and_parseable() {
        let mut f = FoldSink::new("p");
        f.record(&send(0, 2, MsgLabel::WorkDone));
        f.record(&send(7, 2, MsgLabel::Prepare));
        f.record(&send(9, 2, MsgLabel::VoteYes));
        f.finish();
        let rendered = f.render();
        let lines: Vec<&str> = rendered.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        for line in lines {
            let (stack, weight) = line.rsplit_once(' ').expect("stack <weight>");
            assert!(stack.split(';').count() >= 3, "stack {stack}");
            weight.parse::<u64>().expect("numeric weight");
        }
    }
}
