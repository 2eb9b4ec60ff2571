//! Observers: everything that watches a run without steering it. The
//! simulation is generic over its [`Observer`], whose hooks default to
//! no-ops, so a run observed by `()` compiles to the bare event loop.
//! Hooks see the run only through `&`-references ([`RunView`]), so no
//! observer can perturb it. Observers compose as tuples and `Option<O>`.

use std::time::Instant;

use simkernel::SimTime;

use super::trace::{TraceEvent, TraceSink};
use super::types::TxnId;
use super::Site;
use crate::metrics::Metrics;

/// Identity of a run, given to [`Observer::on_start`].
pub struct RunStart<'a> {
    /// Protocol name (paper spelling).
    pub protocol: &'a str,
    /// Per-site multiprogramming level.
    pub mpl: u32,
    /// RNG seed of the run.
    pub seed: u64,
    /// Effective sites (CENT merges all sites into one).
    pub sites: usize,
    /// Whether the run has a warm-up phase before measuring.
    pub warmup: bool,
}

/// A read-only view of the running simulation.
pub struct RunView<'a> {
    /// Current simulated time.
    pub now: SimTime,
    pub(crate) metrics: &'a Metrics,
    pub(crate) sites: &'a [Site],
}

/// Where the event loop spends host time, for [`Observer::on_section`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Section {
    /// Popping the next event off the calendar.
    #[default]
    Calendar,
    /// Dispatching an event to its handler.
    Dispatch,
    /// Global deadlock detection, entered from a handler.
    Detection,
    /// The observers' window-boundary hooks.
    Series,
}

/// A watcher of one run. Every hook is a no-op by default.
pub trait Observer {
    /// The run is about to start.
    fn on_start(&mut self, _run: &RunStart<'_>) {}

    /// Whether [`Observer::on_event`] wants the trace events of
    /// transaction `txn`; the engine builds no event nobody wants.
    fn wants(&self, _txn: TxnId) -> bool {
        false
    }

    /// One trace event of a wanted transaction, in simulation order.
    fn on_event(&mut self, _event: &TraceEvent) {}

    /// A transaction with home site `home` committed.
    fn on_commit(&mut self, _home: usize) {}

    /// The first simulated time at which [`Observer::on_boundary`]
    /// must run.
    fn next_boundary(&self) -> SimTime {
        SimTime(u64::MAX)
    }

    /// The next event, at `view.now`, is at or past
    /// [`Observer::next_boundary`]; called before it is dispatched.
    fn on_boundary(&mut self, _view: &RunView<'_>) {}

    /// The warm-up ends; called just before the counters reset.
    fn on_warmup_end(&mut self, _view: &RunView<'_>) {}

    /// The run is over; called once, before the report is built.
    fn on_finish(&mut self, _view: &RunView<'_>) {}

    /// Host time from here on belongs to `section`.
    fn on_section(&mut self, _section: Section) {}
}

impl Observer for () {}

/// Every trace sink observes every transaction.
impl<S: TraceSink> Observer for S {
    fn wants(&self, _txn: TxnId) -> bool {
        true
    }

    fn on_event(&mut self, event: &TraceEvent) {
        self.record(event);
    }

    fn on_finish(&mut self, _view: &RunView<'_>) {
        self.finish();
    }
}

/// A trace sink that observes only the first `txns` transactions
/// submitted (ids `1..=txns`).
pub struct Prefix<S> {
    /// Highest transaction id observed.
    pub txns: TxnId,
    /// The wrapped sink.
    pub sink: S,
}

impl<S: TraceSink> Observer for Prefix<S> {
    fn wants(&self, txn: TxnId) -> bool {
        txn <= self.txns
    }

    fn on_event(&mut self, event: &TraceEvent) {
        self.sink.record(event);
    }

    fn on_finish(&mut self, _view: &RunView<'_>) {
        self.sink.finish();
    }
}

impl<O: Observer> Observer for Option<O> {
    fn on_start(&mut self, run: &RunStart<'_>) {
        self.iter_mut().for_each(|o| o.on_start(run));
    }

    fn wants(&self, txn: TxnId) -> bool {
        self.as_ref().is_some_and(|o| o.wants(txn))
    }

    fn on_event(&mut self, event: &TraceEvent) {
        self.iter_mut().for_each(|o| o.on_event(event));
    }

    fn on_commit(&mut self, home: usize) {
        self.iter_mut().for_each(|o| o.on_commit(home));
    }

    fn next_boundary(&self) -> SimTime {
        self.as_ref().map_or(SimTime(u64::MAX), O::next_boundary)
    }

    fn on_boundary(&mut self, view: &RunView<'_>) {
        self.iter_mut().for_each(|o| o.on_boundary(view));
    }

    fn on_warmup_end(&mut self, view: &RunView<'_>) {
        self.iter_mut().for_each(|o| o.on_warmup_end(view));
    }

    fn on_finish(&mut self, view: &RunView<'_>) {
        self.iter_mut().for_each(|o| o.on_finish(view));
    }

    fn on_section(&mut self, section: Section) {
        self.iter_mut().for_each(|o| o.on_section(section));
    }
}

/// Tuples observe member by member, in order; a member sees only the
/// trace events it wants and only the boundaries it has reached.
macro_rules! tuple_observer {
    ($($o:ident . $i:tt),+) => {
        impl<$($o: Observer),+> Observer for ($($o,)+) {
            fn on_start(&mut self, run: &RunStart<'_>) {
                $(self.$i.on_start(run);)+
            }

            fn wants(&self, txn: TxnId) -> bool {
                $(self.$i.wants(txn))||+
            }

            fn on_event(&mut self, event: &TraceEvent) {
                $(if self.$i.wants(event.txn()) {
                    self.$i.on_event(event);
                })+
            }

            fn on_commit(&mut self, home: usize) {
                $(self.$i.on_commit(home);)+
            }

            fn next_boundary(&self) -> SimTime {
                SimTime(u64::MAX)$(.min(self.$i.next_boundary()))+
            }

            fn on_boundary(&mut self, view: &RunView<'_>) {
                $(if view.now >= self.$i.next_boundary() {
                    self.$i.on_boundary(view);
                })+
            }

            fn on_warmup_end(&mut self, view: &RunView<'_>) {
                $(self.$i.on_warmup_end(view);)+
            }

            fn on_finish(&mut self, view: &RunView<'_>) {
                $(self.$i.on_finish(view);)+
            }

            fn on_section(&mut self, section: Section) {
                $(self.$i.on_section(section);)+
            }
        }
    };
}

tuple_observer!(A.0, B.1);
tuple_observer!(A.0, B.1, C.2, D.3);

/// Wall-clock section counters of the engine's hot path, filled by
/// [`Profiled`]: disjoint laps of one clock, so `calendar_ns +
/// dispatch_ns + locks_ns + series_ns == total_ns`. The two clock reads
/// per event are not free, so only `distcommit bench` profiles (on
/// dedicated cells, keeping its grid unprofiled).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineProfile {
    /// Events dispatched.
    pub events: u64,
    /// Nanoseconds popping the calendar.
    pub calendar_ns: u64,
    /// Nanoseconds dispatching events, deadlock detection excluded.
    pub dispatch_ns: u64,
    /// Nanoseconds in deadlock detection.
    pub locks_ns: u64,
    /// Nanoseconds in the observers' boundary hooks (closing series
    /// windows): zero without a recorder.
    pub series_ns: u64,
    /// Nanoseconds from the first event to the end of the run.
    pub total_ns: u64,
}

/// The self-profiler: times the event loop's [`Section`]s. Composed
/// beside other observers, e.g. `(Profiled::default(), recorder)`, it
/// charges their boundary hooks to the series section.
#[derive(Debug, Default)]
pub struct Profiled {
    /// The sections timed so far.
    pub profile: EngineProfile,
    section: Section,
    /// Start of the profiled span and of the current lap.
    clock: Option<(Instant, Instant)>,
}

impl Profiled {
    /// Charge the lap since the last switch to the current section, and
    /// switch to `next`.
    fn lap(&mut self, next: Section) {
        let now = Instant::now();
        let (_, lap) = self.clock.get_or_insert((now, now));
        let ns = (now - std::mem::replace(lap, now)).as_nanos() as u64;
        let p = &mut self.profile;
        match std::mem::replace(&mut self.section, next) {
            Section::Calendar => p.calendar_ns += ns,
            Section::Dispatch => p.dispatch_ns += ns,
            Section::Detection => p.locks_ns += ns,
            Section::Series => p.series_ns += ns,
        }
    }
}

impl Observer for Profiled {
    fn on_section(&mut self, section: Section) {
        // Every calendar section pops exactly one event.
        self.profile.events += u64::from(section == Section::Calendar);
        self.lap(section);
    }

    fn on_finish(&mut self, _view: &RunView<'_>) {
        self.lap(self.section);
        if let Some((start, end)) = self.clock {
            self.profile.total_ns = (end - start).as_nanos() as u64;
        }
    }
}
