//! Windowed time-series telemetry: the fourth streaming sink family.
//!
//! A [`SeriesRecorder`] tiles simulated time into fixed-width windows
//! and, at each boundary, emits the *delta* of the run's counters over
//! the window — committed/aborted throughput, abort-reason mix, block
//! ratio, lock-wait time, per-class message and retransmit counts —
//! plus, optionally, a per-site breakdown (per-site commits and
//! instantaneous resource queue depths) so skewed runs show where load
//! concentrates.
//!
//! Two properties make the series trustworthy rather than merely
//! decorative:
//!
//! 1. **Exact aggregation.** A partial window is force-closed at the
//!    warm-up reset instant, so measured windows (`measured: true`)
//!    tile exactly over the measurement interval. Counter deltas then
//!    sum to the `SimReport` totals *by construction*, and the
//!    blocked/live time integrals telescope, so the weighted window
//!    block ratios reproduce the report's block ratio bit for bit (see
//!    the cross-check test in `tests/series.rs`).
//! 2. **Bounded memory.** Like the Chrome/fold sinks, the recorder can
//!    stream each closed window straight to a writer (CSV or JSON)
//!    instead of buffering; the streamed bytes are identical to the
//!    buffered render because both go through the same row renderers.
//!
//! The recorder is an [`Observer`]: it reads the engine's counters
//! through a read-only view and keeps its own per-site commit tallies,
//! so a run it watches reports bit-identical metrics to one without.

use std::io::{self, Write as IoWrite};

use simkernel::{SimDuration, SimTime};

use super::{Observer, RunStart, RunView};

/// Configuration for windowed series collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesConfig {
    /// Window width in simulated time.
    pub window: SimDuration,
    /// Record a per-site breakdown in every window.
    pub per_site: bool,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        SeriesConfig {
            window: SeriesConfig::DEFAULT_WINDOW,
            per_site: false,
        }
    }
}

impl SeriesConfig {
    /// Default window width: 5 simulated seconds — coarse enough that
    /// a default-length run yields a handful of windows, fine enough
    /// to see ramp-up and fault bursts.
    pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_secs(5);
}

/// Serialization format for series output (the `table` report format
/// has no meaningful series rendering, so this is narrower than
/// [`crate::metrics::ReportFormat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesFormat {
    /// One row per window (plus one per site in per-site mode).
    Csv,
    /// A single JSON document with a `windows` array.
    Json,
}

/// Per-site observations inside one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSample {
    /// Effective site index.
    pub site: usize,
    /// Transactions with this home site committed inside the window.
    pub committed: u64,
    /// Jobs waiting (not in service) at the site CPU when the window
    /// closed — an instantaneous sample, not a time average.
    pub cpu_queued: u64,
    /// Jobs waiting across the site's data disks at window close.
    pub data_disk_queued: u64,
    /// Writes waiting across the site's log disks (or group-commit
    /// batchers) at window close.
    pub log_queued: u64,
}

/// One closed window of the series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesWindow {
    /// Window ordinal, starting at 0.
    pub index: u64,
    /// Window start (inclusive), simulated time.
    pub start: SimTime,
    /// Window end (exclusive), simulated time.
    pub end: SimTime,
    /// True for windows after the warm-up reset: exactly these windows
    /// tile the measurement interval and sum to the report aggregates.
    pub measured: bool,
    /// Commits inside the window.
    pub committed: u64,
    /// Deadlock-victim aborts inside the window.
    pub aborted_deadlock: u64,
    /// Surprise-vote aborts inside the window.
    pub aborted_surprise: u64,
    /// Borrower-cascade aborts inside the window.
    pub aborted_borrower: u64,
    /// Execution-phase messages sent inside the window.
    pub exec_messages: u64,
    /// Commit-phase messages sent inside the window.
    pub commit_messages: u64,
    /// Retransmissions inside the window.
    pub retransmissions: u64,
    /// Messages lost inside the window.
    pub messages_lost: u64,
    /// Blocked-transaction integral over the window, in
    /// transaction-seconds — the lock-wait time spent inside the
    /// window summed over all transactions.
    pub lock_wait_s: f64,
    /// Live-transaction integral over the window, transaction-seconds.
    pub live_s: f64,
    /// `lock_wait_s / live_s` — the window's block ratio (0 when no
    /// live time was accumulated).
    pub block_ratio: f64,
    /// Per-site breakdown; empty unless per-site mode is on.
    pub per_site: Vec<SiteSample>,
}

impl SeriesWindow {
    /// Window width in seconds.
    pub fn width_s(&self) -> f64 {
        self.end.since(self.start).as_secs_f64()
    }

    /// Committed transactions per second inside the window.
    pub fn throughput(&self) -> f64 {
        let w = self.width_s();
        if w > 0.0 {
            self.committed as f64 / w
        } else {
            0.0
        }
    }
}

/// Counter values at the last window boundary; deltas against these
/// yield per-window figures.
#[derive(Debug, Clone, Default)]
struct Baselines {
    committed: u64,
    aborted_deadlock: u64,
    aborted_surprise: u64,
    aborted_borrower: u64,
    exec_messages: u64,
    commit_messages: u64,
    retransmissions: u64,
    messages_lost: u64,
    blocked_area: f64,
    live_area: f64,
    site_commits: Vec<u64>,
}

/// Identity of the run a series belongs to, carried into the output
/// header.
#[derive(Debug, Clone, Default)]
pub struct SeriesMeta {
    /// Protocol name (paper spelling).
    pub protocol: String,
    /// Per-site multiprogramming level.
    pub mpl: u32,
    /// RNG seed of the run.
    pub seed: u64,
    /// Configured window width, seconds.
    pub window_s: f64,
    /// Whether per-site samples were recorded.
    pub per_site: bool,
}

enum Output {
    Buffer(Vec<SeriesWindow>),
    Stream {
        writer: Box<dyn IoWrite + Send>,
        format: SeriesFormat,
        /// The first write error; the stream goes quiet after it.
        error: Option<io::Error>,
    },
}

/// The windowed-series observer. Windows close lazily as events cross
/// boundaries, plus one forced partial close at the warm-up reset so
/// measured windows tile the measurement interval exactly. Pass it to
/// [`super::Simulation::run_observed`] and take the result with
/// [`SeriesRecorder::into_series`].
pub struct SeriesRecorder {
    window: SimDuration,
    measured: bool,
    window_start: SimTime,
    next_boundary: SimTime,
    index: u64,
    base: Baselines,
    /// Cumulative per-home-site commit counts, bumped by the engine at
    /// each commit decision; zeroed at the warm-up reset.
    site_commits: Vec<u64>,
    meta: SeriesMeta,
    out: Output,
}

impl SeriesRecorder {
    /// A recorder that keeps every closed window in memory.
    pub fn buffered(cfg: &SeriesConfig) -> Self {
        assert!(!cfg.window.is_zero(), "series window must be positive");
        SeriesRecorder {
            window: cfg.window,
            measured: true,
            window_start: SimTime::ZERO,
            next_boundary: SimTime(cfg.window.as_micros()),
            index: 0,
            base: Baselines::default(),
            site_commits: Vec::new(),
            meta: SeriesMeta {
                window_s: cfg.window.as_secs_f64(),
                per_site: cfg.per_site,
                ..SeriesMeta::default()
            },
            out: Output::Buffer(Vec::new()),
        }
    }

    /// A recorder that streams each closed window to `writer` as the
    /// run progresses, byte-identical to rendering the buffered series
    /// in `format`. The first write error is latched (the stream goes
    /// quiet, the run goes on) and returned by
    /// [`SeriesRecorder::into_series`].
    pub fn streaming(
        cfg: &SeriesConfig,
        writer: Box<dyn IoWrite + Send>,
        format: SeriesFormat,
    ) -> Self {
        SeriesRecorder {
            out: Output::Stream {
                writer,
                format,
                error: None,
            },
            ..Self::buffered(cfg)
        }
    }

    /// The finished series (its windows are empty when streamed), or
    /// the first error the stream hit.
    ///
    /// # Errors
    /// Returns the first write or flush error of a streaming recorder.
    pub fn into_series(self) -> io::Result<Series> {
        let windows = match self.out {
            Output::Buffer(w) => w,
            Output::Stream { error: Some(e), .. } => return Err(e),
            Output::Stream { .. } => Vec::new(),
        };
        Ok(Series {
            meta: self.meta,
            windows,
        })
    }

    /// Close the current window at `end`.
    fn close_at(&mut self, end: SimTime, view: &RunView<'_>) {
        let (metrics, sites) = (view.metrics, view.sites);
        let blocked_area = metrics.blocked_txns.integral_seconds(end);
        let live_area = metrics.live_txns.integral_seconds(end);
        let lock_wait_s = blocked_area - self.base.blocked_area;
        let live_s = live_area - self.base.live_area;
        let delta = |cur: u64, base: &mut u64| {
            let d = cur - *base;
            *base = cur;
            d
        };
        let per_site = if self.meta.per_site {
            sites
                .iter()
                .enumerate()
                .map(|(i, site)| SiteSample {
                    site: i,
                    committed: delta(self.site_commits[i], &mut self.base.site_commits[i]),
                    cpu_queued: site.cpu.queued() as u64,
                    data_disk_queued: site.data_disks.iter().map(|d| d.queued() as u64).sum(),
                    log_queued: match site.batched_logs.as_ref() {
                        Some(bs) => bs.iter().map(|b| b.queued() as u64).sum(),
                        None => site.log_disks.iter().map(|d| d.queued() as u64).sum(),
                    },
                })
                .collect()
        } else {
            Vec::new()
        };
        let w = SeriesWindow {
            index: self.index,
            start: self.window_start,
            end,
            measured: self.measured,
            committed: delta(metrics.committed.get(), &mut self.base.committed),
            aborted_deadlock: delta(
                metrics.aborted_deadlock.get(),
                &mut self.base.aborted_deadlock,
            ),
            aborted_surprise: delta(
                metrics.aborted_surprise.get(),
                &mut self.base.aborted_surprise,
            ),
            aborted_borrower: delta(
                metrics.aborted_borrower.get(),
                &mut self.base.aborted_borrower,
            ),
            exec_messages: delta(metrics.exec_messages.get(), &mut self.base.exec_messages),
            commit_messages: delta(
                metrics.commit_messages.get(),
                &mut self.base.commit_messages,
            ),
            retransmissions: delta(
                metrics.retransmissions.get(),
                &mut self.base.retransmissions,
            ),
            messages_lost: delta(metrics.messages_lost.get(), &mut self.base.messages_lost),
            lock_wait_s,
            live_s,
            block_ratio: if live_s > 0.0 {
                lock_wait_s / live_s
            } else {
                0.0
            },
            per_site,
        };
        self.base.blocked_area = blocked_area;
        self.base.live_area = live_area;
        self.window_start = end;
        self.index += 1;
        self.emit(w);
    }

    fn emit(&mut self, w: SeriesWindow) {
        let chunk = match &mut self.out {
            Output::Buffer(v) => return v.push(w),
            Output::Stream { format, .. } => match format {
                SeriesFormat::Csv => csv_rows(&w),
                // Windows are numbered from 0, so all but the first
                // follow a separator.
                SeriesFormat::Json if w.index > 0 => format!(",{}", json_window(&w)),
                SeriesFormat::Json => json_window(&w),
            },
        };
        self.stream(|w| w.write_all(chunk.as_bytes()));
    }

    /// Apply `io` to the stream unless it already failed. A failure must
    /// not stop the run (its report is still wanted), so the first one
    /// is kept for [`SeriesRecorder::into_series`].
    fn stream(&mut self, io: impl FnOnce(&mut dyn IoWrite) -> io::Result<()>) {
        if let Output::Stream {
            writer,
            error: error @ None,
            ..
        } = &mut self.out
        {
            *error = io(writer).err();
        }
    }
}

impl Observer for SeriesRecorder {
    fn on_start(&mut self, run: &RunStart<'_>) {
        self.meta.protocol = run.protocol.to_string();
        self.meta.mpl = run.mpl;
        self.meta.seed = run.seed;
        // A warmed-up run's first windows are not measured.
        self.measured = !run.warmup;
        self.site_commits = vec![0; run.sites];
        self.base.site_commits = vec![0; run.sites];
        if let Output::Stream { format, .. } = &self.out {
            let header = match format {
                SeriesFormat::Csv => csv_header(),
                SeriesFormat::Json => json_header(&self.meta),
            };
            self.stream(|w| w.write_all(header.as_bytes()));
        }
    }

    fn on_commit(&mut self, home: usize) {
        if let Some(c) = self.site_commits.get_mut(home) {
            *c += 1;
        }
    }

    fn next_boundary(&self) -> SimTime {
        self.next_boundary
    }

    /// Close every window whose boundary is at or before `view.now`,
    /// lazily, just before the first event past a boundary, so a
    /// window's deltas never include effects from beyond its end.
    fn on_boundary(&mut self, view: &RunView<'_>) {
        while view.now >= self.next_boundary {
            let end = self.next_boundary;
            self.close_at(end, view);
            self.next_boundary = SimTime(end.as_micros() + self.window.as_micros());
        }
    }

    /// Force-close the current partial window at the warm-up reset
    /// instant, before the counters reset: the window deltas are taken
    /// against the pre-reset counters, then every baseline is zeroed to
    /// match the reset counters, and window tiling restarts at `now` so
    /// measured windows align with the measurement interval.
    fn on_warmup_end(&mut self, view: &RunView<'_>) {
        let now = view.now;
        if now > self.window_start {
            self.close_at(now, view);
        }
        self.measured = true;
        self.window_start = now;
        self.next_boundary = SimTime(now.as_micros() + self.window.as_micros());
        self.base = Baselines {
            site_commits: vec![0; self.site_commits.len()],
            ..Baselines::default()
        };
        self.site_commits.fill(0);
    }

    /// Close the final partial window, then end and flush the stream.
    fn on_finish(&mut self, view: &RunView<'_>) {
        self.on_boundary(view);
        if view.now > self.window_start {
            self.close_at(view.now, view);
        }
        if let Output::Stream {
            format: SeriesFormat::Json,
            ..
        } = self.out
        {
            self.stream(|w| w.write_all(json_footer().as_bytes()));
        }
        self.stream(|w| w.flush());
    }
}

/// A finished, buffered series: the run identity plus every closed
/// window in order.
#[derive(Debug, Clone)]
pub struct Series {
    /// Run identity (protocol, MPL, seed, window width).
    pub meta: SeriesMeta,
    /// Closed windows in time order. Empty when the run streamed to a
    /// writer instead of buffering.
    pub windows: Vec<SeriesWindow>,
}

impl Series {
    /// Render the whole series in `format` — byte-identical to what
    /// streaming mode writes.
    pub fn render(&self, format: SeriesFormat) -> String {
        match format {
            SeriesFormat::Csv => {
                let mut out = csv_header();
                for w in &self.windows {
                    out.push_str(&csv_rows(w));
                }
                out
            }
            SeriesFormat::Json => {
                let mut out = json_header(&self.meta);
                for (i, w) in self.windows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_window(w));
                }
                out.push_str(&json_footer());
                out
            }
        }
    }
}

fn f(v: f64) -> String {
    format!("{v:.6}")
}

fn csv_header() -> String {
    String::from(
        "window,start_s,end_s,measured,site,committed,aborted_deadlock,aborted_surprise,\
         aborted_borrower,throughput,block_ratio,lock_wait_s,live_s,exec_msgs,commit_msgs,\
         retransmits,lost,cpu_q,data_q,log_q\n",
    )
}

fn csv_rows(w: &SeriesWindow) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let (cpu_q, data_q, log_q) = w.per_site.iter().fold((0, 0, 0), |(c, d, l), s| {
        (c + s.cpu_queued, d + s.data_disk_queued, l + s.log_queued)
    });
    let _ = writeln!(
        out,
        "{},{},{},{},all,{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        w.index,
        f(w.start.as_secs_f64()),
        f(w.end.as_secs_f64()),
        w.measured as u8,
        w.committed,
        w.aborted_deadlock,
        w.aborted_surprise,
        w.aborted_borrower,
        f(w.throughput()),
        f(w.block_ratio),
        f(w.lock_wait_s),
        f(w.live_s),
        w.exec_messages,
        w.commit_messages,
        w.retransmissions,
        w.messages_lost,
        cpu_q,
        data_q,
        log_q,
    );
    for s in &w.per_site {
        // Metrics not tracked per site stay empty rather than
        // rendering misleading zeroes.
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},,,,,,,,,,,,{},{},{}",
            w.index,
            f(w.start.as_secs_f64()),
            f(w.end.as_secs_f64()),
            w.measured as u8,
            s.site,
            s.committed,
            s.cpu_queued,
            s.data_disk_queued,
            s.log_queued,
        );
    }
    out
}

fn json_header(meta: &SeriesMeta) -> String {
    format!(
        "{{\"protocol\":\"{}\",\"mpl\":{},\"seed\":{},\"window_s\":{},\"per_site\":{},\
         \"windows\":[",
        meta.protocol,
        meta.mpl,
        meta.seed,
        f(meta.window_s),
        meta.per_site
    )
}

fn json_window(w: &SeriesWindow) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"window\":{},\"start_s\":{},\"end_s\":{},\"measured\":{},\"committed\":{},\
         \"aborted_deadlock\":{},\"aborted_surprise\":{},\"aborted_borrower\":{},\
         \"throughput\":{},\"block_ratio\":{},\"lock_wait_s\":{},\"live_s\":{},\
         \"exec_msgs\":{},\"commit_msgs\":{},\"retransmits\":{},\"lost\":{}",
        w.index,
        f(w.start.as_secs_f64()),
        f(w.end.as_secs_f64()),
        w.measured,
        w.committed,
        w.aborted_deadlock,
        w.aborted_surprise,
        w.aborted_borrower,
        f(w.throughput()),
        f(w.block_ratio),
        f(w.lock_wait_s),
        f(w.live_s),
        w.exec_messages,
        w.commit_messages,
        w.retransmissions,
        w.messages_lost,
    );
    if !w.per_site.is_empty() {
        out.push_str(",\"sites\":[");
        for (i, s) in w.per_site.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"site\":{},\"committed\":{},\"cpu_q\":{},\"data_q\":{},\"log_q\":{}}}",
                s.site, s.committed, s.cpu_queued, s.data_disk_queued, s.log_queued
            );
        }
        out.push(']');
    }
    out.push('}');
    out
}

fn json_footer() -> String {
    String::from("]}")
}
