//! The distributed-DBMS simulation engine.
//!
//! One [`Simulation`] is one run of the closed queueing model of §4 of
//! the paper under a chosen commit protocol: `MPL` transactions per
//! site, master/cohort execution, strict 2PL with immediate global
//! deadlock detection, and the full message/forced-write choreography
//! of the selected protocol (2PC, PA, PC, 3PC, the OPT variants, or
//! the CENT/DPCC baselines).
//!
//! The engine is event-driven and deterministic: given the same
//! configuration, protocol, and seed it reproduces the same metrics
//! bit for bit.

pub mod chrome;
mod commit;
mod exec;
pub mod fold;
mod glog;
mod observe;
pub mod series;
#[cfg(test)]
mod tests;
pub mod trace;
mod types;

pub use chrome::{chrome_trace_json, ChromeStreamSink, ChromeWriter};
pub use fold::FoldSink;
pub use observe::{EngineProfile, Observer, Prefix, Profiled, RunStart, RunView, Section};
pub use series::{
    Series, SeriesConfig, SeriesFormat, SeriesMeta, SeriesRecorder, SeriesWindow, SiteSample,
};
pub use trace::{LogLabel, MsgLabel, Trace, TraceEvent, TraceSink};
pub use types::{CohortId, TxnId};

use crate::config::{ConfigError, ResourceMode, SystemConfig};
use crate::metrics::{
    LatencySummary, Metrics, PhaseLatencies, ResourceReport, ResourceStats, SimReport, Utilizations,
};
use crate::workload::{SiteId, TxnTemplate, WorkloadGenerator};
use commitproto::{ProtocolSpec, Routing, SpecTable};
use distlocks::deadlock::CycleSearch;
use distlocks::{Grant, LockManager, OwnerId};
use simkernel::stats::Tally;
use simkernel::{Calendar, JobClass, SimDuration, SimRng, SimTime, Slab, Station};
use types::{
    Cohort, CohortH, CpuJob, DiskJob, Event, LogWork, Message, MsgKind, Parked, ParkedH, Retry,
    Txn, TxnH,
};

/// Accumulates per-station observations into one [`ResourceStats`] for
/// a resource class *within one site* (utilizations/queue depths
/// averaged across the class's stations, max depth taken over them,
/// occupancy histograms merged — valid because each is a time
/// integral).
#[derive(Default)]
struct ResourceAcc {
    util: f64,
    queue: f64,
    wait_s: f64,
    max_queue: usize,
    occupancy: simkernel::stats::OccupancyHistogram,
    n: usize,
}

impl ResourceAcc {
    fn push(
        &mut self,
        util: f64,
        queue: f64,
        wait_s: f64,
        max_queue: usize,
        occupancy: &simkernel::stats::OccupancyHistogram,
    ) {
        self.util += util;
        self.queue += queue;
        self.wait_s += wait_s;
        self.max_queue = self.max_queue.max(max_queue);
        self.occupancy.merge(occupancy);
        self.n += 1;
    }

    /// Push one station's observations at `now`.
    fn push_station<J>(&mut self, s: &mut Station<J>, now: SimTime) {
        let (util, queue) = (s.utilization(now), s.mean_queue_depth(now));
        let wait_s = s.mean_wait().as_secs_f64();
        self.push(util, queue, wait_s, s.max_queue_depth(), s.occupancy(now));
    }

    fn stats(&self) -> ResourceStats {
        let n = self.n.max(1) as f64;
        ResourceStats {
            utilization: self.util / n,
            mean_queue_depth: self.queue / n,
            max_queue_depth: self.max_queue as u64,
            mean_wait_s: self.wait_s / n,
            queue_depth_p50: self.occupancy.p50() as f64,
            queue_depth_p90: self.occupancy.p90() as f64,
            queue_depth_p99: self.occupancy.p99() as f64,
        }
    }
}

/// One site's physical resources and lock table.
pub(crate) struct Site {
    pub cpu: Station<CpuJob>,
    pub data_disks: Vec<Station<DiskJob>>,
    pub log_disks: Vec<Station<LogWork>>,
    /// Group-commit batchers, one per log disk, when the optimization
    /// is enabled (the plain `log_disks` stations sit unused then).
    pub batched_logs: Option<Vec<glog::BatchedLog>>,
    pub locks: LockManager,
    /// Mirror of the lock table's owner registry: owner slot → cohort
    /// handle, maintained in lock-step with `register_owner` calls.
    pub owner_cohorts: Vec<CohortH>,
    next_log_disk: usize,
}

impl Site {
    /// The cohort registered at lock-owner slot `o`. Valid only while
    /// `o` is registered; the engine only resolves owners surfaced by
    /// the lock table (grants, blockers, borrow edges), which are
    /// always live or recently live — a recycled slot yields a stale
    /// cohort handle that safely misses on slab lookup.
    pub(crate) fn cohort_of(&self, o: OwnerId) -> CohortH {
        self.owner_cohorts[o.index()]
    }
}

/// Recycled per-transaction buffers and the engine's lock-table
/// scratch.
#[derive(Default)]
pub(crate) struct Pools {
    pub templates: Vec<TxnTemplate>,
    pub cohort_lists: Vec<Vec<CohortH>>,
    pub acc_lists: Vec<Vec<u32>>,
    /// Grants of the lock-table change being applied.
    pub grants: Vec<Grant>,
    /// Borrowers of a settling lender, as owners and as cohorts.
    pub owners: Vec<OwnerId>,
    pub borrowers: Vec<CohortH>,
}

/// A run of the simulator, watched by an [`Observer`] `O`. Construct
/// and execute with [`Simulation::run`] or [`Simulation::run_observed`].
pub struct Simulation<O = ()> {
    pub(crate) cfg: SystemConfig,
    pub(crate) spec: ProtocolSpec,
    /// The declarative behaviour table of `spec.base` — the engine is a
    /// generic interpreter of these columns; no code path matches on
    /// the protocol name.
    pub(crate) table: SpecTable,
    pub(crate) wl: WorkloadGenerator,
    pub(crate) cal: Calendar<Event>,
    pub(crate) rng: SimRng,
    pub(crate) sites: Vec<Site>,
    pub(crate) txns: Slab<TxnH, Txn>,
    pub(crate) cohorts: Slab<CohortH, Cohort>,
    next_txn_id: TxnId,
    next_cohort_id: CohortId,
    pub(crate) metrics: Metrics,
    /// All-time committed response times — drives the restart-delay
    /// heuristic ("the length of the delay is equal to the average
    /// transaction response time", §4). Never reset.
    pub(crate) resp_estimate: Tally,
    total_commits: u64,
    commit_target: u64,
    warmup_target: u64,
    done: bool,
    pages_per_site_eff: u64,
    /// Largest cohort access list (§4: `1.5 × CohortSize`); lock owners
    /// reserve room for it up front.
    max_cohort_pages: usize,
    /// Per-site-pair wire latency (flattened row-major `n×n`), built
    /// once from the topology's dedicated RNG stream. `None` without a
    /// topology; zero entries take the classic instantaneous-switch
    /// path, so a degenerate all-zero matrix is byte-identical to no
    /// topology at all.
    wire_latency: Option<Vec<SimDuration>>,
    /// Deadlock-detection scratch (stamps and search buffers) and the
    /// buffer that orders one cohort's blockers by cohort id. Kept on
    /// the simulation so a check allocates nothing in steady state.
    cycle_search: CycleSearch<TxnH>,
    blocker_keys: Vec<(CohortId, TxnH)>,
    /// Restarts waiting out their delay, addressed by `Event::Submit`.
    parked: Slab<ParkedH, Parked>,
    /// Free lists refilled whenever a transaction is forgotten. The
    /// population is closed (MPL per site), so once every list has seen
    /// the largest live population, a run allocates nothing per
    /// transaction.
    pub(crate) pools: Pools,
    /// The run's observer; hooks get `&`-views of the state only.
    obs: O,
}

// The experiment runner fans independent runs out over worker threads:
// everything a worker receives (configuration, protocol spec) and
// returns (the report) must cross thread boundaries, and a whole
// `Simulation` must be constructible on a worker. Compile-time
// assertions so a non-thread-safe field can never sneak in unnoticed.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    const fn send<T: Send>() {}
    send_sync::<SystemConfig>();
    send_sync::<ProtocolSpec>();
    send_sync::<SimReport>();
    send::<Simulation>();
};

impl Simulation {
    /// Run `cfg` under `spec` with the given RNG `seed` and return the
    /// measured report.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid or the spec is
    /// meaningless (OPT over a baseline).
    pub fn run(
        cfg: &SystemConfig,
        spec: ProtocolSpec,
        seed: u64,
    ) -> Result<SimReport, ConfigError> {
        Self::run_observed(cfg, spec, seed, ()).map(|(report, ())| report)
    }

    /// Like [`Simulation::run`], but feeds every trace event of the
    /// first `txns` transactions to `sink` as the run progresses
    /// and hands the sink back with the report. The engine holds no
    /// event buffer of its own, so memory use is whatever the sink
    /// retains — bounded for [`chrome::ChromeStreamSink`] and
    /// [`fold::FoldSink`], the full event vector for [`Trace`].
    ///
    /// # Errors
    /// As [`Simulation::run`].
    pub fn run_with_sink<S: TraceSink>(
        cfg: &SystemConfig,
        spec: ProtocolSpec,
        seed: u64,
        txns: u64,
        sink: S,
    ) -> Result<(SimReport, S), ConfigError> {
        Self::run_observed(cfg, spec, seed, Prefix { txns, sink }).map(|(r, p)| (r, p.sink))
    }

    /// Like [`Simulation::run`], but also collects a windowed metric
    /// time series in memory ([`SeriesRecorder::streaming`] is the
    /// bounded-memory variant).
    ///
    /// # Errors
    /// As [`Simulation::run`].
    pub fn run_with_series(
        cfg: &SystemConfig,
        spec: ProtocolSpec,
        seed: u64,
        series_cfg: &SeriesConfig,
    ) -> Result<(SimReport, Series), ConfigError> {
        let (report, rec) =
            Self::run_observed(cfg, spec, seed, SeriesRecorder::buffered(series_cfg))?;
        let series = rec.into_series().expect("a buffered series does no I/O");
        Ok((report, series))
    }

    /// Run `cfg` under `spec` with the given RNG `seed`, watched by
    /// `obs`, and hand the observer back with the report. Observers see
    /// the run read-only, so the report is bit-identical to
    /// [`Simulation::run`]'s whatever `obs` is.
    ///
    /// # Errors
    /// As [`Simulation::run`].
    pub fn run_observed<O: Observer>(
        cfg: &SystemConfig,
        spec: ProtocolSpec,
        seed: u64,
        obs: O,
    ) -> Result<(SimReport, O), ConfigError> {
        let mut s = Simulation::new(cfg, spec, seed, obs)?;
        s.obs.on_start(&RunStart {
            protocol: s.spec.name(),
            mpl: s.cfg.mpl,
            seed,
            sites: s.sites.len(),
            warmup: s.warmup_target > 0,
        });
        s.execute();
        let (obs, view) = s.observe();
        obs.on_finish(&view);
        let report = build_report(&s.cfg, s.spec, &s.cal, &mut s.metrics, &mut s.sites);
        Ok((report, s.obs))
    }
}

/// Reject configurations the engine cannot run under `spec`, and
/// return the spec's behaviour table.
fn validate(cfg: &SystemConfig, spec: ProtocolSpec) -> Result<SpecTable, ConfigError> {
    cfg.validate()?;
    if !spec.is_valid() {
        return Err(ConfigError::Invalid(
            "OPT cannot be combined with a baseline protocol",
        ));
    }
    let table = spec.base.table();
    if matches!(table.routing, Routing::Chain) {
        if cfg.read_only_optimization {
            return Err(ConfigError::Invalid(
                "the read-only optimization would break the linear-2PC chain",
            ));
        }
        if cfg.failures.is_some() {
            return Err(ConfigError::Invalid(
                "failure injection models the parallel decision point and does not \
                     support chained 2PC",
            ));
        }
    }
    if cfg.replication > 0 && !spec.is_replicated() {
        return Err(ConfigError::Invalid(
            "replication degree requires a replicated protocol (PAXOS or REP2PC)",
        ));
    }
    if spec.is_replicated() {
        if cfg.read_only_optimization {
            return Err(ConfigError::Invalid(
                "the read-only optimization is not modeled for replicated protocols",
            ));
        }
        if 2 * cfg.replication as usize + 1 > cfg.num_sites {
            return Err(ConfigError::Invalid(
                "2F+1 acceptors need at least 2F+1 sites",
            ));
        }
    }
    Ok(table)
}

/// The stations and lock tables of `num_sites` effective sites, each
/// carrying `merge` sites' worth of hardware and pages.
fn build_sites(
    cfg: &SystemConfig,
    spec: ProtocolSpec,
    num_sites: usize,
    merge: usize,
) -> Vec<Site> {
    let cpus = cfg.num_cpus as usize * merge;
    let data_disks = cfg.num_data_disks as usize * merge;
    let log_disks = cfg.num_log_disks as usize * merge;
    let pages_per_site_eff = cfg.pages_per_site() * merge as u64;
    fn station<J>(mode: ResourceMode, servers: usize) -> Station<J> {
        match mode {
            ResourceMode::Finite => Station::finite(servers as u32),
            ResourceMode::Infinite => Station::infinite(),
        }
    }
    (0..num_sites)
        .map(|_| Site {
            cpu: station(cfg.resources, cpus),
            data_disks: (0..data_disks).map(|_| station(cfg.resources, 1)).collect(),
            log_disks: (0..log_disks).map(|_| station(cfg.resources, 1)).collect(),
            batched_logs: match (cfg.group_commit_batch, cfg.resources) {
                (Some(k), ResourceMode::Finite) => {
                    Some((0..log_disks).map(|_| glog::BatchedLog::new(k)).collect())
                }
                // Nothing queues under infinite resources, so
                // batching would never group anything.
                _ => None,
            },
            // Page ids within one effective site are distinct
            // residues modulo `pages_per_site_eff`, so they fold
            // injectively into a dense table of that size.
            locks: LockManager::for_pages(spec.opt, pages_per_site_eff),
            owner_cohorts: Vec::new(),
            next_log_disk: 0,
        })
        .collect()
}

impl<O: Observer> Simulation<O> {
    fn new(cfg: &SystemConfig, spec: ProtocolSpec, seed: u64, obs: O) -> Result<Self, ConfigError> {
        let table = validate(cfg, spec)?;
        let wl = WorkloadGenerator::new(cfg, spec.base);
        let num_sites = wl.effective_sites();
        // CENT merges every site's hardware into one station pool
        // ("equivalent in terms of database size and physical
        // resources", §5.1).
        let merge = cfg.num_sites / num_sites;
        let sites = build_sites(cfg, spec, num_sites, merge);
        let metrics = Metrics::new(
            SimTime::ZERO,
            cfg.run.measured_transactions,
            cfg.run.batches,
        );
        let mut sim = Simulation {
            cfg: cfg.clone(),
            spec,
            table,
            wl,
            cal: Calendar::new(),
            rng: SimRng::new(seed),
            sites,
            txns: Slab::new(),
            cohorts: Slab::new(),
            next_txn_id: 1,
            next_cohort_id: 1,
            metrics,
            resp_estimate: Tally::new(),
            total_commits: 0,
            commit_target: cfg.run.warmup_transactions + cfg.run.measured_transactions,
            warmup_target: cfg.run.warmup_transactions,
            done: false,
            pages_per_site_eff: cfg.pages_per_site() * merge as u64,
            max_cohort_pages: cfg.max_cohort_pages() as usize,
            // Keyed by *effective* sites: CENT's merged site pool has
            // no inter-site links, so its matrix is empty/diagonal.
            wire_latency: cfg.topology.map(|t| t.latency_matrix(num_sites, seed)),
            cycle_search: CycleSearch::new(),
            blocker_keys: Vec::new(),
            parked: Slab::new(),
            pools: Pools::default(),
            obs,
        };
        // Closed system: MPL transactions per (effective) site. The
        // merged CENT site carries the whole population.
        let mpl_per_site = cfg.mpl as usize * merge;
        for home in 0..num_sites {
            for _ in 0..mpl_per_site {
                sim.cal.schedule_now(Event::Submit {
                    home,
                    restart: None,
                });
            }
        }
        Ok(sim)
    }

    /// The run's observer beside a read-only view of the run.
    fn observe(&mut self) -> (&mut O, RunView<'_>) {
        let view = RunView {
            now: self.cal.now(),
            metrics: &self.metrics,
            sites: &self.sites,
        };
        (&mut self.obs, view)
    }

    /// Hand one trace event for `txn` to the observer, if it wants it.
    pub(crate) fn trace_event(&mut self, txn: TxnId, make: impl FnOnce(SimTime) -> TraceEvent) {
        if self.obs.wants(txn) {
            self.obs.on_event(&make(self.cal.now()));
        }
    }

    /// The event loop: pop, cross any observer boundary, dispatch. With
    /// `O = ()` every hook compiles away.
    fn execute(&mut self) {
        while !self.done {
            self.obs.on_section(Section::Calendar);
            let Some((now, event)) = self.cal.next() else {
                // A closed system must never drain its calendar: every
                // transaction always has a pending event, a lock wait
                // whose holder has pending events, or a scheduled
                // restart. A drain is an engine bug.
                panic!(
                    "event calendar drained — stuck state:\n{}",
                    self.dump_stuck()
                );
            };
            if let Some(cap) = self.cfg.run.max_sim_time {
                if now > cap {
                    break;
                }
            }
            if now >= self.obs.next_boundary() {
                self.obs.on_section(Section::Series);
                let (obs, view) = self.observe();
                obs.on_boundary(&view);
            }
            self.obs.on_section(Section::Dispatch);
            self.dispatch(event);
        }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Submit { home, restart } => {
                let restart = restart.map(|h| self.parked.remove(h).expect("parked restart"));
                self.submit_txn(home, restart);
            }
            Event::CpuDone { site, job } => {
                let now = self.cal.now();
                if let Some(started) = self.sites[site].cpu.complete(now) {
                    self.cal.schedule_at(
                        started.done_at,
                        Event::CpuDone {
                            site,
                            job: started.job,
                        },
                    );
                }
                self.handle_cpu_done(site, job);
            }
            Event::DataDiskDone { site, disk, job } => {
                let now = self.cal.now();
                if let Some(started) = self.sites[site].data_disks[disk].complete(now) {
                    self.cal.schedule_at(
                        started.done_at,
                        Event::DataDiskDone {
                            site,
                            disk,
                            job: started.job,
                        },
                    );
                }
                self.handle_data_disk_done(job);
            }
            Event::LogDiskDone { site, disk, job } => {
                let now = self.cal.now();
                if let Some(started) = self.sites[site].log_disks[disk].complete(now) {
                    self.cal.schedule_at(
                        started.done_at,
                        Event::LogDiskDone {
                            site,
                            disk,
                            job: started.job,
                        },
                    );
                }
                if let Some(txn) = self.log_txn(&job) {
                    let label = job.label();
                    self.trace_event(txn, |at| TraceEvent::LogDone {
                        at,
                        txn,
                        label,
                        site,
                    });
                }
                self.handle_log_done(job);
            }
            Event::LogBatchDone { site, disk } => {
                let now = self.cal.now();
                let service = self.cfg.page_disk;
                let batcher = &mut self.sites[site]
                    .batched_logs
                    .as_mut()
                    .expect("batch event implies group commit")[disk];
                let (done, next) = batcher.complete(now, service);
                if let Some(done_at) = next {
                    self.cal
                        .schedule_at(done_at, Event::LogBatchDone { site, disk });
                }
                for work in done {
                    if let Some(txn) = self.log_txn(&work) {
                        let label = work.label();
                        self.trace_event(txn, |at| TraceEvent::LogDone {
                            at,
                            txn,
                            label,
                            site,
                        });
                    }
                    self.handle_log_done(work);
                }
            }
            Event::MasterRecovered { txn, commit } => {
                // The recovered master resumes where the crash hit.
                self.decide_now(txn, commit);
            }
            Event::CohortRecovered { cohort } => self.cohort_recovered(cohort),
            Event::MsgRetry { retry, attempt } => self.handle_msg_retry(retry, attempt),
            Event::StartTermination { txn } => self.start_termination(txn),
            Event::LocalMsg { msg } => self.handle_message(msg),
            Event::MsgArrive { msg } => {
                // Wire flight over: the transfer reaches the receiver's
                // CPU queue and pays the usual receive-side MsgCPU.
                self.cpu_arrive(
                    msg.to,
                    CpuJob::MsgRecv { msg },
                    self.cfg.msg_cpu,
                    JobClass::High,
                );
            }
        }
    }

    fn handle_cpu_done(&mut self, _site: SiteId, job: CpuJob) {
        match job {
            CpuJob::Data { cohort } => self.cohort_page_processed(cohort),
            CpuJob::MsgSend { msg } => {
                if msg.lost {
                    // Fault injection dropped this transfer in the
                    // switch: the sender paid its MsgCPU, the receiver
                    // never sees it. The sender's retransmission timer
                    // is already running.
                    return;
                }
                // Without a topology the network is an instantaneous
                // switch (§4): delivery costs only receive-side CPU.
                // Under one, the transfer additionally spends the site
                // pair's wire latency in flight — pure delay, no extra
                // CPU or messages, so the Tables 3–4 overhead counts
                // are unchanged. Zero-latency pairs take the classic
                // path so the event stream (and byte identity with
                // untopologized runs) is preserved.
                let lat = self.pair_latency(msg.from, msg.to);
                if lat.is_zero() {
                    self.cpu_arrive(
                        msg.to,
                        CpuJob::MsgRecv { msg },
                        self.cfg.msg_cpu,
                        JobClass::High,
                    );
                } else {
                    self.cal.schedule_in(lat, Event::MsgArrive { msg });
                }
            }
            CpuJob::MsgRecv { msg } => self.handle_message(msg),
        }
    }

    fn handle_data_disk_done(&mut self, job: DiskJob) {
        match job {
            DiskJob::Read { cohort } => {
                // The page is in memory; charge `PageCPU` of processing.
                let Some(c) = self.cohorts.get(cohort) else {
                    return;
                };
                let site = c.site;
                self.cpu_arrive(
                    site,
                    CpuJob::Data { cohort },
                    self.cfg.page_cpu,
                    JobClass::Low,
                );
            }
            DiskJob::AsyncWrite => {}
        }
    }

    // ------------------------------------------------------------------
    // Resource plumbing
    // ------------------------------------------------------------------

    pub(crate) fn cpu_arrive(
        &mut self,
        site: SiteId,
        job: CpuJob,
        service: SimDuration,
        class: JobClass,
    ) {
        let now = self.cal.now();
        if let Some(started) = self.sites[site].cpu.arrive(now, job, service, class) {
            self.cal.schedule_at(
                started.done_at,
                Event::CpuDone {
                    site,
                    job: started.job,
                },
            );
        }
    }

    /// Wire latency between two sites: a topology matrix lookup, or
    /// zero (the instantaneous switch) when no topology is configured.
    fn pair_latency(&self, from: SiteId, to: SiteId) -> SimDuration {
        match &self.wire_latency {
            Some(m) => m[from * self.sites.len() + to],
            None => SimDuration::ZERO,
        }
    }

    pub(crate) fn disk_for_page(&self, page: u64) -> usize {
        let local = page % self.pages_per_site_eff;
        (local % self.sites[0].data_disks.len() as u64) as usize
    }

    pub(crate) fn data_disk_arrive(&mut self, site: SiteId, page: u64, job: DiskJob) {
        let now = self.cal.now();
        let disk = self.disk_for_page(page);
        if let Some(started) =
            self.sites[site].data_disks[disk].arrive(now, job, self.cfg.page_disk, JobClass::Low)
        {
            self.cal.schedule_at(
                started.done_at,
                Event::DataDiskDone {
                    site,
                    disk,
                    job: started.job,
                },
            );
        }
    }

    /// The transaction a piece of log work belongs to, as a live
    /// handle; `None` when the owning cohort is already gone.
    pub(crate) fn log_txn_handle(&self, work: &LogWork) -> Option<TxnH> {
        match *work {
            LogWork::CohortPrepare { cohort }
            | LogWork::CohortNoVoteAbort { cohort }
            | LogWork::CohortPrecommit { cohort }
            | LogWork::CohortDecision { cohort, .. } => self.cohorts.get(cohort).map(|c| c.txn),
            LogWork::MasterCollecting { txn }
            | LogWork::MasterPrecommit { txn }
            | LogWork::MasterDecision { txn, .. }
            | LogWork::AcceptorBundle { txn, .. }
            | LogWork::ReplicaDecision { txn, .. } => Some(txn),
        }
    }

    /// The external id of the transaction a piece of log work belongs
    /// to (for tracing). Master-side work always carries a live
    /// transaction: the master's map entry outlives its last log write.
    pub(crate) fn log_txn(&self, work: &LogWork) -> Option<TxnId> {
        self.log_txn_handle(work)
            .and_then(|th| self.txns.get(th))
            .map(|t| t.id)
    }

    /// The transaction a message belongs to, as a live handle; `None`
    /// when the target cohort is already gone.
    pub(crate) fn msg_txn_handle(&self, kind: &MsgKind) -> Option<TxnH> {
        match *kind {
            MsgKind::InitCohort { cohort }
            | MsgKind::Prepare { cohort }
            | MsgKind::PreCommit { cohort }
            | MsgKind::Decision { cohort, .. }
            | MsgKind::TermStateReq { cohort }
            | MsgKind::ChainPrepare { cohort }
            | MsgKind::ChainDecision { cohort, .. } => self.cohorts.get(cohort).map(|c| c.txn),
            MsgKind::WorkDone { txn, .. }
            | MsgKind::Vote { txn, .. }
            | MsgKind::PreAck { txn, .. }
            | MsgKind::Ack { txn, .. }
            | MsgKind::TermStateRep { txn }
            | MsgKind::ChainBack { txn, .. }
            | MsgKind::PaxosVote { txn, .. }
            | MsgKind::Accepted { txn, .. }
            | MsgKind::RepDecision { txn, .. }
            | MsgKind::RepAck { txn }
            | MsgKind::AccStateReq { txn, .. }
            | MsgKind::AccStateRep { txn } => Some(txn),
        }
    }

    /// Issue a forced log write; its completion event carries `work`
    /// back into the protocol state machine. Costs one disk page write
    /// (§4.3); log disks are chosen round-robin within the site.
    pub(crate) fn force_log(&mut self, site: SiteId, work: LogWork) {
        if let Some(th) = self.log_txn_handle(&work) {
            if let Some(t) = self.txns.get_mut(th) {
                t.forced += 1;
                let txn = t.id;
                let label = work.label();
                self.trace_event(txn, |at| TraceEvent::ForceLog {
                    at,
                    txn,
                    label,
                    site,
                });
            }
        }
        self.metrics.forced_writes.bump();
        let now = self.cal.now();
        let s = &mut self.sites[site];
        let disk = s.next_log_disk;
        s.next_log_disk = (s.next_log_disk + 1) % s.log_disks.len();
        if let Some(batchers) = s.batched_logs.as_mut() {
            if let Some(done_at) = batchers[disk].arrive(now, work, self.cfg.page_disk) {
                self.cal
                    .schedule_at(done_at, Event::LogBatchDone { site, disk });
            }
            return;
        }
        if let Some(started) =
            s.log_disks[disk].arrive(now, work, self.cfg.page_disk, JobClass::Low)
        {
            self.cal.schedule_at(
                started.done_at,
                Event::LogDiskDone {
                    site,
                    disk,
                    job: started.job,
                },
            );
        }
    }

    /// Send a message. Same-site messages are free and delivered via a
    /// zero-delay event; remote messages cost `MsgCPU` at both ends and
    /// are counted in the execution/commit tallies.
    pub(crate) fn send(&mut self, from: SiteId, to: SiteId, kind: MsgKind) {
        self.send_attempt(from, to, kind, 0);
    }

    /// May fault injection drop this message class? Both directions of
    /// the commit choreography are eligible: the master→cohort requests
    /// *and* the cohort→master replies (WORKDONE, VOTE, PREACK, ACK) —
    /// a lossy network does not spare one direction. `InitCohort` and
    /// the termination-protocol exchange stay exempt: the modeled crash
    /// windows place them outside the loss model, and their loss would
    /// need recovery machinery the paper does not describe. Under
    /// quorum routing the PREPARE/vote round is likewise exempt: a
    /// retransmitted PREPARE would re-fan the vote to every acceptor
    /// and the acceptor tally has no duplicate suppression — the loss
    /// model covers the decision/ack round, where Paxos Commit's
    /// fault tolerance actually lives.
    fn loss_eligible(&self, kind: &MsgKind) -> bool {
        match *kind {
            MsgKind::Prepare { .. } => !matches!(self.table.routing, Routing::Quorum),
            MsgKind::PreCommit { .. }
            | MsgKind::Decision { .. }
            | MsgKind::WorkDone { .. }
            | MsgKind::Vote { .. }
            | MsgKind::PreAck { .. }
            | MsgKind::Ack { .. } => true,
            _ => false,
        }
    }

    /// The retransmission handle for the loss-eligible classes that
    /// carry their *own* timer: the master→cohort requests, plus
    /// WORKDONE — the one reply nothing re-solicits (the master
    /// passively collects during execution). The other replies (VOTE,
    /// PREACK, ACK) are re-elicited by the requester's timer: a
    /// repeated request is answered again, so a second timer on the
    /// reply would be redundant.
    fn loss_retry(kind: &MsgKind) -> Option<Retry> {
        match *kind {
            MsgKind::Prepare { cohort } => Some(Retry::Prepare { cohort }),
            MsgKind::PreCommit { cohort } => Some(Retry::PreCommit { cohort }),
            MsgKind::Decision { cohort, commit } => Some(Retry::Decision { cohort, commit }),
            MsgKind::WorkDone { cohort, .. } => Some(Retry::WorkDone { cohort }),
            _ => None,
        }
    }

    /// [`Simulation::send`] with an attempt count for the message-loss
    /// machinery. Attempts `0..max_retransmits` of a loss-eligible
    /// remote message may be dropped (each is watched by a `MsgRetry`
    /// timer); attempt `max_retransmits` is the escalated transfer and
    /// is delivered reliably, so the protocol always terminates.
    fn send_attempt(&mut self, from: SiteId, to: SiteId, kind: MsgKind, attempt: u32) {
        let owner = self.msg_txn_handle(&kind);
        let owner_id = owner.and_then(|th| self.txns.get(th)).map(|t| t.id);
        if let Some(txn) = owner_id {
            let label = kind.label();
            let local = from == to;
            self.trace_event(txn, |at| TraceEvent::Send {
                at,
                txn,
                label,
                from,
                to,
                local,
            });
        }
        let mut lost = false;
        if from != to {
            if let Some(f) = self.cfg.failures {
                if f.msg_loss_prob > 0.0 && attempt < f.max_retransmits && self.loss_eligible(&kind)
                {
                    self.metrics.message_loss_trials.bump();
                    if self.rng.chance(f.msg_loss_prob) {
                        lost = true;
                        self.metrics.messages_lost.bump();
                        if let Some(t) = owner.and_then(|th| self.txns.get_mut(th)) {
                            // Loss traffic is outside the analytic
                            // overhead model of Tables 3–4.
                            t.crashed = true;
                            let txn = t.id;
                            let label = kind.label();
                            self.trace_event(txn, |at| TraceEvent::MsgLost { at, txn, label });
                        }
                    }
                    // Watch timer-carrying transfers either way: the
                    // timer inspects the receiver's recorded progress
                    // and dies if the message evidently arrived. The
                    // timerless replies are re-elicited by their
                    // requester's timer instead.
                    if let Some(retry) = Self::loss_retry(&kind) {
                        self.cal
                            .schedule_in(f.msg_timeout, Event::MsgRetry { retry, attempt });
                    }
                }
            }
        }
        let msg = Message {
            from,
            to,
            kind,
            lost,
            attempt,
        };
        if from == to {
            self.cal.schedule_now(Event::LocalMsg { msg });
            return;
        }
        if kind.is_execution() {
            self.metrics.exec_messages.bump();
        } else {
            self.metrics.commit_messages.bump();
        }
        if let Some(t) = owner.and_then(|th| self.txns.get_mut(th)) {
            if kind.is_execution() {
                t.msg_exec += 1;
            } else {
                t.msg_commit += 1;
            }
        }
        self.cpu_arrive(
            from,
            CpuJob::MsgSend { msg },
            self.cfg.msg_cpu,
            JobClass::High,
        );
    }

    /// A retransmission timer fired. If the receiver's phase shows the
    /// watched transfer never arrived, repeat it (the repeat is itself
    /// loss-eligible until the retry budget runs out, after which the
    /// escalated transfer is reliable).
    fn handle_msg_retry(&mut self, retry: Retry, attempt: u32) {
        let Some(f) = self.cfg.failures else {
            return;
        };
        let cohort = match retry {
            Retry::Prepare { cohort }
            | Retry::PreCommit { cohort }
            | Retry::Decision { cohort, .. }
            | Retry::WorkDone { cohort } => cohort,
        };
        let Some(c) = self.cohorts.get(cohort) else {
            // The cohort finished: the transfer (or a duplicate of it)
            // arrived, or an abort tore the cohort down. Timer dies.
            return;
        };
        let th = c.txn;
        let kind = match retry {
            Retry::Prepare { cohort } => MsgKind::Prepare { cohort },
            Retry::PreCommit { cohort } => MsgKind::PreCommit { cohort },
            Retry::Decision { cohort, commit } => MsgKind::Decision { cohort, commit },
            Retry::WorkDone { cohort } => MsgKind::WorkDone { txn: th, cohort },
        };
        // Has the *whole round trip* evidently completed? The timer
        // watches end-to-end: it keeps firing until the master has the
        // reply, because either leg may have been the lost one — a
        // repeated request re-elicits a lost reply from a cohort that
        // already acted on the first copy. For the decision, slab
        // presence is the receipt test: the ACK's arrival (or the
        // cohort's ack-free completion) removes the entry, which the
        // miss above already caught.
        let awaited = match retry {
            Retry::Prepare { .. } => !c.vote_seen,
            Retry::PreCommit { .. } => !c.preack_seen,
            Retry::Decision { .. } => true,
            Retry::WorkDone { .. } => !c.wd_seen,
        };
        if !awaited {
            return;
        }
        // Requests travel control→cohort; the WORKDONE reply travels
        // cohort→control.
        let (from, to) = match retry {
            Retry::WorkDone { .. } => (c.site, self.txns[th].control_site()),
            _ => (self.txns[th].control_site(), c.site),
        };
        self.metrics.retransmissions.bump();
        if attempt + 1 >= f.max_retransmits {
            // Out of retries: this repeat goes over the reliable
            // out-of-band path (cooperative termination / operator
            // action in a real system).
            self.metrics.retry_escalations.bump();
        }
        let t = self.txns.get_mut(th).expect("live txn");
        // A retransmission — even a spurious one fired while the
        // original sat in a queue — puts the incarnation outside the
        // analytic overhead model.
        t.crashed = true;
        let txn_id = t.id;
        let label = kind.label();
        self.trace_event(txn_id, |at| TraceEvent::Retransmitted {
            at,
            txn: txn_id,
            label,
            attempt: attempt + 1,
        });
        self.send_attempt(from, to, kind, attempt + 1);
    }

    // ------------------------------------------------------------------
    // Identity & bookkeeping
    // ------------------------------------------------------------------

    /// Replication degree F in effect: the configured degree for the
    /// replicated protocol family, zero for the classic single-copy
    /// protocols (whose table rows never consult it).
    pub(crate) fn rep_f(&self) -> u32 {
        if self.spec.is_replicated() {
            self.cfg.replication
        } else {
            0
        }
    }

    /// Site of replica `k` (0-based, `k < 2F+1`) of the group anchored
    /// at `home`: consecutive sites wrapping around the ring, so
    /// replica 0 — the Paxos leader / the replicated coordinator's
    /// primary — is co-located with the master.
    pub(crate) fn acceptor_site(&self, home: SiteId, k: u32) -> SiteId {
        (home + k as usize) % self.sites.len()
    }

    /// Park an aborted transaction's template until its restart
    /// delay has passed.
    pub(crate) fn schedule_restart(&mut self, home: SiteId, parked: Parked) {
        let delay = self.restart_delay();
        let h = self.parked.insert(parked);
        self.cal.schedule_in(
            delay,
            Event::Submit {
                home,
                restart: Some(h),
            },
        );
    }

    /// Return a forgotten transaction's buffers to the free lists.
    pub(crate) fn recycle(&mut self, t: Txn) {
        self.pools.templates.push(t.template);
        self.recycle_lists(t.cohorts, t.acc_pending);
    }

    /// Return a forgotten transaction's cohort and acceptor lists to
    /// the free lists.
    pub(crate) fn recycle_lists(&mut self, mut cohorts: Vec<CohortH>, mut acc: Vec<u32>) {
        cohorts.clear();
        acc.clear();
        self.pools.cohort_lists.push(cohorts);
        self.pools.acc_lists.push(acc);
    }

    /// Apply a state change of `site`'s lock table: `change` appends
    /// the grants it releases to the recycled grant buffer, and each
    /// waiter granted is resumed.
    pub(crate) fn with_grants(
        &mut self,
        site: SiteId,
        change: impl FnOnce(&mut LockManager, &mut Vec<Grant>),
    ) {
        let mut grants = std::mem::take(&mut self.pools.grants);
        change(&mut self.sites[site].locks, &mut grants);
        self.process_grants(site, &grants);
        grants.clear();
        self.pools.grants = grants;
    }

    pub(crate) fn alloc_txn_id(&mut self) -> TxnId {
        let id = self.next_txn_id;
        self.next_txn_id += 1;
        id
    }

    pub(crate) fn alloc_cohort_id(&mut self) -> CohortId {
        let id = self.next_cohort_id;
        self.next_cohort_id += 1;
        id
    }

    /// The delay before a restart. Under the paper's adaptive policy
    /// (§4) it is the running average response time of committed
    /// transactions (a service-demand estimate before any commit
    /// exists); the alternatives exist for ablation studies.
    pub(crate) fn restart_delay(&self) -> SimDuration {
        match self.cfg.restart_policy {
            crate::config::RestartPolicy::AdaptiveResponseTime => {
                if self.resp_estimate.count() > 0 {
                    SimDuration::from_millis_f64(self.resp_estimate.mean() * 1_000.0)
                } else {
                    let pages = (self.cfg.dist_degree * self.cfg.cohort_size) as u64;
                    (self.cfg.page_disk + self.cfg.page_cpu) * pages
                }
            }
            crate::config::RestartPolicy::Fixed(d) => d,
            crate::config::RestartPolicy::Immediate => SimDuration::ZERO,
        }
    }

    /// Called at every commit point: advances warm-up/measurement
    /// bookkeeping and stops the run at the target.
    pub(crate) fn note_commit_for_run_control(&mut self) {
        self.total_commits += 1;
        if self.total_commits == self.warmup_target {
            // Observers see the warm-up counters one last time *before*
            // they reset (the series force-closes its partial window
            // here, so measured windows tile the measurement interval).
            let (obs, view) = self.observe();
            obs.on_warmup_end(&view);
            let now = self.cal.now();
            self.metrics.reset(now);
            for site in &mut self.sites {
                site.cpu.reset_stats(now);
                for d in &mut site.data_disks {
                    d.reset_stats(now);
                }
                for d in &mut site.log_disks {
                    d.reset_stats(now);
                }
                if let Some(batchers) = site.batched_logs.as_mut() {
                    for b in batchers {
                        b.reset_stats(now);
                    }
                }
            }
        }
        if self.total_commits >= self.commit_target {
            self.done = true;
        }
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    /// Cross-check a cleanly committed transaction's measured message
    /// and forced-write counts against the analytic model of Tables 3–4
    /// (`ProtocolSpec::committed_overheads`). The counters are
    /// per-incarnation, every send/force is issued before the
    /// transaction is forgotten, and the master/local-cohort messages
    /// are free in both model and engine — so for a commit with no
    /// master crash the two must agree *exactly*. A divergence is a
    /// simulator bug: debug builds assert, release builds report it via
    /// [`crate::metrics::OverheadCheck`].
    pub(crate) fn check_commit_overheads(&mut self, t: &Txn) {
        if t.crashed {
            // Recovery/termination traffic is outside the analytic model.
            return;
        }
        let d = t.template.sites.len() as u32;
        let predicted = if self.spec.is_replicated() {
            // Votes/ACCEPTED between co-located cohorts and acceptors
            // are free: count the remote cohorts that sit on one of the
            // 2F non-home acceptor sites (acceptor 0 shares the home).
            let f = self.rep_f();
            let mut colocated = 0u32;
            if matches!(self.table.routing, Routing::Quorum) && f > 0 {
                for &site in &t.template.sites {
                    if site != t.home && (1..=2 * f).any(|k| site == self.acceptor_site(t.home, k))
                    {
                        colocated += 1;
                    }
                }
            }
            self.spec.committed_overheads_replicated(d, f, colocated)
        } else if self.cfg.read_only_optimization && self.table.voting {
            // Which cohorts dropped out with a READ vote is a property
            // of the template: a cohort is read-only iff it updates
            // nothing.
            let mut remote_read_only = 0u32;
            let mut local_read_only = false;
            for (i, &site) in t.template.sites.iter().enumerate() {
                if t.template.accesses[i].iter().all(|a| !a.update) {
                    if site == t.home {
                        local_read_only = true;
                    } else {
                        remote_read_only += 1;
                    }
                }
            }
            self.spec
                .committed_overheads_read_only(commitproto::ReadOnlyScenario {
                    dist_degree: d,
                    remote_read_only,
                    local_read_only,
                })
        } else {
            self.spec.committed_overheads(d)
        };
        let message_delta = t.msg_exec.abs_diff(predicted.exec_messages)
            + t.msg_commit.abs_diff(predicted.commit_messages);
        let forced_write_delta = t.forced.abs_diff(predicted.forced_writes);
        debug_assert!(
            message_delta == 0 && forced_write_delta == 0,
            "overhead model mismatch for txn {} ({}, d={d}): measured exec {} / commit {} / \
             forced {}, predicted exec {} / commit {} / forced {}",
            t.id,
            self.spec.name(),
            t.msg_exec,
            t.msg_commit,
            t.forced,
            predicted.exec_messages,
            predicted.commit_messages,
            predicted.forced_writes,
        );
        self.metrics
            .overhead_check
            .record(message_delta, forced_write_delta);
    }

    /// Render every in-flight transaction and cohort — the post-mortem
    /// attached to the calendar-drain panic.
    fn dump_stuck(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut txns: Vec<_> = self.txns.values().collect();
        txns.sort_by_key(|t| t.id);
        for t in txns {
            let _ = writeln!(
                out,
                "txn {} phase {:?} wd={} votes={} acks={} open={}",
                t.id, t.phase, t.pending_workdone, t.pending_votes, t.pending_acks, t.open_cohorts
            );
            for &ch in &t.cohorts {
                if let Some(c) = self.cohorts.get(ch) {
                    let lm = &self.sites[c.site].locks;
                    let _ = writeln!(
                        out,
                        "  cohort {} site {} phase {:?} access {}/{} wait={} shelf={} borrows={:?} blockers={:?}",
                        c.id,
                        c.site,
                        c.phase,
                        c.next_access,
                        c.n_accesses,
                        c.waiting_lock,
                        c.shelf_since.is_some(),
                        lm.lenders_of(c.lock_owner)
                            .filter_map(|o| lm.owner_seq(o))
                            .collect::<Vec<_>>(),
                        lm.blockers_of(c.lock_owner)
                            .iter()
                            .filter_map(|&o| lm.owner_seq(o))
                            .collect::<Vec<_>>(),
                    );
                }
            }
        }
        out
    }
}

/// Build the report of a finished run from its end state.
fn build_report(
    cfg: &SystemConfig,
    spec: ProtocolSpec,
    cal: &Calendar<Event>,
    metrics: &mut Metrics,
    sites: &mut [Site],
) -> SimReport {
    let now = cal.now();
    let window = now.since(metrics.start).as_secs_f64();
    let committed = metrics.committed.get();
    let throughput = if window > 0.0 {
        committed as f64 / window
    } else {
        0.0
    };

    let mut site_resources = Vec::with_capacity(sites.len());
    let (mut batches, mut batched_writes) = (0u64, 0u64);
    for site in sites.iter_mut() {
        let mut cpu_acc = ResourceAcc::default();
        let mut dd_acc = ResourceAcc::default();
        let mut ld_acc = ResourceAcc::default();
        cpu_acc.push_station(&mut site.cpu, now);
        for d in &mut site.data_disks {
            dd_acc.push_station(d, now);
        }
        match site.batched_logs.as_mut() {
            Some(batchers) => {
                for b in batchers {
                    // Per-record waits are not tracked under group
                    // commit; the queue-depth integral still is.
                    let util = b.utilization(now);
                    let queue = b.mean_queue_depth(now);
                    let max = b.max_queue_depth();
                    ld_acc.push(util, queue, 0.0, max, b.occupancy(now));
                    batches += b.batches_served();
                    batched_writes += b.writes_served();
                }
            }
            None => {
                for d in &mut site.log_disks {
                    ld_acc.push_station(d, now);
                    batches += d.served();
                    batched_writes += d.served();
                }
            }
        }
        site_resources.push(ResourceReport {
            cpu: cpu_acc.stats(),
            data_disk: dd_acc.stats(),
            log_disk: ld_acc.stats(),
        });
    }
    let averaged = ResourceReport::average(&site_resources);
    let utilizations = Utilizations {
        cpu: averaged.cpu.utilization,
        data_disk: averaged.data_disk.utilization,
        log_disk: averaged.log_disk.utilization,
    };

    let mean_log_batch = if batches == 0 {
        0.0
    } else {
        batched_writes as f64 / batches as f64
    };

    let blocked_avg = metrics.blocked_txns.time_average(now);
    let live_avg = metrics.live_txns.time_average(now);
    let block_ratio = if live_avg > 0.0 {
        blocked_avg / live_avg
    } else {
        0.0
    };

    SimReport {
        protocol: spec.name().to_string(),
        mpl: cfg.mpl,
        sim_seconds: window,
        committed,
        aborted_deadlock: metrics.aborted_deadlock.get(),
        aborted_surprise: metrics.aborted_surprise.get(),
        aborted_borrower: metrics.aborted_borrower.get(),
        aborted_crash: metrics.aborted_crash.get(),
        throughput,
        throughput_ci: metrics.throughput_batches.confidence_interval(),
        mean_response_s: metrics.response.mean(),
        p50_response_s: metrics.response_hist.p50().as_secs_f64(),
        p95_response_s: metrics.response_hist.p95().as_secs_f64(),
        p99_response_s: metrics.response_hist.p99().as_secs_f64(),
        mean_attempt_response_s: metrics.attempt_response.mean(),
        block_ratio,
        borrow_ratio: metrics.borrowed_pages.per(committed),
        exec_messages_per_commit: metrics.exec_messages.per(committed),
        commit_messages_per_commit: metrics.commit_messages.per(committed),
        forced_writes_per_commit: metrics.forced_writes.per(committed),
        mean_shelf_time_s: metrics.shelf_time.mean(),
        mean_prepared_time_s: metrics.prepared_time.mean(),
        phase_latencies: PhaseLatencies {
            execution: LatencySummary::from_histogram(&metrics.phase_execution),
            voting: LatencySummary::from_histogram(&metrics.phase_voting),
            decision: LatencySummary::from_histogram(&metrics.phase_decision),
        },
        utilizations,
        site_resources,
        overhead_check: metrics.overhead_check,
        mean_log_batch,
        faults: crate::metrics::FaultCounters {
            master_crashes: metrics.master_crashes.get(),
            cohort_crashes: metrics.cohort_crashes.get(),
            messages_lost: metrics.messages_lost.get(),
            retransmissions: metrics.retransmissions.get(),
            retry_escalations: metrics.retry_escalations.get(),
            termination_rounds: metrics.termination_rounds.get(),
            master_crash_trials: metrics.master_crash_trials.get(),
            cohort_crash_trials: metrics.cohort_crash_trials.get(),
            message_loss_trials: metrics.message_loss_trials.get(),
            blocked_on_crash_cohorts: metrics.blocked_on_crash_cohorts.get(),
            mean_blocked_on_crash_s: metrics.crash_block_time.mean(),
        },
        convergence: metrics.convergence(),
        events: cal.dispatched_count(),
    }
}
