//! Layer replays for the traced run.
//!
//! The engine keeps its lock tables, calendar and stations private, so
//! their per-call costs are measured by feeding each workload's own
//! generated inputs into those layers' public APIs:
//!
//! * locks + deadlock — templates from `WorkloadGenerator::generate`
//!   drive one `LockManager::for_pages` table per site through a closed
//!   population of sites × MPL transactions. Each transaction requests
//!   its pages in order; a blocked request runs `find_cycle` over a
//!   wait-for relation built from `blockers_of`, and the youngest
//!   member of a cycle is aborted and restarted with the same template.
//!   A transaction that holds all its pages commits and releases them.
//! * calendar — a hold model: sites × MPL pending events, each pop
//!   schedules a successor at one of the config's service times.
//! * station — one site's CPU, data-disk and log stations driven
//!   closed-loop by MPL × DistDegree cohorts at the config's service
//!   times.
//! * workload — generator construction and template generation.
//!
//! Per-call timings are net of the timer's own cost ([`timer_ns`]).

use commitproto::BaseProtocol;
use distdb::config::SystemConfig;
use distdb::workload::{TxnTemplate, WorkloadGenerator};
use distlocks::deadlock::{find_cycle, youngest_victim};
use distlocks::{Grant, LockManager, LockMode, OwnerId, RequestOutcome};
use simkernel::{Calendar, JobClass, SimDuration, SimRng, SimTime, Station};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Median cost of one `Instant::now()` pair, nanoseconds.
pub fn timer_ns() -> f64 {
    let mut v: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            black_box(Instant::now() - t).as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2] as f64
}

/// Lock-table and deadlock-detector work of one replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct LockStats {
    pub requests: u64,
    pub blocked: u64,
    pub request_ns: u64,
    pub releases: u64,
    pub release_ns: u64,
    pub calls: u64,
    pub nodes_visited: u64,
    pub cycles: u64,
    pub find_ns: u64,
}

impl LockStats {
    pub fn add(&mut self, o: &LockStats) {
        self.requests += o.requests;
        self.blocked += o.blocked;
        self.request_ns += o.request_ns;
        self.releases += o.releases;
        self.release_ns += o.release_ns;
        self.calls += o.calls;
        self.nodes_visited += o.nodes_visited;
        self.cycles += o.cycles;
        self.find_ns += o.find_ns;
    }
}

/// One replayed transaction.
struct Txn {
    tpl: TxnTemplate,
    birth: u64,
    /// Lock owner per cohort, registered at (re)start.
    owners: Vec<OwnerId>,
    /// Next access: (cohort, index within the cohort).
    at: (usize, usize),
}

struct LockReplay {
    tables: Vec<LockManager>,
    /// Per site: lock-owner slot -> transaction slot.
    owner_txn: Vec<Vec<usize>>,
    txns: Vec<Txn>,
    runnable: VecDeque<usize>,
    next_seq: u64,
    stats: LockStats,
}

impl LockReplay {
    fn start(&mut self, t: usize) {
        let txn = &mut self.txns[t];
        txn.at = (0, 0);
        txn.owners.clear();
        for &site in &txn.tpl.sites {
            let o = self.tables[site].register_owner(self.next_seq);
            self.next_seq += 1;
            let map = &mut self.owner_txn[site];
            if map.len() <= o.index() {
                map.resize(o.index() + 1, usize::MAX);
            }
            map[o.index()] = t;
            txn.owners.push(o);
        }
    }

    /// Step a transaction past the access it just got.
    fn advance(&mut self, t: usize) {
        let txn = &mut self.txns[t];
        txn.at.1 += 1;
        while txn.at.0 < txn.tpl.accesses.len() && txn.at.1 >= txn.tpl.accesses[txn.at.0].len() {
            txn.at = (txn.at.0 + 1, 0);
        }
    }

    fn waiting(&self, t: usize) -> bool {
        let txn = &self.txns[t];
        (txn.owners.iter().enumerate()).any(|(c, &o)| self.tables[txn.tpl.sites[c]].is_waiting(o))
    }

    fn done(&self, t: usize) -> bool {
        self.txns[t].at.0 >= self.txns[t].tpl.accesses.len()
    }

    /// Release every lock `t` holds, wake the owners granted by it and
    /// unregister `t`'s owners.
    fn release(&mut self, t: usize, timer: f64) {
        let owners = std::mem::take(&mut self.txns[t].owners);
        for (c, &o) in owners.iter().enumerate() {
            let site = self.txns[t].tpl.sites[c];
            let t0 = Instant::now();
            let grants: Vec<Grant> = self.tables[site].release_all(o);
            let ns = (t0.elapsed().as_nanos() as f64 - timer).max(0.0);
            self.stats.releases += 1;
            self.stats.release_ns += ns as u64;
            self.tables[site].unregister(o);
            for g in grants {
                let w = self.owner_txn[site][g.owner.index()];
                self.advance(w);
                self.runnable.push_back(w);
            }
        }
    }

    /// Transactions `t` waits for, via every site's `blockers_of`.
    fn waits_for(&self, t: usize, visited: &mut u64) -> Vec<usize> {
        *visited += 1;
        let txn = &self.txns[t];
        let mut out = Vec::new();
        for (c, &o) in txn.owners.iter().enumerate() {
            let site = txn.tpl.sites[c];
            for b in self.tables[site].blockers_of(o) {
                out.push(self.owner_txn[site][b.index()]);
            }
        }
        out
    }

    /// Issue `t`'s next request; returns true when `t` committed.
    fn step(&mut self, t: usize, timer: f64) -> bool {
        if self.done(t) {
            // Its last page was granted by another transaction's release.
            self.release(t, timer);
            return true;
        }
        let (c, a) = self.txns[t].at;
        let site = self.txns[t].tpl.sites[c];
        let access = self.txns[t].tpl.accesses[c][a];
        let owner = self.txns[t].owners[c];
        let mode = if access.update {
            LockMode::Update
        } else {
            LockMode::Read
        };
        let t0 = Instant::now();
        let outcome = self.tables[site].request(owner, access.page, mode);
        let ns = (t0.elapsed().as_nanos() as f64 - timer).max(0.0);
        self.stats.requests += 1;
        self.stats.request_ns += ns as u64;
        if outcome != RequestOutcome::Blocked {
            self.advance(t);
            if self.done(t) {
                self.release(t, timer);
                return true;
            }
            self.runnable.push_back(t);
            return false;
        }
        self.stats.blocked += 1;
        self.detect(t, timer);
        false
    }

    /// Run the detector from `t`; abort and restart the youngest member
    /// of a cycle through it. Returns whether a cycle was found.
    fn detect(&mut self, t: usize, timer: f64) -> bool {
        let mut visited = 0;
        let t0 = Instant::now();
        let cycle = find_cycle(t, |x| self.waits_for(x, &mut visited));
        let ns = (t0.elapsed().as_nanos() as f64 - timer).max(0.0);
        self.stats.calls += 1;
        self.stats.find_ns += ns as u64;
        self.stats.nodes_visited += visited;
        let Some(cycle) = cycle else {
            return false;
        };
        self.stats.cycles += 1;
        let victim = youngest_victim(&cycle, |x| self.txns[x].birth);
        self.release(victim, timer);
        self.start(victim);
        self.runnable.push_back(victim);
        true
    }
}

/// Replay `commits` transactions of `cfg`'s workload through the lock
/// tables and the deadlock detector.
pub fn lock_replay(cfg: &SystemConfig, base: BaseProtocol, seed: u64, commits: u64) -> LockStats {
    let gen = WorkloadGenerator::new(cfg, base);
    let sites = gen.effective_sites();
    let mut rng = SimRng::new(seed);
    let timer = timer_ns();
    let mut r = LockReplay {
        tables: (0..sites)
            .map(|_| LockManager::for_pages(false, cfg.pages_per_site()))
            .collect(),
        owner_txn: vec![Vec::new(); sites],
        txns: Vec::new(),
        runnable: VecDeque::new(),
        next_seq: 0,
        stats: LockStats::default(),
    };
    let population = sites * cfg.mpl as usize;
    for i in 0..population {
        r.txns.push(Txn {
            tpl: gen.generate(i % sites, &mut rng),
            birth: i as u64,
            owners: Vec::new(),
            at: (0, 0),
        });
        r.start(i);
        r.runnable.push_back(i);
    }
    let mut committed = 0;
    let mut births = population as u64;
    while committed < commits {
        let Some(t) = r.runnable.pop_front() else {
            // Everyone waits. A grant can re-point a waiter at a new
            // holder without a fresh block, so a cycle may have formed
            // that no request-time check saw: sweep for it.
            let found = (0..population).any(|t| r.waiting(t) && r.detect(t, timer));
            assert!(found, "lock replay stalled without a deadlock");
            continue;
        };
        if r.step(t, timer) {
            committed += 1;
            let home = r.txns[t].tpl.home;
            r.txns[t].tpl = gen.generate(home, &mut rng);
            r.txns[t].birth = births;
            births += 1;
            r.start(t);
            r.runnable.push_back(t);
        }
    }
    for (site, table) in r.tables.iter().enumerate() {
        if let Err(e) = table.audit() {
            panic!("lock replay left site {site} inconsistent: {e}");
        }
    }
    r.stats
}

/// Exponentially distributed multipliers with mean 1.
fn jitter(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    (0..n).map(|_| -(1.0 - rng.f64()).ln()).collect()
}

fn scaled(d: SimDuration, f: f64) -> SimDuration {
    SimDuration::from_micros((d.as_micros() as f64 * f).round() as u64)
}

/// Calendar hold model: (ops, host ns).
pub fn calendar_replay(cfg: &SystemConfig, seed: u64, holds: u64) -> (u64, u64) {
    let base = [cfg.page_cpu, cfg.page_disk, cfg.msg_cpu];
    let ds: Vec<SimDuration> = jitter(seed ^ 0xca1e_dae5, 4096)
        .into_iter()
        .enumerate()
        .map(|(i, f)| scaled(base[i % base.len()], f))
        .collect();
    let pending = cfg.num_sites * cfg.mpl as usize;
    let mut cal: Calendar<u32> = Calendar::new();
    let start = Instant::now();
    for i in 0..pending {
        cal.schedule_in(ds[i % ds.len()], i as u32);
    }
    for i in 0..holds as usize {
        let (_, e) = cal.next().expect("hold model keeps the calendar full");
        cal.schedule_in(ds[i % ds.len()], black_box(e));
    }
    let ns = start.elapsed().as_nanos() as u64;
    (cal.scheduled_count() + cal.dispatched_count(), ns)
}

const CPU: usize = 0;
const DISK: usize = 1;
const LOG: usize = 2;

/// One site's CPU, data-disk and log stations under a closed
/// population of MPL × DistDegree cohorts. A job leaving the CPU goes
/// to a data disk, or on every fourth visit to the log disk; disk and
/// log visits return to the CPU; every third CPU visit is high-class
/// message work. Returns (ops, host ns net of timer cost).
pub fn station_replay(cfg: &SystemConfig, seed: u64, visits: u64) -> (u64, u64) {
    let fs = jitter(seed ^ 0x57a7_1011, 4096);
    let timer = timer_ns();
    let mut stations: [Station<u32>; 3] = [
        Station::finite(cfg.num_cpus),
        Station::finite(cfg.num_data_disks),
        Station::finite(cfg.num_log_disks),
    ];
    // Completion events, earliest first: (time, station, job).
    let mut heap: BinaryHeap<Reverse<(SimTime, usize, u32)>> = BinaryHeap::new();
    let (mut ops, mut ns) = (0u64, 0f64);
    let cohorts = (cfg.mpl * cfg.dist_degree) as usize;
    for v in 0..visits as usize {
        // The first MPL × DistDegree visits seed the population at the
        // CPU; afterwards each visit follows a completion.
        let (now, job, st) = if v < cohorts {
            (SimTime::ZERO, v as u32, CPU)
        } else {
            let Reverse((now, st, job)) = heap.pop().expect("closed population keeps a job busy");
            let t0 = Instant::now();
            let next = stations[st].complete(now);
            ns += t0.elapsed().as_nanos() as f64 - timer;
            ops += 1;
            if let Some(s) = next {
                heap.push(Reverse((s.done_at, st, s.job)));
            }
            let to = match st {
                CPU if v % 4 == 0 => LOG,
                CPU => DISK,
                _ => CPU,
            };
            (now, job, to)
        };
        let (service, class) = match st {
            CPU if v % 3 == 0 => (cfg.msg_cpu, JobClass::High),
            CPU => (cfg.page_cpu, JobClass::Low),
            _ => (cfg.page_disk, JobClass::Low),
        };
        let t0 = Instant::now();
        let started = stations[st].arrive(now, job, scaled(service, fs[v % fs.len()]), class);
        ns += t0.elapsed().as_nanos() as f64 - timer;
        ops += 1;
        if let Some(s) = started {
            heap.push(Reverse((s.done_at, st, s.job)));
        }
    }
    (ops, ns.max(0.0) as u64)
}

/// Workload generator costs: (construction s, generate ns per call,
/// pages per template).
pub fn workload_replay(
    cfg: &SystemConfig,
    base: BaseProtocol,
    seed: u64,
    templates: u64,
) -> (f64, f64, f64) {
    let mut builds: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            black_box(WorkloadGenerator::new(cfg, base));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    builds.sort_by(f64::total_cmp);
    let gen = WorkloadGenerator::new(cfg, base);
    let sites = gen.effective_sites() as u64;
    let mut rng = SimRng::new(seed ^ 0x3e4e_7a7e);
    let mut pages = 0u64;
    let t0 = Instant::now();
    for i in 0..templates {
        let tpl = gen.generate((i % sites) as usize, &mut rng);
        pages += black_box(tpl).total_pages() as u64;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (
        builds[builds.len() / 2],
        ns / templates as f64,
        pages as f64 / templates as f64,
    )
}
