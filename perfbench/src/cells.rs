//! The three workloads, as lists of cells, and the per-cell
//! correctness check.
//!
//! A cell is one deterministic simulation: a configuration, a protocol,
//! and the observers installed on it. A workload runs its cells one
//! after another, single-threaded, through the public entry points
//! `Simulation::run`, `Simulation::run_with_sink` and
//! `Simulation::run_with_series`.

use crate::sinks::{ProtocolCounter, RecordTime, SinkBundle};
use commitproto::ProtocolSpec;
use distdb::config::{FailureConfig, SystemConfig};
use distdb::engine::{SeriesConfig, SeriesFormat, Simulation};
use distdb::metrics::SimReport;
use std::time::Instant;

/// The seed the recorded fingerprints in [`EXPECTED`] were taken at.
pub const DEFAULT_SEED: u64 = 42;

/// Warm-up and measured commits per cell.
pub const WARMUP: u64 = 500;
pub const MEASURED: u64 = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    WanZipf,
    FaultsSinks,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::WanZipf,
        Workload::FaultsSinks,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::WanZipf => "wan-zipf",
            Workload::FaultsSinks => "faults-sinks",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload's own cells carry the streaming sinks.
    pub fn has_sinks(self) -> bool {
        self == Workload::FaultsSinks
    }
}

/// Which observers a cell runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// `Simulation::run`; in the traced run, `run_with_sink` with a
    /// [`ProtocolCounter`].
    Bare,
    /// `run_with_sink` with the Chrome stream, fold and protocol
    /// counter over every transaction.
    Sinks,
    /// `run_with_series` with the default window, rendered as CSV.
    Series,
}

#[derive(Debug, Clone)]
pub struct Cell {
    pub name: String,
    pub cfg: SystemConfig,
    pub spec: ProtocolSpec,
    pub observe: Observe,
}

/// The paper's §5 baseline at `mpl`, at the benchmark's run length.
fn baseline(mpl: u32) -> SystemConfig {
    SystemConfig::paper_baseline()
        .with_mpl(mpl)
        .with_run_length(WARMUP, MEASURED)
}

/// 64 sites × 1000 pages, Zipf θ = 0.9, 4-region WAN.
fn wan_zipf(mpl: u32) -> SystemConfig {
    let mut cfg = baseline(mpl).with_zipf(0.9).with_topology(
        "regions=4,lan-ms=1,wan-ms=40,jitter=0.1"
            .parse()
            .expect("literal topology"),
    );
    cfg.num_sites = 64;
    cfg.db_size = 64_000;
    cfg
}

fn faults() -> FailureConfig {
    "mc=0.01,cc=0.005,loss=0.01"
        .parse()
        .expect("literal failure spec")
}

/// The workload's cells, in run order.
pub fn cells(w: Workload) -> Vec<Cell> {
    let cell = |name: String, cfg: SystemConfig, spec, observe| Cell {
        name,
        cfg,
        spec,
        observe,
    };
    match w {
        Workload::PaperGrid => {
            let mut out = Vec::new();
            for spec in [
                ProtocolSpec::TWO_PC,
                ProtocolSpec::PC,
                ProtocolSpec::OPT_2PC,
                ProtocolSpec::THREE_PC,
            ] {
                for mpl in [4, 8] {
                    out.push(cell(
                        format!("{}/mpl{mpl}", spec.name()),
                        baseline(mpl),
                        spec,
                        Observe::Bare,
                    ));
                }
            }
            out
        }
        Workload::WanZipf => [ProtocolSpec::TWO_PC, ProtocolSpec::OPT_2PC]
            .into_iter()
            .map(|spec| {
                cell(
                    format!("{}/mpl4", spec.name()),
                    wan_zipf(4),
                    spec,
                    Observe::Bare,
                )
            })
            .collect(),
        Workload::FaultsSinks => {
            let mut out = Vec::new();
            let faulty = baseline(4).with_failures(faults());
            for (label, spec, cfg) in [
                ("2PC", ProtocolSpec::TWO_PC, faulty.clone()),
                ("3PC", ProtocolSpec::THREE_PC, faulty.clone()),
                ("PAXOS-F1", ProtocolSpec::PAXOS, faulty.with_replication(1)),
            ] {
                out.push(cell(
                    format!("{label}/sinks"),
                    cfg.clone(),
                    spec,
                    Observe::Sinks,
                ));
                out.push(cell(format!("{label}/series"), cfg, spec, Observe::Series));
            }
            out
        }
    }
}

/// What one cell run produced.
pub struct CellRun {
    pub report: SimReport,
    /// Host seconds inside the `Simulation::run*` call and the
    /// rendering of its observers' output.
    pub host_s: f64,
    pub protocol: Option<ProtocolCounter>,
    pub chrome: RecordTime,
    pub fold: RecordTime,
    pub chrome_bytes: u64,
    /// Bytes of rendered fold stacks or series CSV.
    pub output_bytes: u64,
}

/// Run one cell. With `traced`, bare cells record protocol counts and
/// sink cells time every `record` call.
pub fn run_cell(cell: &Cell, seed: u64, traced: bool) -> Result<CellRun, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", cell.name);
    let start = Instant::now();
    let mut run = match cell.observe {
        Observe::Bare if !traced => {
            let report = Simulation::run(&cell.cfg, cell.spec, seed).map_err(|e| err(&e))?;
            CellRun::bare(report)
        }
        Observe::Bare => {
            let (report, counter) = Simulation::run_with_sink(
                &cell.cfg,
                cell.spec,
                seed,
                u64::MAX,
                ProtocolCounter::default(),
            )
            .map_err(|e| err(&e))?;
            CellRun {
                protocol: Some(counter),
                ..CellRun::bare(report)
            }
        }
        Observe::Sinks => {
            let (report, bundle) = Simulation::run_with_sink(
                &cell.cfg,
                cell.spec,
                seed,
                u64::MAX,
                SinkBundle::new(traced),
            )
            .map_err(|e| err(&e))?;
            let protocol = bundle.protocol;
            let (chrome, fold) = (bundle.chrome_time, bundle.fold_time);
            let (chrome_bytes, output_bytes) = bundle.into_output().map_err(|e| err(&e))?;
            CellRun {
                protocol: Some(protocol),
                chrome,
                fold,
                chrome_bytes,
                output_bytes,
                ..CellRun::bare(report)
            }
        }
        Observe::Series => {
            let (report, series) =
                Simulation::run_with_series(&cell.cfg, cell.spec, seed, &SeriesConfig::default())
                    .map_err(|e| err(&e))?;
            let output_bytes = series.render(SeriesFormat::Csv).len() as u64;
            CellRun {
                output_bytes,
                ..CellRun::bare(report)
            }
        }
    };
    run.host_s = start.elapsed().as_secs_f64();
    Ok(run)
}

impl CellRun {
    fn bare(report: SimReport) -> Self {
        CellRun {
            report,
            host_s: 0.0,
            protocol: None,
            chrome: RecordTime::default(),
            fold: RecordTime::default(),
            chrome_bytes: 0,
            output_bytes: 0,
        }
    }
}

// ----------------------------------------------------------------------
// Correctness
// ----------------------------------------------------------------------

/// FNV-1a over the report fields that define a run's outcome: events,
/// commits, aborts by reason, throughput, block and borrow ratios,
/// messages and forced writes per commit, and the fault counters.
/// Floats enter at nine significant digits, so a change in summation
/// order does not count as a different outcome; the rendered report
/// text does not enter at all.
pub fn fingerprint(r: &SimReport) -> u64 {
    let f = &r.faults;
    let ints = [
        r.events,
        r.committed,
        r.aborted_deadlock,
        r.aborted_surprise,
        r.aborted_borrower,
        r.aborted_crash,
        f.master_crashes,
        f.cohort_crashes,
        f.messages_lost,
        f.retransmissions,
        f.retry_escalations,
        f.termination_rounds,
        f.master_crash_trials,
        f.cohort_crash_trials,
        f.message_loss_trials,
        f.blocked_on_crash_cohorts,
    ];
    let floats = [
        r.throughput,
        r.block_ratio,
        r.borrow_ratio,
        r.exec_messages_per_commit,
        r.commit_messages_per_commit,
        r.forced_writes_per_commit,
        f.mean_blocked_on_crash_s,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in ints {
        eat(&v.to_le_bytes());
    }
    for v in floats {
        eat(format!("{v:.8e}").as_bytes());
    }
    h
}

/// Recorded outcome of each cell at [`DEFAULT_SEED`]: (workload, cell,
/// events, fingerprint). The paper-grid event counts are those of the
/// canonical bench trajectory (`BENCH_10.json`), and wan-zipf's 2PC
/// cell is its `scale` cell.
pub const EXPECTED: &[(&str, &str, u64, u64)] = &[
    ("paper-grid", "2PC/mpl4", 1_502_421, 0x82b1_8e53_9bd0_41d2),
    ("paper-grid", "2PC/mpl8", 1_533_004, 0x9fdf_a159_623a_f987),
    ("paper-grid", "PC/mpl4", 1_359_485, 0xdd97_ec9b_d45e_d107),
    ("paper-grid", "PC/mpl8", 1_390_363, 0xfa39_3fea_bddc_4fb0),
    ("paper-grid", "OPT/mpl4", 1_501_821, 0xed7f_73ba_cb0c_5caf),
    ("paper-grid", "OPT/mpl8", 1_529_308, 0xa804_1606_e903_7938),
    ("paper-grid", "3PC/mpl4", 1_789_849, 0xb6cc_eede_e9ec_ef57),
    ("paper-grid", "3PC/mpl8", 1_820_218, 0xf0aa_57da_0c36_236b),
    ("wan-zipf", "2PC/mpl4", 2_124_492, 0x72ec_4e61_c342_021a),
    ("wan-zipf", "OPT/mpl4", 2_122_612, 0x82b8_9b17_6569_0246),
    (
        "faults-sinks",
        "2PC/sinks",
        1_654_065,
        0xa52d_8ebe_12df_a4ac,
    ),
    (
        "faults-sinks",
        "2PC/series",
        1_654_065,
        0xa52d_8ebe_12df_a4ac,
    ),
    (
        "faults-sinks",
        "3PC/sinks",
        2_030_919,
        0xc613_4e98_62cf_6cdb,
    ),
    (
        "faults-sinks",
        "3PC/series",
        2_030_919,
        0xc613_4e98_62cf_6cdb,
    ),
    (
        "faults-sinks",
        "PAXOS-F1/sinks",
        1_997_829,
        0xcd6e_b92f_4190_0384,
    ),
    (
        "faults-sinks",
        "PAXOS-F1/series",
        1_997_829,
        0xcd6e_b92f_4190_0384,
    ),
];

/// Check one cell's report. Seed-independent checks always apply; at
/// [`DEFAULT_SEED`] the events and fingerprint must match [`EXPECTED`].
pub fn check(w: Workload, cell: &Cell, seed: u64, r: &SimReport) -> Result<u64, String> {
    let fp = fingerprint(r);
    let mut problems = Vec::new();
    if !r.overhead_check.is_clean() {
        problems.push(format!(
            "overhead check: {} of {} commits mismatch",
            r.overhead_check.mismatched_commits, r.overhead_check.checked_commits
        ));
    }
    if r.committed != cell.cfg.run.measured_transactions {
        problems.push(format!(
            "committed {} != measured {}",
            r.committed, cell.cfg.run.measured_transactions
        ));
    }
    if seed == DEFAULT_SEED {
        match EXPECTED
            .iter()
            .find(|(wn, cn, _, _)| *wn == w.name() && *cn == cell.name)
        {
            Some(&(_, _, events, want)) => {
                if r.events != events || fp != want {
                    problems.push(format!(
                        "expected events {events} fingerprint {want:#018x}, got events {} fingerprint {fp:#018x}",
                        r.events
                    ));
                }
            }
            None => problems.push(format!(
                "no recorded outcome; got events {} fingerprint {fp:#018x}",
                r.events
            )),
        }
    }
    if problems.is_empty() {
        Ok(fp)
    } else {
        Err(format!("{}: {}", cell.name, problems.join("; ")))
    }
}
