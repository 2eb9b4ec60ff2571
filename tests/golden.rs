//! Golden-file checks for the machine-readable outputs: the JSON
//! report, the folded-stack flamegraph lines and the Chrome trace.
//! These formats are consumed by external tools (jq pipelines,
//! flamegraph.pl, Perfetto), so any byte-level drift is a breaking
//! change and must be deliberate.
//!
//! To bless an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use distcommit::db::config::SystemConfig;
use distcommit::db::engine::{
    chrome_trace_json, FoldSink, SeriesConfig, SeriesFormat, Simulation, Trace, TraceEvent,
};
use distcommit::db::metrics::ReportFormat;
use distcommit::proto::ProtocolSpec;
use simkernel::SimDuration;

/// Small but non-trivial: long enough to populate every report section
/// (phases, per-site resources, occupancy percentiles) yet quick to run.
fn golden_cfg() -> SystemConfig {
    SystemConfig::paper_baseline().with_run_length(10, 80)
}

fn check(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test golden`")
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from tests/golden/{name}; if intentional, \
         rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn json_report_matches_golden() {
    let report = Simulation::run(&golden_cfg(), ProtocolSpec::TWO_PC, 2026).expect("valid config");
    check("report.json", &report.render(ReportFormat::Json));
}

/// Every classic spec's full JSON report in one golden: the protocol
/// layer is *data* interpreted by a generic engine, so any change to
/// the spec table or the interpreter that perturbs a single protocol's
/// schedule — message counts, forced writes, timing — drifts here.
/// (The replicated family has its own golden; it postdates this file.)
#[test]
fn every_classic_protocol_report_matches_golden() {
    let mut out = String::new();
    for spec in ProtocolSpec::ALL {
        if spec.is_replicated() {
            continue;
        }
        let report = Simulation::run(&golden_cfg(), spec, 2026).expect("valid config");
        out.push_str(&format!("=== {} ===\n", spec.name()));
        out.push_str(&report.render(ReportFormat::Json));
        out.push('\n');
    }
    check("report_all_protocols.txt", &out);
}

/// The same CLI-shaped fault specification the README examples use:
/// all three fault classes enabled, hot enough that a short run still
/// fires each of them.
fn faulty_cfg() -> SystemConfig {
    let faults = "mc=0.05,cc=0.02,loss=0.05"
        .parse()
        .expect("valid fault spec");
    golden_cfg().with_failures(faults)
}

/// The failure path of the engine — crash injection, recovery timers,
/// retransmissions — byte-for-byte. A refactor that preserves the
/// happy-path goldens but perturbs RNG draws or event ordering under
/// faults drifts here.
#[test]
fn faulty_json_report_matches_golden() {
    let report = Simulation::run(&faulty_cfg(), ProtocolSpec::TWO_PC, 2027).expect("valid config");
    // Not vacuous: the fault classes actually fired in this run.
    assert!(report.faults.master_crashes > 0);
    assert!(report.faults.messages_lost > 0);
    check("report_faulty.json", &report.render(ReportFormat::Json));
}

/// The replicated family's failure path: a Paxos Commit run at F = 1
/// under the same fault mix, pinning the acceptor-quorum choreography,
/// the failover timers, and the replicated overhead model. The run is
/// only meaningful if the headline machinery actually engaged: masters
/// crashed and the surviving acceptors ran termination rounds.
#[test]
fn faulty_paxos_report_matches_golden() {
    let cfg = faulty_cfg().with_replication(1);
    let report = Simulation::run(&cfg, ProtocolSpec::PAXOS, 2027).expect("valid config");
    assert!(report.faults.master_crashes > 0);
    assert!(report.faults.termination_rounds > 0);
    assert!(
        report.overhead_check.is_clean(),
        "{:?}",
        report.overhead_check
    );
    check(
        "report_paxos_faulty.json",
        &report.render(ReportFormat::Json),
    );
}

/// The folded commit-time stacks of a faulty 3PC run (termination
/// protocol, recovery waits) — the failure-path counterpart of
/// `folded_stacks_match_golden`.
#[test]
fn faulty_folded_stacks_match_golden() {
    let (report, fold) = Simulation::run_with_sink(
        &faulty_cfg(),
        ProtocolSpec::THREE_PC,
        2027,
        u64::MAX,
        FoldSink::new(ProtocolSpec::THREE_PC.name()),
    )
    .expect("valid config");
    assert!(report.faults.master_crashes > 0);
    check("fold_faulty.txt", &fold.render());
}

/// Windows narrow enough that the short golden run still spans several
/// of them, with per-site rows on so the widest CSV shape is pinned.
fn golden_series_cfg() -> SeriesConfig {
    SeriesConfig {
        window: SimDuration::from_secs(2),
        per_site: true,
    }
}

/// The windowed-series CSV — consumed by spreadsheet/gnuplot pipelines,
/// so column order and formatting are part of the contract.
#[test]
fn series_csv_matches_golden() {
    let (_, series) = Simulation::run_with_series(
        &golden_cfg(),
        ProtocolSpec::TWO_PC,
        2026,
        &golden_series_cfg(),
    )
    .expect("valid config");
    assert!(series.windows.len() > 2, "golden run spans several windows");
    check("series.csv", &series.render(SeriesFormat::Csv));
}

/// The windowed-series JSON of a faulty OPT run: retransmit and loss
/// counters populated, per-site queues under crash churn.
#[test]
fn faulty_series_json_matches_golden() {
    let (report, series) = Simulation::run_with_series(
        &faulty_cfg(),
        ProtocolSpec::OPT_2PC,
        2027,
        &golden_series_cfg(),
    )
    .expect("valid config");
    assert!(report.faults.messages_lost > 0);
    assert!(series.windows.iter().any(|w| w.messages_lost > 0));
    check("series_faulty.json", &series.render(SeriesFormat::Json));
}

#[test]
fn folded_stacks_match_golden() {
    let (_, fold) = Simulation::run_with_sink(
        &golden_cfg(),
        ProtocolSpec::THREE_PC,
        2026,
        u64::MAX,
        FoldSink::new(ProtocolSpec::THREE_PC.name()),
    )
    .expect("valid config");
    check("fold.txt", &fold.render());
}

/// The scale configuration: 64 sites at 1000 pages each, Zipf(0.9)
/// page access and a 4-region WAN. Heavy skewed contention makes
/// immediate deadlock detection fire on a large share of lock
/// conflicts, so this golden pins the §4.2 victim choice (youngest
/// member of the first cycle found) through every detector change.
fn wan_zipf_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline()
        .with_zipf(0.9)
        .with_topology(
            "regions=4,lan-ms=1,wan-ms=40,jitter=0.1"
                .parse()
                .expect("valid topology"),
        )
        .with_run_length(50, 500);
    cfg.num_sites = 64;
    cfg.db_size = 64_000;
    cfg
}

/// 2PC and OPT over [`wan_zipf_cfg`], as one JSON array of reports.
#[test]
fn wan_zipf_reports_match_golden() {
    let mut reports = Vec::new();
    for spec in [ProtocolSpec::TWO_PC, ProtocolSpec::OPT_2PC] {
        let report = Simulation::run(&wan_zipf_cfg(), spec, 2026).expect("valid config");
        // Not vacuous: the run resolved many deadlocks.
        assert!(report.aborted_deadlock > 50, "{}", report.aborted_deadlock);
        reports.push(report.render(ReportFormat::Json));
    }
    check(
        "report_wan_zipf.json",
        &format!("[{}]\n", reports.join(",\n")),
    );
}

/// Events `range` of a traced run, serialized to Chrome JSON.
/// Cutting the stream mid-run is what a bounded trace window does:
/// forces issued before the window reach their durable record
/// unmatched, and forces still in the log queue at its end are closed
/// as incomplete. Each range below was picked to hold the events its
/// test names, and the test asserts they are there.
fn chrome_window(
    cfg: &SystemConfig,
    spec: ProtocolSpec,
    seed: u64,
    range: std::ops::Range<usize>,
) -> (Vec<TraceEvent>, String) {
    let (_, trace) = Simulation::run_traced(cfg, spec, seed, 200).expect("valid config");
    let window = Trace {
        events: trace.events[range].to_vec(),
    };
    let json = chrome_trace_json(&window);
    (window.events, json)
}

fn count(events: &[TraceEvent], pred: impl Fn(&TraceEvent) -> bool) -> usize {
    events.iter().filter(|e| pred(e)).count()
}

/// The Chrome trace of a faulty 3PC window, byte for byte: a master
/// crash and the termination protocol, cohort crashes, lost and
/// retransmitted messages, a durable force whose issue predates the
/// window, and forces still open when the stream ends.
#[test]
fn faulty_chrome_trace_matches_golden() {
    let (events, json) = chrome_window(&faulty_cfg(), ProtocolSpec::THREE_PC, 2027, 2290..2660);
    assert!(count(&events, |e| matches!(e, TraceEvent::MasterCrashed { .. })) > 0);
    assert!(
        count(&events, |e| matches!(
            e,
            TraceEvent::TerminationStarted { .. }
        )) > 0
    );
    assert!(count(&events, |e| matches!(e, TraceEvent::CohortCrashed { .. })) > 0);
    assert!(count(&events, |e| matches!(e, TraceEvent::MsgLost { .. })) > 0);
    assert!(count(&events, |e| matches!(e, TraceEvent::Retransmitted { .. })) > 0);
    assert!(json.contains(" durable\""), "an unmatched durable force");
    assert!(json.contains("(incomplete)"), "a force open at finish");
    assert!(json.contains("(local)") && json.contains('\u{2192}'));
    check("chrome_faulty.json", &json);
}

/// The Chrome traces of an OPT window (borrowing, shelving and release
/// off the shelf) and of a faulty Paxos Commit window at F = 1 (a
/// master crash and leader failover), as one JSON array.
#[test]
fn opt_and_paxos_chrome_traces_match_golden() {
    let (opt, opt_json) = chrome_window(&golden_cfg(), ProtocolSpec::OPT_2PC, 2026, 170..380);
    assert!(count(&opt, |e| matches!(e, TraceEvent::Borrowed { .. })) > 0);
    assert!(count(&opt, |e| matches!(e, TraceEvent::Shelved { .. })) > 0);
    assert!(count(&opt, |e| matches!(e, TraceEvent::Unshelved { .. })) > 0);
    let (paxos, paxos_json) = chrome_window(
        &faulty_cfg().with_replication(1),
        ProtocolSpec::PAXOS,
        2027,
        2150..2470,
    );
    assert!(count(&paxos, |e| matches!(e, TraceEvent::MasterCrashed { .. })) > 0);
    assert!(count(&paxos, |e| matches!(e, TraceEvent::FailoverStarted { .. })) > 0);
    check(
        "chrome_opt_paxos.json",
        &format!("[{opt_json},\n{paxos_json}]\n"),
    );
}
