//! Reproducibility guarantees: a run is a pure function of
//! (configuration, protocol, seed).

use distcommit::db::config::SystemConfig;
use distcommit::db::engine::Simulation;
use distcommit::db::metrics::SimReport;
use distcommit::proto::ProtocolSpec;

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.mpl = 4;
    cfg.run.warmup_transactions = 100;
    cfg.run.measured_transactions = 600;
    cfg
}

fn fingerprint(r: &SimReport) -> (u64, u64, u64, u64, String) {
    (
        r.committed,
        r.aborted_deadlock,
        r.aborted_surprise,
        r.events,
        format!(
            "{:.9}|{:.9}|{:.9}|{:.9}|{:.9}",
            r.throughput, r.mean_response_s, r.block_ratio, r.borrow_ratio, r.sim_seconds
        ),
    )
}

#[test]
fn same_seed_reproduces_every_protocol_exactly() {
    let cfg = small_cfg();
    for spec in ProtocolSpec::ALL {
        let a = Simulation::run(&cfg, spec, 1234).unwrap();
        let b = Simulation::run(&cfg, spec, 1234).unwrap();
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{} diverged across runs",
            spec.name()
        );
    }
}

#[test]
fn same_seed_reproduces_with_surprise_aborts_and_opt() {
    // The regression surface for the borrow-edge bug: lending + aborts.
    let mut cfg = small_cfg();
    cfg.cohort_abort_prob = 0.08;
    for spec in [
        ProtocolSpec::OPT_2PC,
        ProtocolSpec::OPT_3PC,
        ProtocolSpec::OPT_PA,
    ] {
        let a = Simulation::run(&cfg, spec, 77).unwrap();
        let b = Simulation::run(&cfg, spec, 77).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b), "{} diverged", spec.name());
    }
}

#[test]
fn different_seeds_give_statistically_close_but_distinct_runs() {
    let cfg = small_cfg();
    let a = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 1).unwrap();
    let b = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 2).unwrap();
    assert_ne!(
        a.events, b.events,
        "different seeds should not coincide event-for-event"
    );
    // ... but estimate the same steady state (generous 25% band for
    // short runs).
    let rel = (a.throughput - b.throughput).abs() / a.throughput;
    assert!(
        rel < 0.25,
        "throughput across seeds differs by {:.0}%",
        rel * 100.0
    );
}

#[test]
fn pa_reduces_to_2pc_without_aborts() {
    // §5.2: "In the absence of any other source of aborts, PA reduces
    // to 2PC and performs identically." The schedules differ only on
    // abort paths, so with no NO votes the two runs must be
    // event-for-event identical.
    let cfg = small_cfg();
    let two_pc = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 99).unwrap();
    let pa = Simulation::run(&cfg, ProtocolSpec::PA, 99).unwrap();
    assert_eq!(pa.aborted_surprise, 0);
    assert_eq!(two_pc.events, pa.events);
    assert_eq!(two_pc.committed, pa.committed);
    assert!((two_pc.throughput - pa.throughput).abs() < 1e-9);
    assert!((two_pc.mean_response_s - pa.mean_response_s).abs() < 1e-12);
}

/// Exact cross-check for the Topology layer: a degenerate 1-region
/// topology (zero latencies, no jitter, no hot site) must render
/// byte-identical reports to today's flat-latency model — the engine's
/// zero-latency fast path keeps the event stream unchanged, and the
/// topology's dedicated RNG stream never touches the workload stream.
/// This is the golden-compatible regression guard for the wire-latency
/// code: any accidental per-message draw or extra event breaks it.
#[test]
fn degenerate_topology_is_byte_identical_to_no_topology() {
    use distcommit::db::config::Topology;
    use distcommit::db::metrics::ReportFormat;
    let env_offset = std::env::var("DISTCOMMIT_TEST_SEED_OFFSET")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    for spec in [
        ProtocolSpec::TWO_PC,
        ProtocolSpec::THREE_PC,
        ProtocolSpec::OPT_2PC,
    ] {
        let plain_cfg = small_cfg();
        let mut degen_cfg = small_cfg();
        degen_cfg.topology = Some(Topology::default());
        let plain = Simulation::run(&plain_cfg, spec, 42 + env_offset).unwrap();
        let degen = Simulation::run(&degen_cfg, spec, 42 + env_offset).unwrap();
        assert_eq!(
            plain.render(ReportFormat::Json),
            degen.render(ReportFormat::Json),
            "{}: degenerate topology perturbed the run",
            spec.name()
        );
    }
    // Not vacuous: a topology with real WAN latency does change the run.
    let mut wan_cfg = small_cfg();
    wan_cfg.topology = Some("regions=4,wan-ms=40".parse().unwrap());
    let plain = Simulation::run(&small_cfg(), ProtocolSpec::TWO_PC, 42 + env_offset).unwrap();
    let wan = Simulation::run(&wan_cfg, ProtocolSpec::TWO_PC, 42 + env_offset).unwrap();
    assert_ne!(plain.events, wan.events);
    assert!(
        wan.mean_response_s > plain.mean_response_s,
        "WAN latency must lengthen responses ({:.4}s vs {:.4}s)",
        wan.mean_response_s,
        plain.mean_response_s
    );
}

/// Observers watch without steering: one faulty run observed by a
/// trace prefix, the fold sink, the series recorder and the
/// self-profiler at once reports bit-identically to a bare run, and
/// each sink's output is byte-identical to that sink watching a run on
/// its own.
#[test]
fn composed_observers_do_not_perturb() {
    use distcommit::db::engine::{FoldSink, Prefix, Profiled, SeriesConfig, SeriesRecorder, Trace};
    use distcommit::db::metrics::ReportFormat;
    let mut base = small_cfg();
    base.run.warmup_transactions = 50;
    base.run.measured_transactions = 400;
    base.failures = Some("mc=0.01,cc=0.005,loss=0.01".parse().unwrap());
    let series_cfg = SeriesConfig {
        window: simkernel::SimDuration::from_secs(1),
        per_site: true,
    };
    for (spec, cfg) in [
        (ProtocolSpec::TWO_PC, base.clone()),
        (ProtocolSpec::OPT_2PC, base.clone()),
        (ProtocolSpec::THREE_PC, base.clone()),
        (ProtocolSpec::PAXOS, base.clone().with_replication(1)),
    ] {
        let name = spec.name();
        let seed = 5;
        let bare = Simulation::run(&cfg, spec, seed).unwrap();
        let observers = (
            Prefix {
                txns: 40,
                sink: Trace::default(),
            },
            FoldSink::new(name),
            SeriesRecorder::buffered(&series_cfg),
            Profiled::default(),
        );
        let (report, (prefix, fold, rec, profiled)) =
            Simulation::run_observed(&cfg, spec, seed, observers).unwrap();
        assert_eq!(format!("{report:?}"), format!("{bare:?}"), "{name}");
        assert_eq!(
            report.render(ReportFormat::Json),
            bare.render(ReportFormat::Json),
            "{name}"
        );

        let (_, trace) = Simulation::run_with_sink(&cfg, spec, seed, 40, Trace::default()).unwrap();
        assert!(!trace.events.is_empty(), "{name}");
        assert_eq!(
            format!("{:?}", prefix.sink.events),
            format!("{:?}", trace.events),
            "{name}"
        );
        let (_, fold_alone) =
            Simulation::run_observed(&cfg, spec, seed, FoldSink::new(name)).unwrap();
        assert_eq!(fold.render(), fold_alone.render(), "{name}");
        let (_, series) = Simulation::run_with_series(&cfg, spec, seed, &series_cfg).unwrap();
        let composed = rec.into_series().unwrap();
        assert!(!series.windows.is_empty(), "{name}");
        for format in [
            distcommit::db::engine::SeriesFormat::Csv,
            distcommit::db::engine::SeriesFormat::Json,
        ] {
            assert_eq!(composed.render(format), series.render(format), "{name}");
        }
        let p = profiled.profile;
        assert_eq!(p.events, report.events, "{name}");
        assert_eq!(
            p.calendar_ns + p.dispatch_ns + p.locks_ns + p.series_ns,
            p.total_ns
        );
    }
}
