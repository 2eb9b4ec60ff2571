//! Step-by-step protocol choreography validation via the engine's
//! trace facility: each protocol must exchange exactly the messages and
//! force exactly the log records that §2 of the paper prescribes, in
//! causal order.

use distcommit::db::config::SystemConfig;
use distcommit::db::engine::{LogLabel, MsgLabel, Simulation, Trace, TraceEvent};
use distcommit::proto::ProtocolSpec;
use simkernel::SimTime;

/// A conflict-free 3-site setup so transaction 1's trace is pure
/// protocol, no lock waits or restarts.
fn traced(spec: ProtocolSpec) -> Trace {
    let cfg = SystemConfig::paper_baseline()
        .with_db_size(80_000)
        .with_mpl(1)
        .with_run_length(0, 40);
    let (report, trace) =
        Simulation::run_with_sink(&cfg, spec, 5, 1, Trace::default()).expect("valid config");
    assert_eq!(
        report.total_aborts(),
        0,
        "choreography runs must be conflict-free"
    );
    trace
}

fn is_send(label: MsgLabel) -> impl Fn(&TraceEvent) -> bool {
    move |e| matches!(e, TraceEvent::Send { label: l, .. } if *l == label)
}

fn is_log_done(label: LogLabel) -> impl Fn(&TraceEvent) -> bool {
    move |e| matches!(e, TraceEvent::LogDone { label: l, .. } if *l == label)
}

#[test]
fn two_pc_commit_choreography() {
    let tr = traced(ProtocolSpec::TWO_PC);
    // §2.1, DistDegree 3 = 2 remote cohorts.
    assert_eq!(tr.remote_sends(1, MsgLabel::InitCohort), 2);
    assert_eq!(tr.remote_sends(1, MsgLabel::WorkDone), 2);
    assert_eq!(tr.remote_sends(1, MsgLabel::Prepare), 2);
    assert_eq!(tr.remote_sends(1, MsgLabel::VoteYes), 2);
    assert_eq!(tr.remote_sends(1, MsgLabel::DecisionCommit), 2);
    assert_eq!(tr.remote_sends(1, MsgLabel::Ack), 2);
    // Local (free) copies exist for the master-site cohort.
    assert_eq!(tr.all_sends(1, MsgLabel::Prepare), 3);
    assert_eq!(tr.all_sends(1, MsgLabel::VoteYes), 3);
    assert_eq!(tr.all_sends(1, MsgLabel::Ack), 3);
    // Forced writes: prepare at every cohort, master commit, commit at
    // every cohort. Nothing else.
    assert_eq!(tr.forced_writes(1, LogLabel::Prepare), 3);
    assert_eq!(tr.forced_writes(1, LogLabel::MasterCommit), 1);
    assert_eq!(tr.forced_writes(1, LogLabel::CohortCommit), 3);
    assert_eq!(tr.forced_writes(1, LogLabel::Collecting), 0);
    assert_eq!(tr.forced_writes(1, LogLabel::MasterPrecommit), 0);
    // Causal order.
    tr.check_order(is_send(MsgLabel::WorkDone), is_send(MsgLabel::Prepare))
        .expect("prepares only after all WORKDONEs");
    tr.check_order(is_log_done(LogLabel::Prepare), is_send(MsgLabel::VoteYes))
        .unwrap_err(); // per-cohort, not global: some vote before others' logs...
                       // ...so check the per-cohort property instead: the first vote comes
                       // after the first prepare record, and the master commit record
                       // comes after every vote.
    tr.check_order(is_send(MsgLabel::VoteYes), |e| {
        matches!(
            e,
            TraceEvent::ForceLog {
                label: LogLabel::MasterCommit,
                ..
            }
        )
    })
    .expect("master decides only after all votes");
    tr.check_order(
        is_log_done(LogLabel::MasterCommit),
        is_send(MsgLabel::DecisionCommit),
    )
    .expect("COMMIT messages only after the forced commit record");
    tr.check_order(is_send(MsgLabel::DecisionCommit), is_send(MsgLabel::Ack))
        .expect("ACKs only after the decision went out");
    // Decision milestone present and positive.
    assert!(tr.events.iter().any(|e| matches!(
        e,
        TraceEvent::Decided {
            txn: 1,
            commit: true,
            ..
        }
    )));
}

#[test]
fn presumed_commit_choreography() {
    let tr = traced(ProtocolSpec::PC);
    // §2.3: collecting record first, no commit ACKs, no forced cohort
    // commit records.
    assert_eq!(tr.forced_writes(1, LogLabel::Collecting), 1);
    assert_eq!(tr.forced_writes(1, LogLabel::Prepare), 3);
    assert_eq!(tr.forced_writes(1, LogLabel::MasterCommit), 1);
    assert_eq!(tr.forced_writes(1, LogLabel::CohortCommit), 0);
    assert_eq!(tr.remote_sends(1, MsgLabel::Ack), 0);
    assert_eq!(tr.remote_sends(1, MsgLabel::DecisionCommit), 2);
    // The collecting record precedes the first PREPARE.
    tr.check_order(
        is_log_done(LogLabel::Collecting),
        is_send(MsgLabel::Prepare),
    )
    .expect("collecting record must be on disk before the vote starts");
}

#[test]
fn three_pc_commit_choreography() {
    let tr = traced(ProtocolSpec::THREE_PC);
    // §2.4: a full extra round plus precommit records everywhere.
    assert_eq!(tr.remote_sends(1, MsgLabel::PreCommit), 2);
    assert_eq!(tr.remote_sends(1, MsgLabel::PreAck), 2);
    assert_eq!(tr.forced_writes(1, LogLabel::MasterPrecommit), 1);
    assert_eq!(tr.forced_writes(1, LogLabel::CohortPrecommit), 3);
    assert_eq!(tr.forced_writes(1, LogLabel::Prepare), 3);
    assert_eq!(tr.forced_writes(1, LogLabel::MasterCommit), 1);
    assert_eq!(tr.forced_writes(1, LogLabel::CohortCommit), 3);
    // Ordering: votes → master precommit → PRECOMMIT out → preacks →
    // master commit → COMMIT out.
    tr.check_order(is_send(MsgLabel::VoteYes), |e| {
        matches!(
            e,
            TraceEvent::ForceLog {
                label: LogLabel::MasterPrecommit,
                ..
            }
        )
    })
    .expect("precommit after all votes");
    tr.check_order(
        is_log_done(LogLabel::MasterPrecommit),
        is_send(MsgLabel::PreCommit),
    )
    .expect("PRECOMMIT only after the master precommit record");
    tr.check_order(is_send(MsgLabel::PreAck), |e| {
        matches!(
            e,
            TraceEvent::ForceLog {
                label: LogLabel::MasterCommit,
                ..
            }
        )
    })
    .expect("commit record only after all preacks");
    tr.check_order(
        is_log_done(LogLabel::MasterCommit),
        is_send(MsgLabel::DecisionCommit),
    )
    .expect("COMMIT messages after the commit record");
}

#[test]
fn pa_commit_choreography_matches_2pc() {
    // §2.2: PA behaves identically to 2PC for committing transactions.
    let pa = traced(ProtocolSpec::PA);
    let two = traced(ProtocolSpec::TWO_PC);
    for label in [
        MsgLabel::Prepare,
        MsgLabel::VoteYes,
        MsgLabel::DecisionCommit,
        MsgLabel::Ack,
    ] {
        assert_eq!(
            pa.remote_sends(1, label),
            two.remote_sends(1, label),
            "{label:?}"
        );
    }
    for label in [
        LogLabel::Prepare,
        LogLabel::MasterCommit,
        LogLabel::CohortCommit,
    ] {
        assert_eq!(
            pa.forced_writes(1, label),
            two.forced_writes(1, label),
            "{label:?}"
        );
    }
}

#[test]
fn cent_has_no_messages_and_one_record() {
    let tr = traced(ProtocolSpec::CENT);
    let remote_total: usize = tr
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Send {
                    txn: 1,
                    local: false,
                    ..
                }
            )
        })
        .count();
    assert_eq!(remote_total, 0, "CENT exchanges no messages at all");
    assert_eq!(tr.forced_writes(1, LogLabel::MasterCommit), 1);
    assert_eq!(tr.forced_writes(1, LogLabel::Prepare), 0);
    assert_eq!(tr.forced_writes(1, LogLabel::CohortCommit), 0);
}

#[test]
fn dpcc_distributes_data_but_not_commit() {
    let tr = traced(ProtocolSpec::DPCC);
    assert_eq!(tr.remote_sends(1, MsgLabel::InitCohort), 2);
    assert_eq!(tr.remote_sends(1, MsgLabel::WorkDone), 2);
    assert_eq!(tr.remote_sends(1, MsgLabel::Prepare), 0);
    assert_eq!(tr.remote_sends(1, MsgLabel::DecisionCommit), 0);
    assert_eq!(tr.forced_writes(1, LogLabel::MasterCommit), 1);
    assert_eq!(tr.forced_writes(1, LogLabel::Prepare), 0);
}

#[test]
fn all_no_votes_abort_choreography() {
    // cohort_abort_prob = 1: every cohort vetoes, every transaction
    // aborts forever; cap the simulated time and inspect the first
    // transaction's abort path.
    let mut cfg = SystemConfig::paper_baseline()
        .with_db_size(80_000)
        .with_mpl(1)
        .with_cohort_abort_prob(1.0)
        .with_run_length(0, 10);
    cfg.run.max_sim_time = Some(SimTime::from_secs(30));

    // 2PC: NO voters force their abort records; there are no prepared
    // cohorts, so no ABORT messages and no ACKs; the master forces its
    // abort record.
    let (_, tr) =
        Simulation::run_with_sink(&cfg, ProtocolSpec::TWO_PC, 3, 1, Trace::default()).unwrap();
    assert_eq!(tr.remote_sends(1, MsgLabel::VoteNo), 2);
    assert_eq!(tr.remote_sends(1, MsgLabel::VoteYes), 0);
    assert_eq!(tr.forced_writes(1, LogLabel::NoVoteAbort), 3);
    assert_eq!(tr.forced_writes(1, LogLabel::MasterAbort), 1);
    assert_eq!(tr.forced_writes(1, LogLabel::Prepare), 0);
    assert_eq!(tr.remote_sends(1, MsgLabel::DecisionAbort), 0);
    assert!(tr
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::Aborted { txn: 1, .. })));

    // PA: "in case of doubt, abort" — nothing is forced anywhere.
    let (_, tr) =
        Simulation::run_with_sink(&cfg, ProtocolSpec::PA, 3, 1, Trace::default()).unwrap();
    assert_eq!(tr.forced_writes(1, LogLabel::NoVoteAbort), 0);
    assert_eq!(tr.forced_writes(1, LogLabel::MasterAbort), 0);
    assert_eq!(tr.remote_sends(1, MsgLabel::VoteNo), 2);
}

#[test]
fn single_no_vote_aborts_the_prepared_rest() {
    // Deterministically: with p = 1.0 every cohort votes NO. To get a
    // *mixed* vote we instead reconstruct from a p = 0.5 run: find a
    // traced transaction whose trace has both YES and NO votes and
    // check the abort fan-out against the prepared count.
    let cfg = SystemConfig::paper_baseline()
        .with_db_size(80_000)
        .with_mpl(1)
        .with_cohort_abort_prob(0.5)
        .with_run_length(0, 30);
    let (_, tr) =
        Simulation::run_with_sink(&cfg, ProtocolSpec::TWO_PC, 11, 200, Trace::default()).unwrap();
    let mut found = false;
    for txn in tr.txns() {
        let yes = tr.all_sends(txn, MsgLabel::VoteYes);
        let no = tr.all_sends(txn, MsgLabel::VoteNo);
        if yes > 0 && no > 0 {
            found = true;
            // ABORT goes exactly to the YES voters, each of which forces
            // an abort record and ACKs (2PC).
            assert_eq!(tr.all_sends(txn, MsgLabel::DecisionAbort), yes, "txn {txn}");
            assert_eq!(
                tr.forced_writes(txn, LogLabel::CohortAbort),
                yes,
                "txn {txn}"
            );
            assert_eq!(tr.all_sends(txn, MsgLabel::Ack), yes, "txn {txn}");
            assert_eq!(
                tr.forced_writes(txn, LogLabel::NoVoteAbort),
                no,
                "txn {txn}"
            );
        }
    }
    assert!(
        found,
        "expected at least one mixed-vote transaction in 200 traced"
    );
}

#[test]
fn opt_shelf_lifecycle_is_balanced() {
    // Under contention with no surprise aborts, every shelved cohort is
    // eventually unshelved (its lenders can only commit).
    let cfg = SystemConfig::pure_data_contention()
        .with_mpl(6)
        .with_run_length(0, 400);
    let (report, tr) =
        Simulation::run_with_sink(&cfg, ProtocolSpec::OPT_2PC, 13, 100_000, Trace::default())
            .unwrap();
    assert!(
        report.borrow_ratio > 0.0,
        "need borrowing for this test to bite"
    );
    let shelved: Vec<_> = tr
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Shelved { txn, cohort, .. } => Some((*txn, *cohort)),
            _ => None,
        })
        .collect();
    assert!(
        !shelved.is_empty(),
        "expected shelf activity at MPL 6 under DC"
    );
    for (txn, cohort) in shelved {
        let resolved = tr.events.iter().any(|e| match e {
            TraceEvent::Unshelved {
                txn: t, cohort: c, ..
            } => *t == txn && *c == cohort,
            TraceEvent::Aborted { txn: t, .. } => *t == txn,
            _ => false,
        });
        // Transactions still in flight at run end are exempt.
        let decided = tr
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Decided { txn: t, .. } if *t == txn));
        assert!(
            resolved || !decided,
            "txn {txn} cohort {cohort} was shelved, decided, but never unshelved"
        );
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let cfg = SystemConfig::paper_baseline()
        .with_mpl(4)
        .with_run_length(50, 400);
    let plain = Simulation::run(&cfg, ProtocolSpec::OPT_2PC, 17).unwrap();
    let (traced, trace) =
        Simulation::run_with_sink(&cfg, ProtocolSpec::OPT_2PC, 17, 10_000, Trace::default())
            .unwrap();
    assert_eq!(plain.events, traced.events);
    assert_eq!(plain.committed, traced.committed);
    assert!((plain.throughput - traced.throughput).abs() < 1e-12);
    assert!(!trace.events.is_empty());
}
