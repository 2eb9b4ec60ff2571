//! Commit-phase state machines: master and cohort sides of every
//! protocol (2PC, PA, PC, 3PC, linear 2PC, their OPT variants, the
//! CENT/DPCC baselines, and the replicated family).
//!
//! This file is a generic *interpreter* of the declarative protocol
//! table ([`commitproto::SpecTable`]): every protocol-specific
//! difference — which records are forced, who acknowledges what, how
//! phase-1 messages are routed, who takes over on a crash — is a
//! column of the table, never a `match` on the protocol name.

use super::types::{
    CohortH, CohortId, CohortPhase, LogWork, MsgKind, Parked, TxnH, TxnPhase, Vote,
};
use super::{Observer, Simulation};
use crate::config::TransType;
use crate::metrics::AbortReason;
use commitproto::{Routing, Takeover};

impl<O: Observer> Simulation<O> {
    // ------------------------------------------------------------------
    // Master: execution-phase completion
    // ------------------------------------------------------------------

    /// A WORKDONE arrived (possibly stale if the transaction aborted
    /// while the message was in flight, or a duplicate — WORKDONE rides
    /// its own retransmission timer under message loss, so a late
    /// resend can trail the copy that got through).
    pub(crate) fn master_workdone(&mut self, txn: TxnH, cohort: CohortH) {
        if !self.txns.contains(txn) {
            return;
        }
        let Some(c) = self.cohorts.get_mut(cohort) else {
            debug_assert!(
                self.cfg.failures.is_some(),
                "WORKDONE from a dead cohort without faults"
            );
            return;
        };
        if c.wd_seen {
            debug_assert!(
                self.cfg.failures.is_some(),
                "duplicate WORKDONE without faults"
            );
            return;
        }
        c.wd_seen = true;
        let t = self.txns.get_mut(txn).expect("checked above");
        debug_assert_eq!(t.phase, TxnPhase::Executing);
        t.pending_workdone -= 1;
        // Sequential transactions chain the next cohort off each
        // WORKDONE (§4.1).
        if self.cfg.trans_type == TransType::Sequential && t.next_seq_cohort < t.cohorts.len() {
            let next = t.cohorts[t.next_seq_cohort];
            t.next_seq_cohort += 1;
            let home = t.home;
            self.start_cohort(next, home);
            return;
        }
        if t.pending_workdone == 0 {
            self.begin_commit(txn);
        }
    }

    /// All cohorts reported: start commit processing.
    fn begin_commit(&mut self, txn: TxnH) {
        let now = self.cal.now();
        let t = self.txns.get_mut(txn).expect("live txn");
        t.commit_started = Some(now);
        let home = t.home;
        if !self.table.voting {
            // Baselines: the whole commit is one forced decision record
            // at the master (§5.1).
            t.phase = TxnPhase::LoggingDecision { commit: true };
            self.force_log(home, LogWork::MasterDecision { txn, commit: true });
        } else if self.table.init_record {
            // Presumed Commit force-writes the collecting record before
            // the first phase (§2.3).
            t.phase = TxnPhase::Collecting;
            self.force_log(home, LogWork::MasterCollecting { txn });
        } else if self.table.routing == Routing::Chain {
            // Linear 2PC: start the chain at the first (local) cohort.
            t.phase = TxnPhase::Voting;
            let first = t.cohorts[0];
            let site = self.cohorts[first].site;
            self.send(home, site, MsgKind::ChainPrepare { cohort: first });
        } else {
            self.send_prepares(txn);
        }
    }

    // ------------------------------------------------------------------
    // Linear 2PC chain plumbing
    // ------------------------------------------------------------------

    /// The chain neighbours of a cohort: `(predecessor, successor)`
    /// cohorts in the transaction's chain order.
    fn chain_neighbours(&self, cohort: CohortH) -> (Option<CohortH>, Option<CohortH>) {
        let txn = &self.txns[self.cohorts[cohort].txn];
        let pos = txn
            .cohorts
            .iter()
            .position(|&c| c == cohort)
            .expect("cohort in its txn");
        let pred = if pos > 0 {
            Some(txn.cohorts[pos - 1])
        } else {
            None
        };
        let succ = txn.cohorts.get(pos + 1).copied();
        (pred, succ)
    }

    /// A freshly prepared linear cohort: pass PREPARE down the chain,
    /// or — at the chain's end with every cohort prepared — turn the
    /// message flow around with the commit decision.
    fn linear_forward(&mut self, cohort: CohortH) {
        let (_, succ) = self.chain_neighbours(cohort);
        let site = self.cohorts[cohort].site;
        match succ {
            Some(next) => {
                let next_site = self.cohorts[next].site;
                self.send(site, next_site, MsgKind::ChainPrepare { cohort: next });
            }
            None => {
                // Everyone upstream (and this cohort) is prepared: the
                // global decision is commit; this cohort implements it
                // first and the decision rides the chain back.
                self.cohort_decision(cohort, true, 0);
            }
        }
    }

    /// A linear cohort finished implementing the decision: pass it
    /// backward, or hand it to the master at the chain's head.
    fn linear_backward(&mut self, cohort: CohortH, txn: TxnH, site: usize, commit: bool) {
        let (pred, _) = self.chain_neighbours(cohort);
        match pred {
            Some(prev) => {
                let prev_site = self.cohorts[prev].site;
                self.send(
                    site,
                    prev_site,
                    MsgKind::ChainDecision {
                        cohort: prev,
                        commit,
                    },
                );
            }
            None => {
                let home = self.txns[txn].home;
                self.send(site, home, MsgKind::ChainBack { txn, commit });
            }
        }
    }

    /// The decision reached the master at the end of the backward pass:
    /// force the master record; `master_decided` then completes the
    /// transaction (commit) or aborts the cohorts the forward chain
    /// never reached (abort).
    pub(crate) fn master_chain_back(&mut self, txn: TxnH, commit: bool) {
        self.decide_now(txn, commit);
    }

    /// PC's collecting record hit the disk: now run the vote.
    pub(crate) fn master_collected(&mut self, txn: TxnH) {
        self.send_prepares(txn);
    }

    fn send_prepares(&mut self, txn: TxnH) {
        let group = 2 * self.rep_f() as usize + 1;
        let quorum = self.table.routing == Routing::Quorum;
        let t = self.txns.get_mut(txn).expect("live txn");
        t.phase = TxnPhase::Voting;
        t.pending_votes = t.cohorts.len();
        if quorum {
            // Quorum routing: votes bypass the master and fan out to
            // the `2F+1` acceptors of the home shard's replica group.
            // Each acceptor waits for every cohort's vote, forces its
            // bundle, and reports ACCEPTED to the leader (the master,
            // co-located with acceptor 0).
            let n = t.cohorts.len() as u32;
            t.acc_pending.clear();
            t.acc_pending.resize(group, n);
            t.accepts_outstanding = group;
        }
        let home = t.home;
        for i in 0..t.cohorts.len() {
            let cohort = self.txns[txn].cohorts[i];
            let site = self.cohorts[cohort].site;
            self.send(home, site, MsgKind::Prepare { cohort });
        }
    }

    // ------------------------------------------------------------------
    // Cohort: voting phase
    // ------------------------------------------------------------------

    /// PREPARE arrived at a cohort: release read locks, then vote.
    /// With probability `cohort_abort_prob` the vote is a surprise NO
    /// (§5.7); otherwise the cohort force-writes its prepare record.
    pub(crate) fn cohort_prepare(&mut self, cohort: CohortH, attempt: u32) {
        // Under message loss PREPAREs are retransmitted on a timer, so a
        // duplicate can reach a cohort that already acted on the first
        // copy (or finished entirely). Without fault injection a stale
        // PREPARE is still an engine bug.
        let Some(c) = self.cohorts.get_mut(cohort) else {
            debug_assert!(self.cfg.failures.is_some(), "stale PREPARE without faults");
            return;
        };
        if attempt > c.req_attempt {
            c.req_attempt = attempt;
        }
        if c.down {
            // Crashed: the request reached the site (req_attempt above
            // is on record), but the answer waits for recovery.
            return;
        }
        if c.phase != CohortPhase::WorkDone {
            debug_assert!(
                self.cfg.failures.is_some(),
                "PREPARE in {:?} without faults",
                c.phase
            );
            // A duplicate of a PREPARE that already arrived — the timer
            // keeps firing until the master holds the vote, so the lost
            // leg may have been the *reply*: re-elicit it.
            match c.phase {
                CohortPhase::Parted => self.resend_parting_reply(cohort),
                CohortPhase::Prepared => {
                    let (site, txn, req) = (c.site, c.txn, c.req_attempt);
                    let control = self.txns[txn].control_site();
                    self.send_attempt(
                        site,
                        control,
                        MsgKind::Vote {
                            txn,
                            cohort,
                            vote: Vote::Yes,
                        },
                        req,
                    );
                }
                // Preparing: the vote follows once the prepare record
                // is durable (stamped with the updated req_attempt).
                // Later phases need no first-phase reply at all.
                _ => {}
            }
            return;
        }
        let (site, txn, owner, acc_index) = (c.site, c.txn, c.lock_owner, c.acc_index);
        let req = c.req_attempt;

        // Read-Only optimization (§3.2): a cohort with no updates has
        // nothing to make durable — it releases everything, answers
        // READ, and is finished with the protocol.
        if self.cfg.read_only_optimization
            && self.txns[txn].template.accesses[acc_index]
                .iter()
                .all(|a| !a.update)
        {
            let home = self.txns[txn].home;
            debug_assert!(
                !self.sites[site].locks.has_live_borrows(owner),
                "shelf rule was bypassed"
            );
            self.with_grants(site, |locks, grants| {
                locks.drop_borrower(owner);
                locks.release_all_into(owner, grants);
            });
            let reply = MsgKind::Vote {
                txn,
                cohort,
                vote: Vote::ReadOnly,
            };
            self.send_attempt(site, home, reply, req);
            self.part_or_done(cohort, reply);
            return;
        }

        // "the cohort releases all its read locks but retains its update
        // locks until it receives and implements the global decision"
        self.with_grants(site, |locks, grants| {
            locks.release_read_locks(owner, grants)
        });

        let votes_no =
            self.cfg.cohort_abort_prob > 0.0 && self.rng.chance(self.cfg.cohort_abort_prob);
        let c = self.cohorts.get_mut(cohort).expect("exists");
        if votes_no {
            c.phase = CohortPhase::Deciding { commit: false };
            if self.table.no_vote_abort_forced {
                self.force_log(site, LogWork::CohortNoVoteAbort { cohort });
            } else {
                self.cohort_no_vote_finish(cohort);
            }
        } else {
            c.phase = CohortPhase::Preparing;
            self.force_log(site, LogWork::CohortPrepare { cohort });
        }
    }

    /// A NO voter's unilateral abort is complete (after its forced abort
    /// record, if the protocol requires one): vote NO and vanish.
    pub(crate) fn cohort_no_vote_finish(&mut self, cohort: CohortH) {
        let c = self.cohorts.get(cohort).expect("live cohort");
        let (site, txn, owner, req) = (c.site, c.txn, c.lock_owner, c.req_attempt);
        let home = self.txns[txn].home;
        // A NO voter was never prepared, so it cannot have lent data;
        // it may itself have borrowed (all lenders committed, or it
        // could not have sent WORKDONE).
        assert!(
            self.sites[site].locks.borrowers_of(owner).next().is_none(),
            "NO voter lent data"
        );
        self.with_grants(site, |locks, grants| {
            locks.drop_borrower(owner);
            locks.release_all_into(owner, grants);
        });
        match self.table.routing {
            Routing::Chain => {
                // The veto turns the chain around: predecessors (all
                // prepared) abort one by one; the master aborts whoever
                // the forward pass never reached. (Chain routing rejects
                // fault injection, so there is no parting to consider.)
                self.linear_backward(cohort, txn, site, false);
                self.cohort_done(cohort);
            }
            Routing::Quorum => {
                // The NO goes to every acceptor; the abort decision
                // comes out of the accept round, so the NO voter is
                // finished (its vote legs are loss-exempt — see
                // `loss_eligible` — hence no parting).
                self.quorum_vote(cohort, txn, false);
                self.cohort_done(cohort);
            }
            Routing::Direct => {
                let reply = MsgKind::Vote {
                    txn,
                    cohort,
                    vote: Vote::No,
                };
                self.send_attempt(site, home, reply, req);
                self.part_or_done(cohort, reply);
            }
        }
    }

    /// The prepare record is on disk: the cohort is now *prepared* —
    /// under OPT its update locks become lendable — and votes YES.
    pub(crate) fn cohort_prepared(&mut self, cohort: CohortH) {
        let now = self.cal.now();
        let c = self.cohorts.get_mut(cohort).expect("live cohort");
        debug_assert_eq!(c.phase, CohortPhase::Preparing);
        c.phase = CohortPhase::Prepared;
        c.prepared_since = Some(now);
        let (site, txn, owner, cid) = (c.site, c.txn, c.lock_owner, c.id);
        let txn_ext = self.txns[txn].id;
        self.trace_event(txn_ext, |at| super::trace::TraceEvent::Prepared {
            at,
            txn: txn_ext,
            cohort: cid,
            site,
        });
        // Cohort-crash injection point #1: the prepare record is
        // durable, but the cohort dies before lending its locks or
        // voting. The master cannot decide with the vote outstanding,
        // so it waits; recovery replays the record and re-votes.
        if self.cohort_crash_roll(cohort, txn) {
            return;
        }
        let home = self.txns[txn].home;
        self.with_grants(site, |locks, grants| locks.mark_prepared(owner, grants));
        match self.table.routing {
            Routing::Chain => self.linear_forward(cohort),
            Routing::Quorum => self.quorum_vote(cohort, txn, true),
            Routing::Direct => {
                let req = self.cohorts[cohort].req_attempt;
                self.send_attempt(
                    site,
                    home,
                    MsgKind::Vote {
                        txn,
                        cohort,
                        vote: Vote::Yes,
                    },
                    req,
                );
            }
        }
    }

    /// Quorum routing: fan this cohort's vote out to every acceptor of
    /// the home shard's replica group (acceptor 0 is the leader's own
    /// site, so that leg is a free local transfer for the home cohort).
    fn quorum_vote(&mut self, cohort: CohortH, txn: TxnH, yes: bool) {
        let site = self.cohorts[cohort].site;
        let home = self.txns[txn].home;
        for acc in 0..(2 * self.rep_f() + 1) {
            let acc_site = self.acceptor_site(home, acc);
            self.send(site, acc_site, MsgKind::PaxosVote { txn, acc, yes });
        }
    }

    /// Roll for a cohort crash at one of the replay points (work
    /// finished in the execution phase / prepare record durable /
    /// precommit record durable). On a hit the cohort goes silent —
    /// locks held, nothing lent, no answer to the master — and a
    /// restart is scheduled `cohort_recovery_time` later.
    pub(crate) fn cohort_crash_roll(&mut self, cohort: CohortH, txn: TxnH) -> bool {
        let Some(f) = self.cfg.failures else {
            return false;
        };
        self.cohort_crash_roll_p(cohort, txn, f.cohort_crash_prob)
    }

    /// The execution-phase crash window (cohort dies before its
    /// WORKDONE leaves). Same machinery as the replay points, but the
    /// probability can be tuned — or switched off — independently via
    /// [`crate::config::FailureConfig::exec_crash_prob`].
    pub(crate) fn exec_crash_roll(&mut self, cohort: CohortH, txn: TxnH) -> bool {
        let Some(f) = self.cfg.failures else {
            return false;
        };
        let p = f.exec_crash_prob.unwrap_or(f.cohort_crash_prob);
        self.cohort_crash_roll_p(cohort, txn, p)
    }

    fn cohort_crash_roll_p(&mut self, cohort: CohortH, txn: TxnH, p: f64) -> bool {
        let f = self.cfg.failures.expect("caller checked");
        if p == 0.0 {
            return false;
        }
        // Correlated-failure scope: with `crash-region=R`, only cohorts
        // at sites of topology region R may crash. The gate sits before
        // the trial bump *and* the RNG roll, so the trial counter
        // reflects eligible rolls only and the random stream is exactly
        // the eligible subsequence — a run with every site in region R
        // is bit-identical to an unscoped one.
        if let Some(r) = f.crash_region {
            let t = self.cfg.topology.expect("validate() requires a topology");
            let site = self.cohorts[cohort].site;
            if t.region_of(site, self.sites.len()) != r {
                return false;
            }
        }
        self.metrics.cohort_crash_trials.bump();
        if !self.rng.chance(p) {
            return false;
        }
        let now = self.cal.now();
        self.metrics.cohort_crashes.bump();
        let c = self.cohorts.get_mut(cohort).expect("live cohort");
        c.down = true;
        let (cid, site) = (c.id, c.site);
        let t = self.txns.get_mut(txn).expect("live txn");
        t.crashed = true;
        t.crashed_at.get_or_insert(now);
        let txn_ext = t.id;
        self.trace_event(txn_ext, |at| super::trace::TraceEvent::CohortCrashed {
            at,
            txn: txn_ext,
            cohort: cid,
            site,
        });
        self.cal.schedule_in(
            f.cohort_recovery_time,
            super::types::Event::CohortRecovered { cohort },
        );
        true
    }

    /// A crashed cohort restarted: re-read the last forced log record
    /// and rejoin the protocol per the presumption rules
    /// ([`commitproto::BaseProtocol::recovery_action`]). A cohort that
    /// crashed past its prepare record is guaranteed to still exist —
    /// the master cannot have decided with its vote (or precommit ack)
    /// outstanding — but one that crashed in the *execution* phase may
    /// be gone: its transaction can be aborted meanwhile (deadlock
    /// victim, borrower cascade), tearing the cohort down.
    pub(crate) fn cohort_recovered(&mut self, cohort: CohortH) {
        let Some(c) = self.cohorts.get_mut(cohort) else {
            debug_assert!(
                self.cfg.failures.is_some(),
                "stale cohort recovery without faults"
            );
            return;
        };
        c.down = false;
        let (site, txn, phase, owner, cid, req) =
            (c.site, c.txn, c.phase, c.lock_owner, c.id, c.req_attempt);
        let txn_ext = self.txns[txn].id;
        self.trace_event(txn_ext, |at| super::trace::TraceEvent::CohortRecovered {
            at,
            txn: txn_ext,
            cohort: cid,
        });
        let record = match phase {
            CohortPhase::Prepared => commitproto::RecoveryRecord::Prepared,
            CohortPhase::Precommitted => commitproto::RecoveryRecord::Precommitted,
            _ => commitproto::RecoveryRecord::None,
        };
        let home = self.txns[txn].home;
        match self.spec.base.recovery_action(record) {
            commitproto::RecoveryAction::ResendVote => {
                // The replayed prepare record re-enters the prepared
                // state: only now do the locks become lendable (a down
                // site cannot serve borrow requests).
                self.with_grants(site, |locks, grants| locks.mark_prepared(owner, grants));
                if self.table.routing == Routing::Quorum {
                    // The crash hit before the vote fan-out left (the
                    // roll precedes the sends), so the acceptors are
                    // still waiting: run the fan-out now, once.
                    self.quorum_vote(cohort, txn, true);
                } else {
                    self.send_attempt(
                        site,
                        home,
                        MsgKind::Vote {
                            txn,
                            cohort,
                            vote: Vote::Yes,
                        },
                        req,
                    );
                }
            }
            commitproto::RecoveryAction::ResendPreAck => {
                self.send_attempt(site, home, MsgKind::PreAck { txn, cohort }, req);
            }
            commitproto::RecoveryAction::PresumeAbort => {
                // No forced record to replay: the crash hit in the
                // execution phase, the cohort's volatile state is gone,
                // and the presumption rules abort the transaction. The
                // master could not have started voting with this
                // cohort's WORKDONE outstanding, so the incarnation is
                // still abortable; it restarts with its template.
                debug_assert_eq!(phase, CohortPhase::Executing);
                self.abort_txn(txn, crate::metrics::AbortReason::CohortCrash);
            }
        }
    }

    // ------------------------------------------------------------------
    // Master: vote collection and decision
    // ------------------------------------------------------------------

    pub(crate) fn master_vote(&mut self, txn: TxnH, cohort: CohortH, vote: Vote) {
        if self.lossy() {
            // Dedup under message loss: a re-elicited vote can trail
            // the copy that got through. The receipt flag screens
            // duplicates regardless of phase — a parted YES voter is
            // awaiting its ACK receipt, so a trailing stale vote must
            // NOT retire (or re-count) it. READ/NO voters part *when*
            // they vote, so their first receipt retires the slab entry
            // and later duplicates miss it.
            match self.cohorts.get_mut(cohort) {
                None => return,
                Some(c) => {
                    if c.vote_seen {
                        return;
                    }
                    c.vote_seen = true;
                    if c.phase == CohortPhase::Parted {
                        self.cohorts.remove(cohort);
                    }
                }
            }
        }
        let t = self.txns.get_mut(txn).expect("no stale votes");
        debug_assert_eq!(t.phase, TxnPhase::Voting);
        if vote == Vote::No {
            t.no_vote = true;
        }
        t.pending_votes -= 1;
        if t.pending_votes > 0 {
            return;
        }
        let no_vote = t.no_vote;
        // Phase-two participants: cohorts still alive (READ voters
        // already left the slab — via `cohort_done`, or via parting
        // once their vote was received above).
        let participants = self.participants(txn).count();
        if no_vote {
            self.decide(txn, false);
        } else if participants == 0 {
            // Fully read-only transaction under the Read-Only
            // optimization: one-phase commit, no decision record.
            self.master_decided(txn, true);
        } else if self.table.precommit {
            let t = self.txns.get_mut(txn).expect("live txn");
            let home = t.home;
            t.phase = TxnPhase::Precommitting;
            self.force_log(home, LogWork::MasterPrecommit { txn });
        } else {
            self.decide(txn, true);
        }
    }

    /// 3PC: the master's precommit record is on disk — run the
    /// precommit round (participants only; READ voters dropped out).
    pub(crate) fn master_precommit_logged(&mut self, txn: TxnH) {
        let home = self.txns[txn].home;
        let participants = self.participants(txn).count();
        self.txns[txn].pending_preacks = participants;
        self.send_to_participants(txn, home, |cohort| MsgKind::PreCommit { cohort });
    }

    pub(crate) fn cohort_precommit(&mut self, cohort: CohortH, attempt: u32) {
        let Some(c) = self.cohorts.get_mut(cohort) else {
            debug_assert!(
                self.cfg.failures.is_some(),
                "stale PRECOMMIT without faults"
            );
            return;
        };
        if attempt > c.req_attempt {
            c.req_attempt = attempt;
        }
        if c.down {
            return;
        }
        if c.phase != CohortPhase::Prepared {
            // A retransmitted PRECOMMIT reached a cohort already past
            // the prepared state — a duplicate. The timer keeps firing
            // until the master holds the PREACK, so if the cohort is
            // already precommitted the lost leg was the reply:
            // re-elicit it.
            debug_assert!(
                self.cfg.failures.is_some(),
                "PRECOMMIT in {:?} without faults",
                c.phase
            );
            if c.phase == CohortPhase::Precommitted {
                let (site, txn, req) = (c.site, c.txn, c.req_attempt);
                let home = self.txns[txn].home;
                self.send_attempt(site, home, MsgKind::PreAck { txn, cohort }, req);
            }
            return;
        }
        c.phase = CohortPhase::Precommitting;
        let site = c.site;
        self.force_log(site, LogWork::CohortPrecommit { cohort });
    }

    pub(crate) fn cohort_precommitted(&mut self, cohort: CohortH) {
        let c = self.cohorts.get_mut(cohort).expect("live cohort");
        c.phase = CohortPhase::Precommitted;
        let (site, txn, req) = (c.site, c.txn, c.req_attempt);
        // Cohort-crash injection point #2: the precommit record is
        // durable but the ack never leaves. Recovery re-announces the
        // precommitted state.
        if self.cohort_crash_roll(cohort, txn) {
            return;
        }
        let home = self.txns[txn].home;
        self.send_attempt(site, home, MsgKind::PreAck { txn, cohort }, req);
    }

    pub(crate) fn master_preack(&mut self, txn: TxnH, cohort: CohortH) {
        if self.lossy() {
            // Dedup: re-elicited PREACKs can trail the original.
            let Some(c) = self.cohorts.get_mut(cohort) else {
                return;
            };
            if c.preack_seen {
                return;
            }
            c.preack_seen = true;
        }
        let t = self.txns.get_mut(txn).expect("live txn");
        t.pending_preacks -= 1;
        if t.pending_preacks == 0 {
            self.decide(txn, true);
        }
    }

    /// Take the global decision. When failure injection is active, a
    /// committing master may crash here — the classic blocking window:
    /// votes (and, for 3PC, preacks) collected, decision not yet
    /// announced. Blocking protocols stall until the master recovers;
    /// 3PC's cohorts detect the crash and terminate on their own.
    fn decide(&mut self, txn: TxnH, commit: bool) {
        if commit {
            if let Some(f) = self.cfg.failures {
                if f.master_crash_prob > 0.0 && self.table.voting {
                    self.metrics.master_crash_trials.bump();
                    if self.rng.chance(f.master_crash_prob) {
                        let now = self.cal.now();
                        self.metrics.master_crashes.bump();
                        let t = self.txns.get_mut(txn).expect("live txn");
                        t.crashed = true;
                        t.crashed_at.get_or_insert(now);
                        let txn_ext = t.id;
                        self.trace_event(txn_ext, |at| super::trace::TraceEvent::MasterCrashed {
                            at,
                            txn: txn_ext,
                        });
                        // Can the survivors finish without the crashed
                        // coordinator? Leader failover needs a live
                        // backup acceptor — the F=0 degenerate case
                        // blocks exactly like 2PC.
                        let survivors_take_over = match self.table.takeover {
                            Takeover::Block => false,
                            Takeover::CohortTermination => true,
                            Takeover::LeaderFailover => self.rep_f() > 0,
                        };
                        if survivors_take_over {
                            self.cal.schedule_in(
                                f.detection_timeout,
                                super::types::Event::StartTermination { txn },
                            );
                        } else {
                            self.cal.schedule_in(
                                f.recovery_time,
                                super::types::Event::MasterRecovered { txn, commit },
                            );
                        }
                        return;
                    }
                }
            }
        }
        self.decide_now(txn, commit);
    }

    /// The crash-free decision path: force the decision record first
    /// when the protocol requires it (PA skips the forced write on
    /// abort). Also the resumption point after a master recovery.
    pub(crate) fn decide_now(&mut self, txn: TxnH, commit: bool) {
        if self.table.master_decision_forced.on(commit) {
            let t = self.txns.get_mut(txn).expect("live txn");
            t.phase = TxnPhase::LoggingDecision { commit };
            let control = t.control_site();
            self.force_log(control, LogWork::MasterDecision { txn, commit });
        } else {
            self.master_decided(txn, commit);
        }
    }

    // ------------------------------------------------------------------
    // Failure handling: recovery and 3PC termination
    // ------------------------------------------------------------------

    /// The survivors detected the coordinator crash: run the takeover
    /// round the table prescribes — cohort termination (3PC) or leader
    /// failover (Paxos Commit). Both count as termination rounds in the
    /// fault report.
    pub(crate) fn start_termination(&mut self, txn: TxnH) {
        self.metrics.termination_rounds.bump();
        if self.table.takeover == Takeover::LeaderFailover {
            self.start_leader_failover(txn);
        } else {
            self.start_cohort_termination(txn);
        }
    }

    /// The 3PC termination protocol (§2.4's non-blocking guarantee):
    /// the surviving cohorts elect the lowest-site cohort as
    /// coordinator; it collects everyone's state and decides. At the
    /// modeled crash point every cohort is precommitted, so the
    /// termination rule decides commit.
    fn start_cohort_termination(&mut self, txn: TxnH) {
        let t = self.txns.get(txn).expect("live txn");
        debug_assert!(self.table.precommit);
        let txn_ext = t.id;
        let mut live: Vec<(CohortH, usize, CohortId)> = (self.participants(txn))
            .map(|(c, site)| (c, site, self.cohorts[c].id))
            .collect();
        live.sort_by_key(|&(_, site, cid)| (site, cid));
        let (_, coord_site, coordinator) = live[0];
        self.trace_event(txn_ext, |at| super::trace::TraceEvent::TerminationStarted {
            at,
            txn: txn_ext,
            coordinator,
        });
        let t = self.txns.get_mut(txn).expect("live txn");
        t.coordinator_site = Some(coord_site);
        t.pending_term_reps = live.len() - 1;
        if t.pending_term_reps == 0 {
            self.coordinator_decides(txn);
            return;
        }
        for &(cohort, site, _) in &live[1..] {
            self.send(coord_site, site, MsgKind::TermStateReq { cohort });
        }
    }

    /// A cohort answers the termination coordinator's state request.
    pub(crate) fn cohort_term_state_req(&mut self, cohort: CohortH) {
        let c = self.cohorts.get(cohort).expect("live cohort");
        debug_assert_eq!(c.phase, CohortPhase::Precommitted);
        let (site, txn) = (c.site, c.txn);
        let control = self.txns[txn].control_site();
        self.send(site, control, MsgKind::TermStateRep { txn });
    }

    /// The coordinator collected a state report.
    pub(crate) fn coordinator_term_state_rep(&mut self, txn: TxnH) {
        let t = self.txns.get_mut(txn).expect("live txn");
        debug_assert!(t.pending_term_reps > 0);
        t.pending_term_reps -= 1;
        if t.pending_term_reps == 0 {
            self.coordinator_decides(txn);
        }
    }

    /// All states collected (everyone precommitted): the coordinator
    /// force-writes the commit record at its own site and takes over
    /// the rest of the protocol.
    fn coordinator_decides(&mut self, txn: TxnH) {
        self.decide_now(txn, true);
    }

    /// Paxos Commit's leader failover (Gray & Lamport §5): the first
    /// backup acceptor becomes leader after the detection timeout,
    /// reads the accepted states of a majority (its own bundle plus `F`
    /// of the remaining `2F-1` acceptors), and completes the protocol.
    /// The crash point is past the accept quorum, so the outcome the
    /// new leader reads is commit. Protocol control — decision fan-out,
    /// ACK collection — moves to the new leader's site.
    fn start_leader_failover(&mut self, txn: TxnH) {
        let f = self.rep_f();
        debug_assert!(f > 0, "F=0 blocks; the crash path never gets here");
        let t = self.txns.get(txn).expect("live txn");
        let (txn_ext, home) = (t.id, t.home);
        let leader = self.acceptor_site(home, 1);
        self.trace_event(txn_ext, |at| super::trace::TraceEvent::FailoverStarted {
            at,
            txn: txn_ext,
            leader,
        });
        let t = self.txns.get_mut(txn).expect("live txn");
        t.coordinator_site = Some(leader);
        t.pending_term_reps = f as usize;
        // Query every remaining acceptor (the new leader cannot know
        // which are alive); the first F replies complete the majority
        // and the surplus is ignored on arrival.
        for acc in 2..(2 * f + 1) {
            let site = self.acceptor_site(home, acc);
            self.send(leader, site, MsgKind::AccStateReq { txn, acc });
        }
    }

    /// An acceptor answers the new leader's state query. Every vote
    /// reached every acceptor before the accept quorum formed, so the
    /// report is immediate — its content (all YES at the modeled crash
    /// point) is implied and the message itself is what costs.
    pub(crate) fn acceptor_state_req(&mut self, txn: TxnH, acc: u32) {
        let Some(t) = self.txns.get(txn) else {
            debug_assert!(self.cfg.failures.is_some(), "stale state query");
            return;
        };
        let home = t.home;
        let control = t.control_site();
        let site = self.acceptor_site(home, acc);
        self.send(site, control, MsgKind::AccStateRep { txn });
    }

    /// The new leader collected an acceptor's state report; at a
    /// majority it decides. Surplus reports (the queries went to all
    /// `2F-1` remaining acceptors) arrive after the decision and are
    /// dropped here.
    pub(crate) fn leader_acc_state_rep(&mut self, txn: TxnH) {
        let Some(t) = self.txns.get_mut(txn) else {
            return;
        };
        if t.pending_term_reps == 0 {
            return;
        }
        t.pending_term_reps -= 1;
        if t.pending_term_reps == 0 {
            self.decide_now(txn, true);
        }
    }

    /// **The decision point.** On commit this is where throughput is
    /// counted and the closed loop submits the next transaction; on
    /// abort the transaction is rescheduled after the adaptive delay.
    pub(crate) fn master_decided(&mut self, txn: TxnH, commit: bool) {
        let now = self.cal.now();
        let txn_ext = self.txns[txn].id;
        self.trace_event(txn_ext, |at| super::trace::TraceEvent::Decided {
            at,
            txn: txn_ext,
            commit,
        });
        let t = self.txns.get_mut(txn).expect("live txn");
        t.phase = TxnPhase::Decided { commit };
        t.decided_at = Some(now);
        let home = t.home;
        let control = t.control_site();
        let commit_started = t.commit_started;
        self.metrics.live_txns.add(now, -1.0);

        if commit {
            let response = now.since(t.original_birth);
            let attempt = now.since(t.birth);
            let birth = t.birth;
            self.resp_estimate.record(response.as_secs_f64());
            self.metrics.record_commit(now, response, attempt);
            self.obs.on_commit(home);
            // Phase split: execution runs from (re)submission to the
            // start of commit processing; voting from there to the
            // decision. Baselines without a voting phase start commit
            // processing at the decision point itself.
            let started = commit_started.unwrap_or(now);
            self.metrics.phase_execution.record(started.since(birth));
            self.metrics.phase_voting.record(now.since(started));
            self.cal.schedule_now(super::types::Event::Submit {
                home,
                restart: None,
            });
            self.note_commit_for_run_control();
        } else {
            self.metrics.record_abort(AbortReason::SurpriseVote);
            self.trace_event(txn_ext, |at| super::trace::TraceEvent::Aborted {
                at,
                txn: txn_ext,
            });
            // The transaction lives on until its cohorts implement
            // the abort, so the restart gets a (pooled) copy.
            let mut template = self.pools.templates.pop().unwrap_or_default();
            let t = self.txns.get(txn).expect("live txn");
            template.clone_from(&t.template);
            let original_birth = t.original_birth;
            self.schedule_restart(
                home,
                Parked {
                    template,
                    original_birth,
                },
            );
        }

        if !self.table.voting {
            // Baselines: commit processing is the single decision
            // record — every cohort completes instantly, no messages
            // (§5.1).
            debug_assert!(commit);
            for i in 0..self.txns[txn].cohorts.len() {
                let ch = self.txns[txn].cohorts[i];
                self.baseline_finish_cohort(ch);
            }
            let t = self.txns.get_mut(txn).expect("live txn");
            t.master_done = true;
            self.try_cleanup(txn);
        } else {
            // Send the decision to the surviving (prepared /
            // precommitted) cohorts; NO voters aborted unilaterally.
            let acks = if self.table.cohort_ack.on(commit) {
                self.participants(txn).count()
            } else {
                0
            };
            let t = self.txns.get_mut(txn).expect("live txn");
            t.pending_acks = acks;
            t.master_done = acks == 0;
            self.send_to_participants(txn, control, |cohort| MsgKind::Decision { cohort, commit });
            self.try_cleanup(txn);
        }
    }

    /// CENT/DPCC: a cohort's instant completion at the decision point.
    fn baseline_finish_cohort(&mut self, cohort: CohortH) {
        let c = self.cohorts.get(cohort).expect("live cohort");
        let (site, owner) = (c.site, c.lock_owner);
        self.with_grants(site, |locks, grants| locks.release_all_into(owner, grants));
        self.enqueue_deferred_writes(cohort);
        self.cohort_done(cohort);
    }

    // ------------------------------------------------------------------
    // Cohort: decision phase
    // ------------------------------------------------------------------

    /// The global decision arrived at a prepared (or precommitted)
    /// cohort.
    pub(crate) fn cohort_decision(&mut self, cohort: CohortH, commit: bool, attempt: u32) {
        let now = self.cal.now();
        // Under message loss the decision is retransmitted on a timer:
        // a duplicate can arrive after the first copy finished the
        // cohort (gone from the slab) or while its decision record is
        // being forced (`Deciding`). Without faults both are bugs.
        let Some(c) = self.cohorts.get_mut(cohort) else {
            debug_assert!(self.cfg.failures.is_some(), "stale decision without faults");
            return;
        };
        if attempt > c.req_attempt {
            c.req_attempt = attempt;
        }
        if c.phase == CohortPhase::Parted {
            // The decision evidently arrived once already and the ACK
            // was the lost leg: repeat it.
            debug_assert!(self.cfg.failures.is_some());
            self.resend_parting_reply(cohort);
            return;
        }
        // Linear 2PC only: a cohort the forward chain never reached
        // (still WorkDone) learns of the abort from the master. It was
        // never prepared, so it aborts like an active cohort: no log
        // record, no acknowledgement, no backward hop.
        if c.phase == CohortPhase::WorkDone {
            debug_assert!(self.table.routing == Routing::Chain && !commit);
            let (site, owner) = (c.site, c.lock_owner);
            self.with_grants(site, |locks, grants| {
                locks.drop_borrower(owner);
                locks.release_all_into(owner, grants);
            });
            self.cohort_done(cohort);
            return;
        }
        if !matches!(c.phase, CohortPhase::Prepared | CohortPhase::Precommitted) {
            debug_assert!(
                self.cfg.failures.is_some(),
                "decision in {:?} without faults",
                c.phase
            );
            return;
        }
        let txn = c.txn;
        if let Some(since) = c.prepared_since.take() {
            self.metrics.prepared_time.record_duration(now.since(since));
            // Blocked-on-crash lock-hold time: the part of this
            // cohort's prepared window spent with a crash outstanding
            // somewhere in its transaction.
            if let Some(crashed_at) = self.txns[txn].crashed_at {
                let from = if crashed_at > since {
                    crashed_at
                } else {
                    since
                };
                self.metrics.blocked_on_crash_cohorts.bump();
                self.metrics
                    .crash_block_time
                    .record(now.since(from).as_secs_f64());
            }
        }
        let c = self.cohorts.get_mut(cohort).expect("checked above");
        let site = c.site;
        if self.table.cohort_decision_forced.on(commit) {
            c.phase = CohortPhase::Deciding { commit };
            self.force_log(site, LogWork::CohortDecision { cohort, commit });
        } else {
            self.cohort_finish_decision(cohort, commit);
        }
    }

    /// Implement the decision at the cohort: settle OPT borrow edges
    /// (commit unshelves borrowers; abort kills them — the length-one
    /// abort chain of §3.1), release the update locks, write back, and
    /// acknowledge if the protocol wants it.
    pub(crate) fn cohort_finish_decision(&mut self, cohort: CohortH, commit: bool) {
        let c = self.cohorts.get(cohort).expect("live cohort");
        let (site, txn, owner) = (c.site, c.txn, c.lock_owner);
        // ACKs go wherever protocol control lives (the termination
        // coordinator after a 3PC master crash).
        let home = self.txns[txn].control_site();

        // Order matters: the cohort's borrow edges are settled and its
        // locks released *before* any borrower is unshelved or aborted.
        // Handling borrowers first would let their own lock releases
        // drain queues and grant fresh borrows against this cohort —
        // which is still marked prepared until `release_all` — leaving
        // dangling borrow edges to a dead lender (a shelf hang).
        let mut owners = std::mem::take(&mut self.pools.owners);
        let mut borrowers = std::mem::take(&mut self.pools.borrowers);
        let sref = &mut self.sites[site];
        sref.locks.settle_borrows(owner, &mut owners);
        debug_assert!(
            !sref.locks.has_live_borrows(owner),
            "a deciding cohort cannot be borrowing"
        );
        sref.locks.drop_borrower(owner);
        // Resolve borrower owner slots to cohorts before any teardown
        // below can unregister (and recycle) them.
        borrowers.extend(owners.drain(..).map(|o| sref.cohort_of(o)));
        self.pools.owners = owners;
        self.with_grants(site, |locks, grants| locks.release_all_into(owner, grants));

        if commit {
            self.enqueue_deferred_writes(cohort);
            for &b in &borrowers {
                let unshelve = match self.cohorts.get(b) {
                    Some(bc) if bc.phase == CohortPhase::OnShelf => {
                        !self.sites[site].locks.has_live_borrows(bc.lock_owner)
                    }
                    _ => false,
                };
                if unshelve {
                    // "taken off the shelf and allowed to send its
                    // WORKDONE message" (§3)
                    self.cohort_send_workdone(b);
                }
            }
        } else {
            for &b in &borrowers {
                if let Some(bc) = self.cohorts.get(b) {
                    // "the borrower is also aborted since it has utilized
                    // inconsistent data" (§3)
                    let btxn = bc.txn;
                    self.abort_txn(btxn, AbortReason::BorrowerCascade);
                }
            }
        }
        borrowers.clear();
        self.pools.borrowers = borrowers;

        if self.table.cohort_ack.on(commit) {
            let req = self.cohorts[cohort].req_attempt;
            let reply = MsgKind::Ack { txn, cohort };
            self.send_attempt(site, home, reply, req);
            self.part_or_done(cohort, reply);
            return;
        }
        if self.table.routing == Routing::Chain {
            // The implemented decision continues up the chain (this is
            // also the acknowledgement; there are no separate ACKs).
            self.linear_backward(cohort, txn, site, commit);
        }
        self.cohort_done(cohort);
    }

    pub(crate) fn master_ack(&mut self, txn: TxnH, cohort: CohortH) {
        if self.lossy() {
            // An ACK sender always parts: the first receipt finds the
            // parted entry and retires it; duplicates miss the slab.
            if self
                .cohorts
                .get(cohort)
                .is_some_and(|c| c.phase == CohortPhase::Parted)
            {
                self.cohorts.remove(cohort);
            } else {
                debug_assert!(self.cohorts.get(cohort).is_none(), "ACK from a live cohort");
                return;
            }
        }
        let t = self.txns.get_mut(txn).expect("no stale acks");
        debug_assert!(t.pending_acks > 0);
        t.pending_acks -= 1;
        if t.pending_acks == 0 {
            // The master writes a (non-forced, hence free) end record
            // and forgets the transaction.
            t.master_done = true;
            self.try_cleanup(txn);
        }
    }

    // ------------------------------------------------------------------
    // Teardown bookkeeping
    // ------------------------------------------------------------------

    /// Whether duplicate deliveries are possible at all. Only message
    /// loss schedules retransmission timers, so without it every
    /// message arrives exactly once and the parting/dedup machinery
    /// must stay inert — crash-only runs keep the original teardown
    /// and accounting paths bit-for-bit.
    fn lossy(&self) -> bool {
        self.cfg
            .failures
            .as_ref()
            .is_some_and(|f| f.msg_loss_prob > 0.0)
    }

    /// A cohort just sent its *final* reply (READ vote, NO vote, or
    /// ACK). Without message loss it is torn down outright; under loss
    /// that reply may vanish, so the cohort lingers as
    /// [`CohortPhase::Parted`] — locks released, lock-table
    /// registration retired, refcount dropped, exactly the
    /// [`Simulation::cohort_done`] teardown minus the slab removal —
    /// purely to answer duplicate requests with the stored reply until
    /// the master's receipt retires the entry.
    fn part_or_done(&mut self, cohort: CohortH, reply: MsgKind) {
        if !self.lossy() {
            self.cohort_done(cohort);
            return;
        }
        let c = self.cohorts.get_mut(cohort).expect("live cohort");
        c.phase = CohortPhase::Parted;
        c.parting_reply = Some(reply);
        let (site, owner, th, cid) = (c.site, c.lock_owner, c.txn, c.id);
        let locks = &mut self.sites[site].locks;
        debug_assert!(
            locks.borrowers_of(owner).next().is_none(),
            "cohort {cid} parting with live lends"
        );
        debug_assert!(
            !locks.has_live_borrows(owner),
            "cohort {cid} parting with live borrows"
        );
        locks.unregister(owner);
        let t = self.txns.get_mut(th).expect("txn outlives cohorts");
        debug_assert!(t.open_cohorts > 0);
        t.open_cohorts -= 1;
        // The master is provably not done while this entry exists (a
        // pending vote or ACK references it), so this cannot retire the
        // transaction out from under the parted cohort.
        self.try_cleanup(th);
    }

    /// A duplicate request reached a parted cohort: the stored final
    /// reply was evidently lost — repeat it.
    fn resend_parting_reply(&mut self, cohort: CohortH) {
        let c = self.cohorts.get(cohort).expect("parted cohort");
        debug_assert_eq!(c.phase, CohortPhase::Parted);
        let reply = c.parting_reply.expect("parted cohorts store their reply");
        let (site, th, req) = (c.site, c.txn, c.req_attempt);
        let control = self.txns[th].control_site();
        self.send_attempt(site, control, reply, req);
    }

    /// A cohort reached its final state: drop it, retire its lock-table
    /// registration, and update the transaction's refcount.
    pub(crate) fn cohort_done(&mut self, cohort: CohortH) {
        let c = self.cohorts.remove(cohort).expect("cohort finishes once");
        let locks = &mut self.sites[c.site].locks;
        debug_assert!(
            locks.borrowers_of(c.lock_owner).next().is_none(),
            "cohort {} torn down with live lends",
            c.id
        );
        debug_assert!(
            !locks.has_live_borrows(c.lock_owner),
            "cohort {} torn down with live borrows",
            c.id
        );
        locks.unregister(c.lock_owner);
        let t = self.txns.get_mut(c.txn).expect("txn outlives cohorts");
        debug_assert!(t.open_cohorts > 0);
        t.open_cohorts -= 1;
        self.try_cleanup(c.txn);
    }

    /// Forget the transaction once the master is done, every cohort has
    /// finished, and all ACKs are in. Replicated runs additionally wait
    /// for straggler acceptor bundles (the leader decides at a
    /// majority, but the overhead check counts all `2F+1`) and for the
    /// backup copies of the decision record.
    fn try_cleanup(&mut self, txn: TxnH) {
        let Some(t) = self.txns.get(txn) else {
            return;
        };
        if t.master_done
            && t.open_cohorts == 0
            && t.pending_acks == 0
            && t.accepts_outstanding == 0
            && t.pending_rep_acks == 0
        {
            let t = self.txns.remove(txn).expect("live txn");
            if let (TxnPhase::Decided { commit: true }, Some(decided)) = (&t.phase, t.decided_at) {
                let now = self.cal.now();
                self.metrics.phase_decision.record(now.since(decided));
                self.check_commit_overheads(&t);
            }
            self.recycle(t);
        }
    }

    /// The transaction's cohorts still in the protocol (not parted),
    /// with their sites, in cohort order.
    fn participants(&self, txn: TxnH) -> impl Iterator<Item = (CohortH, usize)> + '_ {
        (self.txns[txn].cohorts.iter()).filter_map(|&c| Some((c, self.participant_site(c)?)))
    }

    /// Send `msg(cohort)` from `from` to every participant, in cohort
    /// order.
    fn send_to_participants(&mut self, txn: TxnH, from: usize, msg: impl Fn(CohortH) -> MsgKind) {
        for i in 0..self.txns[txn].cohorts.len() {
            let cohort = self.txns[txn].cohorts[i];
            if let Some(site) = self.participant_site(cohort) {
                self.send(from, site, msg(cohort));
            }
        }
    }

    /// The site of cohort `c` while it takes part in the protocol.
    fn participant_site(&self, c: CohortH) -> Option<usize> {
        self.cohorts
            .get(c)
            .filter(|x| x.phase != CohortPhase::Parted)
            .map(|x| x.site)
    }

    // ------------------------------------------------------------------
    // Quorum routing: the acceptor and leader sides of Paxos Commit
    // ------------------------------------------------------------------

    /// A cohort's vote reached acceptor `acc`. The acceptor tallies it;
    /// once every cohort's vote is in, it forces its vote bundle — one
    /// record covering the whole transaction, replacing the master
    /// decision record. Straggler tallies can complete after the leader
    /// has already decided at a majority of the other acceptors, so no
    /// phase is asserted here.
    pub(crate) fn acceptor_vote(&mut self, txn: TxnH, acc: u32, yes: bool) {
        let t = self.txns.get_mut(txn).expect("cleanup waits for accepts");
        if !yes {
            t.no_vote = true;
        }
        let k = acc as usize;
        debug_assert!(t.acc_pending[k] > 0, "vote after the bundle closed");
        t.acc_pending[k] -= 1;
        if t.acc_pending[k] == 0 {
            let home = t.home;
            let site = self.acceptor_site(home, acc);
            self.force_log(site, LogWork::AcceptorBundle { txn, acc });
        }
    }

    /// Acceptor `acc`'s bundle is durable: report the outcome it
    /// accepted to the leader. A bundle holds every vote, so the
    /// outcome is abort iff any vote in it was NO.
    pub(crate) fn acceptor_bundle_logged(&mut self, txn: TxnH, acc: u32) {
        let t = self.txns.get(txn).expect("cleanup waits for accepts");
        let commit = !t.no_vote;
        let home = t.home;
        let site = self.acceptor_site(home, acc);
        self.send(site, home, MsgKind::Accepted { txn, commit });
    }

    /// The leader collected an ACCEPTED report. At a majority (`F+1`)
    /// the outcome is decided — this is Paxos Commit's shortened
    /// critical path; the remaining reports drain afterwards and only
    /// gate cleanup.
    pub(crate) fn master_accepted(&mut self, txn: TxnH, commit: bool) {
        let t = self.txns.get_mut(txn).expect("cleanup waits for accepts");
        debug_assert!(t.accepts_outstanding > 0);
        t.accepts_outstanding -= 1;
        let group = t.acc_pending.len();
        let received = group - t.accepts_outstanding;
        let majority = group / 2 + 1;
        if received == majority {
            self.decide(txn, commit);
        } else if t.accepts_outstanding == 0 {
            self.try_cleanup(txn);
        }
    }

    // ------------------------------------------------------------------
    // Replicated decision record: 2PC over a replicated coordinator
    // ------------------------------------------------------------------

    /// The master's decision record hit the disk. For the replicated-
    /// coordinator baseline the record must additionally be copied to
    /// the `2F` backup replicas — and forced there — before the
    /// decision may be announced; everyone else announces immediately.
    pub(crate) fn master_decision_logged(&mut self, txn: TxnH, commit: bool) {
        let f = self.rep_f();
        if self.table.replicated_decision && f > 0 {
            let t = self.txns.get(txn).expect("live txn");
            debug_assert_eq!(t.phase, TxnPhase::LoggingDecision { commit });
            let home = t.home;
            let t = self.txns.get_mut(txn).expect("live txn");
            t.pending_rep_acks = 2 * f as usize;
            for rep in 1..(2 * f + 1) {
                let site = self.acceptor_site(home, rep);
                self.send(home, site, MsgKind::RepDecision { txn, rep });
            }
        } else {
            self.master_decided(txn, commit);
        }
    }

    /// A backup replica received its copy of the decision record:
    /// force it locally.
    pub(crate) fn replica_decision(&mut self, txn: TxnH, rep: u32) {
        let t = self.txns.get(txn).expect("cleanup waits for rep acks");
        let site = self.acceptor_site(t.home, rep);
        self.force_log(site, LogWork::ReplicaDecision { txn, rep });
    }

    /// A backup replica's copy is durable: acknowledge to the master.
    pub(crate) fn replica_decision_logged(&mut self, txn: TxnH, rep: u32) {
        let t = self.txns.get(txn).expect("cleanup waits for rep acks");
        let home = t.home;
        let site = self.acceptor_site(home, rep);
        self.send(site, home, MsgKind::RepAck { txn });
    }

    /// The master collected a backup's acknowledgement; once all `2F`
    /// copies are durable the decision is announced.
    pub(crate) fn master_rep_ack(&mut self, txn: TxnH) {
        let t = self.txns.get_mut(txn).expect("cleanup waits for rep acks");
        debug_assert!(t.pending_rep_acks > 0);
        t.pending_rep_acks -= 1;
        if t.pending_rep_acks == 0 {
            let TxnPhase::LoggingDecision { commit } = t.phase else {
                unreachable!("replication runs inside the logging phase")
            };
            self.master_decided(txn, commit);
        }
    }
}
