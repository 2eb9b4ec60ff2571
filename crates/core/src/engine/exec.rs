//! Execution-phase mechanics: transaction submission, cohort page
//! accesses, lock-grant processing, deadlock detection, and
//! execution-phase aborts (deadlock victims and OPT borrower
//! cascades).

use super::types::{
    Cohort, CohortH, CohortId, CohortPhase, DiskJob, MsgKind, Parked, Txn, TxnH, TxnPhase,
};
use super::{Observer, Section, Simulation, Site};
use crate::config::TransType;
use crate::metrics::AbortReason;
use crate::workload::SiteId;
use distlocks::deadlock::WaitForGraph;
use distlocks::{Grant, LockMode, RequestOutcome};
use simkernel::Slab;

impl<O: Observer> Simulation<O> {
    // ------------------------------------------------------------------
    // Submission
    // ------------------------------------------------------------------

    /// Submit a transaction at `home`; restarts carry their original
    /// template and birth instant, fresh transactions draw a template
    /// into a recycled one.
    pub(crate) fn submit_txn(&mut self, home: SiteId, restart: Option<Parked>) {
        let now = self.cal.now();
        let (template, original_birth) = match restart {
            Some(p) => (p.template, p.original_birth),
            None => {
                let mut t = self.pools.templates.pop().unwrap_or_default();
                self.wl.generate_into(home, &mut self.rng, &mut t);
                (t, now)
            }
        };
        let txn_id = self.alloc_txn_id();
        let n = template.sites.len();

        let th = self.txns.insert(Txn {
            id: txn_id,
            home,
            template,
            birth: now,
            original_birth,
            cohorts: self.pools.cohort_lists.pop().unwrap_or_default(),
            phase: TxnPhase::Executing,
            pending_workdone: n,
            pending_votes: 0,
            pending_preacks: 0,
            pending_acks: 0,
            no_vote: false,
            blocked_cohorts: 0,
            next_seq_cohort: 1,
            open_cohorts: n,
            master_done: false,
            coordinator_site: None,
            pending_term_reps: 0,
            acc_pending: self.pools.acc_lists.pop().unwrap_or_default(),
            accepts_outstanding: 0,
            pending_rep_acks: 0,
            commit_started: None,
            decided_at: None,
            msg_exec: 0,
            msg_commit: 0,
            forced: 0,
            crashed: false,
            crashed_at: None,
        });

        for i in 0..n {
            let (site, n_accesses) = {
                let t = &self.txns[th].template;
                (t.sites[i], t.accesses[i].len())
            };
            let cid = self.alloc_cohort_id();
            // The cohort id is the lock-table registration sequence:
            // globally unique and monotone, so every seq-sorted output
            // of the table reproduces the historical id order.
            let locks = &mut self.sites[site].locks;
            let owner = locks.register_owner(cid);
            locks.reserve(owner, self.max_cohort_pages);
            let ch = self.cohorts.insert(Cohort {
                id: cid,
                txn: th,
                site,
                acc_index: i,
                n_accesses,
                next_access: 0,
                phase: CohortPhase::Starting,
                lock_owner: owner,
                waiting_lock: false,
                shelf_since: None,
                prepared_since: None,
                req_attempt: 0,
                down: false,
                wd_seen: false,
                vote_seen: false,
                preack_seen: false,
                parting_reply: None,
            });
            let mirror = &mut self.sites[site].owner_cohorts;
            if owner.index() == mirror.len() {
                mirror.push(ch);
            } else {
                mirror[owner.index()] = ch;
            }
            self.txns[th].cohorts.push(ch);
        }
        self.metrics.live_txns.add(now, 1.0);

        match self.cfg.trans_type {
            TransType::Parallel => {
                // All cohorts started together (§4.1). The local cohort
                // starts directly; remote ones via an initiation message.
                for i in 0..n {
                    let ch = self.txns[th].cohorts[i];
                    self.start_cohort(ch, home);
                }
            }
            TransType::Sequential => {
                // Only the first (local) cohort starts; the rest chain
                // off WORKDONE arrivals.
                self.start_cohort(self.txns[th].cohorts[0], home);
            }
        }
    }

    /// Activate a cohort: directly if it is local to the master,
    /// through an InitCohort message otherwise.
    pub(crate) fn start_cohort(&mut self, cohort: CohortH, master_site: SiteId) {
        let site = self.cohorts[cohort].site;
        if site == master_site {
            self.cohort_begin(cohort);
        } else {
            self.send(master_site, site, MsgKind::InitCohort { cohort });
        }
    }

    /// The cohort starts executing (local activation or InitCohort
    /// arrival).
    pub(crate) fn cohort_begin(&mut self, cohort: CohortH) {
        let Some(c) = self.cohorts.get_mut(cohort) else {
            return;
        };
        debug_assert_eq!(c.phase, CohortPhase::Starting);
        c.phase = CohortPhase::Executing;
        self.cohort_continue(cohort);
    }

    // ------------------------------------------------------------------
    // The access loop
    // ------------------------------------------------------------------

    /// Issue the cohort's next access, or finish its execution phase.
    pub(crate) fn cohort_continue(&mut self, cohort: CohortH) {
        let Some(c) = self.cohorts.get(cohort) else {
            return;
        };
        if c.work_complete() {
            self.cohort_work_finished(cohort);
            return;
        }
        let (site, th, owner, cid) = (c.site, c.txn, c.lock_owner, c.id);
        let access = self.txns[th].template.accesses[c.acc_index][c.next_access];
        let mode = if access.update {
            LockMode::Update
        } else {
            LockMode::Read
        };
        match self.sites[site].locks.request(owner, access.page, mode) {
            RequestOutcome::Granted { lenders } => {
                if lenders > 0 {
                    self.metrics.borrowed_pages.bump();
                    let lenders = lenders as usize;
                    let txn = self.txns[th].id;
                    self.trace_event(txn, |at| super::trace::TraceEvent::Borrowed {
                        at,
                        txn,
                        cohort: cid,
                        lenders,
                    });
                }
                self.data_disk_arrive(site, access.page, DiskJob::Read { cohort });
            }
            RequestOutcome::AlreadyHeld => {
                self.data_disk_arrive(site, access.page, DiskJob::Read { cohort });
            }
            RequestOutcome::Blocked => {
                let c = self.cohorts.get_mut(cohort).expect("checked above");
                c.waiting_lock = true;
                self.txn_block(th);
                // Detection is a profiling section of its own, disjoint
                // from the dispatch that entered it.
                self.obs.on_section(Section::Detection);
                self.deadlock_check(th);
                self.obs.on_section(Section::Dispatch);
            }
        }
    }

    /// A page's `PageCPU` processing finished: advance the access cursor.
    pub(crate) fn cohort_page_processed(&mut self, cohort: CohortH) {
        let Some(c) = self.cohorts.get_mut(cohort) else {
            return;
        };
        debug_assert_eq!(c.phase, CohortPhase::Executing);
        c.next_access += 1;
        self.cohort_continue(cohort);
    }

    /// All accesses done: either go on the OPT shelf or report WORKDONE.
    fn cohort_work_finished(&mut self, cohort: CohortH) {
        let th = self.cohorts[cohort].txn;
        // Execution-phase crash window: the cohort finishes its work but
        // goes down before reporting it. Nothing is on stable storage
        // yet, so recovery presumes abort and the whole transaction
        // restarts (the master was still collecting WORKDONEs and could
        // not have moved on).
        if self.exec_crash_roll(cohort, th) {
            return;
        }
        let c = &self.cohorts[cohort];
        let (site, owner) = (c.site, c.lock_owner);
        if self.spec.opt && self.sites[site].locks.has_live_borrows(owner) {
            // §3: "the borrower is 'put on the shelf' ... not allowed to
            // send a WORKDONE message" until every lender commits.
            let now = self.cal.now();
            let c = self.cohorts.get_mut(cohort).expect("exists");
            c.phase = CohortPhase::OnShelf;
            c.shelf_since = Some(now);
            let (th, cid) = (c.txn, c.id);
            let txn = self.txns[th].id;
            self.trace_event(txn, |at| super::trace::TraceEvent::Shelved {
                at,
                txn,
                cohort: cid,
            });
            return;
        }
        self.cohort_send_workdone(cohort);
    }

    /// Send WORKDONE to the master (also the shelf-exit path).
    pub(crate) fn cohort_send_workdone(&mut self, cohort: CohortH) {
        let now = self.cal.now();
        let c = self.cohorts.get_mut(cohort).expect("live cohort");
        let unshelved = c.shelf_since.take();
        if let Some(since) = unshelved {
            self.metrics.shelf_time.record_duration(now.since(since));
        }
        c.phase = CohortPhase::WorkDone;
        let (site, th, cid) = (c.site, c.txn, c.id);
        if unshelved.is_some() {
            let txn = self.txns[th].id;
            self.trace_event(txn, |at| super::trace::TraceEvent::Unshelved {
                at,
                txn,
                cohort: cid,
            });
        }
        let home = self.txns[th].home;
        self.send(site, home, MsgKind::WorkDone { txn: th, cohort });
    }

    // ------------------------------------------------------------------
    // Lock grants
    // ------------------------------------------------------------------

    /// Apply grants returned by a state change of `site`'s lock table:
    /// unblock each waiter and resume its access (the read it was
    /// waiting to issue).
    pub(crate) fn process_grants(&mut self, site: SiteId, grants: &[Grant]) {
        for g in grants {
            let ch = self.sites[site].cohort_of(g.owner);
            let Some(c) = self.cohorts.get_mut(ch) else {
                // A grant to a cohort being torn down would be a lock
                // manager bug: release_all cancels waiting requests.
                unreachable!("grant to a dead cohort");
            };
            debug_assert_eq!(c.site, site);
            debug_assert!(c.waiting_lock, "grant to a non-waiting cohort");
            c.waiting_lock = false;
            let (th, cid) = (c.txn, c.id);
            self.txn_unblock(th);
            if g.lenders > 0 {
                self.metrics.borrowed_pages.bump();
                let lenders = g.lenders as usize;
                let txn = self.txns[th].id;
                self.trace_event(txn, |at| super::trace::TraceEvent::Borrowed {
                    at,
                    txn,
                    cohort: cid,
                    lenders,
                });
            }
            self.data_disk_arrive(site, g.page, DiskJob::Read { cohort: ch });
        }
    }

    fn txn_block(&mut self, th: TxnH) {
        let now = self.cal.now();
        let t = self.txns.get_mut(th).expect("live txn");
        t.blocked_cohorts += 1;
        if t.blocked_cohorts == 1 {
            self.metrics.blocked_txns.add(now, 1.0);
        }
    }

    fn txn_unblock(&mut self, th: TxnH) {
        let now = self.cal.now();
        let t = self.txns.get_mut(th).expect("live txn");
        debug_assert!(t.blocked_cohorts > 0);
        t.blocked_cohorts -= 1;
        if t.blocked_cohorts == 0 {
            self.metrics.blocked_txns.add(now, -1.0);
        }
    }

    // ------------------------------------------------------------------
    // Deadlock detection (§4.2: immediate, global, youngest victim)
    // ------------------------------------------------------------------

    /// Run cycle detection from `start` and abort youngest victims until
    /// no cycle through `start` remains. Out of line, as it runs only
    /// when a request blocks: inlined, it bloats the access loop.
    #[inline(never)]
    fn deadlock_check(&mut self, start: TxnH) {
        loop {
            if !self.txns.contains(start) {
                return; // start itself was the victim
            }
            #[cfg(test)]
            let expected = super::tests::reference_cycle(self, start);
            let mut graph = WaitFor {
                txns: &self.txns,
                cohorts: &self.cohorts,
                sites: &self.sites,
                keys: &mut self.blocker_keys,
            };
            let found = self.cycle_search.find(&mut graph, start);
            #[cfg(test)]
            assert_eq!(
                found.map(<[TxnH]>::to_vec),
                expected,
                "cycle from {start:?}"
            );
            let Some(cycle) = found else {
                return;
            };
            // Youngest victim: latest birth, ties broken by the external
            // id — every cycle member is live, and external ids are
            // unique, so the maximum is unambiguous.
            let victim = cycle
                .iter()
                .copied()
                .max_by_key(|&th| {
                    self.txns
                        .get(th)
                        .map(|x| (x.birth.as_micros(), x.id))
                        .unwrap_or((0, 0))
                })
                .expect("cycle is non-empty");
            self.abort_txn(victim, AbortReason::Deadlock);
        }
    }

    // ------------------------------------------------------------------
    // Execution-phase aborts
    // ------------------------------------------------------------------

    /// Abort a transaction during its execution phase (deadlock victim
    /// or borrower cascade) and schedule its restart after the paper's
    /// adaptive delay. The restarted incarnation reuses the template.
    pub(crate) fn abort_txn(&mut self, th: TxnH, reason: AbortReason) {
        let now = self.cal.now();
        let Some(txn) = self.txns.get(th) else {
            return;
        };
        // Only executing transactions can be aborted this way: prepared
        // cohorts never wait for locks and borrowers never reach the
        // voting phase (§3.1).
        assert!(
            matches!(txn.phase, TxnPhase::Executing),
            "execution-phase abort of {} in {:?}",
            txn.id,
            txn.phase
        );
        if txn.blocked_cohorts > 0 {
            self.metrics.blocked_txns.add(now, -1.0);
        }
        let (home, txn_ext, n) = (txn.home, txn.id, txn.cohorts.len());
        // Tear the cohorts down; collect cascade victims (borrowers of
        // this transaction's cohorts — impossible here since none is
        // prepared, asserted below).
        for i in 0..n {
            let ch = self.txns[th].cohorts[i];
            let Some(c) = self.cohorts.remove(ch) else {
                continue;
            };
            let owner = c.lock_owner;
            assert!(
                self.sites[c.site]
                    .locks
                    .borrowers_of(owner)
                    .next()
                    .is_none(),
                "an executing cohort cannot have lent data"
            );
            self.with_grants(c.site, |locks, grants| {
                locks.drop_borrower(owner);
                locks.release_all_into(owner, grants);
                locks.unregister(owner);
            });
        }
        let txn = self.txns.remove(th).expect("checked above");
        self.metrics.live_txns.add(now, -1.0);
        self.metrics.record_abort(reason);
        self.trace_event(txn_ext, |at| super::trace::TraceEvent::Aborted {
            at,
            txn: txn_ext,
        });
        let Txn {
            template,
            original_birth,
            cohorts,
            acc_pending,
            ..
        } = txn;
        self.schedule_restart(
            home,
            Parked {
                template,
                original_birth,
            },
        );
        self.recycle_lists(cohorts, acc_pending);
    }

    // ------------------------------------------------------------------
    // Message dispatch
    // ------------------------------------------------------------------

    pub(crate) fn handle_message(&mut self, msg: super::types::Message) {
        let attempt = msg.attempt;
        match msg.kind {
            MsgKind::InitCohort { cohort } => self.cohort_begin(cohort),
            MsgKind::WorkDone { txn, cohort } => self.master_workdone(txn, cohort),
            MsgKind::Prepare { cohort } => self.cohort_prepare(cohort, attempt),
            MsgKind::Vote { txn, cohort, vote } => self.master_vote(txn, cohort, vote),
            MsgKind::PreCommit { cohort } => self.cohort_precommit(cohort, attempt),
            MsgKind::PreAck { txn, cohort } => self.master_preack(txn, cohort),
            MsgKind::Decision { cohort, commit } => self.cohort_decision(cohort, commit, attempt),
            MsgKind::Ack { txn, cohort } => self.master_ack(txn, cohort),
            MsgKind::TermStateReq { cohort } => self.cohort_term_state_req(cohort),
            MsgKind::TermStateRep { txn } => self.coordinator_term_state_rep(txn),
            MsgKind::ChainPrepare { cohort } => self.cohort_prepare(cohort, attempt),
            MsgKind::ChainDecision { cohort, commit } => {
                self.cohort_decision(cohort, commit, attempt)
            }
            MsgKind::ChainBack { txn, commit } => self.master_chain_back(txn, commit),
            MsgKind::PaxosVote { txn, acc, yes, .. } => self.acceptor_vote(txn, acc, yes),
            MsgKind::Accepted { txn, commit } => self.master_accepted(txn, commit),
            MsgKind::RepDecision { txn, rep } => self.replica_decision(txn, rep),
            MsgKind::RepAck { txn } => self.master_rep_ack(txn),
            MsgKind::AccStateReq { txn, acc } => self.acceptor_state_req(txn, acc),
            MsgKind::AccStateRep { txn } => self.leader_acc_state_rep(txn),
        }
    }

    /// Dispatch for completed forced log writes.
    pub(crate) fn handle_log_done(&mut self, work: super::types::LogWork) {
        use super::types::LogWork::*;
        match work {
            CohortPrepare { cohort } => self.cohort_prepared(cohort),
            CohortNoVoteAbort { cohort } => self.cohort_no_vote_finish(cohort),
            CohortPrecommit { cohort } => self.cohort_precommitted(cohort),
            CohortDecision { cohort, commit } => self.cohort_finish_decision(cohort, commit),
            MasterCollecting { txn } => self.master_collected(txn),
            MasterPrecommit { txn } => self.master_precommit_logged(txn),
            MasterDecision { txn, commit } => self.master_decision_logged(txn, commit),
            AcceptorBundle { txn, acc } => self.acceptor_bundle_logged(txn, acc),
            ReplicaDecision { txn, rep } => self.replica_decision_logged(txn, rep),
        }
    }

    /// Deferred write-back of a committed cohort's updates: the pages go
    /// to the data disks asynchronously; nothing waits on them (§4.1).
    pub(crate) fn enqueue_deferred_writes(&mut self, cohort: CohortH) {
        if !self.cfg.model_deferred_writes {
            return;
        }
        let c = &self.cohorts[cohort];
        let (site, th, acc_index) = (c.site, c.txn, c.acc_index);
        for i in 0..self.txns[th].template.accesses[acc_index].len() {
            let a = self.txns[th].template.accesses[acc_index][i];
            if a.update {
                self.data_disk_arrive(site, a.page, DiskJob::AsyncWrite);
            }
        }
    }
}

/// The live transaction-level wait-for graph, read straight from the
/// lock tables: `t` waits for `u` when a waiting cohort of `t` is
/// blocked by a cohort of `u` (never counting `t`'s own cohorts). A
/// transaction whose `blocked_cohorts` count is zero has no waiting
/// cohort, so the forward expansions skip its cohort list.
struct WaitFor<'a> {
    txns: &'a Slab<TxnH, Txn>,
    cohorts: &'a Slab<CohortH, Cohort>,
    sites: &'a [Site],
    /// Scratch that orders one cohort's blockers by cohort id.
    keys: &'a mut Vec<(CohortId, TxnH)>,
}

impl WaitForGraph for WaitFor<'_> {
    type Node = TxnH;

    fn slot(&self, t: TxnH) -> usize {
        t.slot()
    }

    /// Waiting cohorts in the transaction's cohort order, each one's
    /// blockers by cohort id (the lock table's registration sequence,
    /// as `LockManager::blockers_of` sorts them), keeping the first
    /// occurrence of each transaction.
    fn successors(&mut self, t: TxnH, out: &mut Vec<TxnH>) {
        let Some(txn) = self.txns.get(t).filter(|x| x.blocked_cohorts > 0) else {
            return;
        };
        let base = out.len();
        for &ch in &txn.cohorts {
            let Some(c) = self.cohorts.get(ch) else {
                continue;
            };
            if !c.waiting_lock {
                continue;
            }
            let site = &self.sites[c.site];
            self.keys.clear();
            site.locks.for_each_blocker(c.lock_owner, |o| {
                let b = &self.cohorts[site.cohort_of(o)];
                self.keys.push((b.id, b.txn));
            });
            self.keys.sort_unstable_by_key(|&(id, _)| id);
            for &(_, bt) in self.keys.iter() {
                if bt != t && !out[base..].contains(&bt) {
                    out.push(bt);
                }
            }
        }
    }

    fn for_each_successor(&self, t: TxnH, mut f: impl FnMut(TxnH)) {
        let Some(txn) = self.txns.get(t).filter(|x| x.blocked_cohorts > 0) else {
            return;
        };
        for &ch in &txn.cohorts {
            let Some(c) = self.cohorts.get(ch) else {
                continue;
            };
            if !c.waiting_lock {
                continue;
            }
            let site = &self.sites[c.site];
            site.locks.for_each_blocker(c.lock_owner, |o| {
                let bt = self.cohorts[site.cohort_of(o)].txn;
                if bt != t {
                    f(bt);
                }
            });
        }
    }

    fn for_each_predecessor(&self, t: TxnH, mut f: impl FnMut(TxnH)) {
        let Some(txn) = self.txns.get(t) else {
            return;
        };
        for &ch in &txn.cohorts {
            let Some(c) = self.cohorts.get(ch) else {
                continue;
            };
            if c.phase == CohortPhase::Parted {
                continue; // already unregistered from the lock table
            }
            let site = &self.sites[c.site];
            site.locks.for_each_waiter(c.lock_owner, |o| {
                let w = &self.cohorts[site.cohort_of(o)];
                if w.waiting_lock && w.txn != t {
                    f(w.txn);
                }
            });
        }
    }
}
