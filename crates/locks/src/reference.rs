//! The lock table as it stood before owner-threaded wait lists: a
//! `Vec` of holders and a `VecDeque` queue per page, owner records
//! created and dropped per registration, and lender lists returned by
//! value. Kept only as the differential reference for
//! `table::differential_tests`; the live table must reproduce its
//! outcomes, grant lists, blocker sets and borrow edges exactly.

#![allow(dead_code)]

use crate::table::{LockMode, OwnerId, PageId};
use std::collections::VecDeque;

/// Outcome of [`LockManager::request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Lock granted. `borrowed_from` lists the prepared lenders whose
    /// conflicting locks were borrowed through (empty for a plain
    /// grant).
    Granted { borrowed_from: Vec<OwnerId> },
    /// The owner already holds the page in this or a stronger mode.
    AlreadyHeld,
    /// The request queued. Query [`LockManager::blockers_of`] (or walk
    /// [`LockManager::for_each_blocker`]) for the owners the requester
    /// now waits on; the outcome itself carries no blocker list so the
    /// hot path never allocates one it may not need.
    Blocked,
}

/// A grant released by a state change (release, abort, prepare).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// The owner whose waiting request was just granted.
    pub owner: OwnerId,
    /// The granted page.
    pub page: PageId,
    /// The granted mode.
    pub mode: LockMode,
    /// Prepared lenders borrowed through (empty for a plain grant).
    pub borrowed_from: Vec<OwnerId>,
}

#[derive(Debug, Clone, Copy)]
struct WaitReq {
    owner: u32,
    mode: LockMode,
    /// True when the owner already holds the page in `Read` mode and is
    /// waiting to upgrade.
    upgrade: bool,
}

#[derive(Debug, Default)]
struct PageLock {
    holders: Vec<(u32, LockMode)>,
    queue: VecDeque<WaitReq>,
}

/// All state of one registered owner, in one record.
#[derive(Debug)]
struct OwnerState {
    /// Caller-assigned sequence number (the engine's cohort id). Unique
    /// among live owners; the determinism key for every sorted output.
    seq: u64,
    /// `(page, strongest mode held)`, kept sorted by page ascending.
    held: Vec<(PageId, LockMode)>,
    /// The single outstanding waiting request, if any.
    waiting: Option<PageId>,
    prepared: bool,
    /// Borrowers with a live borrow edge from this owner (slots).
    lends: Vec<u32>,
    /// Lenders this owner has a live borrow edge to (slots).
    borrows: Vec<u32>,
}

/// One site's lock table (see module docs).
#[derive(Debug)]
pub struct LockManager {
    opt_lending: bool,
    /// Pages are stored at slot `page % page_modulus`.
    page_modulus: u64,
    pages: Vec<PageLock>,
    owners: Vec<Option<OwnerState>>,
    free_owners: Vec<u32>,
    /// Count of owners with `waiting.is_some()`.
    waiting_owners: usize,
    registered: usize,
    /// Total page-grants that involved borrowing (metric).
    borrow_grants: u64,
}

impl LockManager {
    /// A lock table with an identity page mapping. `opt_lending`
    /// enables the OPT borrowing rule. Suitable when page ids are
    /// small; the engine uses [`LockManager::for_pages`].
    pub fn new(opt_lending: bool) -> Self {
        Self::for_pages(opt_lending, u64::MAX)
    }

    /// A lock table whose page ids are folded into `page_modulus`
    /// dense slots. Page ids used against one table must be injective
    /// modulo `page_modulus`.
    pub fn for_pages(opt_lending: bool, page_modulus: u64) -> Self {
        assert!(page_modulus > 0, "page modulus must be positive");
        LockManager {
            opt_lending,
            page_modulus,
            pages: Vec::new(),
            owners: Vec::new(),
            free_owners: Vec::new(),
            waiting_owners: 0,
            registered: 0,
            borrow_grants: 0,
        }
    }

    // ------------------------------------------------------------------
    // Owner registration
    // ------------------------------------------------------------------

    /// Register a new owner with caller-assigned sequence number `seq`
    /// (must be unique among live owners — the engine passes the
    /// globally unique cohort id). Returns its dense handle.
    pub fn register_owner(&mut self, seq: u64) -> OwnerId {
        let st = OwnerState {
            seq,
            held: Vec::new(),
            waiting: None,
            prepared: false,
            lends: Vec::new(),
            borrows: Vec::new(),
        };
        self.registered += 1;
        match self.free_owners.pop() {
            Some(slot) => {
                debug_assert!(self.owners[slot as usize].is_none());
                self.owners[slot as usize] = Some(st);
                OwnerId(slot)
            }
            None => {
                self.owners.push(Some(st));
                OwnerId((self.owners.len() - 1) as u32)
            }
        }
    }

    /// Unregister `owner`, recycling its slot. Panics if the owner
    /// still holds locks, waits, lends, borrows, or is prepared — the
    /// caller must fully tear it down first.
    pub fn unregister(&mut self, owner: OwnerId) {
        let st = self.st(owner);
        assert!(
            st.held.is_empty()
                && st.waiting.is_none()
                && !st.prepared
                && st.lends.is_empty()
                && st.borrows.is_empty(),
            "owner seq {} unregistered with live lock state",
            st.seq
        );
        self.owners[owner.index()] = None;
        self.free_owners.push(owner.0);
        self.registered -= 1;
    }

    /// The sequence number `owner` was registered with, or `None` if
    /// the slot is currently vacant.
    pub fn owner_seq(&self, owner: OwnerId) -> Option<u64> {
        self.owners
            .get(owner.index())
            .and_then(|o| o.as_ref())
            .map(|s| s.seq)
    }

    /// Number of currently registered owners.
    pub fn registered_count(&self) -> usize {
        self.registered
    }

    #[inline]
    fn st(&self, owner: OwnerId) -> &OwnerState {
        self.owners[owner.index()]
            .as_ref()
            .expect("unregistered lock owner")
    }

    #[inline]
    fn st_mut(&mut self, owner: OwnerId) -> &mut OwnerState {
        self.owners[owner.index()]
            .as_mut()
            .expect("unregistered lock owner")
    }

    #[inline]
    fn seq_of(&self, slot: u32) -> u64 {
        self.owners[slot as usize]
            .as_ref()
            .expect("unregistered lock owner")
            .seq
    }

    #[inline]
    fn prepared_slot(&self, slot: u32) -> bool {
        self.owners[slot as usize]
            .as_ref()
            .is_some_and(|s| s.prepared)
    }

    #[inline]
    fn page_slot(&self, page: PageId) -> usize {
        (page % self.page_modulus) as usize
    }

    /// Slot for `page`, growing the table if needed.
    fn ensure_page(&mut self, page: PageId) -> usize {
        let pi = self.page_slot(page);
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, PageLock::default);
        }
        pi
    }

    fn page_ro(&self, page: PageId) -> Option<&PageLock> {
        self.pages.get(self.page_slot(page))
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Whether the OPT lending rule is active.
    pub fn opt_lending(&self) -> bool {
        self.opt_lending
    }

    /// Total page-grants that went through at least one borrow edge.
    pub fn borrow_grants(&self) -> u64 {
        self.borrow_grants
    }

    /// Pages currently locked by `owner` (any mode).
    pub fn pages_held(&self, owner: OwnerId) -> usize {
        self.st(owner).held.len()
    }

    /// Mode `owner` holds on `page`, if any.
    pub fn mode_held(&self, owner: OwnerId, page: PageId) -> Option<LockMode> {
        let held = &self.st(owner).held;
        held.binary_search_by_key(&page, |&(p, _)| p)
            .ok()
            .map(|i| held[i].1)
    }

    /// True if `owner` has a queued (waiting) request.
    pub fn is_waiting(&self, owner: OwnerId) -> bool {
        self.st(owner).waiting.is_some()
    }

    /// Number of owners currently waiting in some queue.
    pub fn waiting_count(&self) -> usize {
        self.waiting_owners
    }

    /// True if `owner` has been marked prepared.
    pub fn is_prepared(&self, owner: OwnerId) -> bool {
        self.st(owner).prepared
    }

    /// Current lenders of `owner` (owners whose data it borrowed and
    /// whose global decision is still pending).
    pub fn lenders_of(&self, owner: OwnerId) -> impl Iterator<Item = OwnerId> + '_ {
        self.st(owner).borrows.iter().map(|&s| OwnerId(s))
    }

    /// True if `owner` borrowed from at least one still-undecided lender.
    pub fn has_live_borrows(&self, owner: OwnerId) -> bool {
        !self.st(owner).borrows.is_empty()
    }

    /// Current borrowers of `owner`.
    pub fn borrowers_of(&self, owner: OwnerId) -> impl Iterator<Item = OwnerId> + '_ {
        self.st(owner).lends.iter().map(|&s| OwnerId(s))
    }

    // ------------------------------------------------------------------
    // Requests
    // ------------------------------------------------------------------

    /// `owner` requests `page` in `mode`.
    pub fn request(&mut self, owner: OwnerId, page: PageId, mode: LockMode) -> RequestOutcome {
        {
            let st = self.st(owner);
            assert!(
                st.waiting.is_none(),
                "owner seq {} already has a waiting request",
                st.seq
            );
        }
        match self.mode_held(owner, page) {
            Some(m) if m >= mode => RequestOutcome::AlreadyHeld,
            Some(_) => self.request_upgrade(owner, page),
            None => self.request_fresh(owner, page, mode),
        }
    }

    fn request_fresh(&mut self, owner: OwnerId, page: PageId, mode: LockMode) -> RequestOutcome {
        let pi = self.ensure_page(page);
        // Fairness: never bypass a non-empty queue.
        if self.pages[pi].queue.is_empty() {
            let mut lenders = Vec::new();
            let mut hard = false;
            for &(h, hmode) in &self.pages[pi].holders {
                debug_assert_ne!(h, owner.0);
                if hmode.compatible(mode) {
                    continue;
                }
                if self.opt_lending && self.prepared_slot(h) {
                    lenders.push(h);
                } else {
                    hard = true;
                    break;
                }
            }
            if !hard {
                self.pages[pi].holders.push((owner.0, mode));
                self.held_insert(owner, page, mode);
                self.note_borrows(owner.0, &lenders);
                return RequestOutcome::Granted {
                    borrowed_from: lenders.into_iter().map(OwnerId).collect(),
                };
            }
        }
        self.pages[pi].queue.push_back(WaitReq {
            owner: owner.0,
            mode,
            upgrade: false,
        });
        self.st_mut(owner).waiting = Some(page);
        self.waiting_owners += 1;
        RequestOutcome::Blocked
    }

    fn request_upgrade(&mut self, owner: OwnerId, page: PageId) -> RequestOutcome {
        let pi = self.page_slot(page);
        let mut lenders = Vec::new();
        let mut hard = false;
        for &(h, _) in &self.pages[pi].holders {
            if h == owner.0 {
                continue;
            }
            // Any other holder conflicts with an upgrade to Update.
            if self.opt_lending && self.prepared_slot(h) {
                lenders.push(h);
            } else {
                hard = true;
            }
        }
        if !hard {
            for h in self.pages[pi].holders.iter_mut() {
                if h.0 == owner.0 {
                    h.1 = LockMode::Update;
                }
            }
            self.held_insert(owner, page, LockMode::Update);
            self.note_borrows(owner.0, &lenders);
            return RequestOutcome::Granted {
                borrowed_from: lenders.into_iter().map(OwnerId).collect(),
            };
        }
        // Upgrades wait at the *front* of the queue (they hold a read
        // lock already; anything granted ahead of them could only
        // deadlock against that read lock).
        self.pages[pi].queue.push_front(WaitReq {
            owner: owner.0,
            mode: LockMode::Update,
            upgrade: true,
        });
        self.st_mut(owner).waiting = Some(page);
        self.waiting_owners += 1;
        RequestOutcome::Blocked
    }

    fn held_insert(&mut self, owner: OwnerId, page: PageId, mode: LockMode) {
        let held = &mut self.st_mut(owner).held;
        match held.binary_search_by_key(&page, |&(p, _)| p) {
            Ok(i) => held[i].1 = mode,
            Err(i) => held.insert(i, (page, mode)),
        }
    }

    fn note_borrows(&mut self, borrower: u32, lenders: &[u32]) {
        if lenders.is_empty() {
            return;
        }
        self.borrow_grants += 1;
        for &l in lenders {
            debug_assert!(self.prepared_slot(l));
            let lends = &mut self.owners[l as usize]
                .as_mut()
                .expect("unregistered lock owner")
                .lends;
            if !lends.contains(&borrower) {
                lends.push(borrower);
            }
            let borrows = &mut self.owners[borrower as usize]
                .as_mut()
                .expect("unregistered lock owner")
                .borrows;
            if !borrows.contains(&l) {
                borrows.push(l);
            }
        }
    }

    /// Live blocker set for a waiting owner: conflicting (non-lendable)
    /// holders plus conflicting queued requests ahead of it, sorted by
    /// registration sequence. Used to build the global wait-for graph
    /// at deadlock-check time, so it is always computed from live state
    /// (no stale edges).
    pub fn compute_blockers(&self, owner: OwnerId, page: PageId) -> Vec<OwnerId> {
        let Some(entry) = self.page_ro(page) else {
            return Vec::new();
        };
        let Some(pos) = entry.queue.iter().position(|w| w.owner == owner.0) else {
            return Vec::new();
        };
        let mode = entry.queue[pos].mode;
        let mut blockers: Vec<u32> = Vec::new();
        for &(h, hmode) in &entry.holders {
            if h == owner.0 {
                continue; // own read lock during an upgrade wait
            }
            if hmode.compatible(mode) {
                continue;
            }
            if self.opt_lending && self.prepared_slot(h) {
                continue; // lendable: would not block once queue clears
            }
            blockers.push(h);
        }
        for w in entry.queue.iter().take(pos) {
            if !w.mode.compatible(mode) || !mode.compatible(w.mode) {
                blockers.push(w.owner);
            }
        }
        // Seqs are unique among live owners, so sorting by seq also
        // groups duplicate slots adjacently for dedup.
        blockers.sort_unstable_by_key(|&s| self.seq_of(s));
        blockers.dedup();
        blockers.into_iter().map(OwnerId).collect()
    }

    /// Blockers of `owner`'s outstanding request, if it has one.
    pub fn blockers_of(&self, owner: OwnerId) -> Vec<OwnerId> {
        match self.st(owner).waiting {
            Some(page) => self.compute_blockers(owner, page),
            None => Vec::new(),
        }
    }

    /// Visit every blocker of `owner`'s outstanding request without
    /// allocating. Unlike [`Self::blockers_of`] the visit order is
    /// unspecified and an owner may be visited twice — suitable only
    /// for order-independent uses such as reachability pre-filters.
    pub fn for_each_blocker(&self, owner: OwnerId, mut f: impl FnMut(OwnerId)) {
        let Some(page) = self.st(owner).waiting else {
            return;
        };
        let Some(entry) = self.page_ro(page) else {
            return;
        };
        let Some(pos) = entry.queue.iter().position(|w| w.owner == owner.0) else {
            return;
        };
        let mode = entry.queue[pos].mode;
        for &(h, hmode) in &entry.holders {
            if h == owner.0 || hmode.compatible(mode) {
                continue;
            }
            if self.opt_lending && self.prepared_slot(h) {
                continue;
            }
            f(OwnerId(h));
        }
        for w in entry.queue.iter().take(pos) {
            if !w.mode.compatible(mode) || !mode.compatible(w.mode) {
                f(OwnerId(w.owner));
            }
        }
    }

    /// Visit every owner whose outstanding request `owner` blocks: the
    /// transpose of [`Self::for_each_blocker`], so `w` is visited here
    /// exactly when `owner` is visited by `for_each_blocker(w)`. Those
    /// are the conflicting requests queued on pages `owner` holds
    /// (none while it is a prepared lender under OPT lending) and the
    /// conflicting requests queued behind its own. Order unspecified;
    /// an owner may be visited twice.
    pub fn for_each_waiter(&self, owner: OwnerId, mut f: impl FnMut(OwnerId)) {
        if self.waiting_owners == 0 {
            return; // nobody queued anywhere in this table
        }
        let st = self.st(owner);
        if !(self.opt_lending && st.prepared) {
            for &(page, hmode) in &st.held {
                let Some(entry) = self.page_ro(page) else {
                    continue;
                };
                for w in &entry.queue {
                    if w.owner != owner.0 && !hmode.compatible(w.mode) {
                        f(OwnerId(w.owner));
                    }
                }
            }
        }
        let Some(page) = st.waiting else {
            return;
        };
        let Some(entry) = self.page_ro(page) else {
            return;
        };
        let Some(pos) = entry.queue.iter().position(|w| w.owner == owner.0) else {
            return;
        };
        let mode = entry.queue[pos].mode;
        for w in entry.queue.iter().skip(pos + 1) {
            if !mode.compatible(w.mode) || !w.mode.compatible(mode) {
                f(OwnerId(w.owner));
            }
        }
    }

    // ------------------------------------------------------------------
    // State changes
    // ------------------------------------------------------------------

    /// Mark `owner` prepared. With lending enabled this may unblock
    /// waiters on every page it holds; the resulting grants are
    /// returned, in ascending page order (`held` is kept sorted, so no
    /// sort happens here).
    pub fn mark_prepared(&mut self, owner: OwnerId) -> Vec<Grant> {
        {
            let st = self.st_mut(owner);
            debug_assert!(!st.prepared, "owner seq {} prepared twice", st.seq);
            st.prepared = true;
        }
        if !self.opt_lending {
            return Vec::new();
        }
        // Index walk, no page snapshot: draining a held page can only
        // re-grant *this* owner an upgrade it already queued there,
        // which rewrites the held entry's mode in place — the list's
        // length and order never change under the cursor.
        let mut grants = Vec::new();
        let mut i = 0;
        while let Some(&(p, _)) = self.st(owner).held.get(i) {
            self.drain_queue(p, &mut grants);
            i += 1;
        }
        grants
    }

    /// Release `owner`'s read locks (the paper: on PREPARE receipt "the
    /// cohort releases all its read locks but retains its update
    /// locks"). Returns grants unblocked by the release, in ascending
    /// page order.
    pub fn release_read_locks(&mut self, owner: OwnerId) -> Vec<Grant> {
        // Walk the held list by index instead of snapshotting the read
        // pages: this path runs once per cohort prepare. Releasing the
        // read lock under the owner's own queued upgrade re-grants it as
        // `Update` at the same (sorted) position, which the cursor then
        // skips — exactly the snapshot semantics, without the Vec.
        let mut grants = Vec::new();
        let mut i = 0;
        while let Some(&(p, m)) = self.st(owner).held.get(i) {
            if m != LockMode::Read {
                i += 1;
                continue;
            }
            self.st_mut(owner).held.remove(i);
            self.remove_holder_entry_only(owner, p);
            self.drain_queue(p, &mut grants);
        }
        grants
    }

    /// Release every lock `owner` holds and cancel its waiting request,
    /// if any. Clears prepared status. Returns grants unblocked by the
    /// release, held pages in ascending order.
    ///
    /// Borrow edges are *not* touched — call [`LockManager::settle_borrows`]
    /// (for a decided lender) and/or [`LockManager::drop_borrower`] (for
    /// an aborting borrower) first.
    pub fn release_all(&mut self, owner: OwnerId) -> Vec<Grant> {
        let mut grants = Vec::new();
        if let Some(page) = self.st_mut(owner).waiting.take() {
            self.waiting_owners -= 1;
            let pi = self.page_slot(page);
            if let Some(entry) = self.pages.get_mut(pi) {
                entry.queue.retain(|w| w.owner != owner.0);
            }
            // Removing a queued conflicting request can unblock those behind it.
            self.drain_queue(page, &mut grants);
        }
        let held = std::mem::take(&mut self.st_mut(owner).held);
        for &(p, _) in &held {
            self.remove_holder_entry_only(owner, p);
            self.drain_queue(p, &mut grants);
        }
        self.st_mut(owner).prepared = false;
        grants
    }

    /// A lender's global decision arrived: dissolve its borrow edges and
    /// return its (former) borrowers, sorted by registration sequence.
    /// On commit the engine re-checks each borrower's shelf condition;
    /// on abort it aborts them all — the abort chain of OPT, bounded at
    /// length one.
    pub fn settle_borrows(&mut self, lender: OwnerId) -> Vec<OwnerId> {
        let mut borrowers: Vec<u32> = std::mem::take(&mut self.st_mut(lender).lends);
        borrowers.sort_unstable_by_key(|&b| self.seq_of(b)); // deterministic processing order
        for &b in &borrowers {
            self.owners[b as usize]
                .as_mut()
                .expect("unregistered lock owner")
                .borrows
                .retain(|&l| l != lender.0);
        }
        borrowers.into_iter().map(OwnerId).collect()
    }

    /// A borrower is going away (abort or full release): drop its
    /// borrow edges from both directions.
    pub fn drop_borrower(&mut self, borrower: OwnerId) {
        let lenders = std::mem::take(&mut self.st_mut(borrower).borrows);
        for l in lenders {
            self.owners[l as usize]
                .as_mut()
                .expect("unregistered lock owner")
                .lends
                .retain(|&b| b != borrower.0);
        }
    }

    fn remove_holder_entry_only(&mut self, owner: OwnerId, page: PageId) {
        let pi = self.page_slot(page);
        if let Some(entry) = self.pages.get_mut(pi) {
            entry.holders.retain(|&(h, _)| h != owner.0);
        }
    }

    /// Greedily grant from the head of `page`'s queue.
    fn drain_queue(&mut self, page: PageId, grants: &mut Vec<Grant>) {
        let pi = self.page_slot(page);
        loop {
            let Some(entry) = self.pages.get(pi) else {
                return;
            };
            let Some(head) = entry.queue.front() else {
                return;
            };
            let owner = head.owner;
            let mode = head.mode;
            let upgrade = head.upgrade;
            let mut lenders: Vec<u32> = Vec::new();
            let mut grantable = true;
            for &(h, hmode) in &entry.holders {
                if h == owner {
                    debug_assert!(upgrade);
                    continue;
                }
                if hmode.compatible(mode) {
                    continue;
                }
                if self.opt_lending && self.prepared_slot(h) {
                    lenders.push(h);
                } else {
                    grantable = false;
                    break;
                }
            }
            if !grantable {
                return;
            }
            let entry = &mut self.pages[pi];
            entry.queue.pop_front();
            if upgrade {
                // Promote the read lock in place; if the owner released
                // its read locks while the upgrade was queued (legal for
                // a caller, even if the engine never does it), the
                // upgrade degenerates into a fresh grant.
                let mut promoted = false;
                for h in entry.holders.iter_mut() {
                    if h.0 == owner {
                        h.1 = LockMode::Update;
                        promoted = true;
                    }
                }
                if !promoted {
                    entry.holders.push((owner, mode));
                }
            } else {
                entry.holders.push((owner, mode));
            }
            let oid = OwnerId(owner);
            self.held_insert(oid, page, mode);
            {
                let st = self.st_mut(oid);
                debug_assert_eq!(st.waiting, Some(page));
                st.waiting = None;
            }
            self.waiting_owners -= 1;
            self.note_borrows(owner, &lenders);
            grants.push(Grant {
                owner: oid,
                page,
                mode,
                borrowed_from: lenders.into_iter().map(OwnerId).collect(),
            });
        }
    }
}
