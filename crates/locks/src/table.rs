//! The per-site lock table.
//!
//! Semantics implemented (paper §3, §4.2):
//!
//! * **Modes**: `Read` and `Update`; read–read is the only compatible
//!   pair. Transactions "set read locks on pages that they read and
//!   update locks on pages that need to be updated".
//! * **Strictness**: locks are released only by the explicit release
//!   calls driven by the commit protocol (read locks at PREPARE
//!   receipt, update locks when the global decision is implemented).
//! * **Fairness**: one FCFS queue per page; a new request never
//!   bypasses a non-empty queue, and on release the queue head is
//!   granted greedily (consecutive compatible requests are granted
//!   together so concurrent readers batch).
//! * **Upgrades**: a holder of a read lock may request an update lock;
//!   upgrades are checked against the *holders only* (they do not go to
//!   the back of the queue, the standard treatment that avoids trivial
//!   self-deadlock through one's own read lock).
//! * **Lending (OPT)**: when `opt_lending` is on, a conflicting holder
//!   that is in the *prepared* state does not block the requester; the
//!   grant is recorded as a borrow edge lender → borrower. Lending
//!   never bypasses the FCFS queue.
//!
//! # Storage layout
//!
//! The table is hot-path state touched on every page access of every
//! simulated transaction, so it is laid out densely and, once warm,
//! never allocates:
//!
//! * Owners are *registered* up front ([`LockManager::register_owner`])
//!   and addressed by a dense slot index ([`OwnerId`]). All per-owner
//!   state (held pages, waiting request, prepared flag, borrow edges)
//!   lives in one `OwnerState` record — no hashing anywhere on the
//!   request/release paths. Unregistering leaves the record in place,
//!   empty, on a free list; the next registration reuses it together
//!   with the capacity of its `held`/`lends`/`borrows` lists.
//! * Pages live in a flat `Vec` indexed by `page % page_modulus`.
//!   Callers must keep the page ids used against one table *injective*
//!   modulo the modulus (the engine passes its pages-per-site, and page
//!   ids within a site are distinct residues by construction);
//!   [`LockManager::new`] uses an identity mapping for callers with
//!   small page ids.
//! * A page entry is 32 bytes: two inline holder slots, a boxed spill
//!   list used only from the third concurrent holder on, and the head
//!   and tail of the page's FIFO wait list. The wait list is threaded
//!   through the waiting owners' records (`next_wait`), which works
//!   because an owner has at most one outstanding request, so an idle
//!   page owns no heap memory at all.
//! * Each owner's `held` list is kept **sorted by page** at all times,
//!   so every bulk release walks pages in ascending order without a
//!   per-call sort. Determinism (bit-for-bit reproducible runs) is by
//!   construction, not by re-sorting hash-map keys.
//! * All externally visible orderings (blocker sets, settled borrower
//!   lists) are sorted by the owner's registration sequence number
//!   `seq` — the engine passes its globally unique cohort id — which
//!   reproduces the historical sort-by-owner-id order exactly.
//!
//! The table never schedules events and never decides policy: all
//! outcomes (grants released by state changes, borrowers to abort) are
//! handed to the caller, appended to caller-owned buffers.

/// A page (data item) identifier, unique within a site.
pub type PageId = u64;

/// A dense lock-owner handle issued by [`LockManager::register_owner`].
///
/// The handle is only meaningful against the table that issued it, and
/// only while the owner stays registered; the slot is recycled after
/// [`LockManager::unregister`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OwnerId(pub(crate) u32);

impl OwnerId {
    /// The dense slot index backing this handle. Stable while the owner
    /// stays registered; suitable for indexing caller-side mirrors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Lock mode under strict 2PL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// Shared access.
    Read,
    /// Exclusive access (the paper's "update lock").
    Update,
}

impl LockMode {
    /// Read–read is the only compatible pair.
    #[inline]
    pub fn compatible(self, other: LockMode) -> bool {
        self == LockMode::Read && other == LockMode::Read
    }
}

/// Outcome of [`LockManager::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Lock granted through `lenders` prepared lenders' conflicting
    /// locks (zero for a plain grant; [`LockManager::lenders_of`]
    /// names them).
    Granted { lenders: u32 },
    /// The owner already holds the page in this or a stronger mode.
    AlreadyHeld,
    /// The request queued. Query [`LockManager::blockers_of`] (or walk
    /// [`LockManager::for_each_blocker`]) for the owners the requester
    /// now waits on; the outcome itself carries no blocker list so the
    /// hot path never allocates one it may not need.
    Blocked,
}

/// A grant released by a state change (release, abort, prepare).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The owner whose waiting request was just granted.
    pub owner: OwnerId,
    /// The granted page.
    pub page: PageId,
    /// The granted mode.
    pub mode: LockMode,
    /// Prepared lenders borrowed through (zero for a plain grant).
    pub lenders: u32,
}

/// Sentinel for "no owner": an empty holder slot or the end of a wait
/// list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Holder {
    owner: u32,
    mode: LockMode,
}

impl Holder {
    const EMPTY: Holder = Holder {
        owner: NIL,
        mode: LockMode::Read,
    };
}

/// One page's lock state (32 bytes; see the module docs).
#[derive(Debug)]
struct PageLock {
    /// Inline holder slots; `owner == NIL` marks a free slot.
    slots: [Holder; 2],
    /// Holders beyond the two inline slots. Allocated at a page's first
    /// third concurrent holder and kept (empty) afterwards. Boxed so the
    /// field is one pointer: a bare `Vec` would take 24 of the 32 bytes.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<Holder>>>,
    /// First and last waiting owner (slots), linked through
    /// `OwnerState::next_wait`; `NIL` when nobody waits.
    head: u32,
    tail: u32,
}

impl Default for PageLock {
    fn default() -> Self {
        PageLock {
            slots: [Holder::EMPTY; 2],
            spill: None,
            head: NIL,
            tail: NIL,
        }
    }
}

impl PageLock {
    fn spilled(&self) -> &[Holder] {
        self.spill.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Current holders; order unspecified.
    #[inline]
    fn holders(&self) -> impl Iterator<Item = Holder> + '_ {
        let inline = self.slots.iter().filter(|h| h.owner != NIL);
        inline.chain(self.spilled()).copied()
    }

    /// Holder position `i`: the inline slots, then the spill list.
    #[inline]
    fn holder_at(&self, i: usize) -> Holder {
        match i {
            0 | 1 => self.slots[i],
            _ => self.spilled()[i - 2],
        }
    }

    fn holder_count(&self) -> usize {
        self.slots.iter().filter(|h| h.owner != NIL).count() + self.spilled().len()
    }

    fn add_holder(&mut self, h: Holder) {
        match self.slots.iter_mut().find(|s| s.owner == NIL) {
            Some(slot) => *slot = h,
            None => self.spill.get_or_insert_default().push(h),
        }
    }

    /// Drop `owner`'s holder entry, if any. A freed inline slot takes
    /// over a spilled holder so the inline slots fill first.
    fn remove_holder(&mut self, owner: u32) {
        if let Some(i) = self.slots.iter().position(|s| s.owner == owner) {
            let refill = self.spill.as_mut().and_then(|v| v.pop());
            self.slots[i] = refill.unwrap_or(Holder::EMPTY);
        } else if let Some(v) = self.spill.as_mut() {
            v.retain(|h| h.owner != owner);
        }
    }

    /// Set `owner`'s held mode to `Update`; false if it holds nothing.
    fn promote(&mut self, owner: u32) -> bool {
        let spilled = self
            .spill
            .as_deref_mut()
            .map_or(&mut [][..], |v| &mut v[..]);
        match self
            .slots
            .iter_mut()
            .chain(spilled)
            .find(|h| h.owner == owner)
        {
            Some(h) => {
                h.mode = LockMode::Update;
                true
            }
            None => false,
        }
    }
}

/// All state of one owner slot, in one record. A vacant slot keeps its
/// record with every list empty (see [`LockManager::audit`]).
#[derive(Debug)]
struct OwnerState {
    /// Caller-assigned sequence number (the engine's cohort id). Unique
    /// among live owners; the determinism key for every sorted output.
    seq: u64,
    live: bool,
    prepared: bool,
    /// Mode and kind of the outstanding request (valid while `waiting`).
    wait_mode: LockMode,
    /// True when the owner already holds the page in `Read` mode and is
    /// waiting to upgrade.
    upgrade: bool,
    /// The next owner in the same page's wait list, or `NIL`.
    next_wait: u32,
    /// The single outstanding waiting request, if any.
    waiting: Option<PageId>,
    /// `(page, strongest mode held)`, kept sorted by page ascending.
    held: Vec<(PageId, LockMode)>,
    /// Borrowers with a live borrow edge from this owner (slots).
    lends: Vec<u32>,
    /// Lenders this owner has a live borrow edge to (slots).
    borrows: Vec<u32>,
}

impl OwnerState {
    fn vacant() -> Self {
        OwnerState {
            seq: 0,
            live: false,
            prepared: false,
            wait_mode: LockMode::Read,
            upgrade: false,
            next_wait: NIL,
            waiting: None,
            held: Vec::new(),
            lends: Vec::new(),
            borrows: Vec::new(),
        }
    }
}

/// One site's lock table (see module docs).
#[derive(Debug)]
pub struct LockManager {
    opt_lending: bool,
    /// Pages are stored at slot `page % page_modulus`.
    page_modulus: u64,
    pages: Vec<PageLock>,
    owners: Vec<OwnerState>,
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
        self.registered += 1;
        let slot = match self.free_owners.pop() {
            Some(slot) => slot,
            None => {
                let mut st = OwnerState::vacant();
                if self.opt_lending {
                    // Room for the usual few borrow edges up front: a
                    // record's first lend or borrow can come long after
                    // its creation, and should not allocate then.
                    st.lends.reserve(4);
                    st.borrows.reserve(4);
                }
                self.owners.push(st);
                (self.owners.len() - 1) as u32
            }
        };
        let st = &mut self.owners[slot as usize];
        debug_assert!(!st.live, "free list holds a live owner");
        st.seq = seq;
        st.live = true;
        OwnerId(slot)
    }

    /// Make room for `owner` to hold `pages` locks without the table
    /// allocating. A recycled record keeps the room for its next owner.
    pub fn reserve(&mut self, owner: OwnerId, pages: usize) {
        let held = &mut self.st_mut(owner).held;
        held.reserve(pages.saturating_sub(held.len()));
    }

    /// Unregister `owner`, recycling its slot. Panics if the owner
    /// still holds locks, waits, lends, borrows, or is prepared — the
    /// caller must fully tear it down first.
    pub fn unregister(&mut self, owner: OwnerId) {
        let st = self.st_mut(owner);
        assert!(
            st.held.is_empty()
                && st.waiting.is_none()
                && !st.prepared
                && st.lends.is_empty()
                && st.borrows.is_empty(),
            "owner seq {} unregistered with live lock state",
            st.seq
        );
        st.live = false;
        self.free_owners.push(owner.0);
        self.registered -= 1;
    }

    /// The sequence number `owner` was registered with, or `None` if
    /// the slot is currently vacant.
    pub fn owner_seq(&self, owner: OwnerId) -> Option<u64> {
        self.owners
            .get(owner.index())
            .filter(|s| s.live)
            .map(|s| s.seq)
    }

    /// Number of currently registered owners.
    pub fn registered_count(&self) -> usize {
        self.registered
    }

    #[inline]
    fn st(&self, owner: OwnerId) -> &OwnerState {
        let st = &self.owners[owner.index()];
        assert!(st.live, "unregistered lock owner");
        st
    }

    #[inline]
    fn st_mut(&mut self, owner: OwnerId) -> &mut OwnerState {
        let st = &mut self.owners[owner.index()];
        assert!(st.live, "unregistered lock owner");
        st
    }

    #[inline]
    fn seq_of(&self, slot: u32) -> u64 {
        self.st(OwnerId(slot)).seq
    }

    #[inline]
    fn prepared_slot(&self, slot: u32) -> bool {
        self.owners
            .get(slot as usize)
            .is_some_and(|s| s.live && s.prepared)
    }

    /// Whether holder `h` keeps a `mode` requester other than itself
    /// waiting: a conflicting lock that is not lendable.
    #[inline]
    fn hard_conflict(&self, h: Holder, requester: u32, mode: LockMode) -> bool {
        h.owner != requester
            && !h.mode.compatible(mode)
            && !(self.opt_lending && self.prepared_slot(h.owner))
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

    /// The owners waiting on page slot `pi`, head first.
    fn queue(&self, pi: usize) -> impl Iterator<Item = u32> + '_ {
        let head = self.pages.get(pi).map_or(NIL, |e| e.head);
        self.wait_chain(head)
    }

    /// `first` and the owners linked behind it.
    fn wait_chain(&self, first: u32) -> impl Iterator<Item = u32> + '_ {
        let first = (first != NIL).then_some(first);
        std::iter::successors(first, |&o| {
            let next = self.owners[o as usize].next_wait;
            (next != NIL).then_some(next)
        })
    }

    /// The page slot `owner`'s outstanding request waits on.
    fn waiting_slot(&self, owner: OwnerId) -> Option<usize> {
        self.st(owner).waiting.map(|p| self.page_slot(p))
    }

    // ------------------------------------------------------------------
    // Wait lists (threaded through `OwnerState::next_wait`)
    // ------------------------------------------------------------------

    fn enqueue_back(&mut self, pi: usize, o: u32) {
        self.owners[o as usize].next_wait = NIL;
        let tail = self.pages[pi].tail;
        if tail == NIL {
            self.pages[pi].head = o;
        } else {
            self.owners[tail as usize].next_wait = o;
        }
        self.pages[pi].tail = o;
    }

    fn enqueue_front(&mut self, pi: usize, o: u32) {
        let entry = &mut self.pages[pi];
        self.owners[o as usize].next_wait = entry.head;
        entry.head = o;
        if entry.tail == NIL {
            entry.tail = o;
        }
    }

    /// Unlink `o` from page slot `pi`'s wait list.
    fn unlink(&mut self, pi: usize, o: u32) {
        let next = std::mem::replace(&mut self.owners[o as usize].next_wait, NIL);
        let mut prev = NIL;
        let mut cur = self.pages[pi].head;
        while cur != o {
            debug_assert_ne!(cur, NIL, "owner not in its page's wait list");
            prev = cur;
            cur = self.owners[cur as usize].next_wait;
        }
        if prev == NIL {
            self.pages[pi].head = next;
        } else {
            self.owners[prev as usize].next_wait = next;
        }
        if self.pages[pi].tail == o {
            self.pages[pi].tail = prev;
        }
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
        let entry = &self.pages[pi];
        if entry.head == NIL
            && !entry
                .holders()
                .any(|h| self.hard_conflict(h, owner.0, mode))
        {
            self.pages[pi].add_holder(Holder {
                owner: owner.0,
                mode,
            });
            self.held_insert(owner, page, mode);
            let lenders = self.note_borrows(owner.0, pi, mode);
            return RequestOutcome::Granted { lenders };
        }
        self.enqueue_back(pi, owner.0);
        self.set_waiting(owner, page, mode, false);
        RequestOutcome::Blocked
    }

    fn request_upgrade(&mut self, owner: OwnerId, page: PageId) -> RequestOutcome {
        let pi = self.page_slot(page);
        let mode = LockMode::Update;
        // Any other holder conflicts with an upgrade to Update.
        if !self.pages[pi]
            .holders()
            .any(|h| self.hard_conflict(h, owner.0, mode))
        {
            self.pages[pi].promote(owner.0);
            self.held_insert(owner, page, mode);
            let lenders = self.note_borrows(owner.0, pi, mode);
            return RequestOutcome::Granted { lenders };
        }
        // Upgrades wait at the *front* of the queue (they hold a read
        // lock already; anything granted ahead of them could only
        // deadlock against that read lock).
        self.enqueue_front(pi, owner.0);
        self.set_waiting(owner, page, mode, true);
        RequestOutcome::Blocked
    }

    fn set_waiting(&mut self, owner: OwnerId, page: PageId, mode: LockMode, upgrade: bool) {
        let st = self.st_mut(owner);
        st.waiting = Some(page);
        st.wait_mode = mode;
        st.upgrade = upgrade;
        self.waiting_owners += 1;
    }

    fn held_insert(&mut self, owner: OwnerId, page: PageId, mode: LockMode) {
        let held = &mut self.st_mut(owner).held;
        match held.binary_search_by_key(&page, |&(p, _)| p) {
            Ok(i) => held[i].1 = mode,
            Err(i) => held.insert(i, (page, mode)),
        }
    }

    /// `borrower` was just granted page slot `pi` in `mode`: record a
    /// borrow edge to every conflicting holder (all prepared lenders,
    /// or the grant could not have happened) and return their count.
    fn note_borrows(&mut self, borrower: u32, pi: usize, mode: LockMode) -> u32 {
        if !self.opt_lending {
            return 0; // nothing is lendable, so nothing conflicting was held
        }
        let mut lenders = 0;
        for i in 0..2 + self.pages[pi].spilled().len() {
            let h = self.pages[pi].holder_at(i);
            if h.owner == NIL || h.owner == borrower || h.mode.compatible(mode) {
                continue;
            }
            debug_assert!(self.prepared_slot(h.owner));
            lenders += 1;
            let lends = &mut self.owners[h.owner as usize].lends;
            if !lends.contains(&borrower) {
                lends.push(borrower);
            }
            let borrows = &mut self.owners[borrower as usize].borrows;
            if !borrows.contains(&h.owner) {
                borrows.push(h.owner);
            }
        }
        if lenders > 0 {
            self.borrow_grants += 1;
        }
        lenders
    }

    /// Live blocker set for a waiting owner: conflicting (non-lendable)
    /// holders plus conflicting queued requests ahead of it, sorted by
    /// registration sequence. Used to build the global wait-for graph
    /// at deadlock-check time, so it is always computed from live state
    /// (no stale edges).
    pub fn compute_blockers(&self, owner: OwnerId, page: PageId) -> Vec<OwnerId> {
        if self.waiting_slot(owner) != Some(self.page_slot(page)) {
            return Vec::new();
        }
        let mut blockers: Vec<u32> = Vec::new();
        self.for_each_blocker(owner, |b| blockers.push(b.0));
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
        let Some(pi) = self.waiting_slot(owner) else {
            return;
        };
        let mode = self.st(owner).wait_mode;
        for h in self.pages[pi].holders() {
            if self.hard_conflict(h, owner.0, mode) {
                f(OwnerId(h.owner));
            }
        }
        for w in self.queue(pi).take_while(|&w| w != owner.0) {
            if !self.owners[w as usize].wait_mode.compatible(mode) {
                f(OwnerId(w));
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
                for w in self.queue(self.page_slot(page)) {
                    if w != owner.0 && !hmode.compatible(self.owners[w as usize].wait_mode) {
                        f(OwnerId(w));
                    }
                }
            }
        }
        if st.waiting.is_none() {
            return;
        }
        let mode = st.wait_mode;
        for w in self.wait_chain(st.next_wait) {
            if !mode.compatible(self.owners[w as usize].wait_mode) {
                f(OwnerId(w));
            }
        }
    }

    // ------------------------------------------------------------------
    // State changes
    // ------------------------------------------------------------------

    /// Mark `owner` prepared. With lending enabled this may unblock
    /// waiters on every page it holds; the resulting grants are
    /// appended to `grants` in ascending page order (`held` is kept
    /// sorted, so no sort happens here).
    pub fn mark_prepared(&mut self, owner: OwnerId, grants: &mut Vec<Grant>) {
        {
            let st = self.st_mut(owner);
            debug_assert!(!st.prepared, "owner seq {} prepared twice", st.seq);
            st.prepared = true;
        }
        if !self.opt_lending {
            return;
        }
        // Index walk, no page snapshot: draining a held page can only
        // re-grant *this* owner an upgrade it already queued there,
        // which rewrites the held entry's mode in place — the list's
        // length and order never change under the cursor.
        let mut i = 0;
        while let Some(&(p, _)) = self.st(owner).held.get(i) {
            self.drain_queue(p, grants);
            i += 1;
        }
    }

    /// Release `owner`'s read locks (the paper: on PREPARE receipt "the
    /// cohort releases all its read locks but retains its update
    /// locks"). Appends the grants the release unblocks to `grants`,
    /// in ascending page order.
    pub fn release_read_locks(&mut self, owner: OwnerId, grants: &mut Vec<Grant>) {
        // Walk the held list by index instead of snapshotting the read
        // pages: this path runs once per cohort prepare. Releasing the
        // read lock under the owner's own queued upgrade re-grants it as
        // `Update` at the same (sorted) position, which the cursor then
        // skips — exactly the snapshot semantics, without the Vec.
        let mut i = 0;
        while let Some(&(p, m)) = self.st(owner).held.get(i) {
            if m != LockMode::Read {
                i += 1;
                continue;
            }
            self.st_mut(owner).held.remove(i);
            let pi = self.page_slot(p);
            self.pages[pi].remove_holder(owner.0);
            self.drain_queue(p, grants);
        }
    }

    /// Release every lock `owner` holds and cancel its waiting request,
    /// if any. Clears prepared status. Appends the grants the release
    /// unblocks to `grants`, held pages in ascending order.
    ///
    /// Borrow edges are *not* touched — call [`LockManager::settle_borrows`]
    /// (for a decided lender) and/or [`LockManager::drop_borrower`] (for
    /// an aborting borrower) first.
    pub fn release_all_into(&mut self, owner: OwnerId, grants: &mut Vec<Grant>) {
        if let Some(page) = self.st_mut(owner).waiting.take() {
            self.waiting_owners -= 1;
            self.unlink(self.page_slot(page), owner.0);
            // Removing a queued conflicting request can unblock those behind it.
            self.drain_queue(page, grants);
        }
        // Draining a released page grants other owners only (this one
        // no longer waits), so the held list is stable under the cursor.
        let mut i = 0;
        while let Some(&(p, _)) = self.st(owner).held.get(i) {
            let pi = self.page_slot(p);
            self.pages[pi].remove_holder(owner.0);
            self.drain_queue(p, grants);
            i += 1;
        }
        let st = self.st_mut(owner);
        st.held.clear();
        st.prepared = false;
    }

    /// [`Self::release_all_into`] into a fresh `Vec`.
    pub fn release_all(&mut self, owner: OwnerId) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.release_all_into(owner, &mut grants);
        grants
    }

    /// A lender's global decision arrived: dissolve its borrow edges and
    /// append its (former) borrowers to `out`, sorted by registration
    /// sequence. On commit the engine re-checks each borrower's shelf
    /// condition; on abort it aborts them all — the abort chain of OPT,
    /// bounded at length one.
    pub fn settle_borrows(&mut self, lender: OwnerId, out: &mut Vec<OwnerId>) {
        let start = out.len();
        out.extend(self.st(lender).lends.iter().map(|&b| OwnerId(b)));
        // Deterministic processing order.
        out[start..].sort_unstable_by_key(|&b| self.seq_of(b.0));
        for &b in &out[start..] {
            self.owners[b.index()].borrows.retain(|&l| l != lender.0);
        }
        self.st_mut(lender).lends.clear();
    }

    /// A borrower is going away (abort or full release): drop its
    /// borrow edges from both directions.
    pub fn drop_borrower(&mut self, borrower: OwnerId) {
        let mut i = 0;
        while let Some(&l) = self.st(borrower).borrows.get(i) {
            self.owners[l as usize].lends.retain(|&b| b != borrower.0);
            i += 1;
        }
        self.st_mut(borrower).borrows.clear();
    }

    /// Greedily grant from the head of `page`'s queue.
    fn drain_queue(&mut self, page: PageId, grants: &mut Vec<Grant>) {
        let pi = self.page_slot(page);
        loop {
            let head = self.pages[pi].head;
            if head == NIL {
                return;
            }
            let (mode, upgrade) = {
                let st = &self.owners[head as usize];
                (st.wait_mode, st.upgrade)
            };
            if self.pages[pi]
                .holders()
                .any(|h| self.hard_conflict(h, head, mode))
            {
                return;
            }
            debug_assert!(
                upgrade || self.pages[pi].holders().all(|h| h.owner != head),
                "a fresh waiter already holds the page"
            );
            self.unlink(pi, head);
            // Promote the read lock in place; if the owner released its
            // read locks while the upgrade was queued (legal for a
            // caller, even if the engine never does it), the upgrade
            // degenerates into a fresh grant.
            if !(upgrade && self.pages[pi].promote(head)) {
                self.pages[pi].add_holder(Holder { owner: head, mode });
            }
            let oid = OwnerId(head);
            self.held_insert(oid, page, mode);
            {
                let st = self.st_mut(oid);
                debug_assert_eq!(st.waiting, Some(page));
                st.waiting = None;
            }
            self.waiting_owners -= 1;
            let lenders = self.note_borrows(head, pi, mode);
            grants.push(Grant {
                owner: oid,
                page,
                mode,
                lenders,
            });
        }
    }

    // ------------------------------------------------------------------
    // Auditing (used by the integration test-suite)
    // ------------------------------------------------------------------

    /// Check internal invariants; returns a description of the first
    /// violation found, if any.
    ///
    /// 1. No two holders of a page conflict unless one of them is
    ///    prepared and lending is enabled.
    /// 2. A non-empty queue's head must not be grantable (no missed
    ///    grants).
    /// 3. Waiting state matches the threaded wait lists exactly: every
    ///    listed owner waits on that page, every waiting owner is
    ///    listed, each list's tail is its last owner, and the
    ///    waiting-owner counter matches.
    /// 4. Each owner's `held` list is sorted and matches the holder
    ///    slots exactly, in both directions.
    /// 5. Borrow edges are symmetric and reference prepared lenders only.
    /// 6. Vacant (recycled) owner records are empty and on the free list.
    pub fn audit(&self) -> Result<(), String> {
        let mut holder_entries = 0usize;
        let mut queued = 0usize;
        for (pi, entry) in self.pages.iter().enumerate() {
            holder_entries += entry.holder_count();
            for (i, a) in entry.holders().enumerate() {
                let in_held = self.owners.get(a.owner as usize).is_some_and(|s| {
                    s.live && (s.held.iter()).any(|&(p, m)| self.page_slot(p) == pi && m == a.mode)
                });
                if !in_held {
                    return Err(format!(
                        "page slot {pi}: holder slot {} {:?} missing from its held list",
                        a.owner, a.mode
                    ));
                }
                for b in entry.holders().skip(i + 1) {
                    if a.owner == b.owner {
                        return Err(format!(
                            "page slot {pi}: duplicate holder seq {}",
                            self.seq_of(a.owner)
                        ));
                    }
                    if !a.mode.compatible(b.mode) {
                        let lendable = self.opt_lending
                            && (self.prepared_slot(a.owner) || self.prepared_slot(b.owner));
                        if !lendable {
                            return Err(format!(
                                "page slot {pi}: conflicting holders seq {} and seq {} \
                                 with no prepared lender",
                                self.seq_of(a.owner),
                                self.seq_of(b.owner)
                            ));
                        }
                    }
                }
            }
            let (mut last, mut len) = (NIL, 0usize);
            let mut cur = entry.head;
            while cur != NIL {
                len += 1;
                let ok = len <= self.owners.len()
                    && self.owners.get(cur as usize).is_some_and(|s| {
                        s.live && s.waiting.is_some_and(|p| self.page_slot(p) == pi)
                    });
                if !ok {
                    return Err(format!(
                        "page slot {pi}: queued owner slot {cur} not in waiting state"
                    ));
                }
                (last, cur) = (cur, self.owners[cur as usize].next_wait);
            }
            if entry.tail != last {
                return Err(format!(
                    "page slot {pi}: wait-list tail {} but last waiter {last}",
                    entry.tail
                ));
            }
            queued += len;
            if entry.head != NIL {
                let head = entry.head;
                let mode = self.owners[head as usize].wait_mode;
                if !entry.holders().any(|h| self.hard_conflict(h, head, mode)) {
                    return Err(format!(
                        "page slot {pi}: queue head seq {} is grantable but still waiting",
                        self.seq_of(head)
                    ));
                }
            }
        }
        let mut waiting_seen = 0usize;
        let mut registered_seen = 0usize;
        let mut held_entries = 0usize;
        for (slot, st) in self.owners.iter().enumerate() {
            if !st.live {
                let empty = st.held.is_empty()
                    && st.lends.is_empty()
                    && st.borrows.is_empty()
                    && st.waiting.is_none()
                    && !st.prepared
                    && st.next_wait == NIL;
                if !empty {
                    return Err(format!("vacant owner slot {slot} keeps lock state"));
                }
                if !self.free_owners.contains(&(slot as u32)) {
                    return Err(format!("vacant owner slot {slot} not on the free list"));
                }
                continue;
            }
            registered_seen += 1;
            held_entries += st.held.len();
            if !st.held.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!(
                    "owner seq {}: held list not sorted by page",
                    st.seq
                ));
            }
            for &(page, mode) in &st.held {
                let ok = self.page_ro(page).is_some_and(|e| {
                    e.holders()
                        .any(|h| h.owner as usize == slot && h.mode == mode)
                });
                if !ok {
                    return Err(format!(
                        "held list has seq {}@{page}:{mode:?} but no holder entry",
                        st.seq
                    ));
                }
            }
            if let Some(page) = st.waiting {
                waiting_seen += 1;
                let listed = self.queue(self.page_slot(page)).any(|w| w as usize == slot);
                if !listed {
                    return Err(format!(
                        "owner seq {} waiting on {page} but not in its wait list",
                        st.seq
                    ));
                }
            }
            if !st.lends.is_empty() && !st.prepared && !st.held.is_empty() {
                return Err(format!(
                    "lender seq {} has live borrows but is not prepared",
                    st.seq
                ));
            }
            for &b in &st.lends {
                let ok = self
                    .owners
                    .get(b as usize)
                    .is_some_and(|bs| bs.live && bs.borrows.contains(&(slot as u32)));
                if !ok {
                    return Err(format!("asymmetric borrow edge seq {} -> slot {b}", st.seq));
                }
            }
            for &l in &st.borrows {
                let ok = self
                    .owners
                    .get(l as usize)
                    .is_some_and(|ls| ls.live && ls.lends.contains(&(slot as u32)));
                if !ok {
                    return Err(format!(
                        "asymmetric borrow edge slot {l} -> seq {} (reverse missing)",
                        st.seq
                    ));
                }
            }
        }
        if waiting_seen != self.waiting_owners || queued != self.waiting_owners {
            return Err(format!(
                "waiting counter {} != waiting owners {waiting_seen} / queued {queued}",
                self.waiting_owners
            ));
        }
        if held_entries != holder_entries {
            return Err(format!(
                "{held_entries} held-list entries but {holder_entries} holder slots"
            ));
        }
        if registered_seen != self.registered {
            return Err(format!(
                "registered counter {} != actual {registered_seen}",
                self.registered
            ));
        }
        Ok(())
    }
}
/// Vec-returning forms of the buffer-appending calls, for the tests.
#[cfg(test)]
impl LockManager {
    fn prepared_grants(&mut self, owner: OwnerId) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.mark_prepared(owner, &mut grants);
        grants
    }

    fn read_release_grants(&mut self, owner: OwnerId) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.release_read_locks(owner, &mut grants);
        grants
    }

    fn settled(&mut self, lender: OwnerId) -> Vec<OwnerId> {
        let mut borrowers = Vec::new();
        self.settle_borrows(lender, &mut borrowers);
        borrowers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn granted(o: &RequestOutcome) -> bool {
        matches!(o, RequestOutcome::Granted { .. })
    }

    /// A table plus handles `o[0..=n]` registered with `seq == index`,
    /// mirroring the raw owner ids these tests historically used.
    fn setup(lending: bool, n: u64) -> (LockManager, Vec<OwnerId>) {
        let mut lm = LockManager::new(lending);
        let owners = (0..=n).map(|i| lm.register_owner(i)).collect();
        (lm, owners)
    }

    #[test]
    fn read_read_shares() {
        let (mut lm, o) = setup(false, 2);
        assert!(granted(&lm.request(o[1], 100, LockMode::Read)));
        assert!(granted(&lm.request(o[2], 100, LockMode::Read)));
        lm.audit().unwrap();
    }

    #[test]
    fn update_excludes() {
        let (mut lm, o) = setup(false, 3);
        assert!(granted(&lm.request(o[1], 100, LockMode::Update)));
        assert_eq!(
            lm.request(o[2], 100, LockMode::Read),
            RequestOutcome::Blocked
        );
        assert_eq!(lm.blockers_of(o[2]), vec![o[1]]);
        assert_eq!(
            lm.request(o[3], 100, LockMode::Update),
            RequestOutcome::Blocked
        );
        assert_eq!(lm.blockers_of(o[3]), vec![o[1], o[2]]);
        lm.audit().unwrap();
    }

    #[test]
    fn already_held_is_idempotent() {
        let (mut lm, o) = setup(false, 1);
        assert!(granted(&lm.request(o[1], 5, LockMode::Update)));
        assert_eq!(
            lm.request(o[1], 5, LockMode::Update),
            RequestOutcome::AlreadyHeld
        );
        assert_eq!(
            lm.request(o[1], 5, LockMode::Read),
            RequestOutcome::AlreadyHeld
        );
    }

    #[test]
    fn release_grants_fcfs() {
        let (mut lm, o) = setup(false, 4);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update);
        lm.request(o[3], 9, LockMode::Read);
        lm.request(o[4], 9, LockMode::Read);
        let grants = lm.release_all(o[1]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[2]);
        let grants = lm.release_all(o[2]);
        // both reads batch-grant together
        assert_eq!(
            grants.iter().map(|g| g.owner).collect::<Vec<_>>(),
            vec![o[3], o[4]]
        );
        lm.audit().unwrap();
    }

    #[test]
    fn new_reader_does_not_bypass_queued_writer() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[2], 9, LockMode::Update); // queues
        let out = lm.request(o[3], 9, LockMode::Read); // must not bypass 2
        assert!(matches!(out, RequestOutcome::Blocked));
        assert!(lm.blockers_of(o[3]).contains(&o[2]));
        lm.audit().unwrap();
    }

    #[test]
    fn upgrade_succeeds_when_alone() {
        let (mut lm, o) = setup(false, 1);
        lm.request(o[1], 9, LockMode::Read);
        assert!(granted(&lm.request(o[1], 9, LockMode::Update)));
        assert_eq!(lm.mode_held(o[1], 9), Some(LockMode::Update));
    }

    #[test]
    fn upgrade_waits_for_other_reader_and_jumps_queue() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[2], 9, LockMode::Read);
        lm.request(o[3], 9, LockMode::Update); // queues behind readers
        let out = lm.request(o[1], 9, LockMode::Update); // upgrade, ahead of 3
        assert!(matches!(out, RequestOutcome::Blocked));
        let grants = lm.release_all(o[2]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[1]);
        assert_eq!(lm.mode_held(o[1], 9), Some(LockMode::Update));
        lm.audit().unwrap();
    }

    #[test]
    fn queued_upgrade_survives_read_release() {
        // Regression (found by proptest): owner 5 queues an upgrade
        // behind reader 6, then releases its read locks; when 6 leaves,
        // the upgrade must grant as a fresh update lock with a
        // consistent holder entry.
        let (mut lm, o) = setup(false, 6);
        lm.request(o[6], 3, LockMode::Read);
        lm.request(o[5], 3, LockMode::Read);
        assert!(matches!(
            lm.request(o[5], 3, LockMode::Update),
            RequestOutcome::Blocked
        ));
        lm.read_release_grants(o[5]);
        lm.audit().unwrap();
        let grants = lm.read_release_grants(o[6]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[5]);
        assert_eq!(lm.mode_held(o[5], 3), Some(LockMode::Update));
        lm.audit().unwrap();
    }

    #[test]
    fn release_read_locks_keeps_updates() {
        let (mut lm, o) = setup(false, 2);
        lm.request(o[1], 1, LockMode::Read);
        lm.request(o[1], 2, LockMode::Update);
        lm.request(o[2], 1, LockMode::Update); // waits on the read lock
        let grants = lm.read_release_grants(o[1]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[2]);
        assert_eq!(lm.mode_held(o[1], 1), None);
        assert_eq!(lm.mode_held(o[1], 2), Some(LockMode::Update));
        lm.audit().unwrap();
    }

    #[test]
    fn cancel_waiting_request_on_release_all() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update);
        lm.request(o[3], 9, LockMode::Read);
        assert!(lm.is_waiting(o[2]));
        // 2 aborts while waiting; 3 is still blocked by 1 (holder).
        let grants = lm.release_all(o[2]);
        assert!(grants.is_empty());
        assert!(!lm.is_waiting(o[2]));
        // now 1 releases: 3 gets the lock
        let grants = lm.release_all(o[1]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[3]);
        lm.audit().unwrap();
    }

    #[test]
    fn removing_queued_conflict_unblocks_followers() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[2], 9, LockMode::Update); // queued
        lm.request(o[3], 9, LockMode::Read); // queued behind the update
        let grants = lm.release_all(o[2]); // cancel the update while 1 still holds
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[3]);
        assert_eq!(grants[0].mode, LockMode::Read);
        lm.audit().unwrap();
    }

    // ---------------- lending (OPT) ----------------

    #[test]
    fn prepared_update_lock_is_lendable() {
        let (mut lm, o) = setup(true, 2);
        lm.request(o[1], 9, LockMode::Update);
        lm.prepared_grants(o[1]);
        let out = lm.request(o[2], 9, LockMode::Read);
        assert_eq!(out, RequestOutcome::Granted { lenders: 1 });
        assert_eq!(lm.lenders_of(o[2]).collect::<Vec<_>>(), vec![o[1]]);
        assert!(lm.has_live_borrows(o[2]));
        assert_eq!(lm.borrowers_of(o[1]).collect::<Vec<_>>(), vec![o[2]]);
        assert_eq!(lm.borrow_grants(), 1);
        lm.audit().unwrap();
    }

    #[test]
    fn lending_disabled_without_opt() {
        let (mut lm, o) = setup(false, 2);
        lm.request(o[1], 9, LockMode::Update);
        lm.prepared_grants(o[1]);
        let out = lm.request(o[2], 9, LockMode::Read);
        assert!(matches!(out, RequestOutcome::Blocked));
    }

    #[test]
    fn mark_prepared_unblocks_existing_waiters() {
        let (mut lm, o) = setup(true, 2);
        lm.request(o[1], 9, LockMode::Update);
        let out = lm.request(o[2], 9, LockMode::Update);
        assert!(matches!(out, RequestOutcome::Blocked));
        let grants = lm.prepared_grants(o[1]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[2]);
        assert_eq!(grants[0].lenders, 1);
        assert_eq!(lm.lenders_of(o[2]).collect::<Vec<_>>(), vec![o[1]]);
        lm.audit().unwrap();
    }

    #[test]
    fn lender_commit_dissolves_edges() {
        let (mut lm, o) = setup(true, 2);
        lm.request(o[1], 9, LockMode::Update);
        lm.prepared_grants(o[1]);
        lm.request(o[2], 9, LockMode::Update);
        let borrowers = lm.settled(o[1]);
        assert_eq!(borrowers, vec![o[2]]);
        assert!(!lm.has_live_borrows(o[2]));
        lm.release_all(o[1]);
        lm.audit().unwrap();
    }

    #[test]
    fn borrower_abort_drops_edges() {
        let (mut lm, o) = setup(true, 2);
        lm.request(o[1], 9, LockMode::Update);
        lm.prepared_grants(o[1]);
        lm.request(o[2], 9, LockMode::Read);
        lm.drop_borrower(o[2]);
        lm.release_all(o[2]);
        assert!(lm.borrowers_of(o[1]).next().is_none());
        lm.audit().unwrap();
    }

    #[test]
    fn multiple_borrowers_from_one_lender() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[1], 10, LockMode::Update);
        lm.prepared_grants(o[1]);
        assert!(granted(&lm.request(o[2], 9, LockMode::Update)));
        assert!(granted(&lm.request(o[3], 10, LockMode::Update)));
        // settle_borrows returns borrowers sorted by seq already
        assert_eq!(lm.settled(o[1]), vec![o[2], o[3]]);
        lm.audit().unwrap();
    }

    #[test]
    fn borrow_from_multiple_lenders() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 10, LockMode::Update);
        lm.prepared_grants(o[1]);
        lm.prepared_grants(o[2]);
        assert!(granted(&lm.request(o[3], 9, LockMode::Read)));
        assert!(granted(&lm.request(o[3], 10, LockMode::Read)));
        let mut lenders: Vec<_> = lm.lenders_of(o[3]).collect();
        lenders.sort_unstable_by_key(|&l| lm.owner_seq(l).unwrap());
        assert_eq!(lenders, vec![o[1], o[2]]);
        // first lender decides; the borrow from the second is still live
        lm.settled(o[1]);
        assert!(lm.has_live_borrows(o[3]));
        lm.settled(o[2]);
        assert!(!lm.has_live_borrows(o[3]));
    }

    #[test]
    fn lending_does_not_bypass_queue() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update); // queues (1 not prepared yet)
        lm.prepared_grants(o[1]); // grants 2 by borrowing
                                  // 3 arrives now; queue is empty so it can also borrow? No: 2 now
                                  // *holds* an update lock and is active, so 3 must wait.
        assert_eq!(
            lm.request(o[3], 9, LockMode::Update),
            RequestOutcome::Blocked
        );
        assert_eq!(lm.blockers_of(o[3]), vec![o[2]]);
        lm.audit().unwrap();
    }

    #[test]
    fn blockers_exclude_lendable_holders() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update); // blocked by 1 (active)
        assert_eq!(lm.blockers_of(o[2]), vec![o[1]]);
        lm.request(o[3], 9, LockMode::Update); // blocked by 1 and queued 2
        assert_eq!(lm.blockers_of(o[3]), vec![o[1], o[2]]);
        let grants = lm.prepared_grants(o[1]);
        // 2 borrows; 3 blocked by 2 only (1 is lendable now)
        assert_eq!(grants.len(), 1);
        assert_eq!(lm.blockers_of(o[3]), vec![o[2]]);
    }

    #[test]
    fn waiter_behind_borrower_unblocks_in_order() {
        // lender prepared; two waiters queue behind an active holder;
        // the queue drains in order once the active holder leaves.
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update); // will prepare (lender)
        lm.request(o[2], 9, LockMode::Update); // active waiter
        lm.request(o[3], 9, LockMode::Update); // behind 2
        let grants = lm.prepared_grants(o[1]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[2]); // borrows from 1
                                           // 3 still blocked by active borrower 2
        assert_eq!(lm.blockers_of(o[3]), vec![o[2]]);
        lm.drop_borrower(o[2]);
        lm.settled(o[2]);
        let grants = lm.release_all(o[2]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[3]);
        assert_eq!(grants[0].lenders, 1); // 1 still prepared
        assert_eq!(lm.lenders_of(o[3]).collect::<Vec<_>>(), vec![o[1]]);
        lm.audit().unwrap();
    }

    #[test]
    fn read_borrowers_share_the_lent_page() {
        let (mut lm, o) = setup(true, 4);
        lm.request(o[1], 9, LockMode::Update);
        lm.prepared_grants(o[1]);
        // several concurrent read borrowers are mutually compatible
        assert!(granted(&lm.request(o[2], 9, LockMode::Read)));
        assert!(granted(&lm.request(o[3], 9, LockMode::Read)));
        assert!(granted(&lm.request(o[4], 9, LockMode::Read)));
        assert_eq!(lm.settled(o[1]), vec![o[2], o[3], o[4]]);
        lm.audit().unwrap();
    }

    #[test]
    fn update_borrower_blocks_later_readers() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.prepared_grants(o[1]);
        assert!(granted(&lm.request(o[2], 9, LockMode::Update))); // borrows
                                                                  // a later reader conflicts with the *active* borrower
        assert!(matches!(
            lm.request(o[3], 9, LockMode::Read),
            RequestOutcome::Blocked
        ));
        lm.audit().unwrap();
    }

    #[test]
    fn settle_is_idempotent_and_isolated() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 10, LockMode::Update);
        lm.prepared_grants(o[1]);
        lm.prepared_grants(o[2]);
        lm.request(o[3], 9, LockMode::Read); // borrows from 1
        lm.request(o[3], 10, LockMode::Read); // borrows from 2
        assert_eq!(lm.settled(o[1]), vec![o[3]]);
        assert!(lm.settled(o[1]).is_empty(), "second settle is empty");
        assert!(lm.has_live_borrows(o[3]), "edge to lender 2 must survive");
        assert_eq!(lm.settled(o[2]), vec![o[3]]);
        assert!(!lm.has_live_borrows(o[3]));
    }

    #[test]
    fn release_on_lockless_owner_is_a_noop() {
        let (mut lm, o) = setup(false, 1);
        assert!(lm.release_all(o[1]).is_empty());
        assert!(lm.read_release_grants(o[1]).is_empty());
        lm.drop_borrower(o[1]);
        assert!(lm.settled(o[1]).is_empty());
        lm.audit().unwrap();
    }

    #[test]
    fn waiting_count_tracks_queues() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update);
        lm.request(o[3], 9, LockMode::Update);
        assert_eq!(lm.waiting_count(), 2);
        lm.release_all(o[1]);
        assert_eq!(lm.waiting_count(), 1);
        lm.release_all(o[2]);
        assert_eq!(lm.waiting_count(), 0);
    }

    #[test]
    fn pages_held_and_mode_queries() {
        let (mut lm, o) = setup(false, 2);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[1], 10, LockMode::Update);
        assert_eq!(lm.pages_held(o[1]), 2);
        assert_eq!(lm.mode_held(o[1], 9), Some(LockMode::Read));
        assert_eq!(lm.mode_held(o[1], 10), Some(LockMode::Update));
        assert_eq!(lm.mode_held(o[1], 11), None);
        assert_eq!(lm.pages_held(o[2]), 0);
        assert!(!lm.is_prepared(o[1]));
        lm.prepared_grants(o[1]);
        assert!(lm.is_prepared(o[1]));
    }

    #[test]
    fn borrow_grant_counter_counts_page_grants_not_edges() {
        let (mut lm, o) = setup(true, 4);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[2], 9, LockMode::Read);
        lm.prepared_grants(o[1]);
        lm.prepared_grants(o[2]);
        // reads are compatible with the prepared read-holders: no borrow
        assert!(granted(&lm.request(o[3], 9, LockMode::Read)));
        assert_eq!(lm.borrow_grants(), 0);
        lm.release_all(o[3]);
        // an update through two prepared read-holders is one borrow
        // grant with two lenders
        assert!(granted(&lm.request(o[4], 9, LockMode::Update)));
        assert_eq!(lm.borrow_grants(), 1);
        let mut lenders: Vec<_> = lm.lenders_of(o[4]).collect();
        lenders.sort_unstable_by_key(|&l| lm.owner_seq(l).unwrap());
        assert_eq!(lenders, vec![o[1], o[2]]);
    }

    #[test]
    fn audit_detects_conflicting_holders() {
        let (mut lm, o) = setup(false, 2);
        lm.request(o[1], 9, LockMode::Update);
        // Corrupt the table directly to prove audit sees it.
        let pi = lm.page_slot(9);
        lm.pages[pi].add_holder(Holder {
            owner: o[2].0,
            mode: LockMode::Update,
        });
        assert!(lm.audit().is_err());
    }

    #[test]
    #[should_panic(expected = "already has a waiting request")]
    fn double_wait_panics() {
        let (mut lm, o) = setup(false, 2);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update);
        lm.request(o[2], 10, LockMode::Update);
    }

    // ---------------- dense-storage specifics ----------------

    /// Grant order on bulk release depends only on page numbers, never
    /// on the order locks were acquired (the `held` list is maintained
    /// sorted, replacing the historical sort-before-drain workaround).
    #[test]
    fn grant_order_is_ascending_by_page_regardless_of_acquisition_order() {
        for acq in [[3u64, 9, 5], [9, 5, 3], [5, 3, 9]] {
            let (mut lm, o) = setup(false, 4);
            for &p in &acq {
                assert!(granted(&lm.request(o[1], p, LockMode::Update)));
            }
            // Waiters arrive in descending-page order, one per page.
            for (w, p) in [(2usize, 9u64), (3, 5), (4, 3)] {
                assert!(matches!(
                    lm.request(o[w], p, LockMode::Update),
                    RequestOutcome::Blocked
                ));
            }
            let grants = lm.release_all(o[1]);
            let pages: Vec<PageId> = grants.iter().map(|g| g.page).collect();
            assert_eq!(
                pages,
                vec![3, 5, 9],
                "acquisition order {acq:?} leaked into grant order"
            );
            lm.audit().unwrap();
        }
    }

    /// The same insertion-order independence holds for the lending path
    /// through `mark_prepared`.
    #[test]
    fn prepared_lending_grants_ascending_by_page() {
        for acq in [[3u64, 9, 5], [9, 5, 3]] {
            let (mut lm, o) = setup(true, 4);
            for &p in &acq {
                lm.request(o[1], p, LockMode::Update);
            }
            lm.request(o[2], 9, LockMode::Update);
            lm.request(o[3], 5, LockMode::Update);
            lm.request(o[4], 3, LockMode::Update);
            let grants = lm.prepared_grants(o[1]);
            assert_eq!(
                grants.iter().map(|g| g.page).collect::<Vec<_>>(),
                vec![3, 5, 9]
            );
            lm.audit().unwrap();
        }
    }

    #[test]
    fn owner_slots_are_reused_and_seqs_tracked() {
        let mut lm = LockManager::new(false);
        let a = lm.register_owner(10);
        let b = lm.register_owner(11);
        assert_eq!(lm.registered_count(), 2);
        assert_eq!(lm.owner_seq(a), Some(10));
        lm.unregister(a);
        assert_eq!(lm.registered_count(), 1);
        let c = lm.register_owner(12);
        assert_eq!(c.index(), a.index(), "freed slot is reused");
        assert_eq!(lm.owner_seq(c), Some(12));
        assert_eq!(lm.owner_seq(b), Some(11));
        lm.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "live lock state")]
    fn unregister_with_held_locks_panics() {
        let mut lm = LockManager::new(false);
        let a = lm.register_owner(1);
        lm.request(a, 9, LockMode::Update);
        lm.unregister(a);
    }

    /// With a page modulus, large page ids fold into a bounded table.
    #[test]
    fn page_modulus_bounds_the_table() {
        let mut lm = LockManager::for_pages(false, 8);
        let a = lm.register_owner(1);
        let b = lm.register_owner(2);
        assert!(granted(&lm.request(a, 1_000_003, LockMode::Update)));
        assert!(lm.pages.len() <= 8);
        assert_eq!(lm.mode_held(a, 1_000_003), Some(LockMode::Update));
        assert!(matches!(
            lm.request(b, 1_000_003, LockMode::Read),
            RequestOutcome::Blocked
        ));
        let grants = lm.release_all(a);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, b);
        lm.release_all(b);
        lm.audit().unwrap();
    }
}

// Seeded-loop generative tests (former proptest suite, rewritten as
// deterministic randomized loops over the same op space).
#[cfg(test)]
mod generative_tests {
    use super::*;
    use simkernel::SimRng;

    #[derive(Debug, Clone)]
    enum Op {
        Request { owner: u8, page: u8, update: bool },
        ReleaseAll { owner: u8 },
        ReleaseReads { owner: u8 },
        Prepare { owner: u8 },
        Settle { owner: u8 },
    }

    fn random_op(r: &mut SimRng) -> Op {
        let owner = r.uniform_u64(0, 7) as u8;
        match r.uniform_u64(0, 4) {
            0 => Op::Request {
                owner,
                page: r.uniform_u64(0, 5) as u8,
                update: r.chance(0.5),
            },
            1 => Op::ReleaseAll { owner },
            2 => Op::ReleaseReads { owner },
            3 => Op::Prepare { owner },
            _ => Op::Settle { owner },
        }
    }

    fn random_ops(r: &mut SimRng, max_len: usize) -> Vec<Op> {
        let len = r.uniform_usize(1, max_len);
        (0..len).map(|_| random_op(r)).collect()
    }

    /// Eight owners registered with `seq == index`, as the op space uses.
    fn table_with_owners(lending: bool) -> (LockManager, Vec<OwnerId>) {
        let mut lm = LockManager::new(lending);
        let owners = (0..8).map(|i| lm.register_owner(i)).collect();
        (lm, owners)
    }

    /// Random op sequences keep every audit invariant intact, with and
    /// without lending.
    #[test]
    fn random_ops_never_violate_invariants() {
        let mut r = SimRng::new(0x10CC_7AB1);
        for case in 0..300 {
            let lending = case % 2 == 0;
            let ops = random_ops(&mut r, 119);
            let (mut lm, o) = table_with_owners(lending);
            let mut prepared = std::collections::HashSet::new();
            for op in ops {
                match op {
                    Op::Request {
                        owner,
                        page,
                        update,
                    } => {
                        let owner = o[owner as usize];
                        if lm.is_waiting(owner) || prepared.contains(&owner) {
                            continue;
                        }
                        let mode = if update {
                            LockMode::Update
                        } else {
                            LockMode::Read
                        };
                        let _ = lm.request(owner, page as u64, mode);
                    }
                    Op::ReleaseAll { owner } => {
                        let owner = o[owner as usize];
                        lm.drop_borrower(owner);
                        lm.settled(owner);
                        lm.release_all(owner);
                        prepared.remove(&owner);
                    }
                    Op::ReleaseReads { owner } => {
                        lm.read_release_grants(o[owner as usize]);
                    }
                    Op::Prepare { owner } => {
                        let owner = o[owner as usize];
                        // only owners not waiting and not already prepared
                        if !lm.is_waiting(owner)
                            && !prepared.contains(&owner)
                            && lm.pages_held(owner) > 0
                            && !lm.has_live_borrows(owner)
                        {
                            lm.prepared_grants(owner);
                            prepared.insert(owner);
                        }
                    }
                    Op::Settle { owner } => {
                        let owner = o[owner as usize];
                        if prepared.contains(&owner) {
                            lm.settled(owner);
                            lm.release_all(owner);
                            prepared.remove(&owner);
                        }
                    }
                }
                if let Err(e) = lm.audit() {
                    panic!("audit failed (lending={lending}): {e}");
                }
            }
        }
    }

    /// `for_each_waiter` is exactly the transpose of `for_each_blocker`
    /// (and `for_each_blocker` covers exactly `blockers_of`) in every
    /// state random op sequences reach: read/update mixes, upgrades
    /// queued at the front, prepared lenders with and without lending,
    /// and owners unregistered and re-registered into recycled slots.
    #[test]
    fn for_each_waiter_is_the_transpose_of_for_each_blocker() {
        use std::collections::BTreeSet;
        let mut r = SimRng::new(0x7A45_9053);
        let (mut edges, mut front_upgrades, mut lender_states) = (0usize, 0usize, 0usize);
        for case in 0..300 {
            let lending = case % 2 == 0;
            let (mut lm, mut o) = table_with_owners(lending);
            let mut next_seq = 8;
            for _ in 0..r.uniform_usize(1, 119) {
                let op = random_op(&mut r);
                match op {
                    Op::Request {
                        owner,
                        page,
                        update,
                    } => {
                        let owner = o[owner as usize];
                        if lm.is_waiting(owner) || lm.is_prepared(owner) {
                            continue;
                        }
                        let mode = if update {
                            LockMode::Update
                        } else {
                            LockMode::Read
                        };
                        let _ = lm.request(owner, page as u64, mode);
                    }
                    Op::ReleaseAll { owner } => {
                        // Churn: tear the owner down and register a
                        // fresh one, which takes over the freed slot.
                        let i = owner as usize;
                        lm.drop_borrower(o[i]);
                        lm.settled(o[i]);
                        lm.release_all(o[i]);
                        lm.unregister(o[i]);
                        o[i] = lm.register_owner(next_seq);
                        next_seq += 1;
                    }
                    Op::ReleaseReads { owner } => {
                        lm.read_release_grants(o[owner as usize]);
                    }
                    Op::Prepare { owner } => {
                        let owner = o[owner as usize];
                        if !lm.is_waiting(owner)
                            && !lm.is_prepared(owner)
                            && lm.pages_held(owner) > 0
                            && !lm.has_live_borrows(owner)
                        {
                            lm.prepared_grants(owner);
                        }
                    }
                    Op::Settle { owner } => {
                        let owner = o[owner as usize];
                        if lm.is_prepared(owner) {
                            lm.settled(owner);
                            lm.release_all(owner);
                        }
                    }
                }
                lm.audit().unwrap();
                let (mut forward, mut backward) = (BTreeSet::new(), BTreeSet::new());
                for &w in &o {
                    let mut visited = BTreeSet::new();
                    lm.for_each_blocker(w, |b| {
                        visited.insert(b.0);
                        forward.insert((w.0, b.0));
                    });
                    let listed: BTreeSet<u32> = lm.blockers_of(w).iter().map(|b| b.0).collect();
                    assert_eq!(visited, listed);
                    lm.for_each_waiter(w, |x| {
                        backward.insert((x.0, w.0));
                    });
                }
                assert_eq!(forward, backward, "lending={lending}");
                edges += forward.len();
                for entry in &lm.pages {
                    let head = entry.head;
                    if head == NIL {
                        continue;
                    }
                    front_upgrades += lm.owners[head as usize].upgrade as usize;
                    let lender = entry
                        .holders()
                        .any(|h| h.owner != head && lm.prepared_slot(h.owner));
                    lender_states += (lending && lender) as usize;
                }
            }
        }
        // Not vacuous: every shape above actually occurred.
        assert!(edges > 5_000, "{edges}");
        assert!(front_upgrades > 30, "{front_upgrades}");
        assert!(lender_states > 100, "{lender_states}");
    }

    /// Without lending, conflicting pages serialize: at most one update
    /// holder, and never an update holder together with any other holder.
    #[test]
    fn no_lending_means_strict_exclusivity() {
        let mut r = SimRng::new(0x10CC_7AB2);
        for _ in 0..300 {
            let ops = random_ops(&mut r, 99);
            let (mut lm, o) = table_with_owners(false);
            for op in ops {
                match op {
                    Op::Request {
                        owner,
                        page,
                        update,
                    } => {
                        let owner = o[owner as usize];
                        if lm.is_waiting(owner) {
                            continue;
                        }
                        let mode = if update {
                            LockMode::Update
                        } else {
                            LockMode::Read
                        };
                        let _ = lm.request(owner, page as u64, mode);
                    }
                    Op::ReleaseAll { owner } => {
                        lm.release_all(o[owner as usize]);
                    }
                    _ => {}
                }
                assert!(lm.audit().is_ok());
            }
        }
    }
}

// The live table against the `Vec`/`VecDeque` reference it replaced,
// over random op sequences: every outcome, grant list, blocker set,
// waiter set and borrow edge must agree.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use crate::reference;
    use simkernel::SimRng;
    use std::collections::BTreeSet;

    const OWNERS: usize = 8;
    const PAGES: u64 = 6;

    struct Pair {
        new: LockManager,
        old: reference::LockManager,
        owners: Vec<OwnerId>,
        next_seq: u64,
        /// Page id of abstract page `k` (identity, or residues of a
        /// small modulus).
        page_of: fn(u64) -> PageId,
    }

    fn grant_keys(grants: &[Grant]) -> Vec<(OwnerId, PageId, LockMode, u32)> {
        grants
            .iter()
            .map(|g| (g.owner, g.page, g.mode, g.lenders))
            .collect()
    }

    fn ref_grant_keys(grants: &[reference::Grant]) -> Vec<(OwnerId, PageId, LockMode, u32)> {
        grants
            .iter()
            .map(|g| (g.owner, g.page, g.mode, g.borrowed_from.len() as u32))
            .collect()
    }

    fn ref_outcome(o: reference::RequestOutcome) -> RequestOutcome {
        match o {
            reference::RequestOutcome::Granted { borrowed_from } => RequestOutcome::Granted {
                lenders: borrowed_from.len() as u32,
            },
            reference::RequestOutcome::AlreadyHeld => RequestOutcome::AlreadyHeld,
            reference::RequestOutcome::Blocked => RequestOutcome::Blocked,
        }
    }

    impl Pair {
        fn new(lending: bool, modulus: bool) -> Self {
            let (mut new, mut old, page_of): (_, _, fn(u64) -> PageId) = if modulus {
                (
                    LockManager::for_pages(lending, PAGES),
                    reference::LockManager::for_pages(lending, PAGES),
                    |k| 7 * k + 1,
                )
            } else {
                (
                    LockManager::new(lending),
                    reference::LockManager::new(lending),
                    |k| k,
                )
            };
            let owners = (0..OWNERS as u64)
                .map(|s| {
                    let o = new.register_owner(s);
                    assert_eq!(old.register_owner(s), o);
                    o
                })
                .collect();
            Pair {
                new,
                old,
                owners,
                next_seq: OWNERS as u64,
                page_of,
            }
        }

        fn release_all(&mut self, o: OwnerId) {
            let mut grants = Vec::new();
            self.new.release_all_into(o, &mut grants);
            assert_eq!(
                grant_keys(&grants),
                ref_grant_keys(&self.old.release_all(o))
            );
        }

        fn settle(&mut self, o: OwnerId) {
            let mut borrowers = Vec::new();
            self.new.settle_borrows(o, &mut borrowers);
            assert_eq!(borrowers, self.old.settle_borrows(o));
        }

        fn step(&mut self, r: &mut SimRng) {
            let i = r.uniform_usize(0, OWNERS - 1);
            let o = self.owners[i];
            match r.uniform_u64(0, 6) {
                0 | 1 => {
                    if self.new.is_waiting(o) || self.new.is_prepared(o) {
                        return;
                    }
                    let page = (self.page_of)(r.uniform_u64(0, PAGES - 1));
                    let mode = if r.chance(0.5) {
                        LockMode::Update
                    } else {
                        LockMode::Read
                    };
                    let got = self.new.request(o, page, mode);
                    assert_eq!(got, ref_outcome(self.old.request(o, page, mode)));
                }
                2 => {
                    let mut grants = Vec::new();
                    self.new.release_read_locks(o, &mut grants);
                    let want = self.old.release_read_locks(o);
                    assert_eq!(grant_keys(&grants), ref_grant_keys(&want));
                }
                3 => {
                    let n = &self.new;
                    if n.is_waiting(o)
                        || n.is_prepared(o)
                        || n.pages_held(o) == 0
                        || n.has_live_borrows(o)
                    {
                        return;
                    }
                    let mut grants = Vec::new();
                    self.new.mark_prepared(o, &mut grants);
                    let want = self.old.mark_prepared(o);
                    assert_eq!(grant_keys(&grants), ref_grant_keys(&want));
                }
                4 => {
                    // A lender decides: settle its edges, then release.
                    if self.new.is_prepared(o) {
                        self.settle(o);
                        self.release_all(o);
                    }
                }
                5 => {
                    // An aborting (never prepared) borrower: drop its
                    // edges, then release.
                    if self.new.is_prepared(o) {
                        return;
                    }
                    self.new.drop_borrower(o);
                    self.old.drop_borrower(o);
                    self.release_all(o);
                }
                _ => {
                    // Churn: full teardown, unregister, and a fresh
                    // owner in the recycled slot.
                    self.new.drop_borrower(o);
                    self.old.drop_borrower(o);
                    self.settle(o);
                    self.release_all(o);
                    self.new.unregister(o);
                    self.old.unregister(o);
                    let fresh = self.new.register_owner(self.next_seq);
                    assert_eq!(self.old.register_owner(self.next_seq), fresh);
                    self.owners[i] = fresh;
                    self.next_seq += 1;
                }
            }
        }

        /// Lenders of `o`, ordered by seq (edge order is unspecified).
        fn sorted(&self, it: impl Iterator<Item = OwnerId>) -> Vec<OwnerId> {
            let mut v: Vec<OwnerId> = it.collect();
            v.sort_unstable_by_key(|&l| self.new.owner_seq(l));
            v
        }

        fn compare(&self) {
            let (n, o) = (&self.new, &self.old);
            if let Err(e) = n.audit() {
                panic!("audit: {e}");
            }
            assert_eq!(n.waiting_count(), o.waiting_count());
            assert_eq!(n.registered_count(), o.registered_count());
            assert_eq!(n.borrow_grants(), o.borrow_grants());
            for &w in &self.owners {
                assert_eq!(n.owner_seq(w), o.owner_seq(w));
                assert_eq!(n.is_waiting(w), o.is_waiting(w));
                assert_eq!(n.is_prepared(w), o.is_prepared(w));
                assert_eq!(n.pages_held(w), o.pages_held(w));
                for k in 0..PAGES {
                    let page = (self.page_of)(k);
                    assert_eq!(n.mode_held(w, page), o.mode_held(w, page));
                }
                assert_eq!(n.blockers_of(w), o.blockers_of(w));
                let (mut a, mut b) = (BTreeSet::new(), BTreeSet::new());
                n.for_each_waiter(w, |x| {
                    a.insert(x.0);
                });
                o.for_each_waiter(w, |x| {
                    b.insert(x.0);
                });
                assert_eq!(a, b);
                assert_eq!(self.sorted(n.lenders_of(w)), self.sorted(o.lenders_of(w)));
                assert_eq!(
                    self.sorted(n.borrowers_of(w)),
                    self.sorted(o.borrowers_of(w))
                );
            }
        }
    }

    #[test]
    fn page_lock_is_compact() {
        assert!(std::mem::size_of::<PageLock>() <= 32);
    }

    #[test]
    fn matches_the_reference_table() {
        let mut r = SimRng::new(0xD1FF_10C5);
        let (mut grants, mut blocked, mut spills) = (0u64, 0u64, 0usize);
        for case in 0..400 {
            let mut p = Pair::new(case % 2 == 0, case % 4 >= 2);
            for _ in 0..r.uniform_usize(1, 150) {
                p.step(&mut r);
                p.compare();
            }
            grants += p.new.borrow_grants();
            blocked += p.new.waiting_count() as u64;
            spills += p.new.pages.iter().filter(|e| e.spill.is_some()).count();
        }
        // Not vacuous: lending grants, waits and spilled holders occurred.
        assert!(grants > 100, "{grants}");
        assert!(blocked > 100, "{blocked}");
        assert!(spills > 50, "{spills}");
    }
}
