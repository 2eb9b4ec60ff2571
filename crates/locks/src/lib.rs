//! # distlocks — strict 2PL with prepared-data lending
//!
//! The concurrency-control substrate of the SIGMOD'97 commit-processing
//! study. Each site of the distributed database runs one
//! [`LockManager`]: a strict two-phase-locking table with read/update
//! modes, FCFS queues, and — when the OPT commit protocol is in use —
//! **lending** of data held by *prepared* cohorts (§3 of the paper):
//!
//! > "prepared cohorts lend uncommitted data to concurrently executing
//! > transactions … there is no danger of incurring cascading aborts
//! > since the borrowing is done in a controlled manner."
//!
//! The lock manager tracks borrow edges so that, when a lender's global
//! decision arrives, the engine can either dissolve the edges (commit)
//! or abort every immediate borrower (abort) — the abort chain is
//! bounded at length one because a borrower is never allowed to reach
//! the prepared state while it has live borrows.
//!
//! Deadlock handling follows §4.2: detection is *immediate* (checked at
//! every lock conflict) and *global* (the wait-for graph spans sites).
//! [`deadlock::CycleSearch`] runs the detection over a caller-supplied
//! [`deadlock::WaitForGraph`] so the engine can stitch the per-site
//! blocker sets ([`LockManager::for_each_blocker`]) and their
//! transpose ([`LockManager::for_each_waiter`]) into one
//! transaction-level graph; [`deadlock::find_cycle`] is its plain
//! reference implementation.

pub mod deadlock;
pub mod table;

pub use table::{Grant, LockManager, LockMode, OwnerId, PageId, RequestOutcome};
