//! A run's steady state allocates nothing.
//!
//! The paper's model is a closed system (§4): MPL transactions per
//! site, each abort resubmitted with its original access lists. The
//! live population is bounded, so once every recycled buffer has grown
//! to it, the engine — workload generator, lock tables, event calendar,
//! transaction and cohort state — should run without touching the heap.
//!
//! A counting global allocator measures that directly: each cell runs
//! at 1 000 and at 3 000 measured commits, and the 2 000 extra commits
//! may cost at most 0.05 heap allocations each. Everything outside the
//! steady state (construction, warm-up growth, the final report) is
//! common to both runs and cancels out of the difference.
//!
//! The counts are per thread, so the other test binaries' threads and
//! the harness itself cannot disturb them.

use distcommit::db::config::{FailureConfig, SystemConfig};
use distcommit::db::engine::Simulation;
use distcommit::proto::ProtocolSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: u64 = 200;
const SHORT: u64 = 1_000;
const LONG: u64 = 3_000;
const MAX_PER_COMMIT: f64 = 0.05;

/// Heap allocations (and reallocations) of one `Simulation::run`.
fn allocations(cfg: &SystemConfig, spec: ProtocolSpec, measured: u64) -> u64 {
    let cfg = cfg.clone().with_run_length(WARMUP, measured);
    let before = ALLOCATIONS.with(Cell::get);
    let report = Simulation::run(&cfg, spec, 42).expect("valid cell");
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(report.committed, measured);
    drop(report);
    after - before
}

fn wan_zipf() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline()
        .with_mpl(4)
        .with_zipf(0.9)
        .with_topology("regions=4,lan-ms=1,wan-ms=40,jitter=0.1".parse().unwrap());
    cfg.num_sites = 64;
    cfg.db_size = 64_000;
    cfg
}

#[test]
fn steady_state_runs_allocation_free() {
    let baseline = SystemConfig::paper_baseline().with_mpl(8);
    let faults: FailureConfig = "mc=0.01,cc=0.005,loss=0.01".parse().unwrap();
    let paxos = SystemConfig::paper_baseline()
        .with_mpl(4)
        .with_failures(faults)
        .with_replication(1);
    let cells = [
        ("2PC mpl 8", baseline.clone(), ProtocolSpec::TWO_PC),
        ("OPT mpl 8", baseline.clone(), ProtocolSpec::OPT_2PC),
        ("3PC mpl 8", baseline, ProtocolSpec::THREE_PC),
        ("wan-zipf 2PC", wan_zipf(), ProtocolSpec::TWO_PC),
        ("wan-zipf OPT", wan_zipf(), ProtocolSpec::OPT_2PC),
        ("PAXOS F=1 faults", paxos, ProtocolSpec::PAXOS),
    ];
    let mut failures = Vec::new();
    for (name, cfg, spec) in cells {
        let short = allocations(&cfg, spec, SHORT);
        let long = allocations(&cfg, spec, LONG);
        let per_commit = long.saturating_sub(short) as f64 / (LONG - SHORT) as f64;
        eprintln!("{name}: {short} / {long} allocations, {per_commit:.3} per extra commit");
        if per_commit > MAX_PER_COMMIT {
            failures.push(format!("{name}: {per_commit:.3} allocations per commit"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}
