//! Micro-benchmarks for the simulator's hot paths: the event calendar,
//! the lock manager (plain and lending), deadlock detection, the trace
//! sinks, and a complete short simulation per protocol — the numbers
//! that determine how long the figure sweeps take.
//!
//! Uses the std-only harness in [`distbench::micro`]; run with
//! `cargo bench -p distbench --bench micro`.

use distbench::micro::{bench, bench_per_item, bench_with_setup};
use distdb::config::SystemConfig;
use distdb::engine::{ChromeWriter, FoldSink, Simulation, Trace, TraceSink};
use distdb::protocol::ProtocolSpec;
use distdb::workload::{TxnTemplate, WorkloadGenerator};
use distlocks::deadlock::{find_cycle, CycleSearch, WaitForGraph};
use distlocks::{LockManager, LockMode};
use simkernel::{Calendar, SimDuration, SimRng, SimTime};
use std::collections::HashMap;
use std::hint::black_box;

fn bench_calendar() {
    bench("calendar/push-pop 1k interleaved", || {
        let mut cal: Calendar<u32> = Calendar::new();
        // deterministic pseudo-random times
        let mut x = 0x9E3779B9u64;
        for i in 0..1_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cal.schedule_at(SimTime(cal.now().0 + (x >> 40)), i);
            if i % 3 == 0 {
                black_box(cal.next());
            }
        }
        while cal.next().is_some() {}
        black_box(cal.dispatched_count())
    });

    // The classic hold model at the engine's calendar sizes (MPL × sites
    // × a few events each): every hold pops the earliest event and
    // schedules one replacement, so the population stays fixed. Delays
    // are exponential (mean 10 ms, in µs ticks), and a third of the
    // pushes land at the current instant, as the engine's zero-delay
    // continuations do.
    let mut rng = SimRng::new(0x401D);
    let delays: Vec<SimDuration> = (0..4096)
        .map(|_| {
            if rng.chance(1.0 / 3.0) {
                SimDuration::ZERO
            } else {
                SimDuration((-(1.0 - rng.f64()).ln() * 10_000.0) as u64)
            }
        })
        .collect();
    const HOLDS: usize = 1_000;
    for pending in [64usize, 256, 2048] {
        let mut cal: Calendar<u32> = Calendar::new();
        for i in 0..pending {
            cal.schedule_in(delays[i % delays.len()], i as u32);
        }
        let mut i = 0;
        bench_per_item(
            &format!("calendar/hold {pending} pending"),
            HOLDS as u64,
            || {
                for _ in 0..HOLDS {
                    let (_, e) = cal.next().expect("hold keeps the calendar full");
                    cal.schedule_in(delays[i % delays.len()], black_box(e));
                    i += 1;
                }
            },
        );
    }
}

fn bench_lock_manager() {
    // Grants go to one reused buffer, as in the engine.
    let mut grants = Vec::new();
    bench("locks/request-release 1k no-conflict", || {
        let mut lm = LockManager::new(false);
        let owners: Vec<_> = (0..16u64).map(|s| lm.register_owner(s)).collect();
        for i in 0..1_000u64 {
            black_box(lm.request(owners[(i % 16) as usize], i, LockMode::Update));
        }
        for &owner in &owners {
            lm.release_all_into(owner, &mut grants);
            black_box(grants.len());
            grants.clear();
        }
    });

    bench_with_setup(
        "locks/contended queue drain",
        || {
            let mut lm = LockManager::new(false);
            let holder = lm.register_owner(0);
            lm.request(holder, 42, LockMode::Update);
            for seq in 1..64u64 {
                let o = lm.register_owner(seq);
                lm.request(o, 42, LockMode::Read);
            }
            (lm, holder)
        },
        |(mut lm, holder)| {
            grants.clear();
            lm.release_all_into(holder, &mut grants);
            black_box(grants.len())
        },
    );

    bench_with_setup(
        "locks/lending grant via mark_prepared",
        || {
            let mut lm = LockManager::new(true);
            let lender = lm.register_owner(1);
            for page in 0..32u64 {
                lm.request(lender, page, LockMode::Update);
            }
            for (i, page) in (0..32u64).enumerate() {
                let o = lm.register_owner(100 + i as u64);
                lm.request(o, page, LockMode::Update);
            }
            (lm, lender)
        },
        |(mut lm, lender)| {
            grants.clear();
            lm.mark_prepared(lender, &mut grants);
            black_box(grants.len())
        },
    );
}

/// Template generation into one reused template, as the engine draws
/// every fresh transaction: the paper's uniform baseline, and the
/// wan-zipf workload's Zipf(0.9) alias sampler over 64 sites.
fn bench_workload() {
    let mut zipf = SystemConfig::paper_baseline().with_zipf(0.9);
    zipf.num_sites = 64;
    zipf.db_size = 64_000;
    for (name, cfg) in [
        ("uniform", SystemConfig::paper_baseline()),
        ("zipf0.9 64 sites", zipf),
    ] {
        let gen = WorkloadGenerator::new(&cfg, ProtocolSpec::TWO_PC.base);
        let sites = gen.effective_sites();
        let mut rng = SimRng::new(0x6E4E);
        let mut t = TxnTemplate::default();
        const N: usize = 1_000;
        bench_per_item(&format!("workload/generate_into {name}"), N as u64, || {
            for i in 0..N {
                gen.generate_into(i % sites, &mut rng, &mut t);
            }
            black_box(t.total_pages())
        });
    }
}

/// Adjacency lists in both directions, as the search's graph.
struct Lists {
    succ: Vec<Vec<u32>>,
    pred: Vec<Vec<u32>>,
}

impl Lists {
    fn new(succ: Vec<Vec<u32>>) -> Self {
        let mut pred = vec![Vec::new(); succ.len()];
        for (a, bs) in succ.iter().enumerate() {
            for &b in bs {
                pred[b as usize].push(a as u32);
            }
        }
        Lists { succ, pred }
    }
}

impl WaitForGraph for Lists {
    type Node = u32;
    fn slot(&self, n: u32) -> usize {
        n as usize
    }
    fn successors(&mut self, n: u32, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.succ[n as usize]);
    }
    fn for_each_successor(&self, n: u32, f: impl FnMut(u32)) {
        self.succ[n as usize].iter().copied().for_each(f);
    }
    fn for_each_predecessor(&self, n: u32, f: impl FnMut(u32)) {
        self.pred[n as usize].iter().copied().for_each(f);
    }
}

fn bench_deadlock() {
    // A 64-node wait-for graph with a long cycle through node 0.
    let cyclic: Vec<Vec<u32>> = (0..64u32)
        .map(|n| vec![(n + 1) % 64, (n * 7 + 3) % 64])
        .collect();
    let graph: HashMap<u32, Vec<u32>> = (0..64u32).zip(cyclic.iter().cloned()).collect();
    bench("deadlock/find_cycle 64-node graph", || {
        black_box(find_cycle(0u32, |n| {
            graph.get(&n).cloned().unwrap_or_default()
        }))
    });
    let mut lists = Lists::new(cyclic);
    let mut search = CycleSearch::new();
    bench("deadlock/CycleSearch::find 64-node graph", || {
        black_box(search.find(&mut lists, 0).map(<[u32]>::len))
    });

    // Skewed contention, acyclic: every transaction waits for the hot
    // holder 0, for the previous waiter and for waiter n / 2. The
    // newest one (255) just blocked; nobody waits for it yet, so there
    // is no cycle, but its own waits reach the whole graph.
    let skewed: Vec<Vec<u32>> = (0..256u32)
        .map(|n| match n {
            0 => vec![],
            _ => vec![0, n - 1, n / 2],
        })
        .collect();
    let graph: HashMap<u32, Vec<u32>> = (0..256u32).zip(skewed.iter().cloned()).collect();
    bench("deadlock/find_cycle skewed acyclic 256-node graph", || {
        black_box(find_cycle(255u32, |n| {
            graph.get(&n).cloned().unwrap_or_default()
        }))
    });
    let mut lists = Lists::new(skewed);
    bench(
        "deadlock/CycleSearch::find skewed acyclic 256-node graph",
        || black_box(search.find(&mut lists, 255).map(<[u32]>::len)),
    );
}

/// The Chrome and fold sinks over one recorded faulty 3PC trace (the
/// faults-sinks mix of crashes and message loss), in ns per event. The
/// Chrome stream writes to `io::sink()`, so the cell times
/// serialization, not I/O.
fn bench_sinks() {
    let mut cfg = SystemConfig::paper_baseline()
        .with_failures("mc=0.01,cc=0.005,loss=0.01".parse().expect("valid faults"))
        .with_run_length(0, 2_000);
    cfg.mpl = 4;
    let (_, trace) =
        Simulation::run_with_sink(&cfg, ProtocolSpec::THREE_PC, 42, u64::MAX, Trace::default())
            .unwrap();
    let events = trace.events;
    bench_per_item("sink/ChromeWriter::event", events.len() as u64, || {
        let mut w = ChromeWriter::new(std::io::sink()).unwrap();
        for e in &events {
            w.event(e).unwrap();
        }
        w.finish().unwrap()
    });
    bench_per_item("sink/FoldSink::record", events.len() as u64, || {
        let mut f = FoldSink::new("3PC");
        for e in &events {
            f.record(e);
        }
        f.finish();
        f
    });
}

fn bench_simulation() {
    for spec in [
        ProtocolSpec::TWO_PC,
        ProtocolSpec::OPT_2PC,
        ProtocolSpec::THREE_PC,
        ProtocolSpec::CENT,
    ] {
        bench(
            &format!("simulation/200-commit run/{}", spec.name()),
            || {
                let mut cfg = SystemConfig::paper_baseline();
                cfg.mpl = 4;
                cfg.run.warmup_transactions = 20;
                cfg.run.measured_transactions = 200;
                black_box(Simulation::run(&cfg, spec, 42).unwrap())
            },
        );
    }
}

fn main() {
    distbench::banner("micro", "hot-path micro-benchmarks");
    bench_calendar();
    bench_lock_manager();
    bench_workload();
    bench_deadlock();
    bench_sinks();
    bench_simulation();
}
