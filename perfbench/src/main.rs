//! Host-time benchmark of the distcommit simulator.
//!
//! ```text
//! perfbench --workload <paper-grid|wan-zipf|faults-sinks> --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs the workload's cells one after another, single-threaded, in
//! whole passes until `S` seconds have gone by, checks every cell's
//! report, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` untraced and
//! traced passes alternate, layer replays follow, and the metrics are
//! the per-layer ones. See `NOTES.md` beside this package.

mod cells;
mod layers;
mod sinks;
mod spans;
mod speed;

use cells::{Cell, CellRun, Workload};
use distdb::engine::Simulation;
use distdb::metrics::ReportFormat;
use distdb::workload::WorkloadGenerator;
use sinks::{ProtocolCounter, RecordTime};
use spans::Spans;
use speed::Speed;
use std::hint::black_box;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Commits run to prime each cell during set-up.
const PRIME_COMMITS: u64 = 200;
/// Replay sizes, per distinct configuration of the workload.
const LOCK_COMMITS: u64 = 10_000;
const TEMPLATES: u64 = 100_000;
/// Engine events per station-replay visit (each visit times two calls).
const EVENTS_PER_VISIT: u64 = 4;
/// Run length (warm-up, measured) of the sink replay cells, and the
/// bare/series pairs timed per cell.
const SINK_REPLAY: (u64, u64) = (100, 2_000);
const SINK_REPLAY_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = cells::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => {
                seed = val
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = val.parse().map_err(|_| bad("expected seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Counts every checked cell and remembers each outcome's first
/// fingerprint, so repeated runs of one (config, protocol) must agree —
/// across passes, and across the observers installed on it.
struct Checker {
    workload: Workload,
    seed: u64,
    seen: Vec<(Cell, u64, u64)>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(workload: Workload, seed: u64) -> Self {
        Checker {
            workload,
            seed,
            seen: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn fail(&mut self, msg: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {msg}");
    }

    fn check(&mut self, cell: &Cell, run: Result<&CellRun, &String>) {
        self.attempted += 1;
        let run = match run {
            Ok(run) => run,
            Err(e) => return self.fail(e),
        };
        if cell.observe != cells::Observe::Bare && run.output_bytes == 0 {
            return self.fail(&format!("{}: observers rendered no output", cell.name));
        }
        let fp = match cells::check(self.workload, cell, self.seed, &run.report) {
            Ok(fp) => fp,
            Err(e) => return self.fail(&e),
        };
        let same = |c: &Cell| c.cfg == cell.cfg && c.spec == cell.spec;
        match self.seen.iter().find(|(c, _, _)| same(c)) {
            None => self.seen.push((cell.clone(), fp, run.chrome_bytes)),
            Some((first, want, _)) if *want != fp => {
                let msg = format!(
                    "{}: fingerprint {fp:#018x} differs from {:#018x} of {}",
                    cell.name, want, first.name
                );
                self.fail(&msg)
            }
            Some((first, _, bytes)) if first.name == cell.name && *bytes != run.chrome_bytes => {
                let msg = format!(
                    "{}: chrome stream {} bytes, earlier {bytes}",
                    cell.name, run.chrome_bytes
                );
                self.fail(&msg)
            }
            Some(_) => {}
        }
    }
}

/// Build every cell's configuration, workload generator and latency
/// matrix, and prime each cell with a short run; repeated
/// [`SETUP_REPS`] times. Returns the cells and the median seconds at
/// reference speed.
fn setup(w: Workload, seed: u64) -> (Vec<Cell>, f64) {
    let mut times = Vec::new();
    let mut out = Vec::new();
    let mut speed = Speed::default();
    for _ in 0..SETUP_REPS {
        let slowdown = speed.sample();
        let t0 = Instant::now();
        out = cells::cells(w);
        for c in &out {
            // A config error is reported by the cell's own run.
            if c.cfg.validate().is_err() {
                continue;
            }
            black_box(WorkloadGenerator::new(&c.cfg, c.spec.base));
            if let Some(t) = c.cfg.topology {
                black_box(t.latency_matrix(c.cfg.num_sites, seed));
            }
            let prime = c.cfg.clone().with_run_length(0, PRIME_COMMITS);
            let _ = black_box(Simulation::run(&prime, c.spec, seed));
        }
        times.push(t0.elapsed().as_secs_f64() / slowdown);
    }
    (out, median(&mut times))
}

/// Totals over one pass of the workload's cells.
#[derive(Default)]
struct Pass {
    commits: u64,
    host_s: f64,
    events: u64,
    aborts: u64,
    deadlock_aborts: u64,
    protocol: ProtocolCounter,
    chrome: RecordTime,
    fold: RecordTime,
    chrome_bytes: u64,
    render_s: f64,
    /// Reference-kernel samples before each cell and after the last.
    speed: Speed,
    /// Events per cell, in cell order (0 for a cell that failed to run).
    cell_events: Vec<u64>,
}

impl Pass {
    fn add(&mut self, run: Result<&CellRun, &String>) {
        let Ok(run) = run else {
            self.cell_events.push(0);
            return;
        };
        let r = &run.report;
        self.cell_events.push(r.events);
        self.commits += r.committed;
        self.events += r.events;
        self.aborts += r.total_aborts();
        self.deadlock_aborts += r.aborted_deadlock;
        if let Some(p) = &run.protocol {
            self.protocol.add(p);
        }
        self.chrome.add(&run.chrome);
        self.fold.add(&run.fold);
        self.chrome_bytes += run.chrome_bytes;
    }

    /// Commits per host second at reference speed.
    fn rate(&self) -> f64 {
        self.commits as f64 / self.host_s.max(1e-9) * self.speed.slowdown()
    }
}

/// One untraced pass: the measured workload.
fn untraced_pass(cells: &[Cell], seed: u64, check: &mut Checker) -> Pass {
    let mut pass = Pass::default();
    for cell in cells {
        pass.speed.sample();
        let run = cells::run_cell(cell, seed, false);
        check.check(cell, run.as_ref());
        pass.add(run.as_ref());
        if let Ok(run) = run {
            pass.host_s += run.host_s;
        }
    }
    pass.speed.sample();
    pass
}

/// One traced pass: a span per cell around the `Simulation::run*`
/// call and `SimReport::render`, with the sinks' `record` totals
/// folded in per cell.
fn traced_pass(cells: &[Cell], seed: u64, check: &mut Checker, spans: &mut Spans) -> Pass {
    let mut pass = Pass::default();
    let pass_span = spans.open("pass.traced", None, None);
    for (i, cell) in cells.iter().enumerate() {
        pass.speed.sample();
        let cell_span = spans.open("cell", Some(pass_span), Some(i));
        let run_span = spans.open("engine.run", Some(cell_span), Some(i));
        let run = cells::run_cell(cell, seed, true);
        spans.close(run_span);
        check.check(cell, run.as_ref());
        pass.add(run.as_ref());
        if let Ok(run) = run {
            if run.chrome.calls > 0 {
                spans.aggregate(
                    "sink.chrome.record",
                    run_span,
                    run.chrome.calls,
                    run.chrome.ns,
                );
                spans.aggregate("sink.fold.record", run_span, run.fold.calls, run.fold.ns);
            }
            let render_span = spans.open("output.render", Some(cell_span), Some(i));
            black_box(run.report.render(ReportFormat::Json));
            pass.render_s += spans.close(render_span);
        }
        pass.host_s += spans.close(cell_span);
    }
    pass.speed.sample();
    spans.close(pass_span);
    pass
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

fn untraced(args: &Args) -> (Checker, Metrics) {
    let mut check = Checker::new(args.workload, args.seed);
    let (cells, setup_s) = setup(args.workload, args.seed);
    let start = Instant::now();
    let mut rates = Vec::new();
    loop {
        let pass = untraced_pass(&cells, args.seed, &mut check);
        eprintln!(
            "perfbench: pass {}: {} commits in {:.3} s, machine {:.3}x slower than reference",
            rates.len() + 1,
            pass.commits,
            pass.host_s,
            pass.speed.slowdown()
        );
        rates.push(pass.rate());
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut m = Metrics(Vec::new());
    m.put("commits_per_s", median(&mut rates), "1/s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("setup_s", setup_s, "s");
    let passed = 1.0 - check.failed as f64 / check.attempted.max(1) as f64;
    m.put("passed_run_frac", passed, "ratio");
    (check, m)
}

/// The distinct (config, protocol) pairs among `cells`, bare.
fn distinct(cells: &[Cell]) -> Vec<Cell> {
    let mut out: Vec<Cell> = Vec::new();
    for c in cells {
        if !out.iter().any(|o| o.cfg == c.cfg && o.spec == c.spec) {
            out.push(Cell {
                observe: cells::Observe::Bare,
                ..c.clone()
            });
        }
    }
    out
}

/// Host-time cost of the series recorder on `cell`: the median, over
/// [`SINK_REPLAY_REPS`] interleaved pairs, of an untraced
/// `run_with_series` minus an untraced `run`.
fn series_cost(cell: &Cell, seed: u64) -> Result<f64, String> {
    let with = |observe| Cell {
        observe,
        ..cell.clone()
    };
    let (bare, series) = (with(cells::Observe::Bare), with(cells::Observe::Series));
    let mut diffs = Vec::new();
    for _ in 0..SINK_REPLAY_REPS {
        let b = cells::run_cell(&bare, seed, false)?.host_s;
        diffs.push(cells::run_cell(&series, seed, false)?.host_s - b);
    }
    Ok(median(&mut diffs))
}

/// Layer replay totals over the workload's distinct configurations.
#[derive(Default)]
struct Replays {
    locks: layers::LockStats,
    cal_ops: u64,
    cal_ns: u64,
    st_ops: u64,
    st_ns: u64,
    gen_ns: Vec<f64>,
    pages: Vec<f64>,
    gen_setup_s: f64,
}

/// Replay each distinct configuration's inputs through the lock table,
/// deadlock detector, calendar, stations and workload generator. The
/// calendar replay makes one hold per engine event of the
/// configuration's cells (`cell_events`, in cell order), the station
/// replay one visit per [`EVENTS_PER_VISIT`] events.
fn replay_layers(cells: &[Cell], cell_events: &[u64], seed: u64, spans: &mut Spans) -> Replays {
    let mut configs: Vec<&Cell> = Vec::new();
    for c in cells {
        if !configs.iter().any(|o| o.cfg == c.cfg) {
            configs.push(c);
        }
    }
    let mut r = Replays::default();
    for c in configs {
        let base = c.spec.base;
        let events: u64 = cells
            .iter()
            .zip(cell_events)
            .filter(|(x, _)| x.cfg == c.cfg)
            .map(|(_, e)| e)
            .sum();
        let locks = spans.time("replay.locks", None, None, || {
            layers::lock_replay(&c.cfg, base, seed, LOCK_COMMITS)
        });
        r.locks.add(&locks);
        let (ops, ns) = spans.time("replay.calendar", None, None, || {
            layers::calendar_replay(&c.cfg, seed, events)
        });
        (r.cal_ops, r.cal_ns) = (r.cal_ops + ops, r.cal_ns + ns);
        let (ops, ns) = spans.time("replay.station", None, None, || {
            layers::station_replay(&c.cfg, seed, events / EVENTS_PER_VISIT)
        });
        (r.st_ops, r.st_ns) = (r.st_ops + ops, r.st_ns + ns);
        let (setup_s, gen_ns, pages) = spans.time("replay.workload", None, None, || {
            layers::workload_replay(&c.cfg, base, seed, TEMPLATES)
        });
        r.gen_setup_s += setup_s;
        r.gen_ns.push(gen_ns);
        r.pages.push(pages);
    }
    r
}

/// Sink costs over one pass or one sink replay.
#[derive(Default)]
struct SinkCost {
    chrome: RecordTime,
    fold: RecordTime,
    chrome_bytes: u64,
    series_s: f64,
}

/// Sink replay: every distinct (config, protocol) at a short run
/// length, for the series recorder's cost ([`series_cost`]).
/// Workloads whose own cells carry no Chrome/fold sinks also run the
/// timed bundle here once.
fn replay_sinks(
    w: Workload,
    cells: &[Cell],
    seed: u64,
    check: &mut Checker,
    spans: &mut Spans,
) -> SinkCost {
    let mut cost = SinkCost::default();
    let span = spans.open("replay.sinks", None, None);
    for c in distinct(cells) {
        let short = Cell {
            cfg: c.cfg.clone().with_run_length(SINK_REPLAY.0, SINK_REPLAY.1),
            ..c
        };
        let runs = (|| -> Result<_, String> {
            let series = series_cost(&short, seed)?;
            let sinks = if w.has_sinks() {
                None
            } else {
                let cell = Cell {
                    observe: cells::Observe::Sinks,
                    ..short.clone()
                };
                Some(cells::run_cell(&cell, seed, true)?)
            };
            Ok((series, sinks))
        })();
        match runs {
            Ok((series, sinks)) => {
                cost.series_s += series;
                if let Some(s) = sinks {
                    cost.chrome.add(&s.chrome);
                    cost.fold.add(&s.fold);
                    cost.chrome_bytes += s.chrome_bytes;
                }
            }
            Err(e) => {
                check.attempted += 1;
                check.fail(&e);
            }
        }
    }
    spans.close(span);
    cost
}

fn traced(args: &Args) -> (Checker, Metrics) {
    let w = args.workload;
    let seed = args.seed;
    let mut check = Checker::new(w, seed);
    let mut spans = Spans::new();
    let setup_span = spans.open("setup", None, None);
    let (cells, _) = setup(w, seed);
    spans.close(setup_span);

    // Untraced and traced passes alternate for the run's seconds.
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        let id = spans.open("pass.untraced", None, None);
        plain.push(untraced_pass(&cells, seed, &mut check));
        spans.close(id);
        traced.push(traced_pass(&cells, seed, &mut check, &mut spans));
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let med =
        |ps: &[Pass], f: &dyn Fn(&Pass) -> f64| median(&mut ps.iter().map(f).collect::<Vec<_>>());
    let plain_rate = med(&plain, &|p| p.rate());
    let traced_rate = med(&traced, &|p| p.rate());
    let first = &traced[0];

    let mut r = replay_layers(&cells, &first.cell_events, seed, &mut spans);
    let mut sinks = replay_sinks(w, &cells, seed, &mut check, &mut spans);
    if w.has_sinks() {
        // The workload's own cells carry the Chrome and fold sinks.
        sinks.chrome = RecordTime {
            calls: first.chrome.calls,
            ns: med(&traced, &|p| p.chrome.ns as f64) as u64,
        };
        sinks.fold = RecordTime {
            calls: first.fold.calls,
            ns: med(&traced, &|p| p.fold.ns as f64) as u64,
        };
        sinks.chrome_bytes = first.chrome_bytes;
    }
    eprint!("{}", spans.summary());

    let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let (l, p) = (&r.locks, &first.protocol);
    let plain_s = med(&plain, &|p| p.host_s / p.speed.slowdown());
    let mut m = Metrics(Vec::new());
    m.put("engine.events", first.events as f64, "count");
    m.put(
        "engine.events_per_commit",
        per(first.events, first.commits),
        "events/commit",
    );
    m.put("engine.events_per_s", first.events as f64 / plain_s, "1/s");
    m.put(
        "engine.restart_frac",
        per(first.aborts, first.commits + first.aborts),
        "ratio",
    );
    m.put("deadlock.calls", l.calls as f64, "count");
    m.put("deadlock.nodes_visited", l.nodes_visited as f64, "count");
    m.put("deadlock.ns_per_call", per(l.find_ns, l.calls), "ns");
    m.put("deadlock.cycle_frac", per(l.cycles, l.calls), "ratio");
    m.put("locks.requests", l.requests as f64, "count");
    m.put("locks.blocked_frac", per(l.blocked, l.requests), "ratio");
    m.put("locks.request_ns", per(l.request_ns, l.requests), "ns");
    m.put("locks.release_ns", per(l.release_ns, l.releases), "ns");
    m.put(
        "locks.deadlock_aborts",
        first.deadlock_aborts as f64,
        "count",
    );
    m.put("workload.generate_ns", median(&mut r.gen_ns), "ns");
    m.put("workload.pages_per_txn", median(&mut r.pages), "pages/txn");
    m.put("workload.setup_s", r.gen_setup_s, "s");
    m.put("calendar.ops", r.cal_ops as f64, "count");
    m.put("calendar.ns_per_op", per(r.cal_ns, r.cal_ops), "ns");
    m.put("station.ops", r.st_ops as f64, "count");
    m.put("station.ns_per_op", per(r.st_ns, r.st_ops), "ns");
    m.put("sink.chrome.record_s", sinks.chrome.ns as f64 * 1e-9, "s");
    m.put("sink.chrome.calls", sinks.chrome.calls as f64, "count");
    m.put("sink.chrome.bytes", sinks.chrome_bytes as f64, "bytes");
    m.put("sink.fold.record_s", sinks.fold.ns as f64 * 1e-9, "s");
    m.put("sink.series.cost_s", sinks.series_s, "s");
    m.put("output.render_s", med(&traced, &|p| p.render_s), "s");
    m.put(
        "protocol.msgs_remote_per_commit",
        per(p.remote_msgs, p.commits),
        "msgs/commit",
    );
    m.put(
        "protocol.forced_writes_per_commit",
        per(p.forced_writes, p.commits),
        "writes/commit",
    );
    m.put("protocol.retransmits", p.retransmits as f64, "count");
    m.put("protocol.msgs_lost", p.msgs_lost as f64, "count");
    m.put("trace.untraced_commits_per_s", plain_rate, "1/s");
    m.put("trace.commits_per_s", traced_rate, "1/s");
    m.put(
        "trace.overhead_frac",
        1.0 - traced_rate / plain_rate,
        "ratio",
    );
    m.put("trace.timer_ns", layers::timer_ns(), "ns");
    (check, m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-grid|wan-zipf|faults-sinks> \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let (check, metrics) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0 && check.attempted > 0,
        check.attempted,
        check.failed,
        body.join(", ")
    );
}
