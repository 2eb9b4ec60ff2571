//! The canonical engine benchmark: a fixed seed/protocol grid whose
//! events-per-second trajectory is committed to the repository
//! (`BENCH_*.json`) so every PR's perf delta is a recorded artifact.
//!
//! The grid is deliberately small and fixed — {2PC, PC, OPT, 3PC} ×
//! MPL {4, 8} at the paper baseline, seed 42 — because the point is
//! not to explore the parameter space (the experiment presets do that)
//! but to measure the *simulator* itself: simulated events per
//! core-second of wall-clock. Entries append to a trajectory file;
//! the committed baseline is what CI's `bench --quick` smoke step
//! compares against.
//!
//! Everything here is std-only: the JSON value type, parser and
//! renderer below exist because the repository takes no external
//! dependencies, and the trajectory file must be both written and
//! re-validated (schema + regression gate) without serde.

use commitproto::ProtocolSpec;
use distdb::config::SystemConfig;
use distdb::engine::{EngineProfile, Profiled, SeriesConfig, SeriesRecorder, Simulation};
use distdb::output::escape_json;
use std::time::Instant;

/// Protocols on the canonical grid, in run order.
pub const GRID_PROTOCOLS: [ProtocolSpec; 4] = [
    ProtocolSpec::TWO_PC,
    ProtocolSpec::PC,
    ProtocolSpec::OPT_2PC,
    ProtocolSpec::THREE_PC,
];

/// MPLs on the canonical grid: the paper's knee (4) and a heavily
/// contended point (8).
pub const GRID_MPLS: [u32; 2] = [4, 8];

/// Seed for every cell (each cell is one deterministic run).
pub const GRID_SEED: u64 = 42;

/// Sites in the scale cell (see [`scale_config`]).
pub const SCALE_SITES: usize = 64;

/// Schema tag written into (and required of) every trajectory file.
pub const SCHEMA: &str = "distcommit-bench/v1";

/// Minimum allowed `series-on / series-off` events-per-second ratio in
/// [`series_overhead`]: the series sink's off-path cost must stay
/// within 3%.
pub const SERIES_OVERHEAD_FLOOR: f64 = 0.97;

/// Harness options, CLI-shaped.
#[derive(Debug, Clone)]
pub struct Options {
    /// Short grid (CI smoke) instead of the full canonical grid.
    pub quick: bool,
    /// Free-form label recorded with the entry (e.g. "before: hashmap
    /// engine").
    pub label: String,
    /// Seed override (default [`GRID_SEED`]).
    pub seed: u64,
    /// Measure the series sink's overhead: run the grid twice (sink
    /// off, then sink on) and gate the events/sec ratio at
    /// [`SERIES_OVERHEAD_FLOOR`].
    pub series: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            quick: false,
            label: String::new(),
            seed: GRID_SEED,
            series: false,
        }
    }
}

/// One measured grid cell.
#[derive(Debug, Clone)]
pub struct Cell {
    pub protocol: String,
    pub mpl: u32,
    /// Simulation events dispatched during the run.
    pub events: u64,
    /// Transactions committed in the measurement window.
    pub committed: u64,
    /// Wall-clock seconds for the run (single-threaded, so wall time
    /// is core time).
    pub wall_s: f64,
}

impl Cell {
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
    pub fn txns_per_sec(&self) -> f64 {
        self.committed as f64 / self.wall_s
    }
}

/// One trajectory entry: a full grid pass.
#[derive(Debug, Clone)]
pub struct Entry {
    pub label: String,
    pub mode: String, // "full" | "quick"
    pub seed: u64,
    pub warmup: u64,
    pub measured: u64,
    pub cells: Vec<Cell>,
    pub peak_rss_kb: Option<u64>,
    /// Engine self-profile from one extra cell (2PC at MPL 8 with a
    /// series recorder installed) run after the grid. Not a trajectory
    /// cell: the profiled run pays for its own `Instant` reads, so its
    /// wall time is not comparable to the grid's.
    pub profile: Option<EngineProfile>,
    /// Engine self-profile of the scale cell's configuration (2PC over
    /// [`scale_config`], no sink), run after the grid: it records the
    /// share of time immediate deadlock detection (`locks_ns`) takes
    /// under skewed WAN contention.
    pub scale_profile: Option<EngineProfile>,
}

impl Entry {
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }
    pub fn total_committed(&self) -> u64 {
        self.cells.iter().map(|c| c.committed).sum()
    }
    pub fn total_wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }
    /// Aggregate events per core-second: the headline number the
    /// regression gate compares.
    pub fn events_per_sec(&self) -> f64 {
        self.total_events() as f64 / self.total_wall_s()
    }
    pub fn txns_per_sec(&self) -> f64 {
        self.total_committed() as f64 / self.total_wall_s()
    }
}

/// Run-length of the grid for a mode: (warmup, measured) transactions.
pub fn run_length(quick: bool) -> (u64, u64) {
    if quick {
        (100, 2_000)
    } else {
        (500, 20_000)
    }
}

/// Peak resident set size of this process in kB, from Linux procfs
/// (`VmHWM`). `None` on other platforms — the field is recorded as
/// JSON `null` there.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Configuration for the scale cell: [`SCALE_SITES`] sites at the
/// paper's 1000 pages/site, Zipf(0.9) page access and a 4-region WAN
/// topology. The canonical grid (8 flat-latency sites, uniform
/// access) never executes the alias sampler or the wire-latency
/// delivery path; this cell keeps both on the recorded trajectory.
pub fn scale_config() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline().with_zipf(0.9).with_topology(
        "regions=4,lan-ms=1,wan-ms=40,jitter=0.1"
            .parse()
            .expect("literal topology"),
    );
    cfg.num_sites = SCALE_SITES;
    cfg.db_size = 1_000 * SCALE_SITES as u64;
    cfg
}

/// Configuration for the replicated cell: the paper baseline with
/// every shard a 2F+1 acceptor group at F = 1. The canonical grid
/// never executes the quorum choreography — acceptor fan-out, bundle
/// tallying, failover timers — so this cell keeps the replicated hot
/// path on the recorded trajectory.
pub fn paxos_config() -> SystemConfig {
    SystemConfig::paper_baseline().with_replication(1)
}

/// Run and time one cell; `name` is the protocol label recorded in
/// the trajectory.
fn measure_cell(
    cfg: &SystemConfig,
    spec: ProtocolSpec,
    name: &str,
    seed: u64,
    with_series: bool,
    series_cfg: &SeriesConfig,
) -> Result<Cell, String> {
    let start = Instant::now();
    let report = if with_series {
        Simulation::run_with_series(cfg, spec, seed, series_cfg).map(|(r, _)| r)
    } else {
        Simulation::run(cfg, spec, seed)
    }
    .map_err(|e| format!("{name}: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let cell = Cell {
        protocol: name.to_string(),
        mpl: cfg.mpl,
        events: report.events,
        committed: report.committed,
        wall_s: round6(wall_s),
    };
    eprintln!(
        "[bench] {:<5} mpl {:>2}: {:>9} events in {:>7.3}s  ({:>10.0} events/s){}",
        cell.protocol,
        cell.mpl,
        cell.events,
        cell.wall_s,
        cell.events_per_sec(),
        if with_series { "  [series]" } else { "" }
    );
    Ok(cell)
}

/// One grid pass. With `with_series` every cell runs under
/// [`Simulation::run_with_series`] (buffered, discarded), so the
/// difference to a plain pass is exactly the sink's on-path cost.
fn grid_pass(opts: &Options, label: String, with_series: bool) -> Result<Entry, String> {
    let (warmup, measured) = run_length(opts.quick);
    let series_cfg = SeriesConfig::default();
    let mut cells = Vec::new();
    for spec in GRID_PROTOCOLS {
        for &mpl in &GRID_MPLS {
            let cfg = SystemConfig::paper_baseline()
                .with_mpl(mpl)
                .with_run_length(warmup, measured);
            cells.push(measure_cell(
                &cfg,
                spec,
                spec.name(),
                opts.seed,
                with_series,
                &series_cfg,
            )?);
        }
    }
    // The scale cell rides after the grid: 2PC over [`scale_config`],
    // recorded under the protocol name "scale" so trajectory readers
    // can tell it from the canonical 2PC cells.
    let scale = scale_config().with_run_length(warmup, measured);
    cells.push(measure_cell(
        &scale,
        ProtocolSpec::TWO_PC,
        "scale",
        opts.seed,
        with_series,
        &series_cfg,
    )?);
    // The replicated cell: Paxos Commit at F = 1 over [`paxos_config`],
    // recorded under "paxos" — the quorum interpreter path measured at
    // the same MPL as the grid's knee.
    let paxos = paxos_config().with_mpl(4).with_run_length(warmup, measured);
    cells.push(measure_cell(
        &paxos,
        ProtocolSpec::PAXOS,
        "paxos",
        opts.seed,
        with_series,
        &series_cfg,
    )?);
    Ok(Entry {
        label,
        mode: if opts.quick { "quick" } else { "full" }.to_string(),
        seed: opts.seed,
        warmup,
        measured,
        cells,
        peak_rss_kb: peak_rss_kb(),
        profile: None,
        scale_profile: None,
    })
}

/// Run the two engine self-profile cells and store them on `entry`:
/// 2PC at MPL 8 with a series recorder beside the profiler, so
/// calendar, dispatch, deadlock detection and the series sink all show
/// up with real weights; and 2PC over [`scale_config`] with no sink,
/// so `locks_ns` shows what immediate deadlock detection costs under
/// Zipf contention.
fn profile_cells(entry: &mut Entry, opts: &Options) -> Result<(), String> {
    let (warmup, measured) = run_length(opts.quick);
    let canonical = SystemConfig::paper_baseline().with_mpl(8);
    let rec = SeriesRecorder::buffered(&SeriesConfig::default());
    for (cfg, rec, slot) in [
        (canonical, Some(rec), &mut entry.profile),
        (scale_config(), None, &mut entry.scale_profile),
    ] {
        let cfg = cfg.with_run_length(warmup, measured);
        let observers = (Profiled::default(), rec);
        let (_, (p, _)) =
            Simulation::run_observed(&cfg, ProtocolSpec::TWO_PC, opts.seed, observers)
                .map_err(|e| format!("profile cell: {e}"))?;
        *slot = Some(p.profile);
    }
    Ok(())
}

/// Run the canonical grid, printing one progress line per cell to
/// stderr. Each cell is a fresh deterministic [`Simulation`] timed
/// with a monotonic clock. Two self-profile cells (see
/// `profile_cells`) run after the grid and ride on the entry.
pub fn run_grid(opts: &Options) -> Result<Entry, String> {
    let mut entry = grid_pass(opts, opts.label.clone(), false)?;
    profile_cells(&mut entry, opts)?;
    Ok(entry)
}

/// The series sink's off-path cost, measured: one grid pass without a
/// recorder, one with, same seeds and run lengths.
#[derive(Debug, Clone)]
pub struct SeriesOverhead {
    /// The plain pass (comparable to ordinary trajectory entries).
    pub off: Entry,
    /// The pass with a buffered series recorder in every cell.
    pub on: Entry,
}

impl SeriesOverhead {
    /// `on / off` aggregate events-per-second ratio; 1.0 means the
    /// sink is free, [`SERIES_OVERHEAD_FLOOR`] is the gate.
    pub fn ratio(&self) -> f64 {
        self.on.events_per_sec() / self.off.events_per_sec()
    }
}

/// Run the grid twice — series sink off, then on — and self-profile
/// the on pass. The returned entries carry ` [series off]` / ` [series
/// on]` label suffixes so a trajectory file records the pairing.
pub fn series_overhead(opts: &Options) -> Result<SeriesOverhead, String> {
    let suffix = |s: &str| {
        if opts.label.is_empty() {
            s.trim_start().to_string()
        } else {
            format!("{}{s}", opts.label)
        }
    };
    let off = grid_pass(opts, suffix(" [series off]"), false)?;
    let mut on = grid_pass(opts, suffix(" [series on]"), true)?;
    profile_cells(&mut on, opts)?;
    Ok(SeriesOverhead { off, on })
}

/// Render a human summary table for one entry.
pub fn render_entry(e: &Entry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "canonical bench ({} grid, seed {}, {}+{} txns/cell):",
        e.mode, e.seed, e.warmup, e.measured
    );
    let _ = writeln!(
        out,
        "{:<6} {:>4} {:>10} {:>9} {:>9} {:>12} {:>10}",
        "proto", "mpl", "events", "commits", "wall_s", "events/s", "txns/s"
    );
    for c in &e.cells {
        let _ = writeln!(
            out,
            "{:<6} {:>4} {:>10} {:>9} {:>9.3} {:>12.0} {:>10.0}",
            c.protocol,
            c.mpl,
            c.events,
            c.committed,
            c.wall_s,
            c.events_per_sec(),
            c.txns_per_sec()
        );
    }
    let _ = writeln!(
        out,
        "total: {} events, {} commits in {:.3}s — {:.0} events/s, {:.0} txns/core-s{}",
        e.total_events(),
        e.total_committed(),
        e.total_wall_s(),
        e.events_per_sec(),
        e.txns_per_sec(),
        match e.peak_rss_kb {
            Some(kb) => format!(", peak RSS {kb} kB"),
            None => String::new(),
        }
    );
    if let Some(p) = &e.profile {
        let _ = writeln!(out, "{}", render_profile("2PC mpl 8, series sink on", p));
    }
    if let Some(p) = &e.scale_profile {
        let _ = writeln!(out, "{}", render_profile("scale 2PC mpl 4", p));
    }
    out
}

/// One self-profile line: disjoint section shares of the profiled total.
fn render_profile(cell: &str, p: &EngineProfile) -> String {
    let total = p.total_ns.max(1) as f64;
    let pct = |ns: u64| 100.0 * ns as f64 / total;
    format!(
        "self-profile ({cell}): {} events in {:.3}s — calendar {:.1}%, \
         dispatch {:.1}%, detection {:.1}%, series sink {:.1}%",
        p.events,
        total / 1e9,
        pct(p.calendar_ns),
        pct(p.dispatch_ns),
        pct(p.locks_ns),
        pct(p.series_ns),
    )
}

/// Render the verdict line for a [`series_overhead`] measurement;
/// `Err` when the sink cost exceeds the 3% budget.
pub fn render_series_overhead(m: &SeriesOverhead) -> Result<String, String> {
    let ratio = m.ratio();
    let verdict = format!(
        "series sink: {:.0} events/s on vs {:.0} off — {ratio:.3}x (cost {:.1}%, budget {:.0}%)",
        m.on.events_per_sec(),
        m.off.events_per_sec(),
        100.0 * (1.0 - ratio),
        100.0 * (1.0 - SERIES_OVERHEAD_FLOOR),
    );
    if ratio < SERIES_OVERHEAD_FLOOR {
        Err(format!("{verdict} — over budget"))
    } else {
        Ok(verdict)
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON value / parser / renderer (std-only).
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object member order is preserved (`Vec`, not a
/// map) so re-rendering a trajectory file is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document. Supports the full value grammar the harness
/// writes (and standard escapes); errors carry a byte offset.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {s:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("bad escape \\{} ", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (may be multi-byte),
                    // decoded from the already-valid input: `pos` sits
                    // on a char boundary, since it only ever advances
                    // past ASCII bytes or whole chars.
                    let ch = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("peek saw a byte, so a char remains");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn fmt_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 9e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn is_scalar(v: &Json) -> bool {
    !matches!(v, Json::Arr(_) | Json::Obj(_))
}

/// Render a JSON value. Objects whose members are all scalars render
/// on one line (grid cells stay one-line-per-cell); everything else is
/// block-indented two spaces.
pub fn render_json(v: &Json) -> String {
    let mut out = String::new();
    render_into(v, 0, &mut out);
    out.push('\n');
    out
}

fn render_into(v: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => out.push_str(&fmt_num(*x)),
        Json::Str(s) => {
            out.push('"');
            out.push_str(&escape_json(s));
            out.push('"');
        }
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                render_into(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            if members.iter().all(|(_, v)| is_scalar(v)) {
                out.push_str("{ ");
                for (i, (k, val)) in members.iter().enumerate() {
                    out.push('"');
                    out.push_str(&escape_json(k));
                    out.push_str("\": ");
                    render_into(val, indent, out);
                    if i + 1 < members.len() {
                        out.push_str(", ");
                    }
                }
                out.push_str(" }");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in members.iter().enumerate() {
                out.push_str(&pad_in);
                out.push('"');
                out.push_str(&escape_json(k));
                out.push_str("\": ");
                render_into(val, indent + 1, out);
                if i + 1 < members.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Trajectory file: schema, append, regression gate.
// ---------------------------------------------------------------------------

impl Entry {
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("protocol".into(), Json::Str(c.protocol.clone())),
                    ("mpl".into(), Json::Num(c.mpl as f64)),
                    ("events".into(), Json::Num(c.events as f64)),
                    ("committed".into(), Json::Num(c.committed as f64)),
                    ("wall_s".into(), Json::Num(c.wall_s)),
                    (
                        "events_per_sec".into(),
                        Json::Num(round6(c.events_per_sec())),
                    ),
                    ("txns_per_sec".into(), Json::Num(round6(c.txns_per_sec()))),
                ])
            })
            .collect();
        let aggregate = Json::Obj(vec![
            ("events".into(), Json::Num(self.total_events() as f64)),
            ("committed".into(), Json::Num(self.total_committed() as f64)),
            ("wall_s".into(), Json::Num(round6(self.total_wall_s()))),
            (
                "events_per_sec".into(),
                Json::Num(round6(self.events_per_sec())),
            ),
            (
                "txns_per_sec".into(),
                Json::Num(round6(self.txns_per_sec())),
            ),
            (
                "peak_rss_kb".into(),
                match self.peak_rss_kb {
                    Some(kb) => Json::Num(kb as f64),
                    None => Json::Null,
                },
            ),
        ]);
        let mut members = vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("mode".into(), Json::Str(self.mode.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("warmup".into(), Json::Num(self.warmup as f64)),
            ("measured".into(), Json::Num(self.measured as f64)),
            ("cells".into(), Json::Arr(cells)),
            ("aggregate".into(), aggregate),
        ];
        // Extra members: the schema validator looks up only known
        // keys, so older readers skip them.
        if let Some(p) = &self.profile {
            members.push(("profile".into(), profile_json(p)));
        }
        if let Some(p) = &self.scale_profile {
            members.push(("scale_profile".into(), profile_json(p)));
        }
        Json::Obj(members)
    }
}

fn profile_json(p: &EngineProfile) -> Json {
    Json::Obj(vec![
        ("events".into(), Json::Num(p.events as f64)),
        ("calendar_ns".into(), Json::Num(p.calendar_ns as f64)),
        ("dispatch_ns".into(), Json::Num(p.dispatch_ns as f64)),
        ("locks_ns".into(), Json::Num(p.locks_ns as f64)),
        ("series_ns".into(), Json::Num(p.series_ns as f64)),
        ("total_ns".into(), Json::Num(p.total_ns as f64)),
    ])
}

/// An empty trajectory document.
pub fn empty_trajectory() -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("entries".into(), Json::Arr(Vec::new())),
    ])
}

/// Validate a trajectory document against the `distcommit-bench/v1`
/// schema. Returns a message naming the first violation.
pub fn validate_trajectory(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\" string")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing \"entries\" array")?;
    for (i, e) in entries.iter().enumerate() {
        let ctx = |field: &str| format!("entries[{i}]: missing or invalid {field:?}");
        e.get("label").and_then(Json::as_str).ok_or(ctx("label"))?;
        let mode = e.get("mode").and_then(Json::as_str).ok_or(ctx("mode"))?;
        if mode != "full" && mode != "quick" {
            return Err(format!("entries[{i}]: mode {mode:?} not full|quick"));
        }
        e.get("seed").and_then(Json::as_f64).ok_or(ctx("seed"))?;
        let cells = e.get("cells").and_then(Json::as_arr).ok_or(ctx("cells"))?;
        if cells.is_empty() {
            return Err(format!("entries[{i}]: empty cells"));
        }
        for (j, c) in cells.iter().enumerate() {
            let cctx = |field: &str| format!("entries[{i}].cells[{j}]: bad {field:?}");
            c.get("protocol")
                .and_then(Json::as_str)
                .ok_or(cctx("protocol"))?;
            for field in ["mpl", "events", "committed", "wall_s", "events_per_sec"] {
                let x = c.get(field).and_then(Json::as_f64).ok_or(cctx(field))?;
                // NaN fails this check too: the guard must reject it.
                if x.is_nan() || x <= 0.0 {
                    return Err(format!(
                        "entries[{i}].cells[{j}]: {field} = {x} not positive"
                    ));
                }
            }
        }
        let agg = e
            .get("aggregate")
            .and_then(|a| match a {
                Json::Obj(_) => Some(a),
                _ => None,
            })
            .ok_or(ctx("aggregate"))?;
        for field in ["wall_s", "events_per_sec", "txns_per_sec"] {
            let x = agg.get(field).and_then(Json::as_f64).ok_or(ctx(field))?;
            if x.is_nan() || x <= 0.0 {
                return Err(format!(
                    "entries[{i}].aggregate: {field} = {x} not positive"
                ));
            }
        }
    }
    Ok(())
}

/// Load and validate a trajectory file.
pub fn load_trajectory(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    validate_trajectory(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc)
}

/// Append `entry` to the trajectory at `path` (created if missing),
/// re-validating before and after.
pub fn append_entry(path: &str, entry: &Entry) -> Result<(), String> {
    let mut doc = if std::path::Path::new(path).exists() {
        load_trajectory(path)?
    } else {
        empty_trajectory()
    };
    let Json::Obj(members) = &mut doc else {
        unreachable!("validated object")
    };
    let entries = members
        .iter_mut()
        .find(|(k, _)| k == "entries")
        .map(|(_, v)| v)
        .ok_or("missing entries")?;
    let Json::Arr(items) = entries else {
        return Err("entries not an array".into());
    };
    items.push(entry.to_json());
    validate_trajectory(&doc)?;
    std::fs::write(path, render_json(&doc)).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The regression gate: compare `entry` against the most recent
/// baseline entry (preferring the same mode) in `doc`. Returns a
/// human-readable verdict, or an `Err` describing the regression when
/// events/sec dropped by more than `tolerance` (a fraction, e.g.
/// 0.25).
pub fn compare_to_baseline(entry: &Entry, doc: &Json, tolerance: f64) -> Result<String, String> {
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("baseline has no entries")?;
    let baseline = entries
        .iter()
        .rev()
        .find(|e| e.get("mode").and_then(Json::as_str) == Some(entry.mode.as_str()))
        .or_else(|| entries.last())
        .ok_or("baseline trajectory is empty")?;
    let base_eps = baseline
        .get("aggregate")
        .and_then(|a| a.get("events_per_sec"))
        .and_then(Json::as_f64)
        .ok_or("baseline entry lacks aggregate.events_per_sec")?;
    let base_label = baseline
        .get("label")
        .and_then(Json::as_str)
        .unwrap_or("<unlabelled>");
    let eps = entry.events_per_sec();
    let ratio = eps / base_eps;
    let verdict =
        format!("events/s {eps:.0} vs baseline {base_eps:.0} ({base_label:?}): {ratio:.2}x");
    if ratio < 1.0 - tolerance {
        Err(format!(
            "{verdict} — regressed more than {:.0}%",
            tolerance * 100.0
        ))
    } else {
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, mode: &str, events: u64, wall_s: f64) -> Entry {
        Entry {
            label: label.into(),
            mode: mode.into(),
            seed: 42,
            warmup: 1,
            measured: 10,
            cells: vec![Cell {
                protocol: "2PC".into(),
                mpl: 4,
                events,
                committed: 10,
                wall_s,
            }],
            peak_rss_kb: Some(1234),
            profile: None,
            scale_profile: None,
        }
    }

    #[test]
    fn json_round_trips() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Str("x\"y\n µs \u{2192} \u{1}".into())),
            (
                "c".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-3.0)]),
            ),
            ("d".into(), Json::Obj(vec![])),
        ]);
        let text = render_json(&doc);
        assert_eq!(parse_json(&text).unwrap(), doc);
        // And rendering is a fixed point: parse(render(x)) renders the
        // same bytes, so appending never churns earlier entries.
        assert_eq!(render_json(&parse_json(&text).unwrap()), text);
    }

    /// The committed trajectories are fixed points of parse → render:
    /// appending an entry rewrites every earlier byte unchanged.
    #[test]
    fn committed_trajectories_render_byte_identically() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut checked = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).unwrap();
                assert_eq!(render_json(&parse_json(&text).unwrap()), text, "{name}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no BENCH_*.json under {}", root.display());
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"abc"] {
            assert!(parse_json(bad).is_err(), "{bad:?} parsed");
        }
        // Whitespace and nesting are fine.
        parse_json(" { \"a\" : [ { \"b\" : null } ] } ").unwrap();
        // Escapes decode.
        assert_eq!(
            parse_json(r#""aA\n\"""#).unwrap(),
            Json::Str("aA\n\"".into())
        );
    }

    #[test]
    fn entry_aggregates_and_schema_validate() {
        let e = entry("seed", "full", 1_000_000, 2.0);
        assert_eq!(e.events_per_sec(), 500_000.0);
        let mut doc = empty_trajectory();
        validate_trajectory(&doc).unwrap();
        if let Json::Obj(members) = &mut doc {
            if let Some((_, Json::Arr(items))) = members.iter_mut().find(|(k, _)| k == "entries") {
                items.push(e.to_json());
            }
        }
        validate_trajectory(&doc).unwrap();
        // Round-trip through the renderer/parser preserves validity.
        let doc2 = parse_json(&render_json(&doc)).unwrap();
        validate_trajectory(&doc2).unwrap();
    }

    #[test]
    fn validation_names_the_violation() {
        let doc = parse_json(r#"{"schema":"wrong","entries":[]}"#).unwrap();
        let e = validate_trajectory(&doc).unwrap_err();
        assert!(e.contains("schema"), "{e}");
        let doc =
            parse_json(r#"{"schema":"distcommit-bench/v1","entries":[{"label":"x"}]}"#).unwrap();
        let e = validate_trajectory(&doc).unwrap_err();
        assert!(e.contains("mode"), "{e}");
        // A zero events/sec cell is invalid (wall-clock must be real).
        let mut good = empty_trajectory();
        let mut bad_entry = entry("x", "quick", 10, 1.0);
        bad_entry.cells[0].events = 0;
        if let Json::Obj(members) = &mut good {
            if let Some((_, Json::Arr(items))) = members.iter_mut().find(|(k, _)| k == "entries") {
                items.push(bad_entry.to_json());
            }
        }
        let e = validate_trajectory(&good).unwrap_err();
        assert!(e.contains("events"), "{e}");
    }

    #[test]
    fn regression_gate_prefers_same_mode_and_trips_at_tolerance() {
        let mut doc = empty_trajectory();
        if let Json::Obj(members) = &mut doc {
            if let Some((_, Json::Arr(items))) = members.iter_mut().find(|(k, _)| k == "entries") {
                items.push(entry("full base", "full", 4_000_000, 1.0).to_json());
                items.push(entry("quick base", "quick", 1_000_000, 1.0).to_json());
            }
        }
        // Same-mode comparison: quick vs quick base (1M events/s).
        let ok = compare_to_baseline(&entry("now", "quick", 900_000, 1.0), &doc, 0.25).unwrap();
        assert!(ok.contains("0.90x"), "{ok}");
        let err =
            compare_to_baseline(&entry("now", "quick", 700_000, 1.0), &doc, 0.25).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // A faster run always passes.
        compare_to_baseline(&entry("now", "quick", 5_000_000, 1.0), &doc, 0.25).unwrap();
        // Empty baseline is an error, not a silent pass.
        assert!(
            compare_to_baseline(&entry("n", "full", 1, 1.0), &empty_trajectory(), 0.25).is_err()
        );
    }

    #[test]
    fn append_creates_and_extends_files() {
        let dir = std::env::temp_dir().join(format!("bench-traj-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("t.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        append_entry(path, &entry("first", "full", 100, 1.0)).unwrap();
        append_entry(path, &entry("second", "quick", 200, 1.0)).unwrap();
        let doc = load_trajectory(path).unwrap();
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[1].get("label").and_then(Json::as_str),
            Some("second")
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn profile_rides_on_entry_json_without_breaking_the_schema() {
        let mut e = entry("profiled", "quick", 10_000, 1.0);
        e.profile = Some(EngineProfile {
            events: 9_999,
            calendar_ns: 100,
            dispatch_ns: 750,
            locks_ns: 50,
            series_ns: 25,
            total_ns: 925,
        });
        e.scale_profile = Some(EngineProfile {
            events: 20_000,
            calendar_ns: 100,
            dispatch_ns: 500,
            locks_ns: 400,
            total_ns: 1_000,
            ..EngineProfile::default()
        });
        let mut doc = empty_trajectory();
        if let Json::Obj(members) = &mut doc {
            if let Some((_, Json::Arr(items))) = members.iter_mut().find(|(k, _)| k == "entries") {
                items.push(e.to_json());
            }
        }
        // The validator only looks up known keys, so the extra member
        // passes — and survives a render/parse round trip.
        validate_trajectory(&doc).unwrap();
        let doc2 = parse_json(&render_json(&doc)).unwrap();
        validate_trajectory(&doc2).unwrap();
        let p = doc2.get("entries").and_then(Json::as_arr).unwrap()[0]
            .get("profile")
            .expect("profile member");
        assert_eq!(p.get("total_ns").and_then(Json::as_f64), Some(925.0));
        assert_eq!(p.get("series_ns").and_then(Json::as_f64), Some(25.0));
        let p = doc2.get("entries").and_then(Json::as_arr).unwrap()[0]
            .get("scale_profile")
            .expect("scale_profile member");
        assert_eq!(p.get("locks_ns").and_then(Json::as_f64), Some(400.0));
        assert_eq!(p.get("total_ns").and_then(Json::as_f64), Some(1000.0));
        // The human rendering shows the section shares, one line per
        // profiled cell; detection is a disjoint share of the total.
        let rendered = render_entry(&e);
        assert!(
            rendered.contains("self-profile (2PC mpl 8, series sink on):"),
            "{rendered}"
        );
        assert!(rendered.contains("series sink"), "{rendered}");
        assert!(
            rendered.contains("self-profile (scale 2PC mpl 4): 20000 events"),
            "{rendered}"
        );
        assert!(rendered.contains("detection 40.0%"), "{rendered}");
    }

    #[test]
    fn series_overhead_gate_trips_past_three_percent() {
        let m = SeriesOverhead {
            off: entry("x [series off]", "quick", 1_000_000, 1.0),
            on: entry("x [series on]", "quick", 980_000, 1.0),
        };
        assert!((m.ratio() - 0.98).abs() < 1e-12);
        let ok = render_series_overhead(&m).unwrap();
        assert!(ok.contains("0.980x"), "{ok}");
        let over = SeriesOverhead {
            off: entry("x [series off]", "quick", 1_000_000, 1.0),
            on: entry("x [series on]", "quick", 950_000, 1.0),
        };
        let e = render_series_overhead(&over).unwrap_err();
        assert!(e.contains("over budget"), "{e}");
    }

    #[test]
    fn run_length_modes() {
        let (w, m) = run_length(true);
        let (wf, mf) = run_length(false);
        assert!(m < mf && w < wf);
    }
}
