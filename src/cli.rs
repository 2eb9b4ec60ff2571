//! Command-line interface: run single simulations, protocol sweeps, or
//! the paper's experiment presets from the shell.
//!
//! ```sh
//! distcommit run --protocol OPT --mpl 5 --seed 7
//! distcommit sweep --protocols 2PC,OPT,3PC --mpls 1,2,4,6,8,10
//! distcommit experiment fig1
//! distcommit tables
//! ```
//!
//! Argument parsing is hand-rolled (the repository's only dependencies
//! are the simulation crates); [`parse`] is pure and unit-tested.

use commitproto::ProtocolSpec;
use distdb::config::{
    FailureConfig, ResourceMode, RestartPolicy, SystemConfig, Topology, TransType,
};
use distdb::engine::{
    ChromeStreamSink, FoldSink, SeriesConfig, SeriesFormat, SeriesRecorder, Simulation, Trace,
};
use distdb::experiments::{self, Scale};
use distdb::metrics::{ReportFormat, SimReport};
use distdb::output::{
    render_ascii_chart, render_csv, render_peaks, render_ranking, render_sweep_csv,
    render_sweep_json, render_sweep_series_csv, render_sweep_series_json, render_table,
    render_table_ci, Metric,
};
use simkernel::SimDuration;
use std::fmt;
use std::sync::LazyLock;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// One simulation run, full report.
    Run {
        cfg: SystemConfig,
        protocol: ProtocolSpec,
        seed: u64,
        format: ReportFormat,
        /// Stream every trace event to this file as Chrome trace-event
        /// JSON while the run executes (bounded memory; no in-memory
        /// event buffer).
        trace_out: Option<String>,
        /// Stream the windowed metric series to this file while the
        /// run executes (CSV, or JSON when the path ends in `.json`).
        series_out: Option<String>,
        /// Window width / per-site breakdown for `--series-out`.
        series_cfg: SeriesConfig,
    },
    /// One run's windowed metric time series (the report summary goes
    /// to the other stream so the series stays machine-readable).
    Series {
        cfg: SystemConfig,
        protocol: ProtocolSpec,
        seed: u64,
        series_cfg: SeriesConfig,
        format: SeriesFormat,
        /// Stream windows to this file as the run executes instead of
        /// printing the buffered series to stdout.
        out: Option<String>,
    },
    /// Per-transaction commit choreography: readable timelines plus an
    /// optional Chrome trace-event JSON export.
    Trace {
        cfg: SystemConfig,
        protocol: ProtocolSpec,
        seed: u64,
        txns: u64,
        out: Option<String>,
    },
    /// Fold traced transactions into weighted collapsed stacks
    /// (`root;phase;station;activity weight`) for flamegraph tools.
    Fold {
        cfg: SystemConfig,
        protocol: ProtocolSpec,
        seed: u64,
        txns: u64,
        out: Option<String>,
    },
    /// Protocols × MPLs sweep with tables and a chart, CSV, or JSON.
    Sweep {
        cfg: SystemConfig,
        protocols: Vec<ProtocolSpec>,
        mpls: Vec<u32>,
        seed: u64,
        reps: u32,
        jobs: Option<usize>,
        format: ReportFormat,
        /// Record every grid cell's windowed series to this file (CSV,
        /// or JSON when the path ends in `.json`).
        series_out: Option<String>,
        /// Window width / per-site breakdown for `--series-out`.
        series_cfg: SeriesConfig,
    },
    /// A named paper experiment (`fig1`, `fig2`, `expt3`, `fig3`,
    /// `fig4`, `fig5`, `seq`).
    Experiment {
        id: String,
        full: bool,
        reps: u32,
        jobs: Option<usize>,
        /// Emit per-metric CSV blocks instead of tables/charts.
        csv: bool,
    },
    /// The canonical engine benchmark: run the fixed seed/protocol
    /// grid, print events per core-second, optionally append the entry
    /// to a `BENCH_*.json` trajectory and gate against a committed
    /// baseline.
    Bench {
        quick: bool,
        label: String,
        seed: u64,
        out: Option<String>,
        baseline: Option<String>,
        tolerance: f64,
        /// Run the grid twice (series sink off/on) and gate the sink's
        /// off-path cost at 3%.
        series: bool,
    },
    /// Tables 2–4.
    Tables,
    /// Usage text.
    Help,
}

/// A CLI parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Usage text printed by `help` and on errors. Built lazily so the
/// `--faults` key table renders straight from
/// [`FailureConfig::CLI_KEYS`] — the parser and the help text share
/// one vocabulary by construction.
pub static USAGE: LazyLock<String> = LazyLock::new(|| {
    let fault_keys: String = FailureConfig::CLI_KEYS
        .iter()
        .map(|(key, desc)| format!("                             {key:<20} {desc}\n"))
        .collect();
    let topology_keys: String = Topology::CLI_KEYS
        .iter()
        .map(|(key, desc)| format!("                             {key:<20} {desc}\n"))
        .collect();
    // The protocol vocabulary renders straight from the spec table, so
    // adding a ProtocolSpec::ALL entry updates the help screen too.
    let protocol_names: String = ProtocolSpec::valid_names().collect::<Vec<_>>().join(" ");
    format!(
        "\
distcommit — the SIGMOD'97 commit-processing simulator

USAGE:
  distcommit run    [OPTIONS]                one simulation run
  distcommit series [OPTIONS]                windowed metric time series
  distcommit trace  [OPTIONS]                per-txn commit choreography
  distcommit fold   [OPTIONS]                collapsed-stack flamegraph fold
  distcommit sweep  [OPTIONS]                protocols x MPLs sweep
  distcommit experiment <fig1|fig2|expt3|fig3|fig4|fig5|seq|failures|faults|replication|scale>
                        [--full] [--reps N] [--jobs N] [--csv]
                        (--csv emits plottable per-metric CSV; the
                        faults preset adds a blocked-time-on-crash
                        table/CSV block — its headline curve)
  distcommit bench [OPTIONS]                 canonical engine benchmark
  distcommit tables                          Tables 2-4
  distcommit help

BENCH:
  --quick                  short grid (CI smoke) instead of the full
                           canonical grid
  --label <S>              label recorded with the trajectory entry
  --out <FILE>             append the entry to this BENCH_*.json
                           trajectory (created if missing)
  --baseline <FILE>        validate FILE's schema and fail if this
                           run's events/sec regresses beyond tolerance
                           vs its most recent comparable entry
  --tolerance <P>          allowed fractional regression (default 0.25)
  --seed <N>               grid seed (default 42)
  --series                 run the grid twice (series sink off, then
                           on) and fail if the sink's off-path cost
                           exceeds 3% of events/sec; both entries are
                           appended to --out

RUN OUTPUT:
  --format <F>             report format: table (default), csv
                           (long-form section,key,value) or json
  --trace-out <FILE>       stream Chrome trace-event JSON to FILE while
                           the run executes — bounded memory, so it
                           works for arbitrarily long runs; loadable in
                           chrome://tracing or https://ui.perfetto.dev
  --series-out <FILE>      also stream the windowed metric series to
                           FILE (CSV, or JSON when FILE ends in .json);
                           accepts --window/--per-site

SERIES:
  --format <F>             series format: csv (default, one row per
                           window) or json (one document with a
                           `windows` array)
  --window <SECS>          window width in simulated seconds
                           (default 5)
  --per-site               add a per-site breakdown (per-site commits
                           and instantaneous queue depths) to every
                           window
  --out <FILE>             stream windows to FILE as the run executes
                           (bounded memory) and print the report
                           summary to stdout; without --out the series
                           goes to stdout and the summary to stderr

TRACE:
  --txns <N>               transactions to trace from the start of the
                           run (default 3)
  --out <FILE>             also write Chrome trace-event JSON, loadable
                           in chrome://tracing or Perfetto

FOLD:
  --txns <N>               transactions to fold (default: all)
  --out <FILE>             write the collapsed stacks to FILE instead
                           of stdout; lines are
                           `protocol;phase;station;activity weight`
                           (weights in simulated µs), ready for
                           flamegraph.pl / inferno / speedscope

SWEEP OUTPUT:
  --format <F>             table (default): aligned tables plus an
                           ASCII chart and peak summary; csv: the three
                           CSV blocks below; json: one document with
                           every point's full report object
  --csv                    shorthand for --format csv: throughput
                           (mean + 90% CI half-width per series), then
                           per-phase p50/p90/p99 latencies, then
                           per-site occupancy percentiles, separated by
                           blank lines; byte-identical for every --jobs
  --series-out <FILE>      record every grid cell's windowed series to
                           FILE — CSV rows gain series,mpl,rep identity
                           columns (JSON when FILE ends in .json);
                           accepts --window/--per-site

FAULT INJECTION (run, series, trace, fold & sweep):
  --faults <K=V,..>        enable the failure model; keys:
{fault_keys}                           e.g. --faults mc=0.01,cc=0.005,loss=0.01

PARALLELISM & REPLICATIONS:
  --jobs <N>               (sweep & experiment) worker threads for the
                           run grid (default: DISTCOMMIT_JOBS, else all
                           cores); results are byte-identical for
                           every N
  --reps <N>               (sweep & experiment) independent replications
                           per (protocol, MPL) cell, each with its own
                           derived seed; with N >= 2 every point
                           reports mean +-90% CI across replications
                           (default 1)

OPTIONS (run & sweep):
  --protocol <NAME>        protocol for run/series/trace/fold (default 2PC)
  --protocols <A,B,..>     protocols for `sweep` (default CENT,DPCC,2PC,3PC,OPT)
  --mpl <N>                multiprogramming level for `run` (default 4)
  --mpls <N,N,..>          MPL axis for `sweep` (default 1..10)
  --seed <N>               RNG seed (default 42)
  --sites <N>              number of sites (default 8)
  --db-size <PAGES>        database size (default 8000)
  --dist-degree <N>        cohorts per transaction (default 3)
  --cohort-size <N>        mean pages per cohort (default 6)
  --update-prob <P>        page update probability (default 1.0)
  --msg-cpu-ms <MS>        message send/receive CPU time (default 5)
  --page-cpu-ms <MS>       page processing CPU time (default 5)
  --page-disk-ms <MS>      disk page access time (default 20)
  --cpus <N>               CPUs per site (default 1)
  --data-disks <N>         data disks per site (default 2)
  --log-disks <N>          log disks per site (default 1)
  --abort-prob <P>         cohort surprise NO-vote probability (default 0)
  --replication <F>        replica-group tolerance F: every shard gets
                           2F+1 acceptors / standby coordinators
                           (PAXOS and REP2PC only; default 0)
  --hot-spot <D,A>         b-c access skew: A of accesses hit first D of pages
  --zipf <THETA>           Zipf(theta) page-access skew per site
                           (excludes --hot-spot; 0 = uniform)
  --topology <K=V,..>      LAN/WAN topology: sites split into regions,
                           messages spend wire latency in flight; keys:
{topology_keys}                           e.g. --topology regions=8,lan-ms=1,wan-ms=40
  --sequential             sequential cohort execution
  --infinite               infinite resources (pure data contention)
  --read-only-opt          enable the Read-Only commit optimization
  --group-commit <N>       batch up to N forced writes per log service
  --restart-fixed-ms <MS>  fixed restart delay instead of adaptive
  --warmup <N>             warm-up transactions (default 500)
  --measured <N>           measured transactions (default 5000)

Protocols: {protocol_names}
"
    )
});

fn take_value<'a>(
    flag: &str,
    it: &mut std::slice::Iter<'a, String>,
) -> Result<&'a String, CliError> {
    it.next()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| CliError(format!("{flag}: cannot parse {v:?}")))
}

/// Parse a millisecond flag value; out-of-range values are refused by
/// name (see [`distdb::config::parse_millis`]).
fn parse_ms(flag: &str, v: &str) -> Result<SimDuration, CliError> {
    distdb::config::parse_millis(flag, v).map_err(CliError)
}

fn parse_protocol(v: &str) -> Result<ProtocolSpec, CliError> {
    v.parse::<ProtocolSpec>()
        .map_err(|e| CliError(e.to_string()))
}

fn parse_list<T: std::str::FromStr>(flag: &str, v: &str) -> Result<Vec<T>, CliError> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_num(flag, s))
        .collect()
}

/// Parse a `--faults` specification by delegating to
/// [`FailureConfig`]'s `FromStr` — the typed parser the library
/// exposes — and prefixing errors with the flag name.
fn parse_faults(v: &str) -> Result<FailureConfig, CliError> {
    v.parse()
        .map_err(|e: String| CliError(format!("--faults: {e}")))
}

/// Series format implied by an output path: `.json` means JSON,
/// anything else CSV.
fn series_format_for(path: &str) -> SeriesFormat {
    if path.ends_with(".json") {
        SeriesFormat::Json
    } else {
        SeriesFormat::Csv
    }
}

fn series_format_name(f: SeriesFormat) -> &'static str {
    match f {
        SeriesFormat::Csv => "csv",
        SeriesFormat::Json => "json",
    }
}

/// The observers of one `run` or `series` invocation.
type Outputs = (Option<ChromeStreamSink>, Option<SeriesRecorder>);

/// One run observed by a Chrome trace streamed to `trace_out` and a
/// series recorder streaming to its `(path, format)` target (buffering
/// without one); output write errors are left to the caller.
fn run_with_outputs(
    cfg: &SystemConfig,
    protocol: ProtocolSpec,
    seed: u64,
    trace_out: Option<&str>,
    series: Option<(&SeriesConfig, Option<(&str, SeriesFormat)>)>,
) -> Result<(SimReport, Outputs), String> {
    let chrome = trace_out
        .map(|path| {
            ChromeStreamSink::create(std::path::Path::new(path))
                .map_err(|e| format!("cannot create {path}: {e}"))
        })
        .transpose()?;
    let rec = series
        .map(|(series_cfg, target)| match target {
            Some((path, format)) => std::fs::File::create(path)
                .map(|file| SeriesRecorder::streaming(series_cfg, Box::new(file), format))
                .map_err(|e| format!("cannot create {path}: {e}")),
            None => Ok(SeriesRecorder::buffered(series_cfg)),
        })
        .transpose()?;
    Simulation::run_observed(cfg, protocol, seed, (chrome, rec)).map_err(|e| e.to_string())
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "tables" => Ok(Command::Tables),
        "bench" => {
            let mut quick = false;
            let mut label = String::new();
            let mut seed = distbench::canonical::GRID_SEED;
            let mut out = None;
            let mut baseline = None;
            let mut tolerance = 0.25f64;
            let mut series = false;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--quick" => quick = true,
                    "--label" => label = take_value(a, &mut it)?.clone(),
                    "--seed" => seed = parse_num(a, take_value(a, &mut it)?)?,
                    "--out" => out = Some(take_value(a, &mut it)?.clone()),
                    "--baseline" => baseline = Some(take_value(a, &mut it)?.clone()),
                    "--tolerance" => tolerance = parse_num(a, take_value(a, &mut it)?)?,
                    "--series" => series = true,
                    other => return err(format!("unknown option {other:?}")),
                }
            }
            if !(0.0..1.0).contains(&tolerance) {
                return err("--tolerance must be a fraction in [0, 1)");
            }
            Ok(Command::Bench {
                quick,
                label,
                seed,
                out,
                baseline,
                tolerance,
                series,
            })
        }
        "experiment" => {
            let mut id = None;
            let mut full = false;
            let mut reps = 1u32;
            let mut jobs = None;
            let mut csv = false;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--full" => full = true,
                    "--csv" => csv = true,
                    "--reps" => reps = parse_num(a, take_value(a, &mut it)?)?,
                    "--jobs" => jobs = Some(parse_num(a, take_value(a, &mut it)?)?),
                    other if id.is_none() && !other.starts_with('-') => {
                        id = Some(other.to_string())
                    }
                    other => return err(format!("unexpected argument {other:?}")),
                }
            }
            if reps == 0 {
                return err("--reps must be at least 1");
            }
            match id {
                Some(id) => Ok(Command::Experiment {
                    id,
                    full,
                    reps,
                    jobs,
                    csv,
                }),
                None => err("experiment needs an id \
                     (fig1|fig2|expt3|fig3|fig4|fig5|seq|failures|faults|replication|scale)"),
            }
        }
        "run" | "sweep" | "trace" | "fold" | "series" => {
            let mut cfg = SystemConfig::paper_baseline();
            cfg.run.warmup_transactions = 500;
            cfg.run.measured_transactions = 5_000;
            if sub == "trace" {
                // Tracing inspects individual transactions; a short run
                // keeps the timeline readable (flags still override).
                cfg.run.warmup_transactions = 50;
                cfg.run.measured_transactions = 200;
            }
            let mut txns: Option<u64> = None;
            let mut out: Option<String> = None;
            let mut format: Option<ReportFormat> = None;
            let mut trace_out: Option<String> = None;
            let mut series_out: Option<String> = None;
            let mut window: Option<f64> = None;
            let mut per_site = false;
            let mut protocol = ProtocolSpec::TWO_PC;
            let mut protocols = vec![
                ProtocolSpec::CENT,
                ProtocolSpec::DPCC,
                ProtocolSpec::TWO_PC,
                ProtocolSpec::THREE_PC,
                ProtocolSpec::OPT_2PC,
            ];
            let mut mpls: Vec<u32> = (1..=10).collect();
            let mut seed = 42u64;
            let mut reps = 1u32;
            let mut jobs = None;
            let mut csv = false;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--protocol" => protocol = parse_protocol(take_value(a, &mut it)?)?,
                    "--csv" => csv = true,
                    "--faults" => cfg.failures = Some(parse_faults(take_value(a, &mut it)?)?),
                    "--txns" => txns = Some(parse_num(a, take_value(a, &mut it)?)?),
                    "--out" => out = Some(take_value(a, &mut it)?.clone()),
                    "--format" => {
                        format = Some(
                            take_value(a, &mut it)?
                                .parse()
                                .map_err(|e: String| CliError(format!("--format: {e}")))?,
                        )
                    }
                    "--trace-out" => trace_out = Some(take_value(a, &mut it)?.clone()),
                    "--series-out" => series_out = Some(take_value(a, &mut it)?.clone()),
                    "--window" => window = Some(parse_num(a, take_value(a, &mut it)?)?),
                    "--per-site" => per_site = true,
                    "--reps" => reps = parse_num(a, take_value(a, &mut it)?)?,
                    "--jobs" => jobs = Some(parse_num(a, take_value(a, &mut it)?)?),
                    "--protocols" => {
                        protocols = take_value(a, &mut it)?
                            .split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(parse_protocol)
                            .collect::<Result<_, _>>()?;
                    }
                    "--mpl" => cfg.mpl = parse_num(a, take_value(a, &mut it)?)?,
                    "--mpls" => mpls = parse_list(a, take_value(a, &mut it)?)?,
                    "--seed" => seed = parse_num(a, take_value(a, &mut it)?)?,
                    "--sites" => cfg.num_sites = parse_num(a, take_value(a, &mut it)?)?,
                    "--db-size" => cfg.db_size = parse_num(a, take_value(a, &mut it)?)?,
                    "--dist-degree" => cfg.dist_degree = parse_num(a, take_value(a, &mut it)?)?,
                    "--cohort-size" => cfg.cohort_size = parse_num(a, take_value(a, &mut it)?)?,
                    "--update-prob" => cfg.update_prob = parse_num(a, take_value(a, &mut it)?)?,
                    "--msg-cpu-ms" => cfg.msg_cpu = parse_ms(a, take_value(a, &mut it)?)?,
                    "--page-cpu-ms" => cfg.page_cpu = parse_ms(a, take_value(a, &mut it)?)?,
                    "--page-disk-ms" => cfg.page_disk = parse_ms(a, take_value(a, &mut it)?)?,
                    "--cpus" => cfg.num_cpus = parse_num(a, take_value(a, &mut it)?)?,
                    "--data-disks" => cfg.num_data_disks = parse_num(a, take_value(a, &mut it)?)?,
                    "--log-disks" => cfg.num_log_disks = parse_num(a, take_value(a, &mut it)?)?,
                    "--abort-prob" => {
                        cfg.cohort_abort_prob = parse_num(a, take_value(a, &mut it)?)?
                    }
                    "--replication" => cfg.replication = parse_num(a, take_value(a, &mut it)?)?,
                    "--hot-spot" => {
                        let parts: Vec<f64> = parse_list(a, take_value(a, &mut it)?)?;
                        if parts.len() != 2 {
                            return err("--hot-spot wants DATA_FRACTION,ACCESS_FRACTION");
                        }
                        cfg.hot_spot = Some(distdb::config::HotSpot {
                            data_fraction: parts[0],
                            access_fraction: parts[1],
                        });
                    }
                    "--zipf" => {
                        cfg.zipf = Some(distdb::config::Zipf {
                            theta: parse_num(a, take_value(a, &mut it)?)?,
                        })
                    }
                    "--topology" => {
                        cfg.topology = Some(
                            take_value(a, &mut it)?
                                .parse()
                                .map_err(|e: String| CliError(format!("--topology: {e}")))?,
                        )
                    }
                    "--sequential" => cfg.trans_type = TransType::Sequential,
                    "--infinite" => cfg.resources = ResourceMode::Infinite,
                    "--read-only-opt" => cfg.read_only_optimization = true,
                    "--group-commit" => {
                        cfg.group_commit_batch = Some(parse_num(a, take_value(a, &mut it)?)?)
                    }
                    "--restart-fixed-ms" => {
                        cfg.restart_policy =
                            RestartPolicy::Fixed(parse_ms(a, take_value(a, &mut it)?)?)
                    }
                    "--warmup" => {
                        cfg.run.warmup_transactions = parse_num(a, take_value(a, &mut it)?)?
                    }
                    "--measured" => {
                        cfg.run.measured_transactions = parse_num(a, take_value(a, &mut it)?)?
                    }
                    other => return err(format!("unknown option {other:?}")),
                }
            }
            cfg.validate().map_err(|e| CliError(e.to_string()))?;
            if !matches!(sub.as_str(), "trace" | "fold") && txns.is_some() {
                return err("--txns applies to trace and fold only");
            }
            if !matches!(sub.as_str(), "trace" | "fold" | "series") && out.is_some() {
                return err("--out applies to trace, fold and series only");
            }
            if !matches!(sub.as_str(), "run" | "sweep" | "series") && format.is_some() {
                return err("--format applies to run, sweep and series only");
            }
            if sub != "run" && trace_out.is_some() {
                return err("--trace-out applies to run only");
            }
            if !matches!(sub.as_str(), "run" | "sweep") && series_out.is_some() {
                return err("--series-out applies to run and sweep only");
            }
            if sub != "series" && series_out.is_none() && (window.is_some() || per_site) {
                return err("--window/--per-site need `series` or --series-out");
            }
            if sub != "sweep" && csv {
                return err("--csv applies to sweep only");
            }
            let series_cfg = SeriesConfig {
                window: match window.map(|secs| SimDuration::try_from_millis_f64(secs * 1e3)) {
                    None => SeriesConfig::DEFAULT_WINDOW,
                    Some(Some(w)) if !w.is_zero() => w,
                    Some(_) => {
                        return err(format!(
                            "--window must be a positive number of seconds, at most {}",
                            SimDuration::MAX_INPUT_MILLIS / 1e3
                        ))
                    }
                },
                per_site,
            };
            if sub != "sweep" {
                if reps != 1 || jobs.is_some() {
                    return err("--reps/--jobs apply to sweep and experiment only");
                }
                if txns == Some(0) {
                    return err("--txns must be at least 1");
                }
                if sub == "trace" {
                    return Ok(Command::Trace {
                        cfg,
                        protocol,
                        seed,
                        txns: txns.unwrap_or(3),
                        out,
                    });
                }
                if sub == "fold" {
                    return Ok(Command::Fold {
                        cfg,
                        protocol,
                        seed,
                        txns: txns.unwrap_or(u64::MAX),
                        out,
                    });
                }
                if sub == "series" {
                    let format = match format.unwrap_or(ReportFormat::Csv) {
                        ReportFormat::Csv => SeriesFormat::Csv,
                        ReportFormat::Json => SeriesFormat::Json,
                        ReportFormat::Table => {
                            return err(
                                "series --format: csv|json (a table has no series rendering)",
                            )
                        }
                    };
                    return Ok(Command::Series {
                        cfg,
                        protocol,
                        seed,
                        series_cfg,
                        format,
                        out,
                    });
                }
                Ok(Command::Run {
                    cfg,
                    protocol,
                    seed,
                    format: format.unwrap_or(ReportFormat::Table),
                    trace_out,
                    series_out,
                    series_cfg,
                })
            } else {
                if protocols.is_empty() || mpls.is_empty() {
                    return err("sweep needs at least one protocol and one MPL");
                }
                if reps == 0 {
                    return err("--reps must be at least 1");
                }
                if csv && format.is_some() {
                    return err("--csv is shorthand for --format csv; pass one of them");
                }
                let format = format.unwrap_or(if csv {
                    ReportFormat::Csv
                } else {
                    ReportFormat::Table
                });
                Ok(Command::Sweep {
                    cfg,
                    protocols,
                    mpls,
                    seed,
                    reps,
                    jobs,
                    format,
                    series_out,
                    series_cfg,
                })
            }
        }
        other => err(format!("unknown command {other:?}; try `distcommit help`")),
    }
}

/// Execute a parsed command, writing to stdout. Returns the process
/// exit code.
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{}", *USAGE);
            0
        }
        Command::Bench {
            quick,
            label,
            seed,
            out,
            baseline,
            tolerance,
            series,
        } => {
            use distbench::canonical as bench;
            let opts = bench::Options {
                quick,
                label,
                seed,
                series,
            };
            // Validate the baseline's schema up front: a malformed
            // committed trajectory should fail fast, before minutes of
            // grid runs.
            let baseline_doc = match baseline.as_deref().map(bench::load_trajectory) {
                Some(Ok(doc)) => Some(doc),
                Some(Err(e)) => {
                    eprintln!("error: {e}");
                    return 1;
                }
                None => None,
            };
            // With --series the grid runs twice (sink off, then on);
            // the off pass is the entry comparable to the baseline.
            let (entry, overhead) = if opts.series {
                match bench::series_overhead(&opts) {
                    Ok(m) => (m.off.clone(), Some(m)),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                }
            } else {
                match bench::run_grid(&opts) {
                    Ok(entry) => (entry, None),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                }
            };
            print!("{}", bench::render_entry(&entry));
            if let Some(m) = &overhead {
                print!("{}", bench::render_entry(&m.on));
            }
            if let Some(path) = &out {
                let mut entries = vec![&entry];
                if let Some(m) = &overhead {
                    entries.push(&m.on);
                }
                for e in entries {
                    if let Err(err) = bench::append_entry(path, e) {
                        eprintln!("error: {err}");
                        return 1;
                    }
                }
                println!("[trajectory] appended entry to {path}");
            }
            if let Some(doc) = &baseline_doc {
                match bench::compare_to_baseline(&entry, doc, tolerance) {
                    Ok(verdict) => println!("[baseline] {verdict}"),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                }
            }
            if let Some(m) = &overhead {
                match bench::render_series_overhead(m) {
                    Ok(verdict) => println!("[series] {verdict}"),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                }
            }
            0
        }
        Command::Tables => {
            println!("Table 2 — Baseline Parameter Settings (reconstructed):");
            println!("{}", SystemConfig::paper_baseline());
            for d in [3u32, 6] {
                println!(
                    "Table {} — Protocol Overheads (DistDegree = {d}):",
                    if d == 3 { 3 } else { 4 }
                );
                println!(
                    "{:<9} {:>9} {:>13} {:>11}",
                    "Protocol", "ExecMsgs", "ForcedWrites", "CommitMsgs"
                );
                for spec in [
                    ProtocolSpec::TWO_PC,
                    ProtocolSpec::PA,
                    ProtocolSpec::PC,
                    ProtocolSpec::THREE_PC,
                    ProtocolSpec::DPCC,
                    ProtocolSpec::CENT,
                ] {
                    let o = spec.committed_overheads(d);
                    println!(
                        "{:<9} {:>9} {:>13} {:>11}",
                        spec.name(),
                        o.exec_messages,
                        o.forced_writes,
                        o.commit_messages
                    );
                }
                println!();
            }
            0
        }
        Command::Run {
            cfg,
            protocol,
            seed,
            format,
            trace_out,
            series_out,
            series_cfg,
        } => {
            // Both streamers write to disk as the run progresses, so
            // observing a full run needs no in-memory buffer.
            let series = series_out
                .as_deref()
                .map(|path| (&series_cfg, Some((path, series_format_for(path)))));
            let (r, (chrome, rec)) =
                match run_with_outputs(&cfg, protocol, seed, trace_out.as_deref(), series) {
                    Ok(run) => run,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                };
            if format == ReportFormat::Table {
                println!("{cfg}");
            }
            print!("{}", r.render(format));
            if let Some(sink) = chrome {
                let path = trace_out.as_deref().unwrap_or_default();
                match sink.into_result() {
                    // stderr keeps csv/json output machine-readable.
                    Ok(events) => eprintln!(
                        "chrome trace ({events} events) streamed to {path} — open in \
                         chrome://tracing or https://ui.perfetto.dev"
                    ),
                    Err(e) => {
                        eprintln!("error: cannot write {path}: {e}");
                        return 1;
                    }
                }
            }
            if let Some(rec) = rec {
                let path = series_out.as_deref().unwrap_or_default();
                if let Err(e) = rec.into_series() {
                    eprintln!("error: cannot write {path}: {e}");
                    return 1;
                }
                eprintln!("windowed series streamed to {path}");
            }
            i32::from(!r.overhead_check.is_clean())
        }
        Command::Series {
            cfg,
            protocol,
            seed,
            series_cfg,
            format,
            out,
        } => {
            let target = out.as_deref().map(|path| (path, format));
            let (report, (_, rec)) =
                match run_with_outputs(&cfg, protocol, seed, None, Some((&series_cfg, target))) {
                    Ok(run) => run,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                };
            let path = out.as_deref().unwrap_or_default();
            let series = match rec.expect("the series command records").into_series() {
                Ok(series) => series,
                Err(e) => {
                    eprintln!("error: cannot write {path}: {e}");
                    return 1;
                }
            };
            if out.is_some() {
                println!(
                    "windowed series ({}) streamed to {path}",
                    series_format_name(format)
                );
                println!("{}", report.summary());
            } else {
                // stdout carries only the series, so redirecting it to
                // a file gives exactly the --out bytes; the summary
                // rides on stderr.
                print!("{}", series.render(format));
                eprintln!("{}", report.summary());
            }
            0
        }
        Command::Fold {
            cfg,
            protocol,
            seed,
            txns,
            out,
        } => {
            let sink = FoldSink::new(protocol.name());
            match Simulation::run_with_sink(&cfg, protocol, seed, txns, sink) {
                Ok((report, fold)) => {
                    let rendered = fold.render();
                    match out {
                        Some(path) => {
                            if let Err(e) = std::fs::write(&path, &rendered) {
                                eprintln!("error: cannot write {path}: {e}");
                                return 1;
                            }
                            println!(
                                "{} collapsed stacks written to {path} — render with \
                                 flamegraph.pl, inferno-flamegraph or speedscope",
                                fold.stacks().len()
                            );
                            println!("{}", report.summary());
                        }
                        None => {
                            // stdout carries only the collapsed stacks, so
                            // `distcommit fold | flamegraph.pl` works.
                            print!("{rendered}");
                            eprintln!("{}", report.summary());
                        }
                    }
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Trace {
            cfg,
            protocol,
            seed,
            txns,
            out,
        } => match Simulation::run_with_sink(&cfg, protocol, seed, txns, Trace::default()) {
            Ok((report, trace)) => {
                println!(
                    "{} — first {txns} transaction(s), seed {seed}",
                    protocol.name()
                );
                println!();
                for txn in trace.txns() {
                    print!("{}", trace.render_txn(txn));
                    println!();
                }
                println!("{}", report.summary());
                if let Some(path) = out {
                    let json = distdb::engine::chrome_trace_json(&trace);
                    match std::fs::write(&path, &json) {
                        Ok(()) => println!(
                            "chrome trace ({} events) written to {path} — open in \
                             chrome://tracing or https://ui.perfetto.dev",
                            trace.events.len()
                        ),
                        Err(e) => {
                            eprintln!("error: cannot write {path}: {e}");
                            return 1;
                        }
                    }
                }
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
        Command::Sweep {
            cfg,
            protocols,
            mpls,
            seed,
            reps,
            jobs,
            format,
            series_out,
            series_cfg,
        } => {
            let scale = Scale::quick()
                .with_runs(cfg.run.warmup_transactions, cfg.run.measured_transactions)
                .with_mpls(mpls)
                .with_seed(seed)
                .with_replications(reps)
                .with_jobs(jobs);
            let specs: Vec<(String, ProtocolSpec, SystemConfig)> = protocols
                .iter()
                .map(|&p| (p.name().to_string(), p, cfg.clone()))
                .collect();
            // With --series-out every grid cell also records windows;
            // recording does not perturb the runs, so the reports are
            // identical either way.
            let result = match &series_out {
                Some(path) => {
                    match experiments::sweep_with_series(&cfg, &specs, &scale, &series_cfg) {
                        Ok((series, cells)) => {
                            let rendered = match series_format_for(path) {
                                SeriesFormat::Json => render_sweep_series_json(&cells),
                                SeriesFormat::Csv => render_sweep_series_csv(&cells),
                            };
                            if let Err(e) = std::fs::write(path, &rendered) {
                                eprintln!("error: cannot write {path}: {e}");
                                return 1;
                            }
                            eprintln!(
                                "windowed series for {} sweep cell(s) written to {path}",
                                cells.len()
                            );
                            Ok(series)
                        }
                        Err(e) => Err(e),
                    }
                }
                None => experiments::sweep(&cfg, &specs, &scale),
            };
            match result {
                Ok(series) => {
                    let exp = experiments::Experiment {
                        id: "cli-sweep".into(),
                        title: "CLI sweep".into(),
                        config: cfg,
                        series,
                    };
                    match format {
                        ReportFormat::Csv => {
                            print!("{}", render_sweep_csv(&exp));
                            return 0;
                        }
                        ReportFormat::Json => {
                            print!("{}", render_sweep_json(&exp));
                            return 0;
                        }
                        ReportFormat::Table => {}
                    }
                    if reps >= 2 {
                        print!("{}", render_table_ci(&exp));
                    } else {
                        print!("{}", render_table(&exp, Metric::Throughput));
                    }
                    println!();
                    print!("{}", render_table(&exp, Metric::BlockRatio));
                    println!();
                    print!("{}", render_ascii_chart(&exp, Metric::Throughput, 64, 18));
                    print!("{}", render_peaks(&exp));
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Experiment {
            id,
            full,
            reps,
            jobs,
            csv,
        } => {
            let mut scale = if full { Scale::full() } else { Scale::quick() };
            scale.replications = reps;
            scale.jobs = jobs;
            let print = |exp: &experiments::Experiment| {
                if csv {
                    print!("{}", render_csv(exp, Metric::Throughput));
                    if exp.id == "faults" {
                        println!();
                        print!("{}", render_csv(exp, Metric::CrashBlockedTime));
                    }
                    return;
                }
                if reps >= 2 {
                    print!("{}", render_table_ci(exp));
                } else {
                    print!("{}", render_table(exp, Metric::Throughput));
                }
                println!();
                print!("{}", render_ascii_chart(exp, Metric::Throughput, 64, 18));
                print!("{}", render_peaks(exp));
                if exp.id == "scale" {
                    // The scale preset pins MPL and varies the
                    // network/skew mix — the ranking is the result.
                    println!();
                    print!("{}", render_ranking(exp));
                }
                if exp.id == "faults" {
                    // Blocked time is the point of the fault sweep:
                    // the curve vs crash probability separates the
                    // blocking protocols from 3PC termination and
                    // Paxos Commit failover.
                    println!();
                    print!("{}", render_table(exp, Metric::CrashBlockedTime));
                    print!(
                        "{}",
                        render_ascii_chart(exp, Metric::CrashBlockedTime, 64, 18)
                    );
                }
            };
            let result: Result<Vec<experiments::Experiment>, _> = match id.as_str() {
                "fig1" => experiments::fig1(&scale).map(|e| vec![e]),
                "fig2" => experiments::fig2(&scale).map(|e| vec![e]),
                "expt3" => experiments::expt3(&scale).map(|(a, b)| vec![a, b]),
                "fig3" => experiments::fig3(&scale).map(|(a, b)| vec![a, b]),
                "fig4" => experiments::fig4(&scale).map(|(a, b)| vec![a, b]),
                "fig5" => experiments::fig5(&scale).map(|(a, b)| vec![a, b]),
                "seq" => experiments::seq(&scale).map(|e| vec![e]),
                "failures" => experiments::failures(&scale).map(|e| vec![e]),
                "faults" => experiments::fault_injection(&scale).map(|e| vec![e]),
                "replication" => experiments::replication(&scale).map(|e| vec![e]),
                "scale" => experiments::at_scale(&scale).map(|e| vec![e]),
                other => {
                    eprintln!(
                        "unknown experiment {other:?} \
                         (fig1|fig2|expt3|fig3|fig4|fig5|seq|failures|faults|replication|scale)"
                    );
                    return 1;
                }
            };
            match result {
                Ok(exps) => {
                    for e in &exps {
                        print(e);
                        println!();
                    }
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn tables_command() {
        assert_eq!(parse(&argv("tables")).unwrap(), Command::Tables);
    }

    #[test]
    fn run_with_defaults() {
        let Command::Run {
            cfg,
            protocol,
            seed,
            format,
            trace_out,
            series_out,
            series_cfg,
        } = parse(&argv("run")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(protocol, ProtocolSpec::TWO_PC);
        assert_eq!(seed, 42);
        assert_eq!(cfg.mpl, 4);
        assert_eq!(format, ReportFormat::Table);
        assert_eq!(trace_out, None);
        assert_eq!(series_out, None);
        assert_eq!(series_cfg, SeriesConfig::default());
    }

    #[test]
    fn run_with_everything() {
        let cmd = parse(&argv(
            "run --protocol OPT-3PC --mpl 7 --seed 9 --sites 4 --db-size 4000 \
             --dist-degree 4 --cohort-size 3 --update-prob 0.5 --msg-cpu-ms 1 \
             --page-cpu-ms 6 --page-disk-ms 18 --cpus 2 --data-disks 3 --log-disks 2 \
             --abort-prob 0.05 --sequential --infinite --read-only-opt \
             --group-commit 8 --restart-fixed-ms 250 --warmup 10 --measured 100",
        ))
        .unwrap();
        let Command::Run {
            cfg,
            protocol,
            seed,
            ..
        } = cmd
        else {
            panic!("expected Run")
        };
        assert_eq!(protocol, ProtocolSpec::OPT_3PC);
        assert_eq!(seed, 9);
        assert_eq!(cfg.num_sites, 4);
        assert_eq!(cfg.db_size, 4000);
        assert_eq!(cfg.mpl, 7);
        assert_eq!(cfg.dist_degree, 4);
        assert_eq!(cfg.cohort_size, 3);
        assert_eq!(cfg.update_prob, 0.5);
        assert_eq!(cfg.msg_cpu, SimDuration::from_millis(1));
        assert_eq!(cfg.page_cpu, SimDuration::from_millis(6));
        assert_eq!(cfg.page_disk, SimDuration::from_millis(18));
        assert_eq!(cfg.num_cpus, 2);
        assert_eq!(cfg.num_data_disks, 3);
        assert_eq!(cfg.num_log_disks, 2);
        assert_eq!(cfg.cohort_abort_prob, 0.05);
        assert_eq!(cfg.trans_type, TransType::Sequential);
        assert_eq!(cfg.resources, ResourceMode::Infinite);
        assert!(cfg.read_only_optimization);
        assert_eq!(cfg.group_commit_batch, Some(8));
        assert_eq!(
            cfg.restart_policy,
            RestartPolicy::Fixed(SimDuration::from_millis(250))
        );
        assert_eq!(cfg.run.warmup_transactions, 10);
        assert_eq!(cfg.run.measured_transactions, 100);
    }

    #[test]
    fn hot_spot_flag() {
        let Command::Run { cfg, .. } = parse(&argv("run --hot-spot 0.2,0.8")).unwrap() else {
            panic!("expected Run");
        };
        let h = cfg.hot_spot.unwrap();
        assert_eq!(h.data_fraction, 0.2);
        assert_eq!(h.access_fraction, 0.8);
        assert!(parse(&argv("run --hot-spot 0.2")).is_err());
        assert!(parse(&argv("run --hot-spot 0.2,1.5")).is_err()); // validation
    }

    #[test]
    fn zipf_flag() {
        let Command::Run { cfg, .. } = parse(&argv("run --zipf 0.9")).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(cfg.zipf, Some(distdb::config::Zipf { theta: 0.9 }));
        // Validation runs at parse time: Zipf and HotSpot are exclusive.
        assert!(parse(&argv("run --zipf 0.9 --hot-spot 0.2,0.8")).is_err());
        assert!(parse(&argv("run --zipf -1")).is_err());
        assert!(parse(&argv("run --zipf")).is_err());
    }

    #[test]
    fn topology_flag_parses_key_value_pairs() {
        let Command::Sweep { cfg, .. } = parse(&argv(
            "sweep --protocols 2PC --mpls 2 --sites 64 \
             --topology regions=8,lan-ms=1,wan-ms=40,jitter=0.1,hot=0.2",
        ))
        .unwrap() else {
            panic!("expected Sweep");
        };
        let t = cfg.topology.unwrap();
        assert_eq!(t.regions, 8);
        assert_eq!(t.lan_latency, SimDuration::from_millis(1));
        assert_eq!(t.wan_latency, SimDuration::from_millis(40));
        assert_eq!(t.jitter, 0.1);
        assert_eq!(t.hot_site_prob, 0.2);
        // Unspecified keys keep the degenerate defaults.
        let Command::Run { cfg, .. } = parse(&argv("run --topology regions=4")).unwrap() else {
            panic!("expected Run");
        };
        let t = cfg.topology.unwrap();
        assert_eq!(t.regions, 4);
        assert!(t.lan_latency.is_zero());
        // Bad keys, shapes, and validation failures are rejected.
        assert!(parse(&argv("run --topology bogus=1")).is_err());
        assert!(parse(&argv("run --topology regions")).is_err());
        assert!(parse(&argv("run --topology regions=0")).is_err()); // validation
        assert!(parse(&argv("run --sites 4 --topology regions=9")).is_err()); // validation
        assert!(parse(&argv("run --topology")).is_err());
    }

    #[test]
    fn usage_lists_every_topology_key_from_the_config_table() {
        for (key, desc) in Topology::CLI_KEYS {
            assert!(USAGE.contains(key), "usage missing topology key {key}");
            assert!(USAGE.contains(desc), "usage missing topology desc {desc}");
        }
        assert!(USAGE.contains("--zipf"));
        assert!(USAGE.contains("scale"));
    }

    #[test]
    fn sweep_parses_lists() {
        let cmd = parse(&argv("sweep --protocols 2PC,OPT --mpls 1,4,8 --seed 3")).unwrap();
        let Command::Sweep {
            protocols,
            mpls,
            seed,
            reps,
            jobs,
            ..
        } = cmd
        else {
            panic!("expected Sweep")
        };
        assert_eq!(protocols, vec![ProtocolSpec::TWO_PC, ProtocolSpec::OPT_2PC]);
        assert_eq!(mpls, vec![1, 4, 8]);
        assert_eq!(seed, 3);
        assert_eq!(reps, 1);
        assert_eq!(jobs, None);
    }

    #[test]
    fn sweep_parses_reps_and_jobs() {
        let cmd = parse(&argv("sweep --protocols 2PC --mpls 2 --reps 5 --jobs 4")).unwrap();
        let Command::Sweep { reps, jobs, .. } = cmd else {
            panic!("expected Sweep")
        };
        assert_eq!(reps, 5);
        assert_eq!(jobs, Some(4));
        // reps must be positive; run takes neither flag
        assert!(parse(&argv("sweep --protocols 2PC --mpls 2 --reps 0")).is_err());
        assert!(parse(&argv("run --reps 3")).is_err());
        assert!(parse(&argv("run --jobs 2")).is_err());
    }

    #[test]
    fn experiment_parses_id_and_full() {
        assert_eq!(
            parse(&argv("experiment fig4 --full")).unwrap(),
            Command::Experiment {
                id: "fig4".into(),
                full: true,
                reps: 1,
                jobs: None,
                csv: false,
            }
        );
        assert_eq!(
            parse(&argv("experiment seq")).unwrap(),
            Command::Experiment {
                id: "seq".into(),
                full: false,
                reps: 1,
                jobs: None,
                csv: false,
            }
        );
        assert!(parse(&argv("experiment")).is_err());
    }

    #[test]
    fn experiment_parses_csv() {
        assert_eq!(
            parse(&argv("experiment faults --csv")).unwrap(),
            Command::Experiment {
                id: "faults".into(),
                full: false,
                reps: 1,
                jobs: None,
                csv: true,
            }
        );
    }

    #[test]
    fn experiment_parses_reps_and_jobs() {
        assert_eq!(
            parse(&argv("experiment fig1 --reps 4 --jobs 8")).unwrap(),
            Command::Experiment {
                id: "fig1".into(),
                full: false,
                reps: 4,
                jobs: Some(8),
                csv: false,
            }
        );
        assert!(parse(&argv("experiment fig1 --reps 0")).is_err());
        assert!(parse(&argv("experiment fig1 --jobs")).is_err());
    }

    #[test]
    fn faults_flag_parses_key_value_pairs() {
        let Command::Run { cfg, .. } = parse(&argv(
            "run --faults mc=0.01,cc=0.005,loss=0.02,detect-ms=200,recover-ms=4000,\
             cohort-recover-ms=800,retry-ms=50,retries=2",
        ))
        .unwrap() else {
            panic!("expected Run");
        };
        let f = cfg.failures.unwrap();
        assert_eq!(f.master_crash_prob, 0.01);
        assert_eq!(f.cohort_crash_prob, 0.005);
        assert_eq!(f.msg_loss_prob, 0.02);
        assert_eq!(f.detection_timeout, SimDuration::from_millis(200));
        assert_eq!(f.recovery_time, SimDuration::from_millis(4000));
        assert_eq!(f.cohort_recovery_time, SimDuration::from_millis(800));
        assert_eq!(f.msg_timeout, SimDuration::from_millis(50));
        assert_eq!(f.max_retransmits, 2);
        // Unspecified keys keep the suite's defaults.
        let Command::Trace { cfg, .. } = parse(&argv("trace --faults mc=0.05")).unwrap() else {
            panic!("expected Trace");
        };
        let f = cfg.failures.unwrap();
        assert_eq!(f.master_crash_prob, 0.05);
        assert_eq!(f.cohort_crash_prob, 0.0);
        assert_eq!(f.max_retransmits, 3);
        // Bad keys, bad shapes and invalid probabilities are rejected.
        assert!(parse(&argv("run --faults bogus=1")).is_err());
        assert!(parse(&argv("run --faults mc")).is_err());
        assert!(parse(&argv("run --faults mc=1.5")).is_err()); // validation
        assert!(parse(&argv("run --faults")).is_err());
    }

    #[test]
    fn csv_flag_is_sweep_only_and_aliases_format_csv() {
        let Command::Sweep { format, .. } =
            parse(&argv("sweep --protocols 2PC --mpls 1,2 --csv")).unwrap()
        else {
            panic!("expected Sweep");
        };
        assert_eq!(format, ReportFormat::Csv);
        let Command::Sweep { format, .. } = parse(&argv("sweep --protocols 2PC --mpls 1")).unwrap()
        else {
            panic!("expected Sweep");
        };
        assert_eq!(format, ReportFormat::Table);
        assert!(parse(&argv("run --csv")).is_err());
        assert!(parse(&argv("trace --csv")).is_err());
        // The alias and the explicit flag cannot disagree.
        assert!(parse(&argv("sweep --csv --format json")).is_err());
    }

    #[test]
    fn sweep_parses_format_json() {
        let Command::Sweep { format, .. } =
            parse(&argv("sweep --protocols 2PC --mpls 1,2 --format json")).unwrap()
        else {
            panic!("expected Sweep");
        };
        assert_eq!(format, ReportFormat::Json);
        let e = parse(&argv("sweep --format xml")).unwrap_err();
        assert!(e.0.contains("--format"), "{e}");
    }

    #[test]
    fn bad_input_errors() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --protocol 4PC")).is_err());
        assert!(parse(&argv("run --mpl")).is_err());
        assert!(parse(&argv("run --mpl notanumber")).is_err());
        // There is one engine: the removed shard-count flag is an
        // unknown option, so a script still passing it fails loudly.
        // It is spelled from parts so that a source grep for the flag
        // finds only live uses, and there are none.
        let shards = ["--", "shards"].concat();
        for args in [
            "run --unknown-flag 3".to_string(),
            format!("run {shards} 2"),
            format!("sweep {shards} 2"),
        ] {
            let e = parse(&argv(&args)).unwrap_err();
            assert!(e.0.starts_with("unknown option"), "{args}: {e}");
        }
        // validation runs at parse time: dist_degree > sites
        assert!(parse(&argv("run --sites 2 --dist-degree 3")).is_err());
        // Inputs that used to hang (a Zipf skew whose distinct-page
        // draw never finishes), panic (a population beyond the event
        // calendar's slots) or wrap (the commit target) name their flag.
        for (args, flag) in [
            ("run --zipf 12", "--zipf"),
            ("run --zipf 1e308", "--zipf"),
            ("run --mpl 4000000000", "--mpl"),
            (
                "run --warmup 18446744073709551610 --measured 10",
                "--warmup",
            ),
        ] {
            let e = parse(&argv(args)).unwrap_err();
            assert!(e.0.contains(flag), "{args}: {e}");
        }
        assert!(parse(&argv("sweep --protocols , --mpls 1")).is_err());
        // Millisecond inputs that no duration can be are parse errors
        // naming the flag or key, never panics.
        for val in ["-1", "nan", "inf", "1e30"] {
            for flag in [
                "--msg-cpu-ms",
                "--page-cpu-ms",
                "--page-disk-ms",
                "--restart-fixed-ms",
            ] {
                let e = parse(&argv(&format!("run {flag} {val}"))).unwrap_err();
                assert!(e.0.starts_with(&format!("{flag}: ")), "{e}");
            }
            let e = parse(&argv(&format!("series --window {val}"))).unwrap_err();
            assert!(e.0.starts_with("--window "), "{e}");
            for key in ["detect-ms", "recover-ms", "cohort-recover-ms", "retry-ms"] {
                let e = parse(&argv(&format!("run --faults mc=0.1,{key}={val}"))).unwrap_err();
                assert!(e.0.starts_with(&format!("--faults: {key}: ")), "{e}");
            }
            for key in ["lan-ms", "wan-ms"] {
                let e = parse(&argv(&format!("run --topology regions=4,{key}={val}"))).unwrap_err();
                assert!(e.0.starts_with(&format!("--topology: {key}: ")), "{e}");
            }
        }
    }

    #[test]
    fn bench_parses_flags_and_defaults() {
        assert_eq!(
            parse(&argv("bench")).unwrap(),
            Command::Bench {
                quick: false,
                label: String::new(),
                seed: 42,
                out: None,
                baseline: None,
                tolerance: 0.25,
                series: false,
            }
        );
        assert_eq!(
            parse(&argv(
                "bench --quick --label before --seed 7 --out BENCH_6.json \
                 --baseline BENCH_6.json --tolerance 0.5 --series"
            ))
            .unwrap(),
            Command::Bench {
                quick: true,
                label: "before".into(),
                seed: 7,
                out: Some("BENCH_6.json".into()),
                baseline: Some("BENCH_6.json".into()),
                tolerance: 0.5,
                series: true,
            }
        );
        assert!(parse(&argv("bench --tolerance 1.5")).is_err());
        assert!(parse(&argv("bench --label")).is_err());
        assert!(parse(&argv("bench --mpl 4")).is_err());
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        for word in [
            "run",
            "series",
            "trace",
            "fold",
            "sweep",
            "experiment",
            "bench",
            "tables",
            "help",
        ] {
            assert!(USAGE.contains(word), "usage missing {word}");
        }
    }

    #[test]
    fn usage_lists_every_protocol_from_the_spec_table() {
        // The protocol vocabulary renders from ProtocolSpec::CLI_NAMES,
        // so the help screen names every table entry — including the
        // replicated family.
        for name in ProtocolSpec::valid_names() {
            assert!(USAGE.contains(name), "usage missing protocol {name}");
        }
        assert!(USAGE.contains("PAXOS"));
        assert!(USAGE.contains("REP2PC"));
        assert!(USAGE.contains("replication"));
    }

    #[test]
    fn replication_flag_and_paxos_protocol() {
        let Command::Run { cfg, protocol, .. } =
            parse(&argv("run --protocol PAXOS --replication 1")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(protocol, ProtocolSpec::PAXOS);
        assert_eq!(cfg.replication, 1);
        // Aliases parse through the same FromStr vocabulary.
        let Command::Run { protocol, .. } = parse(&argv("run --protocol paxos-commit")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(protocol, ProtocolSpec::PAXOS);
        let Command::Sweep { protocols, .. } =
            parse(&argv("sweep --protocols 2PC,PAXOS,REP-2PC --mpls 2")).unwrap()
        else {
            panic!("expected Sweep");
        };
        assert_eq!(
            protocols,
            vec![
                ProtocolSpec::TWO_PC,
                ProtocolSpec::PAXOS,
                ProtocolSpec::REP_2PC
            ]
        );
        // Unknown names list the full vocabulary.
        let e = parse(&argv("run --protocol 4PC")).unwrap_err();
        assert!(e.0.contains("PAXOS"), "{e}");
        assert!(e.0.contains("REP2PC"), "{e}");
    }

    #[test]
    fn usage_lists_every_fault_key_from_the_config_table() {
        // The help text renders FailureConfig::CLI_KEYS verbatim, so
        // the parser vocabulary and the documentation cannot drift.
        for (key, desc) in FailureConfig::CLI_KEYS {
            assert!(USAGE.contains(key), "usage missing fault key {key}");
            assert!(USAGE.contains(desc), "usage missing fault desc {desc}");
        }
    }

    #[test]
    fn run_parses_format_and_trace_out() {
        let Command::Run {
            format, trace_out, ..
        } = parse(&argv("run --format json --trace-out /tmp/r.json")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(format, ReportFormat::Json);
        assert_eq!(trace_out.as_deref(), Some("/tmp/r.json"));
        let Command::Run { format, .. } = parse(&argv("run --format csv")).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(format, ReportFormat::Csv);
        // Bad formats are rejected with the flag named.
        let e = parse(&argv("run --format xml")).unwrap_err();
        assert!(e.0.contains("--format"), "{e}");
        // --trace-out is run-only; --format is run/sweep/series-only.
        assert!(parse(&argv("sweep --trace-out x.json")).is_err());
        assert!(parse(&argv("trace --trace-out x.json")).is_err());
        assert!(parse(&argv("fold --format csv")).is_err());
        assert!(parse(&argv("trace --format json")).is_err());
    }

    #[test]
    fn series_parses_flags_and_defaults() {
        let Command::Series {
            cfg,
            protocol,
            seed,
            series_cfg,
            format,
            out,
        } = parse(&argv("series")).unwrap()
        else {
            panic!("expected Series");
        };
        assert_eq!(protocol, ProtocolSpec::TWO_PC);
        assert_eq!(seed, 42);
        assert_eq!(cfg.mpl, 4);
        assert_eq!(series_cfg, SeriesConfig::default());
        assert_eq!(format, SeriesFormat::Csv);
        assert_eq!(out, None);
        let Command::Series {
            series_cfg,
            format,
            out,
            ..
        } = parse(&argv(
            "series --protocol OPT --window 2.5 --per-site --format json --out /tmp/s.json \
             --faults mc=0.01",
        ))
        .unwrap()
        else {
            panic!("expected Series");
        };
        assert_eq!(series_cfg.window, SimDuration::from_millis(2_500));
        assert!(series_cfg.per_site);
        assert_eq!(format, SeriesFormat::Json);
        assert_eq!(out.as_deref(), Some("/tmp/s.json"));
    }

    #[test]
    fn series_rejects_bad_flag_combinations() {
        // A table has no series rendering.
        let e = parse(&argv("series --format table")).unwrap_err();
        assert!(e.0.contains("csv|json"), "{e}");
        // Window must be positive and finite.
        assert!(parse(&argv("series --window 0")).is_err());
        assert!(parse(&argv("series --window -3")).is_err());
        assert!(parse(&argv("series --window inf")).is_err());
        // Series takes none of the other subcommands' flags.
        assert!(parse(&argv("series --txns 5")).is_err());
        assert!(parse(&argv("series --trace-out x.json")).is_err());
        assert!(parse(&argv("series --series-out x.csv")).is_err());
        assert!(parse(&argv("series --reps 2")).is_err());
        assert!(parse(&argv("series --jobs 2")).is_err());
        assert!(parse(&argv("series --csv")).is_err());
    }

    #[test]
    fn series_out_applies_to_run_and_sweep() {
        let Command::Run {
            series_out,
            series_cfg,
            ..
        } = parse(&argv("run --series-out /tmp/s.csv --window 1 --per-site")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(series_out.as_deref(), Some("/tmp/s.csv"));
        assert_eq!(series_cfg.window, SimDuration::from_millis(1_000));
        assert!(series_cfg.per_site);
        let Command::Sweep {
            series_out,
            series_cfg,
            ..
        } = parse(&argv(
            "sweep --protocols 2PC --mpls 1,2 --series-out /tmp/s.json",
        ))
        .unwrap()
        else {
            panic!("expected Sweep");
        };
        assert_eq!(series_out.as_deref(), Some("/tmp/s.json"));
        assert_eq!(series_cfg, SeriesConfig::default());
        // One observed run feeds both streamers.
        assert!(parse(&argv("run --trace-out a.json --series-out b.csv")).is_ok());
        // --window/--per-site are meaningless without a series.
        assert!(parse(&argv("run --window 2")).is_err());
        assert!(parse(&argv("run --per-site")).is_err());
        assert!(parse(&argv("sweep --protocols 2PC --mpls 1 --per-site")).is_err());
        assert!(parse(&argv("trace --series-out x.csv")).is_err());
        assert!(parse(&argv("fold --series-out x.csv")).is_err());
    }

    #[test]
    fn series_format_follows_output_extension() {
        assert_eq!(series_format_for("s.json"), SeriesFormat::Json);
        assert_eq!(series_format_for("s.csv"), SeriesFormat::Csv);
        assert_eq!(series_format_for("windows"), SeriesFormat::Csv);
    }

    #[test]
    fn fold_parses_txns_and_out() {
        let Command::Fold {
            cfg,
            protocol,
            seed,
            txns,
            out,
        } = parse(&argv(
            "fold --protocol 3PC --seed 5 --txns 100 --out /tmp/f.folded",
        ))
        .unwrap()
        else {
            panic!("expected Fold");
        };
        assert_eq!(protocol, ProtocolSpec::THREE_PC);
        assert_eq!(seed, 5);
        assert_eq!(txns, 100);
        assert_eq!(out.as_deref(), Some("/tmp/f.folded"));
        // Fold uses run-length defaults (it aggregates, so a full run
        // is the point) and folds every transaction by default.
        assert_eq!(cfg.run.warmup_transactions, 500);
        assert_eq!(cfg.run.measured_transactions, 5_000);
        let Command::Fold { txns, out, .. } = parse(&argv("fold")).unwrap() else {
            panic!("expected Fold");
        };
        assert_eq!(txns, u64::MAX);
        assert_eq!(out, None);
        assert!(parse(&argv("fold --txns 0")).is_err());
        assert!(parse(&argv("fold --reps 2")).is_err());
        assert!(parse(&argv("fold --csv")).is_err());
    }

    #[test]
    fn trace_parses_txns_and_out() {
        let cmd = parse(&argv(
            "trace --protocol 3PC --txns 5 --out /tmp/t.json --seed 2",
        ))
        .unwrap();
        let Command::Trace {
            cfg,
            protocol,
            seed,
            txns,
            out,
        } = cmd
        else {
            panic!("expected Trace")
        };
        assert_eq!(protocol, ProtocolSpec::THREE_PC);
        assert_eq!(seed, 2);
        assert_eq!(txns, 5);
        assert_eq!(out.as_deref(), Some("/tmp/t.json"));
        // trace defaults to a short run; flags still override
        assert_eq!(cfg.run.warmup_transactions, 50);
        assert_eq!(cfg.run.measured_transactions, 200);
        let Command::Trace { cfg, txns, out, .. } = parse(&argv("trace --measured 80")).unwrap()
        else {
            panic!("expected Trace")
        };
        assert_eq!(cfg.run.measured_transactions, 80);
        assert_eq!(txns, 3);
        assert_eq!(out, None);
        // --txns/--out are trace-only; trace takes no --reps/--jobs
        assert!(parse(&argv("run --txns 5")).is_err());
        assert!(parse(&argv("run --out x.json")).is_err());
        assert!(parse(&argv("sweep --out x.json")).is_err());
        assert!(parse(&argv("trace --txns 0")).is_err());
        assert!(parse(&argv("trace --reps 2")).is_err());
    }
}
