//! Windowed time-series telemetry: exact aggregation against the
//! report, non-perturbation of the observed run, determinism, and the
//! buffered/streaming equivalence of the renderers.

use std::io::Write;
use std::sync::{Arc, Mutex};

use distcommit::db::config::{FailureConfig, SystemConfig};
use distcommit::db::engine::{Series, SeriesConfig, SeriesFormat, SeriesRecorder, Simulation};
use distcommit::db::metrics::SimReport;
use distcommit::proto::ProtocolSpec;
use simkernel::SimDuration;

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.mpl = 4;
    cfg.run.warmup_transactions = 100;
    cfg.run.measured_transactions = 800;
    cfg
}

fn lossy_cfg() -> SystemConfig {
    let mut cfg = small_cfg();
    cfg.failures = Some(FailureConfig {
        msg_loss_prob: 0.05,
        ..FailureConfig::default()
    });
    cfg
}

fn series_cfg(window_s: u64, per_site: bool) -> SeriesConfig {
    SeriesConfig {
        window: SimDuration::from_secs(window_s),
        per_site,
    }
}

fn fingerprint(r: &SimReport) -> (u64, u64, u64, u64, String) {
    (
        r.committed,
        r.aborted_deadlock,
        r.aborted_surprise,
        r.events,
        format!(
            "{:.12}|{:.12}|{:.12}|{:.12}",
            r.throughput, r.mean_response_s, r.block_ratio, r.sim_seconds
        ),
    )
}

/// Measured windows must tile the measurement interval exactly, so
/// their counter deltas sum to the report aggregates with no slack at
/// all — the acceptance criterion of the telemetry layer.
#[test]
fn measured_windows_sum_exactly_to_report_aggregates() {
    for (cfg, spec) in [
        (small_cfg(), ProtocolSpec::TWO_PC),
        (small_cfg(), ProtocolSpec::OPT_3PC),
        (lossy_cfg(), ProtocolSpec::TWO_PC),
    ] {
        let scfg = series_cfg(2, false);
        let (report, series) = Simulation::run_with_series(&cfg, spec, 42, &scfg).unwrap();
        let measured: Vec<_> = series.windows.iter().filter(|w| w.measured).collect();
        assert!(
            measured.len() >= 2,
            "{}: expected several measured windows, got {}",
            spec.name(),
            measured.len()
        );

        macro_rules! sum {
            ($field:ident) => {
                measured.iter().map(|w| w.$field).sum::<u64>()
            };
        }
        assert_eq!(sum!(committed), report.committed, "{}", spec.name());
        assert_eq!(sum!(aborted_deadlock), report.aborted_deadlock);
        assert_eq!(sum!(aborted_surprise), report.aborted_surprise);
        assert_eq!(sum!(aborted_borrower), report.aborted_borrower);
        assert_eq!(sum!(retransmissions), report.faults.retransmissions);
        assert_eq!(sum!(messages_lost), report.faults.messages_lost);

        // Message counters reconstruct the per-commit ratios.
        let exec: u64 = sum!(exec_messages);
        let commit: u64 = sum!(commit_messages);
        let c = report.committed as f64;
        assert!((exec as f64 - report.exec_messages_per_commit * c).abs() < 1e-6 * c + 1e-6);
        assert!((commit as f64 - report.commit_messages_per_commit * c).abs() < 1e-6 * c + 1e-6);

        // Integrals telescope: the summed lock-wait and live areas
        // reproduce the report's block ratio to floating-point noise.
        let lock_wait: f64 = measured.iter().map(|w| w.lock_wait_s).sum();
        let live: f64 = measured.iter().map(|w| w.live_s).sum();
        assert!(live > 0.0);
        let ratio = lock_wait / live;
        assert!(
            (ratio - report.block_ratio).abs() < 1e-9,
            "{}: series block ratio {ratio} vs report {}",
            spec.name(),
            report.block_ratio
        );

        // The width-weighted window throughput is the report throughput.
        let width: f64 = measured.iter().map(|w| w.width_s()).sum();
        assert!((width - report.sim_seconds).abs() < 1e-9);
        let thr = report.committed as f64 / width;
        assert!((thr - report.throughput).abs() < 1e-9 * report.throughput.max(1.0));
    }
}

#[test]
fn windows_tile_without_gaps_and_timestamps_are_monotone() {
    let (_, series) =
        Simulation::run_with_series(&small_cfg(), ProtocolSpec::TWO_PC, 7, &series_cfg(2, false))
            .unwrap();
    assert!(!series.windows.is_empty());
    for pair in series.windows.windows(2) {
        assert!(pair[0].start < pair[0].end);
        assert_eq!(
            pair[0].end, pair[1].start,
            "windows must tile with no gap or overlap"
        );
        assert_eq!(pair[0].index + 1, pair[1].index);
    }
    // Warm-up windows precede measured windows, never the reverse.
    let first_measured = series.windows.iter().position(|w| w.measured).unwrap();
    assert!(series.windows[..first_measured].iter().all(|w| !w.measured));
    assert!(series.windows[first_measured..].iter().all(|w| w.measured));
}

/// Observing a run must not perturb it: the report from a series run
/// is identical to a plain run with the same inputs.
#[test]
fn series_recording_does_not_perturb_the_run() {
    for cfg in [small_cfg(), lossy_cfg()] {
        let plain = Simulation::run(&cfg, ProtocolSpec::THREE_PC, 11).unwrap();
        let (with_series, _) =
            Simulation::run_with_series(&cfg, ProtocolSpec::THREE_PC, 11, &series_cfg(1, true))
                .unwrap();
        assert_eq!(fingerprint(&plain), fingerprint(&with_series));
    }
}

#[test]
fn per_site_commits_sum_to_window_commits() {
    let (_, series) =
        Simulation::run_with_series(&small_cfg(), ProtocolSpec::TWO_PC, 5, &series_cfg(2, true))
            .unwrap();
    let mut some_site_committed = false;
    for w in &series.windows {
        assert!(!w.per_site.is_empty(), "per-site mode records every site");
        let site_sum: u64 = w.per_site.iter().map(|s| s.committed).sum();
        assert_eq!(site_sum, w.committed, "window {} site split", w.index);
        some_site_committed |= site_sum > 0;
    }
    assert!(some_site_committed);
}

#[test]
fn series_render_is_deterministic() {
    let run = || -> (Series, Series) {
        let (_, a) = Simulation::run_with_series(
            &lossy_cfg(),
            ProtocolSpec::TWO_PC,
            99,
            &series_cfg(2, true),
        )
        .unwrap();
        let (_, b) = Simulation::run_with_series(
            &lossy_cfg(),
            ProtocolSpec::TWO_PC,
            99,
            &series_cfg(2, true),
        )
        .unwrap();
        (a, b)
    };
    let (a, b) = run();
    assert_eq!(a.render(SeriesFormat::Csv), b.render(SeriesFormat::Csv));
    assert_eq!(a.render(SeriesFormat::Json), b.render(SeriesFormat::Json));
}

/// A `Write` handle whose bytes stay reachable after the engine takes
/// ownership of the boxed writer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn streaming_output_is_byte_identical_to_buffered_render() {
    for format in [SeriesFormat::Csv, SeriesFormat::Json] {
        let scfg = series_cfg(2, true);
        let (_, buffered) =
            Simulation::run_with_series(&lossy_cfg(), ProtocolSpec::OPT_2PC, 3, &scfg).unwrap();
        let buf = SharedBuf::default();
        let rec = SeriesRecorder::streaming(&scfg, Box::new(buf.clone()), format);
        let (report, rec) =
            Simulation::run_observed(&lossy_cfg(), ProtocolSpec::OPT_2PC, 3, rec).unwrap();
        assert!(rec.into_series().unwrap().windows.is_empty());
        assert!(report.committed > 0);
        let streamed = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(buffered.render(format), streamed);
    }
}

/// A writer that accepts its first `limit` bytes and fails every write
/// after that; like a `File`, its `flush` has nothing to report.
struct FailAfter {
    limit: usize,
    written: usize,
    failed_writes: Arc<Mutex<u32>>,
}

impl Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.written + buf.len() > self.limit {
            *self.failed_writes.lock().unwrap() += 1;
            return Err(std::io::Error::other("device full"));
        }
        self.written += buf.len();
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A write error in the middle of a streamed run is latched, stops the
/// stream, and surfaces when the series is taken; the run itself goes
/// on undisturbed.
#[test]
fn streamed_series_surfaces_mid_run_write_errors() {
    let mut cfg = small_cfg();
    cfg.run.warmup_transactions = 0;
    cfg.run.measured_transactions = 2_000;
    let failed_writes = Arc::new(Mutex::new(0));
    let writer = FailAfter {
        limit: 400,
        written: 0,
        failed_writes: failed_writes.clone(),
    };
    let rec = SeriesRecorder::streaming(&series_cfg(1, false), Box::new(writer), SeriesFormat::Csv);
    let (report, rec) = Simulation::run_observed(&cfg, ProtocolSpec::TWO_PC, 42, rec).unwrap();
    let err = rec.into_series().expect_err("the writer failed mid-run");
    assert_eq!(err.to_string(), "device full");
    assert_eq!(*failed_writes.lock().unwrap(), 1, "the stream goes quiet");
    let bare = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 42).unwrap();
    assert_eq!(fingerprint(&report), fingerprint(&bare));
}

/// `run --trace-out A --series-out B` feeds both streamers from one
/// run: A matches a trace-only run byte for byte, B a series-only run,
/// and stdout (the report) is the same in all three.
#[test]
fn cli_trace_and_series_outputs_compose() {
    let dir = std::env::temp_dir().join(format!("distcommit-compose-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let trace = |name: &str| format!("--trace-out {}", path(name));
    let series = |name: &str| format!("--series-out {} --window 1 --per-site", path(name));
    let run = |outputs: &str| {
        let args = format!(
            "run --protocol 3PC --seed 7 --warmup 20 --measured 300 \
             --faults mc=0.02,cc=0.01,loss=0.02 --format json {outputs}"
        );
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_distcommit"))
            .args(args.split_whitespace())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args}: {stderr}");
        out.stdout
    };
    let both = run(&format!("{} {}", trace("a.json"), series("b.csv")));
    assert_eq!(both, run(&trace("a1.json")));
    assert_eq!(both, run(&series("b1.csv")));
    let read = |name: &str| std::fs::read(path(name)).unwrap();
    assert!(read("a.json").len() > 1_000 && read("b.csv").len() > 100);
    assert_eq!(read("a.json"), read("a1.json"));
    assert_eq!(read("b.csv"), read("b1.csv"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A series output that cannot be written fails the command (exit 1)
/// and names the file, for `series`, `run` and `sweep`.
#[cfg(target_os = "linux")]
#[test]
fn cli_series_write_errors_exit_1_naming_the_file() {
    for args in [
        "series --warmup 0 --measured 200 --out /dev/full",
        "run --warmup 0 --measured 200 --series-out /dev/full",
        "sweep --protocols 2PC --mpls 2 --warmup 0 --measured 200 --series-out /dev/full",
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_distcommit"))
            .args(args.split_whitespace())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(
            stderr.contains("cannot write /dev/full"),
            "{args}: {stderr}"
        );
    }
}

#[test]
fn json_series_is_structurally_sound() {
    let (_, series) =
        Simulation::run_with_series(&lossy_cfg(), ProtocolSpec::TWO_PC, 21, &series_cfg(2, true))
            .unwrap();
    let json = series.render(SeriesFormat::Json);
    let balance = json.chars().fold(0i64, |acc, c| match c {
        '{' | '[' => acc + 1,
        '}' | ']' => acc - 1,
        _ => acc,
    });
    assert_eq!(balance, 0, "unbalanced braces/brackets");
    assert!(json.contains("\"windows\":["));
    assert!(json.contains("\"sites\":["));
    assert!(!json.contains("inf") && !json.contains("NaN"));
}

#[test]
fn csv_rows_all_have_the_header_field_count() {
    let (_, series) =
        Simulation::run_with_series(&small_cfg(), ProtocolSpec::TWO_PC, 8, &series_cfg(2, true))
            .unwrap();
    let csv = series.render(SeriesFormat::Csv);
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    let fields = header.split(',').count();
    for line in lines {
        assert_eq!(
            line.split(',').count(),
            fields,
            "row field count diverges from header: {line:?}"
        );
    }
}

/// Steady-state detection must flag a deliberately too-short run: with
/// fewer throughput samples than the MSER minimum, `converged` is
/// structurally false regardless of seed.
#[test]
fn too_short_run_is_flagged_not_converged() {
    let mut cfg = small_cfg();
    cfg.run.warmup_transactions = 0;
    cfg.run.measured_transactions = 50;
    // 5 batches of 10 commits → 5 throughput samples, below the MSER
    // minimum of 8, so the verdict is structural (seed-independent).
    cfg.run.batches = 5;
    let report = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 1).unwrap();
    assert!(!report.convergence.converged);
    assert!(report.convergence.steady_from_s.is_nan());
    assert!(report.summary().contains("NOT CONVERGED"));
}

/// A default-length run yields enough batches for the detector to
/// find a steady state.
#[test]
fn default_length_run_converges() {
    let report = Simulation::run(&small_cfg(), ProtocolSpec::TWO_PC, 1).unwrap();
    assert!(
        report.convergence.samples >= 8,
        "expected enough samples, got {}",
        report.convergence.samples
    );
    assert!(report.convergence.converged);
    assert!(report.convergence.steady_from_s.is_finite());
}
