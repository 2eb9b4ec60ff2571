//! # distbench — the benchmark harness
//!
//! One bench target per table/figure of the paper (run with
//! `cargo bench`); each prints the same rows/series the paper reports
//! and records a CSV next to the target directory for plotting.
//!
//! Scale: targets default to [`distdb::experiments::Scale::quick`]
//! (2 000 measured transactions per point); set `DISTCOMMIT_FULL=1`
//! for paper-length runs (50 000+ transactions per point, MPL 1..10).

pub mod canonical;

use distdb::experiments::Experiment;
use distdb::output::{render_ascii_chart, render_csv, render_peaks, render_table, Metric};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Print the standard harness banner for one bench target.
pub fn banner(target: &str, what: &str) {
    println!("==============================================================");
    println!("distcommit bench: {target} — {what}");
    println!("scale: {}", scale_name());
    println!("==============================================================");
}

/// Human name of the active scale.
pub fn scale_name() -> &'static str {
    match std::env::var("DISTCOMMIT_FULL").as_deref() {
        Ok("1") | Ok("true") => "FULL (paper-length, ≥50k txns per point)",
        _ => "quick (2k txns per point; set DISTCOMMIT_FULL=1 for paper-length)",
    }
}

/// Directory where CSVs land: the *workspace* `target/bench-results`
/// (bench targets run with the package directory as CWD, so a relative
/// path would scatter results under `crates/bench`).
pub fn results_dir() -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        });
    let dir = base.join("bench-results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Print an experiment's tables for the given metrics, its peak
/// summary, and persist CSVs.
pub fn report(exp: &Experiment, metrics: &[Metric]) {
    println!("\nconfiguration:\n{}", exp.config);
    for &m in metrics {
        println!("{}", render_table(exp, m));
        let fname = format!(
            "{}-{}.csv",
            exp.id,
            m.label()
                .split_whitespace()
                .next()
                .unwrap_or("metric")
                .to_lowercase()
        );
        let path = results_dir().join(fname);
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(render_csv(exp, m).as_bytes());
            println!("[csv] {}", path.display());
            println!();
        }
    }
    // The figure itself, as the paper would plot it.
    if let Some(&first) = metrics.first() {
        println!("{}", render_ascii_chart(exp, first, 64, 18));
    }
    println!("{}", render_peaks(exp));
}

/// Run a closure, timing it and printing the elapsed wall-clock.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    println!(
        "[{label}: {:.1}s wall-clock]",
        start.elapsed().as_secs_f64()
    );
    out
}

/// Minimal std-only micro-benchmark harness (replaces the former
/// criterion dev-dependency so `cargo bench` works offline): each
/// benchmark is warmed up, then timed over enough iterations to fill a
/// short measurement window, reporting mean time per iteration.
pub mod micro {
    use std::time::{Duration, Instant};

    /// Measurement window per benchmark (after warm-up).
    const WINDOW: Duration = Duration::from_millis(300);

    fn fmt_duration(d: Duration) -> String {
        let ns = d.as_nanos();
        if ns < 1_000 {
            format!("{ns} ns")
        } else if ns < 1_000_000 {
            format!("{:.2} µs", ns as f64 / 1_000.0)
        } else if ns < 1_000_000_000 {
            format!("{:.2} ms", ns as f64 / 1_000_000.0)
        } else {
            format!("{:.2} s", ns as f64 / 1_000_000_000.0)
        }
    }

    /// Time `f` repeatedly: the mean time per call and the call count.
    fn measure<T>(mut f: impl FnMut() -> T) -> (Duration, u64) {
        // Warm-up: one timed call sizes the batch.
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (WINDOW.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        (start.elapsed() / iters as u32, iters)
    }

    /// Time `f` repeatedly and print `name: <mean per iter> (<iters> iters)`.
    pub fn bench<T>(name: &str, f: impl FnMut() -> T) {
        let (per_iter, iters) = measure(f);
        println!("{name:<44} {:>12}  ({iters} iters)", fmt_duration(per_iter));
    }

    /// Like [`bench()`], for an `f` that handles `items` items per call:
    /// prints the mean time per item.
    pub fn bench_per_item<T>(name: &str, items: u64, f: impl FnMut() -> T) {
        let (per_iter, iters) = measure(f);
        let ns = per_iter.as_nanos() as f64 / items.max(1) as f64;
        println!("{name:<44} {ns:>9.1} ns/item  ({items} items, {iters} iters)");
    }

    /// Like [`bench()`], but rebuilds fresh input state with `setup`
    /// outside the timed region before every iteration.
    pub fn bench_with_setup<S, T>(
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> T,
    ) {
        let input = setup();
        let start = Instant::now();
        std::hint::black_box(f(input));
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (WINDOW.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
        let inputs: Vec<S> = (0..iters).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            std::hint::black_box(f(input));
        }
        let per_iter = start.elapsed() / iters as u32;
        println!("{name:<44} {:>12}  ({iters} iters)", fmt_duration(per_iter));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.ends_with("bench-results"));
        assert!(d.exists());
    }

    #[test]
    fn scale_name_mentions_full_switch() {
        assert!(scale_name().contains("DISTCOMMIT_FULL") || scale_name().contains("FULL"));
    }

    #[test]
    fn timed_returns_value() {
        assert_eq!(timed("t", || 41 + 1), 42);
    }
}
