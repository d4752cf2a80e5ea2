//! Regression gate over the `BENCH_*.json` table dumps.
//!
//! Compares a fresh benchmark run (written by the table binaries when
//! `FNC2_BENCH_JSON` is set) against a committed baseline and fails —
//! nonzero exit — when the **median** per-row regression of any tracked
//! column exceeds the threshold (15% by default).
//!
//! By default only *ratio* columns are compared (`speedup`, `overhead`,
//! `prof ovh`, and anything else rendered as `N.NNx` or `±N.N%`): every
//! ratio is the median of per-round ratios from paired, rotating rounds
//! (`fnc2_bench::harness::paired`), whose legs run back to back on the
//! *same* machine, so they survive CI runners with wildly different
//! absolute clock speeds. `--absolute` additionally compares time columns
//! (`µs`/`ms`/`s` cells) for local, same-machine investigations.
//!
//! Each column's line also prints the baseline's spread: the median and
//! the largest, over the column's rows, of the interquartile range of the
//! per-round ratios over their median. It tells a reader how much of a
//! change is noise; it never gates.
//!
//! ```text
//! bench_compare [--threshold PCT] [--absolute] <baseline-dir> <fresh-dir> [table...]
//! ```
//!
//! With no explicit table names, every `BENCH_<table>.json` present in the
//! baseline directory is compared; a baseline with no matching fresh dump
//! is an error (the run script forgot a table). The medians-not-maxima
//! choice is deliberate: a single scheduler-preempted row should not gate
//! a merge, a systematic slowdown across rows should.

use std::path::PathBuf;
use std::process::ExitCode;

use fnc2_bench::BenchTable;

/// Default regression threshold, in percent.
const DEFAULT_THRESHOLD: f64 = 15.0;

/// How a column's cells are interpreted for comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// `"3.41x"` — a speedup ratio; bigger is better.
    Ratio(f64),
    /// `"+1.3%"` — an overhead percentage; compared as the factor
    /// `1 + pct/100`, smaller is better.
    Overhead(f64),
    /// `"12.3µs"` / `"4.56ms"` / `"1.2 s"` — a wall-clock time in
    /// nanoseconds; smaller is better, but only compared with
    /// `--absolute` (cross-runner clock speeds differ).
    TimeNs(f64),
    /// Anything else (labels, counts): identity only.
    Label,
}

fn classify(cell: &str) -> Kind {
    let c = cell.trim();
    if let Some(n) = c.strip_suffix('x').and_then(|s| s.parse::<f64>().ok()) {
        return Kind::Ratio(n);
    }
    if let Some(n) = c.strip_suffix('%').and_then(|s| s.parse::<f64>().ok()) {
        return Kind::Overhead(n);
    }
    for (suffix, scale) in [("µs", 1e3), ("ms", 1e6), ("ns", 1.0), ("s", 1e9)] {
        if let Some(n) = c
            .strip_suffix(suffix)
            .and_then(|s| s.trim_end().parse::<f64>().ok())
        {
            return Kind::TimeNs(n * scale);
        }
    }
    Kind::Label
}

/// The per-row "badness" change factor for one cell pair, or `None` when
/// the column kind is not comparable under the current mode. `> 1` means
/// the fresh run is worse than the baseline.
fn change_factor(base: Kind, fresh: Kind, absolute: bool) -> Option<f64> {
    match (base, fresh) {
        (Kind::Ratio(b), Kind::Ratio(f)) if f > 0.0 => Some(b / f),
        (Kind::Overhead(b), Kind::Overhead(f)) => {
            let (b, f) = (1.0 + b / 100.0, 1.0 + f / 100.0);
            (b > 0.0).then(|| f / b)
        }
        (Kind::TimeNs(b), Kind::TimeNs(f)) if absolute && b > 0.0 => Some(f / b),
        _ => None,
    }
}

/// The median change factor. Non-finite factors (a `NaNx` cell in a
/// malformed dump would otherwise poison the sort and panic) are rejected
/// as a proper error, and even-length inputs take the mean of the two
/// middle elements — the true median, not the upper one.
fn median(mut xs: Vec<f64>) -> Result<f64, String> {
    if xs.is_empty() {
        return Err("median of an empty factor list".into());
    }
    if let Some(bad) = xs.iter().find(|x| !x.is_finite()) {
        return Err(format!("non-finite change factor {bad} in dump"));
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    Ok(if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    })
}

/// Compares one table pair; returns the list of regression messages.
fn compare(
    base: &BenchTable,
    fresh: &BenchTable,
    threshold: f64,
    absolute: bool,
) -> Result<Vec<String>, String> {
    if base.headers != fresh.headers {
        return Err(format!(
            "table `{}`: header mismatch (baseline {:?} vs fresh {:?}) — regenerate the baseline",
            base.name, base.headers, fresh.headers
        ));
    }
    if base.rows.len() != fresh.rows.len() {
        return Err(format!(
            "table `{}`: row count changed ({} vs {}) — regenerate the baseline",
            base.name,
            base.rows.len(),
            fresh.rows.len()
        ));
    }
    for (i, (b, f)) in base.rows.iter().zip(&fresh.rows).enumerate() {
        if b.first() != f.first() {
            return Err(format!(
                "table `{}` row {i}: key mismatch ({:?} vs {:?}) — regenerate the baseline",
                base.name,
                b.first(),
                f.first()
            ));
        }
    }
    // Every row must carry exactly one cell per header: a short row would
    // panic on indexing below, a long one would be silently ignored.
    for (which, t) in [("baseline", base), ("fresh", fresh)] {
        for (i, row) in t.rows.iter().enumerate() {
            if row.len() != t.headers.len() {
                return Err(format!(
                    "table `{}` {which} row {i} ({:?}): {} cells but {} headers — \
                     truncated or malformed dump",
                    t.name,
                    row.first(),
                    row.len(),
                    t.headers.len()
                ));
            }
        }
    }
    let mut regressions = Vec::new();
    for (col, header) in base.headers.iter().enumerate() {
        let mut factors = Vec::new();
        let mut worst: Option<(f64, usize)> = None;
        for (i, (b, f)) in base.rows.iter().zip(&fresh.rows).enumerate() {
            let (bc, fc) = (classify(&b[col]), classify(&f[col]));
            if let Some(factor) = change_factor(bc, fc, absolute) {
                if worst.is_none_or(|(w, _)| factor > w) {
                    worst = Some((factor, i));
                }
                factors.push(factor);
            }
        }
        if factors.is_empty() {
            continue;
        }
        let med =
            median(factors).map_err(|e| format!("table `{}` column `{header}`: {e}", base.name))?;
        let limit = 1.0 + threshold / 100.0;
        let verdict = if med > limit { "REGRESSION" } else { "ok" };
        let (w, wi) = worst.expect("factors nonempty");
        let spread = match base.spread.get(header) {
            Some(xs) if !xs.is_empty() => format!(
                "spread {:.1}% (max {:.1}%)",
                median(xs.clone())? * 100.0,
                xs.iter().copied().fold(0.0, f64::max) * 100.0
            ),
            _ => "spread -".into(),
        };
        println!(
            "{:<14} {:<10} median {:+6.1}%  worst {:+6.1}% (row {}: {})  {spread}  {}",
            base.name,
            header,
            (med - 1.0) * 100.0,
            (w - 1.0) * 100.0,
            wi,
            base.rows[wi][0],
            verdict
        );
        if med > limit {
            regressions.push(format!(
                "table `{}` column `{}`: median {:+.1}% worse than baseline (threshold {threshold}%)",
                base.name,
                header,
                (med - 1.0) * 100.0
            ));
        }
    }
    Ok(regressions)
}

fn usage() -> String {
    "usage: bench_compare [--threshold PCT] [--absolute] <baseline-dir> <fresh-dir> [table...]"
        .to_string()
}

fn run(args: &[String]) -> Result<Vec<String>, String> {
    let mut threshold = DEFAULT_THRESHOLD;
    let mut absolute = false;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| "--threshold needs a number".to_string())?;
            }
            "--absolute" => absolute = true,
            "--help" | "-h" => return Err(usage()),
            _ => positional.push(a.clone()),
        }
    }
    if positional.len() < 2 {
        return Err(usage());
    }
    let base_dir = PathBuf::from(&positional[0]);
    let fresh_dir = PathBuf::from(&positional[1]);
    let tables: Vec<String> = if positional.len() > 2 {
        positional[2..].to_vec()
    } else {
        // Every baseline present gates the run.
        let mut names: Vec<String> = std::fs::read_dir(&base_dir)
            .map_err(|e| format!("cannot list {}: {e}", base_dir.display()))?
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                Some(
                    name.strip_prefix("BENCH_")?
                        .strip_suffix(".json")?
                        .to_string(),
                )
            })
            .collect();
        names.sort();
        names
    };
    if tables.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines in {}",
            base_dir.display()
        ));
    }
    let mut regressions = Vec::new();
    for t in &tables {
        let file = format!("BENCH_{t}.json");
        let base = BenchTable::load(&base_dir.join(&file))?;
        let fresh = BenchTable::load(&fresh_dir.join(&file))?;
        if base.name != fresh.name {
            return Err(format!(
                "{file}: table name mismatch ({} vs {})",
                base.name, fresh.name
            ));
        }
        regressions.extend(compare(&base, &fresh, threshold, absolute)?);
    }
    Ok(regressions)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(regressions) if regressions.is_empty() => {
            println!("bench_compare: no median regression beyond threshold");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            for r in &regressions {
                eprintln!("bench_compare: {r}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str, rows: &[&[&str]]) -> BenchTable {
        BenchTable {
            name: name.into(),
            headers: vec![
                "AG".into(),
                "compiled".into(),
                "speedup".into(),
                "overhead".into(),
            ],
            rows: rows
                .iter()
                .map(|r| r.iter().map(|c| c.to_string()).collect())
                .collect(),
            spread: Default::default(),
        }
    }

    #[test]
    fn classifies_cells() {
        assert_eq!(classify("3.41x"), Kind::Ratio(3.41));
        assert_eq!(classify("+1.3%"), Kind::Overhead(1.3));
        assert_eq!(classify("-0.5%"), Kind::Overhead(-0.5));
        assert_eq!(classify("12.5µs"), Kind::TimeNs(12.5e3));
        assert_eq!(classify("2.00ms"), Kind::TimeNs(2e6));
        assert_eq!(classify("flat_wide"), Kind::Label);
        assert_eq!(classify("256"), Kind::Label);
    }

    #[test]
    fn ratio_regression_detected_by_median() {
        let base = table(
            "t",
            &[
                &["a", "10.0µs", "3.00x", "+1.0%"],
                &["b", "10.0µs", "3.00x", "+1.0%"],
                &["c", "10.0µs", "3.00x", "+1.0%"],
            ],
        );
        // One noisy row does not trip the gate …
        let noisy = table(
            "t",
            &[
                &["a", "10.0µs", "2.00x", "+1.0%"],
                &["b", "10.0µs", "3.00x", "+1.0%"],
                &["c", "10.0µs", "3.00x", "+1.0%"],
            ],
        );
        assert!(compare(&base, &noisy, 15.0, false).unwrap().is_empty());
        // … a systematic slowdown does.
        let slow = table(
            "t",
            &[
                &["a", "10.0µs", "2.00x", "+1.0%"],
                &["b", "10.0µs", "2.00x", "+1.0%"],
                &["c", "10.0µs", "2.00x", "+1.0%"],
            ],
        );
        let regs = compare(&base, &slow, 15.0, false).unwrap();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("speedup"), "{regs:?}");
    }

    #[test]
    fn spread_is_printed_never_gated() {
        // A baseline whose ratios spread 60% round to round still passes an
        // unchanged fresh dump …
        let rows: &[&[&str]] = &[
            &["a", "10.0µs", "3.00x", "+1.0%"],
            &["b", "10.0µs", "3.00x", "+1.0%"],
        ];
        let mut base = table("t", rows);
        let spread =
            |s: f64| [("speedup", s), ("overhead", s)].map(|(c, s)| (c.into(), vec![s; 2]));
        base.spread = spread(0.6).into();
        assert!(compare(&base, &table("t", rows), 15.0, false)
            .unwrap()
            .is_empty());
        // … and an injected 20% regression still fails, spread or no spread.
        let slow = table(
            "t",
            &[
                &["a", "10.0µs", "2.50x", "+21.2%"],
                &["b", "10.0µs", "2.50x", "+21.2%"],
            ],
        );
        for s in [0.0, 0.6, 5.0] {
            base.spread = spread(s).into();
            let regs = compare(&base, &slow, 15.0, false).unwrap();
            assert_eq!(regs.len(), 2, "spread {s}: {regs:?}");
        }
    }

    #[test]
    fn overhead_compared_as_factor() {
        let base = table("t", &[&["a", "10.0µs", "3.00x", "+1.0%"]]);
        let worse = table("t", &[&["a", "10.0µs", "3.00x", "+25.0%"]]);
        let regs = compare(&base, &worse, 15.0, false).unwrap();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("overhead"), "{regs:?}");
    }

    #[test]
    fn absolute_times_only_with_flag() {
        let base = table("t", &[&["a", "10.0µs", "3.00x", "+1.0%"]]);
        let slow = table("t", &[&["a", "20.0µs", "3.00x", "+1.0%"]]);
        assert!(compare(&base, &slow, 15.0, false).unwrap().is_empty());
        assert_eq!(compare(&base, &slow, 15.0, true).unwrap().len(), 1);
    }

    #[test]
    fn median_averages_the_middle_pair_for_even_length() {
        // Old code returned the upper middle element (2.0 here), biasing
        // even-length columns pessimistically.
        assert_eq!(median(vec![1.0, 2.0]).unwrap(), 1.5);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
        assert_eq!(median(vec![3.0, 1.0, 2.0]).unwrap(), 2.0);
    }

    #[test]
    fn median_rejects_nan_instead_of_panicking() {
        let err = median(vec![1.0, f64::NAN, 2.0]).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
        assert!(median(Vec::new()).is_err());
    }

    #[test]
    fn nan_cell_is_a_comparison_error_not_a_panic() {
        // A fresh overhead cell of NaN yields a NaN change factor; the old
        // code panicked inside median's sort comparator.
        let base = table("t", &[&["a", "10.0µs", "3.00x", "+1.0%"]]);
        let bad = table("t", &[&["a", "10.0µs", "3.00x", "+NaN%"]]);
        let err = compare(&base, &bad, 15.0, false).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn short_row_is_an_error_not_a_panic() {
        // A fresh row missing trailing cells made the old code index out
        // of bounds; rows longer than the header list were silently
        // truncated. Both are now hard errors.
        let base = table("t", &[&["a", "10.0µs", "3.00x", "+1.0%"]]);
        let mut short = table("t", &[&["a", "10.0µs", "3.00x", "+1.0%"]]);
        short.rows[0].pop();
        let err = compare(&base, &short, 15.0, false).unwrap_err();
        assert!(err.contains("cells but"), "{err}");
        let mut long = table("t", &[&["a", "10.0µs", "3.00x", "+1.0%"]]);
        long.rows[0].push("extra".into());
        assert!(compare(&base, &long, 15.0, false).is_err());
    }

    #[test]
    fn row_count_change_is_a_hard_error() {
        // rows.iter().zip(&fresh.rows) would silently drop the unmatched
        // tail without the explicit length check.
        let base = table(
            "t",
            &[
                &["a", "10.0µs", "3.00x", "+1.0%"],
                &["b", "10.0µs", "3.00x", "+1.0%"],
            ],
        );
        let dropped = table("t", &[&["a", "10.0µs", "3.00x", "+1.0%"]]);
        let err = compare(&base, &dropped, 15.0, false).unwrap_err();
        assert!(err.contains("row count changed"), "{err}");
    }

    #[test]
    fn shape_mismatch_demands_regeneration() {
        let base = table("t", &[&["a", "10.0µs", "3.00x", "+1.0%"]]);
        let mut renamed = table("t", &[&["b", "10.0µs", "3.00x", "+1.0%"]]);
        assert!(compare(&base, &renamed, 15.0, false).is_err());
        renamed.rows.clear();
        assert!(compare(&base, &renamed, 15.0, false).is_err());
    }
}
