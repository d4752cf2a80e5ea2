//! `e2e` — the FNC-2 reproduction's end-to-end benchmark.
//!
//! Four seeded, closed-loop workloads cover the generated mini-Pascal
//! compiler (`pascal-compile`), the incremental evaluator driven like an
//! editor (`pascal-edit`), the parallel batch evaluator (`batch-decorate`)
//! and the evaluator generator itself (`grammar-build`). Every op's
//! output is checked against an independent oracle.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
//! ```
//!
//! With `--workload`, the run happens in this process and the last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! first ops with spans around every layer call, reports per-layer
//! metrics and writes the spans to `target/e2e-trace/<workload>.json`
//! (Chrome trace format). `--seconds` sets the run length: each workload
//! runs a fixed number of ops per second of it. Without `--workload`,
//! every workload runs in a child process of its own (so peak memory is
//! per workload) and `--json FILE` collects their results. See
//! `README.md` next to this file for the metrics and workloads.

mod gen;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use fnc2::obs::{validate_chrome_trace, Json};

use workloads::{Cfg, Outcome, WORKLOADS};

const USAGE: &str =
    "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json FILE]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    json: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: 10,
        trace: false,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                out.workload = Some(w);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--json" => out.json = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

/// The result line: the contract's JSON object.
fn result_json(o: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(o.failed == 0 && o.attempted > 0)),
        ("attempted", Json::Int(o.attempted as i64)),
        ("failed", Json::Int(o.failed as i64)),
        (
            "metrics",
            Json::obj(o.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Float(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
}

/// Human-readable `workload metric value unit` lines; traced times also
/// show their share of the op.
fn print_lines(workload: &str, result: &Json) {
    let get = |k| result.get(k).and_then(Json::as_int).unwrap_or(0);
    println!(
        "{workload} ops {} attempted, {} failed",
        get("attempted"),
        get("failed")
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return;
    };
    let value = |m: &Json| metric_value(m).unwrap_or(f64::NAN);
    let op_ms = metrics
        .iter()
        .find(|(n, _)| n == "op_ms")
        .map(|(_, m)| value(m));
    for (name, m) in metrics {
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let share = match op_ms {
            Some(op) if unit == "ms" && name != "op_ms" && op > 0.0 => {
                format!("  ({:.1}% of op)", 100.0 * value(m) / op)
            }
            _ => String::new(),
        };
        println!("{workload} {name} {:.6} {unit}{share}", value(m));
    }
}

/// Runs one workload in this process.
fn run_one(args: &Args, workload: &str) -> ExitCode {
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        ops: None,
    };
    let outcome = match workloads::run(workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(doc) = &outcome.chrome_trace {
        if let Err(e) = validate_chrome_trace(doc) {
            eprintln!("e2e: {workload}: invalid Chrome trace: {e}");
            return ExitCode::FAILURE;
        }
        let dir = Path::new("target").join("e2e-trace");
        let path = dir.join(format!("{workload}.json"));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_string()))
        {
            eprintln!("e2e: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("e2e: {workload}: Chrome trace in {}", path.display());
    }
    let result = result_json(&outcome);
    print_lines(workload, &result);
    println!("{result}");
    ExitCode::SUCCESS
}

/// One run of `workload` in a child process; its result line, or
/// `None` when it failed.
fn run_child(exe: &Path, args: &Args, workload: &str) -> Option<Json> {
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.lines().last().and_then(|l| Json::parse(l).ok())
}

fn metric_value(m: &Json) -> Option<f64> {
    match m.get("value")? {
        Json::Float(v) => Some(*v),
        Json::Int(v) => Some(*v as f64),
        _ => None,
    }
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        match run_child(&exe, args, w) {
            Some(result) => {
                ok &= result.get("correct") == Some(&Json::Bool(true));
                print_lines(w, &result);
                all.push((w, result));
            }
            None => {
                eprintln!("e2e: workload {w} failed");
                ok = false;
            }
        }
    }
    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("seed", Json::Int(args.seed as i64)),
            ("seconds", Json::Int(args.seconds as i64)),
            ("trace", Json::Bool(args.trace)),
            ("workloads", Json::obj(all)),
        ]);
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("e2e: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.clone() {
        Some(w) => run_one(&args, &w),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload pascal-edit --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("pascal-edit"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--runs 3")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// The repository's `BENCHMARK.json`, found by walking up from this
    /// package.
    fn benchmark_json() -> Json {
        let mut dir = Some(Path::new(env!("CARGO_MANIFEST_DIR")));
        while let Some(d) = dir {
            if let Ok(text) = std::fs::read_to_string(d.join("BENCHMARK.json")) {
                return Json::parse(&text).expect("BENCHMARK.json parses");
            }
            dir = d.parent();
        }
        panic!("no BENCHMARK.json above {}", env!("CARGO_MANIFEST_DIR"));
    }

    /// `(name, unit)` of every entry of `BENCHMARK.json`'s list `key`.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &Json, f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("list present")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_end_to_end_metrics() {
        let doc = benchmark_json();
        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = workloads::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
    }

    /// Every workload, twenty ops (two passes of ten), verified and traced: no op fails,
    /// every Chrome trace validates, and the per-layer metrics are exactly
    /// those `BENCHMARK.json` lists.
    #[test]
    fn every_workload_runs_verified_and_traced() {
        let per_layer = listed(&benchmark_json(), "per_layer");
        for w in WORKLOADS {
            let cfg = Cfg {
                seed: 1,
                seconds: 0,
                trace: true,
                ops: Some(10),
            };
            let o = workloads::run(w, &cfg).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(o.attempted >= 20, "{w}: {} ops", o.attempted);
            assert_eq!(o.failed, 0, "{w}: error_rate > 0");
            let doc = o.chrome_trace.expect("traced run");
            validate_chrome_trace(&doc).unwrap_or_else(|e| panic!("{w}: {e}"));
            let events = doc.get("traceEvents").and_then(Json::as_arr);
            assert!(events.is_some_and(|e| !e.is_empty()), "{w}: empty trace");
            let reported: Vec<(String, String)> = o
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(reported, per_layer, "{w}");
        }
    }
}
