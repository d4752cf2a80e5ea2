//! End-to-end tests of the `fnc2c` command-line driver.

use std::io::Write as _;
use std::process::{Command, Stdio};

const COUNT: &str = r#"
attribute grammar count;
  phylum S;
  operator leaf : S ::= ;
  operator node : S ::= S;
  synthesized n : int of S;
  for leaf { S.n := 0; }
  for node { S$1.n := S$2.n + 1; }
end
"#;

fn fnc2c() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fnc2c"))
}

#[test]
fn report_prints_class_and_sizes() {
    let mut child = fnc2c()
        .args(["report", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(COUNT.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("class OAG(0)"), "{text}");
    assert!(text.contains("2 operators"), "{text}");
}

#[test]
fn seqs_prints_visit_sequences() {
    let mut child = fnc2c()
        .args(["seqs", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(COUNT.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("BEGIN 1"), "{text}");
    assert!(text.contains("VISIT 1,1"), "{text}");
    assert!(text.contains("EVAL  S$1.n"), "{text}");
}

#[test]
fn c_emits_a_translation_unit() {
    let mut child = fnc2c()
        .args(["c", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(COUNT.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("evaluate_root"), "truncated: {text}");
    assert!(text.contains("#include <stdio.h>"));
}

#[test]
fn circular_grammar_fails_with_trace() {
    let mut child = fnc2c()
        .args(["report", "-"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            br#"
attribute grammar bad;
  phylum S, A;
  operator mk : S ::= A;
  operator leaf : A ::= ;
  synthesized out : int of S;
  inherited i : int of A;
  synthesized s : int of A;
  for mk { S.out := A.s; A.i := A.s; }
  for leaf { A.s := A.i; }
end
"#,
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not SNC"), "{err}");
    assert!(err.contains("circular dependency"), "{err}");
}

#[test]
fn usage_on_bad_arguments() {
    // Bad usage is an ordinary diagnostic (exit 1); exit 2 is reserved
    // for budget exhaustion and injected faults.
    let out = fnc2c().output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn budget_exhaustion_maps_to_exit_2() {
    let mut child = fnc2c()
        .args(["--max-steps", "0", "report", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(COUNT.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget exceeded"), "{err}");
}

/// A rule whose result is `[1]` doubled 40 times with `++`: 40 shared
/// nodes in memory, 2^40 + 1 cells to the meter, so the smoke evaluation
/// trips the default value-cell budget.
#[test]
fn huge_list_trips_the_default_budget() {
    let src = r#"
attribute grammar doubling;
  phylum S;
  operator leaf : S ::= ;
  synthesized k : int of S;
  synthesized out : list of int of S;
  function dbl(l : list of int, n : int) : list of int =
    if n = 0 then l else dbl(l ++ l, n - 1) end;
  for leaf { S.k := 40; S.out := dbl([1], S.k); }
end
"#;
    let out = run_with_stdin(&["report", "-"], src);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget exceeded (value-cells)"), "{err}");
}

fn run_with_stdin(args: &[&str], input: &str) -> std::process::Output {
    let mut child = fnc2c()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Best-effort: a child that rejects its flags exits without reading
    // stdin, and that EPIPE is part of the scenario, not a test failure.
    let _ = child.stdin.take().unwrap().write_all(input.as_bytes());
    child.wait_with_output().unwrap()
}

/// The Chrome trace is written even when the run fails: a budget trip in
/// the smoke evaluation exits 2 and still leaves a valid timeline holding
/// the whole cascade, the root visit and the trip itself.
#[test]
fn chrome_trace_is_written_when_the_run_fails() {
    use fnc2::obs::{validate_chrome_trace, Json};

    let path = std::env::temp_dir().join(format!("fnc2-cli-trace-{}.json", std::process::id()));
    let trace = path.to_str().unwrap();
    let out = run_with_stdin(
        &["report", "--max-steps", "0", "--chrome-trace", trace, "-"],
        COUNT,
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    validate_chrome_trace(&doc).unwrap();
    let events: Vec<(&str, &str, &str)> = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|e| {
            let field = |k| e.get(k).and_then(Json::as_str);
            Some((field("ph")?, field("cat")?, field("name")?))
        })
        .collect();
    let phases: Vec<&str> = events
        .iter()
        .filter(|(ph, cat, _)| *ph == "B" && *cat == "phase")
        .map(|(_, _, name)| *name)
        .collect();
    assert_eq!(
        phases,
        [
            "olga.parse",
            "olga.check",
            "olga.lower",
            "analysis",
            "analysis.snc",
            "analysis.dnc",
            "analysis.oag",
            "analysis.transform",
            "lint",
            "visit.sequences",
            "space.analysis",
        ]
    );
    assert!(events.contains(&("B", "visit", "exhaustive visit 1/1 (root)")));
    assert!(
        events.iter().any(|(ph, cat, name)| *ph == "i"
            && *cat == "guard"
            && name.starts_with("budget trip")),
        "{events:?}"
    );
}

#[test]
fn conflicting_flags_are_diagnostics() {
    // Every inconsistent flag combination is an ordinary diagnostic
    // (exit 1) with an explanation — not a silent pick-one, not a panic.
    let cases: &[&[&str]] = &[
        // --tables and --cache-dir are mutually exclusive.
        &["report", "--tables", "x.tbl", "--cache-dir", "d", "-"],
        // compile without a destination.
        &["compile", "-"],
        // --emit-tables only makes sense for compile.
        &["report", "--emit-tables", "x.tbl", "-"],
        // compile consumes no tables.
        &[
            "compile",
            "--emit-tables",
            "x.tbl",
            "--tables",
            "y.tbl",
            "-",
        ],
        &["compile", "--emit-tables", "x.tbl", "--cache-dir", "d", "-"],
        // check never builds evaluation tables.
        &["check", "--tables", "x.tbl", "-"],
        &["check", "--cache-dir", "d", "-"],
        // value-taking flags with no value.
        &["report", "--tables"],
        &["report", "--cache-dir"],
        // flags the command never reads.
        &["check", "--max-steps", "5", "-"],
        &["c", "--report", "json", "-"],
        &["seqs", "--max-steps", "5", "-"],
        &["compile", "--emit-tables", "x.tbl", "--metrics", "-"],
        &["check", "--no-shrink", "-"],
        // numbers out of their target type's range.
        &["batch", "--retries", "4294967297"],
        &["profile", "--sample-every", "4294967296", "-"],
    ];
    for args in cases {
        let out = run_with_stdin(args, COUNT);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("fnc2c:"), "{args:?}: {err}");
    }
}

/// Every command that reads one attribute grammar rejects a source
/// holding two, `check` included.
#[test]
fn two_attribute_grammars_are_rejected() {
    let two = format!("{COUNT}{}", COUNT.replace("grammar count", "grammar again"));
    for cmd in ["check", "report", "c", "lisp", "seqs", "lint"] {
        let out = run_with_stdin(&[cmd, "-"], &two);
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            text.contains("source contains more than one attribute grammar"),
            "{cmd}: {text}"
        );
    }
}

/// The `eval.intern_*` and `eval.memo_hits` lines of a `--metrics` block
/// whose count is not zero.
fn interning_counters(metrics: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(metrics)
        .lines()
        .filter(|l| l.starts_with("eval.intern_") || l.starts_with("eval.memo_hits"))
        .filter(|l| l.split_whitespace().nth(1) != Some("0"))
        .map(str::to_string)
        .collect()
}

#[test]
fn no_product_entry_point_interns() {
    let src = fnc2_corpus::MINIPASCAL_OLGA;
    let pipeline = fnc2::Pipeline::new();
    let compiled = pipeline.compile_olga(src).unwrap();
    assert!(!compiled.intern);
    let bytes = fnc2::artifact::emit_tables(&compiled, &pipeline, src);
    let loaded = fnc2::artifact::load_tables(&bytes, src, &pipeline).unwrap();
    assert!(!loaded.intern);

    // `report` prints its metrics on stdout, `batch` on stderr.
    let report = run_with_stdin(&["report", "--metrics", "-"], src);
    assert!(report.status.success());
    assert!(String::from_utf8_lossy(&report.stdout).contains("eval.evals"));
    assert_eq!(interning_counters(&report.stdout), Vec::<String>::new());
    let batch = fnc2c()
        .args(["batch", "--seed", "0", "--grammars", "2", "--trees", "16"])
        .arg("--metrics")
        .output()
        .unwrap();
    assert!(batch.status.success());
    assert!(String::from_utf8_lossy(&batch.stderr).contains("eval.evals"));
    assert_eq!(interning_counters(&batch.stderr), Vec::<String>::new());
}

/// Strips the one line that legitimately differs between a full compile
/// and an artifact load: the generator wall-clock.
fn stable_lines(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| !l.contains("generator time"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn report_via_tables_matches_uncached_report() {
    let tbl = std::env::temp_dir().join(format!("fnc2-cli-tables-{}.tbl", std::process::id()));
    let out = run_with_stdin(
        &["compile", "--emit-tables", tbl.to_str().unwrap(), "-"],
        COUNT,
    );
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("wrote compiled tables"), "{text}");
    assert!(text.contains("fingerprint"), "{text}");

    let via_tables = run_with_stdin(&["report", "--tables", tbl.to_str().unwrap(), "-"], COUNT);
    let plain = run_with_stdin(&["report", "-"], COUNT);
    assert_eq!(via_tables.status.code(), Some(0));
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(
        stable_lines(&via_tables.stdout),
        stable_lines(&plain.stdout)
    );
    let _ = std::fs::remove_file(&tbl);
}

#[test]
fn corrupt_tables_artifact_falls_back_with_warning() {
    let tbl = std::env::temp_dir().join(format!("fnc2-cli-corrupt-{}.tbl", std::process::id()));
    std::fs::write(&tbl, b"not an artifact at all").unwrap();
    let out = run_with_stdin(&["report", "--tables", tbl.to_str().unwrap(), "-"], COUNT);
    // Fallback to recompilation: the run still succeeds...
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("class OAG(0)"), "{text}");
    // ...but the rejection is reported.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ignoring tables artifact"), "{err}");
    let _ = std::fs::remove_file(&tbl);
}

#[test]
fn stale_tables_artifact_falls_back_with_warning() {
    let tbl = std::env::temp_dir().join(format!("fnc2-cli-stale-{}.tbl", std::process::id()));
    let out = run_with_stdin(
        &["compile", "--emit-tables", tbl.to_str().unwrap(), "-"],
        COUNT,
    );
    assert_eq!(out.status.code(), Some(0));
    // Same artifact, edited source: fingerprint mismatch, clean fallback.
    let edited = COUNT.replace("+ 1", "+ 2");
    let out = run_with_stdin(&["report", "--tables", tbl.to_str().unwrap(), "-"], &edited);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ignoring tables artifact"), "{err}");
    let _ = std::fs::remove_file(&tbl);
}

/// The per-index classification lines a checkpointed batch prints on
/// stdout: `batch: grammar G tree T: <class> (digest ...)`.
fn classification_lines(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| l.starts_with("batch: grammar") && l.contains(" tree "))
        .map(str::to_string)
        .collect()
}

/// One batch can mix all four outcome classes; the per-index
/// classification is deterministic across runs and the process exits
/// with the budget/fault code — the batch is degraded, never aborted.
#[test]
fn batch_mixed_outcomes_are_classified_deterministically() {
    let dir = std::env::temp_dir().join(format!("fnc2-cli-mixed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let batch_args = |ckpt: &str| {
        vec![
            "batch".to_string(),
            "--seed".into(),
            "2".into(),
            "--grammars".into(),
            "4".into(),
            "--trees".into(),
            "8".into(),
            "--threads".into(),
            "2".into(),
            "--fault-seed".into(),
            "8".into(),
            "--max-steps".into(),
            "3000".into(),
            "--checkpoint".into(),
            dir.join(ckpt).to_str().unwrap().to_string(),
        ]
    };
    let a = fnc2c().args(batch_args("a.ckpt")).output().unwrap();
    let b = fnc2c().args(batch_args("b.ckpt")).output().unwrap();
    // Lost trees map to the budget/fault exit code, not a panic abort.
    assert_eq!(a.status.code(), Some(2), "{a:?}");
    assert_eq!(b.status.code(), Some(2));

    let lines = classification_lines(&a.stdout);
    for class in ["failed", "panicked", "budget-exceeded"] {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("{class} (digest"))),
            "expected a {class} tree in {lines:?}"
        );
    }
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains(" ok, "), "some trees must survive: {text}");
    // Same seed, same faults, fresh journal: bit-identical classification.
    assert_eq!(lines, classification_lines(&b.stdout));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming a completed journal re-evaluates nothing and reproduces the
/// per-index classification (and digests) bit-identically.
#[test]
fn batch_resume_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("fnc2-cli-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("j.ckpt");
    let args = |resume: bool| {
        let mut v = vec![
            "batch".to_string(),
            "--seed".into(),
            "2".into(),
            "--grammars".into(),
            "2".into(),
            "--trees".into(),
            "8".into(),
            "--threads".into(),
            "2".into(),
            "--fault-seed".into(),
            "8".into(),
            "--max-steps".into(),
            "3000".into(),
            "--checkpoint".into(),
            ckpt.to_str().unwrap().to_string(),
        ];
        if resume {
            v.push("--resume".into());
        }
        v
    };
    let full = fnc2c().args(args(false)).output().unwrap();
    let resumed = fnc2c().args(args(true)).output().unwrap();
    assert_eq!(full.status.code(), resumed.status.code());
    assert_eq!(
        classification_lines(&full.stdout),
        classification_lines(&resumed.stdout)
    );
    let text = String::from_utf8_lossy(&resumed.stdout);
    assert!(text.contains("resumed 16 record(s)"), "{text}");
    assert!(text.contains("8 resumed"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_checkpoint_flag_conflicts_are_diagnostics() {
    let out = fnc2c().args(["batch", "--resume"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resume requires --checkpoint"));

    // Only the checkpointed driver backs off between retries.
    let out = fnc2c()
        .args(["batch", "--backoff-ms", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--backoff-ms requires --checkpoint"));

    let out = fnc2c()
        .args(["batch", "--checkpoint", "x.ckpt", "--repeat", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint conflicts with --repeat"));
}

/// Resuming against a different batch configuration is a crisp
/// fingerprint diagnostic, not a silent skip of the wrong trees.
#[test]
fn batch_resume_config_mismatch_is_a_diagnostic() {
    let dir = std::env::temp_dir().join(format!("fnc2-cli-mismatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("j.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let out = fnc2c()
        .args([
            "batch",
            "--seed",
            "1",
            "--grammars",
            "1",
            "--trees",
            "4",
            "--checkpoint",
            ckpt,
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = fnc2c()
        .args([
            "batch",
            "--seed",
            "9",
            "--grammars",
            "1",
            "--trees",
            "4",
            "--checkpoint",
            ckpt,
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("fingerprint"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: every write-path storage fault is a classified
/// exit-2 error — never an unwrap panic (exit 101). The fault here is
/// real, not injected: the destination parent is a regular file, so
/// every create under it fails with ENOTDIR.
#[test]
fn storage_faults_exit_classified_never_panic() {
    let dir = std::env::temp_dir().join(format!("fnc2-cli-enotdir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"a regular file, not a directory").unwrap();
    let under = |name: &str| blocker.join(name).to_str().unwrap().to_string();

    // compile --emit-tables into a path under a regular file.
    let out = run_with_stdin(&["compile", "--emit-tables", &under("x.tbl"), "-"], COUNT);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("storage fault"),
        "{out:?}"
    );

    // --chrome-trace into a path under a regular file.
    let out = run_with_stdin(&["report", "--chrome-trace", &under("t.json"), "-"], COUNT);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("storage fault"),
        "{out:?}"
    );

    // batch --checkpoint into a path under a regular file.
    let out = fnc2c()
        .args([
            "batch",
            "--grammars",
            "1",
            "--trees",
            "2",
            "--checkpoint",
            &under("j.ckpt"),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("storage fault"),
        "{out:?}"
    );

    // cache-gc over a "directory" that is a file.
    let out = fnc2c()
        .args(["cache-gc", blocker.join("cache").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("storage fault"),
        "{out:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cache-gc` sweeps crashed writers' temp files and deletes quarantined
/// artifacts, leaving a clean cache directory.
#[test]
fn cache_gc_sweeps_temps_and_quarantine() {
    let dir = std::env::temp_dir().join(format!("fnc2-cli-gc-{}", std::process::id()));
    let qdir = dir.join("quarantine");
    std::fs::create_dir_all(&qdir).unwrap();
    std::fs::write(dir.join("fnc2-0000000000000001.tbl.tmp-999-0"), b"torn").unwrap();
    std::fs::write(qdir.join("fnc2-0000000000000002.corrupt.tbl"), b"bad").unwrap();
    std::fs::write(dir.join("fnc2-0000000000000003.tbl"), b"keep me").unwrap();

    let out = fnc2c()
        .args(["cache-gc", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("removed 1 orphaned temp file(s), 1 quarantined artifact(s)"),
        "{text}"
    );
    // The live artifact survives; the junk is gone.
    assert!(dir.join("fnc2-0000000000000003.tbl").exists());
    assert!(!dir.join("fnc2-0000000000000001.tbl.tmp-999-0").exists());
    assert!(!qdir.join("fnc2-0000000000000002.corrupt.tbl").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A grammar with findings but no errors: `scratch` is computed and
/// never read, so `lint` reports warnings and the exit code answers to
/// `--deny warnings`.
const SLOPPY: &str = r#"
attribute grammar sloppy;
  phylum S, T;
  operator top  : S ::= T;
  operator leaf : T ::= ;
  synthesized n : int of S;
  synthesized v : int of T;
  synthesized scratch : int of T;
  for top  { S.n := T.v; }
  for leaf { T.v := 1;  T.scratch := 2; }
end
"#;

#[test]
fn lint_exit_codes_follow_the_contract() {
    // Clean grammar: exit 0, summary says so.
    let out = run_with_stdin(&["lint", "-"], COUNT);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lint: 0 error(s), 0 warning(s)"), "{text}");

    // Warnings alone keep exit 0 — unless the caller denies them.
    let out = run_with_stdin(&["lint", "-"], SLOPPY);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("warning[L001]"), "{text}");
    let out = run_with_stdin(&["lint", "--deny", "warnings", "-"], SLOPPY);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // A front-end rejection is a diagnostic (exit 1), not a crash.
    let out = run_with_stdin(
        &["lint", "-"],
        "attribute grammar broken;\n  phylum ;\nend\n",
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error[L102]"), "{text}");
}

#[test]
fn lint_json_report_is_byte_stable() {
    let a = run_with_stdin(&["lint", "--report", "json", "-"], SLOPPY);
    let b = run_with_stdin(&["lint", "--report", "json", "-"], SLOPPY);
    assert_eq!(a.status.code(), Some(0));
    assert_eq!(a.stdout, b.stdout, "lint --report json must be byte-stable");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("\"code\":\"L001\""), "{text}");
}

#[test]
fn lint_via_cache_replays_the_same_report() {
    let dir = std::env::temp_dir().join(format!("fnc2-lint-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().unwrap();

    // Miss (full compile), then hit (artifact replay): identical bytes.
    let miss = run_with_stdin(&["lint", "--cache-dir", cache, "-"], SLOPPY);
    let hit = run_with_stdin(&["lint", "--cache-dir", cache, "-"], SLOPPY);
    assert_eq!(miss.status.code(), Some(0), "{miss:?}");
    assert_eq!(hit.status.code(), Some(0), "{hit:?}");
    assert_eq!(
        miss.stdout, hit.stdout,
        "cached lint must replay identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
