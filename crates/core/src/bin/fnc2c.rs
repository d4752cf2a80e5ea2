//! `fnc2c` — the command-line front door of the reproduction.
//!
//! ```text
//! fnc2c report  <file.olga>       # class, sizes, partitions, storage plan
//! fnc2c check   <file.olga>       # front-end + well-definedness only
//! fnc2c lint    <file.olga>       # grammar-level static analyses (L001..L102)
//! fnc2c c       <file.olga>       # translate the AG to C on stdout
//! fnc2c seqs    <file.olga>       # print the visit sequences
//! fnc2c compile --emit-tables FILE <file.olga>
//!                                 # persist the compiled tables artifact
//! fnc2c profile <file.olga>       # ranked per-(production, rule) cost profile
//! fnc2c explain <attr@node> <file.olga>
//!                                 # dynamic dependency slice of one instance
//! fnc2c fuzz                      # differential fuzzing oracle (no input file)
//! fnc2c batch                     # parallel batch evaluation over synthetic AGs
//! fnc2c cache-gc <dir>            # sweep orphaned temps + quarantined artifacts
//! ```
//!
//! Flags may come before or after the command. Every flag is declared
//! once in `FLAGS`, together with the commands that read it (the same
//! lists `usage()` prints). A flag given to any other command is an
//! exit-1 diagnostic, never silently ignored:
//!
//! ```text
//! $ fnc2c check --max-steps 5 grammar.olga
//! fnc2c: `--max-steps` does not apply to `check`
//! ```
//!
//! Instrumentation flags:
//!
//! ```text
//! --report json|text   report format (json bundles phases+counters+trace)
//! --metrics            print phase times and counters (stderr for c/seqs)
//! --trace[=N]          capture an event trace (ring of N entries, default 4096)
//! --chrome-trace FILE  write a Chrome trace-event JSON (open in Perfetto)
//! ```
//!
//! Tables flags (mutually exclusive):
//!
//! ```text
//! --tables FILE        load the compiled tables artifact FILE instead of
//!                      re-running the generator cascade; a stale or
//!                      corrupt artifact falls back to full recompilation
//! --cache-dir DIR      consult (and populate) an on-disk artifact cache
//!                      keyed by the source + configuration fingerprint
//! ```
//!
//! Budget flags (report, profile, batch):
//!
//! ```text
//! --max-steps N        rule-evaluation step budget
//! --max-depth N        visit/demand nesting depth budget
//! --max-value-bytes N  aggregate produced-value size budget
//! --deadline-ms N      wall-clock deadline
//! ```
//!
//! Exit codes, uniform across every subcommand:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | diagnostics: bad usage, front-end/class errors, fuzz findings |
//! | 2    | a budget was exceeded, an injected fault surfaced, a storage fault was classified, or writing standard output failed |
//! | 101  | never — panics and I/O errors are caught and classified, not propagated; a failed write to standard error is dropped and the code stands |
//!
//! With flags but no command, `report` is assumed, so
//! `fnc2c --report json grammar.olga` emits the single-document JSON
//! report. The input is an OLGA text: any number of modules followed by
//! one attribute grammar (`-` reads standard input).

use std::io::{Read as _, Write as _};
use std::num::ParseIntError;
use std::process::ExitCode;

use fnc2::guard::{Deadline, EvalBudget};
use fnc2::obs::Obs;
use fnc2::vfs::Vfs as _;
use fnc2::{Compiled, GrammarResolver, Pipeline, PipelineError, SmokeOutcome};
use Cmd::*;

/// Exit code for ordinary diagnostics (usage, front-end, class errors).
const EXIT_DIAGNOSTICS: u8 = 1;
/// Exit code for budget exhaustion and injected/classified faults.
const EXIT_BUDGET: u8 = 2;

/// Event-ring capacity of a bare `--trace`.
const DEFAULT_TRACE_CAPACITY: usize = 4096;
/// Event-ring capacity of `explain`, which always traces: a wrapped ring
/// truncates the slice, so it defaults to far more than a smoke tree fires.
const EXPLAIN_TRACE_CAPACITY: usize = 1 << 20;

/// A subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cmd {
    Report,
    Check,
    C,
    Seqs,
    Compile,
    Lint,
    Profile,
    Explain,
    Fuzz,
    Batch,
    CacheGc,
}

impl Cmd {
    const ALL: [Cmd; 11] = [
        Report, Check, C, Seqs, Compile, Lint, Profile, Explain, Fuzz, Batch, CacheGc,
    ];

    fn name(self) -> &'static str {
        match self {
            Report => "report",
            Check => "check",
            C => "c",
            Seqs => "seqs",
            Compile => "compile",
            Lint => "lint",
            Profile => "profile",
            Explain => "explain",
            Fuzz => "fuzz",
            Batch => "batch",
            CacheGc => "cache-gc",
        }
    }

    /// Number of positional arguments after the command: an OLGA path,
    /// a target plus a path for `explain`, a directory for `cache-gc`.
    fn arity(self) -> usize {
        match self {
            Fuzz | Batch => 0,
            Explain => 2,
            _ => 1,
        }
    }
}

/// Every flag's value. Fields whose default differs by command are
/// `Option`s, resolved where the command reads them.
#[derive(Debug, Default)]
struct Opts {
    metrics: bool,
    /// `--trace[=N]`: `Some(None)` for a bare `--trace`, whose ring
    /// capacity is the command's default.
    trace: Option<Option<usize>>,
    report_json: bool,
    chrome_trace: Option<String>,
    /// `--tables FILE`: load the compiled tables artifact instead of
    /// running the cascade (falls back to recompilation when rejected).
    tables: Option<String>,
    /// `--cache-dir DIR`: consult/populate an on-disk artifact cache.
    cache_dir: Option<String>,
    /// `--emit-tables FILE` (compile command only): artifact destination.
    emit_tables: Option<String>,
    budget: EvalBudget,
    /// `--deny warnings` (lint).
    deny_warnings: bool,
    /// Evaluations per profile (default 64) or passes per batch (default 1).
    repeat: Option<usize>,
    sample_every: Option<u32>,
    top: Option<usize>,
    /// The fuzz configuration. Its `seed` also seeds `batch`, whose
    /// grammars and trees come from the fuzz generator.
    fuzz: fnc2::fuzz::FuzzConfig,
    grammars: Option<u64>,
    trees: Option<usize>,
    threads: Option<usize>,
    retries: u32,
    fault_seed: Option<u64>,
    checkpoint: Option<String>,
    resume: bool,
    backoff_ms: Option<u64>,
}

/// How a flag takes its value.
enum Kind {
    /// `--flag`.
    Switch(fn(&mut Opts)),
    /// `--flag` or `--flag=N` with a positive `N`.
    Count(fn(&mut Opts, Option<usize>)),
    /// `--flag N`, parsed straight into the target field's type so an
    /// out-of-range value is rejected rather than truncated.
    Int(fn(&mut Opts, &str) -> Result<(), ParseIntError>),
    /// `--flag PATH`; the text names what kind of path it is.
    Path(&'static str, fn(&mut Opts, String)),
    /// `--flag WORD`, one of the listed words.
    Word(&'static [&'static str], fn(&mut Opts, &str)),
}

/// One command-line flag and the commands that accept it.
struct Flag {
    name: &'static str,
    kind: Kind,
    cmds: &'static [Cmd],
}

/// Commands that accept the budget flags.
const BUDGET: &[Cmd] = &[Report, Profile, Batch];
/// Commands that accept `--tables` and `--cache-dir`.
const TABLES: &[Cmd] = &[Report, C, Seqs, Lint, Profile, Explain];

const FLAGS: &[Flag] = &[
    Flag {
        name: "--metrics",
        kind: Kind::Switch(|o| o.metrics = true),
        cmds: &[Report, C, Seqs, Batch],
    },
    Flag {
        name: "--trace",
        kind: Kind::Count(|o, n| o.trace = Some(n)),
        cmds: &[Report, C, Seqs, Explain],
    },
    Flag {
        name: "--report",
        kind: Kind::Word(&["json", "text"], |o, w| o.report_json = w == "json"),
        cmds: &[Report, Lint, Profile, Explain],
    },
    Flag {
        name: "--chrome-trace",
        kind: Kind::Path("file", |o, p| o.chrome_trace = Some(p)),
        cmds: &[Report, Check, C, Seqs, Compile, Batch],
    },
    Flag {
        name: "--tables",
        kind: Kind::Path("file", |o, p| o.tables = Some(p)),
        cmds: TABLES,
    },
    Flag {
        name: "--cache-dir",
        kind: Kind::Path("directory", |o, p| o.cache_dir = Some(p)),
        cmds: TABLES,
    },
    Flag {
        name: "--emit-tables",
        kind: Kind::Path("file", |o, p| o.emit_tables = Some(p)),
        cmds: &[Compile],
    },
    Flag {
        name: "--max-steps",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.budget.max_steps = n)),
        cmds: BUDGET,
    },
    Flag {
        name: "--max-depth",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.budget.max_depth = n)),
        cmds: BUDGET,
    },
    Flag {
        name: "--max-value-bytes",
        kind: Kind::Int(|o, v| {
            v.parse().map(|n: u64| {
                let cell = std::mem::size_of::<fnc2::ag::Value>() as u64;
                o.budget.max_value_cells = (n / cell).max(1);
            })
        }),
        cmds: BUDGET,
    },
    Flag {
        name: "--deadline-ms",
        kind: Kind::Int(|o, v| {
            v.parse()
                .map(|n| o.budget.deadline = Some(Deadline::after_ms(n)))
        }),
        cmds: BUDGET,
    },
    Flag {
        name: "--deny",
        kind: Kind::Word(&["warnings"], |o, _| o.deny_warnings = true),
        cmds: &[Lint],
    },
    Flag {
        name: "--repeat",
        kind: Kind::Int(|o, v| v.parse().map(|n: usize| o.repeat = Some(n.max(1)))),
        cmds: &[Profile, Batch],
    },
    Flag {
        name: "--sample-every",
        kind: Kind::Int(|o, v| v.parse().map(|n: u32| o.sample_every = Some(n.max(1)))),
        cmds: &[Profile],
    },
    Flag {
        name: "--top",
        kind: Kind::Int(|o, v| v.parse().map(|n: usize| o.top = Some(n.max(1)))),
        cmds: &[Profile],
    },
    Flag {
        name: "--seed",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.fuzz.seed = n)),
        cmds: &[Fuzz, Batch],
    },
    Flag {
        name: "--cases",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.fuzz.grammar_cases = n)),
        cmds: &[Fuzz],
    },
    Flag {
        name: "--front",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.fuzz.front_cases = n)),
        cmds: &[Fuzz],
    },
    Flag {
        name: "--fault",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.fuzz.fault_cases = n)),
        cmds: &[Fuzz],
    },
    Flag {
        name: "--crash",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.fuzz.crash_cases = n)),
        cmds: &[Fuzz],
    },
    Flag {
        name: "--lint",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.fuzz.lint_cases = n)),
        cmds: &[Fuzz],
    },
    Flag {
        name: "--no-shrink",
        kind: Kind::Switch(|o| o.fuzz.shrink = false),
        cmds: &[Fuzz],
    },
    Flag {
        name: "--grammars",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.grammars = Some(n))),
        cmds: &[Batch],
    },
    Flag {
        name: "--trees",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.trees = Some(n))),
        cmds: &[Batch],
    },
    Flag {
        name: "--threads",
        kind: Kind::Int(|o, v| v.parse().map(|n: usize| o.threads = Some(n.max(1)))),
        cmds: &[Batch],
    },
    Flag {
        name: "--retries",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.retries = n)),
        cmds: &[Batch],
    },
    Flag {
        name: "--fault-seed",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.fault_seed = Some(n))),
        cmds: &[Batch],
    },
    Flag {
        name: "--checkpoint",
        kind: Kind::Path("file", |o, p| o.checkpoint = Some(p)),
        cmds: &[Batch],
    },
    Flag {
        name: "--resume",
        kind: Kind::Switch(|o| o.resume = true),
        cmds: &[Batch],
    },
    Flag {
        name: "--backoff-ms",
        kind: Kind::Int(|o, v| v.parse().map(|n| o.backoff_ms = Some(n))),
        cmds: &[Batch],
    },
];

/// The usage text: one line per command (or group of commands) with
/// exactly the flags `FLAGS` accepts for it.
fn usage() -> String {
    "usage: fnc2c [report] [--metrics] [--trace[=N]] [--report json|text] \
     [--chrome-trace FILE] [--tables FILE | --cache-dir DIR] [budget flags] \
     <file.olga | ->\n\
     \u{20}      fnc2c <c|seqs> [--metrics] [--trace[=N]] [--chrome-trace FILE] \
     [--tables FILE | --cache-dir DIR] <file.olga | ->\n\
     \u{20}      fnc2c check [--chrome-trace FILE] <file.olga | ->\n\
     \u{20}      fnc2c compile --emit-tables FILE [--chrome-trace FILE] <file.olga | ->\n\
     \u{20}      fnc2c lint [--deny warnings] [--report json|text] \
     [--tables FILE | --cache-dir DIR] <file.olga | ->\n\
     \u{20}      fnc2c profile [--repeat N] [--sample-every N] [--top N] [--report json|text] \
     [--tables FILE | --cache-dir DIR] [budget flags] <file.olga | ->\n\
     \u{20}      fnc2c explain [--trace[=N]] [--report json|text] \
     [--tables FILE | --cache-dir DIR] <[Phylum.]attr@node> <file.olga | ->\n\
     \u{20}      fnc2c fuzz [--seed N] [--cases N] [--front N] [--fault N] [--crash N] \
     [--lint N] [--no-shrink]\n\
     \u{20}      fnc2c batch [--seed N] [--grammars N] [--trees N] [--threads N] \
     [--repeat N] [--retries N] [--fault-seed N] [--metrics] [--chrome-trace FILE] \
     [--checkpoint FILE [--resume]] [--backoff-ms N] [budget flags]\n\
     \u{20}      fnc2c cache-gc <dir>\n\
     budget flags: --max-steps N --max-depth N --max-value-bytes N --deadline-ms N"
        .to_string()
}

/// A usage diagnostic: `fnc2c: msg`, then the usage text.
fn misuse(msg: impl std::fmt::Display) -> String {
    format!("fnc2c: {msg}\n{}", usage())
}

/// Parses the command line in one pass, then rejects contradictory or
/// inapplicable flags before any work starts. Returns the command, its
/// positional arguments and the options.
fn parse(argv: impl IntoIterator<Item = String>) -> Result<(Cmd, Vec<String>, Opts), String> {
    let mut opts = Opts::default();
    let mut given: Vec<&'static Flag> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        let (name, inline) = arg
            .split_once('=')
            .map_or((arg.as_str(), None), |(name, n)| (name, Some(n)));
        let flag = FLAGS
            .iter()
            .find(|f| f.name == name && (inline.is_none() || matches!(f.kind, Kind::Count(_))))
            .ok_or_else(|| misuse(format!("unknown flag `{arg}`")))?;
        match flag.kind {
            Kind::Switch(set) => set(&mut opts),
            Kind::Count(set) => match inline.map(str::parse::<usize>) {
                None => set(&mut opts, None),
                Some(Ok(n)) if n > 0 => set(&mut opts, Some(n)),
                Some(_) => return Err(misuse(format!("{name}=N needs a positive count"))),
            },
            Kind::Int(set) => set(&mut opts, &it.next().unwrap_or_default())
                .map_err(|_| misuse(format!("{name} takes a number")))?,
            Kind::Path(what, set) => match it.next() {
                Some(path) => set(&mut opts, path),
                None => return Err(misuse(format!("{name} takes a {what} path"))),
            },
            Kind::Word(words, set) => match it.next() {
                Some(w) if words.contains(&w.as_str()) => set(&mut opts, &w),
                _ => return Err(misuse(format!("{name} takes `{}`", words.join("` or `")))),
            },
        }
        given.push(flag);
    }
    let named = positional
        .first()
        .and_then(|p| Cmd::ALL.into_iter().find(|c| c.name() == p));
    let cmd = match (named, positional.len()) {
        (Some(cmd), _) => {
            positional.remove(0);
            cmd
        }
        // Flags-only invocations default to the report command.
        (None, 1) => Report,
        (None, 0) => return Err(usage()),
        (None, _) => return Err(misuse(format!("unknown command `{}`", positional[0]))),
    };
    if positional.len() != cmd.arity() {
        return Err(usage());
    }
    check_flags(cmd, &opts, &given)?;
    Ok((cmd, positional, opts))
}

/// Rejects flag combinations that contradict each other, then any flag
/// the command does not read, so every misuse is a crisp exit-1
/// diagnostic instead of a silently ignored flag.
fn check_flags(cmd: Cmd, o: &Opts, given: &[&Flag]) -> Result<(), String> {
    let conflict = if o.tables.is_some() && o.cache_dir.is_some() {
        "--tables and --cache-dir are mutually exclusive"
    } else if cmd == Compile && o.emit_tables.is_none() {
        "the compile command requires --emit-tables FILE"
    } else if cmd == Compile && o.tables.is_some() {
        "--tables conflicts with the compile command (it would skip \
         the very cascade being persisted)"
    } else if cmd == Compile && o.cache_dir.is_some() {
        "--cache-dir conflicts with the compile command; use \
         --emit-tables for an explicit artifact"
    } else if cmd != Compile && o.emit_tables.is_some() {
        "--emit-tables is only valid with the compile command"
    } else if cmd == Check && (o.tables.is_some() || o.cache_dir.is_some()) {
        "check runs the front end only; --tables/--cache-dir do not apply"
    } else if o.resume && o.checkpoint.is_none() {
        "--resume requires --checkpoint FILE"
    } else if o.backoff_ms.is_some() && o.checkpoint.is_none() {
        "--backoff-ms requires --checkpoint FILE"
    } else if o.checkpoint.is_some() && o.repeat.is_some_and(|n| n > 1) {
        "--checkpoint conflicts with --repeat (a journaled tree is never re-run, \
         so repeated passes would measure nothing)"
    } else if let Some(flag) = given.iter().find(|f| !f.cmds.contains(&cmd)) {
        let (flag, cmd) = (flag.name, cmd.name());
        return Err(misuse(format!("`{flag}` does not apply to `{cmd}`")));
    } else {
        return Ok(());
    };
    Err(misuse(conflict))
}

fn main() -> ExitCode {
    let r = parse(std::env::args().skip(1))
        .map_err(diag)
        .and_then(|(cmd, args, opts)| run_command(cmd, &args, &opts));
    r.unwrap_or_else(|(msg, code)| {
        to_stderr(format_args!("{msg}\n"));
        ExitCode::from(code)
    })
}

/// Runs one parsed command. Commands that produce a single output print
/// it here; `fuzz`, `batch` and `lint` print as they go and pick their
/// own exit code.
fn run_command(cmd: Cmd, args: &[String], opts: &Opts) -> Result<ExitCode, CliError> {
    let out = match cmd {
        Fuzz => return run_fuzz(opts),
        Batch => return run_batch(opts),
        Lint => return run_lint(&args[0], opts),
        CacheGc => run_cache_gc(&args[0])?,
        Profile => profile_source(&args[0], opts)?,
        Explain => explain_source(&args[0], &args[1], opts)?,
        Report | Check | C | Seqs | Compile => run(cmd, &read_source(&args[0])?, opts)?,
    };
    emit(format_args!("{out}"))?;
    Ok(ExitCode::SUCCESS)
}

/// Writes to standard output. A failed write (a closed pipe, a full disk)
/// is an environmental fault like a storage fault: exit 2 with a one-line
/// diagnostic, never a panic.
fn emit(text: std::fmt::Arguments) -> Result<(), CliError> {
    let mut out = std::io::stdout().lock();
    out.write_fmt(text).and_then(|()| out.flush()).map_err(|e| {
        (
            format!("fnc2c: cannot write to standard output: {e}"),
            EXIT_BUDGET,
        )
    })
}

/// Writes to standard error. A failed write (a full disk, a closed
/// descriptor) is dropped: standard error is the last channel left, and
/// the exit code still says how the command ended.
fn to_stderr(text: std::fmt::Arguments) {
    let _ = std::io::stderr().lock().write_fmt(text);
}

/// A diagnostic message plus the exit code it maps to.
type CliError = (String, u8);

fn diag(msg: impl Into<String>) -> CliError {
    (msg.into(), EXIT_DIAGNOSTICS)
}

/// Reads an OLGA source file (`-` reads standard input).
fn read_source(path: &str) -> Result<String, CliError> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|_| diag("fnc2c: cannot read standard input"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| diag(format!("fnc2c: {path}: {e}")))
    }
}

/// Maps a classified storage fault onto the budget/fault exit code: the
/// output path was valid, the work was done, and the disk failed — that
/// is an environmental fault, not a usage diagnostic, and it must never
/// surface as a panic.
fn storage_fault(e: fnc2::vfs::VfsError) -> CliError {
    (format!("fnc2c: {e}"), EXIT_BUDGET)
}

/// Writes `bytes` to `path` through the storage layer, classifying any
/// fault (full disk, failed rename, interrupted write) as exit code 2.
fn write_artifact(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    fnc2::vfs::RealVfs
        .write(std::path::Path::new(path), bytes)
        .map_err(storage_fault)
}

/// Writes the Chrome trace-event JSON collected in `obs` to `path`
/// (load the file in Perfetto / `chrome://tracing`).
fn write_chrome_trace(path: &str, obs: &Obs) -> Result<(), CliError> {
    write_artifact(path, format!("{}\n", obs.chrome_trace()).as_bytes())
}

/// The `cache-gc` subcommand: sweeps orphaned temp files left by crashed
/// writers and deletes quarantined artifacts under the given cache
/// directory. Storage faults during the sweep exit with the fault code.
fn run_cache_gc(dir: &str) -> Result<String, CliError> {
    let store = fnc2::artifact::TableStore::new(std::path::Path::new(dir), &fnc2::vfs::RealVfs);
    let report = store.gc().map_err(storage_fault)?;
    Ok(format!(
        "cache-gc: {dir}: removed {} orphaned temp file(s), {} quarantined artifact(s)\n",
        report.temps_removed, report.quarantined_removed
    ))
}

fn run(cmd: Cmd, source: &str, opts: &Opts) -> Result<String, CliError> {
    let mut obs = match opts.trace {
        Some(n) => Obs::with_trace(n.unwrap_or(DEFAULT_TRACE_CAPACITY)),
        None => Obs::new(),
    };
    if opts.chrome_trace.is_some() {
        obs.enable_spans();
    }
    let r = run_cmd(cmd, source, opts, &mut obs);
    // The trace is written even when the command failed — a budget trip
    // mid-cascade is exactly when the timeline is most interesting.
    if let Some(path) = &opts.chrome_trace {
        write_chrome_trace(path, &obs)?;
    }
    r
}

fn run_cmd(cmd: Cmd, source: &str, opts: &Opts, obs: &mut Obs) -> Result<String, CliError> {
    // The checked AG is needed for the C translator.
    let checked = || -> Result<fnc2::olga::CheckedAg, CliError> {
        let units = fnc2::olga::parse_units(source).map_err(|e| diag(e.to_string()))?;
        fnc2::olga::check_units(units).map_err(|e| diag(e.to_string()))
    };

    match cmd {
        Check => {
            let checked = checked()?;
            let (grammar, info, _) = fnc2::olga::lower(checked).map_err(|e| diag(e.to_string()))?;
            Ok(format!(
                "ok: {} phyla, {} operators, {} rules ({} explicit copies, {} auto copies)\n",
                grammar.phylum_count(),
                grammar.production_count(),
                grammar.rule_count(),
                info.explicit_copies,
                info.auto_copies
            ))
        }
        Report => {
            let mut compiled = compile_via(source, opts, obs)?;
            // Exercise the generated evaluators on a minimal tree so the
            // run counters (visits, evals, copies, storage classes) are
            // populated alongside the static generator statistics.
            smoke(&mut compiled, opts, 1, obs)?;
            if opts.report_json {
                Ok(format!("{}\n", compiled.report_json(obs)))
            } else {
                let mut out = format!("{}\n", compiled.report);
                if opts.metrics || opts.trace.is_some() {
                    out.push_str(&obs.render(&GrammarResolver(&compiled.grammar)));
                }
                Ok(out)
            }
        }
        C => {
            let checked = checked()?;
            let compiled = compile_via(source, opts, obs)?;
            // The rule table; lowering is deterministic, so its ids are
            // those of `compiled.grammar`, cached or not.
            let env = checked.env.clone();
            let (_, _, rules) = fnc2::olga::lower(checked).map_err(|e| diag(e.to_string()))?;
            let out = fnc2::codegen::to_c(&env, &rules, &compiled.grammar, &compiled.seqs);
            emit_side_channel(opts, obs, &compiled.grammar);
            Ok(out)
        }
        Seqs => {
            let compiled = compile_via(source, opts, obs)?;
            let mut out = String::new();
            for seq in compiled.seqs.iter() {
                let (p, pi) = (seq.production, seq.lhs_partition);
                let prod = compiled.grammar.production(p);
                out.push_str(&format!("{} (partition {pi}):\n", prod.name()));
                for (v, segment) in seq.segments.iter().enumerate() {
                    out.push_str(&format!("  BEGIN {}\n", v + 1));
                    for instr in segment {
                        match instr {
                            fnc2::visit::Instr::Eval(t) => out.push_str(&format!(
                                "    EVAL  {}\n",
                                compiled.grammar.occ_name(p, *t)
                            )),
                            fnc2::visit::Instr::Visit {
                                child,
                                visit,
                                partition,
                            } => out.push_str(&format!(
                                "    VISIT {visit},{child} (partition {partition})\n"
                            )),
                        }
                    }
                    out.push_str(&format!("  LEAVE {}\n", v + 1));
                }
            }
            emit_side_channel(opts, obs, &compiled.grammar);
            Ok(out)
        }
        Compile => {
            let compiled = compile(source, obs)?;
            let out_path = opts
                .emit_tables
                .as_deref()
                .expect("required by check_flags");
            let pipeline = Pipeline::new();
            let bytes = fnc2::artifact::emit_tables(&compiled, &pipeline, source);
            write_artifact(out_path, &bytes)?;
            let fp = fnc2::tables::fingerprint_source(source, &pipeline.tables_config());
            Ok(format!(
                "wrote compiled tables to {out_path}: {} bytes, fingerprint {fp:016x}, class {}\n",
                bytes.len(),
                compiled.report.class
            ))
        }
        _ => unreachable!("`{}` is dispatched by run_command", cmd.name()),
    }
}

/// Evaluates the grammar's smoke tree `runs` times. Graceful
/// degradation comes first: a space plan that fails re-validation or the
/// plan-time budget check is dropped, with a warning, and evaluation falls
/// back to the exhaustive evaluator instead of failing. A semantic-rule
/// failure is a diagnostic, a budget trip maps to the budget/fault code.
fn smoke(compiled: &mut Compiled, opts: &Opts, runs: usize, obs: &mut Obs) -> Result<(), CliError> {
    if let Some(reason) = compiled.degrade_to_exhaustive_recorded(&opts.budget, obs) {
        to_stderr(format_args!(
            "fnc2c: warning: degrading to exhaustive evaluator: {reason}\n"
        ));
    }
    for _ in 0..runs {
        match compiled.smoke_evaluate(&opts.budget, obs) {
            SmokeOutcome::SemanticFailure(msg) => {
                let msg = format!("fnc2c: error: semantic rule aborted during evaluation: {msg}");
                return Err(diag(msg));
            }
            SmokeOutcome::BudgetExceeded(msg) => {
                return Err((format!("fnc2c: error: {msg}"), EXIT_BUDGET))
            }
            SmokeOutcome::Ok | SmokeOutcome::Skipped => {}
        }
    }
    Ok(())
}

/// The `profile` subcommand: compiles the grammar, runs the generated
/// evaluators repeatedly over the smoke tree with the rule profiler
/// enabled, and prints the ranked hot-`(production, rule)` report —
/// firing counts, copy shares, and estimated total time from periodic
/// wall-clock samples.
fn profile_source(path: &str, opts: &Opts) -> Result<String, CliError> {
    let repeat = opts.repeat.unwrap_or(64);
    let source = read_source(path)?;
    let mut obs = Obs::new();
    let mut compiled = compile_via(&source, opts, &mut obs)?;
    obs.enable_profile(opts.sample_every.unwrap_or(fnc2::obs::DEFAULT_SAMPLE_EVERY));
    smoke(&mut compiled, opts, repeat, &mut obs)?;
    let profile = obs.profile.as_ref().expect("profiling enabled above");
    if profile.is_empty() {
        return Err(diag(
            "fnc2c: no rule firings recorded (the grammar has no evaluable smoke tree)",
        ));
    }
    let resolver = GrammarResolver(&compiled.grammar);
    if opts.report_json {
        let doc = fnc2::obs::Json::obj([
            ("grammar", fnc2::obs::Json::str(compiled.grammar.name())),
            ("repeat", fnc2::obs::Json::Int(repeat as i64)),
            ("profile", profile.to_json(&resolver)),
        ]);
        Ok(format!("{doc}\n"))
    } else {
        Ok(profile.render(&resolver, opts.top.unwrap_or(20)))
    }
}

/// Resolves `[Phylum.]attr` against the grammar. Without a phylum
/// qualifier the attribute name must be unambiguous across phyla.
fn resolve_attr(grammar: &fnc2::ag::Grammar, spec: &str) -> Result<fnc2::ag::AttrId, CliError> {
    if let Some((ph_name, attr_name)) = spec.split_once('.') {
        let ph = grammar
            .phylum_by_name(ph_name)
            .ok_or_else(|| diag(format!("fnc2c: no phylum named `{ph_name}`")))?;
        return grammar.attr_by_name(ph, attr_name).ok_or_else(|| {
            diag(format!(
                "fnc2c: phylum `{ph_name}` has no attribute `{attr_name}`"
            ))
        });
    }
    let matches: Vec<_> = grammar
        .phyla()
        .filter_map(|ph| grammar.attr_by_name(ph, spec))
        .collect();
    match matches.as_slice() {
        [a] => Ok(*a),
        [] => Err(diag(format!("fnc2c: no attribute named `{spec}`"))),
        _ => Err(diag(format!(
            "fnc2c: attribute `{spec}` is ambiguous; qualify it as `Phylum.{spec}`"
        ))),
    }
}

/// The `explain` subcommand: evaluates the grammar's smoke tree with the
/// event trace on, then reconstructs and prints the dynamic dependency
/// slice of `attr@node` — which firings, in which visits, fed the value.
fn explain_source(target: &str, path: &str, opts: &Opts) -> Result<String, CliError> {
    let capacity = opts.trace.flatten().unwrap_or(EXPLAIN_TRACE_CAPACITY);
    let source = read_source(path)?;
    let mut obs = Obs::new();
    let compiled = compile_via(&source, opts, &mut obs)?;
    let g = &compiled.grammar;

    let (attr_spec, node_spec) = target.split_once('@').ok_or_else(|| {
        diag(format!(
            "fnc2c: explain target `{target}` must look like `attr@node` or `Phylum.attr@node`"
        ))
    })?;
    let attr = resolve_attr(g, attr_spec)?;
    let node_ix: usize = node_spec
        .parse()
        .map_err(|_| diag(format!("fnc2c: `{node_spec}` is not a node index")))?;

    let tree = compiled
        .smoke_tree()
        .ok_or_else(|| diag("fnc2c: the grammar's axiom derives no finite tree"))?;
    if node_ix >= tree.arena_len() {
        return Err(diag(format!(
            "fnc2c: node {node_ix} is out of range (the smoke tree has {} nodes; \
             rerun with a node index below that)",
            tree.arena_len()
        )));
    }

    let mut trace_obs = Obs::with_trace(capacity);
    let mut inputs = fnc2::visit::RootInputs::new();
    for a in g.inherited(g.root()) {
        inputs.insert(a, fnc2::ag::Value::Int(0));
    }
    compiled
        .evaluate_recorded(tree, &inputs, &mut trace_obs)
        .map_err(|e| diag(format!("fnc2c: evaluation failed: {e}")))?;

    let buf = trace_obs.events.as_ref().expect("trace enabled above");
    if let Some((from, to)) = buf.dropped_span() {
        to_stderr(format_args!(
            "fnc2c: warning: the trace ring wrapped (events {from}..{to} discarded); \
             the slice may bottom out early — rerun with --trace=N larger than {capacity}\n"
        ));
    }
    let node = fnc2::ag::NodeId::from_raw(node_ix as u32);
    let slice = fnc2::visit::dependency_slice(g, tree, buf.iter(), node, attr);
    if opts.report_json {
        Ok(format!("{}\n", slice.to_json(g, tree)))
    } else {
        Ok(slice.render(g, tree))
    }
}

/// The `lint` subcommand: runs the grammar-level static analyses over an
/// OLGA source and prints the diagnostic report. Front-end rejections are
/// diagnostics (`L100`–`L102`), not hard errors, so the exit contract is
/// uniform: 0 when the report is clean (no errors; warnings allowed
/// unless `--deny warnings`), 1 when findings deny the grammar, 2 only
/// for environmental faults (an unreadable input, a failed write).
fn run_lint(path: &str, opts: &Opts) -> Result<ExitCode, CliError> {
    // An unreadable input is environmental, not a lint finding.
    let source = read_source(path).map_err(|(msg, _)| (msg, EXIT_BUDGET))?;

    let mut obs = Obs::new();
    let pipeline = Pipeline::new();
    // With an artifact source the diagnostics are replayed from the
    // embedded lint section (no re-analysis on a cache hit); anything
    // that prevents that — a rejected artifact, a source that no longer
    // compiles — falls back to the full never-failing lint path.
    let report = if opts.tables.is_none() && opts.cache_dir.is_none() {
        pipeline.lint_olga_recorded(&source, &mut obs)
    } else {
        match compile_via(&source, opts, &mut obs) {
            Ok(compiled) => compiled.lint,
            Err(_) => pipeline.lint_olga_recorded(&source, &mut obs),
        }
    };

    if opts.report_json {
        emit(format_args!("{}\n", report.to_json()))?;
    } else {
        emit(format_args!("{}", report.render_text()))?;
    }
    let denied = report.errors() > 0 || (opts.deny_warnings && report.warnings() > 0);
    if denied {
        if report.errors() == 0 {
            to_stderr(format_args!("fnc2c: denying warnings (--deny warnings)\n"));
        }
        Ok(ExitCode::from(EXIT_DIAGNOSTICS))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// The `fuzz` subcommand: runs the differential oracle with the given
/// seed and budgets, prints the counter summary, and on failure prints
/// the (shrunk) reproducer to stderr and exits nonzero. A failure's
/// reproducer and exit code come first, so a failed stdout write cannot
/// hide them.
fn run_fuzz(opts: &Opts) -> Result<ExitCode, CliError> {
    let cfg = &opts.fuzz;
    let mut obs = Obs::new();
    let report = fnc2::fuzz::run(cfg, &mut obs);
    let failure = report.failure.as_ref().map(|failure| match failure {
        fnc2::fuzz::FuzzFailure::Divergence(d) => {
            to_stderr(format_args!("fuzz: DIVERGENCE at stage `{}`\n", d.stage));
            to_stderr(format_args!("{}", fnc2::fuzz::render_reproducer(d)));
            EXIT_DIAGNOSTICS
        }
        fnc2::fuzz::FuzzFailure::FrontPanic(f) => {
            to_stderr(format_args!(
                "fuzz: FRONT-END PANIC on case {} (base {}, mutations: {}): {}\n",
                f.case, f.base, f.mutations, f.panic
            ));
            to_stderr(format_args!("-- mutated source --\n{}\n", f.source));
            EXIT_DIAGNOSTICS
        }
        fnc2::fuzz::FuzzFailure::Fault(f) => {
            to_stderr(format_args!("fuzz: FAULT-ISOLATION VIOLATION: {f}\n"));
            EXIT_BUDGET
        }
        fnc2::fuzz::FuzzFailure::Crash(f) => {
            to_stderr(format_args!("fuzz: CRASH-CONSISTENCY VIOLATION: {f}\n"));
            EXIT_BUDGET
        }
        fnc2::fuzz::FuzzFailure::Lint(f) => {
            to_stderr(format_args!("fuzz: LINT-SOUNDNESS VIOLATION: {f}\n"));
            EXIT_DIAGNOSTICS
        }
    });
    let summary = emit(format_args!(
        "fuzz: seed {}: {} grammar cases ({} tree nodes, {} edits), \
         {} front-end cases ({} accepted, {} rejected, digest {:016x}), \
         {} fault cases ({} faults injected, {} panics caught), \
         {} crash cases ({} storage faults, {} records resumed), \
         {} lint cases ({} L001 + {} L002 verdicts checked, {} flips, {} witnesses replayed)\n",
        cfg.seed,
        report.grammar_cases,
        report.nodes,
        report.edits,
        report.front_cases,
        report.front_accepted,
        report.front_rejected,
        report.front_digest,
        report.fault_cases,
        report.faults_injected,
        report.panics_caught,
        report.crash_cases,
        report.io_faults,
        report.crash_resumed,
        report.lint_cases,
        report.lint_unused_checked,
        report.lint_dead_checked,
        report.lint_flips,
        report.lint_witnesses
    ));
    match failure {
        Some(code) => {
            if let Err((msg, _)) = summary {
                to_stderr(format_args!("{msg}\n"));
            }
            Ok(ExitCode::from(code))
        }
        None => {
            summary?;
            emit(format_args!(
                "fuzz: no divergence, no panic, no fault escape, no crash inconsistency, \
                 no unsound lint\n"
            ))?;
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// FNV-1a over everything that determines a batch's work-list and
/// outcomes. The checkpoint journal is bound to this, so `--resume`
/// against a different seed, shape, fault plan or budget is rejected
/// instead of silently skipping the wrong trees.
fn batch_fingerprint(opts: &Opts, grammars: u64, trees: usize) -> u64 {
    let budget = &opts.budget;
    fnc2::vfs::fnv1a(&[
        b"fnc2c-batch-v1",
        &opts.fuzz.seed.to_le_bytes(),
        &grammars.to_le_bytes(),
        &(trees as u64).to_le_bytes(),
        &[u8::from(opts.fault_seed.is_some())],
        &opts.fault_seed.unwrap_or(0).to_le_bytes(),
        &budget.max_steps.to_le_bytes(),
        &(budget.max_depth as u64).to_le_bytes(),
        &budget.max_value_cells.to_le_bytes(),
        &[u8::from(budget.deadline.is_some())],
    ])
}

/// Classifies a checkpoint failure: a storage fault takes the fault exit
/// code, a malformed or mismatched journal is a diagnostic about `what`.
fn checkpoint_error(e: fnc2::par::CkptError, what: &str) -> CliError {
    match e {
        fnc2::par::CkptError::Io(e) => storage_fault(e),
        e => diag(format!("fnc2c: {what}: {e}")),
    }
}

/// Prints why each lost tree of batch grammar `gi` was lost; `None`
/// marks a tree this run did not evaluate (resumed from the journal).
fn print_losses<'a>(gi: u64, outcomes: impl Iterator<Item = Option<&'a fnc2::par::TreeOutcome>>) {
    for (i, o) in outcomes.enumerate() {
        let Some(o) = o else { continue };
        if let Some(e) = o.error() {
            to_stderr(format_args!("fnc2c: batch grammar {gi} tree {i}: {e}\n"));
        } else if let Some(m) = o.panic_message() {
            to_stderr(format_args!(
                "fnc2c: batch grammar {gi} tree {i}: panicked: {m}\n"
            ));
        }
    }
}

/// The `batch` subcommand: generates synthetic SNC grammars (the fuzz
/// generator's, so a seed line is a full reproducer), builds a batch of
/// random trees per grammar, and decorates them through the guarded
/// work-stealing parallel driver, printing trees/sec, steal counts and the
/// per-batch outcome report. A failed or poisoned tree never aborts the
/// batch: the other trees' results are kept, the failure is classified,
/// and the run exits with the budget/fault code.
fn run_batch(opts: &Opts) -> Result<ExitCode, CliError> {
    let seed = opts.fuzz.seed;
    let grammars = opts.grammars.unwrap_or(4);
    let trees = opts.trees.unwrap_or(64);
    let threads = opts
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let repeat = opts.repeat.unwrap_or(1);
    let budget = &opts.budget;

    let vfs = fnc2::vfs::RealVfs;
    // The journal is bound to everything that determines the batch's
    // work-list, so a resume against a different configuration is a
    // crisp fingerprint-mismatch diagnostic instead of silent skips.
    let batch_fp = batch_fingerprint(opts, grammars, trees);
    let mut ckpt = match &opts.checkpoint {
        None => None,
        Some(path) => {
            let p = std::path::Path::new(path);
            let fail = |e| checkpoint_error(e, &format!("checkpoint {path}"));
            Some(if opts.resume && vfs.exists(p) {
                let (c, info) = fnc2::par::Checkpoint::open(&vfs, p, batch_fp).map_err(fail)?;
                let torn = if info.compacted {
                    format!(" (dropped {} torn byte(s))", info.torn_bytes)
                } else {
                    String::new()
                };
                emit(format_args!(
                    "batch: checkpoint {path}: resumed {} record(s){torn}\n",
                    info.resumed
                ))?;
                c
            } else {
                fnc2::par::Checkpoint::create(&vfs, p, batch_fp).map_err(fail)?
            })
        }
    };

    let mut obs = Obs::new();
    if opts.chrome_trace.is_some() {
        obs.enable_spans();
    }
    let mut total_trees = 0u64;
    let mut total_steals = 0u64;
    let mut total_secs = 0f64;
    let mut any_lost = false;
    for gi in 0..grammars {
        let params = fnc2::fuzz::CaseParams::for_case(seed, gi);
        let gg = fnc2::fuzz::gen::build_grammar(&params);
        let g = &gg.grammar;
        let cls = fnc2::analysis::classify(g, 2, fnc2::analysis::Inclusion::Long).map_err(|e| {
            diag(format!(
                "fnc2c: batch grammar {gi}: transformation failed: {e}"
            ))
        })?;
        let lo = cls.l_ordered.as_ref().ok_or_else(|| {
            diag(format!(
                "fnc2c: batch grammar {gi}: generated grammar rejected as non-SNC"
            ))
        })?;
        let seqs = fnc2::visit::build_visit_seqs(g, lo);
        let ev = fnc2::visit::Evaluator::new(g, &seqs);
        let batch: Vec<fnc2::ag::Tree> = (0..trees)
            .map(|t| {
                let tp = fnc2::fuzz::CaseParams {
                    seed: params
                        .seed
                        .wrapping_add((t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    ..params
                };
                fnc2::fuzz::build_tree(&gg, &tp)
            })
            .collect();
        let plan = opts
            .fault_seed
            .map(|fs| fnc2::guard::FaultPlan::from_seed(fs ^ gi, batch.len()));
        let inputs = fnc2::visit::RootInputs::new();
        let start = std::time::Instant::now();
        if let Some(ckpt) = ckpt.as_mut() {
            // Checkpointed leg: every terminal outcome is journaled as it
            // lands; trees already in the journal are not re-evaluated.
            let index_base = gi * trees as u64;
            let report = fnc2::par::batch_evaluate_checkpointed_recorded(
                &ev,
                &batch,
                &inputs,
                threads,
                budget,
                opts.retries,
                plan.as_ref(),
                opts.backoff_ms.unwrap_or(0),
                &vfs,
                ckpt,
                index_base,
                &mut obs,
            )
            .map_err(|e| checkpoint_error(e, "checkpoint"))?;
            let dt = start.elapsed().as_secs_f64();
            let n = trees as u64;
            let (ok, failed, panicked, budget_trips) = report.counts();
            emit(format_args!(
                "batch: grammar {gi}: {n} trees in {:.2}ms ({:.0} trees/s, {} steals, \
                 {} resumed); outcomes: {ok} ok, {failed} failed, {panicked} panicked, \
                 {budget_trips} budget-exceeded; {} retries, {} panics caught\n",
                dt * 1e3,
                n as f64 / dt.max(1e-9),
                report.stats.steals,
                report.resumed,
                report.retries,
                report.panics_caught
            ))?;
            // The per-tree classification is printed from the journal
            // records, so the lines are bit-identical between an
            // uninterrupted run and any kill -> resume sequence.
            for r in &report.records {
                if r.outcome != fnc2::par::CkptOutcome::Ok {
                    emit(format_args!(
                        "batch: grammar {gi} tree {}: {} (digest {:016x})\n",
                        r.index - index_base,
                        r.outcome,
                        r.digest
                    ))?;
                }
            }
            print_losses(gi, report.fresh.iter().map(Option::as_ref));
            any_lost |= ok != report.records.len();
            total_trees += n;
            total_steals += report.stats.steals;
            total_secs += dt;
            continue;
        }
        let mut steals = 0u64;
        let mut last_report = None;
        for _ in 0..repeat {
            let report = fnc2::par::batch_evaluate_guarded_recorded(
                &ev,
                &batch,
                &inputs,
                threads,
                budget,
                opts.retries,
                plan.as_ref(),
                &mut obs,
            );
            steals += report.stats.steals;
            last_report = Some(report);
        }
        let dt = start.elapsed().as_secs_f64();
        let n = (trees * repeat) as u64;
        let report = last_report.expect("repeat >= 1");
        let (ok, failed, panicked) = report.counts();
        emit(format_args!(
            "batch: grammar {gi}: {n} trees in {:.2}ms ({:.0} trees/s, {steals} steals); \
             outcomes: {ok} ok, {failed} failed, {panicked} panicked; \
             {} retries, {} panics caught, {} budget trips\n",
            dt * 1e3,
            n as f64 / dt.max(1e-9),
            report.retries,
            report.panics_caught,
            report.budget_exceeded
        ))?;
        print_losses(gi, report.outcomes.iter().map(Some));
        any_lost |= !report.all_ok();
        total_trees += n;
        total_steals += steals;
        total_secs += dt;
    }
    emit(format_args!(
        "batch: seed {seed}: {total_trees} trees over {grammars} grammars in {:.2}ms \
         ({:.0} trees/s, {total_steals} steals, {threads} threads)\n",
        total_secs * 1e3,
        total_trees as f64 / total_secs.max(1e-9)
    ))?;
    if opts.metrics {
        to_stderr(format_args!("{}", obs.render(&fnc2::obs::RawResolver)));
    }
    if let Some(path) = &opts.chrome_trace {
        write_chrome_trace(path, &obs)?;
    }
    Ok(if any_lost {
        ExitCode::from(EXIT_BUDGET)
    } else {
        ExitCode::SUCCESS
    })
}

/// Prints the instrumentation report to stderr for commands whose stdout
/// is a generated artifact (C, visit sequences).
fn emit_side_channel(opts: &Opts, obs: &Obs, grammar: &fnc2::ag::Grammar) {
    if opts.metrics || opts.trace.is_some() {
        to_stderr(format_args!("{}", obs.render(&GrammarResolver(grammar))));
    }
}

fn pipeline_diag(e: PipelineError) -> CliError {
    match e {
        PipelineError::NotSnc(trace) => diag(format!("fnc2c: grammar is not SNC\n{trace}")),
        other => diag(format!("fnc2c: {other}")),
    }
}

fn compile(source: &str, obs: &mut Obs) -> Result<Compiled, CliError> {
    Pipeline::new()
        .compile_olga_recorded(source, obs)
        .map_err(pipeline_diag)
}

/// Obtains a [`Compiled`], honoring `--tables` (load the artifact,
/// falling back to recompilation with a warning when it is rejected) and
/// `--cache-dir` (fingerprint-keyed on-disk cache). Plain compilation
/// otherwise.
fn compile_via(source: &str, opts: &Opts, obs: &mut Obs) -> Result<Compiled, CliError> {
    use fnc2::artifact::{self, CacheOutcome, TablesError};
    use fnc2::obs::{Key, Recorder as _};

    if let Some(path) = &opts.tables {
        let bytes = std::fs::read(path).map_err(|e| diag(format!("fnc2c: {path}: {e}")))?;
        match artifact::load_tables_recorded(&bytes, source, &Pipeline::new(), obs) {
            Ok(compiled) => {
                obs.count(Key::TablesCacheHit, 1);
                return Ok(compiled);
            }
            Err(TablesError::Source(e)) => return Err(pipeline_diag(*e)),
            Err(TablesError::Rejected(e)) => {
                obs.count(Key::TablesCacheRejected, 1);
                to_stderr(format_args!(
                    "fnc2c: warning: ignoring tables artifact {path}: {e}; recompiling\n"
                ));
            }
        }
        compile(source, obs)
    } else if let Some(dir) = &opts.cache_dir {
        let (compiled, outcome) =
            artifact::compile_olga_cached(&Pipeline::new(), source, std::path::Path::new(dir), obs)
                .map_err(pipeline_diag)?;
        if let CacheOutcome::Rejected(e) = outcome {
            to_stderr(format_args!(
                "fnc2c: warning: rejected cached tables artifact: {e}; recompiled\n"
            ));
        }
        Ok(compiled)
    } else {
        compile(source, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cmd` with and without `extra`, both carrying what the conflict
    /// check requires of them and the command's positional arguments.
    fn with_and_without(cmd: Cmd, extra: &[&str]) -> [Vec<String>; 2] {
        let mut base = vec![cmd.name()];
        if cmd == Compile {
            base.extend(["--emit-tables", "t"]);
        }
        if extra.contains(&"--resume") || extra.contains(&"--backoff-ms") {
            base.extend(["--checkpoint", "c"]);
        }
        let positional = &["a@0", "-"][2 - cmd.arity()..];
        [
            [&base[..], extra, positional].concat(),
            [&base[..], positional].concat(),
        ]
        .map(|args| args.iter().map(|a| a.to_string()).collect())
    }

    /// Every flag parses and sets its field for exactly the commands
    /// `FLAGS` lists, and `usage()` lists exactly those flags per command.
    #[test]
    fn flag_table_matches_parser_and_usage() {
        for flag in FLAGS {
            let mut extra = vec![flag.name];
            extra.extend(match flag.kind {
                Kind::Switch(_) | Kind::Count(_) => None,
                Kind::Int(_) => Some("7"),
                Kind::Path(..) => Some("p"),
                Kind::Word(words, _) => Some(words[0]),
            });
            for cmd in Cmd::ALL {
                let [with, without] = with_and_without(cmd, &extra);
                let parsed = parse(with);
                if !flag.cmds.contains(&cmd) {
                    assert!(parsed.expect_err(flag.name).starts_with("fnc2c: "));
                    continue;
                }
                let (got, _, opts) = parsed.unwrap_or_else(|e| panic!("{}: {e}", flag.name));
                let (_, _, plain) = parse(without).unwrap();
                assert_eq!(got, cmd);
                let (opts, plain) = (format!("{opts:?}"), format!("{plain:?}"));
                assert_ne!(opts, plain, "{} on `{}`", flag.name, cmd.name());
            }
        }

        let flags_in = |text: &str| -> Vec<String> {
            let mut names: Vec<String> = text
                .split(|c: char| !c.is_ascii_lowercase() && c != '-')
                .filter(|t| t.starts_with("--"))
                .map(str::to_string)
                .collect();
            names.sort();
            names.dedup();
            names
        };
        let text = usage();
        let budget = text
            .lines()
            .find(|l| l.starts_with("budget flags:"))
            .unwrap();
        let mut usage_cmds = Vec::new();
        for (_, line) in text.lines().filter_map(|l| l.split_once("fnc2c ")) {
            let line = line.replace("[budget flags]", budget);
            let head = line.split_whitespace().next().unwrap();
            for name in head
                .split(['[', ']', '<', '>', '|'])
                .filter(|n| !n.is_empty())
            {
                let mut accepted: Vec<String> = FLAGS
                    .iter()
                    .filter(|f| f.cmds.iter().any(|c| c.name() == name))
                    .map(|f| f.name.to_string())
                    .collect();
                accepted.sort();
                assert_eq!(flags_in(&line), accepted, "usage of `{name}`");
                usage_cmds.push(name.to_string());
            }
        }
        assert_eq!(
            usage_cmds.len(),
            Cmd::ALL.len(),
            "one usage line per command"
        );
        assert!(Cmd::ALL
            .iter()
            .all(|c| usage_cmds.iter().any(|u| u == c.name())));
        for name in flags_in(&text) {
            assert!(FLAGS.iter().any(|f| f.name == name), "{name} not in FLAGS");
        }
    }
}
