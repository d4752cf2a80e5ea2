//! Persistent compiled-table artifacts: emit, load, and cache.
//!
//! FNC-2 is generate-once / evaluate-many. This module makes the "once"
//! hold across process boundaries: [`emit_tables`] serializes everything
//! downstream of the OLGA front end into a fingerprinted binary artifact
//! (see [`fnc2_tables`]), and [`load_tables`] turns such an artifact back
//! into a [`Compiled`] — re-running only the cheap front end to rebuild
//! the semantic closures, while the expensive Figure-3 cascade results
//! (visit sequences, lifetimes, storage plan) are deserialized.
//!
//! [`compile_olga_cached`] wraps the two in an on-disk cache keyed by the
//! content fingerprint. The cache is never trusted: a stale, corrupt,
//! truncated or version-skewed artifact is rejected with a classified
//! [`ArtifactError`], counted under `tables.cache_rejected`, and silently
//! replaced by a full recompilation — never a panic, never a wrong
//! answer.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use fnc2_obs::{Key, Obs, Recorder as _};
use fnc2_space::analyze_space;
use fnc2_tables::fingerprint_source;
pub use fnc2_tables::store::{GcReport, TableStore};
pub use fnc2_tables::{ArtifactError, Tables, TablesConfig};
use fnc2_vfs::{RealVfs, Vfs};

use crate::{olga_front_end_recorded, Compiled, Pipeline, PipelineError, Report, Space};

impl Pipeline {
    /// The artifact-facing view of this configuration (the knobs that
    /// change analysis results and therefore partake in the fingerprint).
    pub fn tables_config(&self) -> TablesConfig {
        TablesConfig {
            max_oag_k: self.max_oag_k,
            inclusion: self.inclusion,
        }
    }
}

/// Why loading an artifact did not produce a [`Compiled`].
#[derive(Debug)]
pub enum TablesError {
    /// The artifact is unusable — stale fingerprint, version skew,
    /// corruption, or a configuration mismatch. The caller should fall
    /// back to full recompilation.
    Rejected(ArtifactError),
    /// The source itself fails the OLGA front end. This is a user
    /// diagnostic that a recompilation would reproduce, not an artifact
    /// problem, so callers surface it instead of falling back.
    Source(Box<PipelineError>),
}

impl fmt::Display for TablesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TablesError::Rejected(e) => write!(f, "{e}"),
            TablesError::Source(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TablesError {}

/// Serializes a finished compilation into artifact bytes for `source`
/// under `pipeline`'s configuration. A compilation whose space plan
/// [`degrade_to_exhaustive_recorded`](Compiled::degrade_to_exhaustive_recorded)
/// dropped stores the plan the cascade builds for it.
pub fn emit_tables(compiled: &Compiled, pipeline: &Pipeline, source: &str) -> Vec<u8> {
    let rebuilt;
    let (lifetimes, plan) = match &compiled.space {
        Some(space) => (&space.lifetimes, &space.plan),
        None => {
            rebuilt = analyze_space(&compiled.grammar, &compiled.seqs);
            (&rebuilt.2, &rebuilt.3)
        }
    };
    Tables::build(
        &compiled.grammar,
        pipeline.tables_config(),
        Some(source),
        compiled.report.class,
        &compiled.report.transform.clone().unwrap_or_default(),
        &compiled.seqs,
        lifetimes,
        plan,
        &compiled.lint.diags,
    )
    .to_bytes()
}

/// [`load_tables_recorded`] without instrumentation.
///
/// # Errors
///
/// See [`TablesError`].
pub fn load_tables(
    bytes: &[u8],
    source: &str,
    pipeline: &Pipeline,
) -> Result<Compiled, TablesError> {
    load_tables_recorded(bytes, source, pipeline, &mut Obs::new())
}

/// Loads a compiled grammar from artifact bytes: verifies header,
/// checksum, configuration and fingerprint, re-runs the OLGA front end on
/// `source` to rebuild the grammar (with its semantic closures), verifies
/// the artifact against it ([`Tables::verify_against`]: the grammar-shape
/// section, then every partition, sequence and access table), and
/// assembles a [`Compiled`] from the deserialized cascade results and the
/// flattened program derived from them. Nothing is slot-compiled: the
/// evaluator compiles the rules when it first runs.
///
/// The whole load runs inside a `tables.load` phase span, with the
/// nested `olga.*` front-end spans inside it.
///
/// # Errors
///
/// [`TablesError::Rejected`] for every artifact defect (fall back to
/// recompilation); [`TablesError::Source`] when `source` itself does not
/// compile.
pub fn load_tables_recorded(
    bytes: &[u8],
    source: &str,
    pipeline: &Pipeline,
    obs: &mut Obs,
) -> Result<Compiled, TablesError> {
    obs.tracer.begin("phase", "tables.load");
    let r = load_inner(bytes, source, pipeline, obs);
    obs.tracer.end();
    r
}

fn load_inner(
    bytes: &[u8],
    source: &str,
    pipeline: &Pipeline,
    obs: &mut Obs,
) -> Result<Compiled, TablesError> {
    let config = pipeline.tables_config();
    let (tables, found) = Tables::from_bytes(bytes).map_err(TablesError::Rejected)?;
    if tables.config != config {
        return Err(TablesError::Rejected(ArtifactError::ConfigMismatch));
    }
    let expected = fingerprint_source(source, &config);
    if found != expected {
        return Err(TablesError::Rejected(ArtifactError::FingerprintMismatch {
            found,
            expected,
        }));
    }
    let grammar =
        olga_front_end_recorded(source, obs).map_err(|e| TablesError::Source(Box::new(e)))?;
    let flat = tables
        .verify_against(&grammar)
        .map_err(TablesError::Rejected)?;

    let Tables {
        class,
        transform,
        seqs,
        lifetimes,
        space_plan,
        lint,
        ..
    } = tables;
    // Replay the cached diagnostics: cached startups report the same
    // lint findings (and feed the same `lint.*` counters) as a full
    // compile, without re-running the analyses.
    let lint = fnc2_lint::LintReport::new(lint);
    fnc2_lint::record_report(&lint, obs);
    let report = Report {
        class,
        phyla: grammar.phylum_count(),
        operators: grammar.production_count(),
        occurrences: grammar.attr_count(),
        rules: grammar.rule_count(),
        transform: Some(transform),
        space: Some(space_plan.stats.clone()),
        // The cascade did not run, so the generator time is zero.
        generator_time: std::time::Duration::ZERO,
    };
    Ok(Compiled {
        grammar,
        seqs,
        space: Some(Space {
            flat,
            lifetimes,
            plan: space_plan,
        }),
        lint,
        report,
        intern: false,
        lowered: OnceLock::new(),
        planned: OnceLock::new(),
    })
}

/// Outcome of one consultation of the artifact cache.
#[derive(Debug)]
pub enum CacheOutcome {
    /// A valid artifact was found and loaded; the cascade was skipped.
    Hit,
    /// No artifact existed for this fingerprint; the grammar was compiled
    /// and the result stored.
    Miss,
    /// An artifact existed but was rejected for the carried reason; the
    /// grammar was recompiled and the artifact replaced.
    Rejected(ArtifactError),
}

/// The file an artifact for `fingerprint` is cached under.
pub fn cache_path(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("fnc2-{fingerprint:016x}.tbl"))
}

/// Compiles OLGA source through an on-disk artifact cache: on a hit the
/// Figure-3 cascade is skipped entirely; on a miss (or a rejected stale /
/// corrupt artifact) the source is compiled in full and the artifact
/// (re)written. All disk traffic goes through [`RealVfs`]; see
/// [`compile_olga_cached_vfs`] for the injectable-backend variant the
/// crash harness drives.
///
/// # Errors
///
/// Exactly the failure modes of
/// [`compile_olga`](Pipeline::compile_olga) — cache trouble is never an
/// error.
pub fn compile_olga_cached(
    pipeline: &Pipeline,
    source: &str,
    cache_dir: &Path,
    obs: &mut Obs,
) -> Result<(Compiled, CacheOutcome), PipelineError> {
    compile_olga_cached_vfs(pipeline, source, cache_dir, &RealVfs, obs)
}

/// [`compile_olga_cached`] over an explicit [`Vfs`] backend.
///
/// Cache consultation bumps exactly one of the `tables.cache_hit` /
/// `tables.cache_miss` / `tables.cache_rejected` counters. Crash
/// consistency:
///
/// - orphaned temp files from earlier crashed writers are swept before
///   the cache is consulted (counted under `tables.temps_swept`);
/// - a rejected artifact is moved to the `quarantine/` subdirectory —
///   tagged with the rejection class, counted under `tables.quarantined`
///   — instead of being silently overwritten, so the evidence survives;
/// - cache writes are best-effort and atomic (temp file + rename): a
///   full, faulty or unwritable cache directory never fails the
///   compilation.
pub fn compile_olga_cached_vfs(
    pipeline: &Pipeline,
    source: &str,
    cache_dir: &Path,
    vfs: &dyn Vfs,
    obs: &mut Obs,
) -> Result<(Compiled, CacheOutcome), PipelineError> {
    let fingerprint = fingerprint_source(source, &pipeline.tables_config());
    let store = TableStore::new(cache_dir, vfs);
    if let Ok(swept @ 1..) = store.sweep_temps() {
        obs.count(Key::TablesTempsSwept, swept as u64);
    }
    let outcome = match store.load(fingerprint) {
        Ok(Some(bytes)) => match load_tables_recorded(&bytes, source, pipeline, obs) {
            Ok(compiled) => {
                obs.count(Key::TablesCacheHit, 1);
                return Ok((compiled, CacheOutcome::Hit));
            }
            Err(TablesError::Source(e)) => return Err(*e),
            Err(TablesError::Rejected(e)) => {
                if let Ok(Some(_)) = store.quarantine(fingerprint, e.tag()) {
                    obs.count(Key::TablesQuarantined, 1);
                }
                CacheOutcome::Rejected(e)
            }
        },
        // A clean miss — or a cache directory too faulty to read, which
        // is the same thing to the compiler.
        Ok(None) | Err(_) => CacheOutcome::Miss,
    };
    match outcome {
        CacheOutcome::Rejected(_) => obs.count(Key::TablesCacheRejected, 1),
        _ => obs.count(Key::TablesCacheMiss, 1),
    }
    let compiled = pipeline.compile_olga_recorded(source, obs)?;
    let bytes = emit_tables(&compiled, pipeline, source);
    let _ = store.store(fingerprint, &bytes);
    Ok((compiled, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn emit(source: &str, pipeline: &Pipeline) -> Vec<u8> {
        let compiled = pipeline.compile_olga(source).unwrap();
        emit_tables(&compiled, pipeline, source)
    }

    /// Everything a report says except its timing, and the lint findings.
    fn report_key(c: &Compiled) -> String {
        let r = &c.report;
        format!(
            "{} {} {} {} {} {:?} {:?} {:?}",
            r.class,
            r.phyla,
            r.operators,
            r.occurrences,
            r.rules,
            r.transform,
            r.space,
            c.lint.diags
        )
    }

    #[test]
    fn emit_then_load_round_trips() {
        let pipeline = Pipeline::new();
        let sized = fnc2_corpus::sized_ag_source("g", 300);
        for source in [
            fnc2_corpus::DESK_OLGA,
            fnc2_corpus::BLOCKS_OLGA_LIST,
            fnc2_corpus::MINIPASCAL_OLGA,
            &sized,
        ] {
            let fresh = pipeline.compile_olga(source).unwrap();
            let bytes = emit_tables(&fresh, &pipeline, source);
            let loaded = load_tables(&bytes, source, &pipeline).unwrap();
            assert_eq!(report_key(&loaded), report_key(&fresh));
            // The flattened program the load derives is the cascade's.
            let flat = |c: &Compiled| format!("{:?}", c.space.as_ref().map(|s| &s.flat));
            assert_eq!(flat(&loaded), flat(&fresh));
        }
        let bytes = emit(COUNT, &pipeline);
        let loaded = load_tables(&bytes, COUNT, &pipeline).unwrap();
        let fresh = pipeline.compile_olga(COUNT).unwrap();
        // The loaded evaluator computes the same answers.
        let tree = crate::smoke_tree(&loaded.grammar).unwrap();
        let (vals, _) = loaded.evaluate(&tree, &Default::default()).unwrap();
        let (fresh_vals, _) = fresh.evaluate(&tree, &Default::default()).unwrap();
        let s = loaded.grammar.phylum_by_name("S").unwrap();
        let n = loaded.grammar.attr_by_name(s, "n").unwrap();
        assert_eq!(
            vals.get(&loaded.grammar, tree.root(), n),
            fresh_vals.get(&fresh.grammar, tree.root(), n)
        );
    }

    #[test]
    fn stale_source_is_a_fingerprint_mismatch() {
        let pipeline = Pipeline::new();
        let bytes = emit(COUNT, &pipeline);
        let edited = COUNT.replace("+ 1", "+ 2");
        match load_tables(&bytes, &edited, &pipeline) {
            Err(TablesError::Rejected(ArtifactError::FingerprintMismatch { .. })) => {}
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let pipeline = Pipeline::new();
        let bytes = emit(COUNT, &pipeline);
        let k2 = Pipeline {
            max_oag_k: 2,
            ..Pipeline::new()
        };
        match load_tables(&bytes, COUNT, &k2) {
            Err(TablesError::Rejected(ArtifactError::ConfigMismatch)) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }

    #[test]
    fn cache_miss_then_hit_with_counters() {
        let pipeline = Pipeline::new();
        let dir = std::env::temp_dir().join(format!("fnc2-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut obs = Obs::new();
        let (_, first) = compile_olga_cached(&pipeline, COUNT, &dir, &mut obs).unwrap();
        assert!(matches!(first, CacheOutcome::Miss), "{first:?}");
        assert_eq!(obs.metrics.counter("tables.cache_miss"), 1);
        let (_, second) = compile_olga_cached(&pipeline, COUNT, &dir, &mut obs).unwrap();
        assert!(matches!(second, CacheOutcome::Hit), "{second:?}");
        assert_eq!(obs.metrics.counter("tables.cache_hit"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cached_artifact_is_rejected_and_replaced() {
        let pipeline = Pipeline::new();
        let dir = std::env::temp_dir().join(format!("fnc2-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut obs = Obs::new();
        compile_olga_cached(&pipeline, COUNT, &dir, &mut obs).unwrap();
        let fp = fingerprint_source(COUNT, &pipeline.tables_config());
        let path = cache_path(&dir, fp);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_, outcome) = compile_olga_cached(&pipeline, COUNT, &dir, &mut obs).unwrap();
        assert!(matches!(outcome, CacheOutcome::Rejected(_)), "{outcome:?}");
        assert_eq!(obs.metrics.counter("tables.cache_rejected"), 1);
        // The corrupt artifact went to quarantine, tagged with the
        // rejection class, and a fresh one was written in its place.
        assert_eq!(obs.metrics.counter("tables.quarantined"), 1);
        let store = TableStore::new(&dir, &RealVfs);
        let quarantined = store.quarantined().unwrap();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(std::fs::read(&quarantined[0]).unwrap(), bytes);
        let (_, third) = compile_olga_cached(&pipeline, COUNT, &dir, &mut obs).unwrap();
        assert!(matches!(third, CacheOutcome::Hit), "{third:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_writer_temp_is_swept_on_consultation() {
        let pipeline = Pipeline::new();
        let dir = std::env::temp_dir().join(format!("fnc2-cache-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stranded = dir.join("fnc2-0000000000000001.tbl.tmp-999-0");
        std::fs::write(&stranded, b"half an artifact").unwrap();
        let mut obs = Obs::new();
        compile_olga_cached(&pipeline, COUNT, &dir, &mut obs).unwrap();
        assert!(!stranded.exists(), "orphaned temp survived the sweep");
        assert_eq!(obs.metrics.counter("tables.temps_swept"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_cache_never_fails_compilation() {
        use fnc2_vfs::{FaultVfs, IoFaultKind, IoFaultPlan, PlannedIoFault};
        let pipeline = Pipeline::new();
        let dir = std::env::temp_dir().join(format!("fnc2-cache-faulty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A permanently full disk: every write fails from op 0 on.
        let vfs = FaultVfs::new(IoFaultPlan::with_faults(vec![PlannedIoFault {
            nth: 0,
            kind: IoFaultKind::NoSpace,
            transient: false,
        }]));
        let mut obs = Obs::new();
        let (compiled, outcome) =
            compile_olga_cached_vfs(&pipeline, COUNT, &dir, &vfs, &mut obs).unwrap();
        assert!(matches!(outcome, CacheOutcome::Miss), "{outcome:?}");
        let tree = crate::smoke_tree(&compiled.grammar).unwrap();
        compiled.evaluate(&tree, &Default::default()).unwrap();
        // Nothing but (possibly) an empty directory was left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.map(|e| e.unwrap().path()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "leftovers: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
