//! # fnc2-tables — persistent compiled-table artifacts
//!
//! FNC-2 is a *generator*: the expensive Figure-3 cascade (SNC/DNC/OAG
//! fixpoints, the SNC → l-ordered transformation, visit-sequence
//! generation, space optimization) runs once per grammar, and the
//! generated evaluators then run many times. This crate makes the
//! "once" literal across process boundaries: everything downstream of
//! the OLGA front end is serialized into a versioned, self-describing,
//! fingerprinted binary artifact that later invocations load instead of
//! re-running the cascade.
//!
//! ## What is (and is not) in an artifact
//!
//! Semantic functions are host-language closures and cannot be
//! serialized. An artifact therefore embeds the **OLGA source text** and
//! the loader re-runs the (cheap, linear) front end to rebuild the
//! [`Grammar`] with its closures — while the (potentially exponential)
//! analysis results are deserialized:
//!
//! * the [`VisitSeqs`] with the partitions they follow;
//! * the space optimizer's [`Lifetimes`] and [`SpacePlan`];
//! * the lint findings, and the report's class and [`TransformStats`];
//! * a *verification section*: a canonical encoding of the grammar shape
//!   (everything but the closure bodies), byte-compared against the
//!   rebuilt grammar's at load time.
//!
//! Each is stored once. What a load can rederive cheaply is rederived:
//! the flattened program ([`FlatProgram::new`] over the sequences) and
//! the object index. The slot-compiled rules are not stored either: the
//! shape pins every input of the slot compiler (attribute offsets, rule
//! targets, arguments and constants, function signatures), and the
//! evaluator compiles them once, when it first runs. The class tests'
//! relations and the transformation's plans are not kept: nothing reads
//! them after the sequences are built.
//!
//! ## Trust model
//!
//! An artifact is never trusted: the header carries a magic, a format
//! version, a content fingerprint (FNV-1a over format version, pipeline
//! configuration, and source), and a payload checksum. A re-checksummed
//! payload passes the checksum, so [`Tables::verify_against`] checks
//! every partition, sequence, lifetime table and access table against the
//! rebuilt grammar before anything runs them; an access table needs one
//! read path per argument of the rule its `EVAL` runs, which is all that
//! ties the plan to the slot-compiled rules. Every load failure is a
//! classified [`ArtifactError`] — callers fall back to full
//! recompilation; nothing in this crate panics on hostile input.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use fnc2_ag::Grammar;
use fnc2_analysis::{AgClass, Inclusion, TransformStats};
use fnc2_space::{FlatProgram, Lifetimes, SpacePlan};
use fnc2_vfs::fnv1a;
use fnc2_visit::VisitSeqs;

mod check;
pub mod codec;
pub mod store;
pub mod wire;

use wire::{Dec, Enc, WireError};

pub use codec::encode_grammar_shape;

/// The artifact magic: `FNC2TBL` + a format byte.
pub const MAGIC: [u8; 8] = *b"FNC2TBL\0";

/// Current artifact format version. Bump on ANY change to the wire
/// encoding of any serialized structure — version skew is detected before
/// the payload is touched and rejected as [`ArtifactError::VersionSkew`].
pub const FORMAT_VERSION: u32 = 4;

/// Header size in bytes: magic (8) + version (4) + fingerprint (8) +
/// payload checksum (8) + payload length (8).
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// A classified artifact failure. Every variant is a reason to fall back
/// to full recompilation; none is a reason to panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// The file is shorter than a header, or the payload is cut short.
    Truncated,
    /// The magic bytes are not ours.
    BadMagic,
    /// The artifact was written by a different format version.
    VersionSkew {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The header fingerprint does not match the fingerprint expected for
    /// the source and configuration being compiled (stale artifact).
    FingerprintMismatch {
        /// Fingerprint found in the header.
        found: u64,
        /// Fingerprint of the current source + configuration.
        expected: u64,
    },
    /// The payload checksum does not match (bit rot, truncation past the
    /// header, or tampering).
    ChecksumMismatch,
    /// The payload failed structural decoding.
    Corrupt(String),
    /// The artifact's pipeline configuration differs from the requested
    /// one (e.g. built with another `max_oag_k`).
    ConfigMismatch,
    /// The artifact's grammar shape does not match the grammar it is
    /// being loaded for.
    GrammarMismatch,
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated => write!(f, "artifact truncated"),
            ArtifactError::BadMagic => write!(f, "not a compiled-tables artifact (bad magic)"),
            ArtifactError::VersionSkew { found, expected } => write!(
                f,
                "artifact format version {found} (this build reads {expected})"
            ),
            ArtifactError::FingerprintMismatch { found, expected } => write!(
                f,
                "artifact fingerprint {found:016x} does not match source \
                 fingerprint {expected:016x} (stale artifact)"
            ),
            ArtifactError::ChecksumMismatch => write!(f, "artifact payload checksum mismatch"),
            ArtifactError::Corrupt(detail) => write!(f, "artifact payload corrupt: {detail}"),
            ArtifactError::ConfigMismatch => {
                write!(
                    f,
                    "artifact was built with a different pipeline configuration"
                )
            }
            ArtifactError::GrammarMismatch => {
                write!(f, "artifact was built for a different grammar")
            }
        }
    }
}

impl ArtifactError {
    /// Short stable slug naming the rejection class — used to tag
    /// quarantined artifacts (`fnc2-<fp>.<tag>.tbl`).
    pub fn tag(&self) -> &'static str {
        match self {
            ArtifactError::Truncated => "truncated",
            ArtifactError::BadMagic => "bad-magic",
            ArtifactError::VersionSkew { .. } => "version-skew",
            ArtifactError::FingerprintMismatch { .. } => "stale",
            ArtifactError::ChecksumMismatch => "checksum",
            ArtifactError::Corrupt(_) => "corrupt",
            ArtifactError::ConfigMismatch => "config",
            ArtifactError::GrammarMismatch => "grammar",
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<WireError> for ArtifactError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { .. } => ArtifactError::Truncated,
            other => ArtifactError::Corrupt(other.to_string()),
        }
    }
}

/// The pipeline configuration an artifact was generated under. Both
/// knobs change the analysis results, so both are part of the
/// fingerprint and checked on load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TablesConfig {
    /// Largest `k` tried by the OAG(k) cascade.
    pub max_oag_k: usize,
    /// Partition-reuse strategy of the transformation.
    pub inclusion: Inclusion,
}

impl TablesConfig {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.max_oag_k);
        e.u8(match self.inclusion {
            Inclusion::Equality => 0,
            Inclusion::Long => 1,
        });
    }

    fn decode(d: &mut Dec<'_>) -> Result<TablesConfig, ArtifactError> {
        let max_oag_k = d.usize()?;
        let inclusion = match d.u8()? {
            0 => Inclusion::Equality,
            1 => Inclusion::Long,
            _ => return Err(ArtifactError::Corrupt("bad Inclusion tag".into())),
        };
        Ok(TablesConfig {
            max_oag_k,
            inclusion,
        })
    }

    fn fingerprint_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode(&mut e);
        e.into_bytes()
    }
}

/// Everything downstream of the OLGA front end, ready to serialize or
/// freshly deserialized.
#[derive(Debug)]
pub struct Tables {
    /// The configuration the cascade ran under.
    pub config: TablesConfig,
    /// The OLGA source, when the grammar came from source. Grammars built
    /// programmatically (the fuzz generator) carry `None` and fingerprint
    /// over the grammar shape instead.
    pub source: Option<String>,
    /// Canonical grammar-shape bytes (verification section).
    pub grammar_shape: Vec<u8>,
    /// The smallest class the cascade found.
    pub class: AgClass,
    /// The transformation's statistics, for the report.
    pub transform: TransformStats,
    /// The visit sequences, with the partitions they follow.
    pub seqs: VisitSeqs,
    /// The lifetime analysis.
    pub lifetimes: Lifetimes,
    /// The storage plan.
    pub space_plan: SpacePlan,
    /// The lint findings recorded when the cascade ran, so cached
    /// startups replay diagnostics without re-running the analyses.
    pub lint: Vec<fnc2_lint::Diagnostic>,
}

impl Tables {
    /// Assembles the serializable view of a finished cascade.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        grammar: &Grammar,
        config: TablesConfig,
        source: Option<&str>,
        class: AgClass,
        transform: &TransformStats,
        seqs: &VisitSeqs,
        lifetimes: &Lifetimes,
        space_plan: &SpacePlan,
        lint: &[fnc2_lint::Diagnostic],
    ) -> Tables {
        Tables {
            config,
            source: source.map(str::to_owned),
            grammar_shape: encode_grammar_shape(grammar),
            class,
            transform: transform.clone(),
            seqs: seqs.clone(),
            lifetimes: lifetimes.clone(),
            space_plan: space_plan.clone(),
            lint: lint.to_vec(),
        }
    }

    /// The artifact's content fingerprint: FNV-1a over the format
    /// version, the pipeline configuration, and the OLGA source (or the
    /// grammar shape for sourceless grammars). Any of these changing
    /// invalidates the artifact.
    pub fn fingerprint(&self) -> u64 {
        match self.source.as_deref() {
            Some(src) => fingerprint_source(src, &self.config),
            None => fingerprint_shape(&self.grammar_shape, &self.config),
        }
    }

    /// Serializes to the on-disk artifact format (header + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Enc::new();
        self.config.encode(&mut p);
        match self.source.as_deref() {
            Some(src) => {
                p.bool(true);
                p.str(src);
            }
            None => p.bool(false),
        }
        p.bytes(&self.grammar_shape);
        codec::enc_class(&mut p, self.class);
        codec::enc_transform_stats(&mut p, &self.transform);
        codec::enc_visit_seqs(&mut p, &self.seqs);
        codec::enc_lifetimes(&mut p, &self.lifetimes);
        codec::enc_space_plan(&mut p, &self.space_plan, &self.seqs);
        codec::enc_lint(&mut p, &self.lint);
        let payload = p.into_bytes();

        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.fingerprint().to_le_bytes());
        out.extend_from_slice(&fnv1a(&[&payload]).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserializes an artifact, verifying magic, version, and payload
    /// checksum. The fingerprint is *returned with* the tables (callers
    /// check it against their expected fingerprint — this function cannot,
    /// because the expectation depends on what the caller is compiling).
    pub fn from_bytes(bytes: &[u8]) -> Result<(Tables, u64), ArtifactError> {
        let (fingerprint, payload) = check_header(bytes)?;
        let mut d = Dec::new(payload);
        let config = TablesConfig::decode(&mut d)?;
        let source = if d.bool()? { Some(d.str()?) } else { None };
        let grammar_shape = d.bytes()?.to_vec();
        let class = codec::dec_class(&mut d)?;
        let transform = codec::dec_transform_stats(&mut d)?;
        let seqs = codec::dec_visit_seqs(&mut d)?;
        // The space sections are keyed by the sequences and partitions.
        let lifetimes = codec::dec_lifetimes(&mut d, seqs.partitions())?;
        let space_plan = codec::dec_space_plan(&mut d, &seqs)?;
        let lint = codec::dec_lint(&mut d)?;
        d.finish()?;
        let tables = Tables {
            config,
            source,
            grammar_shape,
            class,
            transform,
            seqs,
            lifetimes,
            space_plan,
            lint,
        };
        Ok((tables, fingerprint))
    }

    /// Verifies this artifact against a rebuilt grammar and derives the
    /// flattened program its space plan indexes. Shape bytes must match
    /// exactly, so the rules the evaluator slot-compiles are the ones the
    /// plan was made for. The partitions and sequences must then be the
    /// grammar's, and the lifetimes and access tables must fit
    /// the program flattened from them: every index the evaluators follow
    /// is checked, so a damaged artifact is [`ArtifactError::Corrupt`]
    /// rather than a panic at evaluation.
    pub fn verify_against(&self, grammar: &Grammar) -> Result<FlatProgram, ArtifactError> {
        if self.grammar_shape != encode_grammar_shape(grammar) {
            return Err(ArtifactError::GrammarMismatch);
        }
        check::sequences(grammar, &self.seqs)?;
        let fp = FlatProgram::new(grammar, &self.seqs);
        check::space(grammar, &fp, &self.lifetimes, &self.space_plan)?;
        Ok(fp)
    }
}

/// Splits and verifies the header, returning `(fingerprint, payload)`.
fn check_header(bytes: &[u8]) -> Result<(u64, &[u8]), ArtifactError> {
    if bytes.len() < HEADER_LEN {
        return Err(ArtifactError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(ArtifactError::VersionSkew {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[28..36].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if payload_len != payload.len() as u64 {
        return Err(ArtifactError::Truncated);
    }
    if fnv1a(&[payload]) != checksum {
        return Err(ArtifactError::ChecksumMismatch);
    }
    Ok((fingerprint, payload))
}

/// The fingerprint for OLGA source under a configuration — what a cache
/// keys artifacts by, and what `--tables` validates against.
pub fn fingerprint_source(source: &str, config: &TablesConfig) -> u64 {
    fnv1a(&[
        &FORMAT_VERSION.to_le_bytes(),
        &config.fingerprint_bytes(),
        b"source:",
        source.as_bytes(),
    ])
}

/// The fingerprint for a sourceless (programmatically built) grammar,
/// over its canonical shape bytes.
pub fn fingerprint_shape(shape: &[u8], config: &TablesConfig) -> u64 {
    fnv1a(&[
        &FORMAT_VERSION.to_le_bytes(),
        &config.fingerprint_bytes(),
        b"shape:",
        shape,
    ])
}

#[cfg(test)]
mod tests {
    use fnc2_analysis::{classify, Inclusion};
    use fnc2_space::analyze_space;
    use fnc2_visit::build_visit_seqs;

    use super::*;

    pub(crate) fn desk_tables() -> (Grammar, Tables) {
        let g = fnc2_corpus::desk();
        let cls = classify(&g, 1, Inclusion::Long).unwrap();
        let lo = cls.l_ordered.as_ref().unwrap();
        let seqs = build_visit_seqs(&g, lo);
        let (_, _, lt, plan) = analyze_space(&g, &seqs);
        let config = TablesConfig {
            max_oag_k: 1,
            inclusion: Inclusion::Long,
        };
        let t = Tables::build(
            &g,
            config,
            None,
            cls.class,
            &lo.stats,
            &seqs,
            &lt,
            &plan,
            &fnc2_lint::lint_grammar(&g, Some(&cls)).diags,
        );
        (g, t)
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let (g, t) = desk_tables();
        let bytes = t.to_bytes();
        let (t2, fp) = Tables::from_bytes(&bytes).unwrap();
        assert_eq!(fp, t.fingerprint());
        t2.verify_against(&g).unwrap();
        // Canonical encoding: re-serializing the decoded tables must
        // reproduce the bytes exactly.
        assert_eq!(t2.to_bytes(), bytes);
    }

    #[test]
    fn every_truncation_is_classified() {
        let (_, t) = desk_tables();
        let bytes = t.to_bytes();
        // Cut at a selection of prefixes across header and payload: each
        // must produce a classified error, never a panic.
        for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let err = Tables::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated
                        | ArtifactError::ChecksumMismatch
                        | ArtifactError::Corrupt(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn version_skew_detected_before_payload() {
        let (_, t) = desk_tables();
        let mut bytes = t.to_bytes();
        bytes[8] = 0xFF;
        assert!(matches!(
            Tables::from_bytes(&bytes).unwrap_err(),
            ArtifactError::VersionSkew { found, expected: FORMAT_VERSION } if found != FORMAT_VERSION
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let (_, t) = desk_tables();
        let mut bytes = t.to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            Tables::from_bytes(&bytes).unwrap_err(),
            ArtifactError::BadMagic
        );
    }

    #[test]
    fn payload_bitflip_fails_checksum() {
        let (_, t) = desk_tables();
        let mut bytes = t.to_bytes();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            Tables::from_bytes(&bytes).unwrap_err(),
            ArtifactError::ChecksumMismatch
        );
    }

    #[test]
    fn different_grammar_rejected_by_shape() {
        let (_, t) = desk_tables();
        let other = fnc2_corpus::binary();
        let bytes = t.to_bytes();
        let (t2, _) = Tables::from_bytes(&bytes).unwrap();
        assert_eq!(
            t2.verify_against(&other).unwrap_err(),
            ArtifactError::GrammarMismatch
        );
    }

    #[test]
    fn fingerprint_tracks_source_and_config() {
        let config = TablesConfig {
            max_oag_k: 1,
            inclusion: Inclusion::Long,
        };
        let a = fingerprint_source("grammar one", &config);
        let b = fingerprint_source("grammar two", &config);
        assert_ne!(a, b);
        let equality = TablesConfig {
            inclusion: Inclusion::Equality,
            ..config
        };
        assert_ne!(a, fingerprint_source("grammar one", &equality));
        let k2 = TablesConfig {
            max_oag_k: 2,
            ..config
        };
        assert_ne!(a, fingerprint_source("grammar one", &k2));
    }

    /// The artifact loader proves identity by re-running the OLGA front
    /// end and byte-comparing the rebuilt grammar's shape, so lowering
    /// must be deterministic run-to-run. The blocks grammar exercises the
    /// rule-model path (`with concat`), which once registered model
    /// functions in hash-map order and broke exactly this equality.
    #[test]
    fn front_end_lowering_is_deterministic() {
        let (a, _) = fnc2_corpus::blocks_olga();
        let (b, _) = fnc2_corpus::blocks_olga();
        assert_eq!(
            codec::encode_grammar_shape(&a),
            codec::encode_grammar_shape(&b),
            "two lowerings of the same OLGA source must agree byte-for-byte"
        );
    }
}
