//! Corruption matrix for the compiled-table artifact loader.
//!
//! Every class of damaged artifact — truncated, bit-flipped fingerprint,
//! version skew, checksum failure, re-checksummed damage to the sequence
//! keys, the partitions, the sequences or the space plan, artifact for a
//! different grammar —
//! must be *classified* (the right [`ArtifactError`] variant) and must
//! *fall back* to full recompilation when it arrives through the cache:
//! never a panic, never a wrong answer, always the `tables.cache_rejected`
//! counter.

use std::path::PathBuf;

use fnc2::ag::{AttrId, Grammar, ONode, Occ, ProductionId};
use fnc2::analysis::TotalOrder;
use fnc2::artifact::{
    cache_path, compile_olga_cached, emit_tables, load_tables, CacheOutcome, TablesError,
};
use fnc2::obs::Obs;
use fnc2::space::{ReadPath, StepAccess, WritePath};
use fnc2::tables::{fingerprint_source, ArtifactError, Tables, HEADER_LEN};
use fnc2::visit::{Instr, VisitSeq, VisitSeqs};
use fnc2::Pipeline;
use fnc2_corpus::{BLOCKS_OLGA_LIST, DESK_OLGA, MINIPASCAL_OLGA};

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

const DEPTH: &str = r#"
attribute grammar depth;
  phylum S;
  operator leaf : S ::= ;
  operator node : S ::= S;
  inherited d : int of S;
  for node { S$2.d := S$1.d + 1; }
end
"#;

fn emit(source: &str) -> Vec<u8> {
    let pipeline = Pipeline::new();
    let compiled = pipeline.compile_olga(source).unwrap();
    emit_tables(&compiled, &pipeline, source)
}

/// Loads `bytes` as an artifact for [`COUNT`] and returns the rejection.
fn rejection(bytes: &[u8]) -> ArtifactError {
    match load_tables(bytes, COUNT, &Pipeline::new()) {
        Err(TablesError::Rejected(e)) => e,
        other => panic!("expected a classified rejection, got {other:?}"),
    }
}

#[test]
fn every_truncation_point_is_classified() {
    let bytes = emit(COUNT);
    // Every prefix must produce a classified error, not a panic. (The
    // loader sees arbitrary prefixes after a crashed or racing writer.)
    for len in 0..bytes.len() {
        let e = rejection(&bytes[..len]);
        assert!(
            matches!(
                e,
                ArtifactError::Truncated
                    | ArtifactError::ChecksumMismatch
                    | ArtifactError::Corrupt(_)
            ),
            "prefix of {len} bytes: unexpected classification {e:?}"
        );
    }
}

#[test]
fn minipascal_artifacts_are_byte_identical() {
    // Each `emit` compiles afresh; several runs, so a hash-ordered table
    // shows up as a mismatch.
    let first = emit(MINIPASCAL_OLGA);
    for _ in 0..2 {
        assert!(emit(MINIPASCAL_OLGA) == first);
    }
}

/// The artifact of `g`, compiled without an OLGA source, as
/// [`emit_tables`] builds one for a source.
fn emit_grammar(g: Grammar) -> Vec<u8> {
    let pipeline = Pipeline::new();
    let c = pipeline.compile(g).unwrap();
    let space = c.space.as_ref().unwrap();
    let transform = c.report.transform.clone().unwrap_or_default();
    let (seqs, lifetimes, plan) = (&c.seqs, &space.lifetimes, &space.plan);
    let (class, lint) = (c.report.class, &c.lint.diags);
    let config = pipeline.tables_config();
    Tables::build(
        &c.grammar, config, None, class, &transform, seqs, lifetimes, plan, lint,
    )
    .to_bytes()
}

/// Pins the artifact bytes of desk, blocks and mini-Pascal, and of
/// `partition_blowup(4, 3)`, whose productions have up to eight sequences
/// each, so a change to how the tables are laid out in memory can be shown
/// to write what the old layout wrote. Each artifact also re-encodes to
/// itself.
#[test]
fn artifacts_match_their_pinned_digests() {
    let blowup = emit_grammar(fnc2_corpus::partition_blowup(4, 3));
    let keys = Tables::from_bytes(&blowup).unwrap().0.seqs.keys();
    let shared = keys.windows(2).filter(|w| w[0].0 == w[1].0).count();
    assert_eq!(
        (keys.len(), shared),
        (23, 15),
        "sequences, and those sharing a production"
    );
    let [desk, blocks, minipascal] = [DESK_OLGA, BLOCKS_OLGA_LIST, MINIPASCAL_OLGA].map(emit);
    for (name, bytes, want) in [
        ("desk", desk, 0x5e5e_3d21_fbc4_b53b_u64),
        ("blocks", blocks, 0xb065_b07b_8b91_4b21),
        ("minipascal", minipascal, 0x0619_b022_c33a_e6ba),
        ("partition_blowup(4, 3)", blowup, 0xc0ce_e808_b808_bf53),
    ] {
        let got = fnc2::vfs::fnv1a(&[&bytes]);
        assert_eq!(got, want, "{name}: {} B, digest {got:#018x}", bytes.len());
        assert!(redamaged(&bytes, |_| {}) == bytes, "{name}: re-encoding");
    }
}

#[test]
fn flipped_fingerprint_byte_is_a_fingerprint_mismatch() {
    let bytes = emit(COUNT);
    // The fingerprint field sits at header offsets 12..20 and is
    // deliberately outside the payload checksum, so damage here must be
    // caught by the fingerprint comparison itself.
    for off in 12..20 {
        let mut b = bytes.clone();
        b[off] ^= 0x01;
        match rejection(&b) {
            ArtifactError::FingerprintMismatch { .. } => {}
            other => panic!("offset {off}: expected FingerprintMismatch, got {other:?}"),
        }
    }
    // Sanity: the unflipped artifact still loads.
    assert!(load_tables(&bytes, COUNT, &Pipeline::new()).is_ok());
}

#[test]
fn wrong_format_version_is_version_skew() {
    let mut bytes = emit(COUNT);
    bytes[8] ^= 0xFF; // low byte of the little-endian format version
    match rejection(&bytes) {
        ArtifactError::VersionSkew { found, expected } => {
            assert_eq!(expected, fnc2::tables::FORMAT_VERSION);
            assert_ne!(found, expected);
        }
        other => panic!("expected VersionSkew, got {other:?}"),
    }
}

#[test]
fn payload_damage_is_a_checksum_mismatch() {
    let mut bytes = emit(COUNT);
    let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
    bytes[mid] ^= 0x40;
    match rejection(&bytes) {
        ArtifactError::ChecksumMismatch => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

/// Decodes `bytes`, lets `damage` edit the tables and encodes them again:
/// the payload changes but its checksum is recomputed, so only the
/// decoder's and the loader's own checks can reject it.
fn redamaged(bytes: &[u8], damage: impl FnOnce(&mut Tables)) -> Vec<u8> {
    let (mut tables, _) = Tables::from_bytes(bytes).unwrap();
    damage(&mut tables);
    tables.to_bytes()
}

/// Rebuilds `t`'s visit sequences after `edit` changed them or their
/// partitions.
fn edit_seqs(t: &mut Tables, edit: impl FnOnce(&mut Vec<VisitSeq>, &mut Vec<Vec<TotalOrder>>)) {
    let mut seqs: Vec<VisitSeq> = t.seqs.iter().cloned().collect();
    let mut partitions = t.seqs.partitions().to_vec();
    edit(&mut seqs, &mut partitions);
    t.seqs = VisitSeqs::from_parts(seqs, partitions);
}

/// The number of [`COUNT`]'s one sequence of `node : S ::= S`, which is
/// `VISIT 1,1` (partition 0), `EVAL S$1.n`.
const NODE: usize = 1;

/// Lets `edit` change the segments of `node`'s sequence.
fn edit_node(t: &mut Tables, edit: impl FnOnce(&mut Vec<Vec<Instr>>)) {
    edit_seqs(t, |seqs, _| {
        assert_eq!(seqs[NODE].production, ProductionId::from_raw(1));
        let segments = &mut seqs[NODE].segments;
        assert_eq!(segments.len(), 1);
        assert!(matches!(
            segments[0][..],
            [Instr::Visit { .. }, Instr::Eval(_)]
        ));
        edit(segments);
    });
}

/// Lets `edit` change the access step of `node`'s `EVAL`.
fn edit_node_eval_step(t: &mut Tables, edit: impl FnOnce(&mut StepAccess, usize)) {
    let n_variables = t.space_plan.n_variables;
    let steps = &mut t.space_plan.access[NODE].steps;
    // BEGIN 1, VISIT 1,1, EVAL S$1.n, LEAVE 1.
    assert!(steps[2].write.is_some());
    edit(&mut steps[2], n_variables);
}

/// A named edit of decoded tables.
type Damage = (&'static str, fn(&mut Tables));

/// Re-encodes [`COUNT`]'s artifact under each damage and asserts that the
/// load calls it `Corrupt`.
fn assert_each_corrupt(cases: &[Damage]) {
    let good = emit(COUNT);
    assert!(redamaged(&good, |_| {}) == good, "re-encoding is canonical");
    for &(what, damage) in cases {
        let bytes = redamaged(&good, damage);
        assert!(bytes != good, "{what}: the damage changed the payload");
        match rejection(&bytes) {
            ArtifactError::Corrupt(_) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn re_checksummed_sequence_key_damage_is_corrupt() {
    // A sequence of a production the grammar does not have, added to every
    // section keyed by sequences alike, so that only the check against the
    // rebuilt grammar can tell.
    assert_each_corrupt(&[("out-of-range key", |t| {
        edit_seqs(t, |seqs, _| {
            let mut extra = seqs[NODE].clone();
            extra.production = ProductionId::from_raw(7);
            seqs.push(extra);
        });
        let access = t.space_plan.access[NODE].clone();
        t.space_plan.access.push(access);
    })]);
}

#[test]
fn re_checksummed_eliminated_copies_out_of_order_are_corrupt() {
    // The planner lists its eliminated copies strictly increasing; a
    // repeated one is out of that order.
    assert_each_corrupt(&[("repeated eliminated copy", |t| {
        let copy = (
            ProductionId::from_raw(1),
            ONode::Attr(Occ::lhs(AttrId::from_raw(0))),
        );
        t.space_plan.eliminated = vec![copy; 2];
    })]);
}

/// Damage the decoder cannot see: each of these artifacts decodes, and
/// evaluating it would index past a child, a partition, a segment, a rule
/// or a variable, or lower an `EVAL` whose read paths do not match its
/// rule's arguments (nothing but this check ties the plan to the rules the
/// evaluator slot-compiles).
#[test]
fn re_checksummed_sequence_and_plan_damage_is_corrupt() {
    assert_each_corrupt(&[
        ("VISIT child 9", |t| {
            edit_node(t, |s| {
                if let Instr::Visit { child, .. } = &mut s[0][0] {
                    *child = 9;
                }
            })
        }),
        ("VISIT partition 5", |t| {
            edit_node(t, |s| {
                if let Instr::Visit { partition, .. } = &mut s[0][0] {
                    *partition = 5;
                }
            })
        }),
        ("EVAL of a node no rule defines", |t| {
            edit_node(t, |s| {
                if let Instr::Eval(ONode::Attr(lhs)) = s[0][1] {
                    s[0].push(Instr::Eval(ONode::Attr(Occ::new(1, lhs.attr))));
                }
            })
        }),
        ("one segment too few", |t| edit_node(t, |s| _ = s.pop())),
        ("partition without an attribute", |t| {
            edit_seqs(t, |_, partitions| partitions[0][0].visits[0].syn.clear())
        }),
        ("EVAL step without a write", |t| {
            edit_node_eval_step(t, |step, _| step.write = None)
        }),
        ("write past the variables", |t| {
            edit_node_eval_step(t, |step, n| step.write = Some(WritePath::Variable(n + 5)))
        }),
        ("one read path more than the rule's arguments", |t| {
            edit_node_eval_step(t, |step, _| step.args.push(ReadPath::Node))
        }),
        ("one read path fewer than the rule's arguments", |t| {
            edit_node_eval_step(t, |step, _| assert!(step.args.pop().is_some()))
        }),
    ]);
}

#[test]
fn artifact_for_a_different_grammar_is_rejected() {
    // A perfectly valid artifact — for someone else's grammar. The source
    // fingerprint catches it before any front-end work runs.
    let depth_bytes = emit(DEPTH);
    match rejection(&depth_bytes) {
        ArtifactError::FingerprintMismatch { .. } => {}
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fnc2-tbl-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Plants `bytes` at the cache slot for [`COUNT`] and runs the cached
/// compile; returns the outcome, the rejected-counter value, and the
/// compiled result of the fallback.
fn run_with_planted(tag: &str, bytes: &[u8]) -> (CacheOutcome, u64) {
    let pipeline = Pipeline::new();
    let dir = scratch_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let fp = fingerprint_source(COUNT, &pipeline.tables_config());
    std::fs::write(cache_path(&dir, fp), bytes).unwrap();
    let mut obs = Obs::new();
    let (compiled, outcome) = compile_olga_cached(&pipeline, COUNT, &dir, &mut obs).unwrap();
    // Whatever the damage, the fallback must produce a working compile.
    let tree = fnc2::smoke_tree(&compiled.grammar).unwrap();
    compiled.evaluate(&tree, &Default::default()).unwrap();
    let rejected = obs.metrics.counter("tables.cache_rejected");
    let _ = std::fs::remove_dir_all(&dir);
    (outcome, rejected)
}

#[test]
fn cache_falls_back_cleanly_on_each_damage_class() {
    let good = emit(COUNT);

    // Truncated mid-payload.
    let (outcome, rejected) = run_with_planted("trunc", &good[..good.len() / 2]);
    assert!(
        matches!(outcome, CacheOutcome::Rejected(ArtifactError::Truncated)),
        "{outcome:?}"
    );
    assert_eq!(rejected, 1);

    // Flipped fingerprint byte.
    let mut b = good.clone();
    b[15] ^= 0x08;
    let (outcome, rejected) = run_with_planted("fp", &b);
    assert!(
        matches!(
            outcome,
            CacheOutcome::Rejected(ArtifactError::FingerprintMismatch { .. })
        ),
        "{outcome:?}"
    );
    assert_eq!(rejected, 1);

    // Wrong format version.
    let mut b = good.clone();
    b[8] = b[8].wrapping_add(1);
    let (outcome, rejected) = run_with_planted("ver", &b);
    assert!(
        matches!(
            outcome,
            CacheOutcome::Rejected(ArtifactError::VersionSkew { .. })
        ),
        "{outcome:?}"
    );
    assert_eq!(rejected, 1);

    // Valid artifact, wrong grammar, planted at COUNT's cache slot.
    let (outcome, rejected) = run_with_planted("xgrammar", &emit(DEPTH));
    assert!(
        matches!(
            outcome,
            CacheOutcome::Rejected(ArtifactError::FingerprintMismatch { .. })
        ),
        "{outcome:?}"
    );
    assert_eq!(rejected, 1);

    // Zero-length file (crashed writer).
    let (outcome, rejected) = run_with_planted("empty", &[]);
    assert!(
        matches!(outcome, CacheOutcome::Rejected(ArtifactError::Truncated)),
        "{outcome:?}"
    );
    assert_eq!(rejected, 1);
}
