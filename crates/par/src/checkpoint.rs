//! Checkpointed batch evaluation: an append-only journal of completed
//! tree indices so a killed or faulted batch resumes instead of starting
//! over.
//!
//! ## Journal format
//!
//! ```text
//! header   (20 bytes)  magic "FNC2CKPT" · format version u32 LE ·
//!                      batch fingerprint u64 LE
//! record   (25 bytes)  index u64 LE · outcome tag u8 · value digest
//!                      u64 LE · checksum u64 LE
//! ```
//!
//! Every record carries its own FNV-1a checksum *bound to the batch
//! fingerprint*, so a record can neither be torn nor transplanted from a
//! different batch without detection. Records are appended in groups of
//! [`JOURNAL_FLUSH_EVERY`] as trees complete (unsynced — losing an
//! unflushed or unsynced tail merely re-evaluates those trees);
//! [`Checkpoint::open`] tolerates a torn tail by truncating at the first
//! bad record and immediately rewriting the journal atomically
//! ([`Checkpoint::compact`]: temp file + rename).
//!
//! ## Resume contract
//!
//! The journal stores a per-tree **value digest** ([`outcome_digest`]:
//! a structural hash over every attribute cell of the decoration, plus
//! the evaluation stats), not the values themselves. [`CkptBatchReport::records`]
//! is therefore bit-identical between an uninterrupted run and any
//! kill → resume sequence — the crash-recovery harness in `fnc2-fuzz`
//! asserts exactly that for every injected crash point.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use fnc2_ag::{Tree, Value};
use fnc2_guard::{EvalBudget, FaultPlan};
use fnc2_obs::{Key, Recorder};
use fnc2_vfs::{fnv1a, Vfs, VfsError};
use fnc2_visit::{Evaluator, RootInputs};

use crate::{Batch, BatchStats, TreeOutcome};

/// Journal magic bytes.
pub const CKPT_MAGIC: [u8; 8] = *b"FNC2CKPT";

/// Journal format version; bump on any wire change — including the
/// [`outcome_digest`] algorithm, which is as much a part of the format
/// as the record layout (a resumed record's digest is compared, never
/// recomputed).
pub const CKPT_VERSION: u32 = 2;

/// Header size: magic (8) + version (4) + batch fingerprint (8).
pub const CKPT_HEADER_LEN: usize = 8 + 4 + 8;

/// Record size: index (8) + tag (1) + digest (8) + checksum (8).
pub const CKPT_RECORD_LEN: usize = 8 + 1 + 8 + 8;

/// Records the batch driver buffers before flushing them to the journal
/// in one write. Appends are unsynced either way, so grouping only
/// widens the kill-window from one record to one group (~400 bytes) —
/// but it cuts the journal syscall count by the group size, which keeps
/// checkpointing off the batch hot path.
pub const JOURNAL_FLUSH_EVERY: usize = 16;

/// Why a checkpoint journal could not be used. `Io` is a storage fault
/// (exit code 2 territory); the rest are journal-validation failures the
/// CLI reports as diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// A classified storage fault from the [`Vfs`] backend.
    Io(VfsError),
    /// The file is not a checkpoint journal.
    BadMagic,
    /// The journal was written by a different format version.
    VersionSkew {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The journal belongs to a different batch (seed / grammar count /
    /// tree count / configuration).
    FingerprintMismatch {
        /// Fingerprint found in the header.
        found: u64,
        /// Fingerprint of the requested batch.
        expected: u64,
    },
    /// The file is shorter than a journal header.
    Truncated,
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "{e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint journal (bad magic)"),
            CkptError::VersionSkew { found, expected } => write!(
                f,
                "checkpoint journal format version {found} (this build reads {expected})"
            ),
            CkptError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint journal fingerprint {found:016x} does not match this \
                 batch ({expected:016x}) — it records a different run"
            ),
            CkptError::Truncated => write!(f, "checkpoint journal truncated (no header)"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<VfsError> for CkptError {
    fn from(e: VfsError) -> Self {
        CkptError::Io(e)
    }
}

/// The classified outcome class a journal record stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CkptOutcome {
    /// The tree decorated successfully.
    Ok,
    /// Evaluation failed with a (non-budget) classified error.
    Failed,
    /// Evaluation panicked; the panic was caught at the tree boundary.
    Panicked,
    /// Evaluation tripped a budget or an injected fault.
    BudgetExceeded,
}

impl CkptOutcome {
    fn tag(self) -> u8 {
        match self {
            CkptOutcome::Ok => 0,
            CkptOutcome::Failed => 1,
            CkptOutcome::Panicked => 2,
            CkptOutcome::BudgetExceeded => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<CkptOutcome> {
        match tag {
            0 => Some(CkptOutcome::Ok),
            1 => Some(CkptOutcome::Failed),
            2 => Some(CkptOutcome::Panicked),
            3 => Some(CkptOutcome::BudgetExceeded),
            _ => None,
        }
    }

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CkptOutcome::Ok => "ok",
            CkptOutcome::Failed => "failed",
            CkptOutcome::Panicked => "panicked",
            CkptOutcome::BudgetExceeded => "budget-exceeded",
        }
    }

    /// Classify a live [`TreeOutcome`].
    pub fn classify(outcome: &TreeOutcome) -> CkptOutcome {
        match outcome {
            TreeOutcome::Ok(..) => CkptOutcome::Ok,
            TreeOutcome::Failed(e) if e.is_budget() => CkptOutcome::BudgetExceeded,
            TreeOutcome::Failed(_) => CkptOutcome::Failed,
            TreeOutcome::Panicked(_) => CkptOutcome::Panicked,
        }
    }
}

impl fmt::Display for CkptOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One journal record: a completed tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CkptRecord {
    /// Global tree index within the batch.
    pub index: u64,
    /// The outcome class.
    pub outcome: CkptOutcome,
    /// Deterministic digest of the outcome ([`outcome_digest`]).
    pub digest: u64,
}

fn record_checksum(index: u64, tag: u8, digest: u64, fingerprint: u64) -> u64 {
    fnv1a(&[
        &index.to_le_bytes(),
        &[tag],
        &digest.to_le_bytes(),
        &fingerprint.to_le_bytes(),
    ])
}

impl CkptRecord {
    fn encode(&self, fingerprint: u64, out: &mut Vec<u8>) {
        let tag = self.outcome.tag();
        out.extend_from_slice(&self.index.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(&self.digest.to_le_bytes());
        out.extend_from_slice(
            &record_checksum(self.index, tag, self.digest, fingerprint).to_le_bytes(),
        );
    }

    fn decode(bytes: &[u8], fingerprint: u64) -> Option<CkptRecord> {
        let index = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let tag = bytes[8];
        let digest = u64::from_le_bytes(bytes[9..17].try_into().unwrap());
        let sum = u64::from_le_bytes(bytes[17..25].try_into().unwrap());
        if sum != record_checksum(index, tag, digest, fingerprint) {
            return None;
        }
        Some(CkptRecord {
            index,
            outcome: CkptOutcome::from_tag(tag)?,
            digest,
        })
    }
}

/// A streaming word-at-a-time hasher (rotate-xor-multiply over 64-bit
/// lanes). The digest is computed on the worker threads right after
/// evaluation, so it sits on the batch hot path: it must neither
/// re-serialize the decoration (`Debug`-formatting every value into a
/// `String` costs about as much as evaluating the tree did) nor chew
/// through it one byte at a time — a 400-node decoration is tens of
/// kilobytes of value payload per tree.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(tail));
        }
        // Length folds in last so "abc" and "abc\0" cannot collide.
        self.word(bytes.len() as u64);
    }

    fn u64(&mut self, v: u64) {
        self.word(v);
    }
}

/// Per-outcome memo of structural value digests, keyed by allocation
/// address. A decoration built by copy rules shares `Arc`s heavily —
/// evaluation pays O(1) per copy, so re-walking a shared environment
/// list at every node that references it would make the digest
/// asymptotically more expensive than the evaluation it records. The
/// digest itself depends only on content (the address is only a cache
/// key), so two bit-identical decorations with different sharing still
/// digest equal.
#[derive(Default)]
struct ValueDigests {
    seen: std::collections::HashMap<usize, u64>,
}

impl ValueDigests {
    /// Standalone structural digest of one value: a variant tag, then
    /// the payload, with lengths prefixed so concatenation ambiguities
    /// cannot collide (`["ab"]` vs `["a","b"]`). Composite children
    /// contribute their own digests, which is what makes the memo sound.
    fn digest(&mut self, v: &Value) -> u64 {
        let mut h = Fnv::new();
        match v {
            Value::Unit => h.bytes(&[0]),
            Value::Bool(b) => h.bytes(&[1, u8::from(*b)]),
            Value::Int(i) => {
                h.bytes(&[2]);
                h.u64(*i as u64);
            }
            Value::Real(r) => {
                h.bytes(&[3]);
                h.u64(r.to_bits());
            }
            Value::Str(s) => {
                let key = std::sync::Arc::as_ptr(s) as *const u8 as usize;
                if let Some(&d) = self.seen.get(&key) {
                    return d;
                }
                h.bytes(&[4]);
                h.u64(s.len() as u64);
                h.bytes(s.as_bytes());
                self.seen.insert(key, h.0);
            }
            Value::List(xs) => {
                let key = xs.addr();
                if let Some(&d) = self.seen.get(&key) {
                    return d;
                }
                h.bytes(&[5]);
                h.u64(xs.len() as u64);
                for x in xs.iter() {
                    let d = self.digest(x);
                    h.u64(d);
                }
                self.seen.insert(key, h.0);
            }
            Value::Tuple(xs) => {
                let key = std::sync::Arc::as_ptr(xs) as usize;
                if let Some(&d) = self.seen.get(&key) {
                    return d;
                }
                h.bytes(&[6]);
                h.u64(xs.len() as u64);
                for x in xs.iter() {
                    let d = self.digest(x);
                    h.u64(d);
                }
                self.seen.insert(key, h.0);
            }
            Value::Map(m) => {
                let key = std::sync::Arc::as_ptr(m) as usize;
                if let Some(&d) = self.seen.get(&key) {
                    return d;
                }
                h.bytes(&[7]);
                h.u64(m.len() as u64);
                for (k, x) in m.iter() {
                    h.u64(k.len() as u64);
                    h.bytes(k.as_bytes());
                    let d = self.digest(x);
                    h.u64(d);
                }
                self.seen.insert(key, h.0);
            }
            Value::Term(t) => {
                let key = std::sync::Arc::as_ptr(t) as usize;
                if let Some(&d) = self.seen.get(&key) {
                    return d;
                }
                h.bytes(&[8]);
                h.u64(t.op.len() as u64);
                h.bytes(t.op.as_bytes());
                h.u64(t.children.len() as u64);
                for c in &t.children {
                    let d = self.digest(c);
                    h.u64(d);
                }
                self.seen.insert(key, h.0);
            }
        }
        h.0
    }
}

/// Deterministic digest of one tree's outcome: a structural hash of
/// every attribute cell of the decoration in dense arena order (plus the
/// evaluation stats) for successes, or of the classified error / panic
/// message otherwise.
///
/// Two runs that produced bit-identical decorations produce equal
/// digests, whatever the thread count, scheduling or value sharing — the
/// bit-identity currency of the resume contract.
pub fn outcome_digest(outcome: &TreeOutcome) -> u64 {
    let mut h = Fnv::new();
    match outcome {
        TreeOutcome::Ok(values, stats) => {
            let mut memo = ValueDigests::default();
            h.bytes(b"ok;");
            for cell in values.cells() {
                match cell {
                    Some(v) => {
                        h.bytes(&[1]);
                        let d = memo.digest(v);
                        h.u64(d);
                    }
                    None => h.bytes(&[0]),
                }
            }
            // The journal pins the node-storage counters' historical bytes.
            let (v, n, c) = (stats.visits, stats.evals, stats.copies);
            let stats = format!("EvalStats {{ visits: {v}, evals: {n}, copies: {c} }}");
            h.bytes(stats.as_bytes());
        }
        TreeOutcome::Failed(e) => {
            h.bytes(format!("failed;{e}").as_bytes());
        }
        TreeOutcome::Panicked(m) => {
            h.bytes(format!("panicked;{m}").as_bytes());
        }
    }
    h.0
}

/// What [`Checkpoint::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResumeInfo {
    /// Valid records recovered from the journal.
    pub resumed: usize,
    /// Bytes of torn/corrupt tail dropped.
    pub torn_bytes: usize,
    /// Whether the journal was compacted (rewritten atomically) to shed
    /// the torn tail.
    pub compacted: bool,
}

/// An open batch checkpoint journal.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    fingerprint: u64,
    done: BTreeMap<u64, CkptRecord>,
}

impl Checkpoint {
    /// Start a fresh journal at `path` for the batch identified by
    /// `fingerprint`, truncating anything already there.
    pub fn create(vfs: &dyn Vfs, path: &Path, fingerprint: u64) -> Result<Checkpoint, CkptError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                vfs.create_dir_all(parent)?;
            }
        }
        let ckpt = Checkpoint {
            path: path.to_path_buf(),
            fingerprint,
            done: BTreeMap::new(),
        };
        vfs.write(path, &ckpt.header_bytes())?;
        Ok(ckpt)
    }

    /// Open an existing journal, validate it against `fingerprint`, and
    /// recover every intact record. A torn or corrupt tail (the signature
    /// of a crash mid-append) is dropped and the journal immediately
    /// compacted; a wrong magic/version/fingerprint is an error — a
    /// journal is never silently reinterpreted for a different batch.
    pub fn open(
        vfs: &dyn Vfs,
        path: &Path,
        fingerprint: u64,
    ) -> Result<(Checkpoint, ResumeInfo), CkptError> {
        let bytes = vfs.read(path)?;
        if bytes.len() < CKPT_HEADER_LEN {
            return Err(CkptError::Truncated);
        }
        if bytes[0..8] != CKPT_MAGIC {
            return Err(CkptError::BadMagic);
        }
        let found_version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if found_version != CKPT_VERSION {
            return Err(CkptError::VersionSkew {
                found: found_version,
                expected: CKPT_VERSION,
            });
        }
        let found_fp = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        if found_fp != fingerprint {
            return Err(CkptError::FingerprintMismatch {
                found: found_fp,
                expected: fingerprint,
            });
        }
        let mut done = BTreeMap::new();
        let mut pos = CKPT_HEADER_LEN;
        while pos + CKPT_RECORD_LEN <= bytes.len() {
            match CkptRecord::decode(&bytes[pos..pos + CKPT_RECORD_LEN], fingerprint) {
                Some(r) => {
                    done.insert(r.index, r);
                    pos += CKPT_RECORD_LEN;
                }
                // First bad checksum: everything from here is torn tail.
                None => break,
            }
        }
        let torn_bytes = bytes.len() - pos;
        let ckpt = Checkpoint {
            path: path.to_path_buf(),
            fingerprint,
            done,
        };
        let compacted = torn_bytes > 0;
        if compacted {
            ckpt.compact(vfs)?;
        }
        let info = ResumeInfo {
            resumed: ckpt.done.len(),
            torn_bytes,
            compacted,
        };
        Ok((ckpt, info))
    }

    fn header_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CKPT_HEADER_LEN);
        out.extend_from_slice(&CKPT_MAGIC);
        out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out
    }

    /// Append one completed-tree record. Unsynced by design: a tail lost
    /// to a power cut is merely re-evaluated on resume.
    pub fn append(&mut self, vfs: &dyn Vfs, record: CkptRecord) -> Result<(), CkptError> {
        self.append_many(vfs, &[record])
    }

    /// Append a group of completed-tree records with a single write. The
    /// batch driver flushes in groups of [`JOURNAL_FLUSH_EVERY`] so the
    /// journal costs one `append` syscall per group, not per tree; the
    /// crash window widens from one record to one group, which resume
    /// semantics already cover (a lost tail is re-evaluated).
    pub fn append_many(&mut self, vfs: &dyn Vfs, records: &[CkptRecord]) -> Result<(), CkptError> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::with_capacity(CKPT_RECORD_LEN * records.len());
        for record in records {
            record.encode(self.fingerprint, &mut buf);
        }
        vfs.append(&self.path, &buf)?;
        for record in records {
            self.done.insert(record.index, *record);
        }
        Ok(())
    }

    /// Atomically rewrite the journal from the in-memory record set
    /// (header + records in index order): temp file next to the journal,
    /// synced write, rename. Sheds torn tails and duplicate records.
    pub fn compact(&self, vfs: &dyn Vfs) -> Result<(), CkptError> {
        let mut bytes = self.header_bytes();
        for record in self.done.values() {
            record.encode(self.fingerprint, &mut bytes);
        }
        let tmp = self.path.with_file_name(format!(
            "{}.tmp-{}",
            self.path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            std::process::id()
        ));
        if let Err(e) = vfs.write(&tmp, &bytes) {
            let _ = vfs.remove_file(&tmp);
            return Err(e.into());
        }
        if let Err(e) = vfs.rename(&tmp, &self.path) {
            let _ = vfs.remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The batch fingerprint this journal is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Is `index` already journaled?
    pub fn contains(&self, index: u64) -> bool {
        self.done.contains_key(&index)
    }

    /// The record for `index`, if journaled.
    pub fn get(&self, index: u64) -> Option<CkptRecord> {
        self.done.get(&index).copied()
    }

    /// Number of journaled records.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Is the journal empty?
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// All records, in index order.
    pub fn records(&self) -> impl Iterator<Item = &CkptRecord> {
        self.done.values()
    }
}

/// What a checkpointed batch run produced.
#[derive(Debug)]
pub struct CkptBatchReport {
    /// One record per tree, in batch-index order — **bit-identical**
    /// between an uninterrupted run and any kill → resume sequence.
    pub records: Vec<CkptRecord>,
    /// `fresh[i]` carries tree `i`'s live outcome when it was evaluated
    /// in *this* run; `None` when the journal already had it.
    pub fresh: Vec<Option<TreeOutcome>>,
    /// Trees skipped because the journal already had them.
    pub resumed: u64,
    /// Pool statistics for the trees evaluated in this run.
    pub stats: BatchStats,
    /// Tree re-enqueues: one per failed attempt that was retried.
    pub retries: u64,
    /// Panics caught at the tree boundary (over all attempts).
    pub panics_caught: u64,
    /// Budget/fault trips observed (over all attempts).
    pub budget_exceeded: u64,
}

impl CkptBatchReport {
    /// `(ok, failed, panicked, budget_exceeded)` final counts over the
    /// whole batch, resumed trees included.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for r in &self.records {
            match r.outcome {
                CkptOutcome::Ok => c.0 += 1,
                CkptOutcome::Failed => c.1 += 1,
                CkptOutcome::Panicked => c.2 += 1,
                CkptOutcome::BudgetExceeded => c.3 += 1,
            }
        }
        c
    }
}

/// The journal a checkpointed batch appends each terminal outcome to,
/// shared by its workers: records are buffered into groups, and the
/// first append failure aborts the batch like the crash it is.
pub(crate) struct Journal<'c> {
    vfs: &'c dyn Vfs,
    index_base: u64,
    state: Mutex<JournalState<'c>>,
    aborted: AtomicBool,
}

struct JournalState<'c> {
    ckpt: &'c mut Checkpoint,
    pending: Vec<CkptRecord>,
    error: Option<CkptError>,
}

impl JournalState<'_> {
    fn flush(&mut self, vfs: &dyn Vfs) -> Result<(), CkptError> {
        let r = self.ckpt.append_many(vfs, &self.pending);
        self.pending.clear();
        r
    }
}

impl Journal<'_> {
    /// True once an append failed; workers stop taking tasks.
    pub(crate) fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Journals tree `i`'s terminal outcome before it counts as done, so
    /// the journal never claims more than the disk has. Records flush in
    /// groups of [`JOURNAL_FLUSH_EVERY`].
    pub(crate) fn append(&self, i: usize, o: &TreeOutcome) {
        let record = CkptRecord {
            index: self.index_base + i as u64,
            outcome: CkptOutcome::classify(o),
            digest: outcome_digest(o),
        };
        let mut js = self.state.lock().unwrap();
        if js.error.is_some() {
            return;
        }
        js.pending.push(record);
        if js.pending.len() >= JOURNAL_FLUSH_EVERY {
            if let Err(e) = js.flush(self.vfs) {
                js.error = Some(e);
                self.aborted.store(true, Ordering::Release);
            }
        }
    }
}

/// The checkpointed batch driver: like
/// [`batch_evaluate_guarded_recorded`](crate::batch_evaluate_guarded_recorded),
/// but every terminal outcome is journaled through `ckpt` as it lands,
/// trees already journaled (under global index `index_base + i`) are
/// skipped, and retries of failed attempts wait out a bounded exponential
/// backoff (`backoff_ms` base, capped) before re-running.
///
/// On success the journal is compacted to its canonical form. A journal
/// append failure aborts the batch with the classified storage fault —
/// exactly what a crash at that point would look like to a later resume.
///
/// Counters and spans: everything the guarded driver records, plus
/// [`Key::ParCkptAppended`] and [`Key::ParCkptResumed`].
#[allow(clippy::too_many_arguments)]
pub fn batch_evaluate_checkpointed_recorded<R: Recorder>(
    evaluator: &Evaluator<'_>,
    trees: &[Tree],
    inputs: &RootInputs,
    threads: usize,
    budget: &EvalBudget,
    retries: u32,
    plan: Option<&FaultPlan>,
    backoff_ms: u64,
    vfs: &dyn Vfs,
    ckpt: &mut Checkpoint,
    index_base: u64,
    rec: &mut R,
) -> Result<CkptBatchReport, CkptError> {
    let todo: Vec<usize> = (0..trees.len())
        .filter(|&i| !ckpt.contains(index_base + i as u64))
        .collect();
    let resumed = (trees.len() - todo.len()) as u64;
    let journal = Journal {
        vfs,
        index_base,
        state: Mutex::new(JournalState {
            ckpt,
            pending: Vec::with_capacity(JOURNAL_FLUSH_EVERY),
            error: None,
        }),
        aborted: AtomicBool::new(false),
    };
    let batch = Batch {
        evaluator,
        trees,
        inputs,
        threads,
        budget,
        retries,
        plan,
        backoff_ms,
    };
    let mut run = batch.run(&todo, Some(&journal), rec);

    let mut js = journal.state.into_inner().unwrap();
    if let Some(e) = js.error.take() {
        return Err(e);
    }
    js.flush(vfs)?;
    let ckpt = js.ckpt;

    // Canonical form on completion (also exercises atomic compaction).
    ckpt.compact(vfs)?;

    let records: Vec<CkptRecord> = (0..trees.len())
        .map(|i| {
            ckpt.get(index_base + i as u64)
                .expect("completed batch journals every index")
        })
        .collect();

    run.counters.add(Key::ParCkptAppended, todo.len() as u64);
    run.counters.add(Key::ParCkptResumed, resumed);
    run.counters.replay(rec);

    Ok(CkptBatchReport {
        records,
        fresh: run.outcomes,
        resumed,
        stats: run.stats,
        retries: run.counters.get(Key::ParRetries),
        panics_caught: run.counters.get(Key::GuardPanicsCaught),
        budget_exceeded: run.counters.get(Key::GuardBudgetExceeded),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use fnc2_ag::Value;
    use fnc2_guard::{InjectedFault, PlannedFault};
    use fnc2_obs::{NoopRecorder, Obs, SpanEvent};
    use fnc2_vfs::{FaultVfs, IoFaultKind, IoFaultPlan, PlannedIoFault, RealVfs};

    use super::*;
    use crate::tests::{chains, count_grammar, seqs_for};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "fnc2-ckpt-{}-{}-{}",
            tag,
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The digest sees a list's element sequence only: flat, concatenated
    /// either way and tail-viewed lists of the same elements digest alike.
    #[test]
    fn outcome_digest_ignores_list_shape() {
        use fnc2_ag::{AttrValues, List};

        let g = count_grammar();
        let tree = &chains(&g, 1)[0];
        let n = g.attr_by_name(g.phylum_by_name("S").unwrap(), "n").unwrap();
        let digest = |v: Value| {
            let mut vals = AttrValues::new(&g, tree);
            vals.set(&g, tree.root(), n, Value::list([v.clone(), v]));
            outcome_digest(&TreeOutcome::Ok(vals, Default::default()))
        };
        let items: Vec<Value> = (0..80).map(|i| Value::Int(i % 9)).collect();
        let one = |x: &Value| List::new(vec![x.clone()]);
        let left = items
            .iter()
            .fold(List::new(Vec::new()), |acc, x| acc.concat(&one(x)));
        let right = items
            .iter()
            .rev()
            .fold(List::new(Vec::new()), |acc, x| one(x).concat(&acc));
        let tail = List::new([Value::Unit].iter().chain(&items).cloned().collect()).tail();
        let want = digest(Value::list(items.clone()));
        for shape in [left, right, tail] {
            assert_eq!(digest(Value::List(shape)), want);
        }
        assert_ne!(digest(Value::list(items[1..].to_vec())), want);
    }

    #[test]
    fn journal_round_trips_and_rejects_mismatches() {
        let d = temp_dir("journal");
        let path = d.join("batch.ckpt");
        let vfs = RealVfs;
        let mut ckpt = Checkpoint::create(&vfs, &path, 0x1234).unwrap();
        for i in 0..3u64 {
            ckpt.append(
                &vfs,
                CkptRecord {
                    index: i,
                    outcome: CkptOutcome::Ok,
                    digest: 0x100 + i,
                },
            )
            .unwrap();
        }
        let (re, info) = Checkpoint::open(&vfs, &path, 0x1234).unwrap();
        assert_eq!(info.resumed, 3);
        assert_eq!(info.torn_bytes, 0);
        assert!(!info.compacted);
        assert_eq!(re.get(1).unwrap().digest, 0x101);
        // Wrong batch → refused, not reinterpreted.
        assert!(matches!(
            Checkpoint::open(&vfs, &path, 0x9999),
            Err(CkptError::FingerprintMismatch { .. })
        ));
        // Wrong version → refused.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Checkpoint::open(&vfs, &path, 0x1234),
            Err(CkptError::VersionSkew { .. })
        ));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_compacted_atomically() {
        let d = temp_dir("torn");
        let path = d.join("batch.ckpt");
        let vfs = RealVfs;
        let mut ckpt = Checkpoint::create(&vfs, &path, 7).unwrap();
        for i in 0..2u64 {
            ckpt.append(
                &vfs,
                CkptRecord {
                    index: i,
                    outcome: CkptOutcome::Ok,
                    digest: i,
                },
            )
            .unwrap();
        }
        // A crash mid-append: half a record of garbage at the tail.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut f, &[0xAB; CKPT_RECORD_LEN / 2]).unwrap();
        drop(f);
        let (re, info) = Checkpoint::open(&vfs, &path, 7).unwrap();
        assert_eq!(info.resumed, 2);
        assert_eq!(info.torn_bytes, CKPT_RECORD_LEN / 2);
        assert!(info.compacted);
        assert_eq!(re.len(), 2);
        // Compaction restored the canonical length and left no temps.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        let entries: Vec<_> = std::fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(entries, vec![path.clone()]);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn power_cut_mid_batch_resumes_bit_identically() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        // Enough trees to span several journal flush groups, so a fault
        // planned on write op 1 or 2 lands on a *mid-batch* group append.
        let trees = chains(&g, 2 * JOURNAL_FLUSH_EVERY + 8);
        let inputs = RootInputs::new();
        let fp = 0xfeed_f00d;
        // A fault plan so the batch has mixed outcomes worth journaling.
        let plan = FaultPlan::with_faults(vec![PlannedFault {
            tree: 4,
            fault: InjectedFault::FailRule { step: 1 },
            transient: false,
        }]);

        // Ground truth: uninterrupted checkpointed run.
        let d0 = temp_dir("uninterrupted");
        let real = RealVfs;
        let mut clean = Checkpoint::create(&real, &d0.join("b.ckpt"), fp).unwrap();
        let want = batch_evaluate_checkpointed_recorded(
            &ev,
            &trees,
            &inputs,
            2,
            &EvalBudget::default(),
            0,
            Some(&plan),
            0,
            &real,
            &mut clean,
            0,
            &mut NoopRecorder,
        )
        .unwrap();

        // Interrupted run: power cut on a mid-batch journal append.
        for cut_at in [1u64, 2, 3] {
            let d = temp_dir(&format!("cut{cut_at}"));
            let path = d.join("b.ckpt");
            let faulty = FaultVfs::new(IoFaultPlan::with_faults(vec![PlannedIoFault {
                // Write op 0 is the header; group appends follow (one
                // per JOURNAL_FLUSH_EVERY completed trees).
                nth: cut_at,
                kind: IoFaultKind::PowerCut { keep: 5 },
                transient: true,
            }]));
            let mut ckpt = Checkpoint::create(&faulty, &path, fp).unwrap();
            let err = batch_evaluate_checkpointed_recorded(
                &ev,
                &trees,
                &inputs,
                2,
                &EvalBudget::default(),
                0,
                Some(&plan),
                0,
                &faulty,
                &mut ckpt,
                0,
                &mut NoopRecorder,
            )
            .unwrap_err();
            assert!(matches!(err, CkptError::Io(_)), "classified: {err}");

            // Recovery: reopen with a healthy backend and resume.
            let (mut resumed, info) = Checkpoint::open(&real, &path, fp).unwrap();
            assert!(
                info.resumed < trees.len(),
                "cut at {cut_at}: nothing left to resume"
            );
            let mut obs = Obs::new();
            let got = batch_evaluate_checkpointed_recorded(
                &ev,
                &trees,
                &inputs,
                2,
                &EvalBudget::default(),
                0,
                Some(&plan),
                0,
                &real,
                &mut resumed,
                0,
                &mut obs,
            )
            .unwrap();
            assert_eq!(
                got.records, want.records,
                "cut at {cut_at}: resumed records diverge"
            );
            assert_eq!(got.resumed, info.resumed as u64);
            assert_eq!(obs.metrics.counter("par.ckpt_resumed"), info.resumed as u64);
            // No stray files: just the compacted journal.
            let entries: Vec<_> = std::fs::read_dir(&d)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(entries, vec![path.clone()], "cut at {cut_at}");
            std::fs::remove_dir_all(&d).unwrap();
        }
        std::fs::remove_dir_all(&d0).unwrap();
    }

    #[test]
    fn checkpointed_matches_guarded_classification() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        let trees = chains(&g, 8);
        let inputs = RootInputs::new();
        let budget = EvalBudget::default().with_max_steps(5);
        let d = temp_dir("classify");
        let real = RealVfs;
        let mut ckpt = Checkpoint::create(&real, &d.join("b.ckpt"), 1).unwrap();
        let report = batch_evaluate_checkpointed_recorded(
            &ev,
            &trees,
            &inputs,
            3,
            &budget,
            0,
            None,
            0,
            &real,
            &mut ckpt,
            0,
            &mut NoopRecorder,
        )
        .unwrap();
        let guarded = crate::batch_evaluate_guarded(&ev, &trees, &inputs, 3, &budget, 0, None);
        for (i, (r, o)) in report.records.iter().zip(&guarded.outcomes).enumerate() {
            assert_eq!(r.outcome, CkptOutcome::classify(o), "tree {i}");
            assert_eq!(r.digest, outcome_digest(o), "tree {i}");
        }
        let (ok, failed, panicked, budgeted) = report.counts();
        assert!(ok >= 1 && budgeted >= 1, "mixed outcomes expected");
        assert_eq!(failed, 0);
        assert_eq!(panicked, 0);
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// The checkpointed driver shares the guarded driver's worker loop, so
    /// with span tracing on every `(tree, attempt)` is a `par` span.
    #[test]
    fn checkpointed_batch_records_one_span_per_attempt() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        let trees = chains(&g, 6);
        let retries = 2;
        let plan = FaultPlan::with_faults(vec![
            PlannedFault {
                tree: 1,
                fault: InjectedFault::PanicAtStep { step: 1 },
                transient: true,
            },
            PlannedFault {
                tree: 4,
                fault: InjectedFault::FailRule { step: 1 },
                transient: false,
            },
        ]);
        // Every tree's first attempt, tree 1's one retry, and every retry
        // of the permanently poisoned tree 4.
        let mut want: Vec<String> = (0..trees.len())
            .map(|i| format!("tree {i} attempt 0"))
            .chain(["tree 1 attempt 1".to_string()])
            .chain((1..=retries).map(|a| format!("tree 4 attempt {a}")))
            .collect();
        want.sort();
        for threads in [1, 3] {
            let d = temp_dir(&format!("spans{threads}"));
            let real = RealVfs;
            let mut ckpt = Checkpoint::create(&real, &d.join("b.ckpt"), 3).unwrap();
            let mut obs = Obs::new();
            obs.enable_spans();
            let report = batch_evaluate_checkpointed_recorded(
                &ev,
                &trees,
                &RootInputs::new(),
                threads,
                &EvalBudget::default(),
                retries,
                Some(&plan),
                1,
                &real,
                &mut ckpt,
                0,
                &mut obs,
            )
            .unwrap();
            assert_eq!(report.retries, 1 + u64::from(retries));
            fnc2_obs::validate_chrome_trace(&obs.chrome_trace()).unwrap();
            let mut names: Vec<String> = obs
                .tracer
                .events()
                .iter()
                .filter_map(|e| match e {
                    SpanEvent::Begin {
                        cat: "par", name, ..
                    } => Some(name.clone()),
                    _ => None,
                })
                .collect();
            names.sort();
            assert_eq!(names, want, "{threads} threads");
            std::fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn transient_io_fault_with_backoff_retries_at_the_driver_level() {
        // An EINTR on one journal append aborts the batch with a
        // classified error; the caller (fnc2c) retries the whole batch,
        // which resumes from the journal. Verify the resume picks up
        // every already-journaled tree.
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        let trees = chains(&g, 2 * JOURNAL_FLUSH_EVERY + 8);
        let inputs = RootInputs::new();
        let d = temp_dir("eintr");
        let path = d.join("b.ckpt");
        // Write op 0 is the header, op 1 the first group append (16
        // records journaled), op 2 the second — EINTR there aborts the
        // batch with the first group safely on disk.
        let faulty = FaultVfs::new(IoFaultPlan::with_faults(vec![PlannedIoFault {
            nth: 2,
            kind: IoFaultKind::Eintr,
            transient: true,
        }]));
        let mut ckpt = Checkpoint::create(&faulty, &path, 2).unwrap();
        let err = batch_evaluate_checkpointed_recorded(
            &ev,
            &trees,
            &inputs,
            1,
            &EvalBudget::default(),
            0,
            None,
            1,
            &faulty,
            &mut ckpt,
            0,
            &mut NoopRecorder,
        )
        .unwrap_err();
        let CkptError::Io(io) = &err else {
            panic!("expected Io, got {err:?}")
        };
        assert!(io.is_transient());
        // Same (still-faulty-but-transient) backend, second try: succeeds.
        let (mut resumed, info) = Checkpoint::open(&faulty, &path, 2).unwrap();
        assert_eq!(info.resumed, JOURNAL_FLUSH_EVERY);
        let report = batch_evaluate_checkpointed_recorded(
            &ev,
            &trees,
            &inputs,
            1,
            &EvalBudget::default(),
            0,
            None,
            1,
            &faulty,
            &mut resumed,
            0,
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(report.records.len(), trees.len());
        assert!(report.records.iter().all(|r| r.outcome == CkptOutcome::Ok));
        std::fs::remove_dir_all(&d).unwrap();
    }
}
