//! # fnc2-vfs — crash-consistent storage abstraction with injectable faults
//!
//! Every byte the FNC-2 reproduction persists — compiled-table artifacts,
//! batch checkpoints, trace and report files — flows through the [`Vfs`]
//! trait defined here. Production code uses [`RealVfs`] (a thin classified
//! wrapper over `std::fs`); tests and the fuzz oracle's crash-recovery
//! harness use [`FaultVfs`], which injects torn writes, partial reads,
//! `ENOSPC`, `EINTR`, failed renames and simulated power-cuts from a
//! deterministic, seed-driven [`IoFaultPlan`] in the style of
//! `fnc2-guard`'s `FaultPlan`: the same seed always yields the same fault
//! at the same operation, so every storage failure is a one-line
//! reproducer.
//!
//! The contract the rest of the system builds on:
//!
//! - every operation returns a *classified* [`VfsError`] (kind + path +
//!   operation), never a panic;
//! - a failed or interrupted write may leave a **prefix** of the intended
//!   bytes (torn write) — durable formats must therefore carry checksums;
//! - a simulated power-cut ([`IoFaultKind::PowerCut`]) persists a prefix
//!   and then fails *every* subsequent operation on that handle; recovery
//!   is modeled by re-opening the same directory with a fresh [`RealVfs`].
//!
//! The crate is dependency-free on purpose: `fnc2-tables`, `fnc2-par` and
//! `fnc2` all sit on top of it, and the first two checksum their durable
//! formats with its [`fnv1a`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Classified failure category of a storage operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VfsErrorKind {
    /// The path does not exist.
    NotFound,
    /// The device is out of space (`ENOSPC`); a prefix may have been written.
    NoSpace,
    /// The operation was interrupted (`EINTR`); safe to retry.
    Interrupted,
    /// A write persisted only a prefix of the intended bytes.
    TornWrite,
    /// Simulated power-cut: the backing store stopped mid-operation and
    /// every subsequent operation on this handle fails.
    PowerCut,
    /// A rename failed; the source file is still in place.
    RenameFailed,
    /// Permission denied.
    PermissionDenied,
    /// A path component was not a directory.
    NotADirectory,
    /// Any other I/O failure (carried verbatim in the detail string).
    Other,
}

impl VfsErrorKind {
    /// Stable lowercase name, used in diagnostics and metrics.
    pub fn name(self) -> &'static str {
        match self {
            VfsErrorKind::NotFound => "not-found",
            VfsErrorKind::NoSpace => "no-space",
            VfsErrorKind::Interrupted => "interrupted",
            VfsErrorKind::TornWrite => "torn-write",
            VfsErrorKind::PowerCut => "power-cut",
            VfsErrorKind::RenameFailed => "rename-failed",
            VfsErrorKind::PermissionDenied => "permission-denied",
            VfsErrorKind::NotADirectory => "not-a-directory",
            VfsErrorKind::Other => "io-error",
        }
    }
}

impl fmt::Display for VfsErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A classified storage error: which operation, on which path, failed how.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VfsError {
    /// The operation that failed (`"read"`, `"write"`, `"rename"`, ...).
    pub op: &'static str,
    /// The path the operation targeted.
    pub path: PathBuf,
    /// The failure category.
    pub kind: VfsErrorKind,
    /// Free-form detail (OS error text, injected-fault description).
    pub detail: String,
}

impl VfsError {
    fn new(op: &'static str, path: &Path, kind: VfsErrorKind, detail: impl Into<String>) -> Self {
        VfsError {
            op,
            path: path.to_path_buf(),
            kind,
            detail: detail.into(),
        }
    }

    /// Transient errors are safe to retry after a short backoff.
    pub fn is_transient(&self) -> bool {
        self.kind == VfsErrorKind::Interrupted
    }
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "storage fault ({}) during {} of {}: {}",
            self.kind,
            self.op,
            self.path.display(),
            self.detail
        )
    }
}

impl std::error::Error for VfsError {}

fn classify_io(op: &'static str, path: &Path, e: &std::io::Error) -> VfsError {
    let kind = match e.raw_os_error() {
        Some(28) => VfsErrorKind::NoSpace,       // ENOSPC
        Some(4) => VfsErrorKind::Interrupted,    // EINTR
        Some(20) => VfsErrorKind::NotADirectory, // ENOTDIR
        _ => match e.kind() {
            std::io::ErrorKind::NotFound => VfsErrorKind::NotFound,
            std::io::ErrorKind::PermissionDenied => VfsErrorKind::PermissionDenied,
            std::io::ErrorKind::Interrupted => VfsErrorKind::Interrupted,
            _ => VfsErrorKind::Other,
        },
    };
    VfsError::new(op, path, kind, e.to_string())
}

/// The filesystem surface the FNC-2 system uses, narrow by design.
///
/// Implementations must be safe to share across the batch evaluator's
/// worker threads (`Send + Sync`). All operations are whole-file and
/// path-addressed; there are no open handles to leak across a simulated
/// crash.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Read the entire file. A fault backend may return a silently
    /// *truncated* prefix — durable formats must detect this themselves
    /// (checksums / length headers).
    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError>;

    /// Create/truncate `path`, write all bytes, and sync file contents.
    /// On failure a prefix of `bytes` may have been persisted.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError>;

    /// Append bytes to `path`, creating it if missing. Not synced — an
    /// appended suffix may be lost on power-cut (torn tail), which
    /// journal formats must tolerate.
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError>;

    /// Atomically rename `from` to `to` (same directory). On failure the
    /// source is still in place.
    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError>;

    /// Remove a file. Removing a missing file is an error (`NotFound`).
    fn remove_file(&self, path: &Path) -> Result<(), VfsError>;

    /// Create a directory and all missing parents.
    fn create_dir_all(&self, path: &Path) -> Result<(), VfsError>;

    /// List the entries of a directory, sorted by file name for
    /// deterministic iteration. Returns full paths.
    fn read_dir(&self, path: &Path) -> Result<Vec<PathBuf>, VfsError>;

    /// Does the path exist?
    fn exists(&self, path: &Path) -> bool;
}

/// The production backend: classified passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        fs::read(path).map_err(|e| classify_io("read", path, &e))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        let mut f = fs::File::create(path).map_err(|e| classify_io("write", path, &e))?;
        f.write_all(bytes)
            .map_err(|e| classify_io("write", path, &e))?;
        f.sync_all().map_err(|e| classify_io("sync", path, &e))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| classify_io("append", path, &e))?;
        f.write_all(bytes)
            .map_err(|e| classify_io("append", path, &e))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        fs::rename(from, to).map_err(|e| {
            let mut err = classify_io("rename", from, &e);
            if err.kind == VfsErrorKind::Other {
                err.kind = VfsErrorKind::RenameFailed;
            }
            err
        })
    }

    fn remove_file(&self, path: &Path) -> Result<(), VfsError> {
        fs::remove_file(path).map_err(|e| classify_io("remove", path, &e))
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), VfsError> {
        fs::create_dir_all(path).map_err(|e| classify_io("create-dir", path, &e))
    }

    fn read_dir(&self, path: &Path) -> Result<Vec<PathBuf>, VfsError> {
        let rd = fs::read_dir(path).map_err(|e| classify_io("read-dir", path, &e))?;
        let mut out = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| classify_io("read-dir", path, &e))?;
            out.push(entry.path());
        }
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// Which class of operation a planned fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// `write` and `append`.
    Write,
    /// `rename`.
    Rename,
    /// `read`.
    Read,
}

impl OpClass {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Write => "write",
            OpClass::Rename => "rename",
            OpClass::Read => "read",
        }
    }
}

/// The concrete fault a [`FaultVfs`] injects when its trigger matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFaultKind {
    /// Persist only the first `keep` bytes of the write, then fail with
    /// [`VfsErrorKind::TornWrite`].
    TornWrite {
        /// Bytes of the intended payload that reach the disk.
        keep: usize,
    },
    /// `ENOSPC`: persist half the payload, then fail with
    /// [`VfsErrorKind::NoSpace`].
    NoSpace,
    /// `EINTR`: fail with [`VfsErrorKind::Interrupted`] without touching
    /// the disk. Transient by nature — a retry succeeds.
    Eintr,
    /// Fail a rename with [`VfsErrorKind::RenameFailed`], leaving the
    /// source (typically a temp file) stranded.
    FailRename,
    /// Return only the first `keep` bytes of the file — *silently*, as a
    /// successful short read. Durable formats must catch this themselves.
    ShortRead {
        /// Bytes of the file content returned to the caller.
        keep: usize,
    },
    /// Simulated power-cut: persist the first `keep` bytes, then fail this
    /// and **every subsequent** operation with [`VfsErrorKind::PowerCut`].
    PowerCut {
        /// Bytes of the intended payload that reach the disk before the cut.
        keep: usize,
    },
}

impl IoFaultKind {
    /// The operation class this fault applies to.
    pub fn class(self) -> OpClass {
        match self {
            IoFaultKind::TornWrite { .. }
            | IoFaultKind::NoSpace
            | IoFaultKind::Eintr
            | IoFaultKind::PowerCut { .. } => OpClass::Write,
            IoFaultKind::FailRename => OpClass::Rename,
            IoFaultKind::ShortRead { .. } => OpClass::Read,
        }
    }
}

/// One planned fault: fires on the `nth` operation of its kind's class
/// (0-based). A `transient` fault fires exactly once; a permanent one also
/// fails every later operation of that class (a disk that stays full).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedIoFault {
    /// 0-based index of the targeted operation within its class.
    pub nth: u64,
    /// What goes wrong.
    pub kind: IoFaultKind,
    /// Transient faults clear after firing once; permanent ones persist.
    pub transient: bool,
}

/// Deterministic, seed-driven storage fault schedule for [`FaultVfs`].
///
/// Mirrors `fnc2_guard::FaultPlan`: a plan is a pure function of its seed,
/// so `IoFaultPlan::from_seed(s)` is a complete one-line reproducer for
/// any crash the harness finds.
#[derive(Clone, Debug, Default)]
pub struct IoFaultPlan {
    faults: Vec<PlannedIoFault>,
}

/// SplitMix64 step — the same generator the guard and fuzz crates use.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl IoFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        IoFaultPlan { faults: Vec::new() }
    }

    /// A plan with an explicit fault list.
    pub fn with_faults(faults: Vec<PlannedIoFault>) -> Self {
        IoFaultPlan { faults }
    }

    /// Derive 1–3 faults deterministically from a seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut st = seed ^ 0x1af5_3e51_7d1b_70cb;
        let count = 1 + (splitmix(&mut st) % 3) as usize;
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let nth = splitmix(&mut st) % 4;
            let keep = (splitmix(&mut st) % 48) as usize;
            let kind = match splitmix(&mut st) % 6 {
                0 => IoFaultKind::TornWrite { keep },
                1 => IoFaultKind::NoSpace,
                2 => IoFaultKind::Eintr,
                3 => IoFaultKind::FailRename,
                4 => IoFaultKind::ShortRead { keep },
                _ => IoFaultKind::PowerCut { keep },
            };
            let transient = splitmix(&mut st) & 1 == 0 || kind == IoFaultKind::Eintr;
            faults.push(PlannedIoFault {
                nth,
                kind,
                transient,
            });
        }
        IoFaultPlan { faults }
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults, in order.
    pub fn faults(&self) -> &[PlannedIoFault] {
        &self.faults
    }

    /// The fault (if any) to inject on the `index`-th operation of `class`.
    fn fault_for(&self, class: OpClass, index: u64) -> Option<IoFaultKind> {
        self.faults
            .iter()
            .find(|f| {
                f.kind.class() == class && (f.nth == index || (!f.transient && index > f.nth))
            })
            .map(|f| f.kind)
    }
}

#[derive(Debug, Default)]
struct OpCounters {
    writes: u64,
    renames: u64,
    reads: u64,
}

/// A fault-injecting [`Vfs`] wrapping [`RealVfs`].
///
/// Operation indices are counted per [`OpClass`] across the lifetime of
/// the handle; when an index matches the plan, the corresponding fault is
/// injected (after persisting whatever prefix the fault specifies). After
/// a [`IoFaultKind::PowerCut`] fires, the handle is *dead*: every
/// operation fails with [`VfsErrorKind::PowerCut`]. Recovery is modeled by
/// pointing a fresh [`RealVfs`] at the same directory.
#[derive(Debug)]
pub struct FaultVfs {
    inner: RealVfs,
    plan: IoFaultPlan,
    counters: Mutex<OpCounters>,
    dead: AtomicBool,
    injected: AtomicU64,
}

impl FaultVfs {
    /// Wrap the real filesystem with a fault plan.
    pub fn new(plan: IoFaultPlan) -> Self {
        FaultVfs {
            inner: RealVfs,
            plan,
            counters: Mutex::new(OpCounters::default()),
            dead: AtomicBool::new(false),
            injected: AtomicU64::new(0),
        }
    }

    /// Shorthand: a seed-driven fault plan.
    pub fn from_seed(seed: u64) -> Self {
        Self::new(IoFaultPlan::from_seed(seed))
    }

    /// How many faults have been injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Has a power-cut fired? (All further operations fail.)
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    fn check_dead(&self, op: &'static str, path: &Path) -> Result<(), VfsError> {
        if self.is_dead() {
            Err(VfsError::new(
                op,
                path,
                VfsErrorKind::PowerCut,
                "simulated power cut: backing store is offline",
            ))
        } else {
            Ok(())
        }
    }

    /// Take the next op index for `class` and look up a planned fault.
    fn next_fault(&self, class: OpClass) -> Option<IoFaultKind> {
        let mut c = self.counters.lock().unwrap();
        let idx = match class {
            OpClass::Write => {
                let i = c.writes;
                c.writes += 1;
                i
            }
            OpClass::Rename => {
                let i = c.renames;
                c.renames += 1;
                i
            }
            OpClass::Read => {
                let i = c.reads;
                c.reads += 1;
                i
            }
        };
        let fault = self.plan.fault_for(class, idx);
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Inject a write-class fault: persist the specified prefix (via a raw
    /// non-syncing write so a real crash stays plausible), then fail.
    fn injected_write(
        &self,
        op: &'static str,
        path: &Path,
        bytes: &[u8],
        append: bool,
        fault: IoFaultKind,
    ) -> VfsError {
        let persist = |keep: usize| {
            let prefix = &bytes[..keep.min(bytes.len())];
            if prefix.is_empty() {
                return;
            }
            let _ = if append {
                self.inner.append(path, prefix)
            } else {
                self.inner.write(path, prefix)
            };
        };
        match fault {
            IoFaultKind::TornWrite { keep } => {
                persist(keep);
                VfsError::new(
                    op,
                    path,
                    VfsErrorKind::TornWrite,
                    format!(
                        "injected torn write: {} of {} bytes persisted",
                        keep.min(bytes.len()),
                        bytes.len()
                    ),
                )
            }
            IoFaultKind::NoSpace => {
                persist(bytes.len() / 2);
                VfsError::new(
                    op,
                    path,
                    VfsErrorKind::NoSpace,
                    "injected ENOSPC: no space left on device",
                )
            }
            IoFaultKind::Eintr => VfsError::new(
                op,
                path,
                VfsErrorKind::Interrupted,
                "injected EINTR: interrupted system call",
            ),
            IoFaultKind::PowerCut { keep } => {
                persist(keep);
                self.dead.store(true, Ordering::Relaxed);
                VfsError::new(
                    op,
                    path,
                    VfsErrorKind::PowerCut,
                    format!("injected power cut after {} bytes", keep.min(bytes.len())),
                )
            }
            // Kind/class mismatches cannot arise: `fault_for` matches on class.
            IoFaultKind::FailRename | IoFaultKind::ShortRead { .. } => {
                VfsError::new(op, path, VfsErrorKind::Other, "unreachable fault kind")
            }
        }
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        self.check_dead("read", path)?;
        match self.next_fault(OpClass::Read) {
            Some(IoFaultKind::ShortRead { keep }) => {
                let mut f = fs::File::open(path).map_err(|e| classify_io("read", path, &e))?;
                let mut buf = vec![0u8; keep];
                let mut got = 0;
                while got < keep {
                    match f.read(&mut buf[got..]) {
                        Ok(0) => break,
                        Ok(n) => got += n,
                        Err(e) => return Err(classify_io("read", path, &e)),
                    }
                }
                buf.truncate(got);
                Ok(buf)
            }
            Some(IoFaultKind::Eintr) => Err(VfsError::new(
                "read",
                path,
                VfsErrorKind::Interrupted,
                "injected EINTR: interrupted system call",
            )),
            Some(IoFaultKind::PowerCut { .. }) => {
                self.dead.store(true, Ordering::Relaxed);
                Err(VfsError::new(
                    "read",
                    path,
                    VfsErrorKind::PowerCut,
                    "injected power cut",
                ))
            }
            Some(_) | None => self.inner.read(path),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        self.check_dead("write", path)?;
        match self.next_fault(OpClass::Write) {
            Some(fault) => Err(self.injected_write("write", path, bytes, false, fault)),
            None => self.inner.write(path, bytes),
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        self.check_dead("append", path)?;
        match self.next_fault(OpClass::Write) {
            Some(fault) => Err(self.injected_write("append", path, bytes, true, fault)),
            None => self.inner.append(path, bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        self.check_dead("rename", from)?;
        match self.next_fault(OpClass::Rename) {
            Some(IoFaultKind::PowerCut { .. }) => {
                self.dead.store(true, Ordering::Relaxed);
                Err(VfsError::new(
                    "rename",
                    from,
                    VfsErrorKind::PowerCut,
                    "injected power cut before rename",
                ))
            }
            Some(IoFaultKind::Eintr) => Err(VfsError::new(
                "rename",
                from,
                VfsErrorKind::Interrupted,
                "injected EINTR: interrupted system call",
            )),
            Some(_) => Err(VfsError::new(
                "rename",
                from,
                VfsErrorKind::RenameFailed,
                format!("injected rename failure (target {})", to.display()),
            )),
            None => self.inner.rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> Result<(), VfsError> {
        self.check_dead("remove", path)?;
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), VfsError> {
        self.check_dead("create-dir", path)?;
        self.inner.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> Result<Vec<PathBuf>, VfsError> {
        self.check_dead("read-dir", path)?;
        self.inner.read_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        !self.is_dead() && self.inner.exists(path)
    }
}

/// FNV-1a 64-bit hash over `chunks` read as one byte string — the
/// checksum of every durable format built on this crate (compiled-table
/// artifacts, batch journals), stable across platforms.
pub fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(&[b""]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(&[b"foobar"]), 0x8594_4171_f739_67e8);
        // Chunking must not affect the hash.
        assert_eq!(fnv1a(&[b"foo", b"bar"]), fnv1a(&[b"foobar"]));
    }

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "fnc2-vfs-{}-{}-{}",
            tag,
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn real_round_trip_and_sorted_listing() {
        let d = temp_dir("real");
        let v = RealVfs;
        v.write(&d.join("b.txt"), b"beta").unwrap();
        v.write(&d.join("a.txt"), b"alpha").unwrap();
        v.append(&d.join("a.txt"), b"!").unwrap();
        assert_eq!(v.read(&d.join("a.txt")).unwrap(), b"alpha!");
        let names: Vec<_> = v
            .read_dir(&d)
            .unwrap()
            .into_iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a.txt", "b.txt"]);
        v.rename(&d.join("a.txt"), &d.join("c.txt")).unwrap();
        assert!(v.exists(&d.join("c.txt")));
        assert!(!v.exists(&d.join("a.txt")));
        let err = v.read(&d.join("missing")).unwrap_err();
        assert_eq!(err.kind, VfsErrorKind::NotFound);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn torn_write_persists_prefix_and_classifies() {
        let d = temp_dir("torn");
        let v = FaultVfs::new(IoFaultPlan::with_faults(vec![PlannedIoFault {
            nth: 0,
            kind: IoFaultKind::TornWrite { keep: 3 },
            transient: true,
        }]));
        let err = v.write(&d.join("x"), b"abcdef").unwrap_err();
        assert_eq!(err.kind, VfsErrorKind::TornWrite);
        assert_eq!(fs::read(d.join("x")).unwrap(), b"abc");
        // Transient: the retry goes through untouched.
        v.write(&d.join("x"), b"abcdef").unwrap();
        assert_eq!(fs::read(d.join("x")).unwrap(), b"abcdef");
        assert_eq!(v.injected_faults(), 1);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn permanent_no_space_fails_every_later_write() {
        let d = temp_dir("enospc");
        let v = FaultVfs::new(IoFaultPlan::with_faults(vec![PlannedIoFault {
            nth: 1,
            kind: IoFaultKind::NoSpace,
            transient: false,
        }]));
        v.write(&d.join("ok"), b"fine").unwrap();
        assert_eq!(
            v.write(&d.join("full"), b"data").unwrap_err().kind,
            VfsErrorKind::NoSpace
        );
        assert_eq!(
            v.append(&d.join("full"), b"more").unwrap_err().kind,
            VfsErrorKind::NoSpace
        );
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn failed_rename_strands_the_source() {
        let d = temp_dir("rename");
        let v = FaultVfs::new(IoFaultPlan::with_faults(vec![PlannedIoFault {
            nth: 0,
            kind: IoFaultKind::FailRename,
            transient: true,
        }]));
        v.write(&d.join("f.tmp"), b"payload").unwrap();
        let err = v.rename(&d.join("f.tmp"), &d.join("f")).unwrap_err();
        assert_eq!(err.kind, VfsErrorKind::RenameFailed);
        assert!(d.join("f.tmp").exists());
        assert!(!d.join("f").exists());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn short_read_silently_truncates() {
        let d = temp_dir("short");
        let v = FaultVfs::new(IoFaultPlan::with_faults(vec![PlannedIoFault {
            nth: 0,
            kind: IoFaultKind::ShortRead { keep: 4 },
            transient: true,
        }]));
        fs::write(d.join("f"), b"0123456789").unwrap();
        assert_eq!(v.read(&d.join("f")).unwrap(), b"0123");
        assert_eq!(v.read(&d.join("f")).unwrap(), b"0123456789");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn power_cut_kills_the_handle() {
        let d = temp_dir("cut");
        let v = FaultVfs::new(IoFaultPlan::with_faults(vec![PlannedIoFault {
            nth: 0,
            kind: IoFaultKind::PowerCut { keep: 2 },
            transient: true,
        }]));
        let err = v.write(&d.join("j"), b"record").unwrap_err();
        assert_eq!(err.kind, VfsErrorKind::PowerCut);
        assert_eq!(fs::read(d.join("j")).unwrap(), b"re");
        assert!(v.is_dead());
        for err in [
            v.read(&d.join("j")).unwrap_err(),
            v.append(&d.join("j"), b"x").unwrap_err(),
            v.rename(&d.join("j"), &d.join("k")).unwrap_err(),
            v.remove_file(&d.join("j")).unwrap_err(),
        ] {
            assert_eq!(err.kind, VfsErrorKind::PowerCut);
        }
        // Recovery: a fresh RealVfs over the same directory sees the prefix.
        assert_eq!(RealVfs.read(&d.join("j")).unwrap(), b"re");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn eintr_is_transient_and_retryable() {
        let d = temp_dir("eintr");
        let v = FaultVfs::new(IoFaultPlan::with_faults(vec![PlannedIoFault {
            nth: 0,
            kind: IoFaultKind::Eintr,
            transient: true,
        }]));
        let err = v.write(&d.join("f"), b"x").unwrap_err();
        assert!(err.is_transient());
        assert!(!d.join("f").exists());
        v.write(&d.join("f"), b"x").unwrap();
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn seeded_plans_are_deterministic_and_varied() {
        for seed in 0..64u64 {
            let a = IoFaultPlan::from_seed(seed);
            let b = IoFaultPlan::from_seed(seed);
            assert_eq!(a.faults(), b.faults());
            assert!(!a.is_empty());
            assert!(a.faults().len() <= 3);
        }
        // Different seeds should not all collapse onto one schedule.
        let distinct: std::collections::HashSet<_> = (0..64u64)
            .map(|s| format!("{:?}", IoFaultPlan::from_seed(s).faults()))
            .collect();
        assert!(distinct.len() > 16);
    }
}
