//! Persistent, fingerprint-keyed storage of prepared plans.
//!
//! [`Engine::prepare`] is the paper's whole preprocessing bill — LSH
//! signatures, two clustering rounds, permutation, ASpT tiling. The
//! in-memory [`PlanCache`](crate::PlanCache) amortises it across
//! requests *within* one process; this module amortises it across
//! processes: everything `prepare` computed is snapshotted into a
//! compact little-endian file keyed by [`MatrixFingerprint`], and a
//! restarted server materialises the engine by deserialising instead of
//! re-preparing.
//!
//! # File format (version 4)
//!
//! ```text
//! magic    "SPMMPLAN"                     8 bytes
//! version  u32                            4
//! scalar   u32 (4 = f32, 8 = f64)         4
//! fingerprint nrows/ncols/nnz/hash        4 × u64
//! k_hint   u64 (u64::MAX = none)          8
//! variant  u8 (autotuner execution tag)   1
//! micro    u8 (0 = generic, else the      1
//!              plan's microkernel width,
//!              one of 8/16/32)
//! sections, in order: PLAN RCSR NMAP ASPT
//!   tag        4 ASCII bytes
//!   length     u64
//!   payload    `length` bytes
//!   checksum   u64 FNV-1a over the payload's 64-bit LE lanes
//! ```
//!
//! Every multi-byte integer is little-endian; floating-point values are
//! stored as raw IEEE-754 bit patterns ([`Scalar::to_bits64`]), so a
//! round-trip is bit-exact including NaN payloads and signed zeros.
//! A reader rejects — with a structured [`SparseError`], never a panic
//! or a silently wrong plan — anything with a bad magic/version/scalar
//! width, a fingerprint that does not match the requested one, a
//! checksum mismatch, a truncated or over-long section, or decoded
//! parts that fail [`Engine::from_parts`] validation (which includes
//! reconstructing the tiling and re-deriving the fingerprint).
//!
//! Values **are** stored even though the fingerprint excludes them: the
//! fingerprint identifies the *structure* (all preprocessing is
//! structure-only), while the file materialises one concrete engine,
//! which needs values to answer requests. A caller whose values have
//! drifted since the snapshot refreshes them in place via
//! [`Engine::update_values`] — still no re-preparation.
//!
//! The reader speaks exactly one version. Files of any other version —
//! including versions 1–3, written while plans could carry a format-zoo
//! payload (`FMTP` section) — are rejected with an `unsupported version`
//! error; the store is a cache, so a reject degrades to a live prepare
//! whose write-through replaces the file.

use crate::fingerprint::MatrixFingerprint;
use spmm_aspt::{AsptConfig, AsptMatrix, DenseTile, Panel};
use spmm_faults::FaultPoint;
use spmm_kernels::{Engine, Variant};
use spmm_reorder::{ClusterStats, ReorderPlan};
use spmm_sparse::{CsrMatrix, Permutation, Scalar, SparseError};
use spmm_telemetry::TelemetryHandle;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Fault point inside [`PlanStore::load`], fired before the file is
/// read: an injected error surfaces as a load failure, which the plan
/// cache degrades to a live prepare (counted as `serve.store.reject`).
pub static FAULT_STORE_LOAD: FaultPoint = FaultPoint::new("serve.store.load");

/// Fault point inside [`PlanStore::save`], fired before the file is
/// written: an injected error surfaces as a save failure, which the
/// plan cache records (`serve.store.save_error`) without failing the
/// request that triggered the write-through.
pub static FAULT_STORE_SAVE: FaultPoint = FaultPoint::new("serve.store.save");

/// Fault point inside [`PlanStore::save_delta`], fired before the new
/// epoch's file is written: an injected error surfaces as a failed
/// delta commit, which the plan cache aborts — the old fingerprint's
/// file is untouched, so both the in-memory plan and its on-disk
/// snapshot keep serving the pre-delta epoch.
pub static FAULT_STORE_DELTA: FaultPoint = FaultPoint::new("serve.store.delta");

const MAGIC: &[u8; 8] = b"SPMMPLAN";
const VERSION: u32 = 4;
/// Header length: magic + version + scalar width + fingerprint +
/// k_hint + variant tag + microkernel width.
const HEADER_LEN: usize = 8 + 4 + 4 + 32 + 8 + 1 + 1;

const TAG_PLAN: &[u8; 4] = b"PLAN";
const TAG_RCSR: &[u8; 4] = b"RCSR";
const TAG_NMAP: &[u8; 4] = b"NMAP";
const TAG_ASPT: &[u8; 4] = b"ASPT";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit little-endian lanes of `bytes` (tail lane
/// zero-padded): one xor-multiply per 8 payload bytes instead of per
/// byte, keeping section verification cheap on the warm-start critical
/// path. The checksum guards against accidental corruption — torn
/// writes, bit rot, truncation — not adversaries, and any single-bit
/// flip still changes the lane it lands in. Zero-padding the tail is
/// safe because the section length is stored (and bounds-checked)
/// separately.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let mut a = [0u8; 8];
        a.copy_from_slice(c);
        h = (h ^ u64::from_le_bytes(a)).wrapping_mul(FNV_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut a = [0u8; 8];
        a[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(a)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn corrupt(msg: impl Into<String>) -> SparseError {
    SparseError::InvalidStructure(format!("plan store: {}", msg.into()))
}

/// Identity of one readable plan file, as reported by
/// [`PlanStore::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredPlan {
    /// The fingerprint the plan is keyed by.
    pub fingerprint: MatrixFingerprint,
    /// Scalar width of the stored values (4 = `f32`, 8 = `f64`).
    pub scalar_bytes: usize,
    /// Path of the plan file.
    pub path: PathBuf,
}

/// A directory of serialized plans, one file per
/// `(fingerprint, scalar type)`.
///
/// The store is plain I/O plus the codec — no locking, no caching; the
/// [`PlanCache`](crate::PlanCache) layers read-through/write-through
/// and telemetry on top. Saves are atomic (temp file + rename), so a
/// concurrent reader sees either the old file or the new one, never a
/// torn write.
#[derive(Debug, Clone)]
pub struct PlanStore {
    root: PathBuf,
}

impl PlanStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    /// Fails with [`SparseError::Io`] when the directory cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, SparseError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file a plan for `fp` with `T`-typed values lives at.
    pub fn path_for<T: Scalar>(&self, fp: &MatrixFingerprint) -> PathBuf {
        self.root.join(format!(
            "plan-{}x{}-{}nnz-{:016x}-f{}.spmmplan",
            fp.nrows(),
            fp.ncols(),
            fp.nnz(),
            fp.hash(),
            T::BYTES * 8,
        ))
    }

    /// `true` when a plan file for `fp` with `T`-typed values exists
    /// (without validating it — [`PlanStore::load`] does that).
    pub fn contains<T: Scalar>(&self, fp: &MatrixFingerprint) -> bool {
        self.path_for::<T>(fp).exists()
    }

    /// Serializes `engine` under `fp`, atomically replacing any
    /// existing file. Returns the path written.
    ///
    /// `fp` must be the fingerprint of the matrix `engine` was prepared
    /// from; the snapshot embeds it and [`PlanStore::load`] re-derives
    /// it from the decoded parts, so a mismatched key is caught at read
    /// time.
    ///
    /// # Errors
    /// Fails with [`SparseError::Io`] on filesystem errors (including
    /// an injected [`FAULT_STORE_SAVE`]).
    pub fn save<T: Scalar>(
        &self,
        fp: &MatrixFingerprint,
        engine: &Engine<T>,
    ) -> Result<PathBuf, SparseError> {
        FAULT_STORE_SAVE
            .fire()
            .map_err(|e| SparseError::Io(e.to_string()))?;
        self.write_plan(fp, engine)
    }

    /// [`PlanStore::save`] for the commit leg of a structural delta:
    /// writes the post-delta engine under the *new* fingerprint via the
    /// same temp-file + atomic-rename protocol, without touching the
    /// old fingerprint's file. The two files coexist until
    /// [`PlanStore::gc`] reclaims superseded epochs, so a crash at any
    /// instant leaves at least one warm-loadable snapshot: before the
    /// rename the old epoch, after it both.
    ///
    /// # Errors
    /// Fails with [`SparseError::Io`] on filesystem errors (including
    /// an injected [`FAULT_STORE_DELTA`]).
    pub fn save_delta<T: Scalar>(
        &self,
        new_fp: &MatrixFingerprint,
        engine: &Engine<T>,
    ) -> Result<PathBuf, SparseError> {
        FAULT_STORE_DELTA
            .fire()
            .map_err(|e| SparseError::Io(e.to_string()))?;
        self.write_plan(new_fp, engine)
    }

    /// Deletes superseded `.spmmplan` files, keeping the
    /// `keep_latest_n` most recently modified ones (ties broken by
    /// path for determinism). Returns the paths deleted. Non-plan
    /// files in the directory are never touched.
    ///
    /// # Errors
    /// Fails with [`SparseError::Io`] when the directory cannot be
    /// read or a victim cannot be deleted (a victim that disappeared
    /// concurrently is not an error).
    pub fn gc(&self, keep_latest_n: usize) -> Result<Vec<PathBuf>, SparseError> {
        let mut files: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.root).map_err(|e| SparseError::Io(e.to_string()))? {
            let entry = entry.map_err(|e| SparseError::Io(e.to_string()))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("spmmplan") {
                continue;
            }
            let modified = entry
                .metadata()
                .and_then(|m| m.modified())
                .map_err(|e| SparseError::Io(e.to_string()))?;
            files.push((modified, path));
        }
        // newest first; the suffix past keep_latest_n is reclaimed
        files.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let mut deleted = Vec::new();
        for (_, path) in files.into_iter().skip(keep_latest_n) {
            match fs::remove_file(&path) {
                Ok(()) => deleted.push(path),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(SparseError::Io(e.to_string())),
            }
        }
        Ok(deleted)
    }

    /// The shared write leg of [`PlanStore::save`] and
    /// [`PlanStore::save_delta`]: encode, write to a temp file, fsync,
    /// rename into place.
    fn write_plan<T: Scalar>(
        &self,
        fp: &MatrixFingerprint,
        engine: &Engine<T>,
    ) -> Result<PathBuf, SparseError> {
        let bytes = encode_engine(fp, engine);
        let path = self.path_for::<T>(fp);
        let tmp = self.root.join(format!(
            ".tmp-{}-{:016x}-f{}",
            std::process::id(),
            fp.hash(),
            T::BYTES * 8,
        ));
        let write = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        if let Err(e) = write {
            let _ = fs::remove_file(&tmp);
            return Err(SparseError::Io(e.to_string()));
        }
        Ok(path)
    }

    /// Deserializes the plan for `fp`, rebuilding a ready-to-execute
    /// engine. Returns `Ok(None)` when no file exists for the key — a
    /// store *miss*, as opposed to a *reject* (`Err`) for a file that
    /// exists but is corrupt, truncated, version-skewed or keyed by a
    /// fingerprint that does not match its contents.
    ///
    /// Execution telemetry of the rebuilt engine tees into `telemetry`,
    /// mirroring [`Engine::prepare`]'s handling of
    /// `EngineConfig::telemetry`.
    ///
    /// # Errors
    /// [`SparseError::Io`] on filesystem errors (including an injected
    /// [`FAULT_STORE_LOAD`]); [`SparseError::InvalidStructure`] when
    /// the file fails validation.
    pub fn load<T: Scalar>(
        &self,
        fp: &MatrixFingerprint,
        telemetry: &TelemetryHandle,
    ) -> Result<Option<Engine<T>>, SparseError> {
        FAULT_STORE_LOAD
            .fire()
            .map_err(|e| SparseError::Io(e.to_string()))?;
        let path = self.path_for::<T>(fp);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(SparseError::Io(e.to_string())),
        };
        decode_engine(fp, &bytes, telemetry).map(Some)
    }

    /// Checks the plan file for `fp` end to end — header, checksums,
    /// part consistency, fingerprint re-derivation — without keeping
    /// the engine. `Ok(false)` means no file; errors are the same as
    /// [`PlanStore::load`].
    ///
    /// # Errors
    /// Same conditions as [`PlanStore::load`].
    pub fn verify<T: Scalar>(&self, fp: &MatrixFingerprint) -> Result<bool, SparseError> {
        Ok(self.load::<T>(fp, &TelemetryHandle::noop())?.is_some())
    }

    /// Removes the plan file for `fp`, if present. Returns whether a
    /// file was removed.
    ///
    /// # Errors
    /// Fails with [`SparseError::Io`] on filesystem errors other than
    /// the file not existing.
    pub fn remove<T: Scalar>(&self, fp: &MatrixFingerprint) -> Result<bool, SparseError> {
        match fs::remove_file(self.path_for::<T>(fp)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(SparseError::Io(e.to_string())),
        }
    }

    /// Enumerates the plans in the store by reading each candidate
    /// file's header. Files that are not plan files (wrong extension,
    /// short or bad header) are skipped, not errors — the directory may
    /// be shared; [`PlanStore::load`] remains the arbiter of validity.
    ///
    /// # Errors
    /// Fails with [`SparseError::Io`] when the directory cannot be
    /// read.
    pub fn list(&self) -> Result<Vec<StoredPlan>, SparseError> {
        let mut plans = Vec::new();
        for entry in fs::read_dir(&self.root).map_err(|e| SparseError::Io(e.to_string()))? {
            let entry = entry.map_err(|e| SparseError::Io(e.to_string()))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("spmmplan") {
                continue;
            }
            let Ok(bytes) = fs::read(&path) else {
                continue;
            };
            let Ok((fp, scalar_bytes)) = decode_header(&bytes) else {
                continue;
            };
            plans.push(StoredPlan {
                fingerprint: fp,
                scalar_bytes,
                path,
            });
        }
        plans.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(plans)
    }
}

/// The execution tag the snapshot carries: which §4 variant the
/// engine's plan amounts to (reordering applied → ASpT-RR, else
/// ASpT-NR). Cross-checked on load, so a file whose tag and plan
/// disagree is rejected as stale.
fn variant_of<T: Scalar>(engine: &Engine<T>) -> Variant {
    if engine.plan().needs_reordering() {
        Variant::AsptRr
    } else {
        Variant::AsptNr
    }
}

fn variant_tag(v: Variant) -> u8 {
    match v {
        Variant::CusparseLike => 0,
        Variant::AsptNr => 1,
        Variant::AsptRr => 2,
    }
}

// ---------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn u32_slice(&mut self, s: &[u32]) {
        self.u64(s.len() as u64);
        self.buf.reserve(s.len() * 4);
        for &v in s {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn usize_slice(&mut self, s: &[usize]) {
        self.u64(s.len() as u64);
        self.buf.reserve(s.len() * 8);
        for &v in s {
            self.buf.extend_from_slice(&(v as u64).to_le_bytes());
        }
    }

    fn scalar_slice<T: Scalar>(&mut self, s: &[T]) {
        self.u64(s.len() as u64);
        self.buf.reserve(s.len() * 8);
        for &v in s {
            self.buf.extend_from_slice(&v.to_bits64().to_le_bytes());
        }
    }

    fn stats(&mut self, stats: &Option<ClusterStats>) {
        match stats {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.u64(s.initial_pairs as u64);
                self.u64(s.merges as u64);
                self.u64(s.requeued as u64);
                self.u64(s.retired as u64);
                self.u64(s.clusters as u64);
            }
        }
    }

    fn csr<T: Scalar>(&mut self, m: &CsrMatrix<T>) {
        self.u64(m.nrows() as u64);
        self.u64(m.ncols() as u64);
        self.usize_slice(m.rowptr());
        self.u32_slice(m.colidx());
        self.scalar_slice(m.values());
    }
}

fn encode_section(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
}

fn encode_engine<T: Scalar>(fp: &MatrixFingerprint, engine: &Engine<T>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(T::BYTES as u32).to_le_bytes());
    for v in [
        fp.nrows() as u64,
        fp.ncols() as u64,
        fp.nnz() as u64,
        fp.hash(),
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let k_hint = engine.k_hint().map_or(u64::MAX, |k| k as u64);
    out.extend_from_slice(&k_hint.to_le_bytes());
    out.push(variant_tag(variant_of(engine)));
    // the plan's microkernel width (0 = generic)
    out.push(engine.micro_width().map_or(0, |w| w as u8));

    // PLAN: permutations, flags, indicator ratios, clustering stats
    let plan = engine.plan();
    let mut e = Enc::new();
    e.u32_slice(plan.row_perm.order());
    e.u32_slice(plan.remainder_order.order());
    e.u8(u8::from(plan.round1_applied) | (u8::from(plan.round2_applied) << 1));
    e.f64(plan.dense_ratio_before);
    e.f64(plan.dense_ratio_after);
    e.f64(plan.avgsim_before);
    e.f64(plan.avgsim_after);
    e.stats(&plan.round1_stats);
    e.stats(&plan.round2_stats);
    encode_section(&mut out, TAG_PLAN, &e.buf);

    // RCSR: the reordered matrix
    let mut e = Enc::new();
    e.csr(engine.reordered());
    encode_section(&mut out, TAG_RCSR, &e.buf);

    // NMAP: reordered-nnz → original-nnz
    let mut e = Enc::new();
    e.usize_slice(engine.nnz_map());
    encode_section(&mut out, TAG_NMAP, &e.buf);

    // ASPT: tiling config, panels/tiles, remainder CSR + source map
    let aspt = engine.aspt();
    let mut e = Enc::new();
    e.u64(aspt.config().panel_height as u64);
    e.u64(aspt.config().min_col_nnz as u64);
    e.u64(aspt.config().tile_width as u64);
    e.u64(aspt.panels().len() as u64);
    for panel in aspt.panels() {
        e.u64(panel.row_start as u64);
        e.u64(panel.row_end as u64);
        e.u64(panel.tiles.len() as u64);
        for tile in &panel.tiles {
            e.u32_slice(&tile.cols);
            e.usize_slice(&tile.rowptr);
            e.u32_slice(&tile.colidx);
            e.scalar_slice(&tile.values);
            e.u32_slice(&tile.src_idx);
        }
    }
    e.csr(aspt.remainder());
    e.u32_slice(aspt.remainder_src());
    encode_section(&mut out, TAG_ASPT, &e.buf);

    out
}

// ---------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SparseError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt("truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SparseError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, SparseError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, SparseError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` length prefix, guarding it against the bytes that
    /// actually remain so a corrupt length can never drive a huge
    /// allocation.
    fn len_prefix(&mut self, elem_bytes: usize) -> Result<usize, SparseError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        match n.checked_mul(elem_bytes as u64) {
            Some(b) if b <= remaining => Ok(n as usize),
            _ => Err(corrupt("array length exceeds section")),
        }
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, SparseError> {
        let n = self.len_prefix(4)?;
        let b = self.take(n * 4)?;
        Ok(b.chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn usize_vec(&mut self) -> Result<Vec<usize>, SparseError> {
        let n = self.len_prefix(8)?;
        let b = self.take(n * 8)?;
        let mut out = Vec::with_capacity(n);
        for c in b.chunks_exact(8) {
            let mut a = [0u8; 8];
            a.copy_from_slice(c);
            let v = u64::from_le_bytes(a);
            if v > usize::MAX as u64 {
                return Err(corrupt("index exceeds platform usize"));
            }
            out.push(v as usize);
        }
        Ok(out)
    }

    fn scalar_vec<T: Scalar>(&mut self) -> Result<Vec<T>, SparseError> {
        let n = self.len_prefix(8)?;
        let b = self.take(n * 8)?;
        let mut out = Vec::with_capacity(n);
        for c in b.chunks_exact(8) {
            let mut a = [0u8; 8];
            a.copy_from_slice(c);
            out.push(T::from_bits64(u64::from_le_bytes(a)));
        }
        Ok(out)
    }

    fn stats(&mut self) -> Result<Option<ClusterStats>, SparseError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(ClusterStats {
                initial_pairs: self.u64()? as usize,
                merges: self.u64()? as usize,
                requeued: self.u64()? as usize,
                retired: self.u64()? as usize,
                clusters: self.u64()? as usize,
            })),
            t => Err(corrupt(format!("bad stats presence tag {t}"))),
        }
    }

    fn csr<T: Scalar>(&mut self) -> Result<CsrMatrix<T>, SparseError> {
        let nrows = self.u64()? as usize;
        let ncols = self.u64()? as usize;
        let rowptr = self.usize_vec()?;
        let colidx = self.u32_vec()?;
        let values = self.scalar_vec()?;
        CsrMatrix::from_parts(nrows, ncols, rowptr, colidx, values)
    }

    fn done(&self) -> Result<(), SparseError> {
        if self.pos != self.bytes.len() {
            return Err(corrupt("trailing bytes in section"));
        }
        Ok(())
    }
}

/// Parses and validates the fixed-size header, returning the embedded
/// fingerprint and scalar width.
fn decode_header(bytes: &[u8]) -> Result<(MatrixFingerprint, usize), SparseError> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt("file shorter than header"));
    }
    let mut d = Dec::new(bytes);
    if d.take(8)? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version_bytes = d.take(4)?;
    let version = u32::from_le_bytes([
        version_bytes[0],
        version_bytes[1],
        version_bytes[2],
        version_bytes[3],
    ]);
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported version {version} (reader speaks {VERSION})"
        )));
    }
    let sb = d.take(4)?;
    let scalar_bytes = u32::from_le_bytes([sb[0], sb[1], sb[2], sb[3]]) as usize;
    if scalar_bytes != 4 && scalar_bytes != 8 {
        return Err(corrupt(format!("bad scalar width {scalar_bytes}")));
    }
    let nrows = d.u64()?;
    let ncols = d.u64()?;
    let nnz = d.u64()?;
    let hash = d.u64()?;
    Ok((
        MatrixFingerprint::from_raw(nrows, ncols, nnz, hash),
        scalar_bytes,
    ))
}

/// Extracts one checksummed section, verifying tag order and payload
/// integrity.
fn decode_section<'a>(d: &mut Dec<'a>, tag: &[u8; 4]) -> Result<Dec<'a>, SparseError> {
    let got = d.take(4)?;
    if got != tag {
        return Err(corrupt(format!(
            "expected section {:?}, found {:?}",
            String::from_utf8_lossy(tag),
            String::from_utf8_lossy(got)
        )));
    }
    let len = d.u64()?;
    if len > (d.bytes.len() - d.pos) as u64 {
        return Err(corrupt("section length exceeds file"));
    }
    let payload = d.take(len as usize)?;
    let checksum = d.u64()?;
    if fnv1a(payload) != checksum {
        return Err(corrupt(format!(
            "checksum mismatch in section {:?}",
            String::from_utf8_lossy(tag)
        )));
    }
    Ok(Dec::new(payload))
}

fn decode_engine<T: Scalar>(
    expected: &MatrixFingerprint,
    bytes: &[u8],
    telemetry: &TelemetryHandle,
) -> Result<Engine<T>, SparseError> {
    let (fp, scalar_bytes) = decode_header(bytes)?;
    if scalar_bytes != T::BYTES {
        return Err(corrupt(format!(
            "scalar width {scalar_bytes} does not match requested {}",
            T::BYTES
        )));
    }
    if fp != *expected {
        return Err(corrupt(format!(
            "file is keyed by {fp}, requested {expected}"
        )));
    }
    let mut d = Dec::new(bytes);
    let _ = d.take(8 + 4 + 4 + 32)?; // magic + version + scalar + fingerprint
    let k_hint_raw = d.u64()?;
    let k_hint = (k_hint_raw != u64::MAX).then_some(k_hint_raw as usize);
    let variant = d.u8()?;
    let micro_width = match d.u8()? {
        0 => None,
        w if spmm_kernels::MICRO_WIDTHS.contains(&(w as usize)) => Some(w as usize),
        w => return Err(corrupt(format!("bad microkernel width tag {w}"))),
    };

    let mut p = decode_section(&mut d, TAG_PLAN)?;
    let row_perm = Permutation::from_order(p.u32_vec()?)?;
    let remainder_order = Permutation::from_order(p.u32_vec()?)?;
    let flags = p.u8()?;
    let plan = ReorderPlan {
        row_perm,
        remainder_order,
        round1_applied: flags & 1 != 0,
        round2_applied: flags & 2 != 0,
        dense_ratio_before: p.f64()?,
        dense_ratio_after: p.f64()?,
        avgsim_before: p.f64()?,
        avgsim_after: p.f64()?,
        round1_stats: p.stats()?,
        round2_stats: p.stats()?,
    };
    p.done()?;

    let mut r = decode_section(&mut d, TAG_RCSR)?;
    let reordered = r.csr::<T>()?;
    r.done()?;

    let mut n = decode_section(&mut d, TAG_NMAP)?;
    let nnz_map = n.usize_vec()?;
    n.done()?;

    let mut a = decode_section(&mut d, TAG_ASPT)?;
    let config = AsptConfig {
        panel_height: a.u64()? as usize,
        min_col_nnz: a.u64()? as usize,
        tile_width: a.u64()? as usize,
    };
    let npanels = a.len_prefix(8 + 8 + 8)?;
    let mut panels = Vec::with_capacity(npanels);
    for _ in 0..npanels {
        let row_start = a.u64()? as usize;
        let row_end = a.u64()? as usize;
        let ntiles = a.len_prefix(5 * 8)?;
        let mut tiles = Vec::with_capacity(ntiles);
        for _ in 0..ntiles {
            tiles.push(DenseTile {
                cols: a.u32_vec()?,
                rowptr: a.usize_vec()?,
                colidx: a.u32_vec()?,
                values: a.scalar_vec::<T>()?,
                src_idx: a.u32_vec()?,
            });
        }
        panels.push(Panel {
            row_start,
            row_end,
            tiles,
        });
    }
    let remainder = a.csr::<T>()?;
    let remainder_src = a.u32_vec()?;
    a.done()?;

    d.done()?;

    let aspt = AsptMatrix::from_parts(config, panels, remainder, remainder_src)?;
    let mut engine = Engine::from_parts(plan, aspt, reordered, nnz_map, k_hint, telemetry)?;
    engine.set_micro_width(micro_width);

    // stale-tag check: the variant byte must agree with the plan it
    // rides with
    if variant != variant_tag(variant_of(&engine)) {
        return Err(corrupt(format!(
            "variant tag {variant} disagrees with the stored plan"
        )));
    }

    // the decisive staleness check: undo the stored permutation and
    // re-derive the structural fingerprint; it must equal the key
    let original = engine
        .reordered()
        .permute_rows(&engine.plan().row_perm.inverse());
    if MatrixFingerprint::of(&original) != *expected {
        return Err(corrupt(
            "stored plan does not re-derive the requested fingerprint",
        ));
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_data::generators;
    use spmm_kernels::EngineConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_store() -> (PlanStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "spmm-plan-store-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        (PlanStore::open(&dir).unwrap(), dir)
    }

    fn engine_for<T: Scalar>(m: &CsrMatrix<T>) -> Engine<T> {
        Engine::prepare(m, &EngineConfig::default()).unwrap()
    }

    #[test]
    fn roundtrip_rebuilds_bit_identical_engines() {
        let (store, dir) = temp_store();
        let m = generators::shuffled_block_diagonal::<f64>(64, 16, 48, 16, 3);
        let engine = engine_for(&m);
        let fp = MatrixFingerprint::of(&m);
        store.save(&fp, &engine).unwrap();
        assert!(store.contains::<f64>(&fp));
        let loaded = store
            .load::<f64>(&fp, &TelemetryHandle::noop())
            .unwrap()
            .unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), 8, 7);
        let y = generators::random_dense::<f64>(m.nrows(), 8, 8);
        assert_eq!(
            engine.spmm(&x).unwrap().data(),
            loaded.spmm(&x).unwrap().data()
        );
        assert_eq!(engine.sddmm(&x, &y).unwrap(), loaded.sddmm(&x, &y).unwrap());
        assert!(loaded.preprocessing_time().is_zero());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_file_is_a_miss_not_an_error() {
        let (store, dir) = temp_store();
        let m = generators::banded::<f32>(32, 4, 2, 5);
        let fp = MatrixFingerprint::of(&m);
        assert!(store
            .load::<f32>(&fp, &TelemetryHandle::noop())
            .unwrap()
            .is_none());
        assert!(!store.verify::<f32>(&fp).unwrap());
        assert!(!store.remove::<f32>(&fp).unwrap());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn scalar_types_key_distinct_files() {
        let (store, dir) = temp_store();
        let m32 = generators::banded::<f32>(32, 4, 2, 5);
        let fp = MatrixFingerprint::of(&m32);
        store.save(&fp, &engine_for(&m32)).unwrap();
        // same structure in f64 — fingerprint equal, file distinct
        assert!(store.contains::<f32>(&fp));
        assert!(!store.contains::<f64>(&fp));
        // loading the f32 file as f64 is a miss (different path)
        assert!(store
            .load::<f64>(&fp, &TelemetryHandle::noop())
            .unwrap()
            .is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn list_reports_saved_plans() {
        let (store, dir) = temp_store();
        let a = generators::banded::<f32>(32, 4, 2, 5);
        let b = generators::uniform_random::<f64>(24, 24, 4, 9);
        store
            .save(&MatrixFingerprint::of(&a), &engine_for(&a))
            .unwrap();
        store
            .save(&MatrixFingerprint::of(&b), &engine_for(&b))
            .unwrap();
        let plans = store.list().unwrap();
        assert_eq!(plans.len(), 2);
        assert!(plans
            .iter()
            .any(|p| p.fingerprint == MatrixFingerprint::of(&a) && p.scalar_bytes == 4));
        assert!(plans
            .iter()
            .any(|p| p.fingerprint == MatrixFingerprint::of(&b) && p.scalar_bytes == 8));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn wrong_fingerprint_is_rejected() {
        let (store, dir) = temp_store();
        let m = generators::banded::<f32>(32, 4, 2, 5);
        let other = generators::banded::<f32>(32, 6, 3, 5);
        let fp = MatrixFingerprint::of(&m);
        let fp_other = MatrixFingerprint::of(&other);
        store.save(&fp, &engine_for(&m)).unwrap();
        // masquerade the file under the other key
        fs::rename(store.path_for::<f32>(&fp), store.path_for::<f32>(&fp_other)).unwrap();
        let err = store
            .load::<f32>(&fp_other, &TelemetryHandle::noop())
            .unwrap_err();
        assert!(matches!(err, SparseError::InvalidStructure(_)), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupted_files_are_rejected_not_panics() {
        let (store, dir) = temp_store();
        let m = generators::shuffled_block_diagonal::<f32>(48, 12, 32, 12, 7);
        let fp = MatrixFingerprint::of(&m);
        store.save(&fp, &engine_for(&m)).unwrap();
        let path = store.path_for::<f32>(&fp);
        let pristine = fs::read(&path).unwrap();

        // truncation at every interesting boundary
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 3, pristine.len() - 1] {
            fs::write(&path, &pristine[..cut]).unwrap();
            assert!(
                store.load::<f32>(&fp, &TelemetryHandle::noop()).is_err(),
                "truncation at {cut} must be rejected"
            );
        }

        // a flipped byte anywhere in a section payload breaks its
        // checksum; in the header it breaks magic/version/fp checks
        for pos in [1, 9, 13, 20, HEADER_LEN + 20, pristine.len() - 20] {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(
                store.load::<f32>(&fp, &TelemetryHandle::noop()).is_err(),
                "flipped byte at {pos} must be rejected"
            );
        }

        // wrong version
        let mut bad = pristine.clone();
        bad[8] = 99;
        fs::write(&path, &bad).unwrap();
        let err = store
            .load::<f32>(&fp, &TelemetryHandle::noop())
            .unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // pristine bytes still load fine afterwards
        fs::write(&path, &pristine).unwrap();
        assert!(store.verify::<f32>(&fp).unwrap());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn older_versions_are_rejected_as_unsupported() {
        let (store, dir) = temp_store();
        let m = generators::shuffled_block_diagonal::<f64>(48, 12, 32, 12, 19);
        let fp = MatrixFingerprint::of(&m);
        store.save(&fp, &engine_for(&m)).unwrap();
        let path = store.path_for::<f64>(&fp);
        let pristine = fs::read(&path).unwrap();
        for version in [1u32, 2, 3, VERSION + 1] {
            let mut old = pristine.clone();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, &old).unwrap();
            let err = store
                .load::<f64>(&fp, &TelemetryHandle::noop())
                .unwrap_err();
            assert!(err.to_string().contains("unsupported version"), "{err}");
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn micro_width_round_trips_without_reselection() {
        let (store, dir) = temp_store();
        let m = generators::shuffled_block_diagonal::<f32>(64, 16, 48, 16, 13);
        let config = EngineConfig::builder().k_hint(64).build();
        let engine = Engine::prepare(&m, &config).unwrap();
        let width = engine.micro_width();
        assert_eq!(width, Some(32), "a k_hint of 64 sets the widest width");
        let fp = MatrixFingerprint::of(&m);
        store.save(&fp, &engine).unwrap();
        let loaded = store
            .load::<f32>(&fp, &TelemetryHandle::noop())
            .unwrap()
            .unwrap();
        // the recorded width is restored verbatim, with no prepare on
        // the warm path
        assert_eq!(loaded.micro_width(), width);
        assert!(loaded.preprocessing_time().is_zero());
        let x = generators::random_dense::<f32>(m.ncols(), 64, 17);
        assert_eq!(
            engine.spmm(&x).unwrap().data(),
            loaded.spmm(&x).unwrap().data()
        );

        // a corrupt width tag is a reject, not a silent fallback
        let path = store.path_for::<f32>(&fp);
        let pristine = fs::read(&path).unwrap();
        let mut bad = pristine.clone();
        bad[HEADER_LEN - 1] = 5;
        fs::write(&path, &bad).unwrap();
        let err = store
            .load::<f32>(&fp, &TelemetryHandle::noop())
            .unwrap_err();
        assert!(err.to_string().contains("microkernel width"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn save_delta_retains_the_old_epoch_file() {
        let (store, dir) = temp_store();
        let m = generators::shuffled_block_diagonal::<f64>(48, 12, 32, 12, 11);
        let engine = engine_for(&m);
        let fp = MatrixFingerprint::of(&m);
        store.save(&fp, &engine).unwrap();

        let next = engine.apply_delta(&[(0, 30, 2.0)], &[]).unwrap();
        let new_fp = MatrixFingerprint::of(&next.source_matrix());
        assert_ne!(new_fp, fp, "a structural delta must move the key");
        store.save_delta(&new_fp, &next).unwrap();

        // both epochs warm-loadable, old file untouched
        assert!(store.verify::<f64>(&fp).unwrap());
        assert!(store.verify::<f64>(&new_fp).unwrap());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_ledger_matches_surviving_fingerprints() {
        let (store, dir) = temp_store();
        let mats: Vec<CsrMatrix<f64>> = (0..4)
            .map(|i| generators::uniform_random::<f64>(24 + i, 24, 4, 70 + i as u64))
            .collect();
        for m in &mats {
            store
                .save(&MatrixFingerprint::of(m), &engine_for(m))
                .unwrap();
            // saves land within the same clock tick on fast filesystems;
            // nudge mtimes apart so recency order is the save order
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // a stray non-plan file must survive any gc
        let stray = store.root().join("notes.txt");
        fs::write(&stray, b"keep me").unwrap();

        let deleted = store.gc(2).unwrap();
        assert_eq!(deleted.len(), 2);

        // ledger: files on disk == live (listed) fingerprints, and the
        // survivors are exactly the two most recent saves
        let survivors = store.list().unwrap();
        assert_eq!(survivors.len(), 2);
        let on_disk: Vec<_> = fs::read_dir(store.root())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("spmmplan"))
            .collect();
        assert_eq!(on_disk.len(), survivors.len());
        for p in &survivors {
            assert!(
                on_disk.contains(&p.path),
                "{:?} listed but not on disk",
                p.path
            );
        }
        for m in &mats[2..] {
            let fp = MatrixFingerprint::of(m);
            assert!(
                survivors.iter().any(|p| p.fingerprint == fp),
                "recent plan was collected"
            );
            assert!(store.verify::<f64>(&fp).unwrap());
        }
        for m in &mats[..2] {
            assert!(!store.contains::<f64>(&MatrixFingerprint::of(m)));
        }
        assert!(stray.exists(), "gc must not touch non-plan files");

        // keeping more than exist is a no-op
        assert!(store.gc(10).unwrap().is_empty());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let (store, dir) = temp_store();
        let m = generators::banded::<f64>(40, 5, 2, 3);
        let fp = MatrixFingerprint::of(&m);
        store.save(&fp, &engine_for(&m)).unwrap();
        let leftovers: Vec<_> = fs::read_dir(store.root())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        // overwrite is fine too
        store.save(&fp, &engine_for(&m)).unwrap();
        assert!(store.verify::<f64>(&fp).unwrap());
        let _ = fs::remove_dir_all(dir);
    }
}
