//! Structural matrix identity for plan caching.

use spmm_sparse::{CsrMatrix, Scalar};
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// The structural identity of a sparse matrix: shape plus a 64-bit
/// FNV-1a hash over `rowptr` and `colidx`.
///
/// Values are deliberately **excluded** (see DESIGN.md §8): everything
/// the Fig 5 preprocessing pipeline computes — LSH signatures, the row
/// permutation, the ASpT tiling — depends only on *where* the nonzeros
/// are, never on what they hold. Two matrices with the same structure
/// and different values therefore share one fingerprint, which is what
/// lets a value-only update refresh a cached plan in place instead of
/// invalidating it.
///
/// The fingerprint is also independent of the scalar type, for the
/// same reason.
///
/// ```
/// use spmm_data::generators;
/// use spmm_serve::MatrixFingerprint;
///
/// let a = generators::banded::<f32>(128, 8, 4, 7);
/// let mut b = a.clone();
/// b.values_mut().iter_mut().for_each(|v| *v *= 2.0);
/// assert_eq!(MatrixFingerprint::of(&a), MatrixFingerprint::of(&b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatrixFingerprint {
    nrows: u64,
    ncols: u64,
    nnz: u64,
    hash: u64,
}

impl MatrixFingerprint {
    /// Fingerprints `m`'s structure. `O(nnz)`, no allocation.
    pub fn of<T: Scalar>(m: &CsrMatrix<T>) -> Self {
        let mut h = Fnv::new();
        h.write_u64(m.nrows() as u64);
        h.write_u64(m.ncols() as u64);
        for &p in m.rowptr() {
            h.write_u64(p as u64);
        }
        for &c in m.colidx() {
            h.write_u64(u64::from(c));
        }
        MatrixFingerprint {
            nrows: m.nrows() as u64,
            ncols: m.ncols() as u64,
            nnz: m.nnz() as u64,
            hash: h.0,
        }
    }

    /// Rebuilds a fingerprint from its raw fields — only for the plan
    /// store, which persists fingerprints inside file headers and must
    /// reconstruct them on load (then cross-checks against a fingerprint
    /// recomputed from the decoded matrix).
    pub(crate) fn from_raw(nrows: u64, ncols: u64, nnz: u64, hash: u64) -> Self {
        MatrixFingerprint {
            nrows,
            ncols,
            nnz,
            hash,
        }
    }

    /// Row count of the fingerprinted matrix.
    pub fn nrows(&self) -> usize {
        self.nrows as usize
    }

    /// Column count of the fingerprinted matrix.
    pub fn ncols(&self) -> usize {
        self.ncols as usize
    }

    /// Nonzero count of the fingerprinted matrix.
    pub fn nnz(&self) -> usize {
        self.nnz as usize
    }

    /// The 64-bit structural hash (well mixed; the cache derives its
    /// backoff jitter from it).
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

impl fmt::Display for MatrixFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}+{}nnz@{:016x}",
            self.nrows, self.ncols, self.nnz, self.hash
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_data::generators;

    #[test]
    fn values_do_not_change_the_fingerprint() {
        let a = generators::uniform_random::<f64>(64, 64, 6, 3);
        let mut b = a.clone();
        for v in b.values_mut() {
            *v = -*v + 0.25;
        }
        assert_eq!(MatrixFingerprint::of(&a), MatrixFingerprint::of(&b));
    }

    #[test]
    fn fingerprint_is_scalar_type_independent() {
        let a = generators::banded::<f32>(64, 6, 3, 5);
        let b = CsrMatrix::<f64>::from_parts(
            a.nrows(),
            a.ncols(),
            a.rowptr().to_vec(),
            a.colidx().to_vec(),
            vec![1.0f64; a.nnz()],
        )
        .unwrap();
        assert_eq!(MatrixFingerprint::of(&a), MatrixFingerprint::of(&b));
    }

    #[test]
    fn structure_changes_the_fingerprint() {
        let a = generators::uniform_random::<f32>(64, 64, 6, 3);
        let b = generators::uniform_random::<f32>(64, 64, 6, 4);
        assert_ne!(MatrixFingerprint::of(&a), MatrixFingerprint::of(&b));
        // same nnz layout length, different shape
        let c =
            CsrMatrix::<f32>::from_parts(2, 3, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        let d =
            CsrMatrix::<f32>::from_parts(2, 4, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        assert_ne!(MatrixFingerprint::of(&c), MatrixFingerprint::of(&d));
    }

    #[test]
    fn accessors_and_display() {
        let m = generators::diagonal::<f32>(32, 1);
        let fp = MatrixFingerprint::of(&m);
        assert_eq!((fp.nrows(), fp.ncols(), fp.nnz()), (32, 32, m.nnz()));
        let s = fp.to_string();
        assert!(s.starts_with("32x32+"), "{s}");
        assert!(s.contains(&format!("{:016x}", fp.hash())), "{s}");
    }
}
