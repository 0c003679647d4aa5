//! The format zoo: alternative physical layouts, kept as simulator
//! tools and experiment baselines.
//!
//! The paper's §4 strategy is trial-and-error; this module widens the
//! trial beyond CSR-flavored variants. [`crate::autotune::choose_format`]
//! rebuilds the whole reordered matrix in SELL-C-σ (row-regularized
//! sliced ELLPACK — the format family Yang/Buluç/Owens show winning on
//! exactly the clustered structures round-2 reordering manufactures) or
//! CSB (β×β register blocks — strong when nonzeros are clustered) and
//! races the candidates against the incumbent ASpT layout on the gpu-sim
//! transaction model. The engine does not run the winner: measured on
//! the CPU, every chosen payload lost to the plan's own ASpT kernel
//! (EXPERIMENTS.md), so a prepared plan has one layout.
//!
//! Two invariants hold for the payloads built here:
//!
//! * **Bit-exactness.** Both format kernels fold each output row in
//!   ascending-column order with `mul_add`, exactly like the sequential
//!   row-wise reference — and row reordering never changes the
//!   within-row order. Outputs are bit-identical to that reference no
//!   matter which format wins.
//! * **Never-regress.** [`crate::autotune::choose_format`] only adopts
//!   a challenger on a strictly smaller simulated time; ties and losses
//!   keep the incumbent CSR/ASpT configuration.

use serde::{Deserialize, Serialize};
use spmm_formats::{CsbMatrix, SellPMatrix};
use spmm_gpu_sim::{DeviceConfig, SimReport};
use spmm_sparse::{CsrMatrix, DenseMatrix, Scalar, SparseError};

/// Slice height (the `C` of SELL-C-σ) used for candidate layouts: one
/// warp of rows per slice, the height MAGMA's SpMM kernels use.
pub const SELL_SLICE_HEIGHT: usize = 32;

/// σ-window candidates for the SELL row sort. `0` disables sorting
/// (pure SELL-P); the larger windows trade sort scope for padding.
pub const SELL_SIGMA_CANDIDATES: [usize; 2] = [0, 256];

/// Block-size candidates for CSB layouts.
pub const CSB_BETA_CANDIDATES: [usize; 2] = [64, 128];

/// Padding-blowup cap for candidate SELL layouts: a candidate whose
/// padded slots would exceed this multiple of `nnz` is "format not
/// applicable" and skipped (counted as `tune.format.skipped`).
pub const MAX_FORMAT_PADDING: f64 = 2.0;

/// Minimum expected entries per non-empty β×β block for a CSB candidate
/// to be worth building — below this the block headers outweigh any
/// register-blocking reuse and the candidate is skipped.
pub const MIN_CSB_OCCUPANCY: f64 = 2.0;

/// The physical layout the engine's SpMM-family ops execute against —
/// the *choice* half of a format selection, cheap to copy and persist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FormatChoice {
    /// The incumbent: reordered CSR through the ASpT decomposition.
    Csr,
    /// SELL-C-σ over the whole reordered matrix.
    SellCSigma {
        /// Slice height (`C`).
        slice_height: usize,
        /// Row-sort window (`σ`); `0` disables sorting.
        sigma: usize,
    },
    /// Compressed Sparse Blocks over the whole reordered matrix.
    Csb {
        /// Block size (`β`).
        beta: usize,
    },
}

impl FormatChoice {
    /// Short human-readable label (`csr`, `sell-32-256`, `csb-64`) for
    /// telemetry and the `plan verify` / `plan load` CLI output.
    pub fn label(&self) -> String {
        match self {
            FormatChoice::Csr => "csr".to_string(),
            FormatChoice::SellCSigma {
                slice_height,
                sigma,
            } => format!("sell-{slice_height}-{sigma}"),
            FormatChoice::Csb { beta } => format!("csb-{beta}"),
        }
    }
}

impl std::fmt::Display for FormatChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A built format payload: the physical layout the engine executes
/// against when a non-CSR format won the trial. Always laid out over
/// the *reordered* matrix, so the engine's output unpermutation is
/// unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum FormatPayload<T> {
    /// SELL-C-σ layout.
    Sell {
        /// The layout.
        matrix: SellPMatrix<T>,
        /// The σ window it was built with (not recoverable from the
        /// layout itself once sorting is a no-op).
        sigma: usize,
    },
    /// CSB layout.
    Csb(CsbMatrix<T>),
}

impl<T: Scalar> FormatPayload<T> {
    /// Builds the payload for a choice over the reordered matrix.
    /// `Csr` needs no payload (`Ok(None)`). Fails with the layouts'
    /// "format not applicable" / validation errors — the delta path
    /// treats that as revert-to-CSR, the autotuner as a skip.
    pub fn build(
        choice: FormatChoice,
        reordered: &CsrMatrix<T>,
    ) -> Result<Option<Self>, SparseError> {
        match choice {
            FormatChoice::Csr => Ok(None),
            FormatChoice::SellCSigma {
                slice_height,
                sigma,
            } => {
                let matrix =
                    SellPMatrix::try_from_csr(reordered, slice_height, sigma, MAX_FORMAT_PADDING)?;
                Ok(Some(FormatPayload::Sell { matrix, sigma }))
            }
            FormatChoice::Csb { beta } => {
                let csb = CsbMatrix::try_from_csr(reordered, beta)?;
                Ok(Some(FormatPayload::Csb(csb)))
            }
        }
    }

    /// The choice this payload realizes.
    pub fn choice(&self) -> FormatChoice {
        match self {
            FormatPayload::Sell { matrix, sigma } => FormatChoice::SellCSigma {
                slice_height: matrix.slice_height(),
                sigma: *sigma,
            },
            FormatPayload::Csb(csb) => FormatChoice::Csb { beta: csb.beta() },
        }
    }

    /// Reconstructs the CSR matrix this payload lays out — the codec's
    /// cross-check that a decoded payload agrees with the plan's
    /// reordered matrix.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        match self {
            FormatPayload::Sell { matrix, .. } => matrix.to_csr(),
            FormatPayload::Csb(csb) => csb.to_csr(),
        }
    }

    /// Parallel SpMM through the format's kernel; rows come back in the
    /// layout's input order (the engine's reordered row space).
    pub fn spmm(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, SparseError> {
        match self {
            FormatPayload::Sell { matrix, .. } => matrix.spmm_par(x),
            FormatPayload::Csb(csb) => csb.spmm_par(x),
        }
    }

    /// Simulated SpMM performance of the format kernel on the gpu-sim
    /// transaction model — what the trial ranks.
    pub fn simulate_spmm(&self, k: usize, device: &DeviceConfig) -> SimReport {
        match self {
            FormatPayload::Sell { matrix, .. } => matrix.simulate_spmm(k, device),
            FormatPayload::Csb(csb) => csb.simulate_spmm(k, device),
        }
    }

    /// Number of nonzeros stored (padding excluded).
    pub fn nnz(&self) -> usize {
        match self {
            FormatPayload::Sell { matrix, .. } => matrix.nnz(),
            FormatPayload::Csb(csb) => csb.nnz(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_data::generators;

    #[test]
    fn choice_labels_roundtrip_the_parameters() {
        assert_eq!(FormatChoice::Csr.label(), "csr");
        assert_eq!(
            FormatChoice::SellCSigma {
                slice_height: 32,
                sigma: 256
            }
            .label(),
            "sell-32-256"
        );
        assert_eq!(FormatChoice::Csb { beta: 64 }.label(), "csb-64");
        assert_eq!(format!("{}", FormatChoice::Csb { beta: 64 }), "csb-64");
    }

    #[test]
    fn build_realizes_the_choice_and_roundtrips() {
        let m = generators::power_law::<f64>(300, 280, 2400, 0.85, 5);
        for choice in [
            FormatChoice::SellCSigma {
                slice_height: 16,
                sigma: 64,
            },
            FormatChoice::Csb { beta: 32 },
        ] {
            let payload = FormatPayload::build(choice, &m).unwrap().unwrap();
            assert_eq!(payload.choice(), choice);
            assert_eq!(payload.to_csr(), m);
            assert_eq!(payload.nnz(), m.nnz());
        }
        assert!(FormatPayload::build(FormatChoice::Csr, &m)
            .unwrap()
            .is_none());
    }

    #[test]
    fn build_propagates_not_applicable() {
        // one long row among empties: SELL at slice_height = nrows pads
        // everything to the long row and blows the cap
        let mut rowptr = vec![0usize; 65];
        for p in rowptr.iter_mut().skip(1) {
            *p = 64;
        }
        let m = CsrMatrix::<f64>::from_parts(64, 64, rowptr, (0..64u32).collect(), vec![1.0; 64])
            .unwrap();
        let choice = FormatChoice::SellCSigma {
            slice_height: 64,
            sigma: 0,
        };
        assert!(FormatPayload::build(choice, &m).is_err());
        // oversized beta is a validation error, not a truncation
        assert!(FormatPayload::build(
            FormatChoice::Csb {
                beta: (u16::MAX as usize) + 2
            },
            &m
        )
        .is_err());
    }

    #[test]
    fn format_kernels_are_bit_exact_vs_rowwise_reference() {
        let m = generators::noisy_shuffled_clusters::<f64>(8, 16, 32, 12, 4, 7);
        let x = generators::random_dense::<f64>(m.ncols(), 11, 3);
        let reference = crate::spmm::spmm_rowwise_seq(&m, &x).unwrap();
        for choice in [
            FormatChoice::SellCSigma {
                slice_height: 8,
                sigma: 32,
            },
            FormatChoice::Csb { beta: 16 },
        ] {
            let payload = FormatPayload::build(choice, &m).unwrap().unwrap();
            let y = payload.spmm(&x).unwrap();
            assert_eq!(
                y.data(),
                reference.data(),
                "{choice} must be bit-exact vs the row-wise reference"
            );
        }
    }
}
