//! Umbrella crate for the CiNCT reproduction.
//!
//! Re-exports every workspace crate under one roof so the runnable examples
//! (`examples/`) and the cross-crate integration tests (`tests/`) have a
//! single dependency. Library users should depend on the individual crates:
//!
//! * [`cinct`] — the CiNCT index itself (RML + PseudoRank over an HWT on hybrid RRR).
//! * [`cinct_fmindex`] — the baseline FM-index family (UFMI, ICB-WM,
//!   ICB-Huff, FM-GMR, FM-AP-HYB).
//! * [`cinct_succinct`] — bit vectors, RRR, wavelet trees/matrices.
//! * [`cinct_bwt`] — SA-IS, BWT, trajectory strings, empirical entropy.
//! * [`cinct_network`] — road-network models and trajectory generators.
//! * [`cinct_compressors`] — MEL, Re-Pair, bzip2-like, zip-like, PRESS-like.
//! * [`cinct_datasets`] — deterministic emulations of the paper's datasets.

pub use cinct;
pub use cinct_bwt;
pub use cinct_compressors;
pub use cinct_datasets;
pub use cinct_fmindex;
pub use cinct_network;
pub use cinct_succinct;
