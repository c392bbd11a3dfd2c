#![warn(missing_docs)]
//! Suffix arrays, the Burrows–Wheeler transform, trajectory strings, and
//! empirical entropy — the string-processing substrate of CiNCT (paper §II).
//!
//! * [`sais`] — linear-time SA-IS suffix-array construction over integer
//!   alphabets (the paper used `sais.hxx`; this is a from-scratch Rust
//!   implementation of the algorithm).
//! * [`text`] — the trajectory string `T = T1^r $ … TN^r $ #` (Definition 2)
//!   and the `C[w]` cumulative-count array.
//! * [`mod@bwt`] — BWT construction from a suffix array and its inverse.
//! * [`entropy`] — 0th and k-th order empirical entropy (Eqs. (3) and (4)),
//!   used throughout the paper's analysis and in Tables III and V.

pub mod bwt;
pub mod entropy;
pub mod sais;
pub mod text;

pub use bwt::{bwt, bwt_from_sa, bwt_replace_sa, inverse_bwt, CArray};
pub use entropy::{entropy_h0, entropy_hk, h0_of_counts};
pub use sais::{suffix_array, suffix_array_with, SaisWorkspace};
pub use text::{TrajectoryString, END_SYMBOL, SEPARATOR, SYMBOL_OFFSET};
