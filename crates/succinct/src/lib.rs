#![warn(missing_docs)]
//! Succinct data structures underlying the CiNCT trajectory index.
//!
//! This crate provides the bit-level substrate described in Section II of the
//! CiNCT paper (Koide et al., ICDE 2018):
//!
//! * [`BitBuf`] — an append-only bit buffer with random access ([`bits`]).
//! * [`RankBitVec`] — a plain bit vector with a two-level rank directory and
//!   select support ([`rank_bits`]).
//! * [`RrrBitVec`] — the practical RRR compressed bit vector of Navarro &
//!   Providel (SEA'12) with a runtime block-size parameter `b` ([`rrr`]).
//! * [`HuffmanCode`] / [`HuffmanTree`] — Huffman coding over `u32` alphabets
//!   ([`huffman`]).
//! * [`HuffmanWaveletTree`] — a Huffman-shaped wavelet tree (HWT), generic
//!   over the bit-vector backend ([`wavelet_tree`]).
//! * [`WaveletMatrix`] — a wavelet matrix (Claude & Navarro, SPIRE'12), also
//!   generic over the backend ([`wavelet_matrix`]).
//! * [`IntVec`] — fixed-width packed integer vectors ([`int_vec`]).
//!
//! All sequence structures implement [`SymbolSeq`], the symbol-level
//! rank/access interface consumed by the FM-index variants and by CiNCT
//! itself, and every structure reports its heap footprint through
//! [`SpaceUsage`].

pub mod bits;
pub mod huffman;
pub mod int_vec;
pub mod rank_bits;
pub mod rrr;
pub mod serial;
pub mod traits;
pub mod wavelet_matrix;
pub mod wavelet_tree;

pub use bits::BitBuf;
pub use huffman::{HuffmanCode, HuffmanTree};
pub use int_vec::IntVec;
pub use rank_bits::RankBitVec;
pub use rrr::RrrBitVec;
pub use serial::Persist;
pub use traits::{BitRank, BitVecBuild, SpaceUsage, Symbol, SymbolSeq};
pub use wavelet_matrix::WaveletMatrix;
pub use wavelet_tree::HuffmanWaveletTree;
