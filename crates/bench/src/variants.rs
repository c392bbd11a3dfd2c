//! Index-variant zoo: build any of the paper's Table II methods over a
//! trajectory string, behind one object-safe interface.

use cinct::{CinctBuilder, CinctIndex, LabelingStrategy};
use cinct_bwt::TrajectoryString;
use cinct_fmindex::{FmApHyb, FmGmr, IcbHuff, IcbWm, PathQuery, Ufmi};
use cinct_succinct::{HuffmanWaveletTree, RrrBitVec, WaveletMatrix};
use std::time::Instant;

/// The methods compared in the paper (Table II) plus the Fig. 14 ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// CiNCT with bigram-sorted RML over pure RRR, as in the paper; `b` =
    /// RRR block size.
    Cinct {
        /// RRR block size (paper: 15, 31, 63).
        b: usize,
    },
    /// This repository's CiNCT: as [`Variant::Cinct`], but each group of
    /// the labeled tree's RRR is stored raw where that is smaller.
    CinctHybrid {
        /// RRR block size.
        b: usize,
    },
    /// CiNCT with randomly permuted labels (Fig. 14 strawman).
    CinctRandomLabels {
        /// RRR block size.
        b: usize,
        /// Permutation seed.
        seed: u64,
    },
    /// Wavelet matrix over plain bitmaps (uncompressed FM-index).
    Ufmi,
    /// Wavelet matrix over RRR (implicit compression boosting).
    IcbWm {
        /// RRR block size.
        b: usize,
    },
    /// Huffman wavelet tree over RRR.
    IcbHuff {
        /// RRR block size.
        b: usize,
    },
    /// Large-alphabet position-list FM-index (FM-GMR stand-in).
    FmGmr,
    /// Alphabet-partitioned FM-index (FM-AP-HYB stand-in).
    FmApHyb,
}

impl Variant {
    /// Paper display name.
    pub fn name(&self) -> String {
        match self {
            Variant::Cinct { .. } => "CiNCT".into(),
            Variant::CinctHybrid { .. } => "CiNCT (hybrid)".into(),
            Variant::CinctRandomLabels { .. } => "CiNCT-rand".into(),
            Variant::Ufmi => "UFMI".into(),
            Variant::IcbWm { .. } => "ICB-WM".into(),
            Variant::IcbHuff { .. } => "ICB-Huff".into(),
            Variant::FmGmr => "FM-GMR".into(),
            Variant::FmApHyb => "FM-AP-HYB".into(),
        }
    }
}

/// The six defaults compared in Figs. 10–13 (b = 63 where applicable).
pub const ALL_VARIANTS: [Variant; 6] = [
    Variant::Cinct { b: 63 },
    Variant::Ufmi,
    Variant::IcbWm { b: 63 },
    Variant::IcbHuff { b: 63 },
    Variant::FmGmr,
    Variant::FmApHyb,
];

/// A built index, its metadata, and (for CiNCT) the w/o-ET-graph size.
///
/// Every variant sits behind the same `dyn PathQuery` object: the harness
/// has no per-variant query dispatch, only per-variant *construction*.
pub struct BuiltIndex {
    /// Display name.
    pub name: String,
    /// The queryable index.
    pub index: Box<dyn PathQuery>,
    /// Construction wall-clock seconds.
    pub build_secs: f64,
    /// Size excluding the ET-graph, if the variant has one.
    pub size_without_et_graph: Option<usize>,
}

impl BuiltIndex {
    /// Bits per indexed symbol.
    pub fn bits_per_symbol(&self) -> f64 {
        self.index.bits_per_symbol()
    }
}

/// Build the given variant over a prepared trajectory string.
pub fn build_variant(variant: Variant, ts: &TrajectoryString, n_edges: usize) -> BuiltIndex {
    let t0 = Instant::now();
    let (index, without_et): (Box<dyn PathQuery>, Option<usize>) = match variant {
        Variant::Cinct { b } => {
            let idx = build_cinct(ts, n_edges, b);
            let w = idx.size_without_et_graph();
            (Box::new(idx), Some(w))
        }
        Variant::CinctHybrid { b } => {
            let (idx, _) = CinctBuilder::new()
                .block_size(b)
                .build_from_trajectory_string(ts, n_edges);
            let w = idx.size_without_et_graph();
            (Box::new(idx), Some(w))
        }
        Variant::CinctRandomLabels { b, seed } => {
            let (idx, _) = CinctBuilder::new()
                .block_size(b)
                .pure_rrr()
                .labeling(LabelingStrategy::Random { seed })
                .build_from_trajectory_string(ts, n_edges);
            let w = idx.size_without_et_graph();
            (Box::new(idx), Some(w))
        }
        Variant::Ufmi => (Box::new(Ufmi::from_text(ts.text(), ts.sigma())), None),
        Variant::IcbWm { b } => (
            Box::new(IcbWm::from_text_with(ts.text(), ts.sigma(), |bwt| {
                WaveletMatrix::<RrrBitVec>::with_params(bwt, b)
            })),
            None,
        ),
        Variant::IcbHuff { b } => (
            Box::new(IcbHuff::from_text_with(ts.text(), ts.sigma(), |bwt| {
                HuffmanWaveletTree::<RrrBitVec>::with_params(bwt, b)
            })),
            None,
        ),
        Variant::FmGmr => (Box::new(FmGmr::from_text(ts.text(), ts.sigma())), None),
        Variant::FmApHyb => (Box::new(FmApHyb::from_text(ts.text(), ts.sigma())), None),
    };
    BuiltIndex {
        name: variant.name(),
        index,
        build_secs: t0.elapsed().as_secs_f64(),
        size_without_et_graph: without_et,
    }
}

/// The paper's CiNCT (pure RRR) as a concrete index, for timing its
/// internals.
pub fn build_cinct(ts: &TrajectoryString, n_edges: usize, b: usize) -> CinctIndex {
    CinctBuilder::new()
        .block_size(b)
        .pure_rrr()
        .build_from_trajectory_string(ts, n_edges)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ts() -> TrajectoryString {
        let trajs = vec![vec![0u32, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
        TrajectoryString::build(&trajs, 6)
    }

    #[test]
    fn every_variant_builds_and_agrees() {
        let ts = tiny_ts();
        let path = cinct_fmindex::Path::new(&[0, 1]);
        let expected = Some(9..11);
        for v in ALL_VARIANTS {
            let built = build_variant(v, &ts, 6);
            assert_eq!(
                built.index.range(path),
                expected,
                "{} disagrees",
                built.name
            );
            assert_eq!(built.index.count(path), 2, "{} miscounts", built.name);
            assert!(built.bits_per_symbol() > 0.0);
        }
    }

    #[test]
    fn hybrid_cinct_agrees_and_is_never_larger() {
        let ts = tiny_ts();
        let path = cinct_fmindex::Path::new(&[0, 1]);
        let pure = build_variant(Variant::Cinct { b: 63 }, &ts, 6);
        let hybrid = build_variant(Variant::CinctHybrid { b: 63 }, &ts, 6);
        assert_eq!(hybrid.name, "CiNCT (hybrid)");
        assert_eq!(hybrid.index.range(path), pure.index.range(path));
        assert!(hybrid.bits_per_symbol() <= pure.bits_per_symbol());
    }

    #[test]
    fn cinct_reports_et_graph_split() {
        let ts = tiny_ts();
        let built = build_variant(Variant::Cinct { b: 63 }, &ts, 6);
        let without = built.size_without_et_graph.expect("cinct splits size");
        assert!(without < built.index.size_in_bytes());
        let baseline = build_variant(Variant::Ufmi, &ts, 6);
        assert!(baseline.size_without_et_graph.is_none());
    }
}
