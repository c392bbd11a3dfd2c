//! Property-based tests for the string substrate: SA-IS vs naive suffix
//! sorting, BWT invertibility, trajectory-string bookkeeping, and entropy
//! identities.

use cinct_bwt::{bwt, entropy_h0, entropy_hk, inverse_bwt, suffix_array, CArray, TrajectoryString};
use proptest::prelude::*;

fn body_strategy() -> impl Strategy<Value = Vec<u32>> {
    (2u32..30).prop_flat_map(|sigma| proptest::collection::vec(0..sigma, 0..400))
}

/// Random trajectory corpora shaped like the ones RML labels: short edge
/// walks over a small network, `$`-separated once concatenated.
fn trajs_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..40, 1..40), 1..20)
}

fn with_sentinel(body: &[u32]) -> Vec<u32> {
    let mut v: Vec<u32> = body.iter().map(|&c| c + 1).collect();
    v.push(0);
    v
}

/// SA-IS against the naive comparison sort.
fn assert_sa_matches_naive(text: &[u32]) {
    let sigma = text.iter().copied().max().unwrap() as usize + 1;
    let expected = cinct_bwt::sais::naive_suffix_array(text);
    assert_eq!(suffix_array(text, sigma), expected, "text={text:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn sais_equals_naive(body in body_strategy()) {
        assert_sa_matches_naive(&with_sentinel(&body));
    }

    #[test]
    fn sais_equals_naive_on_trajectory_strings(trajs in trajs_strategy()) {
        // RML-labeled corpora hit SA-IS through TrajectoryString: many
        // repeated `$` separators and a skewed edge alphabet.
        let ts = TrajectoryString::build(&trajs, 40);
        assert_sa_matches_naive(ts.text());
    }

    #[test]
    fn bwt_inverts(body in body_strategy()) {
        let text = with_sentinel(&body);
        let sigma = text.iter().copied().max().unwrap() as usize + 1;
        let (_, tbwt) = bwt(&text, sigma);
        prop_assert_eq!(inverse_bwt(&tbwt, sigma), text);
    }

    #[test]
    fn bwt_preserves_histogram(body in body_strategy()) {
        let text = with_sentinel(&body);
        let sigma = text.iter().copied().max().unwrap() as usize + 1;
        let (_, tbwt) = bwt(&text, sigma);
        let mut a = text.clone();
        let mut b = tbwt.clone();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        // Entropy is permutation-invariant.
        prop_assert!((entropy_h0(&text) - entropy_h0(&tbwt)).abs() < 1e-9);
    }

    #[test]
    fn c_array_partitions(body in body_strategy()) {
        let text = with_sentinel(&body);
        let sigma = text.iter().copied().max().unwrap() as usize + 1;
        let c = CArray::new(&text, sigma);
        prop_assert_eq!(c.get(0), 0);
        prop_assert_eq!(c.get(sigma as u32), text.len());
        let mut total = 0usize;
        for w in 0..sigma as u32 {
            let cnt = text.iter().filter(|&&s| s == w).count();
            prop_assert_eq!(c.count(w), cnt);
            total += cnt;
            prop_assert_eq!(c.get(w + 1), total);
            for j in c.symbol_range(w) {
                prop_assert_eq!(c.symbol_at(j), w);
            }
        }
    }

    #[test]
    fn symbol_at_matches_binary_search_reference(body in body_strategy()) {
        // The O(1) rank-backed context lookup against the seed's binary
        // search, over every position of a random text (alphabet gaps and
        // skewed counts included).
        let text = with_sentinel(&body);
        let sigma = text.iter().copied().max().unwrap() as usize + 1;
        let c = CArray::new(&text, sigma);
        for j in 0..text.len() {
            prop_assert_eq!(c.symbol_at(j), c.symbol_at_binsearch(j), "j={}", j);
        }
        // The accelerator survives a raw-counts roundtrip.
        let back = CArray::from_raw_counts(c.raw_counts().to_vec()).unwrap();
        for j in 0..text.len() {
            prop_assert_eq!(back.symbol_at(j), c.symbol_at(j), "roundtrip j={}", j);
        }
    }

    #[test]
    fn hk_never_exceeds_h0(body in body_strategy(), k in 1usize..4) {
        if body.len() > k + 1 {
            let h0 = entropy_h0(&body);
            let hk = entropy_hk(&body, k);
            prop_assert!(hk <= h0 + 1e-9, "H{} = {} > H0 = {}", k, hk, h0);
        }
    }

    #[test]
    fn trajectory_string_roundtrip(
        trajs in proptest::collection::vec(proptest::collection::vec(0u32..20, 0..30), 0..12)
    ) {
        let ts = TrajectoryString::build(&trajs, 20);
        let non_empty: Vec<&Vec<u32>> = trajs.iter().filter(|t| !t.is_empty()).collect();
        prop_assert_eq!(ts.num_trajectories(), non_empty.len());
        for (i, t) in non_empty.iter().enumerate() {
            prop_assert_eq!(&ts.trajectory(i), *t);
        }
        // Length bookkeeping: body symbols + one '$' per trajectory + '#'.
        let expect_len: usize = non_empty.iter().map(|t| t.len() + 1).sum::<usize>() + 1;
        prop_assert_eq!(ts.len(), expect_len);
    }

    #[test]
    fn pattern_encode_decode(path in proptest::collection::vec(0u32..1000, 0..50)) {
        let enc = TrajectoryString::encode_pattern(&path);
        prop_assert_eq!(TrajectoryString::decode_pattern(&enc), path);
    }
}

#[test]
fn sais_sigma_one_bodies() {
    // A single distinct body symbol (effective sigma = 1 besides the
    // sentinel) at several lengths, including block-boundary sizes.
    for n in [1usize, 2, 63, 64, 65, 500] {
        assert_sa_matches_naive(&with_sentinel(&vec![1u32; n]));
    }
}

#[test]
fn sais_all_distinct_bodies() {
    // Every symbol distinct: no repeated LMS substrings, so naming is
    // injective and the recursion bottoms out immediately — in both
    // ascending and shuffled orders.
    let ascending: Vec<u32> = (0..200u32).collect();
    assert_sa_matches_naive(&with_sentinel(&ascending));
    let descending: Vec<u32> = (0..200u32).rev().collect();
    assert_sa_matches_naive(&with_sentinel(&descending));
    let shuffled: Vec<u32> = (0..199u32).map(|i| (i * 97) % 199).collect();
    assert_sa_matches_naive(&with_sentinel(&shuffled));
}
