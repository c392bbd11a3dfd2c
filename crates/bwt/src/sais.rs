//! SA-IS: linear-time suffix-array construction over integer alphabets
//! (Nong, Zhang & Chan, 2009).
//!
//! The CiNCT paper computes the BWT of trajectory strings with `sais.hxx`;
//! this module is the equivalent substrate. The input is a `u32` sequence
//! whose **last element must be the unique, smallest symbol** (the
//! trajectory string's `#` sentinel satisfies this by construction).
//!
//! # Allocation-lean construction
//!
//! The default path ([`suffix_array`] / [`suffix_array_with`]) allocates
//! only the output `sa` plus a reusable [`SaisWorkspace`]:
//!
//! * suffix types are a **bit-packed** map in the workspace (the seed spent
//!   one `Vec<bool>` — 8x the bits — per recursion level);
//! * bucket counters live in two workspace arrays **reused across levels**
//!   (the seed allocated counts/heads/tails per level and then cloned the
//!   head/tail cursors again inside every induce pass);
//! * reduced problems are stored **inside the `sa` buffer itself**: the
//!   sub-problem's SA occupies `sa[0..m]`, LMS names park at `sa[m + j/2]`,
//!   and the reduced text / LMS-position table share `sa[n-m..n]` — the
//!   classic in-buffer layout, so recursion allocates nothing at all. The
//!   type map is recomputed after each recursive call instead of being kept
//!   per level.
//!
//! Tests pin the result to a naive suffix sort ([`naive_suffix_array`]);
//! `benchmark/` reports `bwt.sais_msym_per_s`.

const EMPTY: u32 = u32::MAX;

/// Reusable scratch for [`suffix_array_with`]: holds every transient the
/// construction needs so repeated builds (and all recursion levels of one
/// build) allocate nothing beyond the output array.
///
/// The type maps and symbol counts are **stacked arenas**: level `k`
/// occupies a contiguous region after level `k-1`'s, so a level's data
/// survives its recursive call untouched (no recomputation on the way
/// back up). Total arena footprint is geometric — under `2n` bits of
/// types and `O(σ + n)` count words.
#[derive(Clone, Debug, Default)]
pub struct SaisWorkspace {
    /// Bit-packed suffix types, one region per live recursion level
    /// (bit `i` of a level's region = the suffix at `i` is S-type).
    stype: Vec<u64>,
    /// Bit-packed LMS markers, derived from `stype` per level so the hot
    /// loops test one bit (and scan whole words) instead of two.
    lms: Vec<u64>,
    /// Per-symbol occurrence counts, one region per live recursion level.
    counts: Vec<u32>,
    /// Scratch bucket cursors (heads or tails derived from `counts`).
    bkt: Vec<u32>,
}

impl SaisWorkspace {
    /// An empty workspace; buffers grow to fit the first text and are
    /// reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Build the suffix array of `text` over alphabet `0..sigma`.
///
/// Requirements (checked with `debug_assert` in hot code, `assert` at the
/// entry point):
/// * `text` is non-empty,
/// * `text[text.len()-1]` is strictly smaller than every other element and
///   occurs exactly once.
///
/// Returns `sa` with `sa[i]` = start position of the `i`-th smallest suffix.
pub fn suffix_array(text: &[u32], sigma: usize) -> Vec<u32> {
    let mut ws = SaisWorkspace::new();
    suffix_array_with(text, sigma, &mut ws)
}

/// [`suffix_array`] with caller-provided scratch, so batch index builds
/// reuse one workspace across texts.
pub fn suffix_array_with(text: &[u32], sigma: usize, ws: &mut SaisWorkspace) -> Vec<u32> {
    assert_input(text);
    debug_assert!(text.iter().all(|&c| (c as usize) < sigma));
    let mut sa = vec![0u32; text.len()];
    sais_lean(text, &mut sa, sigma, ws, 0, 0);
    sa
}

fn assert_input(text: &[u32]) {
    assert!(!text.is_empty(), "suffix_array of empty text");
    let last = *text.last().expect("non-empty");
    assert!(
        text[..text.len() - 1].iter().all(|&c| c > last),
        "last symbol must be the unique minimum sentinel"
    );
}

/// The suffix type of position `i` (bit-packed map): `true` = S-type.
#[inline]
fn st_get(stype: &[u64], i: usize) -> bool {
    (stype[i >> 6] >> (i & 63)) & 1 == 1
}

/// Position `i` is LMS (per the derived LMS bitmap).
#[inline]
fn is_lms(lms: &[u64], i: usize) -> bool {
    (lms[i >> 6] >> (i & 63)) & 1 == 1
}

/// One fused right-to-left pass: bit-packed type map (words accumulate in
/// a register and store once each — no per-bit read-modify-write), symbol
/// counts, and then the derived LMS bitmap
/// (`S & !(S << 1)`, patched across word seams, bit 0 cleared — position 0
/// is never LMS).
fn classify_and_count(text: &[u32], stype: &mut [u64], lms: &mut [u64], counts: &mut [u32]) {
    let n = text.len();
    debug_assert_eq!(stype.len(), n.div_ceil(64));
    counts.fill(0);
    counts[text[n - 1] as usize] += 1;
    let mut next_s = true; // the sentinel suffix is S-type by convention
    let mut word = 1u64 << ((n - 1) & 63);
    let mut widx = (n - 1) >> 6;
    for i in (0..n - 1).rev() {
        if (i >> 6) != widx {
            stype[widx] = word;
            widx = i >> 6;
            word = 0;
        }
        let c = text[i];
        counts[c as usize] += 1;
        let s = c < text[i + 1] || (c == text[i + 1] && next_s);
        word |= (s as u64) << (i & 63);
        next_s = s;
    }
    stype[widx] = word;
    let mut prev_top = 1u64; // forces bit 0 of word 0 clear (never LMS)
    for (w, l) in stype.iter().zip(lms.iter_mut()) {
        *l = w & !((w << 1) | prev_top);
        prev_top = w >> 63;
    }
}

/// Visit every set bit of the (level-sized) bitmap in ascending position
/// order, whole words at a time.
#[inline]
fn for_each_set_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f((w << 6) + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Derive bucket tail cursors (`bkt[c]` = one past bucket `c`) from counts.
fn bucket_tails(counts: &[u32], bkt: &mut Vec<u32>) {
    bkt.clear();
    bkt.reserve(counts.len());
    let mut sum = 0u32;
    for &c in counts {
        sum += c;
        bkt.push(sum);
    }
}

/// Derive bucket head cursors (`bkt[c]` = first index of bucket `c`).
fn bucket_heads(counts: &[u32], bkt: &mut Vec<u32>) {
    bkt.clear();
    bkt.reserve(counts.len());
    let mut sum = 0u32;
    for &c in counts {
        bkt.push(sum);
        sum += c;
    }
}

/// Induced sort: given LMS positions placed at bucket tails, fill in L-type
/// then S-type suffixes. The head/tail cursors are derived into the shared
/// scratch `bkt` per pass (no per-call clones).
fn induce(text: &[u32], sa: &mut [u32], stype: &[u64], counts: &[u32], bkt: &mut Vec<u32>) {
    let n = text.len();
    // L-type: left-to-right from bucket heads.
    bucket_heads(counts, bkt);
    for i in 0..n {
        let j = sa[i];
        if j != EMPTY && j > 0 {
            let p = (j - 1) as usize;
            if !st_get(stype, p) {
                let c = text[p] as usize;
                sa[bkt[c] as usize] = p as u32;
                bkt[c] += 1;
            }
        }
    }
    // S-type: right-to-left from bucket tails.
    bucket_tails(counts, bkt);
    for i in (0..n).rev() {
        let j = sa[i];
        if j != EMPTY && j > 0 {
            let p = (j - 1) as usize;
            if st_get(stype, p) {
                let c = text[p] as usize;
                bkt[c] -= 1;
                sa[bkt[c] as usize] = p as u32;
            }
        }
    }
}

/// Compare the LMS substrings starting at `a` and `b` for equality.
fn lms_substring_eq(text: &[u32], stype: &[u64], lms: &[u64], a: usize, b: usize) -> bool {
    let n = text.len();
    if a == b {
        return true;
    }
    let mut i = 0usize;
    loop {
        let (pa, pb) = (a + i, b + i);
        let a_end = pa >= n || (i > 0 && is_lms(lms, pa));
        let b_end = pb >= n || (i > 0 && is_lms(lms, pb));
        if a_end && b_end {
            return true;
        }
        if a_end != b_end {
            return false;
        }
        if text[pa] != text[pb] || st_get(stype, pa) != st_get(stype, pb) {
            return false;
        }
        i += 1;
    }
}

/// One SA-IS level over workspace scratch; reduced problems nest inside
/// `sa` itself and this level's type map / counts live at `[st_off..]` /
/// `[cnt_off..]` of the stacked arenas, so they survive the recursive
/// call intact (see module docs).
fn sais_lean(
    text: &[u32],
    sa: &mut [u32],
    sigma: usize,
    ws: &mut SaisWorkspace,
    st_off: usize,
    cnt_off: usize,
) {
    let n = text.len();
    debug_assert_eq!(sa.len(), n);
    if n == 1 {
        sa[0] = 0;
        return;
    }
    let words = n.div_ceil(64);
    if ws.stype.len() < st_off + words {
        ws.stype.resize(st_off + words, 0);
        ws.lms.resize(st_off + words, 0);
    }
    {
        let (stype, lms) = (
            &mut ws.stype[st_off..st_off + words],
            &mut ws.lms[st_off..st_off + words],
        );
        if ws.counts.len() < cnt_off + sigma {
            ws.counts.resize(cnt_off + sigma, 0);
        }
        classify_and_count(text, stype, lms, &mut ws.counts[cnt_off..cnt_off + sigma]);
    }

    // Step 1: place LMS suffixes at bucket tails (arbitrary in-bucket
    // order) and induce a first, LMS-substring-sorting pass.
    sa.fill(EMPTY);
    bucket_tails(&ws.counts[cnt_off..cnt_off + sigma], &mut ws.bkt);
    {
        let lms = &ws.lms[st_off..st_off + words];
        for_each_set_bit(lms, |i| {
            let c = text[i] as usize;
            ws.bkt[c] -= 1;
            sa[ws.bkt[c] as usize] = i as u32;
        });
        induce(
            text,
            sa,
            &ws.stype[st_off..st_off + words],
            &ws.counts[cnt_off..cnt_off + sigma],
            &mut ws.bkt,
        );
    }

    // Step 2: compact the (substring-)sorted LMS positions to the front.
    let mut m = 0usize;
    {
        let lms = &ws.lms[st_off..st_off + words];
        for i in 0..n {
            let j = sa[i];
            if j != EMPTY && is_lms(lms, j as usize) {
                sa[m] = j;
                m += 1;
            }
        }
    }
    if m == 0 {
        // No LMS positions (monotone non-increasing text): the induce pass
        // above already sorted everything.
        return;
    }

    // Step 3: name LMS substrings. LMS positions are >= 2 apart, so `j/2`
    // is injective over them and the names fit in `sa[m .. m + ceil(n/2)]`
    // (which never overlaps the compacted list: `m <= floor(n/2)`).
    let name_slots = n.div_ceil(2);
    debug_assert!(m + name_slots <= n);
    for slot in sa[m..m + name_slots].iter_mut() {
        *slot = EMPTY;
    }
    let mut name_count: u32 = 0;
    {
        let stype = &ws.stype[st_off..st_off + words];
        let lms = &ws.lms[st_off..st_off + words];
        let (front, back) = sa.split_at_mut(m);
        let mut prev: Option<usize> = None;
        for &jw in front.iter() {
            let j = jw as usize;
            let same = prev.is_some_and(|p| lms_substring_eq(text, stype, lms, p, j));
            if !same {
                name_count += 1;
            }
            back[j / 2] = name_count - 1;
            prev = Some(j);
        }
    }

    if (name_count as usize) < m {
        // Compact the reduced string (LMS names in text order) into
        // `sa[n-m..n]`, scanning right-to-left so the write cursor never
        // passes the read cursor.
        {
            let mut w = n - 1;
            for r in (m..m + name_slots).rev() {
                if sa[r] != EMPTY {
                    sa[w] = sa[r];
                    w -= 1;
                }
            }
            debug_assert_eq!(w, n - m - 1);
        }
        // Recurse with the sub-SA in `sa[0..m]` (m <= n-m, so the split
        // holds both); the child's arena regions start past this level's.
        {
            let (front, back) = sa.split_at_mut(n - m);
            sais_lean(
                back,
                &mut front[..m],
                name_count as usize,
                ws,
                st_off + words,
                cnt_off + sigma,
            );
        }
        // The reduced text is spent; overwrite `sa[n-m..n]` with the LMS
        // positions in text order, then map reduced ranks back. This
        // level's maps are still valid (the child wrote only past them).
        {
            let lms = &ws.lms[st_off..st_off + words];
            let mut k = n - m;
            for_each_set_bit(lms, |i| {
                sa[k] = i as u32;
                k += 1;
            });
            debug_assert_eq!(k, n);
        }
        for i in 0..m {
            sa[i] = sa[n - m + sa[i] as usize];
        }
    }
    // else: names are already unique — `sa[0..m]` is the true LMS order.

    // Step 4: scatter the sorted LMS suffixes to bucket tails and induce
    // the final order. Processing right-to-left is collision-free: the
    // target slot of the i-th sorted LMS is strictly increasing in i, so
    // every write lands at an index >= the entries still to be read.
    for slot in sa[m..].iter_mut() {
        *slot = EMPTY;
    }
    bucket_tails(&ws.counts[cnt_off..cnt_off + sigma], &mut ws.bkt);
    for i in (0..m).rev() {
        let j = sa[i];
        sa[i] = EMPTY;
        let c = text[j as usize] as usize;
        ws.bkt[c] -= 1;
        sa[ws.bkt[c] as usize] = j;
    }
    induce(
        text,
        sa,
        &ws.stype[st_off..st_off + words],
        &ws.counts[cnt_off..cnt_off + sigma],
        &mut ws.bkt,
    );
}

/// O(n² log n) reference implementation for testing.
pub fn naive_suffix_array(text: &[u32]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_sentinel(body: &[u32]) -> Vec<u32> {
        // Shift symbols up by one and append sentinel 0.
        let mut v: Vec<u32> = body.iter().map(|&c| c + 1).collect();
        v.push(0);
        v
    }

    fn check(body: &[u32]) {
        let text = with_sentinel(body);
        let sigma = text.iter().copied().max().unwrap() as usize + 1;
        let sa = suffix_array(&text, sigma);
        let expected = naive_suffix_array(&text);
        assert_eq!(sa, expected, "text={text:?}");
    }

    #[test]
    fn banana() {
        // "banana" as integers b=2,a=1,n=3
        check(&[2, 1, 3, 1, 3, 1]);
    }

    #[test]
    fn mississippi() {
        // m=2,i=1,s=4,p=3
        check(&[2, 1, 4, 4, 1, 4, 4, 1, 3, 3, 1]);
    }

    #[test]
    fn single_and_tiny() {
        check(&[]);
        check(&[5]);
        check(&[1, 1]);
        check(&[2, 1]);
        check(&[1, 2]);
    }

    #[test]
    fn all_equal_runs() {
        check(&[7; 50]);
        check(&[1, 1, 2, 2, 1, 1, 2, 2]);
    }

    #[test]
    fn monotone_sequences() {
        check(&(1..40u32).collect::<Vec<_>>());
        check(&(1..40u32).rev().collect::<Vec<_>>());
    }

    #[test]
    fn pseudo_random_small_alphabets() {
        let mut x = 12345u64;
        for sigma in [2u32, 3, 4, 10, 100] {
            for len in [10usize, 50, 200, 1000] {
                let body: Vec<u32> = (0..len)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((x >> 33) as u32) % sigma
                    })
                    .collect();
                check(&body);
            }
        }
    }

    #[test]
    fn repetitive_trajectory_like() {
        // Long repeated paths separated by a separator (like $-separated
        // trajectory strings) stress the recursion.
        let mut body = Vec::new();
        for _ in 0..30 {
            body.extend_from_slice(&[5, 6, 7, 8, 9, 10]);
            body.push(1); // separator-like
        }
        check(&body);
    }

    #[test]
    #[should_panic(expected = "unique minimum sentinel")]
    fn rejects_missing_sentinel() {
        suffix_array(&[2, 1, 2], 3);
    }

    #[test]
    fn workspace_reuse_across_texts() {
        // One workspace serves texts of different lengths and alphabets in
        // any order (buffers must re-clear, not just grow).
        let mut ws = SaisWorkspace::new();
        let bodies: Vec<Vec<u32>> = vec![
            (0..500u32).map(|i| i % 7).collect(),
            vec![3; 40],
            (0..1200u32).map(|i| (i * i) % 97).collect(),
            vec![1, 2],
        ];
        for body in &bodies {
            let text = with_sentinel(body);
            let sigma = text.iter().copied().max().unwrap() as usize + 1;
            assert_eq!(
                suffix_array_with(&text, sigma, &mut ws),
                naive_suffix_array(&text),
                "body len {}",
                body.len()
            );
        }
    }

    #[test]
    fn lean_equals_reference_deep_recursion() {
        // Fibonacci-like strings maximize LMS recursion depth.
        let (mut a, mut b) = (vec![1u32], vec![2u32, 1]);
        for _ in 0..12 {
            let next = [b.clone(), a.clone()].concat();
            a = b;
            b = next;
        }
        let text = with_sentinel(&b);
        let sigma = 4;
        assert_eq!(suffix_array(&text, sigma), naive_suffix_array(&text));
    }

    #[test]
    fn large_random_consistency() {
        let mut x = 999u64;
        let body: Vec<u32> = (0..20_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as u32) % 50
            })
            .collect();
        let text = with_sentinel(&body);
        let sigma = 52;
        let sa = suffix_array(&text, sigma);
        // Verify sortedness pairwise (O(n) expected with random data).
        for w in sa.windows(2) {
            assert!(
                text[w[0] as usize..] < text[w[1] as usize..],
                "suffixes out of order"
            );
        }
        // Verify it is a permutation.
        let mut seen = vec![false; text.len()];
        for &i in &sa {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
    }
}
