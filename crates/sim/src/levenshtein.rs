//! Levenshtein distance and the paper's Levenshtein ratio (§IV-C).
//!
//! Two variants are implemented, exactly as the paper defines them:
//!
//! * [`levenshtein`] — Equation 2, unit cost for insert/delete/substitute;
//! * [`levenshtein_sub2`] — `lev*`, where substitution costs 2 (equivalent
//!   to one deletion plus one insertion).
//!
//! The string similarity score is the ratio
//! `r = (|a| + |b| − lev*(a,b)) / (|a| + |b|)`, which the paper motivates
//! with the example that `r("a","c")` should be 0 rather than 0.5.
//!
//! `lev*` is computed as `|a| + |b| − 2·LCS(a, b)` by the bit-parallel
//! [`LcsPattern`] kernel; the two-row dynamic program serves the
//! unit-cost [`levenshtein`] and is the kernel's test reference.
//!
//! All functions operate on Unicode scalar values (`char`s), so CJK and
//! accented entity names are measured sensibly.

use crate::matrix::SimilarityMatrix;
use ceaff_tensor::Matrix;
use rayon::prelude::*;

/// Strip the common prefix and suffix of two char slices — edits can only
/// occur in the differing middle, and real entity-name pairs share long
/// affixes, making this a large constant-factor win on similarity matrices.
fn trim_common<'a>(mut a: &'a [char], mut b: &'a [char]) -> (&'a [char], &'a [char]) {
    let prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    a = &a[prefix..];
    b = &b[prefix..];
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    (&a[..a.len() - suffix], &b[..b.len() - suffix])
}

/// Two-row DP with parameterisable substitution cost: the unit-cost
/// [`levenshtein`], and (cost 2) the reference [`LcsPattern`] is tested
/// against.
fn lev_dp(a: &[char], b: &[char], sub_cost: usize) -> usize {
    let (a, b) = trim_common(a, b);
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Keep the shorter string as the row for minimal memory.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let del = prev[j + 1] + 1;
            let ins = cur[j] + 1;
            let sub = prev[j] + if lc == sc { 0 } else { sub_cost };
            cur[j + 1] = del.min(ins).min(sub);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Match masks of one name for the bit-parallel `lev*` kernel.
///
/// Substitution cost 2 equals one deletion plus one insertion, so `lev*`
/// never substitutes and `lev*(a, b) = |a| + |b| − 2·LCS(a, b)`. LCS has
/// a bit-vector algorithm (Allison & Dix 1986; Hyyrö 2004): bit `i` of
/// character `c`'s match mask is set where `a[i] == c`, every character
/// of `b` updates a state vector `V` with
/// `V ← (V + (V & M)) | (V & !M)`, and `LCS = popcount(!V)` over the
/// pattern's `|a|` bits. Patterns longer than 64 characters span several
/// `u64` words, with the addition's carry threaded through them.
///
/// ASCII characters index a 128-entry table; the pattern's other
/// characters (accented, CJK, …) sit in a small sorted per-pattern table,
/// and a character absent from the pattern leaves `V` unchanged.
///
/// Build one pattern per source name and score every target against it:
/// the build is `O(128·words + |a|)`, each score `O(|b|·words)`, and
/// nothing is allocated per scored pair.
#[derive(Debug, Clone)]
pub struct LcsPattern {
    /// Characters in the pattern, `|a|`.
    len: usize,
    /// Words per mask, `⌈|a| / 64⌉`.
    words: usize,
    /// `masks[c * words..][..words]` for ASCII code `c`, then
    /// `masks[(128 + x) * words..][..words]` for `other[x]`.
    masks: Vec<u64>,
    /// The pattern's distinct non-ASCII characters, ascending.
    other: Vec<char>,
    /// State vector `V` of multi-word patterns, reused across scores.
    state: Vec<u64>,
}

impl LcsPattern {
    /// Build the match masks of `name`.
    pub fn new(name: &str) -> Self {
        let len = name.chars().count();
        let words = len.div_ceil(64);
        let mut other: Vec<char> = name.chars().filter(|c| !c.is_ascii()).collect();
        other.sort_unstable();
        other.dedup();
        let mut masks = vec![0u64; (128 + other.len()) * words];
        for (i, c) in name.chars().enumerate() {
            let row = if c.is_ascii() {
                c as usize
            } else {
                128 + other.binary_search(&c).expect("collected above")
            };
            masks[row * words + i / 64] |= 1 << (i % 64);
        }
        let state = if words > 1 {
            vec![0; words]
        } else {
            Vec::new()
        };
        Self {
            len,
            words,
            masks,
            other,
            state,
        }
    }

    /// First mask word of `c`, `None` when `c` does not occur in the
    /// pattern (an all-zero mask leaves `V` unchanged, so it is skipped).
    #[inline]
    fn row_of(&self, c: char) -> Option<usize> {
        if c.is_ascii() {
            Some(c as usize * self.words)
        } else {
            let x = self.other.binary_search(&c).ok()?;
            Some((128 + x) * self.words)
        }
    }

    /// `(LCS(a, b), |b|)` for the pattern `a`.
    fn lcs_iter(&mut self, b: impl Iterator<Item = char>) -> (usize, usize) {
        let mut b_len = 0;
        let last = match self.len % 64 {
            0 => !0u64,
            r => (1u64 << r) - 1,
        };
        let lcs = match self.words {
            0 => {
                b_len = b.count();
                0
            }
            1 => {
                let mut v = !0u64;
                for c in b {
                    b_len += 1;
                    let Some(row) = self.row_of(c) else { continue };
                    let u = v & self.masks[row];
                    v = v.wrapping_add(u) | (v & !u);
                }
                (!v & last).count_ones() as usize
            }
            words => {
                let mut state = std::mem::take(&mut self.state);
                state.fill(!0);
                for c in b {
                    b_len += 1;
                    let Some(row) = self.row_of(c) else { continue };
                    let masks = &self.masks[row..row + words];
                    let mut carry = false;
                    for (v, &m) in state.iter_mut().zip(masks) {
                        let u = *v & m;
                        let (sum, c1) = v.overflowing_add(u);
                        let (sum, c2) = sum.overflowing_add(carry as u64);
                        carry = c1 | c2;
                        *v = sum | (*v & !u);
                    }
                }
                let (full, tail) = state.split_at(words - 1);
                let lcs = full.iter().map(|v| v.count_zeros() as usize).sum::<usize>()
                    + (!tail[0] & last).count_ones() as usize;
                self.state = state;
                lcs
            }
        };
        (lcs, b_len)
    }

    /// `lev*(a, b) = |a| + |b| − 2·LCS(a, b)`.
    pub fn lev_star(&mut self, b: &[char]) -> usize {
        let (lcs, b_len) = self.lcs_iter(b.iter().copied());
        self.len + b_len - 2 * lcs
    }

    /// The paper's ratio `(|a| + |b| − lev*(a, b)) / (|a| + |b|)`, `1` for
    /// two empty names — bit for bit [`levenshtein_ratio`].
    pub fn ratio(&mut self, b: &[char]) -> f32 {
        self.ratio_iter(b.iter().copied())
    }

    fn ratio_iter(&mut self, b: impl Iterator<Item = char>) -> f32 {
        let (lcs, b_len) = self.lcs_iter(b);
        let total = self.len + b_len;
        if total == 0 {
            return 1.0;
        }
        let d = total - 2 * lcs;
        (total - d) as f32 / total as f32
    }
}

/// Classic Levenshtein distance (Eq. 2 of the paper): unit-cost insertions,
/// deletions and substitutions.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    lev_dp(&ac, &bc, 1)
}

/// `lev*`: Levenshtein distance where substitution costs 2. Used by the
/// paper's ratio so that completely different single characters score 0.
/// Computed as `|a| + |b| − 2·LCS(a, b)` by [`LcsPattern`].
pub fn levenshtein_sub2(a: &str, b: &str) -> usize {
    let mut pattern = LcsPattern::new(a);
    let (lcs, b_len) = pattern.lcs_iter(b.chars());
    pattern.len + b_len - 2 * lcs
}

/// The paper's Levenshtein ratio
/// `r_{a,b} = (|a| + |b| − lev*(a,b)) / (|a| + |b|)` — a string similarity
/// in `[0, 1]`. Two empty strings are defined as identical (`r = 1`).
///
/// The substitution-cost-2 variant realises the paper's motivating
/// example: completely different single characters score 0, not 0.5.
///
/// ```
/// use ceaff_sim::levenshtein_ratio;
/// assert_eq!(levenshtein_ratio("a", "c"), 0.0);
/// assert_eq!(levenshtein_ratio("Paris", "Paris"), 1.0);
/// assert!(levenshtein_ratio("Paris", "Pariz") > 0.7);
/// ```
pub fn levenshtein_ratio(a: &str, b: &str) -> f32 {
    LcsPattern::new(a).ratio_iter(b.chars())
}

/// The full string similarity matrix `Ml` between source and target entity
/// names: `out[i][j] = levenshtein_ratio(sources[i], targets[j])`.
///
/// Target names are decoded to `char`s once; each row builds one
/// [`LcsPattern`] and scores every target against it. Rows are computed
/// in parallel.
pub fn string_similarity_matrix<S: AsRef<str> + Sync, T: AsRef<str> + Sync>(
    sources: &[S],
    targets: &[T],
) -> SimilarityMatrix {
    let target_chars = name_chars(targets);
    let n = sources.len();
    let m = targets.len();
    let mut out = Matrix::zeros(n, m);
    out.as_mut_slice()
        .par_chunks_mut(m.max(1))
        .enumerate()
        .take(n)
        .for_each(|(i, row)| {
            let mut pattern = LcsPattern::new(sources[i].as_ref());
            for (o, tc) in row.iter_mut().zip(&target_chars) {
                *o = pattern.ratio(tc);
            }
        });
    SimilarityMatrix::new(out)
}

/// Every name decoded to `char`s — the target side of [`LcsPattern`]
/// scoring, collected once per build.
pub fn name_chars<T: AsRef<str>>(names: &[T]) -> Vec<Vec<char>> {
    names.iter().map(|t| t.as_ref().chars().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classic_examples() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn paper_motivating_example() {
        // With lev, ratio("a","c") would be (1+1-1)/2 = 0.5; with lev* the
        // substitution costs 2, so the ratio is 0 — the paper's Section IV-C.
        assert_eq!(levenshtein("a", "c"), 1);
        assert_eq!(levenshtein_sub2("a", "c"), 2);
        assert_eq!(levenshtein_ratio("a", "c"), 0.0);
        assert_eq!(levenshtein_ratio("a", "a"), 1.0);
    }

    #[test]
    fn sub2_equals_insert_plus_delete() {
        // lev* never substitutes when that is more expensive than
        // delete+insert, so lev*(a,b) = |a| + |b| − 2·LCS(a,b).
        assert_eq!(levenshtein_sub2("abc", "axc"), 2);
        assert_eq!(levenshtein_sub2("abcdef", "abdf"), 2);
        assert_eq!(levenshtein_sub2("", ""), 0);
    }

    #[test]
    fn unicode_names() {
        assert_eq!(levenshtein("北京", "北海"), 1);
        assert_eq!(levenshtein_sub2("北京", "北海"), 2);
        assert!((levenshtein_ratio("北京", "北海") - 0.5).abs() < 1e-6);
        assert_eq!(levenshtein("café", "cafe"), 1);
    }

    #[test]
    fn ratio_bounds_and_identity() {
        assert_eq!(levenshtein_ratio("", ""), 1.0);
        assert_eq!(levenshtein_ratio("abc", "abc"), 1.0);
        assert_eq!(levenshtein_ratio("abc", "xyz"), 0.0);
        let r = levenshtein_ratio("Paris", "Pariz");
        assert!(r > 0.5 && r < 1.0);
    }

    #[test]
    fn matrix_matches_scalar() {
        let s = ["Paris", "Berlin", ""];
        let t = ["Pariz", "Berlin (city)", "Roma"];
        let m = string_similarity_matrix(&s, &t);
        assert_eq!(m.sources(), 3);
        assert_eq!(m.targets(), 3);
        for (i, si) in s.iter().enumerate() {
            for (j, tj) in t.iter().enumerate() {
                let expect = levenshtein_ratio(si, tj);
                assert!((m.get(i, j) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn similar_names_beat_dissimilar() {
        let m = string_similarity_matrix(&["New York City"], &["New York", "Tokyo"]);
        assert!(m.get(0, 0) > m.get(0, 1));
        assert_eq!(m.row_argmax(0), Some(0));
    }

    proptest! {
        /// Metric axioms for the unit-cost distance.
        #[test]
        fn levenshtein_metric_axioms(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            let dab = levenshtein(&a, &b);
            let dba = levenshtein(&b, &a);
            prop_assert_eq!(dab, dba, "symmetry");
            prop_assert_eq!(levenshtein(&a, &a), 0, "identity");
            let dac = levenshtein(&a, &c);
            let dcb = levenshtein(&c, &b);
            prop_assert!(dab <= dac + dcb, "triangle inequality");
            // Bounded by the longer length, at least the length difference.
            let (la, lb) = (a.chars().count(), b.chars().count());
            prop_assert!(dab <= la.max(lb));
            prop_assert!(dab >= la.abs_diff(lb));
        }

        /// Ratio is symmetric, within [0,1], and 1 iff strings are equal.
        #[test]
        fn ratio_properties(a in "[a-d]{0,10}", b in "[a-d]{0,10}") {
            let r = levenshtein_ratio(&a, &b);
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert!((r - levenshtein_ratio(&b, &a)).abs() < 1e-6);
            if a == b {
                prop_assert_eq!(r, 1.0);
            } else {
                prop_assert!(r < 1.0);
            }
        }

        /// lev* dominates lev and equals |a|+|b|-2·LCS.
        #[test]
        fn sub2_dominates_unit(a in "[a-c]{0,8}", b in "[a-c]{0,8}") {
            prop_assert!(levenshtein_sub2(&a, &b) >= levenshtein(&a, &b));
            prop_assert!(levenshtein_sub2(&a, &b) <= levenshtein(&a, &b) * 2);
        }
    }
}

/// Parity of the bit-parallel kernel with the dynamic program it
/// replaced, `lev_dp(…, 2)`, bit for bit on the ratio.
#[cfg(test)]
mod parity {
    use super::*;
    use proptest::prelude::*;

    /// Pattern lengths around the word boundaries and the multi-word carry.
    const LENS: [usize; 10] = [0, 1, 2, 63, 64, 65, 127, 128, 129, 200];

    fn reference_ratio(a: &[char], b: &[char]) -> f32 {
        let total = a.len() + b.len();
        if total == 0 {
            return 1.0;
        }
        let d = lev_dp(a, b, 2);
        (total - d) as f32 / total as f32
    }

    fn check(a: &str, b: &str) -> Result<(), TestCaseError> {
        let (ac, bc): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        let want = lev_dp(&ac, &bc, 2);
        let mut pattern = LcsPattern::new(a);
        prop_assert_eq!(pattern.lev_star(&bc), want, "a={a:?} b={b:?}");
        prop_assert_eq!(levenshtein_sub2(a, b), want);
        let ratio = reference_ratio(&ac, &bc).to_bits();
        prop_assert_eq!(pattern.ratio(&bc).to_bits(), ratio);
        prop_assert_eq!(levenshtein_ratio(a, b).to_bits(), ratio);
        Ok(())
    }

    fn prefix(s: &str, n: usize) -> String {
        s.chars().take(n).collect()
    }

    #[test]
    fn empty_names() {
        for (a, b) in [("", ""), ("", "abc"), ("abc", ""), ("", "北京"), ("é", "")] {
            check(a, b).unwrap();
        }
        assert_eq!(LcsPattern::new("").ratio(&[]), 1.0);
    }

    #[test]
    fn one_pattern_scores_many_targets() {
        // The multi-word state vector is reused across scores; it must be
        // reset each time.
        let a = "x".repeat(70) + "北京";
        let mut pattern = LcsPattern::new(&a);
        for b in ["", "xx", &a, "北", &"x".repeat(130), "yyy"] {
            let bc: Vec<char> = b.chars().collect();
            let ac: Vec<char> = a.chars().collect();
            assert_eq!(pattern.lev_star(&bc), lev_dp(&ac, &bc, 2), "b={b:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parity_ascii(a in "[a-e ]{0,80}", b in "[a-e ]{0,80}") {
            check(&a, &b)?;
        }

        #[test]
        fn parity_accented(a in "[a-eéèêüñç]{0,70}", b in "[a-eéèêüñç]{0,70}") {
            check(&a, &b)?;
        }

        #[test]
        fn parity_cjk(a in "[北京海上東西南a]{0,70}", b in "[北京海上東西南a]{0,70}") {
            check(&a, &b)?;
        }

        #[test]
        fn parity_at_word_boundaries(
            la in 0usize..LENS.len(),
            lb in 0usize..LENS.len(),
            a in "[ab北é]{200}",
            b in "[ab北é]{200}",
        ) {
            check(&prefix(&a, LENS[la]), &prefix(&b, LENS[lb]))?;
        }

        #[test]
        fn parity_of_the_matrix(
            s in proptest::collection::vec("[a-cé北]{0,70}", 0..6),
            t in proptest::collection::vec("[a-cé北]{0,70}", 0..6),
        ) {
            let m = string_similarity_matrix(&s, &t);
            for (i, a) in s.iter().enumerate() {
                let ac: Vec<char> = a.chars().collect();
                for (j, b) in t.iter().enumerate() {
                    let bc: Vec<char> = b.chars().collect();
                    prop_assert_eq!(m.get(i, j).to_bits(), reference_ratio(&ac, &bc).to_bits());
                }
            }
        }
    }
}
