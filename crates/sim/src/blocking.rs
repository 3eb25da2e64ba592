//! Candidate blocking for the string feature.
//!
//! The dense `Ml` matrix costs `O(n·m)` Levenshtein computations — fine at
//! benchmark scale, prohibitive at the paper's full 100k×100k. Classical
//! entity-resolution *blocking* fixes this: an inverted index over name
//! tokens and character trigrams proposes candidate pairs, and the exact
//! Levenshtein ratio is computed only for them; non-candidates score 0.
//!
//! Trigram indexing keeps recall high under typos and morphology (two
//! names sharing no whole token still share most trigrams), which is what
//! the mono-lingual and close-lingual regimes need. Names in disjoint
//! scripts share nothing and are — correctly — never candidates.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;

/// Blocking configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockingConfig {
    /// Minimum number of shared index keys (tokens + trigrams) for a pair
    /// to become a candidate.
    pub min_shared_keys: usize,
    /// Index whole lowercase tokens.
    pub index_tokens: bool,
    /// Index character trigrams of each token (catches typos/morphology).
    pub index_trigrams: bool,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        Self {
            min_shared_keys: 2,
            index_tokens: true,
            index_trigrams: true,
        }
    }
}

/// Statistics of one blocked similarity computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockingStats {
    /// Candidate pairs actually scored.
    pub pairs_scored: usize,
    /// Full cross product `n·m` for comparison.
    pub pairs_total: usize,
}

impl BlockingStats {
    /// Fraction of the cross product that was scored. Guards the
    /// zero-candidate case (`pairs_total == 0`, i.e. an empty source or
    /// target side) by returning `0.0` instead of dividing by zero.
    pub fn scored_fraction(&self) -> f64 {
        if self.pairs_total == 0 {
            return 0.0;
        }
        self.pairs_scored as f64 / self.pairs_total as f64
    }
}

/// The candidate structure blocking proposes: for every source row, the
/// ascending-sorted column indices that survived the shared-key filter
/// (capped at `k` per row by shared-key count, ties toward the lower
/// column). Every feature of one run scores exactly this structure, so
/// their [`SparseTopK`](crate::store::SparseTopK) stores describe the
/// same candidate pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateSet {
    targets: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
}

impl CandidateSet {
    /// Number of source rows.
    pub fn sources(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of target columns.
    pub fn targets(&self) -> usize {
        self.targets
    }

    /// Candidate columns of row `i`, ascending.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Total number of candidate pairs.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether no pair survived blocking.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Whether `(i, j)` is a candidate pair.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.row(i).binary_search(&(j as u32)).is_ok()
    }

    /// Blocking statistics of this candidate set.
    pub fn stats(&self) -> BlockingStats {
        BlockingStats {
            pairs_scored: self.len(),
            pairs_total: self.sources() * self.targets,
        }
    }

    /// Fraction of `gold` pairs that survived blocking — the recall
    /// ceiling of every downstream stage (a dropped gold pair can never
    /// be matched). Returns `1.0` for an empty gold set.
    pub fn recall_of(&self, gold: &[(usize, usize)]) -> f64 {
        if gold.is_empty() {
            return 1.0;
        }
        let hit = gold.iter().filter(|&&(i, j)| self.contains(i, j)).count();
        hit as f64 / gold.len() as f64
    }

    /// Assemble a candidate set from per-row column lists (each ascending,
    /// exactly as [`TargetIndex::candidate_row`] produces them). This is
    /// the constructor the incremental path uses after patching only the
    /// dirty rows; the layout is identical to [`build_candidates`] run on
    /// the same rows.
    pub fn from_rows(targets: usize, rows: Vec<Vec<u32>>) -> Self {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut cols = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        row_ptr.push(0);
        for row in &rows {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "row not ascending");
            cols.extend_from_slice(row);
            row_ptr.push(cols.len());
        }
        CandidateSet {
            targets,
            row_ptr,
            cols,
        }
    }
}

/// An inverted index over target names, reusable across source rows.
///
/// Layout: every distinct key of the target names is interned once to a
/// dense `u32` id, and the postings are one CSR array — the ascending
/// target columns holding key `x` are
/// `postings[offsets[x]..offsets[x + 1]]`. A source row looks up its own
/// keys (keys no target holds are dropped), walks their postings and
/// counts shared keys per column in a dense per-thread counter array,
/// resetting only the columns it touched.
///
/// [`build_candidates`] builds one per call; the incremental path keeps
/// rebuilding it per delta (cheap, `O(targets · keys)`) and recomputes
/// [`candidate_row`](TargetIndex::candidate_row) only for dirty rows —
/// the per-row logic is exactly the one `build_candidates` uses, so a
/// patched candidate set is bitwise-identical to a fresh one.
#[derive(Debug, Clone)]
pub struct TargetIndex {
    ids: HashMap<Box<str>, u32>,
    offsets: Vec<usize>,
    postings: Vec<u32>,
    targets: usize,
    cfg: BlockingConfig,
}

/// Per-thread scratch of [`TargetIndex::candidate_row`].
#[derive(Default)]
struct RowScratch {
    /// Shared-key count per target column; all zero between rows.
    counts: Vec<u32>,
    /// Columns whose count is non-zero.
    touched: Vec<u32>,
    /// The source row's key ids.
    keys: Vec<u32>,
    /// `(column, count)` of the columns passing the shared-key filter.
    ranked: Vec<(u32, u32)>,
}

thread_local! {
    static ROW_SCRATCH: RefCell<RowScratch> = RefCell::default();
}

impl TargetIndex {
    /// Index `targets` under `cfg`.
    pub fn build<T: AsRef<str>>(targets: &[T], cfg: &BlockingConfig) -> Self {
        assert!(
            cfg.index_tokens || cfg.index_trigrams,
            "blocking needs at least one key kind enabled"
        );
        assert!(
            u32::try_from(targets.len()).is_ok(),
            "blocking indexes at most u32::MAX targets"
        );
        let mut ids: HashMap<Box<str>, u32> = HashMap::new();
        // (key id, column), pushed in column order.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut row: Vec<u32> = Vec::new();
        for (j, t) in targets.iter().enumerate() {
            row.clear();
            for_each_key(t.as_ref(), cfg, |key| {
                let x = match ids.get(key) {
                    Some(&x) => x,
                    None => {
                        let x = u32::try_from(ids.len()).expect("fewer than 2^32 keys");
                        ids.insert(key.into(), x);
                        x
                    }
                };
                row.push(x);
            });
            row.sort_unstable();
            row.dedup();
            pairs.extend(row.iter().map(|&x| (x, j as u32)));
        }
        // Counting sort by key id; within a key, columns stay ascending.
        let mut offsets = vec![0usize; ids.len() + 1];
        for &(x, _) in &pairs {
            offsets[x as usize + 1] += 1;
        }
        for x in 0..ids.len() {
            offsets[x + 1] += offsets[x];
        }
        let mut fill = offsets.clone();
        let mut postings = vec![0u32; pairs.len()];
        for &(x, j) in &pairs {
            postings[fill[x as usize]] = j;
            fill[x as usize] += 1;
        }
        Self {
            ids,
            offsets,
            postings,
            targets: targets.len(),
            cfg: *cfg,
        }
    }

    /// Number of indexed target columns.
    pub fn targets(&self) -> usize {
        self.targets
    }

    /// The candidate columns for one source name: targets sharing at least
    /// `min_shared_keys` keys, ranked (most shared keys first, ties toward
    /// the lower column), truncated to `k`, returned ascending.
    ///
    /// Deterministic for a given index regardless of thread count.
    pub fn candidate_row(&self, source: &str, k: usize) -> Vec<u32> {
        ROW_SCRATCH.with(|scratch| {
            let RowScratch {
                counts,
                touched,
                keys,
                ranked,
            } = &mut *scratch.borrow_mut();
            if counts.len() < self.targets {
                counts.resize(self.targets, 0);
            }
            keys.clear();
            for_each_key(source, &self.cfg, |key| {
                if let Some(&x) = self.ids.get(key) {
                    keys.push(x);
                }
            });
            keys.sort_unstable();
            keys.dedup();
            for &x in keys.iter() {
                let x = x as usize;
                for &j in &self.postings[self.offsets[x]..self.offsets[x + 1]] {
                    let c = &mut counts[j as usize];
                    if *c == 0 {
                        touched.push(j);
                    }
                    *c += 1;
                }
            }
            ranked.clear();
            for &j in touched.iter() {
                let c = std::mem::take(&mut counts[j as usize]);
                if c as usize >= self.cfg.min_shared_keys {
                    ranked.push((j, c));
                }
            }
            touched.clear();
            // Most shared keys first, ties toward the lower column: a
            // strict total order, so the kept set is the sorted prefix.
            let order = |a: &(u32, u32), b: &(u32, u32)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
            if ranked.len() > k {
                if k > 0 {
                    ranked.select_nth_unstable_by(k - 1, order);
                }
                ranked.truncate(k);
            }
            let mut cols: Vec<u32> = ranked.iter().map(|&(j, _)| j).collect();
            cols.sort_unstable();
            cols
        })
    }
}

/// Build the candidate set for `sources × targets` under `cfg`, keeping
/// at most `k` candidates per row (ranked by shared-key count, ties
/// toward the lower column). Rows fan out across the pool; each row's
/// ranking is sequential, so the set is identical at any thread count.
pub fn build_candidates<S: AsRef<str> + Sync, T: AsRef<str> + Sync>(
    sources: &[S],
    targets: &[T],
    cfg: &BlockingConfig,
    k: usize,
) -> CandidateSet {
    assert!(k > 0, "blocking needs k >= 1");
    let index = TargetIndex::build(targets, cfg);
    let n = sources.len();
    let row_of = |i: usize| -> Vec<u32> { index.candidate_row(sources[i].as_ref(), k) };
    let rows: Vec<Vec<u32>> = if n < 64 {
        (0..n).map(row_of).collect()
    } else {
        ceaff_parallel::par_map(n, 16, row_of)
    };
    CandidateSet::from_rows(targets.len(), rows)
}

/// Call `f` with every blocking key of `name` under `cfg`, duplicates
/// included: per alphanumeric token, lowercased, its character trigrams
/// (or the whole token when shorter than three characters) and/or the
/// token itself. Trigrams are slices of the lowercased token, so no
/// string is built per key.
fn for_each_key(name: &str, cfg: &BlockingConfig, mut f: impl FnMut(&str)) {
    for token in name.split(|c: char| !c.is_alphanumeric()) {
        if token.is_empty() {
            continue;
        }
        let token = token.to_lowercase();
        if cfg.index_trigrams {
            // Char boundaries b_0 < b_1 < … < b_n; trigram w ends at b_w
            // and starts at b_{w-3}, kept in a ring of three.
            let mut starts = [0usize; 3];
            let mut chars = 0;
            let bounds = token.char_indices().map(|(b, _)| b);
            for (w, b) in bounds.chain(std::iter::once(token.len())).enumerate() {
                if w >= 3 {
                    f(&token[starts[w % 3]..b]);
                }
                starts[w % 3] = b;
                chars = w;
            }
            if chars < 3 {
                f(&token);
            }
        }
        if cfg.index_tokens {
            f(&token);
        }
    }
}

/// The blocking keys of one name under `cfg`: lowercase tokens and/or
/// character trigrams, sorted and deduplicated. Public so the incremental
/// path can tell which source rows share a key with an edited target name.
pub fn keys_of(name: &str, cfg: &BlockingConfig) -> Vec<String> {
    let mut keys = Vec::new();
    for_each_key(name, cfg, |key| keys.push(key.to_owned()));
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::{name_chars, string_similarity_matrix, LcsPattern};
    use crate::store::SparseTopK;

    /// Name lists of one generated mono-lingual benchmark's test split.
    fn realistic_names() -> (Vec<String>, Vec<String>) {
        let ds = ceaff_datagen::Preset::SrprsDbpWd.generate(0.2);
        let own = |names: Vec<&str>| names.into_iter().map(str::to_owned).collect();
        (own(ds.test_source_names()), own(ds.test_target_names()))
    }

    /// The blocked string store: `lev*` ratios on the candidate pairs.
    fn string_store(s: &[&str], t: &[&str], cands: &CandidateSet, k: usize) -> SparseTopK {
        let tc = name_chars(t);
        SparseTopK::from_candidates(cands, k, |i| {
            let mut pattern = LcsPattern::new(s[i]);
            let tc = &tc;
            move |j| pattern.ratio(&tc[j as usize])
        })
    }

    #[test]
    fn keys_include_tokens_and_trigrams() {
        let cfg = BlockingConfig::default();
        let keys = keys_of("New York", &cfg);
        assert!(keys.contains(&"new".to_string()));
        assert!(keys.contains(&"york".to_string()));
        assert!(keys.contains(&"yor".to_string()));
        assert!(keys.contains(&"ork".to_string()));
        // Short tokens index whole; trigrams of non-ASCII tokens are
        // whole characters.
        assert_eq!(keys_of("Ab, Čćd-北", &cfg), ["ab", "čćd", "北"]);
        assert_eq!(keys_of("Émile", &cfg), ["ile", "mil", "émi", "émile"]);
    }

    #[test]
    fn scored_cells_match_the_dense_matrix() {
        let s = ["New York City", "Berlin", "Tokyo Tower"];
        let t = ["New York", "Berlin (city)", "Kyoto"];
        let cands = build_candidates(&s, &t, &BlockingConfig::default(), 10);
        let blocked = string_store(&s, &t, &cands, 10);
        let dense = string_similarity_matrix(&s, &t);
        for i in 0..3 {
            let (cols, scores) = blocked.row_entries(i);
            assert_eq!(
                cols.len(),
                cands.row(i).len(),
                "row {i} keeps every candidate"
            );
            for (&j, &v) in cols.iter().zip(scores) {
                assert_eq!(
                    v.to_bits(),
                    dense.get(i, j as usize).to_bits(),
                    "cell ({i},{j})"
                );
            }
        }
        let stats = cands.stats();
        assert!(stats.pairs_scored < stats.pairs_total);
        assert!(stats.scored_fraction() < 1.0);
    }

    #[test]
    fn true_pairs_survive_blocking_under_typos() {
        // Typo'd counterparts still share most trigrams.
        let s = ["gavora benatil", "triskel dromvou"];
        let t = ["gavora bentail", "triskel dromvuo"];
        let cands = build_candidates(&s, &t, &BlockingConfig::default(), 10);
        let m = string_store(&s, &t, &cands, 10);
        assert!(
            m.get(0, 0) > 0.7,
            "typo pair must be scored: {}",
            m.get(0, 0)
        );
        assert!(m.get(1, 1) > 0.7);
    }

    #[test]
    fn disjoint_scripts_are_never_candidates() {
        let cands = build_candidates(&["gavora"], &["佢丗凋"], &BlockingConfig::default(), 10);
        assert!(cands.is_empty());
        assert_eq!(cands.stats().pairs_scored, 0);
    }

    #[test]
    fn blocking_prunes_most_of_a_realistic_cross_product() {
        let (s, t) = realistic_names();
        let (s, t): (Vec<&str>, Vec<&str>) = (
            s.iter().map(String::as_str).collect(),
            t.iter().map(String::as_str).collect(),
        );
        // Uncapped: every row keeps all of its candidates.
        let cands = build_candidates(&s, &t, &BlockingConfig::default(), t.len());
        let stats = cands.stats();
        assert!(
            stats.scored_fraction() < 0.5,
            "blocking should prune over half the cross product: {}",
            stats.scored_fraction()
        );
        // And it must not lose the ground truth: the diagonal stays the
        // row maximum for almost all mono-lingual rows.
        let m = string_store(&s, &t, &cands, t.len());
        let n = m.sources();
        let hits = (0..n).filter(|&i| m.row_argmax(i) == Some(i)).count();
        assert!(
            hits as f64 / n as f64 > 0.9,
            "blocked string H@1 collapsed: {}/{n}",
            hits
        );
    }

    #[test]
    fn scored_fraction_guards_the_zero_candidate_case() {
        let empty = BlockingStats {
            pairs_scored: 0,
            pairs_total: 0,
        };
        assert_eq!(empty.scored_fraction(), 0.0);
        let stats = build_candidates::<&str, &str>(&[], &[], &BlockingConfig::default(), 1).stats();
        assert_eq!(stats.pairs_total, 0);
        assert_eq!(stats.scored_fraction(), 0.0);
    }

    #[test]
    fn uncapped_candidates_are_the_shared_key_support() {
        let s = ["New York City", "Berlin", "Tokyo Tower"];
        let t = ["New York", "Berlin (city)", "Kyoto"];
        let cfg = BlockingConfig::default();
        let cands = build_candidates(&s, &t, &cfg, 10);
        for (i, name) in s.iter().enumerate() {
            let keys = keys_of(name, &cfg);
            for (j, target) in t.iter().enumerate() {
                let shared = keys_of(target, &cfg)
                    .iter()
                    .filter(|key| keys.contains(key))
                    .count();
                assert_eq!(
                    cands.contains(i, j),
                    shared >= cfg.min_shared_keys,
                    "cell ({i},{j})"
                );
            }
        }
        assert_eq!(cands.len(), cands.stats().pairs_scored);
    }

    #[test]
    fn candidate_cap_keeps_rows_bounded_and_deterministic() {
        let (s, t) = realistic_names();
        let cfg = BlockingConfig::default();
        let capped = build_candidates(&s, &t, &cfg, 5);
        for i in 0..capped.sources() {
            assert!(capped.row(i).len() <= 5);
            assert!(capped.row(i).windows(2).all(|w| w[0] < w[1]));
        }
        // Identical at any thread count.
        let one = ceaff_parallel::with_threads(1, || build_candidates(&s, &t, &cfg, 5));
        let eight = ceaff_parallel::with_threads(8, || build_candidates(&s, &t, &cfg, 5));
        assert_eq!(one, capped);
        assert_eq!(eight, capped);
    }

    #[test]
    fn target_index_rows_match_build_candidates() {
        let s = ["New York City", "Berlin", "Tokyo Tower", "york minster"];
        let t = ["New York", "Berlin (city)", "Kyoto", "York"];
        let cfg = BlockingConfig::default();
        for k in [1, 3, 10] {
            let cands = build_candidates(&s, &t, &cfg, k);
            let index = TargetIndex::build(&t, &cfg);
            let rows: Vec<Vec<u32>> = (0..s.len()).map(|i| index.candidate_row(s[i], k)).collect();
            assert_eq!(CandidateSet::from_rows(t.len(), rows), cands, "k={k}");
        }
    }

    #[test]
    fn recall_counts_surviving_gold_pairs() {
        // Gold is the diagonal of a mono-lingual benchmark: blocking must
        // keep almost all of it.
        let (s, t) = realistic_names();
        let cands = build_candidates(&s, &t, &BlockingConfig::default(), 50);
        let gold: Vec<(usize, usize)> = (0..s.len()).map(|i| (i, i)).collect();
        let recall = cands.recall_of(&gold);
        assert!(recall > 0.9, "blocking recall collapsed: {recall}");
        assert_eq!(cands.recall_of(&[]), 1.0, "empty gold set is vacuous");
    }

    #[test]
    #[should_panic(expected = "at least one key kind")]
    fn rejects_empty_key_config() {
        let cfg = BlockingConfig {
            index_tokens: false,
            index_trigrams: false,
            min_shared_keys: 1,
        };
        let _ = build_candidates(&["a"], &["b"], &cfg, 1);
    }
}

/// Parity of the interned, dense-counter index with the `HashMap` index
/// it replaced.
#[cfg(test)]
mod parity {
    use super::*;
    use proptest::prelude::*;

    /// The previous `candidate_row`: a `HashMap` from key string to
    /// postings, a `HashMap` of shared-key counts per row, and a full sort.
    fn reference_rows<S: AsRef<str>, T: AsRef<str>>(
        sources: &[S],
        targets: &[T],
        cfg: &BlockingConfig,
        k: usize,
    ) -> Vec<Vec<u32>> {
        let mut index: HashMap<String, Vec<u32>> = HashMap::new();
        for (j, t) in targets.iter().enumerate() {
            for key in keys_of(t.as_ref(), cfg) {
                index.entry(key).or_default().push(j as u32);
            }
        }
        sources
            .iter()
            .map(|s| {
                let mut shared: HashMap<u32, usize> = HashMap::new();
                for key in keys_of(s.as_ref(), cfg) {
                    if let Some(posting) = index.get(&key) {
                        for &j in posting {
                            *shared.entry(j).or_insert(0) += 1;
                        }
                    }
                }
                let mut ranked: Vec<(u32, usize)> = shared
                    .into_iter()
                    .filter(|&(_, count)| count >= cfg.min_shared_keys)
                    .collect();
                ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                ranked.truncate(k);
                let mut cols: Vec<u32> = ranked.into_iter().map(|(j, _)| j).collect();
                cols.sort_unstable();
                cols
            })
            .collect()
    }

    fn configs() -> Vec<BlockingConfig> {
        let mut out = Vec::new();
        for min_shared_keys in [1, 2, 3] {
            for (index_tokens, index_trigrams) in [(true, true), (true, false), (false, true)] {
                out.push(BlockingConfig {
                    min_shared_keys,
                    index_tokens,
                    index_trigrams,
                });
            }
        }
        out
    }

    fn check<S: AsRef<str> + Sync, T: AsRef<str> + Sync>(
        s: &[S],
        t: &[T],
    ) -> Result<(), TestCaseError> {
        for cfg in configs() {
            for k in [1, 3, 50] {
                let want = CandidateSet::from_rows(t.len(), reference_rows(s, t, &cfg, k));
                let got = build_candidates(s, t, &cfg, k);
                prop_assert_eq!(&got, &want, "cfg={cfg:?} k={k}");
            }
        }
        Ok(())
    }

    #[test]
    fn parity_on_a_realistic_benchmark_at_1_and_8_threads() {
        let ds = ceaff_datagen::Preset::SrprsDbpWd.generate(0.2);
        let (s, t) = (ds.test_source_names(), ds.test_target_names());
        assert!(s.len() >= 64, "large enough to fan rows out to the pool");
        for threads in [1, 8] {
            ceaff_parallel::with_threads(threads, || check(&s, &t)).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Tiny alphabets make shared-key counts collide, so the
        /// (count desc, column asc) tie-break decides most kept sets.
        #[test]
        fn parity_with_ties(
            s in proptest::collection::vec("[ab c]{0,10}", 0..12),
            t in proptest::collection::vec("[ab c]{0,10}", 0..12),
        ) {
            check(&s, &t)?;
        }

        #[test]
        fn parity_unicode(
            s in proptest::collection::vec("[aÉéσΣ北京 -]{0,12}", 0..10),
            t in proptest::collection::vec("[aÉéσΣ北京 -]{0,12}", 0..10),
        ) {
            check(&s, &t)?;
        }

        /// Past the 64-row threshold rows fan out to the pool; the set is
        /// the same at 1 and 8 threads.
        #[test]
        fn parity_at_1_and_8_threads(
            s in proptest::collection::vec("[abcd ]{0,14}", 64..90),
            t in proptest::collection::vec("[abcd ]{0,14}", 0..70),
        ) {
            ceaff_parallel::with_threads(1, || check(&s, &t))?;
            ceaff_parallel::with_threads(8, || check(&s, &t))?;
        }
    }
}
