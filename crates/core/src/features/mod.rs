//! The paper's three representative features (§IV): structural (GCN),
//! semantic (averaged name embeddings) and string (Levenshtein ratio).
//!
//! Each computed feature exposes two views:
//!
//! * [`Feature::test_store`] — the `test-sources × test-targets`
//!   similarity store (`Ms`, `Mn`, `Ml`) consumed by fusion and matching,
//!   dense or sparse top-k depending on the candidate strategy the feature
//!   was computed under;
//! * [`Feature::score`] — the same similarity for *arbitrary* entity pairs,
//!   which the learning-based (logistic regression) weighting baseline
//!   needs to score seed pairs and their corruptions (§VII-E).

mod attribute;
mod semantic;
mod string;
mod structural;

pub use attribute::AttributeFeature;
pub use semantic::SemanticFeature;
pub use string::StringFeature;
pub use structural::StructuralFeature;

use ceaff_graph::EntityId;
use ceaff_sim::{CandidateSet, SimStore, SimilarityMatrix};

/// Which test pairs a feature scores: `None` scores all of them into a
/// dense store; `Some((candidates, k))` scores only the blocked
/// candidates into a sparse top-`k` store.
pub(crate) type Blocked<'a> = Option<(&'a CandidateSet, usize)>;

/// A computed alignment feature.
pub trait Feature: Send + Sync {
    /// Short identifier (`"structural"`, `"semantic"`, `"string"`).
    fn name(&self) -> &'static str;

    /// The test-set similarity store (rows = test sources in test order,
    /// columns = test targets in test order) — dense for the paper's exact
    /// pipeline, sparse top-k when the feature was scored over a blocked
    /// candidate set.
    fn test_store(&self) -> &SimStore;

    /// Dense-only bridge to the pre-`SimStore` API.
    ///
    /// # Panics
    /// Panics when the feature is backed by a sparse store — callers that
    /// may see blocked features must use [`Feature::test_store`].
    fn test_matrix(&self) -> &SimilarityMatrix {
        self.test_store().as_dense().expect(
            "Feature::test_matrix needs a dense store; use test_store() for blocked features",
        )
    }

    /// Similarity between any source-KG entity and any target-KG entity.
    fn score(&self, u: EntityId, v: EntityId) -> f32;
}

#[cfg(test)]
pub(crate) mod test_support {
    use ceaff_datagen::{GenConfig, GeneratedDataset, NameChannel};

    /// A small deterministic dataset shared by the feature tests.
    pub fn dataset(channel: NameChannel) -> GeneratedDataset {
        ceaff_datagen::generate(&GenConfig {
            aligned_entities: 120,
            extra_frac: 0.1,
            avg_degree: 8.0,
            overlap: 0.85,
            channel,
            vocab_size: 400,
            lexicon_coverage: 0.95,
            semantic_noise: 0.05,
            ..GenConfig::default()
        })
    }

    /// Mean of the diagonal minus mean of the off-diagonal — a quick
    /// separation score for a feature matrix whose ground truth is the
    /// diagonal.
    pub fn diagonal_margin(m: &ceaff_sim::SimilarityMatrix) -> f64 {
        let n = m.sources().min(m.targets());
        let mut diag = 0.0f64;
        let mut off = 0.0f64;
        let mut off_n = 0usize;
        for i in 0..n {
            diag += m.get(i, i) as f64;
            for j in 0..n {
                if j != i {
                    off += m.get(i, j) as f64;
                    off_n += 1;
                }
            }
        }
        diag / n as f64 - off / off_n.max(1) as f64
    }
}
