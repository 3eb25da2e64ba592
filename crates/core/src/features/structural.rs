//! The structural feature `Ms` (paper §IV-A): cosine similarity of
//! GCN-encoded entity embeddings.

use super::Feature;
use crate::budget::ExecBudget;
use crate::checkpoint::Checkpointer;
use crate::error::CeaffError;
use crate::gcn::{self, GcnConfig, GcnEncoder};
use ceaff_graph::{EntityId, KgPair};
use ceaff_sim::{cosine_similarity_matrix, CandidateSet, SimStore, SimilarityMatrix, SparseTopK};
use ceaff_telemetry::Telemetry;
use ceaff_tensor::Matrix;

/// A trained structural feature.
#[derive(Debug, Clone)]
pub struct StructuralFeature {
    /// L2-row-normalised source embeddings (all entities).
    z_source: Matrix,
    /// L2-row-normalised target embeddings (all entities).
    z_target: Matrix,
    test: SimStore,
    /// The encoder's training-loss trajectory (diagnostics).
    pub loss_curve: Vec<f32>,
}

impl StructuralFeature {
    /// Train the GCN on `pair`'s seeds and compute the test matrix.
    pub fn compute(pair: &KgPair, cfg: &GcnConfig) -> Self {
        Self::compute_traced(pair, cfg, &Telemetry::disabled())
    }

    /// [`StructuralFeature::compute`] with telemetry: encoder training is
    /// timed under the `"gcn"` stage and emits per-epoch loss gauges.
    pub fn compute_traced(pair: &KgPair, cfg: &GcnConfig, telemetry: &Telemetry) -> Self {
        let encoder = gcn::train_traced(pair, cfg, telemetry);
        Self::from_encoder(pair, encoder)
    }

    /// Fallible, checkpoint-aware variant of
    /// [`StructuralFeature::compute_traced`]: with a [`Checkpointer`] the
    /// GCN saves/resumes its training state, and numeric divergence comes
    /// back as a typed error instead of a panic.
    pub fn try_compute_traced(
        pair: &KgPair,
        cfg: &GcnConfig,
        telemetry: &Telemetry,
        checkpointer: Option<&Checkpointer>,
    ) -> Result<Self, CeaffError> {
        let encoder = gcn::try_train_traced(pair, cfg, telemetry, checkpointer)?;
        Ok(Self::from_encoder(pair, encoder))
    }

    /// [`StructuralFeature::try_compute_traced`] under an execution
    /// budget: GCN training consumes one budget step per epoch and stops
    /// early (at the best snapshot so far, with a degradation record)
    /// when the budget runs out — see
    /// [`gcn::try_train_budgeted`](crate::gcn::try_train_budgeted).
    pub fn try_compute_budgeted(
        pair: &KgPair,
        cfg: &GcnConfig,
        telemetry: &Telemetry,
        checkpointer: Option<&Checkpointer>,
        budget: &ExecBudget,
    ) -> Result<Self, CeaffError> {
        let encoder = gcn::try_train_budgeted(pair, cfg, telemetry, checkpointer, budget)?;
        Ok(Self::from_encoder(pair, encoder))
    }

    /// [`StructuralFeature::try_compute_budgeted`] scoring only the
    /// blocked candidate pairs into a sparse top-k store. Training cost is
    /// unchanged; the `O(n·t)` pairwise cosine stage shrinks to
    /// `O(|candidates|)` dot products. No checkpointer: blocked runs are
    /// cheap to restart and the checkpoint format is dense-only.
    pub fn try_compute_budgeted_blocked(
        pair: &KgPair,
        cfg: &GcnConfig,
        telemetry: &Telemetry,
        budget: &ExecBudget,
        candidates: &CandidateSet,
        k: usize,
    ) -> Result<Self, CeaffError> {
        let encoder = gcn::try_train_budgeted(pair, cfg, telemetry, None, budget)?;
        Ok(Self::from_encoder_blocked(pair, encoder, candidates, k))
    }

    /// Build from an already-trained encoder (lets callers reuse one
    /// training run across ablations).
    pub fn from_encoder(pair: &KgPair, encoder: GcnEncoder) -> Self {
        let GcnEncoder {
            mut z_source,
            mut z_target,
            loss_curve,
        } = encoder;
        z_source.l2_normalize_rows();
        z_target.l2_normalize_rows();
        let src_idx: Vec<usize> = pair.test_sources().iter().map(|e| e.index()).collect();
        let tgt_idx: Vec<usize> = pair.test_targets().iter().map(|e| e.index()).collect();
        let zs = z_source.gather_rows(&src_idx);
        let zt = z_target.gather_rows(&tgt_idx);
        let test = SimStore::Dense(cosine_similarity_matrix(&zs, &zt));
        Self {
            z_source,
            z_target,
            test,
            loss_curve,
        }
    }

    /// [`StructuralFeature::from_encoder`], scoring only the blocked
    /// candidate pairs.
    pub fn from_encoder_blocked(
        pair: &KgPair,
        encoder: GcnEncoder,
        candidates: &CandidateSet,
        k: usize,
    ) -> Self {
        let GcnEncoder {
            mut z_source,
            mut z_target,
            loss_curve,
        } = encoder;
        z_source.l2_normalize_rows();
        z_target.l2_normalize_rows();
        let src_idx: Vec<usize> = pair.test_sources().iter().map(|e| e.index()).collect();
        let tgt_idx: Vec<usize> = pair.test_targets().iter().map(|e| e.index()).collect();
        let zs = z_source.gather_rows(&src_idx);
        let zt = z_target.gather_rows(&tgt_idx);
        // Rows are unit-normalised, so the dot product is the cosine.
        let sparse = SparseTopK::from_candidates(candidates, k, |i| {
            let (a, zt) = (zs.row(i), &zt);
            move |j| ceaff_tensor::dot(a, zt.row(j as usize))
        });
        Self {
            z_source,
            z_target,
            test: SimStore::Sparse(sparse),
            loss_curve,
        }
    }

    /// [`StructuralFeature::compute_traced`] over a blocked candidate set.
    pub fn compute_traced_blocked(
        pair: &KgPair,
        cfg: &GcnConfig,
        telemetry: &Telemetry,
        candidates: &CandidateSet,
        k: usize,
    ) -> Self {
        let encoder = gcn::train_traced(pair, cfg, telemetry);
        Self::from_encoder_blocked(pair, encoder, candidates, k)
    }

    /// Rebuild from checkpointed parts without recomputing anything.
    ///
    /// The embeddings must already be L2-row-normalised (they are saved
    /// that way): re-normalising an already-normalised matrix is *not*
    /// bitwise-stable, and a restored stage must be bit-identical to the
    /// run that saved it.
    pub fn from_saved_parts(
        z_source: Matrix,
        z_target: Matrix,
        test: SimilarityMatrix,
        loss_curve: Vec<f32>,
    ) -> Self {
        Self {
            z_source,
            z_target,
            test: SimStore::Dense(test),
            loss_curve,
        }
    }

    /// Assemble from already-patched parts (the delta pipeline's
    /// constructor). The embeddings must carry whatever normalisation
    /// [`StructuralFeature::from_encoder`] would have applied — the
    /// delta patcher reproduces it bit-for-bit.
    pub(crate) fn from_store_parts(
        z_source: Matrix,
        z_target: Matrix,
        test: SimStore,
        loss_curve: Vec<f32>,
    ) -> Self {
        Self {
            z_source,
            z_target,
            test,
            loss_curve,
        }
    }

    /// The full (all-entity) source embedding matrix.
    pub fn source_embeddings(&self) -> &Matrix {
        &self.z_source
    }

    /// The full (all-entity) target embedding matrix.
    pub fn target_embeddings(&self) -> &Matrix {
        &self.z_target
    }
}

impl Feature for StructuralFeature {
    fn name(&self) -> &'static str {
        "structural"
    }

    fn test_store(&self) -> &SimStore {
        &self.test
    }

    fn score(&self, u: EntityId, v: EntityId) -> f32 {
        // Rows are already unit-normalised; the dot product is the cosine.
        ceaff_tensor::dot(self.z_source.row(u.index()), self.z_target.row(v.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_support::{dataset, diagonal_margin};
    use ceaff_datagen::NameChannel;

    fn cfg() -> GcnConfig {
        GcnConfig {
            dim: 32,
            epochs: 60,
            ..GcnConfig::default()
        }
    }

    #[test]
    fn test_matrix_separates_ground_truth() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let f = StructuralFeature::compute(&ds.pair, &cfg());
        let margin = diagonal_margin(f.test_matrix());
        assert!(
            margin > 0.05,
            "structural diagonal margin too small: {margin}"
        );
    }

    #[test]
    fn score_is_consistent_with_test_matrix() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let f = StructuralFeature::compute(&ds.pair, &cfg());
        let sources = ds.pair.test_sources();
        let targets = ds.pair.test_targets();
        for i in [0usize, 3, 7] {
            for j in [0usize, 5] {
                let expect = f.test_matrix().get(i, j);
                let got = f.score(sources[i], targets[j]);
                assert!((expect - got).abs() < 1e-4, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn matrix_dimensions_match_test_split() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let f = StructuralFeature::compute(&ds.pair, &cfg());
        assert_eq!(f.test_matrix().sources(), ds.pair.test_pairs().len());
        assert_eq!(f.test_matrix().targets(), ds.pair.test_pairs().len());
    }
}
