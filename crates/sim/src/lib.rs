#![warn(missing_docs)]

//! # ceaff-sim
//!
//! Similarity machinery for entity alignment: the dense
//! [`SimilarityMatrix`] container shared by every feature, the unified
//! [`SimStore`] (dense or sparse top-k) every consumer reads through,
//! inverted-index [`blocking`] as the sub-quadratic candidate-generation
//! stage, pairwise [`cosine`] similarity over embedding matrices, and
//! the paper's string-level feature — Levenshtein distance with unit and
//! substitution-cost-2 variants plus the Levenshtein ratio (§IV-C).

pub mod blocking;
pub mod cosine;
pub mod csls;
pub mod levenshtein;
pub mod matrix;
pub mod store;

pub use blocking::{
    build_candidates, keys_of, BlockingConfig, BlockingStats, CandidateSet, TargetIndex,
};
pub use cosine::{cosine, cosine_similarity_matrix};
pub use csls::{csls_adjusted, csls_adjusted_sparse, csls_adjusted_store};
pub use levenshtein::{
    levenshtein, levenshtein_ratio, levenshtein_sub2, name_chars, string_similarity_matrix,
    LcsPattern,
};
pub use matrix::SimilarityMatrix;
pub use store::{SimScores, SimStore, SparseTopK};
