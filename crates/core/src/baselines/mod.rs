//! Comparator semantics and ground-truth baselines.
//!
//! * [`mod@u_topk`] — the category-(1) U-Topk semantics the paper argues against
//!   (highest-probability vector, regardless of how typical its score is),
//!   found in one rank-order pass that Theorem 2 ends early.
//! * [`ranks`] — the category-(2) semantics U-kRanks and PT-k, provided for
//!   completeness of the comparison discussion in §1 and §6.
//! * [`exhaustive`] — possible-world enumeration used as ground truth in the
//!   test suite and in small examples.

pub mod exhaustive;
pub mod ranks;
pub mod u_topk;

pub use exhaustive::{exhaustive_topk_distribution, exhaustive_topk_membership, exhaustive_u_topk};
pub use ranks::{pt_k, rank_probabilities, u_kranks, RankWinner, TopkMembership};
pub use u_topk::{u_topk, UTopkAnswer, UTopkConfig};
