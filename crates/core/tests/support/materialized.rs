//! The pre-streaming pipeline of the main algorithm: the Theorem-2 depth
//! over the whole materialized table, then the DP over its truncation. The
//! streamed path must match it bit for bit.

use ttk_core::dp::{topk_score_distribution, MainConfig, MainOutput};
use ttk_core::scan_depth;
use ttk_uncertain::{Result, UncertainTable};

/// The main algorithm's answer on `table` truncated to its Theorem-2 depth.
pub fn materialized_topk_score_distribution(
    table: &UncertainTable,
    k: usize,
    config: &MainConfig,
) -> Result<MainOutput> {
    let depth = scan_depth(table, k, config.p_tau)?;
    topk_score_distribution(&table.truncate(depth), k, config)
}
