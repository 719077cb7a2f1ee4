//! Mutation sites: deliberately-breakable points that prove the
//! checker has teeth.
//!
//! A protocol model tags a step with a site name:
//!
//! ```ignore
//! let ack_first = mutation::reorder("server.ack_before_journal");
//! ```
//!
//! Normally the tag is `false`. A mutation test activates the site with
//! [`crate::Checker::mutate`] (or the `TECORE_CHECK_MUTATE` environment
//! variable, comma-separated) and asserts that the model checker now
//! *fails* with an interleaving trace — if it still passes, the checker
//! would also miss the real bug.

use std::sync::OnceLock;

use crate::sched::cur_ctx;

fn env_sites() -> &'static [String] {
    static SITES: OnceLock<Vec<String>> = OnceLock::new();
    SITES.get_or_init(|| {
        std::env::var("TECORE_CHECK_MUTATE")
            .ok()
            .map(|v| {
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    })
}

/// Is the mutation site active, i.e. should the model perform the
/// tagged step out of order (e.g. ACK before journal)? Inside a model
/// run this consults the running [`crate::Checker`]'s mutation set;
/// outside, the `TECORE_CHECK_MUTATE` environment variable.
pub fn reorder(site: &str) -> bool {
    if let Some(ctx) = cur_ctx() {
        ctx.ctrl.muts.iter().any(|m| m == site)
    } else {
        env_sites().iter().any(|m| m == site)
    }
}
