//! Itemset-mining substrate: transaction databases, the Eclat frequent
//! itemset miner, and the **Krimp** and **SLIM** compressing-pattern
//! algorithms.
//!
//! CSPM needs these for two reasons (see the paper):
//!
//! * **SLIM** is the runtime point of reference in Table III ("SLIM also
//!   is a compression-based algorithm and it can be easily applied to an
//!   attributed graph by treating coresets in each adjacency list tuple
//!   as items");
//! * **Krimp or SLIM** provide multi-value coresets in Step 1 of CSPM
//!   (§IV-F): "a traditional compressing pattern mining algorithm can be
//!   applied on a transaction database composed of the attribute values
//!   of vertices".
//!
//! The implementations are faithful but self-contained: Krimp follows
//! Vreeken et al. (DMKD 2011) with the standard candidate and cover
//! orders; SLIM follows Smets & Vreeken (SDM 2012), generating candidates
//! on the fly by pairwise combination of code-table entries ranked by
//! estimated gain.

mod apriori;
mod closed;
mod cover;
mod eclat;
mod krimp;
mod slim;
mod transaction;

pub use apriori::apriori;
pub use closed::{closed_itemsets, closed_only};
pub use cover::{CodeTable, CoverResult, DlBreakdown, Pattern};
pub use eclat::{eclat, FrequentItemset};
pub use krimp::{krimp, KrimpConfig, KrimpResult};
pub use slim::{slim, SlimResult};
pub use transaction::{Item, TransactionDb};
