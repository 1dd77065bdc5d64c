//! `biv-fleet` — sharded `bivd` serving.
//!
//! One `bivd` process holds one structural cache; this crate scales
//! that horizontally. N daemons each run as one *shard* of a fleet
//! (`bivd --fleet shard=K/N --peers ...`), and a client-side [`Router`]
//! fans each batch out across them, reassembling the responses into
//! output that is **byte-identical** to a single local `bivc` run over
//! the same files.
//!
//! The pieces:
//!
//! - [`ring`] — the consistent-hash ring that maps a file's content key
//!   to its shard, with virtual nodes for balance and successor routing
//!   for failover;
//! - [`membership`] — gossip-maintained versioned views of the fleet
//!   (who is alive, where, at which incarnation), with SWIM-style
//!   refutation and timeout-driven failure detection; routers bootstrap
//!   the ring from any one live seed endpoint;
//! - [`replicate`] — asynchronous R-way write-through of committed
//!   summaries to each key's ring successors, so a killed primary's
//!   keys are served warm from a replica;
//! - [`router`] — seed bootstrap from a membership view, batch
//!   fan-out, per-shard busy/death handling, replica-scoped failover,
//!   and input-order reassembly (the byte-identity lives here);
//! - [`stats`] — fleet-wide stats aggregation.
//!
//! A fleet member always runs the cluster agent (`bivd --fleet
//! shard=K/N --peers ...`); a router can only bootstrap from a
//! membership view. A departing shard's warm handoff is the agent's
//! job: on a graceful shutdown it preloads its store snapshot into the
//! shards that absorb its ring ranges.
//!
//! Routing invariant: the structural hash partitions the summary
//! keyspace perfectly — a function's cached summary lives under exactly
//! one key — so identical file contents must always land on the same
//! shard to reuse its cache. The router keys the ring on a 64-bit FNV-1a
//! of the file source: equal sources have equal structural hashes, so
//! the content key respects the structural partition while being
//! computable without parsing. Routing never affects output bytes —
//! shards return per-file summary blocks plus structural hashes, and
//! the router replays the batch stats line cold over all hashes in
//! input order ([`biv_core::cold_batch_stats`]) exactly as a local run
//! renders it — so failover re-routing is always safe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
pub mod membership;
pub mod replicate;
pub mod ring;
pub mod router;
pub mod stats;

pub use membership::{AgentConfig, ClusterAgent, Member, MemberState, Membership, View};
pub use replicate::Replicator;
pub use ring::Ring;
pub use router::{FleetConfig, FleetReport, Router};
pub use stats::{fleet_stats, fleet_stats_with_timeout};
