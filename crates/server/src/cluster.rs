//! Hook points the fleet layer plugs into the server.
//!
//! `bivd` itself knows nothing about membership views or replica
//! placement — that logic lives in `biv-fleet`, which depends on this
//! crate (not the other way round). The server exposes the narrow
//! surface the fleet layer needs: answer gossip/members frames, observe
//! committed summaries (so they can be written through to replicas),
//! contribute stats sections, and run the departure handoff once drain
//! has flushed the store. A server started without a cluster agent (a
//! lone `bivd` without `--peers`, unit tests) is no fleet member: it
//! answers membership ops with a `no-cluster` error and skips the rest.

use std::fmt;
use std::sync::Arc;

use biv_core::StructuralSummary;

use crate::json::Json;

/// What a membership/replication agent provides to the server.
pub trait ClusterHook: Send + Sync {
    /// Merges a peer's view and returns ours (after the merge), so one
    /// gossip exchange converges both sides. `from` is the sending
    /// shard when the peer is a fleet member.
    fn on_gossip(&self, from: Option<u32>, view: &Json) -> Json;

    /// The current membership view — how routers bootstrap the ring
    /// from a single seed endpoint.
    fn view(&self) -> Json;

    /// Observes summaries committed while serving `source` (an analyze
    /// request's file text), each paired with its product key
    /// (`biv_core::summary_key`), so the agent can replicate them to the
    /// content key's successors. Called after the batch is in the local
    /// cache.
    fn on_commit(&self, source: &str, entries: &[(u64, Arc<StructuralSummary>)]);

    /// Extra top-level stats sections (`membership`, `replication`).
    fn stats_sections(&self) -> Vec<(String, Json)>;

    /// Runs after drain has completed and the store is flushed: the
    /// agent announces departure and hands its snapshot to the shards
    /// that absorb its key ranges.
    fn on_drained(&self);
}

/// A cloneable, debuggable handle to a [`ClusterHook`] so it can ride
/// inside [`ServerConfig`](crate::ServerConfig).
#[derive(Clone)]
pub struct ClusterHandle(pub Arc<dyn ClusterHook>);

impl fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ClusterHandle(..)")
    }
}

impl ClusterHandle {
    /// Wraps a hook implementation.
    pub fn new(hook: Arc<dyn ClusterHook>) -> ClusterHandle {
        ClusterHandle(hook)
    }
}
