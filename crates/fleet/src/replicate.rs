//! Asynchronous R-way write-through replication.
//!
//! When a shard commits freshly analyzed summaries, the server's
//! cluster hook hands them here. The replicator queues one *batch* per
//! commit (the content key plus the codec-encoded summaries) and a
//! dedicated sender thread pushes each batch to the key's replica set —
//! the next R−1 distinct ring successors after the primary — as
//! `replicate` frames. Replication is deliberately **asynchronous and
//! best-effort**:
//!
//! - the queue is bounded; under sustained backlog the *oldest* batch
//!   is dropped (and counted), never the request path blocked — a
//!   replica that misses a batch serves a cache miss, which recomputes
//!   the identical bytes, so correctness never depends on delivery;
//! - a failed push is retried with the client's standard backoff a
//!   bounded number of times, then dropped (and counted);
//! - targets are resolved against the live membership view *at send
//!   time*: a dead replica is skipped (it will warm back up via the
//!   rejoin snapshot handoff), a restarted one is reached at its new
//!   endpoint, and a successor the view has not met yet defers the
//!   whole batch to a retry — never a silent "sent".
//!
//! Entries travel under their product key (`biv_core::summary_key`),
//! so plain and invariant-bearing summaries of one function never
//! collide on a replica. Because a summary is a pure function of that
//! key, pushing the same batch twice — or to a shard that also computed it locally —
//! is idempotent by construction. The queue depth is exported as the
//! `replication_lag` gauge.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use biv_core::StructuralSummary;
use biv_server::client::busy_backoff;
use biv_server::{Client, Endpoint, Json, ReplicaEntry, Request, Response};

use crate::faults;
use crate::membership::{Delivery, Membership};
use crate::ring::Ring;

/// How long one replica connect/read may take before the batch is
/// counted as a failed attempt.
const SEND_TIMEOUT: Duration = Duration::from_secs(2);

struct Batch {
    key: u64,
    entries: Vec<ReplicaEntry>,
    attempts: u32,
}

/// The replication queue plus its sender-side policy. Shared between
/// the server's commit hook (producer) and the sender thread.
pub struct Replicator {
    shard_id: u32,
    replication: u32,
    ring: Ring,
    membership: Arc<Membership>,
    queue: Mutex<VecDeque<Batch>>,
    available: Condvar,
    queue_cap: usize,
    max_retries: u32,
    pushed: AtomicU64,
    retries: AtomicU64,
    dropped: AtomicU64,
}

impl Replicator {
    /// Builds the queue; [`Replicator::run`] drives it.
    pub fn new(
        shard_id: u32,
        replication: u32,
        ring: Ring,
        membership: Arc<Membership>,
        queue_cap: usize,
        max_retries: u32,
    ) -> Replicator {
        Replicator {
            shard_id,
            replication,
            ring,
            membership,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            queue_cap: queue_cap.max(1),
            max_retries,
            pushed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Queues one committed batch for replication. Never blocks: beyond
    /// the queue bound the oldest batch is dropped and counted.
    pub fn enqueue(&self, key: u64, entries: &[(u64, Arc<StructuralSummary>)]) {
        if self.replication <= 1 || entries.is_empty() {
            return;
        }
        let entries = entries
            .iter()
            .map(|(hash, summary)| ReplicaEntry {
                hash: *hash,
                bytes: biv_store::codec::encode_summary(summary),
            })
            .collect();
        let mut queue = self.queue.lock().unwrap();
        queue.push_back(Batch {
            key,
            entries,
            attempts: 0,
        });
        while queue.len() > self.queue_cap {
            queue.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        drop(queue);
        self.available.notify_one();
    }

    /// Batches waiting to be pushed — the `replication_lag` gauge.
    pub fn lag(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// The stats section: queue lag plus lifetime push/retry/drop
    /// counters.
    pub fn stats_json(&self) -> Json {
        Json::obj(vec![
            ("replication_lag", Json::Int(self.lag() as i64)),
            (
                "pushed",
                Json::Int(self.pushed.load(Ordering::Relaxed) as i64),
            ),
            (
                "retries",
                Json::Int(self.retries.load(Ordering::Relaxed) as i64),
            ),
            (
                "dropped",
                Json::Int(self.dropped.load(Ordering::Relaxed) as i64),
            ),
        ])
    }

    /// The sender loop: pop, resolve live targets, push, retry bounded.
    /// Exits once `shutdown` flips (any remaining batches are covered
    /// by the departure snapshot handoff).
    pub fn run(&self, shutdown: &AtomicBool) {
        loop {
            let batch = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if let Some(batch) = queue.pop_front() {
                        break Some(batch);
                    }
                    if shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    let (next, _) = self
                        .available
                        .wait_timeout(queue, Duration::from_millis(100))
                        .unwrap();
                    queue = next;
                }
            };
            let Some(mut batch) = batch else { return };
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            // The lag fault site models a slow replica link: the batch
            // still goes out, later.
            if faults::fire("fleet.replica.lag") {
                std::thread::sleep(Duration::from_millis(50));
            }
            if self.send(&batch) {
                self.pushed
                    .fetch_add(batch.entries.len() as u64, Ordering::Relaxed);
                continue;
            }
            batch.attempts += 1;
            if batch.attempts > self.max_retries {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(busy_backoff(25, batch.attempts));
            let mut queue = self.queue.lock().unwrap();
            queue.push_back(batch);
            while queue.len() > self.queue_cap {
                queue.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The replica endpoints for one key, resolved against the view
    /// now: the key's successor set minus ourselves. `Dead` replicas
    /// are skipped (settled — the rejoin handoff warms them), but a
    /// successor the view has **not met yet** makes the whole batch
    /// unresolvable (`None`): counting it as sent would silently lose
    /// the replica copy whenever membership is still converging.
    fn targets(&self, key: u64) -> Option<Vec<String>> {
        let mut out = Vec::new();
        for shard in self.ring.successors(key, self.replication) {
            if shard == self.shard_id {
                continue;
            }
            match self.membership.delivery(shard) {
                Delivery::Send(endpoint) => out.push(endpoint),
                Delivery::SkipDead => {}
                Delivery::Unmet => return None,
            }
        }
        Some(out)
    }

    /// Pushes one batch to every resolvable replica. True when every
    /// target acked (an empty target set is success — every replica is
    /// known dead, so there is no one to warm).
    fn send(&self, batch: &Batch) -> bool {
        let Some(targets) = self.targets(batch.key) else {
            return false;
        };
        let mut ok = true;
        for endpoint in targets {
            let request = Request::Replicate {
                entries: batch.entries.clone(),
            };
            let acked = Client::connect_timeout(&Endpoint::parse(&endpoint), SEND_TIMEOUT)
                .and_then(|mut client| client.request(&request))
                .map(|response| matches!(response, Response::ReplicateAck { .. }))
                .unwrap_or(false);
            ok &= acked;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::{MemberState, MembershipConfig, View};
    use std::time::Instant;

    fn membership_of_three() -> Arc<Membership> {
        let m = Membership::new(MembershipConfig {
            shard_id: 0,
            shard_count: 3,
            replication: 2,
            endpoint: "ep-0".to_string(),
            suspect_after: Duration::from_millis(1_000),
            dead_after: Duration::from_millis(4_000),
        });
        let mut remote = m.snapshot();
        for (id, ep) in [(1u32, "ep-1"), (2u32, "ep-2")] {
            remote.members.push(crate::membership::Member {
                shard_id: id,
                endpoint: ep.to_string(),
                incarnation: 1,
                state: MemberState::Alive,
            });
        }
        m.observe(&remote, None, Instant::now());
        Arc::new(m)
    }

    fn summary() -> Arc<StructuralSummary> {
        // Any summary works: the replicator treats it as opaque bytes.
        Arc::new(StructuralSummary::from_loops(Vec::new()))
    }

    fn replicator(replication: u32, cap: usize) -> Replicator {
        Replicator::new(0, replication, Ring::new(3), membership_of_three(), cap, 2)
    }

    #[test]
    fn replication_factor_one_queues_nothing() {
        let r = replicator(1, 8);
        r.enqueue(42, &[(1, summary())]);
        assert_eq!(r.lag(), 0);
    }

    #[test]
    fn queue_bound_drops_oldest_and_counts() {
        let r = replicator(2, 4);
        for key in 0..10u64 {
            r.enqueue(key, &[(key, summary())]);
        }
        assert_eq!(r.lag(), 4, "bounded at the cap");
        let stats = r.stats_json();
        assert_eq!(stats.get("dropped").and_then(Json::as_i64), Some(6));
        assert_eq!(stats.get("replication_lag").and_then(Json::as_i64), Some(4));
    }

    #[test]
    fn targets_exclude_self_and_dead_replicas() {
        let r = replicator(3, 8);
        // R=3 over 3 shards: replicas of any key are the other two.
        let targets = r.targets(7).expect("whole ring met");
        assert_eq!(targets.len(), 2);
        assert!(!targets.contains(&"ep-0".to_string()), "never self");
        // Kill one replica in the view: it drops out of the target set
        // instead of failing the batch.
        let mut doomed = r.membership.snapshot();
        for m in doomed.members.iter_mut() {
            if m.endpoint == targets[0] {
                m.state = MemberState::Dead;
            }
        }
        r.membership.observe(&doomed, None, Instant::now());
        let after = r.targets(7).expect("dead replicas still resolve");
        assert_eq!(after.len(), 1);
        assert!(!after.contains(&targets[0]));
    }

    #[test]
    fn an_unmet_successor_defers_the_batch_instead_of_dropping_the_copy() {
        // The membership only knows itself: every key's replica set
        // contains shards the view has not met, so no batch may be
        // counted as sent yet.
        let lonely = Arc::new(Membership::new(MembershipConfig {
            shard_id: 0,
            shard_count: 3,
            replication: 2,
            endpoint: "ep-0".to_string(),
            suspect_after: Duration::from_millis(1_000),
            dead_after: Duration::from_millis(4_000),
        }));
        let r = Replicator::new(0, 2, Ring::new(3), lonely, 8, 2);
        for key in 0..64u64 {
            let successors = r.ring.successors(key, 2);
            if successors.contains(&0) && successors.len() == 1 {
                continue; // self-only set resolves trivially
            }
            assert_eq!(r.targets(key), None, "key {key} must defer, not skip");
        }
    }

    #[test]
    fn suspect_replicas_are_still_delivery_targets() {
        let r = replicator(3, 8);
        let targets = r.targets(7).unwrap();
        let mut rumor = r.membership.snapshot();
        for m in rumor.members.iter_mut() {
            if m.endpoint == targets[0] {
                m.state = MemberState::Suspect;
            }
        }
        r.membership.observe(&rumor, None, Instant::now());
        let after = r.targets(7).expect("suspects resolve");
        assert!(
            after.contains(&targets[0]),
            "a suspect may well be alive — the batch must still be offered"
        );
    }

    #[test]
    fn view_roundtrip_smoke_for_stats_section() {
        let r = replicator(2, 8);
        let stats = r.stats_json();
        for field in ["replication_lag", "pushed", "retries", "dropped"] {
            assert!(stats.get(field).is_some(), "missing {field}");
        }
        // And the membership the replicator resolves against serializes.
        assert!(View::from_json(&r.membership.snapshot().to_json()).is_ok());
    }
}
