//! Fleet-wide observability.
//!
//! [`fleet_stats`] polls every shard's `stats` endpoint and folds the
//! snapshots into one object: counter sections (`requests`, `queue`,
//! `cache`, `store`) are summed field-by-field, latency windows are
//! merged (exact for `count`/`mean`/`max`; percentiles are
//! count-weighted averages of the shard percentiles — the summaries do
//! not carry enough to merge them exactly, and the approximation is
//! what the raw per-shard snapshots, also included, let you check).

use std::time::Duration;

use biv_server::net::Endpoint;
use biv_server::{Client, Json, Request, Response};

/// One phase's merged latency summary across shards.
#[derive(Debug, Default, Clone, Copy)]
struct MergedWindow {
    count: i64,
    /// `Σ count·mean`, divided out at render time.
    mean_weight: i64,
    p50_weight: i64,
    p90_weight: i64,
    p99_weight: i64,
    max_us: i64,
}

impl MergedWindow {
    fn absorb(&mut self, window: &Json) {
        let int = |key: &str| window.get(key).and_then(Json::as_i64).unwrap_or(0);
        let count = int("count");
        self.count += count;
        self.mean_weight += count.saturating_mul(int("mean_us"));
        self.p50_weight += count.saturating_mul(int("p50_us"));
        self.p90_weight += count.saturating_mul(int("p90_us"));
        self.p99_weight += count.saturating_mul(int("p99_us"));
        self.max_us = self.max_us.max(int("max_us"));
    }

    fn render(&self) -> Json {
        let avg = |weight: i64| {
            if self.count == 0 {
                Json::Int(0)
            } else {
                Json::Int(weight / self.count)
            }
        };
        Json::obj(vec![
            ("count", Json::Int(self.count)),
            ("mean_us", avg(self.mean_weight)),
            ("p50_us", avg(self.p50_weight)),
            ("p90_us", avg(self.p90_weight)),
            ("p99_us", avg(self.p99_weight)),
            ("max_us", Json::Int(self.max_us)),
        ])
    }
}

/// Sums the integer fields of `section` across shard snapshots,
/// preserving the field order of the first shard that has the section.
fn sum_section(snapshots: &[Json], section: &str) -> Option<Json> {
    let mut keys: Vec<String> = Vec::new();
    for snap in snapshots {
        if let Some(Json::Obj(pairs)) = snap.get(section) {
            for (k, _) in pairs {
                if !keys.contains(k) {
                    keys.push(k.clone());
                }
            }
        }
    }
    if keys.is_empty() {
        return None;
    }
    let pairs = keys
        .into_iter()
        .map(|k| {
            let sum: i64 = snapshots
                .iter()
                .filter_map(|s| s.get(section)?.get(&k)?.as_i64())
                .sum();
            (k, Json::Int(sum))
        })
        .collect();
    Some(Json::Obj(pairs))
}

/// Merges per-phase latency windows across shard snapshots.
fn merge_latency(snapshots: &[Json]) -> Json {
    let phases = ["queue_wait", "parse", "analyze", "render", "total"];
    Json::obj(
        phases
            .iter()
            .map(|&phase| {
                let mut merged = MergedWindow::default();
                for snap in snapshots {
                    if let Some(window) = snap.get("latency").and_then(|l| l.get(phase)) {
                        merged.absorb(window);
                    }
                }
                (phase, merged.render())
            })
            .collect(),
    )
}

/// Polls every shard's stats endpoint and aggregates the fleet view.
///
/// Unreachable shards are reported, not fatal — a fleet with one dead
/// member still has a meaningful aggregate. The result carries:
///
/// - `fleet`: shard count, how many answered, the unreachable
///   endpoints;
/// - `totals`: summed `requests`/`queue`/`cache`/`store` sections,
///   summed `workers`, the merged `latency` windows, and the maximum
///   shard `uptime_ms`;
/// - `shards`: each answering shard's raw snapshot, annotated with its
///   endpoint — ground truth for anything the aggregation approximates.
///
/// # Errors
/// Only when *no* shard answers.
pub fn fleet_stats(endpoints: &[String]) -> Result<Json, String> {
    fleet_stats_with_timeout(endpoints, DEFAULT_STATS_TIMEOUT)
}

/// How long one shard may take to connect *and* to answer before its
/// stats entry degrades to `unreachable`.
pub const DEFAULT_STATS_TIMEOUT: Duration = Duration::from_secs(2);

/// [`fleet_stats`] with an explicit per-endpoint deadline: each shard
/// gets `timeout` to connect and `timeout` to answer, so one
/// partitioned or wedged shard costs bounded time and degrades to an
/// `unreachable` entry instead of hanging the whole poll.
///
/// # Errors
/// Only when *no* shard answers.
pub fn fleet_stats_with_timeout(endpoints: &[String], timeout: Duration) -> Result<Json, String> {
    let mut snapshots: Vec<Json> = Vec::new();
    let mut per_shard: Vec<Json> = Vec::new();
    let mut unreachable: Vec<Json> = Vec::new();
    for endpoint in endpoints {
        match shard_stats(endpoint, timeout) {
            Ok(stats) => {
                per_shard.push(Json::obj(vec![
                    ("endpoint", Json::Str(endpoint.clone())),
                    ("stats", stats.clone()),
                ]));
                snapshots.push(stats);
            }
            Err(e) => unreachable.push(Json::obj(vec![
                ("endpoint", Json::Str(endpoint.clone())),
                ("error", Json::Str(e)),
            ])),
        }
    }
    if snapshots.is_empty() {
        return Err(format!(
            "no shard answered ({} endpoints tried)",
            endpoints.len()
        ));
    }

    let int_sum =
        |key: &str| -> i64 { snapshots.iter().filter_map(|s| s.get(key)?.as_i64()).sum() };
    let uptime_max: i64 = snapshots
        .iter()
        .filter_map(|s| s.get("uptime_ms")?.as_i64())
        .max()
        .unwrap_or(0);

    let mut totals = vec![("uptime_ms", Json::Int(uptime_max))];
    for section in ["requests", "queue", "cache"] {
        if let Some(sum) = sum_section(&snapshots, section) {
            totals.push((section, sum));
        }
    }
    totals.push(("workers", Json::Int(int_sum("workers"))));
    totals.push(("latency", merge_latency(&snapshots)));
    if let Some(store) = sum_section(&snapshots, "store") {
        totals.push(("store", store));
    }

    Ok(Json::obj(vec![
        (
            "fleet",
            Json::obj(vec![
                ("shards", Json::Int(endpoints.len() as i64)),
                ("reachable", Json::Int(snapshots.len() as i64)),
                ("unreachable", Json::Arr(unreachable)),
            ]),
        ),
        ("totals", Json::obj(totals)),
        ("shards", Json::Arr(per_shard)),
    ]))
}

/// One shard's raw stats snapshot, bounded by `timeout` on both the
/// connect and the read.
fn shard_stats(endpoint: &str, timeout: Duration) -> Result<Json, String> {
    let endpoint = Endpoint::parse(endpoint);
    let mut client =
        Client::connect_timeout(&endpoint, timeout).map_err(|e| format!("cannot connect: {e}"))?;
    match client.request(&Request::Stats) {
        Ok(Response::Stats(stats)) => Ok(stats),
        Ok(other) => Err(format!("unexpected stats response: {other:?}")),
        Err(e) => Err(format!("stats request failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn window(count: i64, mean: i64, p50: i64, max: i64) -> Json {
        Json::obj(vec![
            ("count", Json::Int(count)),
            ("mean_us", Json::Int(mean)),
            ("p50_us", Json::Int(p50)),
            ("p90_us", Json::Int(p50)),
            ("p99_us", Json::Int(p50)),
            ("max_us", Json::Int(max)),
        ])
    }

    #[test]
    fn merged_windows_weight_by_count() {
        let a = Json::obj(vec![(
            "latency",
            Json::obj(vec![("total", window(3, 100, 90, 200))]),
        )]);
        let b = Json::obj(vec![(
            "latency",
            Json::obj(vec![("total", window(1, 500, 500, 500))]),
        )]);
        let merged = merge_latency(&[a, b]);
        let total = merged.get("total").unwrap();
        assert_eq!(total.get("count").unwrap().as_i64(), Some(4));
        // (3·100 + 1·500) / 4 = 200
        assert_eq!(total.get("mean_us").unwrap().as_i64(), Some(200));
        assert_eq!(total.get("max_us").unwrap().as_i64(), Some(500));
        // Empty phases stay well-defined zeros.
        let parse = merged.get("parse").unwrap();
        assert_eq!(parse.get("count").unwrap().as_i64(), Some(0));
        assert_eq!(parse.get("mean_us").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn sections_sum_fieldwise() {
        let a = Json::obj(vec![(
            "requests",
            Json::obj(vec![("total", Json::Int(5)), ("timeouts", Json::Int(1))]),
        )]);
        let b = Json::obj(vec![(
            "requests",
            Json::obj(vec![("total", Json::Int(7)), ("timeouts", Json::Int(0))]),
        )]);
        let sum = sum_section(&[a, b], "requests").unwrap();
        assert_eq!(sum.get("total").unwrap().as_i64(), Some(12));
        assert_eq!(sum.get("timeouts").unwrap().as_i64(), Some(1));
        assert!(sum_section(&[], "requests").is_none());
    }

    #[test]
    fn wedged_shard_degrades_within_the_timeout() {
        // An endpoint that accepts but never answers: the stats poll
        // must report it unreachable in bounded time, not hang.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = format!("tcp:{}", listener.local_addr().unwrap());
        let hold = std::thread::spawn(move || {
            let conn = listener.accept().ok();
            std::thread::sleep(Duration::from_secs(2));
            drop(conn);
        });
        let started = Instant::now();
        let err = fleet_stats_with_timeout(&[endpoint], Duration::from_millis(200)).unwrap_err();
        assert!(err.contains("no shard answered"), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "poll hung past the deadline: {:?}",
            started.elapsed()
        );
        hold.join().unwrap();
    }
}
