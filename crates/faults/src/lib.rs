//! Deterministic, seeded fault injection for chaos testing.
//!
//! A *fault plan* is a `(seed, profile)` pair installed process-wide.
//! Code under test asks at named *sites* ("net.read.short",
//! "worker.job.panic", …) whether a fault should fire; the answer is a
//! pure function of the seed, the site name, and how many times that
//! site has been consulted — so a given seed produces the same sequence
//! of faults at every site on every run, independent of timing. The
//! *assignment* of a firing draw to a particular request may still race
//! across threads, which is why the chaos suite asserts invariants
//! (every accepted request answered, byte-identical output after
//! retries) rather than exact schedules.
//!
//! With no plan installed every query is a cheap atomic load returning
//! "no fault" — and the facility is only compiled into `biv-core` /
//! `biv-server` behind their `fault-injection` features, so release
//! builds carry none of it.
//!
//! # Sites
//!
//! | site | effect at the call site |
//! |------|-------------------------|
//! | `net.read.eintr` / `net.write.eintr` | a spurious `ErrorKind::Interrupted` |
//! | `net.read.short` / `net.write.short` | the op is truncated to a short length |
//! | `worker.job.panic` | panic inside the worker's per-job `catch_unwind` |
//! | `worker.die` | panic *outside* it — the worker thread dies |
//! | `queue.storm` | an admission is refused as if the queue were full |
//! | `cache.commit` | a computed summary is not committed to the cache |
//! | `analyze.panic` | panic inside per-function analysis (batch boundary) |
//! | `store.write.torn` | a store append writes only a prefix of the record and the store wedges — a simulated crash mid-commit |
//! | `store.write.short` | a store append is split across two writes (exercises the write loop; no data loss) |
//! | `store.record.corrupt` | one byte of a record is flipped after its checksum was computed — caught by CRC on reopen |
//! | `fleet.shard.unreachable` | a router dial fails as if the shard were dead — exercises re-routing within the replica set |
//! | `fleet.heartbeat.lost` | one gossip send is skipped — exercises the suspect/refute ladder |
//! | `fleet.partition` | one gossip send is dropped as if the pair were partitioned (same effect as a lost heartbeat, drawn independently so both can stack) |
//! | `fleet.replica.lag` | a replication batch is delayed before sending — exercises the `replication_lag` gauge and warm-failover under lag |
//! | `epoll.wait.eintr` | the event loop's wait is interrupted early (spurious `EINTR`) |
//! | `epoll.spurious.wake` | the event loop wakes with no completion pending — must be a no-op |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Which family of sites a plan arms, and how hard.
///
/// Rates are fixed per profile (in fires per 1024 draws) so a spec
/// string fully determines behaviour; see [`rate_per_1024`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Network-layer faults only: spurious `EINTR`, short reads/writes.
    Io,
    /// Worker faults only: per-job panics and whole-worker deaths.
    Worker,
    /// Queue-admission storms only: forced `busy` rejections.
    Storm,
    /// Cache-commit failures only: computed summaries are not retained.
    Cache,
    /// Per-function analysis panics only (exercises the batch boundary).
    Analyze,
    /// Durable-store faults only: torn appends (simulated crash
    /// mid-commit), split writes, and record corruption caught by CRC
    /// on reopen. None of them changes a served response — persistence
    /// degrades, answers do not.
    Store,
    /// Fleet faults only: a shard dial that fails as if the shard were
    /// dead (`fleet.shard.unreachable`, exercising the router's
    /// replica-set re-route), lost heartbeats and partitioned gossip pairs
    /// (`fleet.heartbeat.lost`, `fleet.partition` — exercising the
    /// suspect/refute ladder), lagging replication pushes
    /// (`fleet.replica.lag`), and spurious event-loop wakeups
    /// (`epoll.wait.eintr`, `epoll.spurious.wake` — both must be
    /// invisible above the readiness layer).
    Fleet,
    /// Everything *except* `analyze.panic`, at moderate rates. The
    /// excluded site changes rendered output (an error line replaces a
    /// function's summary), so the byte-identity chaos invariant holds
    /// only without it. Store short-write and corrupt-record sites are
    /// included (they only ever cost retention or reopen-time recompute,
    /// never answer bytes); `store.write.torn` is not, because one torn
    /// append wedges the store for the rest of the process and would
    /// make the rest of a chaos run exercise nothing.
    Chaos,
}

impl Profile {
    fn parse(name: &str) -> Option<Profile> {
        match name {
            "io" => Some(Profile::Io),
            "worker" => Some(Profile::Worker),
            "storm" => Some(Profile::Storm),
            "cache" => Some(Profile::Cache),
            "analyze" => Some(Profile::Analyze),
            "store" => Some(Profile::Store),
            "fleet" => Some(Profile::Fleet),
            "chaos" => Some(Profile::Chaos),
            _ => None,
        }
    }
}

/// Fire rate for `site` under `profile`, in fires per 1024 draws.
pub fn rate_per_1024(profile: Profile, site: &str) -> u32 {
    let net = site.starts_with("net.");
    let job_panic = site == "worker.job.panic";
    let die = site == "worker.die";
    let storm = site == "queue.storm";
    let cache = site == "cache.commit";
    let analyze = site == "analyze.panic";
    let torn = site == "store.write.torn";
    let short = site == "store.write.short";
    let corrupt = site == "store.record.corrupt";
    let unreachable = site == "fleet.shard.unreachable";
    let heartbeat = site == "fleet.heartbeat.lost";
    let partition = site == "fleet.partition";
    let lag = site == "fleet.replica.lag";
    let epoll = site.starts_with("epoll.");
    match profile {
        Profile::Io if net => 192,
        Profile::Worker if job_panic => 256,
        Profile::Worker if die => 96,
        Profile::Storm if storm => 384,
        Profile::Cache if cache => 256,
        Profile::Analyze if analyze => 256,
        Profile::Store if torn => 96,
        Profile::Store if short => 192,
        Profile::Store if corrupt => 96,
        Profile::Fleet if unreachable => 96,
        // Membership must converge despite losses: rates are set so a
        // suspect verdict needs several *consecutive* losses in both
        // directions, which a heartbeat ladder of 4 beats absorbs.
        Profile::Fleet if heartbeat => 96,
        Profile::Fleet if partition => 64,
        Profile::Fleet if lag => 128,
        Profile::Fleet if epoll => 192,
        Profile::Chaos if net => 64,
        // Spurious event-loop wakeups are byte-safe by construction, so
        // chaos arms them too; `fleet.shard.unreachable` costs only a
        // re-route to another replica, never bytes, so it rides along.
        Profile::Chaos if epoll => 96,
        Profile::Chaos if unreachable => 48,
        Profile::Chaos if heartbeat => 48,
        Profile::Chaos if partition => 32,
        Profile::Chaos if lag => 64,
        Profile::Chaos if job_panic => 128,
        Profile::Chaos if die => 48,
        Profile::Chaos if storm => 128,
        Profile::Chaos if cache => 96,
        Profile::Chaos if short => 64,
        Profile::Chaos if corrupt => 32,
        _ => 0,
    }
}

#[derive(Debug, Clone, Copy)]
struct Plan {
    seed: u64,
    profile: Profile,
}

#[derive(Default)]
struct State {
    plan: Option<Plan>,
    /// Per-site draw counts (how often the site was consulted).
    draws: HashMap<String, u64>,
    /// Per-site fire counts (how often a fault was injected).
    fired: HashMap<String, u64>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

/// SplitMix64 finalizer — one statelessly mixed output per input.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Installs a fault plan process-wide, resetting all counters.
pub fn install(seed: u64, profile: Profile) {
    let mut st = state().lock().expect("fault state poisoned");
    st.plan = Some(Plan { seed, profile });
    st.draws.clear();
    st.fired.clear();
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Parses and installs a `seed=N,profile=NAME` spec (order-insensitive).
///
/// Profiles: `io`, `worker`, `storm`, `cache`, `analyze`, `store`,
/// `chaos`.
pub fn install_from_spec(spec: &str) -> Result<(), String> {
    let mut seed: Option<u64> = None;
    let mut profile: Option<Profile> = None;
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.split_once('=') {
            Some(("seed", v)) => {
                seed = Some(v.parse().map_err(|_| format!("invalid fault seed `{v}`"))?);
            }
            Some(("profile", v)) => {
                profile =
                    Some(Profile::parse(v).ok_or_else(|| format!("unknown fault profile `{v}`"))?);
            }
            _ => return Err(format!("unrecognized fault spec part `{part}`")),
        }
    }
    let seed = seed.ok_or("fault spec needs `seed=N`")?;
    let profile = profile.ok_or("fault spec needs `profile=NAME`")?;
    install(seed, profile);
    Ok(())
}

/// Removes the plan; every subsequent query answers "no fault".
pub fn uninstall() {
    let mut st = state().lock().expect("fault state poisoned");
    st.plan = None;
    ACTIVE.store(false, Ordering::SeqCst);
}

/// Whether a plan is currently installed.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// One draw at `site`: `Some(entropy)` if a fault fires, `None` otherwise.
fn draw(site: &str) -> Option<u64> {
    if !active() {
        return None;
    }
    let mut st = state().lock().expect("fault state poisoned");
    let plan = st.plan?;
    let n = st.draws.entry(site.to_string()).or_insert(0);
    let index = *n;
    *n += 1;
    let rate = rate_per_1024(plan.profile, site);
    if rate == 0 {
        return None;
    }
    let h = splitmix(plan.seed ^ fnv1a(site) ^ index.wrapping_mul(0x2545_F491_4F6C_DD1D));
    if (h & 1023) as u32 >= rate {
        return None;
    }
    *st.fired.entry(site.to_string()).or_insert(0) += 1;
    // The low 10 bits decided the fire; hand back the rest as entropy.
    Some(h >> 10)
}

/// Should a fault fire at `site` on this draw?
pub fn fire(site: &str) -> bool {
    draw(site).is_some()
}

/// One draw at `site`, handing back the draw's entropy when it fires.
///
/// Call sites that need to *parameterize* an injected fault — which
/// byte of a record to flip, where to tear a write — use the entropy so
/// the parameter is as deterministic as the firing decision.
pub fn entropy(site: &str) -> Option<u64> {
    draw(site)
}

/// Panics with an identifiable message if a fault fires at `site`.
pub fn maybe_panic(site: &str) {
    if fire(site) {
        panic!("injected fault: {site}");
    }
}

/// A spurious retryable I/O error (`ErrorKind::Interrupted`) if a fault
/// fires at `site`.
pub fn io_error(site: &str) -> Option<std::io::Error> {
    draw(site).map(|_| {
        std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            format!("injected fault: {site}"),
        )
    })
}

/// A short length in `1..full` if a fault fires at `site` and the
/// operation is long enough to truncate.
pub fn short_len(site: &str, full: usize) -> Option<usize> {
    if full <= 1 {
        return None;
    }
    draw(site).map(|entropy| 1 + (entropy as usize) % (full - 1))
}

/// Per-site fire counts so far, sorted by site name.
pub fn fired_counts() -> Vec<(String, u64)> {
    let st = state().lock().expect("fault state poisoned");
    let mut out: Vec<_> = st.fired.iter().map(|(k, v)| (k.clone(), *v)).collect();
    out.sort();
    out
}

/// Total fires across all sites so far.
pub fn total_fired() -> u64 {
    let st = state().lock().expect("fault state poisoned");
    st.fired.values().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The plan is process-global; serialize tests that install one.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn inactive_by_default_and_after_uninstall() {
        let _gate = exclusive();
        uninstall();
        assert!(!active());
        assert!(!fire("net.read.short"));
        assert!(io_error("net.read.eintr").is_none());
        install(1, Profile::Chaos);
        assert!(active());
        uninstall();
        assert!(!fire("queue.storm"));
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let _gate = exclusive();
        let site = "worker.job.panic";
        install(42, Profile::Worker);
        let a: Vec<bool> = (0..256).map(|_| fire(site)).collect();
        install(42, Profile::Worker);
        let b: Vec<bool> = (0..256).map(|_| fire(site)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f), "rate 256/1024 must fire in 256 draws");
        assert!(!a.iter().all(|&f| f), "and must not fire every draw");
        install(43, Profile::Worker);
        let c: Vec<bool> = (0..256).map(|_| fire(site)).collect();
        assert_ne!(a, c, "different seeds diverge");
        uninstall();
    }

    #[test]
    fn profiles_scope_their_sites() {
        let _gate = exclusive();
        install(7, Profile::Storm);
        for _ in 0..512 {
            assert!(!fire("net.read.short"));
            assert!(!fire("cache.commit"));
            assert!(!fire("analyze.panic"));
        }
        assert!((0..512).any(|_| fire("queue.storm")));
        install(7, Profile::Chaos);
        for _ in 0..512 {
            assert!(!fire("analyze.panic"), "chaos excludes analyze.panic");
            assert!(!fire("store.write.torn"), "chaos excludes torn appends");
        }
        uninstall();
    }

    #[test]
    fn fleet_profile_arms_membership_and_replication_sites() {
        let _gate = exclusive();
        install(17, Profile::Fleet);
        for _ in 0..512 {
            assert!(!fire("net.read.short"));
            assert!(!fire("cache.commit"));
        }
        assert!((0..512).any(|_| fire("fleet.shard.unreachable")));
        assert!((0..512).any(|_| fire("fleet.heartbeat.lost")));
        assert!((0..512).any(|_| fire("fleet.partition")));
        assert!((0..512).any(|_| fire("fleet.replica.lag")));
        // The loss rates leave the timeout ladder standing: across any
        // window of 4 consecutive draws, both loss sites firing every
        // time is rare enough that convergence tests stay deterministic
        // in practice (the chaos suite asserts invariants, not
        // schedules).
        uninstall();
    }

    #[test]
    fn store_profile_scopes_and_fires() {
        let _gate = exclusive();
        install(13, Profile::Store);
        for _ in 0..512 {
            assert!(!fire("net.read.short"));
            assert!(!fire("cache.commit"));
        }
        assert!((0..512).any(|_| fire("store.write.torn")));
        assert!((0..512).any(|_| fire("store.write.short")));
        assert!((0..512).any(|_| fire("store.record.corrupt")));
        uninstall();
    }

    #[test]
    fn entropy_is_deterministic_per_seed() {
        let _gate = exclusive();
        let site = "store.record.corrupt";
        install(21, Profile::Store);
        let a: Vec<Option<u64>> = (0..256).map(|_| entropy(site)).collect();
        install(21, Profile::Store);
        let b: Vec<Option<u64>> = (0..256).map(|_| entropy(site)).collect();
        assert_eq!(a, b, "same seed, same entropy sequence");
        let fires: Vec<u64> = a.into_iter().flatten().collect();
        assert!(!fires.is_empty());
        assert!(
            fires.windows(2).any(|w| w[0] != w[1]),
            "entropy varies across draws"
        );
        uninstall();
    }

    #[test]
    fn short_len_is_short_and_nonzero() {
        let _gate = exclusive();
        install(9, Profile::Io);
        let mut saw_short = false;
        for _ in 0..512 {
            if let Some(n) = short_len("net.write.short", 64) {
                assert!((1..64).contains(&n));
                saw_short = true;
            }
        }
        assert!(saw_short);
        assert_eq!(short_len("net.write.short", 1), None, "can't truncate 1");
        uninstall();
    }

    #[test]
    fn counters_track_fires() {
        let _gate = exclusive();
        install(11, Profile::Cache);
        let mut expected = 0u64;
        for _ in 0..300 {
            if fire("cache.commit") {
                expected += 1;
            }
        }
        assert!(expected > 0);
        let counts = fired_counts();
        assert_eq!(counts, vec![("cache.commit".to_string(), expected)]);
        assert_eq!(total_fired(), expected);
        uninstall();
    }

    #[test]
    fn spec_parsing() {
        let _gate = exclusive();
        assert!(install_from_spec("seed=5,profile=io").is_ok());
        assert!(active());
        assert!(install_from_spec("profile=chaos, seed=99").is_ok());
        assert!(install_from_spec("seed=x,profile=io").is_err());
        assert!(install_from_spec("seed=5,profile=nope").is_err());
        assert!(install_from_spec("seed=5").is_err());
        assert!(install_from_spec("profile=io").is_err());
        assert!(install_from_spec("bogus").is_err());
        uninstall();
    }
}
