//! `biv-server` — the resident induction-variable analysis service.
//!
//! `bivc` analyzes a batch and exits; this crate keeps the analysis
//! warm. A `bivd` daemon owns a worker pool and a shared
//! [`biv_core::StructuralCache`], so structurally repeated functions —
//! the common case across rebuilds of the same codebase — are
//! classified once and served from cache on every later request, across
//! clients and across time.
//!
//! The pieces, bottom-up:
//!
//! - [`json`] — a dependency-free JSON value, parser, and writer (the
//!   workspace builds offline; there is no serde here);
//! - [`frame`] — length-prefixed framing over any byte stream;
//! - [`proto`] — the typed request/response protocol;
//! - [`net`] — Unix-socket and TCP transports behind one interface;
//! - [`pool`] — the bounded job queue whose full state is the
//!   backpressure signal;
//! - `latency` — bounded-window latency samples with percentile
//!   snapshots;
//! - [`metrics`] — lock-free counters plus per-phase latency windows;
//! - [`signal`] — SIGINT/SIGTERM to a drain flag, no `libc` crate;
//! - [`server`] — job routing, the worker pool, timeouts, graceful
//!   drain, and the threaded fallback front-end;
//! - `event` (Linux) — the readiness-driven epoll front-end that owns
//!   every connection's I/O on one thread;
//! - [`client`] — the blocking client `bivc --remote` is built on.
//!
//! The contract that makes remote serving safe to adopt: an `analyze`
//! response is **byte-identical** to what a local `bivc` run would
//! print for the same files, no matter how warm the server's cache is
//! (see [`server`]'s module docs for how the stats line is replayed
//! cold).

#![deny(unsafe_code)] // `signal::imp` opts back in, narrowly.
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
#[cfg(target_os = "linux")]
mod event;
mod faults;
pub mod frame;
pub mod json;
mod latency;
pub mod metrics;
pub mod net;
pub mod pool;
pub mod proto;
pub mod server;
pub mod signal;

pub use client::Client;
pub use cluster::{ClusterHandle, ClusterHook};
pub use json::Json;
pub use net::{Conn, Endpoint, Listener};
pub use proto::{AnalyzeFile, FileError, FleetFile, ReplicaEntry, Request, Response};
pub use server::{NetMode, ServeSummary, Server, ServerConfig};
