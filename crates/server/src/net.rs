//! Transport abstraction: one listener/stream pair covering Unix
//! domain sockets (the default, filesystem-scoped) and TCP (`--tcp`,
//! for remote use). Everything above this module is
//! transport-agnostic.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::fd::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7878` (port 0 picks one).
    Tcp(String),
}

impl Endpoint {
    /// Parses an endpoint string: `tcp:ADDR` is TCP, `unix:PATH` or a
    /// bare path is a Unix socket. Accepting the `unix:` prefix keeps
    /// [`Listener::bound_endpoint`] strings round-trippable, so an
    /// advertised endpoint can be dialed verbatim.
    pub fn parse(text: &str) -> Endpoint {
        if let Some(addr) = text.strip_prefix("tcp:") {
            return Endpoint::Tcp(addr.to_string());
        }
        let path = text.strip_prefix("unix:").unwrap_or(text);
        Endpoint::Unix(PathBuf::from(path))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A bound listener for either transport.
#[derive(Debug)]
pub enum Listener {
    /// Unix domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

/// One accepted or dialed connection.
#[derive(Debug)]
pub enum Conn {
    /// Unix domain socket stream.
    #[cfg(unix)]
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Listener {
    /// Binds the endpoint. A stale Unix socket file (left by a killed
    /// server) is detected by a failed probe connect and replaced; a
    /// *live* socket stays and the bind fails with `AddrInUse`.
    ///
    /// The probe discriminates by error kind: `ConnectionRefused` means
    /// a socket file with no listener behind it (the classic stale
    /// leftover), and `NotFound` means the file vanished between our
    /// bind attempt and the probe (someone else cleaned it up) — both
    /// are stale. Any *other* probe failure (permissions, resource
    /// limits) proves nothing about liveness, so we conservatively
    /// treat the socket as live rather than deleting a file we don't
    /// understand. The `remove_file` tolerates a concurrent-cleanup
    /// `NotFound` race for the same reason.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => match UnixListener::bind(path) {
                Ok(l) => Ok(Listener::Unix(l)),
                Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                    let stale = match UnixStream::connect(path) {
                        Ok(_) => false,
                        Err(probe) => matches!(
                            probe.kind(),
                            io::ErrorKind::ConnectionRefused | io::ErrorKind::NotFound
                        ),
                    };
                    if !stale {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("a server is already listening on {}", path.display()),
                        ));
                    }
                    match std::fs::remove_file(path) {
                        Ok(()) => {}
                        Err(rm) if rm.kind() == io::ErrorKind::NotFound => {}
                        Err(rm) => return Err(rm),
                    }
                    UnixListener::bind(path).map(Listener::Unix)
                }
                Err(e) => Err(e),
            },
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets unsupported here ({})", path.display()),
            )),
            Endpoint::Tcp(addr) => TcpListener::bind(addr).map(Listener::Tcp),
        }
    }

    /// Describes where the listener actually bound (TCP port 0 resolves
    /// to the assigned port).
    pub fn bound_endpoint(&self) -> String {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => match l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
            {
                Some(p) => format!("unix:{p}"),
                None => "unix:<unnamed>".to_string(),
            },
            Listener::Tcp(l) => match l.local_addr() {
                Ok(a) => format!("tcp:{a}"),
                Err(_) => "tcp:<unknown>".to_string(),
            },
        }
    }

    /// Switches the accept loop between blocking and polling mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Accepts one connection.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::tcp(s)),
        }
    }
}

#[cfg(unix)]
impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

#[cfg(unix)]
impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Conn::Unix(s) => s.as_raw_fd(),
            Conn::Tcp(s) => s.as_raw_fd(),
        }
    }
}

impl Conn {
    /// Dials the endpoint.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets unsupported here ({})", path.display()),
            )),
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Conn::tcp),
        }
    }

    /// Wraps a TCP stream with Nagle's algorithm off: every frame is one
    /// write ([`write_frame`](crate::frame::write_frame)), so there is
    /// nothing to coalesce, and a request/response exchange must not
    /// wait out the peer's delayed ACK. Failing to set the option costs
    /// only latency, never the connection, so the error is ignored.
    fn tcp(stream: TcpStream) -> Conn {
        let _ = stream.set_nodelay(true);
        Conn::Tcp(stream)
    }

    /// Dials the endpoint with a bound on how long the connect may
    /// take. TCP gets a true `connect_timeout` (a SYN into a partitioned
    /// host otherwise blocks for the kernel's minutes-long default);
    /// Unix sockets connect or refuse immediately on the local
    /// filesystem, so they use the plain path.
    pub fn connect_timeout(endpoint: &Endpoint, timeout: Duration) -> io::Result<Conn> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                use std::net::ToSocketAddrs;
                let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("endpoint resolves to no address: {addr}"),
                    )
                })?;
                TcpStream::connect_timeout(&resolved, timeout).map(Conn::tcp)
            }
            other => Conn::connect(other),
        }
    }

    /// Sets the read timeout (`None` blocks forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
            Conn::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Switches the stream between blocking and readiness-driven mode
    /// (the event loop owns nonblocking connections).
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(nonblocking),
            Conn::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // Fault-injection sites: a spurious EINTR or a short read here
        // exercises exactly the retry loops in `frame` — both must be
        // invisible to callers above the framing layer.
        if let Some(e) = crate::faults::io_error("net.read.eintr") {
            return Err(e);
        }
        let cap = crate::faults::short_len("net.read.short", buf.len()).unwrap_or(buf.len());
        let buf = &mut buf[..cap];
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(e) = crate::faults::io_error("net.write.eintr") {
            return Err(e);
        }
        let cap = crate::faults::short_len("net.write.short", buf.len()).unwrap_or(buf.len());
        let buf = &buf[..cap];
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_splits_transports() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7878"),
            Endpoint::Tcp("127.0.0.1:7878".into())
        );
        assert_eq!(
            Endpoint::parse("/tmp/bivd.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/bivd.sock"))
        );
        assert_eq!(Endpoint::parse("tcp:x").to_string(), "tcp:x");
        assert_eq!(Endpoint::parse("/a/b").to_string(), "unix:/a/b");
        // Display output round-trips, so a shard can advertise its
        // bound endpoint verbatim.
        assert_eq!(
            Endpoint::parse("unix:/a/b"),
            Endpoint::Unix(PathBuf::from("/a/b"))
        );
    }

    #[cfg(unix)]
    #[test]
    fn stale_unix_socket_is_replaced_live_one_is_not() {
        let dir = std::env::temp_dir().join(format!("biv_net_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.sock");
        // Create then leak a socket file by dropping the listener.
        drop(Listener::bind(&Endpoint::Unix(path.clone())).unwrap());
        assert!(path.exists(), "dropped listener leaves the file");
        // A fresh bind detects the stale file and succeeds.
        let live = Listener::bind(&Endpoint::Unix(path.clone())).unwrap();
        // While it's live, another bind must refuse.
        let err = Listener::bind(&Endpoint::Unix(path.clone())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        drop(live);
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }
}
