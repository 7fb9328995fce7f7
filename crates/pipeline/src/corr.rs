//! The correlated connection: the one dialing-side implementation of the
//! wire protocol's transport, under both [`crate::client::RemoteBackend`]
//! (client → daemon) and the federation's peer links (daemon → daemon).
//!
//! [`Conn::dial`] connects, performs the `Hello`/`HelloAck` version
//! negotiation and starts one reader thread that routes every reply frame
//! to the request that sent it by [`RequestId`], so any number of threads
//! share the connection *concurrently* — several tickets, delegation
//! chains or releases in flight on one socket.  It is still one TCP
//! session, so everything the far side leases to this connection stays
//! leased to it.
//!
//! Every blocking step is bounded: the connect and the handshake by
//! [`CONNECT_TIMEOUT`], every frame write by the socket write timeout
//! ([`REPLY_TIMEOUT`]), and each reply by the deadline its caller passes
//! to [`Conn::request`].

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use actyp_proto::{
    read_server_frame, write_frame, ClientFrame, FrameError, RequestId, ServerFrame,
    MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};

use crate::allocation::AllocationError;
use crate::message::StageAddress;
use crate::shard::{ShardedMap, DEFAULT_SHARDS};

/// How long to wait for the far side to accept the TCP connection, and
/// then for its `HelloAck`.  The ack is computed inline by the daemon's
/// I/O thread — never queued behind backend work — so a slower one means
/// the daemon (or the path to it) is gone, not busy.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a peer daemon's reply to one frame may take before the link is
/// declared dead — generous because a `Delegate` reply includes the peer's
/// whole downstream chain — and the socket write timeout of every
/// connection: a stalled far side with a full receive buffer would
/// otherwise block `write_frame` forever *while holding the writer mutex*,
/// wedging every other request on the connection and the `shutdown` that
/// would tear it down.
pub(crate) const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Why a [`Conn::request`] produced no reply frame.
#[derive(Debug)]
pub(crate) enum ConnError {
    /// The connection is dead (reason attached); every in-flight and
    /// future request fails the same way.
    Dead(String),
    /// No reply arrived within the caller's deadline.  The connection
    /// itself is intact; whether to keep it is the caller's policy.
    Timeout,
    /// The frame was refused before a single byte left (it exceeds a wire
    /// limit), so the stream is still consistent: only this request fails.
    Refused(String),
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Dead(reason) | ConnError::Refused(reason) => f.write_str(reason),
            ConnError::Timeout => f.write_str("no reply within the deadline"),
        }
    }
}

/// One live, multiplexed connection to a daemon, after the hello
/// handshake.
pub(crate) struct Conn {
    writer: Mutex<TcpStream>,
    /// Requests awaiting their reply, by correlation id.  Sharded so
    /// concurrent requesters don't serialise on a single map lock;
    /// correlation ids are sequential, so shards deal round-robin.
    pending: ShardedMap<Sender<ServerFrame>>,
    /// Why the connection died, once it has.
    dead: Mutex<Option<String>>,
    corr: AtomicU64,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Conn {
    /// Dials `addr`, negotiates the protocol version and starts the reader
    /// thread.  Returns the connection and the negotiated version.
    pub(crate) fn dial(addr: &StageAddress) -> Result<(Arc<Conn>, u16), AllocationError> {
        let network = |what: &str, e: &dyn std::fmt::Display| {
            AllocationError::Network(format!("{what} {addr}: {e}"))
        };
        let resolved = (addr.host.as_str(), addr.port)
            .to_socket_addrs()
            .map_err(|e| network("resolve", &e))?;
        let mut connected = Err(network("resolve", &"no addresses"));
        for sock in resolved {
            connected = TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT)
                .map_err(|e| network("connect", &e));
            if connected.is_ok() {
                break;
            }
        }
        let mut stream = connected?;
        let _ = stream.set_nodelay(true);
        // The handshake is the one serial exchange on the stream, bounded
        // by a read timeout; afterwards the reader blocks indefinitely
        // (per-request deadlines live in `request`).  Sends stay bounded
        // for the connection's whole life; a timed-out (possibly partial)
        // send poisons the connection, so no desynchronised stream is
        // ever reused.
        let _ = stream.set_write_timeout(Some(REPLY_TIMEOUT));
        let _ = stream.set_read_timeout(Some(CONNECT_TIMEOUT));
        write_frame(
            &mut stream,
            &ClientFrame::Hello {
                min_version: MIN_SUPPORTED_VERSION,
                max_version: PROTOCOL_VERSION,
            },
        )
        .map_err(|e| network("hello to", &e))?;
        let version = match read_server_frame(&mut stream) {
            Ok(Some(ServerFrame::HelloAck { version })) if version >= MIN_SUPPORTED_VERSION => {
                version
            }
            Ok(Some(ServerFrame::HelloAck { version })) => {
                return Err(AllocationError::Protocol(format!(
                    "server only speaks protocol v{version}"
                )))
            }
            Ok(Some(ServerFrame::HelloReject { message })) => {
                return Err(AllocationError::Protocol(format!(
                    "server rejected the connection: {message}"
                )))
            }
            Ok(Some(other)) => {
                return Err(AllocationError::Protocol(format!(
                    "expected HelloAck, got {other:?}"
                )))
            }
            Ok(None) => return Err(network("handshake with", &"server closed the connection")),
            // The read timeout surfaces as WouldBlock/TimedOut, which says
            // nothing to an operator: name what was actually waited for.
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let silent = format!("no HelloAck within {CONNECT_TIMEOUT:?}");
                return Err(network("handshake with", &silent));
            }
            Err(e) => return Err(network("handshake with", &e)),
        };
        let _ = stream.set_read_timeout(None);
        let read_stream = stream
            .try_clone()
            .map_err(|e| network("clone stream to", &e))?;
        let conn = Arc::new(Conn {
            writer: Mutex::new(stream),
            pending: ShardedMap::new(DEFAULT_SHARDS),
            dead: Mutex::new(None),
            corr: AtomicU64::new(0),
            reader: Mutex::new(None),
        });
        let reader = std::thread::spawn({
            let conn = conn.clone();
            move || conn.run_reader(read_stream)
        });
        *conn.reader.lock() = Some(reader);
        Ok((conn, version))
    }

    /// The reader thread: routes every reply frame to the request whose
    /// correlation id it echoes, and poisons the connection on transport
    /// death so in-flight and future requests fail fast.
    fn run_reader(&self, mut stream: TcpStream) {
        let reason = loop {
            let frame = match read_server_frame(&mut stream) {
                Ok(Some(frame)) => frame,
                Ok(None) => break "server closed the connection".to_string(),
                Err(e) => break e.to_string(),
            };
            let Some(corr) = corr_of(&frame) else {
                break "unexpected handshake frame on an established connection".to_string();
            };
            if let Some(sender) = self.pending.remove(corr.0) {
                let _ = sender.send(frame);
            } else if corr.0 >= self.corr.load(Ordering::Relaxed) {
                // A correlation id this connection never issued: the far
                // side is desynchronised or hostile — fail the whole
                // connection NOW rather than letting every in-flight
                // request ride out its full reply deadline.
                break format!(
                    "reply out of correlation (id {} never issued): {frame:?}",
                    corr.0
                );
            }
            // An *issued* id with no waiter lost its race with a request
            // timeout: dropped silently.
        };
        self.poison(reason);
    }

    /// Records the death reason (the first one wins) and wakes every
    /// in-flight request.  The `dead` lock is held across the `pending`
    /// sweep, and [`Conn::request`] registers under the same guard, so a
    /// request either registers before the sweep (and is woken by it) or
    /// observes the death reason and never blocks — none can slip into an
    /// already-swept shard and hang forever.
    pub(crate) fn poison(&self, reason: String) {
        let mut dead = self.dead.lock();
        dead.get_or_insert(reason);
        self.pending.clear();
    }

    /// Whether the connection has died (reader saw EOF or an error, a
    /// send failed, or it was shut down).
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.lock().is_some()
    }

    fn death_reason(&self) -> String {
        self.dead
            .lock()
            .clone()
            .unwrap_or_else(|| "connection closed".to_string())
    }

    /// Sends one request frame and blocks for the reply carrying the same
    /// correlation id — at most `deadline`, forever when `None`.  Other
    /// threads' requests interleave freely on the connection meanwhile.
    pub(crate) fn request(
        &self,
        deadline: Option<Duration>,
        build: impl FnOnce(RequestId) -> ClientFrame,
    ) -> Result<ServerFrame, ConnError> {
        let corr = RequestId(self.corr.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = unbounded();
        {
            let dead = self.dead.lock();
            if let Some(reason) = &*dead {
                return Err(ConnError::Dead(reason.clone()));
            }
            self.pending.insert(corr.0, tx);
        }
        let sent = {
            let mut writer = self.writer.lock();
            // The writer mutex MUST cover the frame write or concurrent
            // requests interleave half-frames; the socket write timeout
            // set at dial bounds how long a stalled far side can hold it.
            // lint-allow(lock-across-blocking): serialised frame write
            write_frame(&mut *writer, &build(corr))
        };
        if let Err(e) = sent {
            self.pending.remove(corr.0);
            // `write_frame` refuses an over-limit frame with InvalidData
            // *before* sending anything: the stream is still consistent,
            // so only this request fails — every other in-flight one, and
            // every lease the connection holds, survives.
            if e.kind() == std::io::ErrorKind::InvalidData {
                return Err(ConnError::Refused(e.to_string()));
            }
            self.poison(format!("send: {e}"));
            return Err(ConnError::Dead(self.death_reason()));
        }
        let Some(deadline) = deadline else {
            return rx.recv().map_err(|_| ConnError::Dead(self.death_reason()));
        };
        match rx.recv_timeout(deadline) {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => {
                self.pending.remove(corr.0);
                Err(ConnError::Timeout)
            }
            Err(RecvTimeoutError::Disconnected) => Err(ConnError::Dead(self.death_reason())),
        }
    }

    /// Closes the transport and joins the reader thread.  Idempotent.
    pub(crate) fn shutdown(&self) {
        self.poison("connection shut down".to_string());
        {
            let writer = self.writer.lock();
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        let reader = self.reader.lock().take();
        if let Some(reader) = reader {
            let _ = reader.join();
        }
    }
}

/// The correlation id a response frame answers, if any.
fn corr_of(frame: &ServerFrame) -> Option<RequestId> {
    match frame {
        ServerFrame::HelloAck { .. } | ServerFrame::HelloReject { .. } => None,
        ServerFrame::Submitted { corr, .. }
        | ServerFrame::BatchSubmitted { corr, .. }
        | ServerFrame::Outcome { corr, .. }
        | ServerFrame::Pending { corr }
        | ServerFrame::TimedOut { corr }
        | ServerFrame::Released { corr }
        | ServerFrame::StatsReply { corr, .. }
        | ServerFrame::Ack { corr }
        | ServerFrame::Error { corr, .. }
        | ServerFrame::Delegated { corr, .. }
        | ServerFrame::PoolsSynced { corr, .. }
        | ServerFrame::AdvertAck { corr, .. } => Some(*corr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actyp_proto::{read_client_frame, StatsSnapshot, MAX_FRAME_LEN, MAX_SEQUENCE_LEN};
    use crossbeam::channel::{Receiver, Sender};
    use std::net::TcpListener;

    /// A one-connection scripted daemon on loopback: accepts, answers the
    /// hello, then hands the stream to `script`.
    fn dial_scripted(
        script: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (Arc<Conn>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            match read_client_frame(&mut stream).unwrap() {
                Some(ClientFrame::Hello { max_version, .. }) => write_frame(
                    &mut stream,
                    &ServerFrame::HelloAck {
                        version: max_version,
                    },
                )
                .unwrap(),
                other => panic!("expected Hello, got {other:?}"),
            }
            script(stream);
        });
        let (conn, version) = Conn::dial(&StageAddress::new("127.0.0.1", port)).unwrap();
        assert_eq!(version, PROTOCOL_VERSION);
        (conn, server)
    }

    fn next_corr(stream: &mut TcpStream) -> RequestId {
        match read_client_frame(stream).unwrap() {
            Some(ClientFrame::Stats { corr }) => corr,
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    fn reply(stream: &mut TcpStream, corr: RequestId) {
        let stats = StatsSnapshot::default();
        write_frame(stream, &ServerFrame::StatsReply { corr, stats }).unwrap();
    }

    fn stats(deadline: Option<Duration>, conn: &Conn) -> Result<ServerFrame, ConnError> {
        conn.request(deadline, |corr| ClientFrame::Stats { corr })
    }

    #[test]
    fn an_over_limit_frame_fails_only_its_own_request() {
        let (arrived_tx, arrived): (Sender<()>, Receiver<()>) = unbounded();
        let (go, go_rx): (Sender<()>, Receiver<()>) = unbounded();
        let (conn, server) = dial_scripted(move |mut stream| {
            let corr = next_corr(&mut stream);
            arrived_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            reply(&mut stream, corr);
        });
        let in_flight = std::thread::spawn({
            let conn = conn.clone();
            move || stats(None, &conn)
        });
        // The first request is on the far side and unanswered when the
        // over-limit one is attempted on the same connection.
        arrived.recv().unwrap();
        let oversized = vec!["x".repeat(MAX_SEQUENCE_LEN); MAX_FRAME_LEN / MAX_SEQUENCE_LEN + 1];
        let refused = conn.request(Some(REPLY_TIMEOUT), |corr| ClientFrame::SubmitBatch {
            corr,
            queries: oversized,
        });
        assert!(matches!(refused, Err(ConnError::Refused(_))), "{refused:?}");
        assert!(!conn.is_dead(), "a refused frame must not poison the link");
        go.send(()).unwrap();
        let answered = in_flight.join().unwrap();
        assert!(
            matches!(answered, Ok(ServerFrame::StatsReply { .. })),
            "{answered:?}"
        );
        server.join().unwrap();
        conn.shutdown();
    }

    #[test]
    fn a_reply_with_a_never_issued_corr_id_poisons_at_once() {
        let (conn, server) = dial_scripted(|mut stream| {
            let corr = next_corr(&mut stream);
            reply(&mut stream, RequestId(corr.0 + 99));
        });
        let started = std::time::Instant::now();
        match stats(Some(REPLY_TIMEOUT), &conn) {
            Err(ConnError::Dead(reason)) => assert!(reason.contains("never issued"), "{reason}"),
            other => panic!("expected a dead connection, got {other:?}"),
        }
        assert!(
            started.elapsed() < REPLY_TIMEOUT / 2,
            "fast-fail, not a ridden-out reply deadline"
        );
        assert!(conn.is_dead());
        assert!(matches!(stats(None, &conn), Err(ConnError::Dead(_))));
        server.join().unwrap();
        conn.shutdown();
    }

    #[test]
    fn a_timed_out_requests_late_reply_is_dropped_and_the_connection_survives() {
        let (go, go_rx): (Sender<()>, Receiver<()>) = unbounded();
        let (conn, server) = dial_scripted(move |mut stream| {
            let late = next_corr(&mut stream);
            go_rx.recv().unwrap();
            reply(&mut stream, late);
            let next = next_corr(&mut stream);
            reply(&mut stream, next);
            // Hold the stream open until the client has looked at it.
            let _ = go_rx.recv();
        });
        let timed_out = stats(Some(Duration::from_millis(50)), &conn);
        assert!(
            matches!(timed_out, Err(ConnError::Timeout)),
            "{timed_out:?}"
        );
        // Only now does the far side answer the abandoned request, then
        // serve the next one: the late reply must neither poison the
        // connection nor be mistaken for the new request's answer.
        go.send(()).unwrap();
        let answered = stats(Some(REPLY_TIMEOUT), &conn);
        assert!(
            matches!(answered, Ok(ServerFrame::StatsReply { .. })),
            "{answered:?}"
        );
        assert!(!conn.is_dead());
        drop(go);
        server.join().unwrap();
        conn.shutdown();
    }
}
