//! The correlated connection: the one dialing-side implementation of the
//! wire protocol's transport, under both [`crate::client::RemoteBackend`]
//! (client → daemon) and the federation's peer links (daemon → daemon).
//!
//! [`Conn::dial`] connects and performs the `Hello`/`HelloAck` version
//! negotiation.  Afterwards any number of threads share the connection
//! *concurrently* — several tickets, delegation chains or releases in
//! flight on one socket, each reply routed to its request by
//! [`RequestId`] — and there is no reader thread: the thread that wants a
//! reply reads it.  Requests meet in a leader/follower [`Relay`].  Whoever
//! finds nobody reading becomes the leader and reads frames off the socket
//! itself, posting other requests' replies into their inboxes as they
//! arrive, until its own arrives; leaving, it hands the read side to one
//! of the requests still waiting.  The rest sleep on their own inbox,
//! never on the read side, so a leader parked on a slow reply never holds
//! back one that already arrived.  It is still one TCP session, so
//! everything the far side leases to this connection stays leased to it.
//!
//! A request need not be waited for the moment it is sent:
//! [`Conn::submit`] registers an *idle* inbox, writes the frame and
//! returns, and a leader posts the reply there whenever it reads it.  The
//! owner comes for it later with [`Conn::collect`], and only then leads or
//! follows.  A leaving leader never promotes an idle inbox — its owner may
//! not come for a long time — so the read side always passes to a request
//! somebody is waiting on.
//!
//! Every blocking step is bounded: the connect and the handshake by
//! [`CONNECT_TIMEOUT`], every frame write by the socket write timeout
//! ([`REPLY_TIMEOUT`]), and each reply by the deadline its caller passes
//! to [`Conn::request`] or [`Conn::collect`].
//!
//! A federation peer link is built differently: the reactor dials it, and
//! its connection is born attached ([`Conn::attached`]) to the session of
//! kind *peer* that carries the socket.  That session reads every reply —
//! no requester ever holds the read side — and writes go through its
//! non-blocking write queue ([`FrameSink`]).  A request on it never blocks:
//! [`Conn::request_with`] registers a *completion* instead of an inbox, and
//! the I/O thread that reads the reply runs it.

use std::collections::HashMap;
use std::io::Read;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use actyp_proto::{
    split_frame, write_frame, ClientFrame, RequestId, ServerFrame, WireDecode,
    MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};

use crate::allocation::AllocationError;
use crate::message::StageAddress;

/// Shards of a connection's pending table, so that concurrent requesters
/// on one connection don't serialise on one lock.
const PENDING_SHARDS: usize = 8;

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

/// How long a completion ([`Conn::request_with`]) waits for its reply
/// before it fails and its link is retired, as [`REPLY_TIMEOUT`] does for a
/// blocking request.  Shortened under `cfg(test)`, so the test of a peer
/// that never answers finishes in seconds.
#[cfg(not(test))]
pub(crate) const COMPLETION_TIMEOUT: Duration = REPLY_TIMEOUT;
#[cfg(test)]
pub(crate) const COMPLETION_TIMEOUT: Duration = Duration::from_secs(3);

/// Upper bound on a connection's submissions whose reply nobody has
/// collected yet ([`Conn::submit`]).  Dropping a ticket frees nothing — its
/// reply waits on the connection until it is redeemed — so past this bound
/// a submission is refused before its frame leaves, and a client that never
/// redeems holds a bounded number of replies.
pub(crate) const MAX_UNCOLLECTED: usize = 1024;

/// Where an attached connection's frames go: the write queue of the reactor
/// session that took its socket over.
pub(crate) trait FrameSink: Send + Sync {
    /// Encodes `frame` and sends it, or queues what the socket does not
    /// take; never blocks.  `InvalidData` refuses an over-limit frame
    /// before anything was queued; any other error means the session is
    /// closed.
    fn push_frame(&self, frame: &ClientFrame) -> std::io::Result<()>;

    /// Shuts the session's socket: its I/O thread sees the hang-up and
    /// retires the session.
    fn close(&self);
}

/// A request nobody blocks on: it runs with the reply, or with why none
/// came, on whichever thread takes its entry out of the pending table — the
/// one that reads the reply, or the one that poisons the connection.  The
/// relay invokes each completion exactly once (`model_tests` proves it).
type Completion<F> = Arc<dyn Fn(Result<F, ConnError>) + Send + Sync>;

/// A one-shot reply handler as a [`Completion`].
fn completion<F: 'static>(
    done: impl FnOnce(Result<F, ConnError>) + Send + 'static,
) -> Completion<F> {
    let once = Mutex::new(Some(done));
    Arc::new(move |reply| {
        let done = once.lock().take();
        if let Some(done) = done {
            done(reply);
        }
    })
}

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

/// Where a connection's frames go.
enum Out {
    /// The blocking write half of a dialed connection, whose requesters
    /// read the socket themselves.
    Socket(Mutex<TcpStream>),
    /// The write queue of the reactor session a peer link is born attached
    /// to; the session reads every reply.
    Session(Arc<dyn FrameSink>),
}

/// One live, multiplexed connection to a daemon, after the hello
/// handshake.
pub(crate) struct Conn {
    out: Out,
    relay: Relay<StdPrims, ServerFrame, ReadState>,
    /// Inboxes of the requests sent with [`Conn::submit`] whose reply
    /// nobody has collected yet, by correlation id.
    uncollected: Mutex<HashMap<u64, Arc<Slot<StdPrims, ServerFrame>>>>,
}

impl Conn {
    /// Dials `addr` and negotiates the protocol version.  Returns the
    /// connection and the negotiated version.
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
        // Sends stay bounded for the connection's whole life; a timed-out
        // (possibly partial) send poisons the connection, so no
        // desynchronised stream is ever reused.  Reads are bounded per
        // request instead, by the reading thread's own deadline.
        let _ = stream.set_write_timeout(Some(REPLY_TIMEOUT));
        write_frame(
            &mut stream,
            &ClientFrame::Hello {
                min_version: MIN_SUPPORTED_VERSION,
                max_version: PROTOCOL_VERSION,
            },
        )
        .map_err(|e| network("hello to", &e))?;
        let mut reader = ReadState::new(
            stream
                .try_clone()
                .map_err(|e| network("clone stream to", &e))?,
        );
        let version = match reader.next(Some(Instant::now() + CONNECT_TIMEOUT)) {
            Ok(ServerFrame::HelloAck { version }) if version >= MIN_SUPPORTED_VERSION => version,
            Ok(ServerFrame::HelloAck { version }) => {
                return Err(AllocationError::Protocol(format!(
                    "server only speaks protocol v{version}"
                )))
            }
            Ok(ServerFrame::HelloReject { message }) => {
                return Err(AllocationError::Protocol(format!(
                    "server rejected the connection: {message}"
                )))
            }
            Ok(other) => {
                return Err(AllocationError::Protocol(format!(
                    "expected HelloAck, got {other:?}"
                )))
            }
            Err(ReadError::TimedOut) => {
                let silent = format!("no HelloAck within {CONNECT_TIMEOUT:?}");
                return Err(network("handshake with", &silent));
            }
            Err(ReadError::Closed(reason)) => return Err(network("handshake with", &reason)),
        };
        let conn = Arc::new(Conn {
            out: Out::Socket(Mutex::new(stream)),
            relay: Relay::new(Some(reader), PENDING_SHARDS),
            uncollected: Mutex::new(HashMap::new()),
        });
        Ok((conn, version))
    }

    /// A peer link's connection, born attached to the reactor session that
    /// dialed it: every frame goes out through `sink`, and the session
    /// routes every reply ([`Conn::route`]) — nobody else ever reads.
    pub(crate) fn attached(sink: Arc<dyn FrameSink>) -> Arc<Conn> {
        Arc::new(Conn {
            out: Out::Session(sink),
            relay: Relay::new(None, PENDING_SHARDS),
            uncollected: Mutex::new(HashMap::new()),
        })
    }

    /// Whether the connection has died: a read saw EOF or an error, a send
    /// failed, or it was shut down.  With nobody reading, whatever already
    /// arrived is read first (without blocking), so a far side that hung
    /// up on an idle connection is noticed here — there is no reader
    /// thread to notice it.  (An attached connection's session reads all
    /// the time, so there it is only a look at the death reason.)
    pub(crate) fn is_dead(&self) -> bool {
        if self.relay.death().is_none() {
            self.relay.read_idle();
        }
        self.relay.death().is_some()
    }

    /// Writes one frame: through the session's queue once attached (never
    /// blocking), straight to the socket before.
    fn send(&self, frame: &ClientFrame) -> std::io::Result<()> {
        let writer = match &self.out {
            Out::Session(sink) => return sink.push_frame(frame),
            Out::Socket(writer) => writer,
        };
        let mut writer = writer.lock();
        // The writer mutex MUST cover the frame write or concurrent
        // requests interleave half-frames; the socket write timeout set at
        // dial bounds how long a stalled far side can hold it.
        // lint-allow(lock-across-blocking): serialised frame write
        write_frame(&mut *writer, frame)
    }

    /// What a failed [`Conn::send`] means: an over-limit frame was refused
    /// before a byte left — the stream is still consistent, so only this
    /// request fails, and every other in-flight one and every lease the
    /// connection holds survives — anything else kills the connection.
    fn send_failed(&self, e: std::io::Error) -> ConnError {
        if e.kind() == std::io::ErrorKind::InvalidData {
            ConnError::Refused(e.to_string())
        } else {
            self.relay.poison(format!("send: {e}"))
        }
    }

    /// Sends one request frame and blocks for the reply carrying the same
    /// correlation id — at most `deadline`, forever when `None`.  Other
    /// threads' requests interleave freely on the connection meanwhile.
    pub(crate) fn request(
        &self,
        deadline: Option<Duration>,
        build: impl FnOnce(RequestId) -> ClientFrame,
    ) -> Result<ServerFrame, ConnError> {
        let deadline = deadline.map(|limit| Instant::now() + limit);
        let (corr, slot) = self.relay.register().map_err(ConnError::Dead)?;
        if let Err(e) = self.send(&build(RequestId(corr))) {
            let _ = self.relay.give_up(corr, &slot);
            return Err(self.send_failed(e));
        }
        self.relay
            .await_reply(corr, &slot, deadline, OnTimeout::GiveUp)
    }

    /// Sends one request frame and returns its correlation id at once,
    /// without waiting for the reply: that is posted into an idle inbox
    /// whenever a leader reads it, and waits there for [`Conn::collect`].
    /// Refused while [`MAX_UNCOLLECTED`] replies await collection (checked
    /// before the frame is written, so concurrent submitters may each pass
    /// it once).
    pub(crate) fn submit(
        &self,
        build: impl FnOnce(RequestId) -> ClientFrame,
    ) -> Result<u64, ConnError> {
        let (corr, slot) = self.relay.register_idle().map_err(ConnError::Dead)?;
        if self.uncollected.lock().len() >= MAX_UNCOLLECTED {
            let _ = self.relay.give_up(corr, &slot);
            return Err(ConnError::Refused(format!(
                "{MAX_UNCOLLECTED} submissions on this connection await collection; \
                 redeem tickets before submitting more"
            )));
        }
        if let Err(e) = self.send(&build(RequestId(corr))) {
            let _ = self.relay.give_up(corr, &slot);
            return Err(self.send_failed(e));
        }
        self.uncollected.lock().insert(corr, slot);
        Ok(corr)
    }

    /// Collects the reply to the [`Conn::submit`] that issued `corr`,
    /// waiting for it at most `deadline` (forever when `None`) — leading
    /// or following on the socket as [`Conn::request`] does.  A deadline
    /// that passes leaves the reply collectable.  `None` when `corr` names
    /// no uncollected submission.
    pub(crate) fn collect(
        &self,
        corr: u64,
        deadline: Option<Duration>,
    ) -> Option<Result<ServerFrame, ConnError>> {
        // Out of the table while this thread waits for it: a second
        // collector of the same request finds nothing.
        let slot = self.uncollected.lock().remove(&corr)?;
        let deadline = deadline.map(|limit| Instant::now() + limit);
        let reply = self.relay.collect(corr, &slot, deadline);
        if matches!(reply, Err(ConnError::Timeout)) {
            self.uncollected.lock().insert(corr, slot);
        }
        Some(reply)
    }

    /// Sends one request frame on an attached connection and returns at
    /// once: `done` runs with the reply on the session's I/O thread — or
    /// with the connection's death, on whichever thread poisons it, at the
    /// latest `limit` from now (a missed deadline kills the connection).
    /// Never blocks.
    pub(crate) fn request_with(
        &self,
        limit: Duration,
        build: impl FnOnce(RequestId) -> ClientFrame,
        done: impl FnOnce(Result<ServerFrame, ConnError>) + Send + 'static,
    ) {
        let done = completion(done);
        if let Out::Socket(_) = self.out {
            // Nobody would ever read the reply.
            return done(Err(ConnError::Dead(
                "connection is not attached to a reactor session".to_string(),
            )));
        }
        let deadline = Instant::now() + limit;
        let corr = match self.relay.register_completion(done.clone(), deadline) {
            Ok(corr) => corr,
            Err(reason) => return done(Err(ConnError::Dead(reason))),
        };
        if let Err(e) = self.send(&build(RequestId(corr))) {
            let failed = self.send_failed(e);
            // Whoever takes the entry out runs it: here — unless the
            // poison that the failure caused already did.
            if self.relay.take_pending(corr).is_some() {
                done(Err(failed));
            }
        }
    }

    /// Routes one reply the attached session read: into a blocked
    /// requester's inbox, or to a completion run right here.  `Err` when
    /// the frame poisoned the connection (no request of this connection
    /// carries its correlation id).
    pub(crate) fn route(&self, frame: ServerFrame) -> Result<(), ConnError> {
        self.relay.route(frame, None).map(|_| ())
    }

    /// Kills the connection for `reason`: every blocked requester wakes
    /// with it, and every pending completion runs with it.  Idempotent.
    pub(crate) fn poison(&self, reason: String) {
        self.relay.poison(reason);
    }

    /// Poisons the connection if a completion has waited past its deadline
    /// at `now` — the peer is declared dead, as a blocking request's missed
    /// reply deadline declares it.  `true` when it did.
    pub(crate) fn expire(&self, now: Instant) -> bool {
        self.relay.expire(now)
    }

    /// Closes the transport.  A leader blocked in a read sees the EOF and
    /// returns, an attached session sees the hang-up and retires;
    /// everybody else is failed by the poison.  Idempotent.
    pub(crate) fn shutdown(&self) {
        self.relay.poison("connection shut down".to_string());
        match &self.out {
            Out::Socket(writer) => {
                let _ = writer.lock().shutdown(std::net::Shutdown::Both);
            }
            Out::Session(sink) => sink.close(),
        }
    }
}

impl Framed for ServerFrame {
    fn corr(&self) -> Option<u64> {
        match self {
            ServerFrame::HelloAck { .. } | ServerFrame::HelloReject { .. } => None,
            ServerFrame::Submitted { corr, .. }
            | ServerFrame::Outcome { corr, .. }
            | ServerFrame::Released { corr }
            | ServerFrame::StatsReply { corr, .. }
            | ServerFrame::Ack { corr }
            | ServerFrame::Error { corr, .. }
            | ServerFrame::Delegated { corr, .. }
            | ServerFrame::PoolsSynced { corr, .. }
            | ServerFrame::AdvertAck { corr, .. } => Some(corr.0),
        }
    }
}

// ---------------------------------------------------------------------------
// The read side
// ---------------------------------------------------------------------------

/// First size of a connection's read buffer; it doubles for a larger
/// frame and returns to this size once such a frame is consumed.
const READ_CHUNK: usize = 4 * 1024;

/// The read half of a connection and whatever was read off it that does
/// not form a whole frame yet.  It is the [`Relay`]'s baton — only the
/// leader holds it — so a leader whose deadline passes mid-frame leaves
/// the partial frame here for the next one and the stream stays in sync.
struct ReadState {
    stream: TcpStream,
    buf: Vec<u8>,
    /// `buf[start..end]` holds the bytes not parsed yet.
    start: usize,
    end: usize,
}

impl ReadState {
    fn new(stream: TcpStream) -> Self {
        ReadState {
            stream,
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
        }
    }

    /// Makes room behind `end` for another read: unparsed bytes move to
    /// the front, and a buffer that is full of one frame doubles.
    fn make_room(&mut self) {
        if self.end < self.buf.len() {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
    }
}

impl Source<ServerFrame> for ReadState {
    fn next(&mut self, deadline: Option<Instant>) -> Result<ServerFrame, ReadError> {
        let broken = |e: std::io::Error| ReadError::Closed(format!("transport error: {e}"));
        loop {
            match split_frame(&self.buf[self.start..self.end]) {
                Ok(Some((body, used))) => {
                    let frame = ServerFrame::from_wire_bytes(body);
                    self.start += used;
                    if self.start == self.end {
                        (self.start, self.end) = (0, 0);
                        if self.buf.len() > READ_CHUNK {
                            self.buf = vec![0; READ_CHUNK];
                        }
                    }
                    return frame
                        .map_err(|e| ReadError::Closed(format!("frame decode error: {e}")));
                }
                Ok(None) => {}
                Err(e) => return Err(ReadError::Closed(format!("frame decode error: {e}"))),
            }
            if let Some(deadline) = deadline {
                let left = deadline.saturating_duration_since(Instant::now());
                match readable(&self.stream, left) {
                    Ok(true) => {}
                    Ok(false) if left.is_zero() || Instant::now() >= deadline => {
                        return Err(ReadError::TimedOut)
                    }
                    Ok(false) => continue,
                    Err(e) => return Err(broken(e)),
                }
            }
            self.make_room();
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(ReadError::Closed(
                        "server closed the connection".to_string(),
                    ))
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(broken(e)),
            }
        }
    }
}

/// Waits up to `timeout` for `stream` to have something to read.
#[cfg(unix)]
fn readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;
    crate::reactor::wait_readable(stream.as_raw_fd(), timeout)
}

/// Waits up to `timeout` for `stream` to have something to read (no
/// `poll(2)` binding off unix: a peek under a read timeout).
#[cfg(not(unix))]
fn readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    stream.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
    let peeked = stream.peek(&mut [0u8; 1]);
    stream.set_read_timeout(None)?;
    match peeked {
        Ok(_) => Ok(true),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// The leader/follower relay
// ---------------------------------------------------------------------------

/// A value behind a lock, with a condition variable for whoever waits on
/// it — the one primitive the [`Relay`] is built from.
trait Monitor<T>: Send + Sync {
    type Guard<'a>: std::ops::DerefMut<Target = T>
    where
        Self: 'a;
    fn new(value: T) -> Self;
    fn lock(&self) -> Self::Guard<'_>;
    /// Releases `guard` until notified or `deadline` (never, when `None`),
    /// then relocks.  `true` when it returned because the deadline passed.
    fn wait<'a>(
        &'a self,
        guard: Self::Guard<'a>,
        deadline: Option<Instant>,
    ) -> (Self::Guard<'a>, bool);
    fn notify_all(&self);
}

/// A family of [`Monitor`]s: `std::sync` for the daemon ([`StdPrims`]),
/// `actyp-model`'s for the proof (`model_tests` below), so the proof runs
/// this file's hand-off code and not a copy of it.
trait Prims: 'static {
    type Monitor<T: Send>: Monitor<T>;
}

/// [`Monitor`] over `std::sync`.
struct StdMonitor<T> {
    value: std::sync::Mutex<T>,
    changed: std::sync::Condvar,
}

impl<T: Send> Monitor<T> for StdMonitor<T> {
    type Guard<'a>
        = std::sync::MutexGuard<'a, T>
    where
        T: 'a;

    fn new(value: T) -> Self {
        StdMonitor {
            value: std::sync::Mutex::new(value),
            changed: std::sync::Condvar::new(),
        }
    }

    fn lock(&self) -> Self::Guard<'_> {
        self.value
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn wait<'a>(
        &'a self,
        guard: Self::Guard<'a>,
        deadline: Option<Instant>,
    ) -> (Self::Guard<'a>, bool) {
        let Some(deadline) = deadline else {
            let guard = self
                .changed
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            return (guard, false);
        };
        let now = Instant::now();
        if now >= deadline {
            return (guard, true);
        }
        let (guard, _) = self
            .changed
            .wait_timeout(guard, deadline - now)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (guard, Instant::now() >= deadline)
    }

    fn notify_all(&self) {
        self.changed.notify_all();
    }
}

/// The daemon's [`Prims`].
struct StdPrims;

impl Prims for StdPrims {
    type Monitor<T: Send> = StdMonitor<T>;
}

/// A reply frame: which request it answers, if any.
trait Framed: Send + std::fmt::Debug {
    fn corr(&self) -> Option<u64>;
}

/// Why a [`Source`] yielded no frame.
enum ReadError {
    /// The deadline passed first; the source is intact.
    TimedOut,
    /// The stream ended or broke (reason attached).
    Closed(String),
}

/// Where a leader reads frames from: the socket in the daemon, a queue in
/// the proof.
trait Source<F>: Send {
    /// The next frame, blocking until `deadline` (forever, when `None`).
    fn next(&mut self, deadline: Option<Instant>) -> Result<F, ReadError>;
}

/// Where one registered request stands.
enum Inbox<F> {
    /// Nothing yet, and nobody waits for it: a submission whose owner
    /// collects the reply later.  Never promoted.
    Idle,
    /// Nothing yet; the owner sleeps on it (or is about to).
    Waiting,
    /// The read side was handed back and the owner is asked to take it.
    Promoted,
    /// The reply, posted by a leader.
    Ready(F),
    /// The connection died.
    Closed,
}

/// The inbox of one registered request.
struct Slot<P: Prims, F: Send> {
    inbox: P::Monitor<Inbox<F>>,
}

/// One registered request.
enum Entry<P: Prims, F: Send> {
    /// A requester that sleeps on its inbox (or leads).
    Waiter(Arc<Slot<P, F>>),
    /// A request nobody waits for, and the instant its link gives up on
    /// the reply.
    Completion(Completion<F>, Instant),
}

/// One shard of a relay's registered requests, by correlation id.
type Shard<P, F> = <P as Prims>::Monitor<HashMap<u64, Entry<P, F>>>;

/// What a request whose deadline passes does with its entry.
#[derive(Clone, Copy)]
enum OnTimeout {
    /// Leaves the table ([`Relay::give_up`]): a late reply is dropped.
    GiveUp,
    /// Stays, idle again ([`Relay::set_aside`]): a submission being
    /// collected can be collected later.
    SetAside,
}

/// The leader/follower protocol under a [`Conn`]: which request reads the
/// stream, where the frames it reads go, and who reads next.
///
/// * register: a request's entry enters `pending` *before* its frame is
///   sent, under the `dead` guard (so a request either registers before a
///   poison's sweep, and is woken or run by it, or sees the death and
///   never waits).
/// * lead: a request that finds the baton — the [`Source`] in `reader` —
///   takes it and reads, routing every other reply, until its own reply
///   arrives, its deadline passes or the stream dies.  An attached
///   connection's reactor session takes the baton once and never hands it
///   back: it is the leader for the connection's whole life.
/// * route: a reply leaves the table first; then it goes into its owner's
///   inbox, or — for a completion — the routing thread runs it.  Whoever
///   takes an entry out (the router, a poison's sweep, a requester giving
///   up) is the only one to act on it, so a completion runs exactly once.
/// * follow: a request that finds the baton taken sleeps on its own inbox
///   until a reply or a promotion lands there.
/// * hand back: a leader leaving returns the baton, **then** promotes one
///   waiting inbox.  A follower registered before it found the baton
///   taken, so the look that follows the return finds it.
/// * idle: a submission registers idle and is never promoted; a reply
///   routed to it waits in its inbox.  Its owner makes it waiting when it
///   comes to collect ([`Relay::collect`]) and then leads or follows like
///   any request; a deadline that passes makes it idle again, passing on
///   any promotion it was offered meanwhile.
///
/// Generic over its primitives and its source so that the daemon
/// ([`StdPrims`] + the socket) and the model checker run this very code.
struct Relay<P: Prims, F: Send, S: Send> {
    /// Why the connection died, once it has.
    dead: P::Monitor<Option<String>>,
    /// Registered requests by correlation id, sharded so concurrent
    /// requesters don't serialise on one lock; ids are sequential, so
    /// shards deal round-robin.
    pending: Box<[Shard<P, F>]>,
    /// The baton: the read side, present while nobody leads.
    reader: P::Monitor<Option<S>>,
    /// Correlation ids issued so far.
    issued: AtomicU64,
}

impl<P: Prims, F: Framed, S: Source<F>> Relay<P, F, S> {
    /// A relay whose requesters lead on `source`, or — without one, for a
    /// connection born attached — whose every reply its session routes.
    fn new(source: Option<S>, shards: usize) -> Self {
        Relay {
            dead: Monitor::new(None),
            pending: (0..shards.max(1))
                .map(|_| Monitor::new(HashMap::new()))
                .collect(),
            reader: Monitor::new(source),
            issued: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, corr: u64) -> &Shard<P, F> {
        &self.pending[(corr % self.pending.len() as u64) as usize]
    }

    fn take_pending(&self, corr: u64) -> Option<Entry<P, F>> {
        let shard = self.shard_for(corr);
        shard.lock().remove(&corr)
    }

    /// Issues a correlation id and enters `entry` under it; `Err` carries
    /// the death reason of a connection that already died.
    fn enter(&self, entry: impl FnOnce() -> Entry<P, F>) -> Result<u64, String> {
        let corr = self.issued.fetch_add(1, Ordering::Relaxed);
        let dead = self.dead.lock();
        if let Some(reason) = &*dead {
            return Err(reason.clone());
        }
        let shard = self.shard_for(corr);
        shard.lock().insert(corr, entry());
        drop(dead);
        Ok(corr)
    }

    /// Issues a correlation id and registers its inbox, waiting.
    fn register(&self) -> Result<(u64, Arc<Slot<P, F>>), String> {
        self.register_as(Inbox::Waiting)
    }

    /// Issues a correlation id and registers its inbox idle: a submission
    /// whose reply is collected later ([`Relay::collect`]).
    fn register_idle(&self) -> Result<(u64, Arc<Slot<P, F>>), String> {
        self.register_as(Inbox::Idle)
    }

    fn register_as(&self, inbox: Inbox<F>) -> Result<(u64, Arc<Slot<P, F>>), String> {
        let slot = Arc::new(Slot {
            inbox: Monitor::new(inbox),
        });
        let corr = self.enter(|| Entry::Waiter(slot.clone()))?;
        Ok((corr, slot))
    }

    /// Issues a correlation id and registers a completion that gives up on
    /// its reply at `deadline` ([`Relay::expire`]).
    fn register_completion(&self, done: Completion<F>, deadline: Instant) -> Result<u64, String> {
        self.enter(|| Entry::Completion(done, deadline))
    }

    /// Why the connection died, if it has.
    fn death(&self) -> Option<String> {
        self.dead.lock().clone()
    }

    fn dead_error(&self) -> ConnError {
        ConnError::Dead(
            self.death()
                .unwrap_or_else(|| "connection closed".to_string()),
        )
    }

    /// Records the death reason (the first one wins), closes every
    /// registered inbox, waking its owner, and runs every registered
    /// completion with the death.  The `dead` guard is held across the
    /// sweep, and [`Relay::enter`] registers under it, so no request slips
    /// into an already-swept shard and waits forever.  The completions run
    /// after the guard is gone: one may go on to another connection.
    fn poison(&self, reason: String) -> ConnError {
        let mut orphans = Vec::new();
        let reason = {
            let mut dead = self.dead.lock();
            let reason = dead.get_or_insert(reason).clone();
            for shard in self.pending.iter() {
                let swept: Vec<Entry<P, F>> = shard.lock().drain().map(|(_, e)| e).collect();
                for entry in swept {
                    match entry {
                        Entry::Waiter(slot) => {
                            *slot.inbox.lock() = Inbox::Closed;
                            slot.inbox.notify_all();
                        }
                        Entry::Completion(done, _) => orphans.push(done),
                    }
                }
            }
            reason
        };
        for done in orphans {
            done(Err(ConnError::Dead(reason.clone())));
        }
        ConnError::Dead(reason)
    }

    /// Poisons the connection when a completion has waited past its
    /// deadline at `now`; `true` when one had.
    fn expire(&self, now: Instant) -> bool {
        let overdue = self.pending.iter().any(|shard| {
            shard
                .lock()
                .values()
                .any(|entry| matches!(entry, Entry::Completion(_, deadline) if *deadline <= now))
        });
        if overdue {
            self.poison("no reply from the peer by the request's deadline".to_string());
        }
        overdue
    }

    /// Waits for the reply to `corr`, leading while nobody else reads and
    /// following otherwise; `on_timeout` says what becomes of the entry if
    /// the deadline passes first.
    fn await_reply(
        &self,
        corr: u64,
        slot: &Slot<P, F>,
        deadline: Option<Instant>,
        on_timeout: OnTimeout,
    ) -> Result<F, ConnError> {
        loop {
            let source = self.reader.lock().take();
            if let Some(mut source) = source {
                let led = self.lead(&mut source, Some((corr, slot, on_timeout)), deadline);
                self.hand_back(source);
                return led;
            }
            let mut inbox = slot.inbox.lock();
            // `Waiting` out of this loop means the deadline passed with
            // nothing in the inbox.
            let woken = loop {
                match std::mem::replace(&mut *inbox, Inbox::Waiting) {
                    Inbox::Waiting | Inbox::Idle => {
                        let (relocked, timed_out) = slot.inbox.wait(inbox, deadline);
                        inbox = relocked;
                        if timed_out && matches!(*inbox, Inbox::Waiting) {
                            break Inbox::Waiting;
                        }
                    }
                    Inbox::Closed => {
                        *inbox = Inbox::Closed;
                        break Inbox::Closed;
                    }
                    posted => break posted,
                }
            };
            drop(inbox);
            match woken {
                Inbox::Waiting | Inbox::Idle => {
                    return match on_timeout {
                        OnTimeout::GiveUp => self.give_up(corr, slot),
                        OnTimeout::SetAside => self.set_aside(slot),
                    }
                }
                // Offered the baton: try to take it.
                Inbox::Promoted => {}
                Inbox::Ready(frame) => return Ok(frame),
                Inbox::Closed => return Err(self.dead_error()),
            }
        }
    }

    /// Waits for the reply to a submission registered idle, at most until
    /// `deadline`: the inbox turns waiting — from now on a leaving leader
    /// may promote it — and the owner leads or follows as any request
    /// does.  A deadline that passes sets it aside again instead of giving
    /// it up, so it can be collected later.
    fn collect(
        &self,
        corr: u64,
        slot: &Slot<P, F>,
        deadline: Option<Instant>,
    ) -> Result<F, ConnError> {
        let mut inbox = slot.inbox.lock();
        match std::mem::replace(&mut *inbox, Inbox::Waiting) {
            Inbox::Ready(frame) => return Ok(frame),
            Inbox::Closed => {
                *inbox = Inbox::Closed;
                drop(inbox);
                return Err(self.dead_error());
            }
            Inbox::Idle | Inbox::Waiting | Inbox::Promoted => {}
        }
        drop(inbox);
        self.await_reply(corr, slot, deadline, OnTimeout::SetAside)
    }

    /// A request leaving without a reply (its deadline passed, its frame
    /// was refused): the inbox leaves the table, and a promotion it was
    /// offered meanwhile is passed on — or a reply posted just now is
    /// taken after all.
    fn give_up(&self, corr: u64, slot: &Slot<P, F>) -> Result<F, ConnError> {
        self.take_pending(corr);
        let last = std::mem::replace(&mut *slot.inbox.lock(), Inbox::Closed);
        match last {
            Inbox::Ready(frame) => Ok(frame),
            Inbox::Closed => Err(self.dead_error()),
            Inbox::Promoted => {
                self.promote_one();
                Err(ConnError::Timeout)
            }
            Inbox::Waiting | Inbox::Idle => Err(ConnError::Timeout),
        }
    }

    /// A submission's collector leaving without the reply (its deadline
    /// passed): the inbox stays in the table, idle again, and a promotion
    /// it was offered meanwhile is passed on — or a reply posted just now
    /// is taken after all.
    fn set_aside(&self, slot: &Slot<P, F>) -> Result<F, ConnError> {
        let mut inbox = slot.inbox.lock();
        match std::mem::replace(&mut *inbox, Inbox::Idle) {
            Inbox::Ready(frame) => Ok(frame),
            Inbox::Closed => {
                *inbox = Inbox::Closed;
                drop(inbox);
                Err(self.dead_error())
            }
            Inbox::Promoted => {
                drop(inbox);
                self.promote_one();
                Err(ConnError::Timeout)
            }
            Inbox::Waiting | Inbox::Idle => Err(ConnError::Timeout),
        }
    }

    /// Reads frames while holding the baton: until `own`'s reply arrives
    /// (or was posted before this thread took the baton), the deadline
    /// passes, or the stream dies.  Without `own` — [`Relay::read_idle`] —
    /// it routes what it reads until the deadline.
    fn lead(
        &self,
        source: &mut S,
        own: Option<(u64, &Slot<P, F>, OnTimeout)>,
        deadline: Option<Instant>,
    ) -> Result<F, ConnError> {
        loop {
            if let Some((_, slot, _)) = own {
                let posted = std::mem::replace(&mut *slot.inbox.lock(), Inbox::Waiting);
                match posted {
                    Inbox::Ready(frame) => return Ok(frame),
                    Inbox::Closed => return Err(self.dead_error()),
                    Inbox::Waiting | Inbox::Promoted | Inbox::Idle => {}
                }
            }
            let frame = match source.next(deadline) {
                // Out of the table, or idle again, before the baton goes
                // back, so the promotion that follows is not wasted on it.
                Err(ReadError::TimedOut) => {
                    return match own {
                        Some((corr, _, OnTimeout::GiveUp)) => {
                            self.take_pending(corr);
                            Err(ConnError::Timeout)
                        }
                        Some((_, slot, OnTimeout::SetAside)) => self.set_aside(slot),
                        None => Err(ConnError::Timeout),
                    };
                }
                Ok(frame) => frame,
                Err(ReadError::Closed(reason)) => return Err(self.poison(reason)),
            };
            if let Some(frame) = self.route(frame, own.map(|(corr, _, _)| corr))? {
                return Ok(frame);
            }
        }
    }

    /// Routes one frame the baton holder read.  Its entry leaves the table
    /// first; then the reply goes into its owner's inbox — or back to the
    /// caller (`Some`) when it is the caller's own, `own` — or, for a
    /// completion, runs it on this thread.  `Err` when the frame poisoned
    /// the connection.
    fn route(&self, frame: F, own: Option<u64>) -> Result<Option<F>, ConnError> {
        let Some(corr) = frame.corr() else {
            return Err(
                self.poison("unexpected handshake frame on an established connection".to_string())
            );
        };
        #[cfg(feature = "buggy-completion")]
        let frame = match self.run_in_place(corr, frame) {
            Some(frame) => frame,
            None => return Ok(None),
        };
        match self.take_pending(corr) {
            Some(Entry::Waiter(_)) if own == Some(corr) => return Ok(Some(frame)),
            Some(Entry::Waiter(owner)) => {
                *owner.inbox.lock() = Inbox::Ready(frame);
                owner.inbox.notify_all();
            }
            Some(Entry::Completion(done, _)) => done(Ok(frame)),
            // A correlation id this connection never issued: the far side
            // is desynchronised or hostile — fail the whole connection NOW
            // rather than letting every in-flight request ride out its full
            // reply deadline.
            None if corr >= self.issued.load(Ordering::Relaxed) => {
                return Err(self.poison(format!(
                    "reply out of correlation (id {corr} never issued): {frame:?}"
                )));
            }
            // An *issued* id with no entry lost its race with a request
            // deadline: dropped silently.
            None => {}
        }
        Ok(None)
    }

    /// The bug the routing order exists to prevent, kept for the model
    /// checker to re-find: a completion runs while its entry is still in
    /// the table, and leaves it only afterwards — so a poison sweeping the
    /// table meanwhile runs it a second time.  Hands the frame back when
    /// it is not a completion's reply.
    #[cfg(feature = "buggy-completion")]
    fn run_in_place(&self, corr: u64, frame: F) -> Option<F> {
        let done = match self.shard_for(corr).lock().get(&corr) {
            Some(Entry::Completion(done, _)) => done.clone(),
            _ => return Some(frame),
        };
        done(Ok(frame));
        self.take_pending(corr);
        None
    }

    /// Returns the baton, **then** promotes one waiting request.
    #[cfg(not(feature = "buggy-leader"))]
    fn hand_back(&self, source: S) {
        *self.reader.lock() = Some(source);
        self.promote_one();
    }

    /// The bug the order exists to prevent, kept for the model checker to
    /// re-find: promote first, return the baton afterwards.  A request
    /// that finds the baton still taken in between goes back to sleep, and
    /// nobody is left to read its reply.
    #[cfg(feature = "buggy-leader")]
    fn hand_back(&self, source: S) {
        self.promote_one();
        *self.reader.lock() = Some(source);
    }

    /// Offers the baton to the first registered request that is waiting —
    /// never to an idle one, whose owner may not come for a long time.
    fn promote_one(&self) {
        for shard in self.pending.iter() {
            let shard = shard.lock();
            for entry in shard.values() {
                let Entry::Waiter(slot) = entry else {
                    continue;
                };
                let mut inbox = slot.inbox.lock();
                if Self::promotable(&inbox) {
                    *inbox = Inbox::Promoted;
                    drop(inbox);
                    slot.inbox.notify_all();
                    return;
                }
            }
        }
    }

    /// Whether a leaving leader may offer the baton to `inbox`: only to a
    /// request somebody sleeps on.
    #[cfg(not(feature = "buggy-promote"))]
    fn promotable(inbox: &Inbox<F>) -> bool {
        matches!(inbox, Inbox::Waiting)
    }

    /// The bug the idle state exists to prevent, kept for the model checker
    /// to re-find: the baton may go to a submission nobody is collecting,
    /// while a follower whose reply is on the wire sleeps with nobody left
    /// to read it.
    #[cfg(feature = "buggy-promote")]
    fn promotable(inbox: &Inbox<F>) -> bool {
        matches!(inbox, Inbox::Waiting | Inbox::Idle)
    }

    /// While nobody leads: reads what already arrived without blocking —
    /// routing replies, and poisoning the connection on EOF.
    fn read_idle(&self) {
        let source = self.reader.lock().take();
        if let Some(mut source) = source {
            let _ = self.lead(&mut source, None, Some(Instant::now()));
            self.hand_back(source);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actyp_proto::{read_client_frame, StatsSnapshot, MAX_SEQUENCE_LEN};
    use crossbeam::channel::{unbounded, Receiver, Sender};
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
        let oversized = "x".repeat(MAX_SEQUENCE_LEN + 1);
        let refused = conn.request(Some(REPLY_TIMEOUT), |corr| ClientFrame::Submit {
            corr,
            query: oversized,
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

    /// A submission whose reply is never collected holds that reply on the
    /// connection, so the connection refuses submissions past
    /// [`MAX_UNCOLLECTED`] of them — without a frame leaving, and without
    /// harm to the link — and collecting one reply makes room for one more.
    #[test]
    fn uncollected_submissions_are_capped_per_connection() {
        let (conn, server) = dial_scripted(|mut stream| {
            while let Ok(Some(ClientFrame::Submit { corr, .. })) = read_client_frame(&mut stream) {
                let outcome = Err(AllocationError::NoneAvailable);
                if write_frame(&mut stream, &ServerFrame::Outcome { corr, outcome }).is_err() {
                    return;
                }
            }
        });
        let submit = || {
            conn.submit(|corr| ClientFrame::Submit {
                corr,
                query: "q".to_string(),
            })
        };
        let first = submit().unwrap();
        for _ in 1..MAX_UNCOLLECTED {
            submit().unwrap();
        }
        let refused = submit();
        assert!(matches!(refused, Err(ConnError::Refused(_))), "{refused:?}");
        assert!(
            !conn.is_dead(),
            "a refused submission must not poison the link"
        );
        let collected = conn.collect(first, None);
        assert!(
            matches!(collected, Some(Ok(ServerFrame::Outcome { .. }))),
            "{collected:?}"
        );
        submit().unwrap();
        assert!(matches!(submit(), Err(ConnError::Refused(_))));
        conn.shutdown();
        server.join().unwrap();
    }

    /// Nobody reads an idle connection, yet a far side that hangs up on it
    /// is noticed the next time anybody asks — with no request sent.
    #[test]
    fn an_idle_connection_notices_the_far_side_hanging_up() {
        let (conn, server) = dial_scripted(drop);
        server.join().unwrap();
        let noticed = Instant::now() + Duration::from_secs(10);
        while !conn.is_dead() {
            assert!(
                Instant::now() < noticed,
                "a closed idle connection must read as dead"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(stats(None, &conn), Err(ConnError::Dead(_))));
    }

    /// The far side answers the second request first.  Whichever request
    /// reads the stream, the second returns while the first is still
    /// waiting: a reply that arrived is never queued behind one that has
    /// not.
    #[test]
    fn a_reply_is_not_held_behind_an_earlier_request() {
        let (both_arrived_tx, both_arrived) = unbounded();
        let (go, go_rx): (Sender<()>, Receiver<()>) = unbounded();
        let (conn, server) = dial_scripted(move |mut stream| {
            let first = next_corr(&mut stream);
            let second = next_corr(&mut stream);
            both_arrived_tx.send((first, second)).unwrap();
            go_rx.recv().unwrap();
            reply(&mut stream, second);
            go_rx.recv().unwrap();
            reply(&mut stream, first);
        });
        let (first_tx, first_done) = unbounded();
        let first = std::thread::spawn({
            let conn = conn.clone();
            move || first_tx.send(stats(None, &conn)).unwrap()
        });
        // The first request is sent (and its thread is reading) before the
        // second exists.
        while conn.relay.issued.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let (second_tx, second_done) = unbounded();
        let second = std::thread::spawn({
            let conn = conn.clone();
            move || second_tx.send(stats(None, &conn)).unwrap()
        });
        let (first_corr, second_corr) = both_arrived.recv().unwrap();
        go.send(()).unwrap();
        match second_done.recv_timeout(Duration::from_secs(10)) {
            Ok(Ok(ServerFrame::StatsReply { corr, .. })) => assert_eq!(corr, second_corr),
            other => panic!("the second request must return on its own reply: {other:?}"),
        }
        assert!(
            first_done.try_recv().is_err(),
            "the first request has no reply yet"
        );
        go.send(()).unwrap();
        match first_done.recv_timeout(Duration::from_secs(10)) {
            Ok(Ok(ServerFrame::StatsReply { corr, .. })) => assert_eq!(corr, first_corr),
            other => panic!("the first request must get its own reply: {other:?}"),
        }
        first.join().unwrap();
        second.join().unwrap();
        server.join().unwrap();
        conn.shutdown();
    }
}

/// Bounded-interleaving proof of the [`Relay`] hand-off (`--features
/// model`), run by the CI `model-check` job: the relay's own code over
/// `actyp-model` monitors, reading from a modelled wire.  Under the model a
/// timed wait times out only once no thread can run, so a deadline passes
/// exactly when the reply it waits for is not coming.
#[cfg(all(test, feature = "model"))]
mod model_tests {
    use super::*;
    use actyp_model::sync::{Condvar, Mutex as ModelMutex, MutexGuard};
    use actyp_model::{thread, Explorer};
    use std::collections::VecDeque;

    struct ModelMonitor<T> {
        value: ModelMutex<T>,
        changed: Condvar,
    }

    impl<T: Send> Monitor<T> for ModelMonitor<T> {
        type Guard<'a>
            = MutexGuard<'a, T>
        where
            T: 'a;

        fn new(value: T) -> Self {
            ModelMonitor {
                value: ModelMutex::new(value),
                changed: Condvar::new(),
            }
        }

        fn lock(&self) -> Self::Guard<'_> {
            self.value.lock().unwrap()
        }

        fn wait<'a>(
            &'a self,
            guard: Self::Guard<'a>,
            deadline: Option<Instant>,
        ) -> (Self::Guard<'a>, bool) {
            match deadline {
                None => (self.changed.wait(guard).unwrap(), false),
                Some(_) => {
                    let (guard, result) = self.changed.wait_timeout(guard, Duration::ZERO).unwrap();
                    (guard, result.timed_out())
                }
            }
        }

        fn notify_all(&self) {
            self.changed.notify_all();
        }
    }

    struct Model;

    impl Prims for Model {
        type Monitor<T: Send> = ModelMonitor<T>;
    }

    #[derive(Debug)]
    struct Reply(u64);

    impl Framed for Reply {
        fn corr(&self) -> Option<u64> {
            Some(self.0)
        }
    }

    /// One direction of the socket: what is in flight, and whether the
    /// sending side hung up.
    struct Lane<T> {
        frames: VecDeque<T>,
        hung_up: bool,
    }

    type Pipe<T> = Arc<ModelMonitor<Lane<T>>>;

    fn pipe<T: Send>() -> Pipe<T> {
        Arc::new(ModelMonitor::new(Lane {
            frames: VecDeque::new(),
            hung_up: false,
        }))
    }

    fn push<T: Send>(pipe: &Pipe<T>, frame: T) {
        pipe.lock().frames.push_back(frame);
        pipe.notify_all();
    }

    fn hang_up<T: Send>(pipe: &Pipe<T>) {
        pipe.lock().hung_up = true;
        pipe.notify_all();
    }

    /// The next frame: `None` once the lane is hung up and drained,
    /// `Some(Err(()))` when the deadline passed first.
    fn pop<T: Send>(pipe: &Pipe<T>, deadline: Option<Instant>) -> Option<Result<T, ()>> {
        let mut lane = pipe.lock();
        loop {
            if let Some(frame) = lane.frames.pop_front() {
                return Some(Ok(frame));
            }
            if lane.hung_up {
                return None;
            }
            let (relocked, timed_out) = pipe.wait(lane, deadline);
            lane = relocked;
            if timed_out && lane.frames.is_empty() && !lane.hung_up {
                return Some(Err(()));
            }
        }
    }

    /// The read half the relay's leaders share.
    struct Wire(Pipe<u64>);

    impl Source<Reply> for Wire {
        fn next(&mut self, deadline: Option<Instant>) -> Result<Reply, ReadError> {
            match pop(&self.0, deadline) {
                Some(Ok(corr)) => Ok(Reply(corr)),
                Some(Err(())) => Err(ReadError::TimedOut),
                None => Err(ReadError::Closed("far side hung up".to_string())),
            }
        }
    }

    type ModelRelay = Relay<Model, Reply, Wire>;

    /// A connection: the relay over the far side's replies, and the lane
    /// requests travel to the far side on (with whether they carry a
    /// deadline).
    struct Link {
        relay: Arc<ModelRelay>,
        to_far: Pipe<(u64, bool)>,
        from_far: Pipe<u64>,
    }

    impl Link {
        fn new() -> Self {
            let from_far = pipe();
            Link {
                relay: Arc::new(Relay::new(Some(Wire(from_far.clone())), 2)),
                to_far: pipe(),
                from_far,
            }
        }

        /// A peer link as the daemon builds one: born attached, so no
        /// requester ever holds the read side.
        fn attached() -> Self {
            Link {
                relay: Arc::new(Relay::new(None, 2)),
                to_far: pipe(),
                from_far: pipe(),
            }
        }

        /// One requester thread: registers, sends, awaits.  `None` when
        /// the connection was already dead at registration.
        fn request(&self, bounded: bool) -> thread::JoinHandle<Option<Result<u64, ConnError>>> {
            let (relay, to_far) = (self.relay.clone(), self.to_far.clone());
            thread::spawn(move || {
                let (corr, slot) = relay.register().ok()?;
                push(&to_far, (corr, bounded));
                let deadline = bounded.then(Instant::now);
                let reply = relay.await_reply(corr, &slot, deadline, OnTimeout::GiveUp);
                if let Ok(Reply(answered)) = &reply {
                    assert_eq!(*answered, corr, "misrouted reply");
                }
                Some(reply.map(|Reply(answered)| answered))
            })
        }
    }

    fn explorer(preemption_bound: usize) -> Explorer {
        Explorer {
            max_schedules: 400_000,
            preemption_bound,
            op_budget: 50_000,
        }
    }

    /// `n` requesters, and a far side that answers each request in the
    /// order it arrives: every requester gets its own reply.
    fn replies_in_any_order(n: usize) {
        let link = Link::new();
        let far = {
            let (to_far, from_far) = (link.to_far.clone(), link.from_far.clone());
            thread::spawn(move || {
                for _ in 0..n {
                    let Some(Ok((corr, _))) = pop(&to_far, None) else {
                        return;
                    };
                    push(&from_far, corr);
                }
            })
        };
        let requesters: Vec<_> = (0..n).map(|_| link.request(false)).collect();
        for requester in requesters {
            let reply = requester.join().unwrap();
            assert!(matches!(reply, Some(Ok(_))), "a reply was lost: {reply:?}");
        }
        far.join().unwrap();
    }

    /// One requester's deadline passes — as the leader or as a follower —
    /// while the far side holds its reply back; the reply then arrives
    /// late, ahead of the other requester's.  The late one is dropped, the
    /// other is delivered.
    fn a_deadline_passes() {
        let link = Link::new();
        let gave_up: Pipe<()> = pipe();
        let far = {
            let (to_far, from_far, gave_up) =
                (link.to_far.clone(), link.from_far.clone(), gave_up.clone());
            thread::spawn(move || {
                let mut held = Vec::new();
                for _ in 0..2 {
                    if let Some(Ok(request)) = pop(&to_far, None) {
                        held.push(request);
                    }
                }
                held.sort_by_key(|&(_, bounded)| !bounded);
                pop(&gave_up, None);
                for (corr, _) in held {
                    push(&from_far, corr);
                }
            })
        };
        let bounded = link.request(true);
        let unbounded = link.request(false);
        let reply = bounded.join().unwrap();
        assert!(matches!(reply, Some(Err(ConnError::Timeout))), "{reply:?}");
        push(&gave_up, ());
        let reply = unbounded.join().unwrap();
        assert!(matches!(reply, Some(Ok(_))), "a reply was lost: {reply:?}");
        far.join().unwrap();
    }

    impl Link {
        /// Sends a submission as `Conn::submit` does, from the calling
        /// thread: its inbox registered idle, its reply left for a later
        /// collect — its ticket.
        fn ticket(&self) -> (u64, Arc<Slot<Model, Reply>>) {
            let (corr, slot) = self.relay.register_idle().expect("the link is up");
            push(&self.to_far, (corr, false));
            (corr, slot)
        }
    }

    /// A ticket nobody collects while two requesters lead and follow; the
    /// far side answers the requesters as their requests arrive and the
    /// ticket last.  No leader leaving hands the read side to the idle
    /// ticket, so neither requester loses its reply, and the ticket's is
    /// there to collect afterwards.
    fn an_idle_ticket_beside_two_requesters() {
        let link = Link::new();
        let (corr, slot) = link.ticket();
        let far = {
            let (to_far, from_far) = (link.to_far.clone(), link.from_far.clone());
            thread::spawn(move || {
                let Some(Ok((ticket, _))) = pop(&to_far, None) else {
                    return;
                };
                for _ in 0..2 {
                    let Some(Ok((corr, _))) = pop(&to_far, None) else {
                        return;
                    };
                    push(&from_far, corr);
                }
                push(&from_far, ticket);
            })
        };
        let requesters = [link.request(false), link.request(false)];
        for requester in requesters {
            let reply = requester.join().unwrap();
            assert!(matches!(reply, Some(Ok(_))), "a reply was lost: {reply:?}");
        }
        let collected = link.relay.collect(corr, &slot, None);
        assert!(
            matches!(collected, Ok(Reply(answered)) if answered == corr),
            "{collected:?}"
        );
        far.join().unwrap();
    }

    /// A ticket's collector gives up at its deadline — as the leader or as
    /// a follower beside a requester — while the far side holds both
    /// replies back.  The ticket is set aside, not given up: once the far
    /// side answers, the requester gets its reply and the next collect the
    /// ticket's.
    fn a_collect_deadline_passes() {
        let link = Link::new();
        let (corr, slot) = link.ticket();
        let set_aside: Pipe<()> = pipe();
        let far = {
            let (to_far, from_far, set_aside) = (
                link.to_far.clone(),
                link.from_far.clone(),
                set_aside.clone(),
            );
            thread::spawn(move || {
                let mut held = Vec::new();
                for _ in 0..2 {
                    if let Some(Ok((corr, _))) = pop(&to_far, None) {
                        held.push(corr);
                    }
                }
                pop(&set_aside, None);
                for corr in held {
                    push(&from_far, corr);
                }
            })
        };
        let requester = link.request(false);
        let collector = {
            let relay = link.relay.clone();
            thread::spawn(move || {
                let first = relay.collect(corr, &slot, Some(Instant::now()));
                assert!(matches!(first, Err(ConnError::Timeout)), "{first:?}");
                push(&set_aside, ());
                relay.collect(corr, &slot, None)
            })
        };
        let reply = requester.join().unwrap();
        assert!(matches!(reply, Some(Ok(_))), "a reply was lost: {reply:?}");
        let collected = collector.join().unwrap();
        assert!(
            matches!(collected, Ok(Reply(answered)) if answered == corr),
            "{collected:?}"
        );
        far.join().unwrap();
    }

    /// The far side answers one request and hangs up: the other requester
    /// learns the connection died, wherever it was waiting.
    fn the_far_side_hangs_up() {
        let link = Link::new();
        let far = {
            let (to_far, from_far) = (link.to_far.clone(), link.from_far.clone());
            thread::spawn(move || {
                if let Some(Ok((corr, _))) = pop(&to_far, None) {
                    push(&from_far, corr);
                }
                hang_up(&from_far);
            })
        };
        let requesters = [link.request(false), link.request(false)];
        let mut answered = 0;
        for requester in requesters {
            match requester.join().unwrap() {
                Some(Ok(_)) => answered += 1,
                Some(Err(ConnError::Dead(_))) => {}
                other => panic!("neither a reply nor a death: {other:?}"),
            }
        }
        assert!(answered <= 1);
        far.join().unwrap();
    }

    /// Nothing is ever answered; a third party looks at the idle
    /// connection, then shuts it down as `Conn::shutdown` does (poison,
    /// then EOF both ways).  Every requester ends, none with a reply.
    fn a_shutdown_wakes_everyone() {
        let link = Link::new();
        let requesters = [link.request(false), link.request(false)];
        let shutdown = {
            let (relay, to_far, from_far) = (
                link.relay.clone(),
                link.to_far.clone(),
                link.from_far.clone(),
            );
            thread::spawn(move || {
                relay.read_idle();
                relay.poison("connection shut down".to_string());
                hang_up(&to_far);
                hang_up(&from_far);
            })
        };
        for requester in requesters {
            let reply = requester.join().unwrap();
            assert!(
                matches!(reply, None | Some(Err(ConnError::Dead(_)))),
                "{reply:?}"
            );
        }
        shutdown.join().unwrap();
    }

    /// What one completion was run with, in order: `true` for the reply,
    /// `false` for the connection's death.
    type Runs = Arc<ModelMutex<Vec<bool>>>;

    /// A third party started on a link, which may kill it.
    type Race = fn(&Link) -> thread::JoinHandle<()>;

    impl Link {
        /// The reactor session of an attached link: one reader thread
        /// routes every frame — running completions itself — until the
        /// wire ends.
        fn attached_reader(&self) -> thread::JoinHandle<()> {
            let relay = self.relay.clone();
            let mut wire = Wire(self.from_far.clone());
            thread::spawn(move || loop {
                match wire.next(None) {
                    Ok(frame) => {
                        if relay.route(frame, None).is_err() {
                            return;
                        }
                    }
                    Err(ReadError::Closed(reason)) => {
                        relay.poison(reason);
                        return;
                    }
                    Err(ReadError::TimedOut) => unreachable!("the reader has no deadline"),
                }
            })
        }

        /// Sends one request as `Conn::request_with` does, from the calling
        /// thread: a completion whose deadline is already due — so a sweep
        /// may expire it at any point — and whose runs are recorded.
        fn complete(&self) -> Runs {
            let runs: Runs = Arc::new(ModelMutex::new(Vec::new()));
            let record = runs.clone();
            let done: Completion<Reply> = Arc::new(move |reply| {
                record.lock().unwrap().push(reply.is_ok());
            });
            match self.relay.register_completion(done.clone(), Instant::now()) {
                Ok(corr) => push(&self.to_far, (corr, false)),
                Err(reason) => done(Err(ConnError::Dead(reason))),
            }
            runs
        }
    }

    /// On an attached link, one completion beside one blocked requester,
    /// and `race` — a third party that may kill the link — started once
    /// both are under way; the calling thread registers the completion and
    /// then plays the far side, answering both requests in arrival order
    /// unless the link is killed first.  Every request ends: the requester
    /// with its reply or the link's death (no requester is lost), the
    /// completion run exactly once; and with nobody killing the link, both
    /// get their replies.
    fn a_completion_beside_a_requester(race: Option<Race>) {
        let link = Link::attached();
        let reader = link.attached_reader();
        let requester = link.request(false);
        let runs = link.complete();
        let killer = race.map(|race| race(&link));
        for _ in 0..2 {
            let Some(Ok((corr, _))) = pop(&link.to_far, None) else {
                break;
            };
            push(&link.from_far, corr);
        }
        let reply = requester.join().unwrap();
        // The far side has answered whatever reached it; the wire ends.
        hang_up(&link.from_far);
        reader.join().unwrap();
        if let Some(killer) = killer {
            killer.join().unwrap();
        }
        let runs = runs.lock().unwrap().clone();
        assert_eq!(runs.len(), 1, "a completion ran {} times", runs.len());
        match race {
            None => {
                assert!(matches!(reply, Some(Ok(_))), "a reply was lost: {reply:?}");
                assert!(runs[0], "the completion missed its reply");
            }
            Some(_) => assert!(
                matches!(reply, None | Some(Ok(_)) | Some(Err(ConnError::Dead(_)))),
                "{reply:?}"
            ),
        }
    }

    /// `Conn::shutdown` racing the replies: poison, then EOF both ways.
    fn a_shutdown(link: &Link) -> thread::JoinHandle<()> {
        let (relay, to_far, from_far) = (
            link.relay.clone(),
            link.to_far.clone(),
            link.from_far.clone(),
        );
        thread::spawn(move || {
            relay.poison("connection shut down".to_string());
            hang_up(&to_far);
            hang_up(&from_far);
        })
    }

    /// The I/O thread's deadline sweep racing the replies: an overdue
    /// completion retires the link.
    fn a_deadline_sweep(link: &Link) -> thread::JoinHandle<()> {
        let (relay, to_far, from_far) = (
            link.relay.clone(),
            link.to_far.clone(),
            link.from_far.clone(),
        );
        thread::spawn(move || {
            if relay.expire(Instant::now()) {
                hang_up(&to_far);
                hang_up(&from_far);
            }
        })
    }

    /// A completion runs exactly once and no blocked requester is lost on
    /// a link whose baton an attached reader holds: under the reply alone,
    /// under a shutdown's poison, and under the deadline sweep.
    #[cfg(not(feature = "buggy-completion"))]
    #[test]
    fn completion_runs_exactly_once_proven() {
        let scenarios: [(&str, Option<Race>); 3] = [
            ("the reply", None),
            ("a shutdown", Some(a_shutdown)),
            ("the deadline sweep", Some(a_deadline_sweep)),
        ];
        for (name, race) in scenarios {
            let report = explorer(2).prove(move || a_completion_beside_a_requester(race));
            assert!(report.proven(), "{name}");
            assert!(
                report.schedules > 1_000,
                "{name}: interleavings actually explored"
            );
        }
    }

    /// REGRESSION (`--features model,buggy-completion`): a router that runs
    /// a completion *before* taking its entry out of the table lets a
    /// poison sweeping the table meanwhile — a shutdown's, or the deadline
    /// sweep's — run it a second time.  The exploration must find the
    /// double run under either.
    #[cfg(feature = "buggy-completion")]
    #[test]
    fn completion_double_run_recaught() {
        let races: [(&str, Race); 2] = [
            ("a shutdown", a_shutdown),
            ("the deadline sweep", a_deadline_sweep),
        ];
        for (name, race) in races {
            let report = explorer(2).explore(move || a_completion_beside_a_requester(Some(race)));
            let failure = report.failure.unwrap_or_else(|| {
                panic!("{name}: running a completion before removing its entry must run it twice")
            });
            assert!(
                failure.message.contains("ran 2 times"),
                "{name}: expected a double run, got: {}",
                failure.message
            );
            assert!(
                report.schedules <= 50_000,
                "{name}: the double run should surface within tens of thousands of \
                 interleavings, took {}",
                report.schedules
            );
        }
    }

    /// The hand-off loses no reply and strands no requester: replies in any
    /// order to two requesters (and to three, under one preemption); a
    /// deadline passing for the leader or a follower, with its reply
    /// arriving late; the far side hanging up mid-exchange; a shutdown
    /// poisoning requesters in every state; an idle ticket nobody collects
    /// beside two requesters; and a ticket's collect whose deadline passes.
    #[cfg(not(any(feature = "buggy-leader", feature = "buggy-promote")))]
    #[test]
    fn leader_hands_off_without_loss_proven() {
        let scenarios: [(&str, usize, fn()); 7] = [
            ("two requesters", 2, || replies_in_any_order(2)),
            ("three requesters", 1, || replies_in_any_order(3)),
            ("a deadline passes", 2, a_deadline_passes),
            ("the far side hangs up", 2, the_far_side_hangs_up),
            ("a shutdown", 2, a_shutdown_wakes_everyone),
            ("an idle ticket", 2, an_idle_ticket_beside_two_requesters),
            ("a collect deadline passes", 2, a_collect_deadline_passes),
        ];
        for (name, preemption_bound, scenario) in scenarios {
            let report = explorer(preemption_bound).prove(scenario);
            assert!(report.proven(), "{name}");
            assert!(
                report.schedules > 1_000,
                "{name}: interleavings actually explored"
            );
        }
    }

    /// REGRESSION (`--features model,buggy-leader`): a leader that
    /// promotes a waiter *before* returning the baton lets the promoted
    /// request find it still taken and go back to sleep — with nobody
    /// left to read its reply.  The exploration must find that hang.
    #[cfg(feature = "buggy-leader")]
    #[test]
    fn leader_lost_handoff_recaught() {
        let report = explorer(2).explore(|| replies_in_any_order(2));
        let failure = report
            .failure
            .expect("promoting before returning the baton must strand a waiter");
        assert!(
            failure.message.contains("deadlock"),
            "expected a deadlock, got: {}",
            failure.message
        );
        assert!(
            report.schedules <= 5_000,
            "the lost hand-off should surface within a few thousand interleavings, took {}",
            report.schedules
        );
    }

    /// REGRESSION (`--features model,buggy-promote`): a leaving leader that
    /// may promote an idle ticket — one nobody is collecting — hands the
    /// read side to nobody, and the follower whose reply is on the wire
    /// sleeps forever.  The exploration must find that hang.
    #[cfg(feature = "buggy-promote")]
    #[test]
    fn idle_ticket_promotion_recaught() {
        let report = explorer(2).explore(an_idle_ticket_beside_two_requesters);
        let failure = report
            .failure
            .expect("promoting an idle ticket must strand a follower");
        assert!(
            failure.message.contains("deadlock"),
            "expected a deadlock, got: {}",
            failure.message
        );
        assert!(
            report.schedules <= 5_000,
            "the stranded follower should surface within a few thousand interleavings, took {}",
            report.schedules
        );
    }
}
