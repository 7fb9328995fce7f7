//! The session engine: everything that runs on (or is reachable from) a
//! reactor I/O thread.
//!
//! [`io_thread_main`] drives every session's nonblocking socket through a
//! [`Poller`].  Each session is an explicit state machine
//! ([`ReactorSession`]).  Nothing here parks: a request whose answer is at
//! hand is answered on the I/O thread, and one whose answer a backend
//! stage, the admission window or a peer daemon produces is left with it as
//! a completion — and so is a closing session's final sweep.  Whoever
//! produces a reply writes it:
//! [`OutQueue::push`] sends it from that thread when nothing is queued
//! ahead of it, and queues the rest for the session's I/O thread, rung
//! through its [`IoNotify`] (a syscall only when the thread is asleep).
//!
//! A federated daemon's first I/O thread also carries the peer links the
//! federation dials ([`ReactorHost`]): sessions of kind *peer*, whose
//! frames are the replies to what this daemon asked, routed to the link's
//! blocked requesters and completions ([`route_replies`]).
//!
//! `actyp-lint`'s `reactor-blocking` rule walks the call graph from
//! `io_thread_main`; keeping its callees in this file (and this
//! directory) is what keeps that walk complete —
//! `crates/lint/tests/real_tree.rs` pins it.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use actyp_proto::{
    encode_frame, negotiate, split_frame, ClientFrame, RequestId, ServerFrame, WireDecode,
    WireEncode, MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};

use super::ServerShared;
use crate::allocation::{AllocateDone, Allocation, AllocationError, ReleaseDone};
use crate::api::QueryOutcome;
use crate::corr::{Conn, ConnError, FrameSink, CONNECT_TIMEOUT};
use crate::federation::{DelegateDone, DialDone, FederatedBackend, PeerHost};
use crate::reactor::{connect_nonblocking, Doorbell, Event, Interest, Poller, TimerWheel, Waker};

/// Poller token reserved for the I/O thread's waker pipe.
const WAKE_TOKEN: u64 = u64::MAX;

/// Poller token reserved for the daemon's listening socket (registered
/// on the first I/O thread only).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Timer-wheel id of the periodic closing-session sweep.
const SWEEP_TIMER: u64 = 1;

/// Timer-wheel id of the periodic anti-entropy gossip tick (armed on
/// the listener thread of a federated daemon only).
const GOSSIP_TIMER: u64 = 2;

/// Timer-wheel id of the periodic peer-link health probe (armed on
/// the listener thread of a federated daemon only).  Probing off the
/// timer wheel notices a dead peer between delegations, so the next
/// chain never spends a candidate slot (and a reply timeout) on it.
const PROBE_TIMER: u64 = 3;

/// Upper bound on queued-but-unsent reply bytes before the session
/// stops *reading*: a client that pipelines requests without draining
/// replies is backpressured instead of ballooning the daemon's memory.
const OUT_HIGH_WATER: usize = 1 << 20;

/// Upper bound on a session's unanswered requests before it stops
/// *reading*: an error reply would strand a lease or launched work, so a
/// pipelined burst waits in the socket instead.  A submission still queued
/// in the admission window counts too: it waits only for the outcomes of
/// launched queries, which the stages produce whatever the client reads.
pub(super) const COMPLETIONS_HIGH_WATER: usize = 256;

/// How long a closing session's completions may stay outstanding before
/// its final sweep runs anyway.
const CLOSE_SETTLE_BOUND: Duration = Duration::from_secs(60);

/// How many bytes one readable event may pull off a single socket
/// before yielding to the other sessions on the same I/O thread
/// (level-triggered polling re-delivers the event if more is waiting).
/// This caps bytes *per event*, never the session's total buffer — a
/// frame larger than one burst (the protocol allows up to
/// [`MAX_FRAME_LEN`](actyp_proto::MAX_FRAME_LEN)) accumulates across
/// events and must always be able to complete.
const READ_BURST: usize = 256 * 1024;

/// How long a closing session may keep flushing queued replies to a
/// client that is not reading them before the socket is cut anyway.
/// Measured from the moment the final sweep seals the write queue, so a
/// well-behaved client always gets its drain; only a stalled one is
/// dropped — without this, one such client would wedge the I/O
/// thread's exit and [`ServerHandle::join`] forever.
const CLOSE_FLUSH_GRACE: Duration = Duration::from_secs(5);

/// How often the I/O thread sweeps its closing sessions for the
/// [`CLOSE_FLUSH_GRACE`] deadline (a stalled client produces no
/// events of its own to trigger the check).
const CLOSING_SWEEP_INTERVAL: Duration = Duration::from_millis(250);

/// A session buffer (read or write) whose capacity ballooned past this
/// is shrunk back once it empties: `Vec::clear`/`drain` keep their
/// peak allocation, and a long-lived idle session pinning megabytes
/// from one historical burst works against the whole point of holding
/// many idle sessions cheaply.
const BUF_SHRINK_THRESHOLD: usize = 64 * 1024;

/// Safety-net poll timeout: wakeups normally arrive via the waker, but
/// the drain flag is also re-checked at least this often.
const IO_POLL_INTERVAL: Duration = Duration::from_millis(500);

/// Cross-thread doorbell for one I/O thread: whoever leaves bytes in a
/// session's write queue that the socket did not take (or seals the
/// queue) marks the session dirty and rings; the I/O thread drains the set
/// and flushes exactly those sessions.  A reply the socket takes whole
/// rings nobody.
///
/// The bell is a self-pipe behind the [`Doorbell`] parked-flag protocol:
/// it is written only while the I/O thread is blocked in `poll` or
/// committed to blocking, so a sleep costs at most one `write` and one
/// `read`, and a ring while the thread is running costs neither.
/// `reactor.rs` model-checks that very `Doorbell` code
/// (`doorbell_loses_no_wakeup_proven`, and `buggy-doorbell` re-finds the
/// lost wake-up when the two loop-side steps are swapped).
pub(super) struct IoNotify {
    dirty: Mutex<HashSet<u64>>,
    doorbell: Doorbell<AtomicBool, Waker>,
    /// Pipe writes so far — what the ring-economy test counts.
    #[cfg(test)]
    rings: AtomicU64,
}

impl IoNotify {
    pub(super) fn new() -> std::io::Result<Self> {
        Ok(IoNotify {
            dirty: Mutex::new(HashSet::new()),
            doorbell: Doorbell::new(AtomicBool::new(false), Waker::new()?),
            #[cfg(test)]
            rings: AtomicU64::new(0),
        })
    }

    /// The fd the I/O thread registers under [`WAKE_TOKEN`].
    fn wake_fd(&self) -> std::os::fd::RawFd {
        self.doorbell.bell().read_fd()
    }

    fn mark_dirty(&self, token: u64) {
        self.dirty.lock().insert(token);
        self.ring();
    }

    fn take_dirty(&self) -> Vec<u64> {
        self.dirty.lock().drain().collect()
    }

    /// Ringer side; call *after* publishing the work (a dirty mark, a
    /// dealt socket, the drain flag).
    pub(super) fn ring(&self) {
        let _wrote = self.doorbell.ring();
        #[cfg(test)]
        self.rings.fetch_add(_wrote as u64, Ordering::Relaxed);
    }

    /// I/O side, before `poll`: whether the poll may block.  The dirty
    /// set is a wake source of its own; `work_pending` names the others.
    fn park(&self, work_pending: impl FnOnce() -> bool) -> bool {
        self.doorbell
            .park(|| !self.dirty.lock().is_empty() || work_pending())
    }

    /// I/O side, after `poll`; `rung` is whether [`WAKE_TOKEN`] fired.
    fn unpark(&self, rung: bool) {
        self.doorbell.unpark(rung);
    }
}

/// The write side of one reactor session.  Whoever produces a frame (I/O
/// thread, backend stage thread, final sweep) encodes it here
/// and, when nothing is queued ahead of it, writes it to the socket
/// itself; the owning I/O thread flushes whatever the socket did not take
/// as the socket allows.
struct OutQueue {
    token: u64,
    notify: Arc<IoNotify>,
    /// The session socket's own handle: a `try_clone`, so the same open
    /// file description (already non-blocking), and owned, so a reply that
    /// completes after the session retired can never land in an fd number
    /// the kernel has since reused for another connection.
    socket: TcpStream,
    buf: Mutex<OutBuf>,
}

#[derive(Default)]
struct OutBuf {
    data: Vec<u8>,
    sent: usize,
    /// Frames currently queued (encoded into `data` and not yet fully
    /// flushed) — lets the flush tell a coalesced multi-frame write
    /// from a singleton.
    frames: usize,
    /// When the final sweep sealed the queue (no more frames will ever
    /// be queued); also starts the [`CLOSE_FLUSH_GRACE`] clock.
    closed_at: Option<std::time::Instant>,
}

impl OutBuf {
    fn closed(&self) -> bool {
        self.closed_at.is_some()
    }

    /// Resets the queue after a complete flush, returning oversized
    /// capacity to the allocator.
    fn reset(&mut self) {
        self.data.clear();
        if self.data.capacity() > BUF_SHRINK_THRESHOLD {
            self.data.shrink_to(BUF_SHRINK_THRESHOLD);
        }
        self.sent = 0;
        self.frames = 0;
    }

    /// Writes queued bytes to the non-blocking `socket` until it would
    /// block; `true` when the queue emptied.  A short write, `WouldBlock`
    /// or an error leaves the rest queued — the I/O thread's flush owns
    /// backpressure and reports a dead transport.
    fn write_through(&mut self, mut socket: &TcpStream) -> bool {
        while self.sent < self.data.len() {
            match socket.write(&self.data[self.sent..]) {
                Ok(0) => return false,
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.reset();
        true
    }
}

impl OutQueue {
    fn new(token: u64, notify: Arc<IoNotify>, socket: TcpStream) -> Arc<Self> {
        Arc::new(OutQueue {
            token,
            notify,
            socket,
            buf: Mutex::new(OutBuf::default()),
        })
    }

    /// Appends one frame.  With nothing queued ahead of it the frame leaves
    /// from the calling thread, in one `write`; what the socket does not
    /// take stays queued and the session's I/O thread is rung for it.  One
    /// path for every caller, the I/O thread included.  An over-limit frame
    /// is refused (`InvalidData`) before a byte is appended, and a closed
    /// queue takes nothing.
    fn push<F: WireEncode>(&self, frame: &F) -> std::io::Result<()> {
        {
            let mut buf = self.buf.lock();
            if buf.closed() {
                return Err(std::io::ErrorKind::NotConnected.into());
            }
            let idle = buf.sent == buf.data.len();
            encode_frame(&mut buf.data, frame)?;
            buf.frames += 1;
            if idle && buf.write_through(&self.socket) {
                return Ok(());
            }
        }
        self.notify.mark_dirty(self.token);
        Ok(())
    }

    /// Marks the queue closed (no more frames will ever be queued) and
    /// rings the I/O thread so it can finish the drain-aware close.
    fn close(&self) {
        let mut buf = self.buf.lock();
        if buf.closed_at.is_none() {
            buf.closed_at = Some(std::time::Instant::now());
        }
        drop(buf);
        self.notify.mark_dirty(self.token);
    }

    fn pending_bytes(&self) -> usize {
        let buf = self.buf.lock();
        buf.data.len() - buf.sent
    }

    fn is_closed(&self) -> bool {
        self.buf.lock().closed()
    }

    /// Whether the queue was sealed longer than `grace` ago — the
    /// point past which a client that will not drain its replies is
    /// cut instead of holding the session (and the drain) open.
    fn sealed_longer_than(&self, grace: Duration) -> bool {
        matches!(self.buf.lock().closed_at, Some(at) if at.elapsed() > grace)
    }
}

/// A peer session's queue is where its attached connection writes.
impl FrameSink for OutQueue {
    fn push_frame(&self, frame: &ClientFrame) -> std::io::Result<()> {
        self.push(frame)
    }

    fn close(&self) {
        let _ = self.socket.shutdown(std::net::Shutdown::Both);
    }
}

/// What a federated daemon lends its federation ([`PeerHost`]): the first
/// I/O thread dials every peer link as a session of kind *peer*.
pub(super) struct ReactorHost {
    /// Dials asked for and not taken yet; `None` once the hosting thread
    /// has stopped.  Queued and stopped under this lock, so no dial is
    /// ever left behind in it.
    dials: Mutex<Option<Vec<PeerDial>>>,
    /// The hosting (first) I/O thread's doorbell.
    notify: Arc<IoNotify>,
    /// Tokens of peer sessions, from a range no accepted session reaches.
    next_token: AtomicU64,
}

/// A dial asked for: the peer's addresses, and who waits for the link.
type PeerDial = (Vec<SocketAddr>, DialDone);

impl ReactorHost {
    pub(super) fn new(notify: Arc<IoNotify>) -> Self {
        ReactorHost {
            dials: Mutex::new(Some(Vec::new())),
            notify,
            next_token: AtomicU64::new(1 << 62),
        }
    }

    fn take_dials(&self) -> Vec<PeerDial> {
        self.dials
            .lock()
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    fn has_dials(&self) -> bool {
        matches!(&*self.dials.lock(), Some(dials) if !dials.is_empty())
    }

    /// The hosting thread is exiting: nothing is taken from now on, and
    /// every dial still waiting fails.
    fn stop(&self) {
        let left = self.dials.lock().take().unwrap_or_default();
        for (_, done) in left {
            done(Err(shutting_down()));
        }
    }
}

fn shutting_down() -> ConnError {
    ConnError::Dead("daemon shutting down".to_string())
}

impl PeerHost for ReactorHost {
    fn dial_peer(&self, addrs: Vec<SocketAddr>, done: DialDone) {
        let refused = match self.dials.lock().as_mut() {
            Some(dials) => {
                dials.push((addrs, done));
                None
            }
            None => Some(done),
        };
        match refused {
            None => self.notify.ring(),
            Some(done) => done(Err(shutting_down())),
        }
    }
}

/// A peer link's dial in progress: the addresses not tried yet, when the
/// current attempt gives up, why the last one failed, and who waits for
/// the `HelloAck`.
struct Dial {
    rest: std::vec::IntoIter<SocketAddr>,
    deadline: std::time::Instant,
    failed: String,
    done: DialDone,
}

/// The first I/O thread's extra duties: the daemon's listening socket,
/// registered with that thread's poller as one more readiness source, and
/// — on a federated daemon — every peer link, which it dials.  Ready connections
/// are accepted nonblockingly and dealt round robin to every I/O thread
/// (itself included) — there is no dedicated, always-blocked accept
/// thread.
pub(super) struct ListenerRole {
    pub(super) listener: TcpListener,
    pub(super) targets: Vec<(Sender<TcpStream>, Arc<IoNotify>)>,
    pub(super) next: usize,
    /// Where the federation asks for dials.
    pub(super) host: Option<Arc<ReactorHost>>,
}

/// Where one reactor session is in its life.
enum Phase {
    /// A peer link this daemon dials: its connect is in progress.
    Connecting,
    /// Connected; the first frame must be a `Hello` — or, on a peer link
    /// this daemon dialed, the `HelloAck`.
    AwaitingHello,
    /// Handshake done; frames are parsed and dispatched.
    Serving,
    /// No more frames are read.  The session's abandoned submissions
    /// are answered by their completions; once none is outstanding the final sweep releases
    /// its leases and seals the write queue, and the socket closes when
    /// every queued byte is flushed (drain-aware close) — or at once if
    /// the client is gone.
    Closing,
}

/// One connection, as the state machine its I/O thread drives.
struct ReactorSession {
    stream: TcpStream,
    state: Arc<SessionState>,
    phase: Phase,
    /// Bytes received but not yet parsed into frames (partial frames
    /// accumulate here across readable events).
    read_buf: Vec<u8>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// The peer disconnected (EOF or transport error): close without
    /// waiting to flush.
    client_gone: bool,
    /// Set on a session of kind *peer*: a link this daemon dialed, whose
    /// replies are routed to the connection's requests and completions
    /// instead of being served as requests.
    peer: Option<Arc<Conn>>,
    /// A peer link's dial, until its `HelloAck` is in.
    dial: Option<Dial>,
    /// When a closing client session began to settle; taken once its
    /// final sweep is queued.
    settling_since: Option<std::time::Instant>,
}

impl ReactorSession {
    fn desired_interest(&self) -> Interest {
        let pending = self.state.queue.pending_bytes();
        match self.phase {
            Phase::Connecting => Interest::WRITE,
            // Keep reading while closing only to observe EOF promptly
            // (bytes are discarded); stop reading frames from a client
            // that is not draining its replies.  A peer's replies are
            // always read: they only answer what this daemon asked.
            Phase::Closing => Interest {
                read: true,
                write: pending > 0,
            },
            _ => Interest {
                read: self.peer.is_some() || !self.state.backlogged(),
                write: pending > 0,
            },
        }
    }

    /// The drain-aware close condition: the final sweep has sealed the
    /// queue, and everything queued has left — or the client vanished and
    /// there is nobody to flush to — or the client has refused to drain
    /// its replies for [`CLOSE_FLUSH_GRACE`] past the seal, in which case
    /// it is cut rather than allowed to wedge the drain.
    fn finished(&self) -> bool {
        matches!(self.phase, Phase::Closing)
            && self.state.queue.is_closed()
            && (self.client_gone
                || self.state.queue.pending_bytes() == 0
                || self.state.queue.sealed_longer_than(CLOSE_FLUSH_GRACE))
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One I/O thread: polls its sessions' sockets (plus, on the first
/// thread, the daemon's listener and its peer links), parses frames,
/// dispatches work, flushes write queues, fires its timers, and retires
/// sessions.  `first` is the first I/O thread's doorbell, rung when the
/// last client session of a draining daemon retires: that thread's peer
/// sessions outlive every client session, whose settling may still
/// release leases across them.
pub(super) fn io_thread_main(
    shared: Arc<ServerShared>,
    incoming: Receiver<TcpStream>,
    notify: Arc<IoNotify>,
    first: Arc<IoNotify>,
    mut poller: Box<dyn Poller>,
    mut role: Option<ListenerRole>,
) {
    // If waker registration fails the thread still functions — the
    // poll interval bounds how stale a wakeup can go.
    let _ = poller.register(notify.wake_fd(), WAKE_TOKEN, Interest::READ);
    if let Some(role) = &role {
        let _ = poller.register(role.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ);
    }
    let host = role.as_ref().and_then(|role| role.host.clone());
    let mut wheel = TimerWheel::new();
    wheel.add_periodic(SWEEP_TIMER, CLOSING_SWEEP_INTERVAL);
    // The anti-entropy gossip tick and the peer health probe are armed
    // on the listener thread only (exactly one of each per daemon).
    if role.is_some() {
        if let Some(federation) = &shared.federation {
            let interval = federation.gossip_interval();
            if interval > Duration::ZERO {
                wheel.add_periodic(GOSSIP_TIMER, interval);
            }
            let probe = federation.probe_interval();
            if probe > Duration::ZERO {
                wheel.add_periodic(PROBE_TIMER, probe);
            }
        }
    }
    let mut sessions: HashMap<u64, ReactorSession> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    // Whether the drain's close-everything pass has run: until it has, a
    // raised drain flag is work nobody rings for twice.
    let mut drain_seen = false;
    loop {
        #[cfg(test)]
        shared.io_loops.fetch_add(1, Ordering::Relaxed);
        if shared.draining.load(Ordering::SeqCst) && drained(&shared, &sessions) {
            // The daemon's last client session is gone: nobody will send
            // over a peer link again.
            for session in sessions.values_mut() {
                if let Some(conn) = &session.peer {
                    conn.poison("daemon shut down".to_string());
                    if let Some(dial) = session.dial.take() {
                        (dial.done)(Err(ConnError::Dead("daemon shut down".to_string())));
                    }
                    let _ = session.stream.shutdown(std::net::Shutdown::Both);
                }
            }
            break;
        }
        let may_block = notify.park(|| {
            !incoming.is_empty()
                || host.as_ref().is_some_and(|host| host.has_dials())
                || (!drain_seen && shared.draining.load(Ordering::SeqCst))
        });
        let timeout = if may_block {
            wheel.poll_timeout(IO_POLL_INTERVAL)
        } else {
            Duration::ZERO
        };
        if poller.poll(&mut events, Some(timeout)).is_err() {
            // A failing poller must not hot-loop the thread.
            // lint-allow(sleep-poll): a poller that fails has no readiness to wait on
            std::thread::sleep(Duration::from_millis(5));
        }
        notify.unpark(events.iter().any(|event| event.token == WAKE_TOKEN));
        touched.clear();

        // New connections dealt over from the listener thread
        // (refused once a drain began — the dispatch race can hand
        // over a late socket).
        while let Ok(stream) = incoming.try_recv() {
            if shared.draining.load(Ordering::SeqCst) {
                let _ = stream.shutdown(std::net::Shutdown::Both);
                continue;
            }
            if let Some(token) = add_session(
                &shared,
                &mut *poller,
                &mut sessions,
                &mut next_token,
                &notify,
                stream,
            ) {
                touched.push(token);
            }
        }

        // Dials the federation asked for.
        if let Some(host) = &host {
            for (addrs, done) in host.take_dials() {
                let token = host.next_token.fetch_add(1, Ordering::Relaxed);
                let dial = Dial {
                    rest: addrs.into_iter(),
                    deadline: std::time::Instant::now(),
                    failed: "no address to dial".to_string(),
                    done,
                };
                if let Some(session) = connect_next(&mut *poller, token, &notify, dial) {
                    sessions.insert(token, session);
                    touched.push(token);
                }
            }
        }

        // Socket readiness.
        for event in events.iter().copied() {
            if event.token == WAKE_TOKEN {
                continue;
            }
            if event.token == LISTENER_TOKEN {
                if let Some(role) = role.as_mut() {
                    accept_ready(&shared, role);
                }
                continue;
            }
            let Some(session) = sessions.get_mut(&event.token) else {
                continue;
            };
            if matches!(session.phase, Phase::Connecting) {
                if event.writable || event.closed {
                    connect_ended(&mut *poller, &mut sessions, event.token, false);
                }
            } else {
                if event.readable || event.closed {
                    handle_readable(&shared, session);
                }
                if event.writable || event.closed {
                    flush_or_close(&shared, session);
                }
            }
            touched.push(event.token);
        }

        // Write queues touched by other threads, and closing sessions whose
        // last completion just ran.
        for token in notify.take_dirty() {
            if let Some(session) = sessions.get_mut(&token) {
                flush_or_close(&shared, session);
                touched.push(token);
            }
        }

        // Timers.  The closing sweep touches sessions whose stalled
        // clients produce no events of their own, so the
        // CLOSE_FLUSH_GRACE deadline is actually observed — and retires a
        // peer link whose completion has waited past its deadline.
        let now = std::time::Instant::now();
        for timer in wheel.expired(now) {
            match timer {
                SWEEP_TIMER => {
                    let mut late_dials = Vec::new();
                    for (token, session) in sessions.iter() {
                        let overdue = session.peer.as_ref().is_some_and(|conn| conn.expire(now));
                        if overdue || matches!(session.phase, Phase::Closing) {
                            touched.push(*token);
                        }
                        if session
                            .dial
                            .as_ref()
                            .is_some_and(|dial| dial.deadline <= now)
                        {
                            late_dials.push(*token);
                        }
                    }
                    for token in late_dials {
                        connect_ended(&mut *poller, &mut sessions, token, true);
                        touched.push(token);
                    }
                }
                // The gossip tick or the probe: rounds of completions,
                // skipped while draining.
                _ => {
                    let draining = shared.draining.load(Ordering::SeqCst);
                    match shared.federation.as_ref().filter(|_| !draining) {
                        Some(federation) if timer == GOSSIP_TIMER => federation.gossip_tick(),
                        Some(federation) => federation.probe_peers(),
                        None => {}
                    }
                }
            }
        }

        // A drain closes every client session still open (each settles
        // whatever its vanished or idle client left behind).  Peer links
        // stay up until the last one is gone.
        if shared.draining.load(Ordering::SeqCst) {
            drain_seen = true;
            for (token, session) in sessions.iter_mut() {
                if session.peer.is_none() {
                    begin_close(session);
                    touched.push(*token);
                }
            }
        }

        // Re-parse, retire, and re-register everything touched.
        touched.sort_unstable();
        touched.dedup();
        for token in touched.iter().copied() {
            refresh_session(&shared, &mut *poller, &mut sessions, token, &first);
        }
    }
    if let Some(host) = host {
        host.stop();
    }
}

/// Whether a draining I/O thread may exit: none of its client sessions is
/// left, and — if it carries peer links — none of the daemon's.
fn drained(shared: &ServerShared, sessions: &HashMap<u64, ReactorSession>) -> bool {
    let peers = sessions.values().filter(|s| s.peer.is_some()).count();
    peers == sessions.len() && (peers == 0 || shared.client_sessions.load(Ordering::SeqCst) == 0)
}

/// Drains every connection the listener has ready: during a drain
/// each is refused outright; otherwise it is dealt to the next I/O
/// thread round robin and that thread's doorbell rung.
fn accept_ready(shared: &Arc<ServerShared>, role: &mut ListenerRole) {
    loop {
        match role.listener.accept() {
            Ok((stream, _)) => {
                if shared.draining.load(Ordering::SeqCst) {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    continue;
                }
                let (tx, notify) = &role.targets[role.next % role.targets.len()];
                role.next = role.next.wrapping_add(1);
                if tx.send(stream).is_ok() {
                    notify.ring();
                }
            }
            Err(e) if would_block(&e) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Registers a fresh connection as a session in the hello phase.
fn add_session(
    shared: &ServerShared,
    poller: &mut dyn Poller,
    sessions: &mut HashMap<u64, ReactorSession>,
    next_token: &mut u64,
    notify: &Arc<IoNotify>,
    stream: TcpStream,
) -> Option<u64> {
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        return None;
    }
    let socket = stream.try_clone().ok()?;
    let token = *next_token;
    *next_token += 1;
    let queue = OutQueue::new(token, notify.clone(), socket);
    if poller
        .register(stream.as_raw_fd(), token, Interest::READ)
        .is_err()
    {
        return None;
    }
    shared.client_sessions.fetch_add(1, Ordering::SeqCst);
    sessions.insert(
        token,
        ReactorSession {
            stream,
            state: SessionState::new(queue),
            phase: Phase::AwaitingHello,
            read_buf: Vec::new(),
            interest: Interest::READ,
            client_gone: false,
            peer: None,
            dial: None,
            settling_since: None,
        },
    );
    Some(token)
}

/// A fresh peer session under `token`, its non-blocking connect to the
/// next address of `dial` under way — given [`CONNECT_TIMEOUT`] for the
/// connect and the `HelloAck` together.  With no address left the dial
/// fails.  The connection is born attached to the session's queue.
fn connect_next(
    poller: &mut dyn Poller,
    token: u64,
    notify: &Arc<IoNotify>,
    mut dial: Dial,
) -> Option<ReactorSession> {
    for addr in dial.rest.by_ref() {
        let stream = match connect_nonblocking(addr) {
            Ok(stream) => stream,
            Err(e) => {
                dial.failed = format!("connect {addr}: {e}");
                continue;
            }
        };
        let Ok(socket) = stream.try_clone() else {
            continue;
        };
        if poller
            .register(stream.as_raw_fd(), token, Interest::WRITE)
            .is_err()
        {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let queue = OutQueue::new(token, notify.clone(), socket);
        let conn = Conn::attached(queue.clone());
        dial.deadline = std::time::Instant::now() + CONNECT_TIMEOUT;
        return Some(ReactorSession {
            stream,
            state: SessionState::new(queue),
            phase: Phase::Connecting,
            read_buf: Vec::new(),
            interest: Interest::WRITE,
            client_gone: false,
            peer: Some(conn),
            dial: Some(dial),
            settling_since: None,
        });
    }
    (dial.done)(Err(ConnError::Dead(dial.failed)));
    None
}

/// A dialing peer session's connect ended — its socket turned writable —
/// or the sweep found it past its [`CONNECT_TIMEOUT`] (`overdue`).  A
/// connect that succeeded says `Hello`; one that failed or is still in
/// progress gives way to the next address, under the same token; a peer
/// that accepted but never sent its `HelloAck` fails the dial.
fn connect_ended(
    poller: &mut dyn Poller,
    sessions: &mut HashMap<u64, ReactorSession>,
    token: u64,
    overdue: bool,
) {
    let Some(session) = sessions.get_mut(&token) else {
        return;
    };
    if !matches!(session.phase, Phase::Connecting) {
        if let Some(dial) = session.dial.take() {
            let silent = format!("no HelloAck within {CONNECT_TIMEOUT:?}");
            (dial.done)(Err(ConnError::Dead(silent)));
        }
        return begin_close(session);
    }
    let failed = match session.stream.take_error() {
        _ if overdue => format!("no connection within {CONNECT_TIMEOUT:?}"),
        Ok(None) => {
            session.phase = Phase::AwaitingHello;
            let _ = session.state.queue.push(&ClientFrame::Hello {
                min_version: MIN_SUPPORTED_VERSION,
                max_version: PROTOCOL_VERSION,
            });
            return;
        }
        Ok(Some(e)) | Err(e) => e.to_string(),
    };
    let session = sessions.remove(&token).expect("session just seen");
    let _ = poller.deregister(session.stream.as_raw_fd());
    let Some(mut dial) = session.dial else {
        return;
    };
    dial.failed = format!("connect: {failed}");
    if let Some(next) = connect_next(poller, token, &session.state.queue.notify, dial) {
        sessions.insert(token, next);
    }
}

/// A dialed peer's first frame: a `HelloAck` this daemon speaks ends the
/// dial — `done` gets the connection — and anything else fails it.
fn hello_acked(session: &mut ReactorSession, conn: &Arc<Conn>, frame: ServerFrame) -> bool {
    let Some(dial) = session.dial.take() else {
        return false;
    };
    match frame {
        ServerFrame::HelloAck { version } if version >= MIN_SUPPORTED_VERSION => {
            session.phase = Phase::Serving;
            (dial.done)(Ok(conn.clone()));
            true
        }
        other => {
            let refused = format!("handshake: expected HelloAck, got {other:?}");
            (dial.done)(Err(ConnError::Dead(refused)));
            false
        }
    }
}

/// Pulls available bytes (one bounded burst), parses complete frames,
/// dispatches them, and begins the close on EOF — after parsing, so a
/// client that submits and immediately hangs up still gets its work
/// settled rather than dropped.
fn handle_readable(shared: &Arc<ServerShared>, session: &mut ReactorSession) {
    // A closing session's bytes are discarded (only its EOF matters) —
    // bounded per event all the same: a client that blasts bytes after
    // close must not monopolize the I/O thread either.
    let closing = matches!(session.phase, Phase::Closing);
    let mut chunk = [0u8; 16 * 1024];
    let mut eof = false;
    let mut taken = 0usize;
    while taken < READ_BURST {
        match session.stream.read(&mut chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                taken += n;
                if !closing {
                    session.read_buf.extend_from_slice(&chunk[..n]);
                }
            }
            Err(e) if would_block(&e) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                eof = true;
                break;
            }
        }
    }
    if !closing {
        parse_and_dispatch(shared, session);
    }
    if eof {
        session.client_gone = true;
        begin_close(session);
    }
}

/// Parses every complete frame buffered for the session and
/// dispatches it, stopping early when the session is backlogged — its
/// write queue or its unanswered completions crossed their high-water
/// mark (the leftovers stay buffered and are re-parsed once that drains).
/// Garbage — a length prefix over
/// [`MAX_FRAME_LEN`](actyp_proto::MAX_FRAME_LEN) or an undecodable
/// body — ends the session, settled like any other.  A pass that decodes
/// more than one frame counts them as batched (`frames_batched`).
fn parse_and_dispatch(shared: &Arc<ServerShared>, session: &mut ReactorSession) {
    if let Some(conn) = session.peer.clone() {
        return route_replies(session, &conn);
    }
    let mut pos = 0usize;
    let mut frames = 0u64;
    loop {
        if matches!(session.phase, Phase::Closing) {
            break;
        }
        let next = match split_frame(&session.read_buf[pos..]) {
            Ok(None) => break,
            Ok(Some((body, used))) => ClientFrame::from_wire_bytes(body)
                .ok()
                .map(|frame| (frame, used)),
            Err(_) => None,
        };
        let Some((frame, used)) = next else {
            begin_close(session);
            break;
        };
        pos += used;
        frames += 1;
        dispatch_frame(shared, session, frame);
        if session.state.backlogged() {
            break;
        }
    }
    if frames > 1 {
        shared.frames_batched.fetch_add(frames, Ordering::Relaxed);
    }
    consume(session, pos);
}

/// Drops the first `pos` parsed bytes of the session's read buffer.
fn consume(session: &mut ReactorSession, pos: usize) {
    if matches!(session.phase, Phase::Closing) {
        // Nothing buffered will ever be parsed now (and a mid-loop
        // close may have replaced the buffer already): drop it whole
        // instead of draining against a stale offset.
        session.read_buf = Vec::new();
    } else if pos > 0 {
        session.read_buf.drain(..pos);
        if session.read_buf.is_empty() && session.read_buf.capacity() > BUF_SHRINK_THRESHOLD {
            session.read_buf.shrink_to(BUF_SHRINK_THRESHOLD);
        }
    }
}

/// The read path of a session of kind *peer*: its first frame ends the
/// dial ([`hello_acked`]), and every later reply is routed through the
/// link's relay to its completion, run right here on the I/O thread.  A
/// frame that cannot be decoded, or that answers nothing this daemon
/// asked, kills the link.
fn route_replies(session: &mut ReactorSession, conn: &Arc<Conn>) {
    let mut pos = 0usize;
    while !matches!(session.phase, Phase::Closing) {
        let routed = match split_frame(&session.read_buf[pos..]) {
            Ok(None) => break,
            Ok(Some((body, used))) => {
                pos += used;
                match ServerFrame::from_wire_bytes(body) {
                    Ok(frame) if session.dial.is_some() => hello_acked(session, conn, frame),
                    Ok(frame) => conn.route(frame).is_ok(),
                    Err(e) => {
                        conn.poison(format!("frame decode error: {e}"));
                        false
                    }
                }
            }
            Err(e) => {
                conn.poison(format!("frame decode error: {e}"));
                false
            }
        };
        // A completion that just ran may have retired this very link.
        if !routed || conn.is_dead() {
            begin_close(session);
        }
    }
    consume(session, pos);
}

/// The one frame-dispatch `match` of the serving side.  *Who answers* is a
/// property of the call, not of the frame type: a call whose answer is at
/// hand is finished right here on the I/O thread; a submission (answered
/// by its outcome, once the window has launched it), a release and a
/// delegation are finished by whichever thread produces the answer.
/// Whoever finishes writes the reply (see [`OutQueue::push`]).
fn dispatch_frame(shared: &Arc<ServerShared>, session: &mut ReactorSession, frame: ClientFrame) {
    let state = session.state.clone();
    if matches!(session.phase, Phase::AwaitingHello) {
        match frame {
            ClientFrame::Hello {
                min_version,
                max_version,
            } => match negotiate(min_version, max_version) {
                Some(version) => {
                    state.send(&ServerFrame::HelloAck { version });
                    session.phase = Phase::Serving;
                }
                None => {
                    state.send(&ServerFrame::HelloReject {
                        message: format!(
                            "no common protocol version: client speaks \
                             {min_version}..={max_version}, server speaks \
                             {MIN_SUPPORTED_VERSION}..={PROTOCOL_VERSION}"
                        ),
                    });
                    begin_close(session);
                }
            },
            _ => {
                state.send(&ServerFrame::HelloReject {
                    message: "the first frame must be Hello".to_string(),
                });
                begin_close(session);
            }
        }
        return;
    }
    match frame {
        ClientFrame::Hello { .. } => {
            state.send(&ServerFrame::HelloReject {
                message: "duplicate Hello".to_string(),
            });
            begin_close(session);
        }
        ClientFrame::Submit { corr, query: text } => {
            // Parse errors map exactly as the trait's own text path maps
            // them for an in-process client.
            let query = match actyp_query::parse_query(&text) {
                Ok(query) => query,
                Err(e) => {
                    state.send(&ServerFrame::Error {
                        corr,
                        error: AllocationError::Parse(e.to_string()),
                    });
                    return;
                }
            };
            // One call: the backend launches the query now or queues it in
            // its window (the eager backends resolve it here), and
            // whichever thread has the outcome writes it as the reply —
            // also after the client left: a federated chain starts only
            // while the session is open, and a granted lease goes back with
            // the final sweep.  Counted on the session until the reply is
            // written.
            let pending = Pending::new(&state);
            let done_state = state.clone();
            let done: AllocateDone = Box::new(move |outcome| {
                done_state.deliver_outcome(corr, outcome);
                drop(pending);
            });
            match &shared.federation {
                Some(federation) => {
                    let session = state.clone();
                    let open = move || !session.closing.load(Ordering::SeqCst);
                    federation.allocate_while(query, text, open, done)
                }
                None => shared.manager.allocate_with(query, done),
            }
        }
        // Reserved: the daemon issues no ticket to redeem.
        ClientFrame::Wait { corr, .. } => state.send(&ServerFrame::Error {
            corr,
            error: AllocationError::UnknownTicket,
        }),
        ClientFrame::Release { corr, allocation } => {
            // The I/O thread never waits for the answer: the backend stage
            // that drops the lease posts the reply.  Counted on the
            // session until it has run.
            let pending = Pending::new(&state);
            let done_state = state.clone();
            let key = allocation.access_key.0.clone();
            let done: ReleaseDone = Box::new(move |released| {
                done_state.reply_released(corr, &key, released);
                drop(pending);
            });
            release_allocation(shared, allocation, done);
        }
        ClientFrame::Stats { corr } => {
            // The backend fills its own counters; the transport
            // batching counters belong to the daemon and are overlaid
            // here.
            let mut stats = shared.manager.stats();
            stats.frames_batched = shared.frames_batched.load(Ordering::Relaxed);
            stats.writes_coalesced = shared.writes_coalesced.load(Ordering::Relaxed);
            state.send(&ServerFrame::StatsReply { corr, stats });
        }
        ClientFrame::Shutdown { corr } => {
            state.send(&ServerFrame::Ack { corr });
            begin_close(session);
        }
        ClientFrame::Halt { corr } => {
            state.send(&ServerFrame::Ack { corr });
            shared.begin_drain();
            begin_close(session);
        }
        ClientFrame::Delegate {
            corr,
            query,
            ttl,
            visited,
        } => {
            let Some(federation) = shared.federation.clone() else {
                state.send(&not_federated(corr));
                return;
            };
            // Submitted to the local backend from here; the chain goes on
            // as completions, and whichever thread ends it — the
            // pool-manager stage answering the last fragment, or the I/O
            // thread of the next hop's link — writes `Delegated`.  Counted
            // on the session until it has run.
            let pending = Pending::new(&state);
            let (done_state, done_federation) = (state.clone(), federation.clone());
            let done: DelegateDone = Box::new(move |outcome, routing| {
                done_state.deliver_delegated(&done_federation, corr, outcome, routing);
                drop(pending);
            });
            federation.delegate_with(&query, ttl, &visited, done);
        }
        ClientFrame::SyncPools {
            corr,
            domain,
            pools: advertised,
            have,
        } => match &shared.federation {
            None => state.send(&not_federated(corr)),
            Some(federation) => {
                note_peer_session_domain(shared, &state, &domain);
                // A peer that connected to us: its listen address is
                // unknown, so its records are never a delegation candidate.
                let view = federation.view();
                view.record_advertisement(&domain, &advertised);
                view.gossip().note_peer_versions(&domain, &have);
                federation.refresh_gossip();
                let deltas = view.gossip().deltas_since(&have);
                state.send(&ServerFrame::PoolsSynced {
                    corr,
                    domain: federation.domain().to_string(),
                    pools: federation.local_pools(),
                    deltas,
                });
            }
        },
        ClientFrame::AdvertDelta {
            corr,
            domain,
            deltas,
            have,
        } => match &shared.federation {
            None => state.send(&not_federated(corr)),
            Some(federation) => {
                // Inline: applying deltas is pure in-memory state.
                note_peer_session_domain(shared, &state, &domain);
                federation.refresh_gossip();
                let reply = federation
                    .view()
                    .handle_advert_delta(&domain, &deltas, &have);
                state.send(&ServerFrame::AdvertAck {
                    corr,
                    domain: federation.domain().to_string(),
                    deltas: reply,
                });
            }
        },
    }
}

/// The reply to an inter-daemon frame on a daemon that is not federated.
fn not_federated(corr: RequestId) -> ServerFrame {
    ServerFrame::Error {
        corr,
        error: AllocationError::Protocol(
            "this daemon is not federated (no --domain/--peer)".to_string(),
        ),
    }
}

/// Transitions the session into [`Phase::Closing`] (idempotent).  A client
/// session waits for every reply it is owed, and [`refresh_session`] queues
/// its final sweep once nothing is outstanding.
/// A peer link has nothing to settle or flush: its connection dies —
/// failing whatever still waits on it — and the session retires at once.
fn begin_close(session: &mut ReactorSession) {
    if matches!(session.phase, Phase::Closing) {
        return;
    }
    session.phase = Phase::Closing;
    if let Some(conn) = &session.peer {
        conn.poison("peer link closed".to_string());
        if let Some(dial) = session.dial.take() {
            let closed = "peer link closed before its HelloAck".to_string();
            (dial.done)(Err(ConnError::Dead(closed)));
        }
        session.state.queue.close();
        session.client_gone = true;
        return;
    }
    session.settling_since = Some(std::time::Instant::now());
    session.state.closing.store(true, Ordering::SeqCst);
}

/// Releases `allocation`; `done` runs on the backend stage that drops the
/// lease.
fn release_allocation(shared: &Arc<ServerShared>, allocation: Allocation, done: ReleaseDone) {
    shared.manager.release_with(&allocation, done);
}

/// A closed session's final sweep, on its I/O thread: hands back every
/// allocation lease the client still held — including outcomes whose
/// delivery raced the disconnect — as releases counted on the session,
/// whose last answer brings the sweep round again.  A sweep that finds no
/// lease left seals the write queue, so the I/O thread can complete the
/// drain-aware close, and says so.
fn sweep_closed(shared: &Arc<ServerShared>, state: &Arc<SessionState>) -> bool {
    let leaked: Vec<Allocation> = state.leases.lock().drain().map(|(_, a)| a).collect();
    let sealed = leaked.is_empty();
    if sealed {
        state.queue.close();
    }
    for allocation in leaked {
        let pending = Pending::new(state);
        release_allocation(shared, allocation, Box::new(move |_| drop(pending)));
    }
    sealed
}

/// Flushes the session's write queue; a dead transport begins the close.
fn flush_or_close(shared: &Arc<ServerShared>, session: &mut ReactorSession) {
    if !flush_session(shared, session) {
        session.client_gone = true;
        begin_close(session);
    }
}

/// Flushes as much of the session's write queue as the socket takes.
/// Returns `false` when the transport is dead.
fn flush_session(shared: &Arc<ServerShared>, session: &mut ReactorSession) -> bool {
    loop {
        let mut buf = session.state.queue.buf.lock();
        if buf.sent >= buf.data.len() {
            buf.reset();
            return true;
        }
        match session.stream.write(&buf.data[buf.sent..]) {
            Ok(0) => return false,
            Ok(n) => {
                buf.sent += n;
                if buf.sent >= buf.data.len() {
                    // One socket write just drained everything queued;
                    // if that was several frames, the flush coalesced
                    // them into a single write.
                    if buf.frames > 1 {
                        shared.writes_coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    buf.reset();
                    return true;
                }
            }
            Err(e) if would_block(&e) => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Post-pass for a touched session: re-parse frames a drained write
/// queue unblocked, retire the session when its close completed, and
/// re-register interest when it changed.
fn refresh_session(
    shared: &Arc<ServerShared>,
    poller: &mut dyn Poller,
    sessions: &mut HashMap<u64, ReactorSession>,
    token: u64,
    first: &IoNotify,
) {
    let Some(session) = sessions.get_mut(&token) else {
        return;
    };
    // A peer link retired elsewhere — shut down, or a completion's
    // deadline passed — ends its session.
    if session.peer.as_ref().is_some_and(|conn| conn.is_dead()) {
        begin_close(session);
    }
    if !matches!(session.phase, Phase::Closing)
        && !session.read_buf.is_empty()
        && (session.peer.is_some() || !session.state.backlogged())
    {
        parse_and_dispatch(shared, session);
    }
    // A closing session with nothing outstanding — or outstanding past
    // the settle bound — gets its final sweep, until one seals it.
    let settled = |since: std::time::Instant| {
        session.state.outstanding() == 0 || since.elapsed() > CLOSE_SETTLE_BOUND
    };
    if session.settling_since.is_some_and(settled) && sweep_closed(shared, &session.state) {
        session.settling_since = None;
    }
    if session.finished() {
        let session = sessions.remove(&token).expect("session just seen");
        let _ = poller.deregister(session.stream.as_raw_fd());
        let _ = session.stream.shutdown(std::net::Shutdown::Both);
        let last =
            session.peer.is_none() && shared.client_sessions.fetch_sub(1, Ordering::SeqCst) == 1;
        if last && shared.draining.load(Ordering::SeqCst) {
            first.ring();
        }
        return;
    }
    // A vanished client's socket leaves the poller while its session
    // settles (again, harmlessly, on later passes): epoll reports a
    // hangup whatever the interest, on every turn.
    if session.client_gone {
        let _ = poller.deregister(session.stream.as_raw_fd());
        return;
    }
    let wanted = session.desired_interest();
    if wanted != session.interest
        && poller
            .reregister(session.stream.as_raw_fd(), token, wanted)
            .is_ok()
    {
        session.interest = wanted;
    }
}

/// Per-connection session state: the write queue replies go to, the
/// allocation leases the session currently holds, and how many replies it
/// is owed.  The daemon keeps no ticket for a session: a `Submit`'s outcome
/// is its reply.
pub(super) struct SessionState {
    queue: Arc<OutQueue>,
    /// Allocations delivered to this client and not yet released, keyed by
    /// access key.  Allocations are *session leases*: whatever is still
    /// here when the session ends is handed back, so a client that
    /// crashes (even one whose Outcome reply raced its disconnect) cannot
    /// strand a machine claim.
    leases: Mutex<HashMap<String, Allocation>>,
    /// Requests somebody else still owes a reply to ([`Pending`]): bounded
    /// by pausing the read side.
    completions: AtomicUsize,
    /// Set when the session begins to close: from then on the last
    /// [`Pending`] to finish rings the I/O thread for the final sweep, and
    /// no federated redemption starts a chain.
    closing: AtomicBool,
    /// The federation domain the peer on this session advertised (via
    /// `SyncPools` or `AdvertDelta`); `None` on ordinary client sessions.
    /// Keyed per session so gossip piggybacking knows who it is talking
    /// to, and so a re-advertisement under a *different* name retires the
    /// old domain.
    peer_domain: Mutex<Option<String>>,
}

impl SessionState {
    fn new(queue: Arc<OutQueue>) -> Arc<Self> {
        Arc::new(SessionState {
            queue,
            leases: Mutex::new(HashMap::new()),
            completions: AtomicUsize::new(0),
            closing: AtomicBool::new(false),
            peer_domain: Mutex::new(None),
        })
    }

    /// Best-effort reply; a vanished client is detected by the read side.
    /// Never blocks: the socket is non-blocking, and what it does not take
    /// is queued for the session's I/O thread.
    pub(super) fn send(&self, frame: &ServerFrame) {
        let _ = self.queue.push(frame);
    }

    /// Requests of this session somebody else still owes a reply to.
    fn outstanding(&self) -> usize {
        self.completions.load(Ordering::SeqCst)
    }

    /// Whether the session should stop reading frames for now: the client
    /// is not draining its replies, or it pipelined more submissions,
    /// releases and delegations than the backend has answered yet.
    fn backlogged(&self) -> bool {
        self.queue.pending_bytes() > OUT_HIGH_WATER
            || self.completions.load(Ordering::Relaxed) >= COMPLETIONS_HIGH_WATER
    }

    /// Records the allocations of an outcome about to be delivered as
    /// session leases.  The lease is taken *before* the reply leaves, so
    /// there is no window in which the allocation belongs to nobody.
    fn lease(&self, outcome: &QueryOutcome) {
        if let Ok(allocations) = outcome {
            let mut leases = self.leases.lock();
            for allocation in allocations {
                leases.insert(allocation.access_key.0.clone(), allocation.clone());
            }
        }
    }

    /// Answers a `Release` of the lease under access key `key`; only a
    /// release that succeeded ends the session's lease.
    fn reply_released(&self, corr: RequestId, key: &str, released: Result<(), AllocationError>) {
        match released {
            Ok(()) => {
                self.leases.lock().remove(key);
                self.send(&ServerFrame::Released { corr });
            }
            Err(error) => self.send(&ServerFrame::Error { corr, error }),
        }
    }

    fn deliver_outcome(&self, corr: RequestId, outcome: QueryOutcome) {
        self.lease(&outcome);
        self.send(&ServerFrame::Outcome { corr, outcome });
    }

    /// A delegated outcome's allocations are leased to the *peer
    /// daemon's* session, so a peer that vanishes holding them strands
    /// nothing here.  Whatever gossip the delegating peer has not
    /// acknowledged yet rides the reply it is already waiting for — a free
    /// anti-entropy round.
    fn deliver_delegated(
        &self,
        federation: &FederatedBackend,
        corr: RequestId,
        outcome: QueryOutcome,
        state: crate::message::RoutingState,
    ) {
        let peer = self.peer_domain.lock().clone();
        let deltas = match peer {
            Some(peer) => federation.piggyback_deltas(&peer),
            None => Vec::new(),
        };
        self.lease(&outcome);
        self.send(&ServerFrame::Delegated {
            corr,
            outcome,
            ttl: state.ttl,
            visited: state.visited,
            deltas,
        });
    }
}

/// One request of a session that somebody else still owes an answer to,
/// counted on the session until dropped — with its completion, run or not
/// — so the count cannot leak.  Never refused: held back by pausing the
/// read side at [`COMPLETIONS_HIGH_WATER`].
struct Pending {
    state: Arc<SessionState>,
}

impl Pending {
    fn new(state: &Arc<SessionState>) -> Self {
        state.completions.fetch_add(1, Ordering::SeqCst);
        Pending {
            state: state.clone(),
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        let state = &self.state;
        let paused = state.completions.fetch_sub(1, Ordering::SeqCst) >= COMPLETIONS_HIGH_WATER;
        // The session stopped reading at the high-water mark, or it is
        // closing and this was the last answer it waited for: the reply
        // that was just written rang nobody, so the I/O thread is told to
        // look at the session again.
        if paused || (state.closing.load(Ordering::SeqCst) && state.outstanding() == 0) {
            state.queue.notify.mark_dirty(state.queue.token);
        }
    }
}

/// Records which federation domain the peer on this session speaks for.
/// A session that re-advertises under a *new* name is a daemon restarted
/// into a different identity on a still-open connection: everything held
/// under the old domain — directory records, gossip origin log, learned
/// routes — is retired atomically, instead of lingering as a routable
/// ghost beside the new name.
fn note_peer_session_domain(shared: &ServerShared, state: &SessionState, domain: &str) {
    let previous = state.peer_domain.lock().replace(domain.to_string());
    if let Some(previous) = previous {
        if previous != domain {
            if let Some(federation) = &shared.federation {
                federation.view().retire_domain(&previous);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{PipelineBuilder, ResourceManager};
    use crate::reactor::PollerKind;
    use actyp_grid::{FleetSpec, SyntheticFleet};

    /// A connected loopback pair: the session's (non-blocking) end and the
    /// client's.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (session, _) = listener.accept().unwrap();
        session.set_nonblocking(true).unwrap();
        (session, client)
    }

    fn session_over(notify: &Arc<IoNotify>, token: u64, socket: TcpStream) -> Arc<SessionState> {
        SessionState::new(Arc::new(OutQueue {
            token,
            notify: notify.clone(),
            socket,
            buf: Mutex::new(OutBuf::default()),
        }))
    }

    /// A session whose socket takes no bytes (its write side is shut), so
    /// every reply stays queued for the I/O thread.
    fn session_on(notify: &Arc<IoNotify>, token: u64) -> Arc<SessionState> {
        let (session, _client) = socket_pair();
        session.shutdown(std::net::Shutdown::Write).unwrap();
        session_over(notify, token, session)
    }

    /// A reply the socket takes leaves from the thread that made it: no
    /// queued byte, no dirty mark, no ring for the I/O thread.
    #[test]
    fn a_reply_leaves_from_the_thread_that_made_it() {
        let notify = Arc::new(IoNotify::new().unwrap());
        let (session, mut client) = socket_pair();
        let state = session_over(&notify, 3, session);
        let stage = std::thread::spawn({
            let state = state.clone();
            move || state.send(&ServerFrame::Released { corr: RequestId(5) })
        });
        stage.join().unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(
            actyp_proto::read_server_frame(&mut client).unwrap(),
            Some(ServerFrame::Released { corr: RequestId(5) })
        );
        assert_eq!(state.queue.pending_bytes(), 0);
        assert!(notify.take_dirty().is_empty(), "nothing for the I/O thread");
        assert_eq!(notify.rings.load(Ordering::Relaxed), 0);
    }

    /// A completion that runs after its session retired writes through the
    /// queue's own handle on the retired socket — never into the fd number
    /// the kernel hands the next connection.
    #[test]
    fn a_completion_after_its_session_retired_reaches_no_new_connection() {
        let notify = Arc::new(IoNotify::new().unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut old_client = TcpStream::connect(addr).unwrap();
        let (old_session, _) = listener.accept().unwrap();
        old_session.set_nonblocking(true).unwrap();
        let state = session_over(&notify, 0, old_session.try_clone().unwrap());
        // Retired, exactly as `refresh_session` retires a finished session.
        let _ = old_session.shutdown(std::net::Shutdown::Both);
        drop(old_session);
        let mut new_client = TcpStream::connect(addr).unwrap();
        let (_new_session, _) = listener.accept().unwrap();

        state.send(&ServerFrame::Released { corr: RequestId(1) });

        new_client
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut byte = [0u8; 1];
        match new_client.read(&mut byte) {
            Err(e) if would_block(&e) => {}
            other => panic!("a retired session's reply reached a new connection: {other:?}"),
        }
        old_client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(
            old_client.read(&mut byte).unwrap(),
            0,
            "the retired client sees EOF only"
        );
    }

    /// The doorbell's economy: a reply left queued while the I/O loop is
    /// running — by the loop itself or by anyone else — writes nothing, and
    /// however many pushers race a loop that keeps trying to go back to
    /// sleep, each iteration lets at most one of them write the pipe.
    #[test]
    fn pushes_cost_at_most_one_pipe_write_per_loop_iteration() {
        let notify = Arc::new(IoNotify::new().unwrap());
        let state = session_on(&notify, 7);
        let frame = ServerFrame::Released { corr: RequestId(0) };

        // The loop is awake (it is this thread): 1,000 pushes, no write.
        for _ in 0..1_000 {
            state.send(&frame);
        }
        assert_eq!(notify.rings.load(Ordering::Relaxed), 0);
        assert_eq!(notify.take_dirty(), vec![7]);

        // Four pushers against a loop that parks on every iteration.
        let mut poller = PollerKind::Auto.create().unwrap();
        poller
            .register(notify.wake_fd(), WAKE_TOKEN, Interest::READ)
            .unwrap();
        let pushers: Vec<_> = (0..4)
            .map(|_| {
                let state = state.clone();
                let frame = frame.clone();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        state.send(&frame);
                    }
                })
            })
            .collect();
        let mut events = Vec::new();
        let mut iterations = 0u64;
        while !pushers.iter().all(|pusher| pusher.is_finished()) {
            iterations += 1;
            let timeout = if notify.park(|| false) {
                Duration::from_millis(1)
            } else {
                Duration::ZERO
            };
            poller.poll(&mut events, Some(timeout)).unwrap();
            notify.unpark(events.iter().any(|event| event.token == WAKE_TOKEN));
            notify.take_dirty();
        }
        for pusher in pushers {
            pusher.join().unwrap();
        }
        let rings = notify.rings.load(Ordering::Relaxed);
        assert!(
            rings <= iterations,
            "{rings} pipe writes for {iterations} loop iterations"
        );
        assert_eq!(state.queue.buf.lock().frames, 2_000, "every push landed");
    }

    /// A `Release` whose stage answers after the session is gone: the
    /// completion finds a sealed write queue and a lease table nobody will
    /// sweep again — the lease it was asked to drop is dropped all the
    /// same, and nothing panics on the pool-manager thread.
    #[test]
    fn a_release_completing_after_its_session_closed_strands_nothing() {
        let db = SyntheticFleet::new(FleetSpec::with_machines(100), 31)
            .generate()
            .into_shared();
        let live = PipelineBuilder::new()
            .database(db.clone())
            .build_live()
            .unwrap();
        let granted = live
            .submit_text_wait(&actyp_query::Query::paper_example().to_string())
            .unwrap();

        let notify = Arc::new(IoNotify::new().unwrap());
        let state = session_on(&notify, 0);
        state.lease(&Ok(granted.clone()));
        // The session ends (its final sweep sealed the queue) before the stage
        // gets to the release.
        state.queue.close();

        let (landed_tx, landed_rx) = std::sync::mpsc::channel();
        let done_state = state.clone();
        let key = granted[0].access_key.0.clone();
        live.release_with(
            &granted[0],
            Box::new(move |released| {
                done_state.reply_released(RequestId(9), &key, released);
                landed_tx.send(()).unwrap();
            }),
        );
        landed_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the stage ran the completion");

        assert!(state.leases.lock().is_empty());
        assert_eq!(
            state.queue.pending_bytes(),
            0,
            "a sealed queue takes no reply"
        );
        let stats = live.stats();
        assert_eq!(stats.allocations, stats.releases);
        let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(active, 0);
        live.shutdown().unwrap();
    }
}
