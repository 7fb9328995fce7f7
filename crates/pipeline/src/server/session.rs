//! The session engine: everything that runs on (or is reachable from) a
//! reactor I/O thread.
//!
//! [`io_thread_main`] drives every session's nonblocking socket through a
//! [`Poller`].  Each session is an explicit state machine
//! ([`ReactorSession`]).  A request that cannot park is answered on the
//! I/O thread; one whose answer a backend stage, the admission window or a
//! peer daemon produces is left with it as a completion, and so are a
//! closing session's settles; only what would park goes to a worker lane
//! ([`super::lanes`]).  Whoever produces a reply writes it:
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
use std::net::{TcpListener, TcpStream};
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

use super::lanes::Pools;
use super::ServerShared;
use crate::allocation::{Allocation, AllocationError, ReleaseDone, WaitDone};
use crate::api::{QueryOutcome, ResourceManager, SubmitDone, Ticket};
use crate::corr::{Conn, FrameSink};
use crate::federation::{DelegateDone, FederatedBackend, PeerHost};
use crate::reactor::{Doorbell, Event, Interest, Poller, TimerWheel, Waker, WorkerPool};

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

/// Upper bound on a session's unanswered requests other than submissions
/// still waiting for their launch before it stops *reading*: an error reply
/// would strand a lease, a ticket or launched work, so a pipelined burst
/// waits in the socket instead.
pub(super) const COMPLETIONS_HIGH_WATER: usize = 256;

/// Upper bound on a session's submissions queued in the admission window
/// or on the submit lane, past which one is refused with an error — not
/// paused: it may wait for permits only the session's unread frames return.
const MAX_SESSION_SUBMISSIONS: usize = 256;

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
/// thread, backend stage thread, worker lane, final sweep) encodes it here
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
}

/// What a federated daemon lends its federation ([`PeerHost`]): the first
/// I/O thread takes dialed peer sockets over as sessions of kind *peer*,
/// and the redeem lane runs the steps that must park.
pub(super) struct ReactorHost {
    /// Peer sockets handed over and not yet registered; `None` once the
    /// hosting thread has stopped taking sessions.  Handing over and
    /// stopping both happen under this lock, so no socket is ever left
    /// behind in it.
    adoptions: Mutex<Option<Vec<Adoption>>>,
    /// The hosting (first) I/O thread's doorbell.
    notify: Arc<IoNotify>,
    /// Tokens of peer sessions, from a range no accepted session reaches.
    next_token: AtomicU64,
    pools: Arc<Pools>,
}

/// A dialed peer socket on its way to the hosting I/O thread.
pub(super) struct Adoption {
    stream: TcpStream,
    unread: Vec<u8>,
    queue: Arc<OutQueue>,
    conn: Arc<Conn>,
}

impl ReactorHost {
    pub(super) fn new(notify: Arc<IoNotify>, pools: Arc<Pools>) -> Self {
        ReactorHost {
            adoptions: Mutex::new(Some(Vec::new())),
            notify,
            next_token: AtomicU64::new(1 << 62),
            pools,
        }
    }

    fn take_adoptions(&self) -> Vec<Adoption> {
        self.adoptions
            .lock()
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    fn has_adoptions(&self) -> bool {
        matches!(&*self.adoptions.lock(), Some(waiting) if !waiting.is_empty())
    }

    /// The hosting thread is exiting: no socket is taken from now on, and
    /// any still waiting is failed, so nobody waits on a link no session
    /// will ever read.
    fn stop(&self) {
        let left = self.adoptions.lock().take().unwrap_or_default();
        for adoption in left {
            adoption.conn.poison("daemon shutting down".to_string());
        }
    }
}

impl PeerHost for ReactorHost {
    fn adopt(
        &self,
        stream: TcpStream,
        unread: Vec<u8>,
        conn: Arc<Conn>,
    ) -> Result<Arc<dyn FrameSink>, (TcpStream, Vec<u8>)> {
        let Ok(socket) = stream.try_clone() else {
            return Err((stream, unread));
        };
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let queue = OutQueue::new(token, self.notify.clone(), socket);
        {
            let mut adoptions = self.adoptions.lock();
            let Some(waiting) = adoptions.as_mut() else {
                return Err((stream, unread));
            };
            if stream.set_nonblocking(true).is_err() {
                return Err((stream, unread));
            }
            waiting.push(Adoption {
                stream,
                unread,
                queue: queue.clone(),
                conn,
            });
        }
        self.notify.ring();
        Ok(queue)
    }

    fn offload(&self, job: Box<dyn FnOnce() + Send>) {
        self.pools.redeem.execute(job);
    }
}

/// The first I/O thread's extra duties: the daemon's listening socket,
/// registered with that thread's poller as one more readiness source, and
/// — on a federated daemon — the peer links it dials.  Ready connections
/// are accepted nonblockingly and dealt round robin to every I/O thread
/// (itself included) — there is no dedicated, always-blocked accept
/// thread.
pub(super) struct ListenerRole {
    pub(super) listener: TcpListener,
    pub(super) targets: Vec<(Sender<TcpStream>, Arc<IoNotify>)>,
    pub(super) next: usize,
    /// Where the federation hands dialed peer sockets over.
    pub(super) host: Option<Arc<ReactorHost>>,
}

/// Where one reactor session is in its life.
enum Phase {
    /// Connected; the first frame must be a `Hello`.
    AwaitingHello,
    /// Handshake done; frames are parsed and dispatched.
    Serving,
    /// No more frames are read.  The session's abandoned tickets settle
    /// as completions; once none is outstanding the final sweep releases
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
    /// When a closing client session began to settle; taken once its
    /// final sweep is queued.
    settling_since: Option<std::time::Instant>,
}

impl ReactorSession {
    fn desired_interest(&self) -> Interest {
        let pending = self.state.queue.pending_bytes();
        match self.phase {
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
    let gossip_running = Arc::new(AtomicBool::new(false));
    let probe_running = Arc::new(AtomicBool::new(false));
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
            for session in sessions.values() {
                if let Some(conn) = &session.peer {
                    conn.poison("daemon shut down".to_string());
                    let _ = session.stream.shutdown(std::net::Shutdown::Both);
                }
            }
            break;
        }
        let may_block = notify.park(|| {
            !incoming.is_empty()
                || host.as_ref().is_some_and(|host| host.has_adoptions())
                || (!drain_seen && shared.draining.load(Ordering::SeqCst))
        });
        let timeout = if may_block {
            wheel.poll_timeout(IO_POLL_INTERVAL)
        } else {
            Duration::ZERO
        };
        if poller.poll(&mut events, Some(timeout)).is_err() {
            // A failing poller must not hot-loop the thread.
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

        // Peer links the federation dialed and handed over.
        for adoption in host.iter().flat_map(|host| host.take_adoptions()) {
            if let Some(token) = add_peer_session(&mut *poller, &mut sessions, adoption) {
                touched.push(token);
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
            if event.readable || event.closed {
                handle_readable(&shared, session);
            }
            if event.writable || event.closed {
                flush_or_close(&shared, session);
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
                    for (token, session) in sessions.iter() {
                        let overdue = session.peer.as_ref().is_some_and(|conn| conn.expire(now));
                        if overdue || matches!(session.phase, Phase::Closing) {
                            touched.push(*token);
                        }
                    }
                }
                GOSSIP_TIMER => {
                    run_periodic(&shared, &gossip_running, FederatedBackend::gossip_tick)
                }
                PROBE_TIMER => run_periodic(&shared, &probe_running, FederatedBackend::probe_peers),
                _ => {}
            }
        }

        // A drain closes every client session still open (each settles
        // whatever its vanished or idle client left behind).  Peer links
        // stay up until the last one is gone.
        if shared.draining.load(Ordering::SeqCst) {
            drain_seen = true;
            for (token, session) in sessions.iter_mut() {
                if session.peer.is_none() {
                    begin_close(&shared, session);
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

/// Queues one round of a periodic federation duty on the redeem lane — a
/// peer exchange is bounded peer I/O, never admission-window blocking —
/// unless the daemon is draining or the previous round is still running:
/// a round slower than its interval is skipped, not stacked.
fn run_periodic<R: 'static>(
    shared: &ServerShared,
    running: &Arc<AtomicBool>,
    round: fn(&FederatedBackend) -> R,
) {
    let Some(federation) = &shared.federation else {
        return;
    };
    if shared.draining.load(Ordering::SeqCst) || running.swap(true, Ordering::SeqCst) {
        return;
    }
    let federation = federation.clone();
    let running = running.clone();
    shared.pools.redeem.execute(move || {
        round(&federation);
        running.store(false, Ordering::SeqCst);
    });
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
            settling_since: None,
        },
    );
    Some(token)
}

/// Registers a dialed peer link as a session of kind *peer*: its
/// handshake is done, and what was read past its last reply is the first
/// thing routed.
fn add_peer_session(
    poller: &mut dyn Poller,
    sessions: &mut HashMap<u64, ReactorSession>,
    adoption: Adoption,
) -> Option<u64> {
    let Adoption {
        stream,
        unread,
        queue,
        conn,
    } = adoption;
    let token = queue.token;
    if poller
        .register(stream.as_raw_fd(), token, Interest::READ)
        .is_err()
    {
        conn.poison("peer link could not join the reactor".to_string());
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return None;
    }
    sessions.insert(
        token,
        ReactorSession {
            stream,
            state: SessionState::new(queue),
            phase: Phase::Serving,
            read_buf: unread,
            interest: Interest::READ,
            client_gone: false,
            peer: Some(conn),
            settling_since: None,
        },
    );
    Some(token)
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
        begin_close(shared, session);
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
        return route_replies(shared, session, &conn);
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
            begin_close(shared, session);
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

/// The read path of a session of kind *peer*: every complete reply
/// buffered is routed through the link's relay — into the inbox of a
/// request blocked on it, or to a completion, run right here on the I/O
/// thread.  A frame that cannot be decoded, or that answers nothing this
/// daemon asked, kills the link.
fn route_replies(shared: &Arc<ServerShared>, session: &mut ReactorSession, conn: &Conn) {
    let mut pos = 0usize;
    while !matches!(session.phase, Phase::Closing) {
        let routed = match split_frame(&session.read_buf[pos..]) {
            Ok(None) => break,
            Ok(Some((body, used))) => {
                pos += used;
                match ServerFrame::from_wire_bytes(body) {
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
            begin_close(shared, session);
        }
    }
    consume(session, pos);
}

/// The one frame-dispatch `match` of the serving side.  *Who answers* is a
/// property of the call, not of the frame type: a call that cannot park is
/// finished right here on the I/O thread; a submission (answered by its
/// outcome, once the window has launched it), a release, and a wait whose
/// outcome is not in yet, are finished by whichever thread produces the
/// answer; only what would park otherwise is queued on a worker lane.
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
                    begin_close(shared, session);
                }
            },
            _ => {
                state.send(&ServerFrame::HelloReject {
                    message: "the first frame must be Hello".to_string(),
                });
                begin_close(shared, session);
            }
        }
        return;
    }
    match frame {
        ClientFrame::Hello { .. } => {
            state.send(&ServerFrame::HelloReject {
                message: "duplicate Hello".to_string(),
            });
            begin_close(shared, session);
        }
        ClientFrame::Submit { corr, query } => {
            // Parse errors map exactly as the trait's own text path maps
            // them for an in-process client.
            let query = match actyp_query::parse_query(&query) {
                Ok(query) => query,
                Err(e) => {
                    state.send(&ServerFrame::Error {
                        corr,
                        error: AllocationError::Parse(e.to_string()),
                    });
                    return;
                }
            };
            let Some(counted) = Pending::submission(&state, corr) else {
                return;
            };
            // The backend launches it now or queues it in its window, and
            // the launching thread — this one, or the one whose settle
            // frees the permit — redeems the new ticket at once: the
            // outcome is the reply.  Counted on the session as a
            // submission until the launch, as a completion after it.
            let (done_shared, done_state) = (shared.clone(), state.clone());
            let done: SubmitDone = Box::new(move |submitted| {
                match submitted {
                    Ok(ticket) => answer_launched(&done_shared, &done_state, corr, ticket),
                    Err(error) => done_state.send(&ServerFrame::Error { corr, error }),
                }
                drop(counted);
            });
            // A backend whose `submit` is the computation or a round trip
            // hands it back, and the submit lane runs it.
            if let Err((query, done)) = shared.manager.submit_with(query, done) {
                offload(shared, &shared.pools.submit, move |shared| {
                    done(shared.manager.submit(query))
                });
            }
        }
        ClientFrame::SubmitBatch { corr, queries } => {
            // Parks on its admission in the window — on the submit lane,
            // which holds nothing a release needs.
            let Some(counted) = Pending::submission(&state, corr) else {
                return;
            };
            offload(shared, &shared.pools.submit, move |shared| {
                handle_submit_batch(shared, &state, corr, &queries);
                drop(counted);
            });
        }
        ClientFrame::Wait {
            corr,
            ticket,
            deadline_ms: None,
        } => match state.claim(ticket) {
            Some(backend_ticket) => redeem(shared, &state, corr, backend_ticket),
            None => state.send(&ServerFrame::Error {
                corr,
                error: AllocationError::UnknownTicket,
            }),
        },
        ClientFrame::Wait {
            corr,
            ticket,
            deadline_ms: Some(ms),
        } => {
            // Unknown ids are answered inline — no job for a frame
            // that cannot block; the worker's own atomic claim still
            // decides races.
            let Some(backend_ticket) = state.known_ticket(corr, ticket) else {
                return;
            };
            // A deadline wait whose outcome is already there is delivered
            // from here; one that would park takes the redeem lane, as
            // does every deadline wait on a federated daemon, where even a
            // poll can block on peer I/O.
            if shared.federation.is_none()
                && redeem_if_ready(shared, &state, corr, ticket, backend_ticket)
            {
                return;
            }
            let pending = Pending::completion(&state);
            offload(shared, &shared.pools.redeem, move |shared| {
                handle_wait(shared, &state, corr, ticket, ms);
                drop(pending);
            });
        }
        ClientFrame::Poll { corr, ticket } => {
            let Some(backend_ticket) = state.known_ticket(corr, ticket) else {
                return;
            };
            // On a federated daemon a poll can block on peer I/O, so
            // it runs on the redeem lane; in-process backends answer
            // inline on the I/O thread.
            if shared.federation.is_some() {
                let pending = Pending::completion(&state);
                offload(shared, &shared.pools.redeem, move |shared| {
                    if !redeem_if_ready(shared, &state, corr, ticket, backend_ticket) {
                        state.send(&ServerFrame::Pending { corr });
                    }
                    drop(pending);
                });
            } else if !redeem_if_ready(shared, &state, corr, ticket, backend_ticket) {
                state.send(&ServerFrame::Pending { corr });
            }
        }
        ClientFrame::Release { corr, allocation } => {
            // The I/O thread never waits for the answer: the backend stage
            // that drops the lease posts the reply.  Counted on the
            // session until it has run.
            let pending = Pending::completion(&state);
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
            begin_close(shared, session);
        }
        ClientFrame::Halt { corr } => {
            state.send(&ServerFrame::Ack { corr });
            shared.begin_drain();
            begin_close(shared, session);
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
            // query-manager stage, or the I/O thread of the next hop's
            // link — writes `Delegated`.  Counted on the session until it
            // has run.
            let pending = Pending::completion(&state);
            let (done_state, done_federation) = (state.clone(), federation.clone());
            let done: DelegateDone = Box::new(move |outcome, routing| {
                done_state.deliver_delegated(&done_federation, corr, outcome, routing);
                drop(pending);
            });
            // What the local backend hands back, or what is refused, runs
            // on the submit lane, where its submission may wait on the
            // window.
            if let Err(done) = federation.delegate_with(&query, ttl, &visited, done) {
                shared.pools.submit.execute(move || {
                    let (outcome, routing) = federation.handle_delegate(&query, ttl, visited);
                    done(outcome, routing);
                });
            }
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
                federation.record_inbound_advertisement(&domain, &advertised);
                federation.gossip().note_peer_versions(&domain, &have);
                federation.refresh_gossip();
                let deltas = federation.gossip().deltas_since(&have);
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
                let reply = federation.handle_advert_delta(&domain, &deltas, &have);
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

/// Redeems `ticket` now and answers `corr` with its outcome, delivered by
/// whoever finds the two together: this thread on a hit, the query-manager
/// stage that reintegrates it on a miss — and on a federated daemon, when
/// the local outcome is a delegable failure, the I/O thread of the peer
/// link whose reply ends the chain.  That chain starts only while the
/// session is open: a local failure that finds its client gone is the
/// answer, so nothing is delegated for nobody.  A backend that cannot wait
/// from here without parking hands the completion back, and the redeem
/// lane runs the blocking call.  Counted on the session until it has run.
fn redeem(shared: &Arc<ServerShared>, state: &Arc<SessionState>, corr: RequestId, ticket: Ticket) {
    let pending = Pending::completion(state);
    let done_state = state.clone();
    let done: WaitDone = Box::new(move |outcome| {
        done_state.deliver_outcome(corr, outcome);
        drop(pending);
    });
    let open_state = state.clone();
    let open = move || !open_state.closing.load(Ordering::SeqCst);
    let handed_back = match &shared.federation {
        Some(federation) => federation.wait_with_while(ticket, done, open.clone()),
        None => shared.manager.wait_with(ticket, done),
    };
    if let Err(done) = handed_back {
        offload(shared, &shared.pools.redeem, move |shared| {
            done(match &shared.federation {
                Some(federation) => federation.wait_while(ticket, &open),
                None => shared.manager.wait(ticket),
            })
        });
    }
}

/// Answers a `Submit` whose query was just launched as `ticket`: the ticket
/// never leaves the daemon, its outcome is the reply ([`redeem`]).  A
/// launch that finds its session closing — a submission queued on a full
/// window or handed to the submit lane, launched after the client left —
/// is settled through the local backend instead ([`settle_abandoned`]), so
/// nothing is delegated for a client that is gone.
fn answer_launched(
    shared: &Arc<ServerShared>,
    state: &Arc<SessionState>,
    corr: RequestId,
    ticket: Ticket,
) {
    if state.closing.load(Ordering::SeqCst) {
        settle_abandoned(shared, state, ticket);
    } else {
        redeem(shared, state, corr, ticket);
    }
}

/// Delivers the ticket's outcome if the backend already has it; `false`
/// means the query is still in flight and nothing was sent.
fn redeem_if_ready(
    shared: &ServerShared,
    state: &SessionState,
    corr: RequestId,
    ticket: u64,
    backend_ticket: Ticket,
) -> bool {
    match shared.manager.try_poll(backend_ticket) {
        None => false,
        Some(outcome) => {
            state.claim(ticket);
            state.deliver_outcome(corr, outcome);
            true
        }
    }
}

/// Queues a step that may park on `lane`, the daemon's state in hand.
fn offload(
    shared: &Arc<ServerShared>,
    lane: &WorkerPool,
    job: impl FnOnce(&Arc<ServerShared>) + Send + 'static,
) {
    let shared = shared.clone();
    lane.execute(move || job(&shared));
}

/// Transitions the session into [`Phase::Closing`] (idempotent).  A client
/// session settles each abandoned ticket ([`settle_abandoned`]), and
/// [`refresh_session`] queues its final sweep once nothing is outstanding.
/// A peer link has nothing to settle or flush: its connection dies —
/// failing whatever still waits on it — and the session retires at once.
fn begin_close(shared: &Arc<ServerShared>, session: &mut ReactorSession) {
    if matches!(session.phase, Phase::Closing) {
        return;
    }
    session.phase = Phase::Closing;
    if let Some(conn) = &session.peer {
        conn.poison("peer link closed".to_string());
        session.state.queue.close();
        session.client_gone = true;
        return;
    }
    session.settling_since = Some(std::time::Instant::now());
    for ticket in session.state.close_tickets() {
        settle_abandoned(shared, &session.state, ticket);
    }
}

/// The backend a closing session settles its abandoned tickets through:
/// on a federated daemon the wrapped one, so nothing is delegated for a
/// client that is gone.
fn local_backend(shared: &ServerShared) -> &dyn ResourceManager {
    match &shared.federation {
        Some(federation) => federation.inner(),
        None => &*shared.manager,
    }
}

/// Settles a ticket nobody will redeem: a completion takes its outcome
/// (through [`local_backend`]) and hands every allocation straight back,
/// counted on the session until the releases have run.
fn settle_abandoned(shared: &Arc<ServerShared>, state: &Arc<SessionState>, ticket: Ticket) {
    let federation = shared.federation.as_ref();
    let Some(ticket) = federation.map_or(Some(ticket), |f| f.take_local(ticket)) else {
        return;
    };
    let pending = Pending::completion(state);
    let (done_shared, done_state) = (shared.clone(), state.clone());
    let done: WaitDone = Box::new(move |outcome| {
        for allocation in outcome.into_iter().flatten() {
            let pending = Pending::completion(&done_state);
            release_allocation(&done_shared, allocation, Box::new(move |_| drop(pending)));
        }
        drop(pending);
    });
    if let Err(done) = local_backend(shared).wait_with(ticket, done) {
        offload(shared, &shared.pools.redeem, move |shared| {
            done(local_backend(shared).wait(ticket))
        });
    }
}

/// Releases `allocation`; `done` runs on the backend stage that drops the
/// lease.  A backend that cannot release without parking (a delegated
/// allocation whose link no reactor session carries yet) hands `done` back,
/// and the redeem lane runs the blocking call — never the submit lane,
/// whose jobs may wait on the window this release frees.
fn release_allocation(shared: &Arc<ServerShared>, allocation: Allocation, done: ReleaseDone) {
    if let Err(done) = shared.manager.release_with(&allocation, done) {
        offload(shared, &shared.pools.redeem, move |shared| {
            done(shared.manager.release(&allocation))
        });
    }
}

/// A closed session's final sweep, on the redeem lane: hands back every
/// allocation lease the client still held — including outcomes whose
/// delivery raced the disconnect — then seals the write queue so the I/O
/// thread can complete the drain-aware close.
fn sweep_closed(shared: &ServerShared, state: &SessionState) {
    let leaked: Vec<Allocation> = state.leases.lock().drain().map(|(_, a)| a).collect();
    for allocation in &leaked {
        let _ = shared.manager.release(allocation);
    }
    state.queue.close();
}

/// Flushes the session's write queue; a dead transport begins the close.
fn flush_or_close(shared: &Arc<ServerShared>, session: &mut ReactorSession) {
    if !flush_session(shared, session) {
        session.client_gone = true;
        begin_close(shared, session);
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
        begin_close(shared, session);
    }
    if !matches!(session.phase, Phase::Closing)
        && !session.read_buf.is_empty()
        && (session.peer.is_some() || !session.state.backlogged())
    {
        parse_and_dispatch(shared, session);
    }
    // A closing session with nothing outstanding — or outstanding past
    // the settle bound — gets its final sweep.
    let settled = |since: std::time::Instant| {
        session.state.outstanding() == 0 || since.elapsed() > CLOSE_SETTLE_BOUND
    };
    if session.settling_since.is_some_and(settled) {
        session.settling_since = None;
        let state = session.state.clone();
        offload(shared, &shared.pools.redeem, move |shared| {
            sweep_closed(shared, &state)
        });
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
/// session-scoped ticket table mapping the wire ids of batch tickets to
/// backend tickets (a single `Submit`'s ticket never enters it: its
/// outcome is the reply), and the allocation leases the session currently
/// holds.
pub(super) struct SessionState {
    queue: Arc<OutQueue>,
    /// `None` once the session is closing: a ticket issued after that
    /// (a batch launched late, a deadline wait that missed) is settled at
    /// once instead of kept for a client that is gone.
    tickets: Mutex<Option<HashMap<u64, Ticket>>>,
    /// Allocations delivered to this client and not yet released, keyed by
    /// access key.  Allocations are *session leases*: whatever is still
    /// here when the session ends is handed back, so a client that
    /// crashes (even one whose Outcome reply raced its disconnect) cannot
    /// strand a machine claim.
    leases: Mutex<HashMap<String, Allocation>>,
    next_ticket: AtomicU64,
    /// Submissions queued in the admission window or on the submit lane
    /// ([`Pending::submission`]): capped per session by an error reply.
    submissions: AtomicUsize,
    /// Every other request somebody else still owes a reply to
    /// ([`Pending::completion`]): bounded by pausing the read side.
    completions: AtomicUsize,
    /// Set when the session begins to close: from then on the last
    /// [`Pending`] to finish rings the I/O thread for the final sweep, and
    /// a submission launched late is settled instead of answered.
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
            tickets: Mutex::new(Some(HashMap::new())),
            leases: Mutex::new(HashMap::new()),
            next_ticket: AtomicU64::new(0),
            submissions: AtomicUsize::new(0),
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

    /// Requests of this session somebody else still owes a reply to.  A
    /// launched submission counts its outcome (or its settle) as a
    /// completion before it stops counting itself, so reading submissions
    /// first never sees 0 while either is outstanding.
    fn outstanding(&self) -> usize {
        self.submissions.load(Ordering::SeqCst) + self.completions.load(Ordering::SeqCst)
    }

    /// Whether the session should stop reading frames for now: the client
    /// is not draining its replies, or it pipelined more launched
    /// submissions, waits and releases than the backend has answered yet.
    fn backlogged(&self) -> bool {
        self.queue.pending_bytes() > OUT_HIGH_WATER
            || self.completions.load(Ordering::Relaxed) >= COMPLETIONS_HIGH_WATER
    }

    /// Takes wire id `ticket` out of the table for redemption.
    fn claim(&self, ticket: u64) -> Option<Ticket> {
        self.tickets.lock().as_mut()?.remove(&ticket)
    }

    /// Marks the session closing and empties its ticket table for good,
    /// returning the tickets the client abandoned.
    fn close_tickets(&self) -> Vec<Ticket> {
        self.closing.store(true, Ordering::SeqCst);
        let table = self.tickets.lock().take().unwrap_or_default();
        table.into_values().collect()
    }

    /// The backend ticket behind wire id `ticket`; an unknown id is
    /// answered here, with the error reply, and yields `None`.
    fn known_ticket(&self, corr: RequestId, ticket: u64) -> Option<Ticket> {
        // Looked up in its own statement, so the table guard drops before
        // the reply is sent.
        let looked_up = self
            .tickets
            .lock()
            .as_ref()
            .and_then(|tickets| tickets.get(&ticket).copied());
        if looked_up.is_none() {
            self.send(&ServerFrame::Error {
                corr,
                error: AllocationError::UnknownTicket,
            });
        }
        looked_up
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
/// — so the count cannot leak.
struct Pending {
    state: Arc<SessionState>,
    submission: bool,
}

impl Pending {
    /// A submission: queued in the admission window or on the submit lane.
    /// Past [`MAX_SESSION_SUBMISSIONS`] the request is answered with an
    /// overload error instead, and `None` returned.
    fn submission(state: &Arc<SessionState>, corr: RequestId) -> Option<Self> {
        if state.submissions.load(Ordering::Relaxed) >= MAX_SESSION_SUBMISSIONS {
            state.send(&ServerFrame::Error {
                corr,
                error: AllocationError::Internal(format!(
                    "session has {MAX_SESSION_SUBMISSIONS} submissions in flight; \
                     await replies before sending more"
                )),
            });
            return None;
        }
        state.submissions.fetch_add(1, Ordering::SeqCst);
        Some(Pending {
            state: state.clone(),
            submission: true,
        })
    }

    /// Any other request: never refused, held back by pausing the read
    /// side at [`COMPLETIONS_HIGH_WATER`].
    fn completion(state: &Arc<SessionState>) -> Self {
        state.completions.fetch_add(1, Ordering::SeqCst);
        Pending {
            state: state.clone(),
            submission: false,
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        let state = &self.state;
        let counter = match self.submission {
            true => &state.submissions,
            false => &state.completions,
        };
        let paused =
            counter.fetch_sub(1, Ordering::SeqCst) >= COMPLETIONS_HIGH_WATER && !self.submission;
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
                federation.retire_domain(&previous);
            }
        }
    }
}

/// Files `ticket` in the session table under wire id `wire_id` (`None`: a
/// fresh one), returning the id — or, once the session is closing, settles
/// it and returns `None`.
fn keep(
    shared: &Arc<ServerShared>,
    state: &Arc<SessionState>,
    wire_id: Option<u64>,
    ticket: Ticket,
) -> Option<u64> {
    let wire_id = wire_id.unwrap_or_else(|| state.next_ticket.fetch_add(1, Ordering::Relaxed));
    let kept = state
        .tickets
        .lock()
        .as_mut()
        .map(|t| t.insert(wire_id, ticket));
    if kept.is_none() {
        settle_abandoned(shared, state, ticket);
    }
    kept.map(|_| wire_id)
}

/// A `SubmitBatch`, on the submit lane: parks on the batch's admission in
/// the window, which holds nothing a release needs.
fn handle_submit_batch(
    shared: &Arc<ServerShared>,
    state: &Arc<SessionState>,
    corr: RequestId,
    queries: &[String],
) {
    let parsed: Result<Vec<_>, _> = queries
        .iter()
        .map(|q| actyp_query::parse_query(q))
        .collect();
    let submitted = match parsed {
        Ok(parsed) => shared.manager.submit_batch(parsed),
        Err(e) => Err(AllocationError::Parse(e.to_string())),
    };
    match submitted {
        Ok(tickets) => {
            let tickets = tickets
                .into_iter()
                .filter_map(|ticket| keep(shared, state, None, ticket))
                .collect();
            state.send(&ServerFrame::BatchSubmitted { corr, tickets });
        }
        Err(error) => state.send(&ServerFrame::Error { corr, error }),
    }
}

/// A deadline `Wait`, on the redeem lane.  A miss puts the ticket back for
/// a later redemption — or settles it, once the session is closing.
fn handle_wait(
    shared: &Arc<ServerShared>,
    state: &Arc<SessionState>,
    corr: RequestId,
    ticket: u64,
    ms: u64,
) {
    let Some(backend_ticket) = state.claim(ticket) else {
        state.send(&ServerFrame::Error {
            corr,
            error: AllocationError::UnknownTicket,
        });
        return;
    };
    match shared
        .manager
        .wait_deadline(backend_ticket, Duration::from_millis(ms))
    {
        Some(outcome) => state.deliver_outcome(corr, outcome),
        None => {
            keep(shared, state, Some(ticket), backend_ticket);
            state.send(&ServerFrame::TimedOut { corr });
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
        let frame = ServerFrame::Pending { corr: RequestId(0) };

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
        let handed_back = live.release_with(
            &granted[0],
            Box::new(move |released| {
                done_state.reply_released(RequestId(9), &key, released);
                landed_tx.send(()).unwrap();
            }),
        );
        assert!(handed_back.is_ok(), "the live backend takes the completion");
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
