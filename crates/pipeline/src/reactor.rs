//! The reactor core: readiness polling for the event-driven `ypd` server.
//!
//! The build environment has no access to crates.io, so there is no `mio`
//! or `tokio` here: this module binds the kernel's readiness interfaces
//! directly with `extern "C"` declarations against the libc the standard
//! library already links.  Two implementations sit behind one [`Poller`]
//! trait:
//!
//! * [`PollerKind::Epoll`] — Linux `epoll(7)` (`epoll_create1` /
//!   `epoll_ctl` / `epoll_wait`), O(ready) wakeups, the production path.
//! * [`PollerKind::Poll`] — portable POSIX `poll(2)`, O(registered) per
//!   wakeup; the fallback for non-Linux unix hosts, and a second
//!   implementation the test suite can run on Linux to keep the trait
//!   honest.
//!
//! [`PollerKind::Auto`] picks epoll on Linux and `poll(2)` elsewhere.  On
//! non-unix hosts [`PollerKind::create`] reports
//! [`std::io::ErrorKind::Unsupported`], and so does starting a server:
//! there is no session engine without a poller.
//!
//! The other pieces the session engine needs live here because they share
//! the same raw-binding style and have no other natural home:
//!
//! * [`Waker`] — a non-blocking self-pipe.  Stage threads finish backend
//!   calls off the I/O threads; posting the completion into a session's
//!   write queue must interrupt that session's [`Poller::poll`] when the
//!   I/O thread is asleep in it, which is exactly what writing one byte
//!   into the registered pipe does.
//! * [`TimerWheel`] — a tiny deadline list the I/O threads consult to cap
//!   their poll timeout.  The reactor server uses it for the periodic
//!   closing-session sweep (which also bounds peer dials and replies) and
//!   for the gossip tick and health probe, so none needs a thread.
//! * `connect_nonblocking` — the non-blocking connect an I/O thread
//!   dials a peer daemon with.
//!
//! Everything here is deliberately minimal: level-triggered readiness
//! only, one registration per fd — the session engine in [`crate::server`]
//! supplies the rest.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

#[cfg(unix)]
use std::os::fd::RawFd;
/// No pollers exist off unix; the alias only lets the [`Poller`] trait
/// (and so [`PollerKind::create`]'s `Unsupported` error) compile there.
#[cfg(not(unix))]
type RawFd = i32;

// ---------------------------------------------------------------------------
// Interest and events
// ---------------------------------------------------------------------------

/// Which readiness a registration asks to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable (or the peer hangs up).
    pub read: bool,
    /// Wake when the fd becomes writable.
    pub write: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both read and write readiness.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
    /// No readiness at all (registration kept, nothing delivered except
    /// errors/hangups).
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One readiness notification out of [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or a hangup to observe via `read() == 0`).
    pub readable: bool,
    /// The fd can accept more outgoing bytes.
    pub writable: bool,
    /// The kernel reports an error or hangup condition; the owner should
    /// read it out (a final `read` still drains buffered bytes) and close.
    pub closed: bool,
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// A readiness poller: epoll on Linux, `poll(2)` as the portable fallback
/// — both behind this one trait so the session engine cannot tell them
/// apart.
///
/// Registrations are level-triggered: an fd that stays readable is
/// reported on every call until it is drained or its interest is changed.
pub trait Poller: Send {
    /// Starts watching `fd` under `token` for `interest`.
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Changes the interest (and token) of an already-registered fd.
    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Stops watching `fd`.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;

    /// Blocks up to `timeout` (forever if `None`) for readiness, filling
    /// `events` with what became ready.  `events` is cleared first.
    fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()>;
}

/// Which [`Poller`] implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PollerKind {
    /// Epoll on Linux, `poll(2)` elsewhere.
    #[default]
    Auto,
    /// Linux `epoll(7)`; creation fails on other platforms.
    Epoll,
    /// Portable POSIX `poll(2)`.
    Poll,
}

impl std::fmt::Display for PollerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PollerKind::Auto => "auto",
            PollerKind::Epoll => "epoll",
            PollerKind::Poll => "poll",
        })
    }
}

impl std::str::FromStr for PollerKind {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw {
            "auto" => Ok(PollerKind::Auto),
            "epoll" => Ok(PollerKind::Epoll),
            "poll" => Ok(PollerKind::Poll),
            other => Err(format!(
                "unknown poller `{other}` (expected auto, epoll or poll)"
            )),
        }
    }
}

impl PollerKind {
    /// Builds the chosen poller.  Fails with
    /// [`std::io::ErrorKind::Unsupported`] where the kind (or readiness
    /// polling at all) is unavailable.
    pub fn create(self) -> io::Result<Box<dyn Poller>> {
        #[cfg(target_os = "linux")]
        {
            match self {
                PollerKind::Auto | PollerKind::Epoll => Ok(Box::new(EpollPoller::new()?)),
                PollerKind::Poll => Ok(Box::new(PollPoller::new())),
            }
        }
        #[cfg(all(unix, not(target_os = "linux")))]
        {
            match self {
                PollerKind::Auto | PollerKind::Poll => Ok(Box::new(PollPoller::new())),
                PollerKind::Epoll => Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "epoll is Linux-only; use the poll fallback",
                )),
            }
        }
        #[cfg(not(unix))]
        {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no readiness poller on this platform",
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Raw bindings
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    //! The handful of libc symbols the reactor needs, declared by hand:
    //! the toolchain links libc through std already, so `extern "C"` is
    //! all it takes — no crates.io dependency.
    use std::os::raw::{c_int, c_short};

    extern "C" {
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        // fcntl(2) is variadic; declaring it with a fixed third argument
        // would be UB and concretely mis-passes the argument on ABIs that
        // place variadic arguments differently (e.g. aarch64 Darwin).
        pub fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
        pub fn socket(domain: c_int, kind: c_int, protocol: c_int) -> c_int;
        // Named apart from the workspace's blocking `connect`s, which the
        // `reactor-blocking` walk resolves calls by name to.
        #[link_name = "connect"]
        pub fn connect_fd(fd: c_int, addr: *const u8, len: u32) -> c_int;
    }

    pub const AF_INET: c_int = 2;
    pub const SOCK_STREAM: c_int = 1;
    // Off Linux these are the BSD / macOS header values, written from the
    // headers and unverified: no CI host runs them.
    #[cfg(target_os = "linux")]
    pub const AF_INET6: c_int = 10;
    #[cfg(any(target_os = "macos", target_os = "ios"))]
    pub const AF_INET6: c_int = 30;
    #[cfg(not(any(target_os = "linux", target_os = "macos", target_os = "ios")))]
    pub const AF_INET6: c_int = 28;
    #[cfg(target_os = "linux")]
    pub const EINPROGRESS: i32 = 115;
    #[cfg(not(target_os = "linux"))]
    pub const EINPROGRESS: i32 = 36;

    pub const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: c_int = 0x0004;

    /// `struct pollfd` from `poll(2)`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[cfg(target_os = "linux")]
    pub type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type NfdsT = std::os::raw::c_uint;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    #[cfg(target_os = "linux")]
    pub mod epoll {
        use std::os::raw::c_int;

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }

        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;

        /// `struct epoll_event`; packed on x86-64, exactly as the kernel
        /// ABI declares it (`__EPOLL_PACKED`).
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }
    }
}

#[cfg(unix)]
fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: plain fcntl on an owned fd; no memory is involved.
    let rc = unsafe { sys::fcntl(fd, sys::F_SETFL, sys::O_NONBLOCK) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Starts a non-blocking TCP connect to `addr`: the socket comes back at
/// once, its connect in progress (or, on loopback, sometimes done).  It
/// turns writable when the connect ends, and
/// [`std::net::TcpStream::take_error`] (`getsockopt(SO_ERROR)`) then says
/// whether it failed — how a reactor thread dials without parking.
#[cfg(unix)]
pub(crate) fn connect_nonblocking(addr: std::net::SocketAddr) -> io::Result<std::net::TcpStream> {
    use std::net::SocketAddr;
    use std::os::fd::FromRawFd;

    /// Room for a `sockaddr_in6`, aligned as the kernel reads it.
    #[repr(C, align(4))]
    struct Sockaddr([u8; 28]);
    let mut raw = Sockaddr([0; 28]);
    let (family, len) = match addr {
        SocketAddr::V4(v4) => {
            raw.0[4..8].copy_from_slice(&v4.ip().octets());
            (sys::AF_INET, 16)
        }
        SocketAddr::V6(v6) => {
            raw.0[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
            raw.0[8..24].copy_from_slice(&v6.ip().octets());
            raw.0[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (sys::AF_INET6, 28)
        }
    };
    // The family: a native `u16` on Linux, a length and a family byte on
    // the BSDs.
    raw.0[..2].copy_from_slice(&match cfg!(target_os = "linux") {
        true => (family as u16).to_ne_bytes(),
        false => [len as u8, family as u8],
    });
    raw.0[2..4].copy_from_slice(&addr.port().to_be_bytes());
    // SAFETY: socket(2) returns a fresh fd or -1; no memory is involved.
    let fd = unsafe { sys::socket(family, sys::SOCK_STREAM, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh socket nobody else owns; the stream closes it.
    let stream = unsafe { std::net::TcpStream::from_raw_fd(fd) };
    set_nonblocking(fd)?;
    // SAFETY: `raw` holds a well-formed sockaddr of `len` bytes.
    if unsafe { sys::connect_fd(fd, raw.0.as_ptr(), len as u32) } < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(sys::EINPROGRESS) {
            return Err(err);
        }
    }
    Ok(stream)
}

/// Milliseconds for the kernel timeout argument: `None` blocks forever
/// (-1), and anything else is clamped into `c_int` range, rounding up so a
/// sub-millisecond timeout does not spin.
#[cfg(unix)]
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis();
            let ms = if ms == 0 && t.as_nanos() > 0 { 1 } else { ms };
            i32::try_from(ms).unwrap_or(i32::MAX)
        }
    }
}

/// Waits up to `timeout` (zero: just looks) for `fd` to become readable —
/// bytes, a hang-up or an error, each of which a following `read` reports
/// without blocking.  How a thread that reads a blocking socket itself
/// bounds the read by a deadline, without a per-read `setsockopt`.
#[cfg(unix)]
pub(crate) fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let mut pollfd = sys::PollFd {
        fd,
        events: sys::POLLIN,
        revents: 0,
    };
    // SAFETY: one live pollfd, exactly the count passed.
    let n = unsafe { sys::poll(&mut pollfd, 1, timeout_ms(Some(timeout))) };
    if n < 0 {
        let err = io::Error::last_os_error();
        return match err.kind() {
            io::ErrorKind::Interrupted => Ok(false),
            _ => Err(err),
        };
    }
    Ok(n > 0)
}

// ---------------------------------------------------------------------------
// Epoll implementation (Linux)
// ---------------------------------------------------------------------------

/// The Linux `epoll(7)` poller: one epoll instance, O(ready) wakeups.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: RawFd,
    /// Scratch buffer reused across `poll` calls.
    buf: Vec<sys::epoll::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    /// Creates a fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 allocates a new fd; no pointers passed.
        let epfd = unsafe { sys::epoll::epoll_create1(sys::epoll::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollPoller {
            epfd,
            buf: vec![sys::epoll::EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        let mut mask = sys::epoll::EPOLLRDHUP;
        if interest.read {
            mask |= sys::epoll::EPOLLIN;
        }
        if interest.write {
            mask |= sys::epoll::EPOLLOUT;
        }
        let mut event = sys::epoll::EpollEvent {
            events: mask,
            data: token,
        };
        // SAFETY: `event` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll::epoll_ctl(self.epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Poller for EpollPoller {
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::epoll::EPOLL_CTL_ADD, fd, token, interest)
    }

    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::epoll::EPOLL_CTL_MOD, fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::epoll::EPOLL_CTL_DEL, fd, 0, Interest::NONE)
    }

    fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        // SAFETY: `buf` is a live, correctly-sized epoll_event array.
        let n = unsafe {
            sys::epoll::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as std::os::raw::c_int,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for raw in &self.buf[..n as usize] {
            // Copy out of the (possibly packed) struct before inspecting.
            let mask = raw.events;
            let token = raw.data;
            events.push(Event {
                token,
                readable: mask & (sys::epoll::EPOLLIN | sys::epoll::EPOLLRDHUP) != 0,
                writable: mask & sys::epoll::EPOLLOUT != 0,
                closed: mask & (sys::epoll::EPOLLERR | sys::epoll::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: closing the fd this struct owns.
        unsafe { sys::close(self.epfd) };
    }
}

// ---------------------------------------------------------------------------
// poll(2) implementation (portable unix)
// ---------------------------------------------------------------------------

/// The portable `poll(2)` poller: keeps the registered set in user space
/// and hands the whole array to the kernel each call — O(registered) per
/// wakeup, which is fine for the fallback role.
#[cfg(unix)]
pub struct PollPoller {
    entries: Vec<(RawFd, u64, Interest)>,
    buf: Vec<sys::PollFd>,
}

#[cfg(unix)]
impl Default for PollPoller {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(unix)]
impl PollPoller {
    /// An empty registration set.
    pub fn new() -> Self {
        PollPoller {
            entries: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn position(&self, fd: RawFd) -> Option<usize> {
        self.entries.iter().position(|(f, _, _)| *f == fd)
    }
}

#[cfg(unix)]
impl Poller for PollPoller {
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.position(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.entries.push((fd, token, interest));
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self.position(fd) {
            Some(i) => {
                self.entries[i] = (fd, token, interest);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self.position(fd) {
            Some(i) => {
                self.entries.swap_remove(i);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.buf.clear();
        for (fd, _, interest) in &self.entries {
            let mut mask: std::os::raw::c_short = 0;
            if interest.read {
                mask |= sys::POLLIN;
            }
            if interest.write {
                mask |= sys::POLLOUT;
            }
            self.buf.push(sys::PollFd {
                fd: *fd,
                events: mask,
                revents: 0,
            });
        }
        // SAFETY: `buf` is a live pollfd array of exactly `len` entries.
        let n = unsafe {
            sys::poll(
                self.buf.as_mut_ptr(),
                self.buf.len() as sys::NfdsT,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for (slot, (_, token, _)) in self.buf.iter().zip(&self.entries) {
            let got = slot.revents;
            if got == 0 {
                continue;
            }
            events.push(Event {
                token: *token,
                readable: got & (sys::POLLIN | sys::POLLHUP) != 0,
                writable: got & sys::POLLOUT != 0,
                closed: got & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Waker
// ---------------------------------------------------------------------------

/// A self-pipe that interrupts a blocked [`Poller::poll`] from another
/// thread.
///
/// Register [`Waker::read_fd`] (read interest) under a reserved token;
/// [`Waker::wake`] then makes the poller report that token readable.  The
/// owning loop calls [`Waker::drain`] when — and only when — that token
/// fired.  The session engine rings through a parked flag
/// (`server/session.rs`, `IoNotify`), so a sleep of the loop costs at most
/// one `wake`, and the handful of bytes stragglers can leave behind fit one
/// `read`.
///
/// Both ends are non-blocking: waking a loop that is already behind never
/// blocks the waker (a full pipe already guarantees a pending wakeup).
#[cfg(unix)]
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

#[cfg(unix)]
impl Waker {
    /// Creates the pipe pair, both ends non-blocking.
    pub fn new() -> io::Result<Self> {
        let mut fds = [0 as std::os::raw::c_int; 2];
        // SAFETY: `fds` is a live 2-element array, exactly what pipe wants.
        let rc = unsafe { sys::pipe(fds.as_mut_ptr()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let waker = Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        set_nonblocking(waker.read_fd)?;
        set_nonblocking(waker.write_fd)?;
        Ok(waker)
    }

    /// The end to register with the poller (read interest).
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Interrupts the poller.  Never blocks: a full pipe means a wakeup is
    /// already pending, which is all this call promises.
    pub fn wake(&self) {
        let byte = [1u8];
        // SAFETY: writing one byte from a live buffer to an owned fd.
        unsafe { sys::write(self.write_fd, byte.as_ptr(), 1) };
    }

    /// Consumes pending wake bytes with exactly one `read`.  Call it when
    /// the poller reported the waker's token; more than a buffer's worth of
    /// bytes (which takes as many uncoordinated wakers) leaves the token
    /// readable and is drained by the next call.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        // SAFETY: reading into a live buffer from an owned fd.
        unsafe { sys::read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
    }
}

#[cfg(unix)]
impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: closing the two fds this struct owns.
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

// SAFETY: the waker is two raw fds; writing/reading them from any thread
// is exactly what pipes are for.
#[cfg(unix)]
unsafe impl Send for Waker {}
#[cfg(unix)]
unsafe impl Sync for Waker {}

// ---------------------------------------------------------------------------
// Doorbell
// ---------------------------------------------------------------------------

/// The flag half of a [`Doorbell`]: one sequentially consistent boolean.
pub trait Flag {
    fn store(&self, value: bool);
    fn swap(&self, value: bool) -> bool;
}

impl Flag for AtomicBool {
    fn store(&self, value: bool) {
        AtomicBool::store(self, value, Ordering::SeqCst)
    }
    fn swap(&self, value: bool) -> bool {
        AtomicBool::swap(self, value, Ordering::SeqCst)
    }
}

/// The bell half of a [`Doorbell`]: something the sleeping loop's `poll`
/// returns for once rung, until it is drained.
pub trait Bell {
    fn ring(&self);
    fn drain(&self);
}

#[cfg(unix)]
impl Bell for Waker {
    fn ring(&self) {
        self.wake()
    }
    fn drain(&self) {
        Waker::drain(self)
    }
}

/// The parked-flag protocol that lets an event loop be woken with at most
/// one bell ring per sleep — and none while it is running.  Two-sided, and
/// both orders matter:
///
/// * loop ([`Doorbell::park`]): publish `parked`, **then** look at every
///   wake source once more, then block.
/// * ringer ([`Doorbell::ring`]): publish the work, **then** take `parked`.
///
/// Either the ringer finds `parked` set and rings the bell, or the loop's
/// second look finds the work — never neither.  Taking the flag (`swap`)
/// lets one ringer per sleep through.
///
/// Generic over its two primitives so that the daemon (`AtomicBool` +
/// [`Waker`]) and the model checker (`actyp-model` mutex + condvar, see
/// `model_tests` below) run this very code: the proof is of these lines,
/// not of a copy.
pub struct Doorbell<F, B> {
    parked: F,
    bell: B,
}

impl<F: Flag, B: Bell> Doorbell<F, B> {
    /// `parked` must start out `false`.
    pub fn new(parked: F, bell: B) -> Self {
        Doorbell { parked, bell }
    }

    pub fn bell(&self) -> &B {
        &self.bell
    }

    /// Ringer side; call *after* publishing the work.  Returns whether the
    /// bell was actually rung.
    pub fn ring(&self) -> bool {
        let was_parked = self.parked.swap(false);
        if was_parked {
            self.bell.ring();
        }
        was_parked
    }

    /// Loop side, before blocking: publishes the intent to block, then
    /// asks `work_pending` whether anything arrived that nobody will ring
    /// for any more.  Returns whether the loop may block.
    #[cfg(not(feature = "buggy-doorbell"))]
    pub fn park(&self, work_pending: impl FnOnce() -> bool) -> bool {
        self.parked.store(true);
        if work_pending() {
            self.parked.store(false);
            return false;
        }
        true
    }

    /// The bug the order exists to prevent, kept for the model checker to
    /// re-find: look first, publish afterwards.  Work that arrives in
    /// between is rung for while the flag is still clear, then slept on.
    #[cfg(feature = "buggy-doorbell")]
    pub fn park(&self, work_pending: impl FnOnce() -> bool) -> bool {
        if work_pending() {
            return false;
        }
        self.parked.store(true);
        true
    }

    /// Loop side, after blocking: rings are free again until the next
    /// park, and the bell is drained only if it is what ended the sleep.
    pub fn unpark(&self, rung: bool) {
        self.parked.store(false);
        if rung {
            self.bell.drain();
        }
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// One armed timer: an opaque id, its next deadline, and the interval at
/// which it re-arms itself.
#[derive(Debug, Clone)]
struct Timer {
    id: u64,
    deadline: std::time::Instant,
    period: Duration,
}

/// A deliberately small deadline list ("wheel" by role, not by data
/// structure — a handful of timers per I/O thread never justifies
/// hierarchical buckets).  The I/O loop calls [`TimerWheel::poll_timeout`]
/// to cap its poll interval, then [`TimerWheel::expired`] after each
/// wakeup; every timer is periodic and re-arms itself, skipping intervals
/// the thread slept through so a stalled loop does not replay a burst of
/// stale ticks.
#[derive(Debug, Default)]
pub struct TimerWheel {
    timers: Vec<Timer>,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a periodic timer firing every `period`, first in one `period`
    /// from now.  Re-arming an id replaces its previous registration.
    pub fn add_periodic(&mut self, id: u64, period: Duration) {
        self.timers.retain(|t| t.id != id);
        self.timers.push(Timer {
            id,
            deadline: std::time::Instant::now() + period,
            period,
        });
    }

    /// How long a poll may block without overshooting the next deadline:
    /// the time to the earliest deadline, clamped to at most `cap`.
    pub fn poll_timeout(&self, cap: Duration) -> Duration {
        let now = std::time::Instant::now();
        self.timers
            .iter()
            .map(|t| t.deadline.saturating_duration_since(now))
            .min()
            .map_or(cap, |next| next.min(cap))
    }

    /// Returns the ids of every timer due at `now`, each rescheduled
    /// relative to its own deadline (not `now`), advancing past any
    /// intervals that elapsed while the thread was busy.
    pub fn expired(&mut self, now: std::time::Instant) -> Vec<u64> {
        let mut due = Vec::new();
        for timer in self.timers.iter_mut().filter(|t| t.deadline <= now) {
            due.push(timer.id);
            timer.deadline += timer.period;
            while timer.deadline <= now {
                timer.deadline += timer.period;
            }
        }
        due
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;

    fn pollers() -> Vec<(&'static str, Box<dyn Poller>)> {
        let mut all: Vec<(&'static str, Box<dyn Poller>)> =
            vec![("poll", Box::new(PollPoller::new()))];
        #[cfg(target_os = "linux")]
        all.push(("epoll", Box::new(EpollPoller::new().unwrap())));
        all
    }

    /// A connected loopback socket pair.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_events_fire_when_bytes_arrive() {
        for (name, mut poller) in pollers() {
            let (mut tx, rx) = socket_pair();
            rx.set_nonblocking(true).unwrap();
            poller.register(rx.as_raw_fd(), 7, Interest::READ).unwrap();

            let mut events = Vec::new();
            // Nothing yet: a short poll comes back empty.
            poller
                .poll(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{name}: spurious event");

            tx.write_all(b"x").unwrap();
            poller
                .poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{name}");
            assert_eq!(events[0].token, 7, "{name}");
            assert!(events[0].readable, "{name}");
        }
    }

    #[test]
    fn write_interest_and_reregistration_work() {
        for (name, mut poller) in pollers() {
            let (tx, _rx) = socket_pair();
            tx.set_nonblocking(true).unwrap();
            // A fresh socket is writable immediately.
            poller.register(tx.as_raw_fd(), 1, Interest::WRITE).unwrap();
            let mut events = Vec::new();
            poller
                .poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 1 && e.writable),
                "{name}: no writable event"
            );
            // Dropping write interest silences it.
            poller
                .reregister(tx.as_raw_fd(), 1, Interest::NONE)
                .unwrap();
            poller
                .poll(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(
                !events.iter().any(|e| e.writable),
                "{name}: writable after reregister"
            );
            poller.deregister(tx.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn hangups_are_reported_to_the_reader() {
        for (name, mut poller) in pollers() {
            let (tx, mut rx) = socket_pair();
            poller.register(rx.as_raw_fd(), 3, Interest::READ).unwrap();
            drop(tx);
            let mut events = Vec::new();
            poller
                .poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            let ev = events.iter().find(|e| e.token == 3).expect(name);
            // A hangup must be observable: either flagged directly or via
            // a readable event whose read returns 0.
            assert!(ev.readable || ev.closed, "{name}");
            let mut buf = [0u8; 8];
            assert_eq!(rx.read(&mut buf).unwrap(), 0, "{name}: clean EOF");
        }
    }

    #[test]
    fn waker_interrupts_a_blocked_poll() {
        for (name, mut poller) in pollers() {
            let waker = Arc::new(Waker::new().unwrap());
            poller
                .register(waker.read_fd(), u64::MAX, Interest::READ)
                .unwrap();
            let remote = waker.clone();
            let hand = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                remote.wake();
            });
            let mut events = Vec::new();
            let started = std::time::Instant::now();
            poller
                .poll(&mut events, Some(Duration::from_secs(30)))
                .unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "{name}: poll did not wake"
            );
            assert!(
                events.iter().any(|e| e.token == u64::MAX && e.readable),
                "{name}: no waker event"
            );
            waker.drain();
            // Drained: the next short poll is quiet again.
            poller
                .poll(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{name}: waker still readable");
            hand.join().unwrap();
        }
    }

    #[test]
    fn auto_poller_creates_on_unix() {
        assert!(PollerKind::Auto.create().is_ok());
        assert!(PollerKind::Poll.create().is_ok());
        #[cfg(target_os = "linux")]
        assert!(PollerKind::Epoll.create().is_ok());
    }

    #[test]
    fn poller_kind_parses_and_displays() {
        for kind in [PollerKind::Auto, PollerKind::Epoll, PollerKind::Poll] {
            assert_eq!(kind.to_string().parse::<PollerKind>().unwrap(), kind);
        }
        assert!("kqueue".parse::<PollerKind>().is_err());
    }

    #[test]
    fn timer_wheel_caps_poll_timeout_at_next_deadline() {
        let mut wheel = TimerWheel::new();
        let cap = Duration::from_millis(500);
        assert_eq!(wheel.poll_timeout(cap), cap, "empty wheel polls full cap");

        wheel.add_periodic(1, Duration::from_millis(50));
        assert!(wheel.poll_timeout(cap) <= Duration::from_millis(50));

        // An already-due timer clamps the timeout to zero, never negative.
        wheel.add_periodic(2, Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(wheel.poll_timeout(cap), Duration::ZERO);
    }

    #[test]
    fn timer_wheel_periodic_reschedules_and_skips_missed_intervals() {
        let mut wheel = TimerWheel::new();
        let period = Duration::from_millis(10);
        wheel.add_periodic(3, period);
        let armed = std::time::Instant::now();

        // Fires at its first deadline.
        assert_eq!(wheel.expired(armed + period), vec![3]);
        // Not due again immediately after.
        assert!(wheel.expired(armed + period).is_empty());
        // A long stall yields ONE firing, with the deadline advanced past
        // every missed interval rather than replaying them.
        assert_eq!(wheel.expired(armed + period * 10), vec![3]);
        assert!(wheel
            .expired(armed + period * 10 + Duration::from_millis(1))
            .is_empty());
    }

    #[test]
    fn timer_wheel_rearm_replaces_the_registration() {
        let mut wheel = TimerWheel::new();
        wheel.add_periodic(5, Duration::from_millis(1));
        wheel.add_periodic(5, Duration::from_secs(60));
        assert!(
            wheel
                .expired(std::time::Instant::now() + Duration::from_secs(1))
                .is_empty(),
            "re-arming replaced the registration due first"
        );
    }
}

/// Bounded-interleaving proof of [`Doorbell`] (`--features model`), run by
/// the CI `model-check` job.  Atomics and fds are outside the model, so
/// the flag is a mutex-wrapped bool (one lock, one visible operation) and
/// the self-pipe a byte count with a condvar; `park`, `ring` and `unpark`
/// are the daemon's own.  The loop sleeps *without* a timeout here, so a
/// lost wake-up is a deadlock the explorer reports.
#[cfg(all(test, feature = "model"))]
mod model_tests {
    use super::{Bell, Doorbell, Flag};
    use actyp_model::sync::{Condvar, Mutex};
    use actyp_model::{thread, Explorer};
    use std::sync::Arc;

    struct ModelFlag(Mutex<bool>);

    impl Flag for ModelFlag {
        fn store(&self, value: bool) {
            *self.0.lock().unwrap() = value;
        }
        fn swap(&self, value: bool) -> bool {
            std::mem::replace(&mut *self.0.lock().unwrap(), value)
        }
    }

    struct ModelPipe {
        bytes: Mutex<u32>,
        readable: Condvar,
    }

    impl ModelPipe {
        /// `poll` with nothing but the pipe registered.
        fn sleep(&self) {
            let mut bytes = self.bytes.lock().unwrap();
            while *bytes == 0 {
                bytes = self.readable.wait(bytes).unwrap();
            }
        }
    }

    impl Bell for ModelPipe {
        fn ring(&self) {
            *self.bytes.lock().unwrap() += 1;
            self.readable.notify_one();
        }
        fn drain(&self) {
            *self.bytes.lock().unwrap() = 0;
        }
    }

    fn explorer() -> Explorer {
        Explorer {
            max_schedules: 200_000,
            preemption_bound: 2,
            op_budget: 50_000,
        }
    }

    /// Two ringers against one I/O loop over the daemon's three wake
    /// sources: a completion marks a session dirty; the listener deals a
    /// socket to the loop and then raises the drain flag.  The loop ends
    /// once it has seen all three, which it can only do if no ring that
    /// mattered was swallowed.
    fn doorbell_scenario() {
        let bell = Arc::new(Doorbell::new(
            ModelFlag(Mutex::new(false)),
            ModelPipe {
                bytes: Mutex::new(0),
                readable: Condvar::new(),
            },
        ));
        let dirty = Arc::new(Mutex::new(false));
        let incoming = Arc::new(Mutex::new(0u32));
        let draining = Arc::new(Mutex::new(false));

        let io = {
            let (bell, dirty, incoming, draining) = (
                bell.clone(),
                dirty.clone(),
                incoming.clone(),
                draining.clone(),
            );
            thread::spawn(move || {
                let (mut flushed, mut adopted, mut drain_seen) = (false, false, false);
                while !(flushed && adopted && drain_seen) {
                    let may_block = bell.park(|| {
                        *dirty.lock().unwrap()
                            || *incoming.lock().unwrap() > 0
                            || (!drain_seen && *draining.lock().unwrap())
                    });
                    if may_block {
                        bell.bell().sleep();
                    }
                    bell.unpark(may_block);
                    if std::mem::take(&mut *incoming.lock().unwrap()) > 0 {
                        adopted = true;
                    }
                    if std::mem::take(&mut *dirty.lock().unwrap()) {
                        flushed = true;
                    }
                    if *draining.lock().unwrap() {
                        drain_seen = true;
                    }
                }
            })
        };
        let worker = {
            let (bell, dirty) = (bell.clone(), dirty.clone());
            thread::spawn(move || {
                *dirty.lock().unwrap() = true;
                bell.ring();
            })
        };
        let listener = {
            let (bell, incoming, draining) = (bell.clone(), incoming.clone(), draining.clone());
            thread::spawn(move || {
                *incoming.lock().unwrap() += 1;
                bell.ring();
                *draining.lock().unwrap() = true;
                bell.ring();
            })
        };
        worker.join().unwrap();
        listener.join().unwrap();
        io.join().unwrap();
    }

    /// The parked-flag protocol loses no wake-up: under every bounded
    /// interleaving the loop sees the dirty mark, the dealt socket and the
    /// drain, though it never sleeps with a timeout.
    #[cfg(not(feature = "buggy-doorbell"))]
    #[test]
    fn doorbell_loses_no_wakeup_proven() {
        let report = explorer().prove(doorbell_scenario);
        assert!(report.proven());
        assert!(report.schedules > 100, "interleavings actually explored");
    }

    /// REGRESSION (`--features model,buggy-doorbell`): publishing
    /// "parking" *after* the second look lets a ring fall between the two —
    /// the ringer finds the flag clear, rings nothing, and the loop sleeps
    /// on work it already missed.  The exploration must find that deadlock.
    #[cfg(feature = "buggy-doorbell")]
    #[test]
    fn doorbell_lost_wakeup_recaught() {
        let report = explorer().explore(doorbell_scenario);
        let failure = report.failure.expect(
            "checking before publishing must lose a wake-up within the bounded exploration",
        );
        assert!(
            failure.message.contains("deadlock"),
            "expected a deadlock, got: {}",
            failure.message
        );
        assert!(
            report.schedules <= 5_000,
            "the lost wake-up should surface within a few thousand interleavings, took {}",
            report.schedules
        );
    }
}
