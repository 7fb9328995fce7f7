//! The two yardsticks every time-like metric is divided by.
//!
//! On a shared VM the same code runs 2x faster or slower from one minute
//! to the next, so raw milliseconds do not repeat.  A *ratio* to a fixed
//! piece of reference work measured beside the chunk does: the host's
//! phase moves both sides.  Two references, because the workloads are
//! bound by two different things:
//!
//! * `echo` — a 64-byte round trip between two threads over a persistent
//!   loopback TCP pair.  Wake-up and syscall bound, like the daemon's wire
//!   path.
//! * `spin` — a fixed 3 M-step xorshift loop.  Compute bound, like the
//!   scheduling process's linear scan.
//!
//! A workload declares which of the two its times are expressed in.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::affinity::Placement;
use crate::stats::{median, spread};

/// Round trips per `echo` sample.
const ECHO_ROUND_TRIPS: usize = 200;
/// Payload of one echo message.
const ECHO_BYTES: usize = 64;
/// Steps per `spin` slice; a sample is three slices.
const SPIN_SLICE_STEPS: u64 = 1_000_000;
const SPIN_SLICES: usize = 3;

/// The yardstick a workload's times are divided by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Yardstick {
    /// The loopback round trip: for workloads bound by the wire path.
    Echo,
    /// The xorshift loop: for workloads bound by computing.
    Spin,
}

impl Yardstick {
    /// The name printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            Yardstick::Echo => "echo",
            Yardstick::Spin => "spin",
        }
    }

    /// This yardstick's reading in one sample, seconds.
    pub fn of(self, sample: &Sample) -> f64 {
        match self {
            Yardstick::Echo => sample.echo_s,
            Yardstick::Spin => sample.spin_s,
        }
    }

    /// The reading over a window: mean of the samples at its two edges.
    pub fn between(self, before: &Sample, after: &Sample) -> f64 {
        (self.of(before) + self.of(after)) / 2.0
    }
}

/// One sampling of both yardsticks, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Median loopback round trip.
    pub echo_s: f64,
    /// One 3 M-step spin (three times the median 1 M-step slice).
    pub spin_s: f64,
}

/// The yardstick pair, on two threads of its own.
///
/// The *ping* thread takes the samples (round trips, then the spin); the
/// *pong* thread echoes.  A round trip is two thread hand-offs through the
/// kernel — what the daemon's request path is made of — and moves with
/// what a hand-off costs on the host right now.  Ping is on the clients'
/// CPU and pong on the daemon's, so a round trip crosses CPUs twice, like
/// a request and its reply.
pub struct Yardsticks {
    requests: Option<Sender<()>>,
    samples: Receiver<io::Result<Sample>>,
    threads: Vec<JoinHandle<()>>,
}

impl Yardsticks {
    /// Starts both threads, and leaves the calling thread on the clients'
    /// CPU.  They block between samples, so they cost the measured system
    /// nothing while a chunk runs.
    pub fn start(placement: &Placement) -> io::Result<Self> {
        placement.daemon().map_err(io::Error::other)?;
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let pong = std::thread::Builder::new()
            .name("yardstick-pong".to_string())
            .spawn(move || {
                let Ok((mut peer, _)) = listener.accept() else {
                    return;
                };
                let _ = peer.set_nodelay(true);
                let mut buf = [0u8; ECHO_BYTES];
                // Ends on the clean EOF the ping thread's exit causes.
                while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
            })?;
        placement.clients().map_err(io::Error::other)?;
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged peer must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let (requests, inbox) = channel::<()>();
        let (outbox, samples) = channel();
        let ping = std::thread::Builder::new()
            .name("yardstick-ping".to_string())
            .spawn(move || {
                // Ends when `stop` drops the request sender.
                while inbox.recv().is_ok() {
                    if outbox.send(take_sample(&mut stream)).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Yardsticks {
            requests: Some(requests),
            samples,
            threads: vec![ping, pong],
        })
    }

    /// Samples both yardsticks (about 15 ms together).
    pub fn sample(&mut self) -> Result<Sample, String> {
        let gone = || "yardstick: thread is gone".to_string();
        self.requests
            .as_ref()
            .ok_or_else(gone)?
            .send(())
            .map_err(|_| gone())?;
        self.samples
            .recv()
            .map_err(|_| gone())?
            .map_err(|e| format!("yardstick: {e}"))
    }
}

impl Drop for Yardsticks {
    /// Stops and joins both threads: the ping thread ends when its request
    /// channel closes and drops its stream; that EOF ends pong.
    fn drop(&mut self) {
        self.requests = None;
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn take_sample(stream: &mut TcpStream) -> io::Result<Sample> {
    let mut buf = [0x5au8; ECHO_BYTES];
    let mut trips = Vec::with_capacity(ECHO_ROUND_TRIPS);
    for _ in 0..ECHO_ROUND_TRIPS {
        let started = Instant::now();
        stream.write_all(&buf)?;
        stream.read_exact(&mut buf)?;
        trips.push(started.elapsed().as_secs_f64());
    }
    Ok(Sample {
        echo_s: median(&trips),
        spin_s: spin_sample(),
    })
}

/// One `spin` sample, seconds: three times the median of three 1 M-step
/// slices, so a slice that was preempted does not set the figure.
pub fn spin_sample() -> f64 {
    let slices: Vec<f64> = (0..SPIN_SLICES).map(|_| spin_slice()).collect();
    median(&slices) * SPIN_SLICES as f64
}

/// Times one 1 M-step xorshift slice.  The state is threaded through
/// `black_box` so the loop can be neither precomputed nor deleted.
fn spin_slice() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..SPIN_SLICE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64()
}

/// What `ypbench selfcheck` measured: the yardsticks alone, no daemon.
#[derive(Debug)]
pub struct SelfCheck {
    /// Samples taken.
    pub samples: usize,
    /// Median echo round trip, seconds.
    pub echo_s: f64,
    /// Median 3 M-step spin, seconds.
    pub spin_s: f64,
    /// Quartile spread of the echo samples.
    pub echo_spread: f64,
    /// Quartile spread of the spin samples.
    pub spin_spread: f64,
}

impl SelfCheck {
    /// The larger of the two spreads — `yardstick.spread` for a host with
    /// no workload on it.
    pub fn spread(&self) -> f64 {
        self.echo_spread.max(self.spin_spread)
    }
}

/// Samples the yardsticks back to back for `duration`, pausing between
/// samples as long as a chunk would run so the spread is chunk to chunk.
pub fn selfcheck(duration: Duration) -> Result<SelfCheck, String> {
    let mut yardsticks =
        Yardsticks::start(&Placement::detect()).map_err(|e| format!("yardsticks: {e}"))?;
    let deadline = Instant::now() + duration;
    let (mut echo, mut spin) = (Vec::new(), Vec::new());
    while Instant::now() < deadline || echo.len() < 4 {
        let sample = yardsticks.sample()?;
        echo.push(sample.echo_s);
        spin.push(sample.spin_s);
        std::thread::sleep(Duration::from_millis(100));
    }
    drop(yardsticks);
    Ok(SelfCheck {
        samples: echo.len(),
        echo_s: median(&echo),
        spin_s: median(&spin),
        echo_spread: spread(&echo),
        spin_spread: spread(&spin),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_yardsticks_measure_something_and_stop_cleanly() {
        let _serial = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut yardsticks = Yardsticks::start(&Placement::detect()).expect("loopback available");
        let a = yardsticks.sample().expect("sample");
        let b = yardsticks.sample().expect("sample");
        for s in [a, b] {
            assert!(s.echo_s > 0.0 && s.echo_s < 0.05, "echo {}", s.echo_s);
            assert!(s.spin_s > 0.0 && s.spin_s < 1.0, "spin {}", s.spin_s);
        }
        assert_eq!(Yardstick::Echo.between(&a, &b), (a.echo_s + b.echo_s) / 2.0);
        assert_eq!(Yardstick::Spin.of(&a), a.spin_s);
        drop(yardsticks);
    }

    #[test]
    fn spin_time_grows_with_the_work() {
        // black_box is only a hint: confirm the loop really runs by
        // checking three slices take longer than the fastest single one.
        let _serial = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let single = (0..5).map(|_| spin_slice()).fold(f64::MAX, f64::min);
        let started = Instant::now();
        for _ in 0..3 {
            spin_slice();
        }
        assert!(started.elapsed().as_secs_f64() > single * 2.0);
    }
}
