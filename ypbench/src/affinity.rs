//! Which CPU each side of a run is on: the clients on one, the daemon(s)
//! on another.
//!
//! Left to the guest scheduler, the threads of a run are either packed
//! onto one CPU or spread over two, and which it is changes with the
//! host's phase, not with the code: on the 2-vCPU VM the bounds were fixed
//! on, twenty minutes apart, the same binary measured 19.3 and then 21.9
//! context switches per allocation, an `echo` round trip of 5 µs and then
//! 45 µs (a wake-up that crosses CPUs is an inter-processor interrupt and
//! a hypervisor exit), and a peak RSS that repeated to 1 % and then to
//! 5 %.  So the placement is fixed instead.  The daemon has a CPU to
//! itself, as it does when its clients are other machines, and every
//! frame between a client and the daemon crosses CPUs, as every frame
//! that arrives from a network does.  What the gate cannot see this way
//! is contention *between* daemon threads on different cores.
//!
//! Linux only, like the `/proc` readers: two libc calls that std already
//! links.

/// Words of a `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// `[clients, daemon]`; `None` when the process may not use two CPUs.
    cpus: Option<[usize; 2]>,
}

impl Placement {
    /// The calling thread's two lowest allowed CPUs.  Call it before the
    /// thread is moved: once per process.
    pub fn detect() -> Placement {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let mut allowed = (0..MASK_WORDS * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1);
        let cpus = match (rc, allowed.next(), allowed.next()) {
            (0, Some(clients), Some(daemon)) => Some([clients, daemon]),
            _ => None,
        };
        Placement { cpus }
    }

    /// One line for the report.
    pub fn describe(&self) -> String {
        match self.cpus {
            Some([clients, daemon]) => format!("clients on CPU {clients}, daemon on CPU {daemon}"),
            None => "fewer than two CPUs allowed: nothing pinned, counts and times will not repeat"
                .to_string(),
        }
    }

    /// Moves the calling thread to the clients' CPU; threads it spawns
    /// from now on start there.
    pub fn clients(&self) -> Result<(), String> {
        self.move_to(0)
    }

    /// Moves the calling thread to the daemon's CPU; threads it spawns
    /// from now on start there.
    pub fn daemon(&self) -> Result<(), String> {
        self.move_to(1)
    }

    fn move_to(&self, side: usize) -> Result<(), String> {
        let Some(cpus) = self.cpus else {
            return Ok(());
        };
        let cpu = cpus[side];
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the size passed; the
        // call only changes where the calling thread (pid 0) may run.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!("cannot move a thread to CPU {cpu}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_spawned_after_a_move_starts_on_that_side() {
        // On a thread of its own, so the test harness's thread stays put.
        std::thread::spawn(|| {
            let placement = Placement::detect();
            let Some([clients, daemon]) = placement.cpus else {
                return;
            };
            assert_ne!(clients, daemon);
            placement.daemon().expect("allowed CPU");
            let inherited = std::thread::spawn(Placement::detect)
                .join()
                .expect("thread");
            assert_eq!(inherited.cpus, None, "one CPU allowed: {inherited:?}");
            placement.clients().expect("allowed CPU");
            assert_eq!(Placement::detect().cpus, None);
        })
        .join()
        .expect("thread");
    }
}
