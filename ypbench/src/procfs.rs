//! Kernel-side counts from `/proc`: context switches, read/write
//! syscalls, CPU time, peak resident set.
//!
//! Counts are first-class metrics here because they repeat when times do
//! not: on a shared 2-vCPU host wall-clock throughput swings by 2x with
//! the host's phase while switches and syscalls *per allocation* hold to
//! a percent or two.  The parsers are pure functions over file text so
//! they can be tested against captured fixtures.

use std::fs;
use std::io::{self, Read};

/// `voluntary_ctxt_switches` + `nonvoluntary_ctxt_switches` of one
/// `/proc/<pid>/task/<tid>/status`.
pub fn parse_ctxsw(status: &str) -> Option<u64> {
    let field = |name: &str| -> Option<u64> {
        status
            .lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| rest.trim_start_matches(':').trim().parse().ok())
    };
    Some(field("voluntary_ctxt_switches")? + field("nonvoluntary_ctxt_switches")?)
}

/// `VmHWM` (peak resident set) of `/proc/self/status`, in KiB.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// What the benchmark takes from `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// `syscr` + `syscw`: `read(2)`- and `write(2)`-family syscalls.  The
    /// kernel does not count `send`/`recv` here, and std's `TcpStream`
    /// uses those, so for this daemon the figure is the reactor's
    /// wake-pipe traffic: one `write` per completion posted to an I/O
    /// thread and the `read`s that drain it.
    pub syscalls: u64,
}

/// Parses `/proc/self/io`.
pub fn parse_io(text: &str) -> Option<IoCounts> {
    let field = |name: &str| -> Option<u64> {
        text.lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| rest.trim().parse().ok())
    };
    Some(IoCounts {
        syscalls: field("syscr:")? + field("syscw:")?,
    })
}

/// `(run_ns, runqueue_wait_ns)` of one `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// Per-task counters summed over every live thread of this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounts {
    /// Voluntary + non-voluntary context switches.
    pub ctxsw: u64,
    /// On-CPU time, nanoseconds.
    pub run_ns: u64,
    /// Time spent runnable but waiting for a CPU, nanoseconds.
    pub wait_ns: u64,
}

/// Sums `status` and `schedstat` over `/proc/self/task/*`.  A thread that
/// exits between two calls takes its counts with it, so callers keep
/// every thread of the measured system alive across the window (the
/// client threads are persistent for exactly this reason).
pub fn task_counts() -> io::Result<TaskCounts> {
    let mut total = TaskCounts::default();
    for entry in fs::read_dir("/proc/self/task")? {
        let dir = entry?.path();
        // A thread may exit between readdir and open; skip it.
        let (Ok(status), Ok(sched)) = (
            fs::read_to_string(dir.join("status")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        total.ctxsw += parse_ctxsw(&status).unwrap_or(0);
        if let Some((run, wait)) = parse_schedstat(&sched) {
            total.run_ns += run;
            total.wait_ns += wait;
        }
    }
    Ok(total)
}

/// Reads `/proc/self/io` with one `read` call, so the probe adds the same
/// single syscall to `syscr` every time it is taken.
pub fn io_counts() -> io::Result<IoCounts> {
    let mut buf = [0u8; 512];
    let n = fs::File::open("/proc/self/io")?.read(&mut buf)?;
    let text = std::str::from_utf8(&buf[..n])
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    parse_io(text).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "/proc/self/io"))
}

/// Peak resident set of this process, MiB.
pub fn rss_peak_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    parse_vmhwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "VmHWM missing"))
}

/// Everything sampled at a window edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Per-task sums.
    pub tasks: TaskCounts,
    /// Process-wide I/O accounting.
    pub io: IoCounts,
}

/// Opens a measurement window.  The task files are read *before* the I/O
/// counters and [`close_window`] reads them in the opposite order, so the
/// `read` calls the probes themselves make fall outside the I/O window.
pub fn open_window() -> io::Result<Snapshot> {
    let tasks = task_counts()?;
    let io = io_counts()?;
    Ok(Snapshot { tasks, io })
}

/// Closes a window opened by [`open_window`] and returns the deltas.
pub fn close_window(open: &Snapshot) -> io::Result<Snapshot> {
    let io = io_counts()?;
    let tasks = task_counts()?;
    Ok(Snapshot {
        tasks: TaskCounts {
            ctxsw: tasks.ctxsw.saturating_sub(open.tasks.ctxsw),
            run_ns: tasks.run_ns.saturating_sub(open.tasks.run_ns),
            wait_ns: tasks.wait_ns.saturating_sub(open.tasks.wait_ns),
        },
        io: IoCounts {
            syscalls: io.syscalls.saturating_sub(open.io.syscalls),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = include_str!("../fixtures/proc_status.txt");
    const IO: &str = include_str!("../fixtures/proc_io.txt");
    const SCHEDSTAT: &str = include_str!("../fixtures/proc_schedstat.txt");

    #[test]
    fn status_fixture_yields_switches_and_peak_rss() {
        assert_eq!(parse_ctxsw(STATUS), Some(3667 + 8031));
        assert_eq!(parse_vmhwm_kb(STATUS), Some(321_464));
    }

    #[test]
    fn io_fixture_yields_read_and_write_syscalls() {
        assert_eq!(
            parse_io(IO),
            Some(IoCounts {
                syscalls: 16_255 + 9_658,
            })
        );
    }

    #[test]
    fn schedstat_fixture_yields_run_and_wait_time() {
        assert_eq!(
            parse_schedstat(SCHEDSTAT),
            Some((7_306_812_099, 2_421_137_223))
        );
    }

    #[test]
    fn truncated_files_parse_to_none_not_garbage() {
        assert_eq!(parse_ctxsw("voluntary_ctxt_switches:\t12\n"), None);
        assert_eq!(parse_vmhwm_kb("VmRSS:\t10 kB\n"), None);
        assert_eq!(parse_io("rchar: 1\nwchar: 2\nsyscr: 3\n"), None);
        assert_eq!(parse_schedstat("17"), None);
    }

    #[test]
    fn a_window_over_known_work_counts_it() {
        let _serial = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let open = open_window().expect("procfs is readable");
        for _ in 0..50 {
            let _ = std::fs::read("/proc/self/stat").expect("procfs is readable");
        }
        let delta = close_window(&open).expect("procfs is readable");
        // 50 files, at least one read each; the window's own probe reads
        // are a handful, not hundreds.
        assert!(
            (50..400).contains(&delta.io.syscalls),
            "{} read/write syscalls",
            delta.io.syscalls
        );
        assert!(rss_peak_mb().expect("VmHWM") > 0.0);
    }
}
