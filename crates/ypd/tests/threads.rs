//! The daemon's thread inventory, read off a real `ypd` process: the
//! reactor's I/O threads, whatever the load — no per-session thread, no
//! worker lane and no stage thread.  The hosted live pipeline's stages run
//! on the thread that finds them idle: the query manager on the thread
//! that launches a query, so its replicas are not threads, and each
//! pool-manager stage on whichever I/O thread gets its lock.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use actyp_proto::{read_server_frame, write_frame, ClientFrame, RequestId, ServerFrame};

/// The thread names of process `pid`, sorted.
fn names(pid: u32) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("procfs lists the daemon's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect();
    names.sort();
    names
}

/// The thread names of process `pid` that start with `prefix`.
fn threads(pid: u32, prefix: &str) -> Vec<String> {
    let mut names = names(pid);
    names.retain(|name| name.starts_with(prefix));
    names
}

/// Waits until every thread of `pid` has named itself: a spawned thread
/// carries the process name, `ypd`, until it first runs, and only the main
/// thread keeps it.
fn settle(pid: u32) {
    for _ in 0..500 {
        if names(pid).iter().filter(|name| *name == "ypd").count() == 1 {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("threads never named themselves: {:?}", names(pid));
}

/// A daemon that a failed assertion does not leave running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `ypd` with `flags`, hands its pid to `inspect` once every thread
/// it will ever run is spawned and named, then halts it and checks the
/// drain.
fn with_daemon(flags: &[&str], inspect: impl FnOnce(u32)) {
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_ypd"))
            .args(["--listen", "127.0.0.1:0", "--machines", "50"])
            .args(flags)
            .stdout(Stdio::piped())
            .spawn()
            .expect("ypd starts"),
    );
    // Held open until the daemon exits: it reports its drain there.
    let mut stdout = BufReader::new(daemon.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    // "ypd: listening on HOST:PORT (…)": the server is up.
    let addr = banner
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    settle(daemon.0.id());
    inspect(daemon.0.id());

    let mut sock = TcpStream::connect(&addr).unwrap();
    for frame in [
        ClientFrame::Hello {
            min_version: actyp_proto::PROTOCOL_VERSION,
            max_version: actyp_proto::PROTOCOL_VERSION,
        },
        ClientFrame::Halt { corr: RequestId(1) },
    ] {
        write_frame(&mut sock, &frame).unwrap();
        assert!(matches!(
            read_server_frame(&mut sock).unwrap(),
            Some(ServerFrame::HelloAck { .. } | ServerFrame::Ack { .. })
        ));
    }
    drop(sock);
    assert!(
        daemon.0.wait().unwrap().success(),
        "the daemon drains cleanly"
    );
    drop(stdout);
}

#[test]
fn a_served_daemon_runs_two_io_threads_and_nothing_else() {
    with_daemon(&[], |pid| {
        let names = threads(pid, "yp");
        assert_eq!(
            names,
            ["ypd", "ypd-io-0", "ypd-io-1"],
            "the main thread and two I/O threads, nothing else: {names:?}"
        );
    });
}

#[test]
fn pool_manager_stages_are_not_threads() {
    with_daemon(&["--pool-managers", "2"], |pid| {
        let names = threads(pid, "yp");
        assert_eq!(names, ["ypd", "ypd-io-0", "ypd-io-1"], "{names:?}");
    });
}
