//! The daemon's thread inventory, read off a real `ypd` process: the
//! reactor's I/O threads and two worker lanes of four, whatever the load —
//! no per-session thread and no teardown lane.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Command, Stdio};

use actyp_proto::{read_server_frame, write_frame, ClientFrame, RequestId, ServerFrame};

/// The `ypd-*` threads of process `pid`, by name prefix.
fn ypd_threads(pid: u32) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("procfs lists the daemon's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("ypd-"))
        .collect();
    names.sort();
    names
}

#[test]
fn a_served_daemon_runs_two_io_threads_and_two_lanes_of_four() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_ypd"))
        .args(["--listen", "127.0.0.1:0", "--machines", "50"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("ypd starts");
    // Held open until the daemon exits: it reports its drain there.
    let mut stdout = BufReader::new(daemon.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    // "ypd: listening on HOST:PORT (…)": the server is up, every thread
    // it will ever run already spawned.
    let addr = banner
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let names = ypd_threads(daemon.id());
    let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
    assert_eq!(count("ypd-io-"), 2, "{names:?}");
    assert_eq!(count("ypd-submit-"), 4, "{names:?}");
    assert_eq!(count("ypd-redeem-"), 4, "{names:?}");
    assert_eq!(names.len(), 10, "nothing else: {names:?}");

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
        daemon.wait().unwrap().success(),
        "the daemon drains cleanly"
    );
    drop(stdout);
}
