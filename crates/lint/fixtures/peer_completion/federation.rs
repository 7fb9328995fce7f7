//! The shape the federation's completion paths would have if they parked:
//! each entry point below runs on a reactor I/O thread or a backend stage,
//! so each blocking peer call it reaches must be reported — a blocking
//! dial in the dial step, a name lookup, and an inbound delegation served
//! by blocking on the local backend — while the same call inside a step
//! spawned on a thread of its own is not.

fn wait_with() {
    with_link();
}

fn with_link() {
    let (conn, version) = Conn::dial(&addr);
}

fn release_with() {
    let resolved = (host, port).to_socket_addrs();
    std::thread::spawn(move || {
        let (conn, version) = Conn::dial(&addr);
    });
}

fn delegate_with() {
    let (outcome, state) = self.handle_delegate(query, ttl, visited);
}
