//! The shape the federation's completion paths would have if they parked:
//! each entry point below runs on a reactor I/O thread or a backend stage,
//! so each blocking peer call it reaches must be reported — the exchange
//! and dial of a peer link, and an inbound delegation served by blocking
//! on the local backend — while the same call inside a step offloaded to
//! the redeem lane is not.

fn wait_with() {
    settle();
}

fn settle() {
    let (reply, fresh) = link.request(&domain, sync, attach, build);
}

fn release_with() {
    let reply = link.exchange(&peer, deadline, build);
    host.offload(Box::new(move || {
        let reply = link.request(&domain, sync, attach, build);
    }));
}

fn delegate_with() {
    let (outcome, state) = self.handle_delegate(query, ttl, visited);
}
