//! The live pipeline's launch and finish, with a parking call planted in
//! the surplus hand-back: a stage that delivers a query's last fragment
//! and then waits for its own answer would never get it.

fn launch() {
    let routed = qm.prepare(&query);
    reply.deliver(refused);
    stage.send(fragment);
}

fn on_ready() {
    done(outcome);
}

fn deliver() {
    join.deliver(index, result);
    self.finish(results, promise);
}

fn finish() {
    release_surplus(shared, surplus, then);
}

fn release_surplus() {
    let answer = rx.recv();
}

// The blocking release only a client thread calls: not reached.
fn release() {
    let answer = rx.recv();
}
