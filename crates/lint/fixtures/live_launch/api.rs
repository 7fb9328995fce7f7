//! The live backend's launch path in miniature: the window launches a
//! query through a method of the same name on the live pipeline's
//! launcher, and a redeemer leaves its completion in the outcome slot.

fn submit_with() {
    self.ledger.launch(query);
}

fn launch() {
    self.launcher.launch(query);
}

fn wait_with() {
    slot.on_ready(done);
}
