//! The shape `dispatch_frame` had when `Release` was answered inline on
//! the I/O thread through the hosted backend.  Behind the trait object
//! sat `LivePipeline::release`, which parks for a pool-manager round trip;
//! `reactor-blocking` could not follow the call and stayed green.  The
//! `manager.release(..)` below must be reported: it sits in a closure that
//! is *defined* outside any dispatch call and run inline on the
//! non-federated path.  So must the inline `manager.try_poll(..)`, which
//! on a federated backend waits for the chain its poll started.

fn io_thread_main() {
    dispatch_frame();
}

fn dispatch_frame() {
    match frame {
        ClientFrame::Submit { corr, query } => {
            std::thread::spawn(move || {
                handle_submit(&shared, &job_state, corr, &query)
            });
        }
        ClientFrame::Poll { corr, ticket } => match shared.manager.try_poll(backend_ticket) {
            None => state.send(&ServerFrame::Pending { corr }),
            Some(outcome) => state.deliver_outcome(corr, outcome),
        },
        ClientFrame::Release { corr, allocation } => {
            let release = {
                let shared = shared.clone();
                let state = state.clone();
                move || match shared.manager.release(&allocation) {
                    Ok(()) => state.send(&ServerFrame::Released { corr }),
                    Err(error) => state.send(&ServerFrame::Error { corr, error }),
                }
            };
            if shared.federation.is_some() {
                std::thread::spawn(release);
            } else {
                release();
            }
        }
        ClientFrame::Stats { corr } => {
            let stats = shared.manager.stats();
            state.send(&ServerFrame::StatsReply { corr, stats });
        }
    }
}

fn handle_submit() {
    // Only ever run from a spawned closure: parking here is its thread's business.
    shared.manager.submit_text(query);
}
