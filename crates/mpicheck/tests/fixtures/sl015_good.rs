//@ path: crates/core/src/transport.rs
fn exchange_tile(comm: &Comm, send: &[u64], recv: Vec<u64>) -> Vec<u64> {
    comm.ialltoall(send, 1, recv).wait(comm)
}

fn settle(comm: &Comm) {
    comm.barrier();
}
