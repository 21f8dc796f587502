//@ path: crates/core/src/executor.rs
fn exchange_tile(comm: &Comm, send: &[u64], recv: Vec<u64>) -> Vec<u64> {
    comm.ialltoall(send, 1, recv).wait(comm) //~ SL015
}

fn settle(comm: &Comm) {
    if comm.rank() == 0 {
        comm.barrier(); //~ SL015
    }
}
