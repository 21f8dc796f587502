//@ path: crates/demo/src/sl002.rs
fn backoff(plan: &FaultPlan, rank: usize) {
    std::thread::sleep(plan.send_delay_for(rank));
}
