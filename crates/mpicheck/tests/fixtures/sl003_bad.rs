//@ path: crates/demo/src/sl003.rs
fn exchange(env: &mut Env) {
    env.post_a2a(0); //~ SL003
}
