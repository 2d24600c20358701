//@ path: crates/mpisim/src/fx_hot_alloc_chain.rs
//! `hot-path-alloc` through the effect summaries: an allocation in a hot
//! body, one reached two calls away (reported at the hot fn's call line),
//! a hot callee whose own allocation is reported exactly once (inside it,
//! not again at its hot caller), and a `cold-call` marker cutting a call.

// doebench::hot
pub fn direct(n: usize) -> usize {
    let v = vec![0u8; n]; //~ hot-path-alloc
    v.len()
}

// doebench::hot
pub fn two_hop(n: usize) -> usize {
    step(n) + 1 //~ hot-path-alloc
}

fn step(n: usize) -> usize {
    grow(n)
}

fn grow(n: usize) -> usize {
    let label = format!("{n}");
    label.len()
}

// doebench::hot
pub fn outer(n: usize) -> usize {
    inner(n) + 1
}

// doebench::hot
fn inner(n: usize) -> usize {
    *Box::new(n) //~ hot-path-alloc
}

// doebench::hot
pub fn guarded(n: usize) -> usize {
    if n == 0 {
        // doebench::cold-call
        return report(n);
    }
    n
}

fn report(n: usize) -> usize {
    n.to_string().len()
}
