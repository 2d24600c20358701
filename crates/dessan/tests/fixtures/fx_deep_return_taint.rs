//@ path: crates/simtime/src/fx_deep_return_taint.rs
// Interprocedural edge case: a wall-clock read travels up a chain of
// twelve fns, each returning its callee's value, to an event timestamp.
// Every caller is declared before its callee, so even a summary pass
// that updated in place would gain one level per round: the return
// summaries must run to their fixpoint, however deep the chain, or the
// sink is silently missed.

fn drive(q: &mut Q) {
    let when = hop1();
    q.schedule(when, Ev::Tick); //~ nondet-taint
}

fn hop1() -> u64 {
    hop2()
}

fn hop2() -> u64 {
    hop3()
}

fn hop3() -> u64 {
    hop4()
}

fn hop4() -> u64 {
    hop5()
}

fn hop5() -> u64 {
    hop6()
}

fn hop6() -> u64 {
    hop7()
}

fn hop7() -> u64 {
    hop8()
}

fn hop8() -> u64 {
    hop9()
}

fn hop9() -> u64 {
    hop10()
}

fn hop10() -> u64 {
    hop11()
}

fn hop11() -> u64 {
    read_clock()
}

fn read_clock() -> u64 {
    let t = Instant::now().elapsed().as_nanos() as u64; //~ wall-clock
    t
}
