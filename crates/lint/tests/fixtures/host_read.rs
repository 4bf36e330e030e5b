// Fixture: `host-read` — thread identity, machine width and environment
// reads fire in library code; test code is exempt.
fn lib() -> usize {
    let width = std::thread::available_parallelism().map_or(1, |n| n.get()); // line 4: violation
    let me = std::thread::current().id(); // line 5: violation
    let home = std::env::var_os("HOME"); // line 6: violation
    // ppc-lint: allow(host-read): fixture — sizes a buffer, never reaches a fingerprint
    let args = std::env::args().count(); // suppressed
    let _ = (me, home);
    width + args
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = std::thread::current().id(); // clean: tests are exempt
    }
}
