// Fixture: a `host-read` allow whose read was removed.
pub fn width() -> usize {
    // ppc-lint: allow(host-read): fixture — the width read below is gone
    1
}
