//! Out-of-line test module with no `#![cfg(test)]` of its own.

use super::*;

#[test]
fn lib_is_three() {
    assert_eq!(Some(lib()).unwrap(), 3);
}

fn expect_some(x: Option<u32>) -> u32 {
    x.expect("fixture")
}
