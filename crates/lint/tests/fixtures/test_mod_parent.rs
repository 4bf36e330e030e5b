//! Library file that pulls its tests in out of line.

pub fn lib() -> u32 {
    3
}

#[cfg(test)]
mod tests;

pub fn after_the_declaration(x: Option<u32>) -> u32 {
    x.unwrap()
}
