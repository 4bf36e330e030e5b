//! Node-layer errors.

use crate::freq::Level;
use std::fmt;

/// Errors raised by node configuration and state changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// A power level outside the node's ladder was requested.
    InvalidLevel {
        /// The requested level.
        requested: Level,
        /// The highest valid level on this node's ladder.
        highest: Level,
    },
    /// A state change was commanded on a privileged (uncontrollable) node.
    Privileged,
    /// A specification value was out of range.
    InvalidSpec(String),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::InvalidLevel { requested, highest } => write!(
                f,
                "invalid power level {requested:?}; ladder tops out at {highest:?}"
            ),
            NodeError::Privileged => write!(f, "node is privileged (uncontrollable)"),
            NodeError::InvalidSpec(msg) => write!(f, "invalid node spec: {msg}"),
        }
    }
}

impl std::error::Error for NodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_facts() {
        let e = NodeError::InvalidLevel {
            requested: Level::new(12),
            highest: Level::new(9),
        };
        let s = e.to_string();
        assert!(s.contains("12") && s.contains('9'));
        assert!(NodeError::Privileged.to_string().contains("privileged"));
    }
}
