//! WSRF fault types.

use std::fmt;

/// Errors raised by the WSRF layer (resource lifecycle, service groups).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WsrfError {
    /// A resource with this key already exists and is live.
    AlreadyExists {
        /// Offending key.
        key: String,
    },
    /// No live resource under this key.
    NoSuchResource {
        /// Requested key.
        key: String,
    },
    /// A service-group entry was not found.
    NoSuchEntry {
        /// Requested entry id.
        id: u64,
    },
    /// An XPath query failed to compile.
    InvalidQuery {
        /// Compiler message.
        message: String,
    },
}

impl fmt::Display for WsrfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsrfError::AlreadyExists { key } => {
                write!(f, "resource already exists: {key:?}")
            }
            WsrfError::NoSuchResource { key } => write!(f, "no such resource: {key:?}"),
            WsrfError::NoSuchEntry { id } => write!(f, "no such service-group entry: {id}"),
            WsrfError::InvalidQuery { message } => write!(f, "invalid query: {message}"),
        }
    }
}

impl std::error::Error for WsrfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WsrfError::AlreadyExists { key: "x".into() };
        assert!(e.to_string().contains("already exists"));
        let e = WsrfError::InvalidQuery {
            message: "bad".into(),
        };
        assert!(e.to_string().contains("bad"));
    }
}
