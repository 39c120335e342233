//! Error types for the iWARP stack.

use std::fmt;

use simnet::NetError;

/// Errors surfaced by the verbs interface and protocol engines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IwarpError {
    /// Error from the lower-layer protocol (fabric / conduit).
    Net(NetError),
    /// The referenced STag is not registered (or was invalidated).
    InvalidStag(u32),
    /// An access outside a registered region, or with insufficient rights.
    ///
    /// The DDP spec requires "the requested memory location must be
    /// registered with the device as a valid memory region" before
    /// placement; violations surface here (and terminate RC connections).
    AccessViolation {
        /// STag the operation referenced.
        stag: u32,
        /// Requested start offset.
        offset: u64,
        /// Requested length.
        len: u32,
    },
    /// Operation posted on a QP in the wrong state.
    QpState(&'static str),
    /// Per-segment CRC32 check failed; the segment was discarded.
    ///
    /// For UD this is *not* fatal (paper §IV.B item 2: a datagram QP is not
    /// forced into the error state on data loss); the error appears only in
    /// diagnostics counters unless explicitly polled.
    CrcMismatch,
    /// Message exceeds what the QP/LLP combination can carry.
    MessageTooLong {
        /// Requested message length.
        len: usize,
        /// Maximum supported by this QP type.
        max: usize,
    },
    /// The posted receive buffer is smaller than the arriving message.
    RecvBufferTooSmall {
        /// Posted buffer capacity.
        posted: u32,
        /// Incoming message length.
        incoming: u32,
    },
    /// A completion-queue poll timed out.
    PollTimeout,
    /// The send queue / receive queue is full.
    QueueFull,
    /// Connection management failure (MPA negotiation).
    Connection(&'static str),
}

impl fmt::Display for IwarpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IwarpError::Net(e) => write!(f, "lower layer: {e}"),
            IwarpError::InvalidStag(s) => write!(f, "invalid STag {s:#x}"),
            IwarpError::AccessViolation { stag, offset, len } => write!(
                f,
                "access violation: stag={stag:#x} offset={offset} len={len}"
            ),
            IwarpError::QpState(s) => write!(f, "invalid QP state: {s}"),
            IwarpError::CrcMismatch => write!(f, "DDP segment CRC mismatch"),
            IwarpError::MessageTooLong { len, max } => {
                write!(f, "message of {len} bytes exceeds QP maximum {max}")
            }
            IwarpError::RecvBufferTooSmall { posted, incoming } => write!(
                f,
                "posted receive of {posted} bytes cannot hold {incoming}-byte message"
            ),
            IwarpError::PollTimeout => write!(f, "completion poll timed out"),
            IwarpError::QueueFull => write!(f, "work queue full"),
            IwarpError::Connection(s) => write!(f, "connection management: {s}"),
        }
    }
}

impl std::error::Error for IwarpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IwarpError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for IwarpError {
    fn from(e: NetError) -> Self {
        match e {
            NetError::Timeout => IwarpError::PollTimeout,
            other => IwarpError::Net(other),
        }
    }
}

/// Convenience alias.
pub type IwarpResult<T> = Result<T, IwarpError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_timeout_becomes_poll_timeout() {
        assert_eq!(IwarpError::from(NetError::Timeout), IwarpError::PollTimeout);
    }

    #[test]
    fn other_net_errors_wrap() {
        assert_eq!(
            IwarpError::from(NetError::Closed),
            IwarpError::Net(NetError::Closed)
        );
    }

    #[test]
    fn display_is_informative() {
        let e = IwarpError::AccessViolation {
            stag: 0x10,
            offset: 4,
            len: 8,
        };
        let s = e.to_string();
        assert!(s.contains("0x10") && s.contains('4') && s.contains('8'));
    }
}
