//! The socket stack: the shim's per-process state.
//!
//! "It tracks the socket to QP matching so that each socket is only
//! associated with a single QP ... only the QP to file descriptor mapping
//! and whether the file descriptor has been previously initialized as an
//! iWARP socket [is stored in the interface]" (paper §V.A.1).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simnet::{Addr, Fabric, NodeId};

use iwarp::{CompletionChannel, Device, DeviceConfig, IwarpResult, QpConfig};
use iwarp_common::slab::{Handle, Slab, SlabStats};

use crate::dgram::{DgramMode, DgramSocket};
use crate::stream::{StreamListener, StreamSocket};

/// Socket-shim configuration.
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// Datagram data path: two-sided send/recv or one-sided Write-Record.
    pub mode: DgramMode,
    /// Pre-posted receive slots per socket.
    pub recv_slots: usize,
    /// Bytes per receive slot — also the largest datagram the socket can
    /// deliver (larger sends complete at the source but are dropped at the
    /// receiver with a `RecvTooSmall` diagnostic, UDP-style).
    pub slot_size: usize,
    /// Deliver the valid prefix of partially placed Write-Record messages
    /// instead of dropping them (for loss-tolerant media applications).
    pub deliver_partial: bool,
    /// How long a Write-Record sender waits for a ring advertisement
    /// before falling back to send/recv.
    pub adv_timeout: Duration,
    /// Underlying queue-pair configuration. `qp.poll_mode` also decides
    /// completion notification: on a threaded stack every datagram
    /// socket's receive CQ is subscribed to the stack's
    /// [`CompletionChannel`] (token = fd) so one thread can park on
    /// [`SocketStack::wait_ready`] for all of them; poll-mode QPs only
    /// progress when the caller drives them, so they stay unsubscribed
    /// (a parked waiter would never wake).
    pub qp: QpConfig,
}

impl Default for SocketConfig {
    fn default() -> Self {
        Self {
            mode: DgramMode::SendRecv,
            recv_slots: 16,
            slot_size: 8 * 1024,
            deliver_partial: false,
            adv_timeout: Duration::from_secs(1),
            qp: QpConfig::default(),
        }
    }
}

/// What an fd refers to (diagnostic view of the shim's table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FdKind {
    /// Datagram socket (UD QP).
    Dgram,
    /// Stream socket (RC QP).
    Stream,
    /// Listening stream socket.
    Listener,
}

/// Per-socket receive-resource sizing, overriding the stack-wide
/// [`SocketConfig`] defaults for one socket.
///
/// The Fig. 11 memory-per-call axis is dominated by the receive slot
/// region (`recv_slots × slot_size` of registered memory per socket): the
/// stack default (16 × 8 KiB) is right for general datagram traffic but
/// is ~128 KiB of resident state a per-call SIP socket — which only ever
/// sees a handful of sub-KiB in-dialog requests — never touches.
/// [`DgramProfile::compact`] right-sizes those sockets; datagrams larger
/// than `slot_size` are dropped at the receiver with a `RecvTooSmall`
/// diagnostic, UDP-style, exactly as with the stack-wide `slot_size`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DgramProfile {
    /// Pre-posted receive slots for this socket.
    pub recv_slots: usize,
    /// Bytes per receive slot (largest deliverable datagram).
    pub slot_size: usize,
}

impl DgramProfile {
    /// Small-footprint profile for per-call control sockets: 2 slots of
    /// 1 KiB. Two slots tolerate a request arriving while the previous
    /// one is being consumed; 1 KiB comfortably holds every in-dialog SIP
    /// message the workload generates (~300–600 B).
    #[must_use]
    pub fn compact() -> Self {
        Self {
            recv_slots: 2,
            slot_size: 1024,
        }
    }

    /// The stack-wide default profile from `cfg`.
    pub(crate) fn from_config(cfg: &SocketConfig) -> Self {
        Self {
            recv_slots: cfg.recv_slots,
            slot_size: cfg.slot_size,
        }
    }
}

/// First fd the shim hands out (0–2 stay reserved, POSIX-style).
const FD_BASE: u32 = 3;

/// A slab-backed fd reservation: the public fd number a socket exposes
/// plus the generation-checked [`Handle`] guarding its slot, so a
/// double-release (or a release racing a reuse) is rejected by the slab
/// instead of silently evicting the slot's new occupant.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FdSlot {
    /// Public fd number (`FD_BASE + slot index`; reused after close).
    pub fd: u32,
    handle: Handle,
}

pub(crate) struct StackInner {
    pub device: Device,
    pub cfg: SocketConfig,
    /// Stack-wide completion channel datagram sockets subscribe to
    /// (token = fd) unless `cfg.qp.poll_mode`.
    pub chan: CompletionChannel,
    /// The fd table, compacted onto a slab: fds are `FD_BASE + index`, so
    /// 100k sockets cost one contiguous tag array instead of 100k hashed
    /// nodes, and closed slots are reused instead of growing forever.
    fds: Mutex<Slab<FdKind>>,
}

impl StackInner {
    pub fn alloc_fd(&self, kind: FdKind) -> FdSlot {
        let handle = self.fds.lock().insert(kind);
        FdSlot {
            fd: FD_BASE + handle.index(),
            handle,
        }
    }

    pub fn release_fd(&self, slot: FdSlot) {
        self.fds.lock().remove(slot.handle);
    }
}

/// The iWARP socket interface: creates datagram and stream sockets whose
/// data operations run over iWARP verbs.
#[derive(Clone)]
pub struct SocketStack {
    pub(crate) inner: Arc<StackInner>,
}

impl SocketStack {
    /// Creates a stack on `node` with default configuration.
    #[must_use]
    pub fn new(fabric: &Fabric, node: NodeId) -> Self {
        Self::with_config(fabric, node, DeviceConfig::default(), SocketConfig::default())
    }

    /// Creates a stack with explicit device and socket configuration.
    #[must_use]
    pub fn with_config(
        fabric: &Fabric,
        node: NodeId,
        device_cfg: DeviceConfig,
        cfg: SocketConfig,
    ) -> Self {
        let chan = CompletionChannel::new();
        chan.attach_telemetry(fabric.telemetry());
        let device = Device::with_config(fabric, node, device_cfg);
        // The fd slab reports its backing bytes to the device's memory
        // registry (category "fd_table") and its activity to the fabric's
        // telemetry domain (`mem.slab.*`).
        let mut fds = Slab::new();
        if let Some(reg) = device.mem() {
            fds = fds.with_mem(reg.track("fd_table", 0));
        }
        let stats = SlabStats::new();
        fabric.telemetry().attach_slab(stats.clone());
        fds = fds.with_stats(stats);
        Self {
            inner: Arc::new(StackInner {
                device,
                cfg,
                chan,
                fds: Mutex::new(fds),
            }),
        }
    }

    /// The underlying device (for direct verbs access alongside sockets).
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// The stack's socket configuration.
    #[must_use]
    pub fn config(&self) -> &SocketConfig {
        &self.inner.cfg
    }

    /// Opens a datagram socket at an ephemeral port.
    pub fn dgram(&self) -> IwarpResult<DgramSocket> {
        DgramSocket::open(Arc::clone(&self.inner), None, None)
    }

    /// Opens a datagram socket bound at `port`.
    pub fn dgram_bound(&self, port: u16) -> IwarpResult<DgramSocket> {
        DgramSocket::open(Arc::clone(&self.inner), Some(port), None)
    }

    /// Opens a datagram socket at an ephemeral port with an explicit
    /// receive-resource profile (e.g. [`DgramProfile::compact`] for
    /// per-call sockets that only ever see small control messages).
    pub fn dgram_with(&self, profile: DgramProfile) -> IwarpResult<DgramSocket> {
        DgramSocket::open(Arc::clone(&self.inner), None, Some(profile))
    }

    /// Opens a datagram socket bound at `port` with an explicit
    /// receive-resource profile.
    pub fn dgram_bound_with(&self, port: u16, profile: DgramProfile) -> IwarpResult<DgramSocket> {
        DgramSocket::open(Arc::clone(&self.inner), Some(port), Some(profile))
    }

    /// Connects a stream socket to a remote listener.
    pub fn connect(&self, remote: Addr) -> IwarpResult<StreamSocket> {
        StreamSocket::connect(Arc::clone(&self.inner), remote)
    }

    /// Opens a listening stream socket at `port`.
    pub fn listen(&self, port: u16) -> IwarpResult<StreamListener> {
        StreamListener::bind(Arc::clone(&self.inner), port)
    }

    /// Number of open iWARP sockets in the shim's fd table.
    #[must_use]
    pub fn open_sockets(&self) -> usize {
        self.inner.fds.lock().len()
    }

    /// The stack's completion channel — datagram sockets' receive CQs are
    /// subscribed here (token = fd) unless the stack is poll-mode.
    #[must_use]
    pub fn completion_channel(&self) -> &CompletionChannel {
        &self.inner.chan
    }

    /// Parks until at least one subscribed socket has receive-side work,
    /// returning the ready fds (empty on timeout) — the `epoll_wait` of
    /// the shim. Callers must then fully drain each ready socket (e.g.
    /// loop [`crate::DgramSocket::try_recv_from`] until `None`):
    /// readiness is edge-style and coalesced.
    #[must_use]
    pub fn wait_ready(&self, timeout: Duration) -> Vec<u32> {
        self.inner
            .chan
            .wait_any(timeout)
            .into_iter()
            .map(|t| t as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_table_tracks_sockets() {
        let fab = Fabric::loopback();
        let stack = SocketStack::new(&fab, NodeId(0));
        assert_eq!(stack.open_sockets(), 0);
        let s1 = stack.dgram().unwrap();
        let s2 = stack.dgram().unwrap();
        assert_eq!(stack.open_sockets(), 2);
        assert_ne!(s1.fd(), s2.fd());
        drop(s1);
        assert_eq!(stack.open_sockets(), 1);
        drop(s2);
        assert_eq!(stack.open_sockets(), 0);
    }

    #[test]
    fn fd_slots_are_reused_after_close() {
        let fab = Fabric::loopback();
        let stack = SocketStack::new(&fab, NodeId(0));
        let s1 = stack.dgram().unwrap();
        let fd1 = s1.fd();
        drop(s1);
        // The slab reuses the freed slot, so the fd number comes back
        // instead of growing the table forever.
        let s2 = stack.dgram().unwrap();
        assert_eq!(s2.fd(), fd1);
        assert_eq!(stack.open_sockets(), 1);
    }

    #[test]
    fn compact_profile_right_sizes_the_socket() {
        let fab = Fabric::loopback();
        let stack = SocketStack::new(&fab, NodeId(0));
        let s = stack.dgram_with(DgramProfile::compact()).unwrap();
        assert_eq!(s.max_datagram(), 1024);
        // Default-profile sockets are unchanged.
        let d = stack.dgram().unwrap();
        assert_eq!(d.max_datagram(), stack.config().slot_size);
    }

    #[test]
    fn bound_port_is_respected() {
        let fab = Fabric::loopback();
        let stack = SocketStack::new(&fab, NodeId(0));
        let s = stack.dgram_bound(5555).unwrap();
        assert_eq!(s.local_addr().port, 5555);
    }
}
