//! The device: the software RNIC. Owns the registration table, allocates
//! QP numbers, and creates queue pairs of all three flavours.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use simnet::stream::StreamConfig;
use simnet::{Addr, DgramConduit, Fabric, NodeId, RdConduit};

use iwarp_common::memacct::MemRegistry;

use crate::buf::{Access, MemoryRegion, MrTable};
use crate::cq::Cq;
use crate::error::IwarpResult;
use crate::mpa::MpaConfig;
use crate::qp::dgram::DgLlp;
use crate::qp::{DatagramQp, QpConfig, RcListener, RcQp};
use crate::shard::{ShardConfig, ShardMap};

/// Device-wide configuration.
#[derive(Clone, Debug, Default)]
pub struct DeviceConfig {
    /// Stream-conduit (TCP analog) settings for RC connections.
    pub stream: StreamConfig,
    /// MPA negotiation request for RC connections.
    pub mpa: MpaConfig,
    /// Reliable-datagram settings for RD QPs.
    pub rd: simnet::rdgram::RdConfig,
    /// Memory registry: when set, per-QP and per-connection state is
    /// accounted here (drives the paper's Fig. 11 experiment).
    pub mem: Option<MemRegistry>,
    /// Shard-pool settings: with `shard.shards > 0`, threaded-mode UD QPs
    /// on this device are drained by a fixed pool of shard RX engines
    /// instead of one thread each (see [`crate::shard`]).
    pub shard: ShardConfig,
}

/// The software RNIC: one per fabric node.
pub struct Device {
    fabric: Fabric,
    node: NodeId,
    mrs: Arc<MrTable>,
    next_qpn: Arc<AtomicU32>,
    cfg: DeviceConfig,
    shards: Option<Arc<ShardMap>>,
}

impl Device {
    /// Creates a device on `node` with default configuration.
    #[must_use]
    pub fn new(fabric: &Fabric, node: NodeId) -> Self {
        Self::with_config(fabric, node, DeviceConfig::default())
    }

    /// Creates a device with explicit configuration.
    #[must_use]
    pub fn with_config(fabric: &Fabric, node: NodeId, mut cfg: DeviceConfig) -> Self {
        // Stream conduits account their buffers in the same registry.
        if cfg.stream.mem.is_none() {
            cfg.stream.mem = cfg.mem.clone();
        }
        // Fold this device's memory accounting into the fabric's telemetry
        // snapshots (`mem.<scope>.{current,peak}`).
        if let Some(reg) = &cfg.mem {
            fabric.telemetry().attach_mem(reg.clone());
        }
        let shards =
            (cfg.shard.shards > 0).then(|| ShardMap::new(cfg.shard.clone(), fabric.telemetry()));
        Self {
            fabric: fabric.clone(),
            node,
            mrs: Arc::new(MrTable::new()),
            next_qpn: Arc::new(AtomicU32::new(1)),
            cfg,
            shards,
        }
    }

    /// True when this device runs a shard pool (see
    /// [`DeviceConfig::shard`]).
    #[must_use]
    pub fn sharded(&self) -> bool {
        self.shards.is_some()
    }

    /// The fabric node this device lives on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The fabric handle.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The fabric-wide telemetry domain this device reports into.
    #[must_use]
    pub fn telemetry(&self) -> &iwarp_telemetry::Telemetry {
        self.fabric.telemetry()
    }

    /// The device's memory-registration table.
    #[must_use]
    pub fn mr_table(&self) -> &Arc<MrTable> {
        &self.mrs
    }

    /// The memory registry, if accounting is enabled.
    #[must_use]
    pub fn mem(&self) -> Option<&MemRegistry> {
        self.cfg.mem.as_ref()
    }

    /// Registers a fresh zeroed region of `len` bytes.
    #[must_use]
    pub fn register(&self, len: usize, access: Access) -> MemoryRegion {
        self.mrs.register(len, access)
    }

    /// Registers a region initialized with `data`.
    #[must_use]
    pub fn register_with(&self, data: &[u8], access: Access) -> MemoryRegion {
        self.mrs.register_with(data, access)
    }

    /// Creates a UD (unreliable datagram) QP bound at `port`
    /// (`None` = ephemeral).
    pub fn create_ud_qp(
        &self,
        port: Option<u16>,
        send_cq: &Cq,
        recv_cq: &Cq,
        cfg: QpConfig,
    ) -> IwarpResult<DatagramQp> {
        let conduit = match port {
            Some(p) => DgramConduit::bind(
                &self.fabric,
                Addr {
                    node: self.node,
                    port: p,
                },
            )?,
            None => DgramConduit::bind_ephemeral(&self.fabric, self.node)?,
        };
        Ok(self.build_dgram_qp(DgLlp::Ud(conduit), send_cq, recv_cq, cfg))
    }

    /// Creates an RD (reliable datagram) QP bound at `port`
    /// (`None` = ephemeral) — the paper's "RD mode".
    pub fn create_rd_qp(
        &self,
        port: Option<u16>,
        send_cq: &Cq,
        recv_cq: &Cq,
        cfg: QpConfig,
    ) -> IwarpResult<DatagramQp> {
        let rd_cfg = self.cfg.rd.clone();
        let conduit = match port {
            Some(p) => RdConduit::bind(
                &self.fabric,
                Addr {
                    node: self.node,
                    port: p,
                },
                rd_cfg,
            )?,
            None => RdConduit::bind_ephemeral(&self.fabric, self.node, rd_cfg)?,
        };
        Ok(self.build_dgram_qp(DgLlp::Rd(Box::new(conduit)), send_cq, recv_cq, cfg))
    }

    fn build_dgram_qp(&self, llp: DgLlp, send_cq: &Cq, recv_cq: &Cq, cfg: QpConfig) -> DatagramQp {
        let qpn = self.next_qpn.fetch_add(1, Ordering::Relaxed);
        let mem = self.cfg.mem.as_ref().map(|r| r.track("qp_dgram", 512));
        DatagramQp::new(
            qpn,
            llp,
            Arc::clone(&self.mrs),
            send_cq.clone(),
            recv_cq.clone(),
            cfg,
            mem,
            self.fabric.telemetry(),
            self.shards.as_ref(),
        )
    }

    /// Actively connects an RC QP to a remote [`RcListener`].
    pub fn rc_connect(
        &self,
        remote: Addr,
        send_cq: &Cq,
        recv_cq: &Cq,
        cfg: QpConfig,
    ) -> IwarpResult<RcQp> {
        crate::qp::rc::rc_connect(
            &self.fabric,
            self.node,
            remote,
            self.cfg.stream.clone(),
            self.cfg.mpa,
            Arc::clone(&self.mrs),
            &self.next_qpn,
            send_cq,
            recv_cq,
            cfg,
            self.cfg.mem.as_ref(),
        )
    }

    /// Binds an RC listener at `port` on this node.
    pub fn rc_listen(&self, port: u16) -> IwarpResult<RcListener> {
        RcListener::new(
            &self.fabric,
            Addr {
                node: self.node,
                port,
            },
            self.cfg.stream.clone(),
            self.cfg.mpa,
            Arc::clone(&self.mrs),
            Arc::clone(&self.next_qpn),
            self.cfg.mem.clone(),
        )
    }
}
