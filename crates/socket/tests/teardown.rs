//! A closed socket gives back its registrations: under open/close churn
//! the device's `MrTable` holds exactly the open sockets' regions, and a
//! closed Write-Record socket's ring STag no longer resolves.

use std::time::Duration;

use iwarp::{Access, IwarpError, QpConfig};
use iwarp_socket::{DgramMode, DgramProfile, SocketConfig, SocketStack};
use simnet::{Addr, Fabric, NodeId};

const TO: Duration = Duration::from_secs(5);
/// Sockets held open across the churn.
const HELD: usize = 8;

fn poll_mode(mode: DgramMode) -> SocketConfig {
    SocketConfig {
        mode,
        qp: QpConfig {
            poll_mode: true,
            ..QpConfig::default()
        },
        ..SocketConfig::default()
    }
}

fn regions(stack: &SocketStack) -> usize {
    stack.device().mr_table().len()
}

#[test]
fn datagram_churn_leaves_only_open_sockets_registered() {
    let fab = Fabric::loopback();
    let stack = SocketStack::with_config(
        &fab,
        NodeId(0),
        Default::default(),
        poll_mode(DgramMode::SendRecv),
    );
    let base = regions(&stack);
    let held: Vec<_> = (0..HELD)
        .map(|_| stack.dgram_with(DgramProfile::compact()).unwrap())
        .collect();
    assert_eq!(regions(&stack), base + HELD, "one slot region per socket");
    for _ in 0..500 {
        drop(stack.dgram_with(DgramProfile::compact()).unwrap());
        drop(stack.dgram().unwrap());
    }
    assert_eq!(regions(&stack), base + HELD);
    drop(held);
    assert_eq!(regions(&stack), base);
}

#[test]
fn stream_churn_leaves_only_open_sockets_registered() {
    let fab = Fabric::loopback();
    let client = SocketStack::new(&fab, NodeId(0));
    let server = SocketStack::new(&fab, NodeId(1));
    let listener = server.listen(7100).unwrap();
    let to = Addr::new(1, 7100);
    let (client_base, server_base) = (regions(&client), regions(&server));
    let connect = || {
        std::thread::scope(|s| {
            let accepted = s.spawn(|| listener.accept(TO).unwrap());
            let c = client.connect(to).unwrap();
            let a = accepted.join().unwrap();
            c.send(b"x").unwrap();
            let mut byte = [0u8; 1];
            a.recv_exact(&mut byte, TO).unwrap();
            (c, a)
        })
    };
    let held: Vec<_> = (0..2).map(|_| connect()).collect();
    for _ in 0..20 {
        drop(connect());
    }
    assert_eq!(regions(&client), client_base + 2);
    assert_eq!(regions(&server), server_base + 2);
    drop(held);
    assert_eq!(regions(&client), client_base);
    assert_eq!(regions(&server), server_base);
}

#[test]
fn a_closed_write_record_rings_stag_no_longer_resolves() {
    let fab = Fabric::loopback();
    let stack = SocketStack::with_config(
        &fab,
        NodeId(0),
        Default::default(),
        poll_mode(DgramMode::WriteRecord),
    );
    let mrs = stack.device().mr_table();
    // The socket's two regions take the STags right after a probe's.
    let probe = stack.device().register(1, Access::Local);
    let sock = stack.dgram().unwrap();
    let ring = (probe.stag() + 1..=probe.stag() + 2)
        .find(|&stag| {
            mrs.lookup(stag)
                .is_ok_and(|mr| mr.access().allows_remote_write())
        })
        .expect("a Write-Record socket registers a remote-writable ring");
    assert!(mrs.lookup_remote_write(ring, 0, 64).is_ok());
    drop(sock);
    assert_eq!(mrs.lookup(ring).unwrap_err(), IwarpError::InvalidStag(ring));
    assert_eq!(
        mrs.lookup_remote_write(ring, 0, 64).unwrap_err(),
        IwarpError::InvalidStag(ring)
    );
    assert!(mrs.lookup(probe.stag()).is_ok(), "other regions stay");
}
