//! Message transport between the coordinator and the worker shards.
//!
//! The execution engine's protocol is deliberately small — a handful of
//! message kinds, strictly round-synchronous — so the [`Transport`] trait can
//! stay a small mailbox: `send` to a peer, blocking (or deadline-bounded)
//! `recv` from anyone. The in-process implementation ([`MpscTransport`],
//! built by [`mpsc_mesh`]) runs every shard on its own thread over
//! [`std::sync::mpsc`] channels; a socket implementation would serialise
//! [`Message`] and keep the same call sites (all payloads are plain
//! `usize`/`u32`/`u64`/`f64` data).
//!
//! ## Protocol
//!
//! One detection pipeline run is a sequence of walk rounds, numbered densely
//! (`seq` = 1, 2, 3, …). The coordinator keeps **at most one round in
//! flight**: it issues round `seq + 1` only after all `k` shards have
//! answered round `seq`. A shard therefore only ever sees its next round, a
//! retry of the round it last finished, or a stale copy of an older one —
//! never a gap.
//!
//! * [`Message::Step`] — coordinator → shards: one physical walk round. The
//!   shard first resets the lanes listed in `loads` (the shard homing a
//!   lane's seed loads the point mass), then emits the mass deltas of the
//!   listed lanes ([`cdrw_walk::shard::emit_step_deltas`]), sends each peer
//!   its bucket in one [`Message::Deltas`], absorbs the `k − 1` buckets it
//!   receives (plus its own, which never touches the wire), and replies
//!   [`Message::StepDone`] with its owned slice of every stepped lane's
//!   support.
//! * [`Message::Busy`] — shard → coordinator: the answer to a retry that
//!   finds the shard still inside the round's exchange barrier.
//! * [`Message::Halt`] — shut the shard down.
//!
//! Every command gets a reply, so the loss of any message shows up as a
//! coordinator timeout, and the one recovery action is to re-broadcast the
//! round. A shard that finished the round re-sends its cached buckets and
//! `StepDone`; one still in the barrier re-sends its buckets and answers
//! `Busy`. Duplicates are absorbed by the `(seq, from)` keys, never
//! double-counted. A shard silent past the retry budget is rebuilt from the
//! coordinator's gathered lanes and redoes the round (see
//! [`crate::engine`]). On a fault-free transport none of this fires and the
//! sequence numbers are pure bookkeeping.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use cdrw_graph::VertexId;
use cdrw_walk::shard::MassDelta;

/// Why a receive did not produce a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// Every sender for this endpoint hung up: the peer (or the whole run)
    /// is gone and no message can ever arrive again.
    Disconnected,
    /// No message arrived within the deadline. The peer may be slow, the
    /// message may have been lost — retrying is the caller's decision.
    Timeout,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => f.write_str("transport disconnected"),
            TransportError::Timeout => f.write_str("transport receive timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A walk lane's deltas addressed to one receiving shard, for one round.
#[derive(Debug, Clone)]
pub struct LaneDeltas {
    /// The walk lane the deltas belong to.
    pub lane: u32,
    /// The mass contributions, in the sender's emission order.
    pub deltas: Vec<MassDelta>,
}

/// A shard's post-step report for one walk lane.
#[derive(Debug, Clone)]
pub struct LaneState {
    /// The walk lane.
    pub lane: u32,
    /// Edge messages this shard emitted for the lane this round (its share
    /// of the CONGEST flood cost).
    pub emitted_messages: u64,
    /// The shard-owned slice of the lane's support after the step:
    /// `(vertex, mass)`, ascending by vertex, zero-mass entries included.
    pub support: Vec<(VertexId, f64)>,
}

/// A protocol message.
#[derive(Debug, Clone)]
pub enum Message {
    /// Coordinator → shard: reset the `loads` lanes, then run one walk round
    /// for the listed lanes.
    Step {
        /// The round's sequence number.
        seq: u64,
        /// `(lane, seed)` pairs to reset to fresh point-mass walks before
        /// the round; the seed's home shard loads the mass.
        loads: Vec<(u32, VertexId)>,
        /// Active lanes, ascending.
        lanes: Vec<u32>,
    },
    /// Shard → shard: one round's mass deltas for the receiving shard.
    Deltas {
        /// The round these deltas belong to.
        seq: u64,
        /// The sending shard.
        from: usize,
        /// Per-lane delta buckets, ascending by lane.
        lanes: Vec<LaneDeltas>,
    },
    /// Shard → coordinator: the round is complete on this shard.
    StepDone {
        /// The completed round.
        seq: u64,
        /// The reporting shard.
        shard: usize,
        /// Per-lane emitted counts and owned support slices, ascending by
        /// lane.
        lanes: Vec<LaneState>,
    },
    /// Shard → coordinator liveness signal: the shard is alive and inside
    /// the exchange barrier of round `seq` (sent when a coordinator retry
    /// reaches a shard already working on that round). Distinguishes a
    /// *blocked* shard — waiting on a dead peer's deltas — from a dead one,
    /// so the coordinator rebuilds only the truly silent shard.
    Busy {
        /// The round the shard is working on.
        seq: u64,
        /// The reporting shard.
        shard: usize,
    },
    /// Coordinator → shard: shut down.
    Halt,
}

/// A message peer: the coordinator or a worker shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// The coordinator process.
    Coordinator,
    /// Worker shard `i`.
    Shard(usize),
}

/// A shard's mailbox: send to any peer, blocking receive from all of them.
///
/// In-process today ([`MpscTransport`]); the engine only ever talks through
/// this trait, so a socket transport slots in without touching the shard or
/// coordinator logic. The chaos wrapper ([`crate::chaos::ChaosTransport`])
/// also implements it, injecting seeded faults around any inner transport.
pub trait Transport: Send {
    /// Sends `message` to `to`. Must not block on the receiver.
    fn send(&mut self, to: Peer, message: Message);
    /// Receives the next message addressed to this endpoint, blocking until
    /// one arrives.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when no message can ever arrive.
    fn recv(&mut self) -> Result<Message, TransportError>;
    /// Receives the next message, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when the deadline expires first,
    /// [`TransportError::Disconnected`] when no message can ever arrive.
    fn recv_deadline(&mut self, timeout: Duration) -> Result<Message, TransportError>;
}

/// The mesh's routing table: one outgoing channel per shard. Shared (behind
/// a lock) so a crashed shard's slot can be swapped for a replacement's
/// fresh inbox without rebuilding every peer's transport.
type ShardRoutes = Arc<RwLock<Vec<Sender<Message>>>>;

/// The in-process [`Transport`]: unbounded [`std::sync::mpsc`] channels, one
/// inbox per shard, shard-to-shard routes resolved through the shared
/// routing table at send time.
#[derive(Debug)]
pub struct MpscTransport {
    to_coordinator: Sender<Message>,
    routes: ShardRoutes,
    inbox: Receiver<Message>,
}

impl Transport for MpscTransport {
    fn send(&mut self, to: Peer, message: Message) {
        // A disconnected receiver means the run is being torn down (e.g. a
        // panic elsewhere) or the peer crashed; dropping the message is the
        // right response — the retry protocol recovers.
        match to {
            Peer::Coordinator => {
                let _ = self.to_coordinator.send(message);
            }
            Peer::Shard(i) => {
                let routes = self.routes.read().expect("routing table poisoned");
                let _ = routes[i].send(message);
            }
        }
    }

    fn recv(&mut self) -> Result<Message, TransportError> {
        self.inbox.recv().map_err(|_| TransportError::Disconnected)
    }

    fn recv_deadline(&mut self, timeout: Duration) -> Result<Message, TransportError> {
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout,
            RecvTimeoutError::Disconnected => TransportError::Disconnected,
        })
    }
}

/// The coordinator's end of an in-process mesh.
#[derive(Debug)]
pub struct CoordinatorLinks {
    routes: ShardRoutes,
    inbox: Receiver<Message>,
    num_shards: usize,
}

impl CoordinatorLinks {
    /// Sends `message` to shard `i`.
    pub fn send(&self, i: usize, message: Message) {
        let routes = self.routes.read().expect("routing table poisoned");
        let _ = routes[i].send(message);
    }

    /// Broadcasts clones of `message` to every shard.
    pub fn broadcast(&self, message: &Message) {
        let routes = self.routes.read().expect("routing table poisoned");
        for sender in routes.iter() {
            let _ = sender.send(message.clone());
        }
    }

    /// Receives the next shard reply, blocking.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when every shard hung up (e.g. a
    /// shard thread panicked and the run is tearing down).
    pub fn recv(&self) -> Result<Message, TransportError> {
        self.inbox.recv().map_err(|_| TransportError::Disconnected)
    }

    /// Receives the next shard reply, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when the deadline expires first,
    /// [`TransportError::Disconnected`] when every shard hung up.
    pub fn recv_deadline(&self, timeout: Duration) -> Result<Message, TransportError> {
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout,
            RecvTimeoutError::Disconnected => TransportError::Disconnected,
        })
    }

    /// Number of shards on the mesh.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }
}

/// A handle that can mint a replacement [`MpscTransport`] for a shard the
/// coordinator has given up on: a fresh inbox is created and the shared
/// routing table's slot is swapped, so from that moment every peer's and
/// the coordinator's sends to the shard reach the replacement, which is
/// rebuilt from the coordinator's gathered lanes. The old inbox loses its
/// last sender, so its worker, if still alive, sees a disconnect and exits.
///
/// Holding a reconnector keeps the coordinator inbox's channel alive, so
/// coordinators that own one must use deadline-bounded receives.
#[derive(Debug, Clone)]
pub struct ShardReconnector {
    routes: ShardRoutes,
    to_coordinator: Sender<Message>,
}

impl ShardReconnector {
    /// Replaces shard `i`'s route with a fresh inbox and returns the
    /// transport wired to it.
    pub fn reconnect(&self, i: usize) -> MpscTransport {
        let (tx, rx) = channel();
        {
            let mut routes = self.routes.write().expect("routing table poisoned");
            routes[i] = tx;
        }
        MpscTransport {
            to_coordinator: self.to_coordinator.clone(),
            routes: Arc::clone(&self.routes),
            inbox: rx,
        }
    }
}

/// Builds a fully connected in-process mesh: the coordinator's links plus one
/// [`MpscTransport`] per shard.
///
/// The links hold no sender to the coordinator inbox, so once every shard
/// transport is dropped [`CoordinatorLinks::recv`] reports
/// [`TransportError::Disconnected`] instead of blocking forever.
pub fn mpsc_mesh(k: usize) -> (CoordinatorLinks, Vec<MpscTransport>) {
    let (links, transports, _) = mpsc_mesh_recoverable(k);
    (links, transports)
}

/// Builds the mesh of [`mpsc_mesh`] plus a [`ShardReconnector`] able to
/// re-wire crashed shards. Because the reconnector keeps the coordinator
/// channel alive, pair it with [`CoordinatorLinks::recv_deadline`].
pub fn mpsc_mesh_recoverable(k: usize) -> (CoordinatorLinks, Vec<MpscTransport>, ShardReconnector) {
    let (to_coordinator, coordinator_inbox) = channel();
    let mut route_senders = Vec::with_capacity(k);
    let mut inboxes = Vec::with_capacity(k);
    for _ in 0..k {
        let (tx, rx) = channel();
        route_senders.push(tx);
        inboxes.push(rx);
    }
    let routes: ShardRoutes = Arc::new(RwLock::new(route_senders));
    let transports = inboxes
        .into_iter()
        .map(|inbox| MpscTransport {
            to_coordinator: to_coordinator.clone(),
            routes: Arc::clone(&routes),
            inbox,
        })
        .collect();
    let reconnector = ShardReconnector {
        routes: Arc::clone(&routes),
        to_coordinator,
    };
    (
        CoordinatorLinks {
            routes,
            inbox: coordinator_inbox,
            num_shards: k,
        },
        transports,
        reconnector,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_routes_between_all_peers() {
        let (links, mut transports) = mpsc_mesh(2);
        assert_eq!(links.num_shards(), 2);
        // Coordinator → shard 0.
        links.send(0, Message::Halt);
        assert!(matches!(transports[0].recv(), Ok(Message::Halt)));
        // Shard 0 → shard 1.
        transports[0].send(
            Peer::Shard(1),
            Message::Deltas {
                seq: 1,
                from: 0,
                lanes: Vec::new(),
            },
        );
        assert!(matches!(
            transports[1].recv(),
            Ok(Message::Deltas {
                seq: 1,
                from: 0,
                ..
            })
        ));
        // Shard 1 → coordinator.
        transports[1].send(
            Peer::Coordinator,
            Message::StepDone {
                seq: 1,
                shard: 1,
                lanes: Vec::new(),
            },
        );
        assert!(matches!(
            links.recv(),
            Ok(Message::StepDone {
                seq: 1,
                shard: 1,
                ..
            })
        ));
        // Broadcast reaches both shards.
        links.broadcast(&Message::Step {
            seq: 2,
            loads: vec![(0, 1)],
            lanes: vec![0],
        });
        for t in &mut transports {
            assert!(matches!(t.recv(), Ok(Message::Step { seq: 2, .. })));
        }
    }

    #[test]
    fn coordinator_recv_reports_disconnect_as_a_typed_error() {
        let (links, transports) = mpsc_mesh(2);
        // Every shard transport gone (their `to_coordinator` clones dropped):
        // the coordinator must observe a typed error, not panic or hang.
        drop(transports);
        assert!(matches!(links.recv(), Err(TransportError::Disconnected)));
        assert!(matches!(
            links.recv_deadline(Duration::from_millis(1)),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn recv_deadline_times_out_when_no_message_arrives() {
        let (links, mut transports) = mpsc_mesh(1);
        assert!(matches!(
            links.recv_deadline(Duration::from_millis(1)),
            Err(TransportError::Timeout)
        ));
        assert!(matches!(
            transports[0].recv_deadline(Duration::from_millis(1)),
            Err(TransportError::Timeout)
        ));
    }

    #[test]
    fn reconnect_reroutes_sends_to_the_replacement_inbox() {
        let (links, mut transports, reconnector) = mpsc_mesh_recoverable(2);
        // Swap shard 1 for a replacement; the old inbox goes quiet.
        let mut replacement = reconnector.reconnect(1);
        links.send(1, Message::Halt);
        transports[0].send(
            Peer::Shard(1),
            Message::Deltas {
                seq: 3,
                from: 0,
                lanes: Vec::new(),
            },
        );
        assert!(matches!(replacement.recv(), Ok(Message::Halt)));
        assert!(matches!(
            replacement.recv(),
            Ok(Message::Deltas { seq: 3, .. })
        ));
        // The old inbox's last sender (the routing-table slot) was dropped by
        // the swap: the orphaned worker observes disconnection and exits.
        assert!(matches!(
            transports[1].recv_deadline(Duration::from_millis(1)),
            Err(TransportError::Disconnected)
        ));
        // The replacement still reaches the coordinator.
        replacement.send(Peer::Coordinator, Message::Busy { seq: 3, shard: 1 });
        assert!(matches!(
            links.recv(),
            Ok(Message::Busy { seq: 3, shard: 1 })
        ));
    }
}
