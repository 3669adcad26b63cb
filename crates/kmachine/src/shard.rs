//! The shard worker: one machine of the k-machine execution.
//!
//! A [`ShardWorker`] owns a [`SubCsr`] slice of the graph and, per walk lane,
//! a [`WalkWorkspace`] holding the restriction of that lane's distribution to
//! the owned vertices. It runs a blocking message loop driven entirely by the
//! coordinator's commands (see [`crate::transport`] for the protocol); all
//! *decisions* — sweeps, growth tracking, ensemble votes, assembly — live on
//! the coordinator, which is the engine's documented deviation from the
//! paper's fully decentralised CONGEST machinery (PAPER_MAP deviation; the
//! coordination costs remain modelled by `cdrw-congest`).
//!
//! ## Surviving a lossy transport
//!
//! The coordinator keeps one round in flight, so the worker compares each
//! arriving `Step` with the last round it finished:
//!
//! * `seq == last + 1` — apply its loads and run it (the normal case).
//! * `seq == last` — a coordinator retry: the `StepDone` or one of this
//!   worker's buckets went missing. Re-send the cached buckets and
//!   `StepDone`; never re-execute.
//! * anything older is a stale copy and is ignored.
//!
//! Inter-shard `Deltas` are keyed by `(seq, from)`: buckets for a future
//! round are buffered, duplicates for an already-counted sender are
//! discarded, and stale rounds are dropped. A worker the coordinator gives
//! up on is replaced by one built from the coordinator's gathered lanes one
//! round back ([`ShardWorker::new`]), which redoes the in-flight round. That
//! is bit-exact: the gathered lanes restricted to the owned vertices are the
//! lost worker's workspaces, support order and zero-mass entries included
//! (see [`WalkWorkspace::load_sparse`]). A worker that hears nothing for its
//! patience window assumes the run is gone and exits rather than blocking
//! forever on a lost `Halt`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cdrw_graph::{SubCsr, VertexId};
use cdrw_walk::shard::{absorb_step_runs, emit_step_deltas, MassDelta};
use cdrw_walk::WalkWorkspace;

use crate::transport::{LaneDeltas, LaneState, Message, Peer, Transport, TransportError};

/// The last completed round's artefacts, for retry-triggered re-sends.
#[derive(Debug)]
struct RoundCache {
    /// Outgoing delta buckets, indexed by destination shard (own slot empty).
    outgoing: Vec<Vec<LaneDeltas>>,
    /// The `StepDone` lanes reply.
    reply: Vec<LaneState>,
}

/// One worker shard of the execution engine.
#[derive(Debug)]
pub struct ShardWorker<'a> {
    id: usize,
    k: usize,
    n: usize,
    sub: SubCsr,
    /// Home machine of every global vertex (delta routing table).
    machine_of: &'a [usize],
    laziness: f64,
    /// Give up and exit when no message arrives for this long — the
    /// lost-`Halt` watchdog.
    patience: Duration,
    /// Last completed round.
    seq: u64,
    /// Per-lane shard-local walk state; grown on demand by `Step` loads.
    lanes: Vec<WalkWorkspace>,
    /// Reusable emission buffer.
    emitted: Vec<MassDelta>,
    /// Reusable per-destination delta buckets (`k` of them).
    buckets: Vec<Vec<MassDelta>>,
    /// Round `seq`'s artefacts (`None` until this worker completes a round).
    last: Option<RoundCache>,
}

impl<'a> ShardWorker<'a> {
    /// Creates the worker for shard `id` of `k`, owning `sub`, with rounds
    /// `1..=seq` already done and lane `i` holding the owned part of
    /// `lanes[i]`, a global distribution. A cold start passes `seq = 0` and
    /// no lanes; a replacement for a lost worker passes the round before the
    /// one in flight and the coordinator's gathered lanes.
    #[allow(clippy::too_many_arguments)] // the worker's identity plus its start state
    pub fn new(
        id: usize,
        k: usize,
        sub: SubCsr,
        machine_of: &'a [usize],
        laziness: f64,
        patience: Duration,
        seq: u64,
        lanes: &[WalkWorkspace],
    ) -> Self {
        let n = sub.num_global_vertices();
        let mut owned = Vec::new();
        let lanes = lanes
            .iter()
            .map(|global| {
                owned.clear();
                owned.extend(
                    global
                        .support()
                        .iter()
                        .filter(|&&v| machine_of[v] == id)
                        .map(|&v| (v, global.probability(v))),
                );
                let mut ws = WalkWorkspace::with_len(n);
                ws.load_sparse(&owned)
                    .expect("gathered support is ascending and in range");
                ws
            })
            .collect();
        ShardWorker {
            id,
            k,
            n,
            sub,
            machine_of,
            laziness,
            patience,
            seq,
            lanes,
            emitted: Vec::new(),
            buckets: (0..k).map(|_| Vec::new()).collect(),
            last: None,
        }
    }

    /// Runs the blocking message loop until [`Message::Halt`], a patience
    /// timeout, or transport disconnection.
    pub fn run<T: Transport>(mut self, transport: &mut T) {
        // Delta buckets that raced ahead of this shard's own `Step` command
        // (a peer received its command first), keyed by (seq, sender).
        let mut early: BTreeMap<(u64, usize), Vec<LaneDeltas>> = BTreeMap::new();
        loop {
            let message = match transport.recv_deadline(self.patience) {
                Ok(message) => message,
                // Orphaned (the run is gone) or disconnected: don't block.
                Err(TransportError::Timeout | TransportError::Disconnected) => return,
            };
            match message {
                Message::Step { seq, loads, lanes } => {
                    if seq == self.seq + 1 {
                        self.load_lanes(&loads);
                        if !self.step_round(seq, &lanes, transport, &mut early) {
                            return;
                        }
                        self.seq = seq;
                    } else if seq == self.seq {
                        // Coordinator retry of the round we completed: its
                        // `StepDone` (or one of our buckets) went missing.
                        self.resend_last(transport);
                    }
                }
                Message::Deltas { seq, from, lanes } => {
                    if seq > self.seq {
                        early.entry((seq, from)).or_insert(lanes);
                    }
                }
                Message::Halt => return,
                // Stray traffic (chaos-delayed replies addressed elsewhere
                // on a real network would not even arrive here): ignore.
                Message::StepDone { .. } | Message::Busy { .. } => {}
            }
            early.retain(|&(seq, _), _| seq > self.seq);
        }
    }

    /// Sends round `seq`'s outgoing buckets to every peer.
    fn send_buckets<T: Transport>(
        &self,
        seq: u64,
        outgoing: &[Vec<LaneDeltas>],
        transport: &mut T,
    ) {
        for (m, bucket) in outgoing.iter().enumerate() {
            if m != self.id {
                transport.send(
                    Peer::Shard(m),
                    Message::Deltas {
                        seq,
                        from: self.id,
                        lanes: bucket.clone(),
                    },
                );
            }
        }
    }

    /// Re-sends the last completed round: its outgoing buckets to every peer
    /// and its `StepDone` to the coordinator.
    fn resend_last<T: Transport>(&self, transport: &mut T) {
        let Some(last) = &self.last else {
            return;
        };
        self.send_buckets(self.seq, &last.outgoing, transport);
        transport.send(
            Peer::Coordinator,
            Message::StepDone {
                seq: self.seq,
                shard: self.id,
                lanes: last.reply.clone(),
            },
        );
    }

    fn ensure_lane(&mut self, lane: u32) {
        while self.lanes.len() <= lane as usize {
            self.lanes.push(WalkWorkspace::with_len(self.n));
        }
    }

    fn load_lanes(&mut self, seeds: &[(u32, VertexId)]) {
        for &(lane, seed) in seeds {
            self.ensure_lane(lane);
            let ws = &mut self.lanes[lane as usize];
            if self.machine_of[seed] == self.id {
                ws.load_point_mass(seed)
                    .expect("seed validated by the coordinator");
            } else {
                ws.load_sparse(&[]).expect("workspace is non-empty");
            }
        }
    }

    /// One physical walk round: emit, exchange, absorb, report. Returns
    /// `false` when the round was abandoned (halt, disconnection, or
    /// patience exhausted mid-barrier) and the worker should exit.
    fn step_round<T: Transport>(
        &mut self,
        seq: u64,
        lanes: &[u32],
        transport: &mut T,
        early: &mut BTreeMap<(u64, usize), Vec<LaneDeltas>>,
    ) -> bool {
        // Emit every lane's deltas, bucketed by the target's home shard.
        let mut outgoing: Vec<Vec<LaneDeltas>> = (0..self.k).map(|_| Vec::new()).collect();
        let mut reports: Vec<LaneState> = Vec::with_capacity(lanes.len());
        for &lane in lanes {
            self.ensure_lane(lane);
            self.emitted.clear();
            let messages = emit_step_deltas(
                &self.sub,
                self.laziness,
                &self.lanes[lane as usize],
                &mut self.emitted,
            );
            for bucket in &mut self.buckets {
                bucket.clear();
            }
            for &d in &self.emitted {
                self.buckets[self.machine_of[d.target]].push(d);
            }
            for (m, bucket) in self.buckets.iter_mut().enumerate() {
                outgoing[m].push(LaneDeltas {
                    lane,
                    deltas: std::mem::take(bucket),
                });
            }
            reports.push(LaneState {
                lane,
                emitted_messages: messages,
                support: Vec::new(),
            });
        }

        // Send every peer its bucket (always, even when empty — the barrier
        // counts k − 1 senders); keep our own. The buckets stay cached for
        // retry-triggered re-sends.
        self.send_buckets(seq, &outgoing, transport);
        let mut incoming: Vec<Vec<LaneDeltas>> = Vec::with_capacity(self.k);
        let mut have = vec![false; self.k];
        have[self.id] = true;
        incoming.push(std::mem::take(&mut outgoing[self.id]));
        for (from, seen) in have.iter_mut().enumerate() {
            if let Some(bucket) = early.remove(&(seq, from)) {
                if !*seen {
                    *seen = true;
                    incoming.push(bucket);
                }
            }
        }

        // Barrier: wait for every peer's bucket for this round, absorbing
        // duplicates/stale traffic and answering retries so a faulty
        // transport cannot wedge two shards against each other.
        let mut waited = Instant::now();
        while incoming.len() < self.k {
            match transport.recv_deadline(Duration::from_millis(20)) {
                Ok(Message::Deltas {
                    seq: s,
                    from,
                    lanes,
                }) => {
                    // No peer can be past this round: the coordinator issues
                    // the next one only after our `StepDone`.
                    waited = Instant::now();
                    if s == seq && !have[from] {
                        have[from] = true;
                        incoming.push(lanes);
                    }
                }
                Ok(Message::Step { seq: s, .. }) if s == seq => {
                    waited = Instant::now();
                    // Coordinator retry of the round we are inside: a peer
                    // may be missing our buckets — re-send them — and tell
                    // the coordinator we are alive-but-blocked so it rebuilds
                    // the silent peer, not us.
                    self.send_buckets(seq, &outgoing, transport);
                    transport.send(
                        Peer::Coordinator,
                        Message::Busy {
                            seq,
                            shard: self.id,
                        },
                    );
                }
                Ok(Message::Halt) => return false,
                Ok(_) => {}
                Err(TransportError::Timeout) => {
                    if waited.elapsed() >= self.patience {
                        return false;
                    }
                }
                Err(TransportError::Disconnected) => return false,
            }
        }

        // Absorb per lane: every sender's bucket for the lane is one run,
        // ascending by source, and senders own disjoint sources — merging
        // the runs by source yields the sequential accumulation order.
        for report in &mut reports {
            let lane = report.lane;
            let runs: Vec<&[MassDelta]> = incoming
                .iter()
                .flat_map(|sender| sender.iter().filter(|ld| ld.lane == lane))
                .map(|ld| ld.deltas.as_slice())
                .collect();
            let ws = &mut self.lanes[lane as usize];
            absorb_step_runs(ws, &runs);
            report.support = ws.snapshot_sparse();
        }
        transport.send(
            Peer::Coordinator,
            Message::StepDone {
                seq,
                shard: self.id,
                lanes: reports.clone(),
            },
        );
        // Our own bucket was consumed by the barrier; its slot stays empty
        // (it is never re-sent to ourselves anyway).
        self.last = Some(RoundCache {
            outgoing,
            reply: reports,
        });
        true
    }
}
