//! The epoch commit protocol: worker loop and orchestrator relay.
//!
//! Time is cut into windows of width `L` (the lookahead — the network's
//! constant one-way latency). One epoch `e` covers `[eL, (e+1)L)`:
//!
//! 1. every worker runs all of its events **strictly before** `(e+1)L`;
//! 2. each worker flushes its cross-shard outbox, grouped per destination
//!    shard, and signals `EPOCH_DONE`;
//! 3. the orchestrator, once *all* workers are done, forwards each batch to
//!    its destination verbatim (`INJECT`) and releases the next window
//!    (`EPOCH_GO`).
//!
//! Safety: a message sent inside window `e` carries an arrival time
//! `≥ (e+1)L`, so delivering it any time before window `e+1` opens is
//! causally safe — the barrier at the window edge is the only
//! synchronisation needed.
//!
//! After the last full window each worker runs the residual `(kL, horizon]`
//! slice (inclusive of the horizon, matching single-process `run_until`)
//! and returns an opaque `RESULT` payload produced by the caller.
//!
//! The orchestrator never decodes protocol messages: a `MSGS` frame is
//! `[dest_shard u8][encoded batch]` and the batch bytes are forwarded
//! untouched, so relay cost is independent of message complexity.

use std::collections::BTreeMap;
use std::io;

use dco_sim::engine::{Protocol, RemoteMsg, Simulator};
use dco_sim::time::{SimDuration, SimTime};
use dco_sim::wire::{decode_exact, WireCodec};

use crate::link::FrameLink;

/// Frame tags of the epoch protocol.
pub mod tag {
    /// Worker → orchestrator: `[dest_shard u8][Vec<RemoteMsg> bytes]`.
    pub const MSGS: u8 = 1;
    /// Worker → orchestrator: epoch barrier reached (`u64` epoch number).
    pub const EPOCH_DONE: u8 = 2;
    /// Orchestrator → worker: one forwarded batch (`Vec<RemoteMsg>` bytes).
    pub const INJECT: u8 = 3;
    /// Orchestrator → worker: all peers reached the barrier; run the next
    /// window (`u64` epoch number).
    pub const EPOCH_GO: u8 = 4;
    /// Worker → orchestrator: final opaque result summary.
    pub const RESULT: u8 = 5;
}

fn proto_err(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Drives one worker's share of the run, then sends `finish`'s bytes as the
/// `RESULT` frame.
///
/// `sim` must already have sharding enabled (which pins `lookahead` to the
/// network's constant latency) and the full membership script installed.
pub fn run_worker<P, L, F>(
    sim: &mut Simulator<P>,
    horizon: SimTime,
    lookahead: SimDuration,
    link: &mut L,
    finish: F,
) -> io::Result<()>
where
    P: Protocol,
    P::Msg: WireCodec,
    L: FrameLink,
    F: FnOnce(&mut Simulator<P>) -> Vec<u8>,
{
    assert!(lookahead > SimDuration::ZERO, "lookahead must be positive");
    let window = lookahead.as_micros();
    let mut epoch: u64 = 0;
    loop {
        let end_us = (epoch + 1).checked_mul(window).expect("epoch overflow");
        let end = SimTime::from_micros(end_us);
        if end > horizon {
            break;
        }
        sim.run_before(end);

        // Group the outbox per destination shard so the orchestrator can
        // relay each batch without decoding it. BTreeMap: deterministic
        // frame order.
        let outbox: Vec<RemoteMsg<P::Msg>> = sim.drain_shard_outbox().collect();
        let mut by_dest: BTreeMap<u8, Vec<RemoteMsg<P::Msg>>> = BTreeMap::new();
        for m in outbox {
            let dest = sim.shard_of(m.to).expect("sharding enabled");
            by_dest.entry(dest).or_default().push(m);
        }
        for (dest, batch) in &by_dest {
            let mut payload = vec![*dest];
            batch.encode(&mut payload);
            link.send(tag::MSGS, &payload)?;
        }
        link.send(tag::EPOCH_DONE, &epoch.to_le_bytes())?;
        link.flush()?;

        // Absorb forwarded batches until the orchestrator opens the next
        // window.
        loop {
            let (t, p) = link.recv()?;
            match t {
                tag::INJECT => {
                    let batch: Vec<RemoteMsg<P::Msg>> = decode_exact(&p)
                        .map_err(|e| proto_err(format!("epoch {epoch}: bad inject: {e}")))?;
                    for m in batch {
                        // Sent inside this window, so it arrives at or after
                        // its end; anything earlier would land in the past.
                        if m.at < end {
                            return Err(proto_err(format!(
                                "epoch {epoch}: injected arrival {} inside the closed window (ends {end})",
                                m.at
                            )));
                        }
                        sim.inject_remote(m)
                            .map_err(|e| proto_err(format!("epoch {epoch}: bad inject: {e}")))?;
                    }
                }
                tag::EPOCH_GO => {
                    let got = u64::from_le_bytes(
                        p.try_into()
                            .map_err(|_| proto_err("bad EPOCH_GO payload"))?,
                    );
                    if got != epoch {
                        return Err(proto_err(format!("epoch desync: at {epoch}, go {got}")));
                    }
                    break;
                }
                other => return Err(proto_err(format!("unexpected tag {other} awaiting GO"))),
            }
        }
        epoch += 1;
    }

    // Residual slice after the last full window. Any message sent here has
    // an arrival time strictly past the horizon on every shard, so no final
    // exchange is needed — both sides leave it unprocessed, exactly like a
    // single-process run.
    sim.run_until(horizon);
    let result = finish(sim);
    link.send(tag::RESULT, &result)?;
    link.flush()
}

/// What the orchestrator observed while relaying one run.
#[derive(Debug)]
pub struct RelayReport {
    /// Final `RESULT` payload of each worker, indexed by shard.
    pub results: Vec<Vec<u8>>,
    /// Number of epoch barriers (full lookahead windows) crossed.
    pub epochs: u64,
    /// Cross-shard batch frames forwarded.
    pub forwarded_batches: u64,
    /// Total bytes of forwarded batch payloads.
    pub forwarded_bytes: u64,
}

/// Relays epochs between `links[shard]` workers until every worker returns
/// its `RESULT`.
///
/// Any worker failure (dead pipe, protocol violation, desync) aborts the
/// relay with an error naming the shard; the caller is responsible for
/// reaping processes (see [`crate::procpool`]).
pub fn run_orchestrator<L: FrameLink>(links: &mut [L]) -> io::Result<RelayReport> {
    let k = links.len();
    let mut results: Vec<Option<Vec<u8>>> = (0..k).map(|_| None).collect();
    let mut report = RelayReport {
        results: Vec::new(),
        epochs: 0,
        forwarded_batches: 0,
        forwarded_bytes: 0,
    };
    let shard_err =
        |shard: usize, e: io::Error| io::Error::new(e.kind(), format!("shard {shard}: {e}"));
    loop {
        // pending[dest] = batch payloads to forward once the barrier closes.
        let mut pending: Vec<Vec<Vec<u8>>> = (0..k).map(|_| Vec::new()).collect();
        let mut at_barrier = 0usize;
        let mut finished = 0usize;
        for (shard, link) in links.iter_mut().enumerate() {
            if results[shard].is_some() {
                return Err(proto_err(format!(
                    "shard {shard} finished while others still run epochs"
                )));
            }
            loop {
                let (t, p) = link.recv().map_err(|e| shard_err(shard, e))?;
                match t {
                    tag::MSGS => {
                        let dest = *p
                            .first()
                            .ok_or_else(|| proto_err(format!("shard {shard}: empty MSGS")))?
                            as usize;
                        if dest >= k || dest == shard {
                            return Err(proto_err(format!(
                                "shard {shard}: bad destination {dest}"
                            )));
                        }
                        report.forwarded_batches += 1;
                        report.forwarded_bytes += (p.len() - 1) as u64;
                        pending[dest].push(p[1..].to_vec());
                    }
                    tag::EPOCH_DONE => {
                        let got = u64::from_le_bytes(p.try_into().map_err(|_| {
                            proto_err(format!("shard {shard}: bad EPOCH_DONE payload"))
                        })?);
                        if got != report.epochs {
                            return Err(proto_err(format!(
                                "shard {shard}: at epoch {got}, relay at {}",
                                report.epochs
                            )));
                        }
                        at_barrier += 1;
                        break;
                    }
                    tag::RESULT => {
                        results[shard] = Some(p);
                        finished += 1;
                        break;
                    }
                    other => {
                        return Err(proto_err(format!("shard {shard}: unexpected tag {other}")))
                    }
                }
            }
        }
        if finished == k {
            report.results = results
                .into_iter()
                .map(|r| r.expect("all finished"))
                .collect();
            return Ok(report);
        }
        if at_barrier != k {
            // Same script + same horizon ⇒ same epoch count everywhere; a
            // mixed barrier means a worker diverged.
            return Err(proto_err(format!(
                "epoch desync: {at_barrier}/{k} at barrier, {finished} finished"
            )));
        }
        for (dest, batches) in pending.into_iter().enumerate() {
            for b in batches {
                links[dest]
                    .send(tag::INJECT, &b)
                    .map_err(|e| shard_err(dest, e))?;
            }
        }
        let epoch_bytes = report.epochs.to_le_bytes();
        for (shard, link) in links.iter_mut().enumerate() {
            link.send(tag::EPOCH_GO, &epoch_bytes)
                .and_then(|()| link.flush())
                .map_err(|e| shard_err(shard, e))?;
        }
        report.epochs += 1;
    }
}

/// Encodes one cross-shard batch exactly as [`run_worker`] frames it:
/// `[dest u8][u32 count][messages…]`. Exposed for tests.
pub fn encode_batch<M: WireCodec>(dest: u8, batch: &[RemoteMsg<M>]) -> Vec<u8> {
    let mut payload = vec![dest];
    // Slices encode like Vec: u32 count then elements.
    (batch.len() as u32).encode(&mut payload);
    for m in batch {
        m.encode(&mut payload);
    }
    payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{channel_pair, ChannelLink};
    use dco_sim::engine::Ctx;
    use dco_sim::net::NetConfig;
    use dco_sim::node::NodeId;
    use dco_sim::prelude::NodeCaps;
    use dco_sim::rng::splitmix64;
    use dco_sim::wire::{encode_to_vec, WireReader};
    use std::thread;

    /// Minimal protocol exercising the full frame path: every node pings its
    /// clockwise neighbour each 100 ms and node 0 broadcasts to everyone.
    struct Ring {
        n: u32,
        received: u64,
        /// Order-independent message digest (each delivery is owned by
        /// exactly one shard, so per-shard sums add up to the global sum).
        checksum: u64,
    }

    impl Protocol for Ring {
        type Msg = u32;
        type Timer = ();
        fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
            ctx.set_timer(node, SimDuration::from_millis(100), ());
        }
        fn on_message(&mut self, node: NodeId, from: NodeId, msg: u32, _ctx: &mut Ctx<'_, Self>) {
            self.received += 1;
            let word = u64::from(node.0) << 40 | u64::from(from.0) << 20 | u64::from(msg);
            self.checksum = self.checksum.wrapping_add(splitmix64(word));
        }
        fn on_timer(&mut self, node: NodeId, _t: (), ctx: &mut Ctx<'_, Self>) {
            let next = NodeId((node.0 + 1) % self.n);
            ctx.send_control(node, next, node.0, "ping");
            if node == NodeId(0) {
                for peer in 1..self.n {
                    ctx.send_control(node, NodeId(peer), 0xB00 + peer, "bcast");
                }
            }
            ctx.set_timer(node, SimDuration::from_millis(100), ());
        }
    }

    fn build(map: Vec<u8>, me: u8, k: u8, n: u32) -> Simulator<Ring> {
        let mut sim = Simulator::new(
            Ring {
                n,
                received: 0,
                checksum: 0,
            },
            NetConfig::paper_model(),
            7,
        );
        for _ in 0..n {
            sim.add_node(NodeCaps::peer_default());
        }
        sim.enable_sharding(map, me, k);
        for id in 0..n {
            sim.schedule_join(NodeId(id), SimTime::ZERO);
        }
        sim
    }

    /// Full worker/orchestrator protocol over in-memory links, K threads.
    fn run_k(k: u8) -> (u64, u64, u64, u64) {
        let n = 12u32;
        let horizon = SimTime::from_micros(2_030_000); // not a window multiple
        let lookahead = SimDuration::from_millis(50);
        let map: Vec<u8> = (0..n).map(|id| (id % u32::from(k)) as u8).collect();
        let mut orch_links: Vec<ChannelLink> = Vec::new();
        let mut handles = Vec::new();
        for me in 0..k {
            let (orch_side, worker_side) = channel_pair();
            orch_links.push(orch_side);
            let map = map.clone();
            handles.push(thread::spawn(move || {
                let mut link = worker_side;
                let mut sim = build(map, me, k, n);
                run_worker(&mut sim, horizon, lookahead, &mut link, |sim| {
                    let stats = sim.shard_stats().unwrap();
                    let mut out = Vec::new();
                    stats.set_digest.encode(&mut out);
                    stats.owned_events.encode(&mut out);
                    sim.protocol().received.encode(&mut out);
                    sim.protocol().checksum.encode(&mut out);
                    out
                })
                .unwrap();
            }));
        }
        let report = run_orchestrator(&mut orch_links).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let (mut root, mut events, mut received, mut checksum) = (0u64, 0u64, 0u64, 0u64);
        for r in &report.results {
            let mut rd = WireReader::new(r);
            root = root.wrapping_add(rd.get::<u64>().unwrap());
            events += rd.get::<u64>().unwrap();
            received += rd.get::<u64>().unwrap();
            checksum = checksum.wrapping_add(rd.get::<u64>().unwrap());
            assert!(rd.is_empty());
        }
        assert_eq!(report.epochs, 40, "2.03 s / 50 ms = 40 full windows");
        if k > 1 {
            assert!(report.forwarded_batches > 0, "cross-shard traffic exists");
        }
        (root, events, received, checksum)
    }

    #[test]
    fn worker_orchestrator_protocol_is_shard_count_invariant() {
        let one = run_k(1);
        let two = run_k(2);
        let three = run_k(3);
        assert_eq!(one, two);
        assert_eq!(one, three);
        assert!(one.2 > 400, "messages actually flowed: {}", one.2);
    }

    #[test]
    fn dead_worker_surfaces_as_eof_not_hang() {
        let (mut orch_side, worker_side) = channel_pair();
        drop(worker_side); // worker "crashed" before its first barrier
        let err = run_orchestrator(std::slice::from_mut(&mut orch_side)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("shard 0"), "{err}");
    }

    /// Runs worker 0 of 2 for one 50 ms window with `inject` relayed at
    /// the barrier, playing the orchestrator over a `ChannelLink`.
    fn worker_with_inject(inject: RemoteMsg<u32>) -> (io::Result<()>, u64) {
        let n = 4;
        let map: Vec<u8> = (0..n).map(|id| (id % 2) as u8).collect();
        let mut sim = build(map, 0, 2, n);
        let (mut orch_side, mut worker_side) = channel_pair();
        // `encode_batch` frames `[dest][batch]`; the relay strips `dest`.
        let framed = encode_batch(0, &[inject]);
        orch_side.send(tag::INJECT, &framed[1..]).unwrap();
        orch_side.send(tag::EPOCH_GO, &0u64.to_le_bytes()).unwrap();
        let horizon = SimTime::from_millis(60);
        let lookahead = SimDuration::from_millis(50);
        let res = run_worker(&mut sim, horizon, lookahead, &mut worker_side, |_| {
            Vec::new()
        });
        (res, sim.protocol().received)
    }

    #[test]
    fn worker_rejects_corrupt_inject_frames() {
        // Worker 0 owns nodes 0 and 2; window 0 ends at 50 ms.
        let good = || RemoteMsg {
            at: SimTime::from_millis(55),
            key: 1u128 << 127 | 7,
            from: NodeId(1),
            to: NodeId(2),
            msg: 0xABCu32,
        };
        let (res, with) = worker_with_inject(good());
        res.expect("a valid frame passes");
        let (_, without) = worker_with_inject(RemoteMsg {
            at: SimTime::from_millis(61), // past the horizon: never delivered
            ..good()
        });
        assert_eq!(with, without + 1, "the valid message was delivered");

        let bad = [
            (
                "to out of range",
                RemoteMsg {
                    to: NodeId(99),
                    ..good()
                },
            ),
            (
                "from out of range",
                RemoteMsg {
                    from: NodeId(99),
                    ..good()
                },
            ),
            (
                "to owned by another shard",
                RemoteMsg {
                    to: NodeId(1),
                    ..good()
                },
            ),
            (
                "arrival inside the closed window",
                RemoteMsg {
                    at: SimTime::from_millis(10),
                    ..good()
                },
            ),
            (
                "key without the runtime class bit",
                RemoteMsg { key: 7, ..good() },
            ),
        ];
        for (what, m) in bad {
            let (res, _) = worker_with_inject(m);
            let err = res.expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains("epoch 0"), "{what}: {err}");
        }
    }

    #[test]
    fn encode_batch_matches_vec_encoding() {
        let batch = vec![
            RemoteMsg {
                at: SimTime::from_micros(123),
                key: 456u128,
                from: NodeId(1),
                to: NodeId(2),
                msg: 9u32,
            },
            RemoteMsg {
                at: SimTime::from_micros(999),
                key: 1u128 << 100,
                from: NodeId(3),
                to: NodeId(4),
                msg: 0u32,
            },
        ];
        let framed = encode_batch(2, &batch);
        assert_eq!(framed[0], 2);
        assert_eq!(framed[1..], encode_to_vec(&batch)[..]);
        let back: Vec<RemoteMsg<u32>> = decode_exact(&framed[1..]).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].key, 1u128 << 100);
    }
}
