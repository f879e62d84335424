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

use std::io;

use dco_sim::engine::{Protocol, RemoteMsg, Simulator};
use dco_sim::time::{SimDuration, SimTime};
use dco_sim::wire::{WireCodec, WireReader};

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

/// One epoch's outgoing `MSGS` payloads, one per destination shard, each
/// `[dest u8][u32 count][messages…]` — the bytes a `Vec<RemoteMsg>` encodes
/// to behind the destination byte. The buffers keep their capacity from
/// epoch to epoch.
#[derive(Default)]
struct Batches {
    frames: Vec<Vec<u8>>,
    counts: Vec<u32>,
}

impl Batches {
    /// Appends `m` to the batch for shard `dest`.
    fn push<M: WireCodec>(&mut self, dest: u8, m: &RemoteMsg<M>) {
        let d = usize::from(dest);
        if d >= self.frames.len() {
            self.frames.resize_with(d + 1, Vec::new);
            self.counts.resize(d + 1, 0);
        }
        let frame = &mut self.frames[d];
        if self.counts[d] == 0 {
            frame.clear();
            frame.push(dest);
            // The count, patched in by `send`.
            frame.extend_from_slice(&[0; 4]);
        }
        m.encode(frame);
        self.counts[d] += 1;
    }

    /// Sends every non-empty batch as a `MSGS` frame, in ascending
    /// destination order, and empties them all.
    fn send<L: FrameLink>(&mut self, link: &mut L) -> io::Result<()> {
        for (frame, count) in self.frames.iter_mut().zip(&mut self.counts) {
            if *count > 0 {
                frame[1..5].copy_from_slice(&count.to_le_bytes());
                *count = 0;
                link.send(tag::MSGS, frame)?;
            }
        }
        Ok(())
    }
}

/// Decodes one `INJECT` batch and injects each message as it is read.
/// Rejects a count the bytes cannot hold before injecting anything, and
/// trailing bytes after the last message.
fn inject_batch<P>(sim: &mut Simulator<P>, batch: &[u8], end: SimTime) -> Result<(), String>
where
    P: Protocol,
    P::Msg: WireCodec,
{
    let mut r = WireReader::new(batch);
    let n = r.get::<u32>().map_err(|e| e.to_string())?;
    // Every message takes more than one byte, so a count beyond the bytes
    // left is corrupt whatever follows.
    if n as usize > r.remaining() {
        return Err(format!("count {n} with {} bytes left", r.remaining()));
    }
    for _ in 0..n {
        let m: RemoteMsg<P::Msg> = r.get().map_err(|e| e.to_string())?;
        // Sent inside this window, so it arrives at or after its end;
        // anything earlier would land in the past.
        if m.at < end {
            return Err(format!(
                "injected arrival {} inside the closed window (ends {end})",
                m.at
            ));
        }
        sim.inject_remote(m)?;
    }
    if !r.is_empty() {
        return Err(format!(
            "{} trailing byte(s) after the last message",
            r.remaining()
        ));
    }
    Ok(())
}

/// Drives one worker's share of the run, then sends `finish`'s bytes as the
/// `RESULT` frame.
///
/// `sim` must already have sharding enabled (which pins `lookahead` to the
/// network's constant latency) and the full membership script installed.
///
/// The outbox, the per-destination batches and the receive buffer are kept
/// across epochs, so the exchange itself allocates only while they grow
/// to the run's largest epoch.
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
    let mut outbox: Vec<RemoteMsg<P::Msg>> = Vec::new();
    let mut batches = Batches::default();
    let mut buf = Vec::new();
    let mut epoch: u64 = 0;
    loop {
        let end_us = (epoch + 1).checked_mul(window).expect("epoch overflow");
        let end = SimTime::from_micros(end_us);
        if end > horizon {
            break;
        }
        sim.run_before(end);

        // Group the outbox per destination shard so the orchestrator can
        // relay each batch without decoding it. The outbox is staged first
        // because draining it borrows `sim`, which `shard_of` reads.
        outbox.extend(sim.drain_shard_outbox());
        for m in outbox.drain(..) {
            let dest = sim.shard_of(m.to).expect("sharding enabled");
            batches.push(dest, &m);
        }
        batches.send(link)?;
        link.send(tag::EPOCH_DONE, &epoch.to_le_bytes())?;
        link.flush()?;

        // Absorb forwarded batches until the orchestrator opens the next
        // window.
        loop {
            match link.recv_into(&mut buf)? {
                tag::INJECT => inject_batch(sim, &buf, end)
                    .map_err(|e| proto_err(format!("epoch {epoch}: bad inject: {e}")))?,
                tag::EPOCH_GO => {
                    let got = u64::from_le_bytes(
                        buf[..]
                            .try_into()
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
/// Frames are read into one buffer, and each batch is copied into a
/// per-destination slot that later epochs reuse, so relaying allocates
/// only while those buffers grow.
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
    let mut buf = Vec::new();
    // pending[dest][..queued[dest]] = batch payloads to forward once the
    // barrier closes; slots past `queued` are spare capacity.
    let mut pending: Vec<Vec<Vec<u8>>> = (0..k).map(|_| Vec::new()).collect();
    let mut queued = vec![0usize; k];
    loop {
        queued.fill(0);
        let mut at_barrier = 0usize;
        let mut finished = 0usize;
        for (shard, link) in links.iter_mut().enumerate() {
            if results[shard].is_some() {
                return Err(proto_err(format!(
                    "shard {shard} finished while others still run epochs"
                )));
            }
            loop {
                match link.recv_into(&mut buf).map_err(|e| shard_err(shard, e))? {
                    tag::MSGS => {
                        let (&dest, batch) = buf
                            .split_first()
                            .ok_or_else(|| proto_err(format!("shard {shard}: empty MSGS")))?;
                        let dest = usize::from(dest);
                        if dest >= k || dest == shard {
                            return Err(proto_err(format!(
                                "shard {shard}: bad destination {dest}"
                            )));
                        }
                        report.forwarded_batches += 1;
                        report.forwarded_bytes += batch.len() as u64;
                        let slots = &mut pending[dest];
                        if queued[dest] == slots.len() {
                            slots.push(Vec::new());
                        }
                        let slot = &mut slots[queued[dest]];
                        slot.clear();
                        slot.extend_from_slice(batch);
                        queued[dest] += 1;
                    }
                    tag::EPOCH_DONE => {
                        let got = u64::from_le_bytes(buf[..].try_into().map_err(|_| {
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
                        results[shard] = Some(std::mem::take(&mut buf));
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
        for (dest, slots) in pending.iter().enumerate() {
            for b in &slots[..queued[dest]] {
                links[dest]
                    .send(tag::INJECT, b)
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

/// The test protocol, shared with the `alloc_guard` test binary.
#[cfg(test)]
#[path = "../tests/ring/mod.rs"]
mod ring;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::channel_pair;
    use dco_sim::node::NodeId;
    use dco_sim::wire::{decode_exact, encode_to_vec};

    use super::ring::{self, build, run_k};

    #[test]
    fn worker_orchestrator_protocol_is_shard_count_invariant() {
        let one = run_k(1, 40, channel_pair);
        let two = run_k(2, 40, channel_pair);
        let three = run_k(3, 40, channel_pair);
        assert_eq!(one, two);
        assert_eq!(one, three);
        assert!(one.2 > 400, "messages actually flowed: {}", one.2);
    }

    #[test]
    fn pipe_links_give_the_channel_result() {
        assert_eq!(run_k(2, 40, ring::pipe_pair), run_k(2, 40, channel_pair));
    }

    #[test]
    fn dead_worker_surfaces_as_eof_not_hang() {
        let (mut orch_side, worker_side) = channel_pair();
        drop(worker_side); // worker "crashed" before its first barrier
        let err = run_orchestrator(std::slice::from_mut(&mut orch_side)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("shard 0"), "{err}");
    }

    /// The `MSGS` payloads `run_worker` sends for `msgs`, each pushed to
    /// its `(dest, msg)` batch: `(dest, batch bytes)` in wire order.
    fn framed(msgs: &[(u8, &RemoteMsg<u32>)]) -> Vec<(u8, Vec<u8>)> {
        let mut batches = Batches::default();
        for (dest, m) in msgs {
            batches.push(*dest, m);
        }
        let (mut tx, mut rx) = channel_pair();
        batches.send(&mut tx).unwrap();
        drop(tx);
        let mut out = Vec::new();
        while let Ok((t, p)) = rx.recv() {
            assert_eq!(t, tag::MSGS);
            out.push((p[0], p[1..].to_vec()));
        }
        out
    }

    /// Runs worker 0 of 2 through one 50 ms window with `batch` relayed as
    /// an `INJECT` payload at the barrier, playing the orchestrator over a
    /// `ChannelLink`. Then runs the shard on to the 60 ms horizon whatever
    /// the outcome, so `received` counts every message that was injected.
    fn worker_with_inject(batch: &[u8]) -> (io::Result<()>, u64) {
        let n = 4;
        let map: Vec<u8> = (0..n).map(|id| (id % 2) as u8).collect();
        let mut sim = build(map, 0, 2, n);
        let (mut orch_side, mut worker_side) = channel_pair();
        orch_side.send(tag::INJECT, batch).unwrap();
        orch_side.send(tag::EPOCH_GO, &0u64.to_le_bytes()).unwrap();
        let horizon = SimTime::from_millis(60);
        let res = run_worker(&mut sim, horizon, ring::LOOKAHEAD, &mut worker_side, |_| {
            Vec::new()
        });
        sim.run_until(horizon);
        (res, sim.protocol().received)
    }

    /// Worker 0 owns nodes 0 and 2; window 0 ends at 50 ms.
    fn good() -> RemoteMsg<u32> {
        RemoteMsg {
            at: SimTime::from_millis(55),
            key: 1u128 << 127 | 7,
            from: NodeId(1),
            to: NodeId(2),
            msg: 0xABCu32,
        }
    }

    /// One `INJECT` payload as the worker frames it.
    fn batch_of(msgs: &[RemoteMsg<u32>]) -> Vec<u8> {
        let msgs: Vec<_> = msgs.iter().map(|m| (0, m)).collect();
        framed(&msgs).pop().unwrap().1
    }

    #[test]
    fn worker_rejects_corrupt_inject_frames() {
        let (res, with) = worker_with_inject(&batch_of(&[good()]));
        res.expect("a valid frame passes");
        let (_, without) = worker_with_inject(&batch_of(&[RemoteMsg {
            at: SimTime::from_millis(61), // past the horizon: never delivered
            ..good()
        }]));
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
        let reject = |what: &str, batch: &[u8], reason: &str| {
            let (res, received) = worker_with_inject(batch);
            let err = res.expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains("epoch 0"), "{what}: {err}");
            assert!(err.to_string().contains(reason), "{what}: {err}");
            received
        };
        for (what, m) in bad {
            reject(what, &batch_of(&[m]), "bad inject");
        }

        // Corruptions of the frame around valid messages.
        let two = batch_of(&[good(), good()]);
        let mut overcount = two.clone();
        overcount[..4].copy_from_slice(&1000u32.to_le_bytes());
        let received = reject("count beyond the bytes left", &overcount, "count 1000");
        assert_eq!(received, without, "nothing of the frame was injected");
        let mut trailing = two.clone();
        trailing.push(0);
        reject(
            "a byte after the last message",
            &trailing,
            "1 trailing byte",
        );
        reject(
            "the last message cut short",
            &two[..two.len() - 1],
            "truncated",
        );
    }

    #[test]
    fn worker_frames_match_vec_encoding() {
        let msg = |at: u64, key: u128, from: u32, to: u32, msg: u32| RemoteMsg {
            at: SimTime::from_micros(at),
            key,
            from: NodeId(from),
            to: NodeId(to),
            msg,
        };
        let to2 = vec![msg(123, 456, 1, 2, 9), msg(999, 1 << 100, 3, 4, 0)];
        let to0 = vec![msg(77, 5, 6, 7, 8)];
        let sent = framed(&[(2, &to2[0]), (0, &to0[0]), (2, &to2[1])]);
        // Ascending destinations; each batch encodes as its Vec, in push
        // order; shard 1 had nothing, so no frame goes to it.
        assert_eq!(sent, [(0, encode_to_vec(&to0)), (2, encode_to_vec(&to2))]);
        let back: Vec<RemoteMsg<u32>> = decode_exact(&sent[1].1).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].key, 1u128 << 100);

        // The next epoch reuses the buffers from a clean slate.
        let mut batches = Batches::default();
        batches.push(2, &to2[0]);
        batches.push(2, &to2[1]);
        let (mut tx, mut rx) = channel_pair();
        batches.send(&mut tx).unwrap();
        rx.recv().unwrap();
        batches.push(2, &to0[0]);
        batches.send(&mut tx).unwrap();
        let mut expect = vec![2];
        expect.extend(encode_to_vec(&to0));
        assert_eq!(rx.recv().unwrap(), (tag::MSGS, expect));
        batches.send(&mut tx).unwrap();
        drop(tx);
        assert!(rx.recv().is_err(), "an empty epoch sends no frame");
    }
}
