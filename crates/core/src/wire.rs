//! Wire codec for DCO protocol messages (cross-shard transport).
//!
//! The sharded runner serializes every [`DcoMsg`] that crosses a worker
//! boundary with these impls. Format follows the `dco-sim` codec: fields in
//! declaration order, one tag byte per enum variant, all integers
//! little-endian fixed-width. Both ends of a pipe are the same binary, so
//! there is no versioning — only unambiguity and bounds-checked decoding.

use dco_sim::wire::{WireCodec, WireError, WireReader};

use crate::chunk::ChunkSeq;
use crate::index::ChunkIndex;
use crate::proto::{DcoMsg, Hop, RoutedOp};

impl WireCodec for ChunkSeq {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ChunkSeq(r.get()?))
    }
}

impl WireCodec for ChunkIndex {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.holder.encode(out);
        self.avail.encode(out);
        self.held_count.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ChunkIndex {
            seq: r.get()?,
            holder: r.get()?,
            avail: r.get()?,
            held_count: r.get()?,
        })
    }
}

impl WireCodec for Hop {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Hop::Proxy => out.push(0),
            Hop::Forward(ttl) => {
                out.push(1);
                ttl.encode(out);
            }
            Hop::Final => out.push(2),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(Hop::Proxy),
            1 => Ok(Hop::Forward(r.get()?)),
            2 => Ok(Hop::Final),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl WireCodec for RoutedOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RoutedOp::Insert { index } => {
                out.push(0);
                index.encode(out);
            }
            RoutedOp::Deregister { holder } => {
                out.push(1);
                holder.encode(out);
            }
            RoutedOp::Lookup {
                seq,
                origin,
                exclude,
            } => {
                out.push(2);
                seq.encode(out);
                origin.encode(out);
                exclude.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(RoutedOp::Insert { index: r.get()? }),
            1 => Ok(RoutedOp::Deregister { holder: r.get()? }),
            2 => Ok(RoutedOp::Lookup {
                seq: r.get()?,
                origin: r.get()?,
                exclude: r.get()?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl WireCodec for DcoMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DcoMsg::Chord(m) => {
                out.push(0);
                m.encode(out);
            }
            DcoMsg::Routed { key, hop, op } => {
                out.push(1);
                key.encode(out);
                hop.encode(out);
                op.encode(out);
            }
            DcoMsg::Provider { seq, provider } => {
                out.push(2);
                seq.encode(out);
                provider.encode(out);
            }
            DcoMsg::ChunkRequest { seq } => {
                out.push(3);
                seq.encode(out);
            }
            DcoMsg::ChunkData { seq } => {
                out.push(4);
                seq.encode(out);
            }
            DcoMsg::Busy { seq } => {
                out.push(5);
                seq.encode(out);
            }
            DcoMsg::NoChunk { seq } => {
                out.push(6);
                seq.encode(out);
            }
            DcoMsg::IndexHandover { entries } => {
                out.push(7);
                entries.encode(out);
            }
            DcoMsg::AttachRequest => out.push(8),
            DcoMsg::AttachAssign { coordinator } => {
                out.push(9);
                coordinator.encode(out);
            }
            DcoMsg::ClientAttach => out.push(10),
            DcoMsg::StableReport { longevity } => {
                out.push(11);
                longevity.encode(out);
            }
            DcoMsg::Promote => out.push(12),
            DcoMsg::CoordinatorAnnounce => out.push(13),
            DcoMsg::CoordinatorLost { dead } => {
                out.push(14);
                dead.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(DcoMsg::Chord(r.get()?)),
            1 => Ok(DcoMsg::Routed {
                key: r.get()?,
                hop: r.get()?,
                op: r.get()?,
            }),
            2 => Ok(DcoMsg::Provider {
                seq: r.get()?,
                provider: r.get()?,
            }),
            3 => Ok(DcoMsg::ChunkRequest { seq: r.get()? }),
            4 => Ok(DcoMsg::ChunkData { seq: r.get()? }),
            5 => Ok(DcoMsg::Busy { seq: r.get()? }),
            6 => Ok(DcoMsg::NoChunk { seq: r.get()? }),
            7 => Ok(DcoMsg::IndexHandover { entries: r.get()? }),
            8 => Ok(DcoMsg::AttachRequest),
            9 => Ok(DcoMsg::AttachAssign {
                coordinator: r.get()?,
            }),
            10 => Ok(DcoMsg::ClientAttach),
            11 => Ok(DcoMsg::StableReport {
                longevity: r.get()?,
            }),
            12 => Ok(DcoMsg::Promote),
            13 => Ok(DcoMsg::CoordinatorAnnounce),
            14 => Ok(DcoMsg::CoordinatorLost { dead: r.get()? }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_dht::chord::{ChordMsg, RouteToken};
    use dco_dht::id::{ChordId, Peer};
    use dco_sim::net::Kbps;
    use dco_sim::node::NodeId;
    use dco_sim::wire::{decode_exact, encode_to_vec};

    fn index(n: u32) -> ChunkIndex {
        ChunkIndex {
            seq: ChunkSeq(n),
            holder: NodeId(n + 1),
            avail: Kbps(600),
            held_count: 3,
        }
    }

    /// `DcoMsg` has no `PartialEq`; equality is checked through the codec
    /// itself — decode then re-encode must reproduce the bytes.
    fn round_trip(msg: &DcoMsg) {
        let bytes = encode_to_vec(msg);
        let back = decode_exact::<DcoMsg>(&bytes).unwrap();
        assert_eq!(encode_to_vec(&back), bytes, "{msg:?}");
    }

    fn samples() -> Vec<DcoMsg> {
        vec![
            DcoMsg::Chord(ChordMsg::FindSucc {
                key: ChordId(0xFACE),
                origin: Peer {
                    id: ChordId(5),
                    node: NodeId(5),
                },
                token: RouteToken::Finger(9),
                ttl: 64,
            }),
            DcoMsg::Provider {
                seq: ChunkSeq(41),
                provider: None,
            },
            DcoMsg::ChunkRequest { seq: ChunkSeq(1) },
            DcoMsg::ChunkData { seq: ChunkSeq(2) },
            DcoMsg::Busy { seq: ChunkSeq(3) },
            DcoMsg::NoChunk { seq: ChunkSeq(4) },
            DcoMsg::IndexHandover {
                entries: vec![(ChordId(1), vec![index(1), index(2)]), (ChordId(2), vec![])],
            },
            DcoMsg::AttachRequest,
            DcoMsg::AttachAssign {
                coordinator: NodeId(3),
            },
            DcoMsg::ClientAttach,
            DcoMsg::StableReport { longevity: 0.875 },
            DcoMsg::Promote,
            DcoMsg::CoordinatorAnnounce,
            DcoMsg::CoordinatorLost { dead: NodeId(6) },
        ]
    }

    /// One routed message per operation × hop kind.
    fn routed_samples() -> Vec<DcoMsg> {
        let ops = [
            RoutedOp::Insert { index: index(7) },
            RoutedOp::Deregister { holder: NodeId(2) },
            RoutedOp::Lookup {
                seq: ChunkSeq(41),
                origin: NodeId(9),
                exclude: Some(NodeId(1)),
            },
            RoutedOp::Lookup {
                seq: ChunkSeq(42),
                origin: NodeId(9),
                exclude: None,
            },
        ];
        let hops = [Hop::Proxy, Hop::Forward(0), Hop::Forward(64), Hop::Final];
        let keys = [ChordId(12), ChordId(u64::MAX)];
        let mut out = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            for hop in hops {
                let key = keys[i % 2];
                out.push(DcoMsg::Routed { key, hop, op });
            }
        }
        out
    }

    #[test]
    fn dco_messages_round_trip() {
        let samples = samples();
        // One sample per variant but `Routed` keeps this list honest as the
        // enum grows.
        assert_eq!(samples.len(), 14);
        for msg in samples.iter().chain(&routed_samples()) {
            round_trip(msg);
        }
    }

    #[test]
    fn truncated_dco_messages_are_rejected() {
        for msg in samples().into_iter().chain(routed_samples()) {
            let bytes = encode_to_vec(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    decode_exact::<DcoMsg>(&bytes[..cut]).is_err(),
                    "cut at {cut} of {msg:?}"
                );
            }
        }
    }

    #[test]
    fn bad_variant_tags_are_rejected() {
        assert!(matches!(
            decode_exact::<DcoMsg>(&[250]),
            Err(WireError::BadTag(250))
        ));
        // A routed message's tag, key, hop tag and operation tag, in order.
        let routed = |hop: u8, op: u8| {
            let mut bytes = vec![1];
            bytes.extend_from_slice(&[0; 8]);
            bytes.extend_from_slice(&[hop, op]);
            bytes.extend_from_slice(&[0; 4]);
            decode_exact::<DcoMsg>(&bytes)
        };
        assert!(routed(0, 1).is_ok(), "a proxied deregister of node 0");
        assert!(matches!(routed(3, 1), Err(WireError::BadTag(3))));
        assert!(matches!(routed(0, 3), Err(WireError::BadTag(3))));
    }
}
