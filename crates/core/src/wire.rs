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
use crate::proto::DcoMsg;

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

impl WireCodec for DcoMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DcoMsg::Chord(m) => {
                out.push(0);
                m.encode(out);
            }
            DcoMsg::Insert {
                key,
                index,
                ttl,
                fin,
            } => {
                out.push(1);
                key.encode(out);
                index.encode(out);
                ttl.encode(out);
                fin.encode(out);
            }
            DcoMsg::Deregister {
                key,
                holder,
                ttl,
                fin,
            } => {
                out.push(2);
                key.encode(out);
                holder.encode(out);
                ttl.encode(out);
                fin.encode(out);
            }
            DcoMsg::Lookup {
                key,
                seq,
                origin,
                exclude,
                ttl,
                fin,
            } => {
                out.push(3);
                key.encode(out);
                seq.encode(out);
                origin.encode(out);
                exclude.encode(out);
                ttl.encode(out);
                fin.encode(out);
            }
            DcoMsg::Provider { seq, provider } => {
                out.push(4);
                seq.encode(out);
                provider.encode(out);
            }
            DcoMsg::ChunkRequest { seq } => {
                out.push(5);
                seq.encode(out);
            }
            DcoMsg::ChunkData { seq } => {
                out.push(6);
                seq.encode(out);
            }
            DcoMsg::Busy { seq } => {
                out.push(7);
                seq.encode(out);
            }
            DcoMsg::NoChunk { seq } => {
                out.push(8);
                seq.encode(out);
            }
            DcoMsg::IndexHandover { entries } => {
                out.push(9);
                entries.encode(out);
            }
            DcoMsg::AttachRequest => out.push(10),
            DcoMsg::AttachAssign { coordinator } => {
                out.push(11);
                coordinator.encode(out);
            }
            DcoMsg::ClientAttach => out.push(12),
            DcoMsg::ClientLookup { seq, exclude } => {
                out.push(13);
                seq.encode(out);
                exclude.encode(out);
            }
            DcoMsg::ClientInsert { index } => {
                out.push(14);
                index.encode(out);
            }
            DcoMsg::StableReport { longevity } => {
                out.push(15);
                longevity.encode(out);
            }
            DcoMsg::Promote => out.push(16),
            DcoMsg::CoordinatorAnnounce => out.push(17),
            DcoMsg::CoordinatorLost { dead } => {
                out.push(18);
                dead.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(DcoMsg::Chord(r.get()?)),
            1 => Ok(DcoMsg::Insert {
                key: r.get()?,
                index: r.get()?,
                ttl: r.get()?,
                fin: r.get()?,
            }),
            2 => Ok(DcoMsg::Deregister {
                key: r.get()?,
                holder: r.get()?,
                ttl: r.get()?,
                fin: r.get()?,
            }),
            3 => Ok(DcoMsg::Lookup {
                key: r.get()?,
                seq: r.get()?,
                origin: r.get()?,
                exclude: r.get()?,
                ttl: r.get()?,
                fin: r.get()?,
            }),
            4 => Ok(DcoMsg::Provider {
                seq: r.get()?,
                provider: r.get()?,
            }),
            5 => Ok(DcoMsg::ChunkRequest { seq: r.get()? }),
            6 => Ok(DcoMsg::ChunkData { seq: r.get()? }),
            7 => Ok(DcoMsg::Busy { seq: r.get()? }),
            8 => Ok(DcoMsg::NoChunk { seq: r.get()? }),
            9 => Ok(DcoMsg::IndexHandover { entries: r.get()? }),
            10 => Ok(DcoMsg::AttachRequest),
            11 => Ok(DcoMsg::AttachAssign {
                coordinator: r.get()?,
            }),
            12 => Ok(DcoMsg::ClientAttach),
            13 => Ok(DcoMsg::ClientLookup {
                seq: r.get()?,
                exclude: r.get()?,
            }),
            14 => Ok(DcoMsg::ClientInsert { index: r.get()? }),
            15 => Ok(DcoMsg::StableReport {
                longevity: r.get()?,
            }),
            16 => Ok(DcoMsg::Promote),
            17 => Ok(DcoMsg::CoordinatorAnnounce),
            18 => Ok(DcoMsg::CoordinatorLost { dead: r.get()? }),
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
            DcoMsg::Insert {
                key: ChordId(12),
                index: index(7),
                ttl: 8,
                fin: true,
            },
            DcoMsg::Deregister {
                key: ChordId(13),
                holder: NodeId(2),
                ttl: 0,
                fin: false,
            },
            DcoMsg::Lookup {
                key: ChordId(u64::MAX),
                seq: ChunkSeq(41),
                origin: NodeId(9),
                exclude: Some(NodeId(1)),
                ttl: 5,
                fin: true,
            },
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
            DcoMsg::ClientLookup {
                seq: ChunkSeq(77),
                exclude: None,
            },
            DcoMsg::ClientInsert { index: index(9) },
            DcoMsg::StableReport { longevity: 0.875 },
            DcoMsg::Promote,
            DcoMsg::CoordinatorAnnounce,
            DcoMsg::CoordinatorLost { dead: NodeId(6) },
        ]
    }

    #[test]
    fn dco_messages_round_trip() {
        let samples = samples();
        // One sample per variant keeps this list honest as the enum grows.
        assert_eq!(samples.len(), 19);
        for msg in samples {
            round_trip(&msg);
        }
    }

    #[test]
    fn truncated_dco_messages_are_rejected() {
        for msg in samples() {
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
    }
}
