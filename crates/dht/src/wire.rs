//! Wire codec for Chord types (cross-shard transport).
//!
//! Sharded runs move [`ChordMsg`] values between worker processes inside
//! `DcoMsg` frames; these impls extend the `dco-sim` codec to the DHT layer.
//! Format: fields in declaration order, one tag byte per enum variant.

use dco_sim::wire::{WireCodec, WireError, WireReader};

use crate::chord::{ChordMsg, RouteToken};
use crate::id::{ChordId, Peer};

impl WireCodec for ChordId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ChordId(r.get()?))
    }
}

impl WireCodec for Peer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.node.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Peer {
            id: r.get()?,
            node: r.get()?,
        })
    }
}

impl WireCodec for RouteToken {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RouteToken::Join => out.push(0),
            RouteToken::Finger(k) => {
                out.push(1);
                k.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(RouteToken::Join),
            1 => Ok(RouteToken::Finger(r.get()?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl WireCodec for ChordMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ChordMsg::FindSucc {
                key,
                origin,
                token,
                ttl,
            } => {
                out.push(0);
                key.encode(out);
                origin.encode(out);
                token.encode(out);
                ttl.encode(out);
            }
            ChordMsg::FoundSucc { succ, token } => {
                out.push(1);
                succ.encode(out);
                token.encode(out);
            }
            ChordMsg::GetPred { from } => {
                out.push(2);
                from.encode(out);
            }
            ChordMsg::PredReply { pred, succs, dead } => {
                out.push(3);
                pred.encode(out);
                succs.encode(out);
                dead.encode(out);
            }
            ChordMsg::Notify { peer } => {
                out.push(4);
                peer.encode(out);
            }
            ChordMsg::LeaveToPred { leaving, new_succ } => {
                out.push(5);
                leaving.encode(out);
                new_succ.encode(out);
            }
            ChordMsg::LeaveToSucc { leaving, new_pred } => {
                out.push(6);
                leaving.encode(out);
                new_pred.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(ChordMsg::FindSucc {
                key: r.get()?,
                origin: r.get()?,
                token: r.get()?,
                ttl: r.get()?,
            }),
            1 => Ok(ChordMsg::FoundSucc {
                succ: r.get()?,
                token: r.get()?,
            }),
            2 => Ok(ChordMsg::GetPred { from: r.get()? }),
            3 => Ok(ChordMsg::PredReply {
                pred: r.get()?,
                succs: r.get()?,
                dead: r.get()?,
            }),
            4 => Ok(ChordMsg::Notify { peer: r.get()? }),
            5 => Ok(ChordMsg::LeaveToPred {
                leaving: r.get()?,
                new_succ: r.get()?,
            }),
            6 => Ok(ChordMsg::LeaveToSucc {
                leaving: r.get()?,
                new_pred: r.get()?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_sim::node::NodeId;
    use dco_sim::wire::{decode_exact, encode_to_vec};

    fn peer(n: u32) -> Peer {
        Peer {
            id: ChordId(0x1234_5678_9ABC_DEF0u64.wrapping_mul(u64::from(n) + 1)),
            node: NodeId(n),
        }
    }

    /// `ChordMsg` has no `PartialEq`, so equality is checked through the
    /// codec itself: decode then re-encode must reproduce the bytes.
    fn round_trip(msg: &ChordMsg) {
        let bytes = encode_to_vec(msg);
        let back = decode_exact::<ChordMsg>(&bytes).unwrap();
        assert_eq!(encode_to_vec(&back), bytes, "{msg:?}");
    }

    fn samples() -> Vec<ChordMsg> {
        vec![
            ChordMsg::FindSucc {
                key: ChordId(42),
                origin: peer(7),
                token: RouteToken::Join,
                ttl: 64,
            },
            ChordMsg::FindSucc {
                key: ChordId(u64::MAX),
                origin: peer(0),
                token: RouteToken::Finger(13),
                ttl: 1,
            },
            ChordMsg::FoundSucc {
                succ: peer(3),
                token: RouteToken::Finger(0),
            },
            ChordMsg::GetPred { from: peer(11) },
            ChordMsg::PredReply {
                pred: None,
                succs: vec![],
                dead: vec![],
            },
            ChordMsg::PredReply {
                pred: Some(peer(1)),
                succs: vec![peer(2), peer(3), peer(4)],
                dead: vec![(NodeId(5), 2), (NodeId(6), 0)],
            },
            ChordMsg::Notify { peer: peer(8) },
            ChordMsg::LeaveToPred {
                leaving: peer(9),
                new_succ: Some(peer(10)),
            },
            ChordMsg::LeaveToSucc {
                leaving: peer(9),
                new_pred: None,
            },
        ]
    }

    #[test]
    fn chord_messages_round_trip() {
        for msg in samples() {
            round_trip(&msg);
        }
    }

    #[test]
    fn route_tokens_round_trip() {
        for token in [RouteToken::Join, RouteToken::Finger(63)] {
            let bytes = encode_to_vec(&token);
            let back = decode_exact::<RouteToken>(&bytes).unwrap();
            assert_eq!(encode_to_vec(&back), bytes);
        }
    }

    #[test]
    fn truncated_chord_messages_are_rejected() {
        for msg in samples() {
            let bytes = encode_to_vec(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    decode_exact::<ChordMsg>(&bytes[..cut]).is_err(),
                    "cut at {cut} of {msg:?}"
                );
            }
        }
    }

    #[test]
    fn bad_variant_tags_are_rejected() {
        assert!(matches!(
            decode_exact::<ChordMsg>(&[200]),
            Err(WireError::BadTag(200))
        ));
        assert!(matches!(
            decode_exact::<RouteToken>(&[2]),
            Err(WireError::BadTag(2))
        ));
    }
}
