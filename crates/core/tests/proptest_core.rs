//! Property tests for DCO's core data structures: index-table selection,
//! buffer maps and chunk naming. Driven by the in-tree `dco-testkit`
//! (deterministic seeds, `DCO_TESTKIT_REPLAY` to reproduce a failure).

use dco_core::buffer::BufferMap;
use dco_core::chunk::{ChunkNamer, ChunkSeq};
use dco_core::index::{ChunkIndex, IndexTable, SelectPolicy};
use dco_dht::id::ChordId;
use dco_sim::net::Kbps;
use dco_sim::node::NodeId;
use dco_sim::rng::SimRng;
use dco_testkit::{check, tk_assert, tk_assert_eq};

/// Selection never returns an excluded holder and, under the paper's
/// rule, returns a sufficient provider whenever one qualifies.
#[test]
fn selection_respects_exclusion_and_floor() {
    check("selection_respects_exclusion_and_floor", 64, |g| {
        let providers: Vec<(u32, u32)> = g.vec_of(1, 24, |g| {
            (g.u64_in(0, 32) as u32, g.u64_in(0, 1200) as u32)
        });
        let excluded: Vec<u32> = g.vec_of(0, 6, |g| g.u64_in(0, 32) as u32);
        let floor = g.u64_in(100, 800) as u32;
        let seed = g.any_u64();

        let key = ChordId(7);
        let mut table = IndexTable::new();
        for &(holder, avail) in &providers {
            table.register(
                key,
                ChunkIndex {
                    seq: ChunkSeq(0),
                    holder: NodeId(holder),
                    avail: Kbps(avail),
                    held_count: 1,
                },
            );
        }
        let excl: Vec<NodeId> = excluded.iter().map(|&n| NodeId(n)).collect();
        let mut rng = SimRng::seed_from_u64(seed);
        for policy in [
            SelectPolicy::SufficientBandwidth,
            SelectPolicy::Random,
            SelectPolicy::LeastLoaded,
        ] {
            if let Some(pick) = table.select(key, Kbps(floor), policy, &excl, &mut rng) {
                tk_assert!(!excl.contains(&pick.holder), "{policy:?} returned excluded");
                tk_assert!(
                    providers.iter().any(|&(h, _)| NodeId(h) == pick.holder),
                    "{policy:?} invented a provider"
                );
            } else {
                // None is only allowed when every provider is excluded.
                tk_assert!(
                    providers.iter().all(|&(h, _)| excl.contains(&NodeId(h))),
                    "{policy:?} returned None with candidates available"
                );
            }
        }
        // The paper's rule must return a sufficient provider when any
        // non-excluded candidate clears the floor. Registration refreshes
        // in place, so only each holder's LAST advertisement counts.
        let mut last: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for &(h, a) in &providers {
            last.insert(h, a);
        }
        let any_sufficient = last
            .iter()
            .any(|(&h, &a)| a >= floor && !excl.contains(&NodeId(h)));
        if any_sufficient {
            let pick = table
                .select(
                    key,
                    Kbps(floor),
                    SelectPolicy::SufficientBandwidth,
                    &excl,
                    &mut rng,
                )
                .unwrap();
            // The registry may hold several entries per holder id after
            // registration refresh; verify via the pick's own record.
            tk_assert!(pick.avail >= Kbps(floor), "picked {pick:?} below floor");
        }
        Ok(())
    });
}

/// Buffer-map algebra: held + missing partitions any range.
#[test]
fn buffer_map_partitions_ranges() {
    check("buffer_map_partitions_ranges", 64, |g| {
        let held: Vec<u32> = g.vec_of(0, 80, |g| g.u64_in(0, 300) as u32);
        let from = g.u64_in(0, 300) as u32;
        let len = g.u64_in(0, 100) as u32;

        let mut m = BufferMap::new(300);
        for &s in &held {
            m.insert(ChunkSeq(s));
        }
        let to = from.saturating_add(len).min(299);
        if from > to {
            return Ok(());
        }
        let missing = m.missing_in(ChunkSeq(from), ChunkSeq(to));
        for s in from..=to {
            let is_missing = missing.contains(&ChunkSeq(s));
            tk_assert_eq!(is_missing, !m.has(ChunkSeq(s)));
        }
        // held_count equals the number of distinct inserted seqs.
        let distinct: std::collections::HashSet<u32> = held.iter().copied().collect();
        tk_assert_eq!(m.held_count(), distinct.len());
        Ok(())
    });
}

/// Chunk names (and thus ring IDs) are unique per sequence number for
/// any base timestamp.
#[test]
fn chunk_names_are_unique() {
    check("chunk_names_are_unique", 64, |g| {
        let base = g.u64_in(1, 10_000_000_000);
        let n = g.u64_in(1, 128) as u32;
        let namer = ChunkNamer::new("X", base, n);
        let mut names = std::collections::HashSet::new();
        let mut ids = std::collections::HashSet::new();
        for s in 0..n {
            tk_assert!(names.insert(namer.name_of(ChunkSeq(s))));
            tk_assert!(ids.insert(namer.id_of(ChunkSeq(s))));
        }
        Ok(())
    });
}
