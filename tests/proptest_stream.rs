//! Property tests spanning the event calendar, workload generation,
//! metrics bookkeeping and the DCO protocol's conservation laws. Driven
//! by the in-tree `dco-testkit` (deterministic seeds,
//! `DCO_TESTKIT_REPLAY` to reproduce a failure).

use dco::core::proto::{DcoConfig, DcoProtocol};
use dco::metrics::StreamObserver;
use dco::sim::prelude::*;
use dco::sim::queue::EventQueue;
use dco::workload::{ChurnConfig, ChurnSchedule};
use dco_testkit::{check, tk_assert, tk_assert_eq};

/// The calendar pops in `(time, insertion)` order for arbitrary push
/// sequences: earliest time first, and FIFO among events scheduled for
/// the same instant — the stability that makes whole runs deterministic.
#[test]
fn event_queue_pops_in_time_then_insertion_order() {
    check("event_queue_pops_in_time_then_insertion_order", 128, |g| {
        // Cluster times into few distinct values so same-instant ties are
        // common, and interleave pops to exercise heap reordering. At every
        // pop the queue must return the minimum (time, insertion) pair of
        // the events currently inside it — checked against a model
        // multiset that mirrors each push and pop.
        let n = g.usize_in(1, 200);
        let distinct_times = g.u64_in(1, 8);
        let mut q = EventQueue::with_capacity(n);
        let mut model: Vec<(u64, usize)> = Vec::new();
        let check_pop =
            |q: &mut EventQueue<usize>, model: &mut Vec<(u64, usize)>| -> Result<(), String> {
                let expect = *model.iter().min().unwrap();
                let (at, idx) = q.pop().expect("model is non-empty");
                tk_assert_eq!(
                    (at.as_micros(), idx),
                    expect,
                    "pop must return the least (time, insertion) pair"
                );
                model.retain(|&e| e != expect);
                Ok(())
            };
        for i in 0..n {
            let t = g.u64_in(0, distinct_times) * 37;
            q.push(SimTime::from_micros(t), i);
            model.push((t, i));
            if g.weighted_bool(0.2) {
                check_pop(&mut q, &mut model)?;
            }
        }
        while !model.is_empty() {
            check_pop(&mut q, &mut model)?;
        }
        tk_assert!(q.pop().is_none(), "queue drains with the model");
        Ok(())
    });
}

/// Churn schedules are alternating, time-ordered, and deterministic in
/// the seed, for arbitrary parameters.
#[test]
fn churn_schedules_are_well_formed() {
    check("churn_schedules_are_well_formed", 24, |g| {
        let count = g.u64_in(1, 60) as u32;
        let mean_life = g.u64_in(5, 120);
        let graceful = g.f64_in(0.0, 1.0);
        let seed = g.any_u64();
        let cfg = ChurnConfig {
            mean_life: SimDuration::from_secs(mean_life),
            mean_join_interval: SimDuration::from_secs(mean_life),
            graceful_fraction: graceful,
            start_after: SimTime::ZERO,
        };
        let horizon = SimTime::from_secs(240);
        let s1 = ChurnSchedule::generate(1, count, horizon, &cfg, seed);
        let s2 = ChurnSchedule::generate(1, count, horizon, &cfg, seed);
        tk_assert_eq!(&s1.events, &s2.events, "seed-deterministic");
        for (_, seq) in &s1.events {
            let mut last = SimTime::ZERO;
            for (i, e) in seq.iter().enumerate() {
                let (t, is_join) = match *e {
                    dco::workload::ChurnEvent::Join(t) => (t, true),
                    dco::workload::ChurnEvent::Leave(t, _) => (t, false),
                };
                tk_assert_eq!(is_join, i % 2 == 0, "alternation");
                tk_assert!(t >= last, "ordering");
                tk_assert!(t < horizon, "clipped to horizon");
                last = t;
            }
        }
        Ok(())
    });
}

/// Observer conservation: received ≤ expected; the received share is in
/// [0, 100] % and monotone in time, for arbitrary reception patterns.
#[test]
fn observer_invariants_hold() {
    check("observer_invariants_hold", 24, |g| {
        let n_nodes = g.usize_in(1, 20);
        let n_chunks = g.u64_in(1, 30) as u32;
        let receptions: Vec<(u32, u32, u64)> = g.vec_of(0, 200, |g| {
            (
                g.u64_in(0, 30) as u32,
                g.u64_in(0, 20) as u32,
                g.u64_in(0, 500),
            )
        });
        let mut obs = StreamObserver::new(n_nodes, n_chunks as usize);
        for seq in 0..n_chunks {
            obs.record_generated(seq, SimTime::from_secs(u64::from(seq)));
            for node in 0..n_nodes {
                obs.mark_expected(seq, NodeId(node as u32));
            }
        }
        for (seq, node, t) in receptions {
            if seq < n_chunks && (node as usize) < n_nodes {
                obs.record_received(seq, NodeId(node), SimTime::from_secs(t));
            }
        }
        tk_assert!(obs.received_pairs() <= obs.audience_pairs());
        let mut last = -1.0f64;
        for t in (0..500).step_by(50) {
            let pct = obs.fold_figures(SimTime::from_secs(t), &[]).received_pct;
            tk_assert!((0.0..=100.0).contains(&pct));
            tk_assert!(pct >= last, "fill monotone in time");
            last = pct;
        }
        Ok(())
    });
}

/// DCO conservation on arbitrary small static networks: every received
/// pair was generated, reception never exceeds the audience, and all
/// overhead tags belong to the protocol's vocabulary.
#[test]
fn dco_run_conservation() {
    check("dco_run_conservation", 16, |g| {
        let n_nodes = g.u64_in(4, 24) as u32;
        let n_chunks = g.u64_in(1, 12) as u32;
        let seed = g.any_u64();
        let cfg = DcoConfig::paper_default(n_nodes, n_chunks);
        let mut sim = Simulator::new(DcoProtocol::new(cfg), NetConfig::paper_model(), seed);
        for i in 0..n_nodes {
            let caps = if i == 0 {
                NodeCaps::server_default()
            } else {
                NodeCaps::peer_default()
            };
            let id = sim.add_node(caps);
            sim.schedule_join(id, SimTime::ZERO);
        }
        sim.run_until(SimTime::from_secs(u64::from(n_chunks) + 40));
        let p = sim.protocol();
        tk_assert_eq!(
            p.obs.audience_pairs(),
            (n_nodes as usize - 1) * n_chunks as usize
        );
        tk_assert!(p.obs.received_pairs() <= p.obs.audience_pairs());
        // Static + no loss ⇒ everything arrives.
        tk_assert_eq!(p.obs.received_pairs(), p.obs.audience_pairs());
        for (tag, _) in sim.counters().tags() {
            tk_assert!(
                tag.starts_with("dco.") || tag.starts_with("chord."),
                "unknown overhead tag {tag}"
            );
        }
        Ok(())
    });
}
