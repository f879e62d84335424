//! Experiment scenario construction.
//!
//! A [`Scenario`] bundles everything §IV fixes about a run — population,
//! chunk count, optional churn — and installs itself into any
//! protocol's simulator: it creates the nodes with the paper's link
//! capacities (4000 kbps server, 600 kbps peers) and schedules every join
//! and leave. The protocol itself is supplied by the caller (`dco-core` or
//! `dco-baselines`).

use dco_sim::engine::{Protocol, Simulator};
use dco_sim::net::NodeCaps;
use dco_sim::node::NodeId;
use dco_sim::time::SimTime;

use crate::churn::{ChurnConfig, ChurnEvent, ChurnSchedule};

/// A complete experiment configuration.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Total nodes including the server (node 0).
    pub n_nodes: u32,
    /// Number of chunks the server emits.
    pub n_chunks: u32,
    /// Optional churn configuration (none = static network).
    pub churn: Option<ChurnConfig>,
    /// Run horizon: events past this instant are not scheduled and
    /// measurements stop here.
    pub horizon: SimTime,
    /// Master seed.
    pub seed: u64,
}

impl Scenario {
    /// The paper's default no-churn setting: 512 nodes, 100 chunks of
    /// 300 kb at 1/s, 4000/600 kbps capacities.
    pub fn paper_default(seed: u64) -> Self {
        Scenario {
            n_nodes: 512,
            n_chunks: 100,
            churn: None,
            horizon: SimTime::from_secs(200),
            seed,
        }
    }

    /// The paper's churn setting (Figs. 11–12): 200 chunks, 300 s budget.
    pub fn paper_churn(mean_life_secs: u64, seed: u64) -> Self {
        Scenario {
            n_chunks: 200,
            horizon: SimTime::from_secs(300),
            churn: Some(ChurnConfig::paper_fig12(mean_life_secs)),
            ..Scenario::paper_default(seed)
        }
    }

    /// The server's node id.
    pub fn server(&self) -> NodeId {
        NodeId(0)
    }

    /// Generates the churn schedule for this scenario (empty when churn is
    /// disabled). The server never churns.
    pub fn churn_schedule(&self) -> ChurnSchedule {
        match &self.churn {
            None => ChurnSchedule::default(),
            Some(cfg) => ChurnSchedule::generate(1, self.n_nodes - 1, self.horizon, cfg, self.seed),
        }
    }

    /// Creates all nodes in `sim` and schedules every join/leave. Returns
    /// the churn schedule used (empty when churn is disabled).
    pub fn install<P: Protocol>(&self, sim: &mut Simulator<P>) -> ChurnSchedule {
        self.add_nodes(sim);
        self.schedule_membership(sim)
    }

    /// Creates all nodes in `sim` — the server (node 0) at 4000 kbps, every
    /// peer at 600 kbps — without scheduling anything. Sharded
    /// runs call this, then `Simulator::enable_sharding` (which must see
    /// the full node table but no events), then
    /// [`Scenario::schedule_membership`]; `install` is the two back to
    /// back.
    pub fn add_nodes<P: Protocol>(&self, sim: &mut Simulator<P>) {
        for i in 0..self.n_nodes {
            let caps = if i == 0 {
                NodeCaps::server_default()
            } else {
                NodeCaps::peer_default()
            };
            let id = sim.add_node(caps);
            debug_assert_eq!(id, NodeId(i));
        }
    }

    /// Schedules every join/leave for nodes already created by
    /// [`Scenario::add_nodes`]. Returns the churn schedule used (empty
    /// when churn is disabled).
    pub fn schedule_membership<P: Protocol>(&self, sim: &mut Simulator<P>) -> ChurnSchedule {
        // Server is always up from t = 0 and joins first.
        sim.schedule_join(self.server(), SimTime::ZERO);
        let schedule = self.churn_schedule();
        if self.churn.is_none() {
            // No churn: everyone joins at t = 0, right after the server
            // and in node order (the calendar is FIFO at equal instants).
            for i in 1..self.n_nodes {
                sim.schedule_join(NodeId(i), SimTime::ZERO);
            }
        } else {
            for (node, seq) in &schedule.events {
                for e in seq {
                    match *e {
                        ChurnEvent::Join(at) => sim.schedule_join(*node, at),
                        ChurnEvent::Leave(at, graceful) => sim.schedule_leave(*node, at, graceful),
                    }
                }
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_sim::engine::Ctx;
    use dco_sim::net::NetConfig;

    /// A protocol that just counts joins and leaves, noting each joiner's
    /// download rate in join order.
    #[derive(Default)]
    struct Census {
        joins: usize,
        leaves: usize,
        joined: Vec<(NodeId, u32)>,
    }

    impl Protocol for Census {
        type Msg = ();
        type Timer = ();
        fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
            self.joins += 1;
            self.joined.push((node, ctx.download_rate(node).0));
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: (), _: &mut Ctx<'_, Self>) {}
        fn on_timer(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, Self>) {}
        fn on_leave(&mut self, _: NodeId, _: bool, _: &mut Ctx<'_, Self>) {
            self.leaves += 1;
        }
    }

    #[test]
    fn paper_default_parameters() {
        let s = Scenario::paper_default(1);
        assert_eq!(s.n_nodes, 512);
        assert_eq!(s.n_chunks, 100);
        assert!(s.churn.is_none());
    }

    #[test]
    fn static_install_brings_everyone_up() {
        let s = Scenario {
            n_nodes: 32,
            ..Scenario::paper_default(3)
        };
        let mut sim = Simulator::new(Census::default(), NetConfig::default(), s.seed);
        let schedule = s.install(&mut sim);
        assert!(schedule.events.is_empty());
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.protocol().joins, 32, "everyone joins at t = 0");
        assert_eq!(sim.alive_count(), 32);
        // The server first at 4000 kbps, then every peer at 600 kbps, in
        // node order.
        let want: Vec<(NodeId, u32)> = (0..32)
            .map(|i| (NodeId(i), if i == 0 { 4000 } else { 600 }))
            .collect();
        assert_eq!(sim.protocol().joined, want);
    }

    #[test]
    fn churn_install_schedules_leaves_and_rejoins() {
        let s = Scenario {
            n_nodes: 64,
            ..Scenario::paper_churn(60, 5)
        };
        let mut sim = Simulator::new(Census::default(), NetConfig::default(), s.seed);
        let schedule = s.install(&mut sim);
        assert!(schedule.total_leaves() > 0);
        sim.run_until(SimTime::from_secs(300));
        let p = sim.protocol();
        assert!(p.joins > 64, "rejoins happened: {}", p.joins);
        assert!(p.leaves > 0);
        assert!(sim.is_alive(NodeId(0)), "server never churns");
    }

    #[test]
    fn churn_schedule_is_deterministic() {
        let s = Scenario::paper_churn(90, 8);
        assert_eq!(s.churn_schedule().events, s.churn_schedule().events);
    }
}
