//! Fault injection.
//!
//! A [`FaultPlan`] lets tests and churn experiments drop messages
//! probabilistically (per traffic class) or cut specific node pairs entirely.
//! Draws come from the engine RNG so faulty runs are as reproducible as clean
//! ones.

use std::collections::HashSet;

use crate::msg::MsgClass;
use crate::node::NodeId;
use crate::rng::SimRng;

/// A message-loss policy applied to every transmission.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a data message is lost in flight.
    pub data_loss: f64,
    /// Probability in `[0, 1]` that a control message is lost in flight.
    pub control_loss: f64,
    /// Directed pairs that are completely partitioned.
    cut_links: HashSet<(NodeId, NodeId)>,
}

impl FaultPlan {
    /// A plan that never drops anything.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with uniform loss probability across both classes.
    pub fn uniform(loss: f64) -> Self {
        FaultPlan {
            data_loss: loss,
            control_loss: loss,
            cut_links: HashSet::new(),
        }
    }

    /// Severs both directions between `a` and `b`.
    pub fn cut_pair(&mut self, a: NodeId, b: NodeId) {
        self.cut_links.insert((a, b));
        self.cut_links.insert((b, a));
    }

    /// Restores the directed link `from → to`.
    pub fn heal_link(&mut self, from: NodeId, to: NodeId) {
        self.cut_links.remove(&(from, to));
    }

    /// True if any fault can ever fire (lets the engine skip RNG draws on
    /// the fast path of a clean run).
    pub fn is_active(&self) -> bool {
        self.data_loss > 0.0 || self.control_loss > 0.0 || !self.cut_links.is_empty()
    }

    /// Decides whether the transmission `from → to` of class `class` is
    /// dropped.
    pub fn drops(&self, from: NodeId, to: NodeId, class: MsgClass, rng: &mut SimRng) -> bool {
        if self.cut_links.contains(&(from, to)) {
            return true;
        }
        let p = match class {
            MsgClass::Data => self.data_loss,
            MsgClass::Control => self.control_loss,
        };
        p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn clean_plan_never_drops() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(!plan.drops(NodeId(0), NodeId(1), MsgClass::Data, &mut rng));
            assert!(!plan.drops(NodeId(0), NodeId(1), MsgClass::Control, &mut rng));
        }
    }

    #[test]
    fn certain_loss_always_drops() {
        let plan = FaultPlan::uniform(1.0);
        assert!(plan.is_active());
        let mut rng = SimRng::seed_from_u64(3);
        assert!(plan.drops(NodeId(0), NodeId(1), MsgClass::Data, &mut rng));
        assert!(plan.drops(NodeId(0), NodeId(1), MsgClass::Control, &mut rng));
    }

    #[test]
    fn per_class_loss() {
        let plan = FaultPlan {
            data_loss: 1.0,
            control_loss: 0.0,
            ..FaultPlan::default()
        };
        let mut rng = SimRng::seed_from_u64(3);
        assert!(plan.drops(NodeId(0), NodeId(1), MsgClass::Data, &mut rng));
        assert!(!plan.drops(NodeId(0), NodeId(1), MsgClass::Control, &mut rng));
    }

    #[test]
    fn cut_links_are_directed() {
        let mut plan = FaultPlan::none();
        // Sever both directions, then restore one: the other stays cut.
        plan.cut_pair(NodeId(0), NodeId(1));
        plan.heal_link(NodeId(1), NodeId(0));
        let mut rng = SimRng::seed_from_u64(3);
        assert!(plan.drops(NodeId(0), NodeId(1), MsgClass::Control, &mut rng));
        assert!(!plan.drops(NodeId(1), NodeId(0), MsgClass::Control, &mut rng));
        plan.heal_link(NodeId(0), NodeId(1));
        assert!(!plan.drops(NodeId(0), NodeId(1), MsgClass::Control, &mut rng));
    }

    #[test]
    fn cut_pair_severs_both_directions() {
        let mut plan = FaultPlan::none();
        plan.cut_pair(NodeId(4), NodeId(9));
        let mut rng = SimRng::seed_from_u64(3);
        assert!(plan.drops(NodeId(4), NodeId(9), MsgClass::Data, &mut rng));
        assert!(plan.drops(NodeId(9), NodeId(4), MsgClass::Data, &mut rng));
    }

    #[test]
    fn approximate_loss_rate() {
        let plan = FaultPlan::uniform(0.3);
        let mut rng = SimRng::seed_from_u64(42);
        let n = 20_000;
        let dropped = (0..n)
            .filter(|_| plan.drops(NodeId(0), NodeId(1), MsgClass::Data, &mut rng))
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "measured {rate}");
    }
}
