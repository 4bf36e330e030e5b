//! Per-node fault lifecycle engine.

use crate::schedule::{FaultKind, FaultSchedule};
use ppc_node::NodeId;
use ppc_simkit::SimTime;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Health of one node, as tracked by the engine.
///
/// Down dominates: a crashed node is neither hung nor silent — those
/// overlays are cleared on crash and ignored while down.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeHealth {
    /// `Some(t)` while the node is down; it reboots at `t`.
    pub down_until: Option<SimTime>,
    /// `Some(t)` while the DVFS actuator is frozen; it thaws at `t`.
    pub hung_until: Option<SimTime>,
    /// `Some(t)` while the node's telemetry is dark; it resumes at `t`.
    pub silent_until: Option<SimTime>,
    /// Instant the current outage started (accounting).
    down_since: Option<SimTime>,
}

/// An edge transition the cluster layer must react to.
///
/// Within one tick, recoveries are reported first (in node-id order), then
/// newly striking faults (in schedule order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTransition {
    /// Node lost power: evict its job, drop it from scheduling and from the
    /// candidate set.
    NodeDown(NodeId),
    /// Node rebooted: it rejoins at the lowest DVFS level.
    NodeUp(NodeId),
    /// DVFS actuator frozen: commands to this node will fail.
    HangStart(NodeId),
    /// Actuator thawed.
    HangEnd(NodeId),
    /// Telemetry dark: the agent stops producing samples.
    SilenceStart(NodeId),
    /// Telemetry restored.
    SilenceEnd(NodeId),
}

/// Availability accounting accumulated by the engine.
///
/// `node_seconds_lost` and `repair_secs_total` include outages still open
/// at the instant [`FaultEngine::stats_at`] is called.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct FaultStats {
    /// Up→down transitions (a crash landing on an already-down node only
    /// extends the outage).
    pub crashes: u64,
    /// Hang windows started.
    pub hangs: u64,
    /// Silence windows started (partitions count once per affected node).
    pub silences: u64,
    /// Completed reboots.
    pub repairs: u64,
    /// Total node-seconds of downtime.
    pub node_seconds_lost: f64,
    /// Total seconds from crash to reboot over completed repairs (MTTR
    /// numerator).
    pub repair_secs_total: f64,
}

/// Replays a [`FaultSchedule`] against simulation time.
///
/// Call [`advance`](FaultEngine::advance) once per tick with the current
/// instant; it returns the transitions that fired, at a cost in the edges
/// due (recoveries pop off a deadline heap). Health queries are O(1) array
/// lookups, cheap enough for per-node hot paths (power summation,
/// telemetry sweeps).
#[derive(Debug, Clone)]
pub struct FaultEngine {
    events: Vec<crate::schedule::FaultEvent>,
    next_event: usize,
    health: Vec<NodeHealth>,
    /// Recovery deadlines, earliest first: one `(deadline, node)` entry is
    /// pushed whenever a strike sets or extends a `*_until`. Deadlines only
    /// move later or clear, so every deadline in `health` has an entry at
    /// exactly its instant; an entry whose deadline has since moved or
    /// cleared is stale, and the per-node check at its pop finds nothing
    /// due.
    deadlines: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Scratch: the nodes with a deadline due this tick, in node-id order.
    due: Vec<u32>,
    stats: FaultStats,
    transitions: Vec<FaultTransition>,
}

impl FaultEngine {
    /// Builds an engine for a `node_count`-node cluster.
    ///
    /// # Panics
    /// Panics if the schedule fails [`FaultSchedule::validate`] — an
    /// out-of-range schedule is a configuration error, not a runtime
    /// condition.
    pub fn new(schedule: &FaultSchedule, node_count: u32) -> Self {
        if let Err(msg) = schedule.validate(node_count) {
            // ppc-lint: allow(panic-path): documented constructor contract — an out-of-range schedule is a configuration error
            panic!("invalid fault schedule: {msg}");
        }
        FaultEngine {
            events: schedule.events().to_vec(),
            next_event: 0,
            health: vec![NodeHealth::default(); node_count as usize],
            deadlines: BinaryHeap::new(),
            due: Vec::new(),
            stats: FaultStats::default(),
            transitions: Vec::new(),
        }
    }

    /// [`FaultEngine::advance`] with span recording: wraps the sweep in a
    /// `faults` span carrying the number of transitions that fired (the
    /// span is only opened when something fired, so quiet ticks stay out
    /// of the trace).
    pub fn advance_traced(
        &mut self,
        now: SimTime,
        spans: &mut ppc_obs::SpanRecorder,
    ) -> &[FaultTransition] {
        let fired = !self.advance(now).is_empty();
        if fired {
            spans.open("faults", now);
            spans.attr(
                "transitions",
                ppc_obs::AttrValue::U64(self.transitions.len() as u64),
            );
            spans.close(now);
        }
        &self.transitions
    }

    /// Advances to `now`, returning the transitions that fired since the
    /// previous call. Recoveries first (node-id order), then new faults
    /// (schedule order). The returned slice is valid until the next call.
    pub fn advance(&mut self, now: SimTime) -> &[FaultTransition] {
        self.transitions.clear();
        self.recover(now);
        self.strike_due(now);
        &self.transitions
    }

    /// Newly striking faults, in schedule order.
    fn strike_due(&mut self, now: SimTime) {
        while self.next_event < self.events.len() && self.events[self.next_event].at <= now {
            let e = self.events[self.next_event];
            self.next_event += 1;
            match e.kind {
                FaultKind::Crash { reboot } => self.strike_crash(e.node, now + reboot, now),
                FaultKind::Hang { duration } => {
                    let h = &mut self.health[e.node.0 as usize];
                    if h.down_until.is_some() {
                        continue; // down dominates
                    }
                    let until = now + duration;
                    let fresh = h.hung_until.is_none();
                    if h.hung_until.is_none_or(|t| t < until) {
                        h.hung_until = Some(until);
                        self.deadlines.push(Reverse((until, e.node.0)));
                    }
                    if fresh {
                        self.stats.hangs += 1;
                        self.transitions.push(FaultTransition::HangStart(e.node));
                    }
                }
                FaultKind::AgentSilence { duration } => self.strike_silence(e.node, now + duration),
                FaultKind::SubtreePartition { width, duration } => {
                    for n in e.node.0..e.node.0 + width {
                        self.strike_silence(NodeId(n), now + duration);
                    }
                }
            }
        }
    }

    /// The earliest pending recovery deadline ([`SimTime::MAX`] when none
    /// is set). It may be a stale entry's: a lower bound on the earliest
    /// deadline in `health`.
    #[cfg(test)]
    fn next_due(&self) -> SimTime {
        self.deadlines.peek().map_or(SimTime::MAX, |e| e.0 .0)
    }

    /// Recoveries: pops the due deadlines and runs the per-node checks in
    /// node-id order, so the transitions (and the downtime summation
    /// order) are those of a scan over every node.
    fn recover(&mut self, now: SimTime) {
        self.due.clear();
        while let Some(&Reverse((t, n))) = self.deadlines.peek() {
            if t > now {
                break;
            }
            self.deadlines.pop();
            self.due.push(n);
        }
        self.due.sort_unstable();
        self.due.dedup();
        for k in 0..self.due.len() {
            self.recover_node(NodeId(self.due[k]), now);
        }
    }

    /// Ends whichever of `node`'s outage, hang and silence is due at `now`.
    fn recover_node(&mut self, node: NodeId, now: SimTime) {
        let h = &mut self.health[node.0 as usize];
        if let Some(t) = h.down_until {
            if t <= now {
                h.down_until = None;
                // ppc-lint: allow(panic-path): down_until and down_since are always set together in strike_crash
                let since = h.down_since.take().expect("down node has a start instant");
                let lost = (now - since).as_secs_f64();
                self.stats.node_seconds_lost += lost;
                self.stats.repair_secs_total += lost;
                self.stats.repairs += 1;
                self.transitions.push(FaultTransition::NodeUp(node));
            }
        }
        if let Some(t) = h.hung_until {
            if t <= now {
                h.hung_until = None;
                self.transitions.push(FaultTransition::HangEnd(node));
            }
        }
        if let Some(t) = h.silent_until {
            if t <= now {
                h.silent_until = None;
                self.transitions.push(FaultTransition::SilenceEnd(node));
            }
        }
    }

    fn strike_crash(&mut self, node: NodeId, until: SimTime, now: SimTime) {
        let h = &mut self.health[node.0 as usize];
        if let Some(down_until) = h.down_until {
            // Already down: the new crash only extends the outage.
            if until > down_until {
                h.down_until = Some(until);
                self.deadlines.push(Reverse((until, node.0)));
            }
            return;
        }
        self.deadlines.push(Reverse((until, node.0)));
        // Down dominates any hang/silence overlay.
        if h.hung_until.take().is_some() {
            self.transitions.push(FaultTransition::HangEnd(node));
        }
        if h.silent_until.take().is_some() {
            self.transitions.push(FaultTransition::SilenceEnd(node));
        }
        h.down_until = Some(until);
        h.down_since = Some(now);
        self.stats.crashes += 1;
        self.transitions.push(FaultTransition::NodeDown(node));
    }

    fn strike_silence(&mut self, node: NodeId, until: SimTime) {
        let h = &mut self.health[node.0 as usize];
        if h.down_until.is_some() {
            return; // down dominates
        }
        let fresh = h.silent_until.is_none();
        if h.silent_until.is_none_or(|t| t < until) {
            h.silent_until = Some(until);
            self.deadlines.push(Reverse((until, node.0)));
        }
        if fresh {
            self.stats.silences += 1;
            self.transitions.push(FaultTransition::SilenceStart(node));
        }
    }

    /// True if the node is currently down.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.health[node.0 as usize].down_until.is_some()
    }

    /// True if the node's DVFS actuator is currently frozen.
    pub fn is_hung(&self, node: NodeId) -> bool {
        self.health[node.0 as usize].hung_until.is_some()
    }

    /// True if the node's telemetry is currently dark (explicit silence or
    /// partition; down nodes are dark too, but report via [`is_down`]).
    ///
    /// [`is_down`]: FaultEngine::is_down
    pub fn is_silent(&self, node: NodeId) -> bool {
        self.health[node.0 as usize].silent_until.is_some()
    }

    /// Number of nodes currently down.
    pub fn down_count(&self) -> usize {
        self.health
            .iter()
            .filter(|h| h.down_until.is_some())
            .count()
    }

    /// Health record for one node.
    pub fn health(&self, node: NodeId) -> NodeHealth {
        self.health[node.0 as usize]
    }

    /// Availability accounting as of `now`, charging outages still open at
    /// `now` for the time they have already lasted.
    pub fn stats_at(&self, now: SimTime) -> FaultStats {
        let mut s = self.stats;
        for h in &self.health {
            if h.down_until.is_some() {
                // ppc-lint: allow(panic-path): down_until and down_since are always set together in strike_crash
                let since = h.down_since.expect("down node has a start instant");
                s.node_seconds_lost += (now - since).as_secs_f64();
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultEvent, FaultRates, FaultSchedule};
    use ppc_simkit::{RngFactory, SimDuration};
    use proptest::prelude::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn crash_lifecycle_and_accounting() {
        let sched = FaultSchedule::new(vec![FaultEvent {
            at: secs(5),
            node: NodeId(1),
            kind: FaultKind::Crash {
                reboot: SimDuration::from_secs(10),
            },
        }]);
        let mut eng = FaultEngine::new(&sched, 4);

        assert!(eng.advance(secs(4)).is_empty());
        assert_eq!(
            eng.advance(secs(5)),
            &[FaultTransition::NodeDown(NodeId(1))]
        );
        assert!(eng.is_down(NodeId(1)));
        assert!(eng.advance(secs(14)).is_empty());
        // Mid-outage stats charge the open outage.
        assert!((eng.stats_at(secs(14)).node_seconds_lost - 9.0).abs() < 1e-9);
        assert_eq!(eng.advance(secs(15)), &[FaultTransition::NodeUp(NodeId(1))]);
        assert!(!eng.is_down(NodeId(1)));

        let s = eng.stats_at(secs(20));
        assert_eq!((s.crashes, s.repairs), (1, 1));
        assert!((s.node_seconds_lost - 10.0).abs() < 1e-9);
        assert!((s.repair_secs_total - 10.0).abs() < 1e-9);
    }

    #[test]
    fn crash_clears_hang_and_silence_overlays() {
        let sched = FaultSchedule::new(vec![
            FaultEvent {
                at: secs(1),
                node: NodeId(0),
                kind: FaultKind::Hang {
                    duration: SimDuration::from_secs(100),
                },
            },
            FaultEvent {
                at: secs(1),
                node: NodeId(0),
                kind: FaultKind::AgentSilence {
                    duration: SimDuration::from_secs(100),
                },
            },
            FaultEvent {
                at: secs(2),
                node: NodeId(0),
                kind: FaultKind::Crash {
                    reboot: SimDuration::from_secs(5),
                },
            },
        ]);
        let mut eng = FaultEngine::new(&sched, 1);
        eng.advance(secs(1));
        assert!(eng.is_hung(NodeId(0)) && eng.is_silent(NodeId(0)));
        let tr = eng.advance(secs(2)).to_vec();
        assert!(tr.contains(&FaultTransition::HangEnd(NodeId(0))));
        assert!(tr.contains(&FaultTransition::SilenceEnd(NodeId(0))));
        assert!(tr.contains(&FaultTransition::NodeDown(NodeId(0))));
        assert!(!eng.is_hung(NodeId(0)) && !eng.is_silent(NodeId(0)));
        // The stale hang/silence recoveries do not re-fire after reboot.
        assert_eq!(eng.advance(secs(7)), &[FaultTransition::NodeUp(NodeId(0))]);
    }

    #[test]
    fn partition_darkens_the_whole_subtree_once() {
        let sched = FaultSchedule::new(vec![FaultEvent {
            at: secs(3),
            node: NodeId(4),
            kind: FaultKind::SubtreePartition {
                width: 4,
                duration: SimDuration::from_secs(6),
            },
        }]);
        let mut eng = FaultEngine::new(&sched, 8);
        let tr = eng.advance(secs(3)).to_vec();
        assert_eq!(tr.len(), 4);
        for n in 4..8u32 {
            assert!(tr.contains(&FaultTransition::SilenceStart(NodeId(n))));
            assert!(eng.is_silent(NodeId(n)));
        }
        assert!(!eng.is_silent(NodeId(0)));
        let tr = eng.advance(secs(9)).to_vec();
        assert_eq!(tr.len(), 4);
        assert!(tr.contains(&FaultTransition::SilenceEnd(NodeId(7))));
        assert_eq!(eng.stats_at(secs(9)).silences, 4);
    }

    #[test]
    fn overlapping_silences_extend_instead_of_restarting() {
        let sched = FaultSchedule::new(vec![
            FaultEvent {
                at: secs(1),
                node: NodeId(0),
                kind: FaultKind::AgentSilence {
                    duration: SimDuration::from_secs(10),
                },
            },
            FaultEvent {
                at: secs(5),
                node: NodeId(0),
                kind: FaultKind::AgentSilence {
                    duration: SimDuration::from_secs(2),
                },
            },
        ]);
        let mut eng = FaultEngine::new(&sched, 1);
        assert_eq!(eng.advance(secs(1)).len(), 1);
        assert!(
            eng.advance(secs(5)).is_empty(),
            "overlap does not re-announce"
        );
        assert!(
            eng.advance(secs(7)).is_empty(),
            "shorter overlap does not cut the window"
        );
        assert_eq!(
            eng.advance(secs(11)),
            &[FaultTransition::SilenceEnd(NodeId(0))]
        );
        assert_eq!(eng.stats_at(secs(11)).silences, 1);
    }

    #[test]
    fn quiet_ticks_skip_the_recovery_scan() {
        let sched = FaultSchedule::new(vec![FaultEvent {
            at: secs(2),
            node: NodeId(3),
            kind: FaultKind::Hang {
                duration: SimDuration::from_secs(5),
            },
        }]);
        let mut eng = FaultEngine::new(&sched, 8);
        assert_eq!(eng.next_due(), SimTime::MAX, "nothing pending");
        eng.advance(secs(2));
        assert_eq!(eng.next_due(), secs(7));
        assert!(eng.advance(secs(6)).is_empty());
        assert_eq!(eng.advance(secs(7)), &[FaultTransition::HangEnd(NodeId(3))]);
        assert_eq!(eng.next_due(), SimTime::MAX, "the due entry was popped");
    }

    impl FaultEngine {
        /// The reference sweep: recoveries from a check of every node in
        /// node-id order, whatever the heap holds. Due heap entries are
        /// still popped so both engines' heaps stay comparable.
        fn advance_scanning(&mut self, now: SimTime) -> &[FaultTransition] {
            self.transitions.clear();
            while self.deadlines.peek().is_some_and(|e| e.0 .0 <= now) {
                self.deadlines.pop();
            }
            for n in 0..self.health.len() as u32 {
                self.recover_node(NodeId(n), now);
            }
            self.strike_due(now);
            &self.transitions
        }
    }

    /// One event of a hand-drawn schedule: `(at, node, kind, secs)`, kind
    /// 0 = crash, 1 = hang, 2 = silence, 3 = partition of width 2.
    fn drawn_event((at, node, kind, secs): (u64, u32, u8, u64), nodes: u32) -> FaultEvent {
        let duration = SimDuration::from_secs(secs);
        let node = node % nodes;
        FaultEvent {
            at: SimTime::from_secs(at),
            node: NodeId(node),
            kind: match kind {
                0 => FaultKind::Crash { reboot: duration },
                1 => FaultKind::Hang { duration },
                2 => FaultKind::AgentSilence { duration },
                _ => FaultKind::SubtreePartition {
                    width: (nodes - node).min(2),
                    duration,
                },
            },
        }
    }

    /// Steps a heap-driven engine and the scanning reference over
    /// `schedule` and checks transitions, health and accounting after
    /// every step.
    fn assert_heap_matches_scan(
        sched: &FaultSchedule,
        nodes: u32,
        steps: &[u64],
    ) -> Result<(), TestCaseError> {
        let mut heap = FaultEngine::new(sched, nodes);
        let mut scan = FaultEngine::new(sched, nodes);
        let mut now = SimTime::ZERO;
        for &step in steps {
            now += SimDuration::from_secs(step);
            let want = scan.advance_scanning(now).to_vec();
            prop_assert_eq!(heap.advance(now), &want[..]);
            let mut earliest = SimTime::MAX;
            for n in 0..nodes {
                let (a, b) = (heap.health(NodeId(n)), scan.health(NodeId(n)));
                prop_assert_eq!(
                    (a.down_until, a.hung_until, a.silent_until, a.down_since),
                    (b.down_until, b.hung_until, b.silent_until, b.down_since)
                );
                for t in [a.down_until, a.hung_until, a.silent_until]
                    .into_iter()
                    .flatten()
                {
                    earliest = earliest.min(t);
                }
            }
            prop_assert!(heap.next_due() <= earliest, "heap minimum above a deadline");
            let (a, b) = (heap.stats_at(now), scan.stats_at(now));
            prop_assert_eq!(a, b);
            prop_assert_eq!(
                a.node_seconds_lost.to_bits(),
                b.node_seconds_lost.to_bits(),
                "downtime summed in node-id order"
            );
        }
        Ok(())
    }

    proptest! {
        /// Recoveries popped from the deadline heap report the same
        /// transitions, health and accounting as a check of every node on
        /// every tick, over generated schedules advanced in uneven steps.
        #[test]
        fn prop_due_scan_matches_always_scan(
            seed in any::<u64>(),
            nodes in 1u32..40,
            crash in 0.0f64..30.0,
            hang in 0.0f64..30.0,
            silence in 0.0f64..30.0,
            partition in 0.0f64..40.0,
            steps in proptest::collection::vec(1u64..4, 60..200),
        ) {
            let rates = FaultRates {
                crash_per_node_hour: crash,
                reboot_mean_secs: 20.0,
                hang_per_node_hour: hang,
                hang_mean_secs: 15.0,
                silence_per_node_hour: silence,
                silence_mean_secs: 10.0,
                partition_per_hour: partition,
                partition_width: nodes.min(4),
                partition_mean_secs: 12.0,
            };
            let horizon = SimDuration::from_secs(steps.iter().sum());
            let sched = FaultSchedule::generate(&rates, nodes, horizon, &RngFactory::new(seed));
            assert_heap_matches_scan(&sched, nodes, &steps)?;
        }

        /// The same on dense hand-drawn schedules over a few nodes, where
        /// the overlaps are the rule: hangs and silences that extend or
        /// nest inside each other, crashes landing during a hang or a
        /// silence (which clear them, leaving stale heap entries), and
        /// crashes that extend an outage.
        #[test]
        fn prop_heap_matches_scan_on_overlapping_faults(
            nodes in 1u32..6,
            events in proptest::collection::vec((0u64..60, 0u32..6, 0u8..4, 1u64..20), 1..60),
            steps in proptest::collection::vec(1u64..4, 30..60),
        ) {
            let sched = FaultSchedule::new(
                events.into_iter().map(|e| drawn_event(e, nodes)).collect(),
            );
            assert_heap_matches_scan(&sched, nodes, &steps)?;
        }
    }

    #[test]
    fn crash_extending_an_outage_moves_the_reboot() {
        let sched = FaultSchedule::new(vec![
            drawn_event((1, 0, 0, 10), 2),
            drawn_event((5, 0, 0, 20), 2),
            drawn_event((6, 0, 0, 2), 2),
        ]);
        let mut eng = FaultEngine::new(&sched, 2);
        assert_eq!(
            eng.advance(secs(1)),
            &[FaultTransition::NodeDown(NodeId(0))]
        );
        assert!(
            eng.advance(secs(5)).is_empty(),
            "extensions do not re-announce"
        );
        assert!(
            eng.advance(secs(6)).is_empty(),
            "a shorter crash does not cut it"
        );
        assert!(
            eng.advance(secs(11)).is_empty(),
            "the first deadline is stale"
        );
        assert_eq!(eng.advance(secs(25)), &[FaultTransition::NodeUp(NodeId(0))]);
        let s = eng.stats_at(secs(25));
        assert_eq!((s.crashes, s.repairs), (1, 1));
        assert!((s.node_seconds_lost - 24.0).abs() < 1e-9);
        assert_eq!(eng.next_due(), SimTime::MAX);
    }
}
