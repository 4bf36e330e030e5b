//! Fault schedules: explicit event lists and rate-based generation.

use ppc_node::NodeId;
use ppc_simkit::{RngFactory, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One class of injected fault, with its duration parameters.
///
/// Durations are spans from the event's start time; the engine computes the
/// recovery instant when the event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Node loses power: its job is killed, telemetry goes dark, the DVFS
    /// actuator is dead. After `reboot` elapses the node rejoins.
    Crash {
        /// Time from crash to the node reporting back up.
        reboot: SimDuration,
    },
    /// Node keeps running its job and reporting telemetry, but the DVFS
    /// actuator is frozen: every `set_level` command fails until the hang
    /// clears.
    Hang {
        /// Span during which actuation fails.
        duration: SimDuration,
    },
    /// The profiling agent stops reporting (node up, job running, actuator
    /// live). The collector's view of this node goes stale.
    AgentSilence {
        /// Span during which no samples arrive.
        duration: SimDuration,
    },
    /// A management-network partition isolates an aggregation subtree:
    /// `width` consecutive nodes starting at the event's node go
    /// telemetry-dark at once. Nodes keep running and accept commands
    /// (commands ride the job-launch fabric in the paper's deployment).
    SubtreePartition {
        /// Number of consecutive nodes (the subtree fan-in) cut off.
        width: u32,
        /// Span of the partition.
        duration: SimDuration,
    },
}

/// A single scheduled fault: at `at`, `kind` strikes `node`.
///
/// For [`FaultKind::SubtreePartition`], `node` is the first node of the
/// partitioned subtree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulation instant the fault strikes.
    pub at: SimTime,
    /// Target node (subtree head for partitions).
    pub node: NodeId,
    /// Fault class and duration.
    pub kind: FaultKind,
}

/// Per-class fault rates for generated schedules.
///
/// Rates are expressed the way operators quote them: events per node-hour
/// (cluster-hour for partitions). Durations are exponentially distributed
/// around the configured means, floored at one second so every fault is
/// observable at the 1 s tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Crashes per node-hour.
    pub crash_per_node_hour: f64,
    /// Mean reboot time after a crash, seconds.
    pub reboot_mean_secs: f64,
    /// Hangs per node-hour.
    pub hang_per_node_hour: f64,
    /// Mean hang span, seconds.
    pub hang_mean_secs: f64,
    /// Agent-silence windows per node-hour.
    pub silence_per_node_hour: f64,
    /// Mean silence span, seconds.
    pub silence_mean_secs: f64,
    /// Subtree partitions per cluster-hour.
    pub partition_per_hour: f64,
    /// Mean partition span, seconds.
    pub partition_mean_secs: f64,
    /// Subtree width used for generated partitions (management-ethernet
    /// fan-in in the paper's tree is 16).
    pub partition_width: u32,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            crash_per_node_hour: 0.0,
            reboot_mean_secs: 120.0,
            hang_per_node_hour: 0.0,
            hang_mean_secs: 60.0,
            silence_per_node_hour: 0.0,
            silence_mean_secs: 30.0,
            partition_per_hour: 0.0,
            partition_mean_secs: 45.0,
            partition_width: 16,
        }
    }
}

impl FaultRates {
    /// Convenience: a crash-only rate set (`rate` crashes per node-hour).
    pub fn crashes(rate: f64) -> Self {
        FaultRates {
            crash_per_node_hour: rate,
            ..FaultRates::default()
        }
    }
}

/// A complete, sorted fault schedule.
///
/// The schedule is plain data — `(seed, rates)` expand to the same event
/// list on every platform — and serializes
/// losslessly, so a failing run's schedule can be committed as a regression
/// fixture.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Builds a schedule from explicit events, sorting by `(at, node)`.
    /// Ties keep their input order (stable sort).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.at, e.node));
        FaultSchedule { events }
    }

    /// Generates a schedule from per-class rates over `[0, horizon)`.
    ///
    /// Each (class, node) pair draws from its own named RNG stream of
    /// `factory`, so the events scheduled for node `k` do not depend on the
    /// cluster size and adding a class never perturbs another class's draws.
    /// Inter-arrival times and durations are exponential.
    pub fn generate(
        rates: &FaultRates,
        node_count: u32,
        horizon: SimDuration,
        factory: &RngFactory,
    ) -> Self {
        let horizon_secs = horizon.as_secs_f64();
        let mut events = Vec::new();

        let per_node = |label: &str,
                        per_hour: f64,
                        mean_secs: f64,
                        f: &mut dyn FnMut(SimTime, NodeId, SimDuration)| {
            if per_hour <= 0.0 {
                return;
            }
            let mean_gap_secs = 3_600.0 / per_hour;
            for node in 0..node_count {
                let mut rng = factory.stream(label, u64::from(node));
                let mut t = rng.exponential(mean_gap_secs);
                while t < horizon_secs {
                    let span = SimDuration::from_secs_f64(rng.exponential(mean_secs).max(1.0));
                    f(
                        SimTime::ZERO + SimDuration::from_secs_f64(t),
                        NodeId(node),
                        span,
                    );
                    t += rng.exponential(mean_gap_secs);
                }
            }
        };

        per_node(
            "fault.crash",
            rates.crash_per_node_hour,
            rates.reboot_mean_secs,
            &mut |at, node, reboot| {
                events.push(FaultEvent {
                    at,
                    node,
                    kind: FaultKind::Crash { reboot },
                })
            },
        );
        per_node(
            "fault.hang",
            rates.hang_per_node_hour,
            rates.hang_mean_secs,
            &mut |at, node, duration| {
                events.push(FaultEvent {
                    at,
                    node,
                    kind: FaultKind::Hang { duration },
                })
            },
        );
        per_node(
            "fault.silence",
            rates.silence_per_node_hour,
            rates.silence_mean_secs,
            &mut |at, node, duration| {
                events.push(FaultEvent {
                    at,
                    node,
                    kind: FaultKind::AgentSilence { duration },
                })
            },
        );

        if rates.partition_per_hour > 0.0 && rates.partition_width > 0 {
            let width = rates.partition_width.min(node_count.max(1));
            let subtrees = u64::from(node_count.div_ceil(width)).max(1);
            let mean_gap_secs = 3_600.0 / rates.partition_per_hour;
            let mut rng = factory.stream("fault.partition", 0);
            let mut t = rng.exponential(mean_gap_secs);
            while t < horizon_secs {
                let head = NodeId(rng.below(subtrees) as u32 * width);
                // The tail subtree may be narrower than `width` when the
                // node count is not a multiple of it.
                let width = width.min(node_count - head.0);
                let span =
                    SimDuration::from_secs_f64(rng.exponential(rates.partition_mean_secs).max(1.0));
                events.push(FaultEvent {
                    at: SimTime::ZERO + SimDuration::from_secs_f64(t),
                    node: head,
                    kind: FaultKind::SubtreePartition {
                        width,
                        duration: span,
                    },
                });
                t += rng.exponential(mean_gap_secs);
            }
        }

        FaultSchedule::new(events)
    }

    /// The events, sorted by `(at, node)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event targets a node inside `[0, node_count)`
    /// (partitions: the whole `[node, node + width)` range) and has a
    /// positive duration.
    pub fn validate(&self, node_count: u32) -> Result<(), String> {
        for e in &self.events {
            let (last, span) = match e.kind {
                FaultKind::Crash { reboot } => (e.node.0, reboot),
                FaultKind::Hang { duration } => (e.node.0, duration),
                FaultKind::AgentSilence { duration } => (e.node.0, duration),
                FaultKind::SubtreePartition { width, duration } => {
                    if width == 0 {
                        return Err(format!("partition at {:?} has zero width", e.at));
                    }
                    (e.node.0 + width - 1, duration)
                }
            };
            if last >= node_count {
                return Err(format!(
                    "fault at {:?} targets node {} but cluster has {} nodes",
                    e.at, last, node_count
                ));
            }
            if span.is_zero() {
                return Err(format!(
                    "fault at {:?} on node {} has zero duration",
                    e.at, e.node.0
                ));
            }
        }
        Ok(())
    }
}

/// A fault plan plus the robustness knobs the cluster layer applies while
/// executing it. This is what an experiment config embeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjection {
    /// The fault schedule to replay.
    pub schedule: FaultSchedule,
    /// How many times a job may be requeued after losing a node before it
    /// is recorded as failed and dropped.
    pub requeue_cap: u32,
    /// A collector sample older than this is treated as stale: the node is
    /// excluded from capping selection until fresh telemetry returns.
    pub staleness_limit: SimDuration,
}

impl FaultInjection {
    /// Wraps a schedule with the default robustness knobs
    /// (requeue cap 3, staleness limit 5 s).
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultInjection {
            schedule,
            requeue_cap: 3,
            staleness_limit: SimDuration::from_secs(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let rates = FaultRates {
            crash_per_node_hour: 0.5,
            hang_per_node_hour: 0.3,
            silence_per_node_hour: 1.0,
            partition_per_hour: 2.0,
            partition_width: 4,
            ..FaultRates::default()
        };
        let a =
            FaultSchedule::generate(&rates, 16, SimDuration::from_hours(2), &RngFactory::new(7));
        let b =
            FaultSchedule::generate(&rates, 16, SimDuration::from_hours(2), &RngFactory::new(7));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a
            .events()
            .windows(2)
            .all(|w| (w[0].at, w[0].node) <= (w[1].at, w[1].node)));
        a.validate(16).expect("generated schedule is in range");

        let c =
            FaultSchedule::generate(&rates, 16, SimDuration::from_hours(2), &RngFactory::new(8));
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn generated_partitions_fit_clusters_of_any_size() {
        // The tail subtree is narrower when the node count is not a
        // multiple of the partition width; the generator must clamp it.
        let rates = FaultRates {
            partition_per_hour: 20.0,
            partition_width: 4,
            ..FaultRates::default()
        };
        for nodes in [2u32, 3, 5, 7, 9] {
            let s = FaultSchedule::generate(
                &rates,
                nodes,
                SimDuration::from_hours(2),
                &RngFactory::new(11),
            );
            s.validate(nodes).expect("partitions clamp to the cluster");
        }
    }

    #[test]
    fn per_node_streams_are_stable_under_cluster_growth() {
        let rates = FaultRates::crashes(1.0);
        let small =
            FaultSchedule::generate(&rates, 4, SimDuration::from_hours(1), &RngFactory::new(3));
        let large =
            FaultSchedule::generate(&rates, 8, SimDuration::from_hours(1), &RngFactory::new(3));
        let small_only: Vec<_> = large
            .events()
            .iter()
            .filter(|e| e.node.0 < 4)
            .copied()
            .collect();
        assert_eq!(small.events(), small_only.as_slice());
    }

    #[test]
    fn validate_rejects_out_of_range_and_zero_span() {
        let s = FaultSchedule::new(vec![FaultEvent {
            at: SimTime::from_secs(1),
            node: NodeId(5),
            kind: FaultKind::Crash {
                reboot: SimDuration::from_secs(10),
            },
        }]);
        assert!(s.validate(5).is_err());
        assert!(s.validate(6).is_ok());

        let p = FaultSchedule::new(vec![FaultEvent {
            at: SimTime::from_secs(1),
            node: NodeId(4),
            kind: FaultKind::SubtreePartition {
                width: 4,
                duration: SimDuration::from_secs(9),
            },
        }]);
        assert!(p.validate(7).is_err());
        assert!(p.validate(8).is_ok());

        let z = FaultSchedule::new(vec![FaultEvent {
            at: SimTime::from_secs(1),
            node: NodeId(0),
            kind: FaultKind::Hang {
                duration: SimDuration::ZERO,
            },
        }]);
        assert!(z.validate(4).is_err());
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let rates = FaultRates {
            crash_per_node_hour: 1.0,
            partition_per_hour: 1.0,
            ..FaultRates::default()
        };
        let s =
            FaultSchedule::generate(&rates, 8, SimDuration::from_hours(1), &RngFactory::new(11));
        let text = serde_json::to_string(&s).expect("serialize");
        let back: FaultSchedule = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(s, back);
    }
}
