//! Per-node profiling agents.
//!
//! An agent snapshots its node's `/proc` counters every interval τ,
//! differentiates them against the previous snapshot to recover the
//! operating state, and evaluates Formula (1) to estimate power and the
//! saving one level down would bring (Algorithm 2's `P(x) − P'(x)`). It keeps
//! the last good estimate so a dropped or too-short interval degrades the
//! view gracefully instead of reporting garbage.

use crate::noise::NoiseModel;
use crate::sample::NodeSample;
use ppc_node::node::Node;
use ppc_node::procfs::ProcSnapshot;
use ppc_node::OperatingState;
use ppc_simkit::{DetRng, SimTime};

/// A profiling agent bound to one node.
#[derive(Debug, Clone)]
pub struct ProfilingAgent {
    prev_snapshot: Option<ProcSnapshot>,
    last_state: OperatingState,
    samples_taken: u64,
    /// The sensing-noise model with its RNG stream and dropout count;
    /// `None` for a perfect sensor ([`NoiseModel::NONE`]), which never
    /// draws or drops. Boxed so a noiseless agent, the one the
    /// simulator's incremental path samples, stays small.
    noisy: Option<Box<NoisySensor>>,
}

/// The parts of a [`ProfilingAgent`] only a noisy sensor uses.
#[derive(Debug, Clone)]
struct NoisySensor {
    noise: NoiseModel,
    rng: DetRng,
    samples_dropped: u64,
}

impl ProfilingAgent {
    /// Creates an agent with the given sensing-noise model and RNG stream
    /// (dropped unread under [`NoiseModel::NONE`], which never draws).
    pub fn new(noise: NoiseModel, rng: DetRng) -> Self {
        noise.validate();
        ProfilingAgent {
            prev_snapshot: None,
            last_state: OperatingState::IDLE,
            samples_taken: 0,
            noisy: (noise != NoiseModel::NONE).then(|| {
                Box::new(NoisySensor {
                    noise,
                    rng,
                    samples_dropped: 0,
                })
            }),
        }
    }

    /// Samples the node at time `now`: the sample, and the predicted
    /// one-level-down saving `P(x) − P'(x)` in watts, from the same
    /// Formula (1) evaluation of the sampled state (noise-free: sensing
    /// noise perturbs the power estimate only).
    ///
    /// Returns `None` when the sample is lost (failure injection). The
    /// first call only primes the snapshot and reports the node as idle —
    /// exactly what a counter-differencing agent can know after one read.
    pub fn sample(&mut self, node: &Node, now: SimTime) -> Option<(NodeSample, f64)> {
        let snap = ProcSnapshot::capture(node.proc_counters());
        let state = match self.prev_snapshot.replace(snap) {
            Some(prev) => snap.delta_since(&prev).unwrap_or(self.last_state),
            None => OperatingState::IDLE,
        };
        self.last_state = state;
        self.samples_taken += 1;

        // Power estimation from the *sampled* state (not the node's true
        // instantaneous state) — the estimate lags reality by one interval,
        // as on the real system.
        let (est, saving_w) = node.model().power_and_saving_w(node.level(), &state);
        let power_w = match self.noisy.as_deref_mut() {
            None => est,
            Some(sensor) => match sensor.noise.apply(est, &mut sensor.rng) {
                Some(power_w) => power_w,
                None => {
                    sensor.samples_dropped += 1;
                    return None;
                }
            },
        };
        let sample = NodeSample {
            node: node.id(),
            at: now,
            state,
            level: node.level(),
            power_w,
        };
        Some((sample, saving_w))
    }

    /// True once the agent holds a baseline snapshot to differentiate
    /// against (i.e. [`sample`](Self::sample) ran at least once).
    pub fn is_primed(&self) -> bool {
        self.prev_snapshot.is_some()
    }

    /// Fast-forwards the agent's baseline by `ticks` intervals of `dt_secs`
    /// during which the node ran in `state`, as if `ticks` samples had been
    /// taken (and their identical results discarded). Leaves the baseline
    /// and `last_state` exactly where `ticks` real samples of a quiescent
    /// node would. Draws no noise — only valid under a noise model that
    /// never consumes RNG (`NoiseModel::NONE`).
    pub fn advance_baseline(&mut self, state: &OperatingState, dt_secs: f64, ticks: u64) {
        if let Some(prev) = self.prev_snapshot.filter(|_| ticks > 0) {
            // Each skipped sample would have recovered the same one-tick
            // delta.
            let one = prev.advanced(state, dt_secs, 1);
            self.last_state = one.delta_since(&prev).unwrap_or(self.last_state);
        }
        self.advance_baseline_before_sample(state, dt_secs, ticks);
    }

    /// [`advance_baseline`](Self::advance_baseline) for a caller that
    /// samples the node one interval later: the baseline and the sample
    /// count move, `last_state` does not. That sample overwrites it; over
    /// an interval too short to hold a jiffy the sample falls back to it
    /// instead, and then the one-tick delta `advance_baseline` would have
    /// taken is empty too and leaves it unchanged.
    pub fn advance_baseline_before_sample(
        &mut self,
        state: &OperatingState,
        dt_secs: f64,
        ticks: u64,
    ) {
        if ticks == 0 {
            return;
        }
        let prev = self
            .prev_snapshot
            // ppc-lint: allow(panic-path): documented caller contract — the sim checks is_primed() before advancing
            .expect("advance_baseline requires a primed agent");
        self.prev_snapshot = Some(prev.advanced(state, dt_secs, ticks));
        self.samples_taken += ticks;
    }

    /// `(taken, dropped)` counters for diagnostics.
    pub fn stats(&self) -> (u64, u64) {
        let dropped = self.noisy.as_ref().map_or(0, |s| s.samples_dropped);
        (self.samples_taken, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_node::spec::NodeSpec;
    use ppc_node::NodeId;
    use ppc_simkit::RngFactory;
    use std::sync::Arc;

    fn node() -> Node {
        let spec = Arc::new(NodeSpec::tianhe_1a());
        let model = spec.power_model(1.0);
        Node::new(NodeId(3), spec, model)
    }

    fn agent(noise: NoiseModel) -> ProfilingAgent {
        ProfilingAgent::new(noise, RngFactory::new(5).stream("agent-test", 0))
    }

    #[test]
    fn first_sample_primes_and_reports_idle() {
        let mut a = agent(NoiseModel::NONE);
        let n = node();
        let (s, _) = a.sample(&n, SimTime::ZERO).unwrap();
        assert!(s.is_idle());
        assert_eq!(s.node, NodeId(3));
    }

    #[test]
    fn second_sample_recovers_true_utilization() {
        let mut a = agent(NoiseModel::NONE);
        let mut n = node();
        a.sample(&n, SimTime::ZERO);
        let busy = OperatingState {
            cpu_util: 0.8,
            mem_used_bytes: 4 << 30,
            nic_bytes: 1_000_000,
        };
        n.run_interval(busy, 1.0);
        let (s, saving_w) = a.sample(&n, SimTime::from_secs(1)).unwrap();
        assert!((s.state.cpu_util - 0.8).abs() < 0.011);
        assert_eq!(s.state.mem_used_bytes, 4 << 30);
        assert_eq!(s.state.nic_bytes, 1_000_000);
        // The estimate and the saving equal the model evaluated on the
        // sampled state.
        let expect = n.model().power_w(n.level(), &s.state);
        assert_eq!(s.power_w, expect);
        let expect = n.model().saving_one_level_w(n.level(), &s.state);
        assert_eq!(saving_w.to_bits(), expect.to_bits());
    }

    #[test]
    fn dropped_samples_are_counted() {
        let mut a = agent(NoiseModel {
            relative_std: 0.0,
            dropout_prob: 1.0,
        });
        let n = node();
        assert!(a.sample(&n, SimTime::ZERO).is_none());
        assert_eq!(a.stats(), (1, 1));
    }

    #[test]
    fn resample_quiescent_matches_real_sample() {
        let busy = OperatingState {
            cpu_util: 0.63,
            mem_used_bytes: 2 << 30,
            nic_bytes: 40_000,
        };
        // Real path: node runs every tick, agent samples every tick.
        let mut real_agent = agent(NoiseModel::NONE);
        let mut real_node = node();
        real_agent.sample(&real_node, SimTime::ZERO);
        let mut real_last = None;
        for t in 1..=5u64 {
            real_node.run_interval(busy, 1.0);
            real_last = real_agent.sample(&real_node, SimTime::from_secs(t));
        }
        let (r, _) = real_last.unwrap();
        // Quiescent path: node materialized once at t=1 then left alone;
        // the agent fast-forwards its baseline to t=4, the node's counters
        // are caught up to t=5 in closed form, and a real read at t=5
        // matches the per-tick path bit for bit.
        let mut lazy_agent = agent(NoiseModel::NONE);
        let mut lazy_node = node();
        lazy_agent.sample(&lazy_node, SimTime::ZERO);
        lazy_node.run_interval(busy, 1.0);
        lazy_agent.advance_baseline(lazy_node.state(), 1.0, 4);
        lazy_node.catch_up(1.0, 4);
        assert_eq!(lazy_node.proc_counters(), real_node.proc_counters());
        let (s, _) = lazy_agent
            .sample(&lazy_node, SimTime::from_secs(5))
            .unwrap();
        assert_eq!(s.state, r.state);
        assert_eq!(s.power_w.to_bits(), r.power_w.to_bits());
        assert_eq!(s.at, r.at);
        assert_eq!(lazy_agent.stats(), real_agent.stats());
        lazy_node.run_interval(busy, 1.0);
        real_node.run_interval(busy, 1.0);
        let a = lazy_agent
            .sample(&lazy_node, SimTime::from_secs(6))
            .unwrap();
        let b = real_agent
            .sample(&real_node, SimTime::from_secs(6))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn too_short_interval_reuses_last_estimate() {
        let mut a = agent(NoiseModel::NONE);
        let mut n = node();
        a.sample(&n, SimTime::ZERO);
        let busy = OperatingState {
            cpu_util: 0.5,
            mem_used_bytes: 0,
            nic_bytes: 0,
        };
        n.run_interval(busy, 1.0);
        a.sample(&n, SimTime::from_secs(1));
        // No counter movement since the last snapshot: agent re-reports the
        // previous state instead of dividing by zero.
        let (s, _) = a.sample(&n, SimTime::from_secs(1)).unwrap();
        assert!((s.state.cpu_util - 0.5).abs() < 0.011);
    }
}
