//! The batched what-if query engine.
//!
//! [`WhatIfEngine`] holds one [`ClusterSnapshot`] and answers fleets of
//! [`WhatIfRequest`]s against it. Each request becomes an independent
//! branch-and-simulate run — [`ClusterSnapshot::branch`], apply the
//! hypothetical mutation, step the horizon, summarize — so a batch fans
//! out over scoped threads (`simkit::par`, one thread per core) with no
//! sharing between queries; a one-request batch runs on the calling
//! thread. Results are written into per-query slots and the engine's own
//! observability (a span per query, admitted/denied counters) is
//! recorded serially in request order after the fan-out joins, which
//! keeps the engine's span and metrics fingerprints identical at every
//! width.
//!
//! No wall-clock enters this module: answers are functions of simulated
//! time only, and the crate is lint-classified `Deterministic`. Latency
//! measurement belongs to the bench harness (`whatif_serve`).

use crate::query::{WhatIfAnswer, WhatIfQuery, WhatIfRequest};
use crate::snapshot::ClusterSnapshot;
use ppc_cluster::ClusterSim;
use ppc_core::PowerState;
use ppc_node::NodeId;
use ppc_obs::{AttrValue, CounterHandle, MetricsRegistry, SpanRecorder};
use ppc_simkit::series::Interp;
use ppc_simkit::WorkerPool;
use ppc_workload::JobId;

/// Completed query spans the engine retains for inspection/fingerprints.
const SPAN_CAPACITY: usize = 4096;

/// Batched what-if evaluation against one cluster snapshot.
pub struct WhatIfEngine {
    snapshot: ClusterSnapshot,
    spans: SpanRecorder,
    metrics: MetricsRegistry,
    queries_total: CounterHandle,
    queries_admitted: CounterHandle,
    queries_denied: CounterHandle,
}

impl WhatIfEngine {
    /// An engine answering queries against `snapshot`.
    pub fn new(snapshot: ClusterSnapshot) -> Self {
        let mut metrics = MetricsRegistry::new();
        let queries_total = metrics.counter("whatif.queries_total");
        let queries_admitted = metrics.counter("whatif.queries_admitted");
        let queries_denied = metrics.counter("whatif.queries_denied");
        WhatIfEngine {
            snapshot,
            spans: SpanRecorder::new(SPAN_CAPACITY),
            metrics,
            queries_total,
            queries_admitted,
            queries_denied,
        }
    }

    /// The snapshot queries branch from.
    pub fn snapshot(&self) -> &ClusterSnapshot {
        &self.snapshot
    }

    /// Evaluates every request as an independent branch of the snapshot,
    /// fanned out at the machine's available parallelism, and returns the
    /// answers in request order. Answers and fingerprints do not depend
    /// on the width.
    pub fn run_batch(&mut self, requests: &[WhatIfRequest]) -> Vec<WhatIfAnswer> {
        self.run_batch_on(WorkerPool::available(), requests)
    }

    /// [`run_batch`](Self::run_batch) at an explicit fan-out width.
    fn run_batch_on(&mut self, pool: WorkerPool, requests: &[WhatIfRequest]) -> Vec<WhatIfAnswer> {
        let mut slots: Vec<Option<WhatIfAnswer>> = requests.iter().map(|_| None).collect();
        let snapshot = &self.snapshot;
        pool.for_each_mut(&mut slots, |i, slot| {
            *slot = Some(evaluate(snapshot.branch(), &requests[i]));
        });
        // Serial, request-ordered bookkeeping after the join: the span
        // stream and counters never see fan-out scheduling.
        let at = self.snapshot.now();
        let mut answers = Vec::with_capacity(slots.len());
        for slot in slots {
            // ppc-lint: allow(panic-path): for_each_mut runs the closure exactly once per slot, so every slot is filled
            let answer = slot.expect("every slot filled by the fan-out");
            self.spans.open("whatif.query", at);
            self.spans.attr("kind", AttrValue::Str(answer.query.kind()));
            self.spans
                .attr("horizon_ticks", AttrValue::U64(answer.horizon_ticks));
            self.spans
                .attr("admit", AttrValue::U64(u64::from(answer.admit)));
            self.spans
                .attr("peak_power_w", AttrValue::F64(answer.peak_power_w));
            self.spans
                .attr("alerts_opened", AttrValue::U64(answer.alerts_opened as u64));
            self.spans.close(at);
            self.metrics.inc(self.queries_total, 1);
            if answer.admit {
                self.metrics.inc(self.queries_admitted, 1);
            } else {
                self.metrics.inc(self.queries_denied, 1);
            }
            answers.push(answer);
        }
        answers
    }

    /// Order-sensitive digest of every query span recorded so far.
    pub fn span_fingerprint(&self) -> u64 {
        self.spans.fingerprint()
    }

    /// Digest of the engine's counters.
    pub fn metrics_fingerprint(&self) -> u64 {
        self.metrics.fingerprint()
    }
}

impl std::fmt::Debug for WhatIfEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WhatIfEngine")
            .field("snapshot", &self.snapshot)
            .finish_non_exhaustive()
    }
}

/// Runs one request on an owned branch: apply the mutation at the branch
/// boundary, project the horizon, summarize the projection.
pub fn evaluate(mut sim: ClusterSim, req: &WhatIfRequest) -> WhatIfAnswer {
    let branch_tick = sim.tick_index();
    let t0 = sim.now();
    let stats0 = sim.control_stats();
    let finished0 = sim.finished().len();
    let alert_events0 = sim.health().slo().events().len();

    let mut injected: Vec<JobId> = Vec::new();
    let deny_reason = apply(&mut sim, &req.query, &mut injected).err();

    for _ in 0..req.horizon_ticks {
        sim.step();
    }

    let provision_w = sim
        .provision_in_force_w()
        .unwrap_or_else(|| sim.spec().provision_w());
    let trace = sim.true_power().since(t0);
    let peak_power_w = trace.max().unwrap_or(0.0);
    let mean_power_w = trace.time_weighted_mean().unwrap_or(0.0);
    let overspend_w_s = trace.integrate_excess_above(provision_w, Interp::Step);

    let cycle_secs = sim.spec().tick.as_secs_f64();
    let mut yellow_secs = 0.0;
    let mut red_secs = 0.0;
    // The log is in time order: skip the base run's cycles by search.
    let log = sim.state_log();
    let after_t0 = log.partition_point(|&(at, _)| at <= t0);
    for (_, state) in &log[after_t0..] {
        match state {
            PowerState::Yellow => yellow_secs += cycle_secs,
            PowerState::Red => red_secs += cycle_secs,
            PowerState::Green => {}
        }
    }

    let records = &sim.finished()[finished0..];
    let performance = ppc_metrics::performance::performance(records);
    let jobs_finished = records.len();
    let jobs_pending = injected.iter().filter(|&&id| sim.job_is_queued(id)).count();
    let commands_applied = match (sim.control_stats(), stats0) {
        (Some(end), Some(start)) => end.commands_issued - start.commands_issued,
        _ => 0,
    };

    // Health impact: the branch carries the snapshot's health plane, so
    // edges appended past the branch point are the hypothetical's own.
    let slo = sim.health().slo();
    let alerts_opened = slo.events()[alert_events0..]
        .iter()
        .filter(|e| e.edge == ppc_obs::AlertEdge::Open)
        .count();
    let alerts_open_at_horizon = slo.open_alerts();

    let admit = deny_reason.is_none() && red_secs == 0.0 && jobs_pending == 0;
    WhatIfAnswer {
        query: req.query.clone(),
        branch_tick,
        horizon_ticks: req.horizon_ticks,
        admit,
        deny_reason,
        provision_w,
        peak_power_w,
        mean_power_w,
        overspend_w_s,
        yellow_secs,
        red_secs,
        performance,
        jobs_finished,
        jobs_pending,
        commands_applied,
        alerts_opened,
        alerts_open_at_horizon,
    }
}

/// Applies one hypothetical mutation at the branch boundary, recording
/// injected job ids; an `Err` is the query's deny reason.
fn apply(
    sim: &mut ClusterSim,
    query: &WhatIfQuery,
    injected: &mut Vec<JobId>,
) -> Result<(), String> {
    match query {
        WhatIfQuery::Baseline => Ok(()),
        WhatIfQuery::AdmitJobs { jobs } => {
            for spec in jobs {
                injected.push(sim.inject_job(spec.app, spec.class, spec.nprocs, spec.priority()));
            }
            Ok(())
        }
        WhatIfQuery::SetCap { provision_w } => sim
            .hierarchy_mut()
            .ok_or_else(|| "no power manager attached".to_string())?
            .reprovision(*provision_w)
            .map_err(|e| format!("reprovision rejected: {e}")),
        WhatIfQuery::DropNodes { count, rack } => {
            let victims = drop_victims(sim, *count, *rack)?;
            if victims.len() < *count as usize {
                return Err(format!(
                    "only {} droppable nodes (need {count})",
                    victims.len()
                ));
            }
            for n in victims {
                sim.decommission_node(n);
            }
            Ok(())
        }
        WhatIfQuery::SwapPolicy { policy } => {
            sim.hierarchy_mut()
                .ok_or_else(|| "no power manager attached".to_string())?
                .set_policy(*policy);
            Ok(())
        }
        WhatIfQuery::Compound { steps } => {
            for step in steps {
                apply(sim, step, injected)?;
            }
            Ok(())
        }
    }
}

/// Highest-id nodes eligible for decommissioning: up, and not statically
/// privileged (privileged nodes host uncontrollable services the what-if
/// cannot hypothetically remove). May return fewer than `count`. With
/// `rack`, candidates are restricted to that rack of the hierarchical
/// topology — the "lose *this* rack" question — and the query is a hard
/// error when no hierarchy is attached or the rack does not exist.
fn drop_victims(sim: &ClusterSim, count: u32, rack: Option<u32>) -> Result<Vec<NodeId>, String> {
    let range = match rack {
        None => 0..sim.columns().len() as u32,
        Some(r) => {
            let h = sim
                .hierarchy()
                .ok_or_else(|| "rack-scoped drop needs a hierarchical control plane".to_string())?;
            let topology = h.topology();
            if r as usize >= topology.racks() {
                return Err(format!(
                    "rack {r} out of range (topology has {} racks)",
                    topology.racks()
                ));
            }
            topology.rack_nodes(r as usize)
        }
    };
    let privileged = &sim.spec().privileged;
    let mut victims = Vec::with_capacity(count as usize);
    for i in range.rev() {
        if victims.len() == count as usize {
            break;
        }
        let n = NodeId(i);
        if sim.is_node_down(n) || privileged.contains(&n) {
            continue;
        }
        victims.push(n);
    }
    Ok(victims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JobSpec;
    use ppc_cluster::ClusterSpec;
    use ppc_core::{ManagerConfig, NodeSets, PolicyKind, PowerManager};
    use ppc_faults::{FaultInjection, FaultRates, FaultSchedule};
    use ppc_simkit::{RngFactory, SimDuration};
    use ppc_workload::{Class, NpbApp};

    /// A managed, faulted, tightly provisioned 8-node cluster snapshotted
    /// halfway through a 300 s run.
    fn faulted_snapshot() -> ClusterSnapshot {
        let mut spec = ClusterSpec::mini(8);
        spec.provision_fraction = 0.60;
        let rates = FaultRates {
            crash_per_node_hour: 12.0,
            reboot_mean_secs: 30.0,
            silence_per_node_hour: 8.0,
            ..FaultRates::default()
        };
        let schedule = FaultSchedule::generate(
            &rates,
            8,
            SimDuration::from_secs(300),
            &RngFactory::new(spec.seed),
        );
        let sets = NodeSets::new(spec.node_ids(), []);
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        let manager = PowerManager::new(config, sets).expect("valid config");
        let mut sim = ClusterSim::new(spec)
            .with_manager(manager)
            .with_faults(FaultInjection::new(schedule));
        sim.run_for(SimDuration::from_secs(150));
        ClusterSnapshot::capture(&sim)
    }

    /// The batch fan-out is width-invariant: answers and both engine
    /// fingerprints match one-request-at-a-time serving at width 1, at
    /// width 2, at a width larger than the batch, and at the default.
    #[test]
    fn engine_batches_are_pool_width_invariant() {
        let snapshot = faulted_snapshot();
        let provision_w = snapshot.base().spec().provision_w();
        let job = JobSpec {
            app: NpbApp::Lu,
            class: Class::B,
            nprocs: 16,
            critical: false,
        };
        let drop_two = WhatIfQuery::DropNodes {
            count: 2,
            rack: None,
        };
        let requests: Vec<WhatIfRequest> = [
            WhatIfQuery::Baseline,
            WhatIfQuery::AdmitJobs { jobs: vec![job] },
            drop_two.clone(),
            WhatIfQuery::SwapPolicy {
                policy: PolicyKind::Hri,
            },
            WhatIfQuery::Compound {
                steps: vec![
                    WhatIfQuery::SetCap {
                        provision_w: provision_w * 0.9,
                    },
                    drop_two,
                ],
            },
        ]
        .into_iter()
        .map(|q| WhatIfRequest::new(q, 40))
        .collect();

        let mut serial = WhatIfEngine::new(snapshot.clone());
        let expected: Vec<WhatIfAnswer> = requests
            .iter()
            .flat_map(|r| serial.run_batch_on(WorkerPool::new(1), std::slice::from_ref(r)))
            .collect();
        let widths = [Some(1), Some(2), Some(requests.len() + 1), None];
        for width in widths {
            let mut engine = WhatIfEngine::new(snapshot.clone());
            let answers = match width {
                Some(w) => engine.run_batch_on(WorkerPool::new(w), &requests),
                None => engine.run_batch(&requests),
            };
            assert_eq!(answers, expected, "answers diverged at width {width:?}");
            assert_eq!(engine.span_fingerprint(), serial.span_fingerprint());
            assert_eq!(engine.metrics_fingerprint(), serial.metrics_fingerprint());
        }
    }
}
