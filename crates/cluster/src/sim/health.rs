//! The `health` stage: the per-cycle instruments, the cycle's root span,
//! the red-entry flight trigger, and the fleet health plane's fold.

use super::*;

/// Handles to the deterministic instruments the cluster layer updates
/// (registered once in [`ClusterSim::new`], bumped on the hot path via
/// index access — no name lookups per tick).
#[derive(Clone, Copy)]
pub(super) struct ObsInstruments {
    /// Control cycles executed (manager or budget controller).
    cycles: CounterHandle,
    /// Throttling commands applied to nodes (includes retried sends).
    pub(super) commands_applied: CounterHandle,
    /// Commands whose first send failed (dead node or frozen actuator).
    /// Retries and give-ups do not recount.
    pub(super) commands_failed: CounterHandle,
    /// Retry sends attempted against previously frozen actuators.
    pub(super) actuation_retries: CounterHandle,
    /// Green/Yellow → Red transitions.
    red_entries: CounterHandle,
    /// Control cycles spent in the Red state (dwell time in cycles).
    red_dwell_cycles: CounterHandle,
    /// Per-cycle selection size |A_target| (commands issued).
    selection_size: HistogramHandle,
    /// Last metered facility power, W.
    metered_power_w: GaugeHandle,
    /// Journal events evicted by the bounded ring so far.
    journal_dropped: GaugeHandle,
    /// SLO alerts currently firing.
    health_alerts_open: GaugeHandle,
    /// SLO alert open/resolve edges emitted, cumulative.
    health_alert_edges: CounterHandle,
}

impl ObsInstruments {
    /// Bucket bounds for the selection-size histogram (commands/cycle).
    const SELECTION_BOUNDS: [f64; 8] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

    pub(super) fn register(m: &mut MetricsRegistry) -> Self {
        ObsInstruments {
            cycles: m.counter("control_cycles_total"),
            commands_applied: m.counter("commands_applied_total"),
            commands_failed: m.counter("commands_failed_total"),
            actuation_retries: m.counter("actuation_retries_total"),
            red_entries: m.counter("red_entries_total"),
            red_dwell_cycles: m.counter("red_dwell_cycles_total"),
            selection_size: m.histogram("selection_size", &Self::SELECTION_BOUNDS),
            metered_power_w: m.gauge("metered_power_w"),
            journal_dropped: m.gauge("journal_events_dropped"),
            health_alerts_open: m.gauge("health_alerts_open"),
            health_alert_edges: m.counter("health_alert_edges_total"),
        }
    }
}

/// Handles to the hierarchy-specific instruments, registered only when a
/// *multi-rack* hierarchical manager is attached. A single-rack hierarchy
/// is the flat architecture and keeps the flat registry: the metrics
/// fingerprint walks instrument names, and the flat fingerprints are
/// pinned golden values.
#[derive(Clone)]
pub(super) struct HierInstruments {
    /// Rack budgets moved by delegation passes, cumulative.
    pub(super) redelegations: CounterHandle,
    /// Rack budgets drained to zero (all nodes offline), cumulative.
    pub(super) budget_drains: CounterHandle,
    /// Racks classified Yellow on the last rolled-up cycle.
    racks_yellow: GaugeHandle,
    /// Racks classified Red on the last rolled-up cycle.
    racks_red: GaugeHandle,
    /// Delegated budget per rack, watts — first [`Self::MAX_RACK_GAUGES`]
    /// racks only (per-rack gauges at 100k-node scale would swamp the
    /// registry and its fingerprint walk).
    pub(super) rack_budget: Vec<GaugeHandle>,
}

impl HierInstruments {
    /// Per-rack budget gauges are capped; beyond this, aggregates only.
    const MAX_RACK_GAUGES: usize = 16;

    pub(super) fn register(m: &mut MetricsRegistry, racks: usize) -> Self {
        HierInstruments {
            redelegations: m.counter("hier_redelegations_total"),
            budget_drains: m.counter("hier_budget_drains_total"),
            racks_yellow: m.gauge("hier_racks_yellow"),
            racks_red: m.gauge("hier_racks_red"),
            rack_budget: (0..racks.min(Self::MAX_RACK_GAUGES))
                .map(|r| m.gauge(rack_gauge_name(r)))
                .collect(),
        }
    }
}

/// The registry holds `&'static str` names; the per-rack gauge names are
/// interned once per process (bounded by `MAX_RACK_GAUGES`), so repeated
/// sim construction never re-leaks.
fn rack_gauge_name(r: usize) -> &'static str {
    static NAMES: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    NAMES.get_or_init(|| {
        (0..HierInstruments::MAX_RACK_GAUGES)
            .map(|i| &*Box::leak(format!("hier_rack{i:02}_budget_w").into_boxed_str()))
            .collect()
    })[r]
}

impl ClusterSim {
    /// Closes the control cycle: per-cycle instruments, then the root span,
    /// then (possibly) the flight recorder — in that order so a red-entry
    /// snapshot captures this very cycle's spans and up-to-date registry —
    /// then the health fold, charged to `health` from `stage` on.
    pub(super) fn fold_health(
        &mut self,
        now: SimTime,
        tick: u64,
        decision: &Decision,
        red_entered: bool,
        stage: StageTimer,
    ) {
        let (outcome, metered_w) = (&decision.outcome, decision.metered_w);
        let state = outcome.state;
        let (i, metrics) = (self.obs_i, &mut self.obs.metrics);
        metrics.inc(i.cycles, 1);
        metrics.set(i.metered_power_w, metered_w);
        metrics.observe(i.selection_size, outcome.commands.len() as f64);
        if state == PowerState::Red {
            metrics.inc(i.red_dwell_cycles, 1);
        }
        if red_entered {
            metrics.inc(i.red_entries, 1);
        }
        metrics.set(i.journal_dropped, self.journal.dropped() as f64);
        if let (Some(h), Some(hi)) = (self.hierarchy.as_ref(), self.hier_i.as_ref()) {
            let racks_in = |s| h.last_rack_states().iter().filter(|&&r| r == s).count() as f64;
            metrics.set(hi.racks_yellow, racks_in(PowerState::Yellow));
            metrics.set(hi.racks_red, racks_in(PowerState::Red));
        }
        self.obs.spans.attr("state", AttrValue::Str(state.name()));
        self.obs.spans.close(now);
        if red_entered {
            self.obs
                .flight
                .trigger(now, "red-entry", &self.obs.spans, &self.obs.metrics);
        }

        // Fleet health plane: fold the cycle into the rollup tree, stage
        // sketches and SLO rules, after the root span closed so an
        // alert-triggered flight snapshot captures the complete cycle.
        // The fleet node-power sketch samples every NODE_SKETCH_PERIOD
        // ticks, keyed off the deterministic tick index. Actuation moved
        // only speeds and dirty marks, so the power column still holds
        // what the control cycle saw.
        if self.health.wants_node_sample(tick) {
            self.health.observe_node_power(self.columns.power_w());
        }
        let tree = self.hierarchy.as_ref().filter(|h| !h.is_single_rack());
        let facility_state = zone_state_of(state);
        let work = StageWork {
            samples: decision.samples,
            commands: outcome.commands.len() as u64,
            racks: tree.map_or(1, |h| h.topology().racks() as u64),
        };
        let base = match tree {
            Some(h) => {
                self.scratch_rack_zone.clear();
                self.scratch_rack_zone
                    .extend(h.last_rack_states().iter().map(|&s| zone_state_of(s)));
                let obs = CycleObservation {
                    rack_state: &self.scratch_rack_zone,
                    rack_power_w: &self.scratch_rack_true,
                    rack_budget_w: h.rack_budget_w(),
                    rack_coverage: &self.fanout.coverage,
                    facility_state,
                    facility_power_w: metered_w,
                    facility_budget_w: decision.facility_budget_w,
                    facility_coverage: decision.facility_coverage,
                };
                self.health.observe_cycle(now, &obs, &work)
            }
            None => {
                // One zone fed from the facility values only, whatever the
                // control plane.
                let obs = CycleObservation {
                    rack_state: &[facility_state],
                    rack_power_w: &[metered_w],
                    rack_budget_w: &[decision.facility_budget_w],
                    rack_coverage: &[decision.facility_coverage],
                    facility_state,
                    facility_power_w: metered_w,
                    facility_budget_w: decision.facility_budget_w,
                    facility_coverage: decision.facility_coverage,
                };
                self.health.observe_cycle(now, &obs, &work)
            }
        };
        self.publish_health_edges(now, base);
        self.obs.profile.stop("health", stage);
    }

    /// Journals every new SLO alert edge, bumps the alert instruments,
    /// and snapshots the flight recorder on each alert *opening* — the
    /// black box captures the cycle that breached the objective, not
    /// just Red entries.
    fn publish_health_edges(&mut self, now: SimTime, base: usize) {
        for i in base..self.health.alerts().len() {
            let ev = self.health.alerts()[i];
            let opened = ev.edge == ppc_obs::AlertEdge::Open;
            let severity = if opened {
                Severity::Warn
            } else {
                Severity::Info
            };
            self.journal.record_with(now, severity, "alert", || {
                format!(
                    "slo {} {} on {}: value {:.3} vs threshold {:.3}",
                    ev.rule,
                    if opened { "open" } else { "resolve" },
                    ev.zone.label(),
                    ev.value,
                    ev.threshold
                )
            });
            self.obs.metrics.inc(self.obs_i.health_alert_edges, 1);
            if opened {
                self.obs.flight.trigger(
                    now,
                    format!("slo:{}", ev.rule),
                    &self.obs.spans,
                    &self.obs.metrics,
                );
            }
        }
        self.obs.metrics.set(
            self.obs_i.health_alerts_open,
            self.health.slo().open_alerts() as f64,
        );
    }
}

/// Projects the controller's Green/Yellow/Red classification into the
/// health rollup's zone states.
fn zone_state_of(s: PowerState) -> ZoneState {
    match s {
        PowerState::Green => ZoneState::Green,
        PowerState::Yellow => ZoneState::Yellow,
        PowerState::Red => ZoneState::Red,
    }
}
