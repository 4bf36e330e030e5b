//! The observe stage's per-rack job-observation store.
//!
//! Each rack sub-manager reads a list of job-observation *pieces* (the
//! flat manager, a single-rack hierarchy, reads the store's one rack). A
//! piece is one running job's observed members inside that rack, in member
//! order, carrying the job-global previous power `P^{t−1}(J)`. A rack's
//! pieces are in run-queue order. That is exactly what building one global
//! observation list in run-queue order and splitting it by `rack_of` gives;
//! the test oracle below checks it tick by tick.
//!
//! The pieces stay in place across ticks, and each tick touches only what
//! changed:
//!
//! * a job that started, finished, was evicted or moved in the run queue
//!   (`swap_remove` moves the tail job into the freed slot) has its pieces
//!   dropped from the racks it touches and, while it still runs, rebuilt at
//!   its new position; only the slots the scheduler reports as placement
//!   edges, and the tail between the old and new run-queue lengths, are
//!   compared;
//! * a sampled node refreshes only its own job's pieces, and the
//!   job-global previous power is rewritten in every one of them;
//! * a settled node (sampled last cycle, its previous power now caught up
//!   with its unchanged latest sample) rewrites only that previous power;
//! * clean racks are not touched.
//!
//! Under faults the filter admits only candidates with fresh telemetry, and
//! a node whose freshness flipped is refreshed like a sampled one. The dense
//! regimes rebuild every rack each cycle through [`RackObs::rebuild`],
//! reusing the pieces' allocations.

use ppc_core::observe::{
    observe_job_into, observe_prev_power_w, CandidateFilter, JobObservation, NodeObservation,
};
use ppc_core::NodeObsCache;
use ppc_node::{NodeId, PowerModel};
use ppc_telemetry::Collector;
use ppc_workload::{Job, JobId};
use std::sync::Arc;

/// One run-queue slot as the store last saw it. The requeue count tells a
/// requeued job restarted in its old slot from the placement it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    id: JobId,
    requeues: u32,
}

impl Placement {
    fn of(job: &Job) -> Self {
        Placement {
            id: job.id(),
            requeues: job.requeues(),
        }
    }
}

/// Per-rack job-observation pieces, kept in place across ticks.
#[derive(Debug, Clone)]
pub(super) struct RackObs {
    /// Rack `r` holds nodes `[r·nodes_per_rack, (r+1)·nodes_per_rack)`.
    nodes_per_rack: u32,
    /// Per rack: the pieces, in run-queue order.
    pieces: Vec<Vec<JobObservation>>,
    /// Per rack, parallel to `pieces`: each piece's run-queue slot.
    slots: Vec<Vec<u32>>,
    /// The run queue at the last sync, and whether each slot's job has
    /// any piece.
    runq: Vec<Placement>,
    observed: Vec<bool>,
    /// Jobs with at least one piece.
    jobs: usize,
    /// A job started, finished or was evicted since the last sync.
    stale: bool,
    /// Racks that held a departed job, to prune at the next sync.
    prune: Vec<u32>,
    prune_mark: Vec<bool>,
    /// Node vectors of removed pieces, reused by new ones.
    spare: Vec<Vec<NodeObservation>>,
    /// Scratch: one whole-job observation.
    job: JobObservation,
    /// Scratch: per-rack write cursors of a rebuild.
    cursor: Vec<usize>,
    /// Scratch: the racks of the job being refreshed.
    job_racks: Vec<usize>,
    /// Scratch: run-queue slots whose placement changed this sync, as a
    /// mask (all clear between syncs) and a list.
    changed: Vec<bool>,
    changed_list: Vec<u32>,
    /// Scratch: run-queue slots to refresh this sync, each queued once
    /// with the strongest refresh kind asked for (`queued` is all
    /// `QUEUED_NONE` between syncs).
    refresh: Vec<u32>,
    queued: Vec<u8>,
}

/// What the observe stage reads: the collector's current view through a
/// candidate filter (the candidate set, or the fresh candidates under
/// faults), with the memo of per-node saving predictions.
pub(super) struct Observer<'a, C: ?Sized> {
    pub collector: &'a Collector,
    pub filter: &'a C,
    pub models: &'a [Arc<PowerModel>],
    pub cache: &'a mut NodeObsCache,
}

impl<C: CandidateFilter + ?Sized> Observer<'_, C> {
    /// Builds `job`'s whole observation into `out`; false if it has no
    /// observable member.
    fn observe(&mut self, job: &Job, out: &mut JobObservation) -> bool {
        let models = self.models;
        let model_of = |n: NodeId| &*models[n.0 as usize];
        observe_job_into(
            self.collector,
            job.id(),
            job.nodes(),
            self.filter,
            &model_of,
            self.cache,
            out,
        )
    }

    /// `job`'s previous power alone.
    fn prev_power_w(&self, job: &Job) -> Option<f64> {
        observe_prev_power_w(self.collector, job.nodes(), self.filter)
    }
}

/// Refresh kinds queued per run-queue slot, weakest first.
const QUEUED_NONE: u8 = 0;
const QUEUED_PREV: u8 = 1;
const QUEUED_FULL: u8 = 2;

impl RackObs {
    /// An empty store over `racks` racks of `nodes_per_rack` contiguous
    /// node ids each (the topology's shape).
    pub(super) fn new(nodes_per_rack: u32, racks: usize) -> Self {
        RackObs {
            nodes_per_rack,
            pieces: vec![Vec::new(); racks],
            slots: vec![Vec::new(); racks],
            runq: Vec::new(),
            observed: Vec::new(),
            jobs: 0,
            stale: true,
            prune: Vec::new(),
            prune_mark: vec![false; racks],
            spare: Vec::new(),
            job: JobObservation {
                id: JobId(0),
                nodes: Vec::new(),
                prev_power_w: None,
            },
            cursor: Vec::new(),
            job_racks: Vec::new(),
            changed: Vec::new(),
            changed_list: Vec::new(),
            refresh: Vec::new(),
            queued: Vec::new(),
        }
    }

    fn rack_of(&self, node: NodeId) -> usize {
        (node.0 / self.nodes_per_rack) as usize
    }

    /// Every rack's pieces, indexed by rack.
    pub(super) fn racks(&self) -> &[Vec<JobObservation>] {
        &self.pieces
    }

    /// Running jobs with at least one observed node.
    pub(super) fn jobs(&self) -> usize {
        self.jobs
    }

    /// A job started: the next sync places its pieces.
    pub(super) fn note_start(&mut self) {
        self.stale = true;
    }

    /// A job with these members left the run queue (finished or evicted):
    /// the next sync drops its pieces from their racks.
    pub(super) fn note_departure(&mut self, members: &[NodeId]) {
        self.stale = true;
        for &n in members {
            let r = self.rack_of(n);
            if !self.prune_mark[r] {
                self.prune_mark[r] = true;
                self.prune.push(r as u32);
            }
        }
    }

    /// Rebuilds every rack from scratch: each running job is observed
    /// once, and its nodes are appended to the pieces of their racks, in
    /// run-queue order.
    fn rebuild<C: CandidateFilter + ?Sized>(&mut self, running: &[Job], obs: &mut Observer<'_, C>) {
        self.cursor.clear();
        self.cursor.resize(self.pieces.len(), 0);
        self.runq.clear();
        self.observed.clear();
        self.jobs = 0;
        for (slot, job) in running.iter().enumerate() {
            let observed = obs.observe(job, &mut self.job);
            self.runq.push(Placement::of(job));
            self.observed.push(observed);
            if !observed {
                continue;
            }
            self.jobs += 1;
            for nob in &self.job.nodes {
                let r = self.rack_of(nob.node);
                let rack = &mut self.pieces[r];
                let w = self.cursor[r];
                // A job's nodes in one rack share one piece, even when
                // other racks' nodes come between them.
                if w == 0 || rack[w - 1].id != job.id() {
                    if w == rack.len() {
                        rack.push(JobObservation {
                            id: job.id(),
                            nodes: self.spare.pop().unwrap_or_default(),
                            prev_power_w: self.job.prev_power_w,
                        });
                        self.slots[r].push(slot as u32);
                    } else {
                        rack[w].id = job.id();
                        rack[w].nodes.clear();
                        rack[w].prev_power_w = self.job.prev_power_w;
                        self.slots[r][w] = slot as u32;
                    }
                    self.cursor[r] = w + 1;
                }
                rack[self.cursor[r] - 1].nodes.push(*nob);
            }
        }
        for (r, &len) in self.cursor.iter().enumerate() {
            recycle_tail(&mut self.pieces[r], len, &mut self.spare);
            self.slots[r].truncate(len);
        }
        for &r in &self.prune {
            self.prune_mark[r as usize] = false;
        }
        self.prune.clear();
        self.stale = false;
    }

    /// Brings the pieces up to date: incrementally ([`RackObs::update`]) in
    /// the lazy regime, by a full [`RackObs::rebuild`] otherwise.
    /// `placed` lists the run-queue slots whose job changed since the last
    /// sync ([`ppc_workload::Scheduler::placement_edges`]).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn sync<C: CandidateFilter + ?Sized>(
        &mut self,
        lazy: bool,
        running: &[Job],
        placed: &[u32],
        sampled: impl IntoIterator<Item = NodeId>,
        settled: impl IntoIterator<Item = NodeId>,
        slot_of: impl Fn(NodeId) -> Option<usize>,
        obs: &mut Observer<'_, C>,
    ) {
        if lazy {
            self.update(running, placed, sampled, settled, slot_of, obs);
        } else {
            self.rebuild(running, obs);
        }
    }

    /// Brings the pieces up to date incrementally: drops and re-places the
    /// jobs whose run-queue slot changed since the last sync (among the
    /// `placed` slots and the run queue's grown or shrunk tail), refreshes
    /// the jobs owning a `sampled` node, and rewrites the previous power of
    /// the jobs owning a `settled` one. `slot_of` maps a node to its job's
    /// run-queue slot.
    fn update<C: CandidateFilter + ?Sized>(
        &mut self,
        running: &[Job],
        placed: &[u32],
        sampled: impl IntoIterator<Item = NodeId>,
        settled: impl IntoIterator<Item = NodeId>,
        slot_of: impl Fn(NodeId) -> Option<usize>,
        obs: &mut Observer<'_, C>,
    ) {
        if self.queued.len() < running.len() {
            self.queued.resize(running.len(), QUEUED_NONE);
        }
        if self.stale {
            self.sync_run_queue(running, placed);
        }
        for slot in sampled.into_iter().filter_map(&slot_of) {
            self.queue_refresh(slot, QUEUED_FULL);
        }
        for slot in settled.into_iter().filter_map(&slot_of) {
            self.queue_refresh(slot, QUEUED_PREV);
        }
        // Refreshes are independent (each rewrites one job's pieces at its
        // run-queue position), so their order does not matter.
        for k in 0..self.refresh.len() {
            let slot = self.refresh[k] as usize;
            if self.queued[slot] == QUEUED_FULL {
                self.refresh_slot(slot, &running[slot], obs);
            } else {
                self.refresh_prev(slot, &running[slot], obs);
            }
            self.queued[slot] = QUEUED_NONE;
        }
        self.refresh.clear();
    }

    fn queue_refresh(&mut self, slot: usize, kind: u8) {
        if self.queued[slot] == QUEUED_NONE {
            self.refresh.push(slot as u32);
        }
        self.queued[slot] = self.queued[slot].max(kind);
    }

    /// Diffs the run queue against the last sync, slot by slot among the
    /// `placed` slots and the tail between the old and new lengths (no
    /// other slot can have changed). Every slot whose placement changed is
    /// queued for refresh (its job started or moved there), and the racks
    /// of its members are pruned along with those of departed jobs: pieces
    /// whose slot changed hands are dropped.
    fn sync_run_queue(&mut self, running: &[Job], placed: &[u32]) {
        let nodes_per_rack = self.nodes_per_rack;
        let old_len = self.runq.len();
        let new_len = running.len();
        let hi = old_len.max(new_len);
        if self.changed.len() < hi {
            self.changed.resize(hi, false);
        }
        let tail = old_len.min(new_len)..hi;
        let slots = placed.iter().map(|&s| s as usize).filter(|&s| s < hi);
        for i in slots.chain(tail) {
            let now = running.get(i).map(Placement::of);
            if self.changed[i] || self.runq.get(i).copied() == now {
                continue;
            }
            self.changed[i] = true;
            self.changed_list.push(i as u32);
            if i < old_len && self.observed[i] {
                self.jobs -= 1;
            }
            if let Some(job) = running.get(i) {
                self.queue_refresh(i, QUEUED_FULL);
                for &n in job.nodes() {
                    let r = (n.0 / nodes_per_rack) as usize;
                    if !self.prune_mark[r] {
                        self.prune_mark[r] = true;
                        self.prune.push(r as u32);
                    }
                }
            }
        }
        self.runq.truncate(new_len);
        self.observed.truncate(new_len);
        for job in &running[self.runq.len()..] {
            self.runq.push(Placement::of(job));
            self.observed.push(false);
        }
        for &i in &self.changed_list {
            let i = i as usize;
            if i < old_len.min(new_len) {
                self.runq[i] = Placement::of(&running[i]);
                self.observed[i] = false;
            }
        }
        for k in 0..self.prune.len() {
            let r = self.prune[k] as usize;
            self.prune_mark[r] = false;
            let (rack, slots) = (&mut self.pieces[r], &mut self.slots[r]);
            let mut w = 0;
            for j in 0..rack.len() {
                if !self.changed[slots[j] as usize] {
                    rack.swap(w, j);
                    slots.swap(w, j);
                    w += 1;
                }
            }
            recycle_tail(rack, w, &mut self.spare);
            slots.truncate(w);
        }
        self.prune.clear();
        for &i in &self.changed_list {
            self.changed[i as usize] = false;
        }
        self.changed_list.clear();
        self.stale = false;
    }

    /// Re-observes the job in run-queue `slot` and rewrites its piece in
    /// every rack it touches: updated in place, inserted at its run-queue
    /// position when the rack gained an observed member, dropped when the
    /// rack lost its last one.
    fn refresh_slot<C: CandidateFilter + ?Sized>(
        &mut self,
        slot: usize,
        job: &Job,
        obs: &mut Observer<'_, C>,
    ) {
        let observed = obs.observe(job, &mut self.job);
        if observed != self.observed[slot] {
            self.observed[slot] = observed;
            if observed {
                self.jobs += 1;
            } else {
                self.jobs -= 1;
            }
        }
        self.collect_job_racks(job);
        let nodes_per_rack = self.nodes_per_rack;
        let one_rack = self.job_racks.len() == 1;
        for &r in &self.job_racks {
            let in_rack = |n: NodeId| one_rack || (n.0 / nodes_per_rack) as usize == r;
            let (rack, slots) = (&mut self.pieces[r], &mut self.slots[r]);
            match slots.binary_search(&(slot as u32)) {
                Ok(k) => {
                    debug_assert_eq!(rack[k].id, job.id(), "a slot's piece belongs to its job");
                    if !self.job.write_piece(in_rack, &mut rack[k]) {
                        let piece = rack.remove(k);
                        slots.remove(k);
                        self.spare.push(piece.nodes);
                    }
                }
                Err(k) => {
                    let mut piece = JobObservation {
                        id: job.id(),
                        nodes: self.spare.pop().unwrap_or_default(),
                        prev_power_w: None,
                    };
                    if self.job.write_piece(in_rack, &mut piece) {
                        rack.insert(k, piece);
                        slots.insert(k, slot as u32);
                    } else {
                        self.spare.push(piece.nodes);
                    }
                }
            }
        }
    }

    /// Rewrites the previous power of the job in run-queue `slot` in every
    /// piece it has, its node observations being unchanged.
    fn refresh_prev<C: CandidateFilter + ?Sized>(
        &mut self,
        slot: usize,
        job: &Job,
        obs: &Observer<'_, C>,
    ) {
        if !self.observed[slot] {
            return;
        }
        let prev = obs.prev_power_w(job);
        self.collect_job_racks(job);
        for &r in &self.job_racks {
            if let Ok(k) = self.slots[r].binary_search(&(slot as u32)) {
                self.pieces[r][k].prev_power_w = prev;
            }
        }
    }

    /// The racks `job`'s members live in, into `job_racks`.
    fn collect_job_racks(&mut self, job: &Job) {
        self.job_racks.clear();
        let mut last = usize::MAX;
        for &n in job.nodes() {
            let r = self.rack_of(n);
            if r != last && !self.job_racks.contains(&r) {
                self.job_racks.push(r);
            }
            last = r;
        }
    }
}

/// Truncates `rack` to `len` pieces, keeping the dropped pieces' node
/// vectors for reuse.
fn recycle_tail(rack: &mut Vec<JobObservation>, len: usize, spare: &mut Vec<Vec<NodeObservation>>) {
    for piece in rack.drain(len..) {
        let mut nodes = piece.nodes;
        nodes.clear();
        spare.push(nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::busy_spec;
    use super::super::{ClusterSim, EvalMode};
    use super::*;
    use ppc_core::observe::observe_jobs_cached;
    use ppc_core::Topology;
    use ppc_core::{HierarchicalManager, ManagerConfig, NodeSets, PolicyKind, PowerManager};
    use ppc_faults::{FaultInjection, FaultRates, FaultSchedule};
    use ppc_simkit::{RngFactory, SimDuration};
    use ppc_workload::JobPriority;
    use std::collections::BTreeSet;

    const TICKS: u64 = 500;

    /// The reference the store must reproduce, once split by owning rack:
    /// one global observation list in run-queue order, built from the
    /// dense reference `twin` (its collector, and under faults its fresh
    /// mask).
    fn oracle(twin: &ClusterSim) -> Vec<JobObservation> {
        let models = &twin.models;
        let model_of = |n: NodeId| &*models[n.0 as usize];
        let jobs = twin
            .scheduler
            .running_jobs()
            .iter()
            .map(|j| (j.id(), j.nodes()));
        let mut cache = NodeObsCache::new();
        let collector = &twin.collector;
        match (&twin.faults, &twin.hierarchy) {
            (Some(fs), _) => observe_jobs_cached(collector, jobs, &fs.fresh, &model_of, &mut cache),
            (None, Some(h)) => {
                observe_jobs_cached(collector, jobs, h.sets(), &model_of, &mut cache)
            }
            (None, None) => unreachable!("managed scenarios only"),
        }
    }

    /// Splits a global observation list by owning rack.
    fn split(
        global: &[JobObservation],
        nodes_per_rack: u32,
        racks: usize,
    ) -> Vec<Vec<JobObservation>> {
        let mut split = vec![Vec::<JobObservation>::new(); racks];
        for obs in global {
            for nob in &obs.nodes {
                let bucket = &mut split[(nob.node.0 / nodes_per_rack) as usize];
                if bucket.last().map(|o| o.id) != Some(obs.id) {
                    bucket.push(JobObservation {
                        id: obs.id,
                        nodes: Vec::new(),
                        prev_power_w: obs.prev_power_w,
                    });
                }
                bucket.last_mut().unwrap().nodes.push(*nob);
            }
        }
        split
    }

    fn sim(mode: EvalMode, faulted: bool, racks: u32) -> ClusterSim {
        let spec = busy_spec(TICKS);
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        let mut sim = ClusterSim::new(spec.clone()).with_eval_mode(mode);
        sim = if racks == 1 {
            let sets = NodeSets::new(spec.node_ids(), []);
            sim.with_manager(PowerManager::new(config, sets).unwrap())
        } else {
            let topology = Topology::new(128, 128 / racks, 2).unwrap();
            let h =
                HierarchicalManager::new(config, topology, &BTreeSet::new(), spec.node_weights_w())
                    .unwrap();
            sim.with_hierarchy(h)
        };
        if faulted {
            let rates = FaultRates {
                crash_per_node_hour: 2.0,
                reboot_mean_secs: 60.0,
                hang_per_node_hour: 3.0,
                silence_per_node_hour: 4.0,
                partition_per_hour: 8.0,
                partition_width: 8,
                ..FaultRates::default()
            };
            let schedule = FaultSchedule::generate(
                &rates,
                128,
                SimDuration::from_secs(TICKS),
                &RngFactory::new(3),
            );
            sim = sim.with_faults(FaultInjection::new(schedule));
        }
        sim
    }

    /// Every tick, in both eval modes, with faults off and on, under the
    /// flat (one-rack) manager and a 4-rack hierarchy, each rack's pieces
    /// equal the split of a global build element for element — through job
    /// starts and finishes, critical-job protect and release edges, and
    /// nodes decommissioned mid-run. The global build reads a Full twin
    /// stepped in lockstep, so the oracle shares no state with the regime
    /// under test; under faults the two fresh masks must agree too.
    #[test]
    fn store_matches_global_build_and_split_every_tick() {
        for racks in [1u32, 4] {
            for mode in [EvalMode::Incremental, EvalMode::Full] {
                for faulted in [false, true] {
                    let label = format!("{racks} racks, {mode:?}, faulted {faulted}");
                    let mut twin = sim(EvalMode::Full, faulted, racks);
                    let mut sim = sim(mode, faulted, racks);
                    let mut decommissioned = 0;
                    for tick in 1..=TICKS {
                        if tick % 150 == 0 {
                            // A node of the run queue's tail job (it is
                            // evicted, requeued at the queue head and
                            // restarts in the same run-queue slot when it
                            // fits) and an idle node, when there are.
                            let busy = sim
                                .scheduler
                                .running_jobs()
                                .last()
                                .map(|job| job.nodes()[0]);
                            let idle = (0..128).rev().map(NodeId).find(|&n| {
                                !sim.columns.is_down(n) && sim.scheduler.slot_of_node(n).is_none()
                            });
                            for n in busy.into_iter().chain(idle) {
                                decommissioned += usize::from(sim.decommission_node(n));
                                twin.decommission_node(n);
                            }
                        }
                        sim.step();
                        twin.step();
                        assert_eq!(
                            sim.fresh_candidates(),
                            twin.fresh_candidates(),
                            "{label}: fresh candidates diverged at tick {tick}"
                        );
                        let global = oracle(&twin);
                        assert_eq!(sim.rack_obs.jobs(), global.len(), "{label}: job count");
                        let want = split(&global, 128 / racks, racks as usize);
                        for (r, want) in want.iter().enumerate() {
                            assert_eq!(
                                &sim.rack_obs.racks()[r],
                                want,
                                "{label}: rack {r} diverged at tick {tick}"
                            );
                        }
                    }
                    assert!(decommissioned >= 4, "{label}: {decommissioned}");
                    assert!(sim.finished().len() > 100, "{label}");
                    assert!(
                        sim.finished()
                            .iter()
                            .any(|r| r.priority == JobPriority::Critical),
                        "{label}: no critical job finished"
                    );
                }
            }
        }
    }
}
