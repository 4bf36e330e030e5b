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
//! Only a Yellow cycle's capping step reads the pieces (Algorithm 1 picks
//! `A_target` from them; Green and Red need no telemetry per job), so the
//! lazy regime splits their upkeep in two:
//!
//! * [`RackObs::note`] runs every tick and only records what changed. A
//!   job that started, finished, was evicted or moved in the run queue
//!   (`swap_remove` moves the tail job into the freed slot) has its pieces
//!   dropped from the racks it touches and a full refresh queued at its
//!   new slot; only the slots the scheduler reports as placement edges,
//!   and the tail between the old and new run-queue lengths, are compared.
//!   A sampled node queues a full refresh of its own job, and a settled
//!   node (sampled last cycle, its previous power now caught up with its
//!   unchanged latest sample) a refresh of the job-global previous power
//!   alone. Each slot keeps one queued refresh, the strongest asked for,
//!   across ticks until a flush; a slot the run queue shrinks away drops
//!   its refresh, and a slot whose job changed is queued in full.
//! * [`RackObs::flush`] runs queued refreshes on demand, after every rack
//!   is classified: those of the jobs whose rack span (first to last rack
//!   of their members) meets a rack whose capping step reads the pieces.
//!   The others stay queued. Refreshes are independent (each rewrites one
//!   job's pieces from the collector's current view), so running them
//!   late, merged, gives the pieces a refresh every tick would have given.
//!
//! So a rack's pieces are current whenever its capping step reads them;
//! in between they may lag. The job count
//! [`RackObs::jobs`] (the `observe` span reports it every tick) is exact
//! on every tick all the same: `note` keeps a flag per run-queue slot,
//! whether its job has an observable member, and only the nodes whose
//! observability can have changed touch it. A sampled or freshness-flipped
//! node is one check of its own observability; its job's members are
//! scanned only when the node went dark while the flag was set, the one
//! case where the flag can clear. A job placed in a slot is scanned once.
//!
//! Under faults the filter admits only candidates with fresh telemetry, and
//! a node whose freshness flipped is refreshed like a sampled one. The dense
//! regimes rebuild every rack each cycle through [`RackObs::rebuild`],
//! reusing the pieces' allocations.
//!
//! A job's members ascend (placement takes the lowest free ids in order),
//! so its members in one rack, and its observed nodes there, form one
//! contiguous run. Every write is therefore one pass: the job is observed
//! once (each node's saving read from the column its agent's samples
//! fill), and each rack's run of observed nodes is copied into that
//! rack's piece whole.

use ppc_core::observe::{
    is_observable, observe_job_into, observe_prev_power_w, JobObservation, NodeObservation,
};
use ppc_core::NodeMask;
use ppc_node::NodeId;
use ppc_telemetry::Collector;
use ppc_workload::{Job, JobId};

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
    /// The run queue at the last sync, and whether each slot's job has an
    /// observable member now (its pieces may lag until the next flush).
    runq: Vec<Placement>,
    observed: Vec<bool>,
    /// Per run-queue slot: the first and last rack its job's members live
    /// in, which bound every rack it touches.
    span: Vec<(u32, u32)>,
    /// Jobs with an observable member.
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
    /// Scratch: run-queue slots whose placement changed this sync, as a
    /// mask (all clear between syncs) and a list.
    changed: Vec<bool>,
    changed_list: Vec<u32>,
    /// Run-queue slots with a queued refresh, each queued once with the
    /// strongest refresh kind asked for since the last flush (`queued` is
    /// `QUEUED_NONE` for every slot not in `refresh`).
    refresh: Vec<u32>,
    queued: Vec<u8>,
    /// Scratch: how many of the racks before each rack read their pieces
    /// this cycle.
    reading: Vec<u32>,
}

/// What the observe stage reads: the collector's current view through a
/// candidate filter (the candidate set, or the fresh candidates under
/// faults), and per node the saving its agent predicted with its latest
/// sample.
#[derive(Clone, Copy)]
pub(super) struct Observer<'a> {
    pub collector: &'a Collector,
    pub filter: &'a NodeMask,
    pub saving_w: &'a [f64],
}

impl Observer<'_> {
    /// Builds `job`'s whole observation into `out`; false if it has no
    /// observable member.
    fn observe(&self, job: &Job, out: &mut JobObservation) -> bool {
        observe_job_into(
            self.collector,
            job.id(),
            job.nodes(),
            self.filter,
            self.saving_w,
            out,
        )
    }

    /// `job`'s previous power alone.
    fn prev_power_w(&self, job: &Job) -> Option<f64> {
        observe_prev_power_w(self.collector, job.nodes(), self.filter)
    }

    /// True if node `n` is observable now.
    fn observes(&self, n: NodeId) -> bool {
        is_observable(self.collector, self.filter, n)
    }

    /// True if some member of `job` is observable now.
    fn observes_any(&self, job: &Job) -> bool {
        job.nodes().iter().any(|&n| self.observes(n))
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
            span: Vec::new(),
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
            changed: Vec::new(),
            changed_list: Vec::new(),
            refresh: Vec::new(),
            queued: Vec::new(),
            reading: Vec::new(),
        }
    }

    fn rack_of(&self, node: NodeId) -> usize {
        (node.0 / self.nodes_per_rack) as usize
    }

    /// The first and last rack `job`'s members live in: those of its
    /// first and last member, as members ascend.
    fn span_of(&self, job: &Job) -> (u32, u32) {
        let rack = |n: Option<&NodeId>| n.map_or(0, |n| n.0 / self.nodes_per_rack);
        (rack(job.nodes().first()), rack(job.nodes().last()))
    }

    /// Every rack's pieces, indexed by rack: current after a
    /// [`RackObs::rebuild`], and for the racks a [`RackObs::flush`] was
    /// asked for.
    pub(super) fn racks(&self) -> &[Vec<JobObservation>] {
        &self.pieces
    }

    /// Running jobs with at least one observable node, exact after every
    /// [`RackObs::note`] or [`RackObs::rebuild`].
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
        self.prune_racks_of(members);
    }

    /// Marks the racks `members` live in for pruning at the next sync.
    fn prune_racks_of(&mut self, members: &[NodeId]) {
        for &n in members {
            let r = self.rack_of(n);
            if !self.prune_mark[r] {
                self.prune_mark[r] = true;
                self.prune.push(r as u32);
            }
        }
    }

    /// Rebuilds every rack from scratch: each running job is observed
    /// once, and each run of its observed nodes in one rack becomes that
    /// rack's next piece, in run-queue order.
    pub(super) fn rebuild(&mut self, running: &[Job], obs: &Observer<'_>) {
        debug_assert!(self.refresh.is_empty(), "the dense regime queues nothing");
        self.cursor.clear();
        self.cursor.resize(self.pieces.len(), 0);
        self.runq.clear();
        self.observed.clear();
        self.span.clear();
        self.jobs = 0;
        let nodes_per_rack = self.nodes_per_rack;
        for (slot, job) in running.iter().enumerate() {
            let observed = obs.observe(job, &mut self.job);
            self.runq.push(Placement::of(job));
            self.observed.push(observed);
            self.span.push(self.span_of(job));
            if !observed {
                continue;
            }
            self.jobs += 1;
            for (r, run) in rack_runs(&self.job.nodes, nodes_per_rack, |o| o.node) {
                let rack = &mut self.pieces[r];
                let w = self.cursor[r];
                if w == rack.len() {
                    rack.push(JobObservation {
                        id: job.id(),
                        nodes: self.spare.pop().unwrap_or_default(),
                        prev_power_w: None,
                    });
                    self.slots[r].push(slot as u32);
                } else {
                    rack[w].id = job.id();
                    self.slots[r][w] = slot as u32;
                }
                rack[w].prev_power_w = self.job.prev_power_w;
                rack[w].nodes.clear();
                rack[w].nodes.extend_from_slice(run);
                self.cursor[r] = w + 1;
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

    /// Records what changed since the last sync, without observing any
    /// job: drops the pieces of the jobs whose run-queue slot changed
    /// (among the `placed` slots and the run queue's grown or shrunk tail)
    /// and queues their full refresh, queues a full refresh of the jobs
    /// owning a `sampled` node and a previous-power refresh of those
    /// owning a `settled` one, and keeps [`RackObs::jobs`] exact. `slot_of`
    /// maps a node to its job's run-queue slot. [`RackObs::flush`] runs
    /// the queued refreshes.
    pub(super) fn note(
        &mut self,
        running: &[Job],
        placed: &[u32],
        sampled: impl IntoIterator<Item = NodeId>,
        settled: impl IntoIterator<Item = NodeId>,
        slot_of: impl Fn(NodeId) -> Option<usize>,
        obs: &Observer<'_>,
    ) {
        if self.queued.len() < running.len() {
            self.queued.resize(running.len(), QUEUED_NONE);
        }
        if self.stale {
            self.sync_run_queue(running, placed, obs);
        }
        for n in sampled {
            let Some(slot) = slot_of(n) else {
                continue;
            };
            self.queue_refresh(slot, QUEUED_FULL);
            // Only `n`'s observability can have moved the flag: it sets
            // the flag when observable, and can clear it only when it is
            // not, which a scan of the members then decides.
            let observed = if obs.observes(n) {
                true
            } else {
                self.observed[slot] && obs.observes_any(&running[slot])
            };
            self.set_observed(slot, observed);
        }
        for slot in settled.into_iter().filter_map(&slot_of) {
            self.queue_refresh(slot, QUEUED_PREV);
        }
    }

    /// Runs the queued refreshes of the jobs that may touch a rack `r`
    /// with `reads[r]` set (their rack span meets it), so that those
    /// racks' pieces are current; the other refreshes stay queued. Does
    /// nothing useful unless some rack reads, so the caller skips it then.
    pub(super) fn flush(&mut self, running: &[Job], obs: &Observer<'_>, reads: &[bool]) {
        // How many racks before each rack read: a span meets a reading
        // rack exactly when the count grows across it.
        self.reading.clear();
        self.reading.push(0);
        let mut n = 0;
        for &read in reads {
            n += u32::from(read);
            self.reading.push(n);
        }
        // Refreshes are independent (each rewrites one job's pieces at its
        // run-queue position), so their order does not matter.
        let mut kept = 0;
        for k in 0..self.refresh.len() {
            let slot = self.refresh[k] as usize;
            let (first, last) = self.span[slot];
            if self.reading[last as usize + 1] == self.reading[first as usize] {
                self.refresh[kept] = slot as u32;
                kept += 1;
                continue;
            }
            if self.queued[slot] == QUEUED_FULL {
                self.refresh_slot(slot, &running[slot], obs);
            } else {
                self.refresh_prev(slot, &running[slot], obs);
            }
            self.queued[slot] = QUEUED_NONE;
        }
        self.refresh.truncate(kept);
    }

    fn queue_refresh(&mut self, slot: usize, kind: u8) {
        if self.queued[slot] == QUEUED_NONE {
            self.refresh.push(slot as u32);
        }
        self.queued[slot] = self.queued[slot].max(kind);
    }

    fn set_observed(&mut self, slot: usize, observed: bool) {
        if observed != self.observed[slot] {
            self.observed[slot] = observed;
            if observed {
                self.jobs += 1;
            } else {
                self.jobs -= 1;
            }
        }
    }

    /// Diffs the run queue against the last sync, slot by slot among the
    /// `placed` slots and the tail between the old and new lengths (no
    /// other slot can have changed). Every slot whose placement changed is
    /// queued for a full refresh and scanned for an observable member (its
    /// job started or moved there), and the racks of its members are
    /// pruned along with those of departed jobs: pieces whose slot changed
    /// hands are dropped. Slots past the new length drop their queued
    /// refresh.
    fn sync_run_queue(&mut self, running: &[Job], placed: &[u32], obs: &Observer<'_>) {
        let old_len = self.runq.len();
        let new_len = running.len();
        let hi = old_len.max(new_len);
        if self.changed.len() < hi {
            self.changed.resize(hi, false);
        }
        let tail = old_len.min(new_len)..hi;
        let slots = placed.iter().map(|&s| s as usize).filter(|&s| s < hi);
        let mut dropped = false;
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
                self.prune_racks_of(job.nodes());
            } else if self.queued[i] != QUEUED_NONE {
                self.queued[i] = QUEUED_NONE;
                dropped = true;
            }
        }
        if dropped {
            self.refresh.retain(|&s| (s as usize) < new_len);
        }
        self.runq.truncate(new_len);
        self.observed.truncate(new_len);
        self.span.truncate(new_len);
        for job in &running[self.runq.len()..] {
            self.runq.push(Placement::of(job));
            self.observed.push(false);
            self.span.push((0, 0));
        }
        for &i in &self.changed_list {
            let i = i as usize;
            if i < new_len {
                let job = &running[i];
                self.runq[i] = Placement::of(job);
                self.observed[i] = obs.observes_any(job);
                self.jobs += usize::from(self.observed[i]);
                self.span[i] = self.span_of(job);
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
    /// rack lost its last one. Members ascend, so the racks come in order,
    /// each with one run of members and one (maybe empty) run of observed
    /// nodes, copied into the piece whole.
    fn refresh_slot(&mut self, slot: usize, job: &Job, obs: &Observer<'_>) {
        debug_assert!(
            job.nodes().windows(2).all(|w| w[0] < w[1]),
            "{}'s members ascend",
            job.id()
        );
        let observed = obs.observe(job, &mut self.job);
        debug_assert_eq!(observed, self.observed[slot], "note tracks observability");
        let nodes_per_rack = self.nodes_per_rack;
        let mut rest = &self.job.nodes[..];
        for (r, members) in rack_runs(job.nodes(), nodes_per_rack, |&n| n) {
            let last = members[members.len() - 1];
            let (run, tail) = rest.split_at(rest.partition_point(|o| o.node <= last));
            rest = tail;
            let (rack, slots) = (&mut self.pieces[r], &mut self.slots[r]);
            match slots.binary_search(&(slot as u32)) {
                Ok(k) if run.is_empty() => {
                    let mut nodes = rack.remove(k).nodes;
                    slots.remove(k);
                    nodes.clear();
                    self.spare.push(nodes);
                }
                Ok(k) => {
                    debug_assert_eq!(rack[k].id, job.id(), "a slot's piece belongs to its job");
                    let piece = &mut rack[k];
                    piece.prev_power_w = self.job.prev_power_w;
                    piece.nodes.clear();
                    piece.nodes.extend_from_slice(run);
                }
                Err(_) if run.is_empty() => {}
                Err(k) => {
                    let mut nodes = self.spare.pop().unwrap_or_default();
                    nodes.extend_from_slice(run);
                    let piece = JobObservation {
                        id: job.id(),
                        nodes,
                        prev_power_w: self.job.prev_power_w,
                    };
                    rack.insert(k, piece);
                    slots.insert(k, slot as u32);
                }
            }
        }
    }

    /// Rewrites the previous power of the job in run-queue `slot` in every
    /// piece it has, its node observations being unchanged.
    fn refresh_prev(&mut self, slot: usize, job: &Job, obs: &Observer<'_>) {
        if !self.observed[slot] {
            return;
        }
        let prev = obs.prev_power_w(job);
        let nodes_per_rack = self.nodes_per_rack;
        for (r, _) in rack_runs(job.nodes(), nodes_per_rack, |&n| n) {
            if let Ok(k) = self.slots[r].binary_search(&(slot as u32)) {
                self.pieces[r][k].prev_power_w = prev;
            }
        }
    }
}

/// Splits `items`, ascending by node id, into their runs of one rack
/// each, in rack order, with the rack: one division and one binary search
/// per run.
fn rack_runs<T>(
    mut items: &[T],
    nodes_per_rack: u32,
    id: impl Fn(&T) -> NodeId,
) -> impl Iterator<Item = (usize, &[T])> {
    std::iter::from_fn(move || {
        let rack = id(items.first()?).0 / nodes_per_rack;
        let end = (rack + 1).saturating_mul(nodes_per_rack);
        let (run, rest) = items.split_at(items.partition_point(|x| id(x).0 < end));
        items = rest;
        Some((rack as usize, run))
    })
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
    use ppc_core::observe::observe_jobs;
    use ppc_core::Topology;
    use ppc_core::{
        HierarchicalManager, ManagerConfig, NodeSets, PolicyKind, PowerManager, PowerState,
    };
    use ppc_faults::{FaultInjection, FaultRates, FaultSchedule};
    use ppc_simkit::{RngFactory, SimDuration};
    use ppc_workload::JobPriority;
    use std::collections::BTreeSet;

    const TICKS: u64 = 500;

    /// The reference the store must reproduce, once split by owning rack:
    /// one global observation list in run-queue order, built from the
    /// dense reference `twin` (its collector, and under faults its fresh
    /// mask), with every saving predicted afresh from its node's latest
    /// sample.
    fn oracle(twin: &ClusterSim) -> Vec<JobObservation> {
        let collector = &twin.collector;
        let savings: Vec<f64> = (0..twin.nodes.len())
            .map(|i| {
                let latest = collector.latest(NodeId(i as u32));
                latest.map_or(0.0, |s| {
                    twin.nodes[i].model().saving_one_level_w(s.level, &s.state)
                })
            })
            .collect();
        let jobs = twin
            .scheduler
            .running_jobs()
            .iter()
            .map(|j| (j.id(), j.nodes()));
        match (&twin.faults, &twin.hierarchy) {
            (Some(fs), _) => observe_jobs(collector, jobs, &fs.fresh, &savings),
            (None, Some(h)) => observe_jobs(collector, jobs, h.sets().candidate_mask(), &savings),
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

    /// The store's pieces after a test-only flush of its queued
    /// refreshes, run on a copy so the simulation keeps its own queue.
    fn flushed(sim: &ClusterSim) -> RackObs {
        let mut store = sim.rack_obs.clone();
        let hier = sim.hierarchy.as_ref().expect("managed scenarios only");
        let filter = match &sim.faults {
            Some(fs) => &fs.fresh,
            None => hier.sets().candidate_mask(),
        };
        let observer = Observer {
            collector: &sim.collector,
            filter,
            saving_w: &sim.saving_w,
        };
        let every_rack = vec![true; store.racks().len()];
        store.flush(sim.scheduler.running_jobs(), &observer, &every_rack);
        store
    }

    /// The racks whose capping step read their pieces in the last cycle:
    /// the Yellow ones with candidates.
    fn read_racks(sim: &ClusterSim) -> Vec<usize> {
        let hier = sim.hierarchy.as_ref().expect("managed scenarios only");
        let states = hier.last_rack_states().iter();
        states
            .zip(hier.subs())
            .enumerate()
            .filter(|(_, (&state, sub))| {
                state == PowerState::Yellow && sub.sets().candidate_count() > 0
            })
            .map(|(r, _)| r)
            .collect()
    }

    /// Checks that every node the collector holds a sample of has, in the
    /// saving column, bit for bit the prediction its latest sample gives;
    /// returns how many nodes that was.
    fn assert_savings_current(sim: &ClusterSim, label: &str) -> usize {
        let mut checked = 0;
        for (i, saving_w) in sim.saving_w.iter().enumerate() {
            let Some(latest) = sim.collector.latest(NodeId(i as u32)) else {
                continue;
            };
            let want = sim.nodes[i]
                .model()
                .saving_one_level_w(latest.level, &latest.state);
            assert_eq!(saving_w.to_bits(), want.to_bits(), "{label}: node {i}");
            checked += 1;
        }
        checked
    }

    /// Every tick, in both eval modes, with faults off and on, under the
    /// flat manager and a 4-rack hierarchy, and in a what-if branch cloned
    /// mid-run that drops a busy node, the saving column holds the
    /// prediction made with each node's latest sample.
    #[test]
    fn saving_column_matches_each_latest_sample() {
        for racks in [1u32, 4] {
            for mode in [EvalMode::Incremental, EvalMode::Full] {
                for faulted in [false, true] {
                    let label = format!("{racks} racks, {mode:?}, faulted {faulted}");
                    let mut sim = sim(mode, faulted, racks);
                    let mut branch: Option<ClusterSim> = None;
                    let (mut checked, mut branch_checked) = (0, 0);
                    for tick in 1..=200 {
                        if tick == 100 {
                            let mut b = sim.clone();
                            let busy = b.scheduler.running_jobs().first().map(|j| j.nodes()[0]);
                            assert!(b.decommission_node(busy.expect("a running job")));
                            branch = Some(b);
                        }
                        sim.step();
                        checked += assert_savings_current(&sim, &label);
                        if let Some(b) = branch.as_mut() {
                            b.step();
                            branch_checked += assert_savings_current(b, &label);
                        }
                    }
                    assert!(checked > 100 * 100, "{label}: {checked} checks");
                    assert!(branch_checked > 50 * 100, "{label}: {branch_checked}");
                }
            }
        }
    }

    /// Every tick, in both eval modes, with faults off and on, under the
    /// flat (one-rack) manager and a 4-rack hierarchy, the store's job
    /// count equals a global build's, and each rack's pieces equal the
    /// split of that build element for element whenever a capping step
    /// read them, and after a flush on every tick — through job starts
    /// and finishes, critical-job protect and release edges, and nodes
    /// decommissioned mid-run. The global build reads a Full twin stepped
    /// in lockstep, so the oracle shares no state with the regime under
    /// test; under faults the two fresh masks must agree too. The lazy
    /// regime must have left some pieces behind between reads, or the
    /// deferral went untested.
    #[test]
    fn store_matches_global_build_and_split_every_tick() {
        for racks in [1u32, 4] {
            for mode in [EvalMode::Incremental, EvalMode::Full] {
                for faulted in [false, true] {
                    let label = format!("{racks} racks, {mode:?}, faulted {faulted}");
                    let mut twin = sim(EvalMode::Full, faulted, racks);
                    let mut sim = sim(mode, faulted, racks);
                    let mut decommissioned = 0;
                    let (mut reads, mut multi_reads, mut lagging) = (0, 0, 0);
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
                                !sim.scheduler.is_node_down(n)
                                    && sim.scheduler.slot_of_node(n).is_none()
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
                        assert_eq!(
                            sim.rack_obs.jobs(),
                            global.len(),
                            "{label}: job count at tick {tick}"
                        );
                        let want = split(&global, 128 / racks, racks as usize);
                        let read = read_racks(&sim);
                        for &r in &read {
                            assert_eq!(
                                &sim.rack_obs.racks()[r],
                                &want[r],
                                "{label}: rack {r} read stale pieces at tick {tick}"
                            );
                        }
                        reads += read.len();
                        multi_reads += usize::from(read.len() > 1);
                        lagging += usize::from(sim.rack_obs.racks() != want.as_slice());
                        let flushed = flushed(&sim);
                        for (r, want) in want.iter().enumerate() {
                            assert_eq!(
                                &flushed.racks()[r],
                                want,
                                "{label}: rack {r} diverged after a flush at tick {tick}"
                            );
                        }
                    }
                    assert!(reads >= 20, "{label}: {reads} capping reads");
                    if racks > 1 {
                        assert!(multi_reads >= 5, "{label}: {multi_reads} multi-rack reads");
                    }
                    if mode == EvalMode::Incremental {
                        assert!(lagging > 0, "{label}: the pieces never lagged");
                    } else {
                        assert_eq!(lagging, 0, "{label}: a rebuild is always current");
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
