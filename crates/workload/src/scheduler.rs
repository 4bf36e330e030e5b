//! First-fit whole-node scheduler.
//!
//! Allocation is exclusive (one job per node) and first-fit on the
//! *lowest-numbered* free nodes, with FIFO head-of-line blocking. The
//! low-index packing matters for the paper's Figure 6: candidate sets that
//! grow from node 0 upward cover most of the running work long before they
//! cover the whole machine, which is why the capping effect saturates
//! around 48 of 128 nodes.

use crate::job::{is_throttled, Job, JobId, JobStatus, NodeLoad};
use crate::phase::rate_at;
use crate::queue::JobQueue;
use crate::scaling::nodes_needed;
use ppc_node::{NodeId, NodeMask};
use ppc_simkit::{SimDuration, SimTime};

/// How queued jobs are admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum AdmissionPolicy {
    /// Strict FIFO with head-of-line blocking (the paper's protocol).
    #[default]
    FifoFirstFit,
    /// Aggressive backfill: when the head does not fit, any later queued
    /// job that fits may start (no reservations). Raises utilization at
    /// the cost of possible head starvation — used as a substrate
    /// ablation for the Figure 6 saturation analysis.
    Backfill,
}

/// Writes every member's current load of `job` into the load column.
fn write_loads(loads: &mut [Option<NodeLoad>], job: &Job, cores_per_node: u32) {
    for (node, load) in job.member_loads(cores_per_node) {
        loads[node.0 as usize] = load;
    }
}

/// What [`Scheduler::advance`] reads of one run-queue slot's job to step
/// it inside its current phase: that phase's work and compute-boundness,
/// and the job's minimum member speed with the phase's rate at it.
#[derive(Debug, Clone, Copy)]
struct SlotPhase {
    /// The current phase's `work_secs`.
    work_secs: f64,
    /// The current phase's `alpha`.
    alpha: f64,
    /// The job's minimum member speed as of its last fold.
    min_speed: f64,
    /// The current phase's progress rate at `min_speed`.
    rate: f64,
    /// `min_speed` is below the top level.
    throttled: bool,
    /// `min_speed`, `rate` and `throttled` must be refolded: the job was
    /// just placed, or a member's speed changed since the fold.
    stale: bool,
}

impl SlotPhase {
    /// The record of `job`'s current phase, to be folded before use.
    fn of(job: &Job) -> Self {
        let mut slot = SlotPhase {
            work_secs: 0.0,
            alpha: 0.0,
            min_speed: 1.0,
            rate: 1.0,
            throttled: false,
            stale: true,
        };
        slot.enter_phase(job);
        slot
    }

    /// Reloads the phase fields after `job` moved to a new phase, with the
    /// rate at the unchanged minimum speed.
    fn enter_phase(&mut self, job: &Job) {
        if let Some(phase) = job.current_phase() {
            self.work_secs = phase.work_secs;
            self.alpha = phase.alpha;
            if !self.stale {
                self.rate = rate_at(self.alpha, self.min_speed);
            }
        }
    }

    /// The job's minimum member speed, refolded from `speed` first when
    /// stale.
    fn min_speed(&mut self, job: &Job, speed: &[f64]) -> f64 {
        if self.stale {
            self.min_speed = job.min_speed(speed);
            self.rate = rate_at(self.alpha, self.min_speed);
            self.throttled = is_throttled(self.min_speed);
            self.stale = false;
        }
        self.min_speed
    }
}

/// Whole-node first-fit scheduler and run-queue.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// Nodes in service and idle. First-fit walks the mask in ascending
    /// id, so a placement takes the lowest free ids.
    free: NodeMask,
    cores_per_node: u32,
    running: Vec<Job>,
    /// Dense node-indexed owner table: `node_owner[node]` is the index of
    /// the owning job in `running` (`None` = idle). Maintained across
    /// `swap_remove` on completion, so the per-node slot lookups
    /// (`slot_of_node`, `job_of_node`, eviction, speed-edge refolds) are
    /// one array read instead of a scan over the run-queue.
    node_owner: Vec<Option<usize>>,
    /// Dense node-indexed load column: `loads[node]` is what the owning
    /// job's [`Job::load_on`] returns for `node` (`None` = idle or down).
    /// A member's load moves only at three edges, each written here:
    /// `place` fills the placed job's members, a phase edge in `advance`
    /// rewrites the job's members, and `remove_slot` clears the freed
    /// ones. [`Scheduler::load_on`] is then one read.
    loads: Vec<Option<NodeLoad>>,
    /// Per run-queue slot, parallel to `running`: the current phase's
    /// work and `alpha`, the job's minimum member speed as of its last
    /// fold (stale when just placed or a member's speed changed since) and
    /// the phase's rate at it. A job that stays inside its phase advances
    /// from this record with one division; a phase crossing or a finish
    /// goes through [`Job::advance_at`] and reloads the phase fields. The
    /// job's own progress and throttled time are written every step.
    /// Follows `swap_remove`.
    slots: Vec<SlotPhase>,
    /// Run-queue slots whose job changed (a placement, or the job a
    /// `swap_remove` moved in) since the last
    /// [`clear_placement_edges`](Scheduler::clear_placement_edges), in
    /// first-change order, deduplicated by `slot_edge_mask`.
    slot_edges: Vec<u32>,
    slot_edge_mask: Vec<bool>,
    total_nodes: usize,
    admission: AdmissionPolicy,
    /// Nodes currently down (crashed, not yet rebooted), disjoint from
    /// `free`: down nodes are not allocatable, and conservation becomes
    /// `free + owned + down = total`.
    down: NodeMask,
}

impl Scheduler {
    /// Creates a scheduler managing the given nodes.
    ///
    /// # Panics
    /// Panics if `nodes` is empty or `cores_per_node == 0`.
    pub fn new(nodes: impl IntoIterator<Item = NodeId>, cores_per_node: u32) -> Self {
        assert!(cores_per_node > 0, "nodes must have cores");
        let free: NodeMask = nodes.into_iter().collect();
        assert!(!free.is_empty(), "scheduler needs at least one node");
        let total_nodes = free.len();
        let max_id = free.iter().last().map_or(0, |n| n.0 as usize);
        Scheduler {
            node_owner: vec![None; max_id + 1],
            loads: vec![None; max_id + 1],
            slots: Vec::new(),
            slot_edges: Vec::new(),
            slot_edge_mask: Vec::new(),
            free,
            cores_per_node,
            running: Vec::new(),
            total_nodes,
            admission: AdmissionPolicy::default(),
            down: NodeMask::default(),
        }
    }

    /// Selects the admission policy (builder style).
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// The active admission policy.
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    /// Cores per node (for rank placement).
    pub fn cores_per_node(&self) -> u32 {
        self.cores_per_node
    }

    /// Number of currently free nodes.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Number of nodes under management.
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Fraction of nodes currently allocated to jobs (down nodes are
    /// neither free nor utilized).
    pub fn utilization(&self) -> f64 {
        1.0 - (self.free.len() + self.down.len()) as f64 / self.total_nodes as f64
    }

    /// The currently running jobs.
    pub fn running_jobs(&self) -> &[Job] {
        &self.running
    }

    /// The job occupying `node`, if any.
    pub fn job_of_node(&self, node: NodeId) -> Option<JobId> {
        let idx = (*self.node_owner.get(node.0 as usize)?)?;
        Some(self.running[idx].id())
    }

    /// The run-queue index (into [`Scheduler::running_jobs`]) of the job
    /// occupying `node`, if any.
    pub fn slot_of_node(&self, node: NodeId) -> Option<usize> {
        *self.node_owner.get(node.0 as usize)?
    }

    /// Run-queue slots whose job changed since the last
    /// [`clear_placement_edges`](Scheduler::clear_placement_edges): every
    /// slot a placement filled, and every slot a finish or an eviction
    /// `swap_remove` refilled with the tail job. A slot can appear while
    /// out of range (the run queue shrank since); the tail that a shrink
    /// removed is not listed.
    pub fn placement_edges(&self) -> &[u32] {
        &self.slot_edges
    }

    /// Forgets the reported placement edges (their consumer has caught up).
    pub fn clear_placement_edges(&mut self) {
        for &slot in &self.slot_edges {
            self.slot_edge_mask[slot as usize] = false;
        }
        self.slot_edges.clear();
    }

    fn note_slot_edge(&mut self, slot: usize) {
        if self.slot_edge_mask.len() <= slot {
            self.slot_edge_mask.resize(slot + 1, false);
        }
        if !self.slot_edge_mask[slot] {
            self.slot_edge_mask[slot] = true;
            self.slot_edges.push(slot as u32);
        }
    }

    /// Takes the job in run-queue slot `idx` off the run queue: frees its
    /// nodes, moves the tail job (if any) into the slot and repoints that
    /// job's nodes and phase record.
    fn remove_slot(&mut self, idx: usize) -> Job {
        let job = self.running.swap_remove(idx);
        self.slots.swap_remove(idx);
        for &n in job.nodes() {
            self.free.insert(n);
            self.node_owner[n.0 as usize] = None;
            self.loads[n.0 as usize] = None;
        }
        if let Some(moved) = self.running.get(idx) {
            for &n in moved.nodes() {
                self.node_owner[n.0 as usize] = Some(idx);
            }
            self.note_slot_edge(idx);
        }
        job
    }

    /// Maximum NPROCS this cluster can host (whole machine).
    pub fn max_nprocs(&self) -> u32 {
        self.total_nodes as u32 * self.cores_per_node
    }

    /// Starts queued jobs according to the admission policy; returns the
    /// started job ids in start order.
    pub fn try_start(&mut self, queue: &mut JobQueue, now: SimTime) -> Vec<JobId> {
        let mut started = Vec::new();
        loop {
            // FIFO pass: take from the head while it fits.
            let mut progressed = false;
            while let Some(head) = queue.peek() {
                let needed = nodes_needed(head.nprocs(), self.cores_per_node) as usize;
                if needed > self.free.len() {
                    break;
                }
                // The peek above guarantees a queued job; an empty pop
                // would be a queue bug — stop placing rather than panic.
                let Some(job) = queue.pop() else { break };
                started.push(self.place(job, now));
                progressed = true;
            }
            if self.admission == AdmissionPolicy::FifoFirstFit {
                break; // head-of-line blocking, no backfill
            }
            // Backfill pass: the head does not fit; admit the first later
            // job that does, then retry the FIFO pass (the head may now be
            // reachable after future completions only — keep scanning).
            let fits = queue.iter().position(|j| {
                nodes_needed(j.nprocs(), self.cores_per_node) as usize <= self.free.len()
            });
            match fits {
                Some(idx) if idx > 0 => {
                    let job = queue.remove(idx);
                    started.push(self.place(job, now));
                    progressed = true;
                }
                _ => {}
            }
            if !progressed {
                break;
            }
        }
        started
    }

    /// Allocates the lowest free nodes to `job` and starts it.
    fn place(&mut self, mut job: Job, now: SimTime) -> JobId {
        let needed = nodes_needed(job.nprocs(), self.cores_per_node) as usize;
        debug_assert!(needed <= self.free.len());
        let alloc: Vec<NodeId> = self.free.iter().take(needed).collect();
        let slot = self.running.len();
        for &n in &alloc {
            self.free.remove(n);
            self.node_owner[n.0 as usize] = Some(slot);
        }
        job.start(alloc, now);
        write_loads(&mut self.loads, &job, self.cores_per_node);
        let id = job.id();
        self.slots.push(SlotPhase::of(&job));
        self.running.push(job);
        self.note_slot_edge(slot);
        id
    }

    /// Advances all running jobs by `dt_secs` at the minimum member speed
    /// read from `speed` (the relative-speed column, indexed by node id).
    /// `speed_edges` lists every node whose `speed` entry changed since the
    /// previous call (duplicates allowed): only their jobs, and jobs placed
    /// since, refold their minimum; every other job reuses its cached one.
    /// Jobs that complete are finished at their exact sub-step completion
    /// instant (`now` minus the unused step time), their nodes freed, and
    /// returned in finish order with their member lists intact.
    ///
    /// Phase edges are reported in the same pass: the members of every
    /// still-running job whose phase index moved during this advance are
    /// appended to `edges` (once per job, however many boundaries it
    /// crossed). Member loads are constant between such edges, which is
    /// what the simulator's dirty-set tracking keys on.
    pub fn advance(
        &mut self,
        dt_secs: f64,
        now: SimTime,
        speed: &[f64],
        speed_edges: &[u32],
        edges: &mut Vec<NodeId>,
    ) -> Vec<Job> {
        for &n in speed_edges {
            if let Some(&Some(slot)) = self.node_owner.get(n as usize) {
                self.slots[slot].stale = true;
            }
        }
        let mut finished = Vec::new();
        let mut i = 0;
        while i < self.running.len() {
            let job = &mut self.running[i];
            let slot = &mut self.slots[i];
            let min_speed = slot.min_speed(job, speed);
            debug_assert_eq!(
                min_speed.to_bits(),
                job.min_speed(speed).to_bits(),
                "cached minimum speed of {} is stale",
                job.id()
            );
            if job.advance_in_phase(dt_secs, slot.work_secs, slot.rate, slot.throttled) {
                i += 1;
                continue;
            }
            let phase_before = job.phase_index();
            let done = job.advance_at(dt_secs, min_speed);
            if let Some(unused_secs) = done {
                // The job swapped down from the tail (if any) now lives at
                // slot `i` and is advanced next.
                let mut job = self.remove_slot(i);
                let finish_at = now - SimDuration::from_secs_f64(unused_secs.min(dt_secs));
                job.finish(finish_at);
                finished.push(job);
            } else {
                if job.phase_index() != phase_before {
                    slot.enter_phase(job);
                    edges.extend_from_slice(job.nodes());
                    write_loads(&mut self.loads, job, self.cores_per_node);
                }
                i += 1;
            }
        }
        finished
    }

    /// Evicts the job occupying `node`, if any, returning it still in the
    /// `Running` state (the caller decides whether to requeue or fail it).
    /// SPMD jobs cannot survive member loss, so the *whole* job comes off
    /// the machine: all of its nodes are freed and the owner table is
    /// repointed across the `swap_remove`, exactly as on completion.
    pub fn evict_job_on(&mut self, node: NodeId) -> Option<Job> {
        let idx = (*self.node_owner.get(node.0 as usize)?)?;
        Some(self.remove_slot(idx))
    }

    /// Takes `node` out of service. The node must be idle — evict its job
    /// first — and not already down.
    ///
    /// # Panics
    /// Panics if the node still owns a job or is not managed by this
    /// scheduler.
    pub fn set_node_down(&mut self, node: NodeId) {
        assert!(
            self.node_owner
                .get(node.0 as usize)
                .copied()
                .flatten()
                .is_none(),
            "evict the job on {node} before marking it down"
        );
        if self.down.contains(node) {
            return;
        }
        assert!(self.free.remove(node), "{node} is not a managed free node");
        self.down.insert(node);
    }

    /// Returns a rebooted node to the free pool.
    pub fn set_node_up(&mut self, node: NodeId) {
        if self.down.remove(node) {
            self.free.insert(node);
        }
    }

    /// True if `node` is currently out of service.
    #[inline]
    pub fn is_node_down(&self, node: NodeId) -> bool {
        self.down.contains(node)
    }

    /// Number of nodes currently out of service.
    pub fn down_count(&self) -> usize {
        self.down.len()
    }

    /// The load `node` currently carries, or `None` if idle: one read of
    /// the load column.
    pub fn load_on(&self, node: NodeId) -> Option<NodeLoad> {
        let load = *self.loads.get(node.0 as usize)?;
        debug_assert_eq!(
            load,
            self.owner_load_on(node),
            "load column of {node} is stale"
        );
        load
    }

    /// The owning job's own answer for `node`'s load: the oracle the load
    /// column must always equal.
    fn owner_load_on(&self, node: NodeId) -> Option<NodeLoad> {
        let idx = self.slot_of_node(node)?;
        self.running[idx].load_on(node, self.cores_per_node)
    }

    /// Checks internal consistency (tests and debug assertions).
    pub fn check_invariants(&self) {
        assert_eq!(
            self.slots.len(),
            self.running.len(),
            "one phase record per slot"
        );
        // Every running job's nodes point back at its slot and are not free.
        for (slot, job) in self.running.iter().enumerate() {
            assert_eq!(job.status(), JobStatus::Running);
            // The slot's record holds the job's current phase, and its
            // folded rate and throttled flag follow from it.
            let record = &self.slots[slot];
            assert_eq!(
                job.current_phase()
                    .map(|p| (p.work_secs.to_bits(), p.alpha.to_bits())),
                Some((record.work_secs.to_bits(), record.alpha.to_bits())),
                "phase record of slot {slot} is stale"
            );
            if !record.stale {
                assert_eq!(
                    record.rate.to_bits(),
                    rate_at(record.alpha, record.min_speed).to_bits(),
                    "rate of slot {slot} is stale"
                );
                assert_eq!(record.throttled, is_throttled(record.min_speed));
            }
            for &n in job.nodes() {
                assert_eq!(
                    self.node_owner[n.0 as usize],
                    Some(slot),
                    "owner table must track {n} to slot {slot}"
                );
                assert!(!self.free.contains(n), "running node must not be free");
                assert!(!self.down.contains(n), "running node must not be down");
            }
        }
        // Ownership maps only to live run-queue slots.
        let owned = self.node_owner.iter().flatten().copied();
        let mut owned_count = 0;
        for idx in owned {
            assert!(idx < self.running.len(), "owner slot {idx} out of range");
            owned_count += 1;
        }
        // Conservation: free + owned + down = total.
        assert_eq!(
            self.free.len() + owned_count + self.down.len(),
            self.total_nodes
        );
        // The load column is the owners' own answer on every node.
        for n in 0..self.loads.len() as u32 {
            let node = NodeId(n);
            assert_eq!(
                self.loads[n as usize],
                self.owner_load_on(node),
                "load column of {node} is stale"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Class, NpbApp};
    use crate::phase::{Phase, PhaseKind};
    use crate::trace::JobRecord;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn job(id: u64, nprocs: u32, work: f64) -> Job {
        Job::new(
            JobId(id),
            NpbApp::Ep,
            Class::A,
            nprocs,
            vec![Phase {
                kind: PhaseKind::Compute,
                work_secs: work,
                alpha: 1.0,
                cpu_util: 1.0,
                nic_fraction: 0.1,
            }],
            SimTime::ZERO,
        )
    }

    fn sched(n: u32) -> Scheduler {
        Scheduler::new((0..n).map(NodeId), 12)
    }

    /// A job of `nprocs` ranks whose phases take `works` seconds each at
    /// full speed.
    fn phased_job(id: u64, nprocs: u32, works: &[f64]) -> Job {
        let phases = works
            .iter()
            .map(|&work_secs| Phase {
                kind: PhaseKind::Compute,
                work_secs,
                alpha: 1.0,
                cpu_util: 1.0,
                nic_fraction: 0.1,
            })
            .collect();
        Job::new(
            JobId(id),
            NpbApp::Ep,
            Class::A,
            nprocs,
            phases,
            SimTime::ZERO,
        )
    }

    /// Starts `jobs` on an 8-node scheduler.
    fn started(jobs: Vec<Job>) -> Scheduler {
        let mut s = sched(8);
        let mut q = JobQueue::new();
        for j in jobs {
            q.push(j);
        }
        s.try_start(&mut q, SimTime::ZERO);
        s
    }

    /// Advances `s` once by `secs` seconds at full speed; returns the
    /// finished ids and the reported phase-edge nodes.
    fn advance_by(s: &mut Scheduler, secs: u64) -> (Vec<JobId>, Vec<NodeId>) {
        let mut edges = Vec::new();
        let finished = s.advance(
            secs as f64,
            SimTime::from_secs(secs),
            &[1.0; 8],
            &[],
            &mut edges,
        );
        s.check_invariants();
        (finished.iter().map(Job::id).collect(), edges)
    }

    /// Each finished job's record and members, Debug-formatted so every
    /// float's bits count.
    fn departures(finished: &[Job]) -> Vec<String> {
        let line = |j: &Job| format!("{:?} on {:?}", JobRecord::from_job(j), j.nodes());
        finished.iter().map(line).collect()
    }

    /// Starts `jobs` and advances them once by `secs` seconds.
    fn advance_once(jobs: Vec<Job>, secs: u64) -> (Scheduler, Vec<JobId>, Vec<NodeId>) {
        let mut s = started(jobs);
        let (finished, edges) = advance_by(&mut s, secs);
        (s, finished, edges)
    }

    #[test]
    fn first_fit_takes_lowest_free_nodes() {
        let mut s = sched(8);
        let mut q = JobQueue::new();
        q.push(job(1, 24, 10.0)); // 2 nodes
        q.push(job(2, 12, 10.0)); // 1 node
        let started = s.try_start(&mut q, SimTime::ZERO);
        assert_eq!(started, vec![JobId(1), JobId(2)]);
        let j1 = &s.running_jobs()[0];
        assert_eq!(j1.nodes(), &[NodeId(0), NodeId(1)]);
        let j2 = &s.running_jobs()[1];
        assert_eq!(j2.nodes(), &[NodeId(2)]);
        assert_eq!(s.free_count(), 5);
        s.check_invariants();
    }

    #[test]
    fn backfill_admits_later_fitting_jobs() {
        let mut s = sched(4).with_admission(AdmissionPolicy::Backfill);
        let mut q = JobQueue::new();
        q.push(job(1, 36, 10.0)); // 3 nodes
        q.push(job(2, 36, 10.0)); // 3 nodes: blocks after job 1 (1 free)
        q.push(job(3, 12, 10.0)); // 1 node: backfills
        let started = s.try_start(&mut q, SimTime::ZERO);
        assert_eq!(started, vec![JobId(1), JobId(3)]);
        assert_eq!(q.len(), 1, "head job 2 still waits");
        assert_eq!(s.free_count(), 0);
        s.check_invariants();
    }

    #[test]
    fn head_of_line_blocks_even_if_later_job_fits() {
        let mut s = sched(4);
        let mut q = JobQueue::new();
        q.push(job(1, 48, 10.0)); // 4 nodes
        let started = s.try_start(&mut q, SimTime::ZERO);
        assert_eq!(started.len(), 1);
        q.push(job(2, 60, 10.0)); // needs 5 > 0 free: blocks
        q.push(job(3, 12, 10.0)); // would fit later, must wait for FIFO
        assert!(s.try_start(&mut q, SimTime::ZERO).is_empty());
        assert_eq!(q.len(), 2);
        s.check_invariants();
    }

    #[test]
    fn finished_jobs_free_their_nodes() {
        let mut s = sched(4);
        let mut q = JobQueue::new();
        q.push(job(1, 24, 5.0));
        s.try_start(&mut q, SimTime::ZERO);
        assert_eq!(s.utilization(), 0.5);
        let finished = s.advance(5.0, SimTime::from_secs(5), &[1.0; 8], &[], &mut Vec::new());
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].finished_at(), Some(SimTime::from_secs(5)));
        assert_eq!(s.free_count(), 4);
        assert!(s.running_jobs().is_empty());
        s.check_invariants();
    }

    #[test]
    fn phase_edge_is_reported() {
        let (s, finished, edges) = advance_once(vec![phased_job(1, 24, &[3.0, 10.0])], 5);
        assert!(finished.is_empty());
        assert_eq!(s.running_jobs()[0].phase_index(), 1);
        assert_eq!(edges, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn two_edges_in_one_advance_are_reported_once() {
        let (s, _, edges) = advance_once(vec![phased_job(1, 24, &[1.0, 1.0, 10.0])], 5);
        assert_eq!(s.running_jobs()[0].phase_index(), 2);
        assert_eq!(edges, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn finishing_job_reports_no_edge() {
        let (s, finished, edges) = advance_once(vec![phased_job(1, 24, &[1.0, 1.0])], 5);
        assert_eq!(finished, vec![JobId(1)]);
        assert!(s.running_jobs().is_empty());
        assert!(edges.is_empty(), "a finished job's nodes free instead");
    }

    #[test]
    fn job_within_its_phase_reports_no_edge() {
        let (_, finished, edges) = advance_once(vec![phased_job(1, 24, &[10.0, 10.0])], 5);
        assert!(finished.is_empty());
        assert!(edges.is_empty());
    }

    #[test]
    fn tail_job_moved_by_swap_remove_still_reports_its_edge() {
        let mut s = started(vec![
            phased_job(1, 12, &[1.0, 5.0]),
            phased_job(2, 12, &[50.0, 50.0]),
            phased_job(3, 24, &[5.0, 50.0]),
        ]);
        // Job 1 enters its second phase; job 3 is 2 s into its first.
        let (_, edges) = advance_by(&mut s, 2);
        assert_eq!(edges, vec![NodeId(0)]);
        // Job 1 (slot 0, phase 1) finishes and job 3 swaps down from the
        // tail into slot 0, where it crosses 0 → 1 in the same pass: the
        // edge belongs to job 3's own phase index, not slot 0's old one.
        let (finished, edges) = advance_by(&mut s, 5);
        assert_eq!(finished, vec![JobId(1)]);
        let moved = &s.running_jobs()[0];
        assert_eq!(moved.id(), JobId(3));
        assert_eq!(moved.phase_index(), 1);
        assert!(
            (moved.progress() - 7.0 / 55.0).abs() < 1e-12,
            "advanced once"
        );
        assert_eq!(edges, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn load_on_reports_running_nodes_only() {
        let mut s = sched(4);
        let mut q = JobQueue::new();
        q.push(job(1, 12, 10.0));
        s.try_start(&mut q, SimTime::ZERO);
        assert!(s.load_on(NodeId(0)).is_some());
        assert!(s.load_on(NodeId(3)).is_none());
        assert_eq!(s.job_of_node(NodeId(0)), Some(JobId(1)));
        assert_eq!(s.job_of_node(NodeId(3)), None);
    }

    #[test]
    fn throttled_cluster_delays_completion() {
        let mut s = sched(2);
        let mut q = JobQueue::new();
        q.push(job(1, 12, 10.0));
        s.try_start(&mut q, SimTime::ZERO);
        // Half speed: after 10 s the job is only half done.
        let finished = s.advance(
            10.0,
            SimTime::from_secs(10),
            &[0.5; 2],
            &[],
            &mut Vec::new(),
        );
        assert!(finished.is_empty());
        let finished = s.advance(
            10.0,
            SimTime::from_secs(20),
            &[0.5; 2],
            &[],
            &mut Vec::new(),
        );
        assert_eq!(finished.len(), 1);
        let record = JobRecord::from_job(&finished[0]);
        assert_eq!(record.actual_secs, 20.0);
        assert!(record.performance_ratio() < 0.51);
    }

    #[test]
    fn multiple_jobs_finish_in_one_step() {
        let mut s = sched(4);
        let mut q = JobQueue::new();
        q.push(job(1, 12, 3.0));
        q.push(job(2, 12, 4.0));
        s.try_start(&mut q, SimTime::ZERO);
        let finished = s.advance(5.0, SimTime::from_secs(5), &[1.0; 8], &[], &mut Vec::new());
        assert_eq!(finished.len(), 2);
        s.check_invariants();
    }

    #[test]
    fn owner_table_survives_out_of_order_completion() {
        // Three jobs; the first finishes while later ones keep running, so
        // completion swap-removes from the middle of the run-queue and the
        // dense owner table must be repointed at the moved job.
        let mut s = sched(6);
        let mut q = JobQueue::new();
        q.push(job(1, 24, 3.0)); // nodes 0-1, finishes first
        q.push(job(2, 12, 50.0)); // node 2
        q.push(job(3, 24, 50.0)); // nodes 3-4
        s.try_start(&mut q, SimTime::ZERO);
        s.check_invariants();
        let finished = s.advance(5.0, SimTime::from_secs(5), &[1.0; 8], &[], &mut Vec::new());
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].id(), JobId(1));
        s.check_invariants();
        // The tail job (3) was swapped into slot 0; lookups must follow.
        assert_eq!(s.job_of_node(NodeId(3)), Some(JobId(3)));
        assert_eq!(s.job_of_node(NodeId(2)), Some(JobId(2)));
        assert_eq!(s.job_of_node(NodeId(0)), None, "freed node is idle");
        assert!(s.load_on(NodeId(4)).is_some());
        assert!(s.load_on(NodeId(0)).is_none());
        // Free nodes are reused and re-owned correctly.
        q.push(job(4, 36, 10.0)); // nodes 0, 1, 5
        s.try_start(&mut q, SimTime::ZERO);
        s.check_invariants();
        assert_eq!(s.job_of_node(NodeId(5)), Some(JobId(4)));
    }

    #[test]
    fn max_nprocs_reflects_capacity() {
        assert_eq!(sched(8).max_nprocs(), 96);
    }

    #[test]
    fn eviction_frees_all_member_nodes_and_repoints_owners() {
        let mut s = sched(6);
        let mut q = JobQueue::new();
        q.push(job(1, 24, 50.0)); // nodes 0-1
        q.push(job(2, 24, 50.0)); // nodes 2-3
        s.try_start(&mut q, SimTime::ZERO);
        // Node 1 dies: the whole SPMD job 1 comes off, node 0 freed too.
        let evicted = s.evict_job_on(NodeId(1)).expect("job on node 1");
        assert_eq!(evicted.id(), JobId(1));
        assert_eq!(evicted.status(), JobStatus::Running, "caller decides fate");
        s.set_node_down(NodeId(1));
        s.check_invariants();
        assert!(s.is_node_down(NodeId(1)));
        assert_eq!(s.free_count(), 3, "nodes 0, 4, 5 free; 1 down");
        assert_eq!(s.job_of_node(NodeId(0)), None);
        // Job 2 (swap-moved to slot 0) still resolves correctly.
        assert_eq!(s.job_of_node(NodeId(2)), Some(JobId(2)));
        assert!(
            (s.utilization() - 2.0 / 6.0).abs() < 1e-12,
            "down node is not utilized"
        );
        // A new placement must skip the down node.
        q.push(job(3, 36, 10.0)); // 3 nodes
        s.try_start(&mut q, SimTime::ZERO);
        let j3 = &s.running_jobs()[1];
        assert_eq!(j3.nodes(), &[NodeId(0), NodeId(4), NodeId(5)]);
        // Reboot: the node returns to the free pool.
        s.set_node_up(NodeId(1));
        s.check_invariants();
        assert_eq!(s.free_count(), 1);
        assert!(!s.is_node_down(NodeId(1)));
    }

    #[test]
    fn evict_on_idle_node_is_none() {
        let mut s = sched(2);
        assert!(s.evict_job_on(NodeId(0)).is_none());
        s.check_invariants();
    }

    #[test]
    #[should_panic(expected = "evict the job")]
    fn marking_an_owned_node_down_panics() {
        let mut s = sched(2);
        let mut q = JobQueue::new();
        q.push(job(1, 12, 10.0));
        s.try_start(&mut q, SimTime::ZERO);
        s.set_node_down(NodeId(0));
    }

    /// A job whose phases take `works` seconds each at full speed, each
    /// phase with its own CPU and NIC load, so a phase edge moves every
    /// member's load.
    fn varied_job(id: u64, nprocs: u32, works: &[f64]) -> Job {
        let phases = works
            .iter()
            .enumerate()
            .map(|(k, &work_secs)| Phase {
                kind: PhaseKind::Compute,
                work_secs,
                alpha: 1.0,
                cpu_util: 1.0 - 0.2 * k as f64,
                nic_fraction: 0.05 * (k + 1) as f64,
            })
            .collect();
        Job::new(
            JobId(id),
            NpbApp::Ep,
            Class::A,
            nprocs,
            phases,
            SimTime::ZERO,
        )
    }

    /// Each slot's placement, to tell which slots a round of edits changed.
    fn placements(s: &Scheduler) -> Vec<(JobId, u32)> {
        s.running_jobs()
            .iter()
            .map(|j| (j.id(), j.requeues()))
            .collect()
    }

    /// Nodes in `prop_load_column_never_goes_stale`: three 64-id words.
    const N: u32 = 130;

    proptest! {
        /// Over random speed edits, starts, finishes and evictions, the
        /// cached per-job minimum speed is bitwise a fresh fold after every
        /// advance, and records and phase edges equal those of a twin
        /// that refolds every job. Every slot whose job changed is among
        /// the reported placement edges.
        #[test]
        fn prop_cached_min_speed_matches_a_refold(
            rounds in proptest::collection::vec(
                (
                    proptest::collection::vec((0u32..16, 0u8..6), 0..5),
                    proptest::collection::vec((1u32..60, 1u64..8, 1u64..8), 0..3),
                    proptest::option::of(0u32..16),
                    1u64..4,
                ),
                20..60,
            ),
        ) {
            let mut s = sched(16);
            let mut twin = sched(16);
            let (mut q, mut twin_q) = (JobQueue::new(), JobQueue::new());
            let mut speed = vec![1.0; 16];
            let all: Vec<u32> = (0..16).collect();
            let mut next_id = 0;
            let mut now = SimTime::ZERO;
            for (edits, arrivals, evict, secs) in rounds {
                let before = placements(&s);
                let mut changed = Vec::new();
                for (n, level) in edits {
                    speed[n as usize] = 0.5 + 0.1 * f64::from(level);
                    changed.push(n);
                }
                for (nprocs, a, b) in arrivals {
                    next_id += 1;
                    let job = phased_job(next_id, nprocs, &[a as f64, b as f64]);
                    q.push(job.clone());
                    twin_q.push(job);
                }
                if let Some(n) = evict {
                    for (s, q) in [(&mut s, &mut q), (&mut twin, &mut twin_q)] {
                        if let Some(mut job) = s.evict_job_on(NodeId(n)) {
                            job.requeue();
                            q.push_front(job);
                        }
                    }
                }
                s.try_start(&mut q, now);
                twin.try_start(&mut twin_q, now);
                now += SimDuration::from_secs(secs);
                let (mut edges, mut twin_edges) = (Vec::new(), Vec::new());
                let dt = secs as f64;
                let finished = s.advance(dt, now, &speed, &changed, &mut edges);
                let want = twin.advance(dt, now, &speed, &all, &mut twin_edges);
                prop_assert_eq!(departures(&finished), departures(&want));
                prop_assert_eq!(edges, twin_edges);
                s.check_invariants();
                for (job, slot) in s.running_jobs().iter().zip(&s.slots) {
                    prop_assert!(!slot.stale);
                    prop_assert_eq!(slot.min_speed.to_bits(), job.min_speed(&speed).to_bits());
                }
                let after = placements(&s);
                for (slot, p) in after.iter().enumerate() {
                    if before.get(slot) != Some(p) {
                        prop_assert!(
                            s.placement_edges().contains(&(slot as u32)),
                            "slot {} changed unreported", slot
                        );
                    }
                }
                s.clear_placement_edges();
            }
        }

        /// Differential check of the per-slot phase cache: over random
        /// phase lists (work and `alpha`), member speed edits reported as
        /// edges, evictions and τ, every running job's progress, phase
        /// index and throttled time are bitwise those of a reference copy
        /// advanced by [`Job::advance`] on every tick, and the phase-edge
        /// lists and the finished jobs' records and members
        /// (Debug-formatted, so every float's bits count) are the
        /// reference's. The reference mirrors the run
        /// queue's slots: placements append, finishes and evictions
        /// `swap_remove`.
        #[test]
        fn prop_slot_cache_matches_reference_jobs(
            rounds in proptest::collection::vec(
                (
                    proptest::collection::vec((0u32..16, 0u8..8), 0..4),
                    proptest::collection::vec(
                        (1u32..60, proptest::collection::vec((1u32..400, 0u8..5), 1..5)),
                        0..3,
                    ),
                    proptest::option::of(0u32..40),
                    1u32..40,
                ),
                10..60,
            ),
        ) {
            let mut s = sched(16);
            let mut q = JobQueue::new();
            let mut reference: Vec<Job> = Vec::new();
            let mut speed = vec![1.0; 16];
            let mut next_id = 0;
            let mut now = SimTime::ZERO;
            for (edits, arrivals, evict, tenths) in rounds {
                let mut changed = Vec::new();
                for (n, level) in edits {
                    // Level 7 is the top: unthrottled again.
                    speed[n as usize] = 0.3 + 0.1 * f64::from(level);
                    changed.push(n);
                }
                for (nprocs, phases) in arrivals {
                    next_id += 1;
                    let phases = phases
                        .iter()
                        .map(|&(work, alpha)| Phase {
                            kind: PhaseKind::Compute,
                            work_secs: f64::from(work) * 0.05,
                            alpha: f64::from(alpha) * 0.25,
                            cpu_util: 1.0,
                            nic_fraction: 0.1,
                        })
                        .collect();
                    let job = Job::new(JobId(next_id), NpbApp::Ep, Class::A, nprocs, phases, now);
                    q.push(job);
                }
                if let Some(n) = evict.filter(|&n| n < 16) {
                    if let Some(mut job) = s.evict_job_on(NodeId(n)) {
                        let slot = reference.iter().position(|r| r.id() == job.id());
                        prop_assert!(slot.is_some());
                        reference.swap_remove(slot.unwrap_or_default());
                        job.requeue();
                        q.push_front(job);
                    }
                }
                let placed = s.running_jobs().len();
                s.try_start(&mut q, now);
                reference.extend_from_slice(&s.running_jobs()[placed..]);
                let dt = f64::from(tenths) * 0.1;
                now += SimDuration::from_secs_f64(dt);

                let mut edges = Vec::new();
                let finished = s.advance(dt, now, &speed, &changed, &mut edges);
                let (mut want_edges, mut want_finished) = (Vec::new(), Vec::new());
                let mut i = 0;
                while i < reference.len() {
                    let before = reference[i].phase_index();
                    if let Some(unused) = reference[i].advance(dt, &speed) {
                        let mut job = reference.swap_remove(i);
                        job.finish(now - SimDuration::from_secs_f64(unused.min(dt)));
                        want_finished.push(job);
                    } else {
                        if reference[i].phase_index() != before {
                            want_edges.extend_from_slice(reference[i].nodes());
                        }
                        i += 1;
                    }
                }
                prop_assert_eq!(departures(&finished), departures(&want_finished));
                prop_assert_eq!(edges, want_edges);
                prop_assert_eq!(s.running_jobs().len(), reference.len());
                for (job, want) in s.running_jobs().iter().zip(&reference) {
                    prop_assert_eq!(job.id(), want.id());
                    prop_assert_eq!(job.phase_index(), want.phase_index());
                    prop_assert_eq!(job.progress().to_bits(), want.progress().to_bits(), "{}", job.id());
                    prop_assert_eq!(job.throttled_secs().to_bits(), want.throttled_secs().to_bits());
                }
                s.check_invariants();
            }
        }

        /// Every running job's members stay strictly ascending by id —
        /// what the observation store's one-pass split of a job into
        /// per-rack runs relies on — through placements under either
        /// admission policy, finishes, evictions with requeue, and
        /// decommissions (evict, requeue, take the node down), with
        /// rejoining nodes refilling the free pool out of order.
        #[test]
        fn prop_running_members_ascend(
            backfill in any::<bool>(),
            ops in proptest::collection::vec((0u8..5, 0u32..N, 1u32..400), 20..80),
        ) {
            let admission = if backfill {
                AdmissionPolicy::Backfill
            } else {
                AdmissionPolicy::FifoFirstFit
            };
            let mut s = sched(N).with_admission(admission);
            let mut q = JobQueue::new();
            let all: Vec<u32> = (0..N).collect();
            let speed = vec![1.0; N as usize];
            let mut next_id = 0;
            let mut now = SimTime::ZERO;
            for (op, n, nprocs) in ops {
                let node = NodeId(n);
                match op {
                    0 | 1 => {
                        next_id += 1;
                        q.push(varied_job(next_id, nprocs, &[f64::from(n % 7 + 1), 3.0]));
                    }
                    2 => {
                        now += SimDuration::from_secs(u64::from(n % 4 + 1));
                        let dt = f64::from(n % 4 + 1);
                        s.advance(dt, now, &speed, &all, &mut Vec::new());
                    }
                    3 => {
                        if let Some(mut job) = s.evict_job_on(node) {
                            job.requeue();
                            q.push_front(job);
                        }
                        if nprocs % 2 == 0 && !s.is_node_down(node) {
                            s.set_node_down(node);
                        }
                    }
                    _ => s.set_node_up(node),
                }
                s.try_start(&mut q, now);
                for job in s.running_jobs() {
                    prop_assert!(
                        job.nodes().windows(2).all(|w| w[0] < w[1]),
                        "{} members {:?}", job.id(), job.nodes()
                    );
                }
                s.check_invariants();
            }
        }

        /// Over random starts, advances at random per-node speeds (so jobs
        /// cross phases and finish), evictions and node down/up edges on
        /// `N` nodes, a
        /// machine wider than one 64-id word, the load column equals the
        /// owning job's own `Job::load_on` on every node after every
        /// operation, and is `None` on idle and down nodes. The free and
        /// down sets match an ordered-set reference: every placement takes
        /// the reference's lowest free ids, and the counts and utilization
        /// follow it.
        #[test]
        fn prop_load_column_never_goes_stale(
            ops in proptest::collection::vec(
                (
                    0u8..6,
                    0u32..N,
                    proptest::collection::vec(1u8..=10, N as usize..N as usize + 1),
                    1u64..6,
                ),
                20..80,
            ),
        ) {
            let mut s = sched(N);
            let mut q = JobQueue::new();
            let all: Vec<u32> = (0..N).collect();
            let mut free: BTreeSet<NodeId> = (0..N).map(NodeId).collect();
            let mut down = BTreeSet::new();
            let mut next_id = 0;
            let mut now = SimTime::ZERO;
            for (op, n, levels, secs) in ops {
                let node = NodeId(n);
                match op {
                    0 | 1 => {
                        next_id += 1;
                        let works = [secs as f64, 2.0, f64::from(n % 5 + 1)];
                        q.push(varied_job(next_id, 1 + n * 5, &works));
                        for id in s.try_start(&mut q, now) {
                            let slot = s.running_jobs().iter().position(|j| j.id() == id).unwrap();
                            let placed = s.running_jobs()[slot].nodes();
                            let lowest: Vec<NodeId> = free.iter().copied().take(placed.len()).collect();
                            prop_assert_eq!(placed, &lowest[..], "first fit for {}", id);
                            for n in &lowest {
                                free.remove(n);
                            }
                        }
                    }
                    2 => {
                        // Every speed may move, so every node is an edge.
                        let speed: Vec<f64> =
                            levels.iter().map(|&l| f64::from(l) / 10.0).collect();
                        now += SimDuration::from_secs(secs);
                        for job in s.advance(secs as f64, now, &speed, &all, &mut Vec::new()) {
                            free.extend(job.nodes().iter().copied());
                        }
                    }
                    3 | 4 => {
                        if let Some(mut job) = s.evict_job_on(node) {
                            free.extend(job.nodes().iter().copied());
                            job.requeue();
                            q.push_front(job);
                        }
                        if op == 4 {
                            s.set_node_down(node);
                            if free.remove(&node) {
                                down.insert(node);
                            }
                        }
                    }
                    _ => {
                        s.set_node_up(node);
                        if down.remove(&node) {
                            free.insert(node);
                        }
                    }
                }
                prop_assert_eq!(s.free_count(), free.len());
                prop_assert_eq!(s.down_count(), down.len());
                let idle = (free.len() + down.len()) as f64;
                prop_assert_eq!(s.utilization().to_bits(), (1.0 - idle / f64::from(N)).to_bits());
                for raw in 0..N {
                    let id = NodeId(raw);
                    prop_assert_eq!(s.is_node_down(id), down.contains(&id));
                    let want = s
                        .slot_of_node(id)
                        .and_then(|slot| s.running_jobs()[slot].load_on(id, s.cores_per_node()));
                    prop_assert_eq!(s.load_on(id), want, "node {}", raw);
                    if s.is_node_down(id) || s.job_of_node(id).is_none() {
                        prop_assert!(s.load_on(id).is_none(), "idle or down node {} has a load", raw);
                    }
                }
                s.check_invariants();
            }
        }
    }
}
