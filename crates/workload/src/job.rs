//! Jobs and their SPMD execution semantics.
//!
//! The paper's state-based policies lean on one property of well-balanced
//! parallel applications: *the job runs at the speed of its slowest node*.
//! [`Job::advance`] implements exactly that — the progress rate is the
//! minimum over member nodes of the current phase's rate at that node's
//! relative speed — so degrading one node of a job costs the same
//! performance as degrading all of them, while degrading all of them saves
//! much more power.

use crate::app::{Class, NpbApp};
use crate::model;
use crate::phase::Phase;
use crate::scaling::ranks_on_node;
use ppc_node::NodeId;
use ppc_simkit::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cluster-unique job identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// Scheduling priority (paper §II.A: nodes running urgent / high-priority
/// / SLA-critical tasks are privileged — uncontrollable by the power
/// manager — for as long as that work runs).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum JobPriority {
    /// Ordinary batch work: its nodes are capping candidates.
    #[default]
    Normal,
    /// Urgent / SLA-bound work: its nodes must never be degraded.
    Critical,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// Executing on its allocated nodes.
    Running,
    /// Completed.
    Finished,
}

/// Per-node load a running job induces, in device-neutral units; the
/// cluster layer converts `nic_fraction` to bytes using the node's NIC
/// bandwidth and the tick length.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeLoad {
    /// CPU utilization contribution ∈ [0, 1].
    pub cpu_util: f64,
    /// Memory in use, bytes.
    pub mem_bytes: u64,
    /// NIC usage as a fraction of link bandwidth ∈ [0, 1].
    pub nic_fraction: f64,
}

/// True when a job whose minimum member speed is `min_speed` runs below
/// its top level: the step counts toward [`Job::throttled_secs`].
pub(crate) fn is_throttled(min_speed: f64) -> bool {
    min_speed < 1.0 - 1e-12
}

/// A parallel job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    id: JobId,
    app: NpbApp,
    class: Class,
    nprocs: u32,
    phases: Vec<Phase>,
    baseline_secs: f64,
    submitted_at: SimTime,
    status: JobStatus,
    nodes: Vec<NodeId>,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    cur_phase: usize,
    done_in_phase_secs: f64,
    /// Wall seconds during which at least one member node was throttled.
    throttled_secs: f64,
    priority: JobPriority,
    /// Times this job has been evicted and requeued after losing a node.
    requeues: u32,
}

impl Job {
    /// Creates a queued job from a pre-built phase list.
    ///
    /// # Panics
    /// Panics if `phases` is empty or any phase is invalid.
    pub fn new(
        id: JobId,
        app: NpbApp,
        class: Class,
        nprocs: u32,
        phases: Vec<Phase>,
        submitted_at: SimTime,
    ) -> Self {
        assert!(!phases.is_empty(), "a job needs at least one phase");
        assert!(phases.iter().all(Phase::is_valid), "invalid phase");
        let baseline_secs = model::baseline_secs(&phases);
        Job {
            id,
            app,
            class,
            nprocs,
            phases,
            baseline_secs,
            submitted_at,
            status: JobStatus::Queued,
            nodes: Vec::new(),
            started_at: None,
            finished_at: None,
            cur_phase: 0,
            done_in_phase_secs: 0.0,
            throttled_secs: 0.0,
            priority: JobPriority::Normal,
            requeues: 0,
        }
    }

    /// Sets the job's priority (builder style).
    pub fn with_priority(mut self, priority: JobPriority) -> Self {
        self.priority = priority;
        self
    }

    /// The job's priority.
    pub fn priority(&self) -> JobPriority {
        self.priority
    }

    /// Job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Application.
    pub fn app(&self) -> NpbApp {
        self.app
    }

    /// Problem class.
    pub fn class(&self) -> Class {
        self.class
    }

    /// Rank count (the NPROCS parameter).
    pub fn nprocs(&self) -> u32 {
        self.nprocs
    }

    /// Lifecycle status.
    pub fn status(&self) -> JobStatus {
        self.status
    }

    /// Nodes the job runs on (empty until started).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Submission time.
    pub fn submitted_at(&self) -> SimTime {
        self.submitted_at
    }

    /// Start time, if started.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// Finish time, if finished.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// Full-speed duration `T_j` (the paper's uncapped reference time).
    pub fn baseline_secs(&self) -> f64 {
        self.baseline_secs
    }

    /// Wall seconds spent with ≥1 member node below its top level.
    pub fn throttled_secs(&self) -> f64 {
        self.throttled_secs
    }

    /// Fraction of total work completed, in [0, 1].
    pub fn progress(&self) -> f64 {
        let done: f64 = self.phases[..self.cur_phase]
            .iter()
            .map(|p| p.work_secs)
            .sum::<f64>()
            + self.done_in_phase_secs;
        (done / self.baseline_secs).clamp(0.0, 1.0)
    }

    /// The currently executing phase (`None` once finished).
    pub fn current_phase(&self) -> Option<&Phase> {
        self.phases.get(self.cur_phase)
    }

    /// Index of the currently executing phase (== phase count once
    /// finished). Member-node loads are constant between changes of this
    /// index, which is what the simulator's dirty-set tracking keys on.
    pub fn phase_index(&self) -> usize {
        self.cur_phase
    }

    /// Marks the job started on `nodes` at time `at`.
    ///
    /// # Panics
    /// Panics if the job is not queued or `nodes` is empty.
    pub fn start(&mut self, nodes: Vec<NodeId>, at: SimTime) {
        assert_eq!(
            self.status,
            JobStatus::Queued,
            "job must be queued to start"
        );
        assert!(!nodes.is_empty(), "job must get at least one node");
        self.nodes = nodes;
        self.started_at = Some(at);
        self.status = JobStatus::Running;
    }

    /// Advances execution by `dt_secs` of wall time. `speed` is the
    /// relative-speed column (`f/f_max ∈ (0,1]`) indexed by node id; the
    /// job progresses at the *minimum* member rate (see
    /// [`Job::advance_at`]).
    ///
    /// # Panics
    /// Panics if the job is not running or a member's id is outside
    /// `speed`.
    pub fn advance(&mut self, dt_secs: f64, speed: &[f64]) -> Option<f64> {
        let min_speed = self.min_speed(speed);
        self.advance_at(dt_secs, min_speed)
    }

    /// The minimum relative speed over the job's members, read from the
    /// speed column `speed` (indexed by node id): the rate the whole SPMD
    /// job runs at.
    ///
    /// # Panics
    /// Panics if a member's id is outside `speed`.
    pub fn min_speed(&self, speed: &[f64]) -> f64 {
        self.nodes
            .iter()
            .map(|n| speed[n.0 as usize])
            .fold(f64::INFINITY, f64::min)
    }

    /// Advances execution by `dt_secs` of wall time at `min_speed`, the
    /// job's minimum member speed ([`Job::min_speed`]). Crossing phase
    /// boundaries within one step is handled exactly.
    ///
    /// Returns `Some(unused_secs)` if the job finished during this step,
    /// where `unused_secs` is the part of `dt_secs` left over after the
    /// final phase completed — the caller subtracts it from the step-end
    /// time to record an exact finish timestamp.
    ///
    /// # Panics
    /// Panics if the job is not running.
    pub fn advance_at(&mut self, dt_secs: f64, min_speed: f64) -> Option<f64> {
        assert_eq!(self.status, JobStatus::Running, "only running jobs advance");
        debug_assert!(min_speed > 0.0 && min_speed <= 1.0 + 1e-12);
        if is_throttled(min_speed) {
            self.throttled_secs += dt_secs;
        }
        let mut remaining = dt_secs;
        while remaining > 0.0 {
            let Some(phase) = self.phases.get(self.cur_phase) else {
                break;
            };
            let rate = phase.rate_at_speed(min_speed);
            let work_left = phase.work_secs - self.done_in_phase_secs;
            let time_to_finish = work_left / rate;
            if time_to_finish <= remaining {
                remaining -= time_to_finish;
                self.cur_phase += 1;
                self.done_in_phase_secs = 0.0;
            } else {
                self.done_in_phase_secs += remaining * rate;
                remaining = 0.0;
            }
        }
        (self.cur_phase >= self.phases.len()).then_some(remaining)
    }

    /// [`Job::advance_at`] for a step that stays inside the current phase,
    /// given that phase's `work_secs`, its `rate` at the minimum member
    /// speed and whether that speed [`is_throttled`]: the same arithmetic
    /// without reading the phase list. Returns `false`, changing nothing,
    /// when the step is not positive or would reach the phase's end; the
    /// caller then advances through [`Job::advance_at`].
    pub(crate) fn advance_in_phase(
        &mut self,
        dt_secs: f64,
        work_secs: f64,
        rate: f64,
        throttled: bool,
    ) -> bool {
        debug_assert_eq!(self.status, JobStatus::Running, "only running jobs advance");
        let time_to_finish = (work_secs - self.done_in_phase_secs) / rate;
        if !(dt_secs > 0.0 && time_to_finish > dt_secs) {
            return false;
        }
        if throttled {
            self.throttled_secs += dt_secs;
        }
        self.done_in_phase_secs += dt_secs * rate;
        true
    }

    /// Times this job has been evicted and requeued.
    pub fn requeues(&self) -> u32 {
        self.requeues
    }

    /// Evicts a running job back to the queue after one of its nodes died.
    ///
    /// There is no checkpointing in the model: all completed work is lost
    /// and the job restarts from its first phase on its next placement.
    /// `throttled_secs` keeps accumulating across attempts — it measures
    /// total throttled wall time, which the cost metrics charge regardless
    /// of whether the attempt survived.
    ///
    /// # Panics
    /// Panics if the job is not running.
    pub fn requeue(&mut self) {
        assert_eq!(
            self.status,
            JobStatus::Running,
            "only running jobs can be requeued"
        );
        self.status = JobStatus::Queued;
        self.nodes.clear();
        self.started_at = None;
        self.cur_phase = 0;
        self.done_in_phase_secs = 0.0;
        self.requeues += 1;
    }

    /// Marks the job finished at `at`.
    pub fn finish(&mut self, at: SimTime) {
        assert!(self.cur_phase >= self.phases.len(), "job has work left");
        self.status = JobStatus::Finished;
        self.finished_at = Some(at);
    }

    /// Load this job currently induces on member node `node`, or `None` if
    /// the node is not a member or the job is not running.
    ///
    /// Searches the member list; the scheduler's per-node load column
    /// answers the same question in one read.
    pub fn load_on(&self, node: NodeId, cores_per_node: u32) -> Option<NodeLoad> {
        if self.status != JobStatus::Running {
            return None;
        }
        let idx = self.nodes.iter().position(|&n| n == node)?;
        let phase = self.current_phase()?;
        Some(self.member_load(phase, idx, cores_per_node))
    }

    /// Every member's current load, in member order: for each node of
    /// [`Job::nodes`], exactly what [`Job::load_on`] returns for it.
    pub(crate) fn member_loads(
        &self,
        cores_per_node: u32,
    ) -> impl Iterator<Item = (NodeId, Option<NodeLoad>)> + '_ {
        let phase = self
            .current_phase()
            .filter(|_| self.status == JobStatus::Running);
        self.nodes.iter().enumerate().map(move |(idx, &node)| {
            (
                node,
                phase.map(|phase| self.member_load(phase, idx, cores_per_node)),
            )
        })
    }

    /// The load of the member at position `idx` of [`Job::nodes`] during
    /// `phase`.
    fn member_load(&self, phase: &Phase, idx: usize, cores_per_node: u32) -> NodeLoad {
        let ranks = ranks_on_node(self.nprocs, self.nodes.len() as u32, idx as u32);
        let occupancy = (ranks as f64 / cores_per_node as f64).min(1.0);
        NodeLoad {
            cpu_util: phase.cpu_util * occupancy,
            mem_bytes: self.class.mem_per_rank_bytes() * ranks as u64,
            nic_fraction: phase.nic_fraction * occupancy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseKind;

    fn two_phase_job() -> Job {
        let phases = vec![
            Phase {
                kind: PhaseKind::Compute,
                work_secs: 10.0,
                alpha: 1.0,
                cpu_util: 1.0,
                nic_fraction: 0.0,
            },
            Phase {
                kind: PhaseKind::Memory,
                work_secs: 10.0,
                alpha: 0.0,
                cpu_util: 0.5,
                nic_fraction: 0.1,
            },
        ];
        Job::new(JobId(1), NpbApp::Cg, Class::A, 8, phases, SimTime::ZERO)
    }

    #[test]
    fn full_speed_run_matches_baseline() {
        let mut j = two_phase_job();
        assert_eq!(j.baseline_secs(), 20.0);
        j.start(vec![NodeId(0)], SimTime::ZERO);
        let mut elapsed = 0.0;
        while j.advance(1.0, &[1.0]).is_none() {
            elapsed += 1.0;
            assert!(elapsed < 30.0, "runaway");
        }
        // 19 full steps + the finishing 20th.
        assert!((19.0..=20.0).contains(&elapsed));
        assert_eq!(j.throttled_secs(), 0.0);
        j.finish(SimTime::from_secs(20));
        assert_eq!(j.status(), JobStatus::Finished);
    }

    #[test]
    fn slowest_node_bounds_progress() {
        let mut j = two_phase_job();
        j.start(vec![NodeId(0), NodeId(1), NodeId(2)], SimTime::ZERO);
        // One throttled node at half speed, the rest at full.
        let speeds = [1.0, 0.5, 1.0];
        // Phase 1 is α=1: rate = 0.5 → takes 20 s instead of 10.
        let finished = j.advance(20.0, &speeds);
        assert!(finished.is_none());
        // Should be exactly at the phase boundary.
        assert!(
            (j.progress() - 0.5).abs() < 1e-9,
            "progress={}",
            j.progress()
        );
        assert_eq!(j.throttled_secs(), 20.0);
        // Phase 2 is α=0: speed does not matter, 10 s.
        let finished = j.advance(10.0, &speeds);
        assert!(finished.is_some());
    }

    #[test]
    fn phase_boundary_crossed_mid_step() {
        let mut j = two_phase_job();
        j.start(vec![NodeId(0)], SimTime::ZERO);
        // 15 s at full speed: 10 s phase 1 + 5 s into phase 2.
        assert!(j.advance(15.0, &[1.0]).is_none());
        assert_eq!(j.phase_index(), 1);
        assert!((j.progress() - 0.75).abs() < 1e-9);
        assert!(j.advance(5.0, &[1.0]).is_some());
    }

    #[test]
    fn whole_job_finishes_within_single_large_step() {
        let mut j = two_phase_job();
        j.start(vec![NodeId(0)], SimTime::ZERO);
        let unused = j.advance(100.0, &[1.0]).expect("finished");
        assert!((unused - 80.0).abs() < 1e-9, "unused={unused}");
        assert!((j.progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn load_on_reflects_phase_and_occupancy() {
        let mut j = two_phase_job();
        assert!(j.load_on(NodeId(0), 12).is_none(), "not running yet");
        j.start(vec![NodeId(0)], SimTime::ZERO);
        // 8 ranks on a 12-core node: occupancy 2/3 of phase util 1.0.
        let load = j.load_on(NodeId(0), 12).unwrap();
        assert!((load.cpu_util - 8.0 / 12.0).abs() < 1e-9);
        assert_eq!(load.mem_bytes, Class::A.mem_per_rank_bytes() * 8);
        assert!(j.load_on(NodeId(9), 12).is_none(), "non-member");
    }

    #[test]
    fn progress_is_monotone() {
        let mut j = two_phase_job();
        j.start(vec![NodeId(0)], SimTime::ZERO);
        let mut last = 0.0;
        for _ in 0..25 {
            j.advance(1.0, &[0.8]);
            let p = j.progress();
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn requeue_resets_execution_state_and_counts() {
        let mut j = two_phase_job();
        j.start(vec![NodeId(0), NodeId(1)], SimTime::from_secs(5));
        j.advance(12.0, &[1.0; 2]);
        assert!(j.progress() > 0.5);
        j.requeue();
        assert_eq!(j.status(), JobStatus::Queued);
        assert!(j.nodes().is_empty());
        assert_eq!(j.started_at(), None);
        assert_eq!(j.progress(), 0.0, "no checkpointing: work is lost");
        assert_eq!(j.requeues(), 1);
        // The job can start again and run to completion.
        j.start(vec![NodeId(2)], SimTime::from_secs(40));
        assert!(j.advance(25.0, &[1.0; 3]).is_some());
    }

    #[test]
    #[should_panic(expected = "only running jobs")]
    fn requeue_requires_running() {
        let mut j = two_phase_job();
        j.requeue();
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phase_list_rejected() {
        Job::new(JobId(0), NpbApp::Ep, Class::A, 1, vec![], SimTime::ZERO);
    }
}
