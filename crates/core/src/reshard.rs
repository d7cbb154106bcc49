//! Elastic resharding, written once: the driver and the subORAM staging
//! machine both deployment planes share (DESIGN.md §6.12).
//!
//! [`run_reshard`] grows or shrinks the active subORAM fleet at an epoch
//! boundary against any [`ReshardAdmin`]: the channel plane's mpsc adapter
//! ([`crate::deploy`]) or the TCP plane's admin-RPC adapter (`snoopy-net`,
//! which also seals the migration on a fixed public schedule). A run
//! discovers every node's status, arms and pauses every balancer, exports
//! and deduplicates every partition, installs the re-partitioned objects
//! beside the live ones, then commits subORAMs (durably) before flipping
//! balancers. A re-run first finishes the commits of a run that died after
//! its first subORAM flip.
//!
//! **Refusal versus lost ack.** Any failure before the commit phase aborts
//! everywhere, and the old layout resumes; so does an in-band refusal of the
//! *first* subORAM commit. A commit whose reply never arrived is
//! indeterminate: the node may have flipped, and aborting would make its
//! peers drop the staged partitions holding objects remapped off it. The
//! driver re-probes such a node and, unless the probe shows the flip, stops
//! without aborting; re-running the driver rolls the cluster forward.
//!
//! [`Stager`] is the subORAM half, parameterised by three [`StagingHooks`]
//! (build, persist, discard). It and the balancer loop emit the reshard
//! telemetry through the same two recorders, once per node and event.

use crate::transport::{
    ReshardCmd, ReshardPhase, ReshardPlan, ReshardStatus, SubOramNode, SubReshardCmd,
    SubReshardReply,
};
use snoopy_crypto::Key256;
use snoopy_enclave::wire::StoredObject;
use snoopy_lb::partition_objects;
use snoopy_suboram::SubOram;
use snoopy_telemetry::events::{self, Event, EventKind};
use snoopy_telemetry::{metrics, Public};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How long an adapter waits for one node's reply (an export or install of
/// a large store can be slow).
pub const RPC_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the driver waits for every balancer to pause at its boundary.
const PAUSE_DEADLINE: Duration = Duration::from_secs(30);

/// Why a reshard RPC produced no usable reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcFailure {
    /// The node answered in-band that it did not apply the command.
    Refused(String),
    /// No reply arrived: the command may or may not have applied.
    Indeterminate(String),
}

/// One deployment plane's control channel to its nodes. A test can
/// substitute a fake that injects refusals and lost messages.
pub trait ReshardAdmin {
    /// Sends `cmd` to balancer `i` and returns its status.
    fn balancer(&mut self, i: usize, cmd: ReshardCmd) -> Result<ReshardStatus, RpcFailure>;

    /// Sends `cmd` to subORAM `i` and returns its reply. A
    /// [`SubReshardReply::Failed`] counts as an in-band refusal.
    fn suboram(&mut self, i: usize, cmd: SubReshardCmd) -> Result<SubReshardReply, RpcFailure>;

    /// Called once every balancer has armed the plan. Planes without their
    /// own epoch ticker tick here so the balancers reach the boundary.
    fn at_boundary(&mut self) {}
}

/// What one driver run is asked to do.
#[derive(Clone, Debug)]
pub struct ReshardJob {
    /// Balancers in the deployment.
    pub balancers: usize,
    /// Provisioned subORAMs (the active ones plus warm spares).
    pub suborams: usize,
    /// Objects the deployment stores; the export union must hold exactly
    /// this many.
    pub num_objects: u64,
    /// The deployment's partition key (the keyed hash behind
    /// [`partition_objects`]).
    pub partition_key: Key256,
    /// Target active subORAM count.
    pub new_s: usize,
    /// Pause TTL: balancers self-abort if no verdict arrives in time.
    pub ttl: Duration,
}

/// What a successful run did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReshardReport {
    /// The generation the cluster now serves.
    pub generation: u64,
    /// Active subORAMs before (when the run only finished an earlier run's
    /// commits: the count the balancers served before that run).
    pub old_s: usize,
    /// Active subORAMs after.
    pub new_s: usize,
    /// Objects migrated (0 when the run only finished an earlier run's
    /// commits).
    pub objects_moved: usize,
}

/// Runs the reshard protocol (see the module docs). `hook` is called with a
/// phase name (`"paused"`, `"exported"`, `"installed"`,
/// `"committed-suborams"`, `"committed"`) as the run crosses it; tests kill
/// nodes from there.
pub fn run_reshard<A: ReshardAdmin>(
    admin: &mut A,
    job: &ReshardJob,
    hook: &mut dyn FnMut(&str),
) -> Result<ReshardReport, String> {
    let (new_s, s_total) = (job.new_s, job.suborams);
    if new_s == 0 || new_s > s_total {
        return Err(format!("new_s = {new_s} out of range (1..={s_total} provisioned subORAMs)"));
    }
    let mut fleet = Fleet::discover(admin, job)?;
    let served_s = fleet.lbs.iter().min_by_key(|s| s.generation).map_or(new_s, |s| s.active_s);
    if let Some((generation, active_s)) = fleet.finish_partial_commit(admin) {
        fleet = Fleet::discover(admin, job)?;
        let settled =
            fleet.lbs.iter().all(|s| (s.generation, s.active_s) == (generation, active_s))
                && fleet.subs.iter().take(active_s).all(|s| s.generation == generation);
        if settled && active_s == new_s {
            return Ok(ReshardReport { generation, old_s: served_s, new_s, objects_moved: 0 });
        }
    }
    let old_s = fleet
        .newest_committed()
        .map(|(_, s)| s)
        .or_else(|| fleet.lbs.iter().max_by_key(|s| s.generation).map(|s| s.active_s))
        .unwrap_or(s_total)
        .min(s_total);
    // A clean cluster has every active subORAM on one generation. Mixed
    // generations mean an earlier run died between subORAM commits and
    // could not be finished: export from the whole provisioned fleet and
    // deduplicate, so an object is found in whichever layout's bin it
    // landed. Nodes past `new_s` get an empty partition: a shrink retires
    // them onto the new generation instead of leaving stale state behind.
    let roll_forward = fleet.subs[..old_s].iter().any(|s| s.generation != fleet.subs[0].generation);
    let export_hi = if roll_forward { s_total } else { old_s };
    let install_hi = if roll_forward { s_total } else { new_s.max(old_s) };

    let mut run = Run { admin, job, generation: fleet.max_generation() + 1 };
    // Any failure before the commit phase aborts everywhere.
    let objects_moved = run.stage(&fleet, export_hi, install_hi, hook).map_err(|e| run.abort(e))?;
    run.commit(install_hi, hook)?;
    Ok(ReshardReport { generation: run.generation, old_s, new_s, objects_moved })
}

/// Every node's status at the start of a run.
struct Fleet {
    subs: Vec<ReshardStatus>,
    lbs: Vec<ReshardStatus>,
}

impl Fleet {
    /// Asks every provisioned node for its status; all must answer.
    fn discover<A: ReshardAdmin>(admin: &mut A, job: &ReshardJob) -> Result<Fleet, String> {
        let subs = (0..job.suborams)
            .map(|i| {
                sub_status(admin.suboram(i, SubReshardCmd::Status))
                    .map_err(|e| format!("suboram {i} not answering: {e:?}"))
            })
            .collect::<Result<_, _>>()?;
        let lbs = (0..job.balancers)
            .map(|i| {
                admin
                    .balancer(i, ReshardCmd::Status)
                    .map_err(|e| format!("balancer {i} not answering: {e:?}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Fleet { subs, lbs })
    }

    fn max_generation(&self) -> u64 {
        self.subs.iter().chain(&self.lbs).map(|s| s.generation).max().unwrap_or(0)
    }

    /// The newest layout any subORAM serves, as `(generation, active_s)`.
    fn newest_committed(&self) -> Option<(u64, usize)> {
        let newest = self.subs.iter().max_by_key(|s| s.generation)?;
        (newest.active_s > 0).then_some((newest.generation, newest.active_s))
    }

    /// Finishes a run that died after its first subORAM commit: commits the
    /// newest committed generation on every subORAM still staged below it,
    /// then on every balancer still paused below it. Best effort — whatever
    /// stays behind, the migration that follows repairs. Returns the layout
    /// it committed towards, if it sent anything.
    fn finish_partial_commit<A: ReshardAdmin>(&self, admin: &mut A) -> Option<(u64, usize)> {
        let (generation, active_s) = self.newest_committed()?;
        let behind = |s: &ReshardStatus, phase| s.generation < generation && s.phase == phase;
        let mut sent = false;
        for (i, st) in self.subs.iter().enumerate() {
            if behind(st, ReshardPhase::Armed) {
                commit_verdict(admin, Node::SubOram(i), generation, None);
                sent = true;
            }
        }
        for (i, st) in self.lbs.iter().enumerate() {
            if behind(st, ReshardPhase::Paused) {
                commit_verdict(admin, Node::Balancer(i), generation, Some(active_s));
                sent = true;
            }
        }
        sent.then_some((generation, active_s))
    }
}

/// One migration at a fixed target generation.
struct Run<'a, A: ReshardAdmin> {
    admin: &'a mut A,
    job: &'a ReshardJob,
    generation: u64,
}

impl<A: ReshardAdmin> Run<'_, A> {
    /// Plan, pause, export and install; returns the objects migrated.
    fn stage(
        &mut self,
        fleet: &Fleet,
        export_hi: usize,
        install_hi: usize,
        hook: &mut dyn FnMut(&str),
    ) -> Result<usize, String> {
        let (generation, new_s) = (self.generation, self.job.new_s);
        for i in 0..self.job.balancers {
            let plan = ReshardPlan { generation, new_s, boundary_epoch: 0, ttl: self.job.ttl };
            match self.admin.balancer(i, ReshardCmd::Plan(plan)) {
                Ok(st) if st.phase == ReshardPhase::Armed => {}
                other => return Err(format!("balancer {i} refused the plan: {other:?}")),
            }
        }
        self.admin.at_boundary();

        // Wait for every balancer to pause at its boundary tick: after that
        // no batch is in flight anywhere, so the partitions are quiescent.
        let deadline = Instant::now() + PAUSE_DEADLINE;
        for i in 0..self.job.balancers {
            let mut backoff = Duration::from_millis(1);
            loop {
                match self.admin.balancer(i, ReshardCmd::Status) {
                    Ok(st) if st.phase == ReshardPhase::Paused => break,
                    Ok(_) if Instant::now() < deadline => {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(50));
                    }
                    other => return Err(format!("balancer {i} never paused: {other:?}")),
                }
            }
        }
        hook("paused");

        // Export, deduplicating by source generation.
        let mut by_id: HashMap<u64, (u64, StoredObject)> = HashMap::new();
        for sub in 0..export_hi {
            let src_gen = fleet.subs[sub].generation;
            let objects = match self.admin.suboram(sub, SubReshardCmd::Export { generation, new_s })
            {
                Ok(SubReshardReply::Objects(objects)) => objects,
                other => {
                    return Err(format!("suboram {sub} export failed: {:?}", sub_status(other)))
                }
            };
            for o in objects {
                if by_id.get(&o.id).is_none_or(|(g, _)| *g < src_gen) {
                    by_id.insert(o.id, (src_gen, o));
                }
            }
        }
        let mut union: Vec<StoredObject> = by_id.into_values().map(|(_, o)| o).collect();
        union.sort_by_key(|o| o.id);
        let objects_moved = union.len();
        if objects_moved as u64 != self.job.num_objects {
            return Err(format!(
                "export union holds {objects_moved} objects, deployment stores {} — refusing \
                 to migrate",
                self.job.num_objects
            ));
        }
        hook("exported");

        // Install: re-partition at the new fleet size and stage.
        let mut parts = partition_objects(union, &self.job.partition_key, new_s);
        parts.resize_with(install_hi, Vec::new);
        for (sub, objects) in parts.into_iter().enumerate() {
            let cmd = SubReshardCmd::Install { generation, new_s, objects };
            match sub_status(self.admin.suboram(sub, cmd)) {
                Ok(st) if st.phase == ReshardPhase::Armed => {}
                other => return Err(format!("suboram {sub} refused the partition: {other:?}")),
            }
        }
        hook("installed");
        Ok(objects_moved)
    }

    /// Commits subORAMs first, then flips every balancer. The first subORAM
    /// flip is the point of no return: after it the driver never aborts,
    /// only rolls forward.
    fn commit(&mut self, install_hi: usize, hook: &mut dyn FnMut(&str)) -> Result<(), String> {
        let generation = self.generation;
        for sub in 0..install_hi {
            let why = match commit_verdict(self.admin, Node::SubOram(sub), generation, None) {
                CommitVerdict::Flipped => continue,
                CommitVerdict::Refused(r) if sub == 0 => {
                    return Err(self.abort(format!("suboram 0 refused to commit ({r}); aborted")))
                }
                CommitVerdict::Refused(r) => format!("suboram {sub} refused to commit ({r})"),
                CommitVerdict::Unknown(r) => format!("suboram {sub} commit outcome unknown ({r})"),
            };
            return Err(format!(
                "{why} after {sub} nodes flipped; not aborting — re-run the reshard to roll \
                 the cluster forward"
            ));
        }
        hook("committed-suborams");
        // The held ticks then execute at the new layout.
        for i in 0..self.job.balancers {
            let verdict =
                commit_verdict(self.admin, Node::Balancer(i), generation, Some(self.job.new_s));
            if let CommitVerdict::Refused(r) | CommitVerdict::Unknown(r) = verdict {
                return Err(format!(
                    "balancer {i} did not flip ({r}) after the subORAMs committed generation \
                     {generation}; its pause TTL restores the old routing table — re-run the \
                     reshard to roll the cluster forward"
                ));
            }
        }
        hook("committed");
        Ok(())
    }

    /// Best-effort abort fan-out: balancers resume the old layout, subORAMs
    /// drop staged state. Errors are ignored — abort must make progress with
    /// half the cluster gone. Returns `why` for the caller's error.
    fn abort(&mut self, why: String) -> String {
        let generation = self.generation;
        for i in 0..self.job.balancers {
            let _ = self.admin.balancer(i, ReshardCmd::Abort { generation });
        }
        for i in 0..self.job.suborams {
            let _ = self.admin.suboram(i, SubReshardCmd::Abort { generation });
        }
        why
    }
}

/// A subORAM reply read as a status; `Failed` and object replies are
/// in-band refusals.
fn sub_status(reply: Result<SubReshardReply, RpcFailure>) -> Result<ReshardStatus, RpcFailure> {
    match reply? {
        SubReshardReply::Status(st) => Ok(st),
        SubReshardReply::Failed(reason) => Err(RpcFailure::Refused(reason)),
        SubReshardReply::Objects(_) => Err(RpcFailure::Refused("unexpected object reply".into())),
    }
}

#[derive(Clone, Copy)]
enum Node {
    Balancer(usize),
    SubOram(usize),
}

/// Sends a balancer-shaped command (`Commit` or `Status`) to any node.
fn node_rpc<A: ReshardAdmin>(
    admin: &mut A,
    node: Node,
    cmd: ReshardCmd,
) -> Result<ReshardStatus, RpcFailure> {
    match (node, cmd) {
        (Node::Balancer(i), cmd) => admin.balancer(i, cmd),
        (Node::SubOram(i), ReshardCmd::Commit { generation }) => {
            sub_status(admin.suboram(i, SubReshardCmd::Commit { generation }))
        }
        (Node::SubOram(i), _) => sub_status(admin.suboram(i, SubReshardCmd::Status)),
    }
}

/// The driver's reading of one commit. Only [`CommitVerdict::Refused`] — an
/// authoritative in-band answer — may ever trigger an abort; a lost ack
/// yields [`CommitVerdict::Unknown`], which rolls forward.
#[derive(Debug)]
enum CommitVerdict {
    /// The node reports the new generation: the flip is durable.
    Flipped,
    /// The node answered in-band that it did not commit.
    Refused(String),
    /// The ack was lost and a follow-up probe could not confirm the flip.
    Unknown(String),
}

/// Classifies a commit reply: `Some(verdict)` when it is authoritative,
/// `None` when the ack is indeterminate and the node must be probed.
fn classify_commit(
    reply: Result<ReshardStatus, RpcFailure>,
    generation: u64,
    want_active: Option<usize>,
) -> Option<CommitVerdict> {
    match reply {
        Ok(st) if st.generation == generation && want_active.is_none_or(|s| st.active_s == s) => {
            Some(CommitVerdict::Flipped)
        }
        // The node executed the command and answered with another layout.
        Ok(st) => Some(CommitVerdict::Refused(format!("still at generation {}", st.generation))),
        Err(RpcFailure::Refused(reason)) => Some(CommitVerdict::Refused(reason)),
        Err(RpcFailure::Indeterminate(_)) => None,
    }
}

/// Commits `generation` on one node. A lost or indeterminate ack is
/// re-probed: both planes answer the status RPC from the same loop as the
/// commit, so the probe orders after any still-queued commit. A probe that
/// shows the old generation after a lost ack is still no proof of refusal
/// (the node may have restarted mid-persist), so this path yields only
/// `Flipped` or `Unknown`.
fn commit_verdict<A: ReshardAdmin>(
    admin: &mut A,
    node: Node,
    generation: u64,
    want_active: Option<usize>,
) -> CommitVerdict {
    let reply = node_rpc(admin, node, ReshardCmd::Commit { generation });
    if let Some(verdict) = classify_commit(reply, generation, want_active) {
        return verdict;
    }
    match classify_commit(node_rpc(admin, node, ReshardCmd::Status), generation, want_active) {
        Some(CommitVerdict::Flipped) => CommitVerdict::Flipped,
        probe => CommitVerdict::Unknown(format!("ack lost; probe: {probe:?}")),
    }
}

/// Records a committed layout flip on one node: both reshard gauges plus
/// the flight-recorder event. Generation and fleet size are public
/// configuration.
pub(crate) fn record_flip(generation: u64, active_s: usize) {
    let reg = metrics::global();
    reg.gauge("snoopy_reshard_generation", "reshard generation of the layout currently served")
        .set(Public::config(generation as f64));
    reg.gauge("snoopy_active_suborams", "subORAM count of the layout currently served")
        .set(Public::config(active_s as f64));
    events::record(
        Event::new(EventKind::ReshardCommit)
            .with("generation", Public::config(generation))
            .with("suborams", Public::config(active_s as u64)),
    );
}

/// Records that one node dropped the staged state of `generation`.
pub(crate) fn record_abort(generation: u64) {
    events::record(
        Event::new(EventKind::ReshardAbort).with("generation", Public::config(generation)),
    );
}

/// The plane-specific parts of staging a partition.
pub trait StagingHooks {
    /// Builds the staged partition for `generation`. Each generation gets its
    /// own sealing key ([`snoopy_store::generation_key`]): a fresh store
    /// restarts its commit counter, so reusing the live key would repeat
    /// `(key, nonce)` pairs.
    fn build(&mut self, generation: u64, objects: Vec<StoredObject>) -> Result<SubOram, String>;

    /// Makes the just-swapped generation durable before the commit is
    /// acknowledged. The default commits its storage.
    fn persist(&mut self, node: &mut SubOramNode) -> Result<(), String> {
        commit_storage(node)
    }

    /// Drops whatever `generation` left outside the process (the default has
    /// nothing to drop).
    fn discard(&mut self, generation: u64) {
        let _ = generation;
    }
}

/// The default persist step: commit the swapped-in partition's storage.
pub fn commit_storage(node: &mut SubOramNode) -> Result<(), String> {
    node.oram_mut().commit_storage(0).map(|_| ()).map_err(|e| format!("storage commit failed: {e}"))
}

/// Staging hooks that build partitions with [`snoopy_store::build_suboram`]
/// and keep nothing outside the process — the channel plane's.
pub struct StoreStaging {
    /// Storage tier of staged partitions.
    pub storage: snoopy_store::StorageKind,
    /// The deployment's fixed value length.
    pub value_len: usize,
    /// The node's root sealing key; generations derive theirs from it.
    pub key: Key256,
    /// Oblivious hash-table security parameter.
    pub lambda: u32,
}

impl StagingHooks for StoreStaging {
    fn build(&mut self, generation: u64, objects: Vec<StoredObject>) -> Result<SubOram, String> {
        let key = snoopy_store::generation_key(&self.key, generation);
        Ok(snoopy_store::build_suboram(self.storage, objects, self.value_len, key, self.lambda))
    }
}

/// A partition staged for a generation, beside the live one.
struct Staged {
    generation: u64,
    active_s: usize,
    oram: SubOram,
}

/// The subORAM staging machine: answers every [`SubReshardCmd`] for one
/// node. At most one partition is staged; the node reports
/// [`ReshardPhase::Armed`] while it is.
pub struct Stager<H: StagingHooks> {
    hooks: H,
    staged: Option<Staged>,
}

impl<H: StagingHooks> Stager<H> {
    /// A stager with nothing staged.
    pub fn new(hooks: H) -> Stager<H> {
        Stager { hooks, staged: None }
    }

    /// The node's status.
    pub fn status(&self, node: &SubOramNode) -> ReshardStatus {
        let phase = if self.staged.is_some() { ReshardPhase::Armed } else { ReshardPhase::Idle };
        ReshardStatus { generation: node.generation(), active_s: node.active_s(), phase }
    }

    /// Applies one command to `node`.
    pub fn handle(&mut self, node: &mut SubOramNode, cmd: SubReshardCmd) -> SubReshardReply {
        match cmd {
            SubReshardCmd::Status => {}
            SubReshardCmd::Export { .. } => {
                let mut objects = Vec::new();
                return match node.oram().stream_objects(&mut |o| objects.push(o.clone())) {
                    Ok(()) => SubReshardReply::Objects(objects),
                    Err(e) => SubReshardReply::Failed(format!("export failed: {e}")),
                };
            }
            SubReshardCmd::Install { generation, new_s, objects } => {
                if generation <= node.generation() {
                    return SubReshardReply::Failed(format!(
                        "stale install generation {generation} (serving {})",
                        node.generation()
                    ));
                }
                // A newer schedule replaces whatever was staged.
                if let Some(old) = self.staged.take() {
                    self.hooks.discard(old.generation);
                }
                match self.hooks.build(generation, objects) {
                    Ok(oram) => self.staged = Some(Staged { generation, active_s: new_s, oram }),
                    Err(e) => return SubReshardReply::Failed(format!("staging failed: {e}")),
                }
            }
            SubReshardCmd::Commit { generation } => {
                let Some(staged) = self.staged.take_if(|s| s.generation == generation) else {
                    return SubReshardReply::Failed(format!("no staged generation {generation}"));
                };
                let (old_gen, old_active) = (node.generation(), node.active_s());
                let old = node.swap_oram(staged.oram);
                node.set_layout(generation, staged.active_s);
                // The new generation must be durable before the ack escapes;
                // a failed persist rolls the swap back, and the old layout
                // keeps serving.
                if let Err(e) = self.hooks.persist(node) {
                    drop(node.swap_oram(old));
                    node.set_layout(old_gen, old_active);
                    self.hooks.discard(generation);
                    return SubReshardReply::Failed(e);
                }
                drop(old);
                self.hooks.discard(old_gen);
                record_flip(generation, staged.active_s);
            }
            SubReshardCmd::Abort { generation } => {
                if self.staged.take_if(|s| s.generation == generation).is_some() {
                    self.hooks.discard(generation);
                    record_abort(generation);
                }
            }
        }
        SubReshardReply::Status(self.status(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VLEN: usize = 8;

    fn objects(ids: std::ops::Range<u64>) -> Vec<StoredObject> {
        ids.map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect()
    }

    fn node() -> SubOramNode {
        let oram = SubOram::new_in_enclave(objects(0..4), VLEN, Key256([2u8; 32]), 16);
        let mut node = SubOramNode::new(oram, 1);
        node.set_layout(3, 2);
        node
    }

    /// Store staging whose persist step fails on demand and which logs
    /// every discarded generation.
    struct Hooks {
        inner: StoreStaging,
        fail_persist: bool,
        discarded: Vec<u64>,
    }

    impl StagingHooks for Hooks {
        fn build(
            &mut self,
            generation: u64,
            objects: Vec<StoredObject>,
        ) -> Result<SubOram, String> {
            self.inner.build(generation, objects)
        }

        fn persist(&mut self, node: &mut SubOramNode) -> Result<(), String> {
            if self.fail_persist {
                return Err("disk full".into());
            }
            commit_storage(node)
        }

        fn discard(&mut self, generation: u64) {
            self.discarded.push(generation);
        }
    }

    fn stager(fail_persist: bool) -> Stager<Hooks> {
        Stager::new(Hooks {
            inner: StoreStaging {
                storage: snoopy_store::StorageKind::Memory,
                value_len: VLEN,
                key: Key256([1u8; 32]),
                lambda: 16,
            },
            fail_persist,
            discarded: Vec::new(),
        })
    }

    fn ids(node: &SubOramNode) -> Vec<u64> {
        let mut out = Vec::new();
        node.oram().stream_objects(&mut |o| out.push(o.id)).unwrap();
        out.sort_unstable();
        out
    }

    fn install(generation: u64, ids: std::ops::Range<u64>) -> SubReshardCmd {
        SubReshardCmd::Install { generation, new_s: 4, objects: objects(ids) }
    }

    fn phase(reply: SubReshardReply) -> Option<ReshardPhase> {
        match reply {
            SubReshardReply::Status(st) => Some(st.phase),
            _ => None,
        }
    }

    #[test]
    fn stale_install_is_refused() {
        let (mut node, mut st) = (node(), stager(false));
        for generation in [2, 3] {
            assert!(matches!(
                st.handle(&mut node, install(generation, 10..12)),
                SubReshardReply::Failed(_)
            ));
        }
        assert_eq!(st.status(&node).phase, ReshardPhase::Idle);
        assert_eq!(phase(st.handle(&mut node, install(4, 10..12))), Some(ReshardPhase::Armed));
    }

    #[test]
    fn commit_for_another_generation_keeps_the_staged_partition() {
        let (mut node, mut st) = (node(), stager(false));
        st.handle(&mut node, install(5, 10..12));
        assert!(matches!(
            st.handle(&mut node, SubReshardCmd::Commit { generation: 4 }),
            SubReshardReply::Failed(_)
        ));
        assert_eq!(st.status(&node).phase, ReshardPhase::Armed);
        assert_eq!(ids(&node), vec![0, 1, 2, 3]);
        // The matching commit still applies the partition staged earlier.
        assert_eq!(
            phase(st.handle(&mut node, SubReshardCmd::Commit { generation: 5 })),
            Some(ReshardPhase::Idle)
        );
        assert_eq!((node.generation(), node.active_s()), (5, 4));
        assert_eq!(ids(&node), vec![10, 11]);
        assert_eq!(st.hooks.discarded, vec![3], "the retired generation is scrubbed");
    }

    #[test]
    fn failed_persist_rolls_the_swap_back() {
        let (mut node, mut st) = (node(), stager(true));
        st.handle(&mut node, install(4, 10..12));
        assert!(matches!(
            st.handle(&mut node, SubReshardCmd::Commit { generation: 4 }),
            SubReshardReply::Failed(_)
        ));
        assert_eq!((node.generation(), node.active_s()), (3, 2), "old layout keeps serving");
        assert_eq!(ids(&node), vec![0, 1, 2, 3]);
        assert_eq!(st.status(&node).phase, ReshardPhase::Idle);
        assert_eq!(st.hooks.discarded, vec![4], "the failed generation is scrubbed");
    }

    #[test]
    fn abort_for_another_generation_leaves_staged_state_alone() {
        let (mut node, mut st) = (node(), stager(false));
        st.handle(&mut node, install(4, 10..12));
        assert_eq!(
            phase(st.handle(&mut node, SubReshardCmd::Abort { generation: 9 })),
            Some(ReshardPhase::Armed)
        );
        assert!(st.hooks.discarded.is_empty());
        assert_eq!(
            phase(st.handle(&mut node, SubReshardCmd::Abort { generation: 4 })),
            Some(ReshardPhase::Idle)
        );
        assert_eq!(st.hooks.discarded, vec![4]);
        assert_eq!(ids(&node), vec![0, 1, 2, 3]);
    }

    #[test]
    fn commit_reply_classification_separates_refusals_from_lost_acks() {
        let st = |generation, active_s| ReshardStatus {
            generation,
            active_s,
            phase: ReshardPhase::Idle,
        };
        let is = |v: Option<CommitVerdict>, want: &str| {
            let got = format!("{v:?}");
            assert!(got.starts_with(want), "{got} is not {want}");
        };
        // The node reports the new generation: flipped, with and without an
        // active_s requirement.
        is(classify_commit(Ok(st(3, 8)), 3, None), "Some(Flipped");
        is(classify_commit(Ok(st(3, 8)), 3, Some(8)), "Some(Flipped");
        // Old generation, or the right generation at the wrong fleet size:
        // the node executed the command and refused — authoritative.
        is(classify_commit(Ok(st(2, 4)), 3, None), "Some(Refused");
        is(classify_commit(Ok(st(3, 4)), 3, Some(8)), "Some(Refused");
        is(classify_commit(Err(RpcFailure::Refused("no staged".into())), 3, None), "Some(Refused");
        // A reply that never arrived must not be read as a refusal: the
        // driver probes instead of aborting.
        is(classify_commit(Err(RpcFailure::Indeterminate("timeout".into())), 3, None), "None");
    }
}
