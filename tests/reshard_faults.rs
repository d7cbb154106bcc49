//! Deterministic fault enumeration of the shared reshard driver.
//!
//! The driver runs against an in-memory [`ReshardAdmin`] whose subORAMs are
//! real `SubOramNode`s behind real staging machines, holding real object
//! sets. Balancers are a small model of the epoch loop's reshard states.
//! For every RPC step of a grow and of a shrink, one of three faults hits
//! that step: an in-band refusal, a request lost before it applied, or an
//! ack lost after it applied. Each scenario checks that
//!
//! * an abort goes out only for a failure before the first subORAM commit,
//!   or for an in-band refusal *of* that first commit — never for a lost
//!   commit ack, and never while any subORAM serves the aborted generation;
//! * no run panics;
//! * re-running the driver converges to the target layout;
//! * every original id is stored exactly once, with its value, on the
//!   subORAM the keyed hash assigns it at the target fleet size.

use snoopy_repro::core::reshard::{
    run_reshard, ReshardAdmin, ReshardJob, ReshardReport, RpcFailure, Stager, StoreStaging,
};
use snoopy_repro::core::transport::{
    ReshardCmd, ReshardPhase, ReshardStatus, SubOramNode, SubReshardCmd, SubReshardReply,
};
use snoopy_repro::core::{InProcessCluster, SnoopyConfig, StorageKind};
use snoopy_repro::crypto::Key256;
use snoopy_repro::enclave::wire::StoredObject;
use snoopy_repro::snoopy_lb::partition_objects;
use snoopy_repro::snoopy_suboram::SubOram;
use snoopy_repro::telemetry::events::{self, EventKind, EventRecord};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

const VLEN: usize = 8;
const LAMBDA: u32 = 16;
const NUM_OBJECTS: u64 = 24;
const BALANCERS: usize = 2;
const FLEET: usize = 4;

/// The flight recorder is process-wide: tests that count its events run
/// one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn partition_key() -> Key256 {
    Key256([7u8; 32])
}

fn objects() -> Vec<StoredObject> {
    (0..NUM_OBJECTS).map(|i| StoredObject::new(i, format!("v{i}").as_bytes(), VLEN)).collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    Refuse,
    LoseRequest,
    LoseAck,
}

/// A balancer's reshard states, as the epoch loop keeps them.
struct FakeBalancer {
    generation: u64,
    active_s: usize,
    plan: Option<(u64, usize)>,
    paused: bool,
}

impl FakeBalancer {
    fn status(&self) -> ReshardStatus {
        let phase = match (self.paused, self.plan) {
            (true, _) => ReshardPhase::Paused,
            (false, Some(_)) => ReshardPhase::Armed,
            (false, None) => ReshardPhase::Idle,
        };
        ReshardStatus { generation: self.generation, active_s: self.active_s, phase }
    }

    fn apply(&mut self, cmd: ReshardCmd) -> ReshardStatus {
        let planned = self.plan.map(|(g, _)| g);
        match cmd {
            ReshardCmd::Plan(p) if !self.paused && p.generation > self.generation => {
                self.plan = Some((p.generation, p.new_s));
            }
            ReshardCmd::Commit { generation } if self.paused && planned == Some(generation) => {
                let (g, s) = self.plan.take().expect("plan checked above");
                (self.generation, self.active_s, self.paused) = (g, s, false);
            }
            ReshardCmd::Abort { generation } if planned == Some(generation) => {
                (self.plan, self.paused) = (None, false);
            }
            _ => {}
        }
        self.status()
    }
}

struct FakeCluster {
    balancers: Vec<FakeBalancer>,
    suborams: Vec<(SubOramNode, Stager<StoreStaging>)>,
    /// The RPC step (counted from 0 across a run) that gets a fault.
    fault: Option<(usize, Fault)>,
    /// One line per RPC sent: the node and the command.
    log: Vec<String>,
    aborts: usize,
    violations: Vec<String>,
}

impl FakeCluster {
    fn boot(active: usize) -> FakeCluster {
        let mut parts = partition_objects(objects(), &partition_key(), active);
        parts.resize_with(FLEET, Vec::new);
        let suborams = parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| {
                let oram = SubOram::new_in_enclave(part, VLEN, Key256([10 + i as u8; 32]), LAMBDA);
                let mut node = SubOramNode::new(oram, BALANCERS);
                node.set_layout(0, active);
                let hooks = StoreStaging {
                    storage: StorageKind::Memory,
                    value_len: VLEN,
                    key: Key256([20 + i as u8; 32]),
                    lambda: LAMBDA,
                };
                (node, Stager::new(hooks))
            })
            .collect();
        let balancers = (0..BALANCERS)
            .map(|_| FakeBalancer { generation: 0, active_s: active, plan: None, paused: false })
            .collect();
        FakeCluster {
            balancers,
            suborams,
            fault: None,
            log: Vec::new(),
            aborts: 0,
            violations: Vec::new(),
        }
    }

    /// Sends one RPC through the (possibly faulty) network.
    fn deliver<R>(
        &mut self,
        what: String,
        apply: impl FnOnce(&mut FakeCluster) -> R,
    ) -> Result<R, RpcFailure> {
        let step = self.log.len();
        self.log.push(what);
        match self.fault.filter(|&(k, _)| k == step).map(|(_, f)| f) {
            None => Ok(apply(self)),
            Some(Fault::Refuse) => Err(RpcFailure::Refused("injected refusal".into())),
            Some(Fault::LoseRequest) => Err(RpcFailure::Indeterminate("request lost".into())),
            Some(Fault::LoseAck) => {
                apply(self);
                Err(RpcFailure::Indeterminate("ack lost".into()))
            }
        }
    }

    /// The safety rule an abort must satisfy: no subORAM serves the
    /// generation being aborted, or its peers would drop the staged
    /// partitions holding objects remapped off it.
    fn note_abort(&mut self, generation: u64) {
        self.aborts += 1;
        if self.suborams.iter().any(|(node, _)| node.generation() == generation) {
            self.violations
                .push(format!("abort of generation {generation} after a subORAM flipped"));
        }
    }

    fn run(&mut self, new_s: usize) -> Result<ReshardReport, String> {
        let job = ReshardJob {
            balancers: BALANCERS,
            suborams: FLEET,
            num_objects: NUM_OBJECTS,
            partition_key: partition_key(),
            new_s,
            ttl: Duration::from_secs(30),
        };
        run_reshard(self, &job, &mut |_| {})
    }
}

fn name(cmd: &SubReshardCmd) -> &'static str {
    match cmd {
        SubReshardCmd::Status => "Status",
        SubReshardCmd::Export { .. } => "Export",
        SubReshardCmd::Install { .. } => "Install",
        SubReshardCmd::Commit { .. } => "Commit",
        SubReshardCmd::Abort { .. } => "Abort",
    }
}

impl ReshardAdmin for FakeCluster {
    fn balancer(&mut self, i: usize, cmd: ReshardCmd) -> Result<ReshardStatus, RpcFailure> {
        if let ReshardCmd::Abort { generation } = cmd {
            self.note_abort(generation);
        }
        let what = format!("balancer {i} {cmd:?}");
        self.deliver(what, |c| c.balancers[i].apply(cmd))
    }

    fn suboram(&mut self, i: usize, cmd: SubReshardCmd) -> Result<SubReshardReply, RpcFailure> {
        if let SubReshardCmd::Abort { generation } = cmd {
            self.note_abort(generation);
        }
        let what = format!("suboram {i} {}", name(&cmd));
        self.deliver(what, |c| {
            let (node, stager) = &mut c.suborams[i];
            stager.handle(node, cmd)
        })
    }

    fn at_boundary(&mut self) {
        for b in &mut self.balancers {
            b.paused = b.plan.is_some();
        }
    }
}

/// Checks the cluster serves generation `generation` at `new_s` subORAMs
/// with every object stored once, with its value, where the keyed hash puts
/// it.
fn assert_converged(c: &FakeCluster, generation: u64, new_s: usize, scenario: &str) {
    for (i, b) in c.balancers.iter().enumerate() {
        assert_eq!(
            b.status(),
            ReshardStatus { generation, active_s: new_s, phase: ReshardPhase::Idle },
            "{scenario}: balancer {i}"
        );
    }
    let mut want = partition_objects(objects(), &partition_key(), new_s);
    want.resize_with(FLEET, Vec::new);
    for (i, ((node, stager), want)) in c.suborams.iter().zip(want).enumerate() {
        if i < new_s {
            assert_eq!(
                stager.status(node),
                ReshardStatus { generation, active_s: new_s, phase: ReshardPhase::Idle },
                "{scenario}: suboram {i}"
            );
        }
        let mut got = Vec::new();
        node.oram().stream_objects(&mut |o| got.push(o.clone())).unwrap();
        got.sort_by_key(|o| o.id);
        let mut want = want;
        want.sort_by_key(|o| o.id);
        assert_eq!(got, want, "{scenario}: suboram {i} holds the wrong objects");
    }
}

/// Runs `from -> to` once clean, then once per (step, fault) pair.
fn enumerate_faults(from: usize, to: usize) {
    let mut clean = FakeCluster::boot(from);
    let generation = clean.run(to).expect("clean run").generation;
    assert_converged(&clean, generation, to, "clean run");
    assert_eq!(clean.aborts, 0);
    let first_plan = clean.log.iter().position(|l| l.contains("Plan")).unwrap();
    let first_commit = clean.log.iter().position(|l| l.starts_with("suboram 0 Commit")).unwrap();

    for step in 0..clean.log.len() {
        for fault in [Fault::Refuse, Fault::LoseRequest, Fault::LoseAck] {
            let scenario = format!("{from}->{to}: {fault:?} at step {step} ({})", clean.log[step]);
            let mut c = FakeCluster::boot(from);
            c.fault = Some((step, fault));
            let first = catch_unwind(AssertUnwindSafe(|| c.run(to)))
                .unwrap_or_else(|_| panic!("{scenario}: the driver panicked"));
            let aborted = c.aborts > 0;
            let may_abort = (first_plan..first_commit).contains(&step)
                || (step == first_commit && fault == Fault::Refuse);
            assert_eq!(aborted, may_abort, "{scenario}: abort sent = {aborted}; log {:?}", c.log);

            // Re-run with the network healed until the driver succeeds.
            c.fault = None;
            let mut outcome = first;
            for _ in 0..3 {
                if outcome.is_ok() {
                    break;
                }
                outcome = catch_unwind(AssertUnwindSafe(|| c.run(to)))
                    .unwrap_or_else(|_| panic!("{scenario}: a re-run panicked"));
            }
            let report = outcome.unwrap_or_else(|e| panic!("{scenario}: never converged: {e}"));
            assert!(c.violations.is_empty(), "{scenario}: {:?}", c.violations);
            assert_eq!((report.old_s, report.new_s), (from, to), "{scenario}: report");
            assert_converged(&c, report.generation, to, &scenario);
        }
    }
}

#[test]
fn driver_survives_every_single_fault_in_a_grow_and_a_shrink() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    enumerate_faults(2, 4);
    enumerate_faults(4, 1);
}

/// The sequence number of the newest recorded event, if any.
fn last_seq() -> Option<u64> {
    events::recorder().snapshot().last().map(|r| r.seq)
}

fn reshard_events(since: Option<u64>, kind: EventKind, generation: u64) -> usize {
    let recent: Vec<EventRecord> = events::recorder()
        .snapshot()
        .into_iter()
        .filter(|r| since.is_none_or(|s| r.seq > s))
        .collect();
    recent.iter().filter(|r| r.kind == kind && r.field("generation") == Some(generation)).count()
}

#[test]
fn reshard_events_fire_once_per_node() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mark = last_seq();

    // Channel plane: every balancer and every subORAM that installed a
    // partition records exactly one commit per committed run.
    let cfg = SnoopyConfig::with_machines(BALANCERS, FLEET).active_suborams(2).value_len(VLEN);
    let mut cluster = InProcessCluster::start(cfg, objects(), 5);
    cluster.reshard(4).expect("grow 2->4");
    cluster.reshard(1).expect("shrink 4->1");
    for generation in [1, 2] {
        assert_eq!(reshard_events(mark, EventKind::ReshardCommit, generation), BALANCERS + FLEET);
        assert_eq!(reshard_events(mark, EventKind::ReshardAbort, generation), 0);
    }
    let scrape =
        snoopy_repro::telemetry::slo::parse_prometheus(&cluster.metrics().render_prometheus())
            .unwrap();
    assert_eq!(scrape.sum("snoopy_reshard_generation"), 2.0);
    assert_eq!(scrape.sum("snoopy_active_suborams"), 1.0);
    cluster.shutdown();

    // A refused first commit aborts: each subORAM that dropped a staged
    // partition records exactly one abort, and nothing commits.
    let mut clean = FakeCluster::boot(2);
    clean.run(4).unwrap();
    let first_commit = clean.log.iter().position(|l| l.starts_with("suboram 0 Commit")).unwrap();
    let mark = last_seq();
    let mut c = FakeCluster::boot(2);
    c.fault = Some((first_commit, Fault::Refuse));
    c.run(4).expect_err("a refused first commit fails the run");
    assert_eq!(reshard_events(mark, EventKind::ReshardAbort, 1), FLEET);
    assert_eq!(reshard_events(mark, EventKind::ReshardCommit, 1), 0);
}
