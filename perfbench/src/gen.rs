//! The open-loop generator: one thread, a few pipelined client sessions,
//! requests issued on a seeded schedule whether or not earlier ones have
//! completed, each timed from when it was due.
//!
//! Every key is pinned to one session (`id % sessions`), and a session's
//! frames reach the balancer in send order, so the arrival order of two
//! operations on one key is their op-index order. With the epoch id every
//! reply carries, that gives each operation the coordinates
//! `snoopy_core::history::check_linearizable` orders by.

use crate::workload::{write_value, Arrival, VALUE_LEN};
use snoopy_core::history::{check_linearizable, OpKind, OpRecord, Violation};
use snoopy_core::link::Link;
use snoopy_enclave::wire::Request;
use snoopy_net::error::NetError;
use snoopy_net::proto::{self, tag, Hello, Role};
use snoopy_net::session::{FrameAssembler, OutBuf, ReadStep};
use std::collections::{HashMap, HashSet};
use std::io::{self, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const READ_BUDGET: usize = 256 << 10;
/// Longest the loop sleeps while idle: bounds how late an arrival can be
/// noticed and how late a reply can be timestamped.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Where an operation stands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpState {
    /// Sent, awaiting its reply.
    Pending,
    /// Replied: the epoch id the reply carried and the returned value.
    Done { epoch: u64, returned: Vec<u8> },
    /// Refused with `Unavailable`, answered for the wrong key, or lost with
    /// its session.
    Failed,
}

/// One issued operation.
pub struct Op {
    /// Object id.
    pub id: u64,
    /// The written value, for writes.
    pub write: Option<Vec<u8>>,
    /// Measurement phase the op belongs to (`None`: not measured).
    pub phase: Option<usize>,
    /// When the schedule said it was due.
    pub due: Instant,
    /// When its reply arrived.
    pub done_at: Option<Instant>,
    /// Outcome.
    pub state: OpState,
}

impl Op {
    /// Latency from due time to reply (ms), if it completed.
    pub fn latency_ms(&self) -> Option<f64> {
        match self.state {
            OpState::Done { .. } => self.done_at.map(|t| (t - self.due).as_secs_f64() * 1e3),
            _ => None,
        }
    }
}

struct Session {
    stream: TcpStream,
    req_link: Link,
    resp_link: Link,
    assembler: FrameAssembler,
    out: OutBuf,
    staged: Vec<Request>,
    /// Ops (by sequence number) sent and not yet answered.
    pending: HashSet<usize>,
    dead: bool,
}

/// The generator: its sessions and the full history of the run.
pub struct Gen {
    sessions: Vec<Session>,
    /// Every operation issued, indexed by its sequence number.
    pub ops: Vec<Op>,
}

impl Gen {
    /// Opens `n` client sessions to the balancer at `addr`.
    pub fn connect(addr: &str, seed: u64, n: usize) -> io::Result<Gen> {
        let deploy = proto::deployment_key(seed);
        let mut sessions = Vec::with_capacity(n);
        for _ in 0..n {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let hello = Hello::new(Role::Client, 0);
            let body = hello.encode();
            let mut frame = Vec::with_capacity(5 + body.len());
            frame.extend_from_slice(&(1 + body.len() as u32).to_le_bytes());
            frame.push(tag::HELLO);
            frame.extend_from_slice(&body);
            stream.write_all(&frame)?;
            stream.set_nonblocking(true)?;
            let (req_link, resp_link) = proto::client_session_links(&deploy, 0, hello.session);
            sessions.push(Session {
                stream,
                req_link,
                resp_link,
                assembler: FrameAssembler::new(),
                out: OutBuf::new(256 << 10, 64 << 20),
                staged: Vec::new(),
                pending: HashSet::new(),
                dead: false,
            });
        }
        Ok(Gen { sessions, ops: Vec::new() })
    }

    /// Stages one operation on its key's session (sealed at the next flush).
    fn stage(&mut self, id: u64, write: bool, due: Instant, phase: Option<usize>) -> usize {
        let seq = self.ops.len() as u64;
        let s = (id % self.sessions.len() as u64) as usize;
        let write = write.then(|| write_value(seq));
        let req = match &write {
            Some(v) => Request::write(id, v, VALUE_LEN, 0, seq),
            None => Request::read(id, VALUE_LEN, 0, seq),
        };
        self.ops.push(Op { id, write, phase, due, done_at: None, state: OpState::Pending });
        let sess = &mut self.sessions[s];
        if sess.dead {
            self.ops[seq as usize].state = OpState::Failed;
        } else {
            sess.staged.push(req);
            sess.pending.insert(seq as usize);
        }
        seq as usize
    }

    /// Seals each session's staged requests into one frame.
    fn flush(&mut self) {
        for s in &mut self.sessions {
            if s.staged.is_empty() || s.dead {
                continue;
            }
            let batch = std::mem::take(&mut s.staged);
            let ok = match s.req_link.seal(&batch) {
                Ok(sealed) => s.out.push_frame(tag::CLIENT_REQ, &sealed.bytes).is_ok(),
                Err(_) => false,
            };
            if !ok {
                kill(s, &mut self.ops);
            }
        }
    }

    /// One I/O sweep over every session. Returns whether anything moved.
    fn poll(&mut self) -> bool {
        let mut progressed = false;
        for s in &mut self.sessions {
            if s.dead {
                continue;
            }
            if !s.out.is_empty() {
                match s.out.drain_into(&mut s.stream) {
                    Ok(n) => progressed |= n > 0,
                    Err(_) => {
                        kill(s, &mut self.ops);
                        continue;
                    }
                }
            }
            if s.pending.is_empty() {
                continue;
            }
            let (frames, eof) = match s.assembler.read_from(&mut s.stream, READ_BUDGET) {
                Ok(ReadStep::Frames(f)) => (f, false),
                Ok(ReadStep::Eof(f)) => (f, true),
                Err(_) => (Vec::new(), true),
            };
            let now = Instant::now();
            for (t, body) in frames {
                progressed = true;
                if !on_frame(s, t, &body, now, &mut self.ops) {
                    kill(s, &mut self.ops);
                    break;
                }
            }
            if eof {
                kill(s, &mut self.ops);
            }
        }
        progressed
    }

    /// Issues `plan` open-loop from `start` (each arrival at `start +
    /// due_ns`), tagging ops with `phase`, and keeps servicing replies.
    /// Returns the lateness (ms) of every send: how long after its due time
    /// each request was sealed onto its session.
    pub fn run(&mut self, plan: &[Arrival], start: Instant, phase: Option<usize>) -> Vec<f64> {
        let mut late = Vec::with_capacity(plan.len());
        let mut next = 0;
        while next < plan.len() {
            let now = Instant::now();
            while next < plan.len() {
                let due = start + Duration::from_nanos(plan[next].due_ns);
                if due > now {
                    break;
                }
                self.stage(plan[next].id, plan[next].write, due, phase);
                late.push((now - due).as_secs_f64() * 1e3);
                next += 1;
            }
            self.flush();
            let progressed = self.poll();
            if !progressed && next < plan.len() {
                let due = start + Duration::from_nanos(plan[next].due_ns);
                let wait = due.saturating_duration_since(Instant::now()).min(IDLE_SLEEP);
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
        }
        late
    }

    /// Issues one read now and services the sessions until it is answered
    /// or `timeout` passes. Returns whether it completed.
    pub fn probe(&mut self, id: u64, timeout: Duration) -> bool {
        let now = Instant::now();
        let op = self.stage(id, false, now, None);
        self.flush();
        let deadline = now + timeout;
        while self.ops[op].state == OpState::Pending && Instant::now() < deadline {
            if !self.poll() {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        matches!(self.ops[op].state, OpState::Done { .. })
    }

    /// Services replies until nothing is pending or `timeout` passes.
    pub fn drain(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while self.sessions.iter().any(|s| !s.dead && !s.pending.is_empty())
            && Instant::now() < deadline
        {
            if !self.poll() {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }

    /// Ends the run: operations still pending count as failed (timed out).
    pub fn finish(&mut self) {
        for op in &mut self.ops {
            if op.state == OpState::Pending {
                op.state = OpState::Failed;
            }
        }
    }

    /// Operations that did not complete correctly.
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| o.state == OpState::Failed).count()
    }

    /// Checks the whole history for linearizability from the manifest's
    /// initial store (object `i` holds `i`'s little-endian bytes). A write
    /// contributes its write and, as a read at the same coordinates, the
    /// pre-write value it returned.
    pub fn check_history(&self) -> Result<(), Violation> {
        let mut records = Vec::new();
        let mut initial = HashMap::new();
        for (seq, op) in self.ops.iter().enumerate() {
            let OpState::Done { epoch, returned } = &op.state else { continue };
            initial.entry(op.id).or_insert_with(|| {
                let mut v = vec![0u8; VALUE_LEN];
                v[..8].copy_from_slice(&op.id.to_le_bytes());
                v
            });
            let at = |kind| OpRecord { epoch: *epoch, lb: 0, arrival: seq as u64, id: op.id, kind };
            records.push(at(OpKind::Read { returned: returned.clone() }));
            if let Some(v) = &op.write {
                records.push(at(OpKind::Write { value: v.clone() }));
            }
        }
        check_linearizable(&records, &initial, VALUE_LEN)
    }
}

/// Marks every pending op of a dead session failed.
fn kill(s: &mut Session, ops: &mut [Op]) {
    s.dead = true;
    for idx in s.pending.drain() {
        ops[idx].state = OpState::Failed;
    }
}

/// Handles one frame from the balancer. Returns `false` on a protocol
/// error that ends the session.
fn on_frame(s: &mut Session, t: u8, body: &[u8], now: Instant, ops: &mut [Op]) -> bool {
    match t {
        tag::CLIENT_RESP => {
            let Some((epoch, sealed)) = proto::decode_epoch_sealed(body) else { return false };
            let Ok(batch) = s.resp_link.open_responses(&sealed, VALUE_LEN) else { return false };
            for resp in batch {
                let idx = resp.seq as usize;
                if !s.pending.remove(&idx) {
                    continue;
                }
                let op = &mut ops[idx];
                op.done_at = Some(now);
                op.state = if resp.id == op.id {
                    OpState::Done { epoch, returned: resp.value }
                } else {
                    OpState::Failed
                };
            }
            true
        }
        tag::CLIENT_FAIL => {
            if let Ok((seq, _)) = NetError::from_client_fail(body) {
                if s.pending.remove(&(seq as usize)) {
                    ops[seq as usize].state = OpState::Failed;
                }
            }
            true
        }
        _ => false,
    }
}
