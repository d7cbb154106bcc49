//! The traced replay: the same seeded requests, grouped into epochs, sent
//! in-process through the layer sequence a daemon runs — balancer batching,
//! batch-link seal/open, the subORAM node, storage commit and checkpoint
//! where the workload uses them, response links, response matching — with
//! one span around each call. Nothing inside the layers is instrumented;
//! spans wrap the public functions from here.

use crate::stats::Span;
use crate::workload::{Threads, Workload, LAMBDA, VALUE_LEN};
use snoopy_core::link::Link;
use snoopy_core::transport::{BatchOutcome, SubOramNode};
use snoopy_core::{Snoopy, SnoopyConfig};
use snoopy_crypto::{Key256, Prg};
use snoopy_enclave::wire::{encode_response, Request, Response, StoredObject};
use snoopy_lb::{partition_objects, LoadBalancer};
use snoopy_net::checkpoint::{self, StorageSpec};
use snoopy_net::proto;
use snoopy_ohash::OHashTable;
use snoopy_store::{DiskConfig, StorageKind};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records spans in memory; a disabled recorder records nothing, so the
/// untraced pass pays only for the epoch clock.
struct Recorder {
    origin: Instant,
    on: bool,
    /// Every span recorded so far.
    spans: Vec<Span>,
}

impl Recorder {
    fn new(on: bool) -> Recorder {
        Recorder { origin: Instant::now(), on, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle (meaningless when disabled).
    fn enter(&mut self, name: &'static str, parent: Option<usize>, epoch: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, epoch });
        self.spans.len() - 1
    }

    fn exit(&mut self, idx: usize) {
        if self.on {
            self.spans[idx].end_ns = self.now_ns();
        }
    }
}

/// What one replay pass produced.
pub struct ReplayOut {
    /// Spans (empty for an untraced pass).
    pub spans: Vec<Span>,
    /// Matched responses per epoch, in sequence-number order.
    pub responses: Vec<Vec<Response>>,
    /// Wall time of each epoch (ns), traced or not.
    pub epoch_ns: Vec<u64>,
}

/// The initial store every daemon regenerates: object `i` holds `i`'s
/// little-endian bytes.
pub fn initial_objects(n: u64) -> Vec<StoredObject> {
    (0..n).map(|i| StoredObject::new(i, &i.to_le_bytes(), VALUE_LEN)).collect()
}

/// The deployment's partition key, drawn the way the daemons draw it.
pub fn shared_key(seed: u64) -> Key256 {
    Key256::random(&mut Prg::from_seed(seed))
}

/// The disk-tier geometry the cluster's manifest sets.
pub fn disk_config() -> DiskConfig {
    DiskConfig { block_bytes: 4096, buffer_blocks: 64 }
}

struct SubSide {
    node: SubOramNode,
    batch_tx: Link,
    batch_rx: Link,
    resp_tx: Link,
    resp_rx: Link,
    ckpt_key: Key256,
    ckpt_path: PathBuf,
}

/// Builds each subORAM node on the workload's storage tier exactly as
/// `snoopyd --role suboram` does (same partition, same derived keys),
/// plus both ends of its batch and response links.
fn build_subs(w: &Workload, threads: &Threads, seed: u64, dir: &Path) -> io::Result<Vec<SubSide>> {
    let deploy = proto::deployment_key(seed);
    let parts = partition_objects(initial_objects(w.objects), &shared_key(seed), w.suborams);
    let mut subs = Vec::with_capacity(w.suborams);
    for (i, part) in parts.into_iter().enumerate() {
        let mut label = b"suboram-key/".to_vec();
        label.extend_from_slice(&(i as u64).to_le_bytes());
        let spec = match w.storage {
            StorageKind::Disk => {
                StorageSpec::Disk { dir: dir.join(format!("sub{i}")), cfg: disk_config() }
            }
            StorageKind::External => StorageSpec::External,
            StorageKind::Memory => StorageSpec::Memory,
        };
        let oram = spec.fresh_suboram(part, VALUE_LEN, deploy.derive(&label), LAMBDA)?;
        let mut node = SubOramNode::new(oram, 1)
            .with_index(i)
            .with_retain(8)
            .with_threads(threads.sub_threads as usize);
        node.set_layout(0, w.suborams);
        let (batch_tx, resp_rx) = proto::suboram_session_links(&deploy, 0, i, w.suborams, 1);
        let (batch_rx, resp_tx) = proto::suboram_session_links(&deploy, 0, i, w.suborams, 1);
        subs.push(SubSide {
            node,
            batch_tx,
            batch_rx,
            resp_tx,
            resp_rx,
            ckpt_key: checkpoint::checkpoint_key(&deploy, i),
            ckpt_path: dir.join(format!("sub{i}.ckpt")),
        });
    }
    Ok(subs)
}

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Runs `epochs` through a freshly built deployment under `dir`. With
/// `traced`, records the span tree per epoch:
///
/// ```text
/// epoch
///   lb.make_batches
///   link.batches            seal + open of every batch
///   suboram.handle_batch    SubOramNode::handle_stamped_batch, per subORAM
///   store.commit            SubOram::commit_storage, per subORAM
///   net.checkpoint_save     checkpoint::save, per subORAM (if checkpointing)
///   link.responses          seal + open of every response batch
///   lb.match_responses
/// ohash.construct           beside the epoch, on each subORAM's batch
/// net.checkpoint_save       beside the last epoch, per subORAM (if not
///                           checkpointing)
/// ```
///
/// The epoch tree is exactly the daemon's path: like `snoopyd`, every epoch
/// commits storage (a no-op on the memory tier), and only a checkpointing
/// workload saves inside the epoch. The root spans beside it time work the
/// daemon's path hides or skips: `OHashTable::construct` on the same batch
/// (so the linear scan is `handle_batch − construct`), and one checkpoint
/// save of the final state where the workload runs without one.
pub fn replay(
    w: &Workload,
    threads: &Threads,
    seed: u64,
    epochs: &[Vec<Request>],
    dir: &Path,
    traced: bool,
) -> io::Result<ReplayOut> {
    std::fs::create_dir_all(dir)?;
    let mut subs = build_subs(w, threads, seed, dir)?;
    let lb = LoadBalancer::new(&shared_key(seed), w.suborams, VALUE_LEN, LAMBDA)
        .with_threads(threads.lb_threads as usize);
    let mut prg = Prg::from_seed(seed ^ 0x0BA5_E11D);
    let mut rec = Recorder::new(traced);
    let mut out = ReplayOut { spans: Vec::new(), responses: Vec::new(), epoch_ns: Vec::new() };
    for (k, requests) in epochs.iter().enumerate() {
        let e = k as u64 + 1;
        let started = Instant::now();
        let root = rec.enter("epoch", None, e);

        let sp = rec.enter("lb.make_batches", Some(root), e);
        let batches = lb.make_batches(requests).map_err(io_err)?;
        rec.exit(sp);

        let sp = rec.enter("link.batches", Some(root), e);
        let mut opened = Vec::with_capacity(subs.len());
        for (sub, batch) in subs.iter_mut().zip(&batches) {
            let sealed = sub.batch_tx.seal(batch).map_err(io_err)?;
            opened.push(sub.batch_rx.open(&sealed, VALUE_LEN).map_err(io_err)?);
        }
        rec.exit(sp);

        let mut answers = Vec::with_capacity(subs.len());
        for (sub, batch) in subs.iter_mut().zip(opened) {
            let sp = rec.enter("suboram.handle_batch", Some(root), e);
            let outcome = sub.node.handle_stamped_batch(0, e, 0, batch);
            rec.exit(sp);
            let BatchOutcome::Completed(Some(resp)) = outcome else {
                return Err(io_err(format!("subORAM refused replay epoch {e}")));
            };
            answers.push(resp);
            let sp = rec.enter("store.commit", Some(root), e);
            sub.node.oram_mut().commit_storage(e).map_err(io_err)?;
            rec.exit(sp);
            if w.checkpoint {
                let sp = rec.enter("net.checkpoint_save", Some(root), e);
                checkpoint::save(&sub.node, &sub.ckpt_key, &sub.ckpt_path).map_err(io_err)?;
                rec.exit(sp);
            }
        }

        let sp = rec.enter("link.responses", Some(root), e);
        let mut responses = Vec::with_capacity(subs.len());
        for (sub, resp) in subs.iter_mut().zip(&answers) {
            let sealed = sub.resp_tx.seal(resp).map_err(io_err)?;
            responses.push(sub.resp_rx.open(&sealed, VALUE_LEN).map_err(io_err)?);
        }
        rec.exit(sp);

        let sp = rec.enter("lb.match_responses", Some(root), e);
        let mut matched = lb.match_responses(requests, responses);
        rec.exit(sp);
        rec.exit(root);
        out.epoch_ns.push(started.elapsed().as_nanos() as u64);

        if traced {
            for batch in &batches {
                let batch = batch.clone();
                let key = Key256::random(&mut prg);
                let sp = rec.enter("ohash.construct", None, e);
                let table = OHashTable::construct(batch, &key, LAMBDA).map_err(io_err)?;
                rec.exit(sp);
                std::hint::black_box(table);
            }
        }
        matched.sort_by_key(|r| r.seq);
        out.responses.push(matched);
    }
    if traced && !w.checkpoint {
        for sub in &subs {
            let sp = rec.enter("net.checkpoint_save", None, epochs.len() as u64);
            checkpoint::save(&sub.node, &sub.ckpt_key, &sub.ckpt_path).map_err(io_err)?;
            rec.exit(sp);
        }
    }
    out.spans = rec.spans;
    Ok(out)
}

/// Runs the same epochs through the synchronous reference engine
/// (`Snoopy::execute_epoch`) and byte-compares every response with the
/// replay's. Returns how many responses differ (a missing or extra response
/// counts as one each).
pub fn compare_with_reference(
    w: &Workload,
    seed: u64,
    epochs: &[Vec<Request>],
    replayed: &[Vec<Response>],
) -> io::Result<usize> {
    let config = SnoopyConfig::with_machines(1, w.suborams)
        .value_len(VALUE_LEN)
        .lambda(LAMBDA)
        .storage(StorageKind::Memory);
    let mut reference = Snoopy::init(config, initial_objects(w.objects), seed);
    let mut mismatches = 0;
    for (requests, got) in epochs.iter().zip(replayed) {
        let mut want = reference.execute_epoch(vec![requests.clone()]).map_err(io_err)?;
        want.sort_by_key(|r| r.seq);
        mismatches += want.len().abs_diff(got.len());
        mismatches +=
            want.iter().zip(got).filter(|(a, b)| encode_response(a) != encode_response(b)).count();
    }
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{self_time_ns, unattributed_pct};

    fn tiny() -> Workload {
        Workload { objects: 300, replay_epochs: 3, ..crate::workload::all()[1].clone() }
    }

    fn epochs(n: usize) -> Vec<Vec<Request>> {
        (0..n as u64)
            .map(|e| {
                (0..20u64)
                    .map(|j| {
                        let (id, seq) = ((e * 7 + j * 13) % 300, e * 100 + j);
                        if j % 3 == 0 {
                            Request::write(id, &seq.to_le_bytes(), VALUE_LEN, j, seq)
                        } else {
                            Request::read(id, VALUE_LEN, j, seq)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn replay_matches_the_reference_engine_traced_or_not() {
        let (w, t, ep) = (tiny(), Threads::for_host(), epochs(3));
        let dir = snoopy_store::TempDir::new("perfbench-replay").unwrap();
        let traced = replay(&w, &t, 5, &ep, dir.path(), true).unwrap();
        let plain = replay(&w, &t, 5, &ep, dir.path(), false).unwrap();
        assert_eq!(traced.responses, plain.responses);
        assert!(plain.spans.is_empty());
        assert_eq!(compare_with_reference(&w, 5, &ep, &traced.responses).unwrap(), 0);
        // A corrupted response is caught.
        let mut bad = traced.responses.clone();
        bad[1][0].value[0] ^= 1;
        assert_eq!(compare_with_reference(&w, 5, &ep, &bad).unwrap(), 1);
    }

    #[test]
    fn every_epoch_span_holds_the_layer_sequence() {
        let (w, t, ep) = (tiny(), Threads::for_host(), epochs(2));
        let dir = snoopy_store::TempDir::new("perfbench-spans").unwrap();
        let out = replay(&w, &t, 9, &ep, dir.path(), true).unwrap();
        let roots: Vec<usize> =
            (0..out.spans.len()).filter(|&i| out.spans[i].name == "epoch").collect();
        assert_eq!(roots.len(), 2);
        for &r in &roots {
            let kids: Vec<&str> =
                out.spans.iter().filter(|s| s.parent == Some(r)).map(|s| s.name).collect();
            assert_eq!(
                kids,
                [
                    "lb.make_batches",
                    "link.batches",
                    "suboram.handle_batch",
                    "store.commit",
                    "suboram.handle_batch",
                    "store.commit",
                    "link.responses",
                    "lb.match_responses"
                ]
            );
            assert!(self_time_ns(&out.spans, r) <= out.spans[r].dur_ns());
        }
        let beside = out.spans.iter().filter(|s| s.name == "ohash.construct").count();
        assert_eq!(beside, 2 * w.suborams);
        assert!(out
            .spans
            .iter()
            .filter(|s| s.name == "ohash.construct")
            .all(|s| s.parent.is_none()));
        let pct = unattributed_pct(&out.spans, "epoch");
        assert!((0.0..100.0).contains(&pct));
    }
}
