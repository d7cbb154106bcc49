//! Keeps every CPU out of halt while a memory-tier cluster serves traffic.
//!
//! On a shared VM host, a vCPU that halts because all its threads sleep must
//! be scheduled again by the host before it runs the next wakeup. The
//! daemons' reactors park and wake thousands of times a second, so every hop
//! of an epoch (tick, balancer, subORAMs, replies) can pay that host delay,
//! which the guest reports as steal time; latency then follows the
//! neighbours' load more than the program's. One spinner thread per CPU at
//! `SCHED_IDLE` keeps the vCPUs running, as `idle=poll` would, and gives way
//! to any other runnable thread at once. Daemons are spawned from the main
//! thread, so they do not inherit the policy; no metric counts the
//! spinners' CPU (`cpu_ms_per_req` reads the daemons' own times).
//!
//! Runs that do disk I/O go without: with both vCPUs always busy, the
//! hypervisor's block-device emulation, which shares the host CPUs with
//! them, fell behind, and disk-tier subORAMs stalled for seconds waiting on
//! page I/O until requests timed out.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// `SCHED_IDLE` from `<sched.h>`: runs only when nothing else is runnable.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Running spinners; stopped and joined on drop.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// Starts `n` spinners. Returns `None`, with none left running, if the
    /// OS refuses `SCHED_IDLE`: a spinner at normal priority would take CPU
    /// from the daemons instead of filling idle time.
    pub fn start(n: usize) -> Option<Spinners> {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let threads = (0..n)
            .map(|_| {
                let (stop, tx) = (stop.clone(), tx.clone());
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: pid 0 names the calling thread, and `param`
                    // outlives the call, which only reads it.
                    let ok = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    let _ = tx.send(ok);
                    while ok && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let spinners = Spinners { stop, threads };
        let all_idle = rx.iter().take(n).filter(|&ok| ok).count() == n;
        all_idle.then_some(spinners)
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
