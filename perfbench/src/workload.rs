//! The benchmark's workloads and the seeded inputs each one generates.

use snoopy_store::StorageKind;

/// The paper's object size (bytes).
pub const VALUE_LEN: usize = 160;
/// Security parameter λ.
pub const LAMBDA: u32 = 128;
/// Balancer epoch length (ms).
pub const EPOCH_MS: u64 = 50;
/// Ladder latency limit: p99 at or below three epochs.
pub const LADDER_LIMIT_MS: f64 = 3.0 * EPOCH_MS as f64;

/// One cluster shape plus the traffic driven against it.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// SubORAM daemons (the cluster always has one balancer).
    pub suborams: usize,
    /// Objects in the store.
    pub objects: u64,
    /// SubORAM storage tier.
    pub storage: StorageKind,
    /// Whether subORAMs run with `--checkpoint` (a sealed save per epoch).
    pub checkpoint: bool,
    /// Zipf exponent of key popularity; `0` is uniform.
    pub zipf_theta: f64,
    /// Share of requests that are writes.
    pub write_frac: f64,
    /// The two fixed offered rates (requests/s).
    pub lo_rps: f64,
    /// See `lo_rps`.
    pub hi_rps: f64,
    /// Rate ladder for `max_rate_rps` (empty: no ladder on this workload).
    pub ladder_rps: &'static [f64],
    /// Epochs the traced replay runs.
    pub replay_epochs: usize,
}

/// Every workload the benchmark knows.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "scan_heavy",
            suborams: 1,
            objects: 1 << 17,
            storage: StorageKind::Memory,
            checkpoint: false,
            zipf_theta: 0.0,
            write_frac: 0.05,
            lo_rps: 200.0,
            hi_rps: 800.0,
            ladder_rps: &[],
            replay_epochs: 6,
        },
        Workload {
            name: "batch_heavy",
            suborams: 2,
            objects: 4096,
            storage: StorageKind::Memory,
            checkpoint: false,
            zipf_theta: 0.99,
            write_frac: 0.10,
            lo_rps: 2000.0,
            hi_rps: 4000.0,
            ladder_rps: &[8000.0, 12000.0, 16000.0, 20000.0, 24000.0, 32000.0],
            replay_epochs: 24,
        },
        Workload {
            name: "disk_stream",
            suborams: 1,
            objects: 1 << 15,
            storage: StorageKind::Disk,
            checkpoint: true,
            zipf_theta: 0.0,
            write_frac: 0.50,
            lo_rps: 250.0,
            hi_rps: 500.0,
            ladder_rps: &[],
            replay_epochs: 8,
        },
    ]
}

/// Thread settings handed to the daemons (recorded with every result).
#[derive(Clone, Debug)]
pub struct Threads {
    /// Balancer enclave threads for oblivious sort/compaction.
    pub lb_threads: u32,
    /// SubORAM enclave threads for the linear scan.
    pub sub_threads: u32,
    /// Reactor worker pool size (`SNOOPY_NET_WORKERS`).
    pub net_workers: usize,
}

impl Threads {
    /// One thread per kernel and one reactor worker: on a 2-core host the
    /// scan owns one core and the balancer plus generator share the other.
    pub fn for_host() -> Threads {
        Threads { lb_threads: 1, sub_threads: 1, net_workers: 1 }
    }
}

/// xorshift64* — deterministic and dependency-free.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` (any value, including 0).
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Key popularity: uniform, or Zipf(θ) by inverse-CDF table.
pub enum Keys {
    /// Every key equally likely.
    Uniform(u64),
    /// Cumulative Zipf weights over `[0, n)`.
    Zipf(Vec<f64>),
}

impl Keys {
    /// The distribution for `w`.
    pub fn for_workload(w: &Workload) -> Keys {
        if w.zipf_theta == 0.0 {
            return Keys::Uniform(w.objects);
        }
        let mut cdf = Vec::with_capacity(w.objects as usize);
        let mut acc = 0.0;
        for i in 1..=w.objects {
            acc += 1.0 / (i as f64).powf(w.zipf_theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Keys::Zipf(cdf)
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            Keys::Uniform(n) => rng.next_u64() % n,
            Keys::Zipf(cdf) => {
                let u = rng.next_f64();
                (cdf.partition_point(|&c| c < u) as u64).min(cdf.len() as u64 - 1)
            }
        }
    }
}

/// The value the write with sequence number `seq` stores: unique per
/// write, so every read names the exact write it observed.
pub fn write_value(seq: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_LEN];
    v[..8].copy_from_slice(&(seq + 1).to_le_bytes());
    v
}

/// One scheduled request: due `due_ns` after its phase starts.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Offset from the phase start (ns).
    pub due_ns: u64,
    /// Object id.
    pub id: u64,
    /// Whether it writes (the payload is derived from its op index).
    pub write: bool,
}

/// A Poisson arrival schedule at `rate_rps` for `secs` seconds: exponential
/// inter-arrival gaps, keys from `keys`, writes with probability
/// `write_frac`. Fully determined by the generator state.
pub fn schedule(
    rng: &mut Rng,
    keys: &Keys,
    rate_rps: f64,
    secs: f64,
    write_frac: f64,
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity((rate_rps * secs * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_rps;
        if t >= secs {
            return out;
        }
        let id = keys.sample(rng);
        let write = rng.next_f64() < write_frac;
        out.push(Arrival { due_ns: (t * 1e9) as u64, id, write });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_hit_the_rate() {
        let w = &all()[1];
        let keys = Keys::for_workload(w);
        let a = schedule(&mut Rng::new(3), &keys, 2000.0, 5.0, 0.1);
        let b = schedule(&mut Rng::new(3), &keys, 2000.0, 5.0, 0.1);
        let c = schedule(&mut Rng::new(4), &keys, 2000.0, 5.0, 0.1);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.due_ns == y.due_ns && x.id == y.id));
        assert_ne!(a.len(), c.len());
        assert!((a.len() as f64 - 10_000.0).abs() < 400.0, "{}", a.len());
        assert!(a.iter().all(|x| x.id < w.objects));
        assert!(a.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
    }
}
