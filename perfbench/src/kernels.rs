//! Single-kernel timings: host memory bandwidth, the AEAD and keyed hash,
//! and the oblivious kernels at 1 and `nproc` threads on a workload's own
//! sizes. Each figure is the median of a few repetitions.

use crate::stats::median;
use crate::workload::{Rng, LAMBDA, VALUE_LEN};
use snoopy_crypto::aead::{AeadKey, Nonce};
use snoopy_crypto::{Key256, Prg, SipHash24};
use snoopy_enclave::wire::{Request, StoredObject};
use snoopy_obliv::ct::ct_lt_u64;
use snoopy_obliv::{ocompact_adaptive, osort_adaptive, Choice};
use snoopy_suboram::SubOram;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&xs).expect("REPS > 0")
}

/// Host memory copy bandwidth (GB/s): a 32 MiB `copy_from_slice`.
pub fn memcpy_gb_s() -> f64 {
    let src = vec![0x5Au8; 32 << 20];
    let mut dst = vec![0u8; 32 << 20];
    dst.copy_from_slice(&src); // fault the pages in before timing
    median_of(|| {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        src.len() as f64 / t.elapsed().as_nanos() as f64
    })
}

/// AEAD seal and open throughput (MB/s) on `block_bytes` buffers.
pub fn aead_mb_s(block_bytes: usize) -> (f64, f64) {
    let key = AeadKey::new(Key256::random(&mut Prg::from_seed(1)));
    let buf = vec![0xA5u8; block_bytes];
    const N: u64 = 256;
    let seal = median_of(|| {
        let t = Instant::now();
        for i in 0..N {
            black_box(key.seal(Nonce::from_parts(1, i), b"blk", black_box(&buf)));
        }
        (N as usize * block_bytes) as f64 / t.elapsed().as_secs_f64() / 1e6
    });
    let sealed = key.seal(Nonce::from_parts(1, 0), b"blk", &buf);
    let open = median_of(|| {
        let t = Instant::now();
        for _ in 0..N {
            black_box(key.open(Nonce::from_parts(1, 0), b"blk", black_box(&sealed)).ok());
        }
        (N as usize * block_bytes) as f64 / t.elapsed().as_secs_f64() / 1e6
    });
    (seal, open)
}

/// `SipHash24::bin_u64` cost (ns per call).
pub fn siphash_ns(bins: usize) -> f64 {
    let h = SipHash24::from_key256(&Key256::random(&mut Prg::from_seed(2)));
    const N: u64 = 1 << 20;
    median_of(|| {
        let t = Instant::now();
        let mut acc = 0usize;
        for x in 0..N {
            acc = acc.wrapping_add(h.bin_u64(black_box(x), bins));
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64 / N as f64
    })
}

fn random_requests(n: usize, rng: &mut Rng) -> Vec<Request> {
    (0..n).map(|i| Request::read(rng.next_u64() >> 8, VALUE_LEN, i as u64, i as u64)).collect()
}

/// `osort_adaptive` on `n` requests at `threads` threads (ms).
pub fn osort_ms(n: usize, threads: usize, seed: u64) -> f64 {
    let gt = |a: &Request, b: &Request| ct_lt_u64(b.id, a.id);
    let input = random_requests(n, &mut Rng::new(seed));
    median_of(|| {
        let mut items = input.clone();
        let t = Instant::now();
        osort_adaptive(&mut items, &gt, threads);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        black_box(items);
        ms
    })
}

/// `ocompact_adaptive` on `n` requests, about half kept, at `threads`
/// threads (ms).
pub fn ocompact_ms(n: usize, threads: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let input = random_requests(n, &mut rng);
    let keep: Vec<Choice> = (0..n).map(|_| Choice::from_bool(rng.next_u64() & 1 == 1)).collect();
    median_of(|| {
        let mut items = input.clone();
        let mut k = keep.clone();
        let t = Instant::now();
        ocompact_adaptive(&mut items, &mut k, threads);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        black_box(items);
        ms
    })
}

/// `SubOram::batch_access_parallel` over an in-memory partition of
/// `objects`, with a batch of `batch` distinct requests, at `threads`
/// threads (ms). Fewer repetitions: one call scans the whole partition.
pub fn batch_access_ms(objects: &[StoredObject], batch: &[Request], threads: usize) -> f64 {
    let key = Key256::random(&mut Prg::from_seed(3));
    let mut oram = SubOram::new_in_enclave(objects.to_vec(), VALUE_LEN, key, LAMBDA);
    let xs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let out = oram.batch_access_parallel(batch.to_vec(), threads);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            black_box(out.expect("distinct in-range batch"));
            ms
        })
        .collect();
    median(&xs).expect("three samples")
}
