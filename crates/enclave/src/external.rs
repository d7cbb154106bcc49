//! Integrity-protected external memory (paper §2 "Data integrity", §7).
//!
//! SubORAM partitions usually exceed the EPC, so the implementation keeps
//! objects *outside* the enclave, encrypted, and holds a digest of every
//! block *inside* the enclave: "for memory outside the enclave, we store a
//! digest of each block inside the enclave". A host loader thread streams the
//! next blocks of a linear scan into a shared buffer so the enclave never
//! exits to fetch data.
//!
//! [`ExternalStore`] models exactly that split: `blocks` lives in untrusted
//! territory (an adversary could flip bits — tests do), while `digests` and
//! the AEAD key are enclave state. [`ExternalStore::scan`] is the streaming
//! read path.
//!
//! **The digest is the block's AEAD tag.** [`BlockSealer`] is the sealing
//! discipline shared by both sealed tiers (this store and `snoopy-store`'s
//! disk segments). Block `index` of sealing round `seq` is sealed with
//! ChaCha20-Poly1305 under nonce `(index, seq)` and AAD `index ‖ seq`, and its
//! in-enclave digest is the resulting 16-byte Poly1305 tag. That is enough:
//! `seq` is fresh for every rewrite of a block (a per-block write counter
//! under a per-store salted key here, a random per-scan draw on disk), so no
//! `(key, nonce)` pair ever repeats, and the tag authenticates the
//! ciphertext *and* the `(index, seq)` it was sealed for. Opening first
//! compares the host's stored tag with the in-enclave one — a flipped tag, a
//! block moved from another index, or a stale block from an earlier round
//! fails here — and then AEAD-opens the block, which refuses a ciphertext
//! that does not match that tag. A second keyed hash over the whole sealed
//! block would re-authenticate the same bytes at about the cost of the AEAD
//! again.

use snoopy_crypto::aead::{AeadKey, Nonce, SealedBox, TAG_LEN};
use snoopy_crypto::poly1305::tags_equal;
use snoopy_crypto::rng::RngCore;
use snoopy_crypto::{Key256, Prg};

/// Errors surfaced by the integrity layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// The untrusted block failed digest or AEAD verification.
    Corrupted {
        /// Index of the offending block.
        index: usize,
    },
    /// Block index out of range.
    OutOfRange {
        /// The requested index.
        index: usize,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::Corrupted { index } => {
                write!(f, "block {index} failed integrity check")
            }
            IntegrityError::OutOfRange { index } => write!(f, "block {index} out of range"),
        }
    }
}

impl std::error::Error for IntegrityError {}

/// The in-enclave digest of one sealed block: its Poly1305 tag.
pub type BlockDigest = [u8; TAG_LEN];

/// Seals and opens storage blocks in place, with the block's AEAD tag as its
/// in-enclave digest (see the module docs for why that suffices).
#[derive(Clone, Debug)]
pub struct BlockSealer {
    aead: AeadKey,
}

impl BlockSealer {
    /// A sealer under `key`.
    pub fn new(key: Key256) -> BlockSealer {
        BlockSealer { aead: AeadKey::new(key) }
    }

    fn nonce_aad(index: usize, seq: u64) -> (Nonce, [u8; 16]) {
        let mut aad = [0u8; 16];
        aad[..8].copy_from_slice(&(index as u64).to_le_bytes());
        aad[8..].copy_from_slice(&seq.to_le_bytes());
        (Nonce::from_parts(index as u32, seq), aad)
    }

    /// Encrypts `data` in place as block `index` of sealing round `seq` and
    /// returns its tag: what the host stores beside the ciphertext, and the
    /// block's in-enclave digest. `seq` must never repeat for one index
    /// under one key.
    pub fn seal(&self, index: usize, seq: u64, data: &mut [u8]) -> BlockDigest {
        let (nonce, aad) = Self::nonce_aad(index, seq);
        self.aead.seal_in_place(nonce, &aad, data)
    }

    /// Verifies block `index` of round `seq` and decrypts `data` in place.
    /// The host's stored `tag` must equal the in-enclave `digest`, and must
    /// authenticate `data` under `(index, seq)`; otherwise the block is
    /// refused as [`IntegrityError::Corrupted`] and `data` is left as it was.
    /// A caller rebuilding digests from an authenticated source passes the
    /// stored tag as both.
    pub fn open(
        &self,
        index: usize,
        seq: u64,
        data: &mut [u8],
        tag: &BlockDigest,
        digest: &BlockDigest,
    ) -> Result<(), IntegrityError> {
        if !tags_equal(tag, digest) {
            return Err(IntegrityError::Corrupted { index });
        }
        let (nonce, aad) = Self::nonce_aad(index, seq);
        self.aead
            .open_in_place(nonce, &aad, data, tag)
            .map_err(|_| IntegrityError::Corrupted { index })
    }
}

/// AEAD-sealed blocks in untrusted memory with in-enclave digests.
pub struct ExternalStore {
    /// Untrusted: sealed blocks (ciphertext ‖ tag). Exposed mutably via
    /// [`ExternalStore::untrusted_blocks_mut`] so tests can play adversary.
    blocks: Vec<SealedBox>,
    /// Trusted (in-enclave): the tag of each block's latest seal.
    digests: Vec<BlockDigest>,
    /// Trusted: the sealing key.
    sealer: BlockSealer,
    /// Per-block write counters: the `seq` each block was last sealed
    /// under, so rewrites never reuse a (key, nonce) pair.
    versions: Vec<u64>,
    /// Fixed plaintext block length (public).
    block_len: usize,
}

impl ExternalStore {
    /// Creates a store of `n` blocks, each `block_len` plaintext bytes,
    /// initialized to zeros.
    pub fn new(root_key: &Key256, n: usize, block_len: usize) -> ExternalStore {
        // Write counters restart at zero in every store, and a store is
        // rebuilt from plaintext under the same root key after a restart, so
        // the sealing key takes a fresh salt per store: otherwise two stores
        // would seal different contents under the same (key, nonce) pairs.
        let mut salt = [0u8; 16];
        Prg::from_entropy().fill_bytes(&mut salt);
        let sealer = BlockSealer::new(root_key.derive(b"external-store-aead").derive(&salt));
        let mut blocks = Vec::with_capacity(n);
        let mut digests = Vec::with_capacity(n);
        for i in 0..n {
            let mut bytes = vec![0u8; block_len + TAG_LEN];
            let tag = sealer.seal(i, 0, &mut bytes[..block_len]);
            bytes[block_len..].copy_from_slice(&tag);
            digests.push(tag);
            blocks.push(SealedBox { bytes });
        }
        ExternalStore { blocks, digests, sealer, versions: vec![0; n], block_len }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Plaintext block length.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Writes plaintext to block `index`, sealing it in place in the
    /// untrusted block.
    pub fn put(&mut self, index: usize, plaintext: &[u8]) -> Result<(), IntegrityError> {
        assert_eq!(plaintext.len(), self.block_len, "block length is fixed and public");
        if index >= self.blocks.len() {
            return Err(IntegrityError::OutOfRange { index });
        }
        self.versions[index] += 1;
        let bytes = &mut self.blocks[index].bytes;
        bytes.clear();
        bytes.extend_from_slice(plaintext);
        bytes.resize(self.block_len + TAG_LEN, 0);
        let (data, tag) = bytes.split_at_mut(self.block_len);
        let digest = self.sealer.seal(index, self.versions[index], data);
        tag.copy_from_slice(&digest);
        self.digests[index] = digest;
        Ok(())
    }

    /// Reads and verifies block `index`.
    pub fn get(&self, index: usize) -> Result<Vec<u8>, IntegrityError> {
        let mut out = vec![0u8; self.block_len];
        self.get_into(index, &mut out)?;
        Ok(out)
    }

    /// Reads and verifies block `index` into `out` (`block_len` bytes)
    /// without allocating — the scan path.
    pub fn get_into(&self, index: usize, out: &mut [u8]) -> Result<(), IntegrityError> {
        assert_eq!(out.len(), self.block_len, "block length is fixed and public");
        let sealed = &self.blocks.get(index).ok_or(IntegrityError::OutOfRange { index })?.bytes;
        if sealed.len() != self.block_len + TAG_LEN {
            return Err(IntegrityError::Corrupted { index });
        }
        let (ct, tag) = sealed.split_at(self.block_len);
        out.copy_from_slice(ct);
        self.sealer.open(
            index,
            self.versions[index],
            out,
            tag.try_into().unwrap(),
            &self.digests[index],
        )
    }

    /// Streams every block through `f` in order — the §7 host-loader path.
    /// Verification happens per block; the first corruption aborts the scan.
    pub fn scan(&self, mut f: impl FnMut(usize, &[u8])) -> Result<(), IntegrityError> {
        let mut plain = vec![0u8; self.block_len];
        for i in 0..self.blocks.len() {
            self.get_into(i, &mut plain)?;
            f(i, &plain);
        }
        Ok(())
    }

    /// Adversary access: the raw untrusted blocks. Tests use this to emulate
    /// the cloud attacker who "can view or modify (encrypted) memory outside
    /// the enclaves".
    pub fn untrusted_blocks_mut(&mut self) -> &mut [SealedBox] {
        &mut self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ExternalStore {
        ExternalStore::new(&Key256([1u8; 32]), 8, 64)
    }

    #[test]
    fn roundtrip() {
        let mut s = store();
        let data = vec![0xABu8; 64];
        s.put(3, &data).unwrap();
        assert_eq!(s.get(3).unwrap(), data);
        assert_eq!(s.get(0).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn out_of_range() {
        let mut s = store();
        assert_eq!(s.get(8), Err(IntegrityError::OutOfRange { index: 8 }));
        assert_eq!(s.put(9, &[0u8; 64]), Err(IntegrityError::OutOfRange { index: 9 }));
    }

    #[test]
    fn detects_bit_flip() {
        let mut s = store();
        s.put(2, &[7u8; 64]).unwrap();
        s.untrusted_blocks_mut()[2].bytes[5] ^= 1;
        assert_eq!(s.get(2), Err(IntegrityError::Corrupted { index: 2 }));
    }

    #[test]
    fn detects_block_swap() {
        // Swapping two validly-sealed blocks must still be caught (digests
        // are per-index inside the enclave).
        let mut s = store();
        s.put(0, &[1u8; 64]).unwrap();
        s.put(1, &[2u8; 64]).unwrap();
        s.untrusted_blocks_mut().swap(0, 1);
        assert!(s.get(0).is_err());
        assert!(s.get(1).is_err());
    }

    #[test]
    fn detects_rollback_of_single_block() {
        // Replaying an old sealed block fails the digest check because the
        // enclave's digest tracks the latest version.
        let mut s = store();
        s.put(4, &[1u8; 64]).unwrap();
        let old = s.untrusted_blocks_mut()[4].clone();
        s.put(4, &[2u8; 64]).unwrap();
        s.untrusted_blocks_mut()[4] = old;
        assert_eq!(s.get(4), Err(IntegrityError::Corrupted { index: 4 }));
    }

    #[test]
    fn stores_under_one_root_key_never_share_a_keystream() {
        // A restart rebuilds the store from plaintext under the same root
        // key; its blocks must not be sealed under the earlier store's
        // (key, nonce) pairs.
        let (mut a, mut b) = (store(), store());
        a.put(0, &[0x11; 64]).unwrap();
        b.put(0, &[0x22; 64]).unwrap();
        let (ca, cb) = (&a.untrusted_blocks_mut()[0].bytes, &b.untrusted_blocks_mut()[0].bytes);
        let xor: Vec<u8> = ca[..64].iter().zip(&cb[..64]).map(|(x, y)| x ^ y).collect();
        assert_ne!(xor, vec![0x11 ^ 0x22; 64], "keystream reused across stores");
    }

    #[test]
    fn scan_visits_all_blocks_in_order() {
        let mut s = store();
        for i in 0..8 {
            s.put(i, &[i as u8; 64]).unwrap();
        }
        let mut seen = Vec::new();
        s.scan(|i, data| {
            assert_eq!(data[0], i as u8);
            seen.push(i);
        })
        .unwrap();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn scan_aborts_on_corruption() {
        let mut s = store();
        s.untrusted_blocks_mut()[5].bytes[0] ^= 0xFF;
        let mut count = 0;
        let err = s.scan(|_, _| count += 1).unwrap_err();
        assert_eq!(err, IntegrityError::Corrupted { index: 5 });
        assert_eq!(count, 5);
    }

    #[test]
    #[should_panic(expected = "fixed and public")]
    fn wrong_block_length_panics() {
        let mut s = store();
        let _ = s.put(0, &[0u8; 63]);
    }
}
