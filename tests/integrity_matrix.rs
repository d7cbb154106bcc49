//! Integrity matrix for the sealed storage tiers (external memory and disk
//! segments). Each block's in-enclave digest is its AEAD tag, so every way
//! the host can touch a sealed block must still be refused: on the next scan
//! with `Integrity(Corrupted { index })` naming the block, or, for a disk
//! segment reopened after a restart, with `InvalidData` from
//! `open_suboram_disk`.

use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use snoopy_crypto::Key256;
use snoopy_enclave::external::IntegrityError;
use snoopy_enclave::wire::{Request, StoredObject};
use snoopy_store::{build_suboram_disk, open_suboram_disk, DiskConfig, TempDir};
use snoopy_suboram::{SubOram, SubOramError};

const VLEN: usize = 24;
const OBJECTS: u64 = 100;
const TAG: usize = 16;
/// 256 B blocks of 8 objects, 4-block buffer: 13 blocks, so the disk tier
/// streams instead of holding the partition resident.
const DISK: DiskConfig = DiskConfig { block_bytes: 256, buffer_blocks: 4 };

fn key() -> Key256 {
    Key256([7u8; 32])
}

fn objects() -> Vec<StoredObject> {
    (0..OBJECTS).map(|i| StoredObject::new(i, &[(i % 251) as u8; 4], VLEN)).collect()
}

/// A sealed tier and the public geometry of its untrusted image: a header
/// (disk segments only) followed by `nblocks` blocks of ciphertext ‖ tag.
struct Tier {
    name: &'static str,
    sub: SubOram,
    nblocks: usize,
    sealed_len: usize,
    _dir: Option<TempDir>,
}

impl Tier {
    fn external() -> Tier {
        Tier {
            name: "external",
            sub: SubOram::new_external(objects(), VLEN, key(), 128),
            nblocks: OBJECTS as usize,
            sealed_len: 8 + VLEN + TAG,
            _dir: None,
        }
    }

    fn disk() -> Tier {
        let dir = TempDir::new("integrity-matrix").unwrap();
        let sub = build_suboram_disk(dir.path(), objects(), VLEN, DISK, key(), 128).unwrap();
        let per_block = DISK.block_bytes / (8 + VLEN);
        Tier {
            name: "disk",
            sub,
            nblocks: (OBJECTS as usize).div_ceil(per_block),
            sealed_len: per_block * (8 + VLEN) + TAG,
            _dir: Some(dir),
        }
    }

    fn image(&mut self) -> Vec<u8> {
        self.sub.untrusted_image().expect("sealed tiers expose their untrusted bytes")
    }

    /// Byte range of block `i` in an image of this tier.
    fn block(&self, image: &[u8], i: usize) -> Range<usize> {
        let header = image.len() - self.nblocks * self.sealed_len;
        header + i * self.sealed_len..header + (i + 1) * self.sealed_len
    }

    /// Rewrites the untrusted bytes with `edit` applied.
    fn tamper(&mut self, edit: impl FnOnce(&Tier, &mut Vec<u8>)) {
        let mut image = self.image();
        edit(self, &mut image);
        assert!(self.sub.restore_untrusted_image(&image), "{}: image geometry", self.name);
    }

    fn batch(&mut self, seq: u64) -> Result<Vec<Request>, SubOramError> {
        self.sub.batch_access(vec![
            Request::write(3, &[seq as u8; 4], VLEN, 0, seq),
            Request::read(60, VLEN, 1, seq),
        ])
    }

    /// The next scan must refuse block `index`, and keep refusing.
    fn assert_refused(&mut self, index: usize, case: &str) {
        let want = SubOramError::Integrity(IntegrityError::Corrupted { index });
        assert_eq!(self.batch(100).unwrap_err(), want, "{}: {case}", self.name);
        assert_eq!(self.batch(101).unwrap_err(), want, "{}: {case} (fail-stop)", self.name);
    }
}

fn tiers() -> [fn() -> Tier; 2] {
    [Tier::external, Tier::disk]
}

#[test]
fn ciphertext_flip_with_intact_tag_is_refused() {
    for tier in tiers() {
        let mut t = tier();
        t.batch(0).unwrap();
        t.tamper(|t, img| {
            let r = t.block(img, 5);
            img[r.start + 3] ^= 0x40;
        });
        t.assert_refused(5, "ciphertext byte flipped");
    }
}

#[test]
fn flipped_tag_is_refused() {
    for tier in tiers() {
        let mut t = tier();
        t.batch(0).unwrap();
        t.tamper(|t, img| {
            let r = t.block(img, 7);
            img[r.end - 1] ^= 1;
        });
        t.assert_refused(7, "tag flipped");
    }
}

#[test]
fn swapped_valid_blocks_are_refused() {
    for tier in tiers() {
        let mut t = tier();
        t.batch(0).unwrap();
        t.tamper(|t, img| {
            let (a, b) = (t.block(img, 2), t.block(img, 9));
            let block_a = img[a.clone()].to_vec();
            img.copy_within(b.clone(), a.start);
            img[b].copy_from_slice(&block_a);
        });
        t.assert_refused(2, "blocks 2 and 9 swapped");
    }
}

#[test]
fn stale_block_from_the_previous_scan_is_refused() {
    for tier in tiers() {
        let mut t = tier();
        t.batch(0).unwrap();
        let previous = t.image();
        t.batch(1).unwrap();
        t.tamper(|t, img| {
            let r = t.block(img, 4);
            img[r.clone()].copy_from_slice(&previous[t.block(&previous, 4)]);
        });
        t.assert_refused(4, "block 4 replaced by its previous-scan copy");
    }
}

/// Commits two generations of a disk partition, then hands the committed
/// segment to `edit` and reopens it as a restart would.
fn reopen_after(edit: impl FnOnce(&mut Vec<u8>, &dyn Fn(usize) -> Range<usize>, &[u8])) {
    let dir = TempDir::new("integrity-matrix-reopen").unwrap();
    let mut sub = build_suboram_disk(dir.path(), objects(), VLEN, DISK, key(), 128).unwrap();
    sub.batch_access(vec![Request::write(3, &[1; 4], VLEN, 0, 0)]).unwrap();
    let g1 = sub.commit_storage(1).unwrap().unwrap();
    let previous = fs::read(segment(dir.path(), g1.generation)).unwrap();
    sub.batch_access(vec![Request::write(3, &[2; 4], VLEN, 0, 1)]).unwrap();
    let g2 = sub.commit_storage(2).unwrap().unwrap();
    drop(sub);

    let path = segment(dir.path(), g2.generation);
    let mut image = fs::read(&path).unwrap();
    let per_block = DISK.block_bytes / (8 + VLEN);
    let sealed_len = per_block * (8 + VLEN) + TAG;
    let header = image.len() - (OBJECTS as usize).div_ceil(per_block) * sealed_len;
    let block = move |i: usize| header + i * sealed_len..header + (i + 1) * sealed_len;
    edit(&mut image, &block, &previous);
    fs::write(&path, &image).unwrap();
    match open_suboram_disk(dir.path(), VLEN, DISK, key(), 128, g2) {
        Ok(_) => panic!("a tampered segment was reopened"),
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
    }
}

fn segment(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("gen-{generation}.seg"))
}

#[test]
fn reopened_segment_with_an_altered_block_body_is_refused() {
    // The tags are untouched, so the root digest over them still matches:
    // only opening every block at boot catches this.
    reopen_after(|img, block, _| img[block(6).start + 10] ^= 0x08);
}

#[test]
fn reopened_segment_with_an_altered_tag_swapped_or_stale_block_is_refused() {
    reopen_after(|img, block, _| img[block(6).end - 2] ^= 0x08);
    reopen_after(|img, block, _| {
        let (a, b) = (block(1), block(8));
        let block_a = img[a.clone()].to_vec();
        img.copy_within(b.clone(), a.start);
        img[b].copy_from_slice(&block_a);
    });
    reopen_after(|img, block, previous| {
        img[block(3)].copy_from_slice(&previous[block(3)]);
    });
}

#[test]
fn untouched_segment_reopens_and_serves() {
    let dir = TempDir::new("integrity-matrix-control").unwrap();
    let mut sub = build_suboram_disk(dir.path(), objects(), VLEN, DISK, key(), 128).unwrap();
    sub.batch_access(vec![Request::write(3, &[9; 4], VLEN, 0, 0)]).unwrap();
    let gen = sub.commit_storage(1).unwrap().unwrap();
    drop(sub);
    let mut sub = open_suboram_disk(dir.path(), VLEN, DISK, key(), 128, gen).unwrap();
    let out = sub.batch_access(vec![Request::read(3, VLEN, 0, 1)]).unwrap();
    assert_eq!(&out[0].value[..4], &[9; 4]);
    // The matrix's tampering helpers address the same bytes the tiers seal.
    for tier in tiers() {
        let mut t = tier();
        let image = t.image();
        assert_eq!(t.block(&image, t.nblocks - 1).end, image.len(), "{}", t.name);
    }
}
