//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! All Snoopy communication — client ↔ load balancer, load balancer ↔ subORAM —
//! "is encrypted using an authenticated encryption scheme with a nonce to
//! prevent replay attacks" (§3.1). This module provides exactly that channel
//! primitive, plus [`SealedBox`], the framing used by the deployment layers.

use crate::chacha20;
use crate::poly1305::{tags_equal, Poly1305};
use crate::Key256;

/// A 96-bit AEAD nonce. Deployments derive it from `(sender id, sequence
/// number)` so that no (key, nonce) pair ever repeats and stale messages are
/// rejected by sequence-number checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nonce(pub [u8; 12]);

impl Nonce {
    /// Builds a nonce from a 4-byte channel/sender id and an 8-byte counter.
    pub fn from_parts(channel: u32, seq: u64) -> Nonce {
        let mut n = [0u8; 12];
        n[..4].copy_from_slice(&channel.to_le_bytes());
        n[4..].copy_from_slice(&seq.to_le_bytes());
        Nonce(n)
    }
}

/// Errors returned by AEAD opening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// Tag verification failed: the ciphertext was corrupted or forged.
    TagMismatch,
    /// Ciphertext shorter than a tag.
    Truncated,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeadError::TagMismatch => write!(f, "AEAD tag mismatch"),
            AeadError::Truncated => write!(f, "ciphertext shorter than tag"),
        }
    }
}

impl std::error::Error for AeadError {}

/// An AEAD key (ChaCha20-Poly1305).
///
/// ```
/// use snoopy_crypto::{Key256, aead::{AeadKey, Nonce}};
/// let key = AeadKey::new(Key256([7u8; 32]));
/// let nonce = Nonce::from_parts(/*channel*/ 1, /*sequence*/ 0);
/// let sealed = key.seal(nonce, b"header", b"batch payload");
/// assert_eq!(key.open(nonce, b"header", &sealed).unwrap(), b"batch payload");
/// // Any replayed or tampered message fails authentication:
/// assert!(key.open(Nonce::from_parts(1, 1), b"header", &sealed).is_err());
/// ```
#[derive(Clone)]
pub struct AeadKey(Key256);

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AeadKey(<redacted>)")
    }
}

/// Length of a Poly1305 tag.
pub const TAG_LEN: usize = 16;

/// A sealed (encrypted + authenticated) message: ciphertext || 16-byte tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBox {
    /// Ciphertext followed by the 16-byte Poly1305 tag.
    pub bytes: Vec<u8>,
}

impl AeadKey {
    /// Wraps a 256-bit key for AEAD use.
    pub fn new(key: Key256) -> AeadKey {
        AeadKey(key)
    }

    /// Encrypts and authenticates `plaintext` with `aad` as associated data.
    /// A thin wrapper over [`AeadKey::seal_in_place`].
    pub fn seal(&self, nonce: Nonce, aad: &[u8], plaintext: &[u8]) -> SealedBox {
        let mut bytes = Vec::with_capacity(plaintext.len() + TAG_LEN);
        bytes.extend_from_slice(plaintext);
        let tag = self.seal_in_place(nonce, aad, &mut bytes);
        bytes.extend_from_slice(&tag);
        SealedBox { bytes }
    }

    /// Verifies and decrypts a sealed box; returns the plaintext. A thin
    /// wrapper over [`AeadKey::open_in_place`].
    pub fn open(&self, nonce: Nonce, aad: &[u8], sealed: &SealedBox) -> Result<Vec<u8>, AeadError> {
        if sealed.bytes.len() < TAG_LEN {
            return Err(AeadError::Truncated);
        }
        let (ct, tag) = sealed.bytes.split_at(sealed.bytes.len() - TAG_LEN);
        let mut pt = ct.to_vec();
        self.open_in_place(nonce, aad, &mut pt, tag.try_into().unwrap())?;
        Ok(pt)
    }

    /// Encrypts `data` in place and returns its detached 16-byte tag. The
    /// ciphertext and tag are byte-identical to [`AeadKey::seal`]'s.
    pub fn seal_in_place(&self, nonce: Nonce, aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        chacha20::xor_stream(&self.0 .0, 1, &nonce.0, data);
        self.compute_tag(nonce, aad, data)
    }

    /// Verifies `tag` over the ciphertext `data`, then decrypts it in place.
    /// On failure `data` is left untouched (still ciphertext).
    pub fn open_in_place(
        &self,
        nonce: Nonce,
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AeadError> {
        if !tags_equal(&self.compute_tag(nonce, aad, data), tag) {
            return Err(AeadError::TagMismatch);
        }
        chacha20::xor_stream(&self.0 .0, 1, &nonce.0, data);
        Ok(())
    }

    /// RFC 8439 §2.8: Poly1305 over pad16(aad) || pad16(ct) || len(aad) || len(ct),
    /// keyed by the first 32 bytes of keystream block 0. Streams over the
    /// caller's buffers; nothing is concatenated.
    fn compute_tag(&self, nonce: Nonce, aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let block0 = chacha20::block(&self.0 .0, 0, &nonce.0);
        let mut mac = Poly1305::new(block0[..32].try_into().unwrap());
        mac.update_padded(aad);
        mac.update_padded(ct);
        let mut lens = [0u8; 16];
        lens[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
        lens[8..].copy_from_slice(&(ct.len() as u64).to_le_bytes());
        mac.update_padded(&lens);
        mac.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key_bytes = hex("808182838485868788898a8b8c8d8e8f 909192939495969798999a9b9c9d9e9f");
        let mut key = [0u8; 32];
        key.copy_from_slice(&key_bytes);
        let aead = AeadKey::new(Key256(key));
        let nonce_bytes = hex("070000004041424344454647");
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&nonce_bytes);
        let aad = hex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";

        let sealed = aead.seal(Nonce(nonce), &aad, plaintext);
        let expected_ct = hex("d31a8d34648e60db7b86afbc53ef7ec2 a4aded51296e08fea9e2b5a736ee62d6 \
             3dbea45e8ca9671282fafb69da92728b 1a71de0a9e060b2905d6a5b67ecd3b36 \
             92ddbd7f2d778b8c9803aee328091b58 fab324e4fad675945585808b4831d7bc \
             3ff4def08e4b7a9de576d26586cec64b 6116");
        let expected_tag = hex("1ae10b594f09e26a7e902ecbd0600691");
        assert_eq!(&sealed.bytes[..sealed.bytes.len() - 16], &expected_ct[..]);
        assert_eq!(&sealed.bytes[sealed.bytes.len() - 16..], &expected_tag[..]);

        let opened = aead.open(Nonce(nonce), &aad, &sealed).unwrap();
        assert_eq!(&opened, plaintext);
    }

    /// The RFC 8439 §2.8.2 vector through the in-place API.
    #[test]
    fn rfc8439_aead_vector_in_place() {
        let key: [u8; 32] =
            hex("808182838485868788898a8b8c8d8e8f 909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let aead = AeadKey::new(Key256(key));
        let nonce = Nonce(hex("070000004041424344454647").try_into().unwrap());
        let aad = hex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";

        let mut data = plaintext.to_vec();
        let tag = aead.seal_in_place(nonce, &aad, &mut data);
        let expected_ct = hex("d31a8d34648e60db7b86afbc53ef7ec2 a4aded51296e08fea9e2b5a736ee62d6 \
             3dbea45e8ca9671282fafb69da92728b 1a71de0a9e060b2905d6a5b67ecd3b36 \
             92ddbd7f2d778b8c9803aee328091b58 fab324e4fad675945585808b4831d7bc \
             3ff4def08e4b7a9de576d26586cec64b 6116");
        assert_eq!(data, expected_ct);
        assert_eq!(tag.to_vec(), hex("1ae10b594f09e26a7e902ecbd0600691"));

        aead.open_in_place(nonce, &aad, &mut data, &tag).unwrap();
        assert_eq!(&data[..], &plaintext[..]);
    }

    /// The one-shot RFC 8439 §2.8 construction: Poly1305 over the explicitly
    /// concatenated `aad‖pad‖ct‖pad‖lens`. The streaming tag must match it.
    fn reference_seal(key: &[u8; 32], nonce: Nonce, aad: &[u8], pt: &[u8]) -> Vec<u8> {
        let mut ct = pt.to_vec();
        chacha20::xor_stream(key, 1, &nonce.0, &mut ct);
        let block0 = chacha20::block(key, 0, &nonce.0);
        let mut mac_data = aad.to_vec();
        mac_data.resize(mac_data.len().next_multiple_of(16), 0);
        mac_data.extend_from_slice(&ct);
        mac_data.resize(mac_data.len().next_multiple_of(16), 0);
        mac_data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        mac_data.extend_from_slice(&(ct.len() as u64).to_le_bytes());
        let tag = crate::poly1305::poly1305(block0[..32].try_into().unwrap(), &mac_data);
        ct.extend_from_slice(&tag);
        ct
    }

    #[test]
    fn in_place_matches_seal_and_open_for_every_length() {
        let key = [0x5Au8; 32];
        let aead = AeadKey::new(Key256(key));
        let src: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let aad_src: Vec<u8> = (0..40u32).map(|i| (i * 13 + 1) as u8).collect();
        for pt_len in 0..=300usize {
            for aad_len in 0..=40usize {
                let nonce = Nonce::from_parts(pt_len as u32, aad_len as u64);
                let (pt, aad) = (&src[..pt_len], &aad_src[..aad_len]);
                let sealed = aead.seal(nonce, aad, pt);
                assert_eq!(
                    sealed.bytes,
                    reference_seal(&key, nonce, aad, pt),
                    "{pt_len}/{aad_len}"
                );

                let mut data = pt.to_vec();
                let tag = aead.seal_in_place(nonce, aad, &mut data);
                assert_eq!(&sealed.bytes[..pt_len], &data[..], "ct {pt_len}/{aad_len}");
                assert_eq!(&sealed.bytes[pt_len..], &tag[..], "tag {pt_len}/{aad_len}");

                aead.open_in_place(nonce, aad, &mut data, &tag).unwrap();
                assert_eq!(data, pt);
                assert_eq!(aead.open(nonce, aad, &sealed).unwrap(), pt);
            }
        }
    }

    #[test]
    fn in_place_open_rejects_tampering_wrong_nonce_and_wrong_aad() {
        let aead = AeadKey::new(Key256([9u8; 32]));
        let nonce = Nonce::from_parts(4, 77);
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 200] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut ct = pt.clone();
            let tag = aead.seal_in_place(nonce, b"aad", &mut ct);
            let reject = |nonce: Nonce, aad: &[u8], data: &[u8], tag: &[u8; TAG_LEN]| {
                let mut buf = data.to_vec();
                assert_eq!(
                    aead.open_in_place(nonce, aad, &mut buf, tag),
                    Err(AeadError::TagMismatch)
                );
                assert_eq!(buf, data, "a refused open leaves the ciphertext untouched");
            };
            if len > 0 {
                let mut flipped = ct.clone();
                flipped[len / 2] ^= 0x80;
                reject(nonce, b"aad", &flipped, &tag);
            }
            let mut bad_tag = tag;
            bad_tag[15] ^= 1;
            reject(nonce, b"aad", &ct, &bad_tag);
            reject(Nonce::from_parts(4, 78), b"aad", &ct, &tag);
            reject(nonce, b"aae", &ct, &tag);
            reject(nonce, b"", &ct, &tag);
            let mut ok = ct.clone();
            aead.open_in_place(nonce, b"aad", &mut ok, &tag).unwrap();
            assert_eq!(ok, pt);
        }
    }

    #[test]
    fn tamper_detection() {
        let aead = AeadKey::new(Key256([5u8; 32]));
        let nonce = Nonce::from_parts(1, 42);
        let mut sealed = aead.seal(nonce, b"hdr", b"secret payload");
        sealed.bytes[0] ^= 1;
        assert_eq!(aead.open(nonce, b"hdr", &sealed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn wrong_nonce_rejected() {
        let aead = AeadKey::new(Key256([5u8; 32]));
        let sealed = aead.seal(Nonce::from_parts(1, 1), b"", b"payload");
        assert!(aead.open(Nonce::from_parts(1, 2), b"", &sealed).is_err());
    }

    #[test]
    fn wrong_aad_rejected() {
        let aead = AeadKey::new(Key256([5u8; 32]));
        let nonce = Nonce::from_parts(0, 0);
        let sealed = aead.seal(nonce, b"aad-one", b"payload");
        assert!(aead.open(nonce, b"aad-two", &sealed).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let aead = AeadKey::new(Key256([5u8; 32]));
        let sealed = SealedBox { bytes: vec![0u8; 7] };
        assert_eq!(aead.open(Nonce::from_parts(0, 0), b"", &sealed), Err(AeadError::Truncated));
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let aead = AeadKey::new(Key256([8u8; 32]));
        let nonce = Nonce::from_parts(3, 9);
        let sealed = aead.seal(nonce, b"meta", b"");
        assert_eq!(aead.open(nonce, b"meta", &sealed).unwrap(), Vec::<u8>::new());
    }
}
