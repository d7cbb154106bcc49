//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Used by [`crate::aead`] to authenticate ciphertexts. The implementation
//! follows the standard 26-bit limb decomposition so all arithmetic stays in
//! `u64`/`u128` without overflow.

/// Computes the 16-byte Poly1305 tag of `msg` under the 32-byte one-time key.
pub fn poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(key);
    for chunk in msg.chunks(16) {
        // A short final chunk gets the "1" byte appended right after it.
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        if chunk.len() == 16 {
            mac.block(&block, 1);
        } else {
            block[chunk.len()] = 1;
            mac.block(&block, 0);
        }
    }
    mac.finish()
}

/// Incremental Poly1305 over 16-byte blocks, for callers that authenticate
/// several disjoint buffers as one message without concatenating them (the
/// AEAD's `aad‖pad‖ct‖pad‖lens`).
pub(crate) struct Poly1305 {
    r: [u64; 5],
    s: [u64; 4],
    h: [u64; 5],
    pad: [u32; 4],
}

impl Poly1305 {
    /// Starts a MAC under the 32-byte one-time key (`r ‖ s`, `r` clamped per
    /// the RFC).
    pub(crate) fn new(key: &[u8; 32]) -> Poly1305 {
        let word = |i: usize| u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap()) as u64;
        // Clamp r and decompose it into five 26-bit limbs.
        let (t0, t1, t2, t3) = (
            word(0) & 0x0fff_ffff,
            word(1) & 0x0fff_fffc,
            word(2) & 0x0fff_fffc,
            word(3) & 0x0fff_fffc,
        );
        let r0 = t0 & 0x3ff_ffff;
        let r1 = ((t0 >> 26) | (t1 << 6)) & 0x3ff_ffff;
        let r2 = ((t1 >> 20) | (t2 << 12)) & 0x3ff_ffff;
        let r3 = ((t2 >> 14) | (t3 << 18)) & 0x3ff_ffff;
        let r4 = (t3 >> 8) & 0x3ff_ffff;
        Poly1305 {
            r: [r0, r1, r2, r3, r4],
            s: [r1 * 5, r2 * 5, r3 * 5, r4 * 5],
            h: [0; 5],
            pad: [word(4) as u32, word(5) as u32, word(6) as u32, word(7) as u32],
        }
    }

    /// Absorbs `data` as a sequence of 16-byte blocks, zero-padding a short
    /// final block to 16 bytes — exactly RFC 8439 §2.8's `pad16`, without
    /// materializing the padding.
    pub(crate) fn update_padded(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(16);
        for chunk in &mut chunks {
            self.block(chunk.try_into().unwrap(), 1);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(rest);
            self.block(&block, 1);
        }
    }

    /// One block step: `h = (h + block + hibit·2^128) · r mod 2^130 − 5`.
    #[inline(always)]
    fn block(&mut self, block: &[u8; 16], hibit: u64) {
        let [r0, r1, r2, r3, r4] = self.r;
        let [s1, s2, s3, s4] = self.s;
        let [mut h0, mut h1, mut h2, mut h3, mut h4] = self.h;

        let t0 = u32::from_le_bytes(block[0..4].try_into().unwrap()) as u64;
        let t1 = u32::from_le_bytes(block[4..8].try_into().unwrap()) as u64;
        let t2 = u32::from_le_bytes(block[8..12].try_into().unwrap()) as u64;
        let t3 = u32::from_le_bytes(block[12..16].try_into().unwrap()) as u64;

        h0 += t0 & 0x3ff_ffff;
        h1 += ((t0 >> 26) | (t1 << 6)) & 0x3ff_ffff;
        h2 += ((t1 >> 20) | (t2 << 12)) & 0x3ff_ffff;
        h3 += ((t2 >> 14) | (t3 << 18)) & 0x3ff_ffff;
        h4 += (t3 >> 8) | (hibit << 24);

        // h *= r (mod 2^130 - 5), schoolbook with the 5*r folding trick.
        // Limbs stay below 2^27 and 5*r below 2^29, so each sum of five
        // products stays below 2^59 and fits a u64.
        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

        // Carry propagation.
        let mut c = d0 >> 26;
        h0 = d0 & 0x3ff_ffff;
        let d1 = d1 + c;
        c = d1 >> 26;
        h1 = d1 & 0x3ff_ffff;
        let d2 = d2 + c;
        c = d2 >> 26;
        h2 = d2 & 0x3ff_ffff;
        let d3 = d3 + c;
        c = d3 >> 26;
        h3 = d3 & 0x3ff_ffff;
        let d4 = d4 + c;
        c = d4 >> 26;
        h4 = d4 & 0x3ff_ffff;
        h0 += c * 5;
        h1 += h0 >> 26;
        h0 &= 0x3ff_ffff;

        self.h = [h0, h1, h2, h3, h4];
    }

    /// Finishes the MAC: full carry, reduction mod 2^130 − 5, plus `s`.
    pub(crate) fn finish(self) -> [u8; 16] {
        let [mut h0, mut h1, mut h2, mut h3, mut h4] = self.h;

        // Full carry.
        let mut c;
        c = h1 >> 26;
        h1 &= 0x3ff_ffff;
        h2 += c;
        c = h2 >> 26;
        h2 &= 0x3ff_ffff;
        h3 += c;
        c = h3 >> 26;
        h3 &= 0x3ff_ffff;
        h4 += c;
        c = h4 >> 26;
        h4 &= 0x3ff_ffff;
        h0 += c * 5;
        c = h0 >> 26;
        h0 &= 0x3ff_ffff;
        h1 += c;

        // Compute h + -p = h - (2^130 - 5) and select it if non-negative.
        let mut g0 = h0.wrapping_add(5);
        c = g0 >> 26;
        g0 &= 0x3ff_ffff;
        let mut g1 = h1.wrapping_add(c);
        c = g1 >> 26;
        g1 &= 0x3ff_ffff;
        let mut g2 = h2.wrapping_add(c);
        c = g2 >> 26;
        g2 &= 0x3ff_ffff;
        let mut g3 = h3.wrapping_add(c);
        c = g3 >> 26;
        g3 &= 0x3ff_ffff;
        let g4 = h4.wrapping_add(c).wrapping_sub(1 << 26);

        // Branch-free select: mask = all-ones if g4 did not underflow.
        let mask = (g4 >> 63).wrapping_sub(1);
        h0 = (h0 & !mask) | (g0 & mask);
        h1 = (h1 & !mask) | (g1 & mask);
        h2 = (h2 & !mask) | (g2 & mask);
        h3 = (h3 & !mask) | (g3 & mask);
        h4 = (h4 & !mask) | (g4 & mask);

        // Serialize h back to four little-endian u32 words.
        let f = [
            (h0 | (h1 << 26)) as u32,
            ((h1 >> 6) | (h2 << 20)) as u32,
            ((h2 >> 12) | (h3 << 14)) as u32,
            ((h3 >> 18) | (h4 << 8)) as u32,
        ];

        // tag = (h + s) mod 2^128
        let mut tag = [0u8; 16];
        let mut acc = 0u64;
        for i in 0..4 {
            acc = (acc >> 32) + f[i] as u64 + self.pad[i] as u64;
            tag[4 * i..4 * i + 4].copy_from_slice(&(acc as u32).to_le_bytes());
        }
        tag
    }
}

/// Constant-time 16-byte tag comparison.
pub fn tags_equal(a: &[u8; 16], b: &[u8; 16]) -> bool {
    let mut diff = 0u8;
    for i in 0..16 {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_tag_vector() {
        let key = hex("85d6be7857556d337f4452fe42d506a8 0103808afb0db2fd4abff6af4149f51b");
        let msg = b"Cryptographic Forum Research Group";
        let tag = poly1305(key.as_slice().try_into().unwrap(), msg);
        assert_eq!(tag.to_vec(), hex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    /// RFC 8439 Appendix A.3 vector #1: all-zero key and message.
    #[test]
    fn rfc8439_a3_zero_vector() {
        let key = [0u8; 32];
        let msg = vec![0u8; 64];
        let tag = poly1305(&key, &msg);
        assert_eq!(tag, [0u8; 16]);
    }

    /// RFC 8439 Appendix A.3 vector #2.
    #[test]
    fn rfc8439_a3_vector2() {
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&hex("36e5f6b5c5e06070f0efca96227a863e"));
        let msg = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        let tag = poly1305(&key, msg);
        assert_eq!(tag.to_vec(), hex("36e5f6b5c5e06070f0efca96227a863e"));
    }

    #[test]
    fn tags_equal_is_correct() {
        let a = [1u8; 16];
        let mut b = a;
        assert!(tags_equal(&a, &b));
        b[15] ^= 1;
        assert!(!tags_equal(&a, &b));
    }

    #[test]
    fn empty_message_tag_is_s() {
        // For an empty message h stays 0, so the tag equals s.
        let mut key = [0u8; 32];
        key[0] = 0xFF; // r != 0 but no blocks are processed
        key[16..].copy_from_slice(&[0xAAu8; 16]);
        let tag = poly1305(&key, b"");
        assert_eq!(tag, [0xAAu8; 16]);
    }
}
