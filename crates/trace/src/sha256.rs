//! A minimal, dependency-free SHA-256 (FIPS 180-4).
//!
//! Replay bundles (`dayu-workflow`'s `.drb` container) chain a SHA-256
//! digest across their sections so tampering and truncation are detectable
//! without re-executing the workload, and the ingest service checks every
//! wire section against its declared digest. The workspace deliberately
//! carries no cryptography dependency, so the compression function lives
//! here, in the root crate, where both the trace store and the bundle
//! writer can reach it. This is an integrity check, not an authentication
//! primitive: there is no secret key anywhere, and none is needed.
//!
//! [`Sha256::update`] hands each run of whole 64-byte blocks to one
//! compression call. On x86-64 CPUs with the SHA extensions (plus SSSE3 and
//! SSE4.1, detected at run time) that call runs the `sha256rnds2` /
//! `sha256msg1` / `sha256msg2` instructions at 5–9× the portable loop's
//! throughput. Everywhere else the portable loop runs; it is also
//! the tests' reference, and both paths give identical digests. The SHA-NI
//! function is a safe `#[target_feature]` fn built only from value
//! intrinsics, so the one `unsafe` in the workspace is the call to it after
//! the features were detected.

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled block, `buf_len` bytes valid.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    len: u64,
}

/// A finished 32-byte digest.
pub type Digest = [u8; 32];

/// A compression function: folds every 64-byte block of the slice (whose
/// length is a multiple of 64) into the state, in order.
type Compress = fn(&mut [u32; 8], &[u8]);

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher in the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Self {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            len: 0,
        }
    }

    /// Absorbs `data` into the running digest.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Pads and returns the final digest, consuming the hasher.
    pub fn finalize(self) -> Digest {
        self.finish(compress_blocks)
    }

    fn absorb(&mut self, mut data: &[u8], compress: Compress) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    fn finish(mut self, compress: Compress) -> Digest {
        // The buffered tail, 0x80, zeros, then the 64-bit big-endian bit
        // length: one block, or two when fewer than 9 bytes are free.
        let mut pad = [0u8; 128];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let end = if self.buf_len < 56 { 64 } else { 128 };
        pad[end - 8..end].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &pad[..end]);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses `blocks` with SHA-NI when the CPU has it, else portably.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        // SAFETY: `sha_ni::compress` requires sha, sse2, ssse3 and sse4.1;
        // `detected` just confirmed sha, ssse3 and sse4.1 on this CPU, and
        // sse2 is part of the x86-64 baseline.
        #[allow(unsafe_code)]
        unsafe {
            sha_ni::compress(state, blocks)
        };
        return;
    }
    compress_portable(state, blocks);
}

/// The FIPS 180-4 compression loop in plain integer code.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (w, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA extensions path.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU runs [`compress`].
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// [`super::compress_portable`] on the SHA instructions. The state
    /// lives in two registers in the order the round instruction wants,
    /// ABEF and CDGH (highest lane first); each message register holds
    /// four schedule words, lowest lane first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks.chunks_exact(64) {
            let mut w = [0i32; 16];
            for (w, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
                *w = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk")) as i32;
            }
            let mut m0 = _mm_set_epi32(w[3], w[2], w[1], w[0]);
            let mut m1 = _mm_set_epi32(w[7], w[6], w[5], w[4]);
            let mut m2 = _mm_set_epi32(w[11], w[10], w[9], w[8]);
            let mut m3 = _mm_set_epi32(w[15], w[14], w[13], w[12]);
            let (abef_in, cdgh_in) = (abef, cdgh);
            for k in K.chunks_exact(4) {
                // Four rounds on m0's words, two per instruction.
                let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
                let wk = _mm_add_epi32(m0, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                // The next four schedule words, W[t] from W[t-16..t].
                let next = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8::<4>(m3, m2)),
                    m3,
                );
                (m0, m1, m2, m3) = (m1, m2, m3, next);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|w| w as u32);
    }
}

/// One-shot digest of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Lowercase hex rendering of a digest, for error messages and manifests.
pub fn hex(digest: &Digest) -> String {
    let mut s = String::with_capacity(64);
    for b in digest {
        use std::fmt::Write as _;
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ChaosRng;

    fn hex_of(data: &[u8]) -> String {
        hex(&sha256(data))
    }

    #[test]
    fn fips_vectors() {
        // FIPS 180-4 / NIST CAVP known-answer vectors.
        assert_eq!(
            hex_of(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex_of(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex_of(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn padding_boundary_vectors() {
        // 55 bytes is the longest message whose padding fits one block;
        // 56..=63 spill the length into a second one.
        let digests = [
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
        ];
        for (len, digest) in [55, 56, 63, 64, 119, 120].into_iter().zip(digests) {
            assert_eq!(hex_of(&vec![b'a'; len]), digest, "{len} x 'a'");
        }
    }

    /// The dispatching hasher (SHA-NI where the CPU has it) against the
    /// portable compression called directly: every length 0..=1100, fed
    /// in one to three `update` calls split at pseudo-random points.
    #[test]
    fn dispatch_matches_portable_at_every_length_and_split() {
        let mut rng = ChaosRng::new(0x9E37_79B9_7F4A_7C15);
        let data: Vec<u8> = (0..1100).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=data.len() {
            let calls = rng.range(1, 4);
            let mut cuts: Vec<usize> = (1..calls)
                .map(|_| rng.range(0, len as u64 + 1) as usize)
                .collect();
            cuts.sort_unstable();
            cuts.push(len);
            let mut fast = Sha256::new();
            let mut portable = Sha256::new();
            let mut from = 0;
            for &to in &cuts {
                fast.update(&data[from..to]);
                portable.absorb(&data[from..to], compress_portable);
                from = to;
            }
            assert_eq!(
                fast.finalize(),
                portable.finish(compress_portable),
                "length {len}, cuts {cuts:?}"
            );
        }
    }

    #[test]
    fn all_lengths_around_block_boundary() {
        // Padding edge cases: every length from 54..=66 hashes without
        // panicking and distinct inputs give distinct digests.
        let mut seen = std::collections::HashSet::new();
        for len in 54..=66 {
            let data = vec![0xA5u8; len];
            assert!(seen.insert(sha256(&data)), "collision at {len}");
        }
    }

    #[test]
    fn hex_renders_64_chars() {
        let d = sha256(b"x");
        assert_eq!(hex(&d).len(), 64);
    }
}
