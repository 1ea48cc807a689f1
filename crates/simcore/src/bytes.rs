//! Small-copy primitive for the simulated store pipeline.
//!
//! `copy_from_slice` with a runtime length compiles to a call into libc's
//! `memcpy`. The store pipeline issues tens of millions of 4–32-byte copies
//! per run (arena stores, write-buffer merges, delivery applies), where the
//! call overhead dwarfs the copy itself — profiling a 64-node cell shows the
//! majority of host time inside libc on exactly these calls. Two
//! fixed-size copies per size class keep the copies inline, and a caller
//! whose length is a compile-time constant (a word) keeps only one class.

/// Copies `src` into `dst` (equal lengths) without a libc `memcpy` call for
/// the small sizes the store pipeline produces (word- and block-sized
/// spans). Falls back to `copy_from_slice` beyond 64 bytes, where a real
/// `memcpy` wins.
///
/// A length in `k..=2k` (k = 2, 4, 8, 16, 32) is copied as the first `k`
/// bytes and the last `k`, which overlap when the length is below `2k`:
/// a run-time length costs a few compares, not an indirect jump through a
/// table of sizes.
///
/// # Examples
///
/// ```
/// let mut dst = [0u8; 5];
/// dsnrep_simcore::copy_small(&mut dst, b"abcde");
/// assert_eq!(&dst, b"abcde");
/// ```
///
/// # Panics
///
/// Panics if `dst.len() != src.len()`.
#[inline]
pub fn copy_small(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "copy_small length mismatch");
    let n = src.len();
    if n <= 16 {
        if n >= 8 {
            dst[..8].copy_from_slice(&src[..8]);
            dst[n - 8..].copy_from_slice(&src[n - 8..]);
        } else if n >= 4 {
            dst[..4].copy_from_slice(&src[..4]);
            dst[n - 4..].copy_from_slice(&src[n - 4..]);
        } else if n >= 2 {
            dst[..2].copy_from_slice(&src[..2]);
            dst[n - 2..].copy_from_slice(&src[n - 2..]);
        } else if n == 1 {
            dst[0] = src[0];
        }
    } else if n <= 32 {
        dst[..16].copy_from_slice(&src[..16]);
        dst[n - 16..].copy_from_slice(&src[n - 16..]);
    } else if n <= 64 {
        dst[..32].copy_from_slice(&src[..32]);
        dst[n - 32..].copy_from_slice(&src[n - 32..]);
    } else {
        dst.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_every_length_up_to_96() {
        for len in 0..=96usize {
            let src: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5A).collect();
            let mut dst = vec![0u8; len];
            copy_small(&mut dst, &src);
            assert_eq!(dst, src, "length {len}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_length_mismatch() {
        let mut dst = [0u8; 3];
        copy_small(&mut dst, &[1, 2]);
    }
}
