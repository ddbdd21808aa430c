//! The output check: every measured evaluation is compared against the
//! JPStream-class engine (`jpstream`), which reads the input character by
//! character with no bitmaps and no fast-forwarding, so it shares none of
//! the machinery the benchmark measures.
//!
//! A result is summarised as a [`Digest`]: the match count plus an FNV-1a
//! 64 hash over every match's bytes, each followed by `\n`, in record
//! order. That byte stream is exactly the body `jsonski serve` returns for
//! a query, so the same digest checks library runs and served responses.

use jpstream::JpStream;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Match count plus an FNV-1a 64 hash of the match stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub matches: u64,
    /// Match bytes, newlines excluded.
    pub bytes: u64,
    pub hash: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            matches: 0,
            bytes: 0,
            hash: FNV_OFFSET,
        }
    }
}

impl Digest {
    /// Adds one match: its bytes, then a newline.
    pub fn push(&mut self, bytes: &[u8]) {
        self.matches += 1;
        self.bytes += bytes.len() as u64;
        self.extend(bytes);
        self.extend(b"\n");
    }

    /// Hashes raw body bytes (which already carry their newlines) without
    /// touching the match count.
    pub fn extend(&mut self, bytes: &[u8]) {
        let mut h = self.hash;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.hash = h;
    }

    /// Digest of a serve response body (one match per line).
    pub fn of_body(body: &[u8]) -> Digest {
        let mut d = Digest::default();
        d.extend(body);
        d.matches = body.iter().filter(|&&b| b == b'\n').count() as u64;
        d.bytes = body.len() as u64 - d.matches;
        d
    }
}

/// Compares a measured digest with the oracle's.
pub fn check(what: &str, expected: Digest, got: Digest) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: expected {} matches / {} bytes (fnv {:016x}), got {} / {} (fnv {:016x})",
            expected.matches, expected.bytes, expected.hash, got.matches, got.bytes, got.hash
        ))
    }
}

/// The oracle's digest of `query` over `records`, in order.
pub fn digest<'a>(query: &str, records: impl IntoIterator<Item = &'a [u8]>) -> Digest {
    let engine = JpStream::compile(query).expect("benchmark queries parse");
    let mut d = Digest::default();
    for rec in records {
        engine
            .run(rec, |m| d.push(m))
            .expect("generated records are well-formed");
    }
    d
}

/// The oracle's response body for `query` over `records`: what a 200 from
/// `jsonski serve` must carry byte for byte.
pub fn body<'a>(query: &str, records: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let engine = JpStream::compile(query).expect("benchmark queries parse");
    let mut out = Vec::new();
    for rec in records {
        engine
            .run(rec, |m| {
                out.extend_from_slice(m);
                out.push(b'\n');
            })
            .expect("generated records are well-formed");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{Dataset, GenConfig};
    use jsonski::JsonSki;

    fn jsonski_matches(query: &str, records: &[&[u8]]) -> Vec<Vec<u8>> {
        let engine = JsonSki::compile(query).unwrap();
        let mut out = Vec::new();
        for rec in records {
            engine.run(rec, |m| out.push(m.bytes().to_vec())).unwrap();
        }
        out
    }

    fn digest_of(matches: &[Vec<u8>]) -> Digest {
        let mut d = Digest::default();
        for m in matches {
            d.push(m);
        }
        d
    }

    #[test]
    fn engine_agrees_with_oracle_and_one_corrupt_match_fails_the_check() {
        let data = Dataset::Tt.generate_small(&GenConfig {
            target_bytes: 64 * 1024,
            seed: 11,
        });
        let records: Vec<&[u8]> = data.iter().collect();
        let query = "$[*].en.urls[*].url";
        let expected = digest(query, records.iter().copied());
        let mut matches = jsonski_matches(query, &records);
        assert!(matches.len() > 2, "the query must match something");
        check("TT1", expected, digest_of(&matches)).unwrap();

        // One flipped byte in one match: same count, different hash.
        let mid = matches.len() / 2;
        matches[mid][1] ^= 0x20;
        assert!(check("TT1", expected, digest_of(&matches)).is_err());
        matches[mid][1] ^= 0x20;

        // One dropped match.
        let dropped = matches.remove(mid);
        assert!(check("TT1", expected, digest_of(&matches)).is_err());

        // Same matches, wrong order.
        matches.insert(0, dropped);
        assert!(check("TT1", expected, digest_of(&matches)).is_err());
    }

    #[test]
    fn body_digest_equals_match_digest() {
        let data = Dataset::Wm.generate_small(&GenConfig {
            target_bytes: 32 * 1024,
            seed: 5,
        });
        let query = "$.it[*].nm";
        let body = body(query, data.iter());
        assert_eq!(Digest::of_body(&body), digest(query, data.iter()));
    }
}
