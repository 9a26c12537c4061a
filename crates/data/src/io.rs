//! Compact binary on-disk format for datasets.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "DPDS" | version u32 | name | type_names | n_frames u64 | frames…
//! frame := cell 3×f64 | n_atoms u64 | types n×u64 | pos 3n×f64 |
//!          energy f64 | forces 3n×f64 | temperature f64
//! string := len u64 | utf8 bytes
//! ```
//!
//! The paper's artifact ships `npy` feature files ("Saving npy file
//! done"); this plays the same role for our pipeline.

use crate::dataset::{Dataset, Snapshot};
use dp_mdsim::Vec3;
use std::fs;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 4] = b"DPDS";
const VERSION: u32 = 1;

/// Serialize a dataset to bytes.
pub fn to_bytes(ds: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    put_string(&mut buf, &ds.name);
    put_u64(&mut buf, ds.type_names.len() as u64);
    for t in &ds.type_names {
        put_string(&mut buf, t);
    }
    put_u64(&mut buf, ds.frames.len() as u64);
    for f in &ds.frames {
        for c in f.cell {
            put_f64(&mut buf, c);
        }
        put_u64(&mut buf, f.types.len() as u64);
        for &t in &f.types {
            put_u64(&mut buf, t as u64);
        }
        for p in &f.pos {
            for c in p.0 {
                put_f64(&mut buf, c);
            }
        }
        put_f64(&mut buf, f.energy);
        for v in &f.forces {
            for c in v.0 {
                put_f64(&mut buf, c);
            }
        }
        put_f64(&mut buf, f.temperature);
    }
    buf
}

/// Deserialize a dataset from bytes.
///
/// Every declared length is checked against the bytes that remain
/// before anything is allocated for it, so a corrupt or hostile header
/// yields `InvalidData`, never a panic or a huge allocation.
pub fn from_bytes(mut b: &[u8]) -> io::Result<Dataset> {
    if b.len() < 8 || &b[..4] != MAGIC {
        return Err(invalid("bad magic"));
    }
    b = &b[4..];
    if get_u32(&mut b, "truncated version")? != VERSION {
        return Err(invalid("unsupported version"));
    }
    let name = get_string(&mut b)?;
    let n_types = get_len(&mut b, "truncated type count")?;
    // Each type name carries at least its 8-byte length prefix.
    if n_types > b.len() / 8 {
        return Err(invalid("implausible type count"));
    }
    let mut type_names = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        type_names.push(get_string(&mut b)?);
    }
    let n_frames = get_u64(&mut b, "truncated frame count")?;
    let mut ds = Dataset::new(&name, type_names.clone());
    for _ in 0..n_frames {
        let header = "truncated frame header";
        let cell = [get_f64(&mut b, header)?, get_f64(&mut b, header)?, get_f64(&mut b, header)?];
        let n = get_len(&mut b, header)?;
        // types n×u64 | pos 3n×f64 | energy | forces 3n×f64 | temperature
        let need = n.checked_mul(8 + 24 + 24).and_then(|v| v.checked_add(16));
        if need.is_none_or(|need| b.len() < need) {
            return Err(invalid("truncated frame body"));
        }
        let body = "truncated frame body";
        let mut types = Vec::with_capacity(n);
        for _ in 0..n {
            types.push(get_len(&mut b, body)?);
        }
        let mut pos = Vec::with_capacity(n);
        for _ in 0..n {
            pos.push(get_vec3(&mut b)?);
        }
        let energy = get_f64(&mut b, body)?;
        let mut forces = Vec::with_capacity(n);
        for _ in 0..n {
            forces.push(get_vec3(&mut b)?);
        }
        let temperature = get_f64(&mut b, body)?;
        ds.push(Snapshot {
            cell,
            types,
            type_names: type_names.clone(),
            pos,
            energy,
            forces,
            temperature,
        });
    }
    Ok(ds)
}

/// Write a dataset to `path`.
pub fn save(ds: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, to_bytes(ds))
}

/// Read a dataset from `path`.
pub fn load(path: impl AsRef<Path>) -> io::Result<Dataset> {
    let bytes = fs::read(path)?;
    from_bytes(&bytes)
}

fn invalid(m: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m.to_string())
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Split the next `N` bytes off the front of `b`.
fn take<const N: usize>(b: &mut &[u8], what: &str) -> io::Result<[u8; N]> {
    let (head, rest) = b.split_first_chunk::<N>().ok_or_else(|| invalid(what))?;
    *b = rest;
    Ok(*head)
}

fn get_u32(b: &mut &[u8], what: &str) -> io::Result<u32> {
    Ok(u32::from_le_bytes(take(b, what)?))
}

fn get_u64(b: &mut &[u8], what: &str) -> io::Result<u64> {
    Ok(u64::from_le_bytes(take(b, what)?))
}

/// A `u64` that must fit a `usize` (lengths, counts, type ids).
fn get_len(b: &mut &[u8], what: &str) -> io::Result<usize> {
    usize::try_from(get_u64(b, what)?).map_err(|_| invalid(what))
}

fn get_f64(b: &mut &[u8], what: &str) -> io::Result<f64> {
    Ok(f64::from_le_bytes(take(b, what)?))
}

fn get_vec3(b: &mut &[u8]) -> io::Result<Vec3> {
    let body = "truncated frame body";
    Ok(Vec3::new(get_f64(b, body)?, get_f64(b, body)?, get_f64(b, body)?))
}

fn get_string(b: &mut &[u8]) -> io::Result<String> {
    let len = get_len(b, "truncated string length")?;
    if b.len() < len {
        return Err(invalid("truncated string body"));
    }
    let (s, rest) = b.split_at(len);
    let s = String::from_utf8(s.to_vec()).map_err(|_| invalid("invalid utf8"))?;
    *b = rest;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINNED_LEN: usize = 536;
    const PINNED_FNV: u64 = 0x60d4_6484_6551_dffd;

    fn sample_dataset() -> Dataset {
        let mut d = Dataset::new("NaCl", vec!["Na".into(), "Cl".into()]);
        for k in 0..3 {
            d.push(Snapshot {
                cell: [5.64, 5.64, 5.64],
                types: vec![0, 1],
                type_names: vec!["Na".into(), "Cl".into()],
                pos: vec![Vec3::new(0.1 * k as f64, 0.0, 0.0), Vec3::new(2.8, 0.0, 0.0)],
                energy: -3.1 - k as f64,
                forces: vec![Vec3::new(0.5, -0.25, 0.0), Vec3::new(-0.5, 0.25, 0.0)],
                temperature: 300.0 + k as f64,
            });
        }
        d
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let d = sample_dataset();
        let bytes = to_bytes(&d);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.name, d.name);
        assert_eq!(back.type_names, d.type_names);
        assert_eq!(back.len(), d.len());
        for (a, b) in back.frames.iter().zip(&d.frames) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.types, b.types);
            assert_eq!(a.energy, b.energy);
            assert_eq!(a.temperature, b.temperature);
            for (p, q) in a.pos.iter().zip(&b.pos) {
                assert_eq!(p.0, q.0);
            }
            for (p, q) in a.forces.iter().zip(&b.forces) {
                assert_eq!(p.0, q.0);
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let d = sample_dataset();
        let path = std::env::temp_dir().join("dp_data_io_test.dpds");
        save(&d, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.len(), d.len());
        let _ = std::fs::remove_file(&path);
    }

    /// FNV-1a 64 — a dependency-free fingerprint for pinning bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The on-disk format is frozen: the sample dataset encodes to
    /// exactly these bytes.
    #[test]
    fn encoding_is_pinned() {
        let bytes = to_bytes(&sample_dataset());
        assert_eq!(&bytes[..8], b"DPDS\x01\x00\x00\x00");
        assert_eq!(&bytes[8..20], b"\x04\x00\x00\x00\x00\x00\x00\x00NaCl");
        assert_eq!(bytes.len(), PINNED_LEN);
        assert_eq!(fnv1a(&bytes), PINNED_FNV);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(from_bytes(b"NOPE....").is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn frame_strategy() -> impl Strategy<Value = Snapshot> {
            (1usize..6).prop_flat_map(|n| {
                (
                    proptest::collection::vec(0usize..2, n),
                    proptest::collection::vec(
                        proptest::array::uniform3(-10.0f64..10.0),
                        n,
                    ),
                    proptest::collection::vec(
                        proptest::array::uniform3(-5.0f64..5.0),
                        n,
                    ),
                    -100.0f64..100.0,
                    1.0f64..3000.0,
                )
                    .prop_map(|(types, pos, forces, energy, temperature)| Snapshot {
                        cell: [10.0, 11.0, 12.0],
                        types,
                        type_names: vec!["A".into(), "B".into()],
                        pos: pos.into_iter().map(Vec3).collect(),
                        forces: forces.into_iter().map(Vec3).collect(),
                        energy,
                        temperature,
                    })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn roundtrip_is_lossless(frames in proptest::collection::vec(frame_strategy(), 0..5)) {
                let mut ds = Dataset::new("prop", vec!["A".into(), "B".into()]);
                for f in frames {
                    ds.push(f);
                }
                let back = from_bytes(&to_bytes(&ds)).unwrap();
                prop_assert_eq!(back.len(), ds.len());
                for (a, b) in back.frames.iter().zip(&ds.frames) {
                    prop_assert_eq!(a.energy.to_bits(), b.energy.to_bits());
                    prop_assert_eq!(&a.types, &b.types);
                    for (p, q) in a.pos.iter().zip(&b.pos) {
                        prop_assert_eq!(p.0, q.0);
                    }
                    for (p, q) in a.forces.iter().zip(&b.forces) {
                        prop_assert_eq!(p.0, q.0);
                    }
                }
            }
        }
    }

    fn assert_invalid_data(bytes: &[u8]) {
        let e = from_bytes(bytes).expect_err("hostile header must be rejected");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    /// A type count of `u64::MAX` used to reach `Vec::with_capacity`
    /// unchecked and abort with "capacity overflow".
    #[test]
    fn huge_type_count_is_invalid_data() {
        let mut bad = to_bytes(&sample_dataset());
        let at = 8 + 8 + "NaCl".len();
        bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_invalid_data(&bad);
    }

    /// A frame declaring 2^61 atoms used to wrap the body-size
    /// arithmetic past the remaining-bytes check and panic mid-read.
    #[test]
    fn huge_atom_count_is_invalid_data() {
        let mut bad = to_bytes(&sample_dataset());
        // Header, then the first frame's cell; its atom count follows.
        let at = 8 + (8 + 4) + 8 + 2 * (8 + 2) + 8 + 24;
        assert_eq!(&bad[at..at + 8], &2u64.to_le_bytes());
        bad[at..at + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert_invalid_data(&bad);
    }

    #[test]
    fn truncation_is_rejected_not_panicking() {
        let d = sample_dataset();
        let bytes = to_bytes(&d);
        for cut in [4usize, 9, 20, bytes.len() - 5] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut} must error");
        }
    }
}
