//! Versioned binary snapshot cache (`.csbin`).
//!
//! Parsing a multi-gigabyte dump dominates repeat experiment runs, so
//! the first successful parse is cached next to its source as
//! `<input>.csbin` and later runs deserialise that instead. The layout
//! is little-endian throughout and documented in `docs/FORMATS.md`:
//!
//! ```text
//! magic "CSBN" · version u16 · format-tag u8 · reserved u8 · fingerprint u64
//! one checksummed frame ([`cspm_graph::codec`], tag 0x01) wrapping:
//!   name str · category str · graph
//! ```
//!
//! where `str` is a u32 byte length plus UTF-8 bytes and `graph` is the
//! session store's [`encode_graph`] section, read back by the same
//! [`decode_graph`]. The fingerprint hashes the byte length and mtime of
//! every source file (main dump + sidecars); a mismatch means a source
//! changed and the snapshot must be rebuilt
//! ([`IngestError::SnapshotStale`]). The format tag records which
//! parser built the graph.
//!
//! The whole body rides in one CRC-32 frame (the same codec the
//! session store uses), so a torn write or a bit-flipped byte is
//! *detected* — [`IngestError::SnapshotCorrupt`], which callers treat
//! as "re-parse and rewrite" — instead of deserialising garbage. The
//! header stays outside the frame on purpose: magic, version and
//! fingerprint decide *which* error to raise (foreign file, version
//! skew, stale cache) and must be readable even when the body is not.
//! Every way a file can disagree with this layout maps to a typed
//! [`IngestError`] — never a panic.

use std::fs;
use std::path::{Path, PathBuf};

use cspm_graph::codec::{put_str, read_frame, write_frame, FrameError, Reader};
use cspm_graph::{decode_graph, encode_graph, AttributedGraph, DecodeError};

use super::error::IngestError;

/// First four bytes of every snapshot.
pub const CSBIN_MAGIC: [u8; 4] = *b"CSBN";
/// Layout version this build reads and writes. v3 = the body is the
/// session store's graph encoding; older files are rebuilt via the
/// version check.
pub const CSBIN_VERSION: u16 = 3;

/// Frame tag of the single body frame following the header.
const CSBIN_BODY_TAG: u8 = 0x01;

/// Snapshot path for a source dump: `<input>.csbin` alongside it.
pub fn snapshot_path(input: &Path) -> PathBuf {
    let mut name = input.file_name().unwrap_or_default().to_os_string();
    name.push(".csbin");
    input.with_file_name(name)
}

/// Fingerprint of a dump's source files — the main file **and** its
/// sidecars (Pokec profiles, USFlight airports), so editing either
/// invalidates the snapshot. FNV-1a over each file's byte length and
/// mtime at full filesystem resolution (even a same-length rewrite
/// within the same second is detected). Cheap — no content read — yet
/// invalidates on any rewrite: editing a file updates its mtime, and
/// `git checkout` rewrites it entirely.
pub fn source_fingerprint(files: &[PathBuf]) -> Result<u64, IngestError> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for file in files {
        let meta = fs::metadata(file)?;
        let mtime = meta
            .modified()?
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        for b in meta
            .len()
            .to_le_bytes()
            .into_iter()
            .chain(mtime.to_le_bytes())
        {
            mix(b);
        }
    }
    Ok(h)
}

/// Writes `graph` (with its display metadata) as a `.csbin` snapshot.
/// `format_tag` records which parser built the graph (see
/// `Format::tag`), so a later run requesting a different format
/// doesn't get served this cache.
pub fn write_snapshot(
    path: &Path,
    fingerprint: u64,
    format_tag: u8,
    name: &str,
    category: &str,
    graph: &AttributedGraph,
) -> Result<(), IngestError> {
    let mut body = Vec::new();
    put_str(&mut body, name);
    put_str(&mut body, category);
    encode_graph(graph, &mut body);
    let mut file = Vec::with_capacity(body.len() + 32);
    file.extend_from_slice(&CSBIN_MAGIC);
    file.extend_from_slice(&CSBIN_VERSION.to_le_bytes());
    file.extend_from_slice(&[format_tag, 0]);
    file.extend_from_slice(&fingerprint.to_le_bytes());
    write_frame(&mut file, CSBIN_BODY_TAG, &body);
    fs::write(path, file)?;
    Ok(())
}

/// A successfully loaded snapshot.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// Which parser built the snapshot (see `Format::tag`).
    pub format_tag: u8,
    /// Dataset display name recorded at write time.
    pub name: String,
    /// Table II category recorded at write time.
    pub category: String,
    /// The reconstructed graph.
    pub graph: AttributedGraph,
}

/// Loads a `.csbin` snapshot, verifying magic, layout version and the
/// source fingerprint. Pass the current [`source_fingerprint`] of the
/// dump; a mismatch yields [`IngestError::SnapshotStale`].
pub fn load_snapshot(
    path: &Path,
    expected_fingerprint: u64,
) -> Result<LoadedSnapshot, IngestError> {
    let bytes = fs::read(path)?;
    let corrupt = |message| IngestError::SnapshotCorrupt {
        path: path.to_path_buf(),
        message,
    };
    let mut header = Reader::new(&bytes);
    if header.take(4).ok() != Some(&CSBIN_MAGIC[..]) {
        return Err(IngestError::SnapshotMagic {
            path: path.to_path_buf(),
        });
    }
    let truncated = |_| corrupt("file ends inside the header");
    let version = header.u16().map_err(truncated)?;
    if version != CSBIN_VERSION {
        return Err(IngestError::SnapshotVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let format_tag = header.u8().map_err(truncated)?;
    header.u8().map_err(truncated)?; // reserved
    if header.u64().map_err(truncated)? != expected_fingerprint {
        return Err(IngestError::SnapshotStale {
            path: path.to_path_buf(),
        });
    }
    // Everything else lives in one checksummed frame; a torn tail or a
    // flipped bit anywhere in it surfaces here, before any parsing.
    let body = match read_frame(&bytes, bytes.len() - header.remaining()) {
        Ok(Some((CSBIN_BODY_TAG, payload, next))) => match read_frame(&bytes, next) {
            Ok(None) => payload,
            _ => return Err(corrupt("trailing bytes after the body frame")),
        },
        Ok(Some(_)) => return Err(corrupt("unexpected body frame tag")),
        Ok(None) => return Err(corrupt("missing body frame")),
        Err(FrameError::Truncated { .. }) => {
            return Err(corrupt("body frame is truncated (torn write)"))
        }
        Err(FrameError::Checksum { .. }) => {
            return Err(corrupt("body frame fails its checksum (bit flip)"))
        }
    };
    let (name, category, graph) = decode_body(body).map_err(|e| corrupt(e.message))?;
    Ok(LoadedSnapshot {
        format_tag,
        name,
        category,
        graph,
    })
}

/// The body frame's payload: name, category, then the graph section.
fn decode_body(body: &[u8]) -> Result<(String, String, AttributedGraph), DecodeError> {
    let mut r = Reader::new(body);
    let name = r.str()?;
    let category = r.str()?;
    let graph = decode_graph(r.take(r.remaining())?)?;
    Ok((name, category, graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dblp_like, Scale};

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cspm-snapshot-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_preserves_graph_and_metadata() {
        let d = dblp_like(Scale::Tiny, 3);
        let path = temp("roundtrip.csbin");
        write_snapshot(&path, 77, 2, d.name, d.category, &d.graph).unwrap();
        let s = load_snapshot(&path, 77).unwrap();
        assert_eq!(s.name, d.name);
        assert_eq!(s.category, d.category);
        assert_eq!(s.graph, d.graph);
    }

    #[test]
    fn fingerprint_mismatch_is_stale() {
        let d = dblp_like(Scale::Tiny, 3);
        let path = temp("stale.csbin");
        write_snapshot(&path, 1, 2, d.name, d.category, &d.graph).unwrap();
        assert!(matches!(
            load_snapshot(&path, 2),
            Err(IngestError::SnapshotStale { .. })
        ));
    }

    #[test]
    fn version_and_magic_are_checked() {
        let d = dblp_like(Scale::Tiny, 3);
        let path = temp("version.csbin");
        write_snapshot(&path, 1, 2, d.name, d.category, &d.graph).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = 0xEE; // version low byte
        fs::write(&path, &bytes).unwrap();
        match load_snapshot(&path, 1) {
            Err(IngestError::SnapshotVersion { found, .. }) => assert_eq!(found, 0xEE),
            other => panic!(
                "expected SnapshotVersion, got {other:?}",
                other = other.err()
            ),
        }
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path, 1),
            Err(IngestError::SnapshotMagic { .. })
        ));
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic() {
        let d = dblp_like(Scale::Tiny, 3);
        let path = temp("truncated.csbin");
        write_snapshot(&path, 1, 2, d.name, d.category, &d.graph).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Chop at several depths: header, attr table, labels, edges.
        for keep in [3usize, 10, 30, bytes.len() / 2, bytes.len() - 3] {
            fs::write(&path, &bytes[..keep]).unwrap();
            let err = load_snapshot(&path, 1).unwrap_err();
            assert!(
                err.is_snapshot(),
                "keep={keep}: expected snapshot error, got {err}"
            );
        }
    }

    #[test]
    fn bit_flips_anywhere_in_the_body_are_detected() {
        let d = dblp_like(Scale::Tiny, 3);
        let path = temp("bitflip.csbin");
        write_snapshot(&path, 9, 2, d.name, d.category, &d.graph).unwrap();
        let pristine = fs::read(&path).unwrap();
        // Every byte past the 16-byte header is under the frame CRC:
        // one flipped bit anywhere must surface as a recoverable
        // snapshot error (callers re-parse the dump), never as a
        // silently different graph and never as a panic.
        for at in 16..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[at] ^= 1 << (at % 8);
            fs::write(&path, &bytes).unwrap();
            let err = load_snapshot(&path, 9).unwrap_err();
            assert!(
                matches!(err, IngestError::SnapshotCorrupt { .. }),
                "flip at byte {at} slipped through: {err}"
            );
            assert!(err.is_snapshot(), "flip at {at}: must be recoverable");
        }
        // Header flips are caught by their own fields: magic, version,
        // fingerprint. (The format tag byte is advisory only.)
        let mut bytes = pristine.clone();
        bytes[0] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path, 9),
            Err(IngestError::SnapshotMagic { .. })
        ));
        let mut bytes = pristine.clone();
        bytes[10] ^= 0x01; // fingerprint
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path, 9),
            Err(IngestError::SnapshotStale { .. })
        ));
    }

    #[test]
    fn fingerprint_tracks_subsecond_rewrites() {
        let dir = temp("fp-source");
        fs::write(&dir, "same length A").unwrap();
        let a = source_fingerprint(std::slice::from_ref(&dir)).unwrap();
        // Same byte length, rewritten immediately: mtime (at full
        // filesystem resolution) must still distinguish the versions.
        std::thread::sleep(std::time::Duration::from_millis(5));
        fs::write(&dir, "same length B").unwrap();
        let b = source_fingerprint(std::slice::from_ref(&dir)).unwrap();
        assert_ne!(a, b, "subsecond same-length rewrite went undetected");
    }

    #[test]
    fn snapshot_path_appends_extension() {
        assert_eq!(
            snapshot_path(Path::new("/data/pokec_small.txt")),
            PathBuf::from("/data/pokec_small.txt.csbin")
        );
    }
}
