//! The append-only sweep journal: crash-safe completion records.
//!
//! Each line is `<16-hex FNV-1a checksum> <single-line JSON payload>`.
//! Appends go straight to the file descriptor (no userspace buffering),
//! so a `kill -9` loses at most the line being written — which replay
//! then recognizes as a **truncated tail** and tolerates. A checksum
//! mismatch (or a line that is not UTF-8) *before* the last line is
//! real corruption: those lines are counted and skipped (the affected
//! cells simply recompute — safe, because records are deterministic)
//! rather than wedging the server.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::hash::fnv1a_hex;

/// An open journal, append-only.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

/// What replaying a journal found.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Payloads of every intact line, in file order.
    pub payloads: Vec<String>,
    /// Checksum-failed or malformed lines *before* the tail (real
    /// corruption, skipped and counted).
    pub corrupt_lines: usize,
    /// True when the final line was incomplete or checksum-failed — the
    /// expected signature of a crash mid-append, silently tolerated.
    pub truncated_tail: bool,
}

impl Journal {
    /// Opens (creating if missing) the journal at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal { path: path.to_path_buf(), file })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one payload as a checksummed line and pushes it to the
    /// OS immediately (one `write` syscall carries the whole line, so a
    /// killed process never interleaves partial lines).
    ///
    /// # Errors
    ///
    /// Propagates write errors; rejects payloads containing newlines.
    pub fn append(&mut self, payload: &str) -> std::io::Result<()> {
        if payload.contains('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "journal payloads must be single lines",
            ));
        }
        let line = format!("{} {}\n", fnv1a_hex(payload.as_bytes()), payload);
        self.file.write_all(line.as_bytes())
    }

    /// Replays the journal at `path`. A missing file is an empty replay
    /// (first boot); read errors propagate.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than `NotFound`.
    pub fn replay(path: &Path) -> std::io::Result<Replay> {
        // Bytes, not a `String`: one damaged byte must cost one line,
        // not make the whole journal unreadable as invalid UTF-8.
        let mut raw = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
            Err(e) => return Err(e),
        }
        let mut replay = Replay::default();
        // A well-formed journal ends in '\n'; anything after the final
        // newline is a torn append.
        let mut lines: Vec<&[u8]> = raw.split(|&b| b == b'\n').collect();
        let tail = lines.pop().unwrap_or_default();
        if !tail.is_empty() {
            replay.truncated_tail = true;
        }
        for (i, line) in lines.iter().enumerate() {
            match check_line(line) {
                Some(payload) => replay.payloads.push(payload.to_string()),
                None if i + 1 == lines.len() && tail.is_empty() => {
                    // A bad *final* line is also a torn append (the
                    // newline made it out but the body did not fsync in
                    // full — possible on power loss).
                    replay.truncated_tail = true;
                }
                None => replay.corrupt_lines += 1,
            }
        }
        Ok(replay)
    }
}

/// Verifies one journal line; returns its payload if intact. A line that
/// is not UTF-8 fails like a bad checksum; a trailing `\r` (a journal
/// copied with CRLF line ends) is ignored.
fn check_line(line: &[u8]) -> Option<&str> {
    let line = std::str::from_utf8(line.strip_suffix(b"\r").unwrap_or(line)).ok()?;
    let (sum, payload) = line.split_once(' ')?;
    if sum.len() != 16 || !sum.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    (fnv1a_hex(payload.as_bytes()) == sum).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "datasync-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = temp_path("roundtrip");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append("{\"a\":1}").unwrap();
            j.append("{\"b\":2}").unwrap();
        }
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.payloads, vec!["{\"a\":1}", "{\"b\":2}"]);
        assert_eq!(replay.corrupt_lines, 0);
        assert!(!replay.truncated_tail);
        // Reopening appends, never truncates.
        Journal::open(&path).unwrap().append("{\"c\":3}").unwrap();
        assert_eq!(Journal::replay(&path).unwrap().payloads.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_is_an_empty_replay() {
        let replay = Journal::replay(Path::new("/nonexistent/journal.log")).unwrap();
        assert!(replay.payloads.is_empty());
        assert!(!replay.truncated_tail);
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let path = temp_path("tail");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append("{\"a\":1}").unwrap();
            j.append("{\"b\":2}").unwrap();
        }
        // Chop mid-line, as kill -9 during the final write would.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.payloads, vec!["{\"a\":1}"]);
        assert!(replay.truncated_tail, "a torn final line is a tail, not corruption");
        assert_eq!(replay.corrupt_lines, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_detected_and_skipped() {
        let path = temp_path("corrupt");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append("{\"a\":1}").unwrap();
            j.append("{\"b\":2}").unwrap();
            j.append("{\"c\":3}").unwrap();
        }
        // Flip a byte inside the middle line's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let lines: Vec<usize> =
            bytes.iter().enumerate().filter(|(_, b)| **b == b'\n').map(|(i, _)| i).collect();
        let mid = lines[0] + 20;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.payloads, vec!["{\"a\":1}", "{\"c\":3}"]);
        assert_eq!(replay.corrupt_lines, 1, "mid-file damage is corruption, not a tail");
        assert!(!replay.truncated_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_cut_and_every_flipped_byte_of_a_three_record_journal_replays() {
        let records = [
            r#"{"hash":"0f3a","scheme":"process","iterations":6,"makespan":412}"#,
            r#"{"hash":"77c1","scheme":"reference","iterations":8,"outcome":"ok"}"#,
            r#"{"hash":"b902","scheme":"statement","fabric":"clustered","clusters":2}"#,
        ];
        let path = temp_path("exhaustive");
        {
            let mut j = Journal::open(&path).unwrap();
            for r in records {
                j.append(r).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        let line_ends: Vec<usize> =
            full.iter().enumerate().filter(|(_, b)| **b == b'\n').map(|(i, _)| i).collect();
        assert_eq!(line_ends.len(), records.len());
        // Replays `bytes`; the payloads must be appended records, in
        // append order, and never an `Err` or a panic.
        let replay = |bytes: &[u8], what: &str| -> Vec<String> {
            std::fs::write(&path, bytes).unwrap();
            let got = Journal::replay(&path).unwrap_or_else(|e| panic!("{what}: {e}")).payloads;
            let mut rest = records.iter();
            for p in &got {
                assert!(
                    rest.any(|r| *r == p.as_str()),
                    "{what}: {p:?} is not an appended record in order"
                );
            }
            got
        };

        for k in 0..=full.len() {
            let got = replay(&full[..k], &format!("cut at {k}"));
            let whole = line_ends.iter().filter(|&&end| end < k).count();
            assert_eq!(got, records[..whole], "cut at {k}");
        }
        for i in 0..full.len() {
            for mask in [0x01u8, 0x80] {
                let mut bytes = full.clone();
                bytes[i] ^= mask;
                let what = format!("byte {i} ^ {mask:#04x}");
                let got = replay(&bytes, &what);
                assert!(got.len() + 2 >= records.len(), "{what}: lost {:?}", got);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn newlines_in_payloads_are_rejected() {
        let path = temp_path("newline");
        let mut j = Journal::open(&path).unwrap();
        assert!(j.append("two\nlines").is_err());
        let _ = std::fs::remove_file(&path);
    }
}
