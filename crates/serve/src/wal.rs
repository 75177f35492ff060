//! Crash-safe write-ahead journal: checksummed JSONL with torn-tail
//! recovery.
//!
//! Every record is one line: a 16-hex-digit FNV-1a 64 checksum of the
//! record's JSON bytes, one space, the JSON, `\n`. [`Wal::append`] writes
//! the line and fsyncs (`sync_data`) before returning, so a record the
//! caller saw acknowledged survives `kill -9` and power loss (to the
//! extent the filesystem honours fsync).
//!
//! [`Wal::open`] replays an existing journal. A *torn tail* — the file
//! ends mid-line because the process died inside a write — is expected
//! and silently healed: the incomplete or checksum-failing suffix is
//! dropped and the file truncated back to the last durable record. A
//! corrupt line with valid records *after* it is a different story (bit
//! rot, concurrent writers) and is reported as an error rather than
//! silently skipped.
//!
//! A live process keeps the same invariant: when an append fails partway
//! (a short write, a full disk, a failed fsync), [`Wal::append`] truncates
//! the journal back to its last acknowledged record before returning the
//! error, so the next record starts on a fresh line instead of landing
//! after a partial one — which [`Wal::open`] would then refuse as
//! mid-file corruption. If even that truncation fails, the journal is
//! *stranded* ([`Wal::is_stranded`]): it refuses every later append, and
//! only a restart, whose [`Wal::open`] heals the partial line, brings it
//! back.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use hiperrf::hashing::fnv64;

use crate::json::Json;

/// What [`Wal::open`] found in an existing journal.
#[derive(Debug)]
pub struct Recovery {
    /// Every durable record, in append order.
    pub records: Vec<Json>,
    /// Bytes of torn tail dropped (0 on a clean journal).
    pub torn_bytes: u64,
}

/// An append-only, fsynced journal of JSON records.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Length of the journal's durable prefix: every acknowledged record
    /// and nothing else. A failed append truncates back to it.
    durable_len: u64,
    /// Set when a failed append could not be rolled back; every later
    /// append is refused rather than written after a partial line.
    stranded: bool,
}

/// Validates one complete line (without its `\n`); returns the record.
fn parse_line(line: &[u8]) -> Option<Json> {
    if line.len() < 18 || line[16] != b' ' {
        return None;
    }
    let sum_text = std::str::from_utf8(&line[..16]).ok()?;
    let sum = u64::from_str_radix(sum_text, 16).ok()?;
    let body = &line[17..];
    if fnv64(body) != sum {
        return None;
    }
    Json::parse(std::str::from_utf8(body).ok()?).ok()
}

impl Wal {
    /// Opens (creating if missing) the journal at `path`, replays its
    /// records, and heals a torn tail by truncating it away.
    ///
    /// # Errors
    ///
    /// I/O errors, and `InvalidData` when a corrupt line is followed by
    /// valid records (mid-file corruption is not a crash signature).
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Wal, Recovery)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut records = Vec::new();
        let mut durable_end = 0usize; // byte offset just past the last good line
        let mut cursor = 0usize;
        let mut bad_at: Option<usize> = None;
        while cursor < bytes.len() {
            let Some(nl) = bytes[cursor..].iter().position(|&b| b == b'\n') else {
                // Incomplete final line: torn tail.
                bad_at.get_or_insert(cursor);
                break;
            };
            let line = &bytes[cursor..cursor + nl];
            match parse_line(line) {
                Some(record) => {
                    if let Some(bad) = bad_at {
                        // A valid record after a bad line: real corruption.
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "WAL {}: corrupt record at byte {} followed by valid records",
                                path.display(),
                                bad
                            ),
                        ));
                    }
                    records.push(record);
                    durable_end = cursor + nl + 1;
                }
                None => {
                    bad_at.get_or_insert(cursor);
                }
            }
            cursor += nl + 1;
        }

        let torn_bytes = (bytes.len() - durable_end) as u64;
        if torn_bytes > 0 {
            file.set_len(durable_end as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Wal {
                file,
                path,
                durable_len: durable_end as u64,
                stranded: false,
            },
            Recovery {
                records,
                torn_bytes,
            },
        ))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a failed append could not be rolled back. A stranded
    /// journal refuses every append until the process reopens it.
    pub fn is_stranded(&self) -> bool {
        self.stranded
    }

    /// Appends one record durably: the line is written, flushed, and
    /// fsynced before this returns. A record acknowledged here is replayed
    /// after any crash.
    ///
    /// # Errors
    ///
    /// The write or fsync error, after the journal has been truncated back
    /// to its last acknowledged record; or, once such a truncation has
    /// failed, an error for every later append.
    pub fn append(&mut self, record: &Json) -> io::Result<()> {
        self.append_with(record, |file, line| file.write_all(line))
    }

    /// [`Wal::append`] with the line write routed through `write`, so
    /// tests can inject a write that fails partway.
    fn append_with(
        &mut self,
        record: &Json,
        write: impl FnOnce(&mut File, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        if self.stranded {
            return Err(io::Error::other(format!(
                "WAL {}: a failed append could not be rolled back; refusing further appends",
                self.path.display()
            )));
        }
        let body = record.to_string();
        let line = format!("{:016x} {body}\n", fnv64(body.as_bytes()));
        let written = write(&mut self.file, line.as_bytes()).and_then(|()| self.file.sync_data());
        if let Err(e) = written {
            if let Err(rollback) = self.roll_back() {
                self.stranded = true;
                return Err(io::Error::new(
                    e.kind(),
                    format!("{e}; rolling the journal back also failed: {rollback}"),
                ));
            }
            return Err(e);
        }
        self.durable_len += line.len() as u64;
        Ok(())
    }

    /// Truncates the journal to its durable prefix and moves the write
    /// cursor back to its end.
    fn roll_back(&mut self) -> io::Result<()> {
        self.file.set_len(self.durable_len)?;
        self.file.sync_data()?;
        self.file.seek(SeekFrom::Start(self.durable_len))?;
        Ok(())
    }

    /// Strands the journal the way a failing disk can: `record` is
    /// appended through a write that lands half its line, swaps in a
    /// read-only handle on the same path (so the roll-back's `set_len`
    /// fails), and then errors.
    #[cfg(test)]
    pub(crate) fn strand_with(&mut self, record: &Json) -> io::Result<()> {
        let path = self.path.clone();
        self.append_with(record, |file, line| {
            file.write_all(&line[..line.len() / 2])?;
            *file = File::open(&path)?;
            Err(io::Error::other("disk full"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sfq-serve-waltest-{name}-{}", std::process::id()));
        p
    }

    fn record(i: u64) -> Json {
        Json::obj(vec![("t", Json::str("test")), ("i", Json::u64(i))])
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, rec) = Wal::open(&path).expect("open fresh");
            assert!(rec.records.is_empty());
            for i in 0..5 {
                wal.append(&record(i)).expect("append");
            }
        }
        let (_, rec) = Wal::open(&path).expect("reopen");
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.records.len(), 5);
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.get("i").and_then(Json::as_u64), Some(i as u64));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_healed() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).expect("open");
            wal.append(&record(0)).expect("append");
            wal.append(&record(1)).expect("append");
        }
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..full.len() - 3]).expect("tear");
        let (mut wal, rec) = Wal::open(&path).expect("recover");
        assert_eq!(rec.records.len(), 1, "torn record dropped");
        assert_eq!(rec.torn_bytes as usize, full.len() / 2 - 3);
        // The journal is healed: appending after recovery yields a clean
        // two-record file again.
        wal.append(&record(7)).expect("append after heal");
        drop(wal);
        let (_, rec) = Wal::open(&path).expect("reopen");
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[1].get("i").and_then(Json::as_u64), Some(7));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_append_rolls_back_to_the_acknowledged_records() {
        let path = tmp("rollback");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).expect("open");
            wal.append(&record(0)).expect("append");
            // A write that lands half the line and then fails, as on a
            // full disk.
            let err = wal
                .append_with(&record(1), |file, line| {
                    file.write_all(&line[..line.len() / 2])?;
                    Err(io::Error::other("disk full"))
                })
                .expect_err("a half-written record is not acknowledged");
            assert!(err.to_string().contains("disk full"), "{err}");
            wal.append(&record(2))
                .expect("append after a failed append");
            wal.append(&record(3)).expect("append");
        }
        let (_, rec) = Wal::open(&path).expect("the journal reopens");
        assert_eq!(rec.torn_bytes, 0);
        let ids: Vec<_> = rec
            .records
            .iter()
            .map(|r| r.get("i").and_then(Json::as_u64))
            .collect();
        assert_eq!(
            ids,
            [Some(0), Some(2), Some(3)],
            "exactly the acknowledged records"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_append_that_cannot_roll_back_strands_the_journal() {
        let path = tmp("stranded");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).expect("open");
            wal.append(&record(0)).expect("append");
            wal.append(&record(1)).expect("append");
            assert!(!wal.is_stranded());
            let err = wal
                .strand_with(&record(2))
                .expect_err("a half-written record is not acknowledged");
            assert!(
                err.to_string()
                    .contains("rolling the journal back also failed"),
                "{err}"
            );
            assert!(wal.is_stranded());
            let err = wal
                .append(&record(3))
                .expect_err("a stranded journal refuses appends");
            assert!(
                err.to_string().contains("refusing further appends"),
                "{err}"
            );
            assert!(wal.is_stranded());
        }
        let (wal, rec) = Wal::open(&path).expect("a restart reopens the journal");
        assert!(!wal.is_stranded());
        assert!(rec.torn_bytes > 0, "the half line is healed as a torn tail");
        let ids: Vec<_> = rec
            .records
            .iter()
            .map(|r| r.get("i").and_then(Json::as_u64))
            .collect();
        assert_eq!(ids, [Some(0), Some(1)], "exactly the acknowledged records");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_an_error_not_a_skip() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).expect("open");
            wal.append(&record(0)).expect("append");
            wal.append(&record(1)).expect("append");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[20] ^= 0xFF; // flip a byte inside the first record
        std::fs::write(&path, &bytes).expect("corrupt");
        let err = Wal::open(&path).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }
}
