//! The serve-mode session write-ahead log: crash recovery for
//! [`SessionStore`]s.
//!
//! A serving process appends one line to the WAL for every *durable*
//! state change — designs loaded, sessions opened/forked/closed,
//! committed resizes (explicit `commit`s and the moves a `step` round
//! committed), snapshots taken, and rollbacks (they discard commits, so
//! replay must see them). Speculative `what_if`s and read-only queries
//! are never logged: they change nothing a restart needs to restore.
//! After a crash, [`read`] + [`apply`] rebuild every session by driving
//! the records through the *same* entry points a live client would use
//! ([`SessionStore::open`](crate::SessionStore::open),
//! [`Session::commit`](crate::Session::commit),
//! [`Session::replay_step_moves`](crate::Session::replay_step_moves),
//! …). The session core's fork ≡ fresh-replay invariant is what makes
//! this a *proof* of recovery rather than a best effort: a session is
//! exactly its design plus its committed history, so replaying the
//! history restores the session **bit-identically** — responses after
//! recovery are byte-for-byte what an uninterrupted process would have
//! produced.
//!
//! # Format and torn-write robustness
//!
//! The file is the same hand-rolled line-oriented JSON the
//! [`ResultStore`](crate::ResultStore) uses, read by the shared
//! [`wire::read_line_log`] reader (strict header, per-line quarantine):
//! a header line pinning the schema version, then one
//! `{"record":"...",...}` object per line, floats rendered with Rust's
//! shortest-round-trip `Display` so parsing returns the exact bits.
//! Every append is fsynced before the serving process answers the
//! request, so the WAL is a *write-ahead* log in the strict sense: a
//! response the client saw is a record the disk has.
//!
//! Unlike the store's keyed last-write-wins, WAL records are a
//! *history* — order matters and later records depend on earlier ones.
//! A torn or garbled line therefore truncates recovery to the **durable
//! prefix**: everything strictly before the first corrupt line is
//! replayed, the corrupt line and every record after it are quarantined
//! (reported, not silently dropped — and never a hard error, since a
//! torn tail is exactly what a mid-append crash leaves behind). A
//! mismatched *header* is still a hard error: the file is then of
//! unknown provenance.
//!
//! A clean shutdown appends a [`WalRecord::Seal`] marker; its absence
//! tells the recovering process (and the operator, via the recovery
//! summary) that the previous process crashed.
//!
//! Failpoints (`cfg(test)` / the `failpoints` feature):
//! `wal::append` (detail: record kind) tears an append mid-write —
//! half the bytes, no newline, then the writer goes quiet, exactly the
//! disk state a crash leaves; `wal::replay` (detail: 1-based line
//! number) tears a line at read time via the shared reader. The
//! fault-injection suite uses both to prove torn WALs recover to the
//! durable prefix.

use crate::failpoint;
use crate::objective::Objective;
use crate::optimizer::{Optimizer, SelectorKind};
use crate::service::{Design, SessionStore};
use crate::wire::{self, escape, get, get_f64, get_str, get_usize, Json};
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The WAL header line: identifies the file and pins the record schema
/// version.
const HEADER: &str = "{\"wal\":\"statsize-serve\",\"version\":1}";

/// One durable state change of a serving session store. Records carry
/// everything replay needs and nothing else: gates are addressed by
/// output net name (the protocol's addressing), optimizer
/// configurations by their stable wire names
/// ([`SelectorKind::wire_name`], [`Objective::wire_name`]), floats by
/// shortest-round-trip `Display` (bit-exact on parse).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A design was loaded: enough to rebuild it from the circuit
    /// generator (`design` resolves like every harness binary's circuit
    /// name; `seed` feeds the generator; `dt` is the delay lattice
    /// step).
    Load {
        /// Design (circuit) name.
        design: String,
        /// Generator seed.
        seed: u64,
        /// Delay lattice step.
        dt: f64,
    },
    /// A session was opened, with its full optimizer configuration.
    Open {
        /// Session name.
        session: String,
        /// Design the session is over.
        design: String,
        /// Selector wire name ([`SelectorKind::wire_name`]).
        selector: String,
        /// Objective wire name ([`Objective::wire_name`]).
        objective: String,
        /// Iteration cap.
        max_iterations: usize,
        /// Per-move width increment.
        delta_w: f64,
    },
    /// A session was forked.
    Fork {
        /// New session name.
        session: String,
        /// Session it was forked from.
        from: String,
    },
    /// A session was closed.
    Close {
        /// Session name.
        session: String,
    },
    /// A resize was committed.
    Commit {
        /// Session name.
        session: String,
        /// Gate, by output net name.
        gate: String,
        /// Committed width change.
        delta_w: f64,
    },
    /// An optimizer `step` round committed these moves (in commit
    /// order). Rounds that committed nothing are not logged.
    Step {
        /// Session name.
        session: String,
        /// `(gate, delta_w)` moves, gates by output net name.
        moves: Vec<(String, f64)>,
    },
    /// A named snapshot was taken.
    Snapshot {
        /// Session name.
        session: String,
        /// Snapshot name.
        name: String,
    },
    /// A session rolled back to a named snapshot (discarding commits —
    /// replay must do the same).
    Rollback {
        /// Session name.
        session: String,
        /// Snapshot name.
        name: String,
    },
    /// Clean-shutdown marker: the process drained and fsynced before
    /// exiting. Never replayed; its absence means the writer crashed.
    Seal,
}

impl WalRecord {
    /// The record's kind tag — the `"record"` field on the wire and the
    /// `wal::append` failpoint detail.
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::Load { .. } => "load",
            WalRecord::Open { .. } => "open",
            WalRecord::Fork { .. } => "fork",
            WalRecord::Close { .. } => "close",
            WalRecord::Commit { .. } => "commit",
            WalRecord::Step { .. } => "step",
            WalRecord::Snapshot { .. } => "snapshot",
            WalRecord::Rollback { .. } => "rollback",
            WalRecord::Seal => "seal",
        }
    }

    /// Serializes the record as one JSON line (no trailing newline).
    fn to_line(&self) -> String {
        match self {
            WalRecord::Load { design, seed, dt } => format!(
                "{{\"record\":\"load\",\"design\":\"{}\",\"seed\":{seed},\"dt\":{dt}}}",
                escape(design)
            ),
            WalRecord::Open {
                session,
                design,
                selector,
                objective,
                max_iterations,
                delta_w,
            } => format!(
                "{{\"record\":\"open\",\"session\":\"{}\",\"design\":\"{}\",\
                 \"selector\":\"{}\",\"objective\":\"{}\",\
                 \"max_iterations\":{max_iterations},\"delta_w\":{delta_w}}}",
                escape(session),
                escape(design),
                escape(selector),
                escape(objective)
            ),
            WalRecord::Fork { session, from } => format!(
                "{{\"record\":\"fork\",\"session\":\"{}\",\"from\":\"{}\"}}",
                escape(session),
                escape(from)
            ),
            WalRecord::Close { session } => format!(
                "{{\"record\":\"close\",\"session\":\"{}\"}}",
                escape(session)
            ),
            WalRecord::Commit {
                session,
                gate,
                delta_w,
            } => format!(
                "{{\"record\":\"commit\",\"session\":\"{}\",\"gate\":\"{}\",\"delta_w\":{delta_w}}}",
                escape(session),
                escape(gate)
            ),
            WalRecord::Step { session, moves } => {
                let mut line = format!(
                    "{{\"record\":\"step\",\"session\":\"{}\",\"moves\":[",
                    escape(session)
                );
                for (i, (gate, delta_w)) in moves.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    line.push_str(&format!("[\"{}\",{delta_w}]", escape(gate)));
                }
                line.push_str("]}");
                line
            }
            WalRecord::Snapshot { session, name } => format!(
                "{{\"record\":\"snapshot\",\"session\":\"{}\",\"name\":\"{}\"}}",
                escape(session),
                escape(name)
            ),
            WalRecord::Rollback { session, name } => format!(
                "{{\"record\":\"rollback\",\"session\":\"{}\",\"name\":\"{}\"}}",
                escape(session),
                escape(name)
            ),
            WalRecord::Seal => "{\"record\":\"seal\"}".to_string(),
        }
    }
}

/// Parses one WAL line back into a record.
fn parse_record(line: &str) -> Result<WalRecord, String> {
    let value = wire::parse(line)?;
    let obj = value.as_object().ok_or("record is not a JSON object")?;
    let session = |o: &[(String, Json)]| get_str(o, "session").map(str::to_string);
    match get_str(obj, "record")? {
        "load" => Ok(WalRecord::Load {
            design: get_str(obj, "design")?.to_string(),
            seed: get_usize(obj, "seed")? as u64,
            dt: get_f64(obj, "dt")?,
        }),
        "open" => Ok(WalRecord::Open {
            session: session(obj)?,
            design: get_str(obj, "design")?.to_string(),
            selector: get_str(obj, "selector")?.to_string(),
            objective: get_str(obj, "objective")?.to_string(),
            max_iterations: get_usize(obj, "max_iterations")?,
            delta_w: get_f64(obj, "delta_w")?,
        }),
        "fork" => Ok(WalRecord::Fork {
            session: session(obj)?,
            from: get_str(obj, "from")?.to_string(),
        }),
        "close" => Ok(WalRecord::Close {
            session: session(obj)?,
        }),
        "commit" => Ok(WalRecord::Commit {
            session: session(obj)?,
            gate: get_str(obj, "gate")?.to_string(),
            delta_w: get_f64(obj, "delta_w")?,
        }),
        "step" => {
            let moves = get(obj, "moves")?
                .as_array()
                .ok_or("`moves` is not an array")?
                .iter()
                .map(|m| -> Result<(String, f64), String> {
                    let pair = m.as_array().ok_or("move is not a pair")?;
                    match pair {
                        [gate, delta_w] => Ok((
                            gate.as_str()
                                .ok_or("move gate is not a string")?
                                .to_string(),
                            delta_w.as_f64().ok_or("move delta_w is not a number")?,
                        )),
                        _ => Err("move is not a pair".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(WalRecord::Step {
                session: session(obj)?,
                moves,
            })
        }
        "snapshot" => Ok(WalRecord::Snapshot {
            session: session(obj)?,
            name: get_str(obj, "name")?.to_string(),
        }),
        "rollback" => Ok(WalRecord::Rollback {
            session: session(obj)?,
            name: get_str(obj, "name")?.to_string(),
        }),
        "seal" => Ok(WalRecord::Seal),
        other => Err(format!("unknown record kind `{other}`")),
    }
}

/// A typed WAL fault: an I/O failure, an unrecognized header, or a
/// record the session core refused to replay.
#[derive(Debug)]
pub enum WalError {
    /// Reading, creating, or writing the WAL file failed.
    Io {
        /// The WAL path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The header line is missing or mismatched — the file is of
    /// unknown provenance and is not replayed at all. (Torn *entry*
    /// lines are not errors; they truncate recovery to the durable
    /// prefix — see [`WalContents::quarantined`].)
    Corrupt {
        /// The WAL path.
        path: PathBuf,
        /// 1-based line number (always 1: the header).
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A durable record failed to replay (unknown design name on this
    /// host, inadmissible resize, …). The store is left as of the
    /// preceding record; recovery as a whole is a hard failure, since a
    /// half-restored server would silently answer from the wrong state.
    Replay {
        /// Index of the failing record in the durable prefix (0-based).
        record: usize,
        /// The record's kind tag.
        kind: &'static str,
        /// Why the session core refused it.
        message: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, source } => write!(f, "wal {}: {source}", path.display()),
            WalError::Corrupt {
                path,
                line,
                message,
            } => write!(f, "wal {} line {line}: {message}", path.display()),
            WalError::Replay {
                record,
                kind,
                message,
            } => write!(f, "wal replay: record {record} ({kind}): {message}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> WalError + '_ {
    move |source| WalError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// The append half: an open WAL file every durable mutation is written
/// (and fsynced) to before the response goes out.
///
/// Write failures follow the result store's posture: warn on stderr once,
/// then go quiet — the serving process keeps answering (losing
/// durability, not availability), and [`healthy`](Self::healthy) lets
/// the front-end surface the degradation.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    write_failed: bool,
    sealed: bool,
}

impl Wal {
    /// Creates (or truncates) a WAL at `path`: writes and fsyncs the
    /// header, keeping the file open for appends.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path).map_err(io_err(&path))?;
        file.write_all(format!("{HEADER}\n").as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(io_err(&path))?;
        Ok(Self {
            path,
            file,
            write_failed: false,
            sealed: false,
        })
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// False once an append has failed (or been torn by the
    /// `wal::append` failpoint): the process is still serving but no
    /// longer durable past the failure point.
    pub fn healthy(&self) -> bool {
        !self.write_failed
    }

    /// Whether [`seal`](Self::seal) has run.
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// Appends one record and fsyncs it — returning means the record is
    /// durable. After a write failure (reported to stderr) appends
    /// become no-ops: durability is lost from that point on, service is
    /// not.
    ///
    /// Failpoint `wal::append` (detail: record kind): writes only the
    /// first half of the record's bytes, no newline, then disables the
    /// writer — the disk ends up in exactly the torn state a crash
    /// mid-append leaves, and the process behaves as one that will
    /// never write again.
    pub fn append(&mut self, record: &WalRecord) {
        if self.write_failed || self.sealed {
            return;
        }
        let line = format!("{}\n", record.to_line());
        let bytes = if failpoint::fire("wal::append", record.kind()) {
            eprintln!(
                "warning: wal {}: torn by failpoint `wal::append` ({}); \
                 durability ends here",
                self.path.display(),
                record.kind()
            );
            self.write_failed = true;
            &line.as_bytes()[..line.len() / 2]
        } else {
            line.as_bytes()
        };
        let written = self
            .file
            .write_all(bytes)
            .and_then(|()| self.file.sync_data());
        if let Err(e) = written {
            eprintln!(
                "warning: wal {}: append failed ({e}); sessions are not \
                 recoverable past here",
                self.path.display()
            );
            self.write_failed = true;
        }
    }

    /// Seals the WAL for a clean shutdown: appends [`WalRecord::Seal`],
    /// fsyncs, and refuses further appends. Idempotent.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.append(&WalRecord::Seal);
        self.sealed = true;
    }
}

/// What [`read`] recovered from a WAL file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalContents {
    /// The durable prefix, in append order: every record strictly
    /// before the first corrupt line, [`WalRecord::Seal`] markers
    /// excluded. This is what [`apply`] replays.
    pub records: Vec<WalRecord>,
    /// Quarantined lines: each corrupt line (torn append, garbled
    /// bytes) and every parseable record *after* the first corrupt line
    /// (history cannot be trusted past a tear), with 1-based line
    /// numbers and why each was set aside.
    pub quarantined: Vec<(usize, String)>,
    /// Whether the durable prefix ends in a clean-shutdown seal. A
    /// false here after a supposedly clean stop means the previous
    /// process crashed.
    pub sealed: bool,
}

/// Reads a WAL file, splitting it into the durable prefix and the
/// quarantined tail (see [`WalContents`]).
///
/// Failpoint `wal::replay` (detail: 1-based line number) tears a line
/// at read time, via the shared [`wire::read_line_log`] reader.
///
/// # Errors
///
/// [`WalError::Io`] when the file cannot be read, [`WalError::Corrupt`]
/// when the header is missing or unrecognized. Torn entry lines are
/// *not* errors.
pub fn read<P: AsRef<Path>>(path: P) -> Result<WalContents, WalError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(io_err(path))?;
    let log =
        wire::read_line_log(&text, HEADER, "wal::replay", parse_record).map_err(|message| {
            WalError::Corrupt {
                path: path.to_path_buf(),
                line: 1,
                message,
            }
        })?;

    // History must not be trusted past a tear: truncate the replayable
    // records to the prefix strictly before the first corrupt line.
    let first_corrupt = log.corrupt.iter().map(|&(line, _)| line).min();
    let mut records = Vec::new();
    let mut quarantined = log.corrupt;
    let mut sealed = false;
    for (line, record) in log.entries {
        if first_corrupt.is_some_and(|torn| line > torn) {
            quarantined.push((
                line,
                format!(
                    "discarded: follows the torn line {}",
                    first_corrupt.unwrap_or(0)
                ),
            ));
            continue;
        }
        sealed = matches!(record, WalRecord::Seal);
        if !sealed {
            records.push(record);
        }
    }
    quarantined.sort_by_key(|&(line, _)| line);
    Ok(WalContents {
        records,
        quarantined,
        sealed,
    })
}

/// What [`apply`] restored, for the recovery summary (counts only — the
/// summary goes to stderr so stdout stays byte-deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records replayed (the durable prefix length).
    pub records: usize,
    /// Designs loaded.
    pub designs: usize,
    /// Sessions opened or forked.
    pub sessions: usize,
    /// Sessions closed again.
    pub closed: usize,
    /// Resizes committed (explicit commits plus step-round moves).
    pub commits: usize,
    /// Snapshots taken.
    pub snapshots: usize,
    /// Rollbacks replayed.
    pub rollbacks: usize,
}

/// Replays a durable prefix into a session store, rebuilding every
/// session bit-identically through the same entry points live clients
/// use. `build_design` resolves a [`WalRecord::Load`] back into a
/// [`Design`] (the front-end passes its circuit-name resolver; the
/// core does not know how designs are constructed).
///
/// # Errors
///
/// [`WalError::Replay`] when a record is refused (unknown circuit name,
/// inadmissible resize, an admission cap smaller than the logged
/// session count, …). The store is left as of the preceding record;
/// callers should treat this as a hard recovery failure rather than
/// serve from half-restored state.
pub fn apply(
    records: &[WalRecord],
    store: &mut SessionStore,
    mut build_design: impl FnMut(&str, u64, f64) -> Result<Design, String>,
) -> Result<RecoveryStats, WalError> {
    let mut stats = RecoveryStats::default();
    for (i, record) in records.iter().enumerate() {
        let fail = |message: String| WalError::Replay {
            record: i,
            kind: record.kind(),
            message,
        };
        fn session_mut<'a>(
            store: &'a mut SessionStore,
            name: &str,
        ) -> Result<&'a mut crate::service::Session, String> {
            store
                .session_mut(name)
                .ok_or_else(|| format!("unknown or lost session `{name}`"))
        }
        match record {
            WalRecord::Load { design, seed, dt } => {
                let built = build_design(design, *seed, *dt).map_err(fail)?;
                store.add_design(built).map_err(|e| fail(e.to_string()))?;
                stats.designs += 1;
            }
            WalRecord::Open {
                session,
                design,
                selector,
                objective,
                max_iterations,
                delta_w,
            } => {
                let optimizer = Optimizer::new(
                    Objective::from_wire(objective).map_err(fail)?,
                    SelectorKind::from_wire(selector).map_err(fail)?,
                )
                .with_max_iterations(*max_iterations)
                .with_delta_w(*delta_w);
                store
                    .open(session, design, optimizer)
                    .map_err(|e| fail(e.to_string()))?;
                stats.sessions += 1;
            }
            WalRecord::Fork { session, from } => {
                store.fork(session, from).map_err(|e| fail(e.to_string()))?;
                stats.sessions += 1;
            }
            WalRecord::Close { session } => {
                store.close(session).map_err(|e| fail(e.to_string()))?;
                stats.closed += 1;
            }
            WalRecord::Commit {
                session,
                gate,
                delta_w,
            } => {
                session_mut(store, session)
                    .and_then(|s| s.commit(gate, *delta_w).map_err(|e| e.to_string()))
                    .map_err(fail)?;
                stats.commits += 1;
            }
            WalRecord::Step { session, moves } => {
                session_mut(store, session)
                    .and_then(|s| s.replay_step_moves(moves).map_err(|e| e.to_string()))
                    .map_err(fail)?;
                stats.commits += moves.len();
            }
            WalRecord::Snapshot { session, name } => {
                session_mut(store, session)
                    .and_then(|s| s.snapshot(name).map_err(|e| e.to_string()))
                    .map_err(fail)?;
                stats.snapshots += 1;
            }
            WalRecord::Rollback { session, name } => {
                session_mut(store, session)
                    .and_then(|s| s.rollback(name).map_err(|e| e.to_string()))
                    .map_err(fail)?;
                stats.rollbacks += 1;
            }
            WalRecord::Seal => {} // filtered out by `read`; ignore defensively
        }
        stats.records += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{arm, FaultAction};
    use crate::service::{QueryRequest, SessionOp};
    use statsize_cells::CellLibrary;
    use statsize_netlist::bench;

    fn c17_design(name: &str) -> Design {
        Design::new(name, bench::c17(), CellLibrary::synthetic_180nm()).with_dt(2.0)
    }

    fn builder(name: &str, _seed: u64, dt: f64) -> Result<Design, String> {
        if name == "c17" {
            Ok(c17_design("c17").with_dt(dt))
        } else {
            Err(format!("unknown circuit `{name}`"))
        }
    }

    /// Held by every test that writes or reads a WAL file. The
    /// failpoint registry is process-wide, so while one test has
    /// `wal::append` or `wal::replay` armed, another test's appends and
    /// reads would fire it too.
    fn wal_files() -> std::sync::MutexGuard<'static, ()> {
        static WAL_FILES: std::sync::Mutex<()> = std::sync::Mutex::new(());
        WAL_FILES.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Load {
                design: "c17".to_string(),
                seed: 1,
                dt: 2.0,
            },
            WalRecord::Open {
                session: "main".to_string(),
                design: "c17".to_string(),
                selector: "pruned".to_string(),
                objective: "percentile:0.99".to_string(),
                max_iterations: 4,
                delta_w: 1.0,
            },
            WalRecord::Commit {
                session: "main".to_string(),
                gate: "22".to_string(),
                delta_w: 1.0,
            },
            WalRecord::Snapshot {
                session: "main".to_string(),
                name: "base".to_string(),
            },
            WalRecord::Fork {
                session: "alt".to_string(),
                from: "main".to_string(),
            },
            WalRecord::Step {
                session: "alt".to_string(),
                moves: vec![("16".to_string(), 1.0), ("19".to_string(), 1.0)],
            },
            WalRecord::Rollback {
                session: "main".to_string(),
                name: "base".to_string(),
            },
            WalRecord::Close {
                session: "alt".to_string(),
            },
        ]
    }

    #[test]
    fn records_round_trip_through_their_lines() {
        for record in sample_records() {
            let line = record.to_line();
            let back = parse_record(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, record, "{line}");
        }
        let weird = WalRecord::Snapshot {
            session: "s \"quoted\"\\".to_string(),
            name: "tab\there".to_string(),
        };
        assert_eq!(parse_record(&weird.to_line()).unwrap(), weird);
        assert!(parse_record("{\"record\":\"frobnicate\"}").is_err());
        assert!(parse_record("{\"no_record\":1}").is_err());
    }

    #[test]
    fn write_read_apply_round_trips_and_seals() {
        let _files = wal_files();
        let dir = std::env::temp_dir().join("statsize-wal-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");
        let mut wal = Wal::create(&path).expect("create");
        for record in sample_records() {
            wal.append(&record);
        }
        assert!(wal.healthy());

        // Unsealed (as after a crash): full durable prefix, not sealed.
        let contents = read(&path).expect("read");
        assert_eq!(contents.records, sample_records());
        assert!(contents.quarantined.is_empty());
        assert!(!contents.sealed);

        wal.seal();
        assert!(wal.sealed());
        wal.seal(); // idempotent
        let contents = read(&path).expect("read sealed");
        assert_eq!(contents.records, sample_records(), "seal is filtered out");
        assert!(contents.sealed);

        // Replay restores the store; the restored session answers like
        // a live one.
        let mut store = SessionStore::new();
        let stats = apply(&contents.records, &mut store, builder).expect("apply");
        assert_eq!(stats.records, 8);
        assert_eq!(stats.designs, 1);
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.closed, 1);
        assert_eq!(stats.commits, 3);
        assert_eq!(stats.snapshots, 1);
        assert_eq!(stats.rollbacks, 1);
        assert_eq!(store.session_names(), vec!["main"]);
        let main = store.session("main").expect("main");
        assert_eq!(main.committed().len(), 1, "rollback discarded nothing else");

        // Recovery ≡ direct construction, bitwise: the same history
        // built without the WAL yields a bit-identical session state.
        let mut direct = SessionStore::new();
        direct.add_design(c17_design("c17")).unwrap();
        let optimizer = Optimizer::new(
            Objective::percentile(0.99),
            crate::optimizer::SelectorKind::Pruned,
        )
        .with_max_iterations(4)
        .with_delta_w(1.0);
        direct.open("main", "c17", optimizer).unwrap();
        let results = direct.batch(&[
            QueryRequest::new(
                "main",
                SessionOp::Commit {
                    gate: "22".to_string(),
                    delta_w: 1.0,
                },
            ),
            QueryRequest::new(
                "main",
                SessionOp::Snapshot {
                    name: "base".to_string(),
                },
            ),
        ]);
        assert!(results.iter().all(Result::is_ok));
        let recovered_info = format!("{:?}", main.info().unwrap());
        let direct_info = format!("{:?}", direct.session("main").unwrap().info().unwrap());
        assert_eq!(recovered_info, direct_info);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_to_the_durable_prefix() {
        let _files = wal_files();
        let dir = std::env::temp_dir().join("statsize-wal-test-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");
        let mut wal = Wal::create(&path).expect("create");
        let records = sample_records();
        for record in &records {
            wal.append(record);
        }
        drop(wal);
        // Tear the file by hand: a half-written line, then a record that
        // would parse fine but must not be trusted.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"record\":\"commit\",\"sess\n");
        text.push_str("{\"record\":\"close\",\"session\":\"main\"}\n");
        std::fs::write(&path, &text).unwrap();

        let contents = read(&path).expect("torn tails are not hard errors");
        assert_eq!(contents.records, records, "prefix survives intact");
        assert_eq!(contents.quarantined.len(), 2);
        assert!(contents.quarantined[1].1.contains("follows the torn line"));
        assert!(!contents.sealed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_failpoint_tears_mid_write_and_recovery_keeps_the_prefix() {
        let _files = wal_files();
        let dir = std::env::temp_dir().join("statsize-wal-test-failpoint");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");
        let mut wal = Wal::create(&path).expect("create");
        let records = sample_records();
        // Tear the step append (record 6); everything before it stays
        // durable, everything after is never written.
        let guard = arm("wal::append", Some("step"), FaultAction::Trigger);
        for record in &records {
            wal.append(record);
        }
        drop(guard);
        assert!(!wal.healthy(), "a torn append reports as unhealthy");
        drop(wal);

        let contents = read(&path).expect("read");
        assert_eq!(contents.records, records[..5].to_vec());
        assert_eq!(contents.quarantined.len(), 1, "the half-written step line");
        let mut store = SessionStore::new();
        let stats = apply(&contents.records, &mut store, builder).expect("apply");
        assert_eq!(stats.sessions, 2);
        assert_eq!(store.session_names(), vec!["main", "alt"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_failpoint_tears_at_read_time() {
        let _files = wal_files();
        let dir = std::env::temp_dir().join("statsize-wal-test-replayfp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");
        let mut wal = Wal::create(&path).expect("create");
        for record in sample_records() {
            wal.append(&record);
        }
        drop(wal);
        // Line 1 is the header; tear entry line 4 (the snapshot).
        let guard = arm("wal::replay", Some("4"), FaultAction::Trigger);
        let contents = read(&path).expect("read");
        drop(guard);
        assert_eq!(contents.records, sample_records()[..2].to_vec());
        assert_eq!(contents.quarantined.len(), 6, "tear plus discarded tail");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_refusals_and_bad_headers_are_typed() {
        let mut store = SessionStore::new();
        let err = apply(
            &[WalRecord::Load {
                design: "c404".to_string(),
                seed: 1,
                dt: 2.0,
            }],
            &mut store,
            builder,
        )
        .expect_err("unknown circuit must fail replay");
        assert!(
            matches!(
                err,
                WalError::Replay {
                    record: 0,
                    kind: "load",
                    ..
                }
            ),
            "{err}"
        );
        let err = apply(
            &[WalRecord::Commit {
                session: "ghost".to_string(),
                gate: "22".to_string(),
                delta_w: 1.0,
            }],
            &mut store,
            builder,
        )
        .expect_err("unknown session must fail replay");
        assert!(matches!(err, WalError::Replay { .. }), "{err}");

        let _files = wal_files();
        let dir = std::env::temp_dir().join("statsize-wal-test-header");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");
        std::fs::write(&path, "not a wal\n").unwrap();
        let err = read(&path).expect_err("header must be validated");
        assert!(matches!(err, WalError::Corrupt { line: 1, .. }), "{err}");
        let err = read(dir.join("nope.jsonl")).expect_err("missing file");
        assert!(matches!(err, WalError::Io { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
