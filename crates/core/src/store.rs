//! The content-addressed result store: the one log of completed
//! campaign outcomes.
//!
//! The [`ResultStore`] answers "has a campaign already optimized this
//! exact scenario?" — whether that campaign was an earlier run, another
//! configuration over the same corpus, or this run's own interrupted
//! predecessor — and, when the answer is "almost", hands the optimizer a
//! warm start. Checkpoint/resume is the same question: a campaign killed
//! mid-run has recorded every job it completed, so re-running it against
//! the same store replays those jobs as exact hits and runs only the
//! rest.
//!
//! A scenario is addressed by **content**, not by job name: the
//! [`ScenarioKey`] combines an FNV-1a hash of the netlist's canonical
//! `.bench` text, the cell-library and variation-model fingerprints, the
//! lattice step `dt`, the objective's wire name, the full optimizer
//! configuration, and the corpus seed (all hashing through the shared
//! [`fingerprint`](crate::fingerprint) module). Each record carries the
//! completed [`CircuitOutcome`] **plus the final sizing vector**:
//!
//! * an **exact** key hit replays the outcome without a single optimizer
//!   sweep — byte-identical on the default report, so CI can diff
//!   reports across commits (and across an interruption) instead of
//!   re-running;
//! * a **partial** hit (same netlist/library/variation/seed, different
//!   objective, `dt`, or optimizer knobs) seeds
//!   [`Optimizer::with_initial_sizes`](crate::Optimizer::with_initial_sizes)
//!   with the stored sizing vector, so a delta run descends from the
//!   previous optimum instead of from minimum sizes.
//!
//! Only deterministic outcomes are recorded: `Completed` outcomes from a
//! deadline-fallback rerun (`degraded`) as well as `Failed`/`TimedOut`
//! jobs are re-run next time — a timeout or a transient fault is not a
//! result worth caching.
//!
//! # Determinism: the frozen lookup view
//!
//! Campaign outcomes are bit-identical across shard counts, and the
//! store must not break that. Lookups therefore consult the entries **as
//! loaded when the store was opened**; records appended during a run go
//! to disk (and are visible to the *next* open) but never to the current
//! run's lookups. Without this freeze, whether job B warm-starts from
//! job A's result would depend on which shard finished A first — a
//! schedule-dependent outcome.
//!
//! Warm-start selection is deterministic too: among the candidates in a
//! scenario's warm class, the store prefers (in order) a matching
//! optimizer configuration, a matching objective, and a matching `dt`,
//! breaking ties by the lexicographically smallest exact key.
//!
//! # File format
//!
//! One JSONL file in the shared hand-rolled [`wire`] dialect (this
//! workspace vendors no serde), documented in `docs/PROTOCOL.md`: a
//! header line `{"store":"statsize-results","version":1}`, then one
//! `{"key":{...},"sizes":[...],"outcome":{...}}` record per line.
//! Floats serialize through shortest-round-trip `Display` and parse back
//! bit-exactly. Reading shares [`wire::read_line_log`] with the WAL:
//! strict header, per-line quarantine of torn or garbled entries (keyed
//! last-write-wins over the survivors), so a crash mid-append costs at
//! most the torn record.

use crate::campaign::CircuitOutcome;
use crate::optimizer::StopReason;
use crate::wire::{self, escape, get, get_bool, get_bool_or, get_f64, get_str, get_usize};
use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The store header line: identifies the file and pins the record
/// schema version.
const HEADER: &str = "{\"store\":\"statsize-results\",\"version\":1}";

/// The full content address of one optimization scenario. Every
/// component is part of the identity: change any one and the exact key
/// misses (pinned by `tests/result_store.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioKey {
    /// FNV-1a hash of the netlist's canonical `.bench` serialization
    /// ([`fingerprint::netlist_content_hash`](crate::fingerprint::netlist_content_hash)).
    pub netlist: u64,
    /// Cell-library fingerprint
    /// ([`fingerprint::library_fingerprint`](crate::fingerprint::library_fingerprint)).
    pub library: u64,
    /// Variation-model fingerprint
    /// ([`fingerprint::variation_fingerprint`](crate::fingerprint::variation_fingerprint)).
    pub variation: u64,
    /// Lattice step (ps).
    pub dt: f64,
    /// The objective's stable wire name
    /// ([`Objective::wire_name`](crate::Objective::wire_name)).
    pub objective: String,
    /// The remaining optimizer configuration as one stable string:
    /// selector wire name, `Δw`, iteration budget, sensitivity floor,
    /// deadline, fallback (see
    /// [`Campaign::scenario_key`](crate::Campaign::scenario_key)).
    pub optimizer: String,
    /// The corpus RNG seed
    /// ([`Campaign::with_corpus_seed`](crate::Campaign::with_corpus_seed)).
    pub corpus_seed: u64,
}

impl ScenarioKey {
    /// The full exact-match key string. Distinct scenarios render
    /// distinct strings: the fixed-width hash fields are
    /// position-delimited and the free-form objective/optimizer strings
    /// come last, separated by a byte (`\u{1f}`) neither can contain
    /// (both are built from `Display`/`Debug` renderings of plain
    /// ASCII configuration).
    pub fn exact(&self) -> String {
        format!(
            "{:016x}:{:016x}:{:016x}:{:016x}:{:016x}\u{1f}{}\u{1f}{}",
            self.netlist,
            self.library,
            self.variation,
            self.dt.to_bits(),
            self.corpus_seed,
            self.objective,
            self.optimizer,
        )
    }

    /// The warm-start equivalence class: netlist, library, variation
    /// model, and corpus seed. Two scenarios in the same class optimize
    /// the *same physical circuit under the same process* — their final
    /// sizing vectors are mutually meaningful — and differ only in what
    /// was asked of the optimizer (objective, `dt`, knobs).
    pub fn warm_class(&self) -> String {
        format!(
            "{:016x}:{:016x}:{:016x}:{:016x}",
            self.netlist, self.library, self.variation, self.corpus_seed
        )
    }

    fn to_json(&self) -> String {
        // u64 hashes ride as hex strings: JSON numbers are f64 on this
        // wire and would silently round above 2^53.
        format!(
            "{{\"netlist\":\"{:016x}\",\"library\":\"{:016x}\",\"variation\":\"{:016x}\",\
             \"dt\":{},\"objective\":\"{}\",\"optimizer\":\"{}\",\"seed\":\"{:016x}\"}}",
            self.netlist,
            self.library,
            self.variation,
            self.dt,
            escape(&self.objective),
            escape(&self.optimizer),
            self.corpus_seed,
        )
    }

    fn parse(obj: &[(String, wire::Json)]) -> Result<Self, String> {
        let hex = |name: &str| -> Result<u64, String> {
            let s = get_str(obj, name)?;
            u64::from_str_radix(s, 16).map_err(|_| format!("field `{name}` is not a hex hash"))
        };
        Ok(Self {
            netlist: hex("netlist")?,
            library: hex("library")?,
            variation: hex("variation")?,
            dt: get_f64(obj, "dt")?,
            objective: get_str(obj, "objective")?.to_string(),
            optimizer: get_str(obj, "optimizer")?.to_string(),
            corpus_seed: hex("seed")?,
        })
    }
}

/// One stored result: the scenario it was produced under, the final
/// per-gate sizing vector, and the completed outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// The scenario that produced this result.
    pub key: ScenarioKey,
    /// Final gate widths, indexed by gate id — the warm-start seed.
    pub sizes: Vec<f64>,
    /// The completed outcome, replayed bit-identically on an exact hit.
    pub outcome: CircuitOutcome,
}

/// A typed store fault: an I/O failure on the store file, or a corrupt
/// line in it.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing the store file failed.
    Io {
        /// The store path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A line of the store is not a valid record (torn append, garbled
    /// bytes, wrong schema). Entry corruption is quarantined on open;
    /// header corruption fails the open.
    Corrupt {
        /// The store path.
        path: PathBuf,
        /// 1-based line number of the corrupt line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "result store {}: {source}", path.display())
            }
            StoreError::Corrupt {
                path,
                line,
                message,
            } => write!(f, "result store {} line {line}: {message}", path.display()),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt { .. } => None,
        }
    }
}

/// The on-disk result store: scenario-keyed completed outcomes with
/// their final sizing vectors, shared across campaigns (see the module
/// docs for the lookup/freeze semantics).
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    read_only: bool,
    /// Entries as loaded at open time — the frozen lookup view.
    entries: Vec<StoreEntry>,
    /// Exact key → index into `entries`, last write wins.
    exact: HashMap<String, usize>,
    /// Warm class → indices of its surviving (deduplicated) entries.
    classes: HashMap<String, Vec<usize>>,
    corrupt: Vec<StoreError>,
    write_failed: bool,
}

impl ResultStore {
    /// Creates (or truncates) a store at `path` and writes the header.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the file cannot be written.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        std::fs::write(&path, format!("{HEADER}\n")).map_err(|source| StoreError::Io {
            path: path.clone(),
            source,
        })?;
        Ok(Self::empty(path, false))
    }

    /// Opens an existing store read-write, loading every record into the
    /// frozen lookup view. Corrupt *entry* lines are quarantined
    /// (available via [`corrupt_entries`](Self::corrupt_entries)) and
    /// simply miss; a missing or mismatched *header* is a hard error,
    /// since the whole file is then of unknown provenance.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the file cannot be read and
    /// [`StoreError::Corrupt`] on a bad header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        Self::load(path, false)
    }

    /// [`open`](Self::open), or [`create`](Self::create) when no file
    /// exists at `path` yet — the campaign CLI's `--store` semantics.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open) / [`create`](Self::create).
    pub fn open_or_create<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        if path.as_ref().exists() {
            Self::open(path)
        } else {
            Self::create(path)
        }
    }

    /// [`open`](Self::open) in read-only mode: lookups are served
    /// normally, [`record`](Self::record) becomes a no-op, and the file
    /// is never written — for consulting a shared or version-controlled
    /// store without perturbing it.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_read_only<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        Self::load(path, true)
    }

    fn empty(path: PathBuf, read_only: bool) -> Self {
        Self {
            path,
            read_only,
            entries: Vec::new(),
            exact: HashMap::new(),
            classes: HashMap::new(),
            corrupt: Vec::new(),
            write_failed: false,
        }
    }

    fn load<P: AsRef<Path>>(path: P, read_only: bool) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let text = std::fs::read_to_string(&path).map_err(|source| StoreError::Io {
            path: path.clone(),
            source,
        })?;
        // Shared reader: strict header, per-line quarantine (with the
        // `store::read` failpoint tearing lines in tests). The store's
        // policy on top is keyed last-write-wins per exact key.
        let log =
            wire::read_line_log(&text, HEADER, "store::read", parse_record).map_err(|message| {
                StoreError::Corrupt {
                    path: path.clone(),
                    line: 1,
                    message,
                }
            })?;
        let mut store = Self::empty(path.clone(), read_only);
        for (_, entry) in log.entries {
            store.index(entry);
        }
        store.corrupt = log
            .corrupt
            .into_iter()
            .map(|(line, message)| StoreError::Corrupt {
                path: path.clone(),
                line,
                message,
            })
            .collect();
        Ok(store)
    }

    /// Adds an entry to the in-memory view, superseding any prior entry
    /// with the same exact key (last write wins).
    fn index(&mut self, entry: StoreEntry) {
        let exact = entry.key.exact();
        let class = entry.key.warm_class();
        let idx = self.entries.len();
        self.entries.push(entry);
        if let Some(old) = self.exact.insert(exact, idx) {
            let members = self.classes.entry(class.clone()).or_default();
            members.retain(|&i| i != old);
        }
        self.classes.entry(class).or_default().push(idx);
    }

    /// The store file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the store was opened read-only.
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// Number of distinct scenarios in the frozen lookup view.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Whether the frozen lookup view has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// Corrupt lines quarantined on open (their scenarios simply miss
    /// and re-run).
    pub fn corrupt_entries(&self) -> &[StoreError] {
        &self.corrupt
    }

    /// The stored result for an exactly matching scenario, from the
    /// frozen at-open view.
    pub fn lookup_exact(&self, key: &ScenarioKey) -> Option<&StoreEntry> {
        self.exact.get(&key.exact()).map(|&i| &self.entries[i])
    }

    /// The best warm-start candidate for `key`: an entry from the same
    /// [warm class](ScenarioKey::warm_class) (same netlist, library,
    /// variation model, and corpus seed) under a *different* exact key.
    /// Preference is deterministic — matching optimizer configuration,
    /// then matching objective, then matching `dt` bits, ties broken by
    /// the lexicographically smallest exact key — so a delta run picks
    /// the same seed vector under every shard and thread count.
    pub fn lookup_warm(&self, key: &ScenarioKey) -> Option<&StoreEntry> {
        let exact = key.exact();
        let members = self.classes.get(&key.warm_class())?;
        members
            .iter()
            .map(|&i| &self.entries[i])
            .filter(|e| e.key.exact() != exact)
            .max_by(|a, b| {
                let score = |e: &StoreEntry| {
                    (
                        e.key.optimizer == key.optimizer,
                        e.key.objective == key.objective,
                        e.key.dt.to_bits() == key.dt.to_bits(),
                    )
                };
                score(a)
                    .cmp(&score(b))
                    // `max_by` keeps the *later* element on `Equal`;
                    // compare reversed key strings so the smallest key
                    // wins deterministically.
                    .then_with(|| b.key.exact().cmp(&a.key.exact()))
            })
    }

    /// Appends one completed result. In read-only mode this is a no-op.
    /// The record is visible to the *next* open, not to this store's own
    /// lookups (the frozen-view determinism contract — see the module
    /// docs). A write failure is reported to stderr and disables further
    /// appends; the campaign result is unaffected.
    pub fn record(&mut self, key: &ScenarioKey, sizes: &[f64], outcome: &CircuitOutcome) {
        if self.read_only || self.write_failed {
            return;
        }
        let mut rendered_sizes = String::new();
        for (i, w) in sizes.iter().enumerate() {
            if i > 0 {
                rendered_sizes.push(',');
            }
            let _ = fmt::Write::write_fmt(&mut rendered_sizes, format_args!("{w}"));
        }
        let line = format!(
            "{{\"key\":{},\"sizes\":[{}],\"outcome\":{}}}\n",
            key.to_json(),
            rendered_sizes,
            outcome_to_json(outcome)
        );
        let appended = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!(
                "warning: result store {}: append failed ({e}); further results will not be stored",
                self.path.display()
            );
            self.write_failed = true;
        }
    }
}

fn parse_record(line: &str) -> Result<StoreEntry, String> {
    let value = wire::parse(line)?;
    let obj = value.as_object().ok_or("record is not a JSON object")?;
    let key = ScenarioKey::parse(
        get(obj, "key")?
            .as_object()
            .ok_or("`key` is not an object")?,
    )?;
    let sizes = get(obj, "sizes")?
        .as_array()
        .ok_or("`sizes` is not an array")?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| "non-numeric size".to_string()))
        .collect::<Result<Vec<f64>, String>>()?;
    let outcome = parse_outcome(
        get(obj, "outcome")?
            .as_object()
            .ok_or("`outcome` is not an object")?,
    )?;
    Ok(StoreEntry {
        key,
        sizes,
        outcome,
    })
}

/// Serializes an outcome: the `outcome` object of a store record. Floats
/// use Rust's shortest-round-trip `Display`, so parsing them back yields
/// the exact same bits — the foundation of the byte-identical replay
/// contract. The runtime-only [`cached`](CircuitOutcome::cached) flag is
/// deliberately absent: it records how *this run* obtained the outcome,
/// not what the outcome is.
fn outcome_to_json(o: &CircuitOutcome) -> String {
    format!(
        "{{\"name\":\"{}\",\"nodes\":{},\"edges\":{},\"depth\":{},\
         \"initial_objective\":{},\"final_objective\":{},\
         \"initial_width\":{},\"final_width\":{},\
         \"iterations\":{},\"stop\":\"{:?}\",\
         \"candidates\":{},\"pruned\":{},\"completed\":{},\
         \"degraded\":{},\"warm_started\":{},\"wall_ms\":{}}}",
        escape(&o.name),
        o.nodes,
        o.edges,
        o.depth,
        o.initial_objective,
        o.final_objective,
        o.initial_width,
        o.final_width,
        o.iterations,
        o.stop,
        o.candidates,
        o.pruned,
        o.completed,
        o.degraded,
        o.warm_started,
        o.wall.as_secs_f64() * 1e3,
    )
}

/// Parses the object form [`outcome_to_json`] writes. `warm_started`
/// defaults to `false` when absent (records written before the field
/// existed); `cached` is never on the wire and parses as `false`.
fn parse_outcome(outcome: &[(String, wire::Json)]) -> Result<CircuitOutcome, String> {
    let stop = match get_str(outcome, "stop")? {
        "Converged" => StopReason::Converged,
        "MaxIterations" => StopReason::MaxIterations,
        "WidthLimit" => StopReason::WidthLimit,
        "DeadlineExpired" => StopReason::DeadlineExpired,
        other => return Err(format!("unknown stop reason `{other}`")),
    };
    Ok(CircuitOutcome {
        name: get_str(outcome, "name")?.to_string(),
        nodes: get_usize(outcome, "nodes")?,
        edges: get_usize(outcome, "edges")?,
        depth: get_usize(outcome, "depth")?,
        initial_objective: get_f64(outcome, "initial_objective")?,
        final_objective: get_f64(outcome, "final_objective")?,
        initial_width: get_f64(outcome, "initial_width")?,
        final_width: get_f64(outcome, "final_width")?,
        iterations: get_usize(outcome, "iterations")?,
        stop,
        candidates: get_usize(outcome, "candidates")?,
        pruned: get_usize(outcome, "pruned")?,
        completed: get_usize(outcome, "completed")?,
        degraded: get_bool(outcome, "degraded")?,
        warm_started: get_bool_or(outcome, "warm_started", false)?,
        cached: false,
        wall: Duration::from_secs_f64(get_f64(outcome, "wall_ms")?.max(0.0) / 1e3),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64) -> ScenarioKey {
        ScenarioKey {
            netlist: 0x1111 + tag,
            library: 0x2222,
            variation: 0x3333,
            dt: 2.0,
            objective: "percentile:0.99".to_string(),
            optimizer: "pruned|dw:1|it:4|ms:0".to_string(),
            corpus_seed: 7,
        }
    }

    fn outcome(name: &str) -> CircuitOutcome {
        CircuitOutcome {
            name: name.to_string(),
            nodes: 13,
            edges: 19,
            depth: 4,
            initial_objective: 123.456_789_012_345_67,
            final_objective: 0.1 + 0.2,
            initial_width: 6.0,
            final_width: 9.5,
            iterations: 3,
            stop: StopReason::Converged,
            candidates: 18,
            pruned: 12,
            completed: 6,
            degraded: false,
            warm_started: false,
            cached: false,
            wall: Duration::from_micros(1234),
        }
    }

    /// Renders and re-parses one outcome through the record codec.
    fn round_trip(o: &CircuitOutcome) -> CircuitOutcome {
        let value = wire::parse(&outcome_to_json(o)).expect("valid JSON");
        parse_outcome(value.as_object().expect("an object")).expect("round trip")
    }

    #[test]
    fn outcome_round_trips_bit_exactly() {
        let o = outcome("weird \"name\"\\with\tescapes");
        let back = round_trip(&o);
        assert_eq!(back.name, o.name);
        assert_eq!(
            back.initial_objective.to_bits(),
            o.initial_objective.to_bits()
        );
        assert_eq!(back.final_objective.to_bits(), o.final_objective.to_bits());
        assert_eq!(back.final_width.to_bits(), o.final_width.to_bits());
        assert_eq!(back.deterministic_key(), o.deterministic_key());
        assert_eq!((back.pruned, back.completed), (o.pruned, o.completed));
        assert_eq!(back.stop, o.stop);
        assert_eq!(back.degraded, o.degraded);
    }

    #[test]
    fn warm_started_round_trips_and_defaults_false_when_absent() {
        let mut o = outcome("w");
        o.warm_started = true;
        o.cached = true; // runtime provenance — must NOT survive the wire
        let back = round_trip(&o);
        assert!(back.warm_started);
        assert!(!back.cached, "cached is never serialized");
        // Records written before the field existed parse with the
        // lenient default instead of quarantining.
        let json = outcome_to_json(&o);
        let stripped = json.replace(",\"warm_started\":true", "");
        assert_ne!(stripped, json, "field must have been present");
        let value = wire::parse(&stripped).expect("valid JSON");
        let back = parse_outcome(value.as_object().unwrap()).expect("lenient parse");
        assert!(!back.warm_started);
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("statsize-store-test-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("results.jsonl")
    }

    #[test]
    fn record_reopen_round_trips_bit_exactly() {
        let path = temp_store("roundtrip");
        let mut s = ResultStore::create(&path).unwrap();
        assert!(s.is_empty());
        assert!(!s.read_only());
        let sizes = vec![1.0, 2.5, 0.1 + 0.2 + 1.0];
        s.record(&key(0), &sizes, &outcome("a"));
        // The frozen view does not see the same-run append...
        assert!(s.lookup_exact(&key(0)).is_none(), "frozen at open");

        // ...but the next open does, bit-exactly.
        let s = ResultStore::open(&path).unwrap();
        assert_eq!(s.len(), 1);
        let entry = s.lookup_exact(&key(0)).expect("recorded scenario");
        assert_eq!(entry.key, key(0));
        let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&entry.sizes), bits(&sizes));
        assert_eq!(
            entry.outcome.final_objective.to_bits(),
            (0.1_f64 + 0.2).to_bits()
        );
        assert_eq!(
            entry.outcome.deterministic_key(),
            outcome("a").deterministic_key()
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn every_key_component_separates_scenarios() {
        let base = key(0);
        let mut variants = vec![base.clone(); 6];
        variants[0].netlist ^= 1;
        variants[1].library ^= 1;
        variants[2].variation ^= 1;
        variants[3].dt = 2.5;
        variants[4].objective = "mean".to_string();
        variants[5].corpus_seed ^= 1;
        let mut optimizer_variant = base.clone();
        optimizer_variant.optimizer = "brute|dw:1|it:4|ms:0".to_string();
        variants.push(optimizer_variant);
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(v.exact(), base.exact(), "variant {i} must change the key");
        }
        // Exact keys are injective over the free-form fields too: moving
        // a character across the objective/optimizer boundary must not
        // collide (the \u{1f} separator cannot appear in either).
        let mut a = base.clone();
        a.objective = "meanx".to_string();
        a.optimizer = "y".to_string();
        let mut b = base.clone();
        b.objective = "mean".to_string();
        b.optimizer = "xy".to_string();
        assert_ne!(a.exact(), b.exact());
    }

    #[test]
    fn lookup_misses_on_any_component_change() {
        let path = temp_store("miss");
        {
            let mut s = ResultStore::create(&path).unwrap();
            s.record(&key(0), &[1.0], &outcome("a"));
        }
        let s = ResultStore::open(&path).unwrap();
        assert!(s.lookup_exact(&key(0)).is_some());
        for variant in [
            ScenarioKey {
                netlist: 0x9999,
                ..key(0)
            },
            ScenarioKey {
                library: 0x9999,
                ..key(0)
            },
            ScenarioKey {
                variation: 0x9999,
                ..key(0)
            },
            ScenarioKey { dt: 2.5, ..key(0) },
            ScenarioKey {
                objective: "mean".to_string(),
                ..key(0)
            },
            ScenarioKey {
                optimizer: "other".to_string(),
                ..key(0)
            },
            ScenarioKey {
                corpus_seed: 8,
                ..key(0)
            },
        ] {
            assert!(s.lookup_exact(&variant).is_none(), "{variant:?}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn warm_lookup_prefers_closest_scenario_deterministically() {
        let path = temp_store("warm");
        {
            let mut s = ResultStore::create(&path).unwrap();
            // Same class, different dt (closest: matches optimizer+objective).
            let mut dt_variant = key(0);
            dt_variant.dt = 4.0;
            s.record(&dt_variant, &[2.0], &outcome("dt"));
            // Same class, different objective.
            let mut obj_variant = key(0);
            obj_variant.objective = "mean".to_string();
            s.record(&obj_variant, &[3.0], &outcome("obj"));
            // Different class entirely (other netlist).
            s.record(&key(1), &[9.0], &outcome("other"));
        }
        let s = ResultStore::open(&path).unwrap();
        assert_eq!(s.len(), 3);

        // Query with dt=2.0: the dt-variant shares optimizer AND
        // objective (score (true, true, false)) and must beat the
        // objective-variant (score (true, false, true)).
        let warm = s.lookup_warm(&key(0)).expect("warm candidate");
        assert_eq!(warm.sizes, vec![2.0]);

        // An exact hit is never offered as its own warm start.
        let mut dt_query = key(0);
        dt_query.dt = 4.0;
        assert!(s.lookup_exact(&dt_query).is_some());
        let warm = s.lookup_warm(&dt_query).expect("other candidates remain");
        assert_ne!(warm.key.exact(), dt_query.exact());

        // A foreign class never warm-starts.
        let mut foreign = key(2);
        foreign.netlist = 0xdead;
        assert!(s.lookup_warm(&foreign).is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn last_write_wins_and_supersedes_warm_candidates() {
        let path = temp_store("lww");
        {
            let mut s = ResultStore::create(&path).unwrap();
            s.record(&key(0), &[1.0], &outcome("old"));
            s.record(&key(0), &[2.0], &outcome("new"));
        }
        let s = ResultStore::open(&path).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup_exact(&key(0)).unwrap().outcome.name, "new");
        // The superseded entry is gone from the warm class too.
        let mut delta = key(0);
        delta.dt = 9.0;
        assert_eq!(s.lookup_warm(&delta).unwrap().sizes, vec![2.0]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_is_quarantined_not_fatal() {
        let path = temp_store("torn");
        {
            let mut s = ResultStore::create(&path).unwrap();
            s.record(&key(0), &[1.0], &outcome("good"));
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"key\":{\"netlist\":\"11\n");
        std::fs::write(&path, text).unwrap();
        let s = ResultStore::open(&path).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.corrupt_entries().len(), 1);
        assert!(matches!(
            s.corrupt_entries()[0],
            StoreError::Corrupt { line: 3, .. }
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn missing_header_is_a_hard_error() {
        let path = temp_store("header");
        std::fs::write(&path, "not a store\n").unwrap();
        let err = ResultStore::open(&path).expect_err("header must be validated");
        assert!(matches!(err, StoreError::Corrupt { line: 1, .. }), "{err}");
        let err =
            ResultStore::open(path.parent().unwrap().join("nope.jsonl")).expect_err("missing file");
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn read_only_mode_serves_hits_without_writing() {
        let path = temp_store("readonly");
        {
            let mut s = ResultStore::create(&path).unwrap();
            s.record(&key(0), &[1.0], &outcome("a"));
        }
        let before = std::fs::read(&path).unwrap();
        let mut s = ResultStore::open_read_only(&path).unwrap();
        assert!(s.read_only());
        assert!(s.lookup_exact(&key(0)).is_some());
        s.record(&key(1), &[2.0], &outcome("b"));
        assert_eq!(std::fs::read(&path).unwrap(), before, "file untouched");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn open_or_create_covers_both_paths() {
        let path = temp_store("openorcreate");
        std::fs::remove_file(&path).ok();
        {
            let mut s = ResultStore::open_or_create(&path).unwrap();
            assert!(s.is_empty());
            s.record(&key(0), &[1.0], &outcome("a"));
        }
        let s = ResultStore::open_or_create(&path).unwrap();
        assert_eq!(s.len(), 1, "second open loads, not truncates");
        assert_eq!(s.path(), path.as_path());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
