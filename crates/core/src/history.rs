//! Historic learning: persisting tuning decisions across executions.
//!
//! ADCL can transfer knowledge between runs of an application: once a
//! winner is known for an (operation, platform, process count, message
//! size, ...) scenario, a later execution can skip — or shorten — the
//! learning phase (§IV-B). The store is a simple line-oriented text file
//! (`key\twinner\tscore\tmargin`), deliberately free of external
//! dependencies, and is the durability layer behind the `adcld` tuning
//! daemon.
//!
//! Format (`v2`):
//!
//! ```text
//! # adcl-rs history v2
//! # gen 3
//! # ctx off
//! ialltoall|whale|32|131072\tpairwise\t1.50000000000000003e-3\t2.00000000000000011e-1
//! ```
//!
//! * `gen` counts successful saves (monotone across checkpoints) so
//!   observers can tell snapshots apart.
//! * `ctx` is an opaque environment fingerprint — a loader whose context
//!   differs must treat the entries as stale rather than serve decisions
//!   measured under different physics.
//! * Scores and margins use `{:.17e}` so `save`→`load` round-trips `f64`
//!   bit-exactly; 9 significant digits (the old format) silently lost the
//!   low mantissa bits and broke staleness comparisons.
//! * `save` writes a same-directory temp file and atomically renames it
//!   over the target, so a reader (or a crash) never observes a torn file.
//! * An entry's line is rendered once, when it is put, and kept beside the
//!   entry: serializing the store is a header plus a concatenation, so a
//!   checkpoint of 20 000 decisions costs a copy, not 40 000 float
//!   formattings. `save` is [`HistoryStore::snapshot`] (needs the store)
//!   followed by [`HistoryStore::write_atomic`] (does not), so a caller
//!   that guards the store with a lock can do the file I/O outside it.
//! * v1 files (three fields, no directives) still load; missing margins
//!   default to `0.0`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Characters that cannot appear in key components (field separators of
/// the on-disk format). A name containing one of these would shift fields
/// on decode, so [`HistoryStore::put`] rejects them up front.
const RESERVED: [char; 4] = ['|', '\t', '\n', '\r'];

/// Error for rejected store mutations (reserved characters, empty names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryError(pub String);

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "history: {}", self.0)
    }
}

impl std::error::Error for HistoryError {}

fn check_component(what: &str, s: &str) -> Result<(), HistoryError> {
    if s.is_empty() {
        return Err(HistoryError(format!("{what} must not be empty")));
    }
    if let Some(c) = s.chars().find(|c| RESERVED.contains(c)) {
        return Err(HistoryError(format!(
            "{what} {s:?} contains reserved character {c:?}"
        )));
    }
    Ok(())
}

/// Scenario key for a stored decision.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HistoryKey {
    /// Operation name (e.g. `"ialltoall"`).
    pub op: String,
    /// Platform name (e.g. `"whale"`).
    pub platform: String,
    /// Number of processes.
    pub nprocs: usize,
    /// Message size in bytes.
    pub msg_bytes: usize,
}

impl HistoryKey {
    /// Reject keys whose string components would corrupt the line format.
    pub fn validate(&self) -> Result<(), HistoryError> {
        check_component("op", &self.op)?;
        check_component("platform", &self.platform)
    }

    fn decode(s: &str) -> Option<HistoryKey> {
        let parts: Vec<&str> = s.split('|').collect();
        // Exactly four fields: trailing junk ("a|b|1|2|x") is a malformed
        // key, not a key with extras to ignore.
        let [op, platform, nprocs, msg_bytes] = parts.as_slice() else {
            return None;
        };
        let key = HistoryKey {
            op: op.to_string(),
            platform: platform.to_string(),
            nprocs: nprocs.parse().ok()?,
            msg_bytes: msg_bytes.parse().ok()?,
        };
        key.validate().ok()?;
        Some(key)
    }
}

/// The key as the line format spells it: `op|platform|nprocs|msg_bytes`.
impl std::fmt::Display for HistoryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}|{}|{}|{}",
            self.op, self.platform, self.nprocs, self.msg_bytes
        )
    }
}

/// A stored decision.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Winning function name.
    pub winner: String,
    /// Its measured robust score in seconds (for staleness heuristics).
    pub score: f64,
    /// Relative gap to the runner-up, `(second - best) / best`
    /// (0.0 when unknown or when the set has a single candidate).
    pub margin: f64,
}

/// The persistent winner store.
///
/// # Example
///
/// ```
/// use adcl::history::{HistoryKey, HistoryStore};
///
/// let key = HistoryKey {
///     op: "ialltoall".into(),
///     platform: "whale".into(),
///     nprocs: 32,
///     msg_bytes: 131072,
/// };
/// let mut store = HistoryStore::new();
/// store.put(key.clone(), "pairwise", 1.2e-3).unwrap();
/// let text = store.to_string_repr();
/// let reloaded = HistoryStore::from_string_repr(&text);
/// assert_eq!(reloaded.get(&key).unwrap().winner, "pairwise");
/// ```
#[derive(Debug, Default)]
pub struct HistoryStore {
    entries: BTreeMap<HistoryKey, Stored>,
    generation: u64,
    context: String,
}

/// An entry and its on-disk line (newline included), rendered at put time.
#[derive(Debug)]
struct Stored {
    entry: HistoryEntry,
    line: Box<str>,
}

fn render_line(key: &HistoryKey, e: &HistoryEntry) -> Box<str> {
    // Sized up front (two integers, two 25-byte floats and the separators
    // fit in 100 bytes): one allocation instead of five doublings.
    let mut line = String::with_capacity(key.op.len() + key.platform.len() + e.winner.len() + 100);
    let _ = writeln!(
        line,
        "{key}\t{}\t{:.17e}\t{:.17e}",
        e.winner, e.score, e.margin
    );
    line.into_boxed_str()
}

impl HistoryStore {
    /// An empty store.
    pub fn new() -> HistoryStore {
        HistoryStore::default()
    }

    /// Record (or overwrite) a decision with no margin information.
    pub fn put(&mut self, key: HistoryKey, winner: &str, score: f64) -> Result<(), HistoryError> {
        self.put_decision(key, winner, score, 0.0)
    }

    /// Record (or overwrite) a full decision.
    pub fn put_decision(
        &mut self,
        key: HistoryKey,
        winner: &str,
        score: f64,
        margin: f64,
    ) -> Result<(), HistoryError> {
        key.validate()?;
        // The winner lives in a tab-delimited field, so only the line
        // format's own separators are reserved here — '|' is fine.
        if winner.is_empty() {
            return Err(HistoryError("winner must not be empty".into()));
        }
        if let Some(c) = winner.chars().find(|c| ['\t', '\n', '\r'].contains(c)) {
            return Err(HistoryError(format!(
                "winner {winner:?} contains reserved character {c:?}"
            )));
        }
        let entry = HistoryEntry {
            winner: winner.to_string(),
            score,
            margin,
        };
        let line = render_line(&key, &entry);
        self.entries.insert(key, Stored { entry, line });
        Ok(())
    }

    /// Look up a decision.
    pub fn get(&self, key: &HistoryKey) -> Option<&HistoryEntry> {
        self.entries.get(key).map(|s| &s.entry)
    }

    /// Number of stored decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every stored decision (the context and generation survive).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Save counter: bumped on every successful [`HistoryStore::save`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The environment fingerprint the entries were measured under.
    pub fn context(&self) -> &str {
        &self.context
    }

    /// Set the environment fingerprint (must not contain tabs/newlines).
    pub fn set_context(&mut self, ctx: &str) -> Result<(), HistoryError> {
        if ctx.chars().any(|c| c == '\t' || c == '\n' || c == '\r') {
            return Err(HistoryError(format!(
                "context {ctx:?} contains a reserved character"
            )));
        }
        self.context = ctx.to_string();
        Ok(())
    }

    /// Serialize to the line format: the header, then every entry's
    /// stored line in key order.
    pub fn to_string_repr(&self) -> String {
        let mut out = format!("# adcl-rs history v2\n# gen {}\n", self.generation);
        if !self.context.is_empty() {
            out.push_str("# ctx ");
            out.push_str(&self.context);
            out.push('\n');
        }
        out.reserve(self.entries.values().map(|s| s.line.len()).sum());
        for s in self.entries.values() {
            out.push_str(&s.line);
        }
        out
    }

    /// Parse the line format (ignores comments and malformed lines;
    /// understands both v1 three-field and v2 four-field entry lines).
    pub fn from_string_repr(s: &str) -> HistoryStore {
        let mut store = HistoryStore::new();
        for line in s.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                let rest = rest.trim();
                if let Some(g) = rest.strip_prefix("gen ") {
                    store.generation = g.trim().parse().unwrap_or(0);
                } else if let Some(c) = rest.strip_prefix("ctx ") {
                    store.context = c.trim().to_string();
                }
                continue;
            }
            let parts: Vec<&str> = line.split('\t').collect();
            let (k, w, sc, mg) = match parts.as_slice() {
                [k, w, sc] => (*k, *w, *sc, None),
                [k, w, sc, mg] => (*k, *w, *sc, Some(*mg)),
                _ => continue,
            };
            let (Some(key), Ok(score)) = (HistoryKey::decode(k), sc.parse::<f64>()) else {
                continue;
            };
            let margin = mg.and_then(|m| m.parse::<f64>().ok()).unwrap_or(0.0);
            let _ = store.put_decision(key, w, score, margin);
        }
        store
    }

    /// Save the store to a file atomically ([`snapshot`] then
    /// [`write_atomic`]). Bumps the generation counter on success.
    ///
    /// [`snapshot`]: HistoryStore::snapshot
    /// [`write_atomic`]: HistoryStore::write_atomic
    pub fn save(&mut self, path: &Path) -> io::Result<()> {
        let text = self.snapshot();
        let written = Self::write_atomic(path, &text);
        if written.is_err() {
            self.discard_snapshot();
        }
        written
    }

    /// First half of a save: bump the generation and return the text to
    /// write. If the write then fails, call [`discard_snapshot`] so the
    /// generation keeps counting *successful* saves.
    ///
    /// [`discard_snapshot`]: HistoryStore::discard_snapshot
    pub fn snapshot(&mut self) -> String {
        self.generation += 1;
        self.to_string_repr()
    }

    /// Undo the generation bump of a [`HistoryStore::snapshot`] whose
    /// write failed.
    pub fn discard_snapshot(&mut self) {
        self.generation -= 1;
    }

    /// Second half of a save, needing no store: `text` goes to a temp
    /// file in the *same directory* and is renamed over `path`, so a
    /// concurrent `load` (or a crash mid-write) sees either the old
    /// complete file or the new complete file — never a torn one.
    /// Writers of one path must not overlap (the temp name is per process).
    pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let file_name = path
            .file_name()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
        let tmp_name = format!(
            ".{}.tmp.{}",
            file_name.to_string_lossy(),
            std::process::id()
        );
        let tmp = match dir {
            Some(d) => d.join(&tmp_name),
            None => std::path::PathBuf::from(&tmp_name),
        };
        let write_and_swap = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
        if write_and_swap.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        write_and_swap
    }

    /// Load a store from a file (empty store if the file does not exist).
    pub fn load(path: &Path) -> io::Result<HistoryStore> {
        match std::fs::read_to_string(path) {
            Ok(s) => Ok(Self::from_string_repr(&s)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(HistoryStore::new()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(op: &str, n: usize) -> HistoryKey {
        HistoryKey {
            op: op.into(),
            platform: "whale".into(),
            nprocs: n,
            msg_bytes: 1024,
        }
    }

    #[test]
    fn roundtrip_through_text() {
        let mut s = HistoryStore::new();
        s.put(key("ialltoall", 32), "pairwise", 1.5e-3).unwrap();
        s.put(key("ibcast", 128), "binomial-seg64k", 2.25e-4)
            .unwrap();
        let text = s.to_string_repr();
        let back = HistoryStore::from_string_repr(&text);
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(&key("ialltoall", 32)).unwrap().winner, "pairwise");
        let e = back.get(&key("ibcast", 128)).unwrap();
        assert!((e.score - 2.25e-4).abs() < 1e-12);
    }

    #[test]
    fn malformed_lines_ignored() {
        let text = "# comment\n\ngarbage\nonly|three|parts\tx\nialltoall|whale|8|64\tlinear\t1.0\n";
        let s = HistoryStore::from_string_repr(text);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn overwrite_updates() {
        let mut s = HistoryStore::new();
        s.put(key("op", 4), "a", 1.0).unwrap();
        s.put(key("op", 4), "b", 0.5).unwrap();
        assert_eq!(s.get(&key("op", 4)).unwrap().winner, "b");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("adcl-hist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.tsv");
        let mut s = HistoryStore::new();
        // A score with a busy mantissa: must survive save→load bit-exactly.
        let score = 3.0e-5 * std::f64::consts::PI;
        let margin = 0.1 * std::f64::consts::E;
        s.put_decision(key("ialltoall", 16), "dissemination", score, margin)
            .unwrap();
        s.save(&path).unwrap();
        let back = HistoryStore::load(&path).unwrap();
        let e = back.get(&key("ialltoall", 16)).unwrap();
        assert_eq!(e.winner, "dissemination");
        assert_eq!(e.score.to_bits(), score.to_bits(), "score not bit-exact");
        assert_eq!(e.margin.to_bits(), margin.to_bits(), "margin not bit-exact");
        assert_eq!(back.generation(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_empty() {
        let s = HistoryStore::load(Path::new("/nonexistent/adcl/history.tsv")).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn hostile_names_rejected_at_put() {
        let mut s = HistoryStore::new();
        for op in ["a|b", "a\tb", "a\nb", "a\rb", ""] {
            let k = HistoryKey {
                op: op.into(),
                platform: "whale".into(),
                nprocs: 8,
                msg_bytes: 64,
            };
            assert!(s.put(k, "linear", 1.0).is_err(), "op {op:?} accepted");
        }
        let k = key("ibcast", 8);
        assert!(s.put(k.clone(), "bad\twinner", 1.0).is_err());
        assert!(s.put(k.clone(), "bad\nwinner", 1.0).is_err());
        // '|' is only reserved in key components, not the winner field.
        assert!(s.put(k, "odd|but|fine", 1.0).is_ok());
        let mut hostile_platform = HistoryStore::new();
        let k = HistoryKey {
            op: "ibcast".into(),
            platform: "whale|tcp".into(),
            nprocs: 8,
            msg_bytes: 64,
        };
        assert!(hostile_platform.put(k, "linear", 1.0).is_err());
    }

    #[test]
    fn decode_rejects_extra_and_missing_fields() {
        assert!(HistoryKey::decode("a|b|1|2").is_some());
        assert!(HistoryKey::decode("a|b|1|2|junk").is_none(), "extra field");
        assert!(HistoryKey::decode("a|b|1").is_none(), "missing field");
        assert!(HistoryKey::decode("a|b|x|2").is_none(), "non-numeric");
        assert!(HistoryKey::decode("|b|1|2").is_none(), "empty op");
        // A line whose key smuggles extra separators must not shift fields.
        let text = "evil|op|whale|8|64\tlinear\t1.0\n";
        assert!(HistoryStore::from_string_repr(text).is_empty());
    }

    #[test]
    fn hostile_roundtrip_stays_isomorphic() {
        // Every accepted put must come back as the same key — no field
        // shifting, no entry splitting or merging.
        let mut s = HistoryStore::new();
        let keys = [
            key("ialltoall-ext", 8),
            key("op.with.dots", 16),
            key("op with spaces", 32),
        ];
        for (i, k) in keys.iter().enumerate() {
            s.put(k.clone(), &format!("w{i}"), i as f64).unwrap();
        }
        let back = HistoryStore::from_string_repr(&s.to_string_repr());
        assert_eq!(back.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(back.get(k).unwrap().winner, format!("w{i}"));
        }
    }

    #[test]
    fn context_and_generation_roundtrip() {
        let mut s = HistoryStore::new();
        s.set_context("s7/d0.001").unwrap();
        assert!(s.set_context("bad\tctx").is_err());
        s.put(key("ibcast", 8), "linear", 1.0).unwrap();
        let dir = std::env::temp_dir().join(format!("adcl-hist-ctx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.tsv");
        s.save(&path).unwrap();
        s.save(&path).unwrap();
        let back = HistoryStore::load(&path).unwrap();
        assert_eq!(back.context(), "s7/d0.001");
        assert_eq!(back.generation(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_files_still_load() {
        let text = "# adcl-rs history v1\nialltoall|whale|8|64\tlinear\t1.500000000e-3\n";
        let s = HistoryStore::from_string_repr(text);
        let e = s.get(&key2("ialltoall", "whale", 8, 64)).unwrap();
        assert_eq!(e.winner, "linear");
        assert_eq!(e.margin, 0.0);
    }

    fn key2(op: &str, platform: &str, n: usize, m: usize) -> HistoryKey {
        HistoryKey {
            op: op.into(),
            platform: platform.into(),
            nprocs: n,
            msg_bytes: m,
        }
    }

    /// The pre-PR serializer (render every entry at save time), kept as the
    /// oracle the put-time lines are compared against.
    fn oracle_repr(s: &HistoryStore) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# adcl-rs history v2\n");
        let _ = writeln!(out, "# gen {}", s.generation);
        if !s.context.is_empty() {
            let _ = writeln!(out, "# ctx {}", s.context);
        }
        for (k, stored) in &s.entries {
            let e = &stored.entry;
            let _ = writeln!(
                out,
                "{k}\t{}\t{:.17e}\t{:.17e}",
                e.winner, e.score, e.margin
            );
        }
        out
    }

    /// Floats the line format must carry bit-exactly.
    const AWKWARD: [f64; 10] = [
        0.0,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        0.1 + 0.2,
        1.0 / 3.0,
        9_007_199_254_740_993.0,
        1.234_567_890_123_456_7e-5,
    ];

    fn gen_float(g: &mut simcore::check::Gen) -> f64 {
        if g.bool() {
            return g.choose(&AWKWARD);
        }
        // Any bit pattern but NaN (its payload has no text form).
        let x = f64::from_bits(g.u64());
        if x.is_nan() {
            1.0
        } else {
            x
        }
    }

    fn gen_name(g: &mut simcore::check::Gen, alphabet: &[char]) -> String {
        let len = g.usize_in(1, 12);
        (0..len).map(|_| g.choose(alphabet)).collect()
    }

    #[test]
    fn stored_lines_equal_the_old_formatter_and_round_trip_bit_exactly() {
        // No spaces: the loader trims lines, so a name may not start or
        // end with one (the golden test below has inner spaces).
        let key_chars: Vec<char> = "abcxyz019.-_/é".chars().collect();
        let winner_chars: Vec<char> = "abcxyz019.-_/é|".chars().collect();
        simcore::check::run_cases("history_lines", 200, |g| {
            let mut s = HistoryStore::new();
            if g.bool() {
                s.set_context(&gen_name(g, &key_chars)).unwrap();
            }
            s.generation = g.u64_in(0, 1 << 40);
            for _ in 0..g.usize_in(0, 12) {
                let k = HistoryKey {
                    op: gen_name(g, &key_chars),
                    platform: gen_name(g, &key_chars),
                    nprocs: g.usize_in(0, 1 << 20),
                    msg_bytes: g.usize_in(0, usize::MAX - 1),
                };
                // Keys repeat within a case now and then: an overwrite.
                let k = if g.bool() {
                    s.entries.keys().next().cloned().unwrap_or(k)
                } else {
                    k
                };
                let (score, margin) = (gen_float(g), gen_float(g));
                s.put_decision(k, &gen_name(g, &winner_chars), score, margin)
                    .unwrap();
                // Checked after every put, so overwritten lines count too.
                assert_eq!(s.to_string_repr(), oracle_repr(&s));
            }
            let text = s.to_string_repr();
            let back = HistoryStore::from_string_repr(&text);
            assert_eq!(back.len(), s.len());
            for (k, stored) in &s.entries {
                let (a, b) = (&stored.entry, back.get(k).expect("key survives"));
                assert_eq!(a.winner, b.winner);
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "score {:e}", a.score);
                assert_eq!(
                    a.margin.to_bits(),
                    b.margin.to_bits(),
                    "margin {:e}",
                    a.margin
                );
            }
            assert_eq!(back.to_string_repr(), text);
        });
    }

    #[test]
    fn overwrite_replaces_the_stored_line() {
        let mut s = HistoryStore::new();
        s.put_decision(key("op", 4), "a", 1.0, 0.5).unwrap();
        s.put_decision(key("op", 4), "b", 0.25, 0.0).unwrap();
        let text = s.to_string_repr();
        assert_eq!(text, oracle_repr(&s));
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 1);
        assert!(text.contains("\tb\t2.50000000000000000e-1\t"), "{text}");
        assert!(!text.contains("\ta\t"), "stale line survived: {text}");
    }

    #[test]
    fn fixed_store_serializes_to_the_pre_split_bytes() {
        // Captured from the commit before lines were rendered at put time.
        const GOLDEN: &str = "# adcl-rs history v2\n# gen 2\n# ctx s7/d0.001/u0.0005/j0.1/r3\n\
            iallreduce|whale|7|9007199254740993\tring\t3.33333333333333315e-1\t2.22507385850720138e-308\n\
            ialltoall|whale|32|131072\tbruck\t2.24999999999999994e-4\t0.00000000000000000e0\n\
            ibcast|crill|48|64\tbinomial-seg64k\t3.00000000000000044e-1\t-0.00000000000000000e0\n\
            op with spaces|bluegene-p|2|1\todd|but|fine\t1.79769313486231571e308\t4.94065645841246544e-324\n";
        let mut s = HistoryStore::new();
        s.set_context("s7/d0.001/u0.0005/j0.1/r3").unwrap();
        s.put_decision(
            key2("ialltoall", "whale", 32, 131072),
            "pairwise",
            1.5e-3,
            0.2,
        )
        .unwrap();
        s.put_decision(
            key2("ibcast", "crill", 48, 64),
            "binomial-seg64k",
            0.1 + 0.2,
            -0.0,
        )
        .unwrap();
        s.put_decision(
            key2("op with spaces", "bluegene-p", 2, 1),
            "odd|but|fine",
            f64::MAX,
            5e-324,
        )
        .unwrap();
        s.put_decision(
            key2("iallreduce", "whale", 7, 9_007_199_254_740_993),
            "ring",
            1.0 / 3.0,
            f64::MIN_POSITIVE,
        )
        .unwrap();
        s.put(key2("ialltoall", "whale", 32, 131072), "bruck", 2.25e-4)
            .unwrap();
        // Two snapshots, as the capture saved twice.
        assert!(s.snapshot().starts_with("# adcl-rs history v2\n# gen 1\n"));
        assert_eq!(s.snapshot(), GOLDEN);
        assert_eq!(s.to_string_repr(), GOLDEN);
    }

    #[test]
    fn failed_write_leaves_generation_counting_successful_saves() {
        let mut s = HistoryStore::new();
        s.put(key("ibcast", 8), "linear", 1.0).unwrap();
        assert!(s.save(Path::new("/nonexistent/adcl/history.tsv")).is_err());
        assert_eq!(s.generation(), 0);
    }

    #[test]
    fn atomic_save_never_partially_visible() {
        // A reader loading in a loop while a writer repeatedly saves must
        // only ever observe a complete snapshot: len == 0 (no file yet)
        // or len == N (full store). A torn write would surface as some
        // intermediate length.
        let dir = std::env::temp_dir().join(format!(
            "adcl-hist-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.tsv");
        const N: usize = 400;
        let mut s = HistoryStore::new();
        for i in 0..N {
            s.put(key("ibcast", i + 1), "binomial-seg64k-long-name", 1.0e-3)
                .unwrap();
        }
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let path = path.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut seen = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let got = HistoryStore::load(&path).unwrap();
                    assert!(
                        got.is_empty() || got.len() == N,
                        "observed torn file with {} entries",
                        got.len()
                    );
                    if got.len() == N {
                        seen += 1;
                    }
                }
                seen
            })
        };
        for _ in 0..60 {
            s.save(&path).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let complete_loads = reader.join().unwrap();
        assert!(complete_loads > 0, "reader never saw a complete snapshot");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
