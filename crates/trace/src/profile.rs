//! Deterministic cycle-attribution profiler.
//!
//! The profiler answers the question the paper's evaluation keeps asking:
//! which (method × tier/special-level × receiver-state) cells own the
//! modeled cycles? It is a *sampling* profiler driven entirely by the
//! modeled clock — the VM arms a fixed period (`VmConfig::profile_period`)
//! and walks the live frame stack whenever the clock crosses the next
//! multiple of that period, folding each walk into:
//!
//! * **attribution cells** keyed by [`FrameKey`] (self + on-stack sample
//!   tallies), and
//! * **folded stack lines** in Brendan Gregg's `.folded` format
//!   (`frame;frame;frame count`), ready for `flamegraph.pl` or any
//!   flamegraph viewer.
//!
//! Determinism and transparency are the design constraints, in that order:
//!
//! 1. **Deterministic schedule.** Samples fire when the modeled clock
//!    crosses `k × period` for integer `k` — a pure function of the clock
//!    trajectory, with none of the adaptive sampler's jitter. The adaptive
//!    sampler jitters to avoid resonance *because its samples drive
//!    recompilation*; profiler samples drive nothing, so resonance is
//!    harmless and repeatability wins: two runs of the same program and
//!    config produce byte-identical `.folded` output.
//! 2. **Clock-transparent.** Sampling is 0-cycle: the walk reads frames,
//!    code levels and receiver TIBs but never charges the clock, touches
//!    `VmStats`, or perturbs adaptive decisions. Goldens and the fuzz
//!    oracle are bit-identical with profiling on or off.
//!
//! All ids are raw `u32`s so this crate stays independent of the VM's
//! newtypes; the VM resolves method names when exporting.

use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Sentinel for "receiver not in a special state": class-TIB receivers,
/// static methods, and interior (non-leaf) frames all carry it.
pub const NO_STATE: u32 = u32::MAX;

/// One modeled stack frame as the profiler keys it: the method, the tier
/// of the code the frame is executing, and — on leaf frames of instance
/// methods only — the receiver's special-state index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameKey {
    /// Method id.
    pub method: u32,
    /// Optimization level of the code the frame executes.
    pub level: u8,
    /// True when that code is a state-specialized version.
    pub special: bool,
    /// Receiver's special-state index, or [`NO_STATE`].
    pub state: u32,
}

impl FrameKey {
    /// Renders the frame as a `.folded` stack-frame label:
    /// `Name#o2` (general tier-2 code), `Name#s2@1` (special tier-2 code,
    /// receiver in state 1). `;` and whitespace in `name` are replaced so
    /// the folded line stays parseable.
    pub fn label(&self, name: &str) -> String {
        let clean: String = name
            .chars()
            .map(|c| if c == ';' || c.is_whitespace() { '_' } else { c })
            .collect();
        let kind = if self.special { 's' } else { 'o' };
        if self.state == NO_STATE {
            format!("{clean}#{kind}{}", self.level)
        } else {
            format!("{clean}#{kind}{}@{}", self.level, self.state)
        }
    }
}

/// Per-cell sample tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct CellStats {
    /// Samples with this cell on top of the stack.
    self_samples: u64,
    /// Samples with this cell anywhere on the stack (each on-stack
    /// occurrence counts, so recursion weighs a frame by its depth).
    total_samples: u64,
}

/// The profiler accumulator. Owned by the VM next to its `Tracer`;
/// all state is host-side only and deterministically ordered.
#[derive(Debug, Default)]
pub struct Profiler {
    period: u64,
    samples: u64,
    cells: BTreeMap<FrameKey, CellStats>,
    stacks: BTreeMap<Vec<FrameKey>, u64>,
}

impl Profiler {
    /// A profiler sampling every `period` modeled cycles (0 = disabled).
    pub fn new(period: u64) -> Self {
        Profiler { period, ..Profiler::default() }
    }

    /// Whether sampling is armed.
    pub fn enabled(&self) -> bool {
        self.period != 0
    }

    /// Total samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Folds one stack walk (outermost frame first) into the cell table
    /// and the folded-stack map. Empty walks (sample fired between
    /// frames) are ignored.
    pub fn record(&mut self, stack: &[FrameKey]) {
        let Some((leaf, rest)) = stack.split_last() else {
            return;
        };
        self.samples += 1;
        *self.stacks.entry(stack.to_vec()).or_insert(0) += 1;
        let cell = self.cells.entry(*leaf).or_default();
        cell.self_samples += 1;
        cell.total_samples += 1;
        for f in rest {
            self.cells.entry(*f).or_default().total_samples += 1;
        }
    }

    /// Renders the folded-stack map as `.folded` text: one
    /// `frame;frame;frame count` line per distinct stack, in
    /// deterministic (key-ordered) line order. `resolve` maps a method id
    /// to its display name.
    pub fn folded(&self, mut resolve: impl FnMut(u32) -> String) -> String {
        let mut out = String::new();
        for (stack, count) in &self.stacks {
            let labels: Vec<String> =
                stack.iter().map(|f| f.label(&resolve(f.method))).collect();
            out.push_str(&labels.join(";"));
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Builds the exportable cell table, sorted by descending self
    /// samples (ties broken by key order so the output is stable).
    pub fn snapshot(&self, mut resolve: impl FnMut(u32) -> String) -> ProfileSnapshot {
        let mut cells: Vec<ProfileCell> = self
            .cells
            .iter()
            .map(|(k, c)| ProfileCell {
                name: resolve(k.method),
                method: k.method,
                level: k.level as u32,
                special: k.special,
                state: (k.state != NO_STATE).then_some(k.state),
                self_samples: c.self_samples,
                total_samples: c.total_samples,
                est_cycles: c.self_samples * self.period,
            })
            .collect();
        cells.sort_by(|a, b| {
            b.self_samples
                .cmp(&a.self_samples)
                .then(a.method.cmp(&b.method))
                .then(a.level.cmp(&b.level))
                .then(a.state.cmp(&b.state))
        });
        ProfileSnapshot { period: self.period, samples: self.samples, cells }
    }
}

/// One attribution cell of the exported profile.
#[derive(Clone, Debug, Serialize)]
pub struct ProfileCell {
    /// Display name of the method (`Class::method`).
    pub name: String,
    /// Method id.
    pub method: u32,
    /// Optimization level of the sampled code.
    pub level: u32,
    /// True when the sampled code is a state-specialized version.
    pub special: bool,
    /// Receiver's special-state index, when it had one.
    pub state: Option<u32>,
    /// Samples with this cell on top of the stack.
    pub self_samples: u64,
    /// Samples with this cell anywhere on the stack.
    pub total_samples: u64,
    /// Estimated exec cycles attributed to the cell:
    /// `self_samples × period`.
    pub est_cycles: u64,
}

impl ProfileCell {
    /// The cell's `.folded` leaf label (same encoding as
    /// [`FrameKey::label`]).
    pub fn label(&self) -> String {
        FrameKey {
            method: self.method,
            level: self.level as u8,
            special: self.special,
            state: self.state.unwrap_or(NO_STATE),
        }
        .label(&self.name)
    }
}

/// The exported profile: sampling parameters plus the ranked cell table.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ProfileSnapshot {
    /// Sampling period in modeled cycles.
    pub period: u64,
    /// Total samples taken.
    pub samples: u64,
    /// Attribution cells, descending self samples.
    pub cells: Vec<ProfileCell>,
}

impl ProfileSnapshot {
    /// The top `k` cells by self samples.
    pub fn top(&self, k: usize) -> &[ProfileCell] {
        &self.cells[..self.cells.len().min(k)]
    }
}

impl fmt::Display for ProfileSnapshot {
    /// A stable table: one summary line, then up to ten
    /// `self total cycles cell` rows, ranked by self samples.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile: {} samples @ period {} ({} cells)",
            self.samples,
            self.period,
            self.cells.len()
        )?;
        writeln!(f, "  {:>8}  {:>8}  {:>12}  cell", "self", "total", "est_cycles")?;
        for c in self.top(10) {
            writeln!(
                f,
                "  {:>8}  {:>8}  {:>12}  {}",
                c.self_samples,
                c.total_samples,
                c.est_cycles,
                c.label()
            )?;
        }
        Ok(())
    }
}

/// Parses `.folded` text back into `(stack-line, count)` pairs, skipping
/// blank/malformed lines — the inspection side of [`Profiler::folded`].
pub fn parse_folded(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter_map(|l| {
            let (stack, count) = l.rsplit_once(' ')?;
            let count = count.parse().ok()?;
            (!stack.is_empty()).then(|| (stack.to_owned(), count))
        })
        .collect()
}

/// Aggregates `.folded` text into leaf cells: the last frame of each
/// stack line mapped to its total self samples, deterministically
/// ordered. This is the cell view `dchm-inspect` diffs.
pub fn folded_leaf_cells(text: &str) -> BTreeMap<String, u64> {
    let mut cells = BTreeMap::new();
    for (stack, count) in parse_folded(text) {
        let leaf = stack.rsplit(';').next().unwrap_or(&stack).to_owned();
        *cells.entry(leaf).or_insert(0) += count;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(method: u32, level: u8, special: bool, state: u32) -> FrameKey {
        FrameKey { method, level, special, state }
    }

    #[test]
    fn records_fold_into_cells_and_stacks() {
        let mut p = Profiler::new(100);
        assert!(p.enabled());
        let main = key(0, 0, false, NO_STATE);
        let hot = key(1, 2, true, 3);
        p.record(&[main, hot]);
        p.record(&[main, hot]);
        p.record(&[main]);
        p.record(&[]); // ignored
        assert_eq!(p.samples(), 3);

        let snap = p.snapshot(|m| format!("m{m}"));
        assert_eq!(snap.samples, 3);
        // hot leads: 2 self samples vs main's 1.
        assert_eq!(snap.cells[0].method, 1);
        assert_eq!(snap.cells[0].self_samples, 2);
        assert_eq!(snap.cells[0].est_cycles, 200);
        assert_eq!(snap.cells[0].state, Some(3));
        assert_eq!(snap.cells[1].method, 0);
        assert_eq!(snap.cells[1].self_samples, 1);
        assert_eq!(snap.cells[1].total_samples, 3);
    }

    #[test]
    fn folded_roundtrips_and_labels_encode_tier_and_state() {
        let mut p = Profiler::new(10);
        let main = key(0, 0, false, NO_STATE);
        let hot = key(1, 2, true, 1);
        p.record(&[main, hot]);
        p.record(&[main, hot]);
        p.record(&[main]);
        let text = p.folded(|m| if m == 0 { "A::main".into() } else { "B::go".into() });
        assert_eq!(text, "A::main#o0 1\nA::main#o0;B::go#s2@1 2\n");

        let cells = folded_leaf_cells(&text);
        assert_eq!(cells.get("B::go#s2@1"), Some(&2));
        assert_eq!(cells.get("A::main#o0"), Some(&1));
        assert_eq!(parse_folded(&text).len(), 2);
    }

    #[test]
    fn labels_sanitize_separators() {
        let k = key(0, 1, false, NO_STATE);
        assert_eq!(k.label("a b;c"), "a_b_c#o1");
    }

    #[test]
    fn display_is_stable_and_bounded() {
        let mut p = Profiler::new(10);
        for m in 0..20u32 {
            p.record(&[key(m, 0, false, NO_STATE)]);
        }
        let text = p.snapshot(|m| format!("m{m}")).to_string();
        // 1 summary + 1 header + 10 rows.
        assert_eq!(text.lines().count(), 12);
        assert!(text.starts_with("profile: 20 samples @ period 10 (20 cells)"));
    }

    #[test]
    fn serializes_to_json() {
        let mut p = Profiler::new(10);
        p.record(&[key(7, 1, false, NO_STATE)]);
        let json = serde_json::to_string(&p.snapshot(|_| "x".into())).unwrap();
        assert!(json.contains("\"period\":10"));
        assert!(json.contains("\"self_samples\":1"));
        assert!(json.contains("\"state\":null"));
    }
}
