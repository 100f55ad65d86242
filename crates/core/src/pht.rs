//! The pattern history table (PHT) of the paper's Section 2.1.

use crate::automaton::{Automaton, State};
use crate::simd::SimdMode;

/// A pattern history table: `2^k` automaton states indexed by the content
/// of a k-bit history register.
///
/// "For each of these 2^k patterns, there is a corresponding entry in the
/// pattern history table which contains branch results for the last s times
/// the preceding k branches were represented by that specific content of
/// the history register."
///
/// All entries are initialized per Section 4.2 (strongly-taken for the
/// four-state automata, taken for Last-Time); the paper notes the PHT is
/// *not* reinitialized on context switches.
///
/// # Example
///
/// ```
/// use tlabp_core::automaton::Automaton;
/// use tlabp_core::pht::PatternHistoryTable;
///
/// let mut pht = PatternHistoryTable::new(4, Automaton::A2);
/// assert_eq!(pht.len(), 16);
/// assert!(pht.predict(0b1010)); // initialized strongly taken
/// pht.update(0b1010, false);
/// pht.update(0b1010, false);
/// assert!(!pht.predict(0b1010)); // learned not-taken for this pattern
/// assert!(pht.predict(0b0101)); // other patterns unaffected
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternHistoryTable {
    automaton: Automaton,
    history_bits: u32,
    states: Vec<State>,
}

impl PatternHistoryTable {
    /// Creates a table for `history_bits`-bit patterns (so `2^history_bits`
    /// entries), every entry at the automaton's initial state.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is zero or exceeds
    /// [`crate::history::MAX_HISTORY_BITS`].
    #[must_use]
    pub fn new(history_bits: u32, automaton: Automaton) -> Self {
        assert!(
            (1..=crate::history::MAX_HISTORY_BITS).contains(&history_bits),
            "history bits {history_bits} out of range"
        );
        let entries = 1usize << history_bits;
        PatternHistoryTable {
            automaton,
            history_bits,
            states: vec![automaton.initial_state(); entries],
        }
    }

    /// The automaton stored in each entry.
    #[must_use]
    pub fn automaton(&self) -> Automaton {
        self.automaton
    }

    /// Number of entries (`2^k`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always `false`; a table has at least two entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The history-register length `k` this table is sized for.
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// Predicts the branch direction for `pattern` (Equation 1).
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[must_use]
    pub fn predict(&self, pattern: usize) -> bool {
        self.automaton.predict(self.states[pattern])
    }

    /// Applies the transition function δ to the entry for `pattern`
    /// (Equation 2).
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    pub fn update(&mut self, pattern: usize, taken: bool) {
        let state = self.states[pattern];
        self.states[pattern] = self.automaton.update(state, taken);
    }

    /// Fused [`PatternHistoryTable::predict`] +
    /// [`PatternHistoryTable::update`]: one table access instead of two.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[inline]
    pub fn predict_update(&mut self, pattern: usize, taken: bool) -> bool {
        let state = self.states[pattern];
        self.states[pattern] = self.automaton.update(state, taken);
        self.automaton.predict(state)
    }

    /// The current state of the entry for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[must_use]
    pub fn state(&self, pattern: usize) -> State {
        self.states[pattern]
    }

    /// Overwrites the state of the entry for `pattern` — used by the
    /// Static Training schemes to preset prediction bits from profiling.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range or `state` is invalid for the
    /// table's automaton.
    pub fn set_state(&mut self, pattern: usize, state: State) {
        assert!(
            self.automaton.is_valid_state(state),
            "state {state} invalid for {}",
            self.automaton
        );
        self.states[pattern] = state;
    }

    /// Resets every entry to the automaton's initial state.
    ///
    /// The paper's context-switch model deliberately does *not* do this
    /// ("the pattern history table of the saved process is more likely to
    /// be similar to the current process's"); it exists for experiment
    /// ablations and for starting fresh runs.
    pub fn reinitialize(&mut self) {
        self.states.fill(self.automaton.initial_state());
    }
}

/// A bit-packed pattern history table for the replay path: 2-bit automaton
/// states, 32 per `u64` word, stepped through a per-automaton 256-entry
/// lookup table fusing δ and λ ([`Automaton::packed_lut`]).
///
/// Behaviorally identical to [`PatternHistoryTable`] (pinned by the
/// round-trip tests below and by `tests/differential.rs`), but the whole
/// transition is branchless: read two bits, index the LUT with
/// `(state << 1) | taken`, write two bits back, report bit 2. A `2^12`
/// table is 1 KiB of words — L1-resident for the entire replay.
#[derive(Debug, Clone)]
pub struct PackedPht {
    automaton: Automaton,
    history_bits: u32,
    lut: [u8; 256],
    words: Vec<u64>,
}

impl PackedPht {
    /// Creates a packed table equivalent to
    /// [`PatternHistoryTable::new`]: every entry at the automaton's
    /// initial state.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is zero or exceeds
    /// [`crate::history::MAX_HISTORY_BITS`].
    #[must_use]
    pub fn new(history_bits: u32, automaton: Automaton) -> Self {
        assert!(
            (1..=crate::history::MAX_HISTORY_BITS).contains(&history_bits),
            "history bits {history_bits} out of range"
        );
        let entries = 1usize << history_bits;
        let initial = u64::from(automaton.initial_state().value());
        let mut word = 0u64;
        for slot in 0..32 {
            word |= initial << (slot * 2);
        }
        PackedPht {
            automaton,
            history_bits,
            lut: automaton.packed_lut(),
            words: vec![word; entries.div_ceil(32)],
        }
    }

    /// Packs an existing table, preserving every entry's current state —
    /// the path by which the Static Training preset tables (GSg/PSg) and
    /// any pre-warmed table enter the replay loop.
    #[must_use]
    pub fn from_table(table: &PatternHistoryTable) -> Self {
        let mut packed = PackedPht::new(table.history_bits(), table.automaton());
        for pattern in 0..table.len() {
            packed.set_state(pattern, table.state(pattern));
        }
        packed
    }

    /// The automaton stored in each entry.
    #[must_use]
    pub fn automaton(&self) -> Automaton {
        self.automaton
    }

    /// The history-register length `k` this table is sized for.
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// Number of entries (`2^k`).
    #[must_use]
    pub fn len(&self) -> usize {
        1usize << self.history_bits
    }

    /// Always `false`; a table has at least two entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The current state of the entry for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[must_use]
    pub fn state(&self, pattern: usize) -> State {
        assert!(pattern < self.len(), "pattern {pattern} out of range");
        let shift = (pattern & 31) * 2;
        State::new(((self.words[pattern >> 5] >> shift) & 0b11) as u8)
    }

    /// Overwrites the state of the entry for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range or `state` is invalid for the
    /// table's automaton.
    pub fn set_state(&mut self, pattern: usize, state: State) {
        assert!(pattern < self.len(), "pattern {pattern} out of range");
        assert!(
            self.automaton.is_valid_state(state),
            "state {state} invalid for {}",
            self.automaton
        );
        let shift = (pattern & 31) * 2;
        let word = &mut self.words[pattern >> 5];
        *word = (*word & !(0b11 << shift)) | (u64::from(state.value()) << shift);
    }

    /// Fused predict + update, identical in contract to
    /// [`PatternHistoryTable::predict_update`]: the returned prediction is
    /// λ of the entry's state *before* the transition.
    ///
    /// This is the replay inner loop, so the word index is wrapped by
    /// masking rather than bounds-checked — `x & (len - 1)` is always in
    /// range, which lets the check compile away. In-range patterns (the
    /// only ones a stream derived at this table's width can carry, and
    /// debug-asserted here) are unaffected.
    #[inline]
    pub fn predict_update(&mut self, pattern: usize, taken: bool) -> bool {
        debug_assert!(pattern < self.len(), "pattern {pattern} out of range");
        let shift = (pattern & 31) * 2;
        let index = (pattern >> 5) & (self.words.len() - 1);
        let word = &mut self.words[index];
        let state = ((*word >> shift) & 0b11) as u8;
        let entry = self.lut[usize::from((state << 1) | u8::from(taken))];
        *word = (*word & !(0b11 << shift)) | (u64::from(entry & 0b11) << shift);
        entry & 0b100 != 0
    }
}

/// Bit 0 of every nibble lane.
const NIBBLE_LO: u64 = 0x1111_1111_1111_1111;
/// Bits 0–1 (the stored 2-bit state) of every nibble lane.
const NIBBLE_STATE: u64 = 0x3333_3333_3333_3333;
/// Member nibbles per transposed word — public because the engine's
/// intra-batch split granule is one word: sub-batches never cut a width
/// group below this many members.
pub const LANES_PER_WORD: usize = 16;
/// Events between accumulator flushes: each nibble of the per-column
/// accumulator gains at most one per event and holds up to 15.
const ACC_FLUSH_EVENTS: usize = 15;

/// Per-bank data of the transposed SWAR kernel, shared by the
/// single-table and per-lane banks.
///
/// Every member's fused transition `f(s1, s0) = lut[(s << 1) | taken]`
/// (3 output bits: next state low/high, prediction) is expanded in the
/// AND–XOR (Reed–Muller) basis
///
/// ```text
/// f(s1, s0) = c0 ^ (c1 & s0) ^ (c2 & s1) ^ (c3 & s1 & s0)
/// ```
///
/// which is exact for *any* boolean function of the two state bits — so a
/// bank freely mixes automata per lane. The four coefficients are stored
/// as nibble-lane masks (3 live bits per member nibble), one set per
/// resolved direction, letting one `u64` op advance 16 members at once.
struct BankKernel {
    members: usize,
    /// Transposed words per table row (`ceil(members / 16)`).
    cols: usize,
    /// Coefficient masks, direction-major then coefficient-major:
    /// `coeff[((taken * 4) + k) * cols + col]` — so one event's four
    /// coefficient vectors are one contiguous slice.
    coeff: Vec<u64>,
    /// Nibble bit 2 set for every occupied member lane, per column: masks
    /// the kernel's prediction bits and (xored in when the branch was not
    /// taken) converts them to correctness bits.
    pred_occ: Vec<u64>,
    /// Per-member compressed LUTs for the scalar reference body: the
    /// member's [`Automaton::packed_lut`] squeezed into a `u32` (8 live
    /// `(state, taken)` inputs × 4-bit entries), so a step shifts a
    /// register instead of loading from a 256-byte table.
    luts: Vec<u32>,
}

impl BankKernel {
    fn new(tables: &[PackedPht]) -> BankKernel {
        let members = tables.len();
        let cols = members.div_ceil(LANES_PER_WORD);
        let mut coeff = vec![0u64; 2 * 4 * cols];
        let mut pred_occ = vec![0u64; cols];
        let mut luts = Vec::with_capacity(members);
        for (member, table) in tables.iter().enumerate() {
            let col = member / LANES_PER_WORD;
            let shift = (member % LANES_PER_WORD) * 4;
            for taken in 0..2usize {
                let f = |state: usize| table.lut[(state << 1) | taken] & 0b111;
                let (f0, f1, f2, f3) = (f(0), f(1), f(2), f(3));
                for (k, bits) in [f0, f0 ^ f1, f0 ^ f2, f0 ^ f1 ^ f2 ^ f3].into_iter().enumerate() {
                    coeff[((taken * 4) + k) * cols + col] |= u64::from(bits) << shift;
                }
            }
            pred_occ[col] |= 0b100u64 << shift;
            luts.push(
                (0..8)
                    .fold(0u32, |flags, index| flags | u32::from(table.lut[index]) << (index * 4)),
            );
        }
        BankKernel { members, cols, coeff, pred_occ, luts }
    }
}

/// Lane-transposes the members' current states: row `pattern`, column
/// `member / 16`, nibble `member % 16`.
fn transpose_states(tables: &[PackedPht], rows: usize, cols: usize) -> Vec<u64> {
    let mut words = vec![0u64; rows * cols];
    for (member, table) in tables.iter().enumerate() {
        let col = member / LANES_PER_WORD;
        let shift = (member % LANES_PER_WORD) * 4;
        for (pattern, row) in words.chunks_exact_mut(cols).enumerate() {
            row[col] |= u64::from(table.state(pattern).value()) << shift;
        }
    }
    words
}

/// The portable `u64` SWAR body over a whole row: each column advances
/// 16 member nibbles and accumulates their correctness bits.
#[inline(always)]
fn step_row_swar(row: &mut [u64], ct: &[u64], pred_occ: &[u64], not_taken: u64, acc: &mut [u64]) {
    let cols = row.len();
    for col in 0..cols {
        let w = row[col];
        let lo = w & NIBBLE_LO;
        let hi = (w >> 1) & NIBBLE_LO;
        let hl = hi & lo;
        // `x * 7` spreads each nibble's bit 0 across bits 0–2 (no nibble
        // carries: 7 < 16), broadcasting a state bit to all three
        // coefficient bit positions.
        let out = ct[col]
            ^ (ct[cols + col] & lo.wrapping_mul(7))
            ^ (ct[2 * cols + col] & hi.wrapping_mul(7))
            ^ (ct[3 * cols + col] & hl.wrapping_mul(7));
        row[col] = out & NIBBLE_STATE;
        let occ = pred_occ[col];
        // Bit 2 of each occupied nibble is the member's prediction;
        // xoring in the occupancy mask on a not-taken branch flips it to
        // "was correct".
        acc[col] += ((out & occ) ^ (occ & not_taken)) >> 2;
    }
}

/// The scalar reference body: per-member LUT steps in the same
/// transposed layout, counting directly (no bit-sliced accumulator).
#[inline(always)]
fn step_row_scalar(row: &mut [u64], luts: &[u32], taken: bool, counts: &mut [u64]) {
    for (member, (&flags, count)) in luts.iter().zip(counts.iter_mut()).enumerate() {
        let col = member / LANES_PER_WORD;
        let shift = (member % LANES_PER_WORD) * 4;
        let state = ((row[col] >> shift) & 0b11) as u32;
        let entry = (flags >> (((state << 1) | u32::from(taken)) * 4)) & 0b111;
        row[col] = (row[col] & !(0xFu64 << shift)) | (u64::from(entry & 0b11) << shift);
        *count += u64::from((entry & 0b100 != 0) == taken);
    }
}

/// A lane-transposed bank of equally-sized [`PackedPht`]s for the SWAR
/// replay kernel: 4-bit lanes, 16 members per `u64`, one (or a few)
/// words per table *row*. A replayed event touches `ceil(members / 16)` words
/// instead of one word per member, and one round of bit-sliced logic
/// steps all 16 lanes of a word at once.
///
/// Patterns index rows *masked to the bank's width*
/// (`pattern & (2^k - 1)`). Because a k-bit history register's content
/// is exactly the low k bits of any wider register fed the same
/// outcomes, a stream derived at width `K >= k` replays a width-k bank
/// bit-identically — the width-fold contract the engine's transposed
/// sweep lowering builds on (pinned by `tests/differential.rs`).
///
/// Prediction *counting* is bit-sliced too: bit 2 of each advanced
/// nibble (λ of the pre-update state, xored with the event's direction)
/// lands in a per-column nibble accumulator, flushed to 64-bit
/// per-member counters every `ACC_FLUSH_EVENTS` events.
#[derive(Debug)]
pub struct TransposedPhtBank {
    history_bits: u32,
    row_mask: usize,
    kernel: BankKernel,
    words: Vec<u64>,
    acc: Vec<u64>,
    counts: Vec<u64>,
}

impl std::fmt::Debug for BankKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BankKernel")
            .field("members", &self.members)
            .field("cols", &self.cols)
            .finish_non_exhaustive()
    }
}

impl TransposedPhtBank {
    /// Transposes `tables` into a bank, preserving every member's
    /// current per-entry state (preset GSg/PSg assemblies included).
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or its members disagree on
    /// `history_bits`.
    #[must_use]
    pub fn new(tables: &[PackedPht]) -> Self {
        let first = tables.first().expect("a bank needs at least one member");
        assert!(
            tables.iter().all(|t| t.history_bits == first.history_bits),
            "bank members must share one table geometry"
        );
        let rows = 1usize << first.history_bits;
        let kernel = BankKernel::new(tables);
        let words = transpose_states(tables, rows, kernel.cols);
        let acc = vec![0u64; kernel.cols];
        let counts = vec![0u64; kernel.members];
        TransposedPhtBank {
            history_bits: first.history_bits,
            row_mask: rows - 1,
            kernel,
            words,
            acc,
            counts,
        }
    }

    /// The history-register length `k` every member is sized for.
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// Number of member tables.
    #[must_use]
    pub fn members(&self) -> usize {
        self.kernel.members
    }

    /// Replays a block of packed `pattern << 1 | taken` events (patterns
    /// masked to the bank's width, see the type docs) through every
    /// member, adding each member's correct predictions to its
    /// [`TransposedPhtBank::counts`] slot. `mode` picks the kernel body;
    /// both bodies are bit-identical.
    pub fn replay(&mut self, events: &[u32], mode: SimdMode) {
        match mode {
            SimdMode::Scalar => self.replay_scalar(events),
            SimdMode::Auto if self.kernel.cols == 1 => self.replay_swar1(events),
            SimdMode::Auto => self.replay_bitsliced(events),
        }
    }

    /// Per-member correct-prediction counts accumulated by
    /// [`TransposedPhtBank::replay`] so far, in member order.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The current state of `member`'s entry for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` or `member` is out of range.
    #[must_use]
    pub fn state(&self, pattern: usize, member: usize) -> State {
        assert!(pattern <= self.row_mask, "pattern {pattern} out of range");
        assert!(member < self.kernel.members, "member {member} out of range");
        let word = self.words[pattern * self.kernel.cols + member / LANES_PER_WORD];
        State::new(((word >> ((member % LANES_PER_WORD) * 4)) & 0b11) as u8)
    }

    /// The hot shape — every real batch has ≤ 16 same-width members, so
    /// the whole bank is one word per row and the column loop, slicing
    /// and per-column accumulator indexing all collapse.
    fn replay_swar1(&mut self, events: &[u32]) {
        debug_assert_eq!(self.kernel.cols, 1);
        let occ = self.kernel.pred_occ[0];
        let coeff: [u64; 8] = self.kernel.coeff[..8].try_into().expect("2 directions × 4");
        for chunk in events.chunks(ACC_FLUSH_EVENTS) {
            let mut acc = 0u64;
            for &event in chunk {
                let pattern = (event >> 1) as usize & self.row_mask;
                let not_taken = u64::from(event & 1).wrapping_sub(1);
                let ct = (event as usize & 1) * 4;
                let w = self.words[pattern];
                let lo = w & NIBBLE_LO;
                let hi = (w >> 1) & NIBBLE_LO;
                let hl = hi & lo;
                let out = coeff[ct]
                    ^ (coeff[ct + 1] & lo.wrapping_mul(7))
                    ^ (coeff[ct + 2] & hi.wrapping_mul(7))
                    ^ (coeff[ct + 3] & hl.wrapping_mul(7));
                self.words[pattern] = out & NIBBLE_STATE;
                acc += ((out & occ) ^ (occ & not_taken)) >> 2;
            }
            self.acc[0] = acc;
            self.flush_acc();
        }
    }

    /// The general multi-column bit-sliced walk, for banks of more than
    /// 16 members.
    fn replay_bitsliced(&mut self, events: &[u32]) {
        let cols = self.kernel.cols;
        for chunk in events.chunks(ACC_FLUSH_EVENTS) {
            for &event in chunk {
                let pattern = (event >> 1) as usize & self.row_mask;
                let not_taken = u64::from(event & 1).wrapping_sub(1);
                let base = pattern * cols;
                let ct = &self.kernel.coeff[(event as usize & 1) * 4 * cols..][..4 * cols];
                step_row_swar(
                    &mut self.words[base..base + cols],
                    ct,
                    &self.kernel.pred_occ,
                    not_taken,
                    &mut self.acc,
                );
            }
            self.flush_acc();
        }
    }

    fn replay_scalar(&mut self, events: &[u32]) {
        let cols = self.kernel.cols;
        for &event in events {
            let pattern = (event >> 1) as usize & self.row_mask;
            let base = pattern * cols;
            step_row_scalar(
                &mut self.words[base..base + cols],
                &self.kernel.luts,
                event & 1 != 0,
                &mut self.counts,
            );
        }
    }

    fn flush_acc(&mut self) {
        for (member, count) in self.counts.iter_mut().enumerate() {
            *count += (self.acc[member / LANES_PER_WORD] >> ((member % LANES_PER_WORD) * 4)) & 0xF;
        }
        self.acc.fill(0);
    }
}

/// [`TransposedPhtBank`] for per-address second levels (PAp): one
/// transposed table per stream *lane*, materialized from the members'
/// template states on a lane's first event — behaviorally identical to
/// per-lane [`PackedPht`] clones, sharing one kernel, one accumulator
/// and one counter set across lanes.
#[derive(Debug)]
pub struct TransposedLanePhtBank {
    history_bits: u32,
    row_mask: usize,
    kernel: BankKernel,
    template: Vec<u64>,
    lanes: Vec<Vec<u64>>,
    acc: Vec<u64>,
    counts: Vec<u64>,
}

impl TransposedLanePhtBank {
    /// Builds a lane bank whose per-lane tables start from the members'
    /// current states in `templates`.
    ///
    /// # Panics
    ///
    /// Panics if `templates` is empty or its members disagree on
    /// `history_bits`.
    #[must_use]
    pub fn new(templates: &[PackedPht]) -> Self {
        let first = templates.first().expect("a bank needs at least one member");
        assert!(
            templates.iter().all(|t| t.history_bits == first.history_bits),
            "bank members must share one table geometry"
        );
        let rows = 1usize << first.history_bits;
        let kernel = BankKernel::new(templates);
        let template = transpose_states(templates, rows, kernel.cols);
        let acc = vec![0u64; kernel.cols];
        let counts = vec![0u64; kernel.members];
        TransposedLanePhtBank {
            history_bits: first.history_bits,
            row_mask: rows - 1,
            kernel,
            template,
            lanes: Vec::new(),
            acc,
            counts,
        }
    }

    /// The history-register length `k` every member is sized for.
    #[must_use]
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// Number of member tables (per lane).
    #[must_use]
    pub fn members(&self) -> usize {
        self.kernel.members
    }

    /// Replays a block of events with their per-event lane selectors
    /// (patterns masked to the bank's width, as in
    /// [`TransposedPhtBank::replay`]).
    ///
    /// # Panics
    ///
    /// Panics if `events` and `lanes` differ in length.
    pub fn replay(&mut self, events: &[u32], lanes: &[u32], mode: SimdMode) {
        assert_eq!(events.len(), lanes.len(), "one lane selector per event");
        match mode {
            SimdMode::Scalar => self.replay_scalar(events, lanes),
            SimdMode::Auto if self.kernel.cols == 1 => self.replay_swar1(events, lanes),
            SimdMode::Auto => self.replay_bitsliced(events, lanes),
        }
    }

    /// Per-member correct-prediction counts accumulated so far.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Ensures `lane`'s table exists (cloned from the template on first
    /// touch).
    #[inline]
    fn lane_table(&mut self, lane: usize) {
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, Vec::new);
        }
        let table = &mut self.lanes[lane];
        if table.is_empty() {
            table.extend_from_slice(&self.template);
        }
    }

    fn replay_swar1(&mut self, events: &[u32], lanes: &[u32]) {
        debug_assert_eq!(self.kernel.cols, 1);
        let occ = self.kernel.pred_occ[0];
        let coeff: [u64; 8] = self.kernel.coeff[..8].try_into().expect("2 directions × 4");
        for (echunk, lchunk) in events.chunks(ACC_FLUSH_EVENTS).zip(lanes.chunks(ACC_FLUSH_EVENTS))
        {
            let mut acc = 0u64;
            for (&event, &lane) in echunk.iter().zip(lchunk) {
                let pattern = (event >> 1) as usize & self.row_mask;
                let not_taken = u64::from(event & 1).wrapping_sub(1);
                let ct = (event as usize & 1) * 4;
                self.lane_table(lane as usize);
                let table = &mut self.lanes[lane as usize];
                let w = table[pattern];
                let lo = w & NIBBLE_LO;
                let hi = (w >> 1) & NIBBLE_LO;
                let hl = hi & lo;
                let out = coeff[ct]
                    ^ (coeff[ct + 1] & lo.wrapping_mul(7))
                    ^ (coeff[ct + 2] & hi.wrapping_mul(7))
                    ^ (coeff[ct + 3] & hl.wrapping_mul(7));
                table[pattern] = out & NIBBLE_STATE;
                acc += ((out & occ) ^ (occ & not_taken)) >> 2;
            }
            self.acc[0] = acc;
            self.flush_acc();
        }
    }

    fn replay_bitsliced(&mut self, events: &[u32], lanes: &[u32]) {
        let cols = self.kernel.cols;
        for (echunk, lchunk) in events.chunks(ACC_FLUSH_EVENTS).zip(lanes.chunks(ACC_FLUSH_EVENTS))
        {
            for (&event, &lane) in echunk.iter().zip(lchunk) {
                let pattern = (event >> 1) as usize & self.row_mask;
                let not_taken = u64::from(event & 1).wrapping_sub(1);
                let base = pattern * cols;
                let direction = event as usize & 1;
                self.lane_table(lane as usize);
                let table = &mut self.lanes[lane as usize];
                let ct = &self.kernel.coeff[direction * 4 * cols..][..4 * cols];
                step_row_swar(
                    &mut table[base..base + cols],
                    ct,
                    &self.kernel.pred_occ,
                    not_taken,
                    &mut self.acc,
                );
            }
            self.flush_acc();
        }
    }

    fn replay_scalar(&mut self, events: &[u32], lanes: &[u32]) {
        let cols = self.kernel.cols;
        for (&event, &lane) in events.iter().zip(lanes) {
            let pattern = (event >> 1) as usize & self.row_mask;
            let taken = event & 1 != 0;
            let base = pattern * cols;
            self.lane_table(lane as usize);
            let table = &mut self.lanes[lane as usize];
            step_row_scalar(
                &mut table[base..base + cols],
                &self.kernel.luts,
                taken,
                &mut self.counts,
            );
        }
    }

    fn flush_acc(&mut self) {
        for (member, count) in self.counts.iter_mut().enumerate() {
            *count += (self.acc[member / LANES_PER_WORD] >> ((member % LANES_PER_WORD) * 4)) & 0xF;
        }
        self.acc.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initializes_to_biased_taken() {
        for automaton in Automaton::ALL {
            let pht = PatternHistoryTable::new(3, automaton);
            for pattern in 0..pht.len() {
                assert!(pht.predict(pattern), "{automaton} pattern {pattern}");
            }
        }
    }

    #[test]
    fn entries_are_independent() {
        let mut pht = PatternHistoryTable::new(2, Automaton::LastTime);
        pht.update(0b01, false);
        assert!(!pht.predict(0b01));
        assert!(pht.predict(0b00));
        assert!(pht.predict(0b10));
        assert!(pht.predict(0b11));
    }

    #[test]
    fn len_is_power_of_two() {
        assert_eq!(PatternHistoryTable::new(6, Automaton::A2).len(), 64);
        assert_eq!(PatternHistoryTable::new(18, Automaton::A2).len(), 262_144);
    }

    #[test]
    fn update_follows_automaton() {
        let mut pht = PatternHistoryTable::new(2, Automaton::A2);
        pht.update(1, false);
        assert_eq!(pht.state(1), State::new(2));
        pht.update(1, false);
        assert_eq!(pht.state(1), State::new(1));
        assert!(!pht.predict(1));
    }

    #[test]
    fn set_state_validates() {
        let mut pht = PatternHistoryTable::new(2, Automaton::LastTime);
        pht.set_state(0, State::new(0));
        assert!(!pht.predict(0));
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn set_state_rejects_out_of_range_state() {
        let mut pht = PatternHistoryTable::new(2, Automaton::LastTime);
        pht.set_state(0, State::new(2));
    }

    #[test]
    fn reinitialize_restores_initial() {
        let mut pht = PatternHistoryTable::new(3, Automaton::A2);
        for pattern in 0..pht.len() {
            pht.update(pattern, false);
            pht.update(pattern, false);
            pht.update(pattern, false);
        }
        assert!(!pht.predict(0));
        pht.reinitialize();
        for pattern in 0..pht.len() {
            assert!(pht.predict(pattern));
            assert_eq!(pht.state(pattern), Automaton::A2.initial_state());
        }
    }

    #[test]
    fn preset_table_ignores_updates() {
        let mut pht = PatternHistoryTable::new(2, Automaton::PresetBit);
        pht.set_state(2, State::new(0));
        pht.update(2, true);
        pht.update(2, true);
        assert!(!pht.predict(2), "preset bit must not learn");
    }

    #[test]
    fn packed_pht_matches_unpacked_on_random_walks() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for automaton in Automaton::ALL {
            let mut pht = PatternHistoryTable::new(6, automaton);
            let mut packed = PackedPht::from_table(&pht);
            assert_eq!(packed.len(), pht.len());
            for _ in 0..4000 {
                let r = next();
                let pattern = (r as usize >> 8) & (pht.len() - 1);
                let taken = r & 1 != 0;
                assert_eq!(
                    packed.predict_update(pattern, taken),
                    pht.predict_update(pattern, taken),
                    "{automaton} pattern {pattern} taken {taken}"
                );
            }
            for pattern in 0..pht.len() {
                assert_eq!(packed.state(pattern), pht.state(pattern), "{automaton} {pattern}");
            }
        }
    }

    #[test]
    fn packed_pht_round_trips_preset_states() {
        // A PSg-style preset table: mixed 0/1 states under PresetBit.
        let mut pht = PatternHistoryTable::new(4, Automaton::PresetBit);
        for pattern in 0..pht.len() {
            pht.set_state(pattern, State::new(u8::from(pattern % 3 == 0)));
        }
        let mut packed = PackedPht::from_table(&pht);
        for pattern in 0..pht.len() {
            assert_eq!(packed.state(pattern), pht.state(pattern));
            // Updates never move a preset bit.
            assert_eq!(packed.predict_update(pattern, true), pht.predict_update(pattern, true));
            assert_eq!(packed.state(pattern), pht.state(pattern));
        }
    }

    #[test]
    fn packed_pht_word_boundaries() {
        // Entries 31/32/33 straddle the first word boundary.
        let mut packed = PackedPht::new(6, Automaton::A2);
        packed.predict_update(31, false);
        packed.predict_update(32, false);
        assert_eq!(packed.state(31), State::new(2));
        assert_eq!(packed.state(32), State::new(2));
        assert_eq!(packed.state(33), State::new(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn packed_pht_state_rejects_out_of_range_pattern() {
        let packed = PackedPht::new(2, Automaton::A2);
        let _ = packed.state(4);
    }

    const EVERY_MODE: [SimdMode; 2] = [SimdMode::Auto, SimdMode::Scalar];

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut rng = seed;
        move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        }
    }

    /// Random packed events whose patterns span `pattern_bits` (possibly
    /// wider than the bank under test, exercising the width fold).
    fn random_events(pattern_bits: u32, count: usize, seed: u64) -> Vec<u32> {
        let mut next = xorshift(seed);
        (0..count)
            .map(|_| {
                let r = next();
                ((r as u32 >> 8) & ((1 << pattern_bits) - 1)) << 1 | (r as u32 & 1)
            })
            .collect()
    }

    #[test]
    fn transposed_bank_matches_packed_tables_on_random_walks() {
        // Mixed automata, width 6; events carry width-8 patterns so the
        // walk also exercises the bank's width fold (mask to 6 bits).
        let mut tables: Vec<PackedPht> =
            Automaton::ALL.iter().map(|&automaton| PackedPht::new(6, automaton)).collect();
        let events = random_events(8, 5000, 0x2545_f491_4f6c_dd1d);
        for mode in EVERY_MODE {
            let mut bank = TransposedPhtBank::new(&tables);
            assert_eq!(bank.members(), tables.len());
            assert_eq!(bank.history_bits(), 6);
            bank.replay(&events, mode);
            let mut reference = vec![0u64; tables.len()];
            let mut shadow: Vec<PackedPht> = tables.clone();
            for &event in &events {
                let pattern = (event >> 1) as usize & 0b11_1111;
                let taken = event & 1 != 0;
                for (member, table) in shadow.iter_mut().enumerate() {
                    reference[member] += u64::from(table.predict_update(pattern, taken) == taken);
                }
            }
            assert_eq!(bank.counts(), &reference[..], "{mode:?} counts diverged");
            for (member, table) in shadow.iter().enumerate() {
                for pattern in 0..table.len() {
                    assert_eq!(
                        bank.state(pattern, member),
                        table.state(pattern),
                        "{mode:?} member {member} pattern {pattern}"
                    );
                }
            }
        }
        // Presets survive transposition: rebuild member 0 as a preset
        // table and confirm the initial states round-trip.
        let mut preset = PatternHistoryTable::new(6, Automaton::PresetBit);
        for pattern in 0..preset.len() {
            preset.set_state(pattern, State::new(u8::from(pattern % 3 == 0)));
        }
        tables[0] = PackedPht::from_table(&preset);
        let bank = TransposedPhtBank::new(&tables);
        for pattern in 0..preset.len() {
            assert_eq!(bank.state(pattern, 0), preset.state(pattern));
        }
    }

    #[test]
    fn transposed_bank_exhaustive_transitions_match_the_automata() {
        // Every (automaton, valid state, direction) transition input,
        // stepped one event at a time through a one-member bank under
        // every kernel body.
        for automaton in Automaton::ALL {
            for state in 0..automaton.state_count() {
                let state = State::new(state);
                if !automaton.is_valid_state(state) {
                    continue;
                }
                for taken in [false, true] {
                    for mode in EVERY_MODE {
                        let mut table = PackedPht::new(1, automaton);
                        table.set_state(0, state);
                        table.set_state(1, state);
                        let mut bank = TransposedPhtBank::new(&[table.clone()]);
                        let event = u32::from(taken);
                        bank.replay(&[event], mode);
                        let predicted = table.predict_update(0, taken);
                        assert_eq!(
                            bank.state(0, 0),
                            table.state(0),
                            "{automaton} {state} taken={taken} {mode:?}: next state"
                        );
                        assert_eq!(
                            bank.counts()[0],
                            u64::from(predicted == taken),
                            "{automaton} {state} taken={taken} {mode:?}: correctness"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_bank_wide_membership_spans_words() {
        // 40 members = 3 columns, the last one partly occupied: the
        // multi-column SWAR walk runs instead of the one-word fast path.
        let tables: Vec<PackedPht> =
            (0..40).map(|i| PackedPht::new(5, Automaton::ALL[i % Automaton::ALL.len()])).collect();
        let events = random_events(5, 3000, 0x9e37_79b9_7f4a_7c15);
        let reference = {
            let mut bank = TransposedPhtBank::new(&tables);
            bank.replay(&events, SimdMode::Scalar);
            bank.counts().to_vec()
        };
        assert!(reference.iter().all(|&c| c > 0), "walk long enough to count");
        for mode in EVERY_MODE {
            let mut bank = TransposedPhtBank::new(&tables);
            bank.replay(&events, mode);
            assert_eq!(bank.counts(), &reference[..], "{mode:?} diverged on a 3-column bank");
        }
    }

    #[test]
    fn transposed_bank_nine_column_rows_agree_across_kernels() {
        // 135 members = 9 columns: a long multi-column SWAR walk, under
        // both kernel bodies.
        let tables: Vec<PackedPht> =
            (0..135).map(|i| PackedPht::new(4, Automaton::ALL[i % Automaton::ALL.len()])).collect();
        let events = random_events(4, 2000, 0x0bad_5eed_0bad_5eed);
        let reference = {
            let mut bank = TransposedPhtBank::new(&tables);
            bank.replay(&events, SimdMode::Scalar);
            bank.counts().to_vec()
        };
        assert!(reference.iter().all(|&c| c > 0), "walk long enough to count");
        for mode in EVERY_MODE {
            let mut bank = TransposedPhtBank::new(&tables);
            bank.replay(&events, mode);
            assert_eq!(bank.counts(), &reference[..], "{mode:?} diverged on a 9-column bank");
        }
    }

    #[test]
    fn multi_column_swar_agrees_with_scalar_on_all_256_lane_inputs() {
        // Per automaton, drive the multi-column SWAR walk (8-column bank
        // = 128 members, every lane populated) from every one of the 256
        // initial 4-lane state bytes — each byte's four 2-bit fields seed
        // adjacent lanes, so every adjacent-state combination crosses
        // every nibble boundary — and require bit-identity with the
        // scalar reference.
        for automaton in Automaton::ALL {
            for input in 0..=255u8 {
                let tables: Vec<PackedPht> = (0..128)
                    .map(|member: usize| {
                        let mut table = PackedPht::new(2, automaton);
                        let field = State::new((input >> ((member % 4) * 2)) & 0b11);
                        let state = if automaton.is_valid_state(field) {
                            field
                        } else {
                            State::new(field.value() & 1)
                        };
                        for pattern in 0..table.len() {
                            table.set_state(pattern, state);
                        }
                        table
                    })
                    .collect();
                // Two events per pattern/direction pair: every seeded
                // state sees both directions and one follow-up step.
                let events: Vec<u32> =
                    (0..16u32).map(|e| ((e >> 1) & 0b11) << 1 | (e & 1)).collect();
                let mut vector = TransposedPhtBank::new(&tables);
                vector.replay(&events, SimdMode::Auto);
                let mut scalar = TransposedPhtBank::new(&tables);
                scalar.replay(&events, SimdMode::Scalar);
                assert_eq!(
                    vector.counts(),
                    scalar.counts(),
                    "{automaton} input {input:#04x}: counts diverged"
                );
                for member in 0..tables.len() {
                    for pattern in 0..4 {
                        assert_eq!(
                            vector.state(pattern, member),
                            scalar.state(pattern, member),
                            "{automaton} input {input:#04x} member {member} pattern {pattern}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_lane_bank_matches_per_lane_packed_tables() {
        let mut next = xorshift(0x0123_4567_89ab_cdef);
        let mut events = Vec::new();
        let mut lanes = Vec::new();
        for _ in 0..4000 {
            let r = next();
            // Width-6 patterns against width-4 banks: fold in play.
            events.push(((r as u32 >> 8) & 0b11_1111) << 1 | (r as u32 & 1));
            lanes.push((r >> 40) as u32 % 7);
        }
        // One column (the one-word fast path) and 40 members = 3 columns
        // (the multi-column walk).
        for members in [Automaton::ALL.len(), 40] {
            let templates: Vec<PackedPht> = (0..members)
                .map(|i| PackedPht::new(4, Automaton::ALL[i % Automaton::ALL.len()]))
                .collect();
            let mut reference = vec![0u64; templates.len()];
            let mut shadow: Vec<Vec<PackedPht>> = Vec::new();
            for (&event, &lane) in events.iter().zip(&lanes) {
                let lane = lane as usize;
                if lane >= shadow.len() {
                    shadow.resize_with(lane + 1, || templates.clone());
                }
                let pattern = (event >> 1) as usize & 0b1111;
                let taken = event & 1 != 0;
                for (member, table) in shadow[lane].iter_mut().enumerate() {
                    reference[member] += u64::from(table.predict_update(pattern, taken) == taken);
                }
            }
            for mode in EVERY_MODE {
                let mut bank = TransposedLanePhtBank::new(&templates);
                assert_eq!(bank.members(), templates.len());
                assert_eq!(bank.history_bits(), 4);
                bank.replay(&events, &lanes, mode);
                assert_eq!(
                    bank.counts(),
                    &reference[..],
                    "{mode:?} lane counts diverged with {members} members"
                );
            }
        }
    }

    #[test]
    fn transposed_replay_accumulates_across_blocks() {
        // Splitting the event stream into arbitrary replay() calls must
        // not change the result (the engine feeds blocks).
        let tables: Vec<PackedPht> =
            Automaton::FIGURE5.iter().map(|&automaton| PackedPht::new(6, automaton)).collect();
        let events = random_events(6, 2048, 0xdead_beef_cafe_f00d);
        let mut whole = TransposedPhtBank::new(&tables);
        whole.replay(&events, SimdMode::Auto);
        let mut split = TransposedPhtBank::new(&tables);
        for block in events.chunks(97) {
            split.replay(block, SimdMode::Auto);
        }
        assert_eq!(whole.counts(), split.counts());
    }

    #[test]
    #[should_panic(expected = "share one table geometry")]
    fn transposed_bank_rejects_mixed_geometries() {
        let _ = TransposedPhtBank::new(&[
            PackedPht::new(6, Automaton::A2),
            PackedPht::new(8, Automaton::A2),
        ]);
    }
}
