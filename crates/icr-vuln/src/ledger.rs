//! The protection-state lifetime machine: per-line residency windows and
//! per-word consumed (ACE) windows, raw and arrival-weighted.

/// Number of [`ProtState`] residency states.
pub const NSTATES: usize = 5;
/// Number of [`VulnClass`] consumption classes.
pub const NCLASSES: usize = 5;

/// The protection state a valid cache line is in at an instant. Every
/// valid line is in exactly one state, so per-state residency windows
/// partition total valid residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtState {
    /// Parity-protected primary with at least one live replica.
    Replicated,
    /// Clean, unreplicated, parity-protected primary.
    CleanParity,
    /// Dirty, unreplicated, parity-protected primary — the paper's
    /// worst case: a strike here is detected but unrecoverable.
    DirtyParity,
    /// Unreplicated SEC-DED primary (the ECC schemes' resting state).
    Ecc,
    /// A replica line (always parity, always clean).
    Replica,
}

impl ProtState {
    /// Every state, in report order.
    pub const ALL: [ProtState; NSTATES] = [
        ProtState::Replicated,
        ProtState::CleanParity,
        ProtState::DirtyParity,
        ProtState::Ecc,
        ProtState::Replica,
    ];

    /// Index into the per-state accumulator arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (used as the JSON report key).
    pub fn name(self) -> &'static str {
        match self {
            ProtState::Replicated => "replicated",
            ProtState::CleanParity => "clean_parity",
            ProtState::DirtyParity => "dirty_parity",
            ProtState::Ecc => "ecc",
            ProtState::Replica => "replica",
        }
    }
}

/// How a single-bit strike inside a consumed window would have ended —
/// the recovery ladder available at the check that observes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VulnClass {
    /// Healed by reading a live replica.
    ByReplica,
    /// Corrected in place by SEC-DED.
    ByEcc,
    /// Detected on a clean line and refetched from below (L2 or a
    /// duplication cache).
    ByRefetch,
    /// Detected but unrecoverable: dirty, unreplicated, parity-only.
    Unrecoverable,
    /// The stored bits were trusted while re-encoding or while seeding a
    /// new replica: a latent strike is baked into a clean codeword and
    /// consumed silently later.
    Laundered,
}

impl VulnClass {
    /// Every class, in report order.
    pub const ALL: [VulnClass; NCLASSES] = [
        VulnClass::ByReplica,
        VulnClass::ByEcc,
        VulnClass::ByRefetch,
        VulnClass::Unrecoverable,
        VulnClass::Laundered,
    ];

    /// Index into the per-class accumulator arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (used as the JSON report key).
    pub fn name(self) -> &'static str {
        match self {
            VulnClass::ByReplica => "by_replica",
            VulnClass::ByEcc => "by_ecc",
            VulnClass::ByRefetch => "by_refetch",
            VulnClass::Unrecoverable => "unrecoverable",
            VulnClass::Laundered => "laundered",
        }
    }

    /// `true` when the consumer got correct data back despite the
    /// strike.
    pub fn is_recovered(self) -> bool {
        matches!(
            self,
            VulnClass::ByReplica | VulnClass::ByEcc | VulnClass::ByRefetch
        )
    }
}

/// The fault-arrival process the weighted windows integrate against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// One strike at a uniformly random instant of the run (the
    /// default): every cycle with a non-empty cache weighs the same.
    Uniform,
    /// One strike at a geometrically distributed arrival: a per-cycle
    /// Bernoulli with probability `p`, deferred while the cache is
    /// empty — exactly the Monte-Carlo injector's one-shot process.
    Geometric {
        /// Per-cycle arrival probability (0 < p < 1).
        p: f64,
    },
}

#[derive(Debug, Clone, Copy)]
struct LineTrack {
    active: bool,
    state: ProtState,
    /// Cycle the current residency window opened.
    since: u64,
    /// Weighted clock at window open.
    wsince: f64,
}

/// How a line's stored bits were trusted when a laundering event
/// re-coded them (see [`ExposureLedger::launder_line`]). The two kinds
/// surface differently at the next observation of the word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunderKind {
    /// The stored bits were *copied out* under a fresh code (seeding a
    /// replica) while the original word kept its old check bits: a
    /// latent strike is still detected at the next load, but recovery
    /// returns the laundered copy — the machine counts a successful
    /// replica recovery, and only a *second* observation can expose
    /// the wrong data.
    Copy,
    /// The word itself was re-encoded in place under a new code
    /// (re-protection on a replication-status change): a latent strike
    /// is sealed under clean check bits and the very next load
    /// consumes wrong data.
    InPlace,
}

#[derive(Debug, Clone, Copy)]
struct WordSnap {
    /// Cycle of the word's last refresh/consume.
    cycle: u64,
    /// Weighted clock at that instant.
    g: f64,
    /// Pending laundering boundary: strikes between the snapshot and
    /// this instant were trusted into a re-code (time, weighted clock,
    /// kind). `None` when the window is plain.
    launder: Option<(u64, f64, LaunderKind)>,
    /// A copy-laundered segment already observed once: the machine
    /// counted a replica recovery, but a second observation before any
    /// refresh reveals the laundered bits (raw cycles, arrival mass).
    provisional: Option<(u64, f64)>,
}

impl WordSnap {
    fn fresh(cycle: u64, g: f64) -> Self {
        WordSnap {
            cycle,
            g,
            launder: None,
            provisional: None,
        }
    }
}

/// The lifetime machine. The owner (the dL1) reports line transitions
/// and word events; the ledger accumulates residency and consumed
/// windows. Time may be reported non-monotonically by an out-of-order
/// core; the ledger clamps every event to its internal clock, which
/// keeps all windows non-negative and the partition exact.
#[derive(Debug, Clone)]
pub struct ExposureLedger {
    words_per_line: usize,
    arrival: Arrival,
    /// Last event time.
    clock: u64,
    /// Per-word weighted clock: `∫ f(t) / V(t) dt` over cycles with at
    /// least one valid word.
    gclock: f64,
    /// Survival probability of the geometric arrival (no strike yet);
    /// `1.0` under [`Arrival::Uniform`] (unused).
    survival: f64,
    /// Total arrival weight delivered: `∫ f(t) dt` over non-empty
    /// cycles.
    total_weight: f64,
    valid_lines: usize,
    /// Independently accumulated total valid word-cycles — the
    /// partition property's right-hand side.
    total_word_cycles: u128,
    lines: Vec<LineTrack>,
    snaps: Vec<WordSnap>,
    residency: [u128; NSTATES],
    wresidency: [f64; NSTATES],
    consumed: [u128; NCLASSES],
    wconsumed: [f64; NCLASSES],
}

impl ExposureLedger {
    /// A ledger for a cache of `lines` lines of `words_per_line` words,
    /// with uniform arrival weighting.
    pub fn new(lines: usize, words_per_line: usize) -> Self {
        assert!(words_per_line > 0, "lines need at least one word");
        ExposureLedger {
            words_per_line,
            arrival: Arrival::Uniform,
            clock: 0,
            gclock: 0.0,
            survival: 1.0,
            total_weight: 0.0,
            valid_lines: 0,
            total_word_cycles: 0,
            lines: vec![
                LineTrack {
                    active: false,
                    state: ProtState::CleanParity,
                    since: 0,
                    wsince: 0.0,
                };
                lines
            ],
            snaps: vec![WordSnap::fresh(0, 0.0); lines * words_per_line],
            residency: [0; NSTATES],
            wresidency: [0.0; NSTATES],
            consumed: [0; NCLASSES],
            wconsumed: [0.0; NCLASSES],
        }
    }

    /// Words per line.
    pub fn words_per_line(&self) -> usize {
        self.words_per_line
    }

    /// Total line slots tracked (active or not).
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Appends `n` inactive line slots to the ledger, returning the
    /// index of the first new slot.
    ///
    /// Sound at any point of a run: inactive lines contribute nothing
    /// to residency, the valid-word integral or the partition check, so
    /// growing the slot space mid-flight (e.g. lazily attaching the L2
    /// replica region the first time a scheme spills) leaves every
    /// accumulated window untouched.
    pub fn add_lines(&mut self, n: usize) -> usize {
        let first = self.lines.len();
        self.lines.extend(std::iter::repeat_n(
            LineTrack {
                active: false,
                state: ProtState::CleanParity,
                since: self.clock,
                wsince: self.gclock,
            },
            n,
        ));
        self.snaps.extend(std::iter::repeat_n(
            WordSnap::fresh(self.clock, self.gclock),
            n * self.words_per_line,
        ));
        first
    }

    /// The arrival model in force.
    pub fn arrival(&self) -> Arrival {
        self.arrival
    }

    /// Selects the arrival model the weighted windows integrate
    /// against. Must be called before any time has passed.
    ///
    /// # Panics
    ///
    /// Panics if events were already recorded, or if a geometric `p` is
    /// outside `(0, 1)`.
    pub fn set_arrival(&mut self, arrival: Arrival) {
        assert!(
            self.clock == 0 && self.total_word_cycles == 0,
            "arrival model must be chosen before any traffic"
        );
        if let Arrival::Geometric { p } = arrival {
            assert!(p > 0.0 && p < 1.0, "geometric arrival needs 0 < p < 1");
        }
        self.arrival = arrival;
    }

    /// Number of lines currently tracked as valid.
    pub fn valid_line_count(&self) -> usize {
        self.valid_lines
    }

    /// Words currently resident in `state` (an instantaneous snapshot,
    /// the lifetime-machine counterpart of the dL1's
    /// `vulnerable_word_count`).
    pub fn words_in(&self, state: ProtState) -> usize {
        self.lines
            .iter()
            .filter(|l| l.active && l.state == state)
            .count()
            * self.words_per_line
    }

    /// Advances the global clocks to `now` (clamped monotone) and
    /// returns the effective event time.
    fn advance_to(&mut self, now: u64) -> u64 {
        let t = now.max(self.clock);
        if t > self.clock {
            let dt = t - self.clock;
            if self.valid_lines > 0 {
                let vwords = (self.valid_lines * self.words_per_line) as f64;
                self.total_word_cycles +=
                    (self.valid_lines * self.words_per_line) as u128 * u128::from(dt);
                let mass = match self.arrival {
                    Arrival::Uniform => dt as f64,
                    Arrival::Geometric { p } => {
                        // Survival decays only while a strike can land;
                        // the injector retries over empty caches.
                        let q = 1.0 - p;
                        let next = self.survival * (dt as f64 * q.ln()).exp();
                        let mass = (self.survival - next).max(0.0);
                        self.survival = next;
                        mass
                    }
                };
                self.total_weight += mass;
                self.gclock += mass / vwords;
            }
            self.clock = t;
        }
        t
    }

    fn snap_base(&self, line: usize) -> usize {
        line * self.words_per_line
    }

    /// Opens a residency window: `line` became valid in `state` at
    /// `now`. All of its word snapshots are refreshed (a fill encodes
    /// every word).
    pub fn begin_line(&mut self, line: usize, state: ProtState, now: u64) {
        let t = self.advance_to(now);
        let g = self.gclock;
        debug_assert!(!self.lines[line].active, "begin on an active line");
        self.lines[line] = LineTrack {
            active: true,
            state,
            since: t,
            wsince: g,
        };
        let base = self.snap_base(line);
        for s in &mut self.snaps[base..base + self.words_per_line] {
            *s = WordSnap::fresh(t, g);
        }
        self.valid_lines += 1;
    }

    /// Records a state transition of an active line: the old window is
    /// closed at `now` and a new one opened, leaving no gap or overlap.
    pub fn set_state(&mut self, line: usize, state: ProtState, now: u64) {
        let t = self.advance_to(now);
        let g = self.gclock;
        let l = &mut self.lines[line];
        debug_assert!(l.active, "set_state on an inactive line");
        if l.state == state {
            return;
        }
        let words = self.words_per_line as u128;
        self.residency[l.state.index()] += words * u128::from(t - l.since);
        self.wresidency[l.state.index()] += self.words_per_line as f64 * (g - l.wsince);
        l.state = state;
        l.since = t;
        l.wsince = g;
    }

    /// Closes a line's residency window: it was evicted or dropped at
    /// `now`. Open word windows die unconsumed — strikes there were
    /// masked. Provisional replica-recovery segments settle as
    /// [`VulnClass::ByReplica`]: the recovery already happened and no
    /// further observation can contradict it.
    pub fn end_line(&mut self, line: usize, now: u64) {
        let t = self.advance_to(now);
        let g = self.gclock;
        let l = &mut self.lines[line];
        debug_assert!(l.active, "end on an inactive line");
        let words = self.words_per_line as u128;
        self.residency[l.state.index()] += words * u128::from(t - l.since);
        self.wresidency[l.state.index()] += self.words_per_line as f64 * (g - l.wsince);
        l.active = false;
        self.valid_lines -= 1;
        let base = self.snap_base(line);
        for idx in base..base + self.words_per_line {
            if let Some((raw, w)) = self.snaps[idx].provisional.take() {
                self.consumed[VulnClass::ByReplica.index()] += u128::from(raw);
                self.wconsumed[VulnClass::ByReplica.index()] += w;
            }
            self.snaps[idx].launder = None;
        }
    }

    /// A word was overwritten or re-encoded from a trusted source at
    /// `now`: its open window closes unconsumed (masked) and a fresh
    /// one opens. A provisional replica-recovery segment settles as
    /// [`VulnClass::ByReplica`] — the overwrite erases the laundered
    /// bits before any re-observation could expose them.
    pub fn refresh_word(&mut self, line: usize, word: usize, now: u64) {
        let t = self.advance_to(now);
        let g = self.gclock;
        let idx = self.snap_base(line) + word;
        if let Some((raw, w)) = self.snaps[idx].provisional.take() {
            self.consumed[VulnClass::ByReplica.index()] += u128::from(raw);
            self.wconsumed[VulnClass::ByReplica.index()] += w;
        }
        self.snaps[idx] = WordSnap::fresh(t, g);
    }

    /// Every word of `line` was rewritten from a trusted source at
    /// `now` (a whole-line refetch): all open word windows close
    /// unconsumed.
    pub fn refresh_line(&mut self, line: usize, now: u64) {
        for word in 0..self.words_per_line {
            self.refresh_word(line, word, now);
        }
    }

    /// A word's integrity check observed it at `now`: the open window
    /// since its last refresh is consumed into `class` — a strike
    /// anywhere inside it would have ended that way — and a fresh
    /// window opens.
    ///
    /// A pending launder boundary splits the window: strikes before
    /// the boundary were trusted into a re-code. An
    /// [`LaunderKind::InPlace`] prefix is wrong data under clean check
    /// bits, so this observation consumes it as
    /// [`VulnClass::Laundered`]. A [`LaunderKind::Copy`] prefix is
    /// still *detected* here (the original kept its stale check bits)
    /// but recovery returns the laundered copy: when this observation
    /// recovers by replica, the machine counts a successful recovery,
    /// and the prefix is held provisionally — settled as
    /// `ByReplica` unless the word is observed again before a refresh
    /// (the second read consumes the wrong data in the open, which is
    /// laundering made visible). A provisional segment from an earlier
    /// observation is settled as `Laundered` by this one.
    pub fn consume_word(&mut self, line: usize, word: usize, class: VulnClass, now: u64) {
        let t = self.advance_to(now);
        let g = self.gclock;
        let idx = self.snap_base(line) + word;
        let snap = &mut self.snaps[idx];
        if let Some((raw, w)) = snap.provisional.take() {
            self.consumed[VulnClass::Laundered.index()] += u128::from(raw);
            self.wconsumed[VulnClass::Laundered.index()] += w;
        }
        match snap.launder.take() {
            Some((lt, lg, kind)) => {
                let pre_raw = lt - snap.cycle;
                let pre_w = (lg - snap.g).max(0.0);
                let post_raw = t - lt;
                let post_w = (g - lg).max(0.0);
                self.consumed[class.index()] += u128::from(post_raw);
                self.wconsumed[class.index()] += post_w;
                match kind {
                    LaunderKind::InPlace => {
                        self.consumed[VulnClass::Laundered.index()] += u128::from(pre_raw);
                        self.wconsumed[VulnClass::Laundered.index()] += pre_w;
                    }
                    LaunderKind::Copy if class == VulnClass::ByReplica => {
                        snap.provisional = Some((pre_raw, pre_w));
                    }
                    LaunderKind::Copy => {
                        // Recovery bypassed the laundered copy (L2
                        // refetch, duplicate, or outright loss): the
                        // prefix shares this observation's fate.
                        self.consumed[class.index()] += u128::from(pre_raw);
                        self.wconsumed[class.index()] += pre_w;
                    }
                }
            }
            None => {
                self.consumed[class.index()] += u128::from(t - snap.cycle);
                self.wconsumed[class.index()] += (g - snap.g).max(0.0);
            }
        }
        snap.cycle = t;
        snap.g = g;
    }

    /// Every word of `line` had its stored bits trusted at `now` (the
    /// seeding of a new replica, or a re-encode under a new code): a
    /// laundering boundary is marked on each open word window. The
    /// boundary is *pending* — nothing is consumed until the word is
    /// next observed (see [`consume_word`](Self::consume_word)); a
    /// window refreshed or evicted before any observation stays masked
    /// exactly as the machine behaves. A later boundary on the same
    /// open window supersedes the earlier one (the re-code trusted the
    /// same stored bits again).
    pub fn launder_line(&mut self, line: usize, now: u64, kind: LaunderKind) {
        let t = self.advance_to(now);
        let g = self.gclock;
        let base = self.snap_base(line);
        for idx in base..base + self.words_per_line {
            self.snaps[idx].launder = Some((t, g, kind));
        }
    }

    /// A snapshot of all windows extended to `now`, without mutating
    /// the ledger: open residency windows are folded in; open word
    /// windows remain unconsumed (masked if the run ended here).
    pub fn windows(&self, now: u64) -> ExposureWindows {
        let t = now.max(self.clock);
        let dt = t - self.clock;
        let mut residency = self.residency;
        let mut wresidency = self.wresidency;
        let mut total_word_cycles = self.total_word_cycles;
        let mut total_weight = self.total_weight;
        let mut gnow = self.gclock;
        if dt > 0 && self.valid_lines > 0 {
            let vwords = (self.valid_lines * self.words_per_line) as f64;
            total_word_cycles += (self.valid_lines * self.words_per_line) as u128 * u128::from(dt);
            let mass = match self.arrival {
                Arrival::Uniform => dt as f64,
                Arrival::Geometric { p } => {
                    let q = 1.0 - p;
                    (self.survival - self.survival * (dt as f64 * q.ln()).exp()).max(0.0)
                }
            };
            total_weight += mass;
            gnow += mass / vwords;
        }
        for l in self.lines.iter().filter(|l| l.active) {
            residency[l.state.index()] += self.words_per_line as u128 * u128::from(t - l.since);
            wresidency[l.state.index()] += self.words_per_line as f64 * (gnow - l.wsince);
        }
        // Provisional replica-recovery segments settle as ByReplica at
        // a run boundary: the recovery was counted and nothing observed
        // the word again. Pending launder boundaries stay masked.
        let mut consumed = self.consumed;
        let mut wconsumed = self.wconsumed;
        for s in &self.snaps {
            if let Some((raw, w)) = s.provisional {
                consumed[VulnClass::ByReplica.index()] += u128::from(raw);
                wconsumed[VulnClass::ByReplica.index()] += w;
            }
        }
        ExposureWindows {
            cycles: t,
            residency,
            weighted_residency: wresidency,
            consumed,
            weighted_consumed: wconsumed,
            total_word_cycles,
            total_weight,
        }
    }
}

/// Accumulated exposure windows at an instant — the vulnerability
/// section of a simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExposureWindows {
    /// The cycle the snapshot was taken at.
    pub cycles: u64,
    /// Raw residency word-cycles per [`ProtState`] (index by
    /// `ProtState::index`). Sums to `total_word_cycles` exactly.
    pub residency: [u128; NSTATES],
    /// Arrival-weighted residency per state; sums to `total_weight` up
    /// to rounding.
    pub weighted_residency: [f64; NSTATES],
    /// Raw consumed (ACE) word-cycles per [`VulnClass`].
    pub consumed: [u128; NCLASSES],
    /// Arrival-weighted consumed windows per class.
    pub weighted_consumed: [f64; NCLASSES],
    /// Total valid word-cycles, accumulated independently of the
    /// per-state windows (the partition check's right-hand side).
    pub total_word_cycles: u128,
    /// Total arrival weight delivered over non-empty cycles; the
    /// one-shot probabilities' denominator (≈ P(strike delivered)).
    pub total_weight: f64,
}

impl ExposureWindows {
    /// Raw residency word-cycles in `state`.
    pub fn residency_of(&self, state: ProtState) -> u128 {
        self.residency[state.index()]
    }

    /// Raw consumed word-cycles in `class`.
    pub fn consumed_of(&self, class: VulnClass) -> u128 {
        self.consumed[class.index()]
    }

    /// Time-averaged words resident in `state` (e.g. `DirtyParity`
    /// gives the residency-weighted vulnerable-word exposure).
    pub fn avg_words_in(&self, state: ProtState) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.residency[state.index()] as f64 / self.cycles as f64
        }
    }

    /// Probability that a single delivered strike is consumed as
    /// `class`, under the ledger's arrival model.
    pub fn one_shot_probability(&self, class: VulnClass) -> f64 {
        if self.total_weight <= 0.0 {
            0.0
        } else {
            (self.weighted_consumed[class.index()] / self.total_weight).clamp(0.0, 1.0)
        }
    }

    /// Probability that a single delivered strike is never observed by
    /// any check: overwritten, evicted, dropped, or still latent at the
    /// end of the run.
    pub fn one_shot_masked(&self) -> f64 {
        let consumed: f64 = VulnClass::ALL
            .iter()
            .map(|&c| self.one_shot_probability(c))
            .sum();
        (1.0 - consumed).clamp(0.0, 1.0)
    }

    /// Probability that a single delivered strike does *not* end in
    /// data loss or silent corruption — the campaign's survived
    /// fraction, analytically.
    pub fn one_shot_survived(&self) -> f64 {
        (1.0 - self.one_shot_probability(VulnClass::Unrecoverable)
            - self.one_shot_probability(VulnClass::Laundered))
        .clamp(0.0, 1.0)
    }

    /// Folds another window set into this one (for aggregating cells —
    /// e.g. one scheme over all apps).
    pub fn merge(&mut self, other: &ExposureWindows) {
        self.cycles += other.cycles;
        self.total_word_cycles += other.total_word_cycles;
        self.total_weight += other.total_weight;
        for i in 0..NSTATES {
            self.residency[i] += other.residency[i];
            self.weighted_residency[i] += other.weighted_residency[i];
        }
        for i in 0..NCLASSES {
            self.consumed[i] += other.consumed[i];
            self.weighted_consumed[i] += other.weighted_consumed[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_residency(w: &ExposureWindows) -> u128 {
        w.residency.iter().sum()
    }

    #[test]
    fn empty_ledger_has_empty_windows() {
        let l = ExposureLedger::new(4, 8);
        let w = l.windows(1_000);
        assert_eq!(total_residency(&w), 0);
        assert_eq!(w.total_word_cycles, 0);
        assert_eq!(w.one_shot_masked(), 1.0);
        assert_eq!(w.one_shot_survived(), 1.0);
    }

    #[test]
    fn residency_partitions_across_transitions() {
        let mut l = ExposureLedger::new(2, 4);
        l.begin_line(0, ProtState::CleanParity, 10);
        l.set_state(0, ProtState::DirtyParity, 30);
        l.begin_line(1, ProtState::Replica, 50);
        l.set_state(0, ProtState::Replicated, 60);
        l.end_line(1, 80);
        l.set_state(0, ProtState::DirtyParity, 80);
        let w = l.windows(100);
        assert_eq!(w.residency_of(ProtState::CleanParity), 4 * 20);
        assert_eq!(w.residency_of(ProtState::DirtyParity), 4 * (30 + 20));
        assert_eq!(w.residency_of(ProtState::Replicated), 4 * 20);
        assert_eq!(w.residency_of(ProtState::Replica), 4 * 30);
        assert_eq!(total_residency(&w), w.total_word_cycles);
    }

    #[test]
    fn consumption_attributes_whole_interval_to_class_at_check() {
        let mut l = ExposureLedger::new(1, 2);
        l.begin_line(0, ProtState::CleanParity, 0);
        l.set_state(0, ProtState::DirtyParity, 40);
        // Word 1 refreshed at t=60, so its window restarts there.
        l.refresh_word(0, 1, 60);
        // Word 0 read at t=100: the whole window since fill would be
        // seen by a check on a dirty line — unrecoverable.
        l.consume_word(0, 0, VulnClass::Unrecoverable, 100);
        assert_eq!(l.windows(100).consumed_of(VulnClass::Unrecoverable), 100);
        // Word 1 read at t=100: only the 40 cycles since its refresh.
        l.consume_word(0, 1, VulnClass::Unrecoverable, 100);
        assert_eq!(
            l.windows(100).consumed_of(VulnClass::Unrecoverable),
            100 + 40
        );
    }

    #[test]
    fn add_lines_mid_run_leaves_existing_windows_untouched() {
        let mut l = ExposureLedger::new(1, 4);
        l.begin_line(0, ProtState::DirtyParity, 0);
        let before = l.windows(50).residency_of(ProtState::DirtyParity);
        assert_eq!(before, 4 * 50);

        // Lazily attach a 2-slot replica region at t=50.
        let base = l.add_lines(2);
        assert_eq!(base, 1);
        assert_eq!(l.line_count(), 3);
        // New slots are inactive: nothing changes until they begin.
        assert_eq!(l.windows(80).residency_of(ProtState::Replica), 0);

        l.begin_line(base + 1, ProtState::Replica, 80);
        l.end_line(base + 1, 100);
        let w = l.windows(120);
        assert_eq!(w.residency_of(ProtState::DirtyParity), 4 * 120);
        assert_eq!(w.residency_of(ProtState::Replica), 4 * 20);
        assert_eq!(total_residency(&w), w.total_word_cycles);
    }

    #[test]
    fn non_monotone_time_is_clamped_and_windows_stay_nonnegative() {
        let mut l = ExposureLedger::new(1, 1);
        l.begin_line(0, ProtState::Ecc, 100);
        l.consume_word(0, 0, VulnClass::ByEcc, 50); // in the past
        l.set_state(0, ProtState::CleanParity, 20); // further back
        let w = l.windows(10); // even further
        assert_eq!(w.cycles, 100);
        assert_eq!(total_residency(&w), w.total_word_cycles);
    }

    #[test]
    fn uniform_one_shot_probabilities_follow_exposure_shares() {
        // One line, one word, valid over [0, 100): read at 60 while
        // dirty (unrecoverable window = 60 cycles), then masked to the
        // end. V(t) = 1, so P(unrecoverable) = 60/100.
        let mut l = ExposureLedger::new(1, 1);
        l.begin_line(0, ProtState::DirtyParity, 0);
        l.consume_word(0, 0, VulnClass::Unrecoverable, 60);
        let w = l.windows(100);
        assert!((w.one_shot_probability(VulnClass::Unrecoverable) - 0.6).abs() < 1e-12);
        assert!((w.one_shot_masked() - 0.4).abs() < 1e-12);
        assert!((w.one_shot_survived() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn geometric_arrival_weights_early_windows_heavier() {
        let p = 0.01;
        let mut early = ExposureLedger::new(1, 1);
        early.set_arrival(Arrival::Geometric { p });
        early.begin_line(0, ProtState::DirtyParity, 0);
        early.consume_word(0, 0, VulnClass::Unrecoverable, 100);
        let we = early.windows(1_000);

        let mut late = ExposureLedger::new(1, 1);
        late.set_arrival(Arrival::Geometric { p });
        late.begin_line(0, ProtState::DirtyParity, 0);
        late.refresh_word(0, 0, 900);
        late.consume_word(0, 0, VulnClass::Unrecoverable, 1_000);
        let wl = late.windows(1_000);

        // Same 100-cycle raw window, but the early one carries far more
        // arrival mass.
        assert_eq!(
            we.consumed_of(VulnClass::Unrecoverable),
            wl.consumed_of(VulnClass::Unrecoverable)
        );
        assert!(
            we.one_shot_probability(VulnClass::Unrecoverable)
                > 3.0 * wl.one_shot_probability(VulnClass::Unrecoverable)
        );
        // And the weighted accounting stays a partition of the weight.
        let sum: f64 = we.weighted_residency.iter().sum();
        assert!((sum - we.total_weight).abs() < 1e-9 * we.total_weight.max(1.0));
    }

    #[test]
    fn in_place_launder_surfaces_at_the_next_observation() {
        let mut l = ExposureLedger::new(1, 4);
        l.begin_line(0, ProtState::Ecc, 0);
        l.refresh_word(0, 2, 30);
        l.launder_line(0, 50, LaunderKind::InPlace);
        // Before any observation the boundary is pending: masked.
        assert_eq!(l.windows(60).consumed_of(VulnClass::Laundered), 0);
        // Observing word 2 splits its window at the boundary: the
        // pre-launder 20 cycles are laundered, the 30 after it take the
        // observation's class.
        l.consume_word(0, 2, VulnClass::ByReplica, 80);
        let w = l.windows(80);
        assert_eq!(w.consumed_of(VulnClass::Laundered), 20);
        assert_eq!(w.consumed_of(VulnClass::ByReplica), 30);
    }

    #[test]
    fn copy_launder_is_provisional_until_a_second_observation() {
        let mut l = ExposureLedger::new(1, 1);
        l.begin_line(0, ProtState::CleanParity, 0);
        l.launder_line(0, 40, LaunderKind::Copy);
        // First observation recovers by replica: the machine counted a
        // successful recovery, so the pre-launder window is reported as
        // ByReplica while nothing has contradicted it...
        l.consume_word(0, 0, VulnClass::ByReplica, 100);
        let w = l.windows(100);
        assert_eq!(w.consumed_of(VulnClass::ByReplica), 100);
        assert_eq!(w.consumed_of(VulnClass::Laundered), 0);
        // ...but a second observation reads the laundered bits in the
        // open: the held 40 cycles become Laundered, and the fresh
        // window [100, 130] takes its own class.
        l.consume_word(0, 0, VulnClass::ByReplica, 130);
        let w = l.windows(130);
        assert_eq!(w.consumed_of(VulnClass::Laundered), 40);
        assert_eq!(w.consumed_of(VulnClass::ByReplica), 60 + 30);
    }

    #[test]
    fn copy_launder_settles_as_replica_on_refresh_or_eviction() {
        // A store overwrites the laundered bits before re-observation.
        let mut l = ExposureLedger::new(1, 1);
        l.begin_line(0, ProtState::CleanParity, 0);
        l.launder_line(0, 40, LaunderKind::Copy);
        l.consume_word(0, 0, VulnClass::ByReplica, 100);
        l.refresh_word(0, 0, 120);
        assert_eq!(l.windows(120).consumed_of(VulnClass::ByReplica), 100);
        assert_eq!(l.windows(120).consumed_of(VulnClass::Laundered), 0);

        // Eviction settles a held segment the same way.
        let mut l = ExposureLedger::new(1, 1);
        l.begin_line(0, ProtState::CleanParity, 0);
        l.launder_line(0, 10, LaunderKind::Copy);
        l.consume_word(0, 0, VulnClass::ByReplica, 30);
        l.end_line(0, 50);
        assert_eq!(l.windows(50).consumed_of(VulnClass::ByReplica), 30);
        assert_eq!(l.windows(50).consumed_of(VulnClass::Laundered), 0);
    }

    #[test]
    fn copy_launder_follows_a_non_replica_recovery() {
        // The replica was gone by observation time: recovery refetched
        // from L2, restoring true data — the whole window shares that
        // fate, laundered copy and all.
        let mut l = ExposureLedger::new(1, 1);
        l.begin_line(0, ProtState::CleanParity, 0);
        l.launder_line(0, 40, LaunderKind::Copy);
        l.consume_word(0, 0, VulnClass::ByRefetch, 100);
        let w = l.windows(100);
        assert_eq!(w.consumed_of(VulnClass::ByRefetch), 100);
        assert_eq!(w.consumed_of(VulnClass::Laundered), 0);
    }

    #[test]
    fn pending_launder_dies_masked_without_observation() {
        let mut l = ExposureLedger::new(1, 1);
        l.begin_line(0, ProtState::CleanParity, 0);
        l.launder_line(0, 40, LaunderKind::InPlace);
        l.refresh_word(0, 0, 60);
        l.end_line(0, 100);
        let w = l.windows(100);
        let consumed: u128 = w.consumed.iter().sum();
        assert_eq!(consumed, 0, "no observation, everything masked");
        assert_eq!(w.total_word_cycles, 100);
    }

    #[test]
    #[should_panic(expected = "before any traffic")]
    fn arrival_cannot_change_mid_run() {
        let mut l = ExposureLedger::new(1, 1);
        l.begin_line(0, ProtState::CleanParity, 0);
        l.end_line(0, 10);
        l.set_arrival(Arrival::Geometric { p: 0.5 });
    }

    #[test]
    fn merge_sums_every_accumulator() {
        let mut a = ExposureLedger::new(1, 2);
        a.begin_line(0, ProtState::Ecc, 0);
        a.consume_word(0, 0, VulnClass::ByEcc, 10);
        let mut wa = a.windows(20);
        let mut b = ExposureLedger::new(1, 2);
        b.begin_line(0, ProtState::DirtyParity, 0);
        let wb = b.windows(30);
        wa.merge(&wb);
        assert_eq!(wa.cycles, 50);
        assert_eq!(wa.residency_of(ProtState::DirtyParity), 60);
        assert_eq!(wa.residency_of(ProtState::Ecc), 40);
        assert_eq!(wa.total_word_cycles, 100);
        assert_eq!(wa.consumed_of(VulnClass::ByEcc), 10);
    }
}
