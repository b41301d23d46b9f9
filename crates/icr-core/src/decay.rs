//! Dead-block prediction via cache-decay counters (Kaxiras et al.),
//! the mechanism ICR recycles to find space for replicas.
//!
//! Each line conceptually carries a 2-bit saturating counter that a global
//! timer ticks up every `window / 4` cycles and any access resets; a line
//! whose counter saturates (i.e. has gone a full decay window without an
//! access) is *dead*. We compute the counter lazily from the line's
//! last-access cycle — bit-for-bit equivalent to ticking, without the
//! global sweep.
//!
//! A window of **0** models the paper's "aggressive" §5.1–5.2 setting:
//! a block is pronounced dead the moment its access completes.

/// Decay configuration: the window (in cycles) after which an untouched
/// line is declared dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecayConfig {
    /// Cycles without access after which a line is dead. `0` = immediately.
    pub window: u64,
}

impl DecayConfig {
    /// The aggressive setting of §5.1–5.2: dead as soon as accessed.
    pub fn aggressive() -> Self {
        DecayConfig { window: 0 }
    }

    /// The relaxed setting the paper settles on for §5.4+ (1000 cycles).
    pub fn relaxed() -> Self {
        DecayConfig { window: 1000 }
    }

    /// Interval between conceptual timer ticks (window / 4, minimum 1).
    pub fn tick_interval(&self) -> u64 {
        (self.window / 4).max(1)
    }

    /// The 2-bit counter value for a line last touched at `last_access`,
    /// observed at `now` — the free-function form of
    /// [`DecayState::counter`], written branch-free.
    ///
    /// `elapsed >= window` covers saturation for every window including
    /// 0 (where it is always true), so the only data-dependent operation
    /// is a mask select between the ticked value and 3.
    #[inline]
    pub fn counter_at(&self, last_access: u64, now: u64) -> u8 {
        let elapsed = now.saturating_sub(last_access);
        let ticked = (elapsed / self.tick_interval()).min(2) as u8;
        // 0xFF when a full window has elapsed (saturated), else 0x00.
        let saturated = 0u8.wrapping_sub(u8::from(elapsed >= self.window));
        (3 & saturated) | (ticked & !saturated)
    }

    /// Deadness for a line last touched at `last_access`, observed at
    /// `now`: exactly [`counter_at`](Self::counter_at)` == 3`, i.e. a
    /// full window elapsed. One compare, no division.
    #[inline]
    pub fn dead_at(&self, last_access: u64, now: u64) -> bool {
        now.saturating_sub(last_access) >= self.window
    }
}

impl Default for DecayConfig {
    fn default() -> Self {
        DecayConfig::relaxed()
    }
}

/// Per-line decay state: the cycle of the last access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecayState {
    last_access: u64,
}

impl DecayState {
    /// A line just accessed at `now`.
    pub fn touched_at(now: u64) -> Self {
        DecayState { last_access: now }
    }

    /// Records an access at `now`, resetting the counter.
    pub fn touch(&mut self, now: u64) {
        self.last_access = now;
    }

    /// The cycle of the last access.
    pub fn last_access(&self) -> u64 {
        self.last_access
    }

    /// The value the line's 2-bit counter would hold at `now` (0–3).
    ///
    /// The counter reaches its saturated value of 3 exactly when a full
    /// decay window has elapsed, so `counter == 3` ⇔ [`is_dead`]: the
    /// first three timer ticks advance it 0 → 1 → 2, and the fourth —
    /// which lands on the window boundary for any window ≥ 4 — saturates
    /// it. (Windows of 1–3 cycles tick every cycle, so the boundary is
    /// enforced explicitly rather than by tick arithmetic.)
    ///
    /// [`is_dead`]: DecayState::is_dead
    pub fn counter(&self, config: DecayConfig, now: u64) -> u8 {
        if config.window == 0 {
            return 3;
        }
        let elapsed = now.saturating_sub(self.last_access);
        if elapsed >= config.window {
            3
        } else {
            (elapsed / config.tick_interval()).min(2) as u8
        }
    }

    /// `true` when the line has decayed: a full window has elapsed since
    /// the last access (always, for window 0), i.e. exactly when the
    /// 2-bit [`counter`] has saturated.
    ///
    /// [`counter`]: DecayState::counter
    pub fn is_dead(&self, config: DecayConfig, now: u64) -> bool {
        self.counter(config, now) == 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggressive_window_is_always_dead() {
        let cfg = DecayConfig::aggressive();
        let s = DecayState::touched_at(100);
        assert!(s.is_dead(cfg, 100));
        assert!(s.is_dead(cfg, 101));
        assert_eq!(s.counter(cfg, 100), 3);
    }

    #[test]
    fn relaxed_window_decays_after_window_cycles() {
        let cfg = DecayConfig { window: 1000 };
        let s = DecayState::touched_at(0);
        assert!(!s.is_dead(cfg, 999));
        assert!(s.is_dead(cfg, 1000));
        assert!(s.is_dead(cfg, 5000));
    }

    #[test]
    fn touch_resets_the_counter() {
        let cfg = DecayConfig { window: 1000 };
        let mut s = DecayState::touched_at(0);
        assert_eq!(s.counter(cfg, 600), 2);
        s.touch(600);
        assert_eq!(s.counter(cfg, 600), 0);
        assert!(!s.is_dead(cfg, 1599));
        assert!(s.is_dead(cfg, 1600));
    }

    #[test]
    fn counter_saturates_at_three_only_at_the_window() {
        let cfg = DecayConfig { window: 1000 };
        let s = DecayState::touched_at(0);
        assert_eq!(s.counter(cfg, 0), 0);
        assert_eq!(s.counter(cfg, 250), 1);
        assert_eq!(s.counter(cfg, 500), 2);
        // Three ticks elapsed but the window has not: still 2, not dead.
        assert_eq!(s.counter(cfg, 750), 2);
        assert_eq!(s.counter(cfg, 999), 2);
        assert_eq!(s.counter(cfg, 1000), 3);
        assert_eq!(s.counter(cfg, 1_000_000), 3);
    }

    #[test]
    fn dead_exactly_when_counter_saturated_a_full_window() {
        // is_dead and the counter agree at the window boundary.
        let cfg = DecayConfig { window: 2000 };
        let s = DecayState::touched_at(500);
        assert_eq!(s.counter(cfg, 2499), 2); // 1999 elapsed < 2000: not saturated
        assert!(!s.is_dead(cfg, 2499));
        assert_eq!(s.counter(cfg, 2500), 3);
        assert!(s.is_dead(cfg, 2500));
    }

    #[test]
    fn counter_saturation_and_deadness_agree_everywhere() {
        // The Kaxiras model: "counter saturated" ⇔ "dead", at every cycle
        // and for every window, including windows too short to tick four
        // times.
        for window in [0, 1, 2, 3, 4, 7, 100, 1000, 2000] {
            let cfg = DecayConfig { window };
            let s = DecayState::touched_at(17);
            for now in 0..(17 + 4 * window.max(1) + 8) {
                assert_eq!(
                    s.counter(cfg, now) == 3,
                    s.is_dead(cfg, now),
                    "window {window} now {now}"
                );
            }
        }
    }

    #[test]
    fn tick_interval_never_zero() {
        assert_eq!(DecayConfig { window: 0 }.tick_interval(), 1);
        assert_eq!(DecayConfig { window: 2 }.tick_interval(), 1);
        assert_eq!(DecayConfig { window: 1000 }.tick_interval(), 250);
    }
}
