//! Resync protocol: desyncs become bounded, measured recovery episodes.
//!
//! Two desync states threaten the receiver:
//!
//! * **Stale key** — the decryptor holds an out-of-date key, so every
//!   marked packet decrypts to garbage. Recovery is a bounded re-key
//!   handshake (`handshake_ticks` of protocol time) followed by decoder
//!   resync at the next I-frame, mirroring how a real player re-keys over
//!   the control channel and then waits for a random access point.
//! * **Lost I-frame** — the decoder lost its reference picture; no key
//!   exchange is needed, but prediction is broken until the next intact
//!   I-frame arrives.
//!
//! Time is an abstract monotone `u64` tick supplied by the caller (the
//! pipeline counts received packets, the frame-level analysis counts
//! frames), so the protocol is wall-clock-free and deterministic.
//!
//! An [`Episode`] closes at the first I-frame *after* the key is fresh;
//! an episode still open when the stream ends is reported separately in
//! [`RecoveryReport::open`] so "the storm outran the tape" is
//! distinguishable from "recovery is unbounded".

/// Which desync state an episode recovered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesyncKind {
    /// The receiver's session key went stale; a re-key handshake runs.
    StaleKey,
    /// The decoder lost an I-frame; it resyncs at the next intact one.
    LostIFrame,
}

impl DesyncKind {
    /// Human label for tables.
    pub fn label(self) -> &'static str {
        match self {
            DesyncKind::StaleKey => "stale-key",
            DesyncKind::LostIFrame => "lost-I-frame",
        }
    }
}

/// One recovery episode: desync at `start`, fully recovered at `end`
/// (both in caller ticks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// What broke.
    pub kind: DesyncKind,
    /// Tick of the desync event.
    pub start: u64,
    /// Tick of the recovery point (first I-frame with a fresh key), or the
    /// last observed tick for a still-open episode in
    /// [`RecoveryReport::open`].
    pub end: u64,
}

impl Episode {
    /// Recovery time in ticks.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Everything a run's resync activity produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Closed episodes, in start order.
    pub episodes: Vec<Episode>,
    /// An episode the stream ended inside, if any (`end` = final tick, so
    /// `duration()` is the time spent desynced so far).
    pub open: Option<Episode>,
}

impl RecoveryReport {
    /// Closed-episode durations, in start order.
    pub fn durations(&self) -> Vec<u64> {
        self.episodes.iter().map(Episode::duration).collect()
    }

    /// The longest recovery time observed, counting a still-open episode's
    /// elapsed ticks (0 when nothing ever desynced).
    pub fn max_duration(&self) -> u64 {
        let closed = self.episodes.iter().map(Episode::duration).max().unwrap_or(0);
        closed.max(self.open.map(|e| e.duration()).unwrap_or(0))
    }

    /// True when every episode (including a still-open tail) recovered or
    /// has been desynced for at most `bound` ticks.
    pub fn bounded_by(&self, bound: u64) -> bool {
        self.max_duration() <= bound
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    InSync,
    Resyncing {
        kind: DesyncKind,
        since: u64,
        key_fresh_at: u64,
    },
}

/// The receiver-side resync state machine.
#[derive(Debug, Clone)]
pub struct ResyncProtocol {
    handshake_ticks: u64,
    state: State,
    episodes: Vec<Episode>,
    last_tick: u64,
}

impl ResyncProtocol {
    /// A protocol whose re-key handshake completes `handshake_ticks` after
    /// a stale-key desync is detected.
    pub fn new(handshake_ticks: u64) -> Self {
        ResyncProtocol {
            handshake_ticks,
            state: State::InSync,
            episodes: Vec::new(),
            last_tick: 0,
        }
    }

    /// Whether the receiver is currently inside a desync episode.
    pub fn is_resyncing(&self) -> bool {
        !matches!(self.state, State::InSync)
    }

    /// Whether decrypting with the session key is sound at `now`: true in
    /// sync, and true mid-episode once the re-key handshake has completed
    /// (a lost I-frame never invalidates the key).
    pub fn key_is_fresh(&self, now: u64) -> bool {
        match self.state {
            State::InSync => true,
            State::Resyncing { key_fresh_at, .. } => now >= key_fresh_at,
        }
    }

    /// Report a desync detected at tick `now`. Ignored while already
    /// resyncing: the episode in progress absorbs further faults, exactly
    /// as a player mid-re-key ignores additional garbage.
    pub fn on_desync(&mut self, kind: DesyncKind, now: u64) {
        self.last_tick = self.last_tick.max(now);
        if self.is_resyncing() {
            return;
        }
        let key_fresh_at = match kind {
            DesyncKind::StaleKey => now.saturating_add(self.handshake_ticks),
            DesyncKind::LostIFrame => now,
        };
        self.state = State::Resyncing {
            kind,
            since: now,
            key_fresh_at,
        };
    }

    /// An I-frame was observed at tick `now`. Closes the current episode
    /// iff the key is fresh again; otherwise the garbled I-frame cannot be
    /// the resync point and the episode continues to the next one.
    pub fn on_i_frame(&mut self, now: u64) {
        self.last_tick = self.last_tick.max(now);
        if let State::Resyncing { kind, since, key_fresh_at } = self.state {
            if now >= key_fresh_at {
                self.episodes.push(Episode {
                    kind,
                    start: since,
                    end: now,
                });
                self.state = State::InSync;
            }
        }
    }

    /// Advance the protocol clock without an event (e.g. per received
    /// packet), so a still-open episode's elapsed time is measured.
    pub fn on_tick(&mut self, now: u64) {
        self.last_tick = self.last_tick.max(now);
    }

    /// Closed episodes so far, in start order.
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// The final report: closed episodes plus the open tail, if the stream
    /// ended mid-episode.
    pub fn report(&self) -> RecoveryReport {
        let open = match self.state {
            State::InSync => None,
            State::Resyncing { kind, since, .. } => Some(Episode {
                kind,
                start: since,
                end: self.last_tick,
            }),
        };
        RecoveryReport {
            episodes: self.episodes.clone(),
            open,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_key_episode_closes_at_first_i_frame_after_handshake() {
        let mut p = ResyncProtocol::new(12);
        assert!(!p.is_resyncing());
        assert!(p.key_is_fresh(0));
        p.on_desync(DesyncKind::StaleKey, 100);
        assert!(p.is_resyncing());
        assert!(!p.key_is_fresh(105), "mid-handshake the key is stale");
        // An I-frame before the handshake completes cannot close it.
        p.on_i_frame(110);
        assert!(p.is_resyncing());
        assert!(p.key_is_fresh(112), "handshake done at 100+12");
        p.on_i_frame(120);
        assert!(!p.is_resyncing());
        assert_eq!(
            p.episodes(),
            &[Episode {
                kind: DesyncKind::StaleKey,
                start: 100,
                end: 120
            }]
        );
        assert_eq!(p.episodes()[0].duration(), 20);
    }

    #[test]
    fn lost_i_frame_needs_no_handshake() {
        let mut p = ResyncProtocol::new(50);
        p.on_desync(DesyncKind::LostIFrame, 7);
        assert!(p.key_is_fresh(7), "key never went stale");
        p.on_i_frame(17);
        assert_eq!(p.episodes().len(), 1);
        assert_eq!(p.episodes()[0].duration(), 10);
    }

    #[test]
    fn nested_desyncs_are_absorbed_into_the_open_episode() {
        let mut p = ResyncProtocol::new(5);
        p.on_desync(DesyncKind::StaleKey, 10);
        p.on_desync(DesyncKind::StaleKey, 12); // ignored
        p.on_desync(DesyncKind::LostIFrame, 13); // ignored
        p.on_i_frame(20);
        assert_eq!(p.episodes().len(), 1);
        assert_eq!(p.episodes()[0].start, 10);
    }

    #[test]
    fn repeated_episodes_accumulate_in_order() {
        let mut p = ResyncProtocol::new(2);
        for k in 0..3u64 {
            p.on_desync(DesyncKind::StaleKey, 100 * k);
            p.on_i_frame(100 * k + 10);
        }
        assert_eq!(p.episodes().len(), 3);
        assert!(p.report().open.is_none());
        assert_eq!(p.report().durations(), vec![10, 10, 10]);
        assert_eq!(p.report().max_duration(), 10);
        assert!(p.report().bounded_by(10));
        assert!(!p.report().bounded_by(9));
    }

    #[test]
    fn open_tail_is_reported_not_hidden() {
        let mut p = ResyncProtocol::new(4);
        p.on_desync(DesyncKind::StaleKey, 50);
        p.on_tick(60);
        let r = p.report();
        assert!(r.episodes.is_empty());
        let open = r.open.expect("episode still open");
        assert_eq!((open.start, open.end), (50, 60));
        assert_eq!(r.max_duration(), 10);
    }
}
