//! Deployment channels: the two ways GLARE reaches a target site.
//!
//! Table 1 deploys every application twice: "with JavaCoG (using GRAM and
//! GridFTP) and with Expect by programmatically acquiring local system
//! shell and automatizing the installation process", and finds "Expect is
//! more efficient than Java CoG". The channels differ in:
//!
//! * **fixed overhead** — Expect pays a glogin/GSI session setup
//!   (~2.1 s in the paper); JavaCoG pays JVM + CoG toolkit initialization
//!   (~9.8 s);
//! * **per-step cost** — Expect streams commands down one live shell;
//!   JavaCoG wraps every script step in a GRAM job, paying submission
//!   overhead and poll-granularity rounding each time.

use glare_fabric::SimDuration;

use crate::gram::GramService;

/// Which transport mechanism executes install steps on the target site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelKind {
    /// Expect over a local shell or glogin session.
    Expect,
    /// Java CoG: each step is a GRAM job; files move via GridFTP.
    JavaCog,
}

/// Fixed Expect-channel overhead (Table 1: "Expect Overhead" = 2,100 ms).
pub(crate) const EXPECT_FIXED_OVERHEAD: SimDuration = SimDuration::from_millis(2_100);

/// Fixed JavaCoG overhead (Table 1: "JavaCoG Overhead" ≈ 9,800 ms).
pub(crate) const JAVACOG_FIXED_OVERHEAD: SimDuration = SimDuration::from_millis(9_800);

/// Expect per-command round-trip on the live shell.
pub(crate) const EXPECT_STEP_OVERHEAD: SimDuration = SimDuration::from_millis(120);

impl ChannelKind {
    /// Channel label as printed in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            ChannelKind::Expect => "Expect",
            ChannelKind::JavaCog => "Java CoG",
        }
    }

    /// One-time channel setup cost.
    pub fn fixed_overhead(self) -> SimDuration {
        match self {
            ChannelKind::Expect => EXPECT_FIXED_OVERHEAD,
            ChannelKind::JavaCog => JAVACOG_FIXED_OVERHEAD,
        }
    }

    /// Multiplier on GridFTP transfer cost: the JavaCoG path moves data
    /// through Java buffers and separate control channels, measurably
    /// slower than a streamed copy over the live shell (Table 1's
    /// Communication Overhead rows differ ~2-3x between channels).
    pub fn transfer_cost_factor(self) -> f64 {
        match self {
            ChannelKind::Expect => 1.0,
            ChannelKind::JavaCog => 2.0,
        }
    }

    /// Extra per-file setup the JavaCoG path pays (separate GridFTP
    /// client instantiation per transfer).
    pub fn transfer_extra_setup(self) -> SimDuration {
        match self {
            ChannelKind::Expect => SimDuration::ZERO,
            ChannelKind::JavaCog => SimDuration::from_millis(600),
        }
    }

    /// Channel-induced overhead for one step whose intrinsic cost is
    /// `step_cost`. Expect adds a shell round-trip; JavaCoG adds GRAM
    /// submission plus poll rounding.
    pub fn step_overhead(self, step_cost: SimDuration) -> SimDuration {
        match self {
            ChannelKind::Expect => EXPECT_STEP_OVERHEAD,
            ChannelKind::JavaCog => {
                GramService::observed_latency(step_cost).saturating_sub(step_cost)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_constants_match_table1() {
        assert_eq!(
            ChannelKind::Expect.fixed_overhead(),
            SimDuration::from_millis(2_100)
        );
        assert_eq!(
            ChannelKind::JavaCog.fixed_overhead(),
            SimDuration::from_millis(9_800)
        );
        // JavaCoG per-step overhead exceeds Expect's for any realistic step.
        let step = SimDuration::from_millis(500);
        assert!(ChannelKind::JavaCog.step_overhead(step) > ChannelKind::Expect.step_overhead(step));
    }
}
