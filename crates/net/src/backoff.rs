//! The five network-access backoff policies proposed in Section 8.
//!
//! When a circuit-switched network access collides, the paper proposes
//! backing off before resubmitting, with the delay chosen by one of:
//!
//! 1. **Depth-proportional** — "the backoff amount can be proportional to
//!    the network depth traversed by the message": deeper collisions tied up
//!    more of the network, so wait longer.
//! 2. **Inverse-depth** — the opposing argument: "the deeper a message
//!    travels before colliding, the less congested the network is expected
//!    to be, and so the access can be retried sooner."
//! 3. **Constant round-trip** — wait a constant proportional to the average
//!    memory round-trip time.
//! 4. **Exponential in retries** — "the number of previous unsuccessful
//!    tries can be used as a parameter to an exponential backoff algorithm."
//! 5. **Queue feedback** (Scott–Sohi) — in a packet-switched network, back
//!    off proportionally to the reported length of the destination memory
//!    queue.
//!
//! The paper leaves the comparison of (1) vs (2) to "simulations \[that\] can
//! be used to study the tradeoffs involved in these two opposing arguments";
//! the `repro netback` harness runs exactly that study.

/// Everything a backoff policy may consult when an access fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CollisionInfo {
    /// Number of stages the message traversed before colliding (1-based; a
    /// collision in the first stage has depth 1).
    pub depth: usize,
    /// Total stages in the network.
    pub stages: usize,
    /// Unsuccessful tries so far for this access, including this one.
    pub retries: u32,
    /// Destination queue length, when the network reports it (packet
    /// switching with Scott–Sohi feedback); 0 otherwise.
    pub queue_len: usize,
}

/// A network-access backoff policy (Section 8, items 1–5).
///
/// # Examples
///
/// ```
/// use abs_net::backoff::{CollisionInfo, NetworkBackoff};
///
/// let policy = NetworkBackoff::ExponentialRetries { base: 2, cap: 64 };
/// let info = CollisionInfo { depth: 1, stages: 4, retries: 3, queue_len: 0 };
/// assert_eq!(policy.delay(info), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NetworkBackoff {
    /// Retry immediately on the next cycle.
    #[default]
    None,
    /// Policy 1: delay = `factor × depth`.
    DepthProportional {
        /// Cycles of delay per stage traversed.
        factor: u64,
    },
    /// Policy 2: delay = `factor × (stages − depth + 1)` — shallow
    /// collisions (congested near the source) wait longest.
    InverseDepth {
        /// Cycles of delay per remaining stage.
        factor: u64,
    },
    /// Policy 3: delay = `rtt`, a constant proportional to the average
    /// round-trip time to memory.
    ConstantRtt {
        /// The constant delay in cycles.
        rtt: u64,
    },
    /// Policy 4: delay = `min(base^retries, cap)`.
    ExponentialRetries {
        /// Exponential base (the paper studies 2, 4 and 8).
        base: u64,
        /// Upper bound on the delay, preventing unbounded idling.
        cap: u64,
    },
    /// Policy 5 (Scott–Sohi): delay = `factor × queue_len`.
    QueueFeedback {
        /// Cycles of delay per queued packet at the destination module.
        factor: u64,
    },
}

impl NetworkBackoff {
    /// The retry delay, in cycles, after a failed access. Zero means retry
    /// on the very next cycle.
    pub fn delay(&self, info: CollisionInfo) -> u64 {
        match *self {
            NetworkBackoff::None => 0,
            NetworkBackoff::DepthProportional { factor } => factor * info.depth as u64,
            NetworkBackoff::InverseDepth { factor } => {
                factor * (info.stages.saturating_sub(info.depth) as u64 + 1)
            }
            NetworkBackoff::ConstantRtt { rtt } => rtt,
            NetworkBackoff::ExponentialRetries { base, cap } => {
                base.saturating_pow(info.retries).min(cap)
            }
            NetworkBackoff::QueueFeedback { factor } => factor * info.queue_len as u64,
        }
    }

    /// A short human-readable label for result tables.
    pub fn label(&self) -> String {
        match *self {
            NetworkBackoff::None => "none".to_string(),
            NetworkBackoff::DepthProportional { factor } => format!("depth x{factor}"),
            NetworkBackoff::InverseDepth { factor } => format!("inv-depth x{factor}"),
            NetworkBackoff::ConstantRtt { rtt } => format!("const rtt={rtt}"),
            NetworkBackoff::ExponentialRetries { base, cap } => {
                format!("exp base={base} cap={cap}")
            }
            NetworkBackoff::QueueFeedback { factor } => format!("queue x{factor}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: a saturating product, one factor at a time.
    fn pow_by_loop(base: u64, exp: u32) -> u64 {
        let mut acc: u64 = 1;
        for _ in 0..exp {
            acc = acc.saturating_mul(base);
            if acc == u64::MAX {
                break;
            }
        }
        acc
    }

    #[test]
    fn exponential_delays_match_the_product_loop() {
        for base in 0..=300u64 {
            for retries in 0..=80u32 {
                let policy = NetworkBackoff::ExponentialRetries { base, cap: u64::MAX };
                assert_eq!(
                    policy.delay(info(1, 4, retries, 0)),
                    pow_by_loop(base, retries),
                    "{base}^{retries}"
                );
            }
        }
    }

    fn info(depth: usize, stages: usize, retries: u32, queue_len: usize) -> CollisionInfo {
        CollisionInfo {
            depth,
            stages,
            retries,
            queue_len,
        }
    }

    #[test]
    fn none_is_zero() {
        assert_eq!(NetworkBackoff::None.delay(info(3, 4, 9, 10)), 0);
    }

    #[test]
    fn depth_proportional_grows_with_depth() {
        let p = NetworkBackoff::DepthProportional { factor: 5 };
        assert_eq!(p.delay(info(1, 4, 0, 0)), 5);
        assert_eq!(p.delay(info(4, 4, 0, 0)), 20);
    }

    #[test]
    fn inverse_depth_shrinks_with_depth() {
        let p = NetworkBackoff::InverseDepth { factor: 5 };
        assert_eq!(p.delay(info(1, 4, 0, 0)), 20);
        assert_eq!(p.delay(info(4, 4, 0, 0)), 5);
        // Never zero: even a last-stage collision waits one unit.
        assert!(p.delay(info(4, 4, 0, 0)) > 0);
    }

    #[test]
    fn constant_rtt_is_constant() {
        let p = NetworkBackoff::ConstantRtt { rtt: 12 };
        assert_eq!(p.delay(info(1, 4, 0, 0)), 12);
        assert_eq!(p.delay(info(4, 4, 7, 3)), 12);
    }

    #[test]
    fn exponential_grows_and_caps() {
        let p = NetworkBackoff::ExponentialRetries { base: 2, cap: 100 };
        assert_eq!(p.delay(info(0, 0, 0, 0)), 1);
        assert_eq!(p.delay(info(0, 0, 1, 0)), 2);
        assert_eq!(p.delay(info(0, 0, 6, 0)), 64);
        assert_eq!(p.delay(info(0, 0, 7, 0)), 100);
        assert_eq!(p.delay(info(0, 0, 63, 0)), 100);
    }

    #[test]
    fn exponential_no_overflow() {
        let p = NetworkBackoff::ExponentialRetries {
            base: 8,
            cap: u64::MAX,
        };
        // 8^64 overflows u64; must saturate, not panic.
        assert_eq!(p.delay(info(0, 0, 64, 0)), u64::MAX);
    }

    #[test]
    fn queue_feedback_scales() {
        let p = NetworkBackoff::QueueFeedback { factor: 3 };
        assert_eq!(p.delay(info(0, 0, 0, 0)), 0);
        assert_eq!(p.delay(info(0, 0, 0, 7)), 21);
    }

    #[test]
    fn labels_are_distinct() {
        let policies = [
            NetworkBackoff::None,
            NetworkBackoff::DepthProportional { factor: 1 },
            NetworkBackoff::InverseDepth { factor: 1 },
            NetworkBackoff::ConstantRtt { rtt: 1 },
            NetworkBackoff::ExponentialRetries { base: 2, cap: 9 },
            NetworkBackoff::QueueFeedback { factor: 1 },
        ];
        let mut labels: Vec<String> = policies.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), policies.len());
    }
}
