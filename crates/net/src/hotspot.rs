//! Hot-spot traffic generation (Pfister–Norton).
//!
//! The paper's motivation rests on the observation that "only a small
//! percentage of all data accesses to the same 'hot' module can cause tree
//! saturation in the interconnection network". [`HotspotTraffic`] implements
//! the standard hot-spot workload: each processor issues requests at a given
//! rate; a fraction `h` of them target one designated hot module and the
//! remainder are spread uniformly.

use abs_sim::rng::Xoshiro256PlusPlus;

/// A hot-spot request generator.
///
/// # Examples
///
/// ```
/// use abs_net::hotspot::HotspotTraffic;
/// use abs_sim::rng::Xoshiro256PlusPlus;
///
/// let traffic = HotspotTraffic::new(16, 0.25, 0)?;
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
/// let dst = traffic.destination(&mut rng);
/// assert!(dst < 16);
/// # Ok::<(), abs_net::hotspot::HotspotError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotTraffic {
    modules: usize,
    hot_fraction: f64,
    hot_module: usize,
}

/// Error constructing a [`HotspotTraffic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotspotError {
    /// The module count was zero.
    NoModules,
    /// The hot fraction was outside `[0, 1]`.
    BadFraction,
    /// The hot module index was out of range.
    HotModuleOutOfRange,
}

impl std::fmt::Display for HotspotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HotspotError::NoModules => write!(f, "module count must be positive"),
            HotspotError::BadFraction => write!(f, "hot fraction must lie in [0, 1]"),
            HotspotError::HotModuleOutOfRange => write!(f, "hot module index out of range"),
        }
    }
}

impl std::error::Error for HotspotError {}

impl HotspotTraffic {
    /// Creates a generator over `modules` memory modules where a fraction
    /// `hot_fraction` of requests hit `hot_module` and the rest are uniform
    /// over all modules.
    ///
    /// # Errors
    ///
    /// Returns an error when `modules == 0`, `hot_fraction ∉ [0,1]`, or
    /// `hot_module >= modules`.
    pub fn new(
        modules: usize,
        hot_fraction: f64,
        hot_module: usize,
    ) -> Result<Self, HotspotError> {
        if modules == 0 {
            return Err(HotspotError::NoModules);
        }
        if !(0.0..=1.0).contains(&hot_fraction) {
            return Err(HotspotError::BadFraction);
        }
        if hot_module >= modules {
            return Err(HotspotError::HotModuleOutOfRange);
        }
        Ok(Self {
            modules,
            hot_fraction,
            hot_module,
        })
    }

    /// Uniform traffic (no hot spot).
    ///
    /// # Panics
    ///
    /// Panics if `modules == 0`.
    #[expect(clippy::expect_used, reason = "new() fails only for modules == 0, documented as a panic above")]
    pub fn uniform(modules: usize) -> Self {
        Self::new(modules, 0.0, 0).expect("uniform traffic requires modules > 0")
    }

    /// Number of memory modules.
    pub fn modules(&self) -> usize {
        self.modules
    }

    /// The fraction of requests directed at the hot module *in addition to*
    /// its uniform share.
    pub fn hot_fraction(&self) -> f64 {
        self.hot_fraction
    }

    /// The hot module index.
    pub fn hot_module(&self) -> usize {
        self.hot_module
    }

    /// Draws a destination module for one request.
    pub fn destination(&self, rng: &mut Xoshiro256PlusPlus) -> usize {
        if self.hot_fraction > 0.0 && rng.next_bool(self.hot_fraction) {
            self.hot_module
        } else {
            rng.next_below_usize(self.modules)
        }
    }

    /// The expected fraction of all requests that land on the hot module:
    /// `h + (1 - h)/m`.
    pub fn expected_hot_share(&self) -> f64 {
        self.hot_fraction + (1.0 - self.hot_fraction) / self.modules as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validation() {
        assert_eq!(HotspotTraffic::new(0, 0.1, 0), Err(HotspotError::NoModules));
        assert_eq!(
            HotspotTraffic::new(4, 1.5, 0),
            Err(HotspotError::BadFraction)
        );
        assert_eq!(
            HotspotTraffic::new(4, -0.1, 0),
            Err(HotspotError::BadFraction)
        );
        assert_eq!(
            HotspotTraffic::new(4, 0.1, 4),
            Err(HotspotError::HotModuleOutOfRange)
        );
        assert!(HotspotTraffic::new(4, 0.1, 3).is_ok());
    }

    #[test]
    fn uniform_never_prefers_hot() {
        let t = HotspotTraffic::uniform(8);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[t.destination(&mut rng)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn hot_share_matches_expectation() {
        let t = HotspotTraffic::new(16, 0.2, 3).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let trials = 50_000;
        let hot = (0..trials)
            .filter(|_| t.destination(&mut rng) == 3)
            .count() as f64
            / trials as f64;
        let expected = t.expected_hot_share();
        assert!((hot - expected).abs() < 0.01, "hot {hot} expected {expected}");
    }

    #[test]
    fn error_display() {
        assert!(HotspotError::NoModules.to_string().contains("positive"));
        assert!(HotspotError::BadFraction.to_string().contains("[0, 1]"));
        assert!(HotspotError::HotModuleOutOfRange
            .to_string()
            .contains("out of range"));
    }

    #[test]
    fn destinations_in_range() {
        let t = HotspotTraffic::new(5, 0.5, 2).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(t.destination(&mut rng) < 5);
        }
    }
}
