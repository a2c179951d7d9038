//! Omega multistage interconnection network topology.
//!
//! An Omega network connecting `N = 2^k` processors to `N` memory modules
//! consists of `k` stages of 2×2 switches joined by perfect-shuffle wiring.
//! It is the canonical MIN of the machines the paper targets (RP3,
//! Ultracomputer, Cedar). Routing is destination-tag: at stage `s` a message
//! exits through the switch port selected by bit `k−1−s` of its destination.
//!
//! For circuit switching the only resource that matters is the set of
//! *output ports* a circuit occupies, one per stage; two circuits conflict at
//! the first stage where they occupy the same port. [`OmegaTopology::port`]
//! gives a route's stage-`s` port in closed form, so the simulators walk a
//! route stage by stage without building it; [`OmegaTopology::path`] is the
//! shuffle-exchange reference it is tested against.

/// The wiring of an Omega network with `2^k` inputs.
///
/// # Examples
///
/// ```
/// use abs_net::omega::OmegaTopology;
/// let net = OmegaTopology::new(3); // 8x8, 3 stages
/// assert_eq!(net.size(), 8);
/// assert_eq!(net.stages(), 3);
/// let p = net.path(3, 5);
/// assert_eq!(p.len(), 3);
/// assert_eq!(*p.last().unwrap(), 5); // last port == destination
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OmegaTopology {
    log2_size: u32,
}

impl OmegaTopology {
    /// Creates an `2^log2_size × 2^log2_size` Omega network.
    ///
    /// # Panics
    ///
    /// Panics if `log2_size` is 0 or greater than 20 (a million-port network
    /// is outside any sensible simulation).
    pub fn new(log2_size: u32) -> Self {
        assert!(
            (1..=20).contains(&log2_size),
            "log2_size must be in 1..=20"
        );
        Self { log2_size }
    }

    /// Number of processor (and memory) ports, `2^k`.
    pub fn size(&self) -> usize {
        1usize << self.log2_size
    }

    /// Number of switch stages, `k`.
    pub fn stages(&self) -> usize {
        self.log2_size as usize
    }

    /// Rotates the low `k` bits of `x` left by one (the perfect shuffle).
    fn shuffle(&self, x: usize) -> usize {
        let k = self.log2_size;
        let mask = (1usize << k) - 1;
        ((x << 1) | (x >> (k - 1))) & mask
    }

    /// The sequence of switch output ports a message from `src` to `dst`
    /// occupies, one entry per stage. The final entry equals `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn path(&self, src: usize, dst: usize) -> Vec<usize> {
        let n = self.size();
        assert!(src < n, "src {src} out of range for size {n}");
        assert!(dst < n, "dst {dst} out of range for size {n}");
        let k = self.stages();
        let mut pos = src;
        let mut ports = Vec::with_capacity(k);
        for s in 0..k {
            pos = self.shuffle(pos);
            // Destination-tag routing: take bit (k-1-s) of dst as the new
            // low bit (the switch output select).
            let bit = (dst >> (k - 1 - s)) & 1;
            pos = (pos & !1) | bit;
            ports.push(pos);
        }
        debug_assert_eq!(pos, dst);
        ports
    }

    /// The output port a message from `src` to `dst` occupies at stage
    /// `s`: `path(src, dst)[s]` without building the path.
    ///
    /// Each stage shifts one bit of `src` out at the top and routes the next
    /// bit of `dst` in at the bottom, so after `s + 1` stages the position
    /// is the `k`-bit window of the concatenation `src·dst` that ends at
    /// bit `k − 1 − s` of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn port(&self, src: usize, dst: usize, s: usize) -> usize {
        let n = self.size();
        assert!(src < n, "src {src} out of range for size {n}");
        assert!(dst < n, "dst {dst} out of range for size {n}");
        let k = self.stages();
        debug_assert!(s < k, "stage {s} out of range for {k} stages");
        ((src << (s + 1)) | (dst >> (k - 1 - s))) & (n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_end_at_destination() {
        let net = OmegaTopology::new(4);
        for src in 0..net.size() {
            for dst in 0..net.size() {
                let p = net.path(src, dst);
                assert_eq!(p.len(), 4);
                assert_eq!(*p.last().unwrap(), dst, "src {src} dst {dst}");
            }
        }
    }

    #[test]
    fn identity_route_through_unit_stages() {
        let net = OmegaTopology::new(2);
        // 4x4 network: path(0,0) shuffles 0 -> 0, routes bit 0 each time.
        assert_eq!(net.path(0, 0), vec![0, 0]);
        assert_eq!(net.path(0, 3), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn port_rejects_bad_dst() {
        OmegaTopology::new(2).port(0, 4, 0);
    }

    #[test]
    fn shuffle_is_rotation() {
        let net = OmegaTopology::new(3);
        assert_eq!(net.shuffle(0b100), 0b001);
        assert_eq!(net.shuffle(0b011), 0b110);
        assert_eq!(net.shuffle(0b111), 0b111);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn path_rejects_bad_src() {
        OmegaTopology::new(2).path(4, 0);
    }

    #[test]
    #[should_panic(expected = "log2_size")]
    fn rejects_zero_stages() {
        OmegaTopology::new(0);
    }
}
