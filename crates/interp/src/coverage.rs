//! AFL-style edge coverage instrumentation.
//!
//! Reproduces the mechanism behind the paper's AFL++ integration
//! (Sec. 5.1 *coverage-guided fuzzing*): the interpreter reports location
//! identifiers as it executes; consecutive locations are combined into
//! *edges* that index a fixed-size byte map with saturating hit counters
//! bucketed like AFL's. A fuzzer keeps an input if it touches a
//! `(edge, bucket)` pair never seen before.

/// Size of the coverage map (64 KiB, as in AFL).
pub const MAP_SIZE: usize = 1 << 16;

/// Counters tested for "all zero" at once when a scan looks for touched
/// edges. An execution touches a few dozen of the 65 536 counters, so a
/// scan is all skipping: one vectorized OR-reduction per block instead
/// of a branch per byte (whose speed swung by 25 % with code placement).
const SCAN_BLOCK: usize = 64;

/// A coverage map for one execution.
#[derive(Clone)]
pub struct CoverageMap {
    map: Vec<u8>,
    prev_loc: u64,
}

impl Default for CoverageMap {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        CoverageMap {
            map: vec![0u8; MAP_SIZE],
            prev_loc: 0,
        }
    }

    /// Records execution of the location `loc` (a stable hash of a program
    /// point). Combines with the previously executed location into an edge.
    pub fn record(&mut self, loc: u64) {
        let cur = mix(loc);
        let idx = ((cur ^ self.prev_loc) & (MAP_SIZE as u64 - 1)) as usize;
        self.map[idx] = self.map[idx].saturating_add(1);
        self.prev_loc = cur >> 1;
    }

    /// Resets the previous-location register (call between independent
    /// executions that share a map).
    pub fn reset_edge_state(&mut self) {
        self.prev_loc = 0;
    }

    /// Clears all counters.
    pub fn clear(&mut self) {
        self.map.fill(0);
        self.prev_loc = 0;
    }

    /// Number of distinct edges hit.
    pub fn edges_hit(&self) -> usize {
        self.hits().count()
    }

    /// The raw per-edge hit counters (saturating `u8`, indexed by edge
    /// id). Coverage consumers — corpus schedulers weighting rare edges,
    /// per-edge reporting — read counts from here instead of keeping a
    /// side channel next to the map.
    pub fn hit_counts(&self) -> &[u8] {
        &self.map
    }

    /// Iterates the `(edge id, hit count)` pairs of every edge this
    /// execution touched, in edge-id order.
    pub fn hits(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.map
            .chunks_exact(SCAN_BLOCK)
            .enumerate()
            .filter(|(_, block)| block.iter().fold(0, |acc, &c| acc | c) != 0)
            .flat_map(|(b, block)| {
                block
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(move |(i, &c)| (b * SCAN_BLOCK + i, c))
            })
    }

    /// AFL-style bucketing of a raw hit count into a power-of-two class.
    fn bucket(count: u8) -> u8 {
        match count {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 4,
            4..=7 => 8,
            8..=15 => 16,
            16..=31 => 32,
            32..=127 => 64,
            _ => 128,
        }
    }

    /// Merges this execution's coverage into a global `virgin` map.
    /// Returns `true` if any new `(edge, bucket)` was discovered — the
    /// "interesting input" signal for the fuzzer queue.
    pub fn merge_into(&self, virgin: &mut [u8; MAP_SIZE]) -> bool {
        let mut new_coverage = false;
        for (i, c) in self.hits() {
            let b = Self::bucket(c);
            if virgin[i] & b == 0 {
                virgin[i] |= b;
                new_coverage = true;
            }
        }
        new_coverage
    }
}

/// SplitMix64 finalizer — cheap, well-distributed location mixing.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Stable location id from structural coordinates (state index, node path
/// hash, discriminator). Used by the interpreter to name program points.
pub fn location_id(parts: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for &p in parts {
        h ^= p;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_marks_edges() {
        let mut c = CoverageMap::new();
        assert_eq!(c.edges_hit(), 0);
        c.record(1);
        c.record(2);
        assert!(c.edges_hit() >= 1);
    }

    #[test]
    fn different_paths_different_edges() {
        let mut a = CoverageMap::new();
        a.record(1);
        a.record(2);
        let mut b = CoverageMap::new();
        b.record(2);
        b.record(1);
        // Order matters for edge coverage.
        assert_ne!(a.map, b.map);
    }

    #[test]
    fn merge_reports_new_coverage_once() {
        let mut virgin = [0u8; MAP_SIZE];
        let mut c = CoverageMap::new();
        c.record(7);
        c.record(8);
        assert!(c.merge_into(&mut virgin));
        assert!(!c.merge_into(&mut virgin)); // same coverage: nothing new
    }

    #[test]
    fn bucket_changes_count_as_new() {
        let mut virgin = [0u8; MAP_SIZE];
        let mut c = CoverageMap::new();
        c.record(7);
        c.record(8);
        c.merge_into(&mut virgin);
        // Hitting the same edge many more times moves it to a new bucket.
        let mut c2 = CoverageMap::new();
        for _ in 0..20 {
            c2.reset_edge_state();
            c2.record(7);
            c2.record(8);
        }
        assert!(c2.merge_into(&mut virgin));
    }

    #[test]
    fn hits_are_in_edge_order_across_scan_blocks() {
        let mut c = CoverageMap::new();
        let touched = [0, SCAN_BLOCK - 1, SCAN_BLOCK, 1000, 1001, MAP_SIZE - 1];
        for (n, &i) in touched.iter().enumerate() {
            c.map[i] = n as u8 + 1;
        }
        let want: Vec<_> = touched.iter().zip(1u8..).map(|(&i, n)| (i, n)).collect();
        assert_eq!(c.hits().collect::<Vec<_>>(), want);
        assert_eq!(c.edges_hit(), touched.len());
    }

    #[test]
    fn clear_resets() {
        let mut c = CoverageMap::new();
        c.record(3);
        c.clear();
        assert_eq!(c.edges_hit(), 0);
    }

    #[test]
    fn location_id_stable_and_distinct() {
        assert_eq!(location_id(&[1, 2, 3]), location_id(&[1, 2, 3]));
        assert_ne!(location_id(&[1, 2, 3]), location_id(&[3, 2, 1]));
    }
}
