//! Tolerance-canonicalising interner for complex values.
//!
//! Decision diagrams (Section III of the reproduced paper) merge isomorphic
//! sub-diagrams by hashing nodes, and two nodes only hash equally if their
//! edge weights are *bitwise identical*. Floating-point round-off would
//! destroy this sharing: `1/√2 · 1/√2 · 2` and `1.0` differ in their last
//! bits. The classic fix (reference \[29\] of the paper) is a lookup table
//! that maps every weight to a canonical representative within a small
//! tolerance; this module implements that table.

use std::collections::hash_map::Entry;

use crate::fasthash::FastMap;
use crate::{Complex, TOLERANCE};

/// A canonicalising store of complex numbers.
///
/// [`ComplexTable::canonicalize`] returns, for any input value, a canonical
/// [`Complex`] such that all inputs within the table's tolerance of each
/// other map to the *same bit pattern*. The first value seen in a
/// neighbourhood becomes its representative.
///
/// Lookups take two steps. An exact index from bit pattern to slot
/// answers a value the table already stores with one probe; anything
/// else falls through to the 3×3 neighbourhood scan of the value's grid
/// cell. The index never changes an answer: no two stored values within
/// `tol` of each other lie in neighbouring cells (the later one's scan
/// would have found the earlier one), so the scan for a stored value
/// meets exactly one match, the value itself.
///
/// The table is seeded with the exact values `0`, `1`, `-1`, `±i` and
/// `±1/√2` (and the corresponding imaginary variants), which dominate the
/// edge weights of Clifford-circuit decision diagrams.
///
/// # Example
///
/// ```
/// use qdt_complex::{Complex, ComplexTable};
///
/// let mut table = ComplexTable::new();
/// let a = table.canonicalize(Complex::new(0.70710678118654746, 0.0));
/// let b = table.canonicalize(Complex::new(0.70710678118654757, 0.0));
/// assert_eq!(a.to_bits(), b.to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct ComplexTable {
    tol: f64,
    /// Grid cell → index of the first value stored in it. Most cells
    /// hold one value, so a cell's values form a chain through `next`
    /// rather than a vector of their own.
    buckets: FastMap<(i64, i64), u32>,
    /// `next[i]` is the value stored after `i` in the same cell, or
    /// [`END`]; chains run in insertion order.
    next: Vec<u32>,
    /// Bit pattern of every stored finite value → its index in `values`.
    /// Non-finite values stay out: `∞ − ∞` is NaN, so the scan never
    /// matches them, not even to themselves.
    exact: FastMap<(u64, u64), u32>,
    values: Vec<Complex>,
    lookups: u64,
    hits: u64,
}

/// Ends a cell's chain in [`ComplexTable::next`].
const END: u32 = u32::MAX;

impl ComplexTable {
    /// Creates a table with the default [`TOLERANCE`](crate::TOLERANCE).
    pub fn new() -> Self {
        Self::with_tolerance(TOLERANCE)
    }

    /// Creates a table with an explicit tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not finite and positive.
    pub fn with_tolerance(tol: f64) -> Self {
        assert!(tol.is_finite() && tol > 0.0, "tolerance must be positive");
        let mut table = ComplexTable {
            tol,
            buckets: FastMap::default(),
            next: Vec::new(),
            exact: FastMap::default(),
            values: Vec::new(),
            lookups: 0,
            hits: 0,
        };
        let s = crate::FRAC_1_SQRT_2;
        for v in [
            Complex::ZERO,
            Complex::ONE,
            -Complex::ONE,
            Complex::I,
            -Complex::I,
            Complex::new(s, 0.0),
            Complex::new(-s, 0.0),
            Complex::new(0.0, s),
            Complex::new(0.0, -s),
            Complex::new(0.5, 0.0),
            Complex::new(-0.5, 0.0),
        ] {
            table.canonicalize(v);
        }
        table
    }

    /// The tolerance within which values are merged.
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// Number of distinct canonical values stored so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no values are stored (never the case after
    /// construction, which seeds common constants).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total [`canonicalize`](ComplexTable::canonicalize) calls,
    /// including the constructor's seeding pass.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// How many lookups returned a previously stored representative
    /// (rather than inserting the probed value).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Approximate resident bytes: the stored values plus the exact
    /// index (entry counts times entry sizes, ignoring bucket overhead).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.values.len() * size_of::<Complex>() + self.exact.len() * size_of::<((u64, u64), u32)>()
    }

    fn cell(&self, c: Complex) -> (i64, i64) {
        // Bucket side is 2·tol so a value and anything within tol of it land
        // in the same or an adjacent cell. The float→int cast saturates for
        // extreme value/tolerance ratios; the neighbourhood lookup uses
        // wrapping arithmetic so saturated cells stay well-defined (the
        // per-entry `approx_eq` check keeps correctness regardless).
        let side = self.tol * 2.0;
        ((c.re / side).floor() as i64, (c.im / side).floor() as i64)
    }

    /// Returns the canonical representative for `value`.
    ///
    /// If a previously stored value lies within the tolerance (per
    /// component), that value is returned bit-exactly; otherwise `value`
    /// itself is stored and returned.
    ///
    /// # Panics
    ///
    /// Panics if `value` contains NaN.
    pub fn canonicalize(&mut self, value: Complex) -> Complex {
        assert!(!value.is_nan(), "cannot canonicalize NaN");
        self.lookups += 1;
        if let Some(&idx) = self.exact.get(&value.to_bits()) {
            self.hits += 1;
            return self.values[idx as usize];
        }
        let (cx, cy) = self.cell(value);
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                let cell = (cx.wrapping_add(dx), cy.wrapping_add(dy));
                let mut idx = self.buckets.get(&cell).copied().unwrap_or(END);
                while idx != END {
                    let stored = self.values[idx as usize];
                    if stored.approx_eq(value, self.tol) {
                        self.hits += 1;
                        return stored;
                    }
                    idx = self.next[idx as usize];
                }
            }
        }
        let idx = self.values.len() as u32;
        self.values.push(value);
        self.next.push(END);
        match self.buckets.entry((cx, cy)) {
            Entry::Vacant(e) => {
                e.insert(idx);
            }
            Entry::Occupied(e) => {
                let mut tail = *e.get();
                while self.next[tail as usize] != END {
                    tail = self.next[tail as usize];
                }
                self.next[tail as usize] = idx;
            }
        }
        if value.re.is_finite() && value.im.is_finite() {
            self.exact.insert(value.to_bits(), idx);
        }
        value
    }
}

impl Default for ComplexTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_constants_are_preseeded() {
        let mut t = ComplexTable::new();
        let before = t.len();
        t.canonicalize(Complex::ONE);
        t.canonicalize(Complex::ZERO);
        t.canonicalize(Complex::new(crate::FRAC_1_SQRT_2, 0.0));
        assert_eq!(t.len(), before, "seeded values must not be re-inserted");
    }

    #[test]
    fn nearby_values_merge() {
        let mut t = ComplexTable::new();
        let a = t.canonicalize(Complex::new(0.25, 0.125));
        let b = t.canonicalize(Complex::new(0.25 + 1e-13, 0.125 - 1e-13));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn distant_values_stay_distinct() {
        let mut t = ComplexTable::new();
        let a = t.canonicalize(Complex::new(0.25, 0.0));
        let b = t.canonicalize(Complex::new(0.25 + 1e-6, 0.0));
        assert_ne!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn cell_boundary_values_merge() {
        // Two values straddling a bucket boundary but within tolerance of
        // each other must still merge (the 3×3 neighbourhood search).
        let mut t = ComplexTable::with_tolerance(1e-12);
        let side = 2e-12;
        let x = 1000.0 * side; // exactly on a cell boundary
        let a = t.canonicalize(Complex::new(x - 4e-13, 0.0));
        let b = t.canonicalize(Complex::new(x + 4e-13, 0.0));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn first_value_wins_as_representative() {
        let mut t = ComplexTable::new();
        let first = Complex::new(0.123456, 0.0);
        t.canonicalize(first);
        let got = t.canonicalize(Complex::new(0.123456 + 5e-13, 0.0));
        assert_eq!(got.to_bits(), first.to_bits());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut t = ComplexTable::new();
        t.canonicalize(Complex::new(f64::NAN, 0.0));
    }

    #[test]
    fn negative_values_merge_too() {
        let mut t = ComplexTable::new();
        let a = t.canonicalize(Complex::new(-0.75, -0.5));
        let b = t.canonicalize(Complex::new(-0.75 - 1e-13, -0.5 + 1e-13));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn lookup_and_hit_counters_track_sharing() {
        let mut t = ComplexTable::new();
        let (l0, h0) = (t.lookups(), t.hits());
        t.canonicalize(Complex::ONE); // seeded → hit
        t.canonicalize(Complex::new(42.0, 0.0)); // new → miss
        t.canonicalize(Complex::new(42.0, 0.0)); // now stored → hit
        assert_eq!(t.lookups(), l0 + 3);
        assert_eq!(t.hits(), h0 + 2);
    }

    #[test]
    fn stored_values_hit_the_exact_index() {
        let mut t = ComplexTable::new();
        let v = t.canonicalize(Complex::new(0.3, -0.4));
        let (l0, h0, n0) = (t.lookups(), t.hits(), t.len());
        assert_eq!(t.canonicalize(v).to_bits(), v.to_bits());
        assert_eq!((t.lookups(), t.hits(), t.len()), (l0 + 1, h0 + 1, n0));
    }

    #[test]
    fn infinities_stay_out_of_the_index() {
        // `∞ − ∞` is NaN, so the scan never matches an infinite value and
        // each lookup stores it again; the index must not change that.
        let mut t = ComplexTable::new();
        let inf = Complex::new(f64::INFINITY, 0.0);
        t.canonicalize(inf);
        let (h0, n0) = (t.hits(), t.len());
        t.canonicalize(inf);
        assert_eq!((t.hits(), t.len()), (h0, n0 + 1));
    }

    #[test]
    fn memory_counts_values_and_index() {
        let t = ComplexTable::new();
        assert_eq!(
            t.memory_bytes(),
            t.len() * (std::mem::size_of::<Complex>() + std::mem::size_of::<((u64, u64), u32)>())
        );
    }

    #[test]
    fn len_grows_with_distinct_values() {
        let mut t = ComplexTable::new();
        let before = t.len();
        for k in 0..100 {
            t.canonicalize(Complex::new(10.0 + k as f64, 0.0));
        }
        assert_eq!(t.len(), before + 100);
        assert!(!t.is_empty());
    }
}

/// The table as it was before the exact index: every lookup scans the
/// 3×3 neighbourhood of the value's grid cell. Kept as the reference the
/// one-probe fast path is checked against.
#[cfg(test)]
mod reference {
    use super::*;
    use proptest::prelude::*;

    struct ScanTable {
        tol: f64,
        buckets: FastMap<(i64, i64), Vec<u32>>,
        values: Vec<Complex>,
        lookups: u64,
        hits: u64,
    }

    impl ScanTable {
        fn with_tolerance(tol: f64) -> Self {
            let mut table = ScanTable {
                tol,
                buckets: FastMap::default(),
                values: Vec::new(),
                lookups: 0,
                hits: 0,
            };
            let s = crate::FRAC_1_SQRT_2;
            for v in [
                Complex::ZERO,
                Complex::ONE,
                -Complex::ONE,
                Complex::I,
                -Complex::I,
                Complex::new(s, 0.0),
                Complex::new(-s, 0.0),
                Complex::new(0.0, s),
                Complex::new(0.0, -s),
                Complex::new(0.5, 0.0),
                Complex::new(-0.5, 0.0),
            ] {
                table.canonicalize(v);
            }
            table
        }

        fn cell(&self, c: Complex) -> (i64, i64) {
            let side = self.tol * 2.0;
            ((c.re / side).floor() as i64, (c.im / side).floor() as i64)
        }

        fn canonicalize(&mut self, value: Complex) -> Complex {
            assert!(!value.is_nan(), "cannot canonicalize NaN");
            self.lookups += 1;
            let (cx, cy) = self.cell(value);
            for dx in -1i64..=1 {
                for dy in -1i64..=1 {
                    if let Some(bucket) = self
                        .buckets
                        .get(&(cx.wrapping_add(dx), cy.wrapping_add(dy)))
                    {
                        for &idx in bucket {
                            let stored = self.values[idx as usize];
                            if stored.approx_eq(value, self.tol) {
                                self.hits += 1;
                                return stored;
                            }
                        }
                    }
                }
            }
            let idx = self.values.len() as u32;
            self.values.push(value);
            self.buckets.entry((cx, cy)).or_default().push(idx);
            value
        }
    }

    /// Values that recur in DD weights and sit on or near seeded entries,
    /// plus one so large that the cell quotient rounds coarsely.
    const CENTRES: [(f64, f64); 7] = [
        (0.3, 0.0),
        (crate::FRAC_1_SQRT_2, 0.0),
        (0.5, -0.5),
        (-0.25, 0.75),
        (0.0, 1.0),
        (1e-9, -1e-9),
        (6.0e14, -1.5e15),
    ];

    /// Decodes one stream step into a probe value. `history` holds the
    /// representatives returned so far, so exact re-feeds and
    /// perturbations of stored values are common.
    fn probe(step: (u8, usize, f64, f64), tol: f64, history: &[Complex]) -> Complex {
        let (kind, pick, u, v) = step;
        let side = 2.0 * tol;
        match kind {
            // A fresh value within ±1.5·tol of a centre.
            0 => {
                let (re, im) = CENTRES[pick % CENTRES.len()];
                Complex::new(re + u * tol, im + v * tol)
            }
            // A stored representative, fed back bit-exactly.
            1 => history[pick % history.len()],
            // A stored representative moved by up to ±1.5·tol.
            2 => {
                let h = history[pick % history.len()];
                Complex::new(h.re + u * tol, h.im + v * tol)
            }
            // On a cell boundary, or a fraction of tol to either side.
            3 => {
                let k = (pick % 9) as f64 - 4.0;
                let off = [0.0, 0.5 * tol, -0.5 * tol, f64::EPSILON][pick % 4];
                Complex::new(k * side + off, (u * 4.0).round() * side + v * 1e-3 * tol)
            }
            // Zeros of both signs and infinities.
            _ => [
                Complex::new(-0.0, 0.0),
                Complex::new(0.0, -0.0),
                Complex::new(f64::INFINITY, 0.0),
                Complex::new(0.0, f64::NEG_INFINITY),
            ][pick % 4],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn fast_path_matches_the_scan(
            tol_pick in 0usize..3,
            steps in proptest::collection::vec(
                (0u8..5, 0usize..1000, -1.5f64..1.5, -1.5f64..1.5),
                1..400,
            ),
        ) {
            let tol = [crate::TOLERANCE, 1e-6, 0.125][tol_pick];
            let mut fast = ComplexTable::with_tolerance(tol);
            let mut scan = ScanTable::with_tolerance(tol);
            let mut history = vec![Complex::ONE];
            for step in steps {
                let value = probe(step, tol, &history);
                let got = fast.canonicalize(value);
                let want = scan.canonicalize(value);
                prop_assert_eq!(got.to_bits(), want.to_bits());
                prop_assert_eq!(fast.lookups(), scan.lookups);
                prop_assert_eq!(fast.hits(), scan.hits);
                prop_assert_eq!(fast.len(), scan.values.len());
                history.push(got);
            }
        }
    }
}
