//! The memoised inner product: it agrees with the dense array on random
//! Clifford+T circuits, and it stays linear in the diagram size on
//! product states, where a walk over every path takes `2^n` steps.

use std::time::{Duration, Instant};

use qdt_array::StateVector;
use qdt_circuit::{generators, Circuit, PauliString};
use qdt_dd::DdPackage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn inner_product_matches_the_array_on_random_clifford_t() {
    let mut rng = StdRng::seed_from_u64(0x1dd);
    for case in 0..32 {
        let n = rng.gen_range(1..=6usize);
        let depth = rng.gen_range(1..=12usize);
        let a = generators::random_clifford_t(n, depth, 0.3, &mut rng);
        let b = generators::random_clifford_t(n, depth, 0.3, &mut rng);
        let (sa, sb) = (
            StateVector::from_circuit(&a).unwrap(),
            StateVector::from_circuit(&b).unwrap(),
        );
        let mut dd = DdPackage::new();
        let va = dd.run_circuit(&a).unwrap();
        let vb = dd.run_circuit(&b).unwrap();
        for (x, y, dx, dy) in [
            (&va, &vb, &sa, &sb),
            (&va, &va, &sa, &sa),
            (&vb, &va, &sb, &sa),
        ] {
            let got = dd.inner_product(x, y);
            let want = dx.inner_product(dy);
            assert!(
                got.approx_eq(want, 1e-9),
                "case {case} ({n} qubits): dd {got} vs array {want}"
            );
        }
    }
}

#[test]
fn qft_40_zz_expectation_is_zero_and_linear_time() {
    // QFT of a basis state is a product state: `n` nodes but `2^n` paths.
    let n = 40;
    let x: u64 = 0x5_a3c9_6e17;
    let mut qc = Circuit::new(n);
    for q in 0..n {
        if x >> q & 1 == 1 {
            qc.x(q);
        }
    }
    qc.append(&generators::qft(n, true));
    let mut dd = DdPackage::new();
    let v = dd.run_circuit(&qc).unwrap();
    let zz: PauliString = ("ZZ".to_string() + &"I".repeat(n - 2)).parse().unwrap();
    let start = Instant::now();
    let e = dd.expectation_pauli(&v, &zz);
    let took = start.elapsed();
    assert!(e.abs() < 1e-12, "<Z0 Z1> = {e}");
    assert!(
        took < Duration::from_secs(1),
        "expectation took {took:?} on a {n}-node product state"
    );
}
