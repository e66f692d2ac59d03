//! `dd`: spec `dd` on circuits where the decision-diagram package does
//! the work. Each job builds the diagram, reads single amplitudes,
//! draws 4096 samples and evaluates one Pauli expectation; every
//! readout is checked against a reference computed at set-up.

use std::collections::BTreeMap;
use std::f64::consts::TAU;

use qdt::circuit::{generators, Circuit, Pauli, PauliString};
use qdt::complex::Complex;
use qdt::engine::run;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Trace;
use crate::{balanced_grover, fixed_structure, on_basis_state, Class, POOL};

/// Samples drawn per job.
const SHOTS: usize = 4096;
/// Single amplitudes read per job.
const PROBES: usize = 8;
/// Largest accepted distance of a single amplitude or expectation from
/// its reference.
const TOLERANCE: f64 = 1e-9;

/// The reference distribution a job's samples are checked against.
enum Distribution {
    /// Explicit outcome probabilities.
    Dense(Vec<f64>),
    /// Every one of `2^n` outcomes equally likely.
    Uniform(usize),
}

impl Distribution {
    fn probability(&self, outcome: u128) -> f64 {
        match self {
            Distribution::Dense(p) => usize::try_from(outcome)
                .ok()
                .and_then(|i| p.get(i))
                .copied()
                .unwrap_or(0.0),
            Distribution::Uniform(n) if outcome >> n == 0 => (-(*n as f64)).exp2(),
            Distribution::Uniform(_) => 0.0,
        }
    }

    /// The most likely outcome (the first of the ties).
    fn mode(&self) -> u128 {
        match self {
            Distribution::Dense(p) => {
                let mut best = 0;
                for (i, &x) in p.iter().enumerate() {
                    if x > p[best] {
                        best = i;
                    }
                }
                best as u128
            }
            Distribution::Uniform(_) => 0,
        }
    }
}

struct Input {
    circuit: Circuit,
    probes: Vec<(u128, Complex)>,
    pauli: PauliString,
    expectation: f64,
    distribution: Distribution,
    sample_seed: u64,
}

struct DdClass {
    name: &'static str,
    inputs: Vec<Input>,
}

/// What a job read out, checked after the timed calls.
struct Readout {
    amplitudes: Vec<Complex>,
    samples: BTreeMap<u128, usize>,
    expectation: f64,
}

/// A seed-chosen Pauli string on two or three qubits.
fn random_pauli(n: usize, rng: &mut StdRng) -> PauliString {
    let mut ops = vec![Pauli::I; n];
    for _ in 0..rng.gen_range(2..4usize) {
        ops[rng.gen_range(0..n)] = [Pauli::X, Pauli::Y, Pauli::Z][rng.gen_range(0..3usize)];
    }
    PauliString::new(ops)
}

/// An input whose references come from a plain-`array` simulation.
fn array_referenced(circuit: Circuit, rng: &mut StdRng) -> Result<Input, String> {
    let n = circuit.num_qubits();
    let mut engine = qdt::create_engine("array").map_err(|e| e.to_string())?;
    run(engine.as_mut(), &circuit).map_err(|e| e.to_string())?;
    let amps = engine.amplitudes().map_err(|e| e.to_string())?;
    let pauli = random_pauli(n, rng);
    let expectation = qdt::engine::dense_expectation(&amps, &pauli);
    let distribution = Distribution::Dense(amps.iter().map(|a| a.norm_sqr()).collect());
    let mut probes = vec![distribution.mode()];
    while probes.len() < PROBES {
        probes.push(u128::from(rng.gen_range(0..1u64 << n)));
    }
    let probes = probes
        .into_iter()
        .map(|b| (b, amps[usize::try_from(b).expect("dense index")]))
        .collect();
    Ok(Input {
        circuit,
        probes,
        pauli,
        expectation,
        distribution,
        sample_seed: rng.gen(),
    })
}

/// QFT on the basis state `|x⟩`, referenced analytically: the output is
/// `Σ_y e^{2πi·xy/2^n} |y⟩ / √2^n`, a product state with `⟨Z₀Z₁⟩ = 0`.
fn basis_qft(n: usize, rng: &mut StdRng) -> Input {
    let x = u128::from(rng.gen_range(0..1u64 << n));
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        if x >> q & 1 == 1 {
            circuit.x(q);
        }
    }
    circuit.append(&generators::qft(n, true));
    let scale = (-(n as f64) / 2.0).exp2();
    let probes = (0..PROBES)
        .map(|_| {
            let y = u128::from(rng.gen_range(0..1u64 << n));
            let phase = TAU * ((x * y) & ((1u128 << n) - 1)) as f64 / (n as f64).exp2();
            (y, Complex::from_polar(scale, phase))
        })
        .collect();
    let mut ops = vec![Pauli::I; n];
    ops[0] = Pauli::Z;
    ops[1] = Pauli::Z;
    Input {
        circuit,
        probes,
        pauli: PauliString::new(ops),
        expectation: 0.0,
        distribution: Distribution::Uniform(n),
        sample_seed: rng.gen(),
    }
}

/// The five `dd` classes, `POOL` seeded inputs each.
pub(crate) fn classes(rng: &mut StdRng) -> Result<Vec<Box<dyn Class>>, String> {
    let mut out: Vec<Box<dyn Class>> = Vec::new();
    let mut add = |name: &'static str, inputs: Vec<Input>| {
        out.push(Box::new(DdClass { name, inputs }));
    };
    let mut pool = |make: &mut dyn FnMut(usize, &mut StdRng) -> Result<Input, String>| {
        (0..POOL)
            .map(|slot| make(slot, rng))
            .collect::<Result<Vec<_>, _>>()
    };
    add(
        "grover-12",
        pool(&mut |_, rng| array_referenced(balanced_grover(12, rng), rng))?,
    );
    add(
        "qpe-13",
        pool(&mut |_, rng| {
            // Half-way between two 12-bit grid phases: the readout
            // spreads over many outcomes, the same for every seed.
            let theta = (f64::from(rng.gen_range(0..1u32 << 12)) + 0.5) / 4096.0;
            array_referenced(generators::phase_estimation(12, theta), rng)
        })?,
    );
    add(
        "random-8x8",
        pool(&mut |slot, rng| {
            let circuit = fixed_structure(slot, |r| generators::random_circuit(8, 8, r));
            array_referenced(on_basis_state(&circuit, rng), rng)
        })?,
    );
    add(
        "clifford-t-12x14",
        pool(&mut |slot, rng| {
            let circuit = fixed_structure(slot, |r| generators::random_clifford_t(12, 14, 0.2, r));
            array_referenced(on_basis_state(&circuit, rng), rng)
        })?,
    );
    add("qft-21", pool(&mut |_, rng| Ok(basis_qft(21, rng)))?);
    Ok(out)
}

/// Whether `count` of `shots` draws is within six standard deviations
/// (plus two draws of slack) of probability `p`.
fn plausible(count: usize, shots: usize, p: f64) -> bool {
    let mean = shots as f64 * p;
    let sigma = (shots as f64 * p * (1.0 - p)).sqrt();
    (count as f64 - mean).abs() <= 6.0 * sigma + 2.0
}

impl DdClass {
    fn read(input: &Input, t: &mut Trace) -> Result<Readout, String> {
        let (mut engine, stats) = t.span("dd.run", || {
            let mut engine = qdt::create_engine("dd").map_err(|e| e.to_string())?;
            let stats = run(engine.as_mut(), &input.circuit).map_err(|e| e.to_string())?;
            Ok::<_, String>((engine, stats))
        })?;
        let peak_mb = stats.peak_memory_bytes as f64 / 1e6;
        t.max("dd.peak_nodes", stats.peak_metric as f64);
        t.max("dd.peak_mb", peak_mb);
        t.count("dd.peak_mb_sum", peak_mb);
        t.count("dd.kgates", stats.gates_applied as f64 / 1e3);
        let amplitudes = t.span("dd.amplitude", || {
            input
                .probes
                .iter()
                .map(|&(b, _)| engine.amplitude(b))
                .collect::<Result<Vec<_>, _>>()
        });
        let samples = t.span("dd.sample", || {
            engine.sample(SHOTS, &mut StdRng::seed_from_u64(input.sample_seed))
        });
        let expectation = t.span("dd.expectation", || engine.expectation(&input.pauli));
        Ok(Readout {
            amplitudes: amplitudes.map_err(|e| e.to_string())?,
            samples: samples.map_err(|e| e.to_string())?,
            expectation: expectation.map_err(|e| e.to_string())?,
        })
    }
}

/// `distance <= TOLERANCE`, false for NaN.
fn within_tolerance(distance: f64) -> bool {
    distance <= TOLERANCE
}

fn check(input: &Input, out: &Readout) -> Result<(), String> {
    for (&(basis, want), got) in input.probes.iter().zip(&out.amplitudes) {
        if !within_tolerance((*got - want).abs()) {
            return Err(format!("amplitude {basis}: {got} against reference {want}"));
        }
    }
    if !within_tolerance((out.expectation - input.expectation).abs()) {
        return Err(format!(
            "<{}> = {} against reference {}",
            input.pauli, out.expectation, input.expectation
        ));
    }
    let total: usize = out.samples.values().sum();
    if total != SHOTS {
        return Err(format!("{total} samples, expected {SHOTS}"));
    }
    if let Some(outcome) = out
        .samples
        .keys()
        .find(|&&k| input.distribution.probability(k) <= 1e-12)
    {
        return Err(format!(
            "sampled outcome {outcome} has no reference probability"
        ));
    }
    let mode = input.distribution.mode();
    let hits = out.samples.get(&mode).copied().unwrap_or(0);
    let p = input.distribution.probability(mode);
    if !plausible(hits, SHOTS, p) {
        return Err(format!(
            "outcome {mode} drawn {hits} times at probability {p:.6}"
        ));
    }
    Ok(())
}

impl Class for DdClass {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, input: usize, t: &mut Trace) -> Result<(), String> {
        let input = &self.inputs[input];
        let out = DdClass::read(input, t)?;
        t.span("bench.check", || check(input, &out))
    }
}
