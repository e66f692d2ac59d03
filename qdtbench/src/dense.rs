//! `dense`: QASM text → spec `auto` → full amplitude vector, checked
//! against a plain-`array` reference by state fidelity.
//!
//! The traced run splits `auto` into its two public halves,
//! `analysis::dispatch_circuit` and `create_engine(chosen)`, so the
//! dispatch decision, the backend's run and its readout are timed
//! separately.

use qdt::circuit::{generators, qasm, Circuit};
use qdt::complex::Complex;
use qdt::engine::run;
use rand::rngs::StdRng;
use rand::Rng;

use crate::trace::Trace;
use crate::{balanced_grover, fixed_structure, on_basis_state, Class, POOL};

/// Fidelity a job's amplitudes must reach against the reference.
const MIN_FIDELITY: f64 = 1.0 - 1e-9;

/// What a job starts from.
enum Source {
    /// Program text the job parses.
    Qasm(String),
    /// A circuit built in code.
    Built(Circuit),
}

struct Input {
    source: Source,
    reference: Vec<Complex>,
}

/// Makes the seeded input circuit of one pool slot.
type Generator<'a> = &'a dyn Fn(usize, &mut StdRng) -> Circuit;

struct DenseClass {
    name: &'static str,
    known_defect: Option<&'static str>,
    inputs: Vec<Input>,
}

/// The five `dense` classes, `POOL` seeded inputs each.
pub(crate) fn classes(rng: &mut StdRng) -> Result<Vec<Box<dyn Class>>, String> {
    let hea = |_, rng: &mut StdRng| {
        let (n, layers) = (16, 4);
        let params: Vec<f64> = (0..2 * n * layers)
            .map(|_| rng.gen_range(0.0..std::f64::consts::TAU))
            .collect();
        generators::hardware_efficient_ansatz(n, layers, &params)
    };
    // (name, parsed from QASM, known defect, generator)
    let specs: [(&'static str, bool, Option<&'static str>, Generator); 5] = [
        ("qft-18", true, None, &|_, rng| {
            on_basis_state(&generators::qft(18, true), rng)
        }),
        ("random-15x15", true, None, &|slot, rng| {
            on_basis_state(
                &fixed_structure(slot, |r| generators::random_circuit(15, 15, r)),
                rng,
            )
        }),
        ("clifford-t-15x30", true, None, &|slot, rng| {
            let circuit = fixed_structure(slot, |r| generators::random_clifford_t(15, 30, 0.25, r));
            on_basis_state(&circuit, rng)
        }),
        // Built in code: the multi-controlled Z of the oracle and the
        // diffusion exceeds the QASM 2.0 subset.
        ("grover-12", false, None, &|_, rng| balanced_grover(12, rng)),
        (
            "hea-16x4",
            true,
            Some("auto dispatches the ansatz to mps:2, whose bond-2 truncation loses the state"),
            &hea,
        ),
    ];
    let mut out: Vec<Box<dyn Class>> = Vec::new();
    for (name, via_qasm, known_defect, make) in specs {
        let mut inputs = Vec::with_capacity(POOL);
        for slot in 0..POOL {
            let circuit = make(slot, rng);
            let reference = amplitudes_on("array", &circuit).map_err(|e| format!("{name}: {e}"))?;
            let source = if via_qasm {
                Source::Qasm(qasm::write(&circuit).map_err(|e| format!("{name}: {e}"))?)
            } else {
                Source::Built(circuit)
            };
            inputs.push(Input { source, reference });
        }
        out.push(Box::new(DenseClass {
            name,
            known_defect,
            inputs,
        }));
    }
    Ok(out)
}

fn amplitudes_on(spec: &str, circuit: &Circuit) -> Result<Vec<Complex>, String> {
    let mut engine = qdt::create_engine(spec).map_err(|e| e.to_string())?;
    run(engine.as_mut(), circuit).map_err(|e| e.to_string())?;
    engine.amplitudes().map_err(|e| e.to_string())
}

/// The layer names of the backend a dispatch chose: its dispatch
/// counter, its run span and its readout span.
fn layers_of(spec: &str) -> Result<(&'static str, &'static str, &'static str), String> {
    Ok(if spec == "array" {
        ("analysis.to_array", "array.run", "array.readout")
    } else if spec.starts_with("array(") {
        ("analysis.to_array_fused", "array.run", "array.readout")
    } else if spec.starts_with("mps") {
        ("analysis.to_mps", "mps.run", "mps.readout")
    } else if spec == "decision-diagram" {
        ("analysis.to_dd", "dd.run", "dd.readout")
    } else if spec == "stabilizer" {
        (
            "analysis.to_stabilizer",
            "stabilizer.run",
            "stabilizer.readout",
        )
    } else if spec == "tensor-network" {
        ("analysis.to_tn", "tn.run", "tn.readout")
    } else {
        return Err(format!("dispatch chose an unknown spec `{spec}`"));
    })
}

/// `|⟨reference|amps⟩|² / (‖reference‖² ‖amps‖²)`.
fn fidelity(amps: &[Complex], reference: &[Complex]) -> f64 {
    let overlap: Complex = amps.iter().zip(reference).map(|(a, r)| r.conj() * *a).sum();
    let norm = |v: &[Complex]| v.iter().map(|c| c.norm_sqr()).sum::<f64>();
    overlap.norm_sqr() / (norm(amps) * norm(reference))
}

impl DenseClass {
    fn traced_amplitudes(circuit: &Circuit, t: &mut Trace) -> Result<Vec<Complex>, String> {
        let decision = t.span("analysis.dispatch", || {
            qdt::analysis::dispatch_circuit(circuit)
        });
        let (counter, run_layer, readout_layer) = layers_of(&decision.chosen)?;
        t.count(counter, 1.0);
        let (mut engine, stats) = t.span(run_layer, || {
            let mut engine = qdt::create_engine(&decision.chosen).map_err(|e| e.to_string())?;
            let stats = run(engine.as_mut(), circuit).map_err(|e| e.to_string())?;
            Ok::<_, String>((engine, stats))
        })?;
        if run_layer == "array.run" {
            // Computed, not measured: every gate streams the whole state
            // (2^n amplitudes of 16 B, read and written).
            let bytes = stats.gates_applied as f64 * (circuit.num_qubits() as f64).exp2() * 32.0;
            t.count("array.bytes", bytes);
        }
        t.span(readout_layer, || engine.amplitudes())
            .map_err(|e| e.to_string())
    }
}

impl Class for DenseClass {
    fn name(&self) -> &'static str {
        self.name
    }

    fn known_defect(&self) -> Option<&'static str> {
        self.known_defect
    }

    fn run(&self, input: usize, t: &mut Trace) -> Result<(), String> {
        let input = &self.inputs[input];
        let parsed;
        let circuit = match &input.source {
            Source::Qasm(text) => {
                parsed = t
                    .span("circuit.parse", || qasm::parse(text))
                    .map_err(|e| e.to_string())?;
                &parsed
            }
            Source::Built(circuit) => circuit,
        };
        let amps = if t.is_on() {
            DenseClass::traced_amplitudes(circuit, t)?
        } else {
            amplitudes_on("auto", circuit)?
        };
        t.span("bench.check", || {
            if amps.len() != input.reference.len() {
                return Err(format!(
                    "{} amplitudes, expected {}",
                    amps.len(),
                    input.reference.len()
                ));
            }
            let f = fidelity(&amps, &input.reference);
            if f >= MIN_FIDELITY {
                Ok(())
            } else {
                Err(format!("fidelity {f:.6} against the array reference"))
            }
        })
    }
}
