//! `verify`: compile onto a 3×4 grid, then check the compiled circuit
//! against its source and against a one-gate mutant of the source, with
//! the decision-diagram miter and (where it cannot abort) ZX rewriting.
//! The truth is known by construction: the source is equivalent and the
//! mutant is not.

use qdt::circuit::{generators, Circuit};
use qdt::compile::coupling::CouplingMap;
use qdt::compile::target::GateSet;
use qdt::verify::{verify_compilation, Equivalence, Method};
use rand::rngs::StdRng;
use rand::Rng;

use crate::trace::Trace;
use crate::{fixed_structure, on_basis_state, Class, POOL};

struct Input {
    source: Circuit,
    mutant: Circuit,
}

/// Makes the source circuit of one pool slot.
type Structure<'a> = &'a dyn Fn(usize) -> Circuit;

struct VerifyClass {
    name: &'static str,
    /// Whether ZX checks run on this class.
    zx: bool,
    map: CouplingMap,
    inputs: Vec<Input>,
}

/// `circuit` with one `T` inserted at a random position. A unitary
/// `U₂·T·U₁` equals `U₂·U₁` up to phase only if `T` were a phase, so the
/// mutant is never equivalent.
fn mutant(circuit: &Circuit, rng: &mut StdRng) -> Circuit {
    let at = rng.gen_range(0..=circuit.len());
    let qubit = rng.gen_range(0..circuit.num_qubits());
    let mut out = Circuit::new(circuit.num_qubits());
    let mut t = Circuit::new(circuit.num_qubits());
    t.t(qubit);
    for (i, inst) in circuit.iter().enumerate() {
        if i == at {
            out.append(&t);
        }
        out.push_unchecked(inst.clone());
    }
    if at == circuit.len() {
        out.append(&t);
    }
    out
}

/// The three `verify` classes, `POOL` seeded inputs each.
pub(crate) fn classes(rng: &mut StdRng) -> Result<Vec<Box<dyn Class>>, String> {
    // ZX's exact fallback expands miters of at most 20 boundary wires
    // into a dense matrix, which can exhaust memory; on a 12-qubit device
    // the miter has 24, so ZX decides by rewriting alone.
    let map = CouplingMap::grid(3, 4);
    // (name, ZX checks too, circuit of a pool slot)
    let specs: [(&'static str, bool, Structure); 3] = [
        ("qft-7", true, &|_| generators::qft(7, true)),
        ("clifford-8", true, &|slot| {
            fixed_structure(slot, |r| generators::random_clifford(8, 8, r))
        }),
        // DD only. On devices of at most 10 qubits, ZX on compiled
        // Clifford+T reaches the dense fallback and aborts the process
        // (see README.md, known defects).
        ("clifford-t-8", false, &|slot| {
            fixed_structure(slot, |r| generators::random_clifford_t(8, 8, 0.2, r))
        }),
    ];
    let mut out: Vec<Box<dyn Class>> = Vec::new();
    for (name, zx, make) in specs {
        let inputs = (0..POOL)
            .map(|slot| {
                // The mutation point shapes the miter, so it is fixed per
                // slot like the structure; the seed picks the basis state
                // both circuits start from.
                let circuit = make(slot);
                let mutated = fixed_structure(slot, |r| mutant(&circuit, r));
                let basis = on_basis_state(&Circuit::new(circuit.num_qubits()), rng);
                let prepend = |c: &Circuit| {
                    let mut out = basis.clone();
                    out.append(c);
                    out
                };
                Input {
                    source: prepend(&circuit),
                    mutant: prepend(&mutated),
                }
            })
            .collect();
        out.push(Box::new(VerifyClass {
            name,
            zx,
            map: map.clone(),
            inputs,
        }));
    }
    Ok(out)
}

/// Whether a verdict contradicts the truth. `Inconclusive` decides
/// nothing and so contradicts nothing.
fn wrong(verdict: Equivalence, equivalent: bool) -> bool {
    match verdict {
        Equivalence::Inconclusive => false,
        v => v.is_equivalent() != equivalent,
    }
}

impl Class for VerifyClass {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, input: usize, t: &mut Trace) -> Result<(), String> {
        let input = &self.inputs[input];
        let routed = t
            .span("compile.compile", || {
                qdt::compile::compile(&input.source, &GateSet::ibm_basis(), &self.map)
            })
            .map_err(|e| e.to_string())?;
        t.count("compile.swaps", routed.swap_count as f64);
        let mut verdicts = Vec::with_capacity(4);
        let methods: &[(Method, &'static str)] = if self.zx {
            &[
                (Method::DecisionDiagram, "verify.dd"),
                (Method::Zx, "verify.zx"),
            ]
        } else {
            &[(Method::DecisionDiagram, "verify.dd")]
        };
        for &(method, layer) in methods {
            for (source, equivalent) in [(&input.source, true), (&input.mutant, false)] {
                let verdict = t
                    .span(layer, || {
                        verify_compilation(source, &routed, &self.map, method)
                    })
                    .map_err(|e| format!("{method}: {e}"))?;
                verdicts.push((method, equivalent, verdict));
            }
        }
        let (wrong_verdicts, zx_decided, first) = t.span("bench.check", || {
            let mut wrong_verdicts = 0;
            let mut zx_decided = 0;
            let mut first = None;
            for &(method, equivalent, verdict) in &verdicts {
                // The DD miter always decides; ZX may answer Inconclusive.
                let undecided = verdict == Equivalence::Inconclusive;
                if method == Method::Zx && !undecided {
                    zx_decided += 1;
                }
                if wrong(verdict, equivalent) || (method == Method::DecisionDiagram && undecided) {
                    wrong_verdicts += 1;
                    first.get_or_insert(format!(
                        "{method} said {verdict:?} where equivalent = {equivalent}"
                    ));
                }
            }
            (wrong_verdicts, zx_decided, first)
        });
        t.count("verify.wrong_verdicts", f64::from(wrong_verdicts));
        if self.zx {
            t.count("zx.checks", 2.0);
            t.count("zx.decided", f64::from(zx_decided));
        }
        first.map_or(Ok(()), Err)
    }
}
