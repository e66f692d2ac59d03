//! Hostile input at the entry points: a non-finite gate parameter is
//! rejected with a typed error where it enters — the QASM expression
//! evaluator, [`Gate::validate`] and the circuit builder — so no engine
//! ever sees it. Every registered engine spec is driven from QASM text
//! under `catch_unwind`: the call must return `Err`, never unwind.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qdt::circuit::{qasm, Circuit, CircuitError, Gate, Instruction, OpKind};
use qdt::complex::Complex;
use qdt::engine::run;
use qdt::EngineRegistry;

/// `rz(1/0)` evaluates to an infinite angle. Before it was rejected,
/// `decision-diagram` and `mps` panicked on this circuit, and `array`
/// and `auto` returned NaN amplitudes as success.
const HOSTILE: &str = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz(1/0) q[0];\ncx q[0],q[1];\n";

/// The same circuit with a finite angle: proves the harness reaches the
/// engines.
const CONTROL: &str = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz(pi/2) q[0];\ncx q[0],q[1];\n";

/// Builds the engine, parses the program and reads all amplitudes.
fn simulate(registry: &EngineRegistry, spec: &str, source: &str) -> Result<Vec<Complex>, String> {
    let mut engine = registry.create(spec).map_err(|e| e.to_string())?;
    let circuit = qasm::parse(source).map_err(|e| e.to_string())?;
    run(engine.as_mut(), &circuit).map_err(|e| e.to_string())?;
    engine.amplitudes().map_err(|e| e.to_string())
}

#[test]
fn non_finite_angle_is_an_error_on_every_registered_spec() {
    let registry = EngineRegistry::with_defaults();
    let mut reached = 0;
    for spec in registry.names() {
        let hostile = catch_unwind(AssertUnwindSafe(|| simulate(&registry, spec, HOSTILE)));
        match hostile {
            Ok(Err(message)) => assert!(
                message.contains("non-finite"),
                "{spec}: unexpected error {message}"
            ),
            Ok(Ok(amps)) => panic!("{spec}: accepted an infinite angle, returned {amps:?}"),
            Err(_) => panic!("{spec}: unwound on an infinite angle"),
        }
        let control = catch_unwind(AssertUnwindSafe(|| simulate(&registry, spec, CONTROL)));
        match control {
            Ok(Ok(amps)) => {
                assert!(amps.iter().all(|a| a.re.is_finite() && a.im.is_finite()));
                reached += 1;
            }
            Ok(Err(_)) => {}
            Err(_) => panic!("{spec}: unwound on the finite control circuit"),
        }
    }
    assert!(
        reached >= 4,
        "only {reached} specs simulated the control circuit"
    );
}

#[test]
fn non_finite_parameters_are_rejected_by_gates_and_the_builder() {
    for gate in [
        Gate::Rx(f64::INFINITY),
        Gate::Ry(f64::NEG_INFINITY),
        Gate::Rz(f64::NAN),
        Gate::Phase(f64::INFINITY),
        Gate::U(0.0, f64::NAN, 0.0),
    ] {
        let want = CircuitError::NonFiniteParameter { gate: gate.name() };
        assert_eq!(gate.validate(), Err(want.clone()));
        let mut qc = Circuit::new(2);
        assert_eq!(qc.try_gate(gate, 0, &[1]).err(), Some(want.clone()));
        let inst = Instruction::new(OpKind::Unitary {
            gate,
            target: 1,
            controls: vec![],
        });
        assert_eq!(qc.push(inst), Err(want));
        assert!(qc.is_empty(), "a rejected gate must not be appended");
    }
    assert_eq!(Gate::Rz(0.5).validate(), Ok(Gate::Rz(0.5)));
    let mut qc = Circuit::new(1);
    assert!(qc.try_gate(Gate::U(0.1, 0.2, 0.3), 0, &[]).is_ok());
    assert_eq!(qc.len(), 1);
}

#[test]
fn qasm_rejects_every_non_finite_angle_form() {
    for angle in ["1/0", "-1/0", "0/0", "1e400", "pi/0"] {
        let source = format!("qreg q[1];\nu({angle}, 0, 0) q[0];\n");
        let e = qasm::parse(&source).unwrap_err();
        assert_eq!(e.line, 2, "{angle}");
        assert!(e.message.contains("non-finite"), "{angle}: {}", e.message);
    }
}
