//! `shots`: dynamic circuits (mid-circuit measurement, reset,
//! feed-forward) through the per-shot executor. Two classes sample
//! through `qdt::sample_dynamic` on two workers and are checked by exact
//! histogram support; teleportation runs the per-shot fidelity oracle of
//! `qdt::verify::dynamic`.
//!
//! Shot counts are fixed per class so that the three classes take
//! similar time per job.

use std::collections::BTreeMap;
use std::f64::consts::PI;

use qdt::circuit::{generators, Circuit};
use qdt::engine::run;
use qdt::verify::dynamic::check_teleportation;
use rand::rngs::StdRng;
use rand::Rng;

use crate::trace::Trace;
use crate::{Class, POOL};

/// Worker threads of a sampling job.
const WORKERS: usize = 2;
/// Smallest accepted per-shot teleportation fidelity.
const MIN_FIDELITY: f64 = 1.0 - 1e-9;

/// What one class runs per job.
enum Protocol {
    /// `sample_dynamic` of a circuit whose classical register always
    /// reads all-zeros.
    AllZeros {
        circuit: Circuit,
        spec: &'static str,
    },
    /// Teleportation of `Rz(φ)·Ry(θ)|0⟩` on `dd`, checked per shot.
    Teleportation,
}

struct ShotsClass {
    name: &'static str,
    protocol: Protocol,
    shots: usize,
    /// Per input: shot seed and teleportation angles (θ, φ).
    inputs: Vec<(u64, f64, f64)>,
    /// The layer that receives this class's per-shot time.
    shot_layer: (&'static str, &'static str),
}

/// The three `shots` classes, `POOL` seeded inputs each.
pub(crate) fn classes(rng: &mut StdRng) -> Result<Vec<Box<dyn Class>>, String> {
    let mut inputs = || -> Vec<(u64, f64, f64)> {
        (0..POOL)
            .map(|_| {
                (
                    rng.gen(),
                    rng.gen_range(0.1..PI - 0.1),
                    rng.gen_range(0.0..2.0 * PI),
                )
            })
            .collect()
    };
    Ok(vec![
        Box::new(ShotsClass {
            name: "adaptive-ghz-12/array",
            protocol: Protocol::AllZeros {
                circuit: generators::adaptive_ghz(12),
                spec: "array",
            },
            shots: 256,
            inputs: inputs(),
            shot_layer: ("array.shot_ms", "array.shots"),
        }),
        Box::new(ShotsClass {
            name: "repetition-15x3/stabilizer",
            protocol: Protocol::AllZeros {
                circuit: generators::repetition_code(15, 3),
                spec: "stabilizer",
            },
            shots: 1024,
            inputs: inputs(),
            shot_layer: ("stabilizer.shot_ms", "stabilizer.shots"),
        }),
        Box::new(ShotsClass {
            name: "teleportation/dd",
            protocol: Protocol::Teleportation,
            shots: 12_288,
            inputs: inputs(),
            shot_layer: ("dd.shot_ms", "dd.shots"),
        }),
    ])
}

fn all_zeros(counts: &BTreeMap<u128, usize>, shots: usize) -> Result<(), String> {
    if counts.len() == 1 && counts.get(&0) == Some(&shots) {
        Ok(())
    } else {
        let head: Vec<_> = counts.iter().take(4).collect();
        Err(format!("histogram {head:?} is not {{0: {shots}}}"))
    }
}

impl Class for ShotsClass {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, input: usize, t: &mut Trace) -> Result<(), String> {
        let (seed, theta, phi) = self.inputs[input];
        let (checked, ms) = match &self.protocol {
            Protocol::AllZeros { circuit, spec } => {
                let (result, ms) = t.timed_span("engine.shots", || {
                    qdt::sample_dynamic(circuit, self.shots, spec, seed, WORKERS)
                });
                let result = result.map_err(|e| e.to_string())?;
                t.count("engine.collapses", result.stats.collapses as f64);
                t.record_aside("parallel.w2", ms);
                let checked = t.span("bench.check", || {
                    if result.stats.shots == self.shots {
                        all_zeros(&result.counts, self.shots)
                    } else {
                        Err(format!(
                            "{} shots, expected {}",
                            result.stats.shots, self.shots
                        ))
                    }
                });
                (checked, ms)
            }
            Protocol::Teleportation => {
                // The oracle inspects every collapsed state, so the check
                // runs inside the timed call.
                let (report, ms) = t.timed_span("engine.shots", || {
                    let mut engine = qdt::create_engine("dd").map_err(|e| e.to_string())?;
                    check_teleportation(engine.as_mut(), theta, phi, self.shots, seed)
                        .map_err(|e| e.to_string())
                });
                let report = report?;
                let checked = t.span("bench.check", || {
                    if report.shots != self.shots || report.outcome_patterns != 4 {
                        Err(format!(
                            "{} shots with {} outcome patterns",
                            report.shots, report.outcome_patterns
                        ))
                    } else if report.min_fidelity >= MIN_FIDELITY {
                        Ok(())
                    } else {
                        Err(format!("per-shot fidelity down to {}", report.min_fidelity))
                    }
                });
                (checked, ms)
            }
        };
        t.count(self.shot_layer.0, ms);
        t.count(self.shot_layer.1, self.shots as f64);
        checked
    }

    fn between_jobs(&self, input: usize, t: &mut Trace) -> Result<(), String> {
        let (seed, theta, phi) = self.inputs[input];
        let (circuit, spec) = match &self.protocol {
            Protocol::AllZeros { circuit, spec } => (circuit.clone(), *spec),
            Protocol::Teleportation => (generators::teleportation(theta, phi), "dd"),
        };
        // The static prefix the executor runs once before the shot loop.
        let (prefix, _) = circuit.split_dynamic();
        t.aside("engine.prefix", || {
            let mut engine = qdt::create_engine(spec)?;
            run(engine.as_mut(), &prefix)?;
            Ok::<_, qdt::QdtError>(())
        })
        .map_err(|e| e.to_string())?;
        if let Protocol::AllZeros { circuit, spec } = &self.protocol {
            t.aside("parallel.w1", || {
                qdt::sample_dynamic(circuit, self.shots, spec, seed, 1)
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}
