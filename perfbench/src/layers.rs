//! The traced analysis path: the layers one `bivc --jobs 1` batch runs
//! through, timed from outside by calling each layer's public entry
//! points in the order `summarize` does.
//!
//! The invariant layer is crate-private in `biv-core`
//! (`invariants::function_invariants`), so it is rebuilt here from the
//! public calls that function makes: `derive_candidates` per loop, then
//! — only when some loop proposed a candidate — a clean SSA rebuild
//! replayed on the validator's seeded inputs, then `check_candidate`.
//! The drift check in the batch workload compares the verified count
//! this rebuild finds with the relations `bivc --invariants` prints.

use std::time::{Duration, Instant};

use biv_core::{
    analyze_with_times, canonical_value_name, seeded_inputs, Analysis, AnalysisConfig, Class,
    ValidationOptions,
};
use biv_invariant::check::SeedHistories;
use biv_invariant::{check_candidate, derive_candidates, InvariantConfig, IvClosedForm};
use biv_ir::parser::parse_program;
use biv_ir::Function;
use biv_ssa::{fold_constants, SsaFunction, SsaInterpreter, SsaTrace};

/// Inputs replayed per function, as `biv-core` checks invariants.
const CHECK_INPUTS: usize = 4;
/// Interpreter step limit per replay, as `biv-core` checks invariants.
const CHECK_STEP_LIMIT: usize = 20_000;
/// Iterations that must evaluate to zero for a verified candidate.
const MIN_CHECKED_ITERATIONS: usize = 4;

/// Time and work per layer for one pass over a corpus.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// `parse_program` over every file.
    pub parse: Duration,
    /// SSA construction and constant folding.
    pub ssa: Duration,
    /// CFG, dominators, and the loop forest.
    pub loop_forest: Duration,
    /// SCR classification, all loops.
    pub classify: Duration,
    /// Trip counts and exit values, all loops.
    pub closed_forms: Duration,
    /// Candidate relations from the closed forms.
    pub derive: Duration,
    /// Clean SSA rebuild plus interpreter replay on seeded inputs.
    pub replay: Duration,
    /// History extraction and candidate checking.
    pub check: Duration,
    /// Candidate relations derived.
    pub candidates: usize,
    /// Candidates that survived checking.
    pub verified: usize,
    /// IR instructions analyzed.
    pub insts: usize,
}

impl LayerTimes {
    /// Every timed layer, summed.
    pub fn total(&self) -> Duration {
        self.parse
            + self.ssa
            + self.loop_forest
            + self.classify
            + self.closed_forms
            + self.derive
            + self.replay
            + self.check
    }
}

/// Runs every layer once over `sources` (one `bivc` batch's files) on
/// this thread.
///
/// # Panics
/// If a source does not parse; the workloads only generate valid ones.
pub fn trace_corpus(sources: &[String]) -> LayerTimes {
    let config = AnalysisConfig::default();
    let mut times = LayerTimes::default();
    let start = Instant::now();
    let programs: Vec<_> = sources
        .iter()
        .map(|s| parse_program(s).expect("generated source parses"))
        .collect();
    times.parse = start.elapsed();
    for func in programs.iter().flat_map(|p| &p.functions) {
        times.insts += func
            .blocks
            .iter()
            .map(|(_, b)| b.insts.len())
            .sum::<usize>();
        let (analysis, phases) = analyze_with_times(func, config);
        times.ssa += phases.ssa;
        times.loop_forest += phases.loop_forest;
        times.classify += phases.classify;
        times.closed_forms += phases.closed_forms;
        trace_invariants(func, &config, &analysis, &mut times);
    }
    times
}

/// One loop's proposed relations and the header φs they range over.
struct LoopCandidates {
    values: Vec<biv_ssa::Value>,
    names: Vec<String>,
    candidates: Vec<biv_invariant::Candidate>,
}

fn trace_invariants(
    func: &Function,
    config: &AnalysisConfig,
    analysis: &Analysis,
    times: &mut LayerTimes,
) {
    let start = Instant::now();
    let engine = InvariantConfig::default();
    let mut per_loop = Vec::new();
    for (l, info) in analysis.loops() {
        let header = analysis.forest().data(l).header;
        let mut values = Vec::new();
        let mut ivs = Vec::new();
        for &phi in &analysis.ssa().block(header).phis {
            let cf = match info.classes.get(phi) {
                Some(class @ (Class::Induction(_) | Class::MixedGeometric(_))) => class
                    .closed_form(l)
                    .expect("induction classes have closed forms"),
                _ => continue,
            };
            values.push(phi);
            ivs.push(IvClosedForm {
                name: canonical_value_name(phi),
                coeffs: cf.coeffs.to_vec(),
                geo: cf.geo.clone(),
            });
        }
        let candidates = derive_candidates(&ivs, &engine);
        if !candidates.is_empty() {
            let names = ivs.into_iter().map(|iv| iv.name).collect();
            per_loop.push(LoopCandidates {
                values,
                names,
                candidates,
            });
        }
    }
    times.derive += start.elapsed();
    if per_loop.is_empty() {
        return;
    }

    let start = Instant::now();
    let opts = ValidationOptions {
        inputs: CHECK_INPUTS,
        step_limit: CHECK_STEP_LIMIT,
        ..ValidationOptions::default()
    };
    let mut ssa = SsaFunction::build(func);
    if config.constant_folding {
        fold_constants(&mut ssa);
    }
    let interp = SsaInterpreter {
        step_limit: opts.step_limit,
    };
    let traces: Vec<SsaTrace> = seeded_inputs(func.params().len(), &opts)
        .iter()
        .map(|input| interp.run_partial(&ssa, input).0)
        .collect();
    times.replay += start.elapsed();

    let start = Instant::now();
    for lc in per_loop {
        let seeds: Vec<SeedHistories> = traces
            .iter()
            .map(|t| lc.values.iter().map(|&v| t.history(v)).collect())
            .collect();
        times.candidates += lc.candidates.len();
        let verified: Vec<String> = lc
            .candidates
            .iter()
            .filter(|c| check_candidate(c, &seeds, MIN_CHECKED_ITERATIONS))
            .map(|c| c.render(&lc.names))
            .collect();
        times.verified += verified.len();
    }
    times.check += start.elapsed();
}
