//! The compile layers, timed from outside: `flat_lang::parse_program`,
//! `flat_lang::compile_sprogram`, `incflat::flatten_incremental` and
//! `flat_vm::compile`, plus the daemon's own `compile_program`, which
//! runs the same four calls and so must reconcile with their sum.

use std::time::Instant;

/// One program carried through every compile layer.
pub struct Compiled {
    pub flattened: incflat::Flattened,
    pub code: flat_vm::CompiledProgram,
    pub times: LayerTimes,
}

/// Milliseconds spent in each compile layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    pub parse_ms: f64,
    pub elab_ms: f64,
    pub flatten_ms: f64,
    pub lower_ms: f64,
}

impl LayerTimes {
    pub fn total_ms(&self) -> f64 {
        self.parse_ms + self.elab_ms + self.flatten_ms + self.lower_ms
    }

    pub fn add(&mut self, o: &LayerTimes) {
        self.parse_ms += o.parse_ms;
        self.elab_ms += o.elab_ms;
        self.flatten_ms += o.flatten_ms;
        self.lower_ms += o.lower_ms;
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Parse, elaborate, flatten and lower `entry` of `source`, timing each
/// layer.
pub fn compile(source: &str, entry: &str) -> Result<Compiled, String> {
    let t = Instant::now();
    let sprog = flat_lang::parse_program(source).map_err(|e| format!("parse: {e}"))?;
    let parse_ms = ms_since(t);
    // Each layer is charged for freeing the representation it consumed,
    // as `compile_program` is.
    let t = Instant::now();
    let prog = flat_lang::compile_sprogram(&sprog, entry).map_err(|e| format!("elab: {e}"))?;
    drop(sprog);
    let elab_ms = ms_since(t);
    let t = Instant::now();
    let flattened = incflat::flatten_incremental(&prog).map_err(|e| format!("flatten: {e}"))?;
    drop(prog);
    let flatten_ms = ms_since(t);
    let t = Instant::now();
    let code = flat_vm::compile(&flattened.prog).map_err(|e| format!("lower: {e}"))?;
    let lower_ms = ms_since(t);
    Ok(Compiled {
        flattened,
        code,
        times: LayerTimes {
            parse_ms,
            elab_ms,
            flatten_ms,
            lower_ms,
        },
    })
}

/// Milliseconds `flat_serve::cache::compile_program` takes on `source`.
pub fn daemon_compile_ms(source: &str, entry: &str) -> Result<f64, String> {
    let t = Instant::now();
    let compiled = flat_serve::cache::compile_program(source, entry).map_err(|e| e.to_string())?;
    let ms = ms_since(t);
    drop(compiled);
    Ok(ms)
}

/// Bytecode instructions across every function of a lowered program.
pub fn instr_count(code: &flat_vm::CompiledProgram) -> usize {
    code.funcs.iter().map(Vec::len).sum()
}

/// Medians over repeated compiles, each summed over the programs.
pub struct LayerMedians {
    /// Each layer's median.
    pub layers: LayerTimes,
    /// The median of the four layers' sum, compile by compile.
    pub total_ms: f64,
    /// The median of the daemon's `compile_program`.
    pub daemon_ms: f64,
}

/// [`LayerMedians`] over `reps` compiles of each `(source, entry)`,
/// alternating the layer-by-layer compile with `compile_program`.
pub fn layer_medians(programs: &[(&str, &str)], reps: usize) -> Result<LayerMedians, String> {
    use crate::stats::median;
    let mut sum = LayerTimes::default();
    let mut total = 0.0;
    let mut daemon = 0.0;
    for &(source, entry) in programs {
        let mut runs = Vec::with_capacity(reps);
        let mut whole = Vec::with_capacity(reps);
        for _ in 0..reps {
            runs.push(compile(source, entry)?.times);
            whole.push(daemon_compile_ms(source, entry)?);
        }
        let pick = |f: fn(&LayerTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        sum.add(&LayerTimes {
            parse_ms: pick(|t| t.parse_ms),
            elab_ms: pick(|t| t.elab_ms),
            flatten_ms: pick(|t| t.flatten_ms),
            lower_ms: pick(|t| t.lower_ms),
        });
        total += median(&runs.iter().map(LayerTimes::total_ms).collect::<Vec<_>>());
        daemon += median(&whole);
    }
    Ok(LayerMedians {
        layers: sum,
        total_ms: total,
        daemon_ms: daemon,
    })
}
