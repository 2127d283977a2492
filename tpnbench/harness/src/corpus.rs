//! The seeded corpus and request-stream generator.
//!
//! Every workload is a pure function of `(workload, seed)`: the same seed
//! yields byte-identical request lines. The program under test only ever
//! sees the loop-language source inside those lines.
//!
//! Re-keying: a loop's first pass uses its source as generated; pass `p`
//! adds `p` to the one numeric literal of the `from` bound. Lowering
//! ignores loop bounds, so the compile work is identical while every pass
//! misses the result cache.

/// SplitMix64: a tiny, fully specified PRNG, so the stream never depends
/// on another crate's generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One corpus loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// Shape name plus size, e.g. `ring/64`.
    pub name: String,
    /// The pass-0 source.
    pub source: String,
}

impl Loop {
    /// The source re-keyed for pass `pass`.
    pub fn keyed(&self, pass: u64) -> String {
        rekey(&self.source, pass)
    }
}

/// Adds `delta` to the numeric `from` bound of a loop header.
pub fn rekey(source: &str, delta: u64) -> String {
    let at = source.find(" from ").expect("every loop has a from bound") + 6;
    let digits = source[at..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("the from bound is followed by more header");
    let value: u64 = source[at..at + digits]
        .parse()
        .expect("corpus loops use a numeric from bound");
    format!(
        "{}{}{}",
        &source[..at],
        value + delta,
        &source[at + digits..]
    )
}

fn input(rng: &mut Rng) -> String {
    match rng.below(4) {
        0 => format!("P{}", rng.below(3)),
        1 => format!("{}", rng.below(9) + 1),
        _ => {
            let off = rng.below(4);
            if off == 0 {
                format!("A{}[i]", rng.below(4))
            } else {
                format!("A{}[i+{off}]", rng.below(4))
            }
        }
    }
}

fn op(rng: &mut Rng) -> char {
    ['+', '-', '*', '/'][rng.below(4) as usize]
}

/// Renders statements `T{j}[i] := lhs op rhs;` into a loop.
fn render(kind: &str, from: u64, stmts: &[(String, String)], rng: &mut Rng) -> String {
    let mut out = format!("{kind} i from {from} to n {{\n");
    for (j, (lhs, rhs)) in stmts.iter().enumerate() {
        out.push_str(&format!("  T{j}[i] := {lhs} {} {rhs};\n", op(rng)));
    }
    out.push('}');
    out
}

/// A connected forward body: statement `j` reads one of the few
/// statements before it, so every node lies on one weakly connected
/// component (the frustum schedule needs uniform firing counts).
fn forward(n: usize, g: &mut Gen) -> Vec<(String, String)> {
    (0..n)
        .map(|j| {
            let lhs = if j == 0 {
                format!("A{}[i]", g.surface.below(4))
            } else {
                let back = 1 + g.structure.below(j.min(4) as u64) as usize;
                format!("T{}[i]", j - back)
            };
            let rhs = if j >= 2 && g.structure.below(3) == 0 {
                format!("T{}[i]", g.structure.below(j as u64 - 1))
            } else {
                input(&mut g.surface)
            };
            (lhs, rhs)
        })
        .collect()
}

/// The two random streams of the generator. `structure` picks the
/// dependence graph and comes from a fixed seed per corpus slot, so every
/// seed compiles the same graphs and runs on different seeds do the same
/// work; `surface` comes from the run's seed and picks every token that
/// leaves the graph alone: operators, input arrays, offsets, literals,
/// parameters and the `from` bound.
pub struct Gen {
    pub structure: Rng,
    pub surface: Rng,
}

/// Generates one loop of `shape` with `n` nodes.
pub fn generate(shape: &str, n: usize, g: &mut Gen) -> Loop {
    let from = 1 + g.surface.below(3);
    let source = match shape {
        // No loop-carried dependence: only the fwd/ack buffer cycles
        // bound the rate.
        "doall" => {
            let stmts = forward(n, g);
            render("doall", from, &stmts, &mut g.surface)
        }
        // Recurrences at distances 1-3: token counts above one give
        // fractional critical ratios.
        "recurrence" => {
            let mut stmts = forward(n, g);
            // One recurrence per eight nodes, each from a later (or the
            // same) statement back to an earlier one at distance 1-3.
            for _ in 0..n.div_ceil(8) {
                let to = g.structure.below(n as u64) as usize;
                let from_stmt = to + g.structure.below((n - to) as u64) as usize;
                let d = 1 + g.structure.below(3);
                stmts[to].1 = format!("T{from_stmt}[i-{d}]");
            }
            render("do", from, &stmts, &mut g.surface)
        }
        // Two critical cycles with equal ratio: the witness choice and
        // the explain slack ranking.
        "tied" => {
            // Ring A over m statements at distance 1 and ring B over 2m
            // statements at distance 2: both have ratio m, a tie.
            let m = (n / 3).max(1);
            let mut stmts: Vec<(String, String)> = (0..3 * m)
                .map(|j| {
                    let lhs = match j {
                        0 => format!("T{}[i-1]", m - 1),
                        j if j == m => format!("T{}[i-2]", 3 * m - 1),
                        j => format!("T{}[i]", j - 1),
                    };
                    (lhs, input(&mut g.surface))
                })
                .collect();
            stmts[m].1 = format!("T{}[i]", m - 1);
            render("do", from, &stmts, &mut g.surface)
        }
        // One recurrence through the whole body: the longest critical
        // cycle and frustum period.
        "ring" => {
            let d = 1 + g.structure.below(3);
            let stmts: Vec<(String, String)> = (0..n)
                .map(|j| {
                    let lhs = if j == 0 {
                        format!("T{}[i-{d}]", n - 1)
                    } else {
                        format!("T{}[i]", j - 1)
                    };
                    (lhs, input(&mut g.surface))
                })
                .collect();
            render("do", from, &stmts, &mut g.surface)
        }
        // A long DOALL dependence chain: frustum instants grow with n
        // (the super-quadratic term).
        "chain" => {
            let stmts: Vec<(String, String)> = (0..n)
                .map(|j| {
                    let lhs = if j == 0 {
                        format!("A{}[i]", g.surface.below(4))
                    } else {
                        format!("T{}[i]", j - 1)
                    };
                    (lhs, input(&mut g.surface))
                })
                .collect();
            render("doall", from, &stmts, &mut g.surface)
        }
        other => panic!("unknown shape {other}"),
    };
    Loop {
        name: format!("{shape}/{n}"),
        source,
    }
}

/// The seven Livermore kernels, verbatim from `tpn-livermore`: the
/// paper's own evaluation kernels (Table 1).
pub fn livermore() -> Vec<Loop> {
    tpn_livermore::kernels()
        .into_iter()
        .map(|k| Loop {
            name: format!("livermore/{}", k.name),
            source: k.source.to_string(),
        })
        .collect()
}

/// Seed of the dependence structure of generated loops (see [`Gen`]).
const STRUCTURE_SEED: u64 = 0x5eed;

/// A corpus: the Livermore kernels plus one generated loop per
/// `(shape, size)` entry.
pub fn corpus(seed: u64, sizes: &[(&str, usize)]) -> Vec<Loop> {
    let mut surface = Rng::new(seed);
    let mut loops = livermore();
    for (slot, &(shape, n)) in sizes.iter().enumerate() {
        let mut g = Gen {
            structure: Rng::new(STRUCTURE_SEED + slot as u64),
            surface: surface.clone(),
        };
        loops.push(generate(shape, n, &mut g));
        surface = g.surface;
    }
    loops
}

/// One request of a stream.
#[derive(Clone, Debug)]
pub struct Req {
    pub id: u64,
    pub verb: &'static str,
    pub depth: Option<u64>,
    pub engine: Option<&'static str>,
    /// Index of the corpus loop (cold workloads, fleet writes' shape) or
    /// of the hot pool entry (fleet hits).
    pub loop_idx: usize,
    /// Index of the verb in the workload's verb list (the (loop, verb)
    /// pair is `(loop_idx, verb_idx)`).
    pub verb_idx: usize,
    pub source: String,
    /// A hit on a warm-started key (fleet reads).
    pub hit: bool,
}

impl Req {
    /// The NDJSON request line (no trailing newline).
    pub fn line(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"verb\":\"{}\",\"source\":",
            self.id, self.verb
        );
        serde::write_json_string(&self.source, &mut out);
        if let Some(depth) = self.depth {
            out.push_str(&format!(",\"depth\":{depth}"));
        }
        if let Some(engine) = self.engine {
            out.push_str(&format!(",\"options\":{{\"engine\":\"{engine}\"}}"));
        }
        out.push('}');
        out
    }
}

/// A cold workload's stream: pass after pass over every (loop, verb)
/// pair, each pass in its own seeded order and re-keyed by its number.
pub struct ColdStream {
    pub loops: Vec<Loop>,
    pub verbs: Vec<(&'static str, Option<u64>)>,
    pub engine: Option<&'static str>,
    seed: u64,
}

impl ColdStream {
    pub fn new(
        loops: Vec<Loop>,
        verbs: Vec<(&'static str, Option<u64>)>,
        engine: Option<&'static str>,
        seed: u64,
    ) -> ColdStream {
        ColdStream {
            loops,
            verbs,
            engine,
            seed,
        }
    }

    pub fn pass_len(&self) -> u64 {
        (self.loops.len() * self.verbs.len()) as u64
    }

    /// Request number `index` of the stream; `first_pass` offsets the
    /// re-key so warm-up and measured passes never share a key.
    pub fn request(&self, index: u64, first_pass: u64) -> Req {
        let pass = index / self.pass_len();
        let slot = (index % self.pass_len()) as usize;
        let mut order: Vec<usize> = (0..self.pass_len() as usize).collect();
        Rng::new(self.seed ^ (pass + first_pass).wrapping_mul(0x2545_f491_4f6c_dd1d))
            .shuffle(&mut order);
        let pair = order[slot];
        let (loop_idx, verb_idx) = (pair / self.verbs.len(), pair % self.verbs.len());
        let (verb, depth) = self.verbs[verb_idx];
        Req {
            id: index,
            verb,
            depth,
            engine: self.engine,
            loop_idx,
            verb_idx,
            source: self.loops[loop_idx].keyed(first_pass + pass),
            hit: false,
        }
    }
}

/// The fleet workload's stream: reads on the hot pool, plus one write of
/// a first-seen small loop every `write_every` requests.
pub struct FleetStream {
    pub hot: Vec<Loop>,
    pub writes: Vec<Loop>,
    pub verbs: Vec<&'static str>,
    pub write_every: u64,
    seed: u64,
}

/// Re-key offset of fleet writes: above every hot and background key.
pub const WRITE_REKEY: u64 = 1_000_000;
/// Re-key offset of the background artifacts.
pub const BACKGROUND_REKEY: u64 = 10_000;

impl FleetStream {
    pub fn new(
        hot: Vec<Loop>,
        writes: Vec<Loop>,
        verbs: Vec<&'static str>,
        write_every: u64,
        seed: u64,
    ) -> FleetStream {
        FleetStream {
            hot,
            writes,
            verbs,
            write_every,
            seed,
        }
    }

    /// Fill request `index`: every (hot loop, verb) pair once.
    pub fn hot_request(&self, index: u64) -> Req {
        let verbs = self.verbs.len();
        let (loop_idx, verb_idx) = (index as usize / verbs, index as usize % verbs);
        Req {
            id: index,
            verb: self.verbs[verb_idx],
            depth: None,
            engine: None,
            loop_idx,
            verb_idx,
            source: self.hot[loop_idx].source.clone(),
            hit: true,
        }
    }

    /// Background artifact `index`: a write shape under its own key.
    pub fn background_request(&self, index: u64) -> Req {
        let loop_idx = (index % self.writes.len() as u64) as usize;
        Req {
            id: index,
            verb: "analyze",
            depth: None,
            engine: None,
            loop_idx,
            verb_idx: 0,
            source: self.writes[loop_idx].keyed(BACKGROUND_REKEY + index),
            hit: false,
        }
    }

    /// Request `index` of the measured stream.
    pub fn request(&self, index: u64) -> Req {
        let mut rng = Rng::new(self.seed ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d));
        if index % self.write_every == self.write_every - 1 {
            let n = index / self.write_every;
            let loop_idx = (n % self.writes.len() as u64) as usize;
            return Req {
                id: index,
                verb: "analyze",
                depth: None,
                engine: None,
                loop_idx,
                verb_idx: 0,
                source: self.writes[loop_idx].keyed(WRITE_REKEY + n),
                hit: false,
            };
        }
        let loop_idx = rng.below(self.hot.len() as u64) as usize;
        let verb_idx = rng.below(self.verbs.len() as u64) as usize;
        Req {
            id: index,
            verb: self.verbs[verb_idx],
            depth: None,
            engine: None,
            loop_idx,
            verb_idx,
            source: self.hot[loop_idx].source.clone(),
            hit: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn stream_bytes(workload: Workload, seed: u64) -> String {
        let plan = workload.plan(seed);
        (0..2_000).map(|i| plan.request(i).line() + "\n").collect()
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_stream() {
        for workload in Workload::ALL {
            assert_eq!(stream_bytes(workload, 7), stream_bytes(workload, 7));
            assert_ne!(stream_bytes(workload, 7), stream_bytes(workload, 8));
        }
    }

    #[test]
    fn rekeying_changes_only_the_from_bound() {
        let lp = &livermore()[0];
        assert_eq!(lp.keyed(0), lp.source);
        assert_eq!(
            lp.keyed(41).replacen("from 42", "from 1", 1),
            lp.source,
            "{}",
            lp.keyed(41)
        );
    }

    #[test]
    fn every_generated_shape_compiles() {
        let mut g = Gen {
            structure: Rng::new(3),
            surface: Rng::new(4),
        };
        for shape in ["doall", "recurrence", "tied", "ring", "chain"] {
            for n in [3, 9, 24] {
                let lp = generate(shape, n, &mut g);
                let compiled = tpn::CompiledLoop::from_source(&lp.source)
                    .unwrap_or_else(|e| panic!("{}: {e}\n{}", lp.name, lp.source));
                assert!(compiled.petri_net().net.is_marked_graph(), "{}", lp.name);
            }
        }
    }
}
