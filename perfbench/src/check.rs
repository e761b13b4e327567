//! Independent output checks, made outside the timed phase.
//!
//! Nothing here trusts the program's own counters. Transitions are
//! recounted by a fetch sink of the benchmark's own, the way a hardware
//! bit-transition counter would count them: XOR + popcount over
//! consecutive words of the raw fetch stream. Encoded images are restored
//! by the benchmark's own walk, and stdout is compared with the host
//! golden model.

use std::collections::HashMap;

use imt_bitcode::block::OverlapHistory;
use imt_core::eval::Evaluation;
use imt_core::EncodedProgram;
use imt_isa::Program;
use imt_sim::{Cpu, FetchSink};

pub const LANES: usize = 32;

/// What the benchmark's own recount saw over one full run of a program.
#[derive(Debug, Clone)]
pub struct Recount {
    pub fetches: u64,
    pub exit_code: i32,
    pub stdout: String,
    /// Baseline transitions over the raw fetch stream.
    pub baseline: u64,
    pub baseline_lanes: [u64; LANES],
    /// Fetches per text index (the profile an encoder is given).
    pub per_index: Vec<u64>,
    /// `(src, dst, count)`: every consecutive fetch pair, by text index.
    pub edges: Vec<(usize, usize, u64)>,
}

struct RecountSink {
    text_base: u32,
    last: Option<(usize, u32)>,
    baseline: u64,
    per_index: Vec<u64>,
    /// Successors per source index; a few entries each, searched linearly.
    succ: Vec<Vec<(u32, u64)>>,
}

impl FetchSink for RecountSink {
    #[inline]
    fn on_fetch(&mut self, pc: u32, word: u32) {
        let index = (pc.wrapping_sub(self.text_base) / 4) as usize;
        self.per_index[index] += 1;
        if let Some((prev, prev_word)) = self.last {
            self.baseline += u64::from((prev_word ^ word).count_ones());
            let succ = &mut self.succ[prev];
            match succ.iter_mut().find(|(dst, _)| *dst as usize == index) {
                Some(slot) => slot.1 += 1,
                None => succ.push((index as u32, 1)),
            }
        }
        self.last = Some((index, word));
    }
}

/// Runs `program` to completion under the benchmark's own sink.
pub fn recount(program: &Program, max_steps: u64) -> Result<Recount, String> {
    let len = program.text.len();
    let mut sink = RecountSink {
        text_base: program.text_base,
        last: None,
        baseline: 0,
        per_index: vec![0; len],
        succ: vec![Vec::new(); len],
    };
    let mut cpu = Cpu::new(program).map_err(|e| e.to_string())?;
    let summary = cpu
        .run_with_sink(max_steps, &mut sink)
        .map_err(|e| e.to_string())?;
    let edges: Vec<(usize, usize, u64)> = sink
        .succ
        .iter()
        .enumerate()
        .flat_map(|(src, succ)| succ.iter().map(move |&(dst, n)| (src, dst as usize, n)))
        .collect();
    let (total, baseline_lanes) = image_transitions(&program.text, &edges);
    if total != sink.baseline {
        return Err(format!(
            "stream recount {} disagrees with its own edge multiset {total}",
            sink.baseline
        ));
    }
    Ok(Recount {
        fetches: summary.instructions,
        exit_code: summary.exit_code,
        stdout: cpu.stdout().to_string(),
        baseline: sink.baseline,
        baseline_lanes,
        per_index: sink.per_index,
        edges,
    })
}

/// Transitions, total and per lane, that `image` puts on the bus over
/// the recorded fetch pairs.
pub fn image_transitions(image: &[u32], edges: &[(usize, usize, u64)]) -> (u64, [u64; LANES]) {
    let mut lanes = [0u64; LANES];
    let mut total = 0;
    for &(src, dst, n) in edges {
        let mut diff = image[src] ^ image[dst];
        total += n * u64::from(diff.count_ones());
        while diff != 0 {
            lanes[diff.trailing_zeros() as usize] += n;
            diff &= diff - 1;
        }
    }
    (total, lanes)
}

/// τ(x, y) from a 4-bit truth table, bit `(x << 1) | y` (the paper's
/// argument order: stored bit, then history bit).
fn tau(table: u8, x: bool, y: bool) -> bool {
    table >> ((u8::from(x) << 1) | u8::from(y)) & 1 == 1
}

/// Restores the stored image of a TT/BBIT encoding and requires it to
/// reproduce `text` word for word. For every BBIT entry the walk follows
/// its TT chain: x₁ = x̃₁, then xᵢ = τ(x̃ᵢ, xᵢ₋₁) under each entry's
/// per-lane τ; a chained entry's first fetch takes the overlap bit the
/// configuration names. Words outside every chain must be stored as-is.
/// Returns the fetches that pass through a chain, given `per_index`.
pub fn restore_walk(
    text: &[u32],
    encoded: &EncodedProgram,
    per_index: &[u64],
) -> Result<u64, String> {
    if encoded.text.len() != text.len() {
        return Err("stored image length differs from the program text".into());
    }
    let overlap = encoded.config.overlap();
    let entries = encoded.tt.entries();
    let mut walked = vec![false; text.len()];
    for bbit in encoded.bbit.entries() {
        let mut index = (bbit.pc.wrapping_sub(encoded.text_base) / 4) as usize;
        let (mut prev_stored, mut prev_restored) = (0u32, 0u32);
        for (block, tt) in (bbit.tt_index..).enumerate() {
            let entry = entries
                .get(tt)
                .ok_or_else(|| format!("BBIT {:#x} chains past the TT", bbit.pc))?;
            for fetch in 0..entry.covers {
                let stored = *encoded
                    .text
                    .get(index)
                    .ok_or_else(|| format!("chain from {:#x} runs off the text", bbit.pc))?;
                let restored = if block == 0 && fetch == 0 {
                    stored
                } else {
                    let history = if fetch == 0 && overlap == OverlapHistory::Stored {
                        prev_stored
                    } else {
                        prev_restored
                    };
                    (0..LANES).fold(0u32, |acc, lane| {
                        let bit = tau(
                            entry.lane_transforms[lane].table(),
                            stored >> lane & 1 == 1,
                            history >> lane & 1 == 1,
                        );
                        acc | u32::from(bit) << lane
                    })
                };
                if restored != text[index] {
                    return Err(format!(
                        "restore at word {index}: {restored:#010x} != original {:#010x}",
                        text[index]
                    ));
                }
                walked[index] = true;
                prev_stored = stored;
                prev_restored = restored;
                index += 1;
            }
            if entry.end {
                break;
            }
        }
    }
    for (index, (&stored, &original)) in encoded.text.iter().zip(text).enumerate() {
        if !walked[index] && stored != original {
            return Err(format!(
                "word {index} outside every chain is not stored as-is"
            ));
        }
    }
    Ok(walked
        .iter()
        .zip(per_index)
        .filter(|(w, _)| **w)
        .map(|(_, &n)| n)
        .sum())
}

/// Gray restore: the MSB-down XOR ripple, written out here.
pub fn ungray(stored: u32) -> u32 {
    let mut x = stored;
    let mut shift = 1;
    while shift < 32 {
        x ^= x >> shift;
        shift <<= 1;
    }
    x
}

/// Restores a memoryless stored image word by word with `restore` and
/// requires the program text back.
pub fn restore_memoryless(
    text: &[u32],
    image: &[u32],
    restore: impl Fn(u32) -> u32,
) -> Result<(), String> {
    if image.len() != text.len() {
        return Err("stored image length differs from the program text".into());
    }
    match text.iter().zip(image).position(|(&t, &s)| restore(s) != t) {
        Some(i) => Err(format!("restore of stored word {i} is not the original")),
        None => Ok(()),
    }
}

/// A low-weight codebook's restore, from its `(original, codeword)` pairs.
pub fn codebook_restore(pairs: &[(u32, u32)]) -> impl Fn(u32) -> u32 {
    let map: HashMap<u32, u32> = pairs.iter().map(|&(w, c)| (c, w)).collect();
    move |s| map.get(&s).copied().unwrap_or(s)
}

/// FNV-1a over 64-bit words: a compact stand-in for a vector that is
/// compared later.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

pub fn fnv_str(s: &str) -> u64 {
    fnv(s.bytes().map(u64::from))
}

/// The checked fields of one evaluation, in digest order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fields {
    pub fetches: u64,
    pub exit_code: i32,
    pub stdout: u64,
    pub baseline: u64,
    pub baseline_lanes: u64,
    pub encoded: u64,
    pub encoded_lanes: u64,
    pub decode_mismatches: u64,
    pub decoded_fetches: u64,
    pub passthrough_fetches: u64,
}

impl Fields {
    /// The fields of a reply's evaluation. `encoded_known` is false for
    /// the cycle-state bus-invert scheme, whose drive depends on live bus
    /// state and whose encoded count the benchmark does not recompute.
    pub fn of(e: &Evaluation, encoded_known: bool) -> Fields {
        let (encoded, encoded_lanes) = if encoded_known {
            (
                e.encoded_transitions,
                fnv(e.per_lane_encoded.iter().copied()),
            )
        } else {
            (0, 0)
        };
        Fields {
            fetches: e.fetches,
            exit_code: e.exit_code,
            stdout: fnv_str(&e.stdout),
            baseline: e.baseline_transitions,
            baseline_lanes: fnv(e.per_lane_baseline.iter().copied()),
            encoded,
            encoded_lanes,
            decode_mismatches: e.decode_mismatches,
            decoded_fetches: e.decoded_fetches,
            passthrough_fetches: e.passthrough_fetches,
        }
    }

    /// One word standing for these fields plus any `extra` words (path,
    /// fault summary, ...): what a reply record keeps.
    pub fn digest(&self, extra: &[u64]) -> u64 {
        fnv([
            self.fetches,
            self.exit_code as u64,
            self.stdout,
            self.baseline,
            self.baseline_lanes,
            self.encoded,
            self.encoded_lanes,
            self.decode_mismatches,
            self.decoded_fetches,
            self.passthrough_fetches,
        ]
        .into_iter()
        .chain(extra.iter().copied()))
    }
}

/// Everything the checks know about one program, independently of the
/// program under test: the recount of its run and its golden output.
#[derive(Debug)]
pub struct Truth {
    pub program: Program,
    pub recount: Recount,
    pub golden: String,
}

impl Truth {
    /// Assembles `source`, recounts its run and requires the run's
    /// stdout to equal `golden`.
    pub fn new(source: &str, max_steps: u64, golden: String) -> Result<Truth, String> {
        let program = imt_isa::asm::assemble(source).map_err(|e| e.to_string())?;
        let recount = recount(&program, max_steps)?;
        if recount.stdout != golden {
            return Err(format!(
                "simulated stdout {:?} differs from the golden model {golden:?}",
                recount.stdout
            ));
        }
        Ok(Truth {
            program,
            recount,
            golden,
        })
    }

    fn fields(&self, encoded: (u64, [u64; LANES]), decoded: u64) -> Fields {
        let r = &self.recount;
        Fields {
            fetches: r.fetches,
            exit_code: r.exit_code,
            stdout: fnv_str(&self.golden),
            baseline: r.baseline,
            baseline_lanes: fnv(r.baseline_lanes),
            encoded: encoded.0,
            encoded_lanes: fnv(encoded.1),
            decode_mismatches: 0,
            decoded_fetches: decoded,
            passthrough_fetches: r.fetches - decoded,
        }
    }

    /// What a TT/BBIT reply over `encoded` must show: the image restores
    /// to the text, and its transitions are the recount over the image.
    pub fn expect_tt(&self, encoded: &EncodedProgram) -> Result<Fields, String> {
        let decoded = restore_walk(&self.program.text, encoded, &self.recount.per_index)?;
        Ok(self.fields(
            image_transitions(&encoded.text, &self.recount.edges),
            decoded,
        ))
    }

    /// What a memoryless-scheme reply over `image` must show, given the
    /// benchmark's own `restore`.
    pub fn expect_memoryless(
        &self,
        image: &[u32],
        restore: impl Fn(u32) -> u32,
    ) -> Result<Fields, String> {
        restore_memoryless(&self.program.text, image, restore)?;
        let decoded = self
            .recount
            .per_index
            .iter()
            .zip(self.program.text.iter().zip(image))
            .filter(|(_, (t, s))| t != s)
            .map(|(&n, _)| n)
            .sum();
        Ok(self.fields(image_transitions(image, &self.recount.edges), decoded))
    }

    /// What a bus-invert reply must show: memory is untouched, so every
    /// fetch passes through; its encoded count is not recomputed.
    pub fn expect_unencoded(&self) -> Fields {
        Fields {
            encoded: 0,
            encoded_lanes: 0,
            ..self.fields((0, [0; LANES]), 0)
        }
    }
}

/// Requires a reply's digest to equal the expected one.
pub fn verify(
    what: &dyn Fn() -> String,
    expected: &Fields,
    extra: &[u64],
    got: u64,
) -> Result<(), String> {
    if expected.digest(extra) == got {
        Ok(())
    } else {
        Err(format!(
            "{}: reply differs from the independent recount (expected {expected:?}, extra {extra:?})",
            what()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imt_core::eval::evaluate_replay;
    use imt_core::{encode_program, EncoderConfig};
    use imt_kernels::Kernel;
    use imt_sim::edge::FetchEdgeProfile;

    /// A test-scale kernel, its truth, its encoding and the program's
    /// own (honest) evaluation of it.
    fn case(kernel: Kernel) -> (Truth, EncodedProgram, Evaluation) {
        let spec = kernel.test_spec();
        let truth = Truth::new(&spec.source, spec.max_steps, spec.expected_output.clone())
            .expect("test kernel runs and matches its golden output");
        let profile = FetchEdgeProfile::record(&truth.program, spec.max_steps).expect("records");
        let encoded = encode_program(
            &truth.program,
            &truth.recount.per_index,
            &EncoderConfig::default(),
        )
        .expect("encodes");
        let eval = evaluate_replay(&truth.program, &encoded, &profile).expect("replays");
        (truth, encoded, eval)
    }

    fn accepts(truth: &Truth, encoded: &EncodedProgram, eval: &Evaluation) -> bool {
        match truth.expect_tt(encoded) {
            Ok(expected) => verify(
                &|| "case".into(),
                &expected,
                &[],
                Fields::of(eval, true).digest(&[]),
            )
            .is_ok(),
            Err(_) => false,
        }
    }

    #[test]
    fn untampered_outputs_pass_every_check() {
        for kernel in Kernel::ALL {
            let (truth, encoded, eval) = case(kernel);
            assert!(!encoded.bbit.is_empty(), "{kernel}: nothing encoded");
            assert!(accepts(&truth, &encoded, &eval), "{kernel}");
        }
    }

    #[test]
    fn a_flipped_stored_word_is_rejected() {
        // Inside a chain: the restore walk no longer yields the text.
        let (truth, mut encoded, eval) = case(Kernel::Mmul);
        let index = (encoded.bbit.entries()[0].pc - encoded.text_base) as usize / 4 + 1;
        encoded.text[index] ^= 1 << 7;
        assert!(restore_walk(&truth.program.text, &encoded, &truth.recount.per_index).is_err());
        assert!(!accepts(&truth, &encoded, &eval));
        // Outside every chain: the word must be stored as-is.
        let (truth, mut encoded, eval) = case(Kernel::Tri);
        encoded.text[0] ^= 1;
        assert!(!accepts(&truth, &encoded, &eval));
        // A memoryless image with a flipped word does not restore.
        let text = &truth.program.text;
        let mut gray: Vec<u32> = text.iter().map(|&w| w ^ (w >> 1)).collect();
        assert!(truth.expect_memoryless(&gray, ungray).is_ok());
        gray[3] ^= 1 << 30;
        assert!(truth.expect_memoryless(&gray, ungray).is_err());
        let pairs = [(text[5], 1u32), (text[9], 2u32)];
        let mut book: Vec<u32> = text
            .iter()
            .map(|&w| pairs.iter().find(|p| p.0 == w).map_or(w, |p| p.1))
            .collect();
        assert!(truth
            .expect_memoryless(&book, codebook_restore(&pairs))
            .is_ok());
        book[5] = 3;
        assert!(truth
            .expect_memoryless(&book, codebook_restore(&pairs))
            .is_err());
    }

    #[test]
    fn an_off_by_one_transition_count_is_rejected() {
        let (truth, encoded, eval) = case(Kernel::Fft);
        let mut e = eval.clone();
        e.baseline_transitions += 1;
        assert!(!accepts(&truth, &encoded, &e));
        let mut e = eval.clone();
        e.encoded_transitions -= 1;
        assert!(!accepts(&truth, &encoded, &e));
        let mut e = eval.clone();
        e.per_lane_encoded[3] += 1;
        assert!(!accepts(&truth, &encoded, &e));
        let mut e = eval;
        e.per_lane_baseline[0] -= 1;
        assert!(!accepts(&truth, &encoded, &e));
    }

    #[test]
    fn a_wrong_stdout_is_rejected() {
        let (truth, encoded, eval) = case(Kernel::Lu);
        let mut e = eval;
        e.stdout = "0.0\n".into();
        assert!(!accepts(&truth, &encoded, &e));
        // A golden model that disagrees with the simulated run is refused
        // before any reply is compared.
        let spec = Kernel::Lu.test_spec();
        assert!(Truth::new(&spec.source, spec.max_steps, "1.5\n".into()).is_err());
    }

    #[test]
    fn recount_matches_a_full_simulation() {
        let spec = Kernel::Ej.test_spec();
        let (truth, encoded, _) = case(Kernel::Ej);
        let full =
            imt_core::eval::evaluate(&truth.program, &encoded, spec.max_steps).expect("sims");
        assert_eq!(truth.recount.baseline, full.baseline_transitions);
        assert_eq!(
            truth.recount.baseline_lanes.to_vec(),
            full.per_lane_baseline
        );
        assert_eq!(
            image_transitions(&encoded.text, &truth.recount.edges).0,
            full.encoded_transitions
        );
    }
}
