//! Seeded input generation: kernel instances and request streams.
//!
//! Everything the program receives is derived from the `--seed` argument
//! through [`Rng`], so one seed always yields the same inputs and another
//! seed yields a different draw from the same make-up (the same size
//! ranges, scheme shares and fault-plan shares; see README.md).

use imt_core::eval::EvalNeeds;
use imt_core::scheme::SchemeSpec;
use imt_core::{EncoderConfig, Protection};
use imt_fault::plan::FaultSurface;
use imt_kernels::{golden, sources, Kernel, KernelSpec};

/// SplitMix64: small, fast and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_1AB5_0F1A_7E55)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One kernel instance: a generator from `imt_kernels::sources` and its
/// size parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Instance {
    Mmul(usize),
    Sor(usize, usize),
    Ej(usize, usize),
    Fft(usize),
    Tri(usize, usize),
    Lu(usize),
}

impl Instance {
    /// The program's spec: assembly source, step budget and the expected
    /// output the generator attaches.
    pub fn spec(self) -> KernelSpec {
        match self {
            Instance::Mmul(n) => sources::mmul(n),
            Instance::Sor(n, s) => sources::sor(n, s),
            Instance::Ej(n, i) => sources::ej(n, i),
            Instance::Fft(l) => sources::fft(l),
            Instance::Tri(n, r) => sources::tri(n, r),
            Instance::Lu(n) => sources::lu(n),
        }
    }

    /// The host golden model's output, computed here rather than read
    /// from the spec, so the stdout check does not trust the generator.
    pub fn golden(self) -> String {
        match self {
            Instance::Mmul(n) => golden::mmul(n),
            Instance::Sor(n, s) => golden::sor(n, s),
            Instance::Ej(n, i) => golden::ej(n, i),
            Instance::Fft(l) => golden::fft(l),
            Instance::Tri(n, r) => golden::tri(n, r),
            Instance::Lu(n) => golden::lu(n),
        }
    }

    /// The paper-scale instance of a registered kernel (what a wire
    /// request naming `kernel` resolves to).
    pub fn paper(kernel: Kernel) -> Instance {
        match kernel {
            Kernel::Mmul => Instance::Mmul(100),
            Kernel::Sor => Instance::Sor(256, 2),
            Kernel::Ej => Instance::Ej(128, 25),
            Kernel::Fft => Instance::Fft(8),
            Kernel::Tri => Instance::Tri(128, 200),
            Kernel::Lu => Instance::Lu(128),
        }
    }
}

/// Every value of `lo..=hi`, as a pool to draw from without repeats.
fn span(lo: usize, hi: usize) -> Vec<usize> {
    (lo..=hi).collect()
}

fn pairs(a: &[usize], b: &[usize]) -> Vec<(usize, usize)> {
    a.iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .collect()
}

/// Per-generator pools of near-paper-scale sizes for the `cold`
/// workload (about 0.4–2× the paper kernel's work), each sorted by work.
/// `fft` is left out: its one parameter has only a handful of sizes near
/// paper scale, too few to keep every instance distinct.
pub fn cold_pools() -> Vec<Vec<Instance>> {
    let by_work = |mut pool: Vec<(usize, Instance)>| -> Vec<Instance> {
        pool.sort();
        pool.into_iter().map(|(_, inst)| inst).collect()
    };
    // `sor` work is n²·sweeps: one n range per sweep count.
    let sor = [(1, 256, 443), (2, 181, 313), (3, 148, 256), (4, 128, 221)]
        .into_iter()
        .flat_map(|(sweeps, lo, hi)| {
            span(lo, hi)
                .into_iter()
                .map(move |n| (n * n * sweeps, Instance::Sor(n, sweeps)))
        })
        .collect();
    vec![
        by_work(
            span(64, 112)
                .into_iter()
                .map(|n| (n * n * n, Instance::Mmul(n)))
                .collect(),
        ),
        by_work(sor),
        by_work(
            pairs(&span(100, 150), &span(15, 35))
                .into_iter()
                .map(|(n, i)| (n * n * i, Instance::Ej(n, i)))
                .collect(),
        ),
        by_work(
            pairs(&span(96, 160), &span(150, 250))
                .into_iter()
                .map(|(n, r)| (n * r, Instance::Tri(n, r)))
                .collect(),
        ),
        by_work(
            span(100, 150)
                .into_iter()
                .map(|n| (n * n * n, Instance::Lu(n)))
                .collect(),
        ),
    ]
}

/// The order in which `cold` draws from a pool of `len` instances sorted
/// by work: bit-reversed indices, so every prefix spreads evenly over the
/// sizes, shifted by a seeded offset, so each seed draws other instances.
pub fn stratified_order(len: usize, offset: usize) -> Vec<usize> {
    let bits = usize::BITS - len.saturating_sub(1).leading_zeros();
    (0..1usize << bits)
        .map(|j| {
            if bits == 0 {
                0
            } else {
                j.reverse_bits() >> (usize::BITS - bits)
            }
        })
        .filter(|&j| j < len)
        .map(|j| (j + offset) % len)
        .collect()
}

/// Pool indices (into [`cold_pools`]) in the order one rotation of 32
/// draws them: `sor`, `ej` and `tri` ten times each, and the
/// one-parameter generators (`mmul`, `lu`), whose pools hold only 49 and
/// 51 sizes, once each.
fn cold_rotation() -> Vec<usize> {
    let mut rotation = Vec::with_capacity(32);
    for once in [0, 4] {
        rotation.push(once);
        for _ in 0..5 {
            rotation.extend([1, 2, 3]);
        }
    }
    rotation
}

/// The `cold` instance sequence: generators in a fixed rotation, each
/// drawing from its own stratified order, so every instance is distinct
/// and every seed sees the same generator mix and size spread. It holds
/// only whole rotations and ends before any pool runs out (49 rotations,
/// 1,568 instances, bounded by `mmul`), so the mix never changes within
/// a run; a run that reaches its end fails its check instead.
pub fn cold_sequence(seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(seed);
    let pools = cold_pools();
    let orders: Vec<Vec<usize>> = pools
        .iter()
        .map(|pool| stratified_order(pool.len(), rng.range(0, pool.len() - 1)))
        .collect();
    let rotation = cold_rotation();
    let mut per_rotation = vec![0usize; pools.len()];
    for &g in &rotation {
        per_rotation[g] += 1;
    }
    let rotations = (0..pools.len())
        .filter(|&g| per_rotation[g] > 0)
        .map(|g| pools[g].len() / per_rotation[g])
        .min()
        .unwrap_or(0);
    let mut taken = vec![0usize; pools.len()];
    let mut out = Vec::with_capacity(rotations * rotation.len());
    for _ in 0..rotations {
        for &g in &rotation {
            out.push(pools[g][orders[g][taken[g]]]);
            taken[g] += 1;
        }
    }
    out
}

/// The `fullsim` pool: two mid-size instances per generator (roughly
/// 50k–300k fetches each, between test and paper scale), one from the
/// lower and one from the upper part of a narrow seeded size range, so
/// every seed draws other instances of nearly the same total work.
pub fn fullsim_pool(seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(seed ^ 0xF011);
    let mut pool = vec![
        Instance::Mmul(rng.range(20, 22)),
        Instance::Mmul(rng.range(24, 26)),
        Instance::Sor(rng.range(46, 50), 2),
        Instance::Sor(rng.range(54, 58), 2),
        Instance::Ej(rng.range(24, 27), 5),
        Instance::Ej(rng.range(28, 31), 5),
        Instance::Fft(8),
        Instance::Fft(9),
        Instance::Tri(rng.range(34, 38), 25),
        Instance::Tri(rng.range(42, 46), 25),
        Instance::Lu(rng.range(24, 27)),
        Instance::Lu(rng.range(28, 31)),
    ];
    pool.sort();
    pool
}

/// One encode/evaluate request as the benchmark describes it: which
/// instance, the encoder settings, the scheme, needs and fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub instance: Instance,
    pub block_size: usize,
    pub tt_capacity: usize,
    pub bbit_capacity: usize,
    pub max_loops: usize,
    pub scheme: SchemeSpec,
    pub needs: EvalNeeds,
    pub fault: Option<FaultJob>,
}

/// A fault plan over the TT/BBIT tables, replayed under a protection
/// code that must keep every delivered word correct.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultJob {
    /// The plan in the `AT:TARGET[,...]` grammar.
    pub plan: String,
    /// Number of upsets in the plan (all trigger inside the window).
    pub upsets: usize,
    pub protection: Protection,
    pub window: usize,
}

impl Job {
    /// A TT/BBIT request with the default encoder settings at block size
    /// `k`.
    pub fn plain(instance: Instance, k: usize) -> Job {
        let d = EncoderConfig::default();
        Job {
            instance,
            block_size: k,
            tt_capacity: d.tt_capacity(),
            bbit_capacity: d.bbit_capacity(),
            max_loops: d.max_loops(),
            scheme: SchemeSpec::TtBbit,
            needs: EvalNeeds::transitions_only(),
            fault: None,
        }
    }

    pub fn config(&self) -> EncoderConfig {
        EncoderConfig::default()
            .with_block_size(self.block_size)
            .expect("generated block sizes are in 4..=7")
            .with_tt_capacity(self.tt_capacity)
            .with_bbit_capacity(self.bbit_capacity)
            .with_max_loops(self.max_loops)
    }

    /// Whether the service answers this job by full simulation.
    pub fn full_sim(&self) -> bool {
        self.needs.full_sim_reason().is_some() || self.scheme == SchemeSpec::BusInvert
    }
}

/// Sizes of the `sweep` design space, one axis each.
const SWEEP_BLOCKS: [usize; 4] = [4, 5, 6, 7];
const SWEEP_TT: (usize, usize) = (4, 64);
const SWEEP_BBIT: (usize, usize) = (2, 32);
const SWEEP_LOOPS: (usize, usize) = (1, 4);
const SWEEP_SCHEMES: [SchemeSpec; 3] = [
    SchemeSpec::TtBbit,
    SchemeSpec::Gray,
    SchemeSpec::LowWeight {
        entries: SchemeSpec::DEFAULT_LOW_WEIGHT_ENTRIES,
    },
];

fn axis((lo, hi): (usize, usize)) -> usize {
    hi - lo + 1
}

/// Number of points in the `sweep` design space.
pub fn sweep_space() -> u64 {
    (Kernel::ALL.len()
        * SWEEP_BLOCKS.len()
        * axis(SWEEP_TT)
        * axis(SWEEP_BBIT)
        * axis(SWEEP_LOOPS)
        * SWEEP_SCHEMES.len()) as u64
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A seeded walk over the `sweep` design space that visits each point at
/// most once: `i ↦ (a·i + c) mod N` with `a` coprime to `N`.
#[derive(Debug, Clone, Copy)]
pub struct SweepStream {
    a: u64,
    c: u64,
}

impl SweepStream {
    pub fn new(seed: u64) -> SweepStream {
        let n = sweep_space();
        let mut rng = Rng::new(seed ^ 0x5EE9);
        let mut a = rng.next_u64() % n;
        while a == 0 || gcd(a, n) != 1 {
            a = (a + 1) % n;
        }
        SweepStream {
            a,
            c: rng.next_u64() % n,
        }
    }

    /// The `i`-th request (distinct for every `i` below [`sweep_space`]).
    pub fn job(&self, i: u64) -> Job {
        let n = sweep_space();
        let mut p =
            ((u128::from(self.a) * u128::from(i % n) + u128::from(self.c)) % u128::from(n)) as u64;
        let mut take = |len: usize| {
            let v = (p % len as u64) as usize;
            p /= len as u64;
            v
        };
        let kernel = Kernel::ALL[take(Kernel::ALL.len())];
        let block_size = SWEEP_BLOCKS[take(SWEEP_BLOCKS.len())];
        let tt_capacity = SWEEP_TT.0 + take(axis(SWEEP_TT));
        let bbit_capacity = SWEEP_BBIT.0 + take(axis(SWEEP_BBIT));
        let max_loops = SWEEP_LOOPS.0 + take(axis(SWEEP_LOOPS));
        let scheme = SWEEP_SCHEMES[take(SWEEP_SCHEMES.len())];
        Job {
            instance: Instance::paper(kernel),
            block_size,
            tt_capacity,
            bbit_capacity,
            max_loops,
            scheme,
            needs: EvalNeeds::transitions_only(),
            fault: None,
        }
    }
}

/// The seven non-empty need sets that force full simulation.
fn needs_from_bits(bits: usize) -> EvalNeeds {
    EvalNeeds {
        icache: bits & 1 != 0,
        timing: bits & 2 != 0,
        address_bus: bits & 4 != 0,
    }
}

/// The `fullsim` request stream: even indices are full-simulation
/// requests (a need set beyond transitions, or one in eight the
/// cycle-state `businvert` scheme); odd indices are fault-plan requests
/// under parity or SEC. `surface(instance, k, protection)` reports the
/// table sizes the plan may address; `fetches(instance)` bounds the
/// trigger points.
pub fn fullsim_job(
    seed: u64,
    pool: &[Instance],
    i: u64,
    surface: &dyn Fn(Instance, usize, Protection) -> FaultSurface,
    fetches: &dyn Fn(Instance) -> u64,
) -> Job {
    let mut rng = Rng::new(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA17);
    // Each kind of request cycles through the pool, so every run sees the
    // same instance mix.
    let instance = pool[(i / 2) as usize % pool.len()];
    let mut job = Job::plain(instance, rng.range(4, 7));
    if i.is_multiple_of(2) {
        // Distinct capacities keep every full-sim request a result-memo
        // miss: the index itself picks the (tt, bbit, loops) triple.
        job.tt_capacity = 8 + (i / 2 % 57) as usize;
        job.bbit_capacity = 4 + (i / 2 / 57 % 29) as usize;
        job.max_loops = 1 + (i / 2 / 57 / 29 % 4) as usize;
        if rng.range(0, 7) == 0 {
            job.scheme = SchemeSpec::BusInvert;
        } else {
            job.needs = needs_from_bits(rng.range(1, 7));
        }
        return job;
    }
    let protection = if rng.range(0, 1) == 0 {
        Protection::Parity
    } else {
        Protection::Sec
    };
    let window = rng.range(8_000, 20_000);
    let limit = window.min(fetches(instance) as usize);
    let s = surface(instance, job.block_size, protection);
    let upsets = rng.range(1, 3);
    let mut targets = Vec::new();
    let mut used = Vec::new();
    for _ in 0..upsets {
        // One upset per table entry: a single-bit upset is what parity
        // detects and SEC corrects.
        let total = s.tt_entries + s.bbit_entries;
        if total == 0 {
            break;
        }
        let entry = rng.range(0, total - 1);
        if used.contains(&entry) {
            continue;
        }
        used.push(entry);
        let at = rng.range(0, limit - 1);
        let target = if entry < s.tt_entries {
            format!("tt:{entry}:{}", rng.range(0, s.tt_bits_per_entry - 1))
        } else {
            let e = entry - s.tt_entries;
            format!("bbit:{e}:{}", rng.range(0, s.bbit_bits_per_entry - 1))
        };
        targets.push(format!("{at}:{target}"));
    }
    job.fault = Some(FaultJob {
        upsets: targets.len(),
        plan: targets.join(","),
        protection,
        window,
    });
    job
}

/// The 72 distinct `wire` requests: paper-scale kernels × block sizes
/// 4–7 × the three memoryless schemes, kernels innermost so that priming
/// them in order warms every kernel first.
pub fn wire_requests() -> Vec<(Kernel, usize, SchemeSpec)> {
    let mut out = Vec::new();
    for k in 4..=7 {
        for scheme in SWEEP_SCHEMES {
            for kernel in PAPER_BY_WORK {
                out.push((kernel, k, scheme));
            }
        }
    }
    out
}

/// The paper kernels, longest profile recording first: warming them in
/// this order keeps both workers busy until the last warm ends.
pub const PAPER_BY_WORK: [Kernel; 6] = [
    Kernel::Mmul,
    Kernel::Ej,
    Kernel::Lu,
    Kernel::Sor,
    Kernel::Tri,
    Kernel::Fft,
];

/// The `i`-th `wire` request: a seeded draw (with repeats) from
/// [`wire_requests`].
pub fn wire_pick(seed: u64, i: u64) -> usize {
    let mut rng = Rng::new(seed ^ 0x817E ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.range(0, wire_requests().len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_inputs_other_seed_other_instances() {
        assert_eq!(cold_sequence(1), cold_sequence(1));
        assert_ne!(cold_sequence(1)[..20], cold_sequence(2)[..20]);
        assert_eq!(fullsim_pool(1), fullsim_pool(1));
        let (a, b) = (SweepStream::new(1), SweepStream::new(2));
        assert_eq!(a.job(17), SweepStream::new(1).job(17));
        assert!((0..50).any(|i| a.job(i) != b.job(i)));
        let order = |seed| (0..100).map(|i| wire_pick(seed, i)).collect::<Vec<_>>();
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
    }

    #[test]
    fn cold_instances_are_distinct_and_keep_the_generator_mix() {
        let seq = cold_sequence(7);
        let unique: HashSet<_> = seq.iter().collect();
        assert_eq!(unique.len(), seq.len());
        // The first rotations repeat the same generator pattern.
        let kinds: Vec<_> = seq[..64].iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds[..32], kinds[32..]);
        // Only whole rotations, each with the same generator pattern,
        // up to the pool that runs out first (`mmul`, 49 sizes).
        assert_eq!(seq.len(), 49 * 32);
        for (i, chunk) in seq.chunks(32).enumerate() {
            let chunk: Vec<_> = chunk.iter().map(std::mem::discriminant).collect();
            assert_eq!(chunk, &kinds[..32], "rotation {i}");
        }
    }

    #[test]
    fn stratified_orders_are_permutations_with_even_prefixes() {
        for (len, offset) in [(1, 0), (7, 3), (49, 11), (64, 0), (101, 100)] {
            let mut order = stratified_order(len, offset);
            let prefix: Vec<usize> = order.iter().take(len.div_ceil(4)).copied().collect();
            order.sort_unstable();
            assert_eq!(order, (0..len).collect::<Vec<_>>());
            // A quarter of the draws reaches into every quarter of the
            // (circular) size order.
            if len >= 16 {
                for q in 0..4 {
                    let lo = (offset + q * len / 4) % len;
                    assert!(
                        prefix.iter().any(|&i| (i + len - lo) % len < len / 4 + 1),
                        "len {len} offset {offset} quarter {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_requests_are_distinct() {
        let stream = SweepStream::new(11);
        let keys: HashSet<_> = (0..20_000)
            .map(|i| format!("{:?}", stream.job(i)))
            .collect();
        assert_eq!(keys.len(), 20_000);
    }

    #[test]
    fn fullsim_full_sim_requests_are_distinct_and_faults_stay_in_range() {
        let pool = fullsim_pool(5);
        let surface = |_: Instance, _: usize, _: Protection| FaultSurface {
            tt_entries: 10,
            tt_bits_per_entry: 40,
            bbit_entries: 4,
            bbit_bits_per_entry: 30,
            text_words: 100,
        };
        let fetches = |_: Instance| 50_000u64;
        let mut seen = HashSet::new();
        for i in 0..4000u64 {
            let job = fullsim_job(5, &pool, i, &surface, &fetches);
            if i % 2 == 0 {
                assert!(job.full_sim() && job.fault.is_none());
                assert!(seen.insert(format!("{job:?}")), "repeat at {i}");
            } else {
                let fault = job.fault.expect("odd requests carry a plan");
                let plan = imt_fault::plan::FaultPlan::parse(&fault.plan).expect("plan parses");
                assert_eq!(plan.faults().len(), fault.upsets);
                assert!(plan.faults().iter().all(|f| f.at_fetch < 20_000));
            }
        }
    }

    /// Every instance a workload can draw assembles and matches its
    /// golden output; the run checks the simulated output separately.
    #[test]
    fn generated_instances_assemble_and_have_golden_output() {
        let mut instances: Vec<Instance> = Vec::new();
        for seed in [1u64, 2] {
            instances.extend(cold_sequence(seed).into_iter().take(15));
            instances.extend(fullsim_pool(seed));
        }
        // Corners of every cold range.
        for pool in cold_pools() {
            instances.push(*pool.first().expect("pool is non-empty"));
            instances.push(*pool.last().expect("pool is non-empty"));
        }
        instances.extend(Kernel::ALL.map(Instance::paper));
        for instance in instances {
            let spec = instance.spec();
            let program = imt_isa::asm::assemble(&spec.source)
                .unwrap_or_else(|e| panic!("{instance:?} does not assemble: {e}"));
            assert!(!program.text.is_empty());
            assert_eq!(spec.expected_output, instance.golden(), "{instance:?}");
            assert!(!instance.golden().is_empty());
        }
    }
}
