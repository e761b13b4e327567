//! `sweep`: design-space exploration on programs the service has already
//! profiled.
//!
//! Every request is a distinct point of the design space (block size, TT
//! and BBIT capacity, loop count, memoryless scheme), so each one misses
//! the result memo and is answered by encode + replay. `core` and
//! `bitcode` do the work; `sim` does none.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use imt_bitcode::par::par_map_coarse;
use imt_core::encode_program;
use imt_core::eval::evaluate_replay;
use imt_core::scheme::{build_scheme, evaluate_scheme_replay, LowWeightScheme, SchemeSpec};
use imt_kernels::{Kernel, KernelSpec};
use imt_serve::request::Request;
use imt_serve::service::{Service, ServiceConfig};
use imt_sim::edge::FetchEdgeProfile;

use crate::check::{codebook_restore, ungray, verify, Fields, Truth};
use crate::gen::{Instance, Job, SweepStream, PAPER_BY_WORK};
use crate::harness::{closed_loop, Phase, Reply, SpanLog};
use crate::{LayerReport, Row, Workload, CLIENTS, WORKERS};

pub struct Sweep {
    stream: SweepStream,
    next: AtomicU64,
    specs: HashMap<Instance, KernelSpec>,
    service: Service,
}

/// Warms the six paper kernels with a configuration outside the sweep's
/// design space, so no timed request hits the result memo.
pub fn warm_paper_kernels(service: &Service) -> Result<HashMap<Instance, KernelSpec>, String> {
    let mut specs = HashMap::new();
    let mut tickets = Vec::new();
    for kernel in PAPER_BY_WORK {
        let instance = Instance::paper(kernel);
        let spec = kernel.paper_spec();
        let config = Job::plain(instance, 5).config().with_tt_capacity(2);
        tickets.push(
            service
                .submit(Request::new(spec.clone(), config))
                .map_err(|e| e.to_string())?,
        );
        specs.insert(instance, spec);
    }
    for ticket in tickets {
        ticket
            .wait()
            .outcome
            .map_err(|e| format!("warm failed: {e}"))?;
    }
    Ok(specs)
}

pub fn setup(seed: u64) -> Result<Box<dyn Workload>, String> {
    let service = Service::start(ServiceConfig::default().with_workers(WORKERS));
    let specs = warm_paper_kernels(&service)?;
    Ok(Box::new(Sweep {
        stream: SweepStream::new(seed),
        next: AtomicU64::new(0),
        specs,
        service,
    }))
}

/// The checks' view of one paper kernel: its truth plus the stored
/// images of the schemes whose image does not depend on the encoder
/// configuration.
pub struct PaperTruth {
    pub truth: Truth,
    pub gray: Fields,
    pub lowweight: Fields,
}

pub fn paper_truths(kernels: &[Kernel]) -> Result<HashMap<Instance, PaperTruth>, String> {
    let built = par_map_coarse(kernels, 1, |_, &kernel| {
        let instance = Instance::paper(kernel);
        let spec = instance.spec();
        let truth = Truth::new(&spec.source, spec.max_steps, instance.golden())
            .map_err(|e| format!("{instance:?}: {e}"))?;
        let gray_image = build_scheme(
            SchemeSpec::Gray,
            &truth.program,
            &truth.recount.per_index,
            &Job::plain(instance, 5).config(),
        )
        .map_err(|e| e.to_string())?;
        let gray = truth.expect_memoryless(gray_image.stored_image(), ungray)?;
        let book = LowWeightScheme::new(
            &truth.program,
            &truth.recount.per_index,
            SchemeSpec::DEFAULT_LOW_WEIGHT_ENTRIES,
        );
        use imt_core::scheme::Encoder;
        let lowweight =
            truth.expect_memoryless(book.stored_image(), codebook_restore(book.book().pairs()))?;
        Ok::<_, String>((
            instance,
            PaperTruth {
                truth,
                gray,
                lowweight,
            },
        ))
    });
    built.into_iter().collect()
}

/// What a reply to `job` must show, from the paper kernel's truth.
pub fn expect(job: &Job, t: &PaperTruth) -> Result<Fields, String> {
    match job.scheme {
        SchemeSpec::TtBbit => {
            let encoded =
                encode_program(&t.truth.program, &t.truth.recount.per_index, &job.config())
                    .map_err(|e| e.to_string())?;
            t.truth.expect_tt(&encoded)
        }
        SchemeSpec::Gray => Ok(t.gray),
        SchemeSpec::LowWeight { .. } => Ok(t.lowweight),
        SchemeSpec::BusInvert => Ok(t.truth.expect_unencoded()),
    }
}

impl Workload for Sweep {
    fn load(&self, duration: Duration) -> Phase {
        closed_loop(CLIENTS, duration, |replies, tally| {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            let job = self.stream.job(i);
            let request = Request::new(self.specs[&job.instance].clone(), job.config())
                .with_scheme(job.scheme);
            tally.attempted += 1;
            let t0 = Instant::now();
            let ticket = match self.service.submit(request) {
                Ok(ticket) => ticket,
                Err(_) => {
                    tally.failed += 1;
                    return true;
                }
            };
            let response = ticket.wait();
            let latency = t0.elapsed();
            match response.outcome {
                Ok(done) => {
                    let e = &done.evaluation;
                    tally.baseline += e.baseline_transitions;
                    tally.encoded += e.encoded_transitions;
                    tally.fetches += e.fetches;
                    tally.queue_ns += response.queue_ns;
                    tally.service_ns += response.service_ns;
                    replies.push(Reply::new(i, Fields::of(e, true).digest(&[]), latency));
                }
                Err(_) => tally.failed += 1,
            }
            true
        })
    }

    fn check(&self, phases: &[&Phase]) -> Result<(), String> {
        let truths = paper_truths(&Kernel::ALL)?;
        let replies: Vec<Reply> = phases
            .iter()
            .flat_map(|p| p.replies.iter().copied())
            .collect();
        par_map_coarse(&replies, 1, |_, r| {
            let job = self.stream.job(r.job.into());
            let expected = expect(&job, &truths[&job.instance])?;
            verify(
                &|| format!("sweep request {}: {job:?}", r.job),
                &expected,
                &[],
                r.digest,
            )
        })
        .into_iter()
        .collect()
    }

    fn layers(&self, phase: &Phase, log: &mut SpanLog) -> LayerReport {
        let mut programs = HashMap::new();
        for (instance, spec) in &self.specs {
            let program = spec.assemble();
            let profile =
                FetchEdgeProfile::record(&program, spec.max_steps).expect("a paper kernel records");
            let per_index = profile.per_index_counts();
            programs.insert(*instance, (program, profile, per_index));
        }
        let budget = Instant::now() + Duration::from_secs(3);
        for r in phase.replies.iter().take(20_000) {
            if Instant::now() > budget {
                break;
            }
            let job = self.stream.job(r.job.into());
            let (program, profile, per_index) = &programs[&job.instance];
            let root = log.open("request", None);
            if job.scheme == SchemeSpec::TtBbit {
                let encoded = log
                    .time("core.encode", Some(root), || {
                        encode_program(program, per_index, &job.config())
                    })
                    .expect("a paper kernel encodes");
                log.time("core.replay", Some(root), || {
                    evaluate_replay(program, &encoded, profile)
                })
                .expect("a paper kernel replays");
            } else {
                let scheme = log
                    .time("core.scheme_encode", Some(root), || {
                        build_scheme(job.scheme, program, per_index, &job.config())
                    })
                    .expect("memoryless schemes build");
                log.time("core.scheme_replay", Some(root), || {
                    evaluate_scheme_replay(scheme.as_ref(), program, profile)
                })
                .expect("memoryless schemes replay");
            }
            log.close(root);
        }
        let (tt_us, tt_n) = (
            log.mean_self_us("core.encode").0 + log.mean_self_us("core.replay").0,
            log.mean_self_us("core.encode").1,
        );
        let (sc_us, sc_n) = (
            log.mean_self_us("core.scheme_encode").0 + log.mean_self_us("core.scheme_replay").0,
            log.mean_self_us("core.scheme_encode").1,
        );
        let share = tt_n as f64 / (tt_n + sc_n).max(1) as f64;
        LayerReport {
            metrics: vec![
                ("core.encode_us", log.mean_self_us("core.encode").0),
                ("core.replay_us", log.mean_self_us("core.replay").0),
            ],
            rows: vec![
                Row::service("core (TT encode + replay)", tt_us * share),
                Row::service(
                    "core (gray/lowweight build + replay)",
                    sc_us * (1.0 - share),
                ),
            ],
            distinct_keys: 0,
            note: None,
        }
    }

    fn service(&self) -> &Service {
        &self.service
    }

    fn shutdown(self: Box<Self>) {
        self.service.shutdown();
    }
}
