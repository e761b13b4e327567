//! `cold`: programs the service has never seen.
//!
//! Each client takes the next seeded instance and submits its four block
//! sizes at once, then waits for the four replies. Profile recording
//! (`sim`) is nearly all of the work, and two requests for the same new
//! key can reach both workers at once — where duplicate warms waste it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use imt_bitcode::par::par_map_coarse;
use imt_core::encode_program;
use imt_core::eval::evaluate_replay;
use imt_kernels::Kernel;
use imt_serve::request::Request;
use imt_serve::service::{Service, ServiceConfig};
use imt_sim::edge::FetchEdgeProfile;

use crate::check::{verify, Fields, Truth};
use crate::gen::{Instance, Job};
use crate::harness::{closed_loop, Phase, Reply, SpanLog};
use crate::{LayerReport, Row, Workload, CLIENTS, WORKERS};

const BLOCK_SIZES: std::ops::RangeInclusive<usize> = 4..=7;

/// Instances the traced run replays through the layers (about 4 s).
const REPLAYED: usize = 40;

pub struct Cold {
    seq: Arc<Vec<Instance>>,
    next: AtomicUsize,
    /// Set when a client found the sequence used up: the run's check
    /// then fails instead of reporting a load with another mix.
    exhausted: AtomicBool,
    service: Service,
}

/// Service start, ended by one readiness request (the paper-scale `fft`,
/// a generator the timed phase never draws from) so that set-up lasts
/// until the service has answered; the runner has pointed the profile
/// cache at an empty directory private to this set-up.
pub fn setup(seq: &Arc<Vec<Instance>>) -> Result<Box<dyn Workload>, String> {
    let service = Service::start(ServiceConfig::default().with_workers(WORKERS));
    let ready = Instance::paper(Kernel::Fft);
    service
        .submit(Request::new(ready.spec(), Job::plain(ready, 5).config()))
        .map_err(|e| e.to_string())?
        .wait()
        .outcome
        .map_err(|e| format!("readiness request failed: {e}"))?;
    Ok(Box::new(Cold {
        seq: Arc::clone(seq),
        next: AtomicUsize::new(0),
        exhausted: AtomicBool::new(false),
        service,
    }))
}

fn job_id(i: usize, k: usize) -> u64 {
    (i * 8 + k) as u64
}

impl Workload for Cold {
    fn load(&self, duration: Duration) -> Phase {
        closed_loop(CLIENTS, duration, |replies, tally| {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            let Some(&instance) = self.seq.get(i) else {
                self.exhausted.store(true, Ordering::SeqCst);
                return false;
            };
            let spec = instance.spec();
            let mut sent = Vec::new();
            for k in BLOCK_SIZES {
                let request = Request::new(spec.clone(), Job::plain(instance, k).config());
                tally.attempted += 1;
                let t0 = Instant::now();
                match self.service.submit(request) {
                    Ok(ticket) => sent.push((k, t0, ticket)),
                    Err(_) => tally.failed += 1,
                }
            }
            for (k, t0, ticket) in sent {
                let response = ticket.wait();
                let latency = t0.elapsed();
                match response.outcome {
                    Ok(done) => {
                        let e = &done.evaluation;
                        tally.baseline += e.baseline_transitions;
                        tally.encoded += e.encoded_transitions;
                        if k == *BLOCK_SIZES.start() {
                            // Each distinct instance's fetches count once.
                            tally.fetches += e.fetches;
                        }
                        tally.queue_ns += response.queue_ns;
                        tally.service_ns += response.service_ns;
                        replies.push(Reply::new(
                            job_id(i, k),
                            Fields::of(e, true).digest(&[]),
                            latency,
                        ));
                    }
                    Err(_) => tally.failed += 1,
                }
            }
            true
        })
    }

    fn check(&self, phases: &[&Phase]) -> Result<(), String> {
        if self.exhausted.load(Ordering::SeqCst) {
            return Err(format!(
                "the {} seeded instances ran out before the run ended; \
                 the benchmark needs a longer instance sequence",
                self.seq.len()
            ));
        }
        let replies: Vec<Reply> = phases
            .iter()
            .flat_map(|p| p.replies.iter().copied())
            .collect();
        let instances: Vec<usize> = replies
            .iter()
            .map(|r| (r.job / 8) as usize)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let truths = par_map_coarse(&instances, 1, |_, &i| {
            let inst = self.seq[i];
            let spec = inst.spec();
            Truth::new(&spec.source, spec.max_steps, inst.golden())
                .map_err(|e| format!("{inst:?}: {e}"))
        });
        let mut by_instance = std::collections::HashMap::new();
        for (i, truth) in instances.iter().zip(truths) {
            by_instance.insert(*i, truth?);
        }
        let results = par_map_coarse(&replies, 1, |_, r| {
            let (i, k) = ((r.job / 8) as usize, (r.job % 8) as usize);
            let inst = self.seq[i];
            let truth = &by_instance[&i];
            let config = Job::plain(inst, k).config();
            let encoded = encode_program(&truth.program, &truth.recount.per_index, &config)
                .map_err(|e| e.to_string())?;
            let expected = truth.expect_tt(&encoded)?;
            verify(&|| format!("{inst:?} k={k}"), &expected, &[], r.digest)
        });
        results.into_iter().collect()
    }

    fn layers(&self, phase: &Phase, log: &mut SpanLog) -> LayerReport {
        // Replay the traced phase's instances, in order, through each
        // layer a cold request passes: spec build (client side), then the
        // warm (assemble + record), then encode + replay per block size.
        let mut instances: Vec<usize> =
            phase.replies.iter().map(|r| (r.job / 8) as usize).collect();
        instances.sort_unstable();
        instances.dedup();
        // An even stride over the phase keeps the sample's size mix that
        // of the whole phase while bounding the replay's time.
        let stride = instances.len().div_ceil(REPLAYED).max(1);
        let (mut words, mut fetches, mut n) = (0u64, 0u64, 0u64);
        for &i in instances.iter().step_by(stride) {
            let inst = self.seq[i];
            let root = log.open("request", None);
            let spec = log.time("kernels.spec_build", Some(root), || inst.spec());
            let program = log.time("isa.assemble", Some(root), || spec.assemble());
            let profile = log
                .time("sim.record", Some(root), || {
                    FetchEdgeProfile::record(&program, spec.max_steps)
                })
                .expect("a generated instance records");
            let per_index = profile.per_index_counts();
            for k in BLOCK_SIZES {
                let config = Job::plain(inst, k).config();
                let encoded = log
                    .time("core.encode", Some(root), || {
                        encode_program(&program, &per_index, &config)
                    })
                    .expect("a generated instance encodes");
                log.time("core.replay", Some(root), || {
                    evaluate_replay(&program, &encoded, &profile)
                })
                .expect("a generated instance replays");
            }
            log.close(root);
            words += program.text.len() as u64;
            fetches += profile.fetches();
            n += 1;
        }
        let per = |name| log.mean_self_us(name).0;
        let record_us = per("sim.record");
        let mean_fetches = fetches as f64 / n.max(1) as f64;
        let k = BLOCK_SIZES.count() as f64;
        LayerReport {
            metrics: vec![
                ("kernels.spec_build_us", per("kernels.spec_build")),
                ("isa.assemble_us", per("isa.assemble")),
                ("isa.words", words as f64 / n.max(1) as f64),
                ("sim.record_ms", record_us / 1e3),
                ("sim.record_mfetch_per_s", mean_fetches / record_us),
                ("sim.fetches", mean_fetches),
                ("core.encode_us", per("core.encode")),
                ("core.replay_us", per("core.replay")),
            ],
            // Every request waits for its batch's warm, so the warm is on
            // each request's path in full.
            rows: vec![
                Row::service("isa (assemble, in the warm)", per("isa.assemble")),
                Row::service("sim (record, in the warm)", record_us),
                Row::service(
                    "core (encode + replay)",
                    per("core.encode") + per("core.replay"),
                ),
                Row::off_path(
                    "kernels (spec build, before submit)",
                    per("kernels.spec_build") / k,
                ),
            ],
            distinct_keys: instances.len() as u64,
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
