//! `fullsim`: fidelity evaluation and fault campaigns.
//!
//! Two kinds of request alternate. One needs icache, timing or
//! address-bus statistics, or uses the cycle-state `businvert` scheme:
//! both route to full simulation. The other carries a fault plan over
//! the TT/BBIT tables under parity or SEC, replayed over a recorded fetch
//! window. The per-fetch work of the fetch decoder and bus monitors
//! dominates; fault replays drive the same decoder through its
//! protection checks.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use imt_bitcode::par::par_map_coarse;
use imt_core::eval::{evaluate, evaluate_replay, EvalPath};
use imt_core::hardware::FetchDecoder;
use imt_core::scheme::{build_scheme, evaluate_scheme_full, SchemeSpec};
use imt_core::{encode_program, Protection};
use imt_fault::plan::{FaultPlan, FaultSurface};
use imt_fault::trace::{self, FetchTrace};
use imt_kernels::KernelSpec;
use imt_serve::request::Request;
use imt_serve::service::{Service, ServiceConfig};
use imt_sim::edge::FetchEdgeProfile;

use crate::check::{verify, Fields, Truth};
use crate::gen::{fullsim_job, fullsim_pool, Instance, Job};
use crate::harness::{closed_loop, Phase, Reply, SpanLog};
use crate::{LayerReport, Row, Workload, CLIENTS, WORKERS};

/// The generated inputs: the instance pool plus what drawing fault
/// targets needs (table sizes per instance, block size and protection,
/// and each instance's fetch count).
pub struct Inputs {
    seed: u64,
    pool: Vec<Instance>,
    specs: HashMap<Instance, KernelSpec>,
    fetches: HashMap<Instance, u64>,
    surfaces: HashMap<(Instance, usize, Protection), FaultSurface>,
}

pub fn prepare(seed: u64) -> Result<Inputs, String> {
    let pool = fullsim_pool(seed);
    let mut specs = HashMap::new();
    let mut fetches = HashMap::new();
    let mut surfaces = HashMap::new();
    for &instance in &pool {
        let spec = instance.spec();
        let run = spec.run().map_err(|e| format!("{instance:?}: {e}"))?;
        for k in 4..=7 {
            let config = Job::plain(instance, k).config();
            let encoded =
                encode_program(&run.program, &run.profile, &config).map_err(|e| e.to_string())?;
            for protection in [Protection::Parity, Protection::Sec] {
                let decoder = FetchDecoder::with_protection(
                    &encoded.tt,
                    &encoded.bbit,
                    32,
                    k,
                    config.overlap(),
                    config.transforms(),
                    protection,
                )
                .map_err(|e| e.to_string())?;
                surfaces.insert(
                    (instance, k, protection),
                    FaultSurface::of(&decoder, run.program.text.len()),
                );
            }
        }
        fetches.insert(instance, run.instructions);
        specs.insert(instance, spec);
    }
    Ok(Inputs {
        seed,
        pool,
        specs,
        fetches,
        surfaces,
    })
}

impl Inputs {
    fn job(&self, i: u64) -> Job {
        fullsim_job(
            self.seed,
            &self.pool,
            i,
            &|inst, k, p| self.surfaces[&(inst, k, p)],
            &|inst| self.fetches[&inst],
        )
    }
}

pub struct FullSim {
    inputs: Arc<Inputs>,
    next: AtomicU64,
    service: Service,
}

/// Service start plus a warm of every pool instance (with a TT capacity
/// outside the request stream's, so no timed request hits the memo).
pub fn setup(inputs: &Arc<Inputs>) -> Result<Box<dyn Workload>, String> {
    let service = Service::start(ServiceConfig::default().with_workers(WORKERS));
    let mut tickets = Vec::new();
    for &instance in &inputs.pool {
        let config = Job::plain(instance, 5).config().with_tt_capacity(2);
        let request = Request::new(inputs.specs[&instance].clone(), config);
        tickets.push(service.submit(request).map_err(|e| e.to_string())?);
    }
    for ticket in tickets {
        ticket
            .wait()
            .outcome
            .map_err(|e| format!("warm failed: {e}"))?;
    }
    Ok(Box::new(FullSim {
        inputs: Arc::clone(inputs),
        next: AtomicU64::new(0),
        service,
    }))
}

fn request(job: &Job, spec: &KernelSpec) -> Result<Request, String> {
    let mut request = Request::new(spec.clone(), job.config()).with_scheme(job.scheme);
    request.needs = job.needs;
    if let Some(fault) = &job.fault {
        let plan = FaultPlan::parse(&fault.plan).map_err(|e| e.to_string())?;
        request = request.with_faults(plan, fault.protection);
        request.fault_window = fault.window;
    }
    Ok(request)
}

/// Extra reply words the checks compare: whether full simulation served
/// it, and how many upsets the fault replay applied.
fn extra(job: &Job) -> [u64; 2] {
    [
        u64::from(job.full_sim()),
        job.fault.as_ref().map_or(0, |f| f.upsets as u64),
    ]
}

impl Workload for FullSim {
    fn load(&self, duration: Duration) -> Phase {
        closed_loop(CLIENTS, duration, |replies, tally| {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            let job = self.inputs.job(i);
            tally.attempted += 1;
            let Ok(request) = request(&job, &self.inputs.specs[&job.instance]) else {
                tally.failed += 1;
                return true;
            };
            let t0 = Instant::now();
            let Ok(ticket) = self.service.submit(request) else {
                tally.failed += 1;
                return true;
            };
            let response = ticket.wait();
            let latency = t0.elapsed();
            match response.outcome {
                Ok(done) => {
                    let e = &done.evaluation;
                    tally.baseline += e.baseline_transitions;
                    tally.encoded += e.encoded_transitions;
                    tally.fetches += match &job.fault {
                        Some(f) => e.fetches.min(f.window as u64),
                        None => e.fetches,
                    };
                    tally.queue_ns += response.queue_ns;
                    tally.service_ns += response.service_ns;
                    let full_sim = matches!(done.path, EvalPath::FullSim(_));
                    let injected = done.fault.as_ref().map_or(0, |f| f.injected);
                    let known = job.scheme != SchemeSpec::BusInvert;
                    replies.push(Reply::new(
                        i,
                        Fields::of(e, known).digest(&[u64::from(full_sim), injected]),
                        latency,
                    ));
                }
                Err(_) => tally.failed += 1,
            }
            true
        })
    }

    fn check(&self, phases: &[&Phase]) -> Result<(), String> {
        let replies: Vec<Reply> = phases
            .iter()
            .flat_map(|p| p.replies.iter().copied())
            .collect();
        let jobs: Vec<Job> = replies
            .iter()
            .map(|r| self.inputs.job(r.job.into()))
            .collect();
        let instances: Vec<Instance> = jobs
            .iter()
            .map(|j| j.instance)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let truths = par_map_coarse(&instances, 1, |_, &inst| {
            let spec = &self.inputs.specs[&inst];
            Truth::new(&spec.source, spec.max_steps, inst.golden())
                .map_err(|e| format!("{inst:?}: {e}"))
        });
        let mut by_instance = HashMap::new();
        for (inst, truth) in instances.iter().zip(truths) {
            by_instance.insert(*inst, truth?);
        }
        let pairs: Vec<(Reply, Job)> = replies.into_iter().zip(jobs).collect();
        par_map_coarse(&pairs, 1, |_, (r, job)| {
            let truth = &by_instance[&job.instance];
            let expected = if job.scheme == SchemeSpec::BusInvert {
                truth.expect_unencoded()
            } else {
                let encoded =
                    encode_program(&truth.program, &truth.recount.per_index, &job.config())
                        .map_err(|e| e.to_string())?;
                truth.expect_tt(&encoded)?
            };
            verify(
                &|| format!("fullsim request {}: {job:?}", r.job),
                &expected,
                &extra(job),
                r.digest,
            )
        })
        .into_iter()
        .collect()
    }

    fn layers(&self, phase: &Phase, log: &mut SpanLog) -> LayerReport {
        let mut profiles = HashMap::new();
        for (instance, spec) in &self.inputs.specs {
            let program = spec.assemble();
            let profile = FetchEdgeProfile::record(&program, spec.max_steps)
                .expect("a pool instance records");
            let per_index = profile.per_index_counts();
            profiles.insert(*instance, (program, profile, per_index));
        }
        let budget = Instant::now() + Duration::from_secs(4);
        let (mut sim_fetches, mut window_fetches, mut full_n, mut fault_n) =
            (0u64, 0u64, 0u64, 0u64);
        for r in &phase.replies {
            if Instant::now() > budget {
                break;
            }
            let job = self.inputs.job(r.job.into());
            let spec = &self.inputs.specs[&job.instance];
            let (program, profile, per_index) = &profiles[&job.instance];
            let root = log.open("request", None);
            let config = job.config();
            if job.scheme == SchemeSpec::BusInvert {
                let mut scheme = log
                    .time("core.encode", Some(root), || {
                        build_scheme(job.scheme, program, per_index, &config)
                    })
                    .expect("businvert builds");
                log.time("core.fullsim", Some(root), || {
                    evaluate_scheme_full(scheme.as_mut(), program, spec.max_steps)
                })
                .expect("businvert simulates");
            } else {
                let encoded = log
                    .time("core.encode", Some(root), || {
                        encode_program(program, per_index, &config)
                    })
                    .expect("a pool instance encodes");
                match &job.fault {
                    None => {
                        log.time("core.fullsim", Some(root), || {
                            evaluate(program, &encoded, spec.max_steps)
                        })
                        .expect("a pool instance simulates");
                    }
                    Some(fault) => {
                        log.time("core.replay", Some(root), || {
                            evaluate_replay(program, &encoded, profile)
                        })
                        .expect("a pool instance replays");
                        let window = log
                            .time("fault.record", Some(root), || {
                                FetchTrace::record(program, &encoded, spec.max_steps, fault.window)
                            })
                            .expect("the fault window records");
                        let plan = FaultPlan::parse(&fault.plan).expect("generated plans parse");
                        log.time("fault.replay", Some(root), || {
                            trace::replay(&window, &encoded, fault.protection, &plan)
                        })
                        .expect("the fault window replays");
                        window_fetches += window.len() as u64;
                        fault_n += 1;
                    }
                }
            }
            if job.fault.is_none() {
                sim_fetches += profile.fetches();
                full_n += 1;
            }
            log.close(root);
        }
        let per = |name| log.mean_self_us(name).0;
        let fullsim_us = per("core.fullsim");
        let replay_us = per("fault.replay");
        let total = (full_n + fault_n).max(1) as f64;
        let (full_share, fault_share) = (full_n as f64 / total, fault_n as f64 / total);
        LayerReport {
            metrics: vec![
                ("core.encode_us", per("core.encode")),
                ("core.replay_us", per("core.replay")),
                ("core.fullsim_ms", fullsim_us / 1e3),
                (
                    "core.fullsim_mfetch_per_s",
                    sim_fetches as f64 / full_n.max(1) as f64 / fullsim_us,
                ),
                ("fault.replay_us", replay_us),
                (
                    "fault.replay_mfetch_per_s",
                    window_fetches as f64 / fault_n.max(1) as f64 / replay_us,
                ),
            ],
            rows: vec![
                Row::service("core (encode)", per("core.encode")),
                Row::service("core (full simulation)", fullsim_us * full_share),
                Row::service(
                    "core (replay, fault requests)",
                    per("core.replay") * fault_share,
                ),
                Row::service(
                    "fault (record window + replay)",
                    (per("fault.record") + replay_us) * fault_share,
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
