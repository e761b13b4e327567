//! `wire`: many callers asking questions that were already answered.
//!
//! A reactor server (one event loop, two workers) runs on a Unix socket
//! inside the benchmark process, and every request is primed into the
//! result memo, so the timed phase is all memo hits. Two persistent
//! connections, each on its own thread, pipeline up to eight requests.
//! The frame codec, the reactor, the per-request spec build and the memo
//! lookup do all the work.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use imt_bitcode::par::par_map_coarse;
use imt_core::encode_program;
use imt_core::eval::{evaluate_replay, Evaluation};
use imt_core::scheme::{build_scheme, evaluate_scheme_replay, SchemeSpec};
use imt_core::EncoderConfig;
use imt_kernels::Kernel;
use imt_net::msg::{NetCompleted, NetRequest, NetResponse};
use imt_net::pool::PersistentClient;
use imt_net::reactor::{ReactorConfig, ReactorServer};
use imt_net::wire::{Frame, FrameDecoder, FrameKind};
use imt_net::ListenAddr;
use imt_serve::service::{Admission, Service, ServiceConfig};
use imt_sim::edge::FetchEdgeProfile;

use crate::check::{fnv_str, verify, Fields};
use crate::gen::{wire_pick, wire_requests, Instance, Job};
use crate::harness::{Phase, Reply, Scratch, SpanLog, Tally};
use crate::sweep::{expect, paper_truths};
use crate::{LayerReport, Row, Workload, CLIENTS, WORKERS};

/// Requests each connection keeps in flight.
const PIPELINE: usize = 8;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Wire {
    seed: u64,
    requests: Vec<(Kernel, usize, SchemeSpec)>,
    next: AtomicU64,
    conns: Vec<Mutex<PersistentClient>>,
    server: ReactorServer,
    service: Arc<Service>,
}

fn net_request(&(kernel, k, scheme): &(Kernel, usize, SchemeSpec)) -> NetRequest {
    NetRequest::new(kernel.name(), false)
        .with_block_size(k as u32)
        .with_scheme(scheme.name())
}

/// Extra reply words the checks compare beyond the evaluation.
fn extra(replay_path: bool, encoded_blocks: u64, block_size: u64, kernel: &str) -> [u64; 4] {
    [
        u64::from(replay_path),
        encoded_blocks,
        block_size,
        fnv_str(kernel),
    ]
}

/// Server start (reactor + service) and a priming pass that answers
/// every distinct request once, so the timed phase is all memo hits.
pub fn setup(seed: u64, scratch: &Scratch) -> Result<Box<dyn Workload>, String> {
    let service = Arc::new(Service::start(
        ServiceConfig::default()
            .with_workers(WORKERS)
            .with_admission(Admission::Reject),
    ));
    let socket = scratch
        .fresh_dir("wire")
        .map_err(|e| e.to_string())?
        .join("s");
    let server = ReactorServer::start(
        Arc::clone(&service),
        &ListenAddr::Unix(socket),
        ReactorConfig::default().with_reactors(1),
    )
    .map_err(|e| format!("reactor start: {e}"))?;
    let connect =
        || PersistentClient::connect(server.local_addr(), IO_TIMEOUT).map_err(|e| e.to_string());
    let requests = wire_requests();
    let mut primer = connect()?;
    for chunk in requests.chunks(PIPELINE) {
        let ids = chunk
            .iter()
            .map(|r| primer.send(&net_request(r)).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        for id in ids {
            let response = primer.recv(id).map_err(|e| e.to_string())?;
            response
                .outcome
                .map_err(|e| format!("priming failed: {e}"))?;
        }
    }
    let conns = (0..CLIENTS)
        .map(|_| connect().map(Mutex::new))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Box::new(Wire {
        seed,
        requests,
        next: AtomicU64::new(0),
        conns,
        server,
        service,
    }))
}

impl Wire {
    fn client(&self, conn: &mut PersistentClient, deadline: Instant) -> (Vec<Reply>, Tally) {
        let mut replies = Vec::new();
        let mut tally = Tally::default();
        let mut in_flight: HashMap<u64, (Instant, usize)> = HashMap::new();
        loop {
            while in_flight.len() < PIPELINE && Instant::now() < deadline {
                let which = wire_pick(self.seed, self.next.fetch_add(1, Ordering::SeqCst));
                tally.attempted += 1;
                let t0 = Instant::now();
                match conn.send(&net_request(&self.requests[which])) {
                    Ok(id) => {
                        in_flight.insert(id, (t0, which));
                    }
                    Err(_) => tally.failed += 1,
                }
            }
            if in_flight.is_empty() {
                break;
            }
            let Ok((id, response)) = conn.recv_any() else {
                // The connection is poisoned: everything in flight is lost.
                tally.failed += in_flight.len() as u64;
                break;
            };
            let Some((t0, which)) = in_flight.remove(&id) else {
                tally.failed += 1;
                continue;
            };
            let latency = t0.elapsed();
            match response.outcome {
                Ok(done) => {
                    let e = &done.evaluation;
                    tally.baseline += e.baseline_transitions;
                    tally.encoded += e.encoded_transitions;
                    tally.fetches += e.fetches;
                    tally.queue_ns += response.queue_ns;
                    tally.service_ns += response.service_ns;
                    let x = extra(
                        done.replay_path,
                        done.encoded_blocks,
                        response.block_size,
                        &response.kernel,
                    );
                    replies.push(Reply::new(
                        which as u64,
                        Fields::of(e, true).digest(&x),
                        latency,
                    ));
                }
                Err(_) => tally.failed += 1,
            }
        }
        (replies, tally)
    }
}

/// A paper kernel as the service warms it: program and recorded profile.
struct PaperRun {
    name: String,
    program: imt_isa::Program,
    profile: FetchEdgeProfile,
    per_index: Vec<u64>,
}

fn paper_runs(kernels: &[Kernel]) -> Result<HashMap<Kernel, PaperRun>, String> {
    par_map_coarse(kernels, 1, |_, &kernel| {
        let spec = kernel.paper_spec();
        let program = spec.assemble();
        let profile =
            FetchEdgeProfile::record(&program, spec.max_steps).map_err(|e| e.to_string())?;
        let per_index = profile.per_index_counts();
        Ok((
            kernel,
            PaperRun {
                name: spec.name,
                program,
                profile,
                per_index,
            },
        ))
    })
    .into_iter()
    .collect()
}

/// A direct `encode_program` + replay of one wire request, outside the
/// service: the evaluation and the encoded block count.
fn reference(run: &PaperRun, k: usize, scheme: SchemeSpec) -> Result<(Evaluation, u64), String> {
    let config = EncoderConfig::default()
        .with_block_size(k)
        .map_err(|e| e.to_string())?;
    if scheme == SchemeSpec::TtBbit {
        let encoded =
            encode_program(&run.program, &run.per_index, &config).map_err(|e| e.to_string())?;
        let eval =
            evaluate_replay(&run.program, &encoded, &run.profile).map_err(|e| e.to_string())?;
        Ok((eval, encoded.report.encoded.len() as u64))
    } else {
        let built = build_scheme(scheme, &run.program, &run.per_index, &config)
            .map_err(|e| e.to_string())?;
        let eval = evaluate_scheme_replay(built.as_ref(), &run.program, &run.profile)
            .map_err(|e| e.to_string())?;
        Ok((eval.to_evaluation(), 0))
    }
}

impl Workload for Wire {
    fn load(&self, duration: Duration) -> Phase {
        let start = Instant::now();
        let deadline = start + duration;
        let parts = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter()
                .map(|conn| {
                    scope.spawn(move || {
                        let mut conn = conn.lock().expect("one thread per connection");
                        self.client(&mut conn, deadline)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        Phase::merge(parts, start)
    }

    fn check(&self, phases: &[&Phase]) -> Result<(), String> {
        let used: Vec<usize> = phases
            .iter()
            .flat_map(|p| p.replies.iter().map(|r| r.job as usize))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let kernels: Vec<Kernel> = Kernel::ALL
            .into_iter()
            .filter(|k| used.iter().any(|&w| self.requests[w].0 == *k))
            .collect();
        let truths = paper_truths(&kernels)?;
        let runs = paper_runs(&kernels)?;
        let mut digests = HashMap::new();
        for &w in &used {
            let (kernel, k, scheme) = self.requests[w];
            let run = &runs[&kernel];
            let (evaluation, blocks) = reference(run, k, scheme)?;
            // The reference itself must agree with the independent recount.
            let mut job = Job::plain(Instance::paper(kernel), k);
            job.scheme = scheme;
            let independent = expect(&job, &truths[&job.instance])?;
            verify(
                &|| format!("reference for {kernel} k={k} {}", scheme.name()),
                &independent,
                &[],
                Fields::of(&evaluation, true).digest(&[]),
            )?;
            digests.insert(
                w,
                Fields::of(&evaluation, true).digest(&extra(true, blocks, k as u64, &run.name)),
            );
        }
        for r in phases.iter().flat_map(|p| p.replies.iter()) {
            if digests[&(r.job as usize)] != r.digest {
                let (kernel, k, scheme) = self.requests[r.job as usize];
                return Err(format!(
                    "wire reply for {kernel} k={k} {} differs from a direct encode + replay",
                    scheme.name()
                ));
            }
        }
        Ok(())
    }

    fn layers(&self, phase: &Phase, log: &mut SpanLog) -> LayerReport {
        // The reactor thread's per-request work outside the service:
        // decode the request frame, rebuild the paper-scale spec, and
        // encode the response frame; the client encodes the request and
        // decodes the response.
        let runs = paper_runs(&Kernel::ALL).expect("paper kernels record");
        let mut responses = HashMap::new();
        let budget = Instant::now() + Duration::from_secs(3);
        let (mut bytes, mut n) = (0u64, 0u64);
        let mut scratch = Vec::new();
        let mut decoder = FrameDecoder::new();
        for r in phase.replies.iter().take(5_000) {
            if Instant::now() > budget {
                break;
            }
            let which = r.job as usize;
            let req = net_request(&self.requests[which]);
            let (kernel, k, scheme) = self.requests[which];
            let response = responses.entry(which).or_insert_with(|| {
                let run = &runs[&kernel];
                let (evaluation, blocks) = reference(run, k, scheme).expect("paper kernels replay");
                NetResponse {
                    id: 1,
                    kernel: run.name.clone(),
                    block_size: k as u64,
                    outcome: Ok(NetCompleted {
                        evaluation,
                        replay_path: true,
                        encoded_blocks: blocks,
                        fault: None,
                    }),
                    queue_ns: 1,
                    service_ns: 1,
                    batch_size: 1,
                    worker: 0,
                    missed_deadline: false,
                }
            });
            let root = log.open("request", None);
            let mut request_frame = Vec::new();
            let enc = log.open("net.frame_encode", Some(root));
            Frame::encode_parts_into(FrameKind::Request, 7, &req.encode(), &mut request_frame)
                .expect("a request frame fits");
            scratch.clear();
            Frame::encode_parts_into(FrameKind::Response, 7, &response.encode(), &mut scratch)
                .expect("a response frame fits");
            log.close(enc);
            let dec = log.open("net.frame_decode", Some(root));
            for frame in [&request_frame, &scratch] {
                decoder.feed(frame);
                let view = decoder
                    .next_frame()
                    .expect("frames decode")
                    .expect("a whole frame");
                if view.kind == FrameKind::Request {
                    std::hint::black_box(
                        NetRequest::decode(view.payload).expect("request decodes"),
                    );
                } else {
                    std::hint::black_box(
                        NetResponse::decode(view.payload).expect("response decodes"),
                    );
                }
            }
            log.close(dec);
            log.time("kernels.spec_build", Some(root), || kernel.paper_spec());
            log.close(root);
            bytes += (request_frame.len() + scratch.len()) as u64;
            n += 1;
        }
        let per = |name| log.mean_self_us(name).0;
        let (latency, queue, service) = (
            phase.mean_latency_us(),
            phase.mean_queue_us(),
            phase.mean_service_us(),
        );
        let reactor_us =
            per("kernels.spec_build") + per("net.frame_encode") + per("net.frame_decode");
        LayerReport {
            metrics: vec![
                ("kernels.spec_build_us", per("kernels.spec_build")),
                ("serve.memo_hit_us", service),
                ("net.rtt_us", latency),
                ("net.server_residual_us", latency - queue - service),
                ("net.frame_encode_ns", per("net.frame_encode") * 1e3),
                ("net.frame_decode_ns", per("net.frame_decode") * 1e3),
                ("net.bytes_per_req", bytes as f64 / n.max(1) as f64),
            ],
            rows: vec![
                Row::path("kernels (spec rebuild on the reactor)", per("kernels.spec_build")),
                Row::path(
                    "net (frame encode + decode, both ends)",
                    per("net.frame_encode") + per("net.frame_decode"),
                ),
            ],
            distinct_keys: 0,
            note: Some(format!(
                "the one reactor thread rebuilds the spec and handles frames: {reactor_us:.0} us per request \
                 caps it near {:.0} req/s (measured {:.0}), so pipelined requests queue behind it: \
                 that wait is the residual",
                1e6 / reactor_us,
                phase.req_per_s()
            )),
        }
    }

    fn service(&self) -> &Service {
        &self.service
    }

    fn shutdown(self: Box<Self>) {
        let Wire {
            conns,
            server,
            service,
            ..
        } = *self;
        drop(conns);
        server.stop();
        drop(service);
    }
}
