//! The concurrent decision server: one prerendered decision-table
//! plane in front of a bounded-queue worker pool with explicit
//! backpressure over the shared [`Decider`].
//!
//! ## Architecture
//!
//! One readiness-polled event loop (`crate::event_loop`) on one thread
//! owns every connection: parsing, response writes, idle sweeping,
//! deadlines, and the drain all run there — no thread per connection,
//! so ten thousand idle keep-alive clients cost one file descriptor
//! apiece. Workers reach the loop through one completion inbox and one
//! waker on [`Shared`].
//!
//! Requests are answered at one of three costs:
//!
//! 1. **Table answers** — `POST /v1/plan` (and batches whose every
//!    element the table answers) for the server's configured model,
//!    plus out-of-range refusals: answered on the event loop as a
//!    [`Response`] holding the table's `Arc<str>` body. No lock, no
//!    queue, no engine; the plan bytes were rendered once at start.
//! 2. **Inline reads** — `/metrics`, summaries: answered on the loop,
//!    reading atomics or taking a short lock.
//! 3. **Worker jobs** — telemetry, constraint overrides, other zoo
//!    models: queued on the bounded queue. A full queue
//!    answers `503` with `Retry-After` immediately — the queue bound
//!    is the server's only buffer, so memory stays flat under
//!    overload. Each job carries a deadline; the loop's sweep answers
//!    `504` when it passes, and a worker popping an already-expired
//!    job drops it instead of burning engine time on an abandoned
//!    reply.
//!
//! The default model's [`RenderedPlans`] is the only table. It is
//! built in [`start`] before any thread exists and only read
//! afterwards, so it needs no lock and no atomic. One function,
//! `table_answer`, answers a plan request from it, on the loop and on
//! the workers alike; a worker decides live only what the table
//! cannot answer, on the request model's decider, whose memo serves
//! repeats. Table bytes and live bytes are the same bytes: both render
//! through [`plan_response`], so a client cannot tell which path
//! answered.
//!
//! ## Shutdown
//!
//! `POST /v1/shutdown` (or [`ServerHandle::shutdown`]) flips one
//! flag. The loop drops the listener (closing the port), workers
//! drain every job already queued, in-flight responses flush with
//! `connection: close`, idle connections are swept, and
//! [`ServerHandle::join`] returns when the loop has wound down.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use agequant_check::sync::atomic::{AtomicBool, Ordering};
use agequant_check::sync::{Arc, Mutex, RwLock};
use agequant_check::thread::{self, JoinHandle};

use agequant_aging::{ModelSpec, VthShift};
use agequant_core::EvalEngine;
use agequant_fleet::{AutopilotConfig, Chip, Decider, Decision, FleetConfig, FleetError, FleetSim};
use serde::{Deserialize, Value};

use crate::config::ServeConfig;
use crate::event_loop::{self, Completion, Token};
use crate::http::{Request, Response};
use crate::metrics::{Endpoint, Metrics, ROUTES};
use crate::queue::BoundedQueue;
use crate::ServeError;

/// Telemetry may advance the hosted fleet at most this many epochs in
/// one request, bounding worst-case work per call.
const MAX_EPOCH_ADVANCE: u64 = 10_000;
/// `POST /v1/plan/batch` accepts at most this many elements, bounding
/// the engine time one queued job can consume.
const MAX_BATCH: usize = 1024;

/// `POST /v1/plan` body.
#[derive(Debug, Deserialize)]
struct PlanRequest {
    /// Measured ΔVth, millivolts.
    delta_vth_mv: f64,
    /// Optional constraint override as a fraction of the fresh
    /// critical path (the fleet's configured factor when absent).
    constraint_factor: Option<f64>,
    /// Optional degradation-model selector (a zoo name from
    /// `GET /v1/models`); the server's configured model when absent,
    /// so pre-existing clients see byte-identical responses.
    model: Option<String>,
}

/// `POST /v1/telemetry` body.
#[derive(Debug, Deserialize)]
struct TelemetryRequest {
    /// Chip id in the hosted fleet.
    chip: u32,
    /// The epoch the sample was taken at.
    epoch: u64,
    /// Optionally, the chip's measured ΔVth for cross-checking
    /// against the model (never mutates server state).
    delta_vth_mv: Option<f64>,
}

/// `POST /v1/autopilot/enroll` body: optional overrides on the demo
/// controller. An empty body enrolls with the stock configuration.
#[derive(Debug, Deserialize)]
struct EnrollRequest {
    /// Telemetry tokens added to the fleet bucket each epoch.
    budget_messages_per_epoch: Option<u64>,
    /// Bucket capacity: the largest burst one epoch may spend.
    budget_burst: Option<u64>,
}

/// A parsed decision call waiting for a worker.
enum ApiCall {
    Plan(PlanRequest),
    PlanBatch(Vec<PlanRequest>),
    Telemetry(TelemetryRequest),
}

/// One queued unit of work, addressed back to its connection by token.
struct Job {
    call: ApiCall,
    token: Token,
    deadline: Instant,
}

/// Prerendered `/v1/plan` response bodies for the server's configured
/// model: index by bucket, answer with an `Arc<str>` clone — the
/// wire-speed path.
struct RenderedPlans {
    /// The bucket grid pitch mapping ΔVth onto body indices, mV.
    bucket_mv: f64,
    bodies: Vec<Arc<str>>,
}

impl RenderedPlans {
    /// Decides every bucket of the served range `0..=max_mv` through
    /// `decider` and renders each through [`plan_response`] — the same
    /// function a live decision renders through, which is what makes a
    /// table answer bit-identical to it.
    fn build(decider: &Decider, max_mv: f64) -> Result<Self, FleetError> {
        let max_bucket = decider.bucket_of(VthShift::from_millivolts(max_mv + 1e-9));
        let bodies = (0..=max_bucket)
            .map(|bucket| {
                let decision = decider.decide_bucket(bucket)?;
                Ok(Arc::from(render_value(&plan_response(decider, &decision))))
            })
            .collect::<Result<_, FleetError>>()?;
        Ok(RenderedPlans {
            bucket_mv: decider.config().bucket_mv,
            bodies,
        })
    }

    fn body_for(&self, mv: f64) -> Option<&Arc<str>> {
        let bucket = Chip::bucket_of(VthShift::from_millivolts(mv), self.bucket_mv);
        usize::try_from(bucket)
            .ok()
            .and_then(|b| self.bodies.get(b))
    }
}

/// How a routed request is answered.
pub(crate) enum Routed {
    /// Answered on the event loop: render it and move on.
    Ready(Response),
    /// Parked on the worker pool; a [`Completion`] will arrive.
    Pending,
}

/// State shared by the event loop and the workers.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    addr: SocketAddr,
    decider: Arc<Decider>,
    /// The engine every decider (default and per-model) plans through;
    /// cache entries are model-keyed, so sharing is safe and the
    /// `/metrics` split stays exact.
    engine: Arc<EvalEngine>,
    /// Lazily built deciders for non-default zoo models requested via
    /// `POST /v1/plan`'s `model` field, keyed by zoo name.
    model_deciders: RwLock<BTreeMap<String, Arc<Decider>>>,
    fleet: Mutex<FleetSim>,
    pub(crate) metrics: Metrics,
    queue: BoundedQueue<Job>,
    /// The configured model's plan table, written before any thread
    /// exists and only read afterwards.
    plans: RenderedPlans,
    /// Finished worker replies, waiting for the event loop.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Write end of the event loop's waker socket.
    waker: TcpStream,
    shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Interrupts the event loop's current `poll`. Best-effort: a full
    /// waker socket already guarantees a pending wakeup.
    fn wake(&self) {
        use std::io::Write;
        let _ = (&self.waker).write(&[1]);
    }
}

/// A running server. Dropping the handle does NOT stop the server;
/// call [`ServerHandle::shutdown`] (or hit `POST /v1/shutdown`) and
/// then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared decision core — the reference tests compare server
    /// responses against.
    #[must_use]
    pub fn decider(&self) -> Arc<Decider> {
        Arc::clone(&self.shared.decider)
    }

    /// Requests a graceful drain: stop accepting, finish queued work.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Waits for the drain to complete: listener closed, queue empty,
    /// workers exited, every connection wound down by the loop. The
    /// handle stays usable afterwards (e.g. for [`write_checkpoint`]).
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    pub fn join(&mut self) {
        if let Some(handle) = self.event_loop.take() {
            handle.join().expect("event loop thread");
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread");
        }
    }

    /// Convenience: shutdown then join.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    pub fn shutdown_and_join(mut self) {
        self.shutdown();
        self.join();
    }
}

/// Builds and starts the server: binds the address, plans the hosted
/// fleet's epoch-0 decisions (warming the engine), materializes the
/// default model's decision table, seeds the journal file, and spawns
/// the event loop and worker threads.
///
/// # Errors
///
/// Returns [`ServeError::Config`] on an invalid configuration,
/// [`ServeError::Fleet`] if the decision core or the default model's
/// decision table cannot be built or the epoch-0 journal cannot be
/// appended, or [`ServeError::Io`] if the address cannot be bound or
/// the journal cannot be created.
pub fn start(config: ServeConfig, fleet_config: FleetConfig) -> Result<ServerHandle, ServeError> {
    config.validate()?;
    let mut fleet_config = fleet_config;
    fleet_config.chips = config.fleet_chips;
    fleet_config.seed = config.fleet_seed;
    let engine = Arc::new(EvalEngine::new(fleet_config.flow.process.clone()));
    let decider = Arc::new(
        Decider::with_engine(&fleet_config, Arc::clone(&engine)).map_err(ServeError::Fleet)?,
    );
    let mut sim = FleetSim::new_with_decider(Arc::clone(&decider)).map_err(ServeError::Fleet)?;

    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| ServeError::Io(format!("bind {}: {e}", config.addr)))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::Io(e.to_string()))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ServeError::Io(e.to_string()))?;

    if let Some(path) = &config.journal {
        // Each server run owns its journal file from epoch 0, so the
        // file alone satisfies the journal causality lint.
        std::fs::write(path, "").map_err(|e| ServeError::Io(format!("{path}: {e}")))?;
    }
    sim.flush_journal(config.journal.as_deref().map(Path::new))?;

    // Materialize the default model's decision table on a throwaway
    // decider (its own engine), so the shared engine's cache counters
    // keep reflecting exactly the fleet warm-up plus live traffic.
    let scratch = Decider::from_config(&fleet_config)?;
    let plans = RenderedPlans::build(&scratch, config.max_mv)?;

    let (waker_rx, waker) = event_loop::waker_pair().map_err(|e| ServeError::Io(e.to_string()))?;

    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(config.queue_depth as usize),
        config,
        addr,
        decider,
        engine,
        model_deciders: RwLock::new(BTreeMap::new()),
        fleet: Mutex::new(sim),
        metrics: Metrics::new(),
        plans,
        completions: Mutex::new(Vec::new()),
        waker,
        shutdown: AtomicBool::new(false),
    });

    let workers = (0..shared.config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let loop_shared = Arc::clone(&shared);
    let event_loop = thread::Builder::new()
        .name("serve-loop".to_string())
        .spawn(move || event_loop::run(loop_shared, listener, waker_rx))
        .expect("spawn event loop");

    Ok(ServerHandle {
        shared,
        event_loop: Some(event_loop),
        workers,
    })
}

fn initiate_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Closing refuses new work and wakes every worker to drain the
    // backlog; the queue hands out `None` once it runs dry.
    shared.queue.close();
    // Kick the event loop so the drain starts without waiting for the
    // next poll tick.
    shared.wake();
}

// ------------------------------------------------------------ plan answers

/// Answers a plan request from the prerendered table, if it can: a
/// `400` for a ΔVth outside the served range, the table body for the
/// configured model, otherwise `None` (a constraint override, or
/// another zoo model). The event loop and the workers both answer
/// through this one function.
fn table_answer(shared: &Shared, request: &PlanRequest) -> Option<Response> {
    let mv = request.delta_vth_mv;
    if !served_range(shared, mv) {
        return Some(Response::json(400, error_body(&range_message(shared, mv))));
    }
    if request.constraint_factor.is_some() {
        return None;
    }
    let key = shared.decider.flow().model_key();
    if request.model.as_deref().is_some_and(|model| model != key) {
        return None;
    }
    let body = shared.plans.body_for(mv)?;
    Some(Response::json(200, Arc::clone(body)))
}

/// Counts a [`table_answer`] in the hit counter: its `200`s are table
/// bodies, its `400`s are range refusals and count as neither hit nor
/// miss.
fn count_table_answer(shared: &Shared, answer: &Response) {
    if answer.status == 200 {
        shared.metrics.record_table_hits(1);
    }
}

/// Answers a plan request on a worker: from the table when it covers
/// the request, and otherwise live through
/// [`Decider::decide_bucket_at`] on the request model's decider,
/// counted as one table miss.
fn worker_answer(shared: &Shared, request: &PlanRequest) -> Response {
    if let Some(answer) = table_answer(shared, request) {
        count_table_answer(shared, &answer);
        return answer;
    }
    let decider = match decider_for(shared, request.model.as_deref()) {
        Ok(decider) => decider,
        Err(refusal) => return refusal,
    };
    let constraint_ps = match request.constraint_factor {
        None => decider.constraint_ps(),
        Some(factor) if factor > 0.0 && factor.is_finite() => {
            decider.flow().fresh_critical_path_ps() * factor
        }
        Some(factor) => {
            let message = format!("constraint_factor {factor} must be positive");
            return Response::json(400, error_body(&message));
        }
    };
    shared.metrics.record_table_misses(1);
    let bucket = decider.bucket_of(VthShift::from_millivolts(request.delta_vth_mv));
    match decider.decide_bucket_at(bucket, constraint_ps) {
        Ok(decision) => Response::json(200, render_value(&plan_response(&decider, &decision))),
        Err(e) => Response::json(500, error_body(&e.to_string())),
    }
}

/// The `POST /v1/plan/batch` response, `{"results":[{"status":S,"body":B},…]}`:
/// each element under its own status, each body the exact bytes its
/// single call answers, so one bad element cannot fail the rest. The
/// batch itself always answers `200`.
fn batch_response(answers: &[Response]) -> Response {
    use std::fmt::Write;
    let mut out = String::with_capacity(16 + answers.len() * 192);
    out.push_str("{\"results\":[");
    for (i, answer) in answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"status\":{},\"body\":{}}}",
            answer.status, answer.body
        );
    }
    out.push_str("]}");
    Response::json(200, out)
}

fn served_range(shared: &Shared, mv: f64) -> bool {
    mv.is_finite() && (0.0..=shared.config.max_mv + 1e-9).contains(&mv)
}

/// The out-of-range refusal — one format string, so single calls and
/// batch elements emit identical bytes.
fn range_message(shared: &Shared, mv: f64) -> String {
    format!(
        "delta_vth_mv {mv} outside the served range 0–{} mV",
        shared.config.max_mv
    )
}

// --------------------------------------------------------------- routing

/// Dispatches one request through [`ROUTES`]. Table answers and read
/// endpoints answer on the event loop; decision endpoints go through
/// the bounded queue. A listed path under another method answers
/// `405`, an unlisted one `404`; both count under [`Endpoint::Other`].
pub(crate) fn route(shared: &Arc<Shared>, request: &Request, token: Token) -> (Endpoint, Routed) {
    let endpoint = match ROUTES.iter().find(|(_, path, _)| *path == request.target) {
        Some((method, ..)) if *method != request.method => {
            let response = Response::json(405, error_body("method not allowed"));
            return (Endpoint::Other, Routed::Ready(response));
        }
        Some((_, _, endpoint)) => *endpoint,
        None => Endpoint::Other,
    };
    let routed = match endpoint {
        Endpoint::Metrics => {
            let stats = shared.engine.stats();
            let by_model = shared.engine.stats_by_model();
            // The memory and autopilot rollups need the fleet summary;
            // scrapes only pay for building it when an axis is live.
            let (memory, autopilot) = {
                let sim = shared.fleet.lock().expect("unpoisoned fleet");
                let wants = shared.decider.config().memory.as_ref().is_some()
                    || sim.config().autopilot.is_some();
                if wants {
                    let summary = sim.summary();
                    (summary.memory, summary.autopilot)
                } else {
                    (None, None)
                }
            };
            let text = shared.metrics.render(
                shared.queue.len(),
                &stats,
                &by_model,
                memory.as_ref(),
                autopilot.as_ref(),
            );
            Routed::Ready(
                Response::text(200, text).with_header("cache-control", "no-store".to_string()),
            )
        }
        Endpoint::Models => Routed::Ready(models_response(shared)),
        Endpoint::Summary => {
            let sim = shared.fleet.lock().expect("unpoisoned fleet");
            Routed::Ready(Response::json(200, sim.summary().to_json()))
        }
        Endpoint::MemorySummary => Routed::Ready(memory_summary_response(shared)),
        Endpoint::AutopilotSummary => Routed::Ready(autopilot_summary_response(shared)),
        Endpoint::AutopilotEnroll => {
            let parsed = if request.body.is_empty() {
                Ok(EnrollRequest {
                    budget_messages_per_epoch: None,
                    budget_burst: None,
                })
            } else {
                parse_body::<EnrollRequest>(&request.body)
            };
            Routed::Ready(match parsed {
                Ok(body) => handle_enroll(shared, &body),
                Err(response) => response,
            })
        }
        Endpoint::Healthz => Routed::Ready(Response::text(200, "ok\n")),
        Endpoint::Shutdown => {
            initiate_shutdown(shared);
            Routed::Ready(Response::json(200, "{\"draining\":true}"))
        }
        Endpoint::Plan => match parse_body::<PlanRequest>(&request.body) {
            Ok(body) => match table_answer(shared, &body) {
                Some(answer) => {
                    count_table_answer(shared, &answer);
                    Routed::Ready(answer)
                }
                None => enqueue(shared, ApiCall::Plan(body), token),
            },
            Err(response) => Routed::Ready(response),
        },
        Endpoint::PlanBatch => match parse_body::<Vec<PlanRequest>>(&request.body) {
            Ok(body) if body.len() > MAX_BATCH => Routed::Ready(Response::json(
                400,
                error_body(&format!(
                    "batch of {} exceeds the {MAX_BATCH}-element limit",
                    body.len()
                )),
            )),
            Ok(body) => {
                // All or nothing: one element needing live work sends
                // the whole batch to the workers unchanged.
                let answers: Option<Vec<Response>> = body
                    .iter()
                    .map(|request| table_answer(shared, request))
                    .collect();
                match answers {
                    Some(answers) => {
                        for answer in &answers {
                            count_table_answer(shared, answer);
                        }
                        Routed::Ready(batch_response(&answers))
                    }
                    None => enqueue(shared, ApiCall::PlanBatch(body), token),
                }
            }
            Err(response) => Routed::Ready(response),
        },
        Endpoint::Telemetry => match parse_body::<TelemetryRequest>(&request.body) {
            Ok(body) => enqueue(shared, ApiCall::Telemetry(body), token),
            Err(response) => Routed::Ready(response),
        },
        Endpoint::Other => Routed::Ready(Response::json(404, error_body("no such endpoint"))),
    };
    (endpoint, routed)
}

fn parse_body<T: serde::de::DeserializeOwned>(body: &[u8]) -> Result<T, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::json(400, error_body("body is not UTF-8")))?;
    serde_json::from_str(text).map_err(|e| Response::json(400, error_body(&e.to_string())))
}

/// Queues a decision call, enforcing backpressure; the worker's reply
/// comes back through the event loop's completion inbox.
fn enqueue(shared: &Shared, call: ApiCall, token: Token) -> Routed {
    if shared.is_draining() {
        return Routed::Ready(
            Response::json(503, error_body("server is draining"))
                .with_header("retry-after", "1".to_string()),
        );
    }
    let deadline = Instant::now() + Duration::from_millis(shared.config.deadline_ms);
    let job = Job {
        call,
        token,
        deadline,
    };
    if shared.queue.try_push(job).is_err() {
        shared.metrics.record_rejection();
        return Routed::Ready(
            Response::json(503, error_body("queue full"))
                .with_header("retry-after", "1".to_string()),
        );
    }
    Routed::Pending
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        if Instant::now() >= job.deadline {
            // The loop's deadline sweep already answered 504 (or is
            // about to); don't spend engine time on an abandoned
            // request.
            shared.metrics.record_timeout();
            deliver(
                shared,
                job.token,
                Response::json(504, error_body("deadline exceeded in queue")),
            );
            continue;
        }
        if shared.config.debug_delay_ms > 0 {
            thread::sleep(Duration::from_millis(shared.config.debug_delay_ms));
        }
        let response = match job.call {
            ApiCall::Plan(request) => worker_answer(shared, &request),
            ApiCall::PlanBatch(requests) => {
                let answers: Vec<Response> = requests
                    .iter()
                    .map(|request| worker_answer(shared, request))
                    .collect();
                batch_response(&answers)
            }
            ApiCall::Telemetry(request) => handle_telemetry(shared, &request),
        };
        deliver(shared, job.token, response);
    }
}

/// Posts a worker's reply to the event loop and wakes it; the token's
/// generation retires the reply if the connection already gave up.
fn deliver(shared: &Shared, token: Token, response: Response) {
    shared
        .completions
        .lock()
        .expect("unpoisoned completions")
        .push(Completion { token, response });
    shared.wake();
}

// ---------------------------------------------------------------- handlers

/// `GET /v1/models`: the degradation-model zoo, with the server's
/// default and which models already hold a live decider.
fn models_response(shared: &Shared) -> Response {
    let default_key = shared.decider.flow().model_key().to_string();
    let loaded: Vec<String> = shared
        .model_deciders
        .read()
        .expect("unpoisoned model deciders")
        .keys()
        .cloned()
        .collect();
    let models: Vec<Value> = ModelSpec::NAMES
        .iter()
        .map(|name| {
            let spec = ModelSpec::by_name(name).expect("NAMES resolve");
            obj(vec![
                ("name", Value::Str((*name).to_string())),
                ("description", Value::Str(spec.description().to_string())),
                (
                    "loaded",
                    Value::Bool(*name == default_key || loaded.iter().any(|l| l == name)),
                ),
            ])
        })
        .collect();
    Response::json(
        200,
        render_value(&obj(vec![
            ("default", Value::Str(default_key)),
            ("models", Value::Seq(models)),
        ])),
    )
}

/// Resolves the decider answering a plan request: the server's default
/// for `model: null`, else a per-model decider built lazily on the
/// shared engine and kept, so repeat requests for a model hit its
/// decider's memo. An unknown model is refused with the answer its
/// request gets.
fn decider_for(shared: &Shared, model: Option<&str>) -> Result<Arc<Decider>, Response> {
    let Some(name) = model else {
        return Ok(Arc::clone(&shared.decider));
    };
    if name == shared.decider.flow().model_key() {
        return Ok(Arc::clone(&shared.decider));
    }
    if let Some(decider) = shared
        .model_deciders
        .read()
        .expect("unpoisoned model deciders")
        .get(name)
    {
        return Ok(Arc::clone(decider));
    }
    let Some(spec) = ModelSpec::by_name(name) else {
        let message = format!(
            "unknown model {name:?}; options: {}",
            ModelSpec::NAMES.join(", ")
        );
        return Err(Response::json(400, error_body(&message)));
    };
    let mut config = shared.decider.config().clone();
    config.flow.model = Some(spec);
    let decider = match Decider::with_engine(&config, Arc::clone(&shared.engine)) {
        Ok(decider) => Arc::new(decider),
        Err(e) => return Err(Response::json(500, error_body(&e.to_string()))),
    };
    let mut deciders = shared
        .model_deciders
        .write()
        .expect("unpoisoned model deciders");
    // A racing worker may have built it first; keep the stored one so
    // every request for a model shares its memos.
    Ok(Arc::clone(
        deciders.entry(name.to_string()).or_insert(decider),
    ))
}

/// `GET /v1/memory/summary`: the hosted fleet's weight-memory rollup
/// plus the thresholds it is judged against. `404` when the fleet runs
/// without the memory axis — exactly what the route answered before
/// the axis existed, so memory-off deployments see no change.
fn memory_summary_response(shared: &Shared) -> Response {
    use serde::Serialize;
    let Some(memory) = shared.decider.config().memory.as_ref() else {
        return Response::json(404, error_body("memory axis disabled"));
    };
    let sim = shared.fleet.lock().expect("unpoisoned fleet");
    let Some(fleet) = sim.summary().memory else {
        return Response::json(404, error_body("memory axis disabled"));
    };
    drop(sim);
    Response::json(
        200,
        render_value(&obj(vec![
            ("cell_model", Value::Str(memory.cell.model_key())),
            (
                "reencode_threshold",
                Value::Float(memory.reencode_threshold),
            ),
            ("degrade_threshold", Value::Float(memory.degrade_threshold)),
            (
                "max_reencodes",
                Value::UInt(u64::from(memory.max_reencodes)),
            ),
            ("fleet", fleet.to_value()),
        ])),
    )
}

/// `POST /v1/autopilot/enroll`: arms (or re-arms) the closed loop over
/// the hosted fleet. Idempotent — an enrolled fleet keeps its pilot
/// states and budget ledger; only the configuration is replaced.
fn handle_enroll(shared: &Shared, request: &EnrollRequest) -> Response {
    let mut autopilot = AutopilotConfig::demo();
    if let Some(rate) = request.budget_messages_per_epoch {
        autopilot.budget_messages_per_epoch = rate;
    }
    if let Some(burst) = request.budget_burst {
        autopilot.budget_burst = burst;
    }
    let mut sim = shared.fleet.lock().expect("unpoisoned fleet");
    let already_armed = sim.config().autopilot.is_some();
    if let Err(e) = sim.arm_autopilot(autopilot.clone()) {
        return Response::json(400, error_body(&e.to_string()));
    }
    let enrolled = sim.chip_count() as u64;
    drop(sim);
    Response::json(
        200,
        render_value(&obj(vec![
            ("enrolled", Value::UInt(enrolled)),
            ("already_armed", Value::Bool(already_armed)),
            (
                "budget_messages_per_epoch",
                Value::UInt(autopilot.budget_messages_per_epoch),
            ),
            ("budget_burst", Value::UInt(autopilot.budget_burst)),
        ])),
    )
}

/// `GET /v1/autopilot/summary`: the regime census and budget ledger,
/// plus the controller configuration driving them. `404` when the
/// fleet is not enrolled — exactly what the path answered before the
/// autopilot existed, so unenrolled deployments see no change.
fn autopilot_summary_response(shared: &Shared) -> Response {
    use serde::Serialize;
    let sim = shared.fleet.lock().expect("unpoisoned fleet");
    let Some(config) = sim.config().autopilot.clone() else {
        return Response::json(404, error_body("autopilot not enrolled"));
    };
    let Some(fleet) = sim.summary().autopilot else {
        return Response::json(404, error_body("autopilot not enrolled"));
    };
    drop(sim);
    Response::json(
        200,
        render_value(&obj(vec![
            ("config", config.to_value()),
            ("fleet", fleet.to_value()),
        ])),
    )
}

fn handle_telemetry(shared: &Shared, request: &TelemetryRequest) -> Response {
    let mut sim = shared.fleet.lock().expect("unpoisoned fleet");
    let fleet_size = sim.chip_count();
    if request.chip as usize >= fleet_size {
        return Response::json(
            404,
            error_body(&format!(
                "chip {} not in the hosted fleet of {fleet_size}",
                request.chip
            )),
        );
    }
    let current = sim.epoch();
    if request.epoch > current + MAX_EPOCH_ADVANCE {
        return Response::json(
            400,
            error_body(&format!(
                "epoch {} is more than {MAX_EPOCH_ADVANCE} ahead of the fleet at {current}",
                request.epoch
            )),
        );
    }
    // Telemetry advances the model-driven fleet to the reported
    // epoch: each step replans exactly the chips that crossed a
    // bucket and journals the events. Reported ΔVth never overwrites
    // the model (the checkpoint must stay kinetics-consistent); it is
    // cross-checked in the response instead.
    while sim.epoch() < request.epoch {
        if let Err(e) = sim.step() {
            return Response::json(500, error_body(&e.to_string()));
        }
    }
    if let Err(e) = sim.flush_journal(shared.config.journal.as_deref().map(Path::new)) {
        return Response::json(500, error_body(&e.to_string()));
    }

    let epoch = sim.epoch();
    let chip = sim
        .chip(request.chip as usize)
        .expect("chip index bounds-checked above");
    #[allow(clippy::cast_precision_loss)]
    let years = epoch as f64 * sim.config().epoch_years;
    let model_mv = chip.shift_at(years).millivolts();
    let consistent = request.delta_vth_mv.map(|reported| {
        let bucket_mv = sim.config().bucket_mv;
        (reported - model_mv).abs() < bucket_mv
    });
    // The report-vs-model residual feeds two consumers: the exported
    // `agequant_telemetry_residual_mv` gauge, and — when the chip is
    // enrolled — the autopilot's effective-rate estimator, so chips
    // drifting off the calibrated model earn tighter supervision.
    let residual = request.delta_vth_mv.map(|reported| reported - model_mv);
    if let Some(residual) = residual {
        shared.metrics.record_residual(residual);
        sim.report_residual(request.chip as usize, residual);
    }
    let pilot = sim.chip(request.chip as usize).and_then(|chip| chip.pilot);
    let mut fields = vec![
        ("chip", Value::UInt(u64::from(chip.id))),
        ("epoch", Value::UInt(epoch)),
        ("stale", Value::Bool(request.epoch < epoch)),
        ("bucket", Value::UInt(chip.bucket)),
        ("mode", Value::Str(mode_label(chip.mode).to_string())),
        ("model_delta_vth_mv", Value::Float(model_mv)),
    ];
    if let Some(consistent) = consistent {
        fields.push(("reported_consistent", Value::Bool(consistent)));
    }
    if let Some(residual) = residual {
        fields.push(("residual_mv", Value::Float(residual)));
    }
    // Cadence hint for enrolled chips: the regime the controller holds
    // the chip in and when it next wants a sample, so well-behaved
    // clients stop polling between scheduled epochs. Unenrolled fleets
    // keep the exact pre-autopilot response bytes.
    if let Some(pilot) = pilot {
        fields.push((
            "autopilot",
            obj(vec![
                ("regime", Value::Str(pilot.regime.name().to_string())),
                ("rate_mv_per_epoch", Value::Float(pilot.rate_mv_per_epoch)),
                ("next_sample_epoch", Value::UInt(pilot.next_epoch)),
            ]),
        ));
    }
    Response::json(200, render_value(&obj(fields)))
}

/// Writes the hosted fleet's checkpoint, for post-run linting: the
/// versioned, checksummed binary frame, whatever the path's extension.
/// The write is atomic (temp file + rename), so a crash mid-write
/// cannot destroy a previous checkpoint at the same path.
///
/// # Errors
///
/// Returns [`ServeError::Io`] when the file cannot be written.
pub fn write_checkpoint(handle: &ServerHandle, path: &str) -> Result<(), ServeError> {
    let sim = handle.shared.fleet.lock().expect("unpoisoned fleet");
    // Shard-direct encode: skips materializing a Vec<Chip> of the
    // whole hosted fleet while the fleet lock is held.
    let frame = sim
        .checkpoint_binary()
        .map_err(|e| ServeError::Io(format!("{path}: {e}")))?;
    agequant_fleet::persist::atomic_write(std::path::Path::new(path), &frame)
        .map_err(|e| ServeError::Io(format!("{path}: {e}")))
}

// ---------------------------------------------------------------- responses

fn mode_label(mode: agequant_fleet::ChipMode) -> &'static str {
    match mode {
        agequant_fleet::ChipMode::Compressed => "compressed",
        agequant_fleet::ChipMode::Guardband => "guardband",
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn render_value(value: &Value) -> String {
    serde_json::to_string(value).expect("response values are finite")
}

/// Serializes an error body.
pub(crate) fn error_body(message: &str) -> String {
    render_value(&obj(vec![("error", Value::Str(message.to_string()))]))
}

/// The `/v1/plan` response for a decision — public so the integration
/// tests build the expected bytes from a direct [`Decider`] call and
/// compare bit-for-bit with what came over the wire.
#[must_use]
pub fn plan_response(decider: &Decider, decision: &Decision) -> Value {
    use serde::Serialize;
    let bucket = decision.bucket();
    let mut fields = vec![
        ("bucket", Value::UInt(bucket)),
        (
            "planned_shift_mv",
            Value::Float(decider.bucket_shift(bucket).millivolts()),
        ),
    ];
    match decision {
        Decision::Plan(plan) => {
            fields.push(("mode", Value::Str("compressed".to_string())));
            fields.push((
                "alpha",
                Value::UInt(u64::from(plan.plan.compression.alpha())),
            ));
            fields.push(("beta", Value::UInt(u64::from(plan.plan.compression.beta()))));
            fields.push(("padding", plan.plan.padding.to_value()));
            fields.push(("method", plan.method.map_or(Value::Null, |m| m.to_value())));
            fields.push((
                "accuracy_loss_pct",
                plan.accuracy_loss_pct.map_or(Value::Null, Value::Float),
            ));
            fields.push((
                "compressed_delay_ps",
                Value::Float(plan.plan.compressed_delay_ps),
            ));
            fields.push(("constraint_ps", Value::Float(plan.plan.constraint_ps)));
        }
        Decision::Degrade { .. } => {
            fields.push(("mode", Value::Str("guardband".to_string())));
            fields.push((
                "guardband_period_ps",
                Value::Float(decider.guardband_period_ps()),
            ));
            fields.push(("constraint_ps", Value::Float(decider.constraint_ps())));
        }
    }
    // Memory-axis projection for the chosen plan: only when the server
    // tracks the memory axis, so memory-off deployments keep the exact
    // pre-memory wire bytes (pinned by the fixture test). The planned
    // weight truncation β selects the stored-bit asymmetry the cells
    // will integrate, so this is where a plan's memory cost shows up.
    if let Some(memory) = &decider.config().memory {
        let beta = match decision {
            Decision::Plan(plan) => plan.plan.compression.beta(),
            Decision::Degrade { .. } => 0,
        };
        let asymmetry = memory.asymmetry_for_beta(beta);
        fields.push((
            "memory",
            obj(vec![
                ("asymmetry", Value::Float(asymmetry)),
                (
                    "stress_duty",
                    Value::Float(memory.cell.stress_duty(asymmetry)),
                ),
                (
                    "failure_prob_10y",
                    Value::Float(memory.cell.failure_prob(asymmetry, 10.0, 0)),
                ),
                (
                    "failure_prob_10y_reencoded",
                    Value::Float(
                        memory
                            .cell
                            .failure_prob(asymmetry, 10.0, memory.max_reencodes),
                    ),
                ),
            ]),
        ));
    }
    obj(fields)
}
