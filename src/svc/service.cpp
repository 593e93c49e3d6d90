#include "svc/service.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "collectives/advisor.hpp"
#include "experiments/figures.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace hbsp::svc {

const char* to_string(RequestKind kind) noexcept {
  switch (kind) {
    case RequestKind::kAdvise:
      return "advise";
    case RequestKind::kPlan:
      return "plan";
    case RequestKind::kSimulate:
      return "simulate";
  }
  return "unknown";
}

const char* to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kCompleted:
      return "completed";
    case Outcome::kRejectedQueueFull:
      return "rejected_queue_full";
    case Outcome::kRejectedDeadlineExceeded:
      return "rejected_deadline_exceeded";
  }
  return "unknown";
}

std::uint64_t ResponseBody::content_fingerprint() const noexcept {
  util::Hash64 hash;
  hash.add(coll::plan_request_fingerprint(spec));
  hash.add(plan != nullptr ? plan->fingerprint() : 0u);
  hash.add_double(plan != nullptr ? plan->predicted_cost : 0.0);
  hash.add_int(simulated ? 1 : 0);
  hash.add_double(simulated_makespan);
  hash.add_string(rationale);
  return hash.digest();
}

std::uint64_t Service::Canonical::key() const noexcept {
  util::Hash64 hash;
  hash.add_int(static_cast<int>(content.kind));
  hash.add(content.tree_fingerprint);
  switch (content.kind) {
    case RequestKind::kAdvise:
      hash.add_int(static_cast<int>(content.collective));
      hash.add(static_cast<std::uint64_t>(content.n));
      hash.add(content.params_fingerprint);
      break;
    case RequestKind::kPlan:
      hash.add(coll::plan_request_fingerprint(content.spec));
      break;
    case RequestKind::kSimulate:
      hash.add(coll::plan_request_fingerprint(content.spec));
      hash.add(content.params_fingerprint);
      hash.add_int(content.faulted ? 1 : 0);
      hash.add(content.fault_fingerprint);
      break;
  }
  return hash.digest();
}

namespace {

/// A future that is already resolved — what rejected submissions hand back.
std::shared_future<Response> ready_future(Response response) {
  std::promise<Response> promise;
  promise.set_value(std::move(response));
  return promise.get_future().share();
}

/// One trace track per submit ordinal ("req000042"): deterministic in the
/// submit sequence, and written only by whichever thread owns the ordinal's
/// span — the recorder's one-writer-per-track contract.
std::string request_track(std::uint64_t ordinal) {
  std::string digits = std::to_string(ordinal);
  std::string track = "req";
  if (digits.size() < 6) track.append(6 - digits.size(), '0');
  track += digits;
  return track;
}

}  // namespace

Service::Service(ServiceConfig config)
    : config_{config.threads,
              std::max(1, config.shards),
              config.queue_capacity,
              std::max<std::uint64_t>(1, config.trace_sample_every),
              config.trace_seed},
      pool_(config.threads),
      queues_(static_cast<std::size_t>(std::max(1, config.shards))) {}

Service::~Service() { stop(); }

Ticket Service::submit(AdviseRequest request, Deadline deadline) {
  if (request.tree == nullptr) {
    throw std::invalid_argument{"svc::AdviseRequest requires a machine tree"};
  }
  Canonical canonical;
  canonical.content.kind = RequestKind::kAdvise;
  canonical.content.tree_fingerprint = request.tree->fingerprint();
  canonical.content.collective = request.collective;
  canonical.content.n = request.n;
  canonical.content.params_fingerprint = request.params.fingerprint();
  canonical.tree = std::move(request.tree);
  canonical.params = request.params;
  return admit(std::move(canonical), deadline);
}

Ticket Service::submit(PlanRequest request, Deadline deadline) {
  if (request.tree == nullptr) {
    throw std::invalid_argument{"svc::PlanRequest requires a machine tree"};
  }
  Canonical canonical;
  canonical.content.kind = RequestKind::kPlan;
  canonical.content.tree_fingerprint = request.tree->fingerprint();
  canonical.content.spec = request.spec;
  canonical.tree = std::move(request.tree);
  return admit(std::move(canonical), deadline);
}

Ticket Service::submit(SimulateRequest request, Deadline deadline) {
  if (request.tree == nullptr) {
    throw std::invalid_argument{"svc::SimulateRequest requires a machine tree"};
  }
  Canonical canonical;
  canonical.content.kind = RequestKind::kSimulate;
  canonical.content.tree_fingerprint = request.tree->fingerprint();
  canonical.content.spec = request.spec;
  canonical.content.params_fingerprint = request.params.fingerprint();
  if (request.fault_plan != nullptr) {
    canonical.content.faulted = true;
    canonical.content.fault_fingerprint = request.fault_plan->fingerprint();
  }
  canonical.tree = std::move(request.tree);
  canonical.params = request.params;
  canonical.fault_plan = std::move(request.fault_plan);
  return admit(std::move(canonical), deadline);
}

Ticket Service::admit(Canonical request, Deadline deadline) {
  const std::uint64_t key = request.key();
  const int shard = static_cast<int>(
      key % static_cast<std::uint64_t>(config_.shards));
  const double now = now_seconds();

  obs::Registry& registry = obs::Registry::global();
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  std::lock_guard lock{mutex_};
  registry.counter("svc.requests").increment();
  registry
      .counter(std::string{"svc.requests."} + to_string(request.content.kind))
      .increment();
  // Every submit owns an ordinal; at trace_sample_every == 1 each sampled
  // ordinal yields exactly one kRequest span, so span count == svc.requests.
  const std::uint64_t ordinal = next_ordinal_++;
  const bool traced =
      recorder.enabled() &&
      obs::TraceRecorder::sampled(config_.trace_seed, ordinal,
                                  config_.trace_sample_every);

  // 1. Coalesce: an in-flight twin (queued or executing, promise not yet
  //    fulfilled) answers for us. Checked before the deadline so an expired
  //    request whose twin is still wanted gets served rather than shed.
  if (const auto it = inflight_.find(request.content); it != inflight_.end()) {
    Job& job = *it->second;
    job.member_submits.push_back(now);
    job.effective_deadline = std::max(job.effective_deadline, deadline.at);
    registry.counter("svc.coalesced").increment();
    if (traced) {
      recorder.record_span(
          request_track(ordinal), "coalesced", obs::SpanKind::kRequest,
          obs::Timebase::kWall, now, now,
          {{"leader", static_cast<std::int64_t>(job.ordinal)}});
    }
    return Ticket{job.future, key, true};
  }

  // 2. Deadline: an already-expired request with no twin never executes.
  if (deadline.passed(now)) {
    registry.counter("svc.shed.deadline").increment();
    if (traced) {
      recorder.record_span(request_track(ordinal), "shed.deadline",
                           obs::SpanKind::kRequest, obs::Timebase::kWall, now,
                           now);
    }
    Response response;
    response.outcome = Outcome::kRejectedDeadlineExceeded;
    response.provenance = Provenance{key, shard, 1, now};
    return Ticket{ready_future(std::move(response)), key, false};
  }

  // 3. Capacity: the admission queue is bounded across all shards.
  if (config_.queue_capacity > 0 && queued_ >= config_.queue_capacity) {
    registry.counter("svc.shed.queue_full").increment();
    if (traced) {
      recorder.record_span(request_track(ordinal), "shed.queue_full",
                           obs::SpanKind::kRequest, obs::Timebase::kWall, now,
                           now);
    }
    Response response;
    response.outcome = Outcome::kRejectedQueueFull;
    response.provenance = Provenance{key, shard, 1, now};
    return Ticket{ready_future(std::move(response)), key, false};
  }

  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->key = key;
  job->shard = shard;
  job->ordinal = ordinal;
  job->traced = traced;
  job->effective_deadline = deadline.at;
  job->member_submits.push_back(now);
  job->future = job->promise.get_future().share();

  queues_[static_cast<std::size_t>(shard)].push_back(job);
  inflight_.emplace(job->request.content, job);
  ++queued_;
  if (queued_ > depth_high_water_) {
    depth_high_water_ = queued_;
    registry.gauge("svc.queue_depth").set(static_cast<double>(queued_));
  }
  work_cv_.notify_one();
  return Ticket{job->future, key, false};
}

Response Service::compute(const Canonical& request) {
  // Stage spans land on the request's own track (the TraceContext the
  // executor pushed); the simulator nests its virtual spans under the same
  // context. Muted (unsampled) computes skip all of this via enabled().
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  const bool tracing = recorder.enabled();
  const std::string track = tracing ? recorder.context() : std::string{};
  const auto stage = [&](const char* name, double begin) {
    if (tracing) {
      recorder.record_span(track, name, obs::SpanKind::kStage,
                           obs::Timebase::kWall, begin, now_seconds());
    }
  };

  Response response;
  response.outcome = Outcome::kCompleted;
  switch (request.content.kind) {
    case RequestKind::kAdvise: {
      double t0 = tracing ? now_seconds() : 0.0;
      const coll::CollectiveAdvice advice = coll::advise(
          *request.tree, request.content.collective, request.content.n);
      response.body.spec = advice.request(request.content.n);
      stage("advise", t0);
      t0 = tracing ? now_seconds() : 0.0;
      response.body.plan =
          coll::PlanCache::global().get(*request.tree, response.body.spec);
      stage("plan", t0);
      response.body.simulated = true;
      t0 = tracing ? now_seconds() : 0.0;
      response.body.simulated_makespan = exp::simulate_makespan(
          *request.tree, *response.body.plan, request.params);
      stage("simulate", t0);
      response.body.rationale = advice.rationale;
      break;
    }
    case RequestKind::kPlan: {
      response.body.spec = request.content.spec;
      const double t0 = tracing ? now_seconds() : 0.0;
      response.body.plan =
          coll::PlanCache::global().get(*request.tree, request.content.spec);
      stage("plan", t0);
      break;
    }
    case RequestKind::kSimulate: {
      response.body.spec = request.content.spec;
      double t0 = tracing ? now_seconds() : 0.0;
      response.body.plan =
          coll::PlanCache::global().get(*request.tree, request.content.spec);
      stage("plan", t0);
      response.body.simulated = true;
      t0 = tracing ? now_seconds() : 0.0;
      std::optional<faults::FaultInjector> injector;
      if (request.fault_plan != nullptr) injector.emplace(*request.fault_plan);
      response.body.simulated_makespan = exp::simulate_makespan(
          *request.tree, *response.body.plan, request.params,
          injector.has_value() ? &*injector : nullptr);
      stage("simulate", t0);
      break;
    }
  }
  return response;
}

void Service::execute(const std::shared_ptr<Job>& job) {
  obs::Registry& registry = obs::Registry::global();
  const double start = now_seconds();

  // A job every member of whom has given up is shed, not computed. The check
  // and the in-flight removal are atomic so a late twin can never attach to
  // a job that has already decided to shed.
  {
    std::lock_guard lock{mutex_};
    if (start > job->effective_deadline) {
      inflight_.erase(job->request.content);
      const std::uint64_t members = job->member_submits.size();
      registry.counter("svc.shed.deadline").add(members);
      if (job->traced && obs::TraceRecorder::global().enabled()) {
        // The leader's one kRequest span: its twins already recorded theirs
        // when they attached.
        obs::TraceRecorder::global().record_span(
            request_track(job->ordinal), "shed.dispatch",
            obs::SpanKind::kRequest, obs::Timebase::kWall, start, start,
            {{"served", static_cast<std::int64_t>(members)}});
      }
      Response response;
      response.outcome = Outcome::kRejectedDeadlineExceeded;
      response.provenance = Provenance{job->key, job->shard, members, start};
      job->promise.set_value(std::move(response));
      return;
    }
  }

  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  const bool traced = job->traced && recorder.enabled();
  // An unsampled compute is muted so it cannot leak simulator spans onto the
  // sampled trace; a sampled one opens the request's root lifecycle span and
  // pushes its track as context for the stage and simulator spans below.
  std::optional<obs::TraceMute> mute;
  if (!job->traced && recorder.enabled()) mute.emplace();
  std::optional<obs::TraceContext> context;
  std::string track;
  if (traced) {
    track = request_track(job->ordinal);
    recorder.begin_span(track, to_string(job->request.content.kind),
                        obs::SpanKind::kRequest, obs::Timebase::kWall, start);
    recorder.record_span(track, "queue", obs::SpanKind::kStage,
                         obs::Timebase::kWall, job->member_submits.front(),
                         start);
    context.emplace(recorder, track);
  }

  Response response;
  std::exception_ptr error;
  try {
    response = compute(job->request);
  } catch (...) {
    error = std::current_exception();
  }
  const double end = now_seconds();

  // Detach from the in-flight table *before* fulfilling the promise: twins
  // found in the table always attach before the member snapshot below, so
  // every served request gets a latency sample and the served count is
  // exact.
  std::vector<double> members;
  {
    std::lock_guard lock{mutex_};
    inflight_.erase(job->request.content);
    members = std::move(job->member_submits);
  }

  if (traced) {
    context.reset();
    recorder.end_span(end,
                      {{"served", static_cast<std::int64_t>(members.size())},
                       {"coalesced",
                        static_cast<std::int64_t>(members.size() - 1)},
                       {"error", error != nullptr ? 1 : 0}});
  }

  if (error != nullptr) {
    job->promise.set_exception(error);
    return;
  }

  registry.counter("svc.completed").add(members.size());
  obs::Histogram latency = registry.histogram("svc.latency_seconds");
  for (const double submitted : members) {
    latency.record(std::max(0.0, end - submitted));
  }
  registry.histogram("svc.exec_seconds").record(std::max(0.0, end - start));

  response.provenance =
      Provenance{job->key, job->shard, members.size(), end};
  job->promise.set_value(std::move(response));
}

void Service::drain_shard(std::size_t shard) {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::lock_guard lock{mutex_};
      std::deque<std::shared_ptr<Job>>& queue = queues_[shard];
      if (queue.empty()) return;
      job = queue.front();
      queue.pop_front();
      --queued_;
    }
    execute(job);
  }
}

void Service::pump() {
  {
    std::lock_guard lock{mutex_};
    if (running_) {
      throw std::logic_error{
          "svc::Service::pump: background executor is running"};
    }
  }
  pool_.parallel_for(static_cast<std::size_t>(config_.shards),
                     [this](std::size_t shard) { drain_shard(shard); });
}

std::shared_ptr<Service::Job> Service::pop_locked(std::size_t preferred_shard) {
  const std::size_t shards = queues_.size();
  for (std::size_t i = 0; i < shards; ++i) {
    std::deque<std::shared_ptr<Job>>& queue =
        queues_[(preferred_shard + i) % shards];
    if (queue.empty()) continue;
    std::shared_ptr<Job> job = queue.front();
    queue.pop_front();
    --queued_;
    return job;
  }
  return nullptr;
}

void Service::worker_loop(std::size_t worker) {
  const std::size_t preferred = worker % queues_.size();
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock{mutex_};
      work_cv_.wait(lock, [this] { return stopping_ || queued_ > 0; });
      if (queued_ == 0) return;  // stopping_ and fully drained
      job = pop_locked(preferred);
    }
    if (job != nullptr) execute(job);
  }
}

void Service::start() {
  {
    std::lock_guard lock{mutex_};
    if (running_) return;
    running_ = true;
    stopping_ = false;
  }
  const auto width = static_cast<std::size_t>(pool_.threads());
  executor_ = std::thread{[this, width] {
    pool_.parallel_for(width, [this](std::size_t i) { worker_loop(i); });
  }};
}

void Service::stop() {
  {
    std::lock_guard lock{mutex_};
    if (!running_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  executor_.join();
  std::lock_guard lock{mutex_};
  running_ = false;
  stopping_ = false;
}

bool Service::running() const {
  std::lock_guard lock{mutex_};
  return running_;
}

std::size_t Service::queue_depth() const {
  std::lock_guard lock{mutex_};
  return queued_;
}

}  // namespace hbsp::svc
