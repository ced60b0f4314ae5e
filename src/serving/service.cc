#include "serving/service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <utility>

namespace mube {

template <typename ResponseT>
void MubeService::Fulfill(
    const std::shared_ptr<typename ServingFuture<ResponseT>::State>& state,
    ResponseT response) {
  {
    MutexLock lock(&state->mu);
    state->response = std::move(response);
    state->done = true;
  }
  state->cv.SignalAll();
}

Result<std::unique_ptr<MubeService>> MubeService::Create(
    const Universe& universe, MubeConfig config, ServiceOptions options,
    MetricsRegistry* registry) {
  if (options.queue_capacity == 0 || options.max_batch == 0) {
    return Status::InvalidArgument(
        "ServiceOptions: queue_capacity and max_batch must be >= 1");
  }
  if (options.degrade_threshold_ms < 0.0) {
    return Status::InvalidArgument(
        "ServiceOptions: degrade_threshold_ms must be >= 0");
  }
  std::unique_ptr<MubeService> service(new MubeService(options));
  MUBE_ASSIGN_OR_RETURN(
      service->snapshots_,
      SnapshotManager::Create(universe, std::move(config), registry));
  service->pool_ = std::make_unique<ThreadPool>(options.worker_threads);
  if (registry != nullptr) {
    service->requests_total_ = registry->GetCounter(
        "serving_requests_total", "requests admitted to the queue");
    service->requests_rejected_ = registry->GetCounter(
        "serving_requests_rejected_total",
        "requests rejected by admission control");
    service->requests_failed_ = registry->GetCounter(
        "serving_requests_failed_total",
        "served requests that returned a non-OK status");
    service->batches_total_ = registry->GetCounter(
        "serving_batches_total", "dispatcher batches executed");
    service->batch_size_ = registry->GetHistogram(
        "serving_batch_size", {1, 2, 4, 8, 16, 32, 64},
        "requests per snapshot lease");
    service->queue_seconds_ = registry->GetHistogram(
        "serving_queue_seconds",
        Histogram::ExponentialBuckets(0.0001, 4.0, 10),
        "time from Submit to dispatch");
    service->request_run_seconds_ = registry->GetHistogram(
        "serving_request_run_seconds",
        Histogram::ExponentialBuckets(0.001, 2.0, 14),
        "engine time per served request");
    service->staleness_epochs_ = registry->GetHistogram(
        "serving_staleness_epochs", {0, 1, 2, 4, 8, 16},
        "epochs published between serving and completing a request");
    service->quota_rejected_ = registry->GetCounter(
        "serving_quota_rejected_total",
        "submits rejected because the tenant exceeded its admission quota");
    service->deadline_expired_in_queue_ = registry->GetCounter(
        "serving_deadline_expired_in_queue_total",
        "requests shed at dispatch because the deadline expired while "
        "queued");
    service->deadline_expired_at_serve_ = registry->GetCounter(
        "serving_deadline_expired_at_serve_total",
        "requests shed at serve start because the deadline expired after "
        "dispatch");
    service->post_deadline_dispatch_ = registry->GetCounter(
        "serving_post_deadline_dispatch_total",
        "engine/executor invocations started past their deadline (SLO: "
        "always zero)");
    service->degraded_serves_ = registry->GetCounter(
        "serving_degraded_serves_total",
        "requests served the tenant's stale cached answer for lack of "
        "deadline budget");
    service->executes_total_ = registry->GetCounter(
        "serving_executes_total", "resilient Execute requests served");
    service->breaker_opens_ = registry->GetCounter(
        "serving_breaker_opens_total",
        "circuit-breaker open transitions on the Execute path");
    service->breaker_half_opens_ = registry->GetCounter(
        "serving_breaker_half_opens_total",
        "circuit-breaker half-open transitions on the Execute path");
    service->breaker_closes_ = registry->GetCounter(
        "serving_breaker_closes_total",
        "circuit-breaker close transitions on the Execute path");
    service->persistent_failure_churn_ = registry->GetCounter(
        "serving_persistent_failure_churn_total",
        "churn events published from Execute-path persistent failures");
  }
  service->dispatcher_ = std::thread([svc = service.get()] {
    svc->DispatcherLoop();
  });
  return service;
}

MubeService::~MubeService() { Stop(); }

double MubeService::NowMs() const {
  return options_.clock_ms ? options_.clock_ms()
                           : clock_timer_.ElapsedMillis();
}

double MubeService::RemainingMs(const Pending& pending, double now_ms) {
  if (pending.deadline_ms <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return pending.deadline_ms - (now_ms - pending.admitted_ms);
}

Result<Tenant*> MubeService::RegisterTenant(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("tenant name must be non-empty");
  }
  MutexLock lock(&tenants_mu_);
  auto [it, inserted] =
      tenants_.try_emplace(name, std::make_unique<Tenant>(name));
  if (!inserted) {
    return Status::AlreadyExists("tenant '" + name + "' already registered");
  }
  return it->second.get();
}

Tenant* MubeService::FindTenant(const std::string& name) const {
  MutexLock lock(&tenants_mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

Status MubeService::Admit(Pending pending) {
  const std::string name = pending.tenant_name();
  Tenant* tenant = FindTenant(name);
  if (tenant == nullptr) {
    return Status::NotFound("unknown tenant '" + name + "'");
  }
  // Clock and tenant locks are off-limits under mu_ (the clock may be a
  // user callback; tenant mutexes order after mu_ nowhere) — resolve both
  // before entering the critical section.
  const size_t weight = tenant->dispatch_weight();
  const double now_ms = NowMs();
  size_t quota_depth = 0;
  bool quota_rejected = false;
  {
    MutexLock lock(&mu_);
    if (stopping_) {
      if (requests_rejected_ != nullptr) requests_rejected_->Increment();
      return Status::Unavailable("service is stopping");
    }
    if (queued_total_ >= options_.queue_capacity) {
      if (requests_rejected_ != nullptr) requests_rejected_->Increment();
      return Status::Unavailable("request queue is full");
    }
    std::deque<Pending>& queue = tenant_queues_[name];
    if (options_.per_tenant_quota > 0 &&
        queue.size() >= options_.per_tenant_quota) {
      quota_rejected = true;
      quota_depth = queue.size();
    } else {
      tenant_weights_[name] = weight;
      pending.admitted_ms = now_ms;
      queue.push_back(std::move(pending));
      ++queued_total_;
    }
  }
  if (quota_rejected) {
    if (quota_rejected_ != nullptr) quota_rejected_->Increment();
    tenant->RecordServingEvent(TenantServingEvent::kRejectedQuota);
    // Retry-after hint: the tenant's queued work times its average serve
    // cost approximates when a slot frees up. Coarse on purpose — it is a
    // hint, not a promise.
    const double hint_ms = std::max(
        1.0, tenant->ewma_serve_seconds() * 1e3 *
                 static_cast<double>(quota_depth));
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "tenant '%s' admission quota (%zu) exceeded; retry after "
                  "~%.0f ms",
                  name.c_str(), options_.per_tenant_quota, hint_ms);
    return Status::ResourceExhausted(buf);
  }
  work_cv_.Signal();
  if (requests_total_ != nullptr) requests_total_->Increment();
  tenant->RecordServingEvent(TenantServingEvent::kAdmitted);
  return Status::OK();
}

Result<ResponseFuture> MubeService::Submit(RefineRequest request) {
  ResponseFuture future;
  future.state_ = std::make_shared<ResponseFuture::State>();
  Pending pending;
  pending.deadline_ms = request.deadline_ms;
  pending.refine = std::move(request);
  pending.refine_state = future.state_;
  MUBE_RETURN_IF_ERROR(Admit(std::move(pending)));
  return future;
}

Result<ExecuteFuture> MubeService::SubmitExecute(ExecuteRequest request) {
  ExecuteFuture future;
  future.state_ = std::make_shared<ExecuteFuture::State>();
  Pending pending;
  pending.deadline_ms = request.deadline_ms;
  pending.execute = std::move(request);
  pending.execute_state = future.state_;
  MUBE_RETURN_IF_ERROR(Admit(std::move(pending)));
  return future;
}

RefineResponse MubeService::Refine(RefineRequest request) {
  Result<ResponseFuture> submitted = Submit(std::move(request));
  if (!submitted.ok()) {
    RefineResponse response;
    response.status = submitted.status();
    return response;
  }
  return submitted.ValueOrDie().Wait();
}

ExecuteResponse MubeService::Execute(ExecuteRequest request) {
  Result<ExecuteFuture> submitted = SubmitExecute(std::move(request));
  if (!submitted.ok()) {
    ExecuteResponse response;
    response.status = submitted.status();
    return response;
  }
  return submitted.ValueOrDie().Wait();
}

Status MubeService::ApplyChurn(const std::vector<ChurnEvent>& events) {
  return snapshots_->ApplyChurn(events);
}

void MubeService::Drain() {
  MutexLock lock(&mu_);
  while (queued_total_ > 0 || in_flight_ > 0) idle_cv_.Wait(&mu_);
}

void MubeService::Stop() {
  {
    MutexLock lock(&mu_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
  }
  work_cv_.SignalAll();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void MubeService::PauseDispatch() {
  MutexLock lock(&mu_);
  paused_ = true;
}

void MubeService::ResumeDispatch() {
  {
    MutexLock lock(&mu_);
    paused_ = false;
  }
  work_cv_.SignalAll();
}

void MubeService::DispatcherLoop() {
  std::vector<Pending> batch;
  std::vector<Pending> shed;
  while (true) {
    batch.clear();
    shed.clear();
    {
      MutexLock lock(&mu_);
      while ((queued_total_ == 0 || paused_) && !stopping_) {
        work_cv_.Wait(&mu_);
      }
      if (queued_total_ == 0 && stopping_) return;
    }
    // The clock may be a user callback — never invoke it under mu_. The
    // queue can only have grown since the unlock (this thread is the sole
    // consumer), so re-checking below cannot find it empty unless a racing
    // Resume/Stop changed the flags.
    const double now_ms = NowMs();
    {
      MutexLock lock(&mu_);
      if (queued_total_ == 0 || (paused_ && !stopping_)) continue;
      PopBatch(now_ms, &batch, &shed);
      in_flight_ += batch.size();
    }
    ShedExpired(&shed);
    if (!batch.empty()) ServeBatch(&batch);
    {
      MutexLock lock(&mu_);
      in_flight_ -= batch.size();
      if (queued_total_ == 0 && in_flight_ == 0) idle_cv_.SignalAll();
    }
  }
}

void MubeService::PopBatch(double now_ms, std::vector<Pending>* batch,
                           std::vector<Pending>* shed) {
  if (tenant_queues_.empty()) return;
  auto it = tenant_queues_.lower_bound(dispatch_cursor_);
  if (it == tenant_queues_.end()) it = tenant_queues_.begin();
  // Weighted round-robin in tenant-name order: each visit grants the
  // tenant up to its cached dispatch weight, then moves on. A tenant with
  // queued work is therefore served at least once per full cycle, and one
  // cycle dispatches at most sum-of-weights requests — the starvation
  // bound the fairness tests assert.
  size_t empty_streak = 0;
  while (batch->size() < options_.max_batch && queued_total_ > 0 &&
         empty_streak < tenant_queues_.size()) {
    std::deque<Pending>& queue = it->second;
    if (queue.empty()) {
      ++empty_streak;
      if (++it == tenant_queues_.end()) it = tenant_queues_.begin();
      continue;
    }
    empty_streak = 0;
    const auto weight_it = tenant_weights_.find(it->first);
    const size_t weight =
        weight_it == tenant_weights_.end() ? 1 : weight_it->second;
    size_t granted = 0;
    while (granted < weight && !queue.empty() &&
           batch->size() < options_.max_batch) {
      Pending pending = std::move(queue.front());
      queue.pop_front();
      --queued_total_;
      if (pending.deadline_ms > 0.0 &&
          now_ms - pending.admitted_ms >= pending.deadline_ms) {
        // Expired in the queue: shed without consuming a dispatch slot —
        // dead requests must not eat the tenant's fair share either.
        shed->push_back(std::move(pending));
        continue;
      }
      pending.dispatch_sequence = ++dispatch_counter_;
      batch->push_back(std::move(pending));
      ++granted;
    }
    if (++it == tenant_queues_.end()) it = tenant_queues_.begin();
    dispatch_cursor_ = it->first;
  }
}

void MubeService::ShedExpired(std::vector<Pending>* shed) {
  for (Pending& pending : *shed) {
    if (deadline_expired_in_queue_ != nullptr) {
      deadline_expired_in_queue_->Increment();
    }
    Tenant* tenant = FindTenant(pending.tenant_name());
    if (tenant != nullptr) {
      tenant->RecordServingEvent(TenantServingEvent::kShedDeadline);
    }
    const double queue_seconds = pending.queued.ElapsedSeconds();
    Status status = Status::DeadlineExceeded(
        "deadline expired while queued (load shed before dispatch)");
    if (pending.is_execute()) {
      ExecuteResponse response;
      response.status = std::move(status);
      response.queue_seconds = queue_seconds;
      Fulfill<ExecuteResponse>(pending.execute_state, std::move(response));
    } else {
      RefineResponse response;
      response.status = std::move(status);
      response.queue_seconds = queue_seconds;
      Fulfill<RefineResponse>(pending.refine_state, std::move(response));
    }
  }
}

void MubeService::ServeBatch(std::vector<Pending>* batch) {
  // One lease for the whole batch: every request in it reads the same
  // epoch, and churn published meanwhile targets the *next* batch.
  const SnapshotManager::Lease lease = snapshots_->Acquire();
  if (batches_total_ != nullptr) {
    batches_total_->Increment();
    batch_size_->Observe(static_cast<double>(batch->size()));
  }
  std::vector<size_t> refines;
  std::vector<size_t> executes;
  for (size_t i = 0; i < batch->size(); ++i) {
    ((*batch)[i].is_execute() ? executes : refines).push_back(i);
  }
  // Refines first (fanned out), then Executes serially in dispatch order on
  // this thread: Executes mutate the shared breaker registry and fault
  // injector, and a same-batch Execute should see the incumbent its
  // tenant's same-batch Refine just produced.
  std::vector<RefineResponse> refine_responses(refines.size());
  // The dispatcher participates in its own batch (help-while-wait pool);
  // responses are addressed by index, so the fan-out is race-free.
  pool_->ParallelFor(refines.size(), [&](size_t i) {
    refine_responses[i] = ServeOne((*batch)[refines[i]], lease);
  });
  for (size_t i = 0; i < refines.size(); ++i) {
    if (requests_failed_ != nullptr && !refine_responses[i].status.ok()) {
      requests_failed_->Increment();
    }
    Fulfill<RefineResponse>((*batch)[refines[i]].refine_state,
                            std::move(refine_responses[i]));
  }
  std::vector<ChurnEvent> churn;
  for (size_t index : executes) {
    ExecuteResponse response = ServeExecute((*batch)[index], lease, &churn);
    if (requests_failed_ != nullptr && !response.status.ok()) {
      requests_failed_->Increment();
    }
    Fulfill<ExecuteResponse>((*batch)[index].execute_state,
                             std::move(response));
  }
  if (!churn.empty()) {
    // Persistent failures observed on the Execute path flow back into the
    // epoch store: uncooperative/removed sources disappear from the *next*
    // epoch (this batch's lease keeps reading the current one).
    const Status status = ApplyChurn(churn);
    if (status.ok() && persistent_failure_churn_ != nullptr) {
      persistent_failure_churn_->Increment(churn.size());
    }
    // A rejected batch is already counted by the snapshot manager's
    // churn_rejected metric; the registry keeps the sources marked as
    // reported either way.
  }
}

RefineResponse MubeService::ServeOne(const Pending& pending,
                                     const SnapshotManager::Lease& lease) {
  RefineResponse response;
  response.queue_seconds = pending.queued.ElapsedSeconds();
  response.epoch = lease.epoch();
  response.dispatch_sequence = pending.dispatch_sequence;
  Tenant* tenant = FindTenant(pending.refine.tenant);
  if (tenant == nullptr) {  // deregistered between Submit and dispatch
    response.status =
        Status::NotFound("unknown tenant '" + pending.refine.tenant + "'");
    return response;
  }
  const double remaining_ms = RemainingMs(pending, NowMs());
  if (remaining_ms <= 0.0) {
    // Dispatch itself consumed the last of the budget (e.g. an earlier
    // batch ran long): shed here rather than start a doomed run.
    if (deadline_expired_at_serve_ != nullptr) {
      deadline_expired_at_serve_->Increment();
    }
    tenant->RecordServingEvent(TenantServingEvent::kShedDeadline);
    response.status = Status::DeadlineExceeded(
        "deadline expired between dispatch and serve");
    return response;
  }
  if (pending.deadline_ms > 0.0 && options_.degrade_threshold_ms > 0.0 &&
      remaining_ms < options_.degrade_threshold_ms) {
    std::optional<MubeResult> incumbent = tenant->incumbent();
    if (incumbent.has_value()) {
      response.results.push_back(std::move(*incumbent));
      response.degraded = true;
      if (degraded_serves_ != nullptr) degraded_serves_->Increment();
      tenant->RecordServingEvent(TenantServingEvent::kDegraded);
      tenant->RecordServingEvent(TenantServingEvent::kServedOk);
      response.staleness_epochs =
          snapshots_->current_epoch() - lease.epoch();
      if (queue_seconds_ != nullptr) {
        queue_seconds_->Observe(response.queue_seconds);
        staleness_epochs_->Observe(
            static_cast<double>(response.staleness_epochs));
      }
      return response;
    }
    // No cached incumbent to degrade to: run with whatever is left.
  }
  const RunSpec spec =
      tenant->BuildRunSpec(lease.universe(), pending.refine.seed);
  // SLO tripwire: the checks above make dispatching past the deadline
  // structurally impossible; the counter exists so the chaos bench can
  // assert that instead of trusting it.
  if (remaining_ms <= 0.0 && post_deadline_dispatch_ != nullptr) {
    post_deadline_dispatch_->Increment();
  }
  WallTimer run_timer;
  if (pending.refine.alternatives > 1) {
    Result<std::vector<MubeResult>> results =
        lease.engine().RunAlternatives(spec, pending.refine.alternatives);
    if (results.ok()) {
      response.results = results.MoveValueUnsafe();
    } else {
      response.status = results.status();
    }
  } else {
    Result<MubeResult> result = lease.engine().Run(spec);
    if (result.ok()) {
      response.results.push_back(result.MoveValueUnsafe());
    } else {
      response.status = result.status();
    }
  }
  response.run_seconds = run_timer.ElapsedSeconds();
  if (response.status.ok() && !response.results.empty()) {
    // The best fresh answer becomes the incumbent: Execute's selection and
    // the stale answer future degraded serves fall back on.
    tenant->SetIncumbent(response.results.front());
    tenant->RecordServingEvent(TenantServingEvent::kServedOk);
    tenant->ObserveServeSeconds(response.run_seconds);
  }
  response.staleness_epochs = snapshots_->current_epoch() - lease.epoch();
  if (queue_seconds_ != nullptr) {
    queue_seconds_->Observe(response.queue_seconds);
    request_run_seconds_->Observe(response.run_seconds);
    staleness_epochs_->Observe(
        static_cast<double>(response.staleness_epochs));
  }
  return response;
}

ExecuteResponse MubeService::ServeExecute(const Pending& pending,
                                          const SnapshotManager::Lease& lease,
                                          std::vector<ChurnEvent>* churn_out) {
  ExecuteResponse response;
  response.queue_seconds = pending.queued.ElapsedSeconds();
  response.epoch = lease.epoch();
  response.dispatch_sequence = pending.dispatch_sequence;
  Tenant* tenant = FindTenant(pending.execute.tenant);
  if (tenant == nullptr) {
    response.status =
        Status::NotFound("unknown tenant '" + pending.execute.tenant + "'");
    return response;
  }
  const double remaining_ms = RemainingMs(pending, NowMs());
  if (remaining_ms <= 0.0) {
    if (deadline_expired_at_serve_ != nullptr) {
      deadline_expired_at_serve_->Increment();
    }
    tenant->RecordServingEvent(TenantServingEvent::kShedDeadline);
    response.status = Status::DeadlineExceeded(
        "deadline expired between dispatch and serve");
    return response;
  }
  if (pending.deadline_ms > 0.0 && options_.degrade_threshold_ms > 0.0 &&
      remaining_ms < options_.degrade_threshold_ms) {
    std::optional<ExecutionReport> cached = tenant->cached_report();
    if (cached.has_value()) {
      response.report = std::move(*cached);
      response.degraded = true;
      if (degraded_serves_ != nullptr) degraded_serves_->Increment();
      tenant->RecordServingEvent(TenantServingEvent::kDegraded);
      tenant->RecordServingEvent(TenantServingEvent::kServedOk);
      response.staleness_epochs =
          snapshots_->current_epoch() - lease.epoch();
      if (queue_seconds_ != nullptr) {
        queue_seconds_->Observe(response.queue_seconds);
        staleness_epochs_->Observe(
            static_cast<double>(response.staleness_epochs));
      }
      return response;
    }
    // Nothing cached: a degraded answer is impossible, run with the rest.
  }
  std::optional<MubeResult> incumbent = tenant->incumbent();
  if (!incumbent.has_value()) {
    response.status = Status::FailedPrecondition(
        "tenant '" + pending.execute.tenant +
        "' has no incumbent selection; run a successful Refine first");
    return response;
  }
  // Churn may have retired incumbent members since the Refine that produced
  // them; execute against the survivors (the same lazy shedding
  // BuildRunSpec applies to pins).
  std::vector<uint32_t> sources;
  sources.reserve(incumbent->solution.sources.size());
  for (uint32_t sid : incumbent->solution.sources) {
    if (lease.universe().alive(sid)) sources.push_back(sid);
  }
  if (sources.empty()) {
    response.status = Status::FailedPrecondition(
        "tenant '" + pending.execute.tenant +
        "' incumbent selection was fully retired by churn; Refine again");
    return response;
  }
  // Deadline propagation into the executor: the unspent service-clock
  // budget caps the simulated per-query budget (the two clocks share the
  // millisecond unit by convention).
  ReliabilityOptions exec_options = options_.reliability;
  if (std::isfinite(remaining_ms)) {
    exec_options.retry.query_deadline_ms =
        exec_options.retry.query_deadline_ms > 0.0
            ? std::min(exec_options.retry.query_deadline_ms, remaining_ms)
            : remaining_ms;
  }
  ReliableExecutor executor(lease.universe(), std::move(sources),
                            incumbent->solution.schema, exec_options);
  executor.set_fault_injector(options_.fault_injector);
  executor.set_signature_cache(&lease.engine().signatures());
  // Breakers, streaks, and the simulated clock outlive this executor: the
  // service-owned registry carries them across requests and epochs.
  executor.set_breaker_bank(breakers_.bank());
  executor.set_clock_ms(breakers_.clock_ms());
  if (remaining_ms <= 0.0 && post_deadline_dispatch_ != nullptr) {
    post_deadline_dispatch_->Increment();  // SLO tripwire, see ServeOne
  }
  WallTimer run_timer;
  Result<ExecutionReport> executed = executor.Execute(pending.execute.query);
  response.run_seconds = run_timer.ElapsedSeconds();
  breakers_.AdvanceClockTo(executor.clock_ms());
  if (!executed.ok()) {
    response.status = executed.status();
    return response;
  }
  ExecutionReport report = executed.MoveValueUnsafe();
  breakers_.FoldReport(report);
  if (breaker_opens_ != nullptr) {
    breaker_opens_->Increment(report.breaker_opens);
    breaker_half_opens_->Increment(report.breaker_half_opens);
    breaker_closes_->Increment(report.breaker_closes);
  }
  // Per-tenant health feedback, the same UserState fold Session uses: the
  // tenant's next biased RunSpec selects around sources it saw failing.
  tenant->RecordExecution(report);
  if (report.outcome != QueryOutcome::kFailed) {
    tenant->CacheReport(report);
  }
  tenant->RecordServingEvent(TenantServingEvent::kExecute);
  tenant->RecordServingEvent(TenantServingEvent::kServedOk);
  tenant->ObserveServeSeconds(response.run_seconds);
  if (executes_total_ != nullptr) executes_total_->Increment();
  std::vector<ChurnEvent> events =
      breakers_.DrainPersistentFailures(lease.universe());
  churn_out->insert(churn_out->end(),
                    std::make_move_iterator(events.begin()),
                    std::make_move_iterator(events.end()));
  response.report = std::move(report);
  response.staleness_epochs = snapshots_->current_epoch() - lease.epoch();
  if (queue_seconds_ != nullptr) {
    queue_seconds_->Observe(response.queue_seconds);
    request_run_seconds_->Observe(response.run_seconds);
    staleness_epochs_->Observe(
        static_cast<double>(response.staleness_epochs));
  }
  return response;
}

}  // namespace mube
