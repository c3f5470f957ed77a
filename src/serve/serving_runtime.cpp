#include "serve/serving_runtime.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "exec/validate.hpp"
#include "util/guards.hpp"

namespace tilesparse::serve {

std::shared_ptr<const SharedModel> SharedModel::load(const std::string& path) {
  auto model = std::make_shared<SharedModel>();
  model->path = path;
  model->weights = load_model_weights(path);
  return model;
}

std::shared_ptr<const SharedModel> SharedModel::load_mapped(
    const std::string& path) {
  auto model = std::make_shared<SharedModel>();
  model->path = path;
  model->weights = load_model_weights_mapped(path);
  return model;
}

const PackedWeight* SharedModel::find(std::string_view name) const noexcept {
  for (const NamedWeight& entry : weights)
    if (entry.name == name) return entry.weight.get();
  return nullptr;
}

struct ServingRuntime::Counters {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> rejected_full{0};
  std::atomic<std::uint64_t> rejected_closed{0};
  std::atomic<std::uint64_t> evicted{0};
  std::atomic<std::uint64_t> timeout{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> degraded_ok{0};
};

ServingRuntime::ServingRuntime(ServingOptions options)
    : options_(options), counters_(std::make_unique<Counters>()) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.streams == 0) options_.streams = 1;
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  queue_ = std::make_unique<AdmissionQueue<std::shared_ptr<Item>>>(
      options_.queue_capacity);
  // Entry requests always go through the batcher; it completes members
  // through complete() and retries them solo through run_attempts(),
  // the same two functions opaque work uses.
  batcher_ = std::make_unique<RequestBatcher>(
      options_.batch,
      [this](BatchMember& member, Response response) {
        complete(member, std::move(response));
      },
      [this](BatchEntry& entry, BatchMember& member, const BatchWorker& worker,
             bool batch_faulted) {
        run_attempts(
            member, worker,
            [&entry, &member](WorkerContext& context) {
              return entry.run(context.scheduler, member.input);
            },
            batch_faulted);
      });

  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    SchedulerOptions primary = options_.scheduler;
    primary.streams = options_.streams;
    if (options_.streams > 1) {
      // Private pool per worker: streams - 1 pool threads + the worker
      // itself give exactly `streams` concurrent streams, and one
      // worker's load never steals another's threads.
      worker->pool = std::make_unique<ThreadPool>(options_.streams - 1);
      worker->primary =
          std::make_unique<ExecScheduler>(primary, worker->pool.get());
    } else {
      worker->primary = std::make_unique<ExecScheduler>(primary);
    }
    // The degraded path: serial, unsharded, and with validation off —
    // after the primary path rejects a graph (validation) or faults
    // (stream death), this is the smallest machinery that can still
    // serve the request.
    SchedulerOptions fallback;
    fallback.streams = 1;
    fallback.shard_wide_n = false;
    fallback.validate = false;
    worker->fallback = std::make_unique<ExecScheduler>(fallback);
    worker->primary->set_cancel_token(&worker->cancel);
    worker->fallback->set_cancel_token(&worker->cancel);
    workers_.push_back(std::move(worker));
  }
  // Threads last: workers touch only fully-constructed state.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
  }
}

ServingRuntime::~ServingRuntime() { shutdown(Shutdown::kDrain); }

RequestHandle ServingRuntime::submit(Request request) {
  const bool batchable = !request.entry.empty();
  if (!batchable && !request.work) {
    throw std::invalid_argument("ServingRuntime::submit: null work callable");
  }
  if (batchable && request.work) {
    throw std::invalid_argument(
        "ServingRuntime::submit: a request carries either work or a batch "
        "entry, not both");
  }
  std::shared_ptr<BatchEntry> entry;
  if (batchable) {
    entry = batch_entry(request.entry);
    if (!entry) {
      throw std::invalid_argument("ServingRuntime::submit: unknown batch entry '" +
                                  request.entry + "'");
    }
    if (request.input.rows() == 0 ||
        request.input.rows() % entry->group_rows_in() != 0 ||
        request.input.cols() != entry->input_cols()) {
      throw std::invalid_argument(
          "ServingRuntime::submit: input for entry '" + request.entry +
          "' must be a non-empty multiple of " +
          std::to_string(entry->group_rows_in()) + " rows x " +
          std::to_string(entry->input_cols()) + " cols");
    }
  }
  auto handle = std::make_shared<PendingRequest>(
      next_id_.fetch_add(1, std::memory_order_relaxed));
  counters_->submitted.fetch_add(1, std::memory_order_relaxed);

  auto item = std::make_shared<Item>();
  BatchMember& member = item->member;
  member.handle = handle;
  // A copy: once pushed, a worker may move the member away, so the
  // admission bookkeeping below reads the tenant from `request`.
  member.tenant = request.tenant_id;
  member.tag = std::move(request.tag);
  member.enqueued = Clock::now();
  member.deadline = request.deadline;
  if (member.deadline == Clock::time_point::max() &&
      options_.default_deadline != Clock::duration::max()) {
    member.deadline = member.enqueued + options_.default_deadline;
  }
  member.cost = entry ? entry->cost(request.input.rows()) : 0.0;
  member.input = std::move(request.input);
  item->work = std::move(request.work);
  item->entry = std::move(entry);
  {
    std::lock_guard lock(tenants_mutex_);
    ++tenant_stats_[member.tenant].submitted;
  }

  std::shared_ptr<Item> shed;
  const PushOutcome outcome =
      queue_->push(item, request.priority,
                   options_.evict_lower_priority ? &shed : nullptr,
                   request.tenant_id);
  switch (outcome) {
    case PushOutcome::kAdmitted:
      counters_->admitted.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard lock(tenants_mutex_);
        ++tenant_stats_[request.tenant_id].admitted;
      }
      break;
    case PushOutcome::kAdmittedAfterEvict: {
      counters_->admitted.fetch_add(1, std::memory_order_relaxed);
      TS_CHECK(shed != nullptr, "ServingRuntime: evict outcome without victim");
      Response response;
      response.status = RequestStatus::kRejected;
      response.error = "shed from admission queue for a higher-priority arrival";
      counters_->evicted.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard lock(tenants_mutex_);
        ++tenant_stats_[request.tenant_id].admitted;
        ++tenant_stats_[shed->member.tenant].evicted;
      }
      response.tag = shed->member.tag;
      response.queue_wait = Clock::now() - shed->member.enqueued;
      shed->member.handle->complete(std::move(response));
      break;
    }
    case PushOutcome::kRejectedFull: {
      counters_->rejected_full.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard lock(tenants_mutex_);
        ++tenant_stats_[request.tenant_id].rejected_full;
      }
      Response response;
      response.status = RequestStatus::kRejected;
      response.error = "admission queue full";
      response.tag = member.tag;
      handle->complete(std::move(response));
      break;
    }
    case PushOutcome::kRejectedClosed: {
      counters_->rejected_closed.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard lock(tenants_mutex_);
        ++tenant_stats_[request.tenant_id].rejected_closed;
      }
      Response response;
      response.status = RequestStatus::kRejected;
      response.error = "runtime shutting down";
      response.tag = member.tag;
      handle->complete(std::move(response));
      break;
    }
  }
  return handle;
}

void ServingRuntime::register_batch_entry(std::shared_ptr<BatchEntry> entry) {
  TS_CHECK(entry != nullptr, "register_batch_entry: null entry");
  std::lock_guard lock(entries_mutex_);
  entries_[entry->name()] = std::move(entry);
}

std::shared_ptr<BatchEntry> ServingRuntime::batch_entry(
    std::string_view name) const {
  std::lock_guard lock(entries_mutex_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

void ServingRuntime::complete(BatchMember& member, Response response) {
  response.tag = member.tag;
  response.queue_wait = member.arrival - member.enqueued;
  response.service_time = Clock::now() - member.arrival;
  if (response.attempts > 1)
    counters_->retries.fetch_add(response.attempts - 1,
                                 std::memory_order_relaxed);
  {
    std::lock_guard lock(tenants_mutex_);
    TenantStats& tenant = tenant_stats_[member.tenant];
    switch (response.status) {
      case RequestStatus::kOk:
        counters_->ok.fetch_add(1, std::memory_order_relaxed);
        if (response.degraded)
          counters_->degraded_ok.fetch_add(1, std::memory_order_relaxed);
        ++tenant.ok;
        tenant.cost_ok += member.cost;
        if (response.batched) ++tenant.batched_ok;
        break;
      case RequestStatus::kTimeout:
        counters_->timeout.fetch_add(1, std::memory_order_relaxed);
        ++tenant.timeout;
        break;
      case RequestStatus::kFailed:
        counters_->failed.fetch_add(1, std::memory_order_relaxed);
        ++tenant.failed;
        break;
      case RequestStatus::kRejected:
      case RequestStatus::kPending:
        TS_CHECK(false, "ServingRuntime: unexpected worker-side status");
        break;
    }
  }
  member.handle->complete(std::move(response));
}

namespace {

/// Deadline/cancel-aware sleep; false when the wait was cut short.
bool backoff_wait(const CancelToken& cancel, Clock::duration wait,
                  Clock::time_point deadline) {
  const Clock::time_point wake = Clock::now() + wait;
  while (true) {
    const Clock::time_point now = Clock::now();
    if (now >= wake) return true;
    if (now >= deadline || cancel.cancel_requested()) return false;
    // Short slices keep the wait responsive to deadlines and to
    // shutdown(kCancel) without a dedicated per-worker condition
    // variable.
    const Clock::duration slice = std::min<Clock::duration>(
        std::chrono::microseconds(500), wake - now);
    std::this_thread::sleep_for(slice);
  }
}

}  // namespace

void ServingRuntime::run_attempts(
    BatchMember& member, const BatchWorker& worker,
    const std::function<MatrixF(WorkerContext&)>& work, bool batch_faulted) {
  // A faulted batch run was the member's first attempt on the primary
  // path; it continues at once on the fallback.  The loop always runs
  // the attempt it starts at, so that retry happens even at
  // max_attempts = 1 (failure isolation).
  std::uint32_t attempt = batch_faulted ? 1 : 0;
  auto backoff = std::chrono::duration_cast<Clock::duration>(
      options_.retry_backoff);
  // Once streams == 1 the primary path IS serial; "degraded" then only
  // ever means the validation-off fallback engaged.
  bool degraded = batch_faulted;
  Response response;
  for (;; ++attempt) {
    response.attempts = attempt + 1;
    response.degraded = degraded;
    worker.cancel->reset(member.deadline);
    ExecScheduler& scheduler =
        degraded ? *worker.fallback : *worker.primary;
    // Pin the attached model for this attempt: a concurrent
    // attach_model must not destroy storage (possibly a borrowed mmap)
    // the work callable is executing against.
    const std::shared_ptr<const SharedModel> pinned_model = model();
    WorkerContext context{scheduler,         *worker.cancel, worker.worker_id,
                          attempt,           degraded,       pinned_model.get()};
    bool validation_failure = false;
    try {
      response.result = work(context);
      response.status = RequestStatus::kOk;
      break;
    } catch (const CancelledError& e) {
      // Deadline overrun (or shutdown cancel) observed at a node
      // boundary: terminal, never retried — the deadline will not
      // come back.
      response.status = RequestStatus::kTimeout;
      response.error = e.what();
      break;
    } catch (const GraphValidationError& e) {
      response.status = RequestStatus::kFailed;
      response.error = e.what();
      validation_failure = true;
    } catch (const std::exception& e) {
      response.status = RequestStatus::kFailed;
      response.error = e.what();
    } catch (...) {
      response.status = RequestStatus::kFailed;
      response.error = "unknown exception from request work";
    }

    if (attempt + 1 >= options_.max_attempts) break;  // attempts exhausted
    // Every retry runs degraded: after a fault on the overlapped path
    // (a stream died mid-graph) or a rejected graph, the serial
    // fallback is the robust choice; a fault on the fallback itself
    // (transient, e.g. injected) retries there too.
    degraded = true;
    if (!validation_failure) {
      // Transient-failure backoff; validation failures skip it (the
      // fallback either serves the graph or never will).
      if (!backoff_wait(*worker.cancel, backoff, member.deadline)) {
        if (Clock::now() >= member.deadline) {
          response.status = RequestStatus::kTimeout;
          response.error = "deadline expired during retry backoff";
          break;
        }
        // Shutdown cancel: report the last real failure as terminal.
        break;
      }
      backoff = std::chrono::duration_cast<Clock::duration>(
          backoff * options_.backoff_multiplier);
    }
    if (Clock::now() >= member.deadline) {
      response.status = RequestStatus::kTimeout;
      response.error = "deadline expired before retry";
      break;
    }
  }
  complete(member, std::move(response));
}

void ServingRuntime::serve_one(Worker& worker, std::size_t worker_id,
                               Item& item) {
  BatchMember& member = item.member;
  member.arrival = Clock::now();
  if (member.arrival >= member.deadline) {
    Response response;
    response.status = RequestStatus::kTimeout;
    response.error = "deadline expired in admission queue";
    complete(member, std::move(response));
    return;
  }
  const BatchWorker batch_worker{worker.primary.get(), worker.fallback.get(),
                                 &worker.cancel, worker_id};
  if (item.entry) {
    // Entry request: the batcher completes it, inside a wide-M run with
    // members other workers deposited or solo.  This worker may serve
    // as the batch leader for a while; that is by design — the
    // remaining workers keep popping and feeding the forming batch.
    batcher_->serve(item.entry, std::move(member), batch_worker);
    return;
  }
  run_attempts(member, batch_worker, item.work, /*batch_faulted=*/false);
}

void ServingRuntime::worker_loop(std::size_t worker_id) {
  Worker& worker = *workers_[worker_id];
  std::shared_ptr<Item> item;
  while (queue_->pop(item)) {
    serve_one(worker, worker_id, *item);
    item.reset();
  }
}

void ServingRuntime::shutdown(Shutdown mode) {
  {
    std::lock_guard lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  if (mode == Shutdown::kCancel) {
    // Backlog first (so workers cannot pop any of it), then members
    // queued inside the batcher, then in-flight work.
    std::vector<std::shared_ptr<Item>> backlog = queue_->close_and_drain();
    for (std::shared_ptr<Item>& item : backlog) {
      item->member.arrival = Clock::now();
      Response response;
      response.status = RequestStatus::kTimeout;
      response.error = "cancelled: runtime shutdown";
      complete(item->member, std::move(response));
    }
    batcher_->close(RequestBatcher::Close::kCancel);
    for (auto& worker : workers_) worker->cancel.cancel();
  } else {
    queue_->close();
    // Leaders flush without further lingering; members still drain.
    batcher_->close(RequestBatcher::Close::kDrain);
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  for (auto& worker : workers_) {
    if (worker->pool) worker->pool->shutdown();
  }
}

ServingRuntime::Stats ServingRuntime::stats() const {
  Stats stats;
  stats.submitted = counters_->submitted.load(std::memory_order_relaxed);
  stats.admitted = counters_->admitted.load(std::memory_order_relaxed);
  stats.ok = counters_->ok.load(std::memory_order_relaxed);
  stats.rejected_full =
      counters_->rejected_full.load(std::memory_order_relaxed);
  stats.rejected_closed =
      counters_->rejected_closed.load(std::memory_order_relaxed);
  stats.evicted = counters_->evicted.load(std::memory_order_relaxed);
  stats.timeout = counters_->timeout.load(std::memory_order_relaxed);
  stats.failed = counters_->failed.load(std::memory_order_relaxed);
  stats.retries = counters_->retries.load(std::memory_order_relaxed);
  stats.degraded_ok = counters_->degraded_ok.load(std::memory_order_relaxed);
  return stats;
}

std::map<std::string, ServingRuntime::TenantStats> ServingRuntime::tenant_stats()
    const {
  std::lock_guard lock(tenants_mutex_);
  return tenant_stats_;
}

RequestBatcher::BatchStats ServingRuntime::batch_stats() const {
  return batcher_->stats();
}

void ServingRuntime::attach_model(std::shared_ptr<const SharedModel> model) {
  const std::lock_guard<std::mutex> lock(model_mutex_);
  model_ = std::move(model);
}

std::shared_ptr<const SharedModel> ServingRuntime::model() const {
  const std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

}  // namespace tilesparse::serve
