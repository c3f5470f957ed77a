#pragma once
// ServingRuntime — the fault-tolerant request front end above
// ExecScheduler.
//
// Nothing above the scheduler used to absorb traffic or isolate
// failures: one bad request, corrupt artifact, or hung stream took the
// process with it.  ServingRuntime is that missing layer.  It owns a
// bounded AdmissionQueue and a set of serving workers, each with its
// own ExecScheduler pair and deadline-armed CancelToken, and it
// guarantees that every submitted request reaches exactly one terminal
// status (see serve/request.hpp) no matter what fails underneath:
//
//  * Admission: push never blocks.  A full queue sheds (REJECTED) —
//    optionally evicting a strictly lower-priority entry to admit a
//    more urgent one (the evicted entry is itself completed REJECTED).
//  * Deadlines: checked when a worker pops (expired in queue ->
//    TIMEOUT without execution), at every graph node boundary during
//    execution (cooperative cancellation -> TIMEOUT mid-run), and
//    across retry backoff waits.
//  * Failure isolation: an exception from the work — a node throwing
//    mid-graph, an artifact that fails to parse, an injected fault —
//    is captured per-request (FAILED); the worker and its schedulers
//    keep serving subsequent requests.
//  * Graceful degradation: transient failures retry with bounded
//    exponential backoff, and after the overlapped multi-stream path
//    faults (or its graph fails validation) the retry runs on the
//    streams=1 serial fallback scheduler — slower, but with the
//    smallest possible machinery still in the loop.  Every solo run —
//    opaque work, or a batch entry with batching off, bypassing the
//    linger or retried after a batch fault — goes through one retry
//    loop bounded by max_attempts.  The one exception is isolation:
//    when a batch run faults, the run counts as each member's first
//    attempt and every member retries solo on the fallback at once,
//    with no backoff and with at least that one retry even at
//    max_attempts = 1 — so a poisoned member fails alone while its
//    co-travellers complete OK.
//  * Teardown: shutdown(kDrain) serves the backlog to completion;
//    shutdown(kCancel) completes the backlog as TIMEOUT and cancels
//    in-flight work at the next node boundary.  Either way the
//    conservation identity holds once shutdown returns:
//        admitted == OK + TIMEOUT + FAILED + evicted.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/batch_entry.hpp"
#include "exec/scheduler.hpp"
#include "io/serialize.hpp"
#include "serve/admission_queue.hpp"
#include "serve/batch/batch_policy.hpp"
#include "serve/batch/request_batcher.hpp"
#include "serve/request.hpp"
#include "util/cancellation.hpp"
#include "util/threadpool.hpp"

namespace tilesparse::serve {

/// An immutable model — named PackedWeights loaded from one deployment
/// artifact — shared read-only by every worker of a runtime (and, via
/// load_mapped, by every *process* serving the same file: the bulk
/// payloads borrow a shared read-only mmap, so N serving processes cost
/// one physical copy of the weights between them; see
/// examples/shared_weights.cpp for the measurement).
struct SharedModel {
  std::string path;
  std::vector<NamedWeight> weights;

  /// Stream-loads the artifact into owned storage (accepts v1 and v2).
  static std::shared_ptr<const SharedModel> load(const std::string& path);
  /// Zero-copy load: maps the artifact and borrows bulk payloads in
  /// place (v2 only).  The mapping lives as long as the model.
  static std::shared_ptr<const SharedModel> load_mapped(
      const std::string& path);

  /// Weight by layer name; null when absent.
  const PackedWeight* find(std::string_view name) const noexcept;
};

struct ServingOptions {
  /// Serving workers; each owns a private ThreadPool sized for
  /// `streams` and serves one request at a time.
  std::size_t workers = 2;
  /// Admission queue capacity; arrivals beyond it are shed, never
  /// queued unboundedly and never blocking the submitter.
  std::size_t queue_capacity = 64;
  /// Scheduler streams per worker on the primary path; 1 serves every
  /// graph serially.
  std::size_t streams = 2;
  /// Total execution attempts per request (first try + retries).
  std::uint32_t max_attempts = 2;
  /// Backoff before the first retry; grows by backoff_multiplier per
  /// further retry.  The wait is deadline- and shutdown-aware.
  std::chrono::microseconds retry_backoff{200};
  double backoff_multiplier = 2.0;
  /// Deadline applied to requests that carry none;
  /// Clock::duration::max() = unlimited.
  Clock::duration default_deadline = Clock::duration::max();
  /// Allow a full queue to admit a higher-priority arrival by shedding
  /// its newest strictly-lower-priority entry.
  bool evict_lower_priority = true;
  /// Base options for each worker's primary scheduler (streams is
  /// overridden by `streams` above).
  SchedulerOptions scheduler;
  /// Cross-request batching policy (serve/batch/batch_policy.hpp).
  /// Disabled by default: batchable requests then run solo on the
  /// worker that popped them, through the same retry loop as opaque
  /// work.
  BatchPolicy batch;
};

/// What a Request::work callable sees while running on a worker.
struct WorkerContext {
  /// The scheduler to run graphs through.  Its cancel token is armed
  /// with the request deadline, so graph runs time out cooperatively.
  ExecScheduler& scheduler;
  /// The worker's cancel token, for work that loops outside graph runs
  /// (check cancel.expired() / throw_if_expired() at safe points).
  const CancelToken& cancel;
  std::size_t worker_id = 0;
  std::uint32_t attempt = 0;  ///< 0-based attempt number
  /// True on the serial fallback path (after an overlapped-path fault
  /// or validation failure, or always once streams == 1 retries).
  bool degraded = false;
  /// The runtime's attached model (attach_model), or null when none is
  /// attached.  Valid for the duration of the work callable.
  const SharedModel* model = nullptr;
};

class ServingRuntime {
 public:
  explicit ServingRuntime(ServingOptions options = {});
  /// Drains outstanding work (shutdown(kDrain)) before returning.
  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// Submits a request.  Never blocks: the returned handle is already
  /// terminal (REJECTED) when the queue is full and nothing lower
  /// priority could be shed, or when the runtime is shutting down.
  /// Throws std::invalid_argument on a null work callable, on a
  /// request naming both `work` and `entry`, on an unregistered entry
  /// name, or on an input whose shape does not match the entry.
  RequestHandle submit(Request request);

  /// Registers (or replaces) a batch-capable graph entry; requests
  /// naming it in Request::entry may be coalesced into wide-M runs
  /// when options().batch.enabled.  Thread-safe.
  void register_batch_entry(std::shared_ptr<BatchEntry> entry);
  /// Registered entry by name; null when absent.
  std::shared_ptr<BatchEntry> batch_entry(std::string_view name) const;

  enum class Shutdown {
    kDrain,   ///< stop admissions, serve the backlog to completion
    kCancel,  ///< stop admissions, TIMEOUT the backlog, cancel in-flight
  };
  /// Stops the runtime and joins every worker.  Idempotent; the first
  /// call's mode wins.  On return every submitted request is terminal.
  void shutdown(Shutdown mode = Shutdown::kDrain);

  /// Monotonic counters.  The conservation identities
  ///   submitted == admitted + rejected_full + rejected_closed
  ///   admitted  == ok + timeout + failed + evicted      (once quiesced)
  /// hold exactly after shutdown() returns (mid-flight, popped-but-
  /// unfinished requests are in neither bucket).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t ok = 0;
    std::uint64_t rejected_full = 0;    ///< shed at admission: queue full
    std::uint64_t rejected_closed = 0;  ///< shed at admission: shutting down
    std::uint64_t evicted = 0;     ///< admitted, then shed for higher priority
    std::uint64_t timeout = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;      ///< extra attempts beyond each first
    std::uint64_t degraded_ok = 0;  ///< OK served by the serial fallback
    std::uint64_t terminal() const noexcept {
      return ok + rejected_full + rejected_closed + evicted + timeout + failed;
    }
    bool conserved() const noexcept {
      return submitted == terminal() &&
             admitted == ok + evicted + timeout + failed;
    }
  };
  Stats stats() const;

  /// Per-tenant slice of the same accounting, keyed by
  /// Request::tenant_id (the empty key is the anonymous tenant).  The
  /// conservation identity holds for EVERY tenant after shutdown, not
  /// just globally — one tenant's chaos cannot leak statuses into
  /// another's books.  cost_ok additionally accumulates the byte·MAC
  /// service cost of OK batchable work, the measure DRR fairness is
  /// judged by.
  struct TenantStats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t ok = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_closed = 0;
    std::uint64_t evicted = 0;
    std::uint64_t timeout = 0;
    std::uint64_t failed = 0;
    std::uint64_t batched_ok = 0;  ///< OK responses served inside a batch
    double cost_ok = 0.0;          ///< byte·MAC cost of OK batchable work
    std::uint64_t terminal() const noexcept {
      return ok + rejected_full + rejected_closed + evicted + timeout + failed;
    }
    bool conserved() const noexcept {
      return submitted == terminal() &&
             admitted == ok + evicted + timeout + failed;
    }
  };
  std::map<std::string, TenantStats> tenant_stats() const;

  /// Batching diagnostics (zeroed when batching is disabled).
  RequestBatcher::BatchStats batch_stats() const;

  const ServingOptions& options() const noexcept { return options_; }
  std::size_t queue_depth() const { return queue_->size(); }

  /// Attaches (or, with null, detaches) the model requests see as
  /// WorkerContext::model.  Thread-safe; requests already running keep
  /// the model they started with — the runtime pins it per attempt, so
  /// hot-swapping an artifact never pulls borrowed mmap storage out
  /// from under in-flight work.
  void attach_model(std::shared_ptr<const SharedModel> model);
  std::shared_ptr<const SharedModel> model() const;

 private:
  struct Item {
    /// Handle, tenant, tag, input, timing and cost: everything the
    /// worker-side completion records.  Opaque work bills cost 0.
    BatchMember member;
    /// Exactly one of the two is set: the opaque work callable, or the
    /// resolved batch entry, pinned at submit (a later
    /// register_batch_entry replacing the name must not swap graphs
    /// under an admitted request).
    std::function<MatrixF(WorkerContext&)> work;
    std::shared_ptr<BatchEntry> entry;
  };
  struct Worker {
    std::unique_ptr<ThreadPool> pool;  ///< null when streams == 1
    std::unique_ptr<ExecScheduler> primary;
    std::unique_ptr<ExecScheduler> fallback;  ///< streams=1, no sharding
    CancelToken cancel;
    std::thread thread;
  };
  struct Counters;

  void worker_loop(std::size_t worker_id);
  void serve_one(Worker& worker, std::size_t worker_id, Item& item);
  /// The one retry loop: runs `work` for `member` on `worker` until it
  /// succeeds, times out or exhausts its attempts, then completes it.
  /// `batch_faulted` continues a member whose batch run (its first
  /// attempt) faulted; see the isolation rule in the file comment.
  void run_attempts(BatchMember& member, const BatchWorker& worker,
                    const std::function<MatrixF(WorkerContext&)>& work,
                    bool batch_faulted);
  /// Records one worker-side terminal status — global and per-tenant
  /// counters, retries, cost — and completes the member's handle.
  /// Admission-side rejections are recorded inline in submit().
  void complete(BatchMember& member, Response response);

  ServingOptions options_;
  std::unique_ptr<AdmissionQueue<std::shared_ptr<Item>>> queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Counters> counters_;
  std::unique_ptr<RequestBatcher> batcher_;
  mutable std::mutex entries_mutex_;
  std::map<std::string, std::shared_ptr<BatchEntry>, std::less<>> entries_;
  mutable std::mutex tenants_mutex_;
  std::map<std::string, TenantStats> tenant_stats_;
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex shutdown_mutex_;
  bool shut_down_ = false;
  mutable std::mutex model_mutex_;
  std::shared_ptr<const SharedModel> model_;
};

}  // namespace tilesparse::serve
