#pragma once
// RequestBatcher — coalesces concurrent admitted requests for the same
// BatchEntry into one wide-M graph execution.
//
// The serving runtime's workers discover batches cooperatively, with
// no dedicated batching thread:
//
//   worker pops item ──► serve(entry, member, worker)
//        │
//        ├─ bypass?  batching disabled, or remaining deadline budget
//        │  below the linger window (policy.bypass_slack_factor x
//        │  max_linger) ──► hand the member to the runtime's solo
//        │  runner on the calling worker now (its one retry loop:
//        │  max_attempts, backoff, serial fallback on retries).
//        │
//        ├─ a leader is already forming a batch for this entry ──►
//        │  deposit the member with the TenantScheduler, nudge the
//        │  leader, return (the worker goes back to popping — it is
//        │  the feeder that keeps batches filling).
//        │
//        └─ no leader ──► become the leader: linger up to
//           policy.max_linger from the oldest member's arrival (or
//           until pending rows reach policy.max_batch_m), DRR-select
//           a fair batch, gather rows (exec/row_stage.hpp), run the
//           entry ONCE through this worker's scheduler, scatter each
//           member its own output rows.  Repeat while members remain,
//           then step down.
//
// Failure isolation: a batch run that throws CancelledError times out
// every member (the deadline armed is the latest member deadline, so
// this means the whole batch was doomed or the runtime is shutting
// down).  Any other failure hands each member to the solo runner as a
// retry: the batch run was its first attempt, so it continues at
// attempt 2 on the worker's serial fallback scheduler — one poisoned
// member then fails alone (FAILED) while its co-travellers still
// complete OK.  A member whose own deadline expired while the batch
// executed gets TIMEOUT and its output slice is dropped.  Every member
// reaches exactly one terminal status through the Completer (directly,
// or at the end of the solo runner), whatever path it took.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/batch_entry.hpp"
#include "exec/row_stage.hpp"
#include "exec/scheduler.hpp"
#include "serve/batch/batch_policy.hpp"
#include "serve/batch/tenant_scheduler.hpp"
#include "util/cancellation.hpp"

namespace tilesparse::serve {

/// The execution resources a serving worker lends the batcher while it
/// serves (or leads) a batch.  All pointers outlive the call.
struct BatchWorker {
  ExecScheduler* primary = nullptr;
  ExecScheduler* fallback = nullptr;  ///< serial, validation-off
  CancelToken* cancel = nullptr;
  std::size_t worker_id = 0;
};

class RequestBatcher {
 public:
  /// Called exactly once per member with its terminal response; the
  /// runtime's completer records global + per-tenant accounting and
  /// completes the member's handle.
  using Completer = std::function<void(BatchMember& member, Response response)>;
  /// Runs one member solo on the calling worker through the runtime's
  /// retry loop, which completes it.  `batch_faulted`: the member's
  /// first attempt was a batch run that faulted.
  using SoloRunner =
      std::function<void(BatchEntry& entry, BatchMember& member,
                         const BatchWorker& worker, bool batch_faulted)>;

  RequestBatcher(const BatchPolicy& policy, Completer completer,
                 SoloRunner solo);

  /// Serves one admitted member of `entry` using the calling worker.
  /// May block while the caller acts as batch leader.  On return the
  /// member either reached a terminal status or was deposited with the
  /// current leader (which will complete it).
  void serve(const std::shared_ptr<BatchEntry>& entry, BatchMember member,
             const BatchWorker& worker);

  enum class Close {
    kDrain,   ///< leaders flush immediately, new members still served
    kCancel,  ///< queued members complete TIMEOUT, new members too
  };
  void close(Close mode);

  struct BatchStats {
    std::uint64_t batches = 0;          ///< wide-M flushes executed
    std::uint64_t batched_members = 0;  ///< members served inside them
    std::uint64_t solo_bypass = 0;      ///< deadline-bypass solo runs
    std::uint64_t solo_fallback = 0;    ///< members re-run solo after a batch fault
    std::size_t max_batch_rows = 0;     ///< widest flush (input rows)
  };
  BatchStats stats() const;

  const BatchPolicy& policy() const noexcept { return policy_; }

 private:
  /// Per-entry batch formation state.  Stable address (unique_ptr in
  /// the map): the leader blocks on its cv with the batcher mutex.
  struct Group {
    explicit Group(const BatchPolicy* policy) : scheduler(policy) {}
    TenantScheduler scheduler;
    std::condition_variable cv;
    bool leader_active = false;
    RowStage stage;  ///< leader-only (one leader per group at a time)
  };

  void lead(Group& group, const std::shared_ptr<BatchEntry>& entry,
            const BatchWorker& worker, std::unique_lock<std::mutex>& lock);
  void run_batch(Group& group, BatchEntry& entry,
                 std::vector<BatchMember> members, const BatchWorker& worker);
  void complete_timeout(BatchMember& member, const char* reason);

  BatchPolicy policy_;
  Completer completer_;
  SoloRunner solo_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Group>> groups_;
  bool draining_ = false;
  bool cancelled_ = false;
  BatchStats stats_;
};

}  // namespace tilesparse::serve
