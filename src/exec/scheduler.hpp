#pragma once
// ExecScheduler — runs an ExecGraph on the shared ThreadPool.
//
// The scheduler is the paper's Fig. 7-4 stream assignment on CPU
// workers: each "stream" is one pool worker looping over a shared
// ready queue, so independent nodes (an attention block's Q/K/V
// projections) execute concurrently while dependency edges hold
// everything else in dataflow order.
// Every node's arithmetic is unchanged — scheduling only reorders
// *which* node runs when — so a scheduled run is bit-identical to the
// single-stream reference (streams = 1), which executes the graph
// serially on the calling thread with no queueing at all.
//
// Wide-N sharding: a GEMM whose output is very wide can be split into
// column shards with a final join (the second axis of the paper's
// scheme).  Shards are exact column slices of the packed weight —
// PackedWeight::shard_cols(), implemented by the formats whose column
// arithmetic is independent (dense, csr) — each computing its columns
// into private scratch; the join copies them into the output slot and
// applies the bias.  Per output element the accumulation sequence is
// the one the whole weight would have used, so sharded results stay
// bit-identical too.  Shard granularity comes from the
// PlannerCalibration cost model: a shard must carry enough MACs to
// amortise one dispatch, measured against the host's dense rate.
//
// Thread budget: a node's ExecContext.threads still bounds the OpenMP
// parallelism *inside* its kernel, so "S streams x T threads each"
// composes with an overall budget of S*T.  GemmScratch is
// thread_local, so every stream (pool worker) packs panels into its
// own buffers — no scratch is shared across streams.

#include <cstddef>
#include <memory>
#include <vector>

#include "exec/graph.hpp"
#include "util/cancellation.hpp"
#include "util/threadpool.hpp"

namespace tilesparse {

struct SchedulerOptions {
  /// Concurrent worker streams.  1 = single-stream reference (serial,
  /// no queue, no shards); 0 = the pool's worker count.
  std::size_t streams = 0;
  /// Statically verify the graph (exec/validate.hpp) before its first
  /// dispatch and again after any edit (ExecGraph::validated()) —
  /// def-use, hazard-edge completeness, acyclicity, shapes, shard
  /// plans.  run() throws GraphValidationError listing every finding
  /// on a malformed graph.
  bool validate = true;
  /// Split very wide GEMM outputs into column shards.  All five
  /// built-in formats slice exactly (tile formats carry kept_rows and
  /// per-tile scales through the slice); int8 *activation* nodes are
  /// still never sharded — the dense backend's dynamic per-tensor
  /// weight scale is a whole-matrix property.
  bool shard_wide_n = true;
  /// Never split below this many output columns per shard.
  std::size_t min_shard_cols = 32;
  /// Activation rows assumed when sizing shards (the plan is built
  /// before inputs exist; serving batches near this keep shards
  /// balanced).
  std::size_t reference_m = 64;
  /// Estimated cost of dispatching one task; the calibration's
  /// per-format rate converts it into a minimum per-shard MAC count.
  /// Negative = use the calibration's measured shard_overhead_us
  /// ("tile-shard" entry); 0 disables the floor entirely.
  double dispatch_overhead_us = -1.0;
};

class ExecScheduler {
 public:
  /// `pool` must outlive the scheduler; null uses ThreadPool::global().
  explicit ExecScheduler(SchedulerOptions options = {},
                         ThreadPool* pool = nullptr);

  /// Executes every node of `graph` in dependency order, overlapping
  /// independent nodes across streams.  Blocks until the graph is
  /// complete.  The first exception a node throws is rethrown here
  /// (remaining nodes are abandoned, already-running ones finish).
  /// Not reentrant: one run at a time per scheduler.
  void run(ExecGraph& graph);

  const SchedulerOptions& options() const noexcept { return options_; }

  /// Installs a cooperative cancellation token (non-owning; null
  /// detaches).  run() checks it at every node boundary — between
  /// kernels, where no state is half-written — and abandons the rest of
  /// the graph by throwing CancelledError once the token is cancelled
  /// or past its deadline.  A cancelled run leaves the graph reusable:
  /// the next run() re-executes every node.  The serving runtime arms
  /// one token per worker with the active request's deadline.
  void set_cancel_token(const CancelToken* token) noexcept { cancel_ = token; }
  const CancelToken* cancel_token() const noexcept { return cancel_; }

  /// Streams the next run will use (options resolved against the pool).
  std::size_t streams() const noexcept;

  /// Diagnostics of the most recent run().
  struct RunStats {
    std::size_t nodes = 0;          ///< graph nodes executed
    std::size_t tasks = 0;          ///< dispatch units (shards + joins included)
    std::size_t sharded_nodes = 0;  ///< GEMM nodes split into column shards
    std::size_t shards = 0;         ///< total shard tasks
  };
  const RunStats& last_stats() const noexcept { return stats_; }

 private:
  struct Shard {
    std::unique_ptr<PackedWeight> weight;  ///< columns [n0, n1) of the node's weight
    std::size_t n0 = 0, n1 = 0;
    MatrixF scratch;  ///< m x (n1 - n0), storage kept across runs
  };
  struct NodePlan {
    std::vector<Shard> shards;  ///< empty = execute the node whole
  };
  /// One dispatch unit of the expanded task DAG (static across runs;
  /// only the pending counters are per-run state).
  struct Task {
    ExecGraph::NodeId node = 0;
    std::ptrdiff_t shard = -1;  ///< >= 0: shard index; -1: whole node; -2: join
    std::size_t initial_pending = 0;
    std::vector<std::size_t> successors;
  };

  /// One cached expansion: shard plans + task DAG for a specific
  /// (graph build id, node count, stream count).
  struct Plan {
    std::uint64_t build_id = 0;
    std::size_t node_count = 0;
    std::size_t streams = 0;
    std::uint64_t last_used = 0;  ///< LRU stamp
    std::vector<NodePlan> node_plans;
    std::vector<Task> tasks;
    std::vector<std::size_t> initially_ready;
    std::size_t sharded_nodes = 0;
    std::size_t shards = 0;
  };

  Plan& prepare(ExecGraph& graph);
  std::size_t shard_count(const ExecGraph::Node& node) const;
  void execute_task(ExecGraph& graph, Plan& plan, const Task& task);
  void run_serial(ExecGraph& graph);
  void run_concurrent(ExecGraph& graph);

  SchedulerOptions options_;
  ThreadPool* pool_;
  const CancelToken* cancel_ = nullptr;
  // Plan cache: shard slices repack weight columns and the task DAG
  // expansion allocates, so both are built once per (graph build id,
  // node count, stream count) — the serving hot path re-runs the same
  // graph per request.  A small LRU (not a single entry) because one
  // worker's scheduler serves every registered entry, one graph each;
  // one slot would replan whenever requests alternate between entries.
  // Models allocate a fresh ExecGraph (fresh build id) whenever weights
  // are re-packed; the node count catches a graph that grew new nodes
  // in place.
  static constexpr std::size_t kPlanCacheCapacity = 8;
  std::vector<std::unique_ptr<Plan>> plan_cache_;
  std::uint64_t plan_stamp_ = 0;
  RunStats stats_;
};

}  // namespace tilesparse
