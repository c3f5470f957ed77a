#include "exec/scheduler.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "exec/calibration.hpp"
#include "exec/validate.hpp"
#include "tensor/ops.hpp"
#include "util/fault_injection.hpp"
#include "util/guards.hpp"

namespace tilesparse {
namespace {

/// Dense rate assumed when the host never ran calibrate_planner; only
/// sets the sharding floor, so an order of magnitude is enough.
constexpr double kFallbackDenseGflops = 8.0;

}  // namespace

ExecScheduler::ExecScheduler(SchedulerOptions options, ThreadPool* pool)
    : options_(options), pool_(pool ? pool : &ThreadPool::global()) {
  if (options_.min_shard_cols == 0) options_.min_shard_cols = 1;
}

std::size_t ExecScheduler::streams() const noexcept {
  return options_.streams > 0 ? options_.streams : pool_->worker_count();
}

std::size_t ExecScheduler::shard_count(const ExecGraph::Node& node) const {
  if (node.kind != ExecGraph::NodeKind::kGemm) return 1;
  if (!options_.shard_wide_n) return 1;
  const std::size_t streams = this->streams();
  if (streams < 2) return 1;
  // Per-tensor dynamic int8 scales are a property of the *whole*
  // weight; slicing would re-quantise and change results.
  if (!node.weight->col_shardable() || node.ctx.int8()) return 1;

  const PlannerCalibration& calibration = planner_calibration();
  const double dense_gflops =
      calibration.measured() ? calibration.dense_gflops : kFallbackDenseGflops;
  // Per-format effective rate: a slow format (csr penalty > 1) covers
  // the dispatch overhead with fewer of its own MACs, so it shards
  // earlier than dense for the same nominal MAC count.
  const double gflops =
      dense_gflops /
      std::max(0.05, calibration.mac_penalty(node.weight->format()));
  const double overhead_us = options_.dispatch_overhead_us >= 0.0
                                 ? options_.dispatch_overhead_us
                                 : calibration.shard_overhead_us;
  // gflops * 1e9 flop/s * overhead_us * 1e-6 s, at 2 flops per MAC.
  const double min_macs_per_shard =
      std::max(1.0, gflops * overhead_us * 1e3 / 2.0);
  const double macs = node.weight->macs(options_.reference_m);
  const auto by_cost = static_cast<std::size_t>(macs / min_macs_per_shard);
  const std::size_t by_cols = node.weight->n() / options_.min_shard_cols;
  return std::max<std::size_t>(1, std::min({streams, by_cost, by_cols}));
}

ExecScheduler::Plan& ExecScheduler::prepare(ExecGraph& graph) {
  const auto& nodes = graph.nodes();
  for (auto& cached : plan_cache_) {
    if (cached->build_id == graph.build_id() &&
        cached->node_count == nodes.size() && cached->streams == streams()) {
      cached->last_used = ++plan_stamp_;
      return *cached;
    }
  }

  // Miss: build a fresh plan, evicting the least-recently-used entry
  // once the cache is full.
  auto fresh = std::make_unique<Plan>();
  Plan& plan = *fresh;
  plan.node_plans.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::size_t count = shard_count(nodes[i]);
    if (count < 2) continue;
    const std::size_t n = nodes[i].weight->n();
    const std::size_t base = n / count, rem = n % count;
    std::size_t n0 = 0;
    plan.node_plans[i].shards.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t n1 = n0 + base + (s < rem ? 1 : 0);
      Shard shard;
      shard.weight = nodes[i].weight->shard_cols(n0, n1);
      shard.n0 = n0;
      shard.n1 = n1;
      plan.node_plans[i].shards.push_back(std::move(shard));
      n0 = n1;
    }
    if (options_.validate && !plan.node_plans[i].shards.empty()) {
      // Audit the *actual* plan, not a re-derivation: the slices above
      // are what will execute, so a shard_cols implementation that
      // mis-shapes a slice is caught before it computes a single MAC.
      std::vector<std::pair<std::size_t, std::size_t>> slices;
      slices.reserve(plan.node_plans[i].shards.size());
      for (const Shard& shard : plan.node_plans[i].shards)
        slices.emplace_back(shard.n0, shard.n1);
      auto findings = audit_shard_slices(*nodes[i].weight, slices);
      for (const GraphFinding& finding : findings) {
        if (finding.severity == FindingSeverity::kError)
          throw GraphValidationError(std::move(findings));
      }
    }
  }

  // Expand nodes into dispatch tasks: one per whole node, or S column
  // shards plus a join for sharded GEMMs.  The expansion is static
  // across runs; only the pending counters are per-run state.
  std::vector<std::vector<std::size_t>> entry(nodes.size());  // receive deps
  std::vector<std::size_t> exit(nodes.size());                // signal dependents
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::vector<Shard>& shards = plan.node_plans[i].shards;
    if (shards.empty()) {
      Task task;
      task.node = i;
      task.initial_pending = nodes[i].deps.size();
      plan.tasks.push_back(std::move(task));
      entry[i] = {plan.tasks.size() - 1};
      exit[i] = plan.tasks.size() - 1;
      continue;
    }
    ++plan.sharded_nodes;
    const std::size_t join_id = plan.tasks.size() + shards.size();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      Task task;
      task.node = i;
      task.shard = static_cast<std::ptrdiff_t>(s);
      task.initial_pending = nodes[i].deps.size();
      task.successors = {join_id};
      plan.tasks.push_back(std::move(task));
      entry[i].push_back(plan.tasks.size() - 1);
      ++plan.shards;
    }
    Task join;
    join.node = i;
    join.shard = -2;
    join.initial_pending = shards.size();
    plan.tasks.push_back(std::move(join));
    exit[i] = join_id;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (ExecGraph::NodeId dependent : nodes[i].dependents) {
      auto& successors = plan.tasks[exit[i]].successors;
      successors.insert(successors.end(), entry[dependent].begin(),
                        entry[dependent].end());
    }
  }
  for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
    if (plan.tasks[t].initial_pending == 0) plan.initially_ready.push_back(t);
  }

  plan.build_id = graph.build_id();
  plan.node_count = nodes.size();
  plan.streams = streams();
  plan.last_used = ++plan_stamp_;

  if (plan_cache_.size() >= kPlanCacheCapacity) {
    auto lru = std::min_element(plan_cache_.begin(), plan_cache_.end(),
                                [](const auto& a, const auto& b) {
                                  return a->last_used < b->last_used;
                                });
    *lru = std::move(fresh);
    return **lru;
  }
  plan_cache_.push_back(std::move(fresh));
  return *plan_cache_.back();
}

void ExecScheduler::run_serial(ExecGraph& graph) {
  for (ExecGraph::NodeId id : graph.topo_order()) {
    if (cancel_) cancel_->throw_if_expired();
    fault_point(FaultSite::kSchedulerDispatch);
    graph.execute_node(id);
  }
  stats_ = RunStats{};
  stats_.nodes = graph.node_count();
  stats_.tasks = graph.node_count();
}

void ExecScheduler::run(ExecGraph& graph) {
  if (graph.node_count() == 0) {
    stats_ = RunStats{};
    return;
  }
  if (options_.validate && !graph.validated()) {
    // One static pass per graph edit: def-use, hazard coverage,
    // acyclicity, shapes, shard plans.  Throws GraphValidationError
    // (all findings listed) instead of dispatching a malformed plan.
    // The mark lives on the graph — the audit reads no scheduler
    // option — so one pass serves every scheduler that runs it.
    validate_graph_or_throw(graph);
    graph.mark_validated();
  }
  graph.poison_slots();  // guards builds: NaN out every non-input slot
  if (streams() <= 1) {
    run_serial(graph);
    return;
  }
  run_concurrent(graph);
}

void ExecScheduler::execute_task(ExecGraph& graph, Plan& plan,
                                 const Task& task) {
  // Node-boundary cancellation point + injected stream faults: both
  // throw here, inside the stream loop's try, so an expired deadline or
  // an injected fault aborts the run through the same first-exception
  // path a real node failure takes.
  if (cancel_) cancel_->throw_if_expired();
  fault_point(FaultSite::kSchedulerDispatch);
  if (task.shard == -1) {
    graph.execute_node(task.node);
    return;
  }
  const ExecGraph::Node& node = graph.nodes()[task.node];
  if (task.shard >= 0) {
    TS_ASSERT(static_cast<std::size_t>(task.shard) <
              plan.node_plans[task.node].shards.size());
    Shard& shard =
        plan.node_plans[task.node].shards[static_cast<std::size_t>(task.shard)];
    const MatrixF& a = graph.slot(node.in);
    ensure_shape(shard.scratch, a.rows(), shard.n1 - shard.n0);
    shard.weight->matmul(node.ctx, a, shard.scratch);
    return;
  }
  // Join: stitch the shard columns into the output slot, then bias.
  const MatrixF& a = graph.slot(node.in);
  MatrixF& c = graph.slot(node.out);
  ensure_shape(c, a.rows(), node.weight->n());
  for (const Shard& shard : plan.node_plans[task.node].shards) {
    const std::size_t width = shard.n1 - shard.n0;
    for (std::size_t r = 0; r < c.rows(); ++r) {
      const float* src = shard.scratch.data() + r * width;
      float* dst = c.data() + r * c.cols() + shard.n0;
      for (std::size_t j = 0; j < width; ++j) dst[j] = src[j];
    }
  }
  if (node.bias) add_row_bias(c, *node.bias);
}

void ExecScheduler::run_concurrent(ExecGraph& graph) {
  Plan& plan = prepare(graph);
  const std::vector<Task>& tasks = plan.tasks;
  stats_ = RunStats{};
  stats_.nodes = graph.node_count();
  stats_.tasks = tasks.size();
  stats_.sharded_nodes = plan.sharded_nodes;
  stats_.shards = plan.shards;

  // Per-run state: pending counters and the ready queue, seeded from
  // the cached expansion.  Everything below the mutex; the kernels
  // themselves run unlocked.
  std::vector<std::size_t> pending(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t)
    pending[t] = tasks[t].initial_pending;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::size_t> ready = plan.initially_ready;
  std::size_t next_ready = 0;
  std::size_t executed = 0;
  bool aborted = false;
  std::exception_ptr error;

  auto stream_loop = [&](std::size_t) {
    std::unique_lock lock(mutex);
    for (;;) {
      cv.wait(lock, [&] {
        return aborted || executed == tasks.size() || next_ready < ready.size();
      });
      if (aborted || executed == tasks.size()) return;
      const std::size_t id = ready[next_ready++];
      lock.unlock();
      try {
        execute_task(graph, plan, tasks[id]);
      } catch (...) {
        lock.lock();
        if (!error) error = std::current_exception();
        aborted = true;
        cv.notify_all();
        return;
      }
      lock.lock();
      ++executed;
      bool woke_any = false;
      for (std::size_t successor : tasks[id].successors) {
        if (--pending[successor] == 0) {
          ready.push_back(successor);
          woke_any = true;
        }
      }
      if (executed == tasks.size() || woke_any) cv.notify_all();
    }
  };

  pool_->parallel_for(0, streams(), stream_loop);
  if (error) std::rethrow_exception(error);
  TS_CHECK(executed == tasks.size(),
           "ExecScheduler: graph did not complete (dispatch invariant)");
}

}  // namespace tilesparse
