#include "profile.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/backend_registry.hpp"
#include "exec/scheduler.hpp"
#include "exec/validate.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace tilesparse;
using Ms = std::chrono::duration<double, std::milli>;

namespace {

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Median microseconds of `weight.matmul` at `a`'s rows over 15 to 200
/// calls (30 ms of calls when that comes first), after a warm-up call.
double matmul_us(const PackedWeight& weight, const ExecContext& ctx,
                 const MatrixF& a, Trace& trace, const std::string& label) {
  MatrixF c(a.rows(), weight.n());
  weight.matmul(ctx, a, c);
  std::vector<double> samples;
  double total_ms = 0.0;
  while (samples.size() < 15 || (total_ms < 30.0 && samples.size() < 200)) {
    const auto t0 = Clock::now();
    weight.matmul(ctx, a, c);
    const auto t1 = Clock::now();
    trace.record(label, "gemm", t0, t1, 0, 0, static_cast<long>(a.rows()));
    samples.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    total_ms += samples.back() * 1e-3;
  }
  return median(samples);
}

MatrixF random_rows(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF a(rows, cols);
  fill_normal(a, rng, 0.0f, 1.0f);
  return a;
}

}  // namespace

std::string op_of(const ExecGraph::Node& node) {
  if (node.kind == ExecGraph::NodeKind::kGemm) return "gemm";
  const std::string& name = node.name;
  if (ends_with(name, ".core")) return "attn_core";
  if (ends_with(name, ".ln1") || ends_with(name, ".ln2")) return "layernorm";
  if (ends_with(name, ".res1") || ends_with(name, ".res2")) return "residual";
  if (ends_with(name, ".gelu")) return "gelu";
  if (name == "pool") return "pool";
  if (name.rfind("cls", 0) == 0) return "classifier";
  return "other";
}

NodeProfile profile_nodes(const Deployment& deployment, const MatrixF& input,
                          std::size_t reps, Trace& trace) {
  NodeProfile profile;
  profile.rows = input.rows();
  ExecGraph graph;
  const ExecGraph::SlotId in = graph.add_slot("in");
  graph.mark_input(in);
  graph.mark_output(deployment.build(graph, in));
  validate_graph_or_throw(graph);
  const std::vector<ExecGraph::NodeId> order = graph.topo_order();

  // The same rows through the entry on a streams=1 scheduler are what
  // the node sum should reconcile with; alternating the two passes keeps
  // a drift in host speed out of the comparison.
  SchedulerOptions options;
  options.streams = 1;
  ExecScheduler scheduler(options);
  BatchEntry& entry = *deployment.entry();
  std::vector<std::vector<double>> node_ms(graph.node_count());
  std::vector<double> run_ms;
  for (std::size_t rep = 0; rep <= reps; ++rep) {  // rep 0 warms up
    graph.slot(in) = input;
    for (const ExecGraph::NodeId id : order) {
      const auto t0 = Clock::now();
      graph.execute_node(id);
      const auto t1 = Clock::now();
      if (rep == 0) continue;
      node_ms[id].push_back(Ms(t1 - t0).count());
      const ExecGraph::Node& node = graph.nodes()[id];
      trace.record(node.name,
                   node.kind == ExecGraph::NodeKind::kGemm ? "gemm" : "nn", t0,
                   t1, 0, 0, static_cast<long>(input.rows()));
    }
    const auto t0 = Clock::now();
    (void)entry.run(scheduler, input);
    if (rep > 0) run_ms.push_back(Ms(Clock::now() - t0).count());
  }
  for (ExecGraph::NodeId id = 0; id < graph.node_count(); ++id) {
    const ExecGraph::Node& node = graph.nodes()[id];
    const double ms = median(node_ms[id]);
    profile.op_ms[op_of(node)] += ms;
    profile.node_sum_ms += ms;
    (node.kind == ExecGraph::NodeKind::kGemm ? profile.gemm_ms
                                             : profile.host_ms) += ms;
  }
  profile.entry_run_ms = median(run_ms);
  return profile;
}

double graph_build_ms(const Deployment& deployment, std::size_t rows,
                      std::size_t reps, Trace& trace) {
  std::vector<double> samples;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    ExecGraph graph;
    const ExecGraph::SlotId in = graph.add_slot("in");
    graph.mark_input(in);
    graph.mark_output(deployment.build(graph, in));
    validate_graph_or_throw(graph);
    const auto t1 = Clock::now();
    trace.record("exec.graph_build", "exec", t0, t1, 0, 0,
                 static_cast<long>(rows));
    samples.push_back(Ms(t1 - t0).count());
  }
  return median(samples);
}

KernelProfile profile_kernels(const WorkloadSpec& spec,
                              const Artifact& artifact,
                              std::size_t batch_rows, Trace& trace) {
  ExecContext ctx;
  ctx.threads = spec.kernel_threads;
  KernelProfile profile;

  // tw vs dense over block 0's six weights.
  const std::size_t shapes = 6;
  double tw_us = 0.0, dense_us = 0.0, tw_macs = 0.0, dense_macs = 0.0;
  for (std::size_t i = 0; i < shapes && i < artifact.layers.size(); ++i) {
    const Artifact::Layer& layer = artifact.layers[i];
    PackOptions options;
    options.pattern = &layer.pattern;
    const auto tw = make_packed("tw", layer.pruned, options);
    const auto dense = make_packed("dense", layer.dense);
    const MatrixF a = random_rows(batch_rows, layer.dense.rows(), 11 + i);
    tw_us += matmul_us(*tw, ctx, a, trace, "gemm.tw." + layer.name);
    dense_us += matmul_us(*dense, ctx, a, trace, "gemm.dense." + layer.name);
    tw_macs += tw->macs(batch_rows);
    dense_macs += dense->macs(batch_rows);
  }
  profile.tw_gflops = 2.0 * tw_macs / (tw_us * 1e3);
  profile.dense_gflops = 2.0 * dense_macs / (dense_us * 1e3);
  profile.tw_vs_dense = dense_us / tw_us;

  // tw-int8: block 0's FFN-in weight.
  const auto layer_it = std::find_if(
      artifact.layers.begin(), artifact.layers.end(),
      [](const Artifact::Layer& l) { return l.name == "block0.ffn_in.w"; });
  if (layer_it == artifact.layers.end())
    throw std::logic_error("profile_kernels: block0.ffn_in.w not in artifact");
  PackOptions int8_options;
  int8_options.pattern = &layer_it->pattern;
  const auto int8 = make_packed("tw-int8", layer_it->pruned, int8_options);
  profile.int8_m1_us = matmul_us(*int8, ctx, random_rows(1, int8->k(), 21),
                                 trace, "quant.tw_int8");
  profile.int8_mbatch_us =
      matmul_us(*int8, ctx, random_rows(batch_rows, int8->k(), 22), trace,
                "quant.tw_int8");
  return profile;
}

}  // namespace perfbench
