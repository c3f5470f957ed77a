#pragma once
// Quiet, single-threaded measurements taken after the load phases:
// the node pass (the served graph run node by node through
// ExecGraph::execute_node), graph build + validation, and timed
// PackedWeight::matmul calls for the kernel-level ratios.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Node times of the served graph at one row count, medians over reps.
struct NodeProfile {
  std::size_t rows = 0;
  std::map<std::string, double> op_ms;  ///< by op: gemm, gelu, attn_core, ...
  double node_sum_ms = 0.0;             ///< every node
  double gemm_ms = 0.0;                 ///< GEMM nodes
  double host_ms = 0.0;                 ///< host (non-GEMM) nodes
  double entry_run_ms = 0.0;  ///< BatchEntry::run at the same rows, quiet
};

/// The op a node's time is grouped under: "gemm" for GEMM nodes, else
/// the blockN.<op> suffix mapped to gelu / attn_core / layernorm /
/// residual / pool / classifier.
std::string op_of(const tilesparse::ExecGraph::Node& node);

/// Runs the served graph at `input.rows()` rows node by node, `reps`
/// times after one warm-up pass, on the calling thread (whose kernel
/// thread budget is the workload's), and times the entry the same way.
NodeProfile profile_nodes(const Deployment& deployment, const MatrixF& input,
                          std::size_t reps, Trace& trace);

/// Median milliseconds of building the served graph for one request
/// unit and validating it (validate_graph_or_throw).
double graph_build_ms(const Deployment& deployment, std::size_t rows,
                      std::size_t reps, Trace& trace);

struct KernelProfile {
  double tw_gflops = 0.0;     ///< 2 x kept MACs / time
  double dense_gflops = 0.0;  ///< 2 x dense MACs / time
  double tw_vs_dense = 0.0;   ///< dense time / tw time, same shapes
  double int8_m1_us = 0.0;
  double int8_mbatch_us = 0.0;
};

/// Timed PackedWeight::matmul calls at `batch_rows` rows: tw and dense
/// over block 0's six weights, and block 0's FFN-in weight packed
/// tw-int8 at M = 1 and `batch_rows`.
KernelProfile profile_kernels(const WorkloadSpec& spec,
                              const Artifact& artifact,
                              std::size_t batch_rows, Trace& trace);

}  // namespace perfbench
