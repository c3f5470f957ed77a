#include "exec/batch_entry.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace tilesparse {

double BatchEntry::cost(std::size_t rows) const noexcept {
  const double m = macs(rows);
  const double b = static_cast<double>(weight_bytes());
  // Geometric blend of compute and weight traffic, floored at 1 so a
  // degenerate entry still charges something per member.
  return std::max(1.0, std::sqrt(std::max(1.0, m) * std::max(1.0, b)));
}

GraphBatchEntry::GraphBatchEntry(Config config) : config_(std::move(config)) {
  if (!config_.builder) {
    throw std::invalid_argument("GraphBatchEntry: null builder");
  }
  if (config_.input_cols == 0 || config_.group_rows_in == 0 ||
      config_.group_rows_out == 0) {
    throw std::invalid_argument("GraphBatchEntry: bad config shape");
  }
  input_ = graph_.add_slot(config_.name + ".in");
  graph_.mark_input(input_);
  output_ = config_.builder(graph_, input_);
  graph_.mark_output(output_);
}

MatrixF GraphBatchEntry::run(ExecScheduler& scheduler, const MatrixF& input) {
  if (input.rows() == 0 || input.rows() % config_.group_rows_in != 0 ||
      input.cols() != config_.input_cols) {
    throw std::invalid_argument("BatchEntry '" + config_.name +
                                "': input must be a non-empty multiple of " +
                                std::to_string(config_.group_rows_in) +
                                " rows x " +
                                std::to_string(config_.input_cols) + " cols");
  }
  // One run at a time: every run reshapes and overwrites the same slots.
  std::lock_guard lock(mutex_);
  MatrixF& in_slot = graph_.slot(input_);
  ensure_shape(in_slot, input.rows(), input.cols());
  std::memcpy(in_slot.data(), input.data(),
              input.rows() * input.cols() * sizeof(float));
  scheduler.run(graph_);
  return graph_.slot(output_);  // deep copy (owning matrix)
}

std::unique_ptr<GraphBatchEntry> make_gemm_entry(std::string name,
                                                 const PackedWeight* weight,
                                                 const MatrixF* bias) {
  if (weight == nullptr) {
    throw std::invalid_argument("make_gemm_entry: null weight");
  }
  GraphBatchEntry::Config config;
  config.name = std::move(name);
  config.input_cols = weight->k();
  config.output_cols = weight->n();
  config.macs_per_row =
      weight->macs(2) - weight->macs(1);  // per-row marginal MACs
  config.weight_bytes = weight->bytes();
  config.builder = [weight, bias](ExecGraph& graph, ExecGraph::SlotId input) {
    ExecGraph::SlotId out = graph.add_slot("out");
    graph.add_gemm("gemm", weight, input, out, ExecContext{}, bias);
    return out;
  };
  return std::make_unique<GraphBatchEntry>(std::move(config));
}

}  // namespace tilesparse
