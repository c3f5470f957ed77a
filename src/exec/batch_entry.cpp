#include "exec/batch_entry.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace tilesparse {

// Distinct-M graphs one entry keeps alive: serving batches of 1-4
// sequences form four row counts, so every steady-state M stays cached.
constexpr std::size_t kGraphCacheCapacity = 4;

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
}

GraphBatchEntry::CachedGraph& GraphBatchEntry::graph_for(std::size_t rows) {
  for (auto it = graphs_.begin(); it != graphs_.end(); ++it) {
    if (it->rows == rows) {
      graphs_.splice(graphs_.begin(), graphs_, it);  // move to MRU front
      return graphs_.front();
    }
  }
  CachedGraph entry;
  entry.rows = rows;
  entry.graph = std::make_unique<ExecGraph>();
  entry.input = entry.graph->add_slot(config_.name + ".in");
  entry.graph->mark_input(entry.input);
  entry.output = config_.builder(*entry.graph, entry.input, rows);
  entry.graph->mark_output(entry.output);
  if (graphs_.size() >= kGraphCacheCapacity) graphs_.pop_back();
  graphs_.push_front(std::move(entry));
  return graphs_.front();
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
  // One run at a time: graphs and the layer state their host nodes
  // touch are not concurrency-safe, and the lock also protects the LRU.
  std::lock_guard lock(mutex_);
  CachedGraph& cached = graph_for(input.rows());
  MatrixF& in_slot = cached.graph->slot(cached.input);
  if (in_slot.rows() != input.rows() || in_slot.cols() != input.cols()) {
    in_slot = MatrixF(input.rows(), input.cols());
  }
  std::memcpy(in_slot.data(), input.data(),
              input.rows() * input.cols() * sizeof(float));
  scheduler.run(*cached.graph);
  return cached.graph->slot(cached.output);  // deep copy (owning matrix)
}

std::size_t GraphBatchEntry::cached_graphs() const {
  std::lock_guard lock(mutex_);
  return graphs_.size();
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
  config.builder = [weight, bias](ExecGraph& graph, ExecGraph::SlotId input,
                                  std::size_t) {
    ExecGraph::SlotId out = graph.add_slot("out");
    graph.add_gemm("gemm", weight, input, out, ExecContext{}, bias);
    return out;
  };
  return std::make_unique<GraphBatchEntry>(std::move(config));
}

}  // namespace tilesparse
