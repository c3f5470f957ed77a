#pragma once
// BatchEntry — a named, batch-capable way into a model's graph.
//
// The serving batcher (serve/batch/) coalesces requests into one
// wide-M activation, but it cannot know how any particular model turns
// an M x K input into an M' x N output.  A BatchEntry is that
// contract: "feed me any row-count that is a multiple of
// group_rows_in(), I run the model's ExecGraph once through your
// scheduler, and every group of group_rows_in() input rows yields
// group_rows_out() output rows in order".  The group size carries
// sequence structure through batching — a BERT entry has
// group_rows_in = seq (one sequence = seq embedded token rows) and
// group_rows_out = 1 (pooled logits), so attention and pooling stay
// per-sequence exact while GEMMs run at batch width.
//
// GraphBatchEntry is the generic implementation: a builder callback
// appends the model's nodes to a fresh ExecGraph for a given M, and a
// small M-keyed LRU keeps the graphs for the batch sizes the policy
// actually produces (slots are sized by their first writer, so one
// graph per M reuses every buffer run to run; distinct Ms get distinct
// graphs so no run ever resizes another's slots).  run() serializes
// callers — model graphs and the layer caches their host nodes touch
// are not concurrency-safe — which is exactly the batcher's execution
// model: one leader runs per entry at a time.
//
// cost(rows) is the byte·MAC figure the tenant scheduler charges per
// member (see serve/batch/tenant_scheduler.hpp).

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>

#include "exec/graph.hpp"
#include "exec/scheduler.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

class BatchEntry {
 public:
  virtual ~BatchEntry() = default;

  virtual const std::string& name() const noexcept = 0;
  /// Columns every submitted activation must have.
  virtual std::size_t input_cols() const noexcept = 0;
  /// Columns of the produced output.
  virtual std::size_t output_cols() const noexcept = 0;
  /// Input rows per request unit (e.g. sequence length); submitted
  /// activations must be a multiple of this.
  virtual std::size_t group_rows_in() const noexcept { return 1; }
  /// Output rows produced per input group.
  virtual std::size_t group_rows_out() const noexcept { return 1; }

  /// Runs the entry on `input` (rows % group_rows_in() == 0) through
  /// `scheduler`, returning the (rows / g_in * g_out) x output_cols
  /// result.  Row groups are independent: group i of a wide run is
  /// bit-identical to a solo run of group i.  Safe to call from
  /// multiple workers (implementations serialize internally).
  virtual MatrixF run(ExecScheduler& scheduler, const MatrixF& input) = 0;

  /// MACs one run at `rows` input rows costs (the DRR charge numerator).
  virtual double macs(std::size_t rows) const noexcept = 0;
  /// Bytes of weights the entry touches per run.
  virtual std::size_t weight_bytes() const noexcept = 0;

  /// byte·MAC service cost of `rows` input rows — what the tenant
  /// scheduler charges a tenant per served member.  Geometric blend so
  /// neither huge-weight/low-MAC nor tiny-weight/high-MAC entries
  /// dominate; monotone in rows.
  double cost(std::size_t rows) const noexcept;
};

/// Generic graph-backed entry with an M-keyed graph LRU.
class GraphBatchEntry : public BatchEntry {
 public:
  /// Appends the model's nodes to `graph` for `rows` input rows: reads
  /// the returned-by-reference input slot (marked input by the entry),
  /// returns the output slot (marked output by the entry).
  using Builder = std::function<ExecGraph::SlotId(
      ExecGraph& graph, ExecGraph::SlotId input, std::size_t rows)>;

  struct Config {
    std::string name;
    std::size_t input_cols = 0;
    std::size_t output_cols = 0;
    std::size_t group_rows_in = 1;
    std::size_t group_rows_out = 1;
    double macs_per_row = 0;     ///< macs(rows) = macs_per_row * rows
    std::size_t weight_bytes = 0;
    Builder builder;
  };

  explicit GraphBatchEntry(Config config);

  const std::string& name() const noexcept override { return config_.name; }
  std::size_t input_cols() const noexcept override {
    return config_.input_cols;
  }
  std::size_t output_cols() const noexcept override {
    return config_.output_cols;
  }
  std::size_t group_rows_in() const noexcept override {
    return config_.group_rows_in;
  }
  std::size_t group_rows_out() const noexcept override {
    return config_.group_rows_out;
  }
  MatrixF run(ExecScheduler& scheduler, const MatrixF& input) override;
  double macs(std::size_t rows) const noexcept override {
    return config_.macs_per_row * static_cast<double>(rows);
  }
  std::size_t weight_bytes() const noexcept override {
    return config_.weight_bytes;
  }

  /// Distinct-M graphs currently cached (diagnostics).
  std::size_t cached_graphs() const;

 private:
  struct CachedGraph {
    std::size_t rows = 0;
    std::unique_ptr<ExecGraph> graph;
    ExecGraph::SlotId input = 0;
    ExecGraph::SlotId output = 0;
  };
  CachedGraph& graph_for(std::size_t rows);

  Config config_;
  mutable std::mutex mutex_;  ///< one run at a time; guards the cache
  std::list<CachedGraph> graphs_;  ///< front = most recently used
};

/// A single-GEMM entry over one packed weight (out = in * weight
/// [+ bias]) — the per-format unit the batch tests and benches use.
/// `weight` and `bias` must outlive the entry.
std::unique_ptr<GraphBatchEntry> make_gemm_entry(std::string name,
                                                 const PackedWeight* weight,
                                                 const MatrixF* bias = nullptr);

}  // namespace tilesparse
