#pragma once
// The benchmark's workloads and the system under test they drive.
//
// A workload fixes a model (BERT-mini with TW-pruned encoder weights in
// one packed format), the serving configuration, and the offered load.
// Everything is an absolute value here — deadlines, client counts,
// thread budgets — so two commits receive the same load whatever their
// speed.
//
// The flow of one run:
//   produce_artifact  prune, pack and save the weights (not set-up)
//   Deployment        map the artifact, install backends, register the
//                     entry, warm up to the first OK response (set-up)
//   make_inputs /     the request inputs from --seed, and each one's
//   references        solo result, for the bit-for-bit output check

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tile_pattern.hpp"
#include "exec/batch_entry.hpp"
#include "io/serialize.hpp"
#include "nn/bert_mini.hpp"
#include "serve/serving_runtime.hpp"
#include "trace.hpp"

namespace perfbench {

using tilesparse::MatrixF;

struct WorkloadSpec {
  std::string name;
  std::string format = "tw";  ///< PackedWeight format of the served weights
  /// Closed loop: each client keeps one request outstanding, submitting
  /// the next as soon as the previous one completes.
  std::size_t clients = 4;
  /// Interactive latency budget, checked client-side (no request
  /// deadline is set, so nothing is dropped).
  double interactive_deadline_ms = 60.0;
  // Model.
  tilesparse::BertMiniConfig bert_config;
  std::size_t vocab = 1000;
  double sparsity = 0.75;
  std::size_t tile_g = 64;
  // Serving and thread budget.
  std::size_t workers = 2;
  std::size_t streams = 1;
  int kernel_threads = 1;
  // Inputs: a pool of distinct request inputs drawn from the seed.
  std::size_t input_pool = 64;
  // Harness.
  std::size_t setup_repeats = 31;
  /// End-to-end figures are medians over this many time windows.
  std::size_t windows = 5;
  double warmup_s = 2.0;
};

/// The named workload; `smoke` shrinks every size for the self-check.
/// Throws std::invalid_argument on an unknown name.
WorkloadSpec workload_spec(const std::string& name, bool smoke);

/// Produced weights: the saved artifact plus what the per-layer
/// measurements need (patterns, pruned copies, unpruned masters).
struct Artifact {
  std::string path;
  std::uintmax_t bytes = 0;
  double prune_ms = 0.0;  ///< tw_pattern_from_scores, all weights
  double pack_ms = 0.0;
  double save_ms = 0.0;
  double kept_mac_share = 0.0;  ///< packed / dense MACs at M = 1
  struct Layer {
    std::string name;
    MatrixF dense;   ///< unpruned master
    MatrixF pruned;  ///< pattern applied
    tilesparse::TilePattern pattern;
  };
  std::vector<Layer> layers;
};

/// The model object behind a workload (random BERT-mini-family
/// weights, the same for every --seed).
std::unique_ptr<tilesparse::BertMini> make_model(const WorkloadSpec& spec);

Artifact produce_artifact(const WorkloadSpec& spec,
                          tilesparse::BertMini* model,
                          const std::string& path, Trace& trace);

/// Wraps an entry and records one "exec.entry_run" span per run, on
/// the worker thread that ran it, with the row count.
class TimedEntry : public tilesparse::BatchEntry {
 public:
  TimedEntry(std::shared_ptr<tilesparse::BatchEntry> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  const std::string& name() const noexcept override { return inner_->name(); }
  std::size_t input_cols() const noexcept override {
    return inner_->input_cols();
  }
  std::size_t output_cols() const noexcept override {
    return inner_->output_cols();
  }
  std::size_t group_rows_in() const noexcept override {
    return inner_->group_rows_in();
  }
  std::size_t group_rows_out() const noexcept override {
    return inner_->group_rows_out();
  }
  MatrixF run(tilesparse::ExecScheduler& scheduler,
              const MatrixF& input) override;
  double macs(std::size_t rows) const noexcept override {
    return inner_->macs(rows);
  }
  std::size_t weight_bytes() const noexcept override {
    return inner_->weight_bytes();
  }

 private:
  std::shared_ptr<tilesparse::BatchEntry> inner_;
  Trace& trace_;
};

/// One set-up of the serving stack over the mapped artifact.
class Deployment {
 public:
  /// Maps the artifact, installs the backends into `model`, registers
  /// the entry on a fresh runtime and serves `first_input`
  /// until it comes back OK.  Throws if it does not.
  Deployment(const WorkloadSpec& spec, const Artifact& artifact,
             tilesparse::BertMini* model, const MatrixF& first_input,
             Trace& trace);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  tilesparse::serve::ServingRuntime& runtime() { return *runtime_; }
  const std::shared_ptr<tilesparse::BatchEntry>& entry() const {
    return entry_;
  }
  /// Appends the served model's nodes to `graph` (the same builder the
  /// entry uses); returns the output slot.
  tilesparse::ExecGraph::SlotId build(tilesparse::ExecGraph& graph,
                                      tilesparse::ExecGraph::SlotId input) const;
  double load_mapped_ms() const { return load_mapped_ms_; }
  /// Registers a TimedEntry around the entry (between load phases).
  void wrap_entry(Trace& trace);
  void unwrap_entry();

 private:
  tilesparse::BertMini* model_;
  tilesparse::ExecContext ctx_;
  std::shared_ptr<tilesparse::BatchEntry> entry_;
  std::unique_ptr<tilesparse::serve::ServingRuntime> runtime_;
  double load_mapped_ms_ = 0.0;
};

/// The spec's input_pool request inputs drawn from `seed`: the embedded
/// token rows of one sequence each.
std::vector<MatrixF> make_inputs(const WorkloadSpec& spec,
                                 tilesparse::BertMini* model,
                                 std::uint64_t seed);

/// Solo result of every input through `entry` on a streams=1
/// scheduler — the reference each OK response must equal bit for bit.
std::vector<MatrixF> references(tilesparse::BatchEntry& entry,
                                const std::vector<MatrixF>& inputs);

bool bit_equal(const MatrixF& a, const MatrixF& b);

}  // namespace perfbench
