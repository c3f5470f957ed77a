#include "workload.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <utility>

#include "exec/backend_registry.hpp"
#include "nn/batch_entry.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "workload/datasets.hpp"

namespace perfbench {

using namespace tilesparse;
using Ms = std::chrono::duration<double, std::milli>;

namespace {

/// Weights do not vary with --seed: the seed draws the load, the model
/// under test stays the same across runs.
constexpr std::uint64_t kModelSeed = 0x7e57;

}  // namespace

WorkloadSpec workload_spec(const std::string& name, bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  // BERT-mini: L4 / H256 / FFN1024, 4 heads, 32-token sequences.
  spec.bert_config.dim = 256;
  spec.bert_config.heads = 4;
  spec.bert_config.layers = 4;
  spec.bert_config.ffn_dim = 1024;
  spec.bert_config.seq = 32;
  spec.bert_config.classes = 4;
  spec.bert_config.seed = kModelSeed;
  if (name == "bert_tw_closed") {
    spec.clients = 4;
  } else if (name == "bert_int8_closed") {
    spec.clients = 4;
    spec.format = "tw-int8";
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (smoke) {
    spec.bert_config.dim = 64;
    spec.bert_config.heads = 2;
    spec.bert_config.layers = 2;
    spec.bert_config.ffn_dim = 128;
    spec.bert_config.seq = 8;
    spec.input_pool = 8;
    spec.setup_repeats = 3;
    spec.windows = 2;
    spec.warmup_s = 0.2;
  }
  return spec;
}

std::unique_ptr<BertMini> make_model(const WorkloadSpec& spec) {
  Rng rng(kModelSeed);
  MatrixF table(spec.vocab, spec.bert_config.dim);
  fill_normal(table, rng, 0.0f, 0.5f);
  return std::make_unique<BertMini>(spec.bert_config, table);
}

Artifact produce_artifact(const WorkloadSpec& spec, BertMini* model,
                          const std::string& path, Trace& trace) {
  Artifact artifact;
  artifact.path = path;
  std::vector<std::pair<std::string, const MatrixF*>> sources;
  for (Linear* layer : model->prunable_layers())
    sources.emplace_back(layer->weight().name, &layer->weight().value);
  const std::string& format = spec.format;

  std::vector<std::unique_ptr<PackedWeight>> packed;
  double kept_macs = 0.0, dense_macs = 0.0;
  for (const auto& [name, weights] : sources) {
    Artifact::Layer layer;
    layer.name = name;
    layer.dense = *weights;
    MatrixF scores(weights->rows(), weights->cols());
    for (std::size_t i = 0; i < weights->size(); ++i)
      scores.data()[i] = std::fabs(weights->data()[i]);

    auto t0 = Clock::now();
    layer.pattern = tw_pattern_from_scores(scores, spec.sparsity, spec.tile_g);
    auto t1 = Clock::now();
    trace.record("prune.pattern", "prune", t0, t1);
    artifact.prune_ms += Ms(t1 - t0).count();

    layer.pruned = *weights;
    apply_pattern(layer.pattern, layer.pruned);
    PackOptions options;
    options.pattern = &layer.pattern;
    t0 = Clock::now();
    packed.push_back(make_packed(format, layer.pruned, options));
    t1 = Clock::now();
    trace.record("pack." + format, "prune", t0, t1);
    artifact.pack_ms += Ms(t1 - t0).count();

    kept_macs += packed.back()->macs(1);
    dense_macs += static_cast<double>(weights->size());
    artifact.layers.push_back(std::move(layer));
  }
  artifact.kept_mac_share = kept_macs / dense_macs;

  std::vector<std::pair<std::string, const PackedWeight*>> entries;
  for (std::size_t i = 0; i < packed.size(); ++i)
    entries.emplace_back(artifact.layers[i].name, packed[i].get());
  const auto t0 = Clock::now();
  save_model_weights(path, entries);
  const auto t1 = Clock::now();
  trace.record("io.save", "io", t0, t1);
  artifact.save_ms = Ms(t1 - t0).count();
  artifact.bytes = std::filesystem::file_size(path);
  return artifact;
}

MatrixF TimedEntry::run(ExecScheduler& scheduler, const MatrixF& input) {
  const auto t0 = Clock::now();
  MatrixF out = inner_->run(scheduler, input);
  trace_.record("exec.entry_run", "exec", t0, Clock::now(), 0, 0,
                static_cast<long>(input.rows()));
  return out;
}

Deployment::Deployment(const WorkloadSpec& spec, const Artifact& artifact,
                       BertMini* model, const MatrixF& first_input,
                       Trace& trace)
    : model_(model) {
  ctx_.threads = spec.kernel_threads;

  auto t0 = Clock::now();
  std::vector<NamedWeight> weights = load_model_weights_mapped(artifact.path);
  auto t1 = Clock::now();
  trace.record("io.load_mapped", "io", t0, t1);
  load_mapped_ms_ = Ms(t1 - t0).count();

  std::map<std::string, Linear*> layers;
  for (Linear* layer : model_->prunable_layers())
    layers[layer->weight().name] = layer;
  for (NamedWeight& weight : weights) {
    Linear* layer = layers.at(weight.name);
    layer->set_packed_weight(std::move(weight.weight));
    layer->set_exec_context(ctx_);
  }
  entry_ = make_bert_entry("bert", *model_);

  serve::ServingOptions options;
  options.workers = spec.workers;
  options.streams = spec.streams;
  options.batch.enabled = true;
  runtime_ = std::make_unique<serve::ServingRuntime>(options);
  runtime_->register_batch_entry(entry_);

  serve::Request request;
  request.entry = entry_->name();
  request.input = first_input;
  const serve::RequestHandle handle = runtime_->submit(std::move(request));
  const serve::Response& response = handle->wait();
  if (response.status != serve::RequestStatus::kOk) {
    throw std::runtime_error("set-up request ended " +
                             std::string(serve::status_name(response.status)) +
                             ": " + response.error);
  }
}

Deployment::~Deployment() {
  runtime_->shutdown(serve::ServingRuntime::Shutdown::kDrain);
  runtime_.reset();
  entry_.reset();
}

ExecGraph::SlotId Deployment::build(ExecGraph& graph,
                                    ExecGraph::SlotId input) const {
  return model_->append_exec_graph(graph, input);
}

void Deployment::wrap_entry(Trace& trace) {
  runtime_->register_batch_entry(std::make_shared<TimedEntry>(entry_, trace));
}

void Deployment::unwrap_entry() { runtime_->register_batch_entry(entry_); }

std::vector<MatrixF> make_inputs(const WorkloadSpec& spec, BertMini* model,
                                 std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<MatrixF> inputs;
  inputs.reserve(spec.input_pool);
  for (std::size_t i = 0; i < spec.input_pool; ++i) {
    TokenBatch batch;
    batch.batch = 1;
    batch.seq = spec.bert_config.seq;
    batch.y.assign(1, 0);
    for (std::size_t t = 0; t < batch.seq; ++t)
      batch.tokens.push_back(static_cast<int>(rng.below(spec.vocab)));
    inputs.push_back(model->embed(batch));
  }
  return inputs;
}

std::vector<MatrixF> references(BatchEntry& entry,
                                const std::vector<MatrixF>& inputs) {
  SchedulerOptions options;
  options.streams = 1;
  ExecScheduler scheduler(options);
  std::vector<MatrixF> out;
  out.reserve(inputs.size());
  for (const MatrixF& input : inputs) out.push_back(entry.run(scheduler, input));
  return out;
}

bool bit_equal(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace perfbench
