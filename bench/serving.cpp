// Serving throughput: requests/sec through the model-level ExecGraph
// vs stream count vs weight format, at an EQUAL total thread budget —
// the measurement behind the stream-assignment claim (paper Fig. 7-4):
// on small serving GEMMs, overlapping independent layers across
// streams (with very wide outputs column-sharded) beats spending the
// same threads inside one GEMM at a time.
//
//   streams=1  -> the single-stream fallback: the graph executed
//                 serially, OpenMP threads *inside* each kernel.
//   streams=S  -> S scheduler streams, budget/S threads per kernel.
//
// Formats are measured at their own operating point: "dense" serves
// the unpruned model; the sparse formats serve a 75%-pruned copy of
// every encoder weight (magnitude pruning for csr, the TW tile
// pattern for tw / tw-int8) — the apples-to-apples serving question
// is "pruned model on format X vs unpruned model on dense", not
// "dense weights forced through a sparse container".  Each row
// reports the *effective* GFLOP/s actually sustained
// (2 * packed encoder MACs per request / wall time) and the measured
// MAC sparsity (1 - packed/dense MACs), both also emitted to --json.
//
// Usage: serving [--json=PATH] [--batch=N] [--budget=T] [--layers=L]
//                [--dim=D] [--ffn=F] [--seq=S] [--secs=X]
//                [--sparsity=P] [--mode=M] [--clients=C] [--tenants=N]
// Defaults measure real BERT-mini shapes (L4/H256/FFN1024, seq 32).
// --secs bounds the measuring time per configuration (tiny CI smoke:
// --secs=0.05 --batch=2 --dim=64 --ffn=128 --layers=2 --seq=8).
//
// --mode selects the section (default "all" runs every one):
//   throughput    the closed-loop format x streams sweep + the
//                 runtime overload section above
//   batch         cross-request batching on vs off at an equal thread
//                 budget: C closed-loop clients submit decode-style
//                 one-row requests into a fat GEMM entry; the batcher
//                 coalesces them into wide-M runs (bit-identical per
//                 row to solo)
//   fairness      one noisy tenant (10 clients) against N-1 light
//                 tenants (2 clients each) through the DRR batcher;
//                 per-tenant req/s + p50/p95/p99 and Jain's fairness
//                 index, batching off vs on
//   dynamic-load  open-loop two-priority mix (interactive w/ deadline,
//                 batch-class without) under a step-function arrival
//                 rate: base -> 3x base -> base; per-phase, per-class
//                 latency tails and shed/expired counts

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "exec/backend_registry.hpp"
#include "exec/scheduler.hpp"
#include "nn/batch_entry.hpp"
#include "nn/bert_mini.hpp"
#include "prune/tw_pruner.hpp"
#include "serve/serving_runtime.hpp"
#include "util/stopwatch.hpp"
#include "util/threadpool.hpp"
#include "workload/datasets.hpp"

namespace {

using namespace tilesparse;
using bench::double_flag;
using bench::size_flag;
using bench::string_flag;

struct Measured {
  double requests_per_sec = 0.0;
  double ms_per_request = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// Nearest-rank percentile over an unsorted sample (sorts in place).
double percentile_ms(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank > 0 ? rank - 1 : 0)];
}

void fill_percentiles(Measured& out, std::vector<double>& latencies_ms) {
  out.p50_ms = percentile_ms(latencies_ms, 0.50);
  out.p95_ms = percentile_ms(latencies_ms, 0.95);
  out.p99_ms = percentile_ms(latencies_ms, 0.99);
}

/// Serves `batch`-sized requests for ~secs through the model's batch
/// entry (embed + one graph run per request) and returns the rate plus
/// the per-request latency distribution.
Measured serve_closed_loop(BertMini& model, BatchEntry& entry,
                           ExecScheduler& scheduler,
                           const TokenTeacherDataset& dataset,
                           std::size_t batch, double secs) {
  Rng rng(4242);
  const TokenBatch request = dataset.sample(batch, rng);
  // Warm-up: graph build, panel packs, pool spin-up.
  (void)entry.run(scheduler, model.embed(request));
  std::vector<double> latencies_ms;
  Stopwatch sw;
  std::size_t served = 0;
  do {
    Stopwatch one;
    (void)entry.run(scheduler, model.embed(request));
    latencies_ms.push_back(one.seconds() * 1e3);
    ++served;
  } while (sw.seconds() < secs);
  const double elapsed = sw.seconds();  // one read: both fields consistent
  Measured out;
  out.ms_per_request = elapsed * 1e3 / static_cast<double>(served);
  out.requests_per_sec = static_cast<double>(served) / elapsed;
  fill_percentiles(out, latencies_ms);
  return out;
}

/// One overload measurement through the ServingRuntime: open-loop
/// arrivals paced at ~2x the closed-loop service rate into a short
/// admission queue, with a deadline of 3x the closed-loop latency.  The
/// runtime must shed (REJECTED) and expire (TIMEOUT) the excess while
/// the served requests keep a bounded latency distribution — the
/// graceful-degradation claim, measured.
struct OverloadMeasured {
  Measured latency;           ///< distribution over OK requests
  std::uint64_t ok = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t rejected = 0;
};

OverloadMeasured serve_overloaded(BertMini& model, BatchEntry& entry,
                                  const TokenTeacherDataset& dataset,
                                  std::size_t batch, std::size_t streams,
                                  double closed_loop_ms, double secs) {
  Rng rng(24242);
  const TokenBatch request = dataset.sample(batch, rng);

  serve::ServingOptions options;
  options.workers = 1;  // one worker: the model is not concurrency-safe
  options.streams = streams;
  options.queue_capacity = 4;
  options.max_attempts = 1;
  serve::ServingRuntime runtime(options);

  const auto deadline_budget = std::chrono::duration_cast<serve::Clock::duration>(
      std::chrono::duration<double, std::milli>(3.0 * closed_loop_ms));
  const double interval_s = closed_loop_ms * 1e-3 / 2.0;

  std::vector<serve::RequestHandle> handles;
  Stopwatch sw;
  std::size_t submitted = 0;
  while (sw.seconds() < secs) {
    serve::Request req;
    req.deadline = serve::Clock::now() + deadline_budget;
    req.work = [&model, &entry, &request](serve::WorkerContext& ctx) {
      return entry.run(ctx.scheduler, model.embed(request));
    };
    handles.push_back(runtime.submit(std::move(req)));
    ++submitted;
    const double next_arrival = interval_s * static_cast<double>(submitted);
    const double now = sw.seconds();
    if (now < next_arrival) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(next_arrival - now));
    }
  }
  runtime.shutdown(serve::ServingRuntime::Shutdown::kDrain);
  const double elapsed = sw.seconds();

  OverloadMeasured out;
  std::vector<double> latencies_ms;
  for (const auto& handle : handles) {
    const serve::Response& response = handle->response();
    switch (response.status) {
      case serve::RequestStatus::kOk: {
        ++out.ok;
        const auto total = response.queue_wait + response.service_time;
        latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(total).count());
        break;
      }
      case serve::RequestStatus::kTimeout:
        ++out.timeouts;
        break;
      case serve::RequestStatus::kRejected:
        ++out.rejected;
        break;
      default:
        break;
    }
  }
  out.latency.requests_per_sec = static_cast<double>(out.ok) / elapsed;
  fill_percentiles(out.latency, latencies_ms);
  return out;
}

/// Encoder MAC totals for one request, packed vs unpruned dense.
struct PackedStats {
  double macs = 0.0;
  double dense_macs = 0.0;
  double sparsity() const {
    return dense_macs > 0.0 ? 1.0 - macs / dense_macs : 0.0;
  }
};

/// Zeroes the smallest-|w| `sparsity` fraction of `w` in place.
void prune_by_magnitude(MatrixF& w, double sparsity) {
  std::vector<float> mags;
  mags.reserve(w.size());
  for (float v : w.flat()) mags.push_back(std::fabs(v));
  const auto cut =
      static_cast<std::size_t>(sparsity * static_cast<double>(mags.size()));
  if (cut == 0) return;
  std::nth_element(mags.begin(), mags.begin() + (cut - 1), mags.end());
  const float threshold = mags[cut - 1];
  for (float& v : w.flat())
    if (std::fabs(v) <= threshold) v = 0.0f;
}

/// Installs `format` backends on every prunable encoder layer.  The
/// dense master weights are never modified: pruned formats pack a
/// pruned *copy* (magnitude scores for csr; a TW pattern from the
/// same scores for the tile formats), so formats measure back to back
/// on identical masters.  `rows` is the encoder GEMM row count per
/// request (batch * seq) the MAC totals are quoted at.
PackedStats pack_model(BertMini& model, const std::string& format,
                       double sparsity, std::size_t rows,
                       const ExecContext& ctx) {
  PackedStats stats;
  for (Linear* layer : model.prunable_layers()) {
    const MatrixF& w = layer->weight().value;
    stats.dense_macs += static_cast<double>(rows) *
                        static_cast<double>(w.rows()) *
                        static_cast<double>(w.cols());
    std::unique_ptr<PackedWeight> packed;
    if (sparsity <= 0.0) {
      packed = make_packed(format, w);
    } else if (format == "csr" || format == "dense") {
      MatrixF pruned = w;
      prune_by_magnitude(pruned, sparsity);
      packed = make_packed(format, pruned);
    } else {  // tw family: pattern from the same magnitude scores
      MatrixF scores(w.rows(), w.cols());
      for (std::size_t i = 0; i < w.size(); ++i)
        scores.data()[i] = std::fabs(w.data()[i]);
      const TilePattern pattern = tw_pattern_from_scores(scores, sparsity, 64);
      MatrixF pruned = w;
      apply_pattern(pattern, pruned);
      PackOptions pack;
      pack.pattern = &pattern;
      packed = make_packed(format, pruned, pack);
    }
    stats.macs += packed->macs(rows);
    layer->set_packed_weight(std::move(packed));
    layer->set_exec_context(ctx);
  }
  return stats;
}

/// The classic closed-loop format x streams sweep plus the runtime
/// overload section (--mode=throughput).
void run_throughput(BertMini& model, const TokenTeacherDataset& dataset,
                    std::size_t batch, std::size_t budget, double secs,
                    double pruned_sparsity, bench::BenchJson& json) {
  const BertMiniConfig& config = model.config();
  std::vector<std::size_t> stream_counts{1, 2, 4};
  if (budget >= 8) stream_counts.push_back(8);

  // (format, weight sparsity) operating points.  Dense serves the
  // unpruned model — the baseline every pruned format must beat.
  struct Config {
    const char* format;
    double sparsity;
  };
  const std::vector<Config> configs{{"dense", 0.0},
                                    {"csr", pruned_sparsity},
                                    {"tw", pruned_sparsity},
                                    {"tw-int8", pruned_sparsity}};

  std::printf("%-8s %-9s %-8s %12s %12s %8s %8s %8s %10s %10s\n", "format",
              "sparsity", "streams", "req/s", "ms/req", "p50", "p95", "p99",
              "GFLOP/s", "speedup");

  const std::size_t rows = batch * config.seq;
  struct OverloadPoint {
    Config cfg;
    std::size_t streams;
    double closed_loop_ms;
    double sparsity;
  };
  std::vector<OverloadPoint> overload_points;
  for (const Config& cfg : configs) {
    double baseline = 0.0;
    for (const std::size_t streams : stream_counts) {
      ExecContext ctx;
      ctx.threads =
          static_cast<int>(std::max<std::size_t>(1, budget / streams));
      const PackedStats stats =
          pack_model(model, cfg.format, cfg.sparsity, rows, ctx);

      SchedulerOptions options;
      options.streams = streams;
      options.reference_m = rows;
      ExecScheduler scheduler(options);
      const std::unique_ptr<GraphBatchEntry> entry =
          make_bert_entry("bert", model);
      const Measured measured =
          serve_closed_loop(model, *entry, scheduler, dataset, batch, secs);
      model.clear_packed_weights();

      if (streams == 1) baseline = measured.requests_per_sec;
      const double speedup =
          baseline > 0.0 ? measured.requests_per_sec / baseline : 1.0;
      // Effective rate over the packed encoder GEMMs: work the request
      // actually buys (pruned MACs), not the dense-equivalent count.
      const double gflops = 2.0 * stats.macs * measured.requests_per_sec * 1e-9;
      std::printf("%-8s %-9.2f %-8zu %12.1f %12.3f %8.3f %8.3f %8.3f %10.2f "
                  "%9.2fx\n",
                  cfg.format, stats.sparsity(), streams,
                  measured.requests_per_sec, measured.ms_per_request,
                  measured.p50_ms, measured.p95_ms, measured.p99_ms, gflops,
                  speedup);

      bench::BenchRecord record;
      record.name = "serving/bert-mini/b" + std::to_string(batch);
      record.format = cfg.format;
      record.m = rows;
      record.k = config.dim;
      record.n = config.ffn_dim;
      record.ns_per_iter = measured.ms_per_request * 1e6;
      record.requests_per_sec = measured.requests_per_sec;
      record.streams = streams;
      record.gflops = gflops;
      record.sparsity = stats.sparsity();
      record.p50_ms = measured.p50_ms;
      record.p95_ms = measured.p95_ms;
      record.p99_ms = measured.p99_ms;
      json.add(record);

      // Overload-measure each format at its widest stream count.
      if (streams == stream_counts.back()) {
        overload_points.push_back(
            {cfg, streams, measured.ms_per_request, stats.sparsity()});
      }
    }
  }

  // ------------------------------------------- runtime overload section
  // Open-loop arrivals through the fault-tolerant ServingRuntime at
  // ~1.3x the closed-loop service rate: the shed/expire counts and the
  // OK-latency tail quantify graceful degradation under saturation.
  std::printf("\nserving-runtime overload (arrivals at 2x capacity, "
              "deadline 3x ms/req, queue=4)\n");
  std::printf("%-8s %-8s %12s %8s %8s %8s %9s %9s\n", "format", "streams",
              "ok req/s", "p50", "p95", "p99", "timeouts", "rejected");
  for (const OverloadPoint& point : overload_points) {
    ExecContext ctx;
    ctx.threads =
        static_cast<int>(std::max<std::size_t>(1, budget / point.streams));
    pack_model(model, point.cfg.format, point.cfg.sparsity, rows, ctx);
    const std::unique_ptr<GraphBatchEntry> entry =
        make_bert_entry("bert", model);
    const OverloadMeasured overload =
        serve_overloaded(model, *entry, dataset, batch, point.streams,
                         point.closed_loop_ms, secs);
    model.clear_packed_weights();

    std::printf("%-8s %-8zu %12.1f %8.3f %8.3f %8.3f %9llu %9llu\n",
                point.cfg.format, point.streams,
                overload.latency.requests_per_sec, overload.latency.p50_ms,
                overload.latency.p95_ms, overload.latency.p99_ms,
                static_cast<unsigned long long>(overload.timeouts),
                static_cast<unsigned long long>(overload.rejected));

    bench::BenchRecord record;
    record.name = "serving-runtime/bert-mini/b" + std::to_string(batch);
    record.format = point.cfg.format;
    record.m = rows;
    record.k = config.dim;
    record.n = config.ffn_dim;
    record.ns_per_iter = overload.latency.p50_ms * 1e6;
    record.requests_per_sec = overload.latency.requests_per_sec;
    record.streams = point.streams;
    record.sparsity = point.sparsity;
    record.p50_ms = overload.latency.p50_ms;
    record.p95_ms = overload.latency.p95_ms;
    record.p99_ms = overload.latency.p99_ms;
    record.timeouts = static_cast<std::int64_t>(overload.timeouts);
    record.rejected = static_cast<std::int64_t>(overload.rejected);
    json.add(record);
  }
}

// ------------------------------------------------- batching sections
//
// The sections below measure the cross-request batcher (serve/batch/):
// clients submit BATCHABLE requests — an embedded sequence plus an
// entry name — and the runtime coalesces concurrent sequences into one
// wide-M graph run, each member getting back exactly the rows a solo
// run would have produced.

/// Jain's fairness index over per-tenant allocations:
/// (sum x)^2 / (n * sum x^2); 1.0 = perfectly equal shares.
double jain_index(const std::vector<double>& xs) {
  double sum = 0.0, sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0 || xs.empty()) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

/// One embedded sequence per client (batchable request payloads).
/// Embedding is independent of weight packing, so the inputs are
/// reusable across formats and modes.
std::vector<MatrixF> embedded_inputs(BertMini& model,
                                     const TokenTeacherDataset& dataset,
                                     std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<MatrixF> inputs;
  inputs.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    inputs.push_back(model.embed(dataset.sample(1, rng)));
  return inputs;
}

/// One tenant's offered load: `clients` closed-loop submitters.
struct TenantLoad {
  std::string tenant;
  std::size_t clients = 1;
};

/// What one tenant's clients observed over a run.
struct TenantOutcome {
  std::uint64_t ok = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencies_ms;  ///< OK requests, submit -> terminal
};

/// Runs closed-loop clients against `runtime` for ~secs: each client
/// submits one batchable request, waits for the terminal response, and
/// immediately resubmits.  Returns per-tenant outcomes and the wall
/// time actually covered (including the final drain).
std::map<std::string, TenantOutcome> run_closed_loop_clients(
    serve::ServingRuntime& runtime, const std::string& entry_name,
    const std::vector<MatrixF>& inputs, const std::vector<TenantLoad>& loads,
    double secs, double& elapsed_out) {
  struct Slot {
    std::string tenant;
    TenantOutcome out;
  };
  std::size_t total_clients = 0;
  for (const TenantLoad& load : loads) total_clients += load.clients;
  std::vector<Slot> slots(total_clients);
  std::vector<std::thread> threads;
  threads.reserve(total_clients);
  Stopwatch sw;
  std::size_t slot_idx = 0;
  for (const TenantLoad& load : loads) {
    for (std::size_t c = 0; c < load.clients; ++c, ++slot_idx) {
      Slot& mine = slots[slot_idx];
      mine.tenant = load.tenant;
      const MatrixF& input = inputs[slot_idx % inputs.size()];
      threads.emplace_back([&runtime, &entry_name, &input, &mine, &sw, secs] {
        while (sw.seconds() < secs) {
          serve::Request req;
          req.entry = entry_name;
          req.input = input;
          req.tenant_id = mine.tenant;
          Stopwatch one;
          const serve::RequestHandle handle = runtime.submit(std::move(req));
          const serve::Response& response = handle->wait();
          switch (response.status) {
            case serve::RequestStatus::kOk:
              ++mine.out.ok;
              mine.out.latencies_ms.push_back(one.seconds() * 1e3);
              break;
            case serve::RequestStatus::kTimeout:
              ++mine.out.timeouts;
              break;
            case serve::RequestStatus::kRejected:
              ++mine.out.rejected;
              break;
            default:
              ++mine.out.failed;
              break;
          }
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();
  elapsed_out = sw.seconds();
  std::map<std::string, TenantOutcome> merged;
  for (Slot& s : slots) {
    TenantOutcome& dst = merged[s.tenant];
    dst.ok += s.out.ok;
    dst.timeouts += s.out.timeouts;
    dst.rejected += s.out.rejected;
    dst.failed += s.out.failed;
    dst.latencies_ms.insert(dst.latencies_ms.end(), s.out.latencies_ms.begin(),
                            s.out.latencies_ms.end());
  }
  return merged;
}

Measured measured_from(const TenantOutcome& outcome, double elapsed) {
  Measured m;
  m.requests_per_sec =
      elapsed > 0.0 ? static_cast<double>(outcome.ok) / elapsed : 0.0;
  m.ms_per_request =
      outcome.ok > 0 ? elapsed * 1e3 / static_cast<double>(outcome.ok) : 0.0;
  std::vector<double> latencies = outcome.latencies_ms;  // percentile sorts
  fill_percentiles(m, latencies);
  return m;
}

/// Runtime options for the batching sections: a fixed two-worker
/// front end whose ONLY varied knob is the batch switch — the kernel
/// thread budget lives in the packed layers' ExecContext, so batched
/// and unbatched runs spend identical compute resources.
serve::ServingOptions batch_serving_options(bool batching,
                                            std::size_t total_clients,
                                            std::size_t seq) {
  serve::ServingOptions options;
  options.workers = 2;
  options.streams = 1;
  options.queue_capacity = std::max<std::size_t>(64, 2 * total_clients);
  options.max_attempts = 1;
  options.batch.enabled = batching;
  options.batch.max_batch_m = std::max<std::size_t>(seq, total_clients * seq);
  options.batch.max_linger = std::chrono::microseconds(1000);
  return options;
}

/// Registers `entry` on `runtime` and primes it with one request
/// (graph build for the solo M, pool spin-up).
void register_and_warm(serve::ServingRuntime& runtime,
                       std::shared_ptr<BatchEntry> entry,
                       const MatrixF& input) {
  const std::string name = entry->name();
  runtime.register_batch_entry(std::move(entry));
  serve::Request req;
  req.entry = name;
  req.input = input;
  runtime.submit(std::move(req))->wait();
}

/// Packs one weight matrix for `format` at `sparsity`, mirroring
/// pack_model's per-layer recipe.
std::unique_ptr<PackedWeight> pack_weight(const std::string& format,
                                          const MatrixF& w, double sparsity) {
  if (sparsity <= 0.0) return make_packed(format, w);
  if (format == "csr" || format == "dense") {
    MatrixF pruned = w;
    prune_by_magnitude(pruned, sparsity);
    return make_packed(format, pruned);
  }
  MatrixF scores(w.rows(), w.cols());
  for (std::size_t i = 0; i < w.size(); ++i)
    scores.data()[i] = std::fabs(w.data()[i]);
  const TilePattern pattern = tw_pattern_from_scores(scores, sparsity, 64);
  MatrixF pruned = w;
  apply_pattern(pattern, pruned);
  PackOptions pack;
  pack.pattern = &pattern;
  return make_packed(format, pruned, pack);
}

/// Batched vs unbatched requests/sec at an equal thread budget — the
/// headline batching claim, measured on the traffic shape the batcher
/// exists for: decode-style requests carrying ONE activation row each
/// through a fat serving GEMM (dim x ffn).  Solo, every row pays the
/// whole per-run cost by itself — B-panel packs for dense, a 1-of-6
/// partial micro-kernel row block per tile for the tile formats;
/// batched, concurrent rows coalesce into one wide-M run that fills
/// the register tiles and amortizes the packs.  Same workers, same
/// kernel threads, same offered traffic — only the coalescing differs.
void run_batch_compare(const BertMiniConfig& config, std::size_t budget,
                       double pruned_sparsity, double secs, std::size_t clients,
                       bench::BenchJson& json) {
  const std::size_t k = config.dim;
  const std::size_t n = config.ffn_dim;
  Rng rng(9004);
  MatrixF w(k, n);
  for (float& v : w.flat()) v = rng.normal() * 0.05f;
  std::vector<MatrixF> inputs;
  inputs.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    MatrixF row(1, k);
    for (float& v : row.flat()) v = rng.normal();
    inputs.push_back(std::move(row));
  }

  std::printf("\ncross-request batching: %zu closed-loop clients, 1 row/"
              "request through a %zux%zu GEMM, equal thread budget (%zu)\n",
              clients, k, n, budget);
  std::printf("%-8s %12s %12s %9s %8s %8s %10s\n", "format", "solo req/s",
              "batch req/s", "speedup", "p50", "p95", "rows/batch");

  struct Point {
    const char* format;
    double sparsity;
  };
  const std::vector<Point> points{
      {"dense", 0.0}, {"tw", pruned_sparsity}, {"tw-int8", pruned_sparsity}};
  for (const Point& point : points) {
    const std::unique_ptr<PackedWeight> packed =
        pack_weight(point.format, w, point.sparsity);

    Measured by_mode[2];
    serve::RequestBatcher::BatchStats bstats;
    for (int batching = 0; batching <= 1; ++batching) {
      serve::ServingRuntime runtime(
          batch_serving_options(batching != 0, clients, 1));
      register_and_warm(runtime, make_gemm_entry("gemm", packed.get()),
                        inputs[0]);
      double elapsed = 0.0;
      const auto outcomes = run_closed_loop_clients(
          runtime, "gemm", inputs, {{"", clients}}, secs, elapsed);
      runtime.shutdown(serve::ServingRuntime::Shutdown::kDrain);
      if (batching != 0) bstats = runtime.batch_stats();
      TenantOutcome all;
      for (const auto& [tenant, outcome] : outcomes) {
        (void)tenant;
        all.ok += outcome.ok;
        all.latencies_ms.insert(all.latencies_ms.end(),
                                outcome.latencies_ms.begin(),
                                outcome.latencies_ms.end());
      }
      by_mode[batching] = measured_from(all, elapsed);
    }

    const double speedup =
        by_mode[0].requests_per_sec > 0.0
            ? by_mode[1].requests_per_sec / by_mode[0].requests_per_sec
            : 0.0;
    const double rows_per_batch =
        bstats.batches > 0 ? static_cast<double>(bstats.batched_members) /
                                 static_cast<double>(bstats.batches)
                           : 0.0;
    std::printf("%-8s %12.1f %12.1f %8.2fx %8.3f %8.3f %10.1f\n", point.format,
                by_mode[0].requests_per_sec, by_mode[1].requests_per_sec,
                speedup, by_mode[1].p50_ms, by_mode[1].p95_ms, rows_per_batch);

    for (int batching = 0; batching <= 1; ++batching) {
      bench::BenchRecord record;
      record.name = std::string("serving-batch/gemm/") +
                    (batching != 0 ? "batched" : "solo");
      record.format = point.format;
      record.m = 1;
      record.k = k;
      record.n = n;
      record.ns_per_iter = by_mode[batching].ms_per_request * 1e6;
      record.requests_per_sec = by_mode[batching].requests_per_sec;
      record.sparsity = point.sparsity;
      record.p50_ms = by_mode[batching].p50_ms;
      record.p95_ms = by_mode[batching].p95_ms;
      record.p99_ms = by_mode[batching].p99_ms;
      if (batching != 0) record.metric = speedup;
      json.add(record);
    }
  }
}

/// N-tenant fairness: tenant-0 offers ~5x the closed-loop concurrency
/// of every other tenant.  Batching off, the admission queue serves
/// FIFO and the noisy tenant buys throughput proportional to its
/// flood; batching on, DRR equalizes service across backlogged
/// tenants.  Reported per tenant: req/s + latency tail; summarized as
/// Jain's index over per-tenant served throughput.
void run_fairness(BertMini& model, const TokenTeacherDataset& dataset,
                  std::size_t budget, double pruned_sparsity, double secs,
                  std::size_t tenant_count, bench::BenchJson& json) {
  const BertMiniConfig& config = model.config();
  const std::size_t seq = config.seq;
  tenant_count = std::max<std::size_t>(2, tenant_count);
  constexpr std::size_t kNoisyClients = 10;
  constexpr std::size_t kLightClients = 2;

  std::vector<TenantLoad> loads;
  std::size_t total_clients = 0;
  for (std::size_t t = 0; t < tenant_count; ++t) {
    const std::size_t clients = t == 0 ? kNoisyClients : kLightClients;
    loads.push_back({"tenant-" + std::to_string(t), clients});
    total_clients += clients;
  }
  const std::vector<MatrixF> inputs =
      embedded_inputs(model, dataset, total_clients, 9002);

  ExecContext ctx;
  ctx.threads = static_cast<int>(budget);
  pack_model(model, "tw", pruned_sparsity, seq, ctx);

  std::printf("\nfairness: tenant-0 x%zu clients vs %zu light tenants x%zu "
              "clients (tw, DRR when batched)\n",
              kNoisyClients, tenant_count - 1, kLightClients);
  std::printf("%-8s %-10s %10s %8s %8s %8s\n", "mode", "tenant", "ok req/s",
              "p50", "p95", "p99");

  for (int batching = 0; batching <= 1; ++batching) {
    const char* mode = batching != 0 ? "batched" : "solo";
    serve::ServingOptions options =
        batch_serving_options(batching != 0, total_clients, seq);
    // Scarcity is what DRR arbitrates: cap each flush at ~one sequence
    // per tenant so the scheduler must pick members, instead of every
    // pending sequence fitting into every batch.
    options.batch.max_batch_m = tenant_count * seq;
    options.batch.max_linger = std::chrono::microseconds(500);
    serve::ServingRuntime runtime(options);
    register_and_warm(runtime, make_bert_entry("bert", model), inputs[0]);
    double elapsed = 0.0;
    const auto outcomes = run_closed_loop_clients(runtime, "bert", inputs,
                                                  loads, secs, elapsed);
    runtime.shutdown(serve::ServingRuntime::Shutdown::kDrain);

    std::vector<double> rates;
    for (const TenantLoad& load : loads) {
      const auto it = outcomes.find(load.tenant);
      const TenantOutcome empty;
      const TenantOutcome& outcome = it != outcomes.end() ? it->second : empty;
      const Measured m = measured_from(outcome, elapsed);
      rates.push_back(m.requests_per_sec);
      std::printf("%-8s %-10s %10.1f %8.3f %8.3f %8.3f\n", mode,
                  load.tenant.c_str(), m.requests_per_sec, m.p50_ms, m.p95_ms,
                  m.p99_ms);

      bench::BenchRecord record;
      record.name = std::string("serving-fairness/bert-mini/") + mode + "/" +
                    load.tenant;
      record.format = "tw";
      record.m = seq;
      record.k = config.dim;
      record.n = config.ffn_dim;
      record.ns_per_iter = m.ms_per_request * 1e6;
      record.requests_per_sec = m.requests_per_sec;
      record.sparsity = pruned_sparsity;
      record.p50_ms = m.p50_ms;
      record.p95_ms = m.p95_ms;
      record.p99_ms = m.p99_ms;
      json.add(record);
    }
    const double jain = jain_index(rates);
    std::printf("%-8s %-10s %10s Jain's index = %.3f\n", mode, "(all)", "",
                jain);

    bench::BenchRecord summary;
    summary.name = std::string("serving-fairness/bert-mini/") + mode + "/jain";
    summary.format = "tw";
    summary.m = seq;
    summary.k = config.dim;
    summary.n = config.ffn_dim;
    summary.metric = jain;
    json.add(summary);
  }
  model.clear_packed_weights();
}

/// Step-function arrival rate with a two-priority mix: base rate, a 3x
/// overload step, then base again, every 4th request interactive (with
/// a deadline) and the rest batch-class (without).  Measures how the
/// batcher + admission control absorb the step: per-phase, per-class
/// served rate, latency tail, and shed/expired counts.
void run_dynamic_load(BertMini& model, const TokenTeacherDataset& dataset,
                      std::size_t budget, double pruned_sparsity, double secs,
                      bench::BenchJson& json) {
  const BertMiniConfig& config = model.config();
  const std::size_t seq = config.seq;
  const std::vector<MatrixF> inputs = embedded_inputs(model, dataset, 4, 9003);

  ExecContext ctx;
  ctx.threads = static_cast<int>(budget);
  pack_model(model, "tw", pruned_sparsity, seq, ctx);

  // Calibrate the solo service time directly (entry->run on a local
  // scheduler): the open-loop base rate targets ~60% of that capacity,
  // the step 3x the base — past solo capacity, inside batched capacity.
  double solo_ms = 0.0;
  {
    const std::unique_ptr<GraphBatchEntry> probe =
        make_bert_entry("probe", model);
    ExecScheduler scheduler;
    (void)probe->run(scheduler, inputs[0]);  // warm-up: graph + panels
    Stopwatch sw;
    std::size_t iters = 0;
    do {
      (void)probe->run(scheduler, inputs[0]);
      ++iters;
    } while (sw.seconds() < 0.05);
    solo_ms = sw.seconds() * 1e3 / static_cast<double>(iters);
  }
  const double base_interval_s = solo_ms * 1e-3 / 0.6;
  const double phase_len_s = std::max(secs, 0.15) / 3.0;
  // Interactive deadline: generous against solo service and the linger
  // window at the base rate, tight once the step's backlog builds.
  const auto deadline_budget =
      std::chrono::duration_cast<serve::Clock::duration>(
          std::chrono::duration<double, std::milli>(8.0 * solo_ms + 4.0));

  serve::ServingOptions options = batch_serving_options(true, 16, seq);
  options.queue_capacity = 16;
  serve::ServingRuntime runtime(options);
  register_and_warm(runtime, make_bert_entry("bert", model), inputs[0]);

  struct Flight {
    serve::RequestHandle handle;
    int phase = 0;
    bool interactive = false;
  };
  std::vector<Flight> flights;
  Stopwatch sw;
  std::size_t submitted = 0;
  double t_next = 0.0;
  while (t_next < 3.0 * phase_len_s) {
    const int phase = std::min(2, static_cast<int>(t_next / phase_len_s));
    const double now = sw.seconds();
    if (now < t_next)
      std::this_thread::sleep_for(std::chrono::duration<double>(t_next - now));

    serve::Request req;
    req.entry = "bert";
    req.input = inputs[submitted % inputs.size()];
    const bool interactive = submitted % 4 == 0;
    if (interactive) {
      req.priority = serve::Priority::kInteractive;
      req.tenant_id = "interactive";
      req.deadline = serve::Clock::now() + deadline_budget;
    } else {
      req.priority = serve::Priority::kBatch;
      req.tenant_id = "batch";
    }
    flights.push_back({runtime.submit(std::move(req)), phase, interactive});
    ++submitted;
    t_next += phase == 1 ? base_interval_s / 3.0 : base_interval_s;
  }
  runtime.shutdown(serve::ServingRuntime::Shutdown::kDrain);

  std::printf("\ndynamic load: base %.1f req/s -> 3x step -> base "
              "(solo service %.3f ms, phases of %.2fs)\n",
              1.0 / base_interval_s, solo_ms, phase_len_s);
  std::printf("%-6s %-12s %9s %10s %8s %8s %8s %9s %9s\n", "phase", "class",
              "arrived", "ok req/s", "p50", "p95", "p99", "timeouts",
              "rejected");
  for (int phase = 0; phase < 3; ++phase) {
    for (const bool interactive : {true, false}) {
      std::uint64_t arrived = 0;
      TenantOutcome outcome;
      for (const Flight& flight : flights) {
        if (flight.phase != phase || flight.interactive != interactive)
          continue;
        ++arrived;
        const serve::Response& response = flight.handle->response();
        switch (response.status) {
          case serve::RequestStatus::kOk: {
            ++outcome.ok;
            const auto total = response.queue_wait + response.service_time;
            outcome.latencies_ms.push_back(
                std::chrono::duration<double, std::milli>(total).count());
            break;
          }
          case serve::RequestStatus::kTimeout:
            ++outcome.timeouts;
            break;
          case serve::RequestStatus::kRejected:
            ++outcome.rejected;
            break;
          default:
            ++outcome.failed;
            break;
        }
      }
      const Measured m = measured_from(outcome, phase_len_s);
      const char* cls = interactive ? "interactive" : "batch";
      std::printf("%-6d %-12s %9llu %10.1f %8.3f %8.3f %8.3f %9llu %9llu\n",
                  phase, cls, static_cast<unsigned long long>(arrived),
                  m.requests_per_sec, m.p50_ms, m.p95_ms, m.p99_ms,
                  static_cast<unsigned long long>(outcome.timeouts),
                  static_cast<unsigned long long>(outcome.rejected));

      bench::BenchRecord record;
      record.name = "serving-dynamic/bert-mini/p" + std::to_string(phase) +
                    "/" + cls;
      record.format = "tw";
      record.m = seq;
      record.k = config.dim;
      record.n = config.ffn_dim;
      record.ns_per_iter = m.ms_per_request * 1e6;
      record.requests_per_sec = m.requests_per_sec;
      record.sparsity = pruned_sparsity;
      record.p50_ms = m.p50_ms;
      record.p95_ms = m.p95_ms;
      record.p99_ms = m.p99_ms;
      record.timeouts = static_cast<std::int64_t>(outcome.timeouts);
      record.rejected = static_cast<std::int64_t>(outcome.rejected);
      json.add(record);
    }
  }
  model.clear_packed_weights();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::take_json_flag(argc, argv);
  const std::size_t batch = size_flag(argc, argv, "batch", 8);
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t budget = size_flag(argc, argv, "budget", hw > 0 ? hw : 4);
  const double secs = double_flag(argc, argv, "secs", 0.5);
  const double pruned_sparsity = double_flag(argc, argv, "sparsity", 0.75);
  const std::string mode = string_flag(argc, argv, "mode", "all");
  const std::size_t clients = size_flag(argc, argv, "clients", 8);
  const std::size_t tenants = size_flag(argc, argv, "tenants", 4);
  const auto mode_on = [&mode](const char* name) {
    return mode == "all" || mode == name;
  };
  if (mode != "all" && mode != "throughput" && mode != "batch" &&
      mode != "fairness" && mode != "dynamic-load") {
    std::fprintf(stderr,
                 "serving: unknown --mode=%s (throughput | batch | fairness "
                 "| dynamic-load | all)\n",
                 mode.c_str());
    return 2;
  }

  BertMiniConfig config;
  config.dim = size_flag(argc, argv, "dim", 256);
  config.heads = 4;
  config.layers = size_flag(argc, argv, "layers", 4);
  config.ffn_dim = size_flag(argc, argv, "ffn", 1024);
  config.seq = size_flag(argc, argv, "seq", 32);
  const TokenTeacherDataset dataset(64, config.seq, config.classes,
                                    config.dim, 77);
  BertMini model(config, dataset.embedding());

  bench::BenchJson json;
  std::printf(
      "serving bert-mini dim=%zu ffn=%zu layers=%zu seq=%zu batch=%zu "
      "budget=%zu threads\n",
      config.dim, config.ffn_dim, config.layers, config.seq, batch, budget);

  if (mode_on("throughput"))
    run_throughput(model, dataset, batch, budget, secs, pruned_sparsity, json);
  if (mode_on("batch"))
    run_batch_compare(config, budget, pruned_sparsity, secs, clients, json);
  if (mode_on("fairness"))
    run_fairness(model, dataset, budget, pruned_sparsity, secs, tenants, json);
  if (mode_on("dynamic-load"))
    run_dynamic_load(model, dataset, budget, pruned_sparsity, secs, json);

  if (!json_path.empty() && !json.empty()) json.write(json_path);
  return 0;
}
