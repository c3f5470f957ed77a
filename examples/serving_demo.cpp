// Serving demo: the full production flow through the fault-tolerant
// serving runtime.
//
//   train side:  pre-train BERT-mini -> TW-prune -> fine-tune ->
//                export ONE deployment artifact (packed tiles)
//   serve side:  stand up a ServingRuntime and push mixed traffic at
//                it — interactive/normal/batch evaluation requests
//                served from the artifact, one request against a
//                deliberately CORRUPT artifact copy, and one request
//                whose deadline has already passed — then verify every
//                request reached exactly the terminal status it should:
//                OK (every OK metric bit-identical), FAILED (corrupt
//                artifact surfaced as a request error, worker alive),
//                TIMEOUT (deadline enforced without execution).
//
// A second section then stands up a batching runtime and pushes TWO
// TENANTS at mixed priorities through one shared batchable GEMM entry:
// the batcher coalesces their rows into wide-M runs, every response
// must be bit-identical to its solo reference, and the per-tenant
// ledgers must partition the global books exactly.
//
// Exits nonzero unless every request lands on its expected terminal
// status, the OK metrics agree with the train-side pruned accuracy,
// the runtime's conservation identity holds after shutdown, and the
// multi-tenant fairness accounting balances.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "exec/backend_registry.hpp"
#include "exec/batch_entry.hpp"
#include "exec/exec_context.hpp"
#include "exec/validate.hpp"
#include "io/serialize.hpp"
#include "nn/prune_experiment.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "serve/serving_runtime.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

using namespace tilesparse;

namespace {

class ScopedArtifact {
 public:
  explicit ScopedArtifact(const char* stem) {
    const char* tmpdir = std::getenv("TMPDIR");
    path_ = std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") + "/" + stem +
            "_" + std::to_string(getpid()) + ".bin";
  }
  ~ScopedArtifact() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Writes a truncated copy of `src` at `dst`: a mid-stream corruption
/// the artifact reader must reject, and the runtime must absorb.
bool write_corrupt_copy(const std::string& src, const std::string& dst) {
  std::ifstream in(src, std::ios::binary);
  if (!in) return false;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.size() < 32) return false;
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  return out.good();
}

MatrixF metric_matrix(double metric) {
  MatrixF m(1, 1);
  m(0, 0) = static_cast<float>(metric);
  return m;
}

bool bit_identical(const MatrixF& a, const MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

int main() {
  const ScopedArtifact artifact("tilesparse_serving");
  const ScopedArtifact corrupt("tilesparse_serving_corrupt");

  std::printf("== train side ==\n");
  auto task = make_bert_cls_task(/*pretrain_steps=*/40);
  const double dense_metric = task->evaluate();
  std::printf("pre-trained accuracy:    %.3f\n", dense_metric);

  PatternSpec spec;
  spec.kind = PatternKind::kTw;
  spec.sparsity = 0.5;
  spec.g = 8;
  const PruneResult pruned = prune_and_evaluate(*task, spec, /*finetune=*/30);
  std::printf("TW-pruned accuracy:      %.3f (sparsity %.2f)\n", pruned.metric,
              pruned.achieved_sparsity);

  export_packed_weights(*task, "tw", &pruned.patterns, artifact.path());
  std::printf("artifact:                %s\n", artifact.path().c_str());
  if (!write_corrupt_copy(artifact.path(), corrupt.path())) {
    std::printf("FAIL: could not stage the corrupt artifact copy\n");
    return 1;
  }

  std::printf("== serve side ==\n");
  // One runtime, one worker (the task model is shared mutable state),
  // two streams on the primary path, retries allowed so the corrupt
  // artifact also demonstrates the degraded retry before FAILING.
  serve::ServingOptions options;
  options.workers = 1;
  options.streams = 2;
  options.queue_capacity = 16;
  options.max_attempts = 2;
  options.retry_backoff = std::chrono::microseconds(200);
  serve::ServingRuntime runtime(options);

  // The evaluation request: load the artifact into the task's layers
  // and evaluate through the model's serving entry.  Idempotent, so
  // safe to retry.
  const auto evaluate_artifact = [&task, &artifact](serve::WorkerContext&) {
    return metric_matrix(evaluate_from_artifact(*task, artifact.path()));
  };

  struct Submitted {
    const char* label;
    serve::RequestHandle handle;
    serve::RequestStatus expect;
  };
  std::vector<Submitted> traffic;

  // Mixed-priority evaluation requests (all must serve OK).
  const serve::Priority priorities[] = {serve::Priority::kInteractive,
                                        serve::Priority::kNormal,
                                        serve::Priority::kBatch};
  const char* labels[] = {"eval-interactive", "eval-normal", "eval-batch"};
  for (int i = 0; i < 3; ++i) {
    serve::Request request;
    request.priority = priorities[i];
    request.tag = labels[i];
    request.work = evaluate_artifact;
    traffic.push_back({labels[i], runtime.submit(std::move(request)),
                       serve::RequestStatus::kOk});
  }

  // A request served from the corrupt artifact copy: the load failure
  // must surface as THIS request's error, not kill the worker.
  {
    serve::Request request;
    request.priority = serve::Priority::kNormal;
    request.tag = "corrupt-artifact";
    request.work = [&corrupt](serve::WorkerContext&) {
      const auto weights = load_model_weights(corrupt.path());
      return metric_matrix(static_cast<double>(weights.size()));
    };
    traffic.push_back({"corrupt-artifact", runtime.submit(std::move(request)),
                       serve::RequestStatus::kFailed});
  }

  // A request whose deadline has already passed: TIMEOUT, no execution.
  {
    serve::Request request;
    request.priority = serve::Priority::kInteractive;
    request.tag = "missed-deadline";
    request.deadline = serve::Clock::now() - std::chrono::milliseconds(1);
    request.work = evaluate_artifact;
    traffic.push_back({"missed-deadline", runtime.submit(std::move(request)),
                       serve::RequestStatus::kTimeout});
  }

  // One more healthy request AFTER the faulty ones: proves the worker
  // keeps serving.
  {
    serve::Request request;
    request.priority = serve::Priority::kNormal;
    request.tag = "eval-after-faults";
    request.work = evaluate_artifact;
    traffic.push_back({"eval-after-faults", runtime.submit(std::move(request)),
                       serve::RequestStatus::kOk});
  }

  runtime.shutdown(serve::ServingRuntime::Shutdown::kDrain);

  bool ok = true;
  double served_metric = -1.0;
  for (const Submitted& entry : traffic) {
    const serve::Response& response = entry.handle->response();
    std::printf("%-18s -> %-8s", entry.label,
                serve::status_name(response.status));
    if (response.status == serve::RequestStatus::kOk) {
      std::printf("  metric %.3f  (attempts %u%s)\n",
                  static_cast<double>(response.result(0, 0)),
                  response.attempts, response.degraded ? ", degraded" : "");
    } else {
      std::printf("  attempts %u  error: %s\n", response.attempts,
                  response.error.c_str());
    }
    if (response.status != entry.expect) {
      std::printf("FAIL: %s expected %s\n", entry.label,
                  serve::status_name(entry.expect));
      ok = false;
      continue;
    }
    if (response.status == serve::RequestStatus::kOk) {
      const double metric = static_cast<double>(response.result(0, 0));
      if (served_metric < 0.0) served_metric = metric;
      if (metric != served_metric) {
        std::printf("FAIL: OK responses disagree (%.6f vs %.6f)\n", metric,
                    served_metric);
        ok = false;
      }
    }
  }

  if (ok && std::fabs(served_metric - pruned.metric) > 0.05) {
    std::printf("FAIL: artifact round trip lost accuracy (%.3f vs %.3f)\n",
                served_metric, pruned.metric);
    ok = false;
  }

  const auto stats = runtime.stats();
  std::printf("stats: submitted=%llu ok=%llu failed=%llu timeout=%llu "
              "rejected=%llu retries=%llu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.ok),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.timeout),
              static_cast<unsigned long long>(stats.rejected_full +
                                              stats.rejected_closed +
                                              stats.evicted),
              static_cast<unsigned long long>(stats.retries));
  if (!stats.conserved()) {
    std::printf("FAIL: conservation identity violated\n");
    ok = false;
  }

  std::printf("== multi-tenant batching ==\n");
  // Two tenants at mixed priorities share one batchable TW GEMM entry.
  // Every request must come back OK with exactly the bits a solo run
  // would have produced, and the per-tenant ledgers must balance and
  // partition the global books — fairness accounting divergence is a
  // demo failure, same as a wrong terminal status.
  Rng rng(4096);
  MatrixF w(64, 96);
  fill_normal(w, rng);
  const MatrixF scores = magnitude_scores(w);
  const TilePattern pattern = tw_pattern_from_scores(scores, 0.5, 16);
  PackOptions pack;
  pack.pattern = &pattern;
  const auto packed = make_packed("tw", w, pack);

  serve::ServingOptions batch_options;
  batch_options.workers = 2;
  batch_options.streams = 1;
  batch_options.queue_capacity = 32;
  batch_options.batch.enabled = true;
  batch_options.batch.max_batch_m = 64;
  batch_options.batch.max_linger = std::chrono::milliseconds(5);
  serve::ServingRuntime batch_runtime(batch_options);
  batch_runtime.register_batch_entry(make_gemm_entry("gemm", packed.get()));

  struct TenantTraffic {
    serve::RequestHandle handle;
    MatrixF expected;
    std::string tenant;
  };
  const struct {
    const char* tenant;
    serve::Priority priority;
  } tenants[] = {{"tenant-a", serve::Priority::kInteractive},
                 {"tenant-b", serve::Priority::kBatch}};
  // Stage inputs and solo references first, then submit in a tight
  // loop so the traffic is actually concurrent from the batcher's
  // point of view (references computed mid-loop would space arrivals
  // past the linger window).
  std::vector<MatrixF> tenant_inputs, tenant_expected;
  for (int i = 0; i < 12; ++i) {
    MatrixF input(2, 64);
    fill_normal(input, rng);
    tenant_expected.push_back(packed->matmul(ExecContext{}, input));
    tenant_inputs.push_back(std::move(input));
  }
  std::vector<TenantTraffic> tenant_traffic;
  for (int i = 0; i < 12; ++i) {
    const auto& who = tenants[i % 2];
    serve::Request request;
    request.priority = who.priority;
    request.tenant_id = who.tenant;
    request.tag = who.tenant;
    request.entry = "gemm";
    request.input = std::move(tenant_inputs[static_cast<std::size_t>(i)]);
    tenant_traffic.push_back(
        {batch_runtime.submit(std::move(request)),
         std::move(tenant_expected[static_cast<std::size_t>(i)]), who.tenant});
  }
  // Wait for terminal responses BEFORE shutting down: drain mode tells
  // leaders to stop lingering, so a shutdown-then-wait ordering would
  // flush every member as a batch of one.
  for (const TenantTraffic& entry : tenant_traffic) entry.handle->wait();
  batch_runtime.shutdown(serve::ServingRuntime::Shutdown::kDrain);

  std::size_t batched_served = 0;
  for (const TenantTraffic& entry : tenant_traffic) {
    const serve::Response& response = entry.handle->response();
    if (response.status != serve::RequestStatus::kOk) {
      std::printf("FAIL: %s batchable request -> %s (%s)\n",
                  entry.tenant.c_str(), serve::status_name(response.status),
                  response.error.c_str());
      ok = false;
      continue;
    }
    if (!bit_identical(response.result, entry.expected)) {
      std::printf("FAIL: %s batched result differs from its solo bits\n",
                  entry.tenant.c_str());
      ok = false;
    }
    if (response.batched) ++batched_served;
  }

  const auto batch_stats = batch_runtime.stats();
  const auto per_tenant = batch_runtime.tenant_stats();
  if (!batch_stats.conserved()) {
    std::printf("FAIL: batching runtime conservation identity violated\n");
    ok = false;
  }
  std::uint64_t tenant_submitted = 0, tenant_ok = 0;
  for (const auto& [tenant, ledger] : per_tenant) {
    std::printf("%-10s submitted=%llu ok=%llu batched_ok=%llu cost=%.0f\n",
                tenant.c_str(),
                static_cast<unsigned long long>(ledger.submitted),
                static_cast<unsigned long long>(ledger.ok),
                static_cast<unsigned long long>(ledger.batched_ok),
                ledger.cost_ok);
    if (!ledger.conserved() || ledger.ok != ledger.submitted) {
      std::printf("FAIL: %s ledger does not balance\n", tenant.c_str());
      ok = false;
    }
    tenant_submitted += ledger.submitted;
    tenant_ok += ledger.ok;
  }
  if (tenant_submitted != batch_stats.submitted ||
      tenant_ok != batch_stats.ok) {
    std::printf("FAIL: tenant ledgers do not partition the global books "
                "(%llu/%llu vs %llu/%llu)\n",
                static_cast<unsigned long long>(tenant_submitted),
                static_cast<unsigned long long>(tenant_ok),
                static_cast<unsigned long long>(batch_stats.submitted),
                static_cast<unsigned long long>(batch_stats.ok));
    ok = false;
  }
  if (batched_served == 0) {
    std::printf("FAIL: no request was served inside a coalesced batch\n");
    ok = false;
  }
  std::printf("batched %zu/%zu requests across %llu wide-M runs\n",
              batched_served, tenant_traffic.size(),
              static_cast<unsigned long long>(
                  batch_runtime.batch_stats().batches));

  if (!ok) return 1;
  std::printf("OK: every request reached its expected terminal status and "
              "the tenant books balance\n");
  return 0;
}
