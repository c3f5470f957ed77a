// Cross-request batching subsystem tests (serve/batch/ + exec row
// staging + nn batch entries).  The contracts proved here:
//
//   * RowStage gather/scatter round-trips rows exactly, and map_groups
//     carries group structure (seq -> pooled row) through batching.
//   * A batched wide-M run produces, row for row, exactly the bits
//     each member's solo run would have produced — for all five
//     registered weight formats (int8 included: activation
//     quantisation is per-row, so a row's bits never depend on its
//     co-travellers).
//   * Batch-of-one through the batching runtime == direct solo submit,
//     bit-identical.
//   * The linger window flushes on timer and, independently, on
//     reaching max_batch_m rows.
//   * One member expiring (or poisoning the batch) cannot take its
//     co-travellers down: they still complete OK with their exact
//     solo results.
//   * Every route an entry request takes (batching off, batch fault,
//     deadline bypass) honours max_attempts through one retry loop.
//   * TenantScheduler's deficit round robin gives a 10:1 offered-load
//     tenant pair ~1:1 *service* at equal weights.
//   * AdmissionQueue eviction prefers the tenant flooding the queue.
//   * Per-tenant Stats obey the same conservation identity as the
//     global Stats.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/backend_registry.hpp"
#include "exec/batch_entry.hpp"
#include "exec/exec_context.hpp"
#include "exec/row_stage.hpp"
#include "exec/scheduler.hpp"
#include "nn/batch_entry.hpp"
#include "nn/bert_mini.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "serve/admission_queue.hpp"
#include "serve/batch/tenant_scheduler.hpp"
#include "serve/serving_runtime.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "workload/datasets.hpp"

namespace tilesparse::serve {
namespace {

using namespace std::chrono_literals;

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng);
  return m;
}

bool bit_identical(const MatrixF& a, const MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Packs `w` under `format`, supplying a TW pattern where required.
std::unique_ptr<PackedWeight> pack_for_batch_test(const std::string& format,
                                                  const MatrixF& w,
                                                  std::size_t g) {
  const MatrixF scores = magnitude_scores(w);
  const TilePattern pattern = tw_pattern_from_scores(scores, 0.6, g);
  PackOptions options;
  options.pattern = &pattern;
  options.scores = &scores;
  options.tew_delta = 0.05;
  return make_packed(format, w, options);
}

const std::vector<std::string> kAllFormats{"dense", "tw", "tew", "csr",
                                           "tw-int8"};

// ------------------------------------------------------------- RowStage

TEST(RowStageTest, GatherScatterRoundTrips) {
  const MatrixF a = random_matrix(2, 4, 1);
  const MatrixF b = random_matrix(3, 4, 2);
  const MatrixF c = random_matrix(1, 4, 3);
  RowStage stage;
  const MatrixF& staged = stage.gather({&a, &b, &c});
  ASSERT_EQ(staged.rows(), 6u);
  ASSERT_EQ(staged.cols(), 4u);
  ASSERT_EQ(stage.slices().size(), 3u);
  EXPECT_EQ(stage.slices()[1].row0, 2u);
  EXPECT_EQ(stage.slices()[1].rows, 3u);
  EXPECT_TRUE(bit_identical(RowStage::scatter(staged, stage.slices()[0]), a));
  EXPECT_TRUE(bit_identical(RowStage::scatter(staged, stage.slices()[1]), b));
  EXPECT_TRUE(bit_identical(RowStage::scatter(staged, stage.slices()[2]), c));
}

TEST(RowStageTest, ReusableAcrossFlushesAndValidates) {
  RowStage stage;
  const MatrixF big = random_matrix(32, 8, 4);
  stage.gather({&big});
  EXPECT_EQ(stage.staged().rows(), 32u);
  const MatrixF small = random_matrix(2, 8, 5);
  // Second flush shrinks the staged view without reallocating bigger.
  const MatrixF& staged = stage.gather({&small});
  EXPECT_EQ(staged.rows(), 2u);
  EXPECT_TRUE(bit_identical(RowStage::scatter(staged, {0, 2}), small));

  EXPECT_THROW(stage.gather({}), std::invalid_argument);
  const MatrixF wrong_cols = random_matrix(2, 4, 6);
  EXPECT_THROW(stage.gather({&small, &wrong_cols}), std::invalid_argument);
  EXPECT_THROW(RowStage::scatter(staged, {1, 5}), std::invalid_argument);
}

TEST(RowStageTest, MapGroupsCarriesSequenceStructure) {
  // 16 input rows per sequence contract to 1 pooled output row.
  const RowStage::Slice out = RowStage::map_groups({32, 16}, 16, 1);
  EXPECT_EQ(out.row0, 2u);
  EXPECT_EQ(out.rows, 1u);
  const RowStage::Slice identity = RowStage::map_groups({3, 5}, 1, 1);
  EXPECT_EQ(identity.row0, 3u);
  EXPECT_EQ(identity.rows, 5u);
  EXPECT_THROW(RowStage::map_groups({3, 16}, 16, 1), std::invalid_argument);
  EXPECT_THROW(RowStage::map_groups({16, 9}, 16, 1), std::invalid_argument);
}

// ------------------------------------------------- GraphBatchEntry core

TEST(GraphBatchEntryTest, BatchedRowsBitIdenticalToSoloAllFormats) {
  const MatrixF w = random_matrix(48, 96, 11);
  ExecScheduler scheduler;
  for (const std::string& format : kAllFormats) {
    const auto packed = pack_for_batch_test(format, w, 16);
    const auto entry = make_gemm_entry("e-" + format, packed.get());
    std::vector<MatrixF> inputs;
    inputs.push_back(random_matrix(6, 48, 21));
    inputs.push_back(random_matrix(12, 48, 22));
    inputs.push_back(random_matrix(6, 48, 23));
    std::vector<MatrixF> solo;
    for (const MatrixF& in : inputs) solo.push_back(entry->run(scheduler, in));

    RowStage stage;
    const MatrixF& staged =
        stage.gather({&inputs[0], &inputs[1], &inputs[2]});
    const MatrixF batched = entry->run(scheduler, staged);
    ASSERT_EQ(batched.rows(), 24u) << format;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const MatrixF slice = RowStage::scatter(batched, stage.slices()[i]);
      EXPECT_TRUE(bit_identical(slice, solo[i]))
          << format << " member " << i
          << ": batched rows differ from solo run";
    }
  }
}

TEST(GraphBatchEntryTest, OneGraphServesEveryRowCount) {
  // One graph, its slots reshaped in place: M grows, shrinks, grows
  // past the earlier maximum and shrinks again, and every run must
  // equal a fresh entry's first run at that M bit for bit — no stale
  // rows or columns from a larger earlier run leak into a smaller one.
  const MatrixF w = random_matrix(16, 32, 12);
  const MatrixF bias = random_matrix(1, 32, 13);
  for (const std::string& format : {std::string("dense"), std::string("tw")}) {
    const auto packed = pack_for_batch_test(format, w, 16);
    const auto make_entry = [&packed, &bias] {
      GraphBatchEntry::Config config;
      config.name = "one-graph";
      config.input_cols = 16;
      config.output_cols = 32;
      config.group_rows_in = 6;
      config.builder = [&packed, &bias](ExecGraph& g, ExecGraph::SlotId in) {
        const auto hidden = g.add_slot("hidden");
        g.add_gemm("gemm", packed.get(), in, hidden, ExecContext{}, &bias);
        const auto out = g.add_slot("out");
        g.add_host("double", {hidden}, {out}, [hidden, out](ExecGraph& graph) {
          const MatrixF& x = graph.slot(hidden);
          MatrixF& y = graph.slot(out);
          ensure_shape(y, x.rows(), x.cols());
          for (std::size_t i = 0; i < x.size(); ++i)
            y.data()[i] = 2.0f * x.data()[i];
        });
        return out;
      };
      return GraphBatchEntry(std::move(config));
    };
    GraphBatchEntry entry = make_entry();
    ExecScheduler scheduler;
    std::uint64_t seed = 30;
    for (const std::size_t rows : {6u, 12u, 18u, 24u, 6u, 30u, 12u}) {
      const MatrixF input = random_matrix(rows, 16, ++seed);
      const MatrixF out = entry.run(scheduler, input);
      GraphBatchEntry fresh = make_entry();
      EXPECT_TRUE(bit_identical(out, fresh.run(scheduler, input)))
          << format << " at " << rows << " rows";
    }
  }
}

TEST(GraphBatchEntryTest, RejectsMisshapenInput) {
  const MatrixF w = random_matrix(16, 32, 13);
  const auto packed = pack_for_batch_test("dense", w, 16);
  GraphBatchEntry::Config config;
  config.name = "grouped";
  config.input_cols = 16;
  config.output_cols = 32;
  config.group_rows_in = 4;
  config.builder = [&packed](ExecGraph& g, ExecGraph::SlotId in) {
    const auto out = g.add_slot("out");
    g.add_gemm("gemm", packed.get(), in, out);
    return out;
  };
  GraphBatchEntry entry(std::move(config));
  ExecScheduler scheduler;
  EXPECT_THROW(entry.run(scheduler, MatrixF(0, 16)), std::invalid_argument);
  EXPECT_THROW(entry.run(scheduler, random_matrix(6, 16, 1)),
               std::invalid_argument);  // not a multiple of group_rows_in
  EXPECT_THROW(entry.run(scheduler, random_matrix(4, 8, 1)),
               std::invalid_argument);  // wrong cols
  EXPECT_NO_THROW(entry.run(scheduler, random_matrix(8, 16, 1)));
}

void expect_batched_sequences_match_solo(const BertMiniConfig& config) {
  SCOPED_TRACE("dim " + std::to_string(config.dim) + " ffn_dim " +
               std::to_string(config.ffn_dim) + " seq " +
               std::to_string(config.seq));
  const MatrixF table = random_matrix(50, config.dim, 41);
  BertMini model(config, table);
  const auto entry = make_bert_entry("bert", model);
  EXPECT_EQ(entry->group_rows_in(), config.seq);
  EXPECT_EQ(entry->group_rows_out(), 1u);
  EXPECT_GT(entry->cost(config.seq), 0.0);

  TokenBatch tokens_a;
  tokens_a.batch = 1;
  tokens_a.seq = config.seq;
  TokenBatch tokens_b = tokens_a;
  for (std::size_t t = 0; t < config.seq; ++t) {
    tokens_a.tokens.push_back(static_cast<int>(t % 50));
    tokens_b.tokens.push_back(static_cast<int>((3 * t + 7) % 50));
  }
  const MatrixF embed_a = model.embed(tokens_a);
  const MatrixF embed_b = model.embed(tokens_b);

  ExecScheduler scheduler;
  const MatrixF solo_a = entry->run(scheduler, embed_a);
  const MatrixF solo_b = entry->run(scheduler, embed_b);
  ASSERT_EQ(solo_a.rows(), 1u);
  ASSERT_EQ(solo_a.cols(), config.classes);

  RowStage stage;
  const MatrixF& staged = stage.gather({&embed_a, &embed_b});
  const MatrixF batched = entry->run(scheduler, staged);
  ASSERT_EQ(batched.rows(), 2u);
  const RowStage::Slice out_a =
      RowStage::map_groups(stage.slices()[0], config.seq, 1);
  const RowStage::Slice out_b =
      RowStage::map_groups(stage.slices()[1], config.seq, 1);
  EXPECT_TRUE(bit_identical(RowStage::scatter(batched, out_a), solo_a));
  EXPECT_TRUE(bit_identical(RowStage::scatter(batched, out_b), solo_b));
}

TEST(BertBatchEntryTest, BatchedSequencesMatchSoloBitIdentical) {
  BertMiniConfig config;
  config.dim = 32;
  config.heads = 2;
  config.layers = 1;
  config.ffn_dim = 64;
  config.seq = 8;
  config.classes = 3;
  expect_batched_sequences_match_solo(config);
  // Widths off the 8-lane SIMD grid: ffn_dim, dim * seq and
  // ffn_dim * seq are not multiples of 8, so each host kernel's flat
  // buffer ends in a ragged tail that moves to the vector body once a
  // second sequence is gathered behind it.  Any tail computed by other
  // arithmetic than the body breaks batched == solo here.
  config.dim = 20;
  config.ffn_dim = 36;
  config.seq = 3;
  expect_batched_sequences_match_solo(config);
}

// ------------------------------------------------------ TenantScheduler

BatchMember member_for(const std::string& tenant, std::size_t rows,
                       double cost) {
  BatchMember member;
  member.tenant = tenant;
  member.input = MatrixF(rows, 4);
  member.cost = cost;
  member.arrival = Clock::now();
  return member;
}

TEST(TenantSchedulerTest, TenToOneOfferedLoadGetsEqualService) {
  BatchPolicy policy;
  TenantScheduler scheduler(&policy);
  // 10:1 offered load, equal weights, equal per-member cost.
  for (int i = 0; i < 100; ++i)
    scheduler.enqueue(member_for("heavy", 1, 1.0));
  for (int i = 0; i < 10; ++i) scheduler.enqueue(member_for("light", 1, 1.0));

  // While BOTH tenants stay backlogged, service must track 1:1.
  std::vector<BatchMember> expired;
  double heavy_backlogged = 0.0, light_backlogged = 0.0;
  while (true) {
    const auto batch = scheduler.select(4, Clock::now(), expired);
    ASSERT_FALSE(batch.empty());
    heavy_backlogged = scheduler.served_cost("heavy");
    light_backlogged = scheduler.served_cost("light");
    if (light_backlogged >= 10.0) break;  // light's queue just drained
  }
  EXPECT_TRUE(expired.empty());
  EXPECT_NEAR(heavy_backlogged, light_backlogged, 4.0)
      << "DRR service diverged while both tenants were backlogged";

  // Once light is empty, heavy absorbs the whole budget again.
  while (scheduler.pending_members() > 0) {
    const auto batch = scheduler.select(8, Clock::now(), expired);
    ASSERT_FALSE(batch.empty());
  }
  EXPECT_DOUBLE_EQ(scheduler.served_cost("heavy"), 100.0);
  EXPECT_DOUBLE_EQ(scheduler.served_cost("light"), 10.0);
}

TEST(TenantSchedulerTest, WeightsSkewService) {
  BatchPolicy policy;
  policy.tenant_weights["gold"] = 3.0;
  TenantScheduler scheduler(&policy);
  for (int i = 0; i < 60; ++i) {
    scheduler.enqueue(member_for("gold", 1, 1.0));
    scheduler.enqueue(member_for("bronze", 1, 1.0));
  }
  std::vector<BatchMember> expired;
  std::size_t selected = 0;
  while (selected < 40) selected += scheduler.select(4, Clock::now(), expired).size();
  const double gold = scheduler.served_cost("gold");
  const double bronze = scheduler.served_cost("bronze");
  EXPECT_GT(gold, 2.0 * bronze) << "weight 3 tenant should get ~3x service";
}

TEST(TenantSchedulerTest, OversizeMemberAdmittedAloneNotStarved) {
  BatchPolicy policy;
  TenantScheduler scheduler(&policy);
  scheduler.enqueue(member_for("t", 100, 50.0));  // wider than any batch
  std::vector<BatchMember> expired;
  const auto batch = scheduler.select(8, Clock::now(), expired);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].input.rows(), 100u);
  EXPECT_TRUE(scheduler.empty());
}

TEST(TenantSchedulerTest, ExpiredMembersAreHandedBackNotSelected) {
  BatchPolicy policy;
  TenantScheduler scheduler(&policy);
  BatchMember dead = member_for("t", 2, 1.0);
  dead.deadline = Clock::now() - 1ms;
  dead.tag = "dead";
  scheduler.enqueue(std::move(dead));
  scheduler.enqueue(member_for("t", 2, 1.0));
  std::vector<BatchMember> expired;
  const auto batch = scheduler.select(8, Clock::now(), expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].tag, "dead");
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(scheduler.empty());
}

// ------------------------------------- AdmissionQueue tenant eviction

TEST(AdmissionQueueTenantTest, EvictsNewestEntryOfMostQueuedTenant) {
  AdmissionQueue<int> q(4);
  int evicted = -1;
  EXPECT_EQ(q.push(1, Priority::kNormal, nullptr, "noisy"),
            PushOutcome::kAdmitted);
  EXPECT_EQ(q.push(2, Priority::kNormal, nullptr, "noisy"),
            PushOutcome::kAdmitted);
  EXPECT_EQ(q.push(3, Priority::kNormal, nullptr, "quiet"),
            PushOutcome::kAdmitted);
  EXPECT_EQ(q.push(4, Priority::kNormal, nullptr, "noisy"),
            PushOutcome::kAdmitted);
  EXPECT_EQ(q.tenant_depth("noisy"), 3u);
  // Full queue + higher-priority arrival: the victim is the NEWEST
  // entry of the tenant with the highest in-queue count (noisy, 3 > 1),
  // not the globally newest and not quiet's entry.
  EXPECT_EQ(q.push(9, Priority::kInteractive, &evicted, "vip"),
            PushOutcome::kAdmittedAfterEvict);
  EXPECT_EQ(evicted, 4);
  EXPECT_EQ(q.tenant_depth("noisy"), 2u);
  EXPECT_EQ(q.tenant_depth("quiet"), 1u);
}

TEST(AdmissionQueueTenantTest, MostQueuedTenantWinsEvenWhenNotNewest) {
  AdmissionQueue<int> q(3);
  int evicted = -1;
  q.push(1, Priority::kNormal, nullptr, "noisy");
  q.push(2, Priority::kNormal, nullptr, "noisy");
  q.push(3, Priority::kNormal, nullptr, "quiet");  // globally newest
  EXPECT_EQ(q.push(9, Priority::kInteractive, &evicted),
            PushOutcome::kAdmittedAfterEvict);
  EXPECT_EQ(evicted, 2);  // noisy's newest, though quiet's is newer
}

TEST(AdmissionQueueTenantTest, AnonymousTrafficFallsBackToPlainNewest) {
  AdmissionQueue<int> q(3);
  int evicted = -1;
  q.push(1, Priority::kNormal);
  q.push(2, Priority::kNormal);
  q.push(3, Priority::kNormal);
  EXPECT_EQ(q.push(9, Priority::kInteractive, &evicted),
            PushOutcome::kAdmittedAfterEvict);
  EXPECT_EQ(evicted, 3);  // pre-tenant behavior preserved
  EXPECT_EQ(q.tenant_depth("anyone"), 0u);
}

TEST(AdmissionQueueTenantTest, PopAndDrainKeepTenantCountsConsistent) {
  AdmissionQueue<int> q(4);
  q.push(1, Priority::kNormal, nullptr, "a");
  q.push(2, Priority::kInteractive, nullptr, "a");
  q.push(3, Priority::kBatch, nullptr, "b");
  EXPECT_EQ(q.tenant_depth("a"), 2u);
  int out = 0;
  ASSERT_TRUE(q.try_pop(out));  // pops the interactive entry (tenant a)
  EXPECT_EQ(out, 2);
  EXPECT_EQ(q.tenant_depth("a"), 1u);
  const auto drained = q.close_and_drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(q.tenant_depth("a"), 0u);
  EXPECT_EQ(q.tenant_depth("b"), 0u);
}

// --------------------------------------------- runtime end-to-end paths

Request batch_request(const std::string& entry, MatrixF input,
                      std::string tenant, std::string tag,
                      Priority priority = Priority::kNormal) {
  Request request;
  request.priority = priority;
  request.entry = entry;
  request.input = std::move(input);
  request.tenant_id = std::move(tenant);
  request.tag = std::move(tag);
  return request;
}

TEST(ServeBatchTest, BatchOfOneMatchesDirectSubmitBitIdentical) {
  const MatrixF w = random_matrix(48, 96, 51);
  const auto packed = pack_for_batch_test("dense", w, 16);
  const MatrixF input = random_matrix(6, 48, 52);

  auto run_with = [&](bool enabled, double& cost_ok) {
    ServingOptions options;
    options.workers = 2;
    options.batch.enabled = enabled;
    options.batch.max_linger = 20ms;
    ServingRuntime runtime(options);
    runtime.register_batch_entry(make_gemm_entry("gemm", packed.get()));
    auto handle = runtime.submit(batch_request("gemm", input, "t", "one"));
    const Response response = handle->wait();
    runtime.shutdown();
    EXPECT_TRUE(runtime.stats().conserved());
    cost_ok = runtime.tenant_stats().at("t").cost_ok;
    return response;
  };

  double batched_cost = 0.0;
  double solo_cost = 0.0;
  const Response batched = run_with(true, batched_cost);
  const Response solo = run_with(false, solo_cost);
  // The tenant is billed the same service cost on either route.
  EXPECT_GT(solo_cost, 0.0);
  EXPECT_EQ(batched_cost, solo_cost);
  ASSERT_EQ(batched.status, RequestStatus::kOk) << batched.error;
  ASSERT_EQ(solo.status, RequestStatus::kOk) << solo.error;
  EXPECT_TRUE(batched.batched);
  EXPECT_FALSE(solo.batched);
  EXPECT_EQ(batched.batch_rows, 6u);
  EXPECT_TRUE(bit_identical(batched.result, solo.result));
  EXPECT_TRUE(bit_identical(batched.result,
                            packed->matmul(ExecContext{}, input)));
}

TEST(ServeBatchTest, BatchedWideMBitIdenticalToSoloAllFormats) {
  const MatrixF w = random_matrix(48, 96, 53);
  for (const std::string& format : kAllFormats) {
    const auto packed = pack_for_batch_test(format, w, 16);
    std::vector<MatrixF> inputs;
    std::vector<MatrixF> references;
    for (std::size_t i = 0; i < 6; ++i) {
      inputs.push_back(random_matrix(6, 48, 60 + i));
      references.push_back(packed->matmul(ExecContext{}, inputs.back()));
    }

    ServingOptions options;
    options.workers = 2;
    options.batch.enabled = true;
    options.batch.max_linger = 200ms;  // wide window: coalesce the burst
    options.batch.max_batch_m = 1024;
    ServingRuntime runtime(options);
    runtime.register_batch_entry(make_gemm_entry(format, packed.get()));

    std::vector<RequestHandle> handles;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      handles.push_back(runtime.submit(batch_request(
          format, inputs[i], "tenant-" + std::to_string(i % 2),
          format + "/" + std::to_string(i))));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const Response& response = handles[i]->wait();
      ASSERT_EQ(response.status, RequestStatus::kOk)
          << format << " member " << i << ": " << response.error;
      EXPECT_TRUE(response.batched) << format << " member " << i;
      EXPECT_TRUE(bit_identical(response.result, references[i]))
          << format << " member " << i
          << ": batched result differs from solo execution";
    }
    runtime.shutdown();
    const auto stats = runtime.batch_stats();
    EXPECT_EQ(stats.batched_members, 6u) << format;
    EXPECT_EQ(stats.solo_fallback, 0u) << format;
    EXPECT_GE(stats.max_batch_rows, 12u)
        << format << ": burst never coalesced into a wide batch";
    EXPECT_TRUE(runtime.stats().conserved());
  }
}

TEST(ServeBatchTest, LingerWindowFlushesOnTimer) {
  const MatrixF w = random_matrix(48, 96, 54);
  const auto packed = pack_for_batch_test("dense", w, 16);
  ServingOptions options;
  options.workers = 2;
  options.batch.enabled = true;
  options.batch.max_linger = 80ms;
  options.batch.max_batch_m = 1024;  // never reached: only timer flushes
  ServingRuntime runtime(options);
  runtime.register_batch_entry(make_gemm_entry("gemm", packed.get()));

  const auto t0 = Clock::now();
  auto handle = runtime.submit(
      batch_request("gemm", random_matrix(6, 48, 55), "t", "lone"));
  const Response& response = handle->wait();
  const auto elapsed = Clock::now() - t0;
  ASSERT_EQ(response.status, RequestStatus::kOk) << response.error;
  EXPECT_TRUE(response.batched);
  // A lone member flushes when the linger window expires, not before.
  EXPECT_GE(elapsed, 40ms);
  runtime.shutdown();
  EXPECT_EQ(runtime.batch_stats().batches, 1u);
}

TEST(ServeBatchTest, MaxBatchRowsFlushesBeforeLingerExpires) {
  const MatrixF w = random_matrix(48, 96, 56);
  const auto packed = pack_for_batch_test("dense", w, 16);
  ServingOptions options;
  options.workers = 2;
  options.batch.enabled = true;
  options.batch.max_linger = 150ms;
  options.batch.max_batch_m = 12;  // two 6-row members fill a batch
  ServingRuntime runtime(options);
  runtime.register_batch_entry(make_gemm_entry("gemm", packed.get()));

  std::vector<RequestHandle> handles;
  std::vector<MatrixF> inputs;
  for (std::size_t i = 0; i < 4; ++i) {
    inputs.push_back(random_matrix(6, 48, 70 + i));
    handles.push_back(runtime.submit(
        batch_request("gemm", inputs.back(), "t", std::to_string(i))));
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const Response& response = handles[i]->wait();
    ASSERT_EQ(response.status, RequestStatus::kOk) << response.error;
    EXPECT_TRUE(bit_identical(response.result,
                              packed->matmul(ExecContext{}, inputs[i])));
    EXPECT_LE(response.batch_rows, 12u);
  }
  runtime.shutdown();
  const auto stats = runtime.batch_stats();
  EXPECT_GE(stats.batches, 2u);  // 24 rows cannot fit one 12-row batch
  EXPECT_LE(stats.max_batch_rows, 12u);
  EXPECT_TRUE(runtime.stats().conserved());
}

TEST(ServeBatchTest, MemberDeadlineExpiryLeavesCoTravellersOk) {
  const MatrixF w = random_matrix(48, 96, 57);
  const auto packed = pack_for_batch_test("dense", w, 16);
  ServingOptions options;
  options.workers = 2;
  options.batch.enabled = true;
  options.batch.max_linger = 300ms;
  options.batch.max_batch_m = 1024;
  options.batch.bypass_slack_factor = 0.0;  // force the doomed member in
  ServingRuntime runtime(options);
  runtime.register_batch_entry(make_gemm_entry("gemm", packed.get()));

  const MatrixF input_a = random_matrix(6, 48, 58);
  const MatrixF input_c = random_matrix(6, 48, 59);
  auto ok_a = runtime.submit(batch_request("gemm", input_a, "a", "a"));
  Request doomed = batch_request("gemm", random_matrix(6, 48, 60), "b", "b");
  doomed.deadline = Clock::now() + 20ms;  // expires inside the linger window
  auto dead_b = runtime.submit(std::move(doomed));
  auto ok_c = runtime.submit(batch_request("gemm", input_c, "c", "c"));

  const Response& response_b = dead_b->wait();
  EXPECT_EQ(response_b.status, RequestStatus::kTimeout);
  EXPECT_NE(response_b.error.find("batch"), std::string::npos)
      << response_b.error;
  const Response& response_a = ok_a->wait();
  const Response& response_c = ok_c->wait();
  ASSERT_EQ(response_a.status, RequestStatus::kOk) << response_a.error;
  ASSERT_EQ(response_c.status, RequestStatus::kOk) << response_c.error;
  EXPECT_TRUE(bit_identical(response_a.result,
                            packed->matmul(ExecContext{}, input_a)));
  EXPECT_TRUE(bit_identical(response_c.result,
                            packed->matmul(ExecContext{}, input_c)));
  runtime.shutdown();
  EXPECT_TRUE(runtime.stats().conserved());
  const auto tenants = runtime.tenant_stats();
  for (const auto& [tenant, stats] : tenants)
    EXPECT_TRUE(stats.conserved()) << "tenant " << tenant;
  EXPECT_EQ(tenants.at("b").timeout, 1u);
  EXPECT_EQ(tenants.at("a").ok, 1u);
  EXPECT_EQ(tenants.at("c").ok, 1u);
}

/// An entry that throws whenever the poison marker rides in the batch —
/// the "one bad member" isolation scenario.
class PoisonEntry : public BatchEntry {
 public:
  static constexpr float kMarker = 1.0e7f;

  const std::string& name() const noexcept override { return name_; }
  std::size_t input_cols() const noexcept override { return 4; }
  std::size_t output_cols() const noexcept override { return 4; }
  MatrixF run(ExecScheduler&, const MatrixF& input) override {
    for (float v : input.flat())
      if (v >= kMarker) throw std::runtime_error("poisoned member");
    MatrixF out(input.rows(), input.cols());
    for (std::size_t i = 0; i < input.size(); ++i)
      out.data()[i] = 2.0f * input.data()[i];
    return out;
  }
  double macs(std::size_t rows) const noexcept override {
    return static_cast<double>(rows);
  }
  std::size_t weight_bytes() const noexcept override { return 4; }

 private:
  std::string name_ = "poison";
};

TEST(ServeBatchTest, PoisonedMemberFailsAloneCoTravellersStillOk) {
  ServingOptions options;
  options.workers = 2;
  options.batch.enabled = true;
  options.batch.max_linger = 150ms;
  options.batch.max_batch_m = 1024;
  ServingRuntime runtime(options);
  runtime.register_batch_entry(std::make_shared<PoisonEntry>());

  const MatrixF good_a = random_matrix(2, 4, 61);
  const MatrixF good_c = random_matrix(3, 4, 62);
  MatrixF bad(1, 4);
  bad(0, 0) = PoisonEntry::kMarker;
  auto ok_a = runtime.submit(batch_request("poison", good_a, "a", "a"));
  auto fail_b = runtime.submit(batch_request("poison", bad, "b", "b"));
  auto ok_c = runtime.submit(batch_request("poison", good_c, "c", "c"));

  const Response& response_b = fail_b->wait();
  EXPECT_EQ(response_b.status, RequestStatus::kFailed);
  EXPECT_NE(response_b.error.find("poison"), std::string::npos);
  for (const auto& [handle, good] :
       {std::pair{&ok_a, &good_a}, std::pair{&ok_c, &good_c}}) {
    const Response& response = (*handle)->wait();
    ASSERT_EQ(response.status, RequestStatus::kOk) << response.error;
    MatrixF expected(good->rows(), good->cols());
    for (std::size_t i = 0; i < expected.size(); ++i)
      expected.data()[i] = 2.0f * good->data()[i];
    EXPECT_TRUE(bit_identical(response.result, expected));
  }
  runtime.shutdown();
  EXPECT_TRUE(runtime.stats().conserved());
  for (const auto& [tenant, stats] : runtime.tenant_stats())
    EXPECT_TRUE(stats.conserved()) << "tenant " << tenant;
}

// Every route an entry request can take runs its attempts through the
// runtime's one retry loop, so an always-failing member reports at most
// max_attempts attempts on each.  The batch-fault route counts the
// batch run as attempt 1 and keeps one isolation retry even at
// max_attempts = 1.
TEST(ServeBatchTest, EntryRequestsHonourMaxAttemptsOnEveryRoute) {
  enum class Route { kBatchingOff, kBatchFault, kBypass };
  struct Case {
    Route route;
    const char* name;
    std::uint32_t max_attempts;
    std::uint32_t expected_attempts;
  };
  const Case cases[] = {
      {Route::kBatchingOff, "batching off", 1, 1},
      {Route::kBatchingOff, "batching off", 3, 3},
      {Route::kBatchFault, "batch fault", 1, 2},
      {Route::kBatchFault, "batch fault", 3, 3},
      {Route::kBypass, "deadline bypass", 1, 1},
      {Route::kBypass, "deadline bypass", 3, 3},
  };
  MatrixF poisoned(1, 4);
  poisoned(0, 0) = PoisonEntry::kMarker;

  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.name) + ", max_attempts " +
                 std::to_string(c.max_attempts));
    ServingOptions options;
    options.workers = 1;
    options.max_attempts = c.max_attempts;
    options.retry_backoff = 10us;
    options.batch.enabled = c.route != Route::kBatchingOff;
    options.batch.max_linger = 50ms;
    ServingRuntime runtime(options);
    runtime.register_batch_entry(std::make_shared<PoisonEntry>());

    Request request = batch_request("poison", poisoned, "t", c.name);
    // 60 ms of budget is below bypass_slack_factor (2) x max_linger.
    if (c.route == Route::kBypass) request.deadline = Clock::now() + 60ms;
    const Response response = runtime.submit(std::move(request))->wait();
    runtime.shutdown();

    EXPECT_EQ(response.status, RequestStatus::kFailed) << response.error;
    EXPECT_NE(response.error.find("poison"), std::string::npos);
    EXPECT_EQ(response.attempts, c.expected_attempts);
    EXPECT_EQ(response.degraded, response.attempts > 1);
    EXPECT_FALSE(response.batched);
    const auto stats = runtime.stats();
    EXPECT_EQ(stats.retries, response.attempts - 1u);
    EXPECT_TRUE(stats.conserved());
    for (const auto& [tenant, tenant_stats] : runtime.tenant_stats())
      EXPECT_TRUE(tenant_stats.conserved()) << "tenant " << tenant;
    const auto batch = runtime.batch_stats();
    EXPECT_EQ(batch.solo_fallback, c.route == Route::kBatchFault ? 1u : 0u);
    EXPECT_EQ(batch.solo_bypass, c.route == Route::kBypass ? 1u : 0u);
  }
}

TEST(ServeBatchTest, PerTenantAccountingConservesAndTracksBatchedCost) {
  const MatrixF w = random_matrix(48, 96, 63);
  const auto packed = pack_for_batch_test("tw", w, 16);
  ServingOptions options;
  options.workers = 2;
  options.batch.enabled = true;
  options.batch.max_linger = 50ms;
  ServingRuntime runtime(options);
  runtime.register_batch_entry(make_gemm_entry("gemm", packed.get()));

  std::vector<RequestHandle> handles;
  for (int i = 0; i < 4; ++i)
    handles.push_back(runtime.submit(batch_request(
        "gemm", random_matrix(6, 48, 80 + i), "alpha", "a")));
  for (int i = 0; i < 2; ++i)
    handles.push_back(runtime.submit(batch_request(
        "gemm", random_matrix(6, 48, 90 + i), "beta", "b")));
  // A classic (non-batchable) request billed to alpha rides alongside.
  Request classic;
  classic.tenant_id = "alpha";
  classic.work = [](WorkerContext&) { return MatrixF(1, 1); };
  handles.push_back(runtime.submit(std::move(classic)));

  for (auto& handle : handles)
    EXPECT_EQ(handle->wait().status, RequestStatus::kOk);
  runtime.shutdown();
  const auto tenants = runtime.tenant_stats();
  ASSERT_EQ(tenants.count("alpha"), 1u);
  ASSERT_EQ(tenants.count("beta"), 1u);
  EXPECT_TRUE(tenants.at("alpha").conserved());
  EXPECT_TRUE(tenants.at("beta").conserved());
  EXPECT_EQ(tenants.at("alpha").ok, 5u);
  EXPECT_EQ(tenants.at("alpha").batched_ok, 4u);
  EXPECT_EQ(tenants.at("beta").ok, 2u);
  EXPECT_EQ(tenants.at("beta").batched_ok, 2u);
  EXPECT_GT(tenants.at("alpha").cost_ok, tenants.at("beta").cost_ok);
  EXPECT_GT(tenants.at("beta").cost_ok, 0.0);
}

TEST(ServeBatchTest, CancelShutdownTimesOutQueuedMembersConserved) {
  const MatrixF w = random_matrix(48, 96, 64);
  const auto packed = pack_for_batch_test("dense", w, 16);
  ServingOptions options;
  options.workers = 1;  // a lone leader lingers while the rest queue up
  options.batch.enabled = true;
  options.batch.max_linger = 10s;
  options.batch.max_batch_m = 1024;
  ServingRuntime runtime(options);
  runtime.register_batch_entry(make_gemm_entry("gemm", packed.get()));

  std::vector<RequestHandle> handles;
  for (int i = 0; i < 4; ++i)
    handles.push_back(runtime.submit(batch_request(
        "gemm", random_matrix(6, 48, 100 + i), "t", std::to_string(i))));
  std::this_thread::sleep_for(20ms);  // let the worker become a leader
  runtime.shutdown(ServingRuntime::Shutdown::kCancel);
  for (auto& handle : handles) {
    ASSERT_TRUE(handle->done());
    const auto status = handle->response().status;
    EXPECT_TRUE(status == RequestStatus::kTimeout ||
                status == RequestStatus::kOk ||
                status == RequestStatus::kRejected)
        << status_name(status);
  }
  EXPECT_TRUE(runtime.stats().conserved());
  for (const auto& [tenant, stats] : runtime.tenant_stats())
    EXPECT_TRUE(stats.conserved()) << "tenant " << tenant;
}

TEST(ServeBatchTest, SubmitValidatesBatchableRequests) {
  const MatrixF w = random_matrix(48, 96, 65);
  const auto packed = pack_for_batch_test("dense", w, 16);
  ServingOptions options;
  options.batch.enabled = true;
  ServingRuntime runtime(options);
  runtime.register_batch_entry(make_gemm_entry("gemm", packed.get()));

  // Unknown entry name.
  EXPECT_THROW(
      runtime.submit(batch_request("nope", random_matrix(6, 48, 1), "", "")),
      std::invalid_argument);
  // Wrong input width.
  EXPECT_THROW(
      runtime.submit(batch_request("gemm", random_matrix(6, 32, 1), "", "")),
      std::invalid_argument);
  // Empty input.
  EXPECT_THROW(runtime.submit(batch_request("gemm", MatrixF(0, 48), "", "")),
               std::invalid_argument);
  // Both opaque work and a batchable entry.
  Request both = batch_request("gemm", random_matrix(6, 48, 1), "", "");
  both.work = [](WorkerContext&) { return MatrixF(1, 1); };
  EXPECT_THROW(runtime.submit(std::move(both)), std::invalid_argument);
  // Neither.
  EXPECT_THROW(runtime.submit(Request{}), std::invalid_argument);
  runtime.shutdown();
  EXPECT_TRUE(runtime.stats().conserved());
}

}  // namespace
}  // namespace tilesparse::serve
