// ExecGraph + ExecScheduler: model-level execution plans must be pure
// reorderings — a scheduled run (any stream count, with or without
// wide-N sharding) is bit-identical to the single-stream reference and
// to the layer-by-layer training forward, for every weight format.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/backend_registry.hpp"
#include "exec/graph.hpp"
#include "exec/scheduler.hpp"
#include "nn/batch_entry.hpp"
#include "nn/bert_mini.hpp"
#include "nn/loss.hpp"
#include "nn/prune_experiment.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "workload/datasets.hpp"

namespace tilesparse {
namespace {

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

std::unique_ptr<PackedWeight> pack_for_test(const std::string& format,
                                            const MatrixF& w, std::size_t g) {
  const MatrixF scores = magnitude_scores(w);
  const TilePattern pattern = tw_pattern_from_scores(scores, 0.6, g);
  PackOptions options;
  options.pattern = &pattern;
  options.scores = &scores;
  return make_packed(format, w, options);
}

// ----------------------------------------------------------- graph basics

TEST(ExecGraphTest, DataflowDepsFollowSlots) {
  ExecGraph g;
  const auto a = g.add_slot("a");
  const auto b = g.add_slot("b");
  const auto c = g.add_slot("c");
  const auto n0 = g.add_host("write_a", {}, {a}, [](ExecGraph&) {});
  const auto n1 = g.add_host("write_b", {}, {b}, [](ExecGraph&) {});
  const auto n2 = g.add_host("sum", {a, b}, {c}, [](ExecGraph&) {});
  EXPECT_TRUE(g.nodes()[n0].deps.empty());
  EXPECT_TRUE(g.nodes()[n1].deps.empty());
  ASSERT_EQ(g.nodes()[n2].deps.size(), 2u);  // RAW on both writers
  EXPECT_EQ(g.nodes()[n2].deps[0], n0);
  EXPECT_EQ(g.nodes()[n2].deps[1], n1);

  // WAR: overwriting `a` must wait for the reader.
  const auto n3 = g.add_host("rewrite_a", {}, {a}, [](ExecGraph&) {});
  const auto& deps = g.nodes()[n3].deps;
  EXPECT_NE(std::find(deps.begin(), deps.end(), n2), deps.end());
}

TEST(ExecGraphTest, AddDepAcceptsEitherDirectionRejectsMalformed) {
  ExecGraph g;
  const auto s = g.add_slot("s");
  const auto n0 = g.add_host("first", {}, {s}, [](ExecGraph&) {});
  const auto n1 = g.add_host("second", {s}, {}, [](ExecGraph&) {});
  EXPECT_NO_THROW(g.add_dep(n1, n0));
  // A forward edge is representable (it closes a cycle here); the
  // static verifier and topo_order are what reject it, not add_dep.
  EXPECT_NO_THROW(g.add_dep(n0, n1));
  EXPECT_THROW(g.topo_order(), std::logic_error);
  EXPECT_THROW(g.add_dep(n0, n0), std::invalid_argument);
  EXPECT_THROW(g.add_dep(7, n0), std::invalid_argument);
}

TEST(ExecGraphTest, GemmNodeMatchesPackedMatmul) {
  const MatrixF w = random_matrix(48, 96, 3);
  const MatrixF a = random_matrix(20, 48, 4);
  const MatrixF bias = random_matrix(1, 96, 5);
  const auto packed = make_packed("dense", w);

  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto out = g.add_slot("out");
  g.add_gemm("gemm", packed.get(), in, out, ExecContext{}, &bias);
  g.slot(in) = a;
  g.execute_node(g.topo_order().back());

  MatrixF expected = packed->matmul(ExecContext{}, a);
  for (std::size_t r = 0; r < expected.rows(); ++r)
    for (std::size_t c = 0; c < expected.cols(); ++c)
      expected(r, c) += bias(0, c);
  EXPECT_TRUE(bit_identical(g.slot(out), expected));
}

TEST(ExecGraphTest, RejectsBadNodes) {
  ExecGraph g;
  const auto s = g.add_slot("s");
  const auto t = g.add_slot("t");
  const MatrixF w = random_matrix(8, 8, 1);
  const auto packed = make_packed("dense", w);
  EXPECT_THROW(g.add_gemm("null", nullptr, s, t), std::invalid_argument);
  EXPECT_THROW(g.add_gemm("inplace", packed.get(), s, s),
               std::invalid_argument);
  EXPECT_THROW(g.add_gemm("range", packed.get(), s, 99),
               std::invalid_argument);
  EXPECT_THROW(g.add_host("nullfn", {s}, {t}, nullptr), std::invalid_argument);
}

// ------------------------------------------------- scheduler determinism

/// Builds a diamond of GEMMs: four independent projections of one
/// input feeding a host join, then a final wide GEMM — the same shape
/// of parallelism the attention block exposes.
struct DiamondGraph {
  ExecGraph graph;
  ExecGraph::SlotId in = 0, out = 0;
  std::vector<std::unique_ptr<PackedWeight>> weights;
};

DiamondGraph make_diamond(const std::string& format, std::size_t k,
                          std::size_t n, std::size_t wide_n) {
  DiamondGraph d;
  d.in = d.graph.add_slot("in");
  std::vector<ExecGraph::SlotId> mids;
  for (int i = 0; i < 4; ++i) {
    d.weights.push_back(
        pack_for_test(format, random_matrix(k, n, 100 + i), 8));
    const auto mid = d.graph.add_slot("mid" + std::to_string(i));
    d.graph.add_gemm("proj" + std::to_string(i), d.weights.back().get(), d.in,
                     mid);
    mids.push_back(mid);
  }
  const auto joined = d.graph.add_slot("joined");
  d.graph.add_host("join", mids, {joined}, [mids, joined](ExecGraph& g) {
    MatrixF sum = g.slot(mids[0]);
    for (std::size_t i = 1; i < mids.size(); ++i) {
      const MatrixF& m = g.slot(mids[i]);
      for (std::size_t j = 0; j < sum.size(); ++j)
        sum.data()[j] += m.data()[j];
    }
    g.slot(joined) = std::move(sum);
  });
  d.weights.push_back(
      pack_for_test(format, random_matrix(n, wide_n, 200), 8));
  d.out = d.graph.add_slot("out");
  d.graph.add_gemm("wide", d.weights.back().get(), joined, d.out);
  return d;
}

class SchedulerDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulerDeterminism, BitIdenticalToSingleStreamAcrossStreams) {
  const std::string format = GetParam();
  const MatrixF a = random_matrix(33, 40, 9);

  DiamondGraph reference = make_diamond(format, 40, 56, 192);
  SchedulerOptions serial;
  serial.streams = 1;
  ExecScheduler single(serial);
  reference.graph.slot(reference.in) = a;
  single.run(reference.graph);
  const MatrixF expected = reference.graph.slot(reference.out);
  ASSERT_EQ(expected.rows(), a.rows());

  // A private pool with real workers: the determinism claim must hold
  // under true cross-thread execution even when the host (or a CI
  // sandbox) reports a single core and the global pool has no workers.
  ThreadPool pool(3);
  for (const std::size_t streams : {2u, 4u, 8u}) {
    DiamondGraph d = make_diamond(format, 40, 56, 192);
    SchedulerOptions options;
    options.streams = streams;
    options.min_shard_cols = 16;  // force wide-N sharding where supported
    options.dispatch_overhead_us = 0.0;
    ExecScheduler scheduler(options, &pool);
    // Repeated runs through the same scheduler reuse the shard plan.
    for (int rep = 0; rep < 3; ++rep) {
      d.graph.slot(d.in) = a;
      scheduler.run(d.graph);
      EXPECT_TRUE(bit_identical(d.graph.slot(d.out), expected))
          << format << " diverged at streams=" << streams << " rep=" << rep;
    }
    // Every built-in format slices exactly now — dense/csr by column
    // independence, the tile formats by carrying kept_rows (and
    // per-tile int8 scales) through the slice.
    EXPECT_GT(scheduler.last_stats().sharded_nodes, 0u)
        << format << " should shard the wide-N node";
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SchedulerDeterminism,
                         ::testing::Values("dense", "tw", "tew", "csr",
                                           "tw-int8"));

// --------------------------------------------------------- wide-N shards

TEST(ShardColsTest, AllFormatsSliceExactOnRaggedShapes) {
  // Deliberately awkward shapes: prime-ish N (so tile widths and shard
  // boundaries disagree), shard counts that do not divide it, slices
  // crossing the 16-column panel boundary and splitting tiles.
  for (const std::string format : {"dense", "csr", "tw", "tew", "tw-int8"}) {
    const MatrixF w = random_matrix(37, 117, 21);
    const MatrixF a = random_matrix(13, 37, 22);
    const auto packed = pack_for_test(format, w, 8);
    const MatrixF whole = packed->matmul(ExecContext{}, a);

    ASSERT_TRUE(packed->col_shardable());
    for (const std::size_t shards : {2u, 3u, 5u, 117u}) {
      MatrixF joined(a.rows(), w.cols());
      const std::size_t base = w.cols() / shards, rem = w.cols() % shards;
      std::size_t n0 = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t n1 = n0 + base + (s < rem ? 1 : 0);
        const auto slice = packed->shard_cols(n0, n1);
        ASSERT_EQ(slice->k(), packed->k());
        ASSERT_EQ(slice->n(), n1 - n0);
        const MatrixF part = slice->matmul(ExecContext{}, a);
        for (std::size_t r = 0; r < part.rows(); ++r)
          for (std::size_t c = 0; c < part.cols(); ++c)
            joined(r, n0 + c) = part(r, c);
        n0 = n1;
      }
      EXPECT_TRUE(bit_identical(joined, whole))
          << format << " shard join diverged at shards=" << shards;
    }
  }
}

TEST(ShardColsTest, AllBuiltinFormatsAreShardable) {
  const MatrixF w = random_matrix(16, 32, 2);
  for (const std::string format : {"dense", "csr", "tw", "tew", "tw-int8"}) {
    const auto packed = pack_for_test(format, w, 8);
    EXPECT_TRUE(packed->col_shardable()) << format;
  }
}

TEST(ShardColsTest, RejectsBadRanges) {
  const MatrixF w = random_matrix(16, 32, 2);
  for (const std::string format : {"dense", "csr", "tw", "tew", "tw-int8"}) {
    const auto packed = pack_for_test(format, w, 8);
    EXPECT_THROW(packed->shard_cols(4, 4), std::invalid_argument) << format;
    EXPECT_THROW(packed->shard_cols(8, 40), std::invalid_argument) << format;
  }
}

// ----------------------------------------------------- model graph paths

TEST(ModelGraphTest, BertGraphForwardBitIdenticalToSyncAcrossFormats) {
  const BertMiniConfig config;
  TokenTeacherDataset dataset(64, config.seq, config.classes, config.dim, 77);
  BertMini model(config, dataset.embedding());
  Rng rng(123);
  const TokenBatch batch = dataset.sample(24, rng);

  ThreadPool pool(3);
  for (const std::string format : {"dense", "csr"}) {
    model.pack_weights(format);
    const MatrixF sync = model.forward(batch);
    const auto entry = make_bert_entry("bert", model);

    for (const std::size_t streams : {1u, 4u}) {
      SchedulerOptions options;
      options.streams = streams;
      options.min_shard_cols = 16;
      options.dispatch_overhead_us = 0.0;
      ExecScheduler scheduler(options, &pool);
      const MatrixF scheduled = entry->run(scheduler, model.embed(batch));
      EXPECT_TRUE(bit_identical(scheduled, sync))
          << format << " graph forward diverged at streams=" << streams;
    }
    model.clear_packed_weights();
  }
}

TEST(ModelGraphTest, BertGraphExposesAttentionParallelism) {
  const BertMiniConfig config;
  TokenTeacherDataset dataset(64, config.seq, config.classes, config.dim, 78);
  BertMini model(config, dataset.embedding());
  model.pack_weights("dense");
  ExecGraph graph;
  const ExecGraph::SlotId input = graph.add_slot("x");
  model.append_exec_graph(graph, input);
  // Q, K, V of one block are mutually independent GEMM nodes.
  EXPECT_GE(graph.max_gemm_width(), 3u);
  EXPECT_GT(graph.node_count(), 6u * config.layers);
}

/// A BertMini holding a BERT-MNLI proxy task's current parameters: the
/// task's config, dataset (seed 77) and parameter order, so forward()
/// here is the training-path reference for the task's evaluate().
struct BertClsTaskMirror {
  explicit BertClsTaskMirror(PruneTask& task) {
    const std::vector<Param*> source = task.parameters();
    const std::vector<Param*> target = model.params();
    EXPECT_EQ(source.size(), target.size());
    for (std::size_t i = 0; i < target.size(); ++i)
      target[i]->value = source[i]->value;
  }
  /// Accuracy of forward() on the task's evaluation batch.
  double forward_accuracy() {
    Rng eval_rng(9999);
    const TokenBatch batch = dataset.sample(512, eval_rng);
    return accuracy(model.forward(batch), batch.y);
  }

  BertMiniConfig config;
  TokenTeacherDataset dataset{64, config.seq, config.classes, config.dim, 77};
  BertMini model{config, dataset.embedding()};
};

TEST(ModelGraphTest, BertTaskEvaluateMatchesLayerByLayerForward) {
  // evaluate() serves through make_bert_entry; with unpacked weights it
  // must report exactly what the layer-by-layer forward() computes, so
  // moving evaluation onto the serving path moved no number.
  auto task = make_bert_cls_task(/*pretrain_steps=*/8);
  BertClsTaskMirror mirror(*task);
  EXPECT_EQ(task->evaluate(), mirror.forward_accuracy());
}

TEST(ModelGraphTest, EvaluateServesBackendsReplacedBehindTheModel) {
  // An artifact load installs backends straight into the layers,
  // bypassing pack_weights.  evaluate() after such a replacement must
  // serve the new backends, never graphs bound to the freed old ones.
  auto task = make_bert_cls_task(/*pretrain_steps=*/8);
  BertClsTaskMirror mirror(*task);
  ASSERT_TRUE(task->pack_weights("dense", nullptr, ExecContext{}));
  (void)task->evaluate();  // serves the dense backends

  // Replace every backend with an all-zero one; the mirror zeroes the
  // same weights so its forward() is the expected result.
  for (Linear* layer : task->packed_layers()) {
    const MatrixF& w = layer->weight().value;
    layer->set_packed_weight(make_packed("csr", MatrixF(w.rows(), w.cols())));
  }
  for (Param* w : mirror.model.prunable_weights()) w->value.fill(0.0f);
  EXPECT_EQ(task->evaluate(), mirror.forward_accuracy());
  task->clear_packed_weights();
}

TEST(ModelGraphTest, VggEvaluateWithFormatServesPacked) {
  // The CNN task now routes its im2col GEMMs through PackedWeight.
  auto task = make_vgg_task(/*pretrain_steps=*/8);
  const double dense_eval = task->evaluate();
  const double packed_eval = evaluate_with_format(*task, "dense");
  EXPECT_NEAR(packed_eval, dense_eval, 1e-6);
  const double csr_eval = evaluate_with_format(*task, "csr");
  EXPECT_NEAR(csr_eval, dense_eval, 1e-6);
}

// ------------------------------------------------------- error handling

TEST(SchedulerTest, HostNodeExceptionPropagates) {
  ExecGraph g;
  const auto s = g.add_slot("s");
  g.add_host("boom", {}, {s}, [](ExecGraph&) {
    throw std::runtime_error("node failure");
  });
  // A few dependents that must be abandoned cleanly.
  for (int i = 0; i < 4; ++i) {
    g.add_host("after" + std::to_string(i), {s}, {},
               [](ExecGraph&) {});
  }
  ThreadPool pool(3);
  SchedulerOptions options;
  options.streams = 4;
  ExecScheduler scheduler(options, &pool);
  EXPECT_THROW(scheduler.run(g), std::runtime_error);
  // The scheduler must stay usable after a failed run.
  ExecGraph ok;
  const auto t = ok.add_slot("t");
  std::atomic<int> runs{0};
  ok.add_host("fine", {}, {t}, [&runs](ExecGraph&) { ++runs; });
  scheduler.run(ok);
  EXPECT_EQ(runs.load(), 1);
}

TEST(SchedulerTest, RecoversBitIdenticalAfterMidGraphThrow) {
  // Serving-runtime regression: a worker's scheduler absorbs a node
  // exception mid-graph and must then serve healthy GEMM graphs with
  // bit-identical results — no stale plan, stream, or pool state may
  // leak out of the failed run.  Several failure/recovery cycles, since
  // the first recovery can pass while a later one trips on residue.
  const MatrixF w = random_matrix(32, 64, 21);
  const MatrixF a = random_matrix(9, 32, 22);
  const auto packed = make_packed("dense", w);
  const MatrixF expected = packed->matmul(ExecContext{}, a);

  ThreadPool pool(3);
  SchedulerOptions options;
  options.streams = 4;
  ExecScheduler scheduler(options, &pool);

  for (int cycle = 0; cycle < 5; ++cycle) {
    ExecGraph bad;
    const auto in = bad.add_slot("in");
    const auto mid = bad.add_slot("mid");
    bad.add_gemm("gemm", packed.get(), in, mid);
    bad.add_host("boom", {mid}, {}, [](ExecGraph&) {
      throw std::runtime_error("mid-graph node failure");
    });
    bad.slot(in) = a;
    EXPECT_THROW(scheduler.run(bad), std::runtime_error);

    ExecGraph good;
    const auto gin = good.add_slot("in");
    const auto gout = good.add_slot("out");
    good.add_gemm("gemm", packed.get(), gin, gout);
    good.slot(gin) = a;
    scheduler.run(good);
    ASSERT_TRUE(bit_identical(good.slot(gout), expected)) << "cycle " << cycle;
  }
}

TEST(SchedulerTest, ReplansWhenTheGraphGrowsNewNodes) {
  // The plan cache is keyed on (build id, node count, streams); a graph
  // that gained nodes between runs of the SAME scheduler must be
  // re-expanded, not indexed with the stale plan (regression: this was
  // an out-of-bounds read).
  const MatrixF w = random_matrix(24, 48, 5);
  const auto packed = make_packed("dense", w);
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto mid = g.add_slot("mid");
  g.add_gemm("first", packed.get(), in, mid);

  ThreadPool pool(3);
  SchedulerOptions options;
  options.streams = 4;
  ExecScheduler scheduler(options, &pool);
  g.slot(in) = random_matrix(7, 24, 6);
  scheduler.run(g);
  const std::size_t tasks_before = scheduler.last_stats().tasks;

  const auto w2 = make_packed("dense", random_matrix(48, 16, 8));
  const auto out = g.add_slot("out");
  g.add_gemm("second", w2.get(), mid, out);
  scheduler.run(g);
  EXPECT_GT(scheduler.last_stats().tasks, tasks_before);
  EXPECT_EQ(g.slot(out).cols(), 16u);
  const MatrixF expected = w2->matmul(ExecContext{}, g.slot(mid));
  EXPECT_TRUE(bit_identical(g.slot(out), expected));
}

TEST(SchedulerTest, EmptyGraphIsANoop) {
  ExecGraph g;
  ExecScheduler scheduler;
  EXPECT_NO_THROW(scheduler.run(g));
  EXPECT_EQ(scheduler.last_stats().tasks, 0u);
}

}  // namespace
}  // namespace tilesparse
