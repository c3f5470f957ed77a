// Static ExecGraph verifier (exec/validate.hpp): every class of
// malformed graph — cycles, reads before any writer, slot-implied
// hazards with no covering dependency path, bad shard plans, shape
// mismatches — is rejected with a diagnostic naming the offending
// nodes/slots, while the real model graph (BERT) validates clean.  The
// scheduler runs this audit once per graph build, so a malformed plan
// throws GraphValidationError before any dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/backend_registry.hpp"
#include "exec/graph.hpp"
#include "exec/scheduler.hpp"
#include "exec/validate.hpp"
#include "nn/bert_mini.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "workload/datasets.hpp"

namespace tilesparse {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng);
  return m;
}

bool has_finding(const std::vector<GraphFinding>& findings,
                 const std::string& code, const std::string& substring,
                 FindingSeverity severity = FindingSeverity::kError) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const GraphFinding& f) {
                       return f.severity == severity && f.code == code &&
                              f.message.find(substring) != std::string::npos;
                     });
}

std::string render(const std::vector<GraphFinding>& findings) {
  std::string all;
  for (const GraphFinding& f : findings) all += to_string(f) + "\n";
  return all;
}

// ------------------------------------------------------ fixture: cycle

TEST(ValidateTest, CycleIsReportedWithPath) {
  ExecGraph g;
  const auto s = g.add_slot("s");
  const auto t = g.add_slot("t");
  const auto n0 = g.add_host("alpha", {}, {s}, [](ExecGraph&) {});
  const auto n1 = g.add_host("beta", {s}, {t}, [](ExecGraph&) {});
  g.add_dep(n0, n1);  // closes alpha -> beta -> alpha
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "cycle", "'alpha'")) << render(findings);
  EXPECT_TRUE(has_finding(findings, "cycle", "->")) << render(findings);
  EXPECT_THROW(g.topo_order(), std::logic_error);
  EXPECT_THROW(validate_graph_or_throw(g), GraphValidationError);
}

// -------------------------------------------- fixture: read-before-write

TEST(ValidateTest, ReadBeforeWriteNamesReaderAndSlot) {
  // `consumer` reads `data` before `producer` (which has no ordering
  // edge forcing it first): the walk sees the read while the slot is
  // unwritten AND the hazard audit sees a writer with no path.
  ExecGraph g;
  g.set_auto_deps(false);
  const auto data = g.add_slot("data");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  g.add_host("consumer", {data}, {out}, [](ExecGraph&) {});
  g.add_host("producer", {}, {data}, [](ExecGraph&) {});
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "read-before-write", "'consumer'"))
      << render(findings);
  EXPECT_TRUE(has_finding(findings, "read-before-write", "slot 'data'"))
      << render(findings);
  EXPECT_THROW(validate_graph_or_throw(g), GraphValidationError);
}

TEST(ValidateTest, UnwrittenUnmarkedReadIsErrorOnlyWithDeclaredIo) {
  // Legacy graphs (no mark_input/mark_output anywhere) get leniency: an
  // externally fed slot reads as a warning, not an error.
  ExecGraph legacy;
  const auto in = legacy.add_slot("in");
  legacy.add_host("use", {in}, {}, [](ExecGraph&) {});
  const auto lenient = validate_graph(legacy);
  EXPECT_TRUE(has_finding(lenient, "read-before-write", "mark_input",
                          FindingSeverity::kWarning))
      << render(lenient);
  EXPECT_NO_THROW(validate_graph_or_throw(legacy));

  // Once the builder declares I/O, the same shape is an error...
  ExecGraph strict;
  const auto sin = strict.add_slot("in");
  const auto sout = strict.add_slot("out");
  strict.mark_output(sout);
  strict.add_host("use", {sin}, {sout}, [](ExecGraph&) {});
  EXPECT_THROW(validate_graph_or_throw(strict), GraphValidationError);

  // ...unless the slot is a declared input.
  ExecGraph ok;
  const auto oin = ok.add_slot("in");
  const auto oout = ok.add_slot("out");
  ok.mark_input(oin);
  ok.mark_output(oout);
  ok.add_host("use", {oin}, {oout}, [](ExecGraph&) {});
  EXPECT_NO_THROW(validate_graph_or_throw(ok));
}

// -------------------------------------------- fixture: missing hazard edge

TEST(ValidateTest, MissingRawEdgeIsReported) {
  // Manual wiring that forgot the RAW edge writer -> reader.
  ExecGraph g;
  g.set_auto_deps(false);
  const auto s = g.add_slot("s");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  const auto w = g.add_host("writer", {}, {s}, [](ExecGraph&) {});
  const auto r = g.add_host("reader", {s}, {out}, [](ExecGraph&) {});
  (void)w;
  (void)r;
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "missing-dep", "RAW hazard"))
      << render(findings);
  EXPECT_TRUE(has_finding(findings, "missing-dep", "'writer'"))
      << render(findings);
  EXPECT_THROW(validate_graph_or_throw(g), GraphValidationError);

  // Adding the forgotten edge fixes it.
  g.add_dep(r, w);
  EXPECT_NO_THROW(validate_graph_or_throw(g));
}

TEST(ValidateTest, MissingWawAndWarEdgesAreReported) {
  ExecGraph g;
  g.set_auto_deps(false);
  const auto s = g.add_slot("s");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  const auto w0 = g.add_host("first_write", {}, {s}, [](ExecGraph&) {});
  const auto rd = g.add_host("reader", {s}, {out}, [](ExecGraph&) {});
  g.add_dep(rd, w0);  // RAW covered
  // Second writer with no path from the first writer nor the reader.
  g.add_host("second_write", {}, {s}, [](ExecGraph&) {});
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "missing-dep", "WAW hazard"))
      << render(findings);
  EXPECT_TRUE(has_finding(findings, "missing-dep", "WAR hazard"))
      << render(findings);
}

TEST(ValidateTest, TransitivePathCoversHazard) {
  // Hazard coverage accepts any dependency *path*, not just a direct
  // edge: writer -> middle -> reader is fine.
  ExecGraph g;
  g.set_auto_deps(false);
  const auto s = g.add_slot("s");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  const auto w = g.add_host("writer", {}, {s}, [](ExecGraph&) {});
  const auto m = g.add_host("middle", {}, {}, [](ExecGraph&) {});
  const auto r = g.add_host("reader", {s}, {out}, [](ExecGraph&) {});
  g.add_dep(m, w);
  g.add_dep(r, m);
  EXPECT_NO_THROW(validate_graph_or_throw(g));
}

// ------------------------------------------- fixture: bad shard slices

TEST(ValidateTest, OverlappingShardSlicesAreReported) {
  const MatrixF w = random_matrix(16, 64, 3);
  const auto packed = make_packed("dense", w);
  const auto findings = audit_shard_slices(
      *packed, {{0, 24}, {16, 40}, {40, 64}});
  EXPECT_TRUE(has_finding(findings, "shard-plan", "computed twice"))
      << render(findings);
}

TEST(ValidateTest, ShardGapAndCoverageAreReported) {
  const MatrixF w = random_matrix(16, 64, 3);
  const auto packed = make_packed("dense", w);
  const auto gap = audit_shard_slices(*packed, {{0, 16}, {24, 64}});
  EXPECT_TRUE(has_finding(gap, "shard-plan", "skips columns")) << render(gap);
  const auto partial = audit_shard_slices(*packed, {{0, 16}, {16, 48}});
  EXPECT_TRUE(has_finding(partial, "shard-plan", "N = 64")) << render(partial);
  const auto good =
      audit_shard_slices(*packed, {{0, 16}, {16, 48}, {48, 64}},
                         /*deep_check=*/true);
  EXPECT_TRUE(good.empty()) << render(good);
}

// --------------------------------------------- fixture: shape mismatch

TEST(ValidateTest, GemmInputWidthMismatchIsReported) {
  // fc2 expects K = 32 but is fed fc1's N = 48 output.
  const MatrixF w1 = random_matrix(24, 48, 4);
  const MatrixF w2 = random_matrix(32, 8, 5);
  const auto p1 = make_packed("dense", w1);
  const auto p2 = make_packed("dense", w2);
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto mid = g.add_slot("mid");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  g.add_gemm("fc1", p1.get(), in, mid);
  g.add_gemm("fc2", p2.get(), mid, out);
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "shape-mismatch", "'fc2'"))
      << render(findings);
  EXPECT_TRUE(has_finding(findings, "shape-mismatch", "48"))
      << render(findings);
  EXPECT_THROW(validate_graph_or_throw(g), GraphValidationError);
}

TEST(ValidateTest, BadBiasShapeIsReported) {
  const MatrixF w = random_matrix(16, 32, 6);
  const MatrixF bias = random_matrix(1, 24, 7);  // want 1 x 32
  const auto packed = make_packed("dense", w);
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  g.add_gemm("fc", packed.get(), in, out, ExecContext{}, &bias);
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "shape-mismatch", "bias"))
      << render(findings);
}

// ------------------------------------------------- warnings, dead code

TEST(ValidateTest, DeadWritesAndDeadNodesWarn) {
  const MatrixF w = random_matrix(16, 32, 8);
  const auto packed = make_packed("dense", w);
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto unused = g.add_slot("unused");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  g.add_gemm("dead_gemm", packed.get(), in, unused);  // nothing reads it
  g.add_host("to_out", {in}, {out}, [](ExecGraph&) {});
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "dead-node", "'dead_gemm'",
                          FindingSeverity::kWarning))
      << render(findings);
  // Warnings alone do not throw.
  EXPECT_NO_THROW(validate_graph_or_throw(g));
}

// --------------------------------------------- scheduler integration

TEST(ValidateTest, SchedulerRejectsMalformedGraphBeforeDispatch) {
  ExecGraph g;
  g.set_auto_deps(false);
  const auto s = g.add_slot("s");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  bool consumer_ran = false;
  g.add_host("consumer", {s}, {out},
             [&consumer_ran](ExecGraph&) { consumer_ran = true; });
  g.add_host("producer", {}, {s}, [](ExecGraph&) {});
  ExecScheduler scheduler;
  EXPECT_THROW(scheduler.run(g), GraphValidationError);
  EXPECT_FALSE(consumer_ran);  // rejected before any node executed
}

TEST(ValidateTest, SchedulerValidatesOncePerEdit) {
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  int runs = 0;
  g.add_host("copy", {in}, {out}, [&runs, in, out](ExecGraph& gg) {
    gg.slot(out) = gg.slot(in);
    ++runs;
  });
  SchedulerOptions options;
  options.streams = 1;
  ExecScheduler scheduler(options);
  g.slot(in) = random_matrix(2, 3, 9);
  EXPECT_FALSE(g.validated());
  scheduler.run(g);
  EXPECT_TRUE(g.validated());
  scheduler.run(g);
  EXPECT_EQ(runs, 2);
}

TEST(ValidateTest, SchedulerRevalidatesAGraphEditedAfterItsFirstRun) {
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  g.add_host("copy", {in}, {out},
             [in, out](ExecGraph& gg) { gg.slot(out) = gg.slot(in); });
  SchedulerOptions options;
  options.streams = 1;
  ExecScheduler scheduler(options);
  g.slot(in) = random_matrix(2, 3, 10);
  scheduler.run(g);

  // A node appended after the first run reads a slot nothing writes
  // and nobody feeds: the next run must audit the grown graph and
  // refuse it, from this scheduler and from any other.
  const auto orphan = g.add_slot("orphan");
  const auto extra = g.add_slot("extra");
  bool late_ran = false;
  g.add_host("late", {orphan}, {extra},
             [&late_ran](ExecGraph&) { late_ran = true; });
  EXPECT_THROW(scheduler.run(g), GraphValidationError);
  ExecScheduler other(options);
  EXPECT_THROW(other.run(g), GraphValidationError);
  EXPECT_FALSE(late_ran);
}

TEST(ValidateTest, EveryGraphEditClearsTheValidatedMark) {
  const MatrixF w = random_matrix(3, 3, 11);
  const auto weight = make_packed("dense", w);
  ExecGraph g;
  const auto a = g.add_slot("a");
  const auto b = g.add_slot("b");
  const auto first = g.add_host("first", {}, {a}, [](ExecGraph&) {});
  const std::vector<std::function<void()>> edits = {
      [&] { g.mark_input(a); },
      [&] { g.mark_output(b); },
      [&] { g.add_gemm("gemm", weight.get(), a, b); },
      [&] { g.add_host("host", {b}, {}, [](ExecGraph&) {}); },
      [&] { g.add_dep(g.node_count() - 1, first); },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    g.mark_validated();
    edits[i]();
    EXPECT_FALSE(g.validated()) << "edit " << i;
  }
}

TEST(ValidateTest, SchedulerValidationCanBeDisabled) {
  ExecGraph g;
  g.set_auto_deps(false);
  const auto s = g.add_slot("s");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  g.add_host("consumer", {s}, {out}, [](ExecGraph&) {});
  g.add_host("producer", {}, {s}, [](ExecGraph&) {});
  SchedulerOptions options;
  options.streams = 1;
  options.validate = false;
  ExecScheduler scheduler(options);
  EXPECT_NO_THROW(scheduler.run(g));
}

// ------------------------------------------- real model graphs are clean

TEST(ValidateTest, BertGraphValidatesClean) {
  const BertMiniConfig config;
  TokenTeacherDataset dataset(64, config.seq, config.classes, config.dim, 91);
  BertMini model(config, dataset.embedding());
  model.pack_weights("dense");
  ExecGraph graph;
  const ExecGraph::SlotId input = graph.add_slot("x");
  graph.mark_input(input);
  graph.mark_output(model.append_exec_graph(graph, input));
  const auto findings = validate_graph(graph);
  EXPECT_TRUE(findings.empty()) << render(findings);
}

}  // namespace
}  // namespace tilesparse
