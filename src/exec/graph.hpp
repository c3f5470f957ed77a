#pragma once
// ExecGraph — a model-level execution plan.
//
// The exec API used to stop at the single-matmul level: every layer
// call site invoked PackedWeight::matmul synchronously, so a model's
// independent GEMMs (an attention block's Q/K/V projections) could
// never overlap.  ExecGraph
// lifts the plan one level up, following the paper's Fig. 7-4
// stream-assignment idea: a model builds a DAG of nodes once — each
// node either a weight GEMM (a PackedWeight ref plus input/output
// buffer slots) or a host op (the non-GEMM glue: layernorm, softmax,
// residual adds) — and an ExecScheduler dispatches ready nodes onto
// worker streams (see exec/scheduler.hpp).
//
// Dataflow dependencies are derived from slot access: a node that
// reads a slot depends on the slot's last writer (RAW), a writer
// depends on the previous writer (WAW) and on every reader since
// (WAR).  add_dep() adds explicit control edges for ordering the slots
// cannot express (e.g. a host op that mutates captured layer state).
// Builders that want full manual control call set_auto_deps(false) and
// wire every edge themselves; either way, validate_graph()
// (exec/validate.hpp) audits the result — every slot-implied hazard
// must be covered by some dependency path, the graph must be acyclic,
// and shapes must be consistent — and the scheduler runs that audit
// before the first dispatch, and again after any edit to the graph.
//
// Slots are plain MatrixF buffers owned by the graph.  Their shapes
// are set by whoever writes them (gemm nodes size their output from
// the input rows and the weight's N) through ensure_shape, which keeps
// a slot's storage whenever the new shape fits: one graph serves every
// batch size, and once it has run at the largest it allocates no slot
// storage again.  Slots fed by the caller before run() are declared
// with mark_input(); slots the caller reads afterwards with
// mark_output() — the verifier uses both to tell external I/O from
// dangling reads and dead stores.  A graph may be run repeatedly; it
// is cheap to build and holds non-owning weight refs, so rebuilding
// after re-packing is the expected pattern.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/exec_context.hpp"
#include "exec/packed_weight.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

class ExecGraph {
 public:
  using SlotId = std::size_t;
  using NodeId = std::size_t;

  ExecGraph();

  /// Process-unique id of this graph instance.  Models rebuild their
  /// graph whenever weights are re-packed; schedulers key cached shard
  /// plans on this id so a rebuilt graph (even at a recycled address)
  /// never reuses slices of freed weights.
  std::uint64_t build_id() const noexcept { return build_id_; }

  enum class NodeKind { kGemm, kHost };

  struct Node {
    std::string name;
    NodeKind kind = NodeKind::kHost;
    // Gemm payload: out = in * weight (+ bias row per output row),
    // under `ctx` numerics/threads (alpha/beta forced to 1/0 — graph
    // slots are single-assignment between writers).
    const PackedWeight* weight = nullptr;
    SlotId in = 0;
    SlotId out = 0;
    ExecContext ctx;
    const MatrixF* bias = nullptr;  ///< optional 1 x n row bias
    // Host payload.
    std::function<void(ExecGraph&)> fn;
    // Declared slot accesses (gemm: reads = {in}, writes = {out}).
    // This is the dataflow record validate_graph() audits against.
    std::vector<SlotId> reads;
    std::vector<SlotId> writes;
    // Dependency edges (indices into nodes()).
    std::vector<NodeId> deps;
    std::vector<NodeId> dependents;
  };

  /// Adds a named buffer slot.  Shape is set by the first writer.
  SlotId add_slot(std::string name);

  MatrixF& slot(SlotId id) { return slots_.at(id).buffer; }
  const MatrixF& slot(SlotId id) const { return slots_.at(id).buffer; }
  const std::string& slot_name(SlotId id) const { return slots_.at(id).name; }
  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Declares that the caller fills `id` before every run.  Reads of an
  /// input slot with no in-graph writer are external feeds, not
  /// read-before-write findings.
  void mark_input(SlotId id);
  /// Declares that the caller consumes `id` after every run, so its
  /// final write is live even though no node reads it.
  void mark_output(SlotId id);
  bool slot_is_input(SlotId id) const { return slots_.at(id).is_input; }
  bool slot_is_output(SlotId id) const { return slots_.at(id).is_output; }

  /// Whether add_gemm/add_host derive RAW/WAW/WAR edges from slot
  /// access (the default).  Off, nodes record their reads/writes but
  /// the builder wires every edge via add_dep(); validate_graph()
  /// reports any slot-implied hazard left uncovered.
  void set_auto_deps(bool enabled) noexcept { auto_deps_ = enabled; }
  bool auto_deps() const noexcept { return auto_deps_; }

  /// Adds a GEMM node: slot(out) = slot(in) * weight (+ bias row).
  /// `weight` and `bias` must outlive the graph.  Throws
  /// std::invalid_argument on a null weight or out-of-range slots.
  NodeId add_gemm(std::string name, const PackedWeight* weight, SlotId in,
                  SlotId out, const ExecContext& ctx = {},
                  const MatrixF* bias = nullptr);

  /// Adds a host node running `fn(graph)`.  `reads`/`writes` declare
  /// the slots the body touches, from which dependencies are derived;
  /// state the body mutates outside the graph (captured layer caches)
  /// must be ordered with add_dep().
  NodeId add_host(std::string name, std::vector<SlotId> reads,
                  std::vector<SlotId> writes, std::function<void(ExecGraph&)> fn);

  /// Explicit control edge: `node` runs only after `before`.  Edges in
  /// either direction are accepted (a later-added node may order an
  /// earlier one after it); validate_graph() proves the result is
  /// still acyclic.  Throws std::invalid_argument on out-of-range ids
  /// or a self-edge.
  void add_dep(NodeId node, NodeId before);

  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Whether validate_graph() has passed this graph since its last
  /// edit.  Every add_gemm/add_host/add_dep/mark_input/mark_output
  /// clears the mark; the scheduler sets it after a clean audit, so a
  /// graph is audited once, not once per run — and a graph that grows
  /// after its first run is audited again.
  bool validated() const noexcept { return validated_; }
  void mark_validated() noexcept { validated_ = true; }

  /// Count of GEMM nodes with no dependency on one another — an upper
  /// bound on useful stream overlap (diagnostic for benches/tests).
  std::size_t max_gemm_width() const;

  /// A valid topological order of all nodes (Kahn's algorithm, lowest
  /// node id first among ready nodes, so auto-built graphs keep their
  /// insertion order).  Throws std::logic_error if the explicit edges
  /// formed a cycle — run validate_graph() for the offending path.
  std::vector<NodeId> topo_order() const;

  /// Executes one node on the calling thread (the scheduler's unit of
  /// work; also usable directly for serial reference runs).
  void execute_node(NodeId id);

  /// Guards builds only: fills every non-input slot buffer with quiet
  /// NaNs so a node that runs before its producer (a missed dependency
  /// slipping past the static audit) poisons its output instead of
  /// consuming stale-but-plausible values.  No-op without
  /// TILESPARSE_ENABLE_GUARDS.
  void poison_slots();

 private:
  struct Slot {
    std::string name;
    MatrixF buffer;
    bool is_input = false;
    bool is_output = false;
    // Dataflow bookkeeping at build time.
    bool written = false;
    NodeId last_writer = 0;
    std::vector<NodeId> readers_since_write;
  };

  void link(NodeId node);
  void check_slot(SlotId id, const char* what) const;

  std::uint64_t build_id_ = 0;
  bool auto_deps_ = true;
  bool validated_ = false;
  std::vector<Slot> slots_;
  std::vector<Node> nodes_;
};

}  // namespace tilesparse
