#pragma once
// validate_graph — static analysis over an ExecGraph before anything
// dispatches it.
//
// The two worst bugs this repo has shipped (a ThreadPool
// use-after-return, unhardened wire parsing) were both failures no
// test could see until runtime.  Graphs and shard plans have the same
// character: a missing dependency edge or a shard slicing that drops a
// column produces *plausible numbers*, silently.  This verifier proves
// the structural properties once, before the first dispatch:
//
//  * Slot def-use: a read must be preceded (in execution order) by a
//    write or by an external feed declared with mark_input(); a final
//    write must be consumed by a reader or declared with
//    mark_output() (else it is a dead store); a pure GEMM node whose
//    output nobody consumes is a dead node.
//  * Dependency completeness: every RAW/WAW/WAR hazard implied by slot
//    dataflow must be covered by a dependency *path* (derived or
//    explicit).  A missing edge is reported by name — the verifier
//    never silently serializes the pair.
//  * Acyclicity: explicit add_dep edges may point either way, so the
//    verifier runs real cycle detection and prints the cycle as a
//    node-name path.
//  * Shape/numerics consistency: slot widths are propagated through
//    GEMM nodes (out = weight->n()); a consumer whose weight K
//    disagrees with the producer's N is reported, as are bias-shape
//    mismatches and ExecContext numerics the weight cannot execute.
//  * Shard-plan audit: for every col_shardable() GEMM weight the
//    verifier re-derives an even column slicing, materialises the
//    shards via shard_cols(), and verifies they tile [0, N) exactly
//    with no overlap (plus a value-level to_dense comparison for small
//    weights).  audit_shard_slices() is the same check exposed for the
//    scheduler's *actual* cached plans.
//
// Findings carry a severity: errors make validate_graph_or_throw (and
// the scheduler, which validates a graph once per edit) throw
// GraphValidationError listing everything found; warnings ride along
// in the list but never throw.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/graph.hpp"

namespace tilesparse {

enum class FindingSeverity { kWarning, kError };

struct GraphFinding {
  FindingSeverity severity = FindingSeverity::kError;
  /// Stable machine-readable class: "cycle", "read-before-write",
  /// "missing-dep", "dead-write", "dead-node", "shape-mismatch",
  /// "unsupported-numerics", "shard-plan".
  std::string code;
  /// Human-readable diagnostic naming the nodes/slots involved.
  std::string message;
};

/// Thrown when validation finds errors.  what() summarises; findings()
/// carries every finding (warnings included) for programmatic use.
class GraphValidationError : public std::runtime_error {
 public:
  explicit GraphValidationError(std::vector<GraphFinding> findings);
  const std::vector<GraphFinding>& findings() const noexcept {
    return findings_;
  }

 private:
  std::vector<GraphFinding> findings_;
};

struct ValidateOptions {
  /// Audit shard slicings of every col_shardable() GEMM weight.
  bool check_shard_plan = true;
  /// Shard count probed per weight (clamped to its N); 0 disables the
  /// re-derivation (audit_shard_slices can still be called directly).
  std::size_t probe_shards = 4;
  /// Weights up to this many elements also get the value-level check
  /// (concatenated shard to_dense() == whole to_dense()).
  std::size_t deep_shard_check_max_elems = 1u << 16;
};

/// Runs every check; returns all findings (empty = clean).
std::vector<GraphFinding> validate_graph(const ExecGraph& graph,
                                         const ValidateOptions& options = {});

/// validate_graph, throwing GraphValidationError if any finding is an
/// error.
void validate_graph_or_throw(const ExecGraph& graph,
                             const ValidateOptions& options = {});

/// Audits an explicit shard plan for `weight`: `slices` must be
/// ascending, non-empty, non-overlapping [n0, n1) ranges tiling
/// [0, weight.n()) exactly, and shard_cols() must return a shard of
/// the requested shape for each.  Used by validate_graph on derived
/// plans and by the ExecScheduler on its cached ones.
std::vector<GraphFinding> audit_shard_slices(
    const PackedWeight& weight,
    const std::vector<std::pair<std::size_t, std::size_t>>& slices,
    bool deep_check = false);

/// One-line rendering ("error[missing-dep]: ...") used by what() and
/// the CLI surfaces.
std::string to_string(const GraphFinding& finding);

}  // namespace tilesparse
