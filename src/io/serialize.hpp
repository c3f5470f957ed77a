#pragma once
// Binary serialization for deployment artifacts: a pruned model ships
// its TilePatterns, compacted tiles and — via the whole-PackedWeight
// container — complete execution backends to the inference side, which
// must not redo the (training-time) pruning or quantisation.  Format:
// little-endian (enforced at compile time in io/wire.hpp), magic +
// version header per object, size-prefixed arrays validated against the
// stream length before allocation.  Errors (short reads, bad magic,
// version mismatch, corrupt sizes) throw std::runtime_error.
//
// Two wire layouts coexist (wire::Layout):
//  * v1 — packed back-to-back, stream-loadable only;
//  * v2 (default) — every bulk array/matrix payload is padded to a
//    64-byte-aligned absolute file offset, so a file mapped at a
//    page-aligned base can hand out typed spans directly into the
//    mapping (zero-copy; see io/mmap_file.hpp and the read_*(
//    MappedArtifact&) overloads below).
// Readers never assume a version: every nested header carries it, and
// both layouts stream-load transparently.

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tile_pattern.hpp"
#include "exec/calibration.hpp"
#include "exec/packed_weight.hpp"
#include "exec/weight_storage.hpp"
#include "gemm/masked_gemm.hpp"
#include "io/wire.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

class MappedArtifact;

// Streams.  Writers default to the current layout (v2, aligned); pass
// wire::Layout{wire::kContainerVersionV1} to emit legacy artifacts.
void write_matrix(std::ostream& out, const MatrixF& m, wire::Layout layout = {});
MatrixF read_matrix(std::istream& in);

void write_pattern(std::ostream& out, const TilePattern& pattern,
                   wire::Layout layout = {});
TilePattern read_pattern(std::istream& in);

void write_tiles(std::ostream& out, const std::vector<MaskedTile>& tiles,
                 wire::Layout layout = {});
std::vector<MaskedTile> read_tiles(std::istream& in);

void write_csr(std::ostream& out, const CsrRef& m, wire::Layout layout = {});
inline void write_csr(std::ostream& out, const Csr& m,
                      wire::Layout layout = {}) {
  write_csr(out, m.ref(), layout);
}
Csr read_csr(std::istream& in);

void write_csc(std::ostream& out, const CscRef& m, wire::Layout layout = {});
inline void write_csc(std::ostream& out, const Csc& m,
                      wire::Layout layout = {}) {
  write_csc(out, m.ref(), layout);
}
Csc read_csc(std::istream& in);

// Zero-copy duals of the readers above: parse the same wire objects
// from a mapped v2 artifact, borrowing bulk sections (matrix panels,
// index/value arrays) in place of copying them.  Small metadata (tile
// index vectors, the pattern) is still copied — it is a few percent of
// the payload and downstream code keeps plain vectors.  Whoever holds
// the returned views must keep the mapping alive (MappedArtifact::
// keepalive); the PackedWeight load_view paths do this automatically.
TilePattern read_pattern(MappedArtifact& in);
std::vector<MaskedTile> read_tiles(MappedArtifact& in);
CsrStore read_csr(MappedArtifact& in);
CscStore read_csc(MappedArtifact& in);

// ---------------------------------------------- whole-PackedWeight container
//
// Layout: magic "TSPW", version, format name (from PackedWeight::
// format()), k, n, then a backend-owned payload written by
// PackedWeight::save() — dense panels, TW/TEW tiles + pattern, CSR
// arrays, or int8 tiles *with their scales*, so loading never re-packs
// or re-quantises.  Reading dispatches on the stored format name
// through the BackendRegistry loader table (see load_packed_weight in
// exec/backend_registry.hpp); unknown formats throw std::runtime_error.

void write_packed_weight(std::ostream& out, const PackedWeight& weight,
                         wire::Layout layout = {});
std::unique_ptr<PackedWeight> read_packed_weight(std::istream& in);

/// One entry of a model-level artifact.
struct NamedWeight {
  std::string name;
  std::unique_ptr<PackedWeight> weight;
};

// Model-level artifact: magic "TSMW", version, then a count-prefixed
// sequence of (layer name, packed-weight container) — one file serves a
// whole model.
void write_model_weights(
    std::ostream& out,
    const std::vector<std::pair<std::string, const PackedWeight*>>& layers,
    wire::Layout layout = {});
std::vector<NamedWeight> read_model_weights(std::istream& in);

/// Zero-copy dual: every weight's bulk payload borrows the mapping
/// (and holds its keepalive), so N processes loading the same file
/// share one physical copy of the weights through the page cache.
std::vector<NamedWeight> read_model_weights(MappedArtifact& in);

// Planner calibration — JSON, not the binary container: the artifact
// is meant to be human-inspected and diffed across hosts.  Unknown keys
// are ignored on read; missing keys keep their defaults.
void write_calibration_json(std::ostream& out,
                            const PlannerCalibration& calibration);
PlannerCalibration read_calibration_json(std::istream& in);

// File convenience wrappers.  The artifact savers (save_packed_weight,
// save_model_weights) write atomically: the bytes go to a temp file in
// the same directory which is rename(2)d over `path` only after a
// clean flush, so a crash mid-save never leaves a torn artifact where
// a serving process could map it.
void save_pattern(const std::string& path, const TilePattern& pattern);
TilePattern load_pattern(const std::string& path);
void save_packed_weight(const std::string& path, const PackedWeight& weight,
                        wire::Layout layout = {});
std::unique_ptr<PackedWeight> load_packed_weight(const std::string& path);
void save_model_weights(
    const std::string& path,
    const std::vector<std::pair<std::string, const PackedWeight*>>& layers,
    wire::Layout layout = {});
std::vector<NamedWeight> load_model_weights(const std::string& path);

/// Maps `path` (MAP_SHARED, read-only) and loads every layer zero-copy;
/// the mapping lives as long as any returned weight.  Requires a v2
/// artifact — v1 files throw with a message pointing at
/// load_model_weights.
std::vector<NamedWeight> load_model_weights_mapped(const std::string& path);

/// Zero-copy dual of load_packed_weight(path) for a single weight.
std::unique_ptr<PackedWeight> load_packed_weight_mapped(
    const std::string& path);

void save_calibration(const std::string& path,
                      const PlannerCalibration& calibration);
PlannerCalibration load_calibration(const std::string& path);

/// Loads `path` and installs it as the process-wide planner
/// calibration (set_planner_calibration).  Returns the loaded values.
PlannerCalibration load_planner_calibration(const std::string& path);

}  // namespace tilesparse
