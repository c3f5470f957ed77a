#pragma once
// BackendRegistry — name -> factory for PackedWeight formats, following
// the one-interface-many-backends idiom: a weight matrix plus (where the
// format needs one) a TilePattern produces an executable object by
// format string.  The five built-in formats self-register; downstream
// code (new kernels, device-specific packings) extends the registry at
// runtime with register_backend().

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/tile_pattern.hpp"
#include "exec/packed_weight.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

class MappedArtifact;

/// Everything a factory may need beyond the raw weights.  Formats
/// ignore fields they do not use; formats missing a required field
/// (e.g. "tw" without a pattern) throw std::invalid_argument.
struct PackOptions {
  /// TW pattern of the weights; required by "tw", "tew", "tw-int8".
  const TilePattern* pattern = nullptr;
  /// Importance of pruned elements for the TEW remainder; defaults to
  /// the magnitude of the *packed* weights when null.  Note the "tew"
  /// factory restores remainder values from the weights it is given:
  /// pack from the unpruned weights (with a pattern pruned to
  /// alpha + delta), or supply pre-pruning scores — packing weights
  /// already zeroed by apply_pattern leaves nothing to restore and
  /// degenerates to plain "tw".
  const MatrixF* scores = nullptr;
  /// Fraction of the matrix restored element-wise by "tew".
  double tew_delta = 0.05;
  /// Magnitude threshold below which "csr" drops elements.
  float csr_tol = 0.0f;
};

using BackendFactory = std::function<std::unique_ptr<PackedWeight>(
    const MatrixF& weights, const PackOptions& options)>;

/// Registers (or replaces) a backend.  Thread-compatible: registration
/// is expected at startup, before concurrent packing begins.
void register_backend(const std::string& format, BackendFactory factory);

/// Names of all registered formats, sorted.  Built-ins are always
/// present: "dense", "tw", "tew", "csr", "tw-int8".
std::vector<std::string> registered_formats();

/// True when `format` resolves to a registered backend.
bool backend_registered(const std::string& format);

/// Packs `weights` under the named format.  Throws std::out_of_range
/// for unknown formats and std::invalid_argument when the format needs
/// options that were not supplied.
std::unique_ptr<PackedWeight> make_packed(const std::string& format,
                                          const MatrixF& weights,
                                          const PackOptions& options = {});

// ------------------------------------------------------- artifact loading
//
// The deserialization side: a format-tagged artifact (written by
// write_packed_weight in io/serialize) names the backend that must
// reconstruct it, and both loaders below dispatch on that name over the
// five built-in formats.  A format added with register_backend packs
// and executes, but cannot be loaded from an artifact.

/// Reads one whole-PackedWeight container (magic, version, format name,
/// k/n, payload) and dispatches on the stored format name.  Accepts
/// both v1 and v2 containers.  Throws std::runtime_error for a bad
/// magic, an unsupported version, an unknown format name, or a payload
/// that fails validation — never UB, and never bad_alloc when the
/// stream is seekable (files and string streams; a garbage length on a
/// pipe cannot be pre-validated).
std::unique_ptr<PackedWeight> load_packed_weight(std::istream& in);

/// The zero-copy dual: parses one whole-PackedWeight container from a
/// mapped artifact (io/mmap_file.hpp) and dispatches on the stored
/// format name, producing a weight whose bulk payload borrows the
/// mapping (PackedWeight::borrows_storage()) instead of owning a copy.
/// Requires a v2 (aligned-layout) artifact: v1 payloads are not
/// alignment-padded, so mapping them is rejected with a message
/// pointing at the stream loader.  Same error contract as
/// load_packed_weight — corrupt or truncated artifacts throw with an
/// offset diagnostic, they never fault.
std::unique_ptr<PackedWeight> load_packed_weight_mapped(MappedArtifact& in);

}  // namespace tilesparse
