#include "exec/backend_registry.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <map>
#include <stdexcept>

#include "exec/csr_weight.hpp"
#include "exec/dense_weight.hpp"
#include "exec/quant_tw_weight.hpp"
#include "exec/tew_weight.hpp"
#include "exec/tw_weight.hpp"
#include "io/mmap_file.hpp"
#include "io/wire.hpp"
#include "prune/importance.hpp"

namespace tilesparse {
namespace {

const TilePattern& require_pattern(const char* format,
                                   const PackOptions& options) {
  if (!options.pattern) {
    throw std::invalid_argument(std::string(format) +
                                " packing requires PackOptions.pattern");
  }
  return *options.pattern;
}

std::map<std::string, BackendFactory>& registry() {
  static std::map<std::string, BackendFactory> backends = {
      {"dense",
       [](const MatrixF& w, const PackOptions&) -> std::unique_ptr<PackedWeight> {
         return std::make_unique<DenseWeight>(w);
       }},
      {"tw",
       [](const MatrixF& w,
          const PackOptions& o) -> std::unique_ptr<PackedWeight> {
         return std::make_unique<TwWeight>(w, require_pattern("tw", o));
       }},
      {"tew",
       [](const MatrixF& w,
          const PackOptions& o) -> std::unique_ptr<PackedWeight> {
         const TilePattern& pattern = require_pattern("tew", o);
         if (o.scores) {
           return std::make_unique<TewWeight>(w, pattern, *o.scores,
                                              o.tew_delta);
         }
         const MatrixF scores = magnitude_scores(w);
         return std::make_unique<TewWeight>(w, pattern, scores, o.tew_delta);
       }},
      {"csr",
       [](const MatrixF& w,
          const PackOptions& o) -> std::unique_ptr<PackedWeight> {
         return std::make_unique<CsrWeight>(w, o.csr_tol);
       }},
      {"tw-int8",
       [](const MatrixF& w,
          const PackOptions& o) -> std::unique_ptr<PackedWeight> {
         return std::make_unique<QuantTwWeight>(w, require_pattern("tw-int8", o));
       }},
  };
  return backends;
}

}  // namespace

void register_backend(const std::string& format, BackendFactory factory) {
  registry()[format] = std::move(factory);
}

std::vector<std::string> registered_formats() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;  // std::map iterates sorted
}

bool backend_registered(const std::string& format) {
  return registry().count(format) != 0;
}

std::unique_ptr<PackedWeight> make_packed(const std::string& format,
                                          const MatrixF& weights,
                                          const PackOptions& options) {
  const auto it = registry().find(format);
  if (it == registry().end()) {
    std::string known;
    for (const auto& name : registered_formats())
      known += (known.empty() ? "" : ", ") + name;
    throw std::out_of_range("make_packed: unknown weight format '" + format +
                            "' (registered: " + known + ")");
  }
  return it->second(weights, options);
}

namespace {

/// Shared post-load validation for both load paths.
void check_loaded_weight(const PackedWeight* weight, const std::string& format,
                         std::uint64_t k, std::uint64_t n) {
  if (!weight || weight->k() != k || weight->n() != n ||
      weight->format() != format)
    throw std::runtime_error("load_packed_weight: loader for '" + format +
                             "' produced an object disagreeing with the "
                             "artifact header");
}

// Every on-wire index is int32, so no legitimate artifact can name a
// larger dimension — reject before any k- or n-sized allocation.
constexpr std::uint64_t kMaxDim = std::numeric_limits<std::int32_t>::max();

// The formats an artifact may name — the built-ins, each of which both
// the stream and the mapped loader below dispatch on (sorted, as the
// unknown-format errors list them).
constexpr const char* kLoadableFormats = "csr, dense, tew, tw, tw-int8";

}  // namespace

std::unique_ptr<PackedWeight> load_packed_weight(std::istream& in) {
  if (wire::read_pod<std::uint32_t>(in) != wire::kMagicPackedWeight)
    throw std::runtime_error(
        "load_packed_weight: not a packed-weight artifact (bad magic)");
  const auto version = wire::read_pod<std::uint32_t>(in);
  if (version != wire::kContainerVersionV1 &&
      version != wire::kContainerVersionV2)
    throw std::runtime_error(
        "load_packed_weight: unsupported artifact version");
  const wire::Layout layout{version};
  const std::string format = wire::read_string(in);
  const auto k = wire::read_pod<std::uint64_t>(in);
  const auto n = wire::read_pod<std::uint64_t>(in);
  if (k > kMaxDim || n > kMaxDim)
    throw std::runtime_error(
        "load_packed_weight: corrupt artifact dimensions");

  // tw/tew/csr payloads are self-describing (nested TSTL/TSTP/TSCR/TSCC
  // headers carry the wire version); the headerless dense and tw-int8
  // payloads need the container layout threaded through.
  const auto rows = static_cast<std::size_t>(k);
  const auto cols = static_cast<std::size_t>(n);
  std::unique_ptr<PackedWeight> weight;
  if (format == "dense") {
    weight = DenseWeight::load(in, rows, cols, layout);
  } else if (format == "tw") {
    weight = TwWeight::load(in, rows, cols);
  } else if (format == "tew") {
    weight = TewWeight::load(in, rows, cols);
  } else if (format == "csr") {
    weight = CsrWeight::load(in, rows, cols);
  } else if (format == "tw-int8") {
    weight = QuantTwWeight::load(in, rows, cols, layout);
  } else {
    throw std::runtime_error("load_packed_weight: unknown weight format '" +
                             format + "' in artifact (loadable: " +
                             kLoadableFormats + ")");
  }
  check_loaded_weight(weight.get(), format, k, n);
  return weight;
}

std::unique_ptr<PackedWeight> load_packed_weight_mapped(MappedArtifact& in) {
  if (in.pod<std::uint32_t>() != wire::kMagicPackedWeight)
    throw std::runtime_error(
        "load_packed_weight: not a packed-weight artifact (bad magic)");
  const auto version = in.pod<std::uint32_t>();
  if (version == wire::kContainerVersionV1)
    throw std::runtime_error(
        "load_packed_weight: v1 artifacts are not alignment-padded and "
        "cannot be mapped zero-copy — use the stream loader "
        "(load_packed_weight), or re-save to upgrade to v2");
  if (version != wire::kContainerVersionV2)
    throw std::runtime_error(
        "load_packed_weight: unsupported artifact version");
  const std::string format = in.string();
  const auto k = in.pod<std::uint64_t>();
  const auto n = in.pod<std::uint64_t>();
  if (k > kMaxDim || n > kMaxDim)
    throw std::runtime_error(
        "load_packed_weight: corrupt artifact dimensions");

  const auto rows = static_cast<std::size_t>(k);
  const auto cols = static_cast<std::size_t>(n);
  std::unique_ptr<PackedWeight> weight;
  if (format == "dense") {
    weight = DenseWeight::load_view(in, rows, cols);
  } else if (format == "tw") {
    weight = TwWeight::load_view(in, rows, cols);
  } else if (format == "tew") {
    weight = TewWeight::load_view(in, rows, cols);
  } else if (format == "csr") {
    weight = CsrWeight::load_view(in, rows, cols);
  } else if (format == "tw-int8") {
    weight = QuantTwWeight::load_view(in, rows, cols);
  } else {
    throw std::runtime_error("load_packed_weight: unknown weight format '" +
                             format + "' in artifact (loadable: " +
                             kLoadableFormats + ")");
  }
  check_loaded_weight(weight.get(), format, k, n);
  return weight;
}

}  // namespace tilesparse
