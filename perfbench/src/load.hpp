#pragma once
// Closed-loop load generation against a ServingRuntime.
//
// Each client thread keeps one request outstanding: it waits for the
// terminal status and submits the next at once, so a slower system
// receives less load.  Every OK response is compared bit for bit against
// the solo reference of its input; the records keep what the metrics
// need.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/serving_runtime.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

struct RequestRecord {
  tilesparse::serve::RequestStatus status =
      tilesparse::serve::RequestStatus::kPending;
  bool interactive = false;
  bool correct = false;  ///< OK and bit-equal to the input's reference
  bool batched = false;
  std::size_t batch_rows = 0;
  Clock::time_point sent{};      ///< just before submit()
  Clock::time_point admitted{};  ///< submit() returned (admission is inside)
  Clock::time_point done{};      ///< terminal status observed
  double queue_wait_ms = 0.0;
  double service_ms = 0.0;
  /// The client's turnaround: from its previous response to this submit.
  double turnaround_ms = 0.0;

  double latency_ms() const {
    return std::chrono::duration<double, std::milli>(done - sent).count();
  }
  bool ok() const { return status == tilesparse::serve::RequestStatus::kOk; }
};

struct LoadResult {
  std::vector<RequestRecord> records;  ///< by send time
  double elapsed_s = 0.0;  ///< start of load to the last terminal status

  /// Allocates room for `count` records and writes it once, so that
  /// recording up to that many later does not grow the resident set.
  void reserve(std::size_t count) {
    records.assign(count, RequestRecord{});
    records.clear();
  }
};

/// Runs the workload's load for `seconds` against `runtime`'s entry
/// `entry`, replacing `load`'s records (their storage is reused).
/// `stream` separates the draws of the warm-up and measured phases of
/// one run.
void run_load(LoadResult& load, tilesparse::serve::ServingRuntime& runtime,
              const std::string& entry, const WorkloadSpec& spec,
              const std::vector<MatrixF>& inputs,
              const std::vector<MatrixF>& refs, double seconds,
              std::uint64_t seed, std::uint64_t stream);

/// Records one request span per record, with serve.queue_wait and
/// serve.service children, all sharing the request's id.  `first_id`
/// numbers the requests.
void trace_requests(Trace& trace, const LoadResult& load,
                    std::uint64_t first_id);

}  // namespace perfbench
