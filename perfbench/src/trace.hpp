#pragma once
// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into
// the library's public functions; nothing inside the library is
// instrumented.  Each span has a name, a category (the layer), start
// and end, a parent, and — for the spans of one request — a shared
// request id.  write_chrome() exports Chrome trace-event JSON: request
// spans become nestable async events keyed by the request id, every
// other span a complete ("X") event on the thread that recorded it.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string cat;
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint64_t id = 0;       ///< unique per span, 1-based
  std::uint64_t parent = 0;   ///< id of the enclosing span; 0 = root
  std::uint64_t request = 0;  ///< shared by the spans of one request
  std::uint32_t tid = 0;      ///< recording thread (small integer)
  long rows = -1;             ///< rows argument; < 0 = none

  double ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

class Trace {
 public:
  Trace() : origin_(Clock::now()) {}

  /// Records one finished span and returns its id.  Thread-safe.
  std::uint64_t record(std::string name, std::string cat,
                       Clock::time_point start, Clock::time_point end,
                       std::uint64_t parent = 0, std::uint64_t request = 0,
                       long rows = -1);

  /// Copy of every span with category `cat` (all when empty).
  std::vector<Span> spans(const std::string& cat = {}) const;

  /// Writes Chrome trace-event JSON; `metadata` entries are string
  /// key/values stored under the top-level "metadata" object.  Returns
  /// false when the file cannot be written.
  bool write_chrome(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  std::uint32_t thread_index();  // requires mutex_

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

}  // namespace perfbench
