#include "load.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#include "util/rng.hpp"

namespace perfbench {

using namespace tilesparse;
using Ms = std::chrono::duration<double, std::milli>;

namespace {

double ms_of(Clock::duration d) { return Ms(d).count(); }

void fill_from_response(RequestRecord& record, const serve::Response& response,
                        const MatrixF& ref) {
  record.status = response.status;
  record.queue_wait_ms = ms_of(response.queue_wait);
  record.service_ms = ms_of(response.service_time);
  record.batched = response.batched;
  record.batch_rows = response.batch_rows;
  record.correct = record.ok() && bit_equal(response.result, ref);
}

}  // namespace

void run_load(LoadResult& load, serve::ServingRuntime& runtime,
              const std::string& entry, const WorkloadSpec& spec,
              const std::vector<MatrixF>& inputs,
              const std::vector<MatrixF>& refs, double seconds,
              std::uint64_t seed, std::uint64_t stream) {
  const std::uint64_t phase_seed = seed * 0x2545f4914f6cdd1dull + stream;
  load.records.clear();
  std::mutex records_mutex;
  std::vector<Clock::time_point> last_done(spec.clients);
  std::vector<std::exception_ptr> errors(spec.clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  clients.reserve(spec.clients);
  for (std::size_t c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Rng rng(phase_seed + 0x1000 * (c + 1));
        Clock::time_point previous = start;
        do {
          const std::size_t index = rng.below(inputs.size());
          // Closed-loop callers wait for their replies: interactive, with
          // the latency budget checked client-side.
          serve::Request request;
          request.entry = entry;
          request.input = inputs[index];
          request.priority = serve::Priority::kInteractive;
          RequestRecord record;
          record.interactive = true;
          record.sent = Clock::now();
          record.turnaround_ms = ms_of(record.sent - previous);
          const serve::RequestHandle handle = runtime.submit(std::move(request));
          record.admitted = Clock::now();
          const serve::Response& response = handle->wait();
          record.done = Clock::now();
          previous = record.done;
          fill_from_response(record, response, refs[index]);
          const std::lock_guard<std::mutex> lock(records_mutex);
          load.records.push_back(record);
        } while (Clock::now() < end);
        last_done[c] = previous;
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);

  std::sort(load.records.begin(), load.records.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.sent < b.sent;
            });
  load.elapsed_s = std::chrono::duration<double>(
                       *std::max_element(last_done.begin(), last_done.end()) -
                       start)
                       .count();
}

void trace_requests(Trace& trace, const LoadResult& load,
                    std::uint64_t first_id) {
  std::uint64_t id = first_id;
  for (const RequestRecord& record : load.records) {
    const std::uint64_t parent =
        trace.record("request", "serve", record.sent, record.done, 0, id,
                     static_cast<long>(record.batch_rows));
    const auto queued = std::chrono::duration_cast<Clock::duration>(
        Ms(record.queue_wait_ms));
    const auto service = std::chrono::duration_cast<Clock::duration>(
        Ms(record.service_ms));
    trace.record("serve.queue_wait", "serve", record.sent,
                 record.sent + queued, parent, id);
    trace.record("serve.service", "serve", record.sent + queued,
                 record.sent + queued + service, parent, id);
    ++id;
  }
}

}  // namespace perfbench
