// perfbench — the serving benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--work-dir DIR] [--trace-out PATH]
//             [--revision REV]
//
// One run: produce the artifact (prune, pack, save), set the serving
// stack up several times (set-up time is the median), compute the solo
// reference of every input, warm up, then measure S seconds of load
// with tracing off.  With --trace 1 the same load runs again with the
// entry wrapped in a timing span, followed by the quiet node pass and
// kernel timings, and the spans are written as Chrome trace JSON.
//
// Output: a "meta" line stamping host, ISA, thread settings, revision
// and build type; one "metric NAME VALUE UNIT" line per measured
// metric; and a final "RESULT {json}" line (correct / attempted /
// failed / metrics) that run.py narrows to the names in
// BENCHMARK.json.  Exit status is non-zero when an output differs from
// its reference, an accounting identity fails, or (with --smoke) a
// self-check fails.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "gemm/micro_kernel.hpp"
#include "load.hpp"
#include "profile.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using tilesparse::serve::ServingRuntime;

/// Node sums must match a quiet BatchEntry::run at the same rows to
/// within this share, or within kReconcileSlackMs — the entry's
/// per-run copy of its input and output, which dominates at the tiny
/// --smoke sizes (checked by --smoke; printed by every traced run).
constexpr double kReconcileTolerance = 0.05;
constexpr double kReconcileSlackMs = 0.01;

/// Request records are allocated up front for this many requests per
/// second (several times the served rate), so that recording them does
/// not grow the resident set during a run.  A system that serves more
/// spills past it.
constexpr double kRecordRateBound = 1000.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".";
  std::string trace_out;
  std::string revision = "unknown";
};

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      options.trace = v == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--revision") {
      options.revision = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds > 0");
  return options;
}

/// OpenMP reads OMP_NUM_THREADS once, at start-up; pin it to the
/// kernel budget by re-executing with it set when it differs.
void pin_openmp_threads(int threads, char** argv) {
  const std::string want = std::to_string(threads);
  const char* have = std::getenv("OMP_NUM_THREADS");
  if (have != nullptr && want == have) return;
  setenv("OMP_NUM_THREADS", want.c_str(), 1);
  execv("/proc/self/exe", argv);
  std::perror("perfbench: re-exec with OMP_NUM_THREADS");
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Returns freed set-up memory to the system and restarts VmHWM from the
/// current RSS (Linux clear_refs "5"), so the peak that follows is the
/// serving phases'.  A kernel without it leaves the peak running.
void restart_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::vector<std::pair<std::string, std::string>> metadata(
    const Options& options, const WorkloadSpec& spec) {
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  int omp_max = 1;
#ifdef _OPENMP
  omp_max = omp_get_max_threads();
#endif
  return {
      {"workload", spec.name},
      {"seed", std::to_string(options.seed)},
      {"seconds", std::to_string(options.seconds)},
      {"smoke", options.smoke ? "1" : "0"},
      {"cpu", cpu_model()},
      {"isa", tilesparse::simd_level_name(tilesparse::active_simd_level())},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"serving_workers", std::to_string(spec.workers)},
      {"streams", std::to_string(spec.streams)},
      {"kernel_threads", std::to_string(spec.kernel_threads)},
      {"OMP_NUM_THREADS", omp_env != nullptr ? omp_env : "unset"},
      {"omp_max_threads", std::to_string(omp_max)},
      {"revision", options.revision},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", __VERSION__},
  };
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    list_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// The runtime's counters, read around a load phase.
struct Counters {
  ServingRuntime::Stats stats;
  tilesparse::serve::RequestBatcher::BatchStats batch;
};

Counters counters(ServingRuntime& runtime) {
  return {runtime.stats(), runtime.batch_stats()};
}

/// What one load phase observed, from its records and the runtime's
/// counter deltas over it.
struct PhaseSummary {
  double ok_rps = 0.0;  ///< over the whole phase (no windows)
  std::vector<double> queue_wait_ms, interactive_queue_wait_ms, service_ms;
  std::vector<double> turnaround_ms;
  std::uint64_t attempted = 0, ok = 0, wrong = 0, batched_ok = 0;
  ServingRuntime::Stats stats;  ///< delta over the phase
  tilesparse::serve::RequestBatcher::BatchStats batch;  ///< delta
  /// Operations that failed: FAILED, REJECTED (refused or evicted) and
  /// OK responses whose output differs from the reference.  Deadline
  /// misses are outcomes, counted in failed_share and the deadline rate.
  std::uint64_t failed() const {
    return stats.failed + stats.rejected_full + stats.rejected_closed +
           stats.evicted + wrong;
  }
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed() + stats.timeout) /
                                static_cast<double>(attempted);
  }
};

ServingRuntime::Stats stats_delta(const ServingRuntime::Stats& a,
                                  const ServingRuntime::Stats& b) {
  ServingRuntime::Stats d;
  d.submitted = b.submitted - a.submitted;
  d.admitted = b.admitted - a.admitted;
  d.ok = b.ok - a.ok;
  d.rejected_full = b.rejected_full - a.rejected_full;
  d.rejected_closed = b.rejected_closed - a.rejected_closed;
  d.evicted = b.evicted - a.evicted;
  d.timeout = b.timeout - a.timeout;
  d.failed = b.failed - a.failed;
  d.retries = b.retries - a.retries;
  d.degraded_ok = b.degraded_ok - a.degraded_ok;
  return d;
}

tilesparse::serve::RequestBatcher::BatchStats batch_delta(
    const tilesparse::serve::RequestBatcher::BatchStats& a,
    const tilesparse::serve::RequestBatcher::BatchStats& b) {
  tilesparse::serve::RequestBatcher::BatchStats d;
  d.batches = b.batches - a.batches;
  d.batched_members = b.batched_members - a.batched_members;
  return d;
}

/// `units` request inputs stacked into one batch-shaped activation.
MatrixF stacked(const std::vector<MatrixF>& inputs, std::size_t units) {
  const MatrixF& first = inputs.front();
  MatrixF batch(units * first.rows(), first.cols());
  for (std::size_t u = 0; u < units; ++u) {
    const MatrixF& unit = inputs[u % inputs.size()];
    std::copy(unit.data(), unit.data() + unit.size(),
              batch.data() + u * unit.size());
  }
  return batch;
}

PhaseSummary summarize(const LoadResult& load, const Counters& before,
                       const Counters& after) {
  PhaseSummary s;
  s.stats = stats_delta(before.stats, after.stats);
  s.batch = batch_delta(before.batch, after.batch);
  for (const RequestRecord& r : load.records) {
    ++s.attempted;
    s.turnaround_ms.push_back(r.turnaround_ms);
    if (!r.ok()) continue;
    if (!r.correct) {
      ++s.wrong;
      continue;
    }
    ++s.ok;
    if (r.batched) ++s.batched_ok;
    s.queue_wait_ms.push_back(r.queue_wait_ms);
    s.service_ms.push_back(r.service_ms);
    if (r.interactive) s.interactive_queue_wait_ms.push_back(r.queue_wait_ms);
  }
  s.ok_rps = static_cast<double>(s.ok) / load.elapsed_s;
  return s;
}

/// End-to-end figures of one load phase, each the median over
/// `windows` equal time windows (by send time) of the figure within the
/// window: a host stall that hits one window does not move the result.
struct EndToEnd {
  double ok_rps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double interactive_p95_ms = 0.0;
  double interactive_deadline_met = 0.0;
};

EndToEnd end_to_end(const LoadResult& load, const WorkloadSpec& spec,
                    double seconds, std::size_t windows) {
  struct Window {
    std::vector<double> latency, interactive_latency;
    double ok = 0.0, interactive = 0.0, interactive_met = 0.0;
  };
  if (load.records.empty()) return {};
  std::vector<Window> w(windows);
  const Clock::time_point start = load.records.front().sent;
  const double width = seconds / static_cast<double>(windows);
  for (const RequestRecord& r : load.records) {
    const double at = std::chrono::duration<double>(r.sent - start).count();
    Window& win = w[std::min(windows - 1, static_cast<std::size_t>(at / width))];
    if (r.interactive) ++win.interactive;
    if (!r.correct) continue;
    win.ok += 1.0;
    win.latency.push_back(r.latency_ms());
    if (r.interactive) {
      win.interactive_latency.push_back(r.latency_ms());
      if (r.latency_ms() <= spec.interactive_deadline_ms) ++win.interactive_met;
    }
  }
  std::vector<double> ok_rps, p50, p99, ip95, met;
  for (const Window& win : w) {
    ok_rps.push_back(win.ok / width);
    p50.push_back(percentile(win.latency, 0.50));
    p99.push_back(percentile(win.latency, 0.99));
    ip95.push_back(percentile(win.interactive_latency, 0.95));
    met.push_back(win.interactive > 0.0 ? win.interactive_met / win.interactive
                                        : 0.0);
  }
  return {median(ok_rps), median(p50), median(p99), median(ip95), median(met)};
}

/// Checks every OK request against the traced entry runs: its service
/// interval must contain a run of its batch's row count no longer than
/// its service time, and its client-observed latency must cover queue
/// wait + service.  Admission happens inside submit(), so the interval
/// is bounded by the client's timestamps on either side of that call.
/// Returns the number of requests that fail either check.
std::size_t check_intervals(const LoadResult& load, std::vector<Span> runs,
                            std::size_t unit_rows) {
  std::sort(runs.begin(), runs.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  const auto to_duration = [](double ms_value) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms_value));
  };
  std::size_t violations = 0;
  for (const RequestRecord& r : load.records) {
    if (!r.ok()) continue;
    const Clock::time_point earliest = r.sent + to_duration(r.queue_wait_ms);
    const Clock::time_point latest =
        r.admitted + to_duration(r.queue_wait_ms + r.service_ms);
    const long rows = static_cast<long>(r.batched ? r.batch_rows : unit_rows);
    auto it = std::lower_bound(
        runs.begin(), runs.end(), earliest,
        [](const Span& s, Clock::time_point t) { return s.start < t; });
    bool contained = false;
    for (; it != runs.end() && it->start <= latest; ++it) {
      if (it->rows == rows && it->end <= latest && r.service_ms >= it->ms()) {
        contained = true;
        break;
      }
    }
    const bool covers = r.latency_ms() >= r.queue_wait_ms + r.service_ms;
    if (!contained || !covers) ++violations;
  }
  return violations;
}

int run(const Options& options, char** argv) {
  const WorkloadSpec spec = workload_spec(options.workload, options.smoke);
  pin_openmp_threads(spec.kernel_threads, argv);

  Trace trace;
  const auto meta = metadata(options, spec);
  std::printf("meta {");
  for (std::size_t i = 0; i < meta.size(); ++i)
    std::printf("%s\"%s\": \"%s\"", i == 0 ? "" : ", ", meta[i].first.c_str(),
                meta[i].second.c_str());
  std::printf("}\n");

  // ------------------------------------------------ artifact + inputs
  std::unique_ptr<tilesparse::BertMini> model = make_model(spec);
  const Artifact artifact =
      produce_artifact(spec, model.get(),
                       options.work_dir + "/" + spec.name + ".tsmw", trace);
  const std::vector<MatrixF> inputs = make_inputs(spec, model.get(), options.seed);

  // ------------------------------------------------ set-up, repeated
  std::vector<double> setup_s, load_mapped_ms;
  std::unique_ptr<Deployment> deployment;
  for (std::size_t i = 0; i < spec.setup_repeats; ++i) {
    deployment.reset();
    const auto t0 = Clock::now();
    deployment = std::make_unique<Deployment>(spec, artifact, model.get(),
                                              inputs.front(), trace);
    const auto t1 = Clock::now();
    trace.record("setup", "serve", t0, t1);
    setup_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    load_mapped_ms.push_back(deployment->load_mapped_ms());
  }
  ServingRuntime& runtime = deployment->runtime();
  const std::string entry = deployment->entry()->name();
  const std::vector<MatrixF> refs = references(*deployment->entry(), inputs);

  // A traced run splits its time between an untraced and a traced
  // phase over the same draws.
  const double measure_s = options.trace ? options.seconds / 2 : options.seconds;
  LoadResult plain, traced;
  // The warm-up and the untraced phase record into the same storage,
  // written before the peak restarts, so the peak is the system's.
  plain.reserve(static_cast<std::size_t>(
      kRecordRateBound * std::max(spec.warmup_s, measure_s)));

  restart_peak_rss();

  // Fill the entry's graph cache at every batch size the workload can
  // form, largest last, so which sizes a run happens to form does not
  // decide what is cached (or the peak memory).
  {
    const std::size_t unit_rows = deployment->entry()->group_rows_in();
    const std::size_t max_units = std::min(
        runtime.options().batch.max_batch_m / unit_rows, spec.clients);
    tilesparse::SchedulerOptions serial;
    serial.streams = 1;
    tilesparse::ExecScheduler scheduler(serial);
    for (std::size_t units = 1; units <= max_units; ++units)
      (void)deployment->entry()->run(scheduler, stacked(inputs, units));
  }

  // ------------------------------------------------ load phases
  run_load(plain, runtime, entry, spec, inputs, refs, spec.warmup_s,
           options.seed, 1);
  std::size_t wrong = 0;
  for (const RequestRecord& r : plain.records) wrong += r.ok() && !r.correct;

  const Counters before_plain = counters(runtime);
  run_load(plain, runtime, entry, spec, inputs, refs, measure_s, options.seed,
           2);
  // Peak memory of the warm-up and the untraced phase, with every
  // batch size cached.
  const double rss_mb = peak_rss_mb();
  const PhaseSummary p = summarize(plain, before_plain, counters(runtime));
  PhaseSummary t;
  if (options.trace) {
    deployment->wrap_entry(trace);
    const Counters before_traced = counters(runtime);
    run_load(traced, runtime, entry, spec, inputs, refs, measure_s,
             options.seed, 2);
    t = summarize(traced, before_traced, counters(runtime));
    deployment->unwrap_entry();
    trace_requests(trace, traced, 1);
  }

  runtime.shutdown(ServingRuntime::Shutdown::kDrain);
  bool conserved = runtime.stats().conserved();
  for (const auto& [tenant, stats] : runtime.tenant_stats())
    conserved = conserved && stats.conserved();

  // ------------------------------------------------ end-to-end metrics
  Metrics m;
  m.add("setup_s", median(setup_s), "s");
  const EndToEnd e = end_to_end(plain, spec, measure_s, spec.windows);
  m.add("ok_rps", e.ok_rps, "req/s");
  m.add("latency_p50_ms", e.latency_p50_ms, "ms");
  m.add("latency_p99_ms", e.latency_p99_ms, "ms");
  m.add("interactive_p95_ms", e.interactive_p95_ms, "ms");
  m.add("interactive_deadline_met", e.interactive_deadline_met, "ratio");
  m.add("peak_rss_mb", rss_mb, "MiB");
  m.add("failed_share", p.failed_share(), "ratio");
  m.add("loadgen.late_p99_ms", percentile(p.turnaround_ms, 0.99), "ms");
  m.add("samples.ok", static_cast<double>(p.ok), "count");

  bool checks_ok = true;
  if (options.trace) {
    const std::size_t unit_rows = deployment->entry()->group_rows_in();
    std::vector<Span> entry_runs = trace.spans("exec");
    std::erase_if(entry_runs,
                  [](const Span& span) { return span.name != "exec.entry_run"; });
    std::vector<double> run_ms, run_rows;
    std::map<std::size_t, std::vector<double>> run_ms_by_rows;
    for (const Span& span : entry_runs) {
      run_ms.push_back(span.ms());
      run_rows.push_back(static_cast<double>(span.rows));
      run_ms_by_rows[static_cast<std::size_t>(span.rows)].push_back(span.ms());
    }

    // serve
    m.add("serve.queue_wait_p50_ms", percentile(t.queue_wait_ms, 0.50), "ms");
    m.add("serve.queue_wait_p99_ms", percentile(t.queue_wait_ms, 0.99), "ms");
    m.add("serve.interactive_queue_wait_p95_ms",
          percentile(t.interactive_queue_wait_ms, 0.95), "ms");
    const double service_p50 = percentile(t.service_ms, 0.50);
    m.add("serve.service_p50_ms", service_p50, "ms");
    m.add("serve.submitted", static_cast<double>(t.stats.submitted), "count");
    m.add("serve.rejected",
          static_cast<double>(t.stats.rejected_full + t.stats.rejected_closed +
                              t.stats.evicted),
          "count");
    m.add("serve.timeout", static_cast<double>(t.stats.timeout), "count");
    m.add("serve.failed", static_cast<double>(t.stats.failed), "count");
    m.add("serve.retries", static_cast<double>(t.stats.retries), "count");

    // batch
    const double rows_per_batch =
        t.batch.batches == 0 ? 0.0
                             : static_cast<double>(t.batch.batched_members) /
                                   static_cast<double>(t.batch.batches);
    m.add("batch.rows_per_batch", rows_per_batch, "requests");
    m.add("batch.batched_share",
          t.ok == 0 ? 0.0
                    : static_cast<double>(t.batched_ok) /
                          static_cast<double>(t.ok),
          "ratio");
    const double entry_p50 = percentile(run_ms, 0.50);
    m.add("batch.handoff_p50_ms", service_p50 - entry_p50, "ms");

    // node pass at every row count the batcher formed, weighted by how
    // often it formed it
    const std::size_t reps = options.smoke ? 100 : 24;
    std::map<std::size_t, NodeProfile> profiles;
    for (const auto& [rows, samples] : run_ms_by_rows)
      profiles[rows] = profile_nodes(
          *deployment, stacked(inputs, rows / unit_rows), reps, trace);
    double units = 0.0, entry_run = 0.0, nodes = 0.0, gemm = 0.0, host = 0.0;
    std::map<std::string, double> op_ms;
    std::size_t batch_m = unit_rows, batch_m_count = 0;
    for (const auto& [rows, samples] : run_ms_by_rows) {
      const auto count = static_cast<double>(samples.size());
      const NodeProfile& profile = profiles.at(rows);
      units += count * static_cast<double>(rows / unit_rows);
      entry_run += count * profile.entry_run_ms;
      nodes += count * profile.node_sum_ms;
      gemm += count * profile.gemm_ms;
      host += count * profile.host_ms;
      for (const auto& [op, op_time] : profile.op_ms) op_ms[op] += count * op_time;
      if (samples.size() > batch_m_count) {
        batch_m = rows;
        batch_m_count = samples.size();
      }
      const double gap =
          std::fabs(profile.entry_run_ms - profile.node_sum_ms) /
          profile.entry_run_ms;
      std::printf("check reconcile rows=%zu node_sum_ms=%.4f entry_run_ms=%.4f "
                  "served_run_p50_ms=%.4f gap=%.4f runs=%zu\n",
                  rows, profile.node_sum_ms, profile.entry_run_ms,
                  median(samples), gap, samples.size());
    }
    // The self-check holds the row count the batcher formed most often
    // to the tolerance; rarely formed ones only carry a few samples.
    if (profiles.empty()) {
      checks_ok = false;
    } else {
      const NodeProfile& formed = profiles.at(batch_m);
      if (std::fabs(formed.entry_run_ms - formed.node_sum_ms) >
          std::max(kReconcileTolerance * formed.entry_run_ms,
                   kReconcileSlackMs))
        checks_ok = false;
    }

    // exec
    m.add("exec.entry_run_p50_ms", entry_p50, "ms");
    m.add("exec.entry_rows_mean", mean(run_rows), "rows");
    // Against the quiet entry runs alternated with the node pass: the
    // served runs happened earlier, and host speed drifts between phases.
    m.add("exec.sched_overhead_share",
          entry_run > 0.0 ? (entry_run - nodes) / entry_run : 0.0, "ratio");
    m.add("exec.graph_build_ms",
          graph_build_ms(*deployment, unit_rows, options.smoke ? 3 : 9, trace),
          "ms");

    // nn: per sequence (per request unit), at the formed row counts
    const auto per_unit = [&](const std::string& op) {
      return units > 0.0 ? op_ms[op] / units : 0.0;
    };
    m.add("nn.gelu_ms", per_unit("gelu"), "ms");
    m.add("nn.attn_core_ms", per_unit("attn_core"), "ms");
    m.add("nn.layernorm_ms", per_unit("layernorm"), "ms");
    m.add("nn.residual_ms", per_unit("residual"), "ms");
    m.add("nn.pool_ms", per_unit("pool"), "ms");
    m.add("nn.classifier_ms", per_unit("classifier"), "ms");
    m.add("nn.host_share", nodes > 0.0 ? host / nodes : 0.0, "ratio");

    // gemm
    m.add("gemm.node_ms", per_unit("gemm"), "ms");
    m.add("gemm.share", nodes > 0.0 ? gemm / nodes : 0.0, "ratio");
    const KernelProfile kernels =
        profile_kernels(spec, artifact, batch_m, trace);
    m.add("gemm.tw_gflops", kernels.tw_gflops, "GFLOP/s");
    m.add("gemm.dense_gflops", kernels.dense_gflops, "GFLOP/s");
    m.add("gemm.tw_vs_dense", kernels.tw_vs_dense, "x");
    m.add("gemm.macs_per_req", deployment->entry()->macs(unit_rows), "MAC");
    const double units_per_run =
        run_rows.empty() ? 1.0 : mean(run_rows) / static_cast<double>(unit_rows);
    m.add("gemm.bytes_per_req",
          static_cast<double>(deployment->entry()->weight_bytes()) /
              units_per_run,
          "B-computed");

    // quant
    m.add("quant.int8_m1_us", kernels.int8_m1_us, "us");
    m.add("quant.int8_mbatch_us", kernels.int8_mbatch_us, "us");

    // io, prune
    m.add("io.load_mapped_ms", median(load_mapped_ms), "ms");
    m.add("io.save_ms", artifact.save_ms, "ms");
    m.add("io.artifact_bytes", static_cast<double>(artifact.bytes), "bytes");
    m.add("prune.pattern_ms", artifact.prune_ms, "ms");
    m.add("prune.pack_ms", artifact.pack_ms, "ms");
    m.add("prune.kept_mac_share", artifact.kept_mac_share, "ratio");

    // validity
    m.add("trace.overhead_share", p.ok_rps > 0.0 ? 1.0 - t.ok_rps / p.ok_rps : 0.0,
          "ratio");

    const std::size_t violations =
        check_intervals(traced, entry_runs, unit_rows);
    std::printf("check intervals violations=%zu of %zu\n", violations,
                traced.records.size());
    if (violations != 0) checks_ok = false;

    if (!options.trace_out.empty()) {
      if (trace.write_chrome(options.trace_out, meta))
        std::printf("trace %s\n", options.trace_out.c_str());
      else
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     options.trace_out.c_str());
    }
  }

  // ------------------------------------------------ verdict + output
  wrong += p.wrong + t.wrong;
  const bool correct = wrong == 0 && conserved && (checks_ok || !options.smoke);
  for (const Metric& metric : m.list())
    std::printf("metric %s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  std::printf("check wrong_outputs=%zu conserved=%d self_checks=%d\n", wrong,
              conserved ? 1 : 0, checks_ok ? 1 : 0);

  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(p.attempted + t.attempted),
              static_cast<unsigned long long>(p.failed() + t.failed()));
  for (std::size_t i = 0; i < m.list().size(); ++i) {
    const Metric& metric = m.list()[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv), argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
