#include "exec/calibration.hpp"

#include <cstdlib>
#include <fstream>

#include "io/serialize.hpp"

namespace tilesparse {
namespace {

/// First-use auto-load: a host that ran calibrate_planner drops its
/// JSON at the default path (or points TS_PLANNER_CALIBRATION at it)
/// and every process on that host plans with measured constants — no
/// explicit load_planner_calibration call.  Any failure (missing file,
/// corrupt JSON) silently falls back to the paper-derived built-ins:
/// auto-calibration must never turn a working process into a crashing
/// one.
PlannerCalibration initial_calibration() noexcept {
  const char* env = std::getenv("TS_PLANNER_CALIBRATION");
  const std::string path =
      (env && *env) ? env : std::string("planner_calibration.json");
  try {
    std::ifstream in(path);
    if (in) return read_calibration_json(in);
  } catch (...) {
  }
  return PlannerCalibration{};
}

PlannerCalibration& global_calibration() {
  static PlannerCalibration calibration = initial_calibration();
  return calibration;
}

}  // namespace

double PlannerCalibration::mac_penalty(std::string_view format) const noexcept {
  if (format == "csr") return csr_mac_penalty;
  if (format == "tw" || format == "tew") return tw_mac_penalty;
  if (format == "tw-int8") return int8_mac_discount;
  return 1.0;  // dense and unknown custom formats
}

const PlannerCalibration& planner_calibration() noexcept {
  return global_calibration();
}

void set_planner_calibration(const PlannerCalibration& calibration) {
  global_calibration() = calibration;
}

}  // namespace tilesparse
