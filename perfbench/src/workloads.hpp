// The three benchmark workloads.  Each builds its inputs from the seed,
// runs a fixed number of operations (sized from the requested seconds, so
// the outputs and their digest depend only on seed and length), checks
// every output, and fills a Result with the end-to-end metrics — or, in a
// traced run, with the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace pb {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// serve_edit: SessionHost pool size; 0 derives it from the thread
  /// budget.
  int host_threads = 0;
  /// Traced run: where the recorded spans are written at the end.
  std::string trace_out;
};

Result run_life_batch(const RunConfig& cfg);
Result run_mesh_batch(const RunConfig& cfg);
Result run_serve_edit(const RunConfig& cfg);

/// Records obs.trace_overhead_share from the untraced and traced walls.
void set_trace_overhead(Result& r, double untraced_s, double traced_s);

/// Switches the span recorder on for a traced pass (clearing earlier
/// events) and off again at the end.
void trace_begin();
void trace_end(const RunConfig& cfg, Result& r);

}  // namespace pb
