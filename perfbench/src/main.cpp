// na_perfbench — runs one benchmark workload and prints its result record
// as the last line of standard output.
//
//   na_perfbench --workload life_batch|mesh_batch|serve_edit --seed N
//                --seconds S [--trace 0|1] [--trace-out FILE]
//                [--host-threads N]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same work
// twice, untraced then with the span recorder on, and reports the
// per-layer metrics (writing the recorded spans to --trace-out).
//
//   na_perfbench --calibrate THREADS SIDE CPU
//
// is the child process speed_factor() starts: it prints the calibration
// kernel's median time in ms, run on CPU (or anywhere if CPU is -1).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/trace.hpp"
#include "workloads.hpp"

static_assert(NA_TRACE_ENABLED,
              "the traced run needs the src/obs tracing macros compiled in");

namespace pb {

void set_trace_overhead(Result& r, double untraced_s, double traced_s) {
  r.set("obs.trace_overhead_share", (traced_s - untraced_s) / untraced_s, "ratio");
}

void trace_begin() {
  na::obs::trace_reset();
  na::obs::trace_enable();
}

void trace_end(const RunConfig& cfg, Result& r) {
  na::obs::trace_disable();
  if (!cfg.trace_out.empty() && !na::obs::trace_write(cfg.trace_out)) {
    r.fail("cannot write trace to " + cfg.trace_out);
  }
}

}  // namespace pb

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "na_perfbench: %s\nusage: na_perfbench --workload "
               "life_batch|mesh_batch|serve_edit --seed N --seconds S "
               "[--trace 0|1] [--trace-out FILE] [--host-threads N]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 5 && std::string(argv[1]) == "--calibrate") {
    try {
      std::printf("%.17g\n", pb::calibration_ms(std::atoi(argv[2]), std::atoi(argv[3]),
                                                 std::atoi(argv[4])));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "na_perfbench: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  pb::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = std::stoi(v) != 0;
      } else if (a == "--trace-out") {
        cfg.trace_out = v;
      } else if (a == "--host-threads") {
        cfg.host_threads = std::stoi(v);
      } else {
        usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");

  pb::Result r;
  try {
    if (cfg.workload == "life_batch") {
      r = pb::run_life_batch(cfg);
    } else if (cfg.workload == "mesh_batch") {
      r = pb::run_mesh_batch(cfg);
    } else if (cfg.workload == "serve_edit") {
      r = pb::run_serve_edit(cfg);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "na_perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::printf("%s\n", r.to_json().c_str());
  return r.correct ? 0 : 1;
}
