// Shared pieces of the benchmark binary: clocks and order statistics, the
// output digest, the result record every workload fills, and the span
// self-time rollup of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "schematic/diagram.hpp"
#include "schematic/metrics.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
double ms_since(Clock::time_point t0);

/// Quantile q in [0, 1] of `v`, linearly interpolated between order
/// statistics (the "inclusive" method); 0 for an empty vector.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// 64-bit FNV-1a over everything fed in, in order.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(long long v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// The rule-6 objective summed over a set of diagrams.
struct Quality {
  long long nets = 0;
  long long unrouted = 0;
  long long bends = 0;
  long long crossings = 0;
  long long wire_length = 0;

  void add(const na::DiagramStats& s);
};

/// What one workload run reports.  Metric values keep every digit; units
/// travel with them so the output line is self-describing.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::string digest;
  std::vector<std::string> problems;
  std::vector<std::string> notes;  ///< human-readable context lines

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and records why.
  void fail(std::string why);
  /// Records the quality metrics every workload reports: `q` summed over
  /// `sets` equal sets of diagrams, reported per set.
  void set_quality(const Quality& q, int sets = 1);

  /// One JSON object on one line: correct, attempted, failed, digest,
  /// problems, notes and metrics ({"name": {"value", "unit"}}).
  std::string to_json() const;
};

/// Self time of every span name over a trace: each span's duration minus
/// the part covered by the spans nested directly inside it on the same
/// thread.
struct SpanRollup {
  double self_ms_total = 0;
  std::vector<double> self_ms;  ///< one entry per span
  std::vector<double> dur_ms;   ///< inclusive duration, one entry per span
};
std::map<std::string, SpanRollup> rollup_trace();

/// Machine-speed calibration.  The runners this benchmark meets share
/// their cores with other tenants, and their speed drifts by a quarter
/// over minutes; that drift swamps any bound worth holding a change to.
/// So every wall-time metric is scaled to a reference machine: next to
/// the work it times, a run times a fixed kernel that is independent of
/// the program (Dijkstra over a side x side grid: a binary heap and
/// scattered loads, like the maze router), three times per calibration,
/// on `threads` threads at once for work that keeps that many cores busy.
/// speed_factor() is the reference time (30 ms per 512 x 512 grid) over
/// the median kernel time; multiply a measured duration by it to express
/// it at reference speed.  A program change cannot move the kernel; a
/// slower or busier machine moves both.  A workload whose working set
/// outgrows the caches calibrates on a grid that does too.
///
/// The kernel runs in a child process (this binary with --calibrate), so
/// its grids never count towards the workload's peak_rss_mb.  A
/// single-threaded calibration runs on the CPU the caller is on: a core
/// shares its speed with whatever else runs there, and another core's
/// speed says little about it.
double speed_factor(int threads = 1, int side = 512);

/// The child's side of speed_factor(): median kernel time in ms, pinned
/// to `cpu` unless it is negative.
double calibration_ms(int threads, int side, int cpu);

/// Pins the calling thread to the CPU it is running on.  The batch
/// workloads are single-threaded and pin themselves, so the work and every
/// calibration share one core.
void pin_to_current_cpu();

/// Peak RSS of this process in MB (10^6 bytes): its own VmHWM, not
/// counting the launcher it was exec'd from.
double peak_rss_mb();

}  // namespace pb
