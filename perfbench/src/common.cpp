#include "common.hpp"

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <stdexcept>
#include <thread>

extern char** environ;

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pb {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Digest::add(std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  add(static_cast<long long>(bytes.size()));  // separates adjacent items
}

void Digest::add(long long v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

void Quality::add(const na::DiagramStats& s) {
  nets += s.nets;
  unrouted += s.unrouted;
  bends += s.bends;
  crossings += s.crossings;
  wire_length += s.wire_length;
}

void Result::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Result::fail(std::string why) {
  correct = false;
  problems.push_back(std::move(why));
}

void Result::set_quality(const Quality& q, int sets) {
  const double n = std::max(1, sets);
  set("routed_nets", static_cast<double>(q.nets - q.unrouted) / n, "count");
  set("unrouted_nets", static_cast<double>(q.unrouted) / n, "count");
  set("bends", static_cast<double>(q.bends) / n, "count");
  set("crossings", static_cast<double>(q.crossings) / n, "count");
  set("wire_length", static_cast<double>(q.wire_length) / n, "count");
}

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(v[i]);
  }
  return out + "]";
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"digest\":" + json_string(digest);
  out += ",\"problems\":" + json_strings(problems);
  out += ",\"notes\":" + json_strings(notes);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(metrics[i].name) + ":{\"value\":" +
           json_number(metrics[i].value) + ",\"unit\":" +
           json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

std::map<std::string, SpanRollup> rollup_trace() {
  struct Span {
    const char* name;
    std::uint64_t ts, end;
    std::uint64_t child_ns = 0;
  };
  std::map<int, std::vector<Span>> by_thread;
  for (const na::obs::TraceEventView& e : na::obs::trace_events()) {
    if (e.ph != 'X') continue;
    by_thread[e.tid].push_back({e.name, e.ts, e.ts + e.dur});
  }
  std::map<std::string, SpanRollup> out;
  for (auto& [tid, spans] : by_thread) {
    // Parents sort before the children they contain: earlier start first,
    // and the longer span first on a tie.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.end > b.end;
    });
    std::vector<Span*> open;
    auto close = [&out](const Span& s) {
      SpanRollup& r = out[s.name];
      const double self = static_cast<double>(s.end - s.ts - s.child_ns) / 1e6;
      r.self_ms_total += self;
      r.self_ms.push_back(self);
      r.dur_ms.push_back(static_cast<double>(s.end - s.ts) / 1e6);
    };
    for (Span& s : spans) {
      while (!open.empty() && s.ts >= open.back()->end) {
        close(*open.back());
        open.pop_back();
      }
      if (!open.empty()) open.back()->child_ns += s.end - s.ts;
      open.push_back(&s);
    }
    while (!open.empty()) {
      close(*open.back());
      open.pop_back();
    }
  }
  return out;
}

namespace {

/// One Dijkstra from a corner over the side x side grid `cost`, with
/// `dist` (as large as the grid) as its scratch; returns a checksum so the
/// work cannot be optimised away.
long long calibration_kernel(const std::vector<unsigned char>& cost, int side,
                             std::vector<int>& dist) {
  std::fill(dist.begin(), dist.end(), std::numeric_limits<int>::max());
  using Item = std::pair<int, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[0] = 0;
  heap.push({0, 0});
  long long settled = 0;
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[v]) continue;
    ++settled;
    const int x = v % side;
    const int y = v / side;
    auto relax = [&](int u) {
      const int nd = d + cost[u];
      if (nd < dist[u]) {
        dist[u] = nd;
        heap.push({nd, u});
      }
    };
    if (x > 0) relax(v - 1);
    if (x < side - 1) relax(v + 1);
    if (y > 0) relax(v - side);
    if (y < side - 1) relax(v + side);
  }
  return settled + dist.back();
}

bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

/// Runs `na_perfbench --calibrate threads side cpu` (this very binary) and
/// returns what it prints.
double calibration_ms_in_child(int threads, int side, int cpu) {
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) throw std::runtime_error("calibration: cannot find the benchmark binary");
  exe[len] = '\0';
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("calibration: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::string t = std::to_string(threads), s = std::to_string(side), c = std::to_string(cpu);
  std::string flag = "--calibrate";
  char* argv[] = {exe, flag.data(), t.data(), s.data(), c.data(), nullptr};
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, exe, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error("calibration: cannot start the child process");
  }
  std::string out;
  char buf[256];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const double ms = std::strtod(out.c_str(), nullptr);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !(ms > 0)) {
    throw std::runtime_error("calibration: child process failed");
  }
  return ms;
}

}  // namespace

double calibration_ms(int threads, int side, int cpu) {
  if (cpu >= 0 && !pin_to(cpu)) throw std::runtime_error("calibration: cannot pin to a CPU");
  std::vector<unsigned char> cost(static_cast<size_t>(side) * side);
  std::uint64_t state = 1;
  for (unsigned char& v : cost) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<unsigned char>(1 + (state >> 60));
  }
  // Each thread's scratch is allocated and touched before any timing, so
  // the timed runs pay no page faults.
  std::vector<std::vector<int>> dist(static_cast<size_t>(threads),
                                     std::vector<int>(cost.size(), 0));
  std::vector<double> ms;
  std::atomic<long long> check{0};
  for (int i = 0; i < 3; ++i) {
    std::vector<double> per_thread(static_cast<size_t>(threads));
    auto timed = [&](int t) {
      const auto t0 = Clock::now();
      check += calibration_kernel(cost, side, dist[static_cast<size_t>(t)]);
      per_thread[static_cast<size_t>(t)] = ms_since(t0);
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(timed, t);
    timed(0);
    for (std::thread& th : pool) th.join();
    double sum = 0;
    for (const double v : per_thread) sum += v;
    ms.push_back(sum / threads);
  }
  if (check.load() <= 0) std::abort();  // unreachable; keeps the kernel live
  return median(ms);
}

double speed_factor(int threads, int side) {
  constexpr double kReferenceMsPer512Grid = 30.0;
  const double area = static_cast<double>(side) * side / (512.0 * 512.0);
  const int cpu = threads == 1 ? ::sched_getcpu() : -1;
  return kReferenceMsPer512Grid * area / calibration_ms_in_child(threads, side, cpu);
}

void pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0 || !pin_to(cpu)) throw std::runtime_error("cannot pin to a CPU");
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process's own address space.
  // getrusage()'s ru_maxrss, which obs::peak_rss_bytes() reads, also keeps
  // the high-water mark of the process that exec'd this one (run.py's
  // Python interpreter, larger than LIFE's whole peak), so it is only the
  // fallback.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kb = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb > 0) return static_cast<double>(kb) * 1024.0 / 1e6;
  }
  return static_cast<double>(na::obs::peak_rss_bytes()) / 1e6;
}

}  // namespace pb
