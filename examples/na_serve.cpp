// na_serve — the schematic-as-a-service daemon (DESIGN §10).
//
// Serves line-delimited JSON over TCP: many named RegenSessions, edits
// dispatched onto one work-stealing pool, per-session ordering, graceful
// SIGINT/SIGTERM shutdown that saves dirty sessions and flushes traces.
//
//   na_serve --port 0 --threads 4 --state-dir /tmp/na-state
//            --trace serve.trace.json --stats json     (one command line)
//
// With --port 0 the kernel picks the port; --port-file writes the bound
// port so scripts (examples/serve_demo.sh) can find it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/diag.hpp"
#include "obs/obs_options.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --port N          TCP port to listen on (0 = ephemeral; default 0)\n"
      "  --port-file PATH  write the bound port to PATH (for scripts)\n"
      "  --threads N       edit-dispatch pool workers (default 4)\n"
      "  --io-threads N    event-loop I/O threads of the connection plane\n"
      "                    (default 2)\n"
      "  --router-threads N  router workers inside one edit (default 1)\n"
      "  --state-dir PATH  session save/restore directory (default: off)\n"
      "  --max-line N      request line cap in bytes (default 1 MiB)\n"
      "  --max-in-flight N pipelined-request cap per connection "
      "(default 128)\n"
      "  --flush-events N  stream-flush the trace above N buffered events\n"
      "                    (default 4096)\n"
      "  --trace PATH      stream a Chrome trace to PATH while serving\n"
      "                    (mutually exclusive with --flight-recorder)\n"
      "  --flight-recorder N  keep tracing always on in bounded memory:\n"
      "                    every thread retains its last N trace events in\n"
      "                    a ring; SIGUSR1 dumps them (see --flight-dump)\n"
      "  --flight-dump PATH  where a SIGUSR1 dump lands (default\n"
      "                    na_flight.json)\n"
      "  --slow-ms T       tail sampling: append the span subtree of any\n"
      "                    op batch slower than T ms to the slow log\n"
      "                    (requires --flight-recorder and --slow-log)\n"
      "  --slow-log PATH   slow-request log file (line JSON)\n"
      "  --watchdog-ms N   gauge sampler interval (0 = off; default 1000)\n"
      "  --prom-file PATH  rewrite PATH with the full registry in\n"
      "                    Prometheus text exposition every watchdog tick\n"
      "  --stats text|json|prom|off  emit service counters on exit\n"
      "                    (default off)\n",
      argv0);
}

bool int_arg(const char* value, const char* flag, long lo, long hi, long* out) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || v < lo || v > hi) {
    std::fprintf(stderr, "na_serve: bad value for %s: '%s'\n", flag, value);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace na;

  serve::ServerOptions opt;
  std::string port_file;
  obs::ObsOptions obs_opt;
  long router_threads = 1;
  long flight_events = 0;
  std::string slow_log_path;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "na_serve: %s needs a value\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    }
    long v = 0;
    if (flag == "--port") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--port", 0, 65535, &v)) return 2;
      opt.port = static_cast<int>(v);
    } else if (flag == "--port-file") {
      const char* s = next();
      if (s == nullptr) return 2;
      port_file = s;
    } else if (flag == "--threads") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--threads", 1, 256, &v)) return 2;
      opt.host.threads = static_cast<int>(v);
    } else if (flag == "--io-threads") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--io-threads", 1, 64, &v)) return 2;
      opt.io_threads = static_cast<int>(v);
    } else if (flag == "--router-threads") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--router-threads", 1, 256, &v)) return 2;
      router_threads = v;
    } else if (flag == "--state-dir") {
      const char* s = next();
      if (s == nullptr) return 2;
      opt.host.state_dir = s;
    } else if (flag == "--max-line") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--max-line", 64, 1L << 28, &v)) return 2;
      opt.max_line = static_cast<size_t>(v);
    } else if (flag == "--max-in-flight") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--max-in-flight", 1, 1L << 20, &v)) {
        return 2;
      }
      opt.max_in_flight = static_cast<size_t>(v);
    } else if (flag == "--flush-events") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--flush-events", 0, 1L << 30, &v)) {
        return 2;
      }
      opt.trace_flush_events = static_cast<size_t>(v);
    } else if (flag == "--trace") {
      const char* s = next();
      if (s == nullptr) return 2;
      obs_opt.trace_path = s;
    } else if (flag == "--flight-recorder") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--flight-recorder", 16, 1L << 24, &v)) {
        return 2;
      }
      flight_events = v;
    } else if (flag == "--flight-dump") {
      const char* s = next();
      if (s == nullptr) return 2;
      opt.flight_dump_path = s;
    } else if (flag == "--slow-ms") {
      const char* s = next();
      char* end = nullptr;
      const double ms = s != nullptr ? std::strtod(s, &end) : 0.0;
      if (s == nullptr || end == s || *end != '\0' || ms <= 0.0) {
        std::fprintf(stderr, "na_serve: bad value for --slow-ms: '%s'\n",
                     s != nullptr ? s : "");
        return 2;
      }
      opt.host.slow_ms = ms;
    } else if (flag == "--slow-log") {
      const char* s = next();
      if (s == nullptr) return 2;
      slow_log_path = s;
    } else if (flag == "--watchdog-ms") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--watchdog-ms", 0, 1L << 24, &v)) {
        return 2;
      }
      opt.watchdog_ms = static_cast<int>(v);
    } else if (flag == "--prom-file") {
      const char* s = next();
      if (s == nullptr) return 2;
      opt.prom_file = s;
    } else if (flag == "--stats") {
      const char* s = next();
      if (s == nullptr) return 2;
      try {
        obs_opt.stats = obs::parse_stats_mode(s);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "na_serve: %s\n", e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr, "na_serve: unknown flag '%s'\n", flag.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  opt.host.regen.generator.router.threads = static_cast<int>(router_threads);

  // The two always-on tracing modes are mutually exclusive: a streaming
  // flush drains the very ring the flight recorder exists to retain.
  if (flight_events > 0 && !obs_opt.trace_path.empty()) {
    std::fprintf(stderr,
                 "na_serve: --flight-recorder conflicts with --trace "
                 "(the stream flush would drain the rings)\n");
    return 2;
  }
  // Without the ring bound, keeping the recorder on for tail sampling
  // would grow trace memory without limit; without a log, a slow batch
  // has nowhere to leave its evidence.
  if (opt.host.slow_ms > 0.0 && (flight_events == 0 || slow_log_path.empty())) {
    std::fprintf(stderr,
                 "na_serve: --slow-ms requires --flight-recorder and "
                 "--slow-log\n");
    return 2;
  }

  // Daemon tracing streams: buffered events are flushed at pool-idle
  // points while serving instead of accumulating until exit.
  if (!obs_opt.trace_path.empty()) {
    if (!obs::trace_compiled_in()) {
      std::fprintf(stderr,
                   "na_serve: --trace requested but tracing was compiled out "
                   "(NA_TRACE=OFF); continuing without\n");
    } else {
      obs::trace_enable();
      if (!obs::trace_stream_open(obs_opt.trace_path)) {
        std::fprintf(stderr, "na_serve: cannot open trace file %s\n",
                     obs_opt.trace_path.c_str());
        return 1;
      }
    }
  }

  // Flight-recorder mode: recorder on, every thread buffer bounded.
  if (flight_events > 0) {
    if (!obs::trace_compiled_in()) {
      std::fprintf(stderr,
                   "na_serve: --flight-recorder requested but tracing was "
                   "compiled out (NA_TRACE=OFF); continuing without\n");
    } else {
      obs::trace_flight_enable(static_cast<size_t>(flight_events));
      obs::trace_enable();
      if (!slow_log_path.empty() && !obs::trace_slow_log_open(slow_log_path)) {
        std::fprintf(stderr, "na_serve: cannot open slow log %s\n",
                     slow_log_path.c_str());
        return 1;
      }
    }
  }

  serve::Server server(opt);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "na_serve: %s\n", error.c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "na_serve: cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", server.port());
    std::fclose(f);
  }
  serve::install_signal_handlers(server);
  std::fprintf(stderr,
               "na_serve: listening on %s:%d (threads=%d, io-threads=%d%s%s)\n",
               opt.bind_address.c_str(), server.port(), opt.host.threads,
               opt.io_threads,
               opt.host.state_dir.empty() ? "" : ", state-dir=",
               opt.host.state_dir.c_str());

  server.run();  // blocks until SIGINT/SIGTERM or a shutdown request

  if (obs::trace_stream_active()) obs::trace_stream_close();
  if (obs::trace_slow_log_active()) {
    std::fprintf(stderr, "na_serve: slow log %s holds %llu records\n",
                 slow_log_path.c_str(),
                 static_cast<unsigned long long>(obs::trace_slow_log_records()));
    obs::trace_slow_log_close();
  }
  std::fprintf(stderr, "na_serve: stopped after %lld requests\n",
               server.counters().requests);
  if (obs_opt.stats != obs::ObsOptions::Stats::kOff) {
    // Exit stats are the wire `metrics` registry (histograms, gauges and
    // all) plus the diagnostics counters — one absorption path, so the
    // shutdown report can never drift from what the metrics op served.
    obs::MetricsRegistry reg;
    server.absorb_metrics(reg);
    obs::diag_absorb(reg);
    switch (obs_opt.stats) {
      case obs::ObsOptions::Stats::kJson:
        std::fputs(reg.to_json().c_str(), stdout);
        break;
      case obs::ObsOptions::Stats::kProm:
        std::fputs(reg.to_prometheus().c_str(), stdout);
        break;
      default:
        std::fputs(reg.to_text().c_str(), stdout);
        break;
    }
  }
  return 0;
}
