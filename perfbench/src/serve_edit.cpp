// serve_edit: an in-process na_serve Server on loopback, driven by one
// load-generator thread over a few connections in a closed loop.
//
// Eight sessions (datapath:16 and chain, alternating) are opened during
// set-up and dealt to the connections.  Before every timed chunk (see
// kChunks) the server is stopped and set up afresh, sessions included;
// every such set-up is timed, and setup_s is their median.  Each
// connection has exactly one step in flight: a seeded burst of pipelined
// edits to one of its sessions followed by a `get` (escher) that flushes
// them; when the get answers, the connection moves on to its next session.  Every session alternates two
// phases so its netlist is stationary: phase A applies a change (a probe
// module with a terminal on an existing net, or a few terminal moves),
// phase B undoes it.  A cycle is A then B, after which the session's
// netlist equals the design it was opened with.
//
// Every response is digested per session, in request order; a session's
// response sequence depends only on its own requests, so the digest is
// independent of timing, connection count and server thread count.
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "incremental/session.hpp"
#include "schematic/escher_reader.hpp"
#include "schematic/escher_writer.hpp"
#include "schematic/validate.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace na;

constexpr int kSessions = 8;
constexpr int kMaxConnections = 4;
constexpr int kWarmupCycles = 3;
/// The timed phase runs in this many chunks.  Each chunk starts from a
/// fresh server with freshly opened sessions and a few untimed warm-up
/// cycles, and takes its own speed calibration; throughput is the median
/// over chunks.  Fresh sessions matter: over hundreds of stationary cycles a session's diagram keeps
/// drifting (a datapath:16 escher file grew from 75 KB to 108 KB over 400
/// cycles), and its flush cost swings several-fold with the state it drifted
/// into, for thousands of requests at a time, so one long history made the
/// throughput a function of the seed rather than of the code.
constexpr int kChunks = 20;
/// A connection that hears nothing for this long is declared broken.
constexpr int kStallMs = 60000;

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
};

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string edit_line(const std::string& session, const std::vector<std::string>& edits) {
  std::string line = R"({"op":"edit","session":)" + quoted(session) + R"(,"edits":[)";
  for (size_t i = 0; i < edits.size(); ++i) {
    if (i > 0) line += ',';
    line += edits[i];
  }
  return line + "]}";
}

std::string get_line(const std::string& session) {
  return R"({"op":"get","session":)" + quoted(session) + R"(,"format":"escher"})";
}

size_t count_records(const std::string& text, const char* tag) {
  size_t n = 0;
  for (size_t at = text.find(tag); at != std::string::npos; at = text.find(tag, at + 1)) ++n;
  return n;
}

/// One session's seeded, stationary edit stream.
///
/// Phase A of every cycle applies one change from the session's vocabulary:
/// a probe module whose terminal joins one of the design's nets (one entry
/// per net), or a move of one module terminal along its side (one entry
/// per terminal with a free spot).  The seed shuffles the vocabulary, and
/// reshuffles it each time it runs out, and draws the probe sizes, the
/// spots and how each burst splits into requests.  Every seed thus walks
/// the same changes in its own order, so a run's total work does not
/// hinge on which nets a seed happened to pick.
class SessionStream {
 public:
  SessionStream(std::string name, std::string design, std::uint64_t seed)
      : name_(std::move(name)),
        design_(std::move(design)),
        base_(serve::design_network(design_)),
        rng_{seed} {
    for (NetId n = 0; n < base_.net_count(); ++n) vocabulary_.push_back({true, n});
    for (TermId t = 0; t < base_.term_count(); ++t) {
      const Terminal& term = base_.term(t);
      if (!term.is_system() && !free_spots(term).empty()) vocabulary_.push_back({false, t});
    }
  }

  const std::string& name() const { return name_; }
  const std::string& design() const { return design_; }
  const Network& base() const { return base_; }
  /// Modules the next get must show.
  int expected_modules() const { return base_.module_count() + (probe_ ? 1 : 0); }

  /// The edit request lines of the next phase (one or more requests).
  std::vector<std::string> next_phase() {
    std::vector<std::string> edits;
    if (!in_phase_b_) {
      const Change c = next_change();
      if (c.probe) {
        probe(base_.net(c.id).name, edits);
      } else {
        move(c.id, edits);
      }
    } else {
      edits = std::move(undo_);
      undo_.clear();
      probe_ = false;
    }
    // Seeded burst shape: split the phase's edits into 1..n requests.
    std::vector<std::string> lines;
    std::vector<std::string> group;
    for (size_t i = 0; i < edits.size(); ++i) {
      group.push_back(edits[i]);
      if (i + 1 == edits.size() || rng_.below(2) == 0) {
        lines.push_back(edit_line(name_, group));
        group.clear();
      }
    }
    return lines;
  }

  /// Called when the phase's get answered.
  void phase_done() { in_phase_b_ = !in_phase_b_; }
  bool at_cycle_start() const { return !in_phase_b_; }

 private:
  struct Change {
    bool probe;  ///< probe on net `id`, else move terminal `id`
    int id;
  };

  Change next_change() {
    if (next_ == 0) {  // Fisher-Yates reshuffle at every pass
      for (size_t i = vocabulary_.size() - 1; i > 0; --i) {
        std::swap(vocabulary_[i], vocabulary_[static_cast<size_t>(rng_.below(static_cast<int>(i + 1)))]);
      }
    }
    const Change c = vocabulary_[next_];
    next_ = (next_ + 1) % vocabulary_.size();
    return c;
  }

  void probe(const std::string& net, std::vector<std::string>& edits) {
    const int w = 3 + rng_.below(3);
    const int h = 3 + rng_.below(3);
    edits.push_back(R"({"kind":"add_module","name":"probe","template":"","w":)" +
                    std::to_string(w) + R"(,"h":)" + std::to_string(h) + "}");
    edits.push_back(
        R"({"kind":"add_terminal","module":"probe","name":"p","type":"in","x":0,"y":)" +
        std::to_string(1 + rng_.below(h - 1)) + "}");
    edits.push_back(R"({"kind":"connect","net":)" + quoted(net) +
                    R"(,"module":"probe","term":"p"})");
    undo_.push_back(R"({"kind":"remove_module","name":"probe"})");
    probe_ = true;
  }

  void move(TermId id, std::vector<std::string>& edits) {
    const Terminal& t = base_.term(id);
    const std::string& module = base_.module(t.module).name;
    const std::vector<geom::Point> spots = free_spots(t);
    edits.push_back(move_edit(module, t.name, spots[rng_.below(static_cast<int>(spots.size()))]));
    undo_.push_back(move_edit(module, t.name, t.pos));
  }

  /// Non-corner points on the terminal's side of its module that no
  /// terminal of that module occupies.
  std::vector<geom::Point> free_spots(const Terminal& t) const {
    const Module& mod = base_.module(t.module);
    auto free = [&](geom::Point p) {
      for (const TermId id : mod.terms) {
        if (base_.term(id).pos == p) return false;
      }
      return true;
    };
    std::vector<geom::Point> spots;
    if (t.pos.x == 0 || t.pos.x == mod.size.x) {
      for (int y = 1; y < mod.size.y; ++y) {
        if (free({t.pos.x, y})) spots.push_back({t.pos.x, y});
      }
    } else {
      for (int x = 1; x < mod.size.x; ++x) {
        if (free({x, t.pos.y})) spots.push_back({x, t.pos.y});
      }
    }
    return spots;
  }

  static std::string move_edit(const std::string& module, const std::string& term,
                               geom::Point p) {
    return R"({"kind":"move_terminal","module":)" + quoted(module) + R"(,"term":)" +
           quoted(term) + R"(,"x":)" + std::to_string(p.x) + R"(,"y":)" +
           std::to_string(p.y) + "}";
  }

  std::string name_;
  std::string design_;
  Network base_;
  SplitMix rng_;
  std::vector<Change> vocabulary_;
  size_t next_ = 0;
  bool in_phase_b_ = false;
  bool probe_ = false;
  std::vector<std::string> undo_;
};

/// Client-side view of one request in flight.
struct Pending {
  int session;
  bool is_get;
  Clock::time_point sent;
};

/// A non-blocking line reader over one loopback connection.
struct Connection {
  serve::BlockingClient client;
  std::string buf;
  std::deque<Pending> in_flight;
  std::vector<int> sessions;  ///< indices into the stream table
  size_t next_session = 0;
  bool broken = false;
  long long steps_left = 0;

  /// Reads what is available; appends complete lines to `lines`.
  void drain(std::vector<std::string>& lines) {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(client.fd(), chunk, sizeof chunk, MSG_DONTWAIT);
      if (n > 0) {
        buf.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
        broken = true;
      }
      break;
    }
    size_t start = 0;
    for (size_t nl = buf.find('\n'); nl != std::string::npos; nl = buf.find('\n', start)) {
      lines.push_back(buf.substr(start, nl - start));
      start = nl + 1;
    }
    buf.erase(0, start);
  }
};

/// Counters read off the `metrics` op.
struct ServerSnapshot {
  std::map<std::string, double> scalars;
  std::map<std::string, obs::HistogramData> hists;
};

ServerSnapshot snapshot(serve::BlockingClient& c) {
  const std::string line = c.request(R"({"op":"metrics"})");
  const serve::JsonValue doc = serve::parse_json(line);
  const serve::JsonValue* reg = doc.find("metrics");
  if (reg == nullptr) throw std::runtime_error("metrics op failed: " + line);
  ServerSnapshot s;
  if (const serve::JsonValue* m = reg->find("metrics")) {
    for (const auto& [k, v] : m->object) {
      if (v.kind == serve::JsonValue::kNumber) s.scalars[k] = std::stod(v.text);
    }
  }
  if (const serve::JsonValue* h = reg->find("histograms")) {
    for (const auto& [k, v] : h->object) {
      obs::HistogramData d;
      if (const serve::JsonValue* mx = v.find("max")) mx->as_int(&d.max);
      if (const serve::JsonValue* b = v.find("buckets")) {
        for (const serve::JsonValue& pair : b->array) {
          long long lower = 0, count = 0;
          if (pair.array.size() == 2 && pair.array[0].as_int(&lower) &&
              pair.array[1].as_int(&count)) {
            d.buckets.push_back({obs::Histogram::bucket_index(lower), count});
          }
        }
      }
      s.hists[k] = std::move(d);
    }
  }
  return s;
}

/// Server counters over the timed chunks only: each chunk adds the change
/// between the snapshots taken around it.  (Per-session regen totals leave
/// the stats when a session closes, so one snapshot pair around the whole
/// pass would not do.)
struct ServerDelta {
  std::map<std::string, double> scalars;
  std::map<std::string, std::map<int, long long>> buckets;
  std::map<std::string, long long> max;

  void add(const ServerSnapshot& a, const ServerSnapshot& b) {
    for (const auto& [k, v] : b.scalars) {
      const auto it = a.scalars.find(k);
      scalars[k] += v - (it == a.scalars.end() ? 0.0 : it->second);
    }
    for (const auto& [k, h] : b.hists) {
      std::map<int, long long>& counts = buckets[k];
      for (const auto& [idx, n] : h.buckets) counts[idx] += n;
      if (const auto it = a.hists.find(k); it != a.hists.end()) {
        for (const auto& [idx, n] : it->second.buckets) counts[idx] -= n;
      }
      max[k] = std::max(max[k], h.max);
    }
  }

  double at(const std::string& k) const {
    const auto it = scalars.find(k);
    return it == scalars.end() ? 0.0 : it->second;
  }

  /// Quantile of the recorded population, in the histogram's unit, by the
  /// daemon's own estimator.
  double quantile(const std::string& name, double q) const {
    const auto it = buckets.find(name);
    if (it == buckets.end()) return 0.0;
    obs::HistogramData d;
    d.max = max.at(name);
    for (const auto& [idx, n] : it->second) {
      if (n > 0) {
        d.buckets.push_back({idx, n});
        d.count += n;
      }
    }
    return static_cast<double>(d.quantile(q));
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct PassStats {
  double wall_s = 0;
  std::vector<double> edit_ms, get_ms;
  std::vector<std::string> lines;  ///< every request line sent
};

/// The timed phase, run in chunks of whole cycles with a speed_factor()
/// taken before each chunk; each chunk's durations, and the set-up before
/// it, are scaled by that chunk's factor (the machine's speed changes
/// within minutes; see common.hpp).
struct TimedPass {
  std::vector<PassStats> chunks;
  std::vector<double> factor;   ///< one per chunk
  std::vector<double> setup_s;  ///< one server set-up per chunk, at reference speed
  ServerDelta server;

  /// Timed wall time at reference speed.
  double wall_s() const {
    double s = 0;
    for (size_t i = 0; i < chunks.size(); ++i) s += chunks[i].wall_s * factor[i];
    return s;
  }
  /// Median over chunks of requests (edits and/or gets) per second, at
  /// reference speed.
  double rate(bool edits, bool gets) const {
    std::vector<double> rates;
    for (size_t i = 0; i < chunks.size(); ++i) {
      const PassStats& c = chunks[i];
      const size_t n = (edits ? c.edit_ms.size() : 0) + (gets ? c.get_ms.size() : 0);
      rates.push_back(static_cast<double>(n) / (c.wall_s * factor[i]));
    }
    return median(rates);
  }
  /// Every latency sample, at reference speed when `scaled`.
  std::vector<double> latencies(bool gets, bool scaled) const {
    std::vector<double> out;
    for (size_t i = 0; i < chunks.size(); ++i) {
      const double f = scaled ? factor[i] : 1.0;
      for (const double ms : gets ? chunks[i].get_ms : chunks[i].edit_ms) out.push_back(ms * f);
    }
    return out;
  }
};

class ServeRun {
 public:
  explicit ServeRun(const RunConfig& cfg) : cfg_(cfg) {
    cpu_set_t set;
    const int cores =
        sched_getaffinity(0, sizeof set, &set) == 0 ? std::max(1, CPU_COUNT(&set)) : 1;
    connections_ = std::max(1, std::min(kMaxConnections, cores));
    io_threads_ = 1;
    host_threads_ = cfg.host_threads > 0 ? cfg.host_threads : std::max(1, cores - 2);
    budget_ = "thread budget: nproc=" + std::to_string(cores) +
              " io_threads=" + std::to_string(io_threads_) +
              " host.threads=" + std::to_string(host_threads_) +
              " load_generators=1 connections=" + std::to_string(connections_) +
              " sessions=" + std::to_string(kSessions);
  }

  ~ServeRun() { stop_server(); }

  Result run() {
    Result r;
    r.notes.push_back(budget_);
    for (int i = 0; i < kSessions; ++i) {
      streams_.emplace_back("s" + std::to_string(i), i % 2 == 0 ? "datapath:16" : "chain",
                            cfg_.seed * 1000003ull + static_cast<std::uint64_t>(i));
    }
    digests_.assign(kSessions, Digest{});
    // Sized on a 4-core x86 runner: about 16 timed cycles per session per
    // second, with the set-up and warm-up before each chunk on top.
    const long long per_chunk =
        std::max(1LL, std::llround(cfg_.seconds * 16.0 / kChunks));
    const TimedPass plain = timed_pass(per_chunk, false);
    if (!cfg_.trace) {
      r.set("setup_s", median(plain.setup_s), "s");
      r.set("req_per_s", plain.rate(true, true), "1/s");
      r.set("diagrams_per_s", plain.rate(false, true), "1/s");
      r.set("get_p50_ms", quantile(plain.latencies(true, true), 0.5), "ms");
      r.set("peak_rss_mb", peak_rss_mb(), "MB");
      r.notes.push_back("raw get p50 " + std::to_string(quantile(plain.latencies(true, false), 0.5)) +
                        " ms, median speed factor " + std::to_string(median(plain.factor)));
    } else {
      per_layer_counters(plain, r);
      na::obs::trace_reset();
      const TimedPass traced = timed_pass(per_chunk, true);
      trace_end(cfg_, r);
      per_layer_spans(traced, r);
      set_trace_overhead(r, plain.wall_s(), traced.wall_s());
    }
    // Quality: the sessions' cycle-end diagrams summed per check, averaged
    // over the checks (one after every chunk), so one seed's edit history
    // weighs less than a single final snapshot would.
    r.set_quality(quality_, quality_sets_);
    r.attempted = attempted_;
    r.failed = failed_;
    r.set("failed_share", ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
          "ratio");
    Digest all;
    for (const Digest& d : digests_) all.add(d.hex());
    r.digest = all.hex();
    r.notes.push_back(std::to_string(kWarmupCycles) + " warm-up + " +
                      std::to_string(per_chunk * kChunks) +
                      " timed cycles per session per pass");
    for (std::string& p : problems_) r.fail(std::move(p));
    return r;
  }

 private:
  /// Starts the server, connects every client and opens every session.
  void start_server() {
    serve::ServerOptions opt;
    opt.port = 0;
    opt.io_threads = io_threads_;
    opt.host.threads = host_threads_;
    opt.watchdog_ms = 50;  // loop-tick probes: enough samples for a p99
    server_ = std::make_unique<serve::Server>(opt);
    std::string error;
    if (!server_->start(&error)) throw std::runtime_error("server start: " + error);
    runner_ = std::thread([this] { server_->run(); });
    if (!control_.connect("127.0.0.1", server_->port(), &error)) {
      throw std::runtime_error("control connect: " + error);
    }
    conns_.clear();
    for (int c = 0; c < connections_; ++c) {
      auto conn = std::make_unique<Connection>();
      if (!conn->client.connect("127.0.0.1", server_->port(), &error)) {
        throw std::runtime_error("connect: " + error);
      }
      conns_.push_back(std::move(conn));
    }
    for (int i = 0; i < kSessions; ++i) conns_[i % connections_]->sessions.push_back(i);
    // The opens go out pipelined on every connection, then all are awaited.
    for (auto& conn : conns_) {
      for (const int i : conn->sessions) {
        conn->client.send_line(R"({"op":"open","session":)" + quoted(streams_[i].name()) +
                               R"(,"design":)" + quoted(streams_[i].design()) + "}");
      }
    }
    for (auto& conn : conns_) {
      for (const int i : conn->sessions) {
        std::string line;
        if (!conn->client.recv_line(&line) || line.rfind(R"({"ok":true)", 0) != 0) {
          throw std::runtime_error("opening " + streams_[i].name() + " failed: " + line);
        }
        digests_[i].add(line);
      }
    }
  }

  void stop_server() {
    if (!server_) return;
    conns_.clear();
    control_.close();
    server_->request_stop();
    runner_.join();
    server_.reset();
  }

  TimedPass timed_pass(long long cycles_per_chunk, bool traced) {
    TimedPass t;
    for (int c = 0; c < kChunks; ++c) {
      stop_server();
      const auto t0 = Clock::now();
      start_server();
      const double setup_s = seconds_since(t0);
      run_pass(kWarmupCycles, nullptr);
      t.factor.push_back(speed_factor(host_threads_));
      t.setup_s.push_back(setup_s * t.factor.back());
      t.chunks.emplace_back();
      const ServerSnapshot a = snapshot(control_);
      // Traced passes record the timed chunks only, not the reopening,
      // warm-up and checks around them.
      if (traced) na::obs::trace_enable();
      run_pass(cycles_per_chunk, &t.chunks.back());
      server_->host().pool().wait_idle();
      t.server.add(a, snapshot(control_));
      na::obs::trace_disable();
      check_sessions();
    }
    return t;
  }

  /// Every session runs `cycles` full cycles (2 phases each); `stats`
  /// null means an untimed warm-up.
  void run_pass(long long cycles, PassStats* stats) {
    const auto t0 = Clock::now();
    for (auto& conn : conns_) {
      conn->steps_left = cycles * 2 * static_cast<long long>(conn->sessions.size());
      conn->next_session = 0;
      if (!conn->broken) send_step(*conn, stats);
    }
    std::vector<pollfd> fds(conns_.size());
    std::vector<std::string> lines;
    for (;;) {
      int waiting = 0;
      for (size_t c = 0; c < conns_.size(); ++c) {
        fds[c] = {conns_[c]->client.fd(), POLLIN, 0};
        if (conns_[c]->in_flight.empty() || conns_[c]->broken) fds[c].fd = -1;
        else ++waiting;
      }
      if (waiting == 0) break;
      const int ready = ::poll(fds.data(), fds.size(), kStallMs);
      if (ready <= 0) {
        for (auto& conn : conns_) conn->broken = true;
        problems_.push_back("no response for " + std::to_string(kStallMs / 1000) + " s");
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        Connection& conn = *conns_[c];
        if (fds[c].fd < 0) continue;
        if (fds[c].revents != 0) {
          lines.clear();
          conn.drain(lines);
          for (std::string& line : lines) on_response(conn, std::move(line), stats);
        }
        if (conn.broken) {
          failed_ += static_cast<long long>(conn.in_flight.size());
          for (const Pending& p : conn.in_flight) {
            if (stats != nullptr) {
              (p.is_get ? stats->get_ms : stats->edit_ms)
                  .push_back(std::numeric_limits<double>::infinity());
            }
          }
          conn.in_flight.clear();
        }
      }
    }
    if (stats != nullptr) stats->wall_s = seconds_since(t0);
  }

  void send_step(Connection& conn, PassStats* stats) {
    const int s = conn.sessions[conn.next_session];
    conn.next_session = (conn.next_session + 1) % conn.sessions.size();
    SessionStream& stream = streams_[s];
    std::vector<std::string> lines = stream.next_phase();
    lines.push_back(get_line(stream.name()));
    std::string batch;
    for (const std::string& l : lines) batch += l + '\n';
    const auto now = Clock::now();
    for (size_t i = 0; i < lines.size(); ++i) {
      conn.in_flight.push_back({s, i + 1 == lines.size(), now});
    }
    attempted_ += static_cast<long long>(lines.size());
    if (stats != nullptr && cfg_.trace) {  // kept for the parse timing
      for (std::string& l : lines) stats->lines.push_back(std::move(l));
    }
    --conn.steps_left;
    // One write per step: the whole burst arrives pipelined.
    if (!conn.client.send_line(std::string_view(batch.data(), batch.size() - 1))) {
      conn.broken = true;
    }
  }

  void on_response(Connection& conn, std::string line, PassStats* stats) {
    if (conn.in_flight.empty()) {
      problems_.push_back("unsolicited response: " + line.substr(0, 120));
      return;
    }
    const Pending p = conn.in_flight.front();
    conn.in_flight.pop_front();
    const auto now = Clock::now();
    const double ms = std::chrono::duration<double, std::milli>(now - p.sent).count();
    const bool ok = line.rfind(R"({"ok":true,"op":")", 0) == 0 &&
                    line.compare(17, 3, p.is_get ? "get" : "edi") == 0;
    digests_[p.session].add(line);
    if (!ok) {
      ++failed_;
      if (problems_.size() < 8) problems_.push_back("request failed: " + line.substr(0, 200));
    }
    if (stats != nullptr) {
      (p.is_get ? stats->get_ms : stats->edit_ms)
          .push_back(ok ? ms : std::numeric_limits<double>::infinity());
    }
    if (!p.is_get) return;
    SessionStream& stream = streams_[p.session];
    if (ok) {
      const size_t modules = count_records(line, "subsys:");
      if (modules != static_cast<size_t>(stream.expected_modules()) && problems_.size() < 8) {
        problems_.push_back(stream.name() + ": get shows " + std::to_string(modules) +
                            " modules, expected " + std::to_string(stream.expected_modules()));
      }
    }
    stream.phase_done();
    if (stream.at_cycle_start()) last_get_[p.session] = std::move(line);
    if (conn.steps_left > 0 && !conn.broken) send_step(conn, stats);
  }

  /// Reads each session's latest cycle-end diagram back through the escher
  /// reader, against the design it was opened with, and validates it.
  /// ESCHER files carry no routed flags, so they come from a `save` of the
  /// same session, whose embedded diagram must also render to the very
  /// bytes the get returned.  Runs between timed chunks.
  void check_sessions() {
    for (int i = 0; i < kSessions; ++i) {
      const SessionStream& stream = streams_[i];
      const auto it = last_get_.find(i);
      if (it == last_get_.end()) {
        problems_.push_back(stream.name() + ": no cycle-end diagram");
        continue;
      }
      try {
        const std::string escher = payload_of(it->second);
        Diagram dia = parse_escher_diagram(stream.base(), escher);
        const std::string saved_line =
            control_.request(R"({"op":"save","session":)" + quoted(stream.name()) + "}");
        digests_[i].add(saved_line);
        RegenSession saved;
        saved.restore(payload_of(saved_line));
        if (to_escher_diagram(saved.diagram(), stream.name()) != escher) {
          throw std::runtime_error("saved session differs from its last get");
        }
        const Network& snet = saved.network();
        for (NetId n = 0; n < snet.net_count(); ++n) {
          const auto mine = stream.base().net_by_name(snet.net(n).name);
          if (!mine) throw std::runtime_error("net " + snet.net(n).name + " not in design");
          dia.route(*mine).routed = saved.diagram().route(n).routed;
        }
        const std::vector<std::string> issues = validate_diagram(dia);
        if (!issues.empty()) {
          problems_.push_back(stream.name() + ": diagram invalid: " + issues.front());
        }
        quality_.add(compute_stats(dia));
      } catch (const std::exception& e) {
        problems_.push_back(stream.name() + ": diagram check failed: " + e.what());
      }
    }
    ++quality_sets_;
  }

  static std::string payload_of(const std::string& response) {
    const serve::JsonValue doc = serve::parse_json(response);
    const serve::JsonValue* payload = doc.find("payload");
    if (payload == nullptr) throw std::runtime_error("no payload in " + response.substr(0, 120));
    return payload->text;
  }

  void per_layer_counters(const TimedPass& plain, Result& r) {
    auto d = [&](const std::string& k) { return plain.server.at(k); };
    const double regens = d("serve.batch.regens");
    const std::vector<double> edit_ms = plain.latencies(false, false);
    r.set("edit_p50_ms", quantile(edit_ms, 0.5), "ms");
    r.set("edit_p99_ms", quantile(edit_ms, 0.99), "ms");
    r.set("get_p99_ms", quantile(plain.latencies(true, true), 0.99), "ms");
    r.set("regen.nets_rerouted_per_flush", ratio(d("regen.nets_rerouted"), regens), "count");
    r.set("regen.cells_scrubbed_per_flush", ratio(d("regen.cells_scrubbed"), regens), "count");
    r.set("regen.route_expansions_per_flush", ratio(d("regen.route_expansions"), regens),
          "count");
    r.set("regen.incremental_share", ratio(d("regen.incremental"), d("regen.updates")),
          "ratio");
    r.set("serve.batch.edits_per_job", ratio(d("serve.batch.edits"), d("serve.batch.jobs")),
          "count");
    r.set("serve.batch.composed_per_regen", ratio(d("serve.batch.composed"), regens), "count");
    r.set("serve.errors", d("serve.errors"), "count");
    const double edit_us = plain.server.quantile("serve.lat.edit", 0.5);
    r.set("serve.lat.edit_us_p50", edit_us, "us");
    r.set("serve.lat.get_us_p50", plain.server.quantile("serve.lat.get", 0.5), "us");
    // The client's p50 through the daemon's own estimator, so the two
    // medians subtracted here carry the same bucket bias.
    obs::Histogram client_edit_us;
    for (const double ms : edit_ms) client_edit_us.record_ms(std::min(ms, 1e9));
    r.set("serve.wire_us_p50",
          static_cast<double>(client_edit_us.snapshot().quantile(0.5)) - edit_us, "us");
    r.set("serve.lat.flush_us_p50", plain.server.quantile("serve.lat.flush", 0.5), "us");
    r.set("serve.lat.flush_us_p99", plain.server.quantile("serve.lat.flush", 0.99), "us");
    r.set("serve.pool.queue_wait_us_p50", plain.server.quantile("serve.pool.queue_wait", 0.5),
          "us");
    r.set("serve.pool.queue_wait_us_p99", plain.server.quantile("serve.pool.queue_wait", 0.99),
          "us");
    r.set("serve.lat.loop_tick_us_p99", plain.server.quantile("serve.lat.loop_tick", 0.99),
          "us");
    // The protocol parser, timed here on every line the pass sent.
    std::vector<double> parse_us;
    for (const PassStats& chunk : plain.chunks) {
      for (const std::string& line : chunk.lines) {
        const auto t0 = Clock::now();
        const serve::Request req = serve::parse_request(line);
        parse_us.push_back(ms_since(t0) * 1e3);
        if (req.session.empty()) problems_.push_back("parse_request lost the session");
      }
    }
    r.set("serve.parse_us", median(parse_us), "us");
  }

  void per_layer_spans(const TimedPass& traced, Result& r) {
    const double regens = traced.server.at("serve.batch.regens");
    const auto spans = rollup_trace();
    for (const char* name : {"regen.diff", "regen.patch_place", "regen.patch_route",
                             "regen.validate"}) {
      const auto it = spans.find(name);
      r.set(std::string(name) + "_ms",
            it == spans.end() ? 0.0 : ratio(it->second.self_ms_total, regens), "ms");
    }
  }

  RunConfig cfg_;
  int connections_ = 1;
  int io_threads_ = 1;
  int host_threads_ = 1;
  std::string budget_;
  std::unique_ptr<serve::Server> server_;
  std::thread runner_;
  serve::BlockingClient control_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<SessionStream> streams_;
  std::vector<Digest> digests_;
  std::map<int, std::string> last_get_;
  Quality quality_;
  int quality_sets_ = 0;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> problems_;
};

}  // namespace

Result run_serve_edit(const RunConfig& cfg) {
  ServeRun run(cfg);
  return run.run();
}

}  // namespace pb
