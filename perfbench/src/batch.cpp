// life_batch and mesh_batch: whole diagrams through the generator facade,
// each checked by the independent validator.
//
// A round is the workload's set of distinct diagrams (LIFE: fig 6.6 then
// fig 6.7; mesh: the one seeded mesh).  A run repeats whole rounds; every
// repeat must reproduce the first round's diagrams byte for byte, and
// throughput is work per round over the median round time.
//
// Set-up (building the inputs) takes a millisecond or less here, too short
// for one burst of builds before the run to stand for the run: it measures
// the machine at one moment.  So set-up is sampled in bursts of builds of
// throwaway inputs, one burst next to every calibration, and setup_s is
// the median over all of them.
#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "gen/life.hpp"
#include "gen/synth.hpp"
#include "obs/trace.hpp"
#include "route/net_order.hpp"
#include "schematic/escher_writer.hpp"
#include "schematic/validate.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace na;

/// Paper fig 6.6: routing around the hand placement.
GeneratorOptions life_options() {
  GeneratorOptions opt;
  opt.router.margin = 12;
  opt.router.order_criterion = static_cast<int>(NetOrderCriterion::LongestFirst);
  opt.router.threads = 1;
  return opt;
}

/// Paper fig 6.7: the fully automatic LIFE generation.
GeneratorOptions fig67_options() {
  GeneratorOptions opt = life_options();
  opt.placer.max_part_size = 3;
  opt.placer.max_box_size = 3;
  opt.placer.module_spacing = 1;
  opt.placer.partition_spacing = 2;
  return opt;
}

/// The scale tier's settings for synthetic meshes.
GeneratorOptions scale_options() {
  GeneratorOptions opt;
  opt.placer.max_part_size = 8;
  opt.placer.max_box_size = 4;
  opt.placer.max_connections = 16;
  opt.router.margin = 6;
  opt.router.threads = 1;
  return opt;
}

/// One kind of diagram a round produces.
struct Job {
  std::string label;
  /// Produces the diagram (timed together with its validation).
  std::function<Diagram(GeneratorResult&)> make;
};

struct DiagramRecord {
  GeneratorResult gen;
  double ms = 0;  ///< generate + validate
  std::string escher;
};

/// One pass over the rounds.  A speed_factor() is taken before the first
/// diagram and after every diagram.  Each diagram's time is scaled by the
/// mean of the two calibrations around it, and each set-up burst by the
/// calibration it follows: the machine's speed changes within minutes, so
/// a time is best scaled by the calibration nearest to it.
struct Pass {
  std::vector<double> round_s;     ///< at reference speed
  std::vector<double> diagram_ms;  ///< at reference speed
  std::vector<double> setup_s;     ///< at reference speed, every set-up build
  std::vector<double> raw_round_s;
  std::vector<double> factor;  ///< every calibration taken
  double wall_s = 0;  ///< sum of the round times, at reference speed
  long long diagrams = 0;
  // Per-round sums over the round's diagrams (identical every round).
  double place_ms = 0, route_ms = 0;
};

class BatchRun {
 public:
  /// `setup` builds a throwaway copy of the inputs the jobs use;
  /// `setup_burst` is the number of builds timed at each calibration.
  BatchRun(const RunConfig& cfg, std::function<void()> setup, int setup_burst,
           std::vector<Job> jobs, int rounds, int calibration_side)
      : cfg_(cfg),
        setup_(std::move(setup)),
        setup_burst_(setup_burst),
        jobs_(std::move(jobs)),
        rounds_(rounds),
        side_(calibration_side) {}

  Result run() {
    Result r;
    pin_to_current_cpu();
    const Pass first = pass();
    if (!cfg_.trace) {
      r.set("setup_s", median(first.setup_s), "s");
      end_to_end(first, r);
    } else {
      trace_begin();
      const Pass traced = pass();
      trace_end(cfg_, r);
      per_layer(first, r);
      set_trace_overhead(r, first.wall_s, traced.wall_s);
    }
    for (std::string& p : problems_) r.fail(std::move(p));
    r.attempted = attempted_;
    r.failed = failed_;
    r.digest = digest_.hex();
    r.set_quality(quality_);
    r.notes.push_back(std::to_string(rounds_) + " rounds of " +
                      std::to_string(jobs_.size()) + " diagram(s) per pass");
    return r;
  }

 private:
  /// A calibration point: one speed_factor(), then one set-up burst scaled
  /// by it.  Returns the factor.
  double calibrate(Pass& p) {
    const double factor = speed_factor(1, side_);
    p.factor.push_back(factor);
    for (int i = 0; i < setup_burst_; ++i) {
      const auto t0 = Clock::now();
      setup_();
      p.setup_s.push_back(seconds_since(t0) * factor);
    }
    return factor;
  }

  Pass pass() {
    Pass p;
    double before = calibrate(p);
    for (int round = 0; round < rounds_; ++round) {
      double raw_ms = 0, scaled_ms = 0;
      for (size_t j = 0; j < jobs_.size(); ++j) {
        DiagramRecord d = make_one(jobs_[j]);
        const double after = calibrate(p);
        const double ms = d.ms * 0.5 * (before + after);
        before = after;
        raw_ms += d.ms;
        scaled_ms += ms;
        p.diagram_ms.push_back(ms);
        ++p.diagrams;
        if (round == 0) {
          p.place_ms += d.gen.place_seconds * 1e3;
          p.route_ms += d.gen.route_seconds * 1e3;
        }
        check_repeat(j, d);
      }
      p.round_s.push_back(scaled_ms / 1e3);
      p.raw_round_s.push_back(raw_ms / 1e3);
      p.wall_s += scaled_ms / 1e3;
    }
    return p;
  }

  DiagramRecord make_one(const Job& job) {
    DiagramRecord d;
    ++attempted_;
    const auto t0 = Clock::now();
    std::vector<std::string> issues;
    Diagram dia = [&] {
      NA_TRACE_SCOPE("bench.generate");
      return job.make(d.gen);
    }();
    {
      NA_TRACE_SCOPE("bench.validate");
      issues = validate_diagram(dia);
    }
    d.ms = ms_since(t0);
    d.escher = to_escher_diagram(dia, job.label);
    if (!issues.empty()) {
      ++failed_;
      problems_.push_back(job.label + ": " + std::to_string(issues.size()) +
                          " validation issue(s), first: " + issues.front());
    }
    return d;
  }

  /// The first diagram of each job fixes the reference; every later one
  /// must match it byte for byte (by digest, so the benchmark holds no
  /// copy of a diagram).  Everything is digested in order.
  void check_repeat(size_t j, const DiagramRecord& d) {
    digest_.add(d.escher);
    Digest own;
    own.add(d.escher);
    if (reference_.size() <= j) {
      reference_.push_back(own.hex());
      expansions_.push_back(d.gen.route.total_expansions);
      quality_.add(d.gen.stats);
      round_counts_.connections_failed += d.gen.route.connections_failed;
      round_counts_.retried += d.gen.route.retried_connections;
      round_counts_.plane_cells +=
          static_cast<long long>(d.gen.stats.width) * d.gen.stats.height;
      return;
    }
    if (own.hex() != reference_[j] ||
        d.gen.route.total_expansions != expansions_[j]) {
      ++failed_;
      problems_.push_back(jobs_[j].label +
                          ": repeated generation differs from the first");
    }
  }

  /// Wall-time metrics at reference speed (see speed_factor()).  The
  /// per-diagram latency is the median round's mean: LIFE's two figures
  /// take clearly different times, and the median of the pooled diagrams
  /// would fall in the gap between them, set by the two extremes.
  void end_to_end(const Pass& p, Result& r) const {
    const double per_round = static_cast<double>(jobs_.size());
    const double round_s = median(p.round_s);
    r.set("diagrams_per_s", per_round / round_s, "1/s");
    r.set("req_per_s", per_round / round_s, "1/s");
    r.set("get_p50_ms", round_s * 1e3 / per_round, "ms");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.notes.push_back("raw median round " + std::to_string(median(p.raw_round_s)) +
                      " s, median speed factor " + std::to_string(median(p.factor)));
  }

  void per_layer(const Pass& untraced, Result& r) const {
    const double n = static_cast<double>(jobs_.size());
    r.set("get_p99_ms", quantile(untraced.diagram_ms, 0.99), "ms");
    long long expansions = 0;
    for (long e : expansions_) expansions += e;
    r.set("generate.place_ms", untraced.place_ms / n, "ms");
    r.set("generate.route_ms", untraced.route_ms / n, "ms");
    r.set("route.expansions", static_cast<double>(expansions) / n, "count");
    r.set("route.expansions_per_ms",
          untraced.route_ms > 0 ? static_cast<double>(expansions) / untraced.route_ms
                                : 0.0,
          "1/ms");
    r.set("route.connections_failed",
          static_cast<double>(round_counts_.connections_failed) / n, "count");
    r.set("route.retried_connections",
          static_cast<double>(round_counts_.retried) / n, "count");
    r.set("route.plane_cells", static_cast<double>(round_counts_.plane_cells) / n,
          "count");
    r.set("failed_share",
          attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0,
          "ratio");
    // Span-derived figures come from the traced pass.
    const auto spans = rollup_trace();
    const double diagrams = static_cast<double>(untraced.diagrams);
    auto self_per_diagram = [&](const std::string& name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.self_ms_total / diagrams;
    };
    for (const char* phase :
         {"partition", "box_form", "box_place", "module_place",
          "partition_jobs", "partition_place", "terminal_place"}) {
      const std::string span = std::string("place.") + phase;
      r.set(span + "_ms", self_per_diagram(span), "ms");
    }
    if (const auto it = spans.find("route.net"); it != spans.end()) {
      r.set("route.net_ms_p50", quantile(it->second.self_ms, 0.5), "ms");
      r.set("route.net_ms_p99", quantile(it->second.self_ms, 0.99), "ms");
    }
    if (const auto it = spans.find("bench.validate"); it != spans.end()) {
      r.set("validate.full_ms", median(it->second.dur_ms), "ms");
    }
  }

  RunConfig cfg_;
  std::function<void()> setup_;
  int setup_burst_;
  std::vector<Job> jobs_;
  int rounds_;
  int side_;
  long long attempted_ = 0, failed_ = 0;
  std::vector<std::string> problems_;
  std::vector<std::string> reference_;
  std::vector<long> expansions_;
  Quality quality_;
  struct {
    long long connections_failed = 0, retried = 0, plane_cells = 0;
  } round_counts_;
  Digest digest_;
};

int rounds_for(double seconds, double rounds_per_second) {
  return std::max(1, static_cast<int>(std::lround(seconds * rounds_per_second)));
}

}  // namespace

// Run lengths are sized from single-threaded routing on a 4-core x86
// runner: a fig 6.6 + fig 6.7 round takes about 1.6 s, a mesh about 11 s.
// Set-up bursts are sized to a few hundred builds per run: LIFE's set-up
// takes about 0.15 ms and is timed at some 25 calibrations, the mesh's
// about 1 ms at only three, and single builds vary by a third.
Result run_life_batch(const RunConfig& cfg) {
  const Network net = gen::life_network();
  Diagram placed{net};
  gen::life_hand_placement(placed);
  auto setup = [] {
    const Network n = gen::life_network();
    Diagram d{n};
    gen::life_hand_placement(d);
  };
  std::vector<Job> jobs = {
      {"fig66",
       [&](GeneratorResult& g) {
         Diagram dia = placed;
         g = generate(dia, life_options());
         return dia;
       }},
      {"fig67",
       [&](GeneratorResult& g) {
         return generate_diagram(net, fig67_options(), &g);
       }},
  };
  return BatchRun(cfg, setup, 21, std::move(jobs), rounds_for(cfg.seconds, 0.6), 512).run();
}

// The mesh is the scale tier's seed-1 mesh whatever --seed says: a mesh's
// seed redraws every cell size and pin, and across seeds 1..13 that moved
// the routing work from 24.0M to 35.0M expansions (a quartile spread of
// about a quarter of the median), more than any bound the benchmark could
// hold a later change to.
Result run_mesh_batch(const RunConfig& cfg) {
  gen::SynthOptions sopt;
  sopt.topology = gen::SynthTopology::GridMesh;
  sopt.modules = 1000;
  sopt.seed = 1;
  const Network net = gen::synth_network(sopt);
  auto setup = [&sopt] { const Network n = gen::synth_network(sopt); };
  std::vector<Job> jobs = {
      {"mesh1000",
       [&](GeneratorResult& g) { return generate_diagram(net, scale_options(), &g); }},
  };
  return BatchRun(cfg, setup, 151, std::move(jobs), rounds_for(cfg.seconds, 0.1), 1024).run();
}

}  // namespace pb
