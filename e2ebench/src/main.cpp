// End-to-end benchmark of the PPO + GNN sizing engine.
//
//   e2ebench --workload <train-opamp-gatfc|deploy-rfpa-fine|fleet-w4>
//            --seed <n> --seconds <s> --trace <0|1> [--report <path>]
//
// Sets the workload up three times (the median is setup_s), then repeats
// whole units until --seconds have passed. --trace 0 prints the end-to-end
// metrics; --trace 1 alternates untraced and traced units and prints the
// per-layer metrics of the traced ones. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the line before it
// records the seed and the digest of the generated inputs. A failed
// correctness check exits 1. See README.md in this directory.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "observe.h"
#include "workloads.h"

namespace {

using namespace e2e;
namespace fs = std::filesystem;
namespace json = crl::obs::json;

constexpr int kSetups = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string report;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--report PATH]\n",
               why.c_str());
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = v;
      } else if (arg == "--seed") {
        o.seed = std::stoull(v);
        haveSeed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(v);
        haveSeconds = o.seconds > 0.0;
      } else if (arg == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
        haveTrace = true;
      } else if (arg == "--report") {
        o.report = v;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  return o;
}

double nowS() { return static_cast<double>(crl::obs::monotonicNowNs()) / 1e9; }

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream s;
  s << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s << ", ";
    s << "\"" << json::escape(metrics[i].name) << "\": {\"value\": "
      << json::number(metrics[i].value) << ", \"unit\": \""
      << json::escape(metrics[i].unit) << "\"}";
  }
  s << "}";
  return s.str();
}

// ---- per-layer metrics of one traced unit ------------------------------------

struct LayerRow {
  std::string name;
  std::size_t calls = 0;
  double busyS = 0.0;
  double selfS = 0.0;
};

struct TracedUnit {
  std::vector<Metric> metrics;  ///< in per-layer order, without the ratio pair
  std::vector<LayerRow> rows;
  double threadS = 0.0;
  double attributedShare = 0.0;
  double wallS = 0.0;
};

TracedUnit layerMetrics(const UnitOutcome& u, const RegistryValues& reg,
                        const std::vector<Span>& spans, double allocs) {
  const std::map<std::string, LayerTime> layers = attribute(spans);
  const auto layer = [&](const std::string& name) -> LayerTime {
    auto it = layers.find(name);
    return it == layers.end() ? LayerTime{} : it->second;
  };
  const auto p50 = [](const LayerTime& lt) {
    return lt.durationsS.empty() ? 0.0 : percentile(lt.durationsS, 0.5);
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  const LayerTime measure = layer("circuit.measure");
  const LayerTime step = layer("envs.step");
  const LayerTime infer = layer("rl.policy.infer");
  const LayerTime update = layer("rl.ppo.update");
  const double stepCalls = static_cast<double>(step.calls);

  TracedUnit t;
  t.wallS = u.wallS;
  t.threadS = threadSeconds(spans);
  t.attributedShare = 1.0 - ratio(layer("bench.unit").selfS, t.threadS);
  t.metrics = {
      {"circuit.measure.calls", "count", static_cast<double>(measure.calls)},
      {"circuit.measure.busy_s", "s", measure.busyS},
      {"circuit.measure.p50_us", "us", p50(measure) * 1e6},
      {"circuit.measure.invalid_ratio", "ratio",
       ratio(static_cast<double>(tally().invalidMeasures.load()),
             static_cast<double>(measure.calls))},
      {"spice.ac.sweeps", "count", reg.counter("spice.ac.sweeps")},
      {"spice.ac.points_solved", "count", reg.counter("spice.ac.points_solved")},
      {"spice.ac.busy_s", "s", reg.sum("spice.ac.sweep_seconds")},
      {"spice.dc.solves", "count", reg.counter("spice.dc.solves")},
      {"spice.dc.newton_iters_per_solve", "count",
       ratio(reg.counter("spice.dc.newton_iters"), reg.counter("spice.dc.solves"))},
      {"spice.dc.homotopy_rescues", "count", reg.counter("spice.dc.homotopy_rescues")},
      {"spice.dc.nonconverged", "count", reg.counter("spice.dc.nonconverged")},
      {"spice.tran.runs", "count", reg.counter("spice.tran.runs")},
      {"spice.tran.timesteps", "count", reg.counter("spice.tran.timesteps")},
      {"spice.tran.busy_s", "s", reg.sum("spice.tran.run_seconds")},
      {"linalg.solver.dense_selected", "count", reg.counter("linalg.solver.dense_selected")},
      {"linalg.solver.sparse_selected", "count", reg.counter("linalg.solver.sparse_selected")},
      {"linalg.sparse_lu.symbolic_analyses", "count",
       reg.counter("linalg.sparse_lu.symbolic_analyses")},
      {"linalg.sparse_lu.pivot_collapses", "count",
       reg.counter("linalg.sparse_lu.pivot_collapses")},
      {"linalg.sparse_lu.refactors_reused", "count",
       reg.counter("linalg.sparse_lu.refactors_reused")},
      {"envs.step.calls", "count", stepCalls},
      {"envs.step.self_s", "s", step.selfS},
      {"envs.reset.busy_s", "s", layer("envs.reset").busyS},
      {"rl.policy.infer.calls", "count", static_cast<double>(infer.calls)},
      {"rl.policy.infer.busy_s", "s", infer.busyS},
      {"rl.policy.infer.p50_us", "us", p50(infer) * 1e6},
      {"rl.ppo.update.calls", "count", static_cast<double>(update.calls)},
      {"rl.ppo.update.busy_s", "s", update.busyS},
      {"rl.ppo.update.p50_ms", "ms", p50(update) * 1e3},
      {"alloc.per_env_step", "count", ratio(allocs, stepCalls)},
      {"rl.campaign.eval.busy_s", "s", layer("rl.campaign.eval").busyS},
      {"io.checkpoint.count", "count", static_cast<double>(tally().checkpoints.load())},
      {"io.checkpoint.bytes", "B", static_cast<double>(tally().checkpointBytes.load())},
      {"io.save_retries", "count", reg.counter("io.save_retries")},
      {"util.pool.utilization", "ratio", ratio(u.poolBusyS, u.poolCapacityS)},
      {"util.pool.tasks_executed", "count", u.poolTasks},
      {"util.pool.tasks_stolen", "count", u.poolSteals},
      {"core.deploy.waves", "count", static_cast<double>(u.waves)},
      {"core.deploy.lane_idle_share", "ratio", u.load.idleShare()},
  };
  for (const auto& [name, lt] : layers) t.rows.push_back({name, lt.calls, lt.busyS, lt.selfS});
  return t;
}

std::string reportJson(const Options& o, const std::string& inputDigest,
                       const std::vector<TracedUnit>& traced, double untracedWallS,
                       const std::vector<Metric>& metrics) {
  // Layer rows summed over the traced units, shares of their thread time.
  std::map<std::string, LayerRow> rows;
  double threadS = 0.0, wallS = 0.0;
  for (const TracedUnit& t : traced) {
    threadS += t.threadS;
    wallS += t.wallS;
    for (const LayerRow& r : t.rows) {
      LayerRow& acc = rows[r.name];
      acc.name = r.name;
      acc.calls += r.calls;
      acc.busyS += r.busyS;
      acc.selfS += r.selfS;
    }
  }
  const double n = static_cast<double>(traced.size());
  char host[256] = {0};
  gethostname(host, sizeof host - 1);
  std::ostringstream s;
  s << "{\n  \"schema\": \"crl.e2ebench.trace_report/v1\",\n"
    << "  \"workload\": \"" << o.workload << "\",\n"
    << "  \"seed\": " << o.seed << ",\n"
    << "  \"input_digest\": \"" << inputDigest << "\",\n"
    << "  \"host\": {\"hostname\": \"" << json::escape(host)
    << "\", \"cpus\": " << sysconf(_SC_NPROCESSORS_ONLN) << "},\n"
    << "  \"traced_units\": " << traced.size() << ",\n"
    << "  \"traced_unit_wall_s\": " << json::number(wallS / n) << ",\n"
    << "  \"untraced_unit_wall_s\": " << json::number(untracedWallS) << ",\n"
    << "  \"thread_s_per_unit\": " << json::number(threadS / n) << ",\n"
    << "  \"layers\": [\n";
  bool first = true;
  for (const auto& [name, r] : rows) {
    if (!first) s << ",\n";
    first = false;
    s << "    {\"name\": \"" << json::escape(name) << "\", \"calls_per_unit\": "
      << json::number(static_cast<double>(r.calls) / n)
      << ", \"busy_s_per_unit\": " << json::number(r.busyS / n)
      << ", \"self_s_per_unit\": " << json::number(r.selfS / n)
      << ", \"self_share\": " << json::number(r.selfS / threadS) << "}";
  }
  s << "\n  ],\n  \"metrics\": " << metricsJson(metrics) << "\n}\n";
  return s.str();
}

void printLayerTable(const TracedUnit& t) {
  std::fprintf(stderr, "  %-28s %10s %10s %10s %7s\n", "layer (span)", "calls", "busy_s",
               "self_s", "share");
  for (const LayerRow& r : t.rows)
    std::fprintf(stderr, "  %-28s %10zu %10.4f %10.4f %6.1f%%\n", r.name.c_str(), r.calls,
                 r.busyS, r.selfS, 100.0 * r.selfS / t.threadS);
  std::fprintf(stderr, "  thread time %.4f s, unit wall %.4f s, attributed %.1f%%\n",
               t.threadS, t.wallS, 100.0 * t.attributedShare);
}

std::string registrySnapshot() { return crl::obs::Registry::global().snapshotJson(); }

int run(const Options& o) {
  const std::string runDir = ".bench_run/" + o.workload + "-" + std::to_string(getpid());
  std::unique_ptr<Workload> w;
  try {
    w = Workload::create(o.workload, o.seed, runDir);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  fs::remove_all(runDir);
  fs::create_directories(runDir);
  const struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
      fs::remove(".bench_run", ec);  // only when empty
    }
  } cleanup{runDir};

  std::vector<std::string> errors;
  const std::string digest = w->inputDigest().hex();
  if (w->regenerateInputDigest().value() != w->inputDigest().value())
    errors.push_back("input generation is not deterministic for this seed");

  std::vector<double> setupS;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = nowS();
    for (std::string& e : w->setup()) errors.push_back("set-up: " + e);
    setupS.push_back(nowS() - t0);
  }
  std::fprintf(stderr, "e2ebench %s seed %llu: set-up %.3f s (median of %d), inputs %s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               median(setupS), kSetups, digest.c_str());

  std::vector<UnitOutcome> units;  // untraced
  std::vector<TracedUnit> traced;
  std::size_t attempted = 0, failed = 0;
  const auto account = [&](const UnitOutcome& u, const char* kind) {
    attempted += u.jobs + u.queries;
    failed += u.jobsFailed + u.queriesFailed;
    for (const std::string& e : u.errors) errors.push_back(std::string(kind) + " unit: " + e);
    if (u.outputs.value() != units.front().outputs.value())
      errors.push_back(std::string(kind) + " unit outputs differ from the first unit's");
  };
  const std::string tracePath = runDir + "/trace.json";
  const double start = nowS();
  do {
    units.push_back(w->runUnit(false));
    account(units.back(), "untraced");
    if (!o.trace) continue;

    RegistryValues before, after;
    std::string err;
    if (!parseRegistry(registrySnapshot(), before, &err))
      errors.push_back("registry snapshot: " + err);
    const std::uint64_t allocs0 = allocCount();
    setAllocCounting(true);
    crl::obs::TraceSink::global().start(tracePath);
    UnitOutcome u = w->runUnit(true);
    crl::obs::TraceSink::global().stop();
    setAllocCounting(false);
    const double allocs = static_cast<double>(allocCount() - allocs0);
    if (!parseRegistry(registrySnapshot(), after, &err))
      errors.push_back("registry snapshot: " + err);
    std::vector<Span> spans;
    if (!parseTrace(slurp(tracePath), spans, &err)) errors.push_back("trace: " + err);
    fs::remove(tracePath);
    account(u, "traced");
    traced.push_back(layerMetrics(u, registryDelta(before, after), spans, allocs));
  } while (nowS() - start < o.seconds);

  const UnitOutcome& first = units.front();
  std::vector<double> walls, campaignWalls, stepRates, queryRates, latencies;
  for (const UnitOutcome& u : units) {
    walls.push_back(u.wallS);
    if (u.campaignWallS > 0.0) {
      campaignWalls.push_back(u.campaignWallS);
      stepRates.push_back(u.trainSteps / u.campaignWallS);
    }
    if (u.deployWallS > 0.0) queryRates.push_back(static_cast<double>(u.queries) / u.deployWallS);
    latencies.insert(latencies.end(), u.latenciesS.begin(), u.latenciesS.end());
  }
  double trainAccuracy = first.trainAccuracy;
  if (w->trainsInSetup()) {
    // A few seconds of set-up training: pool the set-ups (one sample each
    // would leave the median at the mercy of a single slow second).
    double wall = 0.0, steps = 0.0;
    for (const auto& s : w->setupTraining()) {
      wall += s.campaignWallS;
      steps += s.trainSteps;
    }
    campaignWalls.push_back(wall / static_cast<double>(w->setupTraining().size()));
    stepRates.push_back(steps / wall);
    trainAccuracy = w->setupTraining().front().accuracy;
  }
  if (campaignWalls.empty() || queryRates.empty())
    errors.push_back("a unit trained or deployed nothing");
  if (first.latenciesS.size() < 100 || samplesBeyond(first.latenciesS.size(), 0.9) < 10)
    errors.push_back("fewer than 100 clocked queries per unit: p90 is not reportable");

  std::vector<Metric> metrics;
  const auto med = [](const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); };
  if (!o.trace) {
    const double served = static_cast<double>(first.queries - first.queriesFailed);
    metrics = {
        {"setup_s", "s", median(setupS)},
        {"train_steps_per_s", "1/s", med(stepRates)},
        {"campaign_wall_s", "s", med(campaignWalls)},
        {"train_final_accuracy", "ratio", trainAccuracy},
        {"deploy_queries_per_s", "1/s", med(queryRates)},
        {"deploy_query_p50_ms", "ms", latencies.empty() ? 0.0 : percentile(latencies, 0.5) * 1e3},
        {"deploy_query_p90_ms", "ms", latencies.empty() ? 0.0 : percentile(latencies, 0.9) * 1e3},
        {"deploy_accuracy", "ratio",
         first.queries > 0 ? static_cast<double>(first.successes) / first.queries : 0.0},
        {"deploy_mean_steps", "count", served > 0.0 ? first.totalSteps / served : 0.0},
        {"op_success_ratio", "ratio",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted)},
        {"peak_rss_mib", "MiB", peakRssMiB()},
    };
    std::fprintf(stderr, "  %zu unit(s), unit wall median %.4f s\n", units.size(), med(walls));
  } else {
    // Per-layer metrics: median over the traced units.
    for (std::size_t m = 0; m < traced.front().metrics.size(); ++m) {
      std::vector<double> v;
      for (const TracedUnit& t : traced) v.push_back(t.metrics[m].value);
      const Metric& name = traced.front().metrics[m];
      metrics.push_back({name.name, name.unit, median(v)});
    }
    std::vector<double> shares, tracedWalls;
    for (const TracedUnit& t : traced) {
      shares.push_back(t.attributedShare);
      tracedWalls.push_back(t.wallS);
    }
    metrics.push_back({"attributed_share", "ratio", median(shares)});
    metrics.push_back({"trace_overhead_ratio", "ratio", median(tracedWalls) / med(walls)});
    std::fprintf(stderr, "  %zu traced / %zu untraced unit(s); last traced unit:\n",
                 traced.size(), units.size());
    printLayerTable(traced.back());
    if (!o.report.empty()) {
      std::ofstream(o.report) << reportJson(o, digest, traced, med(walls), metrics);
      std::fprintf(stderr, "  report written to %s\n", o.report.c_str());
    }
  }
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"input_digest\": \"%s\"}}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              digest.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              errors.empty() ? "true" : "false", attempted, failed,
              metricsJson(metrics).c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parseArgs(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 3;
  }
}
