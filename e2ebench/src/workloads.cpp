#include "workloads.h"

#include <cmath>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/campaign_jobs.h"
#include "core/deploy.h"
#include "envs/sizing_env.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "observe.h"
#include "rl/campaign.h"
#include "rl/vec_env.h"
#include "util/thread_pool.h"

namespace e2e {

namespace {

using namespace crl;
namespace fs = std::filesystem;

/// Deployment lanes (rl::VecEnv size) of every workload.
constexpr std::size_t kLanes = 4;

/// A workload's fixed recipe. The workload seed never changes it.
struct Recipe {
  core::CampaignAxes axes;
  std::size_t trainWorkers = 1;
  int checkpointEvery = 0;
  /// Train once in set-up (coarse RF PA, evaluated in the training
  /// fidelity) and only deploy in the unit.
  bool trainInSetup = false;
  std::size_t deployPoolWorkers = 0;  ///< 0: lanes step serially on the caller
  std::size_t queriesPerPolicy = 100;
};

Recipe recipeFor(const std::string& name) {
  Recipe r;
  r.axes.seeds = 1;
  if (name == "train-opamp-gatfc") {
    // The ROADMAP reference: one fig3-shaped op-amp GAT-FC job, 1 worker.
    r.axes.circuits = {core::CampaignCircuit::OpAmp};
    r.axes.kinds = {core::PolicyKind::GatFc};
    r.axes.corners = {"nominal"};
    r.axes.episodes = 150;
    r.checkpointEvery = 50;
    r.queriesPerPolicy = 100;
  } else if (name == "deploy-rfpa-fine") {
    r.axes.circuits = {core::CampaignCircuit::RfPa};
    r.axes.kinds = {core::PolicyKind::GcnFc};
    r.axes.corners = {"nominal"};
    r.axes.episodes = 400;
    r.trainInSetup = true;
    r.deployPoolWorkers = 4;
    r.queriesPerPolicy = 320;
  } else if (name == "fleet-w4") {
    r.axes.circuits = {core::CampaignCircuit::OpAmp, core::CampaignCircuit::Ota};
    r.axes.kinds = {core::PolicyKind::GcnFc, core::PolicyKind::BaselineA};
    r.axes.corners = {"slow", "fast"};
    r.axes.episodes = 100;
    r.trainWorkers = 4;
    r.checkpointEvery = 10;
    r.deployPoolWorkers = 4;
    r.queriesPerPolicy = 64;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return r;
}

double cornerScale(const std::string& corner, double spread) {
  if (corner == "slow") return 1.0 - spread;
  if (corner == "fast") return 1.0 + spread;
  return 1.0;
}

/// One trained policy's deployment plan: its queries in serving order.
/// Query q asks for targets[q]; its lane's RNG is seeded with startSeeds[q]
/// just before the query, so the random initial sizing belongs to the query
/// wherever it is served.
struct Plan {
  std::vector<std::vector<double>> targets;
  std::vector<std::uint64_t> startSeeds;
};

struct Inputs {
  std::vector<rl::CampaignJob> jobs;
  std::vector<JobSpec> specs;  ///< aligned with jobs
  std::vector<Plan> plans;     ///< aligned with jobs
  Digest digest;
};

void digestJob(Digest& d, const rl::CampaignJob& job) {
  d.str(job.name);
  d.u64(static_cast<std::uint64_t>(job.episodes));
  d.u64(job.trainSeed);
  d.u64(job.evalSeed);
  d.u64(job.finalEvalSeed);
  d.u64(static_cast<std::uint64_t>(job.evalEvery));
  d.u64(static_cast<std::uint64_t>(job.evalEpisodes));
}

void digestPlan(Digest& d, const Plan& p) {
  d.u64(p.targets.size());
  for (std::size_t q = 0; q < p.targets.size(); ++q) {
    d.u64(p.startSeeds[q]);
    for (double v : p.targets[q]) d.f64(v);
  }
}

/// Latin-hypercube spec targets: each spec's sampling range (linear or log,
/// as circuit::SpecSpace::sample draws it) is cut into n strata and every
/// stratum is used once, in a random order per spec. The marginals match
/// SpecSpace::sample with an even cover of every range.
std::vector<std::vector<double>> lhsTargets(const circuit::SpecSpace& space, std::size_t n,
                                            util::Rng& gen) {
  std::vector<std::vector<double>> targets(n, std::vector<double>(space.size()));
  for (std::size_t i = 0; i < space.size(); ++i) {
    const circuit::SpecDef& d = space.spec(i);
    const std::vector<std::size_t> strata = gen.permutation(n);
    for (std::size_t q = 0; q < n; ++q) {
      const double u = (static_cast<double>(strata[q]) + gen.uniform()) / static_cast<double>(n);
      targets[q][i] = d.logScale ? std::exp(std::log(d.sampleMin) +
                                            u * (std::log(d.sampleMax) - std::log(d.sampleMin)))
                                 : d.sampleMin + u * (d.sampleMax - d.sampleMin);
    }
  }
  return targets;
}

/// Seed of the query catalogues. The queries each policy serves — spec
/// targets and initial sizings — are the same for every workload seed: how
/// many of them are hard (run to the step limit) would otherwise move every
/// deployment metric from seed to seed by more than the benchmark's bounds.
constexpr std::uint64_t kCatalogueSeed = 20220710;

/// The job grid comes from core::buildSizingJobs unchanged. Each policy
/// serves a catalogue of queries (Latin-hypercube spec targets, each with
/// its own initial-sizing seed); the workload seed draws the order they
/// arrive in, which decides the waves: which queries share one, in which
/// lane, and so which lanes idle behind a straggler.
Inputs makeInputs(const Recipe& r, std::uint64_t seed) {
  Inputs in;
  in.jobs = core::buildSizingJobs(r.axes);
  // buildSizingJobs' nesting order; the names pin the correspondence.
  for (core::CampaignCircuit c : r.axes.circuits)
    for (core::PolicyKind k : r.axes.kinds)
      for (const std::string& corner : r.axes.corners)
        for (int s = 0; s < r.axes.seeds; ++s) {
          const std::size_t i = in.specs.size();
          std::string expect = std::string(core::campaignCircuitName(c)) + "_" +
                               core::policyKindName(k) + "_" + corner + "_s" +
                               std::to_string(s);
          if (i >= in.jobs.size() || in.jobs[i].name != expect)
            throw std::runtime_error("job grid order changed: expected " + expect);
          in.specs.push_back({c, k, s, cornerScale(corner, r.axes.cornerSpread), 1});
        }
  if (in.specs.size() != in.jobs.size())
    throw std::runtime_error("job grid size changed");

  util::Rng catalogue(kCatalogueSeed), gen(seed);
  for (const JobSpec& spec : in.specs) {
    const auto targets =
        lhsTargets(makeCircuit(spec)->specSpace(), r.queriesPerPolicy, catalogue);
    std::vector<std::uint64_t> starts;
    for (std::size_t q = 0; q < targets.size(); ++q) starts.push_back(catalogue.engine()());
    Plan p;
    for (std::size_t q : gen.permutation(targets.size())) {
      p.targets.push_back(targets[q]);
      p.startSeeds.push_back(starts[q]);
    }
    in.plans.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    digestJob(in.digest, in.jobs[i]);
    digestPlan(in.digest, in.plans[i]);
  }
  return in;
}

double secondsSince(std::int64_t startNs) {
  return static_cast<double>(obs::monotonicNowNs() - startNs) / 1e9;
}

bool allFinite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

void addPoolStats(UnitOutcome& out, const util::ThreadPool::Stats& before,
                  const util::ThreadPool::Stats& after) {
  out.poolBusyS += after.busySeconds - before.busySeconds;
  out.poolCapacityS +=
      (after.wallSeconds - before.wallSeconds) * static_cast<double>(after.workers);
  out.poolTasks += static_cast<double>(after.tasksExecuted - before.tasksExecuted);
  out.poolSteals += static_cast<double>(after.tasksStolen - before.tasksStolen);
}

class SizingWorkload final : public Workload {
 public:
  SizingWorkload(Recipe recipe, std::uint64_t seed, std::string runDir)
      : recipe_(std::move(recipe)), seed_(seed), runDir_(std::move(runDir)),
        inputs_(makeInputs(recipe_, seed_)) {}

  const Digest& inputDigest() const override { return inputs_.digest; }
  Digest regenerateInputDigest() const override {
    return makeInputs(recipe_, seed_).digest;
  }
  bool trainsInSetup() const override { return recipe_.trainInSetup; }

  std::vector<std::string> setup() override {
    std::vector<std::string> errors;
    pool_.reset();
    setupPolicies_.clear();

    if (recipe_.trainInSetup) {
      // The served policy: the recipe's grid trained on the coarse RF PA
      // env from its fixed seeds, evaluated in the same coarse fidelity.
      std::vector<rl::CampaignJob> jobs = inputs_.jobs;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobSpec spec = inputs_.specs[i];
        jobs[i].make = [spec]() -> std::unique_ptr<rl::CampaignContext> {
          return std::make_unique<BenchContext>(spec, /*traced=*/false);
        };
      }
      UnitOutcome train;
      setupPolicies_ = trainJobs(jobs, nextDir("setup"), false, train);
      errors = train.errors;
      setupTraining_.push_back({train.campaignWallS, train.trainSteps, train.trainAccuracy});
      Digest params;
      for (const auto& p : setupPolicies_)
        for (const nn::Tensor& t : p->parameters())
          params.bytes(t.value().data(), t.value().size() * sizeof(double));
      if (setupParams_ && setupParams_->value() != params.value())
        errors.push_back("set-up training is not deterministic: policy bits differ");
      setupParams_ = params;
    } else {
      // Warm-up: a few episodes of the first job (update, checkpoint and
      // artifact paths included), so the unit starts with warm caches.
      rl::CampaignJob warm = inputs_.jobs.front();
      warm.episodes = 4;
      rl::CampaignConfig cfg;
      cfg.outDir = nextDir("warmup");
      cfg.checkpointEvery = 2;
      rl::CampaignRunner runner(cfg);
      runner.addJob(std::move(warm));
      for (const auto& r : runner.run())
        if (r.failed) errors.push_back("warm-up job failed: " + r.error);
      fs::remove_all(cfg.outDir);
    }
    if (recipe_.deployPoolWorkers > 0)
      pool_ = std::make_unique<util::ThreadPool>(recipe_.deployPoolWorkers);
    // Warm the deployment path with one wave of an untrained policy.
    const JobSpec& spec = inputs_.specs.front();
    auto bench = makeCircuit(spec);
    envs::SizingEnv env(*bench, {.maxSteps = maxStepsFor(spec.circuit)});
    const auto policy = makeJobPolicy(spec, env);
    Plan warm = inputs_.plans.front();
    warm.targets.resize(std::min(warm.targets.size(), kLanes));
    warm.startSeeds.resize(warm.targets.size());
    UnitOutcome scratch;
    deploy(spec, *policy, warm, false, scratch);
    return errors;
  }

  UnitOutcome runUnit(bool traced) override {
    UnitOutcome out;
    tally().reset();
    const std::int64_t t0 = obs::monotonicNowNs();
    {
      obs::TraceSpan root("bench.unit", "e2ebench");
      std::vector<std::unique_ptr<core::MultimodalPolicy>> trained;
      if (!recipe_.trainInSetup)
        trained = trainJobs(unitJobs(traced), nextDir("unit"), traced, out);
      const auto& policies = recipe_.trainInSetup ? setupPolicies_ : trained;
      for (std::size_t i = 0; i < policies.size(); ++i)
        deploy(inputs_.specs[i], *policies[i], inputs_.plans[i], traced, out);
    }
    out.wallS = secondsSince(t0);
    return out;
  }

 private:
  std::string nextDir(const char* what) {
    return runDir_ + "/" + what + "-" + std::to_string(dirCounter_++);
  }

  /// The unit's job grid: the program's own contexts untraced, the
  /// benchmark's wrapped copies traced.
  std::vector<rl::CampaignJob> unitJobs(bool traced) const {
    std::vector<rl::CampaignJob> jobs = inputs_.jobs;
    if (traced)
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobSpec spec = inputs_.specs[i];
        jobs[i].make = [spec]() -> std::unique_ptr<rl::CampaignContext> {
          return std::make_unique<BenchContext>(spec, /*traced=*/true);
        };
      }
    return jobs;
  }

  /// Run the campaign, check every job and artifact, and load the trained
  /// policies (aligned with `jobs`; empty if any job failed).
  std::vector<std::unique_ptr<core::MultimodalPolicy>> trainJobs(
      std::vector<rl::CampaignJob> jobs, const std::string& dir, bool traced,
      UnitOutcome& out) {
    rl::CampaignConfig cfg;
    cfg.outDir = dir;
    cfg.workers = recipe_.trainWorkers;
    cfg.checkpointEvery = recipe_.checkpointEvery;
    if (traced)
      cfg.onCheckpoint = [dir](const std::string& job, int) {
        std::error_code ec;
        const auto bytes = fs::file_size(dir + "/" + job + "/checkpoint.bin", ec);
        tally().checkpoints.fetch_add(1, std::memory_order_relaxed);
        if (!ec) tally().checkpointBytes.fetch_add(bytes, std::memory_order_relaxed);
      };
    rl::CampaignRunner runner(cfg);
    for (auto& job : jobs) runner.addJob(std::move(job));

    auto& envSteps = obs::counter("rl.ppo.env_steps");
    const double steps0 = static_cast<double>(envSteps.value());
    const std::int64_t t0 = obs::monotonicNowNs();
    const std::vector<rl::CampaignJobResult> results = runner.run();
    out.campaignWallS += secondsSince(t0);
    out.trainSteps += static_cast<double>(envSteps.value()) - steps0;
    if (runner.poolStats().workers > 0) addPoolStats(out, {}, runner.poolStats());

    std::vector<std::unique_ptr<core::MultimodalPolicy>> policies;
    double accuracy = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const rl::CampaignJobResult& r = results[i];
      const JobSpec& spec = inputs_.specs[i];
      ++out.jobs;
      if (r.failed || r.quarantined) {
        ++out.jobsFailed;
        out.errors.push_back("job " + r.name + " failed: " + r.error);
        continue;
      }
      if (r.skipped || !fs::exists(r.dir + "/done"))
        out.errors.push_back("job " + r.name + " did not finish done");
      if (!(r.finalAccuracy >= 0.0 && r.finalAccuracy <= 1.0))
        out.errors.push_back("job " + r.name + " accuracy outside [0,1]");
      if (!std::isfinite(r.finalMeanReward) || !std::isfinite(r.finalMeanLength))
        out.errors.push_back("job " + r.name + " has a non-finite final reward");
      accuracy += r.finalAccuracy;
      out.outputs.str(r.name);
      out.outputs.f64(r.finalMeanReward);
      out.outputs.f64(r.finalMeanLength);
      out.outputs.f64(r.finalAccuracy);
      out.outputs.f64(r.finalMeanStepsSuccess);

      auto bench = makeCircuit(spec);
      envs::SizingEnv env(*bench, {.maxSteps = maxStepsFor(spec.circuit)});
      auto policy = makeJobPolicy(spec, env);
      std::vector<nn::Tensor> params = policy->parameters();
      std::string err;
      const std::string path = r.dir + "/policy.bin";
      if (nn::loadParametersDetailed(path, params, &err) != nn::LoadResult::Ok) {
        out.errors.push_back(path + " does not load: " + err);
        continue;
      }
      std::string bytes;
      nn::readFile(path, bytes);
      out.outputs.str(bytes);
      policies.push_back(std::move(policy));
    }
    if (!results.empty()) out.trainAccuracy = accuracy / static_cast<double>(results.size());
    fs::remove_all(dir);
    if (policies.size() != results.size()) policies.clear();
    return policies;
  }

  /// Serve one policy's targets through core::runDeploymentBatch over a
  /// fresh VecEnv (lanes start from clean solver state every unit).
  void deploy(const JobSpec& spec, const rl::ActorCritic& policy, const Plan& plan,
              bool traced, UnitOutcome& out) {
    std::vector<const ObservedEnv*> observed(kLanes, nullptr);
    rl::VecEnv vec(
        kLanes,
        [&](std::size_t i) {
          std::shared_ptr<circuit::Benchmark> bench =
              traced ? std::make_unique<TracedBenchmark>(makeCircuit(spec)) : makeCircuit(spec);
          auto env = std::make_unique<ObservedEnv>(
              std::make_unique<envs::SizingEnv>(
                  *bench, envs::SizingEnvConfig{.maxSteps = maxStepsFor(spec.circuit)}),
              traced);
          observed[i] = env.get();
          rl::EnvLane lane;
          lane.env = std::move(env);
          lane.keepAlive = std::move(bench);
          return lane;
        },
        /*baseSeed=*/0, pool_.get());
    TracedPolicy tracedPolicy(policy);
    const rl::ActorCritic& served = traced ? tracedPolicy : policy;

    // One runDeploymentBatch call per wave, each lane's RNG seeded with its
    // query's start seed first: lane k serves the wave's k-th query.
    const util::ThreadPool::Stats before = pool_ ? pool_->stats() : util::ThreadPool::Stats{};
    std::vector<core::DeploymentResult> results;
    for (std::size_t first = 0; first < plan.targets.size(); first += kLanes) {
      const std::size_t end = std::min(plan.targets.size(), first + kLanes);
      std::vector<std::vector<double>> wave;
      for (std::size_t q = first; q < end; ++q) {
        vec.laneRng(q - first) = util::Rng(plan.startSeeds[q]);
        wave.push_back(plan.targets[q]);
      }
      const std::int64_t t0 = obs::monotonicNowNs();
      std::vector<core::DeploymentResult> part;
      {
        obs::TraceSpan span("core.deploy", "e2ebench");
        part = core::runDeploymentBatch(vec, served, wave);
      }
      out.deployWallS += secondsSince(t0);
      results.insert(results.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
    }
    if (pool_) addPoolStats(out, before, pool_->stats());

    if (results.size() != plan.targets.size()) {
      out.errors.push_back("deployment returned " + std::to_string(results.size()) +
                           " results for " + std::to_string(plan.targets.size()) +
                           " targets");
      return;
    }
    const int maxSteps = maxStepsFor(spec.circuit);
    std::vector<int> steps;
    std::size_t servedOk = 0;
    for (const core::DeploymentResult& r : results) {
      ++out.queries;
      steps.push_back(r.steps);
      out.outputs.u64(r.success);
      out.outputs.u64(static_cast<std::uint64_t>(r.steps));
      out.outputs.u64(r.failed);
      for (double v : r.finalParams) out.outputs.f64(v);
      for (double v : r.finalSpecs) out.outputs.f64(v);
      if (r.failed) {
        ++out.queriesFailed;
        continue;
      }
      ++servedOk;
      if (r.success) ++out.successes;
      out.totalSteps += r.steps;
      if (r.steps < 1 || r.steps > maxSteps)
        out.errors.push_back("deployment step count outside [1, maxSteps]");
      if (r.finalSpecs.size() != plan.targets.front().size() || !allFinite(r.finalSpecs) ||
          !allFinite(r.finalParams))
        out.errors.push_back("deployment returned a non-finite or misshapen spec");
    }
    std::size_t clocked = 0;
    for (const ObservedEnv* env : observed) {
      out.latenciesS.insert(out.latenciesS.end(), env->queryLatencies().begin(),
                            env->queryLatencies().end());
      clocked += env->queryLatencies().size();
    }
    if (clocked != servedOk)
      out.errors.push_back("query clock saw " + std::to_string(clocked) + " of " +
                           std::to_string(servedOk) + " served queries");
    out.waves += waveCount(results.size(), kLanes);
    out.load += waveLoad(steps, kLanes);
  }

  Recipe recipe_;
  std::uint64_t seed_;
  std::string runDir_;
  Inputs inputs_;
  int dirCounter_ = 0;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::unique_ptr<core::MultimodalPolicy>> setupPolicies_;
  std::optional<Digest> setupParams_;
};

}  // namespace

std::unique_ptr<Workload> Workload::create(const std::string& name, std::uint64_t seed,
                                           const std::string& runDir) {
  return std::make_unique<SizingWorkload>(recipeFor(name), seed, runDir);
}

}  // namespace e2e
