#pragma once
// The benchmark's three workloads. Each is a fixed recipe (circuits, policy
// kinds, corners, episode budgets, worker counts, checkpoint cadence) plus a
// fixed catalogue of deployment queries; the workload seed draws the order
// the queries arrive in. A "unit" is one end-to-end pass the benchmark times
// and repeats: train the job grid (train workloads) and deploy the resulting
// policies on the queries.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis.h"

namespace e2e {

/// Everything one unit produced and cost.
struct UnitOutcome {
  double wallS = 0.0;

  // Training phase (the train workloads train inside the unit).
  double campaignWallS = 0.0;
  double trainSteps = 0.0;     ///< env steps trained (rl.ppo.env_steps delta)
  std::size_t jobs = 0;
  std::size_t jobsFailed = 0;  ///< failed or quarantined
  double trainAccuracy = 0.0;  ///< mean final deploy accuracy over the jobs

  // Deployment phase.
  double deployWallS = 0.0;
  std::size_t queries = 0;
  std::size_t queriesFailed = 0;
  std::size_t successes = 0;
  double totalSteps = 0.0;
  std::vector<double> latenciesS;
  std::size_t waves = 0;
  WaveLoad load;

  // Pool telemetry (util::ThreadPool::Stats) summed over the unit's pools.
  double poolBusyS = 0.0;
  double poolCapacityS = 0.0;  ///< wall x workers
  double poolTasks = 0.0;
  double poolSteals = 0.0;

  Digest outputs;  ///< rewards, accuracies, artifacts, deploy outcomes
  std::vector<std::string> errors;  ///< failed correctness checks
};

class Workload {
 public:
  /// Throws std::invalid_argument on an unknown name.
  static std::unique_ptr<Workload> create(const std::string& name, std::uint64_t seed,
                                          const std::string& runDir);

  virtual ~Workload() = default;

  /// Digest of the generated inputs (job grid + deployment targets).
  virtual const Digest& inputDigest() const = 0;
  /// Regenerate the inputs from the seed and digest them again.
  virtual Digest regenerateInputDigest() const = 0;
  /// Build pools, train set-up policies, warm caches. A repeat rebuilds the
  /// same state from scratch. Returns failed checks (empty = fine).
  virtual std::vector<std::string> setup() = 0;
  virtual UnitOutcome runUnit(bool traced) = 0;

  /// The deploy workload trains its policy in set-up; these report that
  /// training (one entry per set-up) so every workload has training metrics.
  struct SetupTraining {
    double campaignWallS = 0.0;
    double trainSteps = 0.0;
    double accuracy = 0.0;
  };
  virtual bool trainsInSetup() const = 0;
  const std::vector<SetupTraining>& setupTraining() const { return setupTraining_; }

 protected:
  std::vector<SetupTraining> setupTraining_;
};

}  // namespace e2e
