#pragma once
// Observation-only wrappers around the program's public layer interfaces.
// Each forwards every call to the object it wraps and records a span (into
// the program's own obs::TraceSink, so wrapper spans and the program's spans
// share one timebase and one thread numbering) around the calls that belong
// to its layer. Nothing here changes an argument or a result: the traced run
// reproduces the untraced run bit for bit, and the benchmark checks that.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/benchmark.h"
#include "core/campaign_jobs.h"
#include "core/policies.h"
#include "rl/campaign.h"
#include "rl/env.h"
#include "rl/policy.h"

namespace e2e {

/// Counts the wrappers keep beyond what the spans carry (reset per unit).
struct Tally {
  std::atomic<std::uint64_t> invalidMeasures{0};
  std::atomic<std::uint64_t> checkpoints{0};
  std::atomic<std::uint64_t> checkpointBytes{0};
  void reset();
};
Tally& tally();

/// Heap allocations counted by the binary's operator new replacement while
/// counting is on (off by default: one relaxed load per allocation).
void setAllocCounting(bool on);
std::uint64_t allocCount();

/// circuit::Benchmark wrapper: records "circuit.measure" around measure().
class TracedBenchmark final : public crl::circuit::Benchmark {
 public:
  explicit TracedBenchmark(std::unique_ptr<crl::circuit::Benchmark> inner);

  const std::string& name() const override { return inner_->name(); }
  const crl::circuit::DesignSpace& designSpace() const override {
    return inner_->designSpace();
  }
  const crl::circuit::SpecSpace& specSpace() const override { return inner_->specSpace(); }
  const crl::circuit::CircuitGraph& graph() const override { return inner_->graph(); }
  const std::vector<double>& currentParams() const override {
    return inner_->currentParams();
  }
  void setParams(const std::vector<double>& params) override { inner_->setParams(params); }
  crl::circuit::Measurement measure(crl::circuit::Fidelity fidelity) override;
  long simCount(crl::circuit::Fidelity fidelity) const override {
    return inner_->simCount(fidelity);
  }
  void addSimCount(crl::circuit::Fidelity fidelity, long n) override {
    inner_->addSimCount(fidelity, n);
  }
  std::vector<double> worstSpecs() const override { return inner_->worstSpecs(); }
  std::unique_ptr<crl::circuit::Benchmark> clone() const override {
    return std::make_unique<TracedBenchmark>(inner_->clone());
  }
  void resetSolverState() override { inner_->resetSolverState(); }
  std::string solverStateSnapshot() const override {
    return inner_->solverStateSnapshot();
  }
  bool restoreSolverStateSnapshot(const std::string& blob) override {
    return inner_->restoreSolverStateSnapshot(blob);
  }

 private:
  std::unique_ptr<crl::circuit::Benchmark> inner_;
};

/// rl::Env wrapper: records "envs.reset" / "envs.step" spans when `spans` is
/// set, and always clocks deployment queries: from resetWithTarget() to the
/// return of the step that retires the lane (done, or the step limit) — the
/// lane lifetime runDeploymentBatch serves a query in.
class ObservedEnv final : public crl::rl::Env {
 public:
  ObservedEnv(std::unique_ptr<crl::rl::Env> inner, bool spans);

  crl::rl::Observation reset(crl::util::Rng& rng) override;
  crl::rl::Observation resetWithTarget(const std::vector<double>& target,
                                       crl::util::Rng& rng) override;
  crl::rl::StepResult step(const std::vector<int>& actions) override;

  std::size_t numParams() const override { return inner_->numParams(); }
  std::size_t numSpecs() const override { return inner_->numSpecs(); }
  int maxSteps() const override { return inner_->maxSteps(); }
  const crl::linalg::Mat& normalizedAdjacency() const override {
    return inner_->normalizedAdjacency();
  }
  const crl::linalg::Mat& attentionMask() const override {
    return inner_->attentionMask();
  }
  std::size_t graphNodeCount() const override { return inner_->graphNodeCount(); }
  std::size_t graphFeatureDim() const override { return inner_->graphFeatureDim(); }
  const std::vector<double>& rawTarget() const override { return inner_->rawTarget(); }
  const std::vector<double>& rawSpecs() const override { return inner_->rawSpecs(); }
  const std::vector<double>& currentParams() const override {
    return inner_->currentParams();
  }

  /// Seconds per retired query, in retirement order.
  const std::vector<double>& queryLatencies() const { return latencies_; }

 private:
  std::unique_ptr<crl::rl::Env> inner_;
  bool spans_;
  std::int64_t queryStartNs_ = -1;  ///< -1: no deployment query in flight
  int querySteps_ = 0;
  std::vector<double> latencies_;
};

/// rl::ActorCritic wrapper: "rl.policy.infer" around forward/forwardBatch
/// (action selection, with or without a NoGradGuard), and
/// "rl.policy.forward_stacked" around the update's stacked forward.
class TracedPolicy final : public crl::rl::ActorCritic {
 public:
  explicit TracedPolicy(const crl::rl::ActorCritic& inner) : inner_(inner) {}

  crl::rl::PolicyOutput forward(const crl::rl::Observation& obs) const override;
  std::vector<crl::rl::PolicyOutput> forwardBatch(
      const std::vector<crl::rl::Observation>& obs) const override;
  crl::rl::BatchedPolicyOutput forwardBatchStacked(
      const std::vector<crl::rl::Observation>& obs) const override;
  std::vector<crl::nn::Tensor> parameters() const override { return inner_.parameters(); }
  const char* name() const override { return inner_.name(); }
  bool adaptLegacyParameterMats(std::vector<crl::linalg::Mat>& mats) const override {
    return inner_.adaptLegacyParameterMats(mats);
  }

 private:
  const crl::rl::ActorCritic& inner_;
};

using JobSpec = crl::core::SizingJobSpec;

/// The circuit of a job, with its process corner applied the way
/// core::makeSizingContext applies it.
std::unique_ptr<crl::circuit::Benchmark> makeCircuit(const JobSpec& spec);
/// Episode step limit of the circuit's sizing env (50 CMOS, 30 RF PA).
int maxStepsFor(crl::core::CampaignCircuit circuit);
/// A fresh, untrained policy of the job's kind for an env of its circuit.
std::unique_ptr<crl::core::MultimodalPolicy> makeJobPolicy(const JobSpec& spec,
                                                           const crl::rl::Env& env);

/// The campaign context core::makeSizingContext builds, assembled from the
/// same public constructors so each layer can be wrapped: with `traced` the
/// benchmark, train env, policy and evaluate() record spans. One difference:
/// every circuit is probed in its training env, so the RF PA evaluates in
/// coarse fidelity (the deploy workload's set-up training, untraced).
class BenchContext final : public crl::rl::CampaignContext {
 public:
  BenchContext(const JobSpec& spec, bool traced);

  crl::rl::Env& trainEnv() override { return *trainEnv_; }
  crl::rl::ActorCritic& policy() override;
  crl::rl::CampaignEvalReport evaluate(int episodes, crl::util::Rng& rng) override;
  std::vector<std::string> solverSnapshots() const override {
    return {bench_->solverStateSnapshot()};
  }
  bool restoreSolverSnapshots(const std::vector<std::string>& blobs) override {
    return blobs.size() == 1 && bench_->restoreSolverStateSnapshot(blobs[0]);
  }

 private:
  std::unique_ptr<crl::circuit::Benchmark> bench_;
  std::unique_ptr<crl::rl::Env> trainEnv_;
  std::unique_ptr<crl::core::MultimodalPolicy> policy_;
  std::unique_ptr<TracedPolicy> tracedPolicy_;
};

}  // namespace e2e
