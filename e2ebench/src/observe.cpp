#include "observe.h"

#include <cstdlib>
#include <new>
#include <utility>

#include "circuit/opamp.h"
#include "circuit/ota.h"
#include "circuit/rfpa.h"
#include "core/deploy.h"
#include "envs/sizing_env.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

std::atomic<bool> gCountAllocs{false};
std::atomic<std::uint64_t> gAllocs{0};

void* countedAlloc(std::size_t n) {
  if (gCountAllocs.load(std::memory_order_relaxed))
    gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Global replacement (this binary only): the allocation count behind the
// alloc.per_env_step layer metric.
void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace e2e {

using namespace crl;

void Tally::reset() {
  invalidMeasures = 0;
  checkpoints = 0;
  checkpointBytes = 0;
}

Tally& tally() {
  static Tally t;
  return t;
}

void setAllocCounting(bool on) { gCountAllocs.store(on, std::memory_order_relaxed); }
std::uint64_t allocCount() { return gAllocs.load(std::memory_order_relaxed); }

TracedBenchmark::TracedBenchmark(std::unique_ptr<circuit::Benchmark> inner)
    : inner_(std::move(inner)) {}

circuit::Measurement TracedBenchmark::measure(circuit::Fidelity fidelity) {
  obs::TraceSpan span("circuit.measure", "e2ebench");
  circuit::Measurement m = inner_->measure(fidelity);
  if (!m.valid) tally().invalidMeasures.fetch_add(1, std::memory_order_relaxed);
  return m;
}

ObservedEnv::ObservedEnv(std::unique_ptr<rl::Env> inner, bool spans)
    : inner_(std::move(inner)), spans_(spans) {}

rl::Observation ObservedEnv::reset(util::Rng& rng) {
  if (!spans_) return inner_->reset(rng);
  obs::TraceSpan span("envs.reset", "e2ebench");
  return inner_->reset(rng);
}

rl::Observation ObservedEnv::resetWithTarget(const std::vector<double>& target,
                                             util::Rng& rng) {
  queryStartNs_ = obs::monotonicNowNs();
  querySteps_ = 0;
  if (!spans_) return inner_->resetWithTarget(target, rng);
  obs::TraceSpan span("envs.reset", "e2ebench");
  return inner_->resetWithTarget(target, rng);
}

rl::StepResult ObservedEnv::step(const std::vector<int>& actions) {
  rl::StepResult r;
  if (spans_) {
    obs::TraceSpan span("envs.step", "e2ebench");
    r = inner_->step(actions);
  } else {
    r = inner_->step(actions);
  }
  if (queryStartNs_ >= 0 && (r.done || ++querySteps_ >= inner_->maxSteps())) {
    latencies_.push_back(static_cast<double>(obs::monotonicNowNs() - queryStartNs_) / 1e9);
    queryStartNs_ = -1;
  }
  return r;
}

rl::PolicyOutput TracedPolicy::forward(const rl::Observation& obs) const {
  obs::TraceSpan span("rl.policy.infer", "e2ebench");
  return inner_.forward(obs);
}

std::vector<rl::PolicyOutput> TracedPolicy::forwardBatch(
    const std::vector<rl::Observation>& obs) const {
  obs::TraceSpan span("rl.policy.infer", "e2ebench");
  return inner_.forwardBatch(obs);
}

rl::BatchedPolicyOutput TracedPolicy::forwardBatchStacked(
    const std::vector<rl::Observation>& obs) const {
  obs::TraceSpan span("rl.policy.forward_stacked", "e2ebench");
  return inner_.forwardBatchStacked(obs);
}

std::unique_ptr<circuit::Benchmark> makeCircuit(const JobSpec& spec) {
  switch (spec.circuit) {
    case core::CampaignCircuit::OpAmp: {
      circuit::OpAmpConfig cfg;
      cfg.kpN *= spec.cornerScale;
      cfg.kpP *= spec.cornerScale;
      return std::make_unique<circuit::TwoStageOpAmp>(cfg);
    }
    case core::CampaignCircuit::Ota: {
      circuit::OtaConfig cfg;
      cfg.kpN *= spec.cornerScale;
      cfg.kpP *= spec.cornerScale;
      return std::make_unique<circuit::FiveTransistorOta>(cfg);
    }
    case core::CampaignCircuit::RfPa: {
      circuit::RfPaConfig cfg;
      cfg.ganModel.ipkPerWidth *= spec.cornerScale;
      return std::make_unique<circuit::GanRfPa>(cfg);
    }
  }
  throw std::invalid_argument("makeCircuit: unknown circuit");
}

int maxStepsFor(core::CampaignCircuit circuit) {
  return circuit == core::CampaignCircuit::RfPa ? 30 : 50;
}

std::unique_ptr<core::MultimodalPolicy> makeJobPolicy(const JobSpec& spec,
                                                      const rl::Env& env) {
  // core::makeSizingContext's init-seed bases: op-amp 100, RF PA 200, OTA 300.
  const std::uint64_t base = spec.circuit == core::CampaignCircuit::OpAmp ? 100
                             : spec.circuit == core::CampaignCircuit::RfPa ? 200
                                                                           : 300;
  util::Rng initRng(base + static_cast<std::uint64_t>(spec.seed));
  return core::makePolicy(spec.kind, env, initRng);
}

BenchContext::BenchContext(const JobSpec& spec, bool traced) {
  bench_ = makeCircuit(spec);
  if (traced) bench_ = std::make_unique<TracedBenchmark>(std::move(bench_));
  trainEnv_ = std::make_unique<envs::SizingEnv>(
      *bench_, envs::SizingEnvConfig{.maxSteps = maxStepsFor(spec.circuit),
                                     .fidelity = spec.circuit == core::CampaignCircuit::RfPa
                                                     ? circuit::Fidelity::Coarse
                                                     : circuit::Fidelity::Fine});
  if (traced) trainEnv_ = std::make_unique<ObservedEnv>(std::move(trainEnv_), /*spans=*/true);
  policy_ = makeJobPolicy(spec, *trainEnv_);
  if (traced) tracedPolicy_ = std::make_unique<TracedPolicy>(*policy_);
}

rl::ActorCritic& BenchContext::policy() {
  if (tracedPolicy_) return *tracedPolicy_;
  return *policy_;
}

rl::CampaignEvalReport BenchContext::evaluate(int episodes, util::Rng& rng) {
  obs::TraceSpan span("rl.campaign.eval", "e2ebench");
  const core::AccuracyReport rep =
      core::evaluateAccuracy(*trainEnv_, policy(), episodes, rng);
  return {rep.accuracy, rep.meanSteps, rep.meanStepsSuccess};
}

}  // namespace e2e
