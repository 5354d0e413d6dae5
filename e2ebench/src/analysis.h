#pragma once
// Pure arithmetic of the end-to-end benchmark: order statistics, span self
// time, deployment wave idleness, registry-snapshot deltas, trace parsing and
// the input digest. Nothing here touches the program under test, so every
// function is unit-tested on hand-built inputs (tests/test_analysis.cpp).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

// ---- order statistics -------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it (q in (0, 1]). Throws std::invalid_argument on an
/// empty sample.
double percentile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-percentile of n samples. A
/// percentile is reported only when at least ten samples lie beyond it.
std::size_t samplesBeyond(std::size_t n, double q);

/// Median (mean of the two middle samples for an even count).
double median(std::vector<double> samples);

// ---- span self time -----------------------------------------------------------

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of intervals (overlaps counted once).
double unionLength(std::vector<Interval> intervals);

/// Self time of `span`: its length minus the part of it that the union of
/// `children` (clipped to the span) covers.
double selfTime(const Interval& span, const std::vector<Interval>& children);

/// One complete trace event, times in microseconds.
struct Span {
  std::string name;
  int tid = 0;
  double startUs = 0.0;
  double endUs = 0.0;
};

struct LayerTime {
  std::size_t calls = 0;
  double busyS = 0.0;              ///< summed span durations
  double selfS = 0.0;              ///< summed self times
  std::vector<double> durationsS;  ///< per-call durations
};

/// Per-name totals over a set of spans. On each thread a span's children are
/// the spans nested directly inside it (the innermost enclosing span is the
/// parent); a partially overlapping span counts as a child of the span it
/// starts in.
std::map<std::string, LayerTime> attribute(std::vector<Span> spans);

/// Summed per-thread extent (union of every span on the thread), seconds.
double threadSeconds(const std::vector<Span>& spans);

// ---- deployment waves -------------------------------------------------------

/// Waves runDeploymentBatch needs for `queries` targets over `lanes` lanes.
std::size_t waveCount(std::size_t queries, std::size_t lanes);

/// Lane-steps a deployment batch ran, and the lane-steps its waves held:
/// each wave lasts as long as its slowest lane, on every lane. `steps` are
/// per-query step counts in target order; wave w holds queries
/// [w*lanes, (w+1)*lanes). A lane left empty in the last wave is idle.
struct WaveLoad {
  double laneSteps = 0.0;
  double capacity = 0.0;
  WaveLoad& operator+=(const WaveLoad& o) {
    laneSteps += o.laneSteps;
    capacity += o.capacity;
    return *this;
  }
  /// 1 - laneSteps / capacity (0 for an empty load).
  double idleShare() const { return capacity > 0.0 ? 1.0 - laneSteps / capacity : 0.0; }
};
WaveLoad waveLoad(const std::vector<int>& steps, std::size_t lanes);

// ---- registry snapshots and traces ---------------------------------------------

/// The parts of an obs::Registry snapshot the benchmark reads.
struct RegistryValues {
  std::map<std::string, double> counters;
  std::map<std::string, double> histogramSum;  ///< seconds observed, per histogram

  double counter(const std::string& name) const;
  double sum(const std::string& name) const;
};

/// Parse a crl.metrics/v1 snapshot through obs::json. Returns false with a
/// message on malformed input or a wrong schema.
bool parseRegistry(const std::string& json, RegistryValues& out, std::string* error);

/// after - before, instrument by instrument (instruments absent before count
/// from zero).
RegistryValues registryDelta(const RegistryValues& before, const RegistryValues& after);

/// Parse the complete ("ph":"X") events of a Chrome trace file.
bool parseTrace(const std::string& json, std::vector<Span>& out, std::string* error);

// ---- input digest -----------------------------------------------------------------

/// FNV-1a 64 over the byte images of the values fed to it.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace e2e
