// Unit tests of the benchmark's own arithmetic (src/analysis.h).
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "analysis.h"

namespace e2e {
namespace {

TEST(Percentile, NearestRankLeavesTenSamplesBeyondP90OfOneHundred) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100, shuffled below
  std::swap(v[0], v[99]);
  std::swap(v[10], v[50]);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
  // Fewer than 100 samples leave fewer than ten beyond p90.
  EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(samplesBeyond(120, 0.9), 12u);
}

TEST(Percentile, EdgesAndErrors) {
  EXPECT_EQ(percentile({3.0}, 0.9), 3.0);
  EXPECT_EQ(percentile({5.0, 1.0}, 0.5), 1.0);
  EXPECT_EQ(percentile({5.0, 1.0}, 1.0), 5.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({4.0, 1.0, 3.0}), 3.0);
}

TEST(SelfTime, SubtractsTheUnionOfOverlappingChildren) {
  // Span [0,10]; children [1,4] and [3,6] overlap on [3,4], [8,12] runs past
  // the span's end: covered = [1,6] + [8,10] = 7, self = 3.
  EXPECT_DOUBLE_EQ(selfTime({0, 10}, {{1, 4}, {3, 6}, {8, 12}}), 3.0);
  EXPECT_DOUBLE_EQ(selfTime({0, 10}, {}), 10.0);
  EXPECT_DOUBLE_EQ(unionLength({{0, 2}, {1, 3}, {5, 6}, {5.5, 5.75}}), 4.0);
}

TEST(SelfTime, AttributeNestsPerThread) {
  // Thread 1: unit [0,100] > step [10,60] > measure [20,50]; infer [60,70].
  // Thread 2 runs a measure at the same time; it is nobody's child on 1.
  const std::vector<Span> spans = {
      {"unit", 1, 0, 100},     {"step", 1, 10, 60}, {"measure", 1, 20, 50},
      {"infer", 1, 60, 70},    {"measure", 2, 15, 45},
  };
  const auto layers = attribute(spans);
  EXPECT_EQ(layers.at("measure").calls, 2u);
  EXPECT_DOUBLE_EQ(layers.at("measure").busyS, 60e-6);
  EXPECT_DOUBLE_EQ(layers.at("step").selfS, 20e-6);
  EXPECT_DOUBLE_EQ(layers.at("unit").selfS, 40e-6);  // 100 - (50 + 10)
  EXPECT_DOUBLE_EQ(threadSeconds(spans), 130e-6);
}

TEST(LaneIdle, HandBuiltWaves) {
  // Wave 0: steps {10, 5, 5, 20} -> capacity 4 x 20 = 80, used 40.
  // Wave 1: one query of 8 steps on 4 lanes -> capacity 32, used 8.
  const WaveLoad load = waveLoad({10, 5, 5, 20, 8}, 4);
  EXPECT_EQ(waveCount(5, 4), 2u);
  EXPECT_DOUBLE_EQ(load.laneSteps, 48.0);
  EXPECT_DOUBLE_EQ(load.capacity, 112.0);
  EXPECT_DOUBLE_EQ(load.idleShare(), 1.0 - 48.0 / 112.0);
  // Equal lanes are never idle.
  EXPECT_DOUBLE_EQ(waveLoad({7, 7, 7, 7}, 4).idleShare(), 0.0);
  EXPECT_DOUBLE_EQ(WaveLoad{}.idleShare(), 0.0);
}

TEST(Registry, DeltaParsesThroughObsJson) {
  const std::string before =
      R"({"schema":"crl.metrics/v1","counters":{"spice.dc.solves":10,"a":1},)"
      R"("gauges":{"g":0.5},"histograms":{"spice.ac.sweep_seconds":{"count":2,)"
      R"("sum":0.25,"bounds":[1],"buckets":[2,0],"p50":0.1,"p90":0.1,"p99":0.1}}})";
  const std::string after =
      R"({"schema":"crl.metrics/v1","counters":{"spice.dc.solves":25,"a":1,"new":3},)"
      R"("gauges":{},"histograms":{"spice.ac.sweep_seconds":{"count":5,)"
      R"("sum":1.0,"bounds":[1],"buckets":[5,0],"p50":0.1,"p90":0.1,"p99":0.1}}})";
  RegistryValues b, a;
  std::string err;
  ASSERT_TRUE(parseRegistry(before, b, &err)) << err;
  ASSERT_TRUE(parseRegistry(after, a, &err)) << err;
  const RegistryValues d = registryDelta(b, a);
  EXPECT_EQ(d.counter("spice.dc.solves"), 15.0);
  EXPECT_EQ(d.counter("a"), 0.0);
  EXPECT_EQ(d.counter("new"), 3.0);
  EXPECT_EQ(d.counter("absent"), 0.0);
  EXPECT_DOUBLE_EQ(d.sum("spice.ac.sweep_seconds"), 0.75);
}

TEST(Registry, RejectsMalformedSnapshots) {
  RegistryValues out;
  std::string err;
  EXPECT_FALSE(parseRegistry("{", out, &err));
  EXPECT_FALSE(parseRegistry(R"({"schema":"other","counters":{},"histograms":{}})", out, &err));
  EXPECT_FALSE(parseRegistry(
      R"({"schema":"crl.metrics/v1","counters":{"x":"1"},"histograms":{}})", out, &err));
}

TEST(Trace, ParsesCompleteEventsOnly) {
  const std::string trace =
      R"({"displayTimeUnit":"ms","otherData":{"droppedEvents":0},"traceEvents":[)"
      R"({"name":"a}{\"b","cat":"x","ph":"X","ts":1.5,"dur":2,"pid":1,"tid":3},)"
      R"({"name":"m","ph":"M","pid":1,"tid":3},)"
      R"({"name":"c","cat":"x","ph":"X","ts":4,"dur":0.25,"pid":1,"tid":4}]})";
  std::vector<Span> spans;
  std::string err;
  ASSERT_TRUE(parseTrace(trace, spans, &err)) << err;
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "a}{\"b");
  EXPECT_EQ(spans[0].tid, 3);
  EXPECT_DOUBLE_EQ(spans[0].endUs, 3.5);
  EXPECT_DOUBLE_EQ(spans[1].startUs, 4.0);
  EXPECT_FALSE(parseTrace(R"({"traceEvents":[{"ph":"X"}]})", spans, &err));
  EXPECT_FALSE(parseTrace(R"({"traceEvents":[)", spans, &err));
}

TEST(Digest, OrderAndContentSensitive) {
  Digest a, b, c;
  a.f64(1.0);
  a.u64(2);
  b.f64(1.0);
  b.u64(2);
  c.u64(2);
  c.f64(1.0);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  EXPECT_EQ(a.hex().size(), 16u);
}

}  // namespace
}  // namespace e2e
