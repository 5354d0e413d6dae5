#include "analysis.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/json.h"

namespace e2e {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

std::size_t samplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double unionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  bool open = false;
  Interval cur;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= cur.end) {
      cur.end = std::max(cur.end, iv.end);
      continue;
    }
    if (open) total += cur.end - cur.start;
    cur = iv;
    open = true;
  }
  if (open) total += cur.end - cur.start;
  return total;
}

double selfTime(const Interval& span, const std::vector<Interval>& children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children)
    clipped.push_back({std::max(c.start, span.start), std::min(c.end, span.end)});
  return (span.end - span.start) - unionLength(std::move(clipped));
}

std::map<std::string, LayerTime> attribute(std::vector<Span> spans) {
  // Longest-first among equal starts, so an enclosing span precedes the
  // spans nested in it.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.startUs != b.startUs) return a.startUs < b.startUs;
    return a.endUs > b.endUs;
  });
  std::vector<std::vector<Interval>> children(spans.size());
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].tid != spans[i - 1].tid) stack.clear();
    while (!stack.empty() && spans[stack.back()].endUs <= spans[i].startUs)
      stack.pop_back();
    if (!stack.empty())
      children[stack.back()].push_back({spans[i].startUs, spans[i].endUs});
    stack.push_back(i);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerTime& lt = out[s.name];
    const double dur = (s.endUs - s.startUs) / 1e6;
    ++lt.calls;
    lt.busyS += dur;
    lt.selfS += selfTime({s.startUs, s.endUs}, children[i]) / 1e6;
    lt.durationsS.push_back(dur);
  }
  return out;
}

double threadSeconds(const std::vector<Span>& spans) {
  std::map<int, std::vector<Interval>> byThread;
  for (const Span& s : spans) byThread[s.tid].push_back({s.startUs, s.endUs});
  double total = 0.0;
  for (auto& [tid, ivs] : byThread) total += unionLength(std::move(ivs));
  return total / 1e6;
}

std::size_t waveCount(std::size_t queries, std::size_t lanes) {
  if (lanes == 0) throw std::invalid_argument("waveCount: zero lanes");
  return (queries + lanes - 1) / lanes;
}

WaveLoad waveLoad(const std::vector<int>& steps, std::size_t lanes) {
  WaveLoad load;
  for (std::size_t w = 0; w < waveCount(steps.size(), lanes); ++w) {
    int slowest = 0;
    for (std::size_t k = w * lanes; k < std::min(steps.size(), (w + 1) * lanes); ++k) {
      load.laneSteps += steps[k];
      slowest = std::max(slowest, steps[k]);
    }
    load.capacity += static_cast<double>(lanes) * slowest;
  }
  return load;
}

namespace {

double lookup(const std::map<std::string, double>& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

void subtract(const std::map<std::string, double>& before,
              const std::map<std::string, double>& after,
              std::map<std::string, double>& out) {
  for (const auto& [name, v] : after) out[name] = v - lookup(before, name);
}

}  // namespace

double RegistryValues::counter(const std::string& name) const {
  return lookup(counters, name);
}
double RegistryValues::sum(const std::string& name) const {
  return lookup(histogramSum, name);
}

bool parseRegistry(const std::string& json, RegistryValues& out, std::string* error) {
  crl::obs::json::Value doc;
  if (!crl::obs::json::parse(json, doc, error)) return false;
  if (doc.string("schema") != "crl.metrics/v1") {
    if (error) *error = "not a crl.metrics/v1 snapshot";
    return false;
  }
  const auto* counters = doc.find("counters");
  const auto* histograms = doc.find("histograms");
  if (!counters || !counters->isObject() || !histograms || !histograms->isObject()) {
    if (error) *error = "snapshot lacks counters/histograms objects";
    return false;
  }
  RegistryValues staged;
  for (const auto& [name, v] : counters->members()) {
    if (!v.isNumber()) {
      if (error) *error = "counter '" + name + "' is not a number";
      return false;
    }
    staged.counters[name] = v.asNumber();
  }
  for (const auto& [name, h] : histograms->members()) {
    const auto* sum = h.find("sum");
    if (!sum || !sum->isNumber()) {
      if (error) *error = "histogram '" + name + "' lacks a numeric sum";
      return false;
    }
    staged.histogramSum[name] = sum->asNumber();
  }
  out = std::move(staged);
  return true;
}

RegistryValues registryDelta(const RegistryValues& before, const RegistryValues& after) {
  RegistryValues d;
  subtract(before.counters, after.counters, d.counters);
  subtract(before.histogramSum, after.histogramSum, d.histogramSum);
  return d;
}

bool parseTrace(const std::string& json, std::vector<Span>& out, std::string* error) {
  // A traced unit holds hundreds of thousands of events; a whole-document
  // Value tree would cost ~1 KiB each, so each event object is cut out of the
  // array and parsed on its own.
  const auto fail = [&](const std::string& what) {
    if (error) *error = what;
    return false;
  };
  const std::size_t key = json.find("\"traceEvents\"");
  const std::size_t open = key == std::string::npos ? key : json.find('[', key);
  if (open == std::string::npos) return fail("trace lacks a traceEvents array");
  std::vector<Span> staged;
  std::size_t i = open + 1;
  for (;;) {
    while (i < json.size() && (json[i] == ',' || std::isspace(static_cast<unsigned char>(json[i]))))
      ++i;
    if (i >= json.size()) return fail("unterminated traceEvents array");
    if (json[i] == ']') break;
    if (json[i] != '{') return fail("traceEvents entry is not an object");
    // Find the object's end: track strings (with escapes) and nesting.
    std::size_t end = i;
    int depth = 0;
    bool inString = false;
    for (; end < json.size(); ++end) {
      const char c = json[end];
      if (inString) {
        if (c == '\\') ++end;
        else if (c == '"') inString = false;
      } else if (c == '"') {
        inString = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}' && --depth == 0) {
        break;
      }
    }
    if (end >= json.size()) return fail("unterminated trace event");
    crl::obs::json::Value e;
    if (!crl::obs::json::parse(json.substr(i, end + 1 - i), e, error)) return false;
    i = end + 1;
    if (e.string("ph") != "X") continue;
    const auto* ts = e.find("ts");
    const auto* dur = e.find("dur");
    if (!ts || !ts->isNumber() || !dur || !dur->isNumber())
      return fail("complete event without numeric ts/dur");
    Span s;
    s.name = e.string("name");
    s.tid = static_cast<int>(e.number("tid"));
    s.startUs = ts->asNumber();
    s.endUs = s.startUs + dur->asNumber();
    staged.push_back(std::move(s));
  }
  out = std::move(staged);
  return true;
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace e2e
