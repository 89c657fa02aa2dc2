#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace fleetbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                   span.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans[i].start;  // end of the union measured so far
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, spans[i].end);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

Trace::Trace(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Trace::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Trace::open(const char* name, std::uint32_t car) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.car = car;
  span.start = now();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Trace::close(int id) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != id) {
    // Called from Scope's destructor, so a benchmark bug aborts loudly
    // instead of throwing.
    std::fprintf(stderr, "trace: spans must close innermost first\n");
    std::abort();
  }
  spans_[static_cast<std::size_t>(id)].end = now();
  open_.pop_back();
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

int expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want))) {
    return 0;
  }
  std::fprintf(stderr, "self-test: %s = %.17g, want %.17g\n", what, got,
               want);
  return 1;
}

}  // namespace

int run_self_test() {
  int failures = 0;
  // Percentiles on known samples, given out of order.
  const std::vector<double> ten = {7, 1, 10, 4, 2, 9, 3, 6, 8, 5};
  failures += expect_near("p50(1..10)", percentile(ten, 0.5), 5.5);
  failures += expect_near("p90(1..10)", percentile(ten, 0.9), 9.1);
  failures += expect_near("p0(1..10)", percentile(ten, 0.0), 1.0);
  failures += expect_near("p100(1..10)", percentile(ten, 1.0), 10.0);
  failures += expect_near("p50(odd)", percentile({3, 1, 2}, 0.5), 2.0);
  failures += expect_near("p90(single)", percentile({4.5}, 0.9), 4.5);
  failures += expect_near("p50(empty)", percentile({}, 0.5), 0.0);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  failures += expect_near("p90(1..100)", percentile(hundred, 0.9), 90.1);

  // Self time with nesting: a root [0,10] holding a child [1,4] (which
  // holds a grandchild [2,3]) and two overlapping children [5,8], [6,9].
  // Root covered: [1,4] + [5,9] = 7, so root self = 3; child self = 3 - 1.
  // A child reaching past its parent is clipped: [9,12] under [0,10].
  std::vector<Span> spans = {
      {"root", 0, 10, -1, 0}, {"a", 1, 4, 0, 0},  {"a.x", 2, 3, 1, 0},
      {"b", 5, 8, 0, 0},      {"c", 6, 9, 0, 0},  {"other", 20, 25, -1, 1},
  };
  auto self = self_times(spans);
  failures += expect_near("self(root)", self[0], 3.0);
  failures += expect_near("self(a)", self[1], 2.0);
  failures += expect_near("self(a.x)", self[2], 1.0);
  failures += expect_near("self(b)", self[3], 3.0);
  failures += expect_near("self(other)", self[5], 5.0);
  spans = {{"p", 0, 10, -1, 0}, {"q", 9, 12, 0, 0}};
  self = self_times(spans);
  failures += expect_near("self(clipped)", self[0], 9.0);

  // The recorder nests spans by open order.
  Trace trace(true);
  {
    Scope outer(trace, "outer", 3);
    Scope inner(trace, "inner", 3);
  }
  const auto& rec = trace.spans();
  if (rec.size() != 2 || rec[1].parent != 0 || rec[0].parent != -1 ||
      rec[1].car != 3 || rec[1].end > rec[0].end) {
    std::fprintf(stderr, "self-test: recorder nesting wrong\n");
    ++failures;
  }
  Trace off(false);
  { Scope ignored(off, "x", 0); }
  if (!off.spans().empty()) {
    std::fprintf(stderr, "self-test: disabled trace recorded a span\n");
    ++failures;
  }
  return failures;
}

}  // namespace fleetbench
