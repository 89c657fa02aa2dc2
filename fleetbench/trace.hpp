#pragma once
// In-memory span recorder for the fleet benchmark, plus the arithmetic the
// benchmark derives from its samples: percentiles and per-span self time.
//
// Spans are opened and closed by the benchmark around its own calls into
// the program's public entry points; the program itself is never
// instrumented. A span carries its name, start, end, parent span and the
// car it belongs to. Spans stay in memory until the run ends and are then
// written out as one JSON document.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fleetbench {

/// q-quantile (q in [0, 1]) by linear interpolation between the closest
/// ranks of the sorted samples (rank (n-1)q). 0 for an empty sample.
double percentile(std::vector<double> samples, double q);

struct Span {
  const char* name = "";  // static string: recording allocates nothing
  double start = 0.0;     // seconds since the trace began
  double end = 0.0;
  int parent = -1;        // index of the enclosing span, -1 for a root
  std::uint32_t car = 0;  // fleet index of the car the span belongs to

  double duration() const { return end - start; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (the union of their intervals, clipped
/// to the parent, so overlapping children are not subtracted twice).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Records spans when enabled; every call is a no-op when disabled.
class Trace {
 public:
  explicit Trace(bool enabled);

  bool enabled() const { return enabled_; }
  /// Opens a span nested in the innermost open one; returns its index
  /// (-1 when disabled).
  int open(const char* name, std::uint32_t car);
  /// Closes span `id`, which must be the innermost open span.
  void close(int id);
  /// Seconds since the trace began.
  double now() const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(Trace& trace, const char* name, std::uint32_t car)
      : trace_(trace), id_(trace.open(name, car)) {}
  ~Scope() { trace_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace& trace_;
  int id_;
};

/// `value` as a JSON number with every significant digit (null when not
/// finite, which JSON cannot represent).
std::string json_number(double value);
/// `text` as a quoted, escaped JSON string.
std::string json_string(const std::string& text);

/// Checks of the percentile and self-time arithmetic on known inputs.
/// Prints each failure to stderr; returns the number of failures.
int run_self_test();

}  // namespace fleetbench
