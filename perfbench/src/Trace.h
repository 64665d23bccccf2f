//===- Trace.h - In-memory spans around calls into each layer ---*- C++ -*-===//
///
/// \file
/// The traced run wraps every call it makes into a layer's public API in a
/// span: name ("<layer>.<call>"), start, end, the enclosing span, and the
/// project or request id. Spans stay in memory until the run ends, when
/// they are written out as Chrome trace-event JSON. A layer's self time is
/// the time inside its spans that no child span covers.
///
/// Spans are recorded from the benchmark's side of each call, never from
/// inside the product, and only on the thread that drives the run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
public:
  struct Span {
    std::string Name;
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int Parent = -1; ///< Index of the enclosing span, -1 for a root.
    int64_t Id = -1; ///< Project or request id.
  };

  /// A disabled recorder records nothing (the untraced comparison pass).
  explicit SpanRecorder(bool Enabled = true) : Enabled(Enabled) {}

  /// Opens a span for the lifetime of the scope.
  class Scope {
  public:
    Scope(SpanRecorder &R, std::string Name, int64_t Id = -1);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &R;
    int Index = -1;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Durations in milliseconds of every span called \p Name, in order.
  std::vector<double> durationsMs(const std::string &Name) const;
  /// Sum of durationsMs(Name).
  double totalMs(const std::string &Name) const;
  /// Self time per layer (the span name up to its first '.'), in ms.
  std::map<std::string, double> selfMsByLayer() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, times in
  /// microseconds). \returns false when the file cannot be written.
  bool writeChromeJson(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int> Open;
  std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();

  int64_t nowNs() const;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
