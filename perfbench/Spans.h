//===- Spans.h - in-memory span recorder for the traced mode ----*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced mode of the benchmark wraps every call into a library layer in
/// a ScopedSpan. A span records its name, start, end, parent span and trace
/// id; spans of one request (one chunk round trip, one Hello) share a trace
/// id. Spans stay in memory and are written out once, at exit, as JSON
/// lines. Parents are tracked per thread, so client threads trace
/// independently. A layer's self time is its span's duration minus the
/// durations of its children (children nest strictly on one thread).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root.
  uint64_t Trace = 0;  ///< Shared by the spans of one request or chunk.
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  uint32_t Thread = 0;
};

/// Aggregate over all spans of one name.
struct SpanTotals {
  double SelfSec = 0.0;
  uint64_t Count = 0;
};

/// Starts a new trace id (for a request that is its own root).
uint64_t newTrace();

/// RAII span: opened at construction under the calling thread's innermost
/// open span, closed and recorded at destruction. \p Trace 0 inherits the
/// parent's trace (or starts a fresh one at a root).
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, uint64_t Trace = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Seconds since the span opened.
  double elapsedSec() const;
  uint64_t trace() const { return Record.Trace; }

private:
  Span Record;
};

/// Every recorded span, in completion order.
std::vector<Span> allSpans();

/// Self time and span count per span name.
std::map<std::string, SpanTotals> spanTotals();

/// Writes every span as one JSON object per line. \returns false on I/O
/// failure.
bool writeSpans(const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
