//===- Spans.cpp - in-memory span recorder --------------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<uint64_t> NextSpanId{1};
std::atomic<uint64_t> NextTraceId{1};
std::atomic<uint32_t> NextThreadId{1};

std::mutex SpansMutex;
std::vector<Span> Recorded; // Guarded by SpansMutex.

struct ThreadState {
  uint32_t Thread = NextThreadId.fetch_add(1);
  std::vector<const Span *> Open;
};
thread_local ThreadState Local;

const std::chrono::steady_clock::time_point Epoch =
    std::chrono::steady_clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

} // namespace

uint64_t newTrace() { return NextTraceId.fetch_add(1); }

ScopedSpan::ScopedSpan(const char *Name, uint64_t Trace) {
  Record.Id = NextSpanId.fetch_add(1);
  Record.Name = Name;
  Record.Thread = Local.Thread;
  if (!Local.Open.empty()) {
    Record.Parent = Local.Open.back()->Id;
    Record.Trace = Trace ? Trace : Local.Open.back()->Trace;
  } else {
    Record.Trace = Trace ? Trace : newTrace();
  }
  Local.Open.push_back(&Record);
  Record.StartNs = nowNs();
}

ScopedSpan::~ScopedSpan() {
  Record.EndNs = nowNs();
  Local.Open.pop_back();
  std::lock_guard<std::mutex> Lock(SpansMutex);
  Recorded.push_back(Record);
}

double ScopedSpan::elapsedSec() const {
  return static_cast<double>(nowNs() - Record.StartNs) * 1e-9;
}

std::vector<Span> allSpans() {
  std::lock_guard<std::mutex> Lock(SpansMutex);
  return Recorded;
}

std::map<std::string, SpanTotals> spanTotals() {
  std::vector<Span> Spans = allSpans();
  std::unordered_map<uint64_t, int64_t> ChildNs;
  for (const Span &S : Spans)
    if (S.Parent)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, SpanTotals> Totals;
  for (const Span &S : Spans) {
    SpanTotals &T = Totals[S.Name];
    int64_t Dur = S.EndNs - S.StartNs;
    auto It = ChildNs.find(S.Id);
    T.SelfSec +=
        static_cast<double>(Dur - (It == ChildNs.end() ? 0 : It->second)) *
        1e-9;
    ++T.Count;
  }
  return Totals;
}

bool writeSpans(const std::string &Path) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  for (const Span &S : allSpans())
    std::fprintf(Out,
                 "{\"id\": %llu, \"parent\": %llu, \"trace\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"thread\": %u}\n",
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Trace), S.Name,
                 static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs), S.Thread);
  return std::fclose(Out) == 0;
}

} // namespace perfbench
