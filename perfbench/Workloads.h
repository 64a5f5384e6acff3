//===- Workloads.h - the benchmark's workloads ------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the end-to-end benchmark (README.md in this
/// directory lists what each one feeds the program and why). Untraced runs
/// drive only the public entry points compileRuleset, planRuleset and
/// PlannedEngineSet, and report the end-to-end metrics. Traced runs call the
/// layers one at a time from this file under spans (Spans.h), probe the
/// service through ScanServer and ScanClient, and report per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Check.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
};

struct RunReport {
  Verdict Check;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// FNV-1a over every generated rule and stream, so runs over different
  /// inputs are never compared by accident.
  uint64_t InputDigest = 0;
};

/// The workload names, in README order.
const std::vector<std::string> &workloadNames();

/// Runs \p Options.Workload in the current directory, which must be
/// writable scratch space (traced runs put sockets and artifacts there).
RunReport runWorkload(const RunOptions &Options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
