//===- Check.h - output checks against independent oracles ------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's output check. Expected matches come from computations
/// made apart from the engines under test: the checker parses every rule and
/// builds its stage-2 ε-NFA itself, then runs simulateNfa (independent of
/// ε-removal, merging, the planner and every engine) and, on a shorter
/// prefix, the AST evaluator astMatchEnds. Engine and service outputs are
/// compared against those, and against each other over the whole stream.
/// None of this runs inside a timed interval.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include "engine/Imfant.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// A (global rule id, end offset) pair.
using Match = std::pair<uint32_t, uint64_t>;

/// Sorted, duplicate-free match list.
using MatchList = std::vector<Match>;

MatchList normalize(std::vector<Match> Matches);
MatchList fromRecorder(const mfsa::MatchRecorder &Recorder);

/// The pairs of \p Matches whose end offset is below \p Limit.
MatchList endingBefore(const MatchList &Matches, uint64_t Limit);

/// simulateNfa over each rule's unmerged stage-2 ε-NFA. Rules that fail to
/// parse or build are reported through \p Error.
MatchList nfaOracle(const std::vector<std::string> &Rules,
                    std::string_view Input, std::string &Error);

/// astMatchEnds over each rule's AST (quadratic; keep \p Input short).
MatchList astOracle(const std::vector<std::string> &Rules,
                    std::string_view Input, std::string &Error);

/// Collects the failures of one run's checks.
class Verdict {
public:
  /// Records a failure unless \p Ok.
  void expect(bool Ok, const std::string &What);

  /// Demands Expected == Actual; on a difference records the first
  /// mismatching pair under \p What.
  void expectSame(const MatchList &Expected, const MatchList &Actual,
                  const std::string &What);

  bool ok() const { return Errors.empty(); }
  const std::vector<std::string> &errors() const { return Errors; }

private:
  std::vector<std::string> Errors;
};

/// The checker's own test: one rule set with a known stream, and two bad
/// results (a match dropped, an offset shifted) that the checks must
/// reject. \returns an empty
/// string on success, else what went wrong.
std::string checkerSelfTest();

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
