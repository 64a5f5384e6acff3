//===- Check.cpp - output checks against independent oracles --------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "Check.h"

#include "fsa/Builder.h"
#include "fsa/Reference.h"
#include "regex/Parser.h"

#include <algorithm>
#include <thread>

using namespace mfsa;

namespace perfbench {

MatchList normalize(std::vector<Match> Matches) {
  std::sort(Matches.begin(), Matches.end());
  Matches.erase(std::unique(Matches.begin(), Matches.end()), Matches.end());
  return Matches;
}

MatchList fromRecorder(const MatchRecorder &Recorder) {
  return normalize(Recorder.matches());
}

MatchList endingBefore(const MatchList &Matches, uint64_t Limit) {
  MatchList Out;
  for (const Match &M : Matches)
    if (M.second < Limit)
      Out.push_back(M);
  return Out;
}

namespace {

/// Runs \p Ends over every rule, spread over up to four threads (rules are
/// independent, and the oracles are the slowest part of a check).
template <typename EndsFn>
MatchList perRuleOracle(const std::vector<std::string> &Rules,
                        std::string &Error, EndsFn Ends) {
  unsigned Threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::vector<Match>> Found(Threads);
  std::vector<std::string> Errors(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (size_t I = T; I < Rules.size() && Errors[T].empty(); I += Threads) {
        Result<Regex> Re = parseRegex(Rules[I]);
        if (!Re.ok()) {
          Errors[T] =
              "oracle: rule " + std::to_string(I) + ": " + Re.diag().render();
          return;
        }
        for (size_t End : Ends(*Re, I, Errors[T]))
          Found[T].emplace_back(static_cast<uint32_t>(I), End);
      }
    });
  std::vector<Match> Out;
  for (unsigned T = 0; T < Threads; ++T) {
    Pool[T].join();
    if (Error.empty())
      Error = Errors[T];
    Out.insert(Out.end(), Found[T].begin(), Found[T].end());
  }
  return Error.empty() ? normalize(std::move(Out)) : MatchList{};
}

} // namespace

MatchList nfaOracle(const std::vector<std::string> &Rules,
                    std::string_view Input, std::string &Error) {
  return perRuleOracle(Rules, Error, [&](const Regex &Re, size_t I,
                                         std::string &Err) {
    Result<Nfa> Raw = buildNfa(Re);
    if (!Raw.ok()) {
      Err = "oracle: rule " + std::to_string(I) + ": " + Raw.diag().render();
      return std::set<size_t>{};
    }
    return simulateNfa(*Raw, Input);
  });
}

MatchList astOracle(const std::vector<std::string> &Rules,
                    std::string_view Input, std::string &Error) {
  return perRuleOracle(Rules, Error, [&](const Regex &Re, size_t,
                                         std::string &) {
    return astMatchEnds(Re, Input);
  });
}

void Verdict::expect(bool Ok, const std::string &What) {
  if (!Ok)
    Errors.push_back(What);
}

void Verdict::expectSame(const MatchList &Expected, const MatchList &Actual,
                         const std::string &What) {
  if (Expected == Actual)
    return;
  auto [E, A] = std::mismatch(Expected.begin(), Expected.end(),
                              Actual.begin(), Actual.end());
  auto Show = [](const MatchList &L, MatchList::const_iterator It) {
    if (It == L.end())
      return std::string("end");
    std::string Out = "(";
    Out += std::to_string(It->first);
    Out += ", ";
    Out += std::to_string(It->second);
    Out += ")";
    return Out;
  };
  Errors.push_back(What + ": expected " + std::to_string(Expected.size()) +
                   " matches, got " + std::to_string(Actual.size()) +
                   "; first difference expected " + Show(Expected, E) +
                   " got " + Show(Actual, A));
}

std::string checkerSelfTest() {
  const std::vector<std::string> Rules = {"abc", "b[cd]+e", "x.*yz", "^ab",
                                          "cde$"};
  const std::string Input = "abcdeabde xqqyz bcccde abcde";
  std::string Error;
  MatchList Nfa = nfaOracle(Rules, Input, Error);
  MatchList Ast = astOracle(Rules, Input, Error);
  if (!Error.empty())
    return Error;
  Verdict Good;
  Good.expectSame(Ast, Nfa, "oracles");
  if (!Good.ok() || Nfa.size() < 5)
    return "the two oracles disagree on the self-test stream";

  MatchList Dropped = Nfa;
  Dropped.erase(Dropped.begin() + static_cast<long>(Dropped.size() / 2));
  MatchList Shifted = Nfa;
  Shifted.back().second += 1;
  Shifted = normalize(Shifted);
  Verdict BadDrop, BadShift;
  BadDrop.expectSame(Nfa, Dropped, "dropped");
  BadShift.expectSame(Nfa, Shifted, "shifted");
  if (BadDrop.ok())
    return "checker accepted a result with a match dropped";
  if (BadShift.ok())
    return "checker accepted a result with an offset shifted";
  return "";
}

} // namespace perfbench
