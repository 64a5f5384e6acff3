//===- main.cpp - end-to-end benchmark binary -----------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--spans FILE]
//   perfbench --selftest
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before
// it (each starting with '#') give the input digest, the resolved SIMD
// level and the build type. --workdir is scratch space for the traced
// mode's sockets and artifact files; --spans names the file the traced mode writes its spans
// to. Exit status: 0 when the run completed (even if a check failed; the
// JSON says so), 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "Check.h"
#include "Spans.h"
#include "Workloads.h"

#include "support/SimdDispatch.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--spans FILE]\n"
               "       perfbench --selftest\n");
  return 2;
}

void printJsonString(const std::string &S) {
  std::putchar('"');
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::putchar('\\');
    std::putchar(C == '\n' ? ' ' : C);
  }
  std::putchar('"');
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string WorkDir, SpansPath;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--selftest") {
      std::string Why = checkerSelfTest();
      std::printf("checker self-test: %s\n", Why.empty() ? "ok" : Why.c_str());
      return Why.empty() ? 0 : 1;
    }
    if (I + 1 >= Argc)
      return usage();
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Value;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
    } else if (Arg == "--trace") {
      O.Trace = Value == "1";
      if (Value != "0" && Value != "1")
        return usage();
    } else if (Arg == "--workdir") {
      WorkDir = Value;
    } else if (Arg == "--spans") {
      SpansPath = Value;
    } else {
      return usage();
    }
    if (End && *End)
      return usage();
  }
  const std::vector<std::string> &Names = workloadNames();
  if (!HaveWorkload ||
      std::find(Names.begin(), Names.end(), O.Workload) == Names.end() ||
      !(O.Seconds > 0))
    return usage();

  if (!SpansPath.empty())
    SpansPath = std::filesystem::absolute(SpansPath).string();
  if (!WorkDir.empty()) {
    std::filesystem::create_directories(WorkDir);
    std::filesystem::current_path(WorkDir);
  }

  std::string SelfTest = checkerSelfTest();
  RunReport R = runWorkload(O);
  if (!SelfTest.empty())
    R.Check.expect(false, "checker self-test: " + SelfTest);
  if (O.Trace && !SpansPath.empty() && !writeSpans(SpansPath))
    R.Check.expect(false, "cannot write spans to " + SpansPath);

  for (const std::string &E : R.Check.errors())
    std::fprintf(stderr, "perfbench: check failed: %s\n", E.c_str());
  std::printf("# workload %s seed %llu trace %d\n", O.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), O.Trace ? 1 : 0);
  std::printf("# input digest %016llx\n",
              static_cast<unsigned long long>(R.InputDigest));
  std::printf("# simd %s, build %s\n",
              mfsa::simd::levelName(mfsa::simd::activeLevel()),
              PERFBENCH_BUILD_TYPE);
  if (O.Trace && !SpansPath.empty())
    std::printf("# spans %s\n", SpansPath.c_str());

  bool Correct = R.Check.ok();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(R.Attempted, 1)),
              static_cast<unsigned long long>(R.Failed));
  bool First = true;
  for (const Metric &M : R.Metrics) {
    std::printf(First ? "" : ", ");
    First = false;
    printJsonString(M.Name);
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(M.Value) ? M.Value : 0.0);
    printJsonString(M.Unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
