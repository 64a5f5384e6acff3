//===- Workloads.cpp - the benchmark's workloads --------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Every workload follows one shape: generate inputs from the seed (never
// timed), set up several times and keep the median, measure for the run's
// seconds, then check outputs (never timed). README.md gives each metric's
// meaning.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Spans.h"

#include "analysis/Planner.h"
#include "artifact/Reader.h"
#include "artifact/Writer.h"
#include "compiler/Pipeline.h"
#include "engine/PlannedEngine.h"
#include "engine/Prefilter.h"
#include "fsa/Builder.h"
#include "fsa/LiteralAnalysis.h"
#include "fsa/Passes.h"
#include "mfsa/Merge.h"
#include "regex/Parser.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "workload/Datasets.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

using namespace mfsa;
using namespace mfsa::service;

namespace perfbench {
namespace {

//===----------------------------------------------------------------------===//
// Fixed workload parameters (README.md "Workloads").
//===----------------------------------------------------------------------===//

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned kSetupReps = 5;
/// The traced service probe's server scan workers never exceed this (and
/// never exceed the machine's hardware threads).
constexpr unsigned kMaxThreads = 4;

struct OfflineParams {
  const char *Dataset;
  size_t StreamBytes;
  size_t NfaPrefix; ///< simulateNfa oracle prefix.
  size_t AstPrefix; ///< astMatchEnds oracle prefix.
};
constexpr OfflineParams kLiteral = {"BRO", 2u << 20, 32u << 10, 2u << 10};
constexpr OfflineParams kDotstar = {"DS9", 256u << 10, 8u << 10, 1u << 10};

/// Traced runs: the stream prefix RunStats, the in-process Scanner and the
/// service probe see.
constexpr size_t kStatsBytes = 256u << 10;
/// Traced runs: planned-engine passes timed under spans.
constexpr unsigned kTracedScanPasses = 3;

/// The set-up layer spans, whose self times make up a traced set-up.
constexpr const char *kSetupLayers[] = {"regex.parse",   "fsa.build",
                                        "fsa.optimize",  "analysis.plan",
                                        "mfsa.merge",    "engine.build"};

//===----------------------------------------------------------------------===//
// Small helpers.
//===----------------------------------------------------------------------===//

uint64_t mix(uint64_t A, uint64_t B) {
  Rng R(A * 0x9e3779b97f4a7c15ULL ^ (B + 0x632be59bd9b4e019ULL));
  return R.next();
}

struct Digest {
  uint64_t H = 1469598103934665603ULL;
  void add(std::string_view S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ULL;
    }
    H ^= 0xff; // Separator, so ("ab","c") != ("a","bc").
    H *= 1099511628211ULL;
  }
  void add(const std::vector<std::string> &V) {
    for (const std::string &S : V)
      add(S);
  }
};

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Q * static_cast<double>(V.size()));
  size_t I = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(I, V.size() - 1)];
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// Packet-sized chunk lengths (40-120, 500-600 or 1200-1500 bytes) covering
/// \p Len bytes, drawn from \p R.
std::vector<size_t> packetChunks(Rng &R, size_t Len) {
  std::vector<size_t> Sizes;
  for (size_t Done = 0; Done < Len;) {
    double U = R.nextDouble();
    size_t S = U < 0.4    ? R.nextInRange(40, 120)
               : U < 0.65 ? R.nextInRange(500, 600)
                          : R.nextInRange(1200, 1500);
    S = std::min(S, Len - Done);
    Sizes.push_back(S);
    Done += S;
  }
  return Sizes;
}

const DatasetSpec &dataset(const char *Abbrev) {
  const DatasetSpec *Spec = findDataset(Abbrev);
  if (!Spec) {
    std::fprintf(stderr, "perfbench: unknown dataset %s\n", Abbrev);
    std::exit(2);
  }
  return *Spec;
}

/// Counts a failed operation and records why.
bool fail(RunReport &R, const std::string &Why) {
  ++R.Failed;
  R.Check.expect(false, Why);
  return false;
}

/// Optional span: a no-op unless tracing.
class MaybeSpan {
public:
  MaybeSpan(bool On, const char *Name) {
    if (On)
      S.emplace(Name);
  }

private:
  std::optional<ScopedSpan> S;
};

//===----------------------------------------------------------------------===//
// Offline set-up: ruleset text -> ready planned engine.
//===----------------------------------------------------------------------===//

struct Prepared {
  std::vector<Regex> Asts; ///< Layer walk only.
  std::vector<Nfa> Optimized;
  std::vector<uint32_t> Ids;
  EnginePlan Plan;
  std::vector<Mfsa> Mfsas; ///< The plan's groups; layer walk only.
  std::optional<PlannedEngineSet> Engine;
};

/// The public path that setup_s times: compileRuleset (stages 1-3; M = 1 so
/// the compile's own merge is trivial), planRuleset,
/// PlannedEngineSet::createFromRuleset.
bool prepare(const std::vector<std::string> &Rules, Prepared &P,
             std::string &Error) {
  CompileOptions Options;
  Options.MergingFactor = 1;
  Options.EmitAnml = false;
  Result<CompileArtifacts> A = compileRuleset(Rules, Options);
  if (!A.ok()) {
    Error = "compile: " + A.diag().render();
    return false;
  }
  P.Optimized = std::move(A->OptimizedFsas);
  P.Ids = std::move(A->CompiledRuleIds);
  P.Plan = planRuleset(P.Optimized, P.Ids, Rules);
  Result<PlannedEngineSet> E =
      PlannedEngineSet::createFromRuleset(P.Plan, P.Optimized, P.Ids, Rules);
  if (!E.ok()) {
    Error = "engine: " + E.diag().render();
    return false;
  }
  P.Engine.emplace(E.take());
  return true;
}

/// Per-layer size counts gathered by the layer walk.
struct LayerCounts {
  uint64_t FsaStates = 0, FsaTransitions = 0;
  uint64_t MfsaStates = 0, MfsaTransitions = 0, MfsaGroups = 0;
};

/// The same set-up, one layer call at a time: parseRegex, buildNfa,
/// optimizeForMerging, planRuleset, mergeInGroups at the plan's factor,
/// PlannedEngineSet::create. With \p Trace every call runs under a span (all
/// under a "setup" root); without, the same calls run bare, so the two
/// differ only by the spans.
bool prepareLayers(const std::vector<std::string> &Rules, bool Trace,
                   Prepared &P, LayerCounts &Counts, std::string &Error) {
  MaybeSpan Root(Trace, "setup");
  {
    MaybeSpan S(Trace, "regex.parse");
    for (size_t I = 0; I < Rules.size(); ++I) {
      Result<Regex> Re = parseRegex(Rules[I]);
      if (!Re.ok()) {
        Error = "rule " + std::to_string(I) + ": " + Re.diag().render();
        return false;
      }
      P.Asts.push_back(Re.take());
    }
  }
  std::vector<Nfa> Raw;
  {
    MaybeSpan S(Trace, "fsa.build");
    for (size_t I = 0; I < P.Asts.size(); ++I) {
      Result<Nfa> A = buildNfa(P.Asts[I]);
      if (!A.ok()) {
        Error = "rule " + std::to_string(I) + ": " + A.diag().render();
        return false;
      }
      Raw.push_back(A.take());
    }
  }
  {
    MaybeSpan S(Trace, "fsa.optimize");
    for (const Nfa &A : Raw)
      P.Optimized.push_back(optimizeForMerging(A));
  }
  for (uint32_t I = 0; I < P.Optimized.size(); ++I) {
    P.Ids.push_back(I);
    Counts.FsaStates += P.Optimized[I].numStates();
    Counts.FsaTransitions += P.Optimized[I].numTransitions();
  }
  {
    MaybeSpan S(Trace, "analysis.plan");
    P.Plan = planRuleset(P.Optimized, P.Ids, Rules);
  }
  {
    MaybeSpan S(Trace, "mfsa.merge");
    P.Mfsas = mergeInGroups(P.Optimized, P.Plan.MergingFactor);
  }
  for (const Mfsa &Z : P.Mfsas) {
    Counts.MfsaStates += Z.numStates();
    Counts.MfsaTransitions += Z.numTransitions();
    ++Counts.MfsaGroups;
  }
  MaybeSpan S(Trace, "engine.build");
  Result<PlannedEngineSet> E =
      PlannedEngineSet::create(P.Plan.Choice, P.Mfsas, Rules);
  if (!E.ok()) {
    Error = "engine: " + E.diag().render();
    return false;
  }
  P.Engine.emplace(E.take());
  return true;
}

/// Dense iMFAnt at M = all: the engine the scan service runs, and the
/// second engine of the cross-engine check.
bool buildDense(const std::vector<std::string> &Rules,
                std::vector<ImfantEngine> &Engines, std::string &Error) {
  CompileOptions Options;
  Options.EmitAnml = false;
  Result<CompileArtifacts> A = compileRuleset(Rules, Options);
  if (!A.ok()) {
    Error = "dense compile: " + A.diag().render();
    return false;
  }
  for (const Mfsa &Z : A->Mfsas)
    Engines.emplace_back(Z);
  return true;
}

MatchList scanDense(const std::vector<ImfantEngine> &Engines,
                    std::string_view Input) {
  MatchRecorder R(MatchRecorder::Mode::Collect);
  for (const ImfantEngine &E : Engines)
    E.run(Input, R);
  return fromRecorder(R);
}

MatchList scanPlanned(const PlannedEngineSet &Engine, std::string_view Input) {
  MatchRecorder R(MatchRecorder::Mode::Collect);
  Engine.run(Input, R);
  return fromRecorder(R);
}

/// The oracle and cross-engine checks for one ruleset over one stream: the
/// planned engine against dense iMFAnt (built here, after every timed
/// interval and the peak-RSS reading) over the whole stream, and against
/// both oracles on prefixes.
void checkStream(RunReport &R, const OfflineParams &W,
                 const std::vector<std::string> &Rules, std::string_view Stream,
                 const MatchList &Planned) {
  Verdict &V = R.Check;
  const std::string Label = W.Dataset;
  std::vector<ImfantEngine> Dense;
  std::string Error;
  if (!buildDense(Rules, Dense, Error)) {
    V.expect(false, Error);
    return;
  }
  V.expectSame(scanDense(Dense, Stream), Planned,
               Label + ": planned engine vs dense iMFAnt");
  size_t NfaPrefix = std::min(W.NfaPrefix, Stream.size());
  size_t AstPrefix = std::min(W.AstPrefix, Stream.size());
  MatchList Nfa = nfaOracle(Rules, Stream.substr(0, NfaPrefix), Error);
  V.expect(Error.empty(), Label + ": " + Error);
  V.expectSame(endingBefore(Nfa, NfaPrefix), endingBefore(Planned, NfaPrefix),
               Label + ": simulateNfa oracle on the first " +
                   std::to_string(NfaPrefix) + " bytes");
  MatchList Ast = astOracle(Rules, Stream.substr(0, AstPrefix), Error);
  V.expect(Error.empty(), Label + ": " + Error);
  V.expectSame(endingBefore(Ast, AstPrefix), endingBefore(Planned, AstPrefix),
               Label + ": astMatchEnds oracle on the first " +
                   std::to_string(AstPrefix) + " bytes");
  V.expect(!Planned.empty(), Label + ": no match reported");
}

//===----------------------------------------------------------------------===//
// Traced mode.
//===----------------------------------------------------------------------===//

struct HelloSample {
  double Ms = 0.0;
  CacheSource Source = CacheSource::Compiled;
};

/// What a traced run gathers beside the spans.
struct TraceFacts {
  LayerCounts Counts;
  uint64_t ImageBytes = 0;
  RunStats Stats; ///< Summed over the plan's groups (max for peaks).
  uint64_t StatsBytes = 0;
  uint64_t TableBytes = 0;
  uint64_t ResidualRules = 0;
  std::vector<double> ScanSec;
  std::vector<double> FeedUs;
  std::vector<double> ChunkUs; ///< Service round trips of the same chunks.
  std::vector<HelloSample> Hellos;
  uint64_t Shed = 0;
  std::string StatsJson;
  /// Medians of the three set-up paths, and of the layer spans' summed
  /// self time in the spanned walk.
  double PublicSetupSec = 0.0;
  double BareSetupSec = 0.0;
  double SpannedSetupSec = 0.0;
  double LayerSelfSec = 0.0;
};

/// The three set-up paths, kSetupReps times each in rotating order: the
/// public path (what setup_s times), the layer walk bare, and the layer walk
/// under spans. The bare and spanned walks differ only by the spans, so
/// their medians give the tracing overhead; the spanned walk's layer self
/// times against the public path give the share of setup_s no layer span
/// covers. \p P keeps the last spanned walk's result.
bool tracedSetup(const std::vector<std::string> &Rules, Prepared &P,
                 TraceFacts &F, RunReport &R) {
  std::vector<double> Sec[3], LayerSelf;
  for (unsigned Rep = 0; Rep < kSetupReps; ++Rep)
    for (unsigned K = 0; K < 3; ++K) {
      unsigned Path = (Rep + K) % 3; // 0 public, 1 bare walk, 2 spanned.
      std::map<std::string, SpanTotals> Before = spanTotals();
      Prepared Cur;
      LayerCounts Counts;
      std::string Error;
      ++R.Attempted;
      Timer T;
      bool Ok = Path == 0
                    ? prepare(Rules, Cur, Error)
                    : prepareLayers(Rules, Path == 2, Cur, Counts, Error);
      Sec[Path].push_back(T.elapsedSec());
      if (!Ok)
        return fail(R, Error);
      if (Path != 2)
        continue;
      std::map<std::string, SpanTotals> After = spanTotals();
      double Sum = 0.0;
      for (const char *Name : kSetupLayers)
        Sum += After[Name].SelfSec - Before[Name].SelfSec;
      LayerSelf.push_back(Sum);
      P = std::move(Cur);
      F.Counts = Counts;
    }
  F.PublicSetupSec = median(Sec[0]);
  F.BareSetupSec = median(Sec[1]);
  F.SpannedSetupSec = median(Sec[2]);
  F.LayerSelfSec = median(LayerSelf);
  return true;
}

/// Traced artifact round trip of a prepared ruleset's MFSAs; the loaded
/// MFSAs must reproduce the planned engine's matches on \p Probe.
void artifactWalk(const std::vector<std::string> &Rules, const Prepared &P,
                  const std::string &Path, std::string_view Probe,
                  TraceFacts &F, Verdict &V) {
  artifact::ArtifactWriteOptions W;
  W.MergingFactor = P.Plan.MergingFactor;
  Result<uint64_t> Bytes = [&] {
    ScopedSpan S("artifact.write");
    return artifact::writeArtifactFile(Path, P.Mfsas, Rules, W);
  }();
  if (!Bytes.ok()) {
    V.expect(false, "artifact write: " + Bytes.diag().render());
    return;
  }
  F.ImageBytes += *Bytes;
  std::vector<Mfsa> Loaded;
  {
    ScopedSpan S("artifact.load");
    Result<artifact::LoadedArtifact> L = artifact::loadArtifact(Path);
    if (!L.ok()) {
      V.expect(false, "artifact load: " + L.diag().render());
      return;
    }
    Loaded = L->materializeAll();
  }
  std::vector<ImfantEngine> Engines;
  for (const Mfsa &Z : Loaded)
    Engines.emplace_back(Z);
  V.expectSame(scanPlanned(*P.Engine, Probe), scanDense(Engines, Probe),
               "engines over the loaded artifact");
}

/// Traced engine-layer walk over one prepared ruleset and stream.
void engineWalk(const std::vector<std::string> &Rules, const Prepared &P,
                const std::vector<ImfantEngine> &Dense, std::string_view Stream,
                const std::vector<size_t> &Chunks, TraceFacts &F, Verdict &V) {
  for (unsigned Pass = 0; Pass < kTracedScanPasses; ++Pass) {
    MatchRecorder R;
    ScopedSpan S("engine.scan");
    P.Engine->run(Stream, R);
    F.ScanSec.push_back(S.elapsedSec());
  }

  // Exact work counts from RunStats: dense iMFAnt over the plan's groups.
  std::string_view Prefix = Stream.substr(0, std::min(kStatsBytes,
                                                      Stream.size()));
  F.StatsBytes = Prefix.size();
  {
    ScopedSpan S("engine.stats");
    for (const Mfsa &Z : P.Mfsas) {
      ImfantEngine E(Z);
      MatchRecorder R;
      RunStats St;
      E.run(Prefix, R, &St);
      F.Stats.TransitionsEvaluated += St.TransitionsEvaluated;
      F.Stats.AvgActiveRules += St.AvgActiveRules;
      F.Stats.MaxFrontier = std::max(F.Stats.MaxFrontier, St.MaxFrontier);
      F.TableBytes += E.footprintBytes();
    }
  }

  // The prefilter's split: the literal path versus the residual MFSA its
  // analysis leaves (the same per-rule decision PrefilterEngine makes).
  Result<PrefilterEngine> Pre = [&] {
    ScopedSpan S("engine.prefilter.build");
    return PrefilterEngine::create(Rules);
  }();
  if (!Pre.ok()) {
    V.expect(false, "prefilter: " + Pre.diag().render());
    return;
  }
  std::vector<Nfa> Residual;
  std::vector<uint32_t> ResidualIds;
  for (size_t I = 0; I < P.Asts.size(); ++I)
    if (!analyzeForPrefilter(P.Asts[I], P.Optimized[I]).Prefilterable) {
      Residual.push_back(P.Optimized[I]);
      ResidualIds.push_back(static_cast<uint32_t>(I));
    }
  F.ResidualRules = Pre->numResidual();
  V.expect(Residual.size() == Pre->numResidual(),
           "prefilter residual split disagrees with analyzeForPrefilter");
  MatchRecorder PreMatches(MatchRecorder::Mode::Collect);
  {
    ScopedSpan S("engine.prefilter.scan");
    Pre->run(Stream, PreMatches);
  }
  if (!Residual.empty()) {
    ImfantEngine ResidualEngine(mergeFsas(Residual, ResidualIds));
    MatchRecorder R;
    ScopedSpan S("engine.prefilter.residual_scan");
    ResidualEngine.run(Stream, R);
  }
  V.expectSame(scanPlanned(*P.Engine, Stream), fromRecorder(PreMatches),
               "prefilter engine vs planned engine");

  // The in-process Scanner fed the service probe's chunk sequence.
  std::vector<ImfantEngine::Scanner> Scanners;
  for (const ImfantEngine &E : Dense)
    Scanners.emplace_back(E);
  MatchRecorder Fed(MatchRecorder::Mode::Collect);
  size_t Pos = 0;
  for (size_t Len : Chunks) {
    std::string_view Chunk = Stream.substr(Pos, Len);
    ScopedSpan S("engine.feed", newTrace());
    for (ImfantEngine::Scanner &Sc : Scanners)
      Sc.feed(Chunk, Fed);
    F.FeedUs.push_back(S.elapsedSec() * 1e6);
    Pos += Len;
  }
  for (ImfantEngine::Scanner &Sc : Scanners)
    Sc.finish(Fed);
  V.expectSame(scanDense(Dense, Stream.substr(0, Pos)), fromRecorder(Fed),
               "in-process Scanner vs one-shot dense run");
}

//===----------------------------------------------------------------------===//
// Traced service probe.
//===----------------------------------------------------------------------===//

std::unique_ptr<ScanServer> startServer(const std::string &Sock,
                                        const std::string &CacheDir,
                                        RunReport &R) {
  std::filesystem::create_directories(CacheDir);
  ServerOptions O;
  O.UdsPath = Sock;
  O.Workers = std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
  O.Cache.CacheDir = CacheDir;
  ++R.Attempted;
  Result<std::unique_ptr<ScanServer>> S = ScanServer::start(O);
  if (!S.ok()) {
    fail(R, "server start: " + S.diag().render());
    return nullptr;
  }
  return S.take();
}

void stopServer(std::unique_ptr<ScanServer> &Server) {
  Server->requestStop();
  Server->waitStopped();
  Server.reset();
}

/// A Hello on a new connection to \p Sock. \returns the connection, or
/// nothing after counting the failure.
std::optional<ScanClient> hello(const std::string &Sock,
                                const std::vector<std::string> &Rules,
                                TraceFacts &F, RunReport &R) {
  ++R.Attempted;
  Result<ScanClient> C = ScanClient::connectUds(Sock);
  if (!C.ok()) {
    fail(R, "connect: " + C.diag().render());
    return std::nullopt;
  }
  ScopedSpan S("service.hello");
  Result<HelloInfo> H = C->hello("probe", Rules, 0);
  if (!H.ok()) {
    fail(R, "hello: " + H.diag().render());
    return std::nullopt;
  }
  F.Hellos.push_back({S.elapsedSec() * 1e3, H->Source});
  return C.take();
}

/// One stream session: open, feed \p Chunks of \p Stream in a closed loop
/// (the next chunk goes only after the previous ChunkDone), close. The
/// session must acknowledge the whole stream and report \p Expected.
bool session(ScanClient &Client, std::string_view Stream,
             const std::vector<size_t> &Chunks, const MatchList &Expected,
             TraceFacts &F, RunReport &R) {
  ScopedSpan Root("service.session");
  ++R.Attempted;
  {
    ScopedSpan S("service.open");
    std::string Message;
    Result<StatusCode> Opened = Client.openStream(1, &Message);
    if (!Opened.ok() || *Opened != StatusCode::Ok)
      return fail(R, "open: " +
                         (Opened.ok() ? Message : Opened.diag().render()));
  }
  std::vector<Match> Got;
  size_t Pos = 0;
  for (size_t Len : Chunks) {
    std::string_view Chunk = Stream.substr(Pos, Len);
    for (;;) {
      ++R.Attempted;
      ScopedSpan S("service.chunk", newTrace());
      Result<ChunkOutcome> Out = Client.sendChunk(1, Chunk);
      double Us = S.elapsedSec() * 1e6;
      if (!Out.ok())
        return fail(R, "chunk: " + Out.diag().render());
      if (Out->Status == StatusCode::Overloaded) {
        ++F.Shed; // Shed chunks are not consumed; retrying is the contract.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (Out->Status != StatusCode::Ok || Out->Truncated)
        return fail(R, std::string("chunk rejected: ") +
                           statusName(Out->Status));
      F.ChunkUs.push_back(Us);
      for (const ClientMatch &M : Out->Matches)
        Got.emplace_back(M.Rule, M.End);
      break;
    }
    Pos += Len;
  }
  ScopedSpan S("service.close");
  Result<StreamEnd> End = Client.closeStream(1);
  if (!End.ok() || End->Status != StatusCode::Ok)
    return fail(R, "close: " + (End.ok() ? std::string(statusName(End->Status))
                                         : End.diag().render()));
  for (const ClientMatch &M : End->Matches)
    Got.emplace_back(M.Rule, M.End);
  if (End->TotalBytes != Stream.size())
    return fail(R, "session acknowledged " + std::to_string(End->TotalBytes) +
                       " of " + std::to_string(Stream.size()) + " bytes");
  R.Check.expectSame(Expected, normalize(std::move(Got)),
                     "chunked service session vs dense iMFAnt");
  return true;
}

/// A short traced service run, so traced runs report the service layer: an
/// in-process ScanServer on a fresh cache directory answers one Hello with a
/// cold compile, streams \p Stream in \p Chunks, and answers GetStats; a
/// restarted server on the same directory then answers one Hello from the
/// artifact and a second from memory.
void serviceProbe(const std::vector<std::string> &Rules,
                  std::string_view Stream, const std::vector<size_t> &Chunks,
                  const MatchList &Expected, TraceFacts &F, RunReport &R) {
  const std::string CacheDir = "probe-cache";
  std::filesystem::remove_all(CacheDir);
  {
    std::unique_ptr<ScanServer> Server = startServer("cold.sock", CacheDir, R);
    if (!Server)
      return;
    if (std::optional<ScanClient> C = hello("cold.sock", Rules, F, R)) {
      session(*C, Stream, Chunks, Expected, F, R);
      ++R.Attempted;
      ScopedSpan S("service.stats");
      Result<std::string> Stats = C->stats();
      if (Stats.ok())
        F.StatsJson = *Stats;
      else
        fail(R, "stats: " + Stats.diag().render());
    }
    stopServer(Server);
  }
  std::unique_ptr<ScanServer> Server = startServer("warm.sock", CacheDir, R);
  if (!Server)
    return;
  for (int I = 0; I < 2; ++I)
    if (!hello("warm.sock", Rules, F, R))
      break;
  stopServer(Server);
  R.Check.expect(F.Hellos.size() == 3 &&
                     F.Hellos[0].Source == CacheSource::Compiled &&
                     F.Hellos[1].Source == CacheSource::Artifact &&
                     F.Hellos[2].Source == CacheSource::Memory,
                 "service probe did not serve compiled, artifact, memory");
}

/// Pulls a histogram's quantile out of a GetStats JSON dump, interpolating
/// linearly inside the bucket; 0 when absent or empty.
double statsQuantile(const std::string &Json, const std::string &Name,
                     double Q) {
  size_t At = Json.find("\"" + Name + "\": {\"bounds\": [");
  if (At == std::string::npos)
    return 0.0;
  auto Numbers = [&](const char *Key) {
    std::vector<double> Out;
    size_t P = Json.find(Key, At);
    if (P == std::string::npos)
      return Out;
    P = Json.find('[', P) + 1;
    size_t E = Json.find(']', P);
    std::string Body = Json.substr(P, E - P);
    for (char *C = Body.data(); *C;) {
      char *Next = nullptr;
      double D = std::strtod(C, &Next);
      if (Next == C)
        break;
      Out.push_back(D);
      C = Next;
      while (*C == ',' || *C == ' ')
        ++C;
    }
    return Out;
  };
  std::vector<double> Bounds = Numbers("\"bounds\"");
  std::vector<double> Counts = Numbers("\"counts\"");
  double Total = 0.0;
  for (double C : Counts)
    Total += C;
  if (Total == 0.0 || Counts.size() != Bounds.size() + 1)
    return 0.0;
  double Want = Q * Total, Seen = 0.0;
  for (size_t I = 0; I < Counts.size(); ++I) {
    if (Seen + Counts[I] >= Want && Counts[I] > 0) {
      double Lo = I == 0 ? 0.0 : Bounds[I - 1];
      double Hi = I < Bounds.size() ? Bounds[I] : Lo;
      return Lo + (Hi - Lo) * (Want - Seen) / Counts[I];
    }
    Seen += Counts[I];
  }
  return Bounds.back();
}

uint64_t statsCounter(const std::string &Json, const std::string &Name) {
  std::string Needle = "\"" + Name + "\": ";
  size_t At = Json.find(Needle);
  return At == std::string::npos
             ? 0
             : std::strtoull(Json.c_str() + At + Needle.size(), nullptr, 10);
}

/// Turns spans and facts into the per-layer metric set.
void perLayer(RunReport &R, const TraceFacts &F) {
  std::map<std::string, SpanTotals> T = spanTotals();
  // Layer times are mean self time per call (one call per set-up or per
  // artifact round trip); sizes are totals over the ruleset.
  auto Ms = [&](const char *Name) {
    const SpanTotals &S = T[Name];
    return S.Count ? S.SelfSec * 1e3 / static_cast<double>(S.Count) : 0.0;
  };
  auto Add = [&](const std::string &Name, double V, const char *Unit) {
    R.Metrics.push_back({Name, V, Unit});
  };
  Add("regex.parse_ms", Ms("regex.parse"), "ms");
  Add("fsa.build_ms", Ms("fsa.build"), "ms");
  Add("fsa.optimize_ms", Ms("fsa.optimize"), "ms");
  Add("fsa.states", static_cast<double>(F.Counts.FsaStates), "count");
  Add("fsa.transitions", static_cast<double>(F.Counts.FsaTransitions),
      "count");
  Add("mfsa.merge_ms", Ms("mfsa.merge"), "ms");
  Add("mfsa.states", static_cast<double>(F.Counts.MfsaStates), "count");
  Add("mfsa.transitions", static_cast<double>(F.Counts.MfsaTransitions),
      "count");
  Add("mfsa.groups", static_cast<double>(F.Counts.MfsaGroups), "count");
  Add("analysis.plan_ms", Ms("analysis.plan"), "ms");
  Add("artifact.write_ms", Ms("artifact.write"), "ms");
  Add("artifact.load_ms", Ms("artifact.load"), "ms");
  Add("artifact.image_bytes", static_cast<double>(F.ImageBytes), "B");
  Add("engine.build_ms", Ms("engine.build"), "ms");
  Add("engine.scan_s", median(F.ScanSec), "s");
  double Bytes = static_cast<double>(std::max<uint64_t>(F.StatsBytes, 1));
  Add("engine.entries_per_byte",
      static_cast<double>(F.Stats.TransitionsEvaluated) / Bytes, "entries/B");
  Add("engine.avg_active_rules", F.Stats.AvgActiveRules, "rules");
  Add("engine.max_frontier", F.Stats.MaxFrontier, "states");
  Add("engine.table_bytes", static_cast<double>(F.TableBytes), "B");
  double PreTotal = T["engine.prefilter.scan"].SelfSec;
  double Residual = T["engine.prefilter.residual_scan"].SelfSec;
  Add("engine.prefilter.literal_scan_s", std::max(0.0, PreTotal - Residual),
      "s");
  Add("engine.prefilter.residual_scan_s", Residual, "s");
  Add("engine.prefilter.residual_rules",
      static_cast<double>(F.ResidualRules), "count");
  double FeedP50 = quantile(F.FeedUs, 0.5);
  Add("engine.feed_us_p50", FeedP50, "us");
  Add("engine.feed_us_p99", quantile(F.FeedUs, 0.99), "us");
  Add("service.chunk_us_p99", quantile(F.ChunkUs, 0.99), "us");
  Add("service.overhead_us_p50", quantile(F.ChunkUs, 0.5) - FeedP50, "us");
  Add("service.server_scan_us_p50",
      statsQuantile(F.StatsJson, "service.scan.latency_us", 0.5), "us");
  Add("service.server_scan_us_p99",
      statsQuantile(F.StatsJson, "service.scan.latency_us", 0.99), "us");
  Add("service.queue_depth_p99",
      statsQuantile(F.StatsJson, "service.queue.depth", 0.99), "chunks");
  Add("service.shed_retries", static_cast<double>(F.Shed), "count");
  const std::pair<const char *, CacheSource> Sources[] = {
      {"compiled", CacheSource::Compiled},
      {"artifact", CacheSource::Artifact},
      {"memory", CacheSource::Memory}};
  for (const auto &[Name, Source] : Sources) {
    std::vector<double> HelloMs;
    for (const HelloSample &H : F.Hellos)
      if (H.Source == Source)
        HelloMs.push_back(H.Ms);
    Add(std::string("service.hello_") + Name + "_ms", median(HelloMs), "ms");
    Add(std::string("service.hellos_") + Name,
        static_cast<double>(HelloMs.size()), "count");
  }
  Add("service.cache_evictions",
      static_cast<double>(statsCounter(F.StatsJson, "service.cache.evictions")),
      "count");

  // Tracing cost: the spanned layer walk against the same walk bare. Set-up
  // accounting: the public path's time that no layer span covers (the work
  // compileRuleset and createFromRuleset do beyond the layer walk counts
  // here, as does the tracing overhead).
  Add("trace.overhead_pct",
      100.0 * (F.SpannedSetupSec - F.BareSetupSec) /
          std::max(F.BareSetupSec, 1e-9),
      "%");
  Add("trace.setup_unaccounted_pct",
      100.0 * (F.PublicSetupSec - F.LayerSelfSec) /
          std::max(F.PublicSetupSec, 1e-9),
      "%");
  Add("trace.spans", static_cast<double>(allSpans().size()), "count");
}

//===----------------------------------------------------------------------===//
// offline-literal and offline-dotstar.
//===----------------------------------------------------------------------===//

RunReport runOffline(const RunOptions &O, const OfflineParams &W) {
  RunReport R;
  const DatasetSpec &Spec = dataset(W.Dataset);
  const std::vector<std::string> Rules = generateRuleset(Spec);
  const std::string Stream =
      generateStream(Spec, Rules, W.StreamBytes, O.Seed);
  Digest D;
  D.add(Rules);
  D.add(Stream);
  R.InputDigest = D.H;

  if (O.Trace) {
    Rng ChunkRng(mix(O.Seed, 0xfeed));
    const std::string_view Probe =
        std::string_view(Stream).substr(0, kStatsBytes);
    const std::vector<size_t> Chunks = packetChunks(ChunkRng, Probe.size());
    TraceFacts F;
    Prepared P;
    if (!tracedSetup(Rules, P, F, R))
      return R;
    std::vector<ImfantEngine> Dense;
    std::string Error;
    if (!buildDense(Rules, Dense, Error)) {
      R.Check.expect(false, Error);
      return R;
    }
    artifactWalk(Rules, P, "offline.mfsa", Probe.substr(0, W.NfaPrefix), F,
                 R.Check);
    engineWalk(Rules, P, Dense, Stream, Chunks, F, R.Check);
    R.Attempted += kTracedScanPasses;
    serviceProbe(Rules, Probe, Chunks, scanDense(Dense, Probe), F, R);
    checkStream(R, W, Rules, Stream, scanPlanned(*P.Engine, Stream));
    perLayer(R, F);
    return R;
  }

  std::vector<double> SetupSec;
  std::optional<Prepared> P;
  for (unsigned Rep = 0; Rep < kSetupReps; ++Rep) {
    P.reset();
    Prepared Cur;
    std::string Error;
    ++R.Attempted;
    Timer T;
    bool Ok = prepare(Rules, Cur, Error);
    SetupSec.push_back(T.elapsedSec());
    if (!Ok) {
      fail(R, Error);
      return R;
    }
    P.emplace(std::move(Cur));
  }

  // The first pass warms caches; every timed pass must report its count.
  MatchRecorder First;
  ++R.Attempted;
  P->Engine->run(Stream, First);
  std::vector<double> PassSec;
  Timer Window;
  do {
    MatchRecorder Rec;
    ++R.Attempted;
    Timer T;
    P->Engine->run(Stream, Rec);
    PassSec.push_back(T.elapsedSec());
    if (Rec.total() != First.total())
      fail(R, "a timed pass reported a different match count");
  } while (Window.elapsedSec() < O.Seconds);

  R.Metrics.push_back({"setup_s", median(SetupSec), "s"});
  R.Metrics.push_back(
      {"scan_mb_s",
       static_cast<double>(Stream.size()) / 1e6 / median(PassSec), "MB/s"});
  R.Metrics.push_back({"pass_p90_ms", quantile(PassSec, 0.9) * 1e3, "ms"});
  // Read before the checks allocate anything, so the peak is the program's.
  R.Metrics.push_back({"peak_rss_mb", peakRssMb(), "MiB"});

  const MatchList Planned = scanPlanned(*P->Engine, Stream);
  R.Check.expect(Planned.size() == First.total(),
                 "the collecting pass reported a different match count");
  checkStream(R, W, Rules, Stream, Planned);
  return R;
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"offline-literal",
                                                 "offline-dotstar"};
  return Names;
}

RunReport runWorkload(const RunOptions &O) {
  return runOffline(O, O.Workload == "offline-literal" ? kLiteral : kDotstar);
}

} // namespace perfbench
