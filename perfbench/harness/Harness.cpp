#include "Harness.h"

#include "Calibrate.h"
#include "Stats.h"
#include "Trace.h"

#include "boolprog/Interprocedural.h"
#include "boolprog/Witness.h"
#include "cert/Checker.h"
#include "cert/Emit.h"
#include "client/CFG.h"
#include "core/Certifier.h"
#include "core/Evaluation.h"
#include "core/Replay.h"
#include "dataflow/DefiniteAssignment.h"
#include "dataflow/Slicing.h"
#include "easl/Builtins.h"
#include "shard/Corpus.h"
#include "store/InputHash.h"
#include "support/CertifyError.h"
#include "tvla/Certify.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>

using namespace canvas;
using namespace perfbench;
namespace fs = std::filesystem;

const char *perfbench::workloadName(Workload W) {
  switch (W) {
  case Workload::IntraCold:
    return "intra-cold";
  case Workload::InterprocCerts:
    return "interproc-certs";
  case Workload::StoreChurn:
    return "store-churn";
  case Workload::TvlaIndependent:
    return "tvla-independent";
  }
  return "?";
}

bool perfbench::parseWorkload(const std::string &Name, Workload &Out) {
  for (Workload W : {Workload::IntraCold, Workload::InterprocCerts,
                     Workload::StoreChurn, Workload::TvlaIndependent})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

namespace {

/// The workload's default corpus size and pool factor (see
/// Config::Clients): about five seconds per pass, and a pool of at most
/// about 8 000 generated clients.
std::pair<unsigned, unsigned> defaultSizing(Workload W) {
  switch (W) {
  case Workload::IntraCold:
    return {2400, 3};
  case Workload::InterprocCerts:
    return {800, 8};
  case Workload::StoreChurn:
    return {250, 10};
  case Workload::TvlaIndependent:
    return {4000, 2};
  }
  return {200, 1};
}

} // namespace

const Metric *Result::find(const std::string &Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Hard wall-clock cap on the measured phase, so that a run on a slow host
/// still ends in under three minutes.
constexpr double MeasureCapSeconds = 90;

/// Path bound of the ground-truth explorer behind the Missed gate: it
/// still reaches nearly every obligation site of the generated clients
/// at a small fraction of the default bound's cost.
constexpr unsigned GroundTruthPaths = 200;

/// Store-churn edits one client in ChurnRotation per pass (25%).
constexpr size_t ChurnRotation = 4;

/// splitmix64: the churn schedule's generator.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
};

core::EngineKind engineFor(Workload W) {
  switch (W) {
  case Workload::InterprocCerts:
    return core::EngineKind::SCMPInterproc;
  case Workload::TvlaIndependent:
    return core::EngineKind::TVLAIndependent;
  default:
    return core::EngineKind::SCMPIntra;
  }
}

core::CertifierOptions optionsFor(Workload W, const std::string &StorePath) {
  core::CertifierOptions O;
  O.Workers = 1;
  if (W == Workload::InterprocCerts) {
    O.EmitCertificates = true;
    O.CheckCertificates = true;
  }
  if (W == Workload::StoreChurn)
    O.StorePath = StorePath;
  return O;
}

/// The store-churn schedule: the clients pass \p Pass edits. \p ByKey
/// lists the corpus in stratum order (see Bench::prepareCorpus); it
/// splits into groups of \p Rotation consecutive clients, and each group
/// edits one member per pass in an order drawn from the seed. Every pass
/// thus edits the same share of each cost stratum, and every Rotation
/// consecutive passes edit each client exactly once.
std::vector<bool> churnSchedule(uint64_t Seed, unsigned Pass,
                                const std::vector<size_t> &ByKey,
                                size_t Rotation) {
  std::vector<bool> Edit(ByKey.size(), false);
  for (size_t Start = 0, Group = 0; Start < ByKey.size();
       Start += Rotation, ++Group) {
    Rng R(Seed * 0x2545F4914F6CDD1Dull + 0x636875726E000000ull + Group);
    std::vector<size_t> Order(Rotation);
    std::iota(Order.begin(), Order.end(), 0);
    for (size_t I = Rotation; I > 1; --I)
      std::swap(Order[I - 1], Order[R.next() % I]);
    const size_t Slot = Order[Pass % Rotation];
    if (Start + Slot < ByKey.size())
      Edit[ByKey[Start + Slot]] = true;
  }
  return Edit;
}

/// The churn edit: one prepended comment line shifts every source
/// location, so every method of the client misses the store.
std::string churnEdit(const std::string &Source) {
  return "// churn: edited since the store was filled\n" + Source;
}

/// Replaces \p Live with a copy of \p Snapshot.
void restoreStore(const std::string &Snapshot, const std::string &Live) {
  fs::remove_all(Live);
  fs::copy(Snapshot, Live, fs::copy_options::recursive);
}

size_t countStoreEntries(const std::string &Root) {
  size_t N = 0;
  std::error_code EC;
  for (const fs::directory_entry &DE :
       fs::directory_iterator(fs::path(Root) / "entries", EC))
    N += DE.path().extension() == ".cert";
  return N;
}

/// Resets the kernel's resident-set high-water mark (VmHWM), returning
/// freed heap first, so the benchmark's own corpus preparation does not
/// count toward peak_rss_mb.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream F("/proc/self/clear_refs");
  F << "5";
}

/// Peak resident memory since the last resetPeakRss (VmHWM); the
/// process-lifetime ru_maxrss where /proc is unavailable.
double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB.
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // KiB.
}

std::vector<core::CheckOutcome> outcomesOf(const core::CertificationReport &R) {
  std::vector<core::CheckOutcome> Out;
  for (const core::CheckVerdict &C : R.Checks)
    Out.push_back(C.Outcome);
  return Out;
}

bool flagged(core::CheckOutcome O) {
  return O == core::CheckOutcome::Potential ||
         O == core::CheckOutcome::Definite;
}

/// One certifySource call: its timed window and what the gate needs.
struct Call {
  double Ms = 0;
  Clock::time_point End; ///< When the timed window closed.
  core::CertificationReport Rep;
  bool ParseErrors = false;
  std::string Threw; ///< Non-empty when the call threw.
};

Call certifyOnce(const core::Certifier &C, const std::string &Source) {
  Call Out;
  DiagnosticEngine Diags;
  const Clock::time_point T0 = Clock::now();
  try {
    Out.Rep = C.certifySource(Source, Diags);
  } catch (const CertifyError &E) {
    Out.Threw = std::string("CertifyError: ") + E.what();
  } catch (const std::exception &E) {
    Out.Threw = std::string("exception: ") + E.what();
  }
  Out.End = Clock::now();
  Out.Ms = std::chrono::duration<double, std::milli>(Out.End - T0).count();
  Out.ParseErrors = Diags.hasErrors();
  return Out;
}

/// The correctness gate's bookkeeping. Every gated call counts as
/// attempted; a call fails on the first violated check.
class Gate {
public:
  explicit Gate(Result &R) : R(R) {}

  /// Gates one call; \p Expected is the reference Report.str() (empty
  /// when this call establishes the reference).
  bool check(const Call &C, const std::string &Expected,
             const std::string &Client) {
    ++R.Attempted;
    if (!C.Threw.empty())
      return fail(Client, C.Threw);
    if (C.ParseErrors)
      return fail(Client, "parse diagnostics");
    if (C.Rep.Degraded)
      return fail(Client, "degraded report (ran " + C.Rep.EffectiveEngine +
                              ")");
    // A store that fails over to re-analysis keeps verdicts right but
    // silently measures another path.
    if (!C.Rep.Store.Incidents.empty())
      return fail(Client, "store incident: " + C.Rep.Store.Incidents[0].Kind +
                              ": " + C.Rep.Store.Incidents[0].Detail);
    if (!Expected.empty() && C.Rep.str() != Expected)
      return fail(Client, "report differs from the reference report");
    return true;
  }

  /// Counts one more failed call (already counted as attempted).
  bool fail(const std::string &Client, const std::string &Why) {
    ++R.Failed;
    invalid(Client + ": " + Why, Why);
    return false;
  }

  /// Marks the run incorrect without a failed call (a broken measurement
  /// rather than a broken certification).
  void invalid(const std::string &Line, const std::string &Reason = "") {
    R.Correct = false;
    if (Reasons.insert(Reason.empty() ? Line : Reason).second &&
        R.Failures.size() < 12)
      R.Failures.push_back(Line);
  }

  void attempted() { ++R.Attempted; }

private:
  Result &R;
  std::set<std::string> Reasons;
};

void addMetric(Result &R, std::string Name, double Value, std::string Unit,
               std::string Note = "", bool InJson = true) {
  R.Metrics.push_back(
      {std::move(Name), Value, std::move(Unit), std::move(Note), InJson});
}

std::string fmt(const char *Format, double A, double B = 0, double C = 0,
                double D = 0) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), Format, A, B, C, D);
  return Buf;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

//===----------------------------------------------------------------------===//
// Outside-in layer replay (the traced run)
//===----------------------------------------------------------------------===//

/// Layers every workload's certify path runs, reported in ms.
constexpr const char *CommonLayers[] = {"client.parse", "client.cfg",
                                        "dataflow.preanalyze"};
/// Layers only some workloads run: reported in ms for people, and in the
/// JSON result as their share of core.certify_ms.
constexpr const char *PathLayers[] = {
    "dataflow.slice", "boolprog.build", "boolprog.fixpoint",
    "boolprog.witness", "boolprog.interproc", "cert.emit", "cert.check",
    "store.open", "store.hash", "store.get", "store.validate", "store.put",
    "tvla.certify"};

/// Per-pass counters the replay collects at the layer boundaries.
struct LayerCounts {
  uint64_t CfgEdges = 0, SliceRuns = 0, BoolVars = 0, WitnessTraces = 0,
           FixpointIterations = 0, PathEdges = 0, Summaries = 0,
           ExplodedNodes = 0, CertBytes = 0, CertRaw = 0, CertStored = 0,
           StoreGets = 0, StoreHits = 0, StoreRejected = 0, StorePuts = 0;
};

/// Replays one Certifier::certify call from outside the program: the
/// same public layer calls, in the same order, on the same options —
/// each wrapped in a span. Returns the verdict outcomes in report order
/// so the caller can check the replay against the real report.
class LayerReplay {
public:
  LayerReplay(Tracer &T, const core::Certifier &C, Workload W,
              uint64_t SpecHash, LayerCounts &K)
      : T(T), C(C), W(W), SpecHash(SpecHash), K(K) {}

  std::vector<core::CheckOutcome> certify(uint32_t Client,
                                          const std::string &Source,
                                          const std::string &StorePath);

private:
  using Scope = Tracer::Scope;
  struct SlicedItem {
    int Edge;
    core::CheckOutcome Outcome;
  };

  std::vector<SlicedItem>
  analyzeSliced(const cj::CFGMethod &M,
                const std::vector<std::vector<std::string>> &Slices,
                DiagnosticEngine &Diags);
  void lint(const cj::ClientCFG &CFG);
  /// The store-mode SCMPIntra unit path (certificates forced on):
  /// per-slice with a SlicePartition certificate when the method splits,
  /// else one unsliced run with a BoolIntra certificate.
  store::StoreEntry certifyUnit(const cj::CFGMethod &M);
  std::vector<core::CheckOutcome> intraCold(const cj::ClientCFG &CFG,
                                            DiagnosticEngine &Diags);
  std::vector<core::CheckOutcome> interproc(const cj::ClientCFG &CFG,
                                            DiagnosticEngine &Diags);
  std::vector<core::CheckOutcome> tvlaIndependent(const cj::ClientCFG &CFG,
                                                 DiagnosticEngine &Diags);
  std::vector<core::CheckOutcome> storeChurn(const cj::ClientCFG &CFG,
                                             const std::string &StorePath);
  void countCert(const cert::Certificate &Cert) {
    K.CertBytes += Cert.bytes();
    K.CertRaw += Cert.RawEntries;
    K.CertStored += Cert.StoredEntries;
  }

  Tracer &T;
  const core::Certifier &C;
  Workload W;
  uint64_t SpecHash;
  LayerCounts &K;
  uint32_t Client = 0;
  support::CancelToken Tok;
};

std::vector<core::CheckOutcome>
LayerReplay::certify(uint32_t ClientIndex, const std::string &Source,
                     const std::string &StorePath) {
  Client = ClientIndex;
  Scope Root(T, "client", Client);
  DiagnosticEngine Diags;
  cj::Program P;
  {
    Scope S(T, "client.parse", Client);
    P = cj::parseProgram(Source, Diags);
  }
  if (Diags.hasErrors())
    return {};
  cj::ClientCFG CFG;
  {
    Scope S(T, "client.cfg", Client);
    CFG = cj::buildCFG(P, C.spec(), Diags);
  }
  if (Diags.hasErrors())
    return {};
  for (const cj::CFGMethod &M : CFG.Methods)
    K.CfgEdges += M.Edges.size();
  switch (W) {
  case Workload::IntraCold:
    return intraCold(CFG, Diags);
  case Workload::InterprocCerts:
    return interproc(CFG, Diags);
  case Workload::TvlaIndependent:
    return tvlaIndependent(CFG, Diags);
  case Workload::StoreChurn:
    return storeChurn(CFG, StorePath);
  }
  return {};
}

std::vector<LayerReplay::SlicedItem> LayerReplay::analyzeSliced(
    const cj::CFGMethod &M, const std::vector<std::vector<std::string>> &Slices,
    DiagnosticEngine &Diags) {
  std::vector<SlicedItem> Items;
  auto RunOne = [&](const bp::BuildRestriction &Restrict) {
    bp::BooleanProgram BP;
    {
      Scope S(T, "boolprog.build", Client);
      BP = bp::buildBooleanProgram(C.abstraction(), M, Diags, Restrict);
    }
    bp::IntraResult R;
    {
      Scope S(T, "boolprog.fixpoint", Client);
      R = bp::analyzeIntraproc(BP, &Tok);
    }
    ++K.SliceRuns;
    K.BoolVars += BP.Vars.size();
    K.FixpointIterations += R.Iterations;
    std::unique_ptr<bp::IntraWitnessEngine> WE;
    for (size_t I = 0; I != BP.Checks.size(); ++I) {
      Items.push_back({BP.Checks[I].Edge, R.CheckResults[I]});
      if (!flagged(R.CheckResults[I]))
        continue;
      Scope S(T, "boolprog.witness", Client);
      if (!WE)
        WE = std::make_unique<bp::IntraWitnessEngine>(BP);
      WE->witnessFor(I);
      ++K.WitnessTraces;
    }
  };
  if (Slices.empty()) {
    RunOne(bp::BuildRestriction{});
  } else {
    for (const std::vector<std::string> &Sl : Slices) {
      bp::BuildRestriction BR;
      BR.Vars = Sl;
      RunOne(BR);
    }
  }
  if (Slices.size() > 1 &&
      std::any_of(Items.begin(), Items.end(), [](const SlicedItem &I) {
        return I.Outcome == core::CheckOutcome::Definite;
      })) {
    Items.clear();
    bp::BuildRestriction Union;
    for (const std::vector<std::string> &Sl : Slices)
      Union.Vars.insert(Union.Vars.end(), Sl.begin(), Sl.end());
    RunOne(Union);
  }
  std::stable_sort(Items.begin(), Items.end(),
                   [](const SlicedItem &A, const SlicedItem &B) {
                     return A.Edge < B.Edge;
                   });
  return Items;
}

void LayerReplay::lint(const cj::ClientCFG &CFG) {
  dataflow::PreAnalysisOptions LintOnly = C.options().Pre;
  LintOnly.EliminateDeadStores = false;
  LintOnly.Slice = false;
  LintOnly.Cancel = &Tok;
  Scope S(T, "dataflow.preanalyze", Client);
  dataflow::preAnalyze(CFG, C.abstraction(), LintOnly);
}

std::vector<core::CheckOutcome>
LayerReplay::intraCold(const cj::ClientCFG &CFG, DiagnosticEngine &Diags) {
  dataflow::PreAnalysisOptions PO = C.options().Pre;
  PO.Cancel = &Tok;
  dataflow::PreAnalysisResult PA;
  {
    Scope S(T, "dataflow.preanalyze", Client);
    PA = dataflow::preAnalyze(CFG, C.abstraction(), PO);
  }
  std::vector<core::CheckOutcome> Out;
  for (const dataflow::MethodPlan &Plan : PA.Plans) {
    const std::vector<SlicedItem> Items =
        analyzeSliced(Plan.CFG, Plan.Slices, Diags);
    // Obligations on pruned edges are Unreachable, interleaved back
    // into original edge order (as the certifier does).
    size_t I = 0, D = 0;
    while (I != Items.size() || D != Plan.DroppedChecks.size()) {
      const bool TakeDropped =
          I == Items.size() ||
          (D != Plan.DroppedChecks.size() &&
           Plan.DroppedChecks[D].OrigEdge <
               Plan.OrigEdgeIndex[Items[I].Edge]);
      if (TakeDropped) {
        ++D;
        Out.push_back(core::CheckOutcome::Unreachable);
      } else {
        Out.push_back(Items[I++].Outcome);
      }
    }
  }
  return Out;
}

std::vector<core::CheckOutcome>
LayerReplay::interproc(const cj::ClientCFG &CFG, DiagnosticEngine &Diags) {
  lint(CFG);
  const cj::CFGMethod *Main = CFG.mainCFG();
  if (!Main)
    return {};
  std::unique_ptr<bp::InterprocModel> Model;
  bp::IfdsTabulation Tab;
  bp::InterResult R;
  {
    Scope S(T, "boolprog.interproc", Client);
    Model = std::make_unique<bp::InterprocModel>(C.abstraction(), CFG, *Main,
                                                 Diags);
    R = bp::analyzeInterproc(*Model, &Tok, &Tab);
  }
  K.PathEdges += R.PathEdges;
  K.Summaries += R.Summaries;
  K.ExplodedNodes += R.ExplodedNodes;
  cert::Certificate Cert;
  {
    Scope S(T, "cert.emit", Client);
    Cert = cert::emitIfds(*Model, Tab);
  }
  countCert(Cert);
  {
    Scope S(T, "cert.check", Client);
    cert::Checker Ck(C.spec(), C.abstraction(), CFG);
    if (!Ck.check(Cert).Valid)
      return {};
  }
  std::vector<core::CheckOutcome> Out;
  for (const core::CheckRecord &Rec : R.Checks)
    Out.push_back(Rec.Outcome);
  return Out;
}

std::vector<core::CheckOutcome>
LayerReplay::tvlaIndependent(const cj::ClientCFG &CFG,
                             DiagnosticEngine &Diags) {
  lint(CFG);
  std::vector<core::CheckOutcome> Out;
  for (const cj::CFGMethod &M : CFG.Methods) {
    tvla::TVLAOptions TO;
    TO.Relational = false;
    TO.MaxStructuresPerPoint = C.options().TVLAMaxStructuresPerPoint;
    TO.Cancel = &Tok;
    tvla::TVLAResult R;
    {
      Scope S(T, "tvla.certify", Client);
      R = tvla::certifyWithTVLA(C.spec(), C.abstraction(), M, TO, Diags);
    }
    for (const tvla::TVLAResult::Chk &Chk : R.Checks)
      Out.push_back(Chk.Outcome);
  }
  return Out;
}

store::StoreEntry LayerReplay::certifyUnit(const cj::CFGMethod &M) {
  const wp::DerivedAbstraction &Abs = C.abstraction();
  store::StoreEntry E;
  E.Unit = M.name();
  E.Engine = core::engineName(core::EngineKind::SCMPIntra);
  E.HasCert = true;
  DiagnosticEngine Quiet;
  auto Record = [&](const bp::Check &Chk, core::CheckOutcome O) {
    core::CheckRecord Rec;
    Rec.Method = M.name();
    Rec.Loc = Chk.Loc;
    Rec.What = Chk.What;
    Rec.ReqLoc = Chk.ReqLoc;
    Rec.Outcome = O;
    E.Checks.push_back(std::move(Rec));
  };

  if (!M.CompVars.empty()) {
    E.HasSummary = true;
    E.Slices = 1;
    std::vector<dataflow::BitVector> MayUninit;
    dataflow::SliceResult SR;
    {
      Scope S(T, "dataflow.slice", Client);
      const dataflow::CFGInfo Info(M);
      const dataflow::DefiniteAssignmentResult DA =
          dataflow::analyzeDefiniteAssignment(M, Info, &Abs, &Tok, &MayUninit);
      std::vector<std::string> Universe;
      for (const auto &NameAndType : M.CompVars)
        Universe.push_back(NameAndType.first);
      dataflow::SliceCostModel Cost;
      for (const wp::PredicateFamily &Fam : Abs.Families)
        Cost.FamilySlotTypes.push_back(Fam.VarTypes);
      SR = dataflow::computeSlices(M, Universe, !DA.clean(),
                                   dataflow::abstractionReadsRetSources(Abs),
                                   nullptr, &Cost);
    }
    E.Slices = static_cast<uint32_t>(SR.Slices.size());
    if (SR.ForcedSingleReason)
      E.ForcedSingleReason = SR.ForcedSingleReason;
    if (SR.Slices.size() >= 2) {
      std::vector<bp::BooleanProgram> BPs;
      std::vector<bp::IntraResult> Rs;
      for (const std::vector<std::string> &Sl : SR.Slices) {
        bp::BuildRestriction Restrict;
        Restrict.Vars = Sl;
        {
          Scope S(T, "boolprog.build", Client);
          BPs.push_back(bp::buildBooleanProgram(Abs, M, Quiet, Restrict));
        }
        Scope S(T, "boolprog.fixpoint", Client);
        Rs.push_back(bp::analyzeIntraproc(BPs.back(), &Tok));
      }
      bool Definite = false;
      for (size_t SI = 0; SI != BPs.size(); ++SI) {
        ++K.SliceRuns;
        K.BoolVars += BPs[SI].Vars.size();
        K.FixpointIterations += Rs[SI].Iterations;
        for (core::CheckOutcome O : Rs[SI].CheckResults)
          Definite |= O == core::CheckOutcome::Definite;
      }
      std::vector<bp::Check> Canon;
      if (!Definite) {
        Scope S(T, "boolprog.build", Client);
        Canon = bp::enumerateChecks(Abs, M, Quiet);
      }
      // Owner of each canonical check: positional per edge, as the
      // certifier (and the certificate checker) map them.
      std::vector<std::pair<int, int>> Owner(Canon.size(), {-1, -1});
      bool Mapped = !Definite;
      for (size_t SI = 0; Mapped && SI != BPs.size(); ++SI) {
        std::map<int, size_t> Seen;
        for (size_t J = 0; J != BPs[SI].Checks.size(); ++J) {
          const bp::Check &B = BPs[SI].Checks[J];
          size_t Nth = Seen[B.Edge]++;
          int Found = -1;
          for (size_t CI = 0; CI != Canon.size(); ++CI)
            if (Canon[CI].Edge == B.Edge && Nth-- == 0) {
              Found = static_cast<int>(CI);
              break;
            }
          if (Found < 0 || Owner[Found].first >= 0 ||
              Canon[Found].What != B.What || !(Canon[Found].Loc == B.Loc)) {
            Mapped = false;
            break;
          }
          Owner[Found] = {static_cast<int>(SI), static_cast<int>(J)};
        }
      }
      for (const std::pair<int, int> &O : Owner)
        Mapped &= O.first >= 0;
      if (Mapped) {
        std::vector<core::CheckOutcome> Outcomes;
        std::vector<std::unique_ptr<bp::IntraWitnessEngine>> WEs(BPs.size());
        for (size_t I = 0; I != Canon.size(); ++I) {
          const auto [SI, J] = Owner[I];
          Outcomes.push_back(Rs[SI].CheckResults[J]);
          Record(Canon[I], Outcomes.back());
          if (Outcomes.back() != core::CheckOutcome::Potential)
            continue;
          Scope S(T, "boolprog.witness", Client);
          if (!WEs[SI])
            WEs[SI] = std::make_unique<bp::IntraWitnessEngine>(BPs[SI]);
          E.Checks.back().Witness = WEs[SI]->witnessFor(J);
          ++K.WitnessTraces;
        }
        std::vector<cert::SliceEvidence> Ev;
        for (size_t SI = 0; SI != BPs.size(); ++SI)
          Ev.push_back({SR.Slices[SI], &BPs[SI], &Rs[SI]});
        {
          Scope S(T, "cert.emit", Client);
          E.Cert =
              cert::emitSlicePartition(M, Ev, Outcomes, MayUninit, nullptr);
        }
        countCert(E.Cert);
        E.CertHash = E.Cert.ContentHash;
        return E;
      }
    }
  }

  // Unsliced: the method does not split, or the per-slice attempt needs
  // the unsliced confirmation run.
  E.Checks.clear();
  bp::BooleanProgram BP;
  {
    Scope S(T, "boolprog.build", Client);
    BP = bp::buildBooleanProgram(Abs, M, Quiet);
  }
  bp::IntraResult R;
  {
    Scope S(T, "boolprog.fixpoint", Client);
    R = bp::analyzeIntraproc(BP, &Tok);
  }
  ++K.SliceRuns;
  K.BoolVars += BP.Vars.size();
  K.FixpointIterations += R.Iterations;
  {
    Scope S(T, "cert.emit", Client);
    E.Cert = cert::emitBoolIntra(BP, R);
  }
  countCert(E.Cert);
  E.CertHash = E.Cert.ContentHash;
  std::unique_ptr<bp::IntraWitnessEngine> WE;
  for (size_t I = 0; I != BP.Checks.size(); ++I) {
    Record(BP.Checks[I], R.CheckResults[I]);
    if (!flagged(R.CheckResults[I]))
      continue;
    Scope S(T, "boolprog.witness", Client);
    if (!WE)
      WE = std::make_unique<bp::IntraWitnessEngine>(BP);
    E.Checks.back().Witness = WE->witnessFor(I);
    ++K.WitnessTraces;
  }
  return E;
}

std::vector<core::CheckOutcome>
LayerReplay::storeChurn(const cj::ClientCFG &CFG,
                        const std::string &StorePath) {
  const wp::DerivedAbstraction &Abs = C.abstraction();
  std::unique_ptr<store::CertStore> St;
  {
    Scope S(T, "store.open", Client);
    St = std::make_unique<store::CertStore>(StorePath,
                                            store::StoreMode::ReadWrite);
  }
  std::map<std::string, uint64_t> UnitHashes;
  {
    // The certifier's context fingerprint for this configuration:
    // default Stage-0 options with slicing, no points-to.
    Scope S(T, "store.hash", Client);
    const uint64_t Ctx = store::contextFingerprint(
        SpecHash, Abs.str(), core::engineName(core::EngineKind::SCMPIntra),
        "v1:pre1:slice1:pt0:tvla" +
            std::to_string(C.options().TVLAMaxStructuresPerPoint));
    store::programInputHash(CFG, Ctx);
    UnitHashes = store::methodInputHashes(CFG, Ctx);
  }
  std::map<std::string, store::StoreEntry> Hits;
  cert::Checker Ck(C.spec(), Abs, CFG);
  for (const auto &[Unit, Hash] : UnitHashes) {
    std::unique_ptr<store::StoreEntry> E;
    {
      Scope S(T, "store.get", Client);
      E = St->get(Hash, Unit);
    }
    ++K.StoreGets;
    if (!E)
      continue;
    bool Accept;
    {
      Scope S(T, "store.validate", Client);
      cert::CheckResult CR;
      {
        Scope S2(T, "cert.check", Client);
        CR = Ck.check(E->Cert);
      }
      Accept = CR.Valid && E->Checks.size() == CR.NumChecks;
      for (const core::CheckRecord &Rec : E->Checks)
        if (Accept && flagged(Rec.Outcome) && !Rec.Witness.empty())
          Accept = core::replayWitness(C.spec(), CFG, Rec).validated();
    }
    if (!Accept) {
      ++K.StoreRejected;
      continue;
    }
    ++K.StoreHits;
    Hits.emplace(Unit, std::move(*E));
  }
  lint(CFG);
  std::vector<core::CheckOutcome> Out;
  std::vector<store::StoreEntry> Fresh;
  for (const cj::CFGMethod &M : CFG.Methods) {
    auto HitIt = Hits.find(M.name());
    const bool Hit = HitIt != Hits.end();
    if (!Hit) {
      Fresh.push_back(certifyUnit(M));
      Fresh.back().InputHash = UnitHashes[M.name()];
    }
    for (const core::CheckRecord &Rec :
         (Hit ? HitIt->second : Fresh.back()).Checks)
      Out.push_back(Rec.Outcome);
  }
  for (const store::StoreEntry &E : Fresh) {
    Scope S(T, "store.put", Client);
    St->put(E);
    ++K.StorePuts;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// The benchmark
//===----------------------------------------------------------------------===//

class Bench {
public:
  Bench(const Config &C, Result &R) : Cfg(C), R(R), G(R) {
    const auto [Clients, PoolFactor] = defaultSizing(Cfg.W);
    if (!Cfg.Clients)
      Cfg.Clients = Clients;
    if (!Cfg.PoolFactor)
      Cfg.PoolFactor = PoolFactor;
  }
  void run();

private:
  bool prepareCorpus();
  /// Times \p Reps set-ups of the workload's certifier into SetupSecs:
  /// spec parse plus derivation, and on store-churn also a fresh store
  /// and its cold fill pass. Stateless workloads repeat this between
  /// timed passes too, so setup_s samples the host over the whole run.
  bool setUp(unsigned Reps);
  /// Certifies the corpus once against the store (appended to ColdFill).
  void coldFill(const core::Certifier &C);
  void buildReferences();
  /// Sources of pass \p Pass (store-churn edits a seeded share).
  std::vector<std::string> passSources(unsigned Pass,
                                       std::vector<bool> &Edited) const;
  const std::string &expected(size_t I, bool Edited) const {
    return Edited ? EditedRef[I] : Ref[I];
  }
  void warmUp();
  void measure();
  void measureTraced();
  unsigned minPasses() const;

  std::string clientName(size_t I) const { return Corpus[I].Name; }
  std::string storeDir(const char *Name) const {
    return (fs::path(Cfg.WorkDir) / Name).string();
  }

  Config Cfg;
  Result &R;
  Gate G;
  std::string Spec = easl::cmpSpecSource();
  std::vector<shard::CorpusClient> Corpus;
  std::unique_ptr<core::Certifier> Cert;
  /// Storeless certifier of the store-churn references.
  std::unique_ptr<core::Certifier> Storeless;
  std::vector<std::string> Ref, EditedRef;
  std::vector<Call> ColdFill;
  /// Corpus indices in stratum order.
  std::vector<size_t> ByKey;
  /// A timed window: when it closed, and its raw milliseconds.
  using Window = std::pair<Clock::time_point, double>;
  /// The timed windows of each set-up (see setUp and measure).
  std::vector<std::vector<Window>> SetupWindows;
  /// Calibration bursts taken around every timed window.
  HostSpeed Host;
  unsigned Flagged = 0;
  double CertBytes = 0;
};

unsigned Bench::minPasses() const {
  // Enough samples for a p99 with MinBeyond samples above it, and at
  // least two passes for a median pass time.
  const size_t Need = samplesNeeded(0.99);
  return std::max<unsigned>(
      2, static_cast<unsigned>((Need + Corpus.size() - 1) / Corpus.size()));
}

/// The corpus: a stratified sample of a larger seeded pool. The pool is
/// shard::generateCorpus(Clients * PoolFactor, Seed); sorted by (method
/// count, shard::estimateCost), it splits into Clients equal bins, and
/// the corpus takes each bin's middle client. Every seed thus yields a
/// corpus with the same profile of unit counts and costs (tail
/// included) but different clients, which keeps seed-to-seed spread
/// small without fixing the inputs.
bool Bench::prepareCorpus() {
  const std::string Dir = storeDir("corpus");
  fs::remove_all(Dir);
  std::string Error;
  std::vector<shard::CorpusClient> Pool;
  if (!shard::generateCorpus(Dir, Cfg.Clients * Cfg.PoolFactor, Cfg.Seed,
                             Error) ||
      !shard::loadCorpus(Dir, Pool, Error)) {
    R.Error = Error;
    return false;
  }
  fs::remove_all(Dir);
  DiagnosticEngine Diags;
  const easl::Spec S = easl::parseBuiltinSpec(Spec.c_str());
  const wp::DerivedAbstraction Abs =
      wp::deriveAbstraction(S, wp::DerivationOptions{}, Diags);
  shard::estimateCosts(Pool, S, Abs);
  std::vector<std::pair<size_t, uint64_t>> Key;
  for (const shard::CorpusClient &C : Pool) {
    DiagnosticEngine Quiet;
    size_t Methods = 0;
    for (const cj::CClass &Cl : cj::parseProgram(C.Source, Quiet).Classes)
      Methods += Cl.Methods.size();
    Key.push_back({Methods, C.Cost});
  }
  std::vector<size_t> Order(Pool.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Key[A] < Key[B]; });
  std::vector<size_t> Picked;
  for (unsigned Bin = 0; Bin != Cfg.Clients; ++Bin)
    Picked.push_back(Order[Bin * Cfg.PoolFactor + Cfg.PoolFactor / 2]);
  // Corpus order is name order; ByKey lists it in stratum order.
  std::vector<size_t> Sorted = Picked;
  std::sort(Sorted.begin(), Sorted.end());
  for (size_t I : Picked)
    ByKey.push_back(static_cast<size_t>(
        std::lower_bound(Sorted.begin(), Sorted.end(), I) - Sorted.begin()));
  for (size_t I : Sorted)
    Corpus.push_back(std::move(Pool[I]));
  R.Clients = static_cast<unsigned>(Corpus.size());
  Pool.clear();
  Pool.shrink_to_fit();
  resetPeakRss();
  return true;
}

void Bench::coldFill(const core::Certifier &C) {
  for (const shard::CorpusClient &Client : Corpus) {
    Host.tick();
    ColdFill.push_back(certifyOnce(C, Client.Source));
  }
}

bool Bench::setUp(unsigned Reps) {
  const bool Store = Cfg.W == Workload::StoreChurn;
  Host.tick(/*Force=*/true);
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    const std::string Dir = storeDir("store-snapshot");
    fs::remove_all(Dir);
    const Clock::time_point T0 = Clock::now();
    DiagnosticEngine Diags;
    auto C = std::make_unique<core::Certifier>(Spec, engineFor(Cfg.W), Diags,
                                               wp::DerivationOptions{},
                                               optionsFor(Cfg.W, Dir));
    // One set-up is the construction window plus, on store-churn, every
    // cold-fill call's window (the bursts between them stay outside).
    std::vector<Window> Windows{{Clock::now(), msSince(T0)}};
    if (Store) {
      const size_t From = ColdFill.size();
      coldFill(*C);
      for (size_t I = From; I != ColdFill.size(); ++I)
        Windows.push_back({ColdFill[I].End, ColdFill[I].Ms});
    }
    SetupWindows.push_back(std::move(Windows));
    if (Diags.hasErrors()) {
      R.Error = "spec failed to derive: " + Diags.str();
      return false;
    }
    if (!Cert && !Store)
      Cert = std::move(C); // The first certifier serves the whole run.
  }
  Host.tick(/*Force=*/true);
  if (Store && !Cert) {
    // Timed passes run on a copy of the last cold-filled store, restored
    // before each pass (see restoreStore).
    DiagnosticEngine Diags;
    Cert = std::make_unique<core::Certifier>(
        Spec, engineFor(Cfg.W), Diags, wp::DerivationOptions{},
        optionsFor(Cfg.W, storeDir("store-live")));
  }
  return true;
}

void Bench::buildReferences() {
  Ref.assign(Corpus.size(), "");
  if (Cfg.W != Workload::StoreChurn)
    return; // The warm-up pass establishes the references.
  DiagnosticEngine Diags;
  Storeless = std::make_unique<core::Certifier>(
      Spec, core::EngineKind::SCMPIntra, Diags, wp::DerivationOptions{},
      optionsFor(Workload::IntraCold, ""));
  EditedRef.assign(Corpus.size(), "");
  for (size_t I = 0; I != Corpus.size(); ++I) {
    Call Cl = certifyOnce(*Storeless, Corpus[I].Source);
    if (G.check(Cl, "", clientName(I)))
      Ref[I] = Cl.Rep.str();
    Call Ed = certifyOnce(*Storeless, churnEdit(Corpus[I].Source));
    if (G.check(Ed, "", clientName(I) + " (edited)"))
      EditedRef[I] = Ed.Rep.str();
  }
}

std::vector<std::string> Bench::passSources(unsigned Pass,
                                            std::vector<bool> &Edited) const {
  std::vector<std::string> Src;
  Edited.assign(Corpus.size(), false);
  if (Cfg.W == Workload::StoreChurn)
    Edited = churnSchedule(Cfg.Seed, Pass, ByKey, ChurnRotation);
  for (size_t I = 0; I != Corpus.size(); ++I)
    Src.push_back(Edited[I] ? churnEdit(Corpus[I].Source) : Corpus[I].Source);
  return Src;
}

/// The untimed warm-up pass. It also establishes the stateless
/// workloads' reference reports, the flagged-check count, certificate
/// bytes, and the ground-truth soundness gate.
void Bench::warmUp() {
  const bool Store = Cfg.W == Workload::StoreChurn;
  std::vector<bool> Edited;
  const std::vector<std::string> Src = passSources(0, Edited);
  if (Store)
    restoreStore(storeDir("store-snapshot"), storeDir("store-live"));
  core::InterpreterOptions IO;
  IO.MaxPaths = GroundTruthPaths;
  const size_t GTStride =
      Cfg.GroundTruthClients
          ? std::max<size_t>(1, Corpus.size() / Cfg.GroundTruthClients)
          : 1;
  for (size_t I = 0; I != Corpus.size(); ++I) {
    Call Cl = certifyOnce(*Cert, Src[I]);
    const bool Ok = G.check(Cl, Store ? expected(I, Edited[I]) : "",
                            clientName(I));
    if (!Store && Ok)
      Ref[I] = Cl.Rep.str();
    Flagged += Cl.Rep.numFlagged();
    CertBytes += static_cast<double>(Cl.Rep.CertStats.Bytes);
    if (!Ok || I % GTStride != Cfg.Seed % GTStride)
      continue;
    // Soundness against the concrete explorer (bounded paths).
    DiagnosticEngine Diags;
    cj::Program P = cj::parseProgram(Src[I], Diags);
    core::SiteComparison SC =
        core::compareWithGroundTruth(Cl.Rep, Cert->spec(), P, IO);
    if (SC.Missed > 0)
      G.fail(clientName(I), "missed " + std::to_string(SC.Missed) +
                                " violation(s) the explorer found");
  }
}

void Bench::measure() {
  const bool Store = Cfg.W == Workload::StoreChurn;
  // Each pass's call windows; rescaled once every burst is taken.
  std::vector<std::vector<Window>> Passes;
  std::vector<double> PassMs; // Raw, for the stopping rule.
  const Clock::time_point Start = Clock::now();
  const unsigned MinP = minPasses();
  for (unsigned Pass = 1;; ++Pass) {
    // Stop at the pass boundary nearest to Seconds. Store-churn stops
    // only after whole rotations, so every client is edited equally
    // often.
    const size_t Unit = Store ? ChurnRotation : 1;
    const double Elapsed = msSince(Start) / 1000.0;
    const double UnitSecs =
        PassMs.empty() ? 0
                       : Elapsed / static_cast<double>(PassMs.size()) * Unit;
    if (PassMs.size() >= MinP && PassMs.size() % Unit == 0 &&
        (Elapsed + UnitSecs / 2 >= Cfg.Seconds ||
         Elapsed >= MeasureCapSeconds))
      break;
    std::vector<bool> Edited;
    const std::vector<std::string> Src = passSources(Pass, Edited);
    if (Store)
      restoreStore(storeDir("store-snapshot"), storeDir("store-live"));
    double Ms = 0;
    std::vector<Window> &Calls = Passes.emplace_back();
    Host.tick(/*Force=*/true);
    for (size_t I = 0; I != Corpus.size(); ++I) {
      Host.tick();
      Call Cl = certifyOnce(*Cert, Src[I]);
      Calls.push_back({Cl.End, Cl.Ms});
      Ms += Cl.Ms;
      G.check(Cl, expected(I, Edited[I]), clientName(I));
      R.StoreHits += Cl.Rep.Store.Hits;
      R.StoreMisses += Cl.Rep.Store.Misses;
      R.StoreWrites += Cl.Rep.Store.Writes;
    }
    Host.tick(/*Force=*/true);
    PassMs.push_back(Ms);
    if (!Store && !setUp(Cfg.SetupReps ? Cfg.SetupReps : 9))
      return;
  }
  const double Rss = peakRssMb();

  // Every call at the reference host speed (see Calibrate.h); the pass
  // times are the sums of their calls.
  std::vector<double> Samples, RawSamples, NormPassMs;
  for (const std::vector<Window> &Calls : Passes) {
    double Ms = 0;
    for (const auto &[End, Raw] : Calls) {
      Samples.push_back(Host.normalize(End, Raw));
      RawSamples.push_back(Raw);
      Ms += Samples.back();
    }
    NormPassMs.push_back(Ms);
  }

  const Percentile P50 = percentile(Samples, 0.5);
  const Percentile P99 = percentile(Samples, 0.99);
  if (!P99.enoughBeyond())
    G.invalid("certify_ms_p99 has fewer than " + std::to_string(MinBeyond) +
              " samples beyond it");
  const double N = static_cast<double>(Corpus.size());
  addMetric(R, "certify_ms_p50", P50.Value, "ms",
            fmt("n=%.0f samples; raw wall %.4f ms",
                static_cast<double>(P50.Samples),
                percentile(RawSamples, 0.5).Value));
  addMetric(R, "certify_ms_p99", P99.Value, "ms",
            fmt("n=%.0f samples, %.0f beyond; raw wall %.4f ms",
                static_cast<double>(P99.Samples),
                static_cast<double>(P99.Beyond),
                percentile(RawSamples, 0.99).Value));
  const double MedPass = median(NormPassMs);
  addMetric(R, "throughput_cps", N / (MedPass / 1000.0), "1/s",
            fmt("%.0f clients / median pass %.3f ms, %.0f timed passes; "
                "raw wall %.3f 1/s",
                N, MedPass, static_cast<double>(NormPassMs.size()),
                N / (median(PassMs) / 1000.0)));
  addMetric(R, "peak_rss_mb", Rss, "MB",
            "VmHWM from set-up to the end of the timed passes");
  addMetric(R, "flagged_checks", Flagged, "count",
            fmt("Potential+Definite verdicts per pass of %.0f clients", N));
}

/// The traced run: alternating pairs of one untraced certify pass (the
/// core.certify_ms base) and one outside-in replay pass under spans,
/// plus the set-up layers timed directly. Per-pass values are reported
/// as medians over the pairs.
void Bench::measureTraced() {
  Tracer T;
  const uint32_t SetupLane = static_cast<uint32_t>(Corpus.size());
  std::map<std::string, std::vector<double>> PerPass;
  auto Record = [&](const std::string &Name, double V) {
    PerPass[Name].push_back(V);
  };
  size_t Families = 0;
  for (unsigned Rep = 0; Rep != 21; ++Rep) {
    DiagnosticEngine Diags;
    easl::Spec S;
    Clock::time_point T0 = Clock::now();
    {
      Tracer::Scope Sc(T, "easl.parse", SetupLane);
      S = easl::parseSpec(Spec, Diags);
      easl::checkSpec(S, Diags);
    }
    Record("easl.parse_ms", msSince(T0));
    T0 = Clock::now();
    wp::DerivedAbstraction Abs;
    {
      Tracer::Scope Sc(T, "wp.derive", SetupLane);
      Abs = wp::deriveAbstraction(S, wp::DerivationOptions{}, Diags);
    }
    Record("wp.derive_ms", msSince(T0));
    Families = Abs.Families.size();
  }

  const bool Store = Cfg.W == Workload::StoreChurn;
  const double N = static_cast<double>(Corpus.size());
  const uint64_t SpecHash = cert::fnv1a(
      reinterpret_cast<const uint8_t *>(Spec.data()), Spec.size());
  const std::string Live = storeDir("store-live");
  const std::string LiveTraced = storeDir("store-live-traced");
  size_t FirstPassEnd = 0;
  const Clock::time_point Start = Clock::now();
  for (unsigned Pass = 1;; ++Pass) {
    const double Elapsed = msSince(Start) / 1000.0;
    if (Pass > 3 && (Elapsed >= Cfg.Seconds || Elapsed >= MeasureCapSeconds))
      break;
    std::vector<bool> Edited;
    const std::vector<std::string> Src = passSources(Pass, Edited);

    // Untraced pass: the certifier's own time for the same clients.
    double CoreMs = 0, Degraded = 0;
    std::vector<std::vector<core::CheckOutcome>> Outcomes(Corpus.size());
    auto Untraced = [&] {
      if (Store)
        restoreStore(storeDir("store-snapshot"), Live);
      for (size_t I = 0; I != Corpus.size(); ++I) {
        Call Cl = certifyOnce(*Cert, Src[I]);
        CoreMs += Cl.Ms;
        Degraded += Cl.Rep.Degraded;
        G.check(Cl, expected(I, Edited[I]), clientName(I));
        Outcomes[I] = outcomesOf(Cl.Rep);
      }
    };
    // Traced pass: the outside-in replay of the same certifications.
    LayerCounts K;
    double TracedMs = 0;
    size_t From = 0;
    auto Traced = [&] {
      if (Store)
        restoreStore(storeDir("store-snapshot"), LiveTraced);
      LayerReplay Replay(T, *Cert, Cfg.W, SpecHash, K);
      From = T.size();
      const Clock::time_point T0 = Clock::now();
      std::vector<std::vector<core::CheckOutcome>> Got(Corpus.size());
      for (size_t I = 0; I != Corpus.size(); ++I) {
        try {
          Got[I] = Replay.certify(static_cast<uint32_t>(I), Src[I], LiveTraced);
        } catch (const CertifyError &E) {
          Got[I].clear();
        }
      }
      TracedMs = msSince(T0);
      return Got;
    };
    // Alternate which half of the pair runs first.
    std::vector<std::vector<core::CheckOutcome>> Replayed;
    if (Pass % 2) {
      Untraced();
      Replayed = Traced();
    } else {
      Replayed = Traced();
      Untraced();
    }
    for (size_t I = 0; I != Corpus.size(); ++I) {
      G.attempted();
      if (Replayed[I] != Outcomes[I])
        G.fail(clientName(I),
               "traced replay diverged from the certifier's verdicts");
    }

    if (!FirstPassEnd)
      FirstPassEnd = T.size();
    const std::map<std::string, double> Self = T.selfMicros(From);
    auto SelfMs = [&](const char *Name) {
      auto It = Self.find(Name);
      return It == Self.end() ? 0.0 : It->second / 1000.0;
    };
    double LayerMs = 0;
    for (const auto &[Name, Us] : Self)
      if (Name != "client")
        LayerMs += Us / 1000.0;
    for (const char *Layer : CommonLayers)
      Record(std::string(Layer) + "_ms", SelfMs(Layer));
    for (const char *Layer : PathLayers)
      Record(std::string(Layer) + "_ms", SelfMs(Layer));
    const auto Count = [](uint64_t V) { return static_cast<double>(V); };
    Record("client.cfg_edges", Count(K.CfgEdges));
    Record("dataflow.slice_runs", Count(K.SliceRuns));
    Record("boolprog.boolvars", Count(K.BoolVars));
    Record("boolprog.witness_traces", Count(K.WitnessTraces));
    Record("boolprog.fixpoint_iterations", Count(K.FixpointIterations));
    Record("ifds.path_edges", Count(K.PathEdges));
    Record("ifds.summaries", Count(K.Summaries));
    Record("ifds.exploded_nodes", Count(K.ExplodedNodes));
    Record("cert.bytes", Count(K.CertBytes));
    Record("cert.raw", Count(K.CertRaw));
    Record("cert.stored", Count(K.CertStored));
    Record("store.gets", Count(K.StoreGets));
    Record("store.hits", Count(K.StoreHits));
    Record("store.rejected", Count(K.StoreRejected));
    Record("store.puts", Count(K.StorePuts));
    Record("store.entries",
           Store ? static_cast<double>(countStoreEntries(LiveTraced)) : 0.0);
    Record("core.certify_ms", CoreMs);
    Record("core.degraded", Degraded);
    Record("trace.layer_ms", LayerMs);
    Record("trace.traced_ms", TracedMs);
  }

  // Every figure is the median over the traced passes; every ratio is
  // taken between medians and printed with them.
  std::map<std::string, double> Med;
  for (const auto &[Name, Values] : PerPass)
    Med[Name] = median(Values);
  const double Core = Med["core.certify_ms"];
  const std::string PassNote =
      fmt("per pass of %.0f clients, median of %.0f traced passes", N,
          static_cast<double>(PerPass["core.certify_ms"].size()));
  const std::string SetupNote = "median of 21 direct calls";
  addMetric(R, "easl.parse_ms", Med["easl.parse_ms"], "ms", SetupNote);
  addMetric(R, "wp.derive_ms", Med["wp.derive_ms"], "ms", SetupNote);
  addMetric(R, "wp.families", static_cast<double>(Families), "count");
  for (const char *Layer : CommonLayers)
    addMetric(R, std::string(Layer) + "_ms", Med[std::string(Layer) + "_ms"],
              "ms", PassNote);
  for (const char *Layer : PathLayers) {
    const double Ms = Med[std::string(Layer) + "_ms"];
    // The absolute time for people; the JSON carries the share, which is
    // zero (not a constant time) where the workload bypasses the layer.
    addMetric(R, std::string(Layer) + "_ms", Ms, "ms", PassNote,
              /*InJson=*/false);
    addMetric(R, std::string(Layer) + "_share", ratio(Ms, Core), "ratio",
              std::string(Layer) +
                  fmt(" self time %.3f ms / core.certify_ms %.3f ms", Ms,
                      Core));
  }
  static const char *const Counts[][2] = {
      {"client.cfg_edges", "count"},    {"dataflow.slice_runs", "count"},
      {"boolprog.boolvars", "count"},   {"boolprog.witness_traces", "count"},
      {"boolprog.fixpoint_iterations", "count"},
      {"ifds.path_edges", "count"},     {"ifds.summaries", "count"},
      {"ifds.exploded_nodes", "count"}, {"cert.bytes", "bytes"}};
  for (const auto &[Name, Unit] : Counts)
    addMetric(R, Name, Med[Name], Unit, PassNote);
  addMetric(R, "cert.kb_per_client", Med["cert.bytes"] / 1024.0 / N, "kB",
            fmt("%.0f certificate bytes / %.0f clients", Med["cert.bytes"],
                N));
  addMetric(R, "cert.stored_over_raw",
            ratio(Med["cert.stored"], Med["cert.raw"]), "ratio",
            fmt("%.0f stored / %.0f raw certificate annotation entries",
                Med["cert.stored"], Med["cert.raw"]));
  const double AnalysisMs =
      Med["boolprog.build_ms"] + Med["boolprog.fixpoint_ms"] +
      Med["boolprog.witness_ms"] + Med["boolprog.interproc_ms"] +
      Med["tvla.certify_ms"];
  addMetric(R, "cert.check_over_analysis",
            ratio(Med["cert.check_ms"], AnalysisMs), "ratio",
            fmt("cert.check %.3f ms / analysis layers (boolprog, tvla) "
                "%.3f ms",
                Med["cert.check_ms"], AnalysisMs));
  addMetric(R, "store.puts", Med["store.puts"], "count", PassNote);
  addMetric(R, "store.hit_ratio", ratio(Med["store.hits"], Med["store.gets"]),
            "ratio",
            fmt("%.0f checker-accepted hits / %.0f store gets (units)",
                Med["store.hits"], Med["store.gets"]));
  addMetric(R, "store.rejected", Med["store.rejected"], "count", PassNote);
  addMetric(R, "store.entries", Med["store.entries"], "count",
            "store entries after a traced pass");
  addMetric(R, "core.certify_ms", Core, "ms", PassNote);
  addMetric(R, "core.degraded", Med["core.degraded"], "count", PassNote);
  addMetric(R, "trace.coverage", ratio(Med["trace.layer_ms"], Core), "ratio",
            fmt("layer self time %.3f ms / core.certify_ms %.3f ms",
                Med["trace.layer_ms"], Core));
  addMetric(R, "trace.overhead_frac",
            ratio(Med["trace.traced_ms"] - Core, Core), "ratio",
            fmt("(traced pass %.3f ms - untraced pass %.3f ms) / untraced",
                Med["trace.traced_ms"], Core) +
                fmt("; throughput %.1f traced vs %.1f untraced clients/s",
                    N / (Med["trace.traced_ms"] / 1000.0),
                    N / (Core / 1000.0)));
  // The file holds the set-up spans and the first traced pass; later
  // passes repeat its shape and would only grow the file.
  if (!Cfg.TraceFile.empty() && !T.writeChrome(Cfg.TraceFile, FirstPassEnd))
    G.invalid("cannot write the Chrome trace file '" + Cfg.TraceFile + "'");
}

void Bench::run() {
  Clock::time_point T0 = Clock::now();
  auto Phase = [&](const char *Name) {
    R.Phases += fmt("%.1f s", msSince(T0) / 1000.0) + " " + Name + ", ";
    T0 = Clock::now();
  };
  if (!prepareCorpus())
    return;
  Phase("corpus");
  buildReferences();
  const bool Store = Cfg.W == Workload::StoreChurn;
  const unsigned Reps = Cfg.SetupReps ? Cfg.SetupReps : Store ? 3 : 9;
  if (!setUp(Reps))
    return;
  // Every set-up's cold fill, gated outside the set-up windows.
  for (size_t I = 0; I != ColdFill.size(); ++I) {
    const size_t Client = I % Corpus.size();
    G.check(ColdFill[I], Ref[Client], clientName(Client) + " (cold fill)");
  }
  ColdFill.clear();
  Phase("set-up and references");
  warmUp();
  Phase("warm-up and ground truth");
  if (Cfg.Trace) {
    measureTraced();
    Phase("traced pass pairs");
    return;
  }
  measure();
  Phase("timed passes");
  std::vector<double> SetupSecs, RawSetupSecs;
  for (const std::vector<Window> &Windows : SetupWindows) {
    double Norm = 0, Raw = 0;
    for (const auto &[End, Ms] : Windows) {
      Norm += Host.normalize(End, Ms);
      Raw += Ms;
    }
    SetupSecs.push_back(Norm / 1000.0);
    RawSetupSecs.push_back(Raw / 1000.0);
  }
  addMetric(R, "setup_s", median(SetupSecs), "s",
            fmt("median of %.0f set-ups spread over the run; raw wall %.6f s",
                static_cast<double>(SetupSecs.size()),
                median(RawSetupSecs)));
  addMetric(R, "host.burst_ms", Host.medianBurstMs(), "ms",
            fmt("median of %.0f calibration bursts; reference %.3f ms",
                static_cast<double>(Host.bursts()), ReferenceBurstMs),
            /*InJson=*/false);
  addMetric(R, "failed_frac",
            ratio(static_cast<double>(R.Failed),
                  static_cast<double>(R.Attempted)),
            "frac",
            fmt("%.0f failed / %.0f attempted certify calls",
                static_cast<double>(R.Failed),
                static_cast<double>(R.Attempted)),
            /*InJson=*/false);
  addMetric(R, "cert_kb_per_client",
            CertBytes / 1024.0 / static_cast<double>(Corpus.size()), "kB",
            fmt("%.0f certificate bytes / %.0f clients",
                static_cast<double>(CertBytes),
                static_cast<double>(Corpus.size())),
            /*InJson=*/false);
}

} // namespace

Result perfbench::run(const Config &C) {
  Result R;
  std::error_code EC;
  fs::create_directories(C.WorkDir, EC);
  if (EC) {
    R.Error = "cannot create work directory '" + C.WorkDir + "'";
    return R;
  }
  Bench B(C, R);
  B.run();
  return R;
}
