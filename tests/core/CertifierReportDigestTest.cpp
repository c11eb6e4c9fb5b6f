//===----------------------------------------------------------------------===//
// Pins every non-timing field of CertificationReport, and the diagnostic
// stream, on a generated corpus. Report.str() equality (asserted across
// worker counts, shards and store runs elsewhere) leaves the statistics
// structs, certificate hashes and store counters free to drift; this
// suite folds them into one FNV-1a digest per configuration and compares
// it against a recorded value. A digest change means some report field
// changed: if the change is intended, re-record the value printed by the
// failing assertion.
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"

#include "cert/Certificate.h"
#include "easl/Builtins.h"
#include "shard/Corpus.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

using namespace canvas;
using namespace canvas::core;

namespace fs = std::filesystem;

namespace {

/// Appends one field per line so adjacent fields cannot run together.
class Fields {
public:
  template <typename T> Fields &add(const char *Name, const T &V) {
    Out += Name;
    Out += '=';
    if constexpr (std::is_same_v<T, std::string>)
      Out += V;
    else
      Out += std::to_string(V);
    Out += '\n';
    return *this;
  }
  const std::string &str() const { return Out; }

private:
  std::string Out;
};

std::string renderReport(const CertificationReport &R,
                         const DiagnosticEngine &Diags) {
  Fields F;
  F.add("str", R.str());
  F.add("diags", Diags.str());
  for (const CheckVerdict &C : R.Checks)
    F.add("reqloc", C.ReqLoc.str()).add("note", C.DegradeNote);
  for (const LintFinding &L : R.Lints)
    F.add("lint.var", L.Var).add("lint.bearing", L.RequiresBearing);
  F.add("pre.enabled", R.Pre.Enabled)
      .add("pre.pruned", R.Pre.EdgesPruned)
      .add("pre.deadstores", R.Pre.DeadStoresRemoved)
      .add("pre.dropped", R.Pre.VarsDropped)
      .add("pre.multislice", R.Pre.MultiSliceMethods)
      .add("pre.sliceruns", R.Pre.SliceRuns)
      .add("pre.fallback", R.Pre.FallbackMethods);
  const PointsToReport &PT = R.PointsTo;
  F.add("pt.enabled", PT.Enabled)
      .add("pt.main", PT.HasMain)
      .add("pt.objects", PT.Objects)
      .add("pt.constraints", PT.Constraints)
      .add("pt.iterations", PT.Iterations)
      .add("pt.reachable", PT.ReachableMethods)
      .add("pt.total", PT.TotalMethods)
      .add("pt.pruned", PT.PrunedMethods)
      .add("pt.local", PT.LocalSites)
      .add("pt.arg", PT.ArgSites)
      .add("pt.heap", PT.HeapSites);
  for (const MethodSliceSummary &MS : R.SliceSummaries)
    F.add("slice.method", MS.Method)
        .add("slice.count", MS.Slices)
        .add("slice.forced", MS.ForcedSingleReason);
  F.add("inter.iterations", R.Inter.SummaryIterations)
      .add("inter.exploded", R.Inter.ExplodedNodes)
      .add("inter.pathedges", R.Inter.PathEdges)
      .add("inter.summaries", R.Inter.Summaries);
  F.add("tvla.interned", R.Tvla.InternedStructures)
      .add("tvla.hits", R.Tvla.TransferCacheHits)
      .add("tvla.misses", R.Tvla.TransferCacheMisses)
      .add("tvla.maxpp", R.Tvla.MaxStructuresPerPoint);
  F.add("boolvars", R.BoolVars).add("maxboolvars", R.MaxBoolVars);
  F.add("effective", R.EffectiveEngine).add("degraded", R.Degraded);
  for (const StageAttempt &A : R.Stages)
    F.add("stage", A.Engine)
        .add("stage.completed", A.Completed)
        .add("stage.fail", A.FailReason);
  F.add("cert.count", R.CertStats.Count)
      .add("cert.bytes", R.CertStats.Bytes)
      .add("cert.raw", R.CertStats.RawEntries)
      .add("cert.stored", R.CertStats.StoredEntries)
      .add("cert.checked", R.CertStats.Checked);
  for (const cert::Certificate &C : R.Certificates)
    F.add("cert.unit", C.Unit).add("cert.hash", C.ContentHash);
  F.add("store.enabled", R.Store.Enabled)
      .add("store.hits", R.Store.Hits)
      .add("store.misses", R.Store.Misses)
      .add("store.rejected", R.Store.Rejected)
      .add("store.writes", R.Store.Writes)
      .add("store.incidents", R.Store.Incidents.size());
  return F.str();
}

struct DigestCase {
  const char *Name;
  EngineKind Engine;
  bool Certs = false;    ///< Emit and check certificates.
  bool PointsTo = false;
  bool Store = false;    ///< Cold pass, then a warm pass on one certifier.
  uint64_t Expected;     ///< Digest of the (first) pass.
  uint64_t ExpectedWarm; ///< Digest of the warm pass (Store only).
};

class CertifierReportDigestTest : public ::testing::TestWithParam<DigestCase> {
protected:
  void SetUp() override {
    support::clearFaultPlan();
    Dir = ::testing::TempDir() + "/report-digest-test-" +
          std::to_string(static_cast<long>(::getpid()));
    fs::remove_all(Dir);
    std::string Error;
    ASSERT_TRUE(shard::generateCorpus(Dir + "/corpus", 60, 7, Error))
        << Error;
    ASSERT_TRUE(shard::loadCorpus(Dir + "/corpus", Corpus, Error)) << Error;
  }
  void TearDown() override { fs::remove_all(Dir); }

  /// FNV-1a over the rendered reports of every corpus client, in corpus
  /// order.
  uint64_t digestPass(const Certifier &C) const {
    uint64_t H = 0xcbf29ce484222325ull;
    for (const shard::CorpusClient &Client : Corpus) {
      DiagnosticEngine Diags;
      CertificationReport R = C.certifySource(Client.Source, Diags);
      const std::string S = Client.Name + "\n" + renderReport(R, Diags);
      H = cert::fnv1a(reinterpret_cast<const uint8_t *>(S.data()), S.size(),
                      H);
    }
    return H;
  }

  std::string Dir;
  std::vector<shard::CorpusClient> Corpus;
};

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, V);
  return Buf;
}

TEST_P(CertifierReportDigestTest, EveryReportFieldMatchesRecordedDigest) {
  const DigestCase &Case = GetParam();
  CertifierOptions Opts;
  // Several workers so the per-unit fan-out really interleaves; merges
  // are in unit order, so the digest does not depend on the count.
  Opts.Workers = 4;
  Opts.EmitCertificates = Opts.CheckCertificates = Case.Certs;
  Opts.PointsTo = Case.PointsTo;
  if (Case.Store)
    Opts.StorePath = Dir + "/store";
  DiagnosticEngine SpecDiags;
  Certifier C(easl::cmpSpecSource(), Case.Engine, SpecDiags, {}, Opts);
  ASSERT_FALSE(SpecDiags.hasErrors()) << SpecDiags.str();

  EXPECT_EQ(hex(digestPass(C)), hex(Case.Expected)) << Case.Name;
  if (Case.Store) {
    EXPECT_EQ(hex(digestPass(C)), hex(Case.ExpectedWarm))
        << Case.Name << " (warm)";
  }
}

// The recorded digests: a refactor of the certifier that leaves every
// report field, certificate byte and diagnostic alone keeps them all.
const DigestCase Cases[] = {
    {"scmp_intra", EngineKind::SCMPIntra, false, false, false,
     0x163b8f648fe01c2bull, 0},
    {"scmp_interproc", EngineKind::SCMPInterproc, false, false, false,
     0xc7928c95919f26b8ull, 0},
    {"generic_allocsite", EngineKind::GenericAllocSite, false, false, false,
     0x58909920910f7022ull, 0},
    {"tvla_independent", EngineKind::TVLAIndependent, false, false, false,
     0xde7d5d01073923dcull, 0},
    {"tvla_relational", EngineKind::TVLARelational, false, false, false,
     0x3a29e49a66c10319ull, 0},
    {"scmp_intra_certs", EngineKind::SCMPIntra, true, false, false,
     0x60247f1a83d930f8ull, 0},
    {"scmp_interproc_certs", EngineKind::SCMPInterproc, true, false, false,
     0x347f2c6ecfc05f5bull, 0},
    {"generic_allocsite_certs", EngineKind::GenericAllocSite, true, false,
     false, 0x311b6ef722cae46bull, 0},
    {"tvla_independent_certs", EngineKind::TVLAIndependent, true, false, false,
     0x95aaf190e8ea2f25ull, 0},
    {"tvla_relational_certs", EngineKind::TVLARelational, true, false, false,
     0x20b844fa80bbca73ull, 0},
    {"scmp_intra_pointsto", EngineKind::SCMPIntra, false, true, false,
     0xd92b3654e682f9d3ull, 0},
    {"scmp_intra_store", EngineKind::SCMPIntra, false, false, true,
     0x7acc566b891df5f4ull, 0x2929fe7d7b24dedeull},
};

INSTANTIATE_TEST_SUITE_P(
    Corpus60, CertifierReportDigestTest, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<DigestCase> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
