//===----------------------------------------------------------------------===//
// End-to-end incremental re-certification through core::Certifier: warm
// runs answered entirely from the persistent store with byte-identical
// reports, one-method edits re-analyzing only the edited method,
// checker-gated rejection of tampered entries, and verdict stability
// under every injected store fault — for a fresh certifier per run and
// for one long-lived certifier whose store stays open across calls.
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"

#include "easl/Builtins.h"
#include "store/CertStore.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace canvas;
using namespace canvas::core;

namespace fs = std::filesystem;

namespace {

/// Two methods with no call edge: main carries a real violation (add
/// between iterator and next, so the stored entry includes a witness
/// the gate must replay), other is clean.
const char *TwoMethods = R"(
  class M {
    void main() {
      Set v = new Set();
      Iterator i = v.iterator();
      v.add();
      i.next();
    }
    void other() {
      Set w = new Set();
      Iterator j = w.iterator();
      j.next();
    }
  }
)";

/// TwoMethods with main() edited and other() untouched — on the same
/// line, so other()'s source positions (part of its key: a served
/// entry replays recorded locations verbatim) do not shift.
const char *TwoMethodsMainEdited = R"(
  class M {
    void main() {
      Set v = new Set();
      Iterator i = v.iterator();
      v.add(); v.add();
      i.next();
    }
    void other() {
      Set w = new Set();
      Iterator j = w.iterator();
      j.next();
    }
  }
)";

CertificationReport run(const char *Client, const CertifierOptions &Opts,
                        EngineKind K = EngineKind::SCMPIntra) {
  DiagnosticEngine Diags;
  Certifier C(easl::cmpSpecSource(), K, Diags, wp::DerivationOptions{}, Opts);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  CertificationReport R = C.certifySource(Client, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return R;
}

std::unique_ptr<Certifier> makeCertifier(const CertifierOptions &Opts) {
  DiagnosticEngine Diags;
  auto C = std::make_unique<Certifier>(easl::cmpSpecSource(),
                                       EngineKind::SCMPIntra, Diags,
                                       wp::DerivationOptions{}, Opts);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return C;
}

CertificationReport runOn(const Certifier &C, const char *Client) {
  DiagnosticEngine Diags;
  CertificationReport R = C.certifySource(Client, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return R;
}

bool sawIncident(const CertificationReport &R, const std::string &Kind) {
  for (const store::StoreIncident &I : R.Store.Incidents)
    if (I.Kind == Kind)
      return true;
  return false;
}

class StoreIncrementalTest : public ::testing::Test {
protected:
  void SetUp() override {
    support::clearFaultPlan();
    // Per-process dir: parallel ctest processes race on a shared path.
    Dir = ::testing::TempDir() + "/store-incremental-" +
          std::to_string(static_cast<long>(::getpid()));
    fs::remove_all(Dir);
    Opts.StorePath = Dir;
  }
  void TearDown() override {
    support::clearFaultPlan();
    fs::remove_all(Dir);
  }

  std::string Dir;
  CertifierOptions Opts;
};

TEST_F(StoreIncrementalTest, WarmRunIsByteIdenticalAndFullyServed) {
  CertificationReport Cold = run(TwoMethods, Opts);
  EXPECT_TRUE(Cold.Store.Enabled);
  EXPECT_EQ(Cold.Store.Hits, 0u);
  EXPECT_GE(Cold.Store.Misses, 2u);
  EXPECT_EQ(Cold.Store.Writes, Cold.Store.Misses);
  EXPECT_FALSE(Cold.Degraded);
  EXPECT_GT(Cold.numChecks(), 0u);

  CertificationReport Warm = run(TwoMethods, Opts);
  // Everything answered from the store: zero engine invocations.
  EXPECT_EQ(Warm.Store.Misses, 0u);
  EXPECT_EQ(Warm.Store.Hits, Cold.Store.Misses);
  EXPECT_EQ(Warm.Store.Writes, 0u);
  EXPECT_EQ(Warm.Store.Rejected, 0u);
  // The report — verdicts, witnesses, slicing lines, everything the
  // renderer prints — is byte-identical to the cold run.
  EXPECT_EQ(Warm.str(), Cold.str());
}

TEST_F(StoreIncrementalTest, EditingOneMethodReanalyzesOnlyIt) {
  CertificationReport Cold = run(TwoMethods, Opts);
  ASSERT_GE(Cold.Store.Writes, 2u);

  CertificationReport Edited = run(TwoMethodsMainEdited, Opts);
  // other() is untouched: served from the store. main() re-keys: one
  // engine run, one fresh commit (the stale entry stays until GC'd —
  // it can never be served again, its key is dead).
  EXPECT_EQ(Edited.Store.Hits, 1u);
  EXPECT_EQ(Edited.Store.Misses, 1u);
  EXPECT_EQ(Edited.Store.Writes, 1u);
  EXPECT_FALSE(Edited.Degraded);
}

TEST_F(StoreIncrementalTest, TamperedEntryIsRejectedAndReanalyzed) {
  CertificationReport Cold = run(TwoMethods, Opts);
  ASSERT_GE(Cold.Store.Writes, 2u);

  // Tamper with one entry out-of-band: flip its first check's verdict
  // while leaving the certificate (and thus the CRC frame) internally
  // consistent — a hostile store trying to launder a wrong verdict
  // past the frame validation.
  {
    store::CertStore St(Dir, store::StoreMode::ReadWrite);
    std::vector<store::StoreEntry> All = St.listEntries();
    ASSERT_FALSE(All.empty());
    store::StoreEntry E = All[0];
    ASSERT_FALSE(E.Checks.empty());
    E.Checks[0].Outcome = E.Checks[0].Outcome == CheckOutcome::Safe
                              ? CheckOutcome::Potential
                              : CheckOutcome::Safe;
    E.Checks[0].Witness = core::WitnessTrace{};
    St.put(E);
  }

  CertificationReport Warm = run(TwoMethods, Opts);
  // The checker gate refuses the tampered entry (claims no longer match
  // the verdict vector), evicts it, and re-analyzes — the report stays
  // byte-identical to the cold run.
  EXPECT_EQ(Warm.Store.Rejected, 1u);
  EXPECT_EQ(Warm.Store.Misses, 1u);
  EXPECT_EQ(Warm.Store.Hits, Cold.Store.Misses - 1);
  bool SawInvalid = false;
  for (const store::StoreIncident &I : Warm.Store.Incidents)
    SawInvalid |= I.Kind == "StoreEntryInvalid";
  EXPECT_TRUE(SawInvalid);
  EXPECT_EQ(Warm.str(), Cold.str());

  // And the re-committed entry serves cleanly afterwards.
  CertificationReport Again = run(TwoMethods, Opts);
  EXPECT_EQ(Again.Store.Rejected, 0u);
  EXPECT_EQ(Again.Store.Misses, 0u);
  EXPECT_EQ(Again.str(), Cold.str());
}

TEST_F(StoreIncrementalTest, SliceSummaryOnNonSlicingEngineEntryIsRejected) {
  // A hit reproduces the entry's slice summary as a "slicing:" report
  // line, but only the scmp-intra engine slices: a summary on any other
  // engine's entry is tampering, and the gate refuses it.
  CertificationReport Cold =
      run(TwoMethods, Opts, EngineKind::TVLAIndependent);
  ASSERT_GE(Cold.Store.Writes, 2u);
  {
    store::CertStore St(Dir, store::StoreMode::ReadWrite);
    std::vector<store::StoreEntry> All = St.listEntries();
    ASSERT_FALSE(All.empty());
    store::StoreEntry E = All[0];
    ASSERT_FALSE(E.HasSummary);
    E.HasSummary = true;
    E.Slices = 3;
    St.put(E);
  }

  CertificationReport Warm = run(TwoMethods, Opts, EngineKind::TVLAIndependent);
  EXPECT_EQ(Warm.Store.Rejected, 1u);
  EXPECT_TRUE(sawIncident(Warm, "StoreEntryInvalid"));
  EXPECT_EQ(Warm.str(), Cold.str());
}

TEST_F(StoreIncrementalTest, InjectedStoreFaultsNeverChangeVerdicts) {
  CertifierOptions Storeless;
  const CertificationReport Baseline = run(TwoMethods, Storeless);

  struct Case {
    const char *Site;
    support::FaultKind Kind;
  };
  const Case Cases[] = {
      {"store-open", support::FaultKind::Throw},
      {"store-recover", support::FaultKind::Throw},
      {"store-read", support::FaultKind::Throw},
      {"store-commit", support::FaultKind::Throw},
      {"store-commit", support::FaultKind::ShortWrite},
      {"store-recover", support::FaultKind::ShortWrite},
  };
  for (const Case &C : Cases) {
    const std::string CaseDir =
        Dir + "-fault-" + C.Site +
        (C.Kind == support::FaultKind::ShortWrite ? "-short" : "-throw");
    fs::remove_all(CaseDir);
    CertifierOptions FOpts;
    FOpts.StorePath = CaseDir;
    support::setFaultPlan({C.Site, 1, C.Kind});
    CertificationReport R = run(TwoMethods, FOpts);
    support::clearFaultPlan();
    // Whatever the store fault, certification degrades to re-analysis:
    // same verdicts, never Degraded, never a crash.
    EXPECT_FALSE(R.Degraded) << C.Site;
    EXPECT_EQ(R.str(), Baseline.str()) << C.Site;
    fs::remove_all(CaseDir);
  }
}

TEST_F(StoreIncrementalTest, ReadOnlyStoreServesButNeverWrites) {
  CertificationReport Cold = run(TwoMethods, Opts);
  ASSERT_GE(Cold.Store.Writes, 2u);

  CertifierOptions RoOpts = Opts;
  RoOpts.StoreMode = store::StoreMode::ReadOnly;
  CertificationReport Warm = run(TwoMethods, RoOpts);
  EXPECT_TRUE(Warm.Store.ReadOnly);
  EXPECT_EQ(Warm.Store.Misses, 0u);
  EXPECT_EQ(Warm.Store.Hits, Cold.Store.Misses);
  EXPECT_EQ(Warm.Store.Writes, 0u);
  EXPECT_EQ(Warm.str(), Cold.str());

  // A read-only open of a missing store is an incident, not a failure:
  // the run proceeds storeless with identical verdicts.
  CertifierOptions MissingOpts;
  MissingOpts.StorePath = Dir + "-nonexistent";
  MissingOpts.StoreMode = store::StoreMode::ReadOnly;
  CertificationReport NoStore = run(TwoMethods, MissingOpts);
  // Enabled records that a store was *requested*; the failed open shows
  // up as a StoreIO incident and zero activity.
  EXPECT_TRUE(NoStore.Store.Enabled);
  EXPECT_EQ(NoStore.Store.Hits + NoStore.Store.Writes, 0u);
  bool SawIO = false;
  for (const store::StoreIncident &I : NoStore.Store.Incidents)
    SawIO |= I.Kind == "StoreIO";
  EXPECT_TRUE(SawIO);
  EXPECT_EQ(NoStore.str(), Cold.str());
}

TEST_F(StoreIncrementalTest, InterproceduralUnitHitsAndInvalidates) {
  const char *Client = R"(
    class M {
      void main() {
        Set v = new Set();
        Iterator i = v.iterator();
        mutate(v);
        i.next();
      }
      void mutate(Set s) { s.add(); }
    }
  )";
  CertificationReport Cold = run(Client, Opts, EngineKind::SCMPInterproc);
  EXPECT_EQ(Cold.Store.Misses, 1u);
  EXPECT_EQ(Cold.Store.Writes, 1u);

  CertificationReport Warm = run(Client, Opts, EngineKind::SCMPInterproc);
  EXPECT_EQ(Warm.Store.Hits, 1u);
  EXPECT_EQ(Warm.Store.Misses, 0u);
  EXPECT_EQ(Warm.str(), Cold.str());

  // Editing any method re-keys the whole-program unit.
  const char *Edited = R"(
    class M {
      void main() {
        Set v = new Set();
        Iterator i = v.iterator();
        mutate(v);
        i.next();
      }
      void mutate(Set s) { s.add(); s.add(); }
    }
  )";
  CertificationReport After = run(Edited, Opts, EngineKind::SCMPInterproc);
  EXPECT_EQ(After.Store.Hits, 0u);
  EXPECT_EQ(After.Store.Misses, 1u);
}

TEST_F(StoreIncrementalTest, PointsToCouplesEveryMethodToTheProgram) {
  CertifierOptions PtOpts = Opts;
  PtOpts.PointsTo = true;
  CertificationReport Cold = run(TwoMethods, PtOpts);
  ASSERT_GE(Cold.Store.Writes, 2u);

  CertificationReport Warm = run(TwoMethods, PtOpts);
  EXPECT_EQ(Warm.Store.Misses, 0u);
  EXPECT_EQ(Warm.str(), Cold.str());

  // Under the whole-program points-to refinement any edit can change
  // any method's verdict, so a one-method edit re-keys everything.
  CertificationReport After = run(TwoMethodsMainEdited, PtOpts);
  EXPECT_EQ(After.Store.Hits, 0u);
  EXPECT_EQ(After.Store.Misses, Cold.Store.Misses);
}

// The tests below keep ONE certifier across calls, as a shard worker and
// the serial corpus driver do: its store opens on the first call and
// stays open, and every later call must still see the disk as it is.

TEST_F(StoreIncrementalTest, LongLivedCertifierWarmRunsAreByteIdentical) {
  std::unique_ptr<Certifier> C = makeCertifier(Opts);
  const CertificationReport Cold = runOn(*C, TwoMethods);
  ASSERT_GE(Cold.Store.Writes, 2u);
  for (int Pass = 0; Pass != 2; ++Pass) {
    const CertificationReport Warm = runOn(*C, TwoMethods);
    EXPECT_EQ(Warm.Store.Hits, Cold.Store.Misses);
    EXPECT_EQ(Warm.Store.Misses, 0u);
    EXPECT_EQ(Warm.Store.Writes, 0u);
    EXPECT_TRUE(Warm.Store.Incidents.empty());
    EXPECT_EQ(Warm.str(), Cold.str());
  }
}

TEST_F(StoreIncrementalTest, LongLivedCertifierCountsWritesPerCall) {
  std::unique_ptr<Certifier> C = makeCertifier(Opts);
  const CertificationReport Cold = runOn(*C, TwoMethods);
  ASSERT_GE(Cold.Store.Writes, 2u);
  // The store's own write counter is cumulative over the certifier's
  // life; the report counts only this call's single commit.
  const CertificationReport Edited = runOn(*C, TwoMethodsMainEdited);
  EXPECT_EQ(Edited.Store.Hits, 1u);
  EXPECT_EQ(Edited.Store.Misses, 1u);
  EXPECT_EQ(Edited.Store.Writes, 1u);
  EXPECT_EQ(Edited.Store.Quarantined, 0u);
}

TEST_F(StoreIncrementalTest, LongLivedCertifierRejectsTamperBetweenCalls) {
  std::unique_ptr<Certifier> C = makeCertifier(Opts);
  const CertificationReport Cold = runOn(*C, TwoMethods);
  ASSERT_GE(Cold.Store.Writes, 2u);

  // Launder a flipped verdict through a frame-valid entry while the
  // certifier's own store instance stays open.
  {
    store::CertStore St(Dir, store::StoreMode::ReadWrite);
    std::vector<store::StoreEntry> All = St.listEntries();
    ASSERT_FALSE(All.empty());
    store::StoreEntry E = All[0];
    ASSERT_FALSE(E.Checks.empty());
    E.Checks[0].Outcome = E.Checks[0].Outcome == CheckOutcome::Safe
                              ? CheckOutcome::Potential
                              : CheckOutcome::Safe;
    E.Checks[0].Witness = core::WitnessTrace{};
    St.put(E);
  }

  const CertificationReport Warm = runOn(*C, TwoMethods);
  EXPECT_EQ(Warm.Store.Rejected, 1u);
  EXPECT_EQ(Warm.Store.Misses, 1u);
  EXPECT_EQ(Warm.Store.Quarantined, 1u); // The eviction.
  EXPECT_EQ(Warm.Store.Writes, 1u);      // The re-analysed unit.
  EXPECT_TRUE(sawIncident(Warm, "StoreEntryInvalid"));
  EXPECT_EQ(Warm.str(), Cold.str());

  const CertificationReport Again = runOn(*C, TwoMethods);
  EXPECT_EQ(Again.Store.Rejected, 0u);
  EXPECT_EQ(Again.Store.Misses, 0u);
  EXPECT_EQ(Again.Store.Quarantined, 0u);
  EXPECT_TRUE(Again.Store.Incidents.empty());
  EXPECT_EQ(Again.str(), Cold.str());
}

TEST_F(StoreIncrementalTest, LongLivedCertifierQuarantinesCorruptEntryAtGet) {
  std::unique_ptr<Certifier> C = makeCertifier(Opts);
  const CertificationReport Cold = runOn(*C, TwoMethods);
  ASSERT_GE(Cold.Store.Writes, 2u);

  // Flip the last payload byte of one entry: the CRC no longer matches.
  // Recovery already ran at open, so only get() can catch it.
  std::string Victim;
  for (const fs::directory_entry &DE :
       fs::directory_iterator(fs::path(Dir) / "entries"))
    if (DE.path().extension() == ".cert")
      Victim = DE.path().string();
  ASSERT_FALSE(Victim.empty());
  {
    std::fstream F(Victim, std::ios::in | std::ios::out | std::ios::binary);
    F.seekg(-1, std::ios::end);
    const char Last = static_cast<char>(F.get());
    F.seekp(-1, std::ios::end);
    F.put(static_cast<char>(Last ^ 0x5A));
    ASSERT_TRUE(F.good());
  }

  const CertificationReport Warm = runOn(*C, TwoMethods);
  EXPECT_TRUE(sawIncident(Warm, "StoreQuarantine"));
  EXPECT_EQ(Warm.Store.Quarantined, 1u);
  EXPECT_EQ(Warm.Store.Misses, 1u);
  EXPECT_EQ(Warm.Store.Writes, 1u);
  EXPECT_EQ(Warm.str(), Cold.str());
  EXPECT_FALSE(fs::is_empty(fs::path(Dir) / "quarantine"));

  const CertificationReport Again = runOn(*C, TwoMethods);
  EXPECT_EQ(Again.Store.Quarantined, 0u);
  EXPECT_EQ(Again.Store.Misses, 0u);
  EXPECT_TRUE(Again.Store.Incidents.empty());
}

TEST_F(StoreIncrementalTest, LongLivedCertifierRetriesAFailedOpen) {
  const CertificationReport Baseline = run(TwoMethods, CertifierOptions{});
  std::unique_ptr<Certifier> C = makeCertifier(Opts);
  support::setFaultPlan({"store-open", 1, support::FaultKind::Throw});
  // The first open fails: this call runs storeless.
  const CertificationReport First = runOn(*C, TwoMethods);
  EXPECT_TRUE(First.Store.Enabled);
  EXPECT_TRUE(sawIncident(First, "StoreIO"));
  EXPECT_EQ(First.Store.Hits + First.Store.Writes, 0u);
  EXPECT_FALSE(First.Degraded);
  EXPECT_EQ(First.str(), Baseline.str());

  // The failure was not kept: the next call opens the store and fills it.
  const CertificationReport Second = runOn(*C, TwoMethods);
  EXPECT_TRUE(Second.Store.Incidents.empty());
  EXPECT_EQ(Second.Store.Hits, 0u);
  EXPECT_GE(Second.Store.Writes, 2u);
  EXPECT_EQ(Second.str(), Baseline.str());

  const CertificationReport Third = runOn(*C, TwoMethods);
  EXPECT_EQ(Third.Store.Hits, Second.Store.Writes);
  EXPECT_EQ(Third.Store.Misses, 0u);
}

TEST_F(StoreIncrementalTest, LongLivedCertifierServesAReplacedRoot) {
  std::unique_ptr<Certifier> C = makeCertifier(Opts);
  const CertificationReport Cold = runOn(*C, TwoMethods);
  ASSERT_GE(Cold.Store.Writes, 2u);
  const std::string Snapshot = Dir + "-snapshot";
  fs::remove_all(Snapshot);
  fs::copy(Dir, Snapshot, fs::copy_options::recursive);

  const CertificationReport Edited = runOn(*C, TwoMethodsMainEdited);
  ASSERT_EQ(Edited.Store.Writes, 1u);

  // Restore the older snapshot under the open store: the edited main()
  // entry is gone again, so the edit re-analyses once more, and the
  // commit lands in the restored root.
  fs::remove_all(Dir);
  fs::copy(Snapshot, Dir, fs::copy_options::recursive);
  const CertificationReport Again = runOn(*C, TwoMethodsMainEdited);
  EXPECT_TRUE(Again.Store.Incidents.empty());
  EXPECT_EQ(Again.Store.Hits, 1u);
  EXPECT_EQ(Again.Store.Misses, 1u);
  EXPECT_EQ(Again.Store.Writes, 1u);
  EXPECT_EQ(Again.str(), Edited.str());

  const CertificationReport Original = runOn(*C, TwoMethods);
  EXPECT_TRUE(Original.Store.Incidents.empty());
  EXPECT_EQ(Original.Store.Misses, 0u);
  EXPECT_EQ(Original.str(), Cold.str());
  fs::remove_all(Snapshot);
}

// Two threads share one store-enabled certifier. Its store sections run
// under the certifier's mutex; the analyses between them run in
// parallel. Under ThreadSanitizer this is the race check for the
// long-lived store.
TEST(StoreSharedCertifierTest, ConcurrentCallersShareOneStore) {
  support::clearFaultPlan();
  const std::string Dir = ::testing::TempDir() + "/store-shared-" +
                          std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(Dir);
  const std::string Expected[] = {run(TwoMethods, CertifierOptions{}).str(),
                                  run(TwoMethodsMainEdited,
                                      CertifierOptions{})
                                      .str()};
  CertifierOptions Opts;
  Opts.StorePath = Dir;
  Opts.Workers = 2;
  std::unique_ptr<Certifier> C = makeCertifier(Opts);

  constexpr int Calls = 6;
  std::string Got[2][Calls];
  bool Clean[2][Calls] = {};
  auto Caller = [&](int T) {
    for (int I = 0; I != Calls; ++I) {
      DiagnosticEngine Diags;
      const CertificationReport R = C->certifySource(
          (I + T) % 2 ? TwoMethodsMainEdited : TwoMethods, Diags);
      Got[T][I] = R.str();
      Clean[T][I] = !Diags.hasErrors() && !R.Degraded &&
                    R.Store.Incidents.empty();
    }
  };
  std::thread A(Caller, 0), B(Caller, 1);
  A.join();
  B.join();
  for (int T = 0; T != 2; ++T)
    for (int I = 0; I != Calls; ++I) {
      EXPECT_TRUE(Clean[T][I]) << T << "/" << I;
      EXPECT_EQ(Got[T][I], Expected[(I + T) % 2]) << T << "/" << I;
    }

  // Whichever thread committed each unit, a later call is served
  // entirely from the store.
  const CertificationReport Warm = runOn(*C, TwoMethodsMainEdited);
  EXPECT_EQ(Warm.Store.Misses, 0u);
  EXPECT_EQ(Warm.str(), Expected[1]);
  fs::remove_all(Dir);
}

} // namespace
