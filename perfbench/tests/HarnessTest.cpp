//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tests: the percentile helper and its
/// samples-beyond rule, the host-speed normalization, the correctness
/// gate under injected faults, the store-churn schedule, and the traced
/// run's outputs. Runs use small corpora; run them with
/// `python3 perfbench/run.py --test`.
///
//===----------------------------------------------------------------------===//

#include "Calibrate.h"
#include "Harness.h"
#include "Stats.h"

#include "support/Budget.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace perfbench;

namespace {

std::string workDir(const std::string &Name) {
  const char *Root = std::getenv("PERFBENCH_TEST_WORKDIR");
  return (std::filesystem::path(Root ? Root : "perfbench-test-work") / Name)
      .string();
}

/// A small, fast configuration: 40 clients straight from the generator,
/// no measured time beyond the passes the p99 needs.
Config small(Workload W, const std::string &Name) {
  Config C;
  C.W = W;
  C.Seed = 3;
  C.Clients = 40;
  C.PoolFactor = 1;
  C.Seconds = 0;
  C.SetupReps = 2;
  C.GroundTruthClients = 10;
  C.WorkDir = workDir(Name);
  return C;
}

double metric(const Result &R, const std::string &Name) {
  const Metric *M = R.find(Name);
  EXPECT_NE(M, nullptr) << "missing metric " << Name;
  return M ? M->Value : -1;
}

/// Arms CANVAS_FAULT for one test and disarms it afterwards.
class ScopedFault {
public:
  explicit ScopedFault(const std::string &Plan) {
    setenv("CANVAS_FAULT", Plan.c_str(), 1);
    canvas::support::reloadFaultPlanFromEnvironment();
  }
  ~ScopedFault() {
    unsetenv("CANVAS_FAULT");
    canvas::support::clearFaultPlan();
  }
};

} // namespace

TEST(StatsTest, NearestRankPercentiles) {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 0.5).Value, 50);
  EXPECT_EQ(percentile(V, 0.99).Value, 99);
  EXPECT_EQ(percentile(V, 0.99).Beyond, 1u);
  EXPECT_EQ(percentile(V, 1.0).Value, 100);
  EXPECT_EQ(percentile(V, 0.01).Value, 1);
  EXPECT_EQ(percentile(V, 0.5).Samples, 100u);
  EXPECT_EQ(percentile({}, 0.5).Samples, 0u);
  EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(StatsTest, SamplesBeyondRule) {
  // 0.99 * 1000 = 990 exactly: rank 990, ten samples above it.
  EXPECT_EQ(samplesNeeded(0.99), 1000u);
  EXPECT_EQ(percentile(std::vector<double>(1000, 1.0), 0.99).Beyond, 10u);
  EXPECT_TRUE(percentile(std::vector<double>(1000, 1.0), 0.99).enoughBeyond());
  EXPECT_FALSE(percentile(std::vector<double>(999, 1.0), 0.99).enoughBeyond());
  EXPECT_EQ(samplesNeeded(0.5), 20u);
}

TEST(HostSpeedTest, RescalesWindowsToTheReferenceSpeed) {
  using Clock = HostSpeed::Clock;
  using std::chrono::milliseconds;
  HostSpeed H;
  const Clock::time_point T0 = Clock::now();
  // Before any burst a time is left as measured.
  EXPECT_DOUBLE_EQ(H.normalize(T0, 10), 10);
  // A host at half the reference speed: every burst takes twice as long.
  for (int I = 0; I != 5; ++I)
    H.record(T0 + milliseconds(250 * I), 2 * ReferenceBurstMs);
  EXPECT_DOUBLE_EQ(H.normalize(T0 + milliseconds(500), 10), 5);
  // A stray slow burst among them does not move the median.
  H.record(T0 + milliseconds(1250), 50 * ReferenceBurstMs);
  EXPECT_DOUBLE_EQ(H.normalize(T0 + milliseconds(600), 10), 5);
  // Far from every burst, the nearest one applies.
  H.record(T0 + milliseconds(20000), ReferenceBurstMs);
  EXPECT_DOUBLE_EQ(H.normalize(T0 + milliseconds(60000), 10), 10);
  EXPECT_EQ(H.bursts(), 7u);
  EXPECT_DOUBLE_EQ(H.medianBurstMs(), 2 * ReferenceBurstMs);
}

TEST(HostSpeedTest, KernelBurstsAreTimed) {
  HostSpeed H;
  H.tick(/*Force=*/true);
  H.tick(); // Within IntervalMs of the first: skipped.
  EXPECT_EQ(H.bursts(), 1u);
  EXPECT_GT(H.medianBurstMs(), 0);
}

TEST(HarnessTest, CleanRunPassesTheGateAndPrintsSampleCounts) {
  for (Workload W : {Workload::IntraCold, Workload::InterprocCerts,
                     Workload::StoreChurn, Workload::TvlaIndependent}) {
    SCOPED_TRACE(workloadName(W));
    const Result R = run(small(W, std::string("clean-") + workloadName(W)));
    ASSERT_TRUE(R.Error.empty()) << R.Error;
    EXPECT_TRUE(R.Correct) << (R.Failures.empty() ? "" : R.Failures[0]);
    EXPECT_EQ(R.Failed, 0u);
    EXPECT_GT(R.Attempted, 1000u);
    EXPECT_EQ(metric(R, "failed_frac"), 0);
    EXPECT_GT(metric(R, "flagged_checks"), 0);
    EXPECT_GT(metric(R, "certify_ms_p99"), metric(R, "certify_ms_p50"));
    // The printed note carries the sample count and the samples beyond.
    const Metric *P99 = R.find("certify_ms_p99");
    ASSERT_NE(P99, nullptr);
    std::istringstream Note(P99->Note);
    std::string Tag, Word;
    size_t Samples = 0, Beyond = 0;
    Note >> Tag; // "n=<samples>"
    ASSERT_EQ(Tag.rfind("n=", 0), 0u) << P99->Note;
    Samples = std::stoul(Tag.substr(2));
    Note >> Word >> Beyond;
    EXPECT_GE(Samples, samplesNeeded(0.99));
    EXPECT_GE(Beyond, MinBeyond);
  }
}

/// Every fault site some workload's path probes: an injected fault must
/// surface as failed calls, never as a faster clean run.
TEST(HarnessTest, InjectedFaultsShowAsFailedCalls) {
  const std::vector<std::pair<std::string, Workload>> OnPath = {
      {"dataflow.solve", Workload::IntraCold},
      {"boolprog.intra", Workload::IntraCold},
      {"boolprog.interproc", Workload::InterprocCerts},
      {"ifds.solve", Workload::InterprocCerts},
      {"cert-check", Workload::InterprocCerts},
      {"tvla.fixpoint", Workload::TvlaIndependent},
      {"store-open", Workload::StoreChurn},
      {"store-read", Workload::StoreChurn},
      {"store-commit", Workload::StoreChurn},
      {"store-recover", Workload::StoreChurn},
  };
  // The remaining sites guard paths no workload takes: the generic
  // alloc-site rung runs only as a fallback, and points-to is off.
  const std::set<std::string> OffPath = {"generic.allocsite", "points-to"};
  for (const std::string &Site : canvas::support::faultSites()) {
    SCOPED_TRACE(Site);
    auto It = std::find_if(OnPath.begin(), OnPath.end(),
                           [&](const auto &P) { return P.first == Site; });
    if (It == OnPath.end()) {
      EXPECT_TRUE(OffPath.count(Site)) << "fault site with no workload";
      continue;
    }
    ScopedFault F(Site + ":1");
    const Result R = run(small(It->second, "fault-" + Site));
    ASSERT_TRUE(R.Error.empty()) << R.Error;
    EXPECT_FALSE(R.Correct);
    EXPECT_GT(R.Failed, 0u);
    EXPECT_GT(metric(R, "failed_frac"), 0);
  }
}

TEST(HarnessTest, ChurnScheduleProducesMissesAndWrites) {
  const Result R = run(small(Workload::StoreChurn, "churn"));
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.Correct);
  EXPECT_GT(R.StoreHits, 0u);
  EXPECT_GT(R.StoreMisses, 0u);
  EXPECT_GT(R.StoreWrites, 0u);

  Config C = small(Workload::StoreChurn, "churn-traced");
  C.Trace = true;
  const Result T = run(C);
  ASSERT_TRUE(T.Error.empty()) << T.Error;
  EXPECT_TRUE(T.Correct) << (T.Failures.empty() ? "" : T.Failures[0]);
  EXPECT_LT(metric(T, "store.hit_ratio"), 1.0);
  EXPECT_GT(metric(T, "store.hit_ratio"), 0.0);
  EXPECT_GT(metric(T, "store.puts"), 0);
  EXPECT_GT(metric(T, "store.put_ms"), 0);
}

TEST(HarnessTest, TracedRunAttributesTimeAndWritesChromeTrace) {
  Config C = small(Workload::IntraCold, "traced");
  C.Trace = true;
  C.TraceFile = workDir("traced.json");
  const Result R = run(C);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  // The replay's verdicts match the certifier's on every client.
  EXPECT_TRUE(R.Correct) << (R.Failures.empty() ? "" : R.Failures[0]);
  EXPECT_GT(metric(R, "boolprog.build_ms"), 0);
  EXPECT_GT(metric(R, "boolprog.fixpoint_iterations"), 0);
  EXPECT_GT(metric(R, "dataflow.slice_runs"), 0);
  EXPECT_GT(metric(R, "wp.families"), 0);
  EXPECT_EQ(metric(R, "ifds.path_edges"), 0);
  EXPECT_GT(metric(R, "trace.coverage"), 0.5);
  EXPECT_LT(metric(R, "trace.coverage"), 1.5);
  EXPECT_EQ(R.find("certify_ms_p50"), nullptr);

  std::ifstream F(C.TraceFile);
  std::stringstream SS;
  SS << F.rdbuf();
  const std::string Text = SS.str();
  EXPECT_EQ(Text.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(Text.find("\"name\":\"boolprog.fixpoint\""), std::string::npos);
  EXPECT_NE(Text.find("\"name\":\"client.parse\""), std::string::npos);
}
