//===----------------------------------------------------------------------===//
// Tests for the per-stage resource budgets (support/Budget.h) and the
// certification supervisor's degradation ladder: exhausting any
// engine's budget must step down the ladder (never abort), and the
// floor is a Stage-0 lint-only report with every obligation Potential.
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"
#include "easl/Builtins.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

using namespace canvas;
using namespace canvas::core;
using support::CancelToken;
using support::StageBudget;

namespace {

const char *Fig3Client = R"(
  class Fig3 {
    void main() {
      Set v = new Set();
      Iterator i1 = v.iterator();
      Iterator i2 = v.iterator();
      Iterator i3 = i1;
      i1.next();
      i1.remove();
      if (*) { i2.next(); }
      if (*) { i3.next(); }
      v.add();
      if (*) { i1.next(); }
    }
  }
)";

CertificationReport certifyWith(EngineKind K, const CertifierOptions &Opts,
                                const char *Client = Fig3Client) {
  DiagnosticEngine Diags;
  Certifier C(easl::cmpSpecSource(), K, Diags, {}, Opts);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return C.certifySource(Client, Diags);
}

TEST(RobustnessBudgetTest, UnlimitedTokenNeverThrows) {
  CancelToken Tok;
  for (int I = 0; I != 10000; ++I)
    Tok.tick();
  Tok.noteStructures(1u << 20);
  Tok.addAllocation(uint64_t(1) << 40);
  EXPECT_EQ(Tok.spend().Iterations, 10000u);
  EXPECT_EQ(Tok.spend().PeakStructures, 1u << 20);
}

TEST(RobustnessBudgetTest, IterationCeilingThrows) {
  StageBudget B;
  B.MaxIterations = 3;
  CancelToken Tok(B, "test");
  Tok.tick();
  Tok.tick();
  Tok.tick();
  try {
    Tok.tick();
    FAIL() << "expected CertifyError";
  } catch (const CertifyError &E) {
    EXPECT_EQ(E.kind(), CertifyErrorKind::BudgetIterations);
    EXPECT_EQ(E.stage(), "test");
    EXPECT_TRUE(isBudgetError(E.kind()));
  }
}

TEST(RobustnessBudgetTest, StructureCeilingThrowsAndTracksPeak) {
  StageBudget B;
  B.MaxStructures = 10;
  CancelToken Tok(B, "test");
  Tok.noteStructures(7);
  EXPECT_EQ(Tok.spend().PeakStructures, 7u);
  EXPECT_THROW(Tok.noteStructures(11), CertifyError);
}

TEST(RobustnessBudgetTest, AllocationCeilingThrows) {
  StageBudget B;
  B.MaxAllocBytes = 100;
  CancelToken Tok(B, "test");
  Tok.addAllocation(60);
  try {
    Tok.addAllocation(60);
    FAIL() << "expected CertifyError";
  } catch (const CertifyError &E) {
    EXPECT_EQ(E.kind(), CertifyErrorKind::BudgetAllocation);
  }
}

TEST(RobustnessBudgetTest, DeadlineThrowsOnTick) {
  StageBudget B;
  B.DeadlineMicros = 0.001; // Sub-nanosecond: any tick is past due.
  CancelToken Tok(B, "test");
  try {
    // The clock must advance past 1ns eventually.
    for (int I = 0; I != 1000000; ++I)
      Tok.tick();
    FAIL() << "expected CertifyError";
  } catch (const CertifyError &E) {
    EXPECT_EQ(E.kind(), CertifyErrorKind::BudgetDeadline);
  }
}

TEST(RobustnessBudgetTest, UnbudgetedRunIsNotDegraded) {
  CertificationReport R = certifyWith(EngineKind::SCMPIntra, {});
  EXPECT_FALSE(R.Degraded);
  EXPECT_EQ(R.EffectiveEngine, "scmp-intra");
  ASSERT_EQ(R.Stages.size(), 1u);
  EXPECT_TRUE(R.Stages[0].Completed);
  EXPECT_GT(R.Stages[0].Spend.Iterations, 0u);
  EXPECT_EQ(R.numChecks(), 5u);
  EXPECT_EQ(R.numFlagged(), 2u) << R.str();
  for (const CheckVerdict &C : R.Checks)
    EXPECT_FALSE(C.Degraded);
}

TEST(RobustnessBudgetTest, TVLABudgetExhaustionDegradesDownLadder) {
  CertifierOptions Opts;
  Opts.EngineBudgets[EngineKind::TVLARelational].MaxIterations = 1;
  CertificationReport R = certifyWith(EngineKind::TVLARelational, Opts);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.EffectiveEngine, "tvla-independent") << R.str();
  ASSERT_GE(R.Stages.size(), 2u);
  EXPECT_FALSE(R.Stages[0].Completed);
  EXPECT_NE(R.Stages[0].FailReason.find("budget-iterations"),
            std::string::npos)
      << R.Stages[0].FailReason;
  EXPECT_TRUE(R.Stages.back().Completed);
  // Unproven verdicts carry the degradation marker; Safe stays clean.
  EXPECT_EQ(R.numChecks(), 5u);
  for (const CheckVerdict &C : R.Checks) {
    bool Unproven = C.Outcome == CheckOutcome::Potential ||
                    C.Outcome == CheckOutcome::Definite;
    EXPECT_EQ(C.Degraded, Unproven) << C.What;
    if (C.Degraded) {
      EXPECT_NE(C.DegradeNote.find("tvla-relational"), std::string::npos);
    }
  }
}

// An allocation ceiling on the relational rung alone, below what an
// unbudgeted run interns: the relational fixpoint trips it, and the
// ladder steps down to the unbudgeted independent-attribute engine.
TEST(RobustnessBudgetTest, TVLAAllocationCeilingDegradesToIndependent) {
  const CertificationReport Full =
      certifyWith(EngineKind::TVLARelational, {});
  ASSERT_EQ(Full.Stages.size(), 1u);
  const uint64_t Spend = Full.Stages[0].Spend.AllocBytes;
  ASSERT_GT(Spend, 0u);

  CertifierOptions Opts;
  Opts.EngineBudgets[EngineKind::TVLARelational].MaxAllocBytes = Spend / 2;
  CertificationReport R = certifyWith(EngineKind::TVLARelational, Opts);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.EffectiveEngine, "tvla-independent") << R.str();
  ASSERT_EQ(R.Stages.size(), 2u);
  EXPECT_EQ(R.Stages[0].Engine, "tvla-relational");
  EXPECT_FALSE(R.Stages[0].Completed);
  EXPECT_NE(R.Stages[0].FailReason.find("budget-allocation"),
            std::string::npos)
      << R.Stages[0].FailReason;
  EXPECT_EQ(R.Stages[1].Engine, "tvla-independent");
  EXPECT_TRUE(R.Stages[1].Completed);
  EXPECT_EQ(R.numChecks(), 5u);
}

TEST(RobustnessBudgetTest, InterprocDeadlineDegradesToIntra) {
  CertifierOptions Opts;
  Opts.EngineBudgets[EngineKind::SCMPInterproc].DeadlineMicros = 0.001;
  CertificationReport R = certifyWith(EngineKind::SCMPInterproc, Opts);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.EffectiveEngine, "scmp-intra") << R.str();
  // The intraprocedural fallback still certifies Fig. 3 fully.
  EXPECT_EQ(R.numChecks(), 5u);
  EXPECT_EQ(R.numFlagged(), 2u) << R.str();
}

TEST(RobustnessBudgetTest, GlobalBudgetExhaustsEveryRungToLintFloor) {
  CertifierOptions Opts;
  Opts.Budget.MaxIterations = 1; // Too small for any engine's fixpoint.
  CertificationReport R = certifyWith(EngineKind::TVLARelational, Opts);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.EffectiveEngine, "lint-only") << R.str();
  // Every rung was attempted and none completed.
  EXPECT_GE(R.Stages.size(), 4u);
  for (const StageAttempt &A : R.Stages)
    EXPECT_FALSE(A.Completed) << A.Engine;
  // The floor reports every obligation, conservatively Potential.
  EXPECT_EQ(R.numChecks(), 5u) << R.str();
  for (const CheckVerdict &C : R.Checks) {
    EXPECT_EQ(C.Outcome, CheckOutcome::Potential);
    EXPECT_TRUE(C.Degraded);
    EXPECT_FALSE(C.DegradeNote.empty());
  }
  EXPECT_NE(R.str().find("engine degraded"), std::string::npos);
}

TEST(RobustnessBudgetTest, DegradeOffPropagatesBudgetError) {
  CertifierOptions Opts;
  Opts.Degrade = false;
  Opts.Budget.MaxIterations = 1;
  DiagnosticEngine Diags;
  Certifier C(easl::cmpSpecSource(), EngineKind::SCMPIntra, Diags, {}, Opts);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_THROW(C.certifySource(Fig3Client, Diags), CertifyError);
}

TEST(RobustnessBudgetTest, MissingMainSkipsInterprocRung) {
  const char *NoMain = R"(
    class C {
      void helper() {
        Set s = new Set();
        Iterator i = s.iterator();
        i.next();
      }
    }
  )";
  CertificationReport R =
      certifyWith(EngineKind::SCMPInterproc, {}, NoMain);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.EffectiveEngine, "scmp-intra") << R.str();
  ASSERT_GE(R.Stages.size(), 2u);
  EXPECT_FALSE(R.Stages[0].Completed);
  EXPECT_NE(R.Stages[0].FailReason.find("main()"), std::string::npos);
}

TEST(RobustnessBudgetTest, SpendIsReportedPerStage) {
  CertificationReport R = certifyWith(EngineKind::TVLARelational, {});
  ASSERT_EQ(R.Stages.size(), 1u);
  EXPECT_TRUE(R.Stages[0].Completed);
  EXPECT_GT(R.Stages[0].Spend.Iterations, 0u);
  EXPECT_GT(R.Stages[0].Spend.Micros, 0.0);
  EXPECT_GT(R.Stages[0].Spend.PeakStructures, 0u);
}

} // namespace
