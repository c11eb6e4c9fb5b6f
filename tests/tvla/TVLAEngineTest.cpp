//===----------------------------------------------------------------------===//
// Tests for the first-order certification engine (Section 5), in both
// the relational and the independent-attribute configuration.
//===----------------------------------------------------------------------===//

#include "tvla/Certify.h"

#include "client/Parser.h"
#include "easl/Builtins.h"
#include "support/Budget.h"
#include "tvp/Program.h"

#include <gtest/gtest.h>

using namespace canvas;
using namespace canvas::tvla;

namespace {

TVLAResult run(const char *ClientSrc, bool Relational,
               const char *SpecSrc = nullptr) {
  easl::Spec Spec =
      easl::parseBuiltinSpec(SpecSrc ? SpecSrc : easl::cmpSpecSource());
  DiagnosticEngine Diags;
  wp::DerivedAbstraction Abs = wp::deriveAbstraction(Spec, Diags);
  cj::Program Prog = cj::parseProgram(ClientSrc, Diags);
  cj::ClientCFG CFG = cj::buildCFG(Prog, Spec, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  TVLAOptions Opts;
  Opts.Relational = Relational;
  return certifyWithTVLA(Spec, Abs, *CFG.mainCFG(), Opts, Diags);
}

std::vector<bp::CheckOutcome> outcomes(const TVLAResult &R) {
  std::vector<bp::CheckOutcome> O;
  for (const auto &C : R.Checks)
    O.push_back(C.Outcome);
  return O;
}

class TVLAModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(TVLAModeTest, Fig3Verdicts) {
  TVLAResult R = run(R"(
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
  )", GetParam());
  auto O = outcomes(R);
  ASSERT_EQ(O.size(), 5u);
  EXPECT_EQ(O[0], bp::CheckOutcome::Safe);
  EXPECT_EQ(O[1], bp::CheckOutcome::Safe);
  EXPECT_EQ(O[2], bp::CheckOutcome::Definite);
  EXPECT_EQ(O[3], bp::CheckOutcome::Safe); // No false alarm at i3 (Fig. 8).
  EXPECT_EQ(O[4], bp::CheckOutcome::Definite);
}

TEST_P(TVLAModeTest, VersionedLoopCertified) {
  TVLAResult R = run(R"(
    class Loop {
      void main() {
        Set s = new Set();
        while (*) {
          s.add();
          Iterator i = s.iterator();
          while (*) { i.next(); }
        }
      }
    }
  )", GetParam());
  for (bp::CheckOutcome O : outcomes(R))
    EXPECT_EQ(O, bp::CheckOutcome::Safe);
}

TEST_P(TVLAModeTest, SummarizedStaleIteratorsStaySummarized) {
  // Iterators abandoned in a loop accumulate into a summary node; the
  // live iterator must stay distinguished and verified.
  TVLAResult R = run(R"(
    class Churn {
      void main() {
        Set s = new Set();
        Iterator live = s.iterator();
        while (*) {
          Iterator dead = s.iterator();
        }
        live.next();
      }
    }
  )", GetParam());
  auto O = outcomes(R);
  ASSERT_EQ(O.size(), 1u);
  EXPECT_EQ(O[0], bp::CheckOutcome::Safe);
}

TEST_P(TVLAModeTest, HavocIsConservative) {
  TVLAResult R = run(R"(
    class Nully {
      void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        if (*) { i = null; }
        s.add();
        i.next();
      }
    }
  )", GetParam());
  auto O = outcomes(R);
  ASSERT_EQ(O.size(), 1u);
  EXPECT_NE(O[0], bp::CheckOutcome::Safe);
}

TEST_P(TVLAModeTest, GRPClient) {
  TVLAResult R = run(R"(
    class T {
      void main() {
        Graph g = new Graph();
        Traversal t1 = g.traverse();
        Traversal t2 = g.traverse();
        t2.visitNext();
        t1.visitNext();
      }
    }
  )", GetParam(), easl::grpSpecSource());
  auto O = outcomes(R);
  ASSERT_EQ(O.size(), 2u);
  EXPECT_EQ(O[0], bp::CheckOutcome::Safe);
  EXPECT_EQ(O[1], bp::CheckOutcome::Definite);
}

TEST_P(TVLAModeTest, UnreachableChecksReported) {
  TVLAResult R = run(R"(
    class Dead {
      void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        return;
        i.next();
      }
    }
  )", GetParam());
  auto O = outcomes(R);
  ASSERT_EQ(O.size(), 1u);
  EXPECT_EQ(O[0], bp::CheckOutcome::Unreachable);
}

INSTANTIATE_TEST_SUITE_P(BothModes, TVLAModeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &Info) {
                           return Info.param ? "Relational" : "Independent";
                         });

TEST(TVLAEngineTest, RelationalTracksMultipleStructures) {
  TVLAResult Rel = run(R"(
    class Branchy {
      void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        if (*) { s.add(); }
        i.next();
      }
    }
  )", /*Relational=*/true);
  // After the branch the relational engine holds two structures.
  EXPECT_GE(Rel.MaxStructuresPerPoint, 2u);
  ASSERT_EQ(Rel.Checks.size(), 1u);
  EXPECT_EQ(Rel.Checks[0].Outcome, bp::CheckOutcome::Potential);
}

TEST(TVLAEngineTest, IndependentKeepsOneStructure) {
  TVLAResult Ind = run(R"(
    class Branchy {
      void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        if (*) { s.add(); }
        i.next();
      }
    }
  )", /*Relational=*/false);
  EXPECT_EQ(Ind.MaxStructuresPerPoint, 1u);
  ASSERT_EQ(Ind.Checks.size(), 1u);
  EXPECT_EQ(Ind.Checks[0].Outcome, bp::CheckOutcome::Potential);
}

TVLAResult runWithOptions(const char *ClientSrc, const TVLAOptions &Opts) {
  easl::Spec Spec = easl::parseBuiltinSpec(easl::cmpSpecSource());
  DiagnosticEngine Diags;
  wp::DerivedAbstraction Abs = wp::deriveAbstraction(Spec, Diags);
  cj::Program Prog = cj::parseProgram(ClientSrc, Diags);
  cj::ClientCFG CFG = cj::buildCFG(Prog, Spec, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return certifyWithTVLA(Spec, Abs, *CFG.mainCFG(), Opts, Diags);
}

// A client whose relational structure sets genuinely grow: two
// iterators refreshed under branches inside a shared loop.
constexpr const char *LoopyClient = R"(
  class Loopy {
    void main() {
      Set s = new Set();
      Iterator i = s.iterator();
      Iterator j = s.iterator();
      while (*) {
        i.next();
        if (*) { i = s.iterator(); }
        j.next();
        if (*) { j = s.iterator(); s.add(); }
      }
      i.next();
      j.next();
    }
  }
)";

TEST(TVLAEngineTest, RelationalReportsInternerAndCacheStats) {
  TVLAOptions Opts;
  Opts.Relational = true;
  TVLAResult R = runWithOptions(LoopyClient, Opts);
  // The loop revisits program points, so transfers repeat on already-
  // seen structures and the (StructId, edge) memo must pay off.
  EXPECT_GT(R.InternedStructures, 0u);
  EXPECT_GT(R.TransferCacheMisses, 0u);
  EXPECT_GT(R.TransferCacheHits, 0u);
  // Every distinct structure was admitted once: the pool can't be
  // larger than the number of transfer results plus the initial one.
  EXPECT_LE(R.InternedStructures, R.TransferCacheMisses + 1);
}

TEST(TVLAEngineTest, IndependentReportsNoInternerStats) {
  TVLAOptions Opts;
  Opts.Relational = false;
  TVLAResult R = runWithOptions(LoopyClient, Opts);
  EXPECT_EQ(R.InternedStructures, 0u);
  EXPECT_EQ(R.TransferCacheHits, 0u);
  EXPECT_EQ(R.TransferCacheMisses, 0u);
}

TEST(TVLAEngineTest, RepeatedRunsAreDeterministic) {
  TVLAOptions Opts;
  Opts.Relational = true;
  TVLAResult A = runWithOptions(LoopyClient, Opts);
  TVLAResult B = runWithOptions(LoopyClient, Opts);
  ASSERT_EQ(A.Checks.size(), B.Checks.size());
  for (size_t I = 0; I != A.Checks.size(); ++I) {
    EXPECT_EQ(A.Checks[I].Outcome, B.Checks[I].Outcome);
    EXPECT_EQ(A.Checks[I].What, B.Checks[I].What);
  }
  EXPECT_EQ(A.Iterations, B.Iterations);
  EXPECT_EQ(A.InternedStructures, B.InternedStructures);
  EXPECT_EQ(A.TransferCacheHits, B.TransferCacheHits);
  EXPECT_EQ(A.TransferCacheMisses, B.TransferCacheMisses);
}

// Regression for the structure-cap path: joining the overflow structure
// into a resident victim changes the victim's canonical identity, and
// the per-point set must be re-keyed under the joined structure's new
// identity (the old code left the stale identity in the set, so the
// joined structure was never re-transferred). With a tiny cap the
// fixpoint must still terminate, keep the check count, and only lose
// precision relative to the uncapped run — never report Safe where the
// uncapped engine flags.
TEST(TVLAEngineTest, TinyStructureCapStaysSoundAndTerminates) {
  TVLAOptions Uncapped;
  Uncapped.Relational = true;
  TVLAResult Ref = runWithOptions(LoopyClient, Uncapped);

  for (unsigned Cap : {1u, 2u, 3u}) {
    TVLAOptions Capped;
    Capped.Relational = true;
    Capped.MaxStructuresPerPoint = Cap;
    TVLAResult R = runWithOptions(LoopyClient, Capped);
    EXPECT_LE(R.MaxStructuresPerPoint, Cap) << "cap=" << Cap;
    ASSERT_EQ(R.Checks.size(), Ref.Checks.size()) << "cap=" << Cap;
    for (size_t I = 0; I != R.Checks.size(); ++I) {
      if (R.Checks[I].Outcome == bp::CheckOutcome::Safe) {
        EXPECT_EQ(Ref.Checks[I].Outcome, bp::CheckOutcome::Safe)
            << "cap=" << Cap << " check=" << R.Checks[I].What;
      }
    }
  }
}

// The capped engine must converge to the same verdicts every time even
// though the cap path interns fresh join results mid-fixpoint.
TEST(TVLAEngineTest, CapPathIsDeterministic) {
  TVLAOptions Opts;
  Opts.Relational = true;
  Opts.MaxStructuresPerPoint = 2;
  TVLAResult A = runWithOptions(LoopyClient, Opts);
  TVLAResult B = runWithOptions(LoopyClient, Opts);
  ASSERT_EQ(A.Checks.size(), B.Checks.size());
  for (size_t I = 0; I != A.Checks.size(); ++I)
    EXPECT_EQ(A.Checks[I].Outcome, B.Checks[I].Outcome);
  EXPECT_EQ(A.Iterations, B.Iterations);
}

// The allocation ceiling bounds TVLA memory in both modes: what persists
// is charged (interned structures in the relational engine, each newly
// reached point's structure in the independent one), so a ceiling below
// an unbudgeted run's spend stops the fixpoint with BudgetAllocation.
TEST(TVLAEngineTest, AllocationCeilingStopsLoopFixpoint) {
  for (bool Relational : {true, false}) {
    TVLAOptions Opts;
    Opts.Relational = Relational;
    support::CancelToken Unlimited;
    Opts.Cancel = &Unlimited;
    runWithOptions(LoopyClient, Opts);
    const uint64_t Spend = Unlimited.spend().AllocBytes;
    ASSERT_GT(Spend, 0u) << "relational=" << Relational;

    support::StageBudget B;
    B.MaxAllocBytes = Spend / 2;
    support::CancelToken Tight(B, "tvla");
    Opts.Cancel = &Tight;
    try {
      runWithOptions(LoopyClient, Opts);
      ADD_FAILURE() << "expected BudgetAllocation, relational=" << Relational;
    } catch (const CertifyError &E) {
      EXPECT_EQ(E.kind(), CertifyErrorKind::BudgetAllocation)
          << "relational=" << Relational;
    }
  }
}

TEST(TVPTest, RendersTranslations) {
  easl::Spec Spec = easl::parseBuiltinSpec(easl::cmpSpecSource());
  DiagnosticEngine Diags;
  wp::DerivedAbstraction Abs = wp::deriveAbstraction(Spec, Diags);
  std::string Std = tvp::renderStandardTranslation();
  EXPECT_NE(Std.find("pt$x(o) := pt$y(o)"), std::string::npos);
  std::string Spec11 = tvp::renderSpecializedTranslation(Abs);
  EXPECT_NE(Spec11.find("Fig. 10"), std::string::npos);
  EXPECT_NE(Spec11.find("pt$this"), std::string::npos) << Spec11;
}

} // namespace
