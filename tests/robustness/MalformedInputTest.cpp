//===----------------------------------------------------------------------===//
// Malformed-input corpus: truncated, garbled, and partially-broken
// specs and clients must produce diagnostics and partial ASTs — never
// a crash, never an abort, and never a diagnostic-per-token cascade.
//===----------------------------------------------------------------------===//

#include "client/Parser.h"
#include "core/Certifier.h"
#include "easl/Builtins.h"
#include "easl/Parser.h"

#include <gtest/gtest.h>

#include <string>

using namespace canvas;
using namespace canvas::core;

namespace {

const char *GoodClient = R"(
  class Fig3 {
    void main() {
      Set v = new Set();
      Iterator i1 = v.iterator();
      i1.next();
      v.add();
      if (*) { i1.next(); }
    }
  }
)";

TEST(RobustnessMalformedTest, TruncatedClientCorpusNeverCrashes) {
  std::string Src = GoodClient;
  // Every prefix of a valid client must parse without crashing; most
  // are malformed and must produce at least one diagnostic.
  for (size_t Len = 0; Len <= Src.size(); Len += 7) {
    DiagnosticEngine Diags;
    cj::Program P = cj::parseProgram(Src.substr(0, Len), Diags);
    (void)P;
  }
  SUCCEED();
}

TEST(RobustnessMalformedTest, TruncatedSpecCorpusNeverCrashes) {
  std::string Src = easl::cmpSpecSource();
  for (size_t Len = 0; Len <= Src.size(); Len += 13) {
    DiagnosticEngine Diags;
    easl::Spec S = easl::parseSpec(Src.substr(0, Len), Diags);
    (void)S;
  }
  SUCCEED();
}

TEST(RobustnessMalformedTest, GarbledTokensProduceBoundedDiagnostics) {
  DiagnosticEngine Diags;
  // 200 junk tokens before the class: recovery must skip to the class
  // keyword with a single diagnostic, not one per token.
  std::string Junk;
  for (int I = 0; I != 200; ++I)
    Junk += "junk ";
  cj::Program P = cj::parseProgram(Junk + GoodClient, Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_LE(Diags.errorCount(), 5u) << Diags.str();
  ASSERT_EQ(P.Classes.size(), 1u); // The class still parsed.
}

TEST(RobustnessMalformedTest, ClientCollectsMultipleDiagnostics) {
  const char *TwoBroken = R"(
    class A {
      void main() {
        Set s = new Set()    // missing ';'
        s.add(;              // garbled call
      }
    }
    junk junk junk
    class B {
      void helper() {
        Iterator i = ;       // missing initializer expression
        i.next();
      }
    }
  )";
  DiagnosticEngine Diags;
  cj::Program P = cj::parseProgram(TwoBroken, Diags);
  // Errors from both classes and the junk between them are collected in
  // one pass, and both classes survive in the partial AST.
  EXPECT_GE(Diags.errorCount(), 3u) << Diags.str();
  EXPECT_EQ(P.Classes.size(), 2u);
  EXPECT_EQ(P.Classes[0].Name, "A");
  EXPECT_EQ(P.Classes[1].Name, "B");
}

TEST(RobustnessMalformedTest, SpecCollectsMultipleDiagnostics) {
  const char *BrokenSpec = R"(
    class Version { }
    stray tokens here
    class Set {
      Version ver;
      void add() {
        this.ver = new Version()   // missing ';'
      }
    }
  )";
  DiagnosticEngine Diags;
  easl::Spec S = easl::parseSpec(BrokenSpec, Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(S.Classes.size(), 2u) << Diags.str();
  EXPECT_EQ(S.Classes[0].Name, "Version");
  EXPECT_EQ(S.Classes[1].Name, "Set");
}

TEST(RobustnessMalformedTest, UnterminatedCommentAndString) {
  DiagnosticEngine D1, D2;
  cj::parseProgram("class C { /* never closed", D1);
  EXPECT_TRUE(D1.hasErrors());
  easl::parseSpec("class C { \"never closed", D2);
  EXPECT_TRUE(D2.hasErrors());
}

TEST(RobustnessMalformedTest, MalformedSpecFailsCertifierConstruction) {
  DiagnosticEngine Diags;
  Certifier C("class {{{ not a spec", EngineKind::SCMPIntra, Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(RobustnessMalformedTest, MalformedClientYieldsEmptyReportNotCrash) {
  DiagnosticEngine Diags;
  Certifier C(easl::cmpSpecSource(), EngineKind::SCMPIntra, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  CertificationReport R =
      C.certifySource("void main() { this is not CJ }", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(R.numChecks(), 0u);
}

TEST(RobustnessMalformedTest, DuplicateMethodClientIsRejectedBeforeAnyEngine) {
  // Two A::f would share one unit name: every certificate and store entry
  // of the unit would fail its check. The front end refuses the client.
  DiagnosticEngine Diags;
  CertifierOptions Opts;
  Opts.EmitCertificates = Opts.CheckCertificates = true;
  Certifier C(easl::cmpSpecSource(), EngineKind::SCMPIntra, Diags, {}, Opts);
  ASSERT_FALSE(Diags.hasErrors());
  CertificationReport R = C.certifySource(R"(
    class A {
      void f() { Set s = new Set(); Iterator i = s.iterator(); i.next(); }
      void f() { Set s = new Set(); s.add(); }
    }
  )",
                                          Diags);
  EXPECT_EQ(Diags.errorCount(), 1u) << Diags.str();
  EXPECT_EQ(R.numChecks(), 0u);
  EXPECT_TRUE(R.Certificates.empty());
}

TEST(RobustnessMalformedTest, DeepNestingParsesWithoutOverflow) {
  // 200 nested blocks: recursion depth must stay manageable and the
  // parser must not crash on the matching truncated variant either.
  std::string Src = "class C { void main() { ";
  for (int I = 0; I != 200; ++I)
    Src += "if (*) { ";
  Src += "Set s = new Set(); ";
  for (int I = 0; I != 200; ++I)
    Src += "} ";
  Src += "} }";
  DiagnosticEngine Diags;
  cj::Program P = cj::parseProgram(Src, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  DiagnosticEngine Diags2;
  cj::parseProgram(Src.substr(0, Src.size() / 2), Diags2);
  SUCCEED();
}

} // namespace
