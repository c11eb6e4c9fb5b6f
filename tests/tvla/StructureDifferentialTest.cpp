//===----------------------------------------------------------------------===//
// Differential tests for the packed 2-bit Structure representation:
// the same operation sequences are replayed against a map-based
// reference model (the shape of the representation the packed layout
// replaced), asserting every observable read agrees. The copy test
// doubles as an ASan use-after-free regression: a copy that shared its
// source's words would read freed memory once the source is destroyed.
//===----------------------------------------------------------------------===//

#include "tvla/Structure.h"

#include "client/Parser.h"
#include "easl/Builtins.h"

#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <random>

using namespace canvas;
using namespace canvas::tvla;

namespace {

/// The map-based reference model: one entry per (pred, tuple), exactly
/// the old per-structure map representation. Unset entries read False,
/// matching Structure's all-zero initialization.
struct RefModel {
  unsigned NumNodes = 0;
  std::vector<bool> Summary;
  std::map<std::pair<int, unsigned>, Kleene> Unary;
  std::map<std::tuple<int, unsigned, unsigned>, Kleene> Binary;

  unsigned addNode() {
    Summary.push_back(false);
    return NumNodes++;
  }
  Kleene unary(int P, unsigned N) const {
    auto It = Unary.find({P, N});
    return It == Unary.end() ? Kleene::False : It->second;
  }
  Kleene binary(int P, unsigned A, unsigned B) const {
    auto It = Binary.find({P, A, B});
    return It == Binary.end() ? Kleene::False : It->second;
  }
};

class StructureDifferentialTest : public ::testing::Test {
protected:
  void SetUp() override {
    Spec = easl::parseBuiltinSpec(easl::cmpSpecSource());
    DiagnosticEngine Diags;
    Abs = wp::deriveAbstraction(Spec, Diags);
    Prog = cj::parseProgram(R"(
      class M {
        void main() {
          Set v = new Set();
          Set w = new Set();
          Iterator i = v.iterator();
          Iterator j = w.iterator();
        }
      }
    )", Diags);
    CFG = cj::buildCFG(Prog, Spec, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    Vocab = tvp::buildVocabulary(Abs, *CFG.mainCFG(), Diags);
  }

  /// Replays \p Ops pseudo-random predicate writes into \p S and the
  /// reference model, then checks every entry of every predicate.
  void replayAndCompare(Structure &S, unsigned Seed, unsigned Nodes,
                        unsigned Ops) {
    RefModel Ref;
    for (unsigned I = 0; I != Nodes; ++I) {
      S.addNode();
      Ref.addNode();
    }
    std::mt19937 Rng(Seed);
    const Kleene Vals[] = {Kleene::False, Kleene::True, Kleene::Half};
    const int NumPreds = static_cast<int>(Vocab.Preds.size());
    for (unsigned Op = 0; Op != Ops; ++Op) {
      const int P = static_cast<int>(Rng() % NumPreds);
      const Kleene V = Vals[Rng() % 3];
      const unsigned A = Rng() % Nodes;
      if (Vocab.Preds[P].Arity == 1) {
        S.setUnary(P, A, V);
        Ref.Unary[{P, A}] = V;
      } else {
        const unsigned B = Rng() % Nodes;
        S.setBinary(P, A, B, V);
        Ref.Binary[{P, A, B}] = V;
      }
      if (Op % 7 == 0) {
        const bool Sum = Rng() & 1;
        S.setSummary(A, Sum);
        Ref.Summary[A] = Sum;
      }
    }
    ASSERT_EQ(S.numNodes(), Ref.NumNodes);
    for (unsigned N = 0; N != Nodes; ++N)
      EXPECT_EQ(S.isSummary(N), Ref.Summary[N]) << "summary node " << N;
    for (int P = 0; P != NumPreds; ++P)
      for (unsigned A = 0; A != Nodes; ++A) {
        if (Vocab.Preds[P].Arity == 1) {
          EXPECT_EQ(S.unary(P, A), Ref.unary(P, A)) << "pred " << P;
        } else {
          for (unsigned B = 0; B != Nodes; ++B)
            EXPECT_EQ(S.binary(P, A, B), Ref.binary(P, A, B)) << "pred " << P;
        }
      }
  }

  /// A deterministic pseudo-random structure of \p Nodes individuals.
  void fill(Structure &S, unsigned Seed, unsigned Nodes) {
    S.resizeNodes(Nodes);
    std::mt19937 Rng(Seed);
    const Kleene Vals[] = {Kleene::False, Kleene::True, Kleene::Half};
    const int NumPreds = static_cast<int>(Vocab.Preds.size());
    for (int P = 0; P != NumPreds; ++P)
      for (unsigned A = 0; A != Nodes; ++A) {
        if (Vocab.Preds[P].Arity == 1)
          S.setUnary(P, A, Vals[Rng() % 3]);
        else
          for (unsigned B = 0; B != Nodes; ++B)
            S.setBinary(P, A, B, Vals[Rng() % 3]);
      }
  }

  easl::Spec Spec;
  wp::DerivedAbstraction Abs;
  cj::Program Prog;
  cj::ClientCFG CFG;
  tvp::Vocabulary Vocab;
};

TEST_F(StructureDifferentialTest, HeapBackendMatchesMapReference) {
  for (unsigned Seed : {1u, 2u, 3u, 4u}) {
    Structure S(Vocab);
    replayAndCompare(S, Seed, /*Nodes=*/5, /*Ops=*/400);
  }
}

// Copies own their words: a copy-constructed, a copy-assigned (into a
// buffer of another size and into one of the same size) and a moved
// structure each keep the source's rendering and hash however the source
// is then mutated, blurred or destroyed. A moved-from structure is empty
// and reusable.
TEST_F(StructureDifferentialTest, CopiesAreIndependentOfTheirSource) {
  Structure S(Vocab);
  fill(S, 42, 4);
  S.blur(Vocab);
  const std::string Before = S.canonicalStr(Vocab);
  const uint64_t HashBefore = S.structuralHash();
  auto ExpectSame = [&](const Structure &C, const char *What) {
    EXPECT_EQ(C.canonicalStr(Vocab), Before) << What;
    EXPECT_EQ(C.structuralHash(), HashBefore) << What;
  };

  Structure Copied(S);
  Structure Resized(Vocab);
  fill(Resized, 7, 2);
  ASSERT_NE(Resized.numNodes(), S.numNodes());
  Resized = S;
  Structure SameSize(Vocab);
  SameSize.resizeNodes(S.numNodes());
  SameSize = S;

  // Mutate and re-blur the source.
  fill(S, 99, 5);
  S.blur(Vocab);
  S.addNode();
  ASSERT_NE(S.canonicalStr(Vocab), Before);
  ExpectSame(Copied, "copy-constructed");
  ExpectSame(Resized, "copy-assigned, resized");
  ExpectSame(SameSize, "copy-assigned, same size");

  // Destroy the source of a copy.
  auto Doomed = std::make_unique<Structure>(Copied);
  Structure FromDoomed(*Doomed);
  Doomed.reset();
  ExpectSame(FromDoomed, "copy of a destroyed source");

  // Move construction and move assignment hand the words over.
  Structure Moved(std::move(Copied));
  Structure MoveAssigned(Vocab);
  fill(MoveAssigned, 5, 3);
  MoveAssigned = std::move(Resized);
  ExpectSame(Moved, "move-constructed");
  ExpectSame(MoveAssigned, "move-assigned");
  const Structure Empty(Vocab);
  for (Structure *From : {&Copied, &Resized}) {
    EXPECT_EQ(From->numNodes(), 0u);
    EXPECT_TRUE(*From == Empty);
    EXPECT_EQ(From->structuralHash(), Empty.structuralHash());
    // Reusable: refilling a moved-from structure leaves the moved-to
    // one untouched.
    fill(*From, 42, 4);
    From->blur(Vocab);
    EXPECT_EQ(From->canonicalStr(Vocab), Before);
    From->addNode();
  }
  ExpectSame(Moved, "move-constructed, after source reuse");
  ExpectSame(MoveAssigned, "move-assigned, after source reuse");
}

} // namespace
