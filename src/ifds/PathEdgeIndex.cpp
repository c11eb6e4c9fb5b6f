#include "ifds/PathEdgeIndex.h"

#include "support/CertifyError.h"

#include <string>

using namespace canvas;
using namespace canvas::ifds;

PathEdgeIndex::PathEdgeIndex(const Problem &Prob) {
  // Both halves must stay below 2^32 - 1: then no key is all-ones,
  // which Empty relies on.
  constexpr uint64_t Half = (1ull << 32) - 1;
  const int N = Prob.numProcs();
  FactBase.reserve(N + 1);
  NumFacts.reserve(N);
  FactBase.push_back(0);
  for (int P = 0; P != N; ++P) {
    const uint64_t NF = static_cast<uint64_t>(Prob.numFacts(P));
    const uint64_t NN = static_cast<uint64_t>(Prob.proc(P).NumNodes);
    if (NN * NF >= Half)
      throw CertifyError(CertifyErrorKind::InternalInvariant,
                         "ifds path-edge key overflow: procedure " +
                             std::to_string(P) + " has " +
                             std::to_string(NN) + " nodes x " +
                             std::to_string(NF) + " facts",
                         "ifds");
    if (FactBase.back() + NF >= Half)
      throw CertifyError(CertifyErrorKind::InternalInvariant,
                         "ifds path-edge key overflow: more than 2^32 - 2 "
                         "facts over all procedures",
                         "ifds");
    NumFacts.push_back(NF);
    FactBase.push_back(FactBase.back() + NF);
  }
}

int PathEdgeIndex::find(int P, int EntryFact, int Node, int Fact) const {
  if (Keys.empty())
    return -1;
  const uint64_t K = key(P, EntryFact, Node, Fact);
  const size_t Mask = Keys.size() - 1;
  for (size_t S = slotOf(K);; S = (S + 1) & Mask) {
    if (Keys[S] == K)
      return Ids[S];
    if (Keys[S] == Empty)
      return -1;
  }
}

std::pair<int, bool> PathEdgeIndex::insert(int P, int EntryFact, int Node,
                                           int Fact, int Id) {
  if ((Count + 1) * 4 > Keys.size() * 3)
    rehash(Keys.empty() ? 16 : Keys.size() * 2);
  const uint64_t K = key(P, EntryFact, Node, Fact);
  const size_t Mask = Keys.size() - 1;
  for (size_t S = slotOf(K);; S = (S + 1) & Mask) {
    if (Keys[S] == K)
      return {Ids[S], false};
    if (Keys[S] == Empty) {
      Keys[S] = K;
      Ids[S] = Id;
      ++Count;
      return {Id, true};
    }
  }
}

void PathEdgeIndex::reserve(size_t N) {
  size_t Capacity = 16;
  while (N * 4 > Capacity * 3)
    Capacity *= 2;
  if (Capacity > Keys.size())
    rehash(Capacity);
}

void PathEdgeIndex::rehash(size_t Capacity) {
  std::vector<uint64_t> OldKeys(Capacity, Empty);
  std::vector<int> OldIds(OldKeys.size(), -1);
  OldKeys.swap(Keys);
  OldIds.swap(Ids);
  const size_t Mask = Keys.size() - 1;
  for (size_t I = 0; I != OldKeys.size(); ++I) {
    if (OldKeys[I] == Empty)
      continue;
    size_t S = slotOf(OldKeys[I]);
    while (Keys[S] != Empty)
      S = (S + 1) & Mask;
    Keys[S] = OldKeys[I];
    Ids[S] = OldIds[I];
  }
}
