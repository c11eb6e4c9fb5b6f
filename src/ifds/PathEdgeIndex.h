//===----------------------------------------------------------------------===//
///
/// \file
/// The dense path-edge index shared by the tabulation solver, its
/// witness builder and the certificate checker's IFDS closure sweep.
///
/// A path edge ⟨(sp, d1) → (n, d2)⟩ of procedure P packs into one
/// collision-free 64-bit key:
///
///   (factBase[P] + d1) << 32  |  n · numFacts(P) + d2
///
/// where factBase[P] is the number of facts of all procedures before P,
/// so the high half is a dense (procedure, entry fact) index and the
/// low half a dense exploded node within P. Construction rejects a
/// problem whose halves would not fit (NumNodes × numFacts or the fact
/// total reaching 2^32 − 1) with CertifyError(InternalInvariant) rather
/// than let two edges alias; the all-ones word therefore never occurs
/// as a key and marks empty slots.
///
/// The keys live in one open-addressed, linear-probed table (keys and
/// ids in two parallel arrays, power-of-two capacity, at most 3/4
/// full). It is never iterated, so it cannot perturb processing order.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_IFDS_PATHEDGEINDEX_H
#define CANVAS_IFDS_PATHEDGEINDEX_H

#include "ifds/Problem.h"
#include "support/Interner.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace canvas {
namespace ifds {

class PathEdgeIndex {
public:
  /// Lays out the keys of \p Prob; throws CertifyError(InternalInvariant)
  /// when a key half would overflow 32 bits. Reads only the problem's
  /// dimensions, so the check allocates nothing proportional to them.
  explicit PathEdgeIndex(const Problem &Prob);

  uint64_t key(int P, int EntryFact, int Node, int Fact) const {
    return (static_cast<uint64_t>(FactBase[P] + EntryFact) << 32) |
           (static_cast<uint64_t>(Node) * NumFacts[P] + Fact);
  }

  /// Dense index of (procedure, fact) in [0, totalFacts()).
  size_t factIndex(int P, int Fact) const {
    return static_cast<size_t>(FactBase[P]) + Fact;
  }
  size_t totalFacts() const { return FactBase.back(); }

  /// Id stored under (P, EntryFact, Node, Fact), or -1.
  int find(int P, int EntryFact, int Node, int Fact) const;
  /// Stores \p Id under the key unless one is present. Returns the id
  /// now stored and whether \p Id was inserted.
  std::pair<int, bool> insert(int P, int EntryFact, int Node, int Fact,
                              int Id);
  size_t size() const { return Count; }
  /// Sizes the table for \p N keys without further growth.
  void reserve(size_t N);

private:
  static constexpr uint64_t Empty = ~0ull;

  size_t slotOf(uint64_t Key) const {
    return support::hashMix(Key) & (Keys.size() - 1);
  }
  void rehash(size_t Capacity);

  /// Prefix sums of numFacts; FactBase[numProcs()] is the total.
  std::vector<uint64_t> FactBase;
  std::vector<uint64_t> NumFacts;
  std::vector<uint64_t> Keys;
  std::vector<int> Ids;
  size_t Count = 0;
};

} // namespace ifds
} // namespace canvas

#endif // CANVAS_IFDS_PATHEDGEINDEX_H
