//===----------------------------------------------------------------------===//
///
/// \file
/// The possible-value domain of the boolean-program engines: a
/// variable's value set is a subset of {0,1} (2 bits), and a program
/// point's abstract state is one value set per variable.
///
/// StateVec packs a whole state into 2-bit lanes of 64-bit words
/// (32 variables per word) so the O(E * B^2) fixpoints join and
/// compare states word-parallel instead of per-variable, and states of
/// up to 64 variables — almost every slice — need no heap allocation
/// at all (see DESIGN.md "Flat-structure memory architecture").
/// The lane encoding is the ValueSet bit pattern itself (bit 0 = "may
/// be 0", bit 1 = "may be 1"), so the lattice join is bitwise OR.
/// Lanes past the last variable are kept zero, which makes whole-word
/// equality exact.
///
/// A default-constructed (or zero-variable) StateVec is *disengaged*
/// and marks an unreachable program point — the packed equivalent of
/// the empty per-node vector the engines used before.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_BOOLPROG_STATEVEC_H
#define CANVAS_BOOLPROG_STATEVEC_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace canvas {
namespace bp {

/// A subset of {0,1}: bit 0 = "may be 0", bit 1 = "may be 1".
enum class ValueSet : uint8_t { Bottom = 0, Zero = 1, One = 2, Both = 3 };

inline ValueSet vsJoin(ValueSet A, ValueSet B) {
  return static_cast<ValueSet>(static_cast<uint8_t>(A) |
                               static_cast<uint8_t>(B));
}
inline bool canBeOne(ValueSet V) {
  return static_cast<uint8_t>(V) & static_cast<uint8_t>(ValueSet::One);
}
inline bool canBeZero(ValueSet V) {
  return static_cast<uint8_t>(V) & static_cast<uint8_t>(ValueSet::Zero);
}
inline const char *vsStr(ValueSet V) {
  switch (V) {
  case ValueSet::Bottom:
    return "{}";
  case ValueSet::Zero:
    return "{0}";
  case ValueSet::One:
    return "{1}";
  case ValueSet::Both:
    return "{0,1}";
  }
  return "?";
}

/// One abstract state: a ValueSet per boolean variable, packed 32
/// variables per 64-bit word. See the file comment for the engaged /
/// disengaged convention and the tail-lane invariant.
class StateVec {
public:
  StateVec() = default;
  StateVec(unsigned NumVars, ValueSet Fill) : NV(NumVars) {
    const unsigned W = numWords();
    uint64_t *P = ensure(W);
    const uint64_t Pat = 0x5555555555555555ull * static_cast<uint8_t>(Fill);
    for (unsigned I = 0; I != W; ++I)
      P[I] = Pat;
    maskTail();
  }

  StateVec(const StateVec &O) : NV(O.NV) {
    const unsigned W = numWords();
    std::memcpy(ensure(W), O.wordsPtr(), W * sizeof(uint64_t));
  }
  StateVec(StateVec &&O) noexcept : NV(O.NV), Heap(std::move(O.Heap)) {
    Buf[0] = O.Buf[0];
    Buf[1] = O.Buf[1];
    O.NV = 0;
  }
  StateVec &operator=(const StateVec &O) {
    if (this == &O)
      return *this;
    NV = O.NV;
    const unsigned W = numWords();
    std::memcpy(ensure(W), O.wordsPtr(), W * sizeof(uint64_t));
    return *this;
  }
  StateVec &operator=(StateVec &&O) noexcept {
    NV = O.NV;
    Heap = std::move(O.Heap);
    Buf[0] = O.Buf[0];
    Buf[1] = O.Buf[1];
    O.NV = 0;
    return *this;
  }

  /// False marks an unreachable program point (no state at all).
  bool engaged() const { return NV != 0; }
  unsigned size() const { return NV; }

  ValueSet get(unsigned V) const {
    assert(V < NV);
    return static_cast<ValueSet>(
        (wordsPtr()[V >> 5] >> ((V & 31) * 2)) & 3u);
  }
  void set(unsigned V, ValueSet Val) {
    assert(V < NV);
    uint64_t &W = wordsPtr()[V >> 5];
    const unsigned Shift = (V & 31) * 2;
    W = (W & ~(3ull << Shift)) |
        (static_cast<uint64_t>(static_cast<uint8_t>(Val)) << Shift);
  }

  /// Word-parallel lattice join (lane-wise OR). Returns true when
  /// *this changed. Both sides must be engaged over the same variables.
  bool joinWith(const StateVec &O) {
    assert(NV == O.NV);
    uint64_t *P = wordsPtr();
    const uint64_t *Q = O.wordsPtr();
    uint64_t Diff = 0;
    for (unsigned I = 0, W = numWords(); I != W; ++I) {
      const uint64_t J = P[I] | Q[I];
      Diff |= J ^ P[I];
      P[I] = J;
    }
    return Diff != 0;
  }

  bool operator==(const StateVec &O) const {
    if (NV != O.NV)
      return false;
    return std::memcmp(wordsPtr(), O.wordsPtr(),
                       numWords() * sizeof(uint64_t)) == 0;
  }
  bool operator!=(const StateVec &O) const { return !(*this == O); }

  /// Boundary conversions for the unpacked std::vector<ValueSet> API.
  static StateVec pack(const std::vector<ValueSet> &V) {
    StateVec S(static_cast<unsigned>(V.size()), ValueSet::Bottom);
    for (unsigned I = 0; I != V.size(); ++I)
      S.set(I, V[I]);
    return S;
  }
  std::vector<ValueSet> unpack() const {
    std::vector<ValueSet> V(NV);
    for (unsigned I = 0; I != NV; ++I)
      V[I] = get(I);
    return V;
  }

private:
  static constexpr unsigned kInlineWords = 2; ///< 64 variables inline.

  unsigned numWords() const { return (NV + 31) / 32; }
  const uint64_t *wordsPtr() const { return Heap ? Heap.get() : Buf; }
  uint64_t *wordsPtr() { return Heap ? Heap.get() : Buf; }

  /// Points the state at a buffer of \p W words (heap only past the
  /// inline capacity); contents unspecified.
  uint64_t *ensure(unsigned W) {
    if (W <= kInlineWords) {
      Heap.reset();
      return Buf;
    }
    Heap = std::make_unique<uint64_t[]>(W);
    return Heap.get();
  }
  /// Zeroes the lanes past the last variable (the equality invariant).
  void maskTail() {
    if (NV & 31)
      wordsPtr()[numWords() - 1] &= (1ull << ((NV & 31) * 2)) - 1;
  }

  unsigned NV = 0;
  uint64_t Buf[kInlineWords] = {0, 0};
  std::unique_ptr<uint64_t[]> Heap; ///< Engaged when numWords() > 2.
};

} // namespace bp
} // namespace canvas

#endif // CANVAS_BOOLPROG_STATEVEC_H
