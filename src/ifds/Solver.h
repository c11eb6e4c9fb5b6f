//===----------------------------------------------------------------------===//
///
/// \file
/// Exploded-supergraph tabulation in the functional (summary-based)
/// style of Sharir & Pnueli as specialized by IFDS: path edges
/// ⟨(sp, d1) → (n, d2)⟩ record that fact d2 holds at node n of a
/// procedure whenever fact d1 holds at its entry; procedure summaries
/// are path edges ending at the exit node, applied at every call site
/// of the procedure.
///
/// The solver tabulates *every* entry fact of every called procedure
/// (the functional approach: summaries are total relations over entry
/// facts), because conservative problems may consult a summary entry
/// fact at a call site unconditionally even when no caller can feed it
/// — see Problem::flowSummary. Which entry facts are actually feedable
/// is tracked separately: flowCall defines the *genuine* feeding
/// relation, and a post-solve fixpoint marks (procedure, entry fact)
/// pairs reachable through genuine feeds from the program entry.
/// Verdict queries (reached) consult genuine path edges only; summary
/// application during the solve is uniform.
///
/// Every path edge carries a shortest-distance and a justification
/// (predecessor path edge, CFG edge, and for summary steps the callee
/// summary path edge), so a shortest interprocedurally-valid witness
/// path can be reconstructed for any reached exploded node — see
/// ifds/Witness.h.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_IFDS_SOLVER_H
#define CANVAS_IFDS_SOLVER_H

#include "ifds/PathEdgeIndex.h"
#include "ifds/Problem.h"
#include "support/Budget.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

namespace canvas {
namespace ifds {

class Solver {
public:
  /// How a path edge was last (best) derived — the predecessor link of
  /// witness reconstruction.
  enum class Via : uint8_t {
    Seed,         ///< ⟨(sp,d)→(sp,d)⟩, distance 0.
    Normal,       ///< Prev + one non-call CFG edge (flowNormal).
    CallToReturn, ///< Prev + one call edge, bypassing the callee.
    Summary,      ///< Prev at the call node + a callee summary
                  ///< (CalleePathEdge), crossing call and return.
  };

  struct PathEdge {
    int Proc = -1;
    int EntryFact = -1; ///< d1 at the procedure entry.
    int Node = -1;
    int Fact = -1;      ///< d2 at Node.
    /// Length of the shortest known same-level realization: CFG edges
    /// traversed, counting a summarized call as (2 + callee distance)
    /// for the call and return crossings.
    long Dist = 0;
    Via How = Via::Seed;
    /// On the worklist now. Sits in the padding after How, so the
    /// flag costs no space.
    bool Queued = false;
    int Prev = -1;           ///< Predecessor path edge id, -1 for seeds.
    int CFGEdge = -1;        ///< CFG edge justifying the last step.
    int CalleePathEdge = -1; ///< Callee summary edge for Via::Summary.
  };

  /// One genuine feed of a callee entry fact: the caller path edge
  /// whose fact at the call node seeded it (per Problem::flowCall),
  /// and the call edge.
  struct FactFeed {
    int CallerPathEdge = -1;
    int CFGEdge = -1;
  };

  struct Stats {
    size_t ExplodedNodes = 0; ///< Distinct (proc, node, fact) reached.
    size_t PathEdges = 0;
    size_t Summaries = 0;     ///< Distinct summary (entry, exit) pairs.
    unsigned Visits = 0;      ///< Worklist pops.
  };

  /// Throws CertifyError(InternalInvariant) when the problem is too
  /// large for the packed path-edge key (see ifds/PathEdgeIndex.h).
  explicit Solver(const Problem &Prob);

  /// Runs the tabulation to fixpoint. \p Cancel, when given, is ticked
  /// once per worklist pop and informed of the path-edge population
  /// (cooperative budget enforcement; see support/Budget.h).
  void solve(support::CancelToken *Cancel = nullptr);

  /// True when some genuine path edge reaches (P, Node, Fact) — i.e.
  /// fact holds at the node along some call/return-matched path from
  /// the program entry.
  bool reached(int P, int Node, int Fact) const;

  /// True when the entry fact (P, Fact) is genuinely feedable from the
  /// program entry (the EntryMay1 relation of the functional engine).
  bool genuineEntry(int P, int Fact) const;

  const Problem &problem() const { return Prob; }
  const std::vector<PathEdge> &pathEdges() const { return Edges; }
  /// Genuine feeds of callee entry fact (P, Fact); empty when none.
  const std::vector<FactFeed> &feedsOf(int P, int Fact) const;
  /// Path edge id for (P, EntryFact, Node, Fact), or -1.
  int findPathEdge(int P, int EntryFact, int Node, int Fact) const {
    return Index.find(P, EntryFact, Node, Fact);
  }
  /// Dense index of (procedure, fact) in [0, totalFacts()).
  size_t factIndex(int P, int Fact) const { return Index.factIndex(P, Fact); }
  size_t totalFacts() const { return Index.totalFacts(); }
  const Stats &stats() const { return St; }

private:
  struct ProcState {
    std::vector<int> Rpo; ///< Node -> priority.
    /// Out-edges of node N, in edge order, are
    /// OutList[OutBegin[N] .. OutBegin[N + 1]).
    std::vector<int> OutBegin;
    std::vector<int> OutList;
    bool Activated = false;
    /// Summary path edges, keyed (entry fact, exit fact) -> id.
    std::map<std::pair<int, int>, int> Summaries;
    /// Caller path edges parked at call edges into this procedure.
    std::vector<std::pair<int, int>> Callers; ///< (path edge, CFG edge).
    std::unordered_set<uint64_t> CallersSeen; ///< Packed (edge, CFG edge).
    /// Genuine feeds per entry fact.
    std::vector<std::vector<FactFeed>> Feeds;
    std::vector<std::unordered_set<uint64_t>> FeedsSeen;
  };

  void activate(int P);
  int propagate(int P, int EntryFact, int Node, int Fact, long Dist, Via How,
                int Prev, int CFGEdge, int CalleePathEdge);
  void process(int Id);
  void applySummary(int CallerPE, int CFGEdge, int SummaryPE);
  void computeGenuine();

  static uint64_t packPair(int A, int B) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(A)) << 32) |
           static_cast<uint32_t>(B);
  }

  const Problem &Prob;
  /// (Proc, EntryFact, Node, Fact) -> path edge id. Built first: its
  /// key-overflow check runs before anything is sized by the problem.
  PathEdgeIndex Index;
  std::vector<ProcState> Procs;
  std::vector<PathEdge> Edges;
  /// Min-heap of (RPO priority, id): processes nodes in roughly
  /// topological order, converging in few passes on reducible CFGs. An
  /// edge is pushed only while PathEdge::Queued is clear, and its
  /// priority never changes, so the heap holds no duplicates and each
  /// pop takes the least queued (priority, id), as from an ordered set.
  std::priority_queue<std::pair<long, int>, std::vector<std::pair<long, int>>,
                      std::greater<>>
      Worklist;
  /// Flow-function output buffer, reused across calls (no flow call
  /// nests inside another's output loop).
  std::vector<int> FlowOut;
  /// Genuine (proc, entry fact) pairs by factIndex, post-solve.
  std::vector<char> Genuine;
  /// Genuine reachability of (Node, Fact) per procedure, one bit per
  /// exploded node at index Node * numFacts + Fact.
  std::vector<std::vector<uint64_t>> ReachedG;
  Stats St;
  bool Solved = false;
};

} // namespace ifds
} // namespace canvas

#endif // CANVAS_IFDS_SOLVER_H
