//===----------------------------------------------------------------------===//
///
/// \file
/// The Stage-0 client pre-analysis: the cheapest stage of the staged
/// certification pipeline (Section 1.3), run after CFG construction and
/// before any engine. Per client method it
///
///   1. prunes edges unreachable from the entry (pass 4),
///   2. lints possibly-uninitialized component uses (pass 1),
///   3. eliminates dead component stores and drops component locals
///      that never reach a component call, shrinking B (pass 2),
///   4. partitions the surviving locals into copy/alias-connected
///      slices for per-slice SCMP certification (pass 3).
///
/// All transformations are verdict-preserving for the intraprocedural
/// SCMP engine: the requires checks of pruned calls are re-synthesized
/// with outcome "unreachable", and slicing falls back to the unsliced
/// run when a definite violation could truncate paths (see
/// bp::analyzeIntraprocSliced and DESIGN.md "Stage 0 pre-analysis").
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_DATAFLOW_PREANALYSIS_H
#define CANVAS_DATAFLOW_PREANALYSIS_H

#include "dataflow/DefiniteAssignment.h"
#include "dataflow/Liveness.h"
#include "dataflow/Slicing.h"
#include "wp/Abstraction.h"

#include <string>
#include <vector>

namespace canvas {
namespace dataflow {

struct PointsToResult;

struct PreAnalysisOptions {
  bool EliminateDeadStores = true;
  bool Slice = true;
  /// Optional budget handle bounding the Stage-0 fixpoints (not owned).
  support::CancelToken *Cancel = nullptr;
  /// Optional whole-program points-to result (not owned). When set,
  /// slicing uses its per-method may-interfere groups instead of the
  /// syntactic heap/havoc gates — see dataflow/PointsTo.h.
  const PointsToResult *PointsTo = nullptr;
};

/// A requires obligation that sat on a pruned (entry-unreachable) edge.
/// Its verdict is "unreachable" by construction; the text matches what
/// the unpruned boolean program would have reported.
struct DroppedCheck {
  int OrigEdge = -1;
  SourceLoc Loc;
  std::string What;
};

/// The Stage-0 result for one client method.
struct MethodPlan {
  const cj::CFGMethod *Source = nullptr;
  /// Pruned, dead-store-eliminated working copy. Node ids and CompVars
  /// are preserved; only the edge list and dead actions change.
  cj::CFGMethod CFG;
  /// Per surviving edge, its index in Source->Edges.
  std::vector<int> OrigEdgeIndex;
  std::vector<DroppedCheck> DroppedChecks;
  /// Component locals still relevant to certification, declaration
  /// order. The boolean program is instantiated over these only.
  std::vector<std::string> Retained;
  /// Partition of Retained (at least one slice when nonempty).
  std::vector<std::vector<std::string>> Slices;
  const char *ForcedSingleReason = nullptr;

  unsigned EdgesPruned = 0;
  unsigned NodesUnreachable = 0;
  unsigned DeadStoresRemoved = 0;
  unsigned VarsDropped = 0;
};

struct PreAnalysisResult {
  /// Indexed like the ClientCFG's method list.
  std::vector<MethodPlan> Plans;
  /// Lint findings across all methods, method order then edge order.
  std::vector<UninitUse> Findings;
  /// Methods attributed per finding (parallel to Findings).
  std::vector<std::string> FindingMethods;

  unsigned totalEdgesPruned() const;
  unsigned totalDeadStores() const;
  unsigned totalVarsDropped() const;
};

/// True when any update rule of \p Abs reads a predicate over "ret" in
/// the pre-call state; such abstractions keep unused call results
/// retained and disable slicing (no built-in spec triggers this).
bool abstractionReadsRetSources(const wp::DerivedAbstraction &Abs);

/// Runs Stage 0 on one method / a whole client.
MethodPlan preAnalyzeMethod(const cj::CFGMethod &M,
                            const wp::DerivedAbstraction &Abs,
                            const PreAnalysisOptions &Opts,
                            std::vector<UninitUse> *Findings);
PreAnalysisResult preAnalyze(const cj::ClientCFG &CFG,
                             const wp::DerivedAbstraction &Abs,
                             const PreAnalysisOptions &Opts = {});

} // namespace dataflow
} // namespace canvas

#endif // CANVAS_DATAFLOW_PREANALYSIS_H
