//===----------------------------------------------------------------------===//
///
/// \file
/// Witness support for the boolean-program certifiers: the exploded
/// (per-fact) reading of a boolean program's parallel assignments,
/// rendering of IFDS trace steps into the shared core::WitnessTrace
/// vocabulary, and a per-program witness engine for the
/// intraprocedural engines (a single-procedure IFDS tabulation with
/// predecessor recording, run only to extract evidence paths for
/// checks the precise possible-value analysis already flagged).
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_BOOLPROG_WITNESS_H
#define CANVAS_BOOLPROG_WITNESS_H

#include "boolprog/BooleanProgram.h"
#include "core/Verdict.h"
#include "ifds/Witness.h"

#include <memory>
#include <vector>

namespace canvas {
namespace bp {

/// The exploded-edge reading of one edge's parallel assignment, over
/// facts 0 = Lambda, 1+v = "boolean variable v may be 1". Shared by
/// the intraprocedural witness engine and the interprocedural IFDS
/// adapter.
struct EdgeFlow {
  /// Targets t whose assignment may produce 1 regardless of the input
  /// state (constant 1, havoc, or a PlusOne disjunction).
  std::vector<int> GenFromLambda;
  /// Assigned[v]: v is a target of the edge's parallel assignment (so
  /// its old value does not survive by identity).
  std::vector<char> Assigned;
  /// VarToTargets[v]: targets whose disjunction mentions v.
  std::vector<std::vector<int>> VarToTargets;
};

std::vector<EdgeFlow> computeEdgeFlows(const BooleanProgram &BP);

/// Applies \p Flow to input fact \p Fact (with Lambda always
/// surviving); \p Kills marks variables refined to 0 across the edge
/// (requires-check kills; null for the interprocedural reading).
void applyEdgeFlow(const EdgeFlow &Flow, int Fact,
                   const std::vector<char> *Kills, std::vector<int> &Out);

/// Rendering context for one IFDS procedure index.
struct TraceRenderProc {
  const cj::CFGMethod *M = nullptr;   ///< Edge actions and locations.
  const BooleanProgram *BP = nullptr; ///< Fact display names.
};

/// Renders solver trace steps into the shared witness vocabulary.
/// \p SeedFact is the entry fact assumed at \p EntryProc's entry.
core::WitnessTrace renderTrace(const std::vector<ifds::TraceStep> &Steps,
                               const std::vector<TraceRenderProc> &Procs,
                               int EntryProc, int SeedFact);

/// The final Kind::Check step of a witness, from the flagged check.
core::WitnessStep renderCheckStep(const cj::CFGMethod &M,
                                  const BooleanProgram &BP, const Check &C);

/// Witness engine for one (possibly slice-restricted) boolean program:
/// solves the single-procedure exploded reachability once, then
/// reconstructs a shortest evidence path per flagged check. The
/// exploded domain over-approximates the possible-value analysis (the
/// definite-violation path cut of AssumeChecksPass is not
/// distributive), so every check the precise engine flags Potential
/// has a witness here.
class IntraWitnessEngine {
public:
  explicit IntraWitnessEngine(const BooleanProgram &BP);
  ~IntraWitnessEngine();

  /// A shortest witness for check \p CheckIdx, ending with a
  /// Kind::Check step; empty when the check's fact is unreached.
  core::WitnessTrace witnessFor(size_t CheckIdx) const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// The report record of check \p CheckIdx of \p BP with verdict
/// \p Outcome; Method is left for the caller to fill. A flagged verdict
/// (Potential or Definite) carries its witness from \p WE, which is
/// built on first use, so a program with no flagged check never
/// tabulates its exploded supergraph.
core::CheckRecord checkRecord(const BooleanProgram &BP, size_t CheckIdx,
                              core::CheckOutcome Outcome,
                              std::unique_ptr<IntraWitnessEngine> &WE);

} // namespace bp
} // namespace canvas

#endif // CANVAS_BOOLPROG_WITNESS_H
