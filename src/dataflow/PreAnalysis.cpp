#include "dataflow/PreAnalysis.h"

#include "dataflow/PointsTo.h"

#include <map>

using namespace canvas;
using namespace canvas::dataflow;

unsigned PreAnalysisResult::totalEdgesPruned() const {
  unsigned N = 0;
  for (const MethodPlan &P : Plans)
    N += P.EdgesPruned;
  return N;
}

unsigned PreAnalysisResult::totalDeadStores() const {
  unsigned N = 0;
  for (const MethodPlan &P : Plans)
    N += P.DeadStoresRemoved;
  return N;
}

unsigned PreAnalysisResult::totalVarsDropped() const {
  unsigned N = 0;
  for (const MethodPlan &P : Plans)
    N += P.VarsDropped;
  return N;
}

bool dataflow::abstractionReadsRetSources(const wp::DerivedAbstraction &Abs) {
  for (const wp::MethodAbstraction &M : Abs.Methods)
    for (const wp::UpdateRule &R : M.Rules)
      for (const wp::PredApp &Src : R.Sources)
        for (const std::string &Arg : Src.Args)
          if (Arg == "ret")
            return true;
  return false;
}

namespace {

/// Re-synthesizes the requires obligations of a pruned call edge with
/// the exact text the unpruned boolean program would have produced
/// (bp::buildBooleanProgram keeps the pre-instantiation text for every
/// obligation; only the "(unknown operand)" suffix depends on the
/// operand binding).
void synthesizeDroppedChecks(const cj::Action &A, int OrigEdge,
                             const cj::CFGMethod &M,
                             const wp::DerivedAbstraction &Abs,
                             std::vector<DroppedCheck> &Out) {
  if (A.K != cj::Action::Kind::CompCall &&
      A.K != cj::Action::Kind::AllocComp)
    return;

  const wp::MethodAbstraction *MA = nullptr;
  if (A.K == cj::Action::Kind::AllocComp) {
    MA = Abs.findMethod(A.Callee, "new");
  } else {
    for (const auto &[Name, Type] : M.CompVars)
      if (Name == A.Recv) {
        MA = Abs.findMethod(Type, A.Callee);
        break;
      }
  }
  if (!MA)
    return;

  std::map<std::string, std::string> Binding;
  if (MA->HasThis)
    Binding["this"] = A.Recv;
  for (size_t I = 0; I != MA->Params.size() && I != A.Args.size(); ++I)
    Binding[MA->Params[I].first] = A.Args[I];
  if (!A.Lhs.empty())
    Binding["ret"] = A.Lhs;

  for (const auto &[App, ReqLoc] : MA->RequiresFalse) {
    (void)ReqLoc;
    DroppedCheck C;
    C.OrigEdge = OrigEdge;
    C.Loc = A.Loc;
    C.What = A.str() + " requires !" + App.str(Abs.Families);
    for (const std::string &Arg : App.Args) {
      auto It = Binding.find(Arg);
      if (It == Binding.end() || It->second.empty()) {
        C.What += " (unknown operand)";
        break;
      }
    }
    Out.push_back(std::move(C));
  }
}

} // namespace

MethodPlan dataflow::preAnalyzeMethod(const cj::CFGMethod &M,
                                      const wp::DerivedAbstraction &Abs,
                                      const PreAnalysisOptions &Opts,
                                      std::vector<UninitUse> *Findings) {
  MethodPlan Plan;
  Plan.Source = &M;
  Plan.CFG = M;

  PruneStats PS = pruneUnreachableEdges(Plan.CFG, Plan.OrigEdgeIndex);
  Plan.EdgesPruned = PS.EdgesRemoved;
  Plan.NodesUnreachable = PS.NodesUnreachable;
  if (PS.EdgesRemoved) {
    // Synthesize the obligations of the edges we dropped.
    std::vector<bool> Kept(M.Edges.size(), false);
    for (int E : Plan.OrigEdgeIndex)
      Kept[E] = true;
    for (size_t E = 0; E != M.Edges.size(); ++E)
      if (!Kept[E])
        synthesizeDroppedChecks(M.Edges[E].Act, static_cast<int>(E), M, Abs,
                                Plan.DroppedChecks);
  }

  CFGInfo Info(Plan.CFG);

  DefiniteAssignmentResult DA =
      analyzeDefiniteAssignment(Plan.CFG, Info, &Abs, Opts.Cancel);
  const bool HasUninitUses = !DA.clean();
  if (Findings)
    for (UninitUse &U : DA.Uses)
      Findings->push_back(std::move(U));

  bool RetSources = abstractionReadsRetSources(Abs);
  if (Opts.EliminateDeadStores) {
    LivenessResult Live = analyzeLiveness(Plan.CFG, Info, false, Opts.Cancel);
    DeadStoreStats DS =
        eliminateDeadStores(Plan.CFG, Live, RetSources, Plan.Retained);
    Plan.DeadStoresRemoved = DS.StoresRemoved;
    Plan.VarsDropped = DS.VarsDropped;
  } else {
    for (const auto &[Name, Type] : Plan.CFG.CompVars) {
      (void)Type;
      Plan.Retained.push_back(Name);
    }
  }

  if (Opts.Slice) {
    const MethodAliasInfo *Alias =
        Opts.PointsTo ? Opts.PointsTo->aliasFor(M.name()) : nullptr;
    SliceResult SR = computeSlices(Plan.CFG, Plan.Retained, HasUninitUses,
                                   RetSources, Alias);
    Plan.Slices = std::move(SR.Slices);
    Plan.ForcedSingleReason = SR.ForcedSingleReason;
  } else if (!Plan.Retained.empty()) {
    Plan.Slices.assign(1, Plan.Retained);
  }
  return Plan;
}

PreAnalysisResult dataflow::preAnalyze(const cj::ClientCFG &CFG,
                                       const wp::DerivedAbstraction &Abs,
                                       const PreAnalysisOptions &Opts) {
  PreAnalysisResult R;
  R.Plans.reserve(CFG.Methods.size());
  for (const cj::CFGMethod &M : CFG.Methods) {
    size_t Before = R.Findings.size();
    R.Plans.push_back(preAnalyzeMethod(M, Abs, Opts, &R.Findings));
    for (size_t I = Before; I != R.Findings.size(); ++I)
      R.FindingMethods.push_back(M.name());
  }
  return R;
}
