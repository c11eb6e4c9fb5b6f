#include "boolprog/Witness.h"

#include "ifds/Solver.h"

using namespace canvas;
using namespace canvas::bp;

std::vector<EdgeFlow> bp::computeEdgeFlows(const BooleanProgram &BP) {
  size_t NVars = BP.Vars.size();
  std::vector<EdgeFlow> Flows(BP.EdgeAssignments.size());
  for (size_t E = 0; E != BP.EdgeAssignments.size(); ++E) {
    EdgeFlow &F = Flows[E];
    F.Assigned.assign(NVars, 0);
    F.VarToTargets.resize(NVars);
    for (const auto &[Tgt, Rhs] : BP.EdgeAssignments[E]) {
      F.Assigned[Tgt] = 1;
      switch (Rhs.K) {
      case BoolRhs::Kind::Const:
        if (Rhs.PlusOne)
          F.GenFromLambda.push_back(Tgt);
        break;
      case BoolRhs::Kind::Unknown:
        F.GenFromLambda.push_back(Tgt);
        break;
      case BoolRhs::Kind::Or:
        if (Rhs.PlusOne)
          F.GenFromLambda.push_back(Tgt);
        for (int S : Rhs.Sources)
          F.VarToTargets[S].push_back(Tgt);
        break;
      }
    }
  }
  return Flows;
}

void bp::applyEdgeFlow(const EdgeFlow &Flow, int Fact,
                       const std::vector<char> *Kills,
                       std::vector<int> &Out) {
  if (Fact == ifds::LambdaFact) {
    Out.push_back(ifds::LambdaFact);
    for (int T : Flow.GenFromLambda)
      Out.push_back(1 + T);
    return;
  }
  int V = Fact - 1;
  if (Kills && (*Kills)[V])
    return; // Refined to 0: the fact dies, and feeds nothing.
  if (!Flow.Assigned[V])
    Out.push_back(Fact);
  for (int T : Flow.VarToTargets[V])
    Out.push_back(1 + T);
}

core::WitnessTrace
bp::renderTrace(const std::vector<ifds::TraceStep> &Steps,
                const std::vector<TraceRenderProc> &Procs, int EntryProc,
                int SeedFact) {
  core::WitnessTrace T;
  if (SeedFact != ifds::LambdaFact)
    T.SeedFact = Procs[EntryProc].BP->Vars[SeedFact - 1].Name;
  auto FactName = [&](int Proc, int Fact) -> std::string {
    if (Fact == ifds::LambdaFact)
      return "";
    return Procs[Proc].BP->Vars[Fact - 1].Name;
  };
  for (const ifds::TraceStep &S : Steps) {
    const TraceRenderProc &P = Procs[S.Proc];
    const cj::CFGEdge &E = P.M->Edges[S.CFGEdge];
    core::WitnessStep W;
    W.Method = P.M->name();
    W.Edge = S.CFGEdge;
    W.Loc = E.Act.Loc;
    W.ActionText = E.Act.str();
    switch (S.K) {
    case ifds::TraceStep::Kind::Step:
      W.K = core::WitnessStep::Kind::Step;
      W.Fact = FactName(S.Proc, S.Fact);
      break;
    case ifds::TraceStep::Kind::Call:
      W.K = core::WitnessStep::Kind::Call;
      W.Fact = FactName(S.Callee, S.Fact);
      break;
    case ifds::TraceStep::Kind::Return:
      W.K = core::WitnessStep::Kind::Return;
      W.Fact = FactName(S.Proc, S.Fact);
      break;
    }
    T.Steps.push_back(std::move(W));
  }
  return T;
}

core::WitnessStep bp::renderCheckStep(const cj::CFGMethod &M,
                                      const BooleanProgram &BP,
                                      const Check &C) {
  core::WitnessStep W;
  W.K = core::WitnessStep::Kind::Check;
  W.Method = M.name();
  W.Edge = C.Edge;
  W.Loc = C.Loc;
  W.ActionText = C.What;
  if (C.Var >= 0)
    W.Fact = BP.Vars[C.Var].Name;
  return W;
}

//===----------------------------------------------------------------------===//
// IntraWitnessEngine
//===----------------------------------------------------------------------===//

namespace {

/// The single-procedure exploded problem of one boolean program, with
/// requires-check kills (AssumeChecksPass): crossing a checked call
/// refines the checked variable to 0.
class IntraProblem : public ifds::Problem {
public:
  explicit IntraProblem(const BooleanProgram &BP) : BP(BP) {
    const cj::CFGMethod &M = *BP.CFG;
    View.Entry = M.Entry;
    View.Exit = M.Exit;
    View.NumNodes = M.NumNodes;
    for (const cj::CFGEdge &E : M.Edges)
      View.Edges.push_back({E.From, E.To, -1});
    Flows = computeEdgeFlows(BP);
    Kills.assign(M.Edges.size(), {});
    for (const Check &C : BP.Checks)
      if (C.Var >= 0) {
        if (Kills[C.Edge].empty())
          Kills[C.Edge].assign(BP.Vars.size(), 0);
        Kills[C.Edge][C.Var] = 1;
      }
  }

  int numProcs() const override { return 1; }
  const ifds::ProcView &proc(int) const override { return View; }
  int entryProc() const override { return 0; }
  int numFacts(int) const override {
    return 1 + static_cast<int>(BP.Vars.size());
  }

  void initialFacts(std::vector<int> &Out) const override {
    // Component variables are unconstrained at method entry: every
    // fact may be 1.
    for (int F = 0; F != numFacts(0); ++F)
      Out.push_back(F);
  }

  void flowNormal(int, int Edge, int Fact,
                  std::vector<int> &Out) const override {
    applyEdgeFlow(Flows[Edge], Fact,
                  Kills[Edge].empty() ? nullptr : &Kills[Edge], Out);
  }

  // No call edges in a single-procedure view.
  void flowCall(int, int, int, std::vector<int> &) const override {}
  void flowCallToReturn(int, int, int, std::vector<int> &) const override {}
  void flowSummary(int, int, int, int, int,
                   std::vector<int> &) const override {}

private:
  const BooleanProgram &BP;
  ifds::ProcView View;
  std::vector<EdgeFlow> Flows;
  std::vector<std::vector<char>> Kills;
};

} // namespace

struct IntraWitnessEngine::Impl {
  explicit Impl(const BooleanProgram &BP)
      : BP(BP), Prob(BP), Solve(Prob), Build(nullptr) {
    Solve.solve();
    Build = std::make_unique<ifds::WitnessBuilder>(Solve);
  }

  const BooleanProgram &BP;
  IntraProblem Prob;
  ifds::Solver Solve;
  std::unique_ptr<ifds::WitnessBuilder> Build;
};

IntraWitnessEngine::IntraWitnessEngine(const BooleanProgram &BP)
    : I(std::make_unique<Impl>(BP)) {}

IntraWitnessEngine::~IntraWitnessEngine() = default;

core::WitnessTrace IntraWitnessEngine::witnessFor(size_t CheckIdx) const {
  const BooleanProgram &BP = I->BP;
  const Check &C = BP.Checks[CheckIdx];
  int From = BP.CFG->Edges[C.Edge].From;
  int Fact = C.Var >= 0 ? 1 + C.Var : ifds::LambdaFact;
  std::vector<ifds::TraceStep> Steps;
  int Seed = ifds::LambdaFact;
  if (!I->Build->reconstruct(0, From, Fact, Steps, Seed))
    return {};
  std::vector<TraceRenderProc> Procs = {{BP.CFG, &BP}};
  core::WitnessTrace T = renderTrace(Steps, Procs, 0, Seed);
  T.Steps.push_back(renderCheckStep(*BP.CFG, BP, C));
  return T;
}

core::CheckRecord bp::checkRecord(const BooleanProgram &BP, size_t CheckIdx,
                                  core::CheckOutcome Outcome,
                                  std::unique_ptr<IntraWitnessEngine> &WE) {
  const Check &C = BP.Checks[CheckIdx];
  core::CheckRecord Rec;
  Rec.Loc = C.Loc;
  Rec.What = C.What;
  Rec.ReqLoc = C.ReqLoc;
  Rec.Outcome = Outcome;
  if (Outcome == core::CheckOutcome::Potential ||
      Outcome == core::CheckOutcome::Definite) {
    if (!WE)
      WE = std::make_unique<IntraWitnessEngine>(BP);
    Rec.Witness = WE->witnessFor(CheckIdx);
  }
  return Rec;
}
