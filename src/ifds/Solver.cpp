#include "ifds/Solver.h"

#include <algorithm>
#include <cassert>

using namespace canvas;
using namespace canvas::ifds;

Problem::~Problem() = default;

namespace {

/// Reverse-postorder numbering from the entry (unreachable nodes get
/// trailing numbers so every node has a priority). Successors are
/// visited in edge order, read from the out-edge lists.
std::vector<int> rpoNumber(const ProcView &P, const std::vector<int> &OutBegin,
                           const std::vector<int> &OutList) {
  std::vector<int> Order;
  Order.reserve(P.NumNodes);
  std::vector<char> Seen(P.NumNodes, 0);
  // Iterative postorder DFS; I walks OutList from OutBegin[N].
  std::vector<std::pair<int, int>> Stack;
  auto Visit = [&](int Root) {
    if (Seen[Root])
      return;
    Seen[Root] = 1;
    Stack.emplace_back(Root, OutBegin[Root]);
    while (!Stack.empty()) {
      auto &[N, I] = Stack.back();
      if (I < OutBegin[N + 1]) {
        int S = P.Edges[OutList[I++]].To;
        if (!Seen[S]) {
          Seen[S] = 1;
          Stack.emplace_back(S, OutBegin[S]);
        }
      } else {
        Order.push_back(N);
        Stack.pop_back();
      }
    }
  };
  Visit(P.Entry);
  for (int N = 0; N != P.NumNodes; ++N)
    Visit(N);
  std::vector<int> Rpo(P.NumNodes, 0);
  for (size_t I = 0; I != Order.size(); ++I)
    Rpo[Order[Order.size() - 1 - I]] = static_cast<int>(I);
  return Rpo;
}

} // namespace

Solver::Solver(const Problem &Prob) : Prob(Prob), Index(Prob) {
  int N = Prob.numProcs();
  Procs.resize(N);
  ReachedG.resize(N);
  Genuine.assign(Index.totalFacts(), 0);
  for (int P = 0; P != N; ++P) {
    const ProcView &V = Prob.proc(P);
    ProcState &PS = Procs[P];
    // Out-edge lists by counting sort on the source node, keeping edge
    // order within each node.
    PS.OutBegin.assign(V.NumNodes + 1, 0);
    for (const ProcView::Edge &E : V.Edges)
      ++PS.OutBegin[E.From + 1];
    for (int Node = 0; Node != V.NumNodes; ++Node)
      PS.OutBegin[Node + 1] += PS.OutBegin[Node];
    PS.OutList.resize(V.Edges.size());
    std::vector<int> Fill(PS.OutBegin.begin(), PS.OutBegin.end() - 1);
    for (size_t E = 0; E != V.Edges.size(); ++E)
      PS.OutList[Fill[V.Edges[E].From]++] = static_cast<int>(E);
    PS.Rpo = rpoNumber(V, PS.OutBegin, PS.OutList);
    PS.Feeds.resize(Prob.numFacts(P));
    PS.FeedsSeen.resize(Prob.numFacts(P));
  }
}

void Solver::activate(int P) {
  ProcState &PS = Procs[P];
  if (PS.Activated)
    return;
  PS.Activated = true;
  // Tabulate every entry fact (see the file comment of Solver.h).
  const ProcView &V = Prob.proc(P);
  for (int D = 0; D != Prob.numFacts(P); ++D)
    propagate(P, D, V.Entry, D, 0, Via::Seed, -1, -1, -1);
}

int Solver::propagate(int P, int EntryFact, int Node, int Fact, long Dist,
                      Via How, int Prev, int CFGEdge, int CalleePathEdge) {
  auto [Id, New] =
      Index.insert(P, EntryFact, Node, Fact, static_cast<int>(Edges.size()));
  long Priority =
      static_cast<long>(P) * 1000000 + Procs[P].Rpo[Node];
  if (New) {
    Edges.push_back({P, EntryFact, Node, Fact, Dist, How, true, Prev, CFGEdge,
                     CalleePathEdge});
    Worklist.emplace(Priority, Id);
    return Id;
  }
  PathEdge &PE = Edges[Id];
  if (Dist < PE.Dist) {
    // A strictly shorter realization: adopt the new justification and
    // reprocess so downstream distances relax too. Distances only
    // decrease, so this terminates.
    PE.Dist = Dist;
    PE.How = How;
    PE.Prev = Prev;
    PE.CFGEdge = CFGEdge;
    PE.CalleePathEdge = CalleePathEdge;
    if (!PE.Queued) {
      PE.Queued = true;
      Worklist.emplace(Priority, Id);
    }
  }
  return Id;
}

void Solver::applySummary(int CallerPE, int CFGEdge, int SummaryPE) {
  const PathEdge Caller = Edges[CallerPE]; // Copy: Edges may reallocate.
  const PathEdge Sum = Edges[SummaryPE];
  FlowOut.clear();
  Prob.flowSummary(Caller.Proc, CFGEdge, Caller.Fact, Sum.EntryFact, Sum.Fact,
                   FlowOut);
  if (FlowOut.empty())
    return;
  int To = Prob.proc(Caller.Proc).Edges[CFGEdge].To;
  long Dist = Caller.Dist + 2 + Sum.Dist;
  for (int F : FlowOut)
    propagate(Caller.Proc, Caller.EntryFact, To, F, Dist, Via::Summary,
              CallerPE, CFGEdge, SummaryPE);
}

void Solver::process(int Id) {
  const PathEdge PE = Edges[Id]; // Copy: Edges may reallocate.
  const ProcView &V = Prob.proc(PE.Proc);
  ProcState &PS = Procs[PE.Proc];

  for (int I = PS.OutBegin[PE.Node]; I != PS.OutBegin[PE.Node + 1]; ++I) {
    const int EIdx = PS.OutList[I];
    const ProcView::Edge &E = V.Edges[EIdx];
    if (E.Callee >= 0) {
      activate(E.Callee);
      ProcState &CS = Procs[E.Callee];
      // Park this caller edge for future summaries.
      if (CS.CallersSeen.insert(packPair(Id, EIdx)).second)
        CS.Callers.emplace_back(Id, EIdx);
      // Record genuine feeds of callee entry facts.
      FlowOut.clear();
      Prob.flowCall(PE.Proc, EIdx, PE.Fact, FlowOut);
      for (int D : FlowOut)
        if (CS.FeedsSeen[D].insert(packPair(Id, EIdx)).second)
          CS.Feeds[D].push_back({Id, EIdx});
      // Apply every summary already tabulated for the callee.
      for (const auto &[Key, SumId] : CS.Summaries) {
        (void)Key;
        applySummary(Id, EIdx, SumId);
      }
      // Facts bypassing the callee.
      FlowOut.clear();
      Prob.flowCallToReturn(PE.Proc, EIdx, PE.Fact, FlowOut);
      for (int F : FlowOut)
        propagate(PE.Proc, PE.EntryFact, E.To, F, PE.Dist + 1,
                  Via::CallToReturn, Id, EIdx, -1);
    } else {
      FlowOut.clear();
      Prob.flowNormal(PE.Proc, EIdx, PE.Fact, FlowOut);
      for (int F : FlowOut)
        propagate(PE.Proc, PE.EntryFact, E.To, F, PE.Dist + 1, Via::Normal,
                  Id, EIdx, -1);
    }
  }

  if (PE.Node == V.Exit) {
    // A summary edge ⟨(sp, d1) → (exit, d2)⟩: register and apply at
    // every known call site. Reprocessing after a distance improvement
    // re-applies with the better distance.
    PS.Summaries.emplace(std::make_pair(PE.EntryFact, PE.Fact), Id);
    // Callers may grow while iterating (applySummary -> propagate only
    // touches other procedures' states, but be safe with indexing).
    for (size_t I = 0; I != PS.Callers.size(); ++I) {
      auto [CallerPE, CFGEdge] = PS.Callers[I];
      applySummary(CallerPE, CFGEdge, Id);
    }
  }
}

void Solver::solve(support::CancelToken *Cancel) {
  if (Solved)
    return;
  Solved = true;

  int Entry = Prob.entryProc();
  Procs[Entry].Activated = true;
  const ProcView &V = Prob.proc(Entry);
  std::vector<int> Init;
  Prob.initialFacts(Init);
  for (int D : Init)
    propagate(Entry, D, V.Entry, D, 0, Via::Seed, -1, -1, -1);

  size_t AccountedEdges = 0;
  while (!Worklist.empty()) {
    support::faultProbe("ifds.solve");
    if (Cancel) {
      Cancel->tick();
      Cancel->noteStructures(Edges.size());
      if (Edges.size() > AccountedEdges) {
        Cancel->addAllocation((Edges.size() - AccountedEdges) *
                              sizeof(PathEdge));
        AccountedEdges = Edges.size();
      }
    }
    int Id = Worklist.top().second;
    Worklist.pop();
    Edges[Id].Queued = false;
    ++St.Visits;
    process(Id);
  }

  computeGenuine();

  St.PathEdges = Edges.size();
  for (const ProcState &PS : Procs)
    St.Summaries += PS.Summaries.size();
  // Distinct exploded nodes, one bit each per procedure.
  std::vector<std::vector<uint64_t>> Seen(Procs.size());
  for (size_t P = 0; P != Procs.size(); ++P)
    Seen[P].assign(ReachedG[P].size(), 0);
  for (const PathEdge &PE : Edges) {
    const size_t Bit =
        static_cast<size_t>(PE.Node) * Prob.numFacts(PE.Proc) + PE.Fact;
    uint64_t &Word = Seen[PE.Proc][Bit >> 6];
    const uint64_t Mask = 1ull << (Bit & 63);
    St.ExplodedNodes += (Word & Mask) == 0;
    Word |= Mask;
  }
}

void Solver::computeGenuine() {
  // Genuine entry facts: the entry procedure's initial facts, plus
  // every callee entry fact fed (per flowCall) by a caller path edge
  // whose own entry fact is genuine. Fixpoint over the feed records.
  std::vector<int> Init;
  Prob.initialFacts(Init);
  for (int D : Init)
    Genuine[factIndex(Prob.entryProc(), D)] = 1;

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int P = 0; P != Prob.numProcs(); ++P)
      for (int D = 0; D != Prob.numFacts(P); ++D) {
        if (Genuine[factIndex(P, D)])
          continue;
        for (const FactFeed &F : Procs[P].Feeds[D]) {
          const PathEdge &Caller = Edges[F.CallerPathEdge];
          if (Genuine[factIndex(Caller.Proc, Caller.EntryFact)]) {
            Genuine[factIndex(P, D)] = 1;
            Changed = true;
            break;
          }
        }
      }
  }

  for (int P = 0; P != Prob.numProcs(); ++P) {
    const size_t Bits =
        static_cast<size_t>(Prob.proc(P).NumNodes) * Prob.numFacts(P);
    ReachedG[P].assign((Bits + 63) / 64, 0);
  }
  for (const PathEdge &PE : Edges)
    if (Genuine[factIndex(PE.Proc, PE.EntryFact)]) {
      const size_t Bit =
          static_cast<size_t>(PE.Node) * Prob.numFacts(PE.Proc) + PE.Fact;
      ReachedG[PE.Proc][Bit >> 6] |= 1ull << (Bit & 63);
    }
}

bool Solver::reached(int P, int Node, int Fact) const {
  if (!Solved)
    throw CertifyError(CertifyErrorKind::InternalInvariant,
                       "ifds solver queried before solve()", "ifds");
  const size_t Bit = static_cast<size_t>(Node) * Prob.numFacts(P) + Fact;
  return (ReachedG[P][Bit >> 6] >> (Bit & 63)) & 1;
}

bool Solver::genuineEntry(int P, int Fact) const {
  return Genuine[factIndex(P, Fact)] != 0;
}

const std::vector<Solver::FactFeed> &Solver::feedsOf(int P, int Fact) const {
  return Procs[P].Feeds[Fact];
}
