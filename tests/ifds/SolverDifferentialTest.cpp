//===----------------------------------------------------------------------===//
// Differential tests for the dense IFDS tabulation core: seeded random
// multi-procedure problems (calls, recursion, opaque calls, unreachable
// procedures, per-procedure fact counts) are solved by ifds::Solver and
// by a reference model kept here — the map/set solver and witness
// builder the packed path-edge index and heap worklist replaced — and
// every observable must agree: the whole path-edge sequence field by
// field, the stats, genuine entries, genuine reachability, path-edge
// lookups, and the reconstructed witness of every reached exploded
// node. Also covers the key-packing overflow guard.
//===----------------------------------------------------------------------===//

#include "ifds/PathEdgeIndex.h"
#include "ifds/Solver.h"
#include "ifds/Witness.h"
#include "support/CertifyError.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <climits>
#include <map>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace canvas;
using namespace canvas::ifds;

namespace {

using PathEdge = Solver::PathEdge;
using Via = Solver::Via;
using FactFeed = Solver::FactFeed;

//===--- Reference model ---------------------------------------------------===//

/// The map/set tabulation solver: an unordered_map path-edge index, a
/// std::set worklist, a fresh vector per flow call, a packed-pair set
/// for genuine entries, and a std::set to count exploded nodes.
class RefSolver {
public:
  explicit RefSolver(const Problem &Prob) : Prob(Prob) {
    int N = Prob.numProcs();
    Procs.resize(N);
    for (int P = 0; P != N; ++P) {
      const ProcView &V = Prob.proc(P);
      ProcState &PS = Procs[P];
      PS.Rpo = rpoNumber(V);
      PS.OutEdges.resize(V.NumNodes);
      for (size_t E = 0; E != V.Edges.size(); ++E)
        PS.OutEdges[V.Edges[E].From].push_back(static_cast<int>(E));
      PS.Feeds.resize(Prob.numFacts(P));
      PS.FeedsSeen.resize(Prob.numFacts(P));
    }
  }

  void solve() {
    int Entry = Prob.entryProc();
    Procs[Entry].Activated = true;
    const ProcView &V = Prob.proc(Entry);
    std::vector<int> Init;
    Prob.initialFacts(Init);
    for (int D : Init)
      propagate(Entry, D, V.Entry, D, 0, Via::Seed, -1, -1, -1);
    while (!Worklist.empty()) {
      int Id = Worklist.begin()->second;
      Worklist.erase(Worklist.begin());
      ++St.Visits;
      process(Id);
    }
    computeGenuine();
    St.PathEdges = Edges.size();
    for (const ProcState &PS : Procs)
      St.Summaries += PS.Summaries.size();
    std::set<std::array<int, 3>> Nodes;
    for (const PathEdge &PE : Edges)
      Nodes.insert({PE.Proc, PE.Node, PE.Fact});
    St.ExplodedNodes = Nodes.size();
  }

  bool reached(int P, int Node, int Fact) const {
    for (const PathEdge &PE : Edges)
      if (PE.Proc == P && PE.Node == Node && PE.Fact == Fact &&
          genuineEntry(P, PE.EntryFact))
        return true;
    return false;
  }
  bool genuineEntry(int P, int Fact) const {
    return Genuine.count(packPair(P, Fact)) != 0;
  }
  const Problem &problem() const { return Prob; }
  const std::vector<PathEdge> &pathEdges() const { return Edges; }
  const std::vector<FactFeed> &feedsOf(int P, int Fact) const {
    return Procs[P].Feeds[Fact];
  }
  int findPathEdge(int P, int EntryFact, int Node, int Fact) const {
    auto It = Index.find({P, EntryFact, Node, Fact});
    return It == Index.end() ? -1 : It->second;
  }
  const Solver::Stats &stats() const { return St; }

private:
  struct ProcState {
    std::vector<int> Rpo;
    std::vector<std::vector<int>> OutEdges;
    bool Activated = false;
    std::map<std::pair<int, int>, int> Summaries;
    std::vector<std::pair<int, int>> Callers;
    std::unordered_set<uint64_t> CallersSeen;
    std::vector<std::vector<FactFeed>> Feeds;
    std::vector<std::unordered_set<uint64_t>> FeedsSeen;
  };
  struct KeyHash {
    size_t operator()(const std::array<int, 4> &K) const {
      return std::hash<uint64_t>()(packPair(K[0], K[1]) * 31 +
                                   packPair(K[2], K[3]));
    }
  };

  static uint64_t packPair(int A, int B) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(A)) << 32) |
           static_cast<uint32_t>(B);
  }

  static std::vector<int> rpoNumber(const ProcView &P) {
    std::vector<std::vector<int>> Succ(P.NumNodes);
    for (const ProcView::Edge &E : P.Edges)
      Succ[E.From].push_back(E.To);
    std::vector<int> Order;
    std::vector<char> Seen(P.NumNodes, 0);
    std::vector<std::pair<int, size_t>> Stack;
    auto Visit = [&](int Root) {
      if (Seen[Root])
        return;
      Seen[Root] = 1;
      Stack.emplace_back(Root, 0);
      while (!Stack.empty()) {
        auto &[N, I] = Stack.back();
        if (I < Succ[N].size()) {
          int S = Succ[N][I++];
          if (!Seen[S]) {
            Seen[S] = 1;
            Stack.emplace_back(S, 0);
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

  void activate(int P) {
    ProcState &PS = Procs[P];
    if (PS.Activated)
      return;
    PS.Activated = true;
    const ProcView &V = Prob.proc(P);
    for (int D = 0; D != Prob.numFacts(P); ++D)
      propagate(P, D, V.Entry, D, 0, Via::Seed, -1, -1, -1);
  }

  int propagate(int P, int EntryFact, int Node, int Fact, long Dist, Via How,
                int Prev, int CFGEdge, int CalleePathEdge) {
    std::array<int, 4> Key = {P, EntryFact, Node, Fact};
    auto [It, New] = Index.emplace(Key, static_cast<int>(Edges.size()));
    long Priority = static_cast<long>(P) * 1000000 + Procs[P].Rpo[Node];
    if (New) {
      PathEdge PE;
      PE.Proc = P;
      PE.EntryFact = EntryFact;
      PE.Node = Node;
      PE.Fact = Fact;
      PE.Dist = Dist;
      PE.How = How;
      PE.Prev = Prev;
      PE.CFGEdge = CFGEdge;
      PE.CalleePathEdge = CalleePathEdge;
      Edges.push_back(PE);
      Worklist.emplace(Priority, It->second);
      return It->second;
    }
    PathEdge &PE = Edges[It->second];
    if (Dist < PE.Dist) {
      PE.Dist = Dist;
      PE.How = How;
      PE.Prev = Prev;
      PE.CFGEdge = CFGEdge;
      PE.CalleePathEdge = CalleePathEdge;
      Worklist.emplace(Priority, It->second);
    }
    return It->second;
  }

  void applySummary(int CallerPE, int CFGEdge, int SummaryPE) {
    const PathEdge Caller = Edges[CallerPE];
    const PathEdge Sum = Edges[SummaryPE];
    std::vector<int> Out;
    Prob.flowSummary(Caller.Proc, CFGEdge, Caller.Fact, Sum.EntryFact,
                     Sum.Fact, Out);
    int To = Prob.proc(Caller.Proc).Edges[CFGEdge].To;
    long Dist = Caller.Dist + 2 + Sum.Dist;
    for (int F : Out)
      propagate(Caller.Proc, Caller.EntryFact, To, F, Dist, Via::Summary,
                CallerPE, CFGEdge, SummaryPE);
  }

  void process(int Id) {
    const PathEdge PE = Edges[Id];
    const ProcView &V = Prob.proc(PE.Proc);
    ProcState &PS = Procs[PE.Proc];
    for (int EIdx : PS.OutEdges[PE.Node]) {
      const ProcView::Edge &E = V.Edges[EIdx];
      if (E.Callee >= 0) {
        activate(E.Callee);
        ProcState &CS = Procs[E.Callee];
        if (CS.CallersSeen.insert(packPair(Id, EIdx)).second)
          CS.Callers.emplace_back(Id, EIdx);
        std::vector<int> Seeded;
        Prob.flowCall(PE.Proc, EIdx, PE.Fact, Seeded);
        for (int D : Seeded)
          if (CS.FeedsSeen[D].insert(packPair(Id, EIdx)).second)
            CS.Feeds[D].push_back({Id, EIdx});
        for (const auto &[Key, SumId] : CS.Summaries) {
          (void)Key;
          applySummary(Id, EIdx, SumId);
        }
        std::vector<int> Out;
        Prob.flowCallToReturn(PE.Proc, EIdx, PE.Fact, Out);
        for (int F : Out)
          propagate(PE.Proc, PE.EntryFact, E.To, F, PE.Dist + 1,
                    Via::CallToReturn, Id, EIdx, -1);
      } else {
        std::vector<int> Out;
        Prob.flowNormal(PE.Proc, EIdx, PE.Fact, Out);
        for (int F : Out)
          propagate(PE.Proc, PE.EntryFact, E.To, F, PE.Dist + 1, Via::Normal,
                    Id, EIdx, -1);
      }
    }
    if (PE.Node == V.Exit) {
      PS.Summaries.emplace(std::make_pair(PE.EntryFact, PE.Fact), Id);
      for (size_t I = 0; I != PS.Callers.size(); ++I) {
        auto [CallerPE, CFGEdge] = PS.Callers[I];
        applySummary(CallerPE, CFGEdge, Id);
      }
    }
  }

  void computeGenuine() {
    std::vector<int> Init;
    Prob.initialFacts(Init);
    for (int D : Init)
      Genuine.insert(packPair(Prob.entryProc(), D));
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (int P = 0; P != Prob.numProcs(); ++P)
        for (int D = 0; D != Prob.numFacts(P); ++D) {
          if (Genuine.count(packPair(P, D)))
            continue;
          for (const FactFeed &F : Procs[P].Feeds[D]) {
            const PathEdge &Caller = Edges[F.CallerPathEdge];
            if (Genuine.count(packPair(Caller.Proc, Caller.EntryFact))) {
              Genuine.insert(packPair(P, D));
              Changed = true;
              break;
            }
          }
        }
    }
  }

  const Problem &Prob;
  std::vector<ProcState> Procs;
  std::vector<PathEdge> Edges;
  std::unordered_map<std::array<int, 4>, int, KeyHash> Index;
  std::set<std::pair<long, int>> Worklist;
  std::unordered_set<uint64_t> Genuine;
  Solver::Stats St;
};

/// The map-keyed witness builder over RefSolver.
class RefWitnessBuilder {
public:
  explicit RefWitnessBuilder(const RefSolver &S) : S(S) {
    const Problem &Prob = S.problem();
    std::vector<int> Init;
    Prob.initialFacts(Init);
    for (int F : Init)
      D[{Prob.entryProc(), F}] = 0;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (int P = 0; P != Prob.numProcs(); ++P)
        for (int F = 0; F != Prob.numFacts(P); ++F) {
          if (!S.genuineEntry(P, F))
            continue;
          for (const FactFeed &Feed : S.feedsOf(P, F)) {
            const PathEdge &Caller = S.pathEdges()[Feed.CallerPathEdge];
            long Base = prefixDist(Caller.Proc, Caller.EntryFact);
            if (Base == Inf)
              continue;
            long Cand = Base + Caller.Dist + 1;
            auto It = D.find({P, F});
            if (It == D.end() || Cand < It->second) {
              D[{P, F}] = Cand;
              Pred[{P, F}] = Feed;
              Changed = true;
            }
          }
        }
    }
  }

  bool reconstruct(int P, int Node, int Fact, std::vector<TraceStep> &Out,
                   int &SeedFactOut) const {
    long Best = Inf;
    int BestPE = -1, BestEntry = -1;
    for (int E = 0; E != S.problem().numFacts(P); ++E) {
      if (!S.genuineEntry(P, E))
        continue;
      long Prefix = prefixDist(P, E);
      if (Prefix == Inf)
        continue;
      int Id = S.findPathEdge(P, E, Node, Fact);
      if (Id < 0)
        continue;
      long Total = Prefix + S.pathEdges()[Id].Dist;
      if (Total < Best) {
        Best = Total;
        BestPE = Id;
        BestEntry = E;
      }
    }
    if (BestPE < 0)
      return false;
    Out.clear();
    SeedFactOut = LambdaFact;
    emitPrefix(P, BestEntry, Out, SeedFactOut);
    emitSameLevel(BestPE, Out);
    return true;
  }

private:
  static constexpr long Inf = 1L << 60;

  long prefixDist(int P, int EntryFact) const {
    auto It = D.find({P, EntryFact});
    return It == D.end() ? Inf : It->second;
  }

  void emitPrefix(int P, int EntryFact, std::vector<TraceStep> &Out,
                  int &SeedFactOut) const {
    if (P == S.problem().entryProc()) {
      auto It = D.find({P, EntryFact});
      if (It != D.end() && It->second == 0) {
        SeedFactOut = EntryFact;
        return;
      }
    }
    const FactFeed &Feed = Pred.at({P, EntryFact});
    const PathEdge &Caller = S.pathEdges()[Feed.CallerPathEdge];
    emitPrefix(Caller.Proc, Caller.EntryFact, Out, SeedFactOut);
    emitSameLevel(Feed.CallerPathEdge, Out);
    TraceStep Call;
    Call.K = TraceStep::Kind::Call;
    Call.Proc = Caller.Proc;
    Call.CFGEdge = Feed.CFGEdge;
    Call.Callee = P;
    Call.Fact = EntryFact;
    Out.push_back(Call);
  }

  void emitSameLevel(int Id, std::vector<TraceStep> &Out) const {
    const PathEdge &PE = S.pathEdges()[Id];
    switch (PE.How) {
    case Via::Seed:
      return;
    case Via::Normal:
    case Via::CallToReturn: {
      emitSameLevel(PE.Prev, Out);
      TraceStep Step;
      Step.K = TraceStep::Kind::Step;
      Step.Proc = PE.Proc;
      Step.CFGEdge = PE.CFGEdge;
      Step.Fact = PE.Fact;
      Out.push_back(Step);
      return;
    }
    case Via::Summary: {
      emitSameLevel(PE.Prev, Out);
      const PathEdge &Sum = S.pathEdges()[PE.CalleePathEdge];
      TraceStep Call;
      Call.K = TraceStep::Kind::Call;
      Call.Proc = PE.Proc;
      Call.CFGEdge = PE.CFGEdge;
      Call.Callee = Sum.Proc;
      Call.Fact = Sum.EntryFact;
      Out.push_back(Call);
      emitSameLevel(PE.CalleePathEdge, Out);
      TraceStep Ret;
      Ret.K = TraceStep::Kind::Return;
      Ret.Proc = PE.Proc;
      Ret.CFGEdge = PE.CFGEdge;
      Ret.Callee = Sum.Proc;
      Ret.Fact = PE.Fact;
      Out.push_back(Ret);
      return;
    }
    }
  }

  const RefSolver &S;
  std::map<std::pair<int, int>, long> D;
  std::map<std::pair<int, int>, FactFeed> Pred;
};

//===--- Random problems ---------------------------------------------------===//

/// A seeded random multi-procedure problem. Every flow function is a
/// fixed table drawn at construction, so repeated calls agree. Facts
/// per procedure differ, which exercises the fact-base layout; flow
/// tables write their output by assignment, as real problems may.
class RandomProblem : public Problem {
public:
  explicit RandomProblem(uint32_t Seed) {
    std::mt19937 Rng(Seed);
    auto Pick = [&](int Lo, int Hi) {
      return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
    };
    auto Chance = [&](int Percent) { return Pick(0, 99) < Percent; };

    const int NumProcs = Pick(1, 5);
    Views.resize(NumProcs);
    Facts.resize(NumProcs);
    for (int P = 0; P != NumProcs; ++P)
      Facts[P] = Pick(1, 6);
    // The last procedure, when there are several, is often never
    // called: an unreachable procedure must stay inactive.
    const bool LastUnreachable = NumProcs > 1 && Chance(50);
    const int Callable = LastUnreachable ? NumProcs - 1 : NumProcs;

    Normal.resize(NumProcs);
    Call.resize(NumProcs);
    Bypass.resize(NumProcs);
    for (int P = 0; P != NumProcs; ++P) {
      ProcView &V = Views[P];
      V.NumNodes = Pick(2, 9);
      V.Entry = 0;
      V.Exit = V.NumNodes - 1;
      // A spine so most nodes are reachable, then random extra edges:
      // back edges make loops, forward skips make paths of different
      // lengths (distance relaxations).
      for (int N = 0; N + 1 < V.NumNodes; ++N)
        V.Edges.push_back({N, N + 1, -1});
      const int Extra = Pick(0, 2 * V.NumNodes);
      for (int I = 0; I != Extra; ++I)
        V.Edges.push_back({Pick(0, V.NumNodes - 1), Pick(0, V.NumNodes - 1),
                           -1});
      for (ProcView::Edge &E : V.Edges)
        if (Chance(25))
          // A real call (possibly recursive), or an opaque one (Callee
          // stays -1: a normal edge to the solver).
          E.Callee = Chance(80) ? Pick(0, Callable - 1) : -1;
      const int NF = Facts[P];
      auto Subset = [&](int Universe, int Percent) {
        std::vector<int> S;
        for (int F = 0; F != Universe; ++F)
          if (Chance(Percent))
            S.push_back(F);
        return S;
      };
      for (const ProcView::Edge &E : V.Edges) {
        std::vector<std::vector<int>> NormalRow(NF), CallRow(NF), BypassRow(NF);
        for (int F = 0; F != NF; ++F) {
          NormalRow[F] = Subset(NF, F == LambdaFact ? 40 : 30);
          BypassRow[F] = Subset(NF, 30);
          if (E.Callee >= 0)
            CallRow[F] = Subset(Facts[E.Callee], 35);
        }
        // Lambda survives normal and bypass edges: reachability flows.
        for (auto *Row : {&NormalRow, &BypassRow})
          if (std::find((*Row)[LambdaFact].begin(), (*Row)[LambdaFact].end(),
                        LambdaFact) == (*Row)[LambdaFact].end())
            (*Row)[LambdaFact].insert((*Row)[LambdaFact].begin(), LambdaFact);
        if (E.Callee >= 0 &&
            std::find(CallRow[LambdaFact].begin(), CallRow[LambdaFact].end(),
                      LambdaFact) == CallRow[LambdaFact].end())
          CallRow[LambdaFact].insert(CallRow[LambdaFact].begin(), LambdaFact);
        Normal[P].push_back(std::move(NormalRow));
        Call[P].push_back(std::move(CallRow));
        Bypass[P].push_back(std::move(BypassRow));
      }
    }
    Entry = 0;
    SummarySalt = Rng();
    InitAll = Chance(50);
  }

  int numProcs() const override { return static_cast<int>(Views.size()); }
  const ProcView &proc(int P) const override { return Views[P]; }
  int entryProc() const override { return Entry; }
  int numFacts(int P) const override { return Facts[P]; }

  void initialFacts(std::vector<int> &Out) const override {
    Out.push_back(LambdaFact);
    if (InitAll)
      for (int F = 1; F < Facts[Entry]; ++F)
        Out.push_back(F);
  }
  void flowNormal(int P, int Edge, int Fact,
                  std::vector<int> &Out) const override {
    Out = Normal[P][Edge][Fact];
  }
  void flowCall(int P, int Edge, int Fact,
                std::vector<int> &Out) const override {
    Out = Call[P][Edge][Fact];
  }
  void flowCallToReturn(int P, int Edge, int Fact,
                        std::vector<int> &Out) const override {
    Out = Bypass[P][Edge][Fact];
  }
  void flowSummary(int P, int Edge, int Fact, int CalleeEntryFact,
                   int CalleeExitFact, std::vector<int> &Out) const override {
    // A fixed pseudo-random relation over the five arguments.
    for (int F = 0; F != Facts[P]; ++F) {
      uint64_t H = SummarySalt;
      for (int X : {P, Edge, Fact, CalleeEntryFact, CalleeExitFact, F})
        H = (H ^ static_cast<uint64_t>(X + 1)) * 0x100000001b3ull;
      if ((H >> 29) % 3 == 0)
        Out.push_back(F);
    }
  }

private:
  std::vector<ProcView> Views;
  std::vector<int> Facts;
  /// Per procedure, per edge, per fact: output facts.
  std::vector<std::vector<std::vector<std::vector<int>>>> Normal, Call,
      Bypass;
  int Entry = 0;
  uint64_t SummarySalt = 0;
  bool InitAll = false;
};

void expectSameSteps(const std::vector<TraceStep> &A,
                     const std::vector<TraceStep> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].K, B[I].K) << "step " << I;
    EXPECT_EQ(A[I].Proc, B[I].Proc) << "step " << I;
    EXPECT_EQ(A[I].CFGEdge, B[I].CFGEdge) << "step " << I;
    EXPECT_EQ(A[I].Callee, B[I].Callee) << "step " << I;
    EXPECT_EQ(A[I].Fact, B[I].Fact) << "step " << I;
  }
}

TEST(SolverDifferentialTest, RandomProblemsMatchReferenceModel) {
  size_t TotalEdges = 0, Relaxed = 0, SummarySteps = 0, Witnesses = 0;
  for (uint32_t Seed = 1; Seed <= 400; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    RandomProblem Prob(Seed);
    Solver S(Prob);
    S.solve();
    RefSolver Ref(Prob);
    Ref.solve();

    const std::vector<PathEdge> &Got = S.pathEdges();
    const std::vector<PathEdge> &Want = Ref.pathEdges();
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I != Got.size(); ++I) {
      SCOPED_TRACE("path edge " + std::to_string(I));
      EXPECT_EQ(Got[I].Proc, Want[I].Proc);
      EXPECT_EQ(Got[I].EntryFact, Want[I].EntryFact);
      EXPECT_EQ(Got[I].Node, Want[I].Node);
      EXPECT_EQ(Got[I].Fact, Want[I].Fact);
      EXPECT_EQ(Got[I].Dist, Want[I].Dist);
      EXPECT_EQ(Got[I].How, Want[I].How);
      EXPECT_EQ(Got[I].Prev, Want[I].Prev);
      EXPECT_EQ(Got[I].CFGEdge, Want[I].CFGEdge);
      EXPECT_EQ(Got[I].CalleePathEdge, Want[I].CalleePathEdge);
      EXPECT_FALSE(Got[I].Queued);
      SummarySteps += Got[I].How == Via::Summary;
    }
    EXPECT_EQ(S.stats().ExplodedNodes, Ref.stats().ExplodedNodes);
    EXPECT_EQ(S.stats().PathEdges, Ref.stats().PathEdges);
    EXPECT_EQ(S.stats().Summaries, Ref.stats().Summaries);
    EXPECT_EQ(S.stats().Visits, Ref.stats().Visits);
    TotalEdges += Got.size();
    Relaxed += S.stats().Visits - Got.size();

    WitnessBuilder WB(S);
    RefWitnessBuilder RefWB(Ref);
    for (int P = 0; P != Prob.numProcs(); ++P) {
      const int NF = Prob.numFacts(P);
      for (int F = 0; F != NF; ++F) {
        EXPECT_EQ(S.genuineEntry(P, F), Ref.genuineEntry(P, F));
        EXPECT_EQ(S.feedsOf(P, F).size(), Ref.feedsOf(P, F).size());
      }
      for (int N = 0; N != Prob.proc(P).NumNodes; ++N)
        for (int F = 0; F != NF; ++F) {
          for (int D = 0; D != NF; ++D)
            EXPECT_EQ(S.findPathEdge(P, D, N, F),
                      Ref.findPathEdge(P, D, N, F));
          const bool Reached = S.reached(P, N, F);
          ASSERT_EQ(Reached, Ref.reached(P, N, F))
              << "proc " << P << " node " << N << " fact " << F;
          if (!Reached)
            continue;
          std::vector<TraceStep> A, B;
          int SeedA = -1, SeedB = -1;
          ASSERT_TRUE(WB.reconstruct(P, N, F, A, SeedA));
          ASSERT_TRUE(RefWB.reconstruct(P, N, F, B, SeedB));
          EXPECT_EQ(SeedA, SeedB);
          expectSameSteps(A, B);
          ++Witnesses;
        }
    }
  }
  // The generator must reach the interesting paths, or the agreement
  // above shows little: distance relaxations (re-queued edges),
  // summary steps, and many witnesses.
  EXPECT_GT(TotalEdges, 10000u);
  EXPECT_GT(Relaxed, 100u);
  EXPECT_GT(SummarySteps, 500u);
  EXPECT_GT(Witnesses, 5000u);
}

//===--- Key-packing guard --------------------------------------------------===//

/// Dimensions only: no flow function is ever reached, and no table is
/// sized by the (huge) node or fact counts.
class HugeProblem : public Problem {
public:
  HugeProblem(std::vector<int> Nodes, std::vector<int> NumFacts)
      : Facts(std::move(NumFacts)) {
    for (int N : Nodes) {
      ProcView V;
      V.NumNodes = N;
      V.Exit = N - 1;
      Views.push_back(V);
    }
  }
  int numProcs() const override { return static_cast<int>(Views.size()); }
  const ProcView &proc(int P) const override { return Views[P]; }
  int entryProc() const override { return 0; }
  int numFacts(int P) const override { return Facts[P]; }
  void initialFacts(std::vector<int> &Out) const override {
    Out.push_back(LambdaFact);
  }
  void flowNormal(int, int, int, std::vector<int> &) const override {}
  void flowCall(int, int, int, std::vector<int> &) const override {}
  void flowCallToReturn(int, int, int, std::vector<int> &) const override {}
  void flowSummary(int, int, int, int, int,
                   std::vector<int> &) const override {}

private:
  std::vector<ProcView> Views;
  std::vector<int> Facts;
};

void expectKeyOverflow(const Problem &Prob) {
  try {
    Solver S(Prob);
    FAIL() << "expected a key-overflow CertifyError";
  } catch (const CertifyError &E) {
    EXPECT_EQ(E.kind(), CertifyErrorKind::InternalInvariant);
    EXPECT_NE(std::string(E.what()).find("key overflow"), std::string::npos);
  }
}

TEST(SolverDifferentialTest, NodeFactProductOverflowThrows) {
  // 2^20 nodes x 2^12 facts = 2^32 exploded nodes: the low half of
  // the key cannot hold them. The second procedure is the large one,
  // so the check must cover every procedure, not just the entry.
  expectKeyOverflow(HugeProblem({4, 1 << 20}, {3, 1 << 12}));
}

TEST(SolverDifferentialTest, FactTotalOverflowThrows) {
  // Three procedures of INT_MAX facts each: the (procedure, entry
  // fact) half would pass 2^32.
  expectKeyOverflow(
      HugeProblem({1, 1, 1}, {INT_MAX, INT_MAX, INT_MAX}));
}

TEST(SolverDifferentialTest, IndexAcceptsKeysJustUnderTheBound) {
  // 2^20 x (2^12 - 1) exploded nodes fit; the extreme keys stay
  // distinct and findable. PathEdgeIndex sizes nothing by the
  // dimensions, so this allocates only a small table.
  HugeProblem Prob({1 << 20, 2}, {(1 << 12) - 1, 5});
  PathEdgeIndex Index(Prob);
  const int LastNode = (1 << 20) - 1, LastFact = (1 << 12) - 2;
  EXPECT_EQ(Index.totalFacts(), static_cast<size_t>((1 << 12) - 1 + 5));
  EXPECT_TRUE(Index.insert(0, LastFact, LastNode, LastFact, 7).second);
  EXPECT_TRUE(Index.insert(1, 0, 0, 0, 8).second);
  EXPECT_TRUE(Index.insert(1, 4, 1, 4, 9).second);
  EXPECT_FALSE(Index.insert(0, LastFact, LastNode, LastFact, 10).second);
  EXPECT_EQ(Index.find(0, LastFact, LastNode, LastFact), 7);
  EXPECT_EQ(Index.find(1, 0, 0, 0), 8);
  EXPECT_EQ(Index.find(1, 4, 1, 4), 9);
  EXPECT_EQ(Index.find(0, 0, 0, 0), -1);
  EXPECT_EQ(Index.size(), 3u);
}

} // namespace
