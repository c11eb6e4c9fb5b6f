//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///           [--work-dir DIR] [--trace-file FILE]
///
/// Prints one line per metric (name, value, unit, sample count or base),
/// the correctness gate's failures, and as the last line one JSON object
/// {"correct", "attempted", "failed", "metrics"}. Exit 0 after a
/// completed measurement (even when the gate failed: "correct" says so),
/// 2 on bad arguments or a setup error, with no JSON line.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload "
               "intra-cold|interproc-certs|store-churn|tvla-independent\n"
               "                 [--seed N] [--seconds S] [--trace 0|1] "
               "[--work-dir DIR] [--trace-file FILE]\n",
               Why);
  return 2;
}

/// JSON string body (metric names and units are plain ASCII).
std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value after " + A).c_str());
    const std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      if (!parseWorkload(V, C.W))
        return usage(("unknown workload '" + V + "'").c_str());
      HaveWorkload = true;
      continue;
    }
    if (A == "--work-dir") {
      C.WorkDir = V;
      continue;
    }
    if (A == "--trace-file") {
      C.TraceFile = V;
      continue;
    }
    const double Num = std::strtod(V.c_str(), &End);
    if (End == V.c_str() || *End || Num < 0 || !std::isfinite(Num))
      return usage(("bad number for " + A + ": '" + V + "'").c_str());
    if (A == "--seed")
      C.Seed = static_cast<uint64_t>(Num);
    else if (A == "--seconds")
      C.Seconds = Num;
    else if (A == "--trace")
      C.Trace = Num != 0;
    else
      return usage(("unknown option " + A).c_str());
  }
  if (!HaveWorkload)
    return usage("--workload is required");

  const Result R = run(C);
  if (!R.Error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", R.Error.c_str());
    return 2;
  }

  std::printf("workload %s, seed %llu, %u clients, %s run\n",
              workloadName(C.W), static_cast<unsigned long long>(C.Seed),
              R.Clients, C.Trace ? "traced" : "untraced");
  for (const Metric &M : R.Metrics)
    std::printf("  %-32s %14.6f %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
  std::printf("  phases: %s\n", R.Phases.c_str());
  std::printf("  gate: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (const std::string &F : R.Failures)
    std::printf("  gate failure: %s\n", F.c_str());
  if (!C.TraceFile.empty() && C.Trace)
    std::printf("  chrome trace: %s\n", C.TraceFile.c_str());

  std::string Json = "{\"correct\": ";
  Json += R.Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : R.Metrics) {
    if (!M.InJson)
      continue;
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g", M.Value);
    Json += (First ? "" : ", ") + quoted(M.Name) + ": {\"value\": " + Value +
            ", \"unit\": " + quoted(M.Unit) + "}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
