//===----------------------------------------------------------------------===//
///
/// \file
/// The corpus benchmark: a single-process, single-thread, closed-loop
/// load generator with one caller. It generates a seeded CJ corpus,
/// builds one core::Certifier per workload (Workers = 1), and times
/// every Certifier::certifySource call over whole passes of the corpus
/// after one untimed warm-up pass. Correctness gates run outside the
/// timed windows. Every end-to-end time is rescaled to a reference host
/// speed, sampled between the windows (see Calibrate.h). A traced run
/// instead replays the certifier's path layer by layer from outside the
/// program (see Trace.h) and attributes the time. See perfbench/DESIGN.md
/// for the workloads and metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { IntraCold, InterprocCerts, StoreChurn, TvlaIndependent };

const char *workloadName(Workload W);
/// False when \p Name is not a workload.
bool parseWorkload(const std::string &Name, Workload &Out);

struct Config {
  Workload W = Workload::IntraCold;
  uint64_t Seed = 7;
  /// Wall-clock budget of the measured phase (timed passes; in a traced
  /// run, the alternating untraced/traced pass pairs).
  double Seconds = 10;
  bool Trace = false;
  /// Corpus size; 0 = the workload's default, sized so one pass takes a
  /// few seconds and the percentiles rest on many distinct clients.
  unsigned Clients = 0;
  /// The corpus is a stratified sample of Clients * PoolFactor generated
  /// clients (see Bench::prepareCorpus); 1 = the plain
  /// generateCorpus(Clients, Seed) corpus; 0 = the workload's default.
  unsigned PoolFactor = 0;
  /// Set-ups timed per sampling point (see Bench::setUp); 0 = default.
  unsigned SetupReps = 0;
  /// Scratch directory for the corpus and stores (created, not removed).
  std::string WorkDir = "perfbench-work";
  /// Chrome trace-event output of a traced run; empty = not written.
  std::string TraceFile;
  /// Clients (a seeded stride through the corpus) the ground-truth gate
  /// explores; 0 = all.
  unsigned GroundTruthClients = 100;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  /// Sample count and base values, printed next to the metric.
  std::string Note;
  /// False for metrics printed for people only, not in the JSON result
  /// (failed_frac and cert_kb_per_client: zero on correct runs or
  /// certificate-free workloads, so no relative bound can apply;
  /// host.burst_ms: the host's speed, not the program's).
  bool InJson = true;
};

struct Result {
  bool Correct = true;
  uint64_t Attempted = 0; ///< Gated certify calls.
  uint64_t Failed = 0;    ///< Gated calls that failed a check.
  unsigned Clients = 0;   ///< Corpus size.
  std::vector<Metric> Metrics;
  /// One line per distinct failure reason (first occurrences).
  std::vector<std::string> Failures;
  /// Store activity over the timed passes (store-churn only).
  uint64_t StoreHits = 0, StoreMisses = 0, StoreWrites = 0;
  /// Wall time of each phase of the run, for people.
  std::string Phases;
  /// Setup error (bad spec, unwritable work dir): nothing was measured.
  std::string Error;

  const Metric *find(const std::string &Name) const;
};

Result run(const Config &C);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
