//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics for the corpus benchmark. Percentiles use the
/// nearest-rank definition on the sorted samples, so every reported
/// value is a measured sample and "samples beyond" is exact: a
/// percentile is only trustworthy when at least MinBeyond samples lie
/// strictly above its rank.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a percentile must have above its rank to be reported.
inline constexpr size_t MinBeyond = 10;

struct Percentile {
  double Value = 0;
  size_t Samples = 0; ///< Sample count the percentile was taken over.
  size_t Beyond = 0;  ///< Samples ranked strictly above Value's rank.

  bool enoughBeyond() const { return Beyond >= MinBeyond; }
};

/// 1-based nearest rank of the \p P-th quantile among \p N samples:
/// ceil(P * N), clamped to [1, N]. The epsilon keeps a product such as
/// 0.99 * 1000 = 990.0000000001 from rounding up a rank.
inline size_t nearestRank(double P, size_t N) {
  const double R = std::ceil(P * static_cast<double>(N) - 1e-9);
  return std::clamp<size_t>(R < 1 ? 1 : static_cast<size_t>(R), 1, N);
}

/// Nearest-rank \p P-th quantile (0 < P <= 1) of \p Samples. Empty
/// input yields a zero Percentile.
inline Percentile percentile(std::vector<double> Samples, double P) {
  Percentile Out;
  Out.Samples = Samples.size();
  if (Samples.empty())
    return Out;
  std::sort(Samples.begin(), Samples.end());
  const size_t Rank = nearestRank(P, Samples.size());
  Out.Value = Samples[Rank - 1];
  Out.Beyond = Samples.size() - Rank;
  return Out;
}

/// Smallest sample count for which the nearest-rank \p P-th quantile
/// has at least MinBeyond samples above it.
inline size_t samplesNeeded(double P) {
  size_t N = MinBeyond + 1;
  while (N - nearestRank(P, N) < MinBeyond)
    ++N;
  return N;
}

/// The conventional median (mean of the two middle values for an even
/// count), for per-pass and per-set-up figures; zero when empty.
inline double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  const size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
