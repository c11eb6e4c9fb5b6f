//===----------------------------------------------------------------------===//
///
/// \file
/// Host-speed calibration for the corpus benchmark. The benchmark runs on
/// a shared virtual machine whose effective speed drifts by up to 2x
/// within minutes, and a wall-clock figure carries that drift. A fixed
/// reference kernel, timed in short bursts between measured calls,
/// samples the host's speed while the calls run; each call is then
/// rescaled to a reference speed (see DESIGN.md, "Host-speed
/// normalization").
///
/// The kernel is independent of the canvas libraries, so no change to the
/// program can move it. It fills and walks an ordered map of about 20 000
/// small nodes and then frees them: heap allocation and pointer chasing,
/// which is what dominates the certifier. Of the kernels tried (a
/// compute/hash mix, pointer chases over 4 MB and 64 MB, a 32 MB stream,
/// this one), its time tracked the certifier's pass time most closely on
/// every workload.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include "Stats.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Milliseconds of one kernel run at the reference speed: the figure
/// normalized times are rescaled to. It is about the median kernel time
/// of the Release build on a 4-vCPU x86-64 virtual machine, so normalized
/// times read close to wall times there.
inline constexpr double ReferenceBurstMs = 6.0;

/// One run of the reference kernel; returns a checksum so the work cannot
/// be optimized away.
inline uint64_t calibrationKernel() {
  uint64_t X = 0x2545F4914F6CDD1Dull, Sum = 0;
  std::map<uint64_t, std::string> M;
  for (unsigned I = 0; I != 20000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    M[X % 100000] = std::to_string(I);
  }
  for (const auto &[Key, Value] : M)
    Sum += Key + Value.size();
  return Sum;
}

/// The host's speed over a run: kernel bursts and when they ran.
/// Measured windows are rescaled once the run's bursts are all taken.
class HostSpeed {
public:
  using Clock = std::chrono::steady_clock;

  /// Bursts are at least this far apart inside a measured phase.
  static constexpr double IntervalMs = 250;
  /// A window is rescaled by the median burst within this distance of
  /// its midpoint: the host's speed moves at the scale of seconds to
  /// minutes, and a median over several bursts ignores a stray one.
  static constexpr double SmoothMs = 2000;

  /// Runs a burst when the last one is IntervalMs old, or when \p Force.
  void tick(bool Force = false) {
    const Clock::time_point T0 = Clock::now();
    if (!Force && !Bursts.empty() && ms(T0 - Bursts.back().first) < IntervalMs)
      return;
    static volatile uint64_t Sink = 0;
    Sink = Sink + calibrationKernel();
    const Clock::time_point T1 = Clock::now();
    record(T0 + (T1 - T0) / 2, ms(T1 - T0));
  }

  /// Adds a burst of \p Ms milliseconds centred on \p Mid (bursts come
  /// in time order).
  void record(Clock::time_point Mid, double Ms) { Bursts.push_back({Mid, Ms}); }

  /// \p RawMs of a window that closed at \p End, at the reference speed.
  double normalize(Clock::time_point End, double RawMs) const {
    const auto Half = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(RawMs / 2));
    return RawMs * ReferenceBurstMs / burstMsAt(End - Half);
  }

  size_t bursts() const { return Bursts.size(); }
  /// Median burst of the run, in milliseconds.
  double medianBurstMs() const {
    std::vector<double> Ms;
    for (const auto &B : Bursts)
      Ms.push_back(B.second);
    return median(std::move(Ms));
  }

private:
  static double ms(Clock::duration D) {
    return std::chrono::duration<double, std::milli>(D).count();
  }

  /// The median burst within SmoothMs of \p T; the nearest burst when
  /// none is that close; ReferenceBurstMs before any burst.
  double burstMsAt(Clock::time_point T) const {
    std::vector<double> Near;
    const std::pair<Clock::time_point, double> *Nearest = nullptr;
    double NearestMs = 0;
    for (const auto &B : Bursts) {
      const double D = std::abs(ms(B.first - T));
      if (D <= SmoothMs)
        Near.push_back(B.second);
      if (!Nearest || D < NearestMs) {
        Nearest = &B;
        NearestMs = D;
      }
    }
    if (Near.empty())
      return Nearest ? Nearest->second : ReferenceBurstMs;
    return median(std::move(Near));
  }

  /// Midpoint and duration of every burst, in time order.
  std::vector<std::pair<Clock::time_point, double>> Bursts;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
