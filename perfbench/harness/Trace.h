//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's outside-in span recorder. Spans are recorded by the
/// harness around its own calls into each canvas layer (never inside
/// src/), kept in memory, and written once at the end as Chrome
/// trace-event JSON. A span names its layer ("boolprog.build"), its
/// parent span, and the client it serves, so every span of one
/// certification shares the client's identifier.
///
/// A layer's self time is its spans' durations minus the part covered
/// by their direct child spans.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = "";
  int32_t Parent = -1; ///< Index of the enclosing span, -1 at the root.
  uint32_t Client = 0; ///< Corpus index of the client being certified.
  double StartUs = 0;  ///< Microseconds since the tracer's origin.
  double EndUs = 0;
};

class Tracer {
public:
  Tracer() : Origin(std::chrono::steady_clock::now()) {}

  /// Opens a span nested in the innermost open span; returns its index.
  int32_t begin(const char *Name, uint32_t Client);
  void end(int32_t Index);

  /// RAII span.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint32_t Client)
        : T(T), Index(T.begin(Name, Client)) {}
    ~Scope() { T.end(Index); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Index;
  };

  size_t size() const { return Spans.size(); }

  /// Self time in microseconds per span name, over spans [From, size()).
  std::map<std::string, double> selfMicros(size_t From = 0) const;

  /// Writes spans [0, Count) as Chrome trace-event JSON ("X" complete
  /// events; pid 1, tid = client index, args carry the parent span).
  bool writeChrome(const std::string &Path, size_t Count) const;

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Origin)
        .count();
  }

  std::chrono::steady_clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
