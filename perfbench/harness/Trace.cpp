#include "Trace.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

int32_t Tracer::begin(const char *Name, uint32_t Client) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Client = Client;
  S.StartUs = nowUs();
  Spans.push_back(S);
  const int32_t Index = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Index);
  return Index;
}

void Tracer::end(int32_t Index) {
  Spans[Index].EndUs = nowUs();
  // Scopes close innermost-first, so Index is the top of the stack.
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

std::map<std::string, double> Tracer::selfMicros(size_t From) const {
  std::vector<double> Self(Spans.size(), 0.0);
  for (size_t I = From; I != Spans.size(); ++I)
    Self[I] = Spans[I].EndUs - Spans[I].StartUs;
  for (size_t I = From; I != Spans.size(); ++I) {
    const int32_t P = Spans[I].Parent;
    if (P >= static_cast<int32_t>(From))
      Self[P] -= Spans[I].EndUs - Spans[I].StartUs;
  }
  std::map<std::string, double> Out;
  for (size_t I = From; I != Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I];
  return Out;
}

bool Tracer::writeChrome(const std::string &Path, size_t Count) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", F);
  for (size_t I = 0; I != std::min(Count, Spans.size()); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"canvas\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"client\":%u}}\n",
                 I ? "," : "", S.Name, S.StartUs, S.EndUs - S.StartUs,
                 S.Client, I, S.Parent, S.Client);
  }
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}
