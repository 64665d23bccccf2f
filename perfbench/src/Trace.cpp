//===- Trace.cpp - In-memory spans around calls into each layer -----------===//

#include "Trace.h"

#include "driver/Telemetry.h"

#include <cstdio>
#include <fstream>

using namespace perfbench;

int64_t SpanRecorder::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Origin)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder &R, std::string Name, int64_t Id)
    : R(R) {
  if (!R.Enabled)
    return;
  Span S;
  S.Name = std::move(Name);
  S.Id = Id;
  S.Parent = R.Open.empty() ? -1 : R.Open.back();
  Index = int(R.Spans.size());
  R.Spans.push_back(std::move(S));
  R.Open.push_back(Index);
  R.Spans[size_t(Index)].StartNs = R.nowNs();
}

SpanRecorder::Scope::~Scope() {
  if (Index < 0)
    return;
  R.Spans[size_t(Index)].EndNs = R.nowNs();
  R.Open.pop_back();
}

std::vector<double> SpanRecorder::durationsMs(const std::string &Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Out.push_back(double(S.EndNs - S.StartNs) / 1e6);
  return Out;
}

double SpanRecorder::totalMs(const std::string &Name) const {
  double Sum = 0;
  for (double D : durationsMs(Name))
    Sum += D;
  return Sum;
}

std::map<std::string, double> SpanRecorder::selfMsByLayer() const {
  // Spans nest strictly (scopes), so the children of a span cover disjoint
  // parts of it and self time is its duration minus theirs.
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[size_t(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::string Layer = S.Name.substr(0, S.Name.find('.'));
    Self[Layer] += double(S.EndNs - S.StartNs - ChildNs[I]) / 1e6;
  }
  return Self;
}

bool SpanRecorder::writeChromeJson(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << "{\"traceEvents\":[";
  char Buf[160];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%lld,\"span\":%zu,\"parent\":%d}}",
                  double(S.StartNs) / 1e3, double(S.EndNs - S.StartNs) / 1e3,
                  (long long)S.Id, I, S.Parent);
    Out << (I ? ",\n" : "\n") << "{\"name\":\"" << jsai::jsonEscape(S.Name)
        << "\",\"cat\":\"" << jsai::jsonEscape(S.Name.substr(0, S.Name.find('.')))
        << "\",\"ph\":\"X\"," << Buf;
  }
  Out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return bool(Out);
}
