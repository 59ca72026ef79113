//===- perfbench/src/Ledger.h - Exact percentiles and span log -*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own measurement primitives: exact nearest-rank
/// percentiles over recorded samples (not the program's power-of-two
/// Histogram), and the in-memory span log of the traced pass. Spans are
/// recorded in the benchmark's code around each call into a layer; one
/// sampled op yields an op span plus a span per call, all carrying the
/// op's id.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_PERFBENCH_LEDGER_H
#define HCSGC_PERFBENCH_LEDGER_H

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Peak resident set size of this process so far, in MiB.
inline double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Exact nearest-rank percentile: the smallest sample with at least
/// ceil(P * N) samples at or below it. \p Samples is reordered. 0 when
/// empty.
template <typename T> double percentile(std::vector<T> &Samples, double P) {
  if (Samples.empty())
    return 0;
  size_t N = Samples.size();
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(N)));
  Rank = std::clamp<size_t>(Rank, 1, N);
  auto It = Samples.begin() + static_cast<std::ptrdiff_t>(Rank - 1);
  std::nth_element(Samples.begin(), It, Samples.end());
  return static_cast<double>(*It);
}

/// Median of \p V (mean of the two middle values for even sizes).
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Layers a span can name. SpanOp is the benchmark's own op; the others
/// are calls into the program.
enum SpanName : uint8_t {
  SpanOp,
  SpanKvGet,
  SpanKvPut,
  SpanKvRemove,
  SpanLoad,
  SpanAlloc,
  NumSpanNames
};

inline const char *spanNameStr(uint8_t N) {
  static const char *const Names[NumSpanNames] = {
      "bench.op", "kv.get", "kv.put", "kv.remove", "runtime.load",
      "runtime.alloc"};
  return N < NumSpanNames ? Names[N] : "?";
}

struct Span {
  uint64_t StartNs = 0, EndNs = 0;
  uint64_t OpId = 0;
  uint32_t Parent = 0; ///< Index of the parent span; NoParent for ops.
  uint8_t Name = SpanOp;
};

/// One sampled op: its interval and its calls into the program. Held in
/// locals while the op runs and committed after it ends, so writing the
/// log costs no time inside any span.
struct SampledOp {
  struct Call {
    uint8_t Name;
    uint64_t StartNs, EndNs;
  };
  uint64_t OpId = 0, StartNs = 0, EndNs = 0;
  unsigned NumCalls = 0;
  Call Calls[2];

  void call(uint8_t Name, uint64_t Start, uint64_t End) {
    Calls[NumCalls++] = {Name, Start, End};
  }
};

/// One client's spans and per-layer time. Spans of sampled ops are kept
/// in memory (up to a fixed capacity, so recording never reallocates)
/// until the pass ends; every sampled op counts toward the ledger.
///
/// Each duration is charged for the clock reads it contains: half of
/// each boundary read plus both reads of every call inside it. A layer
/// whose cost is heavy-tailed (an allocation that stalls, a KV op that
/// waits out a pause) is also timed on every call through account(), so
/// its share of the ledger is exact rather than scaled up from a sample.
class SpanLog {
public:
  static constexpr uint32_t NoParent = UINT32_MAX;

  /// Keeps the spans of one sampled op in \p KeepEvery, so a capacity of
  /// \p Capacity spans covers the whole pass.
  SpanLog(size_t Capacity, unsigned KeepEvery, double ClockReadNs)
      : Cap(Capacity), KeepEvery(KeepEvery), Clock(ClockReadNs) {
    Spans.reserve(Cap);
  }

  /// Adds one call of \p Name lasting \p Ns (clock reads included).
  void account(uint8_t Name, uint64_t Ns) {
    TotalNs[Name] += Ns;
    ++Calls[Name];
  }

  void commit(const SampledOp &Op) {
    ++Sampled;
    double OpSelf =
        double(Op.EndNs - Op.StartNs) - Clock * (1 + 2 * Op.NumCalls);
    for (unsigned I = 0; I < Op.NumCalls; ++I) {
      double D = double(Op.Calls[I].EndNs - Op.Calls[I].StartNs) - Clock;
      SampledSelf[Op.Calls[I].Name] += D;
      OpSelf -= D;
    }
    SampledSelf[SpanOp] += OpSelf;
    if (Sampled % KeepEvery != 0 || Spans.size() + 1 + Op.NumCalls > Cap)
      return;
    uint32_t Parent = static_cast<uint32_t>(Spans.size());
    Spans.push_back({Op.StartNs, Op.EndNs, Op.OpId, NoParent, SpanOp});
    for (unsigned I = 0; I < Op.NumCalls; ++I)
      Spans.push_back({Op.Calls[I].StartNs, Op.Calls[I].EndNs, Op.OpId,
                       Parent, Op.Calls[I].Name});
  }

  /// Self time of layer \p Name over all \p Ops ops of this client: exact
  /// for layers timed on every call, else scaled up from the sample.
  double selfNs(uint8_t Name, uint64_t Ops) const {
    if (Calls[Name])
      return double(TotalNs[Name]) - Clock * double(Calls[Name]);
    return Sampled ? SampledSelf[Name] * double(Ops) / double(Sampled) : 0;
  }

  /// Duration of a call span, less its clock reads.
  double callNs(const Span &S) const {
    return std::max(0.0, double(S.EndNs - S.StartNs) - Clock);
  }

  uint64_t sampledOps() const { return Sampled; }
  const std::vector<Span> &spans() const { return Spans; }

private:
  size_t Cap;
  unsigned KeepEvery;
  double Clock;
  std::vector<Span> Spans;
  uint64_t Sampled = 0;
  double SampledSelf[NumSpanNames] = {};
  uint64_t TotalNs[NumSpanNames] = {};
  uint64_t Calls[NumSpanNames] = {};
};

} // namespace perfbench

#endif // HCSGC_PERFBENCH_LEDGER_H
