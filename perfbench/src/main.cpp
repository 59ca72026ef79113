//===- perfbench/src/main.cpp - One measured pass of one workload ---------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// hcsbench runs one pass of one workload and prints one JSON object;
// perfbench/run.py combines the passes of a run into the reported metrics.
//
//   hcsbench --workload=W --pass=P --seed=N --seconds=S [--smoke]
//            [--out-dir=DIR]
//   hcsbench --percentiles=0.5,0.99 < samples
//
// Passes (each in its own process, so peak RSS is the pass's own):
//   setup   time Runtime construction plus the initial load, 15 times.
//   native  probes off: warm-up, checkpoint, timed phase of S seconds.
//   traced  as native, with spans around calls into the program; writes
//           the spans to DIR/spans-W-seedN.csv.
//   sim     probes on: warm-up, checkpoint, fixed-op timed phase.
//
// Every pass checks the quiescent heap against the workload's model at
// the checkpoint and at the end, and exits 1 on any violation.
//
//===----------------------------------------------------------------------===//

#include "Clients.h"
#include "Ledger.h"

#include "gc/Safepoint.h"
#include "harness/Runner.h"
#include "support/ArgParse.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

using namespace hcsgc;
using namespace perfbench;

namespace {

constexpr int SetupRepetitions = 15;
/// Span capacity per client in the traced pass (32 B each).
constexpr size_t SpanCapacity = size_t(1) << 19;

/// Flat JSON object of numbers, strings and number arrays.
class JsonOut {
public:
  void num(const std::string &K, double V) {
    key(K);
    Out << fmt(V);
  }
  void str(const std::string &K, const std::string &V) {
    key(K);
    Out << '"' << V << '"';
  }
  void arr(const std::string &K, const std::vector<double> &V) {
    key(K);
    Out << '[';
    for (size_t I = 0; I < V.size(); ++I)
      Out << (I ? ", " : "") << fmt(V[I]);
    Out << ']';
  }
  std::string finish() { return Out.str() + "}"; }

private:
  static std::string fmt(double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
    return Buf;
  }
  void key(const std::string &K) {
    Out << (First ? "{" : ", ") << '"' << K << "\": ";
    First = false;
  }
  std::ostringstream Out;
  bool First = true;
};

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         double(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

/// Median cost of one nowNs() call.
double clockReadNs() {
  constexpr int Reads = 100000;
  std::vector<double> Runs;
  for (int K = 0; K < 5; ++K) {
    uint64_t T0 = nowNs(), Sink = 0;
    for (int I = 0; I < Reads; ++I)
      Sink += nowNs();
    uint64_t T1 = nowNs();
    Runs.push_back(double(T1 - T0 + (Sink & 1)) / Reads);
  }
  return median(Runs);
}

/// A runtime with the workload loaded into it.
struct Instance {
  std::unique_ptr<Workload> W;
  std::unique_ptr<Runtime> RT;
  std::unique_ptr<Mutator> M;
  double SetupS = 0;

  Instance(const WorkloadSpec &Spec, uint64_t Seed, bool Probes) {
    W = makeWorkload(Spec, Seed); // Input generation is not set-up.
    GcConfig Cfg = applyKnobs(benchBaseConfig(Spec.HeapMb),
                              table2Config(Spec.ConfigId));
    Cfg.EnableProbes = Probes;
    uint64_t T0 = nowNs();
    RT = std::make_unique<Runtime>(Cfg);
    M = RT->attachMutator();
    W->load(*M);
    SetupS = double(nowNs() - T0) * 1e-9;
  }
  ~Instance() {
    W.reset(); // Drops the workload's roots before the mutator detaches.
    M.reset();
  }
  Instance(const Instance &) = delete;
  Instance &operator=(const Instance &) = delete;

  /// Waits for any in-flight GC cycle, as a safepoint-blocked mutator.
  void quiesce() {
    BlockedScope B(RT->safepoints());
    RT->driver().waitIdle();
  }
};

/// Program-side counters at one quiescent point.
struct Readout {
  std::map<std::string, uint64_t> Counters;
  uint64_t StallCount = 0, StallSumUs = 0;
  size_t Cycles = 0;
  CacheCounters Mut, Gc;

  explicit Readout(Instance &I) {
    for (auto &[Name, V] : I.RT->metrics().counterSnapshot())
      Counters[Name] = V;
    if (const Histogram *H = I.RT->metrics().findHistogram("alloc.stall_us")) {
      StallCount = H->count();
      StallSumUs = H->sum();
    }
    Cycles = I.RT->gcStats().cycleCount();
    Mut = I.RT->mutatorCounters();
    Gc = I.RT->gcThreadCounters();
  }
  uint64_t ctr(const std::string &N) const {
    auto It = Counters.find(N);
    return It == Counters.end() ? 0 : It->second;
  }
};

CacheCounters minus(const CacheCounters &A, const CacheCounters &B) {
  CacheCounters D;
  D.Loads = A.Loads - B.Loads;
  D.Stores = A.Stores - B.Stores;
  D.L1Misses = A.L1Misses - B.L1Misses;
  D.L2Misses = A.L2Misses - B.L2Misses;
  D.LlcMisses = A.LlcMisses - B.LlcMisses;
  D.Cycles = A.Cycles - B.Cycles;
  return D;
}

struct Timed {
  std::vector<ClientResult> Clients;
  uint64_t Ops = 0, Failed = 0, Attempted = 0;
  double WallS = 0;     ///< First client start to last client end.
  double ClientNs = 0;  ///< Summed client busy time per op.
  double CpuS = 0;      ///< Process CPU time over the timed phase.
  uint64_t Violations = 0;
  uint64_t CheckpointSum = 0, FinalSum = 0;
  std::unique_ptr<Readout> Before, After; ///< Around the timed phase.
};

/// Warm-up, checkpoint, timed phase, final check.
Timed measure(Instance &I, const WorkloadSpec &Spec, double Seconds,
              PhaseSpec Ph) {
  Timed T;
  PhaseSpec Warm;
  Warm.FixedOps = Spec.WarmupOps;
  for (const ClientResult &R : I.W->run(*I.M, Warm)) {
    T.Failed += R.failed();
    T.Attempted += R.Ops;
    T.Violations += R.Misses + R.Corrupt;
  }
  I.quiesce();
  T.Violations += I.W->verify(*I.M, T.CheckpointSum);
  I.quiesce();
  T.Before = std::make_unique<Readout>(I);

  double Cpu0 = cpuSeconds();
  if (!Ph.FixedOps)
    Ph.DeadlineNs = nowNs() + uint64_t(Seconds * 1e9);
  T.Clients = I.W->run(*I.M, Ph);
  T.CpuS = cpuSeconds() - Cpu0;
  I.quiesce();
  T.After = std::make_unique<Readout>(I);

  uint64_t Start = UINT64_MAX, End = 0;
  double Busy = 0;
  for (const ClientResult &R : T.Clients) {
    T.Ops += R.Ops;
    T.Failed += R.failed();
    if (R.Misses || R.Corrupt) {
      std::fprintf(stderr,
                   "hcsbench: %" PRIu64 " base-key misses and %" PRIu64
                   " corrupt reads or removes in the timed phase\n",
                   R.Misses, R.Corrupt);
      T.Violations += R.Misses + R.Corrupt;
    }
    Start = std::min(Start, R.StartNs);
    End = std::max(End, R.EndNs);
    Busy += double(R.EndNs - R.StartNs);
  }
  T.Attempted += T.Ops;
  T.WallS = double(End - Start) * 1e-9;
  T.ClientNs = ratio(Busy, double(T.Ops));
  T.Violations += I.W->verify(*I.M, T.FinalSum);
  return T;
}

void common(JsonOut &J, const Instance &I, const Timed &T) {
  J.num("setup_s", I.SetupS);
  J.num("attempted", double(T.Attempted));
  J.num("failed", double(T.Failed));
  J.num("violations", double(T.Violations));
  J.str("checkpoint_checksum", hex(T.CheckpointSum));
  J.str("final_checksum", hex(T.FinalSum));
  J.num("ops", double(T.Ops));
  J.num("wall_s", T.WallS);
  J.num("client_ns_per_op", T.ClientNs);
  J.num("throughput_kops", ratio(double(T.Ops), T.WallS) * 1e-3);
}

/// The native pass: end-to-end timings plus heap and GC counters.
uint64_t nativePass(const WorkloadSpec &Spec, uint64_t Seed, double Seconds,
                    JsonOut &J) {
  Instance I(Spec, Seed, /*Probes=*/false);
  PhaseSpec Ph;
  Ph.RecordLatency = true;
  Ph.RssAtOps = Spec.RssOps;
  Timed T = measure(I, Spec, Seconds, Ph);
  const Readout &B = *T.Before, &A = *T.After;
  // Peak RSS after a fixed amount of work: the KV heaps' RSS keeps
  // growing with GC cycles (README, "Known defects"), so RSS at the end
  // of a timed phase would track speed rather than memory use.
  double Rss = T.Clients[0].RssMb;
  if (Rss == 0) {
    std::fprintf(stderr, "hcsbench: timed phase ended before %" PRIu64
                         " ops; max_rss_mb is the end-of-run peak\n",
                 Spec.RssOps);
    Rss = peakRssMb();
  }
  J.num("max_rss_mb", Rss);
  J.num("end_rss_mb", peakRssMb());
  common(J, I, T);

  std::vector<uint32_t> Lat;
  for (const ClientResult &R : T.Clients)
    Lat.insert(Lat.end(), R.LatNs.begin(), R.LatNs.begin() + R.LatCount);
  // Synth samples are 1,000-access blocks; report time per access.
  double PerSampleToUs = 1e-3 / I.W->opsPerLatencySample();
  J.num("latency_samples", double(Lat.size()));
  J.num("op_p50_us", percentile(Lat, 0.50) * PerSampleToUs);
  J.num("op_p99_us", percentile(Lat, 0.99) * PerSampleToUs);
  J.num("cpu_us_per_op", ratio(T.CpuS * 1e6, double(T.Ops)));
  J.num("failed_ops_pct", ratio(100.0 * double(T.Failed),
                                double(T.Attempted)));

  double KOps = double(T.Ops) / 1e3;
  auto Delta = [&](const char *N) {
    return double(A.ctr(N) - B.ctr(N));
  };
  J.num("heap.tlab_refills_per_kop", ratio(Delta("alloc.tlab.refills"), KOps));
  J.num("heap.medium_refills_per_kop",
        ratio(Delta("alloc.tlab.medium_refills"), KOps));
  J.num("heap.shard_locks_per_kop",
        ratio(Delta("alloc.shard.lock_acquisitions"), KOps));
  double Hits = Delta("alloc.cache.page_hits");
  J.num("heap.page_cache_hit_pct",
        ratio(100.0 * Hits, Hits + Delta("alloc.cache.page_misses")));
  J.num("heap.pretenure_refills_per_kop",
        ratio(Delta("alloc.tlab.pretenure_refills"), KOps));
  J.num("heap.stalls", double(A.StallCount - B.StallCount));
  J.num("heap.stall_ms_total", double(A.StallSumUs - B.StallSumUs) / 1e3);
  const Histogram *StallH = I.RT->metrics().findHistogram("alloc.stall_us");
  // The program's histogram is cumulative over the pass and bucketed.
  J.num("heap.stall_ms_p50",
        StallH ? double(StallH->percentile(0.5)) / 1e3 : 0.0);

  // GC cycles that completed during the timed phase.
  std::vector<CycleRecord> Recs = I.RT->gcStats().snapshot();
  Recs.assign(Recs.begin() + std::min(B.Cycles, Recs.size()),
              Recs.begin() + std::min(A.Cycles, Recs.size()));
  const HeapGeometry &G = I.RT->config().Geometry;
  std::vector<double> Pauses;
  double MarkMs = 0, RelocMs = 0, RelocGc = 0, RelocMut = 0, EcSmall = 0;
  double Freed = 0, Relocated = 0, Hot = 0, Live = 0;
  for (const CycleRecord &R : Recs) {
    Pauses.insert(Pauses.end(), {R.Stw1Ms, R.Stw2Ms, R.Stw3Ms});
    MarkMs += R.MarkMs;
    RelocMs += R.RelocMs;
    RelocGc += double(R.BytesRelocatedByGc);
    RelocMut += double(R.BytesRelocatedByMutators);
    EcSmall += double(R.SmallPagesInEc);
    Freed += double(R.SmallPagesInEc * G.SmallPageSize +
                    R.MediumPagesInEc * G.MediumPageSize) -
             double(R.BytesRelocated);
    Relocated += double(R.BytesRelocated);
    Hot += double(R.HotBytesMarked);
    Live += double(R.LiveBytesMarked);
  }
  double NC = double(Recs.size());
  J.num("gc.cycles", NC);
  J.num("gc.pause_ms_p50", percentile(Pauses, 0.50));
  J.num("gc.pause_ms_p99", percentile(Pauses, 0.99));
  J.num("gc.mark_ms_per_cycle", ratio(MarkMs, NC));
  J.num("gc.mark_prefetch_per_cycle",
        ratio(Delta("mark.prefetch_issued"), NC));
  J.num("gc.reloc_ms_per_cycle", ratio(RelocMs, NC));
  J.num("gc.reloc_mb_gc", RelocGc / 1048576.0);
  J.num("gc.reloc_mb_mutator", RelocMut / 1048576.0);
  J.num("gc.ec_small_pages_per_cycle", ratio(EcSmall, NC));
  J.num("gc.freed_per_relocated_byte", ratio(Freed, Relocated));
  J.num("gc.hot_live_pct", ratio(100.0 * Hot, Live));
  J.num("gc.site_pretenured_mb", Delta("site.pretenured_bytes") / 1048576.0);
  return T.Violations;
}

/// The probes-on pass: the paper's simulated cycles and misses.
uint64_t simPass(const WorkloadSpec &Spec, uint64_t Seed, JsonOut &J) {
  Instance I(Spec, Seed, /*Probes=*/true);
  PhaseSpec Ph;
  Ph.FixedOps = Spec.SimOps;
  Timed T = measure(I, Spec, 0, Ph);
  const Readout &B = *T.Before, &A = *T.After;
  common(J, I, T);
  CacheCounters Mut = minus(A.Mut, B.Mut), Gc = minus(A.Gc, B.Gc);
  double Ops = double(T.Ops), KOps = Ops / 1e3;
  J.num("sim_cycles_per_op", ratio(double(Mut.Cycles), Ops));
  J.num("sim_gc_cycles_per_op", ratio(double(Gc.Cycles), Ops));
  J.num("l1_miss_per_kop", ratio(double(Mut.L1Misses + Gc.L1Misses), KOps));
  J.num("llc_miss_per_kop",
        ratio(double(Mut.LlcMisses + Gc.LlcMisses), KOps));
  J.num("simcache.mutator_l1_miss_per_kop", ratio(double(Mut.L1Misses), KOps));
  J.num("simcache.gc_l1_miss_per_kop", ratio(double(Gc.L1Misses), KOps));
  J.num("simcache.mutator_llc_miss_per_kop",
        ratio(double(Mut.LlcMisses), KOps));
  J.num("simcache.gc_llc_miss_per_kop", ratio(double(Gc.LlcMisses), KOps));
  J.num("simcache.loads_per_op", ratio(double(Mut.Loads + Gc.Loads), Ops));
  J.num("mutator_probe_events_per_op",
        ratio(double(Mut.Loads + Mut.Stores), Ops));
  J.num("gc_cycles", double(A.Cycles - B.Cycles));
  return T.Violations;
}

/// The traced pass: per-layer span latencies and the time ledger.
uint64_t tracedPass(const WorkloadSpec &Spec, uint64_t Seed, double Seconds,
                    const std::string &OutDir, JsonOut &J) {
  Instance I(Spec, Seed, /*Probes=*/false);
  PhaseSpec Ph;
  Ph.Traced = true;
  Ph.SpanCapacity = SpanCapacity;
  Ph.ClockReadNs = clockReadNs();
  Timed T = measure(I, Spec, Seconds, Ph);
  const Readout &B = *T.Before, &A = *T.After;
  common(J, I, T);

  // Call durations per layer, and self time per layer over all ops.
  std::vector<double> Dur[NumSpanNames];
  double Self[NumSpanNames] = {};
  double MutatorNs = 0, Sampled = 0;
  for (const ClientResult &R : T.Clients) {
    MutatorNs += double(R.EndNs - R.StartNs);
    Sampled += double(R.Spans->sampledOps());
    for (const Span &S : R.Spans->spans())
      if (S.Parent != SpanLog::NoParent)
        Dur[S.Name].push_back(R.Spans->callNs(S));
    for (int N = 0; N < NumSpanNames; ++N)
      Self[N] += R.Spans->selfNs(uint8_t(N), R.Ops);
  }
  J.num("clock_read_ns", Ph.ClockReadNs);
  J.num("sampled_ops", Sampled);
  J.num("runtime.load_ns_p50", percentile(Dur[SpanLoad], 0.50));
  J.num("runtime.load_ns_p99", percentile(Dur[SpanLoad], 0.99));
  J.num("runtime.alloc_ns_p50", percentile(Dur[SpanAlloc], 0.50));
  J.num("runtime.alloc_ns_p99", percentile(Dur[SpanAlloc], 0.99));
  J.num("kv.get_us_p50", percentile(Dur[SpanKvGet], 0.50) / 1e3);
  J.num("kv.get_us_p99", percentile(Dur[SpanKvGet], 0.99) / 1e3);
  J.num("kv.put_us_p50", percentile(Dur[SpanKvPut], 0.50) / 1e3);
  J.num("kv.put_us_p99", percentile(Dur[SpanKvPut], 0.99) / 1e3);
  J.num("kv.remove_us_p99", percentile(Dur[SpanKvRemove], 0.99) / 1e3);

  double Attributed = 0;
  for (int N = 0; N < NumSpanNames; ++N) {
    Attributed += Self[N];
    J.num(std::string("ledger.self_ms.") + spanNameStr(uint8_t(N)),
          Self[N] / 1e6);
  }
  J.num("ledger.mutator_ms", MutatorNs / 1e6);
  J.num("ledger.unattributed_pct",
        ratio(100.0 * (MutatorNs - Attributed), MutatorNs));

  // GC phase time of the cycles in the timed phase, from cycle records.
  std::vector<CycleRecord> Recs = I.RT->gcStats().snapshot();
  double Phase[5] = {};
  for (size_t K = B.Cycles; K < std::min(A.Cycles, Recs.size()); ++K) {
    const CycleRecord &R = Recs[K];
    double Ms[5] = {R.Stw1Ms, R.MarkMs, R.Stw2Ms, R.Stw3Ms, R.RelocMs};
    for (int P = 0; P < 5; ++P)
      Phase[P] += Ms[P];
  }
  const char *PhaseNames[5] = {"stw1", "mark", "stw2", "stw3", "reloc"};
  for (int P = 0; P < 5; ++P)
    J.num(std::string("ledger.gc_ms.") + PhaseNames[P], Phase[P]);

  if (!OutDir.empty()) {
    std::string Path = OutDir + "/spans-" + Spec.Name + "-seed" +
                       std::to_string(Seed) + ".csv";
    std::ofstream F(Path);
    F << "client,op,name,parent,start_ns,end_ns\n";
    for (size_t C = 0; C < T.Clients.size(); ++C)
      for (const Span &S : T.Clients[C].Spans->spans())
        F << C << ',' << S.OpId << ',' << spanNameStr(S.Name) << ','
          << (S.Parent == SpanLog::NoParent ? -1 : int64_t(S.Parent))
          << ',' << S.StartNs << ',' << S.EndNs << '\n';
    if (!F) {
      std::fprintf(stderr, "hcsbench: cannot write %s\n", Path.c_str());
      return T.Violations + 1;
    }
    J.str("spans_file", Path);
  }
  return T.Violations;
}

void setupPass(const WorkloadSpec &Spec, uint64_t Seed, JsonOut &J) {
  std::vector<double> Times;
  for (int K = 0; K < SetupRepetitions; ++K)
    Times.push_back(Instance(Spec, Seed, /*Probes=*/false).SetupS);
  J.arr("setup_s_samples", Times);
  J.num("setup_s", median(Times));
}

int percentilesMode(const std::string &List) {
  std::vector<uint64_t> Samples;
  uint64_t V = 0;
  while (std::cin >> V)
    Samples.push_back(V);
  std::stringstream SS(List);
  std::string P;
  while (std::getline(SS, P, ','))
    std::printf("%.17g\n", percentile(Samples, std::stod(P)));
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse A(Argc, Argv);
  std::string Pcts = A.getString("percentiles", "");
  if (!Pcts.empty())
    return percentilesMode(Pcts);

  WorkloadSpec Spec;
  std::string Name = A.getString("workload", "");
  if (!findWorkload(Name, A.getBool("smoke", false), Spec)) {
    std::fprintf(stderr, "hcsbench: unknown workload '%s'\n", Name.c_str());
    return 2;
  }
  std::string Pass = A.getString("pass", "native");
  uint64_t Seed = uint64_t(A.getInt("seed", 1));
  double Seconds = A.getDouble("seconds", 10);
  std::string OutDir = A.getString("out-dir", "");

  JsonOut J;
  J.str("workload", Spec.Name);
  J.str("pass", Pass);
  J.num("clients", Spec.Clients);
  uint64_t Violations = 0;
  if (Pass == "setup") {
    setupPass(Spec, Seed, J);
  } else if (Pass == "native") {
    Violations = nativePass(Spec, Seed, Seconds, J);
  } else if (Pass == "traced") {
    Violations = tracedPass(Spec, Seed, Seconds, OutDir, J);
  } else if (Pass == "sim") {
    Violations = simPass(Spec, Seed, J);
  } else {
    std::fprintf(stderr, "hcsbench: unknown pass '%s'\n", Pass.c_str());
    return 2;
  }
  std::printf("%s\n", J.finish().c_str());
  return Violations ? 1 : 0;
}
