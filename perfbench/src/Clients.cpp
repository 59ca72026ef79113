//===- perfbench/src/Clients.cpp - Workloads and load generators ----------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Clients.h"

#include "gc/Safepoint.h"
#include "support/Random.h"

#include <cinttypes>
#include <cstdio>
#include <thread>

using namespace hcsgc;
using namespace perfbench;

namespace {

/// Synth accesses per timed block: a clock-read pair costs more than a
/// typical access (tens of ns), too much to time accesses one by one.
constexpr unsigned SynthBlock = 1000;
/// Synth spans: one access in 63 (coprime with GarbageEvery = 10, so the
/// sampled accesses allocate as often as the population does). Every
/// allocation is timed; a load is too short to time on every call. One
/// sampled access in 31 keeps its spans: kept accesses are then 63 * 31
/// apart, also coprime with 10, so some of them allocate wherever the
/// phase starts (an even stride would skip every allocation half the time).
constexpr uint64_t SynthSpanEvery = 63;
constexpr unsigned SynthSpanKeepEvery = 31;
/// KV: one op in 32 is timed for the latency percentiles; in the traced
/// pass every op is timed and one in 16 is sampled. Of the sampled ops,
/// one in KeepEvery also keeps its spans for the span file.
constexpr uint64_t KvLatencyEvery = 32;
constexpr uint64_t KvSpanEvery = 16;
constexpr unsigned KvSpanKeepEvery = 16;
/// KV clients read the clock for the deadline every 16 ops.
constexpr uint64_t KvDeadlineEvery = 16;

uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

// --- synth_locality --------------------------------------------------------

class SynthWorkload final : public Workload {
public:
  SynthWorkload(const WorkloadSpec &Spec, uint64_t Seed)
      : S(Spec), SeqSeed(mix64(Seed ^ 0x5E0C0DEull)), Pos(Spec.InnerIters) {
    FullSum = prefixSum(S.InnerIters);
  }

  void load(Mutator &M) override {
    Runtime &RT = M.runtime();
    ElemCls = RT.registerClass("perfbench.Element", 0, 24);
    GarbageCls = RT.registerClass("perfbench.Garbage", 0,
                                  S.GarbagePayloadBytes);
    Arr = std::make_unique<Root>(M);
    Root Tmp(M);
    M.allocateRefArray(*Arr, static_cast<uint32_t>(S.ArraySize));
    for (size_t I = 0; I < S.ArraySize; ++I) {
      M.allocate(Tmp, ElemCls);
      M.storeWord(Tmp, 0, static_cast<int64_t>(I));
      M.storeElem(*Arr, static_cast<uint32_t>(I), Tmp);
    }
  }

  std::vector<ClientResult> run(Mutator &M, const PhaseSpec &Ph) override {
    std::vector<ClientResult> Out(1);
    if (Ph.RecordLatency)
      Out[0].startLatency();
    if (Ph.Traced) {
      Out[0].Spans = std::make_unique<SpanLog>(
          Ph.SpanCapacity, SynthSpanKeepEvery, Ph.ClockReadNs);
      loop<true>(M, Ph, Out[0]);
    } else {
      loop<false>(M, Ph, Out[0]);
    }
    return Out;
  }

  uint64_t verify(Mutator &M, uint64_t &Checksum) override {
    uint64_t Bad = 0;
    uint64_t Want = (Ord / S.InnerIters) * FullSum +
                    prefixSum(Ord % S.InnerIters);
    if (Sum != Want) {
      std::fprintf(stderr,
                   "synth: checksum %" PRIu64 " after %" PRIu64
                   " accesses, generator says %" PRIu64 "\n",
                   Sum, Ord, Want);
      ++Bad;
    }
    Root Tmp(M);
    for (size_t I = 0; I < S.ArraySize; ++I) {
      M.loadElem(*Arr, static_cast<uint32_t>(I), Tmp);
      if (Tmp.isNull() ||
          M.loadWord(Tmp, 0) != static_cast<int64_t>(I)) {
        if (Bad < 8)
          std::fprintf(stderr, "synth: element %zu lost its payload\n", I);
        ++Bad;
      }
    }
    Checksum = Sum;
    return Bad;
  }

  unsigned opsPerLatencySample() const override { return SynthBlock; }

private:
  /// Sum of the first \p N indices of the repeating sequence.
  uint64_t prefixSum(size_t N) const {
    SplitMix64 R(SeqSeed);
    uint64_t Acc = 0;
    for (size_t I = 0; I < N; ++I)
      Acc += R.nextBelow(S.ArraySize);
    return Acc;
  }

  template <bool Traced>
  void loop(Mutator &M, const PhaseSpec &Ph, ClientResult &R) {
    Root Tmp(M), Garbage(M);
    SpanLog *Log = R.Spans.get();
    uint64_t B0 = nowNs();
    R.StartNs = B0;
    for (;;) {
      if (Ph.FixedOps ? R.Ops >= Ph.FixedOps : B0 >= Ph.DeadlineNs)
        break;
      for (unsigned J = 0; J < SynthBlock; ++J) {
        bool Sample = false;
        SampledOp Op;
        if constexpr (Traced) {
          Sample = Ord % SynthSpanEvery == 0;
          if (Sample) {
            Op.OpId = Ord;
            Op.StartNs = nowNs();
          }
        }
        if (Pos == S.InnerIters) {
          Rng.seed(SeqSeed); // The order repeats every InnerIters reads.
          Pos = 0;
        }
        uint32_t Idx = static_cast<uint32_t>(Rng.nextBelow(S.ArraySize));
        ++Pos;
        uint64_t T0 = Sample ? nowNs() : 0;
        M.loadElem(*Arr, Idx, Tmp);
        Sum += static_cast<uint64_t>(M.loadWord(Tmp, 0));
        if (Sample)
          Op.call(SpanLoad, T0, nowNs());
        M.simulateWork(S.ComputeCyclesPerOp);
        if (++Ord % S.GarbageEvery == 0) {
          uint64_t A0 = Traced ? nowNs() : 0;
          bool Ok = true;
          try {
            M.allocate(Garbage, GarbageCls);
          } catch (const HeapExhaustedError &) {
            Ok = false;
            ++R.Exhausted;
          }
          if constexpr (Traced) {
            uint64_t A1 = nowNs();
            Log->account(SpanAlloc, A1 - A0);
            if (Sample)
              Op.call(SpanAlloc, A0, A1);
          }
          if (Ok)
            M.storeWord(Garbage, 0, static_cast<int64_t>(Ord));
        }
        if (Sample) {
          Op.EndNs = nowNs();
          Log->commit(Op);
        }
      }
      uint64_t B1 = nowNs();
      if (Ph.RecordLatency)
        R.recordLatency(B1 - B0);
      R.Ops += SynthBlock;
      if (R.Ops == Ph.RssAtOps)
        R.RssMb = peakRssMb();
      B0 = B1;
    }
    R.EndNs = B0;
  }

  WorkloadSpec S;
  uint64_t SeqSeed;
  size_t Pos; ///< Position in the repeating sequence.
  uint64_t FullSum = 0;
  ClassId ElemCls = 0, GarbageCls = 0;
  std::unique_ptr<Root> Arr;
  SplitMix64 Rng{0};
  uint64_t Ord = 0;      ///< Accesses issued so far, over all phases.
  uint64_t Sum = 0;      ///< Sum of payloads read.
};

// --- kv_* ------------------------------------------------------------------

struct KvOp {
  enum Kind : uint8_t { Read, Update, Insert, Remove } K;
  uint64_t Key;
};

/// One client's op stream: a pure function of (seed, client, ordinal)
/// and of which earlier ops were applied (a churn insert that hit heap
/// exhaustion is retried on the next lap).
class KvOpStream {
public:
  KvOpStream(const WorkloadSpec &S, const KvKeySpace &Keys, uint64_t Seed,
             unsigned Client)
      : S(S), Keys(Keys), Rng(mix64(Seed ^ (0xC11E47ull + Client))),
        Lo(S.Records + Client * S.ChurnKeys / S.Clients),
        Hi(S.Records + (Client + 1) * S.ChurnKeys / S.Clients),
        Present(Hi - Lo, false) {}

  KvOp next() {
    ++Ord;
    uint64_t Dice = Rng.nextBelow(100);
    if (Dice < S.ReadPct)
      return {KvOp::Read, Keys.pick(Rng)};
    if (Dice < S.ReadPct + S.UpdatePct || Lo == Hi)
      return {KvOp::Update, Keys.pick(Rng)};
    uint64_t Key = Lo + Cursor;
    Cursor = (Cursor + 1) % (Hi - Lo);
    return {Present[Key - Lo] ? KvOp::Remove : KvOp::Insert, Key};
  }

  /// Commits the churn state of \p Op; \p Applied is false when it was
  /// abandoned to heap exhaustion.
  void done(const KvOp &Op, bool Applied) {
    if (Applied && (Op.K == KvOp::Insert || Op.K == KvOp::Remove))
      Present[Op.Key - Lo] = Op.K == KvOp::Insert;
  }

  uint64_t ordinal() const { return Ord; }
  uint64_t churnLo() const { return Lo; }
  bool present(uint64_t Key) const { return Present[Key - Lo]; }
  size_t presentCount() const {
    size_t N = 0;
    for (bool P : Present)
      N += P;
    return N;
  }

private:
  const WorkloadSpec &S;
  const KvKeySpace &Keys;
  SplitMix64 Rng;
  uint64_t Lo, Hi;
  std::vector<bool> Present;
  uint64_t Cursor = 0;
  uint64_t Ord = 0;
};

class KvBench final : public Workload {
public:
  KvBench(const WorkloadSpec &Spec, uint64_t Seed)
      : S(Spec), Keys(keyParams(Spec, Seed)),
        ModelVersion(Spec.Records, 1) {
    Streams.reserve(S.Clients);
    Model.reserve(S.Clients);
    for (unsigned C = 0; C < S.Clients; ++C) {
      Streams.emplace_back(S, Keys, Seed, C);
      Model.emplace_back(S, Keys, Seed, C);
    }
    Failed.resize(S.Clients);
    ModelFailedPos.resize(S.Clients, 0);
  }

  void load(Mutator &M) override {
    KvStoreParams P;
    P.Capacity = S.Records + S.ChurnKeys;
    P.Shards = 16;
    P.ValueWords = 8;
    Store = std::make_unique<KvStore>(M, P);
    for (uint64_t K = 0; K < S.Records; ++K)
      Store->put(M, K);
  }

  std::vector<ClientResult> run(Mutator &M, const PhaseSpec &Ph) override {
    std::vector<ClientResult> Out(S.Clients);
    Runtime &RT = M.runtime();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < S.Clients; ++C)
      Threads.emplace_back([&, C] {
        auto CM = RT.attachMutator();
        ClientResult &R = Out[C];
        if (Ph.RecordLatency)
          R.startLatency();
        if (Ph.Traced) {
          R.Spans = std::make_unique<SpanLog>(
              Ph.SpanCapacity, KvSpanKeepEvery, Ph.ClockReadNs);
          loop<true>(*CM, C, Ph, R);
        } else {
          loop<false>(*CM, C, Ph, R);
        }
      });
    // The main mutator waits as safepoint-blocked so pauses proceed.
    BlockedScope B(RT.safepoints());
    for (std::thread &T : Threads)
      T.join();
    return Out;
  }

  uint64_t verify(Mutator &M, uint64_t &Checksum) override {
    advanceModel();
    uint64_t Bad = 0;
    auto Report = [&](const char *What, uint64_t Key, uint64_t Got,
                      uint64_t Want) {
      if (Bad++ < 8)
        std::fprintf(stderr,
                     "kv: key %" PRIu64 " %s: got %" PRIu64
                     ", model says %" PRIu64 "\n",
                     Key, What, Got, Want);
    };
    size_t Live = S.Records;
    for (uint64_t K = 0; K < S.Records; ++K) {
      uint64_t V = 0;
      KvReadStatus St = Store->get(M, K, &V);
      if (St != KvReadStatus::Hit)
        Report("base key not readable", K, uint64_t(St), 0);
      else if (V != ModelVersion[K])
        Report("version", K, V, ModelVersion[K]);
    }
    for (const KvOpStream &St : Model)
      Live += St.presentCount();
    for (uint64_t K = S.Records; K < S.Records + S.ChurnKeys; ++K) {
      bool Want = ownerOf(K).present(K);
      uint64_t V = 0;
      KvReadStatus St = Store->get(M, K, &V);
      if (Want && (St != KvReadStatus::Hit || V != 1))
        Report("churn key missing", K, V, 1);
      else if (!Want && St != KvReadStatus::Miss)
        Report("churn key present after remove", K, V, 0);
    }
    KvScanResult Scan = Store->scanAll(M);
    if (Scan.Corrupt)
      Report("scan found corrupt records", 0, Scan.Corrupt, 0);
    if (Scan.Live != Live)
      Report("scan live count", 0, Scan.Live, Live);
    Checksum = Scan.Checksum;
    return Bad;
  }

  unsigned opsPerLatencySample() const override { return 1; }

private:
  static KvKeySpace::Params keyParams(const WorkloadSpec &S, uint64_t Seed) {
    KvKeySpace::Params P;
    P.Keys = S.Records;
    P.D = S.Dist;
    P.Theta = 0.99;
    P.Seed = mix64(Seed ^ 0x6E75ull);
    return P;
  }

  const KvOpStream &ownerOf(uint64_t ChurnKey) const {
    for (size_t C = Model.size(); C-- > 0;)
      if (ChurnKey >= Model[C].churnLo())
        return Model[C];
    return Model.front();
  }

  /// Replays each client's stream up to the ordinal it reached, skipping
  /// the ops it abandoned to heap exhaustion.
  void advanceModel() {
    std::vector<std::thread> Threads;
    std::vector<std::vector<uint64_t>> Updates(S.Clients);
    for (unsigned C = 0; C < S.Clients; ++C)
      Threads.emplace_back([&, C] {
        KvOpStream &St = Model[C];
        const std::vector<uint64_t> &F = Failed[C];
        size_t &FP = ModelFailedPos[C];
        while (St.ordinal() < Streams[C].ordinal()) {
          uint64_t Ord = St.ordinal();
          KvOp Op = St.next();
          bool Applied = !(FP < F.size() && F[FP] == Ord);
          if (!Applied)
            ++FP;
          if (Applied && Op.K == KvOp::Update)
            Updates[C].push_back(Op.Key);
          St.done(Op, Applied);
        }
      });
    for (std::thread &T : Threads)
      T.join();
    for (const std::vector<uint64_t> &U : Updates)
      for (uint64_t K : U)
        ++ModelVersion[K];
  }

  /// \returns false when the op was abandoned to heap exhaustion (the
  /// store is then unchanged).
  bool execute(Mutator &M, const KvOp &Op, ClientResult &R) {
    try {
      switch (Op.K) {
      case KvOp::Read: {
        KvReadStatus St = Store->get(M, Op.Key);
        if (St == KvReadStatus::Miss)
          ++R.Misses; // Base keys are never removed.
        else if (St == KvReadStatus::Corrupt)
          ++R.Corrupt;
        break;
      }
      case KvOp::Update:
      case KvOp::Insert:
        Store->put(M, Op.Key);
        break;
      case KvOp::Remove:
        if (!Store->remove(M, Op.Key))
          ++R.Corrupt; // This client inserted it; it must be there.
        break;
      }
    } catch (const HeapExhaustedError &) {
      ++R.Exhausted;
      return false;
    }
    return true;
  }

  static uint8_t spanOf(KvOp::Kind K) {
    return K == KvOp::Read     ? SpanKvGet
           : K == KvOp::Remove ? SpanKvRemove
                               : SpanKvPut;
  }

  template <bool Traced>
  void loop(Mutator &M, unsigned C, const PhaseSpec &Ph, ClientResult &R) {
    KvOpStream &St = Streams[C];
    SpanLog *Log = R.Spans.get();
    R.StartNs = nowNs();
    for (;;) {
      if (Ph.FixedOps ? R.Ops == Ph.FixedOps
                      : R.Ops % KvDeadlineEvery == 0 &&
                            nowNs() >= Ph.DeadlineNs)
        break;
      uint64_t Ord = St.ordinal();
      bool Time = Ph.RecordLatency && Ord % KvLatencyEvery == 0;
      bool Sample = false;
      SampledOp SOp;
      if constexpr (Traced) {
        Sample = Ord % KvSpanEvery == 0;
        if (Sample) {
          SOp.OpId = Ord;
          SOp.StartNs = nowNs();
        }
      }
      KvOp Op = St.next();
      bool Clocked = Time || Traced;
      uint64_t T0 = Clocked ? nowNs() : 0;
      bool Applied = execute(M, Op, R);
      if (Clocked) {
        uint64_t T1 = nowNs();
        if (Time)
          R.recordLatency(T1 - T0);
        if constexpr (Traced) {
          Log->account(spanOf(Op.K), T1 - T0);
          if (Sample)
            SOp.call(spanOf(Op.K), T0, T1);
        }
      }
      if (!Applied)
        Failed[C].push_back(Ord);
      St.done(Op, Applied);
      M.simulateWork(S.ComputeCyclesPerOp);
      if (++R.Ops == Ph.RssAtOps && C == 0)
        R.RssMb = peakRssMb();
      if (Sample) {
        SOp.EndNs = nowNs();
        Log->commit(SOp);
      }
    }
    R.EndNs = nowNs();
  }

  WorkloadSpec S;
  KvKeySpace Keys;
  std::unique_ptr<KvStore> Store;
  std::vector<KvOpStream> Streams; ///< What the clients issue.
  std::vector<KvOpStream> Model;   ///< Heap-free replay of the same.
  std::vector<std::vector<uint64_t>> Failed; ///< Abandoned ordinals.
  std::vector<size_t> ModelFailedPos;
  std::vector<uint64_t> ModelVersion; ///< Base key -> expected version.
};

} // namespace

bool perfbench::findWorkload(const std::string &Name, bool Smoke,
                             WorkloadSpec &W) {
  W = WorkloadSpec();
  W.Name = Name;
  if (Name == "synth_locality") {
    // §4.4 / Fig. 4, config 16 (H1 CP1 CC1.0 LZ1): relocation in access
    // order is the mechanism the paper measures. The array (0.64 MB of
    // elements, 0.16 MB of references) fits a core's private L2 with room
    // for the garbage stream, so native time does not follow what other
    // tenants do to a shared L3; at 200k elements it did (README,
    // "Steadiness"). The simulated L3 (4 MB) holds it too, so the
    // locality gain shows in L1/L2 misses and cycles, not LLC misses.
    W.ConfigId = 16;
    W.HeapMb = Smoke ? 8 : 24;
    W.ArraySize = Smoke ? 10000 : 20000;
    W.InnerIters = Smoke ? 4000 : 8000;
    W.ComputeCyclesPerOp = 40;
    // Several GC cycles, so the hot set is laid out before timing.
    W.WarmupOps = Smoke ? 16000 : 2000000;
    // GC cycles are whole events: 8M accesses span ~30 of them, so one
    // more or fewer moves the GC-thread cycles per op by a few percent.
    W.SimOps = Smoke ? 40000 : 8000000;
    W.RssOps = Smoke ? 100000 : 40000000;
    return true;
  }
  bool Zipf = Name == "kv_zipf_tight";
  if (!Zipf && Name != "kv_uniform_write")
    return false;
  W.Kv = true;
  W.Clients = 3;
  W.ComputeCyclesPerOp = 64;
  W.Records = Smoke ? 10000 : 100000;
  W.ChurnKeys = W.Records / 8;
  W.WarmupOps = Smoke ? 5000 : 50000;
  if (Zipf) {
    // Hot records buried among cold ones under a tight heap: config 21
    // (16 + temperature + site profiles with pretenuring). Clients still
    // stall at 32 MB; at 24 MB and below the collector aborts (README,
    // "Known defects").
    W.ConfigId = 21;
    W.HeapMb = Smoke ? 8 : 32;
    // Few ops allocate, so GC cycles are rare: 7.5M ops span about a
    // dozen, enough that one more or fewer moves GC cycles per op little.
    W.SimOps = Smoke ? 10000 : 2500000;
    W.RssOps = Smoke ? 50000 : 5000000;
    W.Dist = KvKeySpace::Dist::Zipf;
    W.ReadPct = 90;
    W.UpdatePct = 5;
  } else {
    // Allocation-dominated, no hot set, unmodified ZGC (config 0). At
    // 32 MB these clients already stall; 40 MB keeps the GC ahead.
    W.ConfigId = 0;
    W.HeapMb = Smoke ? 8 : 40;
    W.SimOps = Smoke ? 10000 : 1000000;
    W.RssOps = Smoke ? 50000 : 4000000;
    W.Dist = KvKeySpace::Dist::Uniform;
    W.ReadPct = 50;
    W.UpdatePct = 40;
  }
  return true;
}

std::unique_ptr<Workload> perfbench::makeWorkload(const WorkloadSpec &S,
                                                  uint64_t Seed) {
  if (S.Kv)
    return std::make_unique<KvBench>(S, Seed);
  return std::make_unique<SynthWorkload>(S, Seed);
}
