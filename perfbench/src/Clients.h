//===- perfbench/src/Clients.h - Workloads and load generators -*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads and their closed-loop clients. Each workload
/// owns its seeded input generator and a heap-free model of it, so every
/// quiescent point of a pass can be checked against what the generator
/// says the program must hold:
///
///  - synth_locality: one client reads a 32-byte-element array in a
///    seeded random order that repeats every InnerIters accesses, and
///    allocates garbage every GarbageEvery-th access (the paper's §4.4
///    synthetic). The model is the closed-form sum of the indices read.
///  - kv_*: Clients mutator threads drive one managed KvStore with a
///    seeded get/put/churn mix. Every op is a pure function of (seed,
///    client, op ordinal), so the model replays the op streams without a
///    heap and predicts each key's version and presence.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_PERFBENCH_CLIENTS_H
#define HCSGC_PERFBENCH_CLIENTS_H

#include "Ledger.h"

#include "runtime/Runtime.h"
#include "workloads/KvWorkload.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Fixed parameters of one named workload.
struct WorkloadSpec {
  std::string Name;
  bool Kv = false;
  int ConfigId = 0;  ///< harness table2Config id.
  size_t HeapMb = 24;
  uint64_t ComputeCyclesPerOp = 40; ///< Simulated think time per op.
  // synth_locality
  size_t ArraySize = 0;
  size_t InnerIters = 0; ///< Length of the repeating access sequence.
  unsigned GarbageEvery = 10;
  uint32_t GarbagePayloadBytes = 248;
  // kv_*
  size_t Records = 0;   ///< Base keys: loaded at setup, never removed.
  size_t ChurnKeys = 0; ///< Keys toggled by insert/remove churn.
  hcsgc::KvKeySpace::Dist Dist = hcsgc::KvKeySpace::Dist::Uniform;
  unsigned ReadPct = 0, UpdatePct = 0; ///< Remainder is churn.
  unsigned Clients = 1;
  // Op counts per client.
  uint64_t WarmupOps = 0; ///< Untimed, fixed: ends at the checkpoint.
  uint64_t SimOps = 0;    ///< Timed phase of the probes-on pass.
  uint64_t RssOps = 0;    ///< Native timed ops after which RSS is read.
};

/// \returns false if \p Name is not a workload. \p Smoke shrinks every
/// size so a whole run takes seconds.
bool findWorkload(const std::string &Name, bool Smoke, WorkloadSpec &Out);

/// How long a phase runs and what it records.
struct PhaseSpec {
  uint64_t FixedOps = 0;   ///< Per client; 0 = run until DeadlineNs.
  uint64_t DeadlineNs = 0; ///< nowNs() value at which clients stop.
  bool RecordLatency = false;
  bool Traced = false;
  size_t SpanCapacity = 0; ///< Per client, when Traced.
  double ClockReadNs = 0;  ///< Cost of one nowNs(), when Traced.
  uint64_t RssAtOps = 0;   ///< Client 0 reads peak RSS after this many.
};

/// What one client did in one phase.
struct ClientResult {
  uint64_t Ops = 0;
  uint64_t Exhausted = 0; ///< Ops abandoned to HeapExhaustedError.
  uint64_t Misses = 0;    ///< Base-key read misses.
  uint64_t Corrupt = 0;   ///< Corrupt reads, and removes of absent keys.
  uint64_t StartNs = 0, EndNs = 0;
  /// KV: ns of each sampled op. Synth: ns of each 1,000-access block.
  /// Sized and touched before the phase, so peak RSS does not grow with
  /// throughput; samples past the capacity are dropped.
  std::vector<uint32_t> LatNs;
  size_t LatCount = 0;
  double RssMb = 0; ///< Peak RSS at PhaseSpec::RssAtOps (client 0).
  std::unique_ptr<SpanLog> Spans;

  static constexpr size_t LatCapacity = size_t(1) << 19;

  void startLatency() { LatNs.assign(LatCapacity, 0); }
  void recordLatency(uint64_t Ns) {
    if (LatCount < LatNs.size())
      LatNs[LatCount++] = Ns > UINT32_MAX ? UINT32_MAX : uint32_t(Ns);
  }
  uint64_t failed() const { return Exhausted + Misses + Corrupt; }
};

/// One workload instance bound to a runtime. Created and driven from the
/// thread that owns \p M (the "main" mutator).
class Workload {
public:
  virtual ~Workload() = default;

  /// The initial data load (part of setup).
  virtual void load(hcsgc::Mutator &M) = 0;

  /// Runs one closed-loop phase on all clients and joins them.
  virtual std::vector<ClientResult> run(hcsgc::Mutator &M,
                                        const PhaseSpec &Ph) = 0;

  /// Checks the quiescent heap against the model of every op issued so
  /// far. \returns the number of violations (details on stderr) and
  /// stores the schedule-invariant checksum in \p Checksum.
  virtual uint64_t verify(hcsgc::Mutator &M, uint64_t &Checksum) = 0;

  /// Accesses per timed-latency sample (1000 for synth blocks, 1 for KV).
  virtual unsigned opsPerLatencySample() const = 0;
};

/// Builds \p S's input generator for \p Seed; the heap is touched only
/// by Workload::load.
std::unique_ptr<Workload> makeWorkload(const WorkloadSpec &S, uint64_t Seed);

} // namespace perfbench

#endif // HCSGC_PERFBENCH_CLIENTS_H
