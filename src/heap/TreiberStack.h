//===- heap/TreiberStack.h - Counted-head lock-free index stack -*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lock-free Treiber stack over 32-bit indices with a counted (versioned)
/// head, used for the allocator's per-shard cached-free-unit lists and the
/// PageRegistry's free-slot recycling. The stack itself stores no nodes:
/// next-links live in caller-owned side storage (one std::atomic<uint32_t>
/// per index), passed in as an accessor. Keeping the links out of the
/// managed memory matters for the free-unit use: a stale popper must never
/// dereference page memory that a winner has already handed to a mutator —
/// with side links it only ever touches always-atomic link words, and its
/// CAS then fails on the version counter.
///
/// ABA / memory-ordering argument (INTERNALS.md §11 walks through this):
///
///  - Head packs (version:32, index:32) into one 64-bit word. Every
///    successful push/pop/popAll CAS bumps the version, so a head value
///    can never recur even if the same index returns to the top between a
///    rival's load and its CAS — the classic Treiber ABA (pop A, rival
///    pops A and B and re-pushes A; naive CAS succeeds and installs B's
///    stale link) is ruled out by construction. The version is 32 bits:
///    wraparound needs 2^32 successful operations inside one rival's
///    load-to-CAS window, which cannot happen with bounded thread counts.
///
///  - push stores the link (relaxed) before a release CAS on Head; pop and
///    popAll load Head with acquire. Every intermediate head transition is
///    itself a read-modify-write, so each pusher's release heads a release
///    sequence that later RMWs extend; an acquire load of any descendant
///    head value therefore synchronizes with *every* push below it, making
///    all link stores — and everything the pushing thread wrote into the
///    managed memory before pushing — visible to the popper. That pair is
///    the handoff edge for recycled page units: whoever allocates into the
///    popped unit may overwrite its bytes without further synchronization.
///
///  - Link loads in pop can be relaxed: the link was written either by the
///    push observed via the acquire above, or by this thread. The CAS
///    failure ordering is relaxed (the retry re-reads everything).
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_HEAP_TREIBERSTACK_H
#define HCSGC_HEAP_TREIBERSTACK_H

#include <atomic>
#include <cstdint>

namespace hcsgc {

/// Lock-free LIFO of uint32_t indices with external link storage.
/// The LinkFn passed to each operation maps an index to its
/// std::atomic<uint32_t> next-link; all calls on one stack must use the
/// same underlying storage.
class CountedIndexStack {
public:
  /// Sentinel for "no index" (empty stack / end of chain).
  static constexpr uint32_t Nil = UINT32_MAX;

  CountedIndexStack() = default;
  CountedIndexStack(const CountedIndexStack &) = delete;
  CountedIndexStack &operator=(const CountedIndexStack &) = delete;

  /// Pushes \p Idx. The caller must own \p Idx exclusively (it is not on
  /// the stack) and have finished all writes to the memory it denotes.
  template <typename LinkFn> void push(uint32_t Idx, LinkFn &&LinkAt) {
    uint64_t Cur = Head.load(std::memory_order_relaxed);
    for (;;) {
      LinkAt(Idx).store(indexOf(Cur), std::memory_order_relaxed);
      uint64_t Next = pack(versionOf(Cur) + 1, Idx);
      if (Head.compare_exchange_weak(Cur, Next, std::memory_order_release,
                                     std::memory_order_relaxed))
        break;
    }
    Size.fetch_add(1, std::memory_order_relaxed);
  }

  /// Pops the most recently pushed index. \returns Nil if empty. On
  /// success the caller owns the index exclusively.
  template <typename LinkFn> uint32_t pop(LinkFn &&LinkAt) {
    uint64_t Cur = Head.load(std::memory_order_acquire);
    for (;;) {
      uint32_t Idx = indexOf(Cur);
      if (Idx == Nil)
        return Nil;
      uint32_t Link = LinkAt(Idx).load(std::memory_order_relaxed);
      uint64_t Next = pack(versionOf(Cur) + 1, Link);
      if (Head.compare_exchange_weak(Cur, Next, std::memory_order_acquire,
                                     std::memory_order_acquire)) {
        Size.fetch_sub(1, std::memory_order_relaxed);
        return Idx;
      }
    }
  }

  /// Detaches the whole chain in one CAS and returns its head index (Nil
  /// if empty). The caller walks the now-private chain via the links and
  /// must call noteDrained with the walked count to keep sizeApprox sane.
  uint32_t popAll() {
    uint64_t Cur = Head.load(std::memory_order_acquire);
    for (;;) {
      uint32_t Idx = indexOf(Cur);
      if (Idx == Nil)
        return Nil;
      uint64_t Next = pack(versionOf(Cur) + 1, Nil);
      if (Head.compare_exchange_weak(Cur, Next, std::memory_order_acquire,
                                     std::memory_order_acquire))
        return Idx;
    }
  }

  /// Subtracts \p N popped-via-popAll indices from the size counter.
  void noteDrained(uint32_t N) {
    Size.fetch_sub(N, std::memory_order_relaxed);
  }

  /// Approximate element count: exact while quiescent, may transiently
  /// run ahead/behind under concurrency (push bumps it after the CAS,
  /// popAll's drain is deferred to the walk). Policy use only.
  size_t sizeApprox() const {
    int64_t N = Size.load(std::memory_order_relaxed);
    return N > 0 ? static_cast<size_t>(N) : 0;
  }

  bool emptyApprox() const {
    return indexOf(Head.load(std::memory_order_relaxed)) == Nil;
  }

private:
  static constexpr uint64_t pack(uint32_t Version, uint32_t Idx) {
    return (static_cast<uint64_t>(Version) << 32) | Idx;
  }
  static constexpr uint32_t indexOf(uint64_t H) {
    return static_cast<uint32_t>(H);
  }
  static constexpr uint32_t versionOf(uint64_t H) {
    return static_cast<uint32_t>(H >> 32);
  }

  std::atomic<uint64_t> Head{pack(0, Nil)};
  /// Signed so a popAll drain racing a push cannot wrap.
  std::atomic<int64_t> Size{0};
};

} // namespace hcsgc

#endif // HCSGC_HEAP_TREIBERSTACK_H
