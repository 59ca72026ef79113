//===- tests/gc/ZeroingContractTest.cpp - new objects arrive zeroed -------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocator never zeroes pages; initializeObject zeroes each object
/// body instead (INTERNALS §11). This test dirties a small heap — every
/// payload word of small, medium and large objects set to ~0 — drops it
/// all, runs cycles so the units return to the free pool, and then checks
/// that objects allocated on the reused units still arrive with every ref
/// slot null and every payload word 0.
///
//===----------------------------------------------------------------------===//

#include "gc/ColoredPtr.h"
#include "runtime/Runtime.h"

#include <gtest/gtest.h>

#include <set>

using namespace hcsgc;

namespace {

constexpr size_t UnitBytes = 64 * 1024;

// 64 KiB units, 512 KiB medium pages: small objects <= 8 KiB, medium
// <= 64 KiB, larger ones get their own page. A 4 MiB heap is mostly
// covered by the dirtying below, so later pages must reuse dirty units.
// TriggerFraction 1.0: cycles run only where the test asks for them, so
// raw reads of a just-allocated object never race a relocation.
GcConfig smallHeapConfig() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = UnitBytes;
  Cfg.Geometry.MediumPageSize = 512 * 1024;
  Cfg.MaxHeapBytes = 4u << 20;
  Cfg.TriggerFraction = 1.0;
  Cfg.AllocatorShards = 1;
  return Cfg;
}

uintptr_t addrOf(const Root &R) { return oopAddr(R.rawOop()); }

/// Units of the reservation that held dirty objects.
class DirtyUnits {
public:
  void add(uintptr_t Addr, size_t Bytes) {
    for (uintptr_t U = Addr / UnitBytes; U <= (Addr + Bytes - 1) / UnitBytes;
         ++U)
      Units.insert(U);
  }
  bool overlaps(uintptr_t Addr, size_t Bytes) const {
    for (uintptr_t U = Addr / UnitBytes; U <= (Addr + Bytes - 1) / UnitBytes;
         ++U)
      if (Units.count(U))
        return true;
    return false;
  }

private:
  std::set<uintptr_t> Units;
};

/// \returns how many body words (ref slots and payload; a ref array's
/// length word excluded) of the object at \p Addr are nonzero.
size_t nonzeroBodyWords(uintptr_t Addr) {
  ObjectView V(Addr);
  const uint64_t *Words = reinterpret_cast<const uint64_t *>(Addr);
  size_t N = 0;
  for (size_t W = V.isRefArray() ? 2 : 1; W < V.sizeWords(); ++W)
    N += Words[W] != 0;
  return N;
}

} // namespace

TEST(ZeroingContractTest, ObjectsOnReusedUnitsArriveZeroed) {
  Runtime RT(smallHeapConfig());
  ClassId SmallDirt = RT.registerClass("zero.SmallDirt", 0, 248);
  ClassId MediumDirt = RT.registerClass("zero.MediumDirt", 0, 16 * 1024);
  ClassId LargeDirt = RT.registerClass("zero.LargeDirt", 0, 256 * 1024);
  ClassId Plain = RT.registerClass("zero.Plain", 3, 40);
  ClassId Medium = RT.registerClass("zero.Medium", 2, 16 * 1024);
  ClassId Large = RT.registerClass("zero.Large", 4, 100 * 1024);
  auto M = RT.attachMutator();
  DirtyUnits Dirty;
  {
    Root Tmp(*M);
    auto Scribble = [&](ClassId Cls, unsigned Count) {
      const ClassInfo &Info = RT.classes().info(Cls);
      for (unsigned I = 0; I < Count; ++I) {
        M->allocate(Tmp, Cls);
        for (uint32_t W = 0; W < Info.PayloadBytes / 8; ++W)
          M->storeWord(Tmp, W, ~int64_t(0));
        Dirty.add(addrOf(Tmp), Info.SizeBytes);
      }
    };
    Scribble(SmallDirt, 8192); // 2 MiB of 256-byte objects
    Scribble(MediumDirt, 64);  // 1 MiB on two medium pages
    Scribble(LargeDirt, 1);
    M->clearRoot(Tmp);
  }
  // Everything is garbage: the dead pages go back to the free pool (two
  // cycles cover a deferred relocation set as well).
  for (int C = 0; C < 3; ++C)
    M->requestGcAndWait();
  uint64_t HitsBefore = RT.metrics().counterValue("alloc.cache.page_hits");

  {
    Root Obj(*M);
    unsigned OnDirt[4] = {0, 0, 0, 0};
    auto Check = [&](unsigned Kind, const char *What) {
      uintptr_t A = addrOf(Obj);
      ObjectView V(A);
      EXPECT_EQ(nonzeroBodyWords(A), 0u)
          << What << " at " << std::hex << A << " arrived dirty";
      OnDirt[Kind] += Dirty.overlaps(A, V.sizeBytes());
    };
    for (unsigned I = 0; I < 4096; ++I) {
      M->allocate(Obj, Plain);
      Check(0, "plain object");
      if (I % 8 == 0) {
        M->allocateRefArray(Obj, 64);
        Check(1, "ref array");
      }
    }
    for (unsigned I = 0; I < 48; ++I) {
      M->allocate(Obj, Medium);
      Check(2, "medium object");
    }
    M->allocate(Obj, Large);
    Check(3, "large object");

    // The checks above only mean something if the objects landed on
    // units the dirtying wrote.
    EXPECT_GT(RT.metrics().counterValue("alloc.cache.page_hits"),
              HitsBefore);
    EXPECT_GT(OnDirt[0], 0u) << "no plain object reused a dirty unit";
    EXPECT_GT(OnDirt[1], 0u) << "no ref array reused a dirty unit";
    EXPECT_GT(OnDirt[2], 0u) << "no medium object reused a dirty unit";
    EXPECT_EQ(OnDirt[3], 1u) << "the large object missed the dirty units";
  }
  M.reset();
}
