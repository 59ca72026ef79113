//===- tests/heap/PageAllocatorTest.cpp ----------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "heap/PageAllocator.h"

#include <gtest/gtest.h>

using namespace hcsgc;

namespace {

HeapGeometry smallGeo() {
  HeapGeometry G;
  G.SmallPageSize = 64 * 1024;
  G.MediumPageSize = 1024 * 1024;
  return G;
}

} // namespace

TEST(PageAllocatorTest, AllocatesZeroedSmallPage) {
  PageAllocator A(smallGeo(), 4 << 20);
  Page *P = A.allocatePage(PageSizeClass::Small, 100, 1);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->size(), 64u * 1024);
  EXPECT_EQ(P->allocSeq(), 1u);
  EXPECT_EQ(A.usedBytes(), 64u * 1024);
  // Zero only because a never-used unit is fresh anonymous mmap memory:
  // recycled units keep their old bytes (objects are zeroed one by one).
  for (size_t I = 0; I < P->size(); I += 4096)
    EXPECT_EQ(*reinterpret_cast<uint64_t *>(P->begin() + I), 0u);
}

TEST(PageAllocatorTest, PageTableCoversWholePage) {
  PageAllocator A(smallGeo(), 4 << 20);
  Page *P = A.allocatePage(PageSizeClass::Small, 100, 0);
  EXPECT_EQ(A.pageTable().lookup(P->begin()), P);
  EXPECT_EQ(A.pageTable().lookup(P->end() - 8), P);
}

TEST(PageAllocatorTest, MediumPageSpansMultipleUnits) {
  PageAllocator A(smallGeo(), 8 << 20);
  Page *P = A.allocatePage(PageSizeClass::Medium, 500000, 0);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->size(), 1024u * 1024);
  // Every small-page-sized unit inside must map to it.
  for (uintptr_t Addr = P->begin(); Addr < P->end(); Addr += 64 * 1024)
    EXPECT_EQ(A.pageTable().lookup(Addr), P);
}

TEST(PageAllocatorTest, LargePageRoundsToUnits) {
  PageAllocator A(smallGeo(), 8 << 20);
  size_t Obj = 200 * 1000; // > mediumObjectMax (128K)
  ASSERT_EQ(smallGeo().sizeClassFor(Obj), PageSizeClass::Large);
  Page *P = A.allocatePage(PageSizeClass::Large, Obj, 0);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->size() % (64 * 1024), 0u);
  EXPECT_GE(P->size(), Obj);
}

TEST(PageAllocatorTest, MaxHeapEnforced) {
  PageAllocator A(smallGeo(), 256 * 1024); // 4 small pages
  std::vector<Page *> Pages;
  for (int I = 0; I < 4; ++I) {
    Page *P = A.allocatePage(PageSizeClass::Small, 64, 0);
    ASSERT_NE(P, nullptr);
    Pages.push_back(P);
  }
  EXPECT_EQ(A.allocatePage(PageSizeClass::Small, 64, 0), nullptr);
  // Force bypasses the limit (relocation headroom).
  Page *Forced = A.allocatePage(PageSizeClass::Small, 64, 0, true);
  EXPECT_NE(Forced, nullptr);
}

TEST(PageAllocatorTest, ReleaseMakesRoomAgain) {
  PageAllocator A(smallGeo(), 128 * 1024); // 2 pages
  Page *P1 = A.allocatePage(PageSizeClass::Small, 64, 0);
  Page *P2 = A.allocatePage(PageSizeClass::Small, 64, 0);
  ASSERT_TRUE(P1 && P2);
  EXPECT_EQ(A.allocatePage(PageSizeClass::Small, 64, 0), nullptr);
  uintptr_t Freed = P1->begin();
  A.releasePage(P1);
  EXPECT_EQ(A.usedBytes(), 64u * 1024);
  Page *P3 = A.allocatePage(PageSizeClass::Small, 64, 0);
  ASSERT_NE(P3, nullptr);
  EXPECT_EQ(P3->begin(), Freed); // range reused
}

TEST(PageAllocatorTest, QuarantineAccountingAndRetire) {
  PageAllocator A(smallGeo(), 4 << 20);
  Page *P = A.allocatePage(PageSizeClass::Small, 64, 0);
  ASSERT_NE(P, nullptr);
  size_t PageBytes = P->size();
  P->setState(PageState::Quarantined);
  A.quarantinePage(P);
  EXPECT_EQ(A.usedBytes(), 0u);
  EXPECT_EQ(A.quarantinedBytes(), PageBytes);
  // Quarantined pages keep their page-table mapping (stale pointers are
  // still remapped through them).
  EXPECT_EQ(A.pageTable().lookup(P->begin()), P);
  EXPECT_EQ(A.quarantinedPagesSnapshot().size(), 1u);
  uintptr_t Begin = P->begin();
  A.releasePage(P);
  EXPECT_EQ(A.quarantinedBytes(), 0u);
  EXPECT_EQ(A.pageTable().lookup(Begin), nullptr);
}

TEST(PageAllocatorTest, RunCoalescingAllowsMediumAfterSmallFrees) {
  HeapGeometry Geo = smallGeo();
  // Reservation just big enough that a medium page requires coalesced
  // space (16 units reserved).
  PageAllocator A(Geo, 1 << 20, 1 << 20);
  std::vector<Page *> Small;
  for (int I = 0; I < 16; ++I) {
    Page *P = A.allocatePage(PageSizeClass::Small, 64, 0);
    ASSERT_NE(P, nullptr);
    Small.push_back(P);
  }
  EXPECT_EQ(A.allocatePage(PageSizeClass::Medium, 300000, 0), nullptr);
  for (Page *P : Small)
    A.releasePage(P);
  Page *M = A.allocatePage(PageSizeClass::Medium, 300000, 0);
  EXPECT_NE(M, nullptr);
}

TEST(PageAllocatorTest, ActiveSnapshotTracksPages) {
  PageAllocator A(smallGeo(), 4 << 20);
  EXPECT_TRUE(A.activePagesSnapshot().empty());
  Page *P1 = A.allocatePage(PageSizeClass::Small, 64, 0);
  Page *P2 = A.allocatePage(PageSizeClass::Small, 64, 0);
  auto Snap = A.activePagesSnapshot();
  EXPECT_EQ(Snap.size(), 2u);
  A.releasePage(P1);
  EXPECT_EQ(A.activePagesSnapshot().size(), 1u);
  EXPECT_EQ(A.activePagesSnapshot()[0], P2);
}
