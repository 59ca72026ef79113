//===- tests/heap/ObjectModelTest.cpp ------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "heap/ObjectModel.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace hcsgc;

TEST(ObjectModelTest, HeaderRoundTrip) {
  uint64_t H = makeHeader(/*SizeWords=*/12, /*Cls=*/77, /*NumRefs=*/3,
                          OF_None);
  alignas(8) uint64_t Buf[16] = {H};
  ObjectView V(reinterpret_cast<uintptr_t>(Buf));
  EXPECT_EQ(V.sizeWords(), 12u);
  EXPECT_EQ(V.sizeBytes(), 96u);
  EXPECT_EQ(V.classId(), 77);
  EXPECT_EQ(V.numRefs(), 3u);
  EXPECT_FALSE(V.isRefArray());
}

TEST(ObjectModelTest, RefsFirstLayout) {
  alignas(8) uint64_t Buf[8];
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Buf);
  initializeObject(Addr, /*SizeWords=*/6, /*Cls=*/1, /*NumRefs=*/2,
                   OF_None, 0);
  ObjectView V(Addr);
  EXPECT_EQ(V.refSlotAddr(0), Addr + 8);
  EXPECT_EQ(V.refSlotAddr(1), Addr + 16);
  EXPECT_EQ(V.payloadAddr(), Addr + 24);
  EXPECT_EQ(V.payloadBytes(), 24u);
}

TEST(ObjectModelTest, RefArrayLayout) {
  alignas(8) uint64_t Buf[12];
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Buf);
  uint32_t Len = 5;
  size_t Bytes = refArraySizeFor(Len);
  EXPECT_EQ(Bytes, 8u + 8u + 40u);
  initializeObject(Addr, static_cast<uint32_t>(Bytes / 8), /*Cls=*/0, 0,
                   OF_RefArray, Len);
  ObjectView V(Addr);
  EXPECT_TRUE(V.isRefArray());
  EXPECT_EQ(V.numRefs(), Len);
  EXPECT_EQ(V.refSlotAddr(0), Addr + 16); // after header + length word
  EXPECT_EQ(V.refSlotAddr(4), Addr + 48);
}

TEST(ObjectModelTest, InitializeZeroesBodyOfDirtyMemory) {
  // Pages are handed out dirty: initializeObject alone must null every
  // ref slot and clear every payload byte, and touch nothing past the
  // object.
  constexpr uint64_t Dirt = 0xABABABABABABABABull;
  alignas(8) uint64_t Buf[16];
  std::memset(Buf, 0xAB, sizeof(Buf));
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Buf);
  initializeObject(Addr, /*SizeWords=*/6, /*Cls=*/3, /*NumRefs=*/2,
                   OF_None, 0);
  ObjectView V(Addr);
  EXPECT_EQ(V.header(), makeHeader(6, 3, 2, OF_None));
  for (uint32_t I = 0; I < V.numRefs(); ++I)
    EXPECT_EQ(*V.refSlot(I), NullOop) << "ref slot " << I;
  for (size_t W = 3; W < 6; ++W)
    EXPECT_EQ(Buf[W], 0u) << "payload word " << W - 3;
  EXPECT_EQ(Buf[6], Dirt) << "zeroing ran past the object";

  // A ref array: header, length word, then null elements.
  std::memset(Buf, 0xAB, sizeof(Buf));
  uint32_t Len = 4;
  initializeObject(Addr, static_cast<uint32_t>(refArraySizeFor(Len) / 8),
                   /*Cls=*/0, 0, OF_RefArray, Len);
  EXPECT_EQ(V.numRefs(), Len);
  for (uint32_t I = 0; I < Len; ++I)
    EXPECT_EQ(*V.refSlot(I), NullOop) << "element " << I;
  EXPECT_EQ(Buf[2 + Len], Dirt) << "zeroing ran past the array";
}

TEST(ObjectModelTest, ObjectSizeForAlignsUp) {
  EXPECT_EQ(objectSizeFor(0, 0), 8u);   // header only
  EXPECT_EQ(objectSizeFor(0, 1), 16u);  // 1 payload byte rounds to 8
  EXPECT_EQ(objectSizeFor(0, 24), 32u); // the paper's element object
  EXPECT_EQ(objectSizeFor(1, 16), 32u);
  EXPECT_EQ(objectSizeFor(2, 0), 24u);
}

TEST(ObjectModelTest, PaperElementIs32Bytes) {
  // §4.4: "each pointing to a 32-byte object (including VM metadata)".
  EXPECT_EQ(objectSizeFor(/*NumRefs=*/0, /*PayloadBytes=*/24), 32u);
}

TEST(ObjectModelTest, SlotWritesVisibleThroughView) {
  alignas(8) uint64_t Buf[8];
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Buf);
  initializeObject(Addr, 6, 9, 2, OF_None, 0);
  ObjectView V(Addr);
  *V.refSlot(0) = 0xdeadbeef;
  EXPECT_EQ(*reinterpret_cast<uint64_t *>(Addr + 8), 0xdeadbeefull);
}

TEST(ObjectModelTest, MaxFieldValues) {
  uint64_t H = makeHeader(0xffffffffu, 0xffff, 0xff, 0xff);
  alignas(8) uint64_t Buf[2] = {H, 0};
  ObjectView V(reinterpret_cast<uintptr_t>(Buf));
  EXPECT_EQ(V.sizeWords(), 0xffffffffu);
  EXPECT_EQ(V.classId(), 0xffff);
  EXPECT_EQ(V.flags(), 0xff);
}
