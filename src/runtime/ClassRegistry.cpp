//===- runtime/ClassRegistry.cpp - User type registry --------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ClassRegistry.h"

using namespace hcsgc;

ClassRegistry::ClassRegistry() {
  // Slot 0 is reserved for ref arrays, which have no fixed shape.
  Chunk *First = new Chunk();
  (*First)[RefArrayClass].Name = "hcsgc.RefArray";
  Chunks[0].store(First, std::memory_order_relaxed);
  Count.store(1, std::memory_order_relaxed);
}

ClassRegistry::~ClassRegistry() {
  for (auto &C : Chunks)
    delete C.load(std::memory_order_relaxed);
}

ClassId ClassRegistry::registerClass(std::string Name, uint8_t NumRefs,
                                     uint32_t PayloadBytes) {
  std::lock_guard<std::mutex> G(WriteLock);
  size_t Id = Count.load(std::memory_order_relaxed);
  if (Id >= 0xffff)
    fatalError("class registry full");
  std::atomic<Chunk *> &Slot = Chunks[Id >> ChunkShift];
  Chunk *C = Slot.load(std::memory_order_relaxed);
  if (!C) {
    C = new Chunk();
    Slot.store(C, std::memory_order_release);
  }
  ClassInfo &Info = (*C)[Id & (ChunkEntries - 1)];
  Info.Name = std::move(Name);
  Info.NumRefs = NumRefs;
  Info.PayloadBytes = PayloadBytes;
  Info.SizeBytes =
      static_cast<uint32_t>(objectSizeFor(NumRefs, PayloadBytes));
  Count.store(Id + 1, std::memory_order_release);
  return static_cast<ClassId>(Id);
}
