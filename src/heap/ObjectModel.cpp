//===- heap/ObjectModel.cpp - Object headers and layout --------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "heap/ObjectModel.h"

#include <cstring>

using namespace hcsgc;

void hcsgc::initializeObject(uintptr_t Addr, uint32_t SizeWords, ClassId Cls,
                             uint8_t NumRefs, uint8_t Flags,
                             uint32_t ArrayLength) {
  // Pages are handed out dirty (INTERNALS §11): the body is zeroed here,
  // once per object, so ref slots start null and payload starts 0.
  std::memset(reinterpret_cast<void *>(Addr + HeaderBytes), 0,
              static_cast<size_t>(SizeWords) * 8 - HeaderBytes);
  *reinterpret_cast<uint64_t *>(Addr) =
      makeHeader(SizeWords, Cls, NumRefs, Flags);
  if (Flags & OF_RefArray)
    *reinterpret_cast<uint64_t *>(Addr + HeaderBytes) = ArrayLength;
}
