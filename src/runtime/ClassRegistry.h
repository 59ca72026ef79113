//===- runtime/ClassRegistry.h - User type registry ------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registry mapping class ids to object shapes. The collector itself only
/// needs the header (references-first layout); the registry exists so
/// user code can allocate by class id and introspect objects.
///
/// Every `Mutator::allocate` looks its class up here, so reads take no
/// lock. Entries live in a fixed-capacity chunked table (ClassId is 16
/// bits, so 256 chunks of 256 entries cover every id). A writer fills the
/// next entry under a mutex, then publishes the entry's chunk pointer and
/// the new count with release stores; readers acquire-load the count and
/// may then read any entry below it. Entries never move, so references
/// returned by info() stay valid for the registry's lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_RUNTIME_CLASSREGISTRY_H
#define HCSGC_RUNTIME_CLASSREGISTRY_H

#include "heap/ObjectModel.h"
#include "support/Compiler.h"

#include <array>
#include <atomic>
#include <mutex>
#include <string>

namespace hcsgc {

/// Shape of a registered class.
struct ClassInfo {
  std::string Name;
  uint8_t NumRefs = 0;
  uint32_t PayloadBytes = 0;
  /// Total object size (header + refs + payload, aligned).
  uint32_t SizeBytes = 0;
};

/// Thread-safe class registry: concurrent registration is serialized,
/// lookups are lock-free.
class ClassRegistry {
public:
  ClassRegistry();
  ~ClassRegistry();

  ClassRegistry(const ClassRegistry &) = delete;
  ClassRegistry &operator=(const ClassRegistry &) = delete;

  /// Registers a class with \p NumRefs reference slots followed by
  /// \p PayloadBytes of raw payload.
  ClassId registerClass(std::string Name, uint8_t NumRefs,
                        uint32_t PayloadBytes);

  /// \returns the shape of \p Id. Aborts on unknown ids.
  const ClassInfo &info(ClassId Id) const {
    if (HCSGC_UNLIKELY(Id >= Count.load(std::memory_order_acquire)))
      fatalError("unknown class id");
    return (*Chunks[Id >> ChunkShift].load(std::memory_order_acquire))
        [Id & (ChunkEntries - 1)];
  }

  size_t size() const { return Count.load(std::memory_order_acquire); }

  /// Class id used for reference arrays.
  static constexpr ClassId RefArrayClass = 0;

private:
  static constexpr unsigned ChunkShift = 8;
  static constexpr size_t ChunkEntries = size_t(1) << ChunkShift;
  static constexpr size_t NumChunks = size_t(1) << (16 - ChunkShift);
  using Chunk = std::array<ClassInfo, ChunkEntries>;

  std::mutex WriteLock;
  std::array<std::atomic<Chunk *>, NumChunks> Chunks{};
  std::atomic<size_t> Count{0};
};

} // namespace hcsgc

#endif // HCSGC_RUNTIME_CLASSREGISTRY_H
