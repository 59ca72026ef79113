//===- tests/gc/ClassRegistryRaceTest.cpp - lock-free class lookups -------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ClassRegistry::info takes no lock (every allocate() calls it), so
/// registration must publish entries safely to concurrent readers. Two
/// threads register classes while two mutators allocate by the ids
/// published so far and check each new object's header against info();
/// this suite runs under TSan in CI, which flags a missing
/// release/acquire edge. Unknown ids must stay fatal.
///
//===----------------------------------------------------------------------===//

#include "gc/ColoredPtr.h"
#include "runtime/Runtime.h"

#include "TestSeeds.h"
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace hcsgc;

TEST(ClassRegistryRaceTest, RegisterWhileMutatorsAllocate) {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 512 * 1024;
  Cfg.MaxHeapBytes = 8u << 20;
  Runtime RT(Cfg);
  // One class up front, so mutators have an id to allocate from the
  // start (id 0 is the ref-array class).
  RT.registerClass("race.Seed", 1, 8);

  constexpr unsigned Registrars = 2, ClassesEach = 300;
  constexpr unsigned MinAllocsEach = 5000;
  std::atomic<unsigned> RegistrarsDone{0};
  std::atomic<uint64_t> Allocs{0};
  std::atomic<unsigned> Mismatches{0};

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Registrars; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < ClassesEach; ++I) {
        RT.registerClass("race.C" + std::to_string(T) + "." +
                             std::to_string(I),
                         static_cast<uint8_t>(I % 5),
                         static_cast<uint32_t>(8 * (I % 13)));
        // Let the mutators allocate between registrations, so lookups
        // really interleave with publication.
        uint64_t Seen = Allocs.load();
        while (Allocs.load() < Seen + 16)
          std::this_thread::yield();
      }
      RegistrarsDone.fetch_add(1);
    });
  for (unsigned T = 0; T < 2; ++T)
    Threads.emplace_back([&, T] {
      std::mt19937_64 Rng(test::testSeed(0xC1A5) + T);
      auto M = RT.attachMutator();
      {
        Root Obj(*M);
        for (unsigned N = 0;
             N < MinAllocsEach || RegistrarsDone.load() < Registrars; ++N) {
          size_t Published = RT.classes().size();
          ClassId Id = static_cast<ClassId>(1 + Rng() % (Published - 1));
          const ClassInfo &Info = RT.classes().info(Id);
          M->allocate(Obj, Id);
          Allocs.fetch_add(1);
          ObjectView V(oopAddr(Obj.rawOop()));
          if (V.classId() != Id || V.numRefs() != Info.NumRefs ||
              V.sizeBytes() != Info.SizeBytes ||
              Info.SizeBytes !=
                  objectSizeFor(Info.NumRefs, Info.PayloadBytes))
            Mismatches.fetch_add(1);
        }
      }
      M.reset();
    });
  for (auto &Th : Threads)
    Th.join();

  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_EQ(RT.classes().size(), 2 + Registrars * ClassesEach);
}

TEST(ClassRegistryRaceTest, UnknownIdIsFatal) {
  // The threadsafe style re-executes the test binary in the child, which
  // stays safe after earlier tests in this process started threads.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ClassRegistry R;
  ClassId Next = static_cast<ClassId>(R.size());
  EXPECT_DEATH(R.info(Next), "unknown class id");
  R.registerClass("late", 0, 8);
  EXPECT_EQ(R.info(Next).Name, "late");
}
