//===- tests/workloads/MiniDbTest.cpp ------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/MiniDb.h"

#include "support/Random.h"

#include "TestSeeds.h"

#include <gtest/gtest.h>

#include <map>

using namespace hcsgc;

namespace {

GcConfig dbConfig() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 1024 * 1024;
  Cfg.MaxHeapBytes = 48u << 20;
  return Cfg;
}

} // namespace

TEST(MiniDbTest, InsertAndLookup) {
  Runtime RT(dbConfig());
  auto M = RT.attachMutator();
  {
    MiniDb Db(*M);
    for (int64_t K = 0; K < 100; ++K)
      Db.insert(K, K * 2);
    EXPECT_EQ(Db.size(), 100u);
    int64_t V = 0;
    for (int64_t K = 0; K < 100; ++K) {
      ASSERT_TRUE(Db.lookup(K, V));
      EXPECT_EQ(V, K * 2);
    }
    EXPECT_FALSE(Db.lookup(1000, V));
    EXPECT_FALSE(Db.lookup(-1, V));
  }
  M.reset();
}

TEST(MiniDbTest, UpdateReplacesRowVersion) {
  Runtime RT(dbConfig());
  auto M = RT.attachMutator();
  {
    MiniDb Db(*M);
    Db.insert(7, 1);
    Db.insert(7, 2);
    Db.insert(7, 3);
    EXPECT_EQ(Db.size(), 1u);
    int64_t V;
    ASSERT_TRUE(Db.lookup(7, V));
    EXPECT_EQ(V, 3);
  }
  M.reset();
}

TEST(MiniDbTest, MatchesStdMapUnderRandomOps) {
  Runtime RT(dbConfig());
  auto M = RT.attachMutator();
  {
    MiniDb Db(*M);
    std::map<int64_t, int64_t> Shadow;
    SplitMix64 Rng(test::testSeed(20));
    for (int Op = 0; Op < 20000; ++Op) {
      int64_t K = static_cast<int64_t>(Rng.nextBelow(3000));
      if (Rng.nextBelow(3) == 0) {
        int64_t V = static_cast<int64_t>(Rng.nextBelow(1 << 20));
        Db.insert(K, V);
        Shadow[K] = V;
      } else {
        int64_t V = 0;
        bool Found = Db.lookup(K, V);
        auto It = Shadow.find(K);
        ASSERT_EQ(Found, It != Shadow.end()) << "key " << K;
        if (Found) {
          ASSERT_EQ(V, It->second) << "key " << K;
        }
      }
    }
    EXPECT_EQ(Db.size(), Shadow.size());
  }
  M.reset();
}

TEST(MiniDbTest, ScanMatchesShadow) {
  Runtime RT(dbConfig());
  auto M = RT.attachMutator();
  {
    MiniDb Db(*M);
    std::map<int64_t, int64_t> Shadow;
    SplitMix64 Rng(test::testSeed(21));
    for (int I = 0; I < 5000; ++I) {
      int64_t K = static_cast<int64_t>(Rng.nextBelow(100000));
      int64_t V = static_cast<int64_t>(Rng.nextBelow(1000));
      Db.insert(K, V);
      Shadow[K] = V;
    }
    for (int Trial = 0; Trial < 200; ++Trial) {
      int64_t From = static_cast<int64_t>(Rng.nextBelow(100000));
      unsigned Count = 1 + static_cast<unsigned>(Rng.nextBelow(30));
      uint64_t Got = Db.scan(From, Count);
      uint64_t Want = 0;
      unsigned Taken = 0;
      for (auto It = Shadow.lower_bound(From);
           It != Shadow.end() && Taken < Count; ++It, ++Taken)
        Want += static_cast<uint64_t>(It->second);
      ASSERT_EQ(Got, Want) << "from " << From << " count " << Count;
    }
  }
  M.reset();
}

TEST(MiniDbTest, TreeGrowsInHeight) {
  Runtime RT(dbConfig());
  auto M = RT.attachMutator();
  {
    MiniDb Db(*M);
    EXPECT_EQ(Db.height(), 1u);
    for (int64_t K = 0; K < 5000; ++K)
      Db.insert(K, K);
    EXPECT_GE(Db.height(), 3u);
    int64_t V;
    EXPECT_TRUE(Db.lookup(0, V));
    EXPECT_TRUE(Db.lookup(4999, V));
  }
  M.reset();
}

TEST(MiniDbTest, SurvivesGcWithFullIntegrity) {
  GcConfig Cfg = dbConfig();
  Cfg.RelocateAllSmallPages = true;
  Cfg.LazyRelocate = true;
  Runtime RT(Cfg);
  auto M = RT.attachMutator();
  {
    MiniDb Db(*M);
    for (int64_t K = 0; K < 3000; ++K)
      Db.insert(K * 3, K);
    M->requestGcAndWait();
    M->requestGcAndWait();
    int64_t V;
    for (int64_t K = 0; K < 3000; ++K) {
      ASSERT_TRUE(Db.lookup(K * 3, V));
      ASSERT_EQ(V, K);
    }
    EXPECT_FALSE(Db.lookup(1, V));
  }
  M.reset();
}

TEST(MiniDbTest, BenchmarkHarnessChecksumStable) {
  MiniDbParams P;
  P.Rows = 3000;
  P.Ops = 4000;
  uint64_t First = 0;
  for (int Round = 0; Round < 2; ++Round) {
    Runtime RT(dbConfig());
    auto M = RT.attachMutator();
    MiniDbResult R = runMiniDb(*M, P);
    EXPECT_EQ(R.OpsDone, P.Ops);
    EXPECT_GT(R.RowCount, 0u);
    if (Round == 0)
      First = R.QueryChecksum;
    else
      EXPECT_EQ(R.QueryChecksum, First);
    M.reset();
  }
}
