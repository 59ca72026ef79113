//===- tools/heapscope.cpp - Heap snapshot log explorer -----------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Reads a JSONL heap-snapshot log (GcConfig::SnapshotLogPath, the
// harness's --snapshot-log flag, or Runtime::dumpSnapshots) and renders
// the locality observatory offline:
//
//   $ heapscope snap.jsonl                    # per-capture summary table
//   $ heapscope snap.jsonl --map              # ASCII heat strip per capture
//   $ heapscope snap.jsonl --map=7            #   ... cycle 7 only
//   $ heapscope snap.jsonl --trends           # locality trend lines
//   $ heapscope snap.jsonl --sites            # top allocation sites
//   $ heapscope snap.jsonl --sites=5          #   ... top 5 only
//   $ heapscope snap.jsonl --audit            # EC decision audit dump
//   $ heapscope snap.jsonl --audit=7          #   ... cycle 7 only
//   $ heapscope snap.jsonl --replay           # re-run EC selection from the
//                                             # audit; exit 1 on mismatch
//   $ heapscope snap.jsonl --diff=other.jsonl # compare two runs per cycle
//   $ heapscope snap.jsonl --cycles=3..7      # restrict any mode to 3-7
//
//===----------------------------------------------------------------------===//

#include "observe/HeapSnapshot.h"
#include "observe/SnapshotLog.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace hcsgc;

namespace {

bool loadLog(const char *Path, std::vector<CycleSnapshot> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "heapscope: cannot open %s\n", Path);
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Error;
  if (!readSnapshotLog(SS.str(), Out, Error)) {
    std::fprintf(stderr, "heapscope: %s: %s\n", Path, Error.c_str());
    return false;
  }
  return true;
}

uint64_t sumLive(const CycleSnapshot &S) {
  uint64_t N = 0;
  for (const PageRecord &P : S.Pages)
    N += P.LiveBytes;
  return N;
}

uint64_t sumHot(const CycleSnapshot &S) {
  uint64_t N = 0;
  for (const PageRecord &P : S.Pages)
    N += P.HotBytes;
  return N;
}

uint64_t sumUsed(const CycleSnapshot &S) {
  uint64_t N = 0;
  for (const PageRecord &P : S.Pages)
    N += P.UsedBytes;
  return N;
}

size_t countSelected(const CycleSnapshot &S) {
  size_t N = 0;
  for (const PageRecord &P : S.Pages)
    N += P.EcSelected;
  return N;
}

void printSummary(const std::vector<CycleSnapshot> &Log) {
  std::printf("%5s %-10s %6s %10s %10s %10s %5s %8s %6s\n", "cycle",
              "point", "pages", "used(KB)", "live(KB)", "hot(KB)", "ec",
              "cc", "audit");
  for (const CycleSnapshot &S : Log)
    std::printf("%5" PRIu64 " %-10s %6zu %10.1f %10.1f %10.1f %5zu "
                "%8.3f %6s\n",
                S.Cycle, snapshotPointName(S.Point), S.Pages.size(),
                static_cast<double>(sumUsed(S)) / 1024.0,
                static_cast<double>(sumLive(S)) / 1024.0,
                static_cast<double>(sumHot(S)) / 1024.0, countSelected(S),
                S.ColdConfidence, S.HasAudit ? "yes" : "");
}

/// One shade character per page, by hot fraction of live bytes.
char shadeOf(const PageRecord &P) {
  static const char Shades[] = " .:-=+*#%@";
  if (P.LiveBytes == 0)
    return ' ';
  double Frac = static_cast<double>(P.HotBytes) /
                static_cast<double>(P.LiveBytes);
  int Idx = static_cast<int>(Frac * 9.0);
  return Shades[std::min(9, std::max(0, Idx))];
}

void printMap(const CycleSnapshot &S) {
  std::printf("cycle %" PRIu64 " %s: %zu pages (hot-fraction shade "
              "' .:-=+*#%%@', '^' = EC-selected)\n",
              S.Cycle, snapshotPointName(S.Point), S.Pages.size());
  constexpr size_t Width = 64;
  for (size_t Row = 0; Row < S.Pages.size(); Row += Width) {
    size_t End = std::min(S.Pages.size(), Row + Width);
    std::printf("  [%4zu] |", Row);
    for (size_t I = Row; I < End; ++I)
      std::fputc(shadeOf(S.Pages[I]), stdout);
    std::printf("|\n         |");
    for (size_t I = Row; I < End; ++I)
      std::fputc(S.Pages[I].EcSelected ? '^' : ' ', stdout);
    std::printf("|\n");
  }
}

void printTrends(const std::vector<CycleSnapshot> &Log) {
  // One line per AfterEc capture: how much of the live set is hot, how
  // fragmented the surviving (unselected) pages are, and what fraction of
  // pages entered the relocation set — the observable the paper's
  // locality argument is about (hot objects packed onto few pages).
  // Temperature columns (zero without TEMPERATURE): the byte fraction of
  // the live set at each 2-bit tier, plus resident bytes on cold-tier
  // pages — the reclaimable-RSS figure the cold backend reports.
  // The pret% column (zero without SITEPROFILING) is the cumulative
  // share of tagged allocation bytes placed through the pretenure TLAB.
  std::printf("%5s %12s %12s %12s %12s %8s %7s %7s %7s %7s %10s %6s\n",
              "cycle", "hot/live", "surv hot/lv", "frag", "ec pages%",
              "pages", "t0%", "t1%", "t2%", "t3%", "cold(KB)", "pret%");
  for (const CycleSnapshot &S : Log) {
    if (S.Point != SnapshotPoint::AfterEc)
      continue;
    uint64_t Live = 0, Hot = 0, SurvLive = 0, SurvHot = 0, Used = 0;
    uint64_t Temp[SnapTempTiers] = {0, 0, 0, 0};
    uint64_t ColdResident = 0;
    size_t Selected = 0;
    for (const PageRecord &P : S.Pages) {
      Live += P.LiveBytes;
      Hot += P.HotBytes;
      Used += P.UsedBytes;
      for (unsigned T = 0; T < SnapTempTiers; ++T)
        Temp[T] += P.TempBytes[T];
      if (P.Tier == static_cast<uint8_t>(SnapPageTier::Cold))
        ColdResident += P.UsedBytes;
      if (P.EcSelected) {
        ++Selected;
      } else {
        SurvLive += P.LiveBytes;
        SurvHot += P.HotBytes;
      }
    }
    double HotFrac = Live ? static_cast<double>(Hot) / Live : 0.0;
    double SurvFrac =
        SurvLive ? static_cast<double>(SurvHot) / SurvLive : 0.0;
    // Fragmentation: allocated-but-dead fraction across active pages.
    double Frag = Used ? 1.0 - static_cast<double>(Live) / Used : 0.0;
    double EcPct =
        S.Pages.empty()
            ? 0.0
            : 100.0 * static_cast<double>(Selected) / S.Pages.size();
    uint64_t TempTotal = Temp[0] + Temp[1] + Temp[2] + Temp[3];
    auto TempPct = [&](unsigned T) {
      return TempTotal ? 100.0 * static_cast<double>(Temp[T]) /
                             static_cast<double>(TempTotal)
                       : 0.0;
    };
    uint64_t SiteAlloc = 0, SitePret = 0;
    for (const SiteRecord &R : S.Sites) {
      SiteAlloc += R.AllocatedBytes;
      SitePret += R.PretenuredBytes;
    }
    double PretPct = SiteAlloc ? 100.0 * static_cast<double>(SitePret) /
                                     static_cast<double>(SiteAlloc)
                               : 0.0;
    std::printf("%5" PRIu64 " %12.3f %12.3f %12.3f %11.1f%% %8zu "
                "%6.1f%% %6.1f%% %6.1f%% %6.1f%% %10.1f %5.1f%%\n",
                S.Cycle, HotFrac, SurvFrac, Frag, EcPct, S.Pages.size(),
                TempPct(0), TempPct(1), TempPct(2), TempPct(3),
                static_cast<double>(ColdResident) / 1024.0, PretPct);
  }
}

void printSites(const std::vector<CycleSnapshot> &Log, long TopN) {
  // Site rows are cumulative, so the latest capture carrying them is the
  // whole story; rank by allocation volume.
  const CycleSnapshot *Last = nullptr;
  for (const CycleSnapshot &S : Log)
    if (!S.Sites.empty())
      Last = &S;
  if (!Last) {
    std::printf("no site records in this log (SITEPROFILING off?)\n");
    return;
  }
  std::vector<SiteRecord> Sites = Last->Sites;
  std::sort(Sites.begin(), Sites.end(),
            [](const SiteRecord &A, const SiteRecord &B) {
              return A.AllocatedBytes > B.AllocatedBytes;
            });
  if (TopN > 0 && Sites.size() > static_cast<size_t>(TopN))
    Sites.resize(static_cast<size_t>(TopN));
  std::printf("allocation sites as of cycle %" PRIu64 " (%s), by "
              "allocated bytes:\n",
              Last->Cycle, snapshotPointName(Last->Point));
  std::printf("%4s %-20s %10s %10s %10s %10s %10s %7s %-5s\n", "id",
              "site", "alloc(KB)", "surv(KB)", "hot(KB)", "reloc(KB)",
              "pret(KB)", "ewma", "route");
  for (const SiteRecord &R : Sites)
    std::printf("%4" PRIu64 " %-20s %10.1f %10.1f %10.1f %10.1f %10.1f "
                "%7.3f %-5s\n",
                R.SiteIdNum, R.Name.c_str(),
                static_cast<double>(R.AllocatedBytes) / 1024.0,
                static_cast<double>(R.SurvivedBytes) / 1024.0,
                static_cast<double>(R.HotBytes) / 1024.0,
                static_cast<double>(R.RelocatedBytes) / 1024.0,
                static_cast<double>(R.PretenuredBytes) / 1024.0,
                R.HotEwma, snapSiteRouteName(R.Route));
}

void printAudit(const CycleSnapshot &S) {
  const EcAudit &A = S.Audit;
  std::printf("cycle %" PRIu64 " audit: cc=%.3f threshold=%.3f "
              "budget_small=%.1f budget_medium=%.1f required_free=%.1f "
              "hotness=%d relocate_all=%d temperature=%d\n",
              A.Cycle, A.ColdConfidence, A.EvacLiveThreshold,
              A.BudgetSmall, A.BudgetMedium, A.RequiredFree,
              static_cast<int>(A.Hotness),
              static_cast<int>(A.RelocateAll),
              static_cast<int>(A.Temperature));
  if (A.Temperature) {
    std::printf("  %-14s %6s %10s %10s %12s %-6s %-18s %8s %8s %8s "
                "%8s\n",
                "page", "size", "live", "hot", "weight", "class",
                "verdict", "t0", "t1", "t2", "t3");
    for (const EcAuditEntry &E : A.Entries)
      std::printf("  0x%-12" PRIx64 " %6" PRIu64 " %10" PRIu64
                  " %10" PRIu64 " %12.1f %-6s %-18s %8" PRIu64
                  " %8" PRIu64 " %8" PRIu64 " %8" PRIu64 "\n",
                  E.PageBegin, E.PageSize, E.LiveBytes, E.HotBytes,
                  E.Weight, snapSizeClassName(E.SizeClass),
                  ecVerdictName(E.Verdict), E.TempBytes[0],
                  E.TempBytes[1], E.TempBytes[2], E.TempBytes[3]);
    return;
  }
  std::printf("  %-14s %6s %10s %10s %12s %-6s %-18s\n", "page", "size",
              "live", "hot", "weight", "class", "verdict");
  for (const EcAuditEntry &E : A.Entries)
    std::printf("  0x%-12" PRIx64 " %6" PRIu64 " %10" PRIu64
                " %10" PRIu64 " %12.1f %-6s %-18s\n",
                E.PageBegin, E.PageSize, E.LiveBytes, E.HotBytes,
                E.Weight, snapSizeClassName(E.SizeClass),
                ecVerdictName(E.Verdict));
}

/// Re-runs EC selection from every audit and compares with what the live
/// selector recorded. \returns the number of mismatching captures.
int replayAll(const std::vector<CycleSnapshot> &Log) {
  int Mismatches = 0;
  size_t Audited = 0;
  for (const CycleSnapshot &S : Log) {
    if (!S.HasAudit)
      continue;
    ++Audited;
    std::vector<uint64_t> Replayed = replayEcSelection(S.Audit);
    std::vector<uint64_t> Recorded = auditSelectedPages(S.Audit);
    if (Replayed == Recorded) {
      std::printf("cycle %" PRIu64 ": replay OK (%zu selected)\n",
                  S.Cycle, Recorded.size());
      continue;
    }
    ++Mismatches;
    std::printf("cycle %" PRIu64 ": REPLAY MISMATCH (replayed %zu, "
                "recorded %zu)\n",
                S.Cycle, Replayed.size(), Recorded.size());
    for (uint64_t B : Replayed)
      if (!std::binary_search(Recorded.begin(), Recorded.end(), B))
        std::printf("  replay selected 0x%" PRIx64
                    " but the collector did not\n",
                    B);
    for (uint64_t B : Recorded)
      if (!std::binary_search(Replayed.begin(), Replayed.end(), B))
        std::printf("  collector selected 0x%" PRIx64
                    " but the replay did not\n",
                    B);
  }
  std::printf("replay: %zu audited captures, %d mismatches\n", Audited,
              Mismatches);
  return Mismatches;
}

void printDiff(const std::vector<CycleSnapshot> &A,
               const std::vector<CycleSnapshot> &B) {
  // Index AfterEc captures by cycle on both sides; compare where both
  // runs have the cycle and note one-sided cycles.
  auto index = [](const std::vector<CycleSnapshot> &Log) {
    std::map<uint64_t, const CycleSnapshot *> M;
    for (const CycleSnapshot &S : Log)
      if (S.Point == SnapshotPoint::AfterEc)
        M[S.Cycle] = &S;
    return M;
  };
  auto MA = index(A), MB = index(B);
  std::printf("%5s %10s %10s | %10s %10s | %7s %7s\n", "cycle",
              "liveA(KB)", "liveB(KB)", "hotA(KB)", "hotB(KB)", "ecA",
              "ecB");
  for (const auto &[Cycle, SA] : MA) {
    auto It = MB.find(Cycle);
    if (It == MB.end()) {
      std::printf("%5" PRIu64 "  (only in first run)\n", Cycle);
      continue;
    }
    const CycleSnapshot *SB = It->second;
    std::printf("%5" PRIu64 " %10.1f %10.1f | %10.1f %10.1f | %7zu "
                "%7zu\n",
                Cycle, static_cast<double>(sumLive(*SA)) / 1024.0,
                static_cast<double>(sumLive(*SB)) / 1024.0,
                static_cast<double>(sumHot(*SA)) / 1024.0,
                static_cast<double>(sumHot(*SB)) / 1024.0,
                countSelected(*SA), countSelected(*SB));
  }
  for (const auto &[Cycle, SB] : MB)
    if (!MA.count(Cycle))
      std::printf("%5" PRIu64 "  (only in second run)\n", Cycle);
}

} // namespace

int main(int Argc, char **Argv) {
  const char *Path = nullptr;
  const char *DiffPath = nullptr;
  bool Summary = false, Map = false, Trends = false, Audit = false,
       Replay = false, Sites = false;
  long MapCycle = -1, AuditCycle = -1, SitesTop = 20;
  uint64_t CycleLo = 0, CycleHi = UINT64_MAX;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--summary") == 0) {
      Summary = true;
    } else if (std::strcmp(Argv[I], "--map") == 0) {
      Map = true;
    } else if (std::strncmp(Argv[I], "--map=", 6) == 0) {
      Map = true;
      if (!parseCount(Argv[I] + 6, MapCycle)) {
        std::fprintf(stderr, "bad --map cycle: %s\n", Argv[I] + 6);
        return 2;
      }
    } else if (std::strcmp(Argv[I], "--trends") == 0) {
      Trends = true;
    } else if (std::strcmp(Argv[I], "--sites") == 0) {
      Sites = true;
    } else if (std::strncmp(Argv[I], "--sites=", 8) == 0) {
      Sites = true;
      if (!parseCount(Argv[I] + 8, SitesTop)) {
        std::fprintf(stderr, "bad --sites count: %s\n", Argv[I] + 8);
        return 2;
      }
    } else if (std::strcmp(Argv[I], "--audit") == 0) {
      Audit = true;
    } else if (std::strncmp(Argv[I], "--audit=", 8) == 0) {
      Audit = true;
      if (!parseCount(Argv[I] + 8, AuditCycle)) {
        std::fprintf(stderr, "bad --audit cycle: %s\n", Argv[I] + 8);
        return 2;
      }
    } else if (std::strcmp(Argv[I], "--replay") == 0) {
      Replay = true;
    } else if (std::strncmp(Argv[I], "--diff=", 7) == 0) {
      DiffPath = Argv[I] + 7;
    } else if (std::strncmp(Argv[I], "--cycles=", 9) == 0) {
      // parseCycleRange rejects trailing garbage ("3..7junk") and
      // inverted ranges; "--cycles=N" means N..N.
      if (!parseCycleRange(Argv[I] + 9, CycleLo, CycleHi)) {
        std::fprintf(stderr, "bad --cycles range: %s\n", Argv[I] + 9);
        return 2;
      }
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", Argv[I]);
      return 2;
    } else if (!Path) {
      Path = Argv[I];
    } else {
      std::fprintf(stderr, "extra argument: %s\n", Argv[I]);
      return 2;
    }
  }
  if (!Path) {
    std::fprintf(
        stderr,
        "usage: heapscope <snap.jsonl> [--summary] [--map[=CYCLE]] "
        "[--trends] [--sites[=N]] [--audit[=CYCLE]] [--replay] "
        "[--diff=other.jsonl] [--cycles=A..B]\n");
    return 2;
  }
  if (!Summary && !Map && !Trends && !Sites && !Audit && !Replay &&
      !DiffPath)
    Summary = true;

  std::vector<CycleSnapshot> Log;
  if (!loadLog(Path, Log))
    return 1;
  if (CycleLo != 0 || CycleHi != UINT64_MAX)
    Log.erase(std::remove_if(Log.begin(), Log.end(),
                             [&](const CycleSnapshot &S) {
                               return S.Cycle < CycleLo ||
                                      S.Cycle > CycleHi;
                             }),
              Log.end());
  std::printf("%s: %zu captures\n", Path, Log.size());

  if (Summary)
    printSummary(Log);
  if (Map)
    for (const CycleSnapshot &S : Log)
      if (MapCycle < 0 || S.Cycle == static_cast<uint64_t>(MapCycle))
        printMap(S);
  if (Trends)
    printTrends(Log);
  if (Sites)
    printSites(Log, SitesTop);
  if (Audit)
    for (const CycleSnapshot &S : Log)
      if (S.HasAudit &&
          (AuditCycle < 0 || S.Cycle == static_cast<uint64_t>(AuditCycle)))
        printAudit(S);
  if (DiffPath) {
    std::vector<CycleSnapshot> Other;
    if (!loadLog(DiffPath, Other))
      return 1;
    if (CycleLo != 0 || CycleHi != UINT64_MAX)
      Other.erase(std::remove_if(Other.begin(), Other.end(),
                                 [&](const CycleSnapshot &S) {
                                   return S.Cycle < CycleLo ||
                                          S.Cycle > CycleHi;
                                 }),
                  Other.end());
    printDiff(Log, Other);
  }
  if (Replay)
    return replayAll(Log) == 0 ? 0 : 1;
  return 0;
}
