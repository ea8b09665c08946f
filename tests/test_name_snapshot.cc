// Tests for the name snapshot (Section 6): the three defining properties —
// Validity, Total Ordering, Integrity — under sequential use, concurrent
// use, random schedules and disk crashes; plus announce/collect mechanics
// and the adoption path.
#include "common/sync.h"
#include "core/name_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "counting_client.h"
#include "sim/sim_farm.h"

namespace nadreg::core {
namespace {

using sim::SimFarm;

bool IsSubset(const std::vector<Name>& a, const std::vector<Name>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

bool ChainOrdered(std::vector<std::vector<Name>> snaps) {
  std::sort(snaps.begin(), snaps.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  for (std::size_t i = 0; i + 1 < snaps.size(); ++i) {
    if (!IsSubset(snaps[i], snaps[i + 1])) return false;
  }
  return true;
}

TEST(NameSnapshot, FirstSnapshotContainsOnlySelf) {
  FarmConfig cfg{1};
  SimFarm farm;
  NameSnapshot snap(farm, cfg, /*object=*/1, /*self=*/1);
  auto s = snap.Snapshot(Name{1, 0});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], (Name{1, 0}));
}

TEST(NameSnapshot, SequentialSnapshotsGrow) {
  FarmConfig cfg{1};
  SimFarm farm;
  NameSnapshot p1(farm, cfg, 1, 1);
  NameSnapshot p2(farm, cfg, 1, 2);
  NameSnapshot p3(farm, cfg, 1, 3);

  auto s1 = p1.Snapshot(Name{1, 0});
  auto s2 = p2.Snapshot(Name{2, 0});
  auto s3 = p3.Snapshot(Name{3, 0});
  EXPECT_EQ(s1.size(), 1u);
  EXPECT_EQ(s2.size(), 2u);
  EXPECT_EQ(s3.size(), 3u);
  // A later snapshot contains every earlier terminated name (Validity +
  // Integrity + Total Ordering combined, as the paper notes).
  EXPECT_TRUE(IsSubset(s1, s2));
  EXPECT_TRUE(IsSubset(s2, s3));
}

TEST(NameSnapshot, ValidityHoldsForEveryCaller) {
  FarmConfig cfg{1};
  SimFarm farm;
  for (ProcessId p = 1; p <= 8; ++p) {
    NameSnapshot snap(farm, cfg, 1, p);
    Name n{p, 0};
    auto s = snap.Snapshot(n);
    EXPECT_TRUE(std::binary_search(s.begin(), s.end(), n));
  }
}

TEST(NameSnapshot, IntegrityExcludesUnstartedNames) {
  FarmConfig cfg{1};
  SimFarm farm;
  NameSnapshot p1(farm, cfg, 1, 1);
  auto s = p1.Snapshot(Name{1, 0});
  // Name {2,0} has not started: it must not appear.
  EXPECT_FALSE(std::binary_search(s.begin(), s.end(), Name{2, 0}));
}

TEST(NameSnapshot, SameProcessMultipleNames) {
  FarmConfig cfg{1};
  SimFarm farm;
  NameSnapshot snap(farm, cfg, 1, 7);
  auto s0 = snap.Snapshot(Name{7, 0});
  auto s1 = snap.Snapshot(Name{7, 1});
  auto s2 = snap.Snapshot(Name{7, 2});
  EXPECT_EQ(s0.size(), 1u);
  EXPECT_EQ(s1.size(), 2u);
  EXPECT_EQ(s2.size(), 3u);
  EXPECT_TRUE(IsSubset(s0, s1));
  EXPECT_TRUE(IsSubset(s1, s2));
}

TEST(NameSnapshot, AnnounceThenCollectFindsName) {
  FarmConfig cfg{1};
  SimFarm farm;
  NameSnapshot a(farm, cfg, 1, 1);
  NameSnapshot b(farm, cfg, 1, 2);
  a.Announce(Name{1, 5});
  auto c = b.Collect();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], (Name{1, 5}));
}

TEST(NameSnapshot, CollectOnEmptyDirectoryIsEmpty) {
  FarmConfig cfg{1};
  SimFarm farm;
  NameSnapshot a(farm, cfg, 1, 1);
  EXPECT_TRUE(a.Collect().empty());
}

TEST(NameSnapshot, DistinctObjectsAreIndependent) {
  FarmConfig cfg{1};
  SimFarm farm;
  NameSnapshot obj1(farm, cfg, 1, 1);
  NameSnapshot obj2(farm, cfg, 2, 1);
  obj1.Announce(Name{1, 0});
  EXPECT_EQ(obj1.Collect().size(), 1u);
  EXPECT_TRUE(obj2.Collect().empty());
}

TEST(NameSnapshot, ToleratesDiskCrash) {
  FarmConfig cfg{1};
  SimFarm farm;
  farm.CrashDisk(0);  // full disk crash: infinitely many registers die
  NameSnapshot p1(farm, cfg, 1, 1);
  NameSnapshot p2(farm, cfg, 1, 2);
  auto s1 = p1.Snapshot(Name{1, 0});
  auto s2 = p2.Snapshot(Name{2, 0});
  EXPECT_EQ(s1.size(), 1u);
  EXPECT_EQ(s2.size(), 2u);
  EXPECT_TRUE(IsSubset(s1, s2));
}

TEST(NameSnapshot, ToleratesTwoCrashesWithT2) {
  FarmConfig cfg{2};  // 5 disks
  SimFarm farm;
  farm.CrashDisk(1);
  farm.CrashDisk(3);
  NameSnapshot p1(farm, cfg, 1, 1);
  NameSnapshot p2(farm, cfg, 1, 2);
  EXPECT_EQ(p1.Snapshot(Name{1, 0}).size(), 1u);
  EXPECT_EQ(p2.Snapshot(Name{2, 0}).size(), 2u);
}

// Sticky reads of a warm collect over a directory holding only `n`: the
// siblings of its path's nodes that some codeword passes through (the
// path's own nodes are known set; its leaf is never expanded).
std::uint64_t WarmCollectReads(const NameLayout& layout, const Name& n) {
  const TriePath path = layout.Path(n);
  std::uint64_t reads = 0;
  for (int d = 1; d <= path.length; ++d) {
    if (layout.OnSomePath(path.Node(d) ^ 1)) ++reads;
  }
  return reads;
}

TEST(NameSnapshot, StatsAccumulate) {
  FarmConfig cfg{1};
  SimFarm farm;
  NameSnapshot snap(farm, cfg, 1, 1);
  snap.Snapshot(Name{1, 0});
  const auto& st = snap.stats();
  EXPECT_GE(st.collects, 2u);  // at least one double collect
  // One announce sets its codeword's bits: 0 | 010001 | 16 bits.
  EXPECT_EQ(st.sticky_sets,
            static_cast<std::uint64_t>(NameLayout{}.Path(Name{1, 0}).length));
  EXPECT_EQ(st.sticky_sets, 23u);
  EXPECT_GT(st.sticky_reads, 0u);
}

TEST(NameSnapshot, WarmCollectIsOneRoundAtFullDepth) {
  // After its own snapshot an endpoint knows every set node of its path
  // through the trie, so a collect that finds no new name probes all of
  // the path's unset siblings that a codeword passes through — at every
  // depth — in ONE round.
  FarmConfig cfg{1};
  SimFarm farm;
  testutil::CountingClient client(farm);
  NameSnapshot snap(client, cfg, 1, 1);  // default layout
  snap.Snapshot(Name{1, 0});
  while (farm.InFlight() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.Reset();
  const auto sticky_reads = snap.stats().sticky_reads;

  EXPECT_EQ(snap.Collect(), std::vector<Name>{(Name{1, 0})});
  EXPECT_EQ(client.ReadCalls(), 1u);
  EXPECT_EQ(snap.stats().sticky_reads - sticky_reads,
            WarmCollectReads(NameLayout{}, Name{1, 0}));
  EXPECT_EQ(snap.stats().sticky_reads - sticky_reads, 23u);
}

// One random name per packed bit width 0..name_bits (so both code forms,
// every length and the short/long boundary appear), plus `extra` random
// widths, shuffled.
std::vector<Name> MixedWidthNames(const NameLayout& layout, Rng& rng,
                                  int extra) {
  std::vector<int> widths;
  for (int len = 0; len <= layout.name_bits; ++len) widths.push_back(len);
  for (int i = 0; i < extra; ++i) {
    widths.push_back(static_cast<int>(rng.Below(layout.name_bits + 1)));
  }
  std::set<Name> names;
  for (int len : widths) {
    const std::uint64_t packed =
        len == 0 ? 0 : (1ULL << (len - 1)) | rng.Below(1ULL << (len - 1));
    names.insert(layout.Unpack(packed));
  }
  std::vector<Name> out(names.begin(), names.end());
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Below(i)]);
  }
  return out;
}

TEST(NameSnapshot, CollectsExactlyTheAnnouncedMixOfCodeForms) {
  // Short- and long-form names are announced one at a time; after each,
  // a warm endpoint (both collect modes) and a fresh one collect exactly
  // the names announced so far.
  FarmConfig cfg{1};
  const NameLayout layouts[] = {{48, 16}, {8, 3}};
  for (const NameLayout& layout : layouts) {
    for (std::uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message() << "layout " << layout.name_bits
                                        << ", seed " << seed);
      SimFarm::Options o;
      o.seed = seed;
      o.max_delay_us = 0;
      SimFarm farm(o);
      Rng rng(seed);
      const std::uint32_t object = 1;
      NameSnapshot announcer(farm, cfg, object, 1, true, layout);
      NameSnapshot pipelined(farm, cfg, object, 2, true, layout);
      NameSnapshot sequential(farm, cfg, object, 3, false, layout);
      std::vector<Name> announced;
      for (const Name& n : MixedWidthNames(layout, rng, 8)) {
        announcer.Announce(n);
        announced.insert(
            std::upper_bound(announced.begin(), announced.end(), n), n);
        EXPECT_EQ(pipelined.Collect(), announced);
        EXPECT_EQ(sequential.Collect(), announced);
        NameSnapshot fresh(farm, cfg, object, 4, true, layout);
        EXPECT_EQ(fresh.Collect(), announced);
      }
    }
  }
}

TEST(NameSnapshot, AdoptionPathFiresUnderInterference) {
  // Under real concurrency some double collects fail and resolve via
  // adoption of a committed view. Run rounds until observed (the property
  // sweeps verify adopted snapshots obey all three properties; this test
  // ensures the path is actually exercised).
  FarmConfig cfg{1};
  std::uint64_t adoptions = 0;
  for (std::uint64_t round = 0; round < 40 && adoptions == 0; ++round) {
    SimFarm::Options o;
    o.seed = 900 + round;
    o.max_delay_us = 10;
    SimFarm farm(o);
    std::vector<std::jthread> threads;
    Mutex mu;
    for (ProcessId p = 1; p <= 6; ++p) {
      threads.emplace_back([&, p] {
        NameSnapshot snap(farm, cfg, 1, p);
        for (std::uint64_t i = 0; i < 4; ++i) {
          snap.Snapshot(Name{p, i});
        }
        MutexLock lock(mu);
        adoptions += snap.stats().adoptions;
      });
    }
  }
  EXPECT_GT(adoptions, 0u)
      << "no snapshot ever resolved via adoption in 40 contended rounds";
}

// Concurrent property sweep: run many processes concurrently (each with a
// few names) over random schedules, some with a crashed disk, and verify
// Validity + Total Ordering + Integrity over the full outcome set.
struct SweepParam {
  std::uint64_t seed;
  int processes;
  int names_per_process;
  bool crash_disk;
};

class NameSnapshotSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(NameSnapshotSweep, PropertiesHoldUnderConcurrency) {
  const auto param = GetParam();
  FarmConfig cfg{1};
  SimFarm::Options o;
  o.seed = param.seed;
  o.max_delay_us = 30;
  SimFarm farm(o);
  if (param.crash_disk) farm.CrashDisk(2);

  Mutex mu;
  std::vector<std::pair<Name, std::vector<Name>>> results;
  // Integrity bookkeeping: logical start/stop order via a shared counter.
  std::atomic<std::uint64_t> clock{0};
  std::vector<std::tuple<Name, std::uint64_t, std::uint64_t>> spans;

  {
    std::vector<std::jthread> threads;
    for (int p = 1; p <= param.processes; ++p) {
      threads.emplace_back([&, p] {
        NameSnapshot snap(farm, cfg, 1, static_cast<ProcessId>(p));
        for (int i = 0; i < param.names_per_process; ++i) {
          Name n{static_cast<ProcessId>(p), static_cast<std::uint64_t>(i)};
          const std::uint64_t started = ++clock;
          auto s = snap.Snapshot(n);
          const std::uint64_t ended = ++clock;
          MutexLock lock(mu);
          results.emplace_back(n, std::move(s));
          spans.emplace_back(n, started, ended);
        }
      });
    }
  }

  // Validity.
  for (const auto& [n, s] : results) {
    EXPECT_TRUE(std::binary_search(s.begin(), s.end(), n))
        << "Validity violated for (" << n.pid << "," << n.index << ")";
  }
  // Total Ordering.
  std::vector<std::vector<Name>> snaps;
  snaps.reserve(results.size());
  for (const auto& [n, s] : results) snaps.push_back(s);
  EXPECT_TRUE(ChainOrdered(snaps)) << "Total Ordering violated";
  // Integrity: if m started after n's snapshot ended, m ∉ S_n.
  for (const auto& [n, s] : results) {
    std::uint64_t n_end = 0;
    for (const auto& [m, st, en] : spans) {
      if (m == n) n_end = en;
    }
    for (const Name& member : s) {
      for (const auto& [m, st, en] : spans) {
        if (m == member) {
          EXPECT_LT(st, n_end) << "Integrity violated: (" << m.pid << ","
                               << m.index << ") started after snapshot of ("
                               << n.pid << "," << n.index << ") ended";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, NameSnapshotSweep,
    ::testing::Values(SweepParam{201, 2, 2, false}, SweepParam{202, 4, 2, false},
                      SweepParam{203, 4, 3, true}, SweepParam{204, 6, 2, false},
                      SweepParam{205, 3, 4, true}, SweepParam{206, 8, 1, false}));

}  // namespace
}  // namespace nadreg::core
