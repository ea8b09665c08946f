// Unit tests for the hot-path memory machinery (DESIGN.md §14): the
// bump-pointer arena (slab reuse, reset-per-cycle, the reset-reuse
// aliasing rule) and the sharded pending-op table (stable entry
// addresses across growth, free-list recycling, backward-shift index
// deletion).
#include "common/arena.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nad/pending_table.h"

namespace nadreg {
namespace {

TEST(Arena, AllocRespectsAlignment) {
  // Up to alignof(max_align_t) — what the underlying new[] guarantees
  // for the slab base, and all the hot path ever asks for.
  Arena arena;
  (void)arena.Alloc(1, 1);  // misalign the bump offset
  char* p8 = arena.Alloc(8, 8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p8) % 8, 0u);
  char* pmax = arena.Alloc(16, alignof(std::max_align_t));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pmax) % alignof(std::max_align_t),
            0u);
}

TEST(Arena, ZeroByteAllocIsValid) {
  Arena arena;
  EXPECT_NE(arena.Alloc(0, 1), nullptr);
}

TEST(Arena, CopyRoundtrips) {
  Arena arena;
  const std::string src("bytes\0with\0nuls", 15);
  char* p = arena.Copy(src.data(), src.size());
  EXPECT_EQ(std::string_view(p, src.size()), std::string_view(src));
}

TEST(Arena, ResetRetainsSlabsAndReusesMemory) {
  Arena arena;
  char* first = arena.Alloc(100, 1);
  (void)arena.Alloc(500, 1);
  const std::size_t slabs = arena.slab_count();
  arena.Reset();
  // The steady-state contract: after warm-up a cycle allocates from the
  // same retained memory — same slab count, same addresses.
  char* again = arena.Alloc(100, 1);
  EXPECT_EQ(first, again);
  EXPECT_EQ(arena.slab_count(), slabs);
}

TEST(Arena, ResetReuseAliasesOldViews) {
  // THE ownership rule the rest of the tree relies on: a view into an
  // arena dies at Reset(). This test pins the mechanism — the next cycle
  // hands out the SAME bytes, so a stale view silently reads new data
  // (which is why rx views must not outlive their frame dispatch).
  Arena arena;
  char* a = arena.Copy("old payload", 11);
  std::string_view stale(a, 11);
  EXPECT_EQ(stale, "old payload");
  arena.Reset();
  char* b = arena.Copy("NEW-PAYLOAD", 11);
  ASSERT_EQ(static_cast<void*>(a), static_cast<void*>(b));  // aliased
  EXPECT_EQ(stale, "NEW-PAYLOAD");  // the stale view now reads new bytes
}

TEST(Arena, OversizedAllocationGetsDedicatedSlab) {
  Arena arena(/*slab_bytes=*/64);
  char* small = arena.Alloc(16, 1);
  char* big = arena.Alloc(1000, 1);  // cannot fit any 64-byte slab
  ASSERT_NE(small, nullptr);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.slab_count(), 2u);
  EXPECT_GE(arena.retained_bytes(), 1064u);
  std::memset(big, 'x', 1000);  // the whole span must be writable
  // After Reset the small slab is bumped first again.
  arena.Reset();
  EXPECT_EQ(arena.Alloc(16, 1), small);
}

TEST(Arena, ResetReleasesHugeOneOffSlabs) {
  // A single outlier allocation beyond kMaxRetainedSlabBytes — e.g. the
  // sub-view array a hostile maximum-count batch frame forces — gets a
  // dedicated slab that must NOT be retained: one malicious frame would
  // otherwise inflate the connection's footprint forever.
  Arena arena;
  (void)arena.Alloc(64, 1);  // a normal steady-state slab
  (void)arena.Alloc(Arena::kMaxRetainedSlabBytes + 1, 1);
  EXPECT_GT(arena.retained_bytes(), Arena::kMaxRetainedSlabBytes);
  arena.Reset();
  EXPECT_LE(arena.retained_bytes(), Arena::kMaxRetainedSlabBytes);
  // The steady-state slab survives and keeps being reused.
  char* a = arena.Alloc(64, 1);
  arena.Reset();
  EXPECT_EQ(arena.Alloc(64, 1), a);
}

TEST(Arena, ResetRetainsModeratelyOversizedSlabs) {
  // Oversized-but-reasonable dedicated slabs (at most the retention cap)
  // stay warm: a workload of legitimately large values must not pay a
  // malloc per cycle.
  Arena arena(/*slab_bytes=*/64);
  char* big = arena.Alloc(4096, 1);  // oversized for a 64-byte slab
  const std::size_t retained = arena.retained_bytes();
  arena.Reset();
  EXPECT_EQ(arena.retained_bytes(), retained);
  EXPECT_EQ(arena.Alloc(4096, 1), big);  // same dedicated slab, warm
}

TEST(Arena, StatsTrackUsageAndHighWater) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  (void)arena.Alloc(100, 1);
  EXPECT_EQ(arena.bytes_used(), 100u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.high_water(), 100u);
  (void)arena.Alloc(40, 1);
  arena.Reset();
  EXPECT_EQ(arena.high_water(), 100u);  // peak, not last
}

using nad::PendingTable;

TEST(PendingTable, InsertFindTakeErase) {
  PendingTable<std::string> table;
  EXPECT_TRUE(table.empty());
  *table.Insert(1) = "one";
  *table.Insert(2) = "two";
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.Find(1), nullptr);
  EXPECT_EQ(*table.Find(1), "one");
  EXPECT_EQ(table.Find(3), nullptr);
  std::string out;
  ASSERT_TRUE(table.Take(2, &out));
  EXPECT_EQ(out, "two");
  EXPECT_FALSE(table.Take(2, &out));  // already taken
  EXPECT_TRUE(table.Erase(1));
  EXPECT_FALSE(table.Erase(1));
  EXPECT_TRUE(table.empty());
}

TEST(PendingTable, EntryAddressesStableAcrossGrowth) {
  // The zero-copy wire path references pending write values in place;
  // this is the guarantee that makes it sound.
  PendingTable<std::string> table;
  std::vector<std::string*> early;
  for (std::uint64_t id = 0; id < 100; ++id) {
    std::string* p = table.Insert(id);
    *p = "entry-" + std::to_string(id);
    early.push_back(p);
  }
  // Force many slab allocations and index rehashes.
  for (std::uint64_t id = 100; id < 5000; ++id) *table.Insert(id) += "x";
  for (std::uint64_t id = 0; id < 100; ++id) {
    EXPECT_EQ(table.Find(id), early[id]) << id;          // same address
    EXPECT_EQ(*early[id], "entry-" + std::to_string(id));  // same bytes
  }
}

TEST(PendingTable, FreeListRecyclesSlots) {
  PendingTable<int> table;
  *table.Insert(10) = 1;
  int* old_slot = table.Find(10);
  ASSERT_TRUE(table.Erase(10));
  *table.Insert(11) = 2;  // must reuse the freed slot, not grow
  EXPECT_EQ(table.Find(11), old_slot);
  EXPECT_EQ(table.Find(10), nullptr);
}

TEST(PendingTable, ForEachAndEraseIf) {
  PendingTable<int> table;
  for (std::uint64_t id = 0; id < 20; ++id) {
    *table.Insert(id) = static_cast<int>(id);
  }
  int sum = 0;
  table.ForEach([&](std::uint64_t, int& v) { sum += v; });
  EXPECT_EQ(sum, 190);
  table.EraseIf([](std::uint64_t, int& v) { return v % 2 == 0; });
  EXPECT_EQ(table.size(), 10u);
  for (std::uint64_t id = 0; id < 20; ++id) {
    EXPECT_EQ(table.Find(id) != nullptr, id % 2 == 1) << id;
  }
}

TEST(PendingTable, ClearEmptiesButKeepsWorking) {
  PendingTable<std::string> table;
  for (std::uint64_t id = 0; id < 1000; ++id) *table.Insert(id) += "v";
  table.Clear();
  EXPECT_TRUE(table.empty());
  for (std::uint64_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(table.Find(id), nullptr);
  }
  *table.Insert(7) = "again";
  EXPECT_EQ(*table.Find(7), "again");
  EXPECT_EQ(table.size(), 1u);
}

TEST(PendingTable, RandomizedChurnAgainstReferenceModel) {
  // Backward-shift deletion and the free list under random interleaved
  // insert/erase/take, checked against a trivial reference map.
  PendingTable<std::uint64_t> table;
  std::vector<std::uint64_t> live;  // ids currently present
  Rng rng(0xfeed);
  std::uint64_t next_id = 0;
  for (int step = 0; step < 50'000; ++step) {
    const bool insert = live.empty() || rng.Below(100) < 55;
    if (insert) {
      const std::uint64_t id = next_id++;
      *table.Insert(id) = id * 3;
      live.push_back(id);
    } else {
      const std::size_t k = rng.Below(live.size());
      const std::uint64_t id = live[k];
      live[k] = live.back();
      live.pop_back();
      if (rng.Below(2) == 0) {
        std::uint64_t out = 0;
        ASSERT_TRUE(table.Take(id, &out));
        EXPECT_EQ(out, id * 3);
      } else {
        ASSERT_TRUE(table.Erase(id));
      }
    }
    if (step % 1000 == 0) {
      EXPECT_EQ(table.size(), live.size());
      for (std::size_t i = 0; i < live.size(); i += 17) {
        auto* p = table.Find(live[i]);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(*p, live[i] * 3);
      }
    }
  }
}

}  // namespace
}  // namespace nadreg
