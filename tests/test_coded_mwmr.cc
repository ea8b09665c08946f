// Tests for the erasure-coded atomic MWMR emulation: sequential
// semantics over a simulated farm, storage accounting (each disk holds a
// fragment, never a full copy), the one-round fast read and the
// write-back it must keep, and multi-writer multi-reader behaviour
// under random schedules and quorum-minority disk crashes — every
// concurrent history certified atomic by the linearizability checker.
#include "core/coded/coded_mwmr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "checker/consistency.h"
#include "checker/history.h"
#include "common/coded_cell.h"
#include "core/address.h"
#include "counting_client.h"
#include "harness/workload.h"
#include "sim/sim_farm.h"

namespace nadreg::core {
namespace {

using checker::CheckAtomic;
using checker::HistoryRecorder;
using sim::SimFarm;

CodedMwmr MakeReg(SimFarm& farm, ProcessId self,
                  CodedOptions opts = CodedOptions{}) {
  auto reg = CodedMwmr::Make(farm, 1, self, opts);
  EXPECT_TRUE(reg.ok()) << reg.status().ToString();
  return std::move(*reg);
}

TEST(CodedMwmr, RejectsBadGeometryAndSubstrate) {
  SimFarm farm;
  EXPECT_FALSE(CodedMwmr::Make(farm, 1, 1, CodedOptions{4, 0}).ok());
  EXPECT_FALSE(CodedMwmr::Make(farm, 1, 1, CodedOptions{4, 5}).ok());
  EXPECT_TRUE(CodedMwmr::Make(farm, 1, 1, CodedOptions{5, 5}).ok());  // f=0
}

TEST(CodedMwmr, InitialValueIsNullopt) {
  SimFarm farm;
  auto reg = MakeReg(farm, 1);
  EXPECT_FALSE(reg.Read().has_value());
}

TEST(CodedMwmr, WriteThenReadSameProcess) {
  SimFarm farm;
  auto reg = MakeReg(farm, 1);
  reg.Write("hello coded world");
  auto v = reg.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "hello coded world");
}

TEST(CodedMwmr, WriteThenReadAcrossProcesses) {
  SimFarm farm;
  auto writer = MakeReg(farm, 1);
  auto reader = MakeReg(farm, 2);
  const std::string big(10000, 'x');
  writer.Write(big);
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, big);
}

TEST(CodedMwmr, MultipleWritesLastOneWins) {
  SimFarm farm;
  auto w1 = MakeReg(farm, 1);
  auto w2 = MakeReg(farm, 2);
  auto reader = MakeReg(farm, 3);
  w1.Write("first");
  w2.Write("second");
  w1.Write("third");
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "third");
}

TEST(CodedMwmr, EmptyValueRoundTrips) {
  SimFarm farm;
  auto reg = MakeReg(farm, 1);
  reg.Write("");
  auto v = reg.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->empty());
}

TEST(CodedMwmr, DisksStoreFragmentsNotCopies) {
  SimFarm farm;
  CodedOptions opts{8, 5};
  auto reg = MakeReg(farm, 1, opts);
  const std::string value(5000, 'v');
  reg.Write(value);
  // Every disk's cell holds one fragment of ceil(5000/5) = 1000 bytes
  // (plus bounded metadata), never the 5000-byte value.
  const std::size_t frag = 1000;
  for (DiskId d = 0; d < opts.n; ++d) {
    RegisterId r{d, MakeBlock(1, Component::kCodedCell, 0)};
    const Value cell_bytes = farm.Peek(r);
    ASSERT_FALSE(cell_bytes.empty()) << "disk " << d;
    EXPECT_LT(cell_bytes.size(), 2 * frag) << "disk " << d;
    auto cell = DecodeCodedCell(cell_bytes);
    ASSERT_TRUE(cell.ok());
    ASSERT_EQ(cell->frags.size(), 1u);
    EXPECT_EQ(cell->frags[0].bytes.size(), frag);
    EXPECT_EQ(cell->frags[0].index, d);
  }
}

TEST(CodedMwmr, SurvivesQuorumMinorityCrash) {
  SimFarm farm;
  CodedOptions opts{8, 5};  // f = 1
  auto writer = MakeReg(farm, 1, opts);
  auto reader = MakeReg(farm, 2, opts);
  writer.Write("before crash");
  farm.CrashDisk(3);
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "before crash");
  writer.Write("after crash");
  v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "after crash");
}

// Concurrent histories over random schedules, certified by the exact
// linearizability checker — the coded analogue of the MwmrAtomic sweeps.
void RunConcurrent(int writers, int readers, int ops, std::uint64_t seed,
                   int crash_disks) {
  harness::WorkloadOptions opts;
  opts.algorithm = harness::Algorithm::kCodedMwmr;
  opts.coded_n = 8;
  opts.coded_k = 5;
  opts.writers = writers;
  opts.readers = readers;
  opts.ops_per_process = ops;
  opts.seed = seed;
  opts.crash_disks = crash_disks;
  opts.payload_bytes = 64;
  auto result = harness::RunWorkload(opts);
  EXPECT_TRUE(result.check.ok) << result.check.explanation;
}

TEST(CodedMwmr, ConcurrentHistoriesAreAtomicNoCrash) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunConcurrent(3, 3, 6, seed, /*crash_disks=*/0);
  }
}

TEST(CodedMwmr, ConcurrentHistoriesAreAtomicWithCrash) {
  for (std::uint64_t seed = 10; seed <= 15; ++seed) {
    RunConcurrent(3, 3, 6, seed, /*crash_disks=*/1);
  }
}

TEST(CodedMwmr, TornWriteNeverSurfaces) {
  // A writer that crashes mid-put leaves fragments of an uncommitted tag
  // on a minority of disks. No commit ever reaches a quorum for that
  // tag, so readers must keep returning the last committed value — never
  // a decode of the torn write's fragments.
  SimFarm farm;
  CodedOptions opts{8, 5};
  auto writer = MakeReg(farm, 1, opts);
  auto reader = MakeReg(farm, 2, opts);
  writer.Write("stable");

  // Simulate the crash: hand-deliver tag-2 Puts to 3 < k disks, no commit.
  auto rs = RsCode::Make(opts.n, opts.k);
  ASSERT_TRUE(rs.ok());
  const std::string torn(100, 'T');
  auto frags = rs->Encode(torn);
  for (DiskId d = 0; d < 3; ++d) {
    CodedFragment f;
    f.tag = CodedTag{2, 9};
    f.index = static_cast<std::uint8_t>(d);
    f.n = static_cast<std::uint8_t>(opts.n);
    f.k = static_cast<std::uint8_t>(opts.k);
    f.value_size = static_cast<std::uint32_t>(torn.size());
    f.crc = Crc32(frags[d]);
    f.bytes = frags[d];
    RegisterId r{d, MakeBlock(1, Component::kCodedCell, 0)};
    std::atomic<bool> done = false;
    farm.IssueMerge(9, r, EncodeCodedPut(f), [&done] { done = true; });
    while (!done) std::this_thread::yield();
  }

  for (int i = 0; i < 5; ++i) {
    auto v = reader.Read();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, "stable");
  }
}

TEST(CodedMwmr, HelpCommitRepropagatesInFlightFragments) {
  // The dangerous torn-write regime: a writer crashes mid-put having
  // reached exactly k disks — no commit anywhere, but a reader CAN
  // assemble the tag. Help-committing it is only sound if the reader
  // re-propagates the decoded fragments to a write quorum first;
  // committing the bare tag would make it the global max committed tag
  // while its fragments sit on k < q disks, and a later read quorum can
  // intersect the holders in as few as k - f < k disks — permanent
  // read unavailability with zero disk crashes.
  SimFarm farm;
  CodedOptions opts{8, 5};  // q = 7
  auto writer = MakeReg(farm, 1, opts);
  writer.Write("stable");

  // Hand-deliver tag-2 Puts to exactly k = 5 disks, no commit.
  auto rs = RsCode::Make(opts.n, opts.k);
  ASSERT_TRUE(rs.ok());
  const std::string torn(100, 'T');
  auto frags = rs->Encode(torn);
  for (DiskId d = 0; d < opts.k; ++d) {
    CodedFragment f;
    f.tag = CodedTag{2, 9};
    f.index = static_cast<std::uint8_t>(d);
    f.n = static_cast<std::uint8_t>(opts.n);
    f.k = static_cast<std::uint8_t>(opts.k);
    f.value_size = static_cast<std::uint32_t>(torn.size());
    f.crc = Crc32(frags[d]);
    f.bytes = frags[d];
    RegisterId r{d, MakeBlock(1, Component::kCodedCell, 0)};
    std::atomic<bool> done = false;
    farm.IssueMerge(9, r, EncodeCodedPut(f), [&done] { done = true; });
    while (!done) std::this_thread::yield();
  }
  // Crash a non-holder (within f = 1) so every 7-disk quorum contains
  // all 5 fragment holders: the reader deterministically decodes tag 2.
  farm.CrashDisk(7);

  auto r1 = MakeReg(farm, 2, opts);
  auto v1 = r1.Read();
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(*v1, torn);  // assembled the in-flight tag...

  // ...and its help-commit re-installed fragments beyond the original
  // holders: every live disk now holds committed = tag 2 AND its
  // fragment of tag 2.
  for (DiskId d = 0; d < opts.n - 1; ++d) {
    RegisterId r{d, MakeBlock(1, Component::kCodedCell, 0)};
    auto cell = DecodeCodedCell(farm.Peek(r));
    ASSERT_TRUE(cell.ok()) << "disk " << d;
    EXPECT_EQ(cell->committed, (CodedTag{2, 9})) << "disk " << d;
    ASSERT_EQ(cell->frags.size(), 1u) << "disk " << d;
    EXPECT_EQ(cell->frags[0].tag, (CodedTag{2, 9})) << "disk " << d;
    EXPECT_EQ(cell->frags[0].index, d) << "disk " << d;
  }

  // A second reader (fresh endpoint, any quorum) completes and agrees.
  auto r2 = MakeReg(farm, 3, opts);
  auto v2 = r2.Read();
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(*v2, torn);
}

RegisterId CellOf(DiskId d) {
  return RegisterId{d, MakeBlock(1, Component::kCodedCell, 0)};
}

// Spins until every disk's cell reports `tag` committed: the WRITE's
// trailing commit (beyond its quorum) has landed too.
void AwaitCommittedEverywhere(const SimFarm& farm, const CodedOptions& opts,
                              const CodedTag& tag) {
  for (DiskId d = 0; d < opts.n; ++d) {
    for (;;) {
      auto cell = DecodeCodedCell(farm.Peek(CellOf(d)));
      if (cell.ok() && cell->committed == tag) break;
      std::this_thread::yield();
    }
  }
}

TEST(CodedMwmr, QuiescentReadSkipsWriteBack) {
  // Once a WRITE's commit reached every disk, any read quorum shows its
  // tag committed with fragments at >= q disks: the READ returns after
  // its one read round and merges nothing.
  SimFarm farm;
  CodedOptions opts;
  auto writer = MakeReg(farm, 1, opts);
  writer.Write("quiescent");
  AwaitCommittedEverywhere(farm, opts, CodedTag{1, 1});

  testutil::CountingClient counting(farm);
  auto reader = CodedMwmr::Make(counting, 1, 2, opts);
  ASSERT_TRUE(reader.ok());
  auto v = reader->Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "quiescent");
  EXPECT_EQ(counting.ReadCalls(), 1u);
  EXPECT_EQ(counting.Merges(), 0u);
  EXPECT_EQ(reader->fast_reads(), 1u);
}

TEST(CodedMwmr, PartiallyCommittedTagStillWritesBack) {
  // A tag committed (with its fragments) at q - 1 disks: every read
  // quorum decodes it, but fewer than q responders report it committed,
  // so the READ must write back before returning.
  SimFarm farm;
  CodedOptions opts;  // n = 8, k = 5, q = 7
  auto rs = RsCode::Make(opts.n, opts.k);
  ASSERT_TRUE(rs.ok());
  const std::string value(100, 'P');
  const CodedTag tag{1, 9};
  auto shards = rs->Encode(value);
  for (DiskId d = 0; d + 1 < opts.quorum(); ++d) {
    CodedFragment f;
    f.tag = tag;
    f.index = static_cast<std::uint8_t>(d);
    f.n = static_cast<std::uint8_t>(opts.n);
    f.k = static_cast<std::uint8_t>(opts.k);
    f.value_size = static_cast<std::uint32_t>(value.size());
    f.crc = Crc32(shards[d]);
    f.bytes = shards[d];
    std::atomic<bool> done = false;
    farm.IssueMerge(9, CellOf(d), EncodeCodedCommit(f),
                    [&done] { done = true; });
    while (!done) std::this_thread::yield();
  }

  testutil::CountingClient counting(farm);
  auto reader = CodedMwmr::Make(counting, 1, 2, opts);
  ASSERT_TRUE(reader.ok());
  auto v = reader->Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, value);
  EXPECT_EQ(reader->fast_reads(), 0u);
  EXPECT_EQ(counting.Merges(), opts.n);  // the write-back's commit round

  std::uint32_t committed = 0;
  for (DiskId d = 0; d < opts.n; ++d) {
    auto cell = DecodeCodedCell(farm.Peek(CellOf(d)));
    ASSERT_TRUE(cell.ok()) << "disk " << d;
    if (cell->committed == tag) ++committed;
  }
  EXPECT_GE(committed, opts.quorum());
}

TEST(CodedMwmr, WireAccountingGrowsWithTraffic) {
  SimFarm farm;
  auto reg = MakeReg(farm, 1);
  reg.Write(std::string(1024, 'w'));
  (void)reg.Read();
  EXPECT_GT(reg.WireBytesOut(), 0u);
  EXPECT_GT(reg.WireBytesIn(), 0u);
  // Fragments, not copies: one write moves ~n/k of the value (plus
  // metadata and commit deltas), well under n full copies.
  EXPECT_LT(reg.WireBytesOut(), 8u * 1024u);
  const auto m = reg.op_metrics();
  EXPECT_EQ(m.writes, 1u);
  EXPECT_EQ(m.reads, 1u);
}

}  // namespace
}  // namespace nadreg::core
