// Unit tests for the quorum engine: ticket completion counting, quorum
// waits, the pending-write chaining discipline (paper footnotes 3/6/7),
// read coalescing, the bounds on a lagging register's queue, and crash
// tolerance.
#include "core/register_set.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/coded_cell.h"
#include "core/config.h"
#include "counting_client.h"
#include "obs/metrics.h"
#include "sim/det_farm.h"
#include "sim/sim_farm.h"

namespace nadreg::core {
namespace {

using namespace std::chrono_literals;
using sim::DetFarm;
using sim::SimFarm;

std::vector<RegisterId> ThreeRegs() {
  return FarmConfig{1}.Spread(0);  // one block across 3 disks
}

TEST(RegisterSet, WriteAllReachesEveryRegisterWhenDelivered) {
  DetFarm farm;
  RegisterSet set(farm, 1, ThreeRegs());
  auto t = set.WriteAll("v");
  EXPECT_EQ(farm.Pending().size(), 3u);
  farm.DeliverAll();
  EXPECT_EQ(t.Completed(), 3u);
  for (const auto& r : set.registers()) EXPECT_EQ(farm.Peek(r), "v");
}

TEST(RegisterSet, AwaitQuorumReturnsAfterTwoOfThree) {
  DetFarm farm;
  RegisterSet set(farm, 1, ThreeRegs());
  auto t = set.WriteAll("v");
  auto ops = farm.Pending();
  farm.Deliver(ops[0].id);
  farm.Deliver(ops[1].id);
  EXPECT_TRUE(set.Await(t, 2, 100ms));
  EXPECT_EQ(t.Completed(), 2u);
}

TEST(RegisterSet, AwaitTimesOutWithoutQuorum) {
  DetFarm farm;
  RegisterSet set(farm, 1, ThreeRegs());
  auto t = set.WriteAll("v");
  farm.Deliver(farm.Pending()[0].id);
  EXPECT_FALSE(set.Await(t, 2, 50ms));
}

TEST(RegisterSet, AwaitBlocksUntilDeliveryFromAnotherThread) {
  DetFarm farm;
  RegisterSet set(farm, 1, ThreeRegs());
  auto t = set.WriteAll("v");
  std::jthread adversary([&] {
    std::this_thread::sleep_for(20ms);
    farm.DeliverAll();
  });
  EXPECT_TRUE(set.Await(t, 3));
}

TEST(RegisterSet, ReadAllReturnsPerRegisterValues) {
  DetFarm farm;
  auto regs = ThreeRegs();
  RegisterSet set(farm, 1, regs);
  // Pre-populate registers with distinct values.
  for (std::size_t i = 0; i < regs.size(); ++i) {
    farm.IssueWrite(99, regs[i], "v" + std::to_string(i), nullptr);
  }
  farm.DeliverAll();

  auto t = set.ReadAll();
  farm.DeliverAll();
  ASSERT_TRUE(set.Await(t, 3, 100ms));
  auto results = t.Results();
  ASSERT_EQ(results.size(), 3u);
  for (const auto& [idx, v] : results) {
    EXPECT_EQ(v, "v" + std::to_string(idx));
  }
}

TEST(RegisterSet, PendingWriteChainsSecondWrite) {
  // Footnote 3: a WRITE to a register with a pending write from a previous
  // WRITE is deferred (forked in the background) until the previous write
  // finishes — the process never has two ops outstanding on one register.
  DetFarm farm;
  RegisterSet set(farm, 1, ThreeRegs());
  auto t1 = set.WriteAll("first");
  ASSERT_EQ(farm.Pending().size(), 3u);
  auto t2 = set.WriteAll("second");
  // The second WRITE's base writes are queued, not issued.
  EXPECT_EQ(farm.Pending().size(), 3u);

  // Deliver the first write on register 0: the chained second write is
  // then issued by the background continuation.
  auto ops = farm.Pending();
  farm.Deliver(ops[0].id);
  auto now = farm.Pending();
  ASSERT_EQ(now.size(), 3u);  // two firsts + one chained second
  EXPECT_EQ(t1.Completed(), 1u);
  EXPECT_EQ(t2.Completed(), 0u);

  farm.DeliverAll();
  EXPECT_EQ(t1.Completed(), 3u);
  EXPECT_EQ(t2.Completed(), 3u);
  for (const auto& r : set.registers()) EXPECT_EQ(farm.Peek(r), "second");
}

TEST(RegisterSet, ChainStalledForeverOnCrashedRegisterDoesNotBlockQuorum) {
  DetFarm farm;
  auto regs = ThreeRegs();
  RegisterSet set(farm, 1, regs);
  auto t1 = set.WriteAll("first");
  // Register 2's first write stays pending forever (register "slow").
  auto ops = farm.Pending();
  farm.Deliver(ops[0].id);
  farm.Deliver(ops[1].id);
  ASSERT_TRUE(set.Await(t1, 2, 100ms));

  // Second WRITE: register 2's write is queued behind the stalled one, but
  // registers 0 and 1 complete, so the quorum wait succeeds — wait-free.
  auto t2 = set.WriteAll("second");
  farm.DeliverWhere([&](const DetFarm::PendingOp& op) {
    return op.r != regs[2] && op.value == "second";
  });
  EXPECT_TRUE(set.Await(t2, 2, 100ms));
  // Register 2 still holds the initial value; its queue: [first, second].
  EXPECT_TRUE(farm.Peek(regs[2]).empty());
}

TEST(RegisterSet, QueuedReadsCoalesce) {
  DetFarm farm;
  auto regs = ThreeRegs();
  RegisterSet set(farm, 1, regs);
  auto t1 = set.ReadAll();  // issued
  auto t2 = set.ReadAll();  // queued
  auto t3 = set.ReadAll();  // coalesces with t2's queued reads
  EXPECT_EQ(farm.Pending().size(), 3u);

  farm.DeliverAll();  // delivers t1's reads, then the coalesced batch
  ASSERT_TRUE(set.Await(t1, 3, 100ms));
  ASSERT_TRUE(set.Await(t2, 3, 100ms));
  ASSERT_TRUE(set.Await(t3, 3, 100ms));
  // Exactly 6 reads reached the farm (3 + 3 coalesced), not 9.
  EXPECT_EQ(farm.stats().reads_issued, 6u);
}

TEST(RegisterSet, WritesDoNotCoalesce) {
  DetFarm farm;
  RegisterSet set(farm, 1, ThreeRegs());
  set.WriteAll("a");
  set.WriteAll("b");
  set.WriteAll("c");
  farm.DeliverAll();
  EXPECT_EQ(farm.stats().writes_issued, 9u);
}

TEST(RegisterSet, MixedQueueKeepsOrder) {
  DetFarm farm;
  auto regs = ThreeRegs();
  RegisterSet set(farm, 1, regs);
  set.WriteAll("w1");
  auto tr = set.ReadAll();   // queued behind w1
  set.WriteAll("w2");        // queued behind the read
  farm.DeliverAll();
  ASSERT_TRUE(set.Await(tr, 3, 100ms));
  // The read ran after w1 but before w2 on every register.
  for (const auto& [idx, v] : tr.Results()) EXPECT_EQ(v, "w1");
  for (const auto& r : regs) EXPECT_EQ(farm.Peek(r), "w2");
}

TEST(RegisterSet, ReadAllOfKeepsPendingDiscipline) {
  // A round over several sets treats each busy slot exactly as ReadAll
  // does: the read queues behind the pending op and coalesces with a
  // queued read. Every free slot of every set goes out in ONE vectored
  // call.
  DetFarm farm;
  testutil::CountingClient client(farm);
  const FarmConfig cfg{1};
  RegisterSet busy(client, 1, cfg.Spread(0));
  RegisterSet idle(client, 1, cfg.Spread(1));
  for (const auto& r : idle.registers()) {
    farm.IssueWrite(99, r, "idle-v", nullptr);
  }
  farm.DeliverAll();
  auto t1 = busy.ReadAll();  // issued: busy's slots are now pending
  auto t2 = busy.ReadAll();  // queued behind t1
  client.Reset();

  RegisterSet* const sets[] = {&busy, &idle};
  auto round = RegisterSet::ReadAllOf(sets);
  // One call, carrying only the idle set's reads: the busy set's reads
  // coalesced with t2's queued ones.
  ASSERT_EQ(client.ReadCalls(), 1u);
  EXPECT_EQ(client.ReadRounds()[0], idle.registers());
  EXPECT_EQ(farm.Pending().size(), 6u);

  farm.DeliverAll();
  ASSERT_TRUE(busy.Await(t1, 3, 100ms));
  ASSERT_TRUE(busy.Await(t2, 3, 100ms));
  ASSERT_TRUE(busy.Await(round, 3, 100ms));
  EXPECT_EQ(round.Completed(0), 3u);
  EXPECT_EQ(round.Completed(1), 3u);
  // Part indices are each set's own register indices.
  auto idle_results = round.Results(1);
  ASSERT_EQ(idle_results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(idle_results[i].first, i);
    EXPECT_EQ(idle_results[i].second, "idle-v");
  }
  // 3 (t1) + 3 (t2 and the round's busy part, coalesced) + 3 (idle) reads
  // reached the farm, not 12.
  EXPECT_EQ(farm.stats().reads_issued, 9u);
}

TEST(RegisterSet, WriteAllOfQueuesBehindPendingWrites) {
  DetFarm farm;
  testutil::CountingClient client(farm);
  const FarmConfig cfg{1};
  RegisterSet busy(client, 1, cfg.Spread(0));
  RegisterSet idle(client, 1, cfg.Spread(1));
  auto first = busy.WriteAll("first");
  client.Reset();
  const Value a = "a";
  const Value b = "b";
  const RegisterSet::SetWrite writes[] = {{&busy, &a}, {&idle, &b}};
  auto round = RegisterSet::WriteAllOf(writes);
  // One call with the idle set's writes; busy's "a" waits behind "first".
  EXPECT_EQ(client.WriteCalls(), 1u);
  EXPECT_EQ(farm.Pending().size(), 6u);
  farm.DeliverAll();
  ASSERT_TRUE(busy.Await(first, 3, 100ms));
  ASSERT_TRUE(busy.Await(round, 3, 100ms));
  for (const auto& r : busy.registers()) EXPECT_EQ(farm.Peek(r), "a");
  for (const auto& r : idle.registers()) EXPECT_EQ(farm.Peek(r), "b");
  EXPECT_EQ(farm.stats().writes_issued, 9u);  // writes never coalesce
}

std::uint64_t GlobalCount(const char* name) {
  return obs::Registry::Global().GetCounter(name).Get();
}

TEST(RegisterSet, LateCompletionRetainsNoValue) {
  // A round finished at a quorum must not pin its results while its
  // slowest register is still outstanding: once the caller drops the
  // ticket, the late completion finds no ticket state to store into.
  DetFarm farm;
  auto regs = ThreeRegs();
  RegisterSet set(farm, 1, regs);
  const Value big(1 << 20, 'v');
  for (const auto& r : regs) farm.IssueWrite(99, r, big, nullptr);
  farm.DeliverAll();

  {
    auto t = set.ReadAll();
    auto ops = farm.Pending();
    ASSERT_EQ(ops.size(), 3u);
    farm.Deliver(ops[0].id);
    farm.Deliver(ops[1].id);
    ASSERT_TRUE(set.Await(t, 2, 100ms));
    EXPECT_EQ(t.Results().size(), 2u);
  }  // the ticket, and with it both 1 MiB results, is gone here
  const std::uint64_t late_before = GlobalCount("core.late_completions");
  ASSERT_EQ(farm.Pending().size(), 1u);
  farm.DeliverAll();
  EXPECT_EQ(GlobalCount("core.late_completions"), late_before + 1);

  // A ticket still held receives its late completion as before.
  auto kept = set.ReadAll();
  farm.DeliverAll();
  ASSERT_EQ(kept.Completed(), 3u);
  for (const auto& [idx, v] : kept.Results()) EXPECT_EQ(v, big);
}

TEST(RegisterSet, AbandonedQueuedReadIsNeverIssued) {
  // A read has no side effect, so a queued read whose every ticket was
  // dropped is removed when its register chains, instead of being issued
  // behind a lagging op.
  DetFarm farm;
  testutil::CountingClient client(farm);
  RegisterSet set(client, 1, ThreeRegs());
  auto first = set.ReadAll();  // issued in one vectored call
  { auto abandoned = set.ReadAll(); }  // queued, then dropped
  farm.DeliverAll();
  ASSERT_TRUE(set.Await(first, 3, 100ms));
  EXPECT_EQ(client.SingleReads(), 0u);
  EXPECT_EQ(farm.stats().reads_issued, 3u);

  // A queued read some ticket still waits on is issued when it chains.
  auto again = set.ReadAll();
  auto queued = set.ReadAll();
  farm.DeliverAll();
  ASSERT_TRUE(set.Await(queued, 3, 100ms));
  EXPECT_EQ(client.SingleReads(), 3u);
}

CodedFragment Fragment(SeqNum seq, std::uint8_t index) {
  CodedFragment f;
  f.tag = CodedTag{seq, 1};
  f.index = index;
  f.n = 3;
  f.k = 1;
  f.bytes = "fragment-" + std::to_string(seq);
  f.value_size = static_cast<std::uint32_t>(f.bytes.size());
  f.crc = Crc32(f.bytes);
  return f;
}

std::vector<Value> Deltas(std::string (*encode)(const CodedFragment&),
                          SeqNum seq) {
  std::vector<Value> out;
  for (std::uint8_t i = 0; i < 3; ++i) out.push_back(encode(Fragment(seq, i)));
  return out;
}

TEST(RegisterSet, SubsumedQueuedMergeIsDroppedAndItsTicketCompletes) {
  // Behind a busy register, a queued Put(2) is subsumed by the
  // fragment-carrying Commit(2) queued after it: the commit replaces it,
  // and the Put's ticket completes when the commit does.
  DetFarm farm;
  RegisterSet set(farm, 1, ThreeRegs());
  auto put1 = set.MergeEach(Deltas(&EncodeCodedPut, 1));  // issued
  auto put2 = set.MergeEach(Deltas(&EncodeCodedPut, 2));  // queued
  const std::uint64_t compacted_before = GlobalCount("core.merges_compacted");
  auto commit2 = set.MergeEach(Deltas(&EncodeCodedCommit, 2));  // replaces
  EXPECT_EQ(GlobalCount("core.merges_compacted"), compacted_before + 3);
  // A Put never subsumes, so a later Put(3) queues behind the commit.
  auto put3 = set.MergeEach(Deltas(&EncodeCodedPut, 3));
  farm.DeliverAll();

  EXPECT_EQ(put1.Completed(), 3u);
  EXPECT_EQ(put2.Completed(), 3u);
  EXPECT_EQ(commit2.Completed(), 3u);
  EXPECT_EQ(put3.Completed(), 3u);
  EXPECT_EQ(farm.stats().writes_issued, 9u);  // 12 merges, 3 compacted
  for (std::size_t i = 0; i < 3; ++i) {
    auto cell = DecodeCodedCell(farm.Peek(set.registers()[i]));
    ASSERT_TRUE(cell.ok());
    EXPECT_EQ(cell->committed, (CodedTag{2, 1}));
    ASSERT_EQ(cell->frags.size(), 2u);  // committed 2 and pending 3
    EXPECT_EQ(cell->frags[0], Fragment(2, static_cast<std::uint8_t>(i)));
    EXPECT_EQ(cell->frags[1], Fragment(3, static_cast<std::uint8_t>(i)));
  }
}

TEST(RegisterSet, TwoProcessesHaveIndependentChains) {
  DetFarm farm;
  auto regs = ThreeRegs();
  RegisterSet set_p(farm, 1, regs);
  RegisterSet set_q(farm, 2, regs);
  set_p.WriteAll("p");
  // q's write is NOT chained behind p's: the one-op-per-register rule is
  // per process (base registers are MWMR).
  set_q.WriteAll("q");
  EXPECT_EQ(farm.Pending().size(), 6u);
}

TEST(RegisterSet, WorksOnRandomizedFarmUnderCrash) {
  SimFarm::Options o;
  o.seed = 11;
  o.max_delay_us = 100;
  SimFarm farm(o);
  auto regs = ThreeRegs();
  farm.CrashDisk(2);  // one of three disks down: quorum 2 still reachable
  RegisterSet set(farm, 1, regs);
  for (int i = 0; i < 50; ++i) {
    auto t = set.WriteAll("v" + std::to_string(i));
    ASSERT_TRUE(set.Await(t, 2, 2000ms)) << "write " << i;
  }
  auto t = set.ReadAll();
  ASSERT_TRUE(set.Await(t, 2, 2000ms));
  for (const auto& [idx, v] : t.Results()) EXPECT_EQ(v, "v49");
}

}  // namespace
}  // namespace nadreg::core
