// Tests for the consistency checkers themselves: hand-built histories with
// known verdicts, including the paper's separating examples (atomic vs
// sequentially consistent), incomplete writes, and randomized
// sanity sweeps against a reference sequential executor.
#include "checker/consistency.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/history.h"
#include "common/rng.h"

namespace nadreg::checker {
namespace {

// History-building helper with explicit timestamps.
struct H {
  std::vector<Operation> ops;

  H& W(ProcessId p, std::string v, std::uint64_t inv, std::uint64_t res) {
    Operation op;
    op.id = ops.size();
    op.process = p;
    op.kind = OpKind::kWrite;
    op.value = std::move(v);
    op.invoke = inv;
    op.respond = res;
    op.completed = true;
    ops.push_back(std::move(op));
    return *this;
  }
  H& R(ProcessId p, std::string v, std::uint64_t inv, std::uint64_t res) {
    Operation op;
    op.id = ops.size();
    op.process = p;
    op.kind = OpKind::kRead;
    op.value = std::move(v);
    op.invoke = inv;
    op.respond = res;
    op.completed = true;
    ops.push_back(std::move(op));
    return *this;
  }
  /// Incomplete (crashed) write: may take effect at any later time or never.
  H& Wpend(ProcessId p, std::string v, std::uint64_t inv) {
    Operation op;
    op.id = ops.size();
    op.process = p;
    op.kind = OpKind::kWrite;
    op.value = std::move(v);
    op.invoke = inv;
    op.respond = std::numeric_limits<std::uint64_t>::max();
    op.completed = false;
    ops.push_back(std::move(op));
    return *this;
  }
};

TEST(CheckAtomic, EmptyHistoryIsAtomic) {
  EXPECT_TRUE(CheckAtomic({}).ok);
}

TEST(CheckAtomic, SequentialReadsAndWrites) {
  H h;
  h.W(1, "a", 1, 2).R(2, "a", 3, 4).W(1, "b", 5, 6).R(2, "b", 7, 8);
  EXPECT_TRUE(CheckAtomic(h.ops).ok);
}

TEST(CheckAtomic, ReadOfInitialValue) {
  H h;
  h.R(1, "", 1, 2).W(2, "x", 3, 4).R(1, "x", 5, 6);
  EXPECT_TRUE(CheckAtomic(h.ops).ok);
  EXPECT_TRUE(CheckAtomic(h.ops, "").ok);
}

TEST(CheckAtomic, CustomInitialValue) {
  H h;
  h.R(1, "init", 1, 2);
  EXPECT_TRUE(CheckAtomic(h.ops, "init").ok);
  EXPECT_FALSE(CheckAtomic(h.ops, "other").ok);
}

TEST(CheckAtomic, StaleReadAfterCompletedWriteFails) {
  // W(b) completed strictly before the read; read returns the older "a".
  H h;
  h.W(1, "a", 1, 2).W(1, "b", 3, 4).R(2, "a", 5, 6);
  auto result = CheckAtomic(h.ops);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.explanation.find("NOT atomic"), std::string::npos);
}

TEST(CheckAtomic, ConcurrentWriteMayLinearizeEitherWay) {
  // Read overlaps the write: both old and new values are acceptable.
  H h1;
  h1.W(1, "a", 1, 10).R(2, "a", 2, 3);
  EXPECT_TRUE(CheckAtomic(h1.ops).ok);
  H h2;
  h2.W(1, "a", 1, 10).R(2, "", 2, 3);
  EXPECT_TRUE(CheckAtomic(h2.ops).ok);
}

TEST(CheckAtomic, NewOldInversionFails) {
  // Two sequential reads of different readers: new then old — the classic
  // atomicity violation (fine for regular registers, fatal for atomic).
  H h;
  h.W(1, "new", 1, 20)      // write concurrent with both reads
      .R(2, "new", 2, 3)    // reader A sees the new value
      .R(3, "", 4, 5);      // reader B then reads the initial value
  EXPECT_FALSE(CheckAtomic(h.ops).ok);
}

TEST(CheckAtomic, PendingWriteMayTakeEffectLate) {
  // W(x) never completes; a much later read may still return x (the
  // pending write took effect in between).
  H h;
  h.Wpend(1, "x", 1).R(2, "", 2, 3).R(2, "x", 10, 11);
  EXPECT_TRUE(CheckAtomic(h.ops).ok);
}

TEST(CheckAtomic, PendingWriteMayNeverTakeEffect) {
  H h;
  h.Wpend(1, "x", 1).R(2, "", 2, 3).R(2, "", 10, 11);
  EXPECT_TRUE(CheckAtomic(h.ops).ok);
}

TEST(CheckAtomic, PendingWriteCannotUnhappen) {
  // Once a read returned x, a later read may not return the initial value
  // again — even though the write never completed.
  H h;
  h.Wpend(1, "x", 1).R(2, "x", 2, 3).R(2, "", 10, 11);
  EXPECT_FALSE(CheckAtomic(h.ops).ok);
}

TEST(CheckAtomic, WitnessIsAValidLinearization) {
  H h;
  h.W(1, "a", 1, 4).R(2, "a", 2, 6).W(1, "b", 7, 9).R(2, "b", 8, 12);
  auto result = CheckAtomic(h.ops);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.witness.size(), 4u);
  // Replay the witness: reads must return the then-current value.
  std::string value;
  for (std::size_t id : result.witness) {
    const Operation& op = h.ops[id];
    if (op.kind == OpKind::kWrite) {
      value = op.value;
    } else {
      EXPECT_EQ(op.value, value);
    }
  }
}

TEST(CheckSeqCst, AtomicHistoriesAreAlsoSequentiallyConsistent) {
  H h;
  h.W(1, "a", 1, 2).R(2, "a", 3, 4).W(1, "b", 5, 6).R(2, "b", 7, 8);
  EXPECT_TRUE(CheckSequentiallyConsistent(h.ops).ok);
}

TEST(CheckSeqCst, NewOldInversionAcrossProcessesIsAllowed) {
  // The Fig. 2 separating example: not atomic, but serializable by
  // reordering across processes.
  H h;
  h.W(1, "va", 1, 2)
      .W(2, "vb", 3, 4)
      .R(3, "vb", 5, 6)
      .R(3, "va", 7, 8);
  EXPECT_FALSE(CheckAtomic(h.ops).ok);
  EXPECT_TRUE(CheckSequentiallyConsistent(h.ops).ok);
}

TEST(CheckSeqCst, ProgramOrderViolationFails) {
  // One process reads b then a, where the same single process wrote a
  // then b: no serialization can respect its own program order.
  H h;
  h.W(1, "a", 1, 2).W(1, "b", 3, 4).R(2, "b", 5, 6).R(2, "a", 7, 8);
  EXPECT_FALSE(CheckSequentiallyConsistent(h.ops).ok);
}

TEST(CheckSeqCst, StaleReadIsAllowed) {
  // Sequentially consistent registers may return arbitrarily stale values
  // (Section 5: READ 0 after WRITE 0, WRITE 1 is serializable).
  H h;
  h.W(1, "0", 1, 2).W(1, "1", 3, 4).R(2, "0", 5, 6);
  EXPECT_FALSE(CheckAtomic(h.ops).ok);
  EXPECT_TRUE(CheckSequentiallyConsistent(h.ops).ok);
}

TEST(CheckSeqCst, ValueNeverWrittenFails) {
  H h;
  h.W(1, "a", 1, 2).R(2, "ghost", 3, 4);
  EXPECT_FALSE(CheckSequentiallyConsistent(h.ops).ok);
}

TEST(CheckSeqCst, ReadBeforeAnyWriteOfThatValueByItsOwnProcess) {
  // p reads "b" before writing it itself; q never writes. Serialization
  // must place some write of "b" before the read — impossible.
  H h;
  h.R(1, "b", 1, 2).W(1, "b", 3, 4);
  EXPECT_FALSE(CheckSequentiallyConsistent(h.ops).ok);
}

TEST(CheckRegular, SequentialHistoryIsRegular) {
  H h;
  h.W(1, "a", 1, 2).R(2, "a", 3, 4).W(1, "b", 5, 6).R(2, "b", 7, 8);
  EXPECT_TRUE(CheckRegular(h.ops).ok);
}

TEST(CheckRegular, ConcurrentWriteAllowsEitherValue) {
  H h1;
  h1.W(1, "a", 1, 10).R(2, "a", 2, 3);
  EXPECT_TRUE(CheckRegular(h1.ops).ok);
  H h2;
  h2.W(1, "a", 1, 10).R(2, "", 2, 3);
  EXPECT_TRUE(CheckRegular(h2.ops).ok);
}

TEST(CheckRegular, NewOldInversionIsRegularButNotAtomic) {
  // The separation between regular and atomic: both reads overlap the
  // write, first sees new, second sees old.
  H h;
  h.W(1, "new", 1, 20).R(2, "new", 2, 3).R(3, "", 4, 5);
  EXPECT_TRUE(CheckRegular(h.ops).ok);
  EXPECT_FALSE(CheckAtomic(h.ops).ok);
}

TEST(CheckRegular, StaleReadAfterCompletedWriteFails) {
  H h;
  h.W(1, "a", 1, 2).W(1, "b", 3, 4).R(2, "a", 5, 6);
  auto result = CheckRegular(h.ops);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.explanation.find("NOT regular"), std::string::npos);
}

TEST(CheckRegular, NeverWrittenValueFails) {
  H h;
  h.W(1, "a", 1, 2).R(2, "ghost", 3, 4);
  EXPECT_FALSE(CheckRegular(h.ops).ok);
}

TEST(CheckRegular, PendingWriteIsForeverConcurrent) {
  H h;
  h.Wpend(1, "x", 1).R(2, "x", 10, 11).R(2, "", 20, 21);
  // Both allowed: the torn write is concurrent with every later read —
  // regular permits the un-happening that atomicity forbids.
  EXPECT_TRUE(CheckRegular(h.ops).ok);
  EXPECT_FALSE(CheckAtomic(h.ops).ok);
}

TEST(CheckRegular, InitialValueBeforeAnyWrite) {
  H h;
  h.R(2, "", 1, 2).W(1, "a", 3, 4);
  EXPECT_TRUE(CheckRegular(h.ops).ok);
  H bad;
  bad.R(2, "a", 1, 2).W(1, "a", 3, 4);
  EXPECT_FALSE(CheckRegular(bad.ops).ok);
}

TEST(CheckRegular, RejectsMultiWriterHistories) {
  H h;
  h.W(1, "a", 1, 2).W(2, "b", 3, 4);
  auto result = CheckRegular(h.ops);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.explanation.find("single writer"), std::string::npos);
}

TEST(CheckRegular, AtomicHistoriesAreAlwaysRegular) {
  // atomic ⊂ regular on single-writer histories.
  Rng rng(321);
  for (int round = 0; round < 50; ++round) {
    H h;
    std::uint64_t clock = 0;
    std::string value;
    int wcount = 0;
    for (int s = 0; s < 12; ++s) {
      const std::uint64_t inv = ++clock;
      const std::uint64_t res = ++clock;
      if (rng.Chance(1, 2)) {
        value.clear();
        value += "v";
        value += std::to_string(++wcount);
        h.W(1, value, inv, res);
      } else {
        h.R(2 + rng.Below(2), value, inv, res);
      }
    }
    ASSERT_TRUE(CheckAtomic(h.ops).ok);
    EXPECT_TRUE(CheckRegular(h.ops).ok);
  }
}

// Randomized cross-validation: histories generated by an actual sequential
// execution (interleaving per-process scripts) must always pass both
// checkers; mutating one read to a wrong value must fail atomicity.
class CheckerRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckerRandom, SequentialExecutionsAlwaysPass) {
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    const int procs = 2 + static_cast<int>(rng.Below(3));
    const int steps = 4 + static_cast<int>(rng.Below(10));
    std::vector<Operation> ops;
    std::string value;
    std::uint64_t clock = 0;
    int wcount = 0;
    for (int s = 0; s < steps; ++s) {
      Operation op;
      op.id = ops.size();
      op.process = rng.Below(procs);
      op.invoke = ++clock;
      if (rng.Chance(1, 2)) {
        op.kind = OpKind::kWrite;
        op.value.clear();
        op.value += "v";
        op.value += std::to_string(++wcount);
        value = op.value;
      } else {
        op.kind = OpKind::kRead;
        op.value = value;
      }
      op.respond = ++clock;
      op.completed = true;
      ops.push_back(std::move(op));
    }
    EXPECT_TRUE(CheckAtomic(ops).ok);
    EXPECT_TRUE(CheckSequentiallyConsistent(ops).ok);

    // Mutate one read to a never-written value: both checkers must fail.
    for (auto& op : ops) {
      if (op.kind == OpKind::kRead) {
        op.value = "never-written";
        EXPECT_FALSE(CheckAtomic(ops).ok);
        EXPECT_FALSE(CheckSequentiallyConsistent(ops).ok);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerRandom,
                         ::testing::Values(101, 102, 103, 104));

TEST(CheckAtomic, HandlesWiderConcurrencyEfficiently) {
  // 60 ops, 6 processes, heavy overlap: the memoized search must finish
  // fast. All reads return the last completed write before their invoke —
  // a valid linearization exists.
  std::vector<Operation> ops;
  std::uint64_t clock = 0;
  std::string last;
  for (int round = 0; round < 10; ++round) {
    std::string v = "v";
    v += std::to_string(round);
    for (ProcessId p = 0; p < 3; ++p) {
      Operation w;
      w.id = ops.size();
      w.process = p;
      w.kind = OpKind::kWrite;
      w.value = v;  // same value from several writers keeps state space big
      w.invoke = clock + 1;
      w.respond = clock + 10;
      w.completed = true;
      ops.push_back(w);
    }
    clock += 10;
    for (ProcessId p = 3; p < 6; ++p) {
      Operation r;
      r.id = ops.size();
      r.process = p;
      r.kind = OpKind::kRead;
      r.value = v;
      r.invoke = clock + 1;
      r.respond = clock + 5;
      r.completed = true;
      ops.push_back(r);
    }
    clock += 5;
  }
  EXPECT_TRUE(CheckAtomic(ops).ok);
  EXPECT_TRUE(CheckSequentiallyConsistent(ops).ok);
}

}  // namespace
}  // namespace nadreg::checker
