// Tests for the fault-aware schedule explorer: exhaustive verification of
// the SWSR emulation over all delivery orders (and fault placements within
// a budget), unguided rediscovery of the Fig. 2 candidate's non-atomicity,
// partial-order-reduction accounting, and the counterexample pipeline
// (serialize -> replay -> minimize).
#include "sim/explorer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "checker/consistency.h"
#include "checker/history.h"
#include "core/config.h"
#include "core/mwsr_seqcst.h"
#include "core/oneshot.h"
#include "core/swsr_atomic.h"
#include "sim/scenario.h"
#include "sim/schedule_trace.h"

namespace nadreg::sim {
namespace {

using checker::CheckAtomic;
using checker::CheckSequentiallyConsistent;
using checker::HistoryRecorder;
using core::FarmConfig;

// Scenario: SWSR register, `writes` WRITEs concurrent with `reads` READs.
// Every delivery order must yield a linearizable history. Bare-API
// variant: only usable with crash_budget == 0 (the bare ops assert that
// their quorums complete).
ScheduleExplorer::RunFactory SwsrScenario(int writes, int reads) {
  return [writes, reads](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto rec = std::make_shared<HistoryRecorder>();
    FarmConfig cfg{1};
    auto regs = cfg.Spread(0);
    scenario->Spawn([&farm, rec, cfg, regs, writes] {
      core::SwsrAtomicWriter writer(farm, cfg, regs, 1);
      for (int i = 1; i <= writes; ++i) {
        std::string v = "v";
        v += std::to_string(i);
        auto h = rec->BeginWrite(1, v);
        writer.Write(v);
        rec->EndWrite(h);
      }
    });
    if (reads > 0) {
      scenario->Spawn([&farm, rec, cfg, regs, reads] {
        core::SwsrAtomicReader reader(farm, cfg, regs, 2);
        for (int i = 0; i < reads; ++i) {
          auto h = rec->BeginRead(2);
          rec->EndRead(h, reader.Read());
        }
      });
    }
    scenario->SetValidator([rec]() -> std::optional<std::string> {
      auto result = CheckAtomic(rec->CheckableHistory());
      if (result.ok) return std::nullopt;
      return result.explanation;
    });
    return scenario;
  };
}

// Fault-tolerant SWSR variant for crash_budget > 0: uses the OpOptions
// overloads (which report failure instead of asserting) and records only
// what actually happened — an op that failed because the farm was
// abandoned stays incomplete in the history, which is exactly what the
// checker expects of a crashed process.
ScheduleExplorer::RunFactory SwsrFaultScenario(int writes, int reads) {
  return [writes, reads](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto rec = std::make_shared<HistoryRecorder>();
    FarmConfig cfg{1};
    auto regs = cfg.Spread(0);
    scenario->Spawn([&farm, rec, cfg, regs, writes] {
      core::SwsrAtomicWriter writer(farm, cfg, regs, 1);
      for (int i = 1; i <= writes; ++i) {
        std::string v = "v";
        v += std::to_string(i);
        auto h = rec->BeginWrite(1, v);
        if (!writer.Write(v, OpOptions{}).ok()) return;
        rec->EndWrite(h);
      }
    });
    if (reads > 0) {
      scenario->Spawn([&farm, rec, cfg, regs, reads] {
        core::SwsrAtomicReader reader(farm, cfg, regs, 2);
        for (int i = 0; i < reads; ++i) {
          auto h = rec->BeginRead(2);
          auto v = reader.Read(OpOptions{});
          if (!v.ok()) return;  // incomplete READ: constrains nothing
          rec->EndRead(h, *v);
        }
      });
    }
    scenario->SetValidator([rec]() -> std::optional<std::string> {
      auto result = CheckAtomic(rec->CheckableHistory());
      if (result.ok) return std::nullopt;
      return result.explanation;
    });
    return scenario;
  };
}

// Scenario: the Fig. 2 MWSR register used as if it were atomic — two
// writers (driven sequentially by one thread, so the WRITEs are ordered
// in real time) and a reader doing two READs. `fault_tolerant` switches
// to the OpOptions API so the scenario also runs under a crash budget.
ScheduleExplorer::RunFactory MwsrAsAtomicScenario(bool fault_tolerant) {
  return [fault_tolerant](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto rec = std::make_shared<HistoryRecorder>();
    FarmConfig cfg{1};
    auto regs = cfg.Spread(0);
    scenario->Spawn([&farm, rec, cfg, regs, fault_tolerant] {
      core::MwsrWriter wa(farm, cfg, regs, 1);
      core::MwsrWriter wb(farm, cfg, regs, 2);
      auto h1 = rec->BeginWrite(1, "va");
      if (fault_tolerant) {
        if (!wa.Write("va", OpOptions{}).ok()) return;
      } else {
        wa.Write("va");
      }
      rec->EndWrite(h1);
      auto h2 = rec->BeginWrite(2, "vb");
      if (fault_tolerant) {
        if (!wb.Write("vb", OpOptions{}).ok()) return;
      } else {
        wb.Write("vb");
      }
      rec->EndWrite(h2);
    });
    scenario->Spawn([&farm, rec, cfg, regs, fault_tolerant] {
      core::MwsrReader reader(farm, cfg, regs, 99);
      for (int i = 0; i < 2; ++i) {
        auto h = rec->BeginRead(99);
        if (fault_tolerant) {
          auto v = reader.Read(OpOptions{});
          if (!v.ok()) return;
          rec->EndRead(h, *v);
        } else {
          rec->EndRead(h, reader.Read());
        }
      }
    });
    scenario->SetValidator([rec]() -> std::optional<std::string> {
      auto history = rec->CheckableHistory();
      auto atomic = CheckAtomic(history);
      if (atomic.ok) return std::nullopt;
      // Sanity: any discovered violation must still be seq-consistent
      // (otherwise Fig. 2 itself would be broken, not just its misuse).
      auto seq = CheckSequentiallyConsistent(history);
      if (!seq.ok) return "seq-cst ALSO violated (bug!):\n" + seq.explanation;
      return atomic.explanation;
    });
    return scenario;
  };
}

TEST(Explorer, SwsrSingleWriteSingleReadExhaustivelyAtomic) {
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.max_schedules = 0;  // unlimited: exhaust the space
  auto outcome = explorer.Explore(SwsrScenario(1, 1), opts);
  EXPECT_EQ(outcome.violations, 0u) << outcome.FirstViolation();
  EXPECT_FALSE(outcome.truncated);
  EXPECT_EQ(outcome.replay_divergences, 0u);
  EXPECT_EQ(outcome.stuck, 0u);
  // 6 base ops (3 writes + 3 reads) interleave in many ways; even with
  // partial-order reduction the explorer must see a real space.
  EXPECT_GE(outcome.schedules, 10u);
}

TEST(Explorer, PartialOrderReductionPrunesAndPreservesVerdict) {
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.max_schedules = 0;
  opts.partial_order_reduction = false;
  auto full = explorer.Explore(SwsrScenario(1, 1), opts);
  opts.partial_order_reduction = true;
  auto reduced = explorer.Explore(SwsrScenario(1, 1), opts);
  EXPECT_EQ(full.violations, 0u) << full.FirstViolation();
  EXPECT_EQ(reduced.violations, 0u) << reduced.FirstViolation();
  EXPECT_EQ(full.pruned, 0u);
  EXPECT_GT(reduced.pruned, 0u);
  EXPECT_LT(reduced.schedules, full.schedules)
      << "sleep sets pruned " << reduced.pruned
      << " branches but did not shrink the schedule count";
}

TEST(Explorer, SwsrTwoWritesOneReadCappedStillClean) {
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.max_schedules = 400;  // bounded slice of a bigger space
  auto outcome = explorer.Explore(SwsrScenario(2, 1), opts);
  EXPECT_EQ(outcome.violations, 0u) << outcome.FirstViolation();
}

TEST(Explorer, SwsrSurvivesEveryPlacementOfOneFault) {
  // Crash branching within the paper's budget: t = 1, so any single
  // faulty disk (drops or a crashed register) must leave the emulation
  // atomic AND wait-free — no stuck schedule is acceptable.
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.max_schedules = 20000;
  opts.stop_at_first_violation = false;
  opts.crash_budget = 1;
  opts.tolerated_crashed_disks = 1;
  auto outcome = explorer.Explore(SwsrFaultScenario(1, 1), opts);
  EXPECT_EQ(outcome.violations, 0u) << outcome.FirstViolation();
  EXPECT_EQ(outcome.over_budget, 0u);
  EXPECT_EQ(outcome.stuck, 0u);
  // Fault branches (drops and register crashes) were really explored.
  EXPECT_GT(outcome.schedules, 50u);
}

TEST(Explorer, OverBudgetFaultsAreDetectedNotViolating) {
  // Budget 2 on a t=1 farm: schedules faulting two distinct disks starve
  // the t+1 quorum. Those must surface as over_budget (the documented
  // degradation: safety holds, wait-freedom does not) — never as a
  // violation, and never as a within-budget stuck run.
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.max_schedules = 0;
  opts.stop_at_first_violation = false;
  opts.crash_budget = 2;
  opts.tolerated_crashed_disks = 1;
  auto outcome = explorer.Explore(SwsrFaultScenario(1, 0), opts);
  EXPECT_EQ(outcome.violations, 0u) << outcome.FirstViolation();
  EXPECT_GT(outcome.over_budget, 0u);
  EXPECT_GE(outcome.stuck, outcome.over_budget);
}

TEST(Explorer, DiscoversMwsrNonAtomicityUnguided) {
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.max_schedules = 5000;
  opts.stop_at_first_violation = true;
  auto outcome = explorer.Explore(MwsrAsAtomicScenario(false), opts);
  EXPECT_GE(outcome.violations, 1u)
      << "the explorer failed to find the Fig. 2 non-atomicity within "
      << outcome.schedules << " schedules";
  ASSERT_FALSE(outcome.counterexamples.empty());
  EXPECT_FALSE(outcome.counterexamples.front().schedule.empty());
  // The violation must come with a replayable schedule.
  EXPECT_NE(outcome.FirstViolation().find("schedule:"), std::string::npos);
}

TEST(Explorer, DiscoversMwsrNonAtomicityUnderCrashBudget) {
  // The same unguided discovery with fault branching enabled: the
  // delivery-order counterexample must still be found among the larger
  // fault-aware tree.
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.max_schedules = 20000;
  opts.stop_at_first_violation = true;
  opts.crash_budget = 1;
  opts.tolerated_crashed_disks = 1;
  auto outcome = explorer.Explore(MwsrAsAtomicScenario(true), opts);
  EXPECT_GE(outcome.violations, 1u)
      << "no Fig. 2 violation within " << outcome.schedules
      << " fault-aware schedules";
  ASSERT_FALSE(outcome.counterexamples.empty());
}

TEST(Explorer, CollectsMultipleCounterexamples) {
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.max_schedules = 5000;
  opts.stop_at_first_violation = false;
  opts.max_counterexamples = 4;
  auto outcome = explorer.Explore(MwsrAsAtomicScenario(false), opts);
  EXPECT_GE(outcome.violations, 2u);
  EXPECT_LE(outcome.counterexamples.size(), 4u);
  EXPECT_GE(outcome.counterexamples.size(), 2u);
  for (const auto& ce : outcome.counterexamples) {
    EXPECT_FALSE(ce.description.empty());
    EXPECT_FALSE(ce.schedule.empty());
  }
}

// Helper: the first counterexample of the Fig. 2 misuse scenario.
ScheduleExplorer::Violation FirstMwsrCounterexample(ScheduleExplorer& ex) {
  ScheduleExplorer::Options opts;
  opts.max_schedules = 5000;
  opts.stop_at_first_violation = true;
  auto outcome = ex.Explore(MwsrAsAtomicScenario(false), opts);
  EXPECT_GE(outcome.violations, 1u);
  EXPECT_FALSE(outcome.counterexamples.empty());
  return outcome.counterexamples.front();
}

TEST(ExplorerReplay, TraceRoundTripReproducesViolationDeterministically) {
  ScheduleExplorer explorer;
  auto ce = FirstMwsrCounterexample(explorer);
  ASSERT_FALSE(ce.schedule.empty());

  // Serialize, parse back: the decision sequence must survive unchanged.
  ScheduleTrace trace;
  trace.scenario = "mwsr-as-atomic";
  trace.decisions = ce.schedule;
  const std::string text = FormatTrace(trace);
  auto parsed = ParseTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->scenario, "mwsr-as-atomic");
  ASSERT_EQ(parsed->decisions, ce.schedule);

  // Replaying the parsed schedule reproduces the identical violation,
  // twice (determinism).
  ScheduleExplorer::Options opts;
  auto r1 = explorer.ReplaySchedule(MwsrAsAtomicScenario(false),
                                    parsed->decisions, opts);
  auto r2 = explorer.ReplaySchedule(MwsrAsAtomicScenario(false),
                                    parsed->decisions, opts);
  EXPECT_FALSE(r1.diverged);
  EXPECT_FALSE(r2.diverged);
  ASSERT_TRUE(r1.violation.has_value());
  ASSERT_TRUE(r2.violation.has_value());
  EXPECT_EQ(*r1.violation, *r2.violation);
  EXPECT_EQ(*r1.violation, ce.description);
}

TEST(ExplorerReplay, DivergenceIsDetected) {
  ScheduleExplorer explorer;
  auto ce = FirstMwsrCounterexample(explorer);
  ASSERT_FALSE(ce.schedule.empty());
  // Corrupt the trace: point the first delivery at a process that never
  // issues operations. Replay must flag divergence, not guess.
  auto corrupted = ce.schedule;
  corrupted.front().p = 77;
  ScheduleExplorer::Options opts;
  auto r = explorer.ReplaySchedule(MwsrAsAtomicScenario(false), corrupted,
                                   opts);
  EXPECT_TRUE(r.diverged);
  EXPECT_EQ(r.applied, 0u);
  EXPECT_FALSE(r.violation.has_value());
}

TEST(ExplorerReplay, MinimizationShrinksWhilePreservingViolation) {
  ScheduleExplorer explorer;
  auto ce = FirstMwsrCounterexample(explorer);
  ASSERT_FALSE(ce.schedule.empty());
  ScheduleExplorer::Options opts;
  auto minimized = explorer.MinimizeSchedule(MwsrAsAtomicScenario(false),
                                             ce.schedule, opts);
  EXPECT_LE(minimized.size(), ce.schedule.size());
  auto r = explorer.ReplaySchedule(MwsrAsAtomicScenario(false), minimized,
                                   opts);
  EXPECT_FALSE(r.diverged);
  EXPECT_TRUE(r.violation.has_value())
      << "minimized schedule no longer violates:\n"
      << FormatSchedule(minimized);
}

TEST(ExplorerRandom, PlayoutsOfSwsrScenarioStayAtomic) {
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  auto outcome =
      explorer.ExploreRandom(SwsrScenario(2, 2), /*playouts=*/60, 1234, opts);
  EXPECT_EQ(outcome.schedules, 60u);
  EXPECT_EQ(outcome.violations, 0u) << outcome.FirstViolation();
}

TEST(ExplorerRandom, PlayoutsFindMwsrNonAtomicity) {
  // Random playouts reorder deliveries arbitrarily; the Fig. 2 misuse
  // should fall within a modest number of them.
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.stop_at_first_violation = true;
  auto outcome = explorer.ExploreRandom(MwsrAsAtomicScenario(false),
                                        /*playouts=*/300, 99, opts);
  EXPECT_GE(outcome.violations, 1u)
      << "no violation in " << outcome.schedules << " random playouts";
}

TEST(ExplorerRandom, FaultBudgetPlayoutsStaySafeAndLive) {
  // Random fault placement within the tolerated budget: every playout
  // must stay atomic and wait-free.
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.crash_budget = 1;
  opts.tolerated_crashed_disks = 1;
  auto outcome = explorer.ExploreRandom(SwsrFaultScenario(1, 1),
                                        /*playouts=*/100, 7, opts);
  EXPECT_EQ(outcome.schedules, 100u);
  EXPECT_EQ(outcome.violations, 0u) << outcome.FirstViolation();
  EXPECT_EQ(outcome.stuck, 0u);
}

// Scenario: a one-shot register — one WRITE racing two readers whose
// write-backs are themselves schedulable operations. This exercises the
// subtlest positive-path mechanism (reader write-back) under adversarial
// delivery orders.
ScheduleExplorer::RunFactory OneShotScenario() {
  return [](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto rec = std::make_shared<HistoryRecorder>();
    FarmConfig cfg{1};
    auto regs = cfg.Spread(0);
    scenario->Spawn([&farm, rec, cfg, regs] {
      core::OneShotRegister writer(farm, cfg, regs, 1);
      auto h = rec->BeginWrite(1, "v");
      // The recorded history, not the status, is what the checker judges.
      (void)writer.Write("v");
      rec->EndWrite(h);
    });
    for (ProcessId pid : {2u, 3u}) {
      scenario->Spawn([&farm, rec, cfg, regs, pid] {
        core::OneShotRegister reader(farm, cfg, regs, pid);
        auto h = rec->BeginRead(pid);
        auto v = reader.Read();
        rec->EndRead(h, v.value_or(""));
      });
    }
    scenario->SetValidator([rec]() -> std::optional<std::string> {
      auto result = CheckAtomic(rec->CheckableHistory());
      if (result.ok) return std::nullopt;
      return result.explanation;
    });
    return scenario;
  };
}

TEST(Explorer, OneShotWriteBackSurvivesBoundedSweep) {
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.max_schedules = 800;  // bounded slice of a large space
  auto outcome = explorer.Explore(OneShotScenario(), opts);
  EXPECT_EQ(outcome.violations, 0u) << outcome.FirstViolation();
  EXPECT_GE(outcome.schedules, 100u);
}

TEST(ExplorerRandom, OneShotWriteBackSurvivesPlayouts) {
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  auto outcome =
      explorer.ExploreRandom(OneShotScenario(), /*playouts=*/80, 4321, opts);
  EXPECT_EQ(outcome.schedules, 80u);
  EXPECT_EQ(outcome.violations, 0u) << outcome.FirstViolation();
}

TEST(Explorer, ScheduleCountIsStable) {
  // Event-driven quiescence makes branching deterministic: two exhaustive
  // runs must see byte-identical trees — exactly the same schedule,
  // node, and pruning counts. (The old wall-clock settle heuristic only
  // supported an approximate comparison here.)
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  opts.max_schedules = 0;
  auto a = explorer.Explore(SwsrScenario(1, 1), opts);
  auto b = explorer.Explore(SwsrScenario(1, 1), opts);
  EXPECT_EQ(a.violations, 0u);
  EXPECT_EQ(b.violations, 0u);
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.pruned, b.pruned);
}

}  // namespace
}  // namespace nadreg::sim
