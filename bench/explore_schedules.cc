// Fault-aware bounded model checking of the register emulations and the
// consensus layers — the explorer enumerates delivery orders AND fault
// placements (drops, register crashes) within a budget, validating every
// completed schedule. This complements the randomized campaigns
// (sampling) and the hand-built proof schedules (adversary/):
//
//   * certification sweep: SWSR / SWMR / MWSR(seq-cst) / MWMR / one-shot,
//     the erasure-coded MWMR register (n=4, k=2), ranked-register (Active
//     Disk) Paxos and classic Disk Paxos are run bounded-exhaustively
//     under crash budgets 0 and 1 (the coded register also by seeded
//     random playouts) — zero violations required;
//   * partial-order reduction ablation: sleep sets must prune >= 30% of
//     the MWMR tree without changing the verdict;
//   * counterexample pipeline: the Fig. 2 algorithm misused as an atomic
//     MWSR register is broken, and so is a coded READ that never writes
//     back; for each, the explorer finds a violating schedule on its own,
//     minimizes it, serializes it, and re-replays the trace
//     deterministically — the same path `--replay <file>` drives;
//   * over-budget demo: two faulty disks on a t=1 farm starve quorums —
//     detected as the documented degradation, never as a violation.
//
// Flags: --quick (default) / --deep set exploration caps; --json <path>
// writes machine-readable stats (BENCH_explore.json in CI); --trace-dir
// <dir> is where counterexample traces land; --por=off disables the
// reduction; --replay <file> re-executes one serialized trace and exits.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "apps/disk_paxos.h"
#include "apps/ranked_register.h"
#include "checker/consistency.h"
#include "checker/history.h"
#include "common/coded_cell.h"
#include "common/sync.h"
#include "core/address.h"
#include "core/coded/coded_mwmr.h"
#include "core/coded/rs_code.h"
#include "core/config.h"
#include "core/mwmr_atomic.h"
#include "core/mwsr_seqcst.h"
#include "core/oneshot.h"
#include "core/register_set.h"
#include "core/swmr_atomic.h"
#include "core/swsr_atomic.h"
#include "sim/explorer.h"
#include "sim/scenario.h"
#include "sim/schedule_trace.h"

namespace {

using namespace nadreg;
using checker::CheckAtomic;
using checker::CheckSequentiallyConsistent;
using checker::HistoryRecorder;
using core::FarmConfig;
using sim::DetFarm;
using sim::ExplorationRun;
using sim::ScheduleExplorer;
using sim::ScheduleTrace;
using sim::ThreadedScenario;

// All scenarios use the OpOptions (failure-reporting) API so they behave
// under fault budgets: an op that fails because the farm was abandoned
// stays incomplete in the history, exactly like a crashed process.

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
        if (!writer.Write(v, OpOptions{}).ok()) return;
        rec->EndWrite(h);
      }
    });
    scenario->Spawn([&farm, rec, cfg, regs, reads] {
      core::SwsrAtomicReader reader(farm, cfg, regs, 2);
      for (int i = 0; i < reads; ++i) {
        auto h = rec->BeginRead(2);
        auto v = reader.Read(OpOptions{});
        if (!v.ok()) return;
        rec->EndRead(h, *v);
      }
    });
    scenario->SetValidator([rec]() -> std::optional<std::string> {
      auto result = CheckAtomic(rec->CheckableHistory());
      if (result.ok) return std::nullopt;
      return result.explanation;
    });
    return scenario;
  };
}

ScheduleExplorer::RunFactory SwmrScenario() {
  return [](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto rec = std::make_shared<HistoryRecorder>();
    FarmConfig cfg{1};
    auto regs = cfg.Spread(0);
    scenario->Spawn([&farm, rec, cfg, regs] {
      core::SwmrAtomicWriter writer(farm, cfg, regs, 1);
      auto h = rec->BeginWrite(1, "v1");
      if (!writer.Write("v1", OpOptions{}).ok()) return;
      rec->EndWrite(h);
    });
    for (ProcessId pid : {2u, 3u}) {
      scenario->Spawn([&farm, rec, cfg, regs, pid] {
        core::SwmrAtomicReader reader(farm, cfg, regs, pid);
        auto h = rec->BeginRead(pid);
        auto v = reader.Read(OpOptions{});
        if (!v.ok()) return;
        rec->EndRead(h, *v);
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

// The Fig. 2 register checked against its OWN spec (sequential
// consistency): the certified-good use.
ScheduleExplorer::RunFactory MwsrSeqCstScenario() {
  return [](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto rec = std::make_shared<HistoryRecorder>();
    FarmConfig cfg{1};
    auto regs = cfg.Spread(0);
    for (ProcessId pid : {1u, 2u}) {
      scenario->Spawn([&farm, rec, cfg, regs, pid] {
        core::MwsrWriter writer(farm, cfg, regs, pid);
        const std::string v = "w" + std::to_string(pid);
        auto h = rec->BeginWrite(pid, v);
        if (!writer.Write(v, OpOptions{}).ok()) return;
        rec->EndWrite(h);
      });
    }
    scenario->Spawn([&farm, rec, cfg, regs] {
      core::MwsrReader reader(farm, cfg, regs, 99);
      for (int i = 0; i < 2; ++i) {
        auto h = rec->BeginRead(99);
        auto v = reader.Read(OpOptions{});
        if (!v.ok()) return;
        rec->EndRead(h, *v);
      }
    });
    scenario->SetValidator([rec]() -> std::optional<std::string> {
      auto result = CheckSequentiallyConsistent(rec->CheckableHistory());
      if (result.ok) return std::nullopt;
      return result.explanation;
    });
    return scenario;
  };
}

// The Fig. 2 register misused as ATOMIC — the intentionally broken
// scenario driving the counterexample pipeline.
ScheduleExplorer::RunFactory MwsrAsAtomicScenario() {
  return [](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto rec = std::make_shared<HistoryRecorder>();
    FarmConfig cfg{1};
    auto regs = cfg.Spread(0);
    scenario->Spawn([&farm, rec, cfg, regs] {
      core::MwsrWriter wa(farm, cfg, regs, 1);
      core::MwsrWriter wb(farm, cfg, regs, 2);
      auto h1 = rec->BeginWrite(1, "va");
      if (!wa.Write("va", OpOptions{}).ok()) return;
      rec->EndWrite(h1);
      auto h2 = rec->BeginWrite(2, "vb");
      if (!wb.Write("vb", OpOptions{}).ok()) return;
      rec->EndWrite(h2);
    });
    scenario->Spawn([&farm, rec, cfg, regs] {
      core::MwsrReader reader(farm, cfg, regs, 99);
      for (int i = 0; i < 2; ++i) {
        auto h = rec->BeginRead(99);
        auto v = reader.Read(OpOptions{});
        if (!v.ok()) return;
        rec->EndRead(h, *v);
      }
    });
    scenario->SetValidator([rec]() -> std::optional<std::string> {
      auto result = CheckAtomic(rec->CheckableHistory());
      if (result.ok) return std::nullopt;
      return result.explanation;
    });
    return scenario;
  };
}

ScheduleExplorer::RunFactory MwmrScenario() {
  return [](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto rec = std::make_shared<HistoryRecorder>();
    FarmConfig cfg{1};
    // Bounded name universe: the deployment trie (up to 49 levels) would
    // make every announce dozens of quorum ops deep and wide — no bounded
    // sweep ever completes a schedule. The scenario uses 3 names at most,
    // so a 4-bit layout (5-level codewords for these names) checks the
    // same protocol at model-checking scale (see core/address.h).
    core::NameLayout layout{/*name_bits=*/4, /*index_bits=*/2};
    for (ProcessId pid : {1u, 2u}) {
      scenario->Spawn([&farm, rec, cfg, layout, pid] {
        core::MwmrAtomic reg(farm, cfg, /*object=*/0, pid, layout);
        const std::string v = "w" + std::to_string(pid);
        auto h = rec->BeginWrite(pid, v);
        if (!reg.Write(v, OpOptions{}).ok()) return;
        rec->EndWrite(h);
      });
    }
    scenario->Spawn([&farm, rec, cfg, layout] {
      core::MwmrAtomic reg(farm, cfg, /*object=*/0, 3, layout);
      auto h = rec->BeginRead(3);
      auto v = reg.Read(OpOptions{});
      if (!v.ok()) return;
      rec->EndRead(h, v->value_or(""));
    });
    scenario->SetValidator([rec]() -> std::optional<std::string> {
      auto result = CheckAtomic(rec->CheckableHistory());
      if (result.ok) return std::nullopt;
      return result.explanation;
    });
    return scenario;
  };
}

// The erasure-coded register at its smallest interesting geometry: n=4,
// k=2, f=1 (q=3), where a put can reach k disks yet miss a later read
// quorum. DetFarm runs every merge as an RMW pending write, so each
// fragment's arrival is an explorer decision.
constexpr core::CodedOptions kCodedGeometry{4, 2};

// Fast reads (READs that skipped the write-back) of the coded scenario's
// reader, summed over validated leaves only. A run the explorer aborts
// finishes its threads on whatever interleaving the abort produces, so a
// process-wide counter would depend on thread timing; a validated leaf's
// reader count depends on its schedule alone. Explorer thread only.
std::uint64_t g_leaf_fast_reads = 0;

// One READ by a scenario thread: nullopt once the farm was abandoned,
// else the value read (an inner nullopt = the initial value).
using ReadOutcome = std::optional<std::optional<std::string>>;

// The coded READ with its write-back deleted, built from the public cell
// and code API: decode the highest tag >= t* the quorum can assemble and
// return it. When that tag is an in-flight put that reached only k disks,
// the next read quorum may see fewer than k of its fragments and fall
// back to an older value — the new-old inversion the write-back forbids.
ReadOutcome CodedReadNoWriteBack(core::RegisterSet& set,
                                 const core::RsCode& rs) {
  for (;;) {
    auto ticket = set.ReadAll();
    if (!set.Await(ticket, kCodedGeometry.quorum())) return std::nullopt;
    std::vector<CodedCell> cells;
    for (const auto& [idx, bytes] : ticket.Results()) {
      auto cell = DecodeCodedCell(bytes);
      if (cell.ok()) cells.push_back(std::move(*cell));
    }
    CodedTag t_star;
    std::map<CodedTag, std::vector<std::pair<unsigned, std::string_view>>>
        frags;
    std::map<CodedTag, std::uint32_t> sizes;
    for (const CodedCell& cell : cells) {
      t_star = std::max(t_star, cell.committed);
      for (const CodedFragment& f : cell.frags) {
        frags[f.tag].emplace_back(f.index, f.bytes);
        sizes[f.tag] = f.value_size;
      }
    }
    for (auto it = frags.rbegin(); it != frags.rend(); ++it) {
      if (it->first < t_star) break;
      if (it->second.size() < kCodedGeometry.k) continue;
      auto value = rs.Decode(it->second, sizes[it->first]);
      if (value.ok()) return std::optional<std::string>{std::move(*value)};
    }
    if (t_star.seq == 0) return std::optional<std::string>{};
  }
}

// The cells CodedMwmr addresses for object 0, one per disk.
std::vector<RegisterId> CodedRegisters() {
  std::vector<RegisterId> regs;
  for (DiskId d = 0; d < kCodedGeometry.n; ++d) {
    regs.push_back(
        RegisterId{d, core::MakeBlock(0, core::Component::kCodedCell, 0)});
  }
  return regs;
}

// Two sequential READs by process 3, each a ReadOutcome of `read()`.
template <typename ReadOnce>
void RecordTwoReads(HistoryRecorder& rec, ReadOnce read) {
  for (int i = 0; i < 2; ++i) {
    auto h = rec.BeginRead(3);
    auto v = read();
    if (!v) return;
    rec.EndRead(h, v->value_or(""));
  }
}

// Two writers and one reader doing two sequential READs over the coded
// register. With `write_back` false the reader is the mutant above.
ScheduleExplorer::RunFactory CodedScenario(bool write_back) {
  return [write_back](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto rec = std::make_shared<HistoryRecorder>();
    for (ProcessId pid : {1u, 2u}) {
      scenario->Spawn([&farm, rec, pid] {
        auto reg =
            core::CodedMwmr::Make(farm, /*object=*/0, pid, kCodedGeometry);
        const std::string v = "w" + std::to_string(pid);
        auto h = rec->BeginWrite(pid, v);
        if (!reg->Write(v, OpOptions{}).ok()) return;
        rec->EndWrite(h);
      });
    }
    // Set by the reader as its thread ends; read by the validator, which
    // runs once every scenario thread has finished.
    auto fast_reads = std::make_shared<std::atomic<std::uint64_t>>(0);
    if (write_back) {
      scenario->Spawn([&farm, rec, fast_reads] {
        auto reg =
            core::CodedMwmr::Make(farm, /*object=*/0, 3, kCodedGeometry);
        RecordTwoReads(*rec, [&]() -> ReadOutcome {
          auto v = reg->Read(OpOptions{});
          if (!v.ok()) return std::nullopt;
          return std::move(*v);
        });
        fast_reads->store(reg->fast_reads());
      });
    } else {
      scenario->Spawn([&farm, rec] {
        core::RegisterSet set(farm, 3, CodedRegisters());
        auto rs = core::RsCode::Make(kCodedGeometry.n, kCodedGeometry.k);
        RecordTwoReads(*rec, [&] { return CodedReadNoWriteBack(set, *rs); });
      });
    }
    scenario->SetValidator([rec, fast_reads]() -> std::optional<std::string> {
      g_leaf_fast_reads += fast_reads->load();
      auto result = CheckAtomic(rec->CheckableHistory());
      if (result.ok) return std::nullopt;
      return result.explanation;
    });
    return scenario;
  };
}

ScheduleExplorer::RunFactory OneShotScenario() {
  return [](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto rec = std::make_shared<HistoryRecorder>();
    FarmConfig cfg{1};
    auto regs = cfg.Spread(0);
    scenario->Spawn([&farm, rec, cfg, regs] {
      core::OneShotRegister writer(farm, cfg, regs, 1);
      auto h = rec->BeginWrite(1, "v");
      if (!writer.Write("v", OpOptions{}).ok()) return;
      rec->EndWrite(h);
    });
    for (ProcessId pid : {2u, 3u}) {
      scenario->Spawn([&farm, rec, cfg, regs, pid] {
        core::OneShotRegister reader(farm, cfg, regs, pid);
        auto h = rec->BeginRead(pid);
        auto v = reader.Read(OpOptions{});
        if (!v.ok()) return;
        rec->EndRead(h, v->value_or(""));
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

// Consensus agreement+validity state shared by the paxos scenarios.
struct ConsensusOutcome {
  Mutex mu;
  std::vector<std::string> decided GUARDED_BY(mu);

  void Record(const std::string& v) {
    MutexLock lock(mu);
    decided.push_back(v);
  }
  std::optional<std::string> Validate() {
    MutexLock lock(mu);
    for (const std::string& v : decided) {
      if (v != "a" && v != "b") {
        return "consensus validity violated: decided '" + v + "'";
      }
      if (v != decided.front()) {
        return "consensus agreement violated: '" + decided.front() +
               "' vs '" + v + "'";
      }
    }
    return std::nullopt;
  }
};

// One ballot per proposer over the ranked register (Active Disk Paxos).
// Committed values must agree; aborts (contention) are acceptable.
ScheduleExplorer::RunFactory ActivePaxosScenario() {
  return [](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto out = std::make_shared<ConsensusOutcome>();
    FarmConfig cfg{1};
    for (ProcessId pid : {1u, 2u}) {
      scenario->Spawn([&farm, out, cfg, pid] {
        apps::ActiveDiskPaxos paxos(farm, cfg, /*object=*/0, pid);
        const std::string value = pid == 1 ? "a" : "b";
        if (auto chosen = paxos.TryPropose(value, (1u << 20) | pid)) {
          out->Record(*chosen);
        }
      });
    }
    scenario->SetValidator([out] { return out->Validate(); });
    return scenario;
  };
}

// One ballot per proposer of classic Disk Paxos (per-process blocks).
ScheduleExplorer::RunFactory DiskPaxosScenario() {
  return [](DetFarm& farm) -> std::unique_ptr<ExplorationRun> {
    auto scenario = std::make_unique<ThreadedScenario>(farm);
    auto out = std::make_shared<ConsensusOutcome>();
    FarmConfig cfg{1};
    for (std::uint32_t pid : {0u, 1u}) {
      scenario->Spawn([&farm, out, cfg, pid] {
        apps::DiskPaxos paxos(farm, cfg, /*object=*/0, /*n=*/2, pid);
        const std::string value = pid == 0 ? "a" : "b";
        if (auto chosen = paxos.TryPropose(value)) out->Record(*chosen);
      });
    }
    scenario->SetValidator([out] { return out->Validate(); });
    return scenario;
  };
}

// ---------------------------------------------------------------------------

struct ScenarioEntry {
  const char* name;
  const char* what;
  ScheduleExplorer::RunFactory factory;
  // Node budgets (quick / deep). The deep-prefix scenarios (MWMR's
  // snapshot layer, the paxos phases) cost ~1-10 ms per node — a replayed
  // prefix of 50+ decisions, each a scheduler round-trip — so they get
  // smaller trees than the ~20 us/node register scenarios.
  std::size_t quick_nodes = 50000;
  std::size_t deep_nodes = 500000;
  // Per-scenario schedule-depth cap (0 = the sweep default). MWMR runs
  // ~250 decisions end to end even with the bounded name layout, so the
  // default cap would truncate every path before its first leaf.
  std::size_t max_depth = 0;
  // Seeded random playouts run after the depth-first sweep (quick; deep
  // runs ten times as many). Depth-first order spends its node budget
  // varying the last decisions of the leftmost schedules; playouts vary
  // early ones too, which is what reaches a reader overtaking a put
  // mid-fan-out.
  std::size_t playouts = 0;
};

std::vector<ScenarioEntry> Registry() {
  return {
      {"swsr", "SWSR atomic, 1 WRITE || 1 READ", SwsrScenario(1, 1)},
      {"swsr-2w1r", "SWSR atomic, 2 WRITEs || 1 READ", SwsrScenario(2, 1)},
      {"swmr", "SWMR atomic, 1 WRITE || 2 READers", SwmrScenario()},
      {"mwsr-seqcst", "Fig. 2 MWSR vs its seq-cst spec", MwsrSeqCstScenario()},
      {"mwmr", "Fig. 3 MWMR atomic, 2 WRITEs || 1 READ", MwmrScenario(),
       1500, 8000, 400},
      {"oneshot", "one-shot register, WRITE || 2 READers", OneShotScenario()},
      {"coded", "coded MWMR n=4 k=2, 2 WRITEs || 2 READs",
       CodedScenario(/*write_back=*/true), 3000, 20000, 0, 2000},
      {"active-paxos", "Active Disk Paxos, 2 proposers", ActivePaxosScenario(),
       1500, 8000},
      {"disk-paxos", "classic Disk Paxos, 2 proposers", DiskPaxosScenario(),
       1500, 8000},
  };
}

const ScenarioEntry* FindScenario(const std::vector<ScenarioEntry>& reg,
                                  const std::string& name) {
  for (const auto& e : reg) {
    if (name == e.name) return &e;
  }
  if (name == "mwsr-as-atomic") {
    static ScenarioEntry broken{"mwsr-as-atomic",
                                "Fig. 2 MWSR misused as atomic",
                                MwsrAsAtomicScenario()};
    return &broken;
  }
  if (name == "coded-no-writeback") {
    static ScenarioEntry broken{"coded-no-writeback",
                                "coded READ that never writes back",
                                CodedScenario(/*write_back=*/false)};
    return &broken;
  }
  return nullptr;
}

struct RunStats {
  std::string name;
  std::uint32_t budget = 0;
  ScheduleExplorer::Outcome outcome;
  double wall_ms = 0;
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void PrintCounterexamples(const ScheduleExplorer::Outcome& out) {
  for (std::size_t i = 0; i < out.counterexamples.size(); ++i) {
    const auto& ce = out.counterexamples[i];
    std::printf("   counterexample %zu/%zu: %s\n   schedule:\n%s",
                i + 1, out.counterexamples.size(), ce.description.c_str(),
                sim::FormatSchedule(ce.schedule).c_str());
  }
}

std::string TracePath(const std::string& dir, const std::string& stem) {
  return dir + "/" + stem + ".trace";
}

bool SaveCounterexample(const std::string& trace_dir, const std::string& name,
                        const std::string& stem,
                        const std::vector<sim::Decision>& schedule) {
  if (trace_dir.empty()) return false;
  std::error_code ec;
  std::filesystem::create_directories(trace_dir, ec);  // fresh CI checkout
  ScheduleTrace trace;
  trace.scenario = name;
  trace.decisions = schedule;
  const std::string path = TracePath(trace_dir, stem);
  auto st = sim::SaveTraceFile(trace, path);
  if (!st.ok()) {
    std::printf("   (could not save trace: %s)\n", st.message().c_str());
    return false;
  }
  std::printf("   trace saved: %s  (replay: explore_schedules --replay %s)\n",
              path.c_str(), path.c_str());
  return true;
}

void AppendRunJson(std::string& json, const RunStats& r, bool first) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%s\n    {\"scenario\": \"%s\", \"crash_budget\": %u, "
      "\"schedules\": %zu, \"nodes\": %zu, \"pruned\": %zu, "
      "\"violations\": %zu, \"stuck\": %zu, \"over_budget\": %zu, "
      "\"truncated\": %s, \"wall_ms\": %.1f}",
      first ? "" : ",", r.name.c_str(), r.budget, r.outcome.schedules,
      r.outcome.nodes, r.outcome.pruned, r.outcome.violations,
      r.outcome.stuck, r.outcome.over_budget,
      r.outcome.truncated ? "true" : "false", r.wall_ms);
  json += buf;
}

// Outcome of the find -> minimize -> round-trip -> replay pipeline.
struct Minimized {
  bool ok = false;
  std::size_t from = 0;  // decisions in the schedule first found
  std::size_t to = 0;    // after minimization
};

// Finds a violation of a deliberately broken scenario (depth-first, or
// `playouts` seeded random playouts when nonzero), minimizes it, and
// replays its text-format round-trip twice: both replays must report the
// identical violation. The minimized trace lands in `trace_dir`.
Minimized FindAndMinimize(ScheduleExplorer& explorer,
                          const ScheduleExplorer::Options& opts,
                          const std::string& name,
                          const ScheduleExplorer::RunFactory& factory,
                          std::size_t playouts, const std::string& trace_dir) {
  Minimized m;
  auto out = playouts == 0
                 ? explorer.Explore(factory, opts)
                 : explorer.ExploreRandom(factory, playouts, /*seed=*/1, opts);
  if (out.violations == 0 || out.counterexamples.empty()) {
    std::printf("   FAILED to find the expected %s violation\n", name.c_str());
    return m;
  }
  const auto& ce = out.counterexamples.front();
  std::printf("   found after %zu schedules: %s\n", out.schedules,
              ce.description.c_str());
  m.from = ce.schedule.size();
  auto minimized = explorer.MinimizeSchedule(factory, ce.schedule, opts);
  m.to = minimized.size();
  std::printf("   minimized %zu -> %zu decisions:\n%s", m.from, m.to,
              sim::FormatSchedule(minimized).c_str());
  ScheduleTrace trace;
  trace.scenario = name;
  trace.decisions = minimized;
  auto parsed = sim::ParseTrace(sim::FormatTrace(trace));
  auto r1 = explorer.ReplaySchedule(factory, parsed->decisions, opts);
  auto r2 = explorer.ReplaySchedule(factory, parsed->decisions, opts);
  m.ok = !r1.diverged && !r2.diverged && r1.violation && r2.violation &&
         *r1.violation == *r2.violation;
  std::printf("   trace round-trip replayed twice: %s\n",
              m.ok ? "identical violation (deterministic)" : "MISMATCH");
  SaveCounterexample(trace_dir, name, name + "-min", minimized);
  return m;
}

int ReplayMain(const std::string& path) {
  auto trace = sim::LoadTraceFile(path);
  if (!trace.ok()) {
    std::printf("cannot load trace: %s\n", trace.status().message().c_str());
    return 2;
  }
  auto reg = Registry();
  const ScenarioEntry* entry = FindScenario(reg, trace->scenario);
  if (entry == nullptr) {
    std::printf("trace names unknown scenario '%s'\n",
                trace->scenario.c_str());
    return 2;
  }
  std::printf("replaying %zu decision(s) against scenario '%s'\n",
              trace->decisions.size(), entry->name);
  ScheduleExplorer explorer;
  ScheduleExplorer::Options opts;
  auto r = explorer.ReplaySchedule(entry->factory, trace->decisions, opts);
  if (r.diverged) {
    std::printf("DIVERGED after %zu decision(s): the trace does not match "
                "this scenario/build\n",
                r.applied);
    return 2;
  }
  if (r.violation) {
    std::printf("violation reproduced:\n%s\n", r.violation->c_str());
    return 0;
  }
  std::printf("clean run: no violation\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool deep = false;
  bool por = true;
  std::string json_path;
  std::string trace_dir;
  std::string replay_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--deep") {
      deep = true;
    } else if (a == "--quick") {
      deep = false;
    } else if (a == "--por=off") {
      por = false;
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--trace-dir" && i + 1 < argc) {
      trace_dir = argv[++i];
    } else if (a == "--replay" && i + 1 < argc) {
      replay_path = argv[++i];
    } else {
      std::printf("usage: %s [--quick|--deep] [--por=off] [--json FILE] "
                  "[--trace-dir DIR] [--replay FILE]\n",
                  argv[0]);
      return 2;
    }
  }
  if (!replay_path.empty()) return ReplayMain(replay_path);

  std::printf("==========================================================================\n");
  std::printf("FAULT-AWARE MODEL CHECKING — bounded-exhaustive certification\n");
  std::printf("==========================================================================\n\n");

  ScheduleExplorer explorer;
  ScheduleExplorer::Options base;
  base.max_schedules = deep ? 20000 : 2000;
  base.max_nodes = deep ? 500000 : 50000;
  base.max_depth = 64;
  base.stop_at_first_violation = false;
  base.partial_order_reduction = por;
  int failures = 0;
  std::vector<RunStats> runs;

  std::printf("A) Certification sweep (caps: %zu schedules, %zu nodes, "
              "depth %zu)\n",
              base.max_schedules, base.max_nodes, base.max_depth);
  auto registry = Registry();
  auto record = [&](const ScenarioEntry& entry, const std::string& suffix,
                    std::uint32_t budget, const ScheduleExplorer::Outcome& out,
                    double wall_ms) {
    const std::string label = entry.name + suffix;
    runs.push_back(RunStats{label, budget, out, wall_ms});
    std::printf(
        "   %-13s f=%u: %5zu schedules, %5zu nodes, %5zu pruned, "
        "%zu stuck, %zu over-budget%s — %s\n",
        label.c_str(), budget, out.schedules, out.nodes, out.pruned,
        out.stuck, out.over_budget, out.truncated ? " (truncated)" : "",
        out.violations == 0 ? "OK" : "VIOLATIONS");
    if (out.violations > 0) {
      ++failures;
      PrintCounterexamples(out);
      SaveCounterexample(trace_dir, entry.name,
                         label + "-f" + std::to_string(budget),
                         out.counterexamples.front().schedule);
    }
  };
  for (const auto& entry : registry) {
    for (std::uint32_t budget : {0u, 1u}) {
      ScheduleExplorer::Options opts = base;
      opts.max_nodes = deep ? entry.deep_nodes : entry.quick_nodes;
      if (entry.max_depth != 0) opts.max_depth = entry.max_depth;
      opts.crash_budget = budget;
      opts.tolerated_crashed_disks = budget;
      // Explore in a statement of its own: as arguments of one call,
      // MsSince(t0) may be evaluated before the exploration runs.
      auto t0 = std::chrono::steady_clock::now();
      const auto out = explorer.Explore(entry.factory, opts);
      record(entry, "", budget, out, MsSince(t0));
      if (entry.playouts == 0) continue;
      t0 = std::chrono::steady_clock::now();
      const std::size_t playouts =
          deep ? 10 * entry.playouts : entry.playouts;
      const auto random_out = explorer.ExploreRandom(
          entry.factory, playouts, /*seed=*/budget + 1, opts);
      record(entry, "-random", budget, random_out, MsSince(t0));
    }
  }
  // The coded scenario certifies the fast read only if its runs take it.
  std::printf("   coded READs that skipped the write-back (fast reads, "
              "validated leaves): %llu\n\n",
              static_cast<unsigned long long>(g_leaf_fast_reads));

  // POR ablation on the MWMR scenario (the acceptance target). Sleep sets
  // pay off where sibling subtrees are revisited, so the ablation explores
  // a bounded-depth slice of the tree exhaustively with POR off and on.
  // The slice sits in the announce phase, where every process is parked in
  // a fresh quorum wait — the independence-rich regime the reduction
  // targets. `pruned` counts sleep-filtered branches, and on a slice this
  // shallow nearly every filtered branch is one saved node, so the ratio
  // is a conservative lower bound on the node saving (the off run's node
  // count confirms it directly).
  std::printf("B) Partial-order reduction ablation (MWMR, depth-%d slice)\n",
              deep ? 3 : 2);
  double prune_ratio = 0;
  {
    ScheduleExplorer::Options opts = base;
    opts.max_depth = deep ? 3 : 2;
    opts.max_schedules = 0;
    opts.max_nodes = 60000;  // safety valve; the slice exhausts well below
    opts.partial_order_reduction = false;
    const auto t0 = std::chrono::steady_clock::now();
    auto off = explorer.Explore(MwmrScenario(), opts);
    const double off_ms = MsSince(t0);
    opts.partial_order_reduction = true;
    const auto t1 = std::chrono::steady_clock::now();
    auto on = explorer.Explore(MwmrScenario(), opts);
    const double on_ms = MsSince(t1);
    prune_ratio = on.nodes + on.pruned == 0
                      ? 0.0
                      : static_cast<double>(on.pruned) /
                            static_cast<double>(on.nodes + on.pruned);
    std::printf("   POR off: %zu nodes in %.0f ms;  POR on: %zu nodes + %zu "
                "pruned in %.0f ms  (prune ratio %.1f%%, node saving "
                "%.1f%%)\n",
                off.nodes, off_ms, on.nodes, on.pruned, on_ms,
                prune_ratio * 100.0,
                off.nodes == 0
                    ? 0.0
                    : 100.0 * (1.0 - static_cast<double>(on.nodes) /
                                         static_cast<double>(off.nodes)));
    if (off.violations != 0 || on.violations != 0) {
      std::printf("   FAILED: POR changed the verdict or MWMR violated\n");
      ++failures;
    }
    if (por && prune_ratio < 0.30) {
      std::printf("   FAILED: prune ratio %.1f%% < 30%%\n",
                  prune_ratio * 100.0);
      ++failures;
    }
  }
  std::printf("\n");

  // The counterexample pipeline on the intentionally broken scenarios.
  std::printf("C) Counterexample pipeline (Fig. 2 misused as atomic)\n");
  ScheduleExplorer::Options broken = base;
  broken.max_schedules = 5000;
  broken.stop_at_first_violation = true;
  const Minimized mwsr = FindAndMinimize(explorer, broken, "mwsr-as-atomic",
                                         MwsrAsAtomicScenario(), 0, trace_dir);
  if (!mwsr.ok) ++failures;
  std::printf("\n");

  // The coded mutant's bug lies under an early reordering (the reader
  // must overtake a put mid-fan-out), which depth-first order reaches
  // only after whole writer subtrees; seeded random playouts find it in
  // a few hundred runs.
  std::printf("C') Counterexample pipeline (coded READ without write-back)\n");
  const Minimized coded =
      FindAndMinimize(explorer, broken, "coded-no-writeback",
                      CodedScenario(/*write_back=*/false), 4000, trace_dir);
  if (!coded.ok) ++failures;
  std::printf("\n");

  std::printf("D) Over-budget detection (budget 2 faults on a t=1 farm)\n");
  std::size_t over_budget_seen = 0;
  {
    ScheduleExplorer::Options opts = base;
    opts.max_schedules = 0;
    opts.crash_budget = 2;
    opts.tolerated_crashed_disks = 1;
    auto out = explorer.Explore(SwsrScenario(1, 0), opts);
    over_budget_seen = out.over_budget;
    std::printf("   %zu schedules: %zu over-budget stuck runs, %zu "
                "violations — %s\n",
                out.schedules, out.over_budget, out.violations,
                out.violations == 0 && out.over_budget > 0 ? "OK" : "FAILED");
    if (out.violations != 0 || out.over_budget == 0) ++failures;
  }
  std::printf("\n");

  if (!json_path.empty()) {
    std::string json = "{\n  \"bench\": \"explore\",\n  \"mode\": \"";
    json += deep ? "deep" : "quick";
    json += "\",\n  \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      AppendRunJson(json, runs[i], i == 0);
    }
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "\n  ],\n  \"por_prune_ratio\": %.4f,\n"
                  "  \"minimized_counterexample\": {\"from\": %zu, "
                  "\"to\": %zu},\n"
                  "  \"coded_minimized_counterexample\": {\"from\": %zu, "
                  "\"to\": %zu},\n  \"over_budget_detected\": %zu,\n"
                  "  \"failures\": %d\n}\n",
                  prune_ratio, mwsr.from, mwsr.to, coded.from, coded.to,
                  over_budget_seen, failures);
    json += buf;
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("stats written to %s\n", json_path.c_str());
    } else {
      std::printf("cannot write %s\n", json_path.c_str());
      ++failures;
    }
  }

  if (failures == 0) {
    std::printf("EXPLORE: PASSED — every emulation and both consensus layers "
                "certified\nunder every explored fault placement; POR sound "
                "and >= 30%% effective;\ncounterexample pipeline "
                "deterministic.\n");
  } else {
    std::printf("EXPLORE: FAILED (%d failure(s))\n", failures);
  }
  return failures == 0 ? 0 : 1;
}
