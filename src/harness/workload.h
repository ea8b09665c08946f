/// \file
/// Configurable randomized workload runner: spins up writer/reader threads
/// against a chosen register emulation on a seeded simulated farm (or a
/// real TCP disk cluster) with optional fault injection, records the
/// concurrent history, and returns it together with the consistency level
/// the algorithm claims. Used by the property-test sweeps
/// (tests/test_properties.cc), the chaos harness (bench/chaos_harness.cc)
/// and the bench binaries.
///
/// Fault injection comes in two flavours: the legacy `crash_disks` knob
/// (random whole-disk crashes, kept for the property sweeps) and a full
/// declarative `fault_plan_text` (faults/fault_plan.h grammar) replayed in
/// real time by a FaultInjector against whichever backend is running. An
/// `op_deadline` bounds every emulated operation so an over-budget plan
/// (more than t crashed disks) surfaces as counted timeouts instead of a
/// hung run; abandoned writes stay in the history as incomplete (the
/// checker may linearize them — Fig. 1 pending-write semantics).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "checker/consistency.h"
#include "checker/history.h"
#include "common/status.h"

namespace nadreg::harness {

enum class Algorithm {
  kSwsrAtomic,    // Sec. 3.2 — claims atomic (1 writer, 1 reader)
  kSwmrAtomic,    // Sec. 4.2 — claims atomic (1 writer, n readers)
  kMwsrSeqCst,    // Fig. 2  — claims sequentially consistent (n writers, 1 reader)
  kMwmrAtomic,    // Fig. 3  — claims atomic (n writers, n readers)
  kSwsrRegular,   // Sec. 3.2 without the reader memo — claims regular only
  kCodedMwmr,     // core/coded — claims atomic (n writers, n readers, RS-coded)
};

/// The consistency level an algorithm guarantees (what to check).
enum class Claim { kAtomic, kSequentiallyConsistent, kRegular };

struct WorkloadOptions {
  Algorithm algorithm = Algorithm::kSwsrAtomic;
  std::uint64_t seed = 1;
  std::uint32_t t = 1;       // farm resilience; 2t+1 disks
  /// kCodedMwmr only: code geometry (n disks, any k fragments decode).
  /// The coded deployment has n disks instead of 2t+1 and tolerates
  /// f = (n-k)/2 crashes — `crash_disks` is clamped to that budget.
  std::uint32_t coded_n = 8;
  std::uint32_t coded_k = 5;
  int writers = 1;           // clamped to the algorithm's writer limit
  int readers = 1;           // clamped to the algorithm's reader limit
  int ops_per_process = 5;
  int crash_disks = 0;       // full-disk crashes injected mid-run (<= t)
  std::size_t payload_bytes = 8;  // value size (distinct values always)
  std::uint64_t max_delay_us = 25;
  /// Run over REAL TCP disk daemons on loopback instead of the simulated
  /// farm; a "crash" then hard-stops a daemon process.
  bool over_tcp = false;
  /// Declarative fault schedule (faults/fault_plan.h spec grammar),
  /// replayed in real time over the run against the active backend.
  /// Empty = no injector. Parse errors abort the run before any worker
  /// starts (see WorkloadResult::fault_plan_status).
  std::string fault_plan_text;
  /// Per emulated-operation deadline; zero = block until the model
  /// guarantees termination. Required to survive over-budget plans: a
  /// timed-out op is abandoned and counted (WorkloadResult::timeouts).
  std::chrono::milliseconds op_deadline{0};
  /// TCP backend only: the NAD client's per-base-op expiry budget
  /// (janitor + circuit breaker; see nad/client.h). Zero = never expire.
  std::chrono::milliseconds client_op_timeout{0};
  /// When non-empty, dump the process-wide metrics registry as JSON here
  /// after the run (quorum waits, per-phase latency, RPC round trips).
  std::string metrics_json_path;
  /// When non-empty, capture a chrome://tracing span file over the run.
  std::string trace_jsonl_path;
};

struct WorkloadResult {
  Claim claim = Claim::kAtomic;
  std::vector<checker::Operation> history;
  checker::CheckResult check;  // the claim, checked

  /// Global op counters ("harness.ops.writes"/"harness.ops.reads")
  /// sampled before and after the run; the deltas equal this run's
  /// completed operations (asserted in tests/test_properties.cc).
  std::uint64_t writes_before = 0, writes_after = 0;
  std::uint64_t reads_before = 0, reads_after = 0;

  /// Fault-injection accounting (zero without a fault plan / deadline).
  Status fault_plan_status = Status::Ok();  ///< parse result of the plan
  std::uint64_t faults_injected = 0;  ///< events the injector fired
  std::uint64_t timeouts = 0;         ///< ops abandoned at op_deadline

  bool ok() const { return check.ok && fault_plan_status.ok(); }
};

/// Runs the workload and checks the algorithm's claimed consistency.
WorkloadResult RunWorkload(const WorkloadOptions& opts);

/// Human-readable label, for parameterized test names.
std::string AlgorithmName(Algorithm a);

}  // namespace nadreg::harness
