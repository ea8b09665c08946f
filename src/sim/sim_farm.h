/// \file
/// Randomized threaded simulation of a farm of network-attached disks.
///
/// Each issued operation is assigned a random service delay drawn from a
/// seeded generator and is delivered (applied + handler invoked) by a
/// service thread when its deadline passes. Crashed registers stop
/// responding: their queued and future operations are silently dropped,
/// which is exactly the paper's unresponsive failure mode — the issuing
/// process can never distinguish "crashed" from "very slow".
///
/// This backend provides the asynchrony and crash behaviour needed to
/// validate the positive results under thousands of random schedules. For
/// proof-schedule control (covering writes, selective flushing) use
/// sim::DetFarm instead.
///
/// The disks are active (rmw_client.h): besides plain reads and writes
/// they serve atomic read-modify-write, the primitive of the Active Disk
/// Paxos baseline [22], and every coded-cell merge is one such RMW. Code
/// that must stay inside the paper's plain-NAD model takes the farm as a
/// BaseRegisterClient and cannot reach IssueRmw.
#pragma once

#include <chrono>
#include <cstdint>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "common/rng.h"
#include "common/types.h"
#include "faults/fault_sink.h"
#include "sim/register_store.h"
#include "sim/rmw_client.h"

namespace nadreg::sim {

class SimFarm : public ActiveDiskClient, public faults::FaultSink {
 public:
  struct Options {
    std::uint64_t seed = 0x5eed;
    /// Service delay range, microseconds (uniform).
    std::uint64_t min_delay_us = 0;
    std::uint64_t max_delay_us = 300;
  };

  SimFarm() : SimFarm(Options{}) {}
  explicit SimFarm(Options opts);
  ~SimFarm() override;

  SimFarm(const SimFarm&) = delete;
  SimFarm& operator=(const SimFarm&) = delete;

  void IssueRead(ProcessId p, RegisterId r, ReadHandler done) override;
  void IssueWrite(ProcessId p, RegisterId r, Value v,
                  WriteHandler done) override;

  /// Served like a write (it counts as one in stats()); the linearization
  /// point stores fn(previous) and the handler receives previous.
  void IssueRmw(ProcessId p, RegisterId r, RmwFunction fn,
                RmwHandler done) override;

  // --- faults::FaultSink ---------------------------------------------------

  /// Crash a single register: it stops responding from now on.
  void CrashRegister(const RegisterId& r) override;
  /// Full disk crash: all (infinitely many) registers of the disk stop
  /// responding.
  void CrashDisk(DiskId d) override;
  /// Per-disk service-delay override (replaces Options' range for d).
  void DelayDisk(DiskId d, std::uint64_t min_us, std::uint64_t max_us) override;
  /// Silently swallows each new operation on d with probability
  /// permille/1000 (it counts as issued but never responds).
  void DropRequests(DiskId d, std::uint32_t permille) override;
  /// Clears the delay override and drop rate for d (crashes persist).
  void Heal(DiskId d) override;

  /// Counters of issued/completed base-register operations (an RMW counts
  /// as a write).
  OpStats stats() const;

  /// Number of operations issued but not yet delivered or dropped.
  std::size_t InFlight() const;

  /// Test/harness introspection: current register contents.
  Value Peek(const RegisterId& r) const;

 private:
  struct Event {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq = 0;  // tie-break, preserves issue order at equal due
    ProcessId p = kNoProcess;
    RegisterId r;
    bool is_write = false;
    Value value;
    RmwFunction rmw;  // set for an RMW, which also is_write
    ReadHandler on_read;
    WriteHandler on_write;
    RmwHandler on_rmw;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  void Enqueue(Event ev);
  void ServiceLoop(std::stop_token stop);

  mutable Mutex mu_;
  CondVar cv_;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_
      GUARDED_BY(mu_);
  RegisterStore store_ GUARDED_BY(mu_);
  Rng rng_ GUARDED_BY(mu_);
  // lint-allow(tsa-coverage): immutable after construction
  Options opts_;
  // Recoverable (Heal-able) per-disk faults injected via FaultSink.
  std::unordered_map<DiskId, std::pair<std::uint64_t, std::uint64_t>>
      delay_override_ GUARDED_BY(mu_);
  std::unordered_map<DiskId, std::uint32_t> drop_permille_ GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  OpStats stats_ GUARDED_BY(mu_);
  std::size_t in_flight_ GUARDED_BY(mu_) = 0;
  // last member: joins before the rest is destroyed
  // lint-allow(tsa-coverage): set in the ctor, joined in the dtor
  std::jthread service_;
};

}  // namespace nadreg::sim
