/// \file
/// Uniform wait-free atomic MWMR register from infinitely many fail-prone
/// base registers spread over 2t+1 disks (Section 6, Figure 3) — Table 4.
///
///   WRITE(val) under fresh name n:
///     S := name_snapshot(n)
///     v[n] := (val, S)                      (one-shot register)
///
///   READ under fresh name n:
///     S := name_snapshot(n)
///     T := { m ∈ S : v[m] non-empty }      (every v[m] read in one round)
///     if T = ∅: return the initial value
///     m* := the m ∈ T whose stored snapshot v[m].snapshot is largest in
///           inclusion order (Total Ordering makes them comparable; ties —
///           identical snapshots — are broken by larger name, a fixed
///           deterministic rule as the paper allows)
///     return v[m*].value
///
/// Each name may WRITE at most once (Fig. 3); the multi-WRITE interface
/// below applies the paper's transformation: every process reserves
/// infinitely many names — here (pid, 0), (pid, 1), … — and each new READ
/// or WRITE uses a fresh one.
///
/// The linearization-point assignment of Theorem 4 (and thus atomicity)
/// depends only on the snapshot's Validity / Total Ordering / Integrity and
/// on one-shot register atomicity; tests/test_mwmr_atomic.cc checks the
/// emulated register's histories with the linearizability checker under
/// full-disk-crash injection.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/base_register.h"
#include "common/codec.h"
#include "common/op_options.h"
#include "common/status.h"
#include "core/address.h"
#include "core/config.h"
#include "core/name_snapshot.h"
#include "core/oneshot.h"
#include "obs/instrumented.h"

namespace nadreg::core {

class MwmrAtomic : public obs::Instrumented {
 public:
  /// One endpoint per process. `object` scopes the on-disk address space;
  /// endpoints of the same emulated register share the same `object` (and
  /// the same `layout` — it is part of the on-disk format). The default
  /// layout is the full deployment namespace; bounded model checking
  /// passes a small one so each announce/collect touches a handful of
  /// sticky bits instead of 48 (see core/address.h).
  MwmrAtomic(BaseRegisterClient& client, const FarmConfig& farm,
             std::uint32_t object, ProcessId self, NameLayout layout = {});

  // --- Figure 3 primitive interface (one operation per name) -------------

  /// WRITE(val) under `name`. The name must be fresh system-wide.
  void WriteAs(const Name& name, const std::string& value);

  /// READ under `name`. nullopt = initial value (no WRITE visible).
  std::optional<std::string> ReadAs(const Name& name);

  // --- Multi-WRITE interface (fresh names drawn automatically) -----------

  /// WRITE(val). Uses the next reserved name of this process.
  void Write(const std::string& value);

  /// READ. nullopt = initial value.
  std::optional<std::string> Read();

  // --- Unified API (deadline + trace label; see common/op_options.h) ------

  /// kTimeout = abandoned past the deadline. The fresh name is consumed
  /// either way (it may have been announced); the WRITE's value is only
  /// visible if the final one-shot write reached a quorum — an abandoned
  /// op looks to everyone else like a slow concurrent one, which the
  /// model already admits.
  Status Write(const std::string& value, const OpOptions& opts);
  Expected<std::optional<std::string>> Read(const OpOptions& opts);

  /// Collects every WRITE record visible to a fresh snapshot, with the
  /// snapshot each WRITE stored (used by apps::SharedLog to derive a
  /// total order over all writes rather than just the latest).
  std::vector<std::pair<Name, SnapRecord>> CollectAll();

  /// Snapshot-layer statistics (collect passes, adoptions, sticky traffic).
  const NameSnapshot::Stats& snapshot_stats() const { return snap_.stats(); }

  /// Unified phase counters: snapshot-layer traffic plus this endpoint's
  /// completed READs/WRITEs and deadline timeouts.
  obs::PhaseCounters op_metrics() const override;

 private:
  OneShotRegister& ValueReg(const Name& n);
  // Reads and caches, in one round, every written v[m] of `names` that is
  // not cached yet.
  Status ReadValues(const std::vector<Name>& names, OpDeadline deadline);
  Status WriteAsUntil(const Name& name, const std::string& value,
                      OpDeadline deadline);
  Expected<std::optional<std::string>> ReadAsUntil(const Name& name,
                                                   OpDeadline deadline);
  Name FreshName();

  BaseRegisterClient& client_;
  FarmConfig farm_;
  std::uint32_t object_;
  ProcessId self_;
  NameLayout layout_;
  NameSnapshot snap_;
  std::uint64_t next_index_ = 0;
  std::map<Name, std::unique_ptr<OneShotRegister>> value_regs_;
  // v[m] records are immutable once written; cache decoded ones.
  std::map<Name, SnapRecord> known_values_;
  std::uint64_t reads_done_ = 0;
  std::uint64_t writes_done_ = 0;
  std::uint64_t timeouts_ = 0;
};

}  // namespace nadreg::core
