/// \file
/// In-memory state of a farm of network-attached disks: lazily materialized
/// register values plus crash bookkeeping. Shared by the randomized and
/// deterministic simulation backends and the NAD daemon. Not thread safe
/// by itself: the farms guard it with their own lock, and the daemon
/// confines it to its event loop.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/types.h"

namespace nadreg::sim {

/// Values and crash state for an unbounded address space of registers
/// grouped into disks. Every register starts holding the empty Value
/// ("infinitely many registers per disk", Section 6).
class RegisterStore {
 public:
  /// Current value of a register (initial value if never written).
  const Value& Get(const RegisterId& r) const {
    auto it = values_.find(r);
    return it == values_.end() ? kInitial : it->second;
  }

  /// Applies a write (the register's linearization point).
  void Apply(const RegisterId& r, Value v) { values_[r] = std::move(v); }

  /// Applies a write from borrowed bytes, reusing the register's existing
  /// string capacity — the steady-state write path (same-size rewrites)
  /// performs no allocation, unlike Apply's fresh-Value handoff.
  void Assign(const RegisterId& r, std::string_view v) {
    values_[r].assign(v.data(), v.size());
  }

  /// Crashes one register: it stops responding to all operations
  /// (the paper's single-register crash; makes its disk "faulty").
  void CrashRegister(const RegisterId& r) { crashed_registers_.insert(r); }

  /// Full disk crash: every register of the disk — including the
  /// infinitely many never yet touched — stops responding.
  void CrashDisk(DiskId d) { crashed_disks_.insert(d); }

  bool IsCrashed(const RegisterId& r) const {
    return crashed_disks_.contains(r.disk) || crashed_registers_.contains(r);
  }

  bool IsDiskCrashed(DiskId d) const { return crashed_disks_.contains(d); }

  /// Number of registers that have ever been written (for introspection).
  std::size_t MaterializedCount() const { return values_.size(); }

  /// All materialized registers (checkpointing, introspection).
  const std::unordered_map<RegisterId, Value>& Values() const {
    return values_;
  }

 private:
  inline static const Value kInitial{};
  std::unordered_map<RegisterId, Value> values_;
  std::unordered_set<RegisterId> crashed_registers_;
  std::unordered_set<DiskId> crashed_disks_;
};

}  // namespace nadreg::sim
