/// \file
/// Wait-free fault-tolerant one-shot registers and sticky bits (Section 6).
///
/// A *one-shot* register is a Single-Writer Multi-Reader register that may
/// be written only once; before that it holds its initial value. A *stable*
/// register relaxes single-writer to "many writers, but every write carries
/// the same value" — the paper's flag[] registers are the boolean case
/// (sticky bits). Both share one implementation over 2t+1 base registers
/// placed on distinct disks:
///
///   WRITE(v): write v to all 2t+1 base registers; wait for t+1.
///   READ():   read t+1 responses. If all carry the initial value, return
///             initial. Otherwise let v be the (unique) non-initial value
///             seen; write v back to the 2t+1 registers, wait for t+1, and
///             return v.
///
/// The reader write-back is what makes the register atomic: once a READ
/// returned v, v sits on a majority, so every later READ's quorum
/// intersects it and also returns v. Uniqueness of the non-initial value is
/// the caller's promise (single writer / single possible value) — without
/// it the construction is exactly the kind of multi-valued MWMR register
/// the paper proves unimplementable with finitely many base registers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/base_register.h"
#include "common/op_options.h"
#include "common/status.h"
#include "core/config.h"
#include "core/register_set.h"
#include "obs/instrumented.h"

namespace nadreg::core {

/// Shared implementation: a register whose every write, by any process,
/// carries one and the same value. One instance per accessing process.
class StableRegister : public obs::Instrumented {
 public:
  StableRegister(BaseRegisterClient& client, const FarmConfig& farm,
                 std::vector<RegisterId> regs, ProcessId self);

  /// Writes `v`. Caller's contract: every write to this register, by every
  /// process, passes an identical `v` (and `v` must be non-empty).
  void Write(const std::string& v);

  /// Reads. nullopt = initial value (no write is known to have completed).
  /// Wait-free: tolerates up to t crashed disks.
  std::optional<std::string> Read();

  /// Unified API: kTimeout = the deadline expired mid-protocol (the
  /// register state is unaffected; a timed-out READ publishes nothing).
  Status Write(const std::string& v, const OpOptions& opts);
  Expected<std::optional<std::string>> Read(const OpOptions& opts);

  /// True once this endpoint knows the value sits on a majority (after a
  /// successful Write or a non-initial Read). Lets callers skip redundant
  /// writes of stable state.
  bool Known() const { return known_.has_value(); }

  /// Batched READ of many distinct stable registers of one process, in
  /// at most two rounds: every uncached register's quorum read goes out
  /// in one RegisterSet::ReadAllOf, then every needed write-back in one
  /// WriteAllOf. Each result is exactly what that register's Read() would
  /// return; cached registers cost no base traffic. A register caches its
  /// value only once its write-back quorum completed. kTimeout = the
  /// deadline expired mid-round (nothing is cached then).
  static Expected<std::vector<std::optional<std::string>>> ReadMany(
      std::span<StableRegister* const> regs, OpDeadline deadline);

  /// Batched WRITE of `v` to many distinct stable registers of one
  /// process (same contract as Write): one WriteAllOf round for all that
  /// are not already known to hold it.
  static Status WriteMany(std::span<StableRegister* const> regs,
                          const std::string& v, OpDeadline deadline);

  obs::PhaseCounters op_metrics() const override;

 private:
  RegisterSet set_;
  std::size_t quorum_;
  // A stable register can never change once observed: cache it.
  std::optional<std::string> known_;
  std::uint64_t reads_done_ = 0;
  std::uint64_t writes_done_ = 0;
  std::uint64_t timeouts_ = 0;
};

/// One-shot SWMR register: a single owner may write once.
class OneShotRegister : public obs::Instrumented {
 public:
  OneShotRegister(BaseRegisterClient& client, const FarmConfig& farm,
                  std::vector<RegisterId> regs, ProcessId self);

  /// First write succeeds; later writes return kAlreadyWritten (local
  /// enforcement of the single-write contract; `v` must be non-empty —
  /// the empty string is the initial value).
  Status Write(const std::string& v);

  /// nullopt = initial value.
  std::optional<std::string> Read();

  /// Unified API (see StableRegister).
  Status Write(const std::string& v, const OpOptions& opts);
  Expected<std::optional<std::string>> Read(const OpOptions& opts);
  Status WriteUntil(const std::string& v, OpDeadline deadline);

  /// Batched READ of many one-shot registers (see StableRegister::ReadMany).
  static Expected<std::vector<std::optional<std::string>>> ReadMany(
      std::span<OneShotRegister* const> regs, OpDeadline deadline);

  obs::PhaseCounters op_metrics() const override { return inner_.op_metrics(); }

 private:
  StableRegister inner_;
  bool written_ = false;
};

/// Sticky bit: a boolean MWMR register that flips once from false to true
/// (all writes are "true" — trivially the same value).
class StickyBit : public obs::Instrumented {
 public:
  StickyBit(BaseRegisterClient& client, const FarmConfig& farm,
            std::vector<RegisterId> regs, ProcessId self);

  void Set();
  bool IsSet();
  /// Deadline-aware IsSet (kTimeout = abandoned past `deadline`).
  Expected<bool> IsSetUntil(OpDeadline deadline);
  /// True once this endpoint has majority-visible evidence the bit is set.
  bool KnownSet() const { return inner_.Known(); }

  /// Batched IsSet of many bits (see StableRegister::ReadMany): one round
  /// of quorum reads, plus one write-back round if any bit reads set.
  static Expected<std::vector<bool>> ReadMany(std::span<StickyBit* const> bits,
                                              OpDeadline deadline);
  /// Batched Set of many bits: one write round for every bit not already
  /// known set.
  static Status WriteMany(std::span<StickyBit* const> bits,
                          OpDeadline deadline);

  obs::PhaseCounters op_metrics() const override { return inner_.op_metrics(); }

 private:
  StableRegister inner_;
};

}  // namespace nadreg::core
