/// \file
/// Uniform atomic SWMR register from 2t+1 fail-prone base registers, for
/// systems where *processes are reliable* (Section 4.2) — the "Yes"
/// Single-Writer/Multi-Reader cell of Table 2.
///
/// The writer is the same sequence-number writer as in Section 3.2. A READ
/// has two phases:
///
///   choose-value:  read a majority; let (v0, s0) be the pair with the
///                  largest sequence number.
///   wait:          keep reading all base registers until a majority have
///                  sequence numbers >= s0. Then return v0.
///
/// The wait phase makes the READ's chosen value *stable*: once the READ
/// returns, (>= s0) is on a majority, so every later READ's choose-value
/// phase — which reads a majority — picks a sequence number >= s0. That is
/// what rules out new-old inversion between different readers and makes the
/// register atomic rather than merely regular.
///
/// This implementation is intentionally NOT wait-free: the wait phase can
/// block if the writer crashes mid-WRITE (its value then sits on fewer than
/// t+1 registers forever). Theorem 1 proves no uniform *wait-free* atomic
/// SWMR implementation exists, so blocking is not an artifact — it is the
/// price the paper shows must be paid. Under reliable processes (Table 2's
/// hypothesis) the writer's background writes eventually land and the wait
/// phase terminates.
///
/// Both READ phases are traced and timed ("swmr.choose_value_us",
/// "swmr.wait_us" in the global obs registry) — the wait phase is the
/// paper's blocking cost, now measurable.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/base_register.h"
#include "common/codec.h"
#include "common/op_options.h"
#include "common/status.h"
#include "core/config.h"
#include "core/register_set.h"
#include "core/swsr_atomic.h"
#include "obs/instrumented.h"

namespace nadreg::core {

/// The SWMR writer is identical to the SWSR writer.
using SwmrAtomicWriter = SwsrAtomicWriter;

/// Reader endpoint; construct one per reader process (any number).
class SwmrAtomicReader : public obs::Instrumented {
 public:
  SwmrAtomicReader(BaseRegisterClient& client, const FarmConfig& farm,
                   std::vector<RegisterId> regs, ProcessId self);

  /// READ(). Blocks until atomicity can be guaranteed (see header note);
  /// under reliable processes and at most t crashed disks it terminates.
  std::string Read();

  /// Unified API: READ under an optional deadline/trace label. kTimeout =
  /// deadline expired (the READ is abandoned; this is outside the model).
  Expected<std::string> Read(const OpOptions& opts);

  obs::PhaseCounters op_metrics() const override;

 private:
  Expected<std::string> ReadImpl(OpDeadline deadline,
                                 const std::string& label);

  RegisterSet set_;
  std::size_t quorum_;
  std::uint64_t reads_done_ = 0;
  std::uint64_t timeouts_ = 0;
};

}  // namespace nadreg::core
