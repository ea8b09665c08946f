/// \file
/// Ranked register and Active Disk Paxos (Chockler & Malkhi, PODC 2002) —
/// the related-work baseline the paper contrasts itself with ([22]).
///
/// A *ranked register* stores a (rank, value) pair and offers:
///   rr-read(k):     returns the current (write-rank, value) and ensures no
///                   write with rank < k can commit afterwards;
///   rr-write(k, v): either COMMITS (installing (k, v)) or ABORTS —
///                   aborting only if some operation with rank > k was seen.
///
/// It is implementable from fail-prone *read-modify-write* blocks (active
/// disks) but NOT from plain read/write blocks — which is precisely the
/// boundary this repository's main library lives on: the paper's plain
/// NADs support uniform registers only with infinitely many blocks,
/// whereas one RMW block per disk yields uniform consensus outright.
///
/// Per-disk implementation (one RMW block holding rR, wR, v):
///   rr-read(k):  RMW { rR := max(rR, k) }, return previous (wR, v).
///   rr-write(k): RMW { if rR <= k and wR <= k then (wR, v) := (k, val) },
///                committed iff the guard held.
/// Fault tolerance: 2t+1 disks; reads take the max write-rank over a
/// majority; writes commit iff every response in a majority committed.
///
/// ActiveDiskPaxos is the classic round-based consensus over one ranked
/// register: read with your rank, adopt any value found, try to write it;
/// commit decides. It is UNIFORM — no process count anywhere — unlike
/// apps::DiskPaxos, whose blocks are indexed by process. The baseline
/// bench (bench/baseline_active_disk) measures exactly that contrast.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/codec.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/config.h"
#include "sim/rmw_client.h"

namespace nadreg::apps {

/// Contents of one ranked-register block on one disk.
struct RankedBlock {
  std::uint64_t read_rank = 0;   // rR: highest rank promised to a read
  std::uint64_t write_rank = 0;  // wR: rank of the current value
  std::string value;

  friend bool operator==(const RankedBlock&, const RankedBlock&) = default;
};

std::string EncodeRankedBlock(const RankedBlock& b);
[[nodiscard]] Expected<RankedBlock> DecodeRankedBlock(std::string_view bytes);

class RankedRegister {
 public:
  struct ReadResult {
    std::uint64_t write_rank = 0;
    std::string value;  // empty when write_rank == 0 (never written)
  };

  /// One endpoint per process; participants share `object`. Works against
  /// any RMW substrate — the real-time SimFarm or the explorer's DetFarm.
  RankedRegister(sim::ActiveDiskClient& farm, const core::FarmConfig& cfg,
                 std::uint32_t object, ProcessId self);

  /// rr-read with rank k. Wait-free (majority of 2t+1 disks). On an
  /// abandoned farm the wait fails fast and the result may be stale (a
  /// subsequent Write at this rank will not commit).
  ReadResult Read(std::uint64_t rank);

  /// rr-write with rank k. Returns true iff the write committed.
  bool Write(std::uint64_t rank, const std::string& value);

 private:
  RegisterId BlockOn(DiskId d) const;

  sim::ActiveDiskClient& farm_;
  core::FarmConfig cfg_;
  std::uint32_t object_;
  ProcessId self_;
};

/// Uniform consensus for unboundedly many processes over active disks.
class ActiveDiskPaxos {
 public:
  ActiveDiskPaxos(sim::ActiveDiskClient& farm, const core::FarmConfig& cfg,
                  std::uint32_t object, ProcessId self);

  /// One ballot at the given rank; nullopt = aborted (contention).
  std::optional<std::string> TryPropose(const std::string& value,
                                        std::uint64_t rank);

  /// Retries with increasing ranks and randomized backoff until decided.
  std::string Propose(const std::string& value, Rng& rng);

  std::uint64_t BallotsTried() const { return ballots_; }

 private:
  std::uint64_t RankFor(std::uint64_t attempt) const;

  RankedRegister reg_;
  ProcessId self_;
  std::uint64_t attempt_ = 0;
  std::uint64_t ballots_ = 0;
};

}  // namespace nadreg::apps
