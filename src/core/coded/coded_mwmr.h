/// \file
/// Storage-efficient atomic MWMR register from erasure-coded fragments
/// spread over n fail-prone disks ("Storage-Efficient Shared Memory
/// Emulation", Zorgui et al.; storage floor: Cadambe–Wang–Lynch).
///
/// Where the replicated emulations store a full value per disk (n× bytes
/// at rest), each disk here holds a *coded cell* (common/coded_cell.h):
/// one fragment of 1/k of the value per write tag, plus the highest tag
/// known committed at that disk. Steady-state storage is ~(n/k)× — e.g.
/// 1.6× at n=8, k=5 instead of 8×.
///
///   WRITE(v):
///     1. read cells from a quorum; tag t := (max seen seq + 1, self)
///     2. RS-encode v into n fragments; merge Put(t, frag_i) into disk i
///        (all n issued); await a write quorum
///     3. merge Commit(t, frag_i) into disk i (all n); await a write
///        quorum — the commit carries each disk's fragment again, so a
///        commit quorum IS a fragment quorum
///   READ:
///     1. read cells from a quorum; t* := max committed tag seen
///     2. pick the highest tag >= t* with >= k CRC-valid distinct-index
///        fragments among the responses; none assemblable -> retry
///        (deadline-bounded); nothing committed and nothing assemblable ->
///        initial value
///     3. decode from any k fragments. Fast read: if >= q responders
///        report committed == chosen (each with a valid fragment of it),
///        return now — chosen is t*, and the quorum already is the
///        commit quorum a write-back would build
///     4. otherwise re-encode into n fragments, merge Commit(chosen,
///        frag_i) into disk i; await a write quorum (the reader
///        write-back that forbids new-old inversion AND re-propagates an
///        in-flight tag's fragments before help-committing it — a
///        decoded tag may so far live on as few as k < q disks if its
///        writer crashed mid-put)
///     5. return
///
/// Quorum math: with q = n - f and n >= 2f + k, any two quorums intersect
/// in >= n - 2f >= k disks. Because every commit carries the destination
/// disk's fragment, a disk whose committed tag is t always holds its
/// fragment of t; so once any Commit(t) round reaches a write quorum —
/// the precondition for an op returning t — every read quorum holds >= k
/// disks with t's fragment, until a strictly higher tag commits there and
/// the reader targets the newer write instead (tag-completeness
/// invariant, DESIGN.md §16). CodedOptions derives the largest tolerated
/// f, f = floor((n-k)/2).
///
/// The substrate must support the coded-cell join
/// (BaseRegisterClient::SupportsMerge); plain read/write disks cannot
/// express "add a fragment without destroying the previous one" without
/// doubling storage. The join is a fixed, order-independent function —
/// strictly weaker than an active disk's arbitrary RMW (no consensus
/// power), strictly stronger than the paper's plain NAD.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/base_register.h"
#include "common/coded_cell.h"
#include "common/op_options.h"
#include "common/status.h"
#include "core/coded/rs_code.h"
#include "core/register_set.h"
#include "obs/instrumented.h"

namespace nadreg::core {

/// Code geometry of a coded register deployment — the coded counterpart
/// of FarmConfig{t}. All endpoints of one object must agree on it (it is
/// part of the on-disk format).
struct CodedOptions {
  std::uint32_t n = 8;  // disks = fragments per write
  std::uint32_t k = 5;  // fragments sufficient to decode

  /// Largest crash budget the geometry tolerates: n >= 2f + k.
  std::uint32_t f() const { return (n - k) / 2; }
  /// Read/write quorum size (q = n - f; two quorums overlap in >= k).
  std::uint32_t quorum() const { return n - f(); }
};

/// One process's endpoint of an erasure-coded atomic MWMR register.
/// Like the other emulation endpoints, an instance serves one thread;
/// concurrent processes each construct their own over the same object id.
class CodedMwmr : public obs::Instrumented {
 public:
  /// Validates the geometry and the substrate (client.SupportsMerge()
  /// must hold). `object` scopes the on-disk address space exactly as for
  /// the replicated emulations. `client` must outlive the instance.
  static Expected<CodedMwmr> Make(BaseRegisterClient& client,
                                  std::uint32_t object, ProcessId self,
                                  CodedOptions opts);

  // --- Unified API (deadline + trace label; common/op_options.h) ----------

  /// kTimeout = abandoned past the deadline. Like every emulation here,
  /// an abandoned WRITE may still take effect through its pending merges.
  Status Write(const std::string& value, const OpOptions& opts);
  /// nullopt = initial value (no write visible).
  Expected<std::optional<std::string>> Read(const OpOptions& opts);

  // --- Bare back-compat shapes --------------------------------------------
  void Write(const std::string& value) { (void)Write(value, OpOptions{}); }
  std::optional<std::string> Read() {
    auto r = Read(OpOptions{});
    return r.ok() ? *r : std::nullopt;
  }

  const CodedOptions& options() const { return opts_; }

  /// Bytes this endpoint put on / took off the substrate (delta payloads
  /// out, cell payloads in) — the bench's bytes-on-wire accounting,
  /// transport-independent.
  std::uint64_t WireBytesOut() const { return wire_bytes_out_; }
  std::uint64_t WireBytesIn() const { return wire_bytes_in_; }

  /// Completed ops, timeouts, read retries, and the quorum engine's
  /// counters.
  obs::PhaseCounters op_metrics() const override;

  std::uint64_t read_retries() const { return read_retries_; }
  /// READs that returned after one round, skipping the write-back.
  std::uint64_t fast_reads() const { return fast_reads_; }

 private:
  CodedMwmr(BaseRegisterClient& client, std::uint32_t object, ProcessId self,
            CodedOptions opts, RsCode rs);

  /// One read round: quorum-read the cells, pick the best assemblable
  /// tag. Outcomes: value decoded / nothing written yet / retry needed.
  struct ReadAttempt {
    bool timed_out = false;
    bool decided = false;  // value or initial-value; !decided => retry
    CodedTag tag;          // seq 0 = initial value
    std::optional<std::string> value;
    // >= q responders report `tag` committed and hold a valid fragment of
    // it: the READ may return without writing back.
    bool committed_at_quorum = false;
  };
  ReadAttempt AttemptRead(OpDeadline deadline);

  /// RS-encodes `value` under `tag` into the n per-disk fragments
  /// (index, geometry, crc filled in) — the payloads of both the Put
  /// phase and the fragment-carrying Commit phase.
  std::vector<CodedFragment> MakeFragments(const CodedTag& tag,
                                           const std::string& value);

  /// Merges Commit(frags[i].tag, frags[i]) into disk i for all n disks
  /// and awaits a write quorum. Carrying the fragments makes the commit
  /// quorum a fragment quorum: an evicted Put fragment is re-installed,
  /// and a reader help-committing an in-flight tag re-propagates the
  /// value it decoded (frags.size() must be n, one shared tag).
  Status CommitQuorum(const std::vector<CodedFragment>& frags,
                      OpDeadline deadline);

  BaseRegisterClient& client_;
  CodedOptions opts_;
  RsCode rs_;
  // unique_ptr: RegisterSet is pinned (self-referencing completion
  // closures), while the endpoint itself stays movable for Expected<>.
  std::unique_ptr<RegisterSet> set_;
  std::uint64_t reads_done_ = 0;
  std::uint64_t writes_done_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t read_retries_ = 0;
  std::uint64_t fast_reads_ = 0;
  std::uint64_t wire_bytes_out_ = 0;
  std::uint64_t wire_bytes_in_ = 0;
};

}  // namespace nadreg::core
