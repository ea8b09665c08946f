/// \file
/// Name snapshot for the infinite-arrival model (Section 6, after Gafni,
/// Merritt & Taubenfeld, PODC 2001).
///
/// At any time a process may start a snapshot under a fresh name n; when it
/// terminates it outputs a set of names S_n such that:
///
///   * Validity:       n ∈ S_n.
///   * Total Ordering: all output snapshots form an inclusion chain.
///   * Integrity:      if m does not start by the time n's snapshot
///                     terminates, then m ∉ S_n.
///
/// Construction (uses exactly the register types Section 6 shows to be
/// fault-tolerantly implementable — sticky bits and one-shot registers,
/// spread over the 2t+1 disks):
///
///   * Name directory: an unbounded binary trie of sticky bits. A name
///     announces itself by setting the sticky bits along its root-to-leaf
///     path — a prefix-free codeword of its packed bits, about as long as
///     its significant bits (core/address.h) — concurrently, in one quorum
///     round trip:
///     a partially announced name is never collectable because "the whole
///     path is visible" is monotone and first holds when the last path bit
///     lands, and the leaf bit is name-specific. A collect walks the
///     marked trie; it gathers every fully announced name and, because the
///     directory is grow-only and its bits are atomic, two equal
///     consecutive collects pin the exact directory contents at a single
///     instant. By default the walk is a knowledge frontier: each round
///     probes, in one batched read, every unknown child of every node known
///     to be set, at any depth, so a collect costs 1 + the length of the
///     newly discovered chains in round trips (one round when no new name
///     appeared), not one per trie level.
///   * view[n]: a one-shot register owned by name n, holding the snapshot
///     set n committed (published before n returns).
///
///   Snapshot(n):
///     announce(n)
///     V1 := collect()
///     loop:
///       V2 := collect()
///       if V2 == V1:  view[n] := V1; return V1            (clean pin)
///       else: read view[m] for all m in V2 \ {n} (one round);
///             for m in V2, if view[m] is written and n ∈ view[m]:
///                 return view[m]                           (adoption)
///             V1 := V2
///
/// Every returned set is the directory's exact contents at some instant no
/// later than the operation's own termination, which yields all three
/// properties (see tests/test_name_snapshot.cc for the property suite).
///
/// Faithfulness note (also in DESIGN.md §7): the paper defers to [28] for a
/// snapshot that is wait-free even under unbounded concurrency. Ours is
/// wait-free whenever new arrivals stop interfering for one double-collect
/// (in particular in every finite-arrival run) and lock-free in general:
/// interference means ever-new names announce, and any of them that pins a
/// clean collect publishes a view that all concurrent operations adopt.
/// All three *safety* properties — the only ones the Fig. 3 atomicity
/// proof uses — hold unconditionally.
///
/// Observability: each collect pass is timed and traced ("snap.collect_us"
/// in the global obs registry; spans "snap/collect"), and the per-endpoint
/// Stats counters are surfaced through the unified Instrumented accessor.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/base_register.h"
#include "common/op_options.h"
#include "common/status.h"
#include "common/types.h"
#include "core/address.h"
#include "core/config.h"
#include "core/oneshot.h"
#include "obs/instrumented.h"

namespace nadreg::core {

class NameSnapshot : public obs::Instrumented {
 public:
  struct Stats {
    std::uint64_t collects = 0;       // total collect passes
    std::uint64_t adoptions = 0;      // snapshots resolved by adoption
    std::uint64_t sticky_reads = 0;   // sticky bits actually read
    std::uint64_t sticky_sets = 0;    // sticky bits actually set
  };

  /// One instance per process. `object` scopes the directory's on-disk
  /// address space so independent snapshot objects do not collide.
  /// `pipelined_collect` walks the knowledge frontier: each round reads
  /// every unknown child of every known-set node, at any depth, as one
  /// batched StickyBit::ReadMany (latency 1 + length of newly discovered
  /// chains in round trips, instead of one per marked node); the
  /// sequential mode is kept for the ablation bench. Both modes read the
  /// same bits, each child only after its parent's read and write-back
  /// completed, so the double-collect pin argument is unchanged. `layout`
  /// bounds the name universe (trie depth at most layout.name_bits + 1);
  /// the default is the full deployment layout — smaller layouts are for
  /// bounded model checking (see core/address.h).
  NameSnapshot(BaseRegisterClient& client, const FarmConfig& farm,
               std::uint32_t object, ProcessId self,
               bool pipelined_collect = true, NameLayout layout = {});

  /// Runs the snapshot protocol for `name`. The caller must own `name`
  /// (first field = its ProcessId discipline is the caller's) and use it
  /// for at most one Snapshot call, ever, across the whole system.
  std::vector<Name> Snapshot(const Name& name);

  /// Deadline-aware Snapshot (kTimeout = abandoned past `deadline`; the
  /// name stays announced but publishes no view — safe, it just looks
  /// like a slow concurrent operation to everyone else).
  Expected<std::vector<Name>> SnapshotUntil(const Name& name,
                                            OpDeadline deadline);

  /// Announce without snapshotting (exposed for tests/benches).
  void Announce(const Name& name);
  /// One collect pass (exposed for tests/benches).
  std::vector<Name> Collect();

  const Stats& stats() const { return stats_; }

  obs::PhaseCounters op_metrics() const override;

 private:
  StickyBit& Mark(std::uint64_t trie_node);
  OneShotRegister& View(const Name& n);
  Expected<bool> MarkIsSet(std::uint64_t trie_node, OpDeadline deadline);
  Status AnnounceUntil(const Name& name, OpDeadline deadline);
  Expected<std::vector<Name>> CollectUntil(OpDeadline deadline);
  Expected<std::vector<Name>> CollectSequential(OpDeadline deadline);
  Expected<std::vector<Name>> CollectPipelined(OpDeadline deadline);

  BaseRegisterClient& client_;
  FarmConfig farm_;
  std::uint32_t object_;
  ProcessId self_;
  bool pipelined_collect_;
  NameLayout layout_;
  Stats stats_;

  // Sticky bits and views are immutable once observed; keep instances (and
  // thus their caches) for the lifetime of this endpoint.
  std::map<std::uint64_t, std::unique_ptr<StickyBit>> marks_;
  std::map<Name, std::unique_ptr<OneShotRegister>> views_;
  // Committed views already decoded (immutable once written).
  std::map<Name, std::vector<Name>> known_views_;

  // Reads and caches, in one round, the published views of `names`
  // other than `skip` that are not cached yet.
  Status ReadViews(const std::vector<Name>& names, const Name& skip,
                   OpDeadline deadline);
};

}  // namespace nadreg::core
