#include "core/name_snapshot.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nadreg::core {

namespace {
obs::Histogram& CollectHist() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("snap.collect_us");
  return h;
}
obs::Histogram& SnapshotHist() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("snap.snapshot_us");
  return h;
}
obs::Counter& AdoptionCounter() {
  static obs::Counter& c = obs::Registry::Global().GetCounter("snap.adoptions");
  return c;
}
}  // namespace

NameSnapshot::NameSnapshot(BaseRegisterClient& client, const FarmConfig& farm,
                           std::uint32_t object, ProcessId self,
                           bool pipelined_collect, NameLayout layout)
    : client_(client),
      farm_(farm),
      object_(object),
      self_(self),
      pipelined_collect_(pipelined_collect),
      layout_(layout) {}

StickyBit& NameSnapshot::Mark(std::uint64_t trie_node) {
  auto it = marks_.find(trie_node);
  if (it == marks_.end()) {
    auto bit = std::make_unique<StickyBit>(
        client_, farm_,
        farm_.Spread(MakeBlock(object_, Component::kTrieMark, trie_node)),
        self_);
    it = marks_.emplace(trie_node, std::move(bit)).first;
  }
  return *it->second;
}

OneShotRegister& NameSnapshot::View(const Name& n) {
  auto it = views_.find(n);
  if (it == views_.end()) {
    auto reg = std::make_unique<OneShotRegister>(
        client_, farm_,
        farm_.Spread(MakeBlock(object_, Component::kView, layout_.Pack(n))),
        self_);
    it = views_.emplace(n, std::move(reg)).first;
  }
  return *it->second;
}

Expected<bool> NameSnapshot::MarkIsSet(std::uint64_t trie_node,
                                       OpDeadline deadline) {
  StickyBit& bit = Mark(trie_node);
  if (bit.KnownSet()) return true;  // sticky: stays set forever
  ++stats_.sticky_reads;
  return bit.IsSetUntil(deadline);
}

void NameSnapshot::Announce(const Name& name) {
  Status s = AnnounceUntil(name, std::nullopt);
  assert(s.ok());
  (void)s;
}

Status NameSnapshot::AnnounceUntil(const Name& name, OpDeadline deadline) {
  // All path bits are set CONCURRENTLY (one quorum round trip instead of
  // one per level). Safe because "the whole path is visible" — the
  // predicate collects test — is monotone and first becomes true at the
  // linearization point of whichever path bit lands last: no partial
  // announce can ever be collected, regardless of set order. (The path is
  // a prefix-free codeword, so its leaf is name-specific: sibling names'
  // bits can never complete a path whose leaf was not set by this name's
  // own announce.)
  const TriePath code = layout_.Path(name);
  std::vector<StickyBit*> path;
  path.reserve(code.length);
  for (int d = 1; d <= code.length; ++d) {
    StickyBit& bit = Mark(code.Node(d));
    if (!bit.KnownSet()) {
      ++stats_.sticky_sets;
      path.push_back(&bit);
    }
  }
  return StickyBit::WriteMany(path, deadline);
}

std::vector<Name> NameSnapshot::Collect() {
  auto v = CollectUntil(std::nullopt);
  assert(v.ok());
  return std::move(*v);
}

Expected<std::vector<Name>> NameSnapshot::CollectUntil(OpDeadline deadline) {
  ++stats_.collects;
  obs::ScopedPhase phase(&CollectHist(), "snap", "collect");
  return pipelined_collect_ ? CollectPipelined(deadline)
                            : CollectSequential(deadline);
}

Expected<std::vector<Name>> NameSnapshot::CollectSequential(
    OpDeadline deadline) {
  std::vector<Name> out;
  std::vector<std::uint64_t> stack{TrieRoot()};  // set trie nodes
  while (!stack.empty()) {
    const std::uint64_t node = stack.back();
    stack.pop_back();
    if (auto name = layout_.LeafName(node)) {
      out.push_back(*name);
      continue;
    }
    for (unsigned bit : {0u, 1u}) {
      const std::uint64_t child = TrieChild(node, bit);
      if (!layout_.OnSomePath(child)) continue;
      auto set = MarkIsSet(child, deadline);
      if (!set.ok()) return set.status();
      if (*set) stack.push_back(child);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Expected<std::vector<Name>> NameSnapshot::CollectPipelined(
    OpDeadline deadline) {
  // Knowledge-frontier walk: each round probes, in one batched read,
  // every unknown child of every node known to be set — at any depth.
  // Children that read set expand in the next round; cached set nodes
  // expand at once (sticky: cached truth is forever). So a walk costs one
  // round plus one per level of newly discovered chain, reads exactly the
  // bits the sequential walk reads, and probes a child only after its
  // parent's read and write-back completed. Both walks report a name at
  // its codeword's leaf without expanding it, and skip children no
  // codeword passes through: those are never set.
  std::vector<Name> out;
  std::vector<std::uint64_t> expand{TrieRoot()};  // set trie nodes
  std::vector<std::uint64_t> probed;
  std::vector<StickyBit*> probes;
  for (;;) {
    probed.clear();
    probes.clear();
    while (!expand.empty()) {
      const std::uint64_t node = expand.back();
      expand.pop_back();
      if (auto name = layout_.LeafName(node)) {
        out.push_back(*name);
        continue;
      }
      for (unsigned b : {0u, 1u}) {
        const std::uint64_t child = TrieChild(node, b);
        if (!layout_.OnSomePath(child)) continue;
        StickyBit& bit = Mark(child);
        if (bit.KnownSet()) {
          expand.push_back(child);
        } else {
          ++stats_.sticky_reads;
          probes.push_back(&bit);
          probed.push_back(child);
        }
      }
    }
    if (probes.empty()) break;
    auto set = StickyBit::ReadMany(probes, deadline);
    if (!set.ok()) return set.status();
    for (std::size_t i = 0; i < probed.size(); ++i) {
      if ((*set)[i]) expand.push_back(probed[i]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status NameSnapshot::ReadViews(const std::vector<Name>& names,
                               const Name& skip, OpDeadline deadline) {
  std::vector<Name> todo;
  std::vector<OneShotRegister*> regs;
  for (const Name& m : names) {
    if (m == skip || known_views_.contains(m)) continue;
    todo.push_back(m);
    regs.push_back(&View(m));
  }
  if (regs.empty()) return Status::Ok();
  auto bytes = OneShotRegister::ReadMany(regs, deadline);
  if (!bytes.ok()) return bytes.status();
  for (std::size_t i = 0; i < todo.size(); ++i) {
    if (!(*bytes)[i]) continue;  // unwritten: not published (yet)
    auto view = DecodeNameSet(*(*bytes)[i]);
    assert(view.ok() && "published view must decode");
    if (view.ok()) known_views_.emplace(todo[i], std::move(*view));
  }
  return Status::Ok();
}

std::vector<Name> NameSnapshot::Snapshot(const Name& name) {
  auto v = SnapshotUntil(name, std::nullopt);
  assert(v.ok());
  return std::move(*v);
}

Expected<std::vector<Name>> NameSnapshot::SnapshotUntil(const Name& name,
                                                        OpDeadline deadline) {
  obs::ScopedPhase op_phase(&SnapshotHist(), "snap", "snapshot");
  if (Status s = AnnounceUntil(name, deadline); !s.ok()) return s;
  auto v1 = CollectUntil(deadline);
  if (!v1.ok()) return v1.status();
  for (;;) {
    auto v2 = CollectUntil(deadline);
    if (!v2.ok()) return v2.status();
    if (*v2 == *v1) {
      // Clean pin: v1 is the directory's exact contents at the instant
      // between the two collects. Publish it for adopters, then return.
      Status s = View(name).WriteUntil(EncodeNameSet(*v1), deadline);
      if (!s.ok()) return s;
      return v1;
    }
    // Interference: some name announced between the collects. Any
    // concurrent operation that managed a clean pin after our announce has
    // published a view containing us — adopt it. Every uncached view of
    // V2 \ {n} is read in one round, then scanned in sorted order.
    if (Status s = ReadViews(*v2, name, deadline); !s.ok()) return s;
    for (const Name& m : *v2) {
      if (m == name) continue;
      auto view = known_views_.find(m);
      if (view != known_views_.end() &&
          std::binary_search(view->second.begin(), view->second.end(),
                             name)) {
        ++stats_.adoptions;
        AdoptionCounter().Inc();
        return view->second;
      }
    }
    v1 = std::move(v2);
  }
}

obs::PhaseCounters NameSnapshot::op_metrics() const {
  obs::PhaseCounters out;
  out.collects = stats_.collects;
  out.adoptions = stats_.adoptions;
  out.sticky_reads = stats_.sticky_reads;
  out.sticky_sets = stats_.sticky_sets;
  return out;
}

}  // namespace nadreg::core
