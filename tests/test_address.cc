// Unit tests for the on-disk address layout and farm configuration: name
// packing bounds, heap-trie encoding, the prefix-free name code, block
// composition uniqueness, and the quorum arithmetic every emulation relies
// on.
#include "core/address.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/config.h"

namespace nadreg::core {
namespace {

TEST(FarmConfig, QuorumArithmetic) {
  for (std::uint32_t t : {1u, 2u, 3u, 5u}) {
    FarmConfig cfg{t};
    EXPECT_EQ(cfg.num_disks(), 2 * t + 1);
    EXPECT_EQ(cfg.quorum(), t + 1);
    // Two quorums always intersect: 2(t+1) > 2t+1.
    EXPECT_GT(2 * cfg.quorum(), cfg.num_disks());
  }
}

TEST(FarmConfig, SpreadPlacesOneBlockPerDisk) {
  FarmConfig cfg{2};
  auto regs = cfg.Spread(77);
  ASSERT_EQ(regs.size(), 5u);
  std::set<DiskId> disks;
  for (const auto& r : regs) {
    EXPECT_EQ(r.block, 77u);
    disks.insert(r.disk);
  }
  EXPECT_EQ(disks.size(), 5u);
}

TEST(PackName, RoundtripAcrossTheAddressableSpace) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    Name n{rng.Below(1ULL << 32), rng.Below(1ULL << 16)};
    EXPECT_EQ(UnpackName(PackName(n)), n);
  }
}

TEST(PackName, DistinctNamesDistinctPackings) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t pid = 0; pid < 50; ++pid) {
    for (std::uint64_t idx = 0; idx < 50; ++idx) {
      EXPECT_TRUE(seen.insert(PackName(Name{pid, idx})).second);
    }
  }
}

TEST(TrieEncoding, RootAndChildrenAreHeapIndexed) {
  EXPECT_EQ(TrieRoot(), 1u);
  EXPECT_EQ(TrieChild(TrieRoot(), 0), 2u);
  EXPECT_EQ(TrieChild(TrieRoot(), 1), 3u);
  EXPECT_EQ(TrieChild(2, 1), 5u);
}

TEST(TrieEncoding, DepthFortyEightLeafRecoversPath) {
  // Walking a packed name's bits from the root must land on 2^48 + path.
  const Name n{0xDEADBEEFu, 0x1234u};
  const std::uint64_t packed = PackName(n);
  std::uint64_t node = TrieRoot();
  for (int d = 0; d < 48; ++d) {
    node = TrieChild(node, (packed >> (47 - d)) & 1);
  }
  EXPECT_EQ(node, (1ULL << 48) + packed);
  EXPECT_EQ(UnpackName(node - (1ULL << 48)), n);
}

TEST(TrieEncoding, DistinctPathsDistinctLeaves) {
  std::set<std::uint64_t> leaves;
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t packed = rng.Below(1ULL << 48);
    std::uint64_t node = TrieRoot();
    for (int d = 0; d < 48; ++d) node = TrieChild(node, (packed >> (47 - d)) & 1);
    leaves.insert(node);
  }
  EXPECT_GT(leaves.size(), 495u);  // collisions would mean broken encoding
}

// Every name of a small layout, by packed value.
std::vector<Name> AllNames(const NameLayout& layout) {
  std::vector<Name> out;
  for (std::uint64_t p = 0; p < (1ULL << layout.name_bits); ++p) {
    out.push_back(layout.Unpack(p));
  }
  return out;
}

// The codeword length the code promises: the short form exactly when it
// is strictly shorter than the long form.
int ExpectedLength(const NameLayout& layout, const Name& n) {
  const int w = std::bit_width(unsigned(layout.name_bits));
  const int len = std::bit_width(layout.Pack(n));
  const int short_form = 1 + w + std::max(len - 1, 0);
  return std::min(short_form, 1 + layout.name_bits);
}

// Checks one name's codeword against every local promise of the code.
void CheckCodeword(const NameLayout& layout, const Name& n) {
  const TriePath path = layout.Path(n);
  EXPECT_EQ(path.length, ExpectedLength(layout, n))
      << n.pid << ":" << n.index;
  EXPECT_LE(path.length, layout.name_bits + 1);
  EXPECT_LT(path.Leaf(), 1ULL << 50);
  EXPECT_EQ(path.Leaf() >> path.length, 1u);  // heap node at that depth
  EXPECT_EQ(layout.LeafName(path.Leaf()), std::optional<Name>(n));
  for (int d = 0; d <= path.length; ++d) {
    EXPECT_TRUE(layout.OnSomePath(path.Node(d))) << "depth " << d;
    if (d < path.length) {
      EXPECT_EQ(layout.LeafName(path.Node(d)), std::nullopt) << "depth " << d;
    }
  }
  EXPECT_EQ(path.Node(1),
            TrieChild(TrieRoot(), path.bits >> (path.length - 1)));
}

TEST(NameCode, ExhaustiveSmallLayoutsArePrefixFreeAndPruneExactly) {
  // For every name of each small layout: one codeword each, distinct
  // leaves, no codeword a prefix of another; and over every trie node
  // down to two levels past the deepest codeword, OnSomePath and LeafName
  // agree with the brute-force sets of codeword prefixes and leaves.
  const NameLayout layouts[] = {{4, 2}, {8, 3}, {12, 5}};
  for (const NameLayout& layout : layouts) {
    SCOPED_TRACE(::testing::Message() << "layout " << layout.name_bits << "/"
                                      << layout.index_bits);
    std::set<std::uint64_t> prefixes;
    std::map<std::uint64_t, Name> leaves;
    int short_names = 0;
    int long_names = 0;
    for (const Name& n : AllNames(layout)) {
      CheckCodeword(layout, n);
      const TriePath path = layout.Path(n);
      (path.length <= layout.name_bits ? short_names : long_names)++;
      EXPECT_TRUE(leaves.emplace(path.Leaf(), n).second) << "duplicate leaf";
      for (int d = 0; d <= path.length; ++d) prefixes.insert(path.Node(d));
    }
    EXPECT_GT(short_names, 0);
    EXPECT_GT(long_names, 0);
    // Prefix-free: a leaf is never an inner node of another codeword.
    for (const auto& [leaf, n] : leaves) {
      EXPECT_FALSE(prefixes.contains(TrieChild(leaf, 0)) ||
                   prefixes.contains(TrieChild(leaf, 1)))
          << "codeword of " << n.pid << ":" << n.index << " is a prefix";
    }
    const int max_depth = layout.name_bits + 3;
    for (std::uint64_t node = 1; node < (1ULL << (max_depth + 1)); ++node) {
      EXPECT_EQ(layout.OnSomePath(node), prefixes.contains(node))
          << "node " << node;
      auto leaf = leaves.find(node);
      EXPECT_EQ(layout.LeafName(node),
                leaf == leaves.end() ? std::nullopt
                                     : std::optional<Name>(leaf->second))
          << "node " << node;
    }
  }
}

TEST(NameCode, DefaultLayoutPathsFitFortyNineLevels) {
  const NameLayout layout;
  const std::uint64_t max_pid = (1ULL << 32) - 1;
  const std::uint64_t max_index = (1ULL << 16) - 1;
  std::vector<Name> names = {{0, 0},       {0, 1},         {1, 0},
                             {10, 59},     {max_pid, 0},   {0, max_index},
                             {max_pid, max_index}};
  // The short/long boundary: the widest short-form names (42 bits) and
  // the narrowest long-form ones (43 bits).
  for (std::uint64_t packed : {(1ULL << 41), (1ULL << 42) - 1, (1ULL << 42),
                               (1ULL << 43) - 1}) {
    names.push_back(layout.Unpack(packed));
  }
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const int len = static_cast<int>(rng.Below(49));
    const std::uint64_t packed =
        len == 0 ? 0 : (1ULL << (len - 1)) | rng.Below(1ULL << (len - 1));
    names.push_back(layout.Unpack(packed));
  }
  std::map<std::uint64_t, Name> leaves;
  for (const Name& n : names) {
    CheckCodeword(layout, n);
    const TriePath path = layout.Path(n);
    (void)MakeBlock(1023, Component::kTrieMark, path.Leaf());  // key < 2^50
    auto [it, fresh] = leaves.emplace(path.Leaf(), n);
    EXPECT_TRUE(fresh || it->second == n) << "two names share a leaf";
  }
  EXPECT_EQ(layout.Path(Name{0, 0}).length, 7);    // 0 | 000000
  EXPECT_EQ(layout.Path(Name{1, 0}).length, 23);   // 0 | 010001 | 16 bits
  EXPECT_EQ(layout.Path(Name{10, 59}).length, 26);  // 0 | 010100 | 19 bits
  EXPECT_EQ(layout.Path(Name{max_pid, max_index}).length, 49);  // long form
  EXPECT_EQ(layout.Path(layout.Unpack(1ULL << 41)).length, 48);
  EXPECT_EQ(layout.Path(layout.Unpack(1ULL << 42)).length, 49);
  // No sampled codeword is a prefix of another: walking each leaf's
  // ancestors never meets a different name's leaf.
  for (const auto& [leaf, n] : leaves) {
    for (std::uint64_t node = leaf >> 1; node >= 1; node >>= 1) {
      EXPECT_FALSE(leaves.contains(node)) << "prefix at node " << node;
    }
  }
}

TEST(MakeBlock, FieldsDoNotOverlap) {
  // Distinct (object, component, key) triples must give distinct blocks.
  std::set<BlockId> blocks;
  for (std::uint32_t object : {0u, 1u, 511u, 1023u}) {
    for (Component c : {Component::kFixed, Component::kTrieMark,
                        Component::kView, Component::kValue}) {
      for (std::uint64_t key : {0ull, 1ull, (1ull << 49), (1ull << 50) - 1}) {
        EXPECT_TRUE(blocks.insert(MakeBlock(object, c, key)).second)
            << "collision at object=" << object << " key=" << key;
      }
    }
  }
}

TEST(MakeBlock, KeyOccupiesLowBits) {
  const BlockId b = MakeBlock(3, Component::kValue, 0x1234);
  EXPECT_EQ(b & ((1ULL << 50) - 1), 0x1234u);
}

}  // namespace
}  // namespace nadreg::core
