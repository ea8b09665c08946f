// Unit tests for the Reed–Solomon fragment codec and the coded-cell
// semilattice: the GF(2^8) and CRC-32 kernels against their bytewise
// oracles, golden fragments, round-trips over an (n, k) grid on every
// kernel, every erasure pattern up to n-k losses, corrupted-fragment
// rejection, the merge laws (commutativity, idempotence, commit pruning,
// pending-tag cap) that make retransmitted deltas harmless, and the
// subsumption rule that lets a queue drop a redundant delta.
#include "core/coded/rs_code.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/coded_cell.h"
#include "common/rng.h"

namespace nadreg::core {
namespace {

using detail::GfKernel;

std::string RandomValue(Rng& rng, std::size_t size) {
  std::string v(size, '\0');
  for (char& c : v) c = static_cast<char>(rng.Below(256));
  return v;
}

std::vector<std::pair<unsigned, std::string_view>> Pick(
    const std::vector<std::string>& frags, const std::vector<unsigned>& idx) {
  std::vector<std::pair<unsigned, std::string_view>> out;
  for (unsigned i : idx) out.emplace_back(i, frags[i]);
  return out;
}

TEST(RsCode, MulAddMatchesOracleOnEveryKernel) {
  // Every coefficient, every length 0..67 (two AVX2 blocks plus every
  // tail), and every input and output offset 0..31. Output offset
  // (7 * in_off + c + len) mod 32 runs through all 32 values as len does,
  // so each coefficient meets every (input offset, output offset) pair and
  // every (length, input offset) pair.
  Rng rng(3);
  std::vector<std::uint8_t> in(32 + 68), out0(32 + 68);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.Below(256));
  for (auto& b : out0) b = static_cast<std::uint8_t>(rng.Below(256));
  for (GfKernel kernel : detail::AvailableGfKernels()) {
    SCOPED_TRACE(detail::GfKernelName(kernel));
    for (unsigned c = 0; c < 256; ++c) {
      for (std::size_t len = 0; len <= 67; ++len) {
        for (std::size_t in_off = 0; in_off < 32; ++in_off) {
          const std::size_t out_off = (7 * in_off + c + len) % 32;
          std::vector<std::uint8_t> out = out0, expect = out0;
          detail::MulAdd(kernel, static_cast<std::uint8_t>(c),
                         in.data() + in_off, out.data() + out_off, len);
          for (std::size_t i = 0; i < len; ++i) {
            expect[out_off + i] ^= detail::GfMulReference(
                static_cast<std::uint8_t>(c), in[in_off + i]);
          }
          ASSERT_EQ(out, expect)
              << "c=" << c << " len=" << len << " in_off=" << in_off;
        }
      }
    }
  }
}

TEST(RsCode, EncodeIsBitIdenticalToOracle) {
  // Golden fragments of a fixed 64 KiB value: every kernel's Encode must
  // equal the byte-at-a-time log/exp encoding, and the fragments' CRCs
  // are pinned, so the on-disk format cannot drift.
  std::string value(64 * 1024, '\0');
  for (std::size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<char>((i * 2654435761u) >> 24);
  }
  const std::vector<std::pair<std::pair<unsigned, unsigned>,
                              std::vector<std::uint32_t>>>
      golden = {
          {{4, 2}, {0x1110f146, 0xbfe405af, 0xd74905a2, 0x79bdf14b}},
          {{8, 5},
           {0x4f54a6bd, 0x620ccdb6, 0x7ed0be30, 0x29b175af, 0x4bc899ed,
            0x3bcf076c, 0xed6b4557, 0xe7557b42}},
      };
  for (const auto& [geometry, crcs] : golden) {
    const auto [n, k] = geometry;
    auto rs = RsCode::Make(n, k);
    ASSERT_TRUE(rs.ok());
    const std::size_t s = rs->FragmentSize(value.size());
    std::vector<std::string> oracle(n, std::string(s, '\0'));
    for (unsigned row = 0; row < n; ++row) {
      for (std::size_t b = 0; b < s; ++b) {
        std::uint8_t acc = 0;
        for (unsigned i = 0; i < k; ++i) {
          const std::size_t off = i * s + b;
          const auto byte = off < value.size()
                                ? static_cast<std::uint8_t>(value[off])
                                : std::uint8_t{0};
          acc ^= detail::GfMulReference(rs->Coefficient(row, i), byte);
        }
        oracle[row][b] = static_cast<char>(acc);
      }
      EXPECT_EQ(Crc32(oracle[row]), crcs[row]) << n << "/" << k << " " << row;
    }
    for (GfKernel kernel : detail::AvailableGfKernels()) {
      EXPECT_EQ(rs->Encode(value, kernel), oracle)
          << n << "/" << k << " on " << detail::GfKernelName(kernel);
    }
  }
}

TEST(RsCode, RejectsBadGeometry) {
  EXPECT_FALSE(RsCode::Make(4, 0).ok());
  EXPECT_FALSE(RsCode::Make(4, 5).ok());
  EXPECT_FALSE(RsCode::Make(300, 5).ok());
  EXPECT_TRUE(RsCode::Make(1, 1).ok());
  EXPECT_TRUE(RsCode::Make(255, 100).ok());
}

TEST(RsCode, SystematicPrefix) {
  auto rs = RsCode::Make(8, 5);
  ASSERT_TRUE(rs.ok());
  Rng rng(42);
  const std::string value = RandomValue(rng, 1000);
  auto frags = rs->Encode(value);
  ASSERT_EQ(frags.size(), 8u);
  const std::size_t fs = rs->FragmentSize(value.size());
  EXPECT_EQ(fs, 200u);
  // Fragments 0..k-1 are verbatim (zero-padded) slices of the value.
  for (unsigned i = 0; i < 5; ++i) {
    ASSERT_EQ(frags[i].size(), fs);
    const std::size_t off = i * fs;
    for (std::size_t b = 0; b < fs; ++b) {
      const char expect = off + b < value.size() ? value[off + b] : '\0';
      ASSERT_EQ(frags[i][b], expect) << "fragment " << i << " byte " << b;
    }
  }
}

TEST(RsCode, RoundTripGrid) {
  Rng rng(7);
  const std::vector<std::pair<unsigned, unsigned>> grid = {
      {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {6, 4}, {8, 5}, {12, 8}};
  const std::vector<std::size_t> sizes = {0, 1, 4, 16, 63, 64, 65, 1000};
  for (GfKernel kernel : detail::AvailableGfKernels()) {
    SCOPED_TRACE(detail::GfKernelName(kernel));
    for (auto [n, k] : grid) {
      auto rs = RsCode::Make(n, k);
      ASSERT_TRUE(rs.ok()) << n << "/" << k;
      for (std::size_t size : sizes) {
        const std::string value = RandomValue(rng, size);
        auto frags = rs->Encode(value, kernel);
        ASSERT_EQ(frags.size(), n);
        // Decode from the first k fragments (the plain-copy path), the
        // last k, and a mix of data and parity.
        std::vector<unsigned> first, last, mixed;
        for (unsigned i = 0; i < k; ++i) first.push_back(i);
        for (unsigned i = n - k; i < n; ++i) last.push_back(i);
        for (unsigned i = 0; i < k; ++i) mixed.push_back((2 * i + 1) % n);
        std::sort(mixed.begin(), mixed.end());
        mixed.erase(std::unique(mixed.begin(), mixed.end()), mixed.end());
        for (unsigned i = 0; mixed.size() < k; ++i) {
          if (std::find(mixed.begin(), mixed.end(), i) == mixed.end()) {
            mixed.push_back(i);
          }
        }
        for (const auto& idx : {first, last, mixed}) {
          auto decoded = rs->Decode(Pick(frags, idx), size, kernel);
          ASSERT_TRUE(decoded.ok()) << n << "/" << k << " size " << size;
          EXPECT_EQ(*decoded, value);
        }
      }
    }
  }
}

TEST(RsCode, EveryErasurePatternUpToNMinusKLosses) {
  auto rs = RsCode::Make(8, 5);
  ASSERT_TRUE(rs.ok());
  Rng rng(99);
  const std::string value = RandomValue(rng, 333);
  for (GfKernel kernel : detail::AvailableGfKernels()) {
    SCOPED_TRACE(detail::GfKernelName(kernel));
    auto frags = rs->Encode(value, kernel);
    // Every 5-of-8 subset (= every erasure pattern of up to 3 losses)
    // must reconstruct: C(8,5) = 56 subsets.
    std::vector<unsigned> idx;
    int subsets = 0;
    std::vector<bool> mask(8, false);
    std::fill(mask.begin(), mask.begin() + 5, true);
    std::sort(mask.begin(), mask.end());
    do {
      idx.clear();
      for (unsigned i = 0; i < 8; ++i) {
        if (mask[i]) idx.push_back(i);
      }
      auto decoded = rs->Decode(Pick(frags, idx), value.size(), kernel);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(*decoded, value);
      ++subsets;
    } while (std::next_permutation(mask.begin(), mask.end()));
    EXPECT_EQ(subsets, 56);
  }
}

TEST(RsCode, DecodeRejectsMalformedInput) {
  auto rs = RsCode::Make(6, 4);
  ASSERT_TRUE(rs.ok());
  Rng rng(5);
  const std::string value = RandomValue(rng, 100);
  auto frags = rs->Encode(value);

  // Too few fragments.
  EXPECT_FALSE(rs->Decode(Pick(frags, {0, 1, 2}), value.size()).ok());
  // Duplicate indices do not count twice.
  EXPECT_FALSE(rs->Decode({{0, frags[0]}, {0, frags[0]}, {1, frags[1]},
                           {2, frags[2]}},
                          value.size())
                   .ok());
  // Out-of-range index.
  EXPECT_FALSE(rs->Decode({{0, frags[0]}, {1, frags[1]}, {2, frags[2]},
                           {9, frags[3]}},
                          value.size())
                   .ok());
  // Fragment size inconsistent with value_size.
  std::string runt = frags[3].substr(1);
  EXPECT_FALSE(rs->Decode({{0, frags[0]}, {1, frags[1]}, {2, frags[2]},
                           {3, runt}},
                          value.size())
                   .ok());
}

TEST(RsCode, CorruptedFragmentIsCaughtByCrc) {
  // The RS decoder reconstructs *some* value from any k fragments — a
  // silently flipped bit yields a wrong value, which is why CodedMwmr
  // checks each fragment's CRC before it may enter a decode set.
  auto rs = RsCode::Make(8, 5);
  ASSERT_TRUE(rs.ok());
  Rng rng(13);
  const std::string value = RandomValue(rng, 500);
  auto frags = rs->Encode(value);
  const std::uint32_t good_crc = Crc32(frags[6]);
  frags[6][10] ^= 0x40;
  EXPECT_NE(Crc32(frags[6]), good_crc);
  auto decoded = rs->Decode(Pick(frags, {2, 3, 4, 5, 6}), value.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_NE(*decoded, value);  // garbage in, garbage out — CRC's job
}

// --- CRC-32 ------------------------------------------------------------------

TEST(CodedCell, Crc32CheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(CodedCell, Crc32MatchesBytewiseReference) {
  // Every kernel against the bytewise loop, at all 16 start offsets:
  // every length 0..300 (across the 8-byte slicing step and the 16- and
  // 64-byte folding steps, with every tail), random lengths up to
  // 64 KiB + 15, and the fragment lengths of a 64 KiB value at the
  // benchmark geometries.
  Rng rng(17);
  constexpr std::size_t kMaxLen = 64 * 1024 + 15;
  const std::string buf = RandomValue(rng, kMaxLen + 16);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  for (int i = 0; i < 24; ++i) lengths.push_back(rng.Below(kMaxLen + 1));
  for (auto [n, k] : {std::pair<unsigned, unsigned>{4, 2}, {8, 5}}) {
    lengths.push_back(RsCode::Make(n, k)->FragmentSize(64 * 1024));
  }
  for (nadreg::detail::CrcKernel kernel :
       nadreg::detail::AvailableCrcKernels()) {
    SCOPED_TRACE(nadreg::detail::CrcKernelName(kernel));
    for (std::size_t off = 0; off < 16; ++off) {
      for (std::size_t len : lengths) {
        const std::string_view bytes(buf.data() + off, len);
        ASSERT_EQ(nadreg::detail::Crc32(kernel, bytes),
                  nadreg::detail::Crc32Bytewise(bytes))
            << "off=" << off << " len=" << len;
      }
    }
  }
}

TEST(CodedCell, ActiveCrcKernelIsClmulWherePclmulRuns) {
  // The fast path must not fall off silently: a CPU with PCLMULQDQ runs
  // Crc32 on the folding kernel.
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul")) {
    EXPECT_EQ(nadreg::detail::ActiveCrcKernel(),
              nadreg::detail::CrcKernel::kClmul);
    return;
  }
#endif
  EXPECT_EQ(nadreg::detail::ActiveCrcKernel(),
            nadreg::detail::CrcKernel::kSlicing8);
}

// --- Coded-cell semilattice laws -------------------------------------------

CodedFragment MakeFrag(SeqNum seq, ProcessId writer, std::uint8_t index,
                       std::string bytes) {
  CodedFragment f;
  f.tag = CodedTag{seq, writer};
  f.index = index;
  f.n = 8;
  f.k = 5;
  f.value_size = 100;
  f.crc = Crc32(bytes);
  f.bytes = std::move(bytes);
  return f;
}

TEST(CodedCell, MergeIsCommutativeAndIdempotent) {
  const std::string put_a = EncodeCodedPut(MakeFrag(1, 1, 0, "aaaa"));
  const std::string put_b = EncodeCodedPut(MakeFrag(2, 2, 0, "bbbb"));
  const std::string commit = EncodeCodedCommit(CodedTag{1, 1});

  const Value ab = MergeCodedCell(MergeCodedCell("", put_a), put_b);
  const Value ba = MergeCodedCell(MergeCodedCell("", put_b), put_a);
  EXPECT_EQ(ab, ba);

  const Value twice = MergeCodedCell(ab, put_a);
  EXPECT_EQ(twice, ab);  // replaying a delta is a no-op

  const Value c1 = MergeCodedCell(ab, commit);
  const Value c2 = MergeCodedCell(c1, commit);
  EXPECT_EQ(c1, c2);
}

TEST(CodedCell, CommitPrunesOlderFragmentsOnly) {
  Value cell;
  cell = MergeCodedCell(cell, EncodeCodedPut(MakeFrag(1, 1, 0, "old")));
  cell = MergeCodedCell(cell, EncodeCodedPut(MakeFrag(2, 1, 0, "new")));
  cell = MergeCodedCell(cell, EncodeCodedCommit(CodedTag{2, 1}));
  auto decoded = DecodeCodedCell(cell);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->committed, (CodedTag{2, 1}));
  // Tag 1's fragment is pruned (a higher tag committed); tag 2's stays.
  ASSERT_EQ(decoded->frags.size(), 1u);
  EXPECT_EQ(decoded->frags[0].tag, (CodedTag{2, 1}));
  EXPECT_EQ(decoded->frags[0].bytes, "new");
  // A late Put below the committed tag is rejected outright.
  cell = MergeCodedCell(cell, EncodeCodedPut(MakeFrag(1, 9, 0, "late")));
  auto after = DecodeCodedCell(cell);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->frags.size(), 1u);
}

TEST(CodedCell, PendingTagsAreBounded) {
  Value cell;
  for (SeqNum s = 1; s <= 3 * CodedCell::kMaxPendingTags; ++s) {
    cell = MergeCodedCell(cell, EncodeCodedPut(MakeFrag(s, 1, 0, "x")));
  }
  auto decoded = DecodeCodedCell(cell);
  ASSERT_TRUE(decoded.ok());
  EXPECT_LE(decoded->frags.size(), CodedCell::kMaxPendingTags);
  // The surviving tags are the highest ones (lowest-evicted policy).
  EXPECT_EQ(decoded->frags.back().tag.seq, 3 * CodedCell::kMaxPendingTags);
}

TEST(CodedCell, FragmentCarryingCommitObeysMergeLaws) {
  // The protocol's commits always carry the destination's fragment; the
  // join laws must hold for them exactly as for Puts and bare commits.
  const std::string put_b = EncodeCodedPut(MakeFrag(2, 2, 0, "bbbb"));
  const std::string commit_a = EncodeCodedCommit(MakeFrag(1, 1, 0, "aaaa"));

  const Value ab = MergeCodedCell(MergeCodedCell("", commit_a), put_b);
  const Value ba = MergeCodedCell(MergeCodedCell("", put_b), commit_a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(MergeCodedCell(ab, commit_a), ab);  // idempotent

  auto decoded = DecodeCodedCell(ab);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->committed, (CodedTag{1, 1}));
  ASSERT_EQ(decoded->frags.size(), 2u);  // committed's own frag + pending
  EXPECT_EQ(decoded->frags[0].bytes, "aaaa");
  EXPECT_EQ(decoded->frags[1].bytes, "bbbb");
}

TEST(CodedCell, CommitReinstallsEvictedFragment) {
  // Regression (REVIEW finding 2): >kMaxPendingTags concurrent writers
  // can evict the fragment of a tag whose Put already reached a write
  // quorum, before its Commit lands here. The commit carries the
  // fragment, so the committed tag is decodable at this disk again.
  Value cell = MergeCodedCell("", EncodeCodedPut(MakeFrag(1, 1, 0, "mine")));
  for (SeqNum s = 2; s <= 2 + CodedCell::kMaxPendingTags; ++s) {
    cell = MergeCodedCell(cell, EncodeCodedPut(MakeFrag(s, 7, 0, "race")));
  }
  auto flooded = DecodeCodedCell(cell);
  ASSERT_TRUE(flooded.ok());
  ASSERT_FALSE(flooded->frags.empty());
  EXPECT_GT(flooded->frags.front().tag.seq, 1u);  // tag 1 evicted

  cell = MergeCodedCell(cell, EncodeCodedCommit(MakeFrag(1, 1, 0, "mine")));
  auto committed = DecodeCodedCell(cell);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed->committed, (CodedTag{1, 1}));
  ASSERT_FALSE(committed->frags.empty());
  EXPECT_EQ(committed->frags.front().tag, (CodedTag{1, 1}));
  EXPECT_EQ(committed->frags.front().bytes, "mine");
}

TEST(CodedCell, RedundantCommitJournalsTagOnlyAndMergesAlike) {
  // A durable disk journals the tag-only commit in place of a commit
  // whose fragment the cell already holds; replaying either delta over
  // the same pre-state must rebuild the same cell.
  const CodedFragment mine = MakeFrag(1, 1, 0, "mine");
  const std::string carried = EncodeCodedCommit(mine);
  Value pre = MergeCodedCell("", EncodeCodedPut(mine));
  pre = MergeCodedCell(pre, EncodeCodedPut(MakeFrag(2, 2, 0, "next")));

  std::string journal;
  const Value merged = MergeCodedCell(pre, carried, &journal);
  EXPECT_EQ(merged, MergeCodedCell(pre, carried));
  EXPECT_EQ(journal, EncodeCodedCommit(mine.tag));
  EXPECT_EQ(MergeCodedCell(pre, journal), merged);
  // A replayed commit (already committed here) is redundant as well.
  EXPECT_EQ(MergeCodedCell(merged, carried, &journal), merged);
  EXPECT_EQ(MergeCodedCell(merged, journal), merged);

  // Not redundant: the delta itself is journaled (`journal` left empty).
  CodedFragment other_bytes = mine;
  other_bytes.bytes = "MINE";
  MergeCodedCell(pre, EncodeCodedCommit(other_bytes), &journal);
  EXPECT_TRUE(journal.empty());  // same tag, a different fragment
  MergeCodedCell(pre, EncodeCodedPut(mine), &journal);
  EXPECT_TRUE(journal.empty());  // a Put
  Value evicted = pre;
  for (SeqNum s = 3; s <= 2 + CodedCell::kMaxPendingTags; ++s) {
    evicted = MergeCodedCell(evicted, EncodeCodedPut(MakeFrag(s, 7, 0, "x")));
  }
  MergeCodedCell(evicted, carried, &journal);
  EXPECT_TRUE(journal.empty());  // the pending cap evicted tag 1
  EXPECT_NE(MergeCodedCell(evicted, EncodeCodedCommit(mine.tag)),
            MergeCodedCell(evicted, carried));
}

TEST(CodedCell, StaleFragmentCarryingCommitDoesNotResurrect) {
  // A commit below the cell's committed tag must neither lower it nor
  // re-install its (pruned) fragment.
  Value cell = MergeCodedCell("", EncodeCodedCommit(MakeFrag(5, 1, 0, "new")));
  cell = MergeCodedCell(cell, EncodeCodedCommit(MakeFrag(3, 2, 0, "old")));
  auto decoded = DecodeCodedCell(cell);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->committed, (CodedTag{5, 1}));
  ASSERT_EQ(decoded->frags.size(), 1u);
  EXPECT_EQ(decoded->frags[0].tag, (CodedTag{5, 1}));
}

TEST(CodedCell, EmptyFragmentCellRoundTrips) {
  // Regression: a zero-byte value encodes to zero-byte fragments, whose
  // cell entries are exactly the 31-byte wire minimum — the hostile-count
  // bound must not reject the cell's own encoding.
  const Value cell = MergeCodedCell("", EncodeCodedPut(MakeFrag(1, 1, 0, "")));
  auto decoded = DecodeCodedCell(cell);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->frags.size(), 1u);
  EXPECT_TRUE(decoded->frags[0].bytes.empty());
}

TEST(CodedCell, SubsumptionRule) {
  const std::string put2 = EncodeCodedPut(MakeFrag(2, 1, 0, "p2"));
  const std::string commit2 = EncodeCodedCommit(MakeFrag(2, 1, 0, "c2"));
  const std::string commit3 = EncodeCodedCommit(MakeFrag(3, 1, 0, "c3"));
  const std::string bare3 = EncodeCodedCommit(CodedTag{3, 1});
  EXPECT_TRUE(CodedDeltaSubsumes(commit2, put2));   // t == T
  EXPECT_TRUE(CodedDeltaSubsumes(commit3, put2));   // t < T
  EXPECT_TRUE(CodedDeltaSubsumes(commit3, commit2));
  EXPECT_TRUE(CodedDeltaSubsumes(commit3, bare3));
  EXPECT_FALSE(CodedDeltaSubsumes(commit2, commit3));  // t > T
  EXPECT_FALSE(CodedDeltaSubsumes(put2, put2));        // a Put never does
  EXPECT_FALSE(CodedDeltaSubsumes(bare3, put2));  // would lose put2's frag
  EXPECT_FALSE(CodedDeltaSubsumes(commit3, "junk"));
  EXPECT_FALSE(CodedDeltaSubsumes("junk", put2));
  EXPECT_FALSE(CodedDeltaSubsumes(commit3.substr(0, commit3.size() - 1), put2));
}

TEST(CodedCell, SubsumedDeltaIsRedundant) {
  // Merge(Merge(c, e), l) == Merge(c, l) whenever Subsumes(l, e), over
  // reachable cells (built by merging random deltas into the empty cell),
  // many of them holding the full pending cap.
  Rng rng(2024);
  auto random_delta = [&] {
    const SeqNum seq = 1 + rng.Below(14);
    const ProcessId writer = 1 + rng.Below(2);
    const std::string bytes = RandomValue(rng, rng.Below(4));
    switch (rng.Below(3)) {
      case 0:
        return EncodeCodedPut(MakeFrag(seq, writer, 0, bytes));
      case 1:
        return EncodeCodedCommit(CodedTag{seq, writer});
      default:
        return EncodeCodedCommit(MakeFrag(seq, writer, 0, bytes));
    }
  };
  int full_caps = 0, checked = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    Value c;
    const std::size_t steps = rng.Below(24);
    for (std::size_t i = 0; i < steps; ++i) {
      // Odd trials mix in commits; even ones only Put, so the pending
      // suffix often fills up.
      c = MergeCodedCell(c, trial % 2 == 1 && rng.Below(4) == 0
                                ? random_delta()
                                : EncodeCodedPut(MakeFrag(
                                      1 + rng.Below(14), 1 + rng.Below(2), 0,
                                      RandomValue(rng, rng.Below(4)))));
    }
    auto cell = DecodeCodedCell(c);
    ASSERT_TRUE(cell.ok());
    std::size_t pending = 0;
    for (const auto& f : cell->frags) pending += f.tag > cell->committed;
    full_caps += pending == CodedCell::kMaxPendingTags;
    const std::string e = random_delta();
    const std::string l = random_delta();
    if (!CodedDeltaSubsumes(l, e)) continue;
    ++checked;
    ASSERT_EQ(MergeCodedCell(MergeCodedCell(c, e), l), MergeCodedCell(c, l))
        << "trial " << trial;
  }
  EXPECT_GT(checked, 500);
  EXPECT_GT(full_caps, 500);
}

TEST(CodedCell, MergeToleratesGarbage) {
  const std::string put = EncodeCodedPut(MakeFrag(1, 1, 0, "abc"));
  // Garbage current resets to empty-then-merge; garbage delta is ignored.
  const Value from_garbage = MergeCodedCell("!!not a cell!!", put);
  EXPECT_EQ(from_garbage, MergeCodedCell("", put));
  const Value kept = MergeCodedCell(from_garbage, "?? junk ??");
  EXPECT_EQ(kept, from_garbage);
}

}  // namespace
}  // namespace nadreg::core
