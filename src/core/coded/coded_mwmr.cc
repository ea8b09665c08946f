#include "core/coded/coded_mwmr.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>
#include <vector>

#include "core/address.h"
#include "obs/metrics.h"

namespace nadreg::core {

namespace {

obs::Histogram& HistDecodeUs() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("core.coded.decode_us");
  return h;
}

obs::Counter& CounterFastReads() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("core.coded.fast_reads");
  return c;
}

}  // namespace

Expected<CodedMwmr> CodedMwmr::Make(BaseRegisterClient& client,
                                    std::uint32_t object, ProcessId self,
                                    CodedOptions opts) {
  if (opts.k < 1 || opts.k > opts.n) {
    return Status::Invalid("coded: need 1 <= k <= n");
  }
  if (opts.n < 2 * opts.f() + opts.k) {
    return Status::Invalid("coded: geometry violates n >= 2f + k");
  }
  if (!client.SupportsMerge()) {
    return Status::Invalid(
        "coded: substrate lacks the coded-cell merge operation");
  }
  auto rs = RsCode::Make(opts.n, opts.k);
  if (!rs.ok()) return rs.status();
  return CodedMwmr(client, object, self, opts, std::move(*rs));
}

CodedMwmr::CodedMwmr(BaseRegisterClient& client, std::uint32_t object,
                     ProcessId self, CodedOptions opts, RsCode rs)
    : client_(client), opts_(opts), rs_(std::move(rs)) {
  std::vector<RegisterId> regs;
  regs.reserve(opts_.n);
  for (DiskId d = 0; d < opts_.n; ++d) {
    regs.push_back(RegisterId{d, MakeBlock(object, Component::kCodedCell, 0)});
  }
  set_ = std::make_unique<RegisterSet>(client, self, std::move(regs));
}

std::vector<CodedFragment> CodedMwmr::MakeFragments(const CodedTag& tag,
                                                    const std::string& value) {
  std::vector<std::string> shards = rs_.Encode(value);
  std::vector<CodedFragment> frags(opts_.n);
  for (std::uint32_t i = 0; i < opts_.n; ++i) {
    CodedFragment& f = frags[i];
    f.tag = tag;
    f.index = static_cast<std::uint8_t>(i);
    f.n = static_cast<std::uint8_t>(opts_.n);
    f.k = static_cast<std::uint8_t>(opts_.k);
    f.value_size = static_cast<std::uint32_t>(value.size());
    f.crc = Crc32(shards[i]);
    f.bytes = std::move(shards[i]);
  }
  return frags;
}

Status CodedMwmr::CommitQuorum(const std::vector<CodedFragment>& frags,
                               OpDeadline deadline) {
  std::vector<Value> deltas;
  deltas.reserve(opts_.n);
  for (std::uint32_t i = 0; i < opts_.n; ++i) {
    deltas.push_back(EncodeCodedCommit(frags[i]));
    wire_bytes_out_ += deltas.back().size();
  }
  auto ticket = set_->MergeEach(std::move(deltas));
  if (!set_->AwaitUntil(ticket, opts_.quorum(), deadline)) {
    return Status::Timeout("coded: commit quorum");
  }
  return Status::Ok();
}

Status CodedMwmr::Write(const std::string& value, const OpOptions& opts) {
  const OpDeadline deadline = opts.Start();

  // Phase 1: quorum-read the cells to pick a fresh tag. Fragment tags
  // count too — a writer must move past in-flight (uncommitted) writes it
  // can see, or its tag could collide with a concurrent writer's.
  auto read_ticket = set_->ReadAll();
  if (!set_->AwaitUntil(read_ticket, opts_.quorum(), deadline)) {
    ++timeouts_;
    return Status::Timeout("coded write: read phase");
  }
  SeqNum max_seq = 0;
  for (const auto& [idx, bytes] : read_ticket.Results()) {
    wire_bytes_in_ += bytes.size();
    auto cell = DecodeCodedCell(bytes);
    if (!cell.ok()) continue;  // corrupt cell: ignore, like a stale disk
    max_seq = std::max(max_seq, cell->committed.seq);
    for (const CodedFragment& f : cell->frags) {
      max_seq = std::max(max_seq, f.tag.seq);
    }
  }
  const CodedTag tag{max_seq + 1, set_->self()};

  // Phase 2: encode and fan one fragment out per disk.
  const std::vector<CodedFragment> frags = MakeFragments(tag, value);
  std::vector<Value> deltas;
  deltas.reserve(opts_.n);
  for (const CodedFragment& f : frags) {
    deltas.push_back(EncodeCodedPut(f));
    wire_bytes_out_ += deltas.back().size();
  }
  auto put_ticket = set_->MergeEach(std::move(deltas));
  if (!set_->AwaitUntil(put_ticket, opts_.quorum(), deadline)) {
    ++timeouts_;
    return Status::Timeout("coded write: put quorum");
  }

  // Phase 3: publish. The commit carries each disk's fragment again, so
  // once it reaches a quorum the write is visible-and-stable: any later
  // read quorum intersects the commit quorum in >= k disks that hold
  // both committed >= tag and the fragment — even if a racing write
  // storm evicted the phase-2 fragment before this commit arrived
  // (DESIGN.md §16).
  if (Status s = CommitQuorum(frags, deadline); !s.ok()) {
    ++timeouts_;
    return s;
  }
  ++writes_done_;
  return Status::Ok();
}

CodedMwmr::ReadAttempt CodedMwmr::AttemptRead(OpDeadline deadline) {
  ReadAttempt out;
  auto ticket = set_->ReadAll();
  if (!set_->AwaitUntil(ticket, opts_.quorum(), deadline)) {
    out.timed_out = true;
    return out;
  }
  const auto results = ticket.Results();
  // Candidate fragment views alias these cells' fragment bytes. Reserved
  // up front, so no insertion relocates a cell already viewed; the views
  // die with the attempt.
  std::vector<CodedCell> cells;
  cells.reserve(results.size());
  CodedTag t_star;  // max committed tag across the quorum
  struct Candidate {
    std::vector<std::pair<unsigned, std::string_view>> frags;
    std::uint32_t value_size = 0;
    // Responders whose committed tag is this tag AND whose own fragment
    // of it passed the checks above: the tag's commit quorum as seen here.
    std::uint32_t committed_holders = 0;
  };
  std::map<CodedTag, Candidate> candidates;
  for (const auto& [idx, bytes] : results) {
    wire_bytes_in_ += bytes.size();
    auto decoded = DecodeCodedCell(bytes);
    if (!decoded.ok()) continue;
    const CodedCell& cell = cells.emplace_back(std::move(*decoded));
    t_star = std::max(t_star, cell.committed);
    for (const CodedFragment& f : cell.frags) {
      // Reject wrong-geometry or corrupted fragments before they can
      // reach the decoder.
      if (f.n != opts_.n || f.k != opts_.k) continue;
      if (Crc32(f.bytes) != f.crc) continue;
      Candidate& c = candidates[f.tag];
      bool dup = false;
      for (const auto& [seen, unused] : c.frags) dup |= (seen == f.index);
      if (dup) continue;
      c.value_size = f.value_size;
      c.frags.emplace_back(f.index, f.bytes);
      if (f.tag == cell.committed) ++c.committed_holders;
    }
  }
  // Highest tag >= t* decodable from this quorum's responses. A tag above
  // t* is an in-flight write the reader helps commit — safe because the
  // help-commit re-propagates the decoded fragments to a write quorum
  // before this read returns (Read() below), even when the crashed
  // writer's put reached only k < q disks — and it keeps the retry loop
  // short under write storms.
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    if (it->first < t_star) break;
    if (it->second.frags.size() < opts_.k) continue;
    const auto decode_start = std::chrono::steady_clock::now();
    auto value = rs_.Decode(it->second.frags, it->second.value_size);
    HistDecodeUs().ObserveSince(decode_start);
    if (!value.ok()) continue;
    out.decided = true;
    out.tag = it->first;
    out.value = std::move(*value);
    // The chosen tag is >= t*, so q responders committed at it means it
    // IS t*, already committed with its fragments at a quorum: the state
    // a completed commit round leaves, so the write-back would add
    // nothing (DESIGN.md §16).
    out.committed_at_quorum = it->second.committed_holders >= opts_.quorum();
    return out;
  }
  if (t_star.seq == 0) {
    // Nothing committed anywhere and nothing assemblable: the register
    // still holds its initial value.
    out.decided = true;
    return out;
  }
  return out;  // committed tag seen but not yet assemblable here: retry
}

Expected<std::optional<std::string>> CodedMwmr::Read(const OpOptions& opts) {
  const OpDeadline deadline = opts.Start();
  for (;;) {
    ReadAttempt attempt = AttemptRead(deadline);
    if (attempt.timed_out) {
      ++timeouts_;
      return Status::Timeout("coded read: read quorum");
    }
    if (!attempt.decided) {
      // A committed tag was visible but < k of its fragments were — a
      // quorum raced a concurrent write's put phase. The tag-completeness
      // invariant guarantees a fresh quorum read eventually assembles the
      // (then-)highest committed tag, so retry until the deadline.
      ++read_retries_;
      if (deadline && std::chrono::steady_clock::now() >= *deadline) {
        ++timeouts_;
        return Status::Timeout("coded read: no assemblable tag");
      }
      continue;
    }
    if (attempt.tag.seq == 0) {
      ++reads_done_;
      return std::optional<std::string>{};  // initial value
    }
    if (attempt.committed_at_quorum) {
      // Fast read: the write-back would rebuild the commit quorum this
      // read quorum already shows (AttemptRead).
      ++fast_reads_;
      CounterFastReads().Inc();
      ++reads_done_;
      return std::optional<std::string>{std::move(*attempt.value)};
    }
    // Reader write-back: make the returned tag committed at a quorum
    // BEFORE returning, so no later read can decide an older tag
    // (new-old inversion). The commit deltas carry re-encoded fragments
    // of the decoded value — mandatory when the chosen tag is an
    // in-flight write whose put never reached a full quorum (it may
    // live on just k disks): committing it without re-propagating the
    // fragments would publish a tag later quorums cannot decode. A tag
    // committed at fewer than q responders takes this path too.
    if (Status s = CommitQuorum(MakeFragments(attempt.tag, *attempt.value),
                                deadline);
        !s.ok()) {
      ++timeouts_;
      return s;
    }
    ++reads_done_;
    return std::optional<std::string>{std::move(*attempt.value)};
  }
}

obs::PhaseCounters CodedMwmr::op_metrics() const {
  obs::PhaseCounters out = set_->op_metrics();
  out.reads = reads_done_;
  out.writes = writes_done_;
  out.deadline_timeouts = timeouts_;
  return out;
}

}  // namespace nadreg::core
