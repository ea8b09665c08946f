#include "nad/persistence.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "common/codec.h"
#include "common/coded_cell.h"

namespace nadreg::nad {

namespace {

/// u8 kind, u32 disk, u64 block, u32 payload length.
constexpr std::size_t kRecordHeaderBytes = 1 + 4 + 8 + 4;

void StoreLe(char* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Fills `out` with the header of a record whose payload follows it.
void EncodeRecordHeader(RecordKind kind, const RegisterId& r,
                        std::size_t payload_size,
                        char (&out)[kRecordHeaderBytes]) {
  out[0] = static_cast<char>(kind);
  StoreLe(out + 1, r.disk, 4);
  StoreLe(out + 5, r.block, 8);
  StoreLe(out + 13, payload_size, 4);
}

/// Applies the file's complete records to the store one at a time: a
/// header, then its payload into one reused buffer, so memory follows the
/// largest record, not the file. Returns records applied; a torn trailing
/// record is discarded, and with `cut_torn_tail` also truncated off the
/// file.
Expected<std::size_t> ReplayFile(const std::string& path,
                                 sim::RegisterStore* store,
                                 bool cut_torn_tail) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::size_t{0};  // missing file: fresh state
  struct stat st {};
  if (::fstat(::fileno(f), &st) != 0) {
    std::fclose(f);
    return Status::Unavailable("cannot stat: " + path);
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  std::uint64_t whole = 0;  // bytes of complete records
  std::size_t applied = 0;
  char header[kRecordHeaderBytes];
  std::string payload;
  while (std::fread(header, 1, sizeof(header), f) == sizeof(header)) {
    Decoder d(std::string_view(header, sizeof(header)));
    const std::uint8_t kind = *d.GetU8();
    const RegisterId reg{*d.GetU32(), *d.GetU64()};
    const std::uint32_t len = *d.GetU32();
    // A length past the end of the file is a torn tail; checking it
    // first also keeps a garbled length from sizing the buffer.
    if (len > size - whole - sizeof(header)) break;
    payload.resize(len);
    if (std::fread(payload.data(), 1, len, f) != len) break;
    switch (static_cast<RecordKind>(kind)) {
      case RecordKind::kValue:
        store->Apply(reg, Value(payload));
        break;
      case RecordKind::kCodedDelta:
        store->Apply(reg, MergeCodedCell(store->Get(reg), payload));
        break;
      default:
        std::fclose(f);
        return Status::Invalid("unknown record kind in " + path);
    }
    whole += sizeof(header) + len;
    ++applied;
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Unavailable("read failed: " + path);
  if (cut_torn_tail && whole < size) {
    std::error_code ec;
    std::filesystem::resize_file(path, whole, ec);
    if (ec) return Status::Unavailable("cannot cut torn tail: " + path);
  }
  return applied;
}

}  // namespace

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

Status Journal::Open(const std::string& path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  struct stat st {};
  if (fd_ < 0 || ::fstat(fd_, &st) != 0) {
    return Status::Unavailable("cannot open journal: " + path);
  }
  end_ = st.st_size;
  return Status::Ok();
}

Status Journal::Append(const RegisterId& r, std::string_view payload,
                       RecordKind kind) {
  // hot-path-begin(journal-append)
  if (fd_ < 0 || broken_) return Status::Unavailable("journal not writable");
  if (payload.size() > UINT32_MAX) return Status::Invalid("record too large");
  char header[kRecordHeaderBytes];
  EncodeRecordHeader(kind, r, payload.size(), header);
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  const auto total = static_cast<ssize_t>(sizeof(header) + payload.size());
  ssize_t n = 0;
  do {
    n = ::writev(fd_, iov, 2);
  } while (n < 0 && errno == EINTR);
  if (n == total) {
    end_ += total;
    return Status::Ok();
  }
  // Some of the record may have reached the file: cut it back off, or
  // replay would stop at it and lose every record appended after it.
  if (::ftruncate(fd_, end_) != 0) broken_ = true;
  return Status::Unavailable("journal append failed");
  // hot-path-end
}

Status Journal::Reset() {
  if (fd_ < 0 || ::ftruncate(fd_, 0) != 0) {
    return Status::Unavailable("cannot truncate journal");
  }
  end_ = 0;
  broken_ = false;
  return Status::Ok();
}

Expected<std::size_t> RecoverState(const std::string& base_path,
                                   sim::RegisterStore* store) {
  auto snap = ReplayFile(base_path + ".snap", store, /*cut_torn_tail=*/false);
  if (!snap.ok()) return snap.status();
  auto log = ReplayFile(base_path + ".log", store, /*cut_torn_tail=*/true);
  if (!log.ok()) return log.status();
  return *snap + *log;
}

Status WriteCheckpoint(const std::string& base_path,
                       const sim::RegisterStore& store) {
  const std::string tmp = base_path + ".snap.tmp";
  const std::string final_path = base_path + ".snap";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::Unavailable("cannot open " + tmp);
  for (const auto& [reg, value] : store.Values()) {
    char header[kRecordHeaderBytes];
    EncodeRecordHeader(RecordKind::kValue, reg, value.size(), header);
    if (std::fwrite(header, 1, sizeof(header), f) != sizeof(header) ||
        std::fwrite(value.data(), 1, value.size(), f) != value.size()) {
      std::fclose(f);
      return Status::Unavailable("checkpoint write failed");
    }
  }
  if (std::fflush(f) != 0 || std::fclose(f) != 0) {
    return Status::Unavailable("checkpoint flush failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, final_path, ec);
  if (ec) return Status::Unavailable("checkpoint rename failed: " + ec.message());
  return Status::Ok();
}

}  // namespace nadreg::nad
