/// \file
/// Durability for the NAD daemon: an append-only journal of applied block
/// writes plus a compact checkpoint, replayed on restart. A network-
/// attached disk is, after all, a disk — stopping the daemon must not lose
/// acknowledged writes.
///
/// On-disk layout (both files share the record format):
///   record := u8 kind, u32 disk, u64 block, bytes payload
///             (little-endian, codec.h; bytes = u32 length + data)
///
///   <path>.snap — checkpoint: one kValue record per materialized block
///   <path>.log  — journal: one record per applied write since checkpoint
///
/// Replay applies records in file order: a kValue record by
/// `Apply(reg, payload)`, a kCodedDelta record by
/// `Apply(reg, MergeCodedCell(Get(reg), payload))`. A merge is
/// deterministic and the daemon journals in apply order, so re-running it
/// over the same pre-state rebuilds the cell byte for byte; the journal
/// holds the delta a merge received (or its tag-only form, see
/// MergeCodedCell), not the cell the merge produced. Journals of the
/// earlier kind-less format are not read.
///
/// Recovery loads the checkpoint then replays the journal; a torn tail
/// record (crash mid-append) is discarded and cut off the file, so later
/// appends follow the last whole record. A failed append cuts its own
/// partial record off the same way. Checkpoint() writes a fresh snapshot
/// to a temp file, renames it into place, then truncates the journal —
/// crash-safe in either order of observation.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "sim/register_store.h"

namespace nadreg::nad {

/// What a record's payload is, and so how replay applies it.
enum class RecordKind : std::uint8_t {
  kValue = 0,       // a register value: Apply(reg, payload)
  kCodedDelta = 1,  // a coded-cell delta: merged into the register
};

/// Append-only journal of block writes: one writev per record, no fsync.
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens (creating if absent) the journal file for appending.
  Status Open(const std::string& path);

  /// Appends one record, handed to the OS in one writev before returning.
  /// Takes a view so the server's zero-copy decode path can journal
  /// straight from its receive buffer; allocates nothing. A failed or
  /// short write is cut back off the file, so the next append follows
  /// the last whole record; if even that fails, every later append fails.
  Status Append(const RegisterId& r, std::string_view payload,
                RecordKind kind = RecordKind::kValue);

  /// Truncates the journal (after a successful checkpoint).
  Status Reset();

  bool IsOpen() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  off_t end_ = 0;        // end of the last whole record
  bool broken_ = false;  // a torn record could not be cut off
};

/// Loads checkpoint + journal into `store`. Missing files are fine (fresh
/// disk). Returns the number of records applied; a torn journal tail is
/// discarded (it was never acknowledged) and truncated off the file.
Expected<std::size_t> RecoverState(const std::string& base_path,
                                   sim::RegisterStore* store);

/// Writes a checkpoint of `store` to <base_path>.snap (atomically via a
/// temp file + rename).
Status WriteCheckpoint(const std::string& base_path,
                       const sim::RegisterStore& store);

}  // namespace nadreg::nad
