#ifndef GRAPHQL_STORAGE_WAL_H_
#define GRAPHQL_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/result.h"

namespace graphql::storage {

/// Append-only write-ahead log.
///
/// Record framing (little-endian):
///   u32 length     payload bytes that follow the two header words
///   u32 crc        CRC-32C over the payload
///   payload:       u64 lsn, u8 kind, body...
///
/// The reader walks records until the file ends or a record fails
/// validation — short header, length past EOF, checksum mismatch, or a
/// non-increasing LSN. Everything from the first invalid record on is
/// treated as a torn tail (the canonical crash shape: a record that made
/// it partially to disk) and ignored; the writer truncates it away when it
/// reopens the log. A crc-valid prefix is exactly the committed history.
///
/// Record kinds are opaque bytes at this layer; storage::DurableStore
/// defines the vocabulary (publish / drop / checkpoint marks).

struct WalRecord {
  uint64_t lsn = 0;
  uint8_t kind = 0;
  std::span<const uint8_t> body;  ///< Views the replay buffer.
};

struct WalReplayStats {
  uint64_t records = 0;      ///< Valid records delivered.
  uint64_t valid_bytes = 0;  ///< Bytes of the valid prefix.
  uint64_t torn_bytes = 0;   ///< Bytes discarded after the valid prefix.
  uint64_t last_lsn = 0;     ///< LSN of the last valid record (0 if none).
};

/// Replays an in-memory WAL image. Every record's length is validated
/// against the remaining buffer and its checksum verified before `apply`
/// sees one byte of it. `apply` errors abort the replay (they indicate a
/// bad state transition, not bad bytes — distinct from a torn tail, which
/// ends the replay successfully).
Result<WalReplayStats> ReplayWalBuffer(
    std::span<const uint8_t> bytes,
    const std::function<Status(const WalRecord&)>& apply);

/// Reads `path` (missing file = empty log) and replays it.
Result<WalReplayStats> ReplayWalFile(
    const std::string& path,
    const std::function<Status(const WalRecord&)>& apply);

/// The appending half. Not thread-safe: the engine serializes appends
/// under the store's commit lock, which is the WAL's ordering guarantee
/// (one record per commit, in commit order).
class WalWriter {
 public:
  /// Opens (creating if absent) `path` for appending, truncating any torn
  /// tail left by a crash to `valid_bytes` first. `next_lsn` continues the
  /// LSN sequence.
  static Result<WalWriter> Open(const std::string& path, uint64_t next_lsn,
                                uint64_t valid_bytes);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Appends one record and makes it durable (fsync) before returning, as
  /// the commit protocol's publish-after-durable ordering requires.
  /// Consults the fault injector's `wal_append@N` point first: an injected
  /// fault writes a deliberately torn prefix of the record (the on-disk
  /// shape of a crash mid-write) and fails the append.
  Status Append(uint8_t kind, std::span<const uint8_t> body);

  /// Injector consulted at `wal_append@N`; null disables.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t bytes() const { return bytes_; }
  uint64_t records_appended() const { return records_appended_; }

 private:
  WalWriter() = default;

  int fd_ = -1;
  std::string path_;
  uint64_t next_lsn_ = 1;
  uint64_t bytes_ = 0;
  uint64_t records_appended_ = 0;
  FaultInjector* injector_ = nullptr;
};

}  // namespace graphql::storage

#endif  // GRAPHQL_STORAGE_WAL_H_
