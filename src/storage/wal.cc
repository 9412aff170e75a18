#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "storage/checksum.h"

namespace graphql::storage {

namespace {

constexpr size_t kHeaderBytes = 8;             // u32 length + u32 crc.
constexpr size_t kPayloadMinBytes = 9;         // u64 lsn + u8 kind.
constexpr uint32_t kMaxRecordBytes = 1u << 30; // Hostile-length cap.

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}

Status WriteAll(int fd, const uint8_t* data, size_t len) {
  size_t written = 0;
  while (written < len) {
    ssize_t n = ::write(fd, data + written, len - written);
    if (n <= 0) return Status::Internal("wal write failed");
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<WalReplayStats> ReplayWalBuffer(
    std::span<const uint8_t> bytes,
    const std::function<Status(const WalRecord&)>& apply) {
  WalReplayStats stats;
  size_t pos = 0;
  uint64_t prev_lsn = 0;
  while (bytes.size() - pos >= kHeaderBytes) {
    const uint8_t* header = bytes.data() + pos;
    const uint32_t length = GetU32(header);
    // Length validation before anything else: a record may not promise
    // more bytes than remain (torn tail) or an absurd size (bit flip in
    // the length word must not drive a huge read).
    if (length < kPayloadMinBytes || length > kMaxRecordBytes ||
        length > bytes.size() - pos - kHeaderBytes) {
      break;
    }
    const uint32_t stored_crc = GetU32(header + 4);
    std::span<const uint8_t> payload = bytes.subspan(pos + kHeaderBytes,
                                                     length);
    // checksum-before-trust: the payload is only decoded after its CRC
    // verifies; a mismatch means a torn or flipped record — end of the
    // committed history.
    if (Crc32c(payload) != stored_crc) break;
    WalRecord record;
    record.lsn = GetU64(payload.data());
    record.kind = payload[8];
    record.body = payload.subspan(kPayloadMinBytes);
    // LSNs are strictly increasing in a well-formed log; a repeat or jump
    // backwards means stale bytes (e.g. a recycled file), not history.
    if (record.lsn <= prev_lsn) break;
    GQL_RETURN_IF_ERROR(apply(record));
    prev_lsn = record.lsn;
    ++stats.records;
    pos += kHeaderBytes + length;
  }
  stats.valid_bytes = pos;
  stats.torn_bytes = bytes.size() - pos;
  stats.last_lsn = prev_lsn;
  return stats;
}

Result<WalReplayStats> ReplayWalFile(
    const std::string& path,
    const std::function<Status(const WalRecord&)>& apply) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return WalReplayStats{};  // No log yet: empty.
    return Status::Internal("cannot open wal '" + path + "': " +
                            std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("fstat wal '" + path + "' failed");
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < bytes.size()) {
    ssize_t n = ::pread(fd, bytes.data() + got, bytes.size() - got,
                        static_cast<off_t>(got));
    if (n <= 0) {
      ::close(fd);
      return Status::Internal("read wal '" + path + "' failed");
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  return ReplayWalBuffer(bytes, apply);
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

Result<WalWriter> WalWriter::Open(const std::string& path, uint64_t next_lsn,
                                  uint64_t valid_bytes) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open wal '" + path + "': " +
                            std::strerror(errno));
  }
  // Drop any torn tail so the next append starts at a record boundary.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    ::close(fd);
    return Status::Internal("truncate wal '" + path + "' failed");
  }
  if (::lseek(fd, static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
    ::close(fd);
    return Status::Internal("seek wal '" + path + "' failed");
  }
  WalWriter w;
  w.fd_ = fd;
  w.path_ = path;
  w.next_lsn_ = next_lsn;
  w.bytes_ = valid_bytes;
  return w;
}

WalWriter::WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    next_lsn_ = other.next_lsn_;
    bytes_ = other.bytes_;
    records_appended_ = other.records_appended_;
    sync_every_ = other.sync_every_;
    unsynced_ = other.unsynced_;
    injector_ = other.injector_;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(uint8_t kind, std::span<const uint8_t> body) {
  if (fd_ < 0) return Status::Internal("wal writer is closed");
  if (body.size() > kMaxRecordBytes - kPayloadMinBytes) {
    return Status::InvalidArgument("wal record body too large");
  }
  const uint32_t length = static_cast<uint32_t>(kPayloadMinBytes +
                                                body.size());
  std::vector<uint8_t> record(kHeaderBytes + length);
  PutU64(record.data() + kHeaderBytes, next_lsn_);
  record[kHeaderBytes + 8] = kind;
  // An empty body's data() may be null, which memcpy may not take.
  if (!body.empty()) {
    std::memcpy(record.data() + kHeaderBytes + kPayloadMinBytes, body.data(),
                body.size());
  }
  PutU32(record.data(), length);
  PutU32(record.data() + 4,
         Crc32c(record.data() + kHeaderBytes, length));

  if (injector_ != nullptr) {
    TripKind injected = injector_->OnCharge(GovernPoint::kWalAppend);
    if (injected != TripKind::kNone) {
      // Simulate the crash shape: a torn half-record reaches the disk and
      // the process "dies" — the append fails, nothing is considered
      // committed, and recovery must truncate this tail.
      size_t torn = record.size() / 2;
      (void)WriteAll(fd_, record.data(), torn);
      ::fsync(fd_);
      bytes_ += torn;
      return Status::DataLoss("wal append aborted (injected " +
                              std::string(TripKindName(injected)) +
                              " fault); torn record on disk");
    }
  }

  GQL_RETURN_IF_ERROR(WriteAll(fd_, record.data(), record.size()));
  bytes_ += record.size();
  ++next_lsn_;
  ++records_appended_;
  if (++unsynced_ >= sync_every_) {
    GQL_RETURN_IF_ERROR(Sync());
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fd_ < 0) return Status::Internal("wal writer is closed");
  if (unsynced_ == 0) return Status::OK();
  if (::fsync(fd_) != 0) {
    return Status::Internal("fsync wal '" + path_ + "' failed");
  }
  unsynced_ = 0;
  return Status::OK();
}

}  // namespace graphql::storage
