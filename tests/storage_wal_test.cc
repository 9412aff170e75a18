#include "storage/wal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/status.h"

namespace graphql::storage {
namespace {

class TempPath {
 public:
  TempPath() {
    char buf[] = "/tmp/gql_wal_test_XXXXXX";
    int fd = ::mkstemp(buf);
    if (fd >= 0) ::close(fd);
    path_ = buf;
  }
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> Body(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string AsString(std::span<const uint8_t> b) {
  return std::string(b.begin(), b.end());
}

struct Seen {
  uint64_t lsn;
  uint8_t kind;
  std::string body;
};

std::function<Status(const WalRecord&)> Collect(std::vector<Seen>* out) {
  return [out](const WalRecord& r) {
    if (out != nullptr) out->push_back({r.lsn, r.kind, AsString(r.body)});
    return Status::OK();
  };
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

TEST(WalTest, AppendThenReplayRoundTrips) {
  TempPath tmp;
  {
    auto w = WalWriter::Open(tmp.path(), /*next_lsn=*/1, /*valid_bytes=*/0);
    ASSERT_TRUE(w.ok()) << w.status().message();
    ASSERT_TRUE(w.value().Append(1, Body("publish g1")).ok());
    ASSERT_TRUE(w.value().Append(2, Body("")).ok());
    ASSERT_TRUE(w.value().Append(1, Body("publish g2")).ok());
    EXPECT_EQ(w.value().next_lsn(), 4u);
    EXPECT_EQ(w.value().records_appended(), 3u);
  }
  std::vector<Seen> seen;
  auto stats = ReplayWalFile(tmp.path(), Collect(&seen));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, 3u);
  EXPECT_EQ(stats.value().torn_bytes, 0u);
  EXPECT_EQ(stats.value().last_lsn, 3u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].lsn, 1u);
  EXPECT_EQ(seen[0].kind, 1);
  EXPECT_EQ(seen[0].body, "publish g1");
  EXPECT_EQ(seen[1].kind, 2);
  EXPECT_EQ(seen[1].body, "");
  EXPECT_EQ(seen[2].body, "publish g2");
}

TEST(WalTest, MissingFileReplaysEmpty) {
  auto stats = ReplayWalFile("/tmp/gql_wal_does_not_exist_12345",
                             Collect(nullptr));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, 0u);
  EXPECT_EQ(stats.value().valid_bytes, 0u);
}

TEST(WalTest, TornTailIsDroppedAndTruncatedOnReopen) {
  TempPath tmp;
  {
    auto w = WalWriter::Open(tmp.path(), 1, 0);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().Append(1, Body("first")).ok());
    ASSERT_TRUE(w.value().Append(1, Body("second")).ok());
  }
  // Tear the last record: chop 3 bytes off the file.
  std::vector<uint8_t> bytes = ReadFileBytes(tmp.path());
  ASSERT_GT(bytes.size(), 3u);
  ASSERT_EQ(::truncate(tmp.path().c_str(),
                       static_cast<off_t>(bytes.size() - 3)), 0);

  std::vector<Seen> seen;
  auto stats = ReplayWalFile(tmp.path(), Collect(&seen));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, 1u);
  EXPECT_GT(stats.value().torn_bytes, 0u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].body, "first");

  // Reopen at the valid prefix: the torn tail is truncated away and the
  // next append lands on a clean record boundary.
  {
    auto w = WalWriter::Open(tmp.path(), stats.value().last_lsn + 1,
                             stats.value().valid_bytes);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().Append(1, Body("third")).ok());
  }
  seen.clear();
  stats = ReplayWalFile(tmp.path(), Collect(&seen));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, 2u);
  EXPECT_EQ(stats.value().torn_bytes, 0u);
  EXPECT_EQ(seen[1].body, "third");
}

TEST(WalTest, CorruptedPayloadEndsReplayAtThatRecord) {
  TempPath tmp;
  {
    auto w = WalWriter::Open(tmp.path(), 1, 0);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().Append(1, Body("good record")).ok());
    ASSERT_TRUE(w.value().Append(1, Body("about to be flipped")).ok());
  }
  std::vector<uint8_t> bytes = ReadFileBytes(tmp.path());
  bytes[bytes.size() - 2] ^= 0xff;  // Inside the second record's body.

  std::vector<Seen> seen;
  auto stats = ReplayWalBuffer(bytes, Collect(&seen));
  ASSERT_TRUE(stats.ok());
  // checksum-before-trust: the flipped record never reaches apply.
  EXPECT_EQ(stats.value().records, 1u);
  EXPECT_GT(stats.value().torn_bytes, 0u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].body, "good record");
}

TEST(WalTest, HostileLengthWordDoesNotDriveAllocation) {
  // A "record" promising 1 GiB of payload in an 8-byte file must be
  // treated as a torn tail, not a 1 GiB read.
  std::vector<uint8_t> bytes = {0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0};
  auto stats = ReplayWalBuffer(bytes, Collect(nullptr));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, 0u);
  EXPECT_EQ(stats.value().torn_bytes, bytes.size());
}

TEST(WalTest, NonIncreasingLsnEndsReplay) {
  TempPath tmp;
  {
    auto w = WalWriter::Open(tmp.path(), 5, 0);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().Append(1, Body("lsn five")).ok());
  }
  std::vector<uint8_t> five = ReadFileBytes(tmp.path());
  // Stale-file shape: a valid record followed by a bytewise copy of
  // itself (same LSN). The copy checksums fine but must be rejected.
  std::vector<uint8_t> doubled = five;
  doubled.insert(doubled.end(), five.begin(), five.end());
  std::vector<Seen> seen;
  auto stats = ReplayWalBuffer(doubled, Collect(&seen));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, 1u);
  EXPECT_EQ(stats.value().last_lsn, 5u);
}

TEST(WalTest, ApplyErrorPropagates) {
  TempPath tmp;
  {
    auto w = WalWriter::Open(tmp.path(), 1, 0);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().Append(9, Body("unknown kind")).ok());
  }
  auto stats = ReplayWalFile(tmp.path(), [](const WalRecord&) {
    return Status::InvalidArgument("unknown record kind");
  });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, InjectedFaultLeavesTornRecordThatRecoveryDrops) {
  TempPath tmp;
  FaultInjector injector;
  injector.AddRule(GovernPoint::kWalAppend, /*at=*/2, TripKind::kSteps);
  {
    auto w = WalWriter::Open(tmp.path(), 1, 0);
    ASSERT_TRUE(w.ok());
    w.value().set_fault_injector(&injector);
    ASSERT_TRUE(w.value().Append(1, Body("survives the crash")).ok());
    Status torn = w.value().Append(1, Body("torn by the crash"));
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(torn.code(), StatusCode::kDataLoss);
  }
  std::vector<Seen> seen;
  auto stats = ReplayWalFile(tmp.path(), Collect(&seen));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, 1u);
  EXPECT_GT(stats.value().torn_bytes, 0u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].body, "survives the crash");
}

}  // namespace
}  // namespace graphql::storage
