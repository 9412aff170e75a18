#ifndef GRAPHQL_STORAGE_ENGINE_H_
#define GRAPHQL_STORAGE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/result.h"
#include "graph/collection.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace graphql::storage {

/// WAL record vocabulary (WalRecord.kind). Bodies are little-endian.
enum class WalKind : uint8_t {
  /// body: u32 name length, name bytes, v2 collection binary
  /// (io::WriteCollectionBinary). The record's LSN is the store version
  /// the commit produced.
  kPublishDoc = 1,
  /// body: u32 name length, name bytes.
  kDropDoc = 2,
};

/// The durable half of the server's GraphStore: a write-ahead log for
/// commits plus page-aligned v3 checkpoints, tied into the store's commit
/// protocol so every published version is on disk before it becomes
/// visible.
///
/// Data directory layout:
///
///   <dir>/MANIFEST          text; names the current checkpoint
///   <dir>/wal.log           commits since that checkpoint
///   <dir>/chk-<seq>/        one checkpoint: symbols.dat + doc-<k>.gqls
///
/// Invariant that makes recovery correct: *LSN == store version*. Each
/// commit bumps the store version by exactly one and appends exactly one
/// WAL record under the commit lock, so the record's LSN is the version
/// it produced. The MANIFEST records the version its checkpoint captured;
/// replay skips records with lsn <= that version (they are already in the
/// checkpoint — the shape a crash between MANIFEST swap and WAL reset
/// leaves behind) and applies the rest in order. A torn tail (crash
/// mid-append) is detected by the WAL reader and dropped; everything
/// before it was fsynced before the commit published, so the recovered
/// state is exactly the committed history.
///
/// Recovery sequence (Open):
///   1. Parse MANIFEST (absent = empty store).
///   2. Intern the checkpoint's symbol dump, in written order, BEFORE
///      anything else interns — this is what makes the v3 files' symbol
///      identity hold so their arrays are viewed in place (zero copy).
///   3. Open each checkpoint .gqls and materialize its collection.
///   4. Replay wal.log, skipping lsn <= checkpoint version.
///   5. Write a fresh checkpoint of the recovered state and reset the
///      WAL — recovery work is never repeated, and a torn tail is
///      truncated away for good.
///
/// Ordering with respect to the store's locks: every method that touches
/// the WAL or checkpoints is called with GraphStore::commit_mu_ held (the
/// store serializes writers), so this class adds no locking of its own.
/// fsync ordering per commit: WAL record fsynced (Append) -> version
/// published. Checkpoints fsync every data file, then the MANIFEST, then
/// reset the WAL — in that order.
///
/// Failure semantics: a failed WAL append (I/O error or injected
/// `wal_append@N` fault) may leave a torn record at the tail that a later
/// successful append would bury past the reader's reach, so the engine
/// poisons itself: further LogPublish/LogDrop calls fail with
/// kFailedPrecondition until the next Open() recovers the directory. A
/// failed checkpoint (injected `checkpoint@N`) is non-fatal: the old
/// MANIFEST still stands and the WAL still holds every commit.
class DurableStore {
 public:
  using DocMap =
      std::map<std::string, std::shared_ptr<const GraphCollection>>;

  struct Options {
    std::string dir;
    /// Auto-checkpoint after this many WAL records (MaybeCheckpoint).
    uint64_t checkpoint_every = 64;
    /// Consulted at `wal_append@N` and `checkpoint@N`; null disables.
    FaultInjector* injector = nullptr;
  };

  struct RecoveryStats {
    uint64_t checkpoint_seq = 0;      ///< Checkpoint the MANIFEST named.
    uint64_t checkpoint_version = 0;  ///< Store version it captured.
    uint64_t docs_loaded = 0;         ///< Collections read from it.
    uint64_t wal_records_replayed = 0;
    uint64_t wal_records_skipped = 0;  ///< lsn <= checkpoint version.
    uint64_t wal_torn_bytes = 0;       ///< Dropped torn tail, if any.
    uint64_t symbols_loaded = 0;       ///< Interned from symbols.dat.
    /// True when every checkpoint file opened zero-copy (symbol identity
    /// held for all of them).
    bool all_zero_copy = true;
  };

  /// Opens `dir` (creating it if absent) and runs recovery. On success
  /// the recovered state is ready to Bootstrap a GraphStore and the WAL
  /// is open for appends at lsn = recovered version + 1.
  static Result<std::unique_ptr<DurableStore>> Open(const Options& opts);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  // ---- Recovered state (read once at startup) ----

  const DocMap& recovered_docs() const { return recovered_docs_; }
  uint64_t recovered_version() const { return recovered_version_; }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  // ---- Commit-path logging (caller holds the store's commit lock) ----

  /// Appends and fsyncs a publish record for version `version`. Must be
  /// called before the version is published to readers.
  Status LogPublish(const std::string& name, const GraphCollection& c,
                    uint64_t version);

  /// Appends and fsyncs a drop record for version `version`.
  Status LogDrop(const std::string& name, uint64_t version);

  /// Checkpoints `docs` at `version` when the WAL has accumulated
  /// checkpoint_every records since the last one (no-op otherwise).
  Status MaybeCheckpoint(const DocMap& docs, uint64_t version);

  /// Unconditional checkpoint: writes chk-<seq+1>/ (symbol dump + one v3
  /// file per doc), swaps the MANIFEST, resets the WAL, and removes the
  /// previous checkpoint directory.
  Status Checkpoint(const DocMap& docs, uint64_t version);

  // ---- Counters (stats rendering) ----

  uint64_t wal_records() const { return wal_records_; }
  uint64_t wal_bytes() const;
  uint64_t checkpoints() const { return checkpoints_; }
  uint64_t failed_checkpoints() const { return failed_checkpoints_; }
  bool poisoned() const { return poisoned_; }
  /// Bytes of checkpoint pages currently pinned in memory by live mapped
  /// snapshots (the server's resident-memory accounting for zero-copy
  /// opens; shrinks when dropped docs release their backing).
  uint64_t resident_mapped_bytes() const;

  const std::string& dir() const { return dir_; }

 private:
  DurableStore() = default;

  Status Recover();
  Status ResetWal(uint64_t next_lsn);
  Status AppendRecord(WalKind kind, const std::vector<uint8_t>& body,
                      uint64_t version);

  std::string dir_;
  Options opts_;
  uint64_t checkpoint_seq_ = 0;
  uint64_t records_since_checkpoint_ = 0;
  uint64_t wal_records_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t failed_checkpoints_ = 0;
  bool poisoned_ = false;
  std::unique_ptr<WalWriter> wal_;
  DocMap recovered_docs_;
  uint64_t recovered_version_ = 0;
  RecoveryStats recovery_stats_;
  /// Mapped checkpoint files live as long as some snapshot views them;
  /// weak so a dropped doc's pages stop being counted once released.
  std::vector<std::weak_ptr<PageFile>> mapped_files_;
};

}  // namespace graphql::storage

#endif  // GRAPHQL_STORAGE_ENGINE_H_
