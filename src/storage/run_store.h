// RunStore: a directory of spilled run files plus an append-only manifest.
//
// The store is the durability unit of the spill tier. Run files hold the
// data (storage/run_file.h); the manifest records the lifecycle of each
// run so a restart can tell which files are live, how much of each was
// emitted downstream, and where the torn tails start:
//
//   MANIFEST: fixed 32-byte CRC'd records, append-only
//     0   4  magic   0x4D525049 ("IPRM")
//     4   1  type    1=begin  2=commit  3=delete  4=advance
//                    5=begin-hidden  6=compact-swap
//     5   3  reserved 0
//     8   8  run_id
//     16  8  arg     begin: record_size · commit: records · advance: head
//                    begin-hidden: record_size · compact-swap: old run_id
//     24  4  crc32 of bytes [0, 24)
//     28  4  reserved 0
//
// Protocol: `begin` is appended (and fsync'd) before a run file's first
// block, `advance` after a punctuation emits a prefix downstream, `commit`
// when a run is sealed with a known record count, `delete` when a run has
// been fully consumed (its file is unlinked). Recovery replays the
// manifest, truncating its own torn tail at the first bad record, then
// scans each live run file and truncates it to its longest intact block
// prefix. The durable content of the store after a crash is exactly:
// for each begun-not-deleted run, records [head, intact_records) where
// head is the last intact `advance`. `advance` records are not fsync'd
// individually, so a crash can lose the newest advances — recovery then
// replays a suffix that was already emitted (at-least-once, never silent
// loss of durable data).
//
// Compaction uses the two staged types to rewrite a half-consumed run
// without ever exposing its live suffix twice. `begin-hidden` opens a
// staging run that recovery treats as dead (its file is unlinked on
// Recover); once the staging file holds the live suffix and is durable, a
// single fsync'd `compact-swap` record promotes it and deletes the old
// run in one atomic step. A crash strictly before the swap recovers the
// old run only; at or after it, the new run only.
//
// Thread safety: all manifest operations serialize on an internal mutex so
// concurrent band-merge tasks can share one store. Block appends to
// distinct run files need no store lock.

#ifndef IMPATIENCE_STORAGE_RUN_STORE_H_
#define IMPATIENCE_STORAGE_RUN_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/run_file.h"

namespace impatience {
namespace storage {

inline constexpr uint32_t kManifestMagic = 0x4D525049u;  // "IPRM"
inline constexpr size_t kManifestRecordBytes = 32;
// Directory-name prefix of CreateTemp stores.
inline constexpr char kTempStorePrefix[] = "impatience-spill-";

struct RunStoreOptions {
  std::string dir;
  // fsync the manifest after begin/commit/delete (not advance) and run
  // files on Sync. Off trades durability for spill throughput.
  bool fsync = true;
  // Scripted crash injection shared by every file in the store (tests).
  WriteFault* write_fault = nullptr;
};

// One live run reconstructed by Recover().
struct RecoveredRun {
  uint64_t id = 0;
  std::string path;
  uint32_t record_size = 0;
  uint64_t records = 0;  // Intact records on disk after tail truncation.
  uint64_t head = 0;     // Durable emitted prefix (<= records).
  bool committed = false;
  uint64_t committed_records = 0;
};

struct RecoveryStats {
  size_t live_runs = 0;
  size_t torn_runs = 0;     // Run files cut back to an intact prefix.
  size_t missing_runs = 0;  // Begun in the manifest but file absent.
  uint64_t truncated_bytes = 0;
  bool manifest_truncated = false;
  size_t temp_stores_removed = 0;  // Stale CreateTemp directories.
};

class RunStore {
 public:
  // Opens (creating if needed) the store directory and its manifest for
  // appending. When reusing a directory from a previous process, call
  // Recover() before the first BeginRun so run ids resume past the old
  // ones and torn tails are cut.
  static std::unique_ptr<RunStore> Open(const RunStoreOptions& options,
                                        std::string* error);
  // Creates a private store in a fresh directory named
  // kTempStorePrefix + a unique suffix, under `parent` (empty: $TMPDIR, else
  // /tmp). Pure spill, no durability contract: fsync is off, no manifest
  // is kept, and the directory and all its files are removed on
  // destruction. One a crashed process left behind is removed by the next
  // Recover() of the store whose directory is its parent.
  static std::unique_ptr<RunStore> CreateTemp(std::string* error,
                                              const std::string& parent = "");
  ~RunStore();

  RunStore(const RunStore&) = delete;
  RunStore& operator=(const RunStore&) = delete;

  // Replays the manifest and scans every live run file; truncates torn
  // tails (manifest and run files) so subsequent appends are clean. Also
  // removes the temp stores (CreateTemp) a previous process left in this
  // store's directory.
  bool Recover(std::vector<RecoveredRun>* runs, RecoveryStats* stats,
               std::string* error);

  // Allocates a run id, appends (and fsyncs) its `begin` record, and
  // creates the run file. Returns nullptr on error.
  std::unique_ptr<RunFileWriter> BeginRun(uint32_t record_size,
                                          uint64_t* run_id,
                                          std::string* error);
  // Begins a compaction staging run: invisible to Recover() until a
  // CommitCompaction promotes it (a crash before that unlinks the file).
  std::unique_ptr<RunFileWriter> BeginHiddenRun(uint32_t record_size,
                                                uint64_t* run_id,
                                                std::string* error);
  // Atomically (one fsync'd manifest record) promotes the hidden staging
  // run `new_id` to live and deletes `old_id`, unlinking its file. The
  // staging file must be fully written (and synced, when durability is
  // on) before this call.
  bool CommitCompaction(uint64_t new_id, uint64_t old_id,
                        std::string* error);
  bool CommitRun(uint64_t run_id, uint64_t records, std::string* error);
  // Records that records [0, head) of `run_id` were emitted downstream.
  bool AdvanceHead(uint64_t run_id, uint64_t head, std::string* error);
  // Appends the `delete` record and unlinks the run file.
  bool DeleteRun(uint64_t run_id, std::string* error);

  std::string RunPath(uint64_t run_id) const;
  const std::string& dir() const { return options_.dir; }
  bool fsync_enabled() const { return options_.fsync; }
  WriteFault* write_fault() const { return options_.write_fault; }

 private:
  explicit RunStore(RunStoreOptions options)
      : options_(std::move(options)) {}

  bool AppendManifest(uint8_t type, uint64_t run_id, uint64_t arg, bool sync,
                      std::string* error);
  std::unique_ptr<RunFileWriter> BeginRunWithType(uint8_t type,
                                                  uint32_t record_size,
                                                  uint64_t* run_id,
                                                  std::string* error);

  RunStoreOptions options_;
  bool owns_dir_ = false;  // CreateTemp: remove everything on destruction.
  std::mutex mu_;
  int manifest_fd_ = -1;  // -1 in a temp store, which keeps no manifest.
  uint64_t next_run_id_ = 1;
};

}  // namespace storage
}  // namespace impatience

#endif  // IMPATIENCE_STORAGE_RUN_STORE_H_
