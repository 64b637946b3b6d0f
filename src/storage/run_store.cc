#include "storage/run_store.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <map>

#include "common/crc32.h"

namespace impatience {
namespace storage {

namespace {

enum ManifestType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kDelete = 3,
  kAdvance = 4,
  kBeginHidden = 5,  // Compaction staging run; dead until swapped in.
  kCompactSwap = 6,  // arg = old run id: promote run_id, delete arg.
};

void PutU32(uint32_t v, uint8_t* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void PutU64(uint64_t v, uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + strerror(errno);
}

bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out->clear();
  uint8_t buf[4096];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (r == 0) break;
    out->insert(out->end(), buf, buf + r);
  }
  ::close(fd);
  return true;
}

bool EnsureDir(const std::string& dir, std::string* error) {
  // mkdir -p: create each path component that is missing.
  for (size_t i = 1; i <= dir.size(); ++i) {
    if (i != dir.size() && dir[i] != '/') continue;
    const std::string prefix = dir.substr(0, i);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      SetError(error, "mkdir " + prefix);
      return false;
    }
  }
  return true;
}

// Unlinks every file in `dir`, then the directory (a temp store holds no
// subdirectories).
void RemoveFlatDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

}  // namespace

std::unique_ptr<RunStore> RunStore::Open(const RunStoreOptions& options,
                                         std::string* error) {
  if (options.dir.empty()) {
    if (error != nullptr) *error = "RunStore: empty directory";
    return nullptr;
  }
  if (!EnsureDir(options.dir, error)) return nullptr;
  std::unique_ptr<RunStore> store(new RunStore(options));
  const std::string manifest = options.dir + "/MANIFEST";
  store->manifest_fd_ =
      ::open(manifest.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (store->manifest_fd_ < 0) {
    SetError(error, "open " + manifest);
    return nullptr;
  }
  return store;
}

std::unique_ptr<RunStore> RunStore::CreateTemp(std::string* error,
                                               const std::string& parent) {
  std::string base = parent;
  if (base.empty()) {
    const char* tmpdir = getenv("TMPDIR");
    base = tmpdir != nullptr ? tmpdir : "/tmp";
  }
  std::string tmpl = base + "/" + kTempStorePrefix + "XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    SetError(error, "mkdtemp " + tmpl);
    return nullptr;
  }
  RunStoreOptions options;
  options.dir = buf.data();
  options.fsync = false;
  // No manifest: nothing ever recovers a temp store.
  std::unique_ptr<RunStore> store(new RunStore(std::move(options)));
  store->owns_dir_ = true;
  return store;
}

RunStore::~RunStore() {
  if (manifest_fd_ >= 0) ::close(manifest_fd_);
  // Temp stores are pure spill: nothing in them outlives the process.
  if (owns_dir_) RemoveFlatDir(options_.dir);
}

std::string RunStore::RunPath(uint64_t run_id) const {
  return options_.dir + "/run-" + std::to_string(run_id) + ".rf";
}

bool RunStore::AppendManifest(uint8_t type, uint64_t run_id, uint64_t arg,
                              bool sync, std::string* error) {
  if (owns_dir_) return true;  // A temp store keeps no manifest.
  uint8_t rec[kManifestRecordBytes] = {0};
  PutU32(kManifestMagic, rec);
  rec[4] = type;
  PutU64(run_id, rec + 8);
  PutU64(arg, rec + 16);
  PutU32(Crc32(rec, 24), rec + 24);
  if (!FaultedWrite(manifest_fd_, rec, sizeof(rec), options_.write_fault)) {
    SetError(error, "append manifest");
    return false;
  }
  if (sync && options_.fsync &&
      !(options_.write_fault != nullptr && options_.write_fault->is_dead())) {
    if (::fsync(manifest_fd_) != 0) {
      SetError(error, "fsync manifest");
      return false;
    }
  }
  return true;
}

std::unique_ptr<RunFileWriter> RunStore::BeginRunWithType(
    uint8_t type, uint32_t record_size, uint64_t* run_id,
    std::string* error) {
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_run_id_++;
    // Begin is durable before the run file exists, so a crash can leave a
    // begun run with no file — recovery treats that as an empty run.
    if (!AppendManifest(type, id, record_size, /*sync=*/true, error)) {
      return nullptr;
    }
  }
  std::unique_ptr<RunFileWriter> writer = RunFileWriter::Create(
      RunPath(id), record_size, id, options_.write_fault, error);
  if (writer != nullptr && run_id != nullptr) *run_id = id;
  return writer;
}

std::unique_ptr<RunFileWriter> RunStore::BeginRun(uint32_t record_size,
                                                  uint64_t* run_id,
                                                  std::string* error) {
  return BeginRunWithType(kBegin, record_size, run_id, error);
}

std::unique_ptr<RunFileWriter> RunStore::BeginHiddenRun(
    uint32_t record_size, uint64_t* run_id, std::string* error) {
  return BeginRunWithType(kBeginHidden, record_size, run_id, error);
}

bool RunStore::CommitCompaction(uint64_t new_id, uint64_t old_id,
                                std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The single atomic step: one intact record both promotes the staging
    // run and kills the old one, so no recovery can replay them twice.
    if (!AppendManifest(kCompactSwap, new_id, old_id, /*sync=*/true,
                        error)) {
      return false;
    }
  }
  if (::unlink(RunPath(old_id).c_str()) != 0 && errno != ENOENT) {
    SetError(error, "unlink " + RunPath(old_id));
    return false;
  }
  return true;
}

bool RunStore::CommitRun(uint64_t run_id, uint64_t records,
                         std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendManifest(kCommit, run_id, records, /*sync=*/true, error);
}

bool RunStore::AdvanceHead(uint64_t run_id, uint64_t head,
                           std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  // Not individually fsync'd: losing the newest advances only means
  // re-emitting an already-delivered suffix after recovery.
  return AppendManifest(kAdvance, run_id, head, /*sync=*/false, error);
}

bool RunStore::DeleteRun(uint64_t run_id, std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!AppendManifest(kDelete, run_id, 0, /*sync=*/true, error)) {
      return false;
    }
  }
  if (::unlink(RunPath(run_id).c_str()) != 0 && errno != ENOENT) {
    SetError(error, "unlink " + RunPath(run_id));
    return false;
  }
  return true;
}

bool RunStore::Recover(std::vector<RecoveredRun>* runs, RecoveryStats* stats,
                       std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  runs->clear();
  *stats = RecoveryStats{};

  // Temp stores a crashed process left here (a server's union tails):
  // their contents were never durable.
  if (DIR* d = ::opendir(options_.dir.c_str())) {
    std::vector<std::string> stale;
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name.rfind(kTempStorePrefix, 0) == 0) {
        stale.push_back(options_.dir + "/" + name);
      }
    }
    ::closedir(d);
    for (const std::string& dir : stale) RemoveFlatDir(dir);
    stats->temp_stores_removed = stale.size();
  }

  const std::string manifest_path = options_.dir + "/MANIFEST";
  std::vector<uint8_t> bytes;
  if (!ReadWholeFile(manifest_path, &bytes)) {
    SetError(error, "read " + manifest_path);
    return false;
  }

  struct State {
    uint32_t record_size = 0;
    uint64_t head = 0;
    bool committed = false;
    uint64_t committed_records = 0;
    bool deleted = false;
    bool hidden = false;  // Compaction staging run, never swapped in.
  };
  std::map<uint64_t, State> live;  // Ordered: recovery replays in id order.
  uint64_t max_id = 0;
  size_t intact = 0;
  while (intact + kManifestRecordBytes <= bytes.size()) {
    const uint8_t* rec = bytes.data() + intact;
    if (GetU32(rec) != kManifestMagic ||
        GetU32(rec + 24) != Crc32(rec, 24)) {
      break;  // Torn tail starts here.
    }
    const uint8_t type = rec[4];
    const uint64_t id = GetU64(rec + 8);
    const uint64_t arg = GetU64(rec + 16);
    max_id = std::max(max_id, id);
    switch (type) {
      case kBegin:
        live[id].record_size = static_cast<uint32_t>(arg);
        break;
      case kCommit:
        live[id].committed = true;
        live[id].committed_records = arg;
        break;
      case kAdvance:
        live[id].head = std::max(live[id].head, arg);
        break;
      case kDelete:
        live.erase(id);
        break;
      case kBeginHidden:
        live[id].record_size = static_cast<uint32_t>(arg);
        live[id].hidden = true;
        break;
      case kCompactSwap:
        live[id].hidden = false;  // Promote the staging run...
        live.erase(arg);          // ...and retire the one it replaced.
        break;
      default:
        break;  // Unknown type from a newer version: ignore the record.
    }
    intact += kManifestRecordBytes;
  }
  if (intact < bytes.size()) {
    stats->manifest_truncated = true;
    stats->truncated_bytes += bytes.size() - intact;
    // Physically cut the torn tail so the reopened append fd writes clean
    // records after it.
    ::close(manifest_fd_);
    if (::truncate(manifest_path.c_str(), static_cast<off_t>(intact)) != 0) {
      SetError(error, "truncate " + manifest_path);
      return false;
    }
    manifest_fd_ =
        ::open(manifest_path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (manifest_fd_ < 0) {
      SetError(error, "reopen " + manifest_path);
      return false;
    }
  }
  next_run_id_ = max_id + 1;

  for (const auto& [id, state] : live) {
    if (state.hidden) {
      // A compaction that crashed before its swap record: the old run is
      // still live and authoritative, so the staging file is garbage.
      AppendManifest(kDelete, id, 0, /*sync=*/false, nullptr);
      ::unlink(RunPath(id).c_str());
      continue;
    }
    RecoveredRun run;
    run.id = id;
    run.path = RunPath(id);
    run.committed = state.committed;
    run.committed_records = state.committed_records;
    struct stat st;
    const uint64_t size_before =
        ::stat(run.path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                           : 0;
    uint64_t intact_bytes = 0;
    std::string scan_error;
    if (!ScanRunFile(run.path, /*truncate=*/true, &run.records,
                     &intact_bytes, &run.record_size, nullptr,
                     &scan_error)) {
      // Begun but never written (crash between manifest append and file
      // creation), or an unreadable header: nothing durable in this run.
      ++stats->missing_runs;
      continue;
    }
    if (run.record_size == 0) run.record_size = state.record_size;
    if (size_before > intact_bytes) {
      ++stats->torn_runs;
      stats->truncated_bytes += size_before - intact_bytes;
    }
    run.head = std::min(state.head, run.records);
    if (run.head >= run.records) {
      // Everything durable was already emitted downstream; the file is
      // dead weight. Drop it now so restarts converge.
      AppendManifest(kDelete, id, 0, /*sync=*/false, nullptr);
      ::unlink(run.path.c_str());
      continue;
    }
    ++stats->live_runs;
    runs->push_back(std::move(run));
  }
  return true;
}

}  // namespace storage
}  // namespace impatience
