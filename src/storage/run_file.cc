#include "storage/run_file.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>

#include "common/crc32.h"

namespace impatience {
namespace storage {

namespace {

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

}  // namespace

// A dead gate swallows the bytes; a gate whose budget is crossed applies a
// prefix and then goes dead — that is the torn write the recovery scan
// must detect. In error mode the same prefix lands and the write reports
// failure, as does every later one. The budget is consumed with a CAS
// loop so concurrent writers (flusher threads plus the manifest writer)
// debit it exactly: at most one write crosses the boundary and is applied
// partially.
bool FaultedWrite(int fd, const uint8_t* data, size_t n, WriteFault* fault) {
  bool fail = false;  // Error mode and this write crosses the budget.
  if (fault != nullptr) {
    // The budget first: its acquire load makes the mode WriteFault::Set
    // stored with it visible.
    int64_t budget = fault->budget.load(std::memory_order_acquire);
    const bool error = fault->error.load(std::memory_order_relaxed);
    if (fault->dead.load(std::memory_order_relaxed)) return !error;
    while (budget >= 0) {
      const size_t allowed = std::min<size_t>(n, static_cast<size_t>(budget));
      if (fault->budget.compare_exchange_weak(
              budget, budget - static_cast<int64_t>(allowed),
              std::memory_order_acquire, std::memory_order_acquire)) {
        if (allowed < n) {
          fault->dead.store(true, std::memory_order_relaxed);
          fail = error;
        }
        n = allowed;
        break;
      }
      if (fault->dead.load(std::memory_order_relaxed)) return !error;
    }
  }
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return !fail;
}

namespace {

bool ReadExact(int fd, uint64_t offset, uint8_t* out, size_t n) {
  while (n > 0) {
    const ssize_t r = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // Short file.
    out += r;
    offset += static_cast<uint64_t>(r);
    n -= static_cast<size_t>(r);
  }
  return true;
}

uint64_t FileSizeOf(int fd) {
  struct stat st;
  if (fstat(fd, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

std::unique_ptr<RunFileWriter> RunFileWriter::Create(const std::string& path,
                                                     uint32_t record_size,
                                                     uint64_t run_id,
                                                     WriteFault* fault,
                                                     std::string* error) {
  // O_RDWR (not O_WRONLY): spill cursors pread blocks back from the same
  // descriptor while the run is still being appended to.
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    SetError(error, "open " + path);
    return nullptr;
  }
  uint8_t header[kRunFileHeaderBytes] = {0};
  PutU32(kRunFileMagic, header);
  PutU32(kRunFormatVersion, header + 4);
  PutU32(record_size, header + 8);
  PutU64(run_id, header + 16);
  PutU32(Crc32(header, 24), header + 24);
  if (!FaultedWrite(fd, header, sizeof(header), fault)) {
    SetError(error, "write header " + path);
    ::close(fd);
    return nullptr;
  }
  std::unique_ptr<RunFileWriter> writer(
      new RunFileWriter(fd, record_size, fault));
  writer->bytes_written_ = kRunFileHeaderBytes;
  return writer;
}

RunFileWriter::~RunFileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

bool RunFileWriter::AppendBlock(const uint8_t* payload, uint32_t record_count,
                                std::string* error) {
  const size_t payload_len =
      static_cast<size_t>(record_count) * record_size_;
  frame_.resize(kRunBlockHeaderBytes + payload_len);
  PutU32(kRunBlockMagic, frame_.data());
  PutU32(record_count, frame_.data() + 4);
  PutU32(Crc32(payload, payload_len), frame_.data() + 8);
  PutU32(0, frame_.data() + 12);  // reserved
  memcpy(frame_.data() + kRunBlockHeaderBytes, payload, payload_len);
  // One write per block: a kill mid-write tears at most this block, never
  // an earlier one.
  if (!FaultedWrite(fd_, frame_.data(), frame_.size(), fault_)) {
    SetError(error, "write block");
    return false;
  }
  bytes_written_ += frame_.size();
  return true;
}

bool RunFileWriter::Sync(std::string* error) {
  if (fault_ != nullptr && fault_->is_dead()) return true;
  if (::fsync(fd_) != 0) {
    SetError(error, "fsync run file");
    return false;
  }
  return true;
}

BlockReadStatus ReadBlockAt(int fd, uint64_t offset, uint32_t record_size,
                            std::vector<uint8_t>* payload,
                            uint32_t* record_count, uint64_t* next_offset) {
  const uint64_t file_size = FileSizeOf(fd);
  if (offset >= file_size) return BlockReadStatus::kEof;
  if (file_size - offset < kRunBlockHeaderBytes) return BlockReadStatus::kTorn;
  uint8_t header[kRunBlockHeaderBytes];
  if (!ReadExact(fd, offset, header, sizeof(header))) {
    return BlockReadStatus::kTorn;
  }
  if (GetU32(header) != kRunBlockMagic) return BlockReadStatus::kTorn;
  const uint32_t count = GetU32(header + 4);
  const uint32_t expect_crc = GetU32(header + 8);
  if (count == 0) return BlockReadStatus::kTorn;
  const uint64_t payload_len = static_cast<uint64_t>(count) * record_size;
  if (payload_len > kMaxBlockPayloadBytes) return BlockReadStatus::kTorn;
  if (file_size - offset - kRunBlockHeaderBytes < payload_len) {
    return BlockReadStatus::kTorn;
  }
  payload->resize(payload_len);
  if (!ReadExact(fd, offset + kRunBlockHeaderBytes, payload->data(),
                 payload_len)) {
    return BlockReadStatus::kTorn;
  }
  if (Crc32(payload->data(), payload_len) != expect_crc) {
    return BlockReadStatus::kTorn;
  }
  *record_count = count;
  if (next_offset != nullptr) {
    *next_offset = offset + kRunBlockHeaderBytes + payload_len;
  }
  return BlockReadStatus::kOk;
}

std::unique_ptr<RunFileReader> RunFileReader::Open(const std::string& path,
                                                   std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, "open " + path);
    return nullptr;
  }
  uint8_t header[kRunFileHeaderBytes];
  if (!ReadExact(fd, 0, header, sizeof(header)) ||
      GetU32(header) != kRunFileMagic ||
      GetU32(header + 4) != kRunFormatVersion ||
      GetU32(header + 24) != Crc32(header, 24)) {
    if (error != nullptr) *error = "bad run file header: " + path;
    ::close(fd);
    return nullptr;
  }
  const uint32_t record_size = GetU32(header + 8);
  if (record_size == 0) {
    if (error != nullptr) *error = "zero record size: " + path;
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<RunFileReader>(
      new RunFileReader(fd, record_size, GetU64(header + 16)));
}

RunFileReader::~RunFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

BlockReadStatus RunFileReader::NextBlock(std::vector<uint8_t>* payload,
                                         uint32_t* record_count) {
  uint64_t next = 0;
  const BlockReadStatus status =
      ReadBlockAt(fd_, offset_, record_size_, payload, record_count, &next);
  if (status == BlockReadStatus::kOk) offset_ = next;
  return status;
}

bool ScanRunFile(const std::string& path, bool truncate,
                 uint64_t* intact_records, uint64_t* intact_bytes,
                 uint32_t* record_size, uint64_t* run_id,
                 std::string* error) {
  *intact_records = 0;
  *intact_bytes = 0;
  std::unique_ptr<RunFileReader> reader = RunFileReader::Open(path, error);
  if (reader == nullptr) return false;
  if (record_size != nullptr) *record_size = reader->record_size();
  if (run_id != nullptr) *run_id = reader->run_id();
  std::vector<uint8_t> payload;
  uint32_t count = 0;
  while (reader->NextBlock(&payload, &count) == BlockReadStatus::kOk) {
    *intact_records += count;
  }
  *intact_bytes = reader->offset();
  reader.reset();  // Close the read fd before truncating.
  if (truncate) {
    if (::truncate(path.c_str(), static_cast<off_t>(*intact_bytes)) != 0) {
      SetError(error, "truncate " + path);
      return false;
    }
  }
  return true;
}

}  // namespace storage
}  // namespace impatience
