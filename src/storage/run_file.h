// On-disk run-file format: CRC32-framed record blocks.
//
// A run file persists one sorted run as an append-only sequence of
// fixed-layout records, framed in blocks that each carry their own CRC —
// the same checksum discipline as the wire protocol (common/crc32), so a
// torn or flipped byte is detected at replay time, never silently sorted.
//
//   file header (32 bytes)
//     0   4  magic        0x46525049 ("IPRF", little-endian)
//     4   4  version      1
//     8   4  record_size  bytes per record
//     12  4  reserved     0
//     16  8  run_id
//     24  4  header_crc   CRC32 of bytes [0, 24)
//     28  4  reserved     0
//
//   block (16-byte header + payload), repeated to EOF
//     0   4  magic        0x4B425049 ("IPBK")
//     4   4  count        records in this block (> 0)
//     8   4  payload_crc  CRC32 of the payload bytes
//     12  4  reserved     0
//     16  ..., count * record_size payload bytes
//
// Header fields are encoded byte-by-byte little-endian; record payloads are
// raw host memory (memcpy of trivially-copyable element types). Run files
// are spill/WAL artifacts local to one host — they are not a portable
// interchange format, and record_size pins the layout a reader must match.
//
// Crash model: the file is append-only and a block is valid only if its
// header parses and its payload CRC matches. Recovery scans from the start
// and truncates at the first invalid byte — the longest intact prefix of
// blocks is exactly the durable content. WriteFault injects scripted
// mid-write kills for the fault-harness tests (writes stop reaching the
// file after a seeded byte budget, simulating process death) and scripted
// write errors (a full or failing device).

#ifndef IMPATIENCE_STORAGE_RUN_FILE_H_
#define IMPATIENCE_STORAGE_RUN_FILE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace impatience {
namespace storage {

inline constexpr uint32_t kRunFileMagic = 0x46525049u;   // "IPRF"
inline constexpr uint32_t kRunBlockMagic = 0x4B425049u;  // "IPBK"
inline constexpr uint32_t kRunFormatVersion = 1;
inline constexpr size_t kRunFileHeaderBytes = 32;
inline constexpr size_t kRunBlockHeaderBytes = 16;
// Upper bound on one block's payload; a larger count in a header is treated
// as corruption (it would otherwise make recovery read unbounded garbage).
inline constexpr size_t kMaxBlockPayloadBytes = 8u << 20;

// Scripted crash injection for the storage fault tests: every write
// descends through this gate, and once `budget` bytes have been written the
// gate goes dead — the write that crosses the boundary is applied only
// partially (a torn block) and every later write (and fsync) silently
// vanishes, exactly as if the process had been killed at that byte.
// ArmError scripts a write error instead: the crossing write applies its
// prefix and then fails, as does every later write — what a process sees
// when its spill device fills up (EFBIG/ENOSPC after a short write).
// budget < 0 disables the fault (the default).
struct WriteFault {
  std::atomic<int64_t> budget{-1};
  std::atomic<bool> dead{false};
  std::atomic<bool> error{false};  // Past the budget: fail, don't vanish.

  void Arm(int64_t bytes) { Set(bytes, /*fail=*/false); }
  void ArmError(int64_t bytes) { Set(bytes, /*fail=*/true); }
  // The mode is stored before the budget, whose release store publishes
  // it: a writer on another thread that sees the new budget also sees its
  // mode. Storing the budget first let a concurrent write cross it in the
  // old mode, so an armed error could silently drop a block instead.
  void Set(int64_t bytes, bool fail) {
    error.store(fail, std::memory_order_relaxed);
    dead.store(false, std::memory_order_relaxed);
    budget.store(bytes, std::memory_order_release);
  }
  // True once a kill fired: later writes and fsyncs silently vanish.
  bool is_dead() const {
    return dead.load(std::memory_order_relaxed) &&
           !error.load(std::memory_order_relaxed);
  }
};

// Appends CRC-framed blocks to one run file. Not thread-safe; one writer
// per run. The fd is opened read-write so block readers (spill cursors)
// can pread from the same descriptor while the run is still open.
class RunFileWriter {
 public:
  // Creates `path` (must not exist) and writes the file header.
  static std::unique_ptr<RunFileWriter> Create(const std::string& path,
                                               uint32_t record_size,
                                               uint64_t run_id,
                                               WriteFault* fault,
                                               std::string* error);
  ~RunFileWriter();

  RunFileWriter(const RunFileWriter&) = delete;
  RunFileWriter& operator=(const RunFileWriter&) = delete;

  // Appends one block of `record_count` records (payload length
  // record_count * record_size). Returns false on a real I/O error; a
  // WriteFault kill is not an error (the caller behaves as if the write
  // happened — the process it models would never observe the loss).
  bool AppendBlock(const uint8_t* payload, uint32_t record_count,
                   std::string* error);

  bool Sync(std::string* error);

  // Logical bytes appended (header + every block), independent of faults.
  uint64_t bytes_written() const { return bytes_written_; }
  // Logical file offset where the next block will start.
  uint64_t next_block_offset() const { return bytes_written_; }
  uint32_t record_size() const { return record_size_; }
  int fd() const { return fd_; }

 private:
  RunFileWriter(int fd, uint32_t record_size, WriteFault* fault)
      : fd_(fd), record_size_(record_size), fault_(fault) {}

  int fd_ = -1;
  uint32_t record_size_ = 0;
  uint64_t bytes_written_ = 0;
  WriteFault* fault_ = nullptr;
  std::vector<uint8_t> frame_;  // Reused header+payload staging buffer.
};

// Writes `n` bytes at the fd's current position through the fault gate
// (scripted crash injection; see WriteFault). Returns false only on a real
// or scripted I/O error. Shared by run files and the manifest so one armed
// fault cuts the whole store's write stream at a single byte position.
bool FaultedWrite(int fd, const uint8_t* data, size_t n, WriteFault* fault);

enum class BlockReadStatus : uint8_t {
  kOk = 0,
  kEof = 1,   // Clean end: no bytes at `offset`.
  kTorn = 2,  // Partial header/payload, bad magic, bad count, or bad CRC.
};

// Reads and validates the block starting at `offset`. On kOk, `payload`
// holds the block's record bytes, `record_count` its count, and
// `next_offset` the offset one past the block.
BlockReadStatus ReadBlockAt(int fd, uint64_t offset, uint32_t record_size,
                            std::vector<uint8_t>* payload,
                            uint32_t* record_count, uint64_t* next_offset);

// Sequential reader over a whole run file: validates the file header on
// Open, then yields blocks until EOF or the first torn block.
class RunFileReader {
 public:
  static std::unique_ptr<RunFileReader> Open(const std::string& path,
                                             std::string* error);
  ~RunFileReader();

  RunFileReader(const RunFileReader&) = delete;
  RunFileReader& operator=(const RunFileReader&) = delete;

  uint32_t record_size() const { return record_size_; }
  uint64_t run_id() const { return run_id_; }
  // Offset of the next unread block (== the intact prefix length once
  // NextBlock has returned kEof/kTorn).
  uint64_t offset() const { return offset_; }

  BlockReadStatus NextBlock(std::vector<uint8_t>* payload,
                            uint32_t* record_count);

 private:
  RunFileReader(int fd, uint32_t record_size, uint64_t run_id)
      : fd_(fd), record_size_(record_size), run_id_(run_id) {}

  int fd_ = -1;
  uint32_t record_size_ = 0;
  uint64_t run_id_ = 0;
  uint64_t offset_ = kRunFileHeaderBytes;
};

// Recovery scan: walks `path`'s blocks and reports the longest intact
// prefix. With `truncate`, the file is physically cut back to that prefix
// (torn tails removed, so later appends can never straddle garbage).
// Returns false only when the file cannot be opened or its file header is
// itself invalid (`intact_records` is 0 then).
bool ScanRunFile(const std::string& path, bool truncate,
                 uint64_t* intact_records, uint64_t* intact_bytes,
                 uint32_t* record_size, uint64_t* run_id,
                 std::string* error);

}  // namespace storage
}  // namespace impatience

#endif  // IMPATIENCE_STORAGE_RUN_FILE_H_
