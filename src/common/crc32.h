// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
// discipline shared by the wire protocol and the on-disk run-file format.
// One implementation so a frame checked on the wire and a block checked on
// replay disagree about nothing.
//
// Two kernels compute it, selected like the sort kernels (see
// common/cpu_features.h): a PCLMULQDQ carry-less-multiply fold at kAVX2
// and above when the CPU has pclmul and sse4.1, and a portable
// slicing-by-8 table loop otherwise. Both return identical values.

#ifndef IMPATIENCE_COMMON_CRC32_H_
#define IMPATIENCE_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

#include "common/cpu_features.h"

namespace impatience {

// CRC32 over `n` bytes, by the kernel for ActiveKernelLevel().
uint32_t Crc32(const uint8_t* data, size_t n);

// The same checksum by the kernel for `level`, for tests and benchmarks
// that compare levels. Safe at any level: the fold runs only when the CPU
// has the instructions, and degrades to the portable loop otherwise.
uint32_t Crc32(const uint8_t* data, size_t n, KernelLevel level);

}  // namespace impatience

#endif  // IMPATIENCE_COMMON_CRC32_H_
