/**
 * @file
 * Small filesystem durability helpers shared by the sweep journal,
 * eqsweep's --csv output, and the daemon's --port-file: an
 * atomic whole-file write (temp file + fsync + rename, so a racing
 * reader can never observe a partial file), the IEEE CRC32 the
 * journal uses to detect torn or bit-flipped records, and the
 * append-only record-file primitives the sweep journal and result
 * cache share (CRC-sealed lines, whole writes, a synced header).
 */

#ifndef EQ_BASE_FSUTIL_HH
#define EQ_BASE_FSUTIL_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace eq {
namespace fs {

/** IEEE CRC32 (the zlib polynomial) over @p len bytes, continuing
 *  from @p seed (pass a previous return value to chain buffers). */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

/** Seal a record payload "{...}" into its line "{...,"crc":N}\n",
 *  N being the CRC32 of the payload bytes. */
std::string sealRecord(const std::string &payload);

/** Write all of @p data to @p fd, retrying EINTR and short writes (a
 *  record line on an O_APPEND fd lands in one write(2), so appenders
 *  never interleave). On failure @p err gets "@p what: <errno text>". */
bool writeAll(int fd, const std::string &data, const std::string &what,
              std::string *err = nullptr);

/** writeAll + fsync: how a record file lands its header before any
 *  record. Errors read "write @p what: ..." / "fsync @p what: ...". */
bool writeSynced(int fd, const std::string &data, const std::string &what,
                 std::string *err = nullptr);

/**
 * Write @p data to @p path atomically: the bytes land in a temp file
 * in the same directory, are fsync'd, and the temp file is rename(2)d
 * over @p path (then the directory is fsync'd best-effort). Readers
 * therefore see either the old file or the complete new one — never a
 * prefix. Returns false (with @p err) on any failure; the temp file
 * is cleaned up.
 */
bool writeFileAtomic(const std::string &path, const std::string &data,
                     std::string *err = nullptr);

/** Slurp @p path into @p out. Returns false (with @p err) on error. */
bool readFile(const std::string &path, std::string *out,
              std::string *err = nullptr);

/** True when @p path exists (any file type). */
bool fileExists(const std::string &path);

} // namespace fs
} // namespace eq

#endif // EQ_BASE_FSUTIL_HH
