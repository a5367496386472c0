#include "base/fsutil.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace eq {
namespace fs {

namespace {

void
setErr(std::string *err, const std::string &what)
{
    if (err)
        *err = what + ": " + std::strerror(errno);
}

/** Directory part of @p path ("." when there is none). */
std::string
dirOf(const std::string &path)
{
    auto slash = path.rfind('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

} // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    // Table-driven IEEE CRC32, table built on first use.
    static uint32_t table[256];
    static bool built = false;
    if (!built) {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
        built = true;
    }
    uint32_t crc = seed ^ 0xffffffffu;
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::string
sealRecord(const std::string &payload)
{
    uint32_t crc = crc32(payload.data(), payload.size());
    std::string line = payload;
    line.pop_back(); // trailing '}'
    line += ",\"crc\":";
    line += std::to_string(crc);
    line += "}\n";
    return line;
}

bool
writeAll(int fd, const std::string &data, const std::string &what,
         std::string *err)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setErr(err, what);
            return false;
        }
        off += size_t(n);
    }
    return true;
}

bool
writeSynced(int fd, const std::string &data, const std::string &what,
            std::string *err)
{
    if (!writeAll(fd, data, "write " + what, err))
        return false;
    if (::fsync(fd) != 0) {
        setErr(err, "fsync " + what);
        return false;
    }
    return true;
}

bool
writeFileAtomic(const std::string &path, const std::string &data,
                std::string *err)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(long(::getpid()));
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        setErr(err, "open " + tmp);
        return false;
    }
    if (!writeSynced(fd, data, tmp, err)) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        setErr(err, "close " + tmp);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        setErr(err, "rename " + tmp + " -> " + path);
        ::unlink(tmp.c_str());
        return false;
    }
    // Persist the rename itself; failure here is not observable
    // non-atomicity, so best-effort only.
    int dfd = ::open(dirOf(path).c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

bool
readFile(const std::string &path, std::string *out, std::string *err)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        setErr(err, "open " + path);
        return false;
    }
    out->clear();
    char buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setErr(err, "read " + path);
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        out->append(buf, size_t(n));
    }
    ::close(fd);
    return true;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

} // namespace fs
} // namespace eq
