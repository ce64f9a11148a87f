#include "common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <string>
#include <thread>

#include <sys/utsname.h>

namespace perfbench {

double
Samples::quantile(double q) const
{
    if (v_.empty()) {
        return 0.0;
    }
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

namespace {

/** Shortest round-trip decimal form of @p v (all its digits). */
std::string
formatNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
readText(const char *path)
{
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Value of a "Key:   N ..." line of /proc/self/status. */
std::uint64_t
statusField(const char *key)
{
    const std::string text = readText("/proc/self/status");
    const std::size_t at = text.find(key);
    if (at == std::string::npos) {
        return 0;
    }
    return std::strtoull(text.c_str() + at + std::strlen(key), nullptr,
                         10);
}

volatile std::uint32_t g_probe_sink = 0;

/**
 * Bytewise table CRC-32 (IEEE, reflected). The probe keeps its own
 * copy so that a change to the repository's crc32() cannot move the
 * yardstick it is read against.
 */
std::uint32_t
probeCrc32(const unsigned char *data, std::size_t size)
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            }
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = ~0u;
    for (std::size_t i = 0; i < size; ++i) {
        crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
    }
    return ~crc;
}

} // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

bool
Report::check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                     what.c_str());
        correct_ = false;
    }
    return ok;
}

void
Report::print() const
{
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i > 0) {
            out += ", ";
        }
        out += "\"" + metrics_[i].first + "\": {\"value\": " +
               formatNumber(metrics_[i].second.first) +
               ", \"unit\": \"" + metrics_[i].second.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) {
        return false;
    }
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

double
peakRssMb()
{
    return static_cast<double>(statusField("VmHWM:")) / 1024.0;
}

std::uint64_t
processThreads()
{
    return statusField("Threads:");
}

std::uint64_t
openFds()
{
    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr) {
        return 0;
    }
    std::uint64_t n = 0;
    while (const dirent *e = ::readdir(dir)) {
        if (e->d_name[0] != '.') {
            ++n;
        }
    }
    ::closedir(dir);
    return n > 0 ? n - 1 : 0; // the directory stream's own fd
}

HostSpeed
probeHost()
{
    // 24 MB per copy is well past the last-level cache; 256 KB of CRC
    // input stays resident. Medians of fixed repetition counts.
    constexpr std::size_t kCopyBytes = 24u << 20;
    constexpr std::size_t kCrcBytes = 256u << 10;
    std::vector<unsigned char> src(kCopyBytes, 0x5a);
    std::vector<unsigned char> dst(kCopyBytes, 0);
    Samples copy_s;
    for (int i = 0; i < 7; ++i) {
        src[static_cast<std::size_t>(i)] = static_cast<unsigned char>(i);
        const auto t0 = Clock::now();
        std::memcpy(dst.data(), src.data(), kCopyBytes);
        copy_s.add(secBetween(t0, Clock::now()));
    }
    Samples crc_s;
    std::uint32_t acc = 0;
    for (int i = 0; i < 15; ++i) {
        const auto t0 = Clock::now();
        acc ^= probeCrc32(src.data() + i, kCrcBytes);
        crc_s.add(secBetween(t0, Clock::now()));
    }
    // Keep the copies and CRCs observable so neither is elided.
    g_probe_sink = acc ^ dst[3];
    HostSpeed h;
    h.memcpy_gb_per_s =
        static_cast<double>(kCopyBytes) / 1e9 / copy_s.median();
    h.crc_mb_per_s = static_cast<double>(kCrcBytes) / 1e6 / crc_s.median();
    return h;
}

void
printMachineStamp(const Args &args, const HostSpeed &before,
                  const HostSpeed &after)
{
    utsname u{};
    ::uname(&u);
    std::printf("perfbench machine: {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"kernel\": \"%s %s\", "
                "\"memcpy_gb_per_s\": [%.3f, %.3f], "
                "\"crc_mb_per_s\": [%.1f, %.1f]}\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, std::thread::hardware_concurrency(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, u.sysname,
                u.release, before.memcpy_gb_per_s, after.memcpy_gb_per_s,
                before.crc_mb_per_s, after.crc_mb_per_s);
}

medusa::serverless::ServingProfile
handMadeProfile(const std::string &name)
{
    medusa::serverless::ServingProfile p;
    p.model_name = name;
    p.strategy = medusa::llm::Strategy::kMedusa;
    p.loading_sec = 1.4;
    p.cold_start_sec = 1.4;
    p.batch_sizes = {1, 4, 8, 16};
    p.decode_step_sec = {0.012, 0.016, 0.022, 0.035};
    p.prefill_tokens = {128, 512, 2048};
    p.prefill_sec = {0.045, 0.12, 0.42};
    return p;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench
