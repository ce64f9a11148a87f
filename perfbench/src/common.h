/**
 * @file
 * Shared plumbing of the repository benchmark: command-line options,
 * sample statistics, the result line, process probes (peak RSS,
 * threads, fds), the host-speed probe that stamps every result, and
 * the inputs two workloads share.
 *
 * Every timing here is host wall-clock (std::chrono::steady_clock),
 * taken around calls into the medusa libraries' public entry points.
 * Nothing inside src/ is instrumented.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serverless/profile.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Parsed command line (see main.cc for the flags). */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /**
     * Negative check for the smoke test: corrupt one image payload
     * byte after setup, so the coldstart gate must fail.
     */
    bool corrupt_image = false;
    /** Directory for the files a run writes (images). */
    std::string work_dir = ".";
};

/** A growable sample set with interpolated quantiles. */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); }
    /** Linear-interpolated quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }

  private:
    std::vector<double> v_;
};

/**
 * A fixed host-speed probe: memcpy bandwidth over buffers larger than
 * the caches, and CRC32 throughput over a cache-resident buffer. It is
 * recorded next to the result for diagnosis, not as a metric: a run
 * that disagrees with its peers can be traced to a slow host phase.
 */
struct HostSpeed
{
    double memcpy_gb_per_s = 0;
    double crc_mb_per_s = 0;
};

/**
 * The run's result: every metric with its unit, operations attempted
 * and failed, and whether every correctness check held. print() emits
 * the one-line JSON object that ends the benchmark's stdout.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Record a check; a false @p ok marks the run incorrect. */
    bool check(bool ok, const std::string &what);
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(std::uint64_t n = 1) { failed_ += n; }
    bool correct() const { return correct_; }
    void print() const;

    /** Host speed right before and right after the timed window. */
    HostSpeed host_before;
    HostSpeed host_after;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
};

// ---- process probes (Linux /proc) -------------------------------------

/**
 * Reset the kernel's peak-RSS mark (VmHWM) to the current RSS, so a
 * later peakRssMb() covers only what runs after this call.
 */
bool resetPeakRss();
/** VmHWM of this process, in MB (2^20 bytes). */
double peakRssMb();
/** Threads of this process (the Threads: line of /proc/self/status). */
std::uint64_t processThreads();
/** Open file descriptors of this process. */
std::uint64_t openFds();

// ---- host stamp ---------------------------------------------------------

HostSpeed probeHost();

/** Print the machine stamp line (nproc, compiler, build, kernel, probes). */
void printMachineStamp(const Args &args, const HostSpeed &before,
                       const HostSpeed &after);

// ---- workload inputs -------------------------------------------------------

/**
 * The hand-made Medusa-like serving profile (§7.1 ballpark) of the
 * scale, chaos and serving studies. A fixed profile keeps the cluster
 * and serving workloads independent of restore speed.
 */
medusa::serverless::ServingProfile handMadeProfile(const std::string &name);

/** Deterministic 64-bit mix of a seed and a stream id (splitmix64). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

// ---- workloads -----------------------------------------------------------

void runColdstart(const Args &args, Report &report);
void runCluster(const Args &args, Report &report);
void runServe(const Args &args, Report &report, bool stream);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
