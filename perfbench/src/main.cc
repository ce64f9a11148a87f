/**
 * @file
 * perfbench: the repository benchmark's binary.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--corrupt-image]
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   coldstart     v6 image open + MedusaEngine::coldStartFromImage
 *   cluster       one simulateCluster replay of a 10^6-request trace
 *   serve         serve::Server, one keep-alive connection, completions
 *   serve_stream  serve::Server, one connection per streamed chat call
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 reports the
 * per-layer metrics, timed around public calls from this directory.
 * The last stdout line is the result object; the exit code is 0 only
 * when every correctness check held.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"

extern char **environ;

namespace {

/**
 * The fault and chaos layers arm themselves from these variables
 * (common/fault.cc, serverless/chaos.cc). A run under any of them
 * would measure a different program, so the benchmark refuses.
 */
bool
faultEnvironmentSet()
{
    bool set = false;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "MEDUSA_FAULT_", 13) == 0 ||
            std::strncmp(*e, "MEDUSA_CHAOS_", 13) == 0) {
            std::fprintf(stderr, "perfbench: refusing to run with %s\n",
                         *e);
            set = true;
        }
    }
    return set;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "coldstart|cluster|serve|serve_stream --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--corrupt-image]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        if (flag == "--corrupt-image") {
            args.corrupt_image = true;
        } else if (!has_value) {
            return usage();
        } else if (flag == "--workload") {
            args.workload = argv[++i];
        } else if (flag == "--seed") {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (flag == "--trace") {
            args.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (flag == "--work-dir") {
            args.work_dir = argv[++i];
        } else {
            return usage();
        }
    }
    if (args.seconds <= 0) {
        return usage();
    }
    if (faultEnvironmentSet()) {
        return 3;
    }

    perfbench::Report report;
    if (args.workload == "coldstart") {
        perfbench::runColdstart(args, report);
    } else if (args.workload == "cluster") {
        perfbench::runCluster(args, report);
    } else if (args.workload == "serve") {
        perfbench::runServe(args, report, /*stream=*/false);
    } else if (args.workload == "serve_stream") {
        perfbench::runServe(args, report, /*stream=*/true);
    } else {
        return usage();
    }
    perfbench::printMachineStamp(args, report.host_before,
                                 report.host_after);
    report.print();
    return report.correct() ? 0 : 1;
}
