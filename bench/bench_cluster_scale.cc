/**
 * @file
 * Cluster-scale scheduling study (DESIGN.md §15): replay a seeded
 * million-request synthetic trace (diurnal arrivals, heavy-tail
 * lengths, Zipf multi-model mix) over thousands of serving instances
 * under the baseline autoscaler, the keep-alive warm pool and
 * artifact-affinity routing. Each policy row reports engine events/s,
 * cold start P50/P99, cold-start count, GPU-seconds, and the policy
 * counters (cold-pool hits, keep-alive GPU-seconds, node
 * warm/fetch/eviction traffic).
 *
 * --json emits one machine-readable object (scripts/bench.sh captures
 * it as BENCH_sim.json; tools/trace_check --sim validates it).
 * --requests / --seed resize the study (check.sh runs a truncated
 * smoke).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "serverless/cluster.h"
#include "workload/synthetic.h"

using namespace medusa;

namespace {

/**
 * A hand-made Medusa-like serving profile: ~1.4 s loading (the §7.1
 * A100 ballpark), vLLM-shaped step latencies. Hand-made so the bench
 * needs no artifact materialization and starts instantly.
 */
serverless::ServingProfile
scaleProfile()
{
    serverless::ServingProfile p;
    p.model_name = "scale-sim";
    p.strategy = llm::Strategy::kMedusa;
    p.loading_sec = 1.4;
    p.cold_start_sec = 1.4;
    p.batch_sizes = {1, 4, 8, 16};
    p.decode_step_sec = {0.012, 0.016, 0.022, 0.035};
    p.prefill_tokens = {128, 512, 2048};
    p.prefill_sec = {0.045, 0.12, 0.42};
    return p;
}

/** The study's trace; truncation by max_requests. */
workload::SyntheticTraceOptions
traceOptions(u64 seed, u64 requests, u32 num_models)
{
    workload::SyntheticTraceOptions o;
    o.seed = seed;
    // ~10^4 rps for ~110 s reaches 10^6 requests; max_requests pins
    // the count exactly.
    o.requests_per_sec = 10000;
    o.duration_sec = 1e9;
    o.max_requests = requests;
    o.diurnal_period_sec = 60;
    o.diurnal_amplitude = 0.6;
    // Short-chat shape: enough decode steps to load instances without
    // blowing up the event count per request.
    o.mean_output_tokens = 64;
    o.max_output_tokens = 512;
    o.num_models = num_models;
    return o;
}

/** Cluster sizing shared by every run: thousands of live instances. */
serverless::ClusterOptions
clusterOptions()
{
    serverless::ClusterOptions o;
    o.num_gpus = 4096;
    // Small per-instance batch cap -> the load spreads over thousands
    // of instances (the scheduling regime this study is about).
    o.max_seqs_per_instance = 4;
    o.idle_timeout_sec = 5.0;
    return o;
}

struct RunStats
{
    serverless::TraceMetrics metrics;
    f64 wall_sec = 0;
    f64 events_per_sec = 0;
};

RunStats
timedRun(const serverless::ClusterOptions &opts,
         const serverless::ServingProfile &profile,
         const std::vector<workload::Request> &trace)
{
    RunStats r;
    serverless::ClusterOptions copts = opts;
    copts.profile = &profile;
    const auto t0 = std::chrono::steady_clock::now();
    r.metrics = serverless::simulateCluster(copts, trace);
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_sec =
        std::chrono::duration<f64>(t1 - t0).count();
    r.events_per_sec =
        static_cast<f64>(r.metrics.sim_events) / r.wall_sec;
    return r;
}

struct PolicyRow
{
    const char *name = "";
    RunStats run;
};

u64
parseCount(const std::string &arg, std::size_t prefix)
{
    return std::strtoull(arg.c_str() + prefix, nullptr, 10);
}

unsigned long long
ull(u64 v)
{
    return static_cast<unsigned long long>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    u64 requests = 1000000;
    u64 seed = 20250808;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--requests=", 0) == 0) {
            requests = parseCount(arg, 11);
        } else if (arg.rfind("--seed=", 0) == 0) {
            seed = parseCount(arg, 7);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json] [--requests=N] [--seed=N]\n",
                         argv[0]);
            return 2;
        }
    }

    const serverless::ServingProfile profile = scaleProfile();
    const u32 kNumModels = 8;
    const auto policy_trace = workload::generateSyntheticTrace(
        traceOptions(seed, requests, kNumModels));

    std::vector<PolicyRow> rows;
    {
        serverless::ClusterOptions o = clusterOptions();
        o.policy = serverless::SchedulerPolicy::kBaseline;
        o.num_models = kNumModels;
        o.gpus_per_node = 8;
        o.node_artifact_slots = 2;
        o.node_artifact_miss_sec = 8.0; // remote checkpoint fetch
        rows.push_back({"baseline", timedRun(o, profile, policy_trace)});

        o.policy = serverless::SchedulerPolicy::kKeepAlive;
        o.keep_alive_instances = 256;
        o.keep_alive_idle_sec = 30.0;
        rows.push_back(
            {"keep_alive", timedRun(o, profile, policy_trace)});

        o.policy = serverless::SchedulerPolicy::kAffinity;
        o.keep_alive_instances = 0;
        o.keep_alive_idle_sec = -1.0;
        rows.push_back({"affinity", timedRun(o, profile, policy_trace)});
    }

    if (json) {
        std::printf("{\n");
        std::printf("  \"schema_version\": 1,\n");
        std::printf("  \"requests\": %llu,\n", ull(requests));
            std::printf("  \"seed\": %llu,\n", ull(seed));
        std::printf("  \"policies\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const PolicyRow &r = rows[i];
            const serverless::TraceMetrics &m = r.run.metrics;
            std::printf(
                "    {\"policy\": \"%s\", \"completed\": %llu, "
                "\"events\": %llu, \"wall_sec\": %.4f, "
                "\"events_per_sec\": %.0f, "
                "\"peak_live_instances\": %llu, "
                "\"cold_starts\": %llu, "
                "\"cold_start_p50_sec\": %.4f, "
                "\"cold_start_p99_sec\": %.4f, "
                "\"ttft_p50_sec\": %.4f, \"ttft_p99_sec\": %.4f, "
                "\"gpu_seconds\": %.1f, "
                "\"cold_pool_hits\": %llu, "
                "\"keep_alive_gpu_seconds\": %.1f, "
                "\"node_warm_launches\": %llu, "
                "\"node_artifact_fetches\": %llu, "
                "\"affinity_evictions\": %llu}%s\n",
                r.name, ull(m.completed), ull(m.sim_events),
                r.run.wall_sec, r.run.events_per_sec,
                ull(m.peak_live_instances), ull(m.cold_starts),
                m.launch_sec.p50(), m.launch_sec.p99(),
                m.ttft_sec.p50(), m.ttft_sec.p99(), m.gpu_seconds,
                ull(m.cold_pool_hits), m.keep_alive_gpu_seconds,
                ull(m.node_warm_launches), ull(m.node_artifact_fetches),
                ull(m.affinity_evictions),
                i + 1 < rows.size() ? "," : "");
        }
        std::printf("  ]\n}\n");
    } else {
        std::printf("=== cluster scale: %llu requests, %u models, "
                    "%u GPUs ===\n\n",
                    ull(requests), kNumModels,
                    clusterOptions().num_gpus);
        std::printf("--- scheduler policies ---\n");
        std::printf("%-10s %9s %8s %7s %10s %10s %10s %12s %9s\n",
                    "policy", "events", "wall(s)", "peak", "colds",
                    "p50 cold", "p99 cold", "gpu-sec", "p99 ttft");
        for (const PolicyRow &r : rows) {
            const serverless::TraceMetrics &m = r.run.metrics;
            std::printf("%-10s %9llu %8.3f %7llu %10llu %10.3f "
                        "%10.3f %12.0f %9.3f\n",
                        r.name, ull(m.sim_events), r.run.wall_sec,
                        ull(m.peak_live_instances), ull(m.cold_starts),
                        m.launch_sec.p50(), m.launch_sec.p99(),
                        m.gpu_seconds, m.ttft_sec.p99());
        }
        std::printf("\npolicy counters:\n");
        for (const PolicyRow &r : rows) {
            const serverless::TraceMetrics &m = r.run.metrics;
            std::printf("  %-10s pool_hits=%llu keep_alive_gpu_sec=%.0f "
                        "node_warm=%llu node_fetch=%llu evict=%llu\n",
                        r.name, ull(m.cold_pool_hits),
                        m.keep_alive_gpu_seconds,
                        ull(m.node_warm_launches),
                        ull(m.node_artifact_fetches),
                        ull(m.affinity_evictions));
        }
    }
    return 0;
}
