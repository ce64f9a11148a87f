/**
 * @file
 * cluster: one simulateCluster replay of a seeded 10^6-request
 * synthetic trace on the default engine, single-threaded, repeated
 * until the window is spent. The trace is diurnal, with 8 Zipf models
 * and TTFT deadlines; the cluster is 4096 GPUs on a hand-made §7.1
 * profile with the affinity policy, the SLO policy and the moderate
 * chaos plan of the chaos study (bench/bench_chaos.cc, with its seed),
 * all passed explicitly. A hand-made profile keeps the workload independent of
 * restore speed.
 *
 * The whole window is scheduler plus event engine: dispatch, node
 * residency LRU, cancel, requeue and shed paths, with no restore,
 * socket or JSON work.
 *
 * Checked: request conservation (completed + shed + failed == trace
 * size) on every replay, identical TraceMetrics across replays, and
 * in the traced run, identical TraceMetrics between the untraced
 * simulateCluster replay and the traced serve::Scheduler replica.
 *
 * latency_* and ttft_* on this workload are the simulated (virtual)
 * per-request end-to-end latency and TTFT the replay computes: what a
 * user of the simulator reads off it. They are fixed by the seed, so a
 * change that moves them changed the simulation, not its speed.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <malloc.h>

#include "common.h"
#include "serve/scheduler.h"
#include "serverless/chaos.h"
#include "serverless/cluster.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

using namespace medusa;

constexpr u64 kRequests = 1000000;
/** Trace prefix replayed once per setup, to warm the allocator. */
constexpr u64 kWarmupRequests = 100000;
/** Setup repetitions; setup_s is their median. */
constexpr int kSetupReps = 3;
/**
 * The chaos plan is part of the workload, not a seeded input: its few
 * dozen crash and outage events decide how many requests are shed and
 * the TTFT tail, so a per-seed plan moved the replay's cost and its
 * TTFT p99 by a quarter from seed to seed. The chaos study's own seed
 * keeps both fixed while --seed varies the trace.
 */
constexpr u64 kChaosSeed = 20250808;

workload::SyntheticTraceOptions
traceOptions(u64 seed, u64 requests)
{
    workload::SyntheticTraceOptions o;
    o.seed = seed;
    o.requests_per_sec = 2000;
    o.duration_sec = 1e9;
    o.max_requests = requests;
    o.diurnal_period_sec = 60;
    o.diurnal_amplitude = 0.6;
    o.mean_output_tokens = 64;
    o.max_output_tokens = 512;
    o.num_models = 8;
    o.slo_ttft_sec = 15.0;
    return o;
}

/** The chaos study's moderate plan: mtbf halved from its light plan. */
serverless::ChaosPlan
moderateChaos(u64 seed)
{
    serverless::ChaosPlan c;
    c.seed = seed;
    c.node_mtbf_sec = 20.0;
    c.node_mttr_sec = 5.0;
    c.inst_mtbf_sec = 5.0;
    c.store_mtbf_sec = 30.0;
    c.store_mttr_sec = 3.0;
    c.gray_mtbf_sec = 22.5;
    c.gray_mttr_sec = 8.0;
    c.gray_slowdown = 4.0;
    return c;
}

serverless::ClusterOptions
clusterOptions(const serverless::ServingProfile &p,
               const serverless::ChaosPlan &chaos)
{
    serverless::ClusterOptions o;
    o.profile = &p;
    o.policy = serverless::SchedulerPolicy::kAffinity;
    o.num_gpus = 4096;
    o.max_seqs_per_instance = 4;
    o.idle_timeout_sec = 5.0;
    o.num_models = 8;
    o.gpus_per_node = 8;
    o.node_artifact_slots = 2;
    o.node_artifact_miss_sec = 8.0;
    o.vanilla_cold_start_sec = 10.0;
    o.slo.default_ttft_sec = 15.0;
    o.slo.admission_control = true;
    o.slo.shed_on_deadline = true;
    o.slo.max_retries = 2;
    o.slo.retry_backoff_sec = 0.05;
    o.slo.degrade_to_vanilla = true;
    o.chaos = &chaos;
    return o;
}

bool
conserved(const serverless::TraceMetrics &m, u64 n)
{
    return m.completed + m.shed_admission + m.shed_deadline +
               m.failed_requests ==
           n;
}

bool
sameMetrics(const serverless::TraceMetrics &a,
            const serverless::TraceMetrics &b)
{
    return a.completed == b.completed &&
           a.shed_admission == b.shed_admission &&
           a.shed_deadline == b.shed_deadline &&
           a.failed_requests == b.failed_requests &&
           a.requeued_requests == b.requeued_requests &&
           a.instance_crashes == b.instance_crashes &&
           a.node_crashes == b.node_crashes &&
           a.deadline_met == b.deadline_met &&
           a.cold_starts == b.cold_starts &&
           a.instances_launched == b.instances_launched &&
           a.peak_live_instances == b.peak_live_instances &&
           a.node_artifact_fetches == b.node_artifact_fetches &&
           a.affinity_evictions == b.affinity_evictions &&
           a.sim_events == b.sim_events &&
           a.ttft_sec.samples() == b.ttft_sec.samples() &&
           a.e2e_sec.samples() == b.e2e_sec.samples() &&
           a.gpu_seconds == b.gpu_seconds &&
           a.makespan_sec == b.makespan_sec;
}

/** Per-call-kind timers of the traced serve::Scheduler replica. */
struct SchedulerTimes
{
    double submit_s = 0, step_s = 0, advance_s = 0, finish_s = 0;
    u64 submits = 0, steps = 0;
};

/**
 * Whole replays fill a budget: another one runs while the window would
 * end nearer the budget with it than without it.
 */
bool
anotherReplay(u64 done, double spent, double budget)
{
    return done == 0 ||
           spent + spent / static_cast<double>(done) / 2 < budget;
}

/** sim.cc's arrival-merge loop, with every call timed by kind. */
serverless::TraceMetrics
tracedReplay(const serverless::ClusterOptions &opts,
             const std::vector<workload::Request> &trace,
             SchedulerTimes &t)
{
    const double horizon = trace.empty() ? 0 : trace.back().arrival_sec;
    serve::Scheduler sched(opts, /*hooks=*/nullptr, horizon);
    std::size_t next = 0;
    for (;;) {
        if (next < trace.size() &&
            (sched.idle() || trace[next].arrival_sec <= sched.peekTime())) {
            const auto a0 = Clock::now();
            sched.advanceTo(trace[next].arrival_sec);
            const auto a1 = Clock::now();
            sched.submit(trace[next]);
            const auto a2 = Clock::now();
            t.advance_s += secBetween(a0, a1);
            t.submit_s += secBetween(a1, a2);
            ++t.submits;
            ++next;
            continue;
        }
        if (sched.idle()) {
            break;
        }
        const auto s0 = Clock::now();
        sched.step();
        t.step_s += secBetween(s0, Clock::now());
        ++t.steps;
    }
    const auto f0 = Clock::now();
    serverless::TraceMetrics m = sched.finish();
    t.finish_s += secBetween(f0, Clock::now());
    return m;
}

} // namespace

void
runCluster(const Args &args, Report &report)
{
    const serverless::ServingProfile prof =
        handMadeProfile("perfbench-cluster");
    const serverless::ChaosPlan chaos = moderateChaos(kChaosSeed);
    const serverless::ClusterOptions opts = clusterOptions(prof, chaos);

    std::vector<workload::Request> trace;
    Samples setup_s, generate_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto s0 = Clock::now();
        trace = {}; // free the previous repetition's trace first
        trace = workload::generateSyntheticTrace(
            traceOptions(mixSeed(args.seed, 3), kRequests));
        generate_s.add(secBetween(s0, Clock::now()));
        const std::vector<workload::Request> prefix(
            trace.begin(),
            trace.begin() + std::min<std::size_t>(kWarmupRequests,
                                                  trace.size()));
        const serverless::TraceMetrics warm =
            serverless::simulateCluster(opts, prefix);
        report.attempt(prefix.size());
        if (!report.check(conserved(warm, prefix.size()),
                          "warm-up request conservation")) {
            report.fail(prefix.size());
            return;
        }
        setup_s.add(secBetween(s0, Clock::now()));
    }
    if (!report.check(trace.size() == kRequests, "trace size")) {
        return;
    }
    u64 offered_tokens = 0;
    for (const workload::Request &r : trace) {
        offered_tokens += r.output_tokens;
    }
    ::malloc_trim(0);

    // Untraced replays fill the window (half of it in a traced run).
    report.host_before = probeHost();
    report.check(resetPeakRss(), "reset VmHWM via /proc/self/clear_refs");
    const double plain_budget = args.trace ? args.seconds / 2 : args.seconds;
    serverless::TraceMetrics first;
    u64 replays = 0;
    double plain_s = 0;
    Samples per_s;
    while (anotherReplay(replays, plain_s, plain_budget)) {
        const auto r0 = Clock::now();
        serverless::TraceMetrics m = serverless::simulateCluster(opts, trace);
        const double replay_s = secBetween(r0, Clock::now());
        plain_s += replay_s;
        per_s.add(static_cast<double>(trace.size()) / replay_s);
        report.attempt(trace.size());
        const u64 failed = m.failed_requests;
        bool ok = report.check(conserved(m, trace.size()),
                               "request conservation");
        ok = report.check(replays == 0 || sameMetrics(first, m),
                          "replay not deterministic") &&
             ok;
        report.fail(ok ? failed : trace.size());
        if (!ok) {
            return;
        }
        if (replays++ == 0) {
            first = std::move(m);
        }
    }
    const double peak_mb = peakRssMb();

    SchedulerTimes st;
    double traced_s = 0;
    u64 traced_replays = 0;
    while (args.trace &&
           anotherReplay(traced_replays, traced_s, args.seconds / 2)) {
        const auto r0 = Clock::now();
        const serverless::TraceMetrics m = tracedReplay(opts, trace, st);
        traced_s += secBetween(r0, Clock::now());
        ++traced_replays;
        report.attempt(trace.size());
        if (!report.check(sameMetrics(first, m),
                          "traced replica differs from simulateCluster")) {
            report.fail(trace.size());
            return;
        }
    }
    report.host_after = probeHost();

    const double n = static_cast<double>(trace.size());
    if (!args.trace) {
        report.metric("setup_s", setup_s.median(), "s");
        report.metric("peak_rss_mb", peak_mb, "MB");
        report.metric("throughput_per_s", per_s.median(), "1/s");
        report.metric("latency_p50_ms", first.e2e_sec.p50() * 1e3, "ms");
        report.metric("latency_p99_ms", first.e2e_sec.p99() * 1e3, "ms");
        report.metric("ttft_p50_ms", first.ttft_sec.p50() * 1e3, "ms");
        report.metric("ttft_p99_ms", first.ttft_sec.p99() * 1e3, "ms");
        report.metric("tokens_per_s",
                      per_s.median() * static_cast<double>(offered_tokens) / n,
                      "1/s");
        return;
    }
    const double events = static_cast<double>(first.sim_events);
    report.metric("workload.synthetic.generate_s", generate_s.median(), "s");
    report.metric("serve.scheduler.submit_ns",
                  st.submit_s * 1e9 / static_cast<double>(st.submits), "ns");
    report.metric("serve.scheduler.advance_ns",
                  st.advance_s * 1e9 / static_cast<double>(st.submits), "ns");
    report.metric("serve.scheduler.step_ns",
                  st.step_s * 1e9 / static_cast<double>(st.steps), "ns");
    report.metric("serve.scheduler.finish_ms",
                  st.finish_s * 1e3 / static_cast<double>(traced_replays),
                  "ms");
    report.metric("serve.scheduler.events", events, "count");
    report.metric("serve.scheduler.events_per_request", events / n, "count");
    report.metric("serve.scheduler.events_per_s",
                  per_s.median() * events / n, "1/s");
    report.metric("serverless.instances_launched",
                  static_cast<double>(first.instances_launched), "count");
    report.metric("serverless.peak_live_instances",
                  static_cast<double>(first.peak_live_instances), "count");
    report.metric("serverless.node_artifact_fetches",
                  static_cast<double>(first.node_artifact_fetches), "count");
    report.metric("serverless.affinity_evictions",
                  static_cast<double>(first.affinity_evictions), "count");
    report.metric("serverless.chaos.requeued",
                  static_cast<double>(first.requeued_requests), "count");
    report.metric("serverless.slo.shed",
                  static_cast<double>(first.shed_admission +
                                      first.shed_deadline),
                  "count");
    report.metric("serverless.slo.failed",
                  static_cast<double>(first.failed_requests), "count");
    report.metric("perfbench.trace_overhead_pct",
                  100.0 * (traced_s / static_cast<double>(traced_replays) /
                               (plain_s / static_cast<double>(replays)) -
                           1.0),
                  "%");
}

} // namespace perfbench
