/**
 * @file
 * Engine-equivalence suite for the cluster simulator (DESIGN.md §15):
 * the zero-allocation fast engine (cluster_fast.cc) must produce
 * BIT-IDENTICAL TraceMetrics, metric snapshots and Chrome trace streams
 * to the legacy std::function EventLoop (cluster.cc) on the paper's
 * fig10/§7.5 traces and on every feature the legacy loop supports —
 * hot spares, deferred capture, idle reclaim, fault injection with
 * every fallback mode, and the artifact cache. Plus: the fast engine's
 * own determinism at the million-request scale of the bench.
 *
 * sim_events is the one field deliberately excluded: the legacy loop
 * dispatches stale idle-timer tombstones that the fast engine cancels
 * outright (see TraceMetrics::sim_events).
 */

#include <gtest/gtest.h>

#include <optional>

#include "common/fault.h"
#include "medusa/artifact_cache.h"
#include "serve/scheduler.h"
#include "serverless/cluster_internal.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

namespace medusa::serverless {
namespace {

/** The toy profile of serverless_test.cc (easy arithmetic). */
ServingProfile
toyProfile(f64 cold_start = 2.0)
{
    ServingProfile p;
    p.model_name = "toy";
    p.strategy = llm::Strategy::kVllm;
    p.loading_sec = cold_start;
    p.cold_start_sec = cold_start;
    p.batch_sizes = {1, 10};
    p.decode_step_sec = {0.01, 0.10};
    p.prefill_tokens = {100, 1000};
    p.prefill_sec = {0.1, 1.0};
    return p;
}

/** One engine run with its own sinks and (optional) fault stream. */
struct RunResult
{
    TraceMetrics metrics;
    std::string chrome_json;
    std::string metrics_json;
};

RunResult
runEngine(ClusterOptions opts, const ServingProfile &profile,
          const std::vector<workload::Request> &trace, SimEngine engine,
          const FaultPlan *plan = nullptr,
          core::ImageCache *cache = nullptr)
{
    TraceRecorder rec;
    MetricsRegistry reg;
    std::optional<FaultInjector> injector;
    if (plan != nullptr) {
        injector.emplace(*plan);
        opts.pipeline.fault = &*injector;
    }
    opts.pipeline.trace = &rec;
    opts.pipeline.metrics = &reg;
    opts.artifact_cache = cache;
    opts.engine = engine;
    opts.profile = &profile;
    RunResult r;
    r.metrics = simulateCluster(opts, trace);
    r.chrome_json = rec.toChromeJson();
    r.metrics_json = reg.toJson();
    return r;
}

/**
 * Bit-identity between the engines: exact == on every float (no
 * EXPECT_NEAR — the refactor preserves expression order, so results
 * must match to the last ulp).
 */
void
expectBitIdentical(const RunResult &legacy, const RunResult &fast)
{
    const TraceMetrics &a = legacy.metrics;
    const TraceMetrics &b = fast.metrics;
    EXPECT_EQ(a.ttft_sec.samples(), b.ttft_sec.samples());
    EXPECT_EQ(a.e2e_sec.samples(), b.e2e_sec.samples());
    EXPECT_EQ(a.launch_sec.samples(), b.launch_sec.samples());
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_EQ(a.achieved_qps, b.achieved_qps);
    EXPECT_EQ(a.makespan_sec, b.makespan_sec);
    EXPECT_EQ(a.gpu_seconds, b.gpu_seconds);
    EXPECT_EQ(a.artifact_loads, b.artifact_loads);
    EXPECT_EQ(a.artifact_cache_hits, b.artifact_cache_hits);
    EXPECT_EQ(a.restore_failures, b.restore_failures);
    EXPECT_EQ(a.fallback_cold_starts, b.fallback_cold_starts);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.wasted_restore_sec, b.wasted_restore_sec);
    EXPECT_EQ(a.instances_launched, b.instances_launched);
    EXPECT_EQ(a.peak_live_instances, b.peak_live_instances);
    EXPECT_EQ(legacy.metrics_json, fast.metrics_json);
    EXPECT_EQ(legacy.chrome_json, fast.chrome_json);
}

void
expectEnginesAgree(const ClusterOptions &opts,
                   const ServingProfile &profile,
                   const std::vector<workload::Request> &trace,
                   const FaultPlan *plan = nullptr,
                   bool with_cache = false)
{
    // Each run gets a fresh fault stream and image cache: both are
    // stateful in hit order, and the engines must consume them
    // identically.
    std::optional<core::ImageCache> legacy_cache;
    std::optional<core::ImageCache> fast_cache;
    ClusterOptions copts = opts;
    if (with_cache) {
        legacy_cache.emplace();
        fast_cache.emplace();
        copts.artifact_key = "toy";
        copts.artifact_loader = []() -> StatusOr<core::MaterializedImage> {
            return core::MaterializedImage{};
        };
        copts.artifact_miss_sec = 0.7;
    }
    const RunResult legacy =
        runEngine(copts, profile, trace, SimEngine::kLegacy, plan,
                  with_cache ? &*legacy_cache : nullptr);
    const RunResult fast =
        runEngine(copts, profile, trace, SimEngine::kFast, plan,
                  with_cache ? &*fast_cache : nullptr);
    expectBitIdentical(legacy, fast);
}

/** The fig10 bench's trace family (§7.5 replay statistics). */
std::vector<workload::Request>
fig10Trace(f64 rps, u64 seed, f64 duration_sec = 120)
{
    workload::TraceOptions topts;
    topts.requests_per_sec = rps;
    topts.duration_sec = duration_sec;
    topts.seed = seed;
    return workload::generateShareGptTrace(topts);
}

TEST(ClusterEquivTest, Fig10TracesBitIdentical)
{
    const ServingProfile p = toyProfile(2.0);
    for (const f64 rps : {2.0, 10.0}) {
        for (const u64 seed : {20250330ull, 20250331ull}) {
            ClusterOptions opts;
            expectEnginesAgree(opts, p, fig10Trace(rps, seed));
        }
    }
}

TEST(ClusterEquivTest, TightIdleTimeoutBitIdentical)
{
    ClusterOptions opts;
    opts.idle_timeout_sec = 0.5; // heavy reclaim/relaunch churn
    opts.num_gpus = 2;
    expectEnginesAgree(opts, toyProfile(1.0),
                       fig10Trace(6.0, 20250401ull));
}

TEST(ClusterEquivTest, HotSparesBitIdentical)
{
    ClusterOptions opts;
    opts.hot_spares = 2;
    opts.idle_timeout_sec = 2.0;
    expectEnginesAgree(opts, toyProfile(1.5),
                       fig10Trace(4.0, 20250402ull));
}

TEST(ClusterEquivTest, DeferredCaptureBitIdentical)
{
    ServingProfile p = toyProfile(1.0);
    p.deferred_capture = true;
    p.capture_penalty_sec = {0.5, 0.5};
    ClusterOptions opts;
    opts.max_seqs_per_instance = 8; // varied decode batch sizes
    expectEnginesAgree(opts, p, fig10Trace(8.0, 20250403ull));
}

TEST(ClusterEquivTest, SmallBatchBudgetBitIdentical)
{
    ClusterOptions opts;
    opts.max_batched_tokens = 200; // force multi-step prefill queues
    opts.max_seqs_per_instance = 4;
    expectEnginesAgree(opts, toyProfile(1.0),
                       fig10Trace(8.0, 20250404ull));
}

TEST(ClusterEquivTest, FaultRetryThenVanillaBitIdentical)
{
    FaultPlan plan;
    plan.seed = 99;
    plan.rule(FaultPoint::kClusterRestore).probability = 0.4;
    ClusterOptions opts;
    opts.fallback.mode = core::FallbackMode::kRetryThenVanilla;
    opts.fallback.max_attempts = 3;
    opts.fallback.backoff_sec = 0.05;
    opts.vanilla_cold_start_sec = 4.0;
    opts.idle_timeout_sec = 1.0;
    expectEnginesAgree(opts, toyProfile(2.0),
                       fig10Trace(5.0, 20250405ull), &plan);
}

TEST(ClusterEquivTest, FaultFailModeBitIdentical)
{
    FaultPlan plan;
    plan.seed = 7;
    plan.rule(FaultPoint::kClusterRestore).probability = 0.5;
    ClusterOptions opts;
    opts.fallback.mode = core::FallbackMode::kFail;
    opts.num_gpus = 2;
    expectEnginesAgree(opts, toyProfile(1.0),
                       fig10Trace(4.0, 20250406ull), &plan);
}

TEST(ClusterEquivTest, ImageCacheBitIdentical)
{
    ClusterOptions opts;
    opts.idle_timeout_sec = 0.5; // several cold starts share the cache
    expectEnginesAgree(opts, toyProfile(1.0),
                       fig10Trace(5.0, 20250407ull), nullptr,
                       /*with_cache=*/true);
}

TEST(ClusterEquivTest, SyntheticTraceBitIdentical)
{
    workload::SyntheticTraceOptions sopts;
    sopts.seed = 42;
    sopts.duration_sec = 60;
    sopts.requests_per_sec = 20;
    const auto trace = workload::generateSyntheticTrace(sopts);
    ASSERT_GT(trace.size(), 500u);
    ClusterOptions opts;
    opts.num_gpus = 8;
    expectEnginesAgree(opts, toyProfile(1.5), trace);
}

/**
 * The scale contract: the fast engine replays a million-request trace
 * deterministically — two runs from the same seed produce byte-equal
 * metric snapshots and identical latency sample streams.
 */
TEST(ClusterEquivTest, MillionRequestRunIsDeterministic)
{
    workload::SyntheticTraceOptions sopts;
    sopts.seed = 20250808;
    sopts.duration_sec = 400;
    sopts.requests_per_sec = 3000;
    sopts.max_requests = 1000000;
    // Short outputs keep the event count (and test wall time) bounded
    // while still exercising batching and reclaim.
    sopts.mean_output_tokens = 8;
    sopts.max_output_tokens = 64;
    const auto trace = workload::generateSyntheticTrace(sopts);
    ASSERT_EQ(trace.size(), 1000000u);

    ClusterOptions opts;
    opts.num_gpus = 2048;
    opts.idle_timeout_sec = 2.0;
    const ServingProfile p = toyProfile(1.0);

    TraceMetrics a = detail::simulateClusterFast(opts, p, trace);
    TraceMetrics b = detail::simulateClusterFast(opts, p, trace);

    EXPECT_EQ(a.completed, 1000000u);
    EXPECT_EQ(a.ttft_sec.samples(), b.ttft_sec.samples());
    EXPECT_EQ(a.e2e_sec.samples(), b.e2e_sec.samples());
    EXPECT_EQ(a.launch_sec.samples(), b.launch_sec.samples());
    EXPECT_EQ(a.gpu_seconds, b.gpu_seconds);
    EXPECT_EQ(a.sim_events, b.sim_events);
    EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson());
    // A million requests on thousands of instances is well past any
    // plausible closure-loop regime. (Events stay close to the request
    // count because continuous batching amortizes step events across
    // the whole batch.)
    EXPECT_GT(a.sim_events, 1000000u);
    EXPECT_GT(a.peak_live_instances, 100u);
}

/**
 * Serve-mode parity (DESIGN.md §17): the same trace driven through the
 * serve-style Scheduler API — explicit submit() + advanceTo() with
 * live RequestHooks observing every token — must stay bit-identical to
 * simulateCluster(). Hooks are pure observations; attaching them may
 * not perturb a single float, span or metric.
 */
TEST(ClusterEquivTest, HookedSchedulerBitIdenticalToSimulateCluster)
{
    const ServingProfile p = toyProfile(2.0);
    const auto trace = fig10Trace(6.0, 20250406ull);

    ClusterOptions opts;
    const RunResult sim = runEngine(opts, p, trace, SimEngine::kFast);

    TraceRecorder rec;
    MetricsRegistry reg;
    ClusterOptions sopts;
    sopts.pipeline.trace = &rec;
    sopts.pipeline.metrics = &reg;
    sopts.profile = &p;

    u64 tokens = 0;
    u64 firsts = 0;
    u64 dones = 0;
    serve::RequestHooks hooks;
    hooks.on_first_token = [&](u32, f64) { ++firsts; };
    hooks.on_token = [&](u32, u32, f64) { ++tokens; };
    hooks.on_done = [&](u32, serve::RequestOutcome, f64) { ++dones; };

    const f64 horizon = trace.empty() ? 0 : trace.back().arrival_sec;
    serve::Scheduler sched(sopts, &hooks, horizon);
    std::size_t next = 0;
    for (;;) {
        if (next < trace.size() &&
            (sched.idle() ||
             trace[next].arrival_sec <= sched.peekTime())) {
            sched.advanceTo(trace[next].arrival_sec);
            sched.submit(trace[next]);
            ++next;
            continue;
        }
        if (sched.idle()) {
            break;
        }
        sched.step();
    }
    EXPECT_EQ(sched.submitted(), trace.size());
    EXPECT_EQ(sched.inFlight(), 0u);

    RunResult served;
    served.metrics = sched.finish();
    served.chrome_json = rec.toChromeJson();
    served.metrics_json = reg.toJson();
    expectBitIdentical(sim, served);

    // Hook-stream consistency: every request reached a terminal state,
    // every completion emitted a first token, and the token stream
    // carries at least one token per completion.
    EXPECT_EQ(dones, trace.size());
    EXPECT_EQ(firsts, served.metrics.completed);
    EXPECT_GE(tokens, served.metrics.completed);
}

// ---- chaos determinism suite (DESIGN.md §16) -----------------------------

/**
 * An empty (default-constructed) ChaosPlan and a default SloPolicy must
 * leave the fast engine BYTE-IDENTICAL to today's fault-free simulator:
 * same TraceMetrics, same metric-name set, same span stream. This is
 * the contract that lets chaos ship inside the hot path.
 */
TEST(ClusterChaosTest, EmptyPlanIsByteIdenticalToFaultFree)
{
    const ServingProfile p = toyProfile(1.5);
    const auto trace = fig10Trace(6.0, 20250801ull);
    ClusterOptions plain;
    plain.idle_timeout_sec = 1.0;
    ClusterOptions armed = plain;
    const ChaosPlan empty; // all mtbf = 0: enabled() is false
    armed.chaos = &empty;
    const RunResult a = runEngine(plain, p, trace, SimEngine::kFast);
    const RunResult b = runEngine(armed, p, trace, SimEngine::kFast);
    expectBitIdentical(a, b);
    EXPECT_EQ(a.metrics.sim_events, b.metrics.sim_events);
    // No chaos/SLO names may leak into the fault-free snapshot.
    EXPECT_EQ(b.metrics_json.find("cluster.chaos."), std::string::npos);
    EXPECT_EQ(b.metrics_json.find("cluster.slo."), std::string::npos);
}

/** Same (trace, plan, seed) ⇒ bit-identical everything, run after run. */
TEST(ClusterChaosTest, ArmedPlanIsDeterministic)
{
    const ServingProfile p = toyProfile(1.5);
    const auto trace = fig10Trace(8.0, 20250802ull);
    ChaosPlan plan;
    plan.seed = 77;
    plan.node_mtbf_sec = 20.0;
    plan.node_mttr_sec = 5.0;
    plan.inst_mtbf_sec = 10.0;
    plan.store_mtbf_sec = 30.0;
    plan.gray_mtbf_sec = 25.0;
    ClusterOptions opts;
    opts.num_gpus = 8;
    opts.gpus_per_node = 2;
    opts.node_artifact_miss_sec = 0.4;
    opts.chaos = &plan;
    opts.slo.default_ttft_sec = 15.0;
    opts.slo.admission_control = true;
    opts.slo.shed_on_deadline = true;
    const RunResult a = runEngine(opts, p, trace, SimEngine::kFast);
    const RunResult b = runEngine(opts, p, trace, SimEngine::kFast);
    EXPECT_EQ(a.metrics_json, b.metrics_json);
    EXPECT_EQ(a.chrome_json, b.chrome_json);
    EXPECT_EQ(a.metrics.ttft_sec.samples(), b.metrics.ttft_sec.samples());
    EXPECT_EQ(a.metrics.e2e_sec.samples(), b.metrics.e2e_sec.samples());
    EXPECT_EQ(a.metrics.gpu_seconds, b.metrics.gpu_seconds);
    // The plan actually fired (otherwise this suite proves nothing) and
    // every request reached exactly one terminal state.
    EXPECT_GT(a.metrics.instance_crashes + a.metrics.node_crashes, 0u);
    EXPECT_EQ(a.metrics.completed + a.metrics.shed_admission +
                  a.metrics.shed_deadline + a.metrics.failed_requests,
              trace.size());
}

/** A different chaos seed must perturb the failure schedule. */
TEST(ClusterChaosTest, SeedChangesSchedule)
{
    ChaosPlan plan;
    plan.node_mtbf_sec = 15.0;
    plan.inst_mtbf_sec = 7.0;
    const auto a = buildChaosSchedule(plan, 300.0);
    plan.seed ^= 0x1234;
    const auto b = buildChaosSchedule(plan, 300.0);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i) {
        differs = a[i].start_sec != b[i].start_sec;
    }
    EXPECT_TRUE(differs);
}

/** Policy runs must not disturb baseline metric names or results. */
TEST(ClusterEquivTest, BaselinePolicyMatchesLegacyMetricNames)
{
    ClusterOptions opts;
    const RunResult legacy = runEngine(opts, toyProfile(1.0),
                                       fig10Trace(3.0, 20250408ull),
                                       SimEngine::kLegacy);
    const RunResult fast = runEngine(opts, toyProfile(1.0),
                                     fig10Trace(3.0, 20250408ull),
                                     SimEngine::kFast);
    // Identical metric NAME SETS too: the baseline fast engine must not
    // leak policy counters into the snapshot.
    EXPECT_EQ(legacy.metrics_json, fast.metrics_json);
    EXPECT_EQ(fast.metrics.cold_pool_hits, 0u);
    EXPECT_EQ(fast.metrics.affinity_evictions, 0u);
}

} // namespace
} // namespace medusa::serverless
