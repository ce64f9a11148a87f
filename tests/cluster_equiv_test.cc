/**
 * @file
 * Pinned-output suite for the cluster simulator (DESIGN.md §15).
 *
 * The `*BitIdentical` cases and BaselinePolicyMatchesLegacyMetricNames
 * replay the paper's fig10/§7.5 traces and every feature the retired
 * std::function event loop supported — hot spares, deferred capture,
 * idle reclaim, fault injection with every fallback mode, the
 * artifact cache and arrival/event ties at equal times — and assert
 * simulateCluster against a golden digest recorded from that loop
 * before it was deleted (the scheduler matched every one at recording
 * time). ArmedAffinitySchedulerMatchesGolden
 * pins the paths the old loop never had: affinity placement over eight
 * models, an armed chaos plan and SLO shedding. Plus: determinism at
 * the million-request scale of the bench, serve-mode parity, and the
 * chaos determinism suite.
 *
 * sim_events stays out of every digest: the old loop dispatched stale
 * idle timers that the scheduler cancels outright, so its counts were
 * never comparable (see TraceMetrics::sim_events).
 */

#include <gtest/gtest.h>

#include <bit>
#include <optional>

#include "common/fault.h"
#include "medusa/artifact_cache.h"
#include "serve/scheduler.h"
#include "serverless/cluster.h"
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

/** One run's outputs with its own trace and metrics sinks. */
struct RunResult
{
    TraceMetrics metrics;
    std::string chrome_json;
    std::string metrics_json;
};

/**
 * Replay @p trace with fresh sinks, a fresh fault stream from @p plan
 * and, with @p with_cache, a fresh image cache (both are stateful in
 * hit order).
 */
RunResult
replay(ClusterOptions opts, const ServingProfile &profile,
       const std::vector<workload::Request> &trace,
       const FaultPlan *plan = nullptr, bool with_cache = false)
{
    TraceRecorder rec;
    MetricsRegistry reg;
    std::optional<FaultInjector> injector;
    if (plan != nullptr) {
        injector.emplace(*plan);
        opts.pipeline.fault = &*injector;
    }
    std::optional<core::ImageCache> cache;
    if (with_cache) {
        cache.emplace();
        opts.artifact_cache = &*cache;
        opts.artifact_key = "toy";
        opts.artifact_loader = []() -> StatusOr<core::MaterializedImage> {
            return core::MaterializedImage{};
        };
        opts.artifact_miss_sec = 0.7;
    }
    opts.pipeline.trace = &rec;
    opts.pipeline.metrics = &reg;
    opts.profile = &profile;
    RunResult r;
    r.metrics = simulateCluster(opts, trace);
    r.chrome_json = rec.toChromeJson();
    r.metrics_json = reg.toJson();
    return r;
}

/** FNV-1a over raw bytes, continuing from @p h. */
u64
fnv1a(const void *data, std::size_t size,
      u64 h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const u8 *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h = (h ^ p[i]) * 0x100000001b3ull;
    }
    return h;
}

u64
fnv1a(const std::vector<f64> &samples)
{
    return fnv1a(samples.data(), samples.size() * sizeof(f64));
}

u64
fnv1a(const std::string &text)
{
    return fnv1a(text.data(), text.size());
}

/**
 * What pins a run: FNV-1a over the IEEE bits of each latency sample
 * stream, the scalar TraceMetrics fields (floats compared bit for
 * bit), and FNV-1a of the metrics and Chrome JSON exports. Fields a
 * golden omits are zero.
 */
struct Digest
{
    u64 ttft = 0;
    u64 e2e = 0;
    u64 launch = 0;
    u64 completed = 0;
    u64 cold_starts = 0;
    f64 achieved_qps = 0;
    f64 makespan_sec = 0;
    f64 gpu_seconds = 0;
    u64 artifact_loads = 0;
    u64 artifact_cache_hits = 0;
    u64 restore_failures = 0;
    u64 fallback_cold_starts = 0;
    u64 retries = 0;
    f64 wasted_restore_sec = 0;
    u64 instances_launched = 0;
    u64 peak_live_instances = 0;
    u64 metrics_json = 0;
    u64 chrome_json = 0;
};

Digest
digestOf(const RunResult &r)
{
    const TraceMetrics &m = r.metrics;
    return Digest{
        .ttft = fnv1a(m.ttft_sec.samples()),
        .e2e = fnv1a(m.e2e_sec.samples()),
        .launch = fnv1a(m.launch_sec.samples()),
        .completed = m.completed,
        .cold_starts = m.cold_starts,
        .achieved_qps = m.achieved_qps,
        .makespan_sec = m.makespan_sec,
        .gpu_seconds = m.gpu_seconds,
        .artifact_loads = m.artifact_loads,
        .artifact_cache_hits = m.artifact_cache_hits,
        .restore_failures = m.restore_failures,
        .fallback_cold_starts = m.fallback_cold_starts,
        .retries = m.retries,
        .wasted_restore_sec = m.wasted_restore_sec,
        .instances_launched = m.instances_launched,
        .peak_live_instances = m.peak_live_instances,
        .metrics_json = fnv1a(r.metrics_json),
        .chrome_json = fnv1a(r.chrome_json),
    };
}

#define EXPECT_BITS_EQ(a, b)                                             \
    EXPECT_EQ(std::bit_cast<u64>(a), std::bit_cast<u64>(b)) << #a

/** Exact match, floats to the last bit (no EXPECT_NEAR anywhere). */
void
expectDigest(const RunResult &run, const Digest &want)
{
    const Digest got = digestOf(run);
    EXPECT_EQ(got.ttft, want.ttft) << "ttft_sec samples";
    EXPECT_EQ(got.e2e, want.e2e) << "e2e_sec samples";
    EXPECT_EQ(got.launch, want.launch) << "launch_sec samples";
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.cold_starts, want.cold_starts);
    EXPECT_BITS_EQ(got.achieved_qps, want.achieved_qps);
    EXPECT_BITS_EQ(got.makespan_sec, want.makespan_sec);
    EXPECT_BITS_EQ(got.gpu_seconds, want.gpu_seconds);
    EXPECT_EQ(got.artifact_loads, want.artifact_loads);
    EXPECT_EQ(got.artifact_cache_hits, want.artifact_cache_hits);
    EXPECT_EQ(got.restore_failures, want.restore_failures);
    EXPECT_EQ(got.fallback_cold_starts, want.fallback_cold_starts);
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_BITS_EQ(got.wasted_restore_sec, want.wasted_restore_sec);
    EXPECT_EQ(got.instances_launched, want.instances_launched);
    EXPECT_EQ(got.peak_live_instances, want.peak_live_instances);
    EXPECT_EQ(got.metrics_json, want.metrics_json) << "metrics JSON";
    EXPECT_EQ(got.chrome_json, want.chrome_json) << "Chrome JSON";
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
    // One golden per (rps, seed), in loop order.
    constexpr Digest kGolden[] = {
        {.ttft = 0xac32a0320736f6fcull, .e2e = 0x4e02e5f52ffb2e20ull,
         .launch = 0x5d0da68d0f8bce45ull, .completed = 212, .cold_starts = 3,
         .achieved_qps = 0x1.4212dfeeb1715p-1,
         .makespan_sec = 0x1.5104189374b9ap+8,
         .gpu_seconds = 0x1.780e76c8b42c6p+9, .instances_launched = 3,
         .peak_live_instances = 3, .metrics_json = 0x43bba81eb6085477ull,
         .chrome_json = 0x1221b9f3a276431dull},
        {.ttft = 0x973a7803066e6e82ull, .e2e = 0x3bc8f083777d2c3bull,
         .launch = 0xafd85baeaf10f5a5ull, .completed = 230, .cold_starts = 4,
         .achieved_qps = 0x1.6da5a2e1081c2p-1,
         .makespan_sec = 0x1.420f2a4de0ca9p+8,
         .gpu_seconds = 0x1.839d9168729ddp+9, .instances_launched = 4,
         .peak_live_instances = 4, .metrics_json = 0x5c2cb23f545e45d1ull,
         .chrome_json = 0xef1117db115f2fa3ull},
        {.ttft = 0x8ae8537eeab96f44ull, .e2e = 0x61e3b38a8825b57bull,
         .launch = 0xafd85baeaf10f5a5ull, .completed = 1673, .cold_starts = 4,
         .achieved_qps = 0x1.14bda7c286b39p+0,
         .makespan_sec = 0x1.82e74bc6a7edp+10,
         .gpu_seconds = 0x1.7a864dd2f1a44p+12, .instances_launched = 4,
         .peak_live_instances = 4, .metrics_json = 0x8acde50d605f8ac1ull,
         .chrome_json = 0xce0711aea80a75d9ull},
        {.ttft = 0xc0b941ad36cf84b4ull, .e2e = 0xf14369c5649c06feull,
         .launch = 0xafd85baeaf10f5a5ull, .completed = 1646, .cold_starts = 4,
         .achieved_qps = 0x1.1a140feb1ca4bp+0,
         .makespan_sec = 0x1.7574dd2f1a989p+10,
         .gpu_seconds = 0x1.64586e978d45ap+12, .instances_launched = 4,
         .peak_live_instances = 4, .metrics_json = 0x13b02b9c77973ea9ull,
         .chrome_json = 0xc92948e108fac4f2ull},
    };
    const ServingProfile p = toyProfile(2.0);
    const Digest *want = kGolden;
    for (const f64 rps : {2.0, 10.0}) {
        for (const u64 seed : {20250330ull, 20250331ull}) {
            ClusterOptions opts;
            expectDigest(replay(opts, p, fig10Trace(rps, seed)), *want++);
        }
    }
}

TEST(ClusterEquivTest, TightIdleTimeoutBitIdentical)
{
    ClusterOptions opts;
    opts.idle_timeout_sec = 0.5; // heavy reclaim/relaunch churn
    opts.num_gpus = 2;
    constexpr Digest kGolden{
        .ttft = 0x7528b521895eda07ull, .e2e = 0x47b97bcd5c680136ull,
        .launch = 0x2be2cbea19a827c5ull, .completed = 224, .cold_starts = 2,
        .achieved_qps = 0x1.0e5f0ef6c6882p-1,
        .makespan_sec = 0x1.a82fdf3b644d3p+8,
        .gpu_seconds = 0x1.684d916872a57p+9, .instances_launched = 2,
        .peak_live_instances = 2, .metrics_json = 0x5fff521187db4724ull,
        .chrome_json = 0xc4eb6b003bd35d3cull};
    expectDigest(replay(opts, toyProfile(1.0), fig10Trace(6.0, 20250401ull)),
                 kGolden);
}

TEST(ClusterEquivTest, HotSparesBitIdentical)
{
    ClusterOptions opts;
    opts.hot_spares = 2;
    opts.idle_timeout_sec = 2.0;
    constexpr Digest kGolden{
        .ttft = 0xa879810997da15dcull, .e2e = 0x50ddcad8f17aac79ull,
        .launch = 0x5893668f9157d655ull, .completed = 462, .cold_starts = 2,
        .achieved_qps = 0x1.fe9b7935874cfp-1,
        .makespan_sec = 0x1.cf42964219c42p+8,
        .gpu_seconds = 0x1.b03461a471a74p+10, .instances_launched = 4,
        .peak_live_instances = 4, .metrics_json = 0xf414c6cd99dbfcc8ull,
        .chrome_json = 0x130eddf1e7539caaull};
    expectDigest(replay(opts, toyProfile(1.5), fig10Trace(4.0, 20250402ull)),
                 kGolden);
}

TEST(ClusterEquivTest, DeferredCaptureBitIdentical)
{
    ServingProfile p = toyProfile(1.0);
    p.deferred_capture = true;
    p.capture_penalty_sec = {0.5, 0.5};
    ClusterOptions opts;
    opts.max_seqs_per_instance = 8; // varied decode batch sizes
    constexpr Digest kGolden{
        .ttft = 0x69b3f2ae49d4c360ull, .e2e = 0xc55eb4bb124ea256ull,
        .launch = 0xd137d9e6997fe665ull, .completed = 688, .cold_starts = 4,
        .achieved_qps = 0x1.19a3c8f5c5ae3p+0,
        .makespan_sec = 0x1.38aedf625a3cbp+9,
        .gpu_seconds = 0x1.2f89a1cac074cp+11, .instances_launched = 4,
        .peak_live_instances = 4, .metrics_json = 0xa122f59b5ad96708ull,
        .chrome_json = 0xd84f753058d9c7d3ull};
    expectDigest(replay(opts, p, fig10Trace(8.0, 20250403ull)), kGolden);
}

TEST(ClusterEquivTest, SmallBatchBudgetBitIdentical)
{
    ClusterOptions opts;
    opts.max_batched_tokens = 200; // force multi-step prefill queues
    opts.max_seqs_per_instance = 4;
    constexpr Digest kGolden{
        .ttft = 0x83e41402a094ed86ull, .e2e = 0x16cf557974b032fbull,
        .launch = 0xd137d9e6997fe665ull, .completed = 1818, .cold_starts = 4,
        .achieved_qps = 0x1.2badfb12329cfp+0,
        .makespan_sec = 0x1.844130171b4dbp+10,
        .gpu_seconds = 0x1.841c9ba5e275ep+12, .instances_launched = 4,
        .peak_live_instances = 4, .metrics_json = 0xa90c15ab47d2767cull,
        .chrome_json = 0xa2142f4942b59c16ull};
    expectDigest(replay(opts, toyProfile(1.0), fig10Trace(8.0, 20250404ull)),
                 kGolden);
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
    constexpr Digest kGolden{
        .ttft = 0xf64528bb8aca8123ull, .e2e = 0x836d1698dabb507cull,
        .launch = 0xafd85baeaf10f5a5ull, .completed = 961, .cold_starts = 4,
        .achieved_qps = 0x1.1332185d6e5b7p+0,
        .makespan_sec = 0x1.befbd74aaa68ep+9,
        .gpu_seconds = 0x1.ba4b53f7ceca1p+11, .instances_launched = 4,
        .peak_live_instances = 4, .metrics_json = 0xca56f8e8a59854c8ull,
        .chrome_json = 0xdc430483058bc07aull};
    expectDigest(replay(opts, toyProfile(2.0), fig10Trace(5.0, 20250405ull),
                        &plan),
                 kGolden);
}

/**
 * The same kRetryThenVanilla settings over a sparse trace with a short
 * idle timeout, so instances are reclaimed between requests and every
 * arrival relaunches: the restore fault fires, is retried, and twice
 * exhausts its attempts into a vanilla cold start. The case above makes
 * only four cold starts and pins no fault at all.
 */
TEST(ClusterEquivTest, FaultRetryThenVanillaChurnBitIdentical)
{
    FaultPlan plan;
    plan.seed = 99;
    plan.rule(FaultPoint::kClusterRestore).probability = 0.4;
    ClusterOptions opts;
    opts.fallback.mode = core::FallbackMode::kRetryThenVanilla;
    opts.fallback.max_attempts = 3;
    opts.fallback.backoff_sec = 0.05;
    opts.vanilla_cold_start_sec = 4.0;
    opts.idle_timeout_sec = 0.5;
    constexpr Digest kGolden{
        .ttft = 0x0acba8371bb8e3dcull, .e2e = 0x8f7af3ae2358a785ull,
        .launch = 0xd79093a4c7c3fd13ull, .completed = 50, .cold_starts = 16,
        .achieved_qps = 0x1.5eb4b01eb73bep-4,
        .makespan_sec = 0x1.23fb8c9ed4f9cp+9,
        .gpu_seconds = 0x1.a8a90e5f6447ap+7, .restore_failures = 12,
        .fallback_cold_starts = 2, .retries = 10,
        .wasted_restore_sec = 0x1.80116f0320624p+3, .instances_launched = 16,
        .peak_live_instances = 1, .metrics_json = 0xe1742b1d1af1c145ull,
        .chrome_json = 0x8bdc5cfd109a7b4eull};
    const RunResult r = replay(opts, toyProfile(2.0),
                               fig10Trace(0.1, 20250405ull, 600), &plan);
    EXPECT_GT(r.metrics.restore_failures, 0u);
    EXPECT_GT(r.metrics.retries, 0u);
    EXPECT_GT(r.metrics.fallback_cold_starts, 0u);
    expectDigest(r, kGolden);
}

TEST(ClusterEquivTest, FaultFailModeBitIdentical)
{
    FaultPlan plan;
    plan.seed = 7;
    plan.rule(FaultPoint::kClusterRestore).probability = 0.5;
    ClusterOptions opts;
    opts.fallback.mode = core::FallbackMode::kFail;
    opts.num_gpus = 2;
    constexpr Digest kGolden{
        .ttft = 0xddda4b4f26b346edull, .e2e = 0x762cf7e7f9ee09f5ull,
        .launch = 0x991bfb433a1d3d81ull, .completed = 616, .cold_starts = 3,
        .achieved_qps = 0x1.35ad96b2fe5eep-1,
        .makespan_sec = 0x1.fd39bf8d65227p+9,
        .gpu_seconds = 0x1.f047ac77435f2p+10, .restore_failures = 1,
        .wasted_restore_sec = 0x1.22c3fba48451dp-1, .instances_launched = 3,
        .peak_live_instances = 2, .metrics_json = 0x45992b6589295412ull,
        .chrome_json = 0xf1b5c2e9296b571aull};
    expectDigest(replay(opts, toyProfile(1.0), fig10Trace(4.0, 20250406ull),
                        &plan),
                 kGolden);
}

TEST(ClusterEquivTest, ImageCacheBitIdentical)
{
    ClusterOptions opts;
    opts.idle_timeout_sec = 0.5; // several cold starts share the cache
    constexpr Digest kGolden{
        .ttft = 0x2bfcfd72441e8244ull, .e2e = 0x034353208bc9f7fdull,
        .launch = 0x56a86228abd9a8dcull, .completed = 345, .cold_starts = 4,
        .achieved_qps = 0x1.9b74e933a414fp-1,
        .makespan_sec = 0x1.ad4dd2f1a9f1bp+8,
        .gpu_seconds = 0x1.50136894b32e6p+10, .artifact_loads = 4,
        .artifact_cache_hits = 3, .instances_launched = 4,
        .peak_live_instances = 4, .metrics_json = 0x47e51f09be14de62ull,
        .chrome_json = 0x264ebbd8fa61b49dull};
    expectDigest(replay(opts, toyProfile(1.0), fig10Trace(5.0, 20250407ull),
                        nullptr, /*with_cache=*/true),
                 kGolden);
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
    constexpr Digest kGolden{
        .ttft = 0xba461e4164828c86ull, .e2e = 0xc623fb24caf0e23cull,
        .launch = 0xe4e24d50872dc465ull, .completed = 1425, .cold_starts = 8,
        .achieved_qps = 0x1.f0c1cec2102dep+0,
        .makespan_sec = 0x1.6f2e7668c5d6cp+9,
        .gpu_seconds = 0x1.53dd6c8b43819p+12, .instances_launched = 8,
        .peak_live_instances = 8, .metrics_json = 0x32d55649ba446234ull,
        .chrome_json = 0x910faa916f6c36dfull};
    expectDigest(replay(opts, toyProfile(1.5), trace), kGolden);
}

/**
 * Arrivals on a dyadic grid with dyadic latencies, so arrivals land at
 * exactly the virtual time of launch completions and step ends: pins
 * the arrivals-win-ties order, which the continuous-time traces above
 * never exercise.
 */
TEST(ClusterEquivTest, ArrivalTiesBitIdentical)
{
    ServingProfile p;
    p.model_name = "dyadic";
    p.strategy = llm::Strategy::kVllm;
    p.loading_sec = 1.0;
    p.cold_start_sec = 1.0;
    p.batch_sizes = {1, 9};
    p.decode_step_sec = {0.125, 0.25};
    p.prefill_tokens = {128, 1024};
    p.prefill_sec = {0.125, 1.0};
    std::vector<workload::Request> trace;
    for (u32 i = 0; i < 400; ++i) {
        trace.push_back({.arrival_sec = 0.25 * i,
                         .prompt_tokens = 128 * (1 + i % 3),
                         .output_tokens = 1 + i % 7});
    }
    ClusterOptions opts;
    opts.idle_timeout_sec = 0.5;
    opts.max_seqs_per_instance = 4;
    constexpr Digest kGolden{
        .ttft = 0x816318a6e961f457ull, .e2e = 0x51587f3d50c00a68ull,
        .launch = 0x7a5470f309a8d765ull, .completed = 400, .cold_starts = 20,
        .achieved_qps = 0x1.f95df778d076cp+1, .makespan_sec = 0x1.954p+6,
        .gpu_seconds = 0x1.8e9p+7, .instances_launched = 20,
        .peak_live_instances = 3, .metrics_json = 0x627e6c4e5c435437ull,
        .chrome_json = 0xefcc4ebfe6dd2105ull};
    expectDigest(replay(opts, p, trace), kGolden);
}

/** Policy runs must not disturb baseline metric names or results. */
TEST(ClusterEquivTest, BaselinePolicyMatchesLegacyMetricNames)
{
    ClusterOptions opts;
    constexpr Digest kGolden{
        .ttft = 0x0a27114bdb3e954eull, .e2e = 0x9e6a2ef81c3b6510ull,
        .launch = 0xd137d9e6997fe665ull, .completed = 407, .cold_starts = 4,
        .achieved_qps = 0x1.bc7d6d4eb184bp-1,
        .makespan_sec = 0x1.d4d0e560417f4p+8,
        .gpu_seconds = 0x1.7942e147ae088p+10, .instances_launched = 4,
        .peak_live_instances = 4, .metrics_json = 0x665a8532107b5487ull,
        .chrome_json = 0x7ae6260541710695ull};
    const RunResult r =
        replay(opts, toyProfile(1.0), fig10Trace(3.0, 20250408ull));
    expectDigest(r, kGolden);
    EXPECT_EQ(r.metrics.cold_pool_hits, 0u);
    EXPECT_EQ(r.metrics.affinity_evictions, 0u);
}

/**
 * The scheduler paths the old loop never had, pinned to a digest
 * recorded from the scheduler itself: affinity placement of eight
 * models over two-GPU nodes, every chaos failure kind, and SLO
 * admission plus deadline shedding.
 */
TEST(ClusterEquivTest, ArmedAffinitySchedulerMatchesGolden)
{
    workload::SyntheticTraceOptions sopts;
    sopts.seed = 20250809;
    sopts.duration_sec = 120;
    sopts.requests_per_sec = 8;
    sopts.diurnal_period_sec = 60;
    sopts.num_models = 8;
    const auto trace = workload::generateSyntheticTrace(sopts);
    ChaosPlan plan;
    plan.seed = 78;
    plan.node_mtbf_sec = 25.0;
    plan.node_mttr_sec = 5.0;
    plan.inst_mtbf_sec = 12.0;
    plan.store_mtbf_sec = 30.0;
    plan.gray_mtbf_sec = 10.0;
    ClusterOptions opts;
    opts.policy = SchedulerPolicy::kAffinity;
    opts.num_models = 8;
    opts.num_gpus = 16;
    opts.gpus_per_node = 2;
    opts.node_artifact_miss_sec = 0.6;
    opts.chaos = &plan;
    opts.slo.default_ttft_sec = 8.0;
    opts.slo.admission_control = true;
    opts.slo.shed_on_deadline = true;
    const RunResult r = replay(opts, toyProfile(1.5), trace);
    const TraceMetrics &m = r.metrics;
    // Every armed path fired, so the golden pins each of them.
    EXPECT_GT(m.node_crashes, 0u);
    EXPECT_GT(m.instance_crashes, 0u);
    EXPECT_GT(m.store_outages, 0u);
    EXPECT_GT(m.gray_fetches, 0u);
    EXPECT_GT(m.shed_admission, 0u);
    EXPECT_GT(m.shed_deadline, 0u);
    EXPECT_GT(m.node_warm_launches, 0u);
    EXPECT_GT(m.affinity_evictions, 0u);
    EXPECT_EQ(m.completed + m.shed_admission + m.shed_deadline +
                  m.failed_requests,
              trace.size());
    constexpr Digest kGolden{
        .ttft = 0xf553651ee4f52715ull, .e2e = 0xcf9c44e14ec954a6ull,
        .launch = 0xc44251f8415bef30ull, .completed = 577, .cold_starts = 23,
        .achieved_qps = 0x1.8805860b70b7cp+0,
        .makespan_sec = 0x1.78cbab93b93d8p+8,
        .gpu_seconds = 0x1.328a0c20c9bb5p+11, .instances_launched = 23,
        .peak_live_instances = 12, .metrics_json = 0x2b9a0edbdaf84863ull,
        .chrome_json = 0x2b8ec42a9a55443bull};
    expectDigest(r, kGolden);
}

/**
 * The scale contract: the scheduler replays a million-request trace
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

    const ServingProfile p = toyProfile(1.0);
    ClusterOptions opts;
    opts.num_gpus = 2048;
    opts.idle_timeout_sec = 2.0;
    opts.profile = &p;

    TraceMetrics a = simulateCluster(opts, trace);
    TraceMetrics b = simulateCluster(opts, trace);

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
    const RunResult sim = replay(opts, p, trace);

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
    expectDigest(served, digestOf(sim));

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
 * leave the scheduler BYTE-IDENTICAL to today's fault-free simulator:
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
    const RunResult a = replay(plain, p, trace);
    const RunResult b = replay(armed, p, trace);
    expectDigest(b, digestOf(a));
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
    const RunResult a = replay(opts, p, trace);
    const RunResult b = replay(opts, p, trace);
    expectDigest(b, digestOf(a));
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

} // namespace
} // namespace medusa::serverless
