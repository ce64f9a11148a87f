/**
 * @file
 * Google-benchmark microbenchmarks of the substrate hot paths: these
 * measure *host* wall time of the simulator itself (not virtual time),
 * guarding against regressions that would make the experiment harness
 * slow.
 */

#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "llm/runtime.h"
#include "llm/tokenizer.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "simcuda/caching_allocator.h"
#include "simcuda/kernels/builtin.h"

namespace medusa {
namespace {

llm::ModelConfig
tinyModel()
{
    llm::ModelConfig m = llm::findModel("Qwen1.5-0.5B").value();
    m.num_layers = 2;
    return m;
}

void
BM_CachingAllocatorReuse(benchmark::State &state)
{
    SimClock clock;
    CostModel cost;
    simcuda::GpuProcessOptions popts;
    simcuda::GpuProcess process(popts, &clock, &cost);
    simcuda::CachingAllocator alloc(&process);
    for (auto _ : state) {
        auto addr = alloc.allocate(4096, 64);
        benchmark::DoNotOptimize(addr);
        (void)alloc.free(*addr);
    }
}
BENCHMARK(BM_CachingAllocatorReuse);

void
BM_GraphCaptureReplay(benchmark::State &state)
{
    llm::ModelRuntime::Options opts;
    opts.model = tinyModel();
    llm::ModelRuntime rt(opts);
    (void)rt.initStructure();
    (void)rt.loadWeights();
    auto free_bytes = rt.profileFreeMemory();
    (void)rt.initKvCache(*free_bytes);
    const u32 bs = static_cast<u32>(state.range(0));
    (void)rt.warmupDecode(bs);
    auto graph = rt.captureDecode(bs);
    (void)rt.instantiateGraph(bs, *graph);
    for (auto _ : state) {
        auto logits = rt.graphDecodeLogits(bs);
        benchmark::DoNotOptimize(logits);
    }
    state.counters["nodes"] = static_cast<double>(graph->nodeCount());
}
BENCHMARK(BM_GraphCaptureReplay)->Arg(1)->Arg(8)->Arg(64);

void
BM_EagerDecode(benchmark::State &state)
{
    llm::ModelRuntime::Options opts;
    opts.model = tinyModel();
    llm::ModelRuntime rt(opts);
    (void)rt.initStructure();
    (void)rt.loadWeights();
    auto free_bytes = rt.profileFreeMemory();
    (void)rt.initKvCache(*free_bytes);
    const u32 bs = static_cast<u32>(state.range(0));
    (void)rt.warmupDecode(bs);
    for (auto _ : state) {
        auto logits = rt.eagerDecodeLogits(bs);
        benchmark::DoNotOptimize(logits);
    }
}
BENCHMARK(BM_EagerDecode)->Arg(1)->Arg(64);

void
BM_TokenizerEncode(benchmark::State &state)
{
    const std::string corpus = llm::syntheticCorpus(7, 8192);
    const auto tokenizer = llm::BpeTokenizer::train(corpus, 512);
    const std::string text = llm::syntheticCorpus(13, 512);
    for (auto _ : state) {
        auto ids = tokenizer.encode(text);
        benchmark::DoNotOptimize(ids);
    }
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations() * text.size()));
}
BENCHMARK(BM_TokenizerEncode);

void
BM_OfflineMaterialize(benchmark::State &state)
{
    for (auto _ : state) {
        core::OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        auto offline = core::materialize(opts);
        benchmark::DoNotOptimize(offline);
    }
}
BENCHMARK(BM_OfflineMaterialize)->Unit(benchmark::kMillisecond);

/**
 * One traced offline + cold start of the tiny model. Runs only when
 * `--trace-out` / `--metrics-out` were given: the microbench binary
 * then doubles as the smoke-test trace producer for scripts/check.sh,
 * exercising the whole span pipeline end to end.
 */
void
runTracedColdStart(bench::Reporter &reporter)
{
    core::OfflineOptions oopts;
    oopts.model = tinyModel();
    oopts.pipeline.validate = false;
    oopts.pipeline.trace = reporter.trace();
    oopts.pipeline.metrics = reporter.metrics();
    auto offline = core::materialize(oopts);
    bench::checkOk(offline.status(), "materialize");

    core::MedusaEngine::Options eopts;
    eopts.model = oopts.model;
    eopts.restore.pipeline.trace = reporter.trace();
    eopts.restore.pipeline.metrics = reporter.metrics();
    auto image = core::MaterializedImage::openView(
        std::span<const u8>(offline->image_bytes));
    bench::checkOk(image.status(), "open image");
    auto engine = core::MedusaEngine::coldStartFromImage(eopts, *image);
    bench::checkOk(engine.status(), "cold start");
    reporter.setTrackName(0, "medusa");
}

} // namespace
} // namespace medusa

/**
 * Like BENCHMARK_MAIN(), plus a --json convenience alias for
 * --benchmark_format=json so harness scripts can request
 * machine-readable output uniformly across the bench binaries, and the
 * shared --trace-out / --metrics-out reporting flags (DESIGN.md §12).
 */
int
main(int argc, char **argv)
{
    medusa::bench::Reporter reporter(argc, argv);
    static char json_flag[] = "--benchmark_format=json";
    std::vector<char *> args(argv, argv + argc);
    for (char *&arg : args) {
        if (std::string(arg) == "--json") {
            arg = json_flag;
        }
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (reporter.trace() != nullptr || reporter.metrics() != nullptr) {
        medusa::runTracedColdStart(reporter);
    }
    reporter.finish();
    return 0;
}
