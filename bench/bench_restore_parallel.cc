/**
 * @file
 * Host wall-clock benchmark of the restore pipeline: v6 image open, the
 * Medusa cold start (image open + relocation patch, DESIGN.md §13)
 * against the vanilla profile+capture cold start it replaces, and the
 * image cache (miss vs hit).
 *
 * Everything here measures *host* time — the simulator's own speed.
 * Two invariants are asserted and reported:
 *   - determinism: the patch path's simulated StageTimes and
 *     RestoreReport are bit-identical across trials
 *     (`simulated_identical`);
 *   - fidelity: the restored engine decodes bs=1 logits bit-identical
 *     to the vanilla cold start's, with an identical module table
 *     (`fidelity_identical`). The two paths legitimately differ in
 *     simulated duration, so that is reported, not compared.
 *
 * Trials of the timed arms are interleaved with an alternating start
 * order and preceded by an untimed warmup of both arms, so neither arm
 * systematically benefits from allocator / page-cache state the other
 * warmed up. Cache benchmarks reset cache state between miss trials.
 *
 * --json emits one machine-readable object (scripts/bench.sh captures
 * it as BENCH_restore.json).
 */

#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "llm/engine.h"
#include "llm/model_config.h"
#include "medusa/artifact_cache.h"
#include "medusa/restore.h"

namespace medusa::bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

f64
msBetween(SteadyClock::time_point a, SteadyClock::time_point b)
{
    return std::chrono::duration<f64, std::milli>(b - a).count();
}

/** Best-of-reps wall time of fn(), in milliseconds. */
template <typename Fn>
f64
bestMs(int reps, Fn &&fn)
{
    f64 best = 1e300;
    for (int i = 0; i < reps; ++i) {
        const auto start = SteadyClock::now();
        fn();
        best = std::min(best, msBetween(start, SteadyClock::now()));
    }
    return best;
}

struct ColdStartSample
{
    f64 wall_ms = 0;
    llm::StageTimes times;
    core::RestoreReport report;
    /** Module-table fingerprint (fidelity witness). */
    u64 modules = 0;
    /** Decode logits for bs=1 on the engine's graphs (fidelity). */
    std::vector<f32> logits;
};

/** Snapshot the fidelity witnesses of a cold-started runtime. */
void
probe(llm::ModelRuntime &rt, ColdStartSample &s)
{
    s.modules = rt.process().modules().stateFingerprint();
    checkOk(rt.stageValidationState(1), "stage state");
    s.logits = unwrap(rt.graphDecodeLogits(1), "logits");
}

/**
 * One Medusa cold start: v6 open + coldStartFromImage (relocation
 * patch). Open is inside the timed window — it is part of what a
 * serverless cold start pays. @p with_probe additionally snapshots the
 * fidelity witnesses (outside the timed window).
 */
ColdStartSample
runPatchArm(const llm::ModelConfig &model, std::span<const u8> image_bytes,
            bool with_probe = false, TraceRecorder *trace = nullptr,
            MetricsRegistry *metrics = nullptr)
{
    ColdStartSample s;
    const auto start = SteadyClock::now();
    auto image = unwrap(core::MaterializedImage::openView(image_bytes),
                        "patch arm open");
    core::MedusaEngine::Options opts;
    opts.model = model;
    opts.restore.pipeline.trace = trace;
    opts.restore.pipeline.metrics = metrics;
    auto engine =
        unwrap(core::MedusaEngine::coldStartFromImage(opts, image),
               "patch cold start");
    s.wall_ms = msBetween(start, SteadyClock::now());
    s.times = engine->coldStartReport().times;
    s.report = engine->coldStartReport().restore;
    if (with_probe) {
        probe(engine->runtime(), s);
    }
    return s;
}

/**
 * One vanilla cold start (profile + capture), with the ASLR seed of the
 * Medusa engine so the module tables are comparable.
 */
ColdStartSample
runVanillaArm(const llm::ModelConfig &model, bool with_probe = false)
{
    ColdStartSample s;
    const auto start = SteadyClock::now();
    llm::BaselineEngine::Options opts;
    opts.model = model;
    opts.strategy = llm::Strategy::kVllm;
    opts.aslr_seed = core::MedusaEngine::Options{}.aslr_seed;
    auto engine =
        unwrap(llm::BaselineEngine::coldStart(opts), "vanilla cold start");
    s.wall_ms = msBetween(start, SteadyClock::now());
    s.times = engine->coldStartReport().times;
    if (with_probe) {
        probe(engine->runtime(), s);
    }
    return s;
}

bool
sameTimes(const llm::StageTimes &a, const llm::StageTimes &b)
{
    return a.struct_init == b.struct_init && a.weights == b.weights &&
           a.tokenizer == b.tokenizer && a.kv_init == b.kv_init &&
           a.capture == b.capture && a.runtime_init == b.runtime_init &&
           a.loading == b.loading;
}

bool
sameReport(const core::RestoreReport &a, const core::RestoreReport &b)
{
    return a.nodes_restored == b.nodes_restored &&
           a.graphs_restored == b.graphs_restored &&
           a.kernels_via_dlsym == b.kernels_via_dlsym &&
           a.kernels_via_enumeration == b.kernels_via_enumeration &&
           a.replayed_allocs == b.replayed_allocs &&
           a.replayed_frees == b.replayed_frees &&
           a.restored_content_bytes == b.restored_content_bytes &&
           a.indirect_pointers_fixed == b.indirect_pointers_fixed &&
           a.relocations_applied == b.relocations_applied &&
           a.kernels_resolved == b.kernels_resolved &&
           a.graphs_patched == b.graphs_patched;
}

int
run(int argc, char **argv)
{
    Reporter reporter(argc, argv);
    bool json = false;
    std::string model_name = "Llama2-13B";
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--model=", 0) == 0) {
            model_name = arg.substr(8);
        } else if (arg.rfind("--reps=", 0) == 0) {
            reps = std::stoi(arg.substr(7));
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json] [--model=NAME] [--reps=N]\n",
                         argv[0]);
            return 2;
        }
    }

    const llm::ModelConfig model =
        unwrap(llm::findModel(model_name), "model lookup");
    const std::vector<u8> image_bytes =
        unwrap(materializeImageCached(model), "image materialization");
    const std::span<const u8> image_view(image_bytes);
    const auto image = unwrap(core::MaterializedImage::openView(image_view),
                              "image open");

    const f64 image_open_ms = bestMs(reps, [&]() {
        auto img = core::MaterializedImage::openView(image_view);
        checkOk(img.status(), "image open");
    });

    // ---- cold start: vanilla vs relocation patch --------------------------
    // Untimed warmup of both arms first, then interleaved trials with an
    // alternating start order: no arm gets a systematic warm-state edge.
    runVanillaArm(model);
    runPatchArm(model, image_view);

    ColdStartSample vanilla;
    ColdStartSample patch;
    vanilla.wall_ms = patch.wall_ms = 1e300;
    bool identical = true;
    auto takeVanilla = [&]() {
        vanilla.wall_ms =
            std::min(vanilla.wall_ms, runVanillaArm(model).wall_ms);
    };
    auto takePatch = [&]() {
        ColdStartSample s = runPatchArm(model, image_view);
        if (patch.wall_ms > 1e299) {
            patch = std::move(s);
        } else {
            identical = identical && sameTimes(patch.times, s.times) &&
                        sameReport(patch.report, s.report);
            patch.wall_ms = std::min(patch.wall_ms, s.wall_ms);
        }
    };
    for (int i = 0; i < reps; ++i) {
        if (i % 2 == 0) {
            takeVanilla();
            takePatch();
        } else {
            takePatch();
            takeVanilla();
        }
    }

    // ---- fidelity: the restore must equal the vanilla cold start ------
    // Asserted once, outside the timed windows (the probes decode). The
    // patch probe also carries the --trace-out / --metrics-out sinks.
    const ColdStartSample vanilla_probe =
        runVanillaArm(model, /*with_probe=*/true);
    const ColdStartSample patch_probe =
        runPatchArm(model, image_view, /*with_probe=*/true,
                    reporter.trace(), reporter.metrics());
    const bool fidelity = vanilla_probe.modules == patch_probe.modules &&
                          !vanilla_probe.logits.empty() &&
                          vanilla_probe.logits == patch_probe.logits;

    // ---- image cache: miss vs hit -----------------------------------------
    // Miss trials reset the cache state first so every trial pays a
    // genuine open; hit trials run against a warm entry.
    core::ImageCache image_cache;
    auto image_loader = [&]() {
        return core::MaterializedImage::openView(image_view);
    };
    f64 image_cache_miss_ms = 1e300;
    for (int i = 0; i < reps; ++i) {
        image_cache.clear();
        const auto start = SteadyClock::now();
        auto loaded = image_cache.getOrLoad("bench", image_loader);
        image_cache_miss_ms = std::min(
            image_cache_miss_ms, msBetween(start, SteadyClock::now()));
        checkOk(loaded.status(), "image cache miss load");
    }
    const f64 image_cache_hit_ms = bestMs(reps, [&]() {
        auto again = image_cache.getOrLoad("bench", image_loader);
        checkOk(again.status(), "image cache hit load");
    });

    const f64 coldstart_speedup =
        vanilla.wall_ms / std::max(patch.wall_ms, 1e-9);
    if (json) {
        std::printf(
            "{\n"
            "  \"model\": \"%s\",\n"
            "  \"image_bytes\": %zu,\n"
            "  \"graphs\": %zu,\n"
            "  \"nodes\": %llu,\n"
            "  \"image_open_ms\": %.3f,\n"
            "  \"coldstart_vanilla_wall_ms\": %.3f,\n"
            "  \"coldstart_patch_wall_ms\": %.3f,\n"
            "  \"coldstart_speedup\": %.2f,\n"
            "  \"relocations_applied\": %llu,\n"
            "  \"kernels_resolved\": %llu,\n"
            "  \"graphs_patched\": %llu,\n"
            "  \"vanilla_simulated_loading_sec\": %.6f,\n"
            "  \"patch_simulated_loading_sec\": %.6f,\n"
            "  \"simulated_identical\": %s,\n"
            "  \"fidelity_identical\": %s,\n"
            "  \"image_cache_miss_ms\": %.3f,\n"
            "  \"image_cache_hit_ms\": %.3f\n"
            "}\n",
            model.name.c_str(), image_bytes.size(), image.graphs.size(),
            static_cast<unsigned long long>(image.total_nodes),
            image_open_ms, vanilla.wall_ms, patch.wall_ms,
            coldstart_speedup,
            static_cast<unsigned long long>(
                patch.report.relocations_applied),
            static_cast<unsigned long long>(patch.report.kernels_resolved),
            static_cast<unsigned long long>(patch.report.graphs_patched),
            vanilla_probe.times.loading, patch.times.loading,
            identical ? "true" : "false", fidelity ? "true" : "false",
            image_cache_miss_ms, image_cache_hit_ms);
    } else {
        std::printf("restore pipeline — %s (%zu graphs, %llu nodes, "
                    "%zu image bytes)\n",
                    model.name.c_str(), image.graphs.size(),
                    static_cast<unsigned long long>(image.total_nodes),
                    image_bytes.size());
        printRule();
        std::printf("image open          %8.3f ms\n", image_open_ms);
        printRule();
        std::printf("cold start vanilla  %8.3f ms wall\n",
                    vanilla.wall_ms);
        std::printf("cold start patch    %8.3f ms wall  (%.2fx, %llu "
                    "relocations)\n",
                    patch.wall_ms, coldstart_speedup,
                    static_cast<unsigned long long>(
                        patch.report.relocations_applied));
        std::printf("simulated loading vanilla %8.3f ms\n",
                    vanilla_probe.times.loading * 1e3);
        std::printf("simulated loading patch   %8.3f ms (trial "
                    "independent: %s; logits + modules = vanilla: %s)\n",
                    patch.times.loading * 1e3,
                    identical ? "yes" : "NO — DETERMINISM BUG",
                    fidelity ? "yes" : "NO — FIDELITY BUG");
        printRule();
        std::printf("image cache miss    %8.3f ms\n", image_cache_miss_ms);
        std::printf("image cache hit     %8.3f ms\n", image_cache_hit_ms);
    }
    reporter.finish();
    return identical && fidelity ? 0 : 1;
}

} // namespace
} // namespace medusa::bench

int
main(int argc, char **argv)
{
    return medusa::bench::run(argc, argv);
}
