/**
 * @file
 * Concurrency around the restore: whole-engine cold starts sharing one
 * opened image, whose simulated results must be bit-identical (the
 * TSan target of scripts/check.sh).
 */

#include <gtest/gtest.h>

#include <thread>

#include "llm/engine.h"
#include "medusa/offline.h"
#include "medusa/restore.h"

namespace medusa {
namespace {

using core::MaterializedImage;
using core::MedusaEngine;
using core::OfflineOptions;
using core::RestoreReport;
using core::materialize;
using llm::findModel;
using llm::ModelConfig;
using llm::StageTimes;

/** A reduced model keeps the tests fast but structurally real. */
ModelConfig
tinyModel()
{
    ModelConfig m = findModel("Qwen1.5-0.5B").value();
    m.num_layers = 4;
    return m;
}

/** One shared offline run for the whole suite. */
const core::OfflineResult &
sharedOffline()
{
    static const core::OfflineResult result = []() {
        OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        return materialize(opts).value();
    }();
    return result;
}

/** The shared offline run's image, opened once (zero-copy). */
const MaterializedImage &
sharedImage()
{
    static const MaterializedImage image =
        sharedOffline().openImage().value();
    return image;
}

StatusOr<std::unique_ptr<MedusaEngine>>
coldStart()
{
    MedusaEngine::Options opts;
    opts.model = tinyModel();
    return MedusaEngine::coldStartFromImage(opts, sharedImage());
}

void
expectSameTimes(const StageTimes &a, const StageTimes &b)
{
    EXPECT_EQ(a.struct_init, b.struct_init);
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.tokenizer, b.tokenizer);
    EXPECT_EQ(a.kv_init, b.kv_init);
    EXPECT_EQ(a.capture, b.capture);
    EXPECT_EQ(a.runtime_init, b.runtime_init);
    EXPECT_EQ(a.loading, b.loading);
}

void
expectSameReport(const RestoreReport &a, const RestoreReport &b)
{
    EXPECT_EQ(a.nodes_restored, b.nodes_restored);
    EXPECT_EQ(a.graphs_restored, b.graphs_restored);
    EXPECT_EQ(a.kernels_via_dlsym, b.kernels_via_dlsym);
    EXPECT_EQ(a.kernels_via_enumeration, b.kernels_via_enumeration);
    EXPECT_EQ(a.replayed_allocs, b.replayed_allocs);
    EXPECT_EQ(a.replayed_frees, b.replayed_frees);
    EXPECT_EQ(a.restored_content_bytes, b.restored_content_bytes);
    EXPECT_EQ(a.indirect_pointers_fixed, b.indirect_pointers_fixed);
    EXPECT_EQ(a.relocations_applied, b.relocations_applied);
    EXPECT_EQ(a.kernels_resolved, b.kernels_resolved);
    EXPECT_EQ(a.graphs_patched, b.graphs_patched);
    EXPECT_EQ(a.validated, b.validated);
}

TEST(RestoreParallel, ConcurrentColdStartsShareOneArtifact)
{
    // Several engines restoring from one const opened image
    // concurrently (one image, many instances: the ImageCache sharing
    // model) — the data-race surface TSan checks via scripts/check.sh.
    constexpr int kEngines = 4;
    std::vector<std::thread> threads;
    std::vector<StatusOr<std::unique_ptr<MedusaEngine>>> results;
    for (int i = 0; i < kEngines; ++i) {
        results.emplace_back(internalError("not run"));
    }
    for (int i = 0; i < kEngines; ++i) {
        threads.emplace_back([i, &results]() {
            results[i] = coldStart();
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    ASSERT_TRUE(results[0].isOk()) << results[0].status().toString();
    for (int i = 1; i < kEngines; ++i) {
        ASSERT_TRUE(results[i].isOk())
            << results[i].status().toString();
        expectSameTimes((*results[0])->coldStartReport().times, (*results[i])->coldStartReport().times);
        expectSameReport((*results[0])->coldStartReport().restore,
                         (*results[i])->coldStartReport().restore);
    }
}

} // namespace
} // namespace medusa
