/**
 * @file
 * The v6 materialized image (DESIGN.md §13): round-trip from an
 * artifact, zero-copy open, relocation-patch restore determinism and
 * fidelity (pinned values recorded from the retired graph-rebuild
 * path, plus a live vanilla cold start), byte-identical re-emission,
 * and rejection of truncated, bit-flipped and misaligned buffers.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/fault.h"
#include "common/serialize.h"
#include "llm/engine.h"
#include "medusa/image.h"
#include "medusa/offline.h"
#include "medusa/restore.h"

namespace medusa {
namespace {

using core::Artifact;
using core::ImageReadOptions;
using core::MaterializedImage;
using core::MedusaEngine;
using core::OfflineOptions;
using core::materialize;
using llm::findModel;
using llm::ModelConfig;

ModelConfig
tinyModel()
{
    ModelConfig m = findModel("Qwen1.5-0.5B").value();
    m.num_layers = 4;
    return m;
}

struct Fixture
{
    Artifact artifact;
    std::vector<u8> image_bytes;
};

/** One shared offline run for the whole suite. */
const Fixture &
shared()
{
    static const Fixture f = []() {
        OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        auto result = materialize(opts).value();
        return Fixture{std::move(result.artifact),
                       std::move(result.image_bytes)};
    }();
    return f;
}

StatusOr<std::unique_ptr<MedusaEngine>>
patchColdStart(const MaterializedImage &image, u64 aslr_seed = 2)
{
    MedusaEngine::Options opts;
    opts.model = tinyModel();
    opts.aslr_seed = aslr_seed;
    return MedusaEngine::coldStartFromImage(opts, image);
}

// ---- round trip ---------------------------------------------------------

TEST(ImageTest, RoundTripMatchesArtifact)
{
    const Fixture &f = shared();
    auto image =
        MaterializedImage::openView(std::span<const u8>(f.image_bytes));
    ASSERT_TRUE(image.isOk()) << image.status().toString();

    EXPECT_EQ(image->model_name, f.artifact.model_name);
    EXPECT_EQ(image->model_seed, f.artifact.model_seed);
    EXPECT_EQ(image->free_gpu_memory, f.artifact.free_gpu_memory);
    EXPECT_EQ(image->ops.size(), f.artifact.ops.size());
    EXPECT_EQ(image->graphs.size(), f.artifact.graphs.size());
    EXPECT_EQ(image->total_nodes, f.artifact.totalNodes());
    EXPECT_EQ(image->permanent.size(), f.artifact.permanent.size());
    EXPECT_EQ(image->serialized_size, f.image_bytes.size());
    EXPECT_FALSE(image->kernel_table.empty());
    EXPECT_FALSE(image->tokenizer_merges.empty());
    // A real model has pointer params in every graph: the relocation
    // table cannot be empty, and the slot template must cover every
    // node's function slot plus every param slot.
    EXPECT_GT(image->data_relocs.size(), 0u);
    EXPECT_GT(image->kernel_relocs.size(), 0u);
    u64 slots = 0;
    for (const auto &g : image->graphs) {
        slots += static_cast<u64>(g.node_count) + g.param_len.size();
        EXPECT_EQ(g.order.size(), g.node_count);
        EXPECT_EQ(g.param_begin.size(), g.node_count + 1u);
    }
    EXPECT_EQ(image->patch_template.size(), slots);

    // Emission is a pure function of the artifact and the merge list:
    // flattening the artifact again gives the offline phase's bytes.
    auto again = core::buildImageBytes(f.artifact, image->tokenizer_merges);
    ASSERT_TRUE(again.isOk()) << again.status().toString();
    EXPECT_EQ(*again, f.image_bytes);
}

TEST(ImageTest, OwningOpenEqualsView)
{
    const Fixture &f = shared();
    std::vector<u8> copy = f.image_bytes;
    auto owned = MaterializedImage::open(std::move(copy));
    ASSERT_TRUE(owned.isOk()) << owned.status().toString();
    EXPECT_EQ(owned->model_name, f.artifact.model_name);
    EXPECT_EQ(owned->total_nodes, f.artifact.totalNodes());

    // Moving the image must keep its spans valid (they point into the
    // adopted buffer, whose heap allocation is move-stable).
    MaterializedImage moved = std::move(*owned);
    EXPECT_EQ(moved.total_nodes, f.artifact.totalNodes());
    EXPECT_FALSE(moved.patch_template.empty());
}

TEST(ImageTest, OpenFileMapsReadOnly)
{
    const Fixture &f = shared();
    const std::string path =
        ::testing::TempDir() + "image_test_mmap.mdsi";
    ASSERT_TRUE(writeFile(path, f.image_bytes).isOk());

    auto mapped = MaterializedImage::openFile(path);
    ASSERT_TRUE(mapped.isOk()) << mapped.status().toString();
    EXPECT_TRUE(mapped->isMapped());
    EXPECT_EQ(mapped->model_name, f.artifact.model_name);
    EXPECT_EQ(mapped->serialized_size, f.image_bytes.size());
    EXPECT_EQ(mapped->total_nodes, f.artifact.totalNodes());

    // The mapping stays valid across a move of the image.
    MaterializedImage moved = std::move(*mapped);
    EXPECT_TRUE(moved.isMapped());
    EXPECT_FALSE(moved.patch_template.empty());

    // A mapped image drives the patch restore like an in-memory one.
    auto engine = patchColdStart(moved, 41);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();

    auto missing = MaterializedImage::openFile(path + ".nope");
    EXPECT_FALSE(missing.isOk());
}

TEST(ImageTest, OpenFileReadFallbackMatchesMapped)
{
    const Fixture &f = shared();
    const std::string path =
        ::testing::TempDir() + "image_test_read.mdsi";
    ASSERT_TRUE(writeFile(path, f.image_bytes).isOk());

    ImageReadOptions ropts;
    ropts.use_mmap = false; // the fallback path, forced
    auto read = MaterializedImage::openFile(path, ropts);
    ASSERT_TRUE(read.isOk()) << read.status().toString();
    EXPECT_FALSE(read->isMapped());

    auto mapped = MaterializedImage::openFile(path);
    ASSERT_TRUE(mapped.isOk());
    EXPECT_EQ(read->model_name, mapped->model_name);
    EXPECT_EQ(read->total_nodes, mapped->total_nodes);
    EXPECT_EQ(read->data_relocs.size(), mapped->data_relocs.size());
    EXPECT_EQ(read->kernel_relocs.size(), mapped->kernel_relocs.size());
    EXPECT_EQ(read->patch_template.size(),
              mapped->patch_template.size());

    // Both paths restore to the same process state.
    auto a = patchColdStart(*read, 43);
    auto b = patchColdStart(*mapped, 43);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    ASSERT_TRUE(b.isOk()) << b.status().toString();
    EXPECT_EQ((*a)->runtime().process().stateFingerprint(),
              (*b)->runtime().process().stateFingerprint());
}

// ---- relocation-patch restore: determinism + fidelity -------------------

TEST(ImageTest, PatchRestoreIsDeterministic)
{
    const Fixture &f = shared();
    auto image =
        MaterializedImage::openView(std::span<const u8>(f.image_bytes));
    ASSERT_TRUE(image.isOk());

    auto first = patchColdStart(*image, 77);
    auto second = patchColdStart(*image, 77);
    ASSERT_TRUE(first.isOk()) << first.status().toString();
    ASSERT_TRUE(second.isOk()) << second.status().toString();

    EXPECT_EQ((*first)->runtime().process().stateFingerprint(),
              (*second)->runtime().process().stateFingerprint());
    EXPECT_EQ((*first)->runtime().allocator().stateFingerprint(),
              (*second)->runtime().allocator().stateFingerprint());
    EXPECT_EQ((*first)->coldStartReport().restore.relocations_applied,
              (*second)->coldStartReport().restore.relocations_applied);
    EXPECT_EQ((*first)->coldStartReport().restore.graphs_patched,
              (*second)->coldStartReport().restore.graphs_patched);
}

/** FNV-1a over the raw bytes of a logits vector. */
u64
logitsDigest(const std::vector<f32> &logits)
{
    u64 h = 0xcbf29ce484222325ull;
    const auto *p = reinterpret_cast<const u8 *>(logits.data());
    for (std::size_t i = 0; i < logits.size() * sizeof(f32); ++i) {
        h = (h ^ p[i]) * 0x100000001b3ull;
    }
    return h;
}

TEST(ImageTest, PatchRestoreFingerprintAndLogitsMatchRebuildPath)
{
    // Pinned equivalence with the retired graph-rebuild restore path:
    // these constants were recorded from that path (same offline run,
    // same ASLR seed) before it was deleted. The logical fingerprint
    // (process state minus clock-derived values, with the allocator
    // digest folded in) and the bs=1 / bs=4 decode logits must still
    // come out bit-identical.
    constexpr u64 kRebuildFingerprint = 0x1e3ae1879984ea7bull;
    constexpr u64 kRebuildLogitsBs1 = 0xc7b4f002fbe3446full;
    constexpr u64 kRebuildLogitsBs4 = 0x4369d3aa63734f90ull;
    constexpr u64 kSeed = 99;

    const Fixture &f = shared();
    auto image =
        MaterializedImage::openView(std::span<const u8>(f.image_bytes));
    ASSERT_TRUE(image.isOk());
    auto patch = patchColdStart(*image, kSeed);
    ASSERT_TRUE(patch.isOk()) << patch.status().toString();
    llm::ModelRuntime &rt = (*patch)->runtime();
    EXPECT_EQ(rt.process().logicalStateFingerprint() ^
                  (rt.allocator().stateFingerprint() * 31),
              kRebuildFingerprint);

    // The patch report counts per-unique-kernel resolution and
    // relocations instead of per-node rebuild work.
    const core::RestoreReport &pr = (*patch)->coldStartReport().restore;
    EXPECT_EQ(pr.graphs_patched, f.artifact.graphs.size());
    EXPECT_EQ(pr.nodes_restored, f.artifact.totalNodes());
    EXPECT_GT(pr.relocations_applied, 0u);
    EXPECT_GT(pr.kernels_resolved, 0u);

    std::vector<f32> bs1;
    for (const auto &[bs, golden] :
         {std::pair{1u, kRebuildLogitsBs1}, std::pair{4u, kRebuildLogitsBs4}}) {
        ASSERT_TRUE(rt.stageValidationState(bs).isOk());
        auto logits = rt.graphDecodeLogits(bs);
        ASSERT_TRUE(logits.isOk()) << logits.status().toString();
        EXPECT_EQ(logitsDigest(*logits), golden) << "bs=" << bs;
        if (bs == 1) {
            bs1 = std::move(*logits);
        }
    }

    // The live reference that stays in the code: the vanilla
    // profile+capture cold start under the same ASLR seed decodes the
    // same bs=1 logits and loads the same module table.
    llm::BaselineEngine::Options bopts;
    bopts.model = tinyModel();
    bopts.aslr_seed = kSeed;
    auto vanilla = llm::BaselineEngine::coldStart(bopts);
    ASSERT_TRUE(vanilla.isOk()) << vanilla.status().toString();
    llm::ModelRuntime &vrt = (*vanilla)->runtime();
    EXPECT_EQ(rt.process().modules().stateFingerprint(),
              vrt.process().modules().stateFingerprint());
    ASSERT_TRUE(vrt.stageValidationState(1).isOk());
    auto vanilla_bs1 = vrt.graphDecodeLogits(1);
    ASSERT_TRUE(vanilla_bs1.isOk());
    EXPECT_EQ(*vanilla_bs1, bs1); // bit-identical
}

// ---- corruption rejection -----------------------------------------------

TEST(ImageTest, TruncationAnywhereFails)
{
    const Fixture &f = shared();
    for (std::size_t keep :
         {std::size_t{0}, std::size_t{8}, std::size_t{23},
          std::size_t{200}, f.image_bytes.size() / 2,
          f.image_bytes.size() - 1}) {
        std::vector<u8> cut(f.image_bytes.begin(),
                            f.image_bytes.begin() +
                                static_cast<std::ptrdiff_t>(keep));
        auto image =
            MaterializedImage::openView(std::span<const u8>(cut));
        EXPECT_FALSE(image.isOk()) << "kept " << keep << " bytes";
    }
}

TEST(ImageTest, BitFlipAnywhereFailsCrc)
{
    const Fixture &f = shared();
    const std::size_t header = 24;
    for (std::size_t pos :
         {header, header + 1000, f.image_bytes.size() / 2,
          f.image_bytes.size() - 1}) {
        std::vector<u8> corrupt = f.image_bytes;
        corrupt[pos] ^= 0x40;
        auto image =
            MaterializedImage::openView(std::span<const u8>(corrupt));
        ASSERT_FALSE(image.isOk()) << "flipped byte " << pos;
        EXPECT_EQ(image.status().code(), StatusCode::kInternal)
            << image.status().toString();
        EXPECT_NE(image.status().message().find("CRC32"),
                  std::string::npos);
    }
}

TEST(ImageTest, MagicAndVersionMismatchRejected)
{
    const Fixture &f = shared();
    std::vector<u8> wrong_magic = f.image_bytes;
    wrong_magic[0] ^= 0xff;
    auto a =
        MaterializedImage::openView(std::span<const u8>(wrong_magic));
    ASSERT_FALSE(a.isOk());
    EXPECT_NE(a.status().message().find("magic"), std::string::npos);

    std::vector<u8> wrong_version = f.image_bytes;
    wrong_version[4] ^= 0x01;
    auto b =
        MaterializedImage::openView(std::span<const u8>(wrong_version));
    ASSERT_FALSE(b.isOk());
    EXPECT_NE(b.status().message().find("version"), std::string::npos);
}

TEST(ImageTest, MisalignedBufferRejected)
{
    const Fixture &f = shared();
    std::vector<u8> shifted(f.image_bytes.size() + 1);
    std::copy(f.image_bytes.begin(), f.image_bytes.end(),
              shifted.begin() + 1);
    auto image = MaterializedImage::openView(
        std::span<const u8>(shifted.data() + 1, f.image_bytes.size()));
    ASSERT_FALSE(image.isOk());
    EXPECT_EQ(image.status().code(), StatusCode::kInvalidArgument);
}

TEST(ImageTest, OpenFaultInjectable)
{
    const Fixture &f = shared();
    auto plan = FaultPlan::fromSpec("image_open");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);
    ImageReadOptions opts;
    opts.fault = &injector;
    auto image = MaterializedImage::openView(
        std::span<const u8>(f.image_bytes), opts);
    ASSERT_FALSE(image.isOk());
    EXPECT_EQ(image.status().code(), StatusCode::kFaultInjected);
}

} // namespace
} // namespace medusa
