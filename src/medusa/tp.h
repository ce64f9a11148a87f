/**
 * @file
 * Medusa for tensor-parallel serving — the paper's §8 future work:
 * "constructing the indirect index pointer table across multiple GPU
 * instances".
 *
 * Offline, each rank runs its own recorder through the capturing-stage
 * cold start (per-rank allocation sequences, per-rank graphs with
 * all-reduce collective nodes) and the analysis produces one artifact
 * and one v6 image per rank. Online, every rank restores from its own
 * image — replays its own allocation sequence, resolves its own kernel
 * addresses and patches its own graphs in its own process — with the
 * single-GPU building blocks (replay.h); the restored graphs are
 * validated by lockstep replay against a reference capture.
 */

#ifndef MEDUSA_MEDUSA_TP_H
#define MEDUSA_MEDUSA_TP_H

#include <memory>
#include <vector>

#include "llm/tensor_parallel.h"
#include "medusa/artifact.h"
#include "medusa/replay.h"
#include "medusa/restore_options.h"

namespace medusa::core {

/** Offline-phase options for a tensor-parallel deployment. */
struct TpOfflineOptions
{
    llm::ModelConfig model;
    u32 world = 2;
    /** Batch sizes to capture (the full 35 by default). */
    std::vector<u32> batch_sizes;
    u64 aslr_seed = 1;
    const CostModel *cost = nullptr;
};

/** One artifact and one image per rank plus offline-phase timings. */
struct TpOfflineResult
{
    /** The per-rank analysis products (lint input, image source). */
    std::vector<Artifact> rank_artifacts;
    /**
     * One serialized v6 image per rank (DESIGN.md §13): each rank's
     * artifact flattened for the relocation-patch restore path, with
     * that rank's tokenizer merges embedded.
     */
    std::vector<std::vector<u8>> rank_images;
    f64 capture_stage_sec = 0;
    f64 analysis_stage_sec = 0;

    f64 totalOffline() const
    {
        return capture_stage_sec + analysis_stage_sec;
    }

    /**
     * Open every rank image zero-copy (MaterializedImage::openView);
     * this result must outlive the returned images.
     */
    StatusOr<std::vector<MaterializedImage>> openImages() const;
};

/** Run the tensor-parallel offline phase. */
StatusOr<TpOfflineResult> materializeTp(const TpOfflineOptions &opts);

/**
 * A tensor-parallel serving cluster cold-started through Medusa's
 * online phase on every rank.
 */
class TpMedusaEngine
{
  public:
    struct Options
    {
        llm::ModelConfig model;
        u32 world = 2;
        u64 aslr_seed = 7;
        const CostModel *cost = nullptr;
        RestoreOptions restore;
    };

    /**
     * Restore every rank from its image, stage-interleaved across
     * ranks, inside one transactional attempt loop: a failure on any
     * rank rolls every rank back, and retry and the vanilla fallback
     * act on the whole cluster. With options.restore.pipeline.lint the
     * images must first pass lintTpImages (per-rank MDL7xx/8xx plus
     * the MDL6xx cross-rank rules); with pipeline.validate the restored
     * cluster must match a vanilla-captured reference cluster in
     * lockstep. The images must outlive the returned engine.
     */
    static StatusOr<std::unique_ptr<TpMedusaEngine>>
    coldStart(const Options &opts,
              const std::vector<MaterializedImage> &rank_images);

    llm::TpCluster &cluster() { return *cluster_; }

    /**
     * The consolidated whole-cluster report: shared attempt accounting,
     * counters summed over ranks, per-rank spans on track = rank, and
     * times.loading = the slowest rank's visible loading latency
     * (DESIGN.md §12).
     */
    const ColdStartReport &coldStartReport() const { return report_; }

    /**
     * Genuinely per-rank restore detail (index = rank); whole-cluster
     * counters and the visible loading latency live in
     * coldStartReport().
     */
    const std::vector<RestoreReport> &
    rankRestoreReports() const
    {
        return reports_;
    }

  private:
    TpMedusaEngine() = default;

    /** Declared before the cluster so they outlive the allocators. */
    std::vector<std::unique_ptr<ReplayTable>> tables_;
    std::unique_ptr<llm::TpCluster> cluster_;
    std::vector<RestoreReport> reports_;
    ColdStartReport report_;
};

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_TP_H
