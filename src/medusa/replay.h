/**
 * @file
 * The online phase on one runtime, shared by the single-GPU
 * MedusaEngine (restore.h) and every rank of the tensor-parallel driver
 * (tp.h): the allocation-replay interceptor plus the two steps both
 * engines run per runtime — structure init verified against the image,
 * then the image restore stages (replay, rebind, contents, kernel
 * resolution, the relocation patch pass and graph instantiation).
 */

#ifndef MEDUSA_MEDUSA_REPLAY_H
#define MEDUSA_MEDUSA_REPLAY_H

#include <span>
#include <string>
#include <vector>

#include "llm/runtime.h"
#include "medusa/image.h"
#include "medusa/restore_options.h"

namespace medusa::core {

/**
 * The online interceptor: records the address returned for every
 * allocation index and verifies that the organic prefix (structure
 * init) reproduces the image's recorded sizes.
 */
class ReplayTable final : public simcuda::AllocObserver
{
  public:
    /**
     * Observe against @p ops directly (the caller — typically a
     * MaterializedImage — keeps the op storage alive).
     */
    ReplayTable(std::span<const AllocOp> ops, u64 organic_alloc_count);

    void onAlloc(u64 seq_index, DeviceAddr addr, u64 logical_size,
                 u64 backing_size) override;
    void onFree(DeviceAddr addr) override { (void)addr; }

    /** The replayed address of an allocation index. */
    StatusOr<DeviceAddr> addrOf(u64 alloc_index) const;

    /** OK iff the organic prefix matched the image. */
    Status organicStatus() const;

    u64 allocCount() const { return addr_of_.size(); }

  private:
    u64 organic_alloc_count_ = 0;
    std::vector<const AllocOp *> alloc_ops_;
    std::vector<DeviceAddr> addr_of_;
    std::string mismatch_;
};

/**
 * Step 1 of the online phase on one runtime: organic structure init,
 * verified against the image's allocation prefix (sizes via the
 * @p table interceptor, then the allocation count).
 */
Status initImageStructure(const MaterializedImage &image,
                          llm::ModelRuntime &rt, const ReplayTable &table);

/**
 * Steps 2-8 of the online phase (restore.h) on one runtime whose
 * structure init already passed initImageStructure: tokenizer from the
 * embedded merges, image read, allocation replay, rebind, weights,
 * contents, kernel resolution, the patch pass and instantiation.
 * Fills the per-stage durations of @p t (not t.loading) and
 * @p report; spans go to options.pipeline.trace. @p model is the
 * runtime's own config (a TP rank carries its tp_rank/tp_world).
 */
Status restoreImageStages(const MaterializedImage &image,
                          const llm::ModelConfig &model,
                          const RestoreOptions &options,
                          llm::ModelRuntime &rt, const ReplayTable &table,
                          StageTimes &t, RestoreReport &report);

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_REPLAY_H
