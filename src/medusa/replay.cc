#include "medusa/replay.h"

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace medusa::core {

using llm::ModelRuntime;
using simcuda::CudaGraph;

ReplayTable::ReplayTable(std::span<const AllocOp> ops,
                         u64 organic_alloc_count)
    : organic_alloc_count_(organic_alloc_count)
{
    alloc_ops_.reserve(ops.size());
    for (const AllocOp &op : ops) {
        if (op.kind == AllocOp::kAlloc) {
            alloc_ops_.push_back(&op);
        }
    }
}

void
ReplayTable::onAlloc(u64 seq_index, DeviceAddr addr, u64 logical_size,
                     u64 backing_size)
{
    (void)backing_size;
    MEDUSA_CHECK(seq_index == addr_of_.size(),
                 "online allocation sequence out of step");
    addr_of_.push_back(addr);
    if (!mismatch_.empty()) {
        return;
    }
    if (seq_index < organic_alloc_count_) {
        if (seq_index >= alloc_ops_.size() ||
            alloc_ops_[seq_index]->logical_size != logical_size) {
            mismatch_ = "organic allocation " +
                        std::to_string(seq_index) +
                        " diverges from the materialized sequence";
        }
    }
}

StatusOr<DeviceAddr>
ReplayTable::addrOf(u64 alloc_index) const
{
    if (alloc_index >= addr_of_.size()) {
        return internalError("indirect index " +
                             std::to_string(alloc_index) +
                             " beyond replayed sequence");
    }
    return addr_of_[alloc_index];
}

Status
ReplayTable::organicStatus() const
{
    if (!mismatch_.empty()) {
        return validationFailure(mismatch_);
    }
    return Status::ok();
}

namespace {

/**
 * Replay ops[organic_op_count..] through the runtime's allocator (§4.2).
 * @p fault, when set, injects FaultPoint::kReplayPrefix at the organic
 * handoff and kReplayAlloc before each replayed allocation.
 */
Status
replayAllocSequence(std::span<const AllocOp> ops, u64 organic_op_count,
                    ModelRuntime &rt, const ReplayTable &table,
                    RestoreReport &report, FaultInjector *fault)
{
    MEDUSA_FAULT_POINT(fault, FaultPoint::kReplayPrefix,
                       "organic prefix handoff at op " +
                           std::to_string(organic_op_count));
    simcuda::CachingAllocator &alloc = rt.allocator();
    for (u64 pos = organic_op_count; pos < ops.size(); ++pos) {
        const AllocOp &op = ops[pos];
        if (op.kind == AllocOp::kAlloc) {
            MEDUSA_FAULT_POINT(fault, FaultPoint::kReplayAlloc,
                               "replayed op " + std::to_string(pos));
            MEDUSA_ASSIGN_OR_RETURN(
                DeviceAddr addr,
                alloc.allocate(op.logical_size, op.backing_size));
            (void)addr; // the interceptor records it by index
            ++report.replayed_allocs;
            rt.clock().advance(units::usToNs(
                rt.process().cost().restore_replay_alloc_us));
        } else {
            MEDUSA_ASSIGN_OR_RETURN(DeviceAddr addr,
                                    table.addrOf(op.freed_alloc_index));
            MEDUSA_RETURN_IF_ERROR(alloc.free(addr));
            ++report.replayed_frees;
        }
    }
    return Status::ok();
}

/**
 * Re-bind the engine's tagged I/O and KV-cache buffers post-replay,
 * deriving the KV accounting from the materialized free-memory value.
 */
Status
rebindEngineBuffers(const std::map<std::string, u64> &tags,
                    u64 free_gpu_memory, const llm::ModelConfig &m,
                    const ReplayTable &table, ModelRuntime &rt)
{
    auto tagged = [&](const std::string &tag) -> StatusOr<DeviceAddr> {
        auto it = tags.find(tag);
        if (it == tags.end()) {
            return validationFailure("image missing buffer tag " +
                                     tag);
        }
        return table.addrOf(it->second);
    };

    llm::ForwardBuffers bufs;
    const llm::FuncDims &f = m.func;
    bufs.max_bs = 256;
    bufs.max_tokens = f.max_batched_tokens;
    bufs.max_blocks_per_seq = (f.max_seq + f.block_size - 1) /
                              f.block_size;
    MEDUSA_ASSIGN_OR_RETURN(bufs.token_ids, tagged("token_ids"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.positions, tagged("positions"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.seq_starts, tagged("seq_starts"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.slot_mapping, tagged("slot_mapping"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.block_tables, tagged("block_tables"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.seq_lens, tagged("seq_lens"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.logits, tagged("logits"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.sampled, tagged("sampled"));

    llm::KvCache kv;
    for (u32 l = 0; l < m.num_layers; ++l) {
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr k,
                                tagged("kv.k." + std::to_string(l)));
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr v,
                                tagged("kv.v." + std::to_string(l)));
        kv.k_layers.push_back(k);
        kv.v_layers.push_back(v);
    }
    // Rederive the accounting from the materialized free-memory value —
    // the §6 restoration that replaces the profiling forwarding.
    const u64 budget = static_cast<u64>(
        static_cast<f64>(free_gpu_memory) * 0.9);
    kv.real_num_blocks = budget / m.kvBlockBytes();
    kv.logical_bytes = kv.real_num_blocks * m.kvBlockBytes();
    kv.blocks = llm::BlockManager(f.num_blocks);
    return rt.adoptBuffers(bufs, std::move(kv));
}

/**
 * Run the first-layer triggering-kernels capture and enumerate every
 * loaded module into a kernel name -> address table (§5). @p fault,
 * when set, injects FaultPoint::kKernelEnumeration per module.
 */
StatusOr<std::unordered_map<std::string, KernelAddr>>
buildKernelNameTable(ModelRuntime &rt, FaultInjector *fault)
{
    std::unordered_map<std::string, KernelAddr> name_table;
    MEDUSA_ASSIGN_OR_RETURN(CudaGraph first_layer,
                            rt.captureFirstLayer());
    (void)first_layer; // its purpose is the module loads it forced
    for (const std::string &module :
         rt.process().modules().loadedModules()) {
        MEDUSA_FAULT_POINT(fault, FaultPoint::kKernelEnumeration,
                           "enumerating " + module);
        MEDUSA_ASSIGN_OR_RETURN(
            auto addrs, rt.process().cuModuleEnumerateFunctions(module));
        for (KernelAddr addr : addrs) {
            MEDUSA_ASSIGN_OR_RETURN(std::string name,
                                    rt.process().cuFuncGetName(addr));
            name_table[name] = addr;
        }
    }
    return name_table;
}

/**
 * Restore one kernel's address (§5): dlsym where visible, else the
 * enumeration-built name table. Mutates process state (clock, module
 * loads) and the report.
 */
StatusOr<KernelAddr>
resolveKernel(const std::string &kernel_name,
              const std::string &module_name, ModelRuntime &rt,
              const std::unordered_map<std::string, KernelAddr>
                  &name_table,
              const RestoreOptions &options, RestoreReport &report)
{
    if (options.use_dlsym) {
        MEDUSA_FAULT_POINT(options.pipeline.fault, FaultPoint::kKernelDlsym,
                           "dlsym " + kernel_name);
        auto sym = rt.process().dlsym(module_name, kernel_name);
        if (sym.isOk()) {
            auto addr = rt.process().cudaGetFuncBySymbol(*sym);
            if (addr.isOk()) {
                ++report.kernels_via_dlsym;
                return *addr;
            }
        }
    }
    auto it = name_table.find(kernel_name);
    if (it == name_table.end()) {
        return notFound("cannot restore kernel address for " +
                        kernel_name +
                        (options.use_triggering_kernels
                             ? " (not in any loaded module)"
                             : " (hidden; triggering-kernels disabled)"));
    }
    ++report.kernels_via_enumeration;
    return it->second;
}

/**
 * Restore permanent-buffer contents and rewrite indirect pointer words
 * (§4.3 + the §8 extension) from the image's zero-copy views.
 */
Status
restoreImageContents(const MaterializedImage &image, ModelRuntime &rt,
                     const ReplayTable &table, RestoreReport &report)
{
    for (const MaterializedImage::PermanentView &pb : image.permanent) {
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr addr,
                                table.addrOf(pb.alloc_index));
        if (!pb.contents.empty()) {
            MEDUSA_RETURN_IF_ERROR(rt.process().memcpyH2D(
                addr, pb.contents.data(), pb.contents.size(),
                pb.contents.size()));
        }
        report.restored_content_bytes += pb.contents.size();
    }
    for (const PointerWordFix &fix : image.pointer_fixes) {
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr buffer,
                                table.addrOf(fix.buffer_alloc_index));
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr target,
                                table.addrOf(fix.target_alloc_index));
        const u64 word = target + fix.target_offset;
        MEDUSA_RETURN_IF_ERROR(rt.process().memcpyH2D(
            buffer + fix.byte_offset, &word, sizeof(word),
            sizeof(word)));
        ++report.indirect_pointers_fixed;
    }
    return Status::ok();
}

/**
 * Resolve the image's first-occurrence kernel table to addresses, in
 * table order — once per UNIQUE kernel, not once per node. The order is
 * the module-load order of a vanilla capture, so ASLR draws and the
 * restored module table match the vanilla cold start's. Charges
 * restore_per_node_us per table entry.
 */
StatusOr<std::vector<KernelAddr>>
resolveImageKernels(const MaterializedImage &image, ModelRuntime &rt,
                    const std::unordered_map<std::string, KernelAddr>
                        &name_table,
                    const RestoreOptions &options, RestoreReport &report)
{
    const CostModel &cost = rt.process().cost();
    std::vector<KernelAddr> addrs(image.kernel_table.size());
    for (std::size_t k = 0; k < image.kernel_table.size(); ++k) {
        const MaterializedImage::KernelEntry &entry =
            image.kernel_table[k];
        MEDUSA_ASSIGN_OR_RETURN(
            addrs[k], resolveKernel(entry.name, entry.module, rt,
                                    name_table, options, report));
        ++report.kernels_resolved;
        rt.clock().advance(units::usToNs(cost.restore_per_node_us));
    }
    return addrs;
}

/**
 * The patch pass (DESIGN.md §13): copy the image's patch template and
 * apply every relocation in one linear sweep — data relocations
 * resolve through the replay table, kernel relocations through
 * @p kernel_addrs. Charges restore_reloc_us per relocation and injects
 * FaultPoint::kImagePatch before each relocation batch (the torn-patch
 * fault).
 */
StatusOr<std::vector<u64>>
applyImageRelocations(const MaterializedImage &image,
                      const ReplayTable &table,
                      const std::vector<KernelAddr> &kernel_addrs,
                      ModelRuntime &rt, const RestoreOptions &options,
                      RestoreReport &report)
{
    Span span(options.pipeline.trace, "restore.patch_pass", "restore");
    FaultInjector *fault = options.pipeline.fault;
    std::vector<u64> slots(image.patch_template.begin(),
                           image.patch_template.end());
    // Indexes were bounds-checked once at image open; both sweeps below
    // run unchecked.
    MEDUSA_FAULT_POINT(fault, FaultPoint::kImagePatch,
                       "data relocation batch of " +
                           std::to_string(image.data_relocs.size()));
    for (const MaterializedImage::DataReloc &rel : image.data_relocs) {
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr base,
                                table.addrOf(rel.alloc_index));
        slots[rel.slot] = base + rel.addend;
    }
    MEDUSA_FAULT_POINT(fault, FaultPoint::kImagePatch,
                       "kernel relocation batch of " +
                           std::to_string(image.kernel_relocs.size()));
    if (kernel_addrs.size() != image.kernel_table.size()) {
        return internalError("kernel address table size mismatch");
    }
    for (const MaterializedImage::KernelReloc &rel :
         image.kernel_relocs) {
        slots[rel.slot] = kernel_addrs[rel.kernel_index];
    }
    const u64 applied =
        image.data_relocs.size() + image.kernel_relocs.size();
    report.relocations_applied += applied;
    rt.clock().advance(units::usToNs(
        rt.process().cost().restore_reloc_us *
        static_cast<f64>(applied)));
    span.arg("relocations", std::to_string(applied));
    return slots;
}

/**
 * Instantiate every graph directly from the patched slots: each
 * graph's PatchedGraphDesc carves spans out of @p patched_slots and the
 * image's SoA columns — no CudaGraph objects are built.
 */
Status
patchRestoreGraphs(const MaterializedImage &image,
                   const std::vector<u64> &patched_slots,
                   ModelRuntime &rt, const RestoreOptions &options,
                   RestoreReport &report)
{
    TraceRecorder *rec = options.pipeline.trace;
    const std::size_t n = image.graphs.size();

    // Carving spans out of the patched slots and the image columns is
    // pure pointer arithmetic — the whole "build" is O(graphs), not
    // O(nodes), which is the point of the format.
    Span patch_span(rec, "restore.graphs.patch", "restore");
    patch_span.arg("graphs", std::to_string(n));
    std::vector<std::pair<u32, simcuda::GpuProcess::PatchedGraphDesc>>
        ordered;
    ordered.reserve(n);
    for (const MaterializedImage::GraphView &g : image.graphs) {
        simcuda::GpuProcess::PatchedGraphDesc desc;
        desc.node_fn = std::span<const KernelAddr>(
            patched_slots.data() + g.fn_slot_begin, g.node_count);
        desc.param_begin = g.param_begin;
        desc.param_bits = std::span<const u64>(
            patched_slots.data() + g.param_slot_begin,
            g.param_len.size());
        desc.param_len = g.param_len;
        desc.timing = g.timings;
        desc.order = g.order;
        desc.edges = g.edges;
        ordered.emplace_back(g.batch_size, desc);
    }
    patch_span.end();

    Span inst_span(rec, "restore.graphs.instantiate", "restore");
    MEDUSA_RETURN_IF_ERROR(
        rt.instantiatePatchedGraphs(ordered, options.pipeline.fault));
    report.graphs_patched += n;
    report.graphs_restored += n;
    report.nodes_restored += image.total_nodes;
    return Status::ok();
}

} // namespace

Status
initImageStructure(const MaterializedImage &image, ModelRuntime &rt,
                   const ReplayTable &table)
{
    MEDUSA_RETURN_IF_ERROR(rt.initStructure());
    MEDUSA_RETURN_IF_ERROR(table.organicStatus());
    if (table.allocCount() != image.organic_alloc_count) {
        return validationFailure(
            "structure init produced a different allocation count "
            "than the materialized sequence");
    }
    return Status::ok();
}

Status
restoreImageStages(const MaterializedImage &image,
                   const llm::ModelConfig &model,
                   const RestoreOptions &options, ModelRuntime &rt,
                   const ReplayTable &table, StageTimes &t,
                   RestoreReport &report)
{
    const CostModel &cost = rt.process().cost();
    FaultInjector *fault = options.pipeline.fault;
    TraceRecorder *rec = options.pipeline.trace;

    // Stage laps are taken in integer nanoseconds, so each stage time
    // equals its cold_start.* span's duration exactly.
    SimClock &clock = rt.clock();
    SimTimeNs mark = clock.now();
    auto lap = [&clock, &mark]() {
        const SimTimeNs now = clock.now();
        const SimTimeNs d = now - mark;
        mark = now;
        return units::nsToSec(d);
    };

    // 2. Tokenizer: rebuilt from the image's materialized merge list —
    //    no corpus re-training. Simulated charge matches loadTokenizer.
    {
        Span s(rec, "cold_start.tokenizer", "stage");
        MEDUSA_ASSIGN_OR_RETURN(
            auto tok, llm::BpeTokenizer::fromMerges(image.tokenizer_merges));
        MEDUSA_RETURN_IF_ERROR(rt.adoptTokenizer(std::move(tok)));
    }
    t.tokenizer = lap();

    Span kv_span(rec, "cold_start.kv_init", "stage");
    // 3. KV-init restoration: read the image and adopt the materialized
    //    free-memory value (no profiling forwarding, §6). The image was
    //    decoded zero-copy, so the read is the whole parse cost.
    {
        Span s(rec, "restore.image_open", "restore");
        clock.advance(
            units::usToNs(static_cast<f64>(image.serialized_size) /
                          (cost.artifact_read_gbps * 1e3)));
    }

    // 4. Replay the recorded (de)allocation sequence (§4.2).
    {
        Span s(rec, "restore.replay_alloc_seq", "restore");
        MEDUSA_RETURN_IF_ERROR(replayAllocSequence(
            std::span<const AllocOp>(image.ops), image.organic_op_count,
            rt, table, report, fault));
    }
    {
        Span s(rec, "restore.rebind", "restore");
        MEDUSA_RETURN_IF_ERROR(rebindEngineBuffers(
            image.tags, image.free_gpu_memory, model, table, rt));
    }
    kv_span.end();
    t.kv_init = lap();

    // 5. Weights.
    {
        Span s(rec, "cold_start.weights", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.loadWeights());
    }
    t.weights = lap();

    Span cap_span(rec, "cold_start.capture", "stage");
    // 6. Permanent-buffer contents (§4.3 copy-free restoration) and
    //    indirect pointer words (§8 extension).
    if (options.restore_contents) {
        Span s(rec, "restore.contents", "restore");
        MEDUSA_RETURN_IF_ERROR(
            restoreImageContents(image, rt, table, report));
    }

    // 7. Triggering-kernels: warm up + capture the first layer and build
    //    the §5 name table, then ONE resolution per unique kernel in
    //    first-occurrence order.
    std::unordered_map<std::string, KernelAddr> name_table;
    if (options.use_triggering_kernels) {
        Span s(rec, "restore.kernel_table", "restore");
        MEDUSA_ASSIGN_OR_RETURN(name_table,
                                buildKernelNameTable(rt, fault));
    }
    std::vector<KernelAddr> kernel_addrs;
    {
        Span s(rec, "restore.graphs.resolve", "restore");
        MEDUSA_ASSIGN_OR_RETURN(
            kernel_addrs,
            resolveImageKernels(image, rt, name_table, options, report));
    }

    // 8. The patch pass + direct instantiation from the patched image.
    MEDUSA_ASSIGN_OR_RETURN(
        const std::vector<u64> patched,
        applyImageRelocations(image, table, kernel_addrs, rt, options,
                              report));
    MEDUSA_RETURN_IF_ERROR(
        patchRestoreGraphs(image, patched, rt, options, report));
    cap_span.end();
    t.capture = lap();
    return Status::ok();
}

} // namespace medusa::core
