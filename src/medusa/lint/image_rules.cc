/**
 * @file
 * MDL7xx: structural verification of the v6 relocation image, plus the
 * patch-coverage proof (lint.h family overview; DESIGN.md §14).
 *
 * The image restore path trusts its relocation tables completely: the
 * patch pass copies the template and writes replayed addresses through
 * the relocation records with no per-record checks (that is what makes
 * it fast). These rules re-derive everything the patch pass assumes —
 * replaying the allocation trace symbolically to rebuild the alloc
 * table the online phase will build — and prove, offline, that
 *
 *  (a) every relocation lands inside the template, inside a live
 *      allocation, and inside the kernel table (MDL701-703),
 *  (b) no two relocations patch the same slot (MDL704),
 *  (c) every run-specific slot IS patched: a kernel-address slot or a
 *      pointer-typed parameter slot with no covering relocation would
 *      replay a capture-time address verbatim — the paper's Figure 6
 *      silent corruption, surfacing at the image layer (MDL705),
 *  (d) the kernel name table is in first-occurrence order, which is
 *      what keeps module-load order — and therefore ASLR draws and the
 *      restored module table — identical to a vanilla capture's
 *      (MDL706).
 *
 * The image carries the artifact's op sequence, so the MDL1xx
 * sequence well-formedness rules run over it as well.
 *
 * The MDL8xx determinism rules run over the image's graphs as well,
 * deriving per-node access sets from the data relocations plus the
 * kernel registry's declared parameter access sets.
 */

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "medusa/image.h"
#include "medusa/lint/analysis.h"
#include "medusa/lint/lint.h"
#include "medusa/record.h"
#include "simcuda/kernel.h"
#include "simcuda/memory.h"

namespace medusa::core::lint {

namespace {

std::string
hexValue(u64 v)
{
    std::ostringstream out;
    out << "0x" << std::hex << v;
    return out.str();
}

/** Runs the image rule families over one decoded image. */
class ImageLinter
{
  public:
    ImageLinter(const MaterializedImage &img, const LintOptions &options)
        : img_(img), opt_(options)
    {
    }

    LintReport
    run()
    {
        const std::span<const AllocOp> ops(img_.ops.data(),
                                           img_.ops.size());
        lives_ = detail::reconstructLifetimes(ops);
        detail::checkAllocSequence(ops, img_.organic_op_count,
                                   img_.organic_alloc_count,
                                   opt_.device_memory_bytes, "image",
                                   report_);
        mapSlots();
        checkKernelRelocs();
        resolveNodeKernels();
        checkDataRelocs();
        checkDuplicateCoverage();
        checkCoverage();
        checkKernelTableOrder();
        checkTrailingPayload();
        checkRaces();
        if (opt_.trace != nullptr) {
            detail::checkCaptureWindowAllocs(*opt_.trace, report_);
        }
        return std::move(report_);
    }

  private:
    /** What one patch-template slot is, per the graph slot layout. */
    struct SlotInfo
    {
        enum Kind : u8 {
            kUnmapped = 0, ///< belongs to no graph (cannot happen for
                           ///< images that pass openView's layout check)
            kFn,           ///< a node's kernel-address slot
            kParam,        ///< a node's parameter-value slot
        };
        Kind kind = kUnmapped;
        u32 graph = 0;
        u32 node = 0;
        u32 param = 0; ///< local parameter index within the node
        u8 len = 0;    ///< parameter byte width (kParam only)
    };

    void
    emit(const char *rule, Severity severity, std::string location,
         std::string message, std::string fix_hint)
    {
        report_.diagnostics.push_back(
            {rule, severity, std::move(location), std::move(message),
             std::move(fix_hint)});
    }

    std::string
    graphLoc(u32 gi) const
    {
        return "graph[bs=" +
               std::to_string(img_.graphs[gi].batch_size) + "]";
    }

    std::string
    slotLoc(u64 slot) const
    {
        if (slot >= slots_.size() ||
            slots_[slot].kind == SlotInfo::kUnmapped) {
            return "template.slot[" + std::to_string(slot) + "]";
        }
        const SlotInfo &s = slots_[slot];
        std::string loc = graphLoc(s.graph) + ".node[" +
                          std::to_string(s.node) + "]";
        if (s.kind == SlotInfo::kParam) {
            loc += ".param[" + std::to_string(s.param) + "]";
        }
        return loc;
    }

    /**
     * Classify every template slot as a kernel-address or parameter
     * slot of some (graph, node) per the per-graph slot layout.
     */
    void
    mapSlots()
    {
        slots_.resize(img_.patch_template.size());
        node_kernel_.resize(img_.graphs.size());
        node_def_.resize(img_.graphs.size());
        for (u32 gi = 0; gi < img_.graphs.size(); ++gi) {
            const MaterializedImage::GraphView &gv = img_.graphs[gi];
            node_kernel_[gi].assign(gv.node_count,
                                    simcuda::kInvalidKernel);
            node_def_[gi].assign(gv.node_count, -1);
            for (u32 ni = 0; ni < gv.node_count; ++ni) {
                const u64 slot = gv.fn_slot_begin + ni;
                if (slot < slots_.size()) {
                    slots_[slot] = {SlotInfo::kFn, gi, ni, 0, 0};
                }
            }
            // The param index prefix must be a monotone ramp ending at
            // the param array's length, or the per-node slices are
            // meaningless (instantiatePatched would mis-slice params).
            bool consistent = gv.param_begin.size() == gv.node_count + 1 &&
                              gv.param_begin[0] == 0 &&
                              gv.param_begin[gv.node_count] ==
                                  gv.param_len.size();
            for (u32 ni = 0; consistent && ni < gv.node_count; ++ni) {
                consistent = gv.param_begin[ni] <= gv.param_begin[ni + 1];
            }
            if (!consistent) {
                emit("MDL707", Severity::kError, graphLoc(gi),
                     "per-node parameter index prefix is not a monotone "
                     "ramp over the parameter array",
                     "the image is corrupt; re-emit it from the "
                     "artifact");
                continue;
            }
            for (u32 ni = 0; ni < gv.node_count; ++ni) {
                for (u32 pi = gv.param_begin[ni];
                     pi < gv.param_begin[ni + 1]; ++pi) {
                    const u64 slot = gv.param_slot_begin + pi;
                    if (slot < slots_.size()) {
                        slots_[slot] = {SlotInfo::kParam, gi, ni,
                                        pi - gv.param_begin[ni],
                                        gv.param_len[pi]};
                    }
                }
            }
        }
        cover_.assign(slots_.size(), 0);
    }

    // ---- MDL703 + kernel-slot domain checks ---------------------------

    void
    checkKernelRelocs()
    {
        for (u64 ri = 0; ri < img_.kernel_relocs.size(); ++ri) {
            const MaterializedImage::KernelReloc &kr =
                img_.kernel_relocs[ri];
            const std::string loc =
                "kernel_relocs[" + std::to_string(ri) + "]";
            if (kr.slot >= slots_.size()) {
                emit("MDL703", Severity::kError, loc,
                     "slot " + std::to_string(kr.slot) +
                         " is beyond the " +
                         std::to_string(slots_.size()) +
                         "-slot patch template",
                     "the patch pass would write out of bounds; "
                     "re-emit the image");
                continue;
            }
            ++cover_[kr.slot];
            if (kr.kernel_index >= img_.kernel_table.size()) {
                emit("MDL703", Severity::kError, loc,
                     "kernel index " + std::to_string(kr.kernel_index) +
                         " is beyond the " +
                         std::to_string(img_.kernel_table.size()) +
                         "-entry kernel table",
                     "the patch pass would read past the resolved "
                     "address table; re-emit the image");
                continue;
            }
            const SlotInfo &s = slots_[kr.slot];
            if (s.kind != SlotInfo::kFn) {
                emit("MDL707", Severity::kError, loc,
                     "kernel relocation patches " + slotLoc(kr.slot) +
                         " which is not a kernel-address slot",
                     "a kernel address written into a parameter slot "
                     "leaks a function pointer into kernel arguments; "
                     "re-emit the image");
                continue;
            }
            auto &cell = node_kernel_[s.graph][s.node];
            if (cell == simcuda::kInvalidKernel) {
                cell = static_cast<simcuda::KernelId>(kr.kernel_index);
            }
        }
    }

    /**
     * Resolve each node's kernel-table entry against the registry so
     * the coverage proof (MDL705) and the race rules know parameter
     * types and access sets. node_def_[g][n] stays -1 when unresolved.
     */
    void
    resolveNodeKernels()
    {
        if (!opt_.check_kernel_registry) {
            return;
        }
        const simcuda::KernelRegistry &registry =
            simcuda::KernelRegistry::instance();
        for (u32 gi = 0; gi < img_.graphs.size(); ++gi) {
            const MaterializedImage::GraphView &gv = img_.graphs[gi];
            for (u32 ni = 0; ni < gv.node_count; ++ni) {
                const simcuda::KernelId table_index =
                    node_kernel_[gi][ni];
                if (table_index == simcuda::kInvalidKernel ||
                    table_index >= img_.kernel_table.size()) {
                    continue;
                }
                const MaterializedImage::KernelEntry &entry =
                    img_.kernel_table[table_index];
                const std::string loc = graphLoc(gi) + ".node[" +
                                        std::to_string(ni) + "]";
                const simcuda::KernelId id =
                    registry.findByName(entry.name);
                if (id == simcuda::kInvalidKernel) {
                    emit("MDL301", Severity::kError, loc,
                         "kernel name \"" + entry.name +
                             "\" is not in the module registry's "
                             "symbol set",
                         "the online resolver could not restore its "
                         "address; the kernel table is corrupt");
                    continue;
                }
                const simcuda::KernelDef &def = registry.def(id);
                if (def.module_name != entry.module) {
                    emit("MDL302", Severity::kError, loc,
                         "kernel \"" + entry.name +
                             "\" is recorded in module \"" +
                             entry.module +
                             "\" but the registry defines it in \"" +
                             def.module_name + "\"",
                         "dlsym against the recorded library would "
                         "fail; fix the name -> library mapping");
                    continue;
                }
                const u32 param_count =
                    gv.param_begin.size() == gv.node_count + 1
                        ? gv.param_begin[ni + 1] - gv.param_begin[ni]
                        : 0;
                if (def.params.size() != param_count) {
                    emit("MDL707", Severity::kError, loc,
                         "node has " + std::to_string(param_count) +
                             " parameter slots but kernel \"" +
                             entry.name + "\" takes " +
                             std::to_string(def.params.size()),
                         "instantiation would decode the wrong "
                         "argument layout; re-emit the image");
                    continue;
                }
                node_def_[gi][ni] = static_cast<i64>(id);
            }
        }
    }

    // ---- MDL701/702/709 + data-slot domain checks ---------------------

    void
    checkDataRelocs()
    {
        const simcuda::KernelRegistry &registry =
            simcuda::KernelRegistry::instance();
        // Per-graph launch lower bound, mirroring the artifact rule
        // MDL202: every buffer a graph references existed before the
        // capture position of the launch that referenced it, so the
        // latest referenced-allocation birth bounds every launch from
        // below. A target freed AFTER that point was live at capture
        // and replays to the same deterministic address; only a free
        // BEFORE it proves the relocation resolves recycled memory.
        std::vector<u64> launch_lb(img_.graphs.size(), 0);
        for (const MaterializedImage::DataReloc &dr : img_.data_relocs) {
            if (dr.slot >= slots_.size() ||
                dr.alloc_index >= lives_.size()) {
                continue;
            }
            const SlotInfo &s = slots_[dr.slot];
            if (s.kind == SlotInfo::kParam) {
                launch_lb[s.graph] =
                    std::max(launch_lb[s.graph],
                             lives_[dr.alloc_index].op_alloc);
            }
        }
        for (u64 ri = 0; ri < img_.data_relocs.size(); ++ri) {
            const MaterializedImage::DataReloc &dr = img_.data_relocs[ri];
            const std::string loc =
                "data_relocs[" + std::to_string(ri) + "]";
            if (dr.slot >= slots_.size()) {
                emit("MDL701", Severity::kError, loc,
                     "slot " + std::to_string(dr.slot) +
                         " is beyond the " +
                         std::to_string(slots_.size()) +
                         "-slot patch template",
                     "the patch pass would write out of bounds; "
                     "re-emit the image");
                continue;
            }
            ++cover_[dr.slot];
            const SlotInfo &s = slots_[dr.slot];
            if (s.kind == SlotInfo::kFn) {
                emit("MDL707", Severity::kError, loc,
                     "data relocation patches " + slotLoc(dr.slot) +
                         " which is a kernel-address slot",
                     "a buffer address in a kernel-address slot makes "
                     "instantiation jump into data; re-emit the "
                     "image");
            } else if (s.kind == SlotInfo::kParam && s.len != 8) {
                emit("MDL707", Severity::kError, loc,
                     "data relocation patches " + slotLoc(dr.slot) +
                         " which is a " + std::to_string(s.len) +
                         "-byte parameter, not an 8-byte pointer",
                     "the patched pointer would be truncated at "
                     "instantiation; re-emit the image");
            } else if (s.kind == SlotInfo::kParam &&
                       node_def_[s.graph][s.node] >= 0) {
                const simcuda::KernelDef &def = registry.def(
                    static_cast<simcuda::KernelId>(
                        node_def_[s.graph][s.node]));
                if (s.param < def.params.size() &&
                    def.params[s.param] !=
                        simcuda::ParamKind::kPointer) {
                    emit("MDL707", Severity::kError, loc,
                         "data relocation patches " + slotLoc(dr.slot) +
                             " but the kernel declares that parameter "
                             "as a non-pointer constant",
                         "a replayed address where the kernel expects "
                         "a scalar corrupts the launch; re-run the "
                         "pointer classification");
                }
            }
            if (dr.alloc_index >= lives_.size()) {
                emit("MDL701", Severity::kError, loc,
                     "allocation index " + std::to_string(dr.alloc_index) +
                         " is beyond the " +
                         std::to_string(lives_.size()) +
                         "-allocation replay table",
                     "the patch pass would read past the replayed "
                     "address table; re-emit the image");
                continue;
            }
            const detail::AllocLife &life = lives_[dr.alloc_index];
            const bool stale =
                life.op_free >= 0 && s.kind == SlotInfo::kParam &&
                static_cast<u64>(life.op_free) < launch_lb[s.graph];
            if (stale) {
                emit("MDL702", Severity::kError, loc,
                     "relocation resolves against allocation " +
                         std::to_string(dr.alloc_index) +
                         " which the replay frees at ops[" +
                         std::to_string(life.op_free) +
                         "], before the graph's capture position "
                         "(at least ops[" +
                         std::to_string(launch_lb[s.graph]) +
                         "]); at patch time its address belongs to "
                         "whichever buffer recycled it (Figure 6 "
                         "data corruption)",
                     "re-run the analysis with "
                     "trace_based_matching=true and re-emit the "
                     "image");
            } else if (dr.addend >= life.logical) {
                emit("MDL701", Severity::kError, loc,
                     "addend " + std::to_string(dr.addend) +
                         " is outside allocation " +
                         std::to_string(dr.alloc_index) + "'s " +
                         std::to_string(life.logical) +
                         " logical bytes",
                     "an interior pointer must land inside its "
                     "buffer; the classification is wrong");
            } else if (dr.addend % 4 != 0) {
                emit("MDL709", Severity::kWarning, loc,
                     "addend " + std::to_string(dr.addend) +
                         " is not 4-byte aligned; no captured tensor "
                         "pointer is misaligned, so this relocation "
                         "is suspect",
                     "check the pointer classification that produced "
                     "the interior offset");
            }
        }
    }

    // ---- MDL704: duplicate / overlapping patch targets ----------------

    void
    checkDuplicateCoverage()
    {
        for (u64 slot = 0; slot < cover_.size(); ++slot) {
            if (cover_[slot] > 1) {
                emit("MDL704", Severity::kError, slotLoc(slot),
                     std::to_string(cover_[slot]) +
                         " relocations patch this slot; the last "
                         "writer wins and the others are silently "
                         "discarded",
                     "every run-specific slot must have exactly one "
                     "relocation; re-emit the image");
            }
        }
    }

    // ---- MDL705: the patch-coverage proof -----------------------------

    void
    checkCoverage()
    {
        const simcuda::KernelRegistry &registry =
            simcuda::KernelRegistry::instance();
        const u64 window_begin =
            simcuda::DeviceMemoryManager::kAddrBase +
            static_cast<u64>(opt_.device_index) *
                simcuda::DeviceMemoryManager::kDeviceSlotBytes;
        const u64 window_end =
            window_begin +
            simcuda::DeviceMemoryManager::kDeviceSlotBytes;
        for (u64 slot = 0; slot < slots_.size(); ++slot) {
            if (cover_[slot] != 0) {
                continue;
            }
            const SlotInfo &s = slots_[slot];
            const u64 value = img_.patch_template[slot];
            if (s.kind == SlotInfo::kFn) {
                emit("MDL705", Severity::kError, slotLoc(slot),
                     "kernel-address slot is not covered by any "
                     "kernel relocation; instantiation would jump to "
                     "the capture-time address " + hexValue(value),
                     "every node needs exactly one kernel "
                     "relocation; re-emit the image");
                continue;
            }
            if (s.kind != SlotInfo::kParam) {
                continue;
            }
            // Branch (a): the registry types this parameter. A pointer
            // parameter with no covering relocation replays whatever
            // the template holds.
            const i64 def_id = node_def_[s.graph][s.node];
            if (def_id >= 0) {
                const simcuda::KernelDef &def =
                    registry.def(static_cast<simcuda::KernelId>(def_id));
                if (s.param < def.params.size() &&
                    def.params[s.param] ==
                        simcuda::ParamKind::kPointer) {
                    if (value == 0) {
                        emit("MDL705", Severity::kWarning,
                             slotLoc(slot),
                             "pointer parameter is not covered by a "
                             "data relocation; the prefilled null "
                             "would fault loudly rather than corrupt "
                             "silently, but the classification "
                             "dropped a pointer",
                             "re-run the pointer classification and "
                             "re-emit the image");
                    } else {
                        emit("MDL705", Severity::kError, slotLoc(slot),
                             "pointer parameter is not covered by a "
                             "data relocation; replay would "
                             "dereference the capture-time address " +
                                 hexValue(value) +
                                 " verbatim (Figure 6 silent "
                                 "corruption)",
                             "re-run the pointer classification and "
                             "re-emit the image");
                    }
                    continue;
                }
                // Typed constant: check the declared width while we
                // are here — a mismatched width corrupts argument
                // decoding at instantiation.
                if (s.param < def.params.size() &&
                    s.len != simcuda::paramKindSize(
                                 def.params[s.param])) {
                    emit("MDL707", Severity::kError, slotLoc(slot),
                         "prefilled constant is " +
                             std::to_string(s.len) +
                             " bytes but the kernel declares a " +
                             std::to_string(simcuda::paramKindSize(
                                 def.params[s.param])) +
                             "-byte parameter",
                         "instantiation would decode the wrong "
                         "width; re-emit the image");
                    continue;
                }
                // A declared 8-byte scalar whose prefilled value lands
                // inside the device window is a misclassified pointer:
                // real tagged scalars (stream tags) live outside it.
                if (s.len == 8 && value >= window_begin &&
                    value < window_end) {
                    emit("MDL705", Severity::kError, slotLoc(slot),
                         "8-byte scalar constant " + hexValue(value) +
                             " falls inside device " +
                             std::to_string(opt_.device_index) +
                             "'s address window [" +
                             hexValue(window_begin) + ", " +
                             hexValue(window_end) +
                             "); a capture-time pointer was frozen "
                             "into the template as a constant "
                             "(Figure 6 silent corruption)",
                         "re-run the pointer classification and "
                         "re-emit the image");
                }
                continue;
            }
            // Branch (b): untyped slot. An 8-byte prefilled value that
            // lands inside the capture device's VA window is a leaked
            // capture-time address with overwhelming probability —
            // tagged constants (stream tags) live outside the window.
            if (s.len == 8 && value >= window_begin &&
                value < window_end) {
                emit("MDL705", Severity::kError, slotLoc(slot),
                     "uncovered 8-byte constant " + hexValue(value) +
                         " falls inside device " +
                         std::to_string(opt_.device_index) +
                         "'s address window [" + hexValue(window_begin) +
                         ", " + hexValue(window_end) +
                         "); a capture-time pointer escaped the "
                         "relocation table (Figure 6 silent "
                         "corruption)",
                     "re-run the pointer classification and re-emit "
                     "the image");
            }
        }
    }

    // ---- MDL706: first-occurrence kernel-table ordering ---------------

    void
    checkKernelTableOrder()
    {
        // Walk references in graph order, node order — the order the
        // emitter assigns table entries. Each NEW index must be the
        // next unseen one; anything else changes module-load order at
        // restore and desynchronizes ASLR draws from a vanilla capture.
        std::set<u64> seen;
        u64 next_new = 0;
        bool order_ok = true;
        for (u32 gi = 0; gi < img_.graphs.size(); ++gi) {
            const MaterializedImage::GraphView &gv = img_.graphs[gi];
            for (u32 ni = 0; ni < gv.node_count; ++ni) {
                const simcuda::KernelId ki = node_kernel_[gi][ni];
                if (ki == simcuda::kInvalidKernel ||
                    ki >= img_.kernel_table.size() ||
                    !seen.insert(ki).second) {
                    continue;
                }
                if (order_ok && ki != next_new) {
                    order_ok = false;
                    emit("MDL706", Severity::kError,
                         graphLoc(gi) + ".node[" + std::to_string(ni) +
                             "]",
                         "first reference to kernel-table entry " +
                             std::to_string(ki) + " (\"" +
                             img_.kernel_table[ki].name +
                             "\") arrives when entry " +
                             std::to_string(next_new) +
                             " is still unreferenced; the table is "
                             "not in first-occurrence order, so "
                             "restore would load modules in a "
                             "different order than a vanilla capture "
                             "and desynchronize ASLR draws",
                         "re-emit the image; the kernel table was "
                         "reordered after emission");
                }
                ++next_new;
            }
        }
        for (u64 ki = 0; ki < img_.kernel_table.size(); ++ki) {
            if (seen.count(ki) == 0) {
                emit("MDL706", Severity::kWarning,
                     "kernel_table[" + std::to_string(ki) + "]",
                     "entry \"" + img_.kernel_table[ki].name +
                         "\" is referenced by no kernel relocation; "
                         "restore resolves (and possibly loads a "
                         "module for) a kernel nothing uses",
                     "re-emit the image to drop the dead entry");
            }
        }
    }

    // ---- MDL708: CRC-covered but semantically dead bytes --------------

    void
    checkTrailingPayload()
    {
        const u64 payload = img_.serialized_size >
                                    MaterializedImage::kHeaderBytes
                                ? img_.serialized_size -
                                      MaterializedImage::kHeaderBytes
                                : 0;
        if (img_.payload_decoded_bytes < payload) {
            emit("MDL708", Severity::kWarning, "image",
                 std::to_string(payload - img_.payload_decoded_bytes) +
                     " trailing payload bytes are CRC-covered but "
                     "never decoded; they hide data from every "
                     "structural check in this report",
                 "re-emit the image; trailing bytes usually mean a "
                 "truncated or version-skewed writer");
        }
    }

    // ---- MDL8xx over the image's graphs -------------------------------

    void
    checkRaces()
    {
        const simcuda::KernelRegistry &registry =
            simcuda::KernelRegistry::instance();
        // Per-slot data-reloc targets, for access-set extraction.
        std::map<u64, u64> alloc_by_slot;
        for (const MaterializedImage::DataReloc &dr : img_.data_relocs) {
            alloc_by_slot.emplace(dr.slot, dr.alloc_index);
        }
        for (u32 gi = 0; gi < img_.graphs.size(); ++gi) {
            const MaterializedImage::GraphView &gv = img_.graphs[gi];
            detail::RaceGraph rg;
            rg.batch_size = gv.batch_size;
            rg.node_count = gv.node_count;
            rg.edges.assign(gv.edges.begin(), gv.edges.end());
            rg.nodes.resize(gv.node_count);
            const bool ramp_ok =
                gv.param_begin.size() == gv.node_count + 1;
            for (u32 ni = 0; ni < gv.node_count; ++ni) {
                detail::NodeAccess &node = rg.nodes[ni];
                const simcuda::KernelId table_index =
                    node_kernel_[gi][ni];
                node.kernel_name =
                    table_index < img_.kernel_table.size()
                        ? img_.kernel_table[table_index].name
                        : "<unresolved>";
                const i64 def_id = node_def_[gi][ni];
                if (def_id < 0 || !ramp_ok) {
                    continue; // unknown effects -> MDL804 territory
                }
                const simcuda::KernelDef &def =
                    registry.def(static_cast<simcuda::KernelId>(def_id));
                node.known = !def.access.empty();
                node.indirect = def.indirect_access;
                for (u32 pi = gv.param_begin[ni];
                     pi < gv.param_begin[ni + 1]; ++pi) {
                    auto it = alloc_by_slot.find(gv.param_slot_begin + pi);
                    if (it == alloc_by_slot.end()) {
                        continue;
                    }
                    const u32 local = pi - gv.param_begin[ni];
                    if (local < def.access.size() &&
                        def.access[local] !=
                            simcuda::ParamAccess::kNone) {
                        node.buffers.push_back(
                            {it->second, def.access[local], local});
                    }
                }
            }
            detail::checkGraphRaces(rg, graphLoc(gi), report_);
        }
    }

    const MaterializedImage &img_;
    const LintOptions &opt_;
    std::vector<detail::AllocLife> lives_;
    std::vector<SlotInfo> slots_;
    /** Relocations covering each slot (the coverage-proof counter). */
    std::vector<u32> cover_;
    /** Per (graph, node): kernel-TABLE index from its kernel reloc. */
    std::vector<std::vector<simcuda::KernelId>> node_kernel_;
    /** Per (graph, node): resolved registry KernelId, or -1. */
    std::vector<std::vector<i64>> node_def_;
    LintReport report_;
};

} // namespace

LintReport
lintImage(const MaterializedImage &image, const LintOptions &options)
{
    return ImageLinter(image, options).run();
}

LintReport
lintImageBytes(std::span<const u8> bytes, const LintOptions &options)
{
    ImageReadOptions read_options;
    // Let corrupt relocation tables decode so MDL701/MDL703 can point
    // at the exact record instead of a generic open failure.
    read_options.validate_relocations = false;
    StatusOr<MaterializedImage> image =
        MaterializedImage::openView(bytes, read_options);
    if (!image.isOk()) {
        LintReport report;
        report.diagnostics.push_back(
            {"MDL700", Severity::kError, "image",
             "image bytes fail to decode: " +
                 image.status().toString(),
             "the file is truncated, corrupt, or from an "
             "incompatible version; re-emit it"});
        return report;
    }
    return lintImage(*image, options);
}

} // namespace medusa::core::lint
