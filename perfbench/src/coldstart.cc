/**
 * @file
 * coldstart: the paper's headline path, one cold start at a time on
 * one thread. Each cold start opens a v6 image file
 * (MaterializedImage::openFile), restores it
 * (MedusaEngine::coldStartFromImage), runs the first bs=1 decode step
 * on the restored graph, and tears the engine and the image down.
 *
 * Setup materializes the three models from scratch (core::materialize,
 * the paper's offline phase), writes their images, takes the vanilla
 * BaselineEngine reference outputs and warms the restore path up. The
 * models span Table 1's image-size range and are interleaved in seeded
 * shuffled rounds, so each model's cold starts spread over the whole
 * window.
 *
 * Checked on every cold start: outcome kRestored with no failed
 * attempt and no fallback, restore counters identical to the model's
 * first cold start, and bs=1 decode logits bit-identical to the
 * vanilla engine's. Checked once per model in setup: the restored
 * logical fingerprint repeats across cold starts, and the loaded
 * module table matches the vanilla engine's. (The full fingerprint
 * cannot match vanilla: the vanilla start's profiling and warm-up
 * leave their own memory contents and allocator history behind.)
 */

#include <algorithm>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <malloc.h>

#include "common.h"
#include "common/crc32.h"
#include "common/serialize.h"
#include "llm/engine.h"
#include "llm/model_config.h"
#include "medusa/image.h"
#include "medusa/offline.h"
#include "medusa/restore.h"

namespace perfbench {
namespace {

using namespace medusa;

/** Table 1 models spanning the image-size range (small, mid, deepest). */
const char *const kModels[] = {"Qwen1.5-0.5B", "Llama2-13B", "Yi-9B"};
constexpr std::size_t kNumModels = 3;
/** Restore-path warm-up rounds in setup (every model per round). */
constexpr int kWarmupRounds = 4;

struct ModelState
{
    llm::ModelConfig model;
    std::string image_path;
    /** The image bytes and their header CRC (for the timed CRC call). */
    std::vector<u8> image;
    u32 payload_crc = 0;
    /** Restore counters of the first cold start; later ones must match. */
    RestoreReport reference;
    bool have_reference = false;
    /** Restored logical fingerprint (identical across cold starts). */
    u64 fingerprint = 0;
    /** Logits of the first decode step on a fresh restore. */
    std::vector<f32> first_logits;
    /** The vanilla engine's module-table fingerprint and staged bs=1
     *  decode logits. */
    u64 vanilla_modules = 0;
    std::vector<f32> vanilla_logits;
};

bool
sameCounters(const RestoreReport &a, const RestoreReport &b)
{
    return a.nodes_restored == b.nodes_restored &&
           a.graphs_restored == b.graphs_restored &&
           a.replayed_allocs == b.replayed_allocs &&
           a.replayed_frees == b.replayed_frees &&
           a.restored_content_bytes == b.restored_content_bytes &&
           a.indirect_pointers_fixed == b.indirect_pointers_fixed &&
           a.relocations_applied == b.relocations_applied &&
           a.kernels_resolved == b.kernels_resolved &&
           a.graphs_patched == b.graphs_patched &&
           a.restore_attempts == b.restore_attempts;
}

u64
logicalFingerprint(llm::ModelRuntime &rt)
{
    return rt.process().logicalStateFingerprint() ^
           (rt.allocator().stateFingerprint() * 31);
}

/** One cold start's wall times (ms) and restore counters. */
struct ColdStart
{
    double open_ms = 0;
    double restore_ms = 0;
    double first_token_ms = 0;
    double teardown_ms = 0;
    double crc_ms = 0;
    RestoreReport counters;
};

/**
 * One cold start of @p m; false (after reporting why) when a gate
 * fails. @p probe adds the setup-only fingerprint checks; @p trace
 * times a CRC32 of the image payload as a call of its own.
 */
bool
coldStartOnce(ModelState &m, Report &report, ColdStart &c, bool probe,
              bool trace)
{
    const auto t0 = Clock::now();
    auto image = core::MaterializedImage::openFile(m.image_path);
    const auto t1 = Clock::now();
    if (!report.check(image.isOk(), "open " + m.model.name + ": " +
                                        image.status().toString())) {
        return false;
    }
    core::MedusaEngine::Options opts;
    opts.model = m.model;
    auto engine = core::MedusaEngine::coldStartFromImage(opts, *image);
    const auto t2 = Clock::now();
    if (!report.check(engine.isOk(), "cold start " + m.model.name + ": " +
                                         engine.status().toString())) {
        return false;
    }
    llm::ModelRuntime &rt = (*engine)->runtime();
    auto first = rt.graphDecodeLogits(1);
    const auto t3 = Clock::now();

    const ColdStartReport &cs = (*engine)->coldStartReport();
    bool ok = report.check(cs.outcome == ColdStartOutcome::kRestored &&
                               cs.restore.restore_failures == 0 &&
                               !cs.restore.fallback_vanilla,
                           "cold start " + m.model.name + " outcome " +
                               outcomeName(cs.outcome));
    if (!m.have_reference) {
        m.reference = cs.restore;
        m.have_reference = true;
    }
    ok = report.check(sameCounters(m.reference, cs.restore),
                      "restore counters drifted for " + m.model.name) &&
         ok;
    if (m.first_logits.empty() && first.isOk()) {
        m.first_logits = *first;
    }
    ok = report.check(first.isOk() && !first->empty() &&
                          *first == m.first_logits,
                      "first decode logits drifted for " + m.model.name) &&
         ok;
    c.counters = cs.restore;
    if (probe) {
        const Status staged = rt.stageValidationState(1);
        auto logits = rt.graphDecodeLogits(1);
        ok = report.check(staged.isOk() && logits.isOk() &&
                              *logits == m.vanilla_logits,
                          "bs=1 decode logits differ from vanilla for " +
                              m.model.name) &&
             ok;
        const u64 fp = logicalFingerprint(rt);
        if (m.fingerprint == 0) {
            m.fingerprint = fp;
        }
        ok = report.check(fp == m.fingerprint,
                          "restored fingerprint drifted for " +
                              m.model.name) &&
             ok;
        ok = report.check(rt.process().modules().stateFingerprint() ==
                              m.vanilla_modules,
                          "module table differs from vanilla for " +
                              m.model.name) &&
             ok;
    }
    const auto t4 = Clock::now();
    engine->reset();
    {
        const core::MaterializedImage unmapped = std::move(*image);
    }
    const auto t5 = Clock::now();

    c.open_ms = msBetween(t0, t1);
    c.restore_ms = msBetween(t1, t2);
    c.first_token_ms = msBetween(t0, t3);
    c.teardown_ms = msBetween(t4, t5);
    if (trace) {
        // openFile verified this CRC inside open_ms; time it alone.
        const std::span<const u8> payload =
            std::span<const u8>(m.image).subspan(
                core::MaterializedImage::kHeaderBytes);
        const auto c0 = Clock::now();
        const u32 crc = crc32(payload.data(), payload.size());
        c.crc_ms = msBetween(c0, Clock::now());
        ok = report.check(crc == m.payload_crc,
                          "payload CRC of " + m.model.name) &&
             ok;
    }
    return ok;
}

/** What one timed window measured. */
struct Window
{
    double seconds = 0;
    u64 cold_starts = 0;
    Samples latency_ms, ttft_ms, open_ms, restore_ms, teardown_ms, crc_ms;
    Samples relocations_per_ms;
    double relocations = 0, kernels = 0, graphs = 0, allocs = 0;
    double content_bytes = 0, failures = 0;
};

/** Seeded shuffled rounds: every model once per round. */
class ModelOrder
{
  public:
    explicit ModelOrder(u64 seed) : rng_(seed) {}

    std::size_t
    next()
    {
        if (left_.empty()) {
            left_ = {0, 1, 2};
            std::shuffle(left_.begin(), left_.end(), rng_);
        }
        const std::size_t i = left_.back();
        left_.pop_back();
        return i;
    }

  private:
    std::mt19937_64 rng_;
    std::vector<std::size_t> left_;
};

void
measure(std::vector<ModelState> &models, ModelOrder &order,
        double seconds, bool trace, Report &report, Window &w)
{
    const auto w0 = Clock::now();
    while (w.seconds < seconds) {
        ModelState &m = models[order.next()];
        ColdStart c;
        report.attempt();
        if (!coldStartOnce(m, report, c, /*probe=*/false, trace)) {
            report.fail();
            return;
        }
        ++w.cold_starts;
        w.latency_ms.add(c.open_ms + c.restore_ms);
        w.ttft_ms.add(c.first_token_ms);
        w.open_ms.add(c.open_ms);
        w.restore_ms.add(c.restore_ms);
        w.teardown_ms.add(c.teardown_ms);
        w.crc_ms.add(c.crc_ms);
        w.relocations_per_ms.add(
            static_cast<double>(c.counters.relocations_applied) /
            c.restore_ms);
        w.relocations += static_cast<double>(c.counters.relocations_applied);
        w.kernels += static_cast<double>(c.counters.kernels_resolved);
        w.graphs += static_cast<double>(c.counters.graphs_patched);
        w.allocs += static_cast<double>(c.counters.replayed_allocs);
        w.content_bytes +=
            static_cast<double>(c.counters.restored_content_bytes);
        w.failures += static_cast<double>(c.counters.restore_failures);
        w.seconds = secBetween(w0, Clock::now());
    }
}

} // namespace

void
runColdstart(const Args &args, Report &report)
{
    const auto setup0 = Clock::now();
    std::vector<ModelState> models(kNumModels);
    double materialize_s = 0;
    double image_bytes = 0;
    for (std::size_t i = 0; i < kNumModels; ++i) {
        ModelState &m = models[i];
        auto cfg = llm::findModel(kModels[i]);
        if (!report.check(cfg.isOk(), std::string("model ") + kModels[i])) {
            return;
        }
        m.model = *cfg;
        core::OfflineOptions oopts;
        oopts.model = m.model;
        const auto t0 = Clock::now();
        auto offline = core::materialize(oopts);
        materialize_s += secBetween(t0, Clock::now());
        if (!report.check(offline.isOk(),
                          "materialize " + m.model.name + ": " +
                              offline.status().toString())) {
            return;
        }
        std::vector<u8> &bytes = offline->image_bytes;
        if (!report.check(bytes.size() >
                              core::MaterializedImage::kHeaderBytes,
                          "image of " + m.model.name)) {
            return;
        }
        image_bytes += static_cast<double>(bytes.size());
        // Header: magic u32, version u32, payload size u64, payload CRC.
        std::memcpy(&m.payload_crc, bytes.data() + 16, sizeof(u32));
        m.image = bytes;
        if (args.corrupt_image && i == kNumModels - 1) {
            // Negative check: flip one payload bit on disk only.
            bytes[bytes.size() / 2] ^= 0x40;
        }
        m.image_path = args.work_dir + "/" + m.model.name + ".image";
        if (!report.check(writeFile(m.image_path, bytes).isOk(),
                          "write " + m.image_path)) {
            return;
        }
    }
    const double offline_peak_mb = peakRssMb();
    const auto vanilla0 = Clock::now();

    for (ModelState &m : models) {
        llm::BaselineEngine::Options bopts;
        bopts.model = m.model;
        // Same process-launch seed as the restores, so module load
        // addresses (and so the module table) line up.
        bopts.aslr_seed = core::MedusaEngine::Options{}.aslr_seed;
        auto vanilla = llm::BaselineEngine::coldStart(bopts);
        if (!report.check(vanilla.isOk(),
                          "vanilla cold start " + m.model.name)) {
            return;
        }
        llm::ModelRuntime &rt = (*vanilla)->runtime();
        m.vanilla_modules = rt.process().modules().stateFingerprint();
        const Status staged = rt.stageValidationState(1);
        auto logits = rt.graphDecodeLogits(1);
        if (!report.check(staged.isOk() && logits.isOk() && !logits->empty(),
                          "vanilla logits " + m.model.name)) {
            return;
        }
        m.vanilla_logits = std::move(*logits);
    }

    const auto warmup0 = Clock::now();
    for (int round = 0; round < kWarmupRounds; ++round) {
        for (ModelState &m : models) {
            ColdStart c;
            report.attempt();
            // Fidelity probes on the first and last round only: they
            // hash the whole process state, which is slow.
            const bool probe = round == 0 || round == kWarmupRounds - 1;
            if (!coldStartOnce(m, report, c, probe, /*trace=*/false)) {
                report.fail();
                return;
            }
        }
    }
    // Hand the offline phase's freed heap back to the kernel, so the
    // window's peak RSS starts from what a restore loop holds.
    ::malloc_trim(0);
    const double setup_s = secBetween(setup0, Clock::now());
    std::fprintf(stderr,
                 "perfbench setup: materialize %.3f s, vanilla %.3f s, "
                 "warm-up %.3f s\n",
                 materialize_s, secBetween(vanilla0, warmup0),
                 secBetween(warmup0, Clock::now()));

    ModelOrder order(mixSeed(args.seed, 1));
    Window plain;
    Window traced;
    report.host_before = probeHost();
    report.check(resetPeakRss(), "reset VmHWM via /proc/self/clear_refs");
    // A traced run spends half its time untraced, so it can report the
    // tracing overhead against the same process and seed.
    measure(models, order, args.trace ? args.seconds / 2 : args.seconds,
            /*trace=*/false, report, plain);
    const double peak_mb = peakRssMb();
    if (args.trace && report.correct()) {
        measure(models, order, args.seconds / 2, /*trace=*/true, report,
                traced);
    }
    report.host_after = probeHost();
    if (!report.correct()) {
        return;
    }

    if (!args.trace) {
        const double per_s = static_cast<double>(plain.cold_starts) /
                             plain.seconds;
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_mb, "MB");
        report.metric("throughput_per_s", per_s, "1/s");
        report.metric("latency_p50_ms", plain.latency_ms.quantile(0.5),
                      "ms");
        report.metric("latency_p99_ms", plain.latency_ms.quantile(0.99),
                      "ms");
        report.metric("ttft_p50_ms", plain.ttft_ms.quantile(0.5), "ms");
        report.metric("ttft_p99_ms", plain.ttft_ms.quantile(0.99), "ms");
        // One first token per cold start.
        report.metric("tokens_per_s", per_s, "1/s");
        return;
    }
    const double n = static_cast<double>(traced.cold_starts);
    report.metric("medusa.offline.materialize_s", materialize_s, "s");
    report.metric("medusa.offline.peak_rss_mb", offline_peak_mb, "MB");
    report.metric("medusa.image.open_ms_p50", traced.open_ms.median(),
                  "ms");
    report.metric("medusa.image.bytes", image_bytes / kNumModels, "B");
    report.metric("common.crc32.ms_p50", traced.crc_ms.median(), "ms");
    report.metric("medusa.restore.cold_start_ms_p50",
                  traced.restore_ms.median(), "ms");
    report.metric("medusa.restore.cold_start_ms_p99",
                  traced.restore_ms.quantile(0.99), "ms");
    report.metric("medusa.restore.teardown_ms_p50",
                  traced.teardown_ms.median(), "ms");
    report.metric("medusa.restore.relocations_applied",
                  traced.relocations / n, "count");
    report.metric("medusa.restore.kernels_resolved", traced.kernels / n,
                  "count");
    report.metric("medusa.restore.graphs_patched", traced.graphs / n,
                  "count");
    report.metric("medusa.restore.replayed_allocs", traced.allocs / n,
                  "count");
    report.metric("medusa.restore.restored_content_bytes",
                  traced.content_bytes / n, "B");
    report.metric("medusa.restore.failures", traced.failures, "count");
    report.metric("medusa.restore.relocations_per_ms",
                  traced.relocations_per_ms.median(), "1/ms");
    report.metric("perfbench.trace_overhead_pct",
                  100.0 * (static_cast<double>(plain.cold_starts) /
                               plain.seconds /
                               (n / traced.seconds) -
                           1.0),
                  "%");
}

} // namespace perfbench
