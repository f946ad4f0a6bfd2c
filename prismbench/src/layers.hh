/**
 * @file
 * The pipeline as traced runs drive it: the same work
 * LoadedWorkload::load() and buildModelCached() do, spelled out one
 * public layer call at a time so each call sits in its own span.
 * The RAM tier is consulted and filled exactly as the program's
 * tiered fetch does, so the code-sharing kernels resolve their shared
 * key the same way as in untraced runs.
 */

#ifndef PRISMBENCH_LAYERS_HH
#define PRISMBENCH_LAYERS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "bench.hh"
#include "common/artifact_cache.hh"
#include "common/memo_cache.hh"
#include "prog/program.hh"
#include "tdg/exocore.hh"
#include "tdg/tdg.hh"
#include "workloads/suite.hh"

namespace prismbench
{

/** Instructions processed per layer (for per-layer rates). */
struct LayerWork
{
    std::atomic<std::uint64_t> frontendInsts{0};
    std::atomic<std::uint64_t> builderInsts{0};
    std::atomic<std::uint64_t> baselineInsts{0};
};

/** A workload materialized call by call (program, trace, TDG). */
struct Kernel
{
    std::string name;
    std::uint64_t maxInsts = 0;
    std::unique_ptr<prism::Program> prog; ///< stable address: the
                                          ///< trace points into it
    std::unique_ptr<prism::Tdg> tdg;
};

/** The effective instruction budget of a spec in this run. */
std::uint64_t budgetOf(const prism::WorkloadSpec &spec, bool selfCheck);

/**
 * Build the guest program, then take the trace and TDG profiles from
 * `cache` when present, else run the front end (span sim.frontend)
 * and one TdgBuilder pass (span tdg.builder) and store both.
 * `cache` may be null (no artifact traffic).
 */
Kernel loadKernel(Tracer &t, const prism::WorkloadSpec &spec,
                  std::uint64_t max_insts,
                  const prism::ArtifactCache *cache, LayerWork &work);

/**
 * Assemble one model from the tiers: RAM (spans memo.get/memo.put),
 * then disk (artifact.<kind>.load), then compute (uarch.baseline,
 * bsa.<name>, with tdg.analyzer built on first need) and store
 * (artifact.<kind>.store).
 */
std::unique_ptr<prism::BenchmarkModel>
buildModel(Tracer &t, const prism::ArtifactCache *cache, const Kernel &k,
           const prism::PipelineConfig &cfg, LayerWork &work);

/** Span name of one BSA's region evaluation ("bsa.nsdf", ...). */
const char *bsaSpanName(prism::BsaKind b);

/** Layer times and rates from a traced round's spans. */
void addLayerTimes(std::map<std::string, double> &v, const LayerTimes &lt,
                   const LayerWork &work);

/** Per-kind artifact counters, as the cache itself counted them. */
void addArtifactStats(std::map<std::string, double> &v,
                      const prism::ArtifactCache &cache);

/** RAM-tier counter deltas between two snapshots. */
void addMemoStats(std::map<std::string, double> &v,
                  const prism::MemoCache::Stats &before,
                  const prism::MemoCache::Stats &after);

} // namespace prismbench

#endif // PRISMBENCH_LAYERS_HH
