#include "layers.hh"

#include <array>
#include <optional>

#include "common/memo_cache.hh"
#include "prog/builder.hh"
#include "sim/trace_gen.hh"
#include "tdg/analyzer.hh"
#include "tdg/artifacts.hh"
#include "tdg/builder.hh"
#include "trace/trace_cache.hh"

using namespace prism;

namespace prismbench
{

namespace
{

/**
 * The RAM-tier address of a component, as tdg/artifacts.cc derives it
 * from the public disk key. Mirrored here so the traced path shares
 * the untraced path's RAM entries, including the colliding ones.
 */
std::uint64_t
ramKey(const ArtifactKind &kind, const ArtifactKey &key)
{
    return ArtifactKey()
        .mix(std::string_view(kind.name))
        .mix(kind.version)
        .mix(key.hash())
        .hash();
}

const char *
storeSpan(const ArtifactKind &kind)
{
    const std::string_view n = kind.name;
    if (n == "trace")
        return "artifact.trace.store";
    if (n == "tdgprof")
        return "artifact.tdgprof.store";
    if (n == "basecore")
        return "artifact.basecore.store";
    return "artifact.regioneval.store";
}

const char *
loadSpan(const ArtifactKind &kind)
{
    const std::string_view n = kind.name;
    if (n == "trace")
        return "artifact.trace.load";
    if (n == "tdgprof")
        return "artifact.tdgprof.load";
    if (n == "basecore")
        return "artifact.basecore.load";
    return "artifact.regioneval.load";
}

/** getOrCompute with each tier's call in its own span. */
template <typename T, typename Load, typename Compute, typename Store>
std::shared_ptr<const T>
tiered(Tracer &t, const ArtifactKind &kind, std::uint64_t key,
       const ArtifactCache *cache, Load &&load, Compute &&compute,
       Store &&store)
{
    MemoCache &ram = MemoCache::global();
    {
        SpanScope s(t, "memo.get");
        if (auto hit = ram.get(key))
            return std::static_pointer_cast<const T>(hit);
    }
    std::shared_ptr<const T> value;
    if (cache) {
        SpanScope s(t, loadSpan(kind));
        if (std::optional<T> v = load())
            value = std::make_shared<const T>(std::move(*v));
    }
    if (!value) {
        value = std::make_shared<const T>(compute());
        if (cache) {
            SpanScope s(t, storeSpan(kind));
            store(*value);
        }
    }
    SpanScope s(t, "memo.put");
    ram.put(key, value, tableBytes(*value));
    return value;
}

} // namespace

std::uint64_t
budgetOf(const WorkloadSpec &spec, bool selfCheck)
{
    return selfCheck ? kSelfCheckInsts : spec.maxInsts;
}

const char *
bsaSpanName(BsaKind b)
{
    switch (b) {
      case BsaKind::Simd:
        return "bsa.simd";
      case BsaKind::DpCgra:
        return "bsa.dpcgra";
      case BsaKind::Nsdf:
        return "bsa.nsdf";
      case BsaKind::Tracep:
        return "bsa.tracep";
    }
    return "bsa.unknown";
}

Kernel
loadKernel(Tracer &t, const WorkloadSpec &spec, std::uint64_t max_insts,
           const ArtifactCache *cache, LayerWork &work)
{
    Kernel k;
    k.name = spec.name;
    k.maxInsts = max_insts;

    SimMemory mem;
    std::vector<std::int64_t> args;
    {
        SpanScope s(t, "prog.build");
        ProgramBuilder pb;
        spec.build(pb, mem, args);
        k.prog = std::make_unique<Program>(pb.build());
    }
    const Program &prog = *k.prog;

    std::optional<Trace> trace;
    if (cache) {
        SpanScope s(t, "artifact.trace.load");
        trace = loadCachedTrace(*cache, k.name, prog, max_insts);
    }
    TdgStatics statics(prog);
    std::optional<TdgProfiles> profiles;
    if (trace && cache) {
        SpanScope s(t, "artifact.tdgprof.load");
        profiles = loadTdgProfiles(*cache, k.name, prog, max_insts,
                                   *trace, statics.forest.numLoops());
    }
    const bool traceMiss = !trace;
    if (!trace) {
        SpanScope s(t, "sim.frontend");
        TraceGenConfig cfg;
        cfg.maxInsts = max_insts;
        trace.emplace(&prog);
        trace->reserve(max_insts / 4);
        generateTrace(prog, mem, args, *trace, cfg);
        work.frontendInsts += trace->size();
    }
    if (!profiles) {
        SpanScope s(t, "tdg.builder");
        TdgBuilder builder(statics);
        builder.begin(*trace);
        builder.feed(0, trace->size());
        profiles = builder.finish();
        work.builderInsts += trace->size();
    }
    if (cache && traceMiss) {
        SpanScope s(t, "artifact.trace.store");
        storeCachedTrace(*cache, k.name, prog, max_insts, *trace);
    }
    if (cache && traceMiss) {
        SpanScope s(t, "artifact.tdgprof.store");
        storeTdgProfiles(*cache, k.name, prog, max_insts, *profiles);
    }
    k.tdg = std::make_unique<Tdg>(prog, std::move(*trace),
                                  std::move(statics),
                                  std::move(*profiles));
    return k;
}

std::unique_ptr<BenchmarkModel>
buildModel(Tracer &t, const ArtifactCache *cache, const Kernel &k,
           const PipelineConfig &cfg, LayerWork &work)
{
    const Tdg &tdg = *k.tdg;
    const Program &prog = tdg.trace().program();

    auto base = tiered<BaselineTables>(
        t, kBaseTimingKind,
        ramKey(kBaseTimingKind,
               baselineTablesKey(prog, k.maxInsts, cfg)),
        cache,
        [&] {
            return loadBaselineTables(*cache, k.name, tdg, k.maxInsts,
                                      cfg);
        },
        [&] {
            SpanScope s(t, "uarch.baseline");
            work.baselineInsts += tdg.trace().size();
            return computeBaselineTables(tdg, cfg);
        },
        [&](const BaselineTables &v) {
            storeBaselineTables(*cache, k.name, prog, k.maxInsts, cfg,
                                v);
        });

    std::unique_ptr<TdgAnalyzer> analyzer;
    std::array<std::shared_ptr<const RegionEvalTable>, 4> bsas;
    for (std::size_t i = 0; i < kAllBsas.size(); ++i) {
        const BsaKind b = kAllBsas[i];
        bsas[i] = tiered<RegionEvalTable>(
            t, kRegionEvalKind,
            ramKey(kRegionEvalKind,
                   regionEvalKey(prog, k.maxInsts, cfg, b)),
            cache,
            [&] {
                return loadRegionEvalTable(*cache, k.name, tdg,
                                           k.maxInsts, cfg, b);
            },
            [&] {
                if (!analyzer) {
                    SpanScope s(t, "tdg.analyzer");
                    analyzer = std::make_unique<TdgAnalyzer>(tdg);
                }
                SpanScope s(t, bsaSpanName(b));
                return computeRegionEvalTable(tdg, *analyzer, cfg, b);
            },
            [&](const RegionEvalTable &v) {
                storeRegionEvalTable(*cache, k.name, prog, k.maxInsts,
                                     cfg, b, v);
            });
    }
    return std::make_unique<BenchmarkModel>(tdg, cfg, std::move(base),
                                            std::move(bsas));
}

namespace
{

double
rateMinstsPerS(std::uint64_t insts, double ms)
{
    return ms > 0 ? static_cast<double>(insts) / 1e6 / (ms / 1e3) : 0.0;
}

double
get(const std::map<std::string, double> &m, const std::string &k)
{
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

} // namespace

void
addLayerTimes(std::map<std::string, double> &v, const LayerTimes &lt,
              const LayerWork &work)
{
    const auto &ms = lt.totalMs;
    v["sim.frontend_ms"] = get(ms, "sim.frontend");
    v["sim.frontend_minsts_per_s"] =
        rateMinstsPerS(work.frontendInsts, get(ms, "sim.frontend"));
    v["tdg.builder_ms"] = get(ms, "tdg.builder");
    v["tdg.builder_minsts_per_s"] =
        rateMinstsPerS(work.builderInsts, get(ms, "tdg.builder"));
    v["tdg.analyzer_ms"] = get(ms, "tdg.analyzer");
    v["uarch.baseline_ms"] = get(ms, "uarch.baseline");
    v["uarch.baseline_minsts_per_s"] =
        rateMinstsPerS(work.baselineInsts, get(ms, "uarch.baseline"));
    for (BsaKind b : kAllBsas) {
        const std::string n = bsaSpanName(b);
        v[n + "_ms"] = get(ms, n);
    }
    const auto calls = lt.count.find("exocore.evaluate");
    if (calls != lt.count.end() && calls->second > 0) {
        v["exocore.evaluate_calls"] = static_cast<double>(calls->second);
        v["exocore.evaluate_ns"] = get(ms, "exocore.evaluate") * 1e6 /
                                   static_cast<double>(calls->second);
    }
    v["search.run_ms"] = get(ms, "search.run");
    v["search.pareto_ms"] = get(ms, "search.pareto");
    for (const char *k : {"trace", "tdgprof", "basecore", "regioneval"}) {
        const std::string p = std::string("artifact.") + k;
        v[p + ".store_ms"] = get(ms, p + ".store");
        v[p + ".load_ms"] = get(ms, p + ".load");
    }
}

void
addArtifactStats(std::map<std::string, double> &v,
                 const ArtifactCache &cache)
{
    for (const ArtifactKind &kind :
         {kTraceArtifactKind, kTdgProfilesKind, kBaseTimingKind,
          kRegionEvalKind}) {
        const ArtifactStats s = cache.stats(kind);
        const std::string p = std::string("artifact.") + kind.name;
        v[p + ".written_mib"] =
            static_cast<double>(s.bytesWritten) / (1024.0 * 1024.0);
        v[p + ".read_mib"] =
            static_cast<double>(s.bytesRead) / (1024.0 * 1024.0);
        v[p + ".hits"] = static_cast<double>(s.hits);
        v[p + ".misses"] = static_cast<double>(s.misses + s.rejected);
    }
}

void
addMemoStats(std::map<std::string, double> &v,
             const MemoCache::Stats &before, const MemoCache::Stats &after)
{
    v["memo.hits"] = static_cast<double>(after.hits - before.hits);
    v["memo.misses"] = static_cast<double>(after.misses - before.misses);
    v["memo.evictions"] =
        static_cast<double>(after.evictions - before.evictions);
}

} // namespace prismbench
