/**
 * @file
 * cold-build: the full Table 3 suite x the Table 4 cores x all 16 BSA
 * subsets from an empty artifact cache and an empty RAM tier, so
 * every trace, TDG profile and model component is computed and
 * written. This is the first-run cost every user pays.
 *
 * Round = load 49 kernels cold, build 196 (kernel, core) models,
 * compose the 64-point Figure 12 grid. Operations = the 196 models.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hh"
#include "common/artifact_cache.hh"
#include "common/memo_cache.hh"
#include "common/stats.hh"
#include "energy/area_model.hh"
#include "layers.hh"
#include "checks.hh"
#include "tdg/artifacts.hh"

using namespace prism;

namespace prismbench
{

namespace
{

constexpr unsigned kMasks = 16;

struct Pair
{
    std::size_t wl;
    std::size_t core; ///< index into kTable4Cores
};

/** One round's products: kernels, models, and the composed grid. */
struct Round
{
    std::vector<std::unique_ptr<LoadedWorkload>> loaded; // untraced
    std::vector<Kernel> kernels;                          // traced
    /** models[wl][core]. */
    std::vector<std::array<std::unique_ptr<BenchmarkModel>, 4>> models;
    /** results[wl][core][mask]. */
    std::vector<std::array<std::array<ExoResult, kMasks>, 4>> results;
    /** Per-kernel speedup / energy efficiency of each grid point vs
     *  the IO2 baseline: perf[core*16+mask][wl]. */
    std::vector<std::vector<double>> perf, eff;
    std::vector<double> geoPerf, geoEff;
    double loadS = 0, buildS = 0, gridS = 0;
    double buildCpuS = 0; ///< process CPU time of the build phase
};

/**
 * Run one round. Untraced rounds call the program's own entry points
 * (LoadedWorkload::load, buildModelCached); traced rounds drive the
 * same tiers call by call (layers.hh) inside spans.
 */
Round
runRound(const Options &opt, PoolMeter &pm, Tracer &t,
         const std::vector<const WorkloadSpec *> &specs,
         const std::vector<std::vector<std::size_t>> &groups,
         LayerWork &work)
{
    Round r;
    const std::size_t n = specs.size();
    const std::size_t nc = kTable4Cores.size();
    const ArtifactCache *cache = ArtifactCache::global();
    r.models.resize(n);

    auto t0 = Clock::now();
    {
        SpanScope s(t, "phase.load");
        if (t.on()) {
            r.kernels.resize(n);
            pm.run(
                n,
                [&](std::size_t i) {
                    r.kernels[i] = loadKernel(
                        t, *specs[i], budgetOf(*specs[i], opt.selfCheck),
                        cache, work);
                },
                1);
        } else {
            r.loaded.resize(n);
            pm.run(
                n,
                [&](std::size_t i) {
                    r.loaded[i] = LoadedWorkload::load(*specs[i]);
                },
                1);
        }
    }
    r.loadS = secondsSince(t0);

    auto t1 = Clock::now();
    const double c1 = cpuSeconds();
    {
        SpanScope s(t, "phase.build");
        // One task per (group, core): the two kernels of a
        // code-sharing pair build first-then-second on one thread.
        // Tasks go one at a time, longest traces first, so the phase
        // does not end waiting on one long task started last.
        auto insts = [&](std::size_t wl) {
            return t.on() ? r.kernels[wl].tdg->trace().size()
                          : r.loaded[wl]->tdg().trace().size();
        };
        std::vector<std::size_t> tasks(groups.size() * nc);
        std::vector<std::size_t> len(groups.size(), 0);
        for (std::size_t g = 0; g < groups.size(); ++g) {
            for (std::size_t wl : groups[g])
                len[g] += insts(wl);
        }
        for (std::size_t i = 0; i < tasks.size(); ++i)
            tasks[i] = i;
        std::stable_sort(tasks.begin(), tasks.end(),
                         [&](std::size_t a, std::size_t b) {
                             return len[a / nc] > len[b / nc];
                         });
        pm.run(tasks.size(), [&](std::size_t i) {
            const std::size_t task = tasks[i];
            const auto &g = groups[task / nc];
            const std::size_t c = task % nc;
            const PipelineConfig cfg{.core = coreConfig(kTable4Cores[c])};
            for (std::size_t wl : g) {
                if (t.on()) {
                    r.models[wl][c] =
                        buildModel(t, cache, r.kernels[wl], cfg, work);
                } else {
                    const LoadedWorkload &lw = *r.loaded[wl];
                    r.models[wl][c] = buildModelCached(
                        cache, lw.name(), lw.tdg(), lw.maxInsts(), cfg);
                }
            }
        }, 1);
    }
    r.buildS = secondsSince(t1);
    r.buildCpuS = cpuSeconds() - c1;

    auto t2 = Clock::now();
    {
        SpanScope s(t, "phase.grid");
        r.results.resize(n);
        r.perf.assign(nc * kMasks, std::vector<double>(n));
        r.eff.assign(nc * kMasks, std::vector<double>(n));
        r.geoPerf.assign(nc * kMasks, 0);
        r.geoEff.assign(nc * kMasks, 0);
        pm.run(nc * kMasks, [&](std::size_t p) {
            const std::size_t c = p / kMasks;
            const unsigned mask = static_cast<unsigned>(p % kMasks);
            for (std::size_t wl = 0; wl < n; ++wl) {
                ExoResult res;
                {
                    SpanScope s(t, "exocore.evaluate");
                    res = r.models[wl][c]->evaluate(mask);
                }
                const ExoResult &ref = r.models[wl][0]->baseline();
                r.perf[p][wl] = static_cast<double>(ref.cycles) /
                                static_cast<double>(res.cycles);
                r.eff[p][wl] = ref.energy / res.energy;
                r.results[wl][c][mask] = std::move(res);
            }
            r.geoPerf[p] = geomean(r.perf[p]);
            r.geoEff[p] = geomean(r.eff[p]);
        });
    }
    r.gridS = secondsSince(t2);
    return r;
}

/** Own geomean: exp of the mean log, over the per-kernel values. */
double
ownGeomean(const std::vector<double> &xs)
{
    double s = 0;
    for (double x : xs)
        s += std::log(x);
    return std::exp(s / static_cast<double>(xs.size()));
}

/**
 * Check one round: every model's subset 0 equals its baseline and its
 * unit cycles sum to its total; every sampled pair equals the
 * monolithic reference on all 16 subsets; the grid geomeans match a
 * recomputation from the per-kernel values.
 */
void
checkRound(RunResult &out, const Round &r,
           const std::vector<const WorkloadSpec *> &specs,
           const std::vector<Pair> &sample,
           const std::vector<std::array<ExoResult, kMasks>> &refs)
{
    const std::size_t nc = kTable4Cores.size();
    std::vector<std::vector<bool>> ok(specs.size(),
                                      std::vector<bool>(nc, true));
    for (std::size_t wl = 0; wl < specs.size(); ++wl) {
        for (std::size_t c = 0; c < nc; ++c) {
            const BenchmarkModel &m = *r.models[wl][c];
            bool good = sameResult(r.results[wl][c][0], m.baseline());
            for (unsigned mask = 0; mask < kMasks; ++mask)
                good = good && unitsSumToTotal(r.results[wl][c][mask]);
            ok[wl][c] = good;
        }
    }
    for (std::size_t i = 0; i < sample.size(); ++i) {
        const Pair &p = sample[i];
        for (unsigned mask = 0; mask < kMasks; ++mask) {
            if (!sameResult(r.results[p.wl][p.core][mask], refs[i][mask]))
                ok[p.wl][p.core] = false;
        }
    }
    for (std::size_t wl = 0; wl < specs.size(); ++wl) {
        for (std::size_t c = 0; c < nc; ++c) {
            out.op(ok[wl][c], isSharedCodeKernel(specs[wl]->name),
                   std::string(specs[wl]->name) + " on " +
                       coreConfig(kTable4Cores[c]).name);
        }
    }
    for (std::size_t p = 0; p < r.geoPerf.size(); ++p) {
        out.require(closeRel(r.geoPerf[p], ownGeomean(r.perf[p])) &&
                        closeRel(r.geoEff[p], ownGeomean(r.eff[p])),
                    "grid geomean " + std::to_string(p));
    }
}

/**
 * Self-check: each check above, fed one perturbed value from a real
 * round (on a kernel that shares no code), must report a fault.
 */
void
probeChecks(RunResult &out, Round &r,
            const std::vector<const WorkloadSpec *> &specs,
            const std::vector<Pair> &sample,
            const std::vector<std::array<ExoResult, kMasks>> &refs)
{
    auto rejected = [&](const std::vector<std::array<ExoResult, kMasks>>
                            &rs) {
        RunResult scratch;
        checkRound(scratch, r, specs, sample, rs);
        return !scratch.correct;
    };
    std::size_t i = 0;
    while (isSharedCodeKernel(specs[sample[i].wl]->name))
        ++i;
    auto bad = refs;
    bad[i][3].cycles += 1;
    out.probe(rejected(bad), "monolithic reference cycles");

    // An unsampled pair, so only the property checks can fire.
    Pair q{0, 0};
    for (std::size_t wl = 0; wl < specs.size(); ++wl) {
        const bool sampled = std::any_of(
            sample.begin(), sample.end(),
            [&](const Pair &p) { return p.wl == wl && p.core == 1; });
        if (!sampled && !isSharedCodeKernel(specs[wl]->name)) {
            q = {wl, 1};
            break;
        }
    }
    ExoResult &s0 = r.results[q.wl][q.core][0];
    const ExoResult keep0 = s0;
    s0.cycles += 1;
    s0.unitCycles[0] += 1;
    out.probe(rejected(refs), "subset-0 result vs baseline");
    s0 = keep0;

    ExoResult &s7 = r.results[q.wl][q.core][7];
    const ExoResult keep7 = s7;
    s7.unitCycles[1] += 1;
    out.probe(rejected(refs), "unit cycle split");
    s7 = keep7;

    const double g = r.geoPerf[5];
    r.geoPerf[5] *= 1.000001;
    out.probe(rejected(refs), "grid geomean");
    r.geoPerf[5] = g;
}

} // namespace

RunResult
runColdBuild(const Options &opt, ThreadPool &pool)
{
    RunResult out;
    PoolMeter pm(pool);
    Tracer off(false);
    LayerWork work;
    const auto specs = suiteSpecs();
    const auto groups = buildGroups(specs);
    const std::size_t nc = kTable4Cores.size();

    // ---- Set-up: the check sample and its monolithic references ----
    // Every pair of the four code-sharing kernels, plus eight kernels
    // spread evenly over the rest of the suite on seeded cores (fixed
    // kernels keep the set-up's cost from moving with the seed).
    // References use the monolithic constructor on kernels loaded
    // without any cache tier.
    ArtifactCache::setGlobalDir("");
    std::vector<Pair> sample;
    std::vector<std::size_t> rest;
    std::mt19937_64 rng(opt.seed);
    for (std::size_t wl = 0; wl < specs.size(); ++wl) {
        if (!isSharedCodeKernel(specs[wl]->name)) {
            rest.push_back(wl);
            continue;
        }
        for (std::size_t c = 0; c < nc; ++c)
            sample.push_back({wl, c});
    }
    for (std::size_t i = 0; i < 8; ++i)
        sample.push_back({rest[i * rest.size() / 8], rng() % nc});

    std::vector<std::size_t> refKernels;
    for (const Pair &p : sample) {
        if (std::find(refKernels.begin(), refKernels.end(), p.wl) ==
            refKernels.end())
            refKernels.push_back(p.wl);
    }
    std::vector<std::array<ExoResult, kMasks>> refs(sample.size());
    std::vector<double> setupS;
    for (int rep = 0; rep < kSetups; ++rep) {
        const auto s0 = Clock::now();
        std::vector<std::unique_ptr<LoadedWorkload>> refLoaded(
            specs.size());
        pm.run(refKernels.size(), [&](std::size_t i) {
            refLoaded[refKernels[i]] =
                LoadedWorkload::load(*specs[refKernels[i]]);
        });
        pm.run(sample.size(), [&](std::size_t i) {
            const Pair &p = sample[i];
            const BenchmarkModel m(
                refLoaded[p.wl]->tdg(),
                PipelineConfig{.core = coreConfig(kTable4Cores[p.core])});
            for (unsigned mask = 0; mask < kMasks; ++mask)
                refs[i][mask] = m.evaluate(mask);
        });
        setupS.push_back(secondsSince(s0));
    }
    out.samples["setup_s"] = setupS;
    out.set("setup_s", median(setupS), "s");

    // ---- Timed rounds: each from an empty disk cache and RAM tier ----
    auto fresh = [&]() {
        ArtifactCache::setGlobalDir("");
        const std::string dir = freshDir(opt.workDir, "cold-cache");
        MemoCache::global().clear();
        ArtifactCache::setGlobalDir(dir);
        return dir;
    };

    std::vector<double> roundS, opsPerCpuS;
    double timed = 0;
    double rssMib = 0;
    do {
        const std::string dir = fresh();
        Round r = runRound(opt, pm, off, specs, groups, work);
        const double s = r.loadS + r.buildS + r.gridS;
        timed += s;
        roundS.push_back(s);
        opsPerCpuS.push_back(static_cast<double>(specs.size() * nc) /
                             r.buildCpuS);
        rssMib = std::max(rssMib, peakRssMib());
        checkRound(out, r, specs, sample, refs);
        if (opt.selfCheck && !opt.trace)
            probeChecks(out, r, specs, sample, refs);
        ++out.rounds;
        ArtifactCache::setGlobalDir("");
        removeDir(dir);
    } while (!opt.selfCheck && !opt.trace && timed < opt.seconds);

    if (!opt.trace) {
        out.samples["wait_s"] = roundS;
        out.samples["ops_per_cpu_s"] = opsPerCpuS;
        out.set("wait_s", median(roundS), "s");
        out.set("ops_per_cpu_s", median(opsPerCpuS), "1/cpu-s");
        out.set("peak_rss_mib", rssMib, "MiB");
        return out;
    }

    // ---- Traced round: the same work, one layer call per span ----
    Tracer t(true);
    PoolMeter tpm(pool);
    LayerWork tw;
    const std::string dir = fresh();
    const MemoCache::Stats m0 = MemoCache::global().stats();
    const std::int64_t ts0 = t.nowNs();
    Round r = runRound(opt, tpm, t, specs, groups, tw);
    const std::int64_t ts1 = t.nowNs();
    const MemoCache::Stats m1 = MemoCache::global().stats();
    checkRound(out, r, specs, sample, refs);
    ++out.rounds;

    std::map<std::string, double> v;
    const LayerTimes lt = summarize(t.spans(), ts0, ts1);
    addLayerTimes(v, lt, tw);
    addArtifactStats(v, *ArtifactCache::global());
    addMemoStats(v, m0, m1);
    v["pool.busy_ratio"] = tpm.busyRatio();
    v["pool.max_task_ms"] = tpm.maxTaskMs();
    v["trace.coverage_pct"] = lt.coveragePct;
    v["trace.overhead_ratio"] =
        (r.loadS + r.buildS + r.gridS) / roundS.front();
    setLayerMetrics(out, v);
    noteSpans(out, lt);
    ArtifactCache::setGlobalDir("");
    removeDir(dir);
    return out;
}

} // namespace prismbench
