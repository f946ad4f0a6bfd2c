/**
 * @file
 * warm-search: the full suite restarted against an artifact cache
 * filled during set-up, with the RAM tier empty. A round assembles
 * every (kernel, core) model of the default 16-core grid from disk
 * and runs the 1024-point DesignSearch (16 cores x 16 subsets x 4
 * area budgets) over them. Interpretation, µDG timing and BSA
 * evaluation should do no work at all: this is the read side of
 * cold-build.
 *
 * Operations = the 784 models a round assembles.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench.hh"
#include "checks.hh"
#include "common/artifact_cache.hh"
#include "common/memo_cache.hh"
#include "energy/area_model.hh"
#include "layers.hh"
#include "tdg/artifacts.hh"
#include "tdg/search.hh"
#include "trace/trace_cache.hh"

using namespace prism;

namespace prismbench
{

namespace
{

constexpr unsigned kMasks = 16;

/** Searches per round over the same warm tables: one search composes
 *  in milliseconds, too little work to time steadily on its own. */
constexpr int kSearches = 24;

/** Set-up results: cycles/energy[wl][core][mask]. */
struct ColdResults
{
    std::vector<std::vector<std::array<Cycle, kMasks>>> cycles;
    std::vector<std::vector<std::array<double, kMasks>>> energy;
};

/** Cache counters of the four kinds, as the cache counted them. */
std::array<ArtifactStats, 4>
kindStats(const ArtifactCache &c)
{
    return {c.stats(kTraceArtifactKind), c.stats(kTdgProfilesKind),
            c.stats(kBaseTimingKind), c.stats(kRegionEvalKind)};
}

/** Four seeded area budgets (mm^2, one decimal) spanning the grid's
 *  range from the smallest bare core to the largest full ExoCore. */
std::vector<double>
seededBudgets(const std::vector<CoreParams> &grid, std::uint64_t seed)
{
    double lo = 1e300, hi = 0;
    for (const CoreParams &c : grid) {
        lo = std::min(lo, exoCoreArea(c, 0));
        hi = std::max(hi, exoCoreArea(c, kFullBsaMask));
    }
    std::mt19937_64 rng(seed ^ 0x5eedb0d9e7ull);
    std::uniform_real_distribution<double> u(lo, hi);
    std::vector<double> b;
    while (b.size() < 4) {
        const double v = std::round(u(rng) * 10) / 10;
        if (v > 0 && std::find(b.begin(), b.end(), v) == b.end())
            b.push_back(v);
    }
    std::sort(b.begin(), b.end());
    return b;
}

/** One timed restart + search. */
struct Round
{
    std::unique_ptr<DesignSearch> search;
    std::vector<SearchPoint> points, frontier;
    /** Restart + the first search (what one user waits for), and
     *  the time of all kSearches searches. */
    double restartS = 0, firstSearchS = 0, searchS = 0;
    double searchCpuS = 0; ///< process CPU time of the searches
    std::array<ArtifactStats, 4> stats{};
    MemoCache::Stats m0{}, m1{};
};

Round
runRound(Tracer &t, ThreadPool &pool, const SearchSpace &space,
         const std::vector<std::unique_ptr<LoadedWorkload>> &firstTwins,
         const std::string &dir)
{
    Round r;
    ArtifactCache::setGlobalDir("");
    MemoCache::global().clear();
    ArtifactCache::setGlobalDir(dir); // fresh counters
    const ArtifactCache *cache = ArtifactCache::global();
    r.m0 = MemoCache::global().stats();

    const auto t0 = Clock::now();
    r.search = std::make_unique<DesignSearch>(space, allWorkloads());
    {
        SpanScope s(t, "search.load");
        r.search->load(pool);
    }
    {
        // The first kernel of each code-sharing pair fills the shared
        // RAM keys before the search's own parallel assembly, so the
        // pair resolves the same way in every run.
        SpanScope s(t, "search.prefetch");
        pool.parallelFor(firstTwins.size() * space.cores.size(),
                         [&](std::size_t i) {
            const LoadedWorkload &lw =
                *firstTwins[i / space.cores.size()];
            const CoreParams &c = space.cores[i % space.cores.size()];
            buildModelCached(cache, lw.name(), lw.tdg(), lw.maxInsts(),
                             pipelineConfigFrom(c));
        });
    }
    {
        SpanScope s(t, "search.prepare");
        r.search->prepare(pool);
    }
    r.restartS = secondsSince(t0);

    const auto t1 = Clock::now();
    const double c1 = cpuSeconds();
    for (int i = 0; i < kSearches; ++i) {
        {
            SpanScope s(t, "search.run");
            r.points = r.search->run(pool);
        }
        {
            SpanScope s(t, "search.pareto");
            r.frontier = paretoFrontier(r.points);
        }
        if (i == 0)
            r.firstSearchS = secondsSince(t1);
    }
    r.searchS = secondsSince(t1);
    r.searchCpuS = cpuSeconds() - c1;
    r.stats = kindStats(*cache);
    r.m1 = MemoCache::global().stats();
    return r;
}

/** Split one CSV line. */
std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : line) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

/**
 * Check one round: nothing was generated or computed (the cache's
 * own counters); every model reproduces the set-up's cold results on
 * all 16 subsets (read back through the search's dataset export);
 * every point's geomeans recompute from the per-kernel rows; the
 * frontier matches brute-force dominance.
 */
void
checkRound(RunResult &out, const Round &r, const SearchSpace &space,
           const std::vector<const WorkloadSpec *> &specs,
           const ColdResults &cold)
{
    const char *kinds[4] = {"trace", "tdgprof", "basecore",
                            "regioneval"};
    for (int k = 0; k < 4; ++k) {
        out.require(r.stats[k].misses == 0 && r.stats[k].stores == 0,
                    std::string("warm restart computed ") + kinds[k] +
                        " artifacts (" +
                        std::to_string(r.stats[k].misses) +
                        " misses)");
    }

    std::stringstream csv;
    r.search->exportDataset(csv);
    std::string line;
    std::getline(csv, line); // version comment
    std::getline(csv, line);
    const std::vector<std::string> head = splitCsv(line);
    auto col = [&](const char *name) {
        return static_cast<std::size_t>(
            std::find(head.begin(), head.end(), name) - head.begin());
    };
    const std::size_t cName = col("workload"), cCyc = col("cycles"),
                      cEn = col("energy_pj");
    const std::size_t nc = space.cores.size();
    const std::size_t nb = space.areaBudgets.size();
    const std::size_t perWl = nc * nb * kMasks;

    std::vector<std::vector<bool>> ok(specs.size(),
                                      std::vector<bool>(nc, true));
    // rowCycles[wl][point] for the composition check.
    std::vector<std::vector<double>> rowCycles(specs.size()),
        rowEnergy(specs.size());
    bool shape = true;
    for (std::size_t wl = 0; wl < specs.size() && shape; ++wl) {
        for (std::size_t i = 0; i < perWl; ++i) {
            if (!std::getline(csv, line)) {
                shape = false;
                break;
            }
            const std::vector<std::string> f = splitCsv(line);
            if (f.size() != head.size() || f[cName] != specs[wl]->name) {
                shape = false;
                break;
            }
            const std::size_t c = i / (nb * kMasks);
            const unsigned mask = static_cast<unsigned>(i % kMasks);
            const Cycle cyc = std::strtoull(f[cCyc].c_str(), nullptr, 10);
            const double en = std::strtod(f[cEn].c_str(), nullptr);
            rowCycles[wl].push_back(static_cast<double>(cyc));
            rowEnergy[wl].push_back(en);
            if (cyc != cold.cycles[wl][c][mask] ||
                std::fabs(en - cold.energy[wl][c][mask]) >
                    0.05 + 1e-12 * en)
                ok[wl][c] = false;
        }
    }
    out.require(shape, "dataset export shape");
    for (std::size_t wl = 0; wl < specs.size(); ++wl) {
        for (std::size_t c = 0; c < nc; ++c) {
            out.op(shape && ok[wl][c], isSharedCodeKernel(specs[wl]->name),
                   std::string(specs[wl]->name) + " on " +
                       coreParamsName(space.cores[c]));
        }
    }
    if (!shape)
        return;

    // The reference core is the grid's IO2 point (index 0); its
    // subset-0 row is each kernel's baseline.
    bool composed = true;
    for (std::size_t p = 0; p < r.points.size(); ++p) {
        double sp = 0, se = 0;
        for (std::size_t wl = 0; wl < specs.size(); ++wl) {
            sp += std::log(rowCycles[wl][0] / rowCycles[wl][p]);
            se += std::log(rowEnergy[wl][0] / rowEnergy[wl][p]);
        }
        const double n = static_cast<double>(specs.size());
        composed = composed &&
                   closeRel(r.points[p].speedup, std::exp(sp / n), 1e-9) &&
                   closeRel(r.points[p].energyEff, std::exp(se / n), 1e-6);
    }
    out.require(composed, "search point geomeans recompute");
    out.require(frontierIndices(r.frontier) == bruteFrontier(r.points),
                "Pareto frontier equals brute-force dominance");
}

/**
 * Self-check: each check above, fed one perturbed value from a real
 * round (on a kernel that shares no code), must report a fault.
 */
void
probeChecks(RunResult &out, Round &r, const SearchSpace &space,
            const std::vector<const WorkloadSpec *> &specs,
            const ColdResults &cold)
{
    auto rejected = [&](const ColdResults &c) {
        RunResult scratch;
        checkRound(scratch, r, space, specs, c);
        return !scratch.correct;
    };
    std::size_t wl = 0;
    while (isSharedCodeKernel(specs[wl]->name))
        ++wl;
    ColdResults bad = cold;
    bad.cycles[wl][2][5] += 1;
    out.probe(rejected(bad), "set-up model cycles");

    const std::uint64_t misses = r.stats[2].misses;
    r.stats[2].misses = 1;
    out.probe(rejected(cold), "basecore miss counter");
    r.stats[2].misses = misses;

    const double sp = r.points[9].speedup;
    r.points[9].speedup *= 1.000001;
    out.probe(rejected(cold), "search point speedup");
    r.points[9].speedup = sp;

    const SearchPoint last = r.frontier.back();
    r.frontier.pop_back();
    out.probe(rejected(cold), "Pareto frontier");
    r.frontier.push_back(last);
}

} // namespace

RunResult
runWarmSearch(const Options &opt, ThreadPool &pool)
{
    RunResult out;
    PoolMeter pm(pool);
    Tracer off(false);
    const auto specs = suiteSpecs();

    SearchSpace space;
    space.cores = defaultCoreGrid();
    space.numMasks = kMasks;
    space.areaBudgets = seededBudgets(space.cores, opt.seed);
    const std::size_t nc = space.cores.size();

    // ---- Set-up: fill the cache cold and keep every model's results.
    // The second kernel of each code-sharing pair builds after the RAM
    // tier is emptied, so every set-up model (and every file on disk)
    // holds its own kernel's tables.
    const auto setup0 = Clock::now();
    ArtifactCache::setGlobalDir("");
    MemoCache::global().clear();
    const std::string dir = freshDir(opt.workDir, "warm-cache");
    ArtifactCache::setGlobalDir(dir);
    std::vector<std::unique_ptr<LoadedWorkload>> loaded(specs.size());
    pm.run(specs.size(), [&](std::size_t i) {
        loaded[i] = LoadedWorkload::load(*specs[i]);
    });
    ColdResults cold;
    cold.cycles.resize(specs.size(),
                       std::vector<std::array<Cycle, kMasks>>(nc));
    cold.energy.resize(specs.size(),
                       std::vector<std::array<double, kMasks>>(nc));
    for (int phase = 0; phase < 2; ++phase) {
        std::vector<std::size_t> wls;
        for (std::size_t wl = 0; wl < specs.size(); ++wl) {
            const std::string name = specs[wl]->name;
            const bool second = isSharedCodeKernel(name) &&
                                !isFirstTwin(name);
            if (second == (phase == 1))
                wls.push_back(wl);
        }
        if (phase == 1)
            MemoCache::global().clear();
        pm.run(wls.size() * nc, [&](std::size_t task) {
            const std::size_t wl = wls[task / nc];
            const std::size_t c = task % nc;
            const LoadedWorkload &lw = *loaded[wl];
            const auto m = buildModelCached(
                ArtifactCache::global(), lw.name(), lw.tdg(),
                lw.maxInsts(), pipelineConfigFrom(space.cores[c]));
            for (unsigned mask = 0; mask < kMasks; ++mask) {
                const ExoResult res = m->evaluate(mask);
                cold.cycles[wl][c][mask] = res.cycles;
                cold.energy[wl][c][mask] = res.energy;
            }
        });
    }
    std::vector<std::unique_ptr<LoadedWorkload>> firstTwins;
    for (std::size_t wl = 0; wl < specs.size(); ++wl) {
        if (isFirstTwin(specs[wl]->name))
            firstTwins.push_back(std::move(loaded[wl]));
    }
    loaded.clear();
    out.set("setup_s", secondsSince(setup0), "s");

    // ---- Timed rounds ----
    std::vector<double> roundS, restartS, opsPerCpuS;
    double timed = 0;
    double rssMib = 0;
    do {
        Round r = runRound(off, pool, space, firstTwins, dir);
        timed += r.restartS + r.searchS;
        roundS.push_back(r.restartS + r.firstSearchS);
        restartS.push_back(r.restartS);
        opsPerCpuS.push_back(static_cast<double>(r.points.size()) *
                             kSearches / r.searchCpuS);
        rssMib = std::max(rssMib, peakRssMib());
        checkRound(out, r, space, specs, cold);
        if (opt.selfCheck && !opt.trace)
            probeChecks(out, r, space, specs, cold);
        ++out.rounds;
    } while (!opt.selfCheck && !opt.trace && timed < opt.seconds);

    if (!opt.trace) {
        out.samples["wait_s"] = roundS;
        out.samples["ops_per_cpu_s"] = opsPerCpuS;
        out.set("wait_s", median(roundS), "s");
        out.set("ops_per_cpu_s", median(opsPerCpuS), "1/cpu-s");
        out.set("peak_rss_mib", rssMib, "MiB");
        ArtifactCache::setGlobalDir("");
        removeDir(dir);
        return out;
    }

    // ---- Traced round: a call-by-call restart for the artifact and
    // RAM-tier layers, then the search itself in spans ----
    Tracer t(true);
    PoolMeter tpm(pool);
    LayerWork tw;
    std::map<std::string, double> v;
    const std::int64_t ts0 = t.nowNs();
    const auto w0 = Clock::now();
    double tracedRestartS = 0;
    {
        SpanScope s(t, "phase.restart");
        MemoCache::global().clear();
        const ArtifactCache probe(dir);
        std::vector<Kernel> kernels(specs.size());
        tpm.run(specs.size(), [&](std::size_t i) {
            kernels[i] = loadKernel(t, *specs[i],
                                    budgetOf(*specs[i], opt.selfCheck),
                                    &probe, tw);
        });
        const auto groups = buildGroups(specs);
        tpm.run(groups.size() * nc, [&](std::size_t task) {
            for (std::size_t wl : groups[task / nc]) {
                buildModel(t, &probe, kernels[wl],
                           pipelineConfigFrom(space.cores[task % nc]),
                           tw);
            }
        });
        tracedRestartS = secondsSince(w0);
    }
    Round r = runRound(t, pool, space, firstTwins, dir);
    const std::int64_t ts1 = t.nowNs();
    checkRound(out, r, space, specs, cold);
    ++out.rounds;

    const LayerTimes lt = summarize(t.spans(), ts0, ts1);
    addLayerTimes(v, lt, tw);
    // Hits, misses and bytes of the search's own restart, from the
    // cache's counters (the call-by-call pass above only times them).
    addArtifactStats(v, *ArtifactCache::global());
    addMemoStats(v, r.m0, r.m1);
    // DesignSearch::run evaluates every point on every kernel; the
    // per-call figure is its wall time x contexts / calls.
    const double calls =
        static_cast<double>(r.points.size() * specs.size()) * kSearches;
    v["exocore.evaluate_calls"] = calls;
    v["exocore.evaluate_ns"] = lt.totalMs.at("search.run") * 1e6 *
                               pool.effectiveContexts() / calls;
    v["pool.busy_ratio"] = tpm.busyRatio();
    v["pool.max_task_ms"] = tpm.maxTaskMs();
    v["trace.coverage_pct"] = lt.coveragePct;
    // The call-by-call restart against the program's own.
    v["trace.overhead_ratio"] = tracedRestartS / restartS.front();
    setLayerMetrics(out, v);
    noteSpans(out, lt);
    ArtifactCache::setGlobalDir("");
    removeDir(dir);
    return out;
}

} // namespace prismbench
