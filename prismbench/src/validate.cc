/**
 * @file
 * validate: sampled cross-validation of the µDG model against the
 * event-driven reference simulator on the 98 (kernel, core) rows of
 * the existing experiment (49 kernels x IO2, OOO2), with kernels
 * loaded cold. The only workload that exercises tdg/reference, and a
 * second front-end load with no BSA region evaluation at all.
 *
 * Round = load the 49 kernels cold, then one sampled CPI estimate per
 * row in seeded order. Operations = the 98 rows. Each row's
 * confidence interval must contain the CPI of a full-trace reference
 * run (made in set-up), at <= 10% coverage. The sampling seed itself
 * stays the method's default: at 99% confidence about one row in a
 * hundred misses its interval by design, which a per-seed draw would
 * turn into failures that come and go with the seed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hh"
#include "common/artifact_cache.hh"
#include "layers.hh"
#include "tdg/constructor.hh"
#include "tdg/reference/ref_models.hh"
#include "tdg/reference/sampled_validate.hh"

using namespace prism;

namespace prismbench
{

namespace
{

constexpr CoreKind kCores[2] = {CoreKind::IO2, CoreKind::OOO2};

/** CPI of a full-trace run of the reference simulator. */
double
fullTraceCpi(const Trace &trace, CoreKind kind)
{
    const MStream full = buildCoreStream(trace);
    RefSimScratch ss;
    const Cycle cycles = CycleCoreSim(coreConfig(kind)).run(full, ss);
    return static_cast<double>(cycles) / static_cast<double>(full.size());
}

/** A row passes when its interval holds the full-trace CPI and the
 *  reference simulated at most 10% of the trace. */
bool
rowOk(const SampledCpi &est, double fullCpi)
{
    return fullCpi >= est.ciLow && fullCpi <= est.ciHigh &&
           est.coverage <= 0.10;
}

struct Round
{
    std::vector<SampledCpi> est; ///< [wl * 2 + core]
    double loadS = 0, sampleS = 0;
    double sampleCpuS = 0; ///< process CPU time of the estimates
    std::uint64_t insts = 0;
};

} // namespace

RunResult
runValidate(const Options &opt, ThreadPool &pool)
{
    RunResult out;
    PoolMeter pm(pool);
    Tracer off(false);
    const auto specs = suiteSpecs();
    const std::size_t rows = specs.size() * 2;

    // ---- Set-up: the full-trace reference CPI of every row ----
    ArtifactCache::setGlobalDir("");
    std::vector<double> fullCpi(rows);
    std::vector<double> setupS;
    for (int rep = 0; rep < kSetups; ++rep) {
        const auto s0 = Clock::now();
        std::vector<std::unique_ptr<LoadedWorkload>> lw(specs.size());
        pm.run(specs.size(), [&](std::size_t i) {
            lw[i] = LoadedWorkload::load(*specs[i]);
        });
        pm.run(rows, [&](std::size_t r) {
            fullCpi[r] = fullTraceCpi(lw[r / 2]->tdg().trace(), kCores[r % 2]);
        });
        setupS.push_back(secondsSince(s0));
    }
    out.samples["setup_s"] = setupS;
    out.set("setup_s", median(setupS), "s");

    std::vector<std::size_t> order(specs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::mt19937_64 rng(opt.seed);
    std::shuffle(order.begin(), order.end(), rng);

    // One round: cold loads (untraced: LoadedWorkload::load; traced:
    // call by call), then the sampled estimates in seeded row order.
    auto runRound = [&](Tracer &t, PoolMeter &p, LayerWork &work) {
        Round r;
        r.est.resize(rows);
        std::vector<std::unique_ptr<LoadedWorkload>> lw(specs.size());
        std::vector<Kernel> kernels(specs.size());
        std::vector<const Trace *> traces(specs.size());
        const auto t0 = Clock::now();
        {
            SpanScope s(t, "phase.load");
            p.run(specs.size(), [&](std::size_t i) {
                if (t.on()) {
                    kernels[i] = loadKernel(
                        t, *specs[i], budgetOf(*specs[i], opt.selfCheck),
                        nullptr, work);
                    traces[i] = &kernels[i].tdg->trace();
                } else {
                    lw[i] = LoadedWorkload::load(*specs[i]);
                    traces[i] = &lw[i]->tdg().trace();
                }
            });
        }
        r.loadS = secondsSince(t0);
        const auto t1 = Clock::now();
        const double c1 = cpuSeconds();
        {
            SpanScope s(t, "phase.sample");
            // One row per task, rows claimed in seeded order; each
            // estimate runs serially (its pool argument left at the
            // default). Rows one after another, each fanned out over
            // the pool, kept about two of four CPUs busy and took
            // 3.2-4.4 s a round on a shared 4-CPU host, against
            // 1.6-1.9 s this way.
            p.run(
                rows,
                [&](std::size_t i) {
                    const std::size_t wl = order[i / 2];
                    const std::size_t row = wl * 2 + i % 2;
                    SpanScope span(t, "ref.sample");
                    r.est[row] = sampledCpiEstimate(
                        *traces[wl], coreConfig(kCores[i % 2]),
                        SampleConfig{});
                },
                1);
            for (const Trace *tr : traces)
                r.insts += 2 * tr->size();
        }
        r.sampleS = secondsSince(t1);
        r.sampleCpuS = cpuSeconds() - c1;
        if (t.on()) {
            // The full-trace reference run, timed for the layer table
            // (set-up's CPIs are what the rows are checked against).
            SpanScope s(t, "phase.full_trace");
            p.run(rows, [&](std::size_t i) {
                SpanScope f(t, "ref.full_trace");
                fullTraceCpi(*traces[i / 2], kCores[i % 2]);
            });
        }
        return r;
    };

    auto check = [&](const Round &r) {
        double gap = 0;
        for (std::size_t i = 0; i < rows; ++i) {
            out.op(rowOk(r.est[i], fullCpi[i]),
                   isSharedCodeKernel(specs[i / 2]->name),
                   std::string(specs[i / 2]->name) + " on " +
                       coreConfig(kCores[i % 2]).name);
            gap += std::fabs(r.est[i].modelCpi - fullCpi[i]) / fullCpi[i];
        }
        return 100.0 * gap / static_cast<double>(rows);
    };

    std::vector<double> roundS, opsPerCpuS;
    double timed = 0, gapPct = 0, rssMib = 0;
    LayerWork work;
    do {
        const Round r = runRound(off, pm, work);
        timed += r.loadS + r.sampleS;
        roundS.push_back(r.loadS + r.sampleS);
        opsPerCpuS.push_back(static_cast<double>(rows) / r.sampleCpuS);
        rssMib = std::max(rssMib, peakRssMib());
        gapPct = check(r);
        if (opt.selfCheck && !opt.trace) {
            // Each row check, fed a perturbed value, must reject it.
            SampledCpi e = r.est[0];
            out.probe(!rowOk(e, e.ciHigh * 1.01 + 1e-9),
                      "full-trace CPI outside the interval");
            e.coverage = 0.2;
            out.probe(!rowOk(e, fullCpi[0]), "coverage above 10%");
        }
        ++out.rounds;
    } while (!opt.selfCheck && !opt.trace && timed < opt.seconds);

    // Simulated statistic: the µDG model's mean CPI gap to the
    // full-trace reference (identical on every run of one code).
    char buf[96];
    std::snprintf(buf, sizeof buf, "model vs full-trace reference CPI "
                                   "gap: %.4f%% (simulated)",
                  gapPct);
    out.notes.push_back(buf);

    if (!opt.trace) {
        out.samples["wait_s"] = roundS;
        out.samples["ops_per_cpu_s"] = opsPerCpuS;
        out.set("wait_s", median(roundS), "s");
        out.set("ops_per_cpu_s", median(opsPerCpuS), "1/cpu-s");
        out.set("peak_rss_mib", rssMib, "MiB");
        return out;
    }

    Tracer t(true);
    PoolMeter tpm(pool);
    LayerWork tw;
    const std::int64_t ts0 = t.nowNs();
    const Round r = runRound(t, tpm, tw);
    const std::int64_t ts1 = t.nowNs();
    check(r);
    ++out.rounds;

    std::map<std::string, double> v;
    const LayerTimes lt = summarize(t.spans(), ts0, ts1);
    addLayerTimes(v, lt, tw);
    double cover = 0;
    for (const SampledCpi &e : r.est)
        cover += e.coverage;
    const double fullMs = lt.totalMs.count("ref.full_trace")
                              ? lt.totalMs.at("ref.full_trace")
                              : 0;
    v["ref.sample_ms"] = lt.totalMs.at("ref.sample");
    v["ref.full_trace_ms"] = fullMs;
    v["ref.minsts_per_s"] =
        fullMs > 0 ? static_cast<double>(r.insts) / 1e6 / (fullMs / 1e3) : 0;
    v["ref.coverage_pct"] = 100.0 * cover / static_cast<double>(rows);
    v["ref.cpi_gap_pct"] = gapPct;
    v["pool.busy_ratio"] = tpm.busyRatio();
    v["pool.max_task_ms"] = tpm.maxTaskMs();
    v["trace.coverage_pct"] = lt.coveragePct;
    v["trace.overhead_ratio"] = (r.loadS + r.sampleS) / roundS.front();
    setLayerMetrics(out, v);
    noteSpans(out, lt);
    return out;
}

} // namespace prismbench
