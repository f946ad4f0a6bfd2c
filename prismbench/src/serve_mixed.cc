/**
 * @file
 * serve-mixed: a resident prism_serve over the full suite, driven as
 * a closed loop from up to three connections of this process. A round
 * is a fixed, seeded set of 194 requests in seeded order: EVAL on the
 * six fixed cores, EVAL on two parametric cores (served from the
 * daemon's RAM tier after their first build, which set-up triggers),
 * RANK, and two SWEEPs. Every reply is compared with an evaluation of
 * the same request against a model this process built itself with
 * the monolithic constructor, apart from the daemon. BUSY, error and
 * mismatching replies are failed operations.
 *
 * Fixed-core requests leave out the four code-sharing kernels: the
 * daemon builds its fixed-core models in parallel at start-up, so
 * which kernel of a pair receives its twin's tables (or whether
 * either does) changes from run to run. They are covered through the
 * parametric cores instead, whose first builds set-up orders.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "checks.hh"
#include "common/artifact_cache.hh"
#include "common/memo_cache.hh"
#include "common/table.hh"
#include "energy/area_model.hh"
#include "serve/client.hh"
#include "serve/eval.hh"
#include "serve/protocol.hh"
#include "serve/state.hh"
#include "tdg/search.hh"

using namespace prism;
using namespace prism::serve;

namespace prismbench
{

namespace
{

/** The round-trip quantile serve-mixed reports as wait_s. */
constexpr double kWaitQuantile = 0.10;

enum class Kind { EvalFixed, EvalParam, Rank, Sweep };
constexpr int kKinds = 4;
const char *const kKindNames[kKinds] = {"eval_fixed", "eval_param",
                                        "rank", "sweep"};

/** The daemon process: started, waited for, stopped, reaped. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { kill(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool
    start(const std::string &bin, const std::vector<std::string> &args,
          const std::string &logPath)
    {
        log_ = logPath;
        // Everything the child needs is built before fork: between
        // fork and exec a multithreaded parent's child may only make
        // async-signal-safe calls (no allocation).
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(bin.c_str()));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ < 0)
            return false;
        if (pid_ == 0) {
            // Dies with the benchmark, whatever ends it.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int fd = ::open(logPath.c_str(),
                                  O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            ::execv(bin.c_str(), argv.data());
            ::_exit(127);
        }
        return true;
    }

    /** Port once the daemon prints its ready line; 0 on failure. */
    std::uint16_t
    waitReady(double timeoutS)
    {
        const auto t0 = Clock::now();
        while (secondsSince(t0) < timeoutS) {
            std::ifstream in(log_);
            std::string line;
            unsigned port = 0;
            bool ready = false;
            while (std::getline(in, line)) {
                const auto at = line.find("listening on 127.0.0.1:");
                if (at != std::string::npos)
                    port = static_cast<unsigned>(
                        std::atoi(line.c_str() + at + 23));
                ready = ready || line.find("ready") != std::string::npos;
            }
            if (ready && port)
                return static_cast<std::uint16_t>(port);
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return 0;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        return 0;
    }

    long pid() const { return pid_; }

    /** SIGINT, wait for the drain; SIGKILL if it does not end. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGINT);
        const auto t0 = Clock::now();
        while (secondsSince(t0) < 20) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        kill();
    }

  private:
    void
    kill()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    pid_t pid_ = -1;
    std::string log_;
};

/** One request with its expected reply. */
struct Req
{
    Kind kind = Kind::EvalFixed;
    Op op = Op::Eval;
    std::string workload;
    bool sharedCode = false;
    std::vector<std::uint8_t> body;
    EvalRequest eval;
    RankRequest rank;
    SweepRequest sweep;
    EvalReply evalExp;
    RankReply rankExp;
    std::uint32_t sweepTotal = 0;
    std::vector<std::string> sweepNames; ///< frontier, sorted
};

/** One completed request as the client saw it. */
struct Sample
{
    Kind kind;
    bool ok;
    bool sharedCode;
    double rttUs;
};

bool
sameEval(const EvalReply &a, const EvalReply &b)
{
    return a.cycles == b.cycles && a.energy == b.energy &&
           a.area == b.area && a.withinBudget == b.withinBudget;
}

bool
sameRank(const RankReply &a, const RankReply &b)
{
    if (a.entries.size() != b.entries.size())
        return false;
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        const RankEntry &x = a.entries[i], &y = b.entries[i];
        if (x.mask != y.mask || x.speedup != y.speedup ||
            x.energyEff != y.energyEff || x.area != y.area ||
            x.withinBudget != y.withinBudget)
            return false;
    }
    return true;
}

/** First-column names of a rendered search table, sorted. */
std::vector<std::string>
tableNames(const std::string &table)
{
    std::vector<std::string> names;
    std::istringstream in(table);
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (line.size() < 2 || line[0] != '|')
            continue;
        const std::size_t end = line.find('|', 1);
        std::string cell = line.substr(1, end - 1);
        cell.erase(0, cell.find_first_not_of(' '));
        cell.erase(cell.find_last_not_of(' ') + 1);
        if (header) {
            header = false; // the column-title row
            continue;
        }
        names.push_back(cell);
    }
    std::sort(names.begin(), names.end());
    return names;
}

/** Does the raw reply match the request's expected reply? */
bool
replyMatches(const Req &q, const RawReply &raw)
{
    if (raw.status != Status::Ok)
        return false;
    WireReader r({raw.body.data(), raw.body.size()});
    switch (q.kind) {
      case Kind::EvalFixed:
      case Kind::EvalParam: {
        EvalReply got;
        return decodeEvalReply(r, got) && sameEval(got, q.evalExp);
      }
      case Kind::Rank: {
        RankReply got;
        return decodeRankReply(r, got) && sameRank(got, q.rankExp);
      }
      case Kind::Sweep: {
        SweepReply got;
        return decodeSweepReply(r, got) &&
               got.totalPoints == q.sweepTotal &&
               got.frontierPoints == q.sweepNames.size() &&
               tableNames(got.table) == q.sweepNames;
      }
    }
    return false;
}

/** Figure 12 style name of a sweep point, as the SWEEP table prints
 *  it: core, BSA letters, and the budget. */
std::string
sweepName(CoreKind core, unsigned mask, double budget)
{
    std::string name = coreConfig(core).name;
    if (mask != 0) {
        name += "-";
        for (std::size_t i = 0; i < kAllBsas.size(); ++i) {
            if (mask & (1u << i))
                name += bsaLetter(kAllBsas[i]);
        }
    }
    if (budget > 0)
        name += "@" + fmt(budget, 1);
    return name;
}

/** The two parametric cores of the mix (from the default grid's
 *  parametric variants; neither matches a fixed kind's timing). */
std::vector<CoreParams>
paramCores()
{
    const std::vector<CoreParams> grid = defaultCoreGrid();
    return {grid[kAllCoreKinds.size()], grid[kAllCoreKinds.size() + 1]};
}

/** Run `reqs` in `order` over the connections; one sample each. */
std::vector<Sample>
runRequests(std::vector<Client> &conns, const std::vector<Req> &reqs,
            const std::vector<std::size_t> &order, Tracer &t)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<Sample>> per(conns.size());
    const int parent = currentSpan();
    auto work = [&](std::size_t c) {
        TaskScope scope(parent);
        for (std::size_t i = next++; i < order.size(); i = next++) {
            const Req &q = reqs[order[i]];
            const auto t0 = Clock::now();
            std::optional<RawReply> raw;
            {
                SpanScope s(t, kKindNames[static_cast<int>(q.kind)]);
                raw = conns[c].roundTrip(q.op, q.body);
            }
            const double us = secondsSince(t0) * 1e6;
            per[c].push_back({q.kind, raw && replyMatches(q, *raw),
                              q.sharedCode, us});
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < conns.size(); ++c)
        threads.emplace_back(work, c);
    work(0);
    for (std::thread &th : threads)
        th.join();
    std::vector<Sample> all;
    for (auto &v : per)
        all.insert(all.end(), v.begin(), v.end());
    return all;
}

} // namespace

RunResult
runServeMixed(const Options &opt, ThreadPool &pool)
{
    RunResult out;
    PoolMeter pm(pool);
    Tracer off(false);
    const auto specs = suiteSpecs();
    const std::vector<CoreParams> pcores = paramCores();
    std::mt19937_64 rng(opt.seed);

    const auto setup0 = Clock::now();
    ArtifactCache::setGlobalDir("");
    MemoCache::global().clear();

    // ---- Daemon: cold load of the whole suite into its own cache ----
    const std::string cacheDir = freshDir(opt.workDir, "serve-cache");
    Daemon daemon;
    std::vector<std::string> args = {"--port=0",
                                     "--cache-dir=" + cacheDir};
    if (opt.selfCheck)
        args.push_back("--max-insts=" + std::to_string(kSelfCheckInsts));
    if (!daemon.start(opt.serveBin, args, opt.workDir + "/serve.log")) {
        out.require(false, "could not start prism_serve");
        return out;
    }

    // ---- The request mix: the four code-sharing kernels plus twelve
    // others spread evenly over the suite. The kernels are fixed, not
    // drawn: their model sizes set the cost of a request, and a drawn
    // set would move the figures with the seed; the seed draws masks,
    // budgets, RANK cores, SWEEP budgets and the order of requests.
    std::vector<std::size_t> twins, rest, others, chosen;
    for (std::size_t i = 0; i < specs.size(); ++i)
        (isSharedCodeKernel(specs[i]->name) ? twins : rest).push_back(i);
    for (std::size_t i = 0; i < 12 && i < rest.size(); ++i)
        others.push_back(rest[i * rest.size() / 12]);
    chosen = twins;
    chosen.insert(chosen.end(), others.begin(), others.end());

    // Reference models, built while the daemon loads: every fixed
    // kind for the others, the parametric cores for all sixteen.
    std::vector<std::unique_ptr<LoadedWorkload>> lw(specs.size());
    pm.run(chosen.size(), [&](std::size_t i) {
        lw[chosen[i]] = LoadedWorkload::load(*specs[chosen[i]]);
    });
    struct ModelJob
    {
        std::size_t wl;
        bool parametric;
        std::size_t idx; ///< CoreKind index or pcores index
    };
    std::vector<ModelJob> jobs;
    for (std::size_t wl : others) {
        for (std::size_t k = 0; k < kAllCoreKinds.size(); ++k)
            jobs.push_back({wl, false, k});
    }
    for (std::size_t wl : chosen) {
        for (std::size_t p = 0; p < pcores.size(); ++p)
            jobs.push_back({wl, true, p});
    }
    std::vector<std::unique_ptr<BenchmarkModel>> models(jobs.size());
    pm.run(jobs.size(), [&](std::size_t j) {
        const ModelJob &job = jobs[j];
        const PipelineConfig cfg =
            job.parametric
                ? pipelineConfigFrom(pcores[job.idx])
                : PipelineConfig{.core = coreConfig(kAllCoreKinds[job.idx])};
        models[j] = std::make_unique<BenchmarkModel>(lw[job.wl]->tdg(), cfg);
    });
    auto model = [&](std::size_t wl, bool parametric,
                     std::size_t idx) -> const BenchmarkModel & {
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (jobs[j].wl == wl && jobs[j].parametric == parametric &&
                jobs[j].idx == idx)
                return *models[j];
        }
        std::abort();
    };

    // ---- Requests and their expected replies ----
    std::uniform_int_distribution<unsigned> anyMask(0, 15);
    std::uniform_real_distribution<double> anyBudget(2.0, 9.0);
    auto budget = [&]() {
        // A quarter of requests are unbounded.
        return rng() % 4 == 0 ? 0.0
                              : std::round(anyBudget(rng) * 10) / 10;
    };
    auto configRef = [&](bool parametric, std::size_t idx) {
        ConfigRef c;
        c.parametric = parametric;
        if (parametric)
            c.params = pcores[idx];
        else
            c.kind = kAllCoreKinds[idx];
        return c;
    };
    auto areaOf = [&](const ConfigRef &c, unsigned mask) {
        return c.parametric ? exoCoreArea(c.params, mask)
                            : exoCoreArea(c.kind, mask);
    };
    std::vector<Req> reqs;
    auto addEval = [&](std::size_t wl, bool parametric, std::size_t idx) {
        Req q;
        q.kind = parametric ? Kind::EvalParam : Kind::EvalFixed;
        q.op = Op::Eval;
        q.workload = specs[wl]->name;
        q.sharedCode = isSharedCodeKernel(q.workload);
        q.eval.workload = q.workload;
        q.eval.config = configRef(parametric, idx);
        // Requests on the code-sharing kernels (which fail while the
        // fingerprint fault stands) take no input from the seed.
        q.eval.mask = q.sharedCode ? kFullBsaMask : anyMask(rng);
        q.eval.areaBudget = q.sharedCode ? 0.0 : budget();
        const ExoResult res =
            model(wl, parametric, idx).evaluate(q.eval.mask);
        q.evalExp.cycles = res.cycles;
        q.evalExp.energy = res.energy;
        q.evalExp.area = areaOf(q.eval.config, q.eval.mask);
        q.evalExp.withinBudget = q.eval.areaBudget <= 0 ||
                                 q.evalExp.area <= q.eval.areaBudget;
        WireWriter w;
        encodeEvalRequest(w, q.eval);
        q.body.assign(w.bytes().begin(), w.bytes().end());
        reqs.push_back(std::move(q));
    };
    auto addRank = [&](std::size_t wl, bool parametric, std::size_t idx) {
        Req q;
        q.kind = Kind::Rank;
        q.op = Op::Rank;
        q.workload = specs[wl]->name;
        q.sharedCode = isSharedCodeKernel(q.workload);
        q.rank.workload = q.workload;
        q.rank.config = configRef(parametric, idx);
        q.rank.areaBudget = q.sharedCode ? 0.0 : budget();
        const BenchmarkModel &m = model(wl, parametric, idx);
        const ExoResult &base = m.baseline();
        for (unsigned mask = 0; mask < 16; ++mask) {
            const ExoResult res = m.evaluate(mask);
            RankEntry e;
            e.mask = mask;
            e.speedup = static_cast<double>(base.cycles) /
                        static_cast<double>(res.cycles);
            e.energyEff = base.energy / res.energy;
            e.area = areaOf(q.rank.config, mask);
            e.withinBudget = q.rank.areaBudget <= 0 ||
                             e.area <= q.rank.areaBudget;
            q.rankExp.entries.push_back(e);
        }
        std::stable_sort(q.rankExp.entries.begin(), q.rankExp.entries.end(),
                         [](const RankEntry &a, const RankEntry &b) {
                             return a.speedup > b.speedup;
                         });
        WireWriter w;
        encodeRankRequest(w, q.rank);
        q.body.assign(w.bytes().begin(), w.bytes().end());
        reqs.push_back(std::move(q));
    };
    auto addSweep = [&](std::size_t wl) {
        Req q;
        q.kind = Kind::Sweep;
        q.op = Op::Sweep;
        q.workload = specs[wl]->name;
        q.sweep.workload = q.workload;
        q.sweep.numMasks = 16;
        q.sweep.budgets = {std::round(anyBudget(rng) * 10) / 10,
                           std::round(anyBudget(rng) * 10) / 10};
        if (q.sweep.budgets[0] == q.sweep.budgets[1])
            q.sweep.budgets.pop_back();
        std::vector<SearchPoint> pts;
        const ExoResult &ref =
            model(wl, false, static_cast<std::size_t>(CoreKind::IO2))
                .baseline();
        std::size_t gi = 0;
        for (std::size_t k = 0; k < kAllCoreKinds.size(); ++k) {
            const BenchmarkModel &m = model(wl, false, k);
            for (double b : q.sweep.budgets) {
                for (unsigned mask = 0; mask < 16; ++mask, ++gi) {
                    const ExoResult res = m.evaluate(mask);
                    SearchPoint p;
                    p.gridIndex = gi;
                    p.mask = mask;
                    p.areaBudget = b;
                    p.name = sweepName(kAllCoreKinds[k], mask, b);
                    p.speedup = static_cast<double>(ref.cycles) /
                                static_cast<double>(res.cycles);
                    p.energyEff = ref.energy / res.energy;
                    p.area = exoCoreArea(kAllCoreKinds[k], mask);
                    p.withinBudget = b <= 0 || p.area <= b;
                    pts.push_back(p);
                }
            }
        }
        q.sweepTotal = static_cast<std::uint32_t>(pts.size());
        for (std::size_t g : bruteFrontier(pts))
            q.sweepNames.push_back(pts[g].name);
        std::sort(q.sweepNames.begin(), q.sweepNames.end());
        WireWriter w;
        encodeSweepRequest(w, q.sweep);
        q.body.assign(w.bytes().begin(), w.bytes().end());
        reqs.push_back(std::move(q));
    };
    for (std::size_t wl : others) {
        for (std::size_t k = 0; k < kAllCoreKinds.size(); ++k) {
            addEval(wl, false, k);
            addEval(wl, false, k);
        }
    }
    for (std::size_t wl : chosen) {
        for (std::size_t p = 0; p < pcores.size(); ++p)
            addEval(wl, true, p);
    }
    for (std::size_t wl : others)
        addRank(wl, false, rng() % kAllCoreKinds.size());
    for (std::size_t wl : twins)
        addRank(wl, true, 0);
    addSweep(others[0]);
    addSweep(others[1]);
    models.clear(); // before the kernels their Tdg pointers refer to
    lw.clear();

    // ---- Connect, then order the parametric first builds ----
    const std::uint16_t port = daemon.waitReady(150);
    if (!port) {
        out.require(false, "prism_serve did not become ready");
        return out;
    }
    // Closed loop from one connection fewer than the usable CPUs (at
    // most three here): the daemon's dispatcher needs a CPU of its
    // own. With a client on every CPU of a 4-CPU host, rounds took
    // 4.1-9.2 ms across fresh daemons, against 5.1-5.6 ms with three.
    const std::size_t nconn = std::max(
        1u, std::min(4u, availableParallelism()) - 1u);
    std::vector<Client> conns(nconn);
    for (Client &c : conns) {
        if (!c.connect("127.0.0.1", port)) {
            out.require(false, "connect: " + c.lastError());
            daemon.stop();
            return out;
        }
    }
    // The first kernel of each code-sharing pair asks for each
    // parametric core before the second, on one connection, so the
    // shared RAM key is always filled by the first.
    {
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (reqs[i].kind == Kind::EvalParam && reqs[i].sharedCode &&
                isFirstTwin(reqs[i].workload))
                order.push_back(i);
        }
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (reqs[i].kind == Kind::EvalParam && reqs[i].sharedCode &&
                !isFirstTwin(reqs[i].workload))
                order.push_back(i);
        }
        std::vector<Client> one;
        one.push_back(std::move(conns[0]));
        runRequests(one, reqs, order, off);
        conns[0] = std::move(one[0]);
        // Then one untimed round builds the remaining parametric
        // models and warms the connections.
        std::vector<std::size_t> all(reqs.size());
        for (std::size_t i = 0; i < all.size(); ++i)
            all[i] = i;
        runRequests(conns, reqs, all, off);
    }
    out.set("setup_s", secondsSince(setup0), "s");

    // ---- Timed rounds ----
    auto roundOrder = [&](std::size_t round) {
        std::vector<std::size_t> order(reqs.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::mt19937_64 r(opt.seed * 1000003u + round);
        std::shuffle(order.begin(), order.end(), r);
        return order;
    };
    auto account = [&](const std::vector<Sample> &s) {
        for (const Sample &x : s)
            out.op(x.ok, x.sharedCode,
                   std::string("serve ") +
                       kKindNames[static_cast<int>(x.kind)]);
    };
    // wait_s is the 10th percentile of the requests' round trips at
    // the client; a failed or refused request counts as longer than
    // any limit. Not the median: on a shared 4-CPU virtual machine the
    // median of the same code ranged over 60-94 us between runs minutes
    // apart, with how often a thread hand-off waits for a virtual CPU
    // the host has taken away; the 10th percentile, the path's cost
    // when no hand-off waits, ranged over 36-48 us in 30 runs at up to
    // 23% steal. The per-layer metrics keep each request kind's median
    // and the p99.
    std::vector<double> roundS, waits, roundWaits;
    double timed = 0;
    std::size_t servedTotal = 0;
    // The daemon's CPU clock ticks at 10 ms, too coarse for one round:
    // its CPU time is read across all timed rounds.
    const double cpu0 = cpuSeconds(daemon.pid());
    const double untracedBudget = opt.trace ? opt.seconds / 2 : opt.seconds;
    do {
        const auto order = roundOrder(out.rounds);
        const auto t0 = Clock::now();
        const std::vector<Sample> s = runRequests(conns, reqs, order, off);
        const double sec = secondsSince(t0);
        timed += sec;
        roundS.push_back(sec);
        servedTotal += s.size();
        std::vector<double> w;
        for (const Sample &x : s)
            w.push_back(x.ok ? x.rttUs / 1e6 : HUGE_VAL);
        roundWaits.push_back(quantile(w, kWaitQuantile));
        waits.insert(waits.end(), w.begin(), w.end());
        account(s);
        ++out.rounds;
    } while (!opt.selfCheck && timed < untracedBudget);

    if (opt.selfCheck && !opt.trace) {
        // Each reply check, fed a perturbed expectation for a real
        // reply (on a kernel that shares no code), must reject it.
        auto rejected = [&](Req q, auto &&perturb) {
            perturb(q);
            std::vector<Client> one;
            one.push_back(std::move(conns[0]));
            const std::vector<Sample> s = runRequests(one, {q}, {0}, off);
            conns[0] = std::move(one[0]);
            return !s.at(0).ok;
        };
        auto first = [&](Kind k) -> const Req & {
            for (const Req &q : reqs) {
                if (q.kind == k && !q.sharedCode)
                    return q;
            }
            std::abort();
        };
        out.probe(rejected(first(Kind::EvalFixed),
                           [](Req &q) { q.evalExp.cycles += 1; }),
                  "EVAL cycles");
        out.probe(rejected(first(Kind::EvalParam),
                           [](Req &q) { q.evalExp.energy *= 1.000001; }),
                  "parametric EVAL energy");
        out.probe(rejected(first(Kind::Rank),
                           [](Req &q) {
                               q.rankExp.entries[0].speedup *= 1.000001;
                           }),
                  "RANK speedup");
        out.probe(rejected(first(Kind::Sweep),
                           [](Req &q) {
                               if (q.sweepNames.empty())
                                   q.sweepNames.push_back("");
                               else
                                   q.sweepNames.pop_back();
                           }),
                  "SWEEP frontier");
    }

    if (!opt.trace) {
        out.samples["wait_s"] = roundWaits;
        out.set("wait_s", quantile(waits, kWaitQuantile), "s");
        out.set("ops_per_cpu_s",
                static_cast<double>(servedTotal) /
                    (cpuSeconds(daemon.pid()) - cpu0),
                "1/cpu-s");
        out.set("peak_rss_mib", peakRssMib(daemon.pid()), "MiB");
        conns.clear();
        daemon.stop();
        return out;
    }

    // ---- Traced: in-process compute time of the same requests, then
    // traced rounds and the daemon's own counters ----
    std::map<std::string, double> v;
    {
        ArtifactCache::setGlobalDir(cacheDir);
        ResidentSuite suite;
        suite.loadAndPrepare({}, pool);
        // Two passes over the round's requests; the second is timed,
        // when parametric models come from the RAM tier as they do in
        // the warmed daemon.
        std::vector<std::vector<double>> us(kKinds);
        auto compute = [&](const Req &q) {
            switch (q.kind) {
              case Kind::EvalFixed:
              case Kind::EvalParam: {
                EvalReply rep;
                runEval(suite, q.eval, rep);
                break;
              }
              case Kind::Rank: {
                RankReply rep;
                runRank(suite, q.rank, rep);
                break;
              }
              case Kind::Sweep: {
                SweepReply rep;
                runSweep(suite, q.sweep, rep);
                break;
              }
            }
        };
        for (const Req &q : reqs)
            compute(q);
        for (const Req &q : reqs) {
            const auto t0 = Clock::now();
            compute(q);
            us[static_cast<int>(q.kind)].push_back(secondsSince(t0) * 1e6);
        }
        for (int k = 0; k < kKinds; ++k)
            v[std::string("serve.compute_us.") + kKindNames[k]] =
                median(us[k]);
        ArtifactCache::setGlobalDir("");
    }

    Tracer t(true);
    std::vector<double> tracedS;
    std::vector<std::vector<double>> rtt(kKinds);
    std::vector<double> rttAll;
    const std::int64_t ts0 = t.nowNs();
    double ttimed = 0;
    do {
        const auto order = roundOrder(out.rounds);
        const auto t0 = Clock::now();
        std::vector<Sample> s;
        {
            SpanScope span(t, "serve.round");
            s = runRequests(conns, reqs, order, t);
        }
        const double sec = secondsSince(t0);
        ttimed += sec;
        tracedS.push_back(sec);
        for (const Sample &x : s) {
            if (!x.ok)
                continue;
            rtt[static_cast<int>(x.kind)].push_back(x.rttUs);
            rttAll.push_back(x.rttUs);
        }
        account(s);
        ++out.rounds;
    } while (!opt.selfCheck && ttimed < opt.seconds / 2);
    const std::int64_t ts1 = t.nowNs();

    StatsReply st;
    out.require(conns[0].stats(st), "STATS request");
    conns.clear();
    daemon.stop();

    for (int k = 0; k < kKinds; ++k)
        v[std::string("serve.rtt_p50_us.") + kKindNames[k]] = median(rtt[k]);
    std::sort(rttAll.begin(), rttAll.end());
    v["serve.rtt_p99_us"] =
        rttAll.empty()
            ? 0
            : rttAll[std::min(rttAll.size() - 1,
                              static_cast<std::size_t>(
                                  0.99 * static_cast<double>(rttAll.size())))];
    const double queries = static_cast<double>(
        st.evalQueries + st.rankQueries + st.sweepQueries);
    v["serve.service_us_mean"] =
        queries > 0 ? static_cast<double>(st.serviceNsTotal) / 1e3 / queries
                    : 0;
    v["serve.mean_batch"] =
        st.batches ? static_cast<double>(st.batchedRequests) /
                         static_cast<double>(st.batches)
                   : 0;
    v["serve.queue_high_water"] = static_cast<double>(st.queueHighWater);
    v["serve.busy"] = static_cast<double>(st.busyRejected);
    v["memo.hits"] = static_cast<double>(st.ramHits);
    v["memo.misses"] = static_cast<double>(st.ramMisses);
    v["memo.evictions"] = static_cast<double>(st.ramEvictions);
    const LayerTimes lt = summarize(t.spans(), ts0, ts1);
    v["trace.coverage_pct"] = lt.coveragePct;
    v["trace.overhead_ratio"] = median(tracedS) / median(roundS);
    setLayerMetrics(out, v);
    noteSpans(out, lt);
    return out;
}

} // namespace prismbench
