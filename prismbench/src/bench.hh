/**
 * @file
 * Shared pieces of the Prism user-path benchmark: run options, the
 * span tracer used by traced runs, per-run result accounting, order
 * statistics, and the handling of the four kernels whose code is
 * shared with another kernel of the suite.
 *
 * Every number here is host time unless its name says otherwise.
 */

#ifndef PRISMBENCH_BENCH_HH
#define PRISMBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"
#include "workloads/suite.hh"

namespace prismbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Tiny budgets, one round, and perturbed-input check probes. */
    bool selfCheck = false;
    /** Scratch directory for artifact caches (removed afterwards). */
    std::string workDir;
    /** The prism_serve binary (serve-mixed only). */
    std::string serveBin;
};

/** Set-ups per run where set-up takes seconds, not tens of them;
 *  setup_s is their median. */
inline constexpr int kSetups = 3;

/** Instruction budget of the self-check mode: of the budgets tried
 *  (20k, 50k, 100k), the smallest at which every validate row's
 *  interval holds the full-trace CPI. */
inline constexpr std::uint64_t kSelfCheckInsts = 100'000;

// ---- Spans ----------------------------------------------------------

/** One timed call from benchmark code into a layer. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
};

/**
 * In-memory span recorder. Disabled tracers record nothing and cost
 * one branch per scope. Spans may open and close on any thread; the
 * parent of a span is the innermost span open on the same thread, or
 * the span a parallel task was started under (see TaskScope).
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

    bool on() const { return on_; }

    int open(const char *name, int parent);
    void close(int id);

    /** Snapshot of every recorded span (ids are indices). */
    std::vector<Span> spans() const;

    std::int64_t nowNs() const;

  private:
    bool on_;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Innermost open span on this thread (-1 = none). */
int currentSpan();

/** RAII span; the parent is this thread's innermost open span. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;


  private:
    Tracer &t_;
    int id_ = -1;
    int prev_ = -1;
};

/** Re-parents the calling pool thread under `parent` for one task. */
class TaskScope
{
  public:
    explicit TaskScope(int parent);
    ~TaskScope();
    TaskScope(const TaskScope &) = delete;
    TaskScope &operator=(const TaskScope &) = delete;

  private:
    int prev_;
};

/** Per-name totals of a span set. */
struct LayerTimes
{
    /** Sum of span durations by name (ms, summed over threads). */
    std::map<std::string, double> totalMs;
    /** Sum of self times (duration minus child cover) by name. */
    std::map<std::string, double> selfMs;
    std::map<std::string, std::uint64_t> count;
    /** Share of [t0, t1] covered by the union of all spans. */
    double coveragePct = 0;
};

LayerTimes summarize(const std::vector<Span> &spans, std::int64_t t0,
                     std::int64_t t1);

struct RunResult;

/** Write the traced run's spans out, one line per span name: count,
 *  total and self time. */
void noteSpans(RunResult &r, const LayerTimes &lt);

// ---- Pool accounting ------------------------------------------------

/**
 * Task-time accounting around ThreadPool::parallelFor: busy ratio
 * (summed task time / (wall x contexts)) and the longest task.
 */
class PoolMeter
{
  public:
    explicit PoolMeter(prism::ThreadPool &pool) : pool_(pool) {}

    /** parallelFor with every task timed and re-parented under the
     *  caller's innermost open span. */
    void run(std::size_t n, const std::function<void(std::size_t)> &fn,
             std::size_t grain = 0);

    double busyRatio() const;
    double maxTaskMs() const { return maxTaskNs_ / 1e6; }

  private:
    prism::ThreadPool &pool_;
    std::mutex mu_;
    double taskNs_ = 0;
    double wallNs_ = 0;
    double maxTaskNs_ = 0;
};

// ---- Results --------------------------------------------------------

/** Everything one run reports. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Reported metrics in print order: name -> (value, unit). */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    /** Per-round samples of end-to-end metrics (for the stamp). */
    std::map<std::string, std::vector<double>> samples;
    std::size_t rounds = 0;
    /** Free-form messages printed before the result line. */
    std::vector<std::string> notes;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (auto &m : metrics) {
            if (m.first == name) {
                m.second = {value, unit};
                return;
            }
        }
        metrics.push_back({name, {value, unit}});
    }

    /**
     * Count one checked operation. A failure on an operation that
     * involves a code-sharing kernel (see isSharedCodeKernel) is the
     * named fingerprint fault and leaves `correct` alone; any other
     * failure is a new fault and clears it.
     */
    void
    op(bool ok, bool sharedCode, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (!sharedCode) {
            correct = false;
            if (notes.size() < 40)
                notes.push_back("FAILED: " + what);
        }
    }

    /**
     * Self-check probe: a check fed a deliberately perturbed value
     * must reject it (`rejected`); one that accepts it is broken.
     */
    void
    probe(bool rejected, const std::string &what)
    {
        require(rejected, "self-check: perturbed " + what + " accepted");
        if (rejected)
            notes.push_back("self-check: perturbed " + what + " rejected");
    }

    /** A whole-round property check (not an operation). */
    void
    require(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            if (notes.size() < 40)
                notes.push_back("CHECK FAILED: " + what);
        }
    }
};

/** Quantile with Python's statistics.quantiles "exclusive" rule. */
double quantile(std::vector<double> xs, double p);
double median(std::vector<double> xs);

/** CPU time (user + system, all threads) of this process, seconds. */
double cpuSeconds();

/** CPU time of another process (/proc/<pid>/stat), seconds. */
double cpuSeconds(long pid);

/** Peak resident set (VmHWM) of a process in MiB; 0 if unknown. */
double peakRssMib(long pid = 0);

// ---- Code-sharing kernels ------------------------------------------

/**
 * The two pairs of suite kernels that run identical code on different
 * staged inputs (181.mcf/429.mcf, 256.bzip2/401.bzip2). The program
 * fingerprint that keys the in-RAM component tier hashes only code,
 * so within one process the second kernel of a pair to ask for a
 * component receives its twin's.
 */
bool isSharedCodeKernel(const std::string &name);

/**
 * Groups of suite indices for parallel model builds: each twin pair
 * is one group, built first-then-second in suite order inside one
 * task, so the shared RAM key is always filled by the first kernel
 * and the fault resolves the same way in every run; every other
 * kernel is a group of its own.
 */
std::vector<std::vector<std::size_t>>
buildGroups(const std::vector<const prism::WorkloadSpec *> &specs);

/** The first kernel of each twin pair (the one whose tables win). */
bool isFirstTwin(const std::string &name);

/** All Table 3 workloads, in suite order. */
std::vector<const prism::WorkloadSpec *> suiteSpecs();

/** A clean scratch directory `base/name` (removed first). */
std::string freshDir(const std::string &base, const std::string &name);
void removeDir(const std::string &dir);

// ---- Workloads ------------------------------------------------------

RunResult runColdBuild(const Options &opt, prism::ThreadPool &pool);
RunResult runWarmSearch(const Options &opt, prism::ThreadPool &pool);
RunResult runServeMixed(const Options &opt, prism::ThreadPool &pool);
RunResult runValidate(const Options &opt, prism::ThreadPool &pool);

/** Report every per-layer metric (zeros for layers a workload did
 *  not exercise) from a traced run's collected values. */
void setLayerMetrics(RunResult &r,
                     const std::map<std::string, double> &values);

} // namespace prismbench

#endif // PRISMBENCH_BENCH_HH
