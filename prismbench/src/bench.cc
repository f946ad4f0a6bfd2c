#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <ctime>
#include <unistd.h>

namespace prismbench
{

namespace
{

thread_local int tl_current = -1;

} // namespace

// ---- Tracer ----------------------------------------------------------

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int
Tracer::open(const char *name, int parent)
{
    if (!on_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::close(int id)
{
    if (!on_ || id < 0)
        return;
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].endNs = t;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

int
currentSpan()
{
    return tl_current;
}

SpanScope::SpanScope(Tracer &t, const char *name) : t_(t)
{
    if (!t_.on())
        return;
    prev_ = tl_current;
    id_ = t_.open(name, prev_);
    tl_current = id_;
}

SpanScope::~SpanScope()
{
    if (!t_.on())
        return;
    t_.close(id_);
    tl_current = prev_;
}

TaskScope::TaskScope(int parent) : prev_(tl_current)
{
    tl_current = parent;
}

TaskScope::~TaskScope()
{
    tl_current = prev_;
}

namespace
{

/** Total length of the union of [start, end) intervals. */
double
unionNs(std::vector<std::pair<std::int64_t, std::int64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0;
    std::int64_t curS = 0;
    std::int64_t curE = -1;
    bool open = false;
    for (const auto &[s, e] : iv) {
        if (e <= s)
            continue;
        if (!open || s > curE) {
            if (open)
                total += static_cast<double>(curE - curS);
            curS = s;
            curE = e;
            open = true;
        } else {
            curE = std::max(curE, e);
        }
    }
    if (open)
        total += static_cast<double>(curE - curS);
    return total;
}

} // namespace

LayerTimes
summarize(const std::vector<Span> &spans, std::int64_t t0,
          std::int64_t t1)
{
    LayerTimes out;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> all;
    for (const Span &s : spans) {
        if (s.endNs < s.startNs)
            continue;
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.startNs, s.endNs});
        all.push_back({std::max(s.startNs, t0), std::min(s.endNs, t1)});
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.endNs < s.startNs)
            continue;
        const double dur = static_cast<double>(s.endNs - s.startNs);
        // Children of one span may run in parallel on pool threads:
        // self time subtracts the union of their intervals (clipped
        // to the parent), never their sum.
        std::vector<std::pair<std::int64_t, std::int64_t>> clip;
        for (const auto &[cs, ce] : children[i])
            clip.push_back(
                {std::max(cs, s.startNs), std::min(ce, s.endNs)});
        const double self = std::max(0.0, dur - unionNs(clip));
        out.totalMs[s.name] += dur / 1e6;
        out.selfMs[s.name] += self / 1e6;
        out.count[s.name] += 1;
    }
    if (t1 > t0)
        out.coveragePct =
            100.0 * unionNs(all) / static_cast<double>(t1 - t0);
    return out;
}

// ---- PoolMeter -------------------------------------------------------

void
PoolMeter::run(std::size_t n, const std::function<void(std::size_t)> &fn,
               std::size_t grain)
{
    const int parent = currentSpan();
    const auto t0 = Clock::now();
    pool_.parallelFor(
        n,
        [&](std::size_t i) {
            TaskScope scope(parent);
            const auto s = Clock::now();
            fn(i);
            const double ns = static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - s)
                    .count());
            std::lock_guard<std::mutex> lock(mu_);
            taskNs_ += ns;
            maxTaskNs_ = std::max(maxTaskNs_, ns);
        },
        grain);
    const double wall = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
    std::lock_guard<std::mutex> lock(mu_);
    wallNs_ += wall;
}

double
PoolMeter::busyRatio() const
{
    const double ctx = static_cast<double>(pool_.effectiveContexts());
    return wallNs_ > 0 ? taskNs_ / (wallNs_ * ctx) : 0.0;
}

// ---- Statistics ------------------------------------------------------

double
quantile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    if (n == 1)
        return xs[0];
    // statistics.quantiles(method="exclusive"): position p * (n + 1),
    // 1-based, clamped to the sample range.
    const double pos = p * static_cast<double>(n + 1);
    if (pos <= 1)
        return xs.front();
    if (pos >= static_cast<double>(n))
        return xs.back();
    const std::size_t j = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(j);
    return xs[j - 1] + frac * (xs[j] - xs[j - 1]);
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
cpuSeconds(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos)
        return 0;
    std::istringstream rest(stat.substr(close + 2));
    std::string f;
    double ticks = 0;
    for (int field = 3; field <= 15 && rest >> f; ++field) {
        if (field >= 14)
            ticks += std::strtod(f.c_str(), nullptr);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
peakRssMib(long pid)
{
    const std::string path =
        pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                : std::string("/proc/self/status");
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            const double kib = std::strtod(line.c_str() + 6, nullptr);
            return kib / 1024.0;
        }
    }
    return 0;
}

// ---- Suite helpers ---------------------------------------------------

namespace
{

const char *const kTwins[2][2] = {{"181.mcf", "429.mcf"},
                                  {"256.bzip2", "401.bzip2"}};

} // namespace

bool
isSharedCodeKernel(const std::string &name)
{
    for (const auto &pair : kTwins) {
        if (name == pair[0] || name == pair[1])
            return true;
    }
    return false;
}

bool
isFirstTwin(const std::string &name)
{
    for (const auto &pair : kTwins) {
        if (name == pair[0])
            return true;
    }
    return false;
}

std::vector<std::vector<std::size_t>>
buildGroups(const std::vector<const prism::WorkloadSpec *> &specs)
{
    std::vector<std::vector<std::size_t>> groups;
    std::vector<bool> used(specs.size(), false);
    auto indexOf = [&](const char *name) -> std::size_t {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (std::strcmp(specs[i]->name, name) == 0)
                return i;
        }
        return specs.size();
    };
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (used[i])
            continue;
        std::vector<std::size_t> g{i};
        used[i] = true;
        for (const auto &pair : kTwins) {
            if (std::strcmp(specs[i]->name, pair[0]) != 0)
                continue;
            const std::size_t j = indexOf(pair[1]);
            if (j < specs.size() && !used[j]) {
                g.push_back(j);
                used[j] = true;
            }
        }
        groups.push_back(std::move(g));
    }
    return groups;
}

std::vector<const prism::WorkloadSpec *>
suiteSpecs()
{
    std::vector<const prism::WorkloadSpec *> specs;
    for (const prism::WorkloadSpec &s : prism::allWorkloads())
        specs.push_back(&s);
    return specs;
}

std::string
freshDir(const std::string &base, const std::string &name)
{
    const std::filesystem::path p = std::filesystem::path(base) / name;
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p.string();
}

void
removeDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

// ---- Per-layer metric table -----------------------------------------

namespace
{

struct LayerMetric
{
    const char *name;
    const char *unit;
};

// Every per-layer metric, in print order. A traced run reports all of
// them; a layer the workload does not exercise reads 0, which is
// itself a check (warm-search must show no front-end or BSA work).
const LayerMetric kLayerMetrics[] = {
    {"sim.frontend_ms", "ms"},
    {"sim.frontend_minsts_per_s", "Minsts/s"},
    {"tdg.builder_ms", "ms"},
    {"tdg.builder_minsts_per_s", "Minsts/s"},
    {"tdg.analyzer_ms", "ms"},
    {"uarch.baseline_ms", "ms"},
    {"uarch.baseline_minsts_per_s", "Minsts/s"},
    {"bsa.simd_ms", "ms"},
    {"bsa.dpcgra_ms", "ms"},
    {"bsa.nsdf_ms", "ms"},
    {"bsa.tracep_ms", "ms"},
    {"exocore.evaluate_ns", "ns"},
    {"exocore.evaluate_calls", "count"},
    {"search.run_ms", "ms"},
    {"search.pareto_ms", "ms"},
    {"artifact.trace.store_ms", "ms"},
    {"artifact.trace.written_mib", "MiB"},
    {"artifact.trace.load_ms", "ms"},
    {"artifact.trace.read_mib", "MiB"},
    {"artifact.trace.hits", "count"},
    {"artifact.trace.misses", "count"},
    {"artifact.tdgprof.store_ms", "ms"},
    {"artifact.tdgprof.written_mib", "MiB"},
    {"artifact.tdgprof.load_ms", "ms"},
    {"artifact.tdgprof.read_mib", "MiB"},
    {"artifact.tdgprof.hits", "count"},
    {"artifact.tdgprof.misses", "count"},
    {"artifact.basecore.store_ms", "ms"},
    {"artifact.basecore.written_mib", "MiB"},
    {"artifact.basecore.load_ms", "ms"},
    {"artifact.basecore.read_mib", "MiB"},
    {"artifact.basecore.hits", "count"},
    {"artifact.basecore.misses", "count"},
    {"artifact.regioneval.store_ms", "ms"},
    {"artifact.regioneval.written_mib", "MiB"},
    {"artifact.regioneval.load_ms", "ms"},
    {"artifact.regioneval.read_mib", "MiB"},
    {"artifact.regioneval.hits", "count"},
    {"artifact.regioneval.misses", "count"},
    {"memo.hits", "count"},
    {"memo.misses", "count"},
    {"memo.evictions", "count"},
    {"pool.busy_ratio", "ratio"},
    {"pool.max_task_ms", "ms"},
    {"ref.sample_ms", "ms"},
    {"ref.minsts_per_s", "Minsts/s"},
    {"ref.coverage_pct", "%"},
    {"ref.full_trace_ms", "ms"},
    {"ref.cpi_gap_pct", "%"},
    {"serve.rtt_p50_us.eval_fixed", "us"},
    {"serve.rtt_p50_us.eval_param", "us"},
    {"serve.rtt_p50_us.rank", "us"},
    {"serve.rtt_p50_us.sweep", "us"},
    {"serve.rtt_p99_us", "us"},
    {"serve.compute_us.eval_fixed", "us"},
    {"serve.compute_us.eval_param", "us"},
    {"serve.compute_us.rank", "us"},
    {"serve.compute_us.sweep", "us"},
    {"serve.service_us_mean", "us"},
    {"serve.mean_batch", "count"},
    {"serve.queue_high_water", "count"},
    {"serve.busy", "count"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_ratio", "ratio"},
};

} // namespace

void
noteSpans(RunResult &r, const LayerTimes &lt)
{
    for (const auto &[name, ms] : lt.totalMs) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "span %-28s n=%-8llu total_ms=%.3f self_ms=%.3f",
                      name.c_str(),
                      static_cast<unsigned long long>(lt.count.at(name)),
                      ms, lt.selfMs.at(name));
        r.notes.push_back(buf);
    }
}

void
setLayerMetrics(RunResult &r, const std::map<std::string, double> &values)
{
    for (const LayerMetric &m : kLayerMetrics) {
        const auto it = values.find(m.name);
        r.set(m.name, it == values.end() ? 0.0 : it->second, m.unit);
    }
    for (const auto &[name, v] : values) {
        bool known = false;
        for (const LayerMetric &m : kLayerMetrics)
            known = known || name == m.name;
        if (!known)
            r.notes.push_back("unlisted layer value " + name);
    }
}

} // namespace prismbench
