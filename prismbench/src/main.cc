/**
 * @file
 * prismbench: one run of one workload of the Prism user-path
 * benchmark (see ../README.md). Prints notes, one `summary:` line
 * with each end-to-end metric's per-round median and quartiles, and,
 * as the last line, the JSON result object.
 *
 * Usage:
 *   prismbench --workload NAME --seed N --seconds S --trace 0|1
 *              --work-dir DIR [--serve-bin PATH] [--self-check]
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "workloads/suite.hh"

using namespace prismbench;

namespace
{

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "prismbench: %s\nusage: prismbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--serve-bin PATH] [--self-check]\n",
                 msg);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = next();
        } else if (a == "--seed") {
            o.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(next().c_str(), nullptr);
        } else if (a == "--trace") {
            const std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
            haveTrace = true;
        } else if (a == "--work-dir") {
            o.workDir = next();
        } else if (a == "--serve-bin") {
            o.serveBin = next();
        } else if (a == "--self-check") {
            o.selfCheck = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload.empty() || o.workDir.empty() || !haveTrace)
        usage("--workload, --trace and --work-dir are required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/** JSON number with every digit a double carries. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    if (opt.selfCheck)
        prism::setMaxInstsOverride(kSelfCheckInsts);

    // The load comes from this one process: at most nproc (and at
    // most four) pool contexts.
    const unsigned ctx =
        std::max(1u, std::min(4u, prism::availableParallelism()));
    prism::ThreadPool pool(ctx);

    RunResult r;
    if (opt.workload == "cold-build")
        r = runColdBuild(opt, pool);
    else if (opt.workload == "warm-search")
        r = runWarmSearch(opt, pool);
    else if (opt.workload == "serve-mixed")
        r = runServeMixed(opt, pool);
    else if (opt.workload == "validate")
        r = runValidate(opt, pool);
    else
        usage(("unknown workload " + opt.workload).c_str());

    for (const std::string &n : r.notes)
        std::printf("note: %s\n", n.c_str());
    if (r.attempted == 0) {
        std::fprintf(stderr, "prismbench: %s attempted nothing\n",
                     opt.workload.c_str());
        return 1;
    }

    std::string summary = "{\"workload\": \"" + opt.workload +
                          "\", \"seed\": " + std::to_string(opt.seed) +
                          ", \"trace\": " + (opt.trace ? "1" : "0") +
                          ", \"contexts\": " + std::to_string(ctx) +
                          ", \"rounds\": " + std::to_string(r.rounds) +
                          ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, xs] : r.samples) {
        summary += std::string(first ? "" : ", ") + "\"" + name +
                   "\": {\"n\": " + std::to_string(xs.size()) +
                   ", \"median\": " + num(median(xs)) +
                   ", \"q1\": " + num(quantile(xs, 0.25)) +
                   ", \"q3\": " + num(quantile(xs, 0.75)) + "}";
        first = false;
    }
    summary += "}}";
    std::printf("summary: %s\n", summary.c_str());

    std::string line = "{\"correct\": ";
    line += r.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed);
    line += ", \"metrics\": {";
    first = true;
    for (const auto &[name, vu] : r.metrics) {
        line += std::string(first ? "" : ", ") + "\"" + name +
                "\": {\"value\": " + num(vu.first) + ", \"unit\": \"" +
                vu.second + "\"}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return 0;
}
