/**
 * @file
 * Correctness predicates shared by the workloads. Each takes the
 * values to compare and nothing else, so the self-check mode can feed
 * it a deliberately perturbed value and expect it to fail.
 */

#ifndef PRISMBENCH_CHECKS_HH
#define PRISMBENCH_CHECKS_HH

#include <algorithm>
#include <cmath>
#include <vector>

#include "tdg/exocore.hh"
#include "tdg/search.hh"

namespace prismbench
{

/** Bit-exact equality of two composed results (the model is
 *  deterministic and artifacts round-trip bit-exactly). */
inline bool
sameResult(const prism::ExoResult &a, const prism::ExoResult &b)
{
    if (a.cycles != b.cycles || a.energy != b.energy ||
        a.unitCycles != b.unitCycles || a.unitEnergy != b.unitEnergy ||
        a.choices.size() != b.choices.size())
        return false;
    for (std::size_t i = 0; i < a.choices.size(); ++i) {
        if (a.choices[i].loopId != b.choices[i].loopId ||
            a.choices[i].unit != b.choices[i].unit)
            return false;
    }
    return true;
}

/** Cycles attributed to the units add up to the total. */
inline bool
unitsSumToTotal(const prism::ExoResult &r)
{
    prism::Cycle sum = 0;
    for (prism::Cycle c : r.unitCycles)
        sum += c;
    return sum == r.cycles;
}

/** Relative closeness for recomputed floating-point aggregates. */
inline bool
closeRel(double a, double b, double tol = 1e-9)
{
    return std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

/**
 * Grid indices of the Pareto frontier by brute force: a within-budget
 * point survives unless another within-budget point of the same
 * budget is at least as good on speedup, energy efficiency and area
 * and better on one, or is an exact duplicate with a lower grid
 * index. Sorted ascending.
 */
inline std::vector<std::size_t>
bruteFrontier(const std::vector<prism::SearchPoint> &pts)
{
    std::vector<std::size_t> out;
    for (const prism::SearchPoint &p : pts) {
        if (!p.withinBudget)
            continue;
        bool beaten = false;
        for (const prism::SearchPoint &q : pts) {
            if (&q == &p || !q.withinBudget ||
                q.areaBudget != p.areaBudget)
                continue;
            const bool noWorse = q.speedup >= p.speedup &&
                                 q.energyEff >= p.energyEff &&
                                 q.area <= p.area;
            const bool better = q.speedup > p.speedup ||
                                q.energyEff > p.energyEff ||
                                q.area < p.area;
            const bool dupFirst = !better && noWorse &&
                                  q.gridIndex < p.gridIndex;
            if ((noWorse && better) || dupFirst) {
                beaten = true;
                break;
            }
        }
        if (!beaten)
            out.push_back(p.gridIndex);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Sorted grid indices of a frontier returned by the program. */
inline std::vector<std::size_t>
frontierIndices(const std::vector<prism::SearchPoint> &frontier)
{
    std::vector<std::size_t> out;
    for (const prism::SearchPoint &p : frontier)
        out.push_back(p.gridIndex);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace prismbench

#endif // PRISMBENCH_CHECKS_HH
