// Exact sample percentiles: the nearest-rank reference that the bucketed
// Log_histogram (obs/histogram.h) is tested against.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <vector>

#include "common/types.h"

namespace seda {

/// The `pct`-th percentile (0..100) of an ALREADY SORTED ascending sample,
/// nearest-rank method (0 for empty).  Sorted-input form so one sort serves
/// the whole p50/p95/p99 row.
[[nodiscard]] inline double percentile_sorted(std::span<const double> sorted, double pct)
{
    if (sorted.empty()) return 0.0;
    assert(std::is_sorted(sorted.begin(), sorted.end()));
    assert(pct >= 0.0 && pct <= 100.0);
    const auto n = static_cast<double>(sorted.size());
    const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    return sorted[rank == 0 ? 0 : rank - 1];
}

/// Percentile of an unsorted sample (copies and sorts; 0 for empty).
[[nodiscard]] inline double percentile_of(std::span<const double> xs, double pct)
{
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    return percentile_sorted(sorted, pct);
}

}  // namespace seda
