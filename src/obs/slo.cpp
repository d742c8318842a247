#include "obs/slo.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

#include "common/error.h"
#include "common/table.h"

namespace seda::obs {

namespace {

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why)
{
    throw Seda_error("obs: bad --slo '" + std::string(spec) + "': " + why +
                     " (want FAMILY:pPCT<THRESH[us|ms|s]:TARGET, e.g. "
                     "serve_tenant_latency_us:p99<500us:0.999)");
}

double parse_double(std::string_view spec, std::string_view s, const char* what)
{
    double v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || end != s.data() + s.size())
        bad_spec(spec, std::string("cannot parse ") + what + " '" + std::string(s) + "'");
    return v;
}

std::string fmt6(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

}  // namespace

Slo_spec parse_slo(std::string_view spec)
{
    Slo_spec out;
    out.text = std::string(spec);

    const std::size_t c1 = spec.find(':');
    if (c1 == std::string_view::npos || c1 == 0) bad_spec(spec, "missing family name");
    const std::size_t c2 = spec.find(':', c1 + 1);
    if (c2 == std::string_view::npos) bad_spec(spec, "missing target");
    out.family = std::string(spec.substr(0, c1));

    std::string_view obj = spec.substr(c1 + 1, c2 - c1 - 1);
    if (obj.size() < 4 || obj[0] != 'p') bad_spec(spec, "objective must start with 'p'");
    const std::size_t lt = obj.find('<');
    if (lt == std::string_view::npos) bad_spec(spec, "objective needs 'pPCT<THRESH'");
    out.percentile = parse_double(spec, obj.substr(1, lt - 1), "percentile");
    if (!(out.percentile > 0.0 && out.percentile <= 100.0))
        bad_spec(spec, "percentile must be in (0, 100]");

    std::string_view thresh = obj.substr(lt + 1);
    double unit = 1.0;
    if (thresh.size() > 2 && thresh.substr(thresh.size() - 2) == "us") {
        thresh.remove_suffix(2);
    } else if (thresh.size() > 2 && thresh.substr(thresh.size() - 2) == "ms") {
        unit = 1e3;
        thresh.remove_suffix(2);
    } else if (thresh.size() > 1 && thresh.back() == 's') {
        unit = 1e6;
        thresh.remove_suffix(1);
    }
    out.threshold = parse_double(spec, thresh, "threshold") * unit;
    if (!(out.threshold > 0.0)) bad_spec(spec, "threshold must be positive");
    // from_chars takes "inf", and a huge finite value overflows once scaled
    // to microseconds; either way the objective could never be missed.
    if (!std::isfinite(out.threshold)) bad_spec(spec, "threshold must be finite");

    out.target = parse_double(spec, spec.substr(c2 + 1), "target");
    if (!(out.target > 0.0 && out.target < 1.0))
        bad_spec(spec, "target must be in (0, 1)");
    return out;
}

Slo_tracker::Slo_tracker(std::vector<Slo_spec> specs, std::size_t slow_windows)
    : slow_windows_(slow_windows == 0 ? 1 : slow_windows)
{
    require(!specs.empty(), "obs: Slo_tracker needs at least one objective");
    results_.reserve(specs.size());
    for (auto& s : specs) {
        Slo_result r;
        r.spec = std::move(s);
        results_.push_back(std::move(r));
    }
    recent_.resize(results_.size());
}

void Slo_tracker::observe(const Interval& iv)
{
    for (std::size_t i = 0; i < results_.size(); ++i) {
        Slo_result& r = results_[i];
        const Log_histogram h = iv.family_hist(r.spec.family);
        if (h.count() == 0) continue;
        const double budget = 1.0 - r.spec.target;
        const double good = h.count_le(r.spec.threshold);
        const double bad = static_cast<double>(h.count()) - good;

        ++r.windows;
        r.total += h.count();
        r.good += good;
        const double pct = h.percentile(r.spec.percentile);
        if (pct > r.spec.threshold) ++r.violations;
        if (pct > r.worst_window_pct) r.worst_window_pct = pct;

        r.last_burn = (bad / static_cast<double>(h.count())) / budget;
        if (r.last_burn > r.peak_burn_1w) r.peak_burn_1w = r.last_burn;

        auto& ring = recent_[i];
        ring.push_back({bad, h.count()});
        if (ring.size() > slow_windows_) ring.erase(ring.begin());
        double slow_bad = 0;
        u64 slow_total = 0;
        for (const auto& [b, t] : ring) {
            slow_bad += b;
            slow_total += t;
        }
        const double slow_burn =
            slow_total == 0 ? 0.0 : (slow_bad / static_cast<double>(slow_total)) / budget;
        if (slow_burn > r.peak_burn_slow) r.peak_burn_slow = slow_burn;
    }
}

bool Slo_tracker::all_met() const
{
    for (const auto& r : results_)
        if (!r.met()) return false;
    return true;
}

void Slo_tracker::write_json(std::ostream& os) const
{
    os << "{\n  \"slow_windows\": " << slow_windows_ << ",\n  \"slos\": [";
    for (std::size_t i = 0; i < results_.size(); ++i) {
        const Slo_result& r = results_[i];
        os << (i ? "," : "") << "\n    {\"slo\": \"" << json_escaped(r.spec.text)
           << "\", \"family\": \"" << json_escaped(r.spec.family)
           << "\", \"percentile\": " << fmt6(r.spec.percentile)
           << ", \"threshold_us\": " << fmt6(r.spec.threshold)
           << ", \"target\": " << fmt6(r.spec.target) << ",\n     \"windows\": "
           << r.windows << ", \"violations\": " << r.violations
           << ", \"total\": " << r.total << ", \"good\": " << fmt6(r.good)
           << ",\n     \"availability\": " << fmt6(r.availability())
           << ", \"budget_consumed\": " << fmt6(r.budget_consumed())
           << ", \"worst_window_p\": " << fmt6(r.worst_window_pct)
           << ",\n     \"burn\": {\"last\": " << fmt6(r.last_burn)
           << ", \"peak_1w\": " << fmt6(r.peak_burn_1w)
           << ", \"peak_slow\": " << fmt6(r.peak_burn_slow)
           << "}, \"met\": " << (r.met() ? "true" : "false") << "}";
    }
    os << "\n  ],\n  \"all_met\": " << (all_met() ? "true" : "false") << "\n}\n";
}

void Slo_tracker::write_summary(std::ostream& os) const
{
    for (const auto& r : results_) {
        os << "slo " << r.spec.text << ": " << (r.met() ? "met" : "MISSED")
           << " (availability " << fmt6(r.availability()) << ", budget "
           << fmt6(100.0 * r.budget_consumed()) << "% consumed, burn peak 1w "
           << fmt6(r.peak_burn_1w) << " / slow " << fmt6(r.peak_burn_slow) << ", "
           << r.violations << "/" << r.windows << " window(s) over threshold)\n";
    }
}

}  // namespace seda::obs
