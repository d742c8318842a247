#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace seda {

Ascii_table::Ascii_table(std::vector<std::string> header) : header_(std::move(header))
{
    require(!header_.empty(), "Ascii_table: header must not be empty");
}

void Ascii_table::add_row(std::vector<std::string> row)
{
    require(row.size() == header_.size(),
            "Ascii_table: row width does not match header width");
    rows_.push_back(std::move(row));
}

void Ascii_table::print(std::ostream& os) const
{
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto print_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(width[c])) << row[c];
            if (c + 1 != row.size()) os << "  ";
        }
        os << '\n';
    };

    print_row(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + (c + 1 != width.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto& row : rows_) print_row(row);
}

void Ascii_table::print_csv(std::ostream& os) const
{
    auto print_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 != row.size()) os << ',';
        }
        os << '\n';
    };
    print_row(header_);
    for (const auto& row : rows_) print_row(row);
}

std::string fmt_f(double v, int digits)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(digits) << v;
    return ss.str();
}

std::string fmt_pct(double fraction, int digits)
{
    return fmt_f(100.0 * fraction, digits) + "%";
}

std::string fmt_bytes(unsigned long long bytes)
{
    constexpr unsigned long long kib = 1024, mib = kib * 1024, gib = mib * 1024;
    std::ostringstream ss;
    if (bytes >= gib)
        ss << fmt_f(static_cast<double>(bytes) / static_cast<double>(gib)) << " GiB";
    else if (bytes >= mib)
        ss << fmt_f(static_cast<double>(bytes) / static_cast<double>(mib)) << " MiB";
    else if (bytes >= kib)
        ss << fmt_f(static_cast<double>(bytes) / static_cast<double>(kib)) << " KiB";
    else
        ss << bytes << " B";
    return ss.str();
}

std::string json_escaped(std::string_view s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

}  // namespace seda
