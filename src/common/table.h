// Minimal ASCII table / CSV emitters for the benchmark harness.
//
// Every bench binary reproduces one table or figure of the paper; the
// formatter keeps their output uniform and machine-parsable.  The value
// formatters below are shared with the CLI and the observability exports,
// which all escape JSON strings through json_escaped.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace seda {

/// Collects rows of strings and prints them with aligned columns.
class Ascii_table {
public:
    explicit Ascii_table(std::vector<std::string> header);

    /// Adds a data row; it must have exactly as many cells as the header.
    void add_row(std::vector<std::string> row);

    /// Renders with column alignment and a header separator.
    void print(std::ostream& os) const;

    /// Renders the same content as CSV (no alignment padding).
    void print_csv(std::ostream& os) const;

    [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places.
[[nodiscard]] std::string fmt_f(double v, int digits = 2);

/// Formats a ratio as a percentage string, e.g. 0.1226 -> "12.26%".
[[nodiscard]] std::string fmt_pct(double fraction, int digits = 2);

/// Formats a byte count with an IEC suffix (KiB/MiB/GiB) for readability.
[[nodiscard]] std::string fmt_bytes(unsigned long long bytes);

/// JSON string body (no surrounding quotes): escapes quotes, backslash and
/// every control character, so the output parses whatever `s` holds.
[[nodiscard]] std::string json_escaped(std::string_view s);

}  // namespace seda
