// Error type used for configuration and usage errors across the library.
//
// Following the Core Guidelines (E.2) configuration errors throw; internal
// invariants use assert().  Integrity-verification *failures* are not errors:
// they are modelled results and are reported through return values so that
// the attack/defense experiments can observe them.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace seda {

class Seda_error : public std::runtime_error {
public:
    explicit Seda_error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws Seda_error when `cond` is false.  Used to validate user-supplied
/// configuration at module boundaries.  The message is only copied into a
/// string when the check fails, so a passing check on a per-unit hot path
/// costs one branch.
inline void require(bool cond, std::string_view what)
{
    if (!cond) throw Seda_error(std::string(what));
}

}  // namespace seda
