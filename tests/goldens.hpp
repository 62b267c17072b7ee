// The golden digests of the test suite, read from one table
// (tests/goldens.inc). A test names the row it checks; a mismatch prints
// the row as it should read, so re-recording a deliberate behaviour change
// is pasting the failure output over the table's row.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>

namespace mp5::test {

struct GoldenRow {
  const char* name;
  std::uint64_t value;
};

inline constexpr GoldenRow kGoldens[] = {
#define GOLDEN(name, value) {#name, value},
#include "goldens.inc"
#undef GOLDEN
};

constexpr bool golden_names_unique() {
  for (std::size_t i = 0; i < std::size(kGoldens); ++i) {
    for (std::size_t j = i + 1; j < std::size(kGoldens); ++j) {
      if (std::string_view(kGoldens[i].name) == kGoldens[j].name) return false;
    }
  }
  return true;
}
static_assert(golden_names_unique(), "two rows of goldens.inc share a name");

/// The table row for `name` holding `value`, in the table's syntax.
inline std::string golden_row(std::string_view name, std::uint64_t value) {
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(value));
  return "GOLDEN(" + std::string(name) + ", " + hex + ")";
}

/// Check `got` against the golden row `name`.
inline void expect_golden(std::string_view name, std::uint64_t got) {
  for (const GoldenRow& row : kGoldens) {
    if (row.name != name) continue;
    if (row.value != got) {
      ADD_FAILURE() << "golden " << name << " moved; its row now reads:\n"
                    << golden_row(name, got);
    }
    return;
  }
  ADD_FAILURE() << "no golden row " << name << "; add:\n"
                << golden_row(name, got);
}

} // namespace mp5::test
