// kResultCounters is the one list of SimResult's counters. Every row must
// reach each contract that walks it: equality, the result digest, the
// checkpoint payload and the results JSON.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/serialize.hpp"
#include "metrics/sim_result.hpp"
#include "telemetry/results.hpp"

namespace mp5 {
namespace {

/// True when the "mp5-results" document `doc` holds `"key":value` inside
/// the object of `section` (sections hold no nested objects).
bool has_entry(const std::string& doc, const std::string& section,
               const std::string& key, std::uint64_t value) {
  const std::size_t begin = doc.find("\"" + section + "\":{");
  if (begin == std::string::npos) return false;
  const std::string object = doc.substr(begin, doc.find('}', begin) - begin);
  const std::string entry = "\"" + key + "\":" + std::to_string(value);
  const std::size_t at = (object + ",").find(entry + ",");
  return at != std::string::npos;
}

TEST(ResultCounters, EveryRowReachesEqualityDigestCheckpointAndJson) {
  SimResult base;
  std::uint64_t next = 100;
  for (const ResultCounter& c : kResultCounters) base.*c.member = next++;
  base.final_registers = {{1, -2}};

  for (const ResultCounter& c : kResultCounters) {
    SCOPED_TRACE(c.name);
    SimResult changed = base;
    changed.*c.member += 1000;

    std::string why;
    EXPECT_FALSE(same_results(base, changed, &why));
    EXPECT_EQ(why, std::string("field '") + c.name + "' differs");
    EXPECT_NE(result_digest(changed), result_digest(base));

    ByteWriter w;
    save_fields(w, changed);
    ByteReader r(w.buffer());
    SimResult loaded;
    load_fields(r, loaded);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(loaded.*c.member, changed.*c.member);
    EXPECT_TRUE(same_results(changed, loaded, &why)) << why;

    std::ostringstream json;
    telemetry::write_results_json(json, {}, changed, nullptr);
    EXPECT_TRUE(has_entry(json.str(), c.section, c.name, changed.*c.member))
        << json.str();
  }
}

} // namespace
} // namespace mp5
