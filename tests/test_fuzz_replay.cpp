// Replays every committed reproducer under tests/corpus/ and checks the
// observed outcome against each entry's "expect" field. Divergences fixed
// in the past stay fixed; self-test entries keep diverging.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "fuzz/repro.hpp"

#ifndef MP5_CORPUS_DIR
#error "MP5_CORPUS_DIR must point at the committed reproducer corpus"
#endif

namespace mp5::test {
namespace {

std::vector<std::string> corpus_entries() {
  std::vector<std::string> entries;
  for (const auto& item :
       std::filesystem::directory_iterator(MP5_CORPUS_DIR)) {
    if (item.path().extension() == ".json") {
      entries.push_back(item.path().string());
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST(FuzzReplay, CorpusIsNotEmpty) {
  EXPECT_GE(corpus_entries().size(), 1u)
      << "no reproducers committed under " << MP5_CORPUS_DIR;
}

TEST(FuzzReplay, EveryCorpusEntryMatchesItsExpectedOutcome) {
  for (const std::string& path : corpus_entries()) {
    SCOPED_TRACE(path);
    fuzz::Reproducer repro;
    ASSERT_NO_THROW(repro = fuzz::load_reproducer(path));
    const fuzz::Failure observed = fuzz::replay(repro);
    EXPECT_EQ(observed.kind, repro.kind)
        << "expected " << fuzz::to_string(repro.kind) << ", observed "
        << fuzz::to_string(observed.kind) << ": " << observed.detail;
  }
}

// --- repro schema compatibility across the variant axis (ISSUE 10) ------

fuzz::Reproducer sample_repro() {
  fuzz::Reproducer repro;
  repro.kind = fuzz::FailureKind::kNone;
  repro.seed = 7;
  repro.detail = "compat test";
  repro.program_source =
      "struct Packet { int a; };\n"
      "int last = 0;\n"
      "void prog(struct Packet p) { last = p.a; }\n";
  TraceItem item;
  item.arrival_time = 0.0;
  item.fields = {3};
  repro.trace.push_back(item);
  return repro;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ReproCompat, VariantConfigRoundTrips) {
  fuzz::Reproducer repro = sample_repro();
  repro.kind = fuzz::FailureKind::kVariantDivergence;
  repro.config.variant = fuzz::DesignVariant::kRelaxed;
  repro.config.staleness = 64;
  repro.config.pipelines = 8;

  const auto dir =
      std::filesystem::temp_directory_path() / "mp5-repro-compat";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "roundtrip.json").string();
  fuzz::save_reproducer(repro, path);

  const fuzz::Reproducer loaded = fuzz::load_reproducer(path);
  EXPECT_EQ(loaded.kind, fuzz::FailureKind::kVariantDivergence);
  EXPECT_EQ(loaded.config.variant, fuzz::DesignVariant::kRelaxed);
  EXPECT_EQ(loaded.config.staleness, 64u);
  EXPECT_EQ(loaded.config.pipelines, 8u);
  EXPECT_EQ(loaded.config.name(), repro.config.name());
  std::filesystem::remove_all(dir);
}

TEST(ReproCompat, StalenessMustMatchVariant) {
  // Staleness 0 is how the replicated simulator spells SCR, so a
  // reproducer whose staleness disagrees with its variant would silently
  // replay another design.
  const auto dir =
      std::filesystem::temp_directory_path() / "mp5-repro-staleness";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "mismatch.json").string();
  for (const auto& [variant, staleness] :
       {std::pair{fuzz::DesignVariant::kScr, 64u},
        std::pair{fuzz::DesignVariant::kRelaxed, 0u},
        std::pair{fuzz::DesignVariant::kMp5, 8u}}) {
    fuzz::Reproducer repro = sample_repro();
    repro.config.variant = variant;
    repro.config.staleness = staleness;
    fuzz::save_reproducer(repro, path);
    EXPECT_THROW(fuzz::load_reproducer(path), ConfigError)
        << fuzz::to_string(variant) << " with staleness " << staleness;
  }
  std::filesystem::remove_all(dir);
}

TEST(ReproCompat, PreVariantReproLoadsAsMp5) {
  // A corpus file written before the replicated variants existed has no
  // "variant"/"staleness" keys in its config object; it must keep loading
  // as the (then-only) MP5 design. One written while the simulator had
  // several cycle walks carries their retired selector keys, which load
  // and are ignored.
  const auto dir =
      std::filesystem::temp_directory_path() / "mp5-repro-compat-legacy";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "legacy.json").string();
  fuzz::save_reproducer(sample_repro(), path);

  std::string text = slurp(path);
  const std::size_t from = text.find("\"variant\"");
  const std::size_t to = text.find("\"pipelines\"");
  ASSERT_NE(from, std::string::npos);
  ASSERT_LT(from, to);
  text.erase(from, to - from); // drops the variant and staleness keys
  ASSERT_EQ(text.find("\"variant\""), std::string::npos);
  std::ofstream(path) << text;

  const fuzz::Reproducer loaded = fuzz::load_reproducer(path);
  EXPECT_EQ(loaded.config.variant, fuzz::DesignVariant::kMp5);
  EXPECT_EQ(loaded.config.staleness, 0u);

  text = slurp(path);
  const std::size_t at = text.find("\"pipelines\"");
  ASSERT_NE(at, std::string::npos);
  text.insert(at, "\"engine\": \"event\", \"threads\": 4, "
                  "\"fast_forward\": false, \"reference_rebalance\": true, ");
  std::ofstream(path) << text;
  const fuzz::Reproducer retired = fuzz::load_reproducer(path);
  EXPECT_EQ(retired.config.name(), sample_repro().config.name());
  EXPECT_FALSE(fuzz::replay(retired)) << "retired keys changed the replay";
  std::filesystem::remove_all(dir);
}

TEST(ReproCompat, UnknownVariantNameIsRejected) {
  const auto dir =
      std::filesystem::temp_directory_path() / "mp5-repro-compat-bad";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "bad.json").string();
  fuzz::save_reproducer(sample_repro(), path);

  std::string text = slurp(path);
  const std::size_t pos = text.find("\"mp5\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "\"eventual\"");
  std::ofstream(path) << text;

  EXPECT_THROW(fuzz::load_reproducer(path), ConfigError);
  std::filesystem::remove_all(dir);
}

} // namespace
} // namespace mp5::test
