#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hashing.hpp"
#include "common/parse_number.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/seq_map.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"
#include "trace/trace_source.hpp"

namespace mp5 {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, BoundedSamplesInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoundedSamplingIsRoughlyUniform) {
  Rng rng(7);
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {};
  constexpr int kSamples = 80000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.next_below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

// Golden streams: every drawn value below was recorded from the generator
// as it stood before its hot path moved inline, so a change to the
// arithmetic (or to the synthetic trace built on it) fails here.
TEST(Rng, GoldenNextU64Streams) {
  const std::pair<std::uint64_t, std::array<std::uint64_t, 8>> golden[] = {
      {0,
       {0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL, 0x1a5f849d4933e6e0ULL,
        0x6aa594f1262d2d2cULL, 0xbba5ad4a1f842e59ULL, 0xffef8375d9ebcacaULL,
        0x6c160deed2f54c98ULL, 0x8920ad648fc30a3fULL}},
      {1,
       {0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL, 0x92f89756082a4514ULL,
        0x642e1c7bc266a3a7ULL, 0xb27a48e29a233673ULL, 0x24c123126ffda722ULL,
        0x123004ef8df510e6ULL, 0x61954dcc47b1e89dULL}},
      {0x9e3779b97f4a7c15ULL,
       {0x422ea740d0977210ULL, 0xe062b061b42e2928ULL, 0x5a071fc5930841b6ULL,
        0x01334ef8ed3cc2bdULL, 0xe45cbd6a2d9e96dbULL, 0x3bc1fe841a5f292fULL,
        0x60001d95ebbbd8e6ULL, 0xa0aee00b5b303762ULL}},
  };
  for (const auto& [seed, stream] : golden) {
    Rng rng(seed);
    for (const std::uint64_t want : stream) {
      EXPECT_EQ(rng.next_u64(), want) << "seed " << seed;
    }
  }
}

TEST(Rng, GoldenBoundedAndDoubleDraws) {
  Rng rng(1);
  // Four draws per bound, in this order; bound 2^63 + 1 rejects its third
  // draw, so the stream also pins Lemire's rejection loop.
  const std::pair<std::uint64_t, std::array<std::uint64_t, 4>> golden[] = {
      {1, {0, 0, 0, 0}},
      {2, {1, 0, 0, 0}},
      {3, {2, 1, 2, 2}},
      {10, {9, 6, 5, 8}},
      {(std::uint64_t{1} << 63) + 1,
       {0xa4c616091043e43ULL, 0x3ee4e1e366989c17ULL, 0x829c224f16a7ad7ULL,
        0x3b4b2084a4987bc8ULL}},
  };
  for (const auto& [bound, draws] : golden) {
    for (const std::uint64_t want : draws) {
      EXPECT_EQ(rng.next_below(bound), want) << "bound " << bound;
    }
  }
  EXPECT_EQ(rng.next_double(), 0x1.fc639ebbb01c4p-2);
  EXPECT_EQ(rng.next_double(), 0x1.38b9bf9956d0ap-1);
  EXPECT_EQ(rng.next_u64(), 0x598a4ace20e1c342ULL);
}

/// Order-dependent digest of a trace source's items from its position on.
std::uint64_t drain_digest(TraceSource& source) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  while (const TraceItem* item = source.peek()) {
    std::uint64_t arrival = 0;
    std::memcpy(&arrival, &item->arrival_time, sizeof(arrival));
    mix(arrival);
    mix(item->port);
    mix(item->size_bytes);
    mix(item->flow);
    mix(item->fields.size());
    for (const Value v : item->fields) mix(static_cast<std::uint64_t>(v));
    source.advance();
  }
  return h;
}

TEST(SyntheticTrace, GoldenItemDigests) {
  SyntheticSpec spec;
  spec.packets = 1000;
  spec.seed = 1;
  spec.field_count = 6;
  spec.pipelines = 3;
  SyntheticTraceSource whole(spec);
  EXPECT_EQ(drain_digest(whole), 0x744ca2d2ef242fbbULL);
  SyntheticTraceSource tail(spec);
  tail.skip_to(500);
  EXPECT_EQ(drain_digest(tail), 0x893e4f746f09198bULL);
}

// ---- parse_number: the one parser for trace cells and flag values -------

TEST(ParseNumber, TakesWholeNumbersIntoTheDestinationType) {
  std::uint32_t u32 = 0;
  EXPECT_TRUE(parse_number("4294967295", u32));
  EXPECT_EQ(u32, 4294967295u);
  std::int64_t i64 = 0;
  EXPECT_TRUE(parse_number("-42", i64));
  EXPECT_EQ(i64, -42);
  double real = 0;
  EXPECT_TRUE(parse_number("0.25", real));
  EXPECT_EQ(real, 0.25);
  EXPECT_TRUE(parse_number("1e3", real));
  EXPECT_EQ(real, 1000.0);
}

TEST(ParseNumber, RejectsAnythingButOneWholeNumber) {
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  double real = 0;
  EXPECT_FALSE(parse_number("4abc", u32)) << "trailing bytes";
  EXPECT_FALSE(parse_number("12 ", u64)) << "trailing space";
  EXPECT_FALSE(parse_number("0.5x", real)) << "trailing bytes";
  EXPECT_FALSE(parse_number("-1", u32)) << "sign on an unsigned type";
  EXPECT_FALSE(parse_number("-0", u64)) << "sign on an unsigned type";
  EXPECT_FALSE(parse_number("4294967296", u32)) << "overflows 32 bits";
  EXPECT_FALSE(parse_number("18446744073709551616", u64));
  EXPECT_FALSE(parse_number("", u32)) << "empty value";
  EXPECT_FALSE(parse_number("", real)) << "empty value";
  EXPECT_FALSE(parse_number("+1", u32)) << "leading '+'";
  EXPECT_FALSE(parse_number("+1", i64)) << "leading '+'";
  EXPECT_FALSE(parse_number("+0.5", real)) << "leading '+'";
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "infinity"}) {
    EXPECT_FALSE(parse_number(text, real)) << text;
  }
  EXPECT_FALSE(parse_number("1e999", real)) << "overflows a double";
}

TEST(Zipf, SkewSamplerMatchesConfiguredMass) {
  Rng perm(3);
  TwoClassSkewSampler sampler(100, perm, 0.95, 0.30);
  EXPECT_EQ(sampler.hot_keys(), 30u);
  Rng rng(4);
  std::map<std::uint64_t, int> counts;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) ++counts[sampler.sample(rng)];
  // Top-30 keys should hold about 95% of the samples.
  std::vector<int> sorted;
  for (const auto& [k, c] : counts) sorted.push_back(c);
  std::sort(sorted.rbegin(), sorted.rend());
  long hot = 0, total = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    total += sorted[i];
    if (i < 30) hot += sorted[i];
  }
  EXPECT_NEAR(static_cast<double>(hot) / total, 0.95, 0.02);
}

TEST(Zipf, ZipfFavorsSmallRanks) {
  ZipfSampler sampler(1000, 1.2);
  Rng rng(9);
  int first_decile = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (sampler.sample(rng) < 100) ++first_decile;
  }
  EXPECT_GT(first_decile, kSamples / 2);
}

TEST(Hashing, DeterministicAndSpread) {
  EXPECT_EQ(hash2(1, 2), hash2(1, 2));
  EXPECT_NE(hash2(1, 2), hash2(2, 1));
  EXPECT_GE(hash2(-5, -9), 0);
  std::set<Value> values;
  for (Value i = 0; i < 1000; ++i) values.insert(hash3(i, i + 1, i + 2) % 997);
  EXPECT_GT(values.size(), 600u);
}

TEST(Hashing, FloorModAlwaysNonNegative) {
  EXPECT_EQ(floor_mod(7, 4), 3);
  EXPECT_EQ(floor_mod(-7, 4), 1);
  EXPECT_EQ(floor_mod(-8, 4), 0);
  EXPECT_EQ(floor_mod(5, 0), 0);
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, HistogramQuantiles) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 2.0);
}

TEST(Stats, HistogramNamedQuantiles) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i);
  EXPECT_NEAR(h.p50(), 50.0, 2.0);
  EXPECT_NEAR(h.p90(), 90.0, 2.0);
  EXPECT_NEAR(h.p99(), 99.0, 2.0);
}

TEST(Stats, EmptyHistogramQuantileIsNaN) {
  Histogram h(1.0, 10);
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.p99()));
}

TEST(Stats, QuantileRejectsInvalidQ) {
  Histogram h(1.0, 10);
  h.add(1.0);
  EXPECT_THROW(h.quantile(-0.1), ConfigError);
  EXPECT_THROW(h.quantile(1.5), ConfigError);
  EXPECT_THROW(h.quantile(std::numeric_limits<double>::quiet_NaN()),
               ConfigError);
}

TEST(Stats, NanSamplesRejected) {
  RunningStats s;
  EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()), ConfigError);
  Histogram h(1.0, 10);
  EXPECT_THROW(h.add(std::numeric_limits<double>::quiet_NaN()), ConfigError);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5}, 0.9), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(RingFifo, PushPopOrder) {
  RingFifo<int> fifo(4);
  EXPECT_TRUE(fifo.empty());
  auto a = fifo.push(1);
  auto b = fifo.push(2);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(fifo.front(), 1);
  fifo.pop_front();
  EXPECT_EQ(fifo.front(), 2);
}

TEST(RingFifo, BoundedDropsWhenFull) {
  RingFifo<int> fifo(2);
  EXPECT_TRUE(fifo.push(1).has_value());
  EXPECT_TRUE(fifo.push(2).has_value());
  EXPECT_FALSE(fifo.push(3).has_value());
  fifo.pop_front();
  EXPECT_TRUE(fifo.push(3).has_value());
}

TEST(RingFifo, VirtualIndexStableAcrossPops) {
  RingFifo<int> fifo(4);
  const auto a = *fifo.push(10);
  const auto b = *fifo.push(20);
  fifo.pop_front();
  EXPECT_FALSE(fifo.contains(a));
  ASSERT_TRUE(fifo.contains(b));
  fifo.replace(b, 99);
  EXPECT_EQ(fifo.front(), 99);
  EXPECT_THROW(fifo.at(a), Error);
}

TEST(RingFifo, UnboundedGrowsPreservingOrderAndAddresses) {
  RingFifo<int> fifo(0);
  std::vector<std::uint64_t> vidx;
  for (int i = 0; i < 100; ++i) vidx.push_back(*fifo.push(i));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fifo.at(vidx[i]), i);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fifo.front(), i);
    fifo.pop_front();
  }
  EXPECT_EQ(fifo.high_water_mark(), 100u);
}

TEST(RingFifo, WrapAroundReusesSlots) {
  RingFifo<int> fifo(3);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(fifo.push(round).has_value());
    EXPECT_EQ(fifo.front(), round);
    fifo.pop_front();
  }
}

// SeqMap hashes that force collisions. Homes are the hash's top bits, so
// AllAtEnd sends every key to the last slot (every probe run wraps round
// to slot 0) and NearEnd to four homes near the end of the array.
struct AllAtEndHash {
  std::uint64_t operator()(SeqNo) const noexcept { return ~std::uint64_t{0}; }
};
struct NearEndHash {
  std::uint64_t operator()(SeqNo key) const noexcept {
    return ~std::uint64_t{0} - (key % 4) * (std::uint64_t{1} << 61);
  }
};

/// Random insert/overwrite/find/erase against std::unordered_map over a
/// small key space, checking size and full iteration as it goes.
template <typename Hash>
void seq_map_matches_unordered_map(std::uint64_t seed, SeqNo key_space,
                                   int ops) {
  SeqMap<std::uint64_t, Hash> map;
  std::unordered_map<SeqNo, std::uint64_t> ref;
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    const SeqNo key = rng.next_below(key_space);
    const std::uint64_t roll = rng.next_below(10);
    if (roll < 5) {
      const std::uint64_t value = rng.next_u64();
      map.insert_or_assign(key, value);
      ref[key] = value;
    } else if (roll < 8) {
      ASSERT_EQ(map.erase(key), ref.erase(key) == 1) << "op " << op;
    } else {
      const std::uint64_t* found = map.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "op " << op;
      }
    }
    ASSERT_EQ(map.size(), ref.size()) << "op " << op;
    ASSERT_LE(2 * map.size(), map.capacity()) << "op " << op;
    if (op % 64 == 0) {
      std::unordered_map<SeqNo, std::uint64_t> seen;
      map.for_each([&](SeqNo k, std::uint64_t v) {
        ASSERT_TRUE(seen.emplace(k, v).second) << "key " << k << " twice";
      });
      ASSERT_EQ(seen, ref) << "op " << op;
    }
  }
  for (const auto& [key, value] : ref) {
    const std::uint64_t* found = map.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value);
  }
}

TEST(SeqMap, MatchesUnorderedMapUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    seq_map_matches_unordered_map<SeqHash>(seed, 200, 20'000);
  }
}

TEST(SeqMap, MatchesUnorderedMapWithWraparoundCollisions) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    seq_map_matches_unordered_map<AllAtEndHash>(seed, 40, 5'000);
    seq_map_matches_unordered_map<NearEndHash>(seed, 60, 5'000);
  }
}

TEST(SeqMap, AllocatesNothingUntilFirstInsertAndKeepsSlotsOnClear) {
  SeqMap<int> map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.find(3), nullptr);
  EXPECT_FALSE(map.erase(3));
  map.clear();
  EXPECT_EQ(map.capacity(), 0u);
  for (SeqNo s = 0; s < 100; ++s) map.insert_or_assign(s, static_cast<int>(s));
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.capacity(), 256u); // doubled past half load
  for (SeqNo s = 0; s < 100; s += 2) EXPECT_TRUE(map.erase(s));
  for (SeqNo s = 0; s < 100; ++s) {
    EXPECT_EQ(map.contains(s), s % 2 == 1) << s;
  }
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), 256u);
  EXPECT_THROW(map.insert_or_assign(kInvalidSeqNo, 1), Error);
}

TEST(TextTable, FormatsAlignedRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::num(1.5, 2)});
  t.add_row({"b", TextTable::pct(0.5)});
  std::ostringstream os;
  t.print(os);
  const auto out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("50.0%"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

} // namespace
} // namespace mp5
