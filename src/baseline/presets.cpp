#include "baseline/presets.hpp"

namespace mp5 {

SimOptions mp5_options(std::uint32_t pipelines, std::uint64_t seed) {
  SimOptions opts;
  opts.pipelines = pipelines;
  opts.seed = seed;
  return opts;
}

SimOptions no_d2_options(std::uint32_t pipelines, std::uint64_t seed) {
  SimOptions opts = mp5_options(pipelines, seed);
  opts.sharding = ShardingPolicy::kStaticRandom;
  return opts;
}

SimOptions no_d4_options(std::uint32_t pipelines, std::uint64_t seed) {
  SimOptions opts = mp5_options(pipelines, seed);
  opts.phantoms = false;
  return opts;
}

SimOptions naive_options(std::uint32_t pipelines, std::uint64_t seed) {
  SimOptions opts = mp5_options(pipelines, seed);
  opts.naive_single_pipeline = true;
  // The simulator rejects naive mode with any other sharding policy
  // (construction-time validation), so set the matching one explicitly.
  opts.sharding = ShardingPolicy::kSinglePipeline;
  return opts;
}

SimOptions ideal_options(std::uint32_t pipelines, std::uint64_t seed) {
  SimOptions opts = mp5_options(pipelines, seed);
  opts.ideal_queues = true;
  opts.sharding = ShardingPolicy::kIdealLpt;
  return opts;
}

ReplicatedOptions scr_options(std::uint32_t pipelines) {
  ReplicatedOptions opts;
  opts.pipelines = pipelines;
  return opts;
}

ReplicatedOptions relaxed_options(std::uint32_t pipelines,
                                  std::uint32_t staleness) {
  ReplicatedOptions opts = scr_options(pipelines);
  opts.staleness_bound = staleness;
  return opts;
}

} // namespace mp5
