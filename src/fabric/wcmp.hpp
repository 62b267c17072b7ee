// ECMP/WCMP path selection at the fabric leaves, after the WcmpHasher of
// USC-NSL/SWARM-SIM (see SNIPPETS.md): a per-flow 5-tuple hash with a
// selectable field set and a configurable salt, mapped onto weighted
// paths. Unlike the ns-3 exemplar (which hashes serialized header bytes),
// ours mixes the tuple through the repo's platform-stable mix64 chain so
// two same-seed fabric runs pick identical paths on any host.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mp5::fabric {

/// Which 5-tuple fields participate in the hash (the exemplar's
/// HASH_IP_ONLY / HASH_IP_TCP / HASH_IP_TCP_UDP ladder).
enum class HashAlg : std::uint8_t {
  kAddressesOnly, // src + dst addresses
  kAddressesPorts, // + sport/dport
  kFiveTuple,      // + protocol
};

HashAlg parse_hash_alg(const std::string& name); // throws ConfigError
std::string hash_alg_name(HashAlg alg);

struct FiveTuple {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint8_t proto = 0;
};

class WcmpHasher {
public:
  /// `weights`: one non-negative weight per path; at least one positive.
  /// Equal weights degrade WCMP to plain ECMP.
  WcmpHasher(HashAlg alg, std::uint64_t salt, std::vector<double> weights);

  /// Replace the weight vector (same size), e.g. zeroing a dead spine so
  /// survivors absorb its share. Throws ConfigError when every weight is
  /// zero — the caller must detect a fully partitioned fabric itself.
  void set_weights(std::vector<double> weights);

  /// Stable 64-bit flow hash over the fields selected by the algorithm.
  std::uint64_t hash(const FiveTuple& t) const;

  /// Weighted path pick: hash is mapped to [0, total_weight) and walked
  /// through the cumulative weights, so a path's share of the flow space
  /// equals its weight share and zero-weight paths are never picked.
  std::uint32_t pick(const FiveTuple& t) const;

private:
  HashAlg alg_;
  std::uint64_t salt_;
  std::vector<double> weights_;
  std::vector<double> cumulative_; // prefix sums of weights_
};

} // namespace mp5::fabric
