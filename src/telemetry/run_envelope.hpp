// The run envelope of every results document ("mp5-results",
// "mp5-fabric-results", "mp5-native-results"; DESIGN.md "Telemetry"):
// schema, schema_version 2, host (usable_cpus, affinity_cpus, cpu_max or
// null, hardware_concurrency), build (compiler, compiler_version,
// build_type, cxx_flags, git_sha), the document's own sections, digest
// ("0x<16 hex>", as the tool prints it) and profile. Only profile, which
// is never digested, may differ between two runs of one command apart
// from host and build.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>

#include "telemetry/json_writer.hpp"

namespace mp5::telemetry {

inline constexpr int kRunSchemaVersion = 2;

/// Writes one results document. The constructor writes schema,
/// schema_version, host and build; the document's own members go into
/// json(); finish() writes digest and profile and closes the document.
class RunEnvelope {
public:
  RunEnvelope(std::ostream& out, std::string_view schema);

  JsonWriter& json() { return json_; }

  /// `profile` writes one JSON value; without it the profile is null.
  void finish(std::uint64_t digest,
              const std::function<void(JsonWriter&)>& profile = nullptr);

private:
  std::ostream& out_;
  JsonWriter json_;
};

/// "0x<16 hex>", as the tools print a result digest.
std::string digest_hex(std::uint64_t digest);

/// The envelope's host and build as one "host: … | build: …" line.
std::string host_build_line();

} // namespace mp5::telemetry
