#include "telemetry/run_envelope.hpp"

#include <cstdio>
#include <thread>

#include "common/host.hpp"

namespace mp5::telemetry {
namespace {

#include "build_info.inc"

} // namespace

RunEnvelope::RunEnvelope(std::ostream& out, std::string_view schema)
    : out_(out), json_(out) {
  json_.begin_object();
  json_.kv("schema", schema).kv("schema_version", kRunSchemaVersion);
  json_.key("host")
      .begin_object()
      .kv("usable_cpus", host::usable_cpus())
      .kv("affinity_cpus", host::affinity_cpus())
      .key("cpu_max");
  if (const auto limit = host::cgroup_cpu_limit()) json_.value(*limit);
  else json_.null();
  json_.kv("hardware_concurrency", std::thread::hardware_concurrency())
      .end_object();
  json_.key("build")
      .begin_object()
      .kv("compiler", kCompiler)
      .kv("compiler_version", kCompilerVersion)
      .kv("build_type", kBuildType)
      .kv("cxx_flags", kCxxFlags)
      .kv("git_sha", kGitSha)
      .end_object();
}

void RunEnvelope::finish(std::uint64_t digest,
                         const std::function<void(JsonWriter&)>& profile) {
  json_.kv("digest", digest_hex(digest)).key("profile");
  if (profile) profile(json_);
  else json_.null();
  json_.end_object();
  out_ << "\n";
}

std::string digest_hex(std::uint64_t digest) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

std::string host_build_line() {
  const auto limit = host::cgroup_cpu_limit();
  return "host: " + std::to_string(host::usable_cpus()) +
         " usable CPUs (affinity " + std::to_string(host::affinity_cpus()) +
         ", cpu.max " + (limit ? std::to_string(*limit) : "none") +
         ", hardware " +
         std::to_string(std::thread::hardware_concurrency()) +
         ") | build: " + kCompiler + " " + kCompilerVersion + " " +
         kBuildType + " [" + kCxxFlags + "] git " +
         std::string(kGitSha).substr(0, 12);
}

} // namespace mp5::telemetry
