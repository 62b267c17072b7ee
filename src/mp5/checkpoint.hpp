// Schema-versioned checkpoint framing (`mp5-checkpoint v1`, ISSUE 6).
//
// A checkpoint is one self-describing binary blob:
//
//   offset  size  field
//   0       18    magic "mp5-checkpoint v1\n"
//   18      4     u32 header version (1)
//   22      8     u64 config fingerprint (FNV-1a over the semantic
//                 simulator configuration + fault plan + program shape)
//   30      8     u64 cycle the checkpoint was taken at
//   38      8     u64 payload length
//   46      N     payload (Mp5Simulator::serialize_state)
//   46+N    8     u64 FNV-1a checksum over bytes [0, 46+N)
//
// All integers little-endian. The fingerprint covers only *semantic*
// configuration — fields that change what the simulation computes
// (pipelines, sharding, seed, faults, program shape, ...). Run knobs that
// cannot change the result (max_cycles, paranoid checks, sinks,
// telemetry, the checkpoint cadence itself) are excluded, so a checkpoint
// taken every 1000 cycles restores fine into a run that never checkpoints.
//
// Corruption handling: truncated files, bad magic, version or fingerprint
// mismatches and checksum failures all throw Error with a diagnostic —
// never undefined behavior (the payload reader is bounds-checked too).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace mp5 {

class ByteReader;
struct Mp5Program;
struct SimOptions;
struct ReplicatedOptions;

inline constexpr std::string_view kCheckpointMagic = "mp5-checkpoint v1\n";
inline constexpr std::uint32_t kCheckpointVersion = 1;

struct CheckpointInfo {
  std::uint64_t fingerprint = 0;
  Cycle cycle = 0;
  /// View into the blob passed to parse_checkpoint (same lifetime).
  std::string_view payload;
};

/// Wrap a serialized payload in the framing above.
std::string frame_checkpoint(std::uint64_t fingerprint, Cycle cycle,
                             std::string payload);

/// Validate framing and checksum; throws Error on any corruption.
CheckpointInfo parse_checkpoint(std::string_view blob);

/// Total byte size of the frame starting at `blob[0]`, read from its
/// header. Used to split files that concatenate frames (the soak driver
/// stores the simulator frame followed by the verifier frame); the split
/// is safe because each frame's checksum is still verified by
/// parse_checkpoint afterwards. Throws Error if the header is incomplete
/// or the implied size exceeds the blob.
std::size_t framed_size(std::string_view blob);

/// The resume prologue every checkpointable simulator shares: parse and
/// checksum `blob`, refuse a frame whose fingerprint is not `fingerprint`,
/// restore its payload through `restore` (which returns the payload's
/// cycle), and require the whole payload to be read and its cycle to be
/// the frame's. Returns that cycle, and sets `next_checkpoint` to the
/// first boundary after it when `checkpoint_interval` is nonzero. Throws
/// Error on any mismatch.
Cycle resume_checkpoint(std::string_view blob, std::uint64_t fingerprint,
                        std::uint64_t checkpoint_interval,
                        Cycle& next_checkpoint,
                        const std::function<Cycle(ByteReader&)>& restore);

/// Atomic checkpoint write: the blob lands under a temporary name and is
/// renamed into place, so a crash mid-write never leaves a torn file at
/// `path` (the previous checkpoint survives).
void write_checkpoint_file(const std::string& path, const std::string& blob);

std::string read_checkpoint_file(const std::string& path);

/// FNV-1a fingerprint of everything that must match between the
/// checkpointing and the restoring simulator for bit-identity.
std::uint64_t config_fingerprint(const Mp5Program& program,
                                 const SimOptions& options);
std::uint64_t config_fingerprint(const Mp5Program& program,
                                 const ReplicatedOptions& options);

} // namespace mp5
