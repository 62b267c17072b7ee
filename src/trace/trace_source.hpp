// Streaming packet sources for soak-scale runs (ISSUE 6).
//
// The simulator historically consumed a fully materialized
// std::vector<TraceItem>, capping runs at bench-sized workloads.
// TraceSource is the incremental replacement: the simulator peeks at the
// next packet and advances one item at a time, so a 10^9-packet run
// holds O(1) trace state in memory. Implementations:
//
//   VectorTraceSource     adapter over an in-memory Trace (back compat)
//   CsvFileTraceSource    mmap'd .trace.csv, parsed on demand
//   SyntheticTraceSource  generator-driven: item i is a pure function of
//                         (spec, i), so skip_to() is O(1) — the backbone
//                         of billion-packet soak runs
//
// skip_to() exists for checkpoint restore: a resumed simulator
// repositions the source at the number of packets already admitted.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "trace/trace.hpp"

namespace mp5 {

class TraceSource {
public:
  virtual ~TraceSource() = default;

  /// The next not-yet-consumed item, or nullptr at end of stream. The
  /// pointer stays valid until the next advance()/skip_to() call.
  virtual const TraceItem* peek() = 0;

  /// Consume the item peek() returned. Precondition: peek() != nullptr.
  virtual void advance() = 0;

  /// Items consumed so far (== index of the item peek() returns).
  virtual std::uint64_t consumed() const = 0;

  /// Reposition so that consumed() == n. Used on checkpoint restore;
  /// n must not exceed the stream length.
  virtual void skip_to(std::uint64_t n) = 0;

  /// Total item count when cheaply known (used only for capacity
  /// hints, never for control flow).
  virtual std::optional<std::uint64_t> size() const = 0;
};

/// Adapter over an in-memory Trace. Non-owning by default (the
/// Trace& overload of Mp5Simulator::run wraps its argument); the
/// rvalue constructor takes ownership for callers that build a trace
/// just to stream it.
class VectorTraceSource final : public TraceSource {
public:
  explicit VectorTraceSource(const Trace& trace) : trace_(&trace) {}
  explicit VectorTraceSource(Trace&& trace)
      : owned_(std::move(trace)), trace_(&owned_) {}

  const TraceItem* peek() override {
    return pos_ < trace_->size() ? &(*trace_)[pos_] : nullptr;
  }
  void advance() override { ++pos_; }
  std::uint64_t consumed() const override { return pos_; }
  void skip_to(std::uint64_t n) override;
  std::optional<std::uint64_t> size() const override {
    return trace_->size();
  }

private:
  Trace owned_;
  const Trace* trace_;
  std::uint64_t pos_ = 0;
};

/// Read-only mmap of a trace file. Owns the mapping; unmaps on destroy.
class MappedFile {
public:
  explicit MappedFile(const std::string& path);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const char* data() const { return data_; }
  std::size_t size() const { return size_; }

private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Streams a .trace.csv file without materializing it. A streaming reader
/// cannot sort — the file must already be in admission order
/// (non-decreasing arrival_time, ties in non-decreasing port); violations
/// throw with the offending line number.
class CsvFileTraceSource final : public TraceSource {
public:
  explicit CsvFileTraceSource(const std::string& path);

  const TraceItem* peek() override;
  void advance() override;
  std::uint64_t consumed() const override { return consumed_; }
  void skip_to(std::uint64_t n) override;
  std::optional<std::uint64_t> size() const override { return std::nullopt; }

private:
  void parse_next();

  std::string path_;
  std::unique_ptr<MappedFile> map_;
  std::size_t offset_ = 0;
  std::size_t lineno_ = 0;
  std::uint64_t consumed_ = 0;
  bool have_current_ = false;
  TraceItem current_;
  double prev_time_ = 0.0;
  std::uint32_t prev_port_ = 0;
  bool any_parsed_ = false;
};

/// Parameters for the deterministic soak-traffic generator. Item i is a
/// pure function of (spec, i): arrival times follow the line-rate clock
/// for fixed 64 B packets and the randomized fields are drawn from an Rng
/// reseeded per item, so repositioning anywhere in a 10^9-packet stream
/// costs O(1).
struct SyntheticSpec {
  std::uint64_t packets = 0;
  std::uint32_t pipelines = 4;
  /// Offered load relative to aggregate line rate (1.0 = full rate).
  double load = 1.0;
  /// Number of declared packet fields to randomize.
  std::uint32_t field_count = 1;
  /// Field values are uniform in [0, field_bound).
  Value field_bound = 1024;
  std::uint64_t flows = 64;
  std::uint64_t seed = 1;
};

class SyntheticTraceSource final : public TraceSource {
public:
  explicit SyntheticTraceSource(const SyntheticSpec& spec);

  const TraceItem* peek() override;
  void advance() override;
  std::uint64_t consumed() const override { return pos_; }
  void skip_to(std::uint64_t n) override;
  std::optional<std::uint64_t> size() const override { return spec_.packets; }

private:
  void generate(std::uint64_t i);

  SyntheticSpec spec_;
  std::uint64_t pos_ = 0;
  bool have_current_ = false;
  TraceItem current_;
};

/// The packets of a run: the CSV trace at `path`, which must be in
/// admission order, or the synthetic stream `spec` describes when `path`
/// is empty.
std::unique_ptr<TraceSource> open_traffic(const std::string& path,
                                          const SyntheticSpec& spec);

/// Drain `source` into a vector, for the callers that need the whole
/// trace at once (the equivalence oracles, --save-trace).
Trace materialize(TraceSource& source);

} // namespace mp5
