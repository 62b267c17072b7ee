// Telemetry subsystem: a name-ordered registry of counters, gauges and
// histograms plus a bounded cycle-level event ring buffer.
//
// Design contract (see DESIGN.md "Telemetry"):
//   * Read-only export. Simulators count every event once, as plain
//     always-on integers in the code that observes it (most of them are
//     SimResult fields). At the end of a run the simulator writes those
//     counts into the registry; attaching a registry changes neither the
//     result nor the cycle walk. Only the event ring is fed during the run.
//   * Deterministic. Metrics live in name-ordered maps; two same-seed runs
//     produce identical snapshots. No wall-clock time anywhere — the event
//     timestamps are simulated cycles.
//   * Bounded. The event ring keeps the newest `event_capacity` events and
//     counts what it had to discard; memory use is fixed up front.
//
// The exporters live next door: chrome_trace.hpp (Perfetto /
// chrome://tracing), results.hpp (schema-versioned run results JSON) and
// bench_report.hpp (BENCH_*.json files for the bench harnesses).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mp5/timeline.hpp"

namespace mp5::telemetry {

/// Monotonic event/occurrence counter.
class Counter {
public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }

private:
  std::uint64_t value_ = 0;
};

/// Last-value-wins instantaneous measurement (occupancy, depth, rate).
/// `set_max` keeps a high-water mark instead.
class Gauge {
public:
  void set(double v) noexcept { value_ = v; }
  void set_max(double v) noexcept {
    if (v > value_) value_ = v;
  }
  double value() const noexcept { return value_; }

private:
  double value_ = 0.0;
};

/// Bounded ring of simulator timeline events: keeps the newest `capacity`
/// events, counting (not storing) everything older that wrapped out.
class EventRing {
public:
  explicit EventRing(std::size_t capacity);

  void push(const TimelineEvent& event);

  std::size_t capacity() const noexcept { return buf_.size(); }
  /// Events currently held (<= capacity).
  std::size_t size() const noexcept { return size_; }
  /// Total events ever pushed.
  std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events discarded because the ring wrapped (recorded() - size()).
  std::uint64_t dropped() const noexcept { return recorded_ - size_; }

  /// The i-th retained event, oldest first (0 <= i < size()).
  const TimelineEvent& at(std::size_t i) const;

  /// Oldest-to-newest snapshot (copies; for tests and exporters).
  std::vector<TimelineEvent> snapshot() const;

private:
  std::vector<TimelineEvent> buf_;
  std::size_t next_ = 0;   // physical slot of the next push
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
};

struct Config {
  /// Event-ring capacity. 0 disables event recording entirely (counters
  /// and gauges still work).
  std::size_t event_capacity = 1 << 16;
};

/// The per-run metric registry plus the event ring. Attach one via
/// SimOptions::telemetry; several simulators may share one registry under
/// distinct SimOptions::telemetry_prefix values (the fabric does).
class Telemetry {
public:
  explicit Telemetry(Config config = {});

  /// Find-or-create. Repeated registration under one name returns the
  /// same object.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Find-or-create; the width/bucket shape is fixed by the first
  /// registration (later mismatching registrations throw ConfigError).
  Histogram& histogram(const std::string& name, double bucket_width,
                       std::size_t buckets);

  /// Record one simulator event into the ring (no-op when
  /// Config::event_capacity was 0).
  void record(const TimelineEvent& event);

  bool events_enabled() const noexcept { return ring_ != nullptr; }
  const EventRing& events() const;

  // Name-ordered read access for exporters and determinism checks.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Flat name->value snapshot of all counters (determinism tests).
  std::map<std::string, std::uint64_t> counter_snapshot() const;

private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::unique_ptr<EventRing> ring_;
};

} // namespace mp5::telemetry
