// CSV (de)serialization of packet traces, so experiments can be replayed
// across runs and tools (the paper's artifact ships trace generators; we
// additionally make every trace storable).
//
// Format: one packet per line,
//   arrival_time,port,size_bytes,flow,field0,field1,...
// Lines starting with '#' are comments. Field counts may vary per line
// (missing declared fields default to 0 at admission). arrival_time is
// written in its shortest round-trip form, so a saved trace replays
// bit-identically.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/trace.hpp"

namespace mp5 {

void save_trace_csv(const Trace& trace, std::ostream& os);
/// Parse one CSV line (without its '\n'; a trailing '\r' is ignored) into
/// `item`. Returns false for blank and comment lines. Every cell must be
/// one whole number: port and size_bytes unsigned 32-bit, flow unsigned
/// 64-bit, fields signed 64-bit, arrival_time finite. Anything else
/// throws Error naming `lineno`. Both CSV readers (load_trace_csv and
/// CsvFileTraceSource) use it.
bool parse_trace_csv_line(std::string_view line, std::size_t lineno,
                          TraceItem& item);
Trace load_trace_csv(std::istream& is);

void save_trace_file(const Trace& trace, const std::string& path);
Trace load_trace_file(const std::string& path);

/// Compact binary trace format for soak-scale inputs: fixed-size records
/// make BinaryFileTraceSource::skip_to O(1). Layout (little-endian):
///   magic "MP5TRCB1" | u32 version=1 | u32 field_count | u64 item_count
///   then item_count records of
///   f64 arrival_time | u32 port | u32 size_bytes | u64 flow
///   | field_count x i64 fields (zero-padded per item)
inline constexpr std::string_view kTraceBinMagic = "MP5TRCB1";

void save_trace_bin(const Trace& trace, const std::string& path);
Trace load_trace_bin(const std::string& path);

} // namespace mp5
