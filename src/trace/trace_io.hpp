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
/// throws Error naming `lineno`. CsvFileTraceSource reads with it.
bool parse_trace_csv_line(std::string_view line, std::size_t lineno,
                          TraceItem& item);
void save_trace_file(const Trace& trace, const std::string& path);
/// Materializes a CsvFileTraceSource: the file must be in admission order
/// (an out-of-order line throws Error naming its line number).
Trace load_trace_file(const std::string& path);

} // namespace mp5
