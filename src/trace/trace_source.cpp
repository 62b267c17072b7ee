#include "trace/trace_source.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trace/trace_io.hpp"

namespace mp5 {

void VectorTraceSource::skip_to(std::uint64_t n) {
  if (n > trace_->size()) {
    throw Error("trace skip_to(" + std::to_string(n) + ") past end (" +
                std::to_string(trace_->size()) + " items)");
  }
  pos_ = n;
}

// -- MappedFile ------------------------------------------------------------

MappedFile::MappedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw Error("cannot open trace file '" + path +
                "': " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("cannot stat trace file '" + path +
                "': " + std::strerror(err));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      throw Error("cannot mmap trace file '" + path +
                  "': " + std::strerror(err));
    }
    data_ = static_cast<const char*>(p);
  }
  ::close(fd);
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

// -- CsvFileTraceSource ----------------------------------------------------

CsvFileTraceSource::CsvFileTraceSource(const std::string& path)
    : path_(path), map_(std::make_unique<MappedFile>(path)) {
  parse_next();
}

const TraceItem* CsvFileTraceSource::peek() {
  return have_current_ ? &current_ : nullptr;
}

void CsvFileTraceSource::advance() {
  ++consumed_;
  parse_next();
}

void CsvFileTraceSource::skip_to(std::uint64_t n) {
  if (n < consumed_) {
    offset_ = 0;
    lineno_ = 0;
    consumed_ = 0;
    any_parsed_ = false;
    parse_next();
  }
  while (consumed_ < n) {
    if (!have_current_) {
      throw Error("trace skip_to(" + std::to_string(n) +
                  ") past end of '" + path_ + "'");
    }
    advance();
  }
}

void CsvFileTraceSource::parse_next() {
  const char* base = map_->data();
  const std::size_t size = map_->size();
  TraceItem item;
  while (offset_ < size) {
    std::size_t end = offset_;
    while (end < size && base[end] != '\n') ++end;
    const std::string_view line(base + offset_, end - offset_);
    offset_ = (end < size) ? end + 1 : size;
    if (!parse_trace_csv_line(line, ++lineno_, item)) continue;
    // A streaming reader cannot sort after the fact, so admission order
    // is an input contract.
    if (any_parsed_ &&
        (item.arrival_time < prev_time_ ||
         (item.arrival_time == prev_time_ && item.port < prev_port_))) {
      throw Error("trace csv line " + std::to_string(lineno_) +
                  ": out of admission order (streaming input must be "
                  "sorted by arrival_time, then port)");
    }
    prev_time_ = item.arrival_time;
    prev_port_ = item.port;
    any_parsed_ = true;
    current_ = std::move(item);
    have_current_ = true;
    return;
  }
  have_current_ = false;
}

// -- SyntheticTraceSource --------------------------------------------------

SyntheticTraceSource::SyntheticTraceSource(const SyntheticSpec& spec)
    : spec_(spec) {
  if (spec_.pipelines == 0) {
    throw Error("SyntheticTraceSource: pipelines must be > 0");
  }
  if (!(spec_.load > 0.0)) {
    throw Error("SyntheticTraceSource: load must be > 0");
  }
  current_.fields.resize(spec_.field_count);
  generate(0);
}

const TraceItem* SyntheticTraceSource::peek() {
  return have_current_ ? &current_ : nullptr;
}

void SyntheticTraceSource::advance() {
  ++pos_;
  generate(pos_);
}

void SyntheticTraceSource::skip_to(std::uint64_t n) {
  if (n > spec_.packets) {
    throw Error("trace skip_to(" + std::to_string(n) + ") past end (" +
                std::to_string(spec_.packets) + " items)");
  }
  pos_ = n;
  generate(pos_);
}

void SyntheticTraceSource::generate(std::uint64_t i) {
  if (i >= spec_.packets) {
    have_current_ = false;
    return;
  }
  // Item i depends only on (seed, i): reseed a fresh stream per item so
  // skip_to() needs no replay. Fixed 64 B packets at the line-rate clock
  // give arrival_time = i / (pipelines * load).
  Rng rng(spec_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
  current_.arrival_time =
      static_cast<double>(i) / (spec_.pipelines * spec_.load);
  current_.port = static_cast<std::uint32_t>(
      rng.next_below(std::uint64_t{spec_.pipelines} * 4));
  current_.size_bytes = 64;
  current_.flow = rng.next_below(std::max<std::uint64_t>(1, spec_.flows));
  const std::uint64_t bound =
      spec_.field_bound > 0 ? static_cast<std::uint64_t>(spec_.field_bound)
                            : 1;
  for (std::uint32_t f = 0; f < spec_.field_count; ++f) {
    current_.fields[f] = static_cast<Value>(rng.next_below(bound));
  }
  have_current_ = true;
}

std::unique_ptr<TraceSource> open_traffic(const std::string& path,
                                          const SyntheticSpec& spec) {
  if (path.empty()) return std::make_unique<SyntheticTraceSource>(spec);
  return std::make_unique<CsvFileTraceSource>(path);
}

Trace materialize(TraceSource& source) {
  Trace trace;
  if (const auto n = source.size()) trace.reserve(*n);
  while (const TraceItem* item = source.peek()) {
    trace.push_back(*item);
    source.advance();
  }
  return trace;
}

} // namespace mp5
