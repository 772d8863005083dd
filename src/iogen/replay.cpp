#include "iogen/replay.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/check.h"

namespace pas::iogen {

namespace {

// One CSV field up to the next comma/end; leading/trailing spaces trimmed.
std::string next_field(const std::string& line, std::size_t& pos) {
  std::size_t end = line.find(',', pos);
  if (end == std::string::npos) end = line.size();
  std::size_t b = pos;
  std::size_t e = end;
  while (b < e && std::isspace(static_cast<unsigned char>(line[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(line[e - 1]))) --e;
  pos = end < line.size() ? end + 1 : line.size();
  return line.substr(b, e - b);
}

enum class Parse { kOk, kMalformed, kTooLarge };

// Strict unsigned decimal no larger than `max`: digits only (no sign, no
// exponent), and a value strtoull would saturate counts as too large.
Parse parse_u64(const std::string& s, std::uint64_t max, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return Parse::kMalformed;
  }
  errno = 0;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return errno == ERANGE || out > max ? Parse::kTooLarge : Parse::kOk;
}

[[noreturn]] void bad_record(const std::string& path, std::size_t line_no,
                             const char* what, const std::string& field) {
  std::fprintf(stderr, "ReplayTrace: %s, got '%s' at %s:%zu\n", what, field.c_str(),
               path.c_str(), line_no);
  std::abort();
}

}  // namespace

ReplayTrace ReplayTrace::from_records(std::vector<TraceRecord> records) {
  PAS_CHECK_MSG(!records.empty(), "a replay trace needs at least one record");
  TimeNs prev = 0;
  for (const TraceRecord& r : records) {
    PAS_CHECK_MSG(r.at >= prev, "trace timestamps must be non-decreasing");
    PAS_CHECK_MSG(r.bytes > 0, "trace records need a positive length");
    PAS_CHECK_MSG(r.op == sim::IoOp::kRead || r.op == sim::IoOp::kWrite,
                  "trace replay supports read and write records");
    prev = r.at;
  }
  ReplayTrace t;
  t.records_ = std::move(records);
  return t;
}

ReplayTrace ReplayTrace::load_csv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  PAS_CHECK_MSG(f != nullptr, "cannot open trace file");
  std::vector<TraceRecord> records;
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const char* what, const std::string& field) {
    std::fclose(f);
    bad_record(path, line_no, what, field);
  };
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    ++line_no;
    line = buf;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::size_t pos = 0;
    const std::string ts = next_field(line, pos);
    std::uint64_t at = 0;
    const Parse ts_parse =
        parse_u64(ts, static_cast<std::uint64_t>(std::numeric_limits<TimeNs>::max()), at);
    if (ts_parse == Parse::kMalformed) {
      // A text first field before any record is a header row; one that
      // starts like a number (digit or sign) is a malformed timestamp.
      const bool header = records.empty() && !ts.empty() &&
                          !std::isdigit(static_cast<unsigned char>(ts[0])) &&
                          ts[0] != '+' && ts[0] != '-';
      if (header) continue;
      fail("timestamp must be an unsigned integer", ts);
    }
    if (ts_parse == Parse::kTooLarge) fail("timestamp exceeds INT64_MAX ns", ts);
    const std::string op = next_field(line, pos);
    const std::string lba = next_field(line, pos);
    const std::string len = next_field(line, pos);
    TraceRecord r;
    r.at = static_cast<TimeNs>(at);
    if (!records.empty() && r.at < records.back().at) fail("timestamp decreases", ts);
    const char c = op.empty() ? '\0' : static_cast<char>(std::tolower(
                                           static_cast<unsigned char>(op[0])));
    if (c == 'r') {
      r.op = sim::IoOp::kRead;
    } else if (c == 'w') {
      r.op = sim::IoOp::kWrite;
    } else {
      fail("op must be R or W", op);
    }
    std::uint64_t lba_v = 0;
    const Parse lba_parse =
        parse_u64(lba, std::numeric_limits<std::uint64_t>::max() / kTraceSectorBytes, lba_v);
    if (lba_parse == Parse::kMalformed) fail("lba must be an unsigned integer", lba);
    if (lba_parse == Parse::kTooLarge) fail("lba overflows a 64-bit byte offset", lba);
    std::uint64_t len_v = 0;
    if (parse_u64(len, 0xFFFFFFFFull, len_v) != Parse::kOk || len_v == 0) {
      fail("len must be an integer in [1, 2^32)", len);
    }
    r.offset = lba_v * kTraceSectorBytes;
    r.bytes = static_cast<std::uint32_t>(len_v);
    records.push_back(r);
  }
  std::fclose(f);
  if (records.empty()) {
    std::fprintf(stderr, "ReplayTrace: no records in %s\n", path.c_str());
    std::abort();
  }
  return from_records(std::move(records));
}

void ReplayTrace::save_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PAS_CHECK_MSG(f != nullptr, "cannot write trace file");
  std::fprintf(f, "timestamp,op,lba,len\n");
  for (const TraceRecord& r : records_) {
    PAS_CHECK_MSG(r.offset % kTraceSectorBytes == 0,
                  "record offset is not sector-aligned");
    std::fprintf(f, "%lld,%c,%llu,%u\n", static_cast<long long>(r.at),
                 r.op == sim::IoOp::kRead ? 'R' : 'W',
                 static_cast<unsigned long long>(r.offset / kTraceSectorBytes), r.bytes);
  }
  std::fclose(f);
}

TimeNs ReplayTrace::duration() const {
  return records_.empty() ? 0 : records_.back().at;
}

std::uint64_t ReplayTrace::total_bytes() const {
  std::uint64_t total = 0;
  for (const TraceRecord& r : records_) total += r.bytes;
  return total;
}

}  // namespace pas::iogen
