// Block-trace container for the replay front-end: an ordered list of
// (timestamp, op, offset, length) records, loadable from the common CSV
// shape real block traces ship in (`timestamp,op,lba,len`). A loaded trace
// is immutable and shared (std::shared_ptr in JobSpec), so one trace file
// can drive many jobs or shards without reparsing.
//
// CSV format, one record per line:
//   timestamp,op,lba,len
//   0,R,2048,4096
//   125000,W,0,8192
// `timestamp` is nanoseconds relative to job start (non-decreasing), `op` is
// R/W (a leading 'r'/'w', case-insensitive, suffices — "read"/"write" work),
// `lba` is the logical block address in 512-byte sectors, `len` the transfer
// length in bytes. Numeric fields are unsigned decimal (no sign); timestamps
// must fit int64 ns, `lba * 512` must fit 64 bits and `len` is in [1, 2^32).
// A header line whose first field is text (not a digit or sign) is skipped;
// blank lines and '#' comments are ignored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/block_device.h"

namespace pas::iogen {

// LBA unit used by the CSV front-end (the classic 512-byte sector).
inline constexpr std::uint64_t kTraceSectorBytes = 512;

struct TraceRecord {
  TimeNs at = 0;              // arrival time relative to job start
  sim::IoOp op = sim::IoOp::kRead;
  std::uint64_t offset = 0;   // bytes (lba * 512 after CSV load)
  std::uint32_t bytes = 0;
};

class ReplayTrace {
 public:
  // Validates ordering (timestamps non-decreasing) and non-empty records.
  static ReplayTrace from_records(std::vector<TraceRecord> records);
  // Parses the CSV format above; aborts with file/line context on malformed
  // input so a bad trace fails loudly, not as a silently empty workload.
  static ReplayTrace load_csv(const std::string& path);

  // Writes the same CSV shape load_csv reads (round-trip exact).
  void save_csv(const std::string& path) const;

  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  // Timestamp of the last record (0 for an empty trace).
  TimeNs duration() const;
  std::uint64_t total_bytes() const;

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace pas::iogen
