#include "cli.h"

#include <cerrno>
#include <cstdlib>

namespace perfbench {
namespace {

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_positive(const std::string& s, double& out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || *end != '\0' || !(v > 0.0) || v > 3600.0) return false;
  out = v;
  return true;
}

}  // namespace

ParseResult parse_cli(const std::vector<std::string>& args) {
  ParseResult r;
  Options o;
  o.args = args;
  bool have_workload = false;
  bool have_seed = false;
  const auto fail = [&](std::string msg) {
    r.error = std::move(msg);
    return r;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string flag = args[i];
    std::optional<std::string> value;
    const std::size_t eq = flag.find('=');
    if (flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    const bool known = flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
                       flag == "--trace" || flag == "--out" || flag == "--commit" ||
                       flag == "--dirty";
    if (!known) return fail("unknown flag '" + args[i] + "'");
    if (!value) {
      if (i + 1 >= args.size()) return fail(flag + ": missing value");
      value = args[++i];
    }
    const std::string& v = *value;
    if (flag == "--workload") {
      const std::optional<Workload> w = parse_workload(v);
      if (!w) {
        return fail("--workload: unknown workload '" + v +
                    "' (expected campaign, fleet, rack or standby)");
      }
      o.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(v, o.seed)) return fail("--seed: '" + v + "' is not a non-negative integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_positive(v, o.seconds)) {
        return fail("--seconds: '" + v + "' is not a number of seconds in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return fail("--trace: '" + v + "' must be 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--out") {
      o.out_dir = v;
    } else if (flag == "--commit") {
      o.commit = v;
    } else {
      if (v != "0" && v != "1") return fail("--dirty: '" + v + "' must be 0 or 1");
      o.dirty = v == "1" ? "true" : "false";
    }
  }
  if (!have_workload) return fail("--workload is required");
  if (!have_seed) return fail("--seed is required");
  r.options = std::move(o);
  return r;
}

}  // namespace perfbench
