#include "known_defects.hpp"

namespace perfbench {

bool is_known_dp_defect(std::string_view scheme, bool permanent_fault,
                        std::string_view audit_text) {
  if (scheme != "dp" || !permanent_fault) return false;
  constexpr std::string_view kHeader = "trace audit failed with ";
  constexpr std::string_view kOneFault = "with only 1 fault event(s) against it";
  bool mandatory_miss = false;
  while (!audit_text.empty()) {
    const std::size_t eol = audit_text.find('\n');
    const std::string_view line = audit_text.substr(0, eol);
    audit_text = eol == std::string_view::npos ? std::string_view{}
                                               : audit_text.substr(eol + 1);
    if (line.empty() || line.starts_with(kHeader)) continue;
    const std::string_view invariant = line.substr(0, line.find(": "));
    if (invariant == "mandatory-miss" && line.ends_with(kOneFault)) {
      mandatory_miss = true;
    } else if (invariant != "mk-violation") {
      return false;  // another invariant, or "(further violations truncated)"
    }
  }
  return mandatory_miss;
}

}  // namespace perfbench
