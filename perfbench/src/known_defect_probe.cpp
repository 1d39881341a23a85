// Re-runs the minimal repro of the known DP defect (known_defects.hpp).
#include <cstdint>
#include <string>

#include "common.hpp"
#include "known_defects.hpp"
#include "mkss.hpp"

namespace perfbench {

void report_dp_defect_probe(const char* context) {
  using namespace mkss;
  // The minimal repro `mkss_cli fuzz --runs 20000 --seed 7 --scheme dp`
  // shrinks its iteration 19497 to: J2,39 misses its deadline at 273 ms.
  fault::ReproCase c;
  c.ts = io::parse_taskset_string(
      "tau1 6.000 6.000 4.000 4 6\n"
      "tau2 7.000 7.000 1.000 4 5\n");
  c.scheme = "dp";
  c.platform = sim::PlatformSpec::standby(2);
  c.horizon = core::from_ms(std::int64_t{300});
  sim::PermanentFault pf;
  pf.proc = 0;
  pf.time = 267663;
  c.plan.set_permanent(pf);
  const fault::ReproVerdict v = fault::check_repro(c);
  std::string outcome = "no longer fails: DP can go back into the workloads";
  if (v.violated) {
    outcome = v.kind == "audit-violation" &&
                      is_known_dp_defect(c.scheme, true, v.detail)
                  ? "still fails"
                  : "fails otherwise: " + v.kind + " " + v.invariant;
  }
  info("%s. Known defect: %s. Its minimal repro (2 tasks, one permanent "
       "fault) %s.",
       context, kDpPermanentFaultSignature, outcome.c_str());
}

}  // namespace perfbench
