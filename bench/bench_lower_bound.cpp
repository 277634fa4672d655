// E1 / Theorem 1: the lower-bound table. For each f, replay the proof's
// adversarial schedule against a TM_1R register at n = 5f (violation
// expected) and n = 5f+1 (the same attack must fail), over several
// seeds. Regenerates the paper's central impossibility claim and shows
// the bound is tight; exits 1 when a run contradicts it.
#include <cstdio>
#include <string>

#include "baselines/lower_bound_replay.hpp"
#include "bench_json.hpp"
#include "bench_util.hpp"

using namespace sbft;
using namespace sbft::bench;

int main(int argc, char** argv) {
  JsonReport report("lower_bound", ParseBenchArgs(argc, argv));
  Header("E1 (Theorem 1)",
         "regularity violations of a TM_1R register under the proof's "
         "adversarial schedule");
  Row("%-4s %-4s %-10s %-22s %-22s", "f", "n", "setting", "runs violated",
      "ops completed");

  bool bound_holds = true;
  for (std::uint32_t f = 1; f <= 4; ++f) {
    for (std::uint32_t extra = 0; extra <= 1; ++extra) {
      int violated = 0;
      int completed = 0;
      const int kRuns = report.smoke() ? 4 : 10;
      for (int seed = 1; seed <= kRuns; ++seed) {
        ReplayOptions options;
        options.f = f;
        options.extra_correct = extra;
        options.seed = static_cast<std::uint64_t>(seed);
        auto result = RunTheorem1Replay(options);
        completed += result.all_ops_completed ? 1 : 0;
        violated += result.violated() ? 1 : 0;
        // n = 5f: every completed run violates; n = 5f+1: every run
        // completes and none violates.
        const bool as_predicted =
            extra == 0 ? !result.all_ops_completed || result.violated()
                       : result.all_ops_completed && !result.violated();
        if (!as_predicted) {
          std::fprintf(stderr,
                       "bench_lower_bound: f=%u n=%u seed %d: %s\n", f,
                       5 * f + extra, seed,
                       result.all_ops_completed ? result.Summary().c_str()
                                                : "schedule stalled");
          bound_holds = false;
        }
      }
      Row("%-4u %-4u %-10s %2d/%-19d %2d/%-19d", f, 5 * f + extra,
          extra == 0 ? "n=5f" : "n=5f+1", violated, kRuns, completed, kRuns);
      report.Metric("f" + std::to_string(f) +
                        (extra == 0 ? ".n5f" : ".n5f1") + ".violated_frac",
                    static_cast<double>(violated) / kRuns, "runs");
    }
  }
  Row("%s", "\nexpected shape: n=5f rows violate in every completed run; "
            "n=5f+1 rows never violate (tight bound).");
  return report.Flush() && bound_holds ? 0 : 1;
}
