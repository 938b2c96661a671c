#ifndef JFEED_LEDGER_WORKLOAD_H_
#define JFEED_LEDGER_WORKLOAD_H_

// The ledger's three workloads and the seeded inputs each one replays.
// Why each workload exists is in README.md; the numbers here are fixed so
// that two commits are always measured on identical inputs for a seed.

#include <cstdint>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "kb/assignments.h"
#include "support/result.h"

namespace jfeed::ledger {

/// Cost classes, cheapest first. Percentiles are checked to fall inside
/// one class, never on the boundary between two (README "Cost classes").
enum CostClass { kHit = 0, kGraded = 1, kExhausted = 2 };
const char* CostClassName(int cost_class);

/// One tenant of a workload. For the closed-loop workloads `pool` distinct
/// samples are drawn per seed, `heavy` of them from the samples a short
/// interpreter probe finds exhausting their step budget.
struct Row {
  const char* assignment;
  int pool;
  int heavy;
};

struct WorkloadSpec {
  const char* name;
  bool open_loop;
  std::vector<Row> rows;
  /// The latency_tail_ms percentile, fixed per workload: the highest of
  /// p50/p90/p95/p99 that keeps at least ten samples beyond it even when a
  /// slow machine completes only half the nominal submissions of a run of
  /// BENCHMARK.json's length (the run refuses a result with fewer).
  double tail_pct;
  /// Latency limit of slo_attainment.
  double slo_ms;
  /// Closed loop: inputs each traced-run phase replays (exact counters
  /// depend only on the seed). Open loop: unused.
  int trace_inputs;
  /// Open loop: mean offered submissions per second over the schedule.
  int offered_per_s;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// One submission of a run.
struct Input {
  size_t row = 0;          ///< Index into WorkloadSpec::rows.
  size_t source = 0;       ///< Index into Plan::sources.
  std::string id;          ///< Unique per submission.
  int64_t due_ns = 0;      ///< Open loop: send time after schedule start.
  int plan_class = kGraded;  ///< Predicted cost class.
};

struct Plan {
  std::vector<std::string> sources;  ///< Distinct submission texts.
  std::vector<size_t> source_row;    ///< Row of each source.
  /// Closed loop: the pool in replay order (cycled by the clients).
  /// Open loop: the deadline-spike schedule, sorted by due time.
  std::vector<Input> inputs;
  int64_t schedule_ns = 0;  ///< Open loop: idle + spike duration.
};

/// Builds the inputs of `spec` for `seed`. The open-loop schedule lasts
/// `seconds` * `scale` (the traced run replays a shorter schedule of the
/// same shape). Fails only when a row's sample space cannot fill its pool.
Result<Plan> BuildPlan(const WorkloadSpec& spec, uint64_t seed,
                       double seconds, double scale = 1.0);

/// Closed-loop submission `n` (the clients cycle the pool).
Input NthClosedInput(const WorkloadSpec& spec, const Plan& plan, uint64_t n);

/// The per-test guards the grading service runs `assignment`'s functional
/// suite under (GradingPipeline with default PipelineOptions).
interp::ExecOptions ServiceExecOptions(const kb::Assignment& assignment);

}  // namespace jfeed::ledger

#endif  // JFEED_LEDGER_WORKLOAD_H_
