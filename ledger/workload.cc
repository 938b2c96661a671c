#include "ledger/workload.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "javalang/parser.h"
#include "sched/result_cache.h"
#include "service/pipeline.h"
#include "testing/functional.h"
#include "testing/resubmission.h"
#include "testing/traffic.h"

namespace jfeed::ledger {
namespace {

// Heavy-row quotas follow the share of each ESC row's sample space that
// exhausts the 300k-step budget (measured over 200 samples per row: P1-V1
// 16%, P2-V1 47%, P2-V2 0%, P3-V1 4%, P3-V2 30%, P4-V1 1%, P4-V2 60%).
// Fixing the count per seed keeps the heavy share, and with it throughput,
// the same on every seed (61 of the 280 pool samples; unstratified
// sampling gave 312 of 1302).
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"oracle-heavy",
       /*open_loop=*/false,
       {{"esc-LAB-3-P1-V1", 40, 6},
        {"esc-LAB-3-P2-V1", 40, 18},
        {"esc-LAB-3-P2-V2", 40, 0},
        {"esc-LAB-3-P3-V1", 40, 1},
        {"esc-LAB-3-P3-V2", 40, 12},
        {"esc-LAB-3-P4-V1", 40, 0},
        {"esc-LAB-3-P4-V2", 40, 24}},
       /*tail_pct=*/95.0,
       /*slo_ms=*/500.0,
       /*trace_inputs=*/112,
       /*offered_per_s=*/0},
      {"structure-heavy",
       false,
       {{"assignment1", 64, 0},
        {"mitx-derivatives", 64, 0},
        {"mitx-polynomials", 64, 0},
        {"esc-LAB-3-P2-V2", 64, 0},
        {"rit-medals-by-ath", 64, 0}},
       99.0,
       50.0,
       320,
       0},
      {"deadline-spike",
       true,
       {{"assignment1", 0, 0},
        {"mitx-polynomials", 0, 0},
        {"rit-all-g-medals", 0, 0}},
       99.0,
       50.0,
       0,
       150},
  };
  return specs;
}

/// Steps each functional test may take in the classification probe. The
/// ESC programs that terminate do so in well under 10k steps, so a test
/// still running at 10k is (almost always) one that exhausts the real
/// 300k budget; the probe costs 1/30 of the real grade.
constexpr int64_t kProbeSteps = 10'000;

uint64_t RowSeed(uint64_t seed, size_t row) {
  return (seed + 1) * 0x9e3779b97f4a7c15ull ^ (row + 1) * 0xc2b2ae3d27d4eb4full;
}

/// Tests of `source` that exhaust a budget within the probe's step limit.
int ProbeExhausted(const kb::Assignment& assignment, const std::string& source,
                   const std::vector<std::string>& expected) {
  auto unit = java::Parse(source);
  if (!unit.ok()) return 0;
  interp::ExecOptions exec = ServiceExecOptions(assignment);
  exec.max_steps = kProbeSteps;
  testing::FunctionalVerdict verdict =
      testing::RunSuiteGuarded(*unit, assignment.suite, expected, exec);
  return verdict.timeouts + verdict.resource_exhausted;
}

/// Interleaves per-row lists one element per row in turn, so every prefix
/// of the result mixes the rows evenly.
std::vector<size_t> RoundRobin(const std::vector<std::vector<size_t>>& rows) {
  std::vector<size_t> out;
  for (size_t depth = 0;; ++depth) {
    bool any = false;
    for (const auto& row : rows) {
      if (depth < row.size()) {
        out.push_back(row[depth]);
        any = true;
      }
    }
    if (!any) return out;
  }
}

template <typename T>
void Shuffle(std::vector<T>* items, testing::XorShiftRng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

/// One row's share of a closed-loop pool, in seeded order.
struct RowSamples {
  Status status;
  std::vector<std::string> heavy;
  std::vector<std::string> light;
};

RowSamples SampleRow(const Row& row, uint64_t row_seed, bool probe) {
  RowSamples out;
  const kb::Assignment& assignment = kb::KnowledgeBase::Get().assignment(row.assignment);
  const uint64_t space = assignment.generator.SpaceSize();
  testing::XorShiftRng rng(row_seed);
  std::vector<std::string> expected;
  if (probe) {
    auto reference = java::Parse(assignment.Reference());
    auto outputs = reference.ok()
                       ? testing::ComputeExpectedOutputs(*reference, assignment.suite)
                       : Result<std::vector<std::string>>(reference.status());
    if (!outputs.ok()) {
      out.status = outputs.status();
      return out;
    }
    expected = std::move(*outputs);
  }
  // The reference is graded during set-up; the pool never repeats it.
  std::set<uint64_t> seen = {sched::TokenFingerprint(assignment.Reference())};
  // Ten heavy candidates per heavy slot: the slots take evenly spaced
  // quantiles of the candidates' exhausted-test counts, so the pool's heavy
  // cost follows the row's distribution rather than the seed's luck.
  const size_t want_heavy = static_cast<size_t>(row.heavy) * 10;
  const size_t want_light = static_cast<size_t>(row.pool - row.heavy);
  std::vector<std::pair<int, std::string>> heavy;
  for (int attempt = 0;
       attempt < 200 * row.pool &&
       (heavy.size() < want_heavy || out.light.size() < want_light);
       ++attempt) {
    std::string source = assignment.generator.Generate(1 + rng.Below(space - 1));
    if (!seen.insert(sched::TokenFingerprint(source)).second) continue;
    int exhausted = probe ? ProbeExhausted(assignment, source, expected) : 0;
    if (exhausted > 0) {
      if (heavy.size() < want_heavy) heavy.emplace_back(exhausted, source);
    } else if (out.light.size() < want_light) {
      out.light.push_back(std::move(source));
    }
  }
  if (heavy.size() < static_cast<size_t>(row.heavy) ||
      out.light.size() < want_light) {
    out.status = Status::Internal(std::string("sample space of ") +
                                  row.assignment + " cannot fill its pool");
    return out;
  }
  std::sort(heavy.begin(), heavy.end());
  for (int k = 0; k < row.heavy; ++k) {
    size_t pick = (2 * static_cast<size_t>(k) + 1) * heavy.size() /
                  (2 * static_cast<size_t>(row.heavy));
    out.heavy.push_back(heavy[pick].second);
  }
  Shuffle(&out.heavy, &rng);
  Shuffle(&out.light, &rng);
  return out;
}

Result<Plan> BuildClosedPlan(const WorkloadSpec& spec, uint64_t seed) {
  bool probe = false;
  for (const Row& row : spec.rows) probe = probe || row.heavy > 0;

  // Rows are independent (each has its own seeded generator), so they are
  // sampled concurrently, on at most one thread per CPU.
  std::vector<RowSamples> rows(spec.rows.size());
  std::atomic<size_t> next{0};
  auto sampler = [&] {
    for (size_t r = next.fetch_add(1); r < rows.size(); r = next.fetch_add(1)) {
      rows[r] = SampleRow(spec.rows[r], RowSeed(seed, r), probe);
    }
  };
  const size_t threads = std::min<size_t>(
      rows.size(), std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> samplers;
  for (size_t t = 0; t < threads; ++t) samplers.emplace_back(sampler);
  for (auto& t : samplers) t.join();

  Plan plan;
  std::vector<std::vector<size_t>> heavy_rows(spec.rows.size());
  std::vector<std::vector<size_t>> light_rows(spec.rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (!rows[r].status.ok()) return rows[r].status;
    for (auto* list : {&rows[r].heavy, &rows[r].light}) {
      auto& ids = list == &rows[r].heavy ? heavy_rows[r] : light_rows[r];
      for (auto& source : *list) {
        plan.sources.push_back(std::move(source));
        plan.source_row.push_back(r);
        ids.push_back(plan.sources.size() - 1);
      }
    }
  }

  // Spread the heavy sources evenly through the replay order, so any prefix
  // a time-bounded run completes has the pool's heavy share.
  std::vector<size_t> heavy = RoundRobin(heavy_rows);
  std::vector<size_t> light = RoundRobin(light_rows);
  const size_t total = heavy.size() + light.size();
  size_t h = 0, l = 0;
  for (size_t pos = 0; pos < total; ++pos) {
    bool take_heavy =
        h < heavy.size() &&
        (l == light.size() ||
         (2 * h + 1) * total <= (2 * pos + 1) * heavy.size());
    Input input;
    input.source = take_heavy ? heavy[h++] : light[l++];
    input.row = plan.source_row[input.source];
    input.plan_class = take_heavy ? kExhausted : kGraded;
    plan.inputs.push_back(std::move(input));
  }
  return plan;
}

Result<Plan> BuildOpenPlan(const WorkloadSpec& spec, uint64_t seed,
                           double seconds, double scale) {
  const auto& kb = kb::KnowledgeBase::Get();
  std::vector<testing::TrafficAssignment> tenants;
  std::map<std::string, size_t> row_of;
  for (size_t r = 0; r < spec.rows.size(); ++r) {
    const kb::Assignment& assignment = kb.assignment(spec.rows[r].assignment);
    tenants.push_back({assignment.id, &assignment.generator});
    row_of[assignment.id] = r;
  }
  // 10% quiet lead-in, 80% spike, and 10% of the run left for the last
  // answers to arrive.
  const double total_ms = seconds * 1000.0 * scale;
  testing::TrafficOptions options;
  options.seed = seed;
  options.idle_ms = static_cast<int64_t>(total_ms * 0.1);
  options.spike_ms = static_cast<int64_t>(total_ms * 0.8);
  options.submissions = static_cast<size_t>(
      spec.offered_per_s * static_cast<double>(options.idle_ms + options.spike_ms) /
      1000.0);
  std::vector<testing::TrafficEvent> events =
      testing::BuildDeadlineSpikeSchedule(tenants, options);

  Plan plan;
  plan.schedule_ns = (options.idle_ms + options.spike_ms) * 1'000'000;
  // Set-up grades each tenant's reference, so a chain that repairs every
  // site is answered from the result cache.
  std::set<std::pair<size_t, uint64_t>> graded;
  for (size_t r = 0; r < spec.rows.size(); ++r) {
    graded.insert({r, sched::TokenFingerprint(
                          kb.assignment(spec.rows[r].assignment).Reference())});
  }
  std::map<std::pair<size_t, std::string>, size_t> source_of;
  for (auto& event : events) {
    Input input;
    input.row = row_of.at(event.assignment);
    uint64_t fingerprint = sched::TokenFingerprint(event.source);
    input.plan_class =
        graded.insert({input.row, fingerprint}).second ? kGraded : kHit;
    auto key = std::make_pair(input.row, event.source);
    auto found = source_of.find(key);
    if (found == source_of.end()) {
      plan.sources.push_back(std::move(event.source));
      plan.source_row.push_back(input.row);
      found = source_of.emplace(std::move(key), plan.sources.size() - 1).first;
    }
    input.source = found->second;
    input.id = std::move(event.id);
    input.due_ns = event.offset_ms * 1'000'000;
    plan.inputs.push_back(std::move(input));
  }
  return plan;
}

}  // namespace

const char* CostClassName(int cost_class) {
  switch (cost_class) {
    case kHit: return "hit";
    case kGraded: return "graded";
    case kExhausted: return "exhausted";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& spec : Specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Result<Plan> BuildPlan(const WorkloadSpec& spec, uint64_t seed,
                       double seconds, double scale) {
  return spec.open_loop ? BuildOpenPlan(spec, seed, seconds, scale)
                        : BuildClosedPlan(spec, seed);
}

Input NthClosedInput(const WorkloadSpec& spec, const Plan& plan, uint64_t n) {
  Input input = plan.inputs[n % plan.inputs.size()];
  input.id = std::string(spec.rows[input.row].assignment) + "-p" +
             std::to_string(input.source) + "-n" + std::to_string(n);
  return input;
}

interp::ExecOptions ServiceExecOptions(const kb::Assignment& assignment) {
  const service::PipelineOptions defaults;
  interp::ExecOptions exec = assignment.suite.exec_options;
  exec.max_heap_bytes = defaults.exec.max_heap_bytes;
  exec.max_output_bytes = defaults.exec.max_output_bytes;
  exec.deadline_ms = defaults.exec.deadline_ms;
  return exec;
}

}  // namespace jfeed::ledger
