// jfeed_ledger: the measuring half of the grading cost benchmark. run.py
// builds it, runs one workload through it and turns the files it writes
// into metrics (README.md in this directory has the whole design).
//
//   jfeed_ledger run --workload W --seed N --seconds S --trace 0|1
//                    --out DIR --jfeedd PATH
//   jfeed_ledger plan --workload W --seed N --seconds S
//   jfeed_ledger setup-child --workload W      (spawned by `run`)
//   jfeed_ledger warm                          (spawned by `run`)
//   jfeed_ledger selftest
//
// `run --trace 0` measures end to end: set-up samples, the workload under
// load, then a plain GradingPipeline replay of every source it sent, whose
// outcomes are the reference the output check compares against.
// `run --trace 1` replays the same seed's inputs once per layer boundary —
// the layers called one by one, GradingPipeline::Grade, the scheduler, and
// jfeedd over HTTP — recording a span around each call, and writes the
// spans as a Chrome trace.

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef JFEED_LEDGER_ALLOC_PROBE
#include "bench/alloc_probe.h"
#endif
#include "core/submission_matcher.h"
#include "fleet/http_client.h"
#include "javalang/ast.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "ledger/outcome_key.h"
#include "ledger/workload.h"
#include "pdg/epdg.h"
#include "pdg/match_index.h"
#include "sched/sharded_scheduler.h"
#include "service/pipeline.h"
#include "testing/functional.h"

extern char** environ;

namespace jfeed::ledger {
namespace {

using Clock = std::chrono::steady_clock;

/// Grading worker threads everywhere: three of the four cores, leaving one
/// for the load generator.
constexpr int kJobs = 3;
/// Closed-loop clients (each Submit -> Wait) and open-loop senders.
constexpr int kClosedClients = 3;
constexpr int kMaxSenders = 4;
/// Set-up samples per run; setup_s is their median.
constexpr int kSetupSamples = 21;
/// The traced run replays the open-loop schedule at this share of the run
/// length (twice: in-process and over HTTP).
constexpr double kTracedScheduleScale = 0.35;
constexpr int64_t kHttpDeadlineMs = 30'000;

/// Heap allocations so far. Only jfeed_ledger_traced links the counting
/// allocator; jfeed_ledger, which runs the measured (--trace 0) loops,
/// keeps the system allocator so its grading pays no shared counter.
#ifdef JFEED_LEDGER_ALLOC_PROBE
constexpr bool kCountsAllocations = true;
int64_t Allocations() { return bench::AllocCount(); }
#else
constexpr bool kCountsAllocations = false;
int64_t Allocations() { return 0; }
#endif

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t_ns) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t_ns)));
}

/// The `warm` child: one SCHED_IDLE spinning thread per CPU until stdin
/// closes. SCHED_IDLE threads run only when a CPU would otherwise idle, so
/// they take no time from the measured processes; they keep a virtual
/// machine's CPUs from halting, whose host-side wake-up cost (not the
/// program's) otherwise moves sub-millisecond latencies by 20% from run to
/// run. Its CPU time is its own process's, outside every cpu metric.
int Warm() {
  const long cpus = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<std::thread> spinners;
  for (long c = 0; c < cpus; ++c) {
    spinners.emplace_back([] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      // The volatile store is observable behaviour, so the endless loop is
      // well defined.
      volatile unsigned spins = 0;
      for (;;) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
        spins = spins + 1;
      }
    });
  }
  char c;
  while (read(0, &c, 1) > 0) {
  }
  std::_Exit(0);  // The spinners never return; end without joining them.
}

int Senders() {
  long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(cores, 1, kMaxSenders));
}

std::vector<const kb::Assignment*> Tenants(const WorkloadSpec& spec) {
  std::vector<const kb::Assignment*> tenants;
  for (const Row& row : spec.rows) {
    tenants.push_back(&kb::KnowledgeBase::Get().assignment(row.assignment));
  }
  return tenants;
}

std::string TenantList(const WorkloadSpec& spec) {
  std::string list;
  for (const Row& row : spec.rows) {
    if (!list.empty()) list += ",";
    list += row.assignment;
  }
  return list;
}

/// Canonical key hash of one outcome rendering; false when malformed.
bool KeyHash(std::string_view json, uint64_t* hash) {
  std::string key;
  if (!OutcomeKeyText(json, &key)) return false;
  *hash = Fnv1a64(key);
  return true;
}

// ---------------------------------------------------------------------------
// Spans, recorded by the benchmark around its own calls into each layer.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  int tid;
  int64_t start_ns;
  int64_t end_ns;
  std::string args;  ///< JSON members without braces.
};

class SpanLog {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1); }
  void Add(SpanRecord record) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(record));
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  /// Chrome trace-event JSON; timestamps relative to `epoch_ns`.
  std::string ChromeJson(int64_t epoch_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    char buf[160];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu",
                    s.name, s.tid, (s.start_ns - epoch_ns) / 1000.0,
                    (s.end_ns - s.start_ns) / 1000.0,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
      out += buf;
      if (!s.args.empty()) out += "," + s.args;
      out += i + 1 < spans_.size() ? "}},\n" : "}}\n";
    }
    out += "]}\n";
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<uint64_t> next_id_{1};
};

/// One open span; Close() records it.
class Span {
 public:
  Span(SpanLog* log, const char* name, uint64_t parent, int tid)
      : log_(log), record_{name, log->NextId(), parent, tid, NowNs(), 0, ""} {}
  uint64_t id() const { return record_.id; }
  void Arg(const char* key, const std::string& json_value) {
    if (!record_.args.empty()) record_.args += ",";
    record_.args += std::string("\"") + key + "\":" + json_value;
  }
  void Arg(const char* key, int64_t value) { Arg(key, std::to_string(value)); }
  void Args(const std::string& members) {
    if (!record_.args.empty()) record_.args += ",";
    record_.args += members;
  }
  /// Ends the timed interval; arguments may still be added before Close().
  void Stop() { record_.end_ns = NowNs(); }
  /// Records the span, stopping it first unless Stop() already did.
  void Close() {
    if (record_.end_ns == 0) Stop();
    log_->Add(std::move(record_));
  }

 private:
  SpanLog* log_;
  SpanRecord record_;
};

// ---------------------------------------------------------------------------
// Child processes (set-up probes and jfeedd).
// ---------------------------------------------------------------------------

/// A spawned child with pipes on its stdin and stdout. The destructor
/// closes stdin, asks the child to stop and waits for it, so no process
/// outlives the run on any path.
class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() { Stop(); }

  Status Spawn(const std::vector<std::string>& argv) {
    int in_pipe[2], out_pipe[2];
    if (pipe2(in_pipe, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
    if (pipe2(out_pipe, O_CLOEXEC) != 0) {
      close(in_pipe[0]);
      close(in_pipe[1]);
      return Status::Internal("pipe failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
    std::vector<char*> args;
    for (const auto& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
    args.push_back(nullptr);
    int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    in_fd_ = in_pipe[1];
    out_fd_ = out_pipe[0];
    if (rc != 0) {
      pid_ = -1;
      return Status::Internal("cannot spawn " + argv[0] + ": " + std::strerror(rc));
    }
    return Status::OK();
  }

  /// Reads one line of the child's stdout, waiting at most `timeout_ms`.
  Status ReadLine(std::string* line, int64_t timeout_ms) {
    line->clear();
    const int64_t deadline = NowNs() + timeout_ms * 1'000'000;
    for (;;) {
      int64_t left_ms = (deadline - NowNs()) / 1'000'000;
      if (left_ms <= 0) return Status::Timeout("child did not answer");
      pollfd fd{out_fd_, POLLIN, 0};
      int ready = poll(&fd, 1, static_cast<int>(left_ms));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) continue;
      char c;
      ssize_t n = read(out_fd_, &c, 1);
      if (n <= 0) return Status::Internal("child closed its output");
      if (c == '\n') return Status::OK();
      line->push_back(c);
    }
  }

  pid_t pid() const { return pid_; }

  /// Closes the child's stdin, sends SIGTERM unless `eof_only`, and waits
  /// (SIGKILL after five seconds).
  void Stop(bool eof_only = false) {
    if (in_fd_ >= 0) close(in_fd_);
    in_fd_ = -1;
    if (pid_ > 0) {
      if (!eof_only) kill(pid_, SIGTERM);
      int status = 0;
      const int64_t deadline = NowNs() + 5'000'000'000;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowNs() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
};

std::string SelfPath() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

/// One NDJSON /grade line.
std::string GradeLine(const std::string& id, const std::string& assignment,
                      const std::string& source) {
  return "{\"id\":" + JsonQuote(id) + ",\"assignment\":" +
         JsonQuote(assignment) + ",\"source\":" + JsonQuote(source) + "}\n";
}

/// The first line of a /grade reply classified: 0 graded (hash set),
/// 1 shed, 2 error.
int ClassifyReply(const Result<fleet::HttpReply>& reply, uint64_t* hash) {
  if (!reply.ok()) return 2;
  if (reply->status == 429) return 1;
  if (reply->status != 200) return 2;
  std::string_view line = reply->body;
  line = line.substr(0, line.find('\n'));
  if (line.find("\"code\":429") != std::string_view::npos) return 1;
  return KeyHash(line, hash) ? 0 : 2;
}

/// A running jfeedd with one reference graded per tenant.
struct Daemon {
  Child child;
  uint16_t port = 0;
};

/// Starts jfeedd serving `spec`'s tenants and grades each tenant's
/// reference once (the ReferenceOracle fill). Returns when the daemon has
/// answered those grades: that instant ends set-up.
Status StartDaemon(const std::string& jfeedd, const WorkloadSpec& spec,
                   Daemon* daemon) {
  // --worker-id makes jfeedd exit with this process (parent-death signal)
  // even when this process is killed before it can stop the daemon.
  std::vector<std::string> argv = {jfeedd, TenantList(spec), "--jobs",
                                   std::to_string(kJobs), "--worker-id", "0"};
  if (spec.open_loop) argv.push_back("--method-cache");
  if (Status s = daemon->child.Spawn(argv); !s.ok()) return s;
  std::string line;
  if (Status s = daemon->child.ReadLine(&line, 60'000); !s.ok()) return s;
  size_t at = line.find("http://127.0.0.1:");
  if (at == std::string::npos) return Status::Internal("jfeedd said: " + line);
  daemon->port = static_cast<uint16_t>(std::atoi(line.c_str() + at + 17));
  std::string body;
  for (const Row& row : spec.rows) {
    body += GradeLine(std::string("ref-") + row.assignment, row.assignment,
                      kb::KnowledgeBase::Get().assignment(row.assignment).Reference());
  }
  auto reply = fleet::Fetch(daemon->port, "POST", "/grade", body, kHttpDeadlineMs);
  if (!reply.ok()) return reply.status();
  if (reply->status != 200) return Status::Internal("reference grade failed");
  return Status::OK();
}

/// VmHWM of `pid` ("self" for this process), in kB.
int64_t PeakRssKb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

/// User + system CPU of process `pid`, in ms.
double ProcessCpuMs(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close_paren + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after "(comm)" start at 3 (state); utime and stime are 14, 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index >= 14) ticks += std::atof(field.c_str());
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double SelfCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& t) { return t.tv_sec * 1e3 + t.tv_usec / 1e3; };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// Value of `series` (metric name with labels) in a Prometheus exposition.
double ScrapeMetric(const std::string& exposition, const std::string& series) {
  size_t at = exposition.find("\n" + series + " ");
  if (at == std::string::npos) return 0.0;
  return std::atof(exposition.c_str() + at + series.size() + 2);
}

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

struct SetupSamples {
  std::vector<double> setup_s;
  std::vector<double> kb_ms;
  std::vector<double> oracle_ms;
};

/// The in-process set-up: KnowledgeBase::Get(), scheduler construction and
/// one reference grade per tenant. Run in a fresh process per sample.
int SetupChild(const WorkloadSpec& spec) {
  int64_t t0 = NowNs();
  kb::KnowledgeBase::Get();
  int64_t t1 = NowNs();
  sched::ShardedSchedulerOptions options;
  options.jobs = kJobs;
  sched::ShardedScheduler scheduler(Tenants(spec), service::PipelineOptions(),
                                    options);
  int64_t t2 = NowNs();
  std::vector<uint64_t> tickets;
  for (const auto* tenant : Tenants(spec)) {
    uint64_t ticket = 0;
    if (!scheduler.Submit(tenant->id, tenant->Reference(), "ref", &ticket).ok()) {
      return 1;
    }
    tickets.push_back(ticket);
  }
  for (uint64_t ticket : tickets) scheduler.Wait(ticket);
  int64_t t3 = NowNs();
  std::printf("ready %.6f %.6f\n", (t1 - t0) / 1e6, (t3 - t2) / 1e6);
  std::fflush(stdout);
  char c;
  while (read(0, &c, 1) > 0) {
  }
  return 0;
}

/// Spawns `kSetupSamples` set-up children and times each from spawn to its
/// ready line.
Status SampleInProcessSetup(const std::string& self, const WorkloadSpec& spec,
                            SetupSamples* samples) {
  for (int i = 0; i < kSetupSamples; ++i) {
    Child child;
    int64_t t0 = NowNs();
    if (Status s = child.Spawn({self, "setup-child", "--workload", spec.name});
        !s.ok()) {
      return s;
    }
    std::string line;
    if (Status s = child.ReadLine(&line, 60'000); !s.ok()) return s;
    int64_t t1 = NowNs();
    double kb_ms = 0.0, oracle_ms = 0.0;
    if (std::sscanf(line.c_str(), "ready %lf %lf", &kb_ms, &oracle_ms) != 2) {
      return Status::Internal("set-up child said: " + line);
    }
    child.Stop(/*eof_only=*/true);
    samples->setup_s.push_back((t1 - t0) / 1e9);
    samples->kb_ms.push_back(kb_ms);
    samples->oracle_ms.push_back(oracle_ms);
  }
  return Status::OK();
}

/// Starts `kSetupSamples` daemons, timing each from spawn to its answered
/// reference grades; all but the last are stopped, the last serves the run.
Status SampleDaemonSetup(const std::string& jfeedd, const WorkloadSpec& spec,
                         SetupSamples* samples, Daemon* serving) {
  for (int i = 0; i < kSetupSamples; ++i) {
    Daemon probe;
    Daemon* daemon = i + 1 == kSetupSamples ? serving : &probe;
    int64_t t0 = NowNs();
    if (Status s = StartDaemon(jfeedd, spec, daemon); !s.ok()) return s;
    samples->setup_s.push_back((NowNs() - t0) / 1e9);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Measured run (--trace 0).
// ---------------------------------------------------------------------------

enum RecordStatus { kOk = 0, kShed = 1, kError = 2 };

/// One submission of a measured run. Kept small and free of heap data: in
/// the closed loop the grading process's peak RSS includes these.
struct Record {
  uint64_t n = 0;       ///< Closed loop: sequence number; open: schedule index.
  int64_t due_ns = 0;   ///< When the submission was due (closed loop: when
                        ///< the client's previous answer arrived).
  /// When its sender was free to send it: the later of due_ns and the
  /// sender's previous answer. sent_ns - ready_ns is the generator's own
  /// lateness; waiting for a free connection is the system's.
  int64_t ready_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  int status = kError;
  uint64_t key = 0;
};

struct RunResult {
  std::vector<Record> records;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double cpu_ms = 0.0;
  int64_t peak_rss_kb = 0;
  double hits = -1.0;  ///< Result-cache hits the daemon counted (open loop).
  int generators = 0;
};

/// Closed loop: kClosedClients threads, each Submit -> Wait, cycling the
/// pool until `seconds` have passed.
RunResult RunClosed(const WorkloadSpec& spec, const Plan& plan, double seconds) {
  sched::ShardedSchedulerOptions options;
  options.jobs = kJobs;
  sched::ShardedScheduler scheduler(Tenants(spec), service::PipelineOptions(),
                                    options);
  for (const auto* tenant : Tenants(spec)) {
    uint64_t ticket = 0;
    if (scheduler.Submit(tenant->id, tenant->Reference(), "ref", &ticket).ok()) {
      scheduler.Wait(ticket);
    }
  }

  RunResult result;
  result.generators = kClosedClients;
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Record>> per_client(kClosedClients);
  const double cpu0 = SelfCpuMs();
  result.start_ns = NowNs();
  const int64_t stop_ns = result.start_ns + static_cast<int64_t>(seconds * 1e9);
  auto client = [&](int c) {
    int64_t due = result.start_ns;
    while (NowNs() < stop_ns) {
      Record record;
      record.n = next.fetch_add(1);
      const Input input = NthClosedInput(spec, plan, record.n);
      record.due_ns = due;
      record.ready_ns = due;
      record.sent_ns = NowNs();
      uint64_t ticket = 0;
      Status admitted = scheduler.Submit(spec.rows[input.row].assignment,
                                         plan.sources[input.source], input.id,
                                         &ticket);
      service::GradingOutcome outcome;
      if (admitted.ok()) outcome = scheduler.Wait(ticket);
      record.done_ns = NowNs();
      due = record.done_ns;
      if (!admitted.ok()) {
        record.status =
            admitted.code() == StatusCode::kUnavailable ? kShed : kError;
      } else {
        record.status =
            KeyHash(service::OutcomeToJson(outcome), &record.key) ? kOk : kError;
      }
      per_client[c].push_back(std::move(record));
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClosedClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();
  result.cpu_ms = SelfCpuMs() - cpu0;
  result.peak_rss_kb = PeakRssKb("self");
  for (auto& records : per_client) {
    for (auto& r : records) {
      result.end_ns = std::max(result.end_ns, r.done_ns);
      result.records.push_back(r);
    }
  }
  return result;
}

/// Open loop: the schedule is sent to `daemon` by up to nproc sender
/// threads, each request timed from when it was due.
RunResult RunOpen(const WorkloadSpec& spec, const Plan& plan, Daemon* daemon) {
  RunResult result;
  result.generators = Senders();
  std::atomic<size_t> next{0};
  std::vector<std::vector<Record>> per_sender(result.generators);
  const double cpu0 = ProcessCpuMs(daemon->child.pid());
  result.start_ns = NowNs() + 20'000'000;  // Let every sender get ready.
  auto sender = [&](int s) {
    int64_t free = result.start_ns;
    for (size_t i = next.fetch_add(1); i < plan.inputs.size();
         i = next.fetch_add(1)) {
      const Input& input = plan.inputs[i];
      Record record;
      record.n = i;
      record.due_ns = result.start_ns + input.due_ns;
      record.ready_ns = std::max(record.due_ns, free);
      SleepUntilNs(record.due_ns);
      record.sent_ns = NowNs();
      auto reply = fleet::Fetch(
          daemon->port, "POST", "/grade",
          GradeLine(input.id, spec.rows[input.row].assignment,
                    plan.sources[input.source]),
          kHttpDeadlineMs);
      record.done_ns = NowNs();
      free = record.done_ns;
      record.status = ClassifyReply(reply, &record.key);
      per_sender[s].push_back(std::move(record));
    }
  };
  std::vector<std::thread> senders;
  for (int s = 0; s < result.generators; ++s) senders.emplace_back(sender, s);
  for (auto& t : senders) t.join();
  for (auto& records : per_sender) {
    for (auto& r : records) {
      result.end_ns = std::max(result.end_ns, r.done_ns);
      result.records.push_back(std::move(r));
    }
  }
  result.cpu_ms = ProcessCpuMs(daemon->child.pid()) - cpu0;
  result.peak_rss_kb = PeakRssKb(std::to_string(daemon->child.pid()));
  auto metrics = fleet::Fetch(daemon->port, "GET", "/metrics", "", kHttpDeadlineMs);
  if (metrics.ok()) {
    result.hits = ScrapeMetric(metrics->body,
                               "jfeed_cache_requests_total{disposition=\"hit\"}");
  }
  return result;
}

/// The reference outcome of one distinct source.
struct Reference {
  uint64_t key = 0;
  bool ok = false;
  int exhausted_tests = 0;
};

/// One default-options GradingPipeline per tenant of `spec`.
std::vector<std::unique_ptr<service::GradingPipeline>> Pipelines(
    const WorkloadSpec& spec,
    const std::vector<std::shared_ptr<service::ReferenceOracle>>& oracles) {
  std::vector<std::unique_ptr<service::GradingPipeline>> pipelines;
  for (size_t r = 0; r < spec.rows.size(); ++r) {
    pipelines.push_back(std::make_unique<service::GradingPipeline>(
        kb::KnowledgeBase::Get().assignment(spec.rows[r].assignment),
        service::PipelineOptions(), oracles[r]));
  }
  return pipelines;
}

/// Grades every source in `used` with a plain GradingPipeline (no
/// scheduler, no caches), one pipeline per tenant per replay thread.
std::vector<Reference> ReplayReference(const WorkloadSpec& spec,
                                       const Plan& plan,
                                       const std::vector<bool>& used) {
  std::vector<Reference> refs(plan.sources.size());
  std::vector<std::shared_ptr<service::ReferenceOracle>> oracles;
  for (size_t r = 0; r < spec.rows.size(); ++r) {
    oracles.push_back(std::make_shared<service::ReferenceOracle>());
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    auto pipelines = Pipelines(spec, oracles);
    for (size_t s = next.fetch_add(1); s < plan.sources.size(); s = next.fetch_add(1)) {
      if (!used[s]) continue;
      service::GradingOutcome outcome =
          pipelines[plan.source_row[s]]->Grade(plan.sources[s]);
      Reference& ref = refs[s];
      ref.ok = KeyHash(service::OutcomeToJson(outcome), &ref.key);
      ref.exhausted_tests =
          outcome.functional.timeouts + outcome.functional.resource_exhausted;
    }
  };
  std::vector<std::thread> workers;
  for (int w = 0; w < kJobs; ++w) workers.emplace_back(worker);
  for (auto& t : workers) t.join();
  return refs;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1).
// ---------------------------------------------------------------------------

constexpr int kLayerTid = 1;
constexpr int kSchedTid = 10;
constexpr int kHttpTid = 20;

/// The outcome's key as a JSON string ("-" when it has none), the traced
/// run's output check: every scheduler and HTTP answer must carry the key
/// Grade gave the same source.
std::string KeyArg(const service::GradingOutcome& outcome) {
  uint64_t key = 0;
  return JsonQuote(KeyHash(service::OutcomeToJson(outcome), &key) ? Hex64(key) : "-");
}

std::string InputArgs(const Input& input, size_t index) {
  return "\"input\":" + std::to_string(index) +
         ",\"source\":" + std::to_string(input.source) +
         ",\"row\":" + std::to_string(input.row) +
         ",\"plan_class\":" + JsonQuote(CostClassName(input.plan_class));
}

/// Phase 1: every layer called one by one, in the order GradingPipeline
/// calls them, with a span around each call.
void TraceLayers(const WorkloadSpec& spec, const Plan& plan,
                 const std::vector<Input>& inputs, SpanLog* log,
                 const std::vector<std::shared_ptr<service::ReferenceOracle>>& oracles) {
  const service::PipelineOptions defaults;
  pdg::EpdgMemory memory;
  Arena scratch;
  Span phase(log, "phase.layers", 0, kLayerTid);
  for (size_t k = 0; k < inputs.size(); ++k) {
    const Input& input = inputs[k];
    const kb::Assignment& assignment =
        kb::KnowledgeBase::Get().assignment(spec.rows[input.row].assignment);
    memory.Reset();
    scratch.Reset();
    java::AstArenaScope ast_scope(&memory.arena);
    Span submission(log, "ledger.submission", phase.id(), kLayerTid);
    submission.Args(InputArgs(input, k));
    Span parse(log, "javalang.parse", submission.id(), kLayerTid);
    auto unit = java::Parse(plan.sources[input.source]);
    parse.Close();
    if (!unit.ok()) {
      submission.Close();
      continue;
    }
    Span epdg(log, "pdg.epdg", submission.id(), kLayerTid);
    auto graphs = pdg::BuildAllEpdgs(*unit, &memory);
    epdg.Close();
    if (!graphs.ok()) {
      submission.Close();
      continue;
    }
    Span index(log, "pdg.match_index", submission.id(), kLayerTid);
    for (const auto& graph : *graphs) pdg::MatchIndex built(graph, &scratch);
    index.Close();
    std::vector<core::MethodGraphRef> refs;
    for (const auto& graph : *graphs) refs.push_back({&graph, nullptr});
    core::SubmissionMatchOptions match_options = defaults.match;
    match_options.epdg_memory = &memory;
    match_options.match.scratch_arena = &scratch;
    Span match(log, "core.match", submission.id(), kLayerTid);
    auto feedback = core::MatchSubmissionGraphs(assignment.spec, refs, match_options);
    if (feedback.ok()) {
      match.Arg("steps", feedback->match_stats.steps);
      match.Arg("regex_checks", feedback->match_stats.regex_checks);
    }
    match.Close();
    if (feedback.ok() && feedback->matched) {
      Span oracle(log, "service.oracle", submission.id(), kLayerTid);
      auto expected = oracles[input.row]->ExpectedOutputs(assignment);
      oracle.Close();
      if (expected.ok()) {
        Span functional(log, "testing.functional", submission.id(), kLayerTid);
        testing::FunctionalVerdict verdict = testing::RunSuiteGuarded(
            *unit, assignment.suite, *expected, ServiceExecOptions(assignment),
            defaults.budgets.functional_ms);
        functional.Arg("interp_steps", verdict.interp_steps);
        functional.Arg("exhausted_tests", verdict.timeouts + verdict.resource_exhausted);
        functional.Arg("max_steps", assignment.suite.exec_options.max_steps);
        functional.Close();
      }
    }
    submission.Close();
  }
  phase.Close();
}

/// Grades every input once, untimed, so process-wide memos (compiled
/// constraint regexes) are equally warm for the layer and Grade phases
/// whose difference is service.unattributed_us.
void WarmUp(const WorkloadSpec& spec, const Plan& plan,
            const std::vector<Input>& inputs,
            const std::vector<std::shared_ptr<service::ReferenceOracle>>& oracles) {
  auto pipelines = Pipelines(spec, oracles);
  for (const Input& input : inputs) {
    pipelines[input.row]->Grade(plan.sources[input.source]);
  }
}

/// Phase 2: GradingPipeline::Grade on the same inputs, counting heap
/// allocations through the bench-only allocator probe.
void TraceGrade(const WorkloadSpec& spec, const Plan& plan,
                const std::vector<Input>& inputs, SpanLog* log,
                const std::vector<std::shared_ptr<service::ReferenceOracle>>& oracles) {
  auto pipelines = Pipelines(spec, oracles);
  Span phase(log, "phase.grade", 0, kLayerTid);
  for (size_t k = 0; k < inputs.size(); ++k) {
    const Input& input = inputs[k];
    int64_t allocs = Allocations();
    Span grade(log, "service.grade", phase.id(), kLayerTid);
    service::GradingOutcome outcome =
        pipelines[input.row]->Grade(plan.sources[input.source]);
    grade.Stop();
    allocs = Allocations() - allocs;
    grade.Args(InputArgs(input, k));
    grade.Arg("allocs", allocs);
    grade.Arg("key", KeyArg(outcome));
    grade.Close();
  }
  phase.Close();
}

/// Phase 3 (closed loop): the scheduler, kClosedClients clients each
/// Submit -> Wait over the inputs once.
void TraceSchedClosed(const WorkloadSpec& spec, const Plan& plan,
                      const std::vector<Input>& inputs, SpanLog* log) {
  sched::ShardedSchedulerOptions options;
  options.jobs = kJobs;
  sched::ShardedScheduler scheduler(Tenants(spec), service::PipelineOptions(),
                                    options);
  for (const auto* tenant : Tenants(spec)) {
    uint64_t ticket = 0;
    if (scheduler.Submit(tenant->id, tenant->Reference(), "ref", &ticket).ok()) {
      scheduler.Wait(ticket);
    }
  }
  Span phase(log, "phase.sched", 0, kSchedTid);
  std::atomic<size_t> next{0};
  auto client = [&](int c) {
    int64_t due = NowNs();
    for (size_t k = next.fetch_add(1); k < inputs.size(); k = next.fetch_add(1)) {
      const Input& input = inputs[k];
      Span span(log, "sched.submit_wait", phase.id(), kSchedTid + 1 + c);
      span.Args(InputArgs(input, k));
      span.Arg("lag_ns", NowNs() - due);
      uint64_t ticket = 0;
      Status admitted = scheduler.Submit(spec.rows[input.row].assignment,
                                         plan.sources[input.source], input.id,
                                         &ticket);
      service::GradingOutcome outcome;
      if (admitted.ok()) outcome = scheduler.Wait(ticket);
      span.Stop();
      span.Arg("disposition", JsonQuote(admitted.ok() ? "miss"
                                        : admitted.code() == StatusCode::kUnavailable
                                            ? "shed"
                                            : "error"));
      span.Arg("methods_reused", 0);
      span.Arg("methods_regraded", 0);
      span.Arg("key", admitted.ok() ? KeyArg(outcome) : JsonQuote("-"));
      span.Close();
      due = NowNs();
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClosedClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();
  phase.Close();
}

/// Phase 3 (open loop): the schedule through the scheduler the way jfeedd
/// drives it (one GradeMixedBatch per request, result and method caches
/// on), sent by the same senders as over HTTP.
void TraceSchedOpen(const WorkloadSpec& spec, const Plan& plan, SpanLog* log) {
  sched::ShardedSchedulerOptions options;
  options.jobs = kJobs;
  options.use_method_cache = true;
  sched::ShardedScheduler scheduler(Tenants(spec), service::PipelineOptions(),
                                    options);
  std::vector<sched::MixedItem> references;
  for (const auto* tenant : Tenants(spec)) {
    references.push_back({tenant->id, "ref", tenant->Reference(), {}});
  }
  scheduler.GradeMixedBatch(references);
  Span phase(log, "phase.sched", 0, kSchedTid);
  const int64_t start = NowNs() + 20'000'000;
  std::atomic<size_t> next{0};
  auto sender = [&](int s) {
    int64_t free = start;
    for (size_t i = next.fetch_add(1); i < plan.inputs.size(); i = next.fetch_add(1)) {
      const Input& input = plan.inputs[i];
      const int64_t due = start + input.due_ns;
      SleepUntilNs(due);
      Span span(log, "sched.grade_mixed", phase.id(), kSchedTid + 1 + s);
      span.Args(InputArgs(input, i));
      span.Arg("lag_ns", NowNs() - std::max(due, free));
      auto outcomes = scheduler.GradeMixedBatch(
          {{spec.rows[input.row].assignment, input.id,
            plan.sources[input.source], {}}});
      span.Stop();
      const sched::MixedOutcome& result = outcomes.front();
      const char* disposition =
          result.status.ok() ? result.disposition
          : result.status.code() == StatusCode::kUnavailable ? "shed"
                                                             : "error";
      span.Arg("disposition", JsonQuote(disposition));
      span.Arg("methods_reused", result.outcome.methods_reused);
      span.Arg("methods_regraded", result.outcome.methods_regraded);
      span.Arg("key", result.status.ok() ? KeyArg(result.outcome) : JsonQuote("-"));
      span.Close();
      free = NowNs();
    }
  };
  std::vector<std::thread> senders;
  for (int s = 0; s < Senders(); ++s) senders.emplace_back(sender, s);
  for (auto& t : senders) t.join();
  phase.Close();
}

/// Phase 4: the same traffic to a fresh jfeedd over HTTP.
Status TraceHttp(const std::string& jfeedd, const WorkloadSpec& spec,
                 const Plan& plan, const std::vector<Input>& inputs,
                 SpanLog* log) {
  Daemon daemon;
  if (Status s = StartDaemon(jfeedd, spec, &daemon); !s.ok()) return s;
  Span phase(log, "phase.http", 0, kHttpTid);
  std::atomic<size_t> next{0};
  const int64_t start = NowNs() + 20'000'000;
  // `ready`: when the sender was free to send this submission (see
  // Record::ready_ns); the span's lag is the generator's own lateness.
  auto send = [&](int s, size_t i, const Input& input, int64_t ready) {
    Span span(log, "http.roundtrip", phase.id(), kHttpTid + 1 + s);
    span.Args(InputArgs(input, i));
    span.Arg("lag_ns", NowNs() - ready);
    auto reply = fleet::Fetch(
        daemon.port, "POST", "/grade",
        GradeLine(input.id, spec.rows[input.row].assignment,
                  plan.sources[input.source]),
        kHttpDeadlineMs);
    span.Stop();
    uint64_t key = 0;
    const int status = ClassifyReply(reply, &key);
    span.Arg("status", status);
    span.Arg("key", JsonQuote(status == kOk ? Hex64(key) : "-"));
    span.Close();
  };
  auto closed_client = [&](int c) {
    int64_t due = NowNs();
    for (size_t k = next.fetch_add(1); k < inputs.size(); k = next.fetch_add(1)) {
      send(c, k, inputs[k], due);
      due = NowNs();
    }
  };
  auto open_sender = [&](int s) {
    int64_t free = start;
    for (size_t i = next.fetch_add(1); i < plan.inputs.size(); i = next.fetch_add(1)) {
      const int64_t due = start + plan.inputs[i].due_ns;
      SleepUntilNs(due);
      send(s, i, plan.inputs[i], std::max(due, free));
      free = NowNs();
    }
  };
  std::vector<std::thread> threads;
  if (spec.open_loop) {
    for (int s = 0; s < Senders(); ++s) threads.emplace_back(open_sender, s);
  } else {
    for (int c = 0; c < kClosedClients; ++c) threads.emplace_back(closed_client, c);
  }
  for (auto& t : threads) t.join();
  phase.Close();
  return Status::OK();
}

/// Cost of recording one span, so the run can state the tracing overhead.
double SpanCostNs() {
  SpanLog scratch;
  constexpr int kSpans = 20'000;
  int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Span span(&scratch, "overhead.probe", 0, 0);
    span.Arg("input", i);
    span.Close();
  }
  return static_cast<double>(NowNs() - t0) / kSpans;
}

// ---------------------------------------------------------------------------
// Output files.
// ---------------------------------------------------------------------------

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i > 0 ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return Status::OK();
}

std::string SummaryHeader(const WorkloadSpec& spec, uint64_t seed,
                          double seconds, int trace, const Plan& plan) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"workload\":%s,\"seed\":%llu,\"seconds\":%.9g,\"trace\":%d,"
                "\"open_loop\":%s,\"tail_pct\":%.9g,\"slo_ms\":%.9g,"
                "\"jobs\":%d,\"sources\":%zu,\"plan_inputs\":%zu",
                JsonQuote(spec.name).c_str(), static_cast<unsigned long long>(seed),
                seconds, trace, spec.open_loop ? "true" : "false", spec.tail_pct,
                spec.slo_ms, kJobs, plan.sources.size(), plan.inputs.size());
  std::string rows;
  for (const Row& row : spec.rows) {
    if (!rows.empty()) rows += ",";
    rows += JsonQuote(row.assignment);
  }
  return std::string(buf) + ",\"rows\":[" + rows + "]";
}

Input RecordInput(const WorkloadSpec& spec, const Plan& plan, const Record& r) {
  return spec.open_loop ? plan.inputs[r.n] : NthClosedInput(spec, plan, r.n);
}

Status WriteRecords(const std::string& dir, const WorkloadSpec& spec,
                    const Plan& plan, const RunResult& run) {
  std::string text;
  char buf[256];
  for (const Record& r : run.records) {
    const Input input = RecordInput(spec, plan, r);
    std::snprintf(buf, sizeof(buf), "\t%zu\t%zu\t%d\t%lld\t%lld\t%lld\t%lld\t%d\t%s\n",
                  input.row, input.source, input.plan_class,
                  static_cast<long long>(r.due_ns - run.start_ns),
                  static_cast<long long>(r.ready_ns - run.start_ns),
                  static_cast<long long>(r.sent_ns - run.start_ns),
                  static_cast<long long>(r.done_ns - run.start_ns), r.status,
                  r.status == kOk ? Hex64(r.key).c_str() : "-");
    text += input.id;
    text += buf;
  }
  return WriteFile(dir + "/records.tsv", text);
}

Status WriteReferences(const std::string& dir, const Plan& plan,
                       const std::vector<bool>& used,
                       const std::vector<Reference>& refs) {
  std::string text;
  char buf[160];
  for (size_t s = 0; s < refs.size(); ++s) {
    if (!used[s]) continue;
    std::snprintf(buf, sizeof(buf), "%zu\t%zu\t%s\t%d\n", s, plan.source_row[s],
                  refs[s].ok ? Hex64(refs[s].key).c_str() : "-",
                  refs[s].exhausted_tests);
    text += buf;
  }
  return WriteFile(dir + "/reference.tsv", text);
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out;
  std::string jfeedd;
};

int RunMeasured(const Args& args, const WorkloadSpec& spec) {
  const std::string self = SelfPath();
  Child warmer;
  if (Status s = warmer.Spawn({self, "warm"}); !s.ok()) {
    std::fprintf(stderr, "jfeed_ledger: %s\n", s.ToString().c_str());
    return 1;
  }
  SetupSamples setup;
  Daemon daemon;
  Status status = spec.open_loop
                      ? SampleDaemonSetup(args.jfeedd, spec, &setup, &daemon)
                      : SampleInProcessSetup(self, spec, &setup);
  if (!status.ok()) {
    std::fprintf(stderr, "jfeed_ledger: set-up failed: %s\n", status.ToString().c_str());
    return 1;
  }
  auto plan = BuildPlan(spec, args.seed, args.seconds);
  if (!plan.ok()) {
    std::fprintf(stderr, "jfeed_ledger: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  RunResult run = spec.open_loop ? RunOpen(spec, *plan, &daemon)
                                 : RunClosed(spec, *plan, args.seconds);
  daemon.child.Stop();

  std::vector<bool> used(plan->sources.size(), false);
  for (const Record& r : run.records) used[RecordInput(spec, *plan, r).source] = true;
  const int64_t replay_start = NowNs();
  std::vector<Reference> refs = ReplayReference(spec, *plan, used);
  const double replay_s = (NowNs() - replay_start) / 1e9;

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                ",\"elapsed_ns\":%lld,\"cpu_ms\":%.9g,\"peak_rss_kb\":%lld,"
                "\"daemon_hits\":%.9g,\"generators\":%d,\"replay_s\":%.9g",
                static_cast<long long>(run.end_ns - run.start_ns), run.cpu_ms,
                static_cast<long long>(run.peak_rss_kb), run.hits,
                run.generators, replay_s);
  std::string summary = "{" + SummaryHeader(spec, args.seed, args.seconds, 0, *plan) +
                        ",\"setup_s\":" + JsonArray(setup.setup_s) + buf + "}\n";
  for (Status s : {WriteRecords(args.out, spec, *plan, run),
                   WriteReferences(args.out, *plan, used, refs),
                   WriteFile(args.out + "/summary.json", summary)}) {
    if (!s.ok()) {
      std::fprintf(stderr, "jfeed_ledger: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  const std::string self = SelfPath();
  Child warmer;
  if (Status s = warmer.Spawn({self, "warm"}); !s.ok()) {
    std::fprintf(stderr, "jfeed_ledger: %s\n", s.ToString().c_str());
    return 1;
  }
  SetupSamples setup;
  if (Status s = SampleInProcessSetup(self, spec, &setup); !s.ok()) {
    std::fprintf(stderr, "jfeed_ledger: set-up failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto plan = BuildPlan(spec, args.seed, args.seconds,
                        spec.open_loop ? kTracedScheduleScale : 1.0);
  if (!plan.ok()) {
    std::fprintf(stderr, "jfeed_ledger: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  // The layer and Grade phases see each distinct source once: the pool
  // prefix for a closed loop, first sightings in schedule order otherwise.
  std::vector<Input> inputs;
  if (spec.open_loop) {
    std::vector<bool> seen(plan->sources.size(), false);
    for (const Input& input : plan->inputs) {
      if (seen[input.source]) continue;
      seen[input.source] = true;
      inputs.push_back(input);
    }
  } else {
    for (int n = 0; n < spec.trace_inputs; ++n) {
      inputs.push_back(NthClosedInput(spec, *plan, n));
    }
  }
  std::vector<std::shared_ptr<service::ReferenceOracle>> oracles;
  for (const auto* tenant : Tenants(spec)) {
    oracles.push_back(std::make_shared<service::ReferenceOracle>());
    if (!oracles.back()->ExpectedOutputs(*tenant).ok()) {
      std::fprintf(stderr, "jfeed_ledger: reference of %s fails\n", tenant->id.c_str());
      return 1;
    }
  }

  WarmUp(spec, *plan, inputs, oracles);
  const double span_cost_ns = SpanCostNs();
  SpanLog log;
  const int64_t epoch = NowNs();
  TraceLayers(spec, *plan, inputs, &log, oracles);
  TraceGrade(spec, *plan, inputs, &log, oracles);
  if (spec.open_loop) {
    TraceSchedOpen(spec, *plan, &log);
  } else {
    TraceSchedClosed(spec, *plan, inputs, &log);
  }
  if (Status s = TraceHttp(args.jfeedd, spec, *plan, inputs, &log); !s.ok()) {
    std::fprintf(stderr, "jfeed_ledger: %s\n", s.ToString().c_str());
    return 1;
  }
  const double traced_s = (NowNs() - epoch) / 1e9;

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ",\"span_cost_ns\":%.9g,\"spans\":%zu,\"traced_s\":%.9g,"
                "\"layer_inputs\":%zu",
                span_cost_ns, log.size(), traced_s, inputs.size());
  std::string summary = "{" + SummaryHeader(spec, args.seed, args.seconds, 1, *plan) +
                        ",\"setup_s\":" + JsonArray(setup.setup_s) +
                        ",\"kb_ms\":" + JsonArray(setup.kb_ms) +
                        ",\"oracle_ms\":" + JsonArray(setup.oracle_ms) + buf + "}\n";
  for (Status s : {WriteFile(args.out + "/trace.json", log.ChromeJson(epoch)),
                   WriteFile(args.out + "/summary.json", summary)}) {
    if (!s.ok()) {
      std::fprintf(stderr, "jfeed_ledger: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

/// Prints the plan's inputs: the composition the class-placement test and
/// README figures are computed from.
int PrintPlan(const Args& args, const WorkloadSpec& spec) {
  auto plan = BuildPlan(spec, args.seed, args.seconds);
  if (!plan.ok()) {
    std::fprintf(stderr, "jfeed_ledger: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("# tail_pct %g\n", spec.tail_pct);
  for (const Input& input : plan->inputs) {
    std::printf("%s\t%s\t%s\n", spec.rows[input.row].assignment,
                CostClassName(input.plan_class),
                Hex64(Fnv1a64(plan->sources[input.source])).c_str());
  }
  return 0;
}

/// Checks of the output-key extraction, run by test_ledger.py.
int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  const kb::Assignment& assignment = kb::KnowledgeBase::Get().assignment("assignment1");
  service::GradingPipeline pipeline(assignment);
  std::string buggy = assignment.generator.Generate(7);
  service::GradingOutcome a = pipeline.Grade(buggy);
  service::GradingOutcome b = pipeline.Grade(buggy);
  std::string ka, kb_text, kc;
  expect(OutcomeKeyText(service::OutcomeToJson(a), &ka), "in-process outcome parses");
  expect(OutcomeKeyText(service::OutcomeToJson(b), &kb_text), "regrade parses");
  expect(ka == kb_text, "timings and trace ids do not enter the key");
  expect(ka.find("\"comments\"") == std::string::npos && ka.find('[') != std::string::npos,
         "key carries the comments array");
  // A /grade response line carries id/index/assignment before the outcome.
  std::string line = "{\"id\":\"x\",\"index\":0,\"assignment\":\"assignment1\"," +
                     service::OutcomeToJson(a).substr(1);
  expect(OutcomeKeyText(line, &kc) && kc == ka, "response line yields the same key");
  service::GradingOutcome reference = pipeline.Grade(assignment.Reference());
  std::string kr;
  expect(OutcomeKeyText(service::OutcomeToJson(reference), &kr) && kr != ka,
         "a different verdict changes the key");
  std::string kx;
  expect(!OutcomeKeyText("{\"id\":\"x\",\"code\":429}", &kx), "a reject has no key");
  expect(!OutcomeKeyText("{\"verdict\":\"correct\"", &kx), "truncated JSON is refused");
  std::printf("selftest %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: jfeed_ledger run --workload W --seed N --seconds S "
               "--trace 0|1 --out DIR --jfeedd PATH\n"
               "       jfeed_ledger plan --workload W --seed N --seconds S\n"
               "       jfeed_ledger setup-child --workload W\n"
               "       jfeed_ledger selftest\n");
  return 2;
}

}  // namespace
}  // namespace jfeed::ledger

int main(int argc, char** argv) {
  using namespace jfeed::ledger;
  if (argc < 2) return Usage();
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--jfeedd") {
      args.jfeedd = value;
    } else {
      return Usage();
    }
  }
  if (args.mode == "selftest") return SelfTest();
  if (args.mode == "warm") return Warm();
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "jfeed_ledger: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.mode == "setup-child") return SetupChild(*spec);
  if (args.mode == "plan") return PrintPlan(args, *spec);
  if (args.mode != "run" || args.out.empty() || args.jfeedd.empty() ||
      args.seconds <= 0) {
    return Usage();
  }
  // A daemon that exits early must not kill the run through SIGPIPE.
  signal(SIGPIPE, SIG_IGN);
  if (args.trace != 0 && !kCountsAllocations) {
    std::fprintf(stderr, "jfeed_ledger: traced runs need jfeed_ledger_traced\n");
    return 2;
  }
  return args.trace ? RunTraced(args, *spec) : RunMeasured(args, *spec);
}
