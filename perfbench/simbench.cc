// simbench — the SimSpatial benchmark binary (run through perfbench/run.py).
//
// Three closed-loop workloads, each with one caller, drive the library's
// public API at its defaults except the pinned index thread count:
//
//   fig1-plasticity  sim::Simulation at n=1M: plasticity kinetics, MemGrid
//                    ApplyUpdates, 10,000 per-probe monitoring range
//                    queries per step, 1 index thread. The serial baseline.
//   fig1-synapse     the same loop with 100 probes, a GridSelfJoin (eps
//                    0.5) every step and 4 index threads. The join
//                    dominates; maintenance should not move it.
//   serve-zipf       a built MemGrid serving a Zipf(0.99) stream over 4096
//                    hotspots (range:count:knn:update 70:15:10:5) in
//                    windows of 512 ops through ApplyUpdates and the three
//                    *Batch entry points, 1 index thread. The only
//                    workload that runs the batch engine.
//
// With --trace 0 the loop runs untraced and the end-to-end metrics are
// reported. With --trace 1 the run measures half its time untraced and
// half traced: on fig1-* the traced half is the benchmark's own replica of
// Simulation::Step (same public calls, same order, same probe stream) and
// must reproduce the untraced per-step counts exactly; on serve-zipf spans
// wrap each window and each batch call. The per-layer metrics come from
// those spans (trace.h).
//
// Oracle checks run outside the timed regions: probes of every kind
// against the brute-force scans, ApplyUpdates' return value, one synapse
// join against PBSM, CheckInvariants and the span tree. Any mismatch marks
// the result incorrect and the process exits nonzero.

#include <malloc.h>
#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bruteforce.h"
#include "common/counters.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "core/spatial_index.h"
#include "datagen/neuron.h"
#include "datagen/plasticity.h"
#include "join/spatial_join.h"
#include "sim/simulation.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace simspatial::perfbench {
namespace {

constexpr const char* kIndexName = "memgrid";
constexpr float kMonitorFraction = 0.03f;  // probe cube side / universe side
constexpr float kSynapseEps = 0.5f;
constexpr std::size_t kWindowOps = 512;
constexpr std::size_t kHotspots = 4096;
constexpr double kZipf = 0.99;
constexpr std::size_t kKnnK = 10;
// Oracle probes per kind at the oracle point, and the loop's sampling
// period (steps on fig1-*, windows on serve-zipf).
constexpr std::size_t kOracleProbes = 4;
constexpr std::size_t kFig1CheckEvery = 16;
constexpr std::size_t kServeCheckEvery = 256;
// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 9;

// ---------------------------------------------------------------------------
// Command line, seeds, result.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t n = 1000000;
  std::string spans_path;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--n") {
      args->n = std::strtoull(value, &end, 10);
    } else if (key == "--spans") {
      args->spans_path = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "malformed value for %s: %s\n", key.c_str(),
                   value);
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "every argument takes a value\n");
    return false;
  }
  return args->seconds > 0 && args->n >= 1000;
}

/// Independent input streams, all derived from --seed.
struct Seeds {
  explicit Seeds(std::uint64_t seed)
      : data(Derive(seed, 1)),
        kinetics(Derive(seed, 2)),
        monitor(Derive(seed, 3)),
        stream(Derive(seed, 4)),
        oracle(Derive(seed, 5)) {}
  static std::uint64_t Derive(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t data, kinetics, monitor, stream, oracle;
};

class Result {
 public:
  void Attempt(std::size_t ops) { attempted_ += ops; }
  /// Records a failed check; `ops` is how many attempted ops it condemns.
  void Fail(const std::string& why, std::size_t ops = 1) {
    failed_ += ops;
    ++checks_failed_;
    if (checks_failed_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  bool correct() const { return checks_failed_ == 0 && attempted_ > 0; }

  void Print(const std::string& workload) const {
    std::printf("%-34s %16s  %s   (%s)\n", "metric", "value", "unit",
                workload.c_str());
    for (const Metric& m : metrics_) {
      std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("%-34s %16.6g  %s\n", "fail_ratio",
                attempted_ > 0 ? static_cast<double>(failed_) / attempted_
                               : 1.0,
                "1");
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct() ? "true" : "false", attempted_, failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t checks_failed_ = 0;
};

// ---------------------------------------------------------------------------
// Small helpers.

/// Nearest-rank quantile (q in (0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The process's peak resident set (VmHWM) in MiB; 0 if unreadable.
double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Returns freed heap to the kernel and resets the peak resident set to the
/// current one, so memory that the oracle checks used and freed does not
/// count in peak_rss_mb. Prints the peak up to this point.
void ResetPeakRss(Result* result) {
  const double before = PeakRssMiB();
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  bool reset = f != nullptr;
  if (f != nullptr) reset = std::fputs("5", f) >= 0 && std::fclose(f) == 0;
  if (!reset) result->Fail("cannot reset the peak RSS via clear_refs", 0);
  std::printf("peak rss: %.1f MiB through the oracle point, %.1f MiB after "
              "freeing and resetting\n",
              before, PeakRssMiB());
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model.erase(model.find_last_not_of(std::string(" \0", 2)) + 1);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

std::uint64_t Tests(const QueryCounters& c) {
  return c.structure_tests + c.element_tests;
}

void SortIds(std::vector<ElementId>* ids) { std::sort(ids->begin(), ids->end()); }

std::uint64_t TotalIds(const std::vector<std::vector<ElementId>>& slots) {
  std::uint64_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  return total;
}

AABB MonitorProbe(Rng* rng, const AABB& universe) {
  const Vec3 ext = universe.Extent();
  const float side = std::max({ext.x, ext.y, ext.z}) * kMonitorFraction;
  return AABB::FromCenterHalfExtent(rng->PointIn(universe), side * 0.5f);
}

// ---------------------------------------------------------------------------
// Oracle checks (never inside a timed region).

/// Probes of every kind, per-probe and batched, against the brute-force
/// scans over `elems`. Returns the per-probe range results.
std::size_t CheckProbes(const core::SpatialIndex& index,
                        const std::vector<Element>& elems,
                        const AABB& universe, Rng* rng, Tracer* tracer,
                        Result* result) {
  std::vector<AABB> boxes;
  std::vector<Vec3> points;
  for (std::size_t i = 0; i < kOracleProbes; ++i) {
    boxes.push_back(MonitorProbe(rng, universe));
    points.push_back(rng->PointIn(universe));
  }
  std::size_t range_results = 0;
  std::vector<ElementId> got;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    std::vector<ElementId> want = ScanRange(elems, boxes[i]);
    SortIds(&want);
    {
      Scope s(tracer, "core.range_query", -1);
      QueryCounters qc;
      index.RangeQuery(boxes[i], &got, &qc);
      if (Span* sp = s.span()) {
        sp->items = 1;
        sp->out = got.size();
        sp->tests = Tests(qc);
      }
    }
    range_results += got.size();
    SortIds(&got);
    if (got != want) result->Fail("oracle RangeQuery differs from ScanRange");
    if (index.RangeQueryCount(boxes[i]) != want.size()) {
      result->Fail("oracle RangeQueryCount differs from ScanRange");
    }
    index.KnnQuery(points[i], kKnnK, &got);
    if (got != ScanKnn(elems, points[i], kKnnK)) {
      result->Fail("oracle KnnQuery differs from ScanKnn");
    }
  }
  std::vector<std::vector<ElementId>> slots;
  {
    Scope s(tracer, "core.range_batch", -1);
    QueryCounters qc;
    index.RangeQueryBatch(boxes, &slots, &qc);
    if (Span* sp = s.span()) {
      sp->items = boxes.size();
      sp->out = TotalIds(slots);
      sp->tests = Tests(qc);
    }
  }
  std::vector<std::size_t> counts;
  {
    Scope s(tracer, "core.count_batch", -1);
    QueryCounters qc;
    const std::size_t total = index.RangeQueryCountBatch(boxes, &counts, &qc);
    if (Span* sp = s.span()) {
      sp->items = boxes.size();
      sp->out = total;
      sp->tests = Tests(qc);
    }
  }
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    std::vector<ElementId> want = ScanRange(elems, boxes[i]);
    SortIds(&want);
    SortIds(&slots[i]);
    if (slots[i] != want) result->Fail("oracle RangeQueryBatch differs");
    if (counts[i] != want.size()) result->Fail("oracle CountBatch differs");
  }
  {
    Scope s(tracer, "core.knn_batch", -1);
    QueryCounters qc;
    index.KnnQueryBatch(points, kKnnK, &slots, &qc);
    if (Span* sp = s.span()) {
      sp->items = points.size();
      sp->dist = qc.distance_computations;
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (slots[i] != ScanKnn(elems, points[i], kKnnK)) {
      result->Fail("oracle KnnQueryBatch differs from ScanKnn");
    }
  }
  return range_results;
}

/// The synapse self-join as Simulation runs it, traced, then checked as a
/// pair set against PBSM. Returns the pair count.
std::size_t CheckJoin(const std::vector<Element>& elems, Tracer* tracer,
                      std::int64_t iter, Result* result) {
  std::vector<join::JoinPair> pairs;
  {
    Scope s(tracer, "join.self_join", iter);
    QueryCounters qc;
    join::GridJoinStats stats;
    pairs = join::GridSelfJoin(elems, kSynapseEps, join::GridJoinOptions{},
                               &qc, &stats);
    if (Span* sp = s.span()) {
      sp->items = elems.size();
      sp->out = pairs.size();
      sp->tests = Tests(qc);
      sp->dist = qc.distance_computations;
      sp->aux = stats.skipped_tests;
    }
  }
  std::vector<join::JoinPair> want = join::PbsmSelfJoin(elems, kSynapseEps);
  SortPairs(&pairs);
  SortPairs(&want);
  if (pairs != want) result->Fail("GridSelfJoin pair set differs from PBSM");
  return pairs.size();
}

void CheckIndex(const core::SpatialIndex& index, Result* result) {
  std::string error;
  if (!index.CheckInvariants(&error)) {
    result->Fail("CheckInvariants: " + error);
  }
}

// ---------------------------------------------------------------------------
// Loop plan shared by the workloads: warm up, run the oracle point, warm up
// again, then time iterations until the budget is spent and enough samples
// lie beyond the tail percentile.

struct Plan {
  std::size_t warm_before = 0;
  std::size_t warm_after = 0;
  std::size_t min_timed = 0;  ///< Samples the tail percentile needs.
  double tail_q = 0.9;
  double seconds = 0;
  /// Hard cap on timed iterations' wall time, so a slow machine still ends.
  double cap_seconds = 0;
  /// Rotate the caller over the allowed CPUs (CpuRotation). Only for
  /// workloads whose index runs serially: worker threads started while the
  /// caller is pinned would inherit its one-CPU mask.
  bool rotate_cpus = false;
};

/// Moves the calling thread to the next allowed CPU after every
/// kRotateSeconds of timed work, between timed iterations. On a shared VM
/// each vCPU runs as fast as its host core lets it, and the speeds differ
/// and change within minutes: serve-zipf pinned to each of 4 vCPUs in turn
/// read window p50s from 1.17 to 1.52 ms. Left alone, a one-thread loop
/// stays on one vCPU for most of a run and its timings follow that vCPU.
/// Rotating makes every run sample all allowed CPUs alike. The original
/// mask is restored on destruction; if the mask cannot be read or set, the
/// thread stays where the scheduler puts it.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&original_);
    if (!enabled || sched_getaffinity(0, sizeof(original_), &original_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (moved_) sched_setaffinity(0, sizeof(original_), &original_);
  }

  /// Called after each timed iteration with its wall time.
  void Advance(double seconds) {
    since_s_ += seconds;
    if (cpus_.size() < 2 || since_s_ < kRotateSeconds) return;
    since_s_ = 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_], &one);
    next_ = (next_ + 1) % cpus_.size();
    if (sched_setaffinity(0, sizeof(one), &one) == 0) moved_ = true;
  }

 private:
  static constexpr double kRotateSeconds = 0.5;
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  double since_s_ = 0;
  bool moved_ = false;
};

bool KeepTiming(const Plan& plan, std::size_t timed, double timed_s) {
  if (timed_s >= plan.cap_seconds) return false;
  return timed_s < plan.seconds || timed < plan.min_timed;
}

struct LoopTimes {
  std::vector<double> iter_ms;  ///< Timed iterations only.
  std::size_t timed_ops = 0;
  double timed_s = 0;
  /// Peak RSS when the timed iterations end, before the end-of-run checks.
  double peak_rss_mb = 0;
};

void ReportLoop(const LoopTimes& t, const Plan& plan, Result* result) {
  const std::size_t beyond = static_cast<std::size_t>(
      std::floor(t.iter_ms.size() * (1.0 - plan.tail_q) + 1e-9));
  std::printf("timed iterations: %zu, %zu beyond the tail percentile p%g\n",
              t.iter_ms.size(), beyond, 100 * plan.tail_q);
  if (beyond < 10) {
    result->Fail("fewer than 10 samples beyond the tail percentile", 0);
  }
  result->Add("step_ms_p50", Quantile(t.iter_ms, 0.5), "ms");
  result->Add("step_ms_tail", Quantile(t.iter_ms, plan.tail_q), "ms");
  result->Add("ops_per_s", Ratio(t.timed_ops, t.timed_s), "ops/s");
}

// ---------------------------------------------------------------------------
// fig1-*: the Figure-1 loop.

struct Fig1Spec {
  std::size_t probes;
  bool synapse;
  std::uint32_t threads;
  /// Tail percentile. The loop runs on until at least 10 steps lie beyond
  /// it. fig1-plasticity takes p95, not p90: its ApplyUpdates re-layout
  /// spikes are 10-26% of the steps, so p90 falls on the edge between them
  /// and the ordinary steps and jumps with the spike share. fig1-synapse
  /// takes p75 because its steps last ~0.8 s.
  double tail_q;
};

struct StepCounts {
  std::size_t monitor_results = 0;
  std::size_t synapse_pairs = 0;
  std::size_t updates_applied = 0;
  bool operator==(const StepCounts&) const = default;
};

sim::SimulationConfig SimConfig(const Fig1Spec& spec, const Seeds& seeds) {
  sim::SimulationConfig cfg;
  cfg.index_name = kIndexName;
  cfg.index_threads = spec.threads;
  cfg.monitor_range_queries = spec.probes;
  cfg.monitor_query_fraction = kMonitorFraction;
  cfg.synapse_every = spec.synapse ? 1 : 0;
  cfg.synapse_eps = kSynapseEps;
  cfg.seed = seeds.monitor;
  return cfg;
}

datagen::PlasticityConfig KineticsConfig(const Seeds& seeds) {
  datagen::PlasticityConfig cfg;
  cfg.seed = seeds.kinetics;
  return cfg;
}

/// A Simulation plus a view of its kinetics (to read how many moved).
struct SimRun {
  std::unique_ptr<sim::Simulation> sim;
  const sim::PlasticityKinetics* kinetics = nullptr;
};

/// Setup as a user pays it: dataset generation plus the Simulation
/// constructor (MakeIndex + Build).
SimRun MakeSim(const Args& args, const Fig1Spec& spec, const Seeds& seeds) {
  datagen::NeuronDataset ds = datagen::GenerateNeuronsWithSize(args.n, seeds.data);
  auto kinetics =
      std::make_unique<sim::PlasticityKinetics>(KineticsConfig(seeds), ds.universe);
  SimRun run;
  run.kinetics = kinetics.get();
  run.sim = std::make_unique<sim::Simulation>(std::move(ds.elements),
                                              ds.universe, std::move(kinetics),
                                              SimConfig(spec, seeds));
  return run;
}

/// One untraced Simulation::Step, with the per-step checks.
StepCounts SimStep(SimRun* run, double* ms, Result* result) {
  Stopwatch sw;
  const sim::StepReport report = run->sim->Step();
  *ms = sw.ElapsedMs();
  result->Attempt(1);
  if (report.updates_applied != run->kinetics->last_stats().moved) {
    result->Fail("ApplyUpdates applied " +
                 std::to_string(report.updates_applied) + " of " +
                 std::to_string(run->kinetics->last_stats().moved));
  }
  return {report.monitor_results, report.synapse_pairs,
          report.updates_applied};
}

void SampleRange(const sim::Simulation& s, Rng* rng, Result* result) {
  const AABB probe = MonitorProbe(rng, s.universe());
  std::vector<ElementId> got;
  s.index()->RangeQuery(probe, &got);
  std::vector<ElementId> want = ScanRange(s.elements(), probe);
  SortIds(&got);
  SortIds(&want);
  if (got != want) result->Fail("sampled RangeQuery differs from ScanRange");
}

/// The Figure-1 loop through Simulation::Step, untraced. With `oracle`,
/// the oracle point runs between the two warm-ups.
LoopTimes RunSimLoop(SimRun* run, const Plan& plan, bool oracle,
                     const Seeds& seeds, std::vector<StepCounts>* counts,
                     Result* result) {
  Tracer off(false);
  Rng oracle_rng(seeds.oracle);
  LoopTimes t;
  double ms = 0;
  for (std::size_t i = 0; i < plan.warm_before; ++i) {
    counts->push_back(SimStep(run, &ms, result));
  }
  const sim::Simulation& s = *run->sim;
  if (oracle) {
    CheckProbes(*s.index(), s.elements(), s.universe(), &oracle_rng, &off,
                result);
    const std::size_t pairs = CheckJoin(s.elements(), &off, -1, result);
    if (!counts->empty() && counts->back().synapse_pairs != 0 &&
        counts->back().synapse_pairs != pairs) {
      result->Fail("Simulation's synapse pairs differ from GridSelfJoin");
    }
    ResetPeakRss(result);
  }
  for (std::size_t i = 0; i < plan.warm_after; ++i) {
    counts->push_back(SimStep(run, &ms, result));
  }
  CpuRotation rotation(plan.rotate_cpus);
  while (KeepTiming(plan, t.iter_ms.size(), t.timed_s)) {
    counts->push_back(SimStep(run, &ms, result));
    t.iter_ms.push_back(ms);
    t.timed_s += ms / 1e3;
    rotation.Advance(ms / 1e3);
    if (t.iter_ms.size() % kFig1CheckEvery == 0) {
      SampleRange(s, &oracle_rng, result);
    }
  }
  t.timed_ops = t.iter_ms.size();
  t.peak_rss_mb = PeakRssMiB();
  SampleRange(s, &oracle_rng, result);
  CheckIndex(*s.index(), result);
  return t;
}

/// The benchmark's replica of Simulation::Step: the same public calls in
/// the same order with the same inputs, each wrapped in a span of `tracer`
/// (warm-up steps pass a disabled one).
class Fig1Replica {
 public:
  Fig1Replica(datagen::NeuronDataset ds, const Fig1Spec& spec,
              const Seeds& seeds, Tracer* tracer)
      : elements_(std::move(ds.elements)),
        universe_(ds.universe),
        kinetics_(KineticsConfig(seeds), universe_),
        spec_(spec),
        monitor_rng_(seeds.monitor) {
    Scope s(tracer, "core.build", -1);
    index_ = core::MakeIndex(kIndexName,
                             core::IndexOptions{.threads = spec_.threads});
    index_->Build(elements_, universe_);
    if (Span* sp = s.span()) sp->items = elements_.size();
    updates_.reserve(elements_.size());
  }

  StepCounts Step(Tracer* tracer, Result* result) {
    const std::int64_t step = static_cast<std::int64_t>(step_);
    StepCounts c;
    Scope whole(tracer, "sim.step", step);
    QueryCounters qc;
    {
      Scope s(tracer, "datagen.kinetics", step);
      kinetics_.Step(index_.get(), &elements_, &updates_, &qc);
      if (Span* sp = s.span()) sp->items = kinetics_.last_stats().moved;
    }
    {
      Scope s(tracer, "core.apply_updates", step);
      c.updates_applied = index_->ApplyUpdates(updates_);
      if (Span* sp = s.span()) {
        sp->items = updates_.size();
        sp->out = c.updates_applied;
      }
    }
    const Vec3 ext = universe_.Extent();
    const float side = std::max({ext.x, ext.y, ext.z}) * kMonitorFraction;
    probes_.clear();
    for (std::size_t q = 0; q < spec_.probes; ++q) {
      probes_.push_back(AABB::FromCenterHalfExtent(
          monitor_rng_.PointIn(universe_), side * 0.5f));
    }
    for (const AABB& probe : probes_) {
      Scope s(tracer, "core.range_query", step);
      QueryCounters pc;
      index_->RangeQuery(probe, &out_, &pc);
      c.monitor_results += out_.size();
      if (Span* sp = s.span()) {
        sp->items = 1;
        sp->out = out_.size();
        sp->tests = Tests(pc);
      }
    }
    if (spec_.synapse) {
      Scope s(tracer, "join.self_join", step);
      QueryCounters jc;
      join::GridJoinStats stats;
      const auto pairs = join::GridSelfJoin(
          elements_, kSynapseEps, join::GridJoinOptions{}, &jc, &stats);
      c.synapse_pairs = pairs.size();
      if (Span* sp = s.span()) {
        sp->items = elements_.size();
        sp->out = pairs.size();
        sp->tests = Tests(jc);
        sp->dist = jc.distance_computations;
        sp->aux = stats.skipped_tests;
      }
    }
    result->Attempt(1);
    if (c.updates_applied != updates_.size()) {
      result->Fail("replica ApplyUpdates applied fewer than submitted");
    }
    ++step_;
    if (Span* sp = whole.span()) sp->out = c.monitor_results;
    return c;
  }

  const std::vector<Element>& elements() const { return elements_; }
  const AABB& universe() const { return universe_; }
  const core::SpatialIndex& index() const { return *index_; }

 private:
  std::vector<Element> elements_;
  AABB universe_;
  sim::PlasticityKinetics kinetics_;
  Fig1Spec spec_;
  Rng monitor_rng_;
  std::unique_ptr<core::SpatialIndex> index_;
  std::vector<ElementUpdate> updates_;
  std::vector<AABB> probes_;
  std::vector<ElementId> out_;
  std::size_t step_ = 0;
};

// ---------------------------------------------------------------------------
// serve-zipf: windows of a Zipf stream through the batch entry points.

struct Window {
  std::vector<AABB> ranges;
  std::vector<AABB> counts;
  std::vector<Vec3> knns;
  std::vector<ElementUpdate> updates;
  std::size_t repeats = 0;  ///< Probes equal to an earlier one in the window.

  std::size_t ops() const {
    return ranges.size() + counts.size() + knns.size() + updates.size();
  }
};

/// The bench_serving stream: probe centres drawn verbatim from a fixed set
/// of hotspots with Zipf popularity, so hot probes repeat exactly; updates
/// move a uniformly drawn element 1% of the way to a hotspot (crossing
/// cells over time). Update ids are distinct within a window.
class ZipfStream {
 public:
  ZipfStream(const AABB& universe, std::uint64_t seed)
      : rng_(seed), sampler_(kHotspots, kZipf) {
    for (std::size_t i = 0; i < kHotspots; ++i) {
      hotspots_.push_back(rng_.PointIn(universe));
    }
    const Vec3 ext = universe.Extent();
    const float side = std::max({ext.x, ext.y, ext.z});
    range_half_ = side * 0.01f;
    count_half_ = side * 0.015f;
    elem_half_ = side * 0.002f;
  }

  void Next(const std::vector<Element>& mirror, Window* w) {
    w->ranges.clear();
    w->counts.clear();
    w->knns.clear();
    w->updates.clear();
    w->repeats = 0;
    seen_.clear();
    ids_.clear();
    for (std::size_t i = 0; i < kWindowOps; ++i) {
      const double draw = rng_.NextDouble();
      const std::size_t hot = sampler_.Sample(&rng_);
      const Vec3 c = hotspots_[hot];
      if (draw < 0.95) {
        const std::size_t kind = draw < 0.70 ? 0 : draw < 0.85 ? 1 : 2;
        if (!seen_.insert(kind * kHotspots + hot).second) ++w->repeats;
        if (kind == 0) {
          w->ranges.push_back(AABB::FromCenterHalfExtent(c, range_half_));
        } else if (kind == 1) {
          w->counts.push_back(AABB::FromCenterHalfExtent(c, count_half_));
        } else {
          w->knns.push_back(c);
        }
        continue;
      }
      ElementId id;
      do {
        id = static_cast<ElementId>(rng_.NextBelow(mirror.size()));
      } while (!ids_.insert(id).second);
      const Vec3 cur = mirror[id].box.Center();
      const Vec3 dest(cur.x + (c.x - cur.x) * 0.01f,
                      cur.y + (c.y - cur.y) * 0.01f,
                      cur.z + (c.z - cur.z) * 0.01f);
      w->updates.emplace_back(id, AABB::FromCenterHalfExtent(dest, elem_half_));
    }
  }

 private:
  Rng rng_;
  ZipfSampler sampler_;
  std::vector<Vec3> hotspots_;
  float range_half_ = 0, count_half_ = 0, elem_half_ = 0;
  std::unordered_set<std::size_t> seen_;
  std::unordered_set<ElementId> ids_;
};

struct WindowAnswers {
  std::vector<std::vector<ElementId>> ranges;
  std::vector<std::size_t> counts;
  std::vector<std::vector<ElementId>> knns;
  std::size_t applied = 0;
};

/// Serves one window: updates first, then the three probe batches.
void ServeWindow(core::SpatialIndex* index, const Window& w,
                 std::int64_t id, Tracer* tracer, WindowAnswers* a) {
  Scope whole(tracer, "serve.window", id);
  a->applied = 0;
  if (!w.updates.empty()) {
    Scope s(tracer, "core.apply_updates", id);
    a->applied = index->ApplyUpdates(w.updates);
    if (Span* sp = s.span()) {
      sp->items = w.updates.size();
      sp->out = a->applied;
    }
  }
  if (!w.ranges.empty()) {
    Scope s(tracer, "core.range_batch", id);
    QueryCounters qc;
    index->RangeQueryBatch(w.ranges, &a->ranges, &qc);
    if (Span* sp = s.span()) {
      sp->items = w.ranges.size();
      sp->out = TotalIds(a->ranges);
      sp->tests = Tests(qc);
    }
  }
  if (!w.counts.empty()) {
    Scope s(tracer, "core.count_batch", id);
    QueryCounters qc;
    const std::size_t total = index->RangeQueryCountBatch(w.counts, &a->counts, &qc);
    if (Span* sp = s.span()) {
      sp->items = w.counts.size();
      sp->out = total;
      sp->tests = Tests(qc);
    }
  }
  if (!w.knns.empty()) {
    Scope s(tracer, "core.knn_batch", id);
    QueryCounters qc;
    index->KnnQueryBatch(w.knns, kKnnK, &a->knns, &qc);
    if (Span* sp = s.span()) {
      sp->items = w.knns.size();
      sp->dist = qc.distance_computations;
    }
  }
  if (Span* sp = whole.span()) sp->items = w.ops();
}

/// Checks the first probe of each kind in `w` against scans of `mirror`.
void SampleWindow(const Window& w, const WindowAnswers& a,
                  const std::vector<Element>& mirror, Result* result) {
  if (!w.ranges.empty()) {
    std::vector<ElementId> want = ScanRange(mirror, w.ranges[0]);
    std::vector<ElementId> got = a.ranges[0];
    SortIds(&want);
    SortIds(&got);
    if (got != want) result->Fail("window range probe differs from ScanRange");
  }
  if (!w.counts.empty() && a.counts[0] != ScanRange(mirror, w.counts[0]).size()) {
    result->Fail("window count probe differs from ScanRange");
  }
  if (!w.knns.empty() && a.knns[0] != ScanKnn(mirror, w.knns[0], kKnnK)) {
    result->Fail("window knn probe differs from ScanKnn");
  }
}

class Server {
 public:
  Server(std::unique_ptr<core::SpatialIndex> index, std::vector<Element> mirror,
         const AABB& universe, const Seeds& seeds)
      : index_(std::move(index)),
        mirror_(std::move(mirror)),
        universe_(universe),
        stream_(universe, seeds.stream),
        oracle_rng_(seeds.oracle),
        kinetics_(KineticsConfig(seeds), universe) {}

  /// Generates and serves one window (generation and checks untimed);
  /// returns the window's wall time in ms.
  double Serve(Tracer* tracer, bool sample, Result* result) {
    stream_.Next(mirror_, &w_);
    Stopwatch sw;
    ServeWindow(index_.get(), w_, static_cast<std::int64_t>(windows_), tracer,
                &a_);
    const double ms = sw.ElapsedMs();
    ++windows_;
    result->Attempt(w_.ops());
    for (const ElementUpdate& u : w_.updates) mirror_[u.id].box = u.new_box;
    if (a_.applied != w_.updates.size()) {
      result->Fail("window ApplyUpdates applied fewer than submitted",
                   w_.updates.size() - std::min(a_.applied, w_.updates.size()));
    }
    if (sample) SampleWindow(w_, a_, mirror_, result);
    repeats_ += w_.repeats;
    probes_ += w_.ops() - w_.updates.size();
    return ms;
  }

  /// The oracle point: one plasticity step over every element (kinetics +
  /// ApplyUpdates), then probes of every kind and one synapse join.
  std::size_t Oracle(Tracer* tracer, Result* result) {
    std::vector<ElementUpdate> updates;
    {
      Scope s(tracer, "datagen.kinetics", -1);
      kinetics_.Step(index_.get(), &mirror_, &updates, nullptr);
      if (Span* sp = s.span()) sp->items = kinetics_.last_stats().moved;
    }
    std::size_t applied = 0;
    {
      Scope s(tracer, "core.apply_updates", -1);
      applied = index_->ApplyUpdates(updates);
      if (Span* sp = s.span()) {
        sp->items = updates.size();
        sp->out = applied;
      }
    }
    if (applied != updates.size()) {
      result->Fail("oracle ApplyUpdates applied fewer than submitted");
    }
    const std::size_t results =
        CheckProbes(*index_, mirror_, universe_, &oracle_rng_, tracer, result);
    CheckJoin(mirror_, tracer, -1, result);
    return results;
  }

  const core::SpatialIndex& index() const { return *index_; }
  std::size_t windows() const { return windows_; }
  /// Share of probes served since the last call that repeat an earlier
  /// probe of their window.
  double TakeRepeatShare() {
    const double share = Ratio(repeats_, probes_);
    repeats_ = probes_ = 0;
    return share;
  }

 private:
  std::unique_ptr<core::SpatialIndex> index_;
  std::vector<Element> mirror_;
  AABB universe_;
  ZipfStream stream_;
  Rng oracle_rng_;
  sim::PlasticityKinetics kinetics_;
  Window w_;
  WindowAnswers a_;
  std::size_t windows_ = 0;
  std::size_t repeats_ = 0;
  std::size_t probes_ = 0;
};

// One index thread: at 4, identical serve-zipf runs on a 4-vCPU VM read
// 180k-800k ops/s, because every batch call wakes idle pool workers and
// the wake-up cost is at the mercy of vCPU scheduling (perfbench/README.md).
constexpr std::uint32_t kServeThreads = 1;

/// Setup as a user pays it: dataset generation plus MakeIndex + Build.
std::pair<std::unique_ptr<core::SpatialIndex>, datagen::NeuronDataset>
MakeServeIndex(const Args& args, const Seeds& seeds, Tracer* tracer) {
  datagen::NeuronDataset ds =
      datagen::GenerateNeuronsWithSize(args.n, seeds.data);
  Scope s(tracer, "core.build", -1);
  auto index = core::MakeIndex(kIndexName,
                               core::IndexOptions{.threads = kServeThreads});
  index->Build(ds.elements, ds.universe);
  if (Span* sp = s.span()) sp->items = ds.elements.size();
  return {std::move(index), std::move(ds)};
}

LoopTimes ServeTimed(Server* server, const Plan& plan, double seconds,
                     Tracer* tracer, Result* result) {
  LoopTimes t;
  Plan budget = plan;
  budget.seconds = seconds;
  budget.cap_seconds = plan.cap_seconds * seconds / plan.seconds;
  CpuRotation rotation(plan.rotate_cpus);
  while (KeepTiming(budget, t.iter_ms.size(), t.timed_s)) {
    const bool sample = (server->windows() + 1) % kServeCheckEvery == 0;
    const double ms = server->Serve(tracer, sample, result);
    t.iter_ms.push_back(ms);
    t.timed_s += ms / 1e3;
    rotation.Advance(ms / 1e3);
    t.timed_ops += kWindowOps;
  }
  t.peak_rss_mb = PeakRssMiB();
  return t;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the spans of a traced run.

class Layers {
 public:
  Layers(const Tracer& tracer, const char* loop_root) : tracer_(tracer) {
    const auto& spans = tracer.spans();
    in_loop_.resize(spans.size(), false);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const int p = spans[i].parent;
      in_loop_[i] = p >= 0 ? in_loop_[p]
                           : std::strcmp(spans[i].name, loop_root) == 0;
    }
    child_ns_ = tracer.ChildNs();
  }

  /// Spans named `name` inside the timed loop; when the loop makes no such
  /// call (e.g. no join on fig1-plasticity), the oracle point's instead.
  std::vector<const Span*> Named(const char* name) const {
    std::vector<const Span*> loop, other;
    const auto& spans = tracer_.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::strcmp(spans[i].name, name) != 0) continue;
      (in_loop_[i] ? loop : other).push_back(&spans[i]);
    }
    return loop.empty() ? other : loop;
  }

  static std::vector<double> WallMs(const std::vector<const Span*>& v,
                                    double scale = 1e-6) {
    std::vector<double> out;
    for (const Span* s : v) out.push_back(s->WallNs() * scale);
    return out;
  }

  std::vector<double> SelfMs(const char* name) const {
    std::vector<double> out;
    const auto& spans = tracer_.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (in_loop_[i] && std::strcmp(spans[i].name, name) == 0) {
        out.push_back((spans[i].WallNs() - child_ns_[i]) * 1e-6);
      }
    }
    return out;
  }

  struct Sums {
    double wall_ns = 0, cpu_ns = 0;
    double items = 0, out = 0, tests = 0, dist = 0, aux = 0;
  };
  static Sums Sum(const std::vector<const Span*>& v) {
    Sums s;
    for (const Span* p : v) {
      s.wall_ns += p->WallNs();
      s.cpu_ns += p->cpu_ns;
      s.items += p->items;
      s.out += p->out;
      s.tests += p->tests;
      s.dist += p->dist;
      s.aux += p->aux;
    }
    return s;
  }
  /// The count of the earliest such span (a fixed point of the run, so it
  /// repeats exactly at one seed).
  static double First(const std::vector<const Span*>& v,
                      std::uint64_t Span::*field) {
    return v.empty() ? 0 : static_cast<double>(v.front()->*field);
  }

 private:
  const Tracer& tracer_;
  std::vector<bool> in_loop_;
  std::vector<std::int64_t> child_ns_;
};

/// Emits every per-layer metric. The caller supplies the three that do not
/// come from spans: the first step's range results, the windows' repeat
/// share and the tracing overhead.
void ReportLayers(const Tracer& tracer, const char* loop_root,
                  const core::SpatialIndex& index, double first_results,
                  double repeat_share, double overhead_ratio,
                  Result* result) {
  const Layers l(tracer, loop_root);
  result->Add("sim.step_self_ms", Quantile(l.SelfMs(loop_root), 0.5), "ms");

  const auto kin = l.Named("datagen.kinetics");
  result->Add("datagen.kinetics_ms", Quantile(Layers::WallMs(kin), 0.5), "ms");
  result->Add("datagen.moved_per_step", Layers::First(kin, &Span::items),
              "count");

  const auto build = l.Named("core.build");
  result->Add("core.build_ms", Quantile(Layers::WallMs(build), 0.5), "ms");
  result->Add("core.index_bytes", static_cast<double>(index.MemoryBytes()),
              "B");

  const auto apply = l.Named("core.apply_updates");
  const auto apply_ms = Layers::WallMs(apply);
  const Layers::Sums as = Layers::Sum(apply);
  result->Add("core.apply_updates_ms_p50", Quantile(apply_ms, 0.5), "ms");
  result->Add("core.apply_updates_ms_p90", Quantile(apply_ms, 0.9), "ms");
  result->Add("core.apply_updates_ns_per_update", Ratio(as.wall_ns, as.items),
              "ns");
  result->Add("core.apply_updates_cores", Ratio(as.cpu_ns, as.wall_ns),
              "cores");
  result->Add("core.updates_applied_ratio", Ratio(as.out, as.items), "1");
  result->Add("core.window_apply_updates_us",
              Quantile(Layers::WallMs(apply, 1e-3), 0.99), "us");

  const auto range = l.Named("core.range_query");
  const auto range_us = Layers::WallMs(range, 1e-3);
  const Layers::Sums rs = Layers::Sum(range);
  result->Add("core.range_query_us_p50", Quantile(range_us, 0.5), "us");
  result->Add("core.range_query_us_p99", Quantile(range_us, 0.99), "us");
  result->Add("core.range_tests_per_result", Ratio(rs.tests, rs.out), "1");
  result->Add("core.range_results_per_step", first_results, "count");

  const auto rb = Layers::Sum(l.Named("core.range_batch"));
  const auto cb = Layers::Sum(l.Named("core.count_batch"));
  const auto kb = Layers::Sum(l.Named("core.knn_batch"));
  result->Add("core.range_batch_us_per_probe", Ratio(rb.wall_ns / 1e3, rb.items),
              "us");
  result->Add("core.count_batch_us_per_probe", Ratio(cb.wall_ns / 1e3, cb.items),
              "us");
  result->Add("core.knn_batch_us_per_probe", Ratio(kb.wall_ns / 1e3, kb.items),
              "us");
  result->Add("core.batch_cores",
              Ratio(rb.cpu_ns + cb.cpu_ns + kb.cpu_ns,
                    rb.wall_ns + cb.wall_ns + kb.wall_ns),
              "cores");
  result->Add("core.batch_tests_per_result",
              Ratio(rb.tests + cb.tests, rb.out + cb.out), "1");
  result->Add("core.knn_distance_per_probe", Ratio(kb.dist, kb.items), "1");
  result->Add("core.batch_repeat_share", repeat_share, "1");

  const auto joins = l.Named("join.self_join");
  const Layers::Sums js = Layers::Sum(joins);
  result->Add("join.self_join_ms", Quantile(Layers::WallMs(joins), 0.5), "ms");
  result->Add("join.self_join_cores", Ratio(js.cpu_ns, js.wall_ns), "cores");
  result->Add("join.pairs_per_step", Layers::First(joins, &Span::out), "count");
  result->Add("join.tests_per_pair", Ratio(js.tests + js.dist, js.out), "1");
  result->Add("join.shortcut_share", Ratio(js.aux, js.out), "1");

  result->Add("trace.overhead_ratio", overhead_ratio, "1");
}

void FinishTrace(const Tracer& tracer, const Args& args,
                 const std::string& stamp, Result* result) {
  std::string error;
  if (!tracer.CheckTree(&error)) result->Fail("span tree: " + error);
  if (!args.spans_path.empty() && !tracer.Write(args.spans_path, stamp)) {
    result->Fail("cannot write spans to " + args.spans_path, 0);
  }
}

// ---------------------------------------------------------------------------
// The workloads.

Plan Fig1Plan(const Args& args, const Fig1Spec& spec) {
  Plan p;
  p.warm_before = 1;  // step 0 pays first-touch costs (~2x a later step)
  p.warm_after = 2;
  p.tail_q = spec.tail_q;
  p.min_timed = static_cast<std::size_t>(std::ceil(10 / (1 - spec.tail_q)));
  p.seconds = args.seconds;
  p.cap_seconds = 3 * args.seconds;
  p.rotate_cpus = spec.threads <= 1;
  return p;
}

Plan ServePlan(const Args& args) {
  Plan p;
  p.warm_before = 256;
  p.warm_after = 1024;
  p.min_timed = 1000;  // 10 samples beyond p99
  p.tail_q = 0.99;
  p.seconds = args.seconds;
  p.cap_seconds = 3 * args.seconds;
  p.rotate_cpus = kServeThreads <= 1;
  return p;
}

void RunFig1(const Args& args, const Fig1Spec& spec, const std::string& stamp,
             Result* result) {
  const Seeds seeds(args.seed);
  Plan plan = Fig1Plan(args, spec);
  if (!args.trace) {
    std::vector<double> setup_s;
    SimRun run;
    for (std::size_t i = 0; i < kSetups; ++i) {
      run = SimRun{};  // free the previous setup before timing the next
      Stopwatch sw;
      run = MakeSim(args, spec, seeds);
      setup_s.push_back(sw.ElapsedSeconds());
    }
    std::vector<StepCounts> counts;
    const LoopTimes t = RunSimLoop(&run, plan, /*oracle=*/true, seeds,
                                   &counts, result);
    ReportLoop(t, plan, result);
    result->Add("setup_s", Quantile(setup_s, 0.5), "s");
    result->Add("peak_rss_mb", t.peak_rss_mb, "MiB");
    return;
  }
  // Traced run: half the budget through Simulation, half through the
  // replica, which must reproduce every step's counts.
  plan.seconds /= 2;
  plan.cap_seconds /= 2;
  plan.min_timed = 0;
  std::vector<StepCounts> want;
  LoopTimes untraced;
  {
    SimRun run = MakeSim(args, spec, seeds);
    untraced = RunSimLoop(&run, plan, /*oracle=*/false, seeds, &want, result);
  }
  Tracer tracer(true);
  Tracer off(false);
  Rng oracle_rng(seeds.oracle);
  Fig1Replica replica(datagen::GenerateNeuronsWithSize(args.n, seeds.data),
                      spec, seeds, &tracer);
  std::vector<StepCounts> got;
  std::vector<double> traced_ms;
  CpuRotation rotation(plan.rotate_cpus);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (i == plan.warm_before) {
      CheckProbes(replica.index(), replica.elements(), replica.universe(),
                  &oracle_rng, &tracer, result);
      const std::size_t pairs =
          CheckJoin(replica.elements(), &tracer, -1, result);
      if (spec.synapse && !got.empty() && pairs != got.back().synapse_pairs) {
        result->Fail("replica's synapse pairs differ from GridSelfJoin");
      }
    }
    const bool timed = i >= plan.warm_before + plan.warm_after;
    Stopwatch sw;
    got.push_back(replica.Step(timed ? &tracer : &off, result));
    if (timed) {
      traced_ms.push_back(sw.ElapsedMs());
      rotation.Advance(traced_ms.back() / 1e3);
    }
  }
  CheckIndex(replica.index(), result);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!(got[i] == want[i])) {
      result->Fail("replica step " + std::to_string(i) +
                   " counts differ from Simulation::Step");
    }
  }
  std::printf("replica reproduced %zu Simulation steps, %zu of them traced\n",
              want.size(), traced_ms.size());
  FinishTrace(tracer, args, stamp, result);
  const double first_results =
      want.empty() ? 0 : static_cast<double>(want.front().monitor_results);
  ReportLayers(tracer, "sim.step", replica.index(), first_results, 0.0,
               Ratio(Quantile(traced_ms, 0.5), Quantile(untraced.iter_ms, 0.5)),
               result);
}

void RunServe(const Args& args, const std::string& stamp, Result* result) {
  const Seeds seeds(args.seed);
  const Plan plan = ServePlan(args);
  Tracer tracer(args.trace);
  Tracer off(false);
  std::vector<double> setup_s;
  std::unique_ptr<core::SpatialIndex> index;
  datagen::NeuronDataset ds;
  for (std::size_t i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    index.reset();
    ds = datagen::NeuronDataset{};
    Stopwatch sw;
    std::tie(index, ds) = MakeServeIndex(args, seeds, &tracer);
    setup_s.push_back(sw.ElapsedSeconds());
  }
  for (std::size_t i = 0; i < ds.elements.size(); ++i) {
    if (ds.elements[i].id != i) {
      result->Fail("dataset ids are not positions; the mirror needs them");
      return;
    }
  }
  Server server(std::move(index), std::move(ds.elements), ds.universe, seeds);
  for (std::size_t i = 0; i < plan.warm_before; ++i) {
    server.Serve(&off, false, result);
  }
  const std::size_t oracle_results = server.Oracle(&tracer, result);
  if (!args.trace) ResetPeakRss(result);
  for (std::size_t i = 0; i < plan.warm_after; ++i) {
    server.Serve(&off, false, result);
  }
  if (!args.trace) {
    const LoopTimes t =
        ServeTimed(&server, plan, plan.seconds, &off, result);
    CheckIndex(server.index(), result);
    ReportLoop(t, plan, result);
    result->Add("setup_s", Quantile(setup_s, 0.5), "s");
    result->Add("peak_rss_mb", t.peak_rss_mb, "MiB");
    return;
  }
  Plan half = plan;
  half.min_timed = 0;
  const LoopTimes untraced =
      ServeTimed(&server, half, plan.seconds / 2, &off, result);
  server.TakeRepeatShare();
  const LoopTimes traced =
      ServeTimed(&server, half, plan.seconds / 2, &tracer, result);
  const double repeat_share = server.TakeRepeatShare();
  CheckIndex(server.index(), result);
  FinishTrace(tracer, args, stamp, result);
  const double untraced_rate = Ratio(untraced.timed_ops, untraced.timed_s);
  const double traced_rate = Ratio(traced.timed_ops, traced.timed_s);
  ReportLayers(tracer, "serve.window", server.index(),
               static_cast<double>(oracle_results), repeat_share,
               Ratio(untraced_rate, traced_rate), result);
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: simbench --workload fig1-plasticity|fig1-synapse|"
                 "serve-zipf --seed <n> --seconds <s> --trace 0|1 "
                 "[--n <elements>] [--spans <path>] "
                 "[--commit <sha>]\n");
    return 2;
  }
  if (fail::kCompiledIn || SanitizedBuild()) {
    std::fprintf(stderr,
                 "simbench: refusing to report from a failpoint or sanitizer "
                 "build; timings from it are not comparable\n");
    return 2;
  }
  char stamp[512];
  std::snprintf(stamp, sizeof(stamp),
                "{\"workload\": \"%s\", \"seed\": %llu, \"n\": %zu, "
                "\"nproc\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\", "
                "\"commit\": \"%s\", \"trace\": %d}",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.n,
                std::thread::hardware_concurrency(), CpuModel().c_str(),
                PERFBENCH_BUILD_TYPE, args.commit.c_str(), args.trace ? 1 : 0);
  std::printf("stamp %s\n", stamp);
  std::fflush(stdout);

  Result result;
  if (args.workload == "fig1-plasticity") {
    RunFig1(args, Fig1Spec{.probes = 10000, .synapse = false, .threads = 1,
                     .tail_q = 0.95},
            stamp, &result);
  } else if (args.workload == "fig1-synapse") {
    RunFig1(args, Fig1Spec{.probes = 100, .synapse = true, .threads = 4,
                     .tail_q = 0.75},
            stamp, &result);
  } else if (args.workload == "serve-zipf") {
    RunServe(args, stamp, &result);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  result.Print(args.workload);
  return result.correct() ? 0 : 1;
}

}  // namespace simspatial::perfbench

int main(int argc, char** argv) {
  return simspatial::perfbench::Main(argc, argv);
}
