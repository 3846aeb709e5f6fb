// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark records a span around each call it makes into a library
// module (sim, datagen, core, join). Spans live in memory while the run
// measures and are written out once it ends, so the traced loop does no
// I/O. A span's self time is its duration minus the durations of its
// direct children; children run on the caller's thread one after another,
// so they never overlap and always lie inside their parent (CheckTree
// verifies both).

#ifndef SIMSPATIAL_PERFBENCH_TRACE_H_
#define SIMSPATIAL_PERFBENCH_TRACE_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace simspatial::perfbench {

/// One timed call. The count fields carry what the call did; their meaning
/// depends on the span name (see simbench.cc, where each span is opened).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  ///< Process CPU time (all threads) in the span.
  std::int32_t parent = -1;
  std::int64_t iter = 0;    ///< Step or window id; -1 outside the loop.
  std::uint64_t items = 0;  ///< Inputs: probes, updates or elements.
  std::uint64_t out = 0;    ///< Outputs: ids, counts, applied updates, pairs.
  std::uint64_t tests = 0;  ///< Structure + element intersection tests.
  std::uint64_t dist = 0;   ///< Distance computations.
  std::uint64_t aux = 0;    ///< Join: tests the small-cell shortcut skipped.

  std::int64_t WallNs() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int Begin(const char* name, std::int64_t iter) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_;
    s.iter = iter;
    s.cpu_ns = CpuNs();
    s.start_ns = WallNs();
    spans_.push_back(s);
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void End(int id) {
    if (id < 0) return;
    Span& s = spans_[id];
    s.end_ns = WallNs();
    s.cpu_ns = CpuNs() - s.cpu_ns;
    open_ = s.parent;
  }

  Span* at(int id) { return id < 0 ? nullptr : &spans_[id]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Direct children's summed duration, per span.
  std::vector<std::int64_t> ChildNs() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.WallNs();
    }
    return child;
  }

  /// True when every span is closed, lies inside its parent and does not
  /// overlap a sibling, so self times are non-negative and a root's
  /// subtree self times sum to exactly its duration.
  bool CheckTree(std::string* error) const {
    std::vector<std::int64_t> last_child_end(spans_.size(), 0);
    std::int64_t last_root_end = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < s.start_ns) {
        *error = std::string("span ") + s.name + " is not closed";
        return false;
      }
      std::int64_t* prev_end =
          s.parent < 0 ? &last_root_end : &last_child_end[s.parent];
      if (s.start_ns < *prev_end) {
        *error = std::string("span ") + s.name + " overlaps a sibling";
        return false;
      }
      *prev_end = s.end_ns;
      if (s.parent >= 0) {
        const Span& p = spans_[s.parent];
        if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
          *error = std::string("span ") + s.name + " leaves its parent " +
                   p.name;
          return false;
        }
      }
    }
    const std::vector<std::int64_t> child = ChildNs();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].WallNs() < child[i]) {
        *error = std::string("children outlast span ") + spans_[i].name;
        return false;
      }
    }
    return true;
  }

  /// Writes one tab-separated line per span, after a header line.
  bool Write(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# %s\n", header.c_str());
    std::fprintf(f,
                 "id\tname\tparent\titer\tstart_ns\tend_ns\tcpu_ns\titems\t"
                 "out\ttests\tdist\taux\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%zu\t%s\t%d\t%lld\t%lld\t%lld\t%lld\t%llu\t%llu\t%llu\t"
                   "%llu\t%llu\n",
                   i, s.name, s.parent, static_cast<long long>(s.iter),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.cpu_ns),
                   static_cast<unsigned long long>(s.items),
                   static_cast<unsigned long long>(s.out),
                   static_cast<unsigned long long>(s.tests),
                   static_cast<unsigned long long>(s.dist),
                   static_cast<unsigned long long>(s.aux));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t WallNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  static std::int64_t CpuNs() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  }

  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

/// Opens a span for the lifetime of the scope.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t iter)
      : tracer_(tracer), id_(tracer->Begin(name, iter)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// The open span, or nullptr when tracing is off (counts are dropped).
  Span* span() { return tracer_->at(id_); }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace simspatial::perfbench

#endif  // SIMSPATIAL_PERFBENCH_TRACE_H_
