// Shared machinery of the benchmark driver: options, spans, statistics,
// host probes and the result line.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer (graph, walk, embed, ml, index, store, serve, dynamic),
// kept in memory and written out when the run ends. A layer's self time
// is its spans' durations minus the parts covered by their child spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kThreads = 4;  ///< worker threads of every layer

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  ///< snapshots and the trace file go here
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  /// Corrupts one answer before it is checked, so the self-test can show
  /// that the output checks fail the run.
  bool corrupt = false;
  /// Sets up once, runs the untimed warm-up pass or round and returns:
  /// the peak-RSS probe (see main.cpp).
  bool probe = false;
};

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t request = 0;  ///< request id for serve spans, else 0
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Temporarily switches recording off or on (alternating traced and
  /// untraced passes measures the tracing overhead).
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Opens a span now; returns its id, or -1 when tracing is off.
  int begin(std::string_view name, std::string_view layer, int parent = -1);
  void end(int id);
  /// Records a finished span with given times; returns its id or -1.
  int add(std::string_view name, std::string_view layer, double start,
          double end, int parent = -1, std::uint64_t request = 0);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Self seconds per layer over the subtree rooted at `root` (inclusive).
  [[nodiscard]] std::map<std::string, double> self_seconds(int root) const;
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::string_view layer,
             int parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, layer, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload measured. `e2e` goes out on untraced runs, `layer` on
/// traced runs.
struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  /// Records a failed output check (printed to stderr, first few only).
  void fail(const std::string& why);
};

/// Median / linear-interpolated quantile (numpy's default method).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// Aggregate CPU ticks from /proc/stat, for the steal share of a window.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();
[[nodiscard]] double steal_fraction(const CpuTicks& from, const CpuTicks& to);
[[nodiscard]] double process_cpu_s();  ///< user + system of this process

/// Host steal share and process CPU time over a measured phase; every run
/// records both so a noisy run can be traced to the host.
class HostWindow {
 public:
  HostWindow() : ticks_(read_cpu_ticks()), cpu_s_(process_cpu_s()) {}
  /// Stores host.steal_fraction and process.cpu_s in report.layer.
  void finish(Report& report) const;

 private:
  CpuTicks ticks_;
  double cpu_s_;
};

/// Fills in the per-layer self times and trace.* metrics from per-pass
/// layer self seconds of the traced passes and the pass latencies of the
/// traced and untraced passes.
void report_trace(Report& report,
                  const std::vector<std::map<std::string, double>>& pass_self,
                  const std::vector<double>& traced_ms,
                  const std::vector<double>& untraced_ms);

/// One line of provenance: host, compiler, build and source identity.
void print_provenance(const Options& options);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"},
/// with the end-to-end metrics when `trace` is false and the per-layer ones
/// when it is true. run.py checks the names and units against
/// BENCHMARK.json and adds the per-layer metrics of layers the workload
/// does not exercise as 0.
[[nodiscard]] std::string result_json(const Report& report, bool trace);

Report run_pipeline(const Options& options);
Report run_serve(const Options& options);
Report run_refresh(const Options& options);

}  // namespace perfbench
