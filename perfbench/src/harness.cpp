#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "v2v/common/check.hpp"  // V2V_CHECKS_ENABLED

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

int Tracer::begin(std::string_view name, std::string_view layer, int parent) {
  if (!enabled_) return -1;
  const double t = now_s();
  return add(name, layer, t, t, parent);
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_s();
}

int Tracer::add(std::string_view name, std::string_view layer, double start,
                double end, int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {std::string(name), std::string(layer), start, end, parent, request});
  children_.emplace_back();
  if (parent >= 0) children_[static_cast<std::size_t>(parent)].push_back(id);
  return id;
}

std::map<std::string, double> Tracer::self_seconds(int root) const {
  std::map<std::string, double> self;
  std::vector<int> stack{root};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    const Span& span = spans_[static_cast<std::size_t>(id)];
    // Children of one span run one after another, so their durations
    // never overlap and their sum is the covered part.
    double covered = 0.0;
    for (const int child : children_[static_cast<std::size_t>(id)]) {
      const Span& c = spans_[static_cast<std::size_t>(child)];
      covered += c.end - c.start;
      stack.push_back(child);
    }
    self[span.layer] += std::max(0.0, span.end - span.start - covered);
  }
  return self;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"spans\":[\n";
  char buffer[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%d,\"request\":%llu}%s\n",
                  i, s.name.c_str(), s.layer.c_str(), s.start, s.end, s.parent,
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    out << buffer;
  }
  out << "]}\n";
}

void Report::fail(const std::string& why) {
  correct = false;
  static int printed = 0;
  if (printed++ < 5) std::cerr << "perfbench: output check failed: " << why << "\n";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

CpuTicks read_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  if (label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already counted in user.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_fraction(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void HostWindow::finish(Report& report) const {
  report.layer["host.steal_fraction"] = {steal_fraction(ticks_, read_cpu_ticks()),
                                         "ratio"};
  report.layer["process.cpu_s"] = {process_cpu_s() - cpu_s_, "s"};
}

namespace {

// "bench" is the benchmark's own code: time inside a pass that no layer
// span covers.
const char* const kLayers[] = {"graph", "walk",  "embed",   "ml",  "index",
                               "store", "serve", "dynamic", "gen", "bench"};

}  // namespace

void report_trace(Report& report,
                  const std::vector<std::map<std::string, double>>& pass_self,
                  const std::vector<double>& traced_ms,
                  const std::vector<double>& untraced_ms) {
  double self_sum_ms = 0.0;
  for (const char* layer : kLayers) {
    double total = 0.0;
    for (const auto& pass : pass_self) {
      const auto it = pass.find(layer);
      if (it != pass.end()) total += it->second;
    }
    const double per_pass_ms =
        pass_self.empty() ? 0.0
                          : 1e3 * total / static_cast<double>(pass_self.size());
    report.layer["self." + std::string(layer) + "_ms"] = {per_pass_ms, "ms"};
    if (std::string_view(layer) != "bench") self_sum_ms += per_pass_ms;
  }
  const double traced = mean(traced_ms);
  report.layer["trace.latency_ms"] = {median(traced_ms), "ms"};
  report.layer["trace.overhead_ms"] = {median(traced_ms) - median(untraced_ms),
                                       "ms"};
  report.layer["trace.self_sum_ratio"] = {traced > 0.0 ? self_sum_ms / traced : 0.0,
                                          "ratio"};
}

void print_provenance(const Options& options) {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
#if defined(__clang__)
  constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  constexpr const char* kCompiler = "gcc " __VERSION__;
#else
  constexpr const char* kCompiler = "unknown";
#endif
#ifdef NDEBUG
  constexpr bool ndebug = true;
#else
  constexpr bool ndebug = false;
#endif
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
      "\"cpu_model\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"ndebug\": %s, \"checks_enabled\": %d, \"git_sha\": \"%s\", "
      "\"source_digest\": \"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      sysconf(_SC_NPROCESSORS_ONLN), cpu_model.c_str(), kCompiler,
      PERFBENCH_BUILD_TYPE, ndebug ? "true" : "false", V2V_CHECKS_ENABLED,
      options.git_sha.c_str(), options.source_digest.c_str());
}

std::string result_json(const Report& report, bool trace) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : trace ? report.layer : report.e2e) {
    if (!std::isfinite(metric.value)) throw std::runtime_error("non-finite " + name);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", metric.value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
