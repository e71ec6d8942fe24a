// v2v_perfbench: one workload per process.
//
//   v2v_perfbench --workload pipeline|serve|refresh --seed N --seconds S
//                 --trace 0|1 [--work-dir DIR] [--git-sha SHA]
//                 [--source-digest HEX] [--corrupt 0|1]
//
// Prints a provenance line, progress lines, and as the last stdout line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics when --trace 0, the per-layer metrics when --trace 1.
// Exits 0 only when every output check passed.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "v2v_perfbench: " << why
            << "\nusage: v2v_perfbench --workload pipeline|serve|refresh --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--git-sha SHA] "
               "[--source-digest HEX] [--corrupt 0|1]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--git-sha") {
        options.git_sha = value;
      } else if (flag == "--source-digest") {
        options.source_digest = value;
      } else if (flag == "--corrupt") {
        options.corrupt = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.seconds <= 0.0 || options.seconds > 600.0) usage("--seconds out of range");
  if (options.workload != "pipeline" && options.workload != "serve" &&
      options.workload != "refresh") {
    usage("unknown workload " + options.workload);
  }
  return options;
}

perfbench::Report run_workload(const perfbench::Options& options) {
  if (options.workload == "pipeline") return perfbench::run_pipeline(options);
  if (options.workload == "serve") return perfbench::run_serve(options);
  return perfbench::run_refresh(options);
}

/// Peak RSS of one set-up and the warm-up pass, run in a child process
/// with glibc's mmap threshold fixed at 128 KiB. Under the dynamic
/// threshold, which the timed run keeps so that it allocates as the
/// shipped binaries do, the pipeline's peak RSS ranged over 78-115 MB for
/// the same live memory; with the fixed one it repeats within 1%. Call it
/// before any thread exists.
double probe_peak_rss_mb(const perfbench::Options& options) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("cannot fork the peak-RSS probe");
  if (pid == 0) {
    int code = 0;
    try {
      mallopt(M_MMAP_THRESHOLD, 128 * 1024);
      perfbench::Options probe = options;
      probe.probe = true;
      probe.corrupt = false;
      probe.work_dir = (std::filesystem::path(options.work_dir) / "probe").string();
      std::filesystem::create_directories(probe.work_dir);
      (void)run_workload(probe);
      std::filesystem::remove_all(probe.work_dir);
    } catch (const std::exception& e) {
      std::cerr << "v2v_perfbench: peak-RSS probe: " << e.what() << "\n";
      code = 1;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(code);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("lost the peak-RSS probe");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the peak-RSS probe failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  perfbench::print_provenance(options);
  std::fflush(stdout);
  try {
    std::filesystem::create_directories(options.work_dir);
    const double peak_rss = options.trace ? 0.0 : probe_peak_rss_mb(options);
    perfbench::Report report = run_workload(options);
    if (!options.trace) {
      report.e2e["peak_rss_mb"] = {peak_rss, "MB"};
      std::printf("host: steal %.4f of CPU time, process CPU %.2f s over the timed phase\n",
                  report.layer["host.steal_fraction"].value,
                  report.layer["process.cpu_s"].value);
    }
    const std::string line = perfbench::result_json(report, options.trace);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return report.correct && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "v2v_perfbench: " << e.what() << "\n";
    return 1;
  }
}
