// Workload `serve`: requests served over the binary protocol on loopback.
//
// A 5000 x 64 cosine FlatIndex over a generated clustered embedding is
// written as a snapshot and served from the mmap'd store. Two phases:
//
//  * open loop: one generator thread sends at a fixed 500 req/s over 4
//    non-blocking connections, whatever the server does. Each request is
//    timed from its due time, so a server stall also delays the requests
//    behind it. The rate is about a seventh of the closed-loop capacity of
//    this set-up on a 4-vCPU host: near the knee, latency flips between
//    two states from run to run. The rate never adapts to the capacity
//    measured, so every commit sees the same load.
//  * closed loop: 4 callers, each waiting for its reply before sending the
//    next, give the throughput.
//
// On a shared 4-vCPU VM much of a sub-millisecond request can be the
// host's rather than the program's. Four controls keep the figure the
// program's:
//
//  * Index size. The 1.3 MB index stays in the server core's L2 cache.
//    A 20k-row (5 MB) index was read from the shared L3 or from memory
//    depending on other tenants, and its scan time flipped between about
//    0.4 and 0.65 ms for seconds at a time.
//  * Placement. The server runs with the query tool's default of one
//    engine thread, and all its threads share one CPU; the generator has
//    another. Unpinned, the CPU each thread hand-off landed on decided how
//    many halted vCPUs a request woke, and p50 flipped between about 0.7
//    and 1.0 ms from window to window and run to run.
//  * No halts. While the open loop runs, an idle-priority thread spins on
//    the server CPU, as the generator spins on its own, so neither vCPU
//    halts: a wake-up is a guest context switch, not a trip through the
//    host scheduler, the 200 us batch linger no longer sits on the host's
//    halt-polling threshold, and the core is not handed to another tenant
//    between requests. The spinner runs only when no server thread wants
//    the CPU.
//  * Windows. The phase is split into 40 half-second windows, each
//    window's p50 and host steal are printed, and latency is the median of
//    the window p50s, so a few windows that a busy host slowed do not move
//    it.
//
// Batches never exceed 4 requests, so per-request scan, admission, linger
// and the socket path dominate. Every answer is compared bit for bit with
// a direct FlatIndex::search computed before the timed phases.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/query_engine.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/serve/client.hpp"
#include "v2v/serve/protocol.hpp"
#include "v2v/serve/server.hpp"
#include "v2v/serve/socket.hpp"
#include "v2v/store/snapshot.hpp"

namespace perfbench {
namespace {

using v2v::index::Neighbor;
using v2v::serve::RequestStatus;

constexpr std::size_t kRows = 5000;
constexpr std::size_t kDims = 64;
constexpr std::size_t kClusters = 100;
constexpr std::size_t kQueries = 1024;
constexpr std::size_t kTopK = 10;
constexpr double kRate = 500.0;  ///< open-loop requests per second
constexpr std::size_t kConnections = kThreads;
constexpr double kWarmupS = 1.0;
constexpr double kOpenShare = 0.8;  ///< of --seconds; the rest is closed loop
constexpr std::size_t kOpenWindows = 40;
/// Median send lag beyond which the generator, not the server, set the
/// pace: the run is invalid. A host stall delays a burst of sends but not
/// the median; a generator that cannot keep up delays most of them.
constexpr double kMaxLagP50Ms = 1.0;
constexpr double kDrainS = 5.0;              ///< wait for stragglers after the last send
/// Set-up takes a few ms. Its repetitions are spread over the run (before
/// the warm-up and after every open window), and the 10th percentile of
/// them is reported: host load only ever adds time, and in busy runs their
/// median rose 40%.
constexpr int kSetups = 5;
constexpr int kSetupsPerWindow = 1;
constexpr double kSetupQuantile = 0.1;

/// Gaussian blobs around distinct axis-aligned centres.
v2v::MatrixF clustered_points(std::uint64_t seed) {
  v2v::MatrixF points(kRows, kDims);
  v2v::Rng rng(seed);
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::size_t c = i % kClusters;
    for (std::size_t j = 0; j < kDims; ++j) {
      const double center = j == c % kDims ? 8.0 : 0.0;
      points(i, j) = static_cast<float>(center + rng.next_gaussian());
    }
  }
  return points;
}

v2v::MatrixF jittered_queries(const v2v::MatrixF& points, std::uint64_t seed) {
  v2v::MatrixF queries(kQueries, kDims);
  v2v::Rng rng(seed);
  for (std::size_t q = 0; q < kQueries; ++q) {
    const std::size_t src = rng.next_below(kRows);
    for (std::size_t j = 0; j < kDims; ++j) {
      queries(q, j) = points(src, j) + static_cast<float>(0.25 * rng.next_gaussian());
    }
  }
  return queries;
}

bool same_answer(const std::vector<Neighbor>& a, const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Everything the serving stack needs, from the snapshot to the socket.
struct Stack {
  std::optional<v2v::store::MappedEmbedding> mapped;
  std::unique_ptr<v2v::index::FlatIndex> flat;
  std::unique_ptr<v2v::index::QueryEngine> engine;
  std::unique_ptr<v2v::obs::MetricsRegistry> metrics;
  std::unique_ptr<v2v::serve::Server> server;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (server) server->stop();
  }
};

/// The CPU of the load generator and the one CPU every server thread runs
/// on: the first two the process may use, or none when it has only one.
struct Placement {
  int generator = -1;
  int server = -1;
};

Placement pick_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 2; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return {};
  return {cpus[0], cpus[1]};
}

/// Binds the calling thread, and the threads it starts from now on, to `cpu`.
void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("serve: cannot pin a thread to a CPU");
  }
}

/// A thread of the lowest scheduling class that spins on one CPU until
/// destroyed, so that the CPU never halts; any other thread that wants the
/// CPU preempts it at once.
class IdleSpinner {
 public:
  explicit IdleSpinner(int cpu) {
    if (cpu < 0) return;
    thread_ = std::thread([this, cpu] {
      pin_to(cpu);
      const sched_param param{};
      (void)sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;
  ~IdleSpinner() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Opens the snapshot, builds and warms the index, binds the server and
/// waits for the first correct answer. The server's threads, the
/// connection threads its acceptor starts later included, inherit the
/// server CPU; the caller returns to the generator CPU.
std::unique_ptr<Stack> start_stack(const std::string& path, const v2v::MatrixF& queries,
                                   const Placement& cpus) {
  pin_to(cpus.server);
  auto stack = std::make_unique<Stack>();
  stack->mapped.emplace(v2v::store::MappedEmbedding::open(path));
  stack->flat = std::make_unique<v2v::index::FlatIndex>(
      stack->mapped->view(), v2v::index::DistanceMetric::kCosine);
  stack->engine = std::make_unique<v2v::index::QueryEngine>(
      *stack->flat, v2v::index::QueryEngineConfig{.threads = 1});
  stack->engine->warmup();
  stack->metrics = std::make_unique<v2v::obs::MetricsRegistry>();
  v2v::serve::ServerConfig config;
  config.metrics = stack->metrics.get();
  stack->server = std::make_unique<v2v::serve::Server>(*stack->engine, config);
  auto client = v2v::serve::Client::connect(stack->server->host(), stack->server->port());
  const auto response = client.query(queries.row(0), kTopK);
  if (response.status != RequestStatus::kOk ||
      !same_answer(response.neighbors, stack->flat->search(queries.row(0), kTopK))) {
    throw std::runtime_error("serve: first answer is wrong");
  }
  pin_to(cpus.generator);
  return stack;
}

/// Outcome counts shared by both phases.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t refused = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t failed = 0;  ///< other statuses and transport errors

  void add(const Tally& o) {
    sent += o.sent;
    ok += o.ok;
    mismatched += o.mismatched;
    refused += o.refused;
    timed_out += o.timed_out;
    failed += o.failed;
  }
  /// Classifies one response; returns true when it is a correct answer.
  bool record(const v2v::serve::QueryResponse& response,
              const std::vector<Neighbor>& expected) {
    switch (response.status) {
      case RequestStatus::kOk:
        if (same_answer(response.neighbors, expected)) {
          ++ok;
          return true;
        }
        ++mismatched;
        return false;
      case RequestStatus::kOverloaded:
        ++refused;
        return false;
      case RequestStatus::kTimeout:
        ++timed_out;
        return false;
      default:
        ++failed;
        return false;
    }
  }
  [[nodiscard]] std::uint64_t errors() const {
    return mismatched + refused + timed_out + failed;
  }
};

struct LoadResult {
  Tally tally;
  std::vector<double> latency_ms;           ///< all answered requests
  std::vector<double> traced_ms, untraced_ms;
  std::vector<double> lag_ms;               ///< send time - due time
  std::vector<double> answered_at;          ///< completion times of correct answers
  std::size_t max_in_flight = 0;
  std::vector<std::map<std::string, double>> request_self;

  /// Pools another window's requests into this one.
  void add(const LoadResult& o) {
    tally.add(o.tally);
    const auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(latency_ms, o.latency_ms);
    append(traced_ms, o.traced_ms);
    append(untraced_ms, o.untraced_ms);
    append(lag_ms, o.lag_ms);
    append(answered_at, o.answered_at);
    append(request_self, o.request_self);
    max_in_flight = std::max(max_in_flight, o.max_in_flight);
  }
};

enum class Loop { kOpen, kClosed };

/// The load generator: one busy-polling thread driving `kConnections`
/// non-blocking connections for `duration` seconds.
///
/// Open loop: request i is due at start + i / kRate and goes to the
/// connection with the fewest requests in flight, whatever the server is
/// doing. Closed loop: each connection is one caller that sends its next
/// request as soon as its previous reply arrives.
///
/// With a tracer, every answered request is traced: a "serve.request" span
/// from due time to answer read, with a child "gen.send" span from due time
/// to send.
LoadResult drive(const Stack& stack, const v2v::MatrixF& queries,
                 const std::vector<std::vector<Neighbor>>& expected, Loop loop,
                 double duration, Tracer* tracer, bool corrupt) {
  struct Pending {
    std::uint64_t id = 0;
    std::size_t query = 0;
    double due = 0.0;
    double sent = 0.0;
  };
  struct Conn {
    v2v::serve::Socket socket;
    std::deque<Pending> in_flight;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
  };
  std::vector<std::vector<std::uint8_t>> frames(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    v2v::serve::QueryRequest request;
    request.k = kTopK;
    request.query.assign(queries.row(q).begin(), queries.row(q).end());
    frames[q] = v2v::serve::encode_request_frame(request);
  }
  std::vector<Conn> conns(kConnections);
  for (auto& c : conns) {
    c.socket = v2v::serve::tcp_connect(stack.server->host(), stack.server->port());
    const int flags = fcntl(c.socket.fd(), F_GETFL, 0);
    if (flags < 0 || fcntl(c.socket.fd(), F_SETFL, flags | O_NONBLOCK) < 0) {
      throw std::runtime_error("serve: cannot make a socket non-blocking");
    }
  }

  LoadResult result;
  const double start = now_s() + 0.005;
  const double end = start + duration;
  const auto total = static_cast<std::uint64_t>(std::llround(duration * kRate));
  const auto due = [&](std::uint64_t i) { return start + static_cast<double>(i) / kRate; };
  std::uint64_t next = 0;
  std::size_t in_flight = 0;

  const auto flush = [](Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = ::send(c.socket.fd(), c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        throw std::runtime_error("serve: send failed");
      }
      c.out.erase(c.out.begin(), c.out.begin() + n);
    }
  };
  const auto send = [&](Conn& c, double due_at) {
    const std::size_t q = next % kQueries;
    c.out.insert(c.out.end(), frames[q].begin(), frames[q].end());
    flush(c);
    const double sent = now_s();
    c.in_flight.push_back({next, q, due_at, sent});
    result.lag_ms.push_back(1e3 * (sent - due_at));
    ++result.tally.sent;
    ++next;
    result.max_in_flight = std::max(result.max_in_flight, ++in_flight);
  };

  if (loop == Loop::kClosed) {
    while (now_s() < start) {
    }
    for (auto& c : conns) send(c, now_s());
  }
  std::vector<pollfd> fds(kConnections);
  for (;;) {
    double now = now_s();
    if (loop == Loop::kOpen) {
      while (next < total && due(next) <= now) {
        Conn* best = &conns[0];
        for (auto& c : conns) {
          if (c.in_flight.size() < best->in_flight.size()) best = &c;
        }
        send(*best, due(next));
        now = now_s();
      }
      if (next >= total && in_flight == 0) break;
    } else if (now >= end && in_flight == 0) {
      break;
    }
    if (now > end + kDrainS) break;  // stragglers count as failed below

    for (std::size_t i = 0; i < kConnections; ++i) {
      fds[i] = {conns[i].socket.fd(),
                static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT)), 0};
    }
    // The open loop busy-polls: a sleeping generator on an idle vCPU wakes
    // milliseconds late, and that lag would be charged to the server. The
    // closed loop has no schedule to keep, so it sleeps and leaves every
    // vCPU to the server.
    timespec no_wait{0, 0};
    timespec until_end{0, 0};
    if (loop == Loop::kClosed) {
      const double left = std::max(1e-3, end + kDrainS - now);
      until_end = {static_cast<time_t>(left),
                   static_cast<long>((left - std::floor(left)) * 1e9)};
    }
    if (::ppoll(fds.data(), fds.size(), loop == Loop::kOpen ? &no_wait : &until_end,
                nullptr) < 0 &&
        errno != EINTR) {
      throw std::runtime_error("serve: ppoll failed");
    }
    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn& c = conns[i];
      if ((fds[i].revents & POLLOUT) != 0) flush(c);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::uint8_t buffer[16384];
      const ssize_t n = ::recv(c.socket.fd(), buffer, sizeof(buffer), 0);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
        throw std::runtime_error("serve: connection closed by the server");
      }
      if (n < 0) continue;
      const double read_at = now_s();
      c.in.insert(c.in.end(), buffer, buffer + n);
      std::size_t used = 0;
      while (c.in.size() - used >= v2v::serve::kFrameHeaderBytes) {
        const auto header = v2v::serve::decode_frame_header(
            {c.in.data() + used, v2v::serve::kFrameHeaderBytes});
        const std::size_t frame = v2v::serve::kFrameHeaderBytes + header.payload_bytes;
        if (header.magic != v2v::serve::kResponseMagic) {
          throw std::runtime_error("serve: bad response magic");
        }
        if (c.in.size() - used < frame) break;
        if (c.in_flight.empty()) throw std::runtime_error("serve: unexpected response");
        const Pending p = c.in_flight.front();
        c.in_flight.pop_front();
        --in_flight;
        v2v::serve::QueryResponse response;
        if (!v2v::serve::decode_response_payload(
                {c.in.data() + used + v2v::serve::kFrameHeaderBytes, header.payload_bytes},
                response)) {
          response.status = RequestStatus::kInternal;
        }
        used += frame;
        if (corrupt && p.id == 0 && !response.neighbors.empty()) {
          response.neighbors[0].distance = std::nextafter(response.neighbors[0].distance, 2.0);
        }
        if (response.status == RequestStatus::kOk ||
            response.status == RequestStatus::kTimeout) {
          const double ms = 1e3 * (read_at - p.due);
          result.latency_ms.push_back(ms);
          if (tracer != nullptr) {
            result.traced_ms.push_back(ms);
            const int root = tracer->add("serve.request", "serve", p.due, read_at, -1, p.id);
            tracer->add("gen.send", "gen", p.due, p.sent, root, p.id);
            result.request_self.push_back(tracer->self_seconds(root));
          } else {
            result.untraced_ms.push_back(ms);
          }
        }
        if (result.tally.record(response, expected[p.query])) {
          result.answered_at.push_back(read_at - start);
        }
        if (loop == Loop::kClosed && read_at < end) send(c, now_s());
      }
      c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(used));
    }
  }
  result.tally.failed += in_flight;  // never answered
  return result;
}

/// Median over about one-second windows of the phase of the rate of
/// correct answers completed in each.
double windowed_throughput(const LoadResult& load, double duration) {
  const auto windows = std::max<std::size_t>(1, static_cast<std::size_t>(duration));
  const double width = duration / static_cast<double>(windows);
  std::vector<double> per_window(windows, 0.0);
  for (const double at : load.answered_at) {
    const auto w = static_cast<std::size_t>(at / width);
    if (at >= 0.0 && w < windows) per_window[w] += 1.0 / width;
  }
  std::printf("serve: closed loop answers per second:");
  for (const double w : per_window) std::printf(" %.0f", w);
  std::printf("\n");
  return median(per_window);
}

/// Percentile of the requests recorded between two histogram snapshots,
/// interpolated inside the owning bucket as Histogram::quantile does.
double window_quantile(const v2v::obs::HistogramSnapshot& before,
                       const v2v::obs::HistogramSnapshot& after, double q) {
  const auto& cfg = after.config;
  const double width = (cfg.max - cfg.min) / static_cast<double>(cfg.buckets);
  std::vector<double> counts(after.buckets.size());
  double total = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    counts[b] = static_cast<double>(after.buckets[b] -
                                    (b < before.buckets.size() ? before.buckets[b] : 0));
    total += counts[b];
  }
  if (total == 0.0) return 0.0;
  const double target = q * total;
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] <= 0.0) continue;
    if (cumulative + counts[b] >= target) {
      const double fraction = std::clamp((target - cumulative) / counts[b], 0.0, 1.0);
      return cfg.min + (static_cast<double>(b) + fraction) * width;
    }
    cumulative += counts[b];
  }
  return cfg.max;
}

double window_mean(const v2v::obs::HistogramSnapshot& before,
                   const v2v::obs::HistogramSnapshot& after) {
  const auto count = after.count - before.count;
  return count == 0 ? 0.0 : (after.sum - before.sum) / static_cast<double>(count);
}

}  // namespace

Report run_serve(const Options& options) {
  Report report;
  const std::string path =
      (std::filesystem::path(options.work_dir) / "serve.v2v").string();
  const v2v::MatrixF points = clustered_points(options.seed);
  const v2v::MatrixF queries = jittered_queries(points, options.seed ^ 0x9e37u);
  v2v::store::EmbeddingStore::save(v2v::embed::Embedding(points), path);

  const Placement cpus = pick_cpus();
  pin_to(cpus.generator);
  std::vector<double> setup_s;
  const double t0 = now_s();
  auto stack = start_stack(path, queries, cpus);
  setup_s.push_back(now_s() - t0);
  // A repetition's stack is stopped (untimed) before the next starts.
  const auto repeat_setup = [&] {
    const double start = now_s();
    const auto again = start_stack(path, queries, cpus);
    setup_s.push_back(now_s() - start);
  };
  for (int i = 1; i < (options.probe ? 1 : kSetups); ++i) repeat_setup();
  std::printf("serve: %zu x %zu cosine flat index on %s:%u, server on CPU %d, "
              "generator on CPU %d\n",
              kRows, kDims, stack->server->host().c_str(), stack->server->port(),
              cpus.server, cpus.generator);

  // Expected answers, straight from the index; timing each one gives the
  // single-query scan cost.
  std::vector<std::vector<Neighbor>> expected(kQueries);
  std::vector<double> single_us(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    const double t = now_s();
    expected[q] = stack->flat->search(queries.row(q), kTopK);
    single_us[q] = 1e6 * (now_s() - t);
  }
  double direct_batch_qps = 0.0;
  if (options.trace) {
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
      const double t = now_s();
      (void)stack->engine->query_batch(queries, kTopK);
      rates.push_back(static_cast<double>(kQueries) / (now_s() - t));
    }
    direct_batch_qps = median(rates);
  }

  auto spinner = std::make_unique<IdleSpinner>(cpus.server);
  const Tally warm =
      drive(*stack, queries, expected, Loop::kOpen, kWarmupS, nullptr, false).tally;
  if (options.probe) {
    stack.reset();
    std::filesystem::remove(path);
    return report;
  }

  auto& latency_hist = stack->metrics->histogram("serve.latency_us");
  auto& occupancy_hist = stack->metrics->histogram("serve.batch_occupancy");
  auto& depth_hist = stack->metrics->histogram("serve.queue_depth");
  const auto latency0 = latency_hist.snapshot();
  const auto occupancy0 = occupancy_hist.snapshot();
  const auto depth0 = depth_hist.snapshot();

  const HostWindow host;
  // The traced run traces every other window; comparing traced and
  // untraced windows gives the tracing overhead.
  Tracer tracer(options.trace);
  LoadResult open;
  std::vector<double> window_p50, window_steal;
  for (std::size_t w = 0; w < kOpenWindows; ++w) {
    const CpuTicks ticks = read_cpu_ticks();
    const auto window_start = latency_hist.snapshot();
    const LoadResult part =
        drive(*stack, queries, expected, Loop::kOpen,
              kOpenShare * options.seconds / kOpenWindows,
              options.trace && w % 2 == 0 ? &tracer : nullptr, options.corrupt && w == 0);
    window_steal.push_back(steal_fraction(ticks, read_cpu_ticks()));
    if (!part.untraced_ms.empty()) window_p50.push_back(quantile(part.untraced_ms, 0.5));
    std::printf("serve: open window %zu: %zu answers, p50 %.3f ms (server %.3f ms), "
                "host steal %.4f%s\n",
                w + 1, part.latency_ms.size(), quantile(part.latency_ms, 0.5),
                1e-3 * window_quantile(window_start, latency_hist.snapshot(), 0.5),
                window_steal.back(), part.untraced_ms.empty() ? " (traced)" : "");
    open.add(part);
    for (int i = 0; i < kSetupsPerWindow; ++i) repeat_setup();
  }
  const auto latency1 = latency_hist.snapshot();
  const auto occupancy1 = occupancy_hist.snapshot();
  const auto depth1 = depth_hist.snapshot();
  spinner.reset();
  const double closed_s = (1.0 - kOpenShare) * options.seconds;
  const LoadResult closed =
      drive(*stack, queries, expected, Loop::kClosed, closed_s, nullptr, false);
  const double throughput = windowed_throughput(closed, closed_s);
  host.finish(report);
  stack.reset();
  std::filesystem::remove(path);

  Tally all = warm;
  all.add(open.tally);
  all.add(closed.tally);
  report.attempted = all.sent;
  report.failed = all.errors();
  if (all.mismatched > 0) report.fail("answers differ from direct FlatIndex::search");
  if (all.errors() > 0) {
    std::fprintf(stderr,
                 "serve: %llu mismatched, %llu refused, %llu timed out, %llu failed\n",
                 static_cast<unsigned long long>(all.mismatched),
                 static_cast<unsigned long long>(all.refused),
                 static_cast<unsigned long long>(all.timed_out),
                 static_cast<unsigned long long>(all.failed));
  }

  const double lag_p99_ms = quantile(open.lag_ms, 0.99);
  std::printf("serve: open loop %zu requests, p50 %.3f ms, p99 %.3f ms, generator "
              "lag p99 %.3f ms, max in flight %zu; closed loop %.0f req/s\n",
              open.latency_ms.size(), quantile(open.latency_ms, 0.5),
              quantile(open.latency_ms, 0.99), lag_p99_ms, open.max_in_flight,
              throughput);
  if (quantile(open.lag_ms, 0.5) > kMaxLagP50Ms) {
    // The load was not offered on schedule, so the latencies describe the
    // generator, not the server.
    throw std::runtime_error("serve: load generator fell behind schedule");
  }

  const double p50_ms = median(window_p50);
  auto& e = report.e2e;
  e["setup_s"] = {quantile(setup_s, kSetupQuantile), "s"};
  e["latency_ms"] = {p50_ms, "ms"};
  const double answered = static_cast<double>(all.ok + all.mismatched);
  e["quality"] = {answered > 0.0 ? static_cast<double>(all.ok) / answered : 0.0, "ratio"};
  const double error_rate =
      static_cast<double>(all.errors()) / static_cast<double>(all.sent);
  e["success_rate"] = {1.0 - error_rate, "ratio"};

  if (options.trace) {
    auto& m = report.layer;
    const double single = median(single_us);
    const double server_p50 = window_quantile(latency0, latency1, 0.5);
    m["index.single_query_us"] = {single, "us"};
    m["index.direct_batch_qps"] = {direct_batch_qps, "1/s"};
    m["serve.server_p50_us"] = {server_p50, "us"};
    m["serve.wait_us"] = {server_p50 - single, "us"};
    m["serve.overhead_us"] = {1e3 * p50_ms - server_p50, "us"};
    m["serve.batch_occupancy_mean"] = {window_mean(occupancy0, occupancy1), "count"};
    m["serve.queue_depth_mean"] = {window_mean(depth0, depth1), "count"};
    m["serve.throughput_per_s"] = {throughput, "1/s"};
    m["serve.direct_ratio"] = {throughput / direct_batch_qps, "ratio"};
    m["serve.p90_ms"] = {quantile(open.latency_ms, 0.9), "ms"};
    m["serve.p99_ms"] = {quantile(open.latency_ms, 0.99), "ms"};
    m["serve.p999_ms"] = {quantile(open.latency_ms, 0.999), "ms"};
    m["gen.lag_p99_ms"] = {lag_p99_ms, "ms"};
    m["gen.max_in_flight"] = {static_cast<double>(open.max_in_flight), "count"};
    m["host.steal_window_max"] = {*std::max_element(window_steal.begin(), window_steal.end()),
                                  "ratio"};
    m["error_rate"] = {error_rate, "ratio"};
    report_trace(report, open.request_self, open.traced_ms, open.untraced_ms);
    tracer.write_json(
        (std::filesystem::path(options.work_dir) / "trace-serve.json").string());
  }
  return report;
}

}  // namespace perfbench
