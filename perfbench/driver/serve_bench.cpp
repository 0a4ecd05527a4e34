// serve_bench.cpp — the serve_mixed workload: a DecideServer under an
// open-loop request mix, with hot reloads beside the read path.
//
// Processes: the server runs in a forked child (DecideServer with 2
// workers; the child's main thread rewrites one profile between its two
// versions and calls reload() at a fixed cadence), so its CPU time and
// memory are measured apart from the load generator's.  The parent is the
// generator: one thread, an open-loop Poisson schedule over 2 connections,
// latency timed from each request's scheduled send (the discipline of
// serve/loadgen.hpp), and every response checked against in-process
// serve::decide on the profile version of the generation it reports.
//
// Generation g was published by the (g-1)-th reload (generation 1 is the
// initial load), and the reloader alternates versions, so g's profile
// version is (g - 1) % 2: 0 = the profile directory as given, 1 = with
// the alternate profile in place.  The child's reload log is checked
// against that rule.
#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "serve/client.hpp"
#include "serve/decide.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "stats/rng.hpp"
#include "trace/atomic_io.hpp"
#include "trace/json.hpp"
#include "trace/parse.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using sss::serve::DecideRequest;
using sss::serve::DecideResponse;
using sss::trace::JsonValue;

constexpr int kConnections = 2;
constexpr int kWorkers = 2;
// The profile the hot reload swaps between the stored version (in the
// profiles directory) and kAltProfile, both under --inputs.
constexpr const char* kProfilesDir = "profiles";
constexpr const char* kFlipName = "frib.json";
constexpr const char* kAltProfile = "frib_v2.json";
constexpr double kReloadMs = 200.0;
// A round is short (about 3 s) so that a run holds many of them, spread
// over the run: the host's speed drifts over seconds, and a figure taken
// from many rounds samples that drift instead of one moment of it.
// Set-up samples (server start to first answer) per round.
constexpr int kSetupReps = 16;
// The latency block: open-loop Poisson at kNominalRate for kNominalS, the
// first kWarmupS answered and checked but not measured.
constexpr double kNominalRate = 50000.0;
constexpr double kNominalS = 0.6;
constexpr double kWarmupS = 0.1;
// Batch bursts: kBurstSize requests all due at once, kBursts per round.
constexpr int kBursts = 10;
constexpr std::uint64_t kBurstSize = 20000;
// The rate ladder, in req/s, climbed once per round; rungs of kRungS with
// kRungWarmupS unmeasured.  It steps by 100k req/s around the 2-3M req/s
// knee of a 4-vCPU host, and rungs are short so that a run holds several
// rounds.
constexpr double kLadder[] = {1000e3, 1500e3, 2000e3, 2100e3, 2200e3, 2300e3, 2400e3,
                              2500e3, 2600e3, 2700e3, 2800e3, 2900e3, 3000e3, 3100e3,
                              3200e3, 3400e3, 3700e3, 4000e3, 4500e3, 5000e3};
constexpr double kRungS = 0.125;
constexpr double kRungWarmupS = 0.025;
// Offset of profile_generation inside the DecideResponse payload; the
// generation is the one field a response may legitimately differ in from
// the in-process answer computed on an unnumbered snapshot.
constexpr std::size_t kGenerationOffset = 48;
// A ladder rung with a median latency past this is deeply saturated.
constexpr double kSaturatedUs = 5000.0;
// Sampled request spans in traced phases: one request in this many.
constexpr std::uint64_t kRequestSpanStride = 64;

struct ServeConfig {
  std::string profiles_dir;
  std::string alt_profile;
  std::string mix_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string work_dir;
};

std::vector<DecideRequest> load_mix(const std::string& path) {
  const std::string text = sss::trace::read_text_file(path);
  std::vector<DecideRequest> mix;
  std::size_t begin = text.find('\n') + 1;  // skip the header
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::size_t at = 0;
    while (true) {
      const std::size_t comma = line.find(',', at);
      fields.push_back(line.substr(at, comma == std::string::npos ? comma : comma - at));
      if (comma == std::string::npos) break;
      at = comma + 1;
    }
    const auto size = fields.size() == 4 ? sss::trace::parse_uint64(fields[1]) : std::nullopt;
    const auto util = fields.size() == 4 ? sss::trace::parse_double(fields[2]) : std::nullopt;
    const auto hops = fields.size() == 4 ? sss::trace::parse_uint64(fields[3]) : std::nullopt;
    if (!size || !util || !hops) throw std::runtime_error("bad mix line: " + line);
    DecideRequest request;
    request.facility = fields[0];
    request.transfer_size_bytes = *size;
    request.operating_utilization = *util;
    request.path_hops = static_cast<std::uint32_t>(*hops);
    mix.push_back(request);
  }
  if (mix.empty()) throw std::runtime_error("empty request mix " + path);
  return mix;
}

std::string response_payload(const DecideResponse& response) {
  std::string frame;
  sss::serve::append_decide_response(frame, response);
  return frame.substr(sss::serve::kHeaderSize);
}

// Profiles of both versions: the directory as given, and with the
// alternate report in place of kFlipName.
std::vector<sss::serve::FacilityProfile> load_version(const ServeConfig& config, int version) {
  std::vector<sss::serve::FacilityProfile> profiles =
      sss::serve::load_profile_dir(config.profiles_dir);
  if (version == 0) return profiles;
  const sss::serve::FacilityProfile alt = sss::serve::profile_from_report_json(
      JsonValue::parse(sss::trace::read_text_file(config.alt_profile)),
      fs::path(kFlipName).stem().string());
  for (auto& profile : profiles) {
    if (profile.name == alt.name) profile = alt;
  }
  return profiles;
}

// In-process answers: expected[version][template] is the response payload
// serve::decide gives on that version's snapshot (generation field 0).
struct Expected {
  std::vector<std::string> payload[2];
};

Expected build_expected(const ServeConfig& config, const std::vector<DecideRequest>& mix) {
  Expected expected;
  for (int version = 0; version < 2; ++version) {
    const sss::serve::ServiceSnapshot snapshot(0, load_version(config, version));
    for (const DecideRequest& request : mix) {
      expected.payload[version].push_back(
          response_payload(sss::serve::decide(snapshot, request)));
    }
  }
  return expected;
}

bool same_answer(const std::string& want, const unsigned char* got, std::size_t size) {
  return size == want.size() && std::memcmp(want.data(), got, kGenerationOffset) == 0 &&
         std::memcmp(want.data() + kGenerationOffset + 8, got + kGenerationOffset + 8,
                     size - kGenerationOffset - 8) == 0;
}

void copy_profiles(const std::string& from, const std::string& to) {
  fs::create_directories(to);
  for (const fs::directory_entry& entry : fs::directory_iterator(from)) {
    if (entry.path().extension() == ".json") {
      fs::copy_file(entry.path(), fs::path(to) / entry.path().filename(),
                    fs::copy_options::overwrite_existing);
    }
  }
}

// --- the server child ------------------------------------------------------

// Runs in the forked child: start the server, report its port on
// `ready_fd`, reload at the configured cadence until `control_fd` reaches
// EOF, then write the server's stats and the reload log to `result_path`.
[[noreturn]] void server_child(const ServeConfig& config, const std::string& live_dir,
                               int ready_fd, int control_fd, const std::string& result_path) {
  JsonValue result = JsonValue::object();
  int code = 0;
  try {
    sss::serve::ServerConfig server_config;
    server_config.workers = kWorkers;
    server_config.profile_dir = live_dir;
    sss::serve::DecideServer server(server_config);
    server.start();
    const std::uint16_t port = server.port();
    if (::write(ready_fd, &port, sizeof(port)) != static_cast<ssize_t>(sizeof(port))) {
      throw std::runtime_error("cannot report the server port");
    }
    ::close(ready_fd);

    const std::string flip_path = live_dir + "/" + kFlipName;
    const std::string versions[2] = {
        sss::trace::read_text_file(config.profiles_dir + "/" + kFlipName),
        sss::trace::read_text_file(config.alt_profile)};
    constexpr auto period_ns = static_cast<std::int64_t>(kReloadMs * 1e6);
    std::int64_t next = now_ns() + period_ns;
    int version = 0;
    JsonValue reloads = JsonValue::array();
    while (true) {
      pollfd control{control_fd, POLLIN, 0};
      const std::int64_t wait_ns = std::max<std::int64_t>(0, next - now_ns());
      const int ready = ::poll(&control, 1, static_cast<int>(wait_ns / 1000000));
      if (ready > 0) break;  // the generator closed its end: stop
      if (ready < 0 && errno == EINTR) continue;
      if (now_ns() < next) continue;
      version ^= 1;
      sss::trace::write_text_file_atomic(flip_path, versions[version]);
      JsonValue reload = JsonValue::object();
      reload["version"] = version;
      reload["start_ns"] = now_ns();
      try {
        reload["generation"] = static_cast<double>(server.reload());
      } catch (const std::exception& e) {
        reload["error"] = e.what();
      }
      reload["end_ns"] = now_ns();
      reloads.push_back(std::move(reload));
      next += period_ns;
    }
    result["stats"] = JsonValue::parse(server.stats_json());
    result["reloads"] = std::move(reloads);
    result["reload_errors"] = static_cast<double>(server.reload_errors());
    server.stop();
  } catch (const std::exception& e) {
    result["error"] = e.what();
    code = 1;
  }
  try {
    sss::trace::write_text_file_atomic(result_path, result.dump(1) + "\n");
  } catch (const std::exception&) {
    code = 1;
  }
  std::_Exit(code);
}

// The forked server, stopped and reaped on every exit path.
class ServerProcess {
 public:
  ServerProcess(const ServeConfig& config, const std::string& live_dir,
                const std::string& result_path) {
    int ready[2];
    int control[2];
    if (::pipe(ready) != 0 || ::pipe(control) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::close(ready[0]);
      ::close(control[1]);
      server_child(config, live_dir, ready[1], control[0], result_path);
    }
    ::close(ready[1]);
    ::close(control[0]);
    control_fd_ = control[1];
    pollfd wait{ready[0], POLLIN, 0};
    const bool got = ::poll(&wait, 1, 20000) > 0 &&
                     ::read(ready[0], &port_, sizeof(port_)) == static_cast<ssize_t>(sizeof(port_));
    ::close(ready[0]);
    if (!got) {
      stop();
      throw std::runtime_error("the server process did not start");
    }
    if (::clock_getcpuclockid(pid_, &cpu_clock_) != 0) {
      stop();
      throw std::runtime_error("no CPU clock for the server process");
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  // The server process's peak resident set so far (VmHWM), in KiB.
  [[nodiscard]] long peak_rss_kib() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
    }
    return 0;
  }

  // CPU time of the whole server process (workers, accept loop, reloads).
  [[nodiscard]] double cpu_s() const {
    timespec ts{};
    if (::clock_gettime(cpu_clock_, &ts) != 0) return 0.0;
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  // Close the control pipe and reap the child; returns true on a clean exit.
  // A child that has not exited after 20 s is killed.
  bool stop() {
    if (pid_ <= 0) return exited_cleanly_;
    if (control_fd_ >= 0) ::close(control_fd_);
    control_fd_ = -1;
    int status = 0;
    for (int i = 0; i < 2000; ++i) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        exited_cleanly_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
        return exited_cleanly_;
      }
      ::usleep(10000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return false;
  }

 private:
  pid_t pid_ = -1;
  int control_fd_ = -1;
  std::uint16_t port_ = 0;
  clockid_t cpu_clock_{};
  bool exited_cleanly_ = false;
};

// --- the open-loop generator -----------------------------------------------

// Owns one file descriptor and closes it on destruction.
class UniqueFd {
 public:
  explicit UniqueFd(int fd = -1) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  ~UniqueFd() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

struct PhaseResult {
  double offered_rate = 0.0;
  double duration_s = 0.0;
  double warmup_s = 0.0;
  std::uint64_t scheduled = 0;
  std::uint64_t answered = 0;
  std::uint64_t measured = 0;
  std::uint64_t failed = 0;
  std::uint64_t decisions[3] = {0, 0, 0};
  std::uint64_t generation_min = 0;
  std::uint64_t generation_max = 0;
  double wall_s = 0.0;
  double server_cpu_s = 0.0;
  std::vector<float> latency_us;  // measured window, ok responses
  std::vector<float> late_us;     // measured window, send time - scheduled time
  std::vector<std::string> failures;
};

struct Pending {
  double scheduled_s;
  std::uint32_t templ;
  bool measured;
  std::uint64_t sequence;
};

struct Connection {
  UniqueFd fd;
  sss::serve::FrameReader reader;
  std::string out;
  std::size_t out_offset = 0;
  bool want_write = false;
  std::deque<Pending> pending;
};

class Generator {
 public:
  Generator(std::uint16_t port, const std::vector<DecideRequest>& mix, const Expected& expected,
            std::uint64_t seed)
      : expected_(expected), rng_(seed) {
    for (const DecideRequest& request : mix) {
      frames_.emplace_back();
      sss::serve::append_decide_request(frames_.back(), request);
    }
    if (epoll_fd_.get() < 0) throw std::runtime_error("epoll_create1 failed");
    for (int i = 0; i < kConnections; ++i) {
      conns_.emplace_back();
      conns_.back().fd =
          UniqueFd(sss::serve::connect_tcp("127.0.0.1", port, /*nonblocking=*/true));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conns_.back().fd.get(), &ev) != 0) {
        throw std::runtime_error("epoll_ctl failed");
      }
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // One open-loop phase at `rate` for `duration_s`; requests scheduled in
  // the first `warmup_s` are answered and checked but not measured.  With
  // `burst` > 0 the phase is instead `burst` requests all due at time 0
  // (a batch client), every one measured.  With `spans`, one request in
  // kRequestSpanStride is recorded as a span from its scheduled send to
  // its answer.  Throws when the server drops a connection or leaves a
  // request unanswered past the drain timeout.
  PhaseResult run(double rate, double duration_s, double warmup_s, std::uint64_t burst,
                  const ServerProcess& server, SpanRecorder& spans, std::int64_t parent) {
    constexpr double kNever = std::numeric_limits<double>::infinity();
    PhaseResult result;
    result.offered_rate = rate;
    result.duration_s = duration_s;
    result.warmup_s = warmup_s;
    const std::int64_t epoch = now_ns();
    const double cpu0 = server.cpu_s();
    auto clock = [epoch] { return static_cast<double>(now_ns() - epoch) * 1e-9; };
    double last_answer = 0.0;
    const double send_until = burst > 0 ? kNever : duration_s;
    std::uint64_t burst_left = burst;
    auto next_after = [&](double at) {
      if (burst > 0) return --burst_left > 0 ? 0.0 : kNever;
      return at + rng_.exponential(rate);
    };
    double next_arrival = burst > 0 ? 0.0 : rng_.exponential(rate);
    double send_stopped = -1.0;
    std::size_t next_conn = 0;
    bool generation_seen = false;

    auto answer = [&](Connection& conn, const sss::serve::Frame& frame, double now) {
      if (conn.pending.empty()) throw std::runtime_error("unsolicited frame from the server");
      const Pending request = conn.pending.front();
      conn.pending.pop_front();
      result.answered += 1;
      last_answer = now;
      std::string problem;
      std::optional<DecideResponse> response;
      if (frame.header.type != static_cast<std::uint16_t>(
                                   sss::serve::MessageType::kDecideResponse)) {
        problem = "error frame";
      } else if (!(response = sss::serve::decode_decide_response(frame.payload,
                                                                 frame.payload_size))) {
        problem = "undecodable response";
      } else if (response->status != 0) {
        problem = "status " + std::to_string(response->status);
      } else if (response->profile_generation == 0) {
        problem = "generation 0";
      } else {
        const std::size_t version = (response->profile_generation - 1) % 2;
        if (!same_answer(expected_.payload[version][request.templ], frame.payload,
                         frame.payload_size)) {
          problem = "differs from in-process decide";
        }
      }
      if (!problem.empty()) {
        result.failed += 1;
        if (result.failures.size() < 10) {
          result.failures.push_back("request " + std::to_string(request.sequence) +
                                    " (template " + std::to_string(request.templ) +
                                    "): " + problem);
        }
        return;
      }
      const std::uint64_t generation = response->profile_generation;
      if (!generation_seen) {
        result.generation_min = result.generation_max = generation;
        generation_seen = true;
      }
      result.generation_min = std::min(result.generation_min, generation);
      result.generation_max = std::max(result.generation_max, generation);
      if (!request.measured) return;
      result.measured += 1;
      result.decisions[std::min<std::uint32_t>(
          static_cast<std::uint32_t>(response->decision), 2)] += 1;
      result.latency_us.push_back(static_cast<float>((now - request.scheduled_s) * 1e6));
      if (spans.enabled() && request.sequence % kRequestSpanStride == 0) {
        Span span;
        span.name = "serve.request";
        span.start_ns = epoch + static_cast<std::int64_t>(request.scheduled_s * 1e9);
        span.end_ns = epoch + static_cast<std::int64_t>(now * 1e9);
        span.parent = parent;
        span.id = static_cast<std::int64_t>(request.sequence);
        spans.add(span);
      }
    };

    auto drain = [&](std::size_t index) {
      Connection& conn = conns_[index];
      char buf[65536];
      while (true) {
        const ssize_t n = ::read(conn.fd.get(), buf, sizeof(buf));
        if (n > 0) {
          conn.reader.feed(buf, static_cast<std::size_t>(n));
          if (static_cast<std::size_t>(n) < sizeof(buf)) break;
          continue;
        }
        if (n == 0) throw std::runtime_error("the server closed a connection");
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("read: ") + std::strerror(errno));
      }
      const double now = clock();
      while (const std::optional<sss::serve::Frame> frame = conn.reader.next()) {
        answer(conn, *frame, now);
      }
      if (conn.reader.error() != sss::serve::ErrorCode::kNone) {
        throw std::runtime_error("malformed response stream");
      }
    };

    auto flush = [&](std::size_t index) {
      Connection& conn = conns_[index];
      while (conn.out_offset < conn.out.size()) {
        const ssize_t n = ::send(conn.fd.get(), conn.out.data() + conn.out_offset,
                                 conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
        if (n > 0) {
          conn.out_offset += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("connection lost while sending");
      }
      if (conn.out_offset == conn.out.size()) {
        conn.out.clear();
        conn.out_offset = 0;
      }
      const bool want = conn.out_offset < conn.out.size();
      if (want != conn.want_write) {
        conn.want_write = want;
        epoll_event ev{};
        ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
        ev.data.u32 = static_cast<std::uint32_t>(index);
        (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
      }
    };

    constexpr double kDrainTimeoutS = 5.0;
    epoll_event events[16];
    while (true) {
      const double now = clock();
      const bool sending = next_arrival < send_until;
      if (!sending && send_stopped < 0.0) send_stopped = now;
      if (sending && next_arrival <= now) {
        while (next_arrival <= now && next_arrival < send_until) {
          Connection& conn = conns_[next_conn];
          const auto templ = static_cast<std::uint32_t>(cursor_ % frames_.size());
          const bool measured = next_arrival >= warmup_s;
          conn.out.append(frames_[templ]);
          conn.pending.push_back(Pending{next_arrival, templ, measured, sequence_});
          if (measured) result.late_us.push_back(static_cast<float>((now - next_arrival) * 1e6));
          cursor_ += 1;
          sequence_ += 1;
          result.scheduled += 1;
          next_conn = (next_conn + 1) % conns_.size();
          next_arrival = next_after(next_arrival);
        }
        for (std::size_t i = 0; i < conns_.size(); ++i) flush(i);
      }
      bool in_flight = false;
      for (const Connection& conn : conns_) in_flight = in_flight || !conn.pending.empty();
      if (!sending && !in_flight) break;
      if (!sending && clock() > send_stopped + kDrainTimeoutS) {
        throw std::runtime_error("requests left unanswered past the drain timeout");
      }
      int timeout_ms = 10;
      if (sending) {
        const double gap_s = next_arrival - clock();
        timeout_ms = gap_s <= 0.0 ? 0 : static_cast<int>(gap_s * 1000.0);
      }
      const int n = ::epoll_wait(epoll_fd_.get(), events, 16, timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("epoll_wait: ") + std::strerror(errno));
      }
      for (int i = 0; i < n; ++i) {
        const std::size_t index = events[i].data.u32;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          throw std::runtime_error("connection reset by the server");
        }
        if (events[i].events & EPOLLOUT) flush(index);
        if (events[i].events & EPOLLIN) drain(index);
      }
    }
    result.wall_s = last_answer;
    result.server_cpu_s = server.cpu_s() - cpu0;
    return result;
  }

 private:
  const Expected& expected_;
  std::vector<std::string> frames_;
  UniqueFd epoll_fd_{::epoll_create1(EPOLL_CLOEXEC)};
  std::vector<Connection> conns_;
  sss::stats::Random rng_;
  std::uint64_t cursor_ = 0;
  std::uint64_t sequence_ = 0;
};

void write_floats(const std::string& path, const std::vector<float>& values) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(values.size() * sizeof(float)));
  if (!file) throw std::runtime_error("cannot write " + path);
}

JsonValue phase_json(const PhaseResult& phase, const std::string& kind, int round,
                     const std::string& name, const std::string& work_dir, bool samples) {
  JsonValue json = JsonValue::object();
  json["kind"] = kind;
  json["round"] = round;
  json["name"] = name;
  json["offered_rate"] = phase.offered_rate;
  json["duration_s"] = phase.duration_s;
  json["warmup_s"] = phase.warmup_s;
  json["scheduled"] = static_cast<double>(phase.scheduled);
  json["answered"] = static_cast<double>(phase.answered);
  json["measured"] = static_cast<double>(phase.measured);
  json["failed"] = static_cast<double>(phase.failed);
  JsonValue decisions = JsonValue::object();
  decisions["local"] = static_cast<double>(phase.decisions[0]);
  decisions["stream"] = static_cast<double>(phase.decisions[1]);
  decisions["stage"] = static_cast<double>(phase.decisions[2]);
  json["decisions"] = std::move(decisions);
  json["generation_min"] = static_cast<double>(phase.generation_min);
  json["generation_max"] = static_cast<double>(phase.generation_max);
  json["wall_s"] = phase.wall_s;
  json["server_cpu_s"] = phase.server_cpu_s;
  if (samples) {
    const std::string latency_file = name + ".latency_us.f32";
    const std::string late_file = name + ".late_us.f32";
    write_floats(work_dir + "/" + latency_file, phase.latency_us);
    write_floats(work_dir + "/" + late_file, phase.late_us);
    json["latency_file"] = latency_file;
    json["late_file"] = late_file;
  }
  JsonValue failures = JsonValue::array();
  for (const std::string& failure : phase.failures) failures.push_back(failure);
  json["failures"] = std::move(failures);
  return json;
}

// In-process cost of the per-request serve calls over the whole mix:
// request decode, decide, and response encode, `reps` passes each.
void time_calls(const std::vector<DecideRequest>& mix,
                const sss::serve::ServiceSnapshot& snapshot, SpanRecorder& spans, int reps) {
  std::vector<std::string> payloads;
  std::vector<DecideResponse> responses;
  for (const DecideRequest& request : mix) {
    std::string frame;
    sss::serve::append_decide_request(frame, request);
    payloads.push_back(frame.substr(sss::serve::kHeaderSize));
    responses.push_back(sss::serve::decide(snapshot, request));
  }
  const auto count = static_cast<std::int64_t>(mix.size()) * reps;
  std::uint64_t sink = 0;
  {
    ScopedSpan span(spans, "serve.decode");
    for (int r = 0; r < reps; ++r) {
      for (const std::string& payload : payloads) {
        const auto request = sss::serve::decode_decide_request(
            reinterpret_cast<const unsigned char*>(payload.data()), payload.size());
        sink += request.has_value() ? request->path_hops : 1u;
      }
    }
    span.set_count(count);
  }
  {
    ScopedSpan span(spans, "serve.decide");
    for (int r = 0; r < reps; ++r) {
      for (const DecideRequest& request : mix) {
        sink += static_cast<std::uint64_t>(sss::serve::decide(snapshot, request).decision);
      }
    }
    span.set_count(count);
  }
  {
    ScopedSpan span(spans, "serve.encode");
    std::string out;
    for (int r = 0; r < reps; ++r) {
      for (const DecideResponse& response : responses) {
        out.clear();
        sss::serve::append_decide_response(out, response);
        sink += out.size();
      }
    }
    span.set_count(count);
  }
  if (sink == 0) std::fprintf(stderr, "unreachable: empty call loop\n");
}

}  // namespace

int run_serve(const Options& options) {
  ServeConfig config;
  const std::string inputs = options.str("inputs");
  config.profiles_dir = inputs + "/" + kProfilesDir;
  config.alt_profile = inputs + "/" + kAltProfile;
  config.mix_path = options.str("mix");
  config.seed = options.u64("seed");
  config.seconds = options.num("seconds");
  config.work_dir = options.str("work");
  const bool traced = options.u64("trace") != 0;
  const std::string out_path = options.str("out");

  fs::create_directories(config.work_dir);
  const std::string live_dir = config.work_dir + "/profiles";
  fs::remove_all(live_dir);
  copy_profiles(config.profiles_dir, live_dir);

  const std::vector<DecideRequest> mix = load_mix(config.mix_path);
  const Expected expected = build_expected(config, mix);
  SpanRecorder spans(traced);
  JsonValue out = JsonValue::object();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  JsonValue failures = JsonValue::array();

  // Set-up: server start (profile load included) to the first answered
  // request, from a copy of the profiles the reloader does not touch.  The
  // servers run in this process; stop() joins every thread they started.
  const std::string setup_dir = config.work_dir + "/setup_profiles";
  fs::remove_all(setup_dir);
  copy_profiles(config.profiles_dir, setup_dir);
  JsonValue setup_s = JsonValue::array();
  auto measure_setup = [&] {
    const auto index = static_cast<std::int64_t>(setup_s.as_array().size());
    const std::int64_t setup = spans.open("serve.setup", -1, index);
    const std::int64_t t0 = now_ns();
    sss::serve::ServerConfig server_config;
    server_config.workers = kWorkers;
    server_config.profile_dir = setup_dir;
    sss::serve::DecideServer server(server_config);
    {
      const ScopedSpan span(spans, "serve.start", setup, index);
      server.start();
    }
    DecideResponse response;
    {
      const ScopedSpan span(spans, "serve.first_answer", setup, index);
      sss::serve::DecideClient client("127.0.0.1", server.port());
      response = client.decide(mix.front());
    }
    const std::int64_t t1 = now_ns();
    spans.close(setup);
    server.stop();
    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    attempted += 1;
    const std::string payload = response_payload(response);
    if (response.profile_generation != 1 ||
        !same_answer(expected.payload[0][0],
                     reinterpret_cast<const unsigned char*>(payload.data()), payload.size())) {
      failed += 1;
      failures.push_back("set-up request answered wrongly");
    }
  };
  for (int i = 0; traced && i < kSetupReps; ++i) measure_setup();

  if (traced) {
    for (int i = 0; i < 5; ++i) {
      const ScopedSpan span(spans, "serve.load_profiles", -1, i);
      (void)sss::serve::load_profile_dir(setup_dir);
    }
    const sss::serve::ServiceSnapshot snapshot(1, load_version(config, 0));
    time_calls(mix, snapshot, spans, 50);
  }

  JsonValue phases = JsonValue::array();
  {
    const std::string server_result = config.work_dir + "/server.json";
    fs::remove(server_result);
    ServerProcess server(config, live_dir, server_result);
    try {
      Generator generator(server.port(), mix, expected, config.seed);
      auto run_phase = [&](const std::string& kind, int round, double rate, double duration,
                           double warmup, std::uint64_t burst, bool trace_phase) {
        SpanRecorder off(false);
        SpanRecorder& recorder = trace_phase ? spans : off;
        ScopedSpan span(recorder, "serve.phase", -1, round);
        const PhaseResult phase =
            generator.run(rate, duration, warmup, burst, server, recorder, span.index());
        span.set_count(static_cast<std::int64_t>(phase.scheduled));
        attempted += phase.scheduled;
        failed += phase.failed;
        for (const std::string& failure : phase.failures) failures.push_back(failure);
        const std::string name = "r" + std::to_string(round) + "." + kind +
                                 std::to_string(phases.as_array().size());
        phases.push_back(phase_json(phase, kind, round, name, config.work_dir,
                                    /*samples=*/burst == 0));
        return phase;
      };
      if (traced) {
        run_phase("nominal", 0, kNominalRate, kNominalS, kWarmupS, 0, false);
        run_phase("nominal_traced", 0, kNominalRate, kNominalS, kWarmupS, 0, true);
      }
      // Rounds until the measuring time is used up: a nominal-rate block,
      // batch bursts, then one pass up the rate ladder.  Host stalls come
      // and go over seconds, so every figure is taken per round (or per
      // window) and the medians across rounds are reported.
      const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(config.seconds * 1e9);
      std::int64_t round_ns = 0;
      for (int round = 0; !traced && (round == 0 || now_ns() + round_ns <= deadline); ++round) {
        const std::int64_t round_start = now_ns();
        for (int i = 0; i < kSetupReps; ++i) measure_setup();
        run_phase("nominal", round, kNominalRate, kNominalS, kWarmupS, 0, false);
        if (round == 0) out["server_peak_rss_kib"] = static_cast<double>(server.peak_rss_kib());
        for (int b = 0; b < kBursts; ++b) {
          run_phase("burst", round, 0.0, 0.0, 0.0, kBurstSize, false);
        }
        // Climb the whole ladder, unless a rung is saturated so deeply (p50
        // past kSaturatedUs) that the rungs above it could only pile up a
        // backlog.
        for (const double rate : kLadder) {
          PhaseResult rung = run_phase("rung", round, rate, kRungS, kRungWarmupS, 0, false);
          std::vector<float>& latency = rung.latency_us;
          const auto mid = latency.begin() + static_cast<std::ptrdiff_t>(latency.size() / 2);
          if (latency.empty()) break;
          std::nth_element(latency.begin(), mid, latency.end());
          if (*mid > kSaturatedUs) break;
        }
        round_ns = now_ns() - round_start;
      }
    } catch (const std::exception& e) {
      attempted += 1;
      failed += 1;
      failures.push_back(std::string("generator: ") + e.what());
    }
    if (!server.stop()) {
      attempted += 1;
      failed += 1;
      failures.push_back("the server process did not exit cleanly");
    }
    JsonValue child = JsonValue::object();
    try {
      child = JsonValue::parse(sss::trace::read_text_file(server_result));
    } catch (const std::exception& e) {
      child["error"] = std::string("no server result: ") + e.what();
    }
    // The reload log must follow the version rule the checks assume.
    if (const JsonValue* reloads = child.find("reloads")) {
      std::uint64_t expect = 2;
      for (const JsonValue& reload : reloads->as_array()) {
        attempted += 1;
        const JsonValue* generation = reload.find("generation");
        const bool ok = generation != nullptr &&
                        static_cast<std::uint64_t>(generation->as_double()) == expect &&
                        static_cast<std::uint64_t>(reload.at("version").as_double()) ==
                            (expect - 1) % 2;
        if (!ok) {
          failed += 1;
          failures.push_back("reload " + std::to_string(expect - 1) + " broke the version rule");
        }
        if (traced) {
          Span span;
          span.name = "serve.reload";
          span.start_ns = static_cast<std::int64_t>(reload.at("start_ns").as_double());
          span.end_ns = static_cast<std::int64_t>(reload.at("end_ns").as_double());
          span.id = static_cast<std::int64_t>(expect);
          spans.add(span);
        }
        expect += 1;
      }
    }
    if (const JsonValue* error = child.find("error")) {
      attempted += 1;
      failed += 1;
      failures.push_back("server: " + error->as_string());
    }
    out["server"] = std::move(child);
  }
  out["setup_s"] = std::move(setup_s);
  out["phases"] = std::move(phases);
  if (traced) out["spans"] = spans.to_json();
  out["mix_size"] = mix.size();
  out["attempted"] = static_cast<double>(attempted);
  out["failed"] = static_cast<double>(failed);
  out["failures"] = std::move(failures);
  sss::trace::write_text_file_atomic(out_path, out.dump(1) + "\n");
  return 0;
}

}  // namespace perfbench
