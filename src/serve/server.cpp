#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "serve/decide.hpp"
#include "serve/protocol.hpp"
#include "trace/json.hpp"

namespace sss::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// --- worker ----------------------------------------------------------------

struct DecideServer::Worker {
  DecideServer* server = nullptr;
  int index = 0;
  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd: new connections queued or stop requested
  std::thread thread;
  WorkerStats stats;

  std::mutex inbox_mutex;
  std::vector<int> inbox;  // fds handed over by the accept thread

  struct Connection {
    FrameReader reader;
    std::string out;          // encoded responses awaiting write
    std::size_t out_offset = 0;
    bool close_after_flush = false;
    bool want_write = false;  // EPOLLOUT currently armed
  };
  std::unordered_map<int, Connection> connections;
  DecideRequest scratch_request;  // decode target; keeps its capacity across requests

  ~Worker() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void enqueue(int fd) {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex);
      inbox.push_back(fd);
    }
    const std::uint64_t one = 1;
    (void)!::write(wake_fd, &one, sizeof(one));
  }

  void wake() {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd, &one, sizeof(one));
  }

  void adopt_pending() {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> lock(inbox_mutex);
      fds.swap(inbox);
    }
    for (int fd : fds) {
      set_nodelay(fd);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      connections.emplace(fd, Connection{});
      stats.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      stats.connections_open.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void close_connection(int fd) {
    connections.erase(fd);
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    stats.connections_open.fetch_sub(1, std::memory_order_relaxed);
  }

  void update_write_interest(int fd, Connection& conn) {
    const bool pending = conn.out_offset < conn.out.size();
    if (pending == conn.want_write) return;
    conn.want_write = pending;
    epoll_event ev{};
    ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
  }

  // Flush the coalesced response buffer.  Returns false when the
  // connection died (and was closed).
  bool flush(int fd, Connection& conn) {
    while (conn.out_offset < conn.out.size()) {
      const ssize_t n = ::send(fd, conn.out.data() + conn.out_offset,
                               conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_offset += static_cast<std::size_t>(n);
        stats.bytes_out.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_connection(fd);
      return false;
    }
    if (conn.out_offset == conn.out.size()) {
      conn.out.clear();
      conn.out_offset = 0;
      if (conn.close_after_flush) {
        close_connection(fd);
        return false;
      }
    }
    update_write_interest(fd, conn);
    return true;
  }

  // Decode + answer every complete frame currently buffered.  `snapshot`
  // is pinned by the caller for the whole batch, so one read burst sees
  // one consistent generation.  Request counts are tallied locally and
  // published to the shared counters once per burst (and before a stats
  // frame is answered, so its JSON counts every frame ahead of it).
  void process_frames(Connection& conn, const ServiceSnapshot& snapshot) {
    // Room for every buffered byte to be a decide request answered in full.
    conn.out.reserve(conn.out.size() + conn.reader.buffered() /
                                           (kHeaderSize + kDecideRequestSize) *
                                           (kHeaderSize + kDecideResponseSize));
    std::uint64_t requests = 0, decides = 0, request_errors = 0;
    const auto publish = [&] {
      stats.requests.fetch_add(requests, std::memory_order_relaxed);
      stats.decides.fetch_add(decides, std::memory_order_relaxed);
      stats.request_errors.fetch_add(request_errors, std::memory_order_relaxed);
      requests = decides = request_errors = 0;
    };
    // A fatal frame is answered once; the connection closes after the flush.
    bool fatal = false;
    const auto fail = [&](ErrorCode code) {
      stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      append_error_response(conn.out, code, to_string(code));
      conn.close_after_flush = true;
      fatal = true;
    };
    while (!fatal) {
      const std::optional<Frame> frame = conn.reader.next();
      if (!frame.has_value()) break;
      const MessageHeader& header = frame->header;
      ++requests;
      if (header.version != kProtocolVersion) {
        fail(ErrorCode::kUnsupportedVersion);
        break;
      }
      switch (static_cast<MessageType>(header.type)) {
        case MessageType::kDecideRequest: {
          if (frame->payload_size != kDecideRequestSize) {
            fail(ErrorCode::kBadLength);
            break;
          }
          if (!decode_decide_request(frame->payload, frame->payload_size, scratch_request)) {
            ++request_errors;
            append_error_response(conn.out, ErrorCode::kMalformedRequest,
                                  to_string(ErrorCode::kMalformedRequest));
            break;
          }
          const DecideResponse response = decide(snapshot, scratch_request);
          if (response.status != 0) {
            ++request_errors;
          } else {
            ++decides;
          }
          append_decide_response(conn.out, response);
          break;
        }
        case MessageType::kStatsRequest: {
          if (frame->payload_size != 0) {
            fail(ErrorCode::kBadLength);
            break;
          }
          publish();
          stats.stats_requests.fetch_add(1, std::memory_order_relaxed);
          append_stats_response(conn.out, server->stats_json());
          break;
        }
        default: {
          fail(ErrorCode::kBadType);
          break;
        }
      }
    }
    publish();
    // A structural violation (bad magic / oversized length) condemns the
    // stream: answer once, then close.
    if (conn.reader.error() != ErrorCode::kNone && !conn.close_after_flush) {
      fail(conn.reader.error());
    }
  }

  void handle_readable(int fd, Connection& conn) {
    // Pin one snapshot per read burst: every frame in this batch is
    // answered against one generation, and a concurrent reload cannot
    // tear state mid-batch.
    const std::shared_ptr<const ServiceSnapshot> snapshot = server->registry_.snapshot();
    char buf[65536];
    while (true) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        stats.bytes_in.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
        conn.reader.feed(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;  // drained
        continue;
      }
      if (n == 0) {  // peer closed; answer what is already buffered, then close
        process_frames(conn, *snapshot);
        conn.close_after_flush = true;
        flush(fd, conn);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(fd);
      return;
    }
    process_frames(conn, *snapshot);
    flush(fd, conn);
  }

  void run() {
    epoll_event events[128];
    while (true) {
      const int n = ::epoll_wait(epoll_fd, events, 128, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd) {
          std::uint64_t drain = 0;
          (void)!::read(wake_fd, &drain, sizeof(drain));
          if (server->stopping_.load(std::memory_order_acquire)) {
            for (auto& [cfd, conn] : connections) {
              (void)conn;
              ::close(cfd);
            }
            connections.clear();
            return;
          }
          adopt_pending();
          continue;
        }
        const auto it = connections.find(fd);
        if (it == connections.end()) continue;  // closed earlier in this batch
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          close_connection(fd);
          continue;
        }
        if (events[i].events & EPOLLOUT) {
          if (!flush(fd, it->second)) continue;
        }
        if (events[i].events & EPOLLIN) {
          handle_readable(fd, it->second);
        }
      }
    }
  }
};

// --- server ----------------------------------------------------------------

DecideServer::DecideServer(ServerConfig config) : config_(std::move(config)) {}

DecideServer::~DecideServer() { stop(); }

void DecideServer::start() {
  if (started_) throw std::runtime_error("DecideServer already started");

  if (!config_.profile_dir.empty()) {
    registry_.swap(load_profile_dir(config_.profile_dir));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad bind address " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind " + config_.bind_address + ":" + std::to_string(config_.port));
  }
  if (::listen(listen_fd_, config_.listen_backlog) != 0) throw_errno("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    throw_errno("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);

  accept_wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (accept_wake_fd_ < 0) throw_errno("eventfd");

  int worker_count = config_.workers;
  if (worker_count <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    worker_count = hw > 1 ? static_cast<int>(hw - 1) : 1;
  }
  for (int i = 0; i < worker_count; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->server = this;
    worker->index = i;
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    worker->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (worker->epoll_fd < 0 || worker->wake_fd < 0) throw_errno("worker epoll/eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->wake_fd;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev) != 0) {
      throw_errno("worker epoll_ctl");
    }
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([w = worker.get()] { w->run(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void DecideServer::accept_loop() {
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  (void)::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = accept_wake_fd_;
  (void)::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, accept_wake_fd_, &ev);

  epoll_event events[16];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd, events, 16, -1);
    if (n < 0 && errno != EINTR) break;
    if (stopping_.load(std::memory_order_acquire)) break;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd != listen_fd_) continue;  // wake fd: loop re-checks
      while (true) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;  // EAGAIN or transient error; epoll re-arms
        workers_[next_worker_]->enqueue(fd);
        next_worker_ = (next_worker_ + 1) % workers_.size();
      }
    }
  }
  ::close(epoll_fd);
}

void DecideServer::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  (void)!::write(accept_wake_fd_, &one, sizeof(one));
  for (auto& worker : workers_) worker->wake();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (accept_wake_fd_ >= 0) ::close(accept_wake_fd_);
  listen_fd_ = -1;
  accept_wake_fd_ = -1;
  started_ = false;
}

std::uint64_t DecideServer::reload() {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  if (config_.profile_dir.empty()) {
    reload_errors_.fetch_add(1, std::memory_order_relaxed);
    throw std::runtime_error("reload: server has no --profiles directory");
  }
  std::vector<FacilityProfile> profiles;
  try {
    profiles = load_profile_dir(config_.profile_dir);
  } catch (...) {
    reload_errors_.fetch_add(1, std::memory_order_relaxed);
    throw;  // old snapshot stays current
  }
  const auto snapshot = registry_.swap(std::move(profiles));
  reload_count_.fetch_add(1, std::memory_order_relaxed);
  return snapshot->generation();
}

std::string DecideServer::stats_json() const {
  const std::shared_ptr<const ServiceSnapshot> snapshot = registry_.snapshot();
  trace::JsonValue json = trace::JsonValue::object();
  json["format"] = "sss.serve-stats/1";
  json["generation"] = snapshot->generation();
  json["reloads"] = reload_count_.load(std::memory_order_relaxed);
  json["reload_errors"] = reload_errors_.load(std::memory_order_relaxed);

  trace::JsonValue profiles = trace::JsonValue::array();
  for (const FacilityProfile& profile : snapshot->profiles()) {
    profiles.push_back(profile.name);
  }
  json["profiles"] = std::move(profiles);

  std::uint64_t total_requests = 0, total_decides = 0, total_request_errors = 0;
  std::uint64_t total_protocol_errors = 0, total_open = 0;
  trace::JsonValue workers = trace::JsonValue::array();
  for (const auto& worker : workers_) {
    const WorkerStats& s = worker->stats;
    trace::JsonValue w = trace::JsonValue::object();
    w["worker"] = worker->index;
    w["connections_accepted"] = s.connections_accepted.load(std::memory_order_relaxed);
    const std::uint64_t open = s.connections_open.load(std::memory_order_relaxed);
    w["queue_depth"] = open;
    const std::uint64_t requests = s.requests.load(std::memory_order_relaxed);
    w["requests"] = requests;
    const std::uint64_t decides = s.decides.load(std::memory_order_relaxed);
    w["decides"] = decides;
    w["stats_requests"] = s.stats_requests.load(std::memory_order_relaxed);
    const std::uint64_t request_errors = s.request_errors.load(std::memory_order_relaxed);
    w["request_errors"] = request_errors;
    const std::uint64_t protocol_errors = s.protocol_errors.load(std::memory_order_relaxed);
    w["protocol_errors"] = protocol_errors;
    w["bytes_in"] = s.bytes_in.load(std::memory_order_relaxed);
    w["bytes_out"] = s.bytes_out.load(std::memory_order_relaxed);
    workers.push_back(std::move(w));
    total_requests += requests;
    total_decides += decides;
    total_request_errors += request_errors;
    total_protocol_errors += protocol_errors;
    total_open += open;
  }
  json["workers"] = std::move(workers);

  trace::JsonValue totals = trace::JsonValue::object();
  totals["requests"] = total_requests;
  totals["decides"] = total_decides;
  totals["request_errors"] = total_request_errors;
  totals["protocol_errors"] = total_protocol_errors;
  totals["connections_open"] = total_open;
  json["totals"] = std::move(totals);
  return json.dump();
}

// --- watcher ---------------------------------------------------------------

ProfileDirWatcher::ProfileDirWatcher(std::string dir) : dir_(std::move(dir)) {}

bool ProfileDirWatcher::changed() {
  namespace fs = std::filesystem;
  std::map<std::string, fs::file_time_type> current;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end; it.increment(ec)) {
    const fs::directory_entry& entry = *it;
    if (entry.path().extension() != ".json") continue;
    std::error_code entry_ec;
    const auto mtime = fs::last_write_time(entry.path(), entry_ec);
    if (entry_ec) continue;  // file vanished mid-scan; next poll settles it
    current.emplace(entry.path().string(), mtime);
  }
  const bool differs = primed_ && current != mtimes_;
  mtimes_ = std::move(current);
  primed_ = true;
  return differs;
}

}  // namespace sss::serve
