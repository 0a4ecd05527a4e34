#include "simnet/workload.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory_resource>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/phase_timer.hpp"
#include "obs/timeline.hpp"
#include "simnet/background.hpp"
#include "simnet/topology.hpp"

namespace sss::simnet {

const char* to_string(SpawnMode mode) {
  switch (mode) {
    case SpawnMode::kSimultaneousBatches:
      return "simultaneous";
    case SpawnMode::kScheduled:
      return "scheduled";
  }
  return "unknown";
}

const char* to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPerSecondBatch:
      return "batch";
    case ArrivalProcess::kDeterministic:
      return "deterministic";
    case ArrivalProcess::kPoisson:
      return "poisson";
  }
  return "unknown";
}

WorkloadConfig WorkloadConfig::paper_table2(int concurrency, int parallel_flows,
                                            SpawnMode mode) {
  WorkloadConfig cfg;
  cfg.duration = units::Seconds::of(10.0);
  cfg.concurrency = concurrency;
  cfg.parallel_flows = parallel_flows;
  cfg.transfer_size = units::Bytes::gigabytes(0.5);
  cfg.mode = mode;
  cfg.link.name = "fabric-25g";
  cfg.link.capacity = units::DataRate::gigabits_per_second(25.0);
  cfg.link.propagation_delay = units::Seconds::millis(8.0);  // 16 ms RTT
  cfg.link.buffer = units::Bytes::megabytes(50.0);           // ~1 BDP
  cfg.tcp = TcpConfig{};
  cfg.seed = 42;
  return cfg;
}

std::vector<LinkConfig> WorkloadConfig::effective_hops() const {
  if (!topology.empty()) {
    return Topology(topology_preset(topology)).canonical_route();
  }
  if (path_hops.empty()) return {link};
  return path_hops;
}

units::DataRate WorkloadConfig::bottleneck_capacity() const {
  if (topology.empty() && path_hops.empty()) return link.capacity;
  const std::vector<LinkConfig> hops = effective_hops();
  return hops[bottleneck_hop_index(hops)].capacity;
}

double WorkloadConfig::offered_load() const {
  const double bytes_per_second = static_cast<double>(concurrency) * transfer_size.bytes();
  return bytes_per_second / bottleneck_capacity().bps();
}

double WorkloadConfig::estimated_work() const {
  const double mss = static_cast<double>(std::max<std::uint32_t>(tcp.mss_bytes, 1));
  const double seconds = duration.seconds();
  // One data packet and one ACK per packet per hop.
  const auto hop_packets = [&](double bytes, std::size_t hops) {
    return std::ceil(bytes / mss) * static_cast<double>(hops) * 2.0;
  };
  const std::vector<LinkConfig> hops = effective_hops();

  double work = 0.0;
  if (facility_mode()) {
    const Topology topo(topology_preset(topology));
    for (const TenantSpec& tenant : tenants) {
      const int clients_per_s = tenant.concurrency > 0 ? tenant.concurrency : concurrency;
      const double size = tenant.transfer_size.bytes() > 0.0 ? tenant.transfer_size.bytes()
                                                             : transfer_size.bytes();
      const std::size_t route_hops =
          topo.route_indices(tenant.src.empty() ? topo.config().source : tenant.src,
                             tenant.dst.empty() ? topo.config().sink : tenant.dst)
              .size();
      work += clients_per_s * seconds * hop_packets(size, route_hops);
    }
  } else {
    work += concurrency * seconds * hop_packets(transfer_size.bytes(), hops.size());
  }
  // Background load rides the canonical route for the spawn window; hop
  // cross traffic crosses its one hop for its own window.  The estimate
  // runs before validate(), so an out-of-range hop is skipped here and
  // rejected when the cell runs.
  work += hop_packets(background_load * bottleneck_capacity().bps() * seconds, hops.size());
  for (const HopCrossTraffic& x : hop_cross_traffic) {
    if (x.hop < 0 || static_cast<std::size_t>(x.hop) >= hops.size()) continue;
    const double window = std::max(0.0, x.until.seconds() - x.start.seconds());
    work += hop_packets(x.load * hops[static_cast<std::size_t>(x.hop)].capacity.bps() * window,
                        1);
  }
  return work;
}

units::Seconds WorkloadConfig::theoretical_transfer_time() const {
  return transfer_size / bottleneck_capacity();
}

void WorkloadConfig::validate() const {
  if (!(duration.seconds() > 0.0)) throw std::invalid_argument("duration must be > 0");
  if (concurrency < 1) throw std::invalid_argument("concurrency must be >= 1");
  if (parallel_flows < 1) throw std::invalid_argument("parallel_flows must be >= 1");
  if (!(transfer_size.bytes() > 0.0)) {
    throw std::invalid_argument("transfer_size must be > 0");
  }
  if (!(drain_timeout.seconds() > 0.0)) {
    throw std::invalid_argument("drain_timeout must be > 0");
  }
  if (background_load < 0.0) {
    throw std::invalid_argument("background_load must be >= 0");
  }
  if (background_load > 0.0 && !(background_mean_flow_size.bytes() > 0.0)) {
    throw std::invalid_argument("background_mean_flow_size must be > 0");
  }
  for (const LinkConfig& hop : path_hops) {
    if (!hop.capacity.is_positive()) {
      throw std::invalid_argument("path hop '" + hop.name + "' capacity must be > 0");
    }
  }
  if (!topology.empty() && !path_hops.empty()) {
    throw std::invalid_argument(
        "topology and path_hops are mutually exclusive (the topology's route "
        "replaces the explicit hop list)");
  }
  if (!tenants.empty() && topology.empty()) {
    throw std::invalid_argument("tenants require a topology preset");
  }
  if (tenants.empty() && scheduler.policy != SchedPolicy::kNone) {
    throw std::invalid_argument(
        "sched_policy requires facility tenants (tenant0_src=... etc.)");
  }
  if (scheduler.slots < 1) throw std::invalid_argument("scheduler slots must be >= 1");
  if (!(scheduler.deadline_s > 0.0)) {
    throw std::invalid_argument("scheduler deadline_s must be > 0");
  }
  if (!(scheduler.burst_window_s > 0.0)) {
    throw std::invalid_argument("scheduler burst_window_s must be > 0");
  }
  if (scheduler.burst_limit < 1) {
    throw std::invalid_argument("scheduler burst_limit must be >= 1");
  }
  if (scheduler.backoff_s < 0.0) {
    throw std::invalid_argument("scheduler backoff_s must be >= 0");
  }
  if (!topology.empty()) {
    // Constructing the Topology validates the graph; routing every tenant
    // surfaces a typo'd endpoint here, with the named-endpoint message,
    // instead of deep inside prepare().
    const Topology topo(topology_preset(topology));
    if (!tenants.empty() && mode == SpawnMode::kScheduled) {
      throw std::invalid_argument(
          "facility tenants cannot use scheduled spawning; use the admission "
          "scheduler instead (sched_policy=fifo sched_slots=1)");
    }
    for (std::size_t j = 0; j < tenants.size(); ++j) {
      const TenantSpec& tenant = tenants[j];
      const std::string label = "tenant " + std::to_string(j);
      if (tenant.concurrency < 0) {
        throw std::invalid_argument(label + " concurrency must be >= 0");
      }
      if (tenant.deadline_s < 0.0) {
        throw std::invalid_argument(label + " deadline_s must be >= 0");
      }
      if (tenant.transfer_size.bytes() < 0.0) {
        throw std::invalid_argument(label + " transfer_size must be >= 0");
      }
      const std::string& src = tenant.src.empty() ? topo.config().source : tenant.src;
      const std::string& dst = tenant.dst.empty() ? topo.config().sink : tenant.dst;
      (void)topo.route(src, dst);
    }
  }
  const auto hop_count = static_cast<int>(effective_hops().size());
  for (const HopCrossTraffic& x : hop_cross_traffic) {
    if (x.hop < 0 || x.hop >= hop_count) {
      throw std::invalid_argument("hop_cross_traffic hop index out of range");
    }
    if (x.load < 0.0) throw std::invalid_argument("hop_cross_traffic load must be >= 0");
    if (x.load > 0.0 && !(x.mean_flow_size.bytes() > 0.0)) {
      throw std::invalid_argument("hop_cross_traffic mean_flow_size must be > 0");
    }
    if (x.load > 0.0 && (x.start.seconds() < 0.0 || x.start >= x.until)) {
      throw std::invalid_argument("hop_cross_traffic needs 0 <= start < until");
    }
  }
  if (!(calibration.operating_util > 0.0)) {
    throw std::invalid_argument("calibration operating_util must be > 0");
  }
  if (!(calibration.true_alpha > 0.0) || calibration.true_alpha > 1.0) {
    throw std::invalid_argument("calibration true_alpha must be in (0, 1]");
  }
  if (!(calibration.true_theta >= 1.0)) {
    throw std::invalid_argument("calibration true_theta must be >= 1");
  }
  if (calibration.congestion_slope < 0.0) {
    throw std::invalid_argument("calibration congestion_slope must be >= 0");
  }
}

std::vector<double> requested_arrival_times(const WorkloadConfig& config,
                                            stats::Random& rng) {
  std::vector<double> times;
  switch (config.arrivals) {
    case ArrivalProcess::kPerSecondBatch: {
      const auto whole_seconds = static_cast<int>(config.duration.seconds());
      const double frac = config.duration.seconds() - whole_seconds;
      for (int second = 0;
           second < whole_seconds || (second == whole_seconds && frac > 0.0); ++second) {
        // A fractional trailing second spawns a proportional share of
        // clients (used by scaled-down quick runs), rounded.
        const bool partial = second == whole_seconds;
        const int clients_this_second =
            partial ? static_cast<int>(config.concurrency * frac + 0.5)
                    : config.concurrency;
        for (int i = 0; i < clients_this_second; ++i) {
          const double base = static_cast<double>(second);
          times.push_back(config.mode == SpawnMode::kScheduled
                              ? base + static_cast<double>(i) /
                                           static_cast<double>(config.concurrency)
                              : base);
        }
        if (partial) break;
      }
      break;
    }
    case ArrivalProcess::kDeterministic: {
      // Exact pro-rata count at exact even spacing: no whole-second
      // rounding, so duration 2.5 s at concurrency 4 spawns exactly 10
      // clients, 0.25 s apart.
      const auto count = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(config.concurrency) *
                       config.duration.seconds()));
      times.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        times.push_back(static_cast<double>(i) /
                        static_cast<double>(config.concurrency));
      }
      break;
    }
    case ArrivalProcess::kPoisson: {
      double t = 0.0;
      for (;;) {
        t += rng.exponential(static_cast<double>(config.concurrency));
        if (t >= config.duration.seconds()) break;
        times.push_back(t);
      }
      break;
    }
  }
  return times;
}

namespace detail {

// Book-keeping that maps completed flows back to their client records, and
// — in scheduled mode — the reservation calendar: a client is admitted at
// max(its slot, completion of the previous reservation), modeling the
// paper's "scheduled to a specific time slot with network bandwidth
// reserved" setup where scheduled transfers never contend with each other.
//
// An EventHandler so flow starts and reservation-slot checks ride the
// non-allocating typed event queue instead of call_at's std::function path;
// flow objects and every table are drawn from the cell's memory resource.
// (Named namespace, not anonymous: an anonymous-namespace member type
// inside the externally-visible Workload::Cell trips -Wsubobject-linkage.)
// One planned facility transfer: a tenant's client carrying its own route
// and size, admitted either at its arrival instant (policy none) or when
// the TransferScheduler dispatches it.
struct ClientPlan {
  double requested_s = 0.0;
  double deadline_s = 0.0;  // absolute EDF deadline (requested + relative)
  std::uint16_t tenant = 0;
  units::Bytes size = units::Bytes::of(0.0);
  Path* forward = nullptr;
  Path* reverse = nullptr;
};

class Orchestrator : public FlowObserver, public EventHandler {
 public:
  static constexpr int kStartFlow = 1;  // a = index into flows_
  static constexpr int kTryAdmit = 2;
  static constexpr int kArrive = 3;  // facility: a = client id; submit + pump
  static constexpr int kPump = 4;    // facility: timed scheduler re-check

  // `forward`/`reverse` are the shared legacy paths; null in facility mode,
  // where every ClientPlan carries its own per-tenant route.
  Orchestrator(const WorkloadConfig& config, Path* forward, Path* reverse,
               stats::Random& rng, std::pmr::memory_resource* mem,
               obs::TimelineRecorder* probe = nullptr)
      : config_(config), forward_(forward), reverse_(reverse), rng_(rng), mem_(mem),
        probe_(probe), flows_(mem), flow_client_(mem), clients_(mem),
        reservations_(mem), plans_(mem) {}

  ~Orchestrator() override {
    std::pmr::polymorphic_allocator<> alloc(mem_);
    for (TcpFlow* flow : flows_) alloc.delete_object(flow);
  }

  void spawn_all(Simulation& sim, const std::vector<double>& arrivals) {
    // Client ids are assigned 0..N-1 in arrival order, so the client table
    // is a flat vector; scheduled-mode entries stay unspawned until their
    // reservation admits them.  Sizing every table up front keeps the
    // admission-time spawns in the drive loop allocation-free.
    clients_.resize(arrivals.size());
    flows_.reserve(arrivals.size() * static_cast<std::size_t>(config_.parallel_flows));
    flow_client_.reserve(flows_.capacity());
    std::uint32_t client_id = 0;
    for (const double at : arrivals) {
      if (config_.mode == SpawnMode::kScheduled) {
        reservations_.push_back(Reservation{client_id++, at});
      } else {
        spawn_client(sim, client_id++, units::Seconds::of(at), at);
      }
    }
    if (config_.mode == SpawnMode::kScheduled) {
      for (const Reservation& r : reservations_) {
        sim.schedule_at(to_simtime(units::Seconds::of(r.slot_s)), *this, kTryAdmit);
      }
    }
  }

  // Facility mode: one entry per planned client, ids assigned in plan order
  // (arrival-time order).  Without a scheduler every client spawns at its
  // arrival instant — the same mechanics as spawn_all, so a single-tenant
  // facility run is byte-identical to the legacy path.  With one, arrivals
  // enqueue into the policy queue and spawn when dispatched.
  void spawn_facility(Simulation& sim, const std::vector<ClientPlan>& plans,
                      TransferScheduler* sched) {
    plans_.assign(plans.begin(), plans.end());
    sched_ = sched;
    clients_.resize(plans_.size());
    flows_.reserve(plans_.size() * static_cast<std::size_t>(config_.parallel_flows));
    flow_client_.reserve(flows_.capacity());
    for (std::size_t id = 0; id < plans_.size(); ++id) {
      if (sched_ == nullptr) {
        spawn_client(sim, static_cast<std::uint32_t>(id),
                     units::Seconds::of(plans_[id].requested_s), plans_[id].requested_s);
      } else {
        sim.schedule_at(to_simtime(units::Seconds::of(plans_[id].requested_s)), *this,
                        kArrive, id);
      }
    }
  }

  void on_event(Simulation& sim, int kind, std::uint64_t a, std::uint64_t /*b*/) override {
    if (kind == kStartFlow) {
      flows_[a]->start(sim);
    } else if (kind == kTryAdmit) {
      try_admit(sim);
    } else if (kind == kArrive) {
      sched_->submit(static_cast<std::uint32_t>(a), plans_[a].tenant,
                     plans_[a].deadline_s);
      pump(sim);
    } else if (kind == kPump) {
      pump_pending_ = false;
      pump(sim);
    }
  }

  // Drain the admission queue: spawn every client the policy dispatches at
  // the current instant.  When the only obstacle is timing (backoff spacing
  // or a full burst window), schedule one kPump re-check at the scheduler's
  // earliest-possible instant; slot/queue obstacles re-pump on completion
  // or arrival instead.
  void pump(Simulation& sim) {
    for (;;) {
      double retry_at = -1.0;
      const std::optional<std::uint32_t> id =
          sched_->try_dispatch(sim.now_seconds().seconds(), &retry_at);
      if (!id.has_value()) {
        if (retry_at >= 0.0 && !pump_pending_) {
          pump_pending_ = true;
          sim.schedule_at(
              std::max(to_simtime(units::Seconds::of(retry_at)), sim.now() + 1), *this,
              kPump);
        }
        return;
      }
      spawn_client(sim, *id, sim.now_seconds(), plans_[*id].requested_s);
    }
  }

  // Admit the next reserved client when its slot has arrived and the link
  // reservation is free.
  void try_admit(Simulation& sim) {
    if (reservation_active_ || next_reservation_ >= reservations_.size()) return;
    const Reservation& next = reservations_[next_reservation_];
    if (to_simtime(units::Seconds::of(next.slot_s)) > sim.now()) return;
    ++next_reservation_;
    reservation_active_ = true;
    active_reserved_client_ = next.client_id;
    spawn_client(sim, next.client_id, sim.now_seconds(), next.slot_s);
  }

  void spawn_client(Simulation& sim, std::uint32_t client_id, units::Seconds at,
                    double requested_s) {
    const ClientPlan* plan = plans_.empty() ? nullptr : &plans_[client_id];
    const units::Bytes size = plan != nullptr ? plan->size : config_.transfer_size;
    Path& forward = plan != nullptr ? *plan->forward : *forward_;
    Path& reverse = plan != nullptr ? *plan->reverse : *reverse_;
    ClientState& state = clients_[client_id];
    state.record.client_id = client_id;
    state.record.requested_s = requested_s;
    state.record.start_s = at.seconds();
    state.record.bytes = size.bytes();
    state.record.flow_count = static_cast<std::uint32_t>(config_.parallel_flows);
    if (plan != nullptr) state.record.tenant = plan->tenant;
    state.remaining = config_.parallel_flows;
    state.spawned = true;

    const units::Bytes per_flow = size / static_cast<double>(config_.parallel_flows);
    std::pmr::polymorphic_allocator<> alloc(mem_);
    for (int f = 0; f < config_.parallel_flows; ++f) {
      const auto flow_id = static_cast<std::uint32_t>(flows_.size());
      flow_client_.push_back(client_id);
      flows_.push_back(alloc.new_object<TcpFlow>(flow_id, per_flow, config_.tcp,
                                                 forward, reverse, this, mem_));
      if (probe_ != nullptr) {
        // Track names allocate from the recorder's heap, not the arena;
        // timeline capture is opt-in and outside the zero-alloc contract.
        flows_.back()->attach_probe(
            probe_, probe_->add_track("flow " + std::to_string(flow_id) + " (client " +
                                      std::to_string(client_id) + ")"));
      }
      const double jitter = rng_.uniform(0.0, config_.start_jitter.seconds());
      const SimTime start_at = to_simtime(at + units::Seconds::of(jitter));
      sim.schedule_at(std::max<SimTime>(start_at, sim.now()), *this, kStartFlow,
                      flow_id);
    }
  }

  void on_flow_complete(Simulation& sim, const TcpFlow& flow) override {
    const std::uint32_t client_id = flow_client_[flow.id()];
    ClientState& state = clients_[client_id];
    state.record.end_s =
        std::max(state.record.end_s, to_seconds(flow.end_time()).seconds());
    --state.remaining;
    if (state.remaining == 0) {
      if (sched_ != nullptr) {
        sched_->release();
        pump(sim);
      }
      if (reservation_active_ && client_id == active_reserved_client_) {
        reservation_active_ = false;
        try_admit(sim);
      }
    }
  }

  // Called after the simulation drains (or hits the deadline): writes flow
  // and client records, censoring incomplete ones at `deadline`.
  ExperimentMetrics collect(SimTime deadline, const Path& forward) const {
    ExperimentMetrics m;
    collect_records(deadline, m);

    // Per-hop counters in path order, plus path-level summaries: the
    // most-utilized hop's utilization (on a balanced chain the congested
    // hop, not merely the nameplate bottleneck), aggregate loss, and what
    // the last hop delivered.  For a one-hop path these are the former
    // link figures.
    m.hops = snapshot_hops(forward);
    std::size_t hottest = 0;
    for (std::size_t h = 1; h < forward.hop_count(); ++h) {
      if (forward.hop(h).mean_utilization() >
          forward.hop(hottest).mean_utilization()) {
        hottest = h;
      }
    }
    m.mean_utilization = forward.hop(hottest).mean_utilization();
    m.peak_utilization = forward.hop(hottest).peak_utilization();
    m.loss_rate = forward.aggregate_loss_rate();
    m.packets_dropped = forward.packets_dropped_total();
    m.packets_forwarded =
        forward.hop(forward.hop_count() - 1).counters().packets_forwarded;
    return m;
  }

  // Facility variant: hop counters come from the shared live links in
  // topology declaration order; loss aggregates over the whole graph, and
  // packets_forwarded sums what the (distinct) terminal hops delivered.
  ExperimentMetrics collect_facility(SimTime deadline,
                                     const std::pmr::vector<Link*>& links,
                                     const std::pmr::vector<std::size_t>& last_hops) const {
    ExperimentMetrics m;
    collect_records(deadline, m);

    m.hops.reserve(links.size());
    for (const Link* link : links) m.hops.push_back(snapshot_hop(*link));
    std::size_t hottest = 0;
    std::uint64_t offered = 0;
    std::uint64_t dropped = 0;
    for (std::size_t h = 0; h < m.hops.size(); ++h) {
      if (m.hops[h].mean_utilization > m.hops[hottest].mean_utilization) hottest = h;
      offered += m.hops[h].packets_offered;
      dropped += m.hops[h].packets_dropped;
    }
    if (!m.hops.empty()) {
      m.mean_utilization = m.hops[hottest].mean_utilization;
      m.peak_utilization = m.hops[hottest].peak_utilization;
    }
    m.loss_rate = offered > 0 ? static_cast<double>(dropped) / static_cast<double>(offered)
                              : 0.0;
    m.packets_dropped = dropped;
    for (const std::size_t idx : last_hops) {
      m.packets_forwarded += m.hops[idx].packets_forwarded;
    }
    return m;
  }

  [[nodiscard]] bool all_complete() const {
    return std::all_of(clients_.begin(), clients_.end(), [](const ClientState& s) {
      return !s.spawned || s.remaining == 0;
    });
  }

 private:
  // Flow and client records shared by both collect variants, censoring
  // incomplete (and never-admitted) transfers at `deadline`.
  void collect_records(SimTime deadline, ExperimentMetrics& m) const {
    m.flows.reserve(flows_.size());
    for (const TcpFlow* flow : flows_) {
      FlowRecord r;
      r.flow_id = flow->id();
      r.client_id = flow_client_[flow->id()];
      r.start_s = to_seconds(flow->start_time()).seconds();
      r.bytes = flow->total_bytes().bytes();
      r.retransmits = flow->retransmit_count();
      r.rto_events = flow->rto_count();
      if (flow->complete()) {
        r.end_s = to_seconds(flow->end_time()).seconds();
      } else {
        r.end_s = to_seconds(deadline).seconds();
        r.censored = true;
      }
      m.total_retransmits += r.retransmits;
      m.total_rto_events += r.rto_events;
      m.flows.push_back(r);
    }
    m.clients.reserve(clients_.size());
    for (const ClientState& state : clients_) {
      if (!state.spawned) continue;
      ClientRecord r = state.record;
      if (state.remaining > 0) {
        r.censored = true;
        r.end_s = to_seconds(deadline).seconds();
      }
      m.clients.push_back(r);
    }
    // Reserved clients never admitted before the drain deadline are
    // censored at the deadline with zero transfer progress.
    for (std::size_t i = next_reservation_; i < reservations_.size(); ++i) {
      ClientRecord r;
      r.client_id = reservations_[i].client_id;
      r.requested_s = reservations_[i].slot_s;
      r.start_s = to_seconds(deadline).seconds();
      r.end_s = to_seconds(deadline).seconds();
      r.bytes = config_.transfer_size.bytes();
      r.flow_count = static_cast<std::uint32_t>(config_.parallel_flows);
      r.censored = true;
      m.clients.push_back(r);
    }
    // Planned facility clients the scheduler never dispatched before the
    // drain deadline: censored with zero transfer progress, like an
    // un-admitted reservation.
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (clients_[i].spawned) continue;
      ClientRecord r;
      r.client_id = static_cast<std::uint32_t>(i);
      r.requested_s = plans_[i].requested_s;
      r.start_s = to_seconds(deadline).seconds();
      r.end_s = to_seconds(deadline).seconds();
      r.bytes = plans_[i].size.bytes();
      r.flow_count = static_cast<std::uint32_t>(config_.parallel_flows);
      r.tenant = plans_[i].tenant;
      r.censored = true;
      m.clients.push_back(r);
    }
    std::sort(m.clients.begin(), m.clients.end(),
              [](const ClientRecord& x, const ClientRecord& y) {
                return x.client_id < y.client_id;
              });
  }

  struct ClientState {
    ClientRecord record;
    int remaining = 0;
    bool spawned = false;
  };
  struct Reservation {
    std::uint32_t client_id;
    double slot_s;
  };

  const WorkloadConfig& config_;
  Path* forward_;  // legacy shared paths; null in facility mode
  Path* reverse_;
  stats::Random& rng_;
  std::pmr::memory_resource* mem_;
  obs::TimelineRecorder* probe_;  // null = timeline off
  std::pmr::vector<TcpFlow*> flows_;             // allocated from mem_
  std::pmr::vector<std::uint32_t> flow_client_;  // parallel to flows_
  std::pmr::vector<ClientState> clients_;        // indexed by client_id
  std::pmr::vector<Reservation> reservations_;
  std::size_t next_reservation_ = 0;
  bool reservation_active_ = false;
  std::uint32_t active_reserved_client_ = 0;
  std::pmr::vector<ClientPlan> plans_;  // facility mode; empty otherwise
  TransferScheduler* sched_ = nullptr;  // facility admission (may be null)
  bool pump_pending_ = false;           // at most one outstanding kPump
};

}  // namespace detail

// The world one experiment cell simulates.  Everything here draws from the
// cell's memory resource; the destructor tears down background traffic and
// cross paths before the paths they ride on, and paths before the shared
// live links facility mode routes them over.
//
// Legacy mode owns its world through `forward`/`reverse` (owning Paths over
// effective_hops()).  Facility mode instead instantiates ONE live Link per
// topology edge (`links`, plus matching ACK-direction `rlinks`) and layers
// non-owning per-tenant Paths over them (`owned_paths`), so tenants crossing
// the same hop contend on the same queue.
struct Workload::Cell {
  Simulation sim;
  stats::Random rng;
  std::pmr::vector<Link*> links;   // facility: live links, topology order
  std::pmr::vector<Link*> rlinks;  // facility: reverse (ACK) twins, same order
  std::pmr::vector<Path*> owned_paths;  // facility: non-owning routed paths
  // Facility: distinct terminal-hop link indices (one per tenant route end).
  std::pmr::vector<std::size_t> last_hop_links;
  Path* forward = nullptr;  // legacy owning data path
  Path* reverse = nullptr;  // ACK path: utilization series disabled — never read
  detail::Orchestrator* orchestrator = nullptr;
  TransferScheduler* scheduler = nullptr;  // facility, policy != none
  std::pmr::vector<Path*> cross_paths;
  std::pmr::vector<BackgroundTraffic*> backgrounds;
  std::pmr::memory_resource* mem;
  SimTime deadline = 0;

  Cell(const WorkloadConfig& config, std::pmr::memory_resource* m)
      : sim(m),
        rng(config.seed),
        links(m),
        rlinks(m),
        owned_paths(m),
        last_hop_links(m),
        cross_paths(m),
        backgrounds(m),
        mem(m) {}

  ~Cell() {
    std::pmr::polymorphic_allocator<> alloc(mem);
    for (BackgroundTraffic* bg : backgrounds) alloc.delete_object(bg);
    for (Path* path : cross_paths) alloc.delete_object(path);
    if (orchestrator != nullptr) alloc.delete_object(orchestrator);
    if (scheduler != nullptr) alloc.delete_object(scheduler);
    for (Path* path : owned_paths) alloc.delete_object(path);
    if (forward != nullptr) alloc.delete_object(forward);
    if (reverse != nullptr) alloc.delete_object(reverse);
    for (Link* link : links) alloc.delete_object(link);
    for (Link* link : rlinks) alloc.delete_object(link);
  }
};

Workload::Workload(WorkloadConfig config, bool use_arena)
    : config_(std::move(config)),
      mem_(use_arena ? static_cast<std::pmr::memory_resource*>(&arena_)
                     : std::pmr::get_default_resource()) {
  config_.validate();
}

Workload::~Workload() {
  if (cell_ != nullptr) std::pmr::polymorphic_allocator<>(mem_).delete_object(cell_);
}

void Workload::prepare() {
  const obs::ScopedPhase obs_phase(obs::Phase::kPrepare);
  std::pmr::polymorphic_allocator<> alloc(mem_);
  if (cell_ != nullptr) {
    // Destructors must run while the arena memory is still valid; the
    // wholesale release is the reset() below.
    alloc.delete_object(cell_);
    cell_ = nullptr;
    arena_.reset();
  }

  cell_ = alloc.new_object<Cell>(config_, mem_);
  Cell& cell = *cell_;

  if (config_.facility_mode()) {
    prepare_facility(cell);
  } else {
    prepare_legacy(cell);
  }

  cell.deadline = to_simtime(config_.duration) + to_simtime(config_.drain_timeout);
}

void Workload::prepare_legacy(Cell& cell) {
  std::pmr::polymorphic_allocator<> alloc(mem_);
  const std::vector<LinkConfig> hops = config_.effective_hops();
  cell.forward =
      alloc.new_object<Path>(hops, units::Seconds::of(1.0), mem_, /*record_series=*/true);
  // Generous buffers so ACK loss never originates here (matching the
  // paper's uncontended server side).
  cell.reverse = alloc.new_object<Path>(reverse_hops(hops), units::Seconds::of(1.0),
                                        mem_, /*record_series=*/false);
  cell.orchestrator = alloc.new_object<detail::Orchestrator>(
      config_, cell.forward, cell.reverse, cell.rng, mem_, probe_.recorder);

  if (probe_.recorder != nullptr) {
    // Track order fixes the Perfetto row order: workload summary first,
    // then one counter track per forward hop, then flows as they spawn
    // (and per-client spans appended by finish()).
    probe_workload_track_ = probe_.recorder->add_track("workload");
    for (std::size_t h = 0; h < hops.size(); ++h) {
      const int track =
          probe_.recorder->add_track("hop" + std::to_string(h) + " " + hops[h].name);
      cell.forward->hop(h).attach_probe(probe_.recorder, track,
                                        to_simtime(probe_.hop_sample_interval));
    }
  }

  const std::vector<double> arrivals = requested_arrival_times(config_, cell.rng);
  cell.orchestrator->spawn_all(cell.sim, arrivals);

  if (config_.background_load > 0.0) {
    BackgroundTrafficConfig bg;
    bg.target_load = config_.background_load;
    bg.mean_flow_size = config_.background_mean_flow_size;
    bg.pareto_shape = config_.background_pareto_shape;
    bg.until = config_.duration;
    bg.tcp = config_.tcp;
    bg.seed = config_.seed ^ 0x9e3779b97f4a7c15ULL;
    cell.backgrounds.push_back(alloc.new_object<BackgroundTraffic>(
        bg, *cell.forward, *cell.reverse, mem_));
    cell.backgrounds.back()->schedule(cell.sim);
  }
  // Hop-local cross traffic: a one-hop path over the target hop (and the
  // matching reverse hop for its ACKs), entering and leaving at the hop's
  // endpoints.
  for (std::size_t i = 0; i < config_.hop_cross_traffic.size(); ++i) {
    const HopCrossTraffic& x = config_.hop_cross_traffic[i];
    if (x.load == 0.0) continue;
    const auto h = static_cast<std::size_t>(x.hop);
    cell.cross_paths.push_back(alloc.new_object<Path>(
        std::vector<Link*>{&cell.forward->hop(h)}, mem_));
    Path& xf = *cell.cross_paths.back();
    cell.cross_paths.push_back(alloc.new_object<Path>(
        std::vector<Link*>{&cell.reverse->hop(hops.size() - 1 - h)}, mem_));
    Path& xr = *cell.cross_paths.back();
    BackgroundTrafficConfig bg;
    bg.target_load = x.load;
    bg.mean_flow_size = x.mean_flow_size;
    bg.pareto_shape = x.pareto_shape;
    bg.start = x.start;
    bg.until = x.until;
    bg.tcp = config_.tcp;
    bg.seed = stats::SplitMix64(config_.seed ^ (0xa24baed4963ee407ULL + i)).next();
    cell.backgrounds.push_back(alloc.new_object<BackgroundTraffic>(bg, xf, xr, mem_));
    cell.backgrounds.back()->schedule(cell.sim);
  }
}

// Facility mode: instantiate one live Link per topology edge (plus reverse
// ACK twins), route every tenant over the SHARED links via non-owning
// Paths, merge the tenants' arrival processes into one client plan, and
// hand the plan to the orchestrator — gated by a TransferScheduler when a
// policy is configured.
void Workload::prepare_facility(Cell& cell) {
  std::pmr::polymorphic_allocator<> alloc(mem_);
  const Topology topo(topology_preset(config_.topology));
  const std::vector<TopologyLink>& edges = topo.config().links;

  cell.links.reserve(edges.size());
  cell.rlinks.reserve(edges.size());
  for (const TopologyLink& edge : edges) {
    cell.links.push_back(alloc.new_object<Link>(edge.link, units::Seconds::of(1.0), mem_,
                                                /*record_series=*/true));
  }
  for (const TopologyLink& edge : edges) {
    // Reverse twins mirror reverse_hops(): same capacity/delay, generous
    // buffers so ACK loss never originates on the return direction.
    LinkConfig rc = edge.link;
    rc.name += "-reverse";
    rc.buffer = units::Bytes::megabytes(256.0);
    cell.rlinks.push_back(alloc.new_object<Link>(rc, units::Seconds::of(1.0), mem_,
                                                 /*record_series=*/false));
  }

  if (probe_.recorder != nullptr) {
    probe_workload_track_ = probe_.recorder->add_track("workload");
    for (std::size_t h = 0; h < edges.size(); ++h) {
      const int track = probe_.recorder->add_track("hop" + std::to_string(h) + " " +
                                                   edges[h].link.name);
      cell.links[h]->attach_probe(probe_.recorder, track,
                                  to_simtime(probe_.hop_sample_interval));
    }
  }

  // Per-tenant routes over the shared links.
  std::vector<Path*> tenant_forward(config_.tenants.size(), nullptr);
  std::vector<Path*> tenant_reverse(config_.tenants.size(), nullptr);
  for (std::size_t j = 0; j < config_.tenants.size(); ++j) {
    const TenantSpec& tenant = config_.tenants[j];
    const std::string& src = tenant.src.empty() ? topo.config().source : tenant.src;
    const std::string& dst = tenant.dst.empty() ? topo.config().sink : tenant.dst;
    const std::vector<std::size_t> route = topo.route_indices(src, dst);
    std::vector<Link*> fwd;
    fwd.reserve(route.size());
    for (const std::size_t idx : route) fwd.push_back(cell.links[idx]);
    std::vector<Link*> rev;
    rev.reserve(route.size());
    for (auto it = route.rbegin(); it != route.rend(); ++it) {
      rev.push_back(cell.rlinks[*it]);
    }
    cell.owned_paths.push_back(alloc.new_object<Path>(fwd, mem_));
    tenant_forward[j] = cell.owned_paths.back();
    cell.owned_paths.push_back(alloc.new_object<Path>(rev, mem_));
    tenant_reverse[j] = cell.owned_paths.back();
    const std::size_t last = route.back();
    if (std::find(cell.last_hop_links.begin(), cell.last_hop_links.end(), last) ==
        cell.last_hop_links.end()) {
      cell.last_hop_links.push_back(last);
    }
  }

  if (config_.scheduler.policy != SchedPolicy::kNone) {
    cell.scheduler = alloc.new_object<TransferScheduler>(
        config_.scheduler, config_.tenants.size(), mem_);
  }
  cell.orchestrator = alloc.new_object<detail::Orchestrator>(
      config_, nullptr, nullptr, cell.rng, mem_, probe_.recorder);

  // Merge the tenants' arrival processes into one plan, in arrival-time
  // order; ties keep tenant-index order (stable sort), so the schedule is
  // deterministic.  The per-tenant generators run sequentially against the
  // cell RNG (only Poisson consumes it).
  std::vector<std::pair<double, std::size_t>> merged;
  for (std::size_t j = 0; j < config_.tenants.size(); ++j) {
    WorkloadConfig tenant_cfg = config_;
    if (config_.tenants[j].concurrency > 0) {
      tenant_cfg.concurrency = config_.tenants[j].concurrency;
    }
    for (const double at : requested_arrival_times(tenant_cfg, cell.rng)) {
      merged.emplace_back(at, j);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const std::pair<double, std::size_t>& x,
                      const std::pair<double, std::size_t>& y) {
                     return x.first < y.first;
                   });

  std::vector<detail::ClientPlan> plans;
  plans.reserve(merged.size());
  for (const auto& [at, j] : merged) {
    const TenantSpec& tenant = config_.tenants[j];
    detail::ClientPlan plan;
    plan.requested_s = at;
    plan.deadline_s =
        at + (tenant.deadline_s > 0.0 ? tenant.deadline_s : config_.scheduler.deadline_s);
    plan.tenant = static_cast<std::uint16_t>(j);
    plan.size =
        tenant.transfer_size.bytes() > 0.0 ? tenant.transfer_size : config_.transfer_size;
    plan.forward = tenant_forward[j];
    plan.reverse = tenant_reverse[j];
    plans.push_back(plan);
  }
  cell.orchestrator->spawn_facility(cell.sim, plans, cell.scheduler);

  // Background / cross traffic ride the canonical source -> sink route.
  const bool wants_background =
      config_.background_load > 0.0 || !config_.hop_cross_traffic.empty();
  std::vector<std::size_t> canonical;
  if (wants_background) {
    canonical = topo.route_indices(topo.config().source, topo.config().sink);
  }
  if (config_.background_load > 0.0) {
    std::vector<Link*> fwd;
    std::vector<Link*> rev;
    for (const std::size_t idx : canonical) fwd.push_back(cell.links[idx]);
    for (auto it = canonical.rbegin(); it != canonical.rend(); ++it) {
      rev.push_back(cell.rlinks[*it]);
    }
    cell.owned_paths.push_back(alloc.new_object<Path>(fwd, mem_));
    Path& bf = *cell.owned_paths.back();
    cell.owned_paths.push_back(alloc.new_object<Path>(rev, mem_));
    Path& br = *cell.owned_paths.back();
    BackgroundTrafficConfig bg;
    bg.target_load = config_.background_load;
    bg.mean_flow_size = config_.background_mean_flow_size;
    bg.pareto_shape = config_.background_pareto_shape;
    bg.until = config_.duration;
    bg.tcp = config_.tcp;
    bg.seed = config_.seed ^ 0x9e3779b97f4a7c15ULL;
    cell.backgrounds.push_back(alloc.new_object<BackgroundTraffic>(bg, bf, br, mem_));
    cell.backgrounds.back()->schedule(cell.sim);
  }
  for (std::size_t i = 0; i < config_.hop_cross_traffic.size(); ++i) {
    const HopCrossTraffic& x = config_.hop_cross_traffic[i];
    if (x.load == 0.0) continue;
    // Hop index is into the canonical route (effective_hops order).
    const std::size_t idx = canonical[static_cast<std::size_t>(x.hop)];
    cell.cross_paths.push_back(
        alloc.new_object<Path>(std::vector<Link*>{cell.links[idx]}, mem_));
    Path& xf = *cell.cross_paths.back();
    cell.cross_paths.push_back(
        alloc.new_object<Path>(std::vector<Link*>{cell.rlinks[idx]}, mem_));
    Path& xr = *cell.cross_paths.back();
    BackgroundTrafficConfig bg;
    bg.target_load = x.load;
    bg.mean_flow_size = x.mean_flow_size;
    bg.pareto_shape = x.pareto_shape;
    bg.start = x.start;
    bg.until = x.until;
    bg.tcp = config_.tcp;
    bg.seed = stats::SplitMix64(config_.seed ^ (0xa24baed4963ee407ULL + i)).next();
    cell.backgrounds.push_back(alloc.new_object<BackgroundTraffic>(bg, xf, xr, mem_));
    cell.backgrounds.back()->schedule(cell.sim);
  }
}

void Workload::drive() {
  const obs::ScopedPhase obs_phase(obs::Phase::kDrive);
  Cell& cell = *cell_;
  // Batched link drains may dispatch chained arrivals inline; capping them
  // at the deadline keeps the stop point identical to the unbatched loop
  // (which runs at most one event past the deadline).
  cell.sim.set_batch_horizon(cell.deadline);
  while (!cell.sim.empty() && cell.sim.now() <= cell.deadline) {
    cell.sim.step();
  }
}

ExperimentResult Workload::finish() {
  const obs::ScopedPhase obs_phase(obs::Phase::kFinish);
  Cell& cell = *cell_;
  ExperimentResult result;
  result.config = config_;
  result.offered_load = config_.offered_load();
  result.metrics =
      config_.facility_mode()
          ? cell.orchestrator->collect_facility(cell.deadline, cell.links,
                                                cell.last_hop_links)
          : cell.orchestrator->collect(cell.deadline, *cell.forward);
  result.events_processed = cell.sim.events_processed();
  result.queue_high_water = cell.sim.queue_high_water();
  result.sim_duration_s = cell.sim.now_seconds().seconds();
  result.arena_reserved_bytes = arena_.stats().reserved_bytes;

  if (probe_.recorder != nullptr) {
    obs::TimelineRecorder& rec = *probe_.recorder;
    const SimTime spawn_end = to_simtime(config_.duration);
    rec.complete_span(probe_workload_track_, "spawn-window", 0, spawn_end);
    if (cell.sim.now() > spawn_end) {
      rec.complete_span(probe_workload_track_, "drain", spawn_end, cell.sim.now());
    }
    // Client-level transfer spans, synthesized from the collected records
    // (finish is outside the hot loop, so ordinary allocation is fine).
    for (const ClientRecord& client : result.metrics.clients) {
      const int track = rec.add_track("client " + std::to_string(client.client_id));
      rec.complete_span(track, client.censored ? "transfer (censored)" : "transfer",
                        to_simtime(units::Seconds::of(client.start_s)),
                        to_simtime(units::Seconds::of(client.end_s)));
    }
    // Facility mode: per-tenant scheduler-queue tracks — one "queued" span
    // per client that waited for admission, so policy head-of-line blocking
    // is visible on the timeline.
    if (config_.facility_mode()) {
      std::vector<int> tenant_tracks(config_.tenants.size(), -1);
      for (const ClientRecord& client : result.metrics.clients) {
        if (client.queue_wait_s() <= 1e-9) continue;
        const std::size_t j =
            std::min<std::size_t>(client.tenant, config_.tenants.size() - 1);
        if (tenant_tracks[j] < 0) {
          const std::string& name = config_.tenants[j].name;
          tenant_tracks[j] = rec.add_track(
              "sched " + (name.empty() ? "tenant" + std::to_string(j) : name));
        }
        rec.complete_span(tenant_tracks[j], "queued",
                          to_simtime(units::Seconds::of(client.requested_s)),
                          to_simtime(units::Seconds::of(client.start_s)));
      }
    }
  }
  return result;
}

ExperimentResult Workload::run() {
  prepare();
  drive();
  return finish();
}

ExperimentResult run_experiment(const WorkloadConfig& config) {
  return Workload(config).run();
}

ExperimentResult run_experiment(const WorkloadConfig& config, const TimelineProbe& probe) {
  Workload workload(config);
  workload.set_probe(probe);
  return workload.run();
}

}  // namespace sss::simnet
