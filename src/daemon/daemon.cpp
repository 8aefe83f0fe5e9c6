#include "daemon/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <sstream>
#include <stdexcept>

namespace dvs::daemon {

namespace {

/// Joiner-side retry period for the state-transfer request (the donor may
/// itself still be installing the new pool view when the first one lands).
constexpr sim::Time kJoinRetryPeriod = 500 * sim::kMillisecond;

sockaddr_in make_addr(const net::UdpEndpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("daemon: bad IPv4 address '" + ep.host + "'");
  }
  return addr;
}

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t realtime_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

// The pool membership group's Transport: untagged datagrams on the shared
// socket (column traffic is group-framed, transfer frames are 0x48-tagged,
// so the default-handler channel is exclusively the pool VS protocol's).
class Daemon::PoolTransport : public net::Transport {
 public:
  PoolTransport(shard::GroupMux& mux, std::size_t n)
      : mux_(mux), procs_(make_universe(n)) {}

  void attach(ProcessId p, Handler handler) override {
    mux_.attach_default(p, std::move(handler));
  }
  void send(ProcessId from, ProcessId to, const Bytes& payload) override {
    mux_.base().send(from, to, payload);
  }
  [[nodiscard]] std::size_t max_datagram_size() const override {
    return mux_.base().max_datagram_size();
  }
  [[nodiscard]] const net::NetStats& stats() const override {
    return mux_.base().stats();
  }
  [[nodiscard]] const ProcessSet& processes() const override {
    return procs_;
  }

 private:
  shard::GroupMux& mux_;
  ProcessSet procs_;
};

Daemon::Daemon(DaemonConfig config) : config_(std::move(config)) {
  config_.validate();
  const bool sharded = config_.shards > 0;
  if (!sharded && !config_.wal_dir.empty()) {
    store_ = std::make_unique<storage::FileStableStore>(config_.wal_dir);
  }
  if (!sharded && !config_.trace_dir.empty()) {
    sink_ = std::make_unique<TraceSink>(
        TraceSink::path_for(config_.trace_dir, config_.node),
        TraceMeta{realtime_us(), config_.n, config_.initial_members(),
                  config_.node});
  }
  const net::UdpEndpoint& self_ep = config_.peers.at(config_.node);
  net::UdpConfig udp;
  udp.self = config_.node;
  udp.bind_host = self_ep.host;
  udp.bind_port = self_ep.port;
  udp.max_datagram = config_.max_datagram;
  udp.drop_probability = config_.drop;
  udp.drop_seed = config_.seed;
  transport_ =
      std::make_unique<net::UdpTransport>(udp, make_universe(config_.n));
  for (const auto& [p, ep] : config_.peers) transport_->set_peer(p, ep);

  // Control socket: same epoll instance, so one wait serves both.
  ctl_fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ctl_fd_ < 0) {
    throw std::runtime_error(std::string("daemon: control socket(): ") +
                             std::strerror(errno));
  }
  sockaddr_in ctl_addr = make_addr(config_.control);
  if (::bind(ctl_fd_, reinterpret_cast<const sockaddr*>(&ctl_addr),
             sizeof(ctl_addr)) != 0) {
    const int err = errno;
    ::close(ctl_fd_);
    ctl_fd_ = -1;
    throw std::runtime_error("daemon: control bind(" +
                             config_.control.to_string() +
                             "): " + std::strerror(err));
  }
  socklen_t len = sizeof(ctl_addr);
  ::getsockname(ctl_fd_, reinterpret_cast<sockaddr*>(&ctl_addr), &len);
  control_port_ = ntohs(ctl_addr.sin_port);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = ctl_fd_;
  if (::epoll_ctl(transport_->epoll_fd(), EPOLL_CTL_ADD, ctl_fd_, &ev) != 0) {
    const int err = errno;
    ::close(ctl_fd_);
    ctl_fd_ = -1;
    throw std::runtime_error(std::string("daemon: epoll_ctl(control): ") +
                             std::strerror(err));
  }

  if (sharded) {
    build_columns();
  } else {
    RuntimeOptions options;
    options.vs = config_.vs_config();
    runtime_ = std::make_unique<NodeRuntime>(
        config_.node, config_.n, config_.initial_members(), *transport_, sim_,
        options, store_.get(), sink_.get(), &realtime_us);
    runtime_->bind_metrics(metrics_);
  }
  transport_->bind_metrics(metrics_);
  t0_ns_ = monotonic_ns();
}

void Daemon::build_columns() {
  // One column per shard whose provisioned replica set contains this node.
  // All columns share the one UDP socket: GroupMux prefixes every datagram
  // with the vsys::GroupFrame header and demuxes on receive.
  mux_ = std::make_unique<shard::GroupMux>(*transport_);
  if (config_.dynamic) {
    pool_store_ =
        std::make_unique<storage::FileStableStore>(config_.wal_dir + "/pool");
  }
  router_ = shard::ShardRouter(config_.shards);
  // Contact resolution starts from the full universe; with a pool
  // membership group it is refreshed from every live view installed
  // (apply_pool_view), so clients chase replicas that actually answer.
  router_.set_pool_view(make_universe(config_.n));
  // The engine starts from the durable map when one is stored; its
  // recovery scan reopens every column whose episode had committed its
  // marker when we crashed.
  engine_ = std::make_unique<shard::MigrationEngine>(
      static_cast<shard::MigrationPort&>(*this),
      shard::provision(make_universe(config_.n), config_.shards,
                       config_.replication),
      config_.node);
  engine_->recover();
  router_.set_assignments(engine_->assignments());
  for (const shard::ShardAssignment& a : engine_->assignments()) {
    if (!router_.hosts(a.group, config_.node)) continue;
    if (column_for(a.group) == nullptr) open_column(a, 0);
  }
  if (config_.dynamic) {
    mux_->set_transfer_handler(
        config_.node, [this](ProcessId from, const shard::TransferFrame& f) {
          engine_->on_transfer(from, config_.node, f);
        });
    build_pool_group();
  }
}

void Daemon::open_column(const shard::ShardAssignment& a,
                         std::uint64_t handoff_next) {
  auto col = std::make_unique<Column>();
  col->group = a.group;
  col->port = &mux_->open(a.group, a.replicas);
  col->local = col->port->to_local(config_.node);
  const std::size_t r = a.replicas.size();
  // Per-column WAL root: shard-local ids repeat across groups, so the
  // columns must not share one journal namespace.
  if (!config_.wal_dir.empty()) col->store = column_store(a.group, true);
  if (!config_.trace_dir.empty()) {
    col->sink = std::make_unique<TraceSink>(
        TraceSink::path_for(config_.trace_dir, config_.node, a.group),
        TraceMeta{realtime_us(), r, r, col->local, a.group});
  }
  RuntimeOptions options;
  options.vs = config_.vs_config();
  col->runtime = std::make_unique<NodeRuntime>(
      col->local, r, r, *col->port, sim_, options, col->store,
      col->sink.get(), &realtime_us);
  // A column opened over transferred journals adopts the donor's delivery
  // cursor: CRASH (recorded by the recovering constructor) then HANDOFF
  // tell the offline auditor the new incarnation may re-deliver the
  // donor's tail but can never invent order.
  if (handoff_next != 0) col->runtime->note_handoff(handoff_next);
  col->runtime->bind_metrics(col->metrics);
  col->runtime->start();
  columns_.push_back(std::move(col));
}

void Daemon::build_pool_group() {
  pool_net_ = std::make_unique<PoolTransport>(*mux_, config_.n);
  const std::string key = "pool/" + config_.node.to_string() + "/vs";
  const bool recovered = pool_store_->load(key).has_value();
  vsys::VsCallbacks cb;
  cb.on_newview = [this](const View& v) { apply_pool_view(v); };
  const View pool_v0{ViewId::initial(), make_universe(config_.n)};
  pool_vs_ = std::make_unique<vsys::VsNode>(
      config_.node,
      recovered ? std::nullopt : std::optional<View>{pool_v0}, *pool_net_,
      sim_, config_.vs_config(), std::move(cb));
  if (recovered) {
    pool_vs_->restore_epoch(vsys::VsNode::recover_epoch(*pool_store_, key));
  }
  pool_vs_->attach_storage(*pool_store_, key);
}

void Daemon::apply_pool_view(const View& view) {
  router_.set_pool_view(view.set());
  // Every daemon sees the same totally-ordered sequence of pool views (that
  // is what the membership service provides), so every engine computes the
  // same plans and converges on the same map without any coordinator.
  engine_->on_pool_view(view.set());
  router_.set_assignments(engine_->assignments());
}

storage::StableStore* Daemon::column_store(std::uint32_t group, bool create) {
  const std::string root = config_.wal_dir + "/g" + std::to_string(group);
  std::error_code ec;
  if (!create && !std::filesystem::is_directory(root, ec)) return nullptr;
  std::unique_ptr<storage::FileStableStore>& store = stores_[group];
  if (store == nullptr) {
    store = std::make_unique<storage::FileStableStore>(root);
  }
  return store.get();
}

void Daemon::remap(std::uint32_t group, ProcessId slot, ProcessId to) {
  if (Column* col = column_for(group)) col->port->remap(slot, to);
}

void Daemon::install_column(std::uint32_t group, ProcessId /*slot*/,
                            ProcessId /*to*/, std::uint64_t next) {
  // NodeRuntime's recovery path rebuilds the stack over the installed
  // journals (and records EvCrash), replay_kv rebuilds the application
  // state, and open_column records the HANDOFF.
  open_column(engine_->assignments()[group - 1], next);
  router_.set_assignments(engine_->assignments());
}

void Daemon::teardown_column(std::uint32_t group) {
  for (auto it = columns_.begin(); it != columns_.end(); ++it) {
    if ((*it)->group != group) continue;
    // Close + fsync the trace sink BEFORE dropping the column: the sink
    // holds one descriptor per column, and a daemon that cycles through
    // many false-suspicion teardowns must not accumulate them. The fsync
    // makes the final records durable before the slot's new host writes
    // its own incarnation of the history.
    if ((*it)->sink != nullptr) (*it)->sink->close();
    columns_.erase(it);  // destroys the runtime before its port goes away
    mux_->close(group);
    stores_.erase(group);  // and its held journal descriptors
    return;
  }
}

void Daemon::schedule_retry(std::uint32_t group) {
  sim_.schedule_at(sim_.now() + kJoinRetryPeriod,
                   [this, group] { engine_->retry(group); });
}

const std::vector<shard::ShardAssignment>& Daemon::assignments() const {
  static const std::vector<shard::ShardAssignment> kUnsharded;
  return engine_ ? engine_->assignments() : kUnsharded;
}

bool Daemon::recovered() const {
  if (runtime_ != nullptr && runtime_->recovered()) return true;
  return std::any_of(columns_.begin(), columns_.end(),
                     [](const std::unique_ptr<Column>& c) {
                       return c->runtime->recovered();
                     });
}

Daemon::Column* Daemon::column_for(std::uint32_t group) {
  for (const std::unique_ptr<Column>& c : columns_) {
    if (c->group == group) return c.get();
  }
  return nullptr;
}

Daemon::~Daemon() {
  if (ctl_fd_ >= 0) ::close(ctl_fd_);
}

std::uint64_t Daemon::elapsed_us() const {
  return (monotonic_ns() - t0_ns_) / 1000ULL;
}

int Daemon::run(const volatile std::sig_atomic_t* stop) {
  if (runtime_ != nullptr) runtime_->start();
  if (pool_vs_ != nullptr) pool_vs_->start();
  epoll_event events[8];
  while (!quit_ && (stop == nullptr || *stop == 0)) {
    // Fire every timer due by now; the callbacks may send.
    sim_.run_until(elapsed_us());
    transport_->flush();
    // Sleep until the next timer or the next datagram, whichever first.
    // The 50ms cap bounds the reaction time to signals.
    int timeout_ms = 50;
    if (const auto next = sim_.next_event_time(); next.has_value()) {
      const sim::Time now = sim_.now();
      const sim::Time wait = *next > now ? *next - now : 0;
      timeout_ms = static_cast<int>(
          std::min<sim::Time>((wait + 999) / 1000, 50));
    }
    const int n = ::epoll_wait(transport_->epoll_fd(), events, 8, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks *stop
      return 1;
    }
    // Advance simulated time to the arrival instant before dispatching, so
    // handlers scheduling relative timers see the true now().
    sim_.run_until(elapsed_us());
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == transport_->socket_fd()) {
        transport_->drain();
      } else if (events[i].data.fd == ctl_fd_) {
        handle_control();
      }
    }
    transport_->flush();
  }
  transport_->flush();
  return 0;
}

void Daemon::handle_control() {
  char buf[4096];
  for (;;) {
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n =
        ::recvfrom(ctl_fd_, buf, sizeof(buf) - 1, 0,
                   reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: queue drained
    }
    std::string command(buf, static_cast<std::size_t>(n));
    while (!command.empty() &&
           (command.back() == '\n' || command.back() == '\r' ||
            command.back() == ' ')) {
      command.pop_back();
    }
    const std::string reply = execute(command);
    (void)::sendto(ctl_fd_, reply.data(), reply.size(), 0,
                   reinterpret_cast<const sockaddr*>(&src), src_len);
  }
}

std::string Daemon::execute(const std::string& command) {
  const bool sharded = !columns_.empty();
  std::istringstream is(command);
  std::string op;
  is >> op;
  if (op == "ping") {
    return "pong " + config_.node.to_string() +
           " pid=" + std::to_string(::getpid()) +
           " recovered=" + (recovered() ? "1" : "0");
  }
  // In a sharded deployment every keyed op routes through the ShardRouter;
  // a node that does not host the key's shard answers with a redirect the
  // client (cluster.sh) can follow instead of silently writing into the
  // wrong totally-ordered stream.
  const auto route = [&](const std::string& key) -> std::pair<Column*, std::string> {
    if (!sharded) return {nullptr, ""};
    const std::uint32_t k = router_.shard_of(key);
    Column* col = column_for(k);
    if (col != nullptr) return {col, ""};
    const ProcessId contact = router_.contact(k, config_.node);
    return {nullptr, "moved shard=" + std::to_string(k) +
                         " node=" + std::to_string(contact.value())};
  };
  if (op == "put") {
    std::string key, value;
    if (!(is >> key >> value)) return "err usage: put <key> <value>";
    if (sharded) {
      const auto [col, moved] = route(key);
      if (col == nullptr) return moved;
      const std::uint64_t uid =
          col->runtime->bcast_command("put " + key + " " + value);
      return "ok uid=" + std::to_string(uid) +
             " shard=" + std::to_string(col->group);
    }
    const std::uint64_t uid =
        runtime_->bcast_command("put " + key + " " + value);
    return "ok uid=" + std::to_string(uid);
  }
  if (op == "del") {
    std::string key;
    if (!(is >> key)) return "err usage: del <key>";
    if (sharded) {
      const auto [col, moved] = route(key);
      if (col == nullptr) return moved;
      const std::uint64_t uid = col->runtime->bcast_command("del " + key);
      return "ok uid=" + std::to_string(uid) +
             " shard=" + std::to_string(col->group);
    }
    const std::uint64_t uid = runtime_->bcast_command("del " + key);
    return "ok uid=" + std::to_string(uid);
  }
  if (op == "get") {
    std::string key;
    if (!(is >> key)) return "err usage: get <key>";
    if (sharded) {
      const auto [col, moved] = route(key);
      if (col == nullptr) return moved;
      if (!col->runtime->kv().data().contains(key)) return "(nil)";
      return col->runtime->kv().get(key);
    }
    if (!runtime_->kv().data().contains(key)) return "(nil)";
    return runtime_->kv().get(key);
  }
  if (op == "dump") {
    if (!sharded) return runtime_->kv().snapshot();
    std::string out;
    for (const std::unique_ptr<Column>& c : columns_) {
      out += "g" + std::to_string(c->group) + "\n" + c->runtime->kv().snapshot();
    }
    return out;
  }
  if (op == "digest") {
    std::ostringstream os;
    if (sharded) {
      for (const std::unique_ptr<Column>& c : columns_) {
        os << "g" << c->group << " digest=" << std::hex
           << c->runtime->kv().digest() << std::dec
           << " applied=" << c->runtime->kv().applied() << "\n";
      }
      return os.str();
    }
    os << "digest=" << std::hex << runtime_->kv().digest() << std::dec
       << " applied=" << runtime_->kv().applied();
    return os.str();
  }
  if (op == "applied") {
    if (!sharded) return std::to_string(runtime_->kv().applied());
    std::uint64_t total = 0;
    for (const std::unique_ptr<Column>& c : columns_) {
      total += c->runtime->kv().applied();
    }
    return std::to_string(total);
  }
  if (op == "view") {
    const auto one = [](NodeRuntime& rt) -> std::string {
      const std::optional<View>& v = rt.vs().view();
      if (!v.has_value()) return "no-view";
      return "view=" + v->to_string() +
             " primary=" + (rt.dvs().in_primary() ? "1" : "0");
    };
    if (!sharded) return one(*runtime_);
    std::string out;
    for (const std::unique_ptr<Column>& c : columns_) {
      out += "g" + std::to_string(c->group) + " " + one(*c->runtime) + "\n";
    }
    return out;
  }
  if (op == "stats") {
    obs::MetricsSnapshot out = metrics_.snapshot();
    // Same shape as ShardCluster::metrics_snapshot(): per-column metrics
    // under shard.<k>.*, pool-level counter/gauge rollups under pool.*.
    // Frames for groups nobody here opened mean the peers disagree about
    // the shard topology — surfaced as its own counter.
    if (engine_) {
      out.counters["shard.unroutable"] = mux_->unroutable();
      out.counters["shard.transfer_rejects"] = mux_->transfer_rejects();
      out.counters["shard.transfer_ignored"] = engine_->transfer_ignored();
      out.counters["pool.migrations"] = engine_->migrations();
      out.counters["pool.migration_stalls"] = engine_->stalls();
      out.counters["pool.migration_lost"] = engine_->lost();
      out.counters["pool.router_re_resolutions"] = router_.re_resolutions();
    }
    for (const std::unique_ptr<Column>& c : columns_) {
      const std::string prefix = "shard." + std::to_string(c->group) + ".";
      const obs::MetricsSnapshot s = c->metrics.snapshot();
      for (const auto& [key, v] : s.counters) {
        out.counters[prefix + key] = v;
        out.counters["pool." + key] += v;
      }
      for (const auto& [key, v] : s.gauges) {
        out.gauges[prefix + key] = v;
        out.gauges["pool." + key] += v;
      }
      for (const auto& [key, v] : s.histograms) out.histograms[prefix + key] = v;
    }
    return out.to_prometheus();
  }
  if (op == "drop") {
    double p = 0.0;
    if (!(is >> p) || p < 0.0 || p > 1.0) {
      return "err usage: drop <probability in [0,1]>";
    }
    transport_->set_drop_probability(p);
    return "ok";
  }
  if (op == "fds") {
    // Open-descriptor count straight from the kernel; the dvsd system test
    // asserts column teardown does not leak trace/WAL descriptors.
    std::size_t count = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd", ec)) {
      (void)entry;
      ++count;
    }
    if (ec) return "err cannot read /proc/self/fd";
    return std::to_string(count);
  }
  if (op == "shardmap") {
    if (!sharded) return "err unsharded deployment";
    std::ostringstream os;
    for (const shard::ShardAssignment& a : engine_->assignments()) {
      os << "g" << a.group;
      for (const ProcessId p : a.replicas) os << " " << p.value();
      os << "\n";
    }
    os << "migrations=" << engine_->migrations() << "\n";
    return os.str();
  }
  if (op == "quit") {
    quit_ = true;
    return "ok";
  }
  return "err unknown command '" + op + "'";
}

}  // namespace dvs::daemon
