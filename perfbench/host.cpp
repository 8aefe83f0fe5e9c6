// The traced run: three replicas in one process, one thread each.
//
// Each replica is built the way dvsd's unsharded path builds it — a
// daemon::NodeRuntime over net::UdpTransport, storage::FileStableStore and
// daemon::TraceSink, driven by its own sim::Simulator stepped from the wall
// clock like Daemon::run — and answers the same control protocol (ping, put,
// get, digest, view, stats, quit, plus mark), so the benchmark's client and
// checks run against it unchanged. Its configs are ordinary dvsd config files.
//
// What this adds is timing at every layer boundary the benchmark can reach
// from outside the program's code:
//   * a net::Transport decorator: send(), plus the handler it attach()es
//     (the receive-path protocol work);
//   * a storage::StableStore decorator, per journal key (vs, dvs, to);
//   * UdpTransport::drain() and UdpTransport::flush();
//   * Simulator::run_until();
//   * NodeRuntime::bcast_command(), the delivery hook, and kv().get().
// A span records name, start, end and parent; spans nested inside a command's
// bcast or delivery inherit its uid. Spans stay in memory and are written
// out when the host quits: every span to --spans with a .csv suffix, and a
// per-name summary (count, total and self time, bytes) to --spans itself.
// The summary covers the spans opened after the `mark` control command, which
// run.py sends when its measured window opens.
// Self time is a span's duration minus its children's; spans nest strictly
// within one thread, so the children never overlap.
//
// With --timing 0 the decorators pass straight through and record nothing:
// the same process, for measuring what the timing itself costs.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "daemon/config.h"
#include "daemon/runtime.h"
#include "daemon/trace_io.h"
#include "net/udp_transport.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/file_store.h"

namespace dvs::bench {

namespace {

enum SpanName : std::uint8_t {
  kRunUntil,
  kFlush,
  kDrain,
  kSend,
  kHandler,
  kControl,
  kBcast,
  kDeliver,
  kGet,
  kAppendVs,
  kAppendDvs,
  kAppendTo,
  kReplaceVs,
  kReplaceDvs,
  kReplaceTo,
  kSpanNames
};

constexpr const char* kNames[kSpanNames] = {
    "sim.run_until",    "udp.flush",         "udp.drain",
    "transport.send",   "transport.handler", "ctl.command",
    "runtime.bcast",    "runtime.deliver",   "kv.get",
    "store.append.vs",  "store.append.dvs",  "store.append.to",
    "store.replace.vs", "store.replace.dvs", "store.replace.to"};

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t uid = 0;
  std::uint32_t parent = 0;  // index + 1; 0 = root
  std::uint32_t bytes = 0;
  SpanName name = kRunUntil;
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One replica thread's spans. Only that thread touches it until join.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 20);
  }

  /// Opens a span; returns its handle (0 when timing is off).
  std::uint32_t open(SpanName name, std::uint64_t uid = 0) {
    if (!on_) return 0;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.uid = uid != 0 ? uid : (s.parent != 0 ? spans_[s.parent - 1].uid : 0);
    s.start_ns = now_ns();
    spans_.push_back(s);
    const auto handle = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(handle);
    return handle;
  }
  void close(std::uint32_t handle, std::uint64_t uid = 0,
             std::size_t bytes = 0) {
    if (handle == 0) return;
    Span& s = spans_[handle - 1];
    s.end_ns = now_ns();
    if (uid != 0) s.uid = uid;
    s.bytes = static_cast<std::uint32_t>(bytes);
    stack_.pop_back();
  }
  /// Spans opened from now on are the measured window's.
  void mark() { mark_ = spans_.size(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t marked() const { return mark_; }

 private:
  bool on_;
  std::size_t mark_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span over one call.
class Scope {
 public:
  Scope(Tracer& t, SpanName name, std::uint64_t uid = 0)
      : t_(t), h_(t.open(name, uid)) {}
  ~Scope() { t_.close(h_, uid_, bytes_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set(std::uint64_t uid, std::size_t bytes = 0) {
    uid_ = uid;
    bytes_ = bytes;
  }

 private:
  Tracer& t_;
  std::uint32_t h_;
  std::uint64_t uid_ = 0;
  std::size_t bytes_ = 0;
};

class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, Tracer& t) : inner_(inner), t_(t) {}

  void attach(ProcessId p, Handler handler) override {
    inner_.attach(p, [this, h = std::move(handler)](ProcessId from,
                                                    const Bytes& payload) {
      Scope s(t_, kHandler);
      h(from, payload);
    });
  }
  void send(ProcessId from, ProcessId to, const Bytes& payload) override {
    Scope s(t_, kSend);
    s.set(0, payload.size());
    inner_.send(from, to, payload);
  }
  [[nodiscard]] std::size_t max_datagram_size() const override {
    return inner_.max_datagram_size();
  }
  [[nodiscard]] const net::NetStats& stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] const ProcessSet& processes() const override {
    return inner_.processes();
  }

 private:
  net::Transport& inner_;
  Tracer& t_;
};

class TimedStore final : public storage::StableStore {
 public:
  TimedStore(storage::StableStore& inner, Tracer& t) : inner_(inner), t_(t) {}

 protected:
  void do_append(const std::string& key, const Bytes& data) override {
    Scope s(t_, journal(key, kAppendVs));
    s.set(0, data.size());
    inner_.append(key, data);
  }
  void do_replace(const std::string& key, const Bytes& data) override {
    Scope s(t_, journal(key, kReplaceVs));
    s.set(0, data.size());
    inner_.replace(key, data);
  }
  [[nodiscard]] std::optional<Bytes> do_load(
      const std::string& key) const override {
    return inner_.load(key);
  }

 private:
  /// Keys are "p<N>/<journal>"; the vs/dvs/to span names are consecutive.
  static SpanName journal(const std::string& key, SpanName vs) {
    const std::string j = key.substr(key.rfind('/') + 1);
    const int offset = j == "vs" ? 0 : j == "dvs" ? 1 : 2;
    return static_cast<SpanName>(vs + offset);
  }

  storage::StableStore& inner_;
  Tracer& t_;
};

std::atomic<bool> g_quit{false};

std::uint64_t monotonic_us() { return now_ns() / 1000; }

/// One replica: dvsd's unsharded column plus its control socket and loop.
class Replica {
 public:
  Replica(const daemon::DaemonConfig& config, bool timing)
      : config_(config), tracer_(timing) {
    const net::UdpEndpoint& self_ep = config_.peers.at(config_.node);
    net::UdpConfig udp;
    udp.self = config_.node;
    udp.bind_host = self_ep.host;
    udp.bind_port = self_ep.port;
    udp.max_datagram = config_.max_datagram;
    udp_ = std::make_unique<net::UdpTransport>(udp, make_universe(config_.n));
    for (const auto& [p, ep] : config_.peers) udp_->set_peer(p, ep);
    net_ = std::make_unique<TimedTransport>(*udp_, tracer_);
    file_store_ = std::make_unique<storage::FileStableStore>(config_.wal_dir);
    store_ = std::make_unique<TimedStore>(*file_store_, tracer_);
    sink_ = std::make_unique<daemon::TraceSink>(
        daemon::TraceSink::path_for(config_.trace_dir, config_.node),
        daemon::TraceMeta{realtime_us(), config_.n, config_.initial_members(),
                          config_.node});
    daemon::RuntimeOptions options;
    options.vs = config_.vs_config();
    runtime_ = std::make_unique<daemon::NodeRuntime>(
        config_.node, config_.n, config_.initial_members(), *net_, sim_,
        options, store_.get(), sink_.get(), &realtime_us);
    runtime_->set_delivery_hook([this](const daemon::RuntimeDelivery& d) {
      Scope s(tracer_, kDeliver, d.msg.uid);
    });
    runtime_->bind_metrics(metrics_);
    udp_->bind_metrics(metrics_);

    ctl_fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.control.port);
    inet_pton(AF_INET, config_.control.host.c_str(), &addr.sin_addr);
    if (ctl_fd_ < 0 ||
        ::bind(ctl_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw std::runtime_error("control bind " + config_.control.to_string() +
                               ": " + std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = ctl_fd_;
    ::epoll_ctl(udp_->epoll_fd(), EPOLL_CTL_ADD, ctl_fd_, &ev);
  }
  ~Replica() {
    if (ctl_fd_ >= 0) ::close(ctl_fd_);
  }
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Daemon::run's loop, with spans around each layer call.
  void run() {
    const std::uint64_t t0 = monotonic_us();
    const auto elapsed = [t0] { return monotonic_us() - t0; };
    runtime_->start();
    epoll_event events[8];
    while (!g_quit.load(std::memory_order_relaxed)) {
      {
        Scope s(tracer_, kRunUntil);
        sim_.run_until(elapsed());
      }
      flush();
      int timeout_ms = 50;
      if (const auto next = sim_.next_event_time(); next.has_value()) {
        const sim::Time now = sim_.now();
        const sim::Time wait = *next > now ? *next - now : 0;
        timeout_ms =
            static_cast<int>(std::min<sim::Time>((wait + 999) / 1000, 50));
      }
      const int n = ::epoll_wait(udp_->epoll_fd(), events, 8, timeout_ms);
      if (n < 0 && errno != EINTR) break;
      {
        Scope s(tracer_, kRunUntil);
        sim_.run_until(elapsed());
      }
      for (int i = 0; i < n; ++i) {
        if (events[i].data.fd == udp_->socket_fd()) {
          Scope s(tracer_, kDrain);
          udp_->drain();
        } else if (events[i].data.fd == ctl_fd_) {
          control();
        }
      }
      flush();
    }
    flush();
  }

  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

 private:
  void flush() {
    Scope s(tracer_, kFlush);
    udp_->flush();
  }

  void control() {
    char buf[4096];
    for (;;) {
      sockaddr_in src{};
      socklen_t len = sizeof(src);
      const ssize_t got = ::recvfrom(ctl_fd_, buf, sizeof(buf) - 1, 0,
                                     reinterpret_cast<sockaddr*>(&src), &len);
      if (got < 0) {
        if (errno == EINTR) continue;
        return;
      }
      std::string reply;
      {
        Scope s(tracer_, kControl);
        reply = execute(std::string(buf, static_cast<std::size_t>(got)));
      }
      (void)::sendto(ctl_fd_, reply.data(), reply.size(), 0,
                     reinterpret_cast<const sockaddr*>(&src), len);
    }
  }

  /// The subset of dvsd's control grammar the benchmark uses.
  std::string execute(const std::string& command) {
    std::istringstream is(command);
    std::string op;
    is >> op;
    if (op == "ping") return "pong " + config_.node.to_string();
    if (op == "put") {
      std::string key, value;
      if (!(is >> key >> value)) return "err usage: put <key> <value>";
      Scope s(tracer_, kBcast);
      const std::uint64_t uid =
          runtime_->bcast_command("put " + key + " " + value);
      s.set(uid);
      return "ok uid=" + std::to_string(uid);
    }
    if (op == "get") {
      std::string key;
      if (!(is >> key)) return "err usage: get <key>";
      Scope s(tracer_, kGet);
      if (!runtime_->kv().data().contains(key)) return "(nil)";
      return runtime_->kv().get(key);
    }
    if (op == "digest") {
      std::ostringstream os;
      os << "digest=" << std::hex << runtime_->kv().digest() << std::dec
         << " applied=" << runtime_->kv().applied();
      return os.str();
    }
    if (op == "view") {
      const std::optional<View>& v = runtime_->vs().view();
      if (!v.has_value()) return "no-view";
      return "view=" + v->to_string() +
             " primary=" + (runtime_->dvs().in_primary() ? "1" : "0");
    }
    if (op == "stats") return metrics_.snapshot().to_prometheus();
    if (op == "mark") {
      tracer_.mark();
      return "ok";
    }
    if (op == "quit") {
      g_quit.store(true);
      return "ok";
    }
    return "err unknown command '" + op + "'";
  }

  daemon::DaemonConfig config_;
  Tracer tracer_;
  sim::Simulator sim_;
  std::unique_ptr<net::UdpTransport> udp_;
  std::unique_ptr<TimedTransport> net_;
  std::unique_ptr<storage::FileStableStore> file_store_;
  std::unique_ptr<TimedStore> store_;
  std::unique_ptr<daemon::TraceSink> sink_;
  std::unique_ptr<daemon::NodeRuntime> runtime_;
  obs::MetricsRegistry metrics_;
  int ctl_fd_ = -1;
};

void write_spans(const std::string& path,
                 const std::vector<std::unique_ptr<Replica>>& replicas) {
  std::uint64_t count[kSpanNames] = {}, total_ns[kSpanNames] = {},
                self_ns[kSpanNames] = {}, bytes[kSpanNames] = {};
  std::FILE* raw = std::fopen((path + ".csv").c_str(), "w");
  if (raw == nullptr) throw std::runtime_error("cannot write " + path + ".csv");
  std::fputs("thread,name,start_ns,end_ns,parent,uid,bytes\n", raw);
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    const std::vector<Span>& spans = replicas[r]->tracer().spans();
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::uint64_t dur = s.end_ns - s.start_ns;
      if (i >= replicas[r]->tracer().marked()) {
        ++count[s.name];
        total_ns[s.name] += dur;
        self_ns[s.name] += dur - std::min(dur, child_ns[i]);
        bytes[s.name] += s.bytes;
      }
      std::fprintf(raw, "%zu,%s,%llu,%llu,%u,%llu,%u\n", r, kNames[s.name],
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.uid), s.bytes);
    }
  }
  std::fclose(raw);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  const auto section = [&](const char* title, const std::uint64_t* v,
                           double scale, bool last) {
    std::fprintf(out, "\"%s\":{", title);
    for (int i = 0; i < kSpanNames; ++i) {
      std::fprintf(out, "%s\"%s\":%.3f", i == 0 ? "" : ",", kNames[i],
                   static_cast<double>(v[i]) * scale);
    }
    std::fprintf(out, "}%s", last ? "" : ",");
  };
  std::fputs("{", out);
  section("count", count, 1.0, false);
  section("total_us", total_ns, 1e-3, false);
  section("self_us", self_ns, 1e-3, false);
  section("bytes", bytes, 1.0, true);
  std::fputs("}\n", out);
  std::fclose(out);
}

}  // namespace

int host_main(int argc, char** argv) {
  std::string configs, spans_path;
  bool timing = true;
  std::uint64_t stagger_us = 0;
  for (const auto& [k, v] : parse_flags(argc, argv)) {
    if (k == "configs") configs = v;
    else if (k == "timing") timing = v != "0";
    else if (k == "spans") spans_path = v;
    else if (k == "stagger-us") stagger_us = std::stoull(v);
    else throw std::runtime_error("unknown flag --" + k);
  }
  if (configs.empty() || spans_path.empty()) {
    std::fputs("usage: dvsbench host --configs c0,c1,c2 --timing 0|1 "
               "--spans FILE [--stagger-us N]\n",
               stderr);
    return 2;
  }
  std::vector<std::unique_ptr<Replica>> replicas;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = configs.find(',', start);
    replicas.push_back(std::make_unique<Replica>(
        daemon::DaemonConfig::parse_file(configs.substr(start, comma - start)),
        timing));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  std::vector<std::thread> threads;
  std::vector<std::string> errors(replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        // Replica i starts its timers i * stagger later, as dvsd processes
        // started that far apart would.
        std::this_thread::sleep_for(std::chrono::microseconds(i * stagger_us));
        replicas[i]->run();
      } catch (const std::exception& e) {
        errors[i] = e.what();
        g_quit.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  write_spans(spans_path, replicas);
  return 0;
}

}  // namespace dvs::bench
