// Open-loop client: the workload's seeded op stream, sent over the dvsd
// control protocol at its due times whatever the replies are doing.
//
// One connected UDP socket per replica. Each daemon answers control
// datagrams in arrival order, so replies pair with requests FIFO per
// socket; a request with no reply after kOpTimeoutUs fails. On stdin run.py
// may say "down <i>" / "up <i>": a down replica gets no new ops and its
// outstanding ones fail at once (churn sends to live replicas only).
//
// A late reply to a failed request would pair with the next request on its
// socket, so every failure also fails the rest of that socket's queue and
// replaces the socket with a new one (a new source port): late replies then
// go to a closed port and never reach a later request.
//
// Output (--out), one line per op in due order:
//   idx kind replica due_us sent_us reply_us status uid key
// kind is p (put), g (get) or s (scan sent as a get of its start key);
// status is ok, timeout or err; times are CLOCK_REALTIME microseconds.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace dvs::bench {

namespace {

constexpr std::uint64_t kOpTimeoutUs = 1'000'000;

struct OpRecord {
  char kind = 'p';
  std::uint32_t replica = 0;
  std::uint64_t due = 0;
  std::uint64_t sent = 0;
  std::uint64_t reply = 0;
  const char* status = "timeout";
  std::uint64_t uid = 0;
  std::uint64_t key = 0;
};

int connect_udp(const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    throw std::runtime_error("bad endpoint '" + endpoint + "'");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(
      std::stoul(endpoint.substr(colon + 1))));
  if (inet_pton(AF_INET, endpoint.substr(0, colon).c_str(), &addr.sin_addr) !=
      1) {
    throw std::runtime_error("bad endpoint '" + endpoint + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect(" + endpoint + ") failed");
  }
  return fd;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t at = s.find(sep, start);
    out.push_back(s.substr(start, at - start));
    if (at == std::string::npos) return out;
    start = at + 1;
  }
}

}  // namespace

int client_main(int argc, char** argv) {
  std::string workload_name, ctl, out_path;
  std::uint64_t seed = 1, window_ms = 10'000;
  for (const auto& [k, v] : parse_flags(argc, argv)) {
    if (k == "workload") workload_name = v;
    else if (k == "seed") seed = std::stoull(v);
    else if (k == "ms") window_ms = std::stoull(v);
    else if (k == "ctl") ctl = v;
    else if (k == "out") out_path = v;
    else throw std::runtime_error("unknown flag --" + k);
  }
  if (workload_name.empty() || ctl.empty() || out_path.empty()) {
    std::fputs("usage: dvsbench client --workload W --seed S --ms T "
               "--ctl host:port,... --out FILE\n",
               stderr);
    return 2;
  }
  const WorkloadSpec spec = workload_spec(workload_name);
  const std::vector<std::string> endpoints = split(ctl, ',');
  if (endpoints.empty() || endpoints.size() > 3) {
    throw std::runtime_error("--ctl takes one to three endpoints");
  }
  std::vector<int> fds;
  for (const std::string& ep : endpoints) fds.push_back(connect_udp(ep));
  const std::size_t n = fds.size();
  std::vector<bool> live(n, true);
  std::vector<std::deque<std::size_t>> pending(n);
  // Fails replica r's outstanding requests (their status stays "timeout")
  // and swaps in a fresh socket. The new one is opened before the old one
  // is closed, so the two cannot share a port.
  const auto reset = [&](std::size_t r) {
    pending[r].clear();
    const int fresh = connect_udp(endpoints[r]);
    ::close(fds[r]);
    fds[r] = fresh;
  };
  ::fcntl(STDIN_FILENO, F_SETFL, ::fcntl(STDIN_FILENO, F_GETFL) | O_NONBLOCK);
  bool stdin_open = true;
  std::string stdin_buf;
  // Wake-ups land on the due instant, not up to 50us after it.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  workload::OpGenerator gen(spec.mix, workload::client_stream_seed(seed, 0));
  const double mean_gap_us = 1e6 / spec.ops_per_s;
  std::vector<OpRecord> ops;
  ops.reserve(static_cast<std::size_t>(spec.ops_per_s * window_ms / 800) + 16);

  const std::uint64_t t0 = realtime_us() + 20'000;
  const std::uint64_t t_end = t0 + window_ms * 1000ULL;
  std::printf("start %llu\n", static_cast<unsigned long long>(t0));
  std::fflush(stdout);

  std::uint64_t next_due = t0 + gen.arrival_gap_us(mean_gap_us);
  std::size_t rr = 0;  // round-robin cursor over replicas
  char buf[65536];
  for (;;) {
    std::uint64_t now = realtime_us();
    const bool generating = next_due < t_end;
    bool any_pending = false;
    for (const auto& q : pending) any_pending = any_pending || !q.empty();
    if (!generating && !any_pending) break;

    // Send everything due (open loop: never waits for a reply).
    while (next_due < t_end && next_due <= now) {
      const workload::Op op = gen.next();
      OpRecord rec;
      rec.due = next_due;
      rec.key = op.key;
      const std::string key = "k" + std::to_string(op.key);
      std::string command;
      switch (op.kind) {
        case workload::OpKind::kWrite:
          rec.kind = 'p';
          command = "put " + key + " " + op.value;
          break;
        case workload::OpKind::kRead:
          rec.kind = 'g';
          command = "get " + key;
          break;
        case workload::OpKind::kScan:
          rec.kind = 's';
          command = "get " + key;
          break;
      }
      std::size_t target = n;
      for (std::size_t step = 0; step < n; ++step) {
        const std::size_t r = (rr + step) % n;
        if (live[r]) {
          target = r;
          break;
        }
      }
      rr = (rr + 1) % n;
      rec.sent = realtime_us();
      if (target == n) {
        rec.status = "err";  // no live replica at all
        rec.replica = 0;
        ops.push_back(rec);
      } else {
        rec.replica = static_cast<std::uint32_t>(target);
        ops.push_back(rec);
        if (::send(fds[target], command.data(), command.size(), 0) < 0) {
          ops.back().status = "err";
        } else {
          pending[target].push_back(ops.size() - 1);
        }
      }
      next_due += gen.arrival_gap_us(mean_gap_us);
      now = realtime_us();
    }

    // A request that outlived the timeout fails with everything queued
    // behind it on its socket.
    for (std::size_t r = 0; r < n; ++r) {
      if (!pending[r].empty() &&
          ops[pending[r].front()].sent + kOpTimeoutUs <= now) {
        reset(r);
      }
    }

    // Sleep until the next due op, the oldest timeout, or any input.
    std::uint64_t wake = next_due < t_end ? next_due : now + 50'000;
    for (std::size_t r = 0; r < n; ++r) {
      if (!pending[r].empty()) {
        wake = std::min(wake, ops[pending[r].front()].sent + kOpTimeoutUs);
      }
    }
    std::vector<pollfd> pfds;
    for (const int fd : fds) pfds.push_back({fd, POLLIN, 0});
    if (stdin_open) pfds.push_back({STDIN_FILENO, POLLIN, 0});
    const std::uint64_t wait_us = wake > now ? wake - now : 0;
    timespec ts{static_cast<time_t>(wait_us / 1'000'000),
                static_cast<long>((wait_us % 1'000'000) * 1000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    if (ready <= 0) continue;
    const std::uint64_t arrived = realtime_us();
    for (std::size_t r = 0; r < n; ++r) {
      if ((pfds[r].revents & (POLLIN | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t got = ::recv(fds[r], buf, sizeof(buf) - 1, 0);
        if (got < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          continue;  // ECONNREFUSED from a dead replica: timeouts decide
        }
        if (pending[r].empty()) continue;  // nothing waits for it
        OpRecord& rec = ops[pending[r].front()];
        pending[r].pop_front();
        rec.reply = arrived;
        const std::string reply(buf, static_cast<std::size_t>(got));
        if (rec.kind == 'p') {
          if (reply.rfind("ok uid=", 0) == 0) {
            rec.uid = std::stoull(reply.substr(7));
            rec.status = "ok";
          } else {
            rec.status = "err";
          }
        } else {
          rec.status = reply.rfind("err", 0) == 0 ? "err" : "ok";
        }
      }
    }
    if (stdin_open && (pfds[n].revents & (POLLIN | POLLHUP)) != 0) {
      const ssize_t got = ::read(STDIN_FILENO, buf, sizeof(buf));
      if (got <= 0) {
        stdin_open = got < 0 && errno == EAGAIN;
      } else {
        stdin_buf.append(buf, static_cast<std::size_t>(got));
        for (std::size_t nl; (nl = stdin_buf.find('\n')) != std::string::npos;) {
          const std::vector<std::string> words =
              split(stdin_buf.substr(0, nl), ' ');
          stdin_buf.erase(0, nl + 1);
          if (words.size() != 2) continue;
          const std::size_t r = std::stoul(words[1]);
          if (r >= n) continue;
          if (words[0] == "down") {
            live[r] = false;
            reset(r);
          } else if (words[0] == "up") {
            live[r] = true;
          }
        }
      }
    }
  }
  for (const int fd : fds) ::close(fd);

  std::ofstream out(out_path);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& o = ops[i];
    out << i << ' ' << o.kind << ' ' << o.replica << ' ' << o.due << ' '
        << o.sent << ' ' << o.reply << ' ' << o.status << ' ' << o.uid << ' '
        << o.key << '\n';
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write " + out_path);
  std::printf("done %zu\n", ops.size());
  return 0;
}

}  // namespace dvs::bench
