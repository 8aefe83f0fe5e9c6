// Joins the client's op log with the cluster's spec-event traces.
//
// A put's commit instant is the last counted replica's BRCV of the uid its
// `ok uid=` reply named. Along the way every put is split into hops, all
// taken from the DVS-layer events of that uid:
//
//   due -> BCAST(origin)          ctl_wait        (client send + control)
//   BCAST -> GPSND(origin)        bcast_wait      (tosys)
//   GPSND -> last GPRCV           order_wait      (vsys sequencing)
//   last GPRCV -> last SAFE       stability_wait  (vsys watermarks)
//   last SAFE -> last BRCV        deliver_wait    (tosys)
//
// The hops are differences along one chain, so they sum to the commit
// latency by construction. What can fail is their order: each instant must
// come no earlier than the one before it (every replica GPRCVs a message
// before it SAFEs it and SAFEs it before it BRCVs it, and the origin's own
// GPRCV follows its GPSND), so a negative hop means a wrong timestamp or a
// wrong event pairing; such puts are counted. Per view (DVS NEWVIEW at one
// process) the analysis records NEWVIEW -> REGISTER -> first BRCV; per kill
// and restart named in --events (written by run.py), the failover times,
// each capped at --cap-ms.
//
// The correctness gate lives here too: each acknowledged put BRCV'd exactly
// once on every replica counted for it, hops in causal order, and the trace
// audit (daemon::audit_traces, the same check as `model_checker --audit`).
//
// Output: one JSON object on stdout.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "daemon/audit.h"
#include "daemon/trace_io.h"

namespace dvs::bench {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

struct Op {
  char kind = 'p';
  std::uint32_t replica = 0;
  std::uint64_t due = 0;
  std::uint64_t sent = 0;
  std::uint64_t reply = 0;
  std::string status;
  std::uint64_t uid = 0;
};

/// Everything the traces say about one command uid.
struct UidEvents {
  std::uint64_t bcast = kNever;
  std::uint64_t gpsnd = kNever;
  std::map<std::uint32_t, std::uint64_t> gprcv;  // receiver -> first ts
  std::map<std::uint32_t, std::uint64_t> safe;
  std::map<std::uint32_t, std::uint64_t> brcv;
  std::map<std::uint32_t, std::uint32_t> brcv_count;
};

/// A fault run.py injected: SIGKILL or exec of one replica.
struct Fault {
  std::string what;
  std::uint32_t replica = 0;
  std::uint64_t ts = 0;
};

using Key = std::pair<std::uint32_t, std::uint64_t>;  // (origin, uid)

const AppMsg* app_of(const ClientMsg& m) {
  if (const auto* l = std::get_if<LabeledAppMsg>(&m)) return &l->msg;
  return nullptr;
}

void keep_first(std::map<std::uint32_t, std::uint64_t>& m, std::uint32_t p,
                std::uint64_t ts) {
  auto [it, inserted] = m.emplace(p, ts);
  if (!inserted) it->second = std::min(it->second, ts);
}

std::string json_array(const std::vector<std::int64_t>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ',';
    s += std::to_string(v[i]);
  }
  return s + "]";
}

std::string json_string(const std::string& text) {
  std::string s = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      s += '\\';
      s += c;
    } else if (c == '\n') {
      s += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      s += c;
    }
  }
  return s + "\"";
}

}  // namespace

int analyze_main(int argc, char** argv) {
  std::string ops_path, traces_dir, events_path;
  std::uint64_t cap_us = 0;
  for (const auto& [k, v] : parse_flags(argc, argv)) {
    if (k == "ops") ops_path = v;
    else if (k == "traces") traces_dir = v;
    else if (k == "events") events_path = v;
    else if (k == "cap-ms") cap_us = std::stoull(v) * 1000;
    else throw std::runtime_error("unknown flag --" + k);
  }
  if (ops_path.empty() || traces_dir.empty() || events_path.empty() ||
      cap_us == 0) {
    std::fputs("usage: dvsbench analyze --ops FILE --traces DIR "
               "--events FILE --cap-ms N\n",
               stderr);
    return 2;
  }

  std::vector<Op> ops;
  {
    std::ifstream in(ops_path);
    if (!in) throw std::runtime_error("cannot read " + ops_path);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream is(line);
      std::size_t idx = 0;
      std::uint64_t key = 0;
      Op op;
      if (!(is >> idx >> op.kind >> op.replica >> op.due >> op.sent >>
            op.reply >> op.status >> op.uid >> key)) {
        throw std::runtime_error("malformed op line: " + line);
      }
      ops.push_back(op);
    }
  }
  std::vector<Fault> faults;
  {
    std::ifstream in(events_path);
    if (!in) throw std::runtime_error("cannot read " + events_path);
    Fault f;
    while (in >> f.what >> f.replica >> f.ts) faults.push_back(f);
  }

  const std::vector<daemon::ProcessTrace> traces =
      daemon::load_trace_dir(traces_dir);
  std::map<Key, UidEvents> by_uid;
  // Per process: DVS NEWVIEW, REGISTER, VS NEWVIEW and BRCV instants.
  struct ProcessView {
    std::vector<std::uint64_t> dvs_newview, reg, vs_newview;
    std::vector<std::pair<std::uint64_t, Key>> brcv;  // ts, command
  };
  std::map<std::uint32_t, ProcessView> per_process;
  for (const daemon::ProcessTrace& t : traces) {
    const std::uint32_t self = t.self().value();
    ProcessView& pv = per_process[self];
    for (const daemon::TracedEvent& e : t.events) {
      if (const auto* to = std::get_if<spec::ToEvent>(&e.event)) {
        if (const auto* b = std::get_if<spec::EvBcast>(to)) {
          UidEvents& u = by_uid[{b->a.origin.value(), b->a.uid}];
          u.bcast = std::min(u.bcast, e.ts_us);
        } else if (const auto* r = std::get_if<spec::EvBrcv>(to)) {
          const Key key{r->a.origin.value(), r->a.uid};
          UidEvents& u = by_uid[key];
          keep_first(u.brcv, self, e.ts_us);
          ++u.brcv_count[self];
          pv.brcv.emplace_back(e.ts_us, key);
        }
      } else if (const auto* dvs = std::get_if<spec::DvsEvent>(&e.event)) {
        if (const auto* s = std::get_if<spec::EvGpsnd<ClientMsg>>(dvs)) {
          if (const AppMsg* a = app_of(s->m)) {
            UidEvents& u = by_uid[{a->origin.value(), a->uid}];
            u.gpsnd = std::min(u.gpsnd, e.ts_us);
          }
        } else if (const auto* g = std::get_if<spec::EvGprcv<ClientMsg>>(dvs)) {
          if (const AppMsg* a = app_of(g->m)) {
            keep_first(by_uid[{a->origin.value(), a->uid}].gprcv, self, e.ts_us);
          }
        } else if (const auto* s2 = std::get_if<spec::EvSafe<ClientMsg>>(dvs)) {
          if (const AppMsg* a = app_of(s2->m)) {
            keep_first(by_uid[{a->origin.value(), a->uid}].safe, self, e.ts_us);
          }
        } else if (std::holds_alternative<spec::EvNewview>(*dvs)) {
          pv.dvs_newview.push_back(e.ts_us);
        } else if (std::holds_alternative<spec::EvRegister>(*dvs)) {
          pv.reg.push_back(e.ts_us);
        }
      } else if (const auto* vs = std::get_if<spec::VsEvent>(&e.event)) {
        if (std::holds_alternative<spec::EvNewview>(*vs)) {
          pv.vs_newview.push_back(e.ts_us);
        }
      }
    }
  }

  // Which replicas must BRCV a put: those not killed between its due time
  // and their BRCV of it (a replica down at due time is not counted).
  const auto killed_in = [&](std::uint32_t p, std::uint64_t from,
                             std::uint64_t to) {
    for (const Fault& f : faults) {
      if (f.what == "kill" && f.replica == p && f.ts >= from && f.ts <= to) {
        return true;
      }
    }
    return false;
  };
  const auto down_at = [&](std::uint32_t p, std::uint64_t ts) {
    bool down = false;
    for (const Fault& f : faults) {
      if (f.replica != p || f.ts > ts) continue;
      down = f.what == "kill";
    }
    return down;
  };

  std::vector<std::int64_t> reply_lat, read_lat, commit, ctl_wait, bcast_wait,
      order_wait, stability_wait, deliver_wait, brcv_skew, gen_late;
  std::uint64_t attempted = ops.size(), timeouts = 0, errors = 0,
                uncommitted = 0, duplicates = 0, hops_incomplete = 0,
                hop_order_violations = 0, puts_ok = 0, gets_ok = 0;
  // Commit instants of committed puts, for the failover metrics.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> commits;  // due, ts
  for (const Op& op : ops) {
    gen_late.push_back(static_cast<std::int64_t>(op.sent - op.due));
    if (op.status == "timeout") {
      ++timeouts;
      continue;
    }
    if (op.status != "ok") {
      ++errors;
      continue;
    }
    reply_lat.push_back(static_cast<std::int64_t>(op.reply - op.due));
    if (op.kind != 'p') {
      ++gets_ok;
      read_lat.push_back(static_cast<std::int64_t>(op.reply - op.due));
      continue;
    }
    ++puts_ok;
    const auto it = by_uid.find({op.replica, op.uid});
    if (it == by_uid.end()) {
      ++uncommitted;
      continue;
    }
    const UidEvents& u = it->second;
    std::uint64_t first_brcv = kNever, last_brcv = 0, last_gprcv = 0,
                  last_safe = 0;
    bool complete = u.bcast != kNever && u.gpsnd != kNever;
    bool missing = false;
    for (const auto& [p, pv] : per_process) {
      if (down_at(p, op.due)) continue;
      const auto b = u.brcv.find(p);
      if (b == u.brcv.end()) {
        // Killed before it could deliver: not counted for this put.
        if (!killed_in(p, op.due, kNever)) missing = true;
        continue;
      }
      if (killed_in(p, op.due, b->second)) continue;
      if (u.brcv_count.at(p) != 1) ++duplicates;
      first_brcv = std::min(first_brcv, b->second);
      last_brcv = std::max(last_brcv, b->second);
      const auto g = u.gprcv.find(p);
      const auto s = u.safe.find(p);
      if (g == u.gprcv.end() || s == u.safe.end()) {
        complete = false;
      } else {
        last_gprcv = std::max(last_gprcv, g->second);
        last_safe = std::max(last_safe, s->second);
      }
    }
    if (missing || last_brcv == 0) {
      ++uncommitted;
      continue;
    }
    const auto d = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<std::int64_t>(b) - static_cast<std::int64_t>(a);
    };
    const std::int64_t latency = d(op.due, last_brcv);
    commit.push_back(latency);
    commits.emplace_back(op.due, last_brcv);
    brcv_skew.push_back(d(first_brcv, last_brcv));
    if (!complete) {
      ++hops_incomplete;
      continue;
    }
    const std::int64_t h[5] = {d(op.due, u.bcast), d(u.bcast, u.gpsnd),
                               d(u.gpsnd, last_gprcv), d(last_gprcv, last_safe),
                               d(last_safe, last_brcv)};
    if (std::any_of(std::begin(h), std::end(h),
                    [](std::int64_t w) { return w < 0; })) {
      ++hop_order_violations;
    }
    ctl_wait.push_back(h[0]);
    bcast_wait.push_back(h[1]);
    order_wait.push_back(h[2]);
    stability_wait.push_back(h[3]);
    deliver_wait.push_back(h[4]);
  }

  // Per view, per process: NEWVIEW -> REGISTER -> first BRCV after it.
  std::vector<std::int64_t> newview_to_register, register_to_first_brcv;
  for (const auto& [p, pv] : per_process) {
    for (const std::uint64_t nv : pv.dvs_newview) {
      const auto reg = std::lower_bound(pv.reg.begin(), pv.reg.end(), nv);
      if (reg == pv.reg.end()) continue;
      newview_to_register.push_back(static_cast<std::int64_t>(*reg - nv));
      for (const auto& [ts, key] : pv.brcv) {
        if (ts >= *reg) {
          register_to_first_brcv.push_back(static_cast<std::int64_t>(ts - *reg));
          break;
        }
      }
    }
  }

  // Failover: per kill, the first commit of a put due after it; per kill,
  // the survivors' next VS NEWVIEW; per exec, the restarted replica's next
  // VS NEWVIEW and its first BRCV of a put due after the exec.
  std::map<Key, std::uint64_t> due_of;
  for (const Op& op : ops) {
    if (op.kind == 'p' && op.status == "ok") due_of[{op.replica, op.uid}] = op.due;
  }
  std::vector<std::int64_t> outage, rejoin, kill_to_newview, restart_to_newview;
  for (const Fault& f : faults) {
    if (f.what == "kill") {
      std::uint64_t first = kNever;
      for (const auto& [due, ts] : commits) {
        if (due > f.ts) first = std::min(first, ts);
      }
      outage.push_back(static_cast<std::int64_t>(
          first == kNever ? cap_us : std::min(cap_us, first - f.ts)));
      std::uint64_t last_nv = 0;
      bool all = true;
      for (const auto& [p, pv] : per_process) {
        if (p == f.replica) continue;
        const auto nv = std::lower_bound(pv.vs_newview.begin(),
                                         pv.vs_newview.end(), f.ts);
        if (nv == pv.vs_newview.end()) {
          all = false;
        } else {
          last_nv = std::max(last_nv, *nv);
        }
      }
      kill_to_newview.push_back(static_cast<std::int64_t>(
          all ? std::min(cap_us, last_nv - f.ts) : cap_us));
    } else if (f.what == "exec") {
      const ProcessView& pv = per_process[f.replica];
      const auto nv = std::lower_bound(pv.vs_newview.begin(),
                                       pv.vs_newview.end(), f.ts);
      restart_to_newview.push_back(static_cast<std::int64_t>(
          nv == pv.vs_newview.end() ? cap_us : std::min(cap_us, *nv - f.ts)));
      std::uint64_t first = kNever;
      for (const auto& [ts, key] : pv.brcv) {
        const auto due = due_of.find(key);
        if (ts >= f.ts && due != due_of.end() && due->second > f.ts) {
          first = ts;
          break;
        }
      }
      rejoin.push_back(static_cast<std::int64_t>(
          first == kNever ? cap_us : std::min(cap_us, first - f.ts)));
    }
  }

  const daemon::AuditReport audit = daemon::audit_traces(traces);

  std::ostringstream os;
  os << "{\"attempted\":" << attempted << ",\"timeouts\":" << timeouts
     << ",\"errors\":" << errors << ",\"uncommitted\":" << uncommitted
     << ",\"duplicates\":" << duplicates << ",\"puts_ok\":" << puts_ok
     << ",\"gets_ok\":" << gets_ok << ",\"hops_incomplete\":" << hops_incomplete
     << ",\"hop_order_violations\":" << hop_order_violations
     << ",\"hops_checked\":" << ctl_wait.size()
     << ",\"audit_ok\":" << (audit.ok ? "true" : "false")
     << ",\"audit\":" << json_string(audit.to_string())
     << ",\"lat\":{\"reply\":" << json_array(reply_lat)
     << ",\"read\":" << json_array(read_lat)
     << ",\"commit\":" << json_array(commit)
     << ",\"ctl_wait\":" << json_array(ctl_wait)
     << ",\"bcast_wait\":" << json_array(bcast_wait)
     << ",\"order_wait\":" << json_array(order_wait)
     << ",\"stability_wait\":" << json_array(stability_wait)
     << ",\"deliver_wait\":" << json_array(deliver_wait)
     << ",\"brcv_skew\":" << json_array(brcv_skew)
     << ",\"gen_late\":" << json_array(gen_late)
     << ",\"newview_to_register\":" << json_array(newview_to_register)
     << ",\"register_to_first_brcv\":" << json_array(register_to_first_brcv)
     << ",\"outage\":" << json_array(outage)
     << ",\"rejoin\":" << json_array(rejoin)
     << ",\"kill_to_newview\":" << json_array(kill_to_newview)
     << ",\"restart_to_newview\":" << json_array(restart_to_newview) << "}}\n";
  std::fputs(os.str().c_str(), stdout);
  return 0;
}

}  // namespace dvs::bench
