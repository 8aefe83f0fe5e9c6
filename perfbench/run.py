#!/usr/bin/env python3
"""Real-dvsd cluster benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run builds dvsd and the
benchmark's own tool (perfbench/CMakeLists.txt) under .bench_build/; later
runs only re-check the build. Every run then sets up fresh 3-node dvsd
clusters on loopback (WAL and trace files on, default timers), measures the
window on the last of them, driving the workload open loop from one
single-threaded client process, checks the outputs, and prints a report
followed by one JSON line:

  --trace 0  the end-to-end metrics of the dvsd run;
  --trace 1  the per-layer metrics: outside accounting of the same dvsd run
             (stats counter deltas, /proc, the per-hop profile from the
             daemons' own traces) plus two runs of `dvsbench host`, the
             three replicas in one process with timing decorators around
             every layer's public calls, once timed and once pass-through.

Workloads, metrics and the layer map are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
N = 3
HEARTBEAT_MS, SUSPECT_MS, PROPOSE_MS = 20, 150, 400  # dvsd defaults
# Timed cluster set-ups per run; setup_s is their median. One set-up takes
# 4 to 17 ms on a 4-core VM, mostly process start-up, and bursts of host load
# move it: between runs the median of 10 moved by up to 80%, that of 101
# (half before the window, half after) by 3 to 9%.
SETUPS = 101
HOST_SETUPS = 3       # the in-process host's set-ups are reported only
# Commit latency is set by the relative phase of the three daemons' 20 ms
# heartbeats, that is, by when each one started. The measured cluster starts
# its daemons a third of a heartbeat period apart: with evenly spread phases
# the stability wait does not change, to first order, with how fast the host
# happens to spawn processes. Started back to back, write-trickle's
# commit_p50_us moved between 12 and 16 ms with the host's speed.
STAGGER_S = HEARTBEAT_MS / 1000 / N
GRACE_S = 0.5         # after the last reply, for the tail to reach BRCV
CHURN_PERIOD_S = 3.0  # churn: one SIGKILL every 3 s ...
CHURN_DOWN_S = 1.0    # ... restarted from its WAL 1 s later

# With at least N + 1 cores, each replica gets a core of its own and the
# client shares the last one with this script, which idles while it waits.
CPUS = sorted(os.sched_getaffinity(0))
PINNED = len(CPUS) > N

_children = []  # every process this run started, reaped on every exit path
_run_dir = None


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ----- process hygiene -------------------------------------------------------

def spawn(args, cpus=None, **kw):
    p = subprocess.Popen(args, **kw)
    _children.append(p)
    if PINNED and cpus is not None:
        os.sched_setaffinity(p.pid, cpus)
    return p


def reap_all():
    for p in _children:
        if p.poll() is None:
            try:
                p.kill()
            except OSError:
                pass
    for p in _children:
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
    _children.clear()


def cleanup():
    reap_all()
    if _run_dir and os.path.isdir(_run_dir):
        shutil.rmtree(_run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(_run_dir))
        except OSError:
            pass  # another run's directory is still there


def reap_dead_runs(runs):
    """Cleans up after runs that were SIGKILLed and could not do it themselves:
    kills the processes still running from their directories, then removes
    the directories."""
    for entry in os.listdir(runs) if os.path.isdir(runs) else []:
        pid = entry.removeprefix("run-")
        if not pid.isdigit() or os.path.exists(f"/proc/{pid}"):
            continue
        stale = os.path.join(runs, entry).encode()
        for proc in os.listdir("/proc"):
            try:
                with open(f"/proc/{proc}/cmdline", "rb") as f:
                    if stale in f.read():
                        os.kill(int(proc), signal.SIGKILL)
            except (OSError, ValueError):
                pass  # not a process, or it ended meanwhile
        shutil.rmtree(os.path.join(runs, entry), ignore_errors=True)


def on_signal(signum, _frame):
    cleanup()
    sys.exit(128 + signum)


# ----- build -----------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "examples", "dvsd.cpp")):
        raise BenchError("no repository sources next to perfbench/ "
                         "(run from the root of a full checkout)")
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, base, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if spawn(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 stdout=sys.stderr).wait() != 0:
            raise BenchError("cmake configure failed")
    if spawn(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr).wait() != 0:
        raise BenchError("build failed")
    build_type = ""
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    # Same rule as scripts/bench_snapshot.sh: never time an unoptimised build.
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing to benchmark a '{build_type}' build")
    return {"dvsd": os.path.join(bdir, "dvsd"),
            "dvsbench": os.path.join(bdir, "dvsbench"),
            "build_type": build_type}


def source_id():
    """git sha when the checkout is a repository, else a hash of the sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=5)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ("src", "examples", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                with open(os.path.join(d, name), "rb") as f:
                    h.update(name.encode() + f.read())
    return "tree-" + h.hexdigest()


# ----- control protocol ------------------------------------------------------

class Ctl:
    """One UDP socket for this script's own queries (not the client's load)."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def query(self, port, command, expect, timeout=0.5, tries=4):
        """Sends `command` until a reply starting with `expect` arrives.

        Replies that do not match are late answers to an earlier query that
        timed out, and are dropped."""
        for _ in range(tries):
            self.sock.sendto(command.encode(), ("127.0.0.1", port))
            deadline = time.monotonic() + timeout
            while (left := deadline - time.monotonic()) > 0:
                self.sock.settimeout(left)
                try:
                    data, _ = self.sock.recvfrom(1 << 16)
                except (socket.timeout, ConnectionRefusedError):
                    break
                if data.decode().startswith(expect):
                    return data.decode()
        raise BenchError(f"no reply to '{command}' on port {port}")

    def close(self):
        self.sock.close()


def free_ports(k):
    """k free UDP ports below the kernel's ephemeral range.

    A port the kernel handed out with bind(0) and that was closed again can be
    handed to the next socket that sends without binding (the client's, this
    script's) before the daemon binds it; below the range that cannot happen."""
    with open("/proc/sys/net/ipv4/ip_local_port_range") as f:
        low = int(f.read().split()[0])
    pick = random.Random()
    ports = []
    while len(ports) < k:
        port = pick.randrange(10000, low)
        if port in ports:
            continue
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            try:
                s.bind(("127.0.0.1", port))
            except OSError:
                continue
        ports.append(port)
    return ports


def parse_stats(text):
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        name = re.sub(r"\{.*\}", "", name)
        try:
            out[name] = out.get(name, 0) + float(value)
        except ValueError:
            pass
    return out


# ----- /proc accounting -------------------------------------------------------

def proc_sample(pid):
    # CPU time from the scheduler's exact per-thread runtime. utime + stime in
    # /proc/<pid>/stat are sampled at the clock tick, which at these loads
    # (a few percent of a core per daemon) varied cpu_us_per_op by 7% or more
    # between otherwise equal runs.
    s = {"cpu_s": 0.0}
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
            s["cpu_s"] += int(f.read().split()[0]) / 1e9
    with open(f"/proc/{pid}/io") as f:
        for line in f:
            k, v = line.split(":")
            if k in ("wchar", "syscw"):  # bytes and calls of write(2) & co
                s[k] = int(v)
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            k, _, v = line.partition(":")
            if k == "VmHWM":
                s["hwm_kb"] = int(v.split()[0])
            elif k in ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"):
                s["ctx"] = s.get("ctx", 0) + int(v)
    return s


def delta(a, b):
    return {k: v - a.get(k, 0) for k, v in b.items()}


def add(acc, d):
    for k, v in d.items():
        acc[k] = acc.get(k, 0) + v


# ----- the cluster -----------------------------------------------------------

class Acc:
    """Everything one measured cluster yields, summed over each replica's
    incarnations (a churn kill ends one)."""

    def __init__(self):
        self.setups = []
        self.node_stats = [{} for _ in range(N)]  # `stats` deltas per replica
        self.node_proc = [{} for _ in range(N)]   # /proc deltas per replica
        self.hwm_kb = 0
        self.window_s = 0.0
        self.trace_growth = 0
        self.digests = []
        self.a = None       # `dvsbench analyze` output
        self.spans = None   # host span summary
        self.faults = 0


class Node:
    def __init__(self, i):
        self.i = i
        self.proc = None
        self.ctl_port = 0
        self.seg_stats = {}
        self.seg_proc = {}


class Cluster:
    """One fresh 3-replica cluster: dvsd processes, or one `dvsbench host`."""

    def __init__(self, tools, run_dir, acc, host_timing=None):
        self.tools = tools
        self.dir = run_dir
        self.acc = acc
        self.host_timing = host_timing  # None = dvsd processes
        self.nodes = [Node(i) for i in range(N)]
        self.ctl = Ctl()
        self.host = None
        self.host_seg = {}
        ports = free_ports(2 * N)
        self.peer_ports = ports[:N]
        for i, node in enumerate(self.nodes):
            node.ctl_port = ports[N + i]
        self.trace_dir = os.path.join(run_dir, "traces")
        os.makedirs(self.trace_dir, exist_ok=True)

    def config(self, i):
        lines = [f"node {i}", f"n {N}", f"initial {N}"]
        lines += [f"peer {j} 127.0.0.1:{self.peer_ports[j]}" for j in range(N)]
        lines += [f"control 127.0.0.1:{self.nodes[i].ctl_port}",
                  f"wal_dir {self.dir}/p{i}/wal", f"trace_dir {self.trace_dir}",
                  f"heartbeat_ms {HEARTBEAT_MS}", f"suspect_ms {SUSPECT_MS}",
                  f"propose_ms {PROPOSE_MS}"]
        path = os.path.join(self.dir, f"p{i}.conf")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        return path

    def start_node(self, i):
        with open(os.path.join(self.dir, f"p{i}.log"), "ab") as log_f:
            self.nodes[i].proc = spawn([self.tools["dvsd"], "--config", self.config(i)],
                                       cpus={CPUS[i]}, stdout=log_f, stderr=log_f)

    def start(self, stagger_s=0.0):
        """Starts the replicas `stagger_s` seconds apart."""
        if self.host_timing is None:
            for i in range(N):
                if i > 0:
                    time.sleep(stagger_s)
                self.start_node(i)
            return
        confs = ",".join(self.config(i) for i in range(N))
        with open(os.path.join(self.dir, "host.log"), "ab") as log_f:
            self.host = spawn([self.tools["dvsbench"], "host", "--configs", confs,
                               "--timing", str(self.host_timing),
                               "--stagger-us", str(int(stagger_s * 1e6)),
                               "--spans", os.path.join(self.dir, "spans.json")],
                              cpus=set(CPUS[:N]), stdout=log_f, stderr=log_f)

    def procs(self):
        return [self.host] if self.host is not None else [n.proc for n in self.nodes]

    def wait_primary(self, limit_s=20.0):
        """Polls `view` until every node reports primary=1 in an N-member view."""
        left = set(range(N))
        deadline = time.monotonic() + limit_s
        while left:
            if time.monotonic() > deadline:
                raise BenchError(f"no primary {N}-member view on {sorted(left)}")
            for i in sorted(left):
                try:
                    reply = self.ctl.query(self.nodes[i].ctl_port, "view", "view=",
                                           timeout=0.0005, tries=1)
                except (BenchError, OSError):
                    continue
                m = re.search(r"\{([^}]*)\}> primary=1", reply)
                if m and len(m.group(1).split(",")) == N:
                    left.discard(i)
            for p in self.procs():
                if p is not None and p.poll() is not None:
                    raise BenchError(f"replica process exited with {p.returncode}")

    def stats(self, i):
        return parse_stats(self.ctl.query(self.nodes[i].ctl_port, "stats", "# TYPE"))

    def open_window(self):
        for node in self.nodes:
            node.seg_stats = self.stats(node.i)
            if self.host is None:
                node.seg_proc = proc_sample(node.proc.pid)
            else:
                self.ctl.query(node.ctl_port, "mark", "ok")
        if self.host is not None:
            self.host_seg = proc_sample(self.host.pid)

    def close_segment(self, node):
        """Adds a replica's deltas since its incarnation or window start."""
        add(self.acc.node_stats[node.i], delta(node.seg_stats, self.stats(node.i)))
        if self.host is None:
            now = proc_sample(node.proc.pid)
            self.acc.hwm_kb = max(self.acc.hwm_kb, now.pop("hwm_kb"))
            add(self.acc.node_proc[node.i], delta(node.seg_proc, now))

    def close_window(self):
        for node in self.nodes:
            self.close_segment(node)
        if self.host is not None:
            now = proc_sample(self.host.pid)
            self.acc.hwm_kb = max(self.acc.hwm_kb, now.pop("hwm_kb"))
            add(self.acc.node_proc[0], delta(self.host_seg, now))

    def kill(self, i):
        node = self.nodes[i]
        self.close_segment(node)
        ts = int(time.time() * 1e6)
        node.proc.send_signal(signal.SIGKILL)
        node.proc.wait()
        return ts

    def restart(self, i):
        ts = int(time.time() * 1e6)
        self.start_node(i)
        # A new incarnation's counters and /proc start from zero.
        self.nodes[i].seg_stats = {}
        self.nodes[i].seg_proc = {}
        return ts

    def digests(self):
        return [self.ctl.query(n.ctl_port, "digest", "digest=") for n in self.nodes]

    def stop(self):
        for node in self.nodes if self.host is None else self.nodes[:1]:
            try:
                self.ctl.query(node.ctl_port, "quit", "ok", timeout=0.2, tries=2)
            except (BenchError, OSError):
                pass
        for p in self.procs():
            if p is None:
                continue
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.ctl.close()

    def trace_bytes(self):
        return sum(os.path.getsize(os.path.join(self.trace_dir, f))
                   for f in os.listdir(self.trace_dir))


# ----- one measured run ------------------------------------------------------

def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def time_setups(tools, run_dir, acc, count, host_timing):
    """Sets up and stops `count` fresh clusters, timing each set-up."""
    for _ in range(count):
        d = os.path.join(run_dir, f"setup{len(acc.setups)}")
        os.makedirs(d)
        cluster = Cluster(tools, d, acc, host_timing)
        t = time.perf_counter()
        cluster.start()
        cluster.wait_primary()
        acc.setups.append(time.perf_counter() - t)
        cluster.stop()
        shutil.rmtree(d, ignore_errors=True)


def measure(tools, args, run_dir, setups, host_timing=None):
    """One fresh cluster measured for the window, with `setups` timed set-ups
    split between before and after it: bursts of host load last a second or
    more, and two samples of the host's state taken more than ten seconds
    apart move the median less than one."""
    acc = Acc()
    time_setups(tools, run_dir, acc, setups // 2, host_timing)
    d = os.path.join(run_dir, "run")
    os.makedirs(d)
    cluster = Cluster(tools, d, acc, host_timing)
    cluster.start(STAGGER_S)
    cluster.wait_primary()

    ports = ",".join(f"127.0.0.1:{n.ctl_port}" for n in cluster.nodes)
    ops_path = os.path.join(d, "ops.txt")
    trace0 = cluster.trace_bytes()
    cluster.open_window()
    w0 = time.monotonic()
    client = spawn([tools["dvsbench"], "client", "--workload", args.workload,
                    "--seed", str(args.seed), "--ms", str(args.seconds * 1000),
                    "--ctl", ports, "--out", ops_path],
                   cpus={CPUS[-1]}, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                   text=True)
    start_line = client.stdout.readline().split()
    if len(start_line) != 2 or start_line[0] != "start":
        raise BenchError("client did not start")
    faults = []
    if args.workload == "churn":
        faults = run_churn(cluster, client, int(start_line[1]), args.seconds)
    client.stdout.read()
    if client.wait() != 0:
        raise BenchError(f"client exited with {client.returncode}")
    time.sleep(GRACE_S)
    acc.window_s = time.monotonic() - w0
    cluster.close_window()
    acc.trace_growth = cluster.trace_bytes() - trace0
    acc.digests = cluster.digests()
    cluster.stop()
    acc.faults = sum(1 for f in faults if f[0] == "kill")

    events_path = os.path.join(d, "faults.txt")
    with open(events_path, "w") as f:
        for what, i, ts in faults:
            f.write(f"{what} {i} {ts}\n")
    analyze = spawn([tools["dvsbench"], "analyze", "--ops", ops_path,
                     "--traces", cluster.trace_dir, "--events", events_path,
                     "--cap-ms", str(int(CHURN_PERIOD_S * 1000))],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = analyze.communicate(timeout=150)
    if analyze.returncode != 0:
        raise BenchError("analyze failed: " + err.strip())
    acc.a = json.loads(out)
    if cluster.host is not None:
        with open(os.path.join(d, "spans.json")) as f:
            acc.spans = json.load(f)
    shutil.rmtree(d, ignore_errors=True)
    time_setups(tools, run_dir, acc, setups - setups // 2, host_timing)
    return acc


def run_churn(cluster, client, t0_us, seconds):
    """Kills p0, p1, p2, ... every CHURN_PERIOD_S; each restarts CHURN_DOWN_S later."""
    faults = []
    t0 = t0_us / 1e6
    k = 1
    victim = 0
    while k * CHURN_PERIOD_S < seconds:
        kill_at = t0 + k * CHURN_PERIOD_S
        time.sleep(max(0.0, kill_at - time.time()))
        client.stdin.write(f"down {victim}\n")
        client.stdin.flush()
        faults.append(("kill", victim, cluster.kill(victim)))
        time.sleep(max(0.0, kill_at + CHURN_DOWN_S - time.time()))
        faults.append(("exec", victim, cluster.restart(victim)))
        client.stdin.write(f"up {victim}\n")
        client.stdin.flush()
        victim = (victim + 1) % N
        k += 1
    client.stdin.close()
    return faults


def gate(acc, workload):
    """The correctness gate; returns a list of failures (empty = pass)."""
    a = acc.a
    bad = []
    # No op may fail on a fault-free workload. On churn the requests in
    # flight at a kill fail by design; there failed_ppm is the measurement.
    if workload != "churn" and a["timeouts"] + a["errors"]:
        bad.append(f"{a['timeouts']} ops timed out and {a['errors']} got an error reply")
    if len(set(d.split()[0] for d in acc.digests)) != 1:
        bad.append("replica digests differ: " + " / ".join(acc.digests))
    if a["duplicates"]:
        bad.append(f"{a['duplicates']} puts BRCV'd more than once on a replica")
    if a["uncommitted"]:
        bad.append(f"{a['uncommitted']} acknowledged puts not BRCV'd on every live replica")
    if not a["audit_ok"]:
        bad.append("trace audit failed:\n" + a["audit"].strip())
    if a["hop_order_violations"]:
        bad.append(f"{a['hop_order_violations']} puts whose hop instants are out of "
                   "causal order (due <= BCAST <= GPSND <= GPRCV <= SAFE <= BRCV)")
    return bad


# ----- metrics ---------------------------------------------------------------

def end_to_end(acc, seconds):
    a = acc.a
    lat = a["lat"]
    failed = a["timeouts"] + a["errors"] + a["uncommitted"]
    completed = a["attempted"] - failed
    cpu = sum(p.get("cpu_s", 0) for p in acc.node_proc)
    out = {
        "setup_s": (statistics.median(acc.setups), "s"),
        "commit_p50_us": (quantile(lat["commit"], 0.5), "us"),
        "commit_p90_us": (quantile(lat["commit"], 0.9), "us"),
        "commit_p99_us": (quantile(lat["commit"], 0.99), "us"),
        "reply_p50_us": (quantile(lat["reply"], 0.5), "us"),
        "reply_p99_us": (quantile(lat["reply"], 0.99), "us"),
        "ops_per_s": (completed / seconds, "1/s"),
        "failed_ppm": (failed * 1e6 / max(1, a["attempted"]), "ppm"),
        "cpu_us_per_op": (cpu * 1e6 / max(1, completed), "us"),
        "rss_mb": (acc.hwm_kb / 1024.0, "MB"),
    }
    if lat["read"]:
        out["read_p50_us"] = (quantile(lat["read"], 0.5), "us")
        out["read_p99_us"] = (quantile(lat["read"], 0.99), "us")
    if acc.faults:
        out["outage_ms"] = (statistics.median(lat["outage"]) / 1000, "ms")
        out["rejoin_ms"] = (statistics.median(lat["rejoin"]) / 1000, "ms")
    return out, completed, failed


def per_layer(acc, completed):
    a = acc.a
    lat = a["lat"]
    ops = max(1, completed)
    st, pr = {}, {}
    for d in acc.node_stats:
        add(st, d)
    for d in acc.node_proc:
        add(pr, d)
    out = {}

    def wait(name, key):
        out[f"{name}_p50_us"] = (quantile(lat[key], 0.5), "us")
        out[f"{name}_p99_us"] = (quantile(lat[key], 0.99), "us")

    def med_ms(key):
        return statistics.median(lat[key]) / 1000 if lat[key] else 0.0

    wait("vsys.order_wait", "order_wait")
    wait("vsys.stability_wait", "stability_wait")
    out["vsys.retransmits_per_op"] = (st.get("vs_retransmits_sent", 0) / ops, "count")
    out["vsys.views_installed"] = (max(d.get("vs_views_installed", 0)
                                       for d in acc.node_stats), "count")
    out["vsys.kill_to_newview_ms"] = (med_ms("kill_to_newview"), "ms")
    out["dvsys.newview_to_register_ms"] = (med_ms("newview_to_register"), "ms")
    wait("tosys.bcast_wait", "bcast_wait")
    wait("tosys.deliver_wait", "deliver_wait")
    wait("tosys.brcv_skew", "brcv_skew")
    installed = st.get("vs_views_installed", 0)
    out["tosys.established_per_view"] = (
        st.get("to_views_established", 0) / installed if installed else 0.0, "ratio")
    out["tosys.register_to_first_brcv_ms"] = (med_ms("register_to_first_brcv"), "ms")
    datagrams = st.get("net_datagrams", 0)
    out["net.datagrams_per_op"] = (datagrams / ops, "count")
    out["net.frames_per_datagram"] = (st.get("net_sent", 0) / datagrams if datagrams else 0.0,
                                      "count")
    out["net.wire_bytes_per_op"] = (st.get("net_wire_bytes", 0) / ops, "B")
    out["net.dropped_oversize"] = (st.get("net_dropped_oversize", 0), "count")
    out["daemon.cpu_max_share"] = (max(d.get("cpu_s", 0) for d in acc.node_proc) /
                                   acc.window_s, "ratio")
    out["daemon.write_syscalls_per_op"] = (pr.get("syscw", 0) / ops, "count")
    out["daemon.write_bytes_per_op"] = (pr.get("wchar", 0) / ops, "B")
    out["daemon.trace_bytes_per_op"] = (acc.trace_growth / ops, "B")
    out["daemon.ctx_switches_per_op"] = (pr.get("ctx", 0) / ops, "count")
    out["daemon.restart_to_newview_ms"] = (med_ms("restart_to_newview"), "ms")
    out["bench.gen_late_p99_us"] = (quantile(lat["gen_late"], 0.99), "us")
    return out


def span_metrics(acc, completed):
    """Per-layer busy times from a timed host run's span summary."""
    busy = acc.spans["self_us"]
    ops = max(1, completed)
    out = {
        "net.send_busy_us_per_op": ((busy["transport.send"] + busy["udp.flush"]) / ops, "us"),
        "net.recv_busy_us_per_op": (busy["udp.drain"] / ops, "us"),
        "sim.timer_busy_us_per_s": (busy["sim.run_until"] / acc.window_s, "us/s"),
    }
    for j in ("vs", "dvs", "to"):
        out[f"storage.{j}.append_busy_us_per_op"] = (busy[f"store.append.{j}"] / ops, "us")
        out[f"storage.{j}.replace_busy_us_per_op"] = (busy[f"store.replace.{j}"] / ops, "us")
        out[f"storage.{j}.replace_bytes_per_op"] = (
            acc.spans["bytes"][f"store.replace.{j}"] / ops, "B")
    return out


def declared(kind):
    """Metric names BENCHMARK.json lists under `kind`, or None without it."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return [m["name"] for m in json.load(f)[kind]]
    except (OSError, ValueError, KeyError):
        return None


def report(title, metrics):
    print(f"== {title}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:36s} {v:>14.6g} {unit}")


def run(args):
    tools = build()
    if PINNED:
        os.sched_setaffinity(0, {CPUS[-1]})
    context = {"source": source_id(), "nproc": os.cpu_count(),
               "build_type": tools["build_type"], "workload": args.workload,
               "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "stagger_ms": STAGGER_S * 1000, "heartbeat_ms": HEARTBEAT_MS,
               "suspect_ms": SUSPECT_MS, "propose_ms": PROPOSE_MS}
    acc = measure(tools, args, os.path.join(_run_dir, "dvsd"), SETUPS)
    e2e, completed, failed = end_to_end(acc, args.seconds)
    a = acc.a
    context["gen_late_p99_us"] = round(quantile(a["lat"]["gen_late"], 0.99), 1)
    print("== context " + json.dumps(context, sort_keys=True))
    bad = gate(acc, args.workload)
    print(f"== gate: {a['attempted']} attempted, {failed} failed, "
          f"{a['hops_checked']} puts hop-checked ({a['hops_incomplete']} with hop "
          f"events missing, as after a view change), audit "
          f"{'PASS' if a['audit_ok'] else 'FAIL'}")
    for b in bad:
        print("   FAIL " + b)
    report("end to end (dvsd)", e2e)
    metrics, kind = e2e, "end_to_end"
    if args.trace == 1:
        metrics, kind = per_layer(acc, completed), "per_layer"
        if args.workload != "churn":
            cpu = {}
            for timing in (1, 0):
                hacc = measure(tools, args, os.path.join(_run_dir, f"host{timing}"),
                               HOST_SETUPS, host_timing=timing)
                he2e, hdone, _ = end_to_end(hacc, args.seconds)
                cpu[timing] = he2e["cpu_us_per_op"][0]
                bad += [f"host (timing {timing}): {b}"
                        for b in gate(hacc, args.workload)]
                report(f"end to end (in-process host, timing {'on' if timing else 'off'})",
                       he2e)
                if timing == 1:
                    metrics.update(span_metrics(hacc, hdone))
            metrics["bench.trace_overhead_pct"] = ((cpu[1] - cpu[0]) * 100.0 / cpu[0], "%")
        report("per layer", metrics)
    names = declared(kind) or list(metrics)
    result = {"correct": not bad, "attempted": a["attempted"], "failed": failed,
              "metrics": {} if bad else
              {k: {"value": metrics[k][0], "unit": metrics[k][1]}
               for k in names if k in metrics}}
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True,
                    choices=("write-trickle", "mix-steady", "churn"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    global _run_dir
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    _run_dir = os.path.join(ROOT, ".bench_run", f"run-{os.getpid()}")
    try:
        reap_dead_runs(os.path.dirname(_run_dir))
        run(args)
        return 0
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 2
    finally:
        cleanup()


if __name__ == "__main__":
    sys.exit(main())
