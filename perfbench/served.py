"""The served_sweeps workload: a `confsim serve` daemon and a closed
loop of clients that speak its newline-JSON protocol directly.

A pass starts a fresh daemon over pre-built artifacts, after checking
that no job record or sweep journal from an earlier pass is left (a
leftover would dedupe or resume requests and fake a speed-up). Each
client submits the next grid of the pass, polls `status` every
POLL_S seconds, fetches the result and compares it with the `--sweep`
reference of the same grid. Submissions are sent in list order under
one lock, so every planned repeat reaches the daemon after its
original and admission must dedupe it: a pass whose dedupe count
differs from the plan had leftover state and fails.
"""

import glob
import json
import os
import signal
import socket
import subprocess
import threading
import time

POLL_S = 0.005
START_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 30.0


class Token:
    """A JSON number kept as its exact text, so canonical documents
    compare number spellings, not parsed values."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def __eq__(self, other):
        return isinstance(other, Token) and other.text == self.text

    def __repr__(self):
        return self.text


class Members(list):
    """A JSON object as its (key, value) pairs in document order."""

    def __eq__(self, other):
        return isinstance(other, Members) and list.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = None


def canonical(text):
    """The JSON document with objects as Members and number tokens
    verbatim: two documents are equal iff they differ at most in
    whitespace between tokens."""
    return json.loads(text, object_pairs_hook=Members, parse_float=Token,
                      parse_int=Token)


def canonical_text(doc):
    """Compact serialisation of a canonical document (for digests)."""
    if isinstance(doc, Members):
        return "{" + ",".join(json.dumps(k) + ":" + canonical_text(v)
                              for k, v in doc) + "}"
    if isinstance(doc, list):
        return "[" + ",".join(canonical_text(v) for v in doc) + "]"
    if isinstance(doc, Token):
        return doc.text
    return json.dumps(doc)


def leftover_state(artifact_dir):
    """Job records and sweep journals a daemon would pick up."""
    return (glob.glob(os.path.join(artifact_dir, "jobs", "*"))
            + glob.glob(os.path.join(artifact_dir, "sweep-*.journal")))


def clear_state(artifact_dir):
    for path in leftover_state(artifact_dir):
        os.remove(path)


class Daemon:
    """One `confsim serve` process in its own process group."""

    def __init__(self, confsim, socket_path, artifact_dir, workers, log):
        self.socket_path = socket_path
        if os.path.exists(socket_path):
            os.remove(socket_path)
        self.proc = subprocess.Popen(
            [confsim, "serve", "--socket", socket_path,
             "--artifact-dir", artifact_dir, "--workers", str(workers),
             "--max-jobs", "256", "--max-client-jobs", "256"],
            stdout=log, stderr=log, start_new_session=True)
        self.maxrss_kb = 0
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                if self.request({"op": "ping"}).get("ok"):
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("confsim serve did not start")
            time.sleep(0.01)

    def request_line(self, req):
        """Send one request; return the raw response line."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(REQUEST_TIMEOUT_S)
            s.connect(self.socket_path)
            s.sendall(json.dumps(req).encode() + b"\n")
            buf = bytearray()
            while not buf.endswith(b"\n"):
                chunk = s.recv(1 << 16)
                if not chunk:
                    raise OSError("connection closed mid-response")
                buf += chunk
        return buf.decode()

    def request(self, req):
        return json.loads(self.request_line(req))

    def stop(self):
        """Shut the daemon down and reap it; returns its peak RSS (KiB),
        which covers the largest worker it reaped too."""
        try:
            self.request({"op": "shutdown"})
        except OSError:
            pass
        timer = threading.Timer(REQUEST_TIMEOUT_S, self.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._kill_group()
        self.maxrss_kb = usage.ru_maxrss
        return self.maxrss_kb

    def _kill_group(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def kill(self):
        self._kill_group()
        if self.proc.returncode is None:
            try:
                self.proc.wait(timeout=REQUEST_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass


class PassResult:
    def __init__(self):
        self.wall_s = 0.0
        self.latencies = []     # every submission, seconds
        self.queue_waits = []   # distinct jobs: submit ack -> running
        self.run_times = []     # distinct jobs: running -> done
        self.deduped = 0


def run_pass(daemon, grids, order, references, clients, ops, tracer):
    """Run the submission list through `clients` closed-loop clients.

    references[g] is the canonical `--sweep` document of grids[g].
    Every submission is one operation in `ops`."""
    result = PassResult()
    lock = threading.Lock()
    position = [0]

    def one_job(cid, g, t0, resp):
        t_ack = time.perf_counter()
        if not resp.get("ok"):
            return f"submit refused: {resp}"
        deduped = bool(resp.get("deduped"))
        job = resp["job"]
        t_running = None
        state = resp.get("state")
        deadline = t_ack + REQUEST_TIMEOUT_S
        with tracer.span("harness.service_wait"):
            while state not in ("done", "failed", "cancelled"):
                if time.perf_counter() > deadline:
                    return f"job {job} still {state} after "\
                           f"{REQUEST_TIMEOUT_S:.0f} s"
                time.sleep(POLL_S)
                state = daemon.request({"op": "status", "job": job}).get(
                    "state")
                if state == "running" and t_running is None:
                    t_running = time.perf_counter()
        t_done = time.perf_counter()
        if state != "done":
            return f"job {job} {state}"
        with tracer.span("harness.service_result"):
            line = daemon.request_line({"op": "result", "job": job})
        latency = time.perf_counter() - t0
        if dict(canonical(line)).get("result") != references[g]:
            return f"job {job}: result differs from --sweep"
        with lock:
            result.latencies.append(latency)
            if deduped:
                result.deduped += 1
            else:
                start = t_running if t_running is not None else t_done
                result.queue_waits.append(start - t_ack)
                result.run_times.append(t_done - start)
        return None

    def client(cid):
        while True:
            # Pop and submit under one lock, so submissions reach the
            # daemon in list order (see the module docstring).
            with submit_lock:
                if position[0] >= len(order):
                    return
                g = order[position[0]]
                position[0] += 1
                t0 = time.perf_counter()
                try:
                    with tracer.span("harness.service_submit"):
                        resp = daemon.request(
                            {"op": "submit", "grid": grids[g],
                             "client": f"client-{cid}"})
                except (OSError, ValueError) as e:
                    resp = {"ok": False, "error": str(e)}
            try:
                err = one_job(cid, g, t0, resp)
            except (OSError, KeyError, ValueError) as e:
                err = f"client error: {e}"
            with lock:
                ops.record(err is None, err or "")

    submit_lock = threading.Lock()
    threads = [threading.Thread(target=client, args=(c,))
               for c in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.wall_s = time.perf_counter() - t0
    return result
