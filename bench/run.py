"""duoc benchmark: one seeded workload, timed untraced or traced.

    python3 bench/run.py --workload corpus|ladder|bell --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it imports
``duoc`` from the checkout's ``src/`` and reads ``tests/corpus``.  One
process acts as a single closed-loop client: it builds the workload's
inputs, runs one untimed warm-up round, then runs whole rounds of ops
until ``--seconds`` is used up, checking every op's output.

BLAS runs one thread (see ``BLAS_THREADS``).  End-to-end latencies are
CPU times scaled to a reference speed (see ``Reference``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of an untraced pass, a traced pass, kernel probes and
an import breakdown.  The last line of standard output is the result
object; the lines before it are ``#`` comments with the run's metadata
and extra figures.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time, thread_time

# One BLAS thread: the client is one thread, and on a shared 2-vCPU host a
# second BLAS thread stalls dense ops whenever another process holds the
# other core.  Set before numpy loads; children inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = BENCH / ".run"

SETUP_REPEATS = 3
SETUP_REFERENCE_RUNS = 30
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60
# reference timings up to this far outside an op's window still count for it
SPEED_WINDOW_PAD_S = 0.005


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "ladder", "bell"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs and fewest repeats; for the smoke test only")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _preflight():
    """The benchmark needs the package sources and the script corpus of the checkout."""
    problems = []
    if not (SRC / "duoc" / "__init__.py").is_file():
        problems.append(f"missing {SRC / 'duoc'}")
    if not any((ROOT / "tests" / "corpus").glob("*.duoc")):
        problems.append(f"no scripts in {ROOT / 'tests' / 'corpus'}")
    return problems


def _build(name, seed, tiny):
    from workloads import WORKLOADS

    return WORKLOADS[name](ROOT, seed, tiny)


# -- timed loop -----------------------------------------------------------------


class Reference:
    """A fixed kernel timed between ops: the machine's speed at that moment.

    It does the kind of work the ops do, a pure-Python loop and small
    numpy calls, and nothing from ``duoc``, so no change to the program
    moves it.  ``NOMINAL_MS`` is its fastest CPU time with warm caches on
    an unloaded 2-vCPU VM (Python 3.11, numpy 2.4): an op time scaled by
    ``NOMINAL_MS`` over the reference time around the op reads as
    milliseconds on that machine at its fastest.
    """

    NOMINAL_MS = 0.42

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        sym = rng.normal(size=(6, 6))
        self.np = np
        self.sym = sym + sym.T
        self.a, self.b = self.sym[:2, :2], self.sym[:3, :3]

    def run(self):
        total = 0
        for j in range(1000):
            total += j * j
        for _ in range(12):
            self.np.linalg.eigvalsh(self.sym)
            self.np.kron(self.a, self.b).sum()
        return total

    def time(self):
        """CPU time of one run with warm caches: an untimed run goes first."""
        self.run()
        c0 = thread_time()
        self.run()
        return thread_time() - c0


class PassResult:
    def __init__(self):
        self.latencies = []
        self.cpu = []  # CPU time of the measuring thread, per op
        self.starts = []  # perf_counter at the start of each op
        self.ref = []  # CPU time of the reference kernel, timed just before each op
        self.ref_at = []  # perf_counter when each reference timing ended
        self.op_index = []  # which op of the workload each latency belongs to
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.undecided = {}
        self.decided = {}
        self.errors = []

    def best(self, samples):
        """Each op's fastest time over the rounds of the pass."""
        best = {}
        for i, x in zip(self.op_index, samples):
            if x < best.get(i, float("inf")):
                best[i] = x
        return list(best.values())

    def scaled(self):
        """Each op's median over the rounds of its CPU time at the reference speed.

        A sample is scaled by ``Reference.NOMINAL_MS`` over the mean of
        the reference times taken from one op-length before it starts to
        one op-length after it ends (widened by ``SPEED_WINDOW_PAD_S``, so
        that it always holds the timings just before and just after).
        A short op is thus scaled by the speed at that moment; a long op,
        over which the speed changes many times, by the mean speed around it.
        """
        # a thread clock that did not advance says nothing of speed
        kept = [(t, r) for t, r in zip(self.ref_at, self.ref) if r > 0]
        at = [t for t, _ in kept]
        cum = list(itertools.accumulate((r for _, r in kept), initial=0.0))
        per_op = {}
        for i, cpu, start, wall in zip(self.op_index, self.cpu, self.starts, self.latencies):
            lo = bisect.bisect_left(at, start - wall - SPEED_WINDOW_PAD_S)
            hi = bisect.bisect_right(at, start + 2 * wall + SPEED_WINDOW_PAD_S)
            if hi > lo:
                speed_ms = (cum[hi] - cum[lo]) / (hi - lo) * 1e3
                per_op.setdefault(i, []).append(cpu * Reference.NOMINAL_MS / speed_ms)
        return [statistics.median(v) for v in per_op.values()]


def run_pass(workload, seconds, tracer=None, first_round=0, reference=None):
    """Run whole rounds until the next one would overrun ``seconds`` (at least one).

    With a ``reference``, it is timed before every op and once after the last.
    """
    res = PassResult()
    start = perf_counter()
    k = first_round
    while True:
        for op in workload.ops(k):
            if reference is not None:
                res.ref.append(reference.time())
                res.ref_at.append(perf_counter())
            if tracer is not None:
                tracer.begin_op(res.attempted)
            c0 = thread_time()
            t0 = perf_counter()
            res.starts.append(t0)
            try:
                out = op.call()
                raised = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                raised = exc
            elapsed = perf_counter() - t0
            cpu = thread_time() - c0
            if tracer is not None:
                tracer.end_op()
            res.latencies.append(elapsed)
            res.cpu.append(cpu)
            res.op_index.append(op.index)
            res.attempted += 1
            status = _check(op, out, raised, res)
            if op.kind.startswith("validate") and status != "failed":
                bucket = res.undecided if status == "undecided" else res.decided
                bucket[op.kind] = bucket.get(op.kind, 0) + 1
        k += 1
        res.rounds += 1
        used = perf_counter() - start
        if used + used / res.rounds > seconds:
            if reference is not None:
                res.ref.append(reference.time())
                res.ref_at.append(perf_counter())
            return res


def _check(op, out, raised, res):
    from workloads import CheckError

    try:
        if raised is not None:
            raise raised
        return op.check(out)
    except CheckError as exc:
        reason = str(exc)
    except Exception:  # a crash inside a check still marks only this op as failed
        reason = f"{op.kind} [{op.tag}]: " + traceback.format_exc(limit=3).strip()
    res.failed += 1
    if len(res.errors) < 5:
        res.errors.append(reason)
    return "failed"


def _percentiles(latencies):
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return {"p50": cuts[4] * 1e3, "p90": cuts[8] * 1e3}


def _tail(latencies):
    """The highest percentile with ten samples beyond it, as (name, ms)."""
    n = len(latencies)
    if n <= 10:
        return None
    return f"p{100 * (n - 10) / n:.4g}", sorted(latencies)[n - 11] * 1e3


# -- set-up time ------------------------------------------------------------------


def _child_cmd(args):
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + (["--tiny"] if args.tiny else [])


def measure_setup(args, repeats):
    """Set-up of fresh processes, from start until the first op is ready.

    Each child reports the CPU time it used up to that point and then the
    median of ``SETUP_REFERENCE_RUNS`` reference times; its set-up time is
    that CPU time scaled to the reference speed, as op times are.  Returns
    the scaled times and, for ``# info``, the wall times from spawn to ready.
    """
    scaled, wall = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        with subprocess.Popen(_child_cmd(args), stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            try:
                ready = proc.stdout.readline()
                t1 = perf_counter()
                speed = proc.stdout.readline()
                proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        try:
            cpu_s = json.loads(ready)["ready_cpu_s"]
            ref_ms = json.loads(speed)["reference_ms"]
        except (ValueError, KeyError):
            raise RuntimeError(f"set-up child failed (exit {proc.returncode}, "
                               f"said {ready!r} {speed!r})") from None
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited with {proc.returncode}")
        scaled.append(cpu_s * Reference.NOMINAL_MS / ref_ms)
        wall.append(t1 - t0)
    return scaled, wall


def setup_child(args):
    """Build what the first op needs, then report CPU time used and the reference speed."""
    import duoc.cli  # noqa: F401  -- part of what a cold `duoc run` pays for

    _build(args.workload, args.seed, args.tiny)
    print(json.dumps({"ready_cpu_s": process_time()}), flush=True)
    reference = Reference()
    ref = statistics.median(reference.time() for _ in range(SETUP_REFERENCE_RUNS))
    print(json.dumps({"reference_ms": ref * 1e3}), flush=True)
    return 0


# -- import breakdown ------------------------------------------------------------------


def _importtime_once():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import duoc.cli"],
                         capture_output=True, text=True, env=env, cwd=ROOT,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return parse_importtime(out.stderr)


def parse_importtime(text):
    """Fold ``-X importtime`` output into the import-layer figures.

    Entries print after their children, each indented two spaces per
    level, so the children of an entry are the pending entries that
    are deeper than it.
    """
    pending = []
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, cum_us, name = line.split("|", 2)
        label = name[1:]
        entry = {"name": label.strip(), "level": (len(label) - len(label.lstrip())) // 2,
                 "self": int(head.split(":")[1]), "cum": int(cum_us), "parent": None}
        while pending and pending[-1]["level"] > entry["level"]:
            pending.pop()["parent"] = entry
        pending.append(entry)
        entries.append(entry)

    def under_duoc(e):
        while e is not None:
            if e["name"] == "duoc.cli":
                return True
            e = e["parent"]
        return False

    def is_scipy(e):
        return e is not None and (e["name"] == "scipy" or e["name"].startswith("scipy."))

    top = [e for e in entries if e["name"] == "duoc.cli"]
    if not top:
        raise RuntimeError("importtime output has no duoc.cli entry")
    ours = [e for e in entries if under_duoc(e)]
    return {
        "import.duoc_cli_ms": top[0]["cum"] / 1e3,
        "import.scipy_ms": sum(e["cum"] for e in ours
                               if is_scipy(e) and not is_scipy(e["parent"])) / 1e3,
        "import.self_ms": sum(e["self"] for e in ours
                              if e["name"] == "duoc" or e["name"].startswith("duoc.")) / 1e3,
        "import.calls": len(ours),
    }


def measure_imports(repeats):
    runs = [_importtime_once() for _ in range(repeats)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# -- metadata -----------------------------------------------------------------------


def _src_files():
    return sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in _src_files())


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata(args):
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 cwd=ROOT, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for p in _src_files():
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "clients": 1,
        "loop": "closed",
    }


# -- modes ----------------------------------------------------------------------------


def end_to_end(args, workload, setup_times):
    """Latency figures from each op's CPU time, scaled to the reference speed.

    Other tenants of a shared host slow a run in two ways, and the
    figures leave both out.  They take the core away: an op is timed in
    CPU time of the measuring thread, which excludes the time the
    scheduler gives to other processes.  They slow the core down (a
    busy sibling hyperthread, shared caches): each sample is scaled by
    the reference kernel timed around it.  Every op runs in every round
    on the same inputs, and its figure is the median over the rounds.
    The wall-clock figures are in ``# info``.
    """
    reference = Reference()
    workload_pass = run_pass(workload, args.seconds, first_round=1, reference=reference)
    scaled = workload_pass.scaled()
    pct = _percentiles(scaled)
    metrics = {
        "setup_s": (statistics.median(setup_times[0]), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_ms.p50": (pct["p50"], "ms"),
        "op_ms.p90": (pct["p90"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    tail = _tail(scaled)
    wall = workload_pass.best(workload_pass.latencies)
    raw = _percentiles(wall)
    lat = workload_pass.latencies
    ref = sorted(workload_pass.ref)
    info = {
        "reference_ms": {"min": ref[0] * 1e3, "median": statistics.median(ref) * 1e3},
        "ops_per_round": len(scaled),
        "samples": len(lat),
        "rounds": workload_pass.rounds,
        "failed_share": workload_pass.failed / workload_pass.attempted,
        "tail_percentile": tail and {"name": tail[0], "ms": tail[1]},
        "fastest_wall": {"ops_per_s": len(wall) / sum(wall), "p50_ms": raw["p50"],
                         "p90_ms": raw["p90"]},
        "all_samples_wall": {"ops_per_s": len(lat) / sum(lat)},
        "setup_s_all": setup_times[0],
        "setup_wall_s_all": setup_times[1],
        "validators_decided": workload_pass.decided,
        "validators_undecided": workload_pass.undecided,
    }
    return metrics, info, [workload_pass]


def per_layer(args, workload):
    import probes
    from tracing import LAYERS, OP_LAYER, Tracer

    # the two passes share the run's time, so a traced run takes about as long as an untraced one
    plain = run_pass(workload, args.seconds / 2, first_round=1)
    kernels, ratios, probe_errors = probes.run(args.seed, args.tiny)
    imports = measure_imports(1 if args.tiny else IMPORT_REPEATS)

    tracer = Tracer()
    tracer.install()
    traced = run_pass(workload, args.seconds / 2, tracer=tracer, first_round=1)
    spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    per_round_plain = sum(plain.latencies) / plain.rounds
    per_round_traced = sum(traced.latencies) / traced.rounds
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls.get(layer, 0) / traced.rounds, "count/round")
        metrics[f"{layer}.self_ms"] = (tracer.self_s.get(layer, 0.0) * 1e3 / traced.rounds,
                                       "ms/round")
    metrics[f"{OP_LAYER}.self_ms"] = (tracer.self_s.get(OP_LAYER, 0.0) * 1e3 / traced.rounds,
                                      "ms/round")
    for name in ("import.calls", "import.self_ms", "import.duoc_cli_ms", "import.scipy_ms"):
        metrics[name] = (imports[name], "count" if name.endswith("calls") else "ms")
    for name, value in kernels.items():
        metrics[name] = (value, "ms")
    for name, value in ratios.items():
        metrics[name] = (value, "count" if name.endswith(".attempts") else "ratio")
    metrics["trace.overhead_share"] = (per_round_traced / per_round_plain - 1, "ratio")
    metrics["src.lines"] = (src_lines(), "count")
    info = {
        "rounds_untraced": plain.rounds,
        "rounds_traced": traced.rounds,
        "op_ms_per_round_untraced": per_round_plain * 1e3,
        "op_ms_per_round_traced": per_round_traced * 1e3,
        "spans_stored": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "probe_errors": probe_errors,
    }
    return metrics, info, [plain, traced], probe_errors


def main(argv=None):
    args = _parse_args(argv)
    problems = _preflight()
    if problems:
        print("cannot run the benchmark: " + "; ".join(problems), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    if args.setup_child:
        return setup_child(args)

    setup_times = None
    if args.trace == 0:
        setup_times = measure_setup(args, 1 if args.tiny else SETUP_REPEATS)
    import duoc.cli  # noqa: F401

    if not Path(duoc.cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported duoc from {duoc.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    meta = metadata(args)
    RUN_DIR.mkdir(exist_ok=True)
    cwd = os.getcwd()
    # scripts that `emit` write into the working directory; keep that per run
    with tempfile.TemporaryDirectory(dir=RUN_DIR, prefix=f"{args.workload}-") as work:
        os.chdir(work)
        try:
            workload = _build(args.workload, args.seed, args.tiny)
            warm_up = run_pass(workload, 0.0)  # one untimed round
            if args.trace == 0:
                metrics, info, passes = end_to_end(args, workload, setup_times)
                extra_errors = []
            else:
                metrics, info, passes, extra_errors = per_layer(args, workload)
            passes.append(warm_up)
        finally:
            os.chdir(cwd)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors] + list(extra_errors)
    for err in errors[:10]:
        print(f"# error {err}")
    print("# meta " + json.dumps(meta))
    print("# info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and not extra_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
