"""conegraph benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; conegraph is imported from
./src. The run sets up the workload's inputs several times (setup_s is
the median), then repeats passes of the workload until --seconds is
used up. With --trace 0 no pass is instrumented, and the
end-to-end metrics are reported, with times scaled for the host's CPU
speed drift by a calibration kernel timed between calls, and imports
by a reference interpreter start (the raw times are in the run line). With --trace 1 a first pass counts cone
assignments, then untraced and traced passes alternate, and the
per-layer metrics come from the traced ones. Every pass's outputs are
checked; the last stdout line is the JSON result, the line before it
the machine and run facts. See perfbench/NOTES.md.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORKDIR = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
# The host's CPU speed drifts by +-20% and more, over seconds to minutes
# (see NOTES.md), so each call's time is scaled by CAL_NOMINAL_S over the
# calibration kernel's median time at the points just before and after it.
CAL_EVERY_S = 0.1
CAL_SAMPLES = 3
CAL_NOMINAL_S = 1.2e-3
# A fresh interpreter's import tracks the kernel poorly, so each timed
# import is scaled instead by REF_NOMINAL_S over the time of a reference
# child, a fresh interpreter that imports numpy only, timed just before
# and after it. No change to the program changes the reference's time.
REF_NOMINAL_S = 0.15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MODULES = ("model", "geometry", "construct", "voidcheck", "routing", "corpus", "render", "cli")
IMPORT_PROBE = "import conegraph; print(conegraph.__file__)"
REF_PROBE = "import numpy"


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"check failed: {what}", file=sys.stderr)


class Units:
    """Times each top-level call of a pass (a root span when traced) and
    how many graphs it covered. Between calls, at most every CAL_EVERY_S,
    it times the calibration kernel; that time stays out of the pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = []  # (seconds, graphs, last calibration point)
        self.points = []  # CAL_SAMPLES kernel times per calibration point
        self.cal_s = 0.0
        self._next_cal = 0.0

    def calibrate(self):
        times = []
        for _ in range(CAL_SAMPLES):
            t0 = perf_counter()
            cal_kernel()
            t1 = perf_counter()
            times.append(t1 - t0)
        self.points.append(times)
        self.cal_s += sum(times)
        self._next_cal = t1 + CAL_EVERY_S

    def __call__(self, fn, *args, graphs=1, **kwargs):
        if perf_counter() >= self._next_cal:
            self.calibrate()
        t0 = perf_counter()
        if self.tracer is None:
            result = fn(*args, **kwargs)
        else:
            result = self.tracer.call("bench.unit", fn, *args, **kwargs)
        dt = perf_counter() - t0
        graphs = graphs(result) if callable(graphs) else graphs
        self.samples.append((dt, graphs, len(self.points) - 1))
        return result

    def scaled(self):
        """Each call's (seconds, graphs), the seconds scaled by the
        calibration points just before and after the call, and the pass's
        factor: those scales weighted by call time. Needs a calibration
        point after the last call."""
        out = [(dt * speed(self.points[j] + self.points[j + 1]), g)
               for dt, g, j in self.samples]
        return out, sum(dt for dt, _ in out) / sum(dt for dt, _, _ in self.samples)


# A fixed 64-point set for cal_kernel, not drawn from any seed.
_CAL_POINTS = [(0.5 + 0.5 * math.sin(i), 0.5 + 0.5 * math.cos(1.7 * i)) for i in range(64)]


def _cal_cone(dx, dy, k):
    angle = math.atan2(dx, dy)
    if angle <= 0.0:
        angle += math.tau
    return min(max(math.ceil(angle * k / math.tau), 1), k)


def cal_kernel():
    """A fixed, frozen imitation of the construction loop (cone, distance,
    per-cone best) for 16 of _CAL_POINTS. It never calls conegraph, so no
    change to the program changes its time; it tracks the CPU's speed for
    this kind of interpreter work better than a plain arithmetic loop."""
    picks = 0
    for ux, uy in _CAL_POINTS[:16]:
        best = {}
        for vx, vy in _CAL_POINTS:
            dx = vx - ux
            dy = vy - uy
            if dx == 0.0 and dy == 0.0:
                continue
            i = _cal_cone(dx, dy, 6)
            d = math.sqrt(dx * dx + dy * dy)
            cur = best.get(i)
            if cur is None or d < cur[0]:
                best[i] = (d, vx)
        picks += len(best)
    return picks


def speed(cal):
    """Factor that scales times measured next to the kernel times cal to
    the reference CPU."""
    return CAL_NOMINAL_S / statistics.median(cal)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def time_child(code):
    """Wall time of a fresh interpreter that runs code, and its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return perf_counter() - t0, out.stdout


def time_setup(make_inputs, seed):
    """SETUP_REPEATS set-ups: (raw seconds, scaled seconds) each, and the
    inputs. An import is scaled by the reference children on either side
    of it, the input generation by the calibration kernel."""
    times = []
    ref_s, _ = time_child(REF_PROBE)
    for _ in range(SETUP_REPEATS):
        import_s, where = time_child(IMPORT_PROBE)
        if not Path(where.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"conegraph imported from {where.strip()}, not from {SRC}")
        next_ref_s, _ = time_child(REF_PROBE)
        gen = Units()
        inputs = gen(make_inputs, seed)
        gen.calibrate()
        [(gen_s, _)], _ = gen.scaled()
        times.append((import_s + gen.samples[0][0],
                      import_s * 2 * REF_NOMINAL_S / (ref_s + next_ref_s) + gen_s))
        ref_s = next_ref_s
    return times, inputs


def load_lib():
    sys.path.insert(0, str(SRC))
    import conegraph

    if not Path(conegraph.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"conegraph imported from {conegraph.__file__}, not from {SRC}")
    import numpy

    lib = types.SimpleNamespace(numpy_version=numpy.__version__)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"conegraph.{name}"))
    return lib


def facts(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "src_sha256": workloads.digest(b"".join(
            p.read_bytes() for p in sorted(SRC.rglob("*")) if p.suffix in (".py", ".json"))),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_passes(seconds, step, minimum):
    """Call step() until the next call would overrun seconds, at least
    minimum times."""
    start = perf_counter()
    done = 0
    while done < minimum or (perf_counter() - start) * (done + 1) / done <= seconds:
        step()
        done += 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conegraph" / "__init__.py").is_file():
        print(f"error: no conegraph sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    make_inputs, run_pass, verify = workloads.WORKLOADS[args.workload]
    setup, inputs = time_setup(make_inputs, args.seed)
    lib = load_lib()

    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text()).get(args.workload)
    checks = Checks()
    WORKDIR.mkdir(exist_ok=True)
    ctx = workloads.Context(lib, checks, WORKDIR, golden)
    first = []

    def one_pass(instrument=None):
        """One timed pass, then its checks with the instrument removed."""
        units = Units(instrument)
        t0 = perf_counter()
        out, verdicts = run_pass(ctx, inputs, units)
        wall = perf_counter() - t0 - units.cal_s
        units.calibrate()
        if instrument is not None:
            instrument.restore()
        verify(ctx, inputs, out, first[0] if first else None)
        if not first:
            first.append(out)
        samples, factor = units.scaled()
        return wall, verdicts, samples, factor

    try:
        if args.trace:
            metrics = traced_run(args, lib, one_pass)
        else:
            metrics = untraced_run(args, one_pass, setup)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    run = facts(args)
    run.update(numpy=lib.numpy_version, attempted=checks.attempted, failed=checks.failed,
               failed_ratio=checks.failed / max(checks.attempted, 1))
    run.update(metrics.pop("_run"))
    print(json.dumps({"run": run}, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def untraced_run(args, one_pass, setup):
    """End-to-end metrics. Percentiles are taken within each pass and the
    median over passes is reported, like every other per-pass figure."""
    passes = []
    run_passes(args.seconds, lambda: passes.append(one_pass()), minimum=3)
    walls = [w * f for w, _, _, f in passes]
    graph_ms = [[1000 * dt / g for dt, g in samples] for _, _, samples, _ in passes]
    call_s = [[dt for dt, _ in samples] for _, _, samples, _ in passes]
    graphs = sum(g for _, g in passes[0][2])

    return {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "graphs_per_s": (statistics.median(graphs / w for w in walls), "1/s"),
        "graph_ms.p50": (statistics.median(statistics.median(ms) for ms in graph_ms), "ms"),
        "graph_ms.p99": (statistics.median(percentile(ms, 0.99) for ms in graph_ms), "ms"),
        "trials_per_s": (statistics.median(p[1] / w for p, w in zip(passes, walls)), "1/s"),
        "cli_call_s.p50": (statistics.median(statistics.median(c) for c in call_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "_run": {"raw_pass_walls": [p[0] for p in passes], "speed": [p[3] for p in passes],
                 "raw_setup_s": [raw for raw, _ in setup],
                 "graphs_per_pass": graphs, "unit_samples_per_pass": len(graph_ms[0])},
    }


def traced_run(args, lib, one_pass):
    start = perf_counter()
    # cone_of is called per ordered pair, so it is counted in a pass of its own
    cones = tracing.Tracer()
    for mod in (lib.construct, lib.voidcheck):
        cones.count_calls(mod, "cone_of", "geometry.cone_assignments")
    one_pass(cones)
    untraced, traced = [], []

    def pair():
        wall, _, _, factor = one_pass()
        untraced.append(wall * factor)
        tracer = tracing.Tracer()
        tracing.install(tracer, lib)
        wall, _, _, factor = one_pass(tracer)
        traced.append(layer_metrics(wall, tracer, factor))

    run_passes(args.seconds - (perf_counter() - start), pair, minimum=1)
    metrics = {name: (statistics.median(p[name][0] for p in traced), unit)
               for name, (_, unit) in traced[0].items()}
    metrics["geometry.cone_assignments"] = (cones.counts["geometry.cone_assignments"], "count")
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead"] = (metrics["trace.wall_s"][0] / statistics.median(untraced), "ratio")
    metrics["_run"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
    return metrics


def layer_metrics(wall, tracer, factor):
    """One traced pass's per-layer figures, times scaled like wall_s."""
    total, self_s, spans = tracer.summary()
    total = Counter({name: t * factor for name, t in total.items()})
    self_s = Counter({layer: t * factor for layer, t in self_s.items()})
    c = tracer.counts
    build_s = total["construct.directed"]
    m = {
        "construct.build_s": (build_s, "s"),
        "construct.builds": (c["construct.builds"], "count"),
        "construct.pairs": (c["construct.pairs"], "count"),
        "construct.edges": (c["construct.edges"], "count"),
        "construct.ns_per_pair": (1e9 * build_s / max(c["construct.pairs"], 1), "ns"),
        "model.parse_s": (total["model.parse"], "s"),
        "model.serialize_s": (total["model.serialize"], "s"),
        "model.graph_init_s": (total["model.graph_init"], "s"),
        "model.dist_matrix_s": (total["model.dist_matrix"], "s"),
        "model.dist_rows_s": (total["model.dist_rows"], "s"),
        "voidcheck.scan_s": (total["voidcheck.scan"], "s"),
        "voidcheck.scan_pairs": (c["voidcheck.scan_pairs"], "count"),
        "voidcheck.witnesses": (c["voidcheck.witnesses"], "count"),
        "voidcheck.relay_s": (total["voidcheck.relay"], "s"),
        "voidcheck.has_void_s": (total["voidcheck.has_void"], "s"),
        "voidcheck.oracle_s": (total["voidcheck.oracle"], "s"),
        "routing.route_s": (total["routing.route"], "s"),
        "routing.routes": (c["routing.routes"], "count"),
        "routing.hops": (c["routing.hops"], "count"),
        "routing.stuck": (c["routing.stuck"], "count"),
        "corpus.search_s": (total["corpus.search"], "s"),
        "corpus.trials": (c["corpus.trials"], "count"),
        "corpus.hits": (c["corpus.hits"], "count"),
        "corpus.hit_rate": (c["corpus.hits"] / max(c["corpus.trials"], 1), "ratio"),
        "render.svg_s": (total["render.svg"], "s"),
        "render.svg_bytes": (c["render.svg_bytes"], "bytes"),
        "cli.main_s": (total["cli.main"], "s"),
        "trace.spans": (spans, "count"),
        "trace.wall_s": (wall * factor, "s"),
    }
    for layer in tracing.TIMED_LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    return m


if __name__ == "__main__":
    sys.exit(main())
