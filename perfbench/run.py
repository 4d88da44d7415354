"""geostiff benchmark runner.

    python3 perfbench/run.py --workload {wipe_sim,query,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/``. The run sets the workload up SETUP_REPS times (fresh import of
geostiff, model load, input generation, warm-up), then measures it for S
seconds in short windows, with the host-reference kernel (hostref.py) timed
between ops. Times are scaled to the reference host speed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` untraced and traced windows alternate and the last line holds
the per-layer metrics. ``--workload all`` interleaves the three workloads
window by window and prefixes each metric with its workload. Earlier lines
are a host stamp and a per-workload summary.
"""

import os

# One BLAS thread, set before numpy is imported: the benchmark measures the
# program, not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from hostref import REF_US, kernel_us  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / "perfbench" / ".work"
SETUP_REPS = 7
SETUP_REFS = 20     # kernel runs on each side of a set-up
WINDOW_S = 0.1


def fresh_import():
    """Import geostiff anew from the checkout's src/ (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "geostiff" or m.startswith("geostiff.")]:
        del sys.modules[name]
    importlib.import_module("geostiff.cli")
    pkg = sys.modules["geostiff"]
    if Path(pkg.__file__).resolve().parent != SRC / "geostiff":
        raise ImportError(f"geostiff imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{
        name: sys.modules[f"geostiff.{name}"]
        for name in ("robot", "stiffness", "connection", "sim", "passivity", "cli", "errors")
    })


def host_stamp():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "ref_us": REF_US,
    }


def _host_scale(refs):
    """Factor that scales wall time measured beside `refs` to the reference host speed."""
    return REF_US / statistics.median(refs)


def _scaled(latencies, refs, ops_per_ref):
    """Scale each op by the median of the three kernel runs nearest to it.

    Op i ran next to kernel run i // ops_per_ref; a local median follows
    the host's speed op by op while ignoring one disturbed kernel run.
    """
    r = np.asarray(refs)
    local = np.median(np.stack([np.r_[r[0], r[:-1]], r, np.r_[r[1:], r[-1]]]), axis=0)
    index = np.minimum(np.arange(len(latencies)) // ops_per_ref, len(r) - 1)
    return np.asarray(latencies) * (REF_US / local[index])


class Window(NamedTuple):
    traced: bool
    ref_us: float           # median reference-kernel time in the window
    raw_us: np.ndarray      # the ops' wall times
    scaled_us: np.ndarray   # the same, scaled to the reference host speed


class Measured:
    """One workload's run: its set-up, then its measurement windows."""

    def __init__(self, cls, seed, trace, setup_reps):
        raw, scaled = [], []
        for rep in range(setup_reps):
            before = [kernel_us() for _ in range(SETUP_REFS)]
            start = time.perf_counter()
            gs = fresh_import()
            workload = cls(gs, seed, WORKDIR)
            tracer = None
            if trace and rep == setup_reps - 1:
                # the last set-up is traced (per-call layer times of set-up-only
                # calls such as IK), and not timed
                tracer = tracing.Tracer(gs)
                tracer.install("setup")
            try:
                workload.setup()
            finally:
                if tracer:
                    tracer.remove()
            elapsed = time.perf_counter() - start
            if not tracer:
                raw.append(elapsed)
                scaled.append(elapsed * _host_scale(before + [kernel_us() for _ in range(SETUP_REFS)]))
        self.setup_s = statistics.median(scaled) if scaled else None
        self.raw_setup_s = statistics.median(raw) if raw else None
        self.workload, self.tracer = workload, tracer
        self.windows = []

    def run_window(self, traced):
        if traced:
            self.tracer.install("op")
        try:
            latencies, refs, ops_per_ref = self.workload.run_slice(WINDOW_S)
        finally:
            if traced:
                self.tracer.remove()
        if latencies and refs:
            self.windows.append(Window(traced, statistics.median(refs), np.asarray(latencies),
                                       _scaled(latencies, refs, ops_per_ref)))

    def _windows(self, traced):
        return [w for w in self.windows if w.traced == traced]

    def latencies(self, traced, scaled=True):
        arrays = [w.scaled_us if scaled else w.raw_us for w in self._windows(traced)]
        return np.concatenate(arrays) if arrays else np.empty(0)

    def ops_per_s(self, traced, scaled=True):
        lat = self.latencies(traced, scaled)
        return len(lat) / (lat.sum() / 1e6)

    def end_to_end(self):
        lat = self.latencies(False)
        return {
            "setup_s": {"value": self.setup_s, "unit": "s"},
            "ops_per_s": {"value": self.ops_per_s(False), "unit": "1/s"},
            "op_us_p50": {"value": float(np.percentile(lat, 50)), "unit": "us"},
            "op_us_p99": {"value": float(np.percentile(lat, 99)), "unit": "us"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    def per_layer(self):
        sim = self.workload.name == "wipe_sim"
        traced_ops = sum(len(w.raw_us) for w in self._windows(True))
        scale = _host_scale([w.ref_us for w in self._windows(True)])
        return tracing.layer_metrics(self.tracer, scale, traced_ops, traced_ops if sim else 0,
                                     self.latencies(True) if sim else np.empty(0),
                                     self.ops_per_s(False), self.ops_per_s(True))

    def summary(self):
        w = self.workload
        lat = self.latencies(False)
        raw = self.latencies(False, scaled=False)
        return {
            "workload": w.name,
            "attempted": w.attempted,
            "failed": w.failed,
            "failed_frac": w.failed / w.attempted,
            "wrong": w.wrong,
            "windows": len(self.windows),
            "op_samples": len(lat),
            "beyond_p99": int(np.sum(lat > np.percentile(lat, 99))),
            "unscaled": {"setup_s": self.raw_setup_s,
                         "ops_per_s": self.ops_per_s(False, scaled=False),
                         "op_us_p50": float(np.percentile(raw, 50)),
                         "op_us_p99": float(np.percentile(raw, 99))},
            "ref_us_by_window": [round(x.ref_us, 1) for x in self.windows],
            "ops_by_kind": dict(sorted(w.kind_ops.items())),
            "failed_by_kind": dict(sorted(w.kind_failed.items())),
            "first_error": w.first_error,
        }


def measure(names, seed, seconds, trace, setup_reps=SETUP_REPS):
    """Set up the named workloads and measure them for `seconds`, interleaved
    window by window. Returns the host stamp and one Measured per workload.
    """
    import_start = time.perf_counter()
    fresh_import()
    stamp = {"seed": seed, "seconds": seconds, "trace": trace,
             "first_import_s": time.perf_counter() - import_start, **host_stamp()}
    measured = [Measured(WORKLOADS[n], seed, trace, setup_reps) for n in names]
    deadline = time.perf_counter() + seconds
    while True:
        for m in measured:
            m.run_window(traced=False)
            if trace:
                m.run_window(traced=True)
        if time.perf_counter() >= deadline:
            return stamp, measured


def report(stamp, measured, trace, out=sys.stdout):
    """Print the stamp and summaries; return the result object."""
    print("stamp " + json.dumps(stamp), file=out)
    metrics = {}
    for m in measured:
        print("summary " + json.dumps(m.summary()), file=out)
        values = m.per_layer() if trace else m.end_to_end()
        prefix = f"{m.workload.name}." if len(measured) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
    restored = all(m.tracer.restored() for m in measured) if trace else True
    return {
        "correct": restored and all(m.workload.wrong == 0 for m in measured),
        "attempted": sum(m.workload.attempted for m in measured),
        "failed": sum(m.workload.failed for m in measured),
        "metrics": metrics,
    }


def use_checkout_sources():
    """Put the checkout's src/ first on sys.path; False if it holds no geostiff."""
    if not (SRC / "geostiff" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        print(f"error: no geostiff sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    print(json.dumps(report(*measure(names, args.seed, args.seconds, trace), trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
