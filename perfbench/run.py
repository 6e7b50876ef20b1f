"""Benchmark for sharplat.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and nothing needs building.  Everything runs in this process
and one thread, with ``SHARPLAT_THREADS`` unset.  The run sets up the
workload several times (imports, input generation, parsing) and
reports the median, then runs passes of it for ``--seconds`` seconds
and checks every output.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics; with ``--trace 1`` the first half of the time runs untraced
and the second half traced, and the last line reports the per-layer
metrics of the traced passes plus the tracing overhead.  The line
before it holds the run's metadata.  Workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS, Ledger

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# set up at least this many times, and until set-ups have taken SETUP_SECONDS
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

END_TO_END = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_fresh():
    """Import the package from scratch, so each set-up pays for it."""
    for name in [k for k in sys.modules if k == "sharplat" or k.startswith("sharplat.")]:
        del sys.modules[name]
    sharplat = importlib.import_module("sharplat")
    importlib.import_module("sharplat.cli")
    return sharplat


def _passes(workload, ledger: Ledger, seconds: float, tracer=None) -> tuple[list[float], list[dict]]:
    """Run passes until ``seconds`` have gone (at least one); returns
    each pass's wall time and, when traced, its per-layer values."""
    walls, layers = [], []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        began = perf_counter()
        workload.run_pass(ledger)
        walls.append(perf_counter() - began)
        if tracer is not None:
            layers.append(spans.layer_values(tracer.totals()))
    return walls, layers


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sharplat").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """One run of a workload; returns (result, metadata)."""
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            workload = WORKLOADS[name](seed, workdir, tiny)
            began = perf_counter()
            workload.setup(_import_fresh())
            setup_times.append(perf_counter() - began)

        ledger = Ledger()
        walls, _ = _passes(workload, ledger, seconds / 2 if trace else seconds)
        samples = {"setup_s": len(setup_times), "wall_s": len(walls)}
        meta: dict = {}
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_walls, layers = _passes(workload, ledger, seconds / 2, tracer)
                meta["patched_bindings"] = tracer.patched_bindings()
                meta["span_totals_last_pass"] = {
                    k: dict(v) for k, v in sorted(tracer.totals().items())
                }
            finally:
                tracer.uninstall()
            metrics = spans.median_metrics(layers)
            metrics["trace.overhead_s"] = {
                "value": statistics.median(traced_walls) - statistics.median(walls),
                "unit": "s",
            }
            samples = {"traced_passes": len(traced_walls), "untraced_passes": len(walls)}
        else:
            values = {
                "wall_s": statistics.median(walls),
                "item_p50_ms": 1000 * statistics.median(ledger.latencies),
                "item_p95_ms": 1000 * _percentile(ledger.latencies, 0.95),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "setup_s": statistics.median(setup_times),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            samples.update(
                {"item_p50_ms": len(ledger.latencies), "item_p95_ms": len(ledger.latencies),
                 "peak_rss_mb": 1}
            )
        workload.verify(ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    meta.update(
        {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "commit": _commit(),
            "source_sha256": _source_digest(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "failed_ratio": ledger.failed / ledger.attempted if ledger.attempted else None,
            "samples": samples,
        }
    )
    return result, meta


def prepare() -> str | None:
    """Point imports at the checkout's sources and clear the thread
    setting; returns the setting's previous value."""
    threads = os.environ.pop("SHARPLAT_THREADS", None)
    sys.path.insert(0, str(SRC))
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "sharplat" / "__init__.py").is_file():
        print(f"perfbench: no sharplat sources under {SRC}", file=sys.stderr)
        return 2
    threads = prepare()
    result, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    meta["sharplat_threads_env"] = threads
    if args.trace:
        print(json.dumps({"span_totals_last_pass": meta.pop("span_totals_last_pass")}), file=sys.stderr)
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
