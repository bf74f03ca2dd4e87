"""stablesq benchmark: cold-start passes of one workload, with checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass is a fresh interpreter
(perfbench/worker.py) that imports ``stablesq`` from ./src, so module
caches start cold; passes run one at a time, never concurrently.  Passes
repeat until S seconds have gone and at least MIN_PASSES passes are in.

The host's speed drifts: other load slows every process on it by up to
1.8x for seconds to minutes at a time, the same for CPU time as for wall
time.  So every latency is normalized to host speed: the worker times a
fixed pure-Python probe before each operation, and the latency is scaled
by PROBE_S over the median probe time of the neighbouring operations.
Latencies are thus in seconds of a host that runs the probe in PROBE_S;
the raw figures are printed next to them.  Passes of one seed run the
same operations, so each operation's latency is its median over the
passes: a pass disturbed by load the probe missed does not move it.

--trace 0 prints the end-to-end metrics: wall_s (the sum of the
operations' latencies), ops_per_s, op_p50_ms and op_p95_ms over those
latencies, the median peak_rss_mb of the passes, and setup_s, normalized
by probe runs timed just before and after set-up, the median over the
passes and extra set-up-only processes.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics of the traced ones
(medians), plus the tracing overhead: traced minus untraced wall_s.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  A run is correct only if every pass checked
at least one answer, no operation failed, every pass gave the same answers
and, for the table workload, every pass compared all 288 cells.  A wrong
result exits 1; a checkout without src/stablesq exits 2 with no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from math import ceil
from statistics import median
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table", "mono-squares", "rational-squares", "power-scan")
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 8
TIME_LIMIT_S = 170
TABLE_CELLS = 288
# Normalized latencies are in seconds of a host that runs one probe in
# PROBE_S, a round figure near the probe's median time on the 2-vCPU
# 2.0 GHz Xeon the baseline was measured on.
PROBE_S = 0.5e-3
# A latency is normalized by the median probe time over this many
# operations on either side of it.
PROBE_WINDOW = 10

PER_LAYER = (
    "monomial.divisor_scans",
    "monomial.basis_builds",
    "subspace.index_builds",
    "subspace.index_build_s",
    "subspace.index_entries",
    "subspace.index_builds_per_shape",
    "subspace.index_hit_ratio",
    "subspace.codim_square_calls",
    "subspace.codim_square_s",
    "subspace.square_calls",
    "subspace.square_s",
    "stable.enumerate_calls",
    "stable.enumerate_s",
    "stable.subspaces",
    "search.compute_m_calls",
    "search.compute_m_s",
    "search.compute_m_self_s",
    "search.searched",
    "qlinalg.subspace_builds",
    "qlinalg.subspace_build_s",
    "qlinalg.rows_in",
    "qlinalg.rank_out",
    "qlinalg.rank_yield",
    "qlinalg.product_calls",
    "qlinalg.product_s",
    "qlinalg.product_self_s",
    "qlinalg.quotient_calls",
    "qlinalg.quotient_s",
    "qlinalg.power_in_span_calls",
    "qlinalg.power_in_span_s",
    "qlinalg.powers_found",
    "qlinalg.has_base_point_calls",
    "qlinalg.has_base_point_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield", "_per_shape")):
        return "ratio"
    return "count"


class BenchError(Exception):
    pass


class Runner:
    """Starts worker passes one at a time under a shared deadline."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--root", ROOT,
            "--workload", workload,
            "--seed", str(seed),
        ]
        self.start = monotonic()

    @property
    def elapsed(self) -> float:
        return monotonic() - self.start

    def run(self, *flags: str) -> dict:
        remaining = TIME_LIMIT_S - self.elapsed
        if remaining <= 0:
            raise BenchError(f"out of time after {self.elapsed:.0f} s")
        env = dict(os.environ, PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(
                self.cmd + list(flags), capture_output=True, text=True, timeout=remaining, env=env
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"a pass was still running at the {TIME_LIMIT_S} s limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def normalized(p: dict) -> list[float]:
    """A pass's latencies in seconds at the probe's nominal host speed."""
    probes = p["probes_s"]
    out = []
    for i, latency in enumerate(p["latencies_s"]):
        local = median(probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1])
        out.append(latency * PROBE_S / local)
    return out


def per_op(passes: list) -> list[float]:
    """Each operation's normalized latency: its median over the passes."""
    return [median(lat) for lat in zip(*(normalized(p) for p in passes))]


def normalized_setup(p: dict) -> float:
    """A process's set-up time at the probe's nominal host speed."""
    return p["setup_s"] * PROBE_S / median(p["setup_probes_s"])


def read_commit(root: str) -> str:
    """HEAD of the checkout's git directory, or 'unknown' without one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def collect(runner: Runner, seconds: float, trace: bool) -> tuple[list, list, list]:
    """Passes until the time is up: (untraced passes, traced passes, set-up samples)."""
    plain, traced = [], []
    if trace:
        while not traced or runner.elapsed < seconds:
            plain.append(runner.run())
            traced.append(runner.run("--trace"))
    else:
        while (
            len(plain) < MIN_PASSES
            or runner.elapsed < seconds
        ):
            plain.append(runner.run())
    setup = [normalized_setup(p) for p in plain + traced]
    while not trace and len(setup) < MIN_SETUP_SAMPLES:
        setup.append(normalized_setup(runner.run("--setup-only")))
    return plain, traced, setup


def verdict(workload: str, passes: list) -> list[str]:
    """Reasons the run is not correct (empty when it is)."""
    problems = []
    for i, p in enumerate(passes):
        if p["attempted"] == 0:
            problems.append(f"pass {i} checked no answers")
        if p["failed"]:
            problems.append(f"pass {i}: {p['failed']} of {p['attempted']} ops failed {p['errors']}")
        if workload == "table" and p["attempted"] != TABLE_CELLS:
            problems.append(f"pass {i} compared {p['attempted']} cells, not {TABLE_CELLS}")
    if len({p["answers_sha256"] for p in passes}) > 1:
        problems.append("passes of one seed gave different answers")
    return problems


def end_to_end(plain: list, setup: list, lines: list) -> dict:
    lat = per_op(plain)
    wall = sum(lat)
    answered = median(p["attempted"] - p["failed"] for p in plain)
    rss = [p["peak_rss_mb"] for p in plain]
    lat_ms = sorted(x * 1e3 for x in lat)
    p50, _ = percentile(lat_ms, 50)
    p95, above95 = percentile(lat_ms, 95)
    probe_ms = median(x * 1e3 for p in plain for x in p["probes_s"])
    lines += [
        "pass raw wall_s " + " ".join(f"{sum(p['latencies_s']):.4f}" for p in plain),
        "pass wall_s     " + " ".join(f"{sum(normalized(p)):.4f}" for p in plain),
        f"probe        {probe_ms:.4f} ms   median over all operations (nominal {PROBE_S * 1e3:g} ms)",
        f"wall_s       {wall:.4f} s     sum over {len(lat)} ops of their median over {len(plain)} passes",
        f"ops_per_s    {answered / wall:.3f} 1/s",
        f"op_p50_ms    {p50:.4f} ms    {len(lat)} samples",
        f"op_p95_ms    {p95:.4f} ms    {len(lat)} samples, {above95} above",
        f"setup_s      {median(setup):.4f} s     median of {len(setup)} processes",
        f"peak_rss_mb  {median(rss):.2f} MB    median of {len(plain)} passes",
    ]
    return {
        "wall_s": (wall, "s"),
        "ops_per_s": (answered / wall, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p95_ms": (p95, "ms"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }


def per_layer(plain: list, traced: list, lines: list) -> dict:
    layers = [p["layers"] for p in traced]
    out = {name: (median(x[name] for x in layers), unit_of(name)) for name in PER_LAYER}
    out["bench.draws"] = (median(p["draws"] for p in traced), "count")
    out["bench.resamples"] = (median(p["resamples"] for p in traced), "count")
    untraced_wall = sum(per_op(plain))
    traced_wall = sum(per_op(traced))
    out["bench.trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    shapes = median(x["subspace.index_shapes"] for x in layers)
    spans = median(x["bench.spans"] for x in layers)
    lines.append(
        f"traced wall_s {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s "
        f"({len(traced)} + {len(plain)} passes); {spans:.0f} spans per traced pass"
    )
    lines.append(
        f"{out['subspace.index_builds'][0]:.0f} index builds over {shapes:.0f} distinct (n, d)"
    )
    for name, (value, unit) in out.items():
        lines.append(f"{name:34s} {value:.6g} {unit}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stablesq", "__init__.py")):
        print(f"no stablesq sources under {ROOT}/src", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        plain, traced, setup = collect(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    passes = plain + traced
    first = passes[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "commit": read_commit(ROOT),
        "ops_per_pass": first["attempted"],
        "passes": len(passes),
        "draws": first["draws"],
        "resamples": first["resamples"],
        "elapsed_s": round(runner.elapsed, 3),
    }
    lines = ["record " + json.dumps(record)]
    if args.trace:
        metrics = per_layer(plain, traced, lines)
    else:
        metrics = end_to_end(plain, setup, lines)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = verdict(args.workload, passes)
    lines.append(f"error_rate   {failed / attempted if attempted else 1.0:.6g}   {failed} failed of {attempted} ops")
    lines += ["WRONG: " + p for p in problems]
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
