"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N [--trace | --setup-only]

Imports ``stablesq`` from ROOT/src and generates the seeded inputs (both
timed, as set-up, with probe runs timed around them), runs every operation
of the workload in a closed loop (the timed section), reads the process's
peak RSS, then checks every answer and prints one JSON object.  With
``--trace`` the timed section runs under the tracer and the object carries
per-layer metrics; with ``--setup-only`` the pass stops after set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from collections import Counter
from time import perf_counter

# tracer layer -> (calls metric, total-time metric, self-time metric or None)
LAYERS = {
    "subspace.index_build": ("subspace.index_builds", "subspace.index_build_s", None),
    "subspace.codim_square": ("subspace.codim_square_calls", "subspace.codim_square_s", None),
    "subspace.square": ("subspace.square_calls", "subspace.square_s", None),
    "stable.enumerate": ("stable.enumerate_calls", "stable.enumerate_s", None),
    "search.compute_m": ("search.compute_m_calls", "search.compute_m_s", "search.compute_m_self_s"),
    "qlinalg.subspace_build": ("qlinalg.subspace_builds", "qlinalg.subspace_build_s", None),
    "qlinalg.product": ("qlinalg.product_calls", "qlinalg.product_s", "qlinalg.product_self_s"),
    "qlinalg.quotient": ("qlinalg.quotient_calls", "qlinalg.quotient_s", None),
    "qlinalg.power_in_span": ("qlinalg.power_in_span_calls", "qlinalg.power_in_span_s", None),
    "qlinalg.has_base_point": ("qlinalg.has_base_point_calls", "qlinalg.has_base_point_s", None),
}


# probe runs timed just before and just after set-up
SETUP_PROBES = 10
_PROBE_TABLE = tuple(range(1, 257))
_PROBE_DICT = {7919 * i: i for i in range(77)}


def probe() -> int:
    """A fixed pure-Python kernel, 0.3-0.55 ms on a shared 2.0 GHz Xeon.

    Integer arithmetic, tuple indexing and dict lookups, with no container
    allocation, so it never triggers the garbage collector and its time
    does not depend on what the library holds in memory.  Timed next to
    each operation, it tracks how fast the host is running the process
    at that moment.
    """
    acc = 0
    for i in range(1500):
        acc = (acc + _PROBE_TABLE[i & 255] * (i | 1)) % 1000003
        acc += _PROBE_DICT[7919 * (i % 77)]
    return acc


def timed_probes(count: int) -> list[float]:
    """Times of ``count`` consecutive probe runs."""
    times = []
    for _ in range(count):
        start = perf_counter()
        probe()
        times.append(perf_counter() - start)
    return times


class Clock:
    """Times each library call of the closed loop as one operation.

    Before each call it also times one run of ``probe``, outside the
    operation's latency, so every latency has a host-speed reading next
    to it.
    """

    def __init__(self):
        self.started = 0
        self.latencies: list[float] = []
        self.probes: list[float] = []

    def call(self, fn, *args):
        self.started += 1
        start = perf_counter()
        probe()
        self.probes.append(perf_counter() - start)
        start = perf_counter()
        result = fn(*args)
        self.latencies.append(perf_counter() - start)
        return result


def install(tracer) -> None:
    """Wrap the library entry points that the per-layer metrics read."""
    from stablesq import monomial, qlinalg, search, stable, subspace

    counts = tracer.counts

    def index_built(args, kwargs, result):
        index = args[0]
        counts["subspace.index_entries"] += len(index.entries)
        counts[("index shape", index.n, index.d)] += 1

    def enumerated(args, kwargs, result):
        if isinstance(result, list):
            counts["stable.subspaces"] += len(result)

    def searched(args, kwargs, result):
        counts["search.searched"] += result.searched

    def power_found(args, kwargs, result):
        counts["qlinalg.powers_found"] += result is True

    rational_init = qlinalg.RationalSubspace.__init__

    def counting_init(self, n, d, rows, *rest, **kwargs):
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        counts["qlinalg.rows_in"] += len(rows)
        rational_init(self, n, d, rows, *rest, **kwargs)
        counts["qlinalg.rank_out"] += len(self.rows)

    index_cls = subspace.SquareIndex
    tracer.patch_function(
        monomial.divisors_of_degree,
        tracer.counted(monomial.divisors_of_degree, "monomial.divisor_scans"),
    )
    tracer.patch_method(
        index_cls, "__init__", tracer.timed(index_cls.__init__, "subspace.index_build", index_built)
    )
    tracer.patch_method(
        index_cls, "codim_square", tracer.timed(index_cls.codim_square, "subspace.codim_square")
    )
    tracer.patch_method(
        qlinalg.RationalSubspace,
        "__init__",
        tracer.timed(counting_init, "qlinalg.subspace_build"),
    )
    for fn, layer, after in (
        (subspace.square, "subspace.square", None),
        (stable.enumerate_strongly_stable, "stable.enumerate", enumerated),
        (search.compute_m, "search.compute_m", searched),
        (qlinalg.product_rational, "qlinalg.product", None),
        (qlinalg.quotient_by_linear_form, "qlinalg.quotient", None),
        (qlinalg.power_in_span, "qlinalg.power_in_span", power_found),
        (qlinalg.has_base_point, "qlinalg.has_base_point", None),
    ):
        tracer.patch_function(fn, tracer.timed(fn, layer, after))


def cache_counts() -> dict:
    """Hits and misses of the library's lru caches, read via cache_info()."""
    from stablesq import monomial, subspace

    basis = monomial._basis_tuples.cache_info()
    index = subspace.square_index.cache_info()
    return {"basis_misses": basis.misses, "index_hits": index.hits, "index_misses": index.misses}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, before: dict, after: dict) -> dict:
    """Per-layer metrics of one traced pass (0 for a layer never entered)."""
    counts = tracer.counts
    out = {}
    for layer, (total, own) in tracer.layer_times().items():
        calls_name, time_name, self_name = LAYERS[layer]
        out[calls_name] = counts[layer + ":calls"]
        out[time_name] = total
        if self_name:
            out[self_name] = own
    hits = after["index_hits"] - before["index_hits"]
    misses = after["index_misses"] - before["index_misses"]
    shapes = sum(1 for key in counts if isinstance(key, tuple) and key[0] == "index shape")
    out.update(
        {
            "monomial.divisor_scans": counts["monomial.divisor_scans"],
            "monomial.basis_builds": after["basis_misses"] - before["basis_misses"],
            "subspace.index_entries": counts["subspace.index_entries"],
            "subspace.index_shapes": shapes,
            "subspace.index_builds_per_shape": _ratio(out["subspace.index_builds"], shapes),
            "subspace.index_hit_ratio": _ratio(hits, hits + misses),
            "stable.subspaces": counts["stable.subspaces"] + counts["stable.enumerate:items"],
            "search.searched": counts["search.searched"],
            "qlinalg.rows_in": counts["qlinalg.rows_in"],
            "qlinalg.rank_out": counts["qlinalg.rank_out"],
            "qlinalg.rank_yield": _ratio(counts["qlinalg.rank_out"], counts["qlinalg.rows_in"]),
            "qlinalg.powers_found": counts["qlinalg.powers_found"],
            "bench.spans": tracer.span_count,
        }
    )
    return out


def run_pass(workload, groups, tracer=None) -> dict:
    """Run every group in a closed loop, then check every answer.

    A tracer, if given, is installed around the timed section only and
    removed before the checks run.  A group that raises charges every
    operation it started as failed.
    """
    clock = Clock()
    answers = []
    started = []
    errors = []
    before = cache_counts() if tracer is not None else None
    if tracer is not None:
        install(tracer)
    try:
        for group in groups:
            first = clock.started
            try:
                answers.append(workload.run(group, clock.call))
            except Exception as exc:  # a raising op is a failed op, not a crash
                answers.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            started.append(clock.started - first)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = failed = 0
    for group, answer, ops in zip(groups, answers, started):
        verdicts = [False] * ops if answer is None else workload.check(group, answer)
        attempted += len(verdicts)
        failed += verdicts.count(False)
    out = {
        "latencies_s": clock.latencies,
        "probes_s": clock.probes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "peak_rss_mb": peak_rss_mb,
        "answers": answers,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, before, cache_counts())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    timed_probes(SETUP_PROBES)  # warm-up: the interpreter specializes the probe's bytecode
    probes = timed_probes(SETUP_PROBES)
    start = perf_counter()
    import stablesq

    import_s = perf_counter() - start
    if not os.path.abspath(stablesq.__file__).startswith(src + os.sep):
        print(f"stablesq was imported from {stablesq.__file__}, not {src}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    stats: Counter = Counter()
    start = perf_counter()
    groups = workload.make(args.seed, stats)
    setup_s = import_s + perf_counter() - start
    probes += timed_probes(SETUP_PROBES)
    out = {
        "setup_s": setup_s,
        "setup_probes_s": probes,
        "draws": stats["draws"],
        "resamples": stats["resamples"],
    }
    if not args.setup_only:
        result = run_pass(workload, groups, Tracer("stablesq") if args.trace else None)
        answers = result.pop("answers")
        result["answers_sha256"] = hashlib.sha256(repr(answers).encode()).hexdigest()
        out.update(result)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
