"""surfgeo benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload gaussbonnet --seed 1 --seconds 20 --trace 0

Runs the workload's scenarios in rounds until --seconds have passed (whole
rounds only), checks the first round's output files against independent
references and every later round's files against the first, and prints
{"correct", "attempted", "failed", "metrics"} as the last line of stdout.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 rounds
alternate untraced and traced, and the metrics are the per-layer ones.
See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# a plain single-threaded baseline: no BLAS thread pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("gaussbonnet", "mapcheck", "drive")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _snapshot(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _fastest_sum(per_op: list) -> float:
    """Sum over operations of each one's fastest round.

    Other tenants of a shared machine only ever slow a round down, in phases
    that last several rounds; the fastest round per operation is the figure
    that stays put (README: "Statistics").
    """
    return sum(min(xs) for xs in per_op)


class Runner:
    def __init__(self, wl, work: Path):
        self.wl = wl
        self.work = work
        self.reference = None       # round 0's directory, kept for the checks
        self.reference_files: dict = {}
        self.problems: list = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        n = len(wl.ops)
        self.wall = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}
        self.cpu = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}

    def round(self, tracer=None):
        """Run every op once; time each; count failures; compare files."""
        traced = tracer is not None
        rd = self.work / f"round{self.rounds}"
        rd.mkdir(parents=True)
        statuses = []
        if traced:
            tracer.reset()
            tracer.install()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                for i, op in enumerate(self.wl.ops):
                    if traced:
                        tracer.scenario = op.name
                    c0, w0 = time.process_time(), time.perf_counter()
                    status = op.run(rd, tracer)
                    w1, c1 = time.perf_counter(), time.process_time()
                    self.wall[traced][i].append(w1 - w0)
                    self.cpu[traced][i].append(c1 - c0)
                    statuses.append(status)
        finally:
            if traced:
                tracer.uninstall()
        for op, status in zip(self.wl.ops, statuses):
            self.attempted += op.units
            self.failed += op.failed(rd, status)
        if self.reference is None:
            self.reference = rd
            self.reference_files = _snapshot(rd)
        else:
            if _snapshot(rd) != self.reference_files:
                what = "traced" if traced else "untraced"
                self.problems.append(f"round {self.rounds} ({what}) wrote different files than round 0")
            shutil.rmtree(rd)
        self.rounds += 1

    def check(self):
        for chk in self.wl.checks:
            self.problems.extend(chk(self.reference))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "surfgeo" / "__init__.py").is_file():
        print(f"benchmark: no surfgeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of the timed set-up)

    import workloads

    wl = workloads.BUILDERS[args.workload](args.seed)
    setup_s = time.perf_counter() - T_START

    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    runner = Runner(wl, work)
    tracer = None
    layer_rounds: list = []
    span_lines: list = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = tracer is not None and runner.rounds % 2 == 1
            runner.round(tracer if traced else None)
            if traced:
                layer_rounds.append(tracer.round_metrics())
                if not span_lines:
                    span_lines = tracer.span_lines(runner.rounds - 1)
            if time.perf_counter() >= deadline and (tracer is None or layer_rounds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check()
        if tracer is None:
            metrics = {
                "wall_s": (_fastest_sum(runner.wall[False]), "s"),
                "cpu_s": (_fastest_sum(runner.cpu[False]), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (setup_s, "s"),
            }
        else:
            check_traced_counts(wl, runner, layer_rounds)
            metrics = _layer_metrics(runner, layer_rounds)
            tracing.write_spans(OUT / f"trace-{args.workload}.jsonl", span_lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in runner.problems:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


COUNT_UNITS = {
    "surface.jet_points_per_call": "points/call",
    "geodesics.jet_calls_per_connect": "calls/connect",
}


def check_traced_counts(wl, runner, layer_rounds: list):
    """Counts must repeat exactly across traced rounds and agree with the
    totals the workload reaches another way."""
    first = layer_rounds[0]
    counts = [k for k in first if not k.endswith("_s")]
    if any(other[k] != first[k] for other in layer_rounds[1:] for k in counts):
        runner.problems.append("per-layer counts differ between traced rounds")
    for chk in wl.count_checks:
        runner.problems.extend(chk(first, runner.reference))


def _layer_metrics(runner, layer_rounds: list) -> dict:
    """Counts from the first traced round, self times as medians over the
    traced rounds, and the tracing overhead."""
    out = {}
    for key, val in layer_rounds[0].items():
        if key.endswith("_s"):
            out[key] = (statistics.median(r[key] for r in layer_rounds), "s")
        else:
            out[key] = (val, COUNT_UNITS.get(key, "count"))
    out["trace.overhead_s"] = (_fastest_sum(runner.wall[True]) - _fastest_sum(runner.wall[False]), "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
