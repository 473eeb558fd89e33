"""Plant wrong values in real outputs and make sure every check catches them.

    python3 perfbench/selftest.py

Runs one round of each workload (seed 1), confirms the checks pass on the
untouched files, then for each plant copies the round, edits one value in
one output file, and requires the checks to report a problem. The
traced-total checks get a count that is off by one.
Exits 1 if a plant goes unnoticed or the untouched outputs fail.
"""

import contextlib
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (sets the single-thread environment)
import workloads  # noqa: E402


def set_csv(path: Path, row: int, col: int, fn):
    lines = path.read_text().splitlines()
    data = [i for i, ln in enumerate(lines[1:], 1) if not ln.startswith("#")]
    i = data[row]
    cells = lines[i].split(",")
    cells[col] = "%.9g" % fn(float(cells[col]))
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def set_summary(path: Path, key: str, fn):
    lines = path.read_text().splitlines()
    for i, ln in enumerate(lines):
        k, _, v = ln.partition(" = ")
        if k == key:
            lines[i] = f"{k} = {fn(v)}"
    path.write_text("\n".join(lines) + "\n")


def scale(f):
    return lambda v: "%.17g" % (float(v) * f)


def shift(dx):
    return lambda v: "%.17g" % (float(v) + dx)


def plant_integral(p: Path, dx: float):
    """Shift the fine grid's integral and keep its residual column consistent."""
    set_csv(p, 1, 1, lambda x: x + dx)
    hol, integral = (float(x) for x in p.read_text().splitlines()[2].split(",")[:2])
    set_csv(p, 1, 2, lambda x: abs(hol - integral))


def plant_relax_rise(p: Path):
    lines = p.read_text().splitlines()
    cells = lines[6].split(",")
    cells[1] = "%.9g" % (float(lines[5].split(",")[1]) * (1 + 1e-6))
    lines[6] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n")


# (workload, scenario dir, description, edit(scenario dir))
PLANTS = [
    ("gaussbonnet", "gb-sphere", "sphere holonomy off by 1e-5",
     lambda d: set_csv(d / "gaussbonnet.csv", 0, 0, lambda x: x * (1 + 1e-5))),
    ("gaussbonnet", "gb-hill", "hill holonomy off by 1e-5",
     lambda d: set_csv(d / "gaussbonnet.csv", 1, 0, lambda x: x * (1 + 1e-5))),
    ("gaussbonnet", "gb-ellipsoid", "ellipsoid holonomy off by 1e-5",
     lambda d: set_csv(d / "gaussbonnet.csv", 0, 0, lambda x: x * (1 + 1e-5))),
    ("gaussbonnet", "gb-hill", "curvature integral and residual 0.01 off at the fine grid",
     lambda d: plant_integral(d / "gaussbonnet.csv", 0.01)),
    ("gaussbonnet", "gb-ellipsoid", "fine grid repeats the coarse grid's numbers",
     lambda d: (d / "gaussbonnet.csv").write_text(
         "\n".join((lambda ls: ls[:2] + [ls[1]])((d / "gaussbonnet.csv").read_text().splitlines()))
         + "\n")),
    ("mapcheck", "map-mercator-7", "one true_dist 0.1% long",
     lambda d: set_csv(d / "mapcheck.csv", 3, 4, lambda x: x * 1.001)),
    ("mapcheck", "map-equirectangular-8", "one map_dist 1e-4 long",
     lambda d: set_csv(d / "mapcheck.csv", 5, 5, lambda x: x * 1.0001)),
    ("mapcheck", "map-mercator-9", "one ratio 1e-4 high",
     lambda d: set_csv(d / "mapcheck.csv", 7, 6, lambda x: x * 1.0001)),
    ("mapcheck", "map-equirectangular-9", "one skipped pair too many",
     lambda d: set_summary(d / "summary.txt", "n_skipped", lambda v: str(int(v) + 1))),
    ("mapcheck", "map-mercator-8", "spread reported as 1",
     lambda d: set_summary(d / "summary.txt", "spread", lambda v: "1")),
    ("drive", "chariot-lat-2", "latitude statue rotation off by 1e-4 at the finest width",
     lambda d: set_summary(d / "summary.txt", "statue_rotation", shift(1e-4))),
    ("drive", "chariot-hill-1", "hill statue rotation off by 1e-4 at the finest width",
     lambda d: set_summary(d / "summary.txt", "statue_rotation", shift(1e-4))),
    ("drive", "chariot-arc", "left wheel 1e-5 long on the plane arc",
     lambda d: set_csv(d / "chariot.csv", -1, 2, lambda x: x + 1e-5)),
    ("drive", "transport-lat", "latitude transport off by 1e-6",
     lambda d: set_summary(d / "summary.txt", "total_rotation", shift(1e-6))),
    ("drive", "transport-rect", "rectangle transport 1e-6 relative off",
     lambda d: set_summary(d / "summary.txt", "total_rotation", scale(1 + 1e-6))),
    ("drive", "obstruct-plane", "plane region with holonomy 1e-9",
     lambda d: set_summary(d / "obstruction.txt", "holonomy", lambda v: "1e-09")),
    ("drive", "obstruct-cylinder", "cylinder region declared obstructed",
     lambda d: set_summary(d / "obstruction.txt", "obstructed", lambda v: "true")),
    ("drive", "obstruct-sphere", "sphere region holonomy 1e-6 relative off",
     lambda d: set_summary(d / "obstruction.txt", "holonomy", scale(1 + 1e-6))),
    ("drive", "relax-hill", "relaxation length rises 1e-6 at one step",
     lambda d: plant_relax_rise(d / "relax.csv")),
    ("drive", "relax-sphere", "relaxation ends above its tolerance",
     lambda d: set_summary(d / "summary.txt", "final_max_rotation_rate", lambda v: "2e-06")),
]


def main() -> int:
    bad = 0
    run.OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        for name, builder in workloads.BUILDERS.items():
            wl = builder(1)
            runner = run.Runner(wl, scratch / name)
            with contextlib.redirect_stdout(sys.stderr):
                runner.round()
            runner.check()
            if runner.problems:
                print(f"FAIL {name}: untouched outputs fail: {runner.problems}")
                bad += 1
            for k, (wname, scen, what, edit) in enumerate(p for p in PLANTS if p[0] == name):
                planted = scratch / f"{name}-plant{k}"
                shutil.copytree(runner.reference, planted)
                edit(planted / scen)
                probs = [p for chk in wl.checks for p in chk(planted)]
                print(f"{'ok  ' if probs else 'MISS'} {name}: {what}")
                for p in probs:
                    print(f"       {p}")
                bad += not probs
            bad += _traced_totals(wl, runner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest:", "all plants caught" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


def _traced_totals(wl, runner) -> int:
    """A traced round passes the count checks; an off-by-one count fails them."""
    import tracing

    tracer = tracing.Tracer()
    with contextlib.redirect_stdout(sys.stderr):
        runner.round(tracer)
    layer = tracer.round_metrics()
    run.check_traced_counts(wl, runner, [layer])
    if runner.problems:
        print(f"FAIL {wl.name}: traced round: {runner.problems}")
        return 1
    caught = []
    for key in (k for k in layer if not k.endswith("_s")):
        off = dict(layer, **{key: layer[key] + 1})
        if any(chk(off, runner.reference) for chk in wl.count_checks):
            caught.append(key)
            print(f"ok   {wl.name}: traced {key} off by one")
    return len(caught) != len(wl.count_checks)


if __name__ == "__main__":
    sys.exit(main())
