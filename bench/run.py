"""tvpriv benchmark: three workloads, end-to-end and per-layer metrics.

One workload, one run (the last stdout line is a JSON result):

    python3 bench/run.py --workload enumerate-ladder --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate run with spans around the library's
functions and reports the per-layer metrics instead.

All workloads, untraced and traced, written to one results document:

    python3 bench/run.py --all --seed 1 --seconds 20 --repeats 3 --out results.json

Two results documents side by side (medians, quartiles, ratio to the base):

    python3 bench/run.py --compare base.json new.json

The library is imported from this checkout's ``src`` directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pin BLAS before numpy is imported

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

MIN_ROUNDS = 2          # the byte-identity check compares two sessions at least
SETUP_REPEATS = 9       # fresh interpreters per run; setup_s is their median
REFERENCE_KERNEL_S = 0.017  # time of one speed kernel on a quiet 2-core test host
SAMPLE_EVERY_S = 0.25       # least time between two speed samples


class HostSpeed:
    """Samples the host's speed between operations with a fixed kernel that
    does not touch the library, so that times from a busy and a quiet
    moment of a shared host compare.

    On the shared 2-core VM the benchmark was written on, the same work
    took anywhere from 1x to 2x its fastest time within minutes, and the
    kernel slows down with it.  ``scale`` is REFERENCE_KERNEL_S over the
    median kernel time over the rounds; time metrics other than
    ``setup_s`` are multiplied by it and rates divided by it.  Set-up is
    left unscaled: kernel samples taken between fresh interpreters read
    up to twice their usual time and made it less steady.  ``spent`` is
    the wall time the samples took, which the benchmark subtracts from
    round and run times.
    """

    def __init__(self):
        import numpy as np
        self.matrix = np.random.default_rng(0).random((6, 6)) + 6.0 * np.eye(6)
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = -math.inf

    def _kernel(self) -> float:
        import numpy as np
        acc = 0.0
        for i in range(1000):  # interpreter work and small dense solves, as in the library
            acc += float(np.linalg.solve(self.matrix, self.matrix[:, i % 6]).sum())
            acc += sum(j * 0.5 for j in range(60))
        return acc

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        now = time.perf_counter()
        self.samples.append(now - t0)
        self.spent += now - t0
        self.last = now

    def pause(self) -> None:
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def time_setup(env: dict) -> float:
    """Wall time from spawning a fresh interpreter until ``import tvpriv``
    returns, taken when the child's first output byte arrives."""
    code = "import tvpriv, sys; sys.stdout.write('.'); sys.stdout.flush()"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=env, cwd=ROOT) as proc:
        got = proc.stdout.read(1)
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if got != b"." or proc.returncode != 0:
        raise RuntimeError("a fresh interpreter could not import tvpriv from src")
    return elapsed


def scaled(value: float, unit: str, scale: float) -> float:
    """A time at the reference host speed: times shrink, rates grow."""
    if unit == "s":
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import tracing
    import workloads

    env = workloads.child_env()
    speed = HostSpeed()
    setup = []
    if not traced:
        time_setup(env)  # unmeasured: writes bytecode caches of a fresh checkout
        setup = [time_setup(env) for _ in range(SETUP_REPEATS)]

    cls = workloads.WORKLOADS[name]
    in_process = cls is not workloads.CliDesk
    work = cls(seed) if in_process else cls(seed, traced=traced)
    tracer = restore = None
    if traced and in_process:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)

    rounds = []
    start, spent0 = time.perf_counter(), speed.spent
    while True:
        r0, s0 = time.perf_counter(), speed.spent
        ops = work.run_round(speed.pause)
        rounds.append((ops, time.perf_counter() - r0 - (speed.spent - s0)))
        if (time.perf_counter() - start - (speed.spent - spent0) >= seconds
                and len(rounds) >= MIN_ROUNDS):
            break
    measured_s = time.perf_counter() - start - (speed.spent - spent0)
    rss = peak_rss_mb(in_process)  # before the oracles import scipy
    if restore is not None:
        restore()

    attempted = failed = 0
    correct = True
    for index, op in enumerate(op for ops, _ in rounds for op in ops):
        attempted += 1
        if op.error is None:
            try:
                work.check(op, index)
            except Exception as exc:  # an oracle that cannot run is a failed check
                op.problems.append(f"{op.kind}: check raised {type(exc).__name__}: {exc}")
        if op.error or op.problems:
            failed += 1
            for line in ([op.error] if op.error else []) + op.problems:
                print(f"FAILED {name} op {index} ({op.kind}): {line}", file=sys.stderr)
        if op.problems:
            correct = False
    if not in_process:
        shutil.rmtree(workloads.WORK, ignore_errors=True)

    scale = speed.scale()
    spec = load_spec()
    if traced:
        if in_process:
            prof = tracer.profile()
            cli_import_s = 0.0
        else:
            prof = tracing.Profile()
            for doc in work.profiles:
                prof.add(tracing.Profile.from_json(doc))
            cli_import_s = statistics.median(work.import_s)
        round_s = statistics.median(s for _, s in rounds)
        cli_bytes = work.output_bytes / len(rounds) if not in_process else 0.0
        values = tracing.layer_metrics(prof, len(rounds), round_s, cli_import_s, cli_bytes)
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": scaled(values[m["name"]][0], m["unit"], scale),
                               "unit": m["unit"]}
                   for m in wanted}
    else:
        values = work.end_to_end(rounds, measured_s)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = rss
        metrics = {m["name"]: {"value": (values[m["name"]] if m["name"] == "setup_s"
                                         else scaled(values[m["name"]], m["unit"], scale)),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(f"{name}: seed {seed}, {len(rounds)} rounds in {measured_s:.2f} s, "
          f"{attempted} operations, {failed} failed, "
          f"{'traced' if traced else 'untraced'}; host speed scale {scale:.4f} "
          f"from {len(speed.samples)} kernel samples")
    for key, m in metrics.items():
        raw = values[key][0] if traced else values[key]
        print(f"  {key} = {m['value']:.6g} {m['unit']} (unscaled {raw:.6g})")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# all workloads, results document, comparison
# ---------------------------------------------------------------------------

def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(seed: int, seconds: float, repeats: int, out: str) -> int:
    spec = load_spec()
    doc = {"revision": git_revision(), "machine": machine_facts(),
           "settings": {"seed": seed, "seconds": seconds, "repeats": repeats},
           "workloads": {}}
    status = 0
    for w in spec["workloads"]:
        runs = {"untraced": [], "traced": []}
        for i in range(repeats):
            for mode, trace in (("untraced", 0), ("traced", 1)):
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                       w["name"], "--seed", str(seed + i), "--seconds", str(seconds),
                       "--trace", str(trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
                sys.stderr.write(proc.stderr)
                if proc.returncode != 0:
                    print(f"{w['name']} {mode} run exited {proc.returncode}")
                    return proc.returncode
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    status = 1
                runs[mode].append(result)
        doc["workloads"][w["name"]] = runs
    Path(out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    print(f"revision {doc['revision']}, {repeats} run(s) per workload and mode, "
          f"{seconds:g} s each; medians over runs")
    for name, runs in doc["workloads"].items():
        ops = sum(r["attempted"] for r in runs["untraced"])
        bad = sum(r["failed"] for r in runs["untraced"])
        print(f"\n{name}: {ops} operations untraced, {bad} failed")
        for mode in ("untraced", "traced"):
            for key in runs[mode][0]["metrics"]:
                vals = [r["metrics"][key]["value"] for r in runs[mode]]
                print(f"  {key} = {statistics.median(vals):.6g} "
                      f"{runs[mode][0]['metrics'][key]['unit']}")
        plain = statistics.median(r["metrics"]["session_s"]["value"] for r in runs["untraced"])
        traced = statistics.median(r["metrics"]["trace.round_s"]["value"] for r in runs["traced"])
        print(f"  tracing overhead = {traced / plain - 1.0:+.1%} "
              f"(traced round {traced:.4g} s vs untraced session_s {plain:.4g} s)")
    print(f"\nwrote {out}")
    return status


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    print(f"A = {path_a} (revision {a['revision']})")
    print(f"B = {path_b} (revision {b['revision']})")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        print(f"\n{name}")
        for mode in ("untraced", "traced"):
            ra, rb = a["workloads"][name][mode], b["workloads"][name][mode]
            for key, meta in ra[0]["metrics"].items():
                if key not in rb[0]["metrics"]:
                    continue
                qa = quartiles([r["metrics"][key]["value"] for r in ra])
                qb = quartiles([r["metrics"][key]["value"] for r in rb])
                ratio = f"{qb[1] / qa[1]:.3f}" if qa[1] else "n/a"
                print(f"  {key} [{meta['unit']}]: A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                      f"  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  B/A {ratio} (base A)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", default="bench-results.json")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "tvpriv" / "__init__.py").is_file():
        print(f"error: no tvpriv package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds, args.repeats, args.out)
    if args.workload is None:
        parser.error("give --workload, --all or --compare")
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
