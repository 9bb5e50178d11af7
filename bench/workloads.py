"""The three benchmark workloads.

Each workload draws its inputs from ``--seed`` alone and runs in whole
rounds; a round is a fixed list of operations.  ``run_round`` times the
operations and keeps their outputs, calling ``pause()`` after each one
(the benchmark samples the host's speed there, outside every timing);
``check`` compares the outputs with the oracles after timing has ended,
and ``end_to_end`` turns the timings into the end-to-end metrics.

The in-process workloads call the library through module attributes
(``regions.enumerate_spoints``, ``tradeoff.solve_tradeoff``, ...) so that
a traced run sees the same calls through the tracing wrappers.
"""

from __future__ import annotations

import csv
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = SRC / "tvpriv" / "data"
WORK = ROOT / ".bench_work"

FLOOR = 0.1
UTILITY_FLAGS = {"mi": "mutual_information", "mmse": "mmse",
                 "perr": "error_probability"}


def child_env() -> dict:
    """Environment of every process the benchmark starts: the library
    from this checkout's ``src`` and single-threaded BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def random_source(rng: np.random.Generator, nx: int, ny: int) -> dict:
    """p_Y and the columns of P_{X|Y} drawn Dirichlet(1) and mixed 9:1 with
    the uniform pmf, so no probability is below 0.1/n; y values sorted
    standard normal.

    The floor leaves out sources with a near-zero p_Y entry, on which the
    built-in simplex returns infeasible weights (a (4, 3) source with
    p_Y(0) = 8e-4 breaks the eps = 0 point of its perr and mmse curves).
    """
    def floored(draw, n):
        return (1.0 - FLOOR) * draw + FLOOR / n

    return {"p_y": floored(rng.dirichlet(np.ones(ny)), ny),
            "P": floored(rng.dirichlet(np.ones(nx), size=ny), nx).T,
            "y_values": np.sort(rng.normal(size=ny))}


def load_fixture(name: str) -> dict:
    raw = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    return {"p_y": np.asarray(raw["p_y"], float),
            "P": np.asarray(raw["P_x_given_y"], float),
            "y_values": np.asarray(raw["y_values"], float)}


def median(xs) -> float:
    return float(statistics.median(xs))


def median_of_round_means(rounds, values) -> float:
    """Median over rounds of the mean of ``values(op)`` over the round's ops
    (``values`` returns a list per op).  Used where a round mixes sources
    of different cost, so that the median does not sit between them."""
    means = []
    for ops, _ in rounds:
        xs = [x for op in ops for x in values(op)]
        means.append(sum(xs) / len(xs))
    return median(means)


class Op:
    """One timed operation: its wall time, outputs, and check result."""

    def __init__(self, kind: str, **data):
        self.kind = kind
        self.seconds = 0.0
        self.error: str | None = None
        self.problems: list[str] = []
        self.data = data


def _joint_source(raw: dict):
    from tvpriv.probability import Channel, JointSource, Pmf
    return JointSource(Pmf(raw["p_y"]), Channel(raw["P"]), raw["y_values"])


# ---------------------------------------------------------------------------

class EnumerateLadder:
    """Random sources on a size ladder, each solved from scratch up to its
    support set (forms, regions, extreme points, dedup); each round ends
    with full solves of the bundled fixtures (support set, then one LP per
    utility and budget share of T(X;Y)).

    The LP step is left out on the random ladder sources: on some seeds the
    built-in simplex returns weights that break the marginal and budget
    rows there (one such source: the 18th draw of ``random_source``
    without its floor from ``default_rng([12, 1])``, taking rungs (4, 4),
    (5, 4), (5, 5), (6, 5), (6, 6) in turn), so the share of failed
    operations would depend on the seed.
    """

    name = "enumerate-ladder"
    # (|X|, |Y|, sources per round); the median source falls in the (5, 5) rung
    RUNGS = ((4, 4, 2), (5, 4, 2), (5, 5, 2), (6, 5, 2), (6, 6, 1))
    FIXTURES = ("binary_y_source.json", "uniform3_source.json")
    # fixture budgets; 15 points per fixture keep the per-round mean of
    # these millisecond points steady
    BUDGET_SHARES = (0.1, 0.3, 0.5, 0.7, 0.9)

    def __init__(self, seed: int):
        from tvpriv import regions, tradeoff
        self.regions, self.tradeoff = regions, tradeoff
        self.seed = seed
        self.rng = np.random.default_rng([seed, 1])
        self.fixtures = [load_fixture(name) for name in self.FIXTURES]

    def run_round(self, pause) -> list[Op]:
        ops = []
        for nx, ny, count in self.RUNGS:
            for _ in range(count):
                raw = random_source(self.rng, nx, ny)
                src = _joint_source(raw)
                op = Op("support", source=raw)
                try:
                    t0 = time.perf_counter()
                    spoints = self.regions.enumerate_spoints(src)
                    op.seconds = time.perf_counter() - t0
                    op.data["spoints"] = spoints.as_matrix()
                except Exception as exc:  # a library failure is a failed operation
                    op.error = f"{type(exc).__name__}: {exc}"
                ops.append(op)
                pause()
        for raw in self.fixtures:
            ops.append(self._solve(raw))
            pause()
        return ops

    def _solve(self, raw: dict) -> Op:
        src = _joint_source(raw)
        cap = oracles.t_xy(raw["P"], raw["p_y"])
        op = Op("solve", source=raw, points=[])  # (utility, budget, solution, seconds)
        try:
            t0 = time.perf_counter()
            spoints = self.regions.enumerate_spoints(src)
            op.data["enum_s"] = time.perf_counter() - t0
            for share in self.BUDGET_SHARES:
                for flag, kind in UTILITY_FLAGS.items():
                    t1 = time.perf_counter()
                    sol = self.tradeoff.solve_tradeoff(src, kind, share * cap,
                                                       spoints=spoints)
                    op.data["points"].append((flag, share * cap, sol,
                                              time.perf_counter() - t1))
            op.seconds = time.perf_counter() - t0
            op.data["spoints"] = spoints.as_matrix()
        except Exception as exc:  # a library failure is a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
        return op

    def check(self, op: Op, index: int) -> None:
        raw = op.data["source"]
        P, p_y, yv = raw["P"], raw["p_y"], raw["y_values"]
        op.problems += oracles.check_support(op.data["spoints"], P, p_y)
        if op.kind != "solve":
            return
        cols = oracles.oracle_columns(P, p_y, np.random.default_rng([self.seed, 2, index]))
        for flag, eps, sol, _ in op.data["points"]:
            if sol.epsilon != eps:
                op.problems.append(f"{flag}: budget {sol.epsilon!r} != requested {eps!r}")
            mech = sol.mechanism
            op.problems += oracles.check_mechanism(
                flag, P, p_y, eps, mech.channel_u_given_y.matrix, mech.u_labels, yv,
                sol.utility_value, sol.achieved_t)
            best = oracles.lp_optimum(flag, P, p_y, eps, cols, yv)
            op.problems += oracles.check_optimum(flag, sol.utility_value, best)

    @staticmethod
    def end_to_end(rounds, measured_s: float) -> dict:
        ops = [op for ops, _ in rounds for op in ops]
        support = [op for op in ops if op.kind == "support"]
        points = sum(len(op.data["points"]) for op in ops if op.kind == "solve")
        # one fixture budget point: its support set plus its LP
        point_s = median_of_round_means(rounds, lambda op: [
            op.data["enum_s"] + p[3] for p in op.data["points"]]
            if op.kind == "solve" else [])
        return {
            "sources_per_s": len(support) / measured_s,
            "solve_median_s": median(op.seconds for op in support),
            "curve_points_per_s": points / measured_s,
            "curve_median_s": point_s,
            "cli_median_s": point_s,
            "session_s": median(s for _, s in rounds),
        }


class CurveDense:
    """Dense budget grids by ``sweep_curve`` for all three utilities on
    small sources, where the support set is tiny and the LPs dominate.

    Random sources are binary; |Y| = 3 comes from the uniform3 fixture
    alone.  On some random |Y| = 3 sources the built-in simplex returns an
    eps = 0 point over its budget (one such source: the 31st draw of
    ``random_source`` from ``default_rng([107, 3])``, taking shapes (3, 2),
    (4, 2), (3, 3), (4, 3) in turn), so the share of failed operations
    would depend on the seed.
    """

    name = "curve-dense"
    GRID = 201
    FIXTURES = ("binary_y_source.json", "uniform3_source.json")
    RANDOM_SHAPES = ((2, 2), (3, 2), (4, 2))
    CHECKED_POINTS = 3  # seeded grid points per curve checked by the oracle LP

    def __init__(self, seed: int):
        from tvpriv import tradeoff
        self.tradeoff = tradeoff
        self.seed = seed
        self.rng = np.random.default_rng([seed, 3])
        self.fixtures = [load_fixture(name) for name in self.FIXTURES]

    def run_round(self, pause) -> list[Op]:
        raws = self.fixtures + [random_source(self.rng, nx, ny)
                                for nx, ny in self.RANDOM_SHAPES]
        ops = []
        for s_idx, raw in enumerate(raws):
            src = _joint_source(raw)
            for flag, kind in UTILITY_FLAGS.items():
                op = Op("curve", source=raw, source_index=s_idx, utility=flag)
                try:
                    t0 = time.perf_counter()
                    points = self.tradeoff.sweep_curve(src, kind, self.GRID)
                    op.seconds = time.perf_counter() - t0
                    op.data["curve"] = np.array([(p.epsilon, p.utility_value, p.achieved_t)
                                                 for p in points])
                except Exception as exc:  # a library failure is a failed operation
                    op.error = f"{type(exc).__name__}: {exc}"
                ops.append(op)
                pause()
        return ops

    def check(self, op: Op, index: int) -> None:
        raw, flag, curve = op.data["source"], op.data["utility"], op.data["curve"]
        P, p_y, yv = raw["P"], raw["p_y"], raw["y_values"]
        eps, values, achieved = curve.T
        op.problems += oracles.check_curve(flag, P, p_y, eps, values, achieved, yv)
        rng = np.random.default_rng([self.seed, 4, index])
        cols = oracles.oracle_columns(P, p_y, rng)
        for j in rng.choice(len(eps), size=self.CHECKED_POINTS, replace=False):
            best = oracles.lp_optimum(flag, P, p_y, eps[j], cols, yv)
            op.problems += oracles.check_optimum(flag, values[j], best)

    @classmethod
    def end_to_end(cls, rounds, measured_s: float) -> dict:
        ops = [op for ops, _ in rounds for op in ops]
        per_source: dict = {}
        for r, (round_ops, _) in enumerate(rounds):
            for op in round_ops:
                key = (r, op.data["source_index"])
                per_source[key] = per_source.get(key, 0.0) + op.seconds
        curve_s = [op.seconds for op in ops]
        return {
            "sources_per_s": len(per_source) / measured_s,
            "solve_median_s": median(per_source.values()),
            "curve_points_per_s": cls.GRID * len(ops) / measured_s,
            "curve_median_s": median(curve_s),
            "cli_median_s": median(curve_s),
            "session_s": median(s for _, s in rounds),
        }


class CliDesk:
    """A desk session of fresh ``tvpriv`` processes on the bundled fixtures:
    solve -> measure -> threat, curve and regions per fixture, then verify.
    The seed sets the solve budget as a share of T(X;Y)."""

    name = "cli-desk"
    GRID = 101
    # fixture, utility for solve, utility for curve
    PLAN = (("binary_y_source.json", "mi", "perr"),
            ("uniform3_source.json", "mmse", "mi"))
    SUITES = ("bounds", "markov", "threats", "lp")
    ENTRY = "import sys; from tvpriv.cli import main; sys.exit(main())"

    def __init__(self, seed: int, traced: bool = False):
        rng = np.random.default_rng([seed, 5])
        self.budget_share = float(rng.uniform(0.3, 0.7))
        self.traced = traced
        self.fixtures = {name: load_fixture(name) for name, _, _ in self.PLAN}
        self.first_stdout: dict[str, bytes] = {}
        self.env = child_env()
        self.profiles: list[dict] = []
        self.import_s: list[float] = []
        self.output_bytes = 0
        self.pause = lambda: None

    def _run(self, label: str, args: list[str], **data) -> Op:
        """Run one CLI process, then ``self.pause()``."""
        if self.traced:
            trace_file = WORK / f"trace-{os.getpid()}.json"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), *args]
            env = dict(self.env, BENCH_TRACE_OUT=str(trace_file))
        else:
            cmd = [sys.executable, "-c", self.ENTRY, *args]
            env = self.env
        op = Op(label, **data)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env, cwd=ROOT, check=False)
        op.seconds = time.perf_counter() - t0
        op.data.update(returncode=proc.returncode, stdout=proc.stdout,
                       stderr=proc.stderr.decode(errors="replace"))
        self.output_bytes += len(proc.stdout)
        if proc.returncode != 0:
            op.error = f"exit code {proc.returncode}: {op.data['stderr'].strip()[-300:]}"
        if self.traced:
            doc = json.loads(trace_file.read_text(encoding="utf-8"))
            trace_file.unlink()
            self.profiles.append(doc["profile"])
            self.import_s.append(doc["import_s"])
        self.pause()
        return op

    def run_round(self, pause) -> list[Op]:
        self.pause = pause
        WORK.mkdir(exist_ok=True)
        ops = []
        for name, solve_u, curve_u in self.PLAN:
            raw = self.fixtures[name]
            path = str(FIXTURES / name)
            eps = float(f"{self.budget_share * oracles.t_xy(raw['P'], raw['p_y']):.12g}")
            solve = self._run(f"solve:{name}", ["solve", path, "--utility", solve_u,
                                                "--epsilon", repr(eps)],
                              source=raw, utility=solve_u, eps=eps)
            ops.append(solve)
            mech_file = WORK / f"solve-{os.getpid()}-{name}"
            mech_file.write_bytes(solve.data["stdout"])
            ops.append(self._run(f"measure:{name}", ["measure", path, "--mechanism",
                                                     str(mech_file)], solve=solve))
            ops.append(self._run(f"threat:{name}", ["threat", path, "--mechanism",
                                                    str(mech_file), "--cost", "brier"],
                                 source=raw, solve=solve))
            mech_file.unlink()
            ops.append(self._run(f"curve:{name}", ["curve", path, "--utility", curve_u,
                                                   "--grid", str(self.GRID)],
                                 source=raw, utility=curve_u))
            ops.append(self._run(f"regions:{name}", ["regions", path], source=raw))
        # verify keeps its default seed, as a desk user runs it
        ops.append(self._run("verify", ["verify", "--suite", "all"]))
        return ops

    def check(self, op: Op, index: int) -> None:
        out = op.data["stdout"]
        first = self.first_stdout.setdefault(op.kind, out)
        if out != first:
            op.problems.append(f"{op.kind}: stdout differs from the first session's")
        verb = op.kind.split(":")[0]
        getattr(self, f"_check_{verb}")(op, out.decode())

    def _check_solve(self, op: Op, text: str) -> None:
        doc = json.loads(text)
        raw, flag, eps = op.data["source"], op.data["utility"], op.data["eps"]
        P, p_y, yv = raw["P"], raw["p_y"], raw["y_values"]
        if doc["epsilon_clamped"] != eps:
            op.problems.append(f"solve: budget {doc['epsilon_clamped']!r} != {eps!r}")
        mech = doc["mechanism"]
        op.problems += oracles.check_mechanism(
            flag, P, p_y, eps, np.asarray(mech["p_u_given_y"], float), mech["u_labels"],
            yv, doc["utility"], doc["achieved_t"])
        cols = oracles.oracle_columns(P, p_y, np.random.default_rng([6]))
        op.problems += oracles.check_optimum(
            flag, doc["utility"], oracles.lp_optimum(flag, P, p_y, eps, cols, yv))

    def _check_measure(self, op: Op, text: str) -> None:
        t = json.loads(text)["t_leakage"]
        achieved = json.loads(op.data["solve"].data["stdout"])["achieved_t"]
        if abs(t - achieved) > 1e-9:
            op.problems.append(f"measure: t_leakage {t!r} != solve achieved_t {achieved!r}")

    def _check_threat(self, op: Op, text: str) -> None:
        doc = json.loads(text)
        raw = op.data["source"]
        P, p_y = raw["P"], raw["p_y"]
        mech = np.asarray(json.loads(op.data["solve"].data["stdout"])
                          ["mechanism"]["p_u_given_y"], float)
        joint = mech * p_y
        p_u = joint.sum(axis=1)
        post_x = (joint[p_u > 0] / p_u[p_u > 0, None]) @ P.T
        p_x = P @ p_y
        # the Brier score is minimised by the belief itself: 1 - sum q^2
        c0 = 1.0 - float(p_x @ p_x)
        cu = float(p_u[p_u > 0] @ (1.0 - (post_x ** 2).sum(axis=1)))
        t = 0.5 * float(p_u[p_u > 0] @ np.abs(post_x - p_x).sum(axis=1))
        want = {"c0_star": c0, "expected_cu_star": cu, "delta_c": c0 - cu,
                "bound_4lt": 8.0 * t}
        for key, value in want.items():
            if abs(doc[key] - value) > 1e-9:
                op.problems.append(f"threat: {key} {doc[key]!r} != {value!r}")

    def _check_curve(self, op: Op, text: str) -> None:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["epsilon", "utility", "achieved_t"]:
            op.problems.append(f"curve: header {rows[0]!r}")
            return
        data = np.array(rows[1:], dtype=float)
        if len(data) != self.GRID:
            op.problems.append(f"curve: {len(data)} rows, expected {self.GRID}")
        raw = op.data["source"]
        op.problems += oracles.check_curve(op.data["utility"], raw["P"], raw["p_y"],
                                           *data.T, raw["y_values"])

    def _check_regions(self, op: Op, text: str) -> None:
        doc = json.loads(text)
        raw = op.data["source"]
        P, p_y = raw["P"], raw["p_y"]
        pts = np.array([s["point"] for s in doc["spoints"]], float).T
        f = np.array([s["f_value"] for s in doc["spoints"]], float)
        gap = np.max(np.abs(f - oracles.privacy_cost(P, p_y, pts)))
        if gap > 1e-9:
            op.problems.append(f"regions: f_value differs from 1/2|P(s-p_Y)|_1 by {gap:.3e}")
        op.problems += oracles.check_support(pts, P, p_y)
        for region in doc["regions"]:
            a, b = np.asarray(region["A_tilde"], float), np.asarray(region["b_tilde"], float)
            for x in region["extreme_points"]:
                x = np.asarray(x, float)
                if x.min() < -1e-9 or abs(x.sum() - 1) > 1e-9 or np.any(a @ x > b + 1e-9):
                    op.problems.append(f"regions: extreme point {x.tolist()} "
                                       f"outside region {region['sign_pattern']}")

    def _check_verify(self, op: Op, text: str) -> None:
        lines = text.splitlines()
        for suite in self.SUITES:
            if f"suite {suite}: PASS" not in lines:
                op.problems.append(f"verify: no PASS line for suite {suite}")
        if any("FAIL" in line for line in lines):
            op.problems.append("verify: a check printed FAIL")

    def end_to_end(self, rounds, measured_s: float) -> dict:
        ops = [op for ops, _ in rounds for op in ops]
        solves = [op for op in ops if op.kind.startswith("solve:")]
        curves = [op for op in ops if op.kind.startswith("curve:")]

        def of_kind(verb):
            return lambda op: [op.seconds] if op.kind.startswith(verb) else []

        return {
            "sources_per_s": len(solves) / measured_s,
            "solve_median_s": median_of_round_means(rounds, of_kind("solve:")),
            "curve_points_per_s": (len(solves) + self.GRID * len(curves)) / measured_s,
            "curve_median_s": median_of_round_means(rounds, of_kind("curve:")),
            "cli_median_s": median(op.seconds for op in ops),
            "session_s": median(s for _, s in rounds),
        }


WORKLOADS = {w.name: w for w in (EnumerateLadder, CurveDense, CliDesk)}
