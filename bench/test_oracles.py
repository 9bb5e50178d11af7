"""Each oracle accepts the library's answer and rejects a wrong one.

Run with ``python3 -m pytest bench/test_oracles.py -q`` from the
repository root.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from tvpriv import cli, regions, tradeoff  # noqa: E402

KINDS = list(workloads.UTILITY_FLAGS.items())


def source(seed=0, nx=4, ny=3):
    return workloads.random_source(np.random.default_rng(seed), nx, ny)


def solve(raw, flag, eps):
    return tradeoff.solve_tradeoff(workloads._joint_source(raw),
                                   workloads.UTILITY_FLAGS[flag], eps)


def mech_problems(raw, flag, eps, sol, matrix=None, value=None, labels=None):
    m = sol.mechanism
    return oracles.check_mechanism(
        flag, raw["P"], raw["p_y"], eps,
        m.channel_u_given_y.matrix if matrix is None else matrix,
        m.u_labels if labels is None else labels,
        raw["y_values"], sol.utility_value if value is None else value, sol.achieved_t)


@pytest.mark.parametrize("flag,kind", KINDS)
def test_mechanism_oracle_accepts_solution_and_rejects_leaky_one(flag, kind):
    raw = source()
    eps = 0.4 * oracles.t_xy(raw["P"], raw["p_y"])
    sol = solve(raw, flag, eps)
    assert mech_problems(raw, flag, eps, sol) == []
    # mix in releasing Y itself: the mechanism now leaks past the budget
    m = sol.mechanism.channel_u_given_y.matrix
    n_y = m.shape[1]
    leaky = np.vstack([0.9 * m, 0.1 * np.eye(n_y)])
    labels = None
    if sol.mechanism.u_labels is not None:
        extra = raw["y_values"] if flag == "mmse" else np.arange(n_y)
        labels = np.concatenate([sol.mechanism.u_labels, extra])
    assert any("exceeds budget" in p
               for p in mech_problems(raw, flag, eps, sol, leaky, labels=labels))


def test_mechanism_oracle_rejects_wrong_value_and_too_many_symbols():
    raw = source(1)
    eps = 0.5 * oracles.t_xy(raw["P"], raw["p_y"])
    sol = solve(raw, "mi", eps)
    assert any("recomputed utility" in p for p in
               mech_problems(raw, "mi", eps, sol, value=sol.utility_value + 1e-6))
    split = sol.mechanism.channel_u_given_y.matrix
    while split.shape[0] <= raw["p_y"].size + 1:
        split = np.vstack([split[:-1], 0.5 * split[-1:], 0.5 * split[-1:]])
    assert any("exceeds |Y|+1" in p for p in mech_problems(raw, "mi", eps, sol, split))


@pytest.mark.parametrize("flag,kind", KINDS)
def test_lp_oracle_matches_optimum_and_rejects_nudges(flag, kind):
    raw = source(2, 5, 4)
    eps = 0.3 * oracles.t_xy(raw["P"], raw["p_y"])
    sol = solve(raw, flag, eps)
    cols = oracles.oracle_columns(raw["P"], raw["p_y"], np.random.default_rng(0))
    best = oracles.lp_optimum(flag, raw["P"], raw["p_y"], eps, cols, raw["y_values"])
    assert oracles.check_optimum(flag, sol.utility_value, best) == []
    for nudge in (1e-4, -1e-4):
        assert oracles.check_optimum(flag, sol.utility_value + nudge, best)


def test_sampled_posteriors_alone_never_beat_the_optimum():
    raw = source(3, 4, 4)
    eps = 0.5 * oracles.t_xy(raw["P"], raw["p_y"])
    n = raw["p_y"].size
    sample = np.hstack([np.random.default_rng(1).dirichlet(np.ones(n), 300).T,
                        raw["p_y"][:, None], np.eye(n)])
    for flag, _ in KINDS:
        sol = solve(raw, flag, eps)
        got = oracles.lp_optimum(flag, raw["P"], raw["p_y"], eps, sample, raw["y_values"])
        better = got - sol.utility_value if flag == "mi" else sol.utility_value - got
        assert better <= oracles.LP_TOL


def test_support_oracle_matches_library_and_rejects_a_missing_vertex():
    raw = source(4, 5, 4)
    pts = regions.enumerate_spoints(workloads._joint_source(raw)).as_matrix()
    assert oracles.check_support(pts, raw["P"], raw["p_y"]) == []
    assert oracles.check_support(pts[:, 1:], raw["P"], raw["p_y"])
    moved = pts.copy()
    moved[:, 0] = 0.5 * (pts[:, 0] + pts[:, 1])
    assert oracles.check_support(moved, raw["P"], raw["p_y"])


def curve(raw, flag, grid=41):
    pts = tradeoff.sweep_curve(workloads._joint_source(raw),
                               workloads.UTILITY_FLAGS[flag], grid)
    return np.array([(p.epsilon, p.utility_value, p.achieved_t) for p in pts]).T


@pytest.mark.parametrize("ny", [2, 3])
@pytest.mark.parametrize("flag,kind", KINDS)
def test_curve_oracles_accept_sweep_and_reject_a_nudged_value(flag, kind, ny):
    raw = source(5, 4, ny)
    eps, values, achieved = curve(raw, flag)
    args = (flag, raw["P"], raw["p_y"])
    cols = oracles.oracle_columns(raw["P"], raw["p_y"], np.random.default_rng(0))
    assert oracles.check_curve(*args, eps, values, achieved, raw["y_values"]) == []
    for j in (1, len(values) // 2, len(values) - 2):
        best = oracles.lp_optimum(*args, eps[j], cols, raw["y_values"])
        assert oracles.check_optimum(flag, values[j], best) == []
        for nudge in (1e-4, -1e-4):
            bad = values.copy()
            bad[j] += nudge
            # the shape and closed-form checks catch a nudge on a linear piece;
            # the exact LP catches it at a checked point, kinks included
            assert oracles.check_optimum(flag, bad[j], best), (j, nudge)
            if ny == 2:
                assert oracles.check_curve(*args, eps, bad, achieved, raw["y_values"])


def test_curve_oracle_rejects_wrong_endpoint_and_overspent_budget():
    raw = source(6, 3, 3)
    eps, values, achieved = curve(raw, "mmse")
    args = ("mmse", raw["P"], raw["p_y"])
    shifted = values.copy()
    shifted[-1] += 1e-4
    assert any("value at T(X;Y)" in p for p in
               oracles.check_curve(*args, eps, shifted, achieved, raw["y_values"]))
    over = achieved.copy()
    over[3] = eps[3] + 1e-6
    assert any("over budget" in p for p in
               oracles.check_curve(*args, eps, values, over, raw["y_values"]))


def test_binary_closed_forms_match_the_library():
    raw = source(7, 4, 2)
    cap = oracles.t_xy(raw["P"], raw["p_y"])
    for eps in np.linspace(0, 1.2 * cap, 9):
        for flag, _ in KINDS:
            want = oracles.binary_closed_form(flag, raw["P"], raw["p_y"], eps, raw["y_values"])
            assert abs(solve(raw, flag, eps).utility_value - want) <= 1e-9


# ---------------------------------------------------------------------------
# cli-desk checks, on outputs of the CLI run in-process

def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(args) == 0
    return buf.getvalue().encode()


def desk_op(desk, kind, stdout, **data):
    op = workloads.Op(kind, **data)
    op.data["stdout"] = stdout
    return op


@pytest.fixture
def desk():
    return workloads.CliDesk(seed=0)


@pytest.fixture
def binary_solve(desk, tmp_path):
    name = "binary_y_source.json"
    raw = desk.fixtures[name]
    eps = float(f"{0.5 * oracles.t_xy(raw['P'], raw['p_y']):.12g}")
    path = str(workloads.FIXTURES / name)
    out = run_cli(["solve", path, "--utility", "mi", "--epsilon", repr(eps)])
    mech = tmp_path / "solve.json"
    mech.write_bytes(out)
    return desk_op(desk, f"solve:{name}", out, source=raw, utility="mi", eps=eps), path, mech


def test_desk_accepts_solve_and_rejects_a_changed_byte(desk, binary_solve):
    op, _, _ = binary_solve
    desk.check(op, 0)
    assert op.problems == []
    out = op.data["stdout"]
    # change one digit of the reported utility
    pos = out.index(b'"utility": ') + len(b'"utility": ') + 4
    changed = out[:pos] + (b"1" if out[pos:pos + 1] != b"1" else b"2") + out[pos + 1:]
    bad = desk_op(desk, op.kind, changed, **{k: v for k, v in op.data.items()
                                             if k != "stdout"})
    desk.check(bad, 1)
    assert any("differs from the first session" in p for p in bad.problems)
    assert any("recomputed utility" in p or "oracle" in p for p in bad.problems)


def test_desk_measure_and_threat_follow_solve(desk, binary_solve):
    solve_op, path, mech = binary_solve
    name = "binary_y_source.json"
    measure = run_cli(["measure", path, "--mechanism", str(mech)])
    op = desk_op(desk, f"measure:{name}", measure, solve=solve_op)
    desk.check(op, 0)
    assert op.problems == []
    doc = json.loads(measure)
    doc["t_leakage"] += 1e-6
    bad = desk_op(desk, "measure:other", json.dumps(doc).encode(), solve=solve_op)
    desk.check(bad, 1)
    assert any("t_leakage" in p for p in bad.problems)

    threat = run_cli(["threat", path, "--mechanism", str(mech), "--cost", "brier"])
    raw = desk.fixtures[name]
    op = desk_op(desk, f"threat:{name}", threat, source=raw, solve=solve_op)
    desk.check(op, 0)
    assert op.problems == []
    doc = json.loads(threat)
    doc["delta_c"] -= 1e-6
    bad = desk_op(desk, "threat:other", json.dumps(doc).encode(), source=raw, solve=solve_op)
    desk.check(bad, 1)
    assert any("delta_c" in p for p in bad.problems)


def test_desk_regions_and_verify(desk):
    name = "uniform3_source.json"
    raw = desk.fixtures[name]
    out = run_cli(["regions", str(workloads.FIXTURES / name)])
    op = desk_op(desk, f"regions:{name}", out, source=raw)
    desk.check(op, 0)
    assert op.problems == []
    doc = json.loads(out)
    doc["spoints"] = doc["spoints"][1:]
    bad = desk_op(desk, "regions:other", json.dumps(doc).encode(), source=raw)
    desk.check(bad, 1)
    assert bad.problems

    text = "\n".join(f"suite {s}: PASS" for s in desk.SUITES) + "\n"
    op = desk_op(desk, "verify", text.encode())
    desk.check(op, 0)
    assert op.problems == []
    bad = desk_op(desk, "verify", text.replace("lp: PASS", "lp: FAIL").encode())
    desk.check(bad, 1)
    assert len(bad.problems) >= 2  # no PASS line, a FAIL line, changed bytes
