"""Support sets pinned to the bit.

``tests/data/spoints_bits.json`` holds seeded sources from (3,3) to (6,6),
plus one with a proportional row pair and a constant row, and for each the
``float.hex`` of ``enumerate_spoints``' ``as_matrix()`` and ``f_values``
and its ``dropped_rows``.  The LP's columns, and Bland's tie-breaks, follow
these bits, so a change to enumeration or dedup must leave them exactly.

The bits are those of one numpy and LAPACK build.  If an upgrade of either
moves them, regenerate the outputs from the stored sources with

    PYTHONPATH=src python tests/test_spoints_bits.py

and record the regeneration and its reason with the change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tvpriv import Channel, JointSource, Pmf, enumerate_spoints

BITS = Path(__file__).resolve().parent / "data" / "spoints_bits.json"


def to_hex(a) -> list:
    return [float(v).hex() for v in np.ravel(a)]


def from_hex(values, shape) -> np.ndarray:
    return np.array([float.fromhex(v) for v in values]).reshape(shape)


def load_source(case: dict) -> JointSource:
    p_y = from_hex(case["p_y"], (-1,))
    matrix = from_hex(case["P_x_given_y"], (-1, len(p_y)))
    return JointSource(Pmf(p_y), Channel(matrix))


def outputs(src: JointSource) -> dict:
    sp = enumerate_spoints(src)
    mat = sp.as_matrix()
    return {"shape": list(mat.shape), "as_matrix": to_hex(mat),
            "f_values": to_hex(sp.f_values),
            "dropped_rows": list(sp.dropped_rows)}


CASES = json.loads(BITS.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_support_set_bits(case):
    got = outputs(load_source(case))
    assert got["shape"] == case["shape"]
    assert got["as_matrix"] == case["as_matrix"]
    assert got["f_values"] == case["f_values"]
    assert got["dropped_rows"] == case["dropped_rows"]


def test_cases_cover_the_ladder_and_a_degenerate_source():
    sizes = {tuple(c["P_x_given_y_shape"]) for c in CASES}
    assert {(nx, ny) for nx in range(3, 7) for ny in range(3, 7)} <= sizes
    assert any(c["dropped_rows"] for c in CASES)


if __name__ == "__main__":
    doc = json.loads(BITS.read_text(encoding="utf-8"))
    for case in doc["cases"]:
        case.update(outputs(load_source(case)))
    BITS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
