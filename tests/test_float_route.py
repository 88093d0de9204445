"""The float route's Jacobi data, bit for bit.

A spec with a float q or a float parameter computes in floats: its
recurrence (a_n, c_n), the record's h_n = a_n + c_n and
J_n**2 = a_n c_{n+1}, its spectrum eps_k and the float series P_1(N)
that checks its table.  Each value here is pinned by ``float.hex`` in
``tests/float_route.json``, for one float spec per family and one spec
with a rational q and float parameters, so any change to the order of
the float operations shows as a failing value.

A deliberate change of these values is re-blessed with

    PYTHONPATH=src python tests/test_float_route.py

which rewrites the JSON file; commit that on its own.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from conftest import draw_valid_spec
from qchain import families
from qchain.families import Family
from qchain.qseries import RationalQ

PINNED = Path(__file__).with_name("float_route.json")


def _float_twin(spec):
    """The spec with q and every parameter rounded to floats."""
    return families.make_spec(spec.family, spec.N, float(spec.qx),
                              **{name: float(value) for name, value in spec.params})


def float_specs():
    """One float spec per family (N = 5, seeded draws of each family's
    window rounded to floats) and one q-Hahn spec with an exact q and
    float parameters, keyed by a label."""
    specs = {}
    for family in Family:
        exact = draw_valid_spec(random.Random(f"float-route:{family.value}"), family, 5)
        specs[family.value] = _float_twin(exact)
    specs["q-hahn-exact-q"] = families.q_hahn(5, RationalQ(1, 3), 0.5, 1.25)
    return specs


def route(spec):
    """The float route's values of ``spec`` as ``float.hex`` strings."""
    data = families.orthogonality_data(spec)
    N = spec.N
    series = families._point_value(spec.family, families._values(spec), 1, N)
    return {
        "spec": spec.describe(),
        "a": [v.hex() for v in data.a],
        "c": [v.hex() for v in data.c],
        "h": [v.hex() for v in data.h],
        "J2": [v.hex() for v in data.J2],
        "eps": [float(v).hex() for v in families.eigenvalues(spec)],
        "P_1(N)": series.hex(),
    }


@pytest.mark.parametrize("label", sorted(float_specs()))
def test_float_route_is_pinned(label):
    spec = float_specs()[label]
    assert not spec.is_exact
    got = route(spec)
    # every value is a float: none of the route runs in exact arithmetic
    data = families.orthogonality_data(spec)
    assert all(type(v) is float for part in (data.a, data.c, data.h, data.J2) for v in part)
    assert got == json.loads(PINNED.read_text())[label]


def main() -> int:
    pinned = {label: route(spec) for label, spec in sorted(float_specs().items())}
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    sys.exit(main())
