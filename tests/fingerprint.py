"""Layer fingerprints: one sha256 per layer over fixed seeded spec draws.

A change meant to leave every answer bit-identical (a speed-up, a
refactor) should leave this output unchanged.  Save a run at the old
commit and compare the new one against it:

    PYTHONPATH=src python3 tests/fingerprint.py [--draws K] [--max-n N] > old.txt
    PYTHONPATH=src python3 tests/fingerprint.py [--draws K] [--max-n N] --compare old.txt

``--compare`` prints ``differs <layer>`` for each layer whose digest or
count moved (``specs`` when the number of draws did) and exits 1 if any
did, 0 otherwise.

The specs are ``conftest.sample_spec`` draws from one fixed seed,
``draws`` per family and size N = 1..max_n, across all seven families,
each followed by its float twin (the same values with a float q and
float parameters).  The draws are unvalidated, so invalid specs and the
errors they raise are part of the record.  Layers:

- ``table``: the bytes of the record's ``point_table``, mantissas and
  exponents both, so the exponents of zero entries count too, which U
  hides;
- ``U``: the bytes of ``orthonormal_matrix`` on the spec's record;
- ``P``: ``evaluate`` on the diagonal n = x = 0..N;
- ``data``: every field of ``orthogonality_data``;
- ``eigenvalues``: the repr of ``eigenvalues``;
- ``transfer``: every field of ``transfer_report``;
- ``closed_form``: the answer fields of ``closed_form_result`` at (N, 0)
  and one drawn (r, s);
- ``errors``: type and message of every exception the calls above raise.

Floats enter as ``repr`` (which round-trips) or raw array bytes, so two
runs agree only when every bit does.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from collections import Counter
from typing import Callable, Dict, Iterable, List, Tuple

from conftest import sample_spec
from qchain import closedform, evolve, families
from qchain.families import Family, FamilySpec

LAYERS = ("table", "U", "P", "data", "eigenvalues", "transfer", "closed_form", "errors")
SEED = 20100


def float_twin(spec: FamilySpec) -> FamilySpec:
    """The same spec with float q and float parameters."""
    params = {name: float(value) for name, value in spec.params}
    return families.make_spec(spec.family, spec.N, float(spec.q), **params)


def draw_specs(draws: int, max_n: int) -> List[FamilySpec]:
    """Seeded draws for every family and N = 1..max_n, each with its float twin."""
    rng = random.Random(SEED)
    specs = []
    for family in Family:
        for N in range(1, max_n + 1):
            for _ in range(draws):
                spec = sample_spec(rng, family, N)
                specs += [spec, float_twin(spec)]
    return specs


def _data_text(data: families.OrthogonalityData) -> bytes:
    head = repr(data.norms).encode()
    return head + data.couplings.tobytes() + data.fields.tobytes() + data.signs.tobytes()


def _table_bytes(data: families.OrthogonalityData) -> bytes:
    mantissa, exponent = data.point_table
    return mantissa.tobytes() + exponent.tobytes()


def _report_text(report: evolve.TransferReport) -> str:
    return repr((
        report.time, report.parity, report.endpoint_magnitude, report.site_amplitudes,
        report.period_residual, report.verdict, report.mirror_residual,
    ))


def _closed_form_text(result: closedform.ClosedFormResult) -> str:
    return repr((result.value, result.method, result.residual_vs_direct, result.time))


def fingerprints(specs: Iterable[FamilySpec]) -> Dict[str, Tuple[str, int]]:
    """Per layer, the sha256 of its records in spec order and the number
    of records (for ``errors``, of errors raised)."""
    hashes = {layer: hashlib.sha256() for layer in LAYERS}
    counts: Counter = Counter()
    rng = random.Random(SEED)

    def record(layer: str, label: str, compute: Callable[[], object]) -> None:
        hashes[layer].update(label.encode())
        counts[layer] += 1
        try:
            value = compute()
        except Exception as err:  # every raised error is part of the record
            hashes[layer].update(b"raised")
            hashes["errors"].update(f"{label}: {type(err).__name__}: {err}".encode())
            counts["errors"] += 1
            return
        hashes[layer].update(value if isinstance(value, bytes) else str(value).encode())

    for spec in specs:
        label, N = spec.describe(), spec.N
        r, s = rng.randrange(N + 1), rng.randrange(N + 1)
        record("table", label, lambda: _table_bytes(families.orthogonality_data(spec)))
        record("U", label,
               lambda: families.orthonormal_matrix(families.orthogonality_data(spec)).tobytes())
        record("P", label, lambda: repr([families.evaluate(spec, n, n) for n in range(N + 1)]))
        record("data", label, lambda: _data_text(families.orthogonality_data(spec)))
        record("eigenvalues", label, lambda: repr(families.eigenvalues(spec)))
        record("transfer", label, lambda: _report_text(evolve.transfer_report(spec)))
        for rr, ss in ((N, 0), (r, s)):
            record("closed_form", f"{label} r={rr} s={ss}",
                   lambda: _closed_form_text(closedform.closed_form_result(spec, rr, ss)))
    return {layer: (hashes[layer].hexdigest(), counts[layer]) for layer in LAYERS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=3, help="draws per family and N")
    parser.add_argument("--max-n", type=int, default=6, help="largest N drawn")
    parser.add_argument("--compare", metavar="FILE",
                        help="a saved run; report the layers that moved instead of printing")
    args = parser.parse_args(argv)
    specs = draw_specs(args.draws, args.max_n)
    lines = [f"specs {len(specs)}"] + [
        f"{layer} {digest} {count}" for layer, (digest, count) in fingerprints(specs).items()]
    if args.compare is None:
        print("\n".join(lines))
        return 0
    with open(args.compare, encoding="utf-8") as handle:
        saved = dict(line.split(" ", 1) for line in handle.read().splitlines() if line)
    moved = [name for name, rest in (line.split(" ", 1) for line in lines)
             if saved.get(name) != rest]
    for name in moved:
        print(f"differs {name}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
