"""Fast checks of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qchain import closedform, evolve, families  # noqa: E402
from qchain.qseries import RationalQ  # noqa: E402


def _inputs(name, seed, directory):
    os.makedirs(directory, exist_ok=True)
    workload = workloads.make(name, seed, directory)
    files = {
        entry: open(os.path.join(directory, entry), encoding="utf-8").read()
        for entry in sorted(os.listdir(directory))
    }
    return [(op.kind, op.inputs, op.known_defect) for op in workload.ops], files


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_the_seed_orders_the_same_inputs(name, tmp_path):
    first = _inputs(name, 7, str(tmp_path / "a"))
    assert _inputs(name, 7, str(tmp_path / "b")) == first
    others = [_inputs(name, seed, str(tmp_path / str(seed)))[0] for seed in (8, 9, 10)]
    assert all(sorted(ops) == sorted(first[0]) for ops in others)
    assert any(ops != first[0] for ops in others)


def test_sweep_draws_from_the_criterion_7_grid(tmp_path):
    grid = {
        spec.describe()
        for family in workloads.SWEEP_FAMILIES
        for N in range(2, 7)
        for axis in workloads.sweep_axes(family, N)
        for spec in axis
    }
    ops = workloads.make("sweep", 1, str(tmp_path)).ops
    assert len(grid) == 1000
    assert len({op.inputs for op in ops}) == len(ops) == 240
    assert {op.inputs for op in ops} <= grid


def test_self_times_add_up_to_the_op_span():
    ticks = itertools.count()
    recorder = tracer.Tracer(clock=lambda: float(next(ticks)))
    leaf = recorder.wrap("leaf", "leaf@test", lambda: None)

    def middle():
        leaf()
        leaf()

    wrapped_middle = recorder.wrap("middle", "middle@test", middle)

    def op():
        wrapped_middle()
        leaf()

    recorder.run_op(0, op)
    root = [s for s in recorder.spans if s[1] == -1]
    assert len(root) == 1 and len(recorder.spans) == 5
    assert sum(s[6] for s in recorder.spans) == root[0][5] - root[0][4]
    assert all(s[6] >= 0 for s in recorder.spans)
    assert recorder.calls["leaf"] == 3 and recorder.site_calls["leaf@test"] == 3


def test_wrappers_record_real_calls_and_come_off():
    originals = (
        evolve.transfer_report,
        families.orthonormal_matrix,
        closedform.basic_hypergeometric_exact,
    )
    spec = families.dual_q_krawtchouk(3, RationalQ(1, 3), -1)
    op = workloads.certify_op(spec, perfect=False)
    recorder = tracer.Tracer()
    undo = tracer.install(recorder)
    try:
        report = recorder.run_op(0, op.run)
        families.validate(spec)  # outside an op: not recorded
    finally:
        undo()
    assert (
        evolve.transfer_report,
        families.orthonormal_matrix,
        closedform.basic_hypergeometric_exact,
    ) == originals
    assert op.check(report).passed
    assert recorder.calls["evolve.transfer_report"] == 1
    assert recorder.calls["families.validate"] == 1
    assert recorder.site_calls["families.orthonormal_matrix@families"] == 2
    (root,) = [s for s in recorder.spans if s[2] == tracer.OP_SPAN]
    total = sum(s[6] for s in recorder.spans)
    assert total == pytest.approx(root[5] - root[4], rel=1e-9)


def test_tail_sits_in_the_middle_of_one_input():
    workload = workloads.make("transfer_large", 1, "")
    op_ms = [float(cost) for cost in (1, 2, 3) for _ in range(24)]
    assert worker.percentile(op_ms, workload.tail_percentile) == 3.0  # the slowest input
    assert worker.percentile(op_ms, 50.0) == 2.0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert worker.tail_percentile(98.0, 1200) == 98.0
    assert worker.tail_percentile(99.9, 1200) == 99.0
    assert worker.tail_percentile(98.0, 27) == 50.0
    for n in (1, 20, 27, 40, 199, 200, 1000, 5000):
        p = worker.tail_percentile(99.0, n)
        assert p == 50.0 or n * (100 - p) / 100 >= 10
    assert worker.percentile([3.0, 1.0, 2.0], 50.0) == 2.0
