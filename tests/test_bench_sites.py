"""The benchmark's traced pass still reaches every site it requires.

The benchmark refuses a traced run whose wrappers never fire at one of
a workload's ``must_reach`` sites, and it pins two U builds per
``transfer_report``.  That pin stays: both builds still run, and the
second reads the record's checked U.  The table comes from the
recurrence on integers, and the record checks it against one exact
series, so a report sums one.
Running one traced cycle of every workload here makes a rerouted call
fail the test suite instead of only a benchmark run; the same cycles
cap how often the chain record, the spectrum and the series of U are
derived.
The benchmark's modules are imported read-only, as its own tests do.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402
from qchain import evolve  # noqa: E402


@pytest.mark.parametrize("name", ["sweep", "transfer_large", "cli_mix", "closed_form"])
def test_traced_cycle_reaches_every_required_site(name, tmp_path):
    workload = workloads.make(name, 1, str(tmp_path))
    recorder = tracer.Tracer()
    undo = tracer.install(recorder)
    reports = 0
    try:
        for index, op in enumerate(workload.ops):
            # as in the benchmark, an op that raises has failed, and only
            # an op tagged with a known defect may fail
            result = None
            try:
                result = recorder.run_op(index, op.run)
                passed = op.check(result).passed
            except Exception:
                passed = False
            reports += isinstance(result, evolve.TransferReport)
            assert passed or op.known_defect, op.inputs
    finally:
        undo()
    missing = [site for site in workload.must_reach if recorder.site_calls[site] == 0]
    assert missing == []
    if name in ("sweep", "transfer_large"):
        assert recorder.calls["families.orthonormal_matrix"] == 2 * len(workload.ops)
        # both builds read one record, whose table checks one exact series
        assert recorder.calls["qseries.basic_hypergeometric_exact"] == reports > 0
    # derivation counts: a closed form validates once and reads that
    # record, and a CLI command derives its spec's record once (a
    # closed-form command checks its sites first, then derives the exact
    # twin's record in the closed form alone)
    derivations = recorder.calls["families.orthogonality_data"]
    if name == "closed_form":
        assert derivations == len(workload.ops)
        # the matched-time search and its parity check share one spectrum
        assert recorder.calls["families.eigenvalues"] == len(workload.ops)
        # and the parity table the search built at its time
        assert recorder.calls["evolve.phase_parity_check"] <= 804
    if name == "cli_mix":
        # 18 family-spec commands and a 3-point scan; the two explicit
        # chain commands derive none
        assert derivations == 21
        # each of the three closed-form commands searches its matched
        # time once, in the direct sum, and prints the time found there
        assert recorder.calls["closedform.matched_transfer_time"] == 3
        assert recorder.site_calls["closedform.f_T@closedform"] == 3
