"""The optimizer's output on every paper example, pinned.

Every edit the optimizer pushes passes one guard per action in
``repro.core.containment``.  The matrix below runs each paper example
with each IC alone and with all its ICs, under both compilations, with
and without the guard, and with and without the ICs' head relations
declared small (which turns fact residues into introductions).  For each
case ``data/guard_matrix.json`` holds what the optimizer produced before
the guard lived in one module:

- the optimized program's text;
- each step's (IC label, sequence, action, applied, reason);
- how many chase runs one ``optimize()`` made.

A change to any of them is a change to what the optimizer emits or how
much proving it does, and must be explained with the new record.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core import SemanticOptimizer, containment
from repro.datalog import format_program
from repro.workloads.paper_examples import ALL_EXAMPLES

RECORD = json.loads(
    (Path(__file__).parent / "data" / "guard_matrix.json").read_text())


def _cases():
    for factory in ALL_EXAMPLES:
        example = factory()
        labels = [ic.label for ic in example.ics]
        subsets = [(label,) for label in labels]
        if len(labels) != 1:
            subsets.append(tuple(labels))
        heads = sorted({ic.head.pred for ic in example.ics
                        if ic.head is not None
                        and hasattr(ic.head, "pred")})
        smalls = [()] + ([tuple(heads)] if heads else [])
        for subset in subsets:
            for compilation in ("periodic", "automaton"):
                for guard in ("chase", "none"):
                    for small in smalls:
                        key = "|".join([
                            factory.__name__, "+".join(subset) or "-",
                            compilation, guard,
                            "small" if small else "plain"])
                        yield pytest.param(factory, subset, compilation,
                                           guard, small, id=key)


CASES = list(_cases())


def test_the_matrix_is_the_record():
    assert sorted(case.id for case in CASES) == sorted(RECORD)


@pytest.mark.parametrize("factory,subset,compilation,guard,small", CASES)
def test_optimizer_output_and_chase_runs(factory, subset, compilation,
                                         guard, small, monkeypatch,
                                         request):
    example = factory()
    runs = []
    original = containment.chase

    def counting(*args, **kwargs):
        runs.append(1)
        return original(*args, **kwargs)

    # Every module's binding of the chase, however it was imported.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(module, "chase", None) is original:
            monkeypatch.setattr(module, "chase", counting)
    report = SemanticOptimizer(
        example.program, [example.ic(label) for label in subset],
        pred=example.pred, guard=guard, small_relations=small,
        compilation=compilation).optimize()
    expected = RECORD[request.node.callspec.id]
    assert report.failures == []
    assert format_program(report.optimized, group_by_head=True) \
        == expected["program"]
    assert [[step.ic_label, list(step.sequence), step.outcome.action,
             step.outcome.applied, step.outcome.reason]
            for step in report.steps] == expected["steps"]
    assert len(runs) == expected["chase_runs"]
