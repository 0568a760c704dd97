"""The optimizer's output on every paper example, pinned.

Every edit the optimizer pushes is proved by one validator,
``repro.core.push.validate_edit``, which runs one guard per action from
``repro.core.containment``; there is no unguarded mode.  The matrix
below runs each paper example with each IC alone and with all its ICs,
under both compilations, and with and without the ICs' head relations
declared small (which turns fact residues into introductions).  A case's
id names the guard it runs, ``chase``.  For each case
``data/guard_matrix.json`` holds:

- the optimized program's text;
- each step's (IC label, sequence, action, applied, reason);
- how many chase runs one ``optimize()`` made.

A change to any of them is a change to what the optimizer emits or how
much proving it does, and must be explained with the new record.  Each
case also checks that one ``optimize()`` never runs a guard twice on the
same arguments, and that its optimized program keeps the source's
answers on IC-consistent databases.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.core import SemanticOptimizer, check_equivalent, containment
from repro.core.equivalence import (infer_numeric_columns, make_consistent,
                                    random_database)
from repro.datalog import Atom, format_program
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
                for small in smalls:
                    key = "|".join([
                        factory.__name__, "+".join(subset) or "-",
                        compilation, "chase",
                        "small" if small else "plain"])
                    yield pytest.param(factory, subset, compilation,
                                       small, id=key)


CASES = list(_cases())

GUARDS = ("elimination_is_sound", "introduction_is_sound",
          "pruning_is_sound")


def _wrap_every_binding(monkeypatch, name, wrapper):
    """Point every ``repro`` module's binding of ``containment.<name>``,
    however it was imported, at ``wrapper(original)``."""
    original = getattr(containment, name)
    wrapped = wrapper(original)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and \
                getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapped)


def test_the_matrix_is_the_record():
    assert sorted(case.id for case in CASES) == sorted(RECORD)


@pytest.mark.parametrize("factory,subset,compilation,small", CASES)
def test_optimizer_output_and_chase_runs(factory, subset, compilation,
                                         small, monkeypatch, request):
    example = factory()
    runs = []
    proofs = []

    def recording(log, name):
        def wrapper(original):
            def recorded(*args, **kwargs):
                log.append((name, args, kwargs))
                return original(*args, **kwargs)
            return recorded
        return wrapper

    _wrap_every_binding(monkeypatch, "chase", recording(runs, "chase"))
    for guard_name in GUARDS:
        _wrap_every_binding(monkeypatch, guard_name,
                            recording(proofs, guard_name))
    report = SemanticOptimizer(
        example.program, [example.ic(label) for label in subset],
        pred=example.pred, small_relations=small,
        compilation=compilation).optimize()
    expected = RECORD[request.node.callspec.id]
    assert report.failures == []
    assert format_program(report.optimized, group_by_head=True) \
        == expected["program"]
    assert [[step.ic_label, list(step.sequence), step.outcome.action,
             step.outcome.applied, step.outcome.reason]
            for step in report.steps] == expected["steps"]
    assert len(runs) == expected["chase_runs"]
    repeated = [call for index, call in enumerate(proofs)
                if call in proofs[:index]]
    assert repeated == []


def _consistent_dbs(example, ics, rng, count=5):
    """IC-consistent random databases over the example's EDB relations
    and the ICs' relations."""
    arities = example.program.predicate_arities()
    schema = {pred: arities[pred]
              for pred in sorted(example.program.edb_predicates)
              if pred in arities}
    for ic in ics:
        for atom in ic.database_atoms() + (
                (ic.head,) if isinstance(ic.head, Atom) else ()):
            schema.setdefault(atom.pred, len(atom.args))
    numeric = infer_numeric_columns(example.program, ics)
    dbs = []
    for _ in range(count):
        db = random_database(schema, 6, 12, rng, numeric_columns=numeric,
                             max_value=20000)
        make_consistent(db, ics)
        dbs.append(db)
    return dbs


@pytest.mark.parametrize("factory,subset,compilation,small", CASES)
def test_guarded_output_keeps_the_answers(factory, subset, compilation,
                                          small):
    example = factory()
    ics = [example.ic(label) for label in subset]
    report = SemanticOptimizer(
        example.program, ics, pred=example.pred, small_relations=small,
        compilation=compilation).optimize()
    dbs = _consistent_dbs(example, ics, random.Random(0xC0FFEE))
    assert check_equivalent(example.program, report.optimized,
                            example.pred, dbs) is None
