"""Conformance suite for the storage backend contract.

A backend must satisfy the
:class:`~repro.facts.backend.StorageBackend` contract: set row
semantics, live-index maintenance across all three index families,
lazily rebuilt indexes on copies, and a ``(uid, version)`` identity
whose version bumps exactly on content changes (the predicate cache's
invalidation rule).
"""

import pytest

from repro.facts.backend import DictBackend, StorageBackend

ROWS = [(1, 2), (2, 3), (2, 4), (5, 2)]


@pytest.fixture
def make():
    return DictBackend


class TestRowContract:
    def test_satisfies_protocol(self, make):
        assert isinstance(make(), StorageBackend)

    def test_insert_contains_len_iter(self, make):
        backend = make()
        assert backend.insert((1, 2))
        assert not backend.insert((1, 2))
        assert backend.insert((2, 3))
        assert (1, 2) in backend and (9, 9) not in backend
        assert len(backend) == 2
        assert sorted(backend) == [(1, 2), (2, 3)]

    def test_add_new_keeps_only_fresh_rows_in_order(self, make):
        backend = make([(1, 2)])
        new = backend.add_new([(1, 2), (2, 3), (2, 3), (5, 2)])
        assert new == [(2, 3), (5, 2)]
        assert len(backend) == 3

    def test_merge_new_screens_duplicates(self, make):
        backend = make([(1, 2), (2, 3)])
        new = backend.merge_new(ROWS)
        assert sorted(new) == [(2, 4), (5, 2)]
        assert sorted(backend) == sorted(ROWS)
        assert backend.merge_new(ROWS) == []

    def test_merge_trusts_caller_on_absence(self, make):
        backend = make([(1, 2)])
        backend.merge([(2, 3), (2, 4)])
        assert sorted(backend) == [(1, 2), (2, 3), (2, 4)]

    def test_remove(self, make):
        backend = make(ROWS)
        assert backend.remove((2, 3))
        assert not backend.remove((2, 3))
        assert (2, 3) not in backend
        assert len(backend) == len(ROWS) - 1

    def test_clear(self, make):
        backend = make(ROWS)
        backend.index_for((0,))
        backend.clear()
        assert len(backend) == 0
        assert backend.index_for((0,)) == {}


class TestIndexFamilies:
    def test_index_for_groups_rows(self, make):
        backend = make(ROWS)
        index = backend.index_for((0,))
        assert sorted(index[(2,)]) == [(2, 3), (2, 4)]
        both = backend.index_for((0, 1))
        assert both[(5, 2)] == [(5, 2)]

    def test_code_index_keys_are_bare_values(self, make):
        backend = make(ROWS)
        index = backend.code_index_for(0)
        assert sorted(index[2]) == [(2, 3), (2, 4)]
        assert (2,) not in index

    def test_projection_index_is_a_multiset(self, make):
        backend = make([(1, 7), (2, 7), (2, 7)])
        # Rows dedup, but two distinct rows projecting the same value
        # must keep both entries — batch row counts depend on it.
        backend.insert((3, 7))
        proj = backend.projection_index(1, 1)
        assert sorted(proj[7]) == [7, 7, 7]
        proj = backend.projection_index(0, 1)
        assert proj[2] == [7]

    @pytest.mark.parametrize("mutate", ["insert", "add_new", "merge_new",
                                        "merge"])
    def test_live_indexes_track_inserts(self, make, mutate):
        backend = make(ROWS)
        plain = backend.index_for((0,))
        bare = backend.code_index_for(0)
        proj = backend.projection_index(0, 1)
        row = (2, 9)
        if mutate == "insert":
            backend.insert(row)
        elif mutate == "merge":
            backend.merge([row])
        else:
            getattr(backend, mutate)([row])
        assert (2, 9) in plain[(2,)]
        assert (2, 9) in bare[2]
        assert 9 in proj[2]

    def test_live_indexes_track_removals(self, make):
        backend = make(ROWS)
        plain = backend.index_for((0,))
        bare = backend.code_index_for(0)
        proj = backend.projection_index(0, 1)
        backend.remove((2, 3))
        assert plain[(2,)] == [(2, 4)]
        assert bare[2] == [(2, 4)]
        assert proj[2] == [4]
        backend.remove((2, 4))
        assert (2,) not in plain and 2 not in bare and 2 not in proj


class TestCopyIdentity:
    def test_copy_is_independent(self, make):
        backend = make(ROWS)
        clone = backend.copy()
        clone.insert((9, 9))
        backend.remove((1, 2))
        assert (9, 9) not in backend
        assert (1, 2) in clone
        assert sorted(clone) == sorted(ROWS + [(9, 9)])

    def test_copy_rebuilds_indexes_lazily(self, make):
        # Regression: a copy must NOT share the
        # source's live index dicts — after mutating the copy, probes
        # on it reflect the mutation while the source's index is
        # untouched.
        backend = make(ROWS)
        source_index = backend.index_for((0,))
        clone = backend.copy()
        clone.insert((2, 9))
        clone_index = clone.index_for((0,))
        assert clone_index is not source_index
        assert sorted(clone_index[(2,)]) == [(2, 3), (2, 4), (2, 9)]
        assert sorted(source_index[(2,)]) == [(2, 3), (2, 4)]

    def test_copy_gets_fresh_cache_identity(self, make):
        backend = make(ROWS)
        backend.insert((7, 7))
        clone = backend.copy()
        assert clone.uid != backend.uid
        assert clone.version == 0

    def test_version_bumps_on_content_change_only(self, make):
        backend = make()
        v0 = backend.version
        backend.index_for((0,))         # pure index build: no change
        backend.code_index_for(1)
        assert backend.version == v0
        backend.insert((1, 2))
        v1 = backend.version
        assert v1 > v0
        backend.insert((1, 2))          # duplicate: content unchanged
        assert backend.version == v1
        backend.merge_new([(1, 2)])     # all-duplicate bulk: unchanged
        assert backend.version == v1
        backend.remove((1, 2))
        assert backend.version > v1
