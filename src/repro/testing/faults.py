"""Deterministic storage fault injection for the service fault tests.

:class:`FlakyBackend` wraps a real backend and raises on the k-th index
build, reproducing a failing disk/page mid-query; :func:`flaky_database`
builds a random database whose first relation is wrapped that way.  Every
failure is a pure function of the configuration and the call order, so a
fault test replays identically.
"""

from __future__ import annotations

from repro.relational.relation import Relation
from repro.relational.storage import StorageBackend

#: The index-building methods FlakyBackend can be told to fail.
ALL_INDEX_METHODS = ("hash_index", "key_set", "group_index", "trie")


class FlakyBackend(StorageBackend):
    """A delegating backend that raises on the k-th index build.

    Renamed facades share their backend, so the failure follows the
    relation through every bound atom the evaluator creates.
    ``supports_kernels`` stays ``False``: the point is to fail inside the
    tuple-at-a-time index machinery.
    """

    supports_kernels = False

    def __init__(self, inner: StorageBackend, fail_on: tuple[str, ...],
                 after: int = 1) -> None:
        self._inner = inner
        self._fail_on = fail_on
        self._after = after
        self.index_calls = 0

    @property
    def kind(self) -> str:
        # Derived relations inherit the wrapped engine's kind, so answers
        # built from a flaky relation resolve to a real backend.
        return self._inner.kind

    def _maybe_fail(self, method: str) -> None:
        if method in self._fail_on:
            self.index_calls += 1
            if self.index_calls >= self._after:
                raise RuntimeError(
                    f"injected fault: {method} build #{self.index_calls}")

    def heal(self) -> None:
        """Stop injecting faults (the 'operator replaced the disk' event)."""
        self._fail_on = ()

    # -- delegation ---------------------------------------------------------
    def __len__(self):
        return len(self._inner)

    def iter_rows(self):
        return self._inner.iter_rows()

    def row_set(self):
        return self._inner.row_set()

    def contains(self, row):
        return self._inner.contains(row)

    def spawn(self, rows, assume_unique=False):
        return self._inner.spawn(rows, assume_unique=assume_unique)

    def hash_index(self, key_positions):
        self._maybe_fail("hash_index")
        return self._inner.hash_index(key_positions)

    def key_set(self, key_positions):
        self._maybe_fail("key_set")
        return self._inner.key_set(key_positions)

    def degree_index(self, given_positions, value_position):
        return self._inner.degree_index(given_positions, value_position)

    def group_index(self, given_positions, value_positions):
        self._maybe_fail("group_index")
        return self._inner.group_index(given_positions, value_positions)

    def trie(self, positions):
        self._maybe_fail("trie")
        return self._inner.trie(positions)

    def project_backend(self, positions):
        return self._inner.project_backend(positions)


def flaky_database(query, *, after: int = 1, size: int = 50, domain: int = 12,
                   seed: int = 11,
                   methods: tuple[str, ...] = ALL_INDEX_METHODS):
    """A random database whose first relation fails its ``after``-th index
    build — the shared fixture behind the service fault tests."""
    from repro.datagen import random_graph_database

    database = random_graph_database(query, size=size, domain=domain, seed=seed)
    name = database.relation_names()[0]
    relation = database[name]
    flaky = FlakyBackend(relation._backend, methods, after)
    database.add(Relation._from_backend(relation.name, relation.columns, flaky),
                 name=name)
    return database, flaky
