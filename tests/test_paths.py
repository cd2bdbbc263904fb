"""Unit tests for path machinery (Section 3 terminology, Definition 4)."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidPathError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import complete_digraph, directed_cycle
from repro.graphs.paths import (
    concatenate,
    enumerate_redundant_paths_to,
    enumerate_simple_paths_to,
    find_f_cover,
    has_f_cover,
    is_cover,
    is_fully_contained,
    is_path_in_graph,
    is_redundant,
    is_simple,
    path_intersects,
)


class TestBasicOperations:
    def test_concatenate_shares_endpoint(self):
        assert concatenate((1, 2), (2, 3)) == (1, 2, 3)

    def test_concatenate_mismatch_raises(self):
        with pytest.raises(InvalidPathError):
            concatenate((1, 2), (3, 4))

    def test_concatenate_with_empty(self):
        assert concatenate((), (1, 2)) == (1, 2)
        assert concatenate((1, 2), ()) == (1, 2)

    def test_path_intersects(self):
        assert path_intersects((1, 2, 3), {3, 9})
        assert not path_intersects((1, 2, 3), {9})

    def test_is_fully_contained(self):
        assert is_fully_contained((1, 2), {1, 2, 3})
        assert not is_fully_contained((1, 4), {1, 2, 3})


class TestSimpleAndRedundant:
    def test_is_simple(self):
        assert is_simple((1, 2, 3))
        assert not is_simple((1, 2, 1))

    def test_every_simple_path_is_redundant(self):
        assert is_redundant((1,))
        assert is_redundant((1, 2, 3))

    def test_redundant_with_one_revisit(self):
        # (1,2,1,3) = (1,2) || (2,1,3): wait, shared endpoint must match; use a
        # genuinely decomposable path instead: (1,2,3,1,4) = (1,2,3) || (3,1,4)? no.
        # (2,1,3,1) decomposes as (2,1,3) || (3,1): both simple.
        assert is_redundant((2, 1, 3, 1))

    def test_non_redundant_path(self):
        # (1,2,1,2) cannot be split into two simple halves.
        assert not is_redundant((1, 2, 1, 2))

    def test_empty_path_not_redundant(self):
        assert not is_redundant(())

    def test_redundant_matches_bruteforce_on_random_sequences(self):
        import random

        rng = random.Random(42)

        def brute(path):
            if not path:
                return False
            if is_simple(path):
                return True
            return any(
                is_simple(path[: i + 1]) and is_simple(path[i:]) for i in range(len(path))
            )

        for _ in range(500):
            path = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 8)))
            assert is_redundant(path) == brute(path)


class TestGraphPathValidation:
    def test_is_path_in_graph(self, diamond):
        assert is_path_in_graph(diamond, (0, 1, 3))
        assert not is_path_in_graph(diamond, (1, 0))
        assert not is_path_in_graph(diamond, (0, 99))
        assert is_path_in_graph(diamond, (2,))
        assert not is_path_in_graph(diamond, ())


class TestEnumeration:
    def test_simple_paths_to_in_cycle(self):
        cycle = directed_cycle(4)
        paths = enumerate_simple_paths_to(cycle, 0)
        # Trivial path plus the three suffixes of the unique incoming chain.
        assert (0,) in paths
        assert (3, 0) in paths and (1, 2, 3, 0) in paths
        assert len(paths) == 4

    def test_simple_paths_respect_sources_filter(self, diamond):
        paths = enumerate_simple_paths_to(diamond, 3, sources=[0])
        assert paths
        assert all(path[0] == 0 and path[-1] == 3 for path in paths)

    def test_simple_paths_between(self, diamond):
        paths = enumerate_simple_paths_to(diamond, 3, sources=[0])
        assert sorted(paths) == [(0, 1, 3), (0, 2, 3)]

    def test_simple_paths_max_length(self):
        clique = complete_digraph(4)
        short = enumerate_simple_paths_to(clique, 0, max_length=2)
        assert all(len(path) <= 2 for path in short)
        assert len(short) == 4  # the trivial path plus three direct edges

    def test_simple_path_count_clique(self):
        clique = complete_digraph(4)
        paths = enumerate_simple_paths_to(clique, 0)
        # 1 trivial + 3 length-2 + 6 length-3 + 6 length-4 = 16.
        assert len(paths) == 16

    def test_redundant_paths_superset_of_simple(self, diamond):
        simple = set(enumerate_simple_paths_to(diamond, 3))
        redundant = set(enumerate_redundant_paths_to(diamond, 3))
        assert simple <= redundant
        assert all(is_redundant(path) for path in redundant)
        assert all(path[-1] == 3 for path in redundant)

    def test_redundant_paths_contain_revisiting_path(self):
        # 0→1→2→0→... in a 3-cycle: the path (1,2,0,1,2) ends at 2 and revisits.
        cycle = directed_cycle(3)
        redundant = set(enumerate_redundant_paths_to(cycle, 2))
        assert (1, 2, 0, 1, 2) in redundant

    def test_enumeration_of_missing_target(self):
        graph = DiGraph(nodes=[1])
        assert enumerate_simple_paths_to(graph, 99) == []


class TestFCovers:
    def test_empty_path_set_has_empty_cover(self):
        assert find_f_cover([], 0) == frozenset()
        assert has_f_cover([], 2)

    def test_single_common_node_cover(self):
        paths = [(1, 2, 5), (3, 2, 5), (4, 2, 5)]
        cover = find_f_cover(paths, 1, forbidden={5})
        assert cover == frozenset({2})

    def test_forbidden_node_never_in_cover(self):
        paths = [(1, 5), (2, 5)]
        assert find_f_cover(paths, 1, forbidden={5}) is None
        assert find_f_cover(paths, 1) == frozenset({5})

    def test_f_zero_cannot_cover_nonempty(self):
        assert find_f_cover([(1, 2)], 0) is None

    def test_two_node_cover(self):
        paths = [(1, 9), (2, 9), (1, 8), (2, 8)]
        cover = find_f_cover(paths, 2, forbidden={8, 9})
        assert cover == frozenset({1, 2})
        assert find_f_cover(paths, 1, forbidden={8, 9}) is None

    def test_candidate_restriction(self):
        paths = [(1, 2), (1, 3)]
        assert find_f_cover(paths, 1, candidate_nodes={2, 3}) is None
        assert find_f_cover(paths, 1, candidate_nodes={1}) == frozenset({1})

    def test_is_cover(self):
        paths = [(1, 2), (2, 3)]
        assert is_cover(paths, {2})
        assert not is_cover(paths, {3})
        assert is_cover([], set())

    def test_has_f_cover_matches_find(self):
        paths = [(1, 2, 3), (4, 5, 3)]
        assert has_f_cover(paths, 2, forbidden={3}) == (
            find_f_cover(paths, 2, forbidden={3}) is not None
        )

    def test_negative_f_raises(self):
        with pytest.raises(ValueError):
            find_f_cover([(1,)], -1)
