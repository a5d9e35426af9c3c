"""Model, file format, classification and generator tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgraph import (
    DomainError,
    GraphClass,
    MultiTraversalRelation,
    ParseError,
    classify,
    gen_complete,
    gen_cycle,
    gen_cycle_sequence,
    gen_dodecahedron,
    gen_grid,
    gen_path,
    is_connected,
    load_graph,
    parse_graph,
    random_relabel,
    relabel,
    serialize_graph,
)

from conftest import out_adjacency


arc_entries = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 3)),
    min_size=1,
    max_size=25,
)


def degrees(g: MultiTraversalRelation) -> dict[int, int]:
    return {v: len(nbrs) for v, nbrs in out_adjacency(g).items()}


class TestParse:
    def test_minimal_two_arc_file(self):
        g = parse_graph("1 2\n2 1\n")
        assert g.arcs == {(1, 2): 1, (2, 1): 1}
        assert g.vertices == {1, 2}

    def test_duplicate_lines_sum(self):
        g = parse_graph("1 2 3\n1 2 2\n")
        assert g.arcs == {(1, 2): 5}

    def test_self_loop_retained(self):
        g = parse_graph("1 1 1\n1 2 1\n")
        assert g.arcs == {(1, 1): 1, (1, 2): 1}

    def test_comments_and_blanks(self):
        g = parse_graph("# header\n\n1 2  # trailing\n   \n2 1 2\n")
        assert g.arcs == {(1, 2): 1, (2, 1): 2}

    def test_undirected_flag_mirrors(self):
        g = parse_graph("1 2 2\n2 3\n", undirected=True)
        assert g.arcs == {(1, 2): 2, (2, 1): 2, (2, 3): 1, (3, 2): 1}

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("1 2\n1 2 3 4\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError):
            parse_graph("1 x\n")

    def test_non_utf8_file_reports_line(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1 2\n\xff 3\n")
        with pytest.raises(ParseError, match="not UTF-8 text") as exc:
            load_graph(str(path))
        assert exc.value.line == 2

    def test_utf8_bom_is_skipped(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"1 2\n2 1\n")
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf1 2\n2 1\n")
        assert load_graph(str(bom)).arcs == load_graph(str(plain)).arcs == {(1, 2): 1, (2, 1): 1}

    def test_nonpositive_values_rejected(self):
        with pytest.raises(DomainError):
            parse_graph("0 2\n")
        with pytest.raises(DomainError):
            parse_graph("1 2 0\n")
        with pytest.raises(DomainError):
            parse_graph("# nothing\n")
        with pytest.raises(DomainError, match="line 2"):
            parse_graph("1 2\n0 2\n")
        # from_arcs refuses what parse_graph could not read back
        for arcs in (
            [(1, 2, 1.5), (2, 1)], [(1.5, 2), (2, 1.5)], [(1, 2, 1.0)], [("1", 2)], [(1, 2, None)],
            [(True, 2), (2, True)], [(1, 2), (True, 2)], [(1, 2, True)],
            [(2, 1), (1.0, 2)], [(1, 2), (2.0, 1)],
        ):
            with pytest.raises(DomainError, match="integers"):
                MultiTraversalRelation.from_arcs(arcs)
        for arcs in ([(1, 2, 1, 9)], [(1,)]):
            with pytest.raises(DomainError, match="an arc is"):
                MultiTraversalRelation.from_arcs(arcs)

    @given(arc_entries)
    @settings(max_examples=60)
    def test_serialize_round_trip(self, entries):
        g = MultiTraversalRelation.from_arcs(entries)
        assert parse_graph(serialize_graph(g)) == g


class TestPartitions:
    def test_unit_subgraphs_complete(self):
        out = gen_complete(3).out_adjacency
        assert sorted(out) == [1, 2, 3]
        assert all(len(leaves) == 2 and set(leaves.values()) == {1} for leaves in out.values())

    def test_unit_subgraphs_regrouping(self):
        g = MultiTraversalRelation.from_arcs([(1, 2, 2), (1, 3, 1), (3, 1, 1)])
        assert g.out_adjacency == {1: {2: 2, 3: 1}, 3: {1: 1}}

    def test_terminal_vertex_owns_no_subgraph(self):
        assert gen_path(3).out_adjacency == {1: {2: 1}, 2: {3: 1}}

    @given(arc_entries)
    @settings(max_examples=80)
    def test_partition_laws(self, entries):
        # union restores the multiset, no empty component, each arc in exactly one component
        g = MultiTraversalRelation.from_arcs(entries)
        out = g.out_adjacency
        rebuilt = {(root, leaf): w for root, leaves in out.items() for leaf, w in leaves.items()}
        assert rebuilt == dict(g.arcs)
        assert all(out.values())
        assert sum(len(leaves) for leaves in out.values()) == len(g.arcs)

    def test_weight_one_degeneration(self):
        # an unweighted relation round-trips with every multiplicity equal to 1
        g = gen_cycle(5)
        assert all(w == 1 for leaves in g.out_adjacency.values() for w in leaves.values())


class TestClassify:
    def test_complete_is_simple(self):
        assert classify(gen_complete(4)) is GraphClass.SIMPLE

    def test_lone_arc_is_directed(self):
        g = MultiTraversalRelation.from_arcs([(1, 2)])
        assert classify(g) is GraphClass.DIRECTED

    def test_unbalanced_pair_is_mixed(self):
        g = MultiTraversalRelation.from_arcs([(1, 2, 2), (2, 1, 1)])
        assert classify(g) is GraphClass.MIXED

    def test_balanced_heavy_pair_is_multi(self):
        g = MultiTraversalRelation.from_arcs([(1, 2, 2), (2, 1, 2)])
        assert classify(g) is GraphClass.MULTI

    def test_self_loops_ignored(self):
        g = MultiTraversalRelation.from_arcs([(1, 1, 5), (1, 2), (2, 1)])
        assert classify(g) is GraphClass.SIMPLE

    @given(arc_entries, st.integers(0, 2**30))
    @settings(max_examples=60)
    def test_relabel_invariance(self, entries, seed):
        g = MultiTraversalRelation.from_arcs(entries)
        assert classify(random_relabel(g, seed)) is classify(g)


class TestGenerators:
    @pytest.mark.parametrize("n, arcs", [(3, 6), (5, 20), (12, 132)])
    def test_complete_sizes(self, n, arcs):
        assert len(gen_complete(n).arcs) == arcs

    def test_complete_too_small(self):
        with pytest.raises(DomainError):
            gen_complete(1)

    def test_cycle(self):
        g = gen_cycle(4)
        assert len(g.arcs) == 8
        assert classify(g) is GraphClass.SIMPLE

    def test_path(self):
        g = gen_path(3)
        assert g.arcs == {(1, 2): 1, (2, 3): 1}
        assert classify(g) is GraphClass.DIRECTED

    def test_grid_2x2_is_a_4_cycle(self):
        g = gen_grid(2, 2)
        assert g.n == 4
        assert degrees(g) == {v: 2 for v in g.vertices}
        assert classify(g) is GraphClass.SIMPLE
        assert is_connected(g)

    def test_size_guards(self):
        for bad in (lambda: gen_cycle(2), lambda: gen_path(1), lambda: gen_grid(1, 1),
                    lambda: gen_cycle_sequence(2, 3), lambda: gen_cycle_sequence(5, 1)):
            with pytest.raises(DomainError):
                bad()

    @pytest.mark.parametrize("k, z", [(5, 3), (9, 3), (3, 2), (4, 4), (6, 5)])
    def test_cycle_sequence_is_cubic(self, k, z):
        g = gen_cycle_sequence(k, z)
        assert g.n == 2 * (z - 1) * k
        assert degrees(g) == {v: 3 for v in g.vertices}
        assert classify(g) is GraphClass.SIMPLE
        assert is_connected(g)

    def test_prism_by_hand(self):
        # k=3, z=2: two triangles joined by a matching
        g = gen_cycle_sequence(3, 2)
        expected = set()
        for u, v in [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (1, 4), (2, 5), (3, 6)]:
            expected.add((u, v))
            expected.add((v, u))
        assert set(g.arcs) == expected

    def test_dodecahedron(self):
        g = gen_dodecahedron()
        assert g.n == 20
        assert len(g.arcs) == 60
        assert degrees(g) == {v: 3 for v in g.vertices}
        assert classify(g) is GraphClass.SIMPLE
        assert g == gen_cycle_sequence(5, 3)


class TestConnectivity:
    def test_connected(self):
        assert is_connected(gen_cycle(6))
        assert is_connected(gen_path(4))

    def test_disconnected(self):
        g = MultiTraversalRelation.from_arcs([(1, 2), (3, 4)])
        assert not is_connected(g)

    def test_self_loop_alone_is_not_a_bridge(self):
        g = MultiTraversalRelation.from_arcs([(1, 2), (3, 3)])
        assert not is_connected(g)
        assert is_connected(MultiTraversalRelation.from_arcs([(1, 1), (1, 2), (2, 3)]))

    def test_relabel_requires_injection(self):
        with pytest.raises(DomainError):
            relabel(gen_path(2), {1: 7, 2: 7})
        with pytest.raises(DomainError, match=r"does not cover vertices \[4\]"):
            relabel(gen_cycle(4), {1: 5, 2: 6, 3: 7})


class TestDerivedViews:
    def test_index_view(self):
        g = MultiTraversalRelation.from_arcs([(30, 10, 2), (10, 20), (10, 30), (20, 20, 5)])
        ids, index, rows = g.index_view
        assert ids == [10, 20, 30]
        assert index == {10: 0, 20: 1, 30: 2}
        # ascending (head index, weight) rows, the self-loop on 20 dropped
        assert rows == (((1, 1), (2, 1)), (), ((0, 2),))
        assert g.index_view is g.index_view

    def test_neighbours_symmetric_and_loop_free(self, rnd):
        for _ in range(20):
            entries = [(rnd.randint(1, 8), rnd.randint(1, 8), rnd.randint(1, 3)) for _ in range(12)]
            g = MultiTraversalRelation.from_arcs(entries)
            expected = {v: set() for v in g.vertices}
            for tail, head in g.arcs:
                if tail != head:
                    expected[tail].add(head)
                    expected[head].add(tail)
            assert g.neighbours == expected
            assert g.neighbours is g.neighbours


class TestPublicApi:
    def test_all_names_resolve_without_duplicates(self):
        import relgraph

        assert len(relgraph.__all__) == len(set(relgraph.__all__))
        for name in relgraph.__all__:
            assert getattr(relgraph, name) is not None, name

    def test_algorithm_modules_import_only_core_and_errors(self):
        import ast
        import pathlib

        import relgraph

        allowed = {"relgraph.core", "relgraph.errors"}
        for path in sorted(pathlib.Path(relgraph.__file__).parent.glob("*.py")):
            if path.name in ("cli.py", "__init__.py"):
                continue
            imported = []
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported += [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    module = "relgraph" if node.level else node.module
                    if node.level and node.module:
                        module += "." + node.module
                    if module == "relgraph":  # `from . import x` names modules
                        imported += [f"relgraph.{alias.name}" for alias in node.names]
                    else:
                        imported.append(module)
            package = {name for name in imported if name.split(".")[0] == "relgraph"}
            assert package <= allowed, (path.name, sorted(package - allowed))
