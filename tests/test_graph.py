import numpy as np
import pytest

from commselect import (Graph, Partition, parse_edge_list, parse_partition,
                        with_unit_weights, write_edge_list, write_partition)
from commselect.graph import EdgeError
from conftest import build_complete, build_star, random_graph


class TestGraphConstruction:
    def test_basic(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))
        assert g.neighbors(1) == ((0, 1.0), (2, 2.0))

    def test_canonical_edge_order(self):
        g = Graph(3, [(2, 1, 5.0), (1, 0, 1.0)])
        assert g.edges == ((0, 1, 1.0), (1, 2, 5.0))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0, 1.0)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            Graph(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError, match="weight"):
            Graph(2, [(0, 1, -2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(2, [(0, 5, 1.0)])

    def test_rejected_row_is_named(self):
        # the first faulty row in input order; a repeat is its later copy
        for edges, row in (([(0, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0)], 2),
                           ([(0, 1, 1.0), (2, 1, 1.0), (1, 0, 2.0),
                             (0, 0, 1.0)], 2),
                           ([(0, 1, 1.0), (1, 2, -1.0), (2, 1, 1.0)], 1)):
            with pytest.raises(EdgeError) as err:
                Graph(3, edges)
            assert err.value.row == row

    def test_degree_sum_is_twice_edges(self, rng):
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 15)))
            assert int(g.degrees.sum()) == 2 * g.edge_count
            assert g.strengths.sum() == pytest.approx(2 * g.total_weight)


class TestNodeStats:
    def test_triangle(self):
        g = build_complete(3)
        for v in range(3):
            assert (g.degree(v), g.strength(v)) == (2, 2.0)

    def test_star_center(self):
        g = build_star(3, weights=[1.0, 2.0, 3.0])
        assert (g.degree(0), g.strength(0)) == (3, 6.0)

    def test_isolated(self):
        g = Graph(3, [(0, 1, 1.0)])
        assert (g.degree(2), g.strength(2)) == (0, 0.0)

    def test_out_of_range(self):
        g = build_complete(3)
        with pytest.raises(ValueError):
            g.degree(3)
        with pytest.raises(ValueError):
            g.strength(3)


class TestUnitWeights:
    def test_flattens_weights(self):
        g = Graph(3, [(0, 1, 0.5), (1, 2, 7.0)])
        u = with_unit_weights(g)
        assert u.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_idempotent(self, two_k3):
        assert with_unit_weights(two_k3) == two_k3

    def test_empty_graph(self):
        g = Graph(4, [])
        assert with_unit_weights(g) == g

    def test_preserves_degrees(self, rng):
        g = random_graph(rng, 12)
        u = with_unit_weights(g)
        assert np.array_equal(u.degrees, g.degrees)
        assert np.array_equal(u.strengths, u.degrees.astype(float))


class TestEdgeListIO:
    def test_parse_simple(self):
        g = parse_edge_list("0 1 1.0\n1 2 2.0")
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))

    def test_parse_default_weight(self):
        g = parse_edge_list("0 1\n")
        assert g.n == 2
        assert g.edges == ((0, 1, 1.0),)

    def test_parse_tabs_and_comments(self):
        g = parse_edge_list("# a comment\n0\t1\t2.5\n\n2 0\n")
        assert g.edges == ((0, 1, 2.5), (0, 2, 1.0))

    def test_parse_self_loop_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("0 1\n0 0 1.0\n")

    def test_parse_duplicate_names_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_edge_list("0 1\n1 2\n1 0 3.0\n")

    def test_parse_bad_weight(self):
        with pytest.raises(ValueError, match="weight"):
            parse_edge_list("0 1 zero\n")
        with pytest.raises(ValueError, match="non-positive"):
            parse_edge_list("0 1 -1\n")

    def test_parse_malformed(self):
        with pytest.raises(ValueError, match="expected"):
            parse_edge_list("0 1 2 3\n")
        with pytest.raises(ValueError, match="node id"):
            parse_edge_list("a b\n")

    def test_sparse_ids_compacted(self):
        g = parse_edge_list("10 20 1.5\n20 40\n")
        assert g.n == 3
        assert g.labels == (10, 20, 40)
        assert g.edges == ((0, 1, 1.5), (1, 2, 1.0))
        # writing restores the original ids
        assert "10\t20" in write_edge_list(g)

    def test_sparse_ids_roundtrip(self):
        # the written `# nodes 3` is met by three ids that are not all
        # below 3, so they are read back as labels, with no phantom nodes
        g = parse_edge_list("10 20 1.5\n20 40\n")
        back = parse_edge_list(write_edge_list(g))
        assert back.n == 3
        assert back.edges == g.edges
        assert back.labels == (10, 20, 40)
        assert parse_edge_list("# nodes 3\n5 1\n1 9\n").labels == (1, 5, 9)

    def test_labelled_isolated_node_rejected(self):
        # a label that no edge names cannot be written
        g = Graph(3, [(0, 1, 1.0)], labels=(10, 20, 30))
        with pytest.raises(ValueError, match="30"):
            write_edge_list(g)

    def test_labels_out_of_parse_order_rejected(self):
        # labels all below n would be read back as node indices, and
        # labels out of order would come back in another node order
        for labels in ((2, 0, 1), (5, 1, 9), (-1, 0, 1)):
            g = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)], labels=labels)
            with pytest.raises(ValueError, match="ascend"):
                write_edge_list(g)
        g = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)], labels=(0, 1, 2))
        assert parse_edge_list(write_edge_list(g)) == g

    def test_errors_quote_the_line(self):
        # one shape for every fault: the line number, the reason and the
        # line as written, so a labelled edge is named by its file ids
        for text, message in (
                ("10 20\n20\t20\n", "line 2: self-loop on node 1 in '20\\t20'"),
                ("0 1\n0 1 2 3\n", "line 2: expected 'u v [w]' in '0 1 2 3'"),
                ("0 1\n1 0\n# nodes -1\n",
                 "line 2: duplicate edge (0,1) in '1 0'"),
                ("# nodes 2\n10 20\n20 40\n", "line 1: 2 nodes declared, but "
                 "the 3 distinct ids are not all below 2 in '# nodes 2'")):
            with pytest.raises(ValueError) as err:
                parse_edge_list(text)
            assert str(err.value) == message

    def test_unmet_node_count_names_line(self):
        # ids past the declared count must be exactly that many labels
        for text in ("# c\n# nodes 2\n10 20\n20 40\n",
                     "# c\n# nodes 4\n10 20\n20 40\n"):
            with pytest.raises(ValueError, match="line 2"):
                parse_edge_list(text)

    def test_negative_node_count_names_line(self):
        for text, line in (("0 1\n# nodes -2\n", "line 2"),
                           ("# nodes -1\n", "line 1")):
            with pytest.raises(ValueError, match=line):
                parse_edge_list(text)

    def test_write_canonical(self):
        g = Graph(2, [(1, 0, 2.0)])
        text = write_edge_list(g)
        assert "0\t1\t2.000000000" in text

    def test_roundtrip_exact(self, rng):
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 20)), p=0.3)
            back = parse_edge_list(write_edge_list(g))
            assert back.n == g.n
            assert len(back.edges) == len(g.edges)
            for (u1, v1, w1), (u2, v2, w2) in zip(back.edges, g.edges):
                assert (u1, v1) == (u2, v2)
                assert w1 == pytest.approx(w2, rel=1e-9)

    def test_roundtrip_edgeless_and_isolated(self):
        g = Graph(5, [(0, 1, 1.0)])  # nodes 2..4 isolated
        assert parse_edge_list(write_edge_list(g)).n == 5
        empty = Graph(4, [])
        assert parse_edge_list(write_edge_list(empty)).n == 4

    def test_small_weights_survive(self):
        g = Graph(2, [(0, 1, 3.25e-7)])
        back = parse_edge_list(write_edge_list(g))
        assert back.edges[0][2] == pytest.approx(3.25e-7, rel=1e-9)


class TestPartition:
    def test_dense_required(self):
        with pytest.raises(ValueError, match="dense"):
            Partition([0, 2, 2])

    def test_from_labels_renumbers(self):
        p = Partition.from_labels([7, 7, 3, 9])
        assert list(p.membership) == [0, 0, 1, 2]
        assert p.community_count == 3

    def test_members(self):
        p = Partition([0, 1, 0, 1])
        assert p.members() == ((0, 2), (1, 3))

    def test_partition_io_roundtrip(self):
        p = Partition([0, 1, 1, 0, 2])
        text = write_partition(p)
        assert "0\t0" in text.splitlines()[0]
        back = parse_partition(text)
        assert back == p

    def test_partition_parse_errors(self):
        with pytest.raises(ValueError, match="twice"):
            parse_partition("0 1\n0 2\n")
        with pytest.raises(ValueError, match="dense"):
            parse_partition("0 0\n2 0\n")
        with pytest.raises(ValueError, match="empty"):
            parse_partition("# nothing\n")
