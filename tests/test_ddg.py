"""Unit tests for the dependence graph and its analyses."""

import pytest

from repro.ir import DataDependenceGraph, GraphError, Instruction, Opcode


def diamond() -> DataDependenceGraph:
    """li -> (add, add) -> fadd: the classic diamond."""
    g = DataDependenceGraph(name="diamond")
    a = g.new_instruction(Opcode.LI)
    b = g.new_instruction(Opcode.ADD, (a.uid,))
    c = g.new_instruction(Opcode.ADD, (a.uid,))
    g.new_instruction(Opcode.ADD, (b.uid, c.uid))
    return g


class TestConstruction:
    def test_uid_must_be_dense(self):
        g = DataDependenceGraph()
        with pytest.raises(GraphError):
            g.add_instruction(Instruction(uid=1, opcode=Opcode.LI))

    def test_new_instruction_adds_data_edges(self):
        g = diamond()
        assert {e.src for e in g.predecessors(3)} == {1, 2}
        assert all(e.kind == "data" for e in g.predecessors(3))

    def test_edge_latency_defaults_to_producer_latency(self):
        g = DataDependenceGraph()
        load = g.new_instruction(Opcode.LOAD)
        use = g.new_instruction(Opcode.ADD, (load.uid,))
        (edge,) = g.predecessors(use.uid)
        assert edge.latency == 3  # R4000 load

    def test_out_of_range_edge_rejected(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.add_dependence(0, 99)

    def test_len_and_iter(self):
        g = diamond()
        assert len(g) == 4
        assert [i.uid for i in g] == [0, 1, 2, 3]


class TestTopology:
    def test_topological_order_respects_edges(self):
        g = diamond()
        order = g.topological_order()
        position = {uid: i for i, uid in enumerate(order)}
        for e in g.edges():
            assert position[e.src] < position[e.dst]

    def test_cycle_detection(self):
        g = diamond()
        g.add_dependence(3, 0, kind="order")
        with pytest.raises(GraphError, match="cycle"):
            g.topological_order()

    def test_roots_and_leaves(self):
        g = diamond()
        assert g.roots() == [0]
        assert g.leaves() == [3]

    def test_neighbors_no_duplicates(self):
        g = DataDependenceGraph()
        a = g.new_instruction(Opcode.LI)
        b = g.new_instruction(Opcode.ADD, (a.uid,))
        g.add_dependence(a.uid, b.uid, kind="order")  # parallel edge
        assert g.neighbors(b.uid) == [a.uid]

    def test_preplaced_listing(self):
        g = DataDependenceGraph()
        g.new_instruction(Opcode.LOAD, home_cluster=1)
        g.new_instruction(Opcode.LI)
        assert g.preplaced() == [0]


class TestTiming:
    def test_earliest_start_of_diamond(self):
        g = diamond()
        est = g.earliest_start()
        assert est[0] == 0
        assert est[1] == est[2] == 1  # after the 1-cycle li
        assert est[3] == 2

    def test_tail_length(self):
        g = diamond()
        tail = g.tail_length()
        assert tail[3] == 0
        assert tail[1] == tail[2] == 1
        assert tail[0] == 2

    def test_critical_path_length_single_node(self):
        g = DataDependenceGraph()
        g.new_instruction(Opcode.ADD)
        assert g.critical_path_length() == 1

    def test_critical_path_length_empty(self):
        assert DataDependenceGraph().critical_path_length() == 0

    def test_cpl_latency_weighted(self):
        g = DataDependenceGraph()
        a = g.new_instruction(Opcode.LOAD)  # lat 3
        b = g.new_instruction(Opcode.FMUL, (a.uid,))  # lat 4
        g.new_instruction(Opcode.FADD, (b.uid,))
        assert g.critical_path_length() == 3 + 4 + 1

    def test_slack_zero_on_critical_path(self):
        g = diamond()
        slack = g.slack()
        assert slack[0] == 0
        assert slack[3] == 0
        assert slack[1] == 0 and slack[2] == 0  # symmetric diamond

    def test_slack_positive_off_critical_path(self):
        g = DataDependenceGraph()
        a = g.new_instruction(Opcode.LI)
        slow = g.new_instruction(Opcode.FMUL, (a.uid,))  # lat 4
        fast = g.new_instruction(Opcode.ADD, (a.uid,))  # lat 1
        g.new_instruction(Opcode.ADD, (slow.uid, fast.uid))
        assert g.slack()[fast.uid] == 3

    def test_levels_are_hop_counts(self):
        g = DataDependenceGraph()
        a = g.new_instruction(Opcode.LOAD)
        b = g.new_instruction(Opcode.FMUL, (a.uid,))
        g.new_instruction(Opcode.ADD, (b.uid,))
        assert g.levels() == [0, 1, 2]

    def test_mutation_invalidates_caches(self):
        g = diamond()
        before = g.critical_path_length()
        g.new_instruction(Opcode.FMUL, (3,))
        assert g.critical_path_length() > before


class TestCriticalPath:
    def test_critical_path_is_a_real_path(self):
        g = diamond()
        path = g.critical_path()
        assert path[0] == 0 and path[-1] == 3
        for a, b in zip(path, path[1:]):
            assert any(e.dst == b for e in g.successors(a))

    def test_critical_path_follows_longest_latency(self):
        g = DataDependenceGraph()
        a = g.new_instruction(Opcode.LI)
        slow = g.new_instruction(Opcode.FDIV, (a.uid,))  # lat 12
        fast = g.new_instruction(Opcode.ADD, (a.uid,))
        g.new_instruction(Opcode.ADD, (slow.uid, fast.uid))
        assert slow.uid in g.critical_path()

    def test_empty_graph_path(self):
        assert DataDependenceGraph().critical_path() == []


class TestDistances:
    def test_undirected_distances_ignore_direction(self):
        g = diamond()
        dist = g.undirected_distances([3])
        assert dist[3] == 0
        assert dist[1] == dist[2] == 1
        assert dist[0] == 2

    def test_multi_source(self):
        g = diamond()
        dist = g.undirected_distances([0, 3])
        assert max(dist) == 1

    def test_unreachable_gets_graph_size(self):
        g = DataDependenceGraph()
        g.new_instruction(Opcode.LI)
        g.new_instruction(Opcode.LI)  # disconnected
        dist = g.undirected_distances([0])
        assert dist[1] == len(g)


class TestValidate:
    def test_valid_graph_passes(self):
        diamond().validate()

    def test_operand_without_edge_fails(self):
        g = DataDependenceGraph()
        g.add_instruction(Instruction(uid=0, opcode=Opcode.LI))
        g.add_instruction(Instruction(uid=1, opcode=Opcode.ADD, operands=(0,)))
        with pytest.raises(GraphError, match="no data edge"):
            g.validate()

    def test_reading_valueless_producer_fails(self):
        g = DataDependenceGraph()
        a = g.new_instruction(Opcode.LI)
        store = g.new_instruction(Opcode.STORE, (a.uid,))
        g.new_instruction(Opcode.ADD, (store.uid,))
        with pytest.raises(GraphError, match="defines no value"):
            g.validate()

    def test_mem_edge_between_non_memory_fails(self):
        g = DataDependenceGraph()
        g.new_instruction(Opcode.LI)
        g.new_instruction(Opcode.ADD)
        g.add_dependence(0, 1, kind="mem")
        with pytest.raises(GraphError, match="non-memory"):
            g.validate()

    def test_summary_mentions_name_and_counts(self):
        g = diamond()
        text = g.summary()
        assert "diamond" in text
        assert "4 instrs" in text
