"""Unit tests for the synthetic graph families (Figure 2)."""


from repro.analysis import graph_shape
from repro.workloads import fat_graph, layered_graph, thin_graph


class TestThinGraphs:
    def test_size_near_target(self):
        for n in (50, 200, 800):
            ddg = thin_graph(n).regions[0].ddg
            assert abs(len(ddg) - n) <= max(8, n // 10)

    def test_thin_graphs_are_thin(self):
        shape = graph_shape(thin_graph(300).regions[0].ddg)
        assert not shape.is_fat

    def test_deterministic_per_seed(self):
        a = thin_graph(100, seed=3).regions[0].ddg
        b = thin_graph(100, seed=3).regions[0].ddg
        assert len(a) == len(b) and a.edge_count() == b.edge_count()

    def test_seeds_vary_structure(self):
        a = thin_graph(100, seed=0).regions[0].ddg
        b = thin_graph(100, seed=1).regions[0].ddg
        assert (
            a.critical_path_length() != b.critical_path_length()
            or a.edge_count() != b.edge_count()
        )

    def test_valid_graph(self):
        thin_graph(150).regions[0].ddg.validate()


class TestFatGraphs:
    def test_fat_graphs_are_fat(self):
        shape = graph_shape(fat_graph(300).regions[0].ddg)
        assert shape.is_fat

    def test_fat_has_more_parallelism_than_thin(self):
        fat = graph_shape(fat_graph(300).regions[0].ddg)
        thin = graph_shape(thin_graph(300).regions[0].ddg)
        assert fat.parallelism > 2 * thin.parallelism

    def test_memory_ops_have_banks(self):
        ddg = fat_graph(100, banks=8).regions[0].ddg
        for inst in ddg:
            if inst.is_memory:
                assert 0 <= inst.bank < 8

    def test_valid_graph(self):
        fat_graph(200).regions[0].ddg.validate()


class TestLayeredGraphs:
    def test_width_controls_parallelism(self):
        narrow = graph_shape(layered_graph(300, width=2).regions[0].ddg)
        wide = graph_shape(layered_graph(300, width=16).regions[0].ddg)
        assert wide.parallelism > narrow.parallelism

    def test_size_scaling(self):
        small = layered_graph(100).regions[0].ddg
        large = layered_graph(1000).regions[0].ddg
        assert len(large) > 5 * len(small)

    def test_valid_graph(self):
        layered_graph(250, width=6).regions[0].ddg.validate()

    def test_deterministic(self):
        a = layered_graph(200, seed=9).regions[0].ddg
        b = layered_graph(200, seed=9).regions[0].ddg
        assert len(a) == len(b)
