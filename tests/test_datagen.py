import math
from collections import Counter

import pytest

from hopcompress import FamilySpec, builtin, gen_gnm


class TestGenGnm:
    def test_exact_dimensions(self):
        g = gen_gnm(20, 60, seed=7)
        assert g.n == 20 and g.m == 60

    def test_forced_complete_graph(self):
        g = gen_gnm(3, 3, seed=0)
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_empty_graph(self):
        g = gen_gnm(5, 0, seed=1)
        assert g.n == 5 and g.m == 0

    def test_capacity_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            gen_gnm(4, 7, seed=0)

    def test_deterministic_per_seed(self):
        assert gen_gnm(12, 30, 5).edge_set() == gen_gnm(12, 30, 5).edge_set()
        assert gen_gnm(12, 30, 5).edge_set() != gen_gnm(12, 30, 6).edge_set()

    def test_edge_inclusion_uniform(self):
        # every possible edge should appear with frequency m / C(n,2)
        n, m, trials = 6, 5, 2000
        counts = Counter()
        for seed in range(trials):
            for e in gen_gnm(n, m, seed).edges():
                counts[e] += 1
        capacity = n * (n - 1) // 2
        assert len(counts) == capacity
        p = m / capacity
        sigma = math.sqrt(p * (1 - p) / trials)
        for e, hits in counts.items():
            assert abs(hits / trials - p) <= 3 * sigma, e


class TestFamilySpec:
    def test_validates_capacity(self):
        with pytest.raises(ValueError):
            FamilySpec(count=1, n=4, m=10)

    def test_validates_count(self):
        with pytest.raises(ValueError):
            FamilySpec(count=0, n=4, m=3)

    @pytest.mark.parametrize(("n", "m", "field"), [(-1, 0, "n"), (5, -1, "m")])
    def test_rejects_negative_size(self, n, m, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0$"):
            FamilySpec(count=1, n=n, m=m)

    def test_describe(self):
        assert FamilySpec(count=30, n=20, m=60, seed=1).describe() == "G(20,60) x30 seed=1"


class TestBuiltins:
    def test_diamond_shape(self):
        g = builtin("diamond")
        assert g.n == 4 and g.m == 5
        degrees = sorted(g.degree(v) for v in range(4))
        assert degrees == [2, 2, 3, 3]

    def test_triangle(self):
        assert builtin("triangle").m == 3

    def test_path3_and_star4(self):
        assert sorted(builtin("path3").edges()) == [(0, 1), (1, 2)]
        assert sorted(builtin("star4").edges()) == [(0, 1), (0, 2), (0, 3)]

    def test_zachary_dimensions(self):
        g = builtin("zachary")
        assert g.n == 34 and g.m == 78
        # the two club leaders are the highest-degree hubs
        assert g.degree(33) == 17
        assert g.degree(0) == 16
        assert max(g.degree(v) for v in range(g.n)) == 17

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown builtin"):
            builtin("petersen")
