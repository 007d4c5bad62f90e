"""Structure learning and BN compilation: oracles and frozen values."""

import itertools

import numpy as np
import pytest

from picirc.circuit import check_structure, post_order
from picirc.structures import (
    LatentTree,
    bn_to_pic,
    chow_liu_tree,
    hclt_structure,
    max_spanning_tree,
    mutual_information,
    top_down_order,
    tree_from_json,
    tree_to_json,
)


def mi_oracle(data, i, j):
    """Direct double-sum plug-in MI, no smoothing."""
    n = len(data)
    total = 0.0
    for u in np.unique(data[:, i]):
        for v in np.unique(data[:, j]):
            puv = np.mean((data[:, i] == u) & (data[:, j] == v))
            pu = np.mean(data[:, i] == u)
            pv = np.mean(data[:, j] == v)
            if puv > 0:
                total += puv * np.log(puv / (pu * pv))
    return total


def prufer_edges(seq, n):
    """Decode a Pruefer sequence into the labeled tree's edge list."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    seq = list(seq)
    edges = []
    for v in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [i for i in range(n) if degree[i] == 1]
    edges.append((last[0], last[1]))
    return edges


class TestMutualInformation:
    def test_identical_binary_columns_ln2(self):
        data = np.array([[0, 0], [1, 1], [0, 0], [1, 1]])
        assert mutual_information(data, 0, 1, smoothing=0.0) == pytest.approx(np.log(2))

    def test_independent_columns_zero(self):
        data = np.array(list(itertools.product([0, 1], [0, 1])))
        assert mutual_information(data, 0, 1, smoothing=0.0) == pytest.approx(0.0, abs=1e-15)

    def test_toy_table_matches_hand_sum(self):
        data = np.array([[0, 2], [0, 2], [1, 2], [1, 5]])
        got = mutual_information(data, 0, 1, smoothing=0.0)
        assert got == pytest.approx(mi_oracle(data, 0, 1), abs=1e-12)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 3, size=(50, 4))
        for a, b in itertools.combinations(range(4), 2):
            mab = mutual_information(data, a, b)
            assert mab == pytest.approx(mutual_information(data, b, a), abs=1e-14)
            assert mab >= 0.0

    def test_smoothing_shrinks_toward_independence(self):
        data = np.array([[0, 0], [1, 1], [0, 0], [1, 1]])
        assert mutual_information(data, 0, 1, smoothing=5.0) < np.log(2)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            mutual_information(np.empty((0, 2)), 0, 1)


class TestChowLiu:
    def test_pairing_beats_independent_variable(self):
        rng = np.random.default_rng(0)
        x1 = rng.integers(0, 2, size=200)
        x3 = rng.integers(0, 2, size=200)
        data = np.column_stack([x1, x1, x3])
        parent = chow_liu_tree(data)
        edges = {(min(i, int(p)), max(i, int(p))) for i, p in enumerate(parent) if p >= 0}
        assert (0, 1) in edges

    def test_tree_has_d_minus_1_edges_and_is_connected(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 4, size=(300, 6))
        parent = chow_liu_tree(data)
        assert parent[0] == -1
        assert np.sum(parent >= 0) == 5
        for i in range(6):
            k, steps = i, 0
            while parent[k] >= 0:
                k = parent[k]
                steps += 1
                assert steps <= 6
            assert k == 0

    def test_total_mi_matches_brute_force_over_125_trees(self):
        rng = np.random.default_rng(2)
        base = rng.integers(0, 3, size=(120, 5))
        base[:, 3] = (base[:, 0] + rng.integers(0, 2, size=120)) % 3
        base[:, 4] = base[:, 1]
        mi = np.zeros((5, 5))
        for i in range(5):
            for j in range(i + 1, 5):
                mi[i, j] = mi[j, i] = mutual_information(base, i, j, smoothing=0.01)
        parent = chow_liu_tree(base, smoothing=0.01)
        learned = sum(mi[i, int(p)] for i, p in enumerate(parent) if p >= 0)
        best = max(
            sum(mi[a, b] for a, b in prufer_edges(seq, 5))
            for seq in itertools.product(range(5), repeat=3)
        )
        assert learned == pytest.approx(best, abs=1e-12)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0, 1, size=(6, 6))
        w = (w + w.T) / 2
        np.testing.assert_array_equal(max_spanning_tree(w), max_spanning_tree(2.0 * w))


class TestHcltStructure:
    def test_two_variable_chain(self):
        tree = hclt_structure(np.array([-1, 0]), family="categorical", num_states=2)
        assert tree.latent_parent == (None, 0)
        assert tree.obs_parent == (0, 1)
        assert tree.is_hclt

    def test_counts(self):
        parent = np.array([-1, 0, 0, 1])
        tree = hclt_structure(parent, family="categorical", num_states=4)
        assert tree.num_latents == 4
        assert tree.num_observables == 4
        assert all(c["type"] == "neural" for c in tree.latent_cond)
        assert tree.obs_cond[2]["family"] == "categorical"

    def test_skeleton_mirrors_clt(self):
        parent = np.array([-1, 0, 1, 1, 2])
        tree = hclt_structure(parent, family="binomial", num_states=3)
        assert tree.latent_parent == (None, 0, 1, 1, 2)
        tree.validate()

    def test_json_round_trip(self):
        tree = hclt_structure(np.array([-1, 0, 0]), family="categorical", num_states=5)
        again = tree_from_json(tree_to_json(tree))
        assert again == tree


def fig_c1_tree():
    """Four latents: 0 at the root with children 1 and 2; 3 under 1.
    One gaussian observable per latent."""
    lg = lambda: {"type": "linear-gaussian", "a": 0.5, "b": 0.0, "sigma": 1.0}
    obs = lambda: {"type": "linear-gaussian", "c": 1.0, "d": 0.0, "tau": 1.0}
    return LatentTree(
        latent_parent=(None, 0, 0, 1),
        obs_parent=(0, 1, 2, 3),
        latent_cond=(lg(), lg(), lg(), lg()),
        obs_cond=(obs(), obs(), obs(), obs()),
    )


class TestTopDownOrder:
    def test_breadth_first_children_in_index_order(self):
        assert top_down_order((3, 3, 0, None, 2)) == [3, 0, 1, 2, 4]
        assert top_down_order((None,)) == [0]

    @pytest.mark.parametrize(
        "latent_parent, message",
        [
            ((0, 1), "exactly one root, found 0"),
            ((None, None), "exactly one root, found 2"),
            ((None, 2), "parent 2 out of range"),
            ((None, -1), "parent -1 out of range"),
            ((None, 2, 1), "latent 1 is not reachable"),
            ((None, 0, 3, 2, 3), "latent 2 is not reachable"),
        ],
    )
    def test_malformed_maps_raise(self, latent_parent, message):
        with pytest.raises(ValueError, match=message):
            top_down_order(latent_parent)

    def test_tree_validate_rejects_cycles(self):
        tree = fig_c1_tree()
        cyclic = LatentTree((None, 3, 0, 1), tree.obs_parent, tree.latent_cond, tree.obs_cond)
        with pytest.raises(ValueError, match="cycle"):
            cyclic.validate()


class TestBnToPic:
    def test_single_pair_is_integral_over_input(self):
        tree = LatentTree(
            latent_parent=(None,),
            obs_parent=(0,),
            latent_cond=({"type": "linear-gaussian", "a": 0.0, "b": 0.0, "sigma": 1.0},),
            obs_cond=({"type": "linear-gaussian", "c": 1.0, "d": 0.0, "tau": 1.0},),
        )
        pic = bn_to_pic(tree)
        assert len(pic.units) == 2
        assert [u.kind for u in pic.units] == ["input", "integral"]

    def test_explicit_children_first_order(self):
        pic = bn_to_pic(fig_c1_tree(), order=[3, 1, 2, 0])
        assert len(pic.integral_units()) == 4
        rep = check_structure(pic)
        assert rep.smooth and rep.decomposable and rep.structured
        assert pic.units[pic.root].latent["var"] == 0

    def test_parent_before_child_rejected(self):
        with pytest.raises(ValueError, match="before its child"):
            bn_to_pic(fig_c1_tree(), order=[0, 1, 2, 3])

    def test_missing_latent_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            bn_to_pic(fig_c1_tree(), order=[1, 2, 0])

    def test_single_child_products_pruned(self):
        pic = bn_to_pic(fig_c1_tree())
        for u in pic.units:
            if u.kind == "product":
                assert len(u.children) > 1

    def test_default_order_on_random_trees(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 12))
            parent = np.full(d, -1)
            for i in range(1, d):
                parent[i] = rng.integers(0, i)
            tree = hclt_structure(parent, family="categorical", num_states=3)
            pic = bn_to_pic(tree)
            rep = check_structure(pic)
            assert rep.smooth and rep.decomposable and rep.structured
            integrals = pic.integral_units()
            assert len(integrals) == d
            assert sorted(u.latent["var"] for u in integrals) == list(range(d))
            refs = np.zeros(len(pic.units), dtype=int)
            for u in pic.units:
                for c in u.children:
                    refs[c] += 1
            assert refs[pic.root] == 0
            assert np.all(refs[np.arange(len(pic.units)) != pic.root] == 1)

    def test_latents_integrate_own_conditionals(self):
        pic = bn_to_pic(fig_c1_tree())
        by_var = {u.latent["var"]: u for u in pic.integral_units()}
        assert by_var[0].latent["parent"] is None
        assert by_var[3].latent["parent"] == 1
        order = post_order(pic)
        assert order[-1] == pic.root
