"""Tests for repro.privacy.tree_mechanism: Algorithms 2 and 3."""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowdsourcing import publish_tree
from repro.geometry import Box
from repro.hst import build_hst, lca_level, tree_distance
from repro.privacy import ENUMERATION_LEAF_LIMIT, TreeMechanism, tree_mechanism
from repro.privacy.tree_mechanism import TURN_PLAIN_MAX_ROWS

from .conftest import random_point_set, random_tree


@pytest.fixture(scope="module")
def mech(example1_tree_module):
    return TreeMechanism(example1_tree_module, epsilon=0.1, seed=0)


@pytest.fixture(scope="module")
def example1_tree_module():
    from .conftest import EXAMPLE1_POINTS

    return build_hst(EXAMPLE1_POINTS, beta=0.5, permutation=[0, 1, 2, 3])


class TestProbabilities:
    def test_example2_probabilities(self, mech, example1_tree_module):
        """The paper's Example 2: obfuscating o1 with eps = 0.1."""
        o1 = example1_tree_module.path_of(0)
        assert mech.probability(o1, o1) == pytest.approx(0.394, abs=5e-4)
        # f3 in Example 3 is a level-2 sibling: probability 0.119
        assert mech.probability(o1, (0, 0, 1, 0)) == pytest.approx(0.119, abs=5e-4)
        # o3 (level 4): probability ~0.001
        o3 = example1_tree_module.path_of(2)
        assert mech.probability(o1, o3) == pytest.approx(0.001, abs=5e-4)

    def test_distribution_sums_to_one(self, mech, example1_tree_module):
        dist = mech.distribution(example1_tree_module.path_of(1))
        assert sum(dist.values()) == pytest.approx(1.0)
        assert len(dist) == example1_tree_module.num_leaves

    def test_distribution_depends_only_on_lca_level(self, mech, example1_tree_module):
        x = example1_tree_module.path_of(0)
        dist = mech.distribution(x)
        for z, p in dist.items():
            assert p == pytest.approx(
                mech.weights.leaf_probability(lca_level(x, z))
            )

    def test_probability_validates_paths(self, mech):
        with pytest.raises(ValueError):
            mech.probability((0, 0, 0), (0, 0, 0, 0))


class TestSamplersAgree:
    """Theorem 2: all three samplers realize the same distribution."""

    N_SAMPLES = 4000

    def _empirical(self, mechanism, x, method, seed):
        rng = np.random.default_rng(seed)
        sampler = {
            "walk": mechanism.obfuscate_walk,
            "level": mechanism.obfuscate_level,
            "enumerate": mechanism.obfuscate_enumerate,
        }[method]
        counts = {}
        for _ in range(self.N_SAMPLES):
            z = sampler(x, rng)
            counts[z] = counts.get(z, 0) + 1
        return counts

    @pytest.mark.parametrize("method", ["walk", "level", "enumerate"])
    def test_sampler_matches_exact_distribution(
        self, mech, example1_tree_module, method
    ):
        x = example1_tree_module.path_of(0)
        exact = mech.distribution(x)
        counts = self._empirical(mech, x, method, seed=99)
        tv = 0.5 * sum(
            abs(counts.get(z, 0) / self.N_SAMPLES - p) for z, p in exact.items()
        )
        assert tv < 0.05
        assert set(counts) <= set(exact)

    def test_walk_equals_level_on_random_trees(self):
        """Compare the two O(D) samplers through their LCA-level marginals
        (the sufficient statistic: within a level both are uniform, which
        the exact-distribution test above verifies)."""
        for seed in range(3):
            tree = random_tree(n=8, seed=seed)
            mechanism = TreeMechanism(tree, epsilon=0.08)
            x = tree.path_of(seed % tree.n_points)
            walk = self._empirical(mechanism, x, "walk", seed=seed)
            level = self._empirical(mechanism, x, "level", seed=seed + 50)
            depth = tree.depth
            walk_marginal = np.zeros(depth + 1)
            level_marginal = np.zeros(depth + 1)
            for z, c in walk.items():
                walk_marginal[lca_level(x, z)] += c
            for z, c in level.items():
                level_marginal[lca_level(x, z)] += c
            tv = 0.5 * np.abs(
                walk_marginal - level_marginal
            ).sum() / self.N_SAMPLES
            assert tv < 0.06

    def test_default_method_dispatch(self, example1_tree_module):
        for method in ("walk", "level", "enumerate"):
            m = TreeMechanism(example1_tree_module, 0.1, method=method, seed=1)
            z = m.obfuscate(example1_tree_module.path_of(0))
            assert len(z) == example1_tree_module.depth

    def test_unknown_method_rejected(self, example1_tree_module):
        with pytest.raises(ValueError):
            TreeMechanism(example1_tree_module, 0.1, method="magic")


class TestWalkMechanics:
    def test_outputs_are_valid_leaves(self, mech, example1_tree_module):
        rng = np.random.default_rng(5)
        x = example1_tree_module.path_of(3)
        for _ in range(200):
            z = mech.obfuscate_walk(x, rng)
            example1_tree_module.validate_path(z)

    def test_can_output_fake_leaves(self, mech, example1_tree_module):
        """Example 3's essence: o1 may be obfuscated to fake leaf f3."""
        rng = np.random.default_rng(8)
        x = example1_tree_module.path_of(0)
        outputs = {mech.obfuscate_walk(x, rng) for _ in range(500)}
        fakes = {z for z in outputs if not example1_tree_module.is_real_leaf(z)}
        assert fakes  # fake leaves must be reachable

    def test_unary_tree_returns_input(self):
        tree = build_hst([(2.0, 2.0)], seed=0)
        m = TreeMechanism(tree, epsilon=0.5, seed=0)
        assert m.obfuscate_walk(tree.path_of(0)) == tree.path_of(0)

    def test_huge_epsilon_rarely_moves(self, example1_tree_module):
        m = TreeMechanism(example1_tree_module, epsilon=20.0, seed=3)
        x = example1_tree_module.path_of(2)
        outputs = {m.obfuscate_walk(x) for _ in range(100)}
        assert outputs == {x}

    def test_tiny_epsilon_moves_far(self, example1_tree_module):
        m = TreeMechanism(example1_tree_module, epsilon=1e-4, seed=3)
        x = example1_tree_module.path_of(2)
        levels = [
            lca_level(x, m.obfuscate_walk(x)) for _ in range(300)
        ]
        # with eps ~ 0 the distribution is near-uniform over leaves, and
        # most leaves of a complete binary tree sit at the top level
        assert np.mean(levels) > 2.0

    def test_obfuscate_point_helper(self, mech, example1_tree_module):
        z = mech.obfuscate_point(1, np.random.default_rng(0))
        example1_tree_module.validate_path(z)

    def test_obfuscate_many_length(self, mech, example1_tree_module):
        xs = [example1_tree_module.path_of(i) for i in range(4)]
        zs = mech.obfuscate_many(xs, np.random.default_rng(0))
        assert len(zs) == 4


class TestExpectedTreeDistance:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
    def test_matches_bruteforce_on_example1(self, example1_tree_module, eps):
        m = TreeMechanism(example1_tree_module, epsilon=eps)
        for u_idx in range(4):
            for v_idx in range(4):
                u = example1_tree_module.path_of(u_idx)
                v = example1_tree_module.path_of(v_idx)
                brute = sum(
                    p * tree_distance(z, v)
                    for z, p in m.distribution(u).items()
                )
                assert m.expected_tree_distance(u, v) == pytest.approx(brute)

    def test_matches_bruteforce_on_random_trees(self):
        for seed in range(4):
            tree = random_tree(n=6, seed=seed + 20)
            m = TreeMechanism(tree, epsilon=0.07)
            u = tree.path_of(0)
            v = tree.path_of(tree.n_points - 1)
            brute = sum(
                p * tree_distance(z, v) for z, p in m.distribution(u).items()
            )
            assert m.expected_tree_distance(u, v) == pytest.approx(brute)

    def test_self_expectation_is_displacement(self, example1_tree_module):
        m = TreeMechanism(example1_tree_module, epsilon=0.1)
        u = example1_tree_module.path_of(0)
        assert m.expected_tree_distance(u, u) == pytest.approx(
            m.weights.expected_displacement
        )


class TestEnumerationGuard:
    def test_large_tree_enumeration_refused(self):
        pts = random_point_set(200, 0, side=256.0)
        tree = build_hst(pts, seed=0)
        if tree.num_leaves <= ENUMERATION_LEAF_LIMIT:
            pytest.skip("random tree unexpectedly small")
        m = TreeMechanism(tree, epsilon=0.5)
        with pytest.raises(ValueError):
            m.distribution(tree.path_of(0))
        with pytest.raises(ValueError):
            m.obfuscate_enumerate(tree.path_of(0))

    def test_walk_still_fine_on_large_tree(self):
        pts = random_point_set(200, 0, side=256.0)
        tree = build_hst(pts, seed=0)
        m = TreeMechanism(tree, epsilon=0.5, seed=1)
        z = m.obfuscate_walk(tree.path_of(0))
        tree.validate_path(z)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 1000),
    eps=st.floats(0.02, 1.0),
    point=st.integers(0, 7),
)
def test_property_level_marginals_match_theory(seed, eps, point):
    """The sampled LCA-level marginal matches the closed-form level_probs."""
    tree = random_tree(n=8, seed=seed)
    m = TreeMechanism(tree, epsilon=eps)
    x = tree.path_of(point % tree.n_points)
    rng = np.random.default_rng(seed)
    n = 1500
    levels = np.array([lca_level(x, m.obfuscate_walk(x, rng)) for _ in range(n)])
    for lvl in range(tree.depth + 1):
        expected = m.weights.level_probs[lvl]
        observed = float(np.mean(levels == lvl))
        assert abs(observed - expected) < 0.06


#: Reports of the batch kernel at fixed seeds, recorded from the (n, D)
#: path-row kernel it replaced (rows read as base-c leaf indices), with
#: the PCG64 state after each call: (grid, epsilon) -> (c, D, leaves
#: per call, state after each call) for the RECORDED_SIZES calls, which
#: alternate batches of one (the per-task path) and larger batches; see
#: _pinned_run.
PINNED_REPORTS = {
    (6, 0.1): (
        10,
        8,
        [
            [800231],
            [30653],
            [1100040],
            [500136, 10033, 54903, 1110058, 400145, 2100315, 200223, 202241, 514951],
            [500643],
            [3000061],
            [300020, 610098, 2000023, 60076, 2009028, 76167, 610096, 200613, 1300000,
                200711, 110128, 230296, 900053, 70145, 303398, 704529, 16240, 100575,
                701523, 908079, 610405, 67517, 110071, 30061, 1301069],
            [900704],
        ],
        [
            317319928805135160732659717497650841180,
            152261761237047187080279356346465986730,
            262244773524709030991986015855808125320,
            241966511854830259324346282226780654118,
            230030106719901274855931500774267093284,
            325752660413432961794000234001129031986,
            76907444631967330713181332997872252467,
            26948989840944914108615242904352420425,
        ],
    ),
    (6, 2.0): (
        10,
        8,
        [
            [800000],
            [30000],
            [1100000],
            [500000, 10000, 50000, 1110000, 400000, 2100000, 200000, 200000, 510000],
            [500000],
            [3000000],
            [300000, 610000, 2000000, 60000, 2000000, 70000, 610000, 200000, 1300000,
                200000, 110000, 230000, 900000, 70000, 300000, 700000, 10000, 100000,
                700000, 900000, 610000, 60000, 110000, 30000, 1300000],
            [900000],
        ],
        [
            246015680626727362903009552921353769599,
            158467206350786370838518872568213093796,
            36161305186769027842332836973718056093,
            216063246838127722846565708659362783666,
            279681461867768646018360489320580438115,
            325294137605446664650238027523124685848,
            18016174594366547305946039707609293865,
            174718512225906865463277455530823048310,
        ],
    ),
    (16, 0.1): (
        17,
        9,
        [
            [122379695],
            [123778758],
            [2843843],
            [99394517, 7131235, 51121788, 96552237, 870810, 14245734, 10189, 254500,
                24141370],
            [49788361],
            [79516676],
            [1520480, 122468938, 76779517, 2927174, 1668289, 4497030, 122529018, 104309,
                255692, 170008, 5935538, 76760597, 49867206, 75593866, 954803, 75587726,
                7100261, 561328, 74028159, 49862055, 2894785, 5679428, 120749481, 2865355,
                257629],
            [49867121],
        ],
        [
            136447648406696553666025751119139575349,
            275566662063813308351500301701594506832,
            334373090476677896187671787082911712735,
            120139167756127297768365508171822379834,
            121351135836935802222181252642832634721,
            300281179627942317024026109942263260748,
            10744951573941754249858089036305492547,
            90489479320967939618538001812611590374,
        ],
    ),
    (16, 2.0): (
        17,
        9,
        [
            [122358265],
            [123778411],
            [2840581],
            [99389990, 7109113, 51119765, 96550276, 840412, 14198570, 10115, 250563,
                24137569],
            [49788342],
            [79512570],
            [1503378, 122441786, 76760712, 2923235, 1591812, 4441352, 122525596, 84099,
                255476, 167042, 5929991, 76755799, 49866950, 75591418, 918731, 75586505,
                7099863, 501126, 73999606, 49862037, 2844627, 5679717, 120687845, 2864279,
                255476],
            [49866950],
        ],
        [
            246015680626727362903009552921353769599,
            158467206350786370838518872568213093796,
            36161305186769027842332836973718056093,
            275566662063813308351500301701594506832,
            88550033470177683409263524973365160697,
            291953420558629910071102558238947742342,
            92077290391062589225006013946424352143,
            213819718814773627130094102456555149556,
        ],
    ),
}

#: sha256 of the JSON ``[leaves, states]`` of the sweep calls (every
#: batch size from 1 to SWEEP_MAX, after the recorded calls), recorded
#: from the numpy form before the plain-Python turn served more than a
#: batch of one.
PINNED_SWEEP = {
    (6, 0.1): "557d34d1e5606e4188a58d48c3f45d324b69ca01dee85e86638f7114800e4e14",
    (6, 2.0): "6c874769de841b63ef3b9d3333b4ab0c9d6b99a8070bd81375d96b3aec8b305c",
    (16, 0.1): "947d1aba3d490d6b14d5e89435009ee76e99bc89673c4afebc004fbd7ea43d7f",
    (16, 2.0): "191437279b7495dad5f63fdff8f8f3a4f6e7071b9d4d7f824045c055b67e567b",
}

#: batch sizes of the pinned call sequence: the recorded calls, then every
#: size from 1 to SWEEP_MAX, which covers every size the plain-Python turn
#: serves and the first the numpy form does
RECORDED_SIZES = [1, 1, 1, 9, 1, 1, 25, 1]
SWEEP_MAX = 40
PINNED_SIZES = [*RECORDED_SIZES, *range(1, SWEEP_MAX + 1)]


def _pinned_run(grid, eps, entry):
    """Replay the pinned call sequence; returns (tree, leaves, states)."""
    tree = publish_tree(Box.square(100.0), grid_nx=grid, seed=0)
    mech = TreeMechanism(tree, eps, seed=0)
    rng = np.random.default_rng(2024)
    points = np.random.default_rng(7).integers(
        0, tree.n_points, size=sum(PINNED_SIZES)
    )
    leaves, states, pos = [], [], 0
    for n in PINNED_SIZES:
        out = entry(mech, points[pos : pos + n], rng)
        pos += n
        assert out.dtype == np.int64 and out.shape == (n,)
        leaves.append(out.tolist())
        states.append(rng.bit_generator.state["state"]["state"])
    return tree, leaves, states


def _assert_pinned(grid, eps, leaves, states):
    _, _, pinned_leaves, pinned_states = PINNED_REPORTS[(grid, eps)]
    k = len(RECORDED_SIZES)
    assert leaves[:k] == pinned_leaves
    assert states[:k] == pinned_states
    sweep = json.dumps([leaves[k:], states[k:]]).encode()
    assert hashlib.sha256(sweep).hexdigest() == PINNED_SWEEP[(grid, eps)]


def _entry(m, idx, rng):
    return m.obfuscate_points_batch(idx, rng)


def _array_form(m, idx, rng):
    return m._obfuscate_leaves(m.tree.leaf_index[idx], rng)


class TestPinnedReports:
    """The leaf-index kernel reproduces the path-row kernel bit for bit:
    same reports and the same RNG state after every call, for batches of
    one (the per-task path) and of every size up to past the plain-Python
    cutoff, in either form."""

    def test_sweep_passes_the_cutoff(self):
        assert TURN_PLAIN_MAX_ROWS + 1 <= SWEEP_MAX

    @pytest.mark.parametrize("grid, eps", sorted(PINNED_REPORTS))
    def test_points_batch(self, grid, eps):
        c, depth, _, _ = PINNED_REPORTS[(grid, eps)]
        tree, got, got_states = _pinned_run(grid, eps, _entry)
        assert (tree.branching, tree.depth) == (c, depth)
        _assert_pinned(grid, eps, got, got_states)

    @pytest.mark.parametrize("grid, eps", sorted(PINNED_REPORTS))
    def test_array_kernel_for_every_batch(self, grid, eps):
        """The numpy kernel reproduces the pins for batches of one too, so
        the plain-Python turn and the array form agree."""
        _, got, got_states = _pinned_run(grid, eps, _array_form)
        _assert_pinned(grid, eps, got, got_states)

    @pytest.mark.parametrize("cutoff", [-1, 10**6], ids=["numpy", "plain"])
    @pytest.mark.parametrize("grid, eps", sorted(PINNED_REPORTS))
    def test_either_form_at_every_size(self, grid, eps, cutoff):
        """The entry point reproduces the pins with every batch on one
        form, and matches the array kernel call by call."""
        with mock.patch.object(tree_mechanism, "TURN_PLAIN_MAX_ROWS", cutoff):
            _, got, got_states = _pinned_run(grid, eps, _entry)
        _, want, want_states = _pinned_run(grid, eps, _array_form)
        for i in range(len(PINNED_SIZES)):
            assert (got[i], got_states[i]) == (want[i], want_states[i]), i
        _assert_pinned(grid, eps, got, got_states)

    @pytest.mark.parametrize("n", [1, 2, TURN_PLAIN_MAX_ROWS + 1])
    def test_non_integer_indices_are_refused_at_every_size(self, n):
        """A float index is a ``TypeError`` in a batch of any size, as a
        list or as an array, never truncated to a point."""
        tree = publish_tree(Box.square(100.0), grid_nx=6, seed=0)
        mech = TreeMechanism(tree, 0.5, seed=0)
        for values in ([1.5] + [2.0] * (n - 1), [2.0] * n):
            for batch in (values, np.array(values)):
                with pytest.raises(TypeError):
                    mech.obfuscate_points_batch(batch)

    def test_empty_batches_stay_valid(self):
        tree = publish_tree(Box.square(100.0), grid_nx=6, seed=0)
        mech = TreeMechanism(tree, 0.5, seed=0)
        for batch in ([], np.array([]), np.array([], dtype=np.int64)):
            out = mech.obfuscate_points_batch(batch)
            assert out.dtype == np.int64 and out.size == 0

    def test_batch_of_one_rejects_bad_points(self):
        tree = publish_tree(Box.square(100.0), grid_nx=6, seed=0)
        mech = TreeMechanism(tree, 0.5, seed=0)
        with pytest.raises(IndexError):
            mech.obfuscate_points_batch([tree.n_points])
        with pytest.raises(IndexError):
            mech.obfuscate_points_batch([-1])
        with pytest.raises(TypeError):
            mech.obfuscate_points_batch([[0, 1]])
