"""Graph construction, weight randomization, validation, and the
stationary-distribution oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from gsm_degroot import graph as graph_module
from gsm_degroot.graph import (
    FAMILIES,
    GenerationError,
    GraphError,
    GraphGenSpec,
    WeightedDigraph,
    from_dense,
    from_edges,
    generate,
    identity_graph,
    load_edge_list,
    randomize_weights,
    save_edge_list,
    stationary_distribution,
    validate,
)

# ---------------------------------------------------------------------------
# generate


def test_sbm_cluster_sizes():
    g = generate(GraphGenSpec(family="sbm", n=100, seed=3, cluster_ratios=(0.7, 0.3)))
    assert g.clusters == (70, 30)


def test_er_full_probability_is_complete():
    g = generate(GraphGenSpec(family="erdos-renyi", n=3, edge_prob=1.0, seed=0, weight_rounds=0))
    dense = g.matrix.toarray()
    assert np.count_nonzero(dense) == 6  # both directions, no self-loops
    np.testing.assert_allclose(dense[dense > 0], 0.5)
    np.testing.assert_array_equal(g.indegrees(), 2)


def test_generate_is_deterministic():
    spec = GraphGenSpec(family="watts-strogatz", n=40, k=6, rewire_prob=0.2, seed=17)
    a, b = generate(spec), generate(spec)
    assert (a.matrix != b.matrix).nnz == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_meets_the_generator_contract(family):
    g = generate(GraphGenSpec(family=family, n=50, seed=5))
    report = validate(g)
    assert report.strongly_connected
    assert report.normalized


def test_generation_failure_names_family_and_seed():
    with pytest.raises(GenerationError, match="erdos-renyi.*seed=9"):
        generate(GraphGenSpec(family="erdos-renyi", n=10, edge_prob=0.0, seed=9))


def test_sbm_without_cross_edges_fails_before_sampling(monkeypatch):
    calls = []
    monkeypatch.setattr(graph_module, "_structure_edges", lambda *args: calls.append(args))
    with pytest.raises(GenerationError, match=r"^no strongly connected 'sbm' sample.*seed=6"):
        generate(GraphGenSpec(family="sbm", n=100, seed=6, inter_prob=0.0))
    assert calls == []


def test_sbm_without_cross_edges_and_one_empty_block_is_sampled():
    # int(0.01 * 50) = 0, so the first block is empty and inter_prob is moot
    g = generate(GraphGenSpec(family="sbm", n=50, seed=2, cluster_ratios=(0.01, 0.99),
                              intra_prob=0.3, inter_prob=0.0))
    assert g.clusters == (0, 50)
    assert validate(g).strongly_connected


def test_bad_specs_rejected():
    with pytest.raises(GraphError):
        GraphGenSpec(family="lattice", n=10)
    with pytest.raises(GraphError):
        GraphGenSpec(family="sbm", n=10, cluster_ratios=(0.5, 0.4))
    with pytest.raises(GraphError):
        GraphGenSpec(family="erdos-renyi", n=1)


@pytest.mark.parametrize("kwargs", [
    dict(family="sbm", k=1),
    dict(family="erdos-renyi", m=0),
    dict(family="watts-strogatz", cluster_ratios=(0.0, 1.0)),
])
def test_field_rules_hold_for_every_family(kwargs):
    with pytest.raises(GraphError):
        GraphGenSpec(n=10, **kwargs)


def test_ensure_self_loops():
    g = generate(GraphGenSpec(family="sbm", n=30, seed=2, ensure_self_loops=True))
    assert np.all(g.matrix.diagonal() > 0)
    assert validate(g).normalized


# ---------------------------------------------------------------------------
# randomize_weights


def test_weight_moves_conserve_incoming_sums_exactly():
    g = generate(GraphGenSpec(family="barabasi-albert", n=60, m=3, seed=8, weight_rounds=0))
    before = g.incoming_sums()
    shuffled = randomize_weights(g, rounds_per_node=10, seed=4)
    # each move transfers mass, so drift stays at rounding scale,
    # orders below the 1e-12 normalization invariant
    np.testing.assert_allclose(shuffled.incoming_sums(), before, rtol=0, atol=1e-14)
    assert validate(shuffled).normalized


def test_randomize_actually_moves_mass():
    g = generate(GraphGenSpec(family="erdos-renyi", n=20, edge_prob=0.5, seed=1, weight_rounds=0))
    shuffled = randomize_weights(g, rounds_per_node=10, seed=4)
    assert (g.matrix != shuffled.matrix).nnz > 0


def test_indegree_one_node_keeps_weight_one():
    # node 2 hears only node 0
    edges = [(0, 1, 0.5), (1, 0, 1.0), (2, 1, 0.5), (0, 2, 1.0)]
    g = from_edges(3, edges)
    shuffled = randomize_weights(g, rounds_per_node=10, seed=0)
    assert shuffled.matrix[2, 0] == 1.0


def reference_randomize_weights(graph, rounds_per_node, seed):
    """randomize_weights as first written, on numpy int64 scalars."""
    rng = np.random.default_rng(seed)
    matrix = graph.matrix.copy()
    indptr = matrix.indptr
    data = matrix.data
    unit = 1 << rounds_per_node
    for node in range(graph.n):
        lo, hi = indptr[node], indptr[node + 1]
        d = int(hi - lo)
        if d < 2:
            data[lo:hi] = 1.0
            continue
        nums = np.full(d, unit, dtype=np.int64)
        if rounds_per_node > 0:
            first = rng.integers(0, d, size=rounds_per_node)
            second = rng.integers(0, d - 1, size=rounds_per_node)
            second += second >= first
            for a, b in zip(first, second):
                half = nums[a] // 2
                nums[a] -= half
                nums[b] += half
        data[lo:hi] = nums / (d * unit)
    return matrix


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("rounds", [0, 1, 10])
def test_randomize_weights_matches_the_reference_bytes(family, rounds):
    sizes = [(0, 80), (7, 80), (123, 80)]
    if family == "barabasi-albert":
        sizes.append((5, 2000))  # in-degrees from 3 into the hundreds
    for seed, n in sizes:
        g = generate(GraphGenSpec(family=family, n=n, seed=seed, weight_rounds=0, ensure_self_loops=seed == 7))
        got = randomize_weights(g, rounds_per_node=rounds, seed=seed + 1).matrix
        want = reference_randomize_weights(g, rounds, seed + 1)
        assert got.data.tobytes() == want.data.tobytes()
        assert got.indices.tobytes() == want.indices.tobytes()


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_randomized_weights_stay_normalized(seed):
    g = generate(GraphGenSpec(family="watts-strogatz", n=30, k=4, seed=3, weight_rounds=0))
    shuffled = randomize_weights(g, rounds_per_node=10, seed=seed)
    np.testing.assert_allclose(shuffled.incoming_sums(), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# stationary_distribution


def test_two_node_symmetric_chain():
    g = from_dense(np.array([[0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_allclose(stationary_distribution(g), [0.5, 0.5], atol=1e-10)


def test_three_cycle_with_self_loops_is_uniform():
    w = 0.5 * np.eye(3)
    for i in range(3):
        w[i, (i + 1) % 3] = 0.5  # node i also hears its successor
    g = from_dense(w)
    np.testing.assert_allclose(stationary_distribution(g), np.ones(3) / 3, atol=1e-10)


def test_unnormalized_graph_has_no_stationary_distribution():
    # rows sum to 0.9 and 1.0; the graph is strongly connected and aperiodic
    g = WeightedDigraph(sparse.csr_array(np.array([[0.5, 0.4], [0.5, 0.5]])))
    with pytest.raises(GraphError, match="stationary distribution needs normalized incoming weights"):
        stationary_distribution(g)


def test_power_iteration_matches_dense_eigensolve():
    rng = np.random.default_rng(12)
    op = rng.random((5, 5)) + 0.05
    op /= op.sum(axis=1, keepdims=True)
    pi = stationary_distribution(from_dense(op))

    vals, vecs = np.linalg.eig(op.T)
    lead = np.argmin(np.abs(vals - 1.0))
    oracle = np.real(vecs[:, lead])
    oracle = oracle / oracle.sum()
    np.testing.assert_allclose(pi, oracle, atol=1e-9)


def test_stationarity_residual_bound():
    g = generate(GraphGenSpec(family="sbm", n=80, seed=21, ensure_self_loops=True))
    pi = stationary_distribution(g, tol=1e-12)
    residual = np.abs(pi @ g.matrix.toarray() - pi).sum()
    assert residual <= 10 * 1e-12
    assert pi.min() >= 0
    assert abs(pi.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# validate


def test_two_cycle_without_self_loops_is_periodic():
    g = from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
    report = validate(g)
    assert report.strongly_connected
    assert not report.aperiodic


def test_one_way_edge_is_not_strongly_connected():
    g = from_edges(2, [(0, 0, 1.0), (0, 1, 0.5), (1, 1, 0.5)])
    assert not validate(g).strongly_connected


def test_identity_graph_report():
    report = validate(identity_graph(4))
    assert report.normalized
    assert report.aperiodic
    assert not report.strongly_connected


# ---------------------------------------------------------------------------
# construction and serialization


def test_from_edges_rejects_duplicates():
    with pytest.raises(GraphError, match="duplicate"):
        from_edges(2, [(0, 1, 0.5), (0, 1, 0.5), (1, 0, 1.0)])


def test_from_edges_rejects_uncovered_node():
    with pytest.raises(GraphError, match="incoming"):
        from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])


def test_edge_list_roundtrip_is_exact(tmp_path):
    g = generate(GraphGenSpec(family="sbm", n=40, seed=33))
    path = tmp_path / "edges.csv"
    save_edge_list(g, path)
    loaded = load_edge_list(path)
    assert (g.matrix != loaded.matrix).nnz == 0
    assert validate(loaded).normalized
