"""Graph construction, weight randomization, validation, and the
stationary-distribution oracle."""

import hashlib
import math
import random
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from gsm_degroot import graph as graph_module
from gsm_degroot.graph import (
    FAMILIES,
    ConvergenceError,
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
from gsm_degroot.seeds import derive_seed

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


@pytest.mark.parametrize("ensure_self_loops", [True, False])
def test_erdos_renyi_without_edges_fails_before_sampling(monkeypatch, ensure_self_loops):
    calls = []
    monkeypatch.setattr(graph_module, "_structure_edges", lambda *args: calls.append(args))
    with pytest.raises(GenerationError, match=r"^no strongly connected 'erdos-renyi' sample.*seed=9"):
        generate(GraphGenSpec(family="erdos-renyi", n=10, edge_prob=0.0, seed=9,
                              ensure_self_loops=ensure_self_loops))
    assert calls == []


def test_sbm_without_cross_edges_and_one_empty_block_is_sampled():
    # int(0.01 * 50) = 0, so the first block is empty and inter_prob is moot
    g = generate(GraphGenSpec(family="sbm", n=50, seed=2, cluster_ratios=(0.01, 0.99),
                              intra_prob=0.3, inter_prob=0.0))
    assert g.clusters == (0, 50)
    assert validate(g).strongly_connected


def test_sbm_pairs_keep_their_bytes_drawn_seven_rows_at_a_time(monkeypatch):
    # by default each block of n = 100 is one draw; 7 rows at a time divides
    # neither block (60 and 40 rows), so every chunk offset is exercised
    whole = graph_module._sbm_pairs(100, 60, 0.5, 0.1, np.random.default_rng(5))
    monkeypatch.setattr(graph_module, "_DENSE_BLOCK", 7)
    chunked = graph_module._sbm_pairs(100, 60, 0.5, 0.1, np.random.default_rng(5))
    assert chunked.dtype == whole.dtype == np.int64
    assert chunked.shape == whole.shape and chunked.tobytes() == whole.tobytes()


def test_bad_specs_rejected():
    with pytest.raises(GraphError):
        GraphGenSpec(family="lattice", n=10)
    with pytest.raises(GraphError):
        GraphGenSpec(family="sbm", n=10, cluster_ratios=(0.5, 0.4))
    with pytest.raises(GraphError):
        GraphGenSpec(family="erdos-renyi", n=1)
    with pytest.raises(GraphError, match=r"^n must be <= 1000000, got 1000001$"):
        GraphGenSpec(family="erdos-renyi", n=10**6 + 1)


def sbm_fields(n, edges):
    """An sbm of n nodes, ratios (0.7, 0.3) and intra_prob 0.5 whose inter_prob makes it expect edges edges."""
    s1 = int(0.7 * n)
    return dict(n=n, inter_prob=(edges - 0.5 * (math.comb(s1, 2) + math.comb(n - s1, 2))) / (s1 * (n - s1)))


CAP = 5_000_000
# per family: fields whose expected undirected edge count is the cap, then
# fields one edge past it (5000001 = 47 x 106383)
AT_AND_PAST_CAP = {
    "barabasi-albert": (dict(n=100_050, m=50), dict(n=106_430, m=47)),  # m (n - m)
    "watts-strogatz": (dict(n=10**6, k=10), dict(n=106_383, k=95)),  # n (k // 2)
    "erdos-renyi": (dict(n=10_000, edge_prob=CAP / math.comb(10_000, 2)),  # edge_prob C(n, 2)
                    dict(n=10_000, edge_prob=(CAP + 1) / math.comb(10_000, 2))),
    "sbm": (sbm_fields(5_400, CAP), sbm_fields(5_400, CAP + 1)),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_a_spec_at_the_edge_cap_is_accepted_and_one_edge_past_it_rejected(family):
    at, past = AT_AND_PAST_CAP[family]
    assert graph_module._MAX_EDGES == CAP
    # accepted, but not generated: a graph at the cap takes up to 1.7 GB
    assert graph_module._expected_edges(GraphGenSpec(family=family, **at)) == CAP
    with pytest.raises(GraphError, match=rf"^this {family} graph expects 5000001 edges, more than the 5000000 allowed$"):
        GraphGenSpec(family=family, **past)


def test_the_edge_cap_is_checked_after_the_field_rules():
    # n past its own cap keeps its message, though the edges pass theirs too
    with pytest.raises(GraphError, match=r"^n must be <= 1000000, got 1000001$"):
        GraphGenSpec(family="erdos-renyi", n=10**6 + 1, edge_prob=1.0)


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


def coo_uniform_graph(n, src, dst):
    """_uniform_graph's matrix as scipy's COO round trip built it, or the
    text of the GraphError it raised."""
    if src.size == 0:
        return "no edges"
    matrix = sparse.csr_array(sparse.coo_array((np.ones(src.size), (dst, src)), shape=(n, n)))
    matrix.sort_indices()
    if matrix.nnz != src.size:
        return "duplicate edges"
    indeg = np.diff(matrix.indptr)
    if np.any(indeg == 0):
        return f"node {int(np.flatnonzero(indeg == 0)[0])} has no incoming edge"
    matrix.data = np.repeat(1.0 / indeg, indeg)
    return matrix


# specs whose samples are often not strongly connected, and a default one per family
SPARSE_SPECS = [
    dict(family="sbm", n=60, intra_prob=0.3, inter_prob=0.002),
    dict(family="erdos-renyi", n=40, edge_prob=0.1),
    dict(family="watts-strogatz", n=30, k=2, rewire_prob=0.5),
] + [dict(family=family, n=50) for family in FAMILIES]


@pytest.mark.parametrize("ensure_self_loops", [False, True])
@pytest.mark.parametrize("kwargs", SPARSE_SPECS, ids=lambda kwargs: "-".join(str(v) for v in kwargs.values()))
def test_one_forward_sweep_decides_strong_connectivity(kwargs, ensure_self_loops):
    # every structure holds both directions of each edge, so generate checks
    # only that node 0 reaches every node
    spec = GraphGenSpec(ensure_self_loops=ensure_self_loops, **kwargs)
    verdicts = []
    for seed in range(50):
        src, dst, clusters = graph_module._structure_edges(spec, seed)
        want = coo_uniform_graph(spec.n, src, dst)
        try:
            got = graph_module._uniform_graph(spec.n, src, dst, clusters)
        except GraphError as exc:
            assert str(exc) == want
            continue
        for mine, theirs in zip((got.matrix.data, got.matrix.indices, got.matrix.indptr),
                                (want.data, want.indices, want.indptr)):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        verdicts.append(graph_module._reaches_all(got.matrix))
        assert verdicts[-1] == graph_module.is_strongly_connected(got)
    if kwargs in SPARSE_SPECS[:3] and (ensure_self_loops or kwargs["family"] != "erdos-renyi"):
        assert 0 < sum(verdicts) < len(verdicts)


def test_generate_keeps_its_attempt_counts(monkeypatch):
    # _structure_edges calls per graph, as when generate swept both ways
    attempts = []
    structure_edges = graph_module._structure_edges

    def counted(*args):
        attempts[-1] += 1
        return structure_edges(*args)

    specs = [GraphGenSpec(seed=seed, ensure_self_loops=loops, **kwargs)
             for kwargs, loops in [(SPARSE_SPECS[0], False), (SPARSE_SPECS[1], False), (SPARSE_SPECS[1], True),
                                   (SPARSE_SPECS[2], False)]
             for seed in range(6)]
    monkeypatch.setattr(graph_module, "_structure_edges", counted)
    for spec in specs:
        attempts.append(0)
        generate(spec)
    assert attempts == [1, 1, 1, 1, 1, 2, 1, 1, 2, 2, 4, 3, 1, 1, 2, 2, 4, 3, 1, 1, 2, 1, 1, 2]


# ---------------------------------------------------------------------------
# structure samplers: the same random stream, hence the same graphs, as
# networkx's generators for the same int seed

# the large seed is one generate draws its first structure from
SAMPLER_SEEDS = [*range(20), derive_seed(0, "structure", 0)]


def edge_set(pairs):
    return {tuple(sorted(map(int, pair))) for pair in pairs}


@pytest.mark.parametrize("n, m, seeds", [
    (4, 1, SAMPLER_SEEDS),
    (10, 3, SAMPLER_SEEDS),
    (100, 1, SAMPLER_SEEDS),
    (500, 5, SAMPLER_SEEDS),
    (20000, 3, SAMPLER_SEEDS[:2]),  # the draws' list passes 2**15 entries
], ids=["4-1", "10-3", "100-1", "500-5", "20000-3"])
def test_barabasi_albert_pairs_match_networkx(n, m, seeds):
    for seed in seeds:
        want = edge_set(nx.barabasi_albert_graph(n, m, seed=seed).edges())
        assert edge_set(graph_module._ba_pairs(n, m, random.Random(seed))) == want


@pytest.mark.parametrize("n, k, p", [
    (300, 6, 0.1),
    (50, 7, 0.3),  # odd k: 3 neighbours per side
    (60, 10, 0.0),  # the ring itself
    (10, 4, 1.0),  # every ring edge rewired
    (7, 6, 0.9),  # every node already adjacent to all others: rewiring gives up
    (20, 18, 0.8),  # nodes reach degree n - 1 along the way
    (5, 2, 0.5),
])
def test_watts_strogatz_pairs_match_networkx(n, k, p):
    for seed in SAMPLER_SEEDS:
        want = edge_set(nx.watts_strogatz_graph(n, k, p, seed=seed).edges())
        assert edge_set(graph_module._ws_pairs(n, k, p, random.Random(seed))) == want


@pytest.mark.parametrize("n, p", [(2, 0.5), (100, 0.1), (300, 0.02), (50, 0.9), (40, 0.0)])
def test_erdos_renyi_pairs_match_networkx(n, p):
    for seed in SAMPLER_SEEDS:
        want = edge_set(nx.fast_gnp_random_graph(n, p, seed=seed).edges())
        assert edge_set(graph_module._gnp_pairs(n, p, random.Random(seed))) == want


@pytest.mark.parametrize("spec, digest", [
    (GraphGenSpec(family="barabasi-albert", n=2000, m=3, seed=11),
     "e52b6fef823e63cdce0976795f28f89adbbe7bf91ac207b15a7e869c46699121"),
    (GraphGenSpec(family="watts-strogatz", n=300, k=6, rewire_prob=0.1, seed=12),
     "8604f8a5146f0004ac6b61c84ed31b69a81f9be80cdb64005e3cb487eaf15168"),
    (GraphGenSpec(family="erdos-renyi", n=200, edge_prob=0.05, seed=13),
     "0dad1c986bec67c222bdca6f3260b130eea837cbcac1b04be1fc416e756b16c1"),
    # indegree * 2**weight_rounds passes 2**31, so the weight numerators need int64
    (GraphGenSpec(family="watts-strogatz", n=50, k=6, seed=4, weight_rounds=30),
     "9712b001a3e46f71bd65c9ee997f17a768a9a105a2853788b90a36aed33a7b26"),
    (GraphGenSpec(family="watts-strogatz", n=50, k=6, seed=4, weight_rounds=40),
     "84e55a0812e8cc9edb3d529040b8a21506fed3fbd72b502c27f210ce8d606eb0"),
    # the fit's default surrogate
    (GraphGenSpec(family="sbm", n=100, cluster_ratios=(0.7, 0.3), intra_prob=0.5, inter_prob=0.1),
     "c9e9f5be46ecec636c8adc69fc47940fe342ff7dad1def8d87a3d8e4ca601f3c"),
    (GraphGenSpec(family="watts-strogatz", n=300, k=6, rewire_prob=0.1, seed=12, ensure_self_loops=True),
     "5fbc2a9f3a11cfa83648263a689c5ffee70e17a5aa43eaa0eaf79f9db98cfaf9"),
], ids=["barabasi-albert", "watts-strogatz", "erdos-renyi", "weight-rounds-30", "weight-rounds-40", "sbm",
        "watts-strogatz-self-loops"])
def test_generated_graphs_keep_their_bytes(spec, digest):
    # digests of the graphs these specs gave when networkx drew them, and of the
    # sbm and self-loop graphs before generate built its own CSR
    g = generate(spec)
    assert validate(g).normalized
    m = g.matrix
    parts = (m.data, m.indices.astype(np.int64), m.indptr.astype(np.int64))
    assert hashlib.sha256(b"".join(part.tobytes() for part in parts)).hexdigest() == digest


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


def test_disconnected_graph_has_no_stationary_distribution():
    # two closed blocks: each has its own fixed vector, so none is unique
    w = np.zeros((4, 4))
    w[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
    w[2:, 2:] = [[0.9, 0.1], [0.2, 0.8]]
    with pytest.raises(GraphError, match="stationary distribution needs a strongly connected graph"):
        stationary_distribution(from_dense(w))


def test_blocks_joined_only_by_stored_zeros_have_no_stationary_distribution():
    # the zeros join the blocks for validate, but carry no mass between them
    w = np.zeros((4, 4))
    w[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
    w[2:, 2:] = [[0.9, 0.1], [0.2, 0.8]]
    rows, cols = np.nonzero(w)
    matrix = sparse.csr_array((np.concatenate([w[rows, cols], [0.0, 0.0]]),
                               (np.concatenate([rows, [0, 2]]), np.concatenate([cols, [2, 0]]))), shape=(4, 4))
    graph = WeightedDigraph(matrix)
    assert matrix.nnz == 10 and validate(graph).strongly_connected
    with pytest.raises(GraphError, match="stationary distribution needs a strongly connected graph"):
        stationary_distribution(graph)


def test_periodic_chain_does_not_converge():
    star = from_dense(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ConvergenceError, match="within 1000 iterations"):
        stationary_distribution(star, max_iter=1000)


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


def test_a_stored_zero_weight_is_an_edge():
    # 1 -> 0 with weight 1, 0 -> 1 with a stored 0.0, and a self-loop at 1
    matrix = sparse.csr_array((np.array([1.0, 0.0, 1.0]), np.array([1, 0, 1]), np.array([0, 1, 3])), shape=(2, 2))
    assert graph_module.is_strongly_connected(WeightedDigraph(matrix))
    matrix = sparse.csr_array((np.array([1.0, 1.0]), np.array([1, 1]), np.array([0, 1, 2])), shape=(2, 2))
    assert not graph_module.is_strongly_connected(WeightedDigraph(matrix))


def test_identity_graph_report():
    report = validate(identity_graph(4))
    assert report.normalized
    assert report.aperiodic
    assert not report.strongly_connected


def deque_levels(out: sparse.csr_array) -> np.ndarray:
    """Breadth-first level of every node from node 0, -1 where unreached,
    along the rows of out (row u lists the successors of u), by a per-node
    queue: the reference that graph._levels must match."""
    level = np.full(out.shape[0], -1, dtype=np.int64)
    level[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in out.indices[out.indptr[u]:out.indptr[u + 1]]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(int(v))
    return level


def reference_report(matrix: sparse.csr_array) -> tuple[bool, bool]:
    """(strongly_connected, aperiodic) from queue sweeps along both edge directions."""
    forward = deque_levels(sparse.csr_array(matrix.T))
    backward = deque_levels(matrix)
    coo = matrix.tocoo()
    srcs, dsts = coo.col, coo.row
    seen = (forward[srcs] >= 0) & (forward[dsts] >= 0)
    diffs = np.abs(forward[srcs[seen]] + 1 - forward[dsts[seen]])
    aperiodic = diffs.size > 0 and int(np.gcd.reduce(diffs)) == 1
    return bool(np.all(forward >= 0) and np.all(backward >= 0)), aperiodic


@st.composite
def structured_digraphs(draw):
    """Directed rings, bipartite cycles and one-way bridges between two
    rings, with random extra edges, optional self-loops, and optionally one
    stored zero weight at every node with two or more incoming edges."""
    kind = draw(st.sampled_from(["ring", "bipartite", "bridge"]))
    if kind == "ring":
        n = draw(st.integers(2, 9))
        edges = {(u, (u + 1) % n) for u in range(n)}
    elif kind == "bipartite":
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        n = a + b
        edges = {(u, v) for u in range(a) for v in range(a, n)}
        edges |= {(v, u) for u, v in edges}
    else:
        # node 0's ring reaches the second ring, which never leads back
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        n = a + b
        edges = {(u, (u + 1) % a) for u in range(a)} | {(a + u, a + (u + 1) % b) for u in range(b)}
        edges.add((draw(st.integers(0, a - 1)), draw(st.integers(a, n - 1))))
    node = st.integers(0, n - 1)
    edges |= draw(st.sets(st.tuples(node, node), max_size=n))
    if draw(st.booleans()):
        edges |= {(u, u) for u in range(n)}
    zeros = draw(st.booleans())
    triples = []
    for target in range(n):
        sources = sorted(s for s, t in edges if t == target)
        if zeros and len(sources) >= 2:
            triples.append((sources[0], target, 0.0))
            sources = sources[1:]
        triples.extend((s, target, 1.0 / len(sources)) for s in sources)
    return from_edges(n, triples)


@settings(max_examples=300, deadline=None)
@given(structured_digraphs())
def test_validate_matches_queue_sweeps(g):
    report = validate(g)
    assert (report.strongly_connected, report.aperiodic) == reference_report(g.matrix)
    assert report.strongly_connected == graph_module.is_strongly_connected(g)
    pattern = graph_module._pattern(g.matrix)
    assert np.array_equal(graph_module._levels(pattern), deque_levels(sparse.csr_array(g.matrix.T)))


# ---------------------------------------------------------------------------
# construction and serialization


def test_from_edges_rejects_duplicates():
    with pytest.raises(GraphError, match="duplicate"):
        from_edges(2, [(0, 1, 0.5), (0, 1, 0.5), (1, 0, 1.0)])


def test_from_edges_rejects_uncovered_node():
    with pytest.raises(GraphError, match="incoming"):
        from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])


@pytest.mark.parametrize("family", FAMILIES)
def test_from_edges_in_any_order_rebuilds_the_generated_arrays(family):
    g = generate(GraphGenSpec(family=family, n=60, seed=8))
    edges = list(g.edges())
    random.Random(3).shuffle(edges)
    rebuilt = from_edges(g.n, edges).matrix
    for mine, theirs in zip((rebuilt.data, rebuilt.indices, rebuilt.indptr),
                            (g.matrix.data, g.matrix.indices, g.matrix.indptr)):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def test_edge_list_roundtrip_is_exact(tmp_path):
    g = generate(GraphGenSpec(family="sbm", n=40, seed=33))
    path = tmp_path / "edges.csv"
    save_edge_list(g, path)
    loaded = load_edge_list(path)
    assert (g.matrix != loaded.matrix).nnz == 0
    assert validate(loaded).normalized


def test_edge_list_row_with_a_missing_field_names_its_line(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("source,target,weight\n0,1,1.0\n\n1,0\n")
    with pytest.raises(GraphError, match="line 4: 2 fields, an edge has 3"):
        load_edge_list(path)


def test_edge_list_field_that_is_not_a_number_names_its_line(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("source,target,weight\n0,1,1.0\n1,x,1.0\n")
    with pytest.raises(GraphError, match=r"line 3: invalid literal for int\(\)"):
        load_edge_list(path)


def test_edge_list_at_the_node_limit_loads_past_the_size_check(tmp_path):
    # id 999999 asks for exactly the 10^6 nodes allowed; the file then fails
    # only because nodes 1..999998 have no incoming edge
    path = tmp_path / "edges.csv"
    path.write_text("source,target,weight\n0,0,1.0\n999999,999999,1.0\n")
    with pytest.raises(GraphError, match="node 1 has no incoming edge"):
        load_edge_list(path)


@pytest.mark.parametrize("node", ["1000000", "1000000000000", "10" + "0" * 30, "-1", "-" + "9" * 30])
def test_edge_list_id_outside_the_node_limit_names_its_line(tmp_path, node):
    path = tmp_path / "edges.csv"
    path.write_text(f"source,target,weight\n0,0,1.0\n1,{node},1.0\n")
    with pytest.raises(GraphError, match=rf"line 3: node ids must lie in \[0, 1000000\), got 1,{node}$"):
        load_edge_list(path)


def test_from_edges_rejects_more_nodes_than_the_limit():
    with pytest.raises(GraphError, match="n must be <= 1000000, got 1000001"):
        from_edges(10**6 + 1, [(0, 0, 1.0)])


@pytest.mark.parametrize("node", [10**30, -10**30])
def test_from_edges_rejects_an_id_past_int64(node):
    with pytest.raises(GraphError, match=r"edge endpoint outside \[0, 2\)"):
        from_edges(2, [(node, 0, 1.0), (1, 1, 1.0)])
