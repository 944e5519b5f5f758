"""Weighted digraph substrates: generation, weight randomization, validation.

Graphs are stored as sparse row-stochastic matrices: entry (i, j) is the
weight of the directed edge j -> i, so row i lists the incoming weights of
node i and sums to one. The matrix is therefore the opinion update operator
itself: next_opinions = matrix @ opinions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy import sparse

from .csvio import read_csv, write_csv
from .rules import check_rules, ruled
from .seeds import derive_seed

FAMILIES = ("barabasi-albert", "sbm", "watts-strogatz", "erdos-renyi")

NORMALIZATION_TOL = 1e-12
_MAX_ATTEMPTS = 100
_MAX_MIX_ROUNDS = 40
_MAX_NODES = 10**6
# The most undirected edges a spec may expect (_expected_edges). Measured on
# a 2-core Xeon VM, one generate per fresh process, peak RSS above the import
# baseline per expected edge: Watts-Strogatz 333 B at k = 10 and 445 B at n =
# 10**6, k = 6 (Python sets), Barabasi-Albert 257-329 B, sbm and Erdos-Renyi
# 149-153 B; so a spec at the cap generates within about 1.7 GB.
_MAX_EDGES = 5 * 10**6
_DENSE_BLOCK = 2048


class GraphError(ValueError):
    """Invalid graph structure or weights."""


class GenerationError(RuntimeError):
    """Random generation could not satisfy the structural requirements."""


class ConvergenceError(RuntimeError):
    """Iterative solver hit its iteration cap."""


@dataclass
class GraphGenSpec:
    """Recipe for one random graph.

    family parameters: m (barabasi-albert attachment count), k and
    rewire_prob (watts-strogatz), edge_prob (erdos-renyi), cluster_ratios,
    intra_prob and inter_prob (two-block sbm). Watts-Strogatz joins each
    node to k // 2 neighbours per side, as networkx does, so an odd k
    gives k - 1 ring neighbours. Undirected samples become
    digraphs with both directions; ensure_self_loops adds every (i, i) edge
    before weights are assigned; weight_rounds = 0 keeps the uniform
    1/indegree weights instead of randomizing them.
    """

    family: str = ruled("barabasi-albert", among=FAMILIES)
    n: int = ruled(100, ge=2, le=_MAX_NODES)
    seed: int = 0
    # m < n and k < n, so these bounds reject no valid spec; a sweep axis
    # checks its value against them before rounding
    m: int = ruled(3, ge=1, lt=_MAX_NODES)
    k: int = ruled(6, ge=2, lt=_MAX_NODES)
    rewire_prob: float = ruled(0.1, ge=0.0, le=1.0)
    edge_prob: float = ruled(0.1, ge=0.0, le=1.0)
    cluster_ratios: tuple[float, float] = ruled((0.7, 0.3), gt=0.0)
    intra_prob: float = ruled(0.5, ge=0.0, le=1.0)
    inter_prob: float = ruled(0.1, ge=0.0, le=1.0)
    ensure_self_loops: bool = False
    weight_rounds: int = ruled(10, ge=0, le=_MAX_MIX_ROUNDS)

    def __post_init__(self) -> None:
        check_rules(self, GraphError)
        if self.family == "barabasi-albert" and self.m >= self.n:
            raise GraphError(f"attachment count m must satisfy m < n, got m={self.m}, n={self.n}")
        if self.family == "watts-strogatz" and self.k >= self.n:
            raise GraphError(f"neighbor count k must satisfy k < n, got k={self.k}, n={self.n}")
        if self.family == "sbm":
            ratios = tuple(float(c) for c in self.cluster_ratios)
            if len(ratios) != 2 or abs(sum(ratios) - 1.0) > 1e-9:
                raise GraphError(f"cluster_ratios must be two positive fractions summing to 1, got {self.cluster_ratios!r}")
            self.cluster_ratios = ratios
        edges = _expected_edges(self)
        if edges > _MAX_EDGES:
            raise GraphError(f"this {self.family} graph expects {edges:.7g} edges, more than the {_MAX_EDGES} allowed")


@dataclass
class WeightedDigraph:
    """Fixed digraph with incoming-normalized edge weights.

    Treated as immutable: operations that change weights return a new
    instance. clusters records block sizes for family generators that
    partition the nodes (used for per-cluster population sampling).
    """

    matrix: sparse.csr_array
    clusters: tuple[int, ...] | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def indegrees(self) -> np.ndarray:
        return np.diff(self.matrix.indptr)

    def incoming_sums(self) -> np.ndarray:
        # weights far past 1 may sum past the largest float: inf, which the
        # normalization checks reject, without an overflow warning
        with np.errstate(over="ignore"):
            return np.asarray(self.matrix.sum(axis=1)).ravel()

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield (source, target, weight) sorted by source then target."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.row, coo.col))
        for idx in order:
            yield int(coo.col[idx]), int(coo.row[idx]), float(coo.data[idx])


def from_edges(n: int, edges) -> WeightedDigraph:
    """Build a graph from (source, target, weight) triples.

    More than _MAX_NODES nodes, duplicate edges, out-of-range ids, negative
    weights, nodes without any incoming edge, and incoming sums further than
    NORMALIZATION_TOL from 1 are rejected.
    """
    if n > _MAX_NODES:
        raise GraphError(f"n must be <= {_MAX_NODES}, got {n}")
    triples = list(edges)
    try:
        src = np.asarray([t[0] for t in triples], dtype=np.int64)
        dst = np.asarray([t[1] for t in triples], dtype=np.int64)
    except OverflowError:  # an id past int64 is out of range for any n
        raise GraphError(f"edge endpoint outside [0, {n})") from None
    wts = np.asarray([t[2] for t in triples], dtype=np.float64)
    if np.any((src < 0) | (src >= n) | (dst < 0) | (dst >= n)):
        raise GraphError(f"edge endpoint outside [0, {n})")
    if np.any(wts < 0.0) or not np.all(np.isfinite(wts)):
        raise GraphError("edge weights must be finite and non-negative")
    order = np.argsort(dst * n + src)
    graph = _uniform_graph(n, src[order], dst[order], None)
    graph.matrix.data = wts[order]
    sums = graph.incoming_sums()
    if np.max(np.abs(sums - 1.0)) > NORMALIZATION_TOL:
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise GraphError(f"incoming weights of node {worst} sum to {float(sums[worst])}, not 1")
    return graph


def from_dense(mat: np.ndarray) -> WeightedDigraph:
    """Build a graph from a dense operator; mat[i, j] is the weight of j -> i."""
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GraphError(f"operator must be square, got shape {arr.shape}")
    src, dst = np.nonzero(arr.T)
    return from_edges(arr.shape[0], zip(src.tolist(), dst.tolist(), arr.T[src, dst].tolist()))


def identity_graph(n: int) -> WeightedDigraph:
    """Self-loop-only graph; the opinion layer leaves every node untouched."""
    return WeightedDigraph(matrix=sparse.csr_array(sparse.eye(n, format="csr")))


@dataclass(frozen=True)
class GraphReport:
    strongly_connected: bool
    aperiodic: bool
    normalized: bool


def validate(graph: WeightedDigraph) -> GraphReport:
    """Check strong connectivity, aperiodicity, and weight normalization.

    One forward breadth-first levelling from node 0 (_levels) answers both
    structure checks: it tells whether node 0 reaches every node, and its
    levels give aperiodicity (_aperiodic). A backward sweep along the
    reversed edges tells whether every node reaches node 0.
    """
    pattern = _pattern(graph.matrix)
    level = _levels(pattern)
    return GraphReport(
        strongly_connected=bool(np.all(level >= 0)) and _reaches_all(pattern.T),
        aperiodic=_aperiodic(graph.matrix, level),
        normalized=is_normalized(graph),
    )


def is_normalized(graph: WeightedDigraph) -> bool:
    """Every node has an incoming edge and its incoming weights sum to 1."""
    sums = graph.incoming_sums()
    return bool(
        np.all(graph.indegrees() >= 1)
        and np.max(np.abs(sums - 1.0)) <= NORMALIZATION_TOL
    )


def is_strongly_connected(graph: WeightedDigraph) -> bool:
    """Node 0 reaches every node and every node reaches node 0."""
    pattern = _pattern(graph.matrix)
    return _reaches_all(pattern) and _reaches_all(pattern.T)


def _pattern(matrix: sparse.csr_array) -> sparse.csr_array:
    """matrix with every stored entry, a stored zero too, set to 1."""
    pattern = matrix.copy()
    pattern.data = np.ones_like(pattern.data)
    return pattern


def _reaches_all(pattern) -> bool:
    """Node 0 reaches every node: every _levels level is set."""
    return bool(np.all(_levels(pattern) >= 0))


def _levels(pattern) -> np.ndarray:
    """Breadth-first level of every node from node 0, -1 where node 0 does
    not reach, along the edges j -> i of the entries (i, j) of pattern, all
    of which are positive.

    Each step is one product of pattern with the last level's indicator
    vector; the sweep stops once every node is reached or a level is empty.
    pattern.T, a CSC view, sweeps the reversed edges without a copy.
    """
    n = pattern.shape[0]
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    fresh = level == 0
    reached = 1
    for depth in range(1, n):
        fresh = (pattern @ fresh.astype(np.float64) > 0.0) & (level < 0)
        level[fresh] = depth
        found = np.count_nonzero(fresh)
        reached += found
        if found == 0 or reached == n:
            break
    return level


def _aperiodic(matrix: sparse.csr_array, level: np.ndarray) -> bool:
    """The gcd of level[u] + 1 - level[v] over the edges u -> v between
    nodes that the _levels levelling reached is 1. On a strongly connected
    graph that holds exactly when the cycle lengths are coprime."""
    srcs = matrix.indices
    dsts = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    seen = (level[srcs] >= 0) & (level[dsts] >= 0)
    diffs = np.abs(level[srcs[seen]] + 1 - level[dsts[seen]])
    # the gcd of no differences is 0: no edge, no cycle, not aperiodic
    return int(np.gcd.reduce(diffs)) == 1


def randomize_weights(graph: WeightedDigraph, rounds_per_node: int = 10, seed: int = 0) -> WeightedDigraph:
    """Re-draw incoming weights by repeated random pair transfers.

    Each node's incoming weights restart at 1/indegree; then rounds_per_node
    times, two distinct incoming edges are picked uniformly at random and
    half of the first edge's current weight moves to the second. The mixing
    runs on integer numerators over indegree * 2**rounds_per_node, so every
    halving is exact and the per-node weight mass is conserved exactly.
    Nodes with a single incoming edge keep weight 1.
    """
    if rounds_per_node < 0 or rounds_per_node > _MAX_MIX_ROUNDS:
        raise GraphError(f"rounds_per_node must lie in [0, {_MAX_MIX_ROUNDS}], got {rounds_per_node}")
    rng = np.random.default_rng(seed)
    matrix = graph.matrix.copy()
    degrees = np.diff(matrix.indptr)
    mixed = degrees >= 2
    d = degrees[mixed]
    unit = 1 << rounds_per_node
    nums = np.full(int(d.sum()), unit, dtype=np.int64)
    if rounds_per_node > 0 and d.size:
        # one draw in C order, node by node, its rounds_per_node first then
        # its rounds_per_node second edges: the stream of two calls per node
        hi = np.empty((d.size, 2, rounds_per_node), dtype=np.int64)
        hi[:, 0] = d[:, None]
        hi[:, 1] = d[:, None] - 1
        first, second = rng.integers(0, hi).transpose(1, 0, 2)
        second += second >= first
        starts = (np.cumsum(d) - d)[:, None]
        # each node moves mass only within its own slice of nums
        for a, b in zip((starts + first).T, (starts + second).T):
            half = nums[a] // 2
            nums[a] -= half
            nums[b] += half
    entries = np.repeat(mixed, degrees)
    matrix.data[~entries] = 1.0
    matrix.data[entries] = nums / np.repeat(d * unit, d)
    return WeightedDigraph(matrix=matrix, clusters=graph.clusters)


def generate(spec: GraphGenSpec) -> WeightedDigraph:
    """Sample a strongly connected graph and draw its incoming weights.

    Structures are resampled with derived seeds until strongly connected,
    up to 100 attempts. Every structure holds both directions of each of
    its edges, so node 0 reaches every node exactly when every node
    reaches node 0: one forward _reaches_all sweep on the uniform matrix,
    whose entries are all positive, decides strong connectivity, with no
    backward sweep. Weights start uniform per node and are then mixed by
    randomize_weights unless spec.weight_rounds is 0. An sbm with
    inter_prob 0 and two non-empty blocks, or an Erdos-Renyi graph with
    edge_prob 0, can never be strongly connected, so it fails before any
    attempt.
    """
    if spec.family == "sbm" and spec.inter_prob == 0.0 and 0 < _first_block(spec) < spec.n:
        raise GenerationError(
            f"no strongly connected {spec.family!r} sample exists: inter_prob is 0 and both "
            f"blocks are non-empty (n={spec.n}, seed={spec.seed})"
        )
    if spec.family == "erdos-renyi" and spec.edge_prob == 0.0:
        raise GenerationError(
            f"no strongly connected {spec.family!r} sample exists: edge_prob is 0 (n={spec.n}, seed={spec.seed})"
        )
    for attempt in range(_MAX_ATTEMPTS):
        src, dst, clusters = _structure_edges(spec, derive_seed(spec.seed, "structure", attempt))
        try:
            graph = _uniform_graph(spec.n, src, dst, clusters)
        except GraphError:
            continue
        if not _reaches_all(graph.matrix):
            continue
        if spec.weight_rounds > 0:
            graph = randomize_weights(graph, spec.weight_rounds, derive_seed(spec.seed, "weights", attempt))
        return graph
    raise GenerationError(
        f"no strongly connected {spec.family!r} sample in {_MAX_ATTEMPTS} attempts (n={spec.n}, seed={spec.seed})"
    )


def _uniform_graph(n: int, src: np.ndarray, dst: np.ndarray, clusters) -> WeightedDigraph:
    if src.size == 0:
        raise GraphError("no edges")
    # sorted row-major keys are the CSR's entries in order: row dst, column src
    keys = np.sort(dst * n + src)
    if np.any(keys[1:] == keys[:-1]):
        raise GraphError("duplicate edges")
    rows, cols = np.divmod(keys, n)
    indeg = np.bincount(rows, minlength=n)
    if np.any(indeg == 0):
        raise GraphError(f"node {int(np.argmin(indeg))} has no incoming edge")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(indeg, out=indptr[1:])
    matrix = sparse.csr_array((np.repeat(1.0 / indeg, indeg), cols, indptr), shape=(n, n))
    return WeightedDigraph(matrix=matrix, clusters=clusters)


def _structure_edges(spec: GraphGenSpec, seed: int):
    """Directed edge arrays for one structure sample (both directions)."""
    clusters = None
    if spec.family == "sbm":
        s1 = _first_block(spec)
        clusters = (s1, spec.n - s1)
        pairs = _sbm_pairs(spec.n, s1, spec.intra_prob, spec.inter_prob, np.random.default_rng(seed))
    elif spec.family == "erdos-renyi" and spec.edge_prob >= 1.0:
        pairs = np.column_stack(np.triu_indices(spec.n, k=1)).astype(np.int64)
    else:
        # random.Random(seed) is the stream networkx builds from an int seed
        rng = random.Random(seed)
        if spec.family == "barabasi-albert":
            pairs = _ba_pairs(spec.n, spec.m, rng)
        elif spec.family == "watts-strogatz":
            pairs = _ws_pairs(spec.n, spec.k, spec.rewire_prob, rng)
        else:
            pairs = _gnp_pairs(spec.n, spec.edge_prob, rng)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    if spec.ensure_self_loops:
        loops = np.arange(spec.n, dtype=np.int64)
        keep = src != dst
        src = np.concatenate([src[keep], loops])
        dst = np.concatenate([dst[keep], loops])
    return src, dst, clusters


def _ba_pairs(n: int, m: int, rng: random.Random) -> np.ndarray:
    """Barabasi-Albert pairs, drawn as networkx 3.6's barabasi_albert_graph.

    Growth starts from the star on nodes 0..m. Each new node takes m
    distinct targets, drawn uniformly from a list that holds every node
    once per incident edge. The list is extended in the iteration order of
    the target set, so every later draw sees the list networkx sees. Each
    draw is random.Random.choice's own: getrandbits(size.bit_length()),
    drawn again while it is not below the list's size, written out here
    without choice's two Python calls per draw.
    """
    repeated = [0] * m + list(range(1, m + 1))
    targets = repeated[m:]
    getrandbits = rng.getrandbits
    for source in range(m + 1, n):
        picked = set()
        size = len(repeated)
        bits = size.bit_length()
        while len(picked) < m:
            index = getrandbits(bits)
            if index < size:
                picked.add(repeated[index])
        repeated.extend(picked)
        repeated.extend([source] * m)
        targets.extend(picked)
    sources = np.concatenate([np.zeros(m, dtype=np.int64), np.repeat(np.arange(m + 1, n, dtype=np.int64), m)])
    return np.column_stack([sources, np.asarray(targets, dtype=np.int64)])


def _ws_pairs(n: int, k: int, p: float, rng: random.Random) -> np.ndarray:
    """Watts-Strogatz pairs, drawn as networkx 3.6's watts_strogatz_graph.

    The ring joins each node to its k // 2 nearest neighbours on each side
    (k < n). Ring edge (u, u + j) is then rewired with probability p to
    (u, w), w drawn uniformly until it is neither u nor a neighbour of u,
    with j in the outer loop and u in the inner one. A node adjacent to
    every other node gives up after its second draw and keeps its edge.
    """
    adj = [set() for _ in range(n)]
    for j in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + j) % n
            adj[u].add(v)
            adj[v].add(u)
    nodes = list(range(n))
    draw, choice = rng.random, rng.choice
    for j in range(1, k // 2 + 1):
        for u in range(n):
            if draw() < p:
                near = adj[u]
                w = choice(nodes)
                while w == u or w in near:
                    w = choice(nodes)
                    if len(near) >= n - 1:
                        break
                else:
                    v = (u + j) % n
                    near.remove(v)
                    adj[v].remove(u)
                    near.add(w)
                    adj[w].add(u)
    pairs = [(u, w) for u, near in enumerate(adj) for w in near if u < w]
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _gnp_pairs(n: int, p: float, rng: random.Random) -> np.ndarray:
    """G(n, p) pairs for p < 1, drawn as networkx 3.6's fast_gnp_random_graph.

    Batagelj and Brandes (2005): walk the pairs (v, w), w < v, row by row,
    skipping a geometric number of pairs before each edge.
    """
    pairs = []
    if p > 0.0:
        lp = math.log(1.0 - p)
        draw = rng.random
        v, w = 1, -1
        while v < n:
            w += 1 + int(math.log(1.0 - draw()) / lp)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                pairs.append((v, w))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _first_block(spec: GraphGenSpec) -> int:
    """Size of the first sbm block; the second holds the other nodes."""
    return int(spec.cluster_ratios[0] * spec.n)


def _expected_edges(spec: GraphGenSpec) -> float:
    """The expected count of undirected edges in a structure sample of spec."""
    n = spec.n
    if spec.family == "barabasi-albert":
        return spec.m * (n - spec.m)
    if spec.family == "watts-strogatz":
        return n * (spec.k // 2)
    if spec.family == "erdos-renyi":
        return spec.edge_prob * math.comb(n, 2)
    s1 = _first_block(spec)
    return spec.intra_prob * (math.comb(s1, 2) + math.comb(n - s1, 2)) + spec.inter_prob * s1 * (n - s1)


def _sbm_pairs(n: int, s1: int, rho: float, r: float, rng: np.random.Generator) -> np.ndarray:
    """Undirected pair sample for a two-block model: the first block with
    itself, the second with itself, then the cross block, each drawn
    _DENSE_BLOCK rows at a time to bound memory."""
    pairs = []
    for lo, hi, col_lo, col_hi, p in ((0, s1, 0, s1, rho), (s1, n, s1, n, rho), (0, s1, s1, n, r)):
        cols = np.arange(col_lo, col_hi)
        for start in range(lo, hi, _DENSE_BLOCK):
            rows = np.arange(start, min(start + _DENSE_BLOCK, hi))[:, None]
            # source < target samples each same-block pair once, and holds across the blocks
            pairs.append(np.argwhere((rng.random((rows.size, cols.size)) < p) & (rows < cols)) + (start, col_lo))
    return np.concatenate(pairs)


def stationary_distribution(graph: WeightedDigraph, tol: float = 1e-12, max_iter: int = 100_000) -> np.ndarray:
    """Left fixed vector of the update operator by power iteration.

    Returns the probability vector pi with l1 residual ||pi @ W - pi|| <= tol.
    A graph that is not strongly connected through its nonzero weights,
    whose fixed vector need not be unique, raises GraphError; a periodic
    chain does not converge and raises ConvergenceError naming the
    iteration cap.
    """
    if not is_normalized(graph):
        raise GraphError("stationary distribution needs normalized incoming weights")
    # a stored zero weight carries no mass, so here, unlike in validate and
    # is_strongly_connected, it is not an edge
    support = graph.matrix.copy()
    support.eliminate_zeros()
    if not is_strongly_connected(WeightedDigraph(support)):
        raise GraphError("stationary distribution needs a strongly connected graph")
    n = graph.n
    pi = np.full(n, 1.0 / n)
    matrix = graph.matrix
    for _ in range(max_iter):
        nxt = matrix.T @ pi
        total = nxt.sum()
        if total <= 0.0 or not math.isfinite(total):
            raise ConvergenceError("power iteration left the simplex")
        nxt /= total
        if np.abs(nxt - pi).sum() <= tol:
            return pi
        pi = nxt
    raise ConvergenceError(f"power iteration did not reach tol={tol} within {max_iter} iterations")


def save_edge_list(graph: WeightedDigraph, path) -> None:
    """Write source,target,weight rows with full float precision."""
    write_csv(path, ["source", "target", "weight"], graph.edges())


def load_edge_list(path) -> WeightedDigraph:
    """Read a source,target,weight file written by save_edge_list; a node id
    outside [0, _MAX_NODES) is an error that names its line."""
    triples = []
    rows = read_csv(path)
    _, header = next(rows, (None, None))
    if header is None or [h.strip() for h in header[:3]] != ["source", "target", "weight"]:
        raise GraphError(f"expected header source,target,weight in {path}")
    for line, row in rows:
        if len(row) < 3:
            raise GraphError(f"{path} line {line}: {len(row)} fields, an edge has 3")
        try:
            source, target, weight = int(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise GraphError(f"{path} line {line}: {exc}") from None
        if not (0 <= source < _MAX_NODES and 0 <= target < _MAX_NODES):
            raise GraphError(f"{path} line {line}: node ids must lie in [0, {_MAX_NODES}), got {source},{target}")
        triples.append((source, target, weight))
    if not triples:
        raise GraphError(f"no edges in {path}")
    n = max(max(s, t) for s, t, _ in triples) + 1
    return from_edges(n, triples)
