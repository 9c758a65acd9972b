"""Simple undirected graphs on vertices 0..n-1, G(n,p) generation, and the
edge-counting primitives everything else is built on.

Vertex sets are passed as Python ints used as bitmasks (bit v set <=> vertex
v in the set); a set held as a numpy array of vertex ids becomes one through
``vset_of``.  A ``Graph`` holds its edges as the canonical edge array, an
(m, 2) int64 array of the pairs u < v in lexicographic order, stored
column-major so that each endpoint column ``edges[:, 0]`` and
``edges[:, 1]`` is contiguous.  Counts over all vertices run on it:
``Graph.degrees`` is two bincount passes, and connected components are one
int32 label array (``component_labels``).

Counts over a vertex set (``degrees_into``, ``edges_inside`` and through
it ``edges_within`` / ``edges_meeting``, ``label_degrees``) follow one cost
rule, ``Graph._index_side``: they read the arcs of the side, the set or
its complement, with fewer arcs, gathered from the incidence index, a CSR
of sorted neighbour ids built once per graph and read-only.  Edges inside
a set and in-label degrees, which compare both ends of each arc, pass over
the edge array instead when even that side holds more than m / 2 arcs;
degrees into a set read the index at any size, since that side never
holds more than m arcs and a bincount of them costs less than the edge
pass's two.  Sorted neighbour lists serve the traversals and the
matching code; bitmask adjacency rows, built only for n <=
BITSET_ADJ_LIMIT, serve the exact decomposition search alone.  Both come
lazily from the incidence index.  The neighbour lists pay for the edges and
the non-isolated vertices (``Graph.support``, the one list of them): every
isolated vertex shares one empty row, and every row naming a vertex holds
the one Python int of it that ``support`` holds.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError

BITSET_ADJ_LIMIT = 1 << 16
# the bitset rows are packed a chunk of rows at a time, from a boolean
# temporary of about this many bytes; larger chunks raise peak memory and
# build no faster
ADJ_BITS_CHUNK_BYTES = 1 << 18

RNG_NAME = "philox4x64-numpy"  # counter-based; recorded in experiment metadata


def philox_rng(seed: int) -> np.random.Generator:
    """The generator RNG_NAME names, keyed by ``seed``; every seeded draw
    in the library comes from one of these."""
    if not (0 <= seed < 1 << 64):
        raise InputError(f"seed must be a 64-bit unsigned integer (got {seed})")
    return np.random.Generator(np.random.Philox(key=seed))


# ---------------------------------------------------------------------------
# vertex-set (bitmask) helpers
# ---------------------------------------------------------------------------

def vset(members: Iterable[int]) -> int:
    """Bitmask from an iterable of vertex ids."""
    m = 0
    for v in members:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vset_members(mask: int) -> list[int]:
    """Sorted vertex ids of a bitmask."""
    return list(iter_bits(mask))


def vset_from_flags(flags: np.ndarray) -> int:
    """Bitmask of the vertices whose entry in a boolean array is set."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                          "little")


def vset_of(members: np.ndarray, n: int) -> int:
    """Bitmask of an integer array of vertex ids below n, in O(n / 8) byte
    operations whatever its size: how a vertex array becomes a bitmask."""
    flags = np.zeros(n, dtype=bool)
    flags[members] = True
    return vset_from_flags(flags)


def vset_flags(mask: int, n: int) -> np.ndarray:
    """Boolean array of length n marking the members of a bitmask < 2^n."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

class Graph:
    """Immutable simple undirected graph with labeled vertices 0..n-1."""

    # _mate and _cover are the maximum matching (with its size, its
    # leaf-removal core and the core's adjacency) and the Konig-Egervary
    # split that ``matching`` computes once per graph and caches here
    __slots__ = ("n", "_edges", "_degrees", "_index", "_adj_bits",
                 "_adj_lists", "_support", "_labels", "_mate", "_cover")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError("vertex count must be >= 0")
        self.n = n
        try:
            arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        except ValueError as exc:           # ragged: pairs of unequal length
            raise InputError("edges must be (u, v) pairs") from exc
        if arr.size == 0:
            arr = np.zeros((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InputError("edges must be (u, v) pairs")
        if arr.dtype.kind not in "iu":
            raise InputError(f"edge endpoints must be integers (got {arr.dtype})")
        arr = arr.astype(np.int64, copy=False)
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise InputError("edge endpoint out of range")
            u = np.minimum(arr[:, 0], arr[:, 1])
            v = np.maximum(arr[:, 0], arr[:, 1])
            if (u == v).any():
                raise InputError("self-loops are not allowed")
            keys = np.sort(u * n + v)            # canonical lex order
            keep = np.empty(keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]                    # dedupe
            # column-major, so that each endpoint column is contiguous
            arr = np.stack([keys // n, keys % n]).T
        self._edges = arr
        self._degrees = None
        self._index = None
        self._adj_bits = None
        self._adj_lists = None
        self._support = None
        self._labels = None
        self._mate = None
        self._cover = None

    # -- basic accessors ----------------------------------------------------

    @property
    def m(self) -> int:
        return int(self._edges.shape[0])

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as (u, v) tuples with u < v, lexicographically sorted."""
        return [(int(u), int(v)) for u, v in self._edges]

    def edge_array(self) -> np.ndarray:
        return self._edges

    @property
    def degrees(self) -> np.ndarray:
        """The degree of every vertex, read-only."""
        if self._degrees is None:
            deg = (np.bincount(self._edges[:, 0], minlength=self.n)
                   + np.bincount(self._edges[:, 1], minlength=self.n))
            deg.flags.writeable = False
            self._degrees = deg
        return self._degrees

    @property
    def adj_bits(self) -> list[int]:
        """Bitmask rows, bit w of row v set for each edge vw; n^2/8 bytes."""
        if self._adj_bits is None:
            if self.n > BITSET_ADJ_LIMIT:
                raise InputError(
                    f"bitset adjacency unavailable for n={self.n} > {BITSET_ADJ_LIMIT}")
            indptr, nbrs = self._incidence()
            step = max(1, ADJ_BITS_CHUNK_BYTES // max(self.n, 1))
            rows: list[int] = []
            for lo in range(0, self.n, step):
                hi = min(self.n, lo + step)
                flags = np.zeros((hi - lo, self.n), dtype=bool)
                flags[np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1])),
                      nbrs[indptr[lo]:indptr[hi]]] = True
                packed = np.packbits(flags, axis=1, bitorder="little")
                del flags
                rows.extend(int.from_bytes(r.tobytes(), "little") for r in packed)
            self._adj_bits = rows
        return self._adj_bits

    @property
    def adj_lists(self) -> list[list[int]]:
        """Sorted neighbours of every vertex, read-only: the isolated
        vertices all share one empty row, so the build pays for the edges
        and the support, not for n."""
        if self._adj_lists is None:
            self._build_lists()
        return self._adj_lists

    @property
    def support(self) -> list[int]:
        """The non-isolated vertices, ascending, read-only."""
        if self._support is None:
            self._build_lists()
        return self._support

    def _build_lists(self) -> None:
        indptr, nbrs = self._incidence()
        support = np.flatnonzero(self.degrees)
        # one Python int per non-isolated vertex, shared by every row that
        # names it: each arc picks its head's int by the head's rank in the
        # support
        ints = support.astype(object)
        self._support = ints.tolist()
        rank = np.empty(self.n, dtype=np.intp)
        rank[support] = np.arange(support.size)
        flat = ints[rank[nbrs]].tolist()
        rows = [[]] * self.n
        for v, a, b in zip(self._support, indptr[support].tolist(),
                           indptr[1:][support].tolist()):
            rows[v] = flat[a:b]
        self._adj_lists = rows

    def _incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """The incidence index, built once per graph and read-only: CSR
        arrays (indptr, nbrs), the sorted neighbours of v being
        nbrs[indptr[v]:indptr[v + 1]], int32 while n < 2^31."""
        if self._index is None:
            self._index = self._build_incidence()
        return self._index

    def _build_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """The incidence index from one sort of the arc keys."""
        n = self.n
        u, v = self._edges[:, 0], self._edges[:, 1]
        # each arc src -> dst as the key src * n + dst: sorted, the keys run
        # through the rows in order, each row ascending
        keys = np.concatenate((u * n + v, v * n + u))
        keys.sort()
        nbrs = np.empty(keys.size, dtype=np.int32 if n < 1 << 31 else np.int64)
        np.remainder(keys, n, out=nbrs, casting="unsafe")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=indptr[1:])
        indptr.flags.writeable = False
        nbrs.flags.writeable = False
        return indptr, nbrs

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.degrees[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        lst = self.adj_lists[u]
        i = bisect.bisect_left(lst, v)
        return i < len(lst) and lst[i] == v

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")

    def _check_mask(self, mask: int) -> None:
        if mask < 0 or mask >> self.n:
            raise InputError("vertex set contains out-of-range vertices")

    # -- counting primitives --------------------------------------------------

    def _index_side(self, inside: np.ndarray, either_side: bool = True,
                    limit: float = 0.5):
        """The cost rule of every count over a vertex set.  Of the set that
        the boolean array ``inside`` marks and (with ``either_side``) its
        complement, the side with fewer arcs is read; it is returned as
        (members, flipped), flipped when it is the complement, if gathering
        its arcs from the incidence index costs less than one pass over
        the edge array, that is when they number at most ``limit`` * m.
        None sends the count to the edge array; with ``either_side`` and
        ``limit`` 1 it never does."""
        arcs = int(self.degrees[inside].sum())
        flipped = either_side and arcs > self.m
        if flipped:
            arcs = 2 * self.m - arcs
        if arcs > limit * self.m:
            return None
        return np.flatnonzero(inside != flipped), flipped

    def _heads(self, members: np.ndarray) -> np.ndarray:
        """The far end of every arc leaving the ascending vertex array
        ``members``, row by row, gathered from the incidence index.  They
        are int32 while n < 2^31; ``np.take`` reads an array through them
        faster than fancy indexing, which converts them first."""
        indptr, nbrs = self._incidence()
        lens = self.degrees[members]
        ends = np.cumsum(lens)
        pos = np.repeat(indptr[members] - (ends - lens), lens)
        pos += np.arange(pos.size)
        return nbrs[pos]

    def edges_within(self, mask: int) -> int:
        """Number of edges with both endpoints in ``mask``."""
        self._check_mask(mask)
        return self.edges_inside(vset_flags(mask, self.n))

    def edges_inside(self, inside: np.ndarray) -> int:
        """Number of edges with both ends in the vertex set the boolean
        array ``inside`` marks.  Read on the complement X, it is m less
        the arcs leaving X plus the edges inside X."""
        side = self._index_side(inside)
        if side is None:
            u, v = self._edges[:, 0], self._edges[:, 1]
            return int(np.count_nonzero(inside[u] & inside[v]))
        members, flipped = side
        heads = self._heads(members)
        # each edge inside the side read is two of its arcs
        within = int(np.count_nonzero(np.take(inside, heads) != flipped)) // 2
        return self.m - heads.size + within if flipped else within

    def edges_between(self, y: int, z: int) -> int:
        """Number of edges joining disjoint vertex sets ``y`` and ``z``."""
        self._check_mask(y)
        self._check_mask(z)
        if y & z:
            raise InputError("edges_between requires disjoint vertex sets")
        in_y, in_z = vset_flags(y, self.n), vset_flags(z, self.n)
        u, v = self._edges[:, 0], self._edges[:, 1]
        return int(np.count_nonzero((in_y[u] & in_z[v]) | (in_y[v] & in_z[u])))

    def degrees_into(self, inside: np.ndarray) -> np.ndarray:
        """Number of neighbours inside a vertex set, for every vertex at once;
        ``inside`` is a boolean array of length n.  It is read on the side
        with fewer arcs, always from the incidence index: on the complement
        it is the degree less the neighbours in the complement."""
        members, flipped = self._index_side(inside, limit=1)
        count = np.bincount(self._heads(members), minlength=self.n)
        return self.degrees - count if flipped else count

    def label_degrees(self, inside: np.ndarray,
                      labels: np.ndarray) -> np.ndarray:
        """For every vertex of the set the boolean array ``inside`` marks,
        its number of neighbours with the same entry in ``labels``; 0 for
        every other vertex.  The set must be a union of whole label
        classes, so that an edge whose ends share a label has both ends in
        the set or neither; its complement then tells nothing, and only
        the set's own arcs are read."""
        side = self._index_side(inside, either_side=False)
        if side is None:
            u, v = self._edges[:, 0], self._edges[:, 1]
            near = inside[u]
            u, v = u[near], v[near]
            same = labels[u] == labels[v]
            return (np.bincount(u[same], minlength=self.n)
                    + np.bincount(v[same], minlength=self.n))
        members, _ = side
        lens = self.degrees[members]
        same = (np.repeat(labels[members], lens)
                == np.take(labels, self._heads(members)))
        return np.bincount(np.repeat(members, lens)[same], minlength=self.n)

    def edges_meeting(self, mask: int) -> int:
        """Number of edges with at least one endpoint in ``mask``."""
        self._check_mask(mask)
        rest = self.full_mask() & ~mask
        return self.m - self.edges_within(rest)

    # -- components ---------------------------------------------------------

    def component_labels(self, removed: int = 0) -> tuple[int, np.ndarray]:
        """Connected components of the graph induced on V minus ``removed``
        as (count, int32 labels): components numbered by smallest member, -1
        on removed vertices.  Cached, read-only, when nothing is removed.

        Each tree root hooks onto the smallest root an edge joins it to, and
        pointer jumping flattens the trees, until no edge joins two trees
        (min-label hooking, after Shiloach & Vishkin 1982).  Roots only hook
        onto smaller roots, so a root is the smallest member of its tree.
        """
        if not removed and self._labels is not None:
            return self._labels
        self._check_mask(removed)
        alive = ~vset_flags(removed, self.n)
        u, v = self._edges[alive[self._edges].all(axis=1)].T
        root = np.arange(self.n)
        while True:
            ru, rv = root[u], root[v]
            cross = ru != rv            # an edge inside a tree stays inside
            if not cross.any():
                break
            u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
            # every vertex points at its root here, so only roots hook
            np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
            while not np.array_equal(up := root[root], root):
                root = up
        is_root = (root == np.arange(self.n)) & alive
        labels = (np.cumsum(is_root, dtype=np.int32) - 1)[root]
        labels[~alive] = -1
        result = int(np.count_nonzero(is_root)), labels
        if not removed:
            labels.flags.writeable = False
            self._labels = result
        return result

    # -- serialization --------------------------------------------------------

    def to_edge_list_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{int(u)} {int(v)}" for u, v in self._edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list_text(cls, text: str) -> "Graph":
        tokens = text.split()
        if len(tokens) < 2:
            raise InputError("edge-list input needs a header line 'n m'")
        try:
            n, m = int(tokens[0]), int(tokens[1])
            flat = [int(t) for t in tokens[2:]]
        except ValueError as exc:
            raise InputError(f"bad edge-list token: {exc}") from exc
        if len(flat) != 2 * m:
            raise InputError(f"expected {m} edges, found {len(flat) // 2}")
        edges = list(zip(flat[0::2], flat[1::2]))
        return cls(n, edges)

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self._edges.shape == other._edges.shape
                and bool((self._edges == other._edges).all()))

    def __hash__(self):
        return hash((self.n, self._edges.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GnpParams:
    """Parameters of one G(n,p) draw; identical params give identical graphs."""

    n: int
    p: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be >= 1")
        if not (0.0 <= self.p <= 1.0):
            raise InputError("p must lie in [0, 1]")
        if not (0 <= self.seed < 1 << 64):
            raise InputError("seed must be a 64-bit unsigned integer")


def gen_gnp(params: GnpParams) -> Graph:
    """Sample G(n,p): every vertex pair is an edge independently with prob p.

    Pairs are indexed lexicographically and sampled by geometric gap
    skipping, so the cost is O(p * n^2) rather than O(n^2).  Driven by the
    counter-based Philox generator, keyed by ``params.seed``.
    """
    n, p = params.n, params.p
    total = n * (n - 1) // 2
    if p <= 0.0 or total == 0:
        return Graph(n, [])
    if p >= 1.0:
        u, v = np.triu_indices(n, k=1)
        order = np.argsort(u * n + v, kind="stable")
        return Graph(n, np.stack([u[order], v[order]], axis=1))
    rng = philox_rng(params.seed)
    idx_chunks = []
    pos = -1
    expected = int(p * total) + 16
    while pos < total - 1:
        batch = min(max(1024, expected), 4_000_000)
        gaps = rng.geometric(p, size=batch).astype(np.int64)
        idx = pos + np.cumsum(gaps)
        take = idx[idx < total]
        idx_chunks.append(take)
        if take.size < idx.size:
            break
        pos = int(idx[-1])
        expected = int(p * (total - pos)) + 16
    if not idx_chunks:
        return Graph(n, [])
    indices = np.concatenate(idx_chunks)
    return Graph(n, _pairs_from_indices(n, indices))


def _pairs_from_indices(n: int, idx: np.ndarray) -> np.ndarray:
    """Invert lexicographic pair index: idx(u,v) = C(u) + v - u - 1 where
    C(u) = u*(n-1) - u*(u-1)/2 counts pairs whose first endpoint is < u.

    Counted from the end, so it stays exact at every n: r = total-1-idx
    pairs follow idx, the rows after u hold t(t+1)/2 of them for
    t = n-2-u, and the rest, n-1-v, lie in row u after v."""
    if idx.size == 0:
        return np.zeros((0, 2), dtype=np.int64)

    def tri(t):
        # t(t+1)/2 without forming t(t+1), which leaves int64 before the
        # pair count does
        return (t + 1) // 2 * (t | 1)

    r = n * (n - 1) // 2 - 1 - idx.astype(np.int64)
    t = np.floor((np.sqrt(8.0 * r + 1.0) - 1.0) / 2.0).astype(np.int64)
    # fix float rounding with exact integer checks
    t -= tri(t) > r
    t += tri(t + 1) <= r
    return np.stack([n - 2 - t, n - 1 - (r - tri(t))], axis=1)


def dense_regime_p(n: int) -> tuple[float, bool]:
    """The dense-regime edge probability 8 ln(n)/n, clamped into [0, 1].

    Returns (p, clamped_flag).
    """
    if n < 2:
        return 1.0, True
    raw = 8.0 * math.log(n) / n
    if raw > 1.0:
        return 1.0, True
    return raw, False
