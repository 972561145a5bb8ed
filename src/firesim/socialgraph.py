"""Directed follower graph and the account population living on it.

Edges point follower -> followee; content exposure flows the other way
(a post by ``v`` is seen by every ``u`` with an edge ``u -> v``).  The
graph is held only as a follower CSR (the sorted followers of each node),
built once, when the graph is made, from every batch of edges its world
has: self-loops and repeats dropped, and never changed after.  The
substrate is a scale-free preferential-attachment graph seeded with a
complete clique, drawn in chunks of nodes with one bounded draw per chunk;
a chunk that hits a repeated target rewinds the generator, so the graph
and the stream are those of one draw per attachment.  The attacked
company's staff, two sorted id arrays (managers, employees), are picked
among its users, and their coworker follow edges are overlaid on it.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

AccountId = int


class GraphError(ValueError):
    """Raised for structurally invalid graph operations or parameters."""


class AccountKind(IntEnum):
    BOT = 0
    REAL_USER = 1
    EMPLOYEE = 2
    MANAGER = 3



class AccountTable:
    """Column store for the whole population; cheap to copy and to slice.

    ``pride`` holds NaN outside the roster so the "pride defined iff
    employee or manager" invariant is checkable without a sidecar set.
    """

    COLUMNS = ("kind", "creation_tick", "ocean", "pride", "stress")
    STATIC = COLUMNS[:-1]  # no tick writes these; ``freeze`` makes them read-only

    def __init__(self, kind, creation_tick, ocean, pride, stress):
        self.kind = np.asarray(kind, dtype=np.int8)
        self.creation_tick = np.asarray(creation_tick, dtype=np.int64)
        self.ocean = np.asarray(ocean, dtype=np.float64)
        self.pride = np.asarray(pride, dtype=np.float64)
        self.stress = np.asarray(stress, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.kind)

    @classmethod
    def real_users(cls, n: int, rng: np.random.Generator, *, creation_min: int,
                   creation_max: int, bots=()) -> "AccountTable":
        """Aged organic users with uniform OCEAN traits in rows ``[:n]``, then
        one block of ``count`` bots made at ``creation_tick`` for each
        ``(count, creation_tick)`` of ``bots``, in order; bots carry no
        behavioural traits of their own.  Every column is allocated once."""
        if creation_min > creation_max:
            raise GraphError("creation_min must not exceed creation_max")
        total = n + sum(count for count, _ in bots)
        kind = np.full(total, AccountKind.BOT, dtype=np.int8)
        kind[:n] = AccountKind.REAL_USER
        creation_tick = np.empty(total, dtype=np.int64)
        creation_tick[:n] = rng.integers(creation_min, creation_max + 1, size=n)
        ocean = np.full((total, 5), 0.5)
        rng.random(out=ocean[:n])
        start = n
        for count, created in bots:
            creation_tick[start:start + count] = created
            start += count
        return cls(kind, creation_tick, ocean, np.full(total, np.nan), np.zeros(total))

    def freeze(self) -> "AccountTable":
        """Make the static columns read-only; copies share them from then on."""
        for name in self.STATIC:
            getattr(self, name).flags.writeable = False
        return self

    def copy(self) -> "AccountTable":
        """A table of its own: read-only columns are shared, writable ones copied."""
        columns = (getattr(self, name) for name in self.COLUMNS)
        return AccountTable(*(c.copy() if c.flags.writeable else c for c in columns))

    def __deepcopy__(self, memo) -> "AccountTable":
        return self.copy()


class SocialGraph:
    """Immutable directed follower graph over the ids ``0..n-1``, held as a CSR.

    ``indices[indptr[i]:indptr[i + 1]]`` are the followers of ``i`` in
    ascending order.
    """

    def __init__(self, n: int, batches):
        """The graph of the follow edges ``src[k] -> dst[k]`` of every
        ``(src, dst)`` pair of integer arrays in ``batches``.

        Self-loops and repeats are dropped.  An id outside the graph raises
        ``GraphError``.  The CSR is built from one int64 array of
        ``followee * n + follower`` keys, each batch's written into its own
        slice and all sorted once in place, so that a repeat sits beside its
        first copy; the edges are never copied into one array.
        """
        if n < 0:
            raise GraphError("node count must be non-negative")
        batches = [tuple(np.asarray(ids).reshape(-1) for ids in batch) for batch in batches]
        keys = np.empty(sum(len(src) for src, _ in batches), dtype=np.int64)
        end = 0
        for src, dst in batches:
            if src.shape != dst.shape:
                raise GraphError("follower and followee arrays differ in length")
            outside = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n))
            if len(outside):
                k = outside[0]
                raise GraphError(f"edge references unknown node: ({src[k]}, {dst[k]})")
            stop = end + len(src)
            # in int64 even for int32 ids, whose product with n would overflow
            np.multiply(dst, n, out=keys[end:stop], dtype=np.int64)
            keys[end:stop] += src
            # self-loops: keys are >= 0, and -1s drop with the repeats
            keys[end:stop][src == dst] = -1
            end = stop
        keys.sort()
        # a sort and a neighbour test, as np.unique hashes and is far slower
        fresh = np.empty(len(keys), dtype=bool)
        fresh[:1] = keys[:1] != -1
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        self._n = n
        # keys are sorted by followee: node i's followers start at the first key >= i * n
        self._indptr = read_only(np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n))
        keys %= n
        self._indices = read_only(keys)

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._indices)

    def follower_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(indptr, indices)``: the sorted followers of ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]``."""
        return self._indptr, self._indices

    def follower_array(self, i: AccountId) -> np.ndarray:
        """Sorted followers of ``i`` as a read-only view into the CSR."""
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def in_degrees(self) -> np.ndarray:
        return np.diff(self._indptr).astype(np.int64)


def read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Nodes in the first generation chunk.  A chunk whose draws hold no repeated
# target doubles the next one; a rewind halves it.
_FIRST_CHUNK = 64


def generate_scale_free(n: int, m: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """The follow edges ``(src, dst)`` of a preferential-attachment graph
    with mutual follow pairs.

    Starts from a complete clique on ``m0 = min(n, m + 1)`` nodes, then grows
    one node per step, wiring each to ``m`` distinct targets drawn
    proportionally to current degree.  Every follow pair is materialised as
    two directed edges.  Deterministic for a fixed ``seed``.

    Degree-proportional draws index an attachment pool that holds one entry
    per pair endpoint (Batagelj & Brandes, PRE 71, 036113, 2005): the
    clique's pairs in order, then for node ``v`` and each of its sorted
    targets ``t`` the entries ``t, v``.  Node ``v`` draws ``m`` indices below
    the pool's length at ``v``, redrawing an index whose entry it already
    holds.  The pool is never built: an index decodes to a clique endpoint,
    to node ``u`` itself (odd slot) or to the ``j``-th sorted target of ``u``
    (even slot).  Nodes are drawn a chunk at a time with one bounded
    ``integers`` call; references into the chunk are resolved in passes,
    each of which completes and sorts the rows whose references are known.
    At the first row with a repeated target the stream diverges from the
    one-draw-per-index loop, so the generator state saved before the chunk
    is restored, the clean prefix redrawn, and that row's redraws made one
    at a time.  A bounded draw uses a variable number of raw words, so the
    surplus values cannot be reused.  The graph is the one the per-index
    loop gives, bit for bit.
    """
    if m < 1:
        raise GraphError("m must be at least 1")
    if n < m:
        raise GraphError(f"need at least m={m} nodes, got n={n}")
    rng = np.random.default_rng(seed)
    m0 = min(n, m + 1)
    clique_u, clique_w = np.triu_indices(m0, 1)
    clique_pool = np.stack([clique_u, clique_w], axis=1).ravel()
    c = len(clique_pool)
    # targets[v - m0] holds the sorted targets of node v
    targets = np.empty((n - m0, m), dtype=np.int64)

    a, chunk = m0, _FIRST_CHUNK
    while a < n:
        b = min(n, a + chunk)
        highs = np.repeat(c + 2 * m * (np.arange(a, b, dtype=np.int64) - m0), m)
        saved = rng.bit_generator.state
        rows = _resolve_chunk(rng.integers(highs).reshape(b - a, m), a, m0,
                              clique_pool, targets)
        repeats = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
        if not len(repeats):
            targets[a - m0:b - m0] = rows
            a, chunk = b, 2 * chunk
            continue
        r = int(repeats[0])
        rng.bit_generator.state = saved
        rng.integers(highs[:r * m])
        targets[a - m0:a - m0 + r] = rows[:r]
        v = a + r
        picked: set[int] = set()
        while len(picked) < m:
            idx = np.array([rng.integers(highs[r * m])])
            picked.add(int(_pool_entries(idx, v, m, m0, clique_pool, targets)[0][0]))
        targets[v - m0] = sorted(picked)
        a, chunk = v + 1, max(1, chunk // 2)

    # both directions of every pair, built once; int32 halves what the
    # edges hold until the graph is built, and every account id fits one
    grown = np.repeat(np.arange(m0, n, dtype=np.int64), m)
    src = np.concatenate([clique_u, grown, clique_w, targets.ravel()], dtype=np.int32)
    dst = np.concatenate([clique_w, targets.ravel(), clique_u, grown], dtype=np.int32)
    return src, dst


def _pool_entries(idx: np.ndarray, a: int, m: int, m0: int, clique_pool: np.ndarray,
                  targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attachment-pool entries at the indices ``idx``.

    Returns ``(entries, refs)``.  Where an index names the ``j``-th target
    of a node ``u >= a``, whose row is not known yet, ``refs`` holds the
    flat position ``(u - a) * m + j`` of that target and the entry is
    undefined; elsewhere ``refs`` is -1.
    """
    q = idx - len(clique_pool)
    u, s = np.divmod(q, 2 * m)
    u += m0
    entries = u.copy()  # odd slots: the node itself
    clique = q < 0
    entries[clique] = clique_pool[idx[clique]]
    target = ~clique & (s % 2 == 0)
    known = target & (u < a)
    entries[known] = targets[u[known] - m0, s[known] // 2]
    refs = np.where(target & (u >= a), (u - a) * m + s // 2, -1)
    return entries, refs


def _resolve_chunk(idx: np.ndarray, a: int, m0: int, clique_pool: np.ndarray,
                   targets: np.ndarray) -> np.ndarray:
    """Sorted target rows of nodes ``a, a + 1, ...`` from their pool indices.

    A row that repeats a target is returned sorted with the repeat in
    place; rows after it may then be wrong, and the caller discards them.
    """
    rows_n, m = idx.shape
    vals, refs = _pool_entries(idx, a, m, m0, clique_pool, targets)
    # a slot naming a target inside the chunk waits for that row to be sorted
    pending = np.flatnonzero(refs >= 0)
    ref = refs.ravel()[pending]
    open_refs = np.bincount(pending // m, minlength=rows_n)
    done = open_refs == 0
    vals[done] = np.sort(vals[done], axis=1)
    flat = vals.reshape(-1)
    while len(pending):
        ready = done[ref // m]
        hit = pending[ready]
        flat[hit] = flat[ref[ready]]
        open_refs -= np.bincount(hit // m, minlength=rows_n)
        newly = np.flatnonzero((open_refs == 0) & ~done)
        vals[newly] = np.sort(vals[newly], axis=1)
        done[newly] = True
        pending, ref = pending[~ready], ref[~ready]
    return vals


def build_roster(accounts: AccountTable, *, employees: int, managers: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The sorted ids ``(managers, employees)`` of the company's staff, drawn
    at once among untagged real users; the lowest ids are the managers."""
    total = employees + managers
    pool = np.flatnonzero(accounts.kind == AccountKind.REAL_USER)
    if total > len(pool):
        raise GraphError(f"roster of {total} exceeds untagged population {len(pool)}")
    picked = np.sort(rng.choice(pool, size=total, replace=False))
    return picked[:managers], picked[managers:]


def overlay_company(accounts: AccountTable, managers: np.ndarray, employees: np.ndarray, *,
                    coworker_fraction: float, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Tag the staff accounts in place and return their coworker follow
    edges ``(src, dst)``.

    Each ordered coworker pair gets a follow edge with probability
    ``coworker_fraction``.  Pride is sampled uniformly for every member, in
    ascending id order.
    """
    if not 0.0 <= coworker_fraction <= 1.0:
        raise GraphError("coworker_fraction must lie in [0, 1]")
    ids = np.sort(np.concatenate((managers, employees)))
    absent = ids[(ids < 0) | (ids >= len(accounts))]
    if len(absent):
        raise GraphError(f"roster account {absent[0]} not present in the account table")
    accounts.kind[employees] = AccountKind.EMPLOYEE
    accounts.kind[managers] = AccountKind.MANAGER
    # one draw per member, then one coin per ordered pair a != b, a-major:
    # the same doubles as a scalar draw each
    accounts.pride[ids] = rng.random(len(ids))
    off_diagonal = ~np.eye(len(ids), dtype=bool)
    follower = np.repeat(ids, len(ids)).reshape(len(ids), -1)[off_diagonal]
    followee = np.tile(ids, len(ids)).reshape(len(ids), -1)[off_diagonal]
    hit = rng.random(len(follower)) < coworker_fraction
    return follower[hit], followee[hit]


def identify_human_targets(graph: SocialGraph, accounts: AccountTable,
                           roster_ids: np.ndarray, manager_ids: np.ndarray, k: int,
                           weights: tuple[float, float, float]) -> list[AccountId]:
    """Staff ``roster_ids`` ranked for worker-focused pressure.

    Score blends follower reach (in-degree relative to the best-followed
    account in the graph), pride, and a manager flag.  Ties rank by
    ascending id.
    """
    if k <= 0:
        return []
    w_deg, w_pride, w_mgr = weights
    ids = np.asarray(roster_ids, dtype=np.intp)
    degrees = graph.in_degrees()
    max_deg = int(degrees.max()) if graph.n_nodes else 0
    reach = degrees[ids] / max_deg if max_deg else np.zeros(len(ids))
    pride = accounts.pride[ids]
    pride = np.where(np.isnan(pride), 0.0, pride)
    scores = w_deg * reach + w_pride * pride + w_mgr * np.isin(ids, manager_ids)
    return ids[np.lexsort((ids, -scores))][:k].tolist()
