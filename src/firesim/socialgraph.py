"""Directed follower graph and the account population living on it.

Edges point follower -> followee; content exposure flows the other way
(a post by ``v`` is seen by every ``u`` with an edge ``u -> v``).  The
graph is held only as a follower CSR (the sorted followers of each node),
and ``SocialGraph.add_edges`` is the one way edges get in: a batch with
self-loops and repeats dropped, merged into the CSR.  The substrate is a
scale-free preferential-attachment graph seeded with a complete clique,
drawn in chunks of nodes with one bounded draw per chunk; a chunk that
hits a repeated target rewinds the generator, so the graph and the stream
are those of one draw per attachment.  A company roster (employees,
managers, their coworker follow edges) is overlaid on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    def real_users(cls, n: int, rng: np.random.Generator, *,
                   creation_min: int, creation_max: int) -> "AccountTable":
        """Aged organic users with uniform OCEAN traits."""
        if creation_min > creation_max:
            raise GraphError("creation_min must not exceed creation_max")
        created = rng.integers(creation_min, creation_max + 1, size=n)
        return cls(
            kind=np.full(n, AccountKind.REAL_USER, dtype=np.int8),
            creation_tick=created,
            ocean=rng.random((n, 5)),
            pride=np.full(n, np.nan),
            stress=np.zeros(n),
        )

    def append_bots(self, count: int, *, creation_tick: int) -> list[AccountId]:
        """Append a bot block; bots carry no behavioural traits of their own."""
        start = len(self)
        self.kind = np.concatenate([self.kind, np.full(count, AccountKind.BOT, dtype=np.int8)])
        self.creation_tick = np.concatenate(
            [self.creation_tick, np.full(count, creation_tick, dtype=np.int64)])
        self.ocean = np.vstack([self.ocean, np.full((count, 5), 0.5)])
        self.pride = np.concatenate([self.pride, np.full(count, np.nan)])
        self.stress = np.concatenate([self.stress, np.zeros(count)])
        return list(range(start, start + count))

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


@dataclass
class CompanyRoster:
    """Identities of the attacked company's staff accounts."""

    company_id: str
    employees: list[AccountId] = field(default_factory=list)
    managers: list[AccountId] = field(default_factory=list)
    manager_roles: dict[AccountId, str] = field(default_factory=dict)

    @property
    def members(self) -> list[AccountId]:
        return sorted(self.employees + self.managers)

    def __post_init__(self):
        dup = set(self.employees) & set(self.managers)
        if dup:
            raise GraphError(f"accounts cannot be both employee and manager: {sorted(dup)}")


class SocialGraph:
    """Directed follower graph over integer account ids, held as a CSR.

    ``indices[indptr[i]:indptr[i + 1]]`` are the followers of ``i`` in
    ascending order.  ``add_edges`` is the one way edges get in.
    """

    def __init__(self):
        self._n = 0
        self._indptr = read_only(np.zeros(1, dtype=np.intp))
        self._indices = read_only(np.empty(0, dtype=np.intp))

    # -- structure ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._indices)

    def add_nodes(self, count: int) -> list[AccountId]:
        if count < 0:
            raise GraphError("node count must be non-negative")
        start = self._n
        self._n += count
        self._indptr = read_only(np.concatenate(
            [self._indptr, np.full(count, self._indptr[-1], dtype=np.intp)]))
        return list(range(start, start + count))

    def add_edges(self, src, dst) -> int:
        """Add the follow edges ``src[k] -> dst[k]`` in one batch.

        Self-loops, repeats within the batch and edges already present are
        skipped.  Returns how many edges were added.  An id outside the graph
        raises ``GraphError`` and adds nothing.  The CSR is rebuilt from one
        int64 array of ``followee * n + follower`` keys, those of the edges
        held (in order) and then the batch's (sorted alone), merged in place
        by a stable sort in O(E), so that a repeat sits beside its first copy.
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise GraphError("follower and followee arrays differ in length")
        n = self._n
        outside = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n))
        if len(outside):
            k = outside[0]
            raise GraphError(f"edge references unknown node: ({src[k]}, {dst[k]})")
        old_count = len(self._indices)
        keys = np.empty(old_count + len(src), dtype=np.int64)
        old, new = keys[:old_count], keys[old_count:]
        np.multiply(np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr)), n, out=old)
        old += self._indices
        np.multiply(dst, n, out=new)
        new += src
        new[src == dst] = -1  # self-loops: keys are >= 0, and -1s drop with the repeats
        new.sort()
        keys.sort(kind="stable")
        # a sort and a neighbour test, as np.unique hashes and is far slower
        fresh = np.empty(len(keys), dtype=bool)
        fresh[:1] = keys[:1] != -1
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        del old, new, fresh  # the views would keep the uncompacted keys alive
        follower = (keys % n).astype(np.intp, copy=False)
        keys //= n  # now each edge's followee
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
        self._indptr, self._indices = read_only(indptr), read_only(follower)
        return len(follower) - old_count

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


def generate_scale_free(n: int, m: int, seed) -> SocialGraph:
    """Preferential-attachment follower graph with mutual follow pairs.

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

    # both directions of every pair, built once; the parts go before the CSR build
    grown = np.repeat(np.arange(m0, n, dtype=np.int64), m)
    src = np.concatenate([clique_u, grown, clique_w, targets.ravel()])
    dst = np.concatenate([clique_w, targets.ravel(), clique_u, grown])
    del grown, targets
    g = SocialGraph()
    g.add_nodes(n)
    g.add_edges(src, dst)
    return g


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


def build_roster(graph: SocialGraph, accounts: AccountTable, *, company_id: str,
                 employees: int, managers: int, manager_roles: tuple[str, ...],
                 rng: np.random.Generator) -> CompanyRoster:
    """Pick roster members among existing untagged real users."""
    total = employees + managers
    if total > graph.n_nodes:
        raise GraphError(
            f"roster of {total} exceeds graph population {graph.n_nodes}")
    pool = np.flatnonzero(accounts.kind == AccountKind.REAL_USER)
    if total > len(pool):
        raise GraphError(f"roster of {total} exceeds untagged population {len(pool)}")
    picked = np.sort(rng.choice(pool, size=total, replace=False))
    manager_ids = [int(i) for i in picked[:managers]]
    employee_ids = [int(i) for i in picked[managers:]]
    roles = {mid: manager_roles[k] if k < len(manager_roles) else f"manager_{k}"
             for k, mid in enumerate(manager_ids)}
    return CompanyRoster(
        company_id=company_id,
        employees=employee_ids,
        managers=manager_ids,
        manager_roles=roles,
    )


def overlay_company(graph: SocialGraph, accounts: AccountTable, roster: CompanyRoster,
                    *, coworker_fraction: float, rng: np.random.Generator) -> SocialGraph:
    """Tag roster accounts and wire coworker follow edges in place.

    Each ordered coworker pair gains a follow edge with probability
    ``coworker_fraction``; existing edges are never removed.  Pride is
    sampled uniformly for every roster member.
    """
    if not 0.0 <= coworker_fraction <= 1.0:
        raise GraphError("coworker_fraction must lie in [0, 1]")
    ids = np.array(roster.members, dtype=np.int64)
    absent = ids[(ids < 0) | (ids >= graph.n_nodes)]
    if len(absent):
        raise GraphError(f"roster account {absent[0]} not present in graph")
    accounts.kind[roster.employees] = AccountKind.EMPLOYEE
    accounts.kind[roster.managers] = AccountKind.MANAGER
    # one draw per member, then one coin per ordered pair a != b, a-major:
    # the same doubles as a scalar draw each
    accounts.pride[ids] = rng.random(len(ids))
    off_diagonal = ~np.eye(len(ids), dtype=bool)
    follower = np.repeat(ids, len(ids)).reshape(len(ids), -1)[off_diagonal]
    followee = np.tile(ids, len(ids)).reshape(len(ids), -1)[off_diagonal]
    hit = rng.random(len(follower)) < coworker_fraction
    graph.add_edges(follower[hit], followee[hit])
    return graph


def identify_human_targets(graph: SocialGraph, accounts: AccountTable,
                           roster: CompanyRoster, k: int,
                           weights: tuple[float, float, float]) -> list[AccountId]:
    """Roster members ranked for worker-focused pressure.

    Score blends follower reach (in-degree relative to the best-followed
    account in the graph), pride, and a manager flag.  Ties rank by
    ascending id.
    """
    if k <= 0:
        return []
    w_deg, w_pride, w_mgr = weights
    ids = np.array(roster.members, dtype=np.intp)
    degrees = graph.in_degrees()
    max_deg = int(degrees.max()) if graph.n_nodes else 0
    reach = degrees[ids] / max_deg if max_deg else np.zeros(len(ids))
    pride = accounts.pride[ids]
    pride = np.where(np.isnan(pride), 0.0, pride)
    scores = w_deg * reach + w_pride * pride + w_mgr * np.isin(ids, roster.managers)
    return ids[np.lexsort((ids, -scores))][:k].tolist()
