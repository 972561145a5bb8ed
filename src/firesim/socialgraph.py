"""Directed follower graph and the account population living on it.

Edges point follower -> followee; content exposure flows the other way
(a post by ``v`` is seen by every ``u`` with an edge ``u -> v``).  The
substrate is a scale-free preferential-attachment graph seeded with a
complete clique, onto which a company roster (employees, managers, their
coworker follow edges) is overlaid.
"""

from __future__ import annotations

import itertools
import math
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


ROSTER_KINDS = (AccountKind.EMPLOYEE, AccountKind.MANAGER)


@dataclass
class Account:
    """Per-account view. ``pride`` is meaningful only for roster members."""

    id: AccountId
    kind: AccountKind
    creation_tick: int
    ocean: np.ndarray  # five traits in [0, 1]
    pride: float | None
    stress: float
    posting_rate: float


class AccountTable:
    """Column store for the whole population; cheap to copy and to slice.

    ``pride`` holds NaN outside the roster so the "pride defined iff
    employee or manager" invariant is checkable without a sidecar set.
    """

    def __init__(self, kind, creation_tick, ocean, pride, stress, posting_rate):
        self.kind = np.asarray(kind, dtype=np.int8)
        self.creation_tick = np.asarray(creation_tick, dtype=np.int64)
        self.ocean = np.asarray(ocean, dtype=np.float64)
        self.pride = np.asarray(pride, dtype=np.float64)
        self.stress = np.asarray(stress, dtype=np.float64)
        self.posting_rate = np.asarray(posting_rate, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.kind)

    @classmethod
    def real_users(cls, n: int, rng: np.random.Generator, *, posting_rate: float,
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
            posting_rate=np.full(n, float(posting_rate)),
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
        self.posting_rate = np.concatenate([self.posting_rate, np.zeros(count)])
        return list(range(start, start + count))

    def account(self, i: AccountId) -> Account:
        pride = self.pride[i]
        return Account(
            id=int(i),
            kind=AccountKind(int(self.kind[i])),
            creation_tick=int(self.creation_tick[i]),
            ocean=self.ocean[i],
            pride=None if math.isnan(pride) else float(pride),
            stress=float(self.stress[i]),
            posting_rate=float(self.posting_rate[i]),
        )

    def copy(self) -> "AccountTable":
        return AccountTable(
            self.kind.copy(), self.creation_tick.copy(), self.ocean.copy(),
            self.pride.copy(), self.stress.copy(), self.posting_rate.copy(),
        )

    def __deepcopy__(self, memo) -> "AccountTable":
        return self.copy()


@dataclass
class CompanyRoster:
    """Identities of the attacked company's staff accounts."""

    company_id: str
    employees: list[AccountId] = field(default_factory=list)
    managers: list[AccountId] = field(default_factory=list)
    manager_roles: dict[AccountId, str] = field(default_factory=dict)
    security_posture: float = 0.9

    @property
    def members(self) -> list[AccountId]:
        return sorted(self.employees + self.managers)

    def __post_init__(self):
        if not 0.0 <= self.security_posture <= 1.0:
            raise GraphError("security_posture must lie in [0, 1]")
        dup = set(self.employees) & set(self.managers)
        if dup:
            raise GraphError(f"accounts cannot be both employee and manager: {sorted(dup)}")


class SocialGraph:
    """Mutable directed follower graph over integer account ids."""

    def __init__(self):
        self._n = 0
        self._edges: set[tuple[int, int]] = set()
        self._followees: list[list[int]] = []  # whom i follows
        self._followers: list[list[int]] = []  # who follows i
        self._follower_csr: tuple[np.ndarray, np.ndarray] | None = None

    # -- structure ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def add_nodes(self, count: int) -> list[AccountId]:
        if count < 0:
            raise GraphError("node count must be non-negative")
        start = self._n
        self._n += count
        for _ in range(count):
            self._followees.append([])
            self._followers.append([])
        self._follower_csr = None
        return list(range(start, start + count))

    def has_edge(self, follower: AccountId, followee: AccountId) -> bool:
        return (follower, followee) in self._edges

    def add_edge(self, follower: AccountId, followee: AccountId) -> bool:
        """Add follower -> followee. Returns False for duplicates/self-loops."""
        if not (0 <= follower < self._n and 0 <= followee < self._n):
            raise GraphError(f"edge references unknown node: ({follower}, {followee})")
        if follower == followee or (follower, followee) in self._edges:
            return False
        self._edges.add((follower, followee))
        self._followees[follower].append(followee)
        self._followers[followee].append(follower)
        self._follower_csr = None
        return True

    def add_follow_pair(self, u: AccountId, v: AccountId) -> None:
        """Mutual follow between two accounts."""
        self.add_edge(u, v)
        self.add_edge(v, u)

    def followees(self, i: AccountId) -> list[AccountId]:
        return sorted(self._followees[i])

    def followers(self, i: AccountId) -> list[AccountId]:
        return sorted(self._followers[i])

    def follower_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached read-only ``(indptr, indices)``: the sorted followers of
        ``i`` are ``indices[indptr[i]:indptr[i + 1]]``.  Rebuilt after any
        mutation."""
        if self._follower_csr is None:
            lens = np.fromiter(map(len, self._followers), dtype=np.intp, count=self._n)
            indptr = np.zeros(self._n + 1, dtype=np.intp)
            np.cumsum(lens, out=indptr[1:])
            indices = np.fromiter(
                itertools.chain.from_iterable(sorted(f) for f in self._followers),
                dtype=np.intp, count=int(indptr[-1]))
            indptr.flags.writeable = indices.flags.writeable = False
            self._follower_csr = (indptr, indices)
        return self._follower_csr

    def follower_array(self, i: AccountId) -> np.ndarray:
        """Sorted followers of ``i`` as a read-only view into the CSR index."""
        indptr, indices = self.follower_csr()
        return indices[indptr[i]:indptr[i + 1]]

    def in_degree(self, i: AccountId) -> int:
        return len(self._followers[i])

    def out_degree(self, i: AccountId) -> int:
        return len(self._followees[i])

    def in_degrees(self) -> np.ndarray:
        return np.array([len(f) for f in self._followers], dtype=np.int64)

    def edges(self) -> list[tuple[AccountId, AccountId]]:
        return sorted(self._edges)


def scale_free_pair_count(n: int, m: int) -> int:
    """Undirected follow pairs produced by ``generate_scale_free(n, m)``.

    The seed is a complete clique on ``m0 = min(n, m + 1)`` nodes; every
    later node attaches to ``m`` distinct existing nodes.
    """
    m0 = min(n, m + 1)
    return m * (n - m0) + m0 * (m0 - 1) // 2


def generate_scale_free(n: int, m: int, seed) -> SocialGraph:
    """Preferential-attachment follower graph with mutual follow pairs.

    Starts from a complete clique on ``min(n, m + 1)`` nodes, then grows one
    node per step, wiring each to ``m`` distinct targets drawn proportionally
    to current degree.  Every follow pair is materialised as two directed
    edges.  Deterministic for a fixed ``seed``.
    """
    if m < 1:
        raise GraphError("m must be at least 1")
    if n < m:
        raise GraphError(f"need at least m={m} nodes, got n={n}")
    rng = np.random.default_rng(seed)
    g = SocialGraph()
    g.add_nodes(n)
    m0 = min(n, m + 1)
    # attachment pool holds one entry per pair endpoint, i.e. node degree
    pool: list[int] = []
    for u in range(m0):
        for v in range(u + 1, m0):
            g.add_follow_pair(u, v)
            pool.append(u)
            pool.append(v)
    for v in range(m0, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(pool[int(rng.integers(len(pool)))])
        for t in sorted(targets):
            g.add_follow_pair(v, t)
            pool.append(t)
            pool.append(v)
    return g


def build_roster(graph: SocialGraph, accounts: AccountTable, *, company_id: str,
                 employees: int, managers: int, security_posture: float,
                 manager_roles: tuple[str, ...], rng: np.random.Generator) -> CompanyRoster:
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
        security_posture=security_posture,
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
    members = roster.members
    for i in members:
        if not 0 <= i < graph.n_nodes:
            raise GraphError(f"roster account {i} not present in graph")
    for i in roster.employees:
        accounts.kind[i] = AccountKind.EMPLOYEE
    for i in roster.managers:
        accounts.kind[i] = AccountKind.MANAGER
    for i in members:
        accounts.pride[i] = rng.random()
    for a in members:
        for b in members:
            if a == b:
                continue
            if rng.random() < coworker_fraction and not graph.has_edge(a, b):
                graph.add_edge(a, b)
    return graph


def identify_hubs(graph: SocialGraph, k: int) -> list[AccountId]:
    """Top-k accounts by in-degree; ties break toward the lower id."""
    if k <= 0:
        return []
    degrees = graph.in_degrees()
    order = sorted(range(graph.n_nodes), key=lambda i: (-degrees[i], i))
    return order[:k]


def identify_human_targets(graph: SocialGraph, accounts: AccountTable,
                           roster: CompanyRoster, k: int,
                           weights: tuple[float, float, float]) -> list[AccountId]:
    """Roster members ranked for worker-focused pressure.

    Score blends follower reach (in-degree relative to the best-followed
    account in the graph), pride, and a manager flag.
    """
    if k <= 0:
        return []
    w_deg, w_pride, w_mgr = weights
    degrees = graph.in_degrees()
    max_deg = int(degrees.max()) if graph.n_nodes else 0
    scores: dict[AccountId, float] = {}
    for i in roster.members:
        reach = degrees[i] / max_deg if max_deg else 0.0
        pride = accounts.pride[i]
        pride = 0.0 if math.isnan(pride) else pride
        scores[i] = w_deg * reach + w_pride * pride + w_mgr * (i in set(roster.managers))
    order = sorted(scores, key=lambda i: (-scores[i], i))
    return order[:min(k, len(order))]


# -- persistence -----------------------------------------------------------

NODE_TABLE_HEADER = "id\tkind\tcreation_tick\tocean\tpride"


def write_edge_list(graph: SocialGraph, path) -> None:
    """One ``follower<TAB>followee`` line per directed edge, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in graph.edges():
            fh.write(f"{u}\t{v}\n")


def read_edge_list(path, n_nodes: int) -> SocialGraph:
    g = SocialGraph()
    g.add_nodes(n_nodes)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = line.split("\t")
            if not g.add_edge(int(u), int(v)):
                raise GraphError(f"duplicate or degenerate edge in {path}: {line!r}")
    return g


def write_node_table(accounts: AccountTable, path) -> None:
    """Sidecar account annotations: id, kind, creation tick, OCEAN, pride."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(NODE_TABLE_HEADER + "\n")
        for i in range(len(accounts)):
            ocean = ",".join(repr(float(x)) for x in accounts.ocean[i])
            pride = accounts.pride[i]
            pride_s = "" if math.isnan(pride) else repr(float(pride))
            fh.write(f"{i}\t{AccountKind(int(accounts.kind[i])).name}\t"
                     f"{int(accounts.creation_tick[i])}\t{ocean}\t{pride_s}\n")


def read_node_table(path) -> AccountTable:
    kinds, created, oceans, prides = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != NODE_TABLE_HEADER:
            raise GraphError(f"unexpected node table header in {path}: {header!r}")
        for idx, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line:
                continue
            i, kind, tick, ocean, pride = line.split("\t")
            if int(i) != idx:
                raise GraphError(f"node table ids must be dense, got {i} at row {idx}")
            kinds.append(AccountKind[kind])
            created.append(int(tick))
            oceans.append([float(x) for x in ocean.split(",")])
            prides.append(float(pride) if pride else np.nan)
    n = len(kinds)
    return AccountTable(
        kind=np.array(kinds, dtype=np.int8),
        creation_tick=np.array(created, dtype=np.int64),
        ocean=np.array(oceans, dtype=np.float64).reshape(n, 5),
        pride=np.array(prides, dtype=np.float64),
        stress=np.zeros(n),
        posting_rate=np.zeros(n),
    )
