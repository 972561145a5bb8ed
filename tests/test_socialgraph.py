import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firesim import socialgraph
from firesim.scenario import build_simulation, config_from_dict
from firesim.socialgraph import (AccountKind, AccountTable, GraphError,
                                 SocialGraph, build_roster, generate_scale_free,
                                 identify_human_targets, overlay_company)


def scale_free_pair_count(n: int, m: int) -> int:
    """Undirected follow pairs produced by ``generate_scale_free(n, m)``.

    The seed is a complete clique on ``m0 = min(n, m + 1)`` nodes; every
    later node attaches to ``m`` distinct existing nodes.
    """
    m0 = min(n, m + 1)
    return m * (n - m0) + m0 * (m0 - 1) // 2


def _scale_free(n, m, seed, *batches):
    """The graph of ``generate_scale_free(n, m, seed)``'s edges and ``batches``."""
    return SocialGraph(n, [generate_scale_free(n, m, seed), *batches])


def _edges(g):
    """Every ``(follower, followee)`` edge, sorted, read off the CSR."""
    indptr, indices = g.follower_csr()
    followee = np.repeat(np.arange(g.n_nodes), np.diff(indptr))
    return sorted(zip(indices.tolist(), followee.tolist()))


# frozen from the closed form: a clique on m0 = min(n, m + 1) nodes plus m
# pairs per later node, every pair counted once
_pair_counts = [
    (5, 4, 10),    # pure clique: C(5, 2)
    (10, 2, 17),   # 3-clique + 7 * 2
    (100, 3, 294), # 4-clique + 96 * 3
    (1000, 3, 2994),
]


@pytest.mark.parametrize("n,m,expected", _pair_counts)
def test_pair_count_closed_form(n, m, expected):
    assert scale_free_pair_count(n, m) == expected


@pytest.mark.parametrize("n,m,expected", _pair_counts)
def test_generator_matches_pair_count(n, m, expected):
    g = _scale_free(n, m, seed=1)
    assert g.edge_count == 2 * expected  # mutual follows: two directed edges


def test_generator_deterministic():
    a = _scale_free(300, 3, seed=42)
    b = _scale_free(300, 3, seed=42)
    assert _edges(a) == _edges(b)
    c = _scale_free(300, 3, seed=43)
    assert _edges(a) != _edges(c)


def test_generator_rejects_bad_sizes():
    with pytest.raises(GraphError):
        generate_scale_free(2, 3, seed=0)
    with pytest.raises(GraphError):
        generate_scale_free(10, 0, seed=0)


def test_degree_skew_is_heavy_tailed():
    g = _scale_free(2000, 3, seed=7)
    degrees = np.sort(g.in_degrees())[::-1]
    # preferential attachment: the top node should dwarf the median
    assert degrees[0] >= 8 * np.median(degrees)


def test_edges_are_mutual_followS():
    g = _scale_free(50, 2, seed=3)
    edges = set(_edges(g))
    for u, v in edges:
        assert (v, u) in edges


def test_edge_rules():
    g = SocialGraph(3, [([0], [1]), ([0, 2], [1, 2])])  # a repeat, then a self-loop
    assert _edges(g) == [(0, 1)]
    assert g.follower_array(1).tolist() == [0]
    assert g.in_degrees().tolist() == [0, 1, 0]
    indptr, indices = g.follower_csr()
    assert not indptr.flags.writeable and not indices.flags.writeable
    with pytest.raises(GraphError):
        SocialGraph(3, [([0], [9])])


def _assert_csr_rows_match(g):
    indptr, indices = g.follower_csr()
    assert len(indptr) == g.n_nodes + 1 and indptr[-1] == g.edge_count
    for i in range(g.n_nodes):
        row = indices[indptr[i]:indptr[i + 1]]
        assert np.array_equal(g.follower_array(i), row)
        assert np.all(np.diff(row) > 0)


def test_follower_csr_rows_match_followers_after_overlay():
    accounts = _table(300)
    managers, employees = build_roster(accounts, employees=12, managers=3,
                                       rng=np.random.default_rng(1))
    coworkers = overlay_company(accounts, managers, employees, coworker_fraction=0.5,
                                rng=np.random.default_rng(2))
    _assert_csr_rows_match(_scale_free(300, 3, 5, coworkers))


def _table(n, seed=0):
    rng = np.random.default_rng(seed)
    return AccountTable.real_users(n, rng, creation_min=-20000, creation_max=-2000)


def test_real_users_shape_and_ranges():
    t = _table(100)
    assert len(t) == 100
    assert t.ocean.shape == (100, 5)
    assert np.all((t.ocean >= 0) & (t.ocean <= 1))
    assert np.all((t.creation_tick >= -20000) & (t.creation_tick <= -2000))
    assert np.all(np.isnan(t.pride))
    assert np.all(t.kind == AccountKind.REAL_USER)


def test_real_users_then_bot_blocks():
    """Bot blocks follow the users in order, and the users' rows and the
    generator's state are those of a table without them."""
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    t = AccountTable.real_users(10, rng, creation_min=-20000, creation_max=-2000,
                                bots=[(5, -48), (2, -7)])
    ref = AccountTable.real_users(10, ref_rng, creation_min=-20000, creation_max=-2000)
    assert len(t) == 17
    for name in AccountTable.COLUMNS:
        np.testing.assert_array_equal(getattr(t, name)[:10], getattr(ref, name))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.all(t.kind[10:] == AccountKind.BOT)
    assert t.creation_tick[10:].tolist() == [-48] * 5 + [-7] * 2
    assert np.all(t.ocean[10:] == 0.5)
    assert np.all(np.isnan(t.pride[10:])) and np.all(t.stress[10:] == 0.0)


def test_roster_pick_then_overlay_tags():
    t = _table(200, seed=5)
    rng = np.random.default_rng(9)
    managers, employees = build_roster(t, employees=12, managers=3, rng=rng)
    assert len(employees) == 12 and len(managers) == 3
    members = np.union1d(managers, employees)
    # one sorted draw: the lowest ids are the managers
    assert len(members) == 15 and np.array_equal(members, np.concatenate([managers, employees]))
    before = _scale_free(200, 3, seed=5).edge_count
    g = _scale_free(200, 3, 5, overlay_company(t, managers, employees, coworker_fraction=0.5,
                                               rng=rng))
    assert np.all(t.kind[employees] == AccountKind.EMPLOYEE)
    assert np.all(t.kind[managers] == AccountKind.MANAGER)
    assert not np.any(np.isnan(t.pride[members]))
    outside = np.setdiff1d(np.arange(200), members)
    assert np.all(np.isnan(t.pride[outside]))
    added = g.edge_count - before
    assert added > 0
    # coworker follows stay inside the roster
    member_set = set(members.tolist())
    baseline = _edges(_scale_free(200, 3, seed=5))
    for edge in set(_edges(g)) - set(baseline):
        assert edge[0] in member_set and edge[1] in member_set


def test_identify_human_targets_prefers_connected_stressed():
    g = _scale_free(120, 3, seed=2)
    t = _table(120, seed=2)
    rng = np.random.default_rng(4)
    managers, employees = build_roster(t, employees=10, managers=3, rng=rng)
    members = np.union1d(managers, employees).tolist()
    targets = identify_human_targets(g, t, members, managers, 5, (0.4, 0.4, 0.2))
    assert len(targets) == 5
    assert set(targets) <= set(members)
    # managers outrank rank-and-file employees under the default weights
    degrees = g.in_degrees()
    scores = {i: (t.kind[i] == AccountKind.MANAGER, degrees[i]) for i in members}
    top = max(members, key=lambda i: scores[i])
    assert top in targets or degrees[targets[0]] >= degrees[top]


def test_identify_human_targets_breaks_score_ties_by_ascending_id():
    g = _scale_free(120, 3, seed=2)
    t = _table(120, seed=2)
    managers, employees = build_roster(t, employees=10, managers=3,
                                       rng=np.random.default_rng(4))
    members = np.union1d(managers, employees).tolist()
    # pride alone decides: two levels, each held by members spread over the roster
    t.pride[members] = [0.5 if k % 3 else 0.75 for k in range(len(members))]
    targets = identify_human_targets(g, t, members, managers, 8, (0.0, 1.0, 0.0))
    high = [i for k, i in enumerate(members) if k % 3 == 0]
    low = [i for k, i in enumerate(members) if k % 3]
    assert targets == (high + low)[:8]
    assert all(type(i) is int for i in targets)
    # with every score tied the ranking is the roster in id order
    assert identify_human_targets(g, t, members, managers, 99, (0.0, 0.0, 1.0)) == \
        managers.tolist() + employees.tolist()
    assert identify_human_targets(g, t, members, managers, 99, (0.0, 0.0, 0.0)) == members


@given(n=st.integers(min_value=2, max_value=60), m=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pair_count_property(n, m, seed):
    if n < m:
        return
    g = _scale_free(n, m, seed)
    assert g.edge_count == 2 * scale_free_pair_count(n, m)
    degrees = g.in_degrees()
    assert np.all(degrees >= min(m, n - 1))


# -- the CSR graph against the edge-set graph it replaced --------------------

class _SetGraph:
    """The edge-set graph with per-node lists that the CSR graph replaced."""

    def __init__(self, n):
        self.n = n
        self.edges = set()
        self.followers = [[] for _ in range(n)]

    def add_nodes(self, count):
        self.followers += [[] for _ in range(count)]
        self.n += count

    def add_edge(self, follower, followee):
        if follower == followee or (follower, followee) in self.edges:
            return False
        self.edges.add((follower, followee))
        self.followers[followee].append(follower)
        return True

    def csr(self):
        indptr = np.cumsum([0] + [len(f) for f in self.followers])
        indices = [i for f in self.followers for i in sorted(f)]
        return indptr, np.array(indices, dtype=np.int64)


def _set_scale_free(n, m, seed):
    """The one-draw-per-index generator; also returns the nodes that redrew."""
    rng = np.random.default_rng(seed)
    g = _SetGraph(n)
    m0 = min(n, m + 1)
    pool = []
    for u in range(m0):
        for v in range(u + 1, m0):
            g.add_edge(u, v)
            g.add_edge(v, u)
            pool += [u, v]
    redrew = []
    for v in range(m0, n):
        targets = set()
        draws = 0
        while len(targets) < m:
            targets.add(pool[int(rng.integers(len(pool)))])
            draws += 1
        if draws > m:
            redrew.append(v)
        for t in sorted(targets):
            g.add_edge(v, t)
            g.add_edge(t, v)
            pool += [t, v]
    return g, redrew


def _set_overlay(g, accounts, members, coworker_fraction, rng):
    for i in members:
        accounts.pride[i] = rng.random()
    for a in members:
        for b in members:
            if a != b and rng.random() < coworker_fraction:
                g.add_edge(a, b)


def _assert_same_graph(g, ref):
    indptr, indices = g.follower_csr()
    ref_indptr, ref_indices = ref.csr()
    assert g.n_nodes == ref.n and g.edge_count == len(ref.edges)
    assert np.array_equal(indptr, ref_indptr)
    assert np.array_equal(indices, ref_indices)


# (n, m, seed): pure cliques (n <= m + 1), n = m + 2, m = 1, and runs long
# enough for many chunks and rewinds
_GENERATOR_CASES = [(1, 1, 0), (2, 1, 0), (3, 3, 0), (4, 3, 2), (7, 6, 3),
                    (5, 3, 2), (8, 6, 1), (200, 1, 0), (3000, 1, 5),
                    (1000, 2, 0), (2000, 3, 1), (2500, 5, 9)]


@pytest.mark.parametrize("n,m,seed", _GENERATOR_CASES)
def test_generator_matches_the_one_draw_per_index_loop(n, m, seed):
    ref, _ = _set_scale_free(n, m, seed)
    _assert_same_graph(_scale_free(n, m, seed), ref)


def test_generator_rewinds_inside_the_first_chunk():
    n, m, seed = 300, 3, 4
    ref, redrew = _set_scale_free(n, m, seed)
    assert redrew and redrew[0] < m + 1 + socialgraph._FIRST_CHUNK
    _assert_same_graph(_scale_free(n, m, seed), ref)


def test_generator_leaves_the_stream_where_the_loop_does():
    rng = np.random.default_rng(11)
    ref_rng = np.random.default_rng(11)
    _set_scale_free(1500, 3, ref_rng)
    generate_scale_free(1500, 3, rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_overlay_matches_the_scalar_coin_loop():
    ref, _ = _set_scale_free(300, 3, 5)
    accounts, ref_accounts = _table(300), _table(300)
    managers, employees = build_roster(accounts, employees=14, managers=4,
                                       rng=np.random.default_rng(1))
    coworkers = overlay_company(accounts, managers, employees, coworker_fraction=0.4,
                                rng=np.random.default_rng(2))
    g = _scale_free(300, 3, 5, coworkers)
    members = sorted(managers.tolist() + employees.tolist())
    _set_overlay(ref, ref_accounts, members, 0.4, np.random.default_rng(2))
    _assert_same_graph(g, ref)
    assert np.array_equal(accounts.pride, ref_accounts.pride, equal_nan=True)


@pytest.mark.parametrize("seed", [0, 3])
def test_built_world_graph_matches_the_edge_set_build(seed):
    """All of build_simulation's graph: generator, overlay, bot followers."""
    cfg = config_from_dict({"graph": {"n": 600, "coworker_fraction": 1.0,
                                      "bot_follower_fraction": 0.05},
                            "run": {"seed": seed}})
    sim = build_simulation(cfg)
    ss_graph, ss_accounts, ss_roster, ss_bots, _, _ = \
        np.random.SeedSequence(seed).spawn(6)
    ref, _ = _set_scale_free(cfg.graph.n, cfg.graph.m, ss_graph)
    accounts = AccountTable.real_users(
        cfg.graph.n, np.random.default_rng(ss_accounts),
        creation_min=cfg.run.user_creation_min, creation_max=cfg.run.user_creation_max)
    rng_roster = np.random.default_rng(ss_roster)
    r = cfg.roster
    managers, employees = build_roster(accounts, employees=r.employees, managers=r.managers,
                                       rng=rng_roster)
    members = sorted(managers.tolist() + employees.tolist())
    _set_overlay(ref, accounts, members, cfg.graph.coworker_fraction, rng_roster)
    rng_bots = np.random.default_rng(ss_bots)
    ref.add_nodes(cfg.attack.bots)
    for bot in range(cfg.graph.n, cfg.graph.n + cfg.attack.bots):
        mask = rng_bots.random(cfg.graph.n) < cfg.graph.bot_follower_fraction
        for user in np.flatnonzero(mask):
            ref.add_edge(int(user), bot)
    assert sim.world.roster_ids.tolist() == members
    assert sim.world.manager_ids.tolist() == managers.tolist()
    assert sim.world.employee_ids.tolist() == employees.tolist()
    _assert_same_graph(sim.graph, ref)


@pytest.mark.parametrize("seed", [0, 1])
def test_generator_transient_memory_stays_bounded(traced_peak, seed):
    """One key array, sorted in place, builds the CSR of 119,988 edges
    (0.96 MB per int64 edge array) at a traced peak of 4.2-4.9 MB.  Keeping
    the sorted batch keys, the search positions and an insert beside the
    edge arrays peaked at 12.4-13.0 MB."""
    graph, peak = traced_peak(_scale_free, 20_000, 3, seed)
    assert graph.edge_count == 2 * scale_free_pair_count(20_000, 3)
    assert peak < 8 * 2**20


_ids = st.integers(min_value=0, max_value=11)


@given(n=st.integers(min_value=1, max_value=12),
       batches=st.lists(st.lists(st.tuples(_ids, _ids), max_size=30), max_size=5))
@settings(max_examples=150, deadline=None)
def test_graph_matches_an_edge_set(n, batches):
    ref = _SetGraph(n)
    arrays = []
    for batch in batches:
        batch = [(u % n, v % n) for u, v in batch]
        for u, v in batch:
            ref.add_edge(u, v)
        arrays.append(np.array(batch, dtype=np.int64).reshape(-1, 2).T)
    g = SocialGraph(n, arrays)
    _assert_same_graph(g, ref)
    assert _edges(g) == sorted(ref.edges)
    for u in range(n):
        assert g.follower_array(u).tolist() == sorted(ref.followers[u])


@pytest.mark.parametrize("src,dst", [([0, 3], [1, 1]), ([0, 1], [1, -1]),
                                     ([5], [0]), ([0, 1], [1])])
def test_graph_rejects_unknown_nodes(src, dst):
    with pytest.raises(GraphError):
        SocialGraph(3, [([1, 2], [0, 0]), (src, dst)])
