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
    g = generate_scale_free(n, m, seed=1)
    assert g.edge_count == 2 * expected  # mutual follows: two directed edges


def test_generator_deterministic():
    a = generate_scale_free(300, 3, seed=42)
    b = generate_scale_free(300, 3, seed=42)
    assert _edges(a) == _edges(b)
    c = generate_scale_free(300, 3, seed=43)
    assert _edges(a) != _edges(c)


def test_generator_rejects_bad_sizes():
    with pytest.raises(GraphError):
        generate_scale_free(2, 3, seed=0)
    with pytest.raises(GraphError):
        generate_scale_free(10, 0, seed=0)


def test_degree_skew_is_heavy_tailed():
    g = generate_scale_free(2000, 3, seed=7)
    degrees = np.sort(g.in_degrees())[::-1]
    # preferential attachment: the top node should dwarf the median
    assert degrees[0] >= 8 * np.median(degrees)


def test_edges_are_mutual_followS():
    g = generate_scale_free(50, 2, seed=3)
    edges = set(_edges(g))
    for u, v in edges:
        assert (v, u) in edges


def test_add_edge_rules():
    g = SocialGraph()
    g.add_nodes(3)
    assert g.add_edges([0], [1]) == 1
    assert g.add_edges([0], [1]) == 0      # duplicate
    assert g.add_edges([2], [2]) == 0      # self-loop
    with pytest.raises(GraphError):
        g.add_edges([0], [9])
    assert _edges(g) == [(0, 1)]
    assert g.follower_array(1).tolist() == [0]
    assert g.in_degrees().tolist() == [0, 1, 0]


def _assert_csr_rows_match(g):
    indptr, indices = g.follower_csr()
    assert len(indptr) == g.n_nodes + 1 and indptr[-1] == g.edge_count
    for i in range(g.n_nodes):
        row = indices[indptr[i]:indptr[i + 1]]
        assert np.array_equal(g.follower_array(i), row)
        assert np.all(np.diff(row) > 0)


def test_follower_array_cache_invalidates():
    g = SocialGraph()
    g.add_nodes(3)
    g.add_edges([0], [2])
    assert list(g.follower_array(2)) == [0]
    g.add_edges([1], [2])
    assert list(g.follower_array(2)) == [0, 1]
    _assert_csr_rows_match(g)
    g.add_nodes(2)
    assert g.follower_array(4).tolist() == []
    g.add_edges([4], [1])
    g.add_edges([3], [1])
    assert g.follower_array(1).tolist() == [3, 4]
    _assert_csr_rows_match(g)
    indptr, indices = g.follower_csr()
    assert not indptr.flags.writeable and not indices.flags.writeable


def test_follower_csr_rows_match_followers_after_overlay():
    g = generate_scale_free(300, 3, seed=5)
    accounts = _table(300)
    roster = build_roster(g, accounts, company_id="acme", employees=12, managers=3,
                          security_posture=0.9, manager_roles=("ceo",),
                          rng=np.random.default_rng(1))
    g.follower_csr()  # cached before the overlay adds coworker edges
    overlay_company(g, accounts, roster, coworker_fraction=0.5,
                    rng=np.random.default_rng(2))
    _assert_csr_rows_match(g)


def _table(n, seed=0):
    rng = np.random.default_rng(seed)
    return AccountTable.real_users(n, rng, posting_rate=0.35,
                                   creation_min=-20000, creation_max=-2000)


def test_real_users_shape_and_ranges():
    t = _table(100)
    assert len(t) == 100
    assert t.ocean.shape == (100, 5)
    assert np.all((t.ocean >= 0) & (t.ocean <= 1))
    assert np.all((t.creation_tick >= -20000) & (t.creation_tick <= -2000))
    assert np.all(np.isnan(t.pride))
    assert np.all(t.kind == AccountKind.REAL_USER)


def test_append_bots_block():
    t = _table(10)
    ids = t.append_bots(5, creation_tick=-48)
    assert ids == list(range(10, 15))
    assert np.all(t.kind[10:] == AccountKind.BOT)
    assert np.all(t.creation_tick[10:] == -48)
    assert np.all(t.posting_rate[10:] == 0.0)


def test_roster_pick_then_overlay_tags():
    g = generate_scale_free(200, 3, seed=5)
    t = _table(200, seed=5)
    rng = np.random.default_rng(9)
    roster = build_roster(g, t, company_id="co", employees=12, managers=3,
                          security_posture=0.9, manager_roles=("ceo", "cco", "ciso"),
                          rng=rng)
    assert len(roster.employees) == 12 and len(roster.managers) == 3
    assert set(roster.manager_roles.values()) == {"ceo", "cco", "ciso"}
    members = roster.members
    before = g.edge_count
    overlay_company(g, t, roster, coworker_fraction=0.5, rng=rng)
    assert np.all(t.kind[roster.employees] == AccountKind.EMPLOYEE)
    assert np.all(t.kind[roster.managers] == AccountKind.MANAGER)
    assert not np.any(np.isnan(t.pride[members]))
    outside = np.setdiff1d(np.arange(200), members)
    assert np.all(np.isnan(t.pride[outside]))
    added = g.edge_count - before
    assert added > 0
    # coworker follows stay inside the roster
    member_set = set(members)
    baseline = _edges(generate_scale_free(200, 3, seed=5))
    for edge in set(_edges(g)) - set(baseline):
        assert edge[0] in member_set and edge[1] in member_set


def test_identify_human_targets_prefers_connected_stressed():
    g = generate_scale_free(120, 3, seed=2)
    t = _table(120, seed=2)
    rng = np.random.default_rng(4)
    roster = build_roster(g, t, company_id="co", employees=10, managers=3,
                          security_posture=0.9, manager_roles=("ceo", "cco", "ciso"),
                          rng=rng)
    targets = identify_human_targets(g, t, roster, 5, (0.4, 0.4, 0.2))
    assert len(targets) == 5
    assert set(targets) <= set(roster.members)
    # managers outrank rank-and-file employees under the default weights
    degrees = g.in_degrees()
    scores = {i: (t.kind[i] == AccountKind.MANAGER, degrees[i]) for i in roster.members}
    top = max(roster.members, key=lambda i: scores[i])
    assert top in targets or degrees[targets[0]] >= degrees[top]


@given(n=st.integers(min_value=2, max_value=60), m=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pair_count_property(n, m, seed):
    if n < m:
        return
    g = generate_scale_free(n, m, seed)
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


def _set_overlay(g, accounts, roster, coworker_fraction, rng):
    members = roster.members
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
    _assert_same_graph(generate_scale_free(n, m, seed), ref)


def test_generator_rewinds_inside_the_first_chunk():
    n, m, seed = 300, 3, 4
    ref, redrew = _set_scale_free(n, m, seed)
    assert redrew and redrew[0] < m + 1 + socialgraph._FIRST_CHUNK
    _assert_same_graph(generate_scale_free(n, m, seed), ref)


def test_generator_leaves_the_stream_where_the_loop_does():
    rng = np.random.default_rng(11)
    ref_rng = np.random.default_rng(11)
    _set_scale_free(1500, 3, ref_rng)
    generate_scale_free(1500, 3, rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_overlay_matches_the_scalar_coin_loop():
    g = generate_scale_free(300, 3, seed=5)
    ref, _ = _set_scale_free(300, 3, 5)
    accounts, ref_accounts = _table(300), _table(300)
    roster = build_roster(g, accounts, company_id="acme", employees=14, managers=4,
                          security_posture=0.9, manager_roles=("ceo",),
                          rng=np.random.default_rng(1))
    overlay_company(g, accounts, roster, coworker_fraction=0.4,
                    rng=np.random.default_rng(2))
    _set_overlay(ref, ref_accounts, roster, 0.4, np.random.default_rng(2))
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
        posting_rate=cfg.agents.posting_rate, creation_min=cfg.run.user_creation_min,
        creation_max=cfg.run.user_creation_max)
    rng_roster = np.random.default_rng(ss_roster)
    r = cfg.roster
    nodes = SocialGraph()  # build_roster reads only the node count
    nodes.add_nodes(cfg.graph.n)
    roster = build_roster(nodes, accounts, company_id=r.company_id, employees=r.employees,
                          managers=r.managers, security_posture=r.security_posture,
                          manager_roles=r.manager_roles, rng=rng_roster)
    _set_overlay(ref, accounts, roster, cfg.graph.coworker_fraction, rng_roster)
    rng_bots = np.random.default_rng(ss_bots)
    ref.add_nodes(cfg.attack.bots)
    for bot in range(cfg.graph.n, cfg.graph.n + cfg.attack.bots):
        mask = rng_bots.random(cfg.graph.n) < cfg.graph.bot_follower_fraction
        for user in np.flatnonzero(mask):
            ref.add_edge(int(user), bot)
    assert roster.members == sim.company.roster.members
    _assert_same_graph(sim.graph, ref)


_ids = st.integers(min_value=0, max_value=11)


@given(n=st.integers(min_value=1, max_value=12),
       batches=st.lists(st.lists(st.tuples(_ids, _ids), max_size=30), max_size=5))
@settings(max_examples=150, deadline=None)
def test_add_edges_matches_an_edge_set(n, batches):
    g = SocialGraph()
    g.add_nodes(n)
    ref = _SetGraph(n)
    for batch in batches:
        batch = [(u % n, v % n) for u, v in batch]
        added = sum(ref.add_edge(u, v) for u, v in batch)
        src, dst = np.array(batch, dtype=np.int64).reshape(-1, 2).T
        assert g.add_edges(src, dst) == added
        _assert_same_graph(g, ref)
    assert _edges(g) == sorted(ref.edges)
    for u in range(n):
        assert g.follower_array(u).tolist() == sorted(ref.followers[u])


@pytest.mark.parametrize("src,dst", [([0, 3], [1, 1]), ([0, 1], [1, -1]),
                                     ([5], [0]), ([0, 1], [1])])
def test_add_edges_rejects_unknown_nodes_and_leaves_the_graph(src, dst):
    g = SocialGraph()
    g.add_nodes(3)
    g.add_edges([1, 2], [0, 0])
    before = _edges(g)
    with pytest.raises(GraphError):
        g.add_edges(src, dst)
    assert _edges(g) == before and g.n_nodes == 3
