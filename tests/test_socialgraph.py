import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firesim.socialgraph import (AccountKind, AccountTable, GraphError,
                                 SocialGraph, build_roster, generate_scale_free,
                                 identify_hubs, identify_human_targets,
                                 overlay_company, read_edge_list,
                                 read_node_table, scale_free_pair_count,
                                 write_edge_list, write_node_table)

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
    assert a.edges() == b.edges()
    c = generate_scale_free(300, 3, seed=43)
    assert a.edges() != c.edges()


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
    for u, v in g.edges():
        assert g.has_edge(v, u)


def test_add_edge_rules():
    g = SocialGraph()
    g.add_nodes(3)
    assert g.add_edge(0, 1) is True
    assert g.add_edge(0, 1) is False      # duplicate
    assert g.add_edge(2, 2) is False      # self-loop
    with pytest.raises(GraphError):
        g.add_edge(0, 9)
    assert g.followers(1) == [0]
    assert g.followees(0) == [1]
    assert g.in_degree(1) == 1 and g.out_degree(0) == 1


def _assert_csr_rows_match(g):
    indptr, indices = g.follower_csr()
    assert len(indptr) == g.n_nodes + 1 and indptr[-1] == g.edge_count
    for i in range(g.n_nodes):
        assert indices[indptr[i]:indptr[i + 1]].tolist() == g.followers(i)
        assert g.follower_array(i).tolist() == g.followers(i)


def test_follower_array_cache_invalidates():
    g = SocialGraph()
    g.add_nodes(3)
    g.add_edge(0, 2)
    assert list(g.follower_array(2)) == [0]
    g.add_edge(1, 2)
    assert list(g.follower_array(2)) == [0, 1]
    _assert_csr_rows_match(g)
    g.add_nodes(2)
    assert g.follower_array(4).tolist() == []
    g.add_edge(4, 1)
    g.add_edge(3, 1)
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
    baseline = generate_scale_free(200, 3, seed=5).edges()
    for edge in set(g.edges()) - set(baseline):
        assert edge[0] in member_set and edge[1] in member_set


def test_identify_hubs_orders_by_degree():
    g = SocialGraph()
    g.add_nodes(5)
    for follower in (1, 2, 3):
        g.add_edge(follower, 0)
    g.add_edge(0, 4)
    g.add_edge(2, 4)
    assert identify_hubs(g, 2) == [0, 4]


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
    scores = {i: (t.kind[i] == AccountKind.MANAGER, g.in_degree(i)) for i in roster.members}
    top = max(roster.members, key=lambda i: scores[i])
    assert top in targets or g.in_degree(targets[0]) >= g.in_degree(top)


def test_edge_list_roundtrip(tmp_path):
    g = generate_scale_free(60, 2, seed=11)
    path = tmp_path / "edges.tsv"
    write_edge_list(g, path)
    back = read_edge_list(path, g.n_nodes)
    assert back.edges() == g.edges()


def test_node_table_roundtrip(tmp_path):
    t = _table(40, seed=13)
    t.append_bots(4, creation_tick=-48)
    path = tmp_path / "nodes.tsv"
    write_node_table(t, path)
    back = read_node_table(path)
    assert len(back) == len(t)
    assert np.array_equal(back.kind, t.kind)
    assert np.array_equal(back.creation_tick, t.creation_tick)
    assert np.allclose(back.ocean, t.ocean)
    both_nan = np.isnan(back.pride) & np.isnan(t.pride)
    assert np.all(both_nan | np.isclose(back.pride, t.pride))


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
