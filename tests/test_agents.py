import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firesim.agents import (BotCohort, BotMode, CompanyState, FailureClass,
                            SurfaceKind, TargetTopic, activation_probability,
                            alignment_scores, bot_emit_arrays,
                            draw_organic_valence, saturate, stress_step,
                            susceptibility_terms)
from firesim.scenario import AgentConfig, build_from_seed, config_from_dict


def _topic(severity=0.8, appeal=(0.5, 0.4, 0.6, 0.5, 0.7)):
    return TargetTopic("broken-product", FailureClass.PRODUCT_SERVICE, severity, appeal)


def _susceptibility(ocean, topic, class_multiplier, cfg) -> float:
    """One account's per-post flip probability, as ``Simulation.susceptibilities``."""
    term = susceptibility_terms(np.asarray(ocean, dtype=float), topic, cfg)[0]
    return float(np.clip(term * topic.severity * class_multiplier, 0.0, 1.0))


def test_alignment_is_mean_weighted_appeal():
    topic = _topic(appeal=(1.0, 0.0, 0.0, 0.0, 0.0))
    scores = alignment_scores(np.array([[0.5, 0.9, 0.9, 0.9, 0.9]]), topic)
    assert scores[0] == pytest.approx(0.1)  # only the first trait counts, /5


def test_susceptibility_logistic_oracle():
    cfg = AgentConfig(beta=10.0, theta=0.7)
    topic = _topic(severity=0.8, appeal=(1.0, 1.0, 1.0, 1.0, 1.0))
    # alignment = mean(ocean) = 0.8 -> logistic(10 * 0.1)
    expected = 0.8 / (1.0 + math.exp(-1.0))
    assert _susceptibility([0.8] * 5, topic, 1.0, cfg) == pytest.approx(expected, abs=1e-12)


def test_steep_logistic_reaches_its_limit_without_overflow_warnings():
    """An accepted ``beta`` of 1e300 sends ``exp(-x)`` to inf, whose exact
    limit 0 the logistic returns without an overflow warning."""
    cfg = config_from_dict({"agents": {"beta": 1e300}, "graph": {"n": 300}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sim = build_from_seed(cfg, 0).run(5)
        terms = susceptibility_terms(sim.accounts.ocean[:3], _topic(), cfg.agents)
    assert len(sim.history.total_posts) == 5
    assert set(terms.tolist()) <= {0.0, 1.0}


def test_susceptibility_clipped_to_unit():
    cfg = AgentConfig(beta=10.0, theta=0.0)
    topic = _topic(severity=1.0, appeal=(1.0,) * 5)
    assert _susceptibility([1.0] * 5, topic, 5.0, cfg) == 1.0


def test_activation_probability_closed_form():
    assert activation_probability(0.25, 0) == 0.0
    assert activation_probability(0.25, 1) == pytest.approx(0.25)
    assert activation_probability(0.25, 3) == pytest.approx(1 - 0.75 ** 3)
    assert activation_probability(1.0, 2) == 1.0


def test_activation_probability_monte_carlo():
    # empirical frequency of >=1 success in e independent s-trials
    rng = np.random.default_rng(0)
    s, e, n = 0.12, 4, 10_000
    hits = (rng.random((n, e)) < s).any(axis=1).mean()
    assert activation_probability(s, e) == pytest.approx(hits, abs=0.02)


def test_stress_step_oracle():
    cfg = AgentConfig(stress_decay=0.05, gamma_direct=0.3, gamma_ambient=0.01,
                      half_saturation=10.0)
    # mentions at half saturation: 0.2 * 0.95 + 0.3 * 0.5 = 0.34
    out = stress_step(0.2, mentions=10.0, ambient=0.0, cfg=cfg)
    assert out == pytest.approx(0.34, abs=1e-12)


def test_stress_step_clips_and_decays():
    cfg = AgentConfig(stress_decay=0.1, gamma_direct=0.9, gamma_ambient=0.01,
                      half_saturation=1.0)
    assert stress_step(1.0, mentions=1e9, ambient=1e9, cfg=cfg) == 1.0
    # no pressure: pure geometric decay
    assert stress_step(0.5, 0.0, 0.0, cfg) == pytest.approx(0.45)


def test_stress_step_is_pure():
    cfg = AgentConfig()
    stress = np.array([0.3, 0.6])
    out = stress_step(stress, mentions=np.array([5.0, 0.0]), ambient=2.0, cfg=cfg)
    assert stress.tolist() == [0.3, 0.6]
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_saturate_shape():
    assert saturate(0.0, 10.0) == 0.0
    assert saturate(10.0, 10.0) == pytest.approx(0.5)
    assert saturate(1e12, 10.0) == pytest.approx(1.0, abs=1e-9)


def test_draw_organic_valence_bounds_and_skew():
    cfg = AgentConfig()
    rng = np.random.default_rng(3)
    vals = draw_organic_valence(FailureClass.PRODUCT_SERVICE, rng, cfg, size=20_000)
    assert np.all(vals >= -1.0) and np.all(vals <= 1.0)
    # base_negative_weight 0.7 at class multiplier 1.0: most mass negative
    assert (vals < 0).mean() > 0.6
    assert vals.mean() < -0.2


def _exposed_world():
    """An organic world one step before activation, whose exposure counts are
    exactly the number of followed accounts that posted once last tick."""
    cfg = config_from_dict({"graph": {"n": 2000}, "contagion": {"trend_samples": 0},
                            "attack": {"enabled": False, "bots": 0}})
    sim = build_from_seed(cfg, 4)
    sim.active[:] = False
    sim.activated_ever[:] = False
    sim.recurrence_multiplier = sim.activation_multiplier = 1.0
    posted = np.arange(0, len(sim.accounts), 2)
    sim.prev_authors = posted
    exposure = np.zeros(len(sim.accounts))
    for author in posted:
        exposure[sim.graph.follower_array(int(author))] += 1
    return sim, exposure


def test_activation_needs_exposure():
    sim, exposure = _exposed_world()
    eligible = sim.world.can_activate & (sim.remaining > 0)
    assert np.any(eligible & (exposure == 0))
    sim.step()
    activated = np.flatnonzero(sim.activated_ever)
    assert len(activated) > 50
    assert np.all(exposure[activated] > 0)  # zero exposure never activates
    assert np.all(eligible[activated])


def test_activation_rate_matches_probability():
    sim, exposure = _exposed_world()
    eligible = sim.world.can_activate & (sim.remaining > 0)
    p = np.where(eligible, activation_probability(sim.susceptibilities(), exposure), 0.0)
    sim.step()
    activated = int(sim.activated_ever.sum())
    sd = math.sqrt(float(np.sum(p * (1.0 - p))))
    assert abs(activated - p.sum()) < 4.0 * sd


def test_fresh_activations_post_organic_fields():
    sim, _ = _exposed_world()
    t = sim.tick
    sim.step()
    posts = sim.post_log.posts_between(t, t + 1)
    activated = set(np.flatnonzero(sim.activated_ever).tolist())
    assert posts and {p.author for p in posts} == activated
    assert all(p.organic and p.tick == t and p.topic_id == sim.topic.topic_id
               for p in posts)
    assert all(-1.0 <= p.valence <= 1.0 for p in posts)
    assert all(p.surface.kind in (SurfaceKind.COMPANY_PAGE, SurfaceKind.GENERAL_STREAM)
               for p in posts)


# -- bot cohorts -------------------------------------------------------------

def _cohort(n=30, mode=BotMode.ATTACK, **kw):
    return BotCohort(cohort_id="attack-0", members=list(range(100, 100 + n)),
                     posting_rate=1.0, mode=mode, **kw)


def test_cohort_members_are_one_read_only_intp_array():
    c = _cohort(5)
    assert c.members.dtype == np.intp and not c.members.flags.writeable
    assert c.members.tolist() == list(range(100, 105))
    assert replace(c, mode=BotMode.DEFEND).members is c.members
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    authors, *_ = bot_emit_arrays(_cohort(0), 3, _topic(), rng, noise=0.2)
    assert len(authors) == 0 and rng.bit_generator.state == state


def test_dormant_cohort_emits_nothing_and_no_rng():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    authors, valence, kinds, targets = bot_emit_arrays(
        _cohort(mode=BotMode.DORMANT), 3, _topic(), rng, noise=0.2)
    assert len(authors) == len(valence) == len(kinds) == len(targets) == 0
    assert rng.bit_generator.state == state


def test_attack_cohort_pushes_negative_company_page():
    rng = np.random.default_rng(1)
    c = _cohort()
    authors, valence, kinds, targets = bot_emit_arrays(c, 3, _topic(severity=0.8), rng,
                                                       noise=0.1)
    assert len(authors) > 0
    assert set(authors.tolist()) <= set(c.members)
    assert np.all(valence <= -0.7 + 1e-9)
    assert np.all(kinds == SurfaceKind.COMPANY_PAGE) and np.all(targets == -1)


def test_defend_cohort_pushes_positive():
    rng = np.random.default_rng(1)
    _, valence, kinds, _ = bot_emit_arrays(_cohort(mode=BotMode.DEFEND), 3,
                                           _topic(severity=0.8), rng, noise=0.1)
    assert len(valence) and np.all(valence >= 0.7 - 1e-9)
    assert np.all(kinds == SurfaceKind.COMPANY_PAGE)


def test_employee_share_ramp():
    c = _cohort(retarget_targets=(7, 8), retarget_start=20, retarget_ramp=10)
    assert c.employee_share(19) == 0.0
    assert c.employee_share(20) == 0.0
    assert c.employee_share(25) == pytest.approx(0.5)
    assert c.employee_share(30) == 1.0
    assert c.employee_share(99) == 1.0


def test_retargeted_posts_move_to_employee_profiles():
    c = _cohort(n=200, retarget_targets=(7, 8, 9), retarget_start=0, retarget_ramp=0)
    rng = np.random.default_rng(5)
    authors, _, kinds, targets = bot_emit_arrays(c, 1, _topic(), rng, noise=0.0)
    assert len(authors) > 0
    assert np.all(kinds == SurfaceKind.EMPLOYEE_PROFILE)  # share 1.0 once the ramp is over
    assert set(targets.tolist()) <= {7, 8, 9}


def test_flipped_members_defend_while_rest_attack():
    c = _cohort(n=100, defending=50)
    rng = np.random.default_rng(6)
    authors, valence, kinds, _ = bot_emit_arrays(c, 1, _topic(), rng, noise=0.0)
    flipped = authors < 150
    assert flipped.any() and (~flipped).any()
    assert np.all(valence[flipped] > 0) and np.all(valence[~flipped] < 0)
    assert np.all(kinds[flipped] == SurfaceKind.COMPANY_PAGE)


def test_flipped_members_stay_on_the_page_while_rest_retarget():
    c = _cohort(n=100, defending=50, retarget_targets=(7, 8), retarget_start=0,
                retarget_ramp=0)
    rng = np.random.default_rng(6)
    authors, valence, kinds, targets = bot_emit_arrays(c, 1, _topic(), rng, noise=0.0)
    flipped = authors < 150
    assert flipped.any() and (~flipped).any()
    assert np.all(kinds[flipped] == SurfaceKind.COMPANY_PAGE) and np.all(valence[flipped] > 0)
    assert np.all(kinds[~flipped] == SurfaceKind.EMPLOYEE_PROFILE)
    assert np.all(valence[~flipped] < 0)
    # one target per profile post: the flipped members' page posts have none
    assert len(targets) == np.count_nonzero(kinds == SurfaceKind.EMPLOYEE_PROFILE)
    assert set(targets.tolist()) == {7, 8}


def test_profile_targets_follow_the_profile_posts_and_keep_the_rng_stream():
    """A partial share sends some posts to profiles; each carries the pick
    drawn at its position, and every post draws a pick either way."""
    c = _cohort(n=200, retarget_targets=(7, 8, 9), retarget_start=0, retarget_ramp=10)
    rng = np.random.default_rng(8)
    _, _, kinds, targets = bot_emit_arrays(c, 5, _topic(), rng, noise=0.1)
    replay = np.random.default_rng(8)
    total = int(replay.poisson(1.0, size=200).sum())
    replay.random(total)  # valence noise
    to_profile = replay.random(total) < c.employee_share(5)
    picks = replay.integers(3, size=total)
    assert 0 < to_profile.sum() < total
    np.testing.assert_array_equal(kinds, to_profile.astype(np.int8))
    np.testing.assert_array_equal(targets, np.array([7, 8, 9])[picks[to_profile]])
    assert rng.bit_generator.state == replay.bit_generator.state


# -- properties ---------------------------------------------------------------

@given(st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=50))
@settings(max_examples=100, deadline=None)
def test_activation_probability_bounds(s, e):
    p = float(activation_probability(s, e))
    assert 0.0 <= p <= 1.0
    if e > 0 and s > 0:
        assert p >= float(activation_probability(s, e - 1)) - 1e-12


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1e4),
       st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=100, deadline=None)
def test_stress_step_stays_in_unit_interval(s, mentions, ambient):
    cfg = AgentConfig()
    out = float(stress_step(s, mentions, ambient, cfg))
    assert 0.0 <= out <= 1.0


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_susceptibility_monotone_in_severity(ocean):
    cfg = AgentConfig()
    lo = _susceptibility(ocean, _topic(severity=0.3), 1.0, cfg)
    hi = _susceptibility(ocean, _topic(severity=0.9), 1.0, cfg)
    assert hi >= lo - 1e-12
