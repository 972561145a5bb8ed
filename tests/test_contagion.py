from dataclasses import replace
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firesim.agents import BotMode, SurfaceKind
from firesim.contagion import (HISTORY_COLUMNS, FirestormStage, SimHistory,
                               Simulation, StageTracker, World,
                               regulator_visibility)
from firesim.scenario import (MAX_FIRE_WINDOW, ConfigError, build_from_seed,
                              config_from_dict, default_config, expand_preset)
from firesim.socialgraph import AccountTable

# -- offline oracles of the online detectors -----------------------------------


def detect_extinguished(totals, eps, window):
    """First tick opening a run of ``window`` consecutive ticks below ``eps``."""
    if window < 1:
        raise ValueError("extinguish window must be >= 1")
    run = 0
    for t, v in enumerate(totals):
        run = run + 1 if v < eps else 0
        if run >= window:
            return t - window + 1
    return None


def smooth_series(values, window):
    """Trailing moving average; causal so live and offline labels agree."""
    arr = np.asarray(values, dtype=np.float64)
    csum = np.concatenate([[0.0], np.cumsum(arr)])
    lo = np.maximum(0, np.arange(len(arr)) - window + 1)
    return (csum[1:] - csum[lo]) / (np.arange(1, len(arr) + 1) - lo)


def classify_stage(totals, tick, *, low, high, window):
    """Stage label at ``tick``, replaying a fresh tracker over the smoothed history."""
    tracker = StageTracker(low=low, high=high)
    stage = FirestormStage.LATENT
    for v in smooth_series(totals[: tick + 1], window):
        stage = tracker.update(float(v))
    return stage


def replay_fire_point(sim):
    """First tick whose bot-silenced continuation keeps organic volume up,
    found by replaying the finished run from a fresh build of its seed and
    forking at each candidate tick."""
    cfg = sim.cfg.contagion
    shadow = build_from_seed(sim.cfg, sim.cfg.run.seed)
    shadow.watch_fire_point = False
    for t, organic in enumerate(sim.history.organic_posts):
        if organic < cfg.fire_threshold:
            continue
        shadow.run_until(t + 1)
        if shadow._sustains_without_bots(cfg.fire_window, cfg.fire_threshold):
            return t
    return None


_INT_COLUMNS = {"tick", "total_posts", "organic_posts", "bot_posts",
                "company_page_posts", "employee_profile_posts",
                "general_stream_posts", "active_organic_posters"}


def history_from_csv_text(text):
    lines = text.splitlines()
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    out = SimHistory()
    for line in lines[1:]:
        out.append_row(*(raw if col == "stage" else int(raw) if col in _INT_COLUMNS
                         else float(raw)
                         for col, raw in zip(HISTORY_COLUMNS, line.split(","))))
    return out


def test_detect_extinguished_oracle():
    assert detect_extinguished([10, 10, 0, 0, 0], eps=1, window=3) == 2
    assert detect_extinguished([10, 10, 0, 0], eps=1, window=3) is None
    assert detect_extinguished([0, 0, 5, 0, 0, 0], eps=1, window=3) == 3
    assert detect_extinguished([], eps=1, window=3) is None
    with pytest.raises(ValueError):
        detect_extinguished([1.0], eps=1, window=0)


def test_smooth_series_trailing_mean():
    out = smooth_series([4.0, 8.0, 0.0, 0.0], window=2)
    assert out == pytest.approx([4.0, 6.0, 4.0, 0.0])
    # window 1 is the identity
    assert smooth_series([3.0, 1.0], window=1) == pytest.approx([3.0, 1.0])


def test_stage_tracker_full_lifecycle():
    tr = StageTracker(low=5.0, high=40.0)
    assert tr.update(1.0) is FirestormStage.LATENT
    assert tr.update(7.0) is FirestormStage.TRIGGERING   # above low, rising
    assert tr.update(50.0) is FirestormStage.PEAK
    assert tr.update(30.0) is FirestormStage.CALMING      # below high, falling
    assert tr.update(4.0) is FirestormStage.MINOR
    assert tr.update(6.0) is FirestormStage.TRIGGERING    # re-ignition path


def test_stage_tracker_requires_rise_to_trigger():
    tr = StageTracker(low=5.0, high=40.0)
    tr.update(30.0)  # first sample has no slope; jumps straight over low
    assert tr.stage is FirestormStage.LATENT
    assert tr.update(29.0) is FirestormStage.LATENT  # falling, stays latent
    assert tr.update(31.0) is FirestormStage.TRIGGERING


def test_classify_stage_matches_tracker(finished_run):
    totals = finished_run.history.total_posts
    cfg = finished_run.cfg.contagion
    for t in (0, 10, 60, len(totals) - 1):
        offline = classify_stage(totals, t, low=cfg.stage_low,
                                 high=cfg.stage_high, window=cfg.smoothing_window)
        assert offline.value == finished_run.history.stage[t]


def test_regulator_visibility_normalised():
    page = [0, 0, 10, 40, 20, 0, 40, 7, 50, 3]
    # the scalar definition: the count at t over the maximum of page[:t + 1]
    scalar = [0.0 if max(page[:t + 1]) == 0 else page[t] / max(page[:t + 1])
              for t in range(len(page))]
    assert regulator_visibility(page) == scalar
    assert regulator_visibility(page)[:5] == [0.0, 0.0, 1.0, 1.0, 0.5]
    assert regulator_visibility([]) == []


def test_history_csv_roundtrip(finished_run):
    text = finished_run.history.to_csv_text()
    back = history_from_csv_text(text)
    assert back.to_csv_text() == text
    assert len(back) == len(finished_run.history)


def test_history_rejects_partial_rows():
    h = SimHistory()
    with pytest.raises(ValueError):
        h.append_row(0, 1)
    with pytest.raises(ValueError):
        h.append_row(*range(len(HISTORY_COLUMNS) + 1))
    assert len(h) == 0


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40),
       st.integers(1, 8), st.one_of(st.integers(1, 6), st.floats(0.25, 6.5)),
       st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_quiet_window_decides_as_each_rule_it_replaced(posts, window, eps, onset):
    """``SimHistory.quiet`` against the three rules it replaced: the engine's
    run counter from onset, the attack's slice of the totals and the
    support cohorts' slice of organic posts before the tick's row."""
    history = SimHistory()
    run = 0
    for t, (total, organic) in enumerate(posts):
        # support stand-down, asked in phase 5: rows 0 .. t - 1 exist
        column = history.organic_posts
        support = not t < window and all(v < eps for v in column[t - window:t])
        assert history.quiet("organic_posts", window, eps) == support
        history.append_row(t, total, organic, *[0] * (len(HISTORY_COLUMNS) - 3))
        # extinction, once tick t's row is in
        if t >= onset:
            run = run + 1 if total < eps else 0
        counter = t >= onset and run >= window
        assert (t - onset >= window - 1
                and history.quiet("total_posts", window, eps)) == counter
        # topic exhaustion, in phase 9
        totals = history.total_posts
        died = len(totals) >= window and all(v < eps for v in totals[-window:])
        assert history.quiet("total_posts", window, eps) == died


# -- engine behaviour ---------------------------------------------------------

def test_same_seed_runs_identical(default_cfg):
    a = build_from_seed(default_cfg, 5)
    b = build_from_seed(default_cfg, 5)
    a.run(80)
    b.run(80)
    assert a.history.to_csv_text() == b.history.to_csv_text()
    assert a.fire_point == b.fire_point
    assert [e for e in a.events] == [e for e in b.events]


def test_different_seeds_differ(default_cfg):
    a = build_from_seed(default_cfg, 5)
    b = build_from_seed(default_cfg, 6)
    a.run(80)
    b.run(80)
    assert a.history.to_csv_text() != b.history.to_csv_text()


def test_run_until_is_resumable(default_cfg):
    whole = build_from_seed(default_cfg, 2)
    whole.run(60)
    stepped = build_from_seed(default_cfg, 2)
    stepped.run_until(25)
    stepped.run_until(60)
    assert stepped.history.to_csv_text() == whole.history.to_csv_text()


def test_fork_leaves_parent_untouched(default_cfg):
    sim = build_from_seed(default_cfg, 1)
    sim.run(30)
    before = sim.history.to_csv_text()
    state = sim.rng.bit_generator.state
    fork = sim.fork_bots_dormant()
    fork.step()
    fork.step()
    assert sim.history.to_csv_text() == before
    assert sim.rng.bit_generator.state == state
    assert len(fork.history) == len(sim.history) + 2


def _same(a, b) -> bool:
    """Structural equality that sees through arrays, generators and objects."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
    if isinstance(a, np.random.Generator):
        return a.bit_generator.state == b.bit_generator.state
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if hasattr(a, "__dict__") and not callable(a):
        return _same(vars(a), vars(b))
    return a == b


_IMMUTABLE = (type(None), bool, int, float, str, Enum, tuple, frozenset)
# What makes a fork a fork; every other attribute must equal the parent's.
_FORK_OVERRIDES = {"cohorts", "plan", "playbook", "post_log", "events",
                   "watch_fire_point"}


def _arrays(obj, found: dict) -> dict:
    """Every array reachable from ``obj`` (by id), not looking into a world."""
    if isinstance(obj, np.ndarray):
        found[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _arrays(item, found)
    elif isinstance(obj, dict):
        for item in obj.values():
            _arrays(item, found)
    elif hasattr(obj, "__dict__") and not isinstance(obj, (World, Enum, type)):
        _arrays(vars(obj), found)
    return found


def test_fork_copies_every_attribute_except_the_overrides(default_cfg):
    sim = build_from_seed(default_cfg, 0)
    sim.run(60)
    assert any(c.retarget_start is not None for c in sim.cohorts)
    sim.company.integrity_compromised = True
    sim.extra_state = np.arange(5)  # stands in for state a later change adds
    fork = sim.fork_bots_dormant()

    assert vars(fork).keys() == vars(sim).keys()
    assert fork.world is sim.world and fork.cfg is sim.cfg
    for name in AccountTable.STATIC:
        assert getattr(fork.accounts, name) is getattr(sim.world.accounts, name)
    world_parts = [sim.cfg, sim.world, *vars(sim.world).values()]
    for name, value in vars(sim).items():
        if name in _FORK_OVERRIDES:
            continue
        if any(value is part for part in world_parts):
            assert getattr(fork, name) is value, name
            continue
        assert _same(getattr(fork, name), value), name
        if not isinstance(value, _IMMUTABLE):
            assert getattr(fork, name) is not value, name
    assert fork.company.integrity_compromised

    ours, theirs = _arrays(vars(sim), {}), _arrays(vars(fork), {})
    shared = ours.keys() & theirs.keys()
    assert len(ours) > 10 and shared  # the static columns and cohort members
    assert [ours[i] for i in shared if ours[i].flags.writeable] == []

    assert fork.cohorts == [replace(c, mode=BotMode.DORMANT) for c in sim.cohorts]
    assert all(f is not c for f, c in zip(fork.cohorts, sim.cohorts))
    assert fork.plan is None and fork.playbook is None
    assert fork.post_log.ticks == [] and fork.events == []
    assert not fork.watch_fire_point


def test_fork_shares_the_read_only_cohort_members(default_cfg):
    sim = build_from_seed(default_cfg, 0)
    sim.run(30)
    fork = sim.fork_bots_dormant()
    assert sim.cohorts and all(f.members is c.members
                               for f, c in zip(fork.cohorts, sim.cohorts))


def test_fork_silences_bots(default_cfg):
    sim = build_from_seed(default_cfg, 1)
    sim.run(20)
    fork = sim.fork_bots_dormant()
    fork.step()
    assert fork.history.bot_posts[-1] == 0


def test_online_fire_point_matches_offline_replay(default_cfg):
    for seed in (0, 1, 2):
        sim = build_from_seed(default_cfg, seed)
        sim.run(default_cfg.run.ticks)
        assert sim.fire_point is not None
        assert replay_fire_point(sim) == sim.fire_point


def test_no_fire_point_without_attack(default_cfg):
    cfg = replace(default_cfg, attack=replace(default_cfg.attack, enabled=False, bots=0),
                  run=replace(default_cfg.run, initial_organic_posters=6))
    sim = build_from_seed(cfg, 0)
    sim.run(cfg.run.ticks)
    assert sim.fire_point is None
    assert replay_fire_point(sim) is None


def test_burnout_caps_posts_per_user(default_cfg):
    sim = build_from_seed(default_cfg, 3)
    sim.run(default_cfg.run.ticks)
    organic_counts = {}
    for post in sim.post_log.posts_between(0, default_cfg.run.ticks):
        if post.organic:
            organic_counts[post.author] = organic_counts.get(post.author, 0) + 1
    assert organic_counts
    assert max(organic_counts.values()) <= default_cfg.agents.max_posts_per_user


def test_post_log_organic_flag_matches_the_history():
    """The post log derives each post's organic flag from its author's kind;
    per tick it counts what the step counted, support bots and dialogue
    defenders included."""
    cfg = expand_preset("defended_baseline")
    sim = build_from_seed(cfg, 0)
    sim.run(cfg.run.ticks)
    support = dict(sim.world.cohort_members)["defense_support"]
    posts = sim.post_log.posts_between(0, cfg.run.ticks)
    assert any(p.author in support and not p.organic for p in posts)
    assert any(sim.defender[p.author] and p.organic for p in posts)
    organic = [0] * cfg.run.ticks
    for post in posts:
        organic[post.tick] += post.organic
    assert organic == sim.history.organic_posts


def test_post_log_keeps_int32_authors_and_one_target_per_profile_post(finished_run):
    """13 bytes a post (int32 author, float64 valence, int8 surface kind)
    plus one intp target per profile post, each a roster member."""
    sim = finished_run
    profile_posts = 0
    for t, (authors, valences, kinds, targets) in enumerate(sim.post_log.ticks):
        assert authors.dtype == np.int32 and valences.dtype == np.float64
        assert kinds.dtype == np.int8 and targets.dtype == np.intp
        assert authors.nbytes + valences.nbytes + kinds.nbytes == 13 * len(authors)
        assert len(targets) == np.count_nonzero(kinds == SurfaceKind.EMPLOYEE_PROFILE)
        assert len(targets) == sim.history.employee_profile_posts[t]
        assert np.isin(targets, sim.roster_ids).all()
        profile_posts += len(targets)
    assert 0 < profile_posts < sum(sim.history.total_posts)
    posts = sim.post_log.posts_between(0, len(sim.post_log.ticks))
    assert ([p.surface.target for p in posts if p.surface.kind is SurfaceKind.EMPLOYEE_PROFILE]
            == np.concatenate([targets for *_, targets in sim.post_log.ticks]).tolist())


def test_downtime_drains_reputation_and_counts_down(default_cfg):
    base = build_from_seed(default_cfg, 0)
    base.run(30)
    hit = build_from_seed(default_cfg, 0)
    hit.run(30)
    hit.company.downtime_remaining = 3
    base.step()
    hit.step()
    penalty = default_cfg.analytics.downtime_reputation_penalty
    assert hit.company.downtime_remaining == 2
    assert hit.company.reputation == pytest.approx(
        base.company.reputation - penalty * (1.0 - default_cfg.analytics.reputation_recovery))


def test_extinguished_matches_detector(finished_run):
    cfg = finished_run.cfg.contagion
    offline = detect_extinguished(finished_run.history.total_posts,
                                  cfg.extinguish_eps, cfg.extinguish_window)
    assert finished_run.extinguished_tick == offline


def test_outcome_lifecycle_order(finished_run):
    assert finished_run.onset is not None
    assert finished_run.fire_point is not None
    assert finished_run.extinguished_tick is not None
    assert finished_run.onset <= finished_run.fire_point < finished_run.extinguished_tick


def test_fork_copies_the_financial_proxy_whole_and_apart():
    sim = build_from_seed(expand_preset("defended_baseline"), 0)
    sim.watch_fire_point = False
    sim.run_until(40)
    sim.financial.markers.append((39, "probe"))
    fork = sim.fork_bots_dormant()
    assert fork.financial == sim.financial
    assert fork.financial is not sim.financial
    assert fork.financial.series is not sim.financial.series
    assert fork.financial.markers is not sim.financial.markers
    before = sim.financial.copy()
    fork.step()
    fork.financial.markers.append((40, "fork-only"))
    assert sim.financial == before
    assert len(fork.financial.series) == len(sim.financial.series) + 1
    sim.step()
    assert fork.financial.series[:40] == before.series
    assert fork.financial.markers[-1] == (40, "fork-only")


@pytest.mark.parametrize("preset", ["defended_baseline", "rapid_massive", "organic_only"])
def test_active_users_were_activated_and_budgets_stay_non_negative(monkeypatch, preset):
    """Phase 2 counts the never-activated users as the fresh ones, which
    holds only if every active user has ``activated_ever`` set, and phase 3
    activates them with no budget test, which holds only while their budget
    is untouched; checked after every tick of the main run and of every
    fire-point fork."""
    fork_steps = 0
    defenders = False
    step = Simulation.step

    def checked_step(sim):
        nonlocal fork_steps, defenders
        step(sim)
        assert not np.any(sim.active & ~sim.activated_ever), sim.tick
        assert sim.remaining.min() >= 0, sim.tick
        untouched = sim.remaining[~sim.activated_ever]
        assert np.all(untouched == sim.cfg.agents.max_posts_per_user), sim.tick
        fork_steps += not sim.watch_fire_point
        defenders = defenders or bool(sim.defender.any())

    monkeypatch.setattr(Simulation, "step", checked_step)
    cfg = expand_preset(preset)
    build_from_seed(cfg, 1).run(cfg.run.ticks)
    assert fork_steps > 0
    # the dialogue policy converts users, setting both flags at once
    assert defenders == (preset == "defended_baseline")


def test_fire_watch_takes_at_most_ticks_times_the_window_cap_in_fork_steps(monkeypatch):
    """Organic volume flickering around a low ``fire_threshold`` makes the
    watch fork at tick after tick, many forks running past the default
    window, yet the capped window bounds the fork steps by ticks x the cap;
    a window past the cap does not validate, even set by ``replace``."""
    default = default_config()
    with pytest.raises(ConfigError, match=r"^contagion\.fire_window: must lie in \[1, 168\]"):
        replace(default, contagion=replace(default.contagion, fire_window=2**40))
    cfg = config_from_dict({"graph": {"n": 300}, "run": {"ticks": 40},
                            "contagion": {"fire_window": MAX_FIRE_WINDOW, "fire_threshold": 8.0}})
    fork_steps = []  # per main-run tick
    step = Simulation.step

    def counted_step(sim):
        if sim.watch_fire_point:
            fork_steps.append(0)
        else:
            fork_steps[-1] += 1
        step(sim)

    monkeypatch.setattr(Simulation, "step", counted_step)
    sim = build_from_seed(cfg, 1).run(cfg.run.ticks)
    assert sim.fire_point is None and len(fork_steps) == cfg.run.ticks
    assert sum(steps > 0 for steps in fork_steps) > 20  # the watch forks again and again
    assert max(fork_steps) > default.contagion.fire_window
    assert max(fork_steps) <= MAX_FIRE_WINDOW
    assert sum(fork_steps) <= cfg.run.ticks * MAX_FIRE_WINDOW
