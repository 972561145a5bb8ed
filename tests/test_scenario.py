import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from firesim import scenario
from firesim.scenario import (ACTION_NAMES, FAILURE_CLASS_NAMES, POLICY_NAMES,
                              STAGE_NAMES, ConfigError, PRESETS, build_from_seed,
                              config_from_dict, default_config, dumps_config,
                              expand_preset, load_config, loads_config,
                              validate_config)


def test_empty_text_means_defaults():
    assert loads_config("") == default_config()
    assert loads_config("{}") == default_config()


def test_dumps_loads_roundtrip():
    cfg = expand_preset("permanent_few_accounts")
    assert loads_config(dumps_config(cfg)) == cfg


def test_config_from_dict_roundtrip_every_preset():
    for name in PRESETS:
        cfg = expand_preset(name)
        assert config_from_dict(cfg.to_dict()) == cfg


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(dumps_config(default_config()))
    assert load_config(path) == default_config()


def test_invalid_json_is_a_config_error():
    with pytest.raises(ConfigError, match="not valid JSON"):
        loads_config("{nope")


def test_unknown_keys_name_their_path():
    with pytest.raises(ConfigError, match="config: unknown key 'grph'"):
        config_from_dict({"grph": {}})
    with pytest.raises(ConfigError, match="graph: unknown key 'nnn'"):
        config_from_dict({"graph": {"nnn": 5}})


def test_partial_override_keeps_other_defaults():
    cfg = config_from_dict({"graph": {"n": 50, "m": 2}})
    assert cfg.graph.n == 50 and cfg.graph.m == 2
    assert cfg.attack == default_config().attack


def test_type_errors_are_strict():
    with pytest.raises(ConfigError, match="graph.n: expected an integer"):
        config_from_dict({"graph": {"n": 12.5}})
    with pytest.raises(ConfigError, match="expected an integer"):
        config_from_dict({"graph": {"n": True}})  # bools are not counts
    with pytest.raises(ConfigError, match="attack.enabled: expected true/false"):
        config_from_dict({"attack": {"enabled": 1}})
    with pytest.raises(ConfigError, match="agents.beta: expected a number"):
        config_from_dict({"agents": {"beta": "ten"}})


def test_cross_field_rule_names_both_fields():
    with pytest.raises(ConfigError, match="gamma_direct.*gamma_ambient"):
        config_from_dict({"agents": {"gamma_direct": 0.01, "gamma_ambient": 0.5}})


def test_fire_threshold_must_cover_extinguish_eps():
    with pytest.raises(ConfigError, match="fire_threshold.*extinguish_eps"):
        config_from_dict({"contagion": {"fire_threshold": 1.0, "extinguish_eps": 2.0}})


def test_roster_cannot_exceed_population():
    with pytest.raises(ConfigError, match="roster of 40 exceeds graph.n"):
        config_from_dict({"graph": {"n": 30, "m": 3},
                          "roster": {"employees": 36, "managers": 4}})


def test_playbook_trigger_exclusivity():
    with pytest.raises(ConfigError, match="not both"):
        config_from_dict({"defense": {"playbook": [
            {"kind": "scapegoat", "trigger_tick": 5, "trigger_stage": "peak"}]}})
    with pytest.raises(ConfigError, match="trigger_stage"):
        config_from_dict({"defense": {"playbook": [
            {"kind": "scapegoat", "trigger_stage": "armageddon"}]}})


def test_topic_ids_must_be_unique():
    topic = {"topic_id": "dup", "failure_class": "social", "severity": 0.5,
             "appeal": [0.5, 0.5, 0.5, 0.5, 0.5]}
    with pytest.raises(ConfigError, match="unique"):
        config_from_dict({"topics": [topic, dict(topic)]})


def test_every_preset_validates():
    for name in PRESETS:
        validate_config(expand_preset(name))
    with pytest.raises(ConfigError, match="unknown preset"):
        expand_preset("maximum_overdrive")


def test_preset_bot_scales():
    assert expand_preset("rapid_massive").attack.bots == 200
    assert expand_preset("permanent_few_accounts").attack.bots == 15
    assert expand_preset("organic_only").attack.enabled is False


def test_seed_override_via_replace():
    cfg = default_config()
    assert replace(cfg, run=replace(cfg.run, seed=99)).run.seed == 99


def test_same_seed_world_is_invariant_to_bot_count():
    """Changing the attack cohort must not disturb the organic world."""
    cfg_small = config_from_dict({"attack": {"bots": 20}})
    cfg_big = config_from_dict({"attack": {"bots": 200}})
    small = build_from_seed(cfg_small, 42)
    big = build_from_seed(cfg_big, 42)
    n = cfg_small.graph.n
    np.testing.assert_array_equal(small.accounts.ocean[:n], big.accounts.ocean[:n])
    np.testing.assert_array_equal(small.accounts.creation_tick[:n],
                                  big.accounts.creation_tick[:n])
    assert small.company.roster.members == big.company.roster.members
    assert small._seed_posters == big._seed_posters

    def organic_edges(graph):
        indptr, indices = graph.follower_csr()
        followee = np.repeat(np.arange(graph.n_nodes), np.diff(indptr))
        return {(u, v) for u, v in zip(indices.tolist(), followee.tolist())
                if u < n and v < n}

    assert organic_edges(small.graph) == organic_edges(big.graph)


@pytest.mark.parametrize("rows", [1, 7])
def test_bot_follower_coins_in_blocks_give_the_same_edges(monkeypatch, rows):
    """Blocks of 1 or 7 bots (20 = 7 + 7 + 6) draw the doubles one block
    of all 20 bots draws, so the follower graph is the same."""
    cfg = config_from_dict({"graph": {"n": 600, "bot_follower_fraction": 0.05},
                            "attack": {"bots": 20}})
    monkeypatch.setattr(scenario, "BOT_COIN_BLOCK_ROWS", 20)
    whole = build_from_seed(cfg, 3)
    monkeypatch.setattr(scenario, "BOT_COIN_BLOCK_ROWS", rows)
    blocked = build_from_seed(cfg, 3)
    indptr, indices = whole.graph.follower_csr()
    bots = whole.cohorts[0].members
    assert indptr[bots[-1] + 1] - indptr[bots[0]] > 0  # bots have followers
    for ours, theirs in zip(blocked.graph.follower_csr(), (indptr, indices)):
        np.testing.assert_array_equal(ours, theirs)


def test_run_seed_field_feeds_build():
    cfg = config_from_dict({"run": {"seed": 7}})
    sim = build_from_seed(cfg, cfg.run.seed)
    assert sim.cfg.run.seed == 7


def test_dict_valued_fields_merge_with_defaults():
    cfg = config_from_dict({"agents": {"class_multipliers": {"social": 2.0}}})
    defaults = default_config().agents.class_multipliers
    assert cfg.agents.class_multipliers["social"] == 2.0
    assert cfg.agents.class_multipliers["communication"] == defaults["communication"]


def test_config_json_is_stable():
    text = dumps_config(default_config())
    assert json.loads(text)  # valid JSON
    assert text == dumps_config(loads_config(text))  # fixpoint


_DEFAULTS = default_config().to_dict()
_SCALAR_FIELDS = sorted(
    (section, name) for section, fields in _DEFAULTS.items() if isinstance(fields, dict)
    for name, value in fields.items() if isinstance(value, (bool, int, float, str)))
_floats = st.floats(min_value=0.0, max_value=1.0) | st.floats(min_value=0.0, allow_nan=False)


def _value(template):
    if isinstance(template, bool):
        return st.booleans()
    if isinstance(template, int):
        return st.just(template) | st.integers(min_value=0, max_value=2**40)
    if isinstance(template, float):
        return st.just(template) | st.integers(min_value=0, max_value=10) | _floats
    return st.just(template) | st.text(max_size=8)


@st.composite
def _config_dicts(draw):
    """JSON-shaped configs touching scalars, dicts, lists and the tuple fields."""
    data = {}
    for section, name in draw(st.lists(st.sampled_from(_SCALAR_FIELDS), max_size=6,
                                       unique=True)):
        data.setdefault(section, {})[name] = draw(_value(_DEFAULTS[section][name]))
    agents, attack, defense = (data.setdefault(k, {}) for k in ("agents", "attack", "defense"))
    agents["class_multipliers"] = draw(st.dictionaries(
        st.sampled_from(FAILURE_CLASS_NAMES), _floats, max_size=3))
    attack["downtime_ticks"] = draw(st.dictionaries(
        st.sampled_from(ACTION_NAMES), st.integers(0, 500) | st.floats(0, 500), max_size=3))
    attack["target_weights"] = draw(st.lists(_floats, min_size=3, max_size=3))
    attack["action_schedule"] = draw(st.lists(st.tuples(
        st.integers(0, 1000), st.sampled_from(ACTION_NAMES)).map(list), max_size=3))
    attack["ransom"] = {"force_outcome": draw(st.sampled_from([None, "pay", "refuse"])),
                        "amount": draw(st.floats(min_value=1.0, allow_nan=False))}
    data.setdefault("roster", {})["manager_roles"] = draw(
        st.lists(st.text(max_size=6), max_size=4))
    defense["playbook"] = draw(st.lists(st.fixed_dictionaries({
        "kind": st.sampled_from(POLICY_NAMES),
        "trigger_tick": st.none() | st.integers(0, 500),
    }), max_size=3))
    if draw(st.booleans()):
        defense["playbook"].append({"kind": draw(st.sampled_from(POLICY_NAMES)),
                                    "trigger_stage": draw(st.sampled_from(STAGE_NAMES))})
    data["topics"] = [
        {"topic_id": topic_id, "failure_class": draw(st.sampled_from(FAILURE_CLASS_NAMES)),
         "severity": draw(st.floats(0, 1)), "appeal": draw(st.lists(
             st.floats(0, 1), min_size=5, max_size=5))}
        for topic_id in draw(st.lists(st.text(max_size=6), min_size=1, max_size=3,
                                      unique=True))]
    data["company_history"] = draw(st.lists(st.fixed_dictionaries({
        "topic_id": st.text(max_size=6),
        "failure_class": st.sampled_from(FAILURE_CLASS_NAMES),
        "tick": st.integers(-10**6, 10**6),
    }), max_size=2))
    return data


@given(data=_config_dicts())
@settings(max_examples=200, deadline=None)
def test_dumps_loads_roundtrip_property(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        reject()
    assert loads_config(dumps_config(cfg)) == cfg
