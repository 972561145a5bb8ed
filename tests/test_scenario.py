import ast
import collections
import copy
import dataclasses
import enum
import json
import math
import re
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from firesim import scenario
from firesim.agents import FailureClass, TargetTopic
from firesim.analytics import run_outcome
from firesim.cli import TOGGLES
from firesim.scenario import (ACTION_NAMES, FAILURE_CLASS_NAMES, POLICY_NAMES,
                              STAGE_NAMES, Bound, ConfigError, Keys, PRESETS,
                              PolicySpec, ScenarioConfig, build_from_seed,
                              build_simulation, build_world, config_from_dict,
                              default_config, dumps_config, expand_preset,
                              load_config, loads_config)
from firesim.contagion import World
from firesim.defense import ARMING_POLICIES, PastFirestorm
from firesim.socialgraph import AccountTable


def _leaf_fields(cls):
    """The name of each leaf field of the config dataclass ``cls``, going
    into its sections and into the items of its tuples of dataclasses."""
    for name, (tp, _, _) in scenario._field_specs(cls).items():
        args = typing.get_args(tp)
        if dataclasses.is_dataclass(tp):
            yield from _leaf_fields(tp)
        elif args[1:] == (Ellipsis,) and dataclasses.is_dataclass(args[0]):
            yield from _leaf_fields(args[0])
        else:
            yield name


def test_every_config_field_has_a_reader():
    """A field that no module of the package names, as an attribute or as a
    string (the arming table names its cohort sizes so), shapes nothing."""
    named = set()
    for module in Path(scenario.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    leaves = set(_leaf_fields(ScenarioConfig))
    assert {"topic_id", "tick", "trigger_stage", "amount"} <= leaves
    assert sorted(leaves - named) == []


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


@pytest.mark.parametrize("text, key", [
    ('{"graph": {"n": 300}, "graph": {"n": 400}}', "graph"),
    ('{"run": {"seed": 1}, "graph": {"n": 300, "m": 2, "n": 400}}', "n"),
])
def test_repeated_keys_are_config_errors(text, key):
    """The last copy of a repeated key once won unseen."""
    with pytest.raises(ConfigError, match=f"^config: repeated key '{key}'$"):
        loads_config(text)


def test_unknown_keys_name_their_path():
    with pytest.raises(ConfigError, match="config: unknown key 'grph'"):
        config_from_dict({"grph": {}})
    with pytest.raises(ConfigError, match="graph: unknown key 'nnn'"):
        config_from_dict({"graph": {"nnn": 5}})


@pytest.mark.parametrize("data, start", [
    # once a message of 3,000,034 characters
    ({"graph": {"n": [1] * 1_000_000}}, "graph.n: expected an integer, got [1, 1, "),
    # once echoed whole: 200,110 bytes of stderr
    ({"graph": {"k" * 200_000: 1}}, "graph: unknown key 'kkk"),
    ({"agents": {"class_multipliers": {"k" * 200_000: "x"}}},
     "agents.class_multipliers['kkk"),
    ({"attack": {"final_action": "x" * 200_000}}, "attack.final_action: 'xxx"),
    ({"graph": {"n": int("1" * 4000)}}, "graph.n: population 111"),
], ids=["long-list", "long-key", "long-key-in-a-mapping", "long-name", "long-integer"])
def test_config_errors_quote_values_and_keys_shortened(data, start):
    with pytest.raises(ConfigError) as info:
        loads_config(json.dumps(data))
    message = str(info.value)
    assert message.startswith(start) and "..." in message and len(message) < 300


def test_partial_override_keeps_other_defaults():
    cfg = config_from_dict({"graph": {"n": 50, "m": 2}})
    assert cfg.graph.n == 50 and cfg.graph.m == 2
    assert cfg.attack == default_config().attack


def test_nested_partial_override_keeps_the_field_default():
    """A partial ``attack.service`` keeps the service's own terms, not the
    ``RansomConfig`` class defaults that ``attack.ransom`` uses."""
    cfg = config_from_dict({"attack": {"service": {"amount": 1000.0}}})
    assert cfg.attack.service == replace(default_config().attack.service, amount=1000.0)
    assert (cfg.attack.service.base_willingness, cfg.attack.service.reliability) == (0.5, 0.9)
    assert cfg.attack.ransom == default_config().attack.ransom


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


def test_forecast_horizon_is_bounded():
    """A forecast holds one value per projected tick, so the horizon has a cap."""
    assert config_from_dict({"analytics": {"forecast_horizon": 8_760}})
    with pytest.raises(ConfigError, match=r"analytics\.forecast_horizon"):
        config_from_dict({"analytics": {"forecast_horizon": 8_761}})


def test_run_ticks_are_bounded():
    """Every tick steps the whole population, so a run's length has a cap."""
    assert config_from_dict({"run": {"ticks": 8_760}})
    with pytest.raises(ConfigError, match=r"^run\.ticks: must lie in \[1, 8760\], got 8761$"):
        config_from_dict({"run": {"ticks": 8_761}})


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


def test_every_preset_is_a_config_dict():
    for name in PRESETS:
        assert expand_preset(name) == loads_config(json.dumps(PRESETS[name]))
    with pytest.raises(ConfigError, match="unknown preset"):
        expand_preset("maximum_overdrive")


def test_one_reactive_playbook_serves_the_toggle_and_the_preset():
    reactive = (PolicySpec("internal_training"),
                PolicySpec("supporting_bots", trigger_stage="peak"),
                PolicySpec("halt_product_and_review", trigger_stage="peak"))
    on = TOGGLES["defense_playbook"][0](default_config())
    assert on.defense.enabled and on.defense.playbook == reactive
    assert expand_preset("defended_baseline").defense.playbook == reactive + (
        PolicySpec("dialogue_engagement", trigger_stage="calming"),)


def test_a_config_checks_itself_when_made():
    """Whether made by ``replace`` or by the constructor, an out-of-range
    field is a ``ConfigError`` that starts with its path."""
    cfg = default_config()
    with pytest.raises(ConfigError, match=r"^graph\.n: must be >= 1, got 0$"):
        replace(cfg, graph=replace(cfg.graph, n=0))
    with pytest.raises(ConfigError, match=r"^run\.seed: must be >= 0, got -1$"):
        build_from_seed(cfg, -1)
    with pytest.raises(ConfigError, match=r"^roster\.employees: roster of 30 exceeds graph\.n"):
        ScenarioConfig(graph=replace(cfg.graph, n=20, m=2))
    with pytest.raises(ConfigError, match=r"^agents\.gamma_direct: must be a finite number, got inf$"):
        replace(cfg, agents=replace(cfg.agents, gamma_direct=math.inf))
    # a topic was once a bare ValueError with no path, raised by the topic itself
    with pytest.raises(ConfigError, match=r"^topics\[0\]\.severity: must lie in \[0, 1\], got 2\.0$"):
        replace(cfg, topics=(replace(cfg.topics[0], severity=2.0),))
    with pytest.raises(ConfigError, match=r"^topics\[0\]\.appeal\[2\]: must lie in \[0, 1\], got -0\.5$"):
        replace(cfg, topics=(replace(cfg.topics[0], appeal=(0.5, 0.5, -0.5, 0.5, 0.5)),))


@pytest.mark.parametrize("section, change, message", [
    # once run for 11 ticks, with 10.5 echoed in the report
    ("run", {"ticks": 10.5}, "run.ticks: expected an integer, got 10.5"),
    ("attack", {"enabled": "yes"}, "attack.enabled: expected true/false, got 'yes'"),
    ("defense", {"detect_first_k": None}, "defense.detect_first_k: expected an integer, got None"),
    # once a TypeError from the bound's comparison
    ("graph", {"n": "x"}, "graph.n: expected an integer, got 'x'"),
    # once run with a downtime counter of 2.5, 1.5, 0.5, -0.5
    ("attack", {"downtime_ticks": {"dos": 2.5}},
     "attack.downtime_ticks.dos: expected an integer, got 2.5"),
    ("agents", {"class_multipliers": {"social": 1.1, "communication": "x", "product_service": 1.0}},
     "agents.class_multipliers.communication: expected a number, got 'x'"),
    # from here on, each was accepted by ``replace()`` or ended in a TypeError or AttributeError
    ("attack", {"action_schedule": ((1.5, "dos"),)},
     "attack.action_schedule[0][0]: expected an integer, got 1.5"),
    # once ``attack.action_schedule[0].tick`` when decoded, in a second path form
    ("attack", {"action_schedule": ((-1, "dos"),)},
     "attack.action_schedule[0][0]: must be >= 0, got -1"),
    ("attack", {"target_weights": (0.5, 0.5)},
     "attack.target_weights: expected a list of 3 items, got [0.5, 0.5]"),
    ("attack", {"target_weights": ("a", 0.5, 0.5)},
     "attack.target_weights[0]: expected a number, got 'a'"),
    ("attack", {"downtime_ticks": 5}, "attack.downtime_ticks: expected a mapping, got 5"),
    ("defense", {"playbook": ("internal_training",)},
     "defense.playbook[0]: expected a mapping, got 'internal_training'"),
    (None, {"graph": 5}, "graph: expected a mapping, got 5"),
    # once ``5 not in ['social', ...]`` both ways: a name check where the type check belongs
    ("topics", {"failure_class": 5}, "topics[0].failure_class: expected a string, got 5"),
])
def test_a_replaced_field_of_the_wrong_type_is_a_config_error(section, change, message):
    """Decoding and ``replace()`` hold a field to one type rule, in the same
    words; ``section`` None changes a field of the config itself, and
    ``topics`` a field of its first topic."""
    cfg = default_config()
    if section == "topics":
        section, change = None, {"topics": (replace(cfg.topics[0], **change),)}
    data = json.loads(json.dumps(change, default=dataclasses.asdict))  # tuples become lists
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_dict(data if section is None else {section: data})
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        replace(cfg, **change if section is None else {
            section: replace(getattr(cfg, section), **change)})


@pytest.mark.parametrize("change, message", [
    (lambda cfg: {"topics": list(cfg.topics)},
     "topics: expected a tuple, got [TargetTopic("),
    (lambda cfg: {"graph": {"n": 50}}, "graph: expected a GraphConfig, got {'n': 50}"),
    (lambda cfg: {"attack": replace(cfg.attack, target_weights=[0.4, 0.4, 0.2])},
     "attack.target_weights: expected a tuple, got [0.4, 0.4, 0.2]"),
], ids=["list-for-tuple", "mapping-for-section", "list-for-fixed-tuple"])
def test_a_value_only_replace_can_give_is_told_the_python_type(change, message):
    """Decoding turns a list into a tuple and a mapping into a section, so
    one of these left as it is came from ``replace()``: its message names
    the type it should have been."""
    cfg = default_config()
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        replace(cfg, **change(cfg))


def test_a_replaced_field_takes_what_decoding_takes():
    """A float field takes an int, an optional field ``None``, and a failure
    class its name, which makes the config its member makes."""
    cfg = default_config()
    ransom = replace(cfg.attack.ransom, force_outcome=None)
    made = replace(cfg, agents=replace(cfg.agents, beta=10),
                   attack=replace(cfg.attack, ransom=ransom),
                   defense=replace(cfg.defense, db_path=None, playbook=(
                       PolicySpec(kind="internal_training", trigger_tick=None),)))
    assert made.agents.beta == 10 and made.defense.playbook[0].trigger_stage is None
    topic = cfg.topics[0]
    assert (replace(cfg, topics=(replace(topic, failure_class="social"),))
            == replace(cfg, topics=(replace(topic, failure_class=FailureClass.SOCIAL),)))


@pytest.mark.parametrize("text, path, shown", [
    ('{"agents": {"gamma_direct": Infinity}}', "agents.gamma_direct", "inf"),
    ('{"agents": {"beta": 1e999}}', "agents.beta", "inf"),
    ('{"contagion": {"fire_threshold": -Infinity}}', "contagion.fire_threshold", "-inf"),
    ('{"attack": {"class_weights": {"social": NaN}}}', "attack.class_weights.social", "nan"),
])
def test_non_finite_numbers_are_rejected(text, path, shown):
    """JSON text may hold NaN and the infinities (1e999 parses to inf): none
    is a value, not even of a field without a bound."""
    message = rf"^{re.escape(path)}: must be a finite number, got {shown}$"
    with pytest.raises(ConfigError, match=message):
        loads_config(text)


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
    np.testing.assert_array_equal(small.world.manager_ids, big.world.manager_ids)
    np.testing.assert_array_equal(small.world.employee_ids, big.world.employee_ids)
    assert small.world.seed_posters == big.world.seed_posters

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


def test_bot_follower_build_drops_its_coin_blocks_before_adding_edges(traced_peak):
    """Each coin block goes once its int32 follower edges are taken, and
    the graph is built once from all the edges, so the build peaks below
    five times the finished CSR; holding the coin blocks across the graph
    build took 6.3 times (8.6 MB at n=10k)."""
    cfg = config_from_dict({"graph": {"n": 10_000, "bot_follower_fraction": 0.05}})
    world, peak = traced_peak(build_world, cfg)
    indptr, indices = world.graph.follower_csr()
    assert len(indices) > 150_000  # 200 bots x 500 followers beside the organic edges
    assert peak < 5 * (indptr.nbytes + indices.nbytes)


@pytest.mark.parametrize("overrides, extra", [
    ({}, 200 + 25 + 8),
    ({"attack": {"enabled": False, "bots": 0},
      "defense": {"prepared_bots": 0, "partner_defenders": 0}}, 0),
])
def test_population_must_fit_int32_account_ids(overrides, extra):
    """graph.n plus every bot and defender cohort size must fit the post
    log's int32 author ids; checked on the schema, nothing is built."""
    top = 2**31 - 1
    config_from_dict({**overrides, "graph": {"n": top - extra}})
    with pytest.raises(ConfigError, match=rf"^graph\.n: population {top + 1} "):
        config_from_dict({**overrides, "graph": {"n": top + 1 - extra}})


def _assert_same_world(a, b):
    assert set(vars(a)) == {"graph", "accounts", "roster_ids", "manager_ids",
                            "employee_ids", "can_activate", "cohort_members",
                            "seed_posters", "engine_seed", "key"}
    assert a.key == b.key
    for ours, theirs in zip(a.graph.follower_csr(), b.graph.follower_csr()):
        np.testing.assert_array_equal(ours, theirs)
    for name in AccountTable.COLUMNS:
        np.testing.assert_array_equal(getattr(a.accounts, name), getattr(b.accounts, name))
    for name in ("roster_ids", "manager_ids", "employee_ids", "can_activate"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert ([(cid, m.tolist()) for cid, m in a.cohort_members]
            == [(cid, m.tolist()) for cid, m in b.cohort_members])
    assert a.seed_posters == b.seed_posters
    assert (a.engine_seed.generate_state(4).tolist()
            == b.engine_seed.generate_state(4).tolist())


@pytest.mark.parametrize("preset", [None, "defended_baseline"])
@pytest.mark.parametrize("toggle", sorted(TOGGLES))
def test_both_arms_of_every_toggle_build_the_same_world(preset, toggle):
    cfg = expand_preset(preset) if preset else default_config()
    on_fn, off_fn = TOGGLES[toggle]
    for seed in range(3):
        on, off = (build_world(replace(f(cfg), run=replace(cfg.run, seed=seed)))
                   for f in (on_fn, off_fn))
        _assert_same_world(on, off)


@pytest.mark.parametrize("seed", [0, 1])
def test_dormant_playbook_rows_change_no_output(seed):
    """``defended_baseline`` with defense disabled gives the same run whether
    its playbook, and so the support cohort's rows, is kept or dropped."""
    cfg = expand_preset("defended_baseline")
    kept = replace(cfg, defense=replace(cfg.defense, enabled=False))
    dropped = replace(kept, defense=replace(kept.defense, playbook=()))
    runs = [build_from_seed(c, seed).run(c.run.ticks) for c in (kept, dropped)]
    assert len(runs[0].accounts) == len(runs[1].accounts) + cfg.defense.prepared_bots
    assert runs[0].history.to_csv_text() == runs[1].history.to_csv_text()
    assert run_outcome(runs[0]) == run_outcome(runs[1])


def test_a_world_serves_only_the_config_it_was_built_for():
    cfg = default_config()
    world = build_world(cfg)
    with pytest.raises(ConfigError, match=r"^run\.seed: the world was built for 0, not 5$"):
        build_from_seed(cfg, 5, world)
    with pytest.raises(ConfigError, match=r"^attack\.bots: the world was built for 200, not 20$"):
        build_simulation(config_from_dict({"attack": {"bots": 20}}), world)
    with pytest.raises(ConfigError, match=r"^defense\.playbook: .*'supporting_bots'"):
        build_simulation(expand_preset("defended_baseline"), world)
    # defense.enabled shapes no world: both arms of a toggle share one
    enabled = replace(cfg, defense=replace(cfg.defense, enabled=True))
    assert build_simulation(enabled, world).world is world


@pytest.mark.parametrize("kind", list(ARMING_POLICIES), ids=lambda kind: kind.value)
def test_each_arming_policy_sizes_its_cohort_by_its_own_field(kind):
    """Every entry of the arming table, so a new arming policy is covered
    without editing this test: the policy builds its cohort at the size its
    field names, no other config builds it, and the size is part of the key."""
    cohort_id, size, _ = ARMING_POLICIES[kind]
    plain = {"graph": {"n": 300}, "defense": {size: 3}}
    armed = config_from_dict({**plain, "defense": {size: 3, "playbook": [{"kind": kind.value}]}})
    world = build_world(armed)
    assert len(dict(world.cohort_members)[cohort_id]) == 3
    assert cohort_id not in dict(build_world(config_from_dict(plain)).cohort_members)
    resized = replace(armed, defense=replace(armed.defense, **{size: 4}))
    with pytest.raises(ConfigError, match=rf"^defense\.{size}: the world was built for 3, not 4$"):
        build_simulation(resized, world)


class _ReadRecorder:
    """A config stand-in that records the path of each value read from it."""

    def __init__(self, config, reads, path=""):
        self._config, self._reads, self._path = config, reads, path

    def __getattr__(self, name):
        value, path = getattr(self._config, name), f"{self._path}{name}"
        if dataclasses.is_dataclass(value):
            return _ReadRecorder(value, self._reads, f"{path}.")
        self._reads.add(path)
        return value


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_build_world_reads_only_the_world_key(preset):
    """A value that ``build_world`` reads but its key leaves out would let a
    world serve a config it was not built for."""
    reads = set()
    build_world(_ReadRecorder(config_from_dict({**PRESETS[preset], "graph": {"n": 300}}), reads))
    assert reads == set(scenario._WORLD_FIELDS) | {"defense.playbook"}


def test_world_columns_are_read_only():
    world = build_world(expand_preset("defended_baseline"))
    frozen = [getattr(world.accounts, name) for name in AccountTable.STATIC]
    frozen += [world.roster_ids, world.manager_ids, world.employee_ids,
               world.can_activate, *world.graph.follower_csr(),
               *(members for _, members in world.cohort_members)]
    for column in frozen:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]
    sim = build_simulation(expand_preset("defended_baseline"), world)
    sim.accounts.stress[sim.roster_ids] = 0.5  # a run writes only its own stress
    assert not world.accounts.stress.any()


def test_world_rejects_an_empty_roster():
    world = build_world(default_config())
    with pytest.raises(ValueError, match="roster has no members"):
        World(world.graph, world.accounts, [], [], world.cohort_members,
              world.seed_posters, world.engine_seed, world.key)


def test_run_seed_field_feeds_build():
    cfg = config_from_dict({"run": {"seed": 7}})
    sim = build_from_seed(cfg, cfg.run.seed)
    assert sim.cfg.run.seed == 7


def test_dict_valued_fields_merge_with_defaults():
    cfg = config_from_dict({"agents": {"class_multipliers": {"social": 2}}})
    defaults = default_config().agents.class_multipliers
    social = cfg.agents.class_multipliers["social"]
    assert type(social) is float and social == 2.0  # a float map takes an int, as a float
    assert cfg.agents.class_multipliers["communication"] == defaults["communication"]


_TOPIC = {"topic_id": "t", "failure_class": "social", "severity": 0.5,
          "appeal": [0.5, 0.5, 0.5, 0.5, 0.5]}
_PAST = {"topic_id": "t", "failure_class": "social", "tick": -100}


@pytest.mark.parametrize("path, data", [
    ("topics[0].severity", {"topics": [dict(_TOPIC, severity=None)]}),
    ("topics[0].severity", {"topics": [dict(_TOPIC, severity=True)]}),
    ("topics[0].severity", {"topics": [dict(_TOPIC, severity="0.5")]}),
    ("topics[0].appeal[0]", {"topics": [dict(_TOPIC, appeal=[[1], 0.5, 0.5, 0.5, 0.5])]}),
    ("topics[0].appeal", {"topics": [dict(_TOPIC, appeal=[0.5, 0.5, 0.5, 0.5])]}),
    ("topics[0].topic_id", {"topics": [dict(_TOPIC, topic_id=None)]}),
    ("topics[0]", {"topics": [{k: v for k, v in _TOPIC.items() if k != "failure_class"}]}),
    ("company_history[0]",
     {"company_history": [{k: v for k, v in _PAST.items() if k != "failure_class"}]}),
    ("company_history[0].failure_class", {"company_history": [dict(_PAST, failure_class="x")]}),
    ("defense.playbook[0]", {"defense": {"playbook": [{"trigger_tick": 3}]}}),
    ("attack.target_weights", {"attack": {"target_weights": [0.5, 0.5]}}),
    ("attack.action_schedule[0]", {"attack": {"action_schedule": [[3, "dos", 1]]}}),
    ("attack.action_schedule[0]",
     {"attack": {"action_schedule": [{"tick": 3, "action": "dos"}]}}),
    ("attack.action_schedule[0][1]", {"attack": {"action_schedule": [[3, 4]]}}),
    ("attack.action_schedule[0][0]", {"attack": {"action_schedule": [[-1, "dos"]]}}),
    ("attack.action_schedule[0][1]", {"attack": {"action_schedule": [[1, "bogus"]]}}),
    # rates past numpy's Poisson limit validated and then crashed the build
    ("agents.posting_rate", {"agents": {"posting_rate": 9.3e18}}),
    ("attack.bot_posting_rate", {"attack": {"bot_posting_rate": 61.0}}),
    ("defense.support_posting_rate", {"defense": {"support_posting_rate": 1e6}}),
])
def test_strict_decoder_names_the_offending_path(path, data):
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert str(err.value).startswith(f"{path}: ")


def test_decoding_walks_each_given_field_once(monkeypatch):
    """Decoding only reshapes, so the config's one walk is the only check a
    given field meets: ``graph.n`` was once walked 3 times, a field of a
    nested section 4."""
    walked = collections.Counter()
    valid = scenario._valid

    def counted(tp, value, path, rule=None):
        walked[path] += 1
        valid(tp, value, path, rule)

    monkeypatch.setattr(scenario, "_valid", counted)
    config_from_dict({"graph": {"n": 50}, "attack": {"ransom": {"amount": 5.0}}})
    assert walked["graph.n"] == walked["attack.ransom.amount"] == 1


def _config_types() -> set:
    """Every type a ``ScenarioConfig`` annotation reaches: the field types of
    each record it holds, and the arguments of their unions, tuples and
    mappings."""
    seen, todo = set(), [ScenarioConfig]
    while todo:
        tp = todo.pop()
        if tp not in seen:
            seen.add(tp)
            todo += (typing.get_type_hints(tp).values() if dataclasses.is_dataclass(tp)
                     else typing.get_args(tp))
    return seen


def test_no_record_of_a_config_checks_itself_but_the_config():
    """Decoding makes each record before the config's one walk checks it, so
    a record with its own ``__post_init__`` would meet values of the wrong
    type: of the dataclasses a config holds, only ``ScenarioConfig`` checks."""
    records = {tp for tp in _config_types() if dataclasses.is_dataclass(tp)}
    assert {TargetTopic, PastFirestorm, PolicySpec} <= records
    assert [cls for cls in records if "__post_init__" in vars(cls)] == [ScenarioConfig]


def test_no_config_field_is_declared_an_enum():
    """A config holds names, each checked against its field's rule, so the
    codec walks one form of a value: a topic's failure class is a name, as a
    past firestorm's is."""
    types = _config_types()
    assert str in types and TargetTopic in types
    assert [tp for tp in types if isinstance(tp, type) and issubclass(tp, enum.Enum)] == []


def test_config_json_is_stable():
    text = dumps_config(default_config())
    assert json.loads(text)  # valid JSON
    assert text == dumps_config(loads_config(text))  # fixpoint


_DEFAULTS = default_config().to_dict()
_SCALAR_FIELDS = sorted(
    (section, name) for section, fields in _DEFAULTS.items() if isinstance(fields, dict)
    for name, value in fields.items() if isinstance(value, (bool, int, float, str)))
_floats = st.floats(min_value=0.0, max_value=1.0) | st.floats(min_value=0.0, allow_nan=False)


def _schema_bounds(cls=ScenarioConfig, path=()):
    """(path, bound, item type) of each ``Bound`` the schema declares on a
    section's number, tuple of numbers or mapping values, read from the
    field metadata; a mapping's path ends at its first allowed key."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        rule, tp = f.metadata.get("rule"), hints[f.name]
        if dataclasses.is_dataclass(tp):
            yield from _schema_bounds(tp, path + (f.name,))
        elif isinstance(rule, Keys):
            yield path + (f.name, rule.names[0]), rule.value, typing.get_args(tp)[1]
        elif isinstance(rule, Bound):
            yield path + (f.name,), rule, (typing.get_args(tp) or (tp,))[0]


def _edges(bound, tp):
    """(admitted, rejected) at each end of ``bound``: the value at a closed
    end and the next one past it, or the value just inside an open end and
    the end itself; the next value is the next integer or float."""
    pairs = []
    for end, is_open, outward in ((bound.lo, bound.lo_open, -1), (bound.hi, bound.hi_open, 1)):
        if end is None:
            continue
        inward = end - outward if tp is int else math.nextafter(end, -outward * math.inf)
        past = end + outward if tp is int else math.nextafter(end, outward * math.inf)
        pairs.append((inward, end) if is_open else (end, past))
    return pairs


def _set(path, value, base):
    """A copy of the config dict ``base`` holding ``value`` at ``path``; a
    list default keeps its other items, so ``value`` goes to item 0."""
    default = _DEFAULTS
    for key in path:
        default = default[key]
    data = node = copy.deepcopy(base)
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = [value, *default[1:]] if isinstance(default, list) else value
    return data


_EDGES = {path: _edges(bound, tp) for path, bound, tp in _schema_bounds()}
# fields that a cross-field rule ties to an edge value, set so that it holds
_EDGE_BASES = {("graph", "n"): {"graph": {"m": 1}, "roster": {"employees": 1, "managers": 0}},
               ("analytics", "value_base"): {"analytics": {"value_floor": 5e-324}}}


@pytest.mark.parametrize("path, admitted, rejected", [
    (path, admitted, rejected) for path, pairs in _EDGES.items() for admitted, rejected in pairs],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
def test_each_bound_admits_its_edge_and_rejects_the_next_value(path, admitted, rejected):
    base = _EDGE_BASES.get(path, {})
    config_from_dict(_set(path, admitted, base))
    with pytest.raises(ConfigError) as err:
        config_from_dict(_set(path, rejected, base))
    assert re.match(rf"{re.escape('.'.join(path))}(\[0\])?: ", str(err.value)), str(err.value)


def _value(template, cap=2**40, edges=()):
    if isinstance(template, bool):
        return st.booleans()
    edge = st.sampled_from([v for pair in edges for v in pair]) if edges else st.nothing()
    if isinstance(template, int):
        return st.just(min(template, cap)) | st.integers(min_value=0, max_value=cap) | edge
    if isinstance(template, float):
        return st.just(template) | st.integers(min_value=0, max_value=10) | _floats | edge
    return st.just(template) | st.text(max_size=8)


@st.composite
def _config_dicts(draw, caps=None):
    """JSON-shaped configs touching scalars, dicts, lists and the tuple fields;
    ``caps`` bounds chosen integer fields, ``{(section, name): max}``."""
    caps = caps or {}
    data = {}
    for section, name in draw(st.lists(st.sampled_from(_SCALAR_FIELDS), max_size=6,
                                       unique=True)):
        data.setdefault(section, {})[name] = draw(_value(
            _DEFAULTS[section][name], caps.get((section, name), 2**40),
            _EDGES.get((section, name), ())))
    agents, attack, defense = (data.setdefault(k, {}) for k in ("agents", "attack", "defense"))
    agents["class_multipliers"] = draw(st.dictionaries(
        st.sampled_from(FAILURE_CLASS_NAMES), _floats, max_size=3))
    attack["downtime_ticks"] = draw(st.dictionaries(
        st.sampled_from(ACTION_NAMES), st.integers(0, 500), max_size=3))
    attack["target_weights"] = draw(st.lists(st.floats(0, 1), min_size=3, max_size=3))
    attack["action_schedule"] = draw(st.lists(st.tuples(
        st.integers(0, 1000), st.sampled_from(ACTION_NAMES)).map(list), max_size=3))
    attack["ransom"] = {"force_outcome": draw(st.sampled_from([None, "pay", "refuse"])),
                        "amount": draw(st.floats(min_value=1.0, allow_nan=False))}
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


# population counts only, so a world stays small enough to build in a test
_POPULATION_CAPS = {("graph", "n"): 300, ("attack", "bots"): 200,
                    ("defense", "prepared_bots"): 50, ("defense", "partner_defenders"): 50}


@given(data=_config_dicts(caps=_POPULATION_CAPS))
@settings(max_examples=50, deadline=None)
def test_every_valid_config_builds_and_runs(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        reject()
    sim = build_from_seed(cfg, cfg.run.seed)
    sim.run(5)
    assert len(sim.history.total_posts) == 5
