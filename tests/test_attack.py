import numpy as np
import pytest
from dataclasses import replace

import firesim
from firesim.agents import BotMode, FailureClass, TargetTopic
from firesim.attack import (ACTION_MIN_STAGE, ActionKind, AttackPlan,
                            IMPACT_MATRIX, ImpactVector, NoTopicError,
                            PlanStage, SequencingError, execute_action,
                            flip_bots, ransom_decision, retarget_bots,
                            select_topic, stage_index)
from firesim.scenario import RansomConfig, build_from_seed, default_config

# reputation / confidentiality / integrity / availability
_expected_impacts = [
    (ActionKind.DOS, (False, False, True, True)),
    (ActionKind.PHYSICAL_ACTION, (False, False, True, True)),
    (ActionKind.HUMAN_ERROR_EXPLOIT, (True, True, True, True)),
    (ActionKind.OFFERING_HELP, (True, False, False, False)),
    (ActionKind.INSIDER_THREAT, (True, False, False, True)),
    (ActionKind.EXTORTION, (False, False, False, False)),
    (ActionKind.DEFENCE_AS_A_SERVICE, (False, False, False, False)),
]


@pytest.mark.parametrize("kind,expected", _expected_impacts)
def test_impact_matrix_exact(kind, expected):
    assert IMPACT_MATRIX[kind] == ImpactVector(*expected)


def test_impact_matrix_covers_every_action():
    assert set(IMPACT_MATRIX) == set(ActionKind)
    assert set(ACTION_MIN_STAGE) == set(ActionKind)


def test_stage_order_is_strict():
    order = [PlanStage.TOPIC_SELECTION, PlanStage.LATENT_AMPLIFICATION,
             PlanStage.SPREAD_WATCH, PlanStage.TARGET_IDENTIFICATION,
             PlanStage.WORKER_FOCUS, PlanStage.CYBER_ATTACK]
    indices = [stage_index(s) for s in order]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)


def _topics():
    return [
        TargetTopic("broken-product", FailureClass.PRODUCT_SERVICE, 0.8,
                    (0.5, 0.4, 0.6, 0.5, 0.7)),
        TargetTopic("ceo-scandal", FailureClass.SOCIAL, 0.7,
                    (0.6, 0.3, 0.7, 0.4, 0.6)),
        TargetTopic("tone-deaf-apology", FailureClass.COMMUNICATION, 0.6,
                    (0.4, 0.5, 0.5, 0.6, 0.5)),
    ]


def test_select_topic_picks_weighted_severity():
    weights = {"social": 1.0, "communication": 1.0, "product_service": 1.0}
    assert select_topic(_topics(), weights).topic_id == "broken-product"
    # class weighting can reorder the pick
    weights = {"social": 2.0, "communication": 1.0, "product_service": 1.0}
    assert select_topic(_topics(), weights).topic_id == "ceo-scandal"


def test_select_topic_honours_exclusions_and_exhaustion():
    weights = {"social": 1.0, "communication": 1.0, "product_service": 1.0}
    topics = _topics()
    first = select_topic(topics, weights).topic_id
    second = select_topic(topics, weights, excluded=[first]).topic_id
    assert second != first
    with pytest.raises(NoTopicError):
        select_topic(topics, weights, excluded=[t.topic_id for t in topics])


def test_select_topic_tie_breaks_on_id():
    weights = {"social": 1.0, "communication": 1.0, "product_service": 1.0}
    tied = [
        TargetTopic("zeta", FailureClass.SOCIAL, 0.5, (0.5,) * 5),
        TargetTopic("alpha", FailureClass.SOCIAL, 0.5, (0.5,) * 5),
    ]
    assert select_topic(tied, weights).topic_id == "alpha"


def test_retarget_bots_sets_ramp():
    cohort = firesim.BotCohort(cohort_id="attack-0", members=[5, 6], posting_rate=1.0,
                               mode=BotMode.ATTACK)
    assert retarget_bots(cohort, [1, 2, 3], ramp=12, start_tick=30) is True
    assert cohort.retarget_targets == (1, 2, 3)
    assert cohort.retarget_start == 30 and cohort.retarget_ramp == 12
    assert retarget_bots(cohort, [], ramp=12, start_tick=30) is False


def test_flip_bots_converts_in_ceil_steps():
    cohort = firesim.BotCohort(cohort_id="attack-0", members=list(range(95)),
                               posting_rate=1.0, mode=BotMode.ATTACK)
    steps = 0
    while cohort.mode is not BotMode.DEFEND:
        flip_bots(cohort, 0.1)
        steps += 1
        assert steps <= 10
    assert cohort.defending == 95
    assert steps == 10  # ceil(9.5) = 10 per call


@pytest.mark.parametrize("fraction", [0.0, -0.2, 1.5])
def test_flip_bots_rejects_bad_fraction(fraction):
    cohort = firesim.BotCohort(cohort_id="attack-0", members=[1], posting_rate=1.0,
                               mode=BotMode.ATTACK)
    with pytest.raises(ValueError):
        flip_bots(cohort, fraction)


def test_ransom_decision_probability_and_forcing():
    rng = np.random.default_rng(0)
    cfg = RansomConfig(amount=150_000.0, base_willingness=0.6,
                       amount_scale=200_000.0, reliability=0.8)
    _, p = ransom_decision(cfg, rng)
    assert p == pytest.approx(0.6 * np.exp(-0.75) * 0.8)
    # forcing pins the outcome but keeps reporting the underlying probability
    paid, p_forced = ransom_decision(replace(cfg, force_outcome="pay"), rng)
    assert paid is True and p_forced == pytest.approx(p)
    paid, p_forced = ransom_decision(replace(cfg, force_outcome="refuse"), rng)
    assert paid is False and p_forced == pytest.approx(p)


def test_forced_ransom_consumes_no_rng():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    ransom_decision(RansomConfig(force_outcome="pay"), rng)
    assert rng.bit_generator.state == state


# -- execute_action against a built world -------------------------------------

def _armed_sim(seed=0, stage=PlanStage.CYBER_ATTACK):
    cfg = default_config()
    sim = build_from_seed(cfg, seed)
    sim.plan.stage = stage
    return cfg, sim


def test_sequencing_error_before_min_stage():
    cfg, sim = _armed_sim(stage=PlanStage.LATENT_AMPLIFICATION)
    rng = np.random.default_rng(1)
    with pytest.raises(SequencingError):
        execute_action(ActionKind.HUMAN_ERROR_EXPLOIT, sim, rng, cfg.attack)
    with pytest.raises(SequencingError):
        execute_action(ActionKind.OFFERING_HELP, sim, rng, cfg.attack)
    # DoS is permitted from amplification onwards
    out = execute_action(ActionKind.DOS, sim, rng, cfg.attack)
    assert out.kind is ActionKind.DOS


def test_dos_success_causes_downtime_not_exfiltration():
    cfg, sim = _armed_sim()
    rng = np.random.default_rng(3)  # p = 0.9, first draw succeeds
    out = execute_action(ActionKind.DOS, sim, rng, cfg.attack)
    assert out.success
    assert out.downtime_ticks == cfg.attack.downtime_ticks["dos"]
    assert sim.company.downtime_remaining == out.downtime_ticks
    assert not sim.company.data_exfiltrated
    assert out.impact == IMPACT_MATRIX[ActionKind.DOS]


def test_human_error_probability_tracks_mean_noncompliance():
    cfg, sim = _armed_sim()
    roster = sim.roster_ids
    sim.accounts.stress[roster] = 0.5
    rng = np.random.default_rng(0)
    out = execute_action(ActionKind.HUMAN_ERROR_EXPLOIT, sim, rng, cfg.attack)
    # compliance = 0.9 * (1 - 0.6 * 0.5) -> failure probability 0.37
    assert out.probability == pytest.approx(1.0 - 0.9 * 0.7, abs=1e-9)


def test_human_error_probability_oracle():
    """The mean over staff of 1 - posture * (1 - weight * stress), clipped to [0, 1]."""
    cfg, sim = _armed_sim()
    assert (sim.company.security_posture, cfg.agents.stress_compliance_weight) == (0.9, 0.6)
    roster = sim.roster_ids
    rng = np.random.default_rng(0)
    sim.accounts.stress[roster] = 0.0
    out = execute_action(ActionKind.HUMAN_ERROR_EXPLOIT, sim, rng, cfg.attack)
    assert out.probability == pytest.approx(1.0 - 0.9)
    # half the staff calm, half at 0.5 stress: compliance 0.9 and 0.63
    sim.accounts.stress[roster[::2]] = 0.5
    calm = len(roster) // 2
    expected = (calm * (1.0 - 0.9) + (len(roster) - calm) * (1.0 - 0.63)) / len(roster)
    out = execute_action(ActionKind.HUMAN_ERROR_EXPLOIT, sim, rng, cfg.attack)
    assert out.probability == pytest.approx(expected)


def test_human_error_success_hits_all_four_impacts():
    cfg, sim = _armed_sim()
    sim.accounts.stress[sim.roster_ids] = 1.0
    rep0 = sim.company.reputation
    rng = np.random.default_rng(1)
    for _ in range(60):
        out = execute_action(ActionKind.HUMAN_ERROR_EXPLOIT, sim, rng, cfg.attack)
        if out.success:
            break
    assert out.success
    assert sim.company.data_exfiltrated
    assert sim.company.downtime_remaining > 0
    assert sim.company.reputation < rep0


def test_insider_threat_needs_disgruntled_candidates():
    cfg, sim = _armed_sim()
    roster = sim.roster_ids
    sim.accounts.stress[roster] = 0.0
    rng = np.random.default_rng(2)
    out = execute_action(ActionKind.INSIDER_THREAT, sim, rng, cfg.attack)
    assert out.probability == 0.0 and not out.success
    # stressed and unproud: p scales with candidate count, capped at 1
    sim.accounts.stress[roster] = 0.9
    sim.accounts.pride = sim.accounts.pride.copy()  # the world's column is read-only
    sim.accounts.pride[roster] = 0.1
    out = execute_action(ActionKind.INSIDER_THREAT, sim, rng, cfg.attack)
    expected = min(1.0, cfg.attack.insider_rate_per_candidate * len(roster))
    assert out.probability == pytest.approx(expected)


def test_insider_threat_thresholds_are_strict_on_a_partial_mask():
    cfg, sim = _armed_sim()
    atk = cfg.attack
    roster = sim.roster_ids
    sim.accounts.stress[roster] = 0.0
    sim.accounts.pride = sim.accounts.pride.copy()  # the world's column is read-only
    sim.accounts.pride[roster] = 0.0
    # stress exactly at the minimum or pride exactly at the maximum does not count
    stress_pride = [(atk.insider_stress_min, 0.1), (0.9, atk.insider_pride_max),
                    (0.9, 0.1), (np.nextafter(atk.insider_stress_min, 1.0),
                                 np.nextafter(atk.insider_pride_max, 0.0)),
                    (0.9, np.nan)]
    assert len(roster[1::3]) >= len(stress_pride)
    for member, (stress, pride) in zip(roster[1::3], stress_pride):
        sim.accounts.stress[member], sim.accounts.pride[member] = stress, pride
    out = execute_action(ActionKind.INSIDER_THREAT, sim, np.random.default_rng(2), atk)
    assert out.probability == atk.insider_rate_per_candidate * 2


def test_extortion_paid_stands_down_bots_and_books_ransom():
    cfg = default_config()
    cfg = replace(cfg, attack=replace(cfg.attack,
                                      ransom=replace(cfg.attack.ransom, force_outcome="pay")))
    sim = build_from_seed(cfg, 0)
    sim.plan.stage = PlanStage.SPREAD_WATCH
    for cohort in sim.cohorts:
        cohort.mode = BotMode.ATTACK
    rng = np.random.default_rng(0)
    out = execute_action(ActionKind.EXTORTION, sim, rng, cfg.attack)
    assert out.ransom_paid == cfg.attack.ransom.amount
    assert sim.company.ransom_paid_total == cfg.attack.ransom.amount
    assert all(c.mode is BotMode.DORMANT for c in sim.cohorts)
    # all-No impact row: no technical damage
    assert not sim.company.data_exfiltrated
    assert sim.company.downtime_remaining == 0


def test_service_paid_arms_the_flip():
    cfg = default_config()
    cfg = replace(cfg, attack=replace(cfg.attack,
                                      service=replace(cfg.attack.service, force_outcome="pay")))
    sim = build_from_seed(cfg, 0)
    sim.plan.stage = PlanStage.SPREAD_WATCH
    rng = np.random.default_rng(0)
    out = execute_action(ActionKind.DEFENCE_AS_A_SERVICE, sim, rng, cfg.attack)
    assert out.ransom_paid == cfg.attack.service.amount
    assert sim.plan.flip_active


# -- full-plan progression ------------------------------------------------------

def test_plan_walks_stages_in_order(default_cfg):
    sim = build_from_seed(default_cfg, 0)
    sim.run(default_cfg.run.ticks)
    stages = [s for s, _ in sim.plan.stage_entries]
    assert stages == ["topic_selection", "latent_amplification", "spread_watch",
                      "target_identification", "worker_focus", "cyber_attack", "done"]
    ticks = [t for _, t in sim.plan.stage_entries]
    assert ticks == sorted(ticks)
    assert ticks[0] == -1  # plans exist before the first tick


def test_target_identification_happens_at_fire_point(default_cfg):
    sim = build_from_seed(default_cfg, 1)
    sim.run(default_cfg.run.ticks)
    entries = dict(sim.plan.stage_entries)
    assert entries["target_identification"] == sim.fire_point
    assert len(sim.plan.targets) == default_cfg.attack.retarget_top_k
    roster = set(sim.world.roster_ids.tolist())
    assert set(sim.plan.targets) <= roster


def test_campaign_budget_retires_bots(default_cfg):
    sim = build_from_seed(default_cfg, 0)
    sim.run(default_cfg.run.ticks)
    concluded = [e for e in sim.events if e["kind"] == "campaign_concluded"]
    assert len(concluded) == 1
    assert concluded[0]["tick"] == default_cfg.attack.campaign_budget
    assert all(c.mode is BotMode.DORMANT for c in sim.cohorts)
    assert sim.history.bot_posts[-1] == 0


def test_abandon_then_topic_cycle():
    cfg = default_config()
    # starve the cascade so no topic can fire, with budget room for retries
    cfg = replace(cfg, attack=replace(cfg.attack, bots=2, bot_posting_rate=0.2,
                                      spread_patience=6, campaign_budget=10_000),
                  run=replace(cfg.run, ticks=400))
    sim = build_from_seed(cfg, 0)
    sim.run(cfg.run.ticks)
    kinds = [e["kind"] for e in sim.events]
    assert "amplification_abandoned" in kinds
    assert "topic_exhausted" in kinds
    selected = [e["topic"] for e in sim.events if e["kind"] == "topic_selected"]
    assert len(selected) == len(set(selected))  # exclusions hold
    assert sim.plan.stage is PlanStage.ABORTED
    assert sim.plan.excluded_topics == selected


def test_scheduled_action_too_early_is_skipped():
    cfg = default_config()
    cfg = replace(cfg, attack=replace(cfg.attack,
                                      action_schedule=((0, "human_error_exploit"),)))
    sim = build_from_seed(cfg, 0)
    sim.run(5)
    skips = [e for e in sim.events if e["kind"] == "action_skipped"]
    assert len(skips) == 1 and skips[0]["action"] == "human_error_exploit"


def test_flip_completes_and_cohort_defends():
    cfg = default_config()
    cfg = replace(cfg, attack=replace(
        cfg.attack,
        action_schedule=((10, "defence_as_a_service"),),
        service=replace(cfg.attack.service, force_outcome="pay"),
        flip_fraction=0.25))
    sim = build_from_seed(cfg, 0)
    sim.run(30)
    flips = [e for e in sim.events if e["kind"] == "bots_flipped"]
    assert flips
    attack_cohort = next(c for c in sim.cohorts if c.cohort_id == "attack-0")
    assert attack_cohort.mode is BotMode.DEFEND
    assert attack_cohort.defending == len(attack_cohort.members)
    # flipped bots push supportive volume
    assert sim.history.bot_posts[-1] > 0
    tail = sim.post_log.posts_between(25, 30)
    bot_vals = [p.valence for p in tail if not p.organic]
    assert bot_vals and min(bot_vals) > 0


def test_plan_event_markers_reach_financial_series():
    cfg = default_config()
    cfg = replace(cfg, attack=replace(cfg.attack, action_schedule=((8, "dos"),)))
    sim = build_from_seed(cfg, 0)
    sim.run(20)
    assert (8, "dos") in sim.financial.markers


def test_attack_disabled_means_no_plan():
    cfg = default_config()
    cfg = replace(cfg, attack=replace(cfg.attack, enabled=False, bots=0),
                  run=replace(cfg.run, initial_organic_posters=4))
    sim = build_from_seed(cfg, 0)
    assert sim.plan is None
    sim.run(40)
    assert sim.history.bot_posts == [0] * 40
