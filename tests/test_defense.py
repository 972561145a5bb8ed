import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from firesim.agents import BotMode, FailureClass, TargetTopic
from firesim.defense import (AccountReputationDB, PARTNER_COHORT_ID, PastFirestorm,
                             PolicyKind, PolicyMismatchError, SUPPORT_COHORT_ID,
                             apply_policy, build_runtime, db_lookup,
                             detect_artificial, recurrence_boost)
from firesim.scenario import (PolicySpec, build_from_seed, default_config,
                              expand_preset)


# -- detection ----------------------------------------------------------------

def test_detect_artificial_fraction_oracle():
    # 7 accounts two days old, 13 older than the threshold, at tick 100
    ids = list(range(7)) + list(range(10, 23))
    verdict = detect_artificial(ids, [52] * 7 + [-5000] * 13, now=100, age_threshold=720)
    assert verdict.artificial_score == pytest.approx(7 / 20)
    assert verdict.flagged == list(range(7))
    assert verdict.sample_size == 20 and verdict.requested == 20
    assert verdict.note == ""
    assert verdict.evidence[0] == 48 and verdict.evidence[10] == 5100


def test_detect_artificial_short_supply_notes():
    verdict = detect_artificial(range(12), [90] * 12, now=100, age_threshold=720,
                                requested=20)
    assert verdict.sample_size == 12 and verdict.requested == 20
    assert "only 12 of 20" in verdict.note
    assert verdict.artificial_score == 1.0  # all twelve are ten ticks old


def test_detect_artificial_empty_sample():
    verdict = detect_artificial([], [], now=100, age_threshold=720)
    assert verdict.artificial_score == 0.0 and verdict.flagged == []


def test_detect_artificial_counts_a_repeated_id_once_with_its_last_stamp():
    verdict = detect_artificial([4, 5, 4], [90, 95, -5000], now=100, age_threshold=720)
    assert verdict.evidence == {4: 5100, 5: 5}
    assert verdict.flagged == [5] and verdict.artificial_score == 0.5
    assert verdict.sample_size == 2 and verdict.requested == 3


def test_detect_age_boundary_is_strict():
    verdict = detect_artificial([0], [0], now=720, age_threshold=720)
    assert verdict.artificial_score == 0.0  # exactly threshold-old is not flagged
    verdict = detect_artificial([0], [1], now=720, age_threshold=720)
    assert verdict.artificial_score == 1.0


def test_db_lookup_takes_the_max_and_unions_flags():
    posters = list(range(10))
    verdict = detect_artificial(posters, [-5000] * 8 + [99, 99], now=100, age_threshold=720)
    assert verdict.artificial_score == pytest.approx(0.2)
    # half the sample is known campaign infrastructure
    db = AccountReputationDB({i: (-100, "earlier-run") for i in (0, 1, 2, 3, 8)})
    enriched = db_lookup(db, posters, verdict)
    assert enriched.artificial_score == pytest.approx(0.5)
    assert enriched.db_matched == [0, 1, 2, 3, 8]
    assert enriched.flagged == [0, 1, 2, 3, 8, 9]
    # an empty database can never lower the age-based score
    unhelped = db_lookup(AccountReputationDB(), posters, verdict)
    assert unhelped.artificial_score == verdict.artificial_score
    assert unhelped.db_matched == []


def test_verdict_to_dict_is_json_friendly():
    verdict = detect_artificial([3], [99], now=100, age_threshold=720)
    payload = verdict.to_dict()
    assert payload["evidence"] == {"3": 1}
    assert payload["flagged"] == [3]


# -- shared account database ---------------------------------------------------

def _write_db(path, records: dict[int, tuple[int, str]]) -> None:
    """The tab-separated table ``AccountReputationDB.load`` reads."""
    lines = ["account_id\tlast_seen_tick\tcampaign_id"]
    lines += [f"{i}\t{last_seen}\t{campaign}" for i, (last_seen, campaign) in records.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_reputation_db_roundtrip(tmp_path):
    records = {42: (100, "spring-campaign"), 7: (50, "spring-campaign")}
    path = tmp_path / "accounts.tsv"
    _write_db(path, records)
    loaded = AccountReputationDB.load(path)
    assert loaded.records == records
    assert 42 in loaded and 8 not in loaded and len(loaded) == 2


def test_missing_db_becomes_startup_event_not_crash(tmp_path):
    cfg = default_config()
    dcfg = replace(cfg.defense, enabled=True,
                   playbook=(PolicySpec(kind="shared_account_database"),),
                   db_path=str(tmp_path / "nope.tsv"))
    events = []
    runtime = build_runtime(dcfg, events)
    assert runtime.db is None
    kinds = [e["kind"] for e in events]
    assert kinds == ["db_unavailable"]


def test_malformed_db_becomes_startup_event_naming_the_line(tmp_path):
    path = tmp_path / "db.tsv"
    path.write_text("account_id\tlast_seen_tick\tcampaign_id\n12\tabc\tc1\n")
    with pytest.raises(ValueError, match=f"{path}:2:"):
        AccountReputationDB.load(path)
    cfg = default_config()
    events = []
    runtime = build_runtime(replace(cfg.defense, enabled=True,
                                    playbook=(PolicySpec(kind="shared_account_database"),),
                                    db_path=str(path)), events)
    assert runtime.db is None
    [event] = events
    assert event["kind"] == "db_unavailable" and f"{path}:2:" in event["reason"]


def test_db_wanted_but_unconfigured_is_flagged():
    cfg = default_config()
    dcfg = replace(cfg.defense, enabled=True,
                   playbook=(PolicySpec(kind="shared_account_database"),),
                   db_path=None)
    events = []
    build_runtime(dcfg, events)
    assert events[0]["reason"] == "no db_path configured"


# -- recurrence memory ----------------------------------------------------------

def _topic(failure_class=FailureClass.SOCIAL):
    return TargetTopic("t", failure_class, 0.7, (0.5,) * 5)


def test_recurrence_boost_oracle():
    cfg = default_config().defense  # gain 0.5, tau 720, period 17520
    history = [PastFirestorm("old", "social", tick=0)]
    # one tau past the anniversary: 1 + 0.5 * e^-1
    now = cfg.recurrence_period + 720
    assert recurrence_boost(history, _topic(), now, cfg) == pytest.approx(
        1.0 + 0.5 * math.exp(-1.0))
    # exactly on the anniversary: the full gain
    assert recurrence_boost(history, _topic(), cfg.recurrence_period, cfg) == \
        pytest.approx(1.5)


def test_recurrence_boost_ignores_other_classes():
    cfg = default_config().defense
    history = [PastFirestorm("old", "communication", tick=0)]
    assert recurrence_boost(history, _topic(), cfg.recurrence_period, cfg) == 1.0
    assert recurrence_boost([], _topic(), 100, cfg) == 1.0


def test_recurrence_boost_uses_most_recent_related():
    cfg = default_config().defense
    history = [PastFirestorm("a", "social", tick=0),
               PastFirestorm("b", "social", tick=1000)]
    expected_offset = abs(cfg.recurrence_period + 1000 - 1000 - cfg.recurrence_period)
    got = recurrence_boost(history, _topic(), cfg.recurrence_period + 1000, cfg)
    assert expected_offset == 0 and got == pytest.approx(1.0 + cfg.recurrence_gain)


# -- policies against a live run -------------------------------------------------

def _defended(playbook, **defense_overrides):
    cfg = default_config()
    dcfg = replace(cfg.defense, enabled=True, playbook=tuple(playbook),
                   **defense_overrides)
    return replace(cfg, defense=dcfg)


def test_mismatched_mitigation_raises_when_forced():
    cfg = _defended([])
    sim = build_from_seed(cfg, 0)
    sim.run(5)
    assert sim.topic.failure_class is FailureClass.PRODUCT_SERVICE
    with pytest.raises(PolicyMismatchError):
        apply_policy(PolicyKind.DISTANCE_FROM_PARTNER, sim, sim.playbook)


def test_playbook_skips_mismatched_mitigation():
    cfg = _defended([PolicySpec(kind="apology_and_continue", trigger_tick=3)])
    sim = build_from_seed(cfg, 0)
    sim.run(10)
    skipped = [e for e in sim.events if e["kind"] == "policy_mismatch_skipped"]
    assert len(skipped) == 1
    assert skipped[0]["policy"] == "apology_and_continue"
    assert skipped[0]["topic_class"] == "product_service"
    assert not any(e["kind"] == "policy_applied" and e["policy"] == "apology_and_continue"
                   for e in sim.events)


def test_matched_mitigation_halves_severity():
    cfg = _defended([PolicySpec(kind="halt_product_and_review", trigger_tick=3)])
    sim = build_from_seed(cfg, 0)
    sim.run(10)
    applied = [e for e in sim.events if e["kind"] == "policy_applied"
               and e["policy"] == "halt_product_and_review"]
    assert len(applied) == 1
    assert applied[0]["severity_before"] == pytest.approx(sim.topic.severity)
    assert applied[0]["severity_after"] == pytest.approx(sim.topic.severity * 0.5)
    assert sim.severity == pytest.approx(sim.topic.severity * 0.5)


def test_proactive_training_applies_at_tick_zero():
    cfg = _defended([PolicySpec(kind="internal_training")])
    sim = build_from_seed(cfg, 0)
    posture = sim.company.security_posture
    sim.run(1)
    applied = [e for e in sim.events if e.get("policy") == "internal_training"]
    assert applied and applied[0]["tick"] == 0
    assert sim.company.security_posture == pytest.approx(
        posture + cfg.defense.training_posture_boost)


def test_supporting_bots_without_preparation_is_a_no_op():
    cfg = _defended([PolicySpec(kind="supporting_bots", trigger_tick=2)],
                    prepared_bots=0)
    sim = build_from_seed(cfg, 0)
    sim.run(6)
    events = [e for e in sim.events if e.get("policy") == "supporting_bots"]
    assert events and events[0]["kind"] == "policy_no_effect"


def test_support_cohort_defends_then_stands_down():
    cfg = _defended([PolicySpec(kind="supporting_bots", trigger_tick=2)])
    sim = build_from_seed(cfg, 0)
    cohort = next(c for c in sim.cohorts if c.cohort_id == SUPPORT_COHORT_ID)
    assert cohort.mode is BotMode.DORMANT
    assert len(cohort.members) == cfg.defense.prepared_bots
    sim.run(cfg.run.ticks)
    applied = [e for e in sim.events if e.get("policy") == "supporting_bots"]
    assert applied and applied[0]["tick"] == 2
    withdrawn = [e for e in sim.events if e["kind"] == "support_withdrawn"]
    assert withdrawn, "support posters never stood down after the storm died"
    assert cohort.mode is BotMode.DORMANT
    # while active they posted supportively
    support_posts = [p for p in sim.post_log.posts_between(2, withdrawn[0]["tick"])
                     if p.author in set(cohort.members)]
    assert support_posts and min(p.valence for p in support_posts) > 0


def test_partner_listed_twice_and_support_rearmed_by_policy():
    """Partner assistance applied twice at tick 0 arms its cohort once from
    tick 0; supporting bots applied again after they stood down re-arm at
    once and restart their active time."""
    cfg = _defended([PolicySpec(kind="partner_assistance"),
                     PolicySpec(kind="supporting_bots", trigger_tick=2),
                     PolicySpec(kind="partner_assistance"),
                     PolicySpec(kind="supporting_bots", trigger_tick=156)])
    sim = build_from_seed(cfg, 0)
    sim.run(cfg.run.ticks)
    cohort_ids = (SUPPORT_COHORT_ID, PARTNER_COHORT_ID)
    events = [e for e in sim.events if e.get("policy") in ("partner_assistance",
                                                           "supporting_bots")
              or e.get("cohort") in cohort_ids]
    partner = {"kind": "policy_applied", "policy": "partner_assistance", "cohort_size": 8}
    support = {"kind": "policy_applied", "policy": "supporting_bots", "cohort_size": 25}
    assert events == [
        {"tick": 0, **partner}, {"tick": 0, **partner}, {"tick": 2, **support},
        {"tick": 155, "kind": "support_withdrawn", "cohort": SUPPORT_COHORT_ID},
        {"tick": 155, "kind": "support_withdrawn", "cohort": PARTNER_COHORT_ID},
        {"tick": 156, **support},
        {"tick": 161, "kind": "support_rearmed", "cohort": PARTNER_COHORT_ID}]
    assert sim.playbook.support_active_since == {PARTNER_COHORT_ID: 161,
                                                 SUPPORT_COHORT_ID: 156}
    assert {c.cohort_id: c.mode for c in sim.cohorts if c.cohort_id in cohort_ids} == \
        dict.fromkeys(cohort_ids, BotMode.DEFEND)


def test_dialogue_engagement_gains_followers_and_converts():
    cfg = _defended([PolicySpec(kind="dialogue_engagement", trigger_tick=30)])
    sim = build_from_seed(cfg, 0)
    followers0 = sim.company.page_followers
    sim.run(40)
    event = next(e for e in sim.events if e.get("policy") == "dialogue_engagement")
    assert event["follower_gain"] == cfg.defense.dialogue_follower_gain
    assert sim.company.page_followers == followers0 + event["follower_gain"]
    assert event["converted"] >= 0
    assert int(np.sum(sim.defender)) >= event["converted"]


def test_scapegoat_transfer_and_backfire_paths():
    base = _defended([PolicySpec(kind="scapegoat", trigger_tick=5)],
                     scapegoat_backfire_probability=0.0)
    sim = build_from_seed(base, 0)
    sim.run(8)
    event = next(e for e in sim.events if e.get("policy") == "scapegoat")
    assert event["backfired"] is False
    assert sim.activation_multiplier == pytest.approx(1.0 - base.defense.scapegoat_transfer)

    forced = _defended([PolicySpec(kind="scapegoat", trigger_tick=5)],
                       scapegoat_backfire_probability=1.0)
    sim2 = build_from_seed(forced, 0)
    rep_before = sim2.company.reputation
    sim2.run(6)
    event2 = next(e for e in sim2.events if e.get("policy") == "scapegoat")
    assert event2["backfired"] is True
    assert sim2.company.reputation < rep_before
    # same seed, same draws: the only difference is the backfire penalty
    twin = build_from_seed(base, 0)
    twin.run(6)
    assert sim2.company.reputation < twin.company.reputation


def test_stage_triggered_policy_waits_for_stage():
    cfg = _defended([PolicySpec(kind="supporting_bots", trigger_stage="peak")])
    sim = build_from_seed(cfg, 0)
    sim.run(cfg.run.ticks)
    event = next(e for e in sim.events if e.get("policy") == "supporting_bots")
    # the hook reads the tracker state recorded on the previous tick
    first_peak = next(i for i, s in enumerate(sim.history.stage) if s == "peak")
    assert event["tick"] == first_peak + 1


def test_verdict_emitted_once_enough_posts_seen():
    cfg = _defended([])
    sim = build_from_seed(cfg, 0)
    sim.run(30)
    verdicts = [e for e in sim.events if e["kind"] == "verdict"]
    assert len(verdicts) == 1
    assert sim.playbook.verdict is not None
    # detection works per unique account, so a prolific bot can shrink the sample
    assert 0 < sim.playbook.verdict.sample_size <= cfg.defense.detect_first_k
    assert sim.playbook.verdict.requested == cfg.defense.detect_first_k
    # a bot-driven default run should look almost entirely artificial
    assert verdicts[0]["artificial_score"] >= 0.9


@pytest.mark.parametrize("extra", [0, 1])
def test_verdict_lands_the_tick_after_the_kth_post(extra):
    """Phase 5 of tick t sees the posts of ticks 0..t-1, so the verdict comes
    on the first tick whose earlier ticks hold ``detect_first_k`` posts."""
    probe = build_from_seed(_defended([]), 0)
    probe.run(30)
    cumulative = list(itertools.accumulate(probe.history.total_posts))
    k = next(c for c in cumulative if c > 0) + extra
    sim = build_from_seed(_defended([], detect_first_k=k), 0)
    sim.run(30)
    want = next(t for t, c in enumerate(cumulative) if c >= k) + 1
    assert [e["tick"] for e in sim.events if e["kind"] == "verdict"] == [want]


def test_live_verdict_counts_a_repeated_author_once():
    """Bots and organic posters both post twice among the first 20 posts;
    pinned before the detector took parallel id and stamp columns."""
    base = expand_preset("permanent_few_accounts")
    cfg = replace(base, defense=replace(base.defense, enabled=True, playbook=()),
                  run=replace(base.run, initial_organic_posters=6))
    sim = build_from_seed(cfg, 0)
    sim.run(40)
    authors = sim.post_log.first_authors(cfg.defense.detect_first_k)
    assert len(authors) == 20 and len(set(authors)) == 15
    bots = [1000, 1001, 1002, 1003, 1007, 1008, 1009, 1010, 1011, 1012]
    assert sim.playbook.verdict.to_dict() == {
        "artificial_score": 10 / 15, "flagged": bots,
        "evidence": {"163": 8416, "172": 13489, "182": 11933, "320": 19566,
                     "429": 6283, **{str(b): 51 for b in bots}},
        "sample_size": 15, "requested": 20, "db_matched": [],
        "note": "only 15 of 20 requested early posts available"}


def test_shared_db_enriches_live_verdict(tmp_path):
    probe = build_from_seed(_defended([]), 0)
    probe.run(30)
    # first_authors keeps emission order with repeats; seed five unique ids
    unique_authors = list(dict.fromkeys(probe.post_log.first_authors(20)))
    path = tmp_path / "known.tsv"
    _write_db(path, {a: (-200, "prior-campaign") for a in unique_authors[:5]})

    cfg = _defended([PolicySpec(kind="shared_account_database")], db_path=str(path))
    sim = build_from_seed(cfg, 0)
    sim.run(30)
    assert sim.playbook.db is not None and len(sim.playbook.db) == 5
    assert len(sim.playbook.verdict.db_matched) == 5


def test_defended_preset_ends_smaller_than_baseline():
    base_cfg = default_config()
    defended_cfg = expand_preset("defended_baseline")
    base = build_from_seed(base_cfg, 3)
    base.run(base_cfg.run.ticks)
    defended = build_from_seed(defended_cfg, 3)
    defended.run(defended_cfg.run.ticks)
    assert sum(defended.history.organic_posts) < sum(base.history.organic_posts)
